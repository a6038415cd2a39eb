#include "scheduler_reference.hpp"

#include <stdexcept>

#include "telemetry/metrics.hpp"
#include "telemetry/trace.hpp"

namespace pmware::sensing {

namespace {

telemetry::LabelSet interface_labels(energy::Interface interface) {
  return {{"interface", energy::to_string(interface)}};
}

void count_sample(energy::Interface interface) {
  telemetry::registry()
      .counter("sensing_samples_total", interface_labels(interface),
               "sensor samples dispatched by the sampling scheduler")
      .inc();
}

}  // namespace

ReferenceScheduler::ReferenceScheduler(energy::EnergyMeter* meter)
    : meter_(meter),
      instance_(telemetry::registry().next_instance_label("dev")) {}

void ReferenceScheduler::arm(std::size_t index, SimTime at) {
  ++generation_[index];
  next_due_[index] = at;
  queue_.push({at, false, index, generation_[index]});
}

void ReferenceScheduler::set_period(energy::Interface interface,
                                    std::optional<SimDuration> period) {
  if (period && *period <= 0)
    throw std::invalid_argument("set_period: period <= 0");
  const auto idx = static_cast<std::size_t>(interface);
  periods_[idx] = period;
  if (period) {
    arm(idx, now_ + *period);
  } else {
    ++generation_[idx];
    next_due_[idx] = std::nullopt;
  }
  // Duty-cycle view of the current policy: samples per second, 0 when the
  // interface is off. The instance label keeps each device's policy its own
  // series — without it, concurrent devices would race last-writer-wins.
  telemetry::LabelSet labels = interface_labels(interface);
  labels.emplace("instance", instance_);
  auto& reg = telemetry::registry();
  reg.gauge("sensing_period_seconds", labels,
            "configured sampling period, seconds (0 = disabled)")
      .set(period ? static_cast<double>(*period) : 0.0);
  reg.gauge("sensing_duty_cycle", std::move(labels),
            "samples per simulated second under the current policy")
      .set(period ? 1.0 / static_cast<double>(*period) : 0.0);
}

void ReferenceScheduler::set_callback(energy::Interface interface,
                                      Callback cb) {
  callbacks_[static_cast<std::size_t>(interface)] = std::move(cb);
}

void ReferenceScheduler::request_once(energy::Interface interface, SimTime at) {
  telemetry::registry()
      .counter("sensing_one_shots_total", interface_labels(interface),
               "triggered (one-shot) samples requested")
      .inc();
  queue_.push({std::max(at, now_), true,
               static_cast<std::size_t>(interface), one_shot_seq_++});
}

void ReferenceScheduler::run(TimeWindow window) {
  now_ = window.begin;
  telemetry::ScopedTimer run_span(telemetry::tracer(), "scheduler.run.ref",
                                  [this] { return now_; });
  if (meter_ != nullptr) meter_->charge_baseline(window.begin, window.end);

  // Arm periodic interfaces to fire at the window start.
  for (std::size_t i = 0; i < periods_.size(); ++i)
    if (periods_[i]) arm(i, window.begin);

  while (!queue_.empty()) {
    // Discard stale periodic hints so the top is a real event.
    const HeapEntry top = queue_.top();
    if (!top.one_shot && !live_periodic(top)) {
      queue_.pop();
      continue;
    }
    if (top.at >= window.end) break;
    now_ = top.at;

    // Periodic interfaces due now: the comparator sorts them before
    // one-shots at equal time and by ascending index, so popping until the
    // top moves on yields them in the stable dispatch order.
    std::vector<HeapEntry> due_periodic;
    while (!queue_.empty() && queue_.top().at == now_ &&
           !queue_.top().one_shot) {
      const HeapEntry entry = queue_.top();
      queue_.pop();
      if (live_periodic(entry)) due_periodic.push_back(entry);
    }
    for (const HeapEntry& entry : due_periodic) {
      const std::size_t i = entry.index;
      // Revalidate: an earlier callback this tick may have re-armed or
      // disabled this interface.
      if (!live_periodic(entry)) continue;
      const auto interface = static_cast<energy::Interface>(i);
      // Reschedule before dispatch so a callback changing the period wins.
      if (periods_[i]) {
        arm(i, now_ + *periods_[i]);
      } else {
        ++generation_[i];
        next_due_[i] = std::nullopt;
      }
      if (meter_ != nullptr) meter_->charge_sample(interface, now_);
      count_sample(interface);
      if (callbacks_[i]) callbacks_[i](now_);
    }

    // Due one-shots, drained as a snapshot (periodic callbacks above may
    // have requested some at `now_`; one-shot callbacks requesting more at
    // `now_` see them dispatched in the next loop iteration, still at the
    // same simulated time).
    std::vector<HeapEntry> due_shots;
    while (!queue_.empty() && queue_.top().at <= now_) {
      const HeapEntry entry = queue_.top();
      queue_.pop();
      if (entry.one_shot) due_shots.push_back(entry);
      // A periodic entry here is necessarily stale: live ones at `now_`
      // were drained above and callbacks only arm into the future.
    }
    for (const HeapEntry& shot : due_shots) {
      const auto interface = static_cast<energy::Interface>(shot.index);
      if (meter_ != nullptr) meter_->charge_sample(interface, now_);
      count_sample(interface);
      if (callbacks_[shot.index]) callbacks_[shot.index](now_);
    }
  }
  now_ = window.end;
}

}  // namespace pmware::sensing
