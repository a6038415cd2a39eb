#include "sensing/scheduler.hpp"

#include <algorithm>
#include <chrono>
#include <limits>
#include <stdexcept>

#include "telemetry/trace.hpp"

namespace pmware::sensing {

namespace {

constexpr std::size_t kNone = std::numeric_limits<std::size_t>::max();
constexpr SimTime kNever = std::numeric_limits<SimTime>::max();

telemetry::LabelSet interface_labels(energy::Interface interface) {
  return {{"interface", energy::to_string(interface)}};
}

std::array<telemetry::CounterHandle, energy::kInterfaceCount> sample_counters(
    const char* name, const char* help) {
  const auto make = [&](std::size_t i) {
    return telemetry::CounterHandle(
        name, interface_labels(static_cast<energy::Interface>(i)), help);
  };
  return {make(0), make(1), make(2), make(3), make(4)};
}

}  // namespace

static_assert(energy::kInterfaceCount == 5,
              "sample_counters() enumerates the interfaces explicitly");

SamplingScheduler::SamplingScheduler(energy::EnergyMeter* meter)
    : meter_(meter),
      instance_(telemetry::registry().next_instance_label("dev")),
      samples_total_(sample_counters(
          "sensing_samples_total",
          "sensor samples dispatched by the sampling scheduler")),
      one_shots_total_(sample_counters(
          "sensing_one_shots_total",
          "triggered (one-shot) samples requested")) {
  run_buffer_.reserve(kMaxRunLength);
  due_shots_.reserve(16);
}

void SamplingScheduler::set_period(energy::Interface interface,
                                   std::optional<SimDuration> period,
                                   std::optional<SimTime> from) {
  if (period && *period <= 0)
    throw std::invalid_argument("set_period: period <= 0");
  const auto idx = static_cast<std::size_t>(interface);
  periods_[idx] = period;
  ++generation_[idx];
  ++change_epoch_;
  if (period) {
    next_due_[idx] = from.value_or(now_) + *period;
  } else {
    next_due_[idx] = std::nullopt;
  }
  // Duty-cycle view of the current policy: samples per second, 0 when the
  // interface is off. The instance label keeps each device's policy its own
  // series — without it, concurrent devices would race last-writer-wins.
  // This is the cold path (policy changes, not samples), so the registry
  // lookup stays inline.
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

void SamplingScheduler::set_batch_callback(energy::Interface interface,
                                           BatchCallback cb) {
  batch_callbacks_[static_cast<std::size_t>(interface)] = std::move(cb);
}

void SamplingScheduler::request_once(energy::Interface interface, SimTime at) {
  const auto idx = static_cast<std::size_t>(interface);
  one_shots_total_[idx].inc();
  ++change_epoch_;
  shots_.push({std::max(at, now_), idx, one_shot_seq_++});
}

void SamplingScheduler::dispatch_due_one_shots(SimTime t) {
  // Old heap semantics, preserved: a one-shot queued before the window at a
  // time already in the past still dispatches at its own (earlier) time.
  now_ = t;
  // Snapshot-then-dispatch: one-shot callbacks requesting more shots at the
  // same time see them in the *next* snapshot, still at the same simulated
  // time — the order the heap scheduler produced.
  due_shots_.clear();
  while (!shots_.empty() && shots_.top().at <= t) {
    due_shots_.push_back(shots_.top());
    shots_.pop();
  }
  for (const OneShot& shot : due_shots_) {
    const auto interface = static_cast<energy::Interface>(shot.index);
    if (meter_ != nullptr) meter_->charge_sample(interface, now_);
    samples_total_[shot.index].inc();
    const auto& callback = batch_callbacks_[shot.index];
    if (!callback) continue;
    const auto begin = std::chrono::steady_clock::now();
    (void)callback(std::span<const SimTime>(&t, 1));
    callback_ns_[shot.index] +=
        std::chrono::duration_cast<std::chrono::nanoseconds>(
            std::chrono::steady_clock::now() - begin)
            .count();
  }
}

void SamplingScheduler::dispatch_periodic_run(std::size_t index, SimTime t0,
                                              SimTime horizon) {
  const SimDuration p = *periods_[index];
  const auto interface = static_cast<energy::Interface>(index);

  // Fire times t0, t0+p, ... strictly below the horizon (the first instant
  // anything else can fire). Ties at t0 with another interface or a one-shot
  // still yield a run of one — the loop re-plans after every dispatch, so
  // equal-time ordering is preserved.
  std::size_t n = 1;
  if (horizon > t0)
    n = static_cast<std::size_t>((horizon - t0 - 1) / p) + 1;
  n = std::min(n, kMaxRunLength);
  run_buffer_.clear();
  for (std::size_t k = 0; k < n; ++k)
    run_buffer_.push_back(t0 + static_cast<SimTime>(k) * p);

  const std::uint64_t gen_before = generation_[index];
  now_ = t0;
  std::size_t consumed = n;
  if (const auto& callback = batch_callbacks_[index]) {
    const auto begin = std::chrono::steady_clock::now();
    consumed = callback(std::span<const SimTime>(run_buffer_.data(), n));
    callback_ns_[index] +=
        std::chrono::duration_cast<std::chrono::nanoseconds>(
            std::chrono::steady_clock::now() - begin)
            .count();
    consumed = std::clamp<std::size_t>(consumed, 1, n);
  }
  const SimTime last = run_buffer_[consumed - 1];
  now_ = last;
  if (meter_ != nullptr) meter_->charge_samples(interface, consumed, last);
  samples_total_[index].inc(consumed);
  // A mid-run set_period on this interface already re-armed it (relative
  // to the consumer's explicit `from`); otherwise continue the cadence
  // from the last consumed sample.
  if (generation_[index] == gen_before && periods_[index])
    next_due_[index] = last + *periods_[index];
}

void SamplingScheduler::run(TimeWindow window) {
  now_ = window.begin;
  callback_ns_.fill(0);
  telemetry::ScopedTimer run_span(telemetry::tracer(), "scheduler.run",
                                  [this] { return now_; });
  if (meter_ != nullptr) meter_->charge_baseline(window.begin, window.end);

  // Arm periodic interfaces to fire at the window start.
  for (std::size_t i = 0; i < periods_.size(); ++i) {
    if (periods_[i]) {
      ++generation_[i];
      next_due_[i] = window.begin;
    }
  }

  while (true) {
    // Earliest due periodic interface; ties resolve to the lowest index,
    // which is the dispatch order contract.
    std::size_t best = kNone;
    SimTime best_t = kNever;
    for (std::size_t i = 0; i < next_due_.size(); ++i) {
      if (next_due_[i] && *next_due_[i] < best_t) {
        best = i;
        best_t = *next_due_[i];
      }
    }
    const SimTime shot_t = shots_.empty() ? kNever : shots_.top().at;
    const SimTime t = std::min(best_t, shot_t);
    if (t >= window.end) break;

    if (best != kNone && best_t <= shot_t) {
      // Horizon: the next instant any *other* source can fire.
      SimTime horizon = std::min(window.end, shot_t);
      for (std::size_t j = 0; j < next_due_.size(); ++j)
        if (j != best && next_due_[j])
          horizon = std::min(horizon, *next_due_[j]);
      dispatch_periodic_run(best, best_t, horizon);
    } else {
      dispatch_due_one_shots(shot_t);
    }
  }
  now_ = window.end;

  // Fold the accumulated consumer time into one child span per interface,
  // while scheduler.run is still the open span: the flame then separates
  // the sampling work (device reads + inference, under
  // scheduler.sampling.<interface>) from the dispatch machinery itself
  // (scheduler.run self time). One record per interface per window — a
  // per-run RAII span would overflow the tracer's record cap on a full
  // study and distort the very flame it measures.
  for (std::size_t i = 0; i < callback_ns_.size(); ++i) {
    if (callback_ns_[i] <= 0) continue;
    telemetry::tracer().record_span(
        std::string("scheduler.sampling.") +
            energy::to_string(static_cast<energy::Interface>(i)),
        window.begin, window.end, callback_ns_[i]);
  }
}

}  // namespace pmware::sensing
