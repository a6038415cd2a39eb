#include "sensing/scheduler.hpp"

#include <gtest/gtest.h>

#include <span>
#include <utility>
#include <vector>

#include "one_sample.hpp"
#include "telemetry/metrics.hpp"

namespace pmware::sensing {
namespace {

using energy::Interface;

TEST(Scheduler, PeriodicCadence) {
  energy::EnergyMeter meter;
  SamplingScheduler scheduler(&meter);
  std::vector<SimTime> fired;
  on_each_sample(scheduler, Interface::Gsm,
                 [&fired](SimTime t) { fired.push_back(t); });
  scheduler.set_period(Interface::Gsm, 60);
  scheduler.run(TimeWindow{0, minutes(10)});
  // Fires at 0, 60, ..., 540 (not at the exclusive end).
  ASSERT_EQ(fired.size(), 10u);
  for (std::size_t i = 0; i < fired.size(); ++i)
    EXPECT_EQ(fired[i], static_cast<SimTime>(i) * 60);
}

TEST(Scheduler, MeterChargedPerSampleAndBaseline) {
  energy::EnergyMeter meter;
  SamplingScheduler scheduler(&meter);
  on_each_sample(scheduler, Interface::Wifi, [](SimTime) {});
  scheduler.set_period(Interface::Wifi, 120);
  scheduler.run(TimeWindow{0, minutes(10)});
  EXPECT_EQ(meter.sample_count(Interface::Wifi), 5u);
  EXPECT_DOUBLE_EQ(meter.baseline_j(),
                   meter.profile().base_power_w * minutes(10));
}

TEST(Scheduler, NullMeterIsAllowed) {
  SamplingScheduler scheduler(nullptr);
  int fired = 0;
  on_each_sample(scheduler, Interface::Gsm, [&fired](SimTime) { ++fired; });
  scheduler.set_period(Interface::Gsm, 60);
  scheduler.run(TimeWindow{0, minutes(5)});
  EXPECT_EQ(fired, 5);
}

TEST(Scheduler, DisabledInterfaceNeverFires) {
  SamplingScheduler scheduler(nullptr);
  int fired = 0;
  on_each_sample(scheduler, Interface::Gps, [&fired](SimTime) { ++fired; });
  scheduler.run(TimeWindow{0, hours(1)});
  EXPECT_EQ(fired, 0);
}

TEST(Scheduler, PolicyGaugesAreScopedPerDeviceInstance) {
  // Two devices with different policies must not clobber each other's
  // sensing_period_seconds / sensing_duty_cycle series (the old unlabeled
  // gauges raced last-writer-wins across the fleet).
  SamplingScheduler a(nullptr);
  SamplingScheduler b(nullptr);
  a.set_period(Interface::Gsm, 60);
  b.set_period(Interface::Gsm, 300);
  auto& reg = telemetry::registry();
  const telemetry::LabelSet la{{"instance", a.instance_label()},
                               {"interface", "gsm"}};
  const telemetry::LabelSet lb{{"instance", b.instance_label()},
                               {"interface", "gsm"}};
  const telemetry::Gauge* ga = reg.find_gauge("sensing_period_seconds", la);
  const telemetry::Gauge* gb = reg.find_gauge("sensing_period_seconds", lb);
  ASSERT_NE(ga, nullptr);
  ASSERT_NE(gb, nullptr);
  EXPECT_DOUBLE_EQ(ga->value(), 60.0);
  EXPECT_DOUBLE_EQ(gb->value(), 300.0);
  const telemetry::Gauge* da = reg.find_gauge("sensing_duty_cycle", la);
  ASSERT_NE(da, nullptr);
  EXPECT_DOUBLE_EQ(da->value(), 1.0 / 60.0);
}

TEST(Scheduler, SetPeriodRejectsNonPositive) {
  SamplingScheduler scheduler(nullptr);
  EXPECT_THROW(scheduler.set_period(Interface::Gsm, 0), std::invalid_argument);
  EXPECT_THROW(scheduler.set_period(Interface::Gsm, -5), std::invalid_argument);
  EXPECT_NO_THROW(scheduler.set_period(Interface::Gsm, std::nullopt));
}

TEST(Scheduler, CallbackCanChangePeriodMidRun) {
  SamplingScheduler scheduler(nullptr);
  std::vector<SimTime> fired;
  on_each_sample(scheduler, Interface::Gsm, [&](SimTime t) {
    fired.push_back(t);
    if (t == 120) scheduler.set_period(Interface::Gsm, 300);
  });
  scheduler.set_period(Interface::Gsm, 60);
  scheduler.run(TimeWindow{0, minutes(20)});
  // 0,60,120 at 1-minute cadence, then every 5 minutes: 420, 720, 1020.
  const std::vector<SimTime> expected{0, 60, 120, 420, 720, 1020};
  EXPECT_EQ(fired, expected);
}

TEST(Scheduler, CallbackCanDisableItself) {
  SamplingScheduler scheduler(nullptr);
  int fired = 0;
  on_each_sample(scheduler, Interface::Accelerometer, [&](SimTime) {
    if (++fired == 3) scheduler.set_period(Interface::Accelerometer, std::nullopt);
  });
  scheduler.set_period(Interface::Accelerometer, 60);
  scheduler.run(TimeWindow{0, hours(1)});
  EXPECT_EQ(fired, 3);
}

TEST(Scheduler, OneShotFiresOnce) {
  energy::EnergyMeter meter;
  SamplingScheduler scheduler(&meter);
  std::vector<SimTime> fired;
  on_each_sample(scheduler, Interface::Wifi,
                 [&fired](SimTime t) { fired.push_back(t); });
  scheduler.request_once(Interface::Wifi, 90);
  scheduler.run(TimeWindow{0, minutes(10)});
  ASSERT_EQ(fired.size(), 1u);
  EXPECT_EQ(fired[0], 90);
  EXPECT_EQ(meter.sample_count(Interface::Wifi), 1u);
}

TEST(Scheduler, OneShotsFromCallbacksDispatch) {
  SamplingScheduler scheduler(nullptr);
  std::vector<SimTime> wifi_fired;
  on_each_sample(scheduler, Interface::Wifi,
                 [&wifi_fired](SimTime t) { wifi_fired.push_back(t); });
  on_each_sample(scheduler, Interface::Gsm, [&scheduler](SimTime t) {
    if (t == 120) {
      // Trigger a burst: now and +60s.
      scheduler.request_once(Interface::Wifi, t);
      scheduler.request_once(Interface::Wifi, t + 60);
    }
  });
  scheduler.set_period(Interface::Gsm, 60);
  scheduler.run(TimeWindow{0, minutes(10)});
  const std::vector<SimTime> expected{120, 180};
  EXPECT_EQ(wifi_fired, expected);
}

TEST(Scheduler, OneShotBeyondWindowDoesNotFire) {
  SamplingScheduler scheduler(nullptr);
  int fired = 0;
  on_each_sample(scheduler, Interface::Gps, [&fired](SimTime) { ++fired; });
  scheduler.request_once(Interface::Gps, hours(2));
  scheduler.run(TimeWindow{0, hours(1)});
  EXPECT_EQ(fired, 0);
}

TEST(Scheduler, OneShotInPastFiresImmediately) {
  SamplingScheduler scheduler(nullptr);
  std::vector<SimTime> fired;
  on_each_sample(scheduler, Interface::Gps,
                 [&fired](SimTime t) { fired.push_back(t); });
  on_each_sample(scheduler, Interface::Gsm, [&scheduler](SimTime t) {
    if (t == 300) scheduler.request_once(Interface::Gps, 100);  // in the past
  });
  scheduler.set_period(Interface::Gsm, 300);
  scheduler.run(TimeWindow{0, minutes(11)});
  ASSERT_EQ(fired.size(), 1u);
  EXPECT_EQ(fired[0], 300);  // clamped to "now"
}

TEST(Scheduler, MultipleInterfacesInterleaveInTimeOrder) {
  SamplingScheduler scheduler(nullptr);
  std::vector<std::pair<int, SimTime>> events;
  on_each_sample(scheduler, Interface::Gsm,
                 [&](SimTime t) { events.push_back({0, t}); });
  on_each_sample(scheduler, Interface::Accelerometer,
                 [&](SimTime t) { events.push_back({1, t}); });
  scheduler.set_period(Interface::Gsm, 60);
  scheduler.set_period(Interface::Accelerometer, 90);
  scheduler.run(TimeWindow{0, minutes(6)});
  for (std::size_t i = 1; i < events.size(); ++i)
    EXPECT_LE(events[i - 1].second, events[i].second);
  // GSM fires 6 times (0..300), accel 4 times (0, 90, 180, 270).
  int gsm = 0, accel = 0;
  for (const auto& [kind, t] : events) (kind == 0 ? gsm : accel)++;
  EXPECT_EQ(gsm, 6);
  EXPECT_EQ(accel, 4);
}

TEST(Scheduler, RunAdvancesNow) {
  SamplingScheduler scheduler(nullptr);
  scheduler.run(TimeWindow{0, 100});
  EXPECT_EQ(scheduler.now(), 100);
  scheduler.run(TimeWindow{100, 200});
  EXPECT_EQ(scheduler.now(), 200);
}

TEST(Scheduler, ConsecutiveWindowsKeepCadence) {
  SamplingScheduler scheduler(nullptr);
  std::vector<SimTime> fired;
  on_each_sample(scheduler, Interface::Gsm,
                 [&fired](SimTime t) { fired.push_back(t); });
  scheduler.set_period(Interface::Gsm, 60);
  scheduler.run(TimeWindow{0, 150});
  scheduler.run(TimeWindow{150, 300});
  // Window restarts re-arm at the window start: 0,60,120 then 150,210,270.
  const std::vector<SimTime> expected{0, 60, 120, 150, 210, 270};
  EXPECT_EQ(fired, expected);
}

TEST(Scheduler, OneShotCarriesOverToNextWindow) {
  // A one-shot requested at/after the current window's end stays queued and
  // fires in the next run() window (the study runs day-sized windows).
  SamplingScheduler scheduler(nullptr);
  std::vector<SimTime> fired;
  on_each_sample(scheduler, Interface::Wifi,
                 [&fired](SimTime t) { fired.push_back(t); });
  on_each_sample(scheduler, Interface::Gsm, [&scheduler](SimTime t) {
    if (t == 60) {
      scheduler.request_once(Interface::Wifi, 300);  // == window.end
      scheduler.request_once(Interface::Wifi, 410);  // beyond window.end
    }
  });
  scheduler.set_period(Interface::Gsm, 60);
  scheduler.run(TimeWindow{0, 300});
  EXPECT_TRUE(fired.empty());
  scheduler.set_period(Interface::Gsm, std::nullopt);
  scheduler.run(TimeWindow{300, 600});
  const std::vector<SimTime> expected{300, 410};
  EXPECT_EQ(fired, expected);
}

TEST(Scheduler, BatchCallbackReceivesRuns) {
  // With no competing interfaces or one-shots, a periodic interface's whole
  // window arrives as one run of consecutive fire times.
  energy::EnergyMeter meter;
  SamplingScheduler scheduler(&meter);
  std::vector<std::vector<SimTime>> runs;
  scheduler.set_batch_callback(
      Interface::Gsm, [&runs](std::span<const SimTime> run) {
        runs.emplace_back(run.begin(), run.end());
        return run.size();
      });
  scheduler.set_period(Interface::Gsm, 60);
  scheduler.run(TimeWindow{0, minutes(10)});
  ASSERT_EQ(runs.size(), 1u);
  ASSERT_EQ(runs[0].size(), 10u);
  for (std::size_t i = 0; i < runs[0].size(); ++i)
    EXPECT_EQ(runs[0][i], static_cast<SimTime>(i) * 60);
  EXPECT_EQ(meter.sample_count(Interface::Gsm), 10u);
}

TEST(Scheduler, BatchConsumerTruncationMatchesPerSampleSemantics) {
  // The full-run consumer changes its own period mid-run: it stops consuming
  // after the triggering sample and passes the explicit time, and the fire
  // times match the one-sample consumer exactly (see
  // Scheduler.CallbackCanChangePeriodMidRun).
  SamplingScheduler scheduler(nullptr);
  std::vector<SimTime> fired;
  scheduler.set_batch_callback(
      Interface::Gsm, [&](std::span<const SimTime> run) {
        std::size_t consumed = 0;
        for (const SimTime t : run) {
          fired.push_back(t);
          ++consumed;
          if (t == 120) {
            scheduler.set_period(Interface::Gsm, 300, /*from=*/t);
            break;
          }
        }
        return consumed;
      });
  scheduler.set_period(Interface::Gsm, 60);
  scheduler.run(TimeWindow{0, minutes(20)});
  const std::vector<SimTime> expected{0, 60, 120, 420, 720, 1020};
  EXPECT_EQ(fired, expected);
}

TEST(Scheduler, ReturningZeroConsumesOneSample) {
  // A consumed count is clamped to [1, run length]: 0 still consumes the
  // first sample, so the scheduler re-plans from the next fire time and
  // hands the consumer one sample per call.
  energy::EnergyMeter meter;
  SamplingScheduler scheduler(&meter);
  std::vector<std::pair<SimTime, std::size_t>> runs;  // (first, length)
  scheduler.set_batch_callback(
      Interface::Gsm, [&runs](std::span<const SimTime> run) {
        runs.push_back({run.front(), run.size()});
        return std::size_t{0};
      });
  scheduler.set_period(Interface::Gsm, 60);
  scheduler.run(TimeWindow{0, minutes(10)});
  ASSERT_EQ(runs.size(), 10u);
  for (std::size_t i = 0; i < runs.size(); ++i) {
    EXPECT_EQ(runs[i].first, static_cast<SimTime>(i) * 60);
    EXPECT_EQ(runs[i].second, 10 - i);
  }
  EXPECT_EQ(meter.sample_count(Interface::Gsm), 10u);
}

TEST(Scheduler, ReturningMoreThanTheRunConsumesTheRun) {
  energy::EnergyMeter meter;
  SamplingScheduler scheduler(&meter);
  std::vector<std::size_t> lengths;
  scheduler.set_batch_callback(
      Interface::Gsm, [&lengths](std::span<const SimTime> run) {
        lengths.push_back(run.size());
        return run.size() + 100;
      });
  scheduler.set_period(Interface::Gsm, 60);
  scheduler.run(TimeWindow{0, minutes(10)});
  scheduler.run(TimeWindow{minutes(10), minutes(20)});
  // One run per window, charged once per fire time, never beyond it.
  const std::vector<std::size_t> expected{10, 10};
  EXPECT_EQ(lengths, expected);
  EXPECT_EQ(meter.sample_count(Interface::Gsm), 20u);
}

TEST(Scheduler, BatchAndSingleCallbacksAgree) {
  // Same policy storm driven through one-sample consumers and through
  // full-run consumers that truncate at their schedule change produces
  // identical dispatch logs and identical metered energy.
  const auto drive = [](auto&& install) {
    energy::EnergyMeter meter;
    SamplingScheduler scheduler(&meter);
    std::vector<std::pair<int, SimTime>> log;
    install(scheduler, log);
    scheduler.set_period(Interface::Gsm, 60);
    scheduler.set_period(Interface::Accelerometer, 90);
    scheduler.run(TimeWindow{0, hours(1)});
    scheduler.run(TimeWindow{hours(1), hours(2)});
    return std::pair(log, meter.total_j());
  };

  const auto single = drive([](SamplingScheduler& s,
                               std::vector<std::pair<int, SimTime>>& log) {
    on_each_sample(s, Interface::Gsm, [&s, &log](SimTime t) {
      log.push_back({0, t});
      if (t == 300) s.request_once(Interface::Wifi, t + 30);
    });
    on_each_sample(s, Interface::Accelerometer,
                   [&log](SimTime t) { log.push_back({1, t}); });
    on_each_sample(s, Interface::Wifi,
                   [&log](SimTime t) { log.push_back({2, t}); });
  });
  const auto batched = drive([](SamplingScheduler& s,
                                std::vector<std::pair<int, SimTime>>& log) {
    const auto consume = [&s](int kind, auto& log_ref) {
      return [&s, kind, &log_ref](std::span<const SimTime> run) {
        std::size_t consumed = 0;
        for (const SimTime t : run) {
          log_ref.push_back({kind, t});
          ++consumed;
          if (kind == 0 && t == 300) {
            s.request_once(Interface::Wifi, t + 30);
            break;
          }
        }
        return consumed;
      };
    };
    s.set_batch_callback(Interface::Gsm, consume(0, log));
    s.set_batch_callback(Interface::Accelerometer, consume(1, log));
    s.set_batch_callback(Interface::Wifi, consume(2, log));
  });

  EXPECT_EQ(single.first, batched.first);
  EXPECT_EQ(single.second, batched.second);
}

}  // namespace
}  // namespace pmware::sensing
