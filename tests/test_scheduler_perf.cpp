// SchedulerPerf battery: equivalence guarantees behind the run-oriented
// scheduler and the device's world-environment cache.
//
//  * Fuzz: randomized storms of set_period / request_once issued from
//    callbacks must dispatch identically on the retired heap scheduler
//    (ReferenceScheduler, tests/scheduler_reference.*) and on the
//    run-oriented scheduler with two consumer shapes — one-sample consumers
//    and full-run consumers that truncate at a mutation — same (interface,
//    time) log, same metered joules (bitwise).
//  * Device: readings with the position-keyed spatial-query cache on are
//    byte-identical to the uncached path, and the cache actually hits on
//    dwell-dominated oracles.
//  * Study: a threaded deployment study equals the sequential one — this
//    file carries the SchedulerPerf label so the ci.sh tsan leg races the
//    batched hot loop across 8 workers.
#include <gtest/gtest.h>

#include <optional>
#include <span>
#include <tuple>
#include <vector>

#include "one_sample.hpp"
#include "scheduler_reference.hpp"
#include "sensing/device.hpp"
#include "sensing/scheduler.hpp"
#include "study/deployment.hpp"
#include "util/rng.hpp"
#include "world/world.hpp"

namespace pmware::sensing {
namespace {

using energy::Interface;

using DispatchLog = std::vector<std::pair<int, SimTime>>;

constexpr int kInterfaces = static_cast<int>(energy::kInterfaceCount);

/// One randomized schedule mutation, drawn from `rng`. Every driver below
/// calls this with the same per-dispatch RNG stream, so equivalent
/// schedulers make identical mutations; any divergence shows up as a
/// dispatch-log mismatch. Returns true if it mutated the schedule (batch
/// consumers must then truncate their run).
template <typename Sched>
bool maybe_mutate(Sched& s, Rng& rng, SimTime t,
                  std::optional<SimTime> explicit_from) {
  if (rng.index(12) != 0) return false;
  static constexpr SimDuration kPeriods[] = {30, 60, 90, 120, 300, 600};
  switch (rng.index(3)) {
    case 0: {
      // Re-arm a random non-GSM interface (GSM stays on so the storm never
      // dies out).
      const auto i = static_cast<Interface>(1 + rng.index(kInterfaces - 1));
      const SimDuration p = kPeriods[rng.index(std::size(kPeriods))];
      if constexpr (std::is_same_v<Sched, SamplingScheduler>) {
        s.set_period(i, p, explicit_from);
      } else {
        (void)explicit_from;
        s.set_period(i, p);
      }
      break;
    }
    case 1: {
      const auto i = static_cast<Interface>(1 + rng.index(kInterfaces - 1));
      if constexpr (std::is_same_v<Sched, SamplingScheduler>) {
        s.set_period(i, std::nullopt, explicit_from);
      } else {
        s.set_period(i, std::nullopt);
      }
      break;
    }
    default: {
      // One-shot at or after the current sample — including exactly at `t`
      // and colliding with future periodic fire times, which exercises the
      // equal-timestamp ordering contract.
      const auto i = static_cast<Interface>(rng.index(kInterfaces));
      s.request_once(i, t + static_cast<SimTime>(rng.index(5)) * 150);
      break;
    }
  }
  return true;
}

template <typename Sched>
void run_windows(Sched& s) {
  s.set_period(Interface::Gsm, 60);
  s.set_period(Interface::Accelerometer, 90);
  for (SimTime w = 0; w < 4; ++w)
    s.run(TimeWindow{w * hours(1), (w + 1) * hours(1)});
}

/// Storm through the reference heap scheduler's per-sample callbacks.
std::pair<DispatchLog, double> storm_reference(std::uint64_t seed) {
  energy::EnergyMeter meter;
  ReferenceScheduler s(&meter);
  Rng rng(seed);
  DispatchLog log;
  for (int i = 0; i < kInterfaces; ++i) {
    s.set_callback(static_cast<Interface>(i), [&s, &rng, &log, i](SimTime t) {
      log.push_back({i, t});
      maybe_mutate(s, rng, t, std::nullopt);
    });
  }
  run_windows(s);
  return {log, meter.total_j()};
}

/// The same storm through one-sample consumers: each call sees one sample
/// with now() at its time, so schedule changes need no explicit anchor.
std::pair<DispatchLog, double> storm_one_sample(std::uint64_t seed) {
  energy::EnergyMeter meter;
  SamplingScheduler s(&meter);
  Rng rng(seed);
  DispatchLog log;
  for (int i = 0; i < kInterfaces; ++i) {
    on_each_sample(s, static_cast<Interface>(i),
                   [&s, &rng, &log, i](SimTime t) {
                     log.push_back({i, t});
                     maybe_mutate(s, rng, t, std::nullopt);
                   });
  }
  run_windows(s);
  return {log, meter.total_j()};
}

/// The same storm through batch consumers following the truncation
/// contract: stop consuming right after a mutating sample, anchor schedule
/// changes at the sample time.
std::pair<DispatchLog, double> storm_batched(std::uint64_t seed) {
  energy::EnergyMeter meter;
  SamplingScheduler s(&meter);
  Rng rng(seed);
  DispatchLog log;
  for (int i = 0; i < kInterfaces; ++i) {
    s.set_batch_callback(
        static_cast<Interface>(i),
        [&s, &rng, &log, i](std::span<const SimTime> run) {
          std::size_t consumed = 0;
          for (const SimTime t : run) {
            log.push_back({i, t});
            ++consumed;
            if (maybe_mutate(s, rng, t, t)) break;
          }
          return consumed;
        });
  }
  run_windows(s);
  return {log, meter.total_j()};
}

TEST(SchedulerPerf, FuzzBatchedMatchesReferenceHeap) {
  for (std::uint64_t seed = 1; seed <= 200; ++seed) {
    SCOPED_TRACE("seed=" + std::to_string(seed));
    const auto reference = storm_reference(seed);
    const auto one_sample = storm_one_sample(seed);
    const auto batched = storm_batched(seed);
    ASSERT_EQ(reference.first, one_sample.first);
    ASSERT_EQ(reference.first, batched.first);
    EXPECT_EQ(reference.second, one_sample.second);  // joules, bitwise
    EXPECT_EQ(reference.second, batched.second);
  }
}

TEST(SchedulerPerf, EqualTimestampOrderIsPeriodicThenOneShots) {
  // At one tick: periodic interfaces in ascending index, then one-shots in
  // request order — on both schedulers.
  const auto drive = [](auto&& s) {
    DispatchLog log;
    for (int i = 0; i < kInterfaces; ++i) {
      const auto record = [&log, i](SimTime t) { log.push_back({i, t}); };
      if constexpr (std::is_same_v<std::decay_t<decltype(s)>,
                                   SamplingScheduler>) {
        on_each_sample(s, static_cast<Interface>(i), record);
      } else {
        s.set_callback(static_cast<Interface>(i), record);
      }
    }
    // Both periodic interfaces and both one-shots collide at t=120.
    s.set_period(Interface::Bluetooth, 120);  // index 4
    s.set_period(Interface::Wifi, 60);        // index 1
    s.request_once(Interface::Gps, 120);      // index 2, requested first
    s.request_once(Interface::Accelerometer, 120);  // index 3, second
    s.run(TimeWindow{0, 121});
    return log;
  };
  energy::EnergyMeter m1, m2;
  ReferenceScheduler ref(&m1);
  SamplingScheduler batched(&m2);
  const DispatchLog expected{{1, 0},   {4, 0},   {1, 60},  {1, 120},
                             {4, 120}, {2, 120}, {3, 120}};
  EXPECT_EQ(drive(ref), expected);
  EXPECT_EQ(drive(batched), expected);
}

// --- Device world-environment cache equivalence ---

class CachedDeviceFixture : public ::testing::Test {
 protected:
  void SetUp() override {
    world::WorldConfig config;
    Rng rng(1);
    world_ = world::generate_world(config, rng);
  }

  /// Dwell-trip-dwell oracle: anchored at place 0, a midday excursion to
  /// place 1 with a position that changes every sample in between.
  PositionOracle commuting_oracle() const {
    const geo::LatLng home = world_->place(0).center;
    const geo::LatLng work = world_->place(1).center;
    PositionOracle oracle;
    oracle.position = [home, work](SimTime t) {
      if (t < hours(3)) return home;
      if (t < hours(3) + minutes(30)) {  // in transit, moves every sample
        const double f = static_cast<double>(t - hours(3)) / minutes(30);
        return geo::LatLng{home.lat + (work.lat - home.lat) * f,
                           home.lng + (work.lng - home.lng) * f};
      }
      return work;
    };
    oracle.activity = [](SimTime) { return mobility::Activity::Still; };
    oracle.indoors = [](SimTime) { return true; };
    return oracle;
  }

  Device make_device(bool reuse_env, std::uint64_t seed = 42) {
    DeviceConfig config;
    config.reuse_world_env = reuse_env;
    return Device(world_, commuting_oracle(), config, Rng(seed));
  }

  std::shared_ptr<const world::World> world_;
};

TEST_F(CachedDeviceFixture, CachedReadingsAreByteIdenticalToUncached) {
  Device cached = make_device(true);
  Device uncached = make_device(false);
  for (SimTime t = 0; t < hours(6); t += 60) {
    const GsmReading a = cached.read_gsm(t);
    const GsmReading b = uncached.read_gsm(t);
    ASSERT_EQ(a.t, b.t);
    ASSERT_EQ(a.serving, b.serving);
    ASSERT_EQ(a.serving_rssi_dbm, b.serving_rssi_dbm);  // bitwise
    ASSERT_EQ(a.neighbors, b.neighbors);
    if (t % minutes(5) == 0) {
      const WifiScan sa = cached.scan_wifi(t);
      const WifiScan sb = uncached.scan_wifi(t);
      ASSERT_EQ(sa.aps.size(), sb.aps.size());
      for (std::size_t k = 0; k < sa.aps.size(); ++k) {
        ASSERT_EQ(sa.aps[k].bssid, sb.aps[k].bssid);
        ASSERT_EQ(sa.aps[k].rssi_dbm, sb.aps[k].rssi_dbm);
      }
    }
  }
}

TEST_F(CachedDeviceFixture, CacheHitsDominateOnDwellHeavyTraces) {
  Device device = make_device(true);
  for (SimTime t = 0; t < hours(6); t += 60) device.read_gsm(t);
  ASSERT_GT(device.env_queries(), 0u);
  const double hit_rate = static_cast<double>(device.env_hits()) /
                          static_cast<double>(device.env_queries());
  // 5.5 of 6 hours are dwells at a constant anchor position.
  EXPECT_GT(hit_rate, 0.85);
  // The uncached device never reports hits.
  Device honest = make_device(false);
  for (SimTime t = 0; t < hours(1); t += 60) honest.read_gsm(t);
  EXPECT_EQ(honest.env_hits(), 0u);
}

TEST_F(CachedDeviceFixture, RunReadsMatchSingleReads) {
  Device run_device = make_device(true);
  Device single_device = make_device(true);
  std::vector<SimTime> times;
  for (SimTime t = 0; t < hours(1); t += 60) times.push_back(t);

  std::vector<GsmReading> from_run;
  run_device.read_gsm_run(times, [&from_run](const GsmReading& r) {
    from_run.push_back(r);  // copy out of the scratch
    return true;
  });
  ASSERT_EQ(from_run.size(), times.size());
  for (std::size_t i = 0; i < times.size(); ++i) {
    const GsmReading single = single_device.read_gsm(times[i]);
    ASSERT_EQ(from_run[i].serving, single.serving);
    ASSERT_EQ(from_run[i].serving_rssi_dbm, single.serving_rssi_dbm);
    ASSERT_EQ(from_run[i].neighbors, single.neighbors);
  }
}

}  // namespace
}  // namespace pmware::sensing

namespace pmware::study {
namespace {

// Threaded batched hot loop vs sequential: same digests. Runs under tsan in
// the ci.sh SchedulerPerf leg.
TEST(SchedulerPerf, ThreadedStudyDigestMatchesSequential) {
  StudyConfig base;
  base.participants = 4;
  base.days = 3;
  StudyConfig threaded = base;
  threaded.threads = 8;
  const StudyResult rs = DeploymentStudy(base).run();
  const StudyResult rt = DeploymentStudy(threaded).run();
  EXPECT_EQ(rs.storage_digest, rt.storage_digest);
  ASSERT_EQ(rs.participants.size(), rt.participants.size());
  for (std::size_t i = 0; i < rs.participants.size(); ++i) {
    EXPECT_EQ(rs.participants[i].sensing_joules,
              rt.participants[i].sensing_joules);
    EXPECT_EQ(rs.participants[i].places_discovered,
              rt.participants[i].places_discovered);
  }
}

}  // namespace
}  // namespace pmware::study
