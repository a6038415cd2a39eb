// Population-scale study runner tests: the differential oracle against a
// one-wave, one-thread run, wave-boundary edge cases, retirement /
// rehydration round-trips, the bounded-memory guarantee, the
// instance-label O(N) regression guard, and the arena allocator itself.
//
// Small configurations keep the suite fast; the full 1k..100k sweep runs
// in bench_deployment_study's population_sweep block.
#include "study/deployment.hpp"

#include <gtest/gtest.h>

#include <cstdint>
#include <sstream>
#include <string>
#include <vector>

#include "core/codec.hpp"
#include "core/persistence.hpp"
#include "telemetry/metrics.hpp"
#include "telemetry/process.hpp"
#include "util/arena.hpp"

namespace pmware::study {
namespace {

#if defined(__SANITIZE_ADDRESS__) || defined(__SANITIZE_THREAD__)
constexpr bool kSanitized = true;
#elif defined(__has_feature)
#if __has_feature(address_sanitizer) || __has_feature(thread_sanitizer)
constexpr bool kSanitized = true;
#else
constexpr bool kSanitized = false;
#endif
#else
constexpr bool kSanitized = false;
#endif

StudyConfig small_config() {
  StudyConfig config;
  config.participants = 4;
  config.days = 3;
  config.threads = 2;
  config.shards = 4;
  return config;
}

/// The oracle shape of `config`: one wave holding every participant, run on
/// one thread — every profile and RNG fork is admitted up front, in id
/// order, and participants run strictly one after another.
StudyConfig one_wave_one_thread(StudyConfig config) {
  config.wave_size = config.participants;
  config.threads = 1;
  return config;
}

/// Byte-identical comparison of a run against the one-wave, one-thread
/// oracle: per-participant detail, the place map, the cloud stats, and the
/// order-independent content digest.
void expect_matches_oracle(const StudyResult& oracle, const StudyResult& run,
                           const std::string& what) {
  SCOPED_TRACE(what);
  ASSERT_EQ(oracle.participants.size(), run.participants.size());
  for (std::size_t i = 0; i < oracle.participants.size(); ++i) {
    const ParticipantResult& a = oracle.participants[i];
    const ParticipantResult& b = run.participants[i];
    EXPECT_EQ(a.profile.id, b.profile.id);
    EXPECT_EQ(a.profile.home, b.profile.home);
    EXPECT_EQ(a.places_discovered, b.places_discovered);
    EXPECT_EQ(a.places_tagged, b.places_tagged);
    EXPECT_EQ(a.places_evaluable, b.places_evaluable);
    EXPECT_EQ(a.eval.outcomes, b.eval.outcomes);
    EXPECT_EQ(a.ad_likes, b.ad_likes);
    EXPECT_EQ(a.ad_dislikes, b.ad_dislikes);
    EXPECT_EQ(a.sensing_joules, b.sensing_joules);  // bitwise, not approx
    EXPECT_EQ(a.implied_battery_hours, b.implied_battery_hours);
  }
  ASSERT_EQ(oracle.place_map.size(), run.place_map.size());
  for (std::size_t i = 0; i < oracle.place_map.size(); ++i) {
    EXPECT_EQ(oracle.place_map[i].participant, run.place_map[i].participant);
    EXPECT_EQ(oracle.place_map[i].uid, run.place_map[i].uid);
    EXPECT_EQ(oracle.place_map[i].label, run.place_map[i].label);
    EXPECT_EQ(oracle.place_map[i].location, run.place_map[i].location);
  }
  EXPECT_EQ(oracle.totals.participants, run.totals.participants);
  EXPECT_EQ(oracle.totals.places_discovered, run.totals.places_discovered);
  EXPECT_EQ(oracle.totals.places_tagged, run.totals.places_tagged);
  EXPECT_EQ(oracle.totals.ad_likes, run.totals.ad_likes);
  EXPECT_EQ(oracle.totals.sensing_joules, run.totals.sensing_joules);
  EXPECT_EQ(oracle.cohorts.size(), run.cohorts.size());
  // Cloud-side truth: wave barriers and worker interleaving must not change
  // what the study stored, only when each per-user record was folded away.
  EXPECT_EQ(oracle.storage_stats, run.storage_stats);
  EXPECT_EQ(oracle.storage_digest, run.storage_digest);
}

// The differential oracle: a barrier after every participant (wave = 1)
// and the default wave on two threads are byte-identical to one wave run
// on one thread — same science table, same place map, same cloud content
// digest.
TEST(Population, ShapesMatchOneWaveOracle) {
  const StudyResult oracle =
      DeploymentStudy(one_wave_one_thread(small_config())).run();
  EXPECT_NE(oracle.storage_digest, 0u);
  StudyConfig per_participant = small_config();
  per_participant.wave_size = 1;
  expect_matches_oracle(oracle, DeploymentStudy(per_participant).run(),
                        "wave=1 vs one wave");
  const StudyResult threaded = DeploymentStudy(small_config()).run();
  expect_matches_oracle(oracle, threaded,
                        "default wave, threads=2 vs one wave");
}

// Wave boundaries must never shift results: populations that don't divide
// the wave size, fewer participants than worker threads, and the N=1
// degenerate wave all reproduce the one-wave, one-thread oracle.
TEST(Population, WaveBoundariesNeverChangeResults) {
  const struct {
    int participants, days, threads, wave;
  } kCases[] = {
      {5, 2, 2, 2},   // N % wave != 0 — last wave is short
      {7, 2, 3, 4},   // N % wave != 0, odd thread count
      {2, 2, 8, 0},   // N < threads — most workers idle
      {1, 2, 1, 0},   // single participant, single wave
  };
  for (const auto& c : kCases) {
    StudyConfig config;
    config.participants = c.participants;
    config.days = c.days;
    config.threads = c.threads;
    config.wave_size = c.wave;
    const StudyResult oracle = DeploymentStudy(one_wave_one_thread(config)).run();
    const StudyResult run = DeploymentStudy(config).run();
    expect_matches_oracle(
        oracle, run,
        "N=" + std::to_string(c.participants) +
            " threads=" + std::to_string(c.threads) +
            " wave=" + std::to_string(c.wave));
  }
}

// Wave size is a pure memory knob: any admission granularity produces the
// same digest.
TEST(Population, WaveSizeIsAPureMemoryKnob) {
  StudyConfig config;
  config.participants = 6;
  config.days = 2;
  config.threads = 2;
  std::uint64_t first_digest = 0;
  for (const int wave : {1, 2, 5, 64}) {
    config.wave_size = wave;
    const StudyResult run = DeploymentStudy(config).run();
    if (first_digest == 0)
      first_digest = run.storage_digest;
    else
      EXPECT_EQ(run.storage_digest, first_digest) << "wave=" << wave;
  }
  EXPECT_NE(first_digest, 0u);
}

// Above the detail threshold the study keeps aggregates only:
// no per-participant vector, no place map, but the totals and cohort
// tables still carry the whole study.
TEST(Population, AggregateModeDropsDetailButKeepsTotals) {
  StudyConfig config;
  config.participants = DeploymentStudy::kDetailThreshold + 4;
  config.days = 1;
  config.threads = 2;
  const StudyResult run = DeploymentStudy(config).run();
  EXPECT_TRUE(run.participants.empty());
  EXPECT_TRUE(run.place_map.empty());
  EXPECT_EQ(run.totals.participants,
            static_cast<std::uint64_t>(config.participants));
  EXPECT_GT(run.totals.places_discovered, 0u);
  std::uint64_t cohort_sum = 0;
  for (const auto& [arch, stats] : run.cohorts) cohort_sum += stats.participants;
  EXPECT_EQ(cohort_sum, run.totals.participants);
  EXPECT_EQ(run.storage_stats.users,
            static_cast<std::size_t>(config.participants));
  EXPECT_NE(run.storage_digest, 0u);
}

// --- Retirement / rehydration ---
//
// A retired participant's PMS data products round-trip through the JSONL
// persistence layer: the rehydrated GSM log carries the same movement
// digest (so the cloud-side archived digest can be recomputed from cold
// storage), and a from-scratch GCA pass over it reproduces the original
// clustering exactly.

std::vector<algorithms::CellObservation> synthetic_gsm_log() {
  std::vector<algorithms::CellObservation> log;
  Rng rng(42);
  // Two "places" (tight cell bounces) joined by commute segments.
  const auto emit_stay = [&](std::uint32_t base_cid, SimTime from, SimTime to) {
    for (SimTime t = from; t < to; t += minutes(1)) {
      world::CellId cell;
      cell.mcc = 404;
      cell.lac = 7;
      cell.cid = base_cid + static_cast<std::uint32_t>(rng.uniform_int(0, 2));
      log.push_back({t, cell});
    }
  };
  const auto emit_trip = [&](std::uint32_t from_cid, std::uint32_t to_cid,
                             SimTime from, SimTime to) {
    const SimTime span = to - from;
    for (SimTime t = from; t < to; t += minutes(1)) {
      world::CellId cell;
      cell.mcc = 404;
      cell.lac = 7;
      const double frac = static_cast<double>(t - from) /
                          static_cast<double>(span > 0 ? span : 1);
      cell.cid = from_cid +
                 static_cast<std::uint32_t>(frac *
                                            static_cast<double>(to_cid - from_cid));
      log.push_back({t, cell});
    }
  };
  emit_stay(100, 0, hours(8));
  emit_trip(100, 200, hours(8), hours(9));
  emit_stay(200, hours(9), hours(17));
  emit_trip(200, 100, hours(17), hours(18));
  emit_stay(100, hours(18), hours(24));
  return log;
}

TEST(Population, RetiredGsmLogRoundTripsWithIdenticalDigest) {
  const auto original = synthetic_gsm_log();
  const std::uint64_t digest = core::movement_digest(original);

  std::stringstream io;
  core::write_gsm_log(io, original);
  const auto rehydrated = core::read_gsm_log(io);

  ASSERT_EQ(rehydrated.size(), original.size());
  for (std::size_t i = 0; i < original.size(); ++i) {
    EXPECT_EQ(rehydrated[i].t, original[i].t);
    EXPECT_EQ(rehydrated[i].cell, original[i].cell);
  }
  EXPECT_EQ(core::movement_digest(rehydrated), digest);
}

TEST(Population, RehydratedLogReclustersIdentically) {
  const auto original = synthetic_gsm_log();
  std::stringstream io;
  core::write_gsm_log(io, original);
  const auto rehydrated = core::read_gsm_log(io);

  algorithms::GcaState warm;
  algorithms::GcaState cold;
  const algorithms::GcaResult a = warm.run(original);
  const algorithms::GcaResult b = cold.run(rehydrated);
  EXPECT_EQ(a.places.size(), b.places.size());
  EXPECT_EQ(a.cell_to_place, b.cell_to_place);
  ASSERT_EQ(a.visits.size(), b.visits.size());
  for (std::size_t i = 0; i < a.visits.size(); ++i) {
    EXPECT_EQ(a.visits[i].place_index, b.visits[i].place_index);
    EXPECT_EQ(a.visits[i].window, b.visits[i].window);
  }
}

// Arena-backed engine logs serialize through the same span-based writers as
// heap-backed ones — retirement does not depend on where the log lived.
TEST(Population, ArenaBackedVisitLogRoundTrips) {
  util::Arena arena;
  core::VisitLog log{util::ArenaAllocator<core::LoggedVisit>(&arena)};
  log.push_back({3, TimeWindow{minutes(10), minutes(70)}});
  log.push_back({7, TimeWindow{hours(2), hours(5)}});

  std::stringstream io;
  core::write_visit_log(io, log);
  const auto back = core::read_visit_log(io);
  ASSERT_EQ(back.size(), log.size());
  for (std::size_t i = 0; i < log.size(); ++i) {
    EXPECT_EQ(back[i].uid, log[i].uid);
    EXPECT_EQ(back[i].window, log[i].window);
  }
}

// --- Bounded memory ---
//
// The point of streaming participants in waves: peak RSS must not grow
// linearly with N. An aggregate-mode run well above the detail threshold may only add a
// bounded increment on top of the process's prior high-water mark —
// materializing 320 participants' logs and results would blow through it.
TEST(Population, StreamingPeakRssIsBounded) {
  // Warm up allocators, telemetry, and the world generator so the measured
  // delta is the streaming run itself, not one-time setup.
  StudyConfig warm;
  warm.participants = 8;
  warm.days = 1;
  (void)DeploymentStudy(warm).run();

  const std::uint64_t before = telemetry::read_process_stats().peak_rss_bytes;
  ASSERT_GT(before, 0u) << "/proc/self/status not readable";

  StudyConfig config;
  config.participants = 320;  // 20x the warm-up, far above detail threshold
  config.days = 1;
  config.threads = 2;
  const StudyResult run = DeploymentStudy(config).run();
  EXPECT_EQ(run.totals.participants, 320u);

  const std::uint64_t after = telemetry::read_process_stats().peak_rss_bytes;
  const std::uint64_t delta = after - before;
  // Generous absolute ceiling (sanitizers inflate every allocation):
  // keeping all 320 participants' engine logs, results, and cloud records
  // live at once lands far above this.
  const std::uint64_t budget =
      (kSanitized ? 768ull : 192ull) * 1024 * 1024;
  EXPECT_LT(delta, budget)
      << "streaming run of 320 participants grew peak RSS by " << delta
      << " bytes";
}

// --- O(N) global-scan regression guard ---
//
// Per-participant PMS instances label their metrics with a fresh
// "instance" value; at N=100k that used to grow every counter family to
// 100k series, making each registry lookup and each recorder sampling walk
// O(N). Inside an InstanceLabelScope the label is the worker slot, so the
// registry's series population stays O(threads), not O(participants).
TEST(Population, InstanceLabelScopeKeepsRegistryBounded) {
  auto& reg = telemetry::registry();
  const std::size_t before = reg.series_count();
  {
    telemetry::InstanceLabelScope scope("popslot");
    for (int i = 0; i < 1000; ++i) {
      reg.counter("population_scan_probe_total",
                  {{"instance", reg.next_instance_label("pms")}},
                  "series-growth probe")
          .inc();
    }
  }
  const std::size_t with_scope = reg.series_count() - before;
  EXPECT_EQ(with_scope, 1u)
      << "1000 scoped participants must share one series";

  // Without the scope every participant mints a fresh series — the O(N)
  // growth the scope exists to prevent.
  const std::size_t unscoped_before = reg.series_count();
  for (int i = 0; i < 10; ++i) {
    reg.counter("population_scan_probe_total",
                {{"instance", reg.next_instance_label("pms")}},
                "series-growth probe")
        .inc();
  }
  EXPECT_EQ(reg.series_count() - unscoped_before, 10u);
}

// An aggregate-mode study must leave the registry O(threads):
// the per-family series count after a 300-participant run stays far below
// the participant count.
TEST(Population, AggregateStudyKeepsSeriesCountSubLinear) {
  const std::size_t before = telemetry::registry().series_count();
  StudyConfig config;
  config.participants = 300;
  config.days = 1;
  config.threads = 2;
  (void)DeploymentStudy(config).run();
  const std::size_t grown = telemetry::registry().series_count() - before;
  EXPECT_LT(grown, 200u)
      << "300 participants may not mint per-participant series";
}

// --- Arena allocator ---

TEST(Arena, RespectsAlignment) {
  util::Arena arena(128);
  for (const std::size_t align : {1ull, 2ull, 8ull, 16ull, 64ull}) {
    void* p = arena.allocate(3, align);
    EXPECT_EQ(reinterpret_cast<std::uintptr_t>(p) % align, 0u)
        << "align=" << align;
  }
}

TEST(Arena, ResetReusesBlocksWithoutGrowing) {
  util::Arena arena(1024);
  void* first = arena.allocate(256, 8);
  const std::size_t grown = arena.growths();
  EXPECT_EQ(grown, 1u);
  arena.reset();
  void* again = arena.allocate(256, 8);
  EXPECT_EQ(again, first);  // same block, same cursor
  EXPECT_EQ(arena.growths(), grown);
  EXPECT_EQ(arena.resets(), 1u);
}

TEST(Arena, GrowsByDoublingAndReusesWholeChainAfterReset) {
  util::Arena arena(64);
  // Force several growths.
  for (int i = 0; i < 6; ++i) (void)arena.allocate(60, 8);
  const std::size_t grown = arena.growths();
  const std::size_t capacity = arena.capacity();
  EXPECT_GE(grown, 2u);
  arena.reset();
  // The same allocation pattern must fit in the retained chain.
  for (int i = 0; i < 6; ++i) (void)arena.allocate(60, 8);
  EXPECT_EQ(arena.growths(), grown);
  EXPECT_EQ(arena.capacity(), capacity);
}

TEST(Arena, AllocatorDegradesToHeapWithoutArena) {
  std::vector<int, util::ArenaAllocator<int>> v;  // null arena
  for (int i = 0; i < 1000; ++i) v.push_back(i);
  EXPECT_EQ(v.size(), 1000u);
  EXPECT_EQ(v[999], 999);
}

TEST(Arena, VectorWorkloadReachesZeroGrowthSteadyState) {
  util::Arena arena(1 << 16);
  // Simulate the study's per-participant engine logs: identical
  // allocation shapes, arena reset between participants.
  std::size_t after_warmup = 0;
  for (int participant = 0; participant < 8; ++participant) {
    core::ObsLog obs{util::ArenaAllocator<algorithms::CellObservation>(&arena)};
    core::VisitLog visits{util::ArenaAllocator<core::LoggedVisit>(&arena)};
    for (int i = 0; i < 2000; ++i) {
      world::CellId cell;
      cell.cid = static_cast<std::uint32_t>(i);
      obs.push_back({minutes(i), cell});
      if (i % 50 == 0)
        visits.push_back(
            {static_cast<core::PlaceUid>(i / 50),
             TimeWindow{minutes(i), minutes(i + 40)}});
    }
    arena.reset();
    if (participant == 0) after_warmup = arena.growths();
  }
  // After the first participant warmed the block chain up, later identical
  // participants must be served without touching the heap.
  EXPECT_EQ(arena.growths(), after_warmup);
  EXPECT_EQ(arena.resets(), 8u);
}

}  // namespace
}  // namespace pmware::study
