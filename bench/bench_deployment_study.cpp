// Experiments E3 / E4 / E5 — the paper's §4 deployment study: 16
// participants, 2 weeks, PMWare + PlaceADs on every device.
//
// Paper numbers reproduced (shape, not absolute):
//   - 123 places discovered, 85 tagged (~70%)
//   - of 62 evaluable (tagged, with departure info):
//       79.03% correct, 14.52% merged, 6.45% divided
//   - PlaceADs like:dislike = 17:3
//   - Figure 5b: map of all places visited by the participants
#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <cstring>

#include "algorithms/gca.hpp"
#include "study/deployment.hpp"
#include "telemetry/export.hpp"
#include "telemetry/log.hpp"
#include "telemetry/process.hpp"
#include "util/logging.hpp"
#include "viz/map_render.hpp"

using namespace pmware;
using algorithms::DiscoveredOutcome;

namespace {

double wall_seconds_since(std::chrono::steady_clock::time_point begin) {
  return std::chrono::duration_cast<std::chrono::duration<double>>(
             std::chrono::steady_clock::now() - begin)
      .count();
}

/// Aggregates that must be identical across thread AND shard counts.
struct StudyFingerprint {
  std::size_t discovered = 0, tagged = 0, evaluable = 0;
  std::size_t correct = 0, merged = 0, divided = 0;
  std::size_t likes = 0, dislikes = 0, map_entries = 0;
  double joules = 0;
  cloud::CloudStorage::Stats storage;
  std::uint64_t storage_digest = 0;

  static StudyFingerprint of(const study::StudyResult& r) {
    StudyFingerprint f;
    f.discovered = r.total_discovered();
    f.tagged = r.total_tagged();
    f.evaluable = r.total_evaluable();
    f.correct = r.total(DiscoveredOutcome::Correct);
    f.merged = r.total(DiscoveredOutcome::Merged);
    f.divided = r.total(DiscoveredOutcome::Divided);
    f.likes = r.total_likes();
    f.dislikes = r.total_dislikes();
    f.map_entries = r.place_map.size();
    for (const auto& p : r.participants) f.joules += p.sensing_joules;
    f.storage = r.storage_stats;
    f.storage_digest = r.storage_digest;
    return f;
  }
  bool operator==(const StudyFingerprint&) const = default;
};

/// Synthetic multi-day GSM stream for the recluster microbenchmark: home
/// oscillation overnight, a commute chain, work oscillation during the day
/// — the shape that makes GCA's movement graph cluster. 1-minute cadence.
std::vector<algorithms::CellObservation> synthetic_day(int day) {
  auto cell = [](std::uint32_t cid) {
    world::CellId c;
    c.mcc = 262;
    c.mnc = 1;
    c.lac = 100;
    c.cid = cid;
    return c;
  };
  std::vector<algorithms::CellObservation> obs;
  const SimTime day_start = start_of_day(day);
  for (int m = 0; m < 24 * 60; m += 1) {
    const SimTime t = day_start + minutes(m);
    const int hour = m / 60;
    std::uint32_t cid = 0;
    if (hour < 8 || hour >= 19) {
      cid = (m % 2 == 0) ? 10 : 11;  // home pair oscillating
    } else if (hour == 8) {
      cid = 20 + static_cast<std::uint32_t>(m % 60) / 12;  // commute chain
    } else if (hour < 18) {
      cid = (m % 2 == 0) ? 30 : 31;  // work pair oscillating
    } else {
      cid = 25 - static_cast<std::uint32_t>(m % 60) / 12;  // commute home
    }
    obs.push_back({t, cell(cid)});
  }
  return obs;
}

/// scheduler.run flame self-time per participant-day measured at the
/// pre-batching baseline (commit d0afc9a, this container: cache-on study,
/// shards=16, threads=8, scheduler_run_self_ms over the same tracer
/// snapshot). The recorded "before" of the before/after artifact; the bench
/// prints the live "after" next to it. Note what each side counts: the
/// per-sample scheduler had no frame boundary below scheduler.run, so its
/// self time folded the dispatch machinery (heap pops, per-sample registry
/// lookups, allocating device reads) together with the sampling work it
/// drove. The batched scheduler attributes consumer time to
/// scheduler.sampling.* child frames, so its self time is the dispatch
/// machinery alone — the part the batched scheduler rebuilt.
constexpr double kBaselineSchedulerSelfMsPerDay = 498.84;

/// Wall self-time of every "scheduler.run" span in `spans` (its wall cost
/// minus its children's — the flame-fold self-time), in milliseconds.
double scheduler_run_self_ms(const std::vector<telemetry::SpanRecord>& spans) {
  std::vector<std::int64_t> child_ns(spans.size(), 0);
  for (const auto& span : spans)
    if (span.parent != telemetry::SpanRecord::kNoParent)
      child_ns[span.parent] += span.wall_ns;
  double self_ns = 0;
  for (std::size_t i = 0; i < spans.size(); ++i)
    if (spans[i].name == "scheduler.run")
      self_ns += static_cast<double>(
          std::max<std::int64_t>(0, spans[i].wall_ns - child_ns[i]));
  return self_ns / 1e6;
}

/// Linear-interpolated percentile over a fixed-width telemetry histogram,
/// q in [0, 1]. Bucket-resolution approximation — good enough for the
/// checkpoint-size / restore-latency summary the chaos sweep reports.
double histogram_percentile(const Histogram& h, double q) {
  if (h.total() == 0) return 0;
  const double target = q * static_cast<double>(h.total());
  double seen = 0;
  for (std::size_t b = 0; b < h.bucket_count(); ++b) {
    const double c = static_cast<double>(h.count(b));
    if (c > 0 && seen + c >= target)
      return h.bucket_lo(b) +
             (target - seen) / c * (h.bucket_hi(b) - h.bucket_lo(b));
    seen += c;
  }
  return h.hi();
}

}  // namespace

int main(int argc, char** argv) {
  const std::string json_path =
      telemetry::bench_json_path(argc, argv, "deployment_study");
  int fixed_threads = 0;  // 0 = sweep 1/2/4/8
  int fixed_shards = 0;   // 0 = sweep 1/4/16
  // Default fault scenarios: a mid-study blackout, a lossy user API, and a
  // slow-but-healthy cloud. --fault-plan replaces the list with one plan.
  std::vector<std::string> fault_specs = {
      "outage=5d..8d",
      "route=/api/users,error=0.25,from=2d,to=12d",
      "latency=2,from=0,to=12d",
  };
  // Default chaos plan for the lifecycle sweep: crash/restart injection
  // through the mid-study window, a privacy-wipe wave, and a late-join
  // cohort. --chaos-plan replaces it.
  std::string chaos_spec =
      "crash=2d..9d,crash_rate=0.2,restart_delay=2h;"
      "wipe=6d..7d,wipe_rate=0.25;join=0d..5d,join_rate=0.2";
  bool cache_for_sweeps = true;  // --cache on|off: main sweeps' cache setting
  // --max-pop caps the population_sweep's largest row (default 100k; the
  // committed battery runs the full ladder, smoke runs can pass 1000).
  int max_population = 100000;
  for (int i = 1; i + 1 < argc; ++i) {
    if (std::strcmp(argv[i], "--threads") == 0)
      fixed_threads = std::atoi(argv[i + 1]);
    if (std::strcmp(argv[i], "--shards") == 0)
      fixed_shards = std::atoi(argv[i + 1]);
    if (std::strcmp(argv[i], "--fault-plan") == 0)
      fault_specs = {argv[i + 1]};
    if (std::strcmp(argv[i], "--chaos-plan") == 0)
      chaos_spec = argv[i + 1];
    if (std::strcmp(argv[i], "--cache") == 0)
      cache_for_sweeps = std::strcmp(argv[i + 1], "off") != 0;
    if (std::strcmp(argv[i], "--max-pop") == 0)
      max_population = std::atoi(argv[i + 1]);
  }
  set_log_level(LogLevel::Error);
  telemetry::apply_log_level_flag(argc, argv);
  study::StudyConfig config;  // 16 participants x 14 days, GSM + opp. WiFi
  config.cache = cache_for_sweeps;

  // --- Shard x thread sweep: the same study at every (shards, threads)
  // configuration. Results must be byte-identical everywhere; wall-clock and
  // the shard lock-wait telemetry show how sharding removes the old global
  // dispatch bottleneck as workers are added.
  std::vector<int> thread_counts =
      fixed_threads > 0 ? std::vector<int>{fixed_threads}
                        : std::vector<int>{1, 2, 4, 8};
  std::vector<int> shard_counts =
      fixed_shards > 0 ? std::vector<int>{fixed_shards}
                       : std::vector<int>{1, 4, 16};

  struct SweepEntry {
    int shards = 0;
    int threads = 0;
    double wall_s = 0;
    std::uint64_t shard_ops = 0;       ///< cloud_shard_requests_total, summed
    double lock_wait_sum_us = 0;       ///< cloud_shard_lock_wait_us total
    double lock_wait_max_us = 0;
    std::uint64_t lock_wait_count = 0;
  };
  std::vector<SweepEntry> sweep;
  std::vector<study::StudyResult> results;
  for (const int shards : shard_counts) {
    for (const int threads : thread_counts) {
      // Fresh registry/tracer per run so study_* counters and spans reflect
      // one study; the final run's telemetry lands in the JSON dump.
      telemetry::registry().reset();
      telemetry::tracer().reset();
      config.shards = shards;
      config.threads = threads;
      study::DeploymentStudy study_run(config);
      const auto begin = std::chrono::steady_clock::now();
      results.push_back(study_run.run());
      SweepEntry entry;
      entry.shards = shards;
      entry.threads = threads;
      entry.wall_s = wall_seconds_since(begin);
      const auto& reg = telemetry::registry();
      entry.shard_ops = reg.family_total("cloud_shard_requests_total");
      if (const auto* hist =
              reg.find_histogram("cloud_shard_lock_wait_us", {})) {
        const auto snap = hist->snapshot();
        entry.lock_wait_sum_us = snap.stats.sum();
        entry.lock_wait_max_us = snap.stats.max();
        entry.lock_wait_count = static_cast<std::uint64_t>(snap.stats.count());
      }
      sweep.push_back(entry);
    }
  }
  const study::StudyResult& result = results.front();
  const StudyFingerprint baseline_fp = StudyFingerprint::of(result);
  bool identical = true;
  for (const auto& r : results)
    identical = identical && (StudyFingerprint::of(r) == baseline_fp);
  // Thread-scaling view: the rows at the largest shard count (the default
  // configuration), so speedups compare like with like.
  std::vector<SweepEntry> scaling;
  for (const auto& entry : sweep)
    if (entry.shards == shard_counts.back()) scaling.push_back(entry);

  // --- Fault sweep: the same study under scripted cloud-side fault plans.
  // Recovery equivalence is the headline assertion: after outage + outbox
  // drain, the cloud content digest must be byte-identical to the no-fault
  // baseline (results.front() — every sweep run above was fault-free).
  struct FaultEntry {
    std::string plan;
    double wall_s = 0;
    std::uint64_t digest = 0;
    bool matches_baseline = false;
    std::uint64_t sync_failures = 0;
    std::uint64_t outbox_recovered = 0;
    std::uint64_t outbox_evicted = 0;
    std::uint64_t outbox_pending = 0;
    std::uint64_t breaker_opens = 0;
    std::uint64_t faults_injected = 0;
  };
  std::vector<FaultEntry> fault_sweep;
  for (const std::string& spec : fault_specs) {
    telemetry::registry().reset();
    telemetry::tracer().reset();
    study::StudyConfig faulted = config;
    faulted.shards = shard_counts.back();
    faulted.threads = thread_counts.back();
    faulted.fault_plan = net::FaultPlan::parse(spec);
    const auto begin = std::chrono::steady_clock::now();
    const study::StudyResult run = study::DeploymentStudy(faulted).run();
    FaultEntry entry;
    entry.plan = spec;
    entry.wall_s = wall_seconds_since(begin);
    entry.digest = run.storage_digest;
    StudyFingerprint fp = StudyFingerprint::of(run);
    entry.matches_baseline = fp == baseline_fp;
    const auto& reg = telemetry::registry();
    entry.sync_failures = reg.family_total("pms_sync_failures_total");
    entry.outbox_recovered = reg.family_total("pms_outbox_recovered_total");
    entry.outbox_evicted = reg.family_total("pms_outbox_evicted_total");
    entry.breaker_opens = reg.family_total("net_breaker_open_total");
    entry.faults_injected = reg.family_total("cloud_faults_injected_total");
    for (const auto& p : run.participants)
      entry.outbox_pending += p.pms_stats.outbox_pending;
    fault_sweep.push_back(std::move(entry));
  }
  bool all_recovered = true;
  for (const auto& entry : fault_sweep)
    all_recovered =
        all_recovered && entry.matches_baseline && entry.outbox_pending == 0;

  // --- Chaos sweep: the same study under a device-lifecycle plan (crash
  // injection + checkpoint restarts, privacy wipes, late joins). A crashed
  // study legitimately diverges from the no-fault digest (devices are dark
  // while rebooting), so the headline assertion here is DETERMINISM: the
  // digest must be byte-identical at every shards x threads x cache x
  // wave combination, and no surviving participant's records may be lost
  // (outbox balance closes with zero evicted and zero pending).
  struct ChaosEntry {
    int shards = 0;
    int threads = 0;
    bool cache = false;
    int wave = 0;  ///< StudyConfig::wave_size (0 = auto)
    double wall_s = 0;
    std::uint64_t digest = 0;
    std::uint64_t restarts = 0;
    std::uint64_t wipes = 0;
    std::uint64_t tombstone_rejections = 0;
    std::uint64_t enqueued = 0, delivered = 0, recovered = 0;
    std::uint64_t evicted = 0, dropped = 0, pending = 0;
  };
  struct HistSummary {
    std::uint64_t count = 0;
    double mean = 0, max = 0, p50 = 0, p99 = 0;
  };
  std::vector<ChaosEntry> chaos_sweep;
  HistSummary checkpoint_bytes, restore_us;
  {
    const struct {
      int shards, threads;
      bool cache;
      int wave;
    } kCombos[] = {
        {1, 1, true, 0},
        {16, 8, true, 0},
        {16, 8, true, 1},
        {16, 8, false, 0},
    };
    for (const auto& combo : kCombos) {
      telemetry::registry().reset();
      telemetry::tracer().reset();
      study::StudyConfig chaotic = config;
      chaotic.shards = combo.shards;
      chaotic.threads = combo.threads;
      chaotic.cache = combo.cache;
      chaotic.wave_size = combo.wave;
      chaotic.fault_plan = net::FaultPlan::parse(chaos_spec);
      const auto begin = std::chrono::steady_clock::now();
      const study::StudyResult run = study::DeploymentStudy(chaotic).run();
      ChaosEntry entry;
      entry.shards = combo.shards;
      entry.threads = combo.threads;
      entry.cache = combo.cache;
      entry.wave = combo.wave;
      entry.wall_s = wall_seconds_since(begin);
      entry.digest = run.storage_digest;
      const auto& reg = telemetry::registry();
      entry.restarts = reg.family_total("pms_restarts_total");
      entry.wipes = reg.family_total("cloud_wipe_tombstones_total");
      entry.tombstone_rejections =
          reg.family_total("cloud_tombstone_rejections_total");
      entry.enqueued = reg.family_total("pms_outbox_enqueued_total");
      entry.delivered = reg.family_total("pms_outbox_delivered_total");
      entry.recovered = reg.family_total("pms_outbox_recovered_total");
      entry.evicted = reg.family_total("pms_outbox_evicted_total");
      entry.dropped = reg.family_total("pms_outbox_dropped_total");
      entry.pending =
          entry.enqueued - entry.delivered - entry.evicted - entry.dropped;
      // Checkpoint-size / restore-latency distributions from the last run
      // (one combo is as good as another: the checkpoint stream is
      // deterministic, only wall latency varies).
      const auto summarize = [&](const char* name, HistSummary& out) {
        if (const auto* hist = reg.find_histogram(name, {})) {
          const auto snap = hist->snapshot();
          out.count = static_cast<std::uint64_t>(snap.stats.count());
          out.mean = snap.stats.mean();
          out.max = snap.stats.max();
          out.p50 = histogram_percentile(snap.buckets, 0.50);
          out.p99 = histogram_percentile(snap.buckets, 0.99);
        }
      };
      summarize("pms_checkpoint_bytes", checkpoint_bytes);
      summarize("pms_restore_wall_us", restore_us);
      chaos_sweep.push_back(entry);
    }
  }
  bool chaos_identical = true, chaos_zero_lost = true;
  for (const auto& entry : chaos_sweep) {
    chaos_identical =
        chaos_identical && entry.digest == chaos_sweep.front().digest;
    chaos_zero_lost =
        chaos_zero_lost && entry.evicted == 0 && entry.pending == 0;
  }

  // --- Cache sweep: the same study with the device GCA cache off vs on.
  // Equivalence is the headline assertion — the science results and the
  // cloud content digest must be byte-identical either way (caching only
  // removes work) — while cloud_requests_total and the recluster counters
  // drop with the cache engaged.
  struct CacheEntry {
    bool cache = false;
    double wall_s = 0;
    std::uint64_t digest = 0;
    bool matches_off = false;
    std::uint64_t cloud_requests = 0;
    std::uint64_t device_reclusters = 0;   ///< core_recluster_total
    std::uint64_t cloud_reclusters = 0;    ///< core_recluster_incremental_total
    std::uint64_t local_hits = 0;
    std::uint64_t recomputes = 0;
    std::uint64_t misses = 0;
  };
  std::vector<CacheEntry> cache_sweep;
  for (const bool cache_on : {false, true}) {
    telemetry::registry().reset();
    telemetry::tracer().reset();
    study::StudyConfig cached = config;
    cached.shards = shard_counts.back();
    cached.threads = thread_counts.back();
    cached.cache = cache_on;
    const auto begin = std::chrono::steady_clock::now();
    const study::StudyResult run = study::DeploymentStudy(cached).run();
    CacheEntry entry;
    entry.cache = cache_on;
    entry.wall_s = wall_seconds_since(begin);
    entry.digest = run.storage_digest;
    const auto& reg = telemetry::registry();
    entry.cloud_requests = reg.family_total("cloud_requests_total");
    entry.device_reclusters = reg.family_total("core_recluster_total");
    entry.cloud_reclusters = reg.family_total("core_recluster_incremental_total");
    const auto outcome_total = [&](const char* outcome) -> std::uint64_t {
      const auto* c = reg.find_counter(
          "cache_outcomes_total", {{"cache", "pms_gca"}, {"outcome", outcome}});
      return c ? static_cast<std::uint64_t>(c->value()) : 0;
    };
    entry.local_hits = outcome_total("local_hit");
    entry.recomputes = outcome_total("recompute");
    entry.misses = outcome_total("miss");
    cache_sweep.push_back(entry);
  }
  cache_sweep.back().matches_off =
      cache_sweep.back().digest == cache_sweep.front().digest;
  cache_sweep.front().matches_off = true;
  const bool cache_equivalent = cache_sweep.back().matches_off;

  // World geometry for the Figure-5b map (same config -> same world).
  study::DeploymentStudy study(config);

  std::printf("=== Deployment study (paper S4): %d participants x %d days ===\n\n",
              config.participants, config.days);

  std::printf("%-34s %10s %10s\n", "metric", "paper", "measured");
  std::printf("%s\n", std::string(58, '-').c_str());
  std::printf("%-34s %10s %10zu\n", "places discovered", "123",
              result.total_discovered());
  std::printf("%-34s %10s %9.1f%%\n", "tagged by participants", "~70%",
              100.0 * static_cast<double>(result.total_tagged()) /
                  static_cast<double>(result.total_discovered()));
  std::printf("%-34s %10s %10zu\n", "evaluable (tagged w/ departure)", "62",
              result.total_evaluable());
  std::printf("%-34s %10s %9.2f%%\n", "correctly discovered", "79.03%",
              100 * result.fraction(DiscoveredOutcome::Correct));
  std::printf("%-34s %10s %9.2f%%\n", "merged", "14.52%",
              100 * result.fraction(DiscoveredOutcome::Merged));
  std::printf("%-34s %10s %9.2f%%\n", "divided", "6.45%",
              100 * result.fraction(DiscoveredOutcome::Divided));

  const std::size_t impressions = result.total_likes() + result.total_dislikes();
  const double like20 =
      impressions == 0 ? 0
                       : 20.0 * static_cast<double>(result.total_likes()) /
                             static_cast<double>(impressions);
  std::printf("%-34s %10s %5.1f:%4.1f\n", "PlaceADs like:dislike", "17:3",
              like20, 20.0 - like20);

  std::printf("\n--- per participant ---\n");
  std::printf("%-16s %-14s %6s %7s %5s | %4s %4s %4s | %5s %5s | %8s\n",
              "participant", "archetype", "places", "tagged", "eval", "corr",
              "merg", "div", "likes", "disl", "battery h");
  for (const auto& p : result.participants) {
    std::printf("%-16s %-14s %6zu %7zu %5zu | %4zu %4zu %4zu | %5zu %5zu | %8.1f\n",
                p.profile.name.c_str(), to_string(p.profile.archetype),
                p.places_discovered, p.places_tagged, p.places_evaluable,
                p.eval.count(DiscoveredOutcome::Correct),
                p.eval.count(DiscoveredOutcome::Merged),
                p.eval.count(DiscoveredOutcome::Divided), p.ad_likes,
                p.ad_dislikes, p.implied_battery_hours);
  }

  // --- Figure 5b: map of discovered places across all participants.
  std::printf("\n--- Figure 5b: map of discovered places (ASCII, %zu places, "
              "'#'=multiple) ---\n",
              result.place_map.size());
  viz::MapExtent extent{study.world().config().origin,
                        study.world().config().extent_m};
  std::vector<viz::MapMarker> markers;
  std::size_t located = 0;
  for (const auto& entry : result.place_map) {
    if (!entry.location) continue;
    ++located;
    markers.push_back({*entry.location, entry.label, 'o', "#4466cc", 4});
  }
  std::printf("%s", viz::render_ascii_map(extent, markers, 60, 24).c_str());
  std::printf("  (%zu of %zu places located via the cloud geo-location API)\n",
              located, result.place_map.size());

  // Energy footprint across the fleet.
  double battery_sum = 0;
  for (const auto& p : result.participants)
    battery_sum += p.implied_battery_hours;
  std::printf("\nfleet average implied battery life: %.1f h (%.1f days) — "
              "triggered sensing, all apps shared\n",
              battery_sum / static_cast<double>(result.participants.size()),
              battery_sum / static_cast<double>(result.participants.size()) / 24);

  // --- Thread-scaling report (at the default shard count).
  std::printf("\n--- thread scaling (%zu participants, %d shards, "
              "identical results: %s) ---\n",
              result.participants.size(), shard_counts.back(),
              identical ? "yes" : "NO");
  std::printf("%8s %10s %10s\n", "threads", "wall s", "speedup");
  for (const auto& entry : scaling)
    std::printf("%8d %10.2f %9.2fx\n", entry.threads, entry.wall_s,
                scaling.front().wall_s / entry.wall_s);

  // --- Shard contention report: total time spent waiting on shard locks
  // per configuration. shards=1 reproduces the old global-mutex cloud;
  // the wait total collapsing as shards grow is the point of the redesign.
  std::printf("\n--- shard contention (cloud_shard_lock_wait_us) ---\n");
  std::printf("%8s %8s %10s %12s %14s %12s\n", "shards", "threads", "wall s",
              "shard ops", "wait sum ms", "wait max us");
  for (const auto& entry : sweep)
    std::printf("%8d %8d %10.2f %12llu %14.2f %12.0f\n", entry.shards,
                entry.threads, entry.wall_s,
                static_cast<unsigned long long>(entry.shard_ops),
                entry.lock_wait_sum_us / 1e3, entry.lock_wait_max_us);

  // --- Fault-sweep report: every plan must end byte-identical to the
  // no-fault baseline with an empty outbox — zero records lost.
  std::printf("\n--- fault sweep (recovery equivalence, all recovered: %s) ---\n",
              all_recovered ? "yes" : "NO");
  std::printf("%-44s %8s %7s %6s %6s %6s %7s %8s\n", "plan", "wall s",
              "match", "fails", "recov", "evict", "pending", "injected");
  for (const auto& entry : fault_sweep)
    std::printf("%-44s %8.2f %7s %6llu %6llu %6llu %7llu %8llu\n",
                entry.plan.c_str(), entry.wall_s,
                entry.matches_baseline ? "yes" : "NO",
                static_cast<unsigned long long>(entry.sync_failures),
                static_cast<unsigned long long>(entry.outbox_recovered),
                static_cast<unsigned long long>(entry.outbox_evicted),
                static_cast<unsigned long long>(entry.outbox_pending),
                static_cast<unsigned long long>(entry.faults_injected));

  // --- Chaos-sweep report: a crashed study must stay deterministic across
  // every execution shape, with the outbox balance closing at zero lost.
  std::printf("\n--- chaos sweep (plan \"%s\")\n    digests identical: %s, "
              "zero records lost: %s ---\n",
              chaos_spec.c_str(), chaos_identical ? "yes" : "NO",
              chaos_zero_lost ? "yes" : "NO");
  std::printf("%7s %8s %6s %5s %8s %9s %6s %7s %8s %8s %20s\n", "shards",
              "threads", "cache", "wave", "wall s", "restarts", "wipes",
              "rejects", "dropped", "pending", "digest");
  for (const auto& entry : chaos_sweep)
    std::printf("%7d %8d %6s %5s %8.2f %9llu %6llu %7llu %8llu %8llu %20llu\n",
                entry.shards, entry.threads, entry.cache ? "on" : "off",
                entry.wave > 0 ? std::to_string(entry.wave).c_str() : "auto",
                entry.wall_s,
                static_cast<unsigned long long>(entry.restarts),
                static_cast<unsigned long long>(entry.wipes),
                static_cast<unsigned long long>(entry.tombstone_rejections),
                static_cast<unsigned long long>(entry.dropped),
                static_cast<unsigned long long>(entry.pending),
                static_cast<unsigned long long>(entry.digest));
  std::printf("  checkpoints: %llu written, %.0f B mean, %.0f B p50, %.0f B "
              "p99, %.0f B max\n",
              static_cast<unsigned long long>(checkpoint_bytes.count),
              checkpoint_bytes.mean, checkpoint_bytes.p50, checkpoint_bytes.p99,
              checkpoint_bytes.max);
  std::printf("  restores:    %llu replayed, %.0f us mean, %.0f us p50, "
              "%.0f us p99, %.0f us max\n",
              static_cast<unsigned long long>(restore_us.count),
              restore_us.mean, restore_us.p50, restore_us.p99, restore_us.max);

  // --- Cache-sweep report: equal digests with collapsed request/recluster
  // counts is the subsystem working as designed.
  std::printf("\n--- cache sweep (device GCA cache, results identical: "
              "%s) ---\n",
              cache_equivalent ? "yes" : "NO");
  std::printf("%6s %8s %10s %10s %10s %8s %8s %8s\n", "cache", "wall s",
              "cloud req", "dev recl", "cloud recl", "lhit", "recomp", "miss");
  for (const auto& entry : cache_sweep)
    std::printf("%6s %8.2f %10llu %10llu %10llu %8llu %8llu %8llu\n",
                entry.cache ? "on" : "off", entry.wall_s,
                static_cast<unsigned long long>(entry.cloud_requests),
                static_cast<unsigned long long>(entry.device_reclusters),
                static_cast<unsigned long long>(entry.cloud_reclusters),
                static_cast<unsigned long long>(entry.local_hits),
                static_cast<unsigned long long>(entry.recomputes),
                static_cast<unsigned long long>(entry.misses));

  // --- Scheduler dispatch report: the study-level scheduler.run flame
  // self-time the ROADMAP's >=10x bar is measured against. The tracer still
  // holds the cache-on study's spans (nothing after it resets the tracer),
  // so the self-time is the real study's, not a synthetic one.
  const std::vector<telemetry::SpanRecord> study_spans =
      telemetry::tracer().snapshot();
  const double study_sched_self_ms = scheduler_run_self_ms(study_spans);
  // The consumer side of the same window: wall time the scheduler spent
  // inside sampling callbacks, folded per interface per window into
  // scheduler.sampling.* frames. Recorded next to the self time so the
  // artifact shows both halves of the old, undivided scheduler.run cost.
  double study_sampling_ms = 0;
  for (const auto& span : study_spans)
    if (span.name.rfind("scheduler.sampling.", 0) == 0)
      study_sampling_ms += static_cast<double>(span.wall_ns) / 1e6;
  const double participant_days =
      static_cast<double>(config.participants) * static_cast<double>(config.days);
  const double self_ms_per_day = study_sched_self_ms / participant_days;
  const double sampling_ms_per_day = study_sampling_ms / participant_days;
  const double sched_improvement =
      self_ms_per_day > 0 ? kBaselineSchedulerSelfMsPerDay / self_ms_per_day
                          : 0.0;
  std::printf("\n--- scheduler dispatch (run-generation batching) ---\n");
  std::printf("  study scheduler.run self-time: %.2f ms/participant-day "
              "(pre-batching baseline %.1f, %.0fx)\n",
              self_ms_per_day, kBaselineSchedulerSelfMsPerDay,
              sched_improvement);
  std::printf("  study sampling work (scheduler.sampling.*): %.1f "
              "ms/participant-day, attributed to its own frames\n",
              sampling_ms_per_day);

  // --- Sequential-vs-incremental recluster cost: daily recluster passes
  // over a growing synthetic trace, full rebuild each day vs GcaState.
  const int recluster_days = 14;
  std::vector<algorithms::CellObservation> stream;
  double full_s = 0, incremental_s = 0;
  bool recluster_identical = true;
  {
    algorithms::GcaState state;
    for (int day = 0; day < recluster_days; ++day) {
      const auto day_obs = synthetic_day(day);
      stream.insert(stream.end(), day_obs.begin(), day_obs.end());
      auto begin = std::chrono::steady_clock::now();
      const algorithms::GcaResult full = algorithms::run_gca(stream);
      full_s += wall_seconds_since(begin);
      begin = std::chrono::steady_clock::now();
      const algorithms::GcaResult inc = state.run(stream);
      incremental_s += wall_seconds_since(begin);
      recluster_identical =
          recluster_identical && full.cell_to_place == inc.cell_to_place &&
          full.places.size() == inc.places.size() &&
          full.visits.size() == inc.visits.size();
    }
    std::printf("\n--- recluster cost (%d daily passes, %zu observations, "
                "identical: %s) ---\n",
                recluster_days, stream.size(),
                recluster_identical ? "yes" : "NO");
    std::printf("  full rebuild each pass: %8.1f ms\n", full_s * 1e3);
    std::printf("  incremental (GcaState): %8.1f ms (%.1fx, %zu of %zu "
                "passes incremental)\n",
                incremental_s * 1e3,
                incremental_s > 0 ? full_s / incremental_s : 0.0,
                state.incremental_passes(), state.passes());
  }

  // --- Population sweep: the study runner's scale battery. Each row
  // runs a study at the next population decade in aggregate mode and
  // records wall time, participant-day throughput, the process RSS
  // high-water mark, cloud request rate, and per-shard request heat. The
  // sim-day count per row shrinks as N grows so the ladder stays runnable
  // on a single core (throughput and memory per participant-day are
  // day-count-invariant; EXPERIMENTS.md documents the cadence).
  struct PopulationEntry {
    int participants = 0;
    int days = 0;
    double wall_s = 0;
    double pd_per_s = 0;
    std::uint64_t cloud_requests = 0;
    double cloud_req_per_s = 0;
    std::uint64_t peak_rss_bytes = 0;
    std::uint64_t storage_digest = 0;
    std::vector<std::uint64_t> shard_heat;  ///< requests per storage shard
  };
  std::vector<PopulationEntry> population_sweep;
  {
    const struct {
      int participants, days;
    } kLadder[] = {{16, 14}, {1000, 2}, {10000, 1}, {100000, 1}};
    study::StudyConfig pop_config;
    pop_config.cache = cache_for_sweeps;
    pop_config.threads = fixed_threads > 0 ? fixed_threads : 2;
    pop_config.shards = fixed_shards > 0
                            ? fixed_shards
                            : static_cast<int>(
                                  cloud::CloudStorage::kDefaultShards);
    std::printf("\n--- population sweep (%d threads, %d "
                "shards) ---\n",
                pop_config.threads, pop_config.shards);
    for (const auto& rung : kLadder) {
      if (rung.participants > max_population) break;
      telemetry::registry().reset();
      telemetry::tracer().reset();
      pop_config.participants = rung.participants;
      pop_config.days = rung.days;
      std::printf("  running %d x %dd...\n", rung.participants, rung.days);
      std::fflush(stdout);
      study::DeploymentStudy study_run(pop_config);
      const auto begin = std::chrono::steady_clock::now();
      const study::StudyResult run = study_run.run();
      PopulationEntry entry;
      entry.participants = rung.participants;
      entry.days = rung.days;
      entry.wall_s = wall_seconds_since(begin);
      const double pd = static_cast<double>(rung.participants) *
                        static_cast<double>(rung.days);
      entry.pd_per_s = entry.wall_s > 0 ? pd / entry.wall_s : 0.0;
      const auto& reg = telemetry::registry();
      entry.cloud_requests = reg.family_total("cloud_requests_total");
      entry.cloud_req_per_s =
          entry.wall_s > 0
              ? static_cast<double>(entry.cloud_requests) / entry.wall_s
              : 0.0;
      entry.peak_rss_bytes = telemetry::read_process_stats().peak_rss_bytes;
      entry.storage_digest = run.storage_digest;
      for (int s = 0; s < pop_config.shards; ++s)
        entry.shard_heat.push_back(reg.counter_value(
            "cloud_shard_requests_total", {{"shard", std::to_string(s)}}));
      population_sweep.push_back(std::move(entry));
    }
    std::printf("%12s %5s %10s %10s %12s %12s %11s %20s\n", "participants",
                "days", "wall s", "pd/s", "cloud req/s", "peak rss MB",
                "shard skew", "digest");
    for (const auto& entry : population_sweep) {
      std::uint64_t heat_min = ~0ull, heat_max = 0;
      for (const std::uint64_t h : entry.shard_heat) {
        heat_min = std::min(heat_min, h);
        heat_max = std::max(heat_max, h);
      }
      const double skew =
          heat_min > 0 ? static_cast<double>(heat_max) /
                             static_cast<double>(heat_min)
                       : 0.0;
      std::printf("%12d %5d %10.1f %10.1f %12.1f %12.1f %10.2fx %20llu\n",
                  entry.participants, entry.days, entry.wall_s,
                  entry.pd_per_s, entry.cloud_req_per_s,
                  static_cast<double>(entry.peak_rss_bytes) / (1024.0 * 1024.0),
                  skew,
                  static_cast<unsigned long long>(entry.storage_digest));
    }
  }

  if (!json_path.empty()) {
    Json extra = Json::object();
    extra.set("participants", static_cast<std::uint64_t>(
                                  result.participants.size()));
    extra.set("days", config.days);
    extra.set("places_discovered",
              static_cast<std::uint64_t>(result.total_discovered()));
    extra.set("places_tagged",
              static_cast<std::uint64_t>(result.total_tagged()));
    extra.set("evaluable", static_cast<std::uint64_t>(result.total_evaluable()));
    extra.set("fraction_correct", result.fraction(DiscoveredOutcome::Correct));
    extra.set("fraction_merged", result.fraction(DiscoveredOutcome::Merged));
    extra.set("fraction_divided", result.fraction(DiscoveredOutcome::Divided));
    extra.set("ad_likes", static_cast<std::uint64_t>(result.total_likes()));
    extra.set("ad_dislikes",
              static_cast<std::uint64_t>(result.total_dislikes()));
    extra.set("fleet_avg_battery_h",
              battery_sum / static_cast<double>(result.participants.size()));
    Json scaling_arr = Json::array();
    for (const auto& entry : scaling) {
      Json e = Json::object();
      e.set("threads", entry.threads);
      e.set("wall_s", entry.wall_s);
      e.set("speedup_vs_1", scaling.front().wall_s / entry.wall_s);
      scaling_arr.push_back(std::move(e));
    }
    extra.set("thread_scaling", std::move(scaling_arr));
    extra.set("results_identical_across_threads", identical);
    // schema_version 3: per-configuration contention telemetry from the
    // sharded cloud storage.
    Json shard_sweep = Json::object();
    Json shard_runs = Json::array();
    for (const auto& entry : sweep) {
      Json e = Json::object();
      e.set("shards", entry.shards);
      e.set("threads", entry.threads);
      e.set("wall_s", entry.wall_s);
      e.set("shard_ops", entry.shard_ops);
      e.set("lock_wait_sum_us", entry.lock_wait_sum_us);
      e.set("lock_wait_max_us", entry.lock_wait_max_us);
      e.set("lock_wait_count", entry.lock_wait_count);
      shard_runs.push_back(std::move(e));
    }
    shard_sweep.set("runs", std::move(shard_runs));
    shard_sweep.set("identical_across_configs", identical);
    shard_sweep.set("storage_digest",
                    static_cast<std::uint64_t>(result.storage_digest));
    extra.set("shard_sweep", std::move(shard_sweep));
    // schema_version 4: recovery-equivalence digests and sync-reliability
    // counters under scripted cloud fault plans.
    Json fault_block = Json::object();
    Json fault_runs = Json::array();
    for (const auto& entry : fault_sweep) {
      Json e = Json::object();
      e.set("plan", entry.plan);
      e.set("wall_s", entry.wall_s);
      e.set("storage_digest", entry.digest);
      e.set("matches_baseline", entry.matches_baseline);
      e.set("sync_failures", entry.sync_failures);
      e.set("outbox_recovered", entry.outbox_recovered);
      e.set("outbox_evicted", entry.outbox_evicted);
      e.set("outbox_pending", entry.outbox_pending);
      e.set("breaker_opens", entry.breaker_opens);
      e.set("faults_injected", entry.faults_injected);
      fault_runs.push_back(std::move(e));
    }
    fault_block.set("runs", std::move(fault_runs));
    fault_block.set("baseline_digest",
                    static_cast<std::uint64_t>(result.storage_digest));
    fault_block.set("all_recovered", all_recovered);
    extra.set("fault_sweep", std::move(fault_block));
    // schema_version 9: the "chaos_sweep" block — device-lifecycle chaos
    // (crash/restart injection, privacy wipes, late joins) with determinism
    // digests per execution shape and checkpoint/restore distributions.
    {
      Json chaos_block = Json::object();
      chaos_block.set("plan", chaos_spec);
      Json chaos_runs = Json::array();
      for (const auto& entry : chaos_sweep) {
        Json e = Json::object();
        e.set("shards", entry.shards);
        e.set("threads", entry.threads);
        e.set("cache", entry.cache);
        e.set("wave", entry.wave);
        e.set("wall_s", entry.wall_s);
        e.set("storage_digest", entry.digest);
        e.set("restarts", entry.restarts);
        e.set("wipe_tombstones", entry.wipes);
        e.set("tombstone_rejections", entry.tombstone_rejections);
        e.set("outbox_enqueued", entry.enqueued);
        e.set("outbox_delivered", entry.delivered);
        e.set("outbox_recovered", entry.recovered);
        e.set("outbox_evicted", entry.evicted);
        e.set("outbox_dropped", entry.dropped);
        e.set("outbox_pending", entry.pending);
        chaos_runs.push_back(std::move(e));
      }
      chaos_block.set("runs", std::move(chaos_runs));
      chaos_block.set("identical_across_configs", chaos_identical);
      chaos_block.set("zero_records_lost", chaos_zero_lost);
      const auto hist_json = [](const HistSummary& h) {
        Json j = Json::object();
        j.set("count", h.count);
        j.set("mean", h.mean);
        j.set("p50", h.p50);
        j.set("p99", h.p99);
        j.set("max", h.max);
        return j;
      };
      chaos_block.set("checkpoint_bytes", hist_json(checkpoint_bytes));
      chaos_block.set("restore_wall_us", hist_json(restore_us));
      extra.set("chaos_sweep", std::move(chaos_block));
    }
    // schema_version 5 (cut to the device GCA cache in 10): cache-on vs
    // cache-off equivalence digests, the request/recluster drop, and the
    // pms_gca hit taxonomy.
    Json cache_block = Json::object();
    Json cache_runs = Json::array();
    for (const auto& entry : cache_sweep) {
      Json e = Json::object();
      e.set("cache", entry.cache);
      e.set("wall_s", entry.wall_s);
      e.set("storage_digest", entry.digest);
      e.set("cloud_requests", entry.cloud_requests);
      e.set("device_reclusters", entry.device_reclusters);
      e.set("cloud_reclusters", entry.cloud_reclusters);
      e.set("local_hits", entry.local_hits);
      e.set("recomputes", entry.recomputes);
      e.set("misses", entry.misses);
      cache_runs.push_back(std::move(e));
    }
    cache_block.set("runs", std::move(cache_runs));
    cache_block.set("identical_on_off", cache_equivalent);
    extra.set("cache_sweep", std::move(cache_block));
    // schema_version 6: the "scheduler_sweep" block — the before/after
    // scheduler.run flame self-time behind the batching change's >=10x
    // claim (12 dropped its reference-heap dispatch microbench).
    Json sched_block = Json::object();
    Json sched_study = Json::object();
    sched_study.set("participants",
                    static_cast<std::uint64_t>(config.participants));
    sched_study.set("days", config.days);
    sched_study.set("self_ms_total", study_sched_self_ms);
    sched_study.set("self_ms_per_participant_day", self_ms_per_day);
    sched_study.set("sampling_ms_per_participant_day", sampling_ms_per_day);
    sched_study.set("baseline_self_ms_per_participant_day",
                    kBaselineSchedulerSelfMsPerDay);
    sched_study.set("improvement_vs_baseline", sched_improvement);
    sched_block.set("study_flame", std::move(sched_study));
    extra.set("scheduler_sweep", std::move(sched_block));
    Json recluster = Json::object();
    recluster.set("passes", recluster_days);
    recluster.set("observations", static_cast<std::uint64_t>(stream.size()));
    recluster.set("full_rebuild_s", full_s);
    recluster.set("incremental_s", incremental_s);
    recluster.set("speedup",
                  incremental_s > 0 ? full_s / incremental_s : 0.0);
    recluster.set("identical", recluster_identical);
    extra.set("recluster", std::move(recluster));
    // schema_version 7: fleet throughput per sweep configuration plus the
    // process high-water marks — the capacity-planning view of the study.
    {
      const telemetry::ProcessStats proc = telemetry::read_process_stats();
      const double fleet_days =
          static_cast<double>(result.participants.size()) *
          static_cast<double>(config.days);
      Json throughput = Json::object();
      Json tp_runs = Json::array();
      for (const auto& entry : sweep) {
        Json e = Json::object();
        e.set("shards", entry.shards);
        e.set("threads", entry.threads);
        e.set("participant_days_per_s",
              entry.wall_s > 0 ? fleet_days / entry.wall_s : 0.0);
        tp_runs.push_back(std::move(e));
      }
      throughput.set("runs", std::move(tp_runs));
      throughput.set("peak_rss_bytes", proc.peak_rss_bytes);
      throughput.set("cpu_seconds", proc.cpu_seconds);
      extra.set("throughput", std::move(throughput));
    }
    // schema_version 8: the "population_sweep" block — the study
    // runner's scale ladder (throughput, memory high-water, cloud request
    // rate, per-shard heat at each population decade).
    {
      Json pop_block = Json::object();
      Json pop_runs = Json::array();
      for (const auto& entry : population_sweep) {
        Json e = Json::object();
        e.set("participants", entry.participants);
        e.set("days", entry.days);
        e.set("wall_s", entry.wall_s);
        e.set("participant_days_per_s", entry.pd_per_s);
        e.set("cloud_requests", entry.cloud_requests);
        e.set("cloud_requests_per_s", entry.cloud_req_per_s);
        e.set("peak_rss_bytes", entry.peak_rss_bytes);
        e.set("storage_digest", entry.storage_digest);
        Json heat = Json::array();
        for (const std::uint64_t h : entry.shard_heat)
          heat.push_back(Json(h));
        e.set("shard_heat", std::move(heat));
        pop_runs.push_back(std::move(e));
      }
      pop_block.set("runs", std::move(pop_runs));
      extra.set("population_sweep", std::move(pop_block));
    }
    // Telemetry in the dump is from the last section to reset the
    // registry (the population sweep's final rung); the sweep blocks above
    // carry their own per-run counters. The "timeseries" block
    // write_bench_json embeds is the recorder ring from the most recent
    // study run — one point per sim-day.
    const telemetry::RunMeta meta{config.seed, thread_counts.back(),
                                  config.days};
    if (!telemetry::write_bench_json(json_path, "deployment_study",
                                     std::move(extra), meta))
      return 1;
  }
  return 0;
}
