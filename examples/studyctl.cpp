// studyctl — command-line driver for the deployment-study harness.
//
// Runs a configurable PMWare deployment study and writes a JSON report plus
// an SVG place map, so parameter sweeps can be scripted without recompiling:
//
//   studyctl [--participants N] [--days D] [--seed S] [--threads T]
//            [--shards N] [--wave N] [--region india|switzerland]
//            [--no-wifi] [--no-ads]
//            [--cache on|off] [--fault-plan SPEC]
//            [--progress] [--no-timeseries] [--no-alerts]
//            [--log-level debug|info|warn|error|off]
//            [--report FILE.json] [--map FILE.svg]
//
// --participants, --days, --threads, --shards and --wave take whole
// positive integers; anything else prints the usage and exits 2.
//
// --progress prints a live line to stderr while the study runs:
// participant-days done, throughput, ETA, and how many alert rules are
// firing. The sim-time series recorder and SLO alert engine are on by
// default (they never perturb results — the content digest is identical
// with them off); --no-timeseries / --no-alerts disable them.
//
// --fault-plan scripts cloud-side failures (see DESIGN.md "Failure model &
// recovery"), e.g. "outage=5d..8d" or
// "route=/api/users,error=0.3,from=2d,to=11d;latency=1". The sync
// reliability digest printed after the run shows how much traffic failed,
// what the outbox recovered, and whether anything was lost.
//
// --churn [SPEC] adds device-side lifecycle rules (crash/restart chaos,
// privacy wipes, late joins) on top of --fault-plan, e.g.
// "crash=2d..9d,crash_rate=0.2,restart_delay=2h;wipe=6d..7d,wipe_rate=0.25".
// Bare --churn applies a canned schedule of all three. Both flags share the
// same grammar; --churn exists so a chaos schedule can be layered onto a
// wire-fault plan without editing one combined spec.
#include <atomic>
#include <cctype>
#include <cerrno>
#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <fstream>
#include <limits>
#include <string>
#include <thread>

#include "study/deployment.hpp"
#include "telemetry/alerts.hpp"
#include "telemetry/export.hpp"
#include "telemetry/log.hpp"
#include "telemetry/metrics.hpp"
#include "telemetry/trace.hpp"
#include "util/strfmt.hpp"
#include "viz/map_render.hpp"

using namespace pmware;
using algorithms::DiscoveredOutcome;

namespace {

int usage(const char* argv0) {
  std::fprintf(stderr,
               "usage: %s [--participants N] [--days D] [--seed S]\n"
               "          [--threads T] [--shards N] [--wave N]\n"
               "          [--region india|switzerland]\n"
               "          [--no-wifi] [--no-ads] [--cache on|off]\n"
               "          [--fault-plan SPEC]  (e.g. \"outage=5d..8d\")\n"
               "          [--churn [SPEC]]  (bare = canned crash/wipe/join "
               "schedule)\n"
               "          [--progress] [--no-timeseries] [--no-alerts]\n"
               "          [--log-level debug|info|warn|error|off]\n"
               "          [--report FILE.json] [--map FILE.svg]\n",
               argv0);
  return 2;
}

/// Parses a whole decimal unsigned 64-bit argument; false on an empty or
/// signed argument, trailing characters, or overflow.
bool parse_u64(const char* text, std::uint64_t& out) {
  if (!std::isdigit(static_cast<unsigned char>(*text))) return false;
  char* end = nullptr;
  errno = 0;
  const unsigned long long value = std::strtoull(text, &end, 10);
  if (errno == ERANGE || *end != '\0') return false;
  out = value;
  return true;
}

/// Parses a whole decimal integer in [1, INT_MAX]; false otherwise.
bool parse_positive_int(const char* text, int& out) {
  std::uint64_t value = 0;
  if (!parse_u64(text, value) || value < 1 ||
      value > static_cast<std::uint64_t>(std::numeric_limits<int>::max()))
    return false;
  out = static_cast<int>(value);
  return true;
}

}  // namespace

int main(int argc, char** argv) {
  set_log_level(LogLevel::Error);
  study::StudyConfig config;
  std::string report_path = "study_report.json";
  std::string map_path;
  bool progress = false;

  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    auto next = [&]() -> const char* {
      return i + 1 < argc ? argv[++i] : nullptr;
    };
    if (arg == "--participants") {
      const char* v = next();
      if (!v || !parse_positive_int(v, config.participants))
        return usage(argv[0]);
    } else if (arg == "--days") {
      const char* v = next();
      if (!v || !parse_positive_int(v, config.days)) return usage(argv[0]);
    } else if (arg == "--seed") {
      const char* v = next();
      if (!v || !parse_u64(v, config.seed)) return usage(argv[0]);
    } else if (arg == "--threads") {
      const char* v = next();
      if (!v || !parse_positive_int(v, config.threads)) return usage(argv[0]);
    } else if (arg == "--shards") {
      const char* v = next();
      if (!v || !parse_positive_int(v, config.shards)) return usage(argv[0]);
    } else if (arg == "--region") {
      const char* v = next();
      if (!v) return usage(argv[0]);
      if (std::strcmp(v, "india") == 0)
        config.world.region = world::RegionProfile::india();
      else if (std::strcmp(v, "switzerland") == 0)
        config.world.region = world::RegionProfile::switzerland();
      else
        return usage(argv[0]);
    } else if (arg == "--fault-plan" || arg == "--churn") {
      const char* v =
          i + 1 < argc && std::strncmp(argv[i + 1], "--", 2) != 0 ? next()
                                                                  : nullptr;
      if (!v && arg == "--churn")
        // Bare --churn: the canned chaos schedule (mid-study crash wave,
        // privacy wipes, a late-join cohort), same as the bench default.
        v = "crash=2d..9d,crash_rate=0.2,restart_delay=2h;"
            "wipe=6d..7d,wipe_rate=0.25;join=0d..5d,join_rate=0.2";
      if (!v) return usage(argv[0]);
      try {
        net::FaultPlan plan = net::FaultPlan::parse(v);
        // --churn merges into whatever --fault-plan already set (and vice
        // versa), so the two schedules compose instead of clobbering.
        for (auto& rule : plan.rules)
          config.fault_plan.rules.push_back(std::move(rule));
        for (auto& rule : plan.device_rules)
          config.fault_plan.device_rules.push_back(std::move(rule));
      } catch (const std::invalid_argument& e) {
        std::fprintf(stderr, "%s\n", e.what());
        return usage(argv[0]);
      }
    } else if (arg == "--cache") {
      const char* v = next();
      if (!v) return usage(argv[0]);
      if (std::strcmp(v, "on") == 0)
        config.cache = true;
      else if (std::strcmp(v, "off") == 0)
        config.cache = false;
      else
        return usage(argv[0]);
    } else if (arg == "--wave") {
      const char* v = next();
      if (!v || !parse_positive_int(v, config.wave_size)) return usage(argv[0]);
    } else if (arg == "--no-wifi") {
      config.use_wifi = false;
    } else if (arg == "--no-ads") {
      config.run_placeads = false;
    } else if (arg == "--progress") {
      progress = true;
    } else if (arg == "--no-timeseries") {
      config.timeseries.enabled = false;
    } else if (arg == "--no-alerts") {
      config.alerts = false;
    } else if (arg == "--report") {
      const char* v = next();
      if (!v) return usage(argv[0]);
      report_path = v;
    } else if (arg == "--map") {
      const char* v = next();
      if (!v) return usage(argv[0]);
      map_path = v;
    } else if (arg == "--log-level") {
      const char* v = next();
      if (!v) return usage(argv[0]);
      const auto level = telemetry::parse_log_level(v);
      if (!level) return usage(argv[0]);
      set_log_level(*level);
    } else {
      return usage(argv[0]);
    }
  }
  std::printf("running study: %d participants x %d days, region %s, "
              "wifi %s, cache %s, seed %llu, faults: %s\n",
              config.participants, config.days,
              config.world.region.name.c_str(),
              config.use_wifi ? "on" : "off", config.cache ? "on" : "off",
              static_cast<unsigned long long>(config.seed),
              config.fault_plan.describe().c_str());

  study::DeploymentStudy study(config);

  // --progress reporter: polls the study's progress counter on a wall-clock
  // cadence and repaints one stderr line. Read-only observers of telemetry
  // state — never touches science state, so the digest is unaffected.
  std::atomic<bool> study_done{false};
  std::thread reporter;
  if (progress) {
    reporter = std::thread([&study, &study_done] {
      using clock = std::chrono::steady_clock;
      const auto t0 = clock::now();
      const std::uint64_t total = study.participant_days_total();
      while (!study_done.load(std::memory_order_relaxed)) {
        std::this_thread::sleep_for(std::chrono::milliseconds(200));
        const std::uint64_t done = study.participant_days_done();
        const double wall =
            std::chrono::duration_cast<std::chrono::duration<double>>(
                clock::now() - t0)
                .count();
        const double rate = wall > 0 ? static_cast<double>(done) / wall : 0;
        const double eta =
            rate > 0 ? static_cast<double>(total - done) / rate : 0;
        std::fprintf(stderr,
                     "\rprogress: %llu/%llu participant-days  "
                     "%.1f pd/s  eta %.0fs  alerts firing: %zu   ",
                     static_cast<unsigned long long>(done),
                     static_cast<unsigned long long>(total), rate, eta,
                     telemetry::alerts().firing_count());
      }
      std::fprintf(stderr, "\n");
    });
  }

  const study::StudyResult result = study.run();
  study_done.store(true, std::memory_order_relaxed);
  if (reporter.joinable()) reporter.join();
  std::printf("%s", result.summary().c_str());
  std::printf("%s", telemetry::diagnostics_summary(telemetry::tracer(),
                                                   telemetry::registry())
                        .c_str());

  // --- Sync reliability digest: what failed, what the outbox recovered,
  // and whether anything was actually lost (evicted or still pending).
  std::size_t sync_failures = 0, enqueued = 0, delivered = 0, recovered = 0,
              evicted = 0, dropped = 0, pending = 0;
  const auto& reg = telemetry::registry();
  if (!result.participants.empty()) {
    for (const auto& p : result.participants) {
      sync_failures += p.pms_stats.sync_failures;
      enqueued += p.pms_stats.outbox_enqueued;
      delivered += p.pms_stats.outbox_delivered;
      recovered += p.pms_stats.outbox_recovered;
      evicted += p.pms_stats.outbox_evicted;
      dropped += p.pms_stats.outbox_dropped;
      pending += p.pms_stats.outbox_pending;
    }
  } else {
    // Aggregate-only run: per-participant results were folded
    // away, so read the study-wide registry families instead.
    sync_failures = reg.family_total("pms_sync_failures_total");
    enqueued = reg.family_total("pms_outbox_enqueued_total");
    delivered = reg.family_total("pms_outbox_delivered_total");
    recovered = reg.family_total("pms_outbox_recovered_total");
    evicted = reg.family_total("pms_outbox_evicted_total");
    dropped = reg.family_total("pms_outbox_dropped_total");
    pending = enqueued - delivered - evicted - dropped;
  }
  std::printf("\n--- sync reliability ---\n");
  std::printf("  sync failures:     %zu\n", sync_failures);
  std::printf("  outbox enqueued:   %zu (delivered %zu, recovered after "
              "retry %zu, dropped at crash/wipe %zu)\n",
              enqueued, delivered, recovered, dropped);
  std::printf("  breaker opens:     %llu (fast fails %llu)\n",
              static_cast<unsigned long long>(
                  reg.family_total("net_breaker_open_total")),
              static_cast<unsigned long long>(
                  reg.family_total("net_breaker_fast_fail_total")));
  std::printf("  faults injected:   %llu\n",
              static_cast<unsigned long long>(
                  reg.family_total("cloud_faults_injected_total")));
  const std::size_t lost = evicted + pending;
  std::printf("  recovered vs lost: %zu recovered, %zu lost (%zu evicted, "
              "%zu still pending)%s\n",
              recovered, lost, evicted, pending,
              lost == 0 ? " — no records lost" : "");

  // --- Device lifecycle digest (only with --churn / device fault rules):
  // how often devices died and came back, and what the wipe tombstones
  // refused to let back in.
  if (config.fault_plan.has_device_rules()) {
    std::printf("\n--- device lifecycle ---\n");
    std::printf("  restarts:          %llu\n",
                static_cast<unsigned long long>(
                    reg.family_total("pms_restarts_total")));
    std::printf("  wipe tombstones:   %llu raised, %llu replays rejected\n",
                static_cast<unsigned long long>(
                    reg.family_total("cloud_wipe_tombstones_total")),
                static_cast<unsigned long long>(
                    reg.family_total("cloud_tombstone_rejections_total")));
    std::printf("  cold restarts:     %llu profile-days re-pulled from cloud\n",
                static_cast<unsigned long long>(
                    reg.family_total("pms_cold_profile_days_recovered_total")));
    std::printf("  torn tails healed: %llu\n",
                static_cast<unsigned long long>(
                    reg.family_total("persistence_torn_tail_total")));
  }

  // Exact (non-lossy) digest line: ci.sh greps this to assert the study is
  // byte-identical to the golden digest committed with each perf PR.
  std::printf("cloud content digest: %llu\n",
              static_cast<unsigned long long>(result.storage_digest));

  // --- Telemetry digest: what the recorder sampled and how the alert
  // rules ended the run.
  if (config.timeseries.enabled || config.alerts) {
    std::printf("\n--- telemetry ---\n");
    if (config.timeseries.enabled) {
      const auto& ts = telemetry::timeseries();
      std::printf("  timeseries:        %zu points @ %llds interval"
                  " (%zu evicted)\n",
                  ts.points().size(),
                  static_cast<long long>(ts.config().interval), ts.dropped());
    }
    if (config.alerts) {
      for (const auto& [rule, state] : telemetry::alerts().snapshot())
        std::printf("  alert %-16s %s (fired %llu time%s)\n",
                    rule.name.c_str(), state.firing ? "FIRING" : "ok",
                    static_cast<unsigned long long>(state.fire_count),
                    state.fire_count == 1 ? "" : "s");
    }
  }

  // --- Caching digest: the device GCA cache's hit taxonomy.
  const auto outcome_total = [&](const char* outcome) -> unsigned long long {
    const auto* c = reg.find_counter(
        "cache_outcomes_total", {{"cache", "pms_gca"}, {"outcome", outcome}});
    return c ? static_cast<unsigned long long>(c->value()) : 0;
  };
  std::printf("\n--- caching (%s) ---\n", config.cache ? "on" : "off");
  std::printf("  %-16s local_hit %llu, recompute %llu, miss %llu\n",
              "pms_gca", outcome_total("local_hit"),
              outcome_total("recompute"), outcome_total("miss"));

  // --- JSON report ---
  Json report = Json::object();
  report.set("participants", config.participants);
  report.set("days", config.days);
  report.set("seed", static_cast<std::uint64_t>(config.seed));
  report.set("region", config.world.region.name);
  report.set("wifi", config.use_wifi);
  report.set("cache", config.cache);
  report.set("discovered", static_cast<std::uint64_t>(result.total_discovered()));
  report.set("tagged", static_cast<std::uint64_t>(result.total_tagged()));
  report.set("evaluable", static_cast<std::uint64_t>(result.total_evaluable()));
  Json outcomes = Json::object();
  outcomes.set("correct", result.fraction(DiscoveredOutcome::Correct));
  outcomes.set("merged", result.fraction(DiscoveredOutcome::Merged));
  outcomes.set("divided", result.fraction(DiscoveredOutcome::Divided));
  report.set("outcomes", std::move(outcomes));
  report.set("likes", static_cast<std::uint64_t>(result.total_likes()));
  report.set("dislikes", static_cast<std::uint64_t>(result.total_dislikes()));
  Json per_participant = Json::array();
  for (const auto& p : result.participants) {
    Json row = Json::object();
    row.set("name", p.profile.name);
    row.set("archetype", to_string(p.profile.archetype));
    row.set("places", static_cast<std::uint64_t>(p.places_discovered));
    row.set("tagged", static_cast<std::uint64_t>(p.places_tagged));
    row.set("battery_hours", p.implied_battery_hours);
    per_participant.push_back(std::move(row));
  }
  report.set("per_participant", std::move(per_participant));
  Json cohorts = Json::object();
  for (const auto& [arch, stats] : result.cohorts) {
    Json row = Json::object();
    row.set("participants", stats.participants);
    row.set("places_discovered", stats.places_discovered);
    row.set("places_tagged", stats.places_tagged);
    row.set("sensing_joules", stats.sensing_joules);
    row.set("battery_hours", stats.battery_hours);
    cohorts.set(to_string(arch), std::move(row));
  }
  report.set("cohorts", std::move(cohorts));
  Json sync = Json::object();
  sync.set("fault_plan", config.fault_plan.describe());
  sync.set("sync_failures", static_cast<std::uint64_t>(sync_failures));
  sync.set("outbox_recovered", static_cast<std::uint64_t>(recovered));
  sync.set("outbox_evicted", static_cast<std::uint64_t>(evicted));
  sync.set("outbox_dropped", static_cast<std::uint64_t>(dropped));
  sync.set("outbox_pending", static_cast<std::uint64_t>(pending));
  sync.set("restarts", reg.family_total("pms_restarts_total"));
  // As a string: Json numbers are doubles, which cannot carry a full
  // 64-bit digest exactly (matches the decimal form printed above).
  sync.set("storage_digest",
           strfmt("%llu", static_cast<unsigned long long>(
                          result.storage_digest)));
  report.set("sync", std::move(sync));
  std::ofstream(report_path) << report.pretty() << '\n';
  std::printf("report written to %s\n", report_path.c_str());

  // --- optional SVG map (Figure 5b) ---
  if (!map_path.empty()) {
    viz::MapExtent extent{study.world().config().origin,
                          study.world().config().extent_m};
    std::vector<viz::MapMarker> markers;
    for (const auto& entry : result.place_map) {
      if (!entry.location) continue;
      markers.push_back({*entry.location, entry.label, 'o', "#4466cc", 4});
    }
    std::ofstream(map_path) << viz::render_svg_map(extent, markers);
    std::printf("map written to %s (%zu places)\n", map_path.c_str(),
                markers.size());
  }
  return 0;
}
