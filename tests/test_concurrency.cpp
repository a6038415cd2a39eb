// Concurrency tests: hammer the telemetry registry, the tracer, and the
// sharded cloud from many threads, and run the deployment study on a worker
// pool. These run under ThreadSanitizer in ci.sh (PMWARE_SANITIZE=thread,
// ctest -L Sharding); the assertions below catch lost updates, the
// sanitizer catches the races assertions cannot see.
#include <atomic>
#include <cstddef>
#include <cstdint>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include <gtest/gtest.h>

#include "cloud/cloud_instance.hpp"
#include "core/codec.hpp"
#include "study/deployment.hpp"
#include "telemetry/export.hpp"
#include "telemetry/log.hpp"
#include "telemetry/metrics.hpp"
#include "telemetry/trace.hpp"

namespace pmware::telemetry {
namespace {

constexpr std::size_t kThreads = 8;
constexpr std::size_t kOpsPerThread = 2000;

/// Start gate so all workers enter the hot section together instead of
/// running mostly sequentially on a loaded machine.
class StartGate {
 public:
  void wait() {
    ready_.fetch_add(1);
    while (!go_.load()) std::this_thread::yield();
  }
  void open(std::size_t expected) {
    while (ready_.load() < expected) std::this_thread::yield();
    go_.store(true);
  }

 private:
  std::atomic<std::size_t> ready_{0};
  std::atomic<bool> go_{false};
};

TEST(TelemetryConcurrency, RegistryCountsExactlyUnderHammering) {
  MetricsRegistry reg;
  StartGate gate;
  std::vector<std::thread> workers;
  workers.reserve(kThreads);
  for (std::size_t t = 0; t < kThreads; ++t) {
    workers.emplace_back([&reg, &gate, t] {
      gate.wait();
      // Every thread hits one shared series, one per-thread series, a
      // shared gauge, and a shared histogram — mixing contended and
      // uncontended paths plus first-use series creation.
      const std::string mine = "t" + std::to_string(t);
      for (std::size_t i = 0; i < kOpsPerThread; ++i) {
        reg.counter("hammer_shared_total").inc();
        reg.counter("hammer_per_thread_total", {{"thread", mine}}).inc();
        reg.gauge("hammer_gauge").add(1.0);
        reg.histogram("hammer_hist", {}, 0.0, 100.0, 10)
            .observe(static_cast<double>(i % 100));
        if (i % 64 == 0) {
          // Exercise reader paths concurrently with writers.
          (void)reg.counter_value("hammer_shared_total");
          (void)reg.family_total("hammer_per_thread_total");
        }
      }
    });
  }
  gate.open(kThreads);
  for (auto& w : workers) w.join();

  const std::uint64_t expected = kThreads * kOpsPerThread;
  EXPECT_EQ(reg.counter_value("hammer_shared_total"), expected);
  EXPECT_EQ(reg.family_total("hammer_per_thread_total"), expected);
  for (std::size_t t = 0; t < kThreads; ++t)
    EXPECT_EQ(reg.counter_value("hammer_per_thread_total",
                                {{"thread", "t" + std::to_string(t)}}),
              kOpsPerThread);
  EXPECT_DOUBLE_EQ(reg.gauge("hammer_gauge").value(),
                   static_cast<double>(expected));
  const HistogramMetric::Snapshot h = reg.histogram("hammer_hist", {}, 0.0,
                                                    100.0, 10)
                                          .snapshot();
  EXPECT_EQ(h.stats.count(), expected);
}

TEST(TelemetryConcurrency, ExportersStayCoherentWhileWritersRun) {
  MetricsRegistry reg;
  // Register the families up front so every render can assert on them;
  // the writers still churn fresh *series* into both families below.
  reg.counter("churn_total", {{"series", "seed"}}).inc();
  reg.histogram("churn_hist", {{"w", "seed"}}, 0.0, 50.0, 5).observe(1.0);
  std::atomic<bool> stop{false};
  StartGate gate;
  std::vector<std::thread> writers;
  for (std::size_t t = 0; t < 4; ++t) {
    writers.emplace_back([&reg, &gate, &stop, t] {
      gate.wait();
      std::size_t i = 0;
      while (!stop.load()) {
        // Keep registering fresh series so exporters race against map
        // growth, not just cell updates.
        reg.counter("churn_total",
                    {{"series", "s" + std::to_string((t * 131 + i) % 97)}})
            .inc();
        reg.histogram("churn_hist", {{"w", std::to_string(t)}}, 0.0, 50.0, 5)
            .observe(static_cast<double>(i % 50));
        ++i;
      }
    });
  }
  gate.open(4);
  // Export repeatedly while the writers churn; the exporters lock the
  // registry, so each render must parse/shape coherently.
  for (int round = 0; round < 50; ++round) {
    const std::string text = to_prometheus(reg);
    EXPECT_NE(text.find("# TYPE churn_total counter"), std::string::npos);
    const Json json = to_json(reg);
    ASSERT_TRUE(json.contains("metrics"));
  }
  stop.store(true);
  for (auto& w : writers) w.join();
}

TEST(TelemetryConcurrency, TracerNestsSpansPerThread) {
  Tracer trc(1u << 16);
  StartGate gate;
  std::vector<std::thread> workers;
  for (std::size_t t = 0; t < kThreads; ++t) {
    workers.emplace_back([&trc, &gate, t] {
      gate.wait();
      const std::string name = "worker" + std::to_string(t);
      for (std::size_t i = 0; i < 200; ++i) {
        Span outer(trc, name + ".outer", static_cast<SimTime>(i));
        {
          Span inner(trc, name + ".inner", static_cast<SimTime>(i));
          inner.finish(static_cast<SimTime>(i + 1));
        }
        (void)trc.open_depth();  // reader racing the sink
        outer.finish(static_cast<SimTime>(i + 2));
      }
    });
  }
  gate.open(kThreads);
  for (auto& w : workers) w.join();

  const std::vector<SpanRecord> spans = trc.snapshot();
  ASSERT_EQ(spans.size(), kThreads * 200 * 2);
  EXPECT_EQ(trc.dropped(), 0u);
  EXPECT_EQ(trc.open_depth(), 0u);
  for (const SpanRecord& s : spans) {
    EXPECT_TRUE(s.finished);
    if (s.depth == 0) {
      EXPECT_EQ(s.parent, SpanRecord::kNoParent);
      continue;
    }
    // Nesting never crosses threads: a child's parent is the same
    // worker's outer span, and parents precede children in the record
    // vector.
    ASSERT_LT(s.parent, spans.size());
    const SpanRecord& p = spans[s.parent];
    EXPECT_LT(s.parent, s.id);
    EXPECT_EQ(s.depth, p.depth + 1);
    EXPECT_EQ(s.name.substr(0, s.name.find('.')),
              p.name.substr(0, p.name.find('.')));
  }
}

TEST(TelemetryConcurrency, LoggerAcceptsWritesFromAllThreads) {
  // The structured logger is the one telemetry sink every worker of the
  // parallel study hits on warnings; hammer the ring, the counters, and the
  // concurrent reader paths. Echo is off so tsan runs stay quiet.
  const LogLevel prev = log_level();
  set_log_level(LogLevel::Debug);
  Logger log(/*capacity=*/128);
  log.set_echo(false);
  StartGate gate;
  std::vector<std::thread> workers;
  for (std::size_t t = 0; t < kThreads; ++t) {
    workers.emplace_back([&log, &gate, t] {
      gate.wait();
      const std::string who = "w" + std::to_string(t);
      for (std::size_t i = 0; i < kOpsPerThread; ++i) {
        log.write(i % 2 ? LogLevel::Info : LogLevel::Warn, who,
                  static_cast<SimTime>(i), who + " op " + std::to_string(i));
        if (i % 64 == 0) (void)log.recent();  // reader racing the ring
      }
    });
  }
  gate.open(kThreads);
  for (auto& w : workers) w.join();

  EXPECT_EQ(log.total(), kThreads * kOpsPerThread);
  const std::vector<LogRecord> recent = log.recent();
  ASSERT_EQ(recent.size(), 128u);
  for (const LogRecord& r : recent) {
    EXPECT_FALSE(r.message.empty());
    EXPECT_EQ(r.message.substr(0, r.message.find(' ')), r.component);
  }
  set_log_level(prev);
}

TEST(TelemetryConcurrency, TracerCapDropsInsteadOfGrowing) {
  Tracer trc(64);
  StartGate gate;
  std::vector<std::thread> workers;
  for (std::size_t t = 0; t < kThreads; ++t) {
    workers.emplace_back([&trc, &gate] {
      gate.wait();
      for (std::size_t i = 0; i < 100; ++i)
        Span span(trc, "overflow", static_cast<SimTime>(i));
    });
  }
  gate.open(kThreads);
  for (auto& w : workers) w.join();
  EXPECT_EQ(trc.snapshot().size(), 64u);
  EXPECT_EQ(trc.dropped(), kThreads * 100 - 64);
}

}  // namespace
}  // namespace pmware::telemetry

namespace pmware::cloud {
namespace {

using net::HttpRequest;
using net::HttpResponse;
using net::Method;

HttpRequest make_request(Method method, std::string path,
                         const std::string& token, SimTime now) {
  HttpRequest req;
  req.method = method;
  req.path = std::move(path);
  req.headers[net::kSimTimeHeader] = std::to_string(now);
  if (!token.empty()) req.headers["Authorization"] = "Bearer " + token;
  return req;
}

/// One worker's deterministic traffic: per-user writes (places, profiles,
/// routes, contacts) plus, when `with_reads`, cross-user reads (/healthz
/// takes the all-shards snapshot, analytics re-enters the storage from a
/// handler). Returns the number of non-2xx responses.
int drive_user(const net::Router& router, world::DeviceId user,
               const std::string& token, std::size_t index, bool with_reads) {
  int failures = 0;
  auto check = [&failures](const HttpResponse& res) {
    if (!res.ok()) ++failures;
  };
  const std::string base = "/api/users/" + std::to_string(user);
  for (int i = 0; i < 40; ++i) {
    const SimTime now = minutes(i);  // stays far inside the token TTL

    core::PlaceRecord record;
    record.uid = static_cast<core::PlaceUid>(1 + i % 5);
    record.label = "u" + std::to_string(index) + "-p" + std::to_string(i % 5);
    record.visit_count = static_cast<std::size_t>(i);
    HttpRequest put = make_request(
        Method::Put, base + "/places/" + std::to_string(record.uid), token, now);
    put.body = core::to_json(record);
    check(router.handle(put));

    core::MobilityProfile profile;
    profile.day = i % 7;
    profile.places.push_back({record.uid, start_of_day(i % 7) + hours(8),
                              start_of_day(i % 7) + hours(9 + i % 3)});
    HttpRequest prof = make_request(
        Method::Put, base + "/profiles/" + std::to_string(i % 7), token, now);
    prof.body = core::to_json(profile);
    check(router.handle(prof));

    HttpRequest route = make_request(Method::Post, base + "/routes", token, now);
    route.body = Json::object();
    route.body.set("from", 1 + i % 3);
    route.body.set("to", 2 + i % 3);
    route.body.set("start", hours(8) + minutes(i));
    route.body.set("end", hours(9) + minutes(i));
    check(router.handle(route));

    HttpRequest contacts =
        make_request(Method::Post, base + "/contacts", token, now);
    Json encounter = Json::object();
    encounter.set("contact", static_cast<std::uint64_t>(9000 + index));
    encounter.set("place", static_cast<std::uint64_t>(record.uid));
    encounter.set("start", hours(i));
    encounter.set("end", hours(i) + minutes(30));
    Json encounters = Json::array();
    encounters.push_back(std::move(encounter));
    contacts.body = Json::object();
    contacts.body.set("encounters", std::move(encounters));
    check(router.handle(contacts));

    if (with_reads && i % 4 == 0) {
      check(router.handle(make_request(Method::Get, "/healthz", token, now)));
      check(router.handle(make_request(
          Method::Get, base + "/analytics/frequency", token, now)));
    }
  }
  return failures;
}

// The sharding correctness battery's centerpiece: 8 threads hammer a
// 4-shard cloud with mixed per-user writes and cross-user reads, then the
// exact same traffic replays serially into a 1-shard cloud. The stored
// content must come out identical — same aggregate stats, same
// order-independent digest. Run under tsan via ci.sh (-L Sharding) to catch
// the races the equality assertions cannot see.
TEST(CloudConcurrency, ShardedHammerMatchesSerialReplay) {
  constexpr std::size_t kUsers = 8;
  auto register_all = [](CloudInstance& cloud) {
    std::vector<std::pair<world::DeviceId, std::string>> creds;
    for (std::size_t u = 0; u < kUsers; ++u) {
      HttpRequest req = make_request(Method::Post, "/api/register", "", 0);
      req.body = Json::object();
      req.body.set("imei", "imei-" + std::to_string(u));
      req.body.set("email", "u" + std::to_string(u) + "@study.pmware.org");
      const HttpResponse res = cloud.router().handle(req);
      EXPECT_EQ(res.status, net::kStatusCreated);
      creds.emplace_back(
          static_cast<world::DeviceId>(res.body.at("user").as_int()),
          res.body.at("token").as_string());
    }
    return creds;
  };

  CloudConfig hammer_config;
  hammer_config.shards = 4;
  CloudInstance hammer(hammer_config, GeoLocationService({}), Rng(42));
  const auto creds = register_all(hammer);

  telemetry::StartGate gate;
  std::atomic<int> failures{0};
  std::vector<std::thread> workers;
  workers.reserve(kUsers);
  for (std::size_t u = 0; u < kUsers; ++u) {
    workers.emplace_back([&hammer, &gate, &failures, &creds, u] {
      gate.wait();
      failures += drive_user(hammer.router(), creds[u].first, creds[u].second,
                             u, /*with_reads=*/true);
    });
  }
  gate.open(kUsers);
  for (auto& w : workers) w.join();
  EXPECT_EQ(failures.load(), 0);

  // Serial replay: same registrations (same RNG seed, same order, so same
  // user ids and tokens), same per-user traffic, one thread, one shard.
  CloudConfig replay_config;
  replay_config.shards = 1;
  CloudInstance replay(replay_config, GeoLocationService({}), Rng(42));
  const auto replay_creds = register_all(replay);
  int replay_failures = 0;
  for (std::size_t u = 0; u < kUsers; ++u)
    replay_failures += drive_user(replay.router(), replay_creds[u].first,
                                  replay_creds[u].second, u,
                                  /*with_reads=*/true);
  EXPECT_EQ(replay_failures, 0);

  const CloudStorage::Stats hammered = hammer.storage().stats();
  EXPECT_EQ(hammered, replay.storage().stats());
  EXPECT_EQ(hammer.storage().content_digest(),
            replay.storage().content_digest());
  // Sanity: the hammer actually stored things.
  EXPECT_EQ(hammered.users, kUsers);
  EXPECT_EQ(hammered.places, kUsers * 5);
  EXPECT_EQ(hammered.profiles, kUsers * 7);
  EXPECT_EQ(hammered.encounters, kUsers * 40);
}

}  // namespace
}  // namespace pmware::cloud

namespace pmware::study {
namespace {

// End-to-end: the worker pool drives real PMS/cloud traffic through the
// process-wide registry and tracer. Small enough for the tsan build.
TEST(StudyConcurrency, ParallelSmallStudyRuns) {
  StudyConfig config;
  config.participants = 4;
  config.days = 2;
  config.threads = 4;
  const StudyResult result = DeploymentStudy(config).run();
  ASSERT_EQ(result.participants.size(), 4u);
  EXPECT_GT(result.total_discovered(), 0u);
  for (const auto& p : result.participants)
    EXPECT_GT(p.sensing_joules, 0.0);
}

}  // namespace
}  // namespace pmware::study
