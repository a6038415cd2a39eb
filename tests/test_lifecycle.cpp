// Crash-consistent PMS lifecycle: checkpoint/restore round-trips, torn
// checkpoint detection with cold-restart fallback, outbox persistence,
// epoch-qualified replay across reboots, and deterministic crash/churn
// studies (DESIGN.md "Failure model & recovery").
#include "core/pms.hpp"

#include <gtest/gtest.h>

#include <functional>
#include <sstream>

#include "cache/digest.hpp"
#include "cloud/cloud_instance.hpp"
#include "core/codec.hpp"
#include "core/outbox.hpp"
#include "mobility/participant.hpp"
#include "mobility/schedule.hpp"
#include "study/deployment.hpp"
#include "telemetry/metrics.hpp"
#include "telemetry/trace.hpp"

namespace pmware::core {
namespace {

/// One world + trace + cloud, able to boot any number of PMS incarnations
/// of the SAME device identity against it (crash/restart modeling).
struct LifecycleHarness {
  explicit LifecycleHarness(int days_n, cloud::CloudConfig cloud_config = {}) {
    Rng world_rng(1);
    world::WorldConfig wc;
    world = world::generate_world(wc, world_rng);
    Rng prng(2);
    participants = mobility::make_participants(*world, 1, prng);
    Rng trng(5);
    mobility::ScheduleConfig sc;
    sc.days = days_n;
    trace.emplace(mobility::build_trace(*world, participants[0], sc, trng));
    cloud.emplace(cloud_config,
                  cloud::GeoLocationService(world->cell_location_db()), Rng(3));
  }

  /// A fresh incarnation of the device — same IMEI/email, fresh RNGs.
  std::unique_ptr<PmwareMobileService> boot(std::uint64_t salt = 7) {
    auto device = std::make_unique<sensing::Device>(
        world, sensing::oracle_from_trace(*trace), sensing::DeviceConfig{},
        Rng(salt));
    auto client = std::make_unique<net::RestClient>(
        &cloud->router(), net::NetworkConditions{0.0, 1}, Rng(salt + 1));
    PmsConfig config;
    config.imei = "358240050000042";
    config.email = "lifecycle@study.pmware.org";
    return std::make_unique<PmwareMobileService>(std::move(device), config,
                                                 std::move(client),
                                                 Rng(salt + 2));
  }

  std::shared_ptr<const world::World> world;
  std::vector<mobility::Participant> participants;
  std::optional<mobility::Trace> trace;
  std::optional<cloud::CloudInstance> cloud;
};

std::string checkpoint_of(const PmwareMobileService& pms) {
  std::ostringstream out;
  pms.save(out);
  return out.str();
}

TEST(Lifecycle, CheckpointRoundTripRestoresState) {
  LifecycleHarness h(2);
  auto pms1 = h.boot();
  ASSERT_TRUE(pms1->register_with_cloud(0));
  EXPECT_EQ(pms1->boot_epoch(), 1u);
  pms1->run(TimeWindow{0, days(2)});
  const std::string checkpoint = checkpoint_of(*pms1);
  ASSERT_FALSE(checkpoint.empty());

  auto pms2 = h.boot(19);
  std::istringstream in(checkpoint);
  ASSERT_TRUE(pms2->restore(in));
  // Restore deliberately leaves the device unregistered: the next
  // registration mints a fresh boot epoch (session) for the incarnation.
  EXPECT_FALSE(pms2->registered());
  EXPECT_EQ(pms2->boot_epoch(), 0u);

  // Science state round-trips bit-for-bit, the raw GSM log included.
  const auto& log1 = pms1->inference().gsm_log();
  const auto& log2 = pms2->inference().gsm_log();
  ASSERT_GT(log1.size(), 2u * 1000u);
  ASSERT_EQ(log2.size(), log1.size());
  for (std::size_t i = 0; i < log1.size(); ++i) {
    ASSERT_EQ(log2[i].t, log1[i].t) << "observation " << i;
    ASSERT_EQ(log2[i].cell, log1[i].cell) << "observation " << i;
  }
  EXPECT_EQ(movement_digest(log2), movement_digest(log1));
  ASSERT_EQ(pms2->inference().visit_log().size(),
            pms1->inference().visit_log().size());
  for (std::size_t i = 0; i < pms1->inference().visit_log().size(); ++i) {
    EXPECT_EQ(pms2->inference().visit_log()[i].uid,
              pms1->inference().visit_log()[i].uid);
    EXPECT_EQ(pms2->inference().visit_log()[i].window,
              pms1->inference().visit_log()[i].window);
  }
  ASSERT_EQ(pms2->places().records().size(), pms1->places().records().size());
  for (const auto& [uid, record] : pms1->places().records()) {
    const PlaceRecord* restored = pms2->places().get(uid);
    ASSERT_NE(restored, nullptr);
    EXPECT_EQ(restored->label, record.label);
    EXPECT_EQ(restored->granularity, record.granularity);
  }
  const MobilityProfile p1 = pms1->profile_for(0);
  const MobilityProfile p2 = pms2->profile_for(0);
  ASSERT_EQ(p2.places.size(), p1.places.size());
  for (std::size_t i = 0; i < p1.places.size(); ++i) {
    EXPECT_EQ(p2.places[i].place, p1.places[i].place);
    EXPECT_EQ(p2.places[i].arrival, p1.places[i].arrival);
  }

  // The second registration of the same identity is session 2.
  ASSERT_TRUE(pms2->register_with_cloud(days(2)));
  EXPECT_EQ(pms2->boot_epoch(), 2u);
}

TEST(Lifecycle, RestoreDetectsTornCheckpoint) {
  LifecycleHarness h(1);
  auto pms1 = h.boot();
  ASSERT_TRUE(pms1->register_with_cloud(0));
  pms1->run(TimeWindow{0, days(1)});
  const std::string checkpoint = checkpoint_of(*pms1);

  for (const std::size_t cut :
       {std::size_t{0}, std::size_t{10}, checkpoint.size() / 4,
        checkpoint.size() / 2, checkpoint.size() - 1}) {
    auto pms2 = h.boot(23);
    std::istringstream in(checkpoint.substr(0, cut));
    EXPECT_FALSE(pms2->restore(in)) << "cut at byte " << cut;
  }
  // Garbage that is not even a manifest.
  auto pms3 = h.boot(29);
  std::istringstream garbage("hello world\nnot a checkpoint\n");
  EXPECT_FALSE(pms3->restore(garbage));
}

TEST(Lifecycle, AnySingleByteCorruptionIsDetected) {
  LifecycleHarness h(1);
  auto pms1 = h.boot();
  ASSERT_TRUE(pms1->register_with_cloud(0));
  pms1->run(TimeWindow{0, days(1)});
  const std::string checkpoint = checkpoint_of(*pms1);

  // The manifest digest covers every payload byte; a flip anywhere (body,
  // manifest, newline structure) must fail the restore, never half-apply.
  for (std::size_t pos = 0; pos < checkpoint.size();
       pos += 1 + checkpoint.size() / 97) {
    std::string corrupt = checkpoint;
    corrupt[pos] = static_cast<char>(corrupt[pos] ^ 0x01);
    auto pms2 = h.boot(31);
    std::istringstream in(corrupt);
    EXPECT_FALSE(pms2->restore(in)) << "flip at byte " << pos;
  }
}

/// Rewrites `checkpoint`'s body lines with `edit` and re-seals it: the
/// manifest's line count and digest are recomputed, so only the version
/// check and the section decoders can refuse the result.
std::string reseal(const std::string& checkpoint,
                   const std::function<void(Json&, std::vector<std::string>&)>&
                       edit) {
  std::istringstream in(checkpoint);
  std::string line;
  std::getline(in, line);
  Json manifest = Json::parse(line);
  std::vector<std::string> body;
  while (std::getline(in, line)) body.push_back(line);
  edit(manifest, body);
  std::string payload;
  for (const auto& l : body) payload += l + '\n';
  manifest.set("lines", static_cast<std::int64_t>(body.size()));
  manifest.set("digest", digest_to_hex(cache::fnv1a(payload)));
  return manifest.dump() + '\n' + payload;
}

/// The index of the gsm_log section's payload line in a checkpoint body.
std::size_t gsm_log_line(const std::vector<std::string>& body) {
  for (std::size_t i = 0; i + 1 < body.size(); ++i) {
    const Json header = Json::parse(body[i]);
    if (header.get_string("section", "") == "gsm_log") {
      EXPECT_EQ(header.get_int("lines", -1), 1);
      return i + 1;
    }
  }
  ADD_FAILURE() << "no gsm_log section";
  return 0;
}

TEST(Lifecycle, VersionOneCheckpointIsRefused) {
  LifecycleHarness h(1);
  auto pms1 = h.boot();
  ASSERT_TRUE(pms1->register_with_cloud(0));
  pms1->run(TimeWindow{0, days(1)});
  const std::string checkpoint = checkpoint_of(*pms1);
  // Same sealed body, but an old manifest version: the one-object-per-
  // observation gsm_log has no reader, so the checkpoint is refused whole.
  const std::string old_version = reseal(
      checkpoint, [](Json& manifest, std::vector<std::string>&) {
        manifest.set("version", 1);
      });
  auto pms2 = h.boot(59);
  std::istringstream in(old_version);
  EXPECT_FALSE(pms2->restore(in));
  EXPECT_TRUE(pms2->inference().gsm_log().empty());
}

TEST(Lifecycle, OutOfRangeGsmCellIndexCommitsNothing) {
  LifecycleHarness h(2);
  auto pms1 = h.boot();
  ASSERT_TRUE(pms1->register_with_cloud(0));
  pms1->run(TimeWindow{0, days(1)});
  // A sealed checkpoint (digest valid) whose gsm_log line points one past
  // its cell table: only the columnar decoder can catch it.
  const std::string corrupt = reseal(
      checkpoint_of(*pms1), [](Json&, std::vector<std::string>& body) {
        const std::size_t at = gsm_log_line(body);
        Json line = Json::parse(body[at]);
        Json::Array c = line.at("c").as_array();
        ASSERT_FALSE(c.empty());
        c.back() = Json(static_cast<std::uint64_t>(line.at("cells").size()));
        line.set("c", std::move(c));
        body[at] = line.dump();
      });
  pms1->run(TimeWindow{days(1), days(2)});
  const std::size_t observations = pms1->inference().gsm_log().size();
  const std::size_t visits = pms1->inference().visit_log().size();

  std::istringstream in(corrupt);
  EXPECT_FALSE(pms1->restore(in));
  // All-or-nothing: the running state survives the rejected restore.
  EXPECT_EQ(pms1->inference().gsm_log().size(), observations);
  EXPECT_EQ(pms1->inference().visit_log().size(), visits);
  EXPECT_TRUE(pms1->registered());

  // The next boot finds no usable checkpoint and cold-restarts.
  auto pms2 = h.boot(61);
  std::istringstream again(corrupt);
  EXPECT_FALSE(pms2->restore(again));
  EXPECT_TRUE(pms2->inference().gsm_log().empty());
  ASSERT_TRUE(pms2->cold_restart(days(2)));
  EXPECT_TRUE(pms2->registered());
}

TEST(Lifecycle, FailedRestoreLeavesStateUntouched) {
  LifecycleHarness h(2);
  auto pms1 = h.boot();
  ASSERT_TRUE(pms1->register_with_cloud(0));
  pms1->run(TimeWindow{0, days(1)});
  const std::string good = checkpoint_of(*pms1);
  pms1->run(TimeWindow{days(1), days(2)});
  const std::size_t visits_after_day2 = pms1->inference().visit_log().size();

  std::string corrupt = good;
  corrupt[corrupt.size() / 2] ^= 0x40;
  std::istringstream in(corrupt);
  EXPECT_FALSE(pms1->restore(in));
  // All-or-nothing: the running day-2 state survives the rejected restore.
  EXPECT_EQ(pms1->inference().visit_log().size(), visits_after_day2);
  EXPECT_TRUE(pms1->registered());
}

TEST(Lifecycle, ColdRestartRebuildsPlacesFromCloud) {
  LifecycleHarness h(2);
  auto pms1 = h.boot();
  ASSERT_TRUE(pms1->register_with_cloud(0));
  pms1->run(TimeWindow{0, days(2)});
  pms1->shutdown(days(2));
  const std::size_t synced_places = pms1->places().records().size();
  ASSERT_GT(synced_places, 0u);

  // No checkpoint survives: the incarnation rebuilds from the cloud.
  auto pms2 = h.boot(37);
  ASSERT_TRUE(pms2->cold_restart(days(2)));
  EXPECT_TRUE(pms2->registered());
  EXPECT_EQ(pms2->boot_epoch(), 2u);
  EXPECT_EQ(pms2->places().records().size(), synced_places);
  for (const auto& [uid, record] : pms1->places().records()) {
    const PlaceRecord* pulled = pms2->places().get(uid);
    ASSERT_NE(pulled, nullptr);
    EXPECT_EQ(pulled->label, record.label);
  }
  EXPECT_GE(telemetry::registry().family_total(
                "pms_cold_profile_days_recovered_total"),
            1u);
}

TEST(Lifecycle, ColdRestartWithEmptyCloudStartsFresh) {
  LifecycleHarness h(1);
  auto pms = h.boot();
  ASSERT_TRUE(pms->cold_restart(0));
  EXPECT_TRUE(pms->registered());
  EXPECT_TRUE(pms->places().records().empty());
}

TEST(Lifecycle, OutboxSaveLoadRoundTripPreservesEntries) {
  SyncOutbox outbox;
  outbox.enqueue(SyncKind::ProfileDay, 0, 0, 100, /*epoch=*/1);
  outbox.enqueue(SyncKind::PlaceUpsert, 7, 0, 200, 1);
  outbox.enqueue(SyncKind::Route, 3, 0, 300, 1);
  outbox.enqueue(SyncKind::EncounterBatch, 0, 4, 400, 1);
  outbox.enqueue(SyncKind::EncounterBatch, 4, 9, 500, 2);  // new epoch: kept
  ASSERT_EQ(outbox.size(), 5u);
  // Fail one drain so attempts round-trips too.
  outbox.drain([](const OutboxEntry&) { return false; });

  std::stringstream stream;
  outbox.save(stream);
  SyncOutbox loaded;
  const auto result = loaded.load(stream);
  EXPECT_EQ(result.loaded, 5u);
  EXPECT_EQ(result.evicted, 0u);
  ASSERT_EQ(loaded.size(), outbox.size());
  for (std::size_t i = 0; i < outbox.size(); ++i) {
    EXPECT_EQ(loaded.entries()[i].kind, outbox.entries()[i].kind);
    EXPECT_EQ(loaded.entries()[i].key, outbox.entries()[i].key);
    EXPECT_EQ(loaded.entries()[i].key2, outbox.entries()[i].key2);
    EXPECT_EQ(loaded.entries()[i].enqueued_at, outbox.entries()[i].enqueued_at);
    EXPECT_EQ(loaded.entries()[i].attempts, outbox.entries()[i].attempts);
    EXPECT_EQ(loaded.entries()[i].epoch, outbox.entries()[i].epoch);
  }
  // Restored entries keep deduping later enqueues.
  EXPECT_FALSE(loaded.enqueue(SyncKind::PlaceUpsert, 7, 0, 999, 2).appended);
}

TEST(Lifecycle, OutboxLoadEvictsOldestBeyondCapacity) {
  SyncOutbox big;
  for (std::uint64_t day = 0; day < 6; ++day)
    big.enqueue(SyncKind::ProfileDay, day, 0, static_cast<SimTime>(day), 1);
  std::stringstream stream;
  big.save(stream);

  SyncOutbox small(OutboxConfig{4});
  const auto result = small.load(stream);
  EXPECT_EQ(result.loaded, 4u);
  EXPECT_EQ(result.evicted, 2u);
  ASSERT_EQ(small.size(), 4u);
  // Oldest-first eviction: days 0 and 1 gone, 2..5 kept in FIFO order.
  for (std::size_t i = 0; i < 4; ++i)
    EXPECT_EQ(small.entries()[i].key, i + 2);
}

TEST(Lifecycle, CheckpointedEntriesReplayAfterRestart) {
  // Profile-route outage from day 1: profile PUTs queue in the outbox
  // (other routes stay up, so registration works). The device crashes with
  // the day-1 profile still queued; the restored incarnation must deliver
  // it under its ORIGINAL epoch once the route recovers at 3d (the final
  // shutdown drain).
  cloud::CloudConfig cloud_config;
  cloud_config.fault_plan =
      net::FaultPlan::parse("route=/profiles,outage=1d..3d");
  LifecycleHarness h(3, cloud_config);
  auto pms1 = h.boot();
  ASSERT_TRUE(pms1->register_with_cloud(0));
  pms1->run(TimeWindow{0, days(2)});
  ASSERT_GT(pms1->stats().outbox_pending, 0u);
  const std::string checkpoint = checkpoint_of(*pms1);

  auto pms2 = h.boot(41);
  std::istringstream in(checkpoint);
  ASSERT_TRUE(pms2->restore(in));
  ASSERT_TRUE(pms2->register_with_cloud(days(2)));
  EXPECT_EQ(pms2->boot_epoch(), 2u);
  pms2->run(TimeWindow{days(2), days(3)});
  pms2->shutdown(days(3));
  EXPECT_EQ(pms2->stats().outbox_pending, 0u);
  // The outage-day profile reached the cloud via the replayed entry.
  const auto* store = h.cloud->storage().find_user(*pms2->user_id());
  ASSERT_NE(store, nullptr);
  EXPECT_GE(store->profiles.count(1), 1u);
}

TEST(Lifecycle, WipedCheckpointCannotResurrectData) {
  // Same shape, but the user privacy-wipes between checkpoint and restore:
  // the replayed entries carry the wiped epoch and must be refused by the
  // cloud tombstone (410 -> dropped), never resurrecting pre-wipe data.
  cloud::CloudConfig cloud_config;
  cloud_config.fault_plan =
      net::FaultPlan::parse("route=/profiles,outage=1d..3d");
  LifecycleHarness h(3, cloud_config);
  auto pms1 = h.boot();
  ASSERT_TRUE(pms1->register_with_cloud(0));
  pms1->run(TimeWindow{0, days(2)});
  ASSERT_GT(pms1->stats().outbox_pending, 0u);
  const std::string checkpoint = checkpoint_of(*pms1);
  ASSERT_TRUE(pms1->wipe_cloud_data(days(2)));

  auto pms2 = h.boot(43);
  std::istringstream in(checkpoint);
  ASSERT_TRUE(pms2->restore(in));
  ASSERT_TRUE(pms2->register_with_cloud(days(2)));
  pms2->run(TimeWindow{days(2), days(3)});
  pms2->shutdown(days(3));
  // Replays under the wiped epoch were dropped, not delivered: the
  // outage-day profile (enqueued under epoch 1, pre-wipe) never lands.
  EXPECT_GT(pms2->stats().outbox_dropped, 0u);
  const auto* store = h.cloud->storage().find_user(*pms2->user_id());
  ASSERT_NE(store, nullptr);
  EXPECT_EQ(store->profiles.count(1), 0u);
  EXPECT_GE(telemetry::registry().family_total(
                "cloud_tombstone_rejections_total"),
            1u);
}

TEST(Lifecycle, DiscardPendingCountsDroppedEntries) {
  cloud::CloudConfig cloud_config;
  cloud_config.fault_plan = net::FaultPlan::parse("outage=0d..2d");
  LifecycleHarness h(1, cloud_config);
  auto pms = h.boot();
  pms->register_with_cloud(0);  // fails under the outage; queues nothing yet
  pms->run(TimeWindow{0, days(1)});
  const std::size_t pending = pms->stats().outbox_pending;
  const std::size_t before = pms->stats().outbox_dropped;
  EXPECT_EQ(pms->discard_pending(), pending);
  EXPECT_EQ(pms->stats().outbox_pending, 0u);
  EXPECT_EQ(pms->stats().outbox_dropped, before + pending);
}

// --- Crashed-study determinism: the chaos headline. A study with crash
// injection, privacy wipes, and late joins must produce a byte-identical
// cloud digest at every shards x threads x wave shape, and the outbox
// balance must close with nothing lost for survivors.

/// `wave` 0 is the default wave size.
study::StudyResult run_chaos_study(int shards, int threads, int wave) {
  telemetry::registry().reset();
  telemetry::tracer().reset();
  study::StudyConfig config;
  config.participants = 4;
  config.days = 3;
  config.shards = shards;
  config.threads = threads;
  config.wave_size = wave;
  config.fault_plan = net::FaultPlan::parse(
      "crash=0d..2d,crash_rate=0.5,restart_delay=2h;"
      "wipe=1d..2d,wipe_rate=0.5;join=0d..2d,join_rate=0.5");
  return study::DeploymentStudy(config).run();
}

TEST(Lifecycle, CrashedStudyIsDeterministicAcrossShapes) {
  // Baseline: one wave holding all 4 participants, run on one thread.
  const study::StudyResult baseline = run_chaos_study(1, 1, 4);
  // The chaos plan actually fired (otherwise this test asserts nothing).
  EXPECT_GT(telemetry::registry().family_total("pms_restarts_total"), 0u);
  EXPECT_GT(telemetry::registry().family_total("cloud_wipe_tombstones_total"),
            0u);
  const std::uint64_t digest = baseline.storage_digest;
  ASSERT_NE(digest, 0u);

  const struct {
    int shards, threads, wave;
    const char* what;
  } kShapes[] = {
      {1, 1, 1, "1 shard, 1 thread, wave 1"},
      {4, 2, 1, "4 shards, 2 threads, wave 1"},
      {4, 2, 0, "4 shards, 2 threads, default wave"},
  };
  for (const auto& shape : kShapes) {
    SCOPED_TRACE(shape.what);
    const study::StudyResult run =
        run_chaos_study(shape.shards, shape.threads, shape.wave);
    EXPECT_EQ(run.storage_digest, digest);
    EXPECT_EQ(run.storage_stats, baseline.storage_stats);
  }
}

TEST(Lifecycle, CrashedStudyLosesNoSurvivorRecords) {
  run_chaos_study(4, 2, 0);
  const auto& reg = telemetry::registry();
  const std::uint64_t enqueued = reg.family_total("pms_outbox_enqueued_total");
  const std::uint64_t delivered =
      reg.family_total("pms_outbox_delivered_total");
  const std::uint64_t evicted = reg.family_total("pms_outbox_evicted_total");
  const std::uint64_t dropped = reg.family_total("pms_outbox_dropped_total");
  ASSERT_GT(enqueued, 0u);
  // The balance closes exactly: every enqueued entry was delivered, or was
  // intentionally discarded at a crash/wipe teardown. Nothing evicted,
  // nothing silently pending at study end.
  EXPECT_EQ(evicted, 0u);
  EXPECT_EQ(enqueued, delivered + dropped);
}

/// What churn's sync path did in one study: the totals that depend on which
/// requests the fault plan failed, and the cloud's content digest.
struct SyncOutcome {
  std::uint64_t sync_failures = 0;
  std::uint64_t outbox_enqueued = 0;
  std::uint64_t digest = 0;
};

/// A small study under churn's full fault plan (perfbench/README.md):
/// profile/place/route 5xx from day 1 to day 5, plus crashes, wipes and
/// late joins.
SyncOutcome run_churn_study(int threads) {
  telemetry::registry().reset();
  telemetry::tracer().reset();
  study::StudyConfig config;
  config.participants = 8;
  config.days = 4;
  config.threads = threads;
  config.fault_plan = net::FaultPlan::parse(
      "route=/api/users,error=0.2,from=1d,to=5d;"
      "crash=1d..6d,crash_rate=0.3,restart_delay=2h;"
      "wipe=3d..4d,wipe_rate=0.2;join=0d..2d,join_rate=0.3");
  const study::StudyResult result = study::DeploymentStudy(config).run();
  const auto& reg = telemetry::registry();
  return {reg.family_total("pms_sync_failures_total"),
          reg.family_total("pms_outbox_enqueued_total"),
          result.storage_digest};
}

TEST(Lifecycle, ChurnSyncFailuresAreDeterministicAcrossThreads) {
  // Which requests a fault rule fails is a pure function of the request,
  // so it must not depend on the registration order the worker threads
  // happened to produce (that order assigns the user ids).
  const SyncOutcome baseline = run_churn_study(1);
  ASSERT_GT(baseline.sync_failures, 0u);  // the 5xx rule fired
  ASSERT_NE(baseline.digest, 0u);
  for (int run = 0; run < 2; ++run) {
    SCOPED_TRACE(run);
    const SyncOutcome parallel = run_churn_study(4);
    EXPECT_EQ(parallel.sync_failures, baseline.sync_failures);
    EXPECT_EQ(parallel.outbox_enqueued, baseline.outbox_enqueued);
    EXPECT_EQ(parallel.digest, baseline.digest);
  }
}

TEST(Lifecycle, NoFaultStudyDrawsNoLifecycleCounters) {
  telemetry::registry().reset();
  telemetry::tracer().reset();
  study::StudyConfig config;
  config.participants = 2;
  config.days = 2;
  study::DeploymentStudy(config).run();
  // Without device fault rules the lifecycle machinery must stay entirely
  // cold: no restarts, no checkpoints, no drops.
  EXPECT_EQ(telemetry::registry().family_total("pms_restarts_total"), 0u);
  EXPECT_EQ(telemetry::registry().family_total("pms_outbox_dropped_total"),
            0u);
}

}  // namespace
}  // namespace pmware::core
