// Device GCA result cache tests (PmsConfig::cache): the movement digest
// that versions it, its hit/recompute/off behaviour on a live PMS, the
// byte-identity of cloud responses it relies on, and cache-on/off study
// equivalence.
#include "core/pms.hpp"

#include <gtest/gtest.h>

#include <string>
#include <vector>

#include "cloud/cloud_instance.hpp"
#include "core/codec.hpp"
#include "mobility/participant.hpp"
#include "mobility/schedule.hpp"
#include "net/client.hpp"
#include "net/fault.hpp"
#include "study/deployment.hpp"
#include "telemetry/metrics.hpp"

namespace pmware {
namespace {

using net::HttpRequest;
using net::HttpResponse;
using net::Method;

std::uint64_t outcome_count(const char* cache, const char* outcome) {
  const auto* c = telemetry::registry().find_counter(
      "cache_outcomes_total", {{"cache", cache}, {"outcome", outcome}});
  return c == nullptr ? 0 : static_cast<std::uint64_t>(c->value());
}

// --- Movement digest ------------------------------------------------------

TEST(MovementDigest, SensitiveToTimeCellAndOrder) {
  auto cell = [](std::uint32_t cid) {
    world::CellId c;
    c.mcc = 262;
    c.mnc = 1;
    c.lac = 7;
    c.cid = cid;
    return c;
  };
  const std::vector<algorithms::CellObservation> a = {{0, cell(1)},
                                                      {60, cell(2)}};
  const std::vector<algorithms::CellObservation> same = a;
  EXPECT_EQ(core::movement_digest(a), core::movement_digest(same));

  std::vector<algorithms::CellObservation> longer = a;
  longer.push_back({120, cell(3)});
  EXPECT_NE(core::movement_digest(a), core::movement_digest(longer));

  const std::vector<algorithms::CellObservation> other_cell = {{0, cell(1)},
                                                               {60, cell(3)}};
  EXPECT_NE(core::movement_digest(a), core::movement_digest(other_cell));

  const std::vector<algorithms::CellObservation> other_time = {{0, cell(1)},
                                                               {61, cell(2)}};
  EXPECT_NE(core::movement_digest(a), core::movement_digest(other_time));

  const std::vector<algorithms::CellObservation> swapped = {{60, cell(2)},
                                                            {0, cell(1)}};
  EXPECT_NE(core::movement_digest(a), core::movement_digest(swapped));
}

// --- Cloud responses the device cache relies on ---------------------------

/// Minimal cloud + client pair; the client registers the device and keeps
/// the bearer token so tests talk to /api/users/<id>/... directly.
class ConditionalFixture : public ::testing::Test {
 protected:
  ConditionalFixture() { telemetry::registry().reset(); }

  void start(cloud::CloudConfig config = {}) {
    cloud_.emplace(config, cloud::GeoLocationService({}), Rng(1));
    client_.emplace(&cloud_->router(), net::NetworkConditions{}, Rng(2));
    HttpRequest reg;
    reg.method = Method::Post;
    reg.path = "/api/register";
    reg.body = Json::object();
    reg.body.set("imei", "358240051111111");
    reg.body.set("email", "cache@test.pmware.org");
    const HttpResponse res = client_->send(reg);
    ASSERT_EQ(res.status, net::kStatusCreated);
    client_->set_auth_token(res.body.at("token").as_string());
    user_ = std::to_string(res.body.at("user").as_int());
  }

  HttpRequest request(Method method, std::string path, SimTime now = 0) {
    HttpRequest req;
    req.method = method;
    req.path = std::move(path);
    req.headers[cloud::CloudInstance::kSimTimeHeader] = std::to_string(now);
    return req;
  }

  HttpResponse put_place(core::PlaceUid uid, const std::string& label,
                         SimTime now = 0) {
    HttpRequest put =
        request(Method::Put, "/api/users/" + user_ + "/places/" +
                                 std::to_string(uid), now);
    core::PlaceRecord record;
    record.label = label;
    put.body = core::to_json(record);
    return client_->send(put);
  }

  std::optional<cloud::CloudInstance> cloud_;
  std::optional<net::RestClient> client_;
  std::string user_;
};

// Response bytes must be a pure function of the last write — no counters,
// timestamps, or iteration-order noise in the representation.
TEST_F(ConditionalFixture, PlaceGetBytesArePureFunctionOfLastPut) {
  start();
  const std::string path = "/api/users/" + user_ + "/places";

  ASSERT_EQ(put_place(7, "gym").status, net::kStatusCreated);
  const std::string original = client_->send(request(Method::Get, path)).body.dump();

  // Idempotent re-PUT: identical stored state, identical bytes.
  ASSERT_EQ(put_place(7, "gym").status, net::kStatusCreated);
  EXPECT_EQ(client_->send(request(Method::Get, path)).body.dump(), original);

  // Different content, different bytes...
  ASSERT_EQ(put_place(7, "pool").status, net::kStatusCreated);
  const std::string changed = client_->send(request(Method::Get, path)).body.dump();
  EXPECT_NE(changed, original);

  // ...and restoring the original write restores the original bytes.
  ASSERT_EQ(put_place(7, "gym").status, net::kStatusCreated);
  EXPECT_EQ(client_->send(request(Method::Get, path)).body.dump(), original);
}

// The device cache may stand in for a discover round trip only because the
// cloud answers an unchanged movement graph with identical bytes.
TEST_F(ConditionalFixture, CacheOffRecomputesEveryDiscover) {
  start();
  auto cell = [](std::uint32_t cid) {
    world::CellId c;
    c.mcc = 262;
    c.mnc = 1;
    c.lac = 7;
    c.cid = cid;
    return c;
  };
  std::vector<algorithms::CellObservation> run;
  for (int m = 0; m < 120; ++m)
    run.push_back({minutes(m), cell(m % 2 == 0 ? 10 : 11)});
  const Json observations = core::observations_to_json(run);
  std::string body;
  for (int round = 0; round < 3; ++round) {
    HttpRequest req = request(Method::Post, "/api/places/discover");
    req.body = Json::object();
    req.body.set("observations", observations);
    const HttpResponse res = client_->send(req);
    ASSERT_EQ(res.status, net::kStatusOk);
    if (body.empty())
      body = res.body.dump();
    else
      EXPECT_EQ(res.body.dump(), body);  // every recompute, same bytes
  }
}

// --- Device GCA result cache ----------------------------------------------

/// One registered PMS against an in-process cloud, after one simulated day
/// (which ends with a housekeeping GCA pass).
class PmsGcaCache : public ::testing::Test {
 protected:
  void start(bool cache) {
    telemetry::registry().reset();
    Rng world_rng(1);
    world_ = world::generate_world(world::WorldConfig{}, world_rng);
    Rng participants_rng(2);
    participants_ = mobility::make_participants(*world_, 1, participants_rng);
    Rng trace_rng(5);
    mobility::ScheduleConfig schedule;
    schedule.days = 2;
    trace_.emplace(mobility::build_trace(*world_, participants_[0], schedule,
                                         trace_rng));
    cloud_.emplace(cloud::CloudConfig{},
                   cloud::GeoLocationService(world_->cell_location_db()),
                   Rng(3));
    auto device = std::make_unique<sensing::Device>(
        world_, sensing::oracle_from_trace(*trace_), sensing::DeviceConfig{},
        Rng(7));
    auto client = std::make_unique<net::RestClient>(
        &cloud_->router(), net::NetworkConditions{0.0, 1}, Rng(11));
    core::PmsConfig config;
    config.cache = cache;
    pms_.emplace(std::move(device), config, std::move(client), Rng(13));
    ASSERT_TRUE(pms_->register_with_cloud(0));
    pms_->run(TimeWindow{0, days(1)});
  }

  /// Discover requests the cloud has answered.
  static std::uint64_t discovers() {
    return telemetry::registry().counter_value(
        "cloud_requests_total", {{"method", "POST"},
                                 {"route", "/api/places/discover"},
                                 {"status", "200"}});
  }

  std::shared_ptr<const world::World> world_;
  std::vector<mobility::Participant> participants_;
  std::optional<mobility::Trace> trace_;
  std::optional<cloud::CloudInstance> cloud_;
  std::optional<core::PmwareMobileService> pms_;
};

TEST_F(PmsGcaCache, UnchangedLogIsServedWithoutOffloading) {
  start(true);
  ASSERT_GE(discovers(), 1u);
  const std::uint64_t requests = discovers();
  const std::uint64_t hits = outcome_count("pms_gca", "local_hit");
  pms_->inference().recluster(days(1));
  EXPECT_EQ(discovers(), requests);
  EXPECT_EQ(outcome_count("pms_gca", "local_hit"), hits + 1);
}

TEST_F(PmsGcaCache, AppendedObservationOffloadsAgain) {
  start(true);
  const std::size_t logged = pms_->inference().gsm_log().size();
  pms_->run(TimeWindow{days(1), days(1) + minutes(1)});
  ASSERT_EQ(pms_->inference().gsm_log().size(), logged + 1);
  const std::uint64_t requests = discovers();
  const std::uint64_t recomputes = outcome_count("pms_gca", "recompute");
  pms_->inference().recluster(days(1) + minutes(1));
  EXPECT_EQ(discovers(), requests + 1);
  EXPECT_EQ(outcome_count("pms_gca", "recompute"), recomputes + 1);
  EXPECT_EQ(outcome_count("pms_gca", "local_hit"), 0u);
}

TEST_F(PmsGcaCache, CacheOffOffloadsEveryPass) {
  start(false);
  for (int pass = 0; pass < 3; ++pass) {
    const std::uint64_t requests = discovers();
    pms_->inference().recluster(days(1));
    EXPECT_EQ(discovers(), requests + 1) << "pass " << pass;
  }
  for (const char* outcome : {"local_hit", "recompute", "miss"})
    EXPECT_EQ(outcome_count("pms_gca", outcome), 0u) << outcome;
}

// --- Cache-on/off study equivalence ---------------------------------------

/// Science results and stored cloud bytes must be independent of caching;
/// traffic counters legitimately differ (that's the savings), so this is
/// the `network_counters = false` comparison from test_study.cpp.
void expect_equivalent(const study::StudyResult& a, const study::StudyResult& b,
                       const std::string& what) {
  SCOPED_TRACE(what);
  ASSERT_EQ(a.participants.size(), b.participants.size());
  for (std::size_t i = 0; i < a.participants.size(); ++i) {
    const study::ParticipantResult& pa = a.participants[i];
    const study::ParticipantResult& pb = b.participants[i];
    EXPECT_EQ(pa.places_discovered, pb.places_discovered);
    EXPECT_EQ(pa.places_tagged, pb.places_tagged);
    EXPECT_EQ(pa.places_evaluable, pb.places_evaluable);
    EXPECT_EQ(pa.eval.outcomes, pb.eval.outcomes);
    EXPECT_EQ(pa.ad_likes, pb.ad_likes);
    EXPECT_EQ(pa.ad_dislikes, pb.ad_dislikes);
    EXPECT_EQ(pa.sensing_joules, pb.sensing_joules);  // bitwise
  }
  ASSERT_EQ(a.place_map.size(), b.place_map.size());
  for (std::size_t i = 0; i < a.place_map.size(); ++i) {
    EXPECT_EQ(a.place_map[i].uid, b.place_map[i].uid);
    EXPECT_EQ(a.place_map[i].label, b.place_map[i].label);
    EXPECT_EQ(a.place_map[i].location, b.place_map[i].location);
  }
  EXPECT_EQ(a.storage_stats, b.storage_stats);
  EXPECT_EQ(a.storage_digest, b.storage_digest);
}

TEST(CacheStudy, CachingNeverChangesResultsAcrossShardsAndThreads) {
  study::StudyConfig base;
  base.participants = 3;
  base.days = 4;
  base.cache = false;
  base.shards = 1;
  base.threads = 1;
  const study::StudyResult baseline = study::DeploymentStudy(base).run();
  EXPECT_NE(baseline.storage_digest, 0u);

  for (const int shards : {1, 16}) {
    for (const int threads : {1, 8}) {
      study::StudyConfig config = base;
      config.cache = true;
      config.shards = shards;
      config.threads = threads;
      const study::StudyResult run = study::DeploymentStudy(config).run();
      expect_equivalent(baseline, run,
                        "cache=on shards=" + std::to_string(shards) +
                            " threads=" + std::to_string(threads) +
                            " vs cache=off shards=1 threads=1");
    }
  }
}

TEST(CacheStudy, CachedStudyEquivalentUnderFaultPlan) {
  // The device GCA cache, retries, the outbox, and injected faults all
  // composed: the cached faulted run must still converge to the cache-off
  // no-fault bytes once the outbox drains.
  study::StudyConfig base;
  base.participants = 3;
  base.days = 6;
  base.cache = false;
  const study::StudyResult baseline = study::DeploymentStudy(base).run();

  study::StudyConfig faulted = base;
  faulted.cache = true;
  faulted.fault_plan = net::FaultPlan::parse("outage=2d..3d");
  const study::StudyResult run = study::DeploymentStudy(faulted).run();
  expect_equivalent(baseline, run, "cache=on outage=2d..3d vs cache=off");
}

}  // namespace
}  // namespace pmware
