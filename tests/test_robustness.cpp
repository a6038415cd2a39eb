// Failure-injection and noise-sweep tests: the middleware must degrade
// gracefully, not collapse, as the environment gets hostile.
#include <gtest/gtest.h>

#include <memory>
#include <span>
#include <sstream>
#include <utility>
#include <vector>

#include "algorithms/evaluate.hpp"
#include "cache/digest.hpp"
#include "cloud/cloud_instance.hpp"
#include "core/codec.hpp"
#include "core/pms.hpp"
#include "mobility/participant.hpp"
#include "mobility/schedule.hpp"
#include "telemetry/metrics.hpp"
#include "util/strfmt.hpp"

namespace pmware {
namespace {

struct RunOutcome {
  std::size_t visits = 0;
  std::size_t places = 0;
  std::size_t profile_syncs = 0;
  std::size_t gca_offloads = 0;
  std::size_t gca_local = 0;
  double correct_fraction = 0;
};

RunOutcome run_once(net::NetworkConditions network,
                    sensing::DeviceConfig device_config, int days_n = 3,
                    std::uint64_t seed = 1) {
  Rng rng(seed);
  Rng world_rng = rng.fork(1);
  world::WorldConfig wc;
  auto world = world::generate_world(wc, world_rng);
  Rng prng = rng.fork(2);
  auto participants = mobility::make_participants(*world, 1, prng);
  Rng trng = rng.fork(3);
  mobility::ScheduleConfig sc;
  sc.days = days_n;
  const mobility::Trace trace =
      mobility::build_trace(*world, participants[0], sc, trng);

  cloud::CloudInstance cloud(cloud::CloudConfig{},
                             cloud::GeoLocationService(world->cell_location_db()),
                             rng.fork(4));
  auto device = std::make_unique<sensing::Device>(
      world, sensing::oracle_from_trace(trace), device_config, rng.fork(5));
  auto client = std::make_unique<net::RestClient>(&cloud.router(), network,
                                                  rng.fork(6));
  core::PmwareMobileService pms(std::move(device), core::PmsConfig{},
                                std::move(client), rng.fork(7));
  core::PlaceAlertRequest request;
  request.app = "robustness";
  request.granularity = core::Granularity::Building;
  pms.apps().register_place_alerts(request);
  pms.register_with_cloud(0);
  pms.run(TimeWindow{0, days(days_n)});
  pms.shutdown(days(days_n));

  std::vector<algorithms::TruthVisit> truth;
  for (const auto& v : trace.significant_visits(minutes(10)))
    truth.push_back({v.place, v.window});
  std::vector<algorithms::ReportedVisit> reported;
  std::set<core::PlaceUid> distinct;
  for (const auto& v : pms.inference().visit_log()) {
    reported.push_back({static_cast<std::size_t>(v.uid), v.window});
    distinct.insert(v.uid);
  }
  const auto eval = algorithms::evaluate_discovered(truth, reported);

  RunOutcome outcome;
  outcome.visits = reported.size();
  outcome.places = distinct.size();
  outcome.profile_syncs = pms.stats().profile_syncs;
  outcome.gca_offloads = pms.stats().gca_offloads;
  outcome.gca_local = pms.stats().gca_local_runs;
  outcome.correct_fraction =
      eval.fraction(algorithms::DiscoveredOutcome::Correct);
  return outcome;
}

class NetworkLossSweep : public ::testing::TestWithParam<double> {};

TEST_P(NetworkLossSweep, DiscoveryUnaffectedByNetworkLoss) {
  // The network only carries offloading and sync; place discovery itself
  // must keep working at any loss rate (local GCA fallback).
  const RunOutcome outcome =
      run_once(net::NetworkConditions{GetParam(), 1}, sensing::DeviceConfig{});
  EXPECT_GE(outcome.places, 2u);
  EXPECT_GE(outcome.visits, 4u);
  EXPECT_GT(outcome.correct_fraction, 0.4);
  EXPECT_GE(outcome.gca_offloads + outcome.gca_local, 3u);
}

INSTANTIATE_TEST_SUITE_P(LossRates, NetworkLossSweep,
                         ::testing::Values(0.0, 0.1, 0.3, 0.6, 1.0));

TEST(NetworkLoss, TotalLossMeansLocalOnly) {
  const RunOutcome outcome =
      run_once(net::NetworkConditions{1.0, 0}, sensing::DeviceConfig{});
  EXPECT_EQ(outcome.gca_offloads, 0u);
  EXPECT_GE(outcome.gca_local, 3u);
  EXPECT_EQ(outcome.profile_syncs, 0u);
}

TEST(NetworkLoss, ModerateLossStillSyncsEventually) {
  // With retries, 30% loss should still land most profile syncs.
  const RunOutcome outcome =
      run_once(net::NetworkConditions{0.3, 1}, sensing::DeviceConfig{});
  EXPECT_GE(outcome.profile_syncs, 3u);
}

class FadingSweep : public ::testing::TestWithParam<double> {};

TEST_P(FadingSweep, DiscoverySurvivesRssiNoise) {
  sensing::DeviceConfig config;
  config.fading_sigma_db = GetParam();
  const RunOutcome outcome = run_once(net::NetworkConditions{}, config);
  EXPECT_GE(outcome.places, 2u);
  EXPECT_GT(outcome.correct_fraction, 0.3);
}

INSTANTIATE_TEST_SUITE_P(Sigmas, FadingSweep,
                         ::testing::Values(1.0, 3.0, 5.0, 8.0));

class WifiMissSweep : public ::testing::TestWithParam<double> {};

TEST_P(WifiMissSweep, DiscoverySurvivesBeaconLoss) {
  sensing::DeviceConfig config;
  config.wifi_miss_prob = GetParam();
  const RunOutcome outcome = run_once(net::NetworkConditions{}, config);
  EXPECT_GE(outcome.places, 2u);
  EXPECT_GE(outcome.visits, 4u);
}

INSTANTIATE_TEST_SUITE_P(MissRates, WifiMissSweep,
                         ::testing::Values(0.0, 0.2, 0.4));

class ActivityErrorSweep : public ::testing::TestWithParam<double> {};

TEST_P(ActivityErrorSweep, TriggersSurviveAccelMisclassification) {
  sensing::DeviceConfig config;
  config.activity_error_prob = GetParam();
  const RunOutcome outcome = run_once(net::NetworkConditions{}, config);
  // Misclassified activity wastes some scans but must not kill discovery.
  EXPECT_GE(outcome.places, 2u);
}

INSTANTIATE_TEST_SUITE_P(ErrorRates, ActivityErrorSweep,
                         ::testing::Values(0.0, 0.1, 0.25));

class EndToEndSeedSweep : public ::testing::TestWithParam<std::uint64_t> {};

TEST_P(EndToEndSeedSweep, InvariantsHoldForAnySeed) {
  const RunOutcome outcome = run_once(net::NetworkConditions{0.05, 1},
                                      sensing::DeviceConfig{}, 3, GetParam());
  // Structural invariants that must hold regardless of randomness:
  EXPECT_GE(outcome.places, 1u);
  EXPECT_GE(outcome.visits, outcome.places);
  EXPECT_GE(outcome.gca_offloads + outcome.gca_local, 3u);
}

INSTANTIATE_TEST_SUITE_P(Seeds, EndToEndSeedSweep,
                         ::testing::Values(2ULL, 3ULL, 5ULL, 8ULL, 13ULL));

TEST(Robustness, VisitLogNeverOverlapsUnderStress) {
  sensing::DeviceConfig noisy;
  noisy.fading_sigma_db = 6;
  noisy.wifi_miss_prob = 0.3;
  noisy.activity_error_prob = 0.15;
  Rng rng(77);
  Rng world_rng = rng.fork(1);
  world::WorldConfig wc;
  auto world = world::generate_world(wc, world_rng);
  Rng prng = rng.fork(2);
  auto participants = mobility::make_participants(*world, 1, prng);
  Rng trng = rng.fork(3);
  mobility::ScheduleConfig sc;
  sc.days = 4;
  const mobility::Trace trace =
      mobility::build_trace(*world, participants[0], sc, trng);
  auto device = std::make_unique<sensing::Device>(
      world, sensing::oracle_from_trace(trace), noisy, rng.fork(4));
  core::PmwareMobileService pms(std::move(device), core::PmsConfig{}, nullptr,
                                rng.fork(5));
  core::PlaceAlertRequest request;
  request.app = "x";
  pms.apps().register_place_alerts(request);
  pms.run(TimeWindow{0, days(4)});
  pms.shutdown(days(4));
  const auto& log = pms.inference().visit_log();
  for (std::size_t i = 1; i < log.size(); ++i)
    EXPECT_LE(log[i - 1].window.end, log[i].window.begin + 1);
  for (const auto& v : log) EXPECT_GE(v.window.length(), minutes(10));
}

// Checkpoint restore parses untrusted bytes: nesting depth must come back
// as a JsonError, never as a stack overflow.
TEST(Robustness, DeeplyNestedJsonThrowsJsonError) {
  const auto arrays = [](std::size_t depth) {
    return std::string(depth, '[') + std::string(depth, ']');
  };
  const auto limit = static_cast<std::size_t>(Json::kMaxParseDepth);
  EXPECT_NO_THROW(Json::parse(arrays(limit)));
  EXPECT_THROW(Json::parse(arrays(limit + 1)), JsonError);
  EXPECT_THROW(Json::parse(arrays(1000000)), JsonError);
  std::string objects;
  for (int i = 0; i < 100000; ++i) objects += "{\"a\":";
  objects += "1" + std::string(100000, '}');
  EXPECT_THROW(Json::parse(objects), JsonError);
}

/// One registered PMS after a simulated day against an in-process cloud,
/// and the checkpoint it saved. `boot` makes a fresh service for the same
/// participant; `sealed` re-seals the checkpoint body under a fresh
/// manifest with the scalars line replaced, so it passes the length and
/// digest checks and only the section contents can reject it.
class CheckpointRig {
 public:
  CheckpointRig() {
    const auto pms = boot(7);
    EXPECT_TRUE(pms->register_with_cloud(0));
    pms->run(TimeWindow{0, days(1)});
    std::ostringstream saved;
    pms->save(saved);
    std::istringstream in(saved.str());
    for (std::string line; std::getline(in, line);) lines_.push_back(line);
  }

  std::unique_ptr<core::PmwareMobileService> boot(std::uint64_t salt) {
    auto device = std::make_unique<sensing::Device>(
        world_, sensing::oracle_from_trace(trace_), sensing::DeviceConfig{},
        Rng(salt));
    auto client = std::make_unique<net::RestClient>(
        &cloud_.router(), net::NetworkConditions{0.0, 1}, Rng(salt + 1));
    return std::make_unique<core::PmwareMobileService>(
        std::move(device), core::PmsConfig{}, std::move(client),
        Rng(salt + 2));
  }

  /// The saved scalars line.
  Json scalars() const {
    for (std::size_t i = 1; i < lines_.size(); ++i)
      if (is_scalars_header(lines_[i - 1])) return Json::parse(lines_[i]);
    ADD_FAILURE() << "checkpoint has no scalars section";
    return Json::object();
  }

  /// The checkpoint with its scalars line replaced by `scalars` (kept when
  /// empty), re-sealed.
  std::string sealed(const std::string& scalars) const {
    std::string body;
    for (std::size_t i = 1; i < lines_.size(); ++i) {
      const bool payload = is_scalars_header(lines_[i - 1]);
      body += (payload && !scalars.empty() ? scalars : lines_[i]) + "\n";
    }
    Json manifest = Json::parse(lines_.at(0));
    manifest.set("digest", strfmt("%016llx", static_cast<unsigned long long>(
                                                 cache::fnv1a(body))));
    return manifest.dump() + "\n" + body;
  }

 private:
  static bool is_scalars_header(const std::string& line) {
    return line.find("\"section\":\"scalars\"") != std::string::npos;
  }

  static std::shared_ptr<const world::World> make_world() {
    Rng world_rng(1);
    return world::generate_world(world::WorldConfig{}, world_rng);
  }

  static mobility::Trace make_trace(const world::World& world) {
    Rng prng(2);
    auto participants = mobility::make_participants(world, 1, prng);
    Rng trng(5);
    mobility::ScheduleConfig sc;
    sc.days = 2;
    return mobility::build_trace(world, participants[0], sc, trng);
  }

  std::shared_ptr<const world::World> world_ = make_world();
  mobility::Trace trace_ = make_trace(*world_);
  cloud::CloudInstance cloud_{
      cloud::CloudConfig{},
      cloud::GeoLocationService(world_->cell_location_db()), Rng(3)};
  std::vector<std::string> lines_;
};

TEST(Robustness, DeeplyNestedCheckpointSectionFallsBackToColdRestart) {
  CheckpointRig rig;
  std::istringstream resealed(rig.sealed(""));
  EXPECT_TRUE(rig.boot(17)->restore(resealed));

  std::istringstream deep(rig.sealed(std::string(1000000, '[') +
                                     std::string(1000000, ']')));
  const auto reboot = rig.boot(27);
  EXPECT_FALSE(reboot->restore(deep));
  EXPECT_TRUE(reboot->cold_restart(days(1)));
}

// A checkpoint can claim more of the GSM log acknowledged by the cloud than
// the log holds. The next offload must not slice past the log's end: it
// starts the suffix bookkeeping over and still offloads.
TEST(Robustness, CorruptUploadAckedCheckpointStillOffloads) {
  CheckpointRig rig;
  Json scalars = rig.scalars();
  ASSERT_TRUE(scalars.contains("upload_acked"));
  scalars.set("upload_acked", static_cast<std::int64_t>(1) << 40);
  std::istringstream corrupt(rig.sealed(scalars.dump()));
  const auto pms = rig.boot(37);
  ASSERT_TRUE(pms->restore(corrupt));
  const auto offloads = [] {
    return telemetry::registry().family_total("pms_gca_offloads_total");
  };
  const auto before = offloads();
  ASSERT_TRUE(pms->register_with_cloud(days(1)));
  pms->run(TimeWindow{days(1), days(2)});
  EXPECT_GT(offloads(), before);
}

// Wire bodies are untrusted input too: a body missing a required field
// must come back as a 400 through the router's observer, never as an
// exception thrown into the caller.
TEST(Robustness, MalformedWireBodiesAreBadRequests) {
  cloud::CloudInstance cloud(cloud::CloudConfig{},
                             cloud::GeoLocationService({}), Rng(1));
  net::HttpRequest reg;
  reg.method = net::Method::Post;
  reg.path = "/api/register";
  reg.body = Json::object();
  reg.body.set("imei", "111");
  reg.body.set("email", "a@b.c");
  const net::HttpResponse registered = cloud.router().handle(reg);
  ASSERT_EQ(registered.status, net::kStatusCreated);
  const auto user = registered.body.at("user").as_int();
  const std::string token = registered.body.at("token").as_string();

  const auto post = [&](const std::string& path, const std::string& body) {
    net::HttpRequest req;
    req.method = net::Method::Post;
    req.path = path;
    req.headers["Authorization"] = "Bearer " + token;
    req.body = Json::parse(body);
    return cloud.router().handle(req);
  };
  const auto bad_requests = [](const char* route) {
    return telemetry::registry().counter_value(
        "cloud_requests_total",
        {{"method", "POST"}, {"route", route}, {"status", "400"}});
  };
  const std::string routes = strfmt("/api/users/%lld/routes",
                                    static_cast<long long>(user));
  const std::string contacts = strfmt("/api/users/%lld/contacts",
                                      static_cast<long long>(user));
  const auto before_discover = bad_requests("/api/places/discover");
  const auto before_routes = bad_requests("/api/users/:id/routes");
  const auto before_contacts = bad_requests("/api/users/:id/contacts");

  net::HttpResponse response;
  ASSERT_NO_THROW(response = post("/api/places/discover", "{}"));
  EXPECT_EQ(response.status, net::kStatusBadRequest);
  ASSERT_NO_THROW(
      response = post(routes, R"({"cells":[{"t":0,"cell":)"
                              R"({"mnc":10,"lac":1,"cid":9,"radio":"2g"}}]})"));
  EXPECT_EQ(response.status, net::kStatusBadRequest);
  ASSERT_NO_THROW(response = post(contacts, R"({"first_index":0})"));
  EXPECT_EQ(response.status, net::kStatusBadRequest);
  EXPECT_TRUE(response.body.contains("error"));

  EXPECT_EQ(bad_requests("/api/places/discover"), before_discover + 1);
  EXPECT_EQ(bad_requests("/api/users/:id/routes"), before_routes + 1);
  EXPECT_EQ(bad_requests("/api/users/:id/contacts"), before_contacts + 1);
}

// The discover decoder reads untrusted columns. Every malformed body must
// answer 400 and be counted, and none may be half-applied: the retained
// stream and its digest stay exactly as they were, on the suffix path and
// on the full-replacement path alike, and a valid suffix still applies.
TEST(Robustness, MalformedDiscoverBodiesAreRejectedWhole) {
  cloud::CloudInstance cloud(cloud::CloudConfig{},
                             cloud::GeoLocationService({}), Rng(1));
  net::HttpRequest reg;
  reg.method = net::Method::Post;
  reg.path = "/api/register";
  reg.body = Json::object();
  reg.body.set("imei", "222");
  reg.body.set("email", "d@e.f");
  const net::HttpResponse registered = cloud.router().handle(reg);
  ASSERT_EQ(registered.status, net::kStatusCreated);
  const auto user =
      static_cast<world::DeviceId>(registered.body.at("user").as_int());
  const std::string token = registered.body.at("token").as_string();
  const auto discover = [&](Json body) {
    net::HttpRequest req;
    req.method = net::Method::Post;
    req.path = "/api/places/discover";
    req.headers["Authorization"] = "Bearer " + token;
    req.body = std::move(body);
    return cloud.router().handle(req);
  };
  const auto bad_requests = [] {
    return telemetry::registry().counter_value(
        "cloud_requests_total", {{"method", "POST"},
                                 {"route", "/api/places/discover"},
                                 {"status", "400"}});
  };

  std::vector<algorithms::CellObservation> stream;
  for (int i = 0; i < 240; ++i)
    stream.push_back({i * 60, world::CellId{404, 10, 7,
                                            static_cast<std::uint32_t>(
                                                100 + (i / 20) % 4),
                                            world::Radio::Gsm2G}});
  const std::span<const algorithms::CellObservation> all(stream);
  const auto prefix = all.first(120);
  const auto suffix = all.subspan(120);
  const auto with_prefix = [&](Json observations) {
    Json body = Json::object();
    body.set("observations", std::move(observations));
    body.set("prefix_len", static_cast<std::int64_t>(prefix.size()));
    body.set("prefix_digest",
             core::digest_to_hex(core::movement_digest(prefix)));
    return body;
  };
  Json first = Json::object();
  first.set("observations", core::observations_to_json(prefix));
  ASSERT_EQ(discover(std::move(first)).status, net::kStatusOk);
  const auto retained = [&] {
    const auto locked = cloud.storage().locked_user(user);
    return std::make_pair(locked->gca_log.size(), locked->gca_log_digest);
  };
  const auto before = retained();
  ASSERT_EQ(before,
            std::make_pair(prefix.size(), core::movement_digest(prefix)));

  // Each case rewrites one part of the valid suffix's columns.
  const Json good = core::observations_to_json(suffix);
  const auto column = [&](const char* name) {
    return good.at(name).as_array();
  };
  const auto replaced = [&](const char* name, Json value) {
    Json j = good;
    j.set(name, std::move(value));
    return j;
  };
  const auto without = [&](const char* name) {
    Json::Object o = good.as_object();
    o.erase(name);
    return Json(std::move(o));
  };
  const auto index_set_to = [&](Json value) {
    Json::Array c = column("c");
    c[7] = std::move(value);
    return replaced("c", std::move(c));
  };
  const auto cell_field_set_to = [&](const char* field, double value) {
    Json::Array cells = column("cells");
    cells[1].set(field, value);
    return replaced("cells", std::move(cells));
  };
  Json::Array short_c = column("c");
  short_c.pop_back();
  const std::vector<std::pair<std::string, Json>> cases = {
      {"t/c length mismatch", replaced("c", std::move(short_c))},
      {"index past cells",
       index_set_to(static_cast<std::int64_t>(column("cells").size()))},
      {"negative index", index_set_to(-1)},
      {"index 1e300", index_set_to(1e300)},
      {"index as string", index_set_to("0")},
      {"cells not an array", replaced("cells", Json::object())},
      {"missing t", without("t")},
      {"missing c", without("c")},
      {"missing cells", without("cells")},
      {"cid past 2^32-1", cell_field_set_to("cid", 0x1p32)},
      {"lac past 65535", cell_field_set_to("lac", 65536)},
      {"negative mcc", cell_field_set_to("mcc", -1)},
  };
  for (const auto& [name, observations] : cases) {
    SCOPED_TRACE(name);
    for (const bool suffix_upload : {true, false}) {
      Json body = Json::object();
      if (suffix_upload) {
        body = with_prefix(observations);
      } else {
        body.set("observations", observations);  // full replacement
      }
      const auto counted = bad_requests();
      net::HttpResponse response;
      ASSERT_NO_THROW(response = discover(std::move(body)));
      EXPECT_EQ(response.status, net::kStatusBadRequest);
      EXPECT_EQ(bad_requests(), counted + 1);
      EXPECT_EQ(retained(), before);
    }
  }

  ASSERT_EQ(discover(with_prefix(good)).status, net::kStatusOk);
  EXPECT_EQ(retained(), std::make_pair(all.size(), core::movement_digest(all)));
}

// Integer path parameters are parsed whole and range-checked like
// cell_from_json's fields: trailing junk ("1x" is not user 1), a value past
// the field's type (mcc 70000 must not wrap to 4464) or a negative field
// (cid -1 must not wrap to 2^32-1) answers 400, is counted under the route
// pattern, and stores nothing. The geo database holds the wrapped cells, so
// a wrapping parse would answer 200.
TEST(Robustness, MalformedPathIntegersAnswer400AndStoreNothing) {
  const world::CellId wrapped_mcc{4464, 1, 1, 1, world::Radio::Gsm2G};
  const world::CellId wrapped_cid{1, 1, 1, 0xFFFFFFFFu, world::Radio::Gsm2G};
  cloud::CloudInstance cloud(
      cloud::CloudConfig{},
      cloud::GeoLocationService({{wrapped_mcc, {1, 2}}, {wrapped_cid, {3, 4}}}),
      Rng(1));
  net::HttpRequest reg;
  reg.method = net::Method::Post;
  reg.path = "/api/register";
  reg.body = Json::object();
  reg.body.set("imei", "333");
  reg.body.set("email", "g@h.i");
  const net::HttpResponse registered = cloud.router().handle(reg);
  ASSERT_EQ(registered.status, net::kStatusCreated);
  const auto user =
      static_cast<world::DeviceId>(registered.body.at("user").as_int());
  const std::string token = registered.body.at("token").as_string();
  const auto send = [&](net::Method method, const std::string& path,
                        Json body) {
    net::HttpRequest req;
    req.method = method;
    req.path = path;
    req.headers["Authorization"] = "Bearer " + token;
    req.body = std::move(body);
    return cloud.router().handle(req);
  };
  const auto bad_requests = [](const char* method, const char* route) {
    return telemetry::registry().counter_value(
        "cloud_requests_total",
        {{"method", method}, {"route", route}, {"status", "400"}});
  };
  const auto stored = [&] {
    const auto locked = cloud.storage().locked_user(user);
    return std::make_pair(locked->places.size(), locked->profiles.size());
  };
  const std::string users = strfmt("/api/users/%u", user);
  core::PlaceRecord record;
  record.uid = 5;
  record.signature = algorithms::WifiSignature{{1, 2}};
  core::MobilityProfile profile;
  profile.day = 3;

  const char* kPlace = "/api/users/:id/places/:uid";
  const char* kProfile = "/api/users/:id/profiles/:day";
  const char* kCell = "/api/geo/cell/:mcc/:mnc/:lac/:cid";
  const auto place_400 = bad_requests("PUT", kPlace);
  const auto profile_400 = bad_requests("PUT", kProfile);
  const auto cell_400 = bad_requests("GET", kCell);

  const std::vector<std::string> bad_places = {
      users + "x/places/5",                           // :id
      users + "/places/5x",                           // :uid
      users + "/places/-5",
      users + "/places/18446744073709551616",         // 2^64
  };
  for (const std::string& path : bad_places) {
    SCOPED_TRACE(path);
    EXPECT_EQ(send(net::Method::Put, path, core::to_json(record)).status,
              net::kStatusBadRequest);
  }
  const std::vector<std::string> bad_days = {
      users + "/profiles/3x", users + "/profiles/ 3",
      users + "/profiles/9223372036854775808"};       // 2^63
  for (const std::string& path : bad_days) {
    SCOPED_TRACE(path);
    EXPECT_EQ(send(net::Method::Put, path, core::to_json(profile)).status,
              net::kStatusBadRequest);
  }
  const std::vector<std::string> bad_cells = {
      "/api/geo/cell/70000/1/1/1", "/api/geo/cell/1/1/1/-1",
      "/api/geo/cell/1/1/1/4294967296", "/api/geo/cell/1x/1/1/1"};
  for (const std::string& path : bad_cells) {
    SCOPED_TRACE(path);
    EXPECT_EQ(send(net::Method::Get, path, Json()).status,
              net::kStatusBadRequest);
  }
  EXPECT_EQ(bad_requests("PUT", kPlace), place_400 + bad_places.size());
  EXPECT_EQ(bad_requests("PUT", kProfile), profile_400 + bad_days.size());
  EXPECT_EQ(bad_requests("GET", kCell), cell_400 + bad_cells.size());
  EXPECT_EQ(stored(), std::make_pair(std::size_t{0}, std::size_t{0}));

  // The same routes with well-formed integers are served.
  EXPECT_EQ(send(net::Method::Put, users + "/places/5", core::to_json(record))
                .status,
            net::kStatusCreated);
  EXPECT_EQ(send(net::Method::Put, users + "/profiles/3",
                 core::to_json(profile))
                .status,
            net::kStatusCreated);
  EXPECT_EQ(send(net::Method::Get, "/api/geo/cell/4464/1/1/1", Json()).status,
            net::kStatusOk);
  EXPECT_EQ(stored(), std::make_pair(std::size_t{1}, std::size_t{1}));
}

}  // namespace
}  // namespace pmware
