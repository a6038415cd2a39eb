// Failure-injection and noise-sweep tests: the middleware must degrade
// gracefully, not collapse, as the environment gets hostile.
#include <gtest/gtest.h>

#include <sstream>

#include "algorithms/evaluate.hpp"
#include "cache/digest.hpp"
#include "cloud/cloud_instance.hpp"
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

TEST(Robustness, DeeplyNestedCheckpointSectionFallsBackToColdRestart) {
  Rng world_rng(1);
  auto world = world::generate_world(world::WorldConfig{}, world_rng);
  Rng prng(2);
  auto participants = mobility::make_participants(*world, 1, prng);
  Rng trng(5);
  mobility::ScheduleConfig sc;
  sc.days = 1;
  const mobility::Trace trace =
      mobility::build_trace(*world, participants[0], sc, trng);
  cloud::CloudInstance cloud(cloud::CloudConfig{},
                             cloud::GeoLocationService(world->cell_location_db()),
                             Rng(3));
  const auto boot = [&](std::uint64_t salt) {
    auto device = std::make_unique<sensing::Device>(
        world, sensing::oracle_from_trace(trace), sensing::DeviceConfig{},
        Rng(salt));
    auto client = std::make_unique<net::RestClient>(
        &cloud.router(), net::NetworkConditions{0.0, 1}, Rng(salt + 1));
    return std::make_unique<core::PmwareMobileService>(
        std::move(device), core::PmsConfig{}, std::move(client),
        Rng(salt + 2));
  };
  const auto pms = boot(7);
  ASSERT_TRUE(pms->register_with_cloud(0));
  pms->run(TimeWindow{0, days(1)});
  std::ostringstream saved;
  pms->save(saved);

  // Re-seals a checkpoint body under a fresh manifest, so it passes the
  // length and digest checks and only the section parse can reject it.
  std::vector<std::string> lines;
  std::istringstream in(saved.str());
  for (std::string line; std::getline(in, line);) lines.push_back(line);
  const auto sealed = [&](const std::string& scalars) {
    std::string body;
    for (std::size_t i = 1; i < lines.size(); ++i) {
      const bool payload =
          lines[i - 1].find("\"section\":\"scalars\"") != std::string::npos;
      body += (payload && !scalars.empty() ? scalars : lines[i]) + "\n";
    }
    Json manifest = Json::parse(lines.at(0));
    manifest.set("digest", strfmt("%016llx", static_cast<unsigned long long>(
                                                 cache::fnv1a(body))));
    return manifest.dump() + "\n" + body;
  };
  std::istringstream resealed(sealed(""));
  EXPECT_TRUE(boot(17)->restore(resealed));

  std::istringstream deep(sealed(std::string(1000000, '[') +
                                 std::string(1000000, ']')));
  const auto reboot = boot(27);
  EXPECT_FALSE(reboot->restore(deep));
  EXPECT_TRUE(reboot->cold_restart(days(1)));
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

}  // namespace
}  // namespace pmware
