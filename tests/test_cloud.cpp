#include "cloud/cloud_instance.hpp"

#include <gtest/gtest.h>

#include <map>
#include <set>

#include "core/codec.hpp"
#include "net/client.hpp"
#include "telemetry/export.hpp"
#include "telemetry/log.hpp"
#include "telemetry/metrics.hpp"
#include "telemetry/trace.hpp"

namespace pmware::cloud {
namespace {

using net::HttpRequest;
using net::HttpResponse;
using net::Method;

class CloudFixture : public ::testing::Test {
 protected:
  CloudFixture()
      : cloud_(CloudConfig{}, GeoLocationService({}), Rng(1)) {}

  HttpRequest request(Method method, std::string path, SimTime now = 0) {
    HttpRequest req;
    req.method = method;
    req.path = std::move(path);
    req.headers[CloudInstance::kSimTimeHeader] = std::to_string(now);
    if (!token_.empty()) req.headers["Authorization"] = "Bearer " + token_;
    return req;
  }

  /// Registers a device; stores the token for subsequent requests.
  world::DeviceId register_device(const std::string& imei = "111",
                                  const std::string& email = "a@b.c",
                                  SimTime now = 0) {
    HttpRequest req = request(Method::Post, "/api/register", now);
    req.headers.erase("Authorization");
    req.body = Json::object();
    req.body.set("imei", imei);
    req.body.set("email", email);
    const HttpResponse res = cloud_.router().handle(req);
    EXPECT_EQ(res.status, net::kStatusCreated);
    token_ = res.body.at("token").as_string();
    return static_cast<world::DeviceId>(res.body.at("user").as_int());
  }

  CloudInstance cloud_;
  std::string token_;
};

TEST_F(CloudFixture, RegistrationIssuesToken) {
  const world::DeviceId user = register_device();
  EXPECT_GE(user, 1u);
  EXPECT_FALSE(token_.empty());
  EXPECT_EQ(cloud_.tokens().registered_devices(), 1u);
}

TEST_F(CloudFixture, RegistrationRequiresImeiAndEmail) {
  HttpRequest req = request(Method::Post, "/api/register");
  req.body = Json::object();
  req.body.set("imei", "111");
  EXPECT_EQ(cloud_.router().handle(req).status, net::kStatusBadRequest);
}

TEST_F(CloudFixture, ReRegistrationIsIdempotentOnIdentity) {
  const world::DeviceId first = register_device("imei-x", "x@y.z");
  const world::DeviceId again = register_device("imei-x", "x@y.z");
  EXPECT_EQ(first, again);
  const world::DeviceId other = register_device("imei-y", "x@y.z");
  EXPECT_NE(first, other);
}

TEST_F(CloudFixture, EndpointsRejectMissingToken) {
  register_device();
  token_.clear();
  const HttpResponse res =
      cloud_.router().handle(request(Method::Get, "/api/users/1/places"));
  EXPECT_EQ(res.status, net::kStatusUnauthorized);
}

TEST_F(CloudFixture, EndpointsRejectForeignUser) {
  register_device();  // user 1 with our token
  const HttpResponse res =
      cloud_.router().handle(request(Method::Get, "/api/users/2/places"));
  EXPECT_EQ(res.status, net::kStatusUnauthorized);
}

TEST_F(CloudFixture, MetricsEndpointRequiresAuth) {
  register_device();
  token_.clear();
  const HttpResponse res =
      cloud_.router().handle(request(Method::Get, "/metrics"));
  EXPECT_EQ(res.status, net::kStatusUnauthorized);
}

TEST_F(CloudFixture, MetricsEndpointServesPrometheusText) {
  register_device();
  const HttpResponse res =
      cloud_.router().handle(request(Method::Get, "/metrics"));
  ASSERT_TRUE(res.ok());
  EXPECT_EQ(res.body.at("content_type").as_string(),
            "text/plain; version=0.0.4");
  const std::string& text = res.body.at("text").as_string();
  // The register request itself went through the observer, so the cloud's
  // own families are present in the scrape.
  EXPECT_NE(text.find("# TYPE cloud_requests_total counter"),
            std::string::npos);
  EXPECT_NE(text.find("# TYPE cloud_handler_wall_us histogram"),
            std::string::npos);
  EXPECT_NE(text.find("route=\"/api/register\""), std::string::npos);
}

TEST_F(CloudFixture, MetricsEndpointServesJsonFormat) {
  register_device();
  HttpRequest req = request(Method::Get, "/metrics");
  req.query["format"] = "json";
  const HttpResponse res = cloud_.router().handle(req);
  ASSERT_TRUE(res.ok());
  const Json& metrics = res.body.at("metrics");
  ASSERT_TRUE(metrics.contains("cloud_requests_total"));
  EXPECT_EQ(metrics.at("cloud_requests_total").at("kind").as_string(),
            "counter");
  EXPECT_GE(metrics.at("cloud_requests_total").at("series").size(), 1u);
}

TEST_F(CloudFixture, TokenExpiresAfterTtl) {
  register_device();
  const SimTime later = hours(29);  // past the 28h default TTL
  const HttpResponse res = cloud_.router().handle(
      request(Method::Get, "/api/users/1/places", later));
  EXPECT_EQ(res.status, net::kStatusUnauthorized);
}

TEST_F(CloudFixture, RefreshExtendsValidity) {
  register_device();
  HttpRequest refresh = request(Method::Post, "/api/token/refresh", hours(20));
  const HttpResponse res = cloud_.router().handle(refresh);
  ASSERT_TRUE(res.ok());
  token_ = res.body.at("token").as_string();
  const HttpResponse later = cloud_.router().handle(
      request(Method::Get, "/api/users/1/places", hours(30)));
  EXPECT_TRUE(later.ok());
}

TEST_F(CloudFixture, RefreshOfExpiredTokenFails) {
  register_device();
  const HttpResponse res = cloud_.router().handle(
      request(Method::Post, "/api/token/refresh", hours(48)));
  EXPECT_EQ(res.status, net::kStatusUnauthorized);
}

TEST_F(CloudFixture, OldTokenDiesAfterRefresh) {
  register_device();
  const std::string old_token = token_;
  const HttpResponse res = cloud_.router().handle(
      request(Method::Post, "/api/token/refresh", hours(1)));
  ASSERT_TRUE(res.ok());
  token_ = old_token;
  EXPECT_EQ(cloud_.router()
                .handle(request(Method::Get, "/api/users/1/places", hours(2)))
                .status,
            net::kStatusUnauthorized);
}

TEST_F(CloudFixture, PlaceSyncAndList) {
  const world::DeviceId user = register_device();
  core::PlaceRecord record;
  record.uid = 7;
  record.signature = algorithms::WifiSignature{{1, 2}};
  record.label = "home";
  HttpRequest put = request(Method::Put, "/api/users/1/places/7");
  put.body = core::to_json(record);
  ASSERT_EQ(cloud_.router().handle(put).status, net::kStatusCreated);

  const HttpResponse list =
      cloud_.router().handle(request(Method::Get, "/api/users/1/places"));
  ASSERT_TRUE(list.ok());
  ASSERT_EQ(list.body.at("places").size(), 1u);
  EXPECT_EQ(list.body.at("places")[0].at("label").as_string(), "home");
  EXPECT_EQ(cloud_.storage().user(user).places.at(7).label, "home");
}

TEST_F(CloudFixture, PlaceLabelEndpoint) {
  register_device();
  core::PlaceRecord record;
  record.uid = 7;
  record.signature = algorithms::WifiSignature{{1}};
  HttpRequest put = request(Method::Put, "/api/users/1/places/7");
  put.body = core::to_json(record);
  cloud_.router().handle(put);

  HttpRequest label = request(Method::Post, "/api/users/1/places/7/label");
  label.body = Json::object();
  label.body.set("label", "workplace");
  EXPECT_TRUE(cloud_.router().handle(label).ok());
  EXPECT_EQ(cloud_.storage().user(1).places.at(7).label, "workplace");

  HttpRequest missing = request(Method::Post, "/api/users/1/places/99/label");
  missing.body = label.body;
  EXPECT_EQ(cloud_.router().handle(missing).status, net::kStatusNotFound);
}

TEST_F(CloudFixture, ProfileSyncRoundTrip) {
  register_device();
  core::MobilityProfile profile;
  profile.user = 1;
  profile.day = 3;
  profile.places = {{7, days(3) + hours(9), days(3) + hours(17)}};
  HttpRequest put = request(Method::Put, "/api/users/1/profiles/3");
  put.body = core::to_json(profile);
  ASSERT_EQ(cloud_.router().handle(put).status, net::kStatusCreated);

  const HttpResponse get =
      cloud_.router().handle(request(Method::Get, "/api/users/1/profiles/3"));
  ASSERT_TRUE(get.ok());
  const core::MobilityProfile decoded = core::profile_from_json(get.body);
  ASSERT_EQ(decoded.places.size(), 1u);
  EXPECT_EQ(decoded.places[0].place, 7u);

  EXPECT_EQ(cloud_.router()
                .handle(request(Method::Get, "/api/users/1/profiles/9"))
                .status,
            net::kStatusNotFound);
}

TEST_F(CloudFixture, GcaDiscoveryEndpoint) {
  register_device();
  HttpRequest discover = request(Method::Post, "/api/places/discover");
  std::vector<algorithms::CellObservation> observations;
  // Oscillate between two cells for 2 hours.
  for (int i = 0; i < 120; ++i)
    observations.push_back(
        {i * 60, world::CellId{404, 10, 1,
                               static_cast<std::uint32_t>(100 + i % 2),
                               world::Radio::Gsm2G}});
  discover.body = Json::object();
  discover.body.set("observations", core::observations_to_json(observations));
  const HttpResponse res = cloud_.router().handle(discover);
  ASSERT_TRUE(res.ok());
  ASSERT_EQ(res.body.at("places").size(), 1u);
  EXPECT_GE(res.body.at("visits").size(), 1u);
  const auto sig = core::signature_from_json(
      res.body.at("places")[0].at("signature"));
  EXPECT_EQ(std::get<algorithms::CellSignature>(sig).cells.size(), 2u);
}

TEST_F(CloudFixture, RouteStoreEndpoints) {
  register_device();
  auto post_route = [this]() {
    HttpRequest post = request(Method::Post, "/api/users/1/routes");
    post.body = Json::object();
    post.body.set("from", 1);
    post.body.set("to", 2);
    post.body.set("start", hours(9));
    post.body.set("end", hours(9) + minutes(30));
    Json cells = Json::array();
    for (int i = 0; i < 5; ++i) {
      Json c = Json::object();
      c.set("t", hours(9) + i * 300);
      c.set("cell", core::to_json(world::CellId{
                        404, 10, 1, static_cast<std::uint32_t>(200 + i),
                        world::Radio::Gsm2G}));
      cells.push_back(std::move(c));
    }
    post.body.set("cells", std::move(cells));
    return cloud_.router().handle(post);
  };
  const HttpResponse first = post_route();
  ASSERT_EQ(first.status, net::kStatusCreated);
  const HttpResponse second = post_route();
  // Identical route deduplicates to the same uid.
  EXPECT_EQ(first.body.at("route_uid").as_int(),
            second.body.at("route_uid").as_int());

  HttpRequest get = request(Method::Get, "/api/users/1/routes");
  get.query["from"] = "1";
  get.query["to"] = "2";
  const HttpResponse routes = cloud_.router().handle(get);
  ASSERT_TRUE(routes.ok());
  ASSERT_EQ(routes.body.at("routes").size(), 1u);
  EXPECT_EQ(routes.body.at("routes")[0].at("use_count").as_int(), 2);
}

TEST_F(CloudFixture, ContactsEndpoints) {
  register_device();
  HttpRequest post = request(Method::Post, "/api/users/1/contacts");
  post.body = Json::object();
  Json encounters = Json::array();
  Json e = Json::object();
  e.set("contact", 5);
  e.set("place", 7);
  e.set("start", hours(9));
  e.set("end", hours(10));
  encounters.push_back(std::move(e));
  Json e2 = Json::object();
  e2.set("contact", 6);
  e2.set("place", 8);
  e2.set("start", hours(11));
  e2.set("end", hours(12));
  encounters.push_back(std::move(e2));
  post.body.set("encounters", std::move(encounters));
  ASSERT_EQ(cloud_.router().handle(post).status, net::kStatusCreated);

  HttpRequest get = request(Method::Get, "/api/users/1/contacts");
  get.query["place"] = "7";
  const HttpResponse res = cloud_.router().handle(get);
  ASSERT_TRUE(res.ok());
  ASSERT_EQ(res.body.at("encounters").size(), 1u);
  EXPECT_EQ(res.body.at("encounters")[0].at("contact").as_int(), 5);
}

TEST(CloudGeo, CellLookupEndpoint) {
  std::map<world::CellId, geo::LatLng> db;
  const world::CellId known{404, 10, 101, 1000, world::Radio::Gsm2G};
  db[known] = geo::LatLng{28.61, 77.21};
  CloudInstance cloud(CloudConfig{}, GeoLocationService(std::move(db)), Rng(2));

  HttpRequest reg;
  reg.method = Method::Post;
  reg.path = "/api/register";
  reg.headers[CloudInstance::kSimTimeHeader] = "0";
  reg.body = Json::object();
  reg.body.set("imei", "1");
  reg.body.set("email", "a@b");
  const std::string token =
      cloud.router().handle(reg).body.at("token").as_string();

  HttpRequest get;
  get.method = Method::Get;
  get.path = "/api/geo/cell/404/10/101/1000";
  get.headers[CloudInstance::kSimTimeHeader] = "0";
  get.headers["Authorization"] = "Bearer " + token;
  const HttpResponse res = cloud.router().handle(get);
  ASSERT_TRUE(res.ok());
  EXPECT_NEAR(res.body.at("lat").as_double(), 28.61, 1e-9);

  get.path = "/api/geo/cell/404/10/101/9999";
  EXPECT_EQ(cloud.router().handle(get).status, net::kStatusNotFound);
}

TEST_F(CloudFixture, AnalyticsEndpoints) {
  register_device();
  // Store 10 days of evening home arrivals at ~19:00 on weekdays.
  for (int day = 0; day < 10; ++day) {
    core::MobilityProfile profile;
    profile.user = 1;
    profile.day = day;
    profile.places.push_back(
        {7, start_of_day(day) + hours(19) + minutes(day % 3),
         start_of_day(day + 1) + hours(8)});
    HttpRequest put = request(
        Method::Put, "/api/users/1/profiles/" + std::to_string(day));
    put.body = core::to_json(profile);
    cloud_.router().handle(put);
  }
  core::PlaceRecord record;
  record.uid = 7;
  record.signature = algorithms::WifiSignature{{1}};
  record.label = "home";
  HttpRequest put = request(Method::Put, "/api/users/1/places/7");
  put.body = core::to_json(record);
  cloud_.router().handle(put);

  // Q1: typical evening arrival.
  const HttpResponse arrival = cloud_.router().handle(
      request(Method::Get, "/api/users/1/analytics/arrival/7"));
  ASSERT_TRUE(arrival.ok());
  EXPECT_NEAR(static_cast<double>(arrival.body.at("typical_arrival_tod").as_int()),
              static_cast<double>(hours(19) + minutes(1)), minutes(3));

  // Q2: next visit prediction. The query is days in the future, past the
  // token TTL — re-register (idempotent on identity) for a fresh token.
  register_device("111", "a@b.c", start_of_day(10) + hours(12));
  HttpRequest next = request(Method::Get, "/api/users/1/analytics/next_visit/7",
                             start_of_day(10) + hours(12));
  const HttpResponse next_res = cloud_.router().handle(next);
  ASSERT_TRUE(next_res.ok());
  const SimTime predicted = next_res.body.at("predicted_at").as_int();
  EXPECT_GT(predicted, start_of_day(10) + hours(12));
  EXPECT_NEAR(static_cast<double>(time_of_day(predicted)),
              static_cast<double>(hours(19)), minutes(10));

  // Q3: visit frequency by label.
  HttpRequest freq = request(Method::Get, "/api/users/1/analytics/frequency");
  freq.query["label"] = "home";
  const HttpResponse freq_res = cloud_.router().handle(freq);
  ASSERT_TRUE(freq_res.ok());
  EXPECT_NEAR(freq_res.body.at("visits_per_week").as_double(), 7.0, 0.5);

  // Unknown place: 404.
  EXPECT_EQ(cloud_.router()
                .handle(request(Method::Get, "/api/users/1/analytics/arrival/99"))
                .status,
            net::kStatusNotFound);
}

TEST(Analytics, PredictNextVisitSkipsNonVisitDays) {
  CloudStorage storage;
  // Visits only on weekdays 0-4 (Mon-Fri) for two weeks.
  for (int day = 0; day < 14; ++day) {
    if (day % 7 >= 5) continue;
    core::MobilityProfile profile;
    profile.user = 1;
    profile.day = day;
    profile.places.push_back({5, start_of_day(day) + hours(9),
                              start_of_day(day) + hours(17)});
    storage.user(1).profiles[day] = profile;
  }
  const AnalyticsEngine analytics(&storage);
  // Asking on Friday evening: next predicted visit is Monday, not Saturday.
  const auto predicted = analytics.predict_next_visit(
      1, 5, start_of_day(11) + hours(20));
  ASSERT_TRUE(predicted.has_value());
  EXPECT_EQ(day_of(*predicted) % 7, 0);
  EXPECT_NEAR(static_cast<double>(time_of_day(*predicted)),
              static_cast<double>(hours(9)), minutes(5));
}

TEST(Analytics, NoDataMeansNoAnswer) {
  CloudStorage storage;
  const AnalyticsEngine analytics(&storage);
  EXPECT_FALSE(analytics.typical_arrival_tod(1, 5).has_value());
  EXPECT_FALSE(analytics.predict_next_visit(1, 5, 0).has_value());
  const std::vector<core::PlaceUid> places{5};
  EXPECT_DOUBLE_EQ(analytics.visit_frequency_per_week(1, places), 0.0);
}

TEST(TokenServiceUnit, ValidateExpiryBoundary) {
  TokenService tokens(Rng(1), hours(24));
  const TokenGrant grant = tokens.register_device("i", "e", 0);
  EXPECT_TRUE(tokens.validate(grant.token, hours(23)).has_value());
  EXPECT_FALSE(tokens.validate(grant.token, hours(24)).has_value());
  EXPECT_FALSE(tokens.validate("garbage", 0).has_value());
}


// ------------------------------------------------- diagnostics endpoints

TEST_F(CloudFixture, DiagnosticsEndpointsRequireAuth) {
  // Unlike /metrics, the diagnostics pages expose per-user storage counts
  // and trace trees — bearer-token territory.
  EXPECT_EQ(cloud_.router().handle(request(Method::Get, "/healthz")).status,
            net::kStatusUnauthorized);
  EXPECT_EQ(cloud_.router().handle(request(Method::Get, "/tracez")).status,
            net::kStatusUnauthorized);
  register_device();
  EXPECT_EQ(cloud_.router().handle(request(Method::Get, "/healthz")).status,
            net::kStatusOk);
  EXPECT_EQ(cloud_.router().handle(request(Method::Get, "/tracez")).status,
            net::kStatusOk);
}

TEST_F(CloudFixture, HealthzReportsStorageAndErrorCounts) {
  const world::DeviceId user = register_device();
  cloud_.storage().user(user).places[7] = core::PlaceRecord{};
  // A foreign-user probe: 401, which must show up in errors_by_route.
  EXPECT_EQ(cloud_.router()
                .handle(request(Method::Get, "/api/users/999/places"))
                .status,
            net::kStatusUnauthorized);

  const HttpResponse res =
      cloud_.router().handle(request(Method::Get, "/healthz", hours(5)));
  ASSERT_EQ(res.status, net::kStatusOk);
  EXPECT_EQ(res.body.at("status").as_string(), "ok");
  EXPECT_EQ(res.body.at("sim_time").as_int(), hours(5));
  EXPECT_GE(res.body.at("uptime_wall_s").as_double(), 0.0);
  EXPECT_GE(res.body.at("routes").as_int(), 20);

  const Json& storage = res.body.at("storage");
  EXPECT_EQ(storage.at("users").as_int(), 1);
  EXPECT_EQ(storage.at("places").as_int(), 1);
  EXPECT_EQ(storage.at("profiles").as_int(), 0);

  // The registry is process-wide, so other routes may have errors from
  // earlier tests; the probe's route must be present with at least one.
  const Json& errors = res.body.at("errors_by_route");
  ASSERT_TRUE(errors.contains("/api/users/:id/places"));
  EXPECT_GE(errors.at("/api/users/:id/places").as_int(), 1);

  EXPECT_TRUE(res.body.at("tracing").contains("spans"));
  EXPECT_TRUE(res.body.at("tracing").contains("dropped"));
  EXPECT_TRUE(res.body.at("logs").contains("total"));
  EXPECT_TRUE(res.body.at("logs").contains("retained"));
}

TEST_F(CloudFixture, TracezServesSlowestTracesWithSloCounters) {
  register_device();
  telemetry::tracer().reset();

  // Drive two traced requests through the REST client so /tracez has trace
  // trees to rank (direct router calls carry no trace context).
  net::RestClient client(&cloud_.router(), net::NetworkConditions{0.0, 1},
                         Rng(9));
  for (int i = 0; i < 2; ++i) {
    HttpRequest traced = request(Method::Get, "/api/users/1/places");
    ASSERT_TRUE(client.send(traced).ok());
  }

  const HttpResponse res =
      cloud_.router().handle(request(Method::Get, "/tracez"));
  ASSERT_EQ(res.status, net::kStatusOk);
  EXPECT_DOUBLE_EQ(res.body.at("slo_threshold_us").as_double(), 1000.0);
  EXPECT_TRUE(res.body.at("slo_violations_by_route").is_object());

  const Json& traces = res.body.at("slowest_traces");
  ASSERT_EQ(traces.size(), 2u);
  EXPECT_EQ(traces[0].at("root").as_string(),
            "net.send GET /api/users/:n/places");
  EXPECT_EQ(traces[0].at("span_count").as_int(), 2);
  EXPECT_GE(traces[0].at("wall_us").as_double(),
            traces[1].at("wall_us").as_double());
  // Each embedded tree carries the cloud handler span under the client span.
  EXPECT_EQ(traces[0].at("spans")[1].at("name").as_string(),
            "cloud./api/users/:id/places");

  // ?n caps the list.
  HttpRequest capped = request(Method::Get, "/tracez");
  capped.query["n"] = "1";
  EXPECT_EQ(cloud_.router().handle(capped).body.at("slowest_traces").size(),
            1u);
}

// --- Sharded storage -------------------------------------------------------

/// Deterministic multi-user content: `users` users, each with a couple of
/// places, profiles, one route, and encounters, written through the
/// unsynchronized accessor (single-threaded seeding).
void seed_storage(CloudStorage& storage, world::DeviceId users) {
  for (world::DeviceId id = 1; id <= users; ++id) {
    UserStore& store = storage.user(id);
    for (core::PlaceUid uid = 1; uid <= 1 + id % 3; ++uid) {
      core::PlaceRecord record;
      record.uid = uid;
      record.label = "place-" + std::to_string(uid);
      record.visit_count = static_cast<std::size_t>(id);
      store.places[uid] = record;
    }
    for (std::int64_t day = 0; day < 1 + static_cast<std::int64_t>(id % 2);
         ++day) {
      core::MobilityProfile profile;
      profile.user = id;
      profile.day = day;
      profile.places.push_back({1, start_of_day(day) + hours(8),
                                start_of_day(day) + hours(17)});
      store.profiles[day] = profile;
    }
    algorithms::RouteObservation obs;
    obs.from_place = 1;
    obs.to_place = 2;
    obs.window = TimeWindow{hours(8), hours(9)};
    store.routes.add(std::move(obs));
    store.encounters.push_back({id + 1000, 1, hours(9), hours(10)});
  }
}

TEST(ShardedStorage, StatsEqualSumOfPerUserTruth) {
  CloudStorage storage(16);
  const world::DeviceId users = 40;
  seed_storage(storage, users);

  CloudStorage::Stats expected;
  for (world::DeviceId id = 1; id <= users; ++id) {
    const UserStore* store = storage.find_user(id);
    ASSERT_NE(store, nullptr);
    ++expected.users;
    expected.places += store->places.size();
    expected.profiles += store->profiles.size();
    expected.routes += store->routes.routes().size();
    expected.encounters += store->encounters.size();
  }
  EXPECT_EQ(storage.stats(), expected);
  EXPECT_EQ(storage.user_count(), users);
}

TEST(ShardedStorage, ShardPlacementIsStableAndCoversAllShards) {
  CloudStorage storage(16);
  std::set<std::size_t> seen;
  for (world::DeviceId id = 1; id <= 200; ++id) {
    const std::size_t s = storage.shard_of(id);
    EXPECT_LT(s, storage.shard_count());
    EXPECT_EQ(s, storage.shard_of(id));  // stable
    seen.insert(s);
  }
  // splitmix64 spreads 200 sequential ids across all 16 shards.
  EXPECT_EQ(seen.size(), storage.shard_count());
}

TEST(ShardedStorage, EraseUserLeavesOtherShardsUntouched) {
  CloudStorage storage(8);
  seed_storage(storage, 24);
  const world::DeviceId victim = 7;

  // Per-user digests of everyone else, plus a same-shard neighbor check:
  // at 24 users over 8 shards, some user shares the victim's shard.
  std::map<world::DeviceId, CloudStorage::Stats> before;
  for (world::DeviceId id = 1; id <= 24; ++id) {
    if (id == victim) continue;
    const UserStore* store = storage.find_user(id);
    CloudStorage::Stats s;
    s.places = store->places.size();
    s.profiles = store->profiles.size();
    s.routes = store->routes.routes().size();
    s.encounters = store->encounters.size();
    before[id] = s;
  }

  EXPECT_TRUE(storage.erase_user(victim));
  EXPECT_FALSE(storage.erase_user(victim));  // already gone
  EXPECT_EQ(storage.find_user(victim), nullptr);
  EXPECT_EQ(storage.user_count(), 23u);

  for (const auto& [id, expected] : before) {
    const UserStore* store = storage.find_user(id);
    ASSERT_NE(store, nullptr) << "user " << id << " lost by erase";
    EXPECT_EQ(store->places.size(), expected.places);
    EXPECT_EQ(store->profiles.size(), expected.profiles);
    EXPECT_EQ(store->routes.routes().size(), expected.routes);
    EXPECT_EQ(store->encounters.size(), expected.encounters);
  }
}

TEST(ShardedStorage, DigestAndStatsInvariantUnderShardCount) {
  CloudStorage one(1), four(4), sixteen(16);
  seed_storage(one, 30);
  seed_storage(four, 30);
  seed_storage(sixteen, 30);
  EXPECT_EQ(one.content_digest(), sixteen.content_digest());
  EXPECT_EQ(four.content_digest(), sixteen.content_digest());
  EXPECT_EQ(one.stats(), sixteen.stats());
  EXPECT_EQ(four.stats(), sixteen.stats());
  EXPECT_NE(one.content_digest(), 0u);
}

// Retiring users one by one (the study's per-participant archive step)
// never changes what the store reports: the digest and stats of an
// archived copy equal the live copy's after every step, in any order.
TEST(ShardedStorage, ArchiveUserKeepsDigestAndStats) {
  const world::DeviceId users = 30;
  CloudStorage live(4), archived(4);
  seed_storage(live, users);
  seed_storage(archived, users);
  const std::uint64_t digest = live.content_digest();
  const CloudStorage::Stats stats = live.stats();
  ASSERT_NE(digest, 0u);

  // 7 is coprime with 30, so k * 7 % 30 visits every id, not ascending.
  for (world::DeviceId k = 0; k < users; ++k) {
    const world::DeviceId id = k * 7 % users + 1;
    SCOPED_TRACE("archived user " + std::to_string(id));
    EXPECT_TRUE(archived.archive_user(id));
    EXPECT_EQ(archived.find_user(id), nullptr);
    EXPECT_EQ(archived.archived_users(), k + 1);
    EXPECT_EQ(archived.content_digest(), digest);
    EXPECT_EQ(archived.stats(), stats);
  }
  EXPECT_EQ(archived.user_count(), 0u);

  // An unknown id and an already-archived id are refused without effect.
  for (const world::DeviceId id : {users + 1, world::DeviceId{1}}) {
    SCOPED_TRACE("refused user " + std::to_string(id));
    EXPECT_FALSE(archived.archive_user(id));
    EXPECT_EQ(archived.archived_users(), users);
    EXPECT_EQ(archived.content_digest(), digest);
    EXPECT_EQ(archived.stats(), stats);
  }
}

TEST(ShardedStorage, CopyAssignRedistributesAcrossLayouts) {
  CloudStorage source(1);
  seed_storage(source, 20);
  CloudStorage dest(16);
  dest = source;  // the fixture-injection path used by analytics tests
  EXPECT_EQ(dest.shard_count(), 16u);
  EXPECT_EQ(dest.stats(), source.stats());
  EXPECT_EQ(dest.content_digest(), source.content_digest());
  // Copies are independent.
  dest.erase_user(3);
  EXPECT_NE(dest.stats(), source.stats());
  EXPECT_NE(source.find_user(3), nullptr);
}

TEST_F(CloudFixture, MetricsExposeShardTelemetry) {
  register_device();
  // A per-user write routes through the owning shard's lock, which records
  // the per-shard counter and the lock-wait histogram.
  HttpRequest put = request(Method::Put, "/api/users/1/places/5");
  core::PlaceRecord record;
  record.uid = 5;
  put.body = core::to_json(record);
  ASSERT_EQ(cloud_.router().handle(put).status, net::kStatusCreated);

  const HttpResponse res =
      cloud_.router().handle(request(Method::Get, "/metrics"));
  ASSERT_TRUE(res.ok());
  const std::string& text = res.body.at("text").as_string();
  EXPECT_NE(text.find("# TYPE cloud_shard_requests_total counter"),
            std::string::npos);
  EXPECT_NE(text.find("cloud_shard_requests_total{shard="), std::string::npos);
  EXPECT_NE(text.find("# TYPE cloud_shard_lock_wait_us histogram"),
            std::string::npos);
}

TEST_F(CloudFixture, HealthzReportsShardCount) {
  register_device();
  const HttpResponse res =
      cloud_.router().handle(request(Method::Get, "/healthz"));
  ASSERT_TRUE(res.ok());
  EXPECT_EQ(res.body.at("storage").at("shards").as_int(),
            static_cast<std::int64_t>(CloudStorage::kDefaultShards));
}

TEST_F(CloudFixture, RegistrationCountsSessionsPerDevice) {
  HttpRequest req = request(Method::Post, "/api/register");
  req.headers.erase("Authorization");
  req.body = Json::object();
  req.body.set("imei", "imei-s");
  req.body.set("email", "s@x.y");
  const HttpResponse first = cloud_.router().handle(req);
  ASSERT_EQ(first.status, net::kStatusCreated);
  EXPECT_EQ(first.body.at("session").as_int(), 1);
  const HttpResponse again = cloud_.router().handle(req);
  ASSERT_EQ(again.status, net::kStatusCreated);
  EXPECT_EQ(again.body.at("session").as_int(), 2);
  // A different device has its own session sequence.
  req.body.set("imei", "imei-t");
  EXPECT_EQ(cloud_.router().handle(req).body.at("session").as_int(), 1);
}

// The wipe-tombstone invariant: after a privacy wipe, a replayed write
// carrying the wiped incarnation's session can never resurrect pre-wipe
// data, while the re-registered incarnation (strictly newer session)
// writes freely. Sharding-labeled because the tombstone map lives on the
// per-user shard and must survive the erase that empties the shard.
TEST_F(CloudFixture, WipeTombstoneRejectsOldSessionReplay) {
  const world::DeviceId user = register_device("imei-w", "w@x.y");
  const std::string base = "/api/users/" + std::to_string(user);

  HttpRequest put = request(Method::Put, base + "/places/7");
  core::PlaceRecord record;
  record.uid = 7;
  put.body = core::to_json(record);
  put.headers[net::kSessionHeader] = "1";
  ASSERT_EQ(cloud_.router().handle(put).status, net::kStatusCreated);

  // Session-qualified privacy wipe raises the tombstone at session 1.
  HttpRequest wipe = request(Method::Delete, base);
  wipe.headers[net::kSessionHeader] = "1";
  ASSERT_TRUE(cloud_.router().handle(wipe).ok());
  EXPECT_EQ(cloud_.storage().find_user(user), nullptr);

  // The device re-registers: session 2.
  const world::DeviceId again = register_device("imei-w", "w@x.y");
  ASSERT_EQ(again, user);

  // A replayed outbox write from the wiped incarnation is refused 410...
  HttpRequest replay = request(Method::Put, base + "/places/7");
  replay.body = core::to_json(record);
  replay.headers[net::kSessionHeader] = "1";
  EXPECT_EQ(cloud_.router().handle(replay).status, net::kStatusGone);
  // ...as is a write carrying no session at all (pre-session client)...
  HttpRequest sessionless = request(Method::Put, base + "/places/7");
  sessionless.body = core::to_json(record);
  EXPECT_EQ(cloud_.router().handle(sessionless).status, net::kStatusGone);
  // ...while the new incarnation writes through.
  HttpRequest fresh = request(Method::Put, base + "/places/8");
  core::PlaceRecord fresh_record;
  fresh_record.uid = 8;
  fresh.body = core::to_json(fresh_record);
  fresh.headers[net::kSessionHeader] = "2";
  EXPECT_EQ(cloud_.router().handle(fresh).status, net::kStatusCreated);

  // The resurrected write never landed.
  const auto* store = cloud_.storage().find_user(user);
  ASSERT_NE(store, nullptr);
  EXPECT_EQ(store->places.count(7), 0u);
  EXPECT_EQ(store->places.count(8), 1u);
  EXPECT_GE(telemetry::registry().family_total(
                "cloud_tombstone_rejections_total"),
            2u);
}

TEST_F(CloudFixture, SessionlessWipeErasesWithoutFencing) {
  const world::DeviceId user = register_device("imei-v", "v@x.y");
  const std::string base = "/api/users/" + std::to_string(user);
  // A wipe with no session header (legacy admin path) erases the account
  // but raises no tombstone: later writes are not fenced.
  ASSERT_TRUE(cloud_.router().handle(request(Method::Delete, base)).ok());
  EXPECT_EQ(cloud_.storage().find_user(user), nullptr);
  HttpRequest put = request(Method::Put, base + "/places/3");
  core::PlaceRecord record;
  record.uid = 3;
  put.body = core::to_json(record);
  EXPECT_EQ(cloud_.router().handle(put).status, net::kStatusCreated);
}

}  // namespace
}  // namespace pmware::cloud
