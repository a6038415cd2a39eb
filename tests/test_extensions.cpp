// Tests for the paper's §6 future-work features implemented here: activity
// tracking in mobility profiles, privacy deletion (forget-a-place, wipe),
// coordinate geofences, and the location read-back that powers them.
#include <gtest/gtest.h>

#include "cloud/cloud_instance.hpp"
#include "core/codec.hpp"
#include "core/pms.hpp"
#include "mobility/participant.hpp"
#include "mobility/schedule.hpp"

namespace pmware {
namespace {

struct Stack {
  explicit Stack(int days_n, std::uint64_t seed = 1) {
    Rng rng(seed);
    Rng world_rng = rng.fork(1);
    world::WorldConfig wc;
    world = world::generate_world(wc, world_rng);
    Rng prng = rng.fork(2);
    participants = mobility::make_participants(*world, 1, prng);
    Rng trng = rng.fork(3);
    mobility::ScheduleConfig sc;
    sc.days = days_n;
    trace.emplace(mobility::build_trace(*world, participants[0], sc, trng));
    cloud::GeoLocationService geoloc(world->cell_location_db());
    geoloc.set_ap_db(world->ap_location_db());
    cloud.emplace(cloud::CloudConfig{}, std::move(geoloc), rng.fork(4));
    auto device = std::make_unique<sensing::Device>(
        world, sensing::oracle_from_trace(*trace), sensing::DeviceConfig{},
        rng.fork(5));
    auto client = std::make_unique<net::RestClient>(
        &cloud->router(), net::NetworkConditions{0.0, 1}, rng.fork(6));
    pms.emplace(std::move(device), core::PmsConfig{}, std::move(client),
                rng.fork(7));
    core::PlaceAlertRequest request;
    request.app = "harness";
    request.granularity = core::Granularity::Building;
    pms->apps().register_place_alerts(request);
    pms->register_with_cloud(0);
  }

  std::shared_ptr<const world::World> world;
  std::vector<mobility::Participant> participants;
  std::optional<mobility::Trace> trace;
  std::optional<cloud::CloudInstance> cloud;
  std::optional<core::PmwareMobileService> pms;
};

// --- Activity tracking ---

TEST(ActivityTracking, EngineAccumulatesPlausibleDayTotals) {
  Stack stack(2);
  stack.pms->run(TimeWindow{0, days(2)});
  stack.pms->shutdown(days(2));
  for (int day = 0; day < 2; ++day) {
    const core::ActivitySummary summary =
        stack.pms->inference().activity_for(day);
    // The accelerometer ran most of the day at 1-minute cadence.
    EXPECT_GT(summary.tracked(), hours(20));
    EXPECT_LE(summary.tracked(), days(1));
    // People are still most of the day and move for minutes-to-hours.
    EXPECT_GT(summary.still, hours(18));
    EXPECT_GT(summary.walking + summary.vehicle, minutes(5));
    EXPECT_LT(summary.walking + summary.vehicle, hours(4));
  }
}

TEST(ActivityTracking, ProfileCarriesActivityToCloud) {
  Stack stack(2);
  stack.pms->run(TimeWindow{0, days(2)});
  stack.pms->shutdown(days(2));
  const auto* user = stack.cloud->storage().find_user(1);
  ASSERT_NE(user, nullptr);
  ASSERT_TRUE(user->profiles.count(0));
  EXPECT_FALSE(user->profiles.at(0).activity.empty());
  EXPECT_EQ(user->profiles.at(0).activity,
            stack.pms->inference().activity_for(0));
}

TEST(ActivityTracking, CodecRoundTripsActivity) {
  core::MobilityProfile profile;
  profile.user = 1;
  profile.day = 2;
  profile.activity = {hours(20), minutes(50), minutes(30)};
  const core::MobilityProfile decoded =
      core::profile_from_json(Json::parse(core::to_json(profile).dump()));
  EXPECT_EQ(decoded.activity, profile.activity);
}

TEST(ActivityTracking, ActivityEndpointServesSummary) {
  Stack stack(2);
  stack.pms->run(TimeWindow{0, days(2)});
  stack.pms->shutdown(days(2));
  net::HttpRequest request;
  request.method = net::Method::Get;
  request.path = "/api/users/1/analytics/activity/0";
  request.headers[net::kSimTimeHeader] =
      std::to_string(days(2));
  request.headers["Authorization"] =
      "Bearer " + stack.pms->client()->auth_token();
  const net::HttpResponse response = stack.cloud->router().handle(request);
  ASSERT_TRUE(response.ok());
  EXPECT_GT(response.body.at("still").as_int(), hours(15));
  // Unknown day: 404.
  request.path = "/api/users/1/analytics/activity/99";
  EXPECT_EQ(stack.cloud->router().handle(request).status,
            net::kStatusNotFound);
}

TEST(ActivityTracking, NoAccelerometerMeansNoActivity) {
  // Area-level demand never turns the accelerometer on.
  Rng rng(1);
  Rng world_rng = rng.fork(1);
  world::WorldConfig wc;
  auto world = world::generate_world(wc, world_rng);
  Rng prng = rng.fork(2);
  auto participants = mobility::make_participants(*world, 1, prng);
  Rng trng = rng.fork(3);
  mobility::ScheduleConfig sc;
  sc.days = 1;
  const mobility::Trace trace =
      mobility::build_trace(*world, participants[0], sc, trng);
  auto device = std::make_unique<sensing::Device>(
      world, sensing::oracle_from_trace(trace), sensing::DeviceConfig{},
      rng.fork(4));
  core::PmwareMobileService pms(std::move(device), core::PmsConfig{}, nullptr,
                                rng.fork(5));
  core::PlaceAlertRequest request;
  request.app = "ads";
  request.granularity = core::Granularity::Area;
  pms.apps().register_place_alerts(request);
  pms.run(TimeWindow{0, days(1)});
  EXPECT_TRUE(pms.inference().activity_for(0).empty());
}

// --- Location read-back ---

TEST(LocationReadback, LocalRecordsGetCoordinatesAfterSync) {
  Stack stack(2);
  stack.pms->run(TimeWindow{0, days(2)});
  stack.pms->shutdown(days(2));
  std::size_t located = 0;
  for (const auto& [uid, record] : stack.pms->places().records())
    if (record.location) ++located;
  EXPECT_GE(located, 2u);
  // The cached coordinates are inside the city.
  for (const auto& [uid, record] : stack.pms->places().records()) {
    if (!record.location) continue;
    const auto off = geo::to_enu(stack.world->config().origin, *record.location);
    EXPECT_GE(off.east_m, -3000);
    EXPECT_LE(off.east_m, stack.world->config().extent_m + 3000);
  }
}

// --- Privacy deletion ---

TEST(Privacy, ForgetPlaceErasesLocallyAndOnCloud) {
  Stack stack(2);
  stack.pms->run(TimeWindow{0, days(2)});
  stack.pms->shutdown(days(2));
  ASSERT_GE(stack.pms->places().size(), 1u);
  const core::PlaceUid uid = stack.pms->places().records().begin()->first;

  ASSERT_TRUE(stack.pms->forget_place(uid, days(2)));
  EXPECT_EQ(stack.pms->places().get(uid), nullptr);
  for (const auto& visit : stack.pms->inference().visit_log())
    EXPECT_NE(visit.uid, uid);
  const auto* user = stack.cloud->storage().find_user(1);
  ASSERT_NE(user, nullptr);
  EXPECT_EQ(user->places.count(uid), 0u);
  for (const auto& [day, profile] : user->profiles)
    for (const auto& entry : profile.places) EXPECT_NE(entry.place, uid);

  // Forgetting twice fails cleanly.
  EXPECT_FALSE(stack.pms->forget_place(uid, days(2)));
}

TEST(Privacy, WipeRemovesEverythingOnCloud) {
  Stack stack(2);
  stack.pms->run(TimeWindow{0, days(2)});
  stack.pms->shutdown(days(2));
  ASSERT_NE(stack.cloud->storage().find_user(1), nullptr);
  EXPECT_TRUE(stack.pms->wipe_cloud_data(days(2)));
  EXPECT_EQ(stack.cloud->storage().find_user(1), nullptr);
}

TEST(Privacy, DeleteEndpointsRequireMatchingUser) {
  Stack stack(1);
  stack.pms->run(TimeWindow{0, days(1)});
  net::HttpRequest request;
  request.method = net::Method::Delete;
  request.path = "/api/users/2";  // someone else
  request.headers[net::kSimTimeHeader] = "0";
  request.headers["Authorization"] =
      "Bearer " + stack.pms->client()->auth_token();
  EXPECT_EQ(stack.cloud->router().handle(request).status,
            net::kStatusUnauthorized);
}

// --- Geofences ---

TEST(Geofence, FiresOnEnterAndExitWithinRadius) {
  Stack stack(3, 9);
  // Fence around the participant's true home.
  const geo::LatLng home =
      stack.world->place(stack.participants[0].home).center;
  std::vector<core::Intent> fired;
  const auto receiver = stack.pms->bus().register_receiver(
      core::IntentFilter{},
      [&fired](const core::Intent& intent) { fired.push_back(intent); });
  core::GeofenceRequest fence;
  fence.app = "reminder";
  fence.center = home;
  fence.radius_m = 400;
  fence.receiver = receiver;
  stack.pms->apps().register_geofence(fence);

  stack.pms->run(TimeWindow{0, days(3)});
  stack.pms->shutdown(days(3));

  // Locations resolve after the first sync, so day-2+ events fire.
  int enters = 0, exits = 0;
  for (const auto& intent : fired) {
    if (intent.action == core::actions::kGeofenceEnter) ++enters;
    if (intent.action == core::actions::kGeofenceExit) ++exits;
    // Every fired event is near the fence center.
    const geo::LatLng at{intent.extras.at("lat").as_double(),
                         intent.extras.at("lng").as_double()};
    EXPECT_LE(geo::distance_m(at, home), 400);
  }
  EXPECT_GE(enters, 1);
  EXPECT_GE(exits, 1);
}

TEST(Geofence, DistantFenceNeverFires) {
  Stack stack(2, 9);
  std::vector<core::Intent> fired;
  const auto receiver = stack.pms->bus().register_receiver(
      core::IntentFilter{},
      [&fired](const core::Intent& intent) { fired.push_back(intent); });
  core::GeofenceRequest fence;
  fence.app = "reminder";
  // A point far outside the city.
  fence.center = geo::destination(stack.world->config().origin, 225, 50000);
  fence.radius_m = 300;
  fence.receiver = receiver;
  stack.pms->apps().register_geofence(fence);
  stack.pms->run(TimeWindow{0, days(2)});
  stack.pms->shutdown(days(2));
  EXPECT_TRUE(fired.empty());
}

TEST(Geofence, DemandsBuildingLevelSensing) {
  core::UserPreferences prefs;
  core::ConnectedAppsModule apps(&prefs);
  EXPECT_FALSE(apps.required_granularity(0).has_value());
  core::GeofenceRequest fence;
  fence.app = "reminder";
  fence.center = {28.6, 77.2};
  apps.register_geofence(fence);
  ASSERT_TRUE(apps.required_granularity(0).has_value());
  EXPECT_EQ(*apps.required_granularity(0), core::Granularity::Building);
  apps.unregister_app("reminder");
  EXPECT_FALSE(apps.required_granularity(0).has_value());
}

TEST(Geofence, RespectsDailyWindow) {
  core::UserPreferences prefs;
  core::ConnectedAppsModule apps(&prefs);
  core::PlaceStore store;
  core::IntentBus bus;
  int fired = 0;
  const auto receiver = bus.register_receiver(
      core::IntentFilter{}, [&fired](const core::Intent&) { ++fired; });

  const auto [uid, created] =
      store.intern(algorithms::WifiSignature{{1}}, core::Granularity::Building);
  store.get_mutable(uid)->location = geo::LatLng{28.6, 77.2};

  core::GeofenceRequest fence;
  fence.app = "reminder";
  fence.center = {28.6, 77.2};
  fence.radius_m = 100;
  fence.window = DailyWindow{hours(9), hours(18)};
  fence.receiver = receiver;
  apps.register_geofence(fence);

  apps.deliver_geofence({core::PlaceEvent::Kind::Enter, uid, uid, hours(10), 0},
                        store, bus);
  apps.deliver_geofence({core::PlaceEvent::Kind::Enter, uid, uid, hours(20), 0},
                        store, bus);
  EXPECT_EQ(fired, 1);
  (void)created;
}

TEST(Geofence, UnresolvedPlacesNeverFire) {
  core::UserPreferences prefs;
  core::ConnectedAppsModule apps(&prefs);
  core::PlaceStore store;
  core::IntentBus bus;
  int fired = 0;
  const auto receiver = bus.register_receiver(
      core::IntentFilter{}, [&fired](const core::Intent&) { ++fired; });
  const auto [uid, created] =
      store.intern(algorithms::WifiSignature{{1}}, core::Granularity::Building);
  // No location set.
  core::GeofenceRequest fence;
  fence.app = "reminder";
  fence.center = {28.6, 77.2};
  fence.radius_m = 1000000;  // would match anything located
  fence.receiver = receiver;
  apps.register_geofence(fence);
  apps.deliver_geofence({core::PlaceEvent::Kind::Enter, uid, uid, hours(10), 0},
                        store, bus);
  EXPECT_EQ(fired, 0);
  (void)created;
}

}  // namespace
}  // namespace pmware
