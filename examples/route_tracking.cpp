// Route tracking (paper §2.1.2, §2.2.2): low-accuracy mode records the cell
// sequence of each journey for free (GSM is already sampled); high-accuracy
// mode turns GPS on while moving. Repeated commutes collapse into canonical
// routes with usage frequency, retrievable through the cloud Routes API.
#include <cstdio>

#include "cloud/cloud_instance.hpp"
#include "core/pms.hpp"
#include "geo/polyline.hpp"
#include "mobility/schedule.hpp"
#include "util/logging.hpp"

using namespace pmware;

int main() {
  set_log_level(LogLevel::Warn);
  Rng rng(23);
  world::WorldConfig world_config;
  auto world = world::generate_world(world_config, rng);
  auto participants = mobility::make_participants(*world, 1, rng);
  mobility::ScheduleConfig schedule;
  schedule.days = 5;
  const mobility::Trace trace =
      mobility::build_trace(*world, participants[0], schedule, rng);

  cloud::CloudInstance cloud(cloud::CloudConfig{},
                             cloud::GeoLocationService(world->cell_location_db()),
                             rng.fork(1));
  auto device = std::make_unique<sensing::Device>(
      world, sensing::oracle_from_trace(trace), sensing::DeviceConfig{},
      rng.fork(2));
  auto client = std::make_unique<net::RestClient>(
      &cloud.router(), net::NetworkConditions{0.0, 1}, rng.fork(3));
  core::PmwareMobileService pms(std::move(device), core::PmsConfig{},
                                std::move(client), rng.fork(4));
  pms.register_with_cloud(0);

  // A health app wants exact exposure paths: high-accuracy route tracking.
  core::PlaceAlertRequest place_request;
  place_request.app = "health";
  place_request.granularity = core::Granularity::Building;
  pms.apps().register_place_alerts(place_request);
  int completed_routes = 0;
  core::IntentFilter filter;
  filter.actions = {core::actions::kRouteCompleted};
  const auto receiver = pms.bus().register_receiver(
      filter, [&completed_routes](const core::Intent&) { ++completed_routes; });

  core::RouteTrackingRequest route_request;
  route_request.app = "health";
  route_request.accuracy = core::RouteAccuracy::High;
  route_request.receiver = receiver;
  pms.apps().register_route_tracking(route_request);

  pms.run(TimeWindow{0, days(schedule.days)});
  pms.shutdown(days(schedule.days));

  std::printf("--- canonical routes after %d days ---\n", schedule.days);
  const auto& store = pms.inference().routes();
  for (std::size_t i = 0; i < store.routes().size(); ++i) {
    const auto& route = store.routes()[i];
    const auto& rep = route.representative;
    const double gps_len = geo::polyline_length_m(rep.gps.points);
    std::printf(
        "  route #%zu: place %llu -> %llu, used %zux, %zu GPS points "
        "(%.1f km), %zu cells\n",
        i, static_cast<unsigned long long>(rep.from_place),
        static_cast<unsigned long long>(rep.to_place), route.use_count,
        rep.gps.points.size(), gps_len / 1000.0, rep.cells.cells.size());
  }

  // The daily commute should have collapsed into a reused canonical route.
  std::size_t max_use = 0;
  for (const auto& route : store.routes())
    max_use = std::max(max_use, route.use_count);
  std::printf("\nmost-used route seen %zu times (the commute)\n", max_use);
  std::printf("route-completed intents delivered to the app: %d\n",
              completed_routes);
  std::printf("GPS samples: %zu — only while moving, never while parked\n",
              pms.meter().sample_count(energy::Interface::Gps));
  std::printf("energy: %s\n", pms.meter().summary().c_str());

  // Retrieve the same data through the cloud Routes API, the way another
  // service would.
  net::HttpRequest request;
  request.method = net::Method::Get;
  request.path = "/api/users/1/routes";
  request.headers[net::kSimTimeHeader] = std::to_string(days(schedule.days));
  request.headers["Authorization"] =
      "Bearer " + pms.client()->auth_token();
  const net::HttpResponse response = cloud.router().handle(request);
  if (response.ok())
    std::printf("cloud Routes API reports %zu canonical routes\n",
                response.body.at("routes").size());
  return 0;
}
