// End-to-end integration tests: the paper's §2.4 use case and the shared-
// sensing claim (§1 limitation 3) across multiple connected applications.
#include <gtest/gtest.h>

#include "apps/lifelog.hpp"
#include "apps/placeads.hpp"
#include "apps/todo_reminder.hpp"
#include "cloud/cloud_instance.hpp"
#include "core/pms.hpp"
#include "algorithms/evaluate.hpp"
#include "mobility/participant.hpp"
#include "mobility/schedule.hpp"

namespace pmware {
namespace {

struct Stack {
  explicit Stack(int days_n, std::uint64_t seed = 1) {
    Rng world_rng(seed);
    world::WorldConfig wc;
    world = world::generate_world(wc, world_rng);
    Rng prng(2);
    participants = mobility::make_participants(*world, 1, prng);
    Rng trng(5);
    mobility::ScheduleConfig sc;
    sc.days = days_n;
    trace.emplace(mobility::build_trace(*world, participants[0], sc, trng));
    cloud.emplace(cloud::CloudConfig{},
                  cloud::GeoLocationService(world->cell_location_db()), Rng(3));
    auto device = std::make_unique<sensing::Device>(
        world, sensing::oracle_from_trace(*trace), sensing::DeviceConfig{},
        Rng(7));
    auto client = std::make_unique<net::RestClient>(
        &cloud->router(), net::NetworkConditions{0.01, 1}, Rng(11));
    pms.emplace(std::move(device), core::PmsConfig{}, std::move(client),
                Rng(13));
    pms->register_with_cloud(0);
  }

  void tag_by_truth(SimTime now) {
    for (const auto& visit : pms->inference().visit_log()) {
      const core::PlaceRecord* record = pms->places().get(visit.uid);
      if (record == nullptr || !record->label.empty()) continue;
      const SimTime mid = (visit.window.begin + visit.window.end) / 2;
      if (const auto truth = trace->place_at(mid))
        pms->tag_place(visit.uid,
                       world::to_string(world->place(*truth).category), now);
    }
  }

  std::shared_ptr<const world::World> world;
  std::vector<mobility::Participant> participants;
  std::optional<mobility::Trace> trace;
  std::optional<cloud::CloudInstance> cloud;
  std::optional<core::PmwareMobileService> pms;
};

TEST(UseCase24, TodoAppGetsWorkplaceAlerts) {
  // Paper §2.4, step by step: the To-Do app frames a request for place
  // alerts at building granularity, tracked 9 AM - 6 PM, via an intent
  // filter; PMS senses accordingly and broadcasts arrival/departure alerts.
  Stack stack(4);
  apps::TodoReminder todo("workplace", DailyWindow{hours(9), hours(18)});
  todo.add_todo({"Prepare stand-up notes", true});
  todo.connect(*stack.pms);

  for (int day = 0; day < 4; ++day) {
    stack.pms->run(TimeWindow{start_of_day(day), start_of_day(day + 1)});
    stack.tag_by_truth(start_of_day(day + 1));
  }
  stack.pms->shutdown(days(4));

  EXPECT_GE(todo.enter_alerts() + todo.exit_alerts(), 2u);
  for (const auto& fired : todo.fired()) {
    EXPECT_EQ(fired.text, "Prepare stand-up notes");
    EXPECT_TRUE(fired.entered);
    const SimDuration tod = time_of_day(fired.t);
    EXPECT_GE(tod, hours(9));
    EXPECT_LT(tod, hours(18));
  }
}

TEST(SharedSensing, SecondAppAddsNoSensingCost) {
  // §1 limitation 3: isolated apps duplicate sensing; PMWare's single PMS
  // serves N apps at one app's cost. Run the identical day with one and
  // with three connected apps and compare sample counts.
  auto run_with_apps = [](int app_count) {
    Stack stack(2, 99);
    apps::LifeLog lifelog;
    std::optional<apps::PlaceAds> ads;
    std::optional<apps::TodoReminder> todo;
    lifelog.connect(*stack.pms);
    if (app_count >= 2) {
      ads.emplace(apps::AdInventory::default_catalogue(), Rng(21));
      ads->connect(*stack.pms);
    }
    if (app_count >= 3) {
      todo.emplace("workplace", DailyWindow{hours(9), hours(18)});
      todo->connect(*stack.pms);
    }
    stack.pms->run(TimeWindow{0, days(2)});
    stack.pms->shutdown(days(2));
    return std::array<std::size_t, 3>{
        stack.pms->meter().sample_count(energy::Interface::Gsm),
        stack.pms->meter().sample_count(energy::Interface::Wifi),
        stack.pms->meter().sample_count(energy::Interface::Accelerometer)};
  };

  const auto one = run_with_apps(1);
  const auto three = run_with_apps(3);
  // Identical requirements -> identical sensing; the scheduler runs once.
  EXPECT_EQ(one[0], three[0]);
  EXPECT_EQ(one[1], three[1]);
  EXPECT_EQ(one[2], three[2]);
}

TEST(Privacy, AreaCappedAdsAppSeesCoarserDataThanLifelog) {
  Stack stack(2);
  stack.pms->preferences().set_app_cap("placeads", core::Granularity::Area);

  std::vector<core::Intent> ads_seen, lifelog_seen;
  core::IntentFilter filter;
  filter.actions = {core::actions::kPlaceEnter};
  const auto ads_receiver = stack.pms->bus().register_receiver(
      filter, [&](const core::Intent& i) { ads_seen.push_back(i); });
  const auto lifelog_receiver = stack.pms->bus().register_receiver(
      filter, [&](const core::Intent& i) { lifelog_seen.push_back(i); });

  core::PlaceAlertRequest ads_request;
  ads_request.app = "placeads";
  ads_request.granularity = core::Granularity::Building;
  ads_request.receiver = ads_receiver;
  stack.pms->apps().register_place_alerts(ads_request);

  core::PlaceAlertRequest lifelog_request;
  lifelog_request.app = "lifelog";
  lifelog_request.granularity = core::Granularity::Building;
  lifelog_request.receiver = lifelog_receiver;
  stack.pms->apps().register_place_alerts(lifelog_request);

  stack.pms->run(TimeWindow{0, days(2)});
  stack.pms->shutdown(days(2));

  ASSERT_FALSE(ads_seen.empty());
  ASSERT_FALSE(lifelog_seen.empty());
  for (const auto& intent : ads_seen) {
    EXPECT_FALSE(intent.extras.contains("place_uid"));
    EXPECT_TRUE(intent.extras.contains("area_uid"));
  }
  bool lifelog_has_details = false;
  for (const auto& intent : lifelog_seen)
    if (intent.extras.contains("place_uid")) lifelog_has_details = true;
  EXPECT_TRUE(lifelog_has_details);
}

TEST(EndToEnd, CloudHoldsConsistentStateAfterStudyDays) {
  Stack stack(3);
  apps::LifeLog lifelog;
  lifelog.connect(*stack.pms);
  for (int day = 0; day < 3; ++day) {
    stack.pms->run(TimeWindow{start_of_day(day), start_of_day(day + 1)});
    stack.tag_by_truth(start_of_day(day + 1));
  }
  stack.pms->shutdown(days(3));

  const auto* user = stack.cloud->storage().find_user(1);
  ASSERT_NE(user, nullptr);
  // Places synced with labels matching the local store.
  EXPECT_EQ(user->places.size(), stack.pms->places().size());
  for (const auto& [uid, local] : stack.pms->places().records()) {
    ASSERT_TRUE(user->places.count(uid));
    EXPECT_EQ(user->places.at(uid).label, local.label);
  }
  // Every synced day profile references only known places.
  for (const auto& [day, profile] : user->profiles) {
    for (const auto& entry : profile.places)
      EXPECT_TRUE(user->places.count(entry.place))
          << "day " << day << " references unknown place " << entry.place;
  }
}

TEST(EndToEnd, MetricsScrapeCoversEveryMiddlewareLayer) {
  // The acceptance bar for the telemetry subsystem: after a full-stack run,
  // GET /metrics on the cloud serves families recorded by the net transport,
  // the sampling scheduler, the inference core, the PMS, and the cloud
  // itself — one registry, every layer.
  Stack stack(2);
  for (int day = 0; day < 2; ++day)
    stack.pms->run(TimeWindow{start_of_day(day), start_of_day(day + 1)});
  stack.pms->shutdown(days(2));

  // Scrape as a second registered device (any authenticated user may).
  net::HttpRequest reg;
  reg.method = net::Method::Post;
  reg.path = "/api/register";
  reg.headers[net::kSimTimeHeader] = "0";
  reg.body = Json::object();
  reg.body.set("imei", "scraper-imei");
  reg.body.set("email", "scraper@ops.example");
  const net::HttpResponse registered = stack.cloud->router().handle(reg);
  ASSERT_TRUE(registered.ok());

  net::HttpRequest scrape;
  scrape.method = net::Method::Get;
  scrape.path = "/metrics";
  scrape.headers[net::kSimTimeHeader] = "0";
  scrape.headers["Authorization"] =
      "Bearer " + registered.body.at("token").as_string();
  const net::HttpResponse res = stack.cloud->router().handle(scrape);
  ASSERT_TRUE(res.ok());

  const std::string& text = res.body.at("text").as_string();
  for (const char* family :
       {"net_requests_total", "sensing_samples_total", "core_recluster_total",
        "pms_profile_syncs_total", "cloud_requests_total"})
    EXPECT_NE(text.find(family), std::string::npos)
        << "family missing from scrape: " << family;
}

TEST(EndToEnd, DiscoveredPlacesMatchGroundTruthWell) {
  Stack stack(5);
  apps::LifeLog lifelog;
  lifelog.connect(*stack.pms);
  stack.pms->run(TimeWindow{0, days(5)});
  stack.pms->shutdown(days(5));

  std::vector<algorithms::TruthVisit> truth;
  for (const auto& v : stack.trace->significant_visits(minutes(10)))
    truth.push_back({v.place, v.window});
  std::vector<algorithms::ReportedVisit> reported;
  for (const auto& v : stack.pms->inference().visit_log())
    reported.push_back({static_cast<std::size_t>(v.uid), v.window});

  const auto eval = algorithms::evaluate_discovered(truth, reported);
  EXPECT_GE(eval.fraction(algorithms::DiscoveredOutcome::Correct), 0.5);
  EXPECT_EQ(eval.count(algorithms::DiscoveredOutcome::Spurious), 0u);
}

}  // namespace
}  // namespace pmware
