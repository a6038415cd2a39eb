// Sim-time series recorder + SLO alert engine tests, including the cloud's
// GET /timeseries and GET /alertz surfaces and the determinism guard: a
// study with telemetry fully enabled must produce a byte-identical cloud
// content digest to a study with it all off. Labeled Alerting so ci.sh runs
// the battery in both the tsan and chaos legs.
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "cloud/cloud_instance.hpp"
#include "study/deployment.hpp"
#include "telemetry/alerts.hpp"
#include "telemetry/export.hpp"
#include "telemetry/metrics.hpp"
#include "telemetry/timeseries.hpp"

namespace pmware::telemetry {
namespace {

/// Every test starts from a clean process-wide registry/recorder/engine —
/// they are shared state, and prior tests (or studies) leave residue.
struct TelemetryReset : ::testing::Test {
  TelemetryReset() {
    registry().reset();
    timeseries().configure({/*enabled=*/true, /*interval=*/100,
                            /*capacity=*/8});
    alerts().clear();
  }
};

using RecorderTest = TelemetryReset;
using AlertTest = TelemetryReset;

TEST_F(RecorderTest, SamplesAtMostOncePerIntervalSlot) {
  timeseries().track_counter("rec_events_total");
  Counter& events = registry().counter("rec_events_total", {}, "t");

  events.inc(5);
  EXPECT_FALSE(timeseries().advance(50));   // slot 0: not yet
  EXPECT_TRUE(timeseries().advance(100));   // slot 1 crossed
  EXPECT_FALSE(timeseries().advance(150));  // still slot 1
  events.inc(3);
  EXPECT_TRUE(timeseries().advance(250));   // slot 2 crossed
  EXPECT_FALSE(timeseries().advance(250));

  const auto points = timeseries().points();
  ASSERT_EQ(points.size(), 2u);
  // Stamps snap to the slot boundary; values are per-window deltas.
  EXPECT_EQ(points[0].sim_time, 100);
  EXPECT_EQ(points[1].sim_time, 200);
  ASSERT_EQ(points[0].values.size(), 1u);
  EXPECT_DOUBLE_EQ(points[0].values[0], 5.0);
  EXPECT_DOUBLE_EQ(points[1].values[0], 3.0);
}

TEST_F(RecorderTest, TracksGaugeValuesAndCounterDeltasSideBySide) {
  timeseries().track_counter("rec_ops_total");
  timeseries().track_gauge("rec_depth");
  registry().counter("rec_ops_total", {}, "t").inc(7);
  registry().gauge("rec_depth", {{"q", "a"}}, "t").set(2);
  registry().gauge("rec_depth", {{"q", "b"}}, "t").set(3);
  ASSERT_TRUE(timeseries().advance(100));
  const auto points = timeseries().points();
  ASSERT_EQ(points.size(), 1u);
  EXPECT_DOUBLE_EQ(points[0].values[0], 7.0);  // delta
  EXPECT_DOUBLE_EQ(points[0].values[1], 5.0);  // family sum across series
}

TEST_F(RecorderTest, BoundedRingEvictsOldestAndCountsDrops) {
  timeseries().configure({true, 100, /*capacity=*/2});
  timeseries().track_counter("rec_ring_total");
  for (int slot = 1; slot <= 5; ++slot)
    ASSERT_TRUE(timeseries().advance(slot * 100));
  const auto points = timeseries().points();
  ASSERT_EQ(points.size(), 2u);
  EXPECT_EQ(points[0].sim_time, 400);
  EXPECT_EQ(points[1].sim_time, 500);
  EXPECT_EQ(timeseries().dropped(), 3u);
}

TEST_F(RecorderTest, DisabledRecorderNeverSamples) {
  timeseries().configure({/*enabled=*/false, 100, 8});
  timeseries().track_counter("rec_off_total");
  EXPECT_FALSE(timeseries().advance(1000));
  EXPECT_TRUE(timeseries().points().empty());
}

TEST_F(RecorderTest, ToJsonCarriesSeriesNamesAndPoints) {
  timeseries().track_counter("rec_json_total");
  registry().counter("rec_json_total", {}, "t").inc(4);
  ASSERT_TRUE(timeseries().advance(100));
  const Json doc = timeseries().to_json();
  EXPECT_EQ(doc.at("interval_s").as_int(), 100);
  ASSERT_EQ(doc.at("series").size(), 1u);
  EXPECT_EQ(doc.at("series")[0].as_string(), "rec_json_total");
  ASSERT_EQ(doc.at("points").size(), 1u);
  EXPECT_EQ(doc.at("points")[0].at("t").as_int(), 100);
  EXPECT_DOUBLE_EQ(doc.at("points")[0].at("values")[0].as_double(), 4.0);
}

TEST_F(AlertTest, ThresholdRuleFollowsGaugeFamilySum) {
  alerts().add_rule({"depth", AlertKind::Threshold, "al_depth", 10.0,
                     kSecondsPerDay, "queue too deep"});
  Gauge& depth = registry().gauge("al_depth", {}, "t");
  depth.set(9);
  alerts().evaluate(100);
  EXPECT_EQ(alerts().firing_count(), 0u);
  depth.set(12);
  alerts().evaluate(200);
  EXPECT_EQ(alerts().firing_count(), 1u);
  depth.set(2);
  alerts().evaluate(300);
  EXPECT_EQ(alerts().firing_count(), 0u);
  const auto snap = alerts().snapshot();
  ASSERT_EQ(snap.size(), 1u);
  EXPECT_EQ(snap[0].second.fire_count, 1u);
  EXPECT_EQ(snap[0].second.since, 200);
}

TEST_F(AlertTest, BurnRateWindowsDeltaOverSimTime) {
  // 100 increments over a 100 s window = 1.0/s, over the 0.5/s threshold.
  alerts().add_rule({"burn", AlertKind::BurnRate, "al_burn_total", 0.5,
                     /*window=*/100, "too fast"});
  Counter& c = registry().counter("al_burn_total", {}, "t");
  c.inc(100);
  alerts().evaluate(100);
  EXPECT_EQ(alerts().firing_count(), 1u);
  // No further increments: the trailing window empties out and it resolves.
  alerts().evaluate(200);
  alerts().evaluate(300);
  EXPECT_EQ(alerts().firing_count(), 0u);
  // A second burst is a second rising edge.
  c.inc(100);
  alerts().evaluate(400);
  EXPECT_EQ(alerts().firing_count(), 1u);
  const auto snap = alerts().snapshot();
  EXPECT_EQ(snap[0].second.fire_count, 2u);
  // Rising edges landed in the alerts_fired_total{rule} counter.
  EXPECT_EQ(registry().counter_value("alerts_fired_total", {{"rule", "burn"}}),
            2u);
}

TEST_F(AlertTest, BurnRateCountsIncrementsBeforeFirstEvaluation) {
  // Increments between rule install and the first evaluation must count
  // toward the first window instead of vanishing into the baseline.
  alerts().add_rule({"early", AlertKind::BurnRate, "al_early_total", 0.0,
                     /*window=*/100, "any increase"});
  registry().counter("al_early_total", {}, "t").inc();
  alerts().evaluate(100);
  EXPECT_EQ(alerts().firing_count(), 1u);
}

TEST_F(AlertTest, StalenessFiresWhenProgressStops) {
  alerts().add_rule({"stale", AlertKind::Staleness, "al_progress_total", 0.0,
                     /*window=*/100, "no progress"});
  Counter& c = registry().counter("al_progress_total", {}, "t");
  c.inc();
  alerts().evaluate(0);  // first sight: progress marker set
  c.inc();
  alerts().evaluate(50);  // still moving
  EXPECT_EQ(alerts().firing_count(), 0u);
  alerts().evaluate(120);  // quiet for 70 s — under the window
  EXPECT_EQ(alerts().firing_count(), 0u);
  alerts().evaluate(160);  // quiet for 110 s — stale
  EXPECT_EQ(alerts().firing_count(), 1u);
  c.inc();
  alerts().evaluate(200);  // progress resumed
  EXPECT_EQ(alerts().firing_count(), 0u);
}

TEST_F(AlertTest, DefaultRuleSetCoversTheMiddlewareSlos) {
  alerts().install_default_rules();
  const auto snap = alerts().snapshot();
  std::vector<std::string> names;
  for (const auto& [rule, state] : snap) names.push_back(rule.name);
  EXPECT_EQ(names, (std::vector<std::string>{
                       "breaker-open", "outbox-overflow", "slo-burn",
                       "shard-lock-wait", "study-progress"}));
  // A healthy registry fires nothing.
  Counter& progress =
      registry().counter("study_participant_days_total", {}, "t");
  progress.inc();
  alerts().evaluate(kSecondsPerDay);
  EXPECT_EQ(alerts().firing_count(), 0u);
  // Data loss pages immediately (progress keeps moving, so only the
  // outbox-overflow rule fires).
  registry().counter("pms_outbox_evicted_total", {}, "t").inc();
  progress.inc();
  alerts().evaluate(2 * kSecondsPerDay);
  EXPECT_EQ(alerts().firing_count(), 1u);
  for (const auto& [rule, state] : alerts().snapshot())
    EXPECT_EQ(state.firing, rule.name == "outbox-overflow") << rule.name;
}

TEST_F(AlertTest, ToJsonListsRulesWithLiveState) {
  alerts().add_rule({"one", AlertKind::Threshold, "al_json", 1.0,
                     kSecondsPerDay, "help text"});
  registry().gauge("al_json", {}, "t").set(5);
  alerts().evaluate(100);
  const Json doc = alerts().to_json();
  EXPECT_EQ(doc.at("firing").as_int(), 1);
  ASSERT_EQ(doc.at("rules").size(), 1u);
  const Json& rule = doc.at("rules")[0];
  EXPECT_EQ(rule.at("name").as_string(), "one");
  EXPECT_EQ(rule.at("kind").as_string(), "threshold");
  EXPECT_TRUE(rule.at("firing").as_bool());
  EXPECT_EQ(rule.at("fire_count").as_int(), 1);
}

// ------------------------------------------------- cloud observability API

class EndpointTest : public TelemetryReset {
 protected:
  EndpointTest()
      : cloud_(cloud::CloudConfig{}, cloud::GeoLocationService({}), Rng(1)) {}

  net::HttpRequest request(std::string path) {
    net::HttpRequest req;
    req.method = net::Method::Get;
    req.path = std::move(path);
    req.headers[net::kSimTimeHeader] = "0";
    if (!token_.empty()) req.headers["Authorization"] = "Bearer " + token_;
    return req;
  }

  void register_device() {
    net::HttpRequest req;
    req.method = net::Method::Post;
    req.path = "/api/register";
    req.headers[net::kSimTimeHeader] = "0";
    req.body = Json::object();
    req.body.set("imei", "111");
    req.body.set("email", "a@b.c");
    const net::HttpResponse res = cloud_.router().handle(req);
    ASSERT_EQ(res.status, net::kStatusCreated);
    token_ = res.body.at("token").as_string();
  }

  cloud::CloudInstance cloud_;
  std::string token_;
};

TEST_F(EndpointTest, TimeseriesEndpointIsAuthedAndServesTheRing) {
  timeseries().track_counter("ep_ts_total");
  registry().counter("ep_ts_total", {}, "t").inc(6);
  ASSERT_TRUE(timeseries().advance(100));

  EXPECT_EQ(cloud_.router().handle(request("/timeseries")).status,
            net::kStatusUnauthorized);
  register_device();
  const net::HttpResponse res = cloud_.router().handle(request("/timeseries"));
  ASSERT_EQ(res.status, net::kStatusOk);
  ASSERT_EQ(res.body.at("points").size(), 1u);
  EXPECT_EQ(res.body.at("series")[0].as_string(), "ep_ts_total");
}

TEST_F(EndpointTest, AlertzEndpointIsAuthedAndServesRuleStates) {
  alerts().install_default_rules();
  alerts().evaluate(100);

  EXPECT_EQ(cloud_.router().handle(request("/alertz")).status,
            net::kStatusUnauthorized);
  register_device();
  const net::HttpResponse res = cloud_.router().handle(request("/alertz"));
  ASSERT_EQ(res.status, net::kStatusOk);
  EXPECT_EQ(res.body.at("rules").size(), 5u);
  EXPECT_EQ(res.body.at("firing").as_int(), 0);
}

TEST_F(EndpointTest, MetricsScrapeCarriesBuildInfo) {
  register_device();
  const net::HttpResponse res = cloud_.router().handle(request("/metrics"));
  ASSERT_EQ(res.status, net::kStatusOk);
  const std::string text = res.body.at("text").as_string();
  EXPECT_NE(text.find("pmware_build_info"), std::string::npos);
  EXPECT_NE(text.find("git_describe=\""), std::string::npos);
  EXPECT_NE(text.find("sanitizer=\""), std::string::npos);
  EXPECT_NE(text.find("compiler=\""), std::string::npos);
}

// ------------------------------------------------------ determinism guard

TEST(TelemetryDeterminism, StudyDigestIdenticalWithTelemetryOnAndOff) {
  study::StudyConfig config;
  config.participants = 3;
  config.days = 2;
  config.threads = 2;
  config.shards = 2;

  config.timeseries.enabled = true;
  config.alerts = true;
  study::DeploymentStudy telemetry_on(config);
  const std::uint64_t digest_on = telemetry_on.run().storage_digest;
  // The recorder sampled once per sim-day of fleet progress.
  EXPECT_EQ(timeseries().points().size(),
            static_cast<std::size_t>(config.days));
  EXPECT_FALSE(alerts().snapshot().empty());

  config.timeseries.enabled = false;
  config.alerts = false;
  study::DeploymentStudy telemetry_off(config);
  const std::uint64_t digest_off = telemetry_off.run().storage_digest;
  EXPECT_TRUE(timeseries().points().empty());
  EXPECT_TRUE(alerts().snapshot().empty());

  EXPECT_EQ(digest_on, digest_off)
      << "telemetry must never perturb study results";
}

}  // namespace
}  // namespace pmware::telemetry
