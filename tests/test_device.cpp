#include "sensing/device.hpp"

#include <gtest/gtest.h>

#include <bit>
#include <cmath>
#include <set>

#include "mobility/participant.hpp"
#include "mobility/schedule.hpp"

namespace pmware::sensing {
namespace {

class DeviceFixture : public ::testing::Test {
 protected:
  void SetUp() override {
    world::WorldConfig config;
    Rng rng(1);
    world_ = world::generate_world(config, rng);
    home_ = world_->place(0).center;
  }

  /// Device pinned at a fixed position, Still, indoors flag configurable.
  Device stationary_device(geo::LatLng pos, bool indoors,
                           DeviceConfig config = {}, std::uint64_t seed = 9) {
    PositionOracle oracle;
    oracle.position = [pos](SimTime) { return pos; };
    oracle.activity = [](SimTime) { return mobility::Activity::Still; };
    oracle.indoors = [indoors](SimTime) { return indoors; };
    return Device(world_, std::move(oracle), config, Rng(seed));
  }

  std::shared_ptr<const world::World> world_;
  geo::LatLng home_;
};

TEST_F(DeviceFixture, GsmServingIsValidAndStrong) {
  Device device = stationary_device(home_, true);
  const GsmReading reading = device.read_gsm(0);
  EXPECT_EQ(reading.serving.mcc, world_->config().mcc);
  EXPECT_EQ(reading.serving.mnc, world_->config().mnc);
  EXPECT_GT(reading.serving_rssi_dbm, world::kCellDetectionDbm - 1);
}

TEST_F(DeviceFixture, OscillationEffectWhileStationary) {
  // Paper §2.2.2: the serving cell changes even when the user is still.
  Device device = stationary_device(home_, true);
  std::set<world::CellId> distinct;
  int changes = 0;
  std::optional<world::CellId> prev;
  for (SimTime t = 0; t < hours(8); t += 60) {
    const GsmReading reading = device.read_gsm(t);
    distinct.insert(reading.serving);
    if (prev && !(*prev == reading.serving)) ++changes;
    prev = reading.serving;
  }
  EXPECT_GE(distinct.size(), 2u);
  EXPECT_GE(changes, 5);
  // ...but hysteresis keeps it from flapping on every sample.
  EXPECT_LT(changes, 8 * 60 / 2);
}

TEST_F(DeviceFixture, ServingCellsAreLocal) {
  Device device = stationary_device(home_, true);
  const auto db = world_->cell_location_db();
  for (SimTime t = 0; t < hours(2); t += 60) {
    const GsmReading reading = device.read_gsm(t);
    ASSERT_TRUE(db.count(reading.serving));
    EXPECT_LT(geo::distance_m(db.at(reading.serving), home_), 3500);
  }
}

TEST_F(DeviceFixture, RatSwitchingProducesBothLayers) {
  Device device = stationary_device(home_, true);
  std::set<world::Radio> rats;
  for (SimTime t = 0; t < hours(12); t += 60)
    rats.insert(device.read_gsm(t).serving.radio);
  EXPECT_EQ(rats.size(), 2u);
}

TEST(Device, FadingIsGaussianAndIndependent) {
  // fade_db over 500 consecutive seconds x 2000 consecutive cell keys
  // (cid x radio), then lag-1 correlations along t and along the key.
  const auto world = [] {
    Rng rng(1);
    return world::generate_world(world::WorldConfig{}, rng);
  }();
  PositionOracle oracle;
  oracle.position = [c = world->place(0).center](SimTime) { return c; };
  oracle.activity = [](SimTime) { return mobility::Activity::Still; };
  oracle.indoors = [](SimTime) { return true; };
  DeviceConfig config;
  config.fading_sigma_db = 3.0;
  Device device(world, oracle, config, Rng(11));
  const double sigma = config.fading_sigma_db;

  constexpr int kTimes = 500, kCells = 2000;
  const auto cell = [](int j) {
    const auto radio = j % 2 == 0 ? world::Radio::Gsm2G : world::Radio::Umts3G;
    return world::CellId{404, 10, 7, static_cast<std::uint32_t>(1000 + j / 2),
                         radio};
  };
  std::vector<double> z(static_cast<std::size_t>(kTimes) * kCells);
  const auto at = [&](int i, int j) -> double& {
    return z[static_cast<std::size_t>(i * kCells + j)];
  };
  double sum = 0, sum_sq = 0, max_abs = 0;
  for (int i = 0; i < kTimes; ++i)
    for (int j = 0; j < kCells; ++j) {
      const double f = device.fade_db(hours(5) + i, cell(j));
      at(i, j) = f / sigma;
      sum += f;
      sum_sq += f * f;
      max_abs = std::max(max_abs, std::abs(f));
    }
  const double n = static_cast<double>(z.size());
  const double mean = sum / n;
  const double sd = std::sqrt(sum_sq / n - mean * mean);
  EXPECT_LT(std::abs(mean), 0.02 * sigma);
  EXPECT_NEAR(sd, sigma, 0.02 * sigma);
  EXPECT_LE(max_abs, 8.58 * sigma);

  // Pearson r of each z with its successor along t or along the key.
  const auto lag1 = [&](bool along_t) {
    double sx = 0, sy = 0, sxx = 0, syy = 0, sxy = 0, m = 0;
    for (int i = 0; i + (along_t ? 1 : 0) < kTimes; ++i)
      for (int j = 0; j + (along_t ? 0 : 1) < kCells; ++j) {
        const double x = at(i, j);
        const double y = along_t ? at(i + 1, j) : at(i, j + 1);
        sx += x, sy += y, sxx += x * x, syy += y * y, sxy += x * y, m += 1;
      }
    const double var_x = sxx / m - sx * sx / (m * m);
    const double var_y = syy / m - sy * sy / (m * m);
    return (sxy / m - sx / m * sy / m) / std::sqrt(var_x * var_y);
  };
  EXPECT_LT(std::abs(lag1(true)), 0.01);
  EXPECT_LT(std::abs(lag1(false)), 0.01);

  // Pure: reads in between and a repeated query give the same fade.
  const double once = device.fade_db(hours(5), cell(3));
  for (SimTime t = 0; t < minutes(30); t += 60) device.read_gsm(t);
  EXPECT_EQ(std::bit_cast<std::uint64_t>(device.fade_db(hours(5), cell(3))),
            std::bit_cast<std::uint64_t>(once));
  EXPECT_EQ(std::bit_cast<std::uint64_t>(once),
            std::bit_cast<std::uint64_t>(at(0, 3) * sigma));
}

TEST_F(DeviceFixture, WifiScanSeesOwnApsAtWifiPlace) {
  // Find a wifi place and scan at its center repeatedly.
  const world::Place* wifi_place = nullptr;
  for (const auto& p : world_->places())
    if (p.has_wifi) { wifi_place = &p; break; }
  ASSERT_NE(wifi_place, nullptr);
  Device device = stationary_device(wifi_place->center, true);
  int scans_with_own = 0;
  for (SimTime t = 0; t < minutes(20); t += 60) {
    const WifiScan scan = device.scan_wifi(t);
    std::set<world::Bssid> seen;
    for (const auto& obs : scan.aps) seen.insert(obs.bssid);
    for (const auto& ap : world_->aps())
      if (ap.place == wifi_place->id && seen.count(ap.bssid)) {
        ++scans_with_own;
        break;
      }
  }
  EXPECT_GE(scans_with_own, 15);
}

TEST_F(DeviceFixture, WifiMissRateRoughlyMatchesConfig) {
  const world::Place* wifi_place = nullptr;
  for (const auto& p : world_->places())
    if (p.has_wifi) { wifi_place = &p; break; }
  ASSERT_NE(wifi_place, nullptr);
  DeviceConfig config;
  config.wifi_miss_prob = 0.5;
  Device device = stationary_device(wifi_place->center, true, config);
  const std::size_t baseline = world_->visible_aps(wifi_place->center, 0).size();
  ASSERT_GT(baseline, 0u);
  double total_seen = 0;
  const int rounds = 200;
  for (int i = 0; i < rounds; ++i)
    total_seen += static_cast<double>(device.scan_wifi(i * 60).aps.size());
  const double observed = total_seen / (rounds * static_cast<double>(baseline));
  EXPECT_NEAR(observed, 0.5, 0.12);
}

TEST_F(DeviceFixture, GpsIndoorDegradation) {
  DeviceConfig config;
  Device indoor = stationary_device(home_, true, config, 3);
  Device outdoor = stationary_device(home_, false, config, 3);
  int indoor_valid = 0, outdoor_valid = 0;
  const int rounds = 400;
  for (int i = 0; i < rounds; ++i) {
    if (indoor.read_gps(i * 30).valid) ++indoor_valid;
    if (outdoor.read_gps(i * 30).valid) ++outdoor_valid;
  }
  EXPECT_NEAR(indoor_valid / static_cast<double>(rounds),
              config.gps_indoor_valid_prob, 0.07);
  EXPECT_NEAR(outdoor_valid / static_cast<double>(rounds),
              config.gps_outdoor_valid_prob, 0.03);
}

TEST_F(DeviceFixture, GpsErrorIsBounded) {
  DeviceConfig config;
  Device device = stationary_device(home_, false, config);
  for (int i = 0; i < 200; ++i) {
    const GpsFix fix = device.read_gps(i * 30);
    if (!fix.valid) continue;
    EXPECT_LT(geo::distance_m(fix.position, home_),
              config.gps_outdoor_sigma_m * 6);
    EXPECT_DOUBLE_EQ(fix.accuracy_m, config.gps_outdoor_sigma_m);
  }
}

TEST_F(DeviceFixture, AccelErrorRateMatchesConfig) {
  DeviceConfig config;
  config.activity_error_prob = 0.2;
  Device device = stationary_device(home_, true, config);
  int wrong = 0;
  const int rounds = 1000;
  for (int i = 0; i < rounds; ++i)
    if (device.read_accel(i * 60).activity != mobility::Activity::Still) ++wrong;
  EXPECT_NEAR(wrong / static_cast<double>(rounds), 0.2, 0.04);
}

TEST_F(DeviceFixture, BluetoothRangeGate) {
  DeviceConfig config;
  config.bluetooth_miss_prob = 0.0;
  Device device = stationary_device(home_, true, config);
  const std::vector<std::pair<world::DeviceId, geo::LatLng>> peers{
      {1, geo::destination(home_, 0, 5)},
      {2, geo::destination(home_, 90, 11)},
      {3, geo::destination(home_, 180, 50)},
      {4, geo::destination(home_, 270, 500)},
  };
  const BluetoothScan scan = device.scan_bluetooth(0, peers);
  const std::set<world::DeviceId> nearby(scan.nearby.begin(), scan.nearby.end());
  EXPECT_TRUE(nearby.count(1));
  EXPECT_TRUE(nearby.count(2));
  EXPECT_FALSE(nearby.count(3));
  EXPECT_FALSE(nearby.count(4));
}

TEST_F(DeviceFixture, BluetoothMissesSometimes) {
  DeviceConfig config;
  config.bluetooth_miss_prob = 0.5;
  Device device = stationary_device(home_, true, config);
  const std::vector<std::pair<world::DeviceId, geo::LatLng>> peers{
      {1, geo::destination(home_, 0, 5)}};
  int seen = 0;
  const int rounds = 400;
  for (int i = 0; i < rounds; ++i)
    seen += static_cast<int>(device.scan_bluetooth(i * 60, peers).nearby.size());
  EXPECT_NEAR(seen / static_cast<double>(rounds), 0.5, 0.1);
}

TEST_F(DeviceFixture, OracleFromTraceWiresThrough) {
  Rng rng(4);
  auto participants = mobility::make_participants(*world_, 1, rng);
  mobility::ScheduleConfig schedule;
  schedule.days = 1;
  const mobility::Trace trace =
      mobility::build_trace(*world_, participants[0], schedule, rng);
  const PositionOracle oracle = oracle_from_trace(trace);
  const SimTime night = hours(3);
  EXPECT_EQ(oracle.position(night).lat, trace.position_at(night).lat);
  EXPECT_EQ(oracle.activity(night), mobility::Activity::Still);
  EXPECT_TRUE(oracle.indoors(night));
}

}  // namespace
}  // namespace pmware::sensing
