// The GSM read's lazy fading cutoff against a reference that fades every
// heard cell, and the DeviceConfig checks that keep the cutoff's bound
// valid.
#include <gtest/gtest.h>

#include <algorithm>
#include <array>
#include <bit>
#include <cmath>
#include <limits>
#include <stdexcept>

#include "mobility/participant.hpp"
#include "mobility/schedule.hpp"
#include "sensing/device.hpp"

namespace pmware::sensing {
namespace {

std::shared_ptr<const world::World> test_world() {
  static const std::shared_ptr<const world::World> world = [] {
    Rng rng(1);
    return world::generate_world(world::WorldConfig{}, rng);
  }();
  return world;
}

/// What the reference saw, so the test can show it covered every branch.
struct Coverage {
  int dead_zone = 0;     ///< nothing hearable
  int none_detected = 0; ///< cells heard, none above detection after fading
  int fallback = 0;      ///< preferred RAT silent, served from the other
  int held = 0;          ///< hysteresis kept the previous serving cell
  int rat_flips = 0;
};

/// The GSM state machine of Device::read_gsm_into with every heard cell
/// faded. It draws the preferred-RAT flips from its own
/// copy of the device's Rng (the device takes its fading key first) and
/// takes each fade from Device::fade_db.
class FadeEveryCellReader {
 public:
  FadeEveryCellReader(const Device& device, PositionOracle oracle, Rng rng)
      : device_(device), oracle_(std::move(oracle)), rng_(rng) {
    rng_.engine()();  // the fading key
  }

  GsmReading read(SimTime t, Coverage& cov) {
    const DeviceConfig& config = device_.config();
    const std::vector<world::HeardCell> heard = device_.world().hearable_cells(
        oracle_.position(t), config.fading_sigma_db * 2);
    GsmReading reading;
    reading.t = t;
    if (heard.empty()) {
      ++cov.dead_zone;
      hold_last(reading);
      return reading;
    }
    if (rng_.bernoulli(config.rat_switch_prob)) {
      ++cov.rat_flips;
      preferred_ = preferred_ == world::Radio::Gsm2G ? world::Radio::Umts3G
                                                      : world::Radio::Gsm2G;
    }
    struct Faded {
      world::CellId cell;
      double rssi;
    };
    std::vector<Faded> faded;
    for (const auto& h : heard)
      faded.push_back({h.cell, h.rssi_dbm + device_.fade_db(t, h.cell)});

    const auto best_in = [&](std::optional<world::Radio> rat) {
      const Faded* best = nullptr;
      for (const auto& c : faded) {
        if (rat && c.cell.radio != *rat) continue;
        if (c.rssi < world::kCellDetectionDbm) continue;
        if (!best || c.rssi > best->rssi) best = &c;
      }
      return best;
    };
    const Faded* best = best_in(preferred_);
    if (best == nullptr) {
      best = best_in(std::nullopt);
      if (best != nullptr) ++cov.fallback;
    }
    if (best == nullptr) {
      ++cov.none_detected;
      hold_last(reading);
      return reading;
    }
    reading.serving = best->cell;
    reading.serving_rssi_dbm = best->rssi;
    if (last_ && last_->radio == best->cell.radio && *last_ != best->cell) {
      for (const auto& c : faded) {
        if (c.cell == *last_ &&
            c.rssi + config.reselect_hysteresis_db >= best->rssi &&
            c.rssi >= world::kCellDetectionDbm) {
          ++cov.held;
          reading.serving = c.cell;
          reading.serving_rssi_dbm = c.rssi;
          break;
        }
      }
    }
    last_ = reading.serving;
    return reading;
  }

 private:
  void hold_last(GsmReading& reading) const {
    if (!last_) return;
    reading.serving = *last_;
    reading.serving_rssi_dbm = -110;
  }

  const Device& device_;
  PositionOracle oracle_;
  Rng rng_;
  world::Radio preferred_ = world::Radio::Gsm2G;
  std::optional<world::CellId> last_;
};

PositionOracle fixed_oracle(std::function<geo::LatLng(SimTime)> position) {
  PositionOracle oracle;
  oracle.position = std::move(position);
  oracle.activity = [](SimTime) { return mobility::Activity::Still; };
  oracle.indoors = [](SimTime) { return false; };
  return oracle;
}

TEST(Device, LazyFadingMatchesFadeEveryCell) {
  const auto world = test_world();
  const geo::LatLng home = world->place(0).center;
  Rng trace_rng(4);
  const auto participants = mobility::make_participants(*world, 1, trace_rng);
  mobility::ScheduleConfig schedule;
  schedule.days = 1;
  const mobility::Trace trace =
      mobility::build_trace(*world, participants[0], schedule, trace_rng);

  struct Walk {
    const char* name;
    PositionOracle oracle;
    SimTime end;
  };
  const std::vector<Walk> walks = {
      {"dwell", fixed_oracle([home](SimTime) { return home; }), hours(12)},
      {"day trace", oracle_from_trace(trace), days(1)},
      // Out of the 6 km city at 5 m/s: the preferred layer fades out
      // first, then everything (dead zone).
      {"drive out", fixed_oracle([home](SimTime t) {
         return geo::destination(home, 30, 5.0 * static_cast<double>(t));
       }),
       hours(3)},
  };

  Coverage cov;
  int reads = 0;
  for (const double sigma : {0.0, 1.0, 3.0, 8.0}) {
    for (const std::uint64_t seed : {77, 78, 83, 89}) {
      for (const Walk& walk : walks) {
        SCOPED_TRACE(::testing::Message() << walk.name << " sigma=" << sigma
                                          << " seed=" << seed);
        DeviceConfig config;
        config.fading_sigma_db = sigma;
        const Rng rng(seed);
        Device device(world, walk.oracle, config, rng);
        FadeEveryCellReader reference(device, walk.oracle, rng);
        for (SimTime t = 0; t < walk.end; t += 60) {
          const GsmReading want = reference.read(t, cov);
          const GsmReading got = device.read_gsm(t);
          ++reads;
          ASSERT_EQ(got.serving, want.serving) << "t=" << t;
          ASSERT_EQ(std::bit_cast<std::uint64_t>(got.serving_rssi_dbm),
                    std::bit_cast<std::uint64_t>(want.serving_rssi_dbm))
              << "t=" << t;
        }
      }
    }
  }
  EXPECT_GT(reads, 10000);
  EXPECT_GT(cov.dead_zone, 0);
  EXPECT_GT(cov.none_detected, 0);
  EXPECT_GT(cov.fallback, 0);
  EXPECT_GT(cov.held, 100);
  EXPECT_GT(cov.rat_flips, 100);
}

// (serving key, RSSI bits) of every GSM read over two participants' two-day
// traces, folded with splitmix64. The traces travel and dwell, and the
// serving cell visits both radios, so a change to the serving choice, the
// hysteresis step or the fade itself moves the digest.
// The constant belongs to the model, not to one implementation of the
// read: any exact cutoff reproduces it.
TEST(Device, ServingSequenceDigestIsPinned) {
  const auto world = test_world();
  Rng trace_rng(11);
  const auto participants = mobility::make_participants(*world, 2, trace_rng);
  mobility::ScheduleConfig schedule;
  schedule.days = 2;
  std::uint64_t digest = 0;
  std::array<int, 2> served_by_radio{};
  std::uint64_t env_misses = 0;
  std::uint64_t env_hits = 0;
  for (std::size_t p = 0; p < participants.size(); ++p) {
    const mobility::Trace trace =
        mobility::build_trace(*world, participants[p], schedule, trace_rng);
    Device device(world, oracle_from_trace(trace), DeviceConfig{}, Rng(500 + p));
    for (SimTime t = 0; t < days(2); t += 60) {
      const GsmReading r = device.read_gsm(t);
      digest = Rng::splitmix64(digest ^ r.serving.key());
      digest = Rng::splitmix64(
          digest ^ std::bit_cast<std::uint64_t>(r.serving_rssi_dbm));
      ++served_by_radio[static_cast<std::size_t>(r.serving.radio)];
    }
    env_misses += device.env_queries() - device.env_hits();
    env_hits += device.env_hits();
  }
  EXPECT_GT(served_by_radio[0], 100);
  EXPECT_GT(served_by_radio[1], 100);
  EXPECT_GT(env_misses, 100u);  // travel
  EXPECT_GT(env_hits, 1000u);   // dwell
  EXPECT_EQ(digest, 2085654644633404575u);
}

TEST(Device, RejectsInvalidFadingConfig) {
  const auto world = test_world();
  const PositionOracle oracle =
      fixed_oracle([c = world->place(0).center](SimTime) { return c; });
  const auto make = [&](double sigma) {
    DeviceConfig config;
    config.fading_sigma_db = sigma;
    return Device(world, oracle, config, Rng(3));
  };
  constexpr double kInf = std::numeric_limits<double>::infinity();
  for (const double sigma : {-1.0, -1e-300, kInf, -kInf,
                             std::numeric_limits<double>::quiet_NaN()})
    EXPECT_THROW(make(sigma), std::invalid_argument) << sigma;
  EXPECT_NO_THROW(make(0.0));
  EXPECT_NO_THROW(make(3.0).read_gsm(0));
}

}  // namespace
}  // namespace pmware::sensing
