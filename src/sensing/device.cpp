#include "sensing/device.hpp"

#include <algorithm>
#include <array>
#include <bit>
#include <cmath>
#include <numbers>
#include <stdexcept>

namespace pmware::sensing {

namespace {

// A cell's fade is Box-Muller on two 53-bit uniforms taken from its hash
// `bits`: u1 = (m + 1)·2^-53 in (0, 1] from the top 53 bits, u2 in [0, 1)
// from the top 53 bits of Rng::splitmix64(bits).
std::uint64_t u1_mantissa(std::uint64_t bits) { return (bits >> 11) + 1; }

double unit_gaussian(std::uint64_t bits) {
  const double u1 = static_cast<double>(u1_mantissa(bits)) * 0x1p-53;
  const double u2 = static_cast<double>(Rng::splitmix64(bits) >> 11) * 0x1p-53;
  return std::sqrt(-2.0 * std::log(u1)) *
         std::cos(2.0 * std::numbers::pi * u2);
}

// kUnitBound[countl_zero(m + 1)] bounds |unit_gaussian|: u1 lies in the
// binade [2^(10-clz), 2^(11-clz)), so -2 ln u1 <= 2 ln2 · (clz - 10). The
// 1e-9 relative slack covers the rounding of log/sqrt/cos, which keeps
// the cutoff in strongest_faded exact in floating point. clz >= 10 always;
// the largest entry, sqrt(106 ln 2) < 8.58, bounds every fade.
const std::array<double, 64> kUnitBound = [] {
  std::array<double, 64> bound{};
  for (int clz = 10; clz < 64; ++clz)
    bound[clz] = std::sqrt(2.0 * std::numbers::ln2 * (clz - 10)) * (1 + 1e-9);
  return bound;
}();

double unit_bound(std::uint64_t bits) {
  return kUnitBound[std::countl_zero(u1_mantissa(bits))];
}

std::size_t radio_index(world::Radio radio) {
  return static_cast<std::size_t>(radio);
}

world::Radio other_radio(world::Radio radio) {
  return radio == world::Radio::Gsm2G ? world::Radio::Umts3G
                                      : world::Radio::Gsm2G;
}

}  // namespace

PositionOracle oracle_from_trace(const mobility::Trace& trace) {
  PositionOracle oracle;
  oracle.position = [&trace](SimTime t) { return trace.position_at(t); };
  oracle.activity = [&trace](SimTime t) { return trace.activity_at(t); };
  oracle.indoors = [&trace](SimTime t) { return trace.place_at(t).has_value(); };
  return oracle;
}

Device::Device(std::shared_ptr<const world::World> world, PositionOracle oracle,
               DeviceConfig config, Rng rng)
    : world_(std::move(world)),
      oracle_(std::move(oracle)),
      config_(config),
      rng_(rng),
      fading_key_(rng_.engine()()) {
  if (!std::isfinite(config_.fading_sigma_db) || config_.fading_sigma_db < 0)
    throw std::invalid_argument(
        "DeviceConfig: fading_sigma_db must be finite and >= 0");
}

double Device::fade_db(SimTime t, const world::CellId& cell) const {
  return config_.fading_sigma_db *
         unit_gaussian(Rng::splitmix64(read_key(t) ^ cell.key()));
}

std::uint64_t Device::read_key(SimTime t) const {
  return Rng::splitmix64(fading_key_ ^ static_cast<std::uint64_t>(t));
}

const std::vector<world::HeardCell>& Device::cell_env(const geo::LatLng& pos) {
  ++env_queries_;
  if (config_.reuse_world_env && cell_env_pos_ && *cell_env_pos_ == pos) {
    ++env_hits_;
    return cell_env_;
  }
  world_->hearable_cells_into(pos, cell_env_, config_.fading_sigma_db * 2);
  cell_env_pos_ = pos;
  for (RadioLayer& layer : layers_) {
    layer.heard.clear();
    layer.key.clear();
    layer.rssi.clear();
  }
  for (std::uint32_t i = 0; i < cell_env_.size(); ++i) {
    const world::HeardCell& h = cell_env_[i];
    RadioLayer& layer = layers_[radio_index(h.cell.radio)];
    layer.heard.push_back(i);
    layer.key.push_back(h.cell.key());
    layer.rssi.push_back(h.rssi_dbm);
  }
  return cell_env_;
}

const std::vector<world::HeardAp>& Device::ap_env(const geo::LatLng& pos) {
  ++env_queries_;
  if (config_.reuse_world_env && ap_env_pos_ && *ap_env_pos_ == pos) {
    ++env_hits_;
    return ap_env_;
  }
  world_->visible_aps_into(pos, ap_env_, 4.0);
  ap_env_pos_ = pos;
  return ap_env_;
}

GsmReading Device::read_gsm(SimTime t) {
  GsmReading reading;
  read_gsm_into(t, reading);
  return reading;
}

void Device::read_gsm_into(SimTime t, GsmReading& reading) {
  const geo::LatLng pos = oracle_.position(t);
  const bool dead_zone = cell_env(pos).empty();

  reading.t = t;
  reading.serving = world::CellId{};
  reading.serving_rssi_dbm = 0;
  if (dead_zone) {
    // Dead zone: report the last serving cell (phones hold on to it).
    hold_last_serving(reading);
    return;
  }

  // Occasional preferred-RAT flip models 2G<->3G handoff (load balancing,
  // data-session start/stop) — one driver of the oscillating effect.
  if (rng_.bernoulli(config_.rat_switch_prob))
    preferred_rat_ = other_radio(preferred_rat_);

  // Serve the strongest cell in the preferred RAT; fall back to the other
  // layer when the preferred one is silent.
  const std::uint64_t read_key = this->read_key(t);
  const RadioLayer* layer = &layers_[radio_index(preferred_rat_)];
  std::optional<Faded> best = strongest_faded(*layer, read_key);
  if (!best) {
    layer = &layers_[radio_index(other_radio(preferred_rat_))];
    best = strongest_faded(*layer, read_key);
  }
  if (!best) {
    hold_last_serving(reading);
    return;
  }
  const world::CellId& best_cell = cell_env_[layer->heard[best->at]].cell;
  reading.serving = best_cell;
  reading.serving_rssi_dbm = best->rssi;

  // Reselection hysteresis: keep the previous serving cell unless the
  // challenger is clearly stronger (and the RAT did not just switch).
  if (last_serving_ && last_serving_->radio == best_cell.radio &&
      *last_serving_ != best_cell) {
    const auto it =
        std::find(layer->key.begin(), layer->key.end(), last_serving_->key());
    if (it != layer->key.end()) {
      const auto i = static_cast<std::size_t>(it - layer->key.begin());
      const double rssi =
          layer->rssi[i] + config_.fading_sigma_db *
                               unit_gaussian(Rng::splitmix64(read_key ^ *it));
      if (rssi + config_.reselect_hysteresis_db >= best->rssi &&
          rssi >= world::kCellDetectionDbm) {
        reading.serving = cell_env_[layer->heard[i]].cell;
        reading.serving_rssi_dbm = rssi;
      }
    }
  }
  last_serving_ = reading.serving;
}

std::optional<Device::Faded> Device::strongest_faded(
    const RadioLayer& layer, std::uint64_t read_key) const {
  // Each cell's hash alone bounds its fade (unit_bound), so a cell whose
  // pre-fade RSSI plus that bound cannot reach the floor, max(detection,
  // best so far), is skipped without running log/cos. A skipped cell could
  // at best tie the best so far, and ties go to the earlier heard cell.
  // The layer is strongest pre-fade first, so once not even the largest
  // possible fade reaches the floor, no later cell can either.
  const double sigma = config_.fading_sigma_db;
  const double max_fade = sigma * kUnitBound.back();
  std::optional<Faded> best;
  double floor = world::kCellDetectionDbm;
  for (std::size_t i = 0; i < layer.key.size(); ++i) {
    if (layer.rssi[i] + max_fade < floor) break;
    const std::uint64_t bits = Rng::splitmix64(read_key ^ layer.key[i]);
    if (layer.rssi[i] + sigma * unit_bound(bits) < floor) continue;
    const double rssi = layer.rssi[i] + sigma * unit_gaussian(bits);
    if (best ? rssi <= floor : rssi < floor) continue;
    best = Faded{i, rssi};
    floor = rssi;
  }
  return best;
}

void Device::hold_last_serving(GsmReading& reading) const {
  if (!last_serving_) return;
  reading.serving = *last_serving_;
  reading.serving_rssi_dbm = -110;
}

std::size_t Device::read_gsm_run(
    std::span<const SimTime> times,
    const std::function<bool(const GsmReading&)>& sink) {
  std::size_t n = 0;
  for (const SimTime t : times) {
    read_gsm_into(t, gsm_scratch_);
    ++n;
    if (!sink(gsm_scratch_)) break;
  }
  return n;
}

WifiScan Device::scan_wifi(SimTime t) {
  WifiScan scan;
  scan_wifi_into(t, scan);
  return scan;
}

void Device::scan_wifi_into(SimTime t, WifiScan& scan) {
  const geo::LatLng pos = oracle_.position(t);
  scan.t = t;
  scan.aps.clear();
  for (const auto& ap : ap_env(pos)) {
    if (rng_.bernoulli(config_.wifi_miss_prob)) continue;
    const double rssi = ap.rssi_dbm + rng_.normal(0, 2.0);
    if (rssi < world::kWifiDetectionDbm) continue;
    scan.aps.push_back({ap.bssid, rssi});
  }
}

std::size_t Device::scan_wifi_run(
    std::span<const SimTime> times,
    const std::function<bool(const WifiScan&)>& sink) {
  std::size_t n = 0;
  for (const SimTime t : times) {
    scan_wifi_into(t, wifi_scratch_);
    ++n;
    if (!sink(wifi_scratch_)) break;
  }
  return n;
}

GpsFix Device::read_gps(SimTime t) {
  const geo::LatLng pos = oracle_.position(t);
  const bool indoors = oracle_.indoors(t);
  GpsFix fix;
  fix.t = t;
  const double valid_prob = indoors ? config_.gps_indoor_valid_prob
                                    : config_.gps_outdoor_valid_prob;
  if (!rng_.bernoulli(valid_prob)) return fix;  // no fix
  const double sigma =
      indoors ? config_.gps_indoor_sigma_m : config_.gps_outdoor_sigma_m;
  fix.valid = true;
  fix.position = geo::destination(pos, rng_.uniform(0, 360),
                                  std::abs(rng_.normal(0, sigma)));
  fix.accuracy_m = sigma;
  return fix;
}

AccelReading Device::read_accel(SimTime t) {
  const mobility::Activity truth = oracle_.activity(t);
  AccelReading reading;
  reading.t = t;
  reading.activity = truth;
  if (rng_.bernoulli(config_.activity_error_prob)) {
    // Misclassify into a uniformly-chosen other state.
    const mobility::Activity all[3] = {mobility::Activity::Still,
                                       mobility::Activity::Walking,
                                       mobility::Activity::Vehicle};
    mobility::Activity wrong = truth;
    while (wrong == truth) wrong = all[rng_.index(3)];
    reading.activity = wrong;
  }
  return reading;
}

BluetoothScan Device::scan_bluetooth(
    SimTime t, std::span<const std::pair<world::DeviceId, geo::LatLng>> others) {
  const geo::LatLng pos = oracle_.position(t);
  BluetoothScan scan;
  scan.t = t;
  for (const auto& [id, other_pos] : others) {
    if (geo::distance_m(pos, other_pos) > config_.bluetooth_range_m) continue;
    if (rng_.bernoulli(config_.bluetooth_miss_prob)) continue;
    scan.nearby.push_back(id);
  }
  return scan;
}

}  // namespace pmware::sensing
