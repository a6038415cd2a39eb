#include "sensing/device.hpp"

#include <algorithm>
#include <array>
#include <bit>
#include <cmath>
#include <limits>
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
// the cutoff in read_gsm_into exact in floating point. clz >= 10 always;
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
  if (config_.max_neighbors < 0)
    throw std::invalid_argument("DeviceConfig: max_neighbors must be >= 0");
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
  const std::vector<world::HeardCell>& heard = cell_env(pos);

  reading.t = t;
  reading.serving = world::CellId{};
  reading.serving_rssi_dbm = 0;
  reading.neighbors.clear();
  if (heard.empty()) {
    // Dead zone: report the last serving cell (phones hold on to it).
    if (last_serving_) {
      reading.serving = *last_serving_;
      reading.serving_rssi_dbm = -110;
    }
    return;
  }

  // Occasional preferred-RAT flip models 2G<->3G handoff (load balancing,
  // data-session start/stop) — one driver of the oscillating effect.
  if (rng_.bernoulli(config_.rat_switch_prob))
    preferred_rat_ = preferred_rat_ == world::Radio::Gsm2G
                         ? world::Radio::Umts3G
                         : world::Radio::Gsm2G;

  // Fade lazily. Besides the last serving cell (faded on its own by the
  // hysteresis step), the reading depends only on the strongest
  // preferred-RAT cell and the k = max_neighbors + 1 strongest cells
  // overall (the neighbour list plus the serving cell it skips; the first
  // is the any-RAT fallback), all above detection. `heard` is sorted by
  // pre-fade RSSI, strongest first, and each cell's hash alone bounds its
  // fade (unit_bound), so a cell whose pre-fade RSSI plus that bound
  // cannot reach the k-th best faded so far (nor, for a preferred-RAT cell,
  // the best preferred so far) is skipped without running log/cos; once
  // not even the largest possible fade can reach, no later cell can. The
  // result equals fading every heard cell: a skipped cell ranks below k
  // evaluated ones (or below the best preferred one) or under detection.
  const double sigma = config_.fading_sigma_db;
  const double max_fade = sigma * kUnitBound.back();
  const std::size_t k = static_cast<std::size_t>(config_.max_neighbors) + 1;
  const std::uint64_t read_key = this->read_key(t);
  constexpr double kNone = -std::numeric_limits<double>::infinity();
  double kth_best = kNone;  // k-th strongest faded so far
  std::optional<Candidate> best_preferred;
  top_.clear();  // strongest faded first; ties keep heard order
  for (const auto& h : heard) {
    const bool preferred = h.cell.radio == preferred_rat_;
    const double best_pref = best_preferred ? best_preferred->rssi : kNone;
    const double floor_pref =
        std::max(world::kCellDetectionDbm, std::min(kth_best, best_pref));
    if (h.rssi_dbm + max_fade < floor_pref) break;
    const std::uint64_t bits = Rng::splitmix64(read_key ^ h.cell.key());
    const double floor =
        preferred ? floor_pref : std::max(world::kCellDetectionDbm, kth_best);
    if (h.rssi_dbm + sigma * unit_bound(bits) < floor) continue;
    const Candidate c{h.cell, h.rssi_dbm + sigma * unit_gaussian(bits)};
    if (c.rssi < world::kCellDetectionDbm) continue;
    if (preferred && c.rssi > best_pref) best_preferred = c;
    if (c.rssi <= kth_best) continue;
    const auto weaker = [&](const Candidate& o) { return o.rssi < c.rssi; };
    top_.insert(std::find_if(top_.begin(), top_.end(), weaker), c);
    if (top_.size() > k) top_.pop_back();
    if (top_.size() == k) kth_best = top_.back().rssi;
  }

  // Serve the strongest cell in the preferred RAT; fall back to any RAT
  // when the preferred layer is silent.
  const Candidate* best = best_preferred ? &*best_preferred
                          : top_.empty() ? nullptr
                                         : &top_.front();
  if (best == nullptr) {
    if (last_serving_) {
      reading.serving = *last_serving_;
      reading.serving_rssi_dbm = -110;
    }
    return;
  }

  // Reselection hysteresis: keep the previous serving cell unless the
  // challenger is clearly stronger (and the RAT did not just switch).
  bool keep_previous = false;
  if (last_serving_ && last_serving_->radio == best->cell.radio &&
      *last_serving_ != best->cell) {
    for (const auto& h : heard) {
      if (h.cell != *last_serving_) continue;
      const double rssi = h.rssi_dbm + fade_db(t, h.cell);
      if (rssi + config_.reselect_hysteresis_db >= best->rssi &&
          rssi >= world::kCellDetectionDbm) {
        reading.serving = h.cell;
        reading.serving_rssi_dbm = rssi;
        keep_previous = true;
      }
      break;
    }
  }
  if (!keep_previous) {
    reading.serving = best->cell;
    reading.serving_rssi_dbm = best->rssi;
  }
  last_serving_ = reading.serving;
  last_serving_rssi_ = reading.serving_rssi_dbm;

  // Neighbour list: the strongest other cells, any RAT, at most
  // max_neighbors of them.
  for (const auto& c : top_) {
    if (reading.neighbors.size() == k - 1) break;
    if (c.cell != reading.serving) reading.neighbors.push_back(c.cell);
  }
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
