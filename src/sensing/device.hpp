// Simulated handset: turns the ground-truth position of a participant into
// the noisy sensor readings a real phone would produce.
//
// The GSM model deliberately reproduces the "oscillating effect" of paper
// §2.2.2: the serving cell changes while the user is stationary, due to
// per-sample fading, load-dependent reselection, and 2G<->3G handoff. GCA's
// movement graph exists to absorb exactly this noise.
//
// Fading contract: a cell's fade at time t is a pure function of the
// device's fading key, t and the cell — fade_db(t, cell) = σ·z with z a
// Box-Muller normal on two 53-bit uniforms hashed (splitmix64) from the
// three, so |z| <= sqrt(106 ln 2) < 8.58. The key is the first 64-bit output
// of the device's Rng, taken at construction. A GSM read fades only the
// cells that can change it: heard cells are walked strongest pre-fade
// first, and a cell whose pre-fade RSSI plus its hash-derived bound cannot
// reach the serving choice or the top max_neighbors + 1 is skipped without
// running the transcendentals. The cutoff is exact: every reading equals
// the one from fading every heard cell with the same fade_db, and no fade
// depends on the order or number of cells evaluated.
//
// Hot-path structure: the deterministic part of the radio environment —
// which towers/APs are hearable at a position and their pre-fading RSSI —
// is a pure function of the position, and participants dwell at places for
// most of the day, so the device memoizes it keyed on the exact position
// and only re-runs the spatial query + path-loss + sort when the position
// changes. The other stochastic parts (preferred-RAT flips, missed beacons,
// WiFi/GPS noise) are drawn from the device Rng in the same order with the
// cache on or off (reuse_world_env), so readings are byte-identical either
// way. The *_into / *_run entry points reuse caller-owned readings and
// internal scratch buffers: after warmup the per-sample loop performs no
// heap allocations.
#pragma once

#include <functional>
#include <memory>
#include <span>

#include "sensing/readings.hpp"
#include "util/rng.hpp"
#include "world/world.hpp"

namespace pmware::sensing {

struct DeviceConfig {
  double fading_sigma_db = 3.0;       ///< per-sample RSSI noise, finite, >= 0
  double reselect_hysteresis_db = 2.0;///< challenger must beat serving by this
  double rat_switch_prob = 0.06;      ///< chance a read flips preferred 2G/3G
  int max_neighbors = 6;              ///< >= 0
  double wifi_miss_prob = 0.10;       ///< per-AP missed-beacon probability
  double gps_outdoor_valid_prob = 0.97;
  double gps_indoor_valid_prob = 0.55;
  double gps_outdoor_sigma_m = 8.0;
  double gps_indoor_sigma_m = 25.0;
  double activity_error_prob = 0.05;  ///< accelerometer misclassification
  double bluetooth_range_m = 12.0;
  double bluetooth_miss_prob = 0.15;
  /// Reuse the hearable-cells / visible-APs spatial query result while the
  /// position is unchanged (dwells dominate real traces). Readings are
  /// byte-identical either way; off = honest "before" baseline for benches.
  bool reuse_world_env = true;
};

/// Ground-truth oracle the device samples: where the participant is and what
/// they are doing. Implemented by mobility::Trace in production use.
struct PositionOracle {
  std::function<geo::LatLng(SimTime)> position;
  std::function<mobility::Activity(SimTime)> activity;
  /// Whether the participant is inside a building (degrades GPS).
  std::function<bool(SimTime)> indoors;
};

/// Builds a PositionOracle backed by a ground-truth trace.
PositionOracle oracle_from_trace(const mobility::Trace& trace);

class Device {
 public:
  /// Throws std::invalid_argument for a negative or non-finite
  /// fading_sigma_db or a negative max_neighbors.
  Device(std::shared_ptr<const world::World> world, PositionOracle oracle,
         DeviceConfig config, Rng rng);

  /// Reads modem state. Stateful: reselection hysteresis and the preferred
  /// radio-access technology persist between reads.
  GsmReading read_gsm(SimTime t);

  /// Allocation-free read_gsm: refills `out` (including its neighbor list)
  /// in place, reusing its capacity across calls.
  void read_gsm_into(SimTime t, GsmReading& out);

  /// Runs an active WiFi scan.
  WifiScan scan_wifi(SimTime t);

  /// Allocation-free scan_wifi: refills `out` in place.
  void scan_wifi_into(SimTime t, WifiScan& out);

  /// Reads a run of GSM samples at the given times, reusing one scratch
  /// reading. `sink(reading)` is invoked per sample in order; returning
  /// false stops the run after that sample. Returns how many samples were
  /// read (== the count the scheduler should treat as consumed). RNG draws
  /// happen in exactly per-sample order, so interleaving runs with single
  /// reads is byte-identical.
  std::size_t read_gsm_run(std::span<const SimTime> times,
                           const std::function<bool(const GsmReading&)>& sink);

  /// WiFi analogue of read_gsm_run().
  std::size_t scan_wifi_run(std::span<const SimTime> times,
                            const std::function<bool(const WifiScan&)>& sink);

  /// Attempts a GPS fix.
  GpsFix read_gps(SimTime t);

  /// Samples the activity detector.
  AccelReading read_accel(SimTime t);

  /// Bluetooth discovery against the supplied positions of other devices.
  BluetoothScan scan_bluetooth(
      SimTime t,
      std::span<const std::pair<world::DeviceId, geo::LatLng>> others);

  /// The RSSI fading (dB) `cell` gets in a GSM read at `t`: a pure
  /// function of the fading key (the first output of the device's Rng),
  /// `t` and `cell`.
  double fade_db(SimTime t, const world::CellId& cell) const;

  const DeviceConfig& config() const { return config_; }
  const world::World& world() const { return *world_; }

  /// Spatial-query cache effectiveness: queries answered from the cached
  /// environment vs. total. The microbench asserts a high hit rate on
  /// dwell-dominated traces.
  std::uint64_t env_queries() const { return env_queries_; }
  std::uint64_t env_hits() const { return env_hits_; }

 private:
  /// Hearable cells at `pos`, memoized on exact position equality.
  const std::vector<world::HeardCell>& cell_env(const geo::LatLng& pos);
  /// Visible APs at `pos`, memoized on exact position equality.
  const std::vector<world::HeardAp>& ap_env(const geo::LatLng& pos);
  /// Hash of (fading key, t) shared by every cell's fade in one read.
  std::uint64_t read_key(SimTime t) const;

  std::shared_ptr<const world::World> world_;
  PositionOracle oracle_;
  DeviceConfig config_;
  Rng rng_;
  std::uint64_t fading_key_ = 0;
  world::Radio preferred_rat_ = world::Radio::Gsm2G;
  std::optional<world::CellId> last_serving_;
  double last_serving_rssi_ = -999;

  // Position-keyed radio-environment caches + stats. The key is the exact
  // position: traces return a constant anchor while dwelling, so equality
  // (not proximity) is the right invalidation rule.
  std::optional<geo::LatLng> cell_env_pos_;
  std::vector<world::HeardCell> cell_env_;
  std::optional<geo::LatLng> ap_env_pos_;
  std::vector<world::HeardAp> ap_env_;
  std::uint64_t env_queries_ = 0;
  std::uint64_t env_hits_ = 0;

  // Per-sample scratch, reused across reads (zero-alloc hot loop).
  struct Candidate {
    world::CellId cell;
    double rssi;
  };
  std::vector<Candidate> top_;  ///< a read's max_neighbors + 1 strongest
  GsmReading gsm_scratch_;
  WifiScan wifi_scratch_;
};

}  // namespace pmware::sensing
