// Per-interface power model, calibrated against Figure 1 of the paper
// (HTC A310E Explorer, 1230 mAh): battery duration with GSM sampled every
// minute is ~11x the duration with GPS sampled every minute, with WiFi in
// between and the accelerometer nearly free.
#pragma once

#include <array>
#include <string>

#include "util/simtime.hpp"

namespace pmware::energy {

/// Location/context interfaces the middleware can sample (paper §1/§2.2.2).
enum class Interface : std::uint8_t {
  Gsm = 0,        ///< read the serving cell from the modem
  Wifi = 1,       ///< active AP scan
  Gps = 2,        ///< position fix (incl. wake + tracking cost)
  Accelerometer = 3,
  Bluetooth = 4,  ///< discovery scan for social proximity
};

inline constexpr std::size_t kInterfaceCount = 5;
const char* to_string(Interface i);

/// Energy cost of one sample of each interface, plus the phone's baseline
/// drain. Values are joules / watts of a ~2012 smartphone.
struct PowerProfile {
  /// Joules consumed by a single sample of each interface.
  std::array<double, kInterfaceCount> sample_energy_j{
      0.08,  // GSM: modem is connected anyway; reading state is nearly free
      1.5,   // WiFi scan
      8.0,   // GPS fix, amortized acquisition + CPU wake
      0.06,  // accelerometer burst (a few seconds at ~20 mW)
      1.2,   // Bluetooth discovery scan
  };
  /// Baseline phone drain with the screen off, watts.
  double base_power_w = 0.012;

  double sample_energy(Interface i) const {
    return sample_energy_j[static_cast<std::size_t>(i)];
  }

  /// Average power when interface `i` is sampled every `interval` seconds,
  /// including baseline. Throws on non-positive interval.
  double average_power_w(Interface i, SimDuration interval) const;

  static PowerProfile htc_explorer() { return PowerProfile{}; }
};

/// The paper's reference battery: 1230 mAh at 3.7 V nominal.
struct Battery {
  double capacity_j = 1.230 * 3.7 * 3600;
  double consumed_j = 0;

  void consume(double joules);
  double remaining_j() const { return capacity_j - consumed_j; }
  double remaining_fraction() const { return remaining_j() / capacity_j; }
  bool depleted() const { return consumed_j >= capacity_j; }
};

/// Battery lifetime in seconds at a constant average power draw.
double battery_duration_s(const Battery& battery, double average_power_w);

/// Convenience: lifetime when sampling one interface continuously at a fixed
/// interval (the exact scenario of Figure 1).
double continuous_sensing_duration_s(const PowerProfile& profile,
                                     Interface interface,
                                     SimDuration interval);

}  // namespace pmware::energy
