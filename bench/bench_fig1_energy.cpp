// Experiment E1 — Figure 1 of the paper: power consumption analysis of the
// location interfaces under continuous sensing, on the HTC A310E Explorer
// (1230 mAh). The paper's headline: battery duration with GSM sampled every
// minute is ~11x the duration with GPS at the same rate.
//
// Two views are printed:
//   1. the analytic model (average power -> battery duration), and
//   2. a simulated validation: the sampling scheduler actually runs one
//      simulated day per (interface, interval) cell and the energy meter's
//      implied battery duration is reported.
#include <cstdio>

#include "energy/meter.hpp"
#include "energy/profile.hpp"
#include "sensing/scheduler.hpp"
#include "telemetry/export.hpp"
#include "telemetry/log.hpp"
#include "util/simtime.hpp"
#include "util/strfmt.hpp"

using namespace pmware;
using energy::Interface;

namespace {

constexpr Interface kInterfaces[] = {Interface::Gsm, Interface::Accelerometer,
                                     Interface::Wifi, Interface::Gps};
constexpr SimDuration kIntervals[] = {10, 30, 60, 120, 300, 600};

double simulated_duration_h(Interface interface, SimDuration interval) {
  energy::EnergyMeter meter;
  sensing::SamplingScheduler scheduler(&meter);
  scheduler.set_period(interface, interval);
  scheduler.run(TimeWindow{0, days(1)});
  return meter.implied_battery_duration_s(days(1)) / 3600.0;
}

}  // namespace

int main(int argc, char** argv) {
  const std::string json_path =
      telemetry::bench_json_path(argc, argv, "fig1_energy");
  telemetry::apply_log_level_flag(argc, argv);
  const energy::PowerProfile profile = energy::PowerProfile::htc_explorer();

  std::printf("=== Figure 1: continuous-sensing battery duration ===\n");
  std::printf("battery: 1230 mAh @ 3.7 V = %.0f J, baseline %.1f mW\n\n",
              energy::Battery{}.capacity_j, profile.base_power_w * 1000);

  std::printf("-- analytic model: average power (mW) --\n");
  std::printf("%-10s", "interval");
  for (Interface i : kInterfaces) std::printf("%10s", to_string(i));
  std::printf("\n");
  for (SimDuration interval : kIntervals) {
    std::printf("%6llds   ", static_cast<long long>(interval));
    for (Interface i : kInterfaces)
      std::printf("%10.2f", profile.average_power_w(i, interval) * 1000);
    std::printf("\n");
  }

  std::printf("\n-- analytic model: battery duration (hours) --\n");
  std::printf("%-10s", "interval");
  for (Interface i : kInterfaces) std::printf("%10s", to_string(i));
  std::printf("\n");
  for (SimDuration interval : kIntervals) {
    std::printf("%6llds   ", static_cast<long long>(interval));
    for (Interface i : kInterfaces)
      std::printf("%10.1f",
                  continuous_sensing_duration_s(profile, i, interval) / 3600.0);
    std::printf("\n");
  }

  std::printf("\n-- simulated (scheduler + energy meter, 1 day): hours --\n");
  std::printf("%-10s", "interval");
  for (Interface i : kInterfaces) std::printf("%10s", to_string(i));
  std::printf("\n");
  for (SimDuration interval : kIntervals) {
    std::printf("%6llds   ", static_cast<long long>(interval));
    for (Interface i : kInterfaces)
      std::printf("%10.1f", simulated_duration_h(i, interval));
    std::printf("\n");
  }

  const double gsm_1min = continuous_sensing_duration_s(profile, Interface::Gsm, 60);
  const double gps_1min = continuous_sensing_duration_s(profile, Interface::Gps, 60);
  std::printf("\nheadline ratio (paper: ~11x): GSM@1min / GPS@1min = %.1fx\n",
              gsm_1min / gps_1min);
  std::printf("  GSM@1min:  %6.1f h (%.1f days)\n", gsm_1min / 3600,
              gsm_1min / 86400);
  std::printf("  WiFi@1min: %6.1f h\n",
              continuous_sensing_duration_s(profile, Interface::Wifi, 60) / 3600);
  std::printf("  GPS@1min:  %6.1f h\n", gps_1min / 3600);

  if (!json_path.empty()) {
    Json durations = Json::object();
    for (Interface i : kInterfaces) {
      Json per_interval = Json::object();
      for (SimDuration interval : kIntervals)
        per_interval.set(
            strfmt("%llds", static_cast<long long>(interval)),
            continuous_sensing_duration_s(profile, i, interval) / 3600.0);
      durations.set(to_string(i), std::move(per_interval));
    }
    Json extra = Json::object();
    extra.set("battery_duration_h", std::move(durations));
    extra.set("gsm_over_gps_at_1min", gsm_1min / gps_1min);
    if (!telemetry::write_bench_json(json_path, "fig1_energy",
                                     std::move(extra)))
      return 1;
  }
  return 0;
}
