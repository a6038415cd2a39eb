// Raw sensor readings as the device drivers deliver them to the middleware.
#pragma once

#include <vector>

#include "geo/latlng.hpp"
#include "mobility/trace.hpp"
#include "util/simtime.hpp"
#include "world/ids.hpp"

namespace pmware::sensing {

/// GSM modem state: the serving cell and its RSSI (paper §2.2.2 tracks the
/// serving Cell ID, LAC, MNC and MCC continuously; GCA clusters the serving
/// cell and its oscillation, so the modem's neighbour list is not modelled).
struct GsmReading {
  SimTime t = 0;
  world::CellId serving;
  double serving_rssi_dbm = 0;
};

/// One AP seen in a WiFi scan.
struct WifiObservation {
  world::Bssid bssid = 0;
  double rssi_dbm = 0;
};

/// Result of an active WiFi scan.
struct WifiScan {
  SimTime t = 0;
  std::vector<WifiObservation> aps;
};

/// GPS fix; `valid == false` models indoor/urban-canyon acquisition failure.
struct GpsFix {
  SimTime t = 0;
  bool valid = false;
  geo::LatLng position;
  double accuracy_m = 0;  ///< 1-sigma horizontal error estimate
};

/// Output of the accelerometer-based activity detector.
struct AccelReading {
  SimTime t = 0;
  mobility::Activity activity = mobility::Activity::Still;
};

/// Devices seen in a Bluetooth discovery scan (social proximity, §2.2.2).
struct BluetoothScan {
  SimTime t = 0;
  std::vector<world::DeviceId> nearby;
};

}  // namespace pmware::sensing
