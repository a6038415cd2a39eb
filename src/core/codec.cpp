#include "core/codec.hpp"

#include <cstdlib>
#include <limits>
#include <stdexcept>
#include <unordered_map>

#include "util/strfmt.hpp"

namespace pmware::core {

const char* to_string(Granularity g) {
  switch (g) {
    case Granularity::Area: return "area";
    case Granularity::Building: return "building";
    case Granularity::Room: return "room";
  }
  return "?";
}

Json to_json(const world::CellId& cell) {
  Json j = Json::object();
  j.set("mcc", static_cast<std::int64_t>(cell.mcc));
  j.set("mnc", static_cast<std::int64_t>(cell.mnc));
  j.set("lac", static_cast<std::int64_t>(cell.lac));
  j.set("cid", static_cast<std::int64_t>(cell.cid));
  j.set("radio", cell.radio == world::Radio::Gsm2G ? "2g" : "3g");
  return j;
}

namespace {

/// `j[key]` as an unsigned field of type T; a negative or wider value throws
/// instead of wrapping in the narrowing cast.
template <typename T>
T unsigned_field(const Json& j, const char* key) {
  const std::int64_t v = j.at(key).as_int();
  if (v < 0 || static_cast<std::uint64_t>(v) > std::numeric_limits<T>::max())
    throw JsonError(std::string("cell field out of range: ") + key);
  return static_cast<T>(v);
}

}  // namespace

world::CellId cell_from_json(const Json& j) {
  world::CellId cell;
  cell.mcc = unsigned_field<std::uint16_t>(j, "mcc");
  cell.mnc = unsigned_field<std::uint16_t>(j, "mnc");
  cell.lac = unsigned_field<std::uint16_t>(j, "lac");
  cell.cid = unsigned_field<std::uint32_t>(j, "cid");
  cell.radio = j.get_string("radio", "2g") == "3g" ? world::Radio::Umts3G
                                                   : world::Radio::Gsm2G;
  return cell;
}

Json to_json(const geo::LatLng& p) {
  Json j = Json::object();
  j.set("lat", p.lat);
  j.set("lng", p.lng);
  return j;
}

geo::LatLng latlng_from_json(const Json& j) {
  return {j.at("lat").as_double(), j.at("lng").as_double()};
}

Json to_json(const algorithms::PlaceSignature& sig) {
  Json j = Json::object();
  if (const auto* c = std::get_if<algorithms::CellSignature>(&sig)) {
    j.set("kind", "cells");
    Json arr = Json::array();
    for (const auto& cell : c->cells) arr.push_back(to_json(cell));
    j.set("cells", std::move(arr));
  } else if (const auto* w = std::get_if<algorithms::WifiSignature>(&sig)) {
    j.set("kind", "wifi");
    Json arr = Json::array();
    for (world::Bssid b : w->aps) arr.push_back(static_cast<std::uint64_t>(b));
    j.set("aps", std::move(arr));
  } else {
    const auto& g = std::get<algorithms::GpsSignature>(sig);
    j.set("kind", "gps");
    j.set("center", to_json(g.center));
    j.set("radius_m", g.radius_m);
  }
  return j;
}

algorithms::PlaceSignature signature_from_json(const Json& j) {
  const std::string kind = j.at("kind").as_string();
  if (kind == "cells") {
    algorithms::CellSignature sig;
    for (const auto& c : j.at("cells").as_array())
      sig.cells.insert(cell_from_json(c));
    return sig;
  }
  if (kind == "wifi") {
    algorithms::WifiSignature sig;
    for (const auto& b : j.at("aps").as_array())
      sig.aps.insert(static_cast<world::Bssid>(b.as_int()));
    return sig;
  }
  if (kind == "gps") {
    algorithms::GpsSignature sig;
    sig.center = latlng_from_json(j.at("center"));
    sig.radius_m = j.at("radius_m").as_double();
    return sig;
  }
  throw JsonError("unknown signature kind: " + kind);
}

Json to_json(const PlaceRecord& record) {
  Json j = Json::object();
  j.set("uid", static_cast<std::uint64_t>(record.uid));
  j.set("signature", to_json(record.signature));
  j.set("label", record.label);
  if (record.location) j.set("location", to_json(*record.location));
  j.set("granularity", to_string(record.granularity));
  j.set("visit_count", static_cast<std::uint64_t>(record.visit_count));
  j.set("total_dwell", static_cast<std::int64_t>(record.total_dwell));
  return j;
}

Json place_upload_to_json(const PlaceRecord& record) {
  PlaceRecord stripped = record;
  stripped.location.reset();
  return to_json(stripped);
}

namespace {

Granularity granularity_from_string(const std::string& s) {
  if (s == "area") return Granularity::Area;
  if (s == "building") return Granularity::Building;
  if (s == "room") return Granularity::Room;
  throw JsonError("unknown granularity: " + s);
}

}  // namespace

PlaceRecord place_record_from_json(const Json& j) {
  PlaceRecord record;
  record.uid = static_cast<PlaceUid>(j.at("uid").as_int());
  record.signature = signature_from_json(j.at("signature"));
  record.label = j.get_string("label", "");
  if (j.contains("location"))
    record.location = latlng_from_json(j.at("location"));
  record.granularity =
      granularity_from_string(j.get_string("granularity", "building"));
  record.visit_count = static_cast<std::size_t>(j.get_int("visit_count", 0));
  record.total_dwell = j.get_int("total_dwell", 0);
  return record;
}

Json to_json(const algorithms::CellObservation& obs) {
  Json j = Json::object();
  j.set("t", obs.t);
  j.set("cell", to_json(obs.cell));
  return j;
}

algorithms::CellObservation observation_from_json(const Json& j) {
  return {j.at("t").as_int(), cell_from_json(j.at("cell"))};
}

Json observations_to_json(
    std::span<const algorithms::CellObservation> observations) {
  Json::Array times, indices, cells;
  times.reserve(observations.size());
  indices.reserve(observations.size());
  // Keyed on the full CellId: key() is lossy (cid >= 2^25 overlaps lac) and
  // wider than a JSON number's 53-bit mantissa, so it cannot name a cell.
  std::unordered_map<world::CellId, std::size_t> index_of;
  SimTime previous = 0;
  for (const auto& obs : observations) {
    times.emplace_back(obs.t - previous);
    previous = obs.t;
    const auto [it, fresh] = index_of.try_emplace(obs.cell, cells.size());
    if (fresh) cells.push_back(to_json(obs.cell));
    indices.emplace_back(static_cast<std::uint64_t>(it->second));
  }
  Json j = Json::object();
  j.set("t", std::move(times));
  j.set("cells", std::move(cells));
  j.set("c", std::move(indices));
  return j;
}

std::vector<algorithms::CellObservation> observations_from_json(const Json& j) {
  const Json::Array& times = j.at("t").as_array();
  const Json::Array& indices = j.at("c").as_array();
  const Json::Array& table = j.at("cells").as_array();
  if (times.size() != indices.size())
    throw JsonError("observations: t and c differ in length");
  std::vector<world::CellId> cells;
  cells.reserve(table.size());
  for (const auto& cell : table) cells.push_back(cell_from_json(cell));
  std::vector<algorithms::CellObservation> observations;
  observations.reserve(times.size());
  SimTime t = 0;
  for (std::size_t i = 0; i < times.size(); ++i) {
    if (__builtin_add_overflow(t, times[i].as_int(), &t))
      throw JsonError("observations: time overflows");
    const std::int64_t index = indices[i].as_int();
    if (index < 0 || static_cast<std::uint64_t>(index) >= cells.size())
      throw JsonError("observations: cell index out of range");
    observations.push_back({t, cells[static_cast<std::size_t>(index)]});
  }
  return observations;
}

Json to_json(const algorithms::GcaResult& result) {
  Json places = Json::array();
  for (const auto& cluster : result.places) {
    Json p = Json::object();
    p.set("signature", to_json(algorithms::PlaceSignature(cluster.signature)));
    p.set("total_dwell", static_cast<std::int64_t>(cluster.total_dwell));
    places.push_back(std::move(p));
  }
  Json visits = Json::array();
  for (const auto& v : result.visits) {
    Json e = Json::object();
    e.set("place", static_cast<std::uint64_t>(v.place_index));
    e.set("arrival", v.window.begin);
    e.set("departure", v.window.end);
    visits.push_back(std::move(e));
  }
  Json j = Json::object();
  j.set("places", std::move(places));
  j.set("visits", std::move(visits));
  return j;
}

algorithms::GcaResult gca_result_from_json(const Json& j) {
  algorithms::GcaResult result;
  for (const auto& p : j.at("places").as_array()) {
    auto sig = signature_from_json(p.at("signature"));
    auto* cells = std::get_if<algorithms::CellSignature>(&sig);
    if (cells == nullptr) throw JsonError("GCA place signature is not cells");
    algorithms::CellCluster cluster;
    cluster.signature = std::move(*cells);
    cluster.total_dwell = p.at("total_dwell").as_int();
    const std::size_t index = result.places.size();
    for (const auto& cell : cluster.signature.cells)
      result.cell_to_place[cell] = index;
    result.places.push_back(std::move(cluster));
  }
  for (const auto& v : j.at("visits").as_array()) {
    result.visits.push_back(
        {static_cast<std::size_t>(v.at("place").as_int()),
         TimeWindow{v.at("arrival").as_int(), v.at("departure").as_int()}});
  }
  return result;
}

Json to_json(const algorithms::RouteObservation& route) {
  Json j = Json::object();
  j.set("from", static_cast<std::uint64_t>(route.from_place));
  j.set("to", static_cast<std::uint64_t>(route.to_place));
  j.set("start", route.window.begin);
  j.set("end", route.window.end);
  if (!route.cells.cells.empty()) {
    Json cells = Json::array();
    for (std::size_t i = 0; i < route.cells.cells.size(); ++i)
      cells.push_back(to_json(algorithms::CellObservation{
          route.cells.times[i], route.cells.cells[i]}));
    j.set("cells", std::move(cells));
  }
  if (!route.gps.points.empty()) {
    Json gps = Json::array();
    for (std::size_t i = 0; i < route.gps.points.size(); ++i) {
      Json g = to_json(route.gps.points[i]);
      g.set("t", route.gps.times[i]);
      gps.push_back(std::move(g));
    }
    j.set("gps", std::move(gps));
  }
  return j;
}

algorithms::RouteObservation route_from_json(const Json& j) {
  algorithms::RouteObservation route;
  route.from_place = static_cast<std::size_t>(j.get_int("from", 0));
  route.to_place = static_cast<std::size_t>(j.get_int("to", 0));
  route.window = TimeWindow{j.get_int("start", 0), j.get_int("end", 0)};
  if (j.contains("cells")) {
    for (const auto& c : j.at("cells").as_array()) {
      const algorithms::CellObservation obs = observation_from_json(c);
      route.cells.times.push_back(obs.t);
      route.cells.cells.push_back(obs.cell);
    }
  }
  if (j.contains("gps")) {
    for (const auto& g : j.at("gps").as_array()) {
      route.gps.times.push_back(g.at("t").as_int());
      route.gps.points.push_back(latlng_from_json(g));
    }
  }
  return route;
}

Json to_json(const RouteEvent& event) {
  Json j = Json::object();
  j.set("route_uid", event.route_uid);
  j.set("from", event.from);
  j.set("to", event.to);
  j.set("start", event.window.begin);
  j.set("end", event.window.end);
  j.set("high_accuracy", event.high_accuracy);
  return j;
}

RouteEvent route_event_from_json(const Json& j) {
  RouteEvent event;
  event.route_uid = static_cast<std::uint64_t>(j.get_int("route_uid", 0));
  event.from = static_cast<PlaceUid>(j.get_int("from", 0));
  event.to = static_cast<PlaceUid>(j.get_int("to", 0));
  event.window = TimeWindow{j.get_int("start", 0), j.get_int("end", 0)};
  event.high_accuracy = j.get_bool("high_accuracy", false);
  return event;
}

Json to_json(const EncounterEntry& encounter) {
  Json j = Json::object();
  j.set("contact", static_cast<std::uint64_t>(encounter.contact));
  j.set("place", static_cast<std::uint64_t>(encounter.place));
  j.set("start", encounter.start);
  j.set("end", encounter.end);
  return j;
}

EncounterEntry encounter_from_json(const Json& j) {
  return {static_cast<world::DeviceId>(j.at("contact").as_int()),
          static_cast<PlaceUid>(j.at("place").as_int()),
          j.at("start").as_int(), j.at("end").as_int()};
}

Json to_json(const ActivitySummary& activity) {
  Json j = Json::object();
  j.set("still", activity.still);
  j.set("walking", activity.walking);
  j.set("vehicle", activity.vehicle);
  return j;
}

ActivitySummary activity_from_json(const Json& j) {
  ActivitySummary activity;
  activity.still = j.get_int("still", 0);
  activity.walking = j.get_int("walking", 0);
  activity.vehicle = j.get_int("vehicle", 0);
  return activity;
}

Json profile_upload_to_json(const MobilityProfile& profile) {
  Json j = Json::object();
  j.set("day", profile.day);

  Json places = Json::array();
  for (const auto& v : profile.places) {
    Json e = Json::object();
    e.set("place", static_cast<std::uint64_t>(v.place));
    e.set("arrival", v.arrival);
    e.set("departure", v.departure);
    places.push_back(std::move(e));
  }
  j.set("places", std::move(places));

  Json routes = Json::array();
  for (const auto& r : profile.routes) {
    Json e = Json::object();
    e.set("route", static_cast<std::uint64_t>(r.route_uid));
    e.set("start", r.start);
    e.set("end", r.end);
    routes.push_back(std::move(e));
  }
  j.set("routes", std::move(routes));

  Json encounters = Json::array();
  for (const auto& h : profile.encounters) encounters.push_back(to_json(h));
  j.set("encounters", std::move(encounters));

  if (!profile.activity.empty()) j.set("activity", to_json(profile.activity));
  return j;
}

std::uint64_t profile_digest(const MobilityProfile& profile) {
  using cache::fold;
  std::uint64_t h = cache::kDigestBasis;
  fold(h, static_cast<std::uint64_t>(profile.day));
  fold(h, profile.places.size());
  for (const auto& v : profile.places) {
    fold(h, static_cast<std::uint64_t>(v.place));
    fold(h, static_cast<std::uint64_t>(v.arrival));
    fold(h, static_cast<std::uint64_t>(v.departure));
  }
  fold(h, profile.routes.size());
  for (const auto& r : profile.routes) {
    fold(h, r.route_uid);
    fold(h, static_cast<std::uint64_t>(r.start));
    fold(h, static_cast<std::uint64_t>(r.end));
  }
  fold(h, profile.encounters.size());
  for (const auto& e : profile.encounters) {
    fold(h, static_cast<std::uint64_t>(e.contact));
    fold(h, static_cast<std::uint64_t>(e.place));
    fold(h, static_cast<std::uint64_t>(e.start));
    fold(h, static_cast<std::uint64_t>(e.end));
  }
  if (!profile.activity.empty()) {
    fold(h, static_cast<std::uint64_t>(profile.activity.still));
    fold(h, static_cast<std::uint64_t>(profile.activity.walking));
    fold(h, static_cast<std::uint64_t>(profile.activity.vehicle));
  }
  return h;
}

Json to_json(const MobilityProfile& profile) {
  Json j = profile_upload_to_json(profile);
  j.set("user", static_cast<std::uint64_t>(profile.user));
  return j;
}

MobilityProfile profile_from_json(const Json& j) {
  MobilityProfile profile;
  profile.user = static_cast<world::DeviceId>(j.get_int("user", 0));
  profile.day = j.at("day").as_int();
  for (const auto& e : j.at("places").as_array()) {
    profile.places.push_back({static_cast<PlaceUid>(e.at("place").as_int()),
                              e.at("arrival").as_int(),
                              e.at("departure").as_int()});
  }
  for (const auto& e : j.at("routes").as_array()) {
    profile.routes.push_back({static_cast<std::uint64_t>(e.at("route").as_int()),
                              e.at("start").as_int(), e.at("end").as_int()});
  }
  for (const auto& e : j.at("encounters").as_array())
    profile.encounters.push_back(encounter_from_json(e));
  if (j.contains("activity"))
    profile.activity = activity_from_json(j.at("activity"));
  return profile;
}

std::string digest_to_hex(std::uint64_t digest) {
  return strfmt("%016llx", static_cast<unsigned long long>(digest));
}

std::uint64_t digest_from_hex(const std::string& text) {
  return std::strtoull(text.c_str(), nullptr, 16);
}

}  // namespace pmware::core
