// JSON codecs for the shared model — the REST wire format (paper §2.3.3)
// and the checkpoint's JSONL lines. This module is the only place that
// knows how a model type looks as JSON: the mobile service, the cloud
// handlers and the persistence layer all encode and decode through it.
// Decoders throw JsonError on a missing required field or a number outside
// its field's range.
#pragma once

#include <cstdint>
#include <span>
#include <string>
#include <vector>

#include "algorithms/gca.hpp"
#include "algorithms/routes.hpp"
#include "cache/digest.hpp"
#include "core/events.hpp"
#include "core/model.hpp"
#include "util/json.hpp"

namespace pmware::core {

Json to_json(const world::CellId& cell);
world::CellId cell_from_json(const Json& j);

Json to_json(const geo::LatLng& p);
geo::LatLng latlng_from_json(const Json& j);

Json to_json(const algorithms::PlaceSignature& sig);
algorithms::PlaceSignature signature_from_json(const Json& j);

Json to_json(const PlaceRecord& record);
PlaceRecord place_record_from_json(const Json& j);

/// {t, cell}: one GSM observation (gsm_log lines, route upload cells).
Json to_json(const algorithms::CellObservation& obs);
algorithms::CellObservation observation_from_json(const Json& j);

/// {t[], cells[], c[]}: a run of GSM observations in columns — the GCA
/// offload body's "observations" field. `t` holds the times delta-coded
/// (the first delta taken from 0), `cells` the run's distinct cells in
/// first-appearance order, and `c` one index into `cells` per observation.
/// Cells are deduplicated on the full CellId, never on the lossy key().
/// Decoding throws JsonError on a missing column, a `t`/`c` length
/// mismatch, an index outside `cells`, or a time that overflows SimTime.
Json observations_to_json(
    std::span<const algorithms::CellObservation> observations);
std::vector<algorithms::CellObservation> observations_from_json(const Json& j);

/// {places[{signature,total_dwell}], visits[{place,arrival,departure}]}:
/// the discover response. Decoding rebuilds `cell_to_place`.
Json to_json(const algorithms::GcaResult& result);
algorithms::GcaResult gca_result_from_json(const Json& j);

/// {from, to, start, end, cells?[{t,cell}], gps?[{lat,lng,t}]}: a journey
/// (route upload body, route_store lines). The scalar fields default to 0.
Json to_json(const algorithms::RouteObservation& route);
algorithms::RouteObservation route_from_json(const Json& j);

/// {route_uid, from, to, start, end, high_accuracy}: one route_log entry.
/// Every field defaults (0 / false).
Json to_json(const RouteEvent& event);
RouteEvent route_event_from_json(const Json& j);

/// {contact, place, start, end}: one social encounter, all fields required.
Json to_json(const EncounterEntry& encounter);
EncounterEntry encounter_from_json(const Json& j);

/// {still, walking, vehicle}: one day's activity totals, each defaulting
/// to 0.
Json to_json(const ActivitySummary& activity);
ActivitySummary activity_from_json(const Json& j);

Json to_json(const MobilityProfile& profile);
MobilityProfile profile_from_json(const Json& j);

/// A 64-bit digest as 16 lower-case hex digits, and back (the prefix claim
/// of a suffix upload, checkpoint digests).
std::string digest_to_hex(std::uint64_t digest);
std::uint64_t digest_from_hex(const std::string& text);

/// Content digest of a movement-graph upload — the version of the device's
/// cached GCA result and the prefix claim of a suffix upload (DESIGN.md
/// "Content addressing & cache coherence"). Device and cloud must derive it
/// identically, so both fold the same (t, packed cell) pairs here. Passing
/// the digest of a prefix as `h` extends it over `observations`.
inline std::uint64_t movement_digest(
    std::span<const algorithms::CellObservation> observations,
    std::uint64_t h = cache::kDigestBasis) {
  for (const auto& obs : observations) {
    cache::fold(h, static_cast<std::uint64_t>(obs.t));
    cache::fold(h, obs.cell.key());
  }
  return h;
}

}  // namespace pmware::core
