// JSON codecs for the shared model — the REST wire format (paper §2.3.3).
#pragma once

#include <cstdint>
#include <span>

#include "algorithms/gca.hpp"
#include "cache/digest.hpp"
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

Json to_json(const MobilityProfile& profile);
MobilityProfile profile_from_json(const Json& j);

/// Content digest of a movement-graph upload — the version of the device's
/// cached GCA result and the prefix claim of a suffix upload (DESIGN.md
/// "Content addressing & cache coherence"). Device and cloud must derive it
/// identically from the observation list, so both fold the same
/// (t, packed cell) pairs.
inline std::uint64_t movement_digest(
    std::span<const algorithms::CellObservation> observations) {
  std::uint64_t h = cache::kDigestBasis;
  for (const auto& obs : observations) {
    cache::fold(h, static_cast<std::uint64_t>(obs.t));
    cache::fold(h, obs.cell.key());
  }
  return h;
}

}  // namespace pmware::core
