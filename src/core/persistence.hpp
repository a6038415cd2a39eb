// JSONL persistence for PMWare data products: raw GSM observation logs,
// visit logs, place records, and mobility profiles.
//
// A real deployment must survive process restarts and ship logs for offline
// analysis; this is the serialization layer for that (one JSON document per
// line, append-friendly, stream-based so it is storage-agnostic). Visits,
// places and profiles take one line per record; the GSM log takes one
// columnar line per write (see write_gsm_log), since it grows by ~1,400
// observations per day and is rewritten at every checkpoint.
#pragma once

#include <functional>
#include <ostream>
#include <span>
#include <vector>

#include "algorithms/gca.hpp"
#include "core/inference_engine.hpp"
#include "core/model.hpp"
#include "core/place_store.hpp"
#include "util/json.hpp"

namespace pmware::core {

// --- Generic JSONL (the readers/writers below, each checkpoint section) ---
/// Writes `encode(item)` as one JSON line per item of `items`.
template <typename Range, typename Encode>
void write_jsonl(std::ostream& out, const Range& items, Encode encode) {
  for (const auto& item : items) out << encode(item).dump() << '\n';
}
/// Applies `decode` to every non-empty line of `in`. A line that fails to
/// parse or decode throws PersistenceError (see its contract below).
void read_jsonl(std::istream& in,
                const std::function<void(const Json&)>& decode);

// --- GSM observation log (the GCA input that gets offloaded) ---
/// Writes `log` as ONE line, the columnar {t[], cells[], c[]} run of
/// core::observations_to_json (each write has its own cell dictionary and
/// its own time base), and nothing for an empty log. Appended writes
/// concatenate: read_gsm_log returns every complete write's observations in
/// order, and a torn final write heals to the writes before it.
void write_gsm_log(std::ostream& out,
                   std::span<const algorithms::CellObservation> log);
std::vector<algorithms::CellObservation> read_gsm_log(std::istream& in);

// --- Visit log (the authoritative post-recluster stays) ---
void write_visit_log(std::ostream& out, std::span<const LoggedVisit> log);
std::vector<LoggedVisit> read_visit_log(std::istream& in);

// --- Place records ---
void write_place_records(std::ostream& out, const PlaceStore& store);
std::vector<PlaceRecord> read_place_records(std::istream& in);

// --- Day profiles ---
void write_profiles(std::ostream& out,
                    std::span<const MobilityProfile> profiles);
std::vector<MobilityProfile> read_profiles(std::istream& in);

/// Thrown by readers on malformed lines (carries the 1-based line number).
/// A malformed *final* line with no trailing newline is a torn append, not
/// corruption: readers recover the parsed prefix and count the event in the
/// persistence_torn_tail_total metric instead of throwing.
class PersistenceError : public std::runtime_error {
 public:
  PersistenceError(std::size_t line, const std::string& what)
      : std::runtime_error("line " + std::to_string(line) + ": " + what),
        line_(line) {}
  std::size_t line() const { return line_; }

 private:
  std::size_t line_;
};

}  // namespace pmware::core
