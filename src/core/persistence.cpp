#include "core/persistence.hpp"

#include <istream>
#include <string>

#include "core/codec.hpp"
#include "telemetry/metrics.hpp"

namespace pmware::core {

/// Crash tolerance: a malformed FINAL line that the stream cut off without a
/// trailing newline is a torn append (the writer died mid-line), not
/// corruption — the reader keeps the parsed prefix, counts the event in
/// persistence_torn_tail_total, and returns instead of throwing. A complete
/// (newline-terminated) line that fails to parse still throws: that is
/// bit-rot, and silently skipping it would hide data loss.
void read_jsonl(std::istream& in,
                const std::function<void(const Json&)>& decode) {
  std::string line;
  std::size_t number = 0;
  while (std::getline(in, line)) {
    ++number;
    // getline sets eofbit exactly when this line ended at end-of-stream
    // with no trailing '\n' — the torn-append signature.
    const bool unterminated = in.eof();
    if (line.empty()) continue;
    try {
      decode(Json::parse(line));
    } catch (const JsonError& error) {
      if (unterminated) {
        telemetry::registry()
            .counter("persistence_torn_tail_total", {},
                     "JSONL reads that dropped a torn (unterminated, "
                     "unparseable) final line and recovered the prefix")
            .inc();
        return;
      }
      throw PersistenceError(number, error.what());
    } catch (const std::exception& error) {
      // Structurally valid JSON whose values fail domain validation (a
      // bit-rotted visit window with end < begin, say) is corruption too:
      // surface it under the same contract as a malformed line.
      throw PersistenceError(number, error.what());
    }
  }
}

void write_gsm_log(std::ostream& out,
                   std::span<const algorithms::CellObservation> log) {
  if (log.empty()) return;
  out << observations_to_json(log).dump() << '\n';
}

std::vector<algorithms::CellObservation> read_gsm_log(std::istream& in) {
  std::vector<algorithms::CellObservation> log;
  read_jsonl(in, [&log](const Json& j) {
    const auto run = observations_from_json(j);
    log.insert(log.end(), run.begin(), run.end());
  });
  return log;
}

void write_visit_log(std::ostream& out, std::span<const LoggedVisit> log) {
  write_jsonl(out, log, [](const LoggedVisit& visit) {
    Json j = Json::object();
    j.set("uid", static_cast<std::uint64_t>(visit.uid));
    j.set("begin", visit.window.begin);
    j.set("end", visit.window.end);
    return j;
  });
}

std::vector<LoggedVisit> read_visit_log(std::istream& in) {
  std::vector<LoggedVisit> log;
  read_jsonl(in, [&log](const Json& j) {
    log.push_back({static_cast<PlaceUid>(j.at("uid").as_int()),
                   TimeWindow{j.at("begin").as_int(), j.at("end").as_int()}});
  });
  return log;
}

void write_place_records(std::ostream& out, const PlaceStore& store) {
  write_jsonl(out, store.records(),
              [](const auto& entry) { return to_json(entry.second); });
}

std::vector<PlaceRecord> read_place_records(std::istream& in) {
  std::vector<PlaceRecord> records;
  read_jsonl(in, [&records](const Json& j) {
    records.push_back(place_record_from_json(j));
  });
  return records;
}

void write_profiles(std::ostream& out,
                    std::span<const MobilityProfile> profiles) {
  write_jsonl(out, profiles,
              [](const auto& profile) { return to_json(profile); });
}

std::vector<MobilityProfile> read_profiles(std::istream& in) {
  std::vector<MobilityProfile> profiles;
  read_jsonl(in, [&profiles](const Json& j) {
    profiles.push_back(profile_from_json(j));
  });
  return profiles;
}

}  // namespace pmware::core
