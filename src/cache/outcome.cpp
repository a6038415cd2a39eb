#include "cache/outcome.hpp"

#include "telemetry/metrics.hpp"

namespace pmware::cache {
namespace {

const char* to_string(CacheOutcome outcome) {
  switch (outcome) {
    case CacheOutcome::LocalHit:
      return "local_hit";
    case CacheOutcome::Recompute:
      return "recompute";
    case CacheOutcome::Miss:
      return "miss";
  }
  return "unknown";
}

}  // namespace

void record_outcome(const std::string& cache_name, CacheOutcome outcome) {
  telemetry::registry()
      .counter("cache_outcomes_total",
               {{"cache", cache_name}, {"outcome", to_string(outcome)}},
               "cache lookups by outcome: local_hit, recompute or miss")
      .inc();
}

}  // namespace pmware::cache
