// Outcome counter of the device GCA result cache (PmwareMobileService,
// DESIGN.md "Content addressing & cache coherence"). Each pass is exported
// as cache_outcomes_total{cache=<name>, outcome=...}:
//   local_hit  — served without touching the wire
//   recompute  — a cached result existed but its input digest changed
//   miss       — no cached result existed at all
// Counters (not gauges) only, so concurrent services sharing one name
// aggregate instead of fighting.
#pragma once

#include <string>

namespace pmware::cache {

enum class CacheOutcome { LocalHit, Recompute, Miss };

/// Increments cache_outcomes_total{cache=<name>, outcome=<outcome>}.
void record_outcome(const std::string& cache_name, CacheOutcome outcome);

}  // namespace pmware::cache
