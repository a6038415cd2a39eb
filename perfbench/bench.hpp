// Shared declarations of the PMWare study benchmark: workload shapes and the
// metric rows both the end-to-end run (main.cpp) and the traced run
// (traced.cpp) print.
#pragma once

#include <chrono>
#include <cstdint>
#include <string>
#include <vector>

#include "study/deployment.hpp"

namespace perfbench {

/// One printed metric: name, value as measured, unit.
struct Metric {
  std::string name;
  double value = 0;
  std::string unit;
};

/// Builds the StudyConfig of a named workload (paper, fleet, churn) with the
/// given study seed. `smoke` shrinks every workload to 2 participants x 1 day
/// for the self-test. Throws std::invalid_argument on an unknown name.
pmware::study::StudyConfig workload_config(const std::string& name,
                                           std::uint64_t seed, bool smoke);

/// Outcome of one traced run: the per-layer metric rows plus what the
/// correctness check and the overhead ratio need.
struct TracedResult {
  std::vector<Metric> metrics;
  std::uint64_t storage_digest = 0;
  /// Participant-days per second of the composition with the replay and
  /// bookkeeping time of the benchmark itself taken out.
  double pd_per_s = 0;
  /// Checkpoints the end-of-participant probe failed to restore (must be 0).
  std::uint64_t probe_restore_failures = 0;
};

/// Runs the workload once through public calls of every src/ module,
/// mirroring the RNG fork order of study::DeploymentStudy so the final cloud
/// content digest equals the one DeploymentStudy::run() produces.
TracedResult traced_run(const pmware::study::StudyConfig& config);

inline std::int64_t now_ns() {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

}  // namespace perfbench
