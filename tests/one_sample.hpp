// Test-side per-sample consumer for SamplingScheduler: the scheduler has one
// dispatch contract (batch callbacks), and a consumer that takes one sample
// per call sees every sample on its own, with now() at the sample time.
#pragma once

#include <cstddef>
#include <functional>
#include <span>
#include <utility>

#include "sensing/scheduler.hpp"

namespace pmware::sensing {

/// Installs `fn` on `interface` as a batch callback that consumes one sample
/// and returns 1.
inline void on_each_sample(SamplingScheduler& scheduler,
                           energy::Interface interface,
                           std::function<void(SimTime)> fn) {
  scheduler.set_batch_callback(
      interface, [fn = std::move(fn)](std::span<const SimTime> run) {
        fn(run.front());
        return std::size_t{1};
      });
}

}  // namespace pmware::sensing
