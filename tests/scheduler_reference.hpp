// Reference sampling scheduler: the retired min-heap implementation, kept
// verbatim (modulo the class name) as the equivalence oracle for the
// run-oriented SamplingScheduler. Compiled only into test_scheduler_perf.
//
// The event loop is a min-heap of due events (periodic firings and
// one-shots). Periodic entries are invalidated lazily via per-interface
// generation counters: set_period() bumps the generation and pushes a fresh
// entry; stale heap entries are discarded when popped. Every dispatched
// sample builds a LabelSet and takes a locked registry lookup — the exact
// per-sample cost profile the batched scheduler was built to remove.
#pragma once

#include <array>
#include <cstdint>
#include <functional>
#include <optional>
#include <queue>
#include <string>
#include <vector>

#include "energy/meter.hpp"
#include "util/simtime.hpp"

namespace pmware::sensing {

class ReferenceScheduler {
 public:
  using Callback = std::function<void(SimTime)>;

  explicit ReferenceScheduler(energy::EnergyMeter* meter);

  /// Sets the periodic sampling interval for an interface; nullopt disables
  /// periodic sampling. Takes effect from the current simulation time.
  void set_period(energy::Interface interface,
                  std::optional<SimDuration> period);

  std::optional<SimDuration> period(energy::Interface interface) const {
    return periods_[static_cast<std::size_t>(interface)];
  }

  /// Installs the handler invoked on each sample of `interface`.
  void set_callback(energy::Interface interface, Callback cb);

  /// Requests a single extra sample at time `at` (>= now); used for
  /// triggered sensing (e.g. "scan WiFi now, movement started").
  void request_once(energy::Interface interface, SimTime at);

  /// Runs the loop over [window.begin, window.end), dispatching samples in
  /// time order and charging the meter (samples + baseline). Callbacks may
  /// call set_period/request_once to adapt sensing while running.
  ///
  /// Dispatch order at equal times: periodic interfaces first (ascending
  /// interface index), then one-shots in (interface index, request order).
  void run(TimeWindow window);

  SimTime now() const { return now_; }

  /// Value of this scheduler's "instance" metric label, e.g. "dev3" —
  /// isolates the per-device policy gauges.
  const std::string& instance_label() const { return instance_; }

 private:
  /// A heap entry is a *hint* that something may be due at `at`. One-shot
  /// entries are always live; a periodic entry is live only while the
  /// interface's generation still matches `seq` and next_due_ equals `at`
  /// (set_period and window re-arming bump the generation, orphaning any
  /// entries already in the heap).
  struct HeapEntry {
    SimTime at = 0;
    bool one_shot = false;
    std::size_t index = 0;  ///< interface index
    std::uint64_t seq = 0;  ///< periodic: generation; one-shot: FIFO ticket
  };
  struct EntryLater {
    bool operator()(const HeapEntry& a, const HeapEntry& b) const {
      if (a.at != b.at) return a.at > b.at;
      if (a.one_shot != b.one_shot) return a.one_shot;  // periodic first
      if (a.index != b.index) return a.index > b.index;
      return a.seq > b.seq;
    }
  };

  /// True while `entry` (periodic) still reflects the interface's schedule.
  bool live_periodic(const HeapEntry& entry) const {
    return generation_[entry.index] == entry.seq &&
           next_due_[entry.index] && *next_due_[entry.index] == entry.at;
  }
  void arm(std::size_t index, SimTime at);

  energy::EnergyMeter* meter_;
  std::string instance_;  ///< registry label isolating this device's gauges
  std::array<std::optional<SimDuration>, energy::kInterfaceCount> periods_{};
  std::array<std::optional<SimTime>, energy::kInterfaceCount> next_due_{};
  std::array<std::uint64_t, energy::kInterfaceCount> generation_{};
  std::array<Callback, energy::kInterfaceCount> callbacks_{};
  std::priority_queue<HeapEntry, std::vector<HeapEntry>, EntryLater> queue_;
  std::uint64_t one_shot_seq_ = 0;
  SimTime now_ = 0;
};

}  // namespace pmware::sensing
