// Kernel self-profiler: attributes dispatch counts and wall time to each
// dispatch kind (resume = a process wake, static = a pooled static call,
// the only two event forms), answering "why is this sweep slow" from a
// table instead of perf.
//
// Dispatch counts are exact and deterministic.  Wall time is sampled — one
// steady_clock pair every kSampleEvery dispatches, attributed to that
// dispatch's kind — so the timer cost is amortized to ~2 clock reads per 64
// events and the run's simulation results stay untouched.  The seconds
// columns are estimates and are inherently not deterministic; only the
// count columns are covered by the determinism contract (the table goes to
// stderr, the commentary channel).
#pragma once

#include <array>
#include <cstddef>
#include <cstdint>
#include <iosfwd>

#include "obs/hub.hpp"

namespace pimsim::obs {

/// Per-simulation profile accumulator, driven by Simulation::dispatch.
class KernelProfiler {
 public:
  /// Kind ids 0..4: process wakes are 1 (EventAction::kWakeKindId) and
  /// static calls 4 (EventAction::kCallKindId).  Ids 0, 2 and 3 (empty,
  /// small, boxed) named retired callable forms: they are reserved and
  /// never dispatched, and keep their names so reports that list every
  /// kind (perfbench's des.dispatches.* rows) stay the same shape.
  static constexpr std::size_t kKinds = 5;

  /// Every kSampleEvery-th dispatch is wall-timed (power of two).
  static constexpr std::uint64_t kSampleEvery = 64;

  struct KindStats {
    std::uint64_t dispatches = 0;  ///< exact
    std::uint64_t sampled = 0;     ///< dispatches that were wall-timed
    double seconds = 0.0;          ///< wall time across sampled dispatches
  };

  void count(std::uint8_t kind) { ++stats_[kind].dispatches; }

  /// True when the next dispatch should be wall-timed.
  [[nodiscard]] bool sample_due() { return (ticks_++ & (kSampleEvery - 1)) == 0; }

  void record_sample(std::uint8_t kind, double seconds) {
    ++stats_[kind].sampled;
    stats_[kind].seconds += seconds;
  }

  [[nodiscard]] const std::array<KindStats, kKinds>& stats() const { return stats_; }

  /// Estimated total wall seconds for a kind: mean sampled cost times the
  /// exact dispatch count (0 when nothing was sampled).
  [[nodiscard]] double estimated_seconds(std::size_t kind) const;

  [[nodiscard]] std::uint64_t total_dispatches() const;

  void merge(const KernelProfiler& other);

  [[nodiscard]] static const char* kind_name(std::size_t kind);

 private:
  std::uint64_t ticks_ = 0;
  std::array<KindStats, kKinds> stats_{};
};

/// Process-wide collection point: every profiled simulation's counts,
/// merged.
class ProfileHub : public Hub<ProfileHub, KernelProfiler> {
 public:
  void absorb(const KernelProfiler& profiler);

  [[nodiscard]] KernelProfiler snapshot() const;

  /// Human-readable per-kind table (counts exact, seconds estimated).
  void write_table(std::ostream& os) const;
};

}  // namespace pimsim::obs
