// Time units used throughout the simulator.
//
// The paper (Table 1) normalizes every latency to heavyweight-processor (HWP)
// cycles with THcycle = 1 ns.  Simulation time is kept in double-precision
// HWP cycles; these helpers make conversions explicit at API boundaries so
// a reader can always tell which unit a quantity is in.
#pragma once

#include <cstdint>

namespace pimsim {

/// Simulation time, measured in heavyweight-processor cycles.
using SimTime = double;

/// A duration in HWP cycles (same representation as SimTime, used for deltas).
using Cycles = double;

/// Physical seconds per HWP cycle for a given HWP clock.
struct ClockSpec {
  double cycle_time_ns = 1.0;  ///< HWP cycle time in nanoseconds (Table 1: 1 ns).

  /// Converts a cycle count to nanoseconds under this clock.
  [[nodiscard]] constexpr double to_ns(Cycles c) const { return c * cycle_time_ns; }
  /// Converts a cycle count to seconds under this clock.
  [[nodiscard]] constexpr double to_seconds(Cycles c) const {
    return c * cycle_time_ns * 1e-9;
  }
};

/// Bits/bytes helpers for the DRAM bandwidth arithmetic in Section 2.1.
constexpr double kBitsPerGbit = 1e9;
constexpr double kBitsPerTbit = 1e12;

/// Converts (bits, nanoseconds) to Gbit/s.
[[nodiscard]] constexpr double gbit_per_s(double bits, double ns) {
  return (bits / kBitsPerGbit) / (ns * 1e-9);
}

}  // namespace pimsim
