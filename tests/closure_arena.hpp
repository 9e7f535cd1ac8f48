// Closure events for tests.
//
// The kernel's pooled events are static calls `fn(ctx, a, b)`.  Tests
// that want to schedule a lambda keep it in a ClosureArena they own and
// schedule a static call whose `a` word is the closure's index in the
// arena:
//
//   des::Simulation sim;
//   test::ClosureArena events(sim);
//   events.at(5.0, [&] { ... });
//   events.in(2.0, [&] { ... });   // relative to sim.now()
//
// The arena must outlive every run of the simulation that can dispatch
// its events.  A closure is released when it runs; pending ones die
// with the arena.  Events that only need to exist (calendar filler)
// take `no_op_at` and leave the arena out.
#pragma once

#include <cstdint>
#include <functional>
#include <utility>
#include <vector>

#include "common/units.hpp"
#include "des/simulation.hpp"

namespace pimsim::test {

/// Schedules a static call that does nothing at `at`.
inline void no_op_at(des::Simulation& sim, SimTime at) {
  sim.schedule_static_at(
      at, [](void*, std::uint64_t, std::uint64_t) {}, nullptr, 0, 0);
}

class ClosureArena {
 public:
  explicit ClosureArena(des::Simulation& sim) : sim_(sim) {}
  ClosureArena(const ClosureArena&) = delete;
  ClosureArena& operator=(const ClosureArena&) = delete;

  /// Schedules `fn` at absolute time `at` (>= sim.now()).
  void at(SimTime at, std::function<void()> fn) {
    sim_.schedule_static_at(at, &trampoline, this, fns_.size(), 0);
    fns_.push_back(std::move(fn));
  }
  /// Schedules `fn` `delay` cycles from now.
  void in(Cycles delay, std::function<void()> fn) { at(sim_.now() + delay, std::move(fn)); }
  /// Schedules `fn` at now(), after pending same-time events.
  void now(std::function<void()> fn) { at(sim_.now(), std::move(fn)); }

 private:
  static void trampoline(void* ctx, std::uint64_t index, std::uint64_t) {
    // Move the closure out first: it may schedule more closures, which
    // can reallocate fns_.
    auto& fns = static_cast<ClosureArena*>(ctx)->fns_;
    const std::function<void()> fn = std::exchange(fns[index], nullptr);
    fn();
  }

  des::Simulation& sim_;
  std::vector<std::function<void()>> fns_;
};

}  // namespace pimsim::test
