// The process-wide collection point every observability layer shares.
// A simulation built on any sweep worker thread feeds each enabled layer
// into its hub when destroyed.  Hub owns the single instance, the mutex,
// the simulation count and reset(); each layer adds only its fold, all of
// them order-independent (commutative, or sorted by content before
// folding), so the thread schedule cannot reach any value:
// des::AuditRegistry (XOR of event chains), obs::TraceHub (trace blobs),
// obs::MetricsHub (registry snapshots), obs::ProfileHub (merged profile).
#pragma once

#include <cstdint>
#include <mutex>

namespace pimsim::obs {

/// CRTP base: `Derived` is the layer's hub, `State` what its fold builds.
template <class Derived, class State>
class Hub {
 public:
  /// The process-wide instance every Simulation of this layer reports to.
  [[nodiscard]] static Derived& global() {
    // lint:allow(mutable-static): the one hub per layer; every access is mutex-serialized
    static Derived instance;
    return instance;
  }

  /// Simulations absorbed since the last reset().
  [[nodiscard]] std::uint64_t simulations() const {
    return read([](const State&, std::uint64_t n) { return n; });
  }

  void reset() {
    const std::lock_guard<std::mutex> lock(mutex_);
    state_ = State{};
    simulations_ = 0;
  }

 protected:
  /// Counts one absorbed simulation and runs `fold(state)` under the lock.
  template <class Fold>
  void absorb_with(Fold&& fold) {
    const std::lock_guard<std::mutex> lock(mutex_);
    fold(state_);
    ++simulations_;
  }

  /// Returns `view(state, simulations)`, evaluated under the lock.
  template <class View>
  auto read(View&& view) const {
    const std::lock_guard<std::mutex> lock(mutex_);
    return view(state_, simulations_);
  }

 private:
  mutable std::mutex mutex_;
  State state_{};
  std::uint64_t simulations_ = 0;
};

}  // namespace pimsim::obs
