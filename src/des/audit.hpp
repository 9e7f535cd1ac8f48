// Determinism audit mode for the event kernel.
//
// `pimsim verify` tells you *that* two runs diverged (different CSV);
// audit mode tells you *where*: an FNV-1a hash chain folds every
// dispatched (time, seq, action-kind) tuple, with a checkpoint of the
// running hash every kCheckpointInterval events.  Two AuditLogs of the
// same workload can then be diffed to the first differing checkpoint
// window — event-index granularity instead of an opaque fleet-wide
// fingerprint mismatch.
//
// Enabling: Simulation::set_audit(true), an obs::Session with
// RunOptions::audit set (how `pimsim run/verify ... audit=1` reaches the
// simulations buried inside figure generators), or, for embedded callers
// with no session active, the PIMSIM_AUDIT=1 environment variable (read
// at every Simulation construction; see obs/session.hpp).  When off, the cost is one predicted branch per
// dispatch — the same pattern as tracing_enabled(), held to the
// bench_engine floors in bench/baselines.json.
//
// Besides the chain, audit mode runs O(1)-amortized invariant sweeps
// (Simulation::audit_check_now()) over the calendar's order, its exact
// node and record-pool accounting, and any component-registered checks (the packet network
// registers its credit-ledger invariants), so corruption is caught at
// the event where it happens, not at the end of a 10^8-event run.
//
// Cross-thread aggregation: a sweep at jobs=N constructs its simulations
// inside pool workers in schedule-dependent order, so AuditRegistry (an
// obs::Hub, like the other observability layers) combines per-simulation chains commutatively (order-independent XOR)
// — identical work at sweep_threads 1 vs 3 yields an identical combined
// hash, and any single diverging simulation flips it.
#pragma once

#include <cstdint>
#include <optional>
#include <vector>

#include "common/units.hpp"
#include "obs/hub.hpp"

namespace pimsim::des {

/// FNV-1a 64 hash chain over the dispatched-event stream of one
/// Simulation, with periodic checkpoints for divergence localization.
class AuditLog {
 public:
  /// Checkpoint cadence: divergence is localized to a window of this
  /// many events while the log stays O(events / interval) in memory.
  static constexpr std::uint64_t kCheckpointInterval = 1024;

  /// Folds one dispatched event into the chain.
  void record(SimTime time, std::uint64_t seq, std::uint8_t kind) {
    std::uint64_t bits;
    __builtin_memcpy(&bits, &time, sizeof(bits));
    hash_ = mix(hash_, bits);
    hash_ = mix(hash_, seq);
    hash_ = mix(hash_, kind);
    if (++events_ % kCheckpointInterval == 0) checkpoints_.push_back(hash_);
  }

  /// The running chain hash over all recorded events.
  [[nodiscard]] std::uint64_t hash() const { return hash_; }
  /// Events recorded so far.
  [[nodiscard]] std::uint64_t events() const { return events_; }
  /// Chain hash after every kCheckpointInterval-th event.
  [[nodiscard]] const std::vector<std::uint64_t>& checkpoints() const {
    return checkpoints_;
  }

 private:
  static constexpr std::uint64_t kOffset = 14695981039346656037ULL;
  static constexpr std::uint64_t kPrime = 1099511628211ULL;

  /// FNV-1a over the 8 bytes of `word`, chained onto `h`.
  static std::uint64_t mix(std::uint64_t h, std::uint64_t word) {
    for (int i = 0; i < 8; ++i) {
      h = (h ^ ((word >> (8 * i)) & 0xffu)) * kPrime;
    }
    return h;
  }

  std::uint64_t hash_ = kOffset;
  std::uint64_t events_ = 0;
  std::vector<std::uint64_t> checkpoints_;
};

/// Index of the first event at which two audited runs of the same
/// workload can be shown to diverge, at checkpoint granularity: the
/// returned index is the start of the first differing checkpoint window
/// (the true first differing event lies within the following
/// kCheckpointInterval events).  std::nullopt means the logs agree —
/// same event count, same chain hash.
[[nodiscard]] std::optional<std::uint64_t> first_divergence(const AuditLog& a,
                                                            const AuditLog& b);

/// The registry's aggregate (AuditRegistry::Summary).
struct AuditSummary {
  std::uint64_t simulations = 0;  ///< audited Simulations absorbed
  std::uint64_t events = 0;       ///< total events across them
  std::uint64_t combined = 0;     ///< XOR of per-simulation chain hashes
  [[nodiscard]] bool operator==(const AuditSummary&) const = default;
};

/// Process-wide, thread-safe accumulator of completed simulations'
/// chains, combined commutatively so sweep-thread scheduling cannot
/// affect the aggregate.  `pimsim verify audit=1` resets it, runs a
/// figure at two thread counts, and compares snapshots.
class AuditRegistry : public obs::Hub<AuditRegistry, AuditSummary> {
 public:
  using Summary = AuditSummary;

  /// Folds one finished simulation's chain into the aggregate.
  void absorb(const AuditLog& log);
  [[nodiscard]] Summary snapshot() const;
};

}  // namespace pimsim::des
