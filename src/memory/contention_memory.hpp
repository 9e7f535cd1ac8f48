// Contention-aware drop-in for the analytic MemorySystem: banked open-row
// DRAM on the event kernel, behind the same seam.
//
// Structure: `banks` DRAM banks (DramBank carries the open-row state),
// each with its own FIFO request queue, behind `ports` shared access
// ports.  A request from node n goes to that node's home bank
// (consecutive node groups share a bank when banks < nodes — the layout
// the bank-conflict ablation sweeps); it waits behind earlier requests to
// the same bank, and behind other banks when fewer ports than banks are
// configured (banks park in an arrival-ordered waiter ring).  Service
// time is exactly zero_load_latency(kind) — the Table 1 constant — so an
// uncontended access is bit-identical to the analytic model and
// contention shows up purely as queueing delay, mirroring how
// make_contention_interconnect calibrates the packet network.  The
// DramBank row-buffer state is driven by the address stream for hit-rate
// statistics (row_hit_rate()); it does not perturb timing, keeping the
// zero-load degeneracy exact.
//
// Implementation is the PR 4 hot-path recipe: requests live in a slab
// with an intrusive free list (steady state allocates nothing), every
// event is a static call (the kernel's one pooled event form), and each
// request pre-allocates its calendar sequence number at issue time, so
// same-time completions dispatch in arrival order and the whole
// structure is deterministic by construction.  In audit mode
// (sim.audit_enabled()) every touched bank is checked against a
// queue-occupancy conservation invariant — enqueued == completed +
// queued + in-service — alongside the kernel's own sweeps, the
// memory-side analogue of the packet network's credit-ledger check.
//
// Exclusive banks: a node whose bank no other node reaches, with a port
// for every bank in use, can never queue, so its accesses need no event.
// exclusive(node) reports that, and retire() charges such an access
// synchronously at the caller's local clock (statistics as access()
// would keep them, no gauge or trace counter since nothing queues).  Each
// bank records `reserved_until`, the completion time of its last retired
// access; an access() that lands before it, or a retire() on a bank with
// a request queued or in service, throws LogicError — the two paths never
// interleave silently on one bank.
//
// Like ContentionInterconnect, the model is constructed unbound and
// attaches to the first Simulation that accesses through it; reusing it
// in a second Simulation throws LogicError — build one per run.
#pragma once

#include <cstdint>
#include <memory>
#include <vector>

#include "memory/memory_system.hpp"

namespace pimsim::mem {

class ContentionMemory final : public MemorySystem {
 public:
  explicit ContentionMemory(MemoryConfig config);
  ~ContentionMemory() override;

  [[nodiscard]] const char* name() const override { return "banked"; }
  [[nodiscard]] bool contended() const override { return true; }
  [[nodiscard]] Cycles zero_load_latency(AccessKind kind) const override;

  void access(des::Simulation& sim, std::size_t node, std::uint64_t addr,
              AccessKind kind, bool is_write, des::EventAction::StaticFn done,
              void* ctx, std::uint64_t a, std::uint64_t b) const override;

  /// True iff no other node maps to bank_of(node) and there are at least
  /// as many ports as banks in use (fixed at construction).
  [[nodiscard]] bool exclusive(std::size_t node) const override;
  Cycles retire(des::Simulation& sim, std::size_t node, std::uint64_t addr,
                AccessKind kind, SimTime at) const override;

  /// Binds to `sim` eagerly (access() binds lazily on first use).
  void bind(des::Simulation& sim) const;

  [[nodiscard]] std::uint64_t accesses() const override;
  /// Row-buffer hit rate over all banks (stats-only open-row model).
  [[nodiscard]] double row_hit_rate() const override;

  /// Publishes access/row-hit counters and the per-bank row-hit-rate
  /// summary (no-op before the first access binds the engine).
  void collect_metrics(obs::MetricsRegistry& registry) const override;

  [[nodiscard]] std::size_t banks() const { return cfg_.resolved_banks(); }
  [[nodiscard]] std::size_t ports() const { return cfg_.resolved_ports(); }
  [[nodiscard]] const MemoryConfig& config() const { return cfg_; }

  /// Home bank of an accessor node (consecutive-node grouping).
  [[nodiscard]] std::size_t bank_of(std::size_t node) const;
  /// Row an address maps to within its bank.
  [[nodiscard]] std::uint64_t row_of(std::uint64_t addr) const;

  /// bank_of/row_of without their per-call divisions, precomputed once
  /// per run: a node -> home-bank table and one row divisor (for unsigned
  /// integers (a / b) / c == a / (b * c), so row() equals row_of()).
  struct AccessMap {
    std::vector<std::uint32_t> bank_of_node;  ///< bank_of(n) for n < nodes
    std::uint64_t row_bytes = 1;               ///< word bytes x words per row

    [[nodiscard]] std::uint32_t bank(std::size_t node) const {
      return node < bank_of_node.size()
                 ? bank_of_node[node]
                 : bank_of_node[node % bank_of_node.size()];
    }
    [[nodiscard]] std::uint64_t row(std::uint64_t addr) const {
      return addr / row_bytes;
    }
  };
  [[nodiscard]] AccessMap access_map() const;

 private:
  struct Engine;

  MemoryConfig cfg_;
  AccessMap map_;
  /// Banks with exactly one node and a port guaranteed (see exclusive()).
  std::vector<bool> exclusive_bank_;
  // Bound lazily on first access(): the model outlives no Simulation, it
  // just has to be constructible before one exists.
  mutable std::unique_ptr<Engine> eng_;
  mutable des::Simulation* sim_ = nullptr;
};

}  // namespace pimsim::mem
