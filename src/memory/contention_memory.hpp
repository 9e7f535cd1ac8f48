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
// Streams (run_stream): a closed-loop accessor hands over its whole
// access loop instead of one access at a time.  A stream on an exclusive
// bank -- one no other node reaches, with a port for every bank in use --
// can never queue, so it runs to its end at once on its own clock.
// Every other stream registered at one instant joins that instant's
// group; the first registration schedules one static call at now(), which
// runs the whole group to its end on a private (time, seq) schedule that
// drives the same bank FIFOs, port ring, row statistics and queue gauge
// as access() does, through a small scheduler seam {now, allocate_seq,
// schedule_at_seq} whose kernel side serves access().  The private
// counter advances exactly where the kernel's would have for the
// equivalent per-access coroutine loop (an issue deferred to a later time,
// and each request's completion key at issue), so the group replays the
// kernel's order and every completion time, row-buffer state and count
// comes out bit-identical.  That holds only while the group's streams are
// the memory's sole accessors: until the group's last stream ends, an
// access() or a new stream throws LogicError, and so does a stream
// registered while access() requests are in flight.  An exclusive bank
// records `reserved_until`, the completion of its stream's last access,
// and an access() before it throws too.
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

  bool run_stream(des::Simulation& sim, std::size_t node, AccessStream& stream,
                  SimTime& end, des::EventAction::StaticFn done,
                  void* ctx) const override;

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
  /// Banks with exactly one node and a port guaranteed: their streams
  /// can never queue.
  std::vector<bool> exclusive_bank_;
  // Bound lazily on first access(): the model outlives no Simulation, it
  // just has to be constructible before one exists.
  mutable std::unique_ptr<Engine> eng_;
  mutable des::Simulation* sim_ = nullptr;
};

}  // namespace pimsim::mem
