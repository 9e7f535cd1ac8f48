// Lightweight PIM processor model (paper Figure 3).
//
// An LWP has no cache; it sits next to a memory row buffer, so every
// load/store costs TML (already normalized to HWP cycles) and every other
// operation costs one LWP cycle (TLcycle HWP cycles).  Memory timing goes
// through the mem::MemorySystem seam: with no memory (or the analytic
// backend) the paper's contention-free model is reproduced bitwise via
// batched charging; a contended backend (memory=banked) switches to
// per-access issue so bank queueing and shared-port arbitration are
// visible — the bank-conflict ablation's measurement path.  That path
// hands the memory the LWP's whole share as one closed-loop access stream
// (mem::AccessStream: geometric compute runs on a local clock between
// strided row accesses) and meets the kernel once more, at the stream's
// end.  On an exclusive bank the stream runs alone on that clock; on a
// shared one it runs with the same instant's other LWP streams on the
// memory's private schedule.  Either way the times, counts and memory
// statistics are bit-identical to issuing each access through
// AccessAwaitable, without a kernel event per access.
#pragma once

#include <cstdint>

#include "arch/hwp.hpp"
#include "arch/params.hpp"
#include "common/rng.hpp"
#include "des/process.hpp"
#include "des/simulation.hpp"
#include "memory/memory_system.hpp"

namespace pimsim::arch {

class Lwp {
 public:
  /// `memory == nullptr` (or an uncontended backend) reproduces the
  /// paper's contention-free model with batched charging.  A contended
  /// backend sees every access individually from `node` (use small op
  /// counts: that path is per-access, not batched).
  Lwp(des::Simulation& sim, const SystemParams& params, Rng rng,
      std::uint64_t batch_ops = 100'000,
      const mem::MemorySystem* memory = nullptr, std::size_t node = 0);

  /// Coroutine that executes `ops` LWP operations.
  [[nodiscard]] des::Process run(std::uint64_t ops);

  [[nodiscard]] const OpCounts& counts() const { return counts_; }
  [[nodiscard]] des::Simulation& sim_ref() { return sim_; }

 private:
  /// Row-buffer access latency, read through the seam when one is wired.
  [[nodiscard]] double row_latency() const {
    return memory_ == nullptr
               ? params_.t_ml
               : memory_->zero_load_latency(mem::AccessKind::kLwpRow);
  }

  des::Process run_batched(std::uint64_t ops);
  des::Process run_contended(std::uint64_t ops);

  des::Simulation& sim_;
  SystemParams params_;
  Rng rng_;
  std::uint64_t batch_ops_;
  const mem::MemorySystem* memory_;
  std::size_t node_;
  OpCounts counts_;
};

}  // namespace pimsim::arch
