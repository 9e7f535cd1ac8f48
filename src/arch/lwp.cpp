#include "arch/lwp.hpp"

#include <algorithm>

#include "common/error.hpp"

namespace pimsim::arch {

namespace {
/// Address stride of the contended path's access stream: one wide word
/// (word_bits / 8 bytes at the default geometry), so consecutive accesses
/// walk the row buffer and the open-row hit rate reflects spatial
/// locality instead of being degenerate.
constexpr std::uint64_t kAccessStrideBytes = 32;
/// Each node streams through its own address region.
constexpr std::uint64_t kNodeRegionBytes = std::uint64_t{1} << 32;
}  // namespace

Lwp::Lwp(des::Simulation& sim, const SystemParams& params, Rng rng,
         std::uint64_t batch_ops, const mem::MemorySystem* memory,
         std::size_t node)
    : sim_(sim), params_(params), rng_(rng), batch_ops_(batch_ops),
      memory_(memory), node_(node) {
  params_.validate();
  require(batch_ops > 0, "Lwp: batch_ops must be positive");
}

des::Process Lwp::run(std::uint64_t ops) {
  return memory_ != nullptr && memory_->contended() ? run_contended(ops)
                                                    : run_batched(ops);
}

des::Process Lwp::run_batched(std::uint64_t ops) {
  std::uint64_t remaining = ops;
  while (remaining > 0) {
    const std::uint64_t batch = std::min(remaining, batch_ops_);
    remaining -= batch;

    const std::uint64_t mem = rng_.binomial(batch, params_.ls_mix);
    const double cycles = static_cast<double>(batch - mem) * params_.tl_cycle +
                          static_cast<double>(mem) * row_latency();
    co_await des::delay(sim_, cycles);

    counts_.ops += batch;
    counts_.mem_ops += mem;
    counts_.busy_cycles += cycles;
  }
}

des::Process Lwp::run_contended(std::uint64_t ops) {
  // Per-access path on a local clock `t`: compute runs are aggregated
  // (they cannot conflict) and each memory access goes through the seam.
  // On a shared bank the process meets the kernel before every access,
  // which then queues at its home bank behind other accessors.  On an
  // exclusive bank nothing can queue, so the access retires on the spot
  // and the stream meets the kernel once, at its end (lookahead).
  const bool exclusive = memory_->exclusive(node_);
  std::uint64_t addr = static_cast<std::uint64_t>(node_) * kNodeRegionBytes;
  std::uint64_t remaining = ops;
  SimTime t = sim_.now();
  while (remaining > 0) {
    // Length of the compute run until the next memory access.
    const std::uint64_t gap = rng_.geometric(params_.ls_mix);
    const std::uint64_t compute = std::min(gap, remaining);
    if (compute > 0) {
      t += static_cast<double>(compute) * params_.tl_cycle;
      counts_.ops += compute;
      counts_.busy_cycles += static_cast<double>(compute) * params_.tl_cycle;
      remaining -= compute;
    }
    if (remaining == 0) break;

    const SimTime start = t;
    if (exclusive) {
      t += memory_->retire(sim_, node_, addr, mem::AccessKind::kLwpRow, t);
    } else {
      co_await des::wait_until(sim_, t);
      co_await mem::AccessAwaitable{*memory_, sim_, node_, addr,
                                    mem::AccessKind::kLwpRow};
      t = sim_.now();
    }
    addr += kAccessStrideBytes;
    counts_.ops += 1;
    counts_.mem_ops += 1;
    counts_.busy_cycles += t - start;  // includes bank queueing
    remaining -= 1;
  }
  co_await des::wait_until(sim_, t);
}

}  // namespace pimsim::arch
