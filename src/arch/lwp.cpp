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

/// The contended path's closed-loop access stream: geometric compute runs
/// (they cannot conflict, so they advance the stream's clock in one step)
/// between strided row accesses, charged into `counts` in issue order.
class AccessRun final : public mem::AccessStream {
 public:
  AccessRun(const SystemParams& params, Rng& rng, OpCounts& counts,
            std::uint64_t ops, std::uint64_t addr)
      : params_(params), rng_(rng), counts_(counts), remaining_(ops),
        addr_(addr) {}

  mem::StreamStep next(SimTime done_at) override {
    if (in_access_) {
      addr_ += kAccessStrideBytes;
      counts_.ops += 1;
      counts_.mem_ops += 1;
      counts_.busy_cycles += done_at - start_;  // includes bank queueing
      remaining_ -= 1;
    }
    SimTime t = done_at;
    if (remaining_ > 0) {
      // Length of the compute run until the next memory access.
      const std::uint64_t compute =
          std::min(rng_.geometric(params_.ls_mix), remaining_);
      if (compute > 0) {
        t += static_cast<double>(compute) * params_.tl_cycle;
        counts_.ops += compute;
        counts_.busy_cycles += static_cast<double>(compute) * params_.tl_cycle;
        remaining_ -= compute;
      }
    }
    in_access_ = remaining_ > 0;
    if (!in_access_) return mem::StreamStep{.at = t, .end = true};
    start_ = t;
    return mem::StreamStep{.at = t, .addr = addr_};
  }

 private:
  const SystemParams& params_;
  Rng& rng_;
  OpCounts& counts_;
  std::uint64_t remaining_;
  std::uint64_t addr_;
  SimTime start_ = 0.0;     // issue time of the access in flight
  bool in_access_ = false;  // an access was issued by the last step
};
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
  // The whole share is one closed-loop stream: the memory runs it (alone
  // on an exclusive bank, else with the instant's other streams) and the
  // process meets the kernel once more, at the stream's end.
  AccessRun stream(params_, rng_, counts_, ops,
                   static_cast<std::uint64_t>(node_) * kNodeRegionBytes);
  const SimTime end =
      co_await mem::StreamAwaitable{*memory_, sim_, node_, stream};
  co_await des::wait_until(sim_, end);
}

}  // namespace pimsim::arch
