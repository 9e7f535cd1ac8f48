#include "memory/memory_system.hpp"

#include "common/error.hpp"
#include "memory/contention_memory.hpp"

namespace pimsim::mem {

void MemoryConfig::validate() const {
  require(lwp_row_cycles > 0.0,
          "MemoryConfig: lwp_row_cycles must be positive");
  require(hwp_miss_cycles > 0.0,
          "MemoryConfig: hwp_miss_cycles must be positive");
  require(nodes > 0, "MemoryConfig: need at least one node");
  spec.validate();
}

std::size_t MemoryConfig::resolved_banks() const {
  return banks == 0 ? nodes : banks;
}

std::size_t MemoryConfig::resolved_ports() const {
  const std::size_t b = resolved_banks();
  return queue == 0 ? b : (queue < b ? queue : b);
}

void MemorySystem::access(des::Simulation& sim, std::size_t /*node*/,
                          std::uint64_t /*addr*/, AccessKind kind,
                          bool /*is_write*/, des::EventAction::StaticFn done,
                          void* ctx, std::uint64_t a, std::uint64_t b) const {
  sim.schedule_static_at(sim.now() + zero_load_latency(kind), done, ctx, a, b);
}

bool MemorySystem::run_stream(des::Simulation& /*sim*/, std::size_t /*node*/,
                              AccessStream& /*stream*/, SimTime& /*end*/,
                              des::EventAction::StaticFn /*done*/,
                              void* /*ctx*/) const {
  throw LogicError(std::string("MemorySystem::run_stream: the ") + name() +
                   " backend is not contended; charge zero_load_latency()");
}

AnalyticMemory::AnalyticMemory(const MemoryConfig& config)
    : lwp_row_cycles_(config.lwp_row_cycles),
      hwp_miss_cycles_(config.hwp_miss_cycles) {
  config.validate();
}

Cycles AnalyticMemory::zero_load_latency(AccessKind kind) const {
  return kind == AccessKind::kLwpRow ? lwp_row_cycles_ : hwp_miss_cycles_;
}

std::unique_ptr<MemorySystem> make_memory(const MemoryConfig& config) {
  config.validate();
  if (config.kind == "analytic") {
    return std::make_unique<AnalyticMemory>(config);
  }
  if (config.kind == "banked") {
    return std::make_unique<ContentionMemory>(config);
  }
  throw InvalidArgument("make_memory: unknown memory kind '" + config.kind +
                        "'; valid kinds are analytic, banked");
}

std::unique_ptr<MemorySystem> make_memory(const std::string& kind) {
  MemoryConfig config;
  config.kind = kind;
  return make_memory(config);
}

}  // namespace pimsim::mem
