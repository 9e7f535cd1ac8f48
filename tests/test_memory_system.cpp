// Tests for the MemorySystem seam (src/memory/memory_system.hpp) and the
// banked-DRAM backend (src/memory/contention_memory.hpp): factory error
// contract, analytic-default bitwise equality, zero-load degeneracy,
// bank-conflict serialization, and run-to-run determinism.
#include <gtest/gtest.h>

#include <string>
#include <vector>

#include "common/error.hpp"
#include "core/scenario.hpp"
#include "des/process.hpp"
#include "des/simulation.hpp"
#include "memory/contention_memory.hpp"
#include "memory/memory_system.hpp"

namespace pimsim::mem {
namespace {

constexpr double kTml = 30.0;
constexpr double kTmh = 90.0;

TEST(MakeMemory, RejectsUnknownKindListingAlternatives) {
  try {
    (void)make_memory("bogus");
    FAIL() << "make_memory accepted an unknown kind";
  } catch (const InvalidArgument& e) {
    const std::string msg = e.what();
    EXPECT_NE(msg.find("bogus"), std::string::npos);
    EXPECT_NE(msg.find("analytic"), std::string::npos);
    EXPECT_NE(msg.find("banked"), std::string::npos);
  }
}

TEST(MakeMemory, ConfigValidation) {
  MemoryConfig mc;
  mc.lwp_row_cycles = 0.0;
  EXPECT_THROW(mc.validate(), ConfigError);
  mc = MemoryConfig{};
  mc.nodes = 0;
  EXPECT_THROW(mc.validate(), ConfigError);
}

TEST(ZeroLoad, BothBackendsDegenerateToAnalyticConstants) {
  MemoryConfig mc;
  mc.lwp_row_cycles = kTml;
  mc.hwp_miss_cycles = kTmh;
  mc.nodes = 4;
  for (const char* kind : {"analytic", "banked"}) {
    mc.kind = kind;
    const auto memory = make_memory(mc);
    EXPECT_DOUBLE_EQ(memory->zero_load_latency(AccessKind::kLwpRow), kTml)
        << kind;
    EXPECT_DOUBLE_EQ(memory->zero_load_latency(AccessKind::kHwpMiss), kTmh)
        << kind;
  }
}

/// Issues `count` dependent accesses from `node`, walking `stride` bytes.
des::Process issue_stream(des::Simulation& sim, const MemorySystem& memory,
                          std::size_t node, std::uint64_t base,
                          std::uint64_t stride, int count) {
  std::uint64_t addr = base;
  for (int i = 0; i < count; ++i) {
    co_await AccessAwaitable{memory, sim, node, addr, AccessKind::kLwpRow};
    addr += stride;
  }
}

TEST(ZeroLoad, UncontendedBankedAccessTakesExactlyTml) {
  MemoryConfig mc;
  mc.kind = "banked";
  mc.nodes = 1;
  const auto memory = make_memory(mc);
  des::Simulation sim;
  sim.spawn(issue_stream(sim, *memory, 0, 0, 32, 1));
  sim.run();
  EXPECT_DOUBLE_EQ(sim.now(), kTml);
}

TEST(Banked, HotspotBankSerializesAllAccesses) {
  // K independent streams all hammering node 0's bank: the per-bank FIFO
  // admits one access at a time, and uncontended service is exactly TML,
  // so the makespan is the full serialization K * n * TML.
  constexpr int kStreams = 4;
  constexpr int kPerStream = 25;
  MemoryConfig mc;
  mc.kind = "banked";
  mc.nodes = 4;
  const auto memory = make_memory(mc);
  des::Simulation sim;
  sim.set_audit(true);  // exercise the queue-conservation invariant
  for (int s = 0; s < kStreams; ++s) {
    sim.spawn(issue_stream(sim, *memory, /*node=*/0,
                           /*base=*/static_cast<std::uint64_t>(s) << 20, 32,
                           kPerStream));
  }
  sim.run();
  EXPECT_DOUBLE_EQ(sim.now(), kStreams * kPerStream * kTml);
  EXPECT_EQ(memory->accesses(),
            static_cast<std::uint64_t>(kStreams) * kPerStream);
}

TEST(Banked, PrivateBanksRunStreamsInParallel) {
  // The same streams spread over private banks overlap perfectly: the
  // makespan is one stream's serial latency, n * TML.
  constexpr int kStreams = 4;
  constexpr int kPerStream = 25;
  MemoryConfig mc;
  mc.kind = "banked";
  mc.nodes = kStreams;  // one bank per node by default
  const auto memory = make_memory(mc);
  des::Simulation sim;
  for (int s = 0; s < kStreams; ++s) {
    sim.spawn(issue_stream(sim, *memory, static_cast<std::size_t>(s),
                           static_cast<std::uint64_t>(s) << 32, 32,
                           kPerStream));
  }
  sim.run();
  EXPECT_DOUBLE_EQ(sim.now(), kPerStream * kTml);
}

TEST(Banked, SharedPortSerializesIndependentBanks) {
  // queue=1 models one shared access port: two streams on private banks
  // still serialize end to end.
  constexpr int kPerStream = 25;
  MemoryConfig mc;
  mc.kind = "banked";
  mc.nodes = 2;
  mc.queue = 1;
  const auto memory = make_memory(mc);
  des::Simulation sim;
  sim.set_audit(true);
  sim.spawn(issue_stream(sim, *memory, 0, 0, 32, kPerStream));
  sim.spawn(issue_stream(sim, *memory, 1, std::uint64_t{1} << 32, 32,
                         kPerStream));
  sim.run();
  EXPECT_DOUBLE_EQ(sim.now(), 2 * kPerStream * kTml);
}

TEST(Banked, StridedStreamKeepsRowsOpen) {
  // Walking one wide word at a time inside a node's region re-touches
  // each open row words_per_row - 1 times.
  MemoryConfig mc;
  mc.kind = "banked";
  mc.nodes = 1;
  const auto memory = make_memory(mc);
  des::Simulation sim;
  sim.spawn(issue_stream(sim, *memory, 0, 0, 32, 64));
  sim.run();
  // 8 words per row: 8 row openings out of 64 accesses -> 7/8 hit rate.
  EXPECT_DOUBLE_EQ(memory->row_hit_rate(), 56.0 / 64.0);
}

TEST(Banked, AccessMapMatchesBankOfAndRowOf) {
  // access() uses the precomputed table and divisor; bank_of/row_of are
  // the division-per-call reference.  Banks below, equal to and above
  // the node count, nodes past the table (wrapped), and a geometry whose
  // words_per_row (3) is not a power of two.
  for (const std::size_t banks : {std::size_t{3}, std::size_t{7}, std::size_t{11}}) {
    for (const std::size_t words : {std::size_t{8}, std::size_t{3}}) {
      MemoryConfig mc;
      mc.kind = "banked";
      mc.nodes = 7;
      mc.banks = banks;
      mc.spec.word_bits = 256;
      mc.spec.row_bits = 256 * words;
      const ContentionMemory memory(mc);
      const ContentionMemory::AccessMap map = memory.access_map();
      for (std::size_t node = 0; node < 3 * mc.nodes; ++node) {
        EXPECT_EQ(map.bank(node), memory.bank_of(node))
            << "banks=" << banks << " node=" << node;
      }
      for (std::uint64_t addr = 0; addr < 4096; addr += 7) {
        EXPECT_EQ(map.row(addr), memory.row_of(addr))
            << "words_per_row=" << words << " addr=" << addr;
      }
      const std::uint64_t high = ~std::uint64_t{0} - 12345;
      EXPECT_EQ(map.row(high), memory.row_of(high)) << words;
    }
  }
}

TEST(Banked, RebindToSecondSimulationThrows) {
  MemoryConfig mc;
  mc.kind = "banked";
  const auto memory = make_memory(mc);
  des::Simulation first;
  first.spawn(issue_stream(first, *memory, 0, 0, 32, 1));
  first.run();
  des::Simulation second;
  second.spawn(issue_stream(second, *memory, 0, 0, 32, 1));
  EXPECT_THROW(second.run(), LogicError);
}

MemoryConfig banked_config(std::size_t nodes, std::size_t banks,
                           std::size_t queue) {
  MemoryConfig mc;
  mc.kind = "banked";
  mc.nodes = nodes;
  mc.banks = banks;
  mc.queue = queue;
  return mc;
}

/// exclusive(node) for every node of one configuration.
std::vector<bool> exclusive_nodes(std::size_t nodes, std::size_t banks,
                                  std::size_t queue) {
  const auto memory = make_memory(banked_config(nodes, banks, queue));
  std::vector<bool> out;
  for (std::size_t n = 0; n < nodes; ++n) {
    out.push_back(memory->exclusive(n));
    EXPECT_EQ(memory->exclusive(n + nodes), out.back()) << "wrapped " << n;
  }
  return out;
}

TEST(Exclusive, TruthTableOverBanksAndPorts) {
  const std::vector<bool> all(4, true);
  const std::vector<bool> none(4, false);
  // banks < nodes: every bank holds two nodes, whatever the ports.
  EXPECT_EQ(exclusive_nodes(4, 2, 0), none);
  EXPECT_EQ(exclusive_nodes(4, 2, 2), none);
  // banks == nodes: private banks; a port per bank is needed.
  EXPECT_EQ(exclusive_nodes(4, 0, 0), all);  // banks=0: one per node
  EXPECT_EQ(exclusive_nodes(4, 4, 0), all);
  EXPECT_EQ(exclusive_nodes(4, 4, 4), all);
  EXPECT_EQ(exclusive_nodes(4, 4, 9), all);  // clamped to banks
  EXPECT_EQ(exclusive_nodes(4, 4, 3), none);
  EXPECT_EQ(exclusive_nodes(4, 4, 1), none);
  // banks > nodes: four of eight banks in use, so four ports suffice
  // even though queue < banks.
  EXPECT_EQ(exclusive_nodes(4, 8, 0), all);
  EXPECT_EQ(exclusive_nodes(4, 8, 4), all);
  EXPECT_EQ(exclusive_nodes(4, 8, 3), none);
  // Uneven grouping: nodes 0 and 1 share bank 0, node 2 owns bank 1.
  EXPECT_EQ(exclusive_nodes(3, 2, 0), (std::vector<bool>{false, false, true}));
  EXPECT_EQ(exclusive_nodes(3, 2, 1), (std::vector<bool>{false, false, false}));
  EXPECT_EQ(exclusive_nodes(1, 0, 1), (std::vector<bool>{true}));
  // The analytic model has nothing to retire.
  const auto analytic = make_memory("analytic");
  EXPECT_FALSE(analytic->exclusive(0));
  des::Simulation sim;
  EXPECT_THROW((void)analytic->retire(sim, 0, 0, AccessKind::kLwpRow, 0.0),
               LogicError);
}

TEST(Exclusive, RetireKeepsTheStatisticsAccessWould) {
  // 64 strided accesses retired back to back on node 0's private bank
  // leave the same counters as the event-driven stream in
  // StridedStreamKeepsRowsOpen, and cost TML each.
  const auto memory = make_memory(banked_config(1, 0, 0));
  des::Simulation sim;
  sim.set_audit(true);  // bank conservation holds on the retire path
  SimTime t = 0.0;
  for (std::uint64_t i = 0; i < 64; ++i) {
    const Cycles latency =
        memory->retire(sim, 0, 32 * i, AccessKind::kLwpRow, t);
    EXPECT_EQ(latency, kTml);
    t += latency;
  }
  EXPECT_EQ(memory->accesses(), 64u);
  EXPECT_DOUBLE_EQ(memory->row_hit_rate(), 56.0 / 64.0);
  EXPECT_DOUBLE_EQ(sim.now(), 0.0);  // no event was scheduled
  EXPECT_EQ(sim.events_dispatched(), 0u);
  // A shared bank has no retire path.
  const auto shared = make_memory(banked_config(2, 1, 0));
  EXPECT_THROW((void)shared->retire(sim, 0, 0, AccessKind::kLwpRow, 0.0),
               LogicError);
}

void ignore_completion(void* /*ctx*/, std::uint64_t /*a*/,
                       std::uint64_t /*b*/) {}

TEST(Exclusive, AccessIntoAReservedBankThrows) {
  // An access retired at t=0 holds its bank until TML; an event-path
  // access landing before that would overlap it.
  const auto memory = make_memory(banked_config(1, 0, 0));
  des::Simulation sim;
  (void)memory->retire(sim, 0, 0, AccessKind::kLwpRow, 0.0);
  EXPECT_THROW(memory->access(sim, 0, 32, AccessKind::kLwpRow, false,
                              &ignore_completion, nullptr, 0, 0),
               LogicError);
  EXPECT_EQ(memory->accesses(), 1u);
  // Once simulated time reaches the reservation the bank is free again.
  (void)sim.schedule_at(kTml, [] {});
  sim.run();
  memory->access(sim, 0, 32, AccessKind::kLwpRow, false, &ignore_completion,
                 nullptr, 0, 0);
  sim.run();
  EXPECT_EQ(memory->accesses(), 2u);
  EXPECT_DOUBLE_EQ(sim.now(), 2 * kTml);
}

TEST(Exclusive, RetireOnABusyBankThrows) {
  const auto memory = make_memory(banked_config(1, 0, 0));
  des::Simulation sim;
  memory->access(sim, 0, 0, AccessKind::kLwpRow, false, &ignore_completion,
                 nullptr, 0, 0);  // in service until TML
  EXPECT_THROW((void)memory->retire(sim, 0, 32, AccessKind::kLwpRow, 0.0),
               LogicError);
  sim.run();
  // Retiring out of stream order (before the last retired access ends)
  // is rejected too.
  (void)memory->retire(sim, 0, 32, AccessKind::kLwpRow, sim.now());
  EXPECT_THROW(
      (void)memory->retire(sim, 0, 64, AccessKind::kLwpRow, sim.now()),
      LogicError);
}

TEST(MemorySeam, AnalyticDefaultBitwiseEqualsExplicitAnalytic) {
  // The seam's acceptance gate: the default figures are bit-identical to
  // an explicit memory=analytic run (the scenario wiring adds no state).
  for (const char* name : {"fig5", "fig7"}) {
    const auto& s = core::ScenarioRegistry::global().get(name);
    const Config base = Config::from_string(s.verify_params);
    const Config explicit_cfg =
        Config::from_string(s.verify_params + " memory=analytic");
    const auto fp_default =
        core::table_fingerprint(core::run_scenario(s, base));
    // fig7 is analytic-only and declares no memory knob; fall back to the
    // default config for it (the loop still pins its rerun determinism).
    const bool has_knob = name == std::string("fig5");
    const auto fp_explicit = core::table_fingerprint(
        core::run_scenario(s, has_knob ? explicit_cfg : base));
    EXPECT_EQ(fp_default, fp_explicit) << name;
  }
}

TEST(MemorySeam, BankedRunsAreBitIdenticalAcrossReruns) {
  const auto& s = core::ScenarioRegistry::global().get("memory_contention");
  const Config cfg = Config::from_string(s.verify_params);
  const auto fp1 = core::table_fingerprint(core::run_scenario(s, cfg));
  const auto fp2 = core::table_fingerprint(core::run_scenario(s, cfg));
  EXPECT_EQ(fp1, fp2);
  // The pinned verify_fingerprint itself is compiler/libm sensitive, so
  // only `pimsim verify strict=1` enforces it (scenario.hpp).
}

TEST(MemorySeam, Fig5BankedIsDeterministicAndSlower) {
  const auto& s = core::ScenarioRegistry::global().get("fig5");
  const Config banked =
      Config::from_string(s.verify_params + " memory=banked mem_banks=1");
  const auto fp1 = core::table_fingerprint(core::run_scenario(s, banked));
  const auto fp2 = core::table_fingerprint(core::run_scenario(s, banked));
  EXPECT_EQ(fp1, fp2);
  const Config base = Config::from_string(s.verify_params);
  EXPECT_NE(fp1, core::table_fingerprint(core::run_scenario(s, base)));
}

}  // namespace
}  // namespace pimsim::mem
