// Tests for the MemorySystem seam (src/memory/memory_system.hpp) and the
// banked-DRAM backend (src/memory/contention_memory.hpp): factory error
// contract, analytic-default bitwise equality, zero-load degeneracy,
// bank-conflict serialization, and run-to-run determinism.
#include <gtest/gtest.h>

#include <string>

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
