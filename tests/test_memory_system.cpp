// Tests for the MemorySystem seam (src/memory/memory_system.hpp) and the
// banked-DRAM backend (src/memory/contention_memory.hpp): factory error
// contract, analytic-default bitwise equality, zero-load degeneracy,
// bank-conflict serialization, and run-to-run determinism.
#include <gtest/gtest.h>

#include <string>
#include <vector>

#include "closure_arena.hpp"
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

/// A fixed closed-loop stream: `count` accesses walking `stride` bytes
/// from `base`, each issued as the previous one retires.  Records every
/// completion time it is handed.
class FixedStream final : public AccessStream {
 public:
  FixedStream(std::uint64_t base, std::uint64_t stride, int count)
      : addr_(base), stride_(stride), left_(count) {}

  StreamStep next(SimTime done_at) override {
    if (started_) {
      completions.push_back(done_at);
      addr_ += stride_;
    }
    started_ = true;
    if (left_ == 0) return StreamStep{.at = done_at, .end = true};
    --left_;
    return StreamStep{.at = done_at, .addr = addr_};
  }

  std::vector<SimTime> completions;

 private:
  std::uint64_t addr_;
  std::uint64_t stride_;
  int left_;
  bool started_ = false;
};

/// A stream whose second access is issued before its first retires.
class BackwardStream final : public AccessStream {
 public:
  StreamStep next(SimTime done_at) override {
    return StreamStep{.at = steps_++ == 0 ? done_at : done_at - 1.0};
  }

 private:
  int steps_ = 0;
};

void ignore_completion(void* /*ctx*/, std::uint64_t /*a*/,
                       std::uint64_t /*b*/) {}

/// Whether a one-access stream from each node ran inline (its bank is
/// exclusive) on a fresh memory of one configuration.
std::vector<bool> inline_nodes(std::size_t nodes, std::size_t banks,
                               std::size_t queue) {
  std::vector<bool> out;
  for (std::size_t n = 0; n < 2 * nodes; ++n) {
    const auto memory = make_memory(banked_config(nodes, banks, queue));
    des::Simulation sim;
    FixedStream stream(0, 32, 1);
    SimTime end = -1.0;
    const bool deferred = memory->run_stream(sim, n, stream, end,
                                             &ignore_completion, nullptr);
    sim.run();
    EXPECT_EQ(end, kTml) << "node " << n;
    if (n < nodes) {
      out.push_back(!deferred);
    } else {
      EXPECT_EQ(!deferred, out[n - nodes]) << "wrapped " << n;
    }
  }
  return out;
}

TEST(Streams, ExclusiveTruthTableOverBanksAndPorts) {
  const std::vector<bool> all(4, true);
  const std::vector<bool> none(4, false);
  // banks < nodes: every bank holds two nodes, whatever the ports.
  EXPECT_EQ(inline_nodes(4, 2, 0), none);
  EXPECT_EQ(inline_nodes(4, 2, 2), none);
  // banks == nodes: private banks; a port per bank is needed.
  EXPECT_EQ(inline_nodes(4, 0, 0), all);  // banks=0: one per node
  EXPECT_EQ(inline_nodes(4, 4, 0), all);
  EXPECT_EQ(inline_nodes(4, 4, 4), all);
  EXPECT_EQ(inline_nodes(4, 4, 9), all);  // clamped to banks
  EXPECT_EQ(inline_nodes(4, 4, 3), none);
  EXPECT_EQ(inline_nodes(4, 4, 1), none);
  // banks > nodes: four of eight banks in use, so four ports suffice
  // even though queue < banks.
  EXPECT_EQ(inline_nodes(4, 8, 0), all);
  EXPECT_EQ(inline_nodes(4, 8, 4), all);
  EXPECT_EQ(inline_nodes(4, 8, 3), none);
  // Uneven grouping: nodes 0 and 1 share bank 0, node 2 owns bank 1.
  EXPECT_EQ(inline_nodes(3, 2, 0), (std::vector<bool>{false, false, true}));
  EXPECT_EQ(inline_nodes(3, 2, 1), (std::vector<bool>{false, false, false}));
  EXPECT_EQ(inline_nodes(1, 0, 1), (std::vector<bool>{true}));
}

TEST(Streams, AnalyticHasNoStreams) {
  // The analytic model never queues; its callers batch-charge instead.
  const auto analytic = make_memory("analytic");
  des::Simulation sim;
  FixedStream stream(0, 32, 1);
  SimTime end = -1.0;
  EXPECT_THROW((void)analytic->run_stream(sim, 0, stream, end,
                                          &ignore_completion, nullptr),
               LogicError);
}

TEST(Streams, ExclusiveStreamKeepsTheStatisticsAccessWould) {
  // 64 strided accesses back to back on node 0's private bank leave the
  // same counters as the event-driven stream in
  // StridedStreamKeepsRowsOpen, and cost TML each, with no event.
  const auto memory = make_memory(banked_config(1, 0, 0));
  des::Simulation sim;
  sim.set_audit(true);  // bank conservation holds on the inline path
  FixedStream stream(0, 32, 64);
  SimTime end = -1.0;
  EXPECT_FALSE(memory->run_stream(sim, 0, stream, end, &ignore_completion,
                                  nullptr));
  EXPECT_EQ(end, 64 * kTml);
  ASSERT_EQ(stream.completions.size(), 64u);
  for (std::size_t i = 0; i < 64; ++i) {
    EXPECT_EQ(stream.completions[i], static_cast<double>(i + 1) * kTml);
  }
  EXPECT_EQ(memory->accesses(), 64u);
  EXPECT_DOUBLE_EQ(memory->row_hit_rate(), 56.0 / 64.0);
  EXPECT_DOUBLE_EQ(sim.now(), 0.0);
  EXPECT_EQ(sim.events_dispatched(), 0u);
  // On a shared bank the stream is deferred to its instant's group.
  const auto shared = make_memory(banked_config(2, 1, 0));
  FixedStream deferred(0, 32, 1);
  EXPECT_TRUE(shared->run_stream(sim, 0, deferred, end, &ignore_completion,
                                 nullptr));
  EXPECT_EQ(shared->accesses(), 0u);
  sim.run();
  EXPECT_EQ(shared->accesses(), 1u);
}

TEST(Streams, AccessIntoAReservedBankThrows) {
  // An exclusive stream's access at t=0 holds its bank until TML; an
  // event-path access landing before that would overlap it.
  const auto memory = make_memory(banked_config(1, 0, 0));
  des::Simulation sim;
  FixedStream stream(0, 32, 1);
  SimTime end = -1.0;
  ASSERT_FALSE(memory->run_stream(sim, 0, stream, end, &ignore_completion,
                                  nullptr));
  EXPECT_THROW(memory->access(sim, 0, 32, AccessKind::kLwpRow, false,
                              &ignore_completion, nullptr, 0, 0),
               LogicError);
  EXPECT_EQ(memory->accesses(), 1u);
  // Once simulated time reaches the reservation the bank is free again.
  test::no_op_at(sim, kTml);
  sim.run();
  memory->access(sim, 0, 32, AccessKind::kLwpRow, false, &ignore_completion,
                 nullptr, 0, 0);
  sim.run();
  EXPECT_EQ(memory->accesses(), 2u);
  EXPECT_DOUBLE_EQ(sim.now(), 2 * kTml);
}

TEST(Streams, ExclusiveStreamOnABusyBankThrows) {
  const auto memory = make_memory(banked_config(1, 0, 0));
  des::Simulation sim;
  memory->access(sim, 0, 0, AccessKind::kLwpRow, false, &ignore_completion,
                 nullptr, 0, 0);  // in service until TML
  FixedStream stream(32, 32, 1);
  SimTime end = -1.0;
  EXPECT_THROW((void)memory->run_stream(sim, 0, stream, end,
                                        &ignore_completion, nullptr),
               LogicError);
  sim.run();
  // A stream that issues before its last access retired is rejected, on
  // an exclusive bank and in a group alike.
  BackwardStream backward;
  EXPECT_THROW((void)memory->run_stream(sim, 0, backward, end,
                                        &ignore_completion, nullptr),
               LogicError);
  const auto shared = make_memory(banked_config(2, 1, 0));
  des::Simulation sim2;
  BackwardStream backward2;
  ASSERT_TRUE(shared->run_stream(sim2, 0, backward2, end, &ignore_completion,
                                 nullptr));
  EXPECT_THROW(sim2.run(), LogicError);
}

/// Counts owner hand-backs; `ctx` is the counter.
void count_completion(void* ctx, std::uint64_t /*a*/, std::uint64_t /*b*/) {
  ++*static_cast<int*>(ctx);
}

TEST(Streams, GroupOwnsTheMemoryUntilItsLastStreamEnds) {
  // Two streams on one shared bank form a group at t=0.  From their
  // registration until the later one ends, neither access() nor a new
  // stream may touch the memory; at that end both may again.
  const auto memory = make_memory(banked_config(2, 1, 0));
  des::Simulation sim;
  FixedStream first(0, 32, 2);
  FixedStream second(std::uint64_t{1} << 32, 32, 2);
  SimTime end_first = -1.0;
  SimTime end_second = -1.0;
  int handed_back = 0;
  ASSERT_TRUE(memory->run_stream(sim, 0, first, end_first, &count_completion,
                                 &handed_back));
  ASSERT_TRUE(memory->run_stream(sim, 1, second, end_second,
                                 &count_completion, &handed_back));
  // Pending: the group has not run yet.
  EXPECT_THROW(memory->access(sim, 0, 0, AccessKind::kLwpRow, false,
                              &ignore_completion, nullptr, 0, 0),
               LogicError);
  ASSERT_TRUE(sim.step());  // the group's one static call
  EXPECT_EQ(handed_back, 2);
  EXPECT_DOUBLE_EQ(sim.now(), 0.0);
  // FIFO on one bank: first, second, first, second.
  EXPECT_EQ(first.completions, (std::vector<SimTime>{kTml, 3 * kTml}));
  EXPECT_EQ(second.completions, (std::vector<SimTime>{2 * kTml, 4 * kTml}));
  EXPECT_EQ(end_first, 3 * kTml);
  EXPECT_EQ(end_second, 4 * kTml);
  EXPECT_EQ(memory->accesses(), 4u);
  EXPECT_FALSE(sim.step());  // nothing else was scheduled
  // Running: owned until 4 * TML.
  test::no_op_at(sim, 4 * kTml - 1.0);
  sim.run();
  EXPECT_THROW(memory->access(sim, 0, 0, AccessKind::kLwpRow, false,
                              &ignore_completion, nullptr, 0, 0),
               LogicError);
  FixedStream late(0, 32, 1);
  SimTime end_late = -1.0;
  EXPECT_THROW((void)memory->run_stream(sim, 1, late, end_late,
                                        &ignore_completion, nullptr),
               LogicError);
  test::no_op_at(sim, 4 * kTml);
  sim.run();
  EXPECT_TRUE(memory->run_stream(sim, 1, late, end_late, &ignore_completion,
                                 nullptr));
  sim.run();
  EXPECT_EQ(end_late, 5 * kTml);
  test::no_op_at(sim, end_late);  // the owner's wait for its end
  sim.run();
  memory->access(sim, 0, 0, AccessKind::kLwpRow, false, &ignore_completion,
                 nullptr, 0, 0);
  sim.run();
  EXPECT_EQ(memory->accesses(), 6u);
}

TEST(Streams, StreamWhileAccessesAreInFlightThrows) {
  // A group would run ahead of the kernel past a queued access() request.
  const auto memory = make_memory(banked_config(2, 1, 0));
  des::Simulation sim;
  memory->access(sim, 0, 0, AccessKind::kLwpRow, false, &ignore_completion,
                 nullptr, 0, 0);
  FixedStream stream(0, 32, 1);
  SimTime end = -1.0;
  EXPECT_THROW((void)memory->run_stream(sim, 1, stream, end,
                                        &ignore_completion, nullptr),
               LogicError);
  sim.run();
  EXPECT_TRUE(memory->run_stream(sim, 1, stream, end, &ignore_completion,
                                 nullptr));
  sim.run();
  EXPECT_EQ(end, 2 * kTml);
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
