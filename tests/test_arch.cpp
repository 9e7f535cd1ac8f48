// Tests for the HWP/LWP processor models and the host-system composition
// (the paper's Section 3 simulation).
#include <gtest/gtest.h>

#include "arch/host_system.hpp"
#include "arch/hwp.hpp"
#include "arch/lwp.hpp"
#include "arch/params.hpp"
#include "common/error.hpp"
#include "des/simulation.hpp"
#include "memory/memory_system.hpp"

namespace pimsim::arch {
namespace {

TEST(SystemParams, Table1DerivedQuantities) {
  const SystemParams p = SystemParams::table1();
  // 1 + 0.3*(2 - 1 + 0.1*90) = 4.0 HWP cycles per op.
  EXPECT_DOUBLE_EQ(p.hwp_cost_per_op(), 4.0);
  // 5 + 0.3*(30 - 5) = 12.5 HWP cycles per op.
  EXPECT_DOUBLE_EQ(p.lwp_cost_per_op(), 12.5);
  EXPECT_DOUBLE_EQ(p.nb(), 3.125);
}

TEST(SystemParams, ValidationCatchesBadValues) {
  SystemParams p;
  p.p_miss = 1.5;
  EXPECT_THROW(p.validate(), ConfigError);
  p = SystemParams{};
  p.tl_cycle = 0.5;
  EXPECT_THROW(p.validate(), ConfigError);
  p = SystemParams{};
  p.th_cycle_ns = 0.0;
  EXPECT_THROW(p.validate(), ConfigError);
}

TEST(Hwp, MeanTimeMatchesCostModel) {
  des::Simulation sim;
  Hwp hwp(sim, SystemParams::table1(), Rng(3), 10'000);
  const std::uint64_t ops = 1'000'000;
  sim.spawn(hwp.run(ops));
  sim.run();
  // Expected 4.0 cycles/op; binomial sampling keeps it within ~1%.
  EXPECT_NEAR(sim.now() / static_cast<double>(ops), 4.0, 0.04);
  EXPECT_EQ(hwp.counts().ops, ops);
  EXPECT_NEAR(hwp.observed_miss_rate(), 0.1, 0.01);
}

TEST(Hwp, PartialFinalBatch) {
  des::Simulation sim;
  Hwp hwp(sim, SystemParams::table1(), Rng(5), 1000);
  sim.spawn(hwp.run(2500));  // 1000 + 1000 + 500
  sim.run();
  EXPECT_EQ(hwp.counts().ops, 2500u);
}

TEST(Hwp, DeterministicGivenSeed) {
  auto run_once = [](std::uint64_t seed) {
    des::Simulation sim;
    Hwp hwp(sim, SystemParams::table1(), Rng(seed), 1000);
    sim.spawn(hwp.run(100'000));
    sim.run();
    return sim.now();
  };
  EXPECT_DOUBLE_EQ(run_once(42), run_once(42));
  EXPECT_NE(run_once(42), run_once(43));
}

TEST(Lwp, MeanTimeMatchesCostModel) {
  des::Simulation sim;
  Lwp lwp(sim, SystemParams::table1(), Rng(7), 10'000);
  const std::uint64_t ops = 1'000'000;
  sim.spawn(lwp.run(ops));
  sim.run();
  EXPECT_NEAR(sim.now() / static_cast<double>(ops), 12.5, 0.1);
  EXPECT_EQ(lwp.counts().ops, ops);
}

TEST(Lwp, ContendedPathMatchesBatchedMeanWithoutContention) {
  // One thread with a private bank must see the same mean cost as the
  // statistical path (no conflicts to serialize).
  const SystemParams params = SystemParams::table1();
  mem::MemoryConfig mc;
  mc.kind = "banked";
  mc.nodes = 1;
  const auto memory = mem::make_memory(mc);
  des::Simulation sim;
  Lwp lwp(sim, params, Rng(11), 1000, memory.get(), 0);
  const std::uint64_t ops = 20'000;
  sim.spawn(lwp.run(ops));
  sim.run();
  EXPECT_NEAR(sim.now() / static_cast<double>(ops), 12.5, 0.4);
}

TEST(Lwp, SharedBankContentionSlowsThreadsDown) {
  // Ablation sanity: two threads sharing one memory bank must take longer
  // per op than two threads with private banks.
  const SystemParams params = SystemParams::table1();
  auto run_pair = [&params](std::size_t banks) {
    mem::MemoryConfig mc;
    mc.kind = "banked";
    mc.nodes = 2;
    mc.banks = banks;
    const auto memory = mem::make_memory(mc);
    des::Simulation sim;
    Lwp a(sim, params, Rng(13, 1), 1000, memory.get(), 0);
    Lwp b(sim, params, Rng(13, 2), 1000, memory.get(), 1);
    sim.spawn(a.run(20'000));
    sim.spawn(b.run(20'000));
    sim.run();
    return sim.now();
  };
  EXPECT_GT(run_pair(1), 1.2 * run_pair(2));
}

/// One LWP stream on a banked memory of `nodes` nodes over `banks`
/// banks, issued from node 0 only.
struct ContendedRun {
  double now = 0.0;
  OpCounts counts;
  std::uint64_t accesses = 0;
  double row_hit_rate = 0.0;
  std::uint64_t dispatches = 0;
  bool exclusive = false;
};

ContendedRun run_node0(std::size_t nodes, std::size_t banks,
                       std::uint64_t ops) {
  mem::MemoryConfig mc;
  mc.kind = "banked";
  mc.nodes = nodes;
  mc.banks = banks;
  const auto memory = mem::make_memory(mc);
  des::Simulation sim;
  sim.set_audit(true);  // bank conservation on both paths
  Lwp lwp(sim, SystemParams::table1(), Rng(29, 3), 1000, memory.get(), 0);
  sim.spawn(lwp.run(ops));
  sim.run();
  return {sim.now(),          lwp.counts(),
          memory->accesses(), memory->row_hit_rate(),
          sim.events_dispatched(), memory->exclusive(0)};
}

TEST(Lwp, ExclusiveBankLookaheadIsBitwiseTheEventPath) {
  // Case A: node 0's bank is shared with (idle) node 1, so every access
  // meets the kernel.  Case B: node 0 alone owns its bank, so the stream
  // retires on the LWP's local clock.  Same Rng, same bits.
  constexpr std::uint64_t kOps = 20'000;
  const ContendedRun a = run_node0(/*nodes=*/2, /*banks=*/1, kOps);
  const ContendedRun b = run_node0(/*nodes=*/1, /*banks=*/0, kOps);
  ASSERT_FALSE(a.exclusive);
  ASSERT_TRUE(b.exclusive);
  EXPECT_EQ(a.now, b.now);
  EXPECT_EQ(a.counts.ops, kOps);
  EXPECT_EQ(a.counts.ops, b.counts.ops);
  EXPECT_EQ(a.counts.mem_ops, b.counts.mem_ops);
  EXPECT_EQ(a.counts.busy_cycles, b.counts.busy_cycles);
  EXPECT_EQ(a.accesses, a.counts.mem_ops);
  EXPECT_EQ(a.accesses, b.accesses);
  EXPECT_EQ(a.row_hit_rate, b.row_hit_rate);
  // The event path dispatches at least one event per access; the
  // exclusive path dispatches the start and the one wake-up at the end.
  EXPECT_GT(a.dispatches, a.accesses);
  EXPECT_LE(b.dispatches, 2u);
}

HostConfig small_config(std::size_t nodes, double pct) {
  HostConfig cfg;
  cfg.workload.total_ops = 1'000'000;
  cfg.workload.lwp_fraction = pct;
  cfg.lwp_nodes = nodes;
  cfg.batch_ops = 10'000;
  cfg.seed = 5;
  return cfg;
}

TEST(HostSystem, ControlMatchesHwpCost) {
  const HostResult control = run_control_system(small_config(8, 0.5));
  EXPECT_NEAR(control.total_cycles, 4.0e6, 0.05e6);
  EXPECT_DOUBLE_EQ(control.lwp_cycles, 0.0);
}

TEST(HostSystem, TestRunMatchesAnalyticMakespan) {
  const auto cfg = small_config(8, 0.5);
  const HostResult r = run_host_system(cfg);
  // 0.5*1e6*4.0 + 0.5*1e6*12.5/8 = 2.78e6 cycles.
  EXPECT_NEAR(r.total_cycles, 2.0e6 + 0.78125e6, 0.06e6);
  EXPECT_GT(r.hwp_cycles, 0.0);
  EXPECT_GT(r.lwp_cycles, 0.0);
  EXPECT_EQ(r.hwp_ops + r.lwp_ops, cfg.workload.total_ops);
}

TEST(HostSystem, ZeroLwpFractionEqualsControl) {
  const auto cfg = small_config(8, 0.0);
  const HostResult test = run_host_system(cfg);
  const HostResult control = run_control_system(cfg);
  EXPECT_DOUBLE_EQ(test.total_cycles, control.total_cycles);
}

TEST(HostSystem, AllLwpWorkScalesWithNodes) {
  const HostResult n1 = run_host_system(small_config(1, 1.0));
  const HostResult n8 = run_host_system(small_config(8, 1.0));
  EXPECT_NEAR(n1.total_cycles / n8.total_cycles, 8.0, 0.4);
}

TEST(HostSystem, GainImprovesWithNodesWhenAboveNb) {
  const double g4 = simulated_gain(small_config(4, 0.8));
  const double g16 = simulated_gain(small_config(16, 0.8));
  const double g64 = simulated_gain(small_config(64, 0.8));
  EXPECT_GT(g16, g4);
  EXPECT_GT(g64, g16);
}

TEST(HostSystem, SingleNodeBelowNbIsSlowdown) {
  // N=1 < NB=3.125: PIM hurts (Time_relative > 1, gain < 1).
  EXPECT_LT(simulated_gain(small_config(1, 0.5)), 1.0);
}

TEST(HostSystem, PhaseCountDoesNotChangeTotals) {
  auto cfg = small_config(8, 0.6);
  cfg.phases = 1;
  const double t1 = run_host_system(cfg).total_cycles;
  cfg.phases = 16;
  const double t16 = run_host_system(cfg).total_cycles;
  EXPECT_NEAR(t1, t16, 0.02 * t1);
}

TEST(HostSystem, BatchSizeDoesNotBiasTotals) {
  auto cfg = small_config(8, 0.6);
  cfg.batch_ops = 1'000;
  const double fine = run_host_system(cfg).total_cycles;
  cfg.batch_ops = 100'000;
  const double coarse = run_host_system(cfg).total_cycles;
  EXPECT_NEAR(fine, coarse, 0.02 * fine);
}

TEST(HostSystem, BankConflictAblationSlowsLwpPhases) {
  auto cfg = small_config(8, 1.0);
  cfg.workload.total_ops = 200'000;
  cfg.memory.kind = "banked";
  cfg.memory.banks = 8;  // private banks: no conflicts, baseline
  const double clean = run_host_system(cfg).total_cycles;
  cfg.memory.banks = 2;  // four LWPs share one single-ported bank
  const double conflicted = run_host_system(cfg).total_cycles;
  EXPECT_GT(conflicted, 1.3 * clean);
}

TEST(HostSystem, PrivateBanksMatchContentionFreeModel) {
  // The paper asserts omitting bank conflicts introduces no inaccuracy
  // for this workload; with one LWP per bank the detailed path agrees
  // with the batched contention-free path.
  auto cfg = small_config(8, 1.0);
  cfg.workload.total_ops = 200'000;
  const double batched = run_host_system(cfg).total_cycles;
  cfg.memory.kind = "banked";
  cfg.memory.banks = 8;
  const double detailed = run_host_system(cfg).total_cycles;
  EXPECT_NEAR(detailed, batched, 0.05 * batched);
}

TEST(HostSystem, ConfigValidation) {
  HostConfig cfg;
  cfg.lwp_nodes = 0;
  EXPECT_THROW(cfg.validate(), ConfigError);
  cfg = HostConfig{};
  cfg.memory.kind = "bogus";  // seam config validated by make_memory
  cfg.workload.total_ops = 1000;
  EXPECT_THROW((void)run_host_system(cfg), InvalidArgument);
}

}  // namespace
}  // namespace pimsim::arch
