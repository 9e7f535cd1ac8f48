// Tests for the HWP/LWP processor models and the host-system composition
// (the paper's Section 3 simulation).
#include <gtest/gtest.h>

#include <algorithm>
#include <memory>
#include <string>
#include <tuple>
#include <utility>
#include <vector>

#include "arch/host_system.hpp"
#include "arch/hwp.hpp"
#include "arch/lwp.hpp"
#include "arch/params.hpp"
#include "common/error.hpp"
#include "des/process.hpp"
#include "des/simulation.hpp"
#include "memory/memory_system.hpp"
#include "obs/metrics.hpp"

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

/// Test-side copy of the per-access loop Lwp::run_contended ran before
/// access streams: the process meets the kernel before every access
/// (wait_until) and awaits it through the event seam.  The oracle the
/// stream path must match bit for bit.
des::Process per_access_loop(des::Simulation& sim,
                             const mem::MemorySystem& memory,
                             const SystemParams& params, Rng& rng,
                             OpCounts& counts, std::size_t node,
                             std::uint64_t ops) {
  std::uint64_t addr = static_cast<std::uint64_t>(node) << 32;
  std::uint64_t remaining = ops;
  SimTime t = sim.now();
  while (remaining > 0) {
    const std::uint64_t compute =
        std::min(rng.geometric(params.ls_mix), remaining);
    if (compute > 0) {
      t += static_cast<double>(compute) * params.tl_cycle;
      counts.ops += compute;
      counts.busy_cycles += static_cast<double>(compute) * params.tl_cycle;
      remaining -= compute;
    }
    if (remaining == 0) break;
    const SimTime start = t;
    co_await des::wait_until(sim, t);
    co_await mem::AccessAwaitable{memory, sim, node, addr,
                                  mem::AccessKind::kLwpRow};
    t = sim.now();
    addr += 32;
    counts.ops += 1;
    counts.mem_ops += 1;
    counts.busy_cycles += t - start;
    remaining -= 1;
  }
  co_await des::wait_until(sim, t);
}

des::Process joined(des::Simulation& sim, des::Process child,
                    des::CountdownLatch& latch) {
  co_await des::spawn_join(sim, std::move(child));
  latch.count_down();
}

/// `phases` fork/join phases of one `make(node)` process per node, all
/// started at the phase's first instant (the host system's LWP phases).
template <class Make>
des::Process phased(des::Simulation& sim, std::size_t nodes,
                    std::size_t phases, Make make) {
  for (std::size_t ph = 0; ph < phases; ++ph) {
    des::CountdownLatch latch(sim, nodes);
    for (std::size_t n = 0; n < nodes; ++n) {
      sim.spawn(joined(sim, make(n), latch));
    }
    co_await latch.wait();
  }
}

struct StreamCase {
  std::size_t nodes = 1;
  std::size_t banks = 0;
  std::size_t queue = 0;
  std::size_t phases = 1;
  /// Label of the bank whose node runs alone (exclusive), or "".  Its
  /// stream never queues, so the stream path keeps no queue gauge or
  /// queue-depth records for it; every other statistic still matches.
  std::string exclusive_bank;
};

/// Everything a run leaves behind that the two paths must agree on.
struct ContendedRun {
  double now = 0.0;
  std::vector<OpCounts> counts;
  std::uint64_t accesses = 0;
  double row_hit_rate = 0.0;
  std::uint64_t bank_stats = 0;  ///< fingerprint of per-bank row stats
  std::tuple<double, double, double, double> gauge;  ///< max, area, span, t
  /// Bank queue-depth counter records: (time, bank label, depth).
  std::vector<std::tuple<double, std::string, std::uint64_t>> queue_trace;
  std::uint64_t dispatches = 0;
};

ContendedRun run_case(const StreamCase& c, bool streams) {
  constexpr std::uint64_t kOps = 6'000;
  const SystemParams params = SystemParams::table1();
  mem::MemoryConfig mc;
  mc.kind = "banked";
  mc.nodes = c.nodes;
  mc.banks = c.banks;
  mc.queue = c.queue;
  const auto memory = mem::make_memory(mc);
  des::Simulation sim;
  sim.set_audit(true);  // bank conservation on both paths
  sim.set_metrics(true);
  ContendedRun out;
  des::Tracer tracer([&](const des::TraceRecord& r) {
    if (r.kind == des::TraceKind::kCounter) {
      out.queue_trace.emplace_back(r.time, tracer.label(r.label), r.a);
    }
  });
  sim.set_tracer(&tracer);
  std::vector<Rng> rngs;
  std::vector<std::unique_ptr<Lwp>> lwps;
  out.counts.resize(c.nodes);
  for (std::size_t n = 0; n < c.nodes; ++n) {
    rngs.emplace_back(29, n);
    lwps.push_back(std::make_unique<Lwp>(sim, params, Rng(29, n), 1000,
                                         memory.get(), n));
  }
  if (streams) {
    sim.spawn(phased(sim, c.nodes, c.phases,
                     [&](std::size_t n) { return lwps[n]->run(kOps); }));
  } else {
    sim.spawn(phased(sim, c.nodes, c.phases, [&](std::size_t n) {
      return per_access_loop(sim, *memory, params, rngs[n], out.counts[n], n,
                             kOps);
    }));
  }
  sim.run();
  sim.set_tracer(nullptr);
  if (streams) {
    for (std::size_t n = 0; n < c.nodes; ++n) out.counts[n] = lwps[n]->counts();
  }
  obs::MetricsRegistry bank_stats;
  memory->collect_metrics(bank_stats);
  const obs::Gauge& g = sim.metrics().gauge("mem.queued_requests");
  out.now = sim.now();
  out.accesses = memory->accesses();
  out.row_hit_rate = memory->row_hit_rate();
  out.bank_stats = bank_stats.fingerprint();
  out.gauge = {g.max(), g.area(), g.span(), g.last_time()};
  std::erase_if(out.queue_trace, [&c](const auto& rec) {
    return std::get<1>(rec) == c.exclusive_bank;
  });
  out.dispatches = sim.events_dispatched();
  return out;
}

TEST(Lwp, StreamPathIsBitwiseThePerAccessLoop) {
  // {nodes, banks (0: one per node), ports (0: one per bank), phases,
  //  exclusive bank}
  const std::vector<std::pair<const char*, StreamCase>> cases = {
      {"banks=N, one port", {4, 4, 1, 1, ""}},
      {"banks<N", {4, 2, 0, 1, ""}},
      {"two ports<banks", {8, 4, 2, 1, ""}},
      {"N=1 exclusive", {1, 0, 0, 1, "mem.bank0.queue"}},
      {"mixed group", {3, 2, 0, 1, "mem.bank1.queue"}},
      {"two phases", {4, 1, 0, 2, ""}},
  };
  for (const auto& [name, c] : cases) {
    SCOPED_TRACE(name);
    const ContendedRun a = run_case(c, /*streams=*/false);
    const ContendedRun b = run_case(c, /*streams=*/true);
    EXPECT_EQ(a.now, b.now);
    std::uint64_t mem_ops = 0;
    for (std::size_t n = 0; n < c.nodes; ++n) {
      EXPECT_EQ(a.counts[n].ops, c.phases * 6'000) << "node " << n;
      EXPECT_EQ(a.counts[n].ops, b.counts[n].ops) << "node " << n;
      EXPECT_EQ(a.counts[n].mem_ops, b.counts[n].mem_ops) << "node " << n;
      EXPECT_EQ(a.counts[n].busy_cycles, b.counts[n].busy_cycles)
          << "node " << n;
      mem_ops += a.counts[n].mem_ops;
    }
    EXPECT_EQ(a.accesses, mem_ops);
    EXPECT_EQ(a.accesses, b.accesses);
    EXPECT_EQ(a.row_hit_rate, b.row_hit_rate);
    EXPECT_EQ(a.bank_stats, b.bank_stats);
    EXPECT_EQ(a.queue_trace, b.queue_trace);
    if (c.exclusive_bank.empty()) {
      EXPECT_EQ(a.gauge, b.gauge);
      EXPECT_GT(std::get<0>(a.gauge), 1.0);  // something queued
    }
    // The per-access loop dispatches at least one event per access; the
    // stream path a fixed handful per stream and phase.
    EXPECT_GT(a.dispatches, a.accesses);
    EXPECT_LE(b.dispatches, c.phases * (6 * c.nodes + 2));
  }
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
