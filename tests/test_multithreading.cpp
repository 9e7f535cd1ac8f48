// Tests for the multithreaded-node extension (paper Section 5.2 / [27]):
// closed forms, the DES model, and their agreement.
#include <gtest/gtest.h>

#include "analytic/multithreading.hpp"
#include "arch/mtlwp.hpp"
#include "common/error.hpp"
#include "des/simulation.hpp"

namespace pimsim::analytic {
namespace {

using arch::SystemParams;

TEST(MultithreadModel, SingleThreadReproducesTableOneCost) {
  const SystemParams p = SystemParams::table1();
  EXPECT_NEAR(lwp_cost_per_op_mt(p, 1, 1.0), p.lwp_cost_per_op(), 1e-12);
  EXPECT_NEAR(nb_mt(p, 1, 1.0), p.nb(), 1e-12);
}

TEST(MultithreadModel, SaturationThreadsForTableOne) {
  const SystemParams p = SystemParams::table1();
  const MultithreadSpec spec = lwp_thread_spec(p, 1.0);
  // R = 5 * (0.7/0.3) = 11.667, C = 1, L = 30:
  // K_sat = (12.667 + 30) / 12.667 = 3.368.
  EXPECT_NEAR(spec.run_cycles, 5.0 * (0.7 / 0.3), 1e-9);
  EXPECT_NEAR(saturation_threads(spec), (12.0 + 2.0 / 3.0 + 30.0) /
                                            (12.0 + 2.0 / 3.0),
              1e-9);
}

TEST(MultithreadModel, SpeedupIsMonotoneAndSaturates) {
  const SystemParams p = SystemParams::table1();
  const MultithreadSpec spec = lwp_thread_spec(p, 1.0);
  double prev = 0.0;
  for (std::size_t k = 1; k <= 16; ++k) {
    const double s = speedup(spec, k);
    EXPECT_GE(s, prev - 1e-12);
    prev = s;
  }
  // Saturated speedup: (R+L)/(R+C) = 41.667/12.667 = 3.289.
  EXPECT_NEAR(speedup(spec, 16), (spec.run_cycles + spec.stall_cycles) /
                                     (spec.run_cycles + spec.switch_cost),
              1e-9);
}

TEST(MultithreadModel, MultithreadingLowersNbBelowOne) {
  // The "tremendous benefit": with 4 threads and a 1-cycle switch, one
  // LWP node out-executes the HWP on low-locality work (NB < 1.2).
  const SystemParams p = SystemParams::table1();
  EXPECT_LT(nb_mt(p, 4, 1.0), 1.2);
  EXPECT_GT(nb_mt(p, 1, 1.0), 3.0);
}

TEST(MultithreadModel, SwitchCostErodesTheBenefit) {
  const SystemParams p = SystemParams::table1();
  EXPECT_LT(nb_mt(p, 4, 0.0), nb_mt(p, 4, 5.0));
  EXPECT_LT(nb_mt(p, 4, 5.0), nb_mt(p, 4, 20.0));
}

TEST(MultithreadModel, TimeRelativeCrossoverShiftsLeft) {
  const SystemParams p = SystemParams::table1();
  // With multithreaded nodes the coincidence point moves to nb_mt.
  const double nb4 = nb_mt(p, 4, 1.0);
  for (double pct : {0.3, 0.7, 1.0}) {
    EXPECT_NEAR(time_relative_mt(p, std::max(nb4, 1.0), pct, 4, 1.0),
                1.0 - pct * (1.0 - nb4 / std::max(nb4, 1.0)), 1e-12);
  }
}

TEST(MultithreadModel, UtilizationRegimes) {
  MultithreadSpec spec{10.0, 40.0, 0.0};
  EXPECT_NEAR(utilization(spec, 1), 0.2, 1e-12);   // 10/50
  EXPECT_NEAR(utilization(spec, 2), 0.4, 1e-12);   // linear
  EXPECT_NEAR(utilization(spec, 5), 1.0, 1e-12);   // exactly saturated
  EXPECT_NEAR(utilization(spec, 50), 1.0, 1e-12);  // clamped
}

TEST(MultithreadModel, Validation) {
  MultithreadSpec bad{0.0, 10.0, 1.0};
  EXPECT_THROW(bad.validate(), ConfigError);
  const SystemParams p = SystemParams::table1();
  EXPECT_THROW(
      {
        const double c = lwp_cost_per_op_mt(p, 0, 1.0);
        ADD_FAILURE() << "lwp_cost_per_op_mt accepted 0 threads, returned "
                      << c;
      },
      ConfigError);
  SystemParams no_mem = p;
  no_mem.ls_mix = 0.0;
  EXPECT_THROW(
      {
        [[maybe_unused]] const auto& spec = lwp_thread_spec(no_mem, 1.0);
        ADD_FAILURE() << "lwp_thread_spec accepted a zero memory mix";
      },
      ConfigError);
}

// --- DES cross-validation -------------------------------------------------

double simulate_cost_per_op(std::size_t threads, double switch_cost,
                            std::uint64_t ops = 60'000) {
  des::Simulation sim;
  arch::MultithreadedLwp node(sim, SystemParams::table1(), Rng(11), threads,
                              switch_cost);
  sim.spawn(node.run(ops));
  sim.run();
  return sim.now() / static_cast<double>(ops);
}

TEST(MtLwpSim, SingleThreadMatchesTableOne) {
  EXPECT_NEAR(simulate_cost_per_op(1, 1.0), 12.5, 0.3);
}

class MtLwpAgreement : public ::testing::TestWithParam<std::size_t> {};

TEST_P(MtLwpAgreement, SimTracksClosedForm) {
  const std::size_t k = GetParam();
  const double sim_cost = simulate_cost_per_op(k, 1.0);
  const double model_cost =
      lwp_cost_per_op_mt(SystemParams::table1(), k, 1.0);
  // K_sat = 3.37 for Table 1: at the knee (k = 3, 4) the closed form is
  // optimistic because it ignores thread self-contention; elsewhere tight.
  const double tolerance = (k == 3 || k == 4) ? 0.30 : 0.12;
  EXPECT_NEAR(sim_cost / model_cost, 1.0, tolerance) << "threads=" << k;
  EXPECT_GE(sim_cost, model_cost * 0.97) << "model must not underpredict";
}

INSTANTIATE_TEST_SUITE_P(ThreadSweep, MtLwpAgreement,
                         ::testing::Values(1, 2, 3, 4, 6, 8, 16),
                         ::testing::PrintToStringParamName());

TEST(MtLwpSim, UtilizationSaturates) {
  des::Simulation sim;
  arch::MultithreadedLwp node(sim, SystemParams::table1(), Rng(13), 8, 1.0);
  sim.spawn(node.run(60'000));
  sim.run();
  EXPECT_GT(node.utilization(), 0.95);
}

TEST(MtLwpSim, OpsAreConserved) {
  des::Simulation sim;
  arch::MultithreadedLwp node(sim, SystemParams::table1(), Rng(17), 5, 1.0);
  sim.spawn(node.run(12'345));
  sim.run();
  EXPECT_EQ(node.counts().ops, 12'345u);
}

}  // namespace
}  // namespace pimsim::analytic

namespace pimsim::arch {
namespace {

TEST(HwpTrace, MissRateEmergesFromAccessStream) {
  des::Simulation sim;
  Hwp hwp(sim, SystemParams::table1(), Rng(19), 1000);
  mem::SetAssocCache cache(mem::CacheGeometry{1 << 16, 64, 4});
  wl::HotColdPattern pattern(1 << 14, 1 << 26, 8, 0.9, Rng(23));
  sim.spawn(hwp.run_trace(60'000, pattern, cache));
  sim.run();
  EXPECT_EQ(hwp.counts().ops, 60'000u);
  // The 90%-hot stream lands near the Table 1 Pmiss = 0.1 (see the
  // locality study in test_workload.cpp).
  EXPECT_NEAR(hwp.observed_miss_rate(), 0.1, 0.04);
  // Mean cycles per op consistent with the emergent miss rate.
  const double expected =
      1.0 + 0.3 * (2.0 - 1.0 + hwp.observed_miss_rate() * 90.0);
  EXPECT_NEAR(sim.now() / 60'000.0, expected, 0.15);
}

TEST(HwpTrace, StreamingTraceBeatsRandomTrace) {
  auto run_with = [](auto make_pattern) {
    des::Simulation sim;
    Hwp hwp(sim, SystemParams::table1(), Rng(29), 1000);
    mem::SetAssocCache cache(mem::CacheGeometry{1 << 16, 64, 4});
    auto pattern = make_pattern();
    sim.spawn(hwp.run_trace(30'000, *pattern, cache));
    sim.run();
    return sim.now();
  };
  const double streaming = run_with([] {
    return std::make_unique<wl::StreamingPattern>(1 << 12, 8);
  });
  const double chasing = run_with([] {
    return std::make_unique<wl::PointerChasePattern>(1 << 20, 64, Rng(31));
  });
  EXPECT_GT(chasing, 2.0 * streaming);
}

}  // namespace
}  // namespace pimsim::arch
