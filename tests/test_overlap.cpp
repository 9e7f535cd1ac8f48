// Tests for the concurrent host+PIM execution extension (Ablation D) and
// the Zipfian access pattern.
#include <gtest/gtest.h>

#include <cmath>

#include "analytic/hwp_lwp.hpp"
#include "arch/host_system.hpp"
#include "common/error.hpp"
#include "memory/cache.hpp"
#include "workload/access_pattern.hpp"

namespace pimsim::analytic {
namespace {

using arch::SystemParams;

TEST(OverlapModel, NeverSlowerThanSerialized) {
  const SystemParams p = SystemParams::table1();
  for (double n : {1.0, 4.0, 64.0}) {
    for (double pct : {0.1, 0.5, 0.9}) {
      EXPECT_LE(time_relative_overlapped(p, n, pct),
                time_relative(p, n, pct) + 1e-12);
    }
  }
}

TEST(OverlapModel, GainCapsAtHostBound) {
  // Once the PIM side is faster than the host side, the host dominates:
  // Time_relative_ov floors at 1 - %WL.
  const SystemParams p = SystemParams::table1();
  EXPECT_NEAR(time_relative_overlapped(p, 1e6, 0.7), 0.3, 1e-9);
  EXPECT_NEAR(time_relative_overlapped(p, 1e6, 0.5), 0.5, 1e-9);
}

TEST(OverlapModel, BalancedNodesIsTheKink) {
  const SystemParams p = SystemParams::table1();
  const double pct = 0.7;
  const double n_star = balanced_nodes(p, pct);
  // At N*, both sides take the same time.
  EXPECT_NEAR(time_relative_overlapped(p, n_star, pct), 1.0 - pct, 1e-9);
  // Below N*, adding nodes helps; above it, it does not.
  EXPECT_GT(time_relative_overlapped(p, n_star / 2.0, pct), 1.0 - pct);
  EXPECT_NEAR(time_relative_overlapped(p, n_star * 4.0, pct), 1.0 - pct,
              1e-9);
}

TEST(OverlapModel, AllPimWorkloadHasNoKink) {
  const SystemParams p = SystemParams::table1();
  EXPECT_TRUE(std::isinf(balanced_nodes(p, 1.0)));
  // With %WL = 1 the overlapped and serialized models coincide.
  for (double n : {1.0, 8.0, 256.0}) {
    EXPECT_NEAR(time_relative_overlapped(p, n, 1.0), time_relative(p, n, 1.0),
                1e-12);
  }
}

}  // namespace
}  // namespace pimsim::analytic

namespace pimsim::arch {
namespace {

HostConfig overlap_config(std::size_t nodes, double pct, bool overlap) {
  HostConfig cfg;
  cfg.workload.total_ops = 1'000'000;
  cfg.workload.lwp_fraction = pct;
  cfg.lwp_nodes = nodes;
  cfg.batch_ops = 10'000;
  cfg.seed = 9;
  cfg.overlap_phases = overlap;
  return cfg;
}

TEST(OverlapSim, MatchesAnalyticMax) {
  const HostConfig cfg = overlap_config(8, 0.6, true);
  const HostResult r = run_host_system(cfg);
  const double expected = analytic::time_relative_overlapped(
                              cfg.params, 8.0, 0.6) *
                          static_cast<double>(cfg.workload.total_ops) *
                          cfg.params.hwp_cost_per_op();
  EXPECT_NEAR(r.total_cycles, expected, 0.03 * expected);
}

TEST(OverlapSim, FasterThanSerializedWhenBothSidesHaveWork) {
  const double serial =
      run_host_system(overlap_config(8, 0.6, false)).total_cycles;
  const double overlapped =
      run_host_system(overlap_config(8, 0.6, true)).total_cycles;
  EXPECT_LT(overlapped, 0.8 * serial);
}

TEST(OverlapSim, DegenerateSplitsMatchSerialized) {
  for (double pct : {0.0, 1.0}) {
    const double serial =
        run_host_system(overlap_config(8, pct, false)).total_cycles;
    const double overlapped =
        run_host_system(overlap_config(8, pct, true)).total_cycles;
    EXPECT_NEAR(overlapped, serial, 0.02 * serial) << pct;
  }
}

TEST(OverlapSim, GainSaturatesBeyondBalancedNodes) {
  // %WL=0.6: N* = 3.125*0.6/0.4 = 4.69; N=8 and N=64 must be within noise.
  const double g8 = simulated_gain(overlap_config(8, 0.6, true));
  const double g64 = simulated_gain(overlap_config(64, 0.6, true));
  EXPECT_NEAR(g8, g64, 0.05 * g8);
  EXPECT_NEAR(g8, 1.0 / 0.4, 0.1);  // capped at 1/(1-%WL) = 2.5
}

}  // namespace
}  // namespace pimsim::arch

namespace pimsim::wl {
namespace {

TEST(Zipfian, UniformWhenExponentZero) {
  ZipfianPattern p(1000, 8, 0.0, Rng(3));
  std::vector<int> counts(10, 0);
  for (int i = 0; i < 20000; ++i) ++counts[(p.next() / 8) / 100];
  for (int c : counts) EXPECT_NEAR(c, 2000, 300);
}

TEST(Zipfian, SkewConcentratesOnLowRanks) {
  ZipfianPattern p(100000, 8, 1.2, Rng(5));
  int in_top_100 = 0;
  const int n = 20000;
  for (int i = 0; i < n; ++i) in_top_100 += (p.next() / 8 < 100);
  // With s=1.2 over 1e5 items, the top-100 take the majority of mass.
  EXPECT_GT(static_cast<double>(in_top_100) / n, 0.5);
}

TEST(Zipfian, CacheMissRateFallsWithSkew) {
  auto miss_rate = [](double s) {
    mem::SetAssocCache cache(mem::CacheGeometry{1 << 16, 64, 4});
    ZipfianPattern p(1 << 20, 64, s, Rng(7));
    for (int i = 0; i < 20000; ++i) (void)cache.access(p.next());
    cache.reset_stats();
    for (int i = 0; i < 60000; ++i) (void)cache.access(p.next());
    return cache.miss_rate();
  };
  const double uniform = miss_rate(0.0);
  const double mild = miss_rate(0.8);
  const double heavy = miss_rate(1.4);
  EXPECT_GT(uniform, mild);
  EXPECT_GT(mild, heavy);
  EXPECT_GT(uniform, 0.9);  // the PIM-destined regime
  EXPECT_LT(heavy, 0.25);   // cacheable on the host
}

TEST(Zipfian, RejectsBadParameters) {
  EXPECT_THROW(ZipfianPattern(0, 8, 1.0, Rng(1)), ConfigError);
  EXPECT_THROW(ZipfianPattern(100, 0, 1.0, Rng(1)), ConfigError);
  EXPECT_THROW(ZipfianPattern(100, 8, -1.0, Rng(1)), ConfigError);
}

}  // namespace
}  // namespace pimsim::wl
