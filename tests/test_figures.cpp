// Integration tests: the figure generators reproduce the paper's
// qualitative shapes on reduced grids.
#include <gtest/gtest.h>

#include <bit>
#include <cstdint>

#include "core/design_space.hpp"
#include "core/experiment.hpp"
#include "core/figures.hpp"

namespace pimsim::core {
namespace {

arch::HostConfig fast_base() {
  arch::HostConfig cfg;
  cfg.workload.total_ops = 500'000;
  cfg.batch_ops = 10'000;
  cfg.seed = 13;
  return cfg;
}

TEST(Experiment, Pow2Range) {
  EXPECT_EQ(pow2_range(64),
            (std::vector<std::size_t>{1, 2, 4, 8, 16, 32, 64}));
  EXPECT_EQ(pow2_range(100), (std::vector<std::size_t>{1, 2, 4, 8, 16, 32, 64}));
  EXPECT_EQ(pow2_range(1), (std::vector<std::size_t>{1}));
}

TEST(Experiment, LinspaceEndpoints) {
  const auto xs = linspace(0.0, 1.0, 11);
  ASSERT_EQ(xs.size(), 11u);
  EXPECT_DOUBLE_EQ(xs.front(), 0.0);
  EXPECT_DOUBLE_EQ(xs.back(), 1.0);
  EXPECT_NEAR(xs[5], 0.5, 1e-12);
}

TEST(Experiment, ReplicateProducesTightIntervalForDeterministicMeasure) {
  const Estimate e = replicate(5, 1, [](std::uint64_t) { return 3.0; });
  EXPECT_DOUBLE_EQ(e.mean, 3.0);
  EXPECT_DOUBLE_EQ(e.half_width, 0.0);
}

TEST(Experiment, ReplicateVariesWithSeed) {
  const Estimate e = replicate(8, 1, [](std::uint64_t seed) {
    return static_cast<double>(seed % 97);
  });
  EXPECT_GT(e.half_width, 0.0);
}

TEST(Table1, ContainsDerivedParameters) {
  const Table t = make_table1(arch::SystemParams::table1());
  EXPECT_EQ(t.rows(), 13u);
  // The last three rows are the derived values: 4.0, 12.5, 3.125.
  EXPECT_DOUBLE_EQ(t.number_at(10, 2), 4.0);
  EXPECT_DOUBLE_EQ(t.number_at(11, 2), 12.5);
  EXPECT_DOUBLE_EQ(t.number_at(12, 2), 3.125);
}

TEST(Fig5, GainGrowsWithNodesAndLwpFraction) {
  HostFigureConfig cfg;
  cfg.base = fast_base();
  cfg.node_counts = {1, 8, 64};
  cfg.lwp_fractions = {0.0, 0.5, 1.0};
  const Table t = make_fig5(cfg);
  ASSERT_EQ(t.rows(), 3u);
  // Row 0 (%WL=0): gain == 1 for every N.
  for (std::size_t c = 1; c <= 3; ++c) {
    EXPECT_NEAR(t.number_at(0, c), 1.0, 0.02);
  }
  // Gain increases along N for %WL=1 (row 2): columns 1 < 2 < 3.
  EXPECT_LT(t.number_at(2, 1), t.number_at(2, 2));
  EXPECT_LT(t.number_at(2, 2), t.number_at(2, 3));
  // Gain increases with %WL at N=64.
  EXPECT_LT(t.number_at(1, 3), t.number_at(2, 3));
  // Headline scale: %WL=1, N=64 -> ~20x.
  EXPECT_NEAR(t.number_at(2, 3), 64.0 / 3.125, 2.0);
}

TEST(Fig5, SharedControlIsBitwiseThePerCellSimulatedGain) {
  // make_fig5 runs the control once per table; every cell must still be
  // exactly what simulated_gain() returns for it with the seed the sweep
  // hands a single replication.
  for (const char* memory : {"analytic", "banked"}) {
    for (const std::size_t threads : {std::size_t{1}, std::size_t{3}}) {
      HostFigureConfig cfg;
      cfg.base = fast_base();
      cfg.base.workload.total_ops = 40'000;
      cfg.base.batch_ops = 2'000;
      cfg.base.memory.kind = memory;
      cfg.base.memory.queue = 1;
      cfg.node_counts = {1, 4, 16};
      cfg.lwp_fractions = {0.0, 0.3, 1.0};
      cfg.sweep_threads = threads;
      const Table t = make_fig5(cfg);
      const std::uint64_t seed = replication_seeds(1, cfg.base.seed).front();
      for (std::size_t pi = 0; pi < cfg.lwp_fractions.size(); ++pi) {
        for (std::size_t ni = 0; ni < cfg.node_counts.size(); ++ni) {
          arch::HostConfig cell = cfg.base;
          cell.workload.lwp_fraction = cfg.lwp_fractions[pi];
          cell.lwp_nodes = cfg.node_counts[ni];
          cell.seed = seed;
          const double gain = arch::simulated_gain(cell);
          EXPECT_EQ(std::bit_cast<std::uint64_t>(t.number_at(pi, 1 + ni)),
                    std::bit_cast<std::uint64_t>(gain))
              << memory << " threads=" << threads << " %WL="
              << cfg.lwp_fractions[pi] << " N=" << cfg.node_counts[ni];
        }
      }
    }
  }
}

TEST(Fig6, ResponseTimeShapesMatchPaperAxes) {
  HostFigureConfig cfg;
  cfg.base = fast_base();
  cfg.base.workload.total_ops = 100'000'000;  // the paper's W for absolute ns
  cfg.base.batch_ops = 1'000'000;
  cfg.node_counts = {1, 8, 64};
  cfg.lwp_fractions = {0.0, 0.5, 1.0};
  const Table t = make_fig6(cfg);
  // No-LWT column is flat at 4e8 ns.
  for (std::size_t r = 0; r < 3; ++r) {
    EXPECT_NEAR(t.number_at(r, 1), 4.0e8, 0.1e8);
  }
  // 100% LWT on 1 node: 1.25e9 ns (the paper's y-axis tops at 1.6e9).
  EXPECT_NEAR(t.number_at(0, 3), 1.25e9, 0.05e9);
  // Response time decreases with N for LWP-heavy workloads.
  EXPECT_GT(t.number_at(0, 3), t.number_at(1, 3));
  EXPECT_GT(t.number_at(1, 3), t.number_at(2, 3));
}

TEST(Fig7, CurvesCoincideAtNb) {
  const arch::SystemParams params = arch::SystemParams::table1();
  const Table t = make_fig7(params, {1.0, 2.0, 3.125, 8.0, 64.0},
                            {0.2, 0.5, 0.8});
  // Row with N = NB: all columns equal 1.
  for (std::size_t c = 1; c <= 3; ++c) {
    EXPECT_NEAR(t.number_at(2, c), 1.0, 1e-9);
  }
  // N=1 rows are above 1 (PIM hurts), N=64 rows below 1.
  EXPECT_GT(t.number_at(0, 2), 1.0);
  EXPECT_LT(t.number_at(4, 2), 1.0);
}

TEST(AccuracyTable, WithinDocumentedBand) {
  HostFigureConfig cfg;
  cfg.base = fast_base();
  cfg.node_counts = {1, 8, 64};
  cfg.lwp_fractions = {0.1, 0.9};
  const Table t = make_accuracy_table(cfg);
  ASSERT_EQ(t.rows(), 6u);
  for (std::size_t r = 0; r < t.rows(); ++r) {
    EXPECT_LT(t.number_at(r, 4), 5.0) << "rel err % at row " << r;
  }
}

parcel::SplitTransactionParams fast_parcel_base() {
  parcel::SplitTransactionParams p;
  p.nodes = 4;
  p.horizon = 10'000.0;
  p.seed = 17;
  return p;
}

TEST(Fig11, RatioColumnsShapeMatchesPaper) {
  ParcelFigureConfig cfg;
  cfg.base = fast_parcel_base();
  cfg.latencies = {20.0, 500.0};
  cfg.remote_fractions = {0.1};
  cfg.parallelism = {1, 16};
  const Table t = make_fig11(cfg);
  // Row order: (L=20, par=1), (L=20, par=16), (L=500, par=1), (L=500, par=16).
  ASSERT_EQ(t.rows(), 4u);
  // With parallelism 16, ratio at L=500 far exceeds ratio at L=20.
  EXPECT_GT(t.number_at(3, 3), t.number_at(1, 3));
  // With parallelism 1, the advantage at L=500 is small.
  EXPECT_LT(t.number_at(2, 3), 2.0);
  // Model column tracks the simulated column loosely.
  for (std::size_t r = 0; r < t.rows(); ++r) {
    EXPECT_NEAR(t.number_at(r, 3) / t.number_at(r, 4), 1.0, 0.35);
  }
}

TEST(Fig12, TestIdleCollapsesControlIdleDoesNot) {
  ParcelFigureConfig cfg;
  cfg.base = fast_parcel_base();
  cfg.base.round_trip_latency = 200.0;
  cfg.parallelism = {1, 32};
  cfg.node_counts = {1, 8};
  const Table t = make_fig12(cfg);
  ASSERT_EQ(t.rows(), 4u);
  for (std::size_t r : {std::size_t{1}, std::size_t{3}}) {
    // High parallelism: test idle ~ 0 while control idle stays high.
    EXPECT_LT(t.number_at(r, 2), 8.0);
    EXPECT_GT(t.number_at(r, 3), 20.0);
  }
  // Low parallelism: test system also idles.
  EXPECT_GT(t.number_at(0, 2), 20.0);
}

TEST(Bandwidth, TableMatchesPaperClaims) {
  const Table t = make_bandwidth_table();
  // Sustained macro bandwidth row > 50 Gbit/s.
  EXPECT_GT(t.number_at(4, 1), 50.0);
  // Chip bandwidth row > 1 Tbit/s.
  EXPECT_GT(t.number_at(6, 1), 1.0);
}

TEST(DesignSpace, RegimeClassification) {
  const arch::SystemParams p = arch::SystemParams::table1();
  EXPECT_EQ(classify_host_point(p, 1.0, 0.5), Regime::kPimHurts);
  EXPECT_EQ(classify_host_point(p, 3.125, 0.5), Regime::kBreakEven);
  EXPECT_EQ(classify_host_point(p, 8.0, 0.5), Regime::kPimModerate);
  EXPECT_EQ(classify_host_point(p, 64.0, 0.9), Regime::kPimStrong);
  EXPECT_EQ(classify_host_point(p, 512.0, 1.0), Regime::kPimDramatic);
  EXPECT_STREQ(to_string(Regime::kPimDramatic), "pim-dramatic");
}

TEST(DesignSpace, ParcelAdviceMatchesRegimes) {
  parcel::SplitTransactionParams p = fast_parcel_base();
  p.round_trip_latency = 1000.0;
  p.parallelism = 32;
  const ParcelAdvice good = advise_parcels(p);
  EXPECT_TRUE(good.worthwhile);
  EXPECT_GT(good.predicted_ratio, 1.0);
  EXPECT_FALSE(good.reason.empty());

  p.round_trip_latency = 1.0;
  p.t_switch = 5.0;
  p.parallelism = 1;
  const ParcelAdvice bad = advise_parcels(p);
  EXPECT_FALSE(bad.worthwhile);
  EXPECT_FALSE(bad.reason.empty());
}

}  // namespace
}  // namespace pimsim::core
