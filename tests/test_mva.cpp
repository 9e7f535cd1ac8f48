// Tests for exact Mean Value Analysis and its use in the parcel model.
#include <gtest/gtest.h>

#include <cmath>

#include "analytic/parcel_model.hpp"
#include "common/error.hpp"
#include "parcel/system.hpp"
#include "queueing/mva.hpp"

namespace pimsim::queueing {
namespace {

TEST(Mva, SingleQueueSaturatesAtOneOverS) {
  const std::vector<Station> net = {{Station::Kind::kQueueing, 2.0, 1.0}};
  for (std::size_t n : {1, 2, 8, 64}) {
    const MvaResult r = mva(net, n);
    EXPECT_NEAR(r.throughput, 0.5, 1e-12) << n;  // always the bottleneck rate
    EXPECT_NEAR(r.queue_length[0], static_cast<double>(n), 1e-9);
  }
}

TEST(Mva, DelayOnlyNetworkScalesLinearly) {
  const std::vector<Station> net = {{Station::Kind::kDelay, 10.0, 1.0}};
  for (std::size_t n : {1, 4, 16}) {
    const MvaResult r = mva(net, n);
    EXPECT_NEAR(r.throughput, static_cast<double>(n) / 10.0, 1e-12);
  }
}

TEST(Mva, HandComputedTwoCustomerCase) {
  // Machine repairman: think time Z = 4 (delay), repair S = 1 (queueing).
  const std::vector<Station> net = {{Station::Kind::kDelay, 4.0, 1.0},
                                    {Station::Kind::kQueueing, 1.0, 1.0}};
  // n=1: R = 4 + 1 = 5, X = 0.2, Q_queue = 0.2.
  const MvaResult one = mva(net, 1);
  EXPECT_NEAR(one.throughput, 0.2, 1e-12);
  // n=2: R_queue = 1*(1+0.2) = 1.2, total = 5.2, X = 2/5.2.
  const MvaResult two = mva(net, 2);
  EXPECT_NEAR(two.throughput, 2.0 / 5.2, 1e-12);
  EXPECT_NEAR(two.utilization[1], 2.0 / 5.2, 1e-12);
}

TEST(Mva, VisitRatiosScaleDemand) {
  // Two queueing stations, the second visited twice per circulation.
  const std::vector<Station> net = {{Station::Kind::kQueueing, 1.0, 1.0},
                                    {Station::Kind::kQueueing, 1.0, 2.0}};
  const MvaResult r = mva(net, 50);
  // Bottleneck demand = 2.0 -> X -> 0.5, station 2 utilization -> 1.
  EXPECT_NEAR(r.throughput, 0.5, 0.01);
  EXPECT_NEAR(r.utilization[1], 1.0, 0.02);
  EXPECT_NEAR(r.utilization[0], 0.5, 0.02);
}

TEST(Mva, ThroughputMonotoneInPopulation) {
  const std::vector<Station> net = {{Station::Kind::kDelay, 20.0, 1.0},
                                    {Station::Kind::kQueueing, 3.0, 1.0}};
  double prev = 0.0;
  for (std::size_t n = 1; n <= 32; ++n) {
    const double x = mva(net, n).throughput;
    EXPECT_GE(x, prev - 1e-12);
    EXPECT_LE(x, 1.0 / 3.0 + 1e-12);  // bottleneck bound
    prev = x;
  }
}

TEST(Mva, LittleLawHoldsPerStation) {
  const std::vector<Station> net = {{Station::Kind::kDelay, 7.0, 1.0},
                                    {Station::Kind::kQueueing, 2.0, 1.5}};
  const MvaResult r = mva(net, 10);
  for (std::size_t i = 0; i < net.size(); ++i) {
    EXPECT_NEAR(r.queue_length[i], r.throughput * r.residence[i], 1e-9);
  }
  // Populations sum to N.
  EXPECT_NEAR(r.queue_length[0] + r.queue_length[1], 10.0, 1e-9);
}

TEST(Mva, RejectsBadInput) {
  EXPECT_THROW(mva({}, 1), ConfigError);
  EXPECT_THROW(mva({{Station::Kind::kQueueing, 1.0, 1.0}}, 0), ConfigError);
  EXPECT_THROW(mva({{Station::Kind::kQueueing, -1.0, 1.0}}, 1), ConfigError);
}

}  // namespace
}  // namespace pimsim::queueing

namespace pimsim::analytic {
namespace {

parcel::SplitTransactionParams knee_params() {
  parcel::SplitTransactionParams p;
  p.nodes = 8;
  p.horizon = 40'000.0;
  p.round_trip_latency = 500.0;
  p.seed = 7;
  return p;
}

TEST(ParcelMva, AgreesWithTwoRegimeModelAwayFromKnee) {
  auto p = knee_params();
  p.parallelism = 1;  // deeply linear
  EXPECT_NEAR(test_throughput_mva(p) / test_throughput(p), 1.0, 0.03);
  p.parallelism = 64;  // deeply saturated
  EXPECT_NEAR(test_throughput_mva(p) / test_throughput(p), 1.0, 0.03);
}

TEST(ParcelMva, NeverExceedsTwoRegimeBound) {
  // The two-regime model is the contention-free upper envelope; MVA adds
  // queueing and can only be at or below it.
  auto p = knee_params();
  for (std::size_t par : {1, 2, 4, 8, 16, 32}) {
    p.parallelism = par;
    EXPECT_LE(test_throughput_mva(p), test_throughput(p) * 1.0001) << par;
  }
}

TEST(ParcelMva, FixesTheKnee) {
  // At the saturation knee the two-regime model is optimistic; the MVA
  // refinement must land substantially closer to the simulation.  A
  // residual gap remains because a context holds the processor for a
  // whole multi-segment burst (non-preemptive), which congests incoming
  // parcels more than MVA's per-segment service assumption.
  auto p = knee_params();
  p.parallelism = 4;  // saturation_parallelism ~ 4.9 for these values
  const double sim_idle =
      parcel::run_split_transaction_system(p).mean_idle_fraction();
  const double simple = test_idle_fraction(p);
  const double refined = test_idle_fraction_mva(p);
  EXPECT_LT(std::fabs(refined - sim_idle),
            0.5 * std::fabs(simple - sim_idle));  // >= 2x closer
  EXPECT_NEAR(refined, sim_idle, 0.10);
}

TEST(ParcelMva, IdleAcrossParallelismTracksSimulation) {
  auto p = knee_params();
  for (std::size_t par : {1, 2, 4, 8, 16}) {
    p.parallelism = par;
    const double sim_idle =
        parcel::run_split_transaction_system(p).mean_idle_fraction();
    const double simple_err =
        std::fabs(test_idle_fraction(p) - sim_idle);
    const double mva_err = std::fabs(test_idle_fraction_mva(p) - sim_idle);
    EXPECT_NEAR(test_idle_fraction_mva(p), sim_idle, 0.12)
        << "parallelism " << par;
    // MVA is never meaningfully worse than the two-regime model...
    EXPECT_LE(mva_err, simple_err + 0.01) << "parallelism " << par;
  }
  // ...and is strictly better where the simple model clamps to zero.
  p.parallelism = 8;
  EXPECT_LT(std::fabs(test_idle_fraction_mva(p) -
                      parcel::run_split_transaction_system(p)
                          .mean_idle_fraction()),
            std::fabs(test_idle_fraction(p) -
                      parcel::run_split_transaction_system(p)
                          .mean_idle_fraction()));
}

TEST(ParcelMva, RatioPredictionTracksSimulationEverywhere) {
  auto p = knee_params();
  p.p_remote = 0.2;
  for (std::size_t par : {1, 4, 8, 32}) {
    for (double latency : {50.0, 500.0}) {
      p.parallelism = par;
      p.round_trip_latency = latency;
      const double sim = parcel::compare_systems(p).work_ratio;
      EXPECT_NEAR(sim / predicted_ratio_mva(p), 1.0, 0.15)
          << "par=" << par << " L=" << latency;
    }
  }
}

}  // namespace
}  // namespace pimsim::analytic
