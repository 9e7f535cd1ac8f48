// Validation of the DES kernel against Markovian queueing closed forms —
// the qualification step that lets us trust the paper's queuing models on
// this substrate.
#include <gtest/gtest.h>

#include "common/error.hpp"
#include "queueing/formulas.hpp"
#include "queueing/network.hpp"
#include "queueing/service_center.hpp"

namespace pimsim::queueing {
namespace {

TEST(Formulas, MM1KnownValues) {
  // rho = 0.5: L = 1, W = 2/mu, Wq = 1/mu, Lq = 0.5.
  EXPECT_NEAR(mm1_mean_in_system(0.5, 1.0), 1.0, 1e-12);
  EXPECT_NEAR(mm1_mean_response(0.5, 1.0), 2.0, 1e-12);
  EXPECT_NEAR(mm1_mean_wait(0.5, 1.0), 1.0, 1e-12);
  EXPECT_NEAR(mm1_mean_queue_length(0.5, 1.0), 0.5, 1e-12);
}

TEST(Formulas, LittleLawConsistency) {
  const double lambda = 0.7, mu = 1.0;
  EXPECT_NEAR(mm1_mean_in_system(lambda, mu),
              lambda * mm1_mean_response(lambda, mu), 1e-12);
  EXPECT_NEAR(mm1_mean_queue_length(lambda, mu),
              lambda * mm1_mean_wait(lambda, mu), 1e-12);
}

TEST(Formulas, ErlangCReducesToMM1WaitProbability) {
  // For c = 1, P(wait) = rho.
  for (double rho : {0.1, 0.5, 0.9}) {
    EXPECT_NEAR(erlang_c(rho, 1.0, 1), rho, 1e-12);
  }
}

TEST(Formulas, ErlangCKnownValue) {
  // Classic checked value: lambda=2, mu=1, c=3 (rho=2/3): C ~ 0.44444.
  EXPECT_NEAR(erlang_c(2.0, 1.0, 3), 4.0 / 9.0, 1e-9);
}

TEST(Formulas, MMcWaitDecreasesWithServers) {
  const double lambda = 1.8, mu = 1.0;
  EXPECT_GT(mmc_mean_wait(lambda, mu, 2), mmc_mean_wait(lambda, mu, 3));
  EXPECT_GT(mmc_mean_wait(lambda, mu, 3), mmc_mean_wait(lambda, mu, 4));
}

TEST(Formulas, Mg1ReducesToMM1ForExponentialService) {
  // Exponential service: variance = mean^2, so PK gives the M/M/1 wait.
  const double lambda = 0.6, mu = 1.0;
  const double mean_s = 1.0 / mu;
  EXPECT_NEAR(mg1_mean_wait(lambda, mean_s, mean_s * mean_s),
              mm1_mean_wait(lambda, mu), 1e-12);
}

TEST(Formulas, Md1WaitIsHalfOfMM1) {
  const double lambda = 0.7, service = 1.0;
  EXPECT_NEAR(md1_mean_wait(lambda, service),
              0.5 * mm1_mean_wait(lambda, 1.0), 1e-12);
}

TEST(Formulas, Mg1VarianceIncreasesWait) {
  const double lambda = 0.5, mean_s = 1.0;
  EXPECT_LT(mg1_mean_wait(lambda, mean_s, 0.0),
            mg1_mean_wait(lambda, mean_s, 4.0));
}

TEST(Md1Simulation, DeterministicServiceMatchesPK) {
  // M/D/1 through the DES: Poisson arrivals, fixed service time.
  OpenNetworkSpec spec;
  spec.lambda = 0.7;
  spec.mu = 1.0;  // unused by the center below, kept for stability checks
  spec.jobs = 60000;
  spec.warmup_jobs = 6000;
  spec.seed = 21;

  des::Simulation sim;
  Rng arrivals(spec.seed, 1);
  ServiceCenter center(sim, 1, [] { return 1.0; }, "md1");
  RunningStats response;
  center.set_on_departure([&](const Job& job, double departed) {
    if (job.id >= spec.warmup_jobs) response.add(departed - job.created_at);
  });
  // Inline Poisson source.
  struct Src {
    static des::Process run(des::Simulation& s, ServiceCenter& c, Rng& rng,
                            double lambda, std::uint64_t jobs) {
      for (std::uint64_t i = 0; i < jobs; ++i) {
        co_await des::delay(s, rng.exponential(1.0 / lambda));
        c.submit(Job{i, s.now()});
      }
    }
  };
  sim.spawn(Src::run(sim, center, arrivals, spec.lambda, spec.jobs));
  sim.run();

  const double expected = md1_mean_wait(spec.lambda, 1.0) + 1.0;
  EXPECT_NEAR(response.mean(), expected, 0.06 * expected);
  // The center's own queue measurements: every job waits once, the mean
  // wait matches P-K, and Little's law ties the two together.  The queue is
  // empty at both ends of the run, so its time integral is the sum of the
  // waits, and L_q = (jobs / T) * W holds up to rounding.
  const RunningStats& wait = center.wait_stats();
  EXPECT_EQ(wait.count(), spec.jobs);
  const double pk_wait = md1_mean_wait(spec.lambda, 1.0);
  EXPECT_NEAR(wait.mean(), pk_wait, 0.06 * pk_wait);
  const double throughput = static_cast<double>(spec.jobs) / sim.now();
  EXPECT_NEAR(center.mean_queue_length(), throughput * wait.mean(),
              1e-9 * throughput * wait.mean());
}

TEST(Formulas, RejectUnstableQueues) {
  EXPECT_THROW(
      {
        const double r = mm1_mean_response(1.0, 1.0);
        ADD_FAILURE() << "mm1_mean_response accepted rho = 1, returned " << r;
      },
      ConfigError);
  EXPECT_THROW(
      {
        const double r = mm1_mean_response(1.5, 1.0);
        ADD_FAILURE() << "mm1_mean_response accepted rho > 1, returned " << r;
      },
      ConfigError);
  EXPECT_THROW(
      {
        const double p = erlang_c(3.0, 1.0, 2);
        ADD_FAILURE() << "erlang_c accepted an overloaded group, returned "
                      << p;
      },
      ConfigError);
  EXPECT_THROW(
      {
        const double a = offered_load(0.0, 1.0, 1);
        ADD_FAILURE() << "offered_load accepted lambda = 0, returned " << a;
      },
      ConfigError);
}

// --- Simulation vs closed form (kernel qualification) -------------------

struct MmcCase {
  double lambda;
  double mu;
  std::size_t servers;
};

class MmcValidation : public ::testing::TestWithParam<MmcCase> {};

TEST_P(MmcValidation, ResponseTimeMatchesClosedForm) {
  const MmcCase c = GetParam();
  OpenNetworkSpec spec;
  spec.lambda = c.lambda;
  spec.mu = c.mu;
  spec.servers = c.servers;
  spec.jobs = 60000;
  spec.warmup_jobs = 6000;
  spec.seed = 7;
  const OpenNetworkResult r = run_open_network(spec);

  const double expected = mmc_mean_response(c.lambda, c.mu, c.servers);
  EXPECT_NEAR(r.mean_response, expected, 0.08 * expected)
      << "lambda=" << c.lambda << " mu=" << c.mu << " c=" << c.servers;
}

TEST_P(MmcValidation, UtilizationMatchesOfferedLoad) {
  const MmcCase c = GetParam();
  OpenNetworkSpec spec;
  spec.lambda = c.lambda;
  spec.mu = c.mu;
  spec.servers = c.servers;
  spec.jobs = 60000;
  spec.warmup_jobs = 6000;
  spec.seed = 11;
  const OpenNetworkResult r = run_open_network(spec);
  const double rho = offered_load(c.lambda, c.mu, c.servers);
  EXPECT_NEAR(r.utilization, rho, 0.05 * rho + 0.01);
}

INSTANTIATE_TEST_SUITE_P(
    LoadSweep, MmcValidation,
    ::testing::Values(MmcCase{0.3, 1.0, 1}, MmcCase{0.5, 1.0, 1},
                      MmcCase{0.7, 1.0, 1}, MmcCase{0.9, 1.0, 1},
                      MmcCase{1.5, 1.0, 2}, MmcCase{2.5, 1.0, 3},
                      MmcCase{3.5, 1.0, 4}, MmcCase{0.8, 2.0, 1}),
    [](const ::testing::TestParamInfo<MmcCase>& info) {
      const auto& p = info.param;
      return "lambda" + std::to_string(static_cast<int>(p.lambda * 10)) +
             "_c" + std::to_string(p.servers);
    });

TEST(ServiceCenter, DeterministicServiceTimesAreExact) {
  des::Simulation sim;
  ServiceCenter center(sim, 1, [] { return 5.0; }, "det");
  for (std::uint64_t i = 0; i < 4; ++i) center.submit(Job{i, 0.0});
  sim.run();
  EXPECT_EQ(center.completed(), 4u);
  // 4 jobs x 5 cycles back to back.
  EXPECT_DOUBLE_EQ(sim.now(), 20.0);
  // Response times: 5, 10, 15, 20 -> mean 12.5.
  EXPECT_DOUBLE_EQ(center.response_stats().mean(), 12.5);
}

TEST(ServiceCenter, WaitStatsMeasureQueueingDelay) {
  des::Simulation sim;
  ServiceCenter center(sim, 1, [] { return 10.0; }, "fifo");
  for (std::uint64_t i = 0; i < 3; ++i) center.submit(Job{i, 0.0});
  sim.run();
  EXPECT_EQ(center.completed(), 3u);
  // Waits: 0, 10, 20 -> mean 10.
  EXPECT_EQ(center.wait_stats().count(), 3u);
  EXPECT_DOUBLE_EQ(center.wait_stats().mean(), 10.0);
  // Two jobs wait over [0, 10), one over [10, 20), none over [20, 30).
  EXPECT_DOUBLE_EQ(center.mean_queue_length(), 1.0);
}

TEST(ServiceCenter, DepartureHookFires) {
  des::Simulation sim;
  ServiceCenter center(sim, 1, [] { return 1.0; });
  int departures = 0;
  center.set_on_departure([&](const Job&, double) { ++departures; });
  center.submit(Job{0, 0.0});
  center.submit(Job{1, 0.0});
  sim.run();
  EXPECT_EQ(departures, 2);
}

TEST(ServiceCenter, RejectsNegativeServiceTime) {
  des::Simulation sim;
  ServiceCenter center(sim, 1, [] { return -1.0; });
  center.submit(Job{0, 0.0});
  EXPECT_THROW(sim.run(), LogicError);
}

TEST(DelayCenter, JobsDoNotQueue) {
  des::Simulation sim;
  DelayCenter center(sim, [] { return 10.0; });
  for (std::uint64_t i = 0; i < 8; ++i) center.submit(Job{i, 0.0});
  sim.run();
  EXPECT_EQ(center.completed(), 8u);
  EXPECT_DOUBLE_EQ(sim.now(), 10.0);  // all in parallel
  EXPECT_DOUBLE_EQ(center.response_stats().mean(), 10.0);
}

TEST(OpenNetwork, RejectsBadSpecs) {
  OpenNetworkSpec spec;
  spec.lambda = 0.0;
  EXPECT_THROW(
      {
        [[maybe_unused]] const auto& r = run_open_network(spec);
        ADD_FAILURE() << "run_open_network accepted lambda = 0";
      },
      ConfigError);
  spec.lambda = 0.5;
  spec.warmup_jobs = spec.jobs;
  EXPECT_THROW(
      {
        [[maybe_unused]] const auto& r = run_open_network(spec);
        ADD_FAILURE() << "run_open_network accepted warmup >= jobs";
      },
      ConfigError);
}

}  // namespace
}  // namespace pimsim::queueing
