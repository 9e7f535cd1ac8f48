// Tests for the counted FIFO resource.
#include <gtest/gtest.h>

#include <vector>

#include "common/error.hpp"
#include "des/process.hpp"
#include "des/resource.hpp"
#include "des/simulation.hpp"

namespace pimsim::des {
namespace {

Process hold(Simulation& sim, Resource& r, Cycles duration, int id,
             std::vector<std::pair<int, double>>* grants) {
  co_await r.acquire();
  grants->emplace_back(id, sim.now());
  co_await delay(sim, duration);
  r.release();
}

TEST(Resource, SerializesOnSingleServer) {
  Simulation sim;
  Resource r(sim, 1);
  std::vector<std::pair<int, double>> grants;
  for (int i = 0; i < 3; ++i) sim.spawn(hold(sim, r, 10.0, i, &grants));
  sim.run();
  ASSERT_EQ(grants.size(), 3u);
  EXPECT_DOUBLE_EQ(grants[0].second, 0.0);
  EXPECT_DOUBLE_EQ(grants[1].second, 10.0);
  EXPECT_DOUBLE_EQ(grants[2].second, 20.0);
}

TEST(Resource, FifoOrderAmongWaiters) {
  Simulation sim;
  Resource r(sim, 1);
  std::vector<std::pair<int, double>> grants;
  for (int i = 0; i < 5; ++i) sim.spawn(hold(sim, r, 1.0, i, &grants));
  sim.run();
  for (int i = 0; i < 5; ++i) EXPECT_EQ(grants[i].first, i);
}

TEST(Resource, MultipleServersRunConcurrently) {
  Simulation sim;
  Resource r(sim, 2);
  std::vector<std::pair<int, double>> grants;
  for (int i = 0; i < 4; ++i) sim.spawn(hold(sim, r, 10.0, i, &grants));
  sim.run();
  EXPECT_DOUBLE_EQ(grants[0].second, 0.0);
  EXPECT_DOUBLE_EQ(grants[1].second, 0.0);
  EXPECT_DOUBLE_EQ(grants[2].second, 10.0);
  EXPECT_DOUBLE_EQ(grants[3].second, 10.0);
  EXPECT_DOUBLE_EQ(sim.now(), 20.0);
}

Process hold_n(Simulation& sim, Resource& r, std::size_t n, Cycles duration,
               int id, std::vector<std::pair<int, double>>* grants) {
  co_await r.acquire(n);
  grants->emplace_back(id, sim.now());
  co_await delay(sim, duration);
  r.release(n);
}

TEST(Resource, BulkRequestsBlockUntilEnoughUnits) {
  Simulation sim;
  Resource r(sim, 4);
  std::vector<std::pair<int, double>> grants;
  sim.spawn(hold_n(sim, r, 3, 10.0, 0, &grants));  // grants at 0
  sim.spawn(hold_n(sim, r, 2, 10.0, 1, &grants));  // needs the head to leave
  sim.run();
  EXPECT_DOUBLE_EQ(grants[0].second, 0.0);
  EXPECT_DOUBLE_EQ(grants[1].second, 10.0);
}

TEST(Resource, StrictFifoNoBypass) {
  Simulation sim;
  Resource r(sim, 2);
  std::vector<std::pair<int, double>> grants;
  sim.spawn(hold_n(sim, r, 1, 10.0, 0, &grants));  // grants at 0, 1 unit free
  sim.spawn(hold_n(sim, r, 2, 10.0, 1, &grants));  // queues (head, needs 2)
  // One unit IS free, but granting id 2 now would bypass the queue head.
  sim.spawn(hold_n(sim, r, 1, 10.0, 2, &grants));
  sim.run();
  ASSERT_EQ(grants.size(), 3u);
  EXPECT_EQ(grants[1].first, 1);
  EXPECT_DOUBLE_EQ(grants[1].second, 10.0);  // after id 0 releases
  EXPECT_EQ(grants[2].first, 2);
  EXPECT_DOUBLE_EQ(grants[2].second, 20.0);  // after the head releases both
}

TEST(Resource, StrictFifoWithMixedDemandsAndQueueCounts) {
  // Capacity 4, all held until t=10; A(2), B(3), C(1) queue in that
  // order.  At t=10 A fits; B does not, and C must wait behind it even
  // though its one unit would fit.  When A leaves at t=15, B then C.
  Simulation sim;
  Resource r(sim, 4);
  std::vector<std::pair<int, double>> grants;
  sim.spawn(hold_n(sim, r, 4, 10.0, 0, &grants));
  sim.spawn(hold_n(sim, r, 2, 5.0, 1, &grants));
  sim.spawn(hold_n(sim, r, 3, 1.0, 2, &grants));
  sim.spawn(hold_n(sim, r, 1, 1.0, 3, &grants));
  sim.run_until(5.0);
  EXPECT_EQ(r.queue_length(), 3u);
  sim.run_until(12.0);
  EXPECT_EQ(r.queue_length(), 2u);  // B and C still linked, in order
  EXPECT_EQ(r.in_use(), 2u);
  sim.run();
  EXPECT_EQ(r.queue_length(), 0u);
  const std::vector<std::pair<int, double>> want = {
      {0, 0.0}, {1, 10.0}, {2, 15.0}, {3, 15.0}};
  EXPECT_EQ(grants, want);
  EXPECT_EQ(r.grants(), 4u);
}

TEST(Resource, TryAcquireDoesNotWait) {
  Simulation sim;
  Resource r(sim, 1);
  EXPECT_TRUE(r.try_acquire());
  EXPECT_FALSE(r.try_acquire());
  r.release();
  EXPECT_TRUE(r.try_acquire());
  r.release();
}

TEST(Resource, UtilizationIntegratesBusyTime) {
  Simulation sim;
  Resource r(sim, 1);
  std::vector<std::pair<int, double>> grants;
  sim.spawn(hold(sim, r, 10.0, 0, &grants));
  sim.run();
  sim.run_until(20.0);  // idle for another 10 cycles
  EXPECT_NEAR(r.utilization(), 0.5, 1e-9);
}

TEST(Resource, RejectsMisuse) {
  Simulation sim;
  Resource r(sim, 2);
  EXPECT_THROW(
      {
        [[maybe_unused]] const auto& awaitable = r.acquire(0);
        ADD_FAILURE() << "acquire accepted a zero-unit request";
      },
      ConfigError);
  EXPECT_THROW(
      {
        // Requesting more than capacity would deadlock if allowed.
        [[maybe_unused]] const auto& awaitable = r.acquire(3);
        ADD_FAILURE() << "acquire accepted a request above capacity";
      },
      ConfigError);
  EXPECT_THROW(r.release(1), LogicError);   // nothing held
  EXPECT_THROW(Resource(sim, 0), ConfigError);
}

}  // namespace
}  // namespace pimsim::des
