// Stress and determinism tests of the simulation kernel: randomized
// process populations and cross-run reproducibility.
#include <gtest/gtest.h>

#include <vector>

#include "common/rng.hpp"
#include "des/mailbox.hpp"
#include "des/process.hpp"
#include "des/resource.hpp"
#include "des/simulation.hpp"

namespace pimsim::des {
namespace {

/// A worker that randomly computes, queues on a resource, and chats
/// through a mailbox ring — a randomized integration of every primitive.
Process chaos_worker(Simulation& sim, Rng rng, Resource& resource,
                     Mailbox<int>& in, Mailbox<int>& out, int rounds,
                     std::uint64_t* work_done) {
  for (int r = 0; r < rounds; ++r) {
    co_await delay(sim, rng.exponential(5.0));
    co_await resource.acquire();
    co_await delay(sim, rng.uniform(0.5, 2.0));
    resource.release();
    out.send(r);
    const int got = co_await in.receive();
    *work_done += static_cast<std::uint64_t>(got) + 1;
  }
}

struct ChaosResult {
  double final_time = 0.0;
  std::uint64_t events = 0;
  std::uint64_t work = 0;
};

ChaosResult run_chaos(std::uint64_t seed, int workers, int rounds) {
  Simulation sim;
  Rng root(seed);
  Resource resource(sim, 3);
  std::vector<std::unique_ptr<Mailbox<int>>> boxes;
  for (int i = 0; i < workers; ++i) {
    boxes.push_back(std::make_unique<Mailbox<int>>(sim));
  }
  std::vector<std::uint64_t> work(workers, 0);
  for (int i = 0; i < workers; ++i) {
    // Ring topology: worker i sends to box i+1, receives from box i.
    sim.spawn(chaos_worker(sim, root.split(i), resource, *boxes[i],
                           *boxes[(i + 1) % workers], rounds, &work[i]));
  }
  sim.run();
  ChaosResult out;
  out.final_time = sim.now();
  out.events = sim.events_dispatched();
  for (auto w : work) out.work += w;
  return out;
}

TEST(DesStress, ChaosRingCompletesAllWork) {
  const int workers = 32, rounds = 50;
  const ChaosResult r = run_chaos(7, workers, rounds);
  // Every worker completed every round: sum over r of (r+1), per worker.
  const std::uint64_t expected =
      static_cast<std::uint64_t>(workers) * rounds * (rounds + 1) / 2;
  EXPECT_EQ(r.work, expected);
  EXPECT_GT(r.events, static_cast<std::uint64_t>(workers * rounds));
}

TEST(DesStress, BitReproducibleAcrossRuns) {
  const ChaosResult a = run_chaos(42, 16, 40);
  const ChaosResult b = run_chaos(42, 16, 40);
  EXPECT_DOUBLE_EQ(a.final_time, b.final_time);
  EXPECT_EQ(a.events, b.events);
  EXPECT_EQ(a.work, b.work);
}

TEST(DesStress, DifferentSeedsDiverge) {
  const ChaosResult a = run_chaos(1, 8, 20);
  const ChaosResult b = run_chaos(2, 8, 20);
  EXPECT_NE(a.final_time, b.final_time);
}

Process spawner(Simulation& sim, int depth, int* leaves) {
  if (depth == 0) {
    ++*leaves;
    co_return;
  }
  co_await delay(sim, 1.0);
  sim.spawn(spawner(sim, depth - 1, leaves));
  sim.spawn(spawner(sim, depth - 1, leaves));
}

TEST(DesStress, RecursiveSpawnTree) {
  Simulation sim;
  int leaves = 0;
  sim.spawn(spawner(sim, 10, &leaves));
  sim.run();
  EXPECT_EQ(leaves, 1 << 10);
  EXPECT_EQ(sim.live_processes(), 0u);
}

TEST(DesStress, RunUntilSlicesAreEquivalentToOneRun) {
  auto measure = [](bool sliced) {
    Simulation sim;
    Rng rng(9);
    Resource r(sim, 2);
    std::vector<std::unique_ptr<Mailbox<int>>> boxes;
    boxes.push_back(std::make_unique<Mailbox<int>>(sim));
    boxes.push_back(std::make_unique<Mailbox<int>>(sim));
    std::vector<std::uint64_t> work(2, 0);
    sim.spawn(chaos_worker(sim, rng.split(0), r, *boxes[0], *boxes[1], 30,
                           &work[0]));
    sim.spawn(chaos_worker(sim, rng.split(1), r, *boxes[1], *boxes[0], 30,
                           &work[1]));
    if (sliced) {
      // run_until advances the clock to each horizon even when idle, so
      // equivalence is judged on dispatched events and completed work.
      for (double t = 10.0; t <= 2000.0; t += 10.0) sim.run_until(t);
    }
    sim.run();
    return std::make_pair(sim.events_dispatched(), work[0] + work[1]);
  };
  const auto one_shot = measure(false);
  const auto sliced = measure(true);
  EXPECT_EQ(one_shot.first, sliced.first);
  EXPECT_EQ(one_shot.second, sliced.second);
}

TEST(DesStress, ManyWaitersOnOneResourceStayFifo) {
  Simulation sim;
  Resource r(sim, 1);
  std::vector<int> order;
  auto waiter = [](Simulation& s, Resource& res, int id,
                   std::vector<int>* out) -> Process {
    co_await res.acquire();
    out->push_back(id);
    co_await delay(s, 1.0);
    res.release();
  };
  for (int i = 0; i < 500; ++i) sim.spawn(waiter(sim, r, i, &order));
  sim.run();
  ASSERT_EQ(order.size(), 500u);
  for (int i = 0; i < 500; ++i) EXPECT_EQ(order[i], i);
  EXPECT_DOUBLE_EQ(sim.now(), 500.0);
}

TEST(DesStress, AbandonedWaitersAreReclaimedSafely) {
  // Processes still blocked on resources/mailboxes at teardown must be
  // destroyed without touching freed memory (covered further by ASAN).
  Simulation sim;
  Resource r(sim, 1);
  Mailbox<int> box(sim);
  auto blocked_on_resource = [](Simulation& s, Resource& res) -> Process {
    co_await res.acquire();
    co_await delay(s, 1e9);
    res.release();
  };
  auto blocked_on_mailbox = [](Mailbox<int>& b) -> Process {
    (void)co_await b.receive();
  };
  for (int i = 0; i < 10; ++i) {
    sim.spawn(blocked_on_resource(sim, r));
    sim.spawn(blocked_on_mailbox(box));
  }
  sim.run_until(100.0);
  EXPECT_GT(sim.live_processes(), 0u);
  // Destructor runs here; the test passes if nothing crashes or leaks.
}

}  // namespace
}  // namespace pimsim::des
