// Tests for the coroutine process layer.
#include <gtest/gtest.h>

#include <stdexcept>
#include <vector>

#include "des/process.hpp"
#include "des/simulation.hpp"

namespace pimsim::des {
namespace {

Process sleeper(Simulation& sim, Cycles t, double* finished_at) {
  co_await delay(sim, t);
  *finished_at = sim.now();
}

TEST(Process, DelayAdvancesTime) {
  Simulation sim;
  double finished = -1.0;
  sim.spawn(sleeper(sim, 25.0, &finished));
  sim.run();
  EXPECT_DOUBLE_EQ(finished, 25.0);
  EXPECT_EQ(sim.live_processes(), 0u);
}

TEST(Process, BodyDoesNotRunInsideSpawn) {
  Simulation sim;
  double finished = -1.0;
  sim.spawn(sleeper(sim, 0.0, &finished));
  EXPECT_DOUBLE_EQ(finished, -1.0);  // starts only when the calendar runs
  sim.run();
  EXPECT_DOUBLE_EQ(finished, 0.0);
}

Process chain_delays(Simulation& sim, std::vector<double>* times) {
  for (int i = 0; i < 5; ++i) {
    co_await delay(sim, 10.0);
    times->push_back(sim.now());
  }
}

TEST(Process, SequentialDelaysAccumulate) {
  Simulation sim;
  std::vector<double> times;
  sim.spawn(chain_delays(sim, &times));
  sim.run();
  EXPECT_EQ(times, (std::vector<double>{10, 20, 30, 40, 50}));
}

TEST(Process, UnspawnedProcessIsDestroyedSafely) {
  Simulation sim;
  double finished = -1.0;
  {
    Process p = sleeper(sim, 5.0, &finished);
    EXPECT_FALSE(p.done());
  }  // dropped without spawning
  sim.run();
  EXPECT_DOUBLE_EQ(finished, -1.0);
}

Process joiner(Simulation& sim, Process::JoinAwaitable join, double* joined_at) {
  co_await join;
  *joined_at = sim.now();
}

TEST(Process, JoinWaitsForCompletion) {
  Simulation sim;
  double finished = -1.0, joined = -1.0;
  Process worker = sleeper(sim, 30.0, &finished);
  sim.spawn(joiner(sim, worker.join(), &joined));
  sim.spawn(std::move(worker));
  sim.run();
  EXPECT_DOUBLE_EQ(finished, 30.0);
  EXPECT_DOUBLE_EQ(joined, 30.0);
}

TEST(Process, JoinOnFinishedProcessIsImmediate) {
  Simulation sim;
  double finished = -1.0;
  Process worker = sleeper(sim, 1.0, &finished);
  auto join = worker.join();
  sim.spawn(std::move(worker));
  sim.run();
  double joined = -1.0;
  sim.spawn(joiner(sim, std::move(join), &joined));
  sim.run();
  EXPECT_DOUBLE_EQ(joined, 1.0);  // completes at current time, no extra delay
}

Process spawn_join_parent(Simulation& sim, double* child_done, double* parent_done) {
  co_await spawn_join(sim, sleeper(sim, 7.0, child_done));
  *parent_done = sim.now();
}

TEST(Process, SpawnJoinHelper) {
  Simulation sim;
  double child = -1.0, parent = -1.0;
  sim.spawn(spawn_join_parent(sim, &child, &parent));
  sim.run();
  EXPECT_DOUBLE_EQ(child, 7.0);
  EXPECT_DOUBLE_EQ(parent, 7.0);
}

Process thrower(Simulation& sim) {
  co_await delay(sim, 5.0);
  throw std::runtime_error("model failure");
}

TEST(Process, ExceptionsPropagateToRun) {
  Simulation sim;
  sim.spawn(thrower(sim));
  EXPECT_THROW(sim.run(), std::runtime_error);
}

TEST(Process, SimulationDestructionReclaimsLiveProcesses) {
  double finished = -1.0;
  {
    Simulation sim;
    sim.spawn(sleeper(sim, 1000.0, &finished));
    sim.run_until(10.0);  // process still pending
    EXPECT_EQ(sim.live_processes(), 1u);
  }  // must not leak or crash (ASAN would flag a leak)
  EXPECT_DOUBLE_EQ(finished, -1.0);
}

struct LogOnDestroy {
  std::vector<int>* log;
  int id;
  ~LogOnDestroy() { log->push_back(id); }
};

Process parked(Simulation& sim, Cycles t, std::vector<int>* log, int id) {
  const LogOnDestroy guard{log, id};
  co_await delay(sim, t);
}

TEST(Process, TeardownOrderFollowsTheSwapAndPopRegistry) {
  // Frames left at destruction are torn down in live-registry order: a
  // finished process's slot is taken by the last one (swap-and-pop), so
  // after 0 finishes the order is 3, 1, 2 -- fixed by the sequence of
  // spawns and completions, never by frame addresses.
  std::vector<int> log;
  {
    Simulation sim;
    for (int id = 0; id < 4; ++id) {
      sim.spawn(parked(sim, id == 0 ? 1.0 : 1000.0, &log, id));
    }
    sim.run_until(10.0);
    EXPECT_EQ(sim.live_processes(), 3u);
  }
  EXPECT_EQ(log, (std::vector<int>{0, 3, 1, 2}));
}

Process wait_on(Simulation& sim, Trigger& trigger, double* woke_at) {
  co_await trigger.wait();
  *woke_at = sim.now();
}

TEST(Trigger, FireWakesAllWaiters) {
  Simulation sim;
  Trigger trigger(sim);
  double a = -1.0, b = -1.0;
  sim.spawn(wait_on(sim, trigger, &a));
  sim.spawn(wait_on(sim, trigger, &b));
  sim.schedule_at(12.0, [&] { trigger.fire(); });
  sim.run();
  EXPECT_DOUBLE_EQ(a, 12.0);
  EXPECT_DOUBLE_EQ(b, 12.0);
}

TEST(Trigger, LatchedTriggerPassesLateWaitersThrough) {
  Simulation sim;
  Trigger trigger(sim);
  trigger.fire();
  double woke = -1.0;
  sim.schedule_at(5.0, [&] { sim.spawn(wait_on(sim, trigger, &woke)); });
  sim.run();
  EXPECT_DOUBLE_EQ(woke, 5.0);
}

TEST(Trigger, ResetReArms) {
  Simulation sim;
  Trigger trigger(sim);
  trigger.fire();
  trigger.reset();
  double woke = -1.0;
  sim.spawn(wait_on(sim, trigger, &woke));
  sim.schedule_at(9.0, [&] { trigger.fire(); });
  sim.run();
  EXPECT_DOUBLE_EQ(woke, 9.0);
}

Process count_down_later(Simulation& sim, CountdownLatch& latch, Cycles at) {
  co_await delay(sim, at);
  latch.count_down();
}

Process latch_waiter(Simulation& sim, CountdownLatch& latch, double* woke_at) {
  co_await latch.wait();
  *woke_at = sim.now();
}

TEST(CountdownLatch, CompletesAfterNCountdowns) {
  Simulation sim;
  CountdownLatch latch(sim, 3);
  double woke = -1.0;
  sim.spawn(latch_waiter(sim, latch, &woke));
  sim.spawn(count_down_later(sim, latch, 10.0));
  sim.spawn(count_down_later(sim, latch, 20.0));
  sim.spawn(count_down_later(sim, latch, 30.0));
  sim.run();
  EXPECT_DOUBLE_EQ(woke, 30.0);  // the barrier ends at the slowest thread
}

TEST(CountdownLatch, ZeroCountIsImmediatelyOpen) {
  Simulation sim;
  CountdownLatch latch(sim, 0);
  double woke = -1.0;
  sim.spawn(latch_waiter(sim, latch, &woke));
  sim.run();
  EXPECT_DOUBLE_EQ(woke, 0.0);
}

TEST(CountdownLatch, ExtraCountdownsAreIgnored) {
  Simulation sim;
  CountdownLatch latch(sim, 1);
  latch.count_down();
  latch.count_down();  // no underflow
  EXPECT_EQ(latch.remaining(), 0u);
}

}  // namespace
}  // namespace pimsim::des
