// Tests for the coroutine process layer.
#include <gtest/gtest.h>

#include <optional>
#include <stdexcept>
#include <vector>

#include "closure_arena.hpp"
#include "common/error.hpp"
#include "des/mailbox.hpp"
#include "des/process.hpp"
#include "des/resource.hpp"
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

/// Records the time and dispatch count after each of its three waits.
Process wait_until_steps(Simulation& sim, std::vector<double>* times,
                         std::vector<std::uint64_t>* dispatches) {
  co_await delay(sim, 10.0);
  co_await wait_until(sim, 25.0);  // absolute: wakes at 25, not 35
  times->push_back(sim.now());
  dispatches->push_back(sim.events_dispatched());
  co_await wait_until(sim, 25.0);  // already there: no suspension
  times->push_back(sim.now());
  dispatches->push_back(sim.events_dispatched());
  co_await wait_until(sim, 25.5);
  times->push_back(sim.now());
  dispatches->push_back(sim.events_dispatched());
}

TEST(WaitUntil, WakesAtAbsoluteTimeAndPassesThroughAtNow) {
  Simulation sim;
  std::vector<double> times;
  std::vector<std::uint64_t> dispatches;
  sim.spawn(wait_until_steps(sim, &times, &dispatches));
  sim.run();
  EXPECT_EQ(times, (std::vector<double>{25.0, 25.0, 25.5}));
  ASSERT_EQ(dispatches.size(), 3u);
  EXPECT_EQ(dispatches[1], dispatches[0]);  // t == now() dispatched nothing
  EXPECT_EQ(dispatches[2], dispatches[1] + 1);
}

Process order_logger(Simulation& sim, bool absolute, int id,
                     std::vector<int>* order) {
  if (absolute) {
    co_await wait_until(sim, sim.now() + 5.0);
  } else {
    co_await delay(sim, 5.0);
  }
  order->push_back(id);
}

TEST(WaitUntil, SameTimeWakeUpsKeepSchedulingOrderWithDelay) {
  // wait_until(now + d) takes the calendar key delay(d) would: same-time
  // wake-ups dispatch in the order they were scheduled.
  Simulation sim;
  std::vector<int> order;
  sim.spawn(order_logger(sim, true, 0, &order));
  sim.spawn(order_logger(sim, false, 1, &order));
  sim.spawn(order_logger(sim, true, 2, &order));
  sim.run();
  EXPECT_EQ(order, (std::vector<int>{0, 1, 2}));
  EXPECT_DOUBLE_EQ(sim.now(), 5.0);
}

Process wait_into_past(Simulation& sim) {
  co_await delay(sim, 10.0);
  co_await wait_until(sim, 9.0);
}

TEST(WaitUntil, PastTimeThrowsLogicError) {
  Simulation sim;
  sim.spawn(wait_into_past(sim));
  EXPECT_THROW(sim.run(), LogicError);
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

TEST(Process, JoinOutlivesTheRecycledFrame) {
  // Three joiners of one process: one waits before it finishes, two ask
  // only after its frame was freed and its memory handed to another
  // process of the same shape.  The join state outlives the frame.
  Simulation sim;
  double finished = -1.0, reused = -1.0;
  double joined[3] = {-1.0, -1.0, -1.0};
  Process worker = sleeper(sim, 3.0, &finished);
  auto j0 = worker.join();
  auto j1 = worker.join();
  auto j2 = worker.join();
  sim.spawn(joiner(sim, std::move(j0), &joined[0]));
  sim.spawn(std::move(worker));
  sim.run();
  EXPECT_DOUBLE_EQ(finished, 3.0);
  EXPECT_DOUBLE_EQ(joined[0], 3.0);
  EXPECT_FALSE(worker.done());  // the spawned handle no longer has a frame
  sim.spawn(sleeper(sim, 4.0, &reused));  // likely takes the freed block
  sim.spawn(joiner(sim, std::move(j1), &joined[1]));
  sim.run();
  sim.spawn(joiner(sim, std::move(j2), &joined[2]));
  sim.run();
  EXPECT_DOUBLE_EQ(reused, 7.0);
  EXPECT_DOUBLE_EQ(joined[1], 3.0);  // already done: no suspension
  EXPECT_DOUBLE_EQ(joined[2], 7.0);
  EXPECT_EQ(sim.live_processes(), 0u);
}

TEST(Process, JoinOnAnEmptyHandleThrows) {
  Simulation sim;
  double finished = -1.0;
  Process worker = sleeper(sim, 1.0, &finished);
  sim.spawn(std::move(worker));
  EXPECT_THROW((void)worker.join(), LogicError);  // NOLINT(bugprone-use-after-move)
  sim.run();
}

Process wait_on(Simulation& sim, Trigger& trigger, double* woke_at) {
  co_await trigger.wait();
  *woke_at = sim.now();
}

TEST(Trigger, FireWakesAllWaiters) {
  Simulation sim;
  test::ClosureArena events(sim);
  Trigger trigger(sim);
  double a = -1.0, b = -1.0;
  sim.spawn(wait_on(sim, trigger, &a));
  sim.spawn(wait_on(sim, trigger, &b));
  events.at(12.0, [&] { trigger.fire(); });
  sim.run();
  EXPECT_DOUBLE_EQ(a, 12.0);
  EXPECT_DOUBLE_EQ(b, 12.0);
}

TEST(Trigger, LatchedTriggerPassesLateWaitersThrough) {
  Simulation sim;
  test::ClosureArena events(sim);
  Trigger trigger(sim);
  trigger.fire();
  double woke = -1.0;
  events.at(5.0, [&] { sim.spawn(wait_on(sim, trigger, &woke)); });
  sim.run();
  EXPECT_DOUBLE_EQ(woke, 5.0);
}

TEST(Trigger, ResetReArms) {
  Simulation sim;
  test::ClosureArena events(sim);
  Trigger trigger(sim);
  trigger.fire();
  trigger.reset();
  double woke = -1.0;
  sim.spawn(wait_on(sim, trigger, &woke));
  events.at(9.0, [&] { trigger.fire(); });
  sim.run();
  EXPECT_DOUBLE_EQ(woke, 9.0);
}

Process rewaiter(Simulation& sim, Trigger& trigger, std::vector<double>* wakes,
                 int times) {
  // Two co_await sites, so the second wait's queue node sits elsewhere in
  // the frame than the node the first fire() unlinked.
  co_await trigger.wait();
  wakes->push_back(sim.now());
  for (int i = 1; i < times; ++i) {
    co_await trigger.wait();
    wakes->push_back(sim.now());
  }
}

TEST(Trigger, WaiterThatWaitsAgainJoinsTheNextFire) {
  // fire() detaches its waiter list before waking anyone, and wakes
  // through the calendar, so a woken process that waits again on the
  // same trigger is parked for the next fire(), not woken twice by one.
  Simulation sim;
  test::ClosureArena events(sim);
  Trigger trigger(sim);
  std::vector<double> a, b;
  sim.spawn(rewaiter(sim, trigger, &a, 3));
  sim.spawn(rewaiter(sim, trigger, &b, 2));
  events.at(5.0, [&] {
    trigger.fire(/*latch=*/false);
    EXPECT_EQ(trigger.waiting(), 0u);
    EXPECT_TRUE(a.empty());  // not resumed inside fire()
  });
  events.at(5.0, [&] { EXPECT_EQ(trigger.waiting(), 0u); });
  events.at(6.0, [&] {
    EXPECT_EQ(trigger.waiting(), 2u);
    trigger.fire(false);
  });
  events.at(9.0, [&] {
    EXPECT_EQ(trigger.waiting(), 1u);
    trigger.fire(false);
  });
  sim.run();
  EXPECT_EQ(a, (std::vector<double>{5.0, 6.0, 9.0}));
  EXPECT_EQ(b, (std::vector<double>{5.0, 6.0}));
  EXPECT_EQ(sim.live_processes(), 0u);
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

Process hold_forever(Simulation& sim, Resource& r) {
  co_await r.acquire();
  co_await delay(sim, 1e9);
}

Process take_one(Mailbox<int>& box) { (void)co_await box.receive(); }

Process queue_everywhere(Simulation& sim, Resource& r, Mailbox<int>& box,
                         Trigger& t) {
  Process holder = hold_forever(sim, r);
  auto join = holder.join();
  sim.spawn(std::move(holder));
  sim.spawn(hold_forever(sim, r));  // queued behind the holder
  sim.spawn(take_one(box));
  sim.spawn(take_one(box));
  sim.spawn(wait_on(sim, t, nullptr));
  sim.spawn(wait_on(sim, t, nullptr));
  co_await join;  // a joiner linked to a process that never ends
}

TEST(Process, TeardownWithWaitersLinkedInEveryQueue) {
  // Frames parked in Resource, Mailbox, Trigger and join queues are
  // destroyed with the Simulation; their queue nodes die with them and
  // nothing walks the queues afterwards.  Both destruction orders: the
  // queues outlive the Simulation, or die first (parcel/system.cpp's
  // layout).  The sanitizer jobs check there is no stray access.
  {
    std::optional<Simulation> sim(std::in_place);
    Resource r(*sim, 1, "r");
    Mailbox<int> box(*sim, "box");
    Trigger t(*sim);
    sim->spawn(queue_everywhere(*sim, r, box, t));
    sim->run_until(10.0);
    EXPECT_EQ(r.queue_length(), 1u);
    EXPECT_EQ(box.waiting_receivers(), 2u);
    EXPECT_EQ(t.waiting(), 2u);
    EXPECT_EQ(sim->live_processes(), 7u);
    sim.reset();
  }
  {
    Simulation sim;
    Resource r(sim, 1, "r");
    Mailbox<int> box(sim, "box");
    Trigger t(sim);
    sim.spawn(queue_everywhere(sim, r, box, t));
    sim.run_until(10.0);
    EXPECT_EQ(sim.live_processes(), 7u);
  }
}

/// Suspends without scheduling anything and hands the test the
/// process's hook, so the test can drive the kernel's wake calls.
struct ExposeHook {
  ProcessHook** out;
  bool await_ready() const noexcept { return false; }
  void await_suspend(Process::handle_type h) noexcept { *out = &h.promise().hook; }
  void await_resume() const noexcept {}
};

Process exposed(Simulation& sim, ProcessHook** hook, std::vector<double>* woke) {
  co_await ExposeHook{hook};
  woke->push_back(sim.now());
  co_await ExposeHook{hook};
  woke->push_back(sim.now());
}

TEST(Process, ASuspendedProcessHasAtMostOneWake) {
  // The wake node lives in the process, so a second wake while one is
  // pending -- whichever structure either would take -- is a LogicError,
  // and the pending one is left intact.
  Simulation sim;
  sim.set_audit(true);
  ProcessHook* hook = nullptr;
  std::vector<double> woke;
  sim.spawn(exposed(sim, &hook, &woke));
  sim.run();
  ASSERT_NE(hook, nullptr);
  EXPECT_EQ(sim.events_pending(), 0u);
  sim.resume_in(5.0, *hook);
  EXPECT_THROW(sim.resume_soon(*hook), LogicError);        // lane
  EXPECT_THROW(sim.resume_at(6.0, *hook), LogicError);     // wheel
  EXPECT_THROW(sim.resume_in(5000.0, *hook), LogicError);  // heap
  EXPECT_EQ(sim.events_pending(), 1u);
  EXPECT_EQ(sim.calendar_entries(), 1u);
  sim.audit_check_now();
  sim.run();
  EXPECT_EQ(woke, (std::vector<double>{5.0}));
  // Dispatch unlinked the node: the next suspension may be woken again.
  sim.resume_soon(*hook);
  sim.run();
  EXPECT_EQ(woke, (std::vector<double>{5.0, 5.0}));
  EXPECT_EQ(sim.live_processes(), 0u);
}

Process parked_on(Trigger& trigger, std::vector<int>* log, int id) {
  const LogOnDestroy guard{log, id};
  co_await trigger.wait();
}

TEST(Process, TeardownWithWakesPendingInEveryCalendarStructure) {
  // After run_until, wakes stay linked in the heap (far delays) and the
  // wheel (near ones); a Trigger fired and a process spawned from outside
  // the calendar add lane wakes; pooled events sit beside them in all
  // three.  Destroying the Simulation frees frames whose wake nodes are
  // still linked: nothing may touch them afterwards (the sanitizer jobs
  // check), and every frame is destroyed.
  std::vector<int> log;
  {
    Simulation sim;
    Trigger trigger(sim);
    for (int id = 0; id < 3; ++id) sim.spawn(parked(sim, 5000.0, &log, id));
    for (int id = 3; id < 6; ++id) sim.spawn(parked(sim, 20.0, &log, id));
    for (int id = 6; id < 8; ++id) sim.spawn(parked_on(trigger, &log, id));
    test::no_op_at(sim, 15.0);
    test::no_op_at(sim, 4000.0);
    sim.run_until(10.0);
    trigger.fire();
    sim.spawn(parked(sim, 1.0, &log, 8));
    test::no_op_at(sim, sim.now());
    EXPECT_EQ(sim.live_processes(), 9u);
    EXPECT_EQ(sim.events_pending(), 12u);
    EXPECT_EQ(sim.calendar_entries(), 12u);
    sim.set_audit(true);
    sim.audit_check_now();
  }
  // Process 8's body never started, so it had no guard to log.
  EXPECT_EQ(log.size(), 8u);
}

}  // namespace
}  // namespace pimsim::des
