// Semantics the event-kernel rewrite must preserve (and the bugs it
// fixes): void-action requests completing, step()/run()/run_until()
// equivalence, cancel-during-dispatch, the cancelled-event calendar
// leak, and bitwise determinism of the Figure 12 pipeline.
#include <gtest/gtest.h>

#include <cstdlib>
#include <sstream>
#include <string>
#include <vector>

#include "closure_arena.hpp"
#include "common/error.hpp"
#include "core/figures.hpp"
#include "des/audit.hpp"
#include "des/process.hpp"
#include "des/simulation.hpp"
#include "obs/session.hpp"
#include "parcel/network.hpp"
#include "parcel/runtime.hpp"

namespace pimsim {
namespace {

// --- void-action request/reply (the split-transaction hang) -------------

parcel::Parcel write_parcel(parcel::NodeId dst, std::uint64_t vaddr,
                            std::uint64_t value) {
  parcel::Parcel p;
  p.dst = dst;
  p.action = parcel::ActionKind::kWrite;
  p.target_vaddr = vaddr;
  p.operands = {value};
  return p;
}

TEST(ParcelMachineSemantics, VoidActionRequestCompletes) {
  des::Simulation sim;
  parcel::FlatInterconnect net(100.0);
  parcel::ParcelMachine machine(sim, 2, net);

  bool completed = false;
  auto client = [](parcel::ParcelMachine& m, bool* done) -> des::Process {
    // A write returns no value; the request must still complete via an
    // empty-operand reply rather than hanging the driver forever.
    auto handle = m.request(0, write_parcel(1, 0x20, 9));
    co_await handle.wait();
    EXPECT_TRUE(handle.done());
    EXPECT_THROW((void)handle.value(), ConfigError);  // no value to read
    *done = true;
  };
  sim.spawn(client(machine, &completed));
  machine.run();

  EXPECT_TRUE(completed);
  EXPECT_EQ(machine.store(1).read(0x20), 9u);
  EXPECT_EQ(machine.node_stats(1).replies_returned, 1u);
  EXPECT_EQ(machine.outstanding_requests(), 0u);
}

TEST(ParcelMachineSemantics, RunSurfacesStuckDrivers) {
  des::Simulation sim;
  parcel::FlatInterconnect net(10.0);
  parcel::ParcelMachine machine(sim, 2, net);

  // A driver that suspends on a trigger nobody fires: the old engine
  // exited run() silently in this situation; now it must throw.
  des::Trigger never(sim);
  auto stuck = [](des::Trigger& t) -> des::Process { co_await t.wait(); };
  sim.spawn(stuck(never));
  EXPECT_THROW(machine.run(), LogicError);
}

TEST(ParcelMachineSemantics, RunToleratesDeclaredIdleProcesses) {
  des::Simulation sim;
  parcel::FlatInterconnect net(10.0);
  parcel::ParcelMachine machine(sim, 2, net);

  // An app-level server that legitimately idles forever, like the node
  // engines do: declaring it keeps run() from calling it a stuck driver.
  des::Mailbox<int> requests(sim, "server.in");
  auto server = [](des::Mailbox<int>& in) -> des::Process {
    for (;;) (void)co_await in.receive();
  };
  sim.spawn(server(requests));
  EXPECT_THROW(machine.run(), LogicError);
  EXPECT_NO_THROW(machine.run(/*extra_idle_processes=*/1));
}

TEST(ParcelMachineSemantics, PostedVoidActionsStillSkipReplies) {
  des::Simulation sim;
  parcel::FlatInterconnect net(10.0);
  parcel::ParcelMachine machine(sim, 2, net);
  machine.post(0, write_parcel(1, 0x8, 3));
  machine.run();
  EXPECT_EQ(machine.store(1).read(0x8), 3u);
  EXPECT_EQ(machine.node_stats(1).replies_returned, 0u);
}

// --- kernel dispatch semantics ------------------------------------------

/// A workload exercising same-time FIFO, future events, and cancels.
struct KernelTrace {
  std::vector<int> order;
  std::uint64_t dispatched = 0;
  double final_time = 0.0;
};

KernelTrace run_workload(int mode /* 0=run, 1=step, 2=sliced run_until */) {
  des::Simulation sim;
  test::ClosureArena events(sim);
  KernelTrace out;
  events.at(5.0, [&] { out.order.push_back(1); });
  events.at(5.0, [&] {
    out.order.push_back(2);
    events.now([&] { out.order.push_back(4); });
    events.in(2.5, [&] { out.order.push_back(5); });
  });
  const des::EventId doomed =
      events.at(6.0, [&] { out.order.push_back(99); });
  events.at(5.0, [&] { out.order.push_back(3); });
  EXPECT_TRUE(sim.cancel(doomed));
  events.at(10.0, [&] { out.order.push_back(6); });

  if (mode == 0) {
    sim.run();
  } else if (mode == 1) {
    while (sim.step()) {
    }
  } else {
    for (double t = 0.5; t < 12.0; t += 0.5) sim.run_until(t);
    sim.run();
  }
  out.dispatched = sim.events_dispatched();
  out.final_time = sim.now();
  return out;
}

TEST(SimulationSemantics, StepRunAndRunUntilAreEquivalent) {
  const KernelTrace by_run = run_workload(0);
  const KernelTrace by_step = run_workload(1);
  const KernelTrace by_slice = run_workload(2);

  const std::vector<int> expected{1, 2, 3, 4, 5, 6};
  EXPECT_EQ(by_run.order, expected);
  EXPECT_EQ(by_step.order, expected);
  EXPECT_EQ(by_slice.order, expected);
  EXPECT_EQ(by_run.dispatched, by_step.dispatched);
  EXPECT_EQ(by_run.dispatched, by_slice.dispatched);
  // run_until() parks the clock at the horizon; run()/step() stop at the
  // last event.
  EXPECT_DOUBLE_EQ(by_run.final_time, 10.0);
  EXPECT_DOUBLE_EQ(by_step.final_time, 10.0);
}

TEST(SimulationSemantics, CancelDuringDispatch) {
  des::Simulation sim;
  test::ClosureArena events(sim);
  bool later_fired = false;
  des::EventId later = des::kInvalidEvent;
  // An event that cancels a same-timestamp successor mid-dispatch.
  events.at(1.0, [&] { EXPECT_TRUE(sim.cancel(later)); });
  later = events.at(1.0, [&] { later_fired = true; });
  sim.run();
  EXPECT_FALSE(later_fired);
  EXPECT_EQ(sim.events_dispatched(), 1u);
  EXPECT_EQ(sim.events_pending(), 0u);
}

TEST(SimulationSemantics, SelfCancelInsideCallbackIsNoOp) {
  des::Simulation sim;
  test::ClosureArena events(sim);
  des::EventId id = des::kInvalidEvent;
  int fired = 0;
  id = events.at(2.0, [&] {
    ++fired;
    EXPECT_FALSE(sim.cancel(id));  // the dispatching event is gone already
  });
  sim.run();
  EXPECT_EQ(fired, 1);
}

TEST(SimulationSemantics, EventIdsAreNotConfusedAcrossSlotReuse) {
  des::Simulation sim;
  test::ClosureArena events(sim);
  bool first_fired = false;
  bool second_fired = false;
  const des::EventId first = events.at(1.0, [&] { first_fired = true; });
  EXPECT_TRUE(sim.cancel(first));
  // The slot is recycled: the stale id must not cancel the new event.
  const des::EventId second =
      events.at(2.0, [&] { second_fired = true; });
  EXPECT_NE(first, second);
  EXPECT_FALSE(sim.cancel(first));
  sim.run();
  EXPECT_FALSE(first_fired);
  EXPECT_TRUE(second_fired);
}

// --- the cancelled-event calendar leak ----------------------------------

TEST(SimulationSemantics, CancelledFarFutureEventsDoNotAccumulate) {
  des::Simulation sim;
  // Pre-rewrite, each cancelled far-future timeout left a calendar entry
  // alive until its (never-reached) timestamp: a million cancelled
  // timeouts meant a million dead heap nodes.  Lazy deletion with
  // compaction bounds the calendar to O(live events).
  constexpr int kTimeouts = 1'000'000;
  std::size_t max_entries = 0;
  for (int i = 0; i < kTimeouts; ++i) {
    const des::EventId id =
        test::no_op_at(sim, 1e12 + static_cast<double>(i));
    ASSERT_TRUE(sim.cancel(id));
    max_entries = std::max(max_entries, sim.calendar_entries());
  }
  EXPECT_EQ(sim.events_pending(), 0u);
  EXPECT_LE(max_entries, 128u);  // compaction floor, not O(kTimeouts)
  EXPECT_LE(sim.calendar_entries(), 128u);
  sim.run();  // whatever remains must drain without firing anything
  EXPECT_EQ(sim.events_dispatched(), 0u);
}

TEST(SimulationSemantics, CancelledWheelEventsDoNotAccumulate) {
  // The same bound for near integral timeouts, which live in the timing
  // wheel rather than the heap: compaction must sweep the wheel too.
  des::Simulation sim;
  std::size_t max_entries = 0;
  for (int i = 0; i < 100'000; ++i) {
    const des::EventId id =
        test::no_op_at(sim, 1.0 + static_cast<double>(i % 1000));
    ASSERT_TRUE(sim.cancel(id));
    max_entries = std::max(max_entries, sim.calendar_entries());
  }
  EXPECT_LE(max_entries, 128u);
  sim.run();
  EXPECT_EQ(sim.events_dispatched(), 0u);
  EXPECT_EQ(sim.calendar_entries(), 0u);
}

TEST(SimulationSemantics, CancelHeavyMixedLoadKeepsCalendarBounded) {
  des::Simulation sim;
  test::ClosureArena events(sim);
  std::uint64_t fired = 0;
  constexpr int kOps = 100'000;
  for (int i = 0; i < kOps; ++i) {
    // One live near event per ten cancelled far timeouts.
    for (int j = 0; j < 10; ++j) {
      const des::EventId t = test::no_op_at(sim, 1e9 + i * 10.0 + j);
      ASSERT_TRUE(sim.cancel(t));
    }
    events.at(static_cast<double>(i), [&] { ++fired; });
  }
  EXPECT_LE(sim.calendar_entries(), 2u * sim.events_pending() + 128u);
  sim.run();
  EXPECT_EQ(fired, static_cast<std::uint64_t>(kOps));
}

// --- figure pipeline determinism ----------------------------------------

TEST(FigureDeterminism, Fig12BitwiseIdenticalAcrossSweepThreads) {
  core::ParcelFigureConfig cfg;
  cfg.base.horizon = 4'000.0;
  cfg.base.round_trip_latency = 200.0;
  cfg.base.p_remote = 0.2;
  cfg.base.seed = 7;
  cfg.parallelism = {1, 4, 16};
  cfg.node_counts = {4, 16};
  auto render = [&](std::size_t threads) {
    core::ParcelFigureConfig c = cfg;
    c.sweep_threads = threads;
    std::ostringstream os;
    core::make_fig12(c).print_csv(os);
    return os.str();
  };
  const std::string serial = render(1);
  EXPECT_EQ(serial, render(3));
  EXPECT_EQ(serial, render(8));
  EXPECT_FALSE(serial.empty());
}

// --- determinism audit mode (des/audit.hpp) ------------------------------

/// An audited kernel workload long enough to cross checkpoint windows;
/// `first_time` perturbs the very first dispatched event.
des::AuditLog audited_workload(double first_time) {
  des::Simulation sim;
  sim.set_audit(true);
  test::no_op_at(sim, first_time);
  for (int i = 0; i < 1500; ++i) {
    test::no_op_at(sim, 10.0 + i);
  }
  sim.run();
  EXPECT_TRUE(sim.audit_enabled());
  return *sim.audit_log();
}

TEST(AuditMode, ChainIsIdenticalAcrossReruns) {
  const des::AuditLog a = audited_workload(1.0);
  const des::AuditLog b = audited_workload(1.0);
  EXPECT_EQ(a.events(), 1501u);
  EXPECT_EQ(a.hash(), b.hash());
  EXPECT_EQ(a.checkpoints(), b.checkpoints());
  EXPECT_FALSE(des::first_divergence(a, b).has_value());
}

TEST(AuditMode, DivergenceIsLocalizedToTheFirstDifferingWindow) {
  const des::AuditLog a = audited_workload(1.0);
  const des::AuditLog c = audited_workload(2.0);  // event 0 differs
  EXPECT_NE(a.hash(), c.hash());
  const auto div = des::first_divergence(a, c);
  ASSERT_TRUE(div.has_value());
  EXPECT_EQ(*div, 0u);  // start of the first checkpoint window
}

TEST(AuditMode, InvariantSweepCatchesInjectedHeapCorruption) {
  des::Simulation sim;
  sim.set_audit(true);
  for (int i = 0; i < 8; ++i) {
    test::no_op_at(sim, 1.0 + i);
  }
  sim.audit_check_now();  // healthy kernel: no throw
  sim.corrupt_calendar_for_test();
  EXPECT_THROW(sim.audit_check_now(), LogicError);
  // The amortized sweep inside dispatch catches it too.
  EXPECT_THROW(sim.run(), LogicError);
}

// Near-future times land in the timing wheel (the test above); events
// at least the wheel's 1024-cycle span ahead take the heap, whose order
// the sweep checks too.
TEST(AuditMode, InvariantSweepCatchesInjectedHeapCorruptionOffTheWheel) {
  des::Simulation sim;
  sim.set_audit(true);
  for (int i = 0; i < 8; ++i) {
    test::no_op_at(sim, 2000.5 + i);
  }
  sim.audit_check_now();
  sim.corrupt_calendar_for_test();
  EXPECT_THROW(sim.audit_check_now(), LogicError);
  EXPECT_THROW(sim.run(), LogicError);
}

// Every entry in one quarter-cycle bucket: swapping the head's and the
// tail's keys leaves both correctly placed, so only the in-bucket key
// order check can catch it.
TEST(AuditMode, InvariantSweepCatchesKeyOrderBreakInsideOneBucket) {
  des::Simulation sim;
  sim.set_audit(true);
  for (const double t : {5.0, 5.0, 5.1, 5.2}) test::no_op_at(sim, t);
  sim.audit_check_now();
  sim.corrupt_calendar_for_test();
  try {
    sim.audit_check_now();
    FAIL() << "audit sweep missed a key-order break inside a bucket";
  } catch (const LogicError& e) {
    EXPECT_NE(std::string(e.what()).find("key order"), std::string::npos)
        << e.what();
  }
}

TEST(AuditMode, Fig12RegistryChainIdenticalAcrossSweepThreads) {
  // Simulations constructed inside figure generators on sweep worker
  // threads pick the audit switch up two ways: from an obs::Session (how
  // `pimsim verify audit=1` reaches them) and, with no session active,
  // from PIMSIM_AUDIT (the embedded-caller path).  Both must give one
  // chain, at any thread count.
  core::ParcelFigureConfig cfg;
  cfg.base.horizon = 2'000.0;
  cfg.base.seed = 7;
  cfg.parallelism = {1, 4};
  cfg.node_counts = {4};
  auto chain_of = [&](std::size_t threads) {
    core::ParcelFigureConfig c = cfg;
    c.sweep_threads = threads;
    des::AuditRegistry::global().reset();
    std::ostringstream os;
    core::make_fig12(c).print_csv(os);
    return des::AuditRegistry::global().snapshot();
  };
  des::AuditRegistry::Summary serial, parallel;
  {
    const obs::Session session({.audit = true});
    serial = chain_of(1);
    parallel = chain_of(3);
  }
  EXPECT_GT(serial.simulations, 0u);
  EXPECT_GT(serial.events, 0u);
  EXPECT_TRUE(serial == parallel);
  EXPECT_EQ(serial.combined, parallel.combined);

  // The env is read at every construction, so an embedded caller can
  // toggle a layer between runs (perfbench does, for PIMSIM_METRICS).
  ::setenv("PIMSIM_AUDIT", "1", 1);
  ::setenv("PIMSIM_METRICS", "1", 1);
  EXPECT_TRUE(des::Simulation{}.metrics_enabled());
  const auto env_serial = chain_of(1);
  const auto env_parallel = chain_of(3);
  ::unsetenv("PIMSIM_AUDIT");
  ::unsetenv("PIMSIM_METRICS");
  EXPECT_FALSE(des::Simulation{}.metrics_enabled());
  EXPECT_TRUE(env_serial == serial);
  EXPECT_TRUE(env_parallel == serial);
}

}  // namespace
}  // namespace pimsim
