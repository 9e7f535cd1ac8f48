// Tests for the discrete-event scheduler.
#include <gtest/gtest.h>

#include <algorithm>
#include <array>
#include <cmath>
#include <cstdint>
#include <deque>
#include <functional>
#include <map>
#include <set>
#include <sstream>
#include <string>
#include <tuple>
#include <utility>
#include <vector>

#include "closure_arena.hpp"
#include "common/error.hpp"
#include "common/rng.hpp"
#include "des/mailbox.hpp"
#include "des/process.hpp"
#include "des/simulation.hpp"

namespace pimsim::des {
namespace {

TEST(Simulation, StartsAtTimeZero) {
  Simulation sim;
  EXPECT_DOUBLE_EQ(sim.now(), 0.0);
  EXPECT_EQ(sim.events_pending(), 0u);
}

TEST(Simulation, DispatchesInTimeOrder) {
  Simulation sim;
  test::ClosureArena events(sim);
  std::vector<int> order;
  events.at(30.0, [&] { order.push_back(3); });
  events.at(10.0, [&] { order.push_back(1); });
  events.at(20.0, [&] { order.push_back(2); });
  sim.run();
  EXPECT_EQ(order, (std::vector<int>{1, 2, 3}));
  EXPECT_DOUBLE_EQ(sim.now(), 30.0);
}

TEST(Simulation, SameTimeEventsAreFifo) {
  Simulation sim;
  test::ClosureArena events(sim);
  std::vector<int> order;
  for (int i = 0; i < 10; ++i) {
    events.at(5.0, [&order, i] { order.push_back(i); });
  }
  sim.run();
  for (int i = 0; i < 10; ++i) EXPECT_EQ(order[i], i);
}

TEST(Simulation, ScheduleInIsRelative) {
  Simulation sim;
  test::ClosureArena events(sim);
  double fired_at = -1.0;
  events.at(10.0, [&] {
    events.in(5.0, [&] { fired_at = sim.now(); });
  });
  sim.run();
  EXPECT_DOUBLE_EQ(fired_at, 15.0);
}

TEST(Simulation, ScheduleNowRunsAfterPendingSameTimeEvents) {
  Simulation sim;
  test::ClosureArena events(sim);
  std::vector<int> order;
  events.at(1.0, [&] {
    events.now([&] { order.push_back(2); });
    order.push_back(1);
  });
  events.at(1.0, [&] { order.push_back(0); });
  sim.run();
  EXPECT_EQ(order, (std::vector<int>{1, 0, 2}));
}

TEST(Simulation, CancelPreventsDispatch) {
  Simulation sim;
  test::ClosureArena events(sim);
  bool fired = false;
  const EventId id = events.at(5.0, [&] { fired = true; });
  EXPECT_TRUE(sim.cancel(id));
  EXPECT_FALSE(sim.cancel(id));  // second cancel is a no-op
  sim.run();
  EXPECT_FALSE(fired);
}

TEST(Simulation, CancelReachesRecordsInEveryPoolChunk) {
  // 500 pending events span the pool's first four chunks (64, 128, 256,
  // 512 records).  Cancelling every other one must find each record by
  // its id; stale and forged ids must not match.
  Simulation sim;
  test::ClosureArena events(sim);
  sim.set_audit(true);
  std::vector<EventId> ids;
  int fired = 0;
  for (int i = 0; i < 500; ++i) {
    ids.push_back(events.at(1.0 + i % 7, [&fired] { ++fired; }));
  }
  for (std::size_t i = 0; i < ids.size(); i += 2) EXPECT_TRUE(sim.cancel(ids[i]));
  for (std::size_t i = 0; i < ids.size(); i += 2) EXPECT_FALSE(sim.cancel(ids[i]));
  EXPECT_EQ(sim.events_pending(), 250u);
  sim.audit_check_now();
  sim.run();
  EXPECT_EQ(fired, 250);
  for (const EventId id : ids) EXPECT_FALSE(sim.cancel(id));
  EXPECT_FALSE(sim.cancel((EventId{1} << 32) | 10'000));  // past the pool
  EXPECT_FALSE(sim.cancel(ids[1] & 0xffffffffu));          // generation 0
  sim.audit_check_now();
}

void count_call(void* counter, std::uint64_t, std::uint64_t) {
  ++*static_cast<int*>(counter);
}

TEST(Simulation, TeardownRunsNoPendingEvent) {
  // Records are trivially destructible: a simulation destroyed with
  // pending and cancelled static calls across several pool chunks frees
  // them without running any (the sanitizer jobs check the teardown).
  int fired = 0;
  {
    Simulation sim;
    std::vector<EventId> ids;
    for (int i = 0; i < 300; ++i) {
      ids.push_back(
          sim.schedule_static_at(static_cast<double>(i), &count_call, &fired, 0, 0));
    }
    for (std::size_t i = 0; i < ids.size(); i += 3) sim.cancel(ids[i]);
    sim.run_until(150.0);
    EXPECT_EQ(fired, 100);  // 151 events at 0..150, 51 of them cancelled
    EXPECT_EQ(sim.events_pending(), 100u);
  }
  EXPECT_EQ(fired, 100);
}

TEST(Simulation, NullStaticCallIsRejectedAtScheduleTime) {
  // A null fn throws where it is scheduled, not later at dispatch, and
  // leaves the calendar, the record pool and the seq counter untouched.
  Simulation sim;
  sim.set_audit(true);
  (void)test::no_op_at(sim, 5.0);
  const std::uint64_t seq = sim.allocate_seq();
  EXPECT_THROW(sim.schedule_static_at(1.0, nullptr, nullptr, 0, 0), LogicError);
  EXPECT_THROW(sim.schedule_static_at_seq(2.0, seq, nullptr, nullptr, 0, 0),
               LogicError);
  EXPECT_EQ(sim.events_pending(), 1u);
  EXPECT_EQ(sim.calendar_entries(), 1u);
  EXPECT_EQ(sim.allocate_seq(), seq + 1);
  sim.audit_check_now();
  sim.run();
  EXPECT_EQ(sim.events_dispatched(), 1u);
  EXPECT_DOUBLE_EQ(sim.now(), 5.0);
}

TEST(Simulation, RunUntilStopsAtHorizonAndAdvancesClock) {
  Simulation sim;
  test::ClosureArena events(sim);
  int count = 0;
  for (double t : {1.0, 2.0, 3.0, 4.0}) {
    events.at(t, [&] { ++count; });
  }
  sim.run_until(2.5);
  EXPECT_EQ(count, 2);
  EXPECT_DOUBLE_EQ(sim.now(), 2.5);
  EXPECT_EQ(sim.events_pending(), 2u);
  sim.run_until(10.0);
  EXPECT_EQ(count, 4);
  EXPECT_DOUBLE_EQ(sim.now(), 10.0);
}

TEST(Simulation, RunUntilIncludesEventsExactlyAtHorizon) {
  Simulation sim;
  test::ClosureArena events(sim);
  bool fired = false;
  events.at(5.0, [&] { fired = true; });
  sim.run_until(5.0);
  EXPECT_TRUE(fired);
}

TEST(Simulation, StepDispatchesOneEvent) {
  Simulation sim;
  test::ClosureArena events(sim);
  int count = 0;
  events.at(1.0, [&] { ++count; });
  events.at(2.0, [&] { ++count; });
  EXPECT_TRUE(sim.step());
  EXPECT_EQ(count, 1);
  EXPECT_TRUE(sim.step());
  EXPECT_EQ(count, 2);
  EXPECT_FALSE(sim.step());
}

TEST(Simulation, RejectsPastScheduling) {
  Simulation sim;
  test::ClosureArena events(sim);
  test::no_op_at(sim, 10.0);
  sim.run();
  EXPECT_THROW(test::no_op_at(sim, 5.0),
               LogicError);
  EXPECT_THROW(events.in(-1.0, [] {}), LogicError);
}

TEST(Simulation, RejectsPastHorizon) {
  Simulation sim;
  test::no_op_at(sim, 10.0);
  sim.run();
  EXPECT_THROW(sim.run_until(5.0), LogicError);
}

TEST(Simulation, EventsCanScheduleMoreEvents) {
  Simulation sim;
  test::ClosureArena events(sim);
  int depth = 0;
  std::function<void()> chain = [&] {
    if (++depth < 100) events.in(1.0, chain);
  };
  events.at(0.0, chain);
  sim.run();
  EXPECT_EQ(depth, 100);
  EXPECT_DOUBLE_EQ(sim.now(), 99.0);
  EXPECT_EQ(sim.events_dispatched(), 100u);
}

TEST(Simulation, TracerRecordsSchedulingAndDispatch) {
  Simulation sim;
  Tracer tracer;
  sim.set_tracer(&tracer);
  test::no_op_at(sim, 1.0);
  sim.run();
  ASSERT_GE(tracer.records().size(), 2u);
  EXPECT_EQ(tracer.records()[0].kind, TraceKind::kEventScheduled);
  EXPECT_EQ(tracer.records()[1].kind, TraceKind::kEventDispatched);
  EXPECT_DOUBLE_EQ(tracer.records()[1].time, 1.0);
}

TEST(Simulation, TracerCallbackMode) {
  Simulation sim;
  int callback_count = 0;
  Tracer tracer([&](const TraceRecord&) { ++callback_count; });
  sim.set_tracer(&tracer);
  test::no_op_at(sim, 1.0);
  sim.run();
  EXPECT_GE(callback_count, 2);
  EXPECT_TRUE(tracer.records().empty());  // forwarded, not buffered
}

// --- calendar differential test ------------------------------------------
//
// The calendar routes each event to one of three structures (immediate
// lane, timing wheel, heap).  Its contract is that dispatch order is
// exactly the (time, seq) order of one ordered set holding everything.
// CalendarOracle drives the kernel with a seeded mix of every routing
// case -- same-time, near and far integral, non-integral, several times
// inside one quarter-cycle wheel bucket, times shared with
// already-pending events, keyed schedule_static_at_seq events under old
// reserved seqs (near ones landing at the head or in the middle of a
// bucket that already holds newer entries), cancels and self-cancels --
// and checks every dispatch (time, seq and identity) against such a set.
// Beside the pooled events, sleeper processes put their own wake nodes
// into the same mix: spawns, delay() (zero, near and far), wait_until(),
// and resume_soon wakes from a Trigger fire or a Mailbox send, sharing
// times with pooled events in all three structures.  Audit mode is on
// and the invariant sweep also runs from inside callbacks, so the exact
// node and record-pool accounting is checked throughout.

class CalendarOracle {
 public:
  CalendarOracle(std::uint64_t seed, std::size_t budget)
      : rng_(seed, 0xca1e), budget_(budget) {
    sim_.set_audit(true);
  }

  Simulation& sim() { return sim_; }
  /// True once the budget is spent and every event has dispatched.
  [[nodiscard]] bool done() const {
    return pending_.empty() && scheduled_ >= budget_;
  }
  [[nodiscard]] const std::vector<std::string>& failures() const {
    return failures_;
  }
  [[nodiscard]] std::uint64_t dispatched() const { return dispatched_; }
  [[nodiscard]] std::uint64_t cancelled() const { return cancelled_; }
  /// Dispatched process wakes, by how they were scheduled.
  enum WakeKind { kSpawn, kDelay, kWaitUntil, kTrigger, kMailbox, kWakeKinds };
  [[nodiscard]] const std::array<std::uint64_t, kWakeKinds>& wakes() const {
    return wakes_;
  }

  /// Random actions a caller (or a dispatching event) performs: schedule
  /// up to `max_new` events, maybe reserve a seq, maybe cancel one.
  void act(int max_new) {
    if (rng_.bernoulli(0.2)) reserve_seq();
    const auto n = static_cast<int>(rng_.uniform_int(0, max_new));
    for (int i = 0; i < n && scheduled_ < budget_; ++i) schedule_random();
    if (rng_.bernoulli(0.15)) cancel_random();
    if (rng_.bernoulli(0.1)) spawn_sleeper();
    if (rng_.bernoulli(0.25)) wake_waiters();
  }

  /// Takes one random step from outside the kernel: a run_until slice (horizon integral,
  /// mid-bucket or arbitrary), a few step() calls, a cancel storm, or
  /// outside scheduling.
  void drive() {
    const SimTime now = sim_.now();
    switch (rng_.uniform_int(0, 5)) {
      case 0: {
        const SimTime base = std::floor(now) + static_cast<double>(rng_.uniform_int(0, 40));
        const SimTime horizon = rng_.bernoulli(0.5) ? base + 0.5 : base;
        const SimTime target = std::max(horizon, now);
        run_until(target);
        check(sim_.now() == target, "run_until did not park at the horizon");
        check(pending_.empty() || std::get<0>(*pending_.begin()) > target,
              "run_until left an event at or before the horizon");
        break;
      }
      case 1:
        for (int i = 0; i < 5 && sim_.step(); ++i) {
        }
        break;
      case 2:
        run_until(now + rng_.uniform(0.0, 3000.0));
        break;
      case 3:  // cancel storm: stale entries come to dominate, compaction runs
        for (std::size_t i = pending_.size() / 2; i > 0; --i) cancel_random();
        break;
      case 4:
        keyed_burst();
        break;
      default:
        act(6);
        break;
    }
    check_bounds();
    sim_.audit_check_now();
  }

  void check_bounds() {
    check(sim_.events_pending() == pending_.size(),
          "events_pending() disagrees with the reference");
    check(sim_.calendar_entries() ==
              sim_.events_pending() + sim_.stale_calendar_entries(),
          "calendar_entries() != pending + stale");
    check(sim_.calendar_entries() <= 2 * sim_.events_pending() + 128,
          "calendar_entries() exceeds its documented bound");
  }

 private:
  struct Live {
    EventId id;
    SimTime time;
    std::uint64_t seq;
  };

  void check(bool ok, const char* what) {
    if (!ok && failures_.size() < 10) {
      std::ostringstream os;
      os << what << " (now=" << sim_.now() << ", dispatched=" << dispatched_ << ")";
      failures_.push_back(os.str());
    }
  }

  void run_until(SimTime horizon) {
    horizon_ = horizon;
    sim_.run_until(horizon);
    horizon_ = kNoHorizon;
  }

  void reserve_seq() {
    reserved_.push_back(sim_.allocate_seq());
    check(reserved_.back() == next_seq_++, "allocate_seq out of step");
  }

  /// Start of a quarter-cycle wheel bucket 1..8 buckets after now()'s.
  SimTime near_quarter() {
    return std::floor(sim_.now() * 4.0) / 4.0 +
           0.25 * static_cast<double>(rng_.uniform_int(1, 8));
  }
  /// One of four distinct times inside the bucket starting at `quarter`.
  SimTime inside_quarter(SimTime quarter) {
    return quarter + 0.0625 * static_cast<double>(rng_.uniform_int(0, 3));
  }

  /// Near keyed events into one bucket that already holds newer non-keyed
  /// entries: their reserved seqs are older, so they insert at the head
  /// or in the middle of the bucket -- the packet network's pattern.
  void keyed_burst() {
    const SimTime quarter = near_quarter();
    const auto keys = static_cast<int>(rng_.uniform_int(1, 4));
    for (int i = 0; i < keys; ++i) reserve_seq();
    for (auto n = rng_.uniform_int(1, 4); n > 0 && scheduled_ < budget_; --n) {
      schedule_plain(inside_quarter(quarter));
    }
    for (int i = 0; i < keys && !reserved_.empty() && scheduled_ < budget_; ++i) {
      schedule_keyed(inside_quarter(quarter));
    }
  }

  /// A time strictly after now() of a random routing class.
  SimTime future_time() {
    const SimTime now = sim_.now();
    const SimTime tick = std::floor(now);
    switch (rng_.uniform_int(0, 6)) {
      case 0:  // near integral, straddling the wheel span
        return tick + static_cast<double>(rng_.uniform_int(1, 1100));
      case 1:  // far integral
        return tick + static_cast<double>(rng_.uniform_int(1000, 6000));
      case 2:  // non-integral
        return now + rng_.uniform(0.001, 50.0);
      case 3:  // mid-cycle
        return tick + static_cast<double>(rng_.uniform_int(1, 30)) + 0.5;
      case 4:  // several distinct times inside one quarter-cycle bucket
        return inside_quarter(near_quarter());
      default: {  // share a pending event's time when one is in the future
        if (!pending_.empty()) {
          auto it = pending_.lower_bound(
              {now + rng_.uniform(0.0, 200.0), 0, 0});
          if (it == pending_.end()) it = pending_.begin();
          if (std::get<0>(*it) > now) return std::get<0>(*it);
        }
        return tick + 1.0;
      }
    }
  }

  /// A process wake the kernel will dispatch at (at, seq).
  void expect(SimTime at, std::uint64_t seq, std::uint64_t tag, WakeKind kind) {
    pending_.emplace(at, seq, tag);
    wake_kind_.emplace(tag, kind);
  }

  void spawn_sleeper() {
    if (sleepers_ >= kMaxSleepers || scheduled_ >= budget_) return;
    const std::uint64_t tag = next_tag_++;
    ++scheduled_;
    ++sleepers_;
    expect(sim_.now(), next_seq_++, tag, kSpawn);
    sim_.spawn(sleeper(this, tag));
  }

  /// Fires the trigger (every waiter, in suspension order) and/or hands
  /// one message to the oldest mailbox receiver: resume_soon wakes in the
  /// lane, at the seqs handed out here.
  void wake_waiters() {
    check(trigger_.waiting() == trigger_waiters_.size() &&
              box_.waiting_receivers() == box_waiters_.size(),
          "wait queues disagree with the reference");
    if (!trigger_waiters_.empty() && rng_.bernoulli(0.5)) {
      for (const std::uint64_t tag : trigger_waiters_) {
        expect(sim_.now(), next_seq_++, tag, kTrigger);
      }
      trigger_waiters_.clear();
      trigger_.fire(/*latch=*/false);
    }
    if (!box_waiters_.empty()) {
      const std::uint64_t tag = box_waiters_.front();
      box_waiters_.pop_front();
      expect(sim_.now(), next_seq_++, tag, kMailbox);
      box_.send(tag);
    }
  }

  /// A process that checks each of its wakes against the reference and
  /// then suspends again in a random way, until the budget is spent.
  static Process sleeper(CalendarOracle* o, std::uint64_t tag) {
    for (;;) {
      o->fire(tag);  // the first dispatch is the spawn's
      if (o->scheduled_ >= o->budget_) break;
      tag = o->next_tag_++;
      ++o->scheduled_;
      Simulation& sim = o->sim_;
      switch (o->rng_.uniform_int(0, 3)) {
        case 0: {  // zero (lane), near (wheel) or far (heap)
          const SimTime now = sim.now();
          const Cycles d = o->rng_.bernoulli(0.2) ? 0.0 : o->future_time() - now;
          o->expect(now + d, o->next_seq_++, tag, kDelay);
          co_await delay(sim, d);
          break;
        }
        case 1: {
          const SimTime at = o->future_time();
          o->expect(at, o->next_seq_++, tag, kWaitUntil);
          co_await wait_until(sim, at);
          break;
        }
        case 2:
          o->trigger_waiters_.push_back(tag);
          co_await o->trigger_.wait();
          break;
        default: {
          o->box_waiters_.push_back(tag);
          const std::uint64_t got = co_await o->box_.receive();
          o->check(got == tag, "mailbox woke a receiver with another's message");
          break;
        }
      }
    }
    --o->sleepers_;
  }

  void schedule_random() {
    if (!reserved_.empty() && rng_.bernoulli(0.25)) {
      schedule_keyed(future_time());
      return;
    }
    schedule_plain(rng_.bernoulli(0.2) ? sim_.now() : future_time());
  }

  /// Keyed at `at` (> now) under a random old reserved seq, so its key is
  /// older than events scheduled since: it cannot simply be appended.
  void schedule_keyed(SimTime at) {
    const std::uint64_t tag = next_tag_++;
    ++scheduled_;
    const std::size_t pick = rng_.uniform_int(0, reserved_.size() - 1);
    const std::uint64_t seq = reserved_[pick];
    reserved_[pick] = reserved_.back();
    reserved_.pop_back();
    const EventId id =
        sim_.schedule_static_at_seq(at, seq, &CalendarOracle::on_static, this, tag, 0);
    add(tag, id, at, seq);
  }

  void schedule_plain(SimTime at) {
    const std::uint64_t tag = next_tag_++;
    ++scheduled_;
    const std::uint64_t seq = next_seq_++;
    const EventId id =
        sim_.schedule_static_at(at, &CalendarOracle::on_static, this, tag, 0);
    add(tag, id, at, seq);
  }

  void add(std::uint64_t tag, EventId id, SimTime at, std::uint64_t seq) {
    pending_.emplace(at, seq, tag);
    live_.emplace(tag, Live{id, at, seq});
  }

  void cancel_random() {
    if (live_.empty()) return;
    auto it = live_.lower_bound(rng_.uniform_int(0, next_tag_));
    if (it == live_.end()) it = live_.begin();
    check(sim_.cancel(it->second.id), "cancel of a pending event failed");
    check(!sim_.cancel(it->second.id), "second cancel succeeded");
    pending_.erase({it->second.time, it->second.seq, it->first});
    live_.erase(it);
    ++cancelled_;
  }

  static void on_static(void* ctx, std::uint64_t tag, std::uint64_t) {
    static_cast<CalendarOracle*>(ctx)->fire(tag);
  }

  void fire(std::uint64_t tag) {
    ++dispatched_;
    if (pending_.empty()) {
      check(false, "dispatch with an empty reference");
      return;
    }
    check(sim_.now() <= horizon_, "run_until dispatched past its horizon");
    const auto expected = *pending_.begin();
    check(expected == std::make_tuple(sim_.now(), sim_.current_dispatch_seq(), tag),
          "dispatch order differs from the (time, seq) reference");
    pending_.erase(pending_.begin());
    const auto self = live_.find(tag);
    if (self != live_.end()) {
      const EventId id = self->second.id;
      live_.erase(self);
      if (rng_.bernoulli(0.1)) check(!sim_.cancel(id), "self-cancel succeeded");
    }
    if (const auto wake = wake_kind_.find(tag); wake != wake_kind_.end()) {
      ++wakes_[wake->second];
      wake_kind_.erase(wake);
    }
    act(3);
    check_bounds();
    // Mid-dispatch: a pooled event's record is running, a wake's node is
    // unlinked; the sweep's accounting must hold either way.
    if (rng_.bernoulli(0.05)) sim_.audit_check_now();
  }

  static constexpr SimTime kNoHorizon = 1e300;
  static constexpr std::size_t kMaxSleepers = 64;

  Simulation sim_;
  Trigger trigger_{sim_};
  Mailbox<std::uint64_t> box_{sim_, "oracle"};
  std::deque<std::uint64_t> trigger_waiters_;  // tags, in suspension order
  std::deque<std::uint64_t> box_waiters_;
  std::size_t sleepers_ = 0;
  std::map<std::uint64_t, WakeKind> wake_kind_;  // pending wakes by tag
  std::array<std::uint64_t, kWakeKinds> wakes_{};
  Rng rng_;
  SimTime horizon_ = kNoHorizon;
  std::size_t budget_;
  std::size_t scheduled_ = 0;
  std::uint64_t next_seq_ = 1;  // mirrors the kernel's seq counter
  std::uint64_t next_tag_ = 0;
  std::uint64_t dispatched_ = 0;
  std::uint64_t cancelled_ = 0;
  std::vector<std::uint64_t> reserved_;
  std::set<std::tuple<SimTime, std::uint64_t, std::uint64_t>> pending_;
  std::map<std::uint64_t, Live> live_;
  std::vector<std::string> failures_;
};

TEST(CalendarDifferential, WheelScanWrapsIntoTheStartWord) {
  // Parked mid-cycle at 10.5, the scan starts at quarter-cycle bucket
  // 42.  Events a near-full span ahead wrap into buckets 20 and 36 -- the
  // same bitmap word as the start, below it -- and must still dispatch
  // after 20.
  Simulation sim;
  test::ClosureArena events(sim);
  sim.run_until(10.5);
  std::vector<double> order;
  for (const double t : {1029.0, 20.0, 1033.0}) {
    events.at(t, [&] { order.push_back(sim.now()); });
  }
  sim.run();
  EXPECT_EQ(order, (std::vector<double>{20.0, 1029.0, 1033.0}));
  EXPECT_EQ(sim.calendar_entries(), 0u);
}

TEST(CalendarDifferential, KeyedFanOutIntoOneBucketDispatchesInKeyOrder) {
  // 100k keyed events into the single quarter-cycle bucket [10, 10.25).
  // The first half arrives at 10.125 in reverse key order (each one a
  // head insert) and is capped by a newer tail.  The second half arrives
  // in seq order alternating between 10.0 and 10.125: those at 10.125
  // belong between the first half and the tail, and those at 10.0 behind
  // the earlier 10.0 ones, so every insert walks further than the last
  // -- quadratic without the walk bound; past it they take the heap.
  // Dispatch must be exact key order either way.
  constexpr std::uint64_t kHalf = 50'000;
  Simulation sim;
  std::vector<std::uint64_t> down(kHalf);
  std::vector<std::uint64_t> up(kHalf);
  for (std::uint64_t& seq : down) seq = sim.allocate_seq();
  for (std::uint64_t& seq : up) seq = sim.allocate_seq();
  const std::uint64_t tail = sim.allocate_seq();
  std::vector<std::pair<SimTime, std::uint64_t>> order;
  order.reserve(2 * kHalf + 1);
  const auto record = [](void* ctx, std::uint64_t, std::uint64_t) {
    auto& [s, out] = *static_cast<std::pair<Simulation*, decltype(order)*>*>(ctx);
    out->emplace_back(s->now(), s->current_dispatch_seq());
  };
  std::pair<Simulation*, decltype(order)*> ctx{&sim, &order};
  for (std::uint64_t i = kHalf; i-- > 0;) {
    sim.schedule_static_at_seq(10.125, down[i], record, &ctx, 0, 0);
  }
  sim.schedule_static_at_seq(10.125, tail, record, &ctx, 0, 0);
  for (std::uint64_t i = 0; i < kHalf; ++i) {
    sim.schedule_static_at_seq(10.0 + 0.125 * static_cast<double>(i % 2), up[i],
                               record, &ctx, 0, 0);
  }
  sim.audit_check_now();
  sim.run();
  ASSERT_EQ(order.size(), 2 * kHalf + 1);
  EXPECT_TRUE(std::is_sorted(order.begin(), order.end()));
  EXPECT_EQ(std::adjacent_find(order.begin(), order.end()), order.end());
  EXPECT_EQ(sim.calendar_entries(), 0u);
}

TEST(CalendarDifferential, DispatchOrderMatchesOrderedSetReference) {
  for (std::uint64_t seed = 1; seed <= 12; ++seed) {
    CalendarOracle oracle(seed, 6000);
    oracle.act(40);
    // A broken calendar desynchronizes the reference; stop at the first
    // failure instead of driving a diverged model further.
    for (int step = 0; !oracle.done() && oracle.failures().empty(); ++step) {
      ASSERT_LT(step, 100000) << "seed " << seed << ": drive() loop did not finish";
      oracle.drive();
    }
    oracle.sim().run();
    oracle.check_bounds();
    for (const std::string& f : oracle.failures()) ADD_FAILURE() << "seed " << seed << ": " << f;
    EXPECT_EQ(oracle.sim().events_dispatched(), oracle.dispatched()) << seed;
    EXPECT_GT(oracle.dispatched(), 1000u) << seed;
    EXPECT_GT(oracle.cancelled(), 0u) << seed;
    for (const std::uint64_t n : oracle.wakes()) EXPECT_GT(n, 0u) << seed;
    EXPECT_EQ(oracle.sim().calendar_entries(), 0u) << seed;
    // Far events push the clock many wheel spans out: buckets wrapped.
    EXPECT_GT(oracle.sim().now(), 4 * 1024.0) << seed;
  }
}

TEST(TraceKind, AllKindsHaveNames) {
  for (int k = 0; k <= static_cast<int>(TraceKind::kInstant); ++k) {
    EXPECT_STRNE(to_string(static_cast<TraceKind>(k)), "unknown");
  }
}

}  // namespace
}  // namespace pimsim::des
