#include "des/simulation.hpp"

#include <algorithm>
#include <bit>
#include <chrono>
#include <coroutine>
#include <cstddef>
#include <memory>
#include <type_traits>
#include <utility>

#include "common/error.hpp"
#include "des/process.hpp"
#include "obs/chrome_trace.hpp"
#include "obs/metrics.hpp"
#include "obs/profiler.hpp"
#include "obs/session.hpp"

namespace pimsim::des {

// hook_of/record_of turn a node pointer into its owner: both owners
// are standard-layout with the node as their first member.
static_assert(std::is_standard_layout_v<ProcessHook> &&
              offsetof(ProcessHook, node) == 0);

Simulation::Simulation() {
  heap_.reserve(kInitialCapacity);
  live_order_.reserve(kInitialCapacity);
  // The active obs::Session's switches (else the PIMSIM_* environment)
  // reach simulations constructed deep inside figure generators.
  const obs::RunOptions options = obs::current_run_options();
  set_audit(options.audit);
  set_trace(options.trace);
  if (options.trace) {
    // The per-event kernel kinds flood the bounded buffer on any
    // non-trivial run, so they stay masked out unless asked for.
    if (!options.trace_full) owned_tracer_->set_kind_mask(Tracer::kDefaultKinds);
    owned_tracer_->set_capacity(options.trace_cap);
  }
  set_metrics(options.metrics);
  set_profile(options.profile);
}

Simulation::~Simulation() {
  // Forget the calendar before any frame dies: the lane, wheel and heap
  // point into the frames' wake nodes, and a coroutine destructor that
  // schedules must not walk them.
  lane_head_ = lane_tail_ = nullptr;
  wheel_bits_ = {};
  wheel_summary_ = 0;
  heap_.clear();
  // Destroy any still-suspended process frames, in deterministic
  // registration order. Guard against coroutine destructors scheduling
  // new work or unregistering re-entrantly.
  destroying_ = true;
  auto frames = std::move(live_order_);
  live_order_.clear();
  for (const ProcessHook* hook : frames) {
    std::coroutine_handle<>::from_address(hook->frame).destroy();
  }
  if (audit_) AuditRegistry::global().absorb(*audit_);
  // Publish enabled observability layers to their process-wide hubs.
  if (metrics_) {
    // The kernel's own counters join the registry it has been hosting.
    metrics_->counter("des.events_dispatched").add(dispatched_);
    obs::MetricsHub::global().absorb(*metrics_);
  }
  if (owned_tracer_) obs::TraceHub::global().absorb(*owned_tracer_);
  if (profiler_) obs::ProfileHub::global().absorb(*profiler_);
}

// --- observability switches ----------------------------------------------

void Simulation::set_trace(bool enabled) {
  if (enabled) {
    if (!owned_tracer_) {
      owned_tracer_ = std::make_unique<Tracer>();
      set_tracer(owned_tracer_.get());
    }
  } else {
    if (tracer_ == owned_tracer_.get()) tracer_ = nullptr;
    owned_tracer_.reset();
  }
}

void Simulation::set_metrics(bool enabled) {
  if (enabled) {
    if (!metrics_) metrics_ = std::make_unique<obs::MetricsRegistry>();
  } else {
    metrics_.reset();
  }
}

obs::MetricsRegistry& Simulation::metrics() {
  ensure(metrics_ != nullptr, "Simulation::metrics: metrics mode is off");
  return *metrics_;
}

void Simulation::set_profile(bool enabled) {
  if (enabled) {
    if (!profiler_) profiler_ = std::make_unique<obs::KernelProfiler>();
  } else {
    profiler_.reset();
  }
}

// --- record pool ---------------------------------------------------------

Simulation::RecordPool::~RecordPool() {
  // Records are trivially destructible: freeing the chunks is enough.
  std::allocator<EventRecord> alloc;
  for (std::size_t k = 0; k < chunks_.size(); ++k) {
    alloc.deallocate(chunks_[k], chunk_size(k));
  }
}

Simulation::EventRecord& Simulation::RecordPool::grow() {
  ensure(chunks_.size() < kMaxChunks, "Simulation: event record pool exhausted");
  const std::uint32_t n = chunk_size(chunks_.size());
  chunks_.push_back(std::allocator<EventRecord>().allocate(n));
  bump_ = chunks_.back();
  end_ = bump_ + n;
  return construct();
}

// --- d-ary heap ----------------------------------------------------------
//
// A wide implicit heap cuts the tree depth of the binary
// std::priority_queue it replaces, and the children of a node are
// scanned contiguously with a single branchless 128-bit key compare each
// — fewer, more predictable memory touches per sift than a binary heap's
// pointer-chasing depth.

void Simulation::heap_pop_top() {
  heap_.front() = heap_.back();
  heap_.pop_back();
  if (!heap_.empty()) sift_down(0);
}

void Simulation::sift_down(std::size_t i) {
  const std::size_t n = heap_.size();
  const HeapEntry entry = heap_[i];
  for (;;) {
    const std::size_t first = kHeapArity * i + 1;
    if (first >= n) break;
    std::size_t best = first;
    const std::size_t last = std::min(first + kHeapArity, n);
    for (std::size_t child = first + 1; child < last; ++child) {
      if (before(heap_[child], heap_[best])) best = child;
    }
    if (!before(heap_[best], entry)) break;
    heap_[i] = heap_[best];
    i = best;
  }
  heap_[i] = entry;
}

// --- timing wheel --------------------------------------------------------

std::size_t Simulation::wheel_front_bucket() const {
  // Every wheel entry's tick lies in [now_tick_, now_tick_ +
  // kWheelBuckets), so scanning the buckets cyclically from now_tick_'s is
  // time order.  The summary word finds the next non-empty bitmap word
  // without a loop.
  const std::size_t start = static_cast<std::size_t>(now_tick_) & kWheelMask;
  const std::size_t w0 = start / 64;
  const std::uint64_t here = wheel_bits_[w0] & (~std::uint64_t{0} << (start % 64));
  if (here != 0) return w0 * 64 + static_cast<std::size_t>(std::countr_zero(here));
  // Words after w0 first; failing those, wrap around to words 0..w0
  // (w0's set bits then all lie below `start`).
  std::uint64_t words = wheel_summary_ & ~((std::uint64_t{2} << w0) - 1);
  if (words == 0) words = wheel_summary_;
  const auto w = static_cast<std::size_t>(std::countr_zero(words));
  return w * 64 + static_cast<std::size_t>(std::countr_zero(wheel_bits_[w]));
}

void Simulation::wheel_clear_bit(std::size_t bucket) {
  std::uint64_t& word = wheel_bits_[bucket / 64];
  word &= ~(std::uint64_t{1} << (bucket % 64));
  if (word == 0) wheel_summary_ &= ~(std::uint64_t{1} << (bucket / 64));
}

// The out-of-line half of wheel_push: `node`'s key precedes the tail of
// the occupied `bucket`.  Keyed events (their seq was reserved earlier)
// and a later-scheduled event at an earlier time inside the same quarter
// cycle land here.  Prepending is O(1); otherwise the walk from the head
// is bounded, and an insert that would go deeper takes the heap, which
// is just as exact (pop_next merges by key) and keeps a reverse-ordered
// fan-out into one bucket linear rather than quadratic.
void Simulation::wheel_insert(std::size_t bucket, CalendarNode& node) {
  WheelBucket& b = wheel_buckets_[bucket];
  if (node.key < b.head->key) {
    node.next = b.head;
    b.head = &node;
    ++wheel_size_;
    return;
  }
  // head.key <= key < tail.key, so a successor with a larger key exists
  // within the list: the walk never runs off its end.
  CalendarNode* prev = b.head;
  for (std::size_t step = 0; step < kWheelWalk; ++step) {
    CalendarNode* next = prev->next;
    if (node.key < next->key) {
      node.next = next;
      prev->next = &node;
      ++wheel_size_;
      return;
    }
    prev = next;
  }
  heap_push(HeapEntry{node.key, &node});
}

void Simulation::wheel_pop_front(std::size_t bucket) {
  WheelBucket& b = wheel_buckets_[bucket];
  if (b.head == b.tail) {
    wheel_clear_bit(bucket);
  } else {
    b.head = b.head->next;
  }
  --wheel_size_;
}

// --- dispatch ------------------------------------------------------------

void Simulation::advance_to(SimTime t) {
  now_ = t;
  if (t < kWheelTimeCap) {
    now_tick_ = wheel_tick(t);
    // Exact: the sum stays below 2^53 and the scaling is a power of two.
    wheel_limit_ = static_cast<SimTime>(now_tick_ + static_cast<std::int64_t>(kWheelBuckets)) /
                   static_cast<SimTime>(kWheelTicksPerCycle);
  }
}

// Unlinks and returns the next node in global (time, seq) order.
// Each of the immediate lane, the wheel's first bucket and the heap
// yields its own nodes in key order, so the smallest of their three
// front keys is the global minimum — the same event a single heap
// holding everything would pop.  With `bounded`, events beyond
// `horizon` are left in place and nullptr is returned.
CalendarNode* Simulation::pop_next(bool bounded, SimTime horizon) {
  enum class Source { kNone, kLane, kWheel, kHeap };
  Source source = Source::kNone;
  unsigned __int128 best = 0;
  if (lane_head_ != nullptr) {
    source = Source::kLane;
    best = lane_head_->key;
  }
  // Wheel entries can sit at exactly now_ with an older seq than the
  // lane front (scheduled before now_ reached their time), so the
  // wheel competes with the lane as well as with the heap.  Only such
  // an entry can precede the lane's front, and it sits in now_'s own
  // bucket, the wheel's first: with the lane non-empty, that bucket is
  // the only one to look at (now_tick_ is now_'s tick below the cap).
  std::size_t bucket = 0;
  if (wheel_size_ != 0) {
    bool occupied = true;
    if (source == Source::kLane && now_ < kWheelTimeCap) {
      bucket = static_cast<std::size_t>(now_tick_) & kWheelMask;
      occupied = ((wheel_bits_[bucket / 64] >> (bucket % 64)) & 1U) != 0;
    } else {
      bucket = wheel_front_bucket();
    }
    if (occupied) {
      const unsigned __int128 key = wheel_buckets_[bucket].head->key;
      if (source == Source::kNone || key < best) {
        source = Source::kWheel;
        best = key;
      }
    }
  }
  if (!heap_.empty() &&
      (source == Source::kNone || heap_.front().key < best)) {
    source = Source::kHeap;
  }
  CalendarNode* node = nullptr;
  switch (source) {
    case Source::kNone:
      return nullptr;
    case Source::kLane:
      // Lane nodes sit at now_, never beyond a horizon.
      node = lane_head_;
      lane_head_ = node->next;
      if (lane_head_ == nullptr) lane_tail_ = nullptr;
      --lane_size_;
      break;
    case Source::kWheel:
      node = wheel_buckets_[bucket].head;
      if (bounded && node->time() > horizon) return nullptr;
      wheel_pop_front(bucket);
      break;
    case Source::kHeap:
      node = heap_.front().node;
      if (bounded && node->time() > horizon) return nullptr;
      heap_pop_top();
      break;
  }
  return node;
}

void Simulation::dispatch(CalendarNode& node) {
  const SimTime t = node.time();
  // Calendar corruption that survives pop_next's repair (a heap sift, a
  // wheel bucket pop) still surfaces as an out-of-order dispatch; in
  // audit mode that is fatal, not silent.
  if (audit_) {
    ensure(t >= now_,
           "Simulation audit: dispatch time moved backwards (calendar "
           "order violated)");
  }
  advance_to(t);
  current_seq_ = node.seq();
  ++dispatched_;
  node.state = State::kIdle;
  if (node.process) {
    // The woken process may link this node again before resume returns.
    --live_wakes_;
    const auto frame = std::coroutine_handle<>::from_address(hook_of(node).frame);
    run_observed(EventAction::kWakeKindId, [frame] { frame.resume(); });
  } else {
    // The call is copied out and the record freed before it runs, so the
    // callback may reuse the record for what it schedules, and a throwing
    // callback leaves no record behind.
    EventRecord& record = *record_of(&node);
    const EventAction action = record.action;
    --live_records_;
    pool_.release(record);
    run_observed(EventAction::kCallKindId, [&action] { action.invoke(); });
  }
  current_seq_ = 0;  // outside dispatch the documented value is 0
}

template <typename Invoke>
void Simulation::run_observed(std::uint8_t kind, Invoke&& invoke) {
  if (tracer_) trace(TraceKind::kEventDispatched, lbl_event_, 0, current_seq_);
  if (audit_) {
    audit_->record(now_, current_seq_, kind);
    if (audit_countdown_ == 0) {
      audit_check_now();
      // Next sweep after ~pool + calendar events: the sweep is O(pool +
      // calendar), so the audit tax stays O(1) amortized per dispatch.
      audit_countdown_ = std::max<std::uint64_t>(
          kAuditCheckFloor, pool_.size() + calendar_entries());
    } else {
      --audit_countdown_;
    }
  }
  if (!profiler_) {
    invoke();
    return;
  }
  // Counts are exact; wall time is sampled (one steady_clock pair every
  // kSampleEvery dispatches, attributed to that dispatch's kind) so the
  // timer cost is amortized to noise.  steady_clock measures wall time
  // only — it never feeds model state, so determinism is unaffected.
  profiler_->count(kind);
  if (profiler_->sample_due()) {
    const auto t0 = std::chrono::steady_clock::now();
    invoke();
    const std::chrono::duration<double> dt = std::chrono::steady_clock::now() - t0;
    profiler_->record_sample(kind, dt.count());
  } else {
    invoke();
  }
}

void Simulation::rethrow_pending() {
  if (pending_exception_) {
    std::exception_ptr ep = pending_exception_;
    pending_exception_ = nullptr;
    std::rethrow_exception(ep);
  }
}

void Simulation::run() {
  while (CalendarNode* node = pop_next(/*bounded=*/false, 0.0)) {
    dispatch(*node);
    rethrow_pending();
  }
}

void Simulation::run_until(SimTime horizon) {
  ensure(horizon >= now_, "Simulation::run_until: horizon is in the past");
  while (CalendarNode* node = pop_next(/*bounded=*/true, horizon)) {
    dispatch(*node);
    rethrow_pending();
  }
  advance_to(horizon);
}

bool Simulation::step() {
  CalendarNode* node = pop_next(/*bounded=*/false, 0.0);
  if (node == nullptr) return false;
  dispatch(*node);
  rethrow_pending();
  return true;
}

// --- determinism audit ---------------------------------------------------

void Simulation::set_audit(bool enabled) {
  if (enabled) {
    if (!audit_) {
      audit_ = std::make_unique<AuditLog>();
      audit_countdown_ = 0;  // sweep on the next dispatch
    }
  } else {
    audit_.reset();
  }
}

/// Counts the nodes found in the calendar's structures by owner.
struct Simulation::AuditTally {
  std::size_t records = 0;  // pending pooled events
  std::size_t wakes = 0;    // pending process wakes

  void add(const CalendarNode& node) {
    ensure(node.state == State::kLinked,
           "Simulation audit: calendar holds an unlinked node");
    ++(node.process ? wakes : records);
  }
};

void Simulation::audit_check_now() const {
  // 4-ary heap order: every entry's key must not precede its parent's.
  for (std::size_t i = 1; i < heap_.size(); ++i) {
    const std::size_t parent = (i - 1) / kHeapArity;
    ensure(!before(heap_[i], heap_[parent]),
           "Simulation audit: heap order violated (child precedes parent)");
  }
  AuditTally tally;
  for (const HeapEntry& entry : heap_) {
    ensure(entry.key == entry.node->key,
           "Simulation audit: heap entry key differs from its node's");
    tally.add(*entry.node);
  }
  // Immediate lane: every node at now_, in strictly increasing seq order.
  std::size_t lane = 0;
  const CalendarNode* last = nullptr;
  for (const CalendarNode* node = lane_head_; node != nullptr; node = node->next) {
    ensure(++lane <= lane_size_, "Simulation audit: lane longer than its count");
    ensure(node->time() == now_ && (last == nullptr || last->key < node->key),
           "Simulation audit: lane entry out of FIFO key order");
    tally.add(*node);
    last = node;
  }
  ensure(lane == lane_size_ && last == lane_tail_,
         "Simulation audit: lane count or tail broken");
  audit_wheel(tally);
  // Every node in a structure is counted once; the totals must equal the
  // kernel's counters exactly.
  ensure(tally.records == live_records_ && tally.wakes == live_wakes_,
         "Simulation audit: calendar nodes disagree with the live counts");
  // Record pool: the free list must be acyclic, hold only idle records,
  // and account for exactly the records not pending.
  std::size_t free_count = 0;
  for (const EventRecord* r = pool_.free_head(); r != nullptr;
       r = record_of(r->node.next)) {
    ensure(++free_count <= pool_.size(), "Simulation audit: free-list cycle");
    ensure(r->node.state == State::kIdle,
           "Simulation audit: a free record is linked");
  }
  ensure(free_count + live_records_ == pool_.size(),
         "Simulation audit: record accounting mismatch (free + live != pool)");
}

void Simulation::audit_wheel(AuditTally& tally) const {
  // Each non-empty bucket holds times inside the wheel window whose tick
  // maps to that bucket, in strictly increasing (time, seq) key order;
  // the summary word mirrors the bitmap; the chained nodes number exactly
  // wheel_size_.
  std::size_t chained = 0;
  for (std::size_t w = 0; w < kWheelWords; ++w) {
    ensure(((wheel_summary_ >> w) & 1U) == (wheel_bits_[w] != 0 ? 1U : 0U),
           "Simulation audit: wheel summary word disagrees with bitmap");
    for (std::uint64_t bits = wheel_bits_[w]; bits != 0; bits &= bits - 1) {
      const std::size_t b = w * 64 + static_cast<std::size_t>(std::countr_zero(bits));
      const WheelBucket& bucket = wheel_buckets_[b];
      const CalendarNode* last = nullptr;
      for (const CalendarNode* node = bucket.head; node != nullptr; node = node->next) {
        ensure(++chained <= wheel_size_, "Simulation audit: wheel chain cycle");
        const SimTime t = node->time();
        ensure(t >= now_ && t < wheel_limit_ &&
                   (static_cast<std::size_t>(wheel_tick(t)) & kWheelMask) == b,
               "Simulation audit: wheel entry outside its bucket's quarter cycle");
        ensure(last == nullptr || last->key < node->key,
               "Simulation audit: wheel bucket out of key order");
        tally.add(*node);
        last = node;
      }
      ensure(last != nullptr && last == bucket.tail,
             "Simulation audit: wheel bucket head/tail broken");
    }
  }
  ensure(chained == wheel_size_,
         "Simulation audit: wheel size disagrees with its buckets");
}

void Simulation::corrupt_calendar_for_test() {
  if (wheel_size_ >= 2) {
    // First and last chained nodes, in bitmap order.
    CalendarNode* first = nullptr;
    CalendarNode* last = nullptr;
    for (std::size_t w = 0; w < kWheelWords; ++w) {
      for (std::uint64_t bits = wheel_bits_[w]; bits != 0; bits &= bits - 1) {
        const std::size_t b = w * 64 + static_cast<std::size_t>(std::countr_zero(bits));
        if (first == nullptr) first = wheel_buckets_[b].head;
        last = wheel_buckets_[b].tail;
      }
    }
    std::swap(first->key, last->key);
    return;
  }
  ensure(heap_.size() >= 2,
         "corrupt_calendar_for_test: needs >= 2 wheel or heap entries");
  std::swap(heap_.front().key, heap_.back().key);
}

// --- process layer hooks -------------------------------------------------

void Simulation::spawn(Process process) {
  ProcessHook& hook = process.release_for_spawn(*this).promise().hook;
  if (tracer_) trace(TraceKind::kProcessSpawned, lbl_process_);
  // Start the body via the calendar so spawn() never runs model code inline;
  // this keeps spawn order == start order at a given timestamp.
  resume_soon(hook);
}

void Simulation::register_process(ProcessHook& hook) {
  hook.live_pos = live_order_.size();
  live_order_.push_back(&hook);
}

void Simulation::unregister_process(ProcessHook& hook) {
  if (destroying_) return;
  const std::size_t pos = hook.live_pos;
  // Swap-and-pop: O(1), and deterministic because the sequence of
  // register/unregister calls is itself deterministic — addresses are
  // never ordered over.
  ProcessHook* moved = live_order_.back();
  live_order_[pos] = moved;
  moved->live_pos = pos;
  live_order_.pop_back();
  if (tracer_) trace(TraceKind::kProcessFinished, lbl_process_);
}

void Simulation::set_pending_exception(std::exception_ptr ep) {
  // Keep the first exception; nested failures would mask the root cause.
  if (!pending_exception_) pending_exception_ = ep;
}

}  // namespace pimsim::des
