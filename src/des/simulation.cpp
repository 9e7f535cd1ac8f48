#include "des/simulation.hpp"

#include <algorithm>
#include <bit>
#include <chrono>
#include <utility>

#include "common/error.hpp"
#include "des/process.hpp"
#include "obs/chrome_trace.hpp"
#include "obs/metrics.hpp"
#include "obs/profiler.hpp"
#include "obs/session.hpp"

namespace pimsim::des {

Simulation::Simulation() {
  // Start the per-event vectors at a working size, so a short run pays
  // one allocation per structure rather than a ladder of doublings.
  slots_.reserve(kInitialCapacity);
  now_queue_.reserve(kInitialCapacity);
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
  // Destroy any still-suspended process frames, in deterministic
  // registration order. Guard against coroutine destructors scheduling
  // new work or unregistering re-entrantly.
  destroying_ = true;
  auto frames = std::move(live_order_);
  live_order_.clear();
  for (const ProcessHook* hook : frames) {
    std::coroutine_handle<>::from_address(hook->frame).destroy();
  }
  // Pending EventActions (and anything they own) die with slots_.
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

// --- slot pool -----------------------------------------------------------

void Simulation::release_slot(std::uint32_t index) {
  Slot& slot = slots_[index];
  if (++slot.generation == 0) slot.generation = 1;  // 0 is the id sentinel
  slot.next_free = free_head_;
  free_head_ = index;
  --live_events_;
}

bool Simulation::cancel(EventId id) {
  const auto index = static_cast<std::uint32_t>(id);
  const auto gen = static_cast<std::uint32_t>(id >> 32);
  if (gen == 0 || index >= slots_.size()) return false;
  Slot& slot = slots_[index];
  // The action check rejects ids forged for a currently-free slot.
  if (slot.generation != gen || !slot.action) return false;
  slot.action.reset();
  release_slot(index);
  ++stale_;
  if (tracer_) trace(TraceKind::kEventCancelled, lbl_event_, id);
  // Lazy deletion keeps cancel O(1); compact once stale entries dominate
  // so cancel-heavy workloads cannot grow the calendar without bound.
  if (stale_ * 2 > calendar_entries() && calendar_entries() >= kCompactFloor) {
    compact_calendar();
  }
  return true;
}

// --- d-ary heap ----------------------------------------------------------
//
// A wide implicit heap cuts the tree depth of the binary
// std::priority_queue it replaces, and the 24-byte children of a node are
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

void Simulation::compact_calendar() {
  std::size_t removed = 0;
  std::size_t keep = 0;
  for (const HeapEntry& entry : heap_) {
    if (slots_[entry.slot].generation == entry.gen) {
      heap_[keep++] = entry;
    } else {
      ++removed;
    }
  }
  heap_.resize(keep);
  if (heap_.size() > 1) {
    // Floyd heapify: sift down every internal node, deepest first.
    for (std::size_t i = (heap_.size() - 2) / kHeapArity + 1; i-- > 0;) {
      sift_down(i);
    }
  }
  // Filter the immediate lane in place, preserving FIFO order.
  std::size_t write = 0;
  for (std::size_t read = now_head_; read < now_queue_.size(); ++read) {
    const NowEntry& entry = now_queue_[read];
    if (slots_[entry.slot].generation == entry.gen) {
      now_queue_[write++] = entry;
    } else {
      ++removed;
    }
  }
  now_queue_.resize(write);
  now_head_ = 0;
  // Filter every wheel bucket's list in place, preserving its key order.
  for (std::size_t w = 0; w < kWheelWords; ++w) {
    for (std::uint64_t bits = wheel_bits_[w]; bits != 0; bits &= bits - 1) {
      const std::size_t b = w * 64 + static_cast<std::size_t>(std::countr_zero(bits));
      WheelBucket& bucket = wheel_buckets_[b];
      std::uint32_t last = kNoSlot;
      for (std::uint32_t node = bucket.head; node != kNoSlot;) {
        const WheelNode entry = wheel_nodes_[node];
        if (slots_[entry.slot].generation == entry.gen) {
          if (last == kNoSlot) {
            bucket.head = node;
          } else {
            wheel_nodes_[last].next = node;
          }
          last = node;
        } else {
          wheel_free_node(node);
          --wheel_size_;
          ++removed;
        }
        node = entry.next;
      }
      if (last == kNoSlot) {
        wheel_clear_bit(b);
      } else {
        wheel_nodes_[last].next = kNoSlot;
        bucket.tail = last;
      }
    }
  }
  stale_ -= removed;
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

void Simulation::wheel_free_node(std::uint32_t node) {
  wheel_nodes_[node].next = wheel_free_;
  wheel_free_ = node;
}

// The out-of-line half of wheel_push: `key` precedes the tail of the
// occupied `bucket`.  Keyed events (their seq was reserved earlier) and
// a later-scheduled event at an earlier time inside the same quarter
// cycle land here.  Prepending is O(1); otherwise the walk from the head
// is bounded, and an insert that would go deeper takes the heap, which
// is just as exact (pop_next merges by key) and keeps a reverse-ordered
// fan-out into one bucket linear rather than quadratic.
void Simulation::wheel_insert(std::size_t bucket, unsigned __int128 key,
                              std::uint32_t slot, std::uint32_t gen) {
  WheelBucket& b = wheel_buckets_[bucket];
  if (key < wheel_nodes_[b.head].key) {
    b.head = wheel_new_node(key, slot, gen, b.head);
    ++wheel_size_;
    return;
  }
  // head.key <= key < tail.key, so a successor with a larger key exists
  // within the list: the walk never runs off its end.
  std::uint32_t prev = b.head;
  for (std::size_t step = 0; step < kWheelWalk; ++step) {
    const std::uint32_t next = wheel_nodes_[prev].next;
    if (key < wheel_nodes_[next].key) {
      const std::uint32_t node = wheel_new_node(key, slot, gen, next);
      wheel_nodes_[prev].next = node;
      ++wheel_size_;
      return;
    }
    prev = next;
  }
  heap_push(HeapEntry{key, slot, gen});
}

void Simulation::wheel_pop_front(std::size_t bucket) {
  WheelBucket& b = wheel_buckets_[bucket];
  const std::uint32_t node = b.head;
  if (node == b.tail) {
    wheel_clear_bit(bucket);
  } else {
    b.head = wheel_nodes_[node].next;
  }
  wheel_free_node(node);
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

// Pops the next live event in global (time, seq) order into `out`.  Each
// of the immediate lane, the wheel's first bucket and the heap yields its
// own entries in key order, so the smallest of their three front keys is
// the global minimum — the same event a single heap holding everything
// would pop.  Stale (cancelled) fronts are retired lazily.  With
// `bounded`, live events beyond `horizon` are left in place and false is
// returned.
bool Simulation::pop_next(HeapEntry& out, bool bounded, SimTime horizon) {
  enum class Source { kNone, kLane, kWheel, kHeap };
  for (;;) {
    Source source = Source::kNone;
    unsigned __int128 best = 0;
    if (now_head_ < now_queue_.size()) {
      source = Source::kLane;
      best = heap_key(now_, now_queue_[now_head_].seq);
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
        const unsigned __int128 key =
            wheel_nodes_[wheel_buckets_[bucket].head].key;
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
    switch (source) {
      case Source::kNone:
        return false;
      case Source::kLane: {
        const NowEntry entry = now_queue_[now_head_++];
        if (now_head_ == now_queue_.size()) {
          now_queue_.clear();
          now_head_ = 0;
        } else if (now_head_ >= kCompactFloor &&
                   now_head_ * 2 >= now_queue_.size()) {
          // Sustained same-time cascades can keep the lane non-empty for
          // a whole timestamp; reclaim the consumed prefix once it
          // dominates so lane memory stays O(pending), not O(events at
          // this time).
          now_queue_.erase(now_queue_.begin(),
                           now_queue_.begin() +
                               static_cast<std::ptrdiff_t>(now_head_));
          now_head_ = 0;
        }
        if (slots_[entry.slot].generation != entry.gen) {
          --stale_;
          continue;
        }
        out = HeapEntry{heap_key(now_, entry.seq), entry.slot, entry.gen};
        return true;
      }
      case Source::kWheel: {
        const WheelNode& node = wheel_nodes_[wheel_buckets_[bucket].head];
        const HeapEntry entry{node.key, node.slot, node.gen};
        if (slots_[entry.slot].generation != entry.gen) {
          wheel_pop_front(bucket);
          --stale_;
          continue;
        }
        if (bounded && entry.time() > horizon) return false;
        wheel_pop_front(bucket);
        out = entry;
        return true;
      }
      case Source::kHeap: {
        const HeapEntry entry = heap_.front();
        if (slots_[entry.slot].generation != entry.gen) {
          heap_pop_top();
          --stale_;
          continue;
        }
        if (bounded && entry.time() > horizon) return false;
        heap_pop_top();
        out = entry;
        return true;
      }
    }
  }
}

void Simulation::dispatch(const HeapEntry& entry) {
  // Relocate the action out of the pool and retire the slot before
  // invoking: the callback may schedule (growing/reusing the pool) or
  // cancel, and must observe this event as already dispatched.
  EventAction action = std::move(slots_[entry.slot].action);
  release_slot(entry.slot);
  // Calendar corruption that survives pop_next's repair (a heap sift, a
  // wheel bucket pop) still surfaces as an out-of-order dispatch; in
  // audit mode that is fatal, not silent.
  if (audit_) {
    ensure(entry.time() >= now_,
           "Simulation audit: dispatch time moved backwards (calendar "
           "order violated)");
  }
  advance_to(entry.time());
  current_seq_ = entry.seq();
  ++dispatched_;
  if (tracer_) {
    const EventId id =
        (static_cast<EventId>(entry.gen) << 32) | static_cast<EventId>(entry.slot);
    trace(TraceKind::kEventDispatched, lbl_event_, id);
  }
  if (audit_) {
    audit_->record(now_, current_seq_, action.kind_id());
    if (audit_countdown_ == 0) {
      audit_check_now();
      // Next sweep after ~pool-size events: the sweep is O(slots +
      // calendar), so the audit tax stays O(1) amortized per dispatch.
      audit_countdown_ = std::max<std::uint64_t>(kAuditCheckFloor,
                                                 slots_.size());
    } else {
      --audit_countdown_;
    }
  }
  if (profiler_) {
    dispatch_profiled(action);
  } else {
    action.invoke();
  }
  current_seq_ = 0;  // outside dispatch the documented value is 0
}

void Simulation::dispatch_profiled(EventAction& action) {
  // Counts are exact; wall time is sampled (one steady_clock pair every
  // kSampleEvery dispatches, attributed to that dispatch's kind) so the
  // timer cost is amortized to noise.  steady_clock measures wall time
  // only — it never feeds model state, so determinism is unaffected.
  const std::uint8_t kind = action.kind_id();
  profiler_->count(kind);
  if (profiler_->sample_due()) {
    const auto t0 = std::chrono::steady_clock::now();
    action.invoke();
    const std::chrono::duration<double> dt = std::chrono::steady_clock::now() - t0;
    profiler_->record_sample(kind, dt.count());
  } else {
    action.invoke();
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
  HeapEntry entry;
  while (pop_next(entry, /*bounded=*/false, 0.0)) {
    dispatch(entry);
    rethrow_pending();
  }
}

void Simulation::run_until(SimTime horizon) {
  ensure(horizon >= now_, "Simulation::run_until: horizon is in the past");
  HeapEntry entry;
  while (pop_next(entry, /*bounded=*/true, horizon)) {
    dispatch(entry);
    rethrow_pending();
  }
  advance_to(horizon);
}

bool Simulation::step() {
  HeapEntry entry;
  if (!pop_next(entry, /*bounded=*/false, 0.0)) return false;
  dispatch(entry);
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

void Simulation::audit_check_now() const {
  // 4-ary heap order: every entry's key must not precede its parent's.
  for (std::size_t i = 1; i < heap_.size(); ++i) {
    const std::size_t parent = (i - 1) / kHeapArity;
    ensure(!before(heap_[i], heap_[parent]),
           "Simulation audit: heap order violated (child precedes parent)");
  }
  // Slot pool: the free list must be acyclic, in range, and account for
  // exactly the slots that live_events_ does not.
  std::size_t free_count = 0;
  for (std::uint32_t index = free_head_; index != kNoSlot;
       index = slots_[index].next_free) {
    ensure(index < slots_.size(),
           "Simulation audit: free-list index out of range");
    ensure(++free_count <= slots_.size(),
           "Simulation audit: free-list cycle");
  }
  ensure(free_count + live_events_ == slots_.size(),
         "Simulation audit: slot accounting mismatch (free + live != pool)");
  for (const Slot& slot : slots_) {
    ensure(slot.generation != 0,
           "Simulation audit: slot generation hit the 0 sentinel");
  }
  audit_wheel();
  // Calendar: stale entries are a subset of calendar entries.
  ensure(stale_ <= calendar_entries(),
         "Simulation audit: stale count exceeds calendar size");
}

void Simulation::audit_wheel() const {
  // Each non-empty bucket holds times inside the wheel window whose tick
  // maps to that bucket, in strictly increasing (time, seq) key order;
  // the summary word mirrors the bitmap; pooled nodes are either chained
  // in a bucket or on the free list.
  std::size_t chained = 0;
  for (std::size_t w = 0; w < kWheelWords; ++w) {
    ensure(((wheel_summary_ >> w) & 1U) == (wheel_bits_[w] != 0 ? 1U : 0U),
           "Simulation audit: wheel summary word disagrees with bitmap");
    for (std::uint64_t bits = wheel_bits_[w]; bits != 0; bits &= bits - 1) {
      const std::size_t b = w * 64 + static_cast<std::size_t>(std::countr_zero(bits));
      const WheelBucket& bucket = wheel_buckets_[b];
      std::uint32_t last = kNoSlot;
      for (std::uint32_t node = bucket.head; node != kNoSlot;
           node = wheel_nodes_[node].next) {
        ensure(node < wheel_nodes_.size(),
               "Simulation audit: wheel node index out of range");
        ensure(++chained <= wheel_nodes_.size(), "Simulation audit: wheel chain cycle");
        const HeapEntry entry{wheel_nodes_[node].key, 0, 0};
        const SimTime t = entry.time();
        ensure(t >= now_ && t < wheel_limit_ &&
                   (static_cast<std::size_t>(wheel_tick(t)) & kWheelMask) == b,
               "Simulation audit: wheel entry outside its bucket's quarter cycle");
        ensure(last == kNoSlot || wheel_nodes_[last].key < entry.key,
               "Simulation audit: wheel bucket out of key order");
        last = node;
      }
      ensure(last != kNoSlot && last == bucket.tail,
             "Simulation audit: wheel bucket head/tail broken");
    }
  }
  ensure(chained == wheel_size_,
         "Simulation audit: wheel size disagrees with its buckets");
  std::size_t free_nodes = 0;
  for (std::uint32_t node = wheel_free_; node != kNoSlot;
       node = wheel_nodes_[node].next) {
    ensure(node < wheel_nodes_.size() && ++free_nodes <= wheel_nodes_.size(),
           "Simulation audit: wheel free list broken");
  }
  ensure(free_nodes + wheel_size_ == wheel_nodes_.size(),
         "Simulation audit: wheel node accounting mismatch");
}

void Simulation::corrupt_calendar_for_test() {
  if (wheel_size_ >= 2) {
    // First and last chained nodes, in bitmap order.
    std::uint32_t first = kNoSlot;
    std::uint32_t last = kNoSlot;
    for (std::size_t w = 0; w < kWheelWords; ++w) {
      for (std::uint64_t bits = wheel_bits_[w]; bits != 0; bits &= bits - 1) {
        const std::size_t b = w * 64 + static_cast<std::size_t>(std::countr_zero(bits));
        if (first == kNoSlot) first = wheel_buckets_[b].head;
        last = wheel_buckets_[b].tail;
      }
    }
    std::swap(wheel_nodes_[first].key, wheel_nodes_[last].key);
    return;
  }
  ensure(heap_.size() >= 2,
         "corrupt_calendar_for_test: needs >= 2 wheel or heap entries");
  std::swap(heap_.front().key, heap_.back().key);
}

// --- process layer hooks -------------------------------------------------

void Simulation::spawn(Process process) {
  auto h = process.release_for_spawn(*this);
  if (tracer_) trace(TraceKind::kProcessSpawned, lbl_process_);
  // Start the body via the calendar so spawn() never runs model code inline;
  // this keeps spawn order == start order at a given timestamp.
  resume_soon(h);
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
