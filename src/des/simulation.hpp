// The discrete-event scheduler at the heart of pimsim.
//
// This is the replacement for the HyPerformix SES/Workbench kernel the
// paper used: a single-threaded event calendar with deterministic
// (time, insertion-order) dispatch, plus a C++20-coroutine process layer
// declared in process.hpp.
//
// Typical use:
//
//   des::Simulation sim;
//   sim.spawn(my_model(sim, ...));      // my_model returns des::Process
//   sim.run();                          // or sim.run_until(horizon)
//
// Determinism: two events scheduled for the same timestamp dispatch in
// scheduling order, so a model that uses only Simulation-provided
// primitives and pimsim::Rng streams is bit-reproducible.
//
// Internals (see src/des/README.md, "The calendar"): events live in a
// generation-tagged slot pool.  The calendar that orders them by a
// 128-bit (time, seq) key has three parts, each of which yields its
// entries in key order on its own:
//   * the immediate lane: a FIFO of events scheduled exactly at now();
//   * the timing wheel: 4096 buckets of a quarter cycle each, holding
//     every event (keyed or not, integral time or not) less than
//     kWheelSpan = 1024 cycles ahead, each bucket a list kept in key
//     order (O(1) append or prepend, else a walk of at most kWheelWalk
//     nodes);
//   * a 4-ary min-heap for far events and for the rare near one whose
//     in-bucket walk would be longer than kWheelWalk.
// pop_next takes the smallest key among the three fronts, so the merged
// order is exactly the heap-only order.  cancel() bumps the slot's
// generation in O(1) and leaves a stale entry behind, which dispatch
// skips lazily and a compaction pass reclaims whenever stale entries
// outnumber live ones.  Callbacks are EventAction tagged unions, so the
// coroutine-resume paths (resume_soon / delay / mailbox wake-ups) never
// touch the heap allocator.
#pragma once

#include <array>
#include <coroutine>
#include <cstddef>
#include <cstdint>
#include <functional>
#include <memory>
#include <string_view>
#include <vector>

#include "common/error.hpp"
#include "common/units.hpp"
#include "des/audit.hpp"
#include "des/event_action.hpp"
#include "des/trace.hpp"

// Observability layer (src/obs/): forward-declared so the kernel header
// stays include-light; simulation.cpp pulls in the real definitions.
namespace pimsim::obs {
class KernelProfiler;
class MetricsRegistry;
}  // namespace pimsim::obs

namespace pimsim::des {

class Process;

/// Identifies a scheduled event so it can be cancelled before dispatch.
/// Encodes (slot generation << 32 | slot index); stale ids never match.
using EventId = std::uint64_t;
/// Sentinel returned when no cancellable handle is needed.
inline constexpr EventId kInvalidEvent = 0;

/// Intrusive live-registry hook embedded in every spawned process's
/// promise: the kernel's live list holds hook pointers and each hook
/// remembers its own list position, so register/unregister are O(1)
/// swap-and-pop with no address-to-position map.
struct ProcessHook {
  void* frame = nullptr;     // coroutine frame address, for teardown
  std::size_t live_pos = 0;  // index in the live list while registered
};

class Simulation {
 public:
  Simulation();
  ~Simulation();

  Simulation(const Simulation&) = delete;
  Simulation& operator=(const Simulation&) = delete;

  /// Current simulation time in HWP cycles.
  [[nodiscard]] SimTime now() const { return now_; }

  /// Schedules `fn` to run at absolute time `at` (>= now).
  template <typename F>
  EventId schedule_at(SimTime at, F&& fn) {
    if constexpr (requires { static_cast<bool>(fn); }) {
      ensure(static_cast<bool>(fn), "Simulation::schedule_at: empty callback");
    }
    return schedule_action(at, EventAction::wrap(std::forward<F>(fn)));
  }
  /// Schedules `fn` to run after `delay` cycles.
  template <typename F>
  EventId schedule_in(Cycles delay, F&& fn) {
    ensure(delay >= 0.0, "Simulation::schedule_in: negative delay");
    return schedule_at(now_ + delay, std::forward<F>(fn));
  }
  /// Schedules `fn` to run at the current time, after pending same-time events.
  template <typename F>
  EventId schedule_now(F&& fn) {
    return schedule_at(now_, std::forward<F>(fn));
  }

  /// Cancels a pending event; returns false if already dispatched/unknown.
  /// O(1): the slot is reclaimed immediately, the calendar entry decays.
  bool cancel(EventId id);

  /// Runs until the event calendar is empty.
  void run();
  /// Runs all events with time <= horizon, then advances now() to horizon.
  void run_until(SimTime horizon);
  /// Dispatches a single event; returns false if the calendar is empty.
  bool step();

  /// Number of events dispatched so far (diagnostic).
  [[nodiscard]] std::uint64_t events_dispatched() const { return dispatched_; }
  /// Number of live (schedulable, not cancelled) events currently pending.
  [[nodiscard]] std::size_t events_pending() const { return live_events_; }
  /// Calendar entries (immediate lane + wheel + heap), including stale
  /// ones awaiting lazy removal.  Bounded at < 2x events_pending() +
  /// compaction floor (leak diagnostic).
  [[nodiscard]] std::size_t calendar_entries() const {
    return heap_.size() + wheel_size_ + (now_queue_.size() - now_head_);
  }
  /// Stale (cancelled) calendar entries not yet compacted away.
  [[nodiscard]] std::size_t stale_calendar_entries() const { return stale_; }

  /// Starts a coroutine process; the simulation owns its frame.
  /// The process body begins executing at the current simulation time
  /// (via an immediate event), not synchronously inside spawn().
  void spawn(Process process);

  /// Number of live (spawned, unfinished) processes.
  [[nodiscard]] std::size_t live_processes() const {
    return live_order_.size();
  }

  /// Installs (or removes, with nullptr) a tracer.  Not owned; externally
  /// installed tracers are not absorbed into obs::TraceHub at destruction
  /// (use set_trace() for that).
  void set_tracer(Tracer* tracer) {
    tracer_ = tracer;
    if (tracer_ != nullptr) {
      lbl_event_ = tracer_->intern("event");
      lbl_process_ = tracer_->intern("process");
    }
  }
  [[nodiscard]] Tracer* tracer() const { return tracer_; }
  /// Fast guard for hot paths that would otherwise pay argument setup
  /// (label interning, payload computation) before trace() can bail out.
  [[nodiscard]] bool tracing_enabled() const { return tracer_ != nullptr; }
  /// Emits a POD trace record if tracing is enabled.  Inline so the
  /// tracer-disabled case costs one predicted branch on the hot paths.
  /// `label` is an interned id (see trace_label); `a`/`b` are
  /// kind-specific payload words — no strings, no allocation.
  void trace(TraceKind kind, LabelId label, std::uint64_t a = 0,
             std::uint64_t b = 0) const {
    if (tracer_) tracer_->record(TraceRecord{now_, a, b, label, kind});
  }
  /// Interns `name` into the active tracer's label table (0 when tracing
  /// is off).  Call sites cache the returned id (kLabelUninterned as the
  /// not-yet sentinel) so the hot path never touches strings.
  [[nodiscard]] LabelId trace_label(std::string_view name) const {
    return tracer_ != nullptr ? tracer_->intern(name) : LabelId{0};
  }

  // --- determinism audit mode (see des/audit.hpp) ------------------------
  //
  // When enabled, every dispatch folds its (time, seq, action-kind) tuple
  // into an FNV-1a hash chain, and O(1)-amortized invariant sweeps cover
  // the calendar order (heap order, wheel bucket placement and key
  // order), the slot-pool generations/free list, and any
  // component self-checks keyed off audit_enabled() (the packet network
  // audits its credit ledgers).  When off, the cost is one predicted
  // branch per dispatch — the tracing_enabled() pattern, held to the
  // bench_engine floors.  The active obs::Session's RunOptions (else the
  // PIMSIM_AUDIT=1 environment variable) turns it on at construction,
  // which is how `pimsim run/verify ... audit=1` reaches simulations
  // buried inside figure generators.

  /// Enables/disables audit mode.  Disabling discards the chain without
  /// reporting it to the AuditRegistry.
  void set_audit(bool enabled);
  /// Fast guard, mirroring tracing_enabled(): components gate their own
  /// audit-mode invariant checks behind this.
  [[nodiscard]] bool audit_enabled() const { return audit_ != nullptr; }
  /// The event-chain log, or nullptr when audit mode is off.
  [[nodiscard]] const AuditLog* audit_log() const { return audit_.get(); }
  /// Runs the kernel invariant sweep immediately (throws LogicError on a
  /// violated invariant).  Audit mode runs this automatically on an
  /// O(1)-amortized cadence; tests call it directly.
  void audit_check_now() const;
  /// Test-only: deliberately breaks the calendar-order invariant so tests
  /// can prove the audit sweep catches corruption.  Swaps the keys of the
  /// first and last wheel entries when the wheel holds >= 2 (the head and
  /// tail of one bucket when only one is occupied), else of the heap's
  /// root and last entry (which then needs >= 2 heap entries).
  void corrupt_calendar_for_test();

  // --- observability (src/obs/, docs/OBSERVABILITY.md) -------------------
  //
  // Three independently switchable layers behind the same null-check
  // contract as audit mode (one predicted branch per hot-path action when
  // off): a simulation-owned Tracer feeding the Chrome-trace exporter
  // (`trace=out.json`), a metrics registry components bind typed handles
  // into (`metrics=out.json`), and a kernel self-profiler attributing
  // dispatches to EventAction kinds (`profile=1`).  The constructor
  // applies obs::current_run_options() — the active obs::Session's, else
  // PIMSIM_TRACE / PIMSIM_METRICS / PIMSIM_PROFILE (obs/session.hpp).  At
  // destruction each enabled layer is absorbed into its process-wide hub
  // (obs::TraceHub, obs::MetricsHub, obs::ProfileHub), which the session
  // reports — how the CLI reaches simulations buried inside figure
  // generators, exactly like the audit layer above.

  /// Enables/disables the owned tracer (absorbed into obs::TraceHub at
  /// destruction, unlike an external set_tracer() sink).
  void set_trace(bool enabled);
  /// Enables/disables the metrics registry.  Components grab their
  /// handles at construction time, so enable before building the model.
  void set_metrics(bool enabled);
  /// Fast guard, mirroring tracing_enabled(): components gate metric
  /// recording and registration behind this.
  [[nodiscard]] bool metrics_enabled() const { return metrics_ != nullptr; }
  /// The metrics registry; requires metrics_enabled().
  [[nodiscard]] obs::MetricsRegistry& metrics();
  /// Enables/disables the kernel self-profiler.
  void set_profile(bool enabled);
  [[nodiscard]] bool profile_enabled() const { return profiler_ != nullptr; }
  /// The profiler, or nullptr when off.
  [[nodiscard]] const obs::KernelProfiler* profiler() const {
    return profiler_.get();
  }

  // --- hooks for deterministic deferred-event components -----------------
  //
  // The packet network (interconnect/network.cpp) avoids scheduling one
  // calendar event per flit arrival by keeping arrivals in its own
  // per-link rings.  To preserve the dispatch order an eager event would
  // have had, it allocates the event's sequence number at the moment the
  // old design would have scheduled it (allocate_seq) and, if a real
  // wake-up later turns out to be needed, schedules it *at that key*
  // (schedule_at_seq) — same-time events then dispatch in exactly the
  // order of their allocation points.

  /// Consumes one scheduling sequence number without scheduling anything.
  std::uint64_t allocate_seq() { return next_seq_++; }

  /// Sequence of the event currently being dispatched (0 outside
  /// dispatch).  A side effect performed synchronously inside an event
  /// holds this position in the global FIFO order.
  [[nodiscard]] std::uint64_t current_dispatch_seq() const {
    return current_seq_;
  }

  /// Schedules a static-call event under a key from allocate_seq().
  /// `at` must be strictly in the future (a key older than already
  /// dispatched same-time events cannot be honoured).
  EventId schedule_static_at_seq(SimTime at, std::uint64_t seq,
                                 EventAction::StaticFn fn, void* ctx,
                                 std::uint64_t a, std::uint64_t b) {
    ensure(at > now_, "Simulation::schedule_static_at_seq: must be future");
    return schedule_action_seq(at, seq, EventAction::call(fn, ctx, a, b));
  }

  /// Schedules a static-call event (the allocation-free fast path for
  /// homogeneous high-volume events; see EventAction::call).
  EventId schedule_static_at(SimTime at, EventAction::StaticFn fn, void* ctx,
                             std::uint64_t a, std::uint64_t b) {
    return schedule_action(at, EventAction::call(fn, ctx, a, b));
  }

  // --- internal hooks used by the process layer (see process.hpp) ---

  /// Schedules resumption of a suspended coroutine at absolute time `at`.
  /// Allocation-free: the calendar stores the raw handle.
  EventId resume_at(SimTime at, std::coroutine_handle<> h) {
    return schedule_action(at, EventAction::resume(h));
  }
  /// Schedules resumption after `delay` cycles (the delay() fast path).
  EventId resume_in(Cycles delay, std::coroutine_handle<> h) {
    ensure(delay >= 0.0, "Simulation::resume_in: negative delay");
    return schedule_action(now_ + delay, EventAction::resume(h));
  }
  /// Schedules resumption at now(), after pending same-time events.
  void resume_soon(std::coroutine_handle<> h) {
    (void)schedule_action(now_, EventAction::resume(h));
  }
  /// Registers/unregisters live process frames for cleanup; `hook.frame`
  /// must hold the frame address.
  void register_process(ProcessHook& hook);
  void unregister_process(ProcessHook& hook);
  /// Records an exception escaping a process body; rethrown by run()/step().
  void set_pending_exception(std::exception_ptr ep);

 private:
  static constexpr std::uint32_t kNoSlot = 0xffffffffu;
  /// Compaction is skipped below this calendar size: a bounded number of
  /// stale entries is cheaper to skip at dispatch than to rebuild away.
  static constexpr std::size_t kCompactFloor = 64;
  /// Initial capacity of the slot pool, calendar and registry vectors.
  static constexpr std::size_t kInitialCapacity = 64;

  struct Slot {
    EventAction action;
    std::uint32_t generation = 1;  // bumped on dispatch/cancel; never 0
    std::uint32_t next_free = kNoSlot;
  };

  /// Calendar entry ordered by a single 128-bit (time, seq) key: event
  /// times are non-negative, so the IEEE bit pattern of `time` compares
  /// like the double itself, and one wide integer compare replaces the
  /// two-branch (time, seq) comparison on the heap's hottest path.
  struct HeapEntry {
    unsigned __int128 key;  // (bit_cast<u64>(time) << 64) | seq
    std::uint32_t slot;
    std::uint32_t gen;  // stale once != slots_[slot].generation

    [[nodiscard]] SimTime time() const {
      const auto bits = static_cast<std::uint64_t>(key >> 64);
      SimTime t;
      __builtin_memcpy(&t, &bits, sizeof(t));
      return t;
    }
    [[nodiscard]] std::uint64_t seq() const {
      return static_cast<std::uint64_t>(key);
    }
  };

  static unsigned __int128 heap_key(SimTime time, std::uint64_t seq) {
    std::uint64_t bits;
    __builtin_memcpy(&bits, &time, sizeof(bits));
    return (static_cast<unsigned __int128>(bits) << 64) | seq;
  }

  /// An event scheduled exactly at now(): lives in the immediate lane, a
  /// FIFO ring that never pays a heap sift.  Always at time now_, ordered
  /// by seq by construction.
  struct NowEntry {
    std::uint64_t seq;
    std::uint32_t slot;
    std::uint32_t gen;
  };

  static bool before(const HeapEntry& a, const HeapEntry& b) {
    return a.key < b.key;
  }

  // The scheduling fast path is defined inline (below the class) so the
  // resume_* hooks and template schedule_* compile down to a freelist pop,
  // a tag store, and one queue push at every call site.
  EventId schedule_action(SimTime at, EventAction action);
  EventId schedule_action_seq(SimTime at, std::uint64_t seq,
                              EventAction action);
  std::uint32_t acquire_slot();
  void release_slot(std::uint32_t index);
  void advance_to(SimTime t);
  bool pop_next(HeapEntry& out, bool bounded, SimTime horizon);
  void dispatch(const HeapEntry& entry);
  void dispatch_profiled(EventAction& action);
  void rethrow_pending();

  // D-ary implicit min-heap over heap_ (children of i: D*i+1 .. D*i+D).
  static constexpr std::size_t kHeapArity = 4;
  void heap_push(const HeapEntry& entry);
  void heap_pop_top();
  void sift_up(std::size_t i);
  void sift_down(std::size_t i);
  void compact_calendar();
  void audit_wheel() const;

  // Timing wheel: kWheelBuckets buckets of 1/kWheelTicksPerCycle cycle
  // covering [now_tick_, now_tick_ + kWheelBuckets) in quarter-cycle
  // ticks, i.e. kWheelSpan cycles from the start of now()'s quarter.  An
  // event goes here iff it is strictly in the future and below
  // wheel_limit_, keyed or not, so the wheel's entries occupy fewer than
  // kWheelBuckets distinct ticks and a cyclic bucket scan from now_tick_
  // is time order.  Each bucket is a list in strict key order; an insert
  // that would walk more than kWheelWalk nodes takes the heap instead.
  static constexpr std::uint64_t kWheelTicksPerCycle = 4;
  static constexpr std::uint64_t kWheelBuckets = 4096;
  static constexpr std::uint64_t kWheelSpan = kWheelBuckets / kWheelTicksPerCycle;
  static constexpr std::uint64_t kWheelMask = kWheelBuckets - 1;
  static constexpr std::size_t kWheelWords = kWheelBuckets / 64;
  static_assert(kWheelWords <= 64, "one summary word indexes the bitmap");
  static constexpr std::size_t kWheelWalk = 8;
  /// Past this time the wheel window stops advancing (ticks t * 4 near
  /// 2^53 would no longer convert exactly); events beyond the frozen
  /// window then take the heap, which is always correct.
  static constexpr SimTime kWheelTimeCap = 0x1p50;

  /// Quarter-cycle tick of a time below kWheelTimeCap + kWheelSpan: the
  /// product by a power of two is exact, so is the truncation.
  static std::int64_t wheel_tick(SimTime t) {
    return static_cast<std::int64_t>(t * static_cast<SimTime>(kWheelTicksPerCycle));
  }

  /// Wheel entry: pooled, chained into its bucket's key-ordered list (or
  /// the node free list) through `next`.
  struct WheelNode {
    unsigned __int128 key;
    std::uint32_t slot;
    std::uint32_t gen;
    std::uint32_t next;
  };
  struct WheelBucket {
    std::uint32_t head;  // valid only while the bucket's bit is set
    std::uint32_t tail;
  };

  void calendar_push(SimTime at, std::uint64_t seq, std::uint32_t slot,
                     std::uint32_t gen);
  void wheel_push(SimTime at, std::uint64_t seq, std::uint32_t slot,
                  std::uint32_t gen);
  void wheel_insert(std::size_t bucket, unsigned __int128 key,
                    std::uint32_t slot, std::uint32_t gen);
  std::uint32_t wheel_new_node(unsigned __int128 key, std::uint32_t slot,
                               std::uint32_t gen, std::uint32_t next);
  [[nodiscard]] std::size_t wheel_front_bucket() const;
  void wheel_pop_front(std::size_t bucket);
  void wheel_clear_bit(std::size_t bucket);
  void wheel_free_node(std::uint32_t node);

  SimTime now_ = 0.0;
  std::uint64_t next_seq_ = 1;
  std::uint64_t current_seq_ = 0;
  std::uint64_t dispatched_ = 0;
  std::size_t live_events_ = 0;
  std::size_t stale_ = 0;
  std::vector<HeapEntry> heap_;
  // Timing wheel state.  Buckets are allocated on first use and never
  // initialized: the bitmap says which heads/tails are meaningful.
  std::size_t wheel_size_ = 0;  // entries, including stale ones
  // wheel_tick(now_): bucket scans start here.  Wheel ticks stay below
  // 2^53, so they use signed conversions, one instruction each on x86-64
  // (unsigned ones branch).
  std::int64_t now_tick_ = 0;
  SimTime wheel_limit_ = static_cast<SimTime>(kWheelSpan);
  std::uint64_t wheel_summary_ = 0;  // bit w set iff wheel_bits_[w] != 0
  std::array<std::uint64_t, kWheelWords> wheel_bits_{};
  std::unique_ptr<WheelBucket[]> wheel_buckets_;
  std::vector<WheelNode> wheel_nodes_;
  std::uint32_t wheel_free_ = kNoSlot;
  // Immediate lane: [now_head_, now_queue_.size()) are pending; the
  // consumed prefix is recycled whenever the lane drains.
  std::vector<NowEntry> now_queue_;
  std::size_t now_head_ = 0;
  std::vector<Slot> slots_;
  std::uint32_t free_head_ = kNoSlot;
  // Live process frames in deterministic (insertion/swap) order: the
  // destructor tears frames down in this order, so shutdown side effects
  // cannot depend on pointer values.  Each hook stores its own position.
  std::vector<ProcessHook*> live_order_;
  std::exception_ptr pending_exception_;
  Tracer* tracer_ = nullptr;
  // Cached interned ids for the kernel's own trace labels (set by
  // set_tracer so the scheduling fast path stays string-free).
  LabelId lbl_event_ = 0;
  LabelId lbl_process_ = 0;
  // Observability layers: null when off, so every hot path pays exactly
  // one predicted branch (the audit-mode contract).
  std::unique_ptr<Tracer> owned_tracer_;
  std::unique_ptr<obs::MetricsRegistry> metrics_;
  std::unique_ptr<obs::KernelProfiler> profiler_;
  bool destroying_ = false;
  // Audit mode: null when off, so the dispatch hot path pays one branch.
  std::unique_ptr<AuditLog> audit_;
  /// Dispatches until the next invariant sweep (amortizes the O(slots +
  /// calendar) sweep to O(1) per event).
  std::uint64_t audit_countdown_ = 0;
  static constexpr std::uint64_t kAuditCheckFloor = 64;
};

// --- inline scheduling fast path ----------------------------------------

inline std::uint32_t Simulation::acquire_slot() {
  if (free_head_ != kNoSlot) {
    const std::uint32_t index = free_head_;
    free_head_ = slots_[index].next_free;
    return index;
  }
  ensure(slots_.size() < kNoSlot, "Simulation: event slot pool exhausted");
  slots_.emplace_back();
  return static_cast<std::uint32_t>(slots_.size() - 1);
}

inline void Simulation::sift_up(std::size_t i) {
  const HeapEntry entry = heap_[i];
  while (i > 0) {
    const std::size_t parent = (i - 1) / kHeapArity;
    if (!before(entry, heap_[parent])) break;
    heap_[i] = heap_[parent];
    i = parent;
  }
  heap_[i] = entry;
}

inline void Simulation::heap_push(const HeapEntry& entry) {
  heap_.push_back(entry);
  sift_up(heap_.size() - 1);
}

inline std::uint32_t Simulation::wheel_new_node(unsigned __int128 key,
                                                std::uint32_t slot,
                                                std::uint32_t gen,
                                                std::uint32_t next) {
  std::uint32_t node = wheel_free_;
  if (node != kNoSlot) {
    wheel_free_ = wheel_nodes_[node].next;
    wheel_nodes_[node] = WheelNode{key, slot, gen, next};
  } else {
    ensure(wheel_nodes_.size() < kNoSlot, "Simulation: wheel pool exhausted");
    node = static_cast<std::uint32_t>(wheel_nodes_.size());
    wheel_nodes_.push_back(WheelNode{key, slot, gen, next});
  }
  return node;
}

inline void Simulation::wheel_push(SimTime at, std::uint64_t seq,
                                    std::uint32_t slot, std::uint32_t gen) {
  if (!wheel_buckets_) {
    wheel_buckets_ = std::make_unique_for_overwrite<WheelBucket[]>(kWheelBuckets);
    wheel_nodes_.reserve(kInitialCapacity);
  }
  const unsigned __int128 key = heap_key(at, seq);
  const auto b = static_cast<std::size_t>(wheel_tick(at)) & kWheelMask;
  WheelBucket& bucket = wheel_buckets_[b];
  std::uint64_t& word = wheel_bits_[b / 64];
  const std::uint64_t bit = std::uint64_t{1} << (b % 64);
  if ((word & bit) == 0) {
    const std::uint32_t node = wheel_new_node(key, slot, gen, kNoSlot);
    bucket.head = node;
    bucket.tail = node;
    word |= bit;
    wheel_summary_ |= std::uint64_t{1} << (b / 64);
  } else if (!(key < wheel_nodes_[bucket.tail].key)) {
    // The common case: a key after everything in the bucket (non-keyed
    // seqs are handed out in push order).
    const std::uint32_t node = wheel_new_node(key, slot, gen, kNoSlot);
    wheel_nodes_[bucket.tail].next = node;
    bucket.tail = node;
  } else {
    wheel_insert(b, key, slot, gen);
    return;
  }
  ++wheel_size_;
}

inline void Simulation::calendar_push(SimTime at, std::uint64_t seq,
                                       std::uint32_t slot, std::uint32_t gen) {
  // Near (now_ < at < wheel_limit_ <= 2^50 + kWheelSpan, so wheel_tick is
  // exact): the wheel's key-ordered bucket, no sift.  Far: the heap.
  if (at < wheel_limit_) {
    wheel_push(at, seq, slot, gen);
  } else {
    heap_push(HeapEntry{heap_key(at, seq), slot, gen});
  }
}

inline EventId Simulation::schedule_action(SimTime at, EventAction action) {
  ensure(at >= now_, "Simulation::schedule_at: cannot schedule in the past");
  const std::uint32_t index = acquire_slot();
  Slot& slot = slots_[index];
  slot.action = std::move(action);
  const std::uint64_t seq = next_seq_++;
  if (at == now_) {
    // Immediate lane: same-time events (resume_soon, mailbox wake-ups,
    // spawns) skip the heap entirely; FIFO order == seq order.
    now_queue_.push_back(NowEntry{seq, index, slot.generation});
  } else {
    calendar_push(at, seq, index, slot.generation);
  }
  ++live_events_;
  const EventId id = (static_cast<EventId>(slot.generation) << 32) |
                     static_cast<EventId>(index);
  if (tracer_) trace(TraceKind::kEventScheduled, lbl_event_, id);
  return id;
}

inline des::EventId Simulation::schedule_action_seq(SimTime at,
                                                    std::uint64_t seq,
                                                    EventAction action) {
  // A keyed event is always strictly in the future (callers ensure it),
  // so it never joins the lane, whose FIFO assumes push order == seq
  // order.  The wheel's buckets are key-ordered, so it may go there.
  const std::uint32_t index = acquire_slot();
  Slot& slot = slots_[index];
  slot.action = std::move(action);
  calendar_push(at, seq, index, slot.generation);
  ++live_events_;
  const EventId id = (static_cast<EventId>(slot.generation) << 32) |
                     static_cast<EventId>(index);
  if (tracer_) trace(TraceKind::kEventScheduled, lbl_event_, id);
  return id;
}

}  // namespace pimsim::des
