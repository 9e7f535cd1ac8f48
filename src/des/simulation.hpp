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
// Internals (see src/des/README.md, "The calendar"): every pending event
// is a CalendarNode carrying its 128-bit (time, seq) key.  A process
// wake's node lives in the process itself (ProcessHook::node, inside
// the coroutine promise: a suspended process has at most one pending
// wake); every other event is one pooled EventRecord holding its node
// and its EventAction at a stable address.  The calendar that orders the
// nodes has three parts, each of which yields its entries in key order
// on its own:
//   * the immediate lane: an intrusive FIFO of events scheduled exactly
//     at now();
//   * the timing wheel: 4096 buckets of a quarter cycle each, holding
//     every event (keyed or not, integral time or not) less than
//     kWheelSpan = 1024 cycles ahead, each bucket an intrusive list kept
//     in key order (O(1) append or prepend, else a walk of at most
//     kWheelWalk nodes);
//   * a 4-ary min-heap of (key, node) entries for far events and for the
//     rare near one whose in-bucket walk would be longer than kWheelWalk.
// pop_next takes the smallest key among the three fronts, so the merged
// order is exactly the heap-only order.  Every scheduled event
// dispatches exactly once and nothing removes it before then, so every
// node in the calendar is live.  Dispatch copies a pooled event's call
// to the stack and frees its record before invoking it.  Nothing on the
// wake path (spawn, delay, mailbox and resource wake-ups) touches the
// allocator or the record pool.
#pragma once

#include <array>
#include <cstddef>
#include <cstdint>
#include <memory>
#include <string_view>
#include <type_traits>
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

/// A calendar entry: the key that orders it and the link that chains it
/// into the immediate lane or a wheel bucket.  Nodes never move while
/// linked, so the calendar's structures hold plain pointers to them.
struct CalendarNode {
  enum class State : std::uint8_t {
    kIdle,    // in no structure
    kLinked,  // pending
  };
  unsigned __int128 key = 0;  // (bit_cast<u64>(time) << 64) | seq
  CalendarNode* next = nullptr;
  State state = State::kIdle;
  bool process = false;  // a ProcessHook's wake node, else an EventRecord's

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

/// Kernel state embedded in every spawned process's promise: the wake
/// node (the process's one pending resume, linked by resume_at /
/// resume_in / resume_soon), the frame to resume, and the live-registry
/// position (the live list holds hook pointers, so register/unregister
/// are O(1) swap-and-pop with no address-to-position map).
struct ProcessHook {
  CalendarNode node{.process = true};  // first: a node pointer is the hook's
  void* frame = nullptr;     // coroutine frame address, resumed on wake
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

  /// Runs until the event calendar is empty.
  void run();
  /// Runs all events with time <= horizon, then advances now() to horizon.
  void run_until(SimTime horizon);
  /// Dispatches a single event; returns false if the calendar is empty.
  bool step();

  /// Number of events dispatched so far (diagnostic).
  [[nodiscard]] std::uint64_t events_dispatched() const { return dispatched_; }
  /// Number of events currently pending: pooled events plus process
  /// wakes.
  [[nodiscard]] std::size_t events_pending() const {
    return live_records_ + live_wakes_;
  }
  /// Calendar entries (immediate lane + wheel + heap); always equal to
  /// events_pending() (leak diagnostic).
  [[nodiscard]] std::size_t calendar_entries() const {
    return heap_.size() + wheel_size_ + lane_size_;
  }

  /// Starts a coroutine process; the simulation owns its frame.
  /// The process body begins executing at the current simulation time
  /// (via an immediate wake), not synchronously inside spawn().
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
    trace_at(now_, kind, label, a, b);
  }
  /// trace() stamped with time `t` instead of now(): for a component that
  /// runs ahead of the kernel on a clock of its own (a memory stream
  /// group) and records what happened at that clock's time.
  void trace_at(SimTime t, TraceKind kind, LabelId label, std::uint64_t a = 0,
                std::uint64_t b = 0) const {
    if (tracer_) tracer_->record(TraceRecord{t, a, b, label, kind});
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
  // the calendar order (heap order, lane order, wheel bucket placement
  // and key order), the exact node and record-pool accounting, and any
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
  // dispatches to their kind, process wake or static call (`profile=1`).
  // The constructor applies obs::current_run_options() — the active
  // obs::Session's, else PIMSIM_TRACE / PIMSIM_METRICS / PIMSIM_PROFILE
  // (obs/session.hpp).  At destruction each enabled layer is absorbed
  // into its process-wide hub (obs::TraceHub, obs::MetricsHub,
  // obs::ProfileHub), which the session reports — how the CLI reaches
  // simulations buried inside figure generators, exactly like the audit
  // layer above.

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

  /// Schedules the static call `fn(ctx, a, b)` at absolute time `at`
  /// (>= now).  Every pooled event takes this path: a component keeps
  /// its per-event state itself and passes an index or pointer in
  /// `a`/`b`.  Allocation-free once the record pool is warm.
  void schedule_static_at(SimTime at, EventAction::StaticFn fn, void* ctx,
                          std::uint64_t a, std::uint64_t b) {
    ensure(fn != nullptr, "Simulation::schedule_static_at: null callback");
    schedule_action(at, EventAction{fn, ctx, a, b});
  }

  /// Schedules a static call under a key from allocate_seq().  `at` must
  /// be strictly in the future (a key older than already dispatched
  /// same-time events cannot be honoured).
  void schedule_static_at_seq(SimTime at, std::uint64_t seq,
                              EventAction::StaticFn fn, void* ctx,
                              std::uint64_t a, std::uint64_t b) {
    ensure(fn != nullptr, "Simulation::schedule_static_at_seq: null callback");
    ensure(at > now_, "Simulation::schedule_static_at_seq: must be future");
    schedule_action_seq(at, seq, EventAction{fn, ctx, a, b});
  }

  // --- internal hooks used by the process layer (see process.hpp) ---
  //
  // A wake links the process's own ProcessHook::node: no record and no
  // EventAction.  A suspended process has at most one
  // pending wake; scheduling a second throws LogicError.

  /// Wakes the suspended process at absolute time `at` (>= now).
  void resume_at(SimTime at, ProcessHook& hook) {
    ensure(at >= now_, "Simulation::resume_at: cannot schedule in the past");
    link_wake(at, hook.node);
  }
  /// Wakes the suspended process after `delay` cycles (the delay() path).
  void resume_in(Cycles delay, ProcessHook& hook) {
    ensure(delay >= 0.0, "Simulation::resume_in: negative delay");
    link_wake(now_ + delay, hook.node);
  }
  /// Wakes the suspended process at now(), after pending same-time events.
  void resume_soon(ProcessHook& hook) { link_wake(now_, hook.node); }
  /// Registers/unregisters live process frames for cleanup; `hook.frame`
  /// must hold the frame address.
  void register_process(ProcessHook& hook);
  void unregister_process(ProcessHook& hook);
  /// Records an exception escaping a process body; rethrown by run()/step().
  void set_pending_exception(std::exception_ptr ep);

 private:
  using State = CalendarNode::State;

  /// Initial capacity of the heap and registry vectors.
  static constexpr std::size_t kInitialCapacity = 64;

  /// A pooled (non-wake) event: its node and its static call.  Free
  /// records chain through node.next.  Trivially destructible: the pool
  /// frees chunks without visiting records.
  struct EventRecord {
    CalendarNode node;  // first: a node pointer is the record's address
    EventAction action{};
  };
  static_assert(std::is_standard_layout_v<EventRecord>, "record_of casts");
  static_assert(std::is_trivially_destructible_v<EventRecord>);
  static_assert(sizeof(EventRecord) == 64, "a node and a call, one cache line");

  /// EventRecords at stable addresses: chunk k holds kFirstChunk << k
  /// records, constructed on first use (so a short run touches only the
  /// first, small chunk) and recycled LIFO through a free list.
  class RecordPool {
   public:
    static constexpr std::uint32_t kFirstChunk = 64;
    /// 64 * (2^26 - 1) records: the most whose count fits 32 bits.
    static constexpr std::size_t kMaxChunks = 26;

    RecordPool() = default;
    RecordPool(const RecordPool&) = delete;
    RecordPool& operator=(const RecordPool&) = delete;
    ~RecordPool();

    EventRecord& acquire() {
      if (free_ != nullptr) {
        EventRecord& r = *free_;
        free_ = record_of(r.node.next);
        return r;
      }
      if (bump_ != end_) return construct();
      return grow();
    }
    void release(EventRecord& r) {
      r.node.next = free_ != nullptr ? &free_->node : nullptr;
      free_ = &r;
    }
    /// Records constructed so far (free or live).
    [[nodiscard]] std::uint32_t size() const { return size_; }
    [[nodiscard]] const EventRecord* free_head() const { return free_; }

   private:
    EventRecord& construct() {
      ++size_;
      return *::new (static_cast<void*>(bump_++)) EventRecord;
    }
    EventRecord& grow();
    static std::uint32_t chunk_size(std::size_t k) { return kFirstChunk << k; }

    EventRecord* free_ = nullptr;
    EventRecord* bump_ = nullptr;  // next unconstructed record of the last chunk
    EventRecord* end_ = nullptr;
    std::uint32_t size_ = 0;
    std::vector<EventRecord*> chunks_;
  };

  static EventRecord* record_of(CalendarNode* node) {
    return reinterpret_cast<EventRecord*>(node);
  }
  static ProcessHook& hook_of(CalendarNode& node) {
    return *reinterpret_cast<ProcessHook*>(&node);
  }

  /// Far-event entry: the node's key is copied in so a sift compares
  /// contiguous keys with one branchless 128-bit compare each, never
  /// dereferencing a node.
  struct HeapEntry {
    unsigned __int128 key;
    CalendarNode* node;
  };

  static unsigned __int128 heap_key(SimTime time, std::uint64_t seq) {
    std::uint64_t bits;
    __builtin_memcpy(&bits, &time, sizeof(bits));
    return (static_cast<unsigned __int128>(bits) << 64) | seq;
  }

  static bool before(const HeapEntry& a, const HeapEntry& b) {
    return a.key < b.key;
  }

  // The scheduling fast path is defined inline (below the class) so the
  // resume_* hooks and schedule_static_* compile down to a few stores
  // and one list or bucket link at every call site.
  void schedule_action(SimTime at, const EventAction& action);
  void schedule_action_seq(SimTime at, std::uint64_t seq,
                           const EventAction& action);
  void link_wake(SimTime at, CalendarNode& node);
  void advance_to(SimTime t);
  CalendarNode* pop_next(bool bounded, SimTime horizon);
  void dispatch(CalendarNode& node);
  template <typename Invoke>
  void run_observed(std::uint8_t kind, Invoke&& invoke);
  void rethrow_pending();

  // Immediate lane: an intrusive FIFO through CalendarNode::next.
  void lane_push(CalendarNode& node);

  // D-ary implicit min-heap over heap_ (children of i: D*i+1 .. D*i+D).
  static constexpr std::size_t kHeapArity = 4;
  void heap_push(const HeapEntry& entry);
  void heap_pop_top();
  void sift_up(std::size_t i);
  void sift_down(std::size_t i);
  struct AuditTally;
  void audit_wheel(AuditTally& tally) const;

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

  struct WheelBucket {
    CalendarNode* head;  // valid only while the bucket's bit is set
    CalendarNode* tail;
  };

  void calendar_push(SimTime at, CalendarNode& node);
  void wheel_push(SimTime at, CalendarNode& node);
  void wheel_insert(std::size_t bucket, CalendarNode& node);
  [[nodiscard]] std::size_t wheel_front_bucket() const;
  void wheel_pop_front(std::size_t bucket);
  void wheel_clear_bit(std::size_t bucket);

  SimTime now_ = 0.0;
  std::uint64_t next_seq_ = 1;
  std::uint64_t current_seq_ = 0;
  std::uint64_t dispatched_ = 0;
  std::size_t live_records_ = 0;  // pending pooled events
  std::size_t live_wakes_ = 0;    // pending process wakes
  std::vector<HeapEntry> heap_;
  // Timing wheel state.  Buckets are allocated on first use and never
  // initialized: the bitmap says which heads/tails are meaningful.
  std::size_t wheel_size_ = 0;  // entries
  // wheel_tick(now_): bucket scans start here.  Wheel ticks stay below
  // 2^53, so they use signed conversions, one instruction each on x86-64
  // (unsigned ones branch).
  std::int64_t now_tick_ = 0;
  SimTime wheel_limit_ = static_cast<SimTime>(kWheelSpan);
  std::uint64_t wheel_summary_ = 0;  // bit w set iff wheel_bits_[w] != 0
  std::array<std::uint64_t, kWheelWords> wheel_bits_{};
  std::unique_ptr<WheelBucket[]> wheel_buckets_;
  // Immediate lane: every node is at time now_, in seq order.
  CalendarNode* lane_head_ = nullptr;
  CalendarNode* lane_tail_ = nullptr;
  std::size_t lane_size_ = 0;
  RecordPool pool_;
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
  /// Dispatches until the next invariant sweep (amortizes the O(pool +
  /// calendar) sweep to O(1) per event).
  std::uint64_t audit_countdown_ = 0;
  static constexpr std::uint64_t kAuditCheckFloor = 64;
};

// --- inline scheduling fast path ----------------------------------------

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

inline void Simulation::lane_push(CalendarNode& node) {
  node.next = nullptr;
  (lane_tail_ != nullptr ? lane_tail_->next : lane_head_) = &node;
  lane_tail_ = &node;
  ++lane_size_;
}

inline void Simulation::wheel_push(SimTime at, CalendarNode& node) {
  if (!wheel_buckets_) {
    wheel_buckets_ = std::make_unique_for_overwrite<WheelBucket[]>(kWheelBuckets);
  }
  const auto b = static_cast<std::size_t>(wheel_tick(at)) & kWheelMask;
  WheelBucket& bucket = wheel_buckets_[b];
  std::uint64_t& word = wheel_bits_[b / 64];
  const std::uint64_t bit = std::uint64_t{1} << (b % 64);
  if ((word & bit) == 0) {
    node.next = nullptr;
    bucket.head = &node;
    bucket.tail = &node;
    word |= bit;
    wheel_summary_ |= std::uint64_t{1} << (b / 64);
  } else if (!(node.key < bucket.tail->key)) {
    // The common case: a key after everything in the bucket (non-keyed
    // seqs are handed out in push order).
    node.next = nullptr;
    bucket.tail->next = &node;
    bucket.tail = &node;
  } else {
    wheel_insert(b, node);
    return;
  }
  ++wheel_size_;
}

inline void Simulation::calendar_push(SimTime at, CalendarNode& node) {
  // Same time: the lane, whose FIFO order is seq order.  Near (now_ < at
  // < wheel_limit_ <= 2^50 + kWheelSpan, so wheel_tick is exact): the
  // wheel's key-ordered bucket, no sift.  Far: the heap.
  if (at == now_) {
    lane_push(node);
  } else if (at < wheel_limit_) {
    wheel_push(at, node);
  } else {
    heap_push(HeapEntry{node.key, &node});
  }
}

inline void Simulation::link_wake(SimTime at, CalendarNode& node) {
  ensure(node.state == State::kIdle,
         "Simulation: process already has a pending wake (one wake per "
         "suspended process)");
  const std::uint64_t seq = next_seq_++;
  node.key = heap_key(at, seq);
  node.state = State::kLinked;
  calendar_push(at, node);
  ++live_wakes_;
  if (tracer_) trace(TraceKind::kEventScheduled, lbl_event_, 0, seq);
}

inline void Simulation::schedule_action(SimTime at, const EventAction& action) {
  ensure(at >= now_, "Simulation::schedule_static_at: cannot schedule in the past");
  EventRecord& record = pool_.acquire();
  record.action = action;
  const std::uint64_t seq = next_seq_++;
  record.node.key = heap_key(at, seq);
  record.node.state = State::kLinked;
  calendar_push(at, record.node);
  ++live_records_;
  if (tracer_) trace(TraceKind::kEventScheduled, lbl_event_, 0, seq);
}

inline void Simulation::schedule_action_seq(SimTime at, std::uint64_t seq,
                                            const EventAction& action) {
  // A keyed event is always strictly in the future (callers ensure it),
  // so it never joins the lane, whose FIFO assumes push order == seq
  // order.  The wheel's buckets are key-ordered, so it may go there.
  EventRecord& record = pool_.acquire();
  record.action = action;
  record.node.key = heap_key(at, seq);
  record.node.state = State::kLinked;
  calendar_push(at, record.node);
  ++live_records_;
  if (tracer_) trace(TraceKind::kEventScheduled, lbl_event_, 0, seq);
}

}  // namespace pimsim::des
