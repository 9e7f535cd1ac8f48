#include "memory/contention_memory.hpp"

#include <limits>
#include <string>

#include "common/error.hpp"
#include "obs/metrics.hpp"

namespace pimsim::mem {

namespace {
constexpr std::uint32_t kNone = std::numeric_limits<std::uint32_t>::max();

/// A stream group's private calendar, the group side of the engine's
/// scheduler seam: a binary min-heap of (time, seq) keys with its own
/// sequence counter, each entry a request's completion or its deferred
/// issue.  Keys pack as (time bits << 64 | seq) like the kernel's: times
/// are non-negative, so their bit patterns order as the doubles do.
class PrivateSchedule {
 public:
  /// Starts an empty schedule at `start` with a fresh counter.
  void reset(SimTime start) {
    now_ = start;
    next_seq_ = 1;
    heap_.clear();
  }
  [[nodiscard]] SimTime now() const { return now_; }
  std::uint64_t allocate_seq() { return next_seq_++; }

  /// Request `idx` completes at `at` under the key it took at issue.
  void schedule_at_seq(SimTime at, std::uint64_t seq, std::uint32_t idx) {
    push(at, seq, idx << 1);
  }
  /// Request `idx` issues at `at`, under a key taken now.
  void defer(SimTime at, std::uint32_t idx) {
    push(at, allocate_seq(), (idx << 1) | 1);
  }

  /// Pops the earliest entry, advancing now() to its time: request `idx`
  /// completes, or issues when `deferred`.  False when empty.
  bool pop(std::uint32_t& idx, bool& deferred) {
    if (heap_.empty()) return false;
    const auto bits = static_cast<std::uint64_t>(heap_.front().key >> 64);
    __builtin_memcpy(&now_, &bits, sizeof(now_));
    idx = heap_.front().payload >> 1;
    deferred = (heap_.front().payload & 1) != 0;
    const Entry last = heap_.back();
    heap_.pop_back();
    const std::size_t n = heap_.size();
    std::size_t i = 0;
    for (std::size_t child = 1; child < n; child = 2 * i + 1) {
      if (child + 1 < n && heap_[child + 1].key < heap_[child].key) ++child;
      if (!(heap_[child].key < last.key)) break;
      heap_[i] = heap_[child];
      i = child;
    }
    if (n > 0) heap_[i] = last;
    return true;
  }

 private:
  struct Entry {
    unsigned __int128 key;
    std::uint32_t payload;
  };

  void push(SimTime at, std::uint64_t seq, std::uint32_t payload) {
    std::uint64_t bits = 0;
    __builtin_memcpy(&bits, &at, sizeof(bits));
    const Entry entry{(static_cast<unsigned __int128>(bits) << 64) | seq,
                      payload};
    std::size_t i = heap_.size();
    heap_.push_back(entry);
    while (i > 0 && entry.key < heap_[(i - 1) / 2].key) {
      heap_[i] = heap_[(i - 1) / 2];
      i = (i - 1) / 2;
    }
    heap_[i] = entry;
  }

  std::vector<Entry> heap_;
  SimTime now_ = 0.0;
  std::uint64_t next_seq_ = 1;
};

}  // namespace

/// The bound per-run state: request slab + per-bank queues + port ring,
/// driven either by the kernel (access()) or by a stream group's private
/// schedule (run_stream()).  The hot paths are templated on that
/// scheduler seam, a `Clock` with now(), allocate_seq() and
/// schedule_at_seq(at, seq, request).
struct ContentionMemory::Engine {
  /// One in-flight request.  Lives in the slab; `next` links it into its
  /// bank's FIFO while queued, or into the free list while idle.
  struct Request {
    des::EventAction::StaticFn done = nullptr;
    void* ctx = nullptr;
    std::uint64_t a = 0;  ///< a stream group's request: its member index
    std::uint64_t b = 0;
    std::uint64_t seq = 0;  ///< calendar key, allocated at issue time
    std::uint64_t row = 0;
    std::uint32_t bank = 0;
    AccessKind kind = AccessKind::kLwpRow;
    std::uint32_t next = kNone;
  };

  struct Bank {
    std::uint32_t qhead = kNone;  ///< FIFO of queued (not in-service) reqs
    std::uint32_t qtail = kNone;
    std::uint32_t qlen = 0;
    bool busy = false;     ///< a request is in service at this bank
    bool parked = false;   ///< waiting in the port ring for a free port
    DramBank rows;         ///< open-row state, statistics only
    /// Completion time of an exclusive stream's last access here.
    SimTime reserved_until = 0.0;
    // Queue-occupancy conservation (audit mode): everything that entered
    // must be queued, in service, or completed.
    std::uint64_t enqueued = 0;
    std::uint64_t completed = 0;
  };

  /// A stream registered into the pending group.
  struct Member {
    AccessStream* stream = nullptr;
    SimTime* end = nullptr;
    des::EventAction::StaticFn done = nullptr;
    void* ctx = nullptr;
    std::uint32_t bank = 0;
  };

  /// The kernel side of the scheduler seam: access()'s requests complete
  /// as keyed static calls.
  struct KernelClock {
    Engine& e;
    [[nodiscard]] SimTime now() const { return e.sim.now(); }
    std::uint64_t allocate_seq() { return e.sim.allocate_seq(); }
    void schedule_at_seq(SimTime at, std::uint64_t seq, std::uint32_t idx) {
      e.sim.schedule_static_at_seq(at, seq, &on_complete, &e, idx, 0);
    }
  };

  des::Simulation& sim;
  const ContentionMemory& owner;
  const AccessMap map;
  std::vector<Bank> banks;
  std::vector<Request> slab;
  std::uint32_t free_head = kNone;
  // Arrival-ordered ring of banks waiting for a port (each bank parks at
  // most once, so capacity == banks suffices).
  std::vector<std::uint32_t> ring;
  std::size_t ring_head = 0;
  std::size_t ring_count = 0;
  std::size_t ports = 0;
  std::size_t in_service = 0;
  std::uint64_t total_accesses = 0;
  /// Metrics handle, bound at engine construction when metrics are
  /// enabled; null otherwise (one predicted branch per issue/complete).
  obs::Gauge* m_queued = nullptr;
  /// Lazily interned per-bank queue-depth counter labels (tracing only).
  std::vector<des::LabelId> bank_trace_labels;
  // Stream groups: the members registered at this instant (the group's
  // static call pending), the group's private schedule, and the end of
  // the last group's last stream (the memory is the group's until then).
  std::vector<Member> members;
  std::vector<Member> finishing;
  PrivateSchedule schedule;
  bool group_pending = false;
  SimTime owned_until = 0.0;

  Engine(des::Simulation& s, const ContentionMemory& m)
      : sim(s), owner(m), map(m.map_), ports(m.cfg_.resolved_ports()) {
    banks.resize(m.cfg_.resolved_banks());
    for (auto& b : banks) b.rows = DramBank(m.cfg_.spec);
    ring.resize(banks.size());
    slab.reserve(64);
    if (sim.metrics_enabled()) {
      m_queued = &sim.metrics().gauge("mem.queued_requests");
    }
  }

  des::LabelId bank_label(std::uint32_t bank_idx) {
    if (bank_trace_labels.empty()) {
      bank_trace_labels.assign(banks.size(), des::kLabelUninterned);
    }
    des::LabelId& label = bank_trace_labels[bank_idx];
    if (label == des::kLabelUninterned) {
      label = sim.trace_label("mem.bank" + std::to_string(bank_idx) + ".queue");
    }
    return label;
  }

  /// Emits a bank-queue-depth counter record at the clock's time (no-op
  /// unless tracing).
  template <class Clock>
  void trace_queue(const Clock& c, std::uint32_t bank_idx) {
    if (!sim.tracing_enabled()) return;
    sim.trace_at(c.now(), des::TraceKind::kCounter, bank_label(bank_idx),
                 banks[bank_idx].qlen);
  }

  std::uint32_t alloc() {
    if (free_head != kNone) {
      const std::uint32_t idx = free_head;
      free_head = slab[idx].next;
      return idx;
    }
    slab.emplace_back();
    return static_cast<std::uint32_t>(slab.size() - 1);
  }

  void release(std::uint32_t idx) {
    slab[idx].done = nullptr;
    slab[idx].next = free_head;
    free_head = idx;
  }

  void park(std::uint32_t bank_idx) {
    Bank& b = banks[bank_idx];
    ensure(!b.parked, "ContentionMemory: bank parked twice");
    b.parked = true;
    ring[(ring_head + ring_count) % ring.size()] = bank_idx;
    ++ring_count;
  }

  /// Puts the head of `bank`'s queue into service and schedules its
  /// completion under the request's pre-allocated calendar key, so
  /// same-time completions across banks dispatch in arrival order.
  template <class Clock>
  void start_service(Clock& c, std::uint32_t bank_idx) {
    Bank& b = banks[bank_idx];
    const std::uint32_t idx = b.qhead;
    Request& r = slab[idx];
    b.qhead = r.next;
    if (b.qhead == kNone) b.qtail = kNone;
    --b.qlen;
    if (m_queued) m_queued->add(c.now(), -1.0);
    trace_queue(c, bank_idx);
    b.busy = true;
    ++in_service;
    (void)b.rows.access_ns(r.row);  // open-row hit/miss statistics only
    c.schedule_at_seq(c.now() + owner.zero_load_latency(r.kind), r.seq, idx);
  }

  /// Grants freed ports to parked banks in arrival order.
  template <class Clock>
  void drain_ring(Clock& c) {
    while (ring_count > 0 && in_service < ports) {
      const std::uint32_t bank_idx = ring[ring_head];
      ring_head = (ring_head + 1) % ring.size();
      --ring_count;
      banks[bank_idx].parked = false;
      if (banks[bank_idx].qlen > 0) start_service(c, bank_idx);
    }
  }

  template <class Clock>
  void issue(Clock& c, std::uint32_t idx) {
    Request& r = slab[idx];
    Bank& b = banks[r.bank];
    r.next = kNone;
    if (b.qtail == kNone) {
      b.qhead = idx;
    } else {
      slab[b.qtail].next = idx;
    }
    b.qtail = idx;
    ++b.qlen;
    ++b.enqueued;
    ++total_accesses;
    if (m_queued) m_queued->add(c.now(), 1.0);
    trace_queue(c, r.bank);
    if (!b.busy && !b.parked) {
      if (in_service < ports) {
        start_service(c, r.bank);
      } else {
        park(r.bank);
      }
    }
    if (sim.audit_enabled()) audit_check(r.bank);
  }

  /// Retires request `idx` at the clock's time, hands its port on, and
  /// returns a copy (the slot is free again: the caller's completion may
  /// re-enter issue() and grow the slab).
  template <class Clock>
  Request complete(Clock& c, std::uint32_t idx) {
    const Request r = slab[idx];
    Bank& b = banks[r.bank];
    b.busy = false;
    ++b.completed;
    --in_service;
    if (b.qlen > 0 && !b.parked) park(r.bank);
    drain_ring(c);
    if (sim.audit_enabled()) audit_check(r.bank);
    release(idx);
    return r;
  }

  static void on_complete(void* ctx, std::uint64_t idx64, std::uint64_t) {
    auto& e = *static_cast<Engine*>(ctx);
    KernelClock clock{e};
    const Request r = e.complete(clock, static_cast<std::uint32_t>(idx64));
    r.done(r.ctx, r.a, r.b);
  }

  /// An exclusive bank's stream, run to its end on its own clock: nothing
  /// else reaches the bank or its port, so nothing can queue and no
  /// access needs an event.  Keeps the statistics issue() and complete()
  /// would, in stream order, but not the queue gauge (nothing queues).
  SimTime run_exclusive(std::uint32_t bank_idx, AccessStream& stream) {
    Bank& b = banks[bank_idx];
    ensure(b.qlen == 0 && !b.busy && sim.now() >= b.reserved_until,
           "ContentionMemory::run_stream: exclusive bank still has an "
           "access in flight");
    SimTime t = sim.now();
    StreamStep step = stream.next(t);
    for (; !step.end; step = stream.next(t)) {
      ensure(step.at >= t, "ContentionMemory: stream stepped back in time");
      ++b.enqueued;
      ++b.completed;
      ++total_accesses;
      (void)b.rows.access_ns(map.row(step.addr));  // statistics only
      t = step.at + owner.zero_load_latency(step.kind);
      if (sim.audit_enabled()) audit_check(bank_idx);
    }
    ensure(step.at >= t, "ContentionMemory: stream stepped back in time");
    b.reserved_until = t;
    return step.at;
  }

  /// Asks group member `m` for its step after its last completion (the
  /// group clock's now) and issues, defers or ends it.  An issue at the
  /// clock's time takes its completion key at once, as access() would;
  /// a later one takes a key for the deferral, where the per-access loop
  /// scheduled its wake, and its completion key when it issues.
  void advance(std::uint32_t m) {
    const Member& member = members[m];
    const StreamStep step = member.stream->next(schedule.now());
    ensure(step.at >= schedule.now(),
           "ContentionMemory: stream stepped back in time");
    if (step.end) {
      *member.end = step.at;
      if (step.at > owned_until) owned_until = step.at;
      return;
    }
    const std::uint32_t idx = alloc();
    Request& r = slab[idx];
    r.a = m;
    r.row = map.row(step.addr);
    r.bank = member.bank;
    r.kind = step.kind;
    if (step.at == schedule.now()) {
      r.seq = schedule.allocate_seq();
      issue(schedule, idx);
    } else {
      schedule.defer(step.at, idx);
    }
  }

  /// The group's static call: runs every member to its end on the private
  /// schedule, then hands the owners back in registration order.
  static void run_group(void* ctx, std::uint64_t, std::uint64_t) {
    auto& e = *static_cast<Engine*>(ctx);
    PrivateSchedule& s = e.schedule;
    s.reset(e.sim.now());
    e.owned_until = e.sim.now();
    for (std::uint32_t m = 0; m < e.members.size(); ++m) e.advance(m);
    std::uint32_t idx = 0;
    bool deferred = false;
    while (s.pop(idx, deferred)) {
      if (deferred) {
        e.slab[idx].seq = s.allocate_seq();
        e.issue(s, idx);
      } else {
        e.advance(static_cast<std::uint32_t>(e.complete(s, idx).a));
      }
    }
    e.group_pending = false;
    // A resumed owner may register the next group at once (its stream
    // ending now), so the finished one is moved aside first.
    e.finishing.swap(e.members);
    for (const Member& member : e.finishing) member.done(member.ctx, 0, 0);
    e.finishing.clear();
  }

  /// O(1) queue-occupancy conservation sweep over the touched bank, plus
  /// the global port ledger — the memory-side analogue of the packet
  /// network's audit-mode credit-conservation check.
  void audit_check(std::uint32_t bank_idx) const {
    const Bank& b = banks[bank_idx];
    ensure(b.enqueued ==
               b.completed + b.qlen + (b.busy ? std::uint64_t{1} : 0),
           "ContentionMemory audit: bank queue-occupancy conservation "
           "violated");
    ensure(in_service <= ports,
           "ContentionMemory audit: more accesses in service than ports");
    ensure(ring_count == 0 || in_service == ports,
           "ContentionMemory audit: bank parked while a port is free");
  }
};

ContentionMemory::ContentionMemory(MemoryConfig config)
    : cfg_(std::move(config)) {
  cfg_.validate();
  map_ = access_map();
  std::vector<std::size_t> users(cfg_.resolved_banks(), 0);
  std::size_t in_use = 0;
  for (const std::uint32_t bank : map_.bank_of_node) {
    if (users[bank]++ == 0) ++in_use;
  }
  exclusive_bank_.resize(users.size());
  for (std::size_t b = 0; b < users.size(); ++b) {
    exclusive_bank_[b] = users[b] == 1 && cfg_.resolved_ports() >= in_use;
  }
}

ContentionMemory::~ContentionMemory() = default;

Cycles ContentionMemory::zero_load_latency(AccessKind kind) const {
  return kind == AccessKind::kLwpRow ? cfg_.lwp_row_cycles
                                     : cfg_.hwp_miss_cycles;
}

std::size_t ContentionMemory::bank_of(std::size_t node) const {
  const std::size_t n = node % cfg_.nodes;
  // Consecutive-node grouping: with B banks over N nodes this is
  // floor(n * B / N) — the t / lwps_per_bank layout the bank-conflict
  // ablation historically used.
  return n * cfg_.resolved_banks() / cfg_.nodes;
}

std::uint64_t ContentionMemory::row_of(std::uint64_t addr) const {
  const std::uint64_t word_bytes = cfg_.spec.word_bits / 8;
  return (addr / word_bytes) / cfg_.spec.words_per_row();
}

ContentionMemory::AccessMap ContentionMemory::access_map() const {
  AccessMap map;
  map.bank_of_node.resize(cfg_.nodes);
  for (std::size_t n = 0; n < cfg_.nodes; ++n) {
    map.bank_of_node[n] = static_cast<std::uint32_t>(bank_of(n));
  }
  map.row_bytes = (cfg_.spec.word_bits / 8) * cfg_.spec.words_per_row();
  return map;
}

void ContentionMemory::bind(des::Simulation& sim) const {
  if (eng_ != nullptr) {
    ensure(sim_ == &sim,
           "ContentionMemory: already bound to a different Simulation; "
           "build one memory model per run");
    return;
  }
  sim_ = &sim;
  eng_ = std::make_unique<Engine>(sim, *this);
}

void ContentionMemory::access(des::Simulation& sim, std::size_t node,
                              std::uint64_t addr, AccessKind kind,
                              bool /*is_write*/,
                              des::EventAction::StaticFn done, void* ctx,
                              std::uint64_t a, std::uint64_t b) const {
  bind(sim);
  Engine& e = *eng_;
  const std::uint32_t bank = e.map.bank(node);
  ensure(!e.group_pending && e.owned_until <= sim.now(),
         "ContentionMemory::access: a stream group owns the memory until "
         "its last stream ends");
  ensure(e.banks[bank].reserved_until <= sim.now(),
         "ContentionMemory::access: bank is reserved by an exclusive stream "
         "past now()");
  const std::uint32_t idx = e.alloc();
  Engine::Request& r = e.slab[idx];
  r.done = done;
  r.ctx = ctx;
  r.a = a;
  r.b = b;
  r.seq = sim.allocate_seq();
  r.row = e.map.row(addr);
  r.bank = bank;
  r.kind = kind;
  Engine::KernelClock clock{e};
  e.issue(clock, idx);
}

bool ContentionMemory::run_stream(des::Simulation& sim, std::size_t node,
                                  AccessStream& stream, SimTime& end,
                                  des::EventAction::StaticFn done,
                                  void* ctx) const {
  bind(sim);
  Engine& e = *eng_;
  ensure(e.owned_until <= sim.now(),
         "ContentionMemory::run_stream: a running stream group owns the "
         "memory until its last stream ends");
  const std::uint32_t bank = e.map.bank(node);
  if (exclusive_bank_[bank]) {
    end = e.run_exclusive(bank, stream);
    return false;
  }
  ensure(e.in_service == 0,
         "ContentionMemory::run_stream: access() requests are in flight");
  if (!e.group_pending) {
    e.group_pending = true;
    sim.schedule_static_at(sim.now(), &Engine::run_group, &e, 0, 0);
  }
  e.members.push_back(Engine::Member{&stream, &end, done, ctx, bank});
  return true;
}

std::uint64_t ContentionMemory::accesses() const {
  return eng_ == nullptr ? 0 : eng_->total_accesses;
}

void ContentionMemory::collect_metrics(obs::MetricsRegistry& registry) const {
  if (eng_ == nullptr) return;
  registry.counter("mem.accesses").add(eng_->total_accesses);
  std::uint64_t hits = 0, misses = 0;
  obs::Summary& rate = registry.summary("mem.bank_row_hit_rate");
  for (const auto& b : eng_->banks) {
    hits += b.rows.hits();
    misses += b.rows.misses();
    const std::uint64_t total = b.rows.hits() + b.rows.misses();
    if (total > 0) {
      rate.add(static_cast<double>(b.rows.hits()) / static_cast<double>(total));
    }
  }
  registry.counter("mem.row_hits").add(hits);
  registry.counter("mem.row_misses").add(misses);
}

double ContentionMemory::row_hit_rate() const {
  if (eng_ == nullptr) return 0.0;
  std::uint64_t hits = 0, total = 0;
  for (const auto& b : eng_->banks) {
    hits += b.rows.hits();
    total += b.rows.hits() + b.rows.misses();
  }
  return total == 0 ? 0.0
                    : static_cast<double>(hits) / static_cast<double>(total);
}

}  // namespace pimsim::mem
