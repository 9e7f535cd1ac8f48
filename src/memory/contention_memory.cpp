#include "memory/contention_memory.hpp"

#include <limits>
#include <string>

#include "common/error.hpp"
#include "obs/metrics.hpp"

namespace pimsim::mem {

namespace {
constexpr std::uint32_t kNone = std::numeric_limits<std::uint32_t>::max();
}  // namespace

/// The bound per-run state: request slab + per-bank queues + port ring.
struct ContentionMemory::Engine {
  /// One in-flight request.  Lives in the slab; `next` links it into its
  /// bank's FIFO while queued, or into the free list while idle.
  struct Request {
    des::EventAction::StaticFn done = nullptr;
    void* ctx = nullptr;
    std::uint64_t a = 0;
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
    /// Completion time of the last access retire()d here.
    SimTime reserved_until = 0.0;
    // Queue-occupancy conservation (audit mode): everything that entered
    // must be queued, in service, or completed.
    std::uint64_t enqueued = 0;
    std::uint64_t completed = 0;
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

  /// Emits a bank-queue-depth counter record (no-op unless tracing).
  void trace_queue(std::uint32_t bank_idx) {
    if (!sim.tracing_enabled()) return;
    sim.trace(des::TraceKind::kCounter, bank_label(bank_idx), banks[bank_idx].qlen);
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
  void start_service(std::uint32_t bank_idx) {
    Bank& b = banks[bank_idx];
    const std::uint32_t idx = b.qhead;
    Request& r = slab[idx];
    b.qhead = r.next;
    if (b.qhead == kNone) b.qtail = kNone;
    --b.qlen;
    if (m_queued) m_queued->add(sim.now(), -1.0);
    trace_queue(bank_idx);
    b.busy = true;
    ++in_service;
    (void)b.rows.access_ns(r.row);  // open-row hit/miss statistics only
    sim.schedule_static_at_seq(
        sim.now() + owner.zero_load_latency(r.kind), r.seq, &on_complete,
        this, idx, 0);
  }

  /// Grants freed ports to parked banks in arrival order.
  void drain_ring() {
    while (ring_count > 0 && in_service < ports) {
      const std::uint32_t bank_idx = ring[ring_head];
      ring_head = (ring_head + 1) % ring.size();
      --ring_count;
      banks[bank_idx].parked = false;
      if (banks[bank_idx].qlen > 0) start_service(bank_idx);
    }
  }

  void issue(std::uint32_t idx) {
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
    if (m_queued) m_queued->add(sim.now(), 1.0);
    trace_queue(r.bank);
    if (!b.busy && !b.parked) {
      if (in_service < ports) {
        start_service(r.bank);
      } else {
        park(r.bank);
      }
    }
    if (sim.audit_enabled()) audit_check(r.bank);
  }

  /// The exclusive-bank path: one access charged on the caller's clock.
  Cycles retire(std::uint32_t bank_idx, std::uint64_t row, AccessKind kind,
                SimTime at) {
    Bank& b = banks[bank_idx];
    ensure(owner.exclusive_bank_[bank_idx],
           "ContentionMemory::retire: node shares its bank or a port");
    ensure(b.qlen == 0 && !b.busy,
           "ContentionMemory::retire: bank has a request queued or in "
           "service");
    ensure(at >= sim.now() && at >= b.reserved_until,
           "ContentionMemory::retire: access issued out of stream order");
    ++b.enqueued;
    ++b.completed;
    ++total_accesses;
    (void)b.rows.access_ns(row);  // open-row hit/miss statistics only
    const Cycles latency = owner.zero_load_latency(kind);
    b.reserved_until = at + latency;
    if (sim.audit_enabled()) audit_check(bank_idx);
    return latency;
  }

  static void on_complete(void* ctx, std::uint64_t idx64, std::uint64_t) {
    auto& e = *static_cast<Engine*>(ctx);
    const auto idx = static_cast<std::uint32_t>(idx64);
    // Copy out before freeing: done() may re-enter issue() and grow the
    // slab out from under the reference.
    const Request r = e.slab[idx];
    Bank& b = e.banks[r.bank];
    b.busy = false;
    ++b.completed;
    --e.in_service;
    if (b.qlen > 0 && !b.parked) e.park(r.bank);
    e.drain_ring();
    if (e.sim.audit_enabled()) e.audit_check(r.bank);
    e.release(idx);
    r.done(r.ctx, r.a, r.b);
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
  ensure(e.banks[bank].reserved_until <= sim.now(),
         "ContentionMemory::access: bank is reserved by retired accesses "
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
  e.issue(idx);
}

bool ContentionMemory::exclusive(std::size_t node) const {
  return exclusive_bank_[map_.bank(node)];
}

Cycles ContentionMemory::retire(des::Simulation& sim, std::size_t node,
                                std::uint64_t addr, AccessKind kind,
                                SimTime at) const {
  bind(sim);
  return eng_->retire(eng_->map.bank(node), eng_->map.row(addr), kind, at);
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
