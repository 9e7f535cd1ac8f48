#include "interconnect/network.hpp"

#include <algorithm>
#include <limits>
#include <utility>

#include "common/error.hpp"
#include "obs/metrics.hpp"

namespace pimsim::interconnect {

namespace {

/// FIFO order of two queue entries: enqueue time, then calendar key (the
/// sequence an eager enqueue event would have dispatched under).
inline bool fifo_before(double ready_a, std::uint64_t key_a, double ready_b,
                        std::uint64_t key_b) {
  if (ready_a != ready_b) return ready_a < ready_b;
  return key_a < key_b;
}

}  // namespace

// --- segment ring --------------------------------------------------------

void PacketNetwork::SegRing::push_back(const Segment& seg) {
  if (count == buf.size()) {
    std::vector<Segment> grown(buf.empty() ? 8 : buf.size() * 2);
    for (std::size_t i = 0; i < count; ++i) {
      grown[i] = buf[(head + i) & (buf.size() - 1)];
    }
    buf.swap(grown);
    head = 0;
  }
  buf[(head + count) & (buf.size() - 1)] = seg;
  ++count;
}

// --- packet pool ---------------------------------------------------------

PacketNetwork::PacketRec& PacketNetwork::rec(Handle handle) {
  const auto index = static_cast<std::uint32_t>(handle);
  PacketRec& r = pool_[index];
  ensure(r.generation == static_cast<std::uint32_t>(handle >> 32),
         "PacketNetwork: stale packet handle");
  return r;
}

PacketNetwork::Handle PacketNetwork::alloc_packet() {
  std::uint32_t index;
  if (pool_free_ != 0xffffffffu) {
    index = pool_free_;
    pool_free_ = pool_[index].next_free;
  } else {
    pool_.emplace_back();
    index = static_cast<std::uint32_t>(pool_.size() - 1);
  }
  return (static_cast<Handle>(pool_[index].generation) << 32) | index;
}

void PacketNetwork::free_packet(Handle handle) {
  const auto index = static_cast<std::uint32_t>(handle);
  PacketRec& r = pool_[index];
  if (++r.generation == 0) r.generation = 1;
  r.next_free = pool_free_;
  pool_free_ = index;
}

// --- construction --------------------------------------------------------

PacketNetwork::PacketNetwork(des::Simulation& sim, Topology topology,
                             PacketConfig config)
    : sim_(sim),
      topo_(std::move(topology)),
      cfg_(config),
      latency_hist_(0.0, config.hist_max, config.hist_bins) {
  cfg_.validate();
  links_.resize(topo_.links().size());
  for (LinkState& link : links_) {
    link.credits = static_cast<std::int64_t>(cfg_.credits);
  }
  // Lazily appended arrivals need a strictly positive wire latency (a
  // zero-latency arrival lands in the current timestep, i.e. must be a
  // real event).
  lazy_arrivals_ = cfg_.link_latency > 0.0;
  if (sim_.metrics_enabled()) {
    m_latency_ = &sim_.metrics().summary("net.packet_latency_cycles");
  }
}

// --- observability -------------------------------------------------------

des::LabelId PacketNetwork::occupancy_label(std::uint32_t link) {
  if (link_trace_labels_.empty()) {
    link_trace_labels_.assign(links_.size(), des::kLabelUninterned);
  }
  des::LabelId& label = link_trace_labels_[link];
  if (label == des::kLabelUninterned) {
    label = sim_.trace_label("net.link" + std::to_string(link) + ".occupancy");
  }
  return label;
}

void PacketNetwork::trace_occupancy(std::uint32_t link) {
  if (!sim_.tracing_enabled()) return;
  sim_.trace(des::TraceKind::kCounter, occupancy_label(link),
             static_cast<std::uint64_t>(links_[link].occupancy.current()));
}

void PacketNetwork::collect_metrics(obs::MetricsRegistry& registry) {
  registry.counter("net.packets_sent").add(sent_);
  registry.counter("net.packets_delivered").add(delivered_);
  registry.counter("net.flit_hops").add(flit_hops_);
  obs::Summary& util = registry.summary("net.link_utilization");
  obs::Summary& occupancy = registry.summary("net.link_occupancy_mean");
  for (std::uint32_t li = 0; li < links_.size(); ++li) {
    const LinkStats stats = link_stats(li);
    util.add(stats.utilization);
    occupancy.add(stats.mean_occupancy);
  }
}

// --- public API ----------------------------------------------------------

void PacketNetwork::send(NodeId src, NodeId dst, std::size_t bytes,
                         des::EventAction::StaticFn on_delivered, void* ctx,
                         std::uint64_t a, std::uint64_t b) {
  require(src < topo_.nodes() && dst < topo_.nodes(),
          "PacketNetwork::send: node out of range");
  const Handle handle = alloc_packet();
  PacketRec& p = pool_[static_cast<std::uint32_t>(handle)];
  p.src = src;
  p.dst = dst;
  p.flits = static_cast<std::uint32_t>(flit_count(bytes, cfg_.flit_bytes));
  p.ejected = 0;
  p.injected_at = sim_.now();
  p.on_delivered = on_delivered;
  p.ctx = ctx;
  p.a = a;
  p.b = b;
  ++sent_;

  const std::uint32_t first = topo_.next_link(topo_.attach(src), dst);
  if (first == kNoLink) {
    // Local delivery (src == dst on a direct topology): no network
    // traversal; complete behind pending same-time events, as the
    // analytic models' deliver() does for a zero latency.
    schedule_ev(sim_.now(), Ev::kLocal, 0, handle);
    return;
  }
  // The whole message is one O(1) queue entry; the link's serializer
  // meters flits off it one per flit_cycle (FIFO order is identical to
  // enqueueing every flit up front, without the O(flits) live objects).
  Segment seg;
  seg.packet = handle;
  seg.ready = sim_.now();
  seg.key = sim_.current_dispatch_seq();
  seg.count = p.flits;
  seg.from_link = kNoLink;
  links_[first].mat.push_back(seg);
  poke(first);
}

Cycles PacketNetwork::zero_load_latency(NodeId src, NodeId dst,
                                        std::size_t bytes) const {
  return zero_load_cycles(topo_.hops(src, dst),
                          flit_count(bytes, cfg_.flit_bytes), cfg_);
}

LinkStats PacketNetwork::link_stats(std::uint32_t link) {
  require(link < links_.size(), "PacketNetwork::link_stats: bad link id");
  LinkState& l = links_[link];
  fold_ledger(l, sim_.now());
  LinkStats out;
  out.flits = l.flits;
  out.utilization = l.busy.mean(sim_.now());
  out.mean_occupancy = l.occupancy.mean(sim_.now());
  out.peak_occupancy = l.occupancy.max();
  return out;
}

// --- event plumbing ------------------------------------------------------

void PacketNetwork::schedule_ev(SimTime at, Ev ev, std::uint32_t link,
                                Handle packet) {
  const std::uint64_t a =
      static_cast<std::uint64_t>(ev) | (static_cast<std::uint64_t>(link) << 8);
  sim_.schedule_static_at(at, &PacketNetwork::on_event, this, a, packet);
}

void PacketNetwork::on_event(void* self, std::uint64_t a, std::uint64_t b) {
  auto* net = static_cast<PacketNetwork*>(self);
  const auto link = static_cast<std::uint32_t>((a >> 8) & 0xffffffu);
  switch (static_cast<Ev>(a & 0xffu)) {
    case Ev::kAdvance:
      net->on_advance(link);
      return;
    case Ev::kArrive:
      net->on_arrive(link, b, (a >> 32) != 0);
      return;
    case Ev::kLocal: {
      PacketRec& p = net->rec(b);
      p.ejected = p.flits;
      net->complete(b);
      return;
    }
    case Ev::kWake:
      net->on_wake(link);
      return;
    case Ev::kCreditWake:
      net->on_credit_wake(link);
      return;
    case Ev::kComplete:
      // Final flit of an ejection train lands: free its buffer slot and
      // finish the message (the train ledgered every earlier flit).
      net->release_credit(link);
      net->complete(b);
      return;
  }
}

// --- ledger --------------------------------------------------------------

void PacketNetwork::push_run(LinkState& link, double first, double stride,
                             std::uint32_t left) {
  // An extended run keeps its own first, which is already >= ledger_due.
  link.ledger_due = std::min(link.ledger_due, first);
  if (!link.ledger.empty() && left == 1) {
    // Extend an arithmetic run in place (per-flit elided ejections on a
    // streaming link arrive here one flit_cycle apart).
    OpRun& last = link.ledger.back();
    if (last.left == 1 && first > last.first) {
      last.stride = first - last.first;
      last.left = 2;
      return;
    }
    if (first == last.first + last.stride * static_cast<double>(last.left)) {
      ++last.left;
      return;
    }
  }
  link.ledger.push_back(OpRun{first, stride, left});
}

void PacketNetwork::fold_ledger(LinkState& link, double t) {
  // The ledger holds only deferred credit returns.  A blocked serializer
  // is woken by a credit-wake event armed for the maturity cycle, so
  // folding just banks matured credits (bulk per run: the occupancy
  // decrement lands at the fold time, a shade late, which only smooths
  // the mean-occupancy diagnostic).  Most folds find nothing due (the
  // ledger is empty or its earliest return is still ahead), and the
  // cached ledger_due answers that without touching the runs.
  if (t < link.ledger_due) return;
  std::size_t keep = 0;
  for (std::size_t i = 0; i < link.ledger.size(); ++i) {
    OpRun& run = link.ledger[i];
    // Advance iteratively so maturity times stay bit-identical with the
    // times a credit-wake was armed against (no recomputed products).
    std::uint32_t due = 0;
    while (run.left > 0 && run.first <= t) {
      ++due;
      --run.left;
      run.first += run.stride;
    }
    if (due > 0) {
      link.credits += due;
      link.occupancy.add(t, -static_cast<double>(due));
    }
    if (run.left > 0) link.ledger[keep++] = run;
  }
  link.ledger.resize(keep);
  refresh_ledger_due(link);
}

void PacketNetwork::refresh_ledger_due(LinkState& link) {
  double due = std::numeric_limits<double>::infinity();
  for (const OpRun& run : link.ledger) due = std::min(due, run.first);
  link.ledger_due = due;
}

// --- credit flow ---------------------------------------------------------

void PacketNetwork::release_credit(std::uint32_t li) {
  LinkState& link = links_[li];
  fold_ledger(link, sim_.now());
  link.occupancy.add(sim_.now(), -1.0);
  trace_occupancy(li);
  if (link.phase == Phase::kBlocked) {
    // Strict FIFO hand-off: the staged head flit takes the slot at the
    // release instant (occupancy never dips).
    link.occupancy.add(sim_.now(), 1.0);
    trace_occupancy(li);
    begin(li);
  } else {
    ++link.credits;
  }
}

void PacketNetwork::arm_credit_wake(std::uint32_t li) {
  LinkState& link = links_[li];
  if (link.credit_wake_armed || link.ledger.empty()) return;
  link.credit_wake_armed = true;
  schedule_ev(link.ledger_due, Ev::kCreditWake, li, 0);
}

void PacketNetwork::on_credit_wake(std::uint32_t li) {
  LinkState& link = links_[li];
  link.credit_wake_armed = false;
  if (link.phase != Phase::kBlocked) return;  // stale: already granted
  fold_ledger(link, sim_.now());
  if (link.credits >= 1) {
    // The matured return funds the staged head flit at its exact cycle.
    --link.credits;
    link.occupancy.add(sim_.now(), 1.0);
    trace_occupancy(li);
    begin(li);
    return;
  }
  arm_credit_wake(li);
}

// --- serializer state machine --------------------------------------------

PacketNetwork::SegRing* PacketNetwork::fifo_front(LinkState& link) {
  const bool has_mat = !link.mat.empty();
  const bool has_net = !link.net.empty();
  if (!has_mat && !has_net) return nullptr;
  if (has_mat && (!has_net || fifo_before(link.mat.front().ready,
                                          link.mat.front().key,
                                          link.net.front().ready,
                                          link.net.front().key))) {
    return &link.mat;
  }
  return &link.net;
}

// Materialize the front arrival's wake-up at its own calendar key so it
// dispatches exactly where its eager arrival event would have.
void PacketNetwork::arm_wake(std::uint32_t li, double ready,
                             std::uint64_t key) {
  LinkState& link = links_[li];
  if (link.wake_armed && link.wake_ready <= ready) return;
  const std::uint64_t a = static_cast<std::uint64_t>(Ev::kWake) |
                          (static_cast<std::uint64_t>(li) << 8);
  sim_.schedule_static_at_seq(ready, key, &PacketNetwork::on_event, this, a,
                              0);
  link.wake_armed = true;
  link.wake_ready = ready;
}

void PacketNetwork::poke(std::uint32_t li) {
  LinkState& link = links_[li];
  if (link.phase != Phase::kIdle) return;
  SegRing* ring = fifo_front(link);
  if (ring == nullptr) return;
  const Segment& front = ring->front();
  if (front.ready <= sim_.now()) {
    try_begin(li);
  } else {
    arm_wake(li, front.ready, front.key);
  }
}

void PacketNetwork::on_wake(std::uint32_t li) {
  links_[li].wake_armed = false;
  poke(li);
}

void PacketNetwork::begin(std::uint32_t li) {
  LinkState& link = links_[li];
  link.phase = Phase::kSerializing;
  link.busy.set(sim_.now(), 1.0);
  schedule_ev(sim_.now() + cfg_.flit_cycle, Ev::kAdvance, li, 0);
}

void PacketNetwork::try_begin(std::uint32_t li) {
  LinkState& link = links_[li];
  fold_ledger(link, sim_.now());
  SegRing* ring = fifo_front(link);
  if (ring == nullptr) return;
  Segment& front = ring->front();
  if (front.ready > sim_.now()) {
    // Head not arrived yet: park until its calendar position comes up.
    arm_wake(li, front.ready, front.key);
    return;
  }

  const Handle packet = front.packet;
  const std::uint32_t from = front.from_link;
  if (link.credits >= 2 && front.count >= 2) {
    // Wormhole fast path: the head packet owns the wire for a whole run.
    // Every flit of a segment is streamable (ready + i * stride never
    // trails the wire at one start per flit_cycle), so the train length
    // is just the segment bounded by available credits.
    const auto flits = static_cast<std::uint32_t>(
        std::min<std::uint64_t>(front.count,
                                static_cast<std::uint64_t>(link.credits)));
    run_train(li, ring, flits);
    return;
  }

  // Pop one flit off the head segment.
  if (front.count > 1) {
    front.ready += front.stride;
    --front.count;
  } else {
    ring->pop_front();
  }
  link.cur_packet = packet;
  link.cur_from = from;
  if (link.credits == 0) {
    link.phase = Phase::kBlocked;
    arm_credit_wake(li);
    return;
  }
  --link.credits;
  link.occupancy.add(sim_.now(), 1.0);
  trace_occupancy(li);
  begin(li);
}

// --- flit-train coalescing -----------------------------------------------
//
// The head packet owns the wire for `flits` consecutive flit_cycles from
// now; one calendar event ends the whole train.  The per-flit side
// effects — buffer occupancy, credit returns to this link (ejection) and
// to the upstream link — are pushed onto the links' ledgers and replayed
// when next observed; downstream arrivals leave as a single streaming
// segment committed onto the next idle hop the same way, so an
// uncontended traversal costs O(hops) calendar events, not
// O(hops x flits).
void PacketNetwork::run_train(std::uint32_t li, SegRing* ring,
                              std::uint32_t flits) {
  LinkState& link = links_[li];
  const double start = sim_.now();
  const double fc = cfg_.flit_cycle;
  Segment& front = ring->front();
  const Handle packet = front.packet;
  const std::uint32_t from = front.from_link;

  if (front.count > flits) {
    front.count -= flits;
    front.ready += static_cast<double>(flits) * front.stride;
  } else {
    ring->pop_front();
  }
  // The train's buffer slots are all debited up front (flit i actually
  // claims its slot i flit_cycles after `start`), so mean/peak occupancy
  // read a shade high mid-train but never exceed the buffer capacity:
  // every debit is backed by an available credit.  The wire-busy window
  // [start, start + flits * fc) is accounted retroactively by the train's
  // advance event, so a stats read while the train is on the wire does
  // not count it yet.
  link.credits -= flits;
  link.occupancy.add(sim_.now(), static_cast<double>(flits));
  trace_occupancy(li);
  link.train_busy_from = start;
  link.train_active = true;
  link.phase = Phase::kSerializing;
  schedule_ev(start + static_cast<double>(flits) * fc, Ev::kAdvance, li, 0);

  if (from != kNoLink) {
    push_run(links_[from], start + fc, fc, flits);
    if (links_[from].phase == Phase::kBlocked) arm_credit_wake(from);
  }
  link.flits += flits;
  flit_hops_ += flits;

  PacketRec& p = rec(packet);
  const std::uint32_t router = topo_.links()[li].dst_router;
  if (router == topo_.attach(p.dst)) {
    // Ejection: flits are consumed at the NIC link_latency after leaving
    // the wire; the final one (if it ends the packet) completes it.
    const bool has_final = p.ejected + flits == p.flits;
    p.ejected += flits;
    const std::uint32_t elided = flits - (has_final ? 1 : 0);
    if (elided > 0) {
      push_run(link, start + fc + cfg_.link_latency, fc, elided);
    }
    if (has_final) {
      const std::uint64_t a = static_cast<std::uint64_t>(Ev::kComplete) |
                              (static_cast<std::uint64_t>(li) << 8);
      sim_.schedule_static_at(
          start + static_cast<double>(flits) * fc + cfg_.link_latency,
          &PacketNetwork::on_event, this, a, packet);
    }
  } else {
    const std::uint32_t next = topo_.next_link(router, p.dst);
    ensure(next != kNoLink, "PacketNetwork: routing dead end");
    append_net(next, packet, start + fc + cfg_.link_latency, fc, flits, li);
    poke(next);
  }
}

// Credit conservation for one link: folded credits stay in range, every
// pending ledger run still owes at least one return, and folded +
// pending returns never exceed the downstream buffer's capacity.  A
// violation here is the packet-level analogue of a heap-order break in
// the kernel: state that *will* corrupt results, caught at the event
// where it first exists.
void PacketNetwork::audit_check_link(const LinkState& link) const {
  ensure(link.credits >= 0,
         "PacketNetwork audit: negative folded credit count");
  std::int64_t pending = 0;
  for (const OpRun& run : link.ledger) {
    ensure(run.left > 0, "PacketNetwork audit: drained run left in ledger");
    pending += static_cast<std::int64_t>(run.left);
  }
  ensure(link.credits + pending <= static_cast<std::int64_t>(cfg_.credits),
         "PacketNetwork audit: credits + pending returns exceed capacity");
}

// --- serialization end ---------------------------------------------------

void PacketNetwork::on_advance(std::uint32_t li) {
  LinkState& link = links_[li];
  fold_ledger(link, sim_.now());
  // Audit mode: self-check this link's credit conservation on the same
  // event that already walks its ledger (so the sweep stays O(ledger)).
  if (sim_.audit_enabled()) audit_check_link(link);
  if (link.train_active) {
    // Train epilogue: every per-flit effect (credit returns, occupancy,
    // counters, deliveries) was ledgered or batch-appended when the train
    // was scheduled — only the retroactive wire-busy window and the wire
    // hand-off remain.
    link.busy.set(link.train_busy_from, 1.0);
    link.busy.set(sim_.now(), 0.0);
    link.train_active = false;
    link.phase = Phase::kIdle;
    try_begin(li);
    return;
  }
  link.busy.set(sim_.now(), 0.0);
  if (link.cur_from != kNoLink) release_credit(link.cur_from);
  ++link.flits;
  ++flit_hops_;
  deliver_flit(li);
  link.phase = Phase::kIdle;
  try_begin(li);
}

void PacketNetwork::deliver_flit(std::uint32_t li) {
  LinkState& link = links_[li];
  const Handle handle = link.cur_packet;
  PacketRec& p = rec(handle);
  const std::uint32_t router = topo_.links()[li].dst_router;
  if (router == topo_.attach(p.dst)) {
    // Flits of a packet leave the ejection wire in order, so position —
    // not an arrival count — identifies the one whose landing completes
    // the message (elision perturbs the counting order, never the
    // positions).
    const bool final_flit = p.ejected + 1 == p.flits;
    ++p.ejected;
    if (!final_flit) {
      // Non-final ejecting flit: its only future effect is returning this
      // link's buffer slot at the NIC, one link_latency out, so it is
      // ledgered — no calendar event.  Should the serializer block on
      // credits first, the return's credit wake restarts it.
      push_run(link, sim_.now() + cfg_.link_latency, 0.0, 1);
      return;
    }
    const std::uint64_t a = static_cast<std::uint64_t>(Ev::kArrive) |
                            (static_cast<std::uint64_t>(li) << 8) |
                            (final_flit ? (1ull << 32) : 0ull);
    sim_.schedule_static_at(sim_.now() + cfg_.link_latency,
                            &PacketNetwork::on_event, this, a, handle);
    return;
  }
  const std::uint32_t next = topo_.next_link(router, p.dst);
  ensure(next != kNoLink, "PacketNetwork: routing dead end");
  if (!lazy_arrivals_) {
    schedule_ev(sim_.now() + cfg_.link_latency, Ev::kArrive, li, handle);
    return;
  }
  // Lazy arrival: append to the next link's ring under the sequence key
  // an eager arrival event would have held; a real wake-up is scheduled
  // only if the serializer is parked.
  append_net(next, handle, sim_.now() + cfg_.link_latency, cfg_.flit_cycle, 1,
             li);
  poke(next);
}

void PacketNetwork::append_net(std::uint32_t li, Handle packet, double ready,
                               double stride, std::uint32_t count,
                               std::uint32_t from) {
  SegRing& net = links_[li].net;
  if (!net.empty()) {
    // Glue a continuation of the tail packet's stream back together so a
    // train split upstream (by credit pressure) can still coalesce here.
    Segment& tail = net.back();
    if (tail.packet == packet && tail.from_link == from &&
        tail.ready + static_cast<double>(tail.count) * stride == ready) {
      tail.stride = stride;
      tail.count += count;
      return;
    }
  }
  Segment seg;
  seg.packet = packet;
  seg.ready = ready;
  seg.stride = count > 1 ? stride : 0.0;
  seg.key = sim_.allocate_seq();
  seg.count = count;
  seg.from_link = from;
  links_[li].net.push_back(seg);
}

// --- arrival (the non-elided path) ---------------------------------------

void PacketNetwork::on_arrive(std::uint32_t li, Handle handle,
                              bool final_flit) {
  PacketRec& p = rec(handle);
  const std::uint32_t router = topo_.links()[li].dst_router;
  if (router == topo_.attach(p.dst)) {
    // Ejection: the NIC consumes the flit immediately, freeing its credit.
    release_credit(li);
    if (final_flit) complete(handle);
    return;
  }
  const std::uint32_t next = topo_.next_link(router, p.dst);
  ensure(next != kNoLink, "PacketNetwork: routing dead end");
  // The flit joins the next link's queue under this arrival's key.
  Segment seg;
  seg.packet = handle;
  seg.ready = sim_.now();
  seg.key = sim_.current_dispatch_seq();
  seg.count = 1;
  seg.from_link = li;
  links_[next].mat.push_back(seg);
  poke(next);
}

// --- completion ----------------------------------------------------------

void PacketNetwork::complete(Handle handle) {
  PacketRec& p = rec(handle);
  const double latency = sim_.now() - p.injected_at;
  latency_.add(latency);
  latency_hist_.add(latency);
  if (m_latency_) m_latency_->add(latency);
  ++delivered_;
  const PacketRec done = p;  // the callback may send, reusing the slot
  free_packet(handle);
  if (done.on_delivered != nullptr) done.on_delivered(done.ctx, done.a, done.b);
}

}  // namespace pimsim::interconnect
