#include "parcel/system.hpp"

#include <cstdint>
#include <memory>

#include "common/error.hpp"
#include "common/rng.hpp"
#include "des/mailbox.hpp"
#include "des/process.hpp"
#include "des/resource.hpp"
#include "des/simulation.hpp"
#include "interconnect/contention.hpp"
#include "memory/memory_system.hpp"
#include "obs/metrics.hpp"

namespace pimsim::parcel {

void SplitTransactionParams::validate() const {
  require(nodes > 0, "SplitTransactionParams: need at least one node");
  require(ls_mix > 0.0 && ls_mix <= 1.0,
          "SplitTransactionParams: ls_mix must be in (0,1]");
  require(p_remote >= 0.0 && p_remote <= 1.0,
          "SplitTransactionParams: p_remote must be in [0,1]");
  require(t_local >= 0.0 && t_switch >= 0.0 && t_send >= 0.0,
          "SplitTransactionParams: service times must be non-negative");
  require(parallelism > 0, "SplitTransactionParams: parallelism must be >= 1");
  require(round_trip_latency >= 0.0,
          "SplitTransactionParams: latency must be non-negative");
  require(nic_gap >= 0.0, "SplitTransactionParams: nic_gap must be >= 0");
  require(message_bytes > 0, "SplitTransactionParams: message_bytes must be >= 1");
  require(horizon > 0.0, "SplitTransactionParams: horizon must be positive");
}

double SystemRunResult::total_work() const {
  double sum = 0.0;
  for (const auto& n : nodes) sum += n.work();
  return sum;
}

double SystemRunResult::mean_idle_fraction() const {
  if (nodes.empty() || horizon <= 0.0) return 0.0;
  double sum = 0.0;
  for (const auto& n : nodes) sum += n.idle_cycles / horizon;
  return sum / static_cast<double>(nodes.size());
}

double SystemRunResult::mean_overhead_fraction() const {
  if (nodes.empty() || horizon <= 0.0) return 0.0;
  double sum = 0.0;
  for (const auto& n : nodes) sum += n.overhead_cycles / horizon;
  return sum / static_cast<double>(nodes.size());
}

namespace {

// Banked-memory address stream: each node walks its own region one wide
// word at a time (same stride the arch-layer LWP model uses), so open-row
// locality and bank mapping are deterministic functions of the node id.
constexpr std::uint64_t kAccessStrideBytes = 32;
constexpr std::uint64_t kNodeRegionBytes = std::uint64_t{1} << 32;

std::uint64_t next_addr(NodeId id, std::uint64_t& offset) {
  const std::uint64_t addr = id * kNodeRegionBytes + offset;
  offset += kAccessStrideBytes;
  return addr;
}

/// In-memory message of the statistical models: who asked, and the trigger
/// that reactivates the waiting thread/context once the reply arrives.
struct SimMessage {
  NodeId src = 0;
  des::Trigger* reply = nullptr;
};

/// Picks a uniformly random remote target ("the degree of remote accesses"
/// is uniform over the other nodes; a 1-node system loops back to itself).
NodeId pick_target(Rng& rng, NodeId self, std::size_t nodes) {
  if (nodes <= 1) return self;
  auto t = static_cast<NodeId>(rng.uniform_int(0, nodes - 2));
  if (t >= self) ++t;
  return t;
}

// ---------------------------------------------------------------------
// Control system: conventional blocking message passing (Figure 10 top).
// ---------------------------------------------------------------------

struct ControlNode {
  ControlNode(des::Simulation& sim, NodeId node_id, Rng node_rng)
      : id(node_id),
        incoming(sim, "ctl" + std::to_string(node_id) + ".in"),
        memory(sim, 1, "ctl" + std::to_string(node_id) + ".mem"),
        nic(sim, 1, "ctl" + std::to_string(node_id) + ".nic"),
        rng(node_rng) {}

  NodeId id;
  des::Mailbox<SimMessage> incoming;
  des::Resource memory;  ///< DMA-reachable memory port
  des::Resource nic;     ///< injection port (bandwidth ablation)
  Rng rng;
  NodeStats stats;
  std::uint64_t next_offset = 0;  ///< banked memory: address stream cursor
};

/// Arrival of a request: hands SimMessage{src, reply} to the destination
/// node's input mailbox (ctx).
void send_request(void* box, std::uint64_t src, std::uint64_t reply) {
  static_cast<des::Mailbox<SimMessage>*>(box)->send(
      SimMessage{static_cast<NodeId>(src),
                 reinterpret_cast<des::Trigger*>(static_cast<std::uintptr_t>(reply))});
}

/// Arrival of a reply: reactivates the waiting requester (ctx).
void fire_reply(void* reply, std::uint64_t, std::uint64_t) {
  static_cast<des::Trigger*>(reply)->fire();
}

/// The interconnect's 4-word completion, carried through inject().
struct Arrival {
  des::EventAction::StaticFn fn;
  void* ctx;
  std::uint64_t a;
  std::uint64_t b;
};

Arrival request_arrival(des::Mailbox<SimMessage>& box, const SimMessage& msg) {
  return {&send_request, &box, msg.src,
          static_cast<std::uint64_t>(reinterpret_cast<std::uintptr_t>(msg.reply))};
}

Arrival reply_arrival(des::Trigger* reply) {
  return {&fire_reply, reply, 0, 0};
}

/// Ships a message: serializes through the sender's NIC when nic_gap > 0,
/// then hands it to the interconnect's deliver() seam — the analytic
/// models schedule arrival after their closed-form latency (preserving
/// the paper's infinite-bandwidth model and the event ordering of
/// existing seeds); the packet-level model routes flits through its
/// simulated network instead.
des::Process inject(des::Simulation& sim, des::Resource& nic, Cycles gap,
                    const Interconnect& net, NodeId src, NodeId dst,
                    std::size_t bytes, Arrival arrive) {
  co_await nic.acquire();
  co_await des::delay(sim, gap);
  nic.release();
  net.deliver(sim, src, dst, bytes, arrive.fn, arrive.ctx, arrive.a, arrive.b);
}

void ship(des::Simulation& sim, des::Resource& nic, Cycles gap,
          const Interconnect& net, NodeId src, NodeId dst, std::size_t bytes,
          Arrival arrive) {
  if (gap <= 0.0) {
    net.deliver(sim, src, dst, bytes, arrive.fn, arrive.ctx, arrive.a,
                arrive.b);
  } else {
    sim.spawn(inject(sim, nic, gap, net, src, dst, bytes, arrive));
  }
}

class MessagePassingSystem {
 public:
  MessagePassingSystem(const SplitTransactionParams& params,
                       const Interconnect& net,
                       const mem::MemorySystem* memory)
      : p_(params), net_(net), mem_(memory) {
    Rng root(p_.seed, /*stream_id=*/0xC0);
    nodes_.reserve(p_.nodes);
    for (std::size_t i = 0; i < p_.nodes; ++i) {
      nodes_.push_back(std::make_unique<ControlNode>(
          sim_, static_cast<NodeId>(i), root.split(i)));
    }
    if (sim_.metrics_enabled()) {
      m_rtt_ = &sim_.metrics().summary("msg.request_rtt_cycles");
    }
    if (sim_.tracing_enabled()) lbl_request_ = sim_.trace_label("msg.request");
  }

  SystemRunResult run() {
    for (auto& node : nodes_) {
      sim_.spawn(node_main(*node));
      sim_.spawn(request_server(*node));
    }
    sim_.run_until(p_.horizon);
    if (sim_.metrics_enabled()) {
      net_.collect_metrics(sim_.metrics());
      if (mem_ != nullptr) mem_->collect_metrics(sim_.metrics());
    }

    SystemRunResult out;
    out.horizon = p_.horizon;
    out.nodes.reserve(nodes_.size());
    for (auto& node : nodes_) out.nodes.push_back(node->stats);
    return out;
  }

 private:
  /// The node's single program thread: compute, access memory, and block
  /// on remote requests ("in this third state, the processor is considered
  /// to be idle").
  des::Process node_main(ControlNode& n) {
    while (true) {
      // Compute run until the next memory access: each op is a load/store
      // with probability ls_mix, so the gap is geometric.
      const std::uint64_t gap = n.rng.geometric(p_.ls_mix);
      if (gap > 0) {
        co_await des::delay(sim_, static_cast<double>(gap));
        n.stats.useful_cycles += static_cast<double>(gap);
        n.stats.compute_ops += gap;
      }
      if (n.rng.bernoulli(p_.p_remote)) {
        // Compose and send the request, then block until the reply.
        if (p_.t_send > 0.0) {
          co_await des::delay(sim_, p_.t_send);
          n.stats.overhead_cycles += p_.t_send;
        }
        ++n.stats.remote_requests;
        const NodeId target = pick_target(n.rng, n.id, p_.nodes);
        des::Trigger reply(sim_);
        const std::uint64_t span = next_span_++;
        if (sim_.tracing_enabled()) {
          sim_.trace(des::TraceKind::kAsyncBegin, lbl_request_, span, n.id);
        }
        deliver(n.id, target, SimMessage{n.id, &reply});
        const SimTime blocked_at = sim_.now();
        co_await reply.wait();
        if (m_rtt_ != nullptr) m_rtt_->add(sim_.now() - blocked_at);
        if (sim_.tracing_enabled()) {
          sim_.trace(des::TraceKind::kAsyncEnd, lbl_request_, span, n.id);
        }
        n.stats.idle_cycles += sim_.now() - blocked_at;
      } else {
        // Local access: the processor is in the memory-access state for
        // the whole span, including any wait for the (DMA-shared) port.
        // Behind the seam, the banked backend's per-bank FIFO takes over
        // the arbitration the node's memory Resource models otherwise.
        const SimTime start = sim_.now();
        if (mem_ != nullptr) {
          co_await mem::AccessAwaitable{*mem_, sim_, n.id,
                                        next_addr(n.id, n.next_offset),
                                        mem::AccessKind::kLwpRow};
        } else {
          co_await n.memory.acquire();
          co_await des::delay(sim_, p_.t_local);
          n.memory.release();
        }
        n.stats.mem_cycles += sim_.now() - start;
        ++n.stats.local_accesses;
      }
    }
  }

  /// Services incoming remote requests at the home node's memory port
  /// without consuming its processor (DMA-style remote access).
  des::Process request_server(ControlNode& n) {
    while (true) {
      const SimMessage msg = co_await n.incoming.receive();
      sim_.spawn(serve_one(n, msg));
    }
  }

  des::Process serve_one(ControlNode& n, SimMessage msg) {
    if (mem_ != nullptr) {
      co_await mem::AccessAwaitable{*mem_, sim_, n.id,
                                    next_addr(n.id, n.next_offset),
                                    mem::AccessKind::kLwpRow};
    } else {
      co_await n.memory.acquire();
      co_await des::delay(sim_, p_.t_local);
      n.memory.release();
    }
    ++n.stats.accesses_served;
    // Return the reply over the network; it unblocks the requester.
    ship(sim_, n.nic, p_.nic_gap, net_, n.id, msg.src, p_.message_bytes,
         reply_arrival(msg.reply));
  }

  void deliver(NodeId src, NodeId dst, SimMessage msg) {
    ship(sim_, nodes_[src]->nic, p_.nic_gap, net_, src, dst, p_.message_bytes,
         request_arrival(nodes_[dst]->incoming, msg));
  }

  SplitTransactionParams p_;
  const Interconnect& net_;
  const mem::MemorySystem* mem_;  ///< nullptr: analytic constant path
  des::Simulation sim_;
  std::vector<std::unique_ptr<ControlNode>> nodes_;
  // Observability hooks, bound at construction iff the layer is on.
  obs::Summary* m_rtt_ = nullptr;
  des::LabelId lbl_request_ = 0;
  std::uint64_t next_span_ = 1;  ///< async-span ids for request lifecycles
};

// ---------------------------------------------------------------------
// Test system: parcel-driven split transactions (Figure 10 bottom).
// ---------------------------------------------------------------------

struct TestNode {
  TestNode(des::Simulation& sim, NodeId node_id, Rng node_rng)
      : id(node_id),
        cpu(sim, 1, "pim" + std::to_string(node_id) + ".cpu"),
        nic(sim, 1, "pim" + std::to_string(node_id) + ".nic"),
        incoming(sim, "pim" + std::to_string(node_id) + ".in"),
        rng(node_rng) {}

  NodeId id;
  des::Resource cpu;
  des::Resource nic;  ///< injection port (bandwidth ablation)
  des::Mailbox<SimMessage> incoming;
  Rng rng;
  NodeStats stats;
  std::uint64_t next_offset = 0;  ///< banked memory: address stream cursor
};

class SplitTransactionSystem {
 public:
  SplitTransactionSystem(const SplitTransactionParams& params,
                         const Interconnect& net,
                         const mem::MemorySystem* memory)
      : p_(params), net_(net), mem_(memory) {
    Rng root(p_.seed, /*stream_id=*/0x7E);
    nodes_.reserve(p_.nodes);
    for (std::size_t i = 0; i < p_.nodes; ++i) {
      nodes_.push_back(std::make_unique<TestNode>(
          sim_, static_cast<NodeId>(i), root.split(i)));
    }
    if (sim_.metrics_enabled()) {
      m_rtt_ = &sim_.metrics().summary("parcel.request_rtt_cycles");
    }
    if (sim_.tracing_enabled()) {
      lbl_request_ = sim_.trace_label("parcel.request");
    }
  }

  SystemRunResult run() {
    for (auto& node : nodes_) {
      for (std::size_t c = 0; c < p_.parallelism; ++c) {
        sim_.spawn(context(*node, node->rng.split(1000 + c)));
      }
      sim_.spawn(dispatcher(*node));
    }
    sim_.run_until(p_.horizon);
    if (sim_.metrics_enabled()) {
      net_.collect_metrics(sim_.metrics());
      if (mem_ != nullptr) mem_->collect_metrics(sim_.metrics());
    }

    SystemRunResult out;
    out.horizon = p_.horizon;
    out.nodes.reserve(nodes_.size());
    for (auto& node : nodes_) {
      NodeStats s = node->stats;
      // Idle = no ready parcel context: everything the processor was not
      // doing. The cpu resource integrates busy time exactly.
      s.idle_cycles =
          p_.horizon * (1.0 - node->cpu.utilization());
      out.nodes.push_back(s);
    }
    return out;
  }

 private:
  /// One parcel context (application thread) of a node. It owns the
  /// processor while running; a remote access emits a parcel and yields
  /// the processor instead of blocking it.
  des::Process context(TestNode& n, Rng rng) {
    while (true) {
      co_await n.cpu.acquire();
      if (p_.t_switch > 0.0) {
        co_await des::delay(sim_, p_.t_switch);
        n.stats.overhead_cycles += p_.t_switch;
      }
      // Run segments until this context suspends on a remote access.
      bool running = true;
      while (running) {
        const std::uint64_t gap = rng.geometric(p_.ls_mix);
        if (gap > 0) {
          co_await des::delay(sim_, static_cast<double>(gap));
          n.stats.useful_cycles += static_cast<double>(gap);
          n.stats.compute_ops += gap;
        }
        if (rng.bernoulli(p_.p_remote)) {
          if (p_.t_send > 0.0) {
            co_await des::delay(sim_, p_.t_send);
            n.stats.overhead_cycles += p_.t_send;
          }
          ++n.stats.remote_requests;
          const NodeId target = pick_target(rng, n.id, p_.nodes);
          des::Trigger reply(sim_);
          const std::uint64_t span = next_span_++;
          if (sim_.tracing_enabled()) {
            sim_.trace(des::TraceKind::kAsyncBegin, lbl_request_, span, n.id);
          }
          const SimTime issued_at = sim_.now();
          deliver(n.id, target, SimMessage{n.id, &reply});
          n.cpu.release();  // split transaction: don't hold the processor
          co_await reply.wait();
          if (m_rtt_ != nullptr) m_rtt_->add(sim_.now() - issued_at);
          if (sim_.tracing_enabled()) {
            sim_.trace(des::TraceKind::kAsyncEnd, lbl_request_, span, n.id);
          }
          running = false;  // loop around to re-acquire (pays the switch)
        } else if (mem_ != nullptr) {
          // Banked memory: the context holds the processor while the
          // access (including any bank queueing) is in flight, the same
          // busy-span accounting the control system uses.
          const SimTime start = sim_.now();
          co_await mem::AccessAwaitable{*mem_, sim_, n.id,
                                        next_addr(n.id, n.next_offset),
                                        mem::AccessKind::kLwpRow};
          n.stats.mem_cycles += sim_.now() - start;
          ++n.stats.local_accesses;
        } else {
          co_await des::delay(sim_, p_.t_local);
          n.stats.mem_cycles += p_.t_local;
          ++n.stats.local_accesses;
        }
      }
    }
  }

  /// Turns incoming parcels into processor work at the home node.
  des::Process dispatcher(TestNode& n) {
    while (true) {
      const SimMessage msg = co_await n.incoming.receive();
      sim_.spawn(handle_parcel(n, msg));
    }
  }

  des::Process handle_parcel(TestNode& n, SimMessage msg) {
    co_await n.cpu.acquire();
    if (p_.t_switch > 0.0) {
      co_await des::delay(sim_, p_.t_switch);
      n.stats.overhead_cycles += p_.t_switch;
    }
    // The action: a memory access performed on behalf of the parcel.
    if (mem_ != nullptr) {
      const SimTime start = sim_.now();
      co_await mem::AccessAwaitable{*mem_, sim_, n.id,
                                    next_addr(n.id, n.next_offset),
                                    mem::AccessKind::kLwpRow};
      n.stats.mem_cycles += sim_.now() - start;
    } else {
      co_await des::delay(sim_, p_.t_local);
      n.stats.mem_cycles += p_.t_local;
    }
    n.cpu.release();
    ++n.stats.accesses_served;
    ship(sim_, n.nic, p_.nic_gap, net_, n.id, msg.src, p_.message_bytes,
         reply_arrival(msg.reply));
  }

  void deliver(NodeId src, NodeId dst, SimMessage msg) {
    ship(sim_, nodes_[src]->nic, p_.nic_gap, net_, src, dst, p_.message_bytes,
         request_arrival(nodes_[dst]->incoming, msg));
  }

  SplitTransactionParams p_;
  const Interconnect& net_;
  const mem::MemorySystem* mem_;  ///< nullptr: analytic constant path
  des::Simulation sim_;
  std::vector<std::unique_ptr<TestNode>> nodes_;
  // Observability hooks, bound at construction iff the layer is on.
  obs::Summary* m_rtt_ = nullptr;
  des::LabelId lbl_request_ = 0;
  std::uint64_t next_span_ = 1;  ///< async-span ids for request lifecycles
};

std::unique_ptr<Interconnect> default_net(const SplitTransactionParams& p) {
  if (p.contention) {
    // Same topology, calibrated to the same zero-load latencies — the
    // packet model binds itself to the run's Simulation on first use.
    return interconnect::make_contention_interconnect(p.network, p.nodes,
                                                      p.round_trip_latency);
  }
  return make_interconnect(p.network, p.nodes, p.round_trip_latency);
}

/// Builds the run's memory model from params.memory.  "analytic" returns
/// nullptr — the systems then run the pre-seam constant-delay code path,
/// keeping the default figures bitwise identical.  Anything else goes
/// through make_memory (which rejects unknown kinds), calibrated so the
/// zero-load access latency is exactly t_local.
std::unique_ptr<mem::MemorySystem> default_memory(
    const SplitTransactionParams& p) {
  if (p.memory == "analytic") return nullptr;
  mem::MemoryConfig mc;
  mc.kind = p.memory;
  mc.nodes = p.nodes;
  mc.banks = p.mem_banks;
  mc.queue = p.mem_queue;
  mc.lwp_row_cycles = p.t_local;
  return mem::make_memory(mc);
}

}  // namespace

SystemRunResult run_split_transaction_system(const SplitTransactionParams& params,
                                             const Interconnect* net,
                                             const mem::MemorySystem* memory) {
  params.validate();
  std::unique_ptr<Interconnect> owned;
  if (net == nullptr) {
    owned = default_net(params);
    net = owned.get();
  }
  std::unique_ptr<mem::MemorySystem> owned_mem;
  if (memory == nullptr) {
    owned_mem = default_memory(params);
    memory = owned_mem.get();  // stays nullptr for "analytic"
  }
  SplitTransactionSystem system(params, *net, memory);
  return system.run();
}

SystemRunResult run_message_passing_system(const SplitTransactionParams& params,
                                           const Interconnect* net,
                                           const mem::MemorySystem* memory) {
  params.validate();
  std::unique_ptr<Interconnect> owned;
  if (net == nullptr) {
    owned = default_net(params);
    net = owned.get();
  }
  std::unique_ptr<mem::MemorySystem> owned_mem;
  if (memory == nullptr) {
    owned_mem = default_memory(params);
    memory = owned_mem.get();  // stays nullptr for "analytic"
  }
  MessagePassingSystem system(params, *net, memory);
  return system.run();
}

ComparisonPoint compare_systems(const SplitTransactionParams& params) {
  const SystemRunResult test = run_split_transaction_system(params);
  const SystemRunResult control = run_message_passing_system(params);
  ComparisonPoint out;
  out.test_work = test.total_work();
  out.control_work = control.total_work();
  ensure(out.control_work > 0.0, "compare_systems: control did no work");
  out.work_ratio = out.test_work / out.control_work;
  out.test_idle = test.mean_idle_fraction();
  out.control_idle = control.mean_idle_fraction();
  return out;
}

}  // namespace pimsim::parcel
