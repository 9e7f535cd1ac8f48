// A functional parcel machine: the "microserver" execution layer of
// PIM Lite-style designs (paper Section 2.2), built from the statistical
// substrate's primitives but moving *real data*.
//
// Every node owns a MemoryStore shard and a parcel engine; parcels are
// serialized to their wire format on every hop (so the model's traffic
// volumes are honest), executed at the home node against the shard with a
// configurable memory access cost, and answered through their
// continuation.  Client code runs inside driver processes and awaits
// replies with RequestHandle:
//
//   des::Process client(ParcelMachine& m) {
//     auto h = m.request(0, read_parcel);   // issue from node 0
//     co_await h.wait();                    // split transaction
//     use(h.value());
//   }
//
// The machine also exposes fire-and-forget posts (writes, notifications)
// and per-node/ per-machine traffic statistics.
#pragma once

#include <cstdint>
#include <memory>
#include <optional>
#include <string>
#include <unordered_map>
#include <vector>

#include "des/mailbox.hpp"
#include "des/process.hpp"
#include "des/simulation.hpp"
#include "memory/memory_system.hpp"
#include "parcel/action.hpp"
#include "parcel/network.hpp"
#include "parcel/parcel.hpp"

namespace pimsim::obs {
class Counter;
class Summary;
}  // namespace pimsim::obs

namespace pimsim::parcel {

/// Cost model of one node's parcel engine.
struct RuntimeCosts {
  Cycles dispatch = 2.0;       ///< decode/dispatch per incident parcel
  Cycles memory_access = 22.0; ///< row access per executed action
  Cycles reply_issue = 1.0;    ///< composing the reply parcel
};

/// Aggregate traffic/work statistics of one node.
struct RuntimeNodeStats {
  std::uint64_t parcels_executed = 0;  ///< actions run at this node
  std::uint64_t replies_returned = 0;  ///< continuations answered
  std::uint64_t bytes_received = 0;    ///< wire bytes into this node
  std::uint64_t bytes_sent = 0;        ///< wire bytes out of this node
};

class ParcelMachine;

/// Completion handle of one outstanding request (split transaction).
/// Valid while the issuing ParcelMachine is alive.
class RequestHandle {
 public:
  /// Awaitable that completes when the reply parcel arrives.
  [[nodiscard]] auto wait() { return state_->trigger.wait(); }
  /// True once the reply has arrived.
  [[nodiscard]] bool done() const { return state_->done; }
  /// The reply's value; throws if awaited before completion or the
  /// action returned nothing.
  [[nodiscard]] std::uint64_t value() const;

 private:
  friend class ParcelMachine;
  struct State {
    explicit State(des::Simulation& sim) : trigger(sim) {}
    des::Trigger trigger;
    bool done = false;
    std::optional<std::uint64_t> value;
    SimTime issued_at = 0.0;  ///< issue timestamp for the RTT summary
  };
  explicit RequestHandle(std::shared_ptr<State> state)
      : state_(std::move(state)) {}
  std::shared_ptr<State> state_;
};

/// An array of PIM nodes executing functional parcels.
class ParcelMachine {
 public:
  /// Builds `nodes` nodes over `net` (not owned; must outlive the machine)
  /// and spawns their parcel engines into `sim`.  When `memory` is wired
  /// (not owned; must outlive the machine), each engine's per-action
  /// memory access goes through the MemorySystem seam — addressed by the
  /// parcel's first operand, issued from the home node — instead of
  /// charging the flat costs.memory_access constant.
  ParcelMachine(des::Simulation& sim, std::size_t nodes,
                const Interconnect& net, RuntimeCosts costs = {},
                const mem::MemorySystem* memory = nullptr);

  ParcelMachine(const ParcelMachine&) = delete;
  ParcelMachine& operator=(const ParcelMachine&) = delete;

  /// Methods must be registered before the simulation starts them.
  ActionRegistry& registry() { return registry_; }

  /// Issues `parcel` from node `src` expecting a reply; the continuation
  /// is filled in by the machine. Returns the handle to await.
  [[nodiscard]] RequestHandle request(NodeId src, Parcel parcel);

  /// Issues a parcel with no reply expected (write/notify semantics).
  void post(NodeId src, Parcel parcel);

  /// Runs the simulation until quiescent, then throws LogicError if any
  /// request() is still awaiting its reply or any driver process beyond
  /// the node engines is still suspended — a hang that sim.run() alone
  /// would let exit silently.  If the Simulation hosts processes that
  /// legitimately idle forever besides this machine's engines (another
  /// ParcelMachine, an app-level server), pass their count so they are
  /// not mistaken for stuck drivers.
  void run(std::size_t extra_idle_processes = 0);

  /// Requests issued via request() whose reply has not yet arrived.
  [[nodiscard]] std::size_t outstanding_requests() const {
    return pending_.size();
  }

  /// Direct access to a node's memory shard (for setup/verification).
  [[nodiscard]] MemoryStore& store(NodeId node);

  [[nodiscard]] std::size_t nodes() const { return nodes_.size(); }
  [[nodiscard]] const RuntimeNodeStats& node_stats(NodeId node) const;
  [[nodiscard]] std::uint64_t total_bytes_on_wire() const;

  /// Publishes machine-wide runtime statistics (parcels executed, replies,
  /// wire bytes) into a metrics registry.  Harnesses call this after the
  /// run, guarded by Simulation::metrics_enabled().
  void collect_metrics(obs::MetricsRegistry& registry) const;

  /// Home node of a (sharded) virtual address: low bits select the node.
  [[nodiscard]] NodeId home_of(std::uint64_t vaddr) const {
    return static_cast<NodeId>((vaddr / 8) % nodes_.size());
  }

 private:
  struct Node {
    Node(des::Simulation& sim, std::uint32_t id)
        : inbox(std::make_unique<des::Mailbox<std::vector<std::uint8_t>>>(
              sim, "pmach" + std::to_string(id) + ".in")) {}
    MemoryStore store;
    std::unique_ptr<des::Mailbox<std::vector<std::uint8_t>>> inbox;
    RuntimeNodeStats stats;
  };

  void ship(Parcel parcel);
  /// deliver() completion: moves wire image `slot` into node `dst`'s inbox.
  static void arrive(void* machine, std::uint64_t slot, std::uint64_t dst);
  des::Process engine(Node& node, NodeId id);

  des::Simulation& sim_;
  const Interconnect& net_;
  RuntimeCosts costs_;
  const mem::MemorySystem* memory_;  ///< nullptr: flat memory_access cost
  ActionRegistry registry_;
  std::vector<std::unique_ptr<Node>> nodes_;
  // Wire images in flight, indexed by the slot deliver() carries; freed
  // slots are reused, so the slab is as large as the peak in flight.
  std::vector<std::vector<std::uint8_t>> wire_;
  std::vector<std::uint32_t> wire_free_;
  // Observability hooks, bound at construction iff the respective layer
  // is on (null / zero-label otherwise; see src/obs/).
  obs::Summary* m_rtt_ = nullptr;      ///< request round-trip summary
  obs::Counter* m_requests_ = nullptr; ///< request() issue counter
  des::LabelId lbl_request_ = 0;       ///< async-span label, 0 = untraced
  // Outstanding requests keyed by continuation context id.
  std::uint64_t next_context_ = 1;
  // lint:allow(unordered-container): context-id lookup on reply, never iterated
  std::unordered_map<std::uint64_t, std::shared_ptr<RequestHandle::State>>
      pending_;
};

}  // namespace pimsim::parcel
