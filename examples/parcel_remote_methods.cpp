// Functional parcels end to end: remote atomic operations and method
// invocation on objects in memory (paper Figures 8 and 9), with real
// wire-format serialization on every hop.
//
// Scenario: a distributed histogram sharded over an 8-node PIM array.
//  * The driver fires kAmoAdd parcels at remote bins (hardware-supported
//    atomic action).
//  * A registered method code block ("shard-sum") is then invoked on every
//    node — a remote method invocation on the shard object — and the
//    returned partial sums are folded into the final answer.
//
// Build & run:  ./examples/parcel_remote_methods
#include <cstdint>
#include <cstdio>
#include <memory>
#include <utility>
#include <vector>

#include "common/rng.hpp"
#include "des/mailbox.hpp"
#include "des/process.hpp"
#include "des/simulation.hpp"
#include "parcel/action.hpp"
#include "parcel/network.hpp"
#include "parcel/parcel.hpp"

namespace {

using namespace pimsim;

constexpr std::uint32_t kShardSumMethod = 1;
constexpr std::uint64_t kBinsPerNode = 64;

/// One PIM node: its memory shard and its parcel inbox (wire bytes).
struct Node {
  explicit Node(des::Simulation& sim, std::uint32_t id)
      : inbox(std::make_unique<des::Mailbox<std::vector<std::uint8_t>>>(
            sim, "node" + std::to_string(id) + ".in")) {}
  parcel::MemoryStore store;
  std::unique_ptr<des::Mailbox<std::vector<std::uint8_t>>> inbox;
  std::uint64_t parcels_executed = 0;
};

struct Machine {
  explicit Machine(std::size_t n_nodes, double round_trip)
      : net(round_trip) {
    nodes.reserve(n_nodes);
    for (std::size_t i = 0; i < n_nodes; ++i) {
      nodes.emplace_back(sim, static_cast<std::uint32_t>(i));
    }
    // The method code block every node knows: sum this shard's bins.
    registry.register_method(
        kShardSumMethod, "shard-sum",
        [](parcel::MemoryStore& store, std::uint64_t,
           std::span<const std::uint64_t>) {
          std::uint64_t sum = 0;
          for (std::uint64_t bin = 0; bin < kBinsPerNode; ++bin) {
            sum += store.read(bin * 8);
          }
          return std::optional<std::uint64_t>(sum);
        });
  }

  /// Serializes and ships a parcel: the interconnect delivers it after
  /// the network latency, its wire bytes parked in an in-flight slot
  /// until then.
  void send(const parcel::Parcel& p) {
    std::uint64_t slot = in_flight.size();
    if (free_slots.empty()) {
      in_flight.emplace_back();
    } else {
      slot = free_slots.back();
      free_slots.pop_back();
    }
    in_flight[slot] = parcel::serialize(p);
    net.deliver(sim, p.src, p.dst, in_flight[slot].size(), &Machine::arrive,
                this, slot, p.dst);
  }

  /// Arrival of the parcel in `slot` at node `dst`: hand its bytes to the
  /// node's inbox and free the slot.
  static void arrive(void* self, std::uint64_t slot, std::uint64_t dst) {
    auto& m = *static_cast<Machine*>(self);
    m.nodes[dst].inbox->send(std::move(m.in_flight[slot]));
    m.free_slots.push_back(slot);
  }

  des::Simulation sim;
  parcel::FlatInterconnect net;
  parcel::ActionRegistry registry;
  std::vector<Node> nodes;
  std::vector<std::vector<std::uint8_t>> in_flight;  // wire bytes by slot
  std::vector<std::uint64_t> free_slots;
  // Replies delivered back to the driver, keyed by continuation context.
  std::uint64_t replies = 0;
  std::uint64_t reply_sum = 0;
  bool verified = false;  // the final histogram check passed
};

/// Each node's parcel engine: receive, deserialize, execute the action
/// against the local shard (paying a row access), return the reply.
des::Process node_server(Machine& m, std::uint32_t id) {
  while (true) {
    const auto bytes = co_await m.nodes[id].inbox->receive();
    const parcel::Parcel p = parcel::deserialize(bytes);
    if (p.action == parcel::ActionKind::kReply) {
      // This node is the continuation target: fold in the result.
      ++m.replies;
      m.reply_sum += p.operands.empty() ? 0 : p.operands[0];
      continue;
    }
    co_await des::delay(m.sim, 22.0);  // row access at the home node
    ++m.nodes[id].parcels_executed;
    const auto reply = parcel::execute_action(p, m.nodes[id].store, m.registry);
    if (reply.has_value()) m.send(*reply);
  }
}

/// The driver: scatter atomic increments, then gather shard sums.
des::Process driver(Machine& m, std::uint64_t increments) {
  Rng rng(7);
  const auto n_nodes = static_cast<std::uint32_t>(m.nodes.size());

  // Phase 1: histogram build with remote atomic adds.
  for (std::uint64_t i = 0; i < increments; ++i) {
    parcel::Parcel p;
    p.src = 0;
    p.dst = static_cast<parcel::NodeId>(rng.uniform_int(0, n_nodes - 1));
    p.action = parcel::ActionKind::kAmoAdd;
    p.target_vaddr = rng.uniform_int(0, kBinsPerNode - 1) * 8;
    p.operands = {1};
    p.continuation = {0, i};  // ack back to the driver
    m.send(p);
    co_await des::delay(m.sim, 2.0);  // issue rate of the driver
  }
  while (m.replies < increments) co_await des::delay(m.sim, 50.0);
  std::printf("phase 1: %llu atomic increments acknowledged at t=%.0f cycles\n",
              static_cast<unsigned long long>(m.replies), m.sim.now());

  // Phase 2: remote method invocation on every shard object.
  m.replies = 0;
  m.reply_sum = 0;
  for (std::uint32_t node = 0; node < n_nodes; ++node) {
    parcel::Parcel p;
    p.src = 0;
    p.dst = node;
    p.action = parcel::ActionKind::kMethod;
    p.method_id = kShardSumMethod;
    p.continuation = {0, 1000 + node};
    m.send(p);
  }
  while (m.replies < n_nodes) co_await des::delay(m.sim, 50.0);

  std::printf("phase 2: %zu shard-sum method invocations returned %llu "
              "(expected %llu) at t=%.0f cycles\n",
              m.nodes.size(), static_cast<unsigned long long>(m.reply_sum),
              static_cast<unsigned long long>(increments), m.sim.now());
  m.verified = m.reply_sum == increments;
  std::printf("result: %s\n", m.verified ? "histogram verified" : "MISMATCH");
}

}  // namespace

int main() {
  Machine machine(/*n_nodes=*/8, /*round_trip=*/100.0);
  for (std::uint32_t id = 0; id < machine.nodes.size(); ++id) {
    machine.sim.spawn(node_server(machine, id));
  }
  machine.sim.spawn(driver(machine, /*increments=*/2000));
  machine.sim.run_until(1e9);

  std::printf("\nper-node parcels executed:");
  for (const auto& node : machine.nodes) {
    std::printf(" %llu",
                static_cast<unsigned long long>(node.parcels_executed));
  }
  std::printf("\n");
  // Exits non-zero on a mismatch, or when the run never reached the check.
  return machine.verified ? 0 : 1;
}
