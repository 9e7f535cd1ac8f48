#include "parcel/runtime.hpp"

#include "common/error.hpp"
#include "obs/metrics.hpp"

namespace pimsim::parcel {

std::uint64_t RequestHandle::value() const {
  require(state_->done, "RequestHandle::value: request not completed");
  require(state_->value.has_value(),
          "RequestHandle::value: action returned no value");
  return *state_->value;
}

ParcelMachine::ParcelMachine(des::Simulation& sim, std::size_t nodes,
                             const Interconnect& net, RuntimeCosts costs,
                             const mem::MemorySystem* memory)
    : sim_(sim), net_(net), costs_(costs), memory_(memory) {
  require(nodes > 0, "ParcelMachine: need at least one node");
  require(costs.dispatch >= 0.0 && costs.memory_access >= 0.0 &&
              costs.reply_issue >= 0.0,
          "ParcelMachine: costs must be non-negative");
  nodes_.reserve(nodes);
  for (std::size_t i = 0; i < nodes; ++i) {
    nodes_.push_back(std::make_unique<Node>(sim, static_cast<std::uint32_t>(i)));
    sim_.spawn(engine(*nodes_.back(), static_cast<NodeId>(i)));
  }
  if (sim_.metrics_enabled()) {
    m_rtt_ = &sim_.metrics().summary("parcel.request_rtt_cycles");
    m_requests_ = &sim_.metrics().counter("parcel.requests");
  }
  if (sim_.tracing_enabled()) lbl_request_ = sim_.trace_label("parcel.request");
}

RequestHandle ParcelMachine::request(NodeId src, Parcel parcel) {
  require(src < nodes_.size(), "ParcelMachine::request: bad source node");
  require(parcel.dst < nodes_.size(), "ParcelMachine::request: bad target node");
  auto state = std::make_shared<RequestHandle::State>(sim_);
  const std::uint64_t context = next_context_++;
  parcel.src = src;
  parcel.continuation = Continuation{src, context};
  state->issued_at = sim_.now();
  if (m_requests_ != nullptr) m_requests_->add();
  if (sim_.tracing_enabled()) {
    sim_.trace(des::TraceKind::kAsyncBegin, lbl_request_, context, src);
  }
  pending_.emplace(context, state);
  ship(std::move(parcel));
  return RequestHandle(std::move(state));
}

void ParcelMachine::post(NodeId src, Parcel parcel) {
  require(src < nodes_.size(), "ParcelMachine::post: bad source node");
  require(parcel.dst < nodes_.size(), "ParcelMachine::post: bad target node");
  parcel.src = src;
  // Continuation node is set but context 0 marks fire-and-forget: the
  // engine drops any result instead of replying.
  parcel.continuation = Continuation{src, 0};
  ship(std::move(parcel));
}

MemoryStore& ParcelMachine::store(NodeId node) {
  require(node < nodes_.size(), "ParcelMachine::store: bad node");
  return nodes_[node]->store;
}

const RuntimeNodeStats& ParcelMachine::node_stats(NodeId node) const {
  require(node < nodes_.size(), "ParcelMachine::node_stats: bad node");
  return nodes_[node]->stats;
}

std::uint64_t ParcelMachine::total_bytes_on_wire() const {
  std::uint64_t total = 0;
  for (const auto& n : nodes_) total += n->stats.bytes_sent;
  return total;
}

void ParcelMachine::collect_metrics(obs::MetricsRegistry& registry) const {
  std::uint64_t executed = 0;
  std::uint64_t replies = 0;
  std::uint64_t sent = 0;
  std::uint64_t received = 0;
  for (const auto& n : nodes_) {
    executed += n->stats.parcels_executed;
    replies += n->stats.replies_returned;
    sent += n->stats.bytes_sent;
    received += n->stats.bytes_received;
  }
  registry.counter("parcel.executed").add(executed);
  registry.counter("parcel.replies").add(replies);
  registry.counter("parcel.bytes_sent").add(sent);
  registry.counter("parcel.bytes_received").add(received);
}

void ParcelMachine::ship(Parcel parcel) {
  auto bytes = serialize(parcel);
  const std::size_t wire_bytes = bytes.size();
  nodes_[parcel.src]->stats.bytes_sent += wire_bytes;
  std::uint32_t slot;
  if (wire_free_.empty()) {
    slot = static_cast<std::uint32_t>(wire_.size());
    wire_.push_back(std::move(bytes));
  } else {
    slot = wire_free_.back();
    wire_free_.pop_back();
    wire_[slot] = std::move(bytes);
  }
  // The interconnect seam: analytic models schedule the arrival after
  // their closed-form latency; the packet-level model segments the wire
  // image into flits and delivers when the last one lands.
  net_.deliver(sim_, parcel.src, parcel.dst, wire_bytes, &ParcelMachine::arrive,
               this, slot, parcel.dst);
}

void ParcelMachine::arrive(void* machine, std::uint64_t slot,
                           std::uint64_t dst) {
  auto& m = *static_cast<ParcelMachine*>(machine);
  m.nodes_[dst]->inbox->send(std::move(m.wire_[slot]));
  m.wire_free_.push_back(static_cast<std::uint32_t>(slot));
}

des::Process ParcelMachine::engine(Node& node, NodeId id) {
  while (true) {
    const auto bytes = co_await node.inbox->receive();
    node.stats.bytes_received += bytes.size();
    const Parcel parcel = deserialize(bytes);

    if (parcel.action == ActionKind::kReply) {
      auto it = pending_.find(parcel.continuation.context);
      if (it != pending_.end()) {
        it->second->done = true;
        if (!parcel.operands.empty()) it->second->value = parcel.operands[0];
        if (m_rtt_ != nullptr) m_rtt_->add(sim_.now() - it->second->issued_at);
        if (sim_.tracing_enabled()) {
          sim_.trace(des::TraceKind::kAsyncEnd, lbl_request_,
                     parcel.continuation.context, id);
        }
        it->second->trigger.fire();
        pending_.erase(it);
      }
      continue;
    }

    if (memory_ != nullptr) {
      // Decode/dispatch is engine time; the row access itself goes
      // through the memory seam, addressed by the parcel's target
      // operand so co-located data shares banks and rows honestly.
      co_await des::delay(sim_, costs_.dispatch);
      const std::uint64_t addr =
          parcel.operands.empty() ? 0 : parcel.operands[0];
      co_await mem::AccessAwaitable{*memory_, sim_, id, addr,
                                    mem::AccessKind::kLwpRow};
    } else {
      co_await des::delay(sim_, costs_.dispatch + costs_.memory_access);
    }
    ++node.stats.parcels_executed;
    auto reply = execute_action(parcel, node.store, registry_);
    // Context 0 marks a posted (fire-and-forget) parcel: drop the result.
    if (parcel.continuation.context != 0) {
      if (!reply.has_value()) {
        // Void action with a waiting requester: acknowledge with an
        // empty-operand reply so the split transaction always completes
        // (a request() for a value-less action used to hang forever).
        reply = make_reply(parcel, std::nullopt);
      }
      co_await des::delay(sim_, costs_.reply_issue);
      ++node.stats.replies_returned;
      ship(*reply);
    }
  }
}

void ParcelMachine::run(std::size_t extra_idle_processes) {
  sim_.run();
  if (sim_.metrics_enabled()) {
    obs::MetricsRegistry& registry = sim_.metrics();
    collect_metrics(registry);
    net_.collect_metrics(registry);
    if (memory_ != nullptr) memory_->collect_metrics(registry);
  }
  if (!pending_.empty()) {
    throw LogicError("ParcelMachine::run: simulation went idle with " +
                     std::to_string(pending_.size()) +
                     " request(s) still awaiting a reply (hung split "
                     "transaction)");
  }
  // Engines (and declared extra idlers) legitimately park on their
  // inboxes forever, as do any worker processes the interconnect model
  // itself spawned (a packet-level network parks one per link); anything
  // beyond them is a driver that suspended and was never resumed.
  const std::size_t expected_idle =
      nodes_.size() + extra_idle_processes + net_.idle_processes();
  if (sim_.live_processes() > expected_idle) {
    throw LogicError(
        "ParcelMachine::run: simulation went idle with " +
        std::to_string(sim_.live_processes() - expected_idle) +
        " driver process(es) still suspended (deadlocked model)");
  }
}

}  // namespace pimsim::parcel
