// Contention-aware drop-in for the analytic parcel::Interconnect models.
//
// ContentionInterconnect plugs a PacketNetwork in behind the Interconnect
// seam: one_way_latency() reports the zero-load (single head flit) latency
// of the topology, and deliver() segments the message into flits and
// injects them into the simulated network, where contended links queue.
// With a single message in flight the delivered latency equals the
// analytic model's closed form; under load it diverges — which is exactly
// what the topology/injection-rate ablations measure.
//
// The adapter is constructed unbound and attaches itself to the first
// des::Simulation that delivers through it (the parcel systems build their
// Simulation after their Interconnect, so the network must be spawned
// lazily).  One instance serves exactly one Simulation; reusing it in a
// second Simulation throws LogicError — build a fresh adapter per run.
//
// The packet network is event-driven (no worker processes), so harnesses
// that audit suspended processes (ParcelMachine::run) see nothing extra:
// idle_processes() is 0.
#pragma once

#include <memory>
#include <string>

#include "interconnect/network.hpp"
#include "interconnect/packet.hpp"
#include "interconnect/topology.hpp"
#include "parcel/network.hpp"

namespace pimsim::interconnect {

class ContentionInterconnect final : public parcel::Interconnect {
 public:
  explicit ContentionInterconnect(Topology topology, PacketConfig config = {});

  /// Zero-load latency of a single-flit message (the contention model's
  /// analytic degenerate: head flit pays every hop, nothing queues).
  [[nodiscard]] Cycles one_way_latency(NodeId src, NodeId dst) const override;
  const char* name() const override { return name_.c_str(); }

  /// Injects the message into the packet network (binding to `sim` on
  /// first use); `arrive(ctx, a, b)` runs when the last flit reaches dst.
  void deliver(des::Simulation& sim, NodeId src, NodeId dst, std::size_t bytes,
               des::EventAction::StaticFn arrive, void* ctx, std::uint64_t a,
               std::uint64_t b) const override;
  using parcel::Interconnect::deliver;

  /// Spawns the packet network into `sim` eagerly (deliver() binds
  /// lazily; binding up front lets callers inspect network() first).
  void bind(des::Simulation& sim) const;

  /// The live network, or nullptr before the first deliver()/bind().
  [[nodiscard]] PacketNetwork* network() const { return net_.get(); }

  /// Contention-free latency of a `bytes`-byte message (closed form).
  [[nodiscard]] Cycles zero_load_latency(NodeId src, NodeId dst,
                                         std::size_t bytes) const;

  /// The event-driven network parks no processes; the base-class default
  /// (0) is already right, restated here so the intent is explicit.
  [[nodiscard]] std::size_t idle_processes() const override { return 0; }

  /// Delegates to PacketNetwork::collect_metrics (no-op before bind()).
  void collect_metrics(obs::MetricsRegistry& registry) const override;

  [[nodiscard]] const Topology& topology() const { return topo_; }
  [[nodiscard]] const PacketConfig& config() const { return cfg_; }

 private:
  Topology topo_;
  PacketConfig cfg_;
  std::string name_;
  // Bound lazily on first deliver(): the adapter outlives no Simulation,
  // it just has to be constructible before one exists.
  mutable std::unique_ptr<PacketNetwork> net_;
  mutable des::Simulation* sim_ = nullptr;
};

/// Packet-level counterpart of the analytic make_interconnect factory:
/// same topology names (flat, ring, mesh2d, torus), calibrated so the
/// zero-load single-flit latency of every node pair equals the analytic
/// model's one_way_latency for the same (kind, nodes, round_trip) — the
/// per-hop budget is split into flit_cycle serialization plus link
/// propagation.  flit_bytes and histogram settings are taken from
/// `config`; `config.credits` is a
/// floor, raised to the calibrated link's bandwidth-delay product so the
/// wires can reach full utilization before backpressure sets in.
[[nodiscard]] std::unique_ptr<ContentionInterconnect> make_contention_interconnect(
    const std::string& kind, std::size_t nodes, Cycles round_trip,
    PacketConfig config = {});

}  // namespace pimsim::interconnect
