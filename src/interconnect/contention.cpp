#include "interconnect/contention.hpp"

#include <algorithm>
#include <cmath>
#include <utility>

#include "common/error.hpp"

namespace pimsim::interconnect {

ContentionInterconnect::ContentionInterconnect(Topology topology,
                                               PacketConfig config)
    : topo_(std::move(topology)),
      cfg_(config),
      name_(std::string("packet-") + topo_.name()) {
  cfg_.validate();
}

Cycles ContentionInterconnect::one_way_latency(NodeId src, NodeId dst) const {
  return zero_load_latency(src, dst, 0);  // 0 bytes -> one head flit
}

Cycles ContentionInterconnect::zero_load_latency(NodeId src, NodeId dst,
                                                 std::size_t bytes) const {
  return zero_load_cycles(topo_.hops(src, dst),
                          flit_count(bytes, cfg_.flit_bytes), cfg_);
}

void ContentionInterconnect::bind(des::Simulation& sim) const {
  if (net_ != nullptr) {
    ensure(sim_ == &sim,
           "ContentionInterconnect: already bound to a different Simulation; "
           "build one adapter per run");
    return;
  }
  net_ = std::make_unique<PacketNetwork>(sim, topo_, cfg_);
  sim_ = &sim;
}

void ContentionInterconnect::deliver(des::Simulation& sim, NodeId src,
                                     NodeId dst, std::size_t bytes,
                                     des::EventAction::StaticFn arrive,
                                     void* ctx, std::uint64_t a,
                                     std::uint64_t b) const {
  bind(sim);
  net_->send(src, dst, bytes, arrive, ctx, a, b);
}

void ContentionInterconnect::collect_metrics(obs::MetricsRegistry& registry) const {
  if (net_ != nullptr) net_->collect_metrics(registry);
}

std::unique_ptr<ContentionInterconnect> make_contention_interconnect(
    const std::string& kind, std::size_t nodes, Cycles round_trip,
    PacketConfig config) {
  require(nodes > 0, "make_contention_interconnect: need at least one node");
  require(round_trip >= 0.0,
          "make_contention_interconnect: latency must be non-negative");
  Topology topo = TopologyBuilder::build(kind, nodes);

  // Per-link zero-load cost reproducing the analytic factory's
  // calibration: the shared mean-hop denominator keeps the two factories
  // pairwise latency-compatible by construction (for flat, mean hops is
  // the fixed 2-link crossbar path, giving L/4 per link and L/2 one way;
  // for the others, per_hop is exactly make_interconnect's).
  const double mean_hops = parcel::mean_interconnect_hops(kind, nodes);
  const double hop_cost = (round_trip / 2.0) / std::max(mean_hops, 1.0);

  // Split the per-hop budget: flit_cycle of serialization (capped at the
  // budget so tiny latencies stay exact), the rest as wire propagation,
  // so per-pair latency is exactly hops * hop_cost, matching the analytic
  // models.
  config.flit_cycle = std::min(config.flit_cycle, hop_cost);
  config.link_latency = hop_cost - config.flit_cycle;
  // Size each input buffer to the link's bandwidth-delay product (a
  // credit is held for ~link_latency + 2 flit_cycles): deep calibrated
  // wires would otherwise be credit-starved far below wire bandwidth,
  // and contention should appear as queueing, not as under-buffering.
  // `config.credits` acts as a floor for callers that want deeper buffers.
  if (config.flit_cycle > 0.0) {
    const double bdp =
        (config.link_latency + 2.0 * config.flit_cycle) / config.flit_cycle;
    config.credits = std::max(config.credits,
                              static_cast<std::size_t>(std::ceil(bdp)));
  }
  return std::make_unique<ContentionInterconnect>(std::move(topo), config);
}

}  // namespace pimsim::interconnect
