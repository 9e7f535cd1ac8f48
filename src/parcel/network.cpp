#include "parcel/network.hpp"

#include <algorithm>
#include <cmath>
#include <cstdlib>

#include "common/error.hpp"
#include "des/simulation.hpp"

namespace pimsim::parcel {

void Interconnect::deliver(des::Simulation& sim, NodeId src, NodeId dst,
                           std::size_t /*bytes*/,
                           des::EventAction::StaticFn arrive, void* ctx,
                           std::uint64_t a, std::uint64_t b) const {
  if (arrive == nullptr) return;  // nothing observes the arrival
  sim.schedule_static_at(sim.now() + one_way_latency(src, dst), arrive, ctx,
                         a, b);
}

FlatInterconnect::FlatInterconnect(Cycles round_trip)
    : one_way_(round_trip / 2.0) {
  require(round_trip >= 0.0, "FlatInterconnect: latency must be non-negative");
}

Cycles FlatInterconnect::one_way_latency(NodeId, NodeId) const { return one_way_; }

RingInterconnect::RingInterconnect(std::size_t nodes, Cycles base, Cycles per_hop)
    : nodes_(nodes), base_(base), per_hop_(per_hop) {
  require(nodes > 0, "RingInterconnect: need at least one node");
  require(base >= 0.0 && per_hop >= 0.0,
          "RingInterconnect: latencies must be non-negative");
}

Cycles RingInterconnect::one_way_latency(NodeId src, NodeId dst) const {
  require(src < nodes_ && dst < nodes_, "RingInterconnect: node out of range");
  // Unidirectional ring: hops from src forward to dst.
  const std::size_t hops = (dst + nodes_ - src) % nodes_;
  return base_ + per_hop_ * static_cast<double>(hops);
}

Mesh2DInterconnect::Mesh2DInterconnect(std::size_t width, std::size_t height,
                                       Cycles base, Cycles per_hop)
    : width_(width), height_(height), base_(base), per_hop_(per_hop) {
  require(width > 0 && height > 0, "Mesh2DInterconnect: empty grid");
  require(base >= 0.0 && per_hop >= 0.0,
          "Mesh2DInterconnect: latencies must be non-negative");
}

Cycles Mesh2DInterconnect::one_way_latency(NodeId src, NodeId dst) const {
  require(src < nodes() && dst < nodes(), "Mesh2DInterconnect: node out of range");
  const auto sx = static_cast<long>(src % width_);
  const auto sy = static_cast<long>(src / width_);
  const auto dx = static_cast<long>(dst % width_);
  const auto dy = static_cast<long>(dst / width_);
  const long manhattan = std::labs(sx - dx) + std::labs(sy - dy);
  return base_ + per_hop_ * static_cast<double>(manhattan);
}

Torus2DInterconnect::Torus2DInterconnect(std::size_t width, std::size_t height,
                                         Cycles base, Cycles per_hop)
    : width_(width), height_(height), base_(base), per_hop_(per_hop) {
  require(width > 0 && height > 0, "Torus2DInterconnect: empty grid");
  require(base >= 0.0 && per_hop >= 0.0,
          "Torus2DInterconnect: latencies must be non-negative");
}

Cycles Torus2DInterconnect::one_way_latency(NodeId src, NodeId dst) const {
  require(src < nodes() && dst < nodes(),
          "Torus2DInterconnect: node out of range");
  const std::size_t sx = src % width_;
  const std::size_t sy = src / width_;
  const std::size_t dx = dst % width_;
  const std::size_t dy = dst / width_;
  const std::size_t fx = (dx + width_ - sx) % width_;
  const std::size_t fy = (dy + height_ - sy) % height_;
  const std::size_t hx = std::min(fx, width_ - fx);
  const std::size_t hy = std::min(fy, height_ - fy);
  return base_ + per_hop_ * static_cast<double>(hx + hy);
}

std::size_t square_grid_side(const std::string& kind, std::size_t nodes) {
  const auto width = static_cast<std::size_t>(
      std::llround(std::sqrt(static_cast<double>(nodes))));
  if (width * width != nodes) {
    throw InvalidArgument(kind +
                          " needs a square node count (width * height == "
                          "nodes with width == height); got " +
                          std::to_string(nodes));
  }
  return width;
}

double mean_interconnect_hops(const std::string& kind, std::size_t nodes) {
  require(nodes > 0, "mean_interconnect_hops: need at least one node");
  if (kind == "flat") {
    return 2.0;  // every path crosses the crossbar: up and back down
  }
  if (kind == "ring") {
    // Mean one-way distance over uniform random pairs (src and dst drawn
    // independently, as the functional machine's address sharding does):
    // forward hops are uniform over {0, ..., nodes-1}, so the mean is
    // (nodes-1)/2 — not nodes/2, which understated per-hop latency,
    // noticeably so for small rings.
    return static_cast<double>(nodes - 1) / 2.0;
  }
  if (kind == "mesh2d") {
    // Mean manhattan distance on a w x w grid is ~ 2w/3.
    const std::size_t width = square_grid_side(kind, nodes);
    return 2.0 * static_cast<double>(width) / 3.0;
  }
  if (kind == "torus" || kind == "torus2d") {
    // Mean wrapped distance per dimension over independent uniform
    // endpoints is floor(w^2/4)/w, so the mean hop count is twice that.
    const std::size_t width = square_grid_side(kind, nodes);
    return 2.0 * static_cast<double>((width * width) / 4) /
           static_cast<double>(width);
  }
  throw InvalidArgument("mean_interconnect_hops: unknown kind '" + kind +
                        "'; valid kinds are flat, ring, mesh2d, torus");
}

std::unique_ptr<Interconnect> make_interconnect(const std::string& kind,
                                                std::size_t nodes,
                                                Cycles round_trip) {
  require(nodes > 0, "make_interconnect: need at least one node");
  if (kind == "flat") {
    return std::make_unique<FlatInterconnect>(round_trip);
  }
  if (kind == "ring") {
    const double mean_hops = mean_interconnect_hops(kind, nodes);
    const Cycles per_hop = (round_trip / 2.0) / std::max(mean_hops, 1.0);
    return std::make_unique<RingInterconnect>(nodes, 0.0, per_hop);
  }
  if (kind == "mesh2d") {
    const std::size_t width = square_grid_side(kind, nodes);
    const double mean_hops = mean_interconnect_hops(kind, nodes);
    const Cycles per_hop = (round_trip / 2.0) / std::max(mean_hops, 1.0);
    return std::make_unique<Mesh2DInterconnect>(width, width, 0.0, per_hop);
  }
  if (kind == "torus") {
    const std::size_t width = square_grid_side(kind, nodes);
    const double mean_hops = mean_interconnect_hops(kind, nodes);
    const Cycles per_hop = (round_trip / 2.0) / std::max(mean_hops, 1.0);
    return std::make_unique<Torus2DInterconnect>(width, width, 0.0, per_hop);
  }
  throw InvalidArgument("make_interconnect: unknown kind '" + kind +
                        "'; valid kinds are flat, ring, mesh2d, torus");
}

}  // namespace pimsim::parcel
