// Interconnect latency models.
//
// The paper's parcel study assumes a "flat (fixed delay)" system-wide
// latency; FlatInterconnect implements that.  Ring, 2-D mesh, and 2-D
// torus models are provided for the topology ablation (how sensitive the
// latency-hiding conclusions are to the flat-latency assumption).
//
// All of these are *analytic*: latency is a closed form of the node pair,
// independent of load.  The deliver() seam lets a model override how a
// message actually reaches its destination; the packet-level
// ContentionInterconnect (interconnect/contention.hpp) overrides it to
// route flits through a simulated network where contended links queue.
#pragma once

#include <cstddef>
#include <cstdint>
#include <memory>
#include <string>
#include <type_traits>

#include "common/units.hpp"
#include "des/event_action.hpp"
#include "parcel/parcel.hpp"

namespace pimsim::des {
class Simulation;
}  // namespace pimsim::des

namespace pimsim::obs {
class MetricsRegistry;
}  // namespace pimsim::obs

namespace pimsim::parcel {

/// Latency model between PIM nodes.
class Interconnect {
 public:
  virtual ~Interconnect() = default;

  /// One-way delivery latency from src to dst, in HWP cycles.  For
  /// contention-aware models this is the zero-load latency.
  [[nodiscard]] virtual Cycles one_way_latency(NodeId src, NodeId dst) const = 0;
  [[nodiscard]] virtual const char* name() const = 0;

  /// Round trip src -> dst -> src.
  [[nodiscard]] Cycles round_trip_latency(NodeId src, NodeId dst) const {
    return one_way_latency(src, dst) + one_way_latency(dst, src);
  }

  /// Delivers a `bytes`-byte message from src to dst and, when it
  /// reaches the destination, calls `arrive(ctx, a, b)` — the same 4-word
  /// static-call completion as mem::MemorySystem::access, so delivering
  /// never builds or boxes a closure.  `arrive` may be nullptr (nothing
  /// to notify).  Callers pack what the arrival needs into the words: the
  /// parcel systems pass (mailbox-send thunk, mailbox, src, reply
  /// trigger) for a request and (trigger-fire thunk, trigger, 0, 0) for a
  /// reply.  The analytic default schedules the completion as one
  /// static-call event after one_way_latency(src, dst) — contention-free,
  /// and byte-size independent.  Contention-aware models override this
  /// to inject the message into their simulated network instead.
  virtual void deliver(des::Simulation& sim, NodeId src, NodeId dst,
                       std::size_t bytes, des::EventAction::StaticFn arrive,
                       void* ctx, std::uint64_t a, std::uint64_t b) const;

  /// Convenience for a completion that carries no state (a captureless
  /// lambda such as `[] {}`): forwards to the 4-word form above.
  template <typename F>
    requires(std::is_empty_v<F> && std::is_default_constructible_v<F> &&
             std::is_invocable_v<F&>)
  void deliver(des::Simulation& sim, NodeId src, NodeId dst, std::size_t bytes,
               F /*arrive*/) const {
    deliver(sim, src, dst, bytes,
            [](void*, std::uint64_t, std::uint64_t) { F{}(); }, nullptr, 0,
            0);
  }

  /// Worker processes this model currently has parked in a Simulation
  /// (forever-idle, by design).  Harnesses that audit suspended
  /// processes for hangs (ParcelMachine::run) discount these.  Analytic
  /// models spawn nothing.
  [[nodiscard]] virtual std::size_t idle_processes() const { return 0; }

  /// Publishes end-of-run statistics into a metrics registry (see
  /// src/obs/metrics.hpp).  Harnesses call this after the run, guarded by
  /// Simulation::metrics_enabled(); analytic models publish nothing.
  virtual void collect_metrics(obs::MetricsRegistry& registry) const {
    (void)registry;
  }
};

/// Mean hop count of topology `kind` over independent uniform (src, dst)
/// pairs — the calibration denominator shared by make_interconnect and
/// the packet-level make_contention_interconnect, so the two factories
/// stay latency-compatible by construction.  flat counts its two
/// crossbar links.
[[nodiscard]] double mean_interconnect_hops(const std::string& kind,
                                            std::size_t nodes);

/// Side length of the square grid the factories build for mesh2d/torus
/// kinds; throws InvalidArgument when `nodes` has no integer square root.
[[nodiscard]] std::size_t square_grid_side(const std::string& kind,
                                           std::size_t nodes);

/// The paper's model: every one-way transfer takes the same fixed delay.
class FlatInterconnect final : public Interconnect {
 public:
  /// `round_trip` is the paper's swept "system wide latency" L; each
  /// one-way hop costs L/2.
  explicit FlatInterconnect(Cycles round_trip);

  [[nodiscard]] Cycles one_way_latency(NodeId, NodeId) const override;
  const char* name() const override { return "flat"; }

 private:
  Cycles one_way_;
};

/// Unidirectional-distance ring: latency = base + per_hop * ring distance.
class RingInterconnect final : public Interconnect {
 public:
  RingInterconnect(std::size_t nodes, Cycles base, Cycles per_hop);

  [[nodiscard]] Cycles one_way_latency(NodeId src, NodeId dst) const override;
  const char* name() const override { return "ring"; }

 private:
  std::size_t nodes_;
  Cycles base_;
  Cycles per_hop_;
};

/// 2-D mesh with dimension-ordered routing: base + per_hop * manhattan.
class Mesh2DInterconnect final : public Interconnect {
 public:
  /// Nodes are laid out row-major on a width x height grid; node count
  /// must equal width*height.
  Mesh2DInterconnect(std::size_t width, std::size_t height, Cycles base,
                     Cycles per_hop);

  [[nodiscard]] Cycles one_way_latency(NodeId src, NodeId dst) const override;
  const char* name() const override { return "mesh2d"; }

  [[nodiscard]] std::size_t nodes() const { return width_ * height_; }

 private:
  std::size_t width_;
  std::size_t height_;
  Cycles base_;
  Cycles per_hop_;
};

/// 2-D torus: like the mesh but each dimension wraps, so the per-dimension
/// distance is the shorter way around: base + per_hop * wrapped manhattan.
class Torus2DInterconnect final : public Interconnect {
 public:
  Torus2DInterconnect(std::size_t width, std::size_t height, Cycles base,
                      Cycles per_hop);

  [[nodiscard]] Cycles one_way_latency(NodeId src, NodeId dst) const override;
  const char* name() const override { return "torus"; }

  [[nodiscard]] std::size_t nodes() const { return width_ * height_; }

 private:
  std::size_t width_;
  std::size_t height_;
  Cycles base_;
  Cycles per_hop_;
};

/// Builds an interconnect whose *mean* round trip over uniform random node
/// pairs approximately equals `round_trip` (used so ablation topologies are
/// comparable to the flat model at the same average latency).
///
/// Valid kinds: flat, ring, mesh2d, torus.  Grid kinds require a square
/// node count (width * height == nodes with width == height); violations
/// and unknown kinds throw InvalidArgument naming the alternatives.
[[nodiscard]] std::unique_ptr<Interconnect> make_interconnect(
    const std::string& kind, std::size_t nodes, Cycles round_trip);

}  // namespace pimsim::parcel
