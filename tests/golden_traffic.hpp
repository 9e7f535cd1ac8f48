// Shared traffic program for the packet-network golden-timing tests.
//
// Drives a deterministic mix of uniform and hotspot traffic through a
// PacketNetwork-compatible model and summarizes the exact delivery times.
// The same program generated the recording baked into
// test_interconnect_golden.cpp, so any timing drift in the engine —
// arbitration order, backpressure, coalescing — shows up as a mismatch.
//
// Kept header-only and templated on the network type so a reference
// implementation can be driven by the identical code.
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "common/rng.hpp"
#include "common/stats.hpp"
#include "des/process.hpp"
#include "des/simulation.hpp"
#include "interconnect/packet.hpp"
#include "interconnect/topology.hpp"

namespace pimsim::interconnect::golden {

/// Exact observables of one golden run.  `delivery_hash` is FNV-1a over
/// the bit patterns of every packet's delivery time in injection order —
/// a compact bit-identity witness for the full timing vector.
struct GoldenSummary {
  std::uint64_t delivered = 0;
  std::uint64_t flit_hops = 0;
  double max_latency = 0.0;
  std::uint64_t delivery_hash = 0;
  std::vector<double> first_deliveries;  ///< spot values for diagnostics
  std::vector<std::pair<std::size_t, std::uint64_t>> hist_bins;  ///< nonzero
};

/// Delivery completion for the packet-network tests: stores sim.now()
/// into the double that `out` points to.  Pass as
/// `(&stamp_now, &sim, stamp_slot(&x), 0)`.
inline void stamp_now(void* sim, std::uint64_t out, std::uint64_t) {
  *reinterpret_cast<double*>(static_cast<std::uintptr_t>(out)) =
      static_cast<des::Simulation*>(sim)->now();
}
inline std::uint64_t stamp_slot(double* out) {
  return static_cast<std::uint64_t>(reinterpret_cast<std::uintptr_t>(out));
}

inline std::uint64_t fnv1a(std::uint64_t h, std::uint64_t x) {
  for (int i = 0; i < 8; ++i) {
    h ^= (x >> (8 * i)) & 0xffu;
    h *= 0x100000001b3ULL;
  }
  return h;
}

/// One generator per node; node ids congruent to 1 mod 4 blast the
/// hotspot victim (node 0), the rest send to uniform random peers.
/// Message sizes span 0..6 flits at 16 B/flit; inter-send gaps of 1..7
/// cycles hold the network in sustained (but drainable) contention.
template <typename Network>
des::Process golden_generator(des::Simulation& sim, Network& net, NodeId src,
                              Rng rng, int packets, double gap_scale,
                              std::vector<double>* deliveries,
                              std::size_t slot0) {
  const auto nodes = static_cast<std::uint64_t>(net.topology().nodes());
  for (int i = 0; i < packets; ++i) {
    NodeId dst;
    if (src % 4 == 1) {
      dst = 0;  // hotspot sources
    } else {
      dst = static_cast<NodeId>(rng.uniform_int(0, nodes - 1));
    }
    const std::size_t bytes = rng.uniform_int(0, 96);
    const std::size_t slot = slot0 + static_cast<std::size_t>(i);
    net.send(src, dst, bytes, &stamp_now, &sim,
             stamp_slot(&(*deliveries)[slot]), 0);
    co_await des::delay(sim, gap_scale * (1.0 + static_cast<double>(
                                                    rng.uniform_int(0, 6))));
  }
}

/// Runs the golden program on `net` (already bound to `sim`) and
/// summarizes.  `packets` per node; `gap_scale` stretches the injection
/// gaps (1.0 = the recorded contention level).
template <typename Network>
GoldenSummary run_golden(des::Simulation& sim, Network& net, int packets,
                         double gap_scale, std::uint64_t seed) {
  const std::size_t nodes = net.topology().nodes();
  std::vector<double> deliveries(nodes * static_cast<std::size_t>(packets),
                                 -1.0);
  Rng root(seed, /*stream_id=*/0x601d);
  for (std::size_t n = 0; n < nodes; ++n) {
    sim.spawn(golden_generator(sim, net, static_cast<NodeId>(n), root.split(n),
                               packets, gap_scale, &deliveries,
                               n * static_cast<std::size_t>(packets)));
  }
  sim.run();

  GoldenSummary s;
  s.delivered = net.packets_delivered();
  s.flit_hops = net.flit_hops();
  s.max_latency = net.latency_stats().max();
  std::uint64_t h = 0xcbf29ce484222325ULL;
  for (double d : deliveries) {
    std::uint64_t bits;
    static_assert(sizeof(bits) == sizeof(d));
    __builtin_memcpy(&bits, &d, sizeof(bits));
    h = fnv1a(h, bits);
  }
  s.delivery_hash = h;
  for (std::size_t i = 0; i < deliveries.size() && i < 8; ++i) {
    s.first_deliveries.push_back(deliveries[i]);
  }
  const Histogram& hist = net.latency_histogram();
  for (std::size_t b = 0; b < hist.bins(); ++b) {
    if (hist.bin_count(b) > 0) {
      s.hist_bins.emplace_back(b, hist.bin_count(b));
    }
  }
  return s;
}

/// The four recorded topologies at 16 nodes.
inline Topology golden_topology(const std::string& kind) {
  return TopologyBuilder::build(kind, 16);
}

/// Injection-gap stretch per topology.  The unidirectional ring has no
/// virtual channels, so sustained overload deadlocks its wrap cycle (a
/// documented model limitation); its recording runs at a load where the
/// run drains while still queueing transiently.
inline double golden_gap_scale(const std::string& kind) {
  return kind == "ring" ? 20.0 : 1.0;
}

/// The recorded config: integer timings (exact double arithmetic), deep
/// enough credits that ejection links never credit-starve.
inline PacketConfig golden_config() {
  PacketConfig cfg;
  cfg.flit_bytes = 16;
  cfg.flit_cycle = 1.0;
  cfg.link_latency = 3.0;
  cfg.credits = 8;
  return cfg;
}

}  // namespace pimsim::interconnect::golden
