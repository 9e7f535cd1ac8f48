// Flit-level message framing for the packet interconnect.
//
// A parcel (or any message) entering the packet network is segmented into
// flits — fixed-size flow-control units.  The head flit carries the route;
// body flits follow it hop by hop.  Segmentation is the only place where a
// message's byte size matters to the network: everything downstream (link
// serialization, credit accounting, buffer occupancy) is per-flit.
#pragma once

#include <cstddef>

#include "common/error.hpp"
#include "common/units.hpp"

namespace pimsim::interconnect {

/// Number of flits needed to carry `bytes` of payload.  A zero-byte
/// message still occupies one (head) flit.
[[nodiscard]] constexpr std::size_t flit_count(std::size_t bytes,
                                               std::size_t flit_bytes) {
  return bytes == 0 ? 1 : (bytes + flit_bytes - 1) / flit_bytes;
}

/// Timing and flow-control parameters of the packet network.
///
/// Zero-load end-to-end latency of an F-flit packet over a path of H links
/// (H >= 1) is
///
///   H * (flit_cycle + link_latency) + (F - 1) * flit_cycle
///
/// (head flit pays every hop; body flits pipeline behind it at one flit
/// per flit_cycle), provided `credits` is large enough that an otherwise
/// idle path never stalls the pipeline.
struct PacketConfig {
  std::size_t flit_bytes = 16;  ///< payload bytes per flit
  Cycles flit_cycle = 1.0;      ///< link serialization time per flit
  Cycles link_latency = 1.0;    ///< link propagation delay
  std::size_t credits = 8;      ///< input-buffer slots per link (flow control)
  double hist_max = 16384.0;    ///< latency histogram upper edge (cycles)
  std::size_t hist_bins = 128;  ///< latency histogram bin count

  void validate() const {
    require(flit_bytes > 0, "PacketConfig: flit_bytes must be positive");
    require(flit_cycle >= 0.0 && link_latency >= 0.0,
            "PacketConfig: latencies must be non-negative");
    require(credits > 0, "PacketConfig: need at least one credit per link");
    require(hist_max > 0.0 && hist_bins > 0, "PacketConfig: bad histogram");
  }
};

/// The zero-load closed form above, shared by PacketNetwork (whose DES
/// reproduces it bit-exactly for integer-valued timings) and the
/// ContentionInterconnect adapter's analytic-facing queries.
[[nodiscard]] inline Cycles zero_load_cycles(std::size_t hops,
                                             std::size_t flits,
                                             const PacketConfig& cfg) {
  if (hops == 0) return 0.0;
  return static_cast<double>(hops) * (cfg.flit_cycle + cfg.link_latency) +
         (static_cast<double>(flits) - 1.0) * cfg.flit_cycle;
}

}  // namespace pimsim::interconnect
