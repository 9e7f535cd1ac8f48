// Chrome-trace-event exporter: turns des::Tracer record buffers into the
// JSON Trace Event Format that Perfetto (https://ui.perfetto.dev) and
// chrome://tracing load directly.
//
// Mapping (see docs/OBSERVABILITY.md for the full schema):
//  * kAsyncBegin/kAsyncEnd  -> async spans ("b"/"e"), id = record.a
//    (parcel context), tid = record.b (node) — request->reply lifecycles
//    render as per-node async tracks.
//  * kCounter               -> counter tracks ("C"), value = record.a —
//    bank-queue depth and link occupancy render as graphs.
//  * everything else        -> instant events ("i") on the kernel track.
//
// Each absorbed simulation becomes one "process" (pid); blobs are sorted by
// content fingerprint before pids are assigned, so multi-threaded sweeps
// export bitwise-identical files in any completion order.
#pragma once

#include <cstdint>
#include <iosfwd>
#include <string>
#include <vector>

#include "des/trace.hpp"
#include "obs/hub.hpp"

namespace pimsim::obs {

/// A detached copy of one Tracer's state (records + label table).
struct TraceBlob {
  std::vector<std::string> labels;
  std::vector<des::TraceRecord> records;
  std::uint64_t dropped = 0;
};

/// What a trace document holds, summed over its blobs.
struct TraceTotals {
  std::uint64_t simulations = 0;
  std::uint64_t records = 0;
  std::uint64_t dropped = 0;
};

/// Writes `blobs` as a Chrome trace JSON document ({"traceEvents": [...]}).
TraceTotals write_chrome_trace(std::ostream& os, const std::vector<TraceBlob>& blobs);

/// Process-wide collection point for finished simulations' trace buffers.
class TraceHub : public Hub<TraceHub, std::vector<TraceBlob>> {
 public:
  void absorb(const des::Tracer& tracer);

  /// Exports every absorbed blob, fingerprint-sorted (deterministic).
  TraceTotals write_json(std::ostream& os) const;
};

}  // namespace pimsim::obs
