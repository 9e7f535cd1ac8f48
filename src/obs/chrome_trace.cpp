#include "obs/chrome_trace.hpp"

#include <algorithm>
#include <bit>
#include <limits>
#include <ostream>
#include <set>

#include "common/json.hpp"

namespace pimsim::obs {

namespace {

// Canonical bytes for one blob; used to order blobs deterministically.
std::string serialize(const TraceBlob& blob) {
  std::string out;
  for (const std::string& label : blob.labels) {
    out += label;
    out.push_back('\0');
  }
  for (const des::TraceRecord& rec : blob.records) {
    std::uint64_t words[4] = {std::bit_cast<std::uint64_t>(rec.time), rec.a, rec.b,
                              (std::uint64_t{rec.label} << 8U) |
                                  static_cast<std::uint64_t>(rec.kind)};
    for (const std::uint64_t w : words) {
      for (int i = 0; i < 8; ++i) out.push_back(static_cast<char>((w >> (8 * i)) & 0xffU));
    }
  }
  return out;
}

void write_meta(std::ostream& os, bool& first, int pid, std::uint64_t tid,
                const char* key, const std::string& value) {
  os << (first ? "\n" : ",\n") << "    {\"name\": \"" << key
     << "\", \"ph\": \"M\", \"pid\": " << pid << ", \"tid\": " << tid
     << ", \"args\": {\"name\": \"" << json_escape(value) << "\"}}";
  first = false;
}

void write_blob(std::ostream& os, bool& first, int pid, const TraceBlob& blob) {
  write_meta(os, first, pid, 0, "process_name", "sim " + std::to_string(pid));
  // Thread tracks: 0 is the kernel/component track; async spans carry their
  // node id in `b`.  std::set iteration is sorted, so metadata order is
  // deterministic.
  std::set<std::uint64_t> tids;
  tids.insert(0);
  for (const des::TraceRecord& rec : blob.records) {
    if (rec.kind == des::TraceKind::kAsyncBegin || rec.kind == des::TraceKind::kAsyncEnd) {
      tids.insert(rec.b);
    }
  }
  for (const std::uint64_t tid : tids) {
    write_meta(os, first, pid, tid, "thread_name",
               tid == 0 ? std::string("kernel") : "node " + std::to_string(tid));
  }
  for (const des::TraceRecord& rec : blob.records) {
    const std::string& raw = blob.labels[rec.label];
    const std::string name = json_escape(raw.empty() ? to_string(rec.kind) : raw);
    os << ",\n    {\"name\": \"" << name << "\", \"ts\": " << rec.time
       << ", \"pid\": " << pid;
    switch (rec.kind) {
      case des::TraceKind::kAsyncBegin:
      case des::TraceKind::kAsyncEnd:
        os << ", \"tid\": " << rec.b << ", \"cat\": \"parcel\", \"ph\": \""
           << (rec.kind == des::TraceKind::kAsyncBegin ? 'b' : 'e')
           << "\", \"id\": " << rec.a;
        break;
      case des::TraceKind::kCounter:
        os << ", \"tid\": 0, \"ph\": \"C\", \"args\": {\"value\": " << rec.a << "}";
        break;
      default:
        os << ", \"tid\": 0, \"cat\": \"kernel\", \"ph\": \"i\", \"s\": \"t\", "
           << "\"args\": {\"kind\": \"" << to_string(rec.kind) << "\", \"a\": " << rec.a;
        // The kernel's own instants carry the event's seq in `b`, which
        // pairs a dispatch with its schedule.
        if (rec.kind == des::TraceKind::kEventScheduled ||
            rec.kind == des::TraceKind::kEventDispatched) {
          os << ", \"b\": " << rec.b;
        }
        os << "}";
        break;
    }
    os << "}";
  }
}

}  // namespace

TraceTotals write_chrome_trace(std::ostream& os, const std::vector<TraceBlob>& blobs) {
  const auto old_precision = os.precision(std::numeric_limits<double>::max_digits10);
  // Order blobs by content so pid assignment ignores completion order.
  std::vector<std::string> keys;
  keys.reserve(blobs.size());
  for (const TraceBlob& b : blobs) keys.push_back(serialize(b));
  std::vector<std::size_t> order(blobs.size());
  for (std::size_t k = 0; k < order.size(); ++k) order[k] = k;
  std::sort(order.begin(), order.end(),
            [&](std::size_t a, std::size_t b) { return keys[a] < keys[b]; });

  TraceTotals totals{blobs.size(), 0, 0};
  os << "{\n  \"traceEvents\": [";
  bool first = true;
  int pid = 0;
  for (const std::size_t k : order) {
    ++pid;
    write_blob(os, first, pid, blobs[k]);
    totals.records += blobs[k].records.size();
    totals.dropped += blobs[k].dropped;
  }
  os << "\n  ],\n  \"displayTimeUnit\": \"ns\",\n  \"pimsim\": {\"schema\": "
        "\"pimsim-trace-v1\", \"simulations\": "
     << totals.simulations << ", \"records\": " << totals.records
     << ", \"dropped\": " << totals.dropped << "}\n}\n";
  os.precision(old_precision);
  return totals;
}

// ---------------------------------------------------------------------------
// TraceHub

void TraceHub::absorb(const des::Tracer& tracer) {
  TraceBlob blob{tracer.labels(), tracer.records(), tracer.dropped()};
  absorb_with([&blob](std::vector<TraceBlob>& blobs) { blobs.push_back(std::move(blob)); });
}

TraceTotals TraceHub::write_json(std::ostream& os) const {
  return write_chrome_trace(os, read([](const std::vector<TraceBlob>& blobs, std::uint64_t) {
                       return blobs;
                     }));
}

}  // namespace pimsim::obs
