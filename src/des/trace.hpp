// Execution tracing for the simulation kernel.
//
// SES/Workbench offered model animation and trace output; this is the
// equivalent hook.  A Tracer receives structured records for scheduler and
// synchronization activity.  Tracing is disabled by default and costs one
// branch per traced action when off.
//
// Records are POD: the hot path never allocates.  Human-readable names are
// interned once per object into a label table (`intern()` returns a dense
// `LabelId`), and the two payload words `a`/`b` carry kind-specific integers
// (event seqs, async span ids, counter values).  The buffer is bounded:
// records past the capacity are counted in `dropped()` instead of growing
// without limit, so a saturated run cannot OOM.  Keep-first semantics (as
// opposed to ring overwrite) preserve span-begin records for the Chrome
// trace exporter in src/obs/chrome_trace.hpp.
#pragma once

#include <cstdint>
#include <functional>
#include <map>
#include <string>
#include <string_view>
#include <vector>

#include "common/units.hpp"

namespace pimsim::des {

/// Kind of traced kernel action.  Value 2 is unused: it named a retired
/// per-event kernel kind, and the values are part of the trace
/// exporter's blob ordering (obs/chrome_trace.cpp), so none moves.
enum class TraceKind : std::uint8_t {
  kEventScheduled = 0,
  kEventDispatched = 1,
  kProcessSpawned = 3,
  kProcessFinished,
  kResourceAcquire,
  kResourceRelease,
  kResourceEnqueued,
  kMailboxSend,
  kMailboxReceive,
  kCounter,      ///< sampled counter track (value in `a`)
  kAsyncBegin,   ///< async span begin (span id in `a`, track in `b`)
  kAsyncEnd,     ///< async span end (span id in `a`, track in `b`)
  kInstant,      ///< free-form instant marker
};

/// One past the largest TraceKind value (for masks and name tables).
inline constexpr std::size_t kTraceKindCount = 14;
static_assert(static_cast<std::size_t>(TraceKind::kInstant) + 1 == kTraceKindCount);

/// Index into a Tracer's label table.  Label 0 is always the empty string.
using LabelId = std::uint32_t;

/// Sentinel for "not interned yet" lazy label caches at call sites.
inline constexpr LabelId kLabelUninterned = 0xffffffffU;

/// One trace record.  POD, 32 bytes; meaning of `a`/`b` depends on `kind`.
struct TraceRecord {
  SimTime time = 0.0;
  std::uint64_t a = 0;
  std::uint64_t b = 0;
  LabelId label = 0;
  TraceKind kind = TraceKind::kEventDispatched;
};

[[nodiscard]] const char* to_string(TraceKind kind);

/// Trace sink; collects records or forwards them to a user callback.
class Tracer {
 public:
  using Callback = std::function<void(const TraceRecord&)>;

  /// Default record capacity (64 Ki records, ~2 MiB).
  static constexpr std::size_t kDefaultCapacity = std::size_t{1} << 16;

  /// Bitmask enabling every TraceKind (and the unused value 2).
  static constexpr std::uint32_t kAllKinds =
      (std::uint32_t{1} << kTraceKindCount) - 1;

  /// Bitmask excluding the per-event kernel kinds (scheduled /
  /// dispatched), which dominate record volume on any non-trivial run and
  /// would flood the bounded buffer before the interesting tracks appear.
  static constexpr std::uint32_t kDefaultKinds =
      kAllKinds & ~((std::uint32_t{1} << static_cast<unsigned>(TraceKind::kEventScheduled)) |
                    (std::uint32_t{1} << static_cast<unsigned>(TraceKind::kEventDispatched)));

  /// Records into the internal bounded buffer (default) or forwards every
  /// record to `cb` (unbounded; the callback owns retention).
  explicit Tracer(Callback cb = nullptr, std::size_t capacity = kDefaultCapacity);

  /// Interns `name`, returning its stable id.  Idempotent per name.
  [[nodiscard]] LabelId intern(std::string_view name);

  /// Resolves an interned id back to its name.
  [[nodiscard]] const std::string& label(LabelId id) const { return labels_[id]; }

  /// The full label table, indexed by LabelId.
  [[nodiscard]] const std::vector<std::string>& labels() const { return labels_; }

  /// Restricts recording to kinds whose bit is set (see kAllKinds).
  void set_kind_mask(std::uint32_t mask) { mask_ = mask; }
  [[nodiscard]] std::uint32_t kind_mask() const { return mask_; }

  /// Adjusts the record capacity (existing records are kept).
  void set_capacity(std::size_t capacity) { capacity_ = capacity; }
  [[nodiscard]] std::size_t capacity() const { return capacity_; }

  void record(const TraceRecord& rec) {
    if (((mask_ >> static_cast<unsigned>(rec.kind)) & 1U) == 0) return;
    if (callback_) {
      callback_(rec);
      return;
    }
    if (records_.size() >= capacity_) {
      ++dropped_;
      return;
    }
    records_.push_back(rec);
  }

  [[nodiscard]] const std::vector<TraceRecord>& records() const { return records_; }

  /// Records rejected because the buffer was at capacity.
  [[nodiscard]] std::uint64_t dropped() const { return dropped_; }

  /// Drops buffered records and the drop counter; the label table survives
  /// (ids held by call sites stay valid).
  void clear() {
    records_.clear();
    dropped_ = 0;
  }

 private:
  Callback callback_;
  std::size_t capacity_;
  std::uint32_t mask_ = kAllKinds;
  std::uint64_t dropped_ = 0;
  std::vector<TraceRecord> records_;
  std::vector<std::string> labels_;
  std::map<std::string, LabelId, std::less<>> index_;
};

}  // namespace pimsim::des
