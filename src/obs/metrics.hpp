// Metrics registry: named counters, time-weighted gauges, and streaming
// summaries that simulator components register into when metrics are
// enabled (`metrics=out.json` on the CLI, an obs::Session with
// RunOptions::metrics, or PIMSIM_METRICS=1 for embedded callers).
//
// Design constraints, in order:
//  * Zero cost when off — components hold null handles and the hot path is
//    one predicted branch (the same contract as audit mode).
//  * Deterministic output — entries live in a sorted std::map, so the dump
//    order is independent of registration order; node stability means the
//    Counter/Gauge/Summary handles components grab at bind time stay valid
//    for the life of the registry.
//  * Mergeable — registries from independent simulations (sweep points,
//    threaded figure sweeps) combine associatively; MetricsHub sorts
//    snapshots by content fingerprint before folding so floating-point
//    merges are bitwise identical at any sweep_threads.
//
// The Summary reuses common/stats.hpp's Welford accumulator and adds a
// 64-bin power-of-two percentile sketch (integer ilogb binning: exact,
// deterministic, monotone) — the cimba-style cmb_datasummary /
// cmb_wtdsummary primitives the ROADMAP's replication item asks for.
#pragma once

#include <cstdint>
#include <iosfwd>
#include <map>
#include <string>
#include <string_view>
#include <vector>

#include "common/stats.hpp"
#include "obs/hub.hpp"

namespace pimsim::obs {

/// Monotone event count.
class Counter {
 public:
  void add(std::uint64_t delta = 1) { value_ += delta; }
  [[nodiscard]] std::uint64_t value() const { return value_; }
  void merge(const Counter& other) { value_ += other.value_; }

 private:
  std::uint64_t value_ = 0;
};

/// Time-weighted level (queue depth, occupancy): tracks the time integral
/// of a piecewise-constant value so mean() weights by duration, not by
/// sample count.
class Gauge {
 public:
  /// Sets the level to `value` at simulation time `t` (non-decreasing).
  void set(double t, double value);
  /// Adjusts the level by `delta` at simulation time `t`.
  void add(double t, double delta) { set(t, value_ + delta); }

  [[nodiscard]] double current() const { return value_; }
  [[nodiscard]] double max() const { return max_; }
  /// Time-weighted mean over the observed span (0 if nothing observed).
  [[nodiscard]] double mean() const { return span_ > 0.0 ? area_ / span_ : value_; }
  [[nodiscard]] double span() const { return span_; }

  void merge(const Gauge& other);

  // Serialization support (cross-process chunk sidecars): the exact
  // merge-relevant state, so a restored gauge merges bit-identically.
  [[nodiscard]] double area() const { return area_; }
  [[nodiscard]] double last_time() const { return last_t_; }
  [[nodiscard]] bool seen() const { return seen_; }
  [[nodiscard]] static Gauge restore(double value, double max, double area,
                                     double span, double last_t, bool seen);

 private:
  double value_ = 0.0;
  double max_ = 0.0;
  double area_ = 0.0;
  double span_ = 0.0;
  double last_t_ = 0.0;
  bool seen_ = false;
};

/// Streaming sample summary: Welford mean/variance/min/max plus a fixed
/// 64-bin power-of-two histogram for percentile queries.
class Summary {
 public:
  static constexpr std::size_t kBins = 64;

  void add(double x);

  [[nodiscard]] const RunningStats& stats() const { return stats_; }
  [[nodiscard]] std::uint64_t count() const { return static_cast<std::uint64_t>(stats_.count()); }

  /// Upper edge of the bin where the cumulative count crosses q, clamped
  /// to [min, max].  Coarse (power-of-two resolution) but exact and
  /// deterministic.
  [[nodiscard]] double quantile(double q) const;

  void merge(const Summary& other);

  /// Bin index for a sample: 0 for x < 1, else min(63, ilogb(x) + 1).
  [[nodiscard]] static std::size_t bin_of(double x);

  [[nodiscard]] const std::uint64_t* bins() const { return bins_; }

  /// Reconstitutes a summary from its exact accumulator state (the
  /// counterpart of RunningStats::restore, for chunk sidecars).
  [[nodiscard]] static Summary restore(const RunningStats& stats,
                                       const std::uint64_t* bins);

 private:
  RunningStats stats_;
  std::uint64_t bins_[kBins] = {};
};

enum class MetricKind : std::uint8_t { kCounter, kGauge, kSummary };

[[nodiscard]] const char* to_string(MetricKind kind);

/// Named metric store.  find-or-create accessors return stable references;
/// requesting an existing name with a different kind throws LogicError.
class MetricsRegistry {
 public:
  [[nodiscard]] Counter& counter(std::string_view name);
  [[nodiscard]] Gauge& gauge(std::string_view name);
  [[nodiscard]] Summary& summary(std::string_view name);

  [[nodiscard]] std::size_t size() const { return entries_.size(); }
  [[nodiscard]] bool empty() const { return entries_.empty(); }

  /// Folds `other` into this registry (entry-wise merge by name).
  void merge(const MetricsRegistry& other);

  /// Self-describing JSON dump (schema "pimsim-metrics-v1").
  void write_json(std::ostream& os, std::uint64_t simulations) const;

  /// CSV dump: one row per metric, empty cells where a column does not
  /// apply to the metric's kind.
  void write_csv(std::ostream& os) const;

  /// FNV-1a hash over the canonical byte serialization; equal content
  /// (bitwise, including double payloads) hashes equal regardless of
  /// registration order.
  [[nodiscard]] std::uint64_t fingerprint() const;

  /// Rebuilds a registry from serialize()'s canonical bytes.  The round
  /// trip is exact — the restored registry serializes to the same bytes
  /// and merges bit-identically — which is what lets sharded sweep
  /// processes ship their per-simulation snapshots through chunk
  /// sidecars and refold them in the merge process.  Throws ConfigError
  /// on truncated or malformed input.
  [[nodiscard]] static MetricsRegistry deserialize(std::string_view bytes);

 private:
  struct Entry {
    MetricKind kind = MetricKind::kCounter;
    Counter counter;
    Gauge gauge;
    Summary summary;
  };

  Entry& entry(std::string_view name, MetricKind kind);

  friend class MetricsHub;
  [[nodiscard]] std::string serialize() const;

  std::map<std::string, Entry, std::less<>> entries_;
};

/// Process-wide collection point.  Each Simulation with metrics enabled
/// absorbs its registry here at destruction; `aggregate()` folds the
/// snapshots into one registry in fingerprint-sorted order, so the result
/// is bitwise identical no matter which thread finished first.
class MetricsHub : public Hub<MetricsHub, std::vector<MetricsRegistry>> {
 public:
  void absorb(const MetricsRegistry& registry);

  /// Deterministic fold of every absorbed registry.
  [[nodiscard]] MetricsRegistry aggregate() const;

  /// Canonical bytes of every absorbed per-simulation snapshot, sorted —
  /// what a sharded sweep embeds in its chunk sidecar so the merge
  /// process can refold across process boundaries.
  [[nodiscard]] std::vector<std::string> snapshot_bytes() const;
  /// Reinstates one snapshot serialized by snapshot_bytes() (counts as
  /// one absorbed simulation).  Throws ConfigError on malformed bytes.
  void absorb_bytes(std::string_view bytes);

  void write_json(std::ostream& os) const;
  void write_csv(std::ostream& os) const;
};

}  // namespace pimsim::obs
