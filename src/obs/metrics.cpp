#include "obs/metrics.hpp"

#include <algorithm>
#include <bit>
#include <cmath>
#include <limits>
#include <ostream>
#include <vector>

#include "common/error.hpp"
#include "common/json.hpp"

namespace pimsim::obs {

namespace {

constexpr std::uint64_t kFnvOffset = 1469598103934665603ULL;
constexpr std::uint64_t kFnvPrime = 1099511628211ULL;

std::uint64_t fnv1a(std::string_view bytes) {
  std::uint64_t h = kFnvOffset;
  for (const char c : bytes) {
    h ^= static_cast<unsigned char>(c);
    h *= kFnvPrime;
  }
  return h;
}

void put_u64(std::string& out, std::uint64_t v) {
  for (int i = 0; i < 8; ++i) {
    out.push_back(static_cast<char>(v & 0xffU));
    v >>= 8U;
  }
}

void put_f64(std::string& out, double v) { put_u64(out, std::bit_cast<std::uint64_t>(v)); }

}  // namespace

// ---------------------------------------------------------------------------
// Gauge

void Gauge::set(double t, double value) {
  if (!seen_) {
    last_t_ = t;
    seen_ = true;
  }
  ensure(t >= last_t_, "Gauge::set: time must be non-decreasing");
  area_ += value_ * (t - last_t_);
  span_ += t - last_t_;
  last_t_ = t;
  value_ = value;
  if (value > max_) max_ = value;
}

void Gauge::merge(const Gauge& other) {
  area_ += other.area_;
  span_ += other.span_;
  if (other.max_ > max_) max_ = other.max_;
  if (!seen_ && other.seen_) {
    value_ = other.value_;
    last_t_ = other.last_t_;
    seen_ = true;
  }
}

Gauge Gauge::restore(double value, double max, double area, double span,
                     double last_t, bool seen) {
  Gauge g;
  g.value_ = value;
  g.max_ = max;
  g.area_ = area;
  g.span_ = span;
  g.last_t_ = last_t;
  g.seen_ = seen;
  return g;
}

// ---------------------------------------------------------------------------
// Summary

std::size_t Summary::bin_of(double x) {
  // Bin 0 holds x < 1 (and non-finite junk); bin k >= 1 holds [2^(k-1), 2^k).
  if (!(x >= 1.0)) return 0;
  const int e = std::ilogb(x) + 1;
  return static_cast<std::size_t>(std::min(e, static_cast<int>(kBins) - 1));
}

void Summary::add(double x) {
  stats_.add(x);
  ++bins_[bin_of(x)];
}

double Summary::quantile(double q) const {
  const std::uint64_t n = count();
  if (n == 0) return 0.0;
  q = std::clamp(q, 0.0, 1.0);
  const double target = q * static_cast<double>(n);
  std::uint64_t cum = 0;
  for (std::size_t k = 0; k < kBins; ++k) {
    cum += bins_[k];
    if (cum > 0 && static_cast<double>(cum) >= target) {
      // Upper edge of bin k is 2^k (bin 0's edge is 1).
      const double edge = std::ldexp(1.0, static_cast<int>(k));
      return std::clamp(edge, stats_.min(), stats_.max());
    }
  }
  return stats_.max();
}

void Summary::merge(const Summary& other) {
  stats_.merge(other.stats_);
  for (std::size_t k = 0; k < kBins; ++k) bins_[k] += other.bins_[k];
}

Summary Summary::restore(const RunningStats& stats, const std::uint64_t* bins) {
  Summary s;
  s.stats_ = stats;
  for (std::size_t k = 0; k < kBins; ++k) s.bins_[k] = bins[k];
  return s;
}

// ---------------------------------------------------------------------------
// MetricsRegistry

const char* to_string(MetricKind kind) {
  switch (kind) {
    case MetricKind::kCounter: return "counter";
    case MetricKind::kGauge: return "gauge";
    case MetricKind::kSummary: return "summary";
  }
  return "unknown";
}

MetricsRegistry::Entry& MetricsRegistry::entry(std::string_view name, MetricKind kind) {
  auto it = entries_.find(name);
  if (it == entries_.end()) {
    it = entries_.emplace(std::string(name), Entry{}).first;
    it->second.kind = kind;
    return it->second;
  }
  ensure(it->second.kind == kind, [&] {
    return "MetricsRegistry: '" + std::string(name) +
           "' already registered as " + to_string(it->second.kind);
  });
  return it->second;
}

Counter& MetricsRegistry::counter(std::string_view name) {
  return entry(name, MetricKind::kCounter).counter;
}

Gauge& MetricsRegistry::gauge(std::string_view name) {
  return entry(name, MetricKind::kGauge).gauge;
}

Summary& MetricsRegistry::summary(std::string_view name) {
  return entry(name, MetricKind::kSummary).summary;
}

void MetricsRegistry::merge(const MetricsRegistry& other) {
  for (const auto& [name, e] : other.entries_) {
    Entry& mine = entry(name, e.kind);
    switch (e.kind) {
      case MetricKind::kCounter: mine.counter.merge(e.counter); break;
      case MetricKind::kGauge: mine.gauge.merge(e.gauge); break;
      case MetricKind::kSummary: mine.summary.merge(e.summary); break;
    }
  }
}

void MetricsRegistry::write_json(std::ostream& os, std::uint64_t simulations) const {
  const auto old_precision = os.precision(std::numeric_limits<double>::max_digits10);
  os << "{\n  \"schema\": \"pimsim-metrics-v1\",\n  \"simulations\": " << simulations
     << ",\n  \"metrics\": [";
  bool first = true;
  for (const auto& [name, e] : entries_) {
    os << (first ? "\n" : ",\n") << "    {\"name\": \"" << json_escape(name)
       << "\", \"type\": \"" << to_string(e.kind) << "\"";
    switch (e.kind) {
      case MetricKind::kCounter:
        os << ", \"value\": " << e.counter.value();
        break;
      case MetricKind::kGauge:
        os << ", \"mean\": " << e.gauge.mean() << ", \"max\": " << e.gauge.max()
           << ", \"span\": " << e.gauge.span();
        break;
      case MetricKind::kSummary: {
        const RunningStats& s = e.summary.stats();
        os << ", \"count\": " << e.summary.count() << ", \"mean\": " << s.mean()
           << ", \"stddev\": " << s.stddev() << ", \"min\": " << s.min()
           << ", \"max\": " << s.max() << ", \"p50\": " << e.summary.quantile(0.5)
           << ", \"p90\": " << e.summary.quantile(0.9)
           << ", \"p99\": " << e.summary.quantile(0.99);
        break;
      }
    }
    os << "}";
    first = false;
  }
  os << "\n  ]\n}\n";
  os.precision(old_precision);
}

void MetricsRegistry::write_csv(std::ostream& os) const {
  const auto old_precision = os.precision(std::numeric_limits<double>::max_digits10);
  os << "name,type,count,value,mean,stddev,min,max,p50,p90,p99\n";
  for (const auto& [name, e] : entries_) {
    os << name << ',' << to_string(e.kind) << ',';
    switch (e.kind) {
      case MetricKind::kCounter:
        os << ',' << e.counter.value() << ",,,,,,,";
        break;
      case MetricKind::kGauge:
        os << ",," << e.gauge.mean() << ",,," << e.gauge.max() << ",,,";
        break;
      case MetricKind::kSummary: {
        const RunningStats& s = e.summary.stats();
        os << e.summary.count() << ",," << s.mean() << ',' << s.stddev() << ','
           << s.min() << ',' << s.max() << ',' << e.summary.quantile(0.5) << ','
           << e.summary.quantile(0.9) << ',' << e.summary.quantile(0.99);
        break;
      }
    }
    os << '\n';
  }
  os.precision(old_precision);
}

std::string MetricsRegistry::serialize() const {
  // Canonical bytes covering exactly the merge-relevant state, so equal
  // serializations are interchangeable merge operands and deserialize()
  // can rebuild a bit-identical registry in another process.
  std::string out;
  for (const auto& [name, e] : entries_) {
    out += name;
    out.push_back('\0');
    out.push_back(static_cast<char>(e.kind));
    switch (e.kind) {
      case MetricKind::kCounter:
        put_u64(out, e.counter.value());
        break;
      case MetricKind::kGauge:
        put_f64(out, e.gauge.current());
        put_f64(out, e.gauge.max());
        put_f64(out, e.gauge.area());
        put_f64(out, e.gauge.span());
        put_f64(out, e.gauge.last_time());
        out.push_back(e.gauge.seen() ? '\1' : '\0');
        break;
      case MetricKind::kSummary: {
        const RunningStats& s = e.summary.stats();
        put_u64(out, e.summary.count());
        put_f64(out, s.mean());
        put_f64(out, s.m2());
        put_f64(out, s.min());
        put_f64(out, s.max());
        for (std::size_t k = 0; k < Summary::kBins; ++k) put_u64(out, e.summary.bins()[k]);
        break;
      }
    }
  }
  return out;
}

MetricsRegistry MetricsRegistry::deserialize(std::string_view bytes) {
  std::size_t pos = 0;
  const auto take = [&](std::size_t n) -> std::string_view {
    require(bytes.size() - pos >= n,
            "MetricsRegistry::deserialize: truncated snapshot");
    const std::string_view piece = bytes.substr(pos, n);
    pos += n;
    return piece;
  };
  const auto take_u64 = [&] {
    const std::string_view b = take(8);
    std::uint64_t v = 0;
    for (int i = 7; i >= 0; --i) {
      v = (v << 8U) | static_cast<unsigned char>(b[static_cast<std::size_t>(i)]);
    }
    return v;
  };
  const auto take_f64 = [&] { return std::bit_cast<double>(take_u64()); };

  MetricsRegistry reg;
  while (pos < bytes.size()) {
    const std::size_t nul = bytes.find('\0', pos);
    require(nul != std::string_view::npos,
            "MetricsRegistry::deserialize: unterminated metric name");
    const std::string name(bytes.substr(pos, nul - pos));
    require(!name.empty(), "MetricsRegistry::deserialize: empty metric name");
    pos = nul + 1;
    const auto kind = static_cast<MetricKind>(take(1)[0]);
    switch (kind) {
      case MetricKind::kCounter:
        reg.counter(name).add(take_u64());
        break;
      case MetricKind::kGauge: {
        const double value = take_f64();
        const double max = take_f64();
        const double area = take_f64();
        const double span = take_f64();
        const double last_t = take_f64();
        const bool seen = take(1)[0] != '\0';
        reg.entry(name, MetricKind::kGauge).gauge =
            Gauge::restore(value, max, area, span, last_t, seen);
        break;
      }
      case MetricKind::kSummary: {
        const auto n = static_cast<std::size_t>(take_u64());
        const double mean = take_f64();
        const double m2 = take_f64();
        const double min = take_f64();
        const double max = take_f64();
        std::uint64_t bins[Summary::kBins];
        for (std::uint64_t& b : bins) b = take_u64();
        reg.entry(name, MetricKind::kSummary).summary = Summary::restore(
            RunningStats::restore(n, mean, m2, min, max), bins);
        break;
      }
      default:
        throw ConfigError("MetricsRegistry::deserialize: unknown metric kind");
    }
  }
  return reg;
}

std::uint64_t MetricsRegistry::fingerprint() const { return fnv1a(serialize()); }

// ---------------------------------------------------------------------------
// MetricsHub

void MetricsHub::absorb(const MetricsRegistry& registry) {
  absorb_with([&registry](std::vector<MetricsRegistry>& snapshots) {
    snapshots.push_back(registry);
  });
}

MetricsRegistry MetricsHub::aggregate() const {
  const std::vector<MetricsRegistry> snaps =
      read([](const std::vector<MetricsRegistry>& snapshots, std::uint64_t) {
        return snapshots;
      });
  // Sort snapshots by canonical content before folding: any arrival
  // permutation (threaded sweeps finish in nondeterministic order) yields
  // the same fold order, so floating-point merges are bitwise identical.
  std::vector<std::string> keys;
  keys.reserve(snaps.size());
  for (const MetricsRegistry& r : snaps) keys.push_back(r.serialize());
  std::vector<std::size_t> order(snaps.size());
  for (std::size_t k = 0; k < order.size(); ++k) order[k] = k;
  std::sort(order.begin(), order.end(),
            [&](std::size_t a, std::size_t b) { return keys[a] < keys[b]; });
  MetricsRegistry out;
  for (const std::size_t k : order) out.merge(snaps[k]);
  return out;
}

std::vector<std::string> MetricsHub::snapshot_bytes() const {
  std::vector<std::string> out =
      read([](const std::vector<MetricsRegistry>& snapshots, std::uint64_t) {
        std::vector<std::string> bytes;
        bytes.reserve(snapshots.size());
        for (const MetricsRegistry& r : snapshots) bytes.push_back(r.serialize());
        return bytes;
      });
  // Sorted so the sidecar bytes do not depend on which sweep thread's
  // simulation finished first (the fold re-sorts anyway).
  std::sort(out.begin(), out.end());
  return out;
}

void MetricsHub::absorb_bytes(std::string_view bytes) {
  absorb(MetricsRegistry::deserialize(bytes));
}

void MetricsHub::write_json(std::ostream& os) const {
  aggregate().write_json(os, simulations());
}

void MetricsHub::write_csv(std::ostream& os) const { aggregate().write_csv(os); }

}  // namespace pimsim::obs
