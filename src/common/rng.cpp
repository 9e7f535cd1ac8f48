#include "common/rng.hpp"

#include <algorithm>
#include <array>
#include <bit>
#include <cmath>
#include <map>
#include <memory>
#include <mutex>
#include <random>

#include "common/error.hpp"

namespace pimsim {
namespace {

/// Steps are never closer than this, so a bucket of the guide can hold a
/// whole gap clear of both bands; denser steps (tiny p, or the deep tail)
/// are left to the formula.
constexpr std::uint64_t kMinStepGap = 4 * GeometricTable::kGuard;
/// Caps the table (tiny p has millions of steps), and keeps every draw a
/// guide entry stores, at most kMaxSteps - 1, below its slow marker.
constexpr std::size_t kMaxSteps = 254;

/// Mixes (seed, stream) into a single well-distributed 64-bit value.
std::uint64_t mix(std::uint64_t seed, std::uint64_t stream) {
  SplitMix64 sm(seed ^ (0x632be59bd9b4e019ULL + stream * 0x9e3779b97f4a7c15ULL));
  sm.next();
  return sm.next();
}

}  // namespace

Rng::Rng(std::uint64_t seed, std::uint64_t stream_id)
    : engine_(mix(seed, stream_id)), base_(mix(seed, stream_id)) {}

Rng Rng::split(std::uint64_t child_id) const {
  return Rng(Derived{mix(base_, child_id ^ 0xa5a5a5a5a5a5a5a5ULL)});
}

double Rng::uniform() {
  // 53-bit mantissa construction: uniform in [0,1).
  return static_cast<double>(engine_() >> 11) * 0x1.0p-53;
}

double Rng::uniform(double lo, double hi) {
  require(lo <= hi, "Rng::uniform: lo must be <= hi");
  return lo + (hi - lo) * uniform();
}

std::uint64_t Rng::uniform_int(std::uint64_t lo, std::uint64_t hi) {
  require(lo <= hi, "Rng::uniform_int: lo must be <= hi");
  std::uniform_int_distribution<std::uint64_t> d(lo, hi);
  return d(engine_);
}

bool Rng::bernoulli(double p) {
  require(p >= 0.0 && p <= 1.0, "Rng::bernoulli: p must be in [0,1]");
  return uniform() < p;
}

std::uint64_t binomial_draw(std::uint64_t n, double p, Xoshiro256pp& engine) {
  require(p >= 0.0 && p <= 1.0, "Rng::binomial: p must be in [0,1]");
  if (n == 0 || p == 0.0) return 0;
  if (p == 1.0) return n;
  using Distribution = std::binomial_distribution<std::uint64_t>;
  struct Slot {
    std::uint64_t n = 0;  // 0: empty (n == 0 never reaches the cache)
    std::uint64_t p_bits = 0;
    Distribution::param_type param;
  };
  constexpr int kSlotBits = 6;
  // lint:allow(mutable-static): per-thread set-ups, each a pure function of its (n, p) key; every draw builds a fresh distribution from one, so no draw depends on what the cache held
  thread_local std::array<Slot, std::size_t{1} << kSlotBits> cache{};
  const auto p_bits = std::bit_cast<std::uint64_t>(p);
  const std::uint64_t hash =
      ((n * 0x9e3779b97f4a7c15ULL) ^ p_bits) * 0xbf58476d1ce4e5b9ULL;
  Slot& slot = cache[hash >> (64 - kSlotBits)];
  if (slot.n != n || slot.p_bits != p_bits) {
    slot = Slot{n, p_bits, Distribution::param_type(n, p)};
  }
  Distribution d(slot.param);
  return d(engine);
}

std::uint64_t Rng::binomial(std::uint64_t n, double p) {
  return binomial_draw(n, p, engine_);
}

GeometricTable::GeometricTable(double p) : p_(p), log_1_p_(std::log(1.0 - p)) {
  require(p > 0.0 && p < 1.0, "GeometricTable: p must be in (0,1)");
  // T_k by bisection from T_{k-1}: the least word whose candidate is >= k.
  constexpr std::uint64_t kLastWord = ~std::uint64_t{0};
  std::uint64_t previous = 0;
  while (steps_.size() < kMaxSteps) {
    const double k = static_cast<double>(steps_.size() + 1);
    if (candidate(kLastWord) < k) break;
    std::uint64_t lo = previous;
    std::uint64_t hi = kLastWord;
    while (lo < hi) {
      const std::uint64_t mid = lo + (hi - lo) / 2;
      if (candidate(mid) >= k) {
        hi = mid;
      } else {
        lo = mid + 1;
      }
    }
    if (hi - previous < kMinStepGap) break;
    steps_.push_back(hi);
    previous = hi;
  }
  constexpr int kBucketShift = 64 - kGuideBits;
  for (std::size_t b = 0; b < guide_.size(); ++b) {
    const std::uint64_t first = std::uint64_t{b} << kBucketShift;
    const std::uint64_t last = first + ((std::uint64_t{1} << kBucketShift) - 1);
    std::uint64_t at_first = 0;
    std::uint64_t at_last = 0;
    const bool clear = lookup(first, at_first) && lookup(last, at_last) &&
                       at_first == at_last;
    guide_[b] = clear ? static_cast<std::uint8_t>(at_first) : kSlow;
  }
}

const GeometricTable& GeometricTable::shared(double p) {
  // lint:allow(mutable-static): a per-thread pointer to an immutable table, a pure function of p; it skips the lock only
  thread_local const GeometricTable* last = nullptr;
  if (last != nullptr && last->p() == p) return *last;
  struct Memo {
    std::mutex mutex;
    std::map<double, std::unique_ptr<const GeometricTable>> tables;
  };
  // lint:allow(mutable-static): insert-only memo of immutable tables, each a pure function of p, so no draw depends on which thread or run built it; every access is mutex-serialized
  static Memo memo;
  const std::lock_guard<std::mutex> lock(memo.mutex);
  std::unique_ptr<const GeometricTable>& slot = memo.tables[p];
  if (slot == nullptr) slot = std::make_unique<const GeometricTable>(p);
  last = slot.get();
  return *last;
}

double GeometricTable::candidate(std::uint64_t word) const {
  // std::generate_canonical<double, 53> over one 64-bit word, then
  // geometric_distribution::operator() (libstdc++ bits/random.tcc).
  double u = static_cast<double>(word) / 0x1p64;
  if (u >= 1.0) u = std::nextafter(1.0, 0.0);
  return std::floor(std::log(1.0 - u) / log_1_p_);
}

bool GeometricTable::lookup(std::uint64_t word, std::uint64_t& value) const {
  const auto above = std::upper_bound(steps_.begin(), steps_.end(), word);
  if (above == steps_.end()) return false;  // past the last step
  if (*above - word <= kGuard) return false;
  const auto below = static_cast<std::size_t>(above - steps_.begin());
  if (below > 0 && word - steps_[below - 1] <= kGuard) return false;
  value = below;
  return true;
}

std::uint64_t Rng::geometric(double p) {
  if (geometric_ == nullptr || p != geometric_->p()) {
    require(p > 0.0 && p <= 1.0, "Rng::geometric: p must be in (0,1]");
    if (p == 1.0) return 0;
    geometric_ = &GeometricTable::shared(p);
  }
  return (*geometric_)(engine_);
}

double Rng::exponential(double mean) {
  require(mean > 0.0, "Rng::exponential: mean must be positive");
  std::exponential_distribution<double> d(1.0 / mean);
  return d(engine_);
}

double Rng::normal(double mean, double stddev) {
  require(stddev >= 0.0, "Rng::normal: stddev must be non-negative");
  if (stddev == 0.0) return mean;
  std::normal_distribution<double> d(mean, stddev);
  return d(engine_);
}

}  // namespace pimsim
