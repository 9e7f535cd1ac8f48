#include "common/rng.hpp"

#include "common/error.hpp"

namespace pimsim {
namespace {

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

std::uint64_t Rng::binomial(std::uint64_t n, double p) {
  require(p >= 0.0 && p <= 1.0, "Rng::binomial: p must be in [0,1]");
  if (n == 0 || p == 0.0) return 0;
  if (p == 1.0) return n;
  std::binomial_distribution<std::uint64_t> d(n, p);
  return d(engine_);
}

std::uint64_t Rng::geometric(double p) {
  require(p > 0.0 && p <= 1.0, "Rng::geometric: p must be in (0,1]");
  if (p == 1.0) return 0;
  if (p != geometric_.p()) {
    geometric_.param(std::geometric_distribution<std::uint64_t>::param_type(p));
  }
  return geometric_(engine_);
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
