// Deterministic, stream-splittable random number generation.
//
// Every stochastic model element owns its own Rng stream derived from a
// single experiment seed, so experiments are reproducible regardless of
// event interleaving and each replication is an independent stream.
//
// Engine: xoshiro256++ (Blackman & Vigna), seeded via SplitMix64 as its
// authors recommend.  The engine satisfies UniformRandomBitGenerator, so
// the standard <random> distributions can run on top of it.
#pragma once

#include <array>
#include <cstdint>
#include <vector>

namespace pimsim {

/// SplitMix64 — used for seeding and cheap stream derivation.
class SplitMix64 {
 public:
  explicit constexpr SplitMix64(std::uint64_t seed) : state_(seed) {}

  constexpr std::uint64_t next() {
    std::uint64_t z = (state_ += 0x9e3779b97f4a7c15ULL);
    z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ULL;
    z = (z ^ (z >> 27)) * 0x94d049bb133111ebULL;
    return z ^ (z >> 31);
  }

 private:
  std::uint64_t state_;
};

/// xoshiro256++ engine; UniformRandomBitGenerator-compatible.
class Xoshiro256pp {
 public:
  using result_type = std::uint64_t;

  explicit Xoshiro256pp(std::uint64_t seed = 0x9d2c5680u) { reseed(seed); }

  /// Re-initializes the four state words from a single seed via SplitMix64.
  void reseed(std::uint64_t seed) {
    SplitMix64 sm(seed);
    for (auto& s : s_) s = sm.next();
  }

  static constexpr result_type min() { return 0; }
  static constexpr result_type max() { return ~result_type{0}; }

  result_type operator()() {
    const std::uint64_t result = rotl(s_[0] + s_[3], 23) + s_[0];
    const std::uint64_t t = s_[1] << 17;
    s_[2] ^= s_[0];
    s_[3] ^= s_[1];
    s_[1] ^= s_[2];
    s_[0] ^= s_[3];
    s_[2] ^= t;
    s_[3] = rotl(s_[3], 45);
    return result;
  }

 private:
  static constexpr std::uint64_t rotl(std::uint64_t x, int k) {
    return (x << k) | (x >> (64 - k));
  }
  std::uint64_t s_[4]{};
};

/// One draw from a fresh std::binomial_distribution<std::uint64_t>(n, p)
/// on `engine`, word for word, without rebuilding its set-up each time.
/// libstdc++ computes that set-up (a few logs and square roots once
/// n * p >= 8) when the distribution is built; here it comes from a
/// bounded per-thread direct-mapped cache of param_types keyed by n and
/// the bits of p, and each draw still builds a fresh distribution from
/// it (a reused one would carry a spare normal variate between draws).
/// n == 0 and p == 0 return 0, p == 1 returns n, without consuming a
/// word; p outside [0, 1] throws ConfigError.
std::uint64_t binomial_draw(std::uint64_t n, double p, Xoshiro256pp& engine);

/// Geometric draws by table inversion, bit-identical to libstdc++.
///
/// A geometric draw is a monotone step function of one 64-bit engine word
/// x: libstdc++'s geometric_distribution (bits/random.tcc) returns
/// floor(log(1 - u) / log(1 - p)) with u = x * 2^-64 (clamped below 1),
/// redrawing while that is >= 2^64.  The table holds the step positions
/// T_k (the least word whose draw is >= k), so a draw is a lookup instead
/// of a log (guide-table inversion: Chen & Asau 1974; Devroye 1986,
/// section III.2).  The computed quotient is off the real one by a few
/// ulps, so its floor can move only for words within a few thousand of a
/// step; every word within kGuard of a step, or past the last one,
/// evaluates the formula itself.  Every draw consumes exactly the words
/// libstdc++ would: one, plus the tail's redraws.
class GeometricTable {
 public:
  /// Half-width, in engine words, of the band around each step.
  static constexpr std::uint64_t kGuard = std::uint64_t{1} << 24;

  /// Builds the table for p in (0, 1); throws ConfigError otherwise.
  explicit GeometricTable(double p);

  /// The process-wide table for p, built on first use and never changed.
  static const GeometricTable& shared(double p);

  [[nodiscard]] double p() const { return p_; }
  /// T_1..T_K in increasing order, each at least 4 * kGuard apart.
  [[nodiscard]] const std::vector<std::uint64_t>& steps() const { return steps_; }

  /// One draw from a full-range 64-bit engine.
  template <class Engine>
  std::uint64_t operator()(Engine& engine) const {
    static_assert(Engine::min() == 0 && Engine::max() == ~std::uint64_t{0});
    const std::uint64_t word = engine();
    const std::uint8_t k = guide_[word >> (64 - kGuideBits)];
    if (k != kSlow) [[likely]] return k;
    std::uint64_t value = 0;
    if (lookup(word, value)) return value;
    double cand = candidate(word);
    while (cand >= kThreshold) cand = candidate(engine());
    return static_cast<std::uint64_t>(cand + kNaf);
  }

 private:
  static constexpr int kGuideBits = 10;
  static constexpr std::uint8_t kSlow = 0xff;
  // random.tcc's constants: the "epsilon thing" rounding offset and the
  // largest double convertible to the result type.
  static constexpr double kNaf = (1.0 - 0x1p-52) / 2;
  static constexpr double kThreshold = static_cast<double>(~std::uint64_t{0}) + kNaf;

  /// libstdc++'s candidate floor(log(1 - u) / log(1 - p)) for one word.
  double candidate(std::uint64_t word) const;
  /// The table's draw for a word clear of every band and below the last
  /// step; false when the formula has to decide.
  bool lookup(std::uint64_t word, std::uint64_t& value) const;

  double p_;
  double log_1_p_;
  std::vector<std::uint64_t> steps_;
  // By the word's top kGuideBits: the draw, when the whole bucket lies in
  // one gap clear of every band, else kSlow.
  std::array<std::uint8_t, std::size_t{1} << kGuideBits> guide_{};
};

/// A named random stream with the distributions the models need.
///
/// Streams are derived from (seed, stream_id) pairs; two Rng objects with
/// the same pair produce identical sequences, and distinct stream ids give
/// statistically independent sequences.  geometric() is a lookup in a
/// shared GeometricTable that consumes the same engine words, and
/// returns the same values, as std::geometric_distribution.
class Rng {
 public:
  /// Creates the stream identified by (seed, stream_id).
  explicit Rng(std::uint64_t seed, std::uint64_t stream_id = 0);

  /// Derives a child stream; children with distinct ids are independent.
  [[nodiscard]] Rng split(std::uint64_t child_id) const;

  /// Uniform double in [0, 1).
  double uniform();
  /// Uniform double in [lo, hi).
  double uniform(double lo, double hi);
  /// Uniform integer in [lo, hi] inclusive.
  std::uint64_t uniform_int(std::uint64_t lo, std::uint64_t hi);
  /// Bernoulli trial with success probability p.
  bool bernoulli(double p);
  /// Number of successes in n Bernoulli(p) trials (exact distribution).
  std::uint64_t binomial(std::uint64_t n, double p);
  /// Geometric number of failures before first success, support {0,1,...}.
  std::uint64_t geometric(double p);
  /// Exponential variate with the given mean.
  double exponential(double mean);
  /// Normal variate.
  double normal(double mean, double stddev);

 private:
  struct Derived {
    std::uint64_t value;
  };
  explicit Rng(Derived derived) : engine_(derived.value), base_(derived.value) {}
  Xoshiro256pp engine_;
  std::uint64_t base_;
  // geometric()'s table for the last p drawn with; tables are immutable
  // and shared, so streams that copy it stay independent.
  const GeometricTable* geometric_ = nullptr;
};

}  // namespace pimsim
