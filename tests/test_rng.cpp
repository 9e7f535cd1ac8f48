// Unit and statistical tests for the random number substrate.
#include <gtest/gtest.h>

#include <atomic>
#include <cmath>
#include <cstdint>
#include <limits>
#include <random>
#include <set>
#include <thread>
#include <utility>
#include <vector>

#include "common/error.hpp"
#include "common/rng.hpp"

namespace pimsim {
namespace {

TEST(SplitMix64, IsDeterministic) {
  SplitMix64 a(42), b(42);
  for (int i = 0; i < 100; ++i) EXPECT_EQ(a.next(), b.next());
}

TEST(SplitMix64, DifferentSeedsDiverge) {
  SplitMix64 a(1), b(2);
  int same = 0;
  for (int i = 0; i < 64; ++i) same += (a.next() == b.next());
  EXPECT_EQ(same, 0);
}

TEST(Xoshiro, SatisfiesUniformRandomBitGenerator) {
  static_assert(std::uniform_random_bit_generator<Xoshiro256pp>);
  Xoshiro256pp engine(7);
  EXPECT_NE(engine(), engine());
}

TEST(Rng, SameSeedSameStream) {
  Rng a(123, 5), b(123, 5);
  for (int i = 0; i < 1000; ++i) EXPECT_DOUBLE_EQ(a.uniform(), b.uniform());
}

TEST(Rng, DistinctStreamsDiffer) {
  Rng a(123, 1), b(123, 2);
  int same = 0;
  for (int i = 0; i < 100; ++i) same += (a.uniform() == b.uniform());
  EXPECT_LE(same, 1);
}

TEST(Rng, SplitGivesIndependentChildren) {
  Rng parent(9);
  Rng c1 = parent.split(1);
  Rng c2 = parent.split(2);
  Rng c1_again = Rng(9).split(1);
  EXPECT_DOUBLE_EQ(c1.uniform(), c1_again.uniform());
  int same = 0;
  for (int i = 0; i < 100; ++i) same += (c1.uniform() == c2.uniform());
  EXPECT_LE(same, 1);
}

TEST(Rng, UniformStaysInUnitInterval) {
  Rng rng(17);
  for (int i = 0; i < 10000; ++i) {
    const double u = rng.uniform();
    EXPECT_GE(u, 0.0);
    EXPECT_LT(u, 1.0);
  }
}

TEST(Rng, UniformMeanIsHalf) {
  Rng rng(3);
  double sum = 0.0;
  const int n = 200000;
  for (int i = 0; i < n; ++i) sum += rng.uniform();
  EXPECT_NEAR(sum / n, 0.5, 0.005);
}

TEST(Rng, UniformIntCoversRangeInclusive) {
  Rng rng(11);
  std::set<std::uint64_t> seen;
  for (int i = 0; i < 1000; ++i) seen.insert(rng.uniform_int(3, 7));
  EXPECT_EQ(seen.size(), 5u);
  EXPECT_EQ(*seen.begin(), 3u);
  EXPECT_EQ(*seen.rbegin(), 7u);
}

TEST(Rng, BernoulliMatchesProbability) {
  Rng rng(19);
  int hits = 0;
  const int n = 100000;
  for (int i = 0; i < n; ++i) hits += rng.bernoulli(0.3);
  EXPECT_NEAR(static_cast<double>(hits) / n, 0.3, 0.01);
}

TEST(Rng, BernoulliEdges) {
  Rng rng(23);
  for (int i = 0; i < 100; ++i) {
    EXPECT_FALSE(rng.bernoulli(0.0));
    EXPECT_TRUE(rng.bernoulli(1.0));
  }
}

TEST(Rng, BinomialMatchesMeanAndVariance) {
  Rng rng(29);
  const std::uint64_t n = 1000;
  const double p = 0.1;
  double sum = 0.0, sum2 = 0.0;
  const int reps = 20000;
  for (int i = 0; i < reps; ++i) {
    const double x = static_cast<double>(rng.binomial(n, p));
    sum += x;
    sum2 += x * x;
  }
  const double mean = sum / reps;
  const double var = sum2 / reps - mean * mean;
  EXPECT_NEAR(mean, static_cast<double>(n) * p, 1.0);         // 100 +/- 1
  EXPECT_NEAR(var, static_cast<double>(n) * p * (1 - p), 5.0);  // 90 +/- 5
}

TEST(Rng, BinomialEdgeCases) {
  Rng rng(31);
  EXPECT_EQ(rng.binomial(0, 0.5), 0u);
  EXPECT_EQ(rng.binomial(100, 0.0), 0u);
  EXPECT_EQ(rng.binomial(100, 1.0), 100u);
}

TEST(Rng, GeometricMeanMatches) {
  Rng rng(37);
  const double p = 0.3;
  double sum = 0.0;
  const int n = 100000;
  for (int i = 0; i < n; ++i) sum += static_cast<double>(rng.geometric(p));
  // Mean number of failures before success: (1-p)/p = 2.333...
  EXPECT_NEAR(sum / n, (1 - p) / p, 0.05);
}

TEST(Rng, GeometricWithPOneIsZero) {
  Rng rng(41), twin(41);
  EXPECT_EQ(rng.geometric(0.3), twin.geometric(0.3));
  for (int i = 0; i < 100; ++i) EXPECT_EQ(rng.geometric(1.0), 0u);
  // ... and draws nothing from the stream, even after another p.
  for (int i = 0; i < 100; ++i) EXPECT_DOUBLE_EQ(rng.uniform(), twin.uniform());
}

TEST(Rng, GeometricRejectsBadPAfterAValidOne) {
  Rng a(59), b(59);
  EXPECT_EQ(a.geometric(0.3), b.geometric(0.3));
  for (const double bad : {0.0, -0.1, 1.5, std::numeric_limits<double>::quiet_NaN()}) {
    EXPECT_THROW(a.geometric(bad), ConfigError);
    EXPECT_THROW(a.geometric(bad), ConfigError);
  }
  for (int i = 0; i < 1000; ++i) EXPECT_EQ(a.geometric(0.3), b.geometric(0.3));
  EXPECT_THROW(GeometricTable(1.0), ConfigError);
  EXPECT_THROW(GeometricTable(0.0), ConfigError);
}

// --- GeometricTable against the distribution it replaces ------------------

// libstdc++'s geometric_distribution::operator() (bits/random.tcc) over
// generate_canonical<double, 53>, written out independently of the table.
template <class Engine>
std::uint64_t formula_geometric(double p, Engine& engine) {
  const double naf = (1 - std::numeric_limits<double>::epsilon()) / 2;
  const double thr = static_cast<double>(std::numeric_limits<std::uint64_t>::max()) + naf;
  const double log_1_p = std::log(1.0 - p);
  double cand = 0.0;
  do {
    double u = static_cast<double>(engine()) / 0x1p64;
    if (u >= 1.0) u = std::nextafter(1.0, 0.0);
    cand = std::floor(std::log(1.0 - u) / log_1_p);
  } while (cand >= thr);
  return static_cast<std::uint64_t>(cand + naf);
}

// An engine whose first word is chosen; later words (redraws) come from
// a seeded xoshiro stream.
class WordEngine {
 public:
  using result_type = std::uint64_t;
  explicit WordEngine(std::uint64_t first) : first_(first), rest_(first) {}
  static constexpr result_type min() { return 0; }
  static constexpr result_type max() { return ~result_type{0}; }
  result_type operator()() {
    if (fresh_) {
      fresh_ = false;
      return first_;
    }
    return rest_();
  }

 private:
  std::uint64_t first_;
  Xoshiro256pp rest_;
  bool fresh_ = true;
};

const std::vector<double> kGeometricPs = {1e-6, 1e-3, 0.02, 0.1, 0.3,
                                          0.5,  0.7,  0.9,  0.999};

// After the same number of draws, twin engines give the same next words.
void expect_aligned(Xoshiro256pp& a, Xoshiro256pp& b) {
  for (int i = 0; i < 4; ++i) EXPECT_EQ(a(), b());
}

TEST(BinomialDraw, MatchesAFreshDistributionWordForWord) {
  // libstdc++ draws with a waiting-time loop when n * p < 8 and by
  // rejection otherwise, and as n - B(n, 1 - p) when p > 0.5; the grid
  // covers all three.  Past it, 200 more keys than the cache has slots,
  // cycled three times, so keys share slots and evict each other.
  std::vector<std::pair<std::uint64_t, double>> keys;
  for (const std::uint64_t n : {3, 20, 240, 800, 10'000}) {
    for (const double p : {0.01, 0.1, 0.3, 0.7, 0.97}) keys.emplace_back(n, p);
  }
  for (std::uint64_t i = 0; i < 200; ++i) {
    keys.emplace_back(100 + i, i % 2 == 0 ? 0.3 : 0.05);
  }
  Xoshiro256pp a(0xb1a5), b(0xb1a5);
  std::uint64_t mismatches = 0;
  for (int round = 0; round < 3; ++round) {
    for (const auto& [n, p] : keys) {
      for (int draw = 0; draw < 3; ++draw) {
        std::binomial_distribution<std::uint64_t> fresh(n, p);
        mismatches += binomial_draw(n, p, a) != fresh(b);
      }
    }
  }
  EXPECT_EQ(mismatches, 0u);
  expect_aligned(a, b);
}

TEST(BinomialDraw, EdgeCasesReturnWithoutAWord) {
  Xoshiro256pp a(0xed9e), b(0xed9e);
  EXPECT_EQ(binomial_draw(0, 0.5, a), 0u);
  EXPECT_EQ(binomial_draw(100, 0.0, a), 0u);
  EXPECT_EQ(binomial_draw(100, 1.0, a), 100u);
  EXPECT_THROW((void)binomial_draw(10, 1.5, a), ConfigError);
  EXPECT_THROW((void)binomial_draw(10, -0.1, a), ConfigError);
  expect_aligned(a, b);
}

TEST(GeometricTable, MatchesExplicitFormula) {
  constexpr int kDraws = 1'200'000;  // x 9 values of p: >= 10^7 draws
  for (const double p : kGeometricPs) {
    const GeometricTable table(p);
    Xoshiro256pp a(0xfeed), b(0xfeed);
    std::uint64_t mismatches = 0;
    for (int i = 0; i < kDraws; ++i) mismatches += table(a) != formula_geometric(p, b);
    EXPECT_EQ(mismatches, 0u) << "p=" << p;
    expect_aligned(a, b);
  }
}

#ifdef __GLIBCXX__
TEST(GeometricTable, MatchesLibstdcxxDistribution) {
  constexpr int kDraws = 300'000;
  for (const double p : kGeometricPs) {
    const GeometricTable table(p);
    std::geometric_distribution<std::uint64_t> reference(p);
    Xoshiro256pp a(0xbeef), b(0xbeef);
    std::uint64_t mismatches = 0;
    for (int i = 0; i < kDraws; ++i) mismatches += table(a) != reference(b);
    EXPECT_EQ(mismatches, 0u) << "p=" << p;
    expect_aligned(a, b);
  }
}
#endif

TEST(GeometricTable, StepsAndBandEdgesMatchWordByWord) {
  constexpr std::uint64_t kG = GeometricTable::kGuard;
  constexpr std::uint64_t kLast = ~std::uint64_t{0};
  std::vector<double> ps = kGeometricPs;
  ps.push_back(1e-12);  // first step within 4 guard bands of 0: all formula
  for (const double p : ps) {
    const GeometricTable table(p);
    const std::vector<std::uint64_t>& steps = table.steps();
    std::vector<std::uint64_t> words = {0, 1, kG, kLast - 1, kLast};
    for (std::size_t k = 0; k < steps.size(); ++k) {
      const std::uint64_t t = steps[k];
      EXPECT_GE(t, 4 * kG) << "p=" << p;
      if (k > 0) {
        EXPECT_GE(t - steps[k - 1], 4 * kG) << "p=" << p;
      }
      // T_{k+1} is the least word whose draw is >= k + 1.
      WordEngine at(t), before(t - 1);
      EXPECT_GE(formula_geometric(p, at), k + 1) << "p=" << p;
      EXPECT_LE(formula_geometric(p, before), k) << "p=" << p;
      for (const std::uint64_t d : {std::uint64_t{1}, kG, kG + 1}) {
        words.push_back(t - d);
        if (t <= kLast - d) words.push_back(t + d);
      }
      words.push_back(t);
    }
    // The tail past the last step, where the formula decides.
    const std::uint64_t tail = steps.empty() ? 0 : steps.back();
    for (std::uint64_t d = 1; d <= 64 && tail <= kLast - (d << 20); ++d) {
      words.push_back(tail + (d << 20));
    }
    for (const std::uint64_t word : words) {
      WordEngine a(word), b(word);
      EXPECT_EQ(table(a), formula_geometric(p, b)) << "p=" << p << " word=" << word;
      EXPECT_EQ(a(), b()) << "p=" << p << " word=" << word;
#ifdef __GLIBCXX__
      WordEngine c(word);
      std::geometric_distribution<std::uint64_t> reference(p);
      WordEngine d(word);
      EXPECT_EQ(table(c), reference(d)) << "p=" << p << " word=" << word;
#endif
    }
  }
  EXPECT_TRUE(GeometricTable(1e-12).steps().empty());
  EXPECT_FALSE(GeometricTable(0.3).steps().empty());
}

TEST(GeometricTable, ConcurrentFirstUseGivesTheSerialResults) {
  // Values of p no other test touches, so the memo is cold; each thread
  // draws every p, and threads race to build the shared tables.
  const std::vector<double> ps = {0.123, 0.234, 0.345, 0.456};
  constexpr int kThreads = 4;
  constexpr int kDraws = 20'000;
  auto draw_all = [&](const auto& table_for, std::uint64_t seed) {
    std::vector<std::uint64_t> out;
    Xoshiro256pp engine(seed);
    for (int i = 0; i < kDraws; ++i) {
      out.push_back(table_for(ps[static_cast<std::size_t>(i) % ps.size()])(engine));
    }
    return out;
  };
  std::vector<GeometricTable> serial_tables;
  for (const double p : ps) serial_tables.emplace_back(p);
  std::vector<std::vector<std::uint64_t>> expected;
  for (int t = 0; t < kThreads; ++t) {
    expected.push_back(draw_all(
        [&](double p) -> const GeometricTable& {
          for (const GeometricTable& table : serial_tables) {
            if (table.p() == p) return table;
          }
          throw LogicError("no serial table");
        },
        static_cast<std::uint64_t>(t)));
  }
  std::vector<std::vector<std::uint64_t>> got(kThreads);
  std::atomic<int> ready{0};
  std::vector<std::thread> threads;
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([&, t] {
      ready.fetch_add(1);
      while (ready.load() < kThreads) std::this_thread::yield();
      got[static_cast<std::size_t>(t)] = draw_all(
          [](double p) -> const GeometricTable& { return GeometricTable::shared(p); },
          static_cast<std::uint64_t>(t));
    });
  }
  for (std::thread& thread : threads) thread.join();
  for (int t = 0; t < kThreads; ++t) {
    EXPECT_EQ(got[static_cast<std::size_t>(t)], expected[static_cast<std::size_t>(t)]);
  }
  for (const double p : ps) EXPECT_EQ(&GeometricTable::shared(p), &GeometricTable::shared(p));
}

TEST(Rng, ExponentialMeanMatches) {
  Rng rng(43);
  double sum = 0.0;
  const int n = 100000;
  for (int i = 0; i < n; ++i) sum += rng.exponential(5.0);
  EXPECT_NEAR(sum / n, 5.0, 0.1);
}

TEST(Rng, NormalMomentsMatch) {
  Rng rng(47);
  double sum = 0.0, sum2 = 0.0;
  const int n = 100000;
  for (int i = 0; i < n; ++i) {
    const double x = rng.normal(10.0, 2.0);
    sum += x;
    sum2 += x * x;
  }
  const double mean = sum / n;
  EXPECT_NEAR(mean, 10.0, 0.05);
  EXPECT_NEAR(sum2 / n - mean * mean, 4.0, 0.15);
}

TEST(Rng, RejectsBadParameters) {
  Rng rng(53);
  EXPECT_THROW(rng.bernoulli(-0.1), ConfigError);
  EXPECT_THROW(rng.bernoulli(1.1), ConfigError);
  EXPECT_THROW(rng.geometric(0.0), ConfigError);
  EXPECT_THROW(rng.exponential(0.0), ConfigError);
  EXPECT_THROW(rng.normal(0.0, -1.0), ConfigError);
  EXPECT_THROW(rng.uniform(2.0, 1.0), ConfigError);
  EXPECT_THROW(rng.uniform_int(5, 4), ConfigError);
}

}  // namespace
}  // namespace pimsim
