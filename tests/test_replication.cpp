// Replication engine tests: the seed-stream contract (disjoint,
// reproducible, prefix-stable per-rep seeds), the reps=1 bypass
// (bitwise-identical to a plain run), the fold's mean ± half-width
// columns and their ~1/sqrt(R) shrink, the exact pimsim-rep-v1 table
// serialization, sharded replication merges (byte-identical to the
// unsharded sweep for N in {1, 2, 4}), and a statistical-correctness
// check: the folded 95% CI covers a closed-form M/M/1 target at near
// nominal rate over 100 pinned meta-trials.
#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <filesystem>
#include <fstream>
#include <set>
#include <sstream>
#include <string>
#include <vector>

#include <unistd.h>  // getpid: per-process scratch dir

#include "common/config.hpp"
#include "common/error.hpp"
#include "common/rng.hpp"
#include "common/stats.hpp"
#include "common/table.hpp"
#include "core/cli.hpp"
#include "core/experiment.hpp"
#include "core/scenario.hpp"
#include "queueing/formulas.hpp"

namespace pimsim::core {
namespace {

namespace fs = std::filesystem;

std::string csv_of(const Table& table) {
  std::ostringstream os;
  table.print_csv(os);
  return os.str();
}

// --- seed streams ---------------------------------------------------------

TEST(ReplicationSeeds, DisjointReproducibleAndPrefixStable) {
  const auto seeds = replication_seeds(64, 1);
  ASSERT_EQ(seeds.size(), 64u);
  EXPECT_EQ(std::set<std::uint64_t>(seeds.begin(), seeds.end()).size(), 64u)
      << "per-rep seeds must be pairwise distinct";
  EXPECT_EQ(replication_seeds(64, 1), seeds) << "stream must be reproducible";

  // Raising reps extends the stream without moving earlier reps: rep r is
  // a pure function of (base_seed, r), which is what lets common-random-
  // number comparisons and sharded reruns agree at any R > r.
  const auto prefix = replication_seeds(4, 1);
  for (std::size_t r = 0; r < prefix.size(); ++r) {
    EXPECT_EQ(prefix[r], seeds[r]) << "rep " << r;
  }
  // The stream is the documented SplitMix64 sequence.
  SplitMix64 sm(1);
  EXPECT_EQ(seeds[0], sm.next());
  EXPECT_EQ(seeds[1], sm.next());

  // Different base seeds give different streams.
  EXPECT_NE(replication_seeds(4, 2), prefix);
  EXPECT_THROW((void)replication_seeds(0, 1), InvalidArgument);
}

// --- a synthetic noisy scenario for engine-level tests --------------------

Scenario noisy_scenario() {
  Scenario s;
  s.name = "noisy";
  s.summary = "synthetic noisy observable for replication tests";
  s.paper = "n/a";
  s.params = {
      {"seed", ParamSpec::Kind::kInt, "1", ">= 0", "base RNG seed"},
      {"reps", ParamSpec::Kind::kInt, "1", ">= 1", "replications"},
  };
  s.make = [](const Config& cfg) {
    Rng rng(static_cast<std::uint64_t>(cfg.get_int("seed", 1)));
    Table t("noisy", {"case", "count", "x"});
    t.add_row({std::string("unit"), std::int64_t{7}, rng.normal(10.0, 2.0)});
    return t;
  };
  return s;
}

TEST(ReplicationFold, AddsCompanionColumnsAndTitleSuffix) {
  const Scenario scn = noisy_scenario();
  const Table folded = run_scenario(scn, Config::from_string("reps=4 seed=1"));
  EXPECT_EQ(folded.title(), "noisy (4 reps, 95% CI)");
  EXPECT_EQ(folded.columns(),
            (std::vector<std::string>{"case", "case ±", "count", "count ±",
                                      "x", "x ±"}));
  ASSERT_EQ(folded.rows(), 1u);
  // String cells agree across reps and keep an empty companion; int cells
  // identical across reps keep a zero int companion.
  EXPECT_EQ(std::get<std::string>(folded.row(0)[0]), "unit");
  EXPECT_EQ(std::get<std::string>(folded.row(0)[1]), "");
  EXPECT_EQ(std::get<std::int64_t>(folded.row(0)[2]), 7);
  EXPECT_EQ(std::get<std::int64_t>(folded.row(0)[3]), 0);
  EXPECT_GT(folded.number_at(0, 5), 0.0) << "noisy column needs a real CI";
}

TEST(ReplicationFold, RepsOneBypassMatchesPlainRunBitwise) {
  // The two figure scenarios the acceptance list names: reps=1 must be
  // bitwise-identical to a run without the knob.
  const Config fig5 = Config::from_string("maxnodes=8 ops=200000 batch=10000");
  const Config fig5_r1 =
      Config::from_string("maxnodes=8 ops=200000 batch=10000 reps=1");
  EXPECT_EQ(csv_of(run_scenario("fig5", fig5_r1)),
            csv_of(run_scenario("fig5", fig5)));

  const Config fig11 = Config::from_string("nodes=4 horizon=20000");
  const Config fig11_r1 = Config::from_string("nodes=4 horizon=20000 reps=1");
  EXPECT_EQ(csv_of(run_scenario("fig11", fig11_r1)),
            csv_of(run_scenario("fig11", fig11)));
}

TEST(ReplicationFold, BadRepsValuesAreRejectedAtParseTime) {
  for (const char* bad : {"reps=0", "reps=-3"}) {
    try {
      (void)run_scenario("fig5", Config::from_string(bad));
      FAIL() << "expected InvalidArgument for " << bad;
    } catch (const InvalidArgument& e) {
      const std::string what = e.what();
      EXPECT_NE(what.find("reps"), std::string::npos) << bad;
      EXPECT_NE(what.find(">= 1"), std::string::npos)
          << bad << ": message must name the valid range: " << what;
    }
  }
  try {
    (void)run_scenario("fig5", Config::from_string("reps=2.5"));
    FAIL() << "expected InvalidArgument for reps=2.5";
  } catch (const InvalidArgument& e) {
    const std::string what = e.what();
    EXPECT_NE(what.find("expected int"), std::string::npos) << what;
    EXPECT_NE(what.find(">= 1"), std::string::npos) << what;
  }
  // The sweep plans its (point, rep) units with replication_spec before
  // any point runs, so it must name the scenario and key on its own.
  const Scenario& fig5 = ScenarioRegistry::global().get("fig5");
  for (const char* bad : {"reps=2.5", "seed=x"}) {
    try {
      (void)replication_spec(fig5, Config::from_string(bad));
      FAIL() << "expected InvalidArgument for " << bad;
    } catch (const InvalidArgument& e) {
      const std::string what = e.what();
      EXPECT_NE(what.find("scenario 'fig5'"), std::string::npos) << what;
      EXPECT_NE(what.find("expected int"), std::string::npos) << what;
    }
  }
}

TEST(ReplicationFold, RunReplicationReproducesTheInProcessFold) {
  // run_replication(r) is the unit the sharded fabric computes in a
  // separate process; folding those units must reproduce run_scenario's
  // in-process fold exactly.
  const Scenario scn = noisy_scenario();
  const Config cfg = Config::from_string("reps=4 seed=9");
  std::vector<Table> reps;
  for (std::size_t r = 0; r < 4; ++r) {
    reps.push_back(run_replication(scn, cfg, r));
  }
  EXPECT_EQ(csv_of(fold_replications(reps)), csv_of(run_scenario(scn, cfg)));

  // Reps are reproducible and pairwise distinct (disjoint seed streams).
  EXPECT_EQ(csv_of(run_replication(scn, cfg, 2)), csv_of(reps[2]));
  EXPECT_NE(csv_of(reps[0]), csv_of(reps[1]));

  // Prefix stability at the table level: rep 2 of a reps=16 run is the
  // same table as rep 2 of the reps=4 run (common random numbers).
  const Config wide = Config::from_string("reps=16 seed=9");
  EXPECT_EQ(csv_of(run_replication(scn, wide, 2)), csv_of(reps[2]));

  EXPECT_THROW((void)run_replication(scn, cfg, 4), InvalidArgument);
}

TEST(ReplicationFold, HalfWidthShrinksLikeOneOverSqrtR) {
  // Average the folded half-width over several pinned base seeds so the
  // scale estimate is stable, then check successive R quadruplings
  // shrink it by ~2x (times the Student-t ratio; ~3x for 4 -> 16).
  const Scenario scn = noisy_scenario();
  const std::vector<std::size_t> reps = {4, 16, 64};
  std::vector<double> avg_hw;
  for (const std::size_t r : reps) {
    double sum = 0.0;
    for (int seed = 1; seed <= 10; ++seed) {
      const Config cfg = Config::from_string(
          "reps=" + std::to_string(r) + " seed=" + std::to_string(seed));
      const Table folded = run_scenario(scn, cfg);
      sum += folded.number_at(0, 5);  // "x ±"
    }
    avg_hw.push_back(sum / 10.0);
  }
  EXPECT_GT(avg_hw[0], avg_hw[1]);
  EXPECT_GT(avg_hw[1], avg_hw[2]);
  // Expected ratios with sigma known: t3/t15 * 2 = 2.99 and
  // t15/t63 * 2 = 2.13; the bands absorb the sampling noise of the
  // per-R scale estimates (deterministic under the pinned seeds).
  EXPECT_GT(avg_hw[0] / avg_hw[1], 2.0);
  EXPECT_LT(avg_hw[0] / avg_hw[1], 4.5);
  EXPECT_GT(avg_hw[1] / avg_hw[2], 1.5);
  EXPECT_LT(avg_hw[1] / avg_hw[2], 3.0);
}

TEST(ReplicationFold, MismatchedTablesAreRejected) {
  Table a("t", {"x"});
  a.add_row({1.0});
  Table b("other", {"x"});
  b.add_row({2.0});
  EXPECT_THROW((void)fold_replications({a, b}), InvalidArgument);

  Table c("t", {"x"});  // row-count mismatch
  EXPECT_THROW((void)fold_replications({a, c}), InvalidArgument);

  Table d("t", {"x"});  // string vs numeric cell
  d.add_row({std::string("s")});
  EXPECT_THROW((void)fold_replications({a, d}), InvalidArgument);

  EXPECT_THROW((void)fold_replications({}), InvalidArgument);
  EXPECT_EQ(csv_of(fold_replications({a})), csv_of(a)) << "single table "
                                                          "passes through";
}

// --- pimsim-rep-v1 serialization ------------------------------------------

TEST(RepSerialization, RoundTripsEveryCellBitForBit) {
  Table t("title with \\ and\nnewline", {"s", "i", "d"});
  t.add_row({std::string("text\nwith breaks"), std::int64_t{-42}, 0.1});
  t.add_row({std::string(""), std::int64_t{1} << 62, -1e300});
  t.add_row({std::string("plain"), std::int64_t{0}, 3.141592653589793});
  const std::string bytes = serialize_table(t);
  const Table back = deserialize_table(bytes);
  EXPECT_EQ(back.title(), t.title());
  EXPECT_EQ(back.columns(), t.columns());
  ASSERT_EQ(back.rows(), t.rows());
  // Bitwise identity: re-serializing reproduces the exact bytes.
  EXPECT_EQ(serialize_table(back), bytes);
  EXPECT_EQ(std::get<std::string>(back.row(0)[0]), "text\nwith breaks");
  EXPECT_EQ(std::get<std::int64_t>(back.row(1)[1]), std::int64_t{1} << 62);
  EXPECT_EQ(back.number_at(0, 2), 0.1);
}

TEST(RepSerialization, MalformedBytesThrowInvalidArgument) {
  const std::string good = serialize_table([] {
    Table t("t", {"x"});
    t.add_row({1.5});
    return t;
  }());
  EXPECT_NO_THROW((void)deserialize_table(good));
  for (const std::string& bad : {
           std::string(),                        // empty
           std::string("pimsim-rep-v2\nt\n1\n"), // wrong schema
           good.substr(0, good.size() - 4),      // truncated
           good + "extra",                       // trailing bytes
       }) {
    EXPECT_THROW((void)deserialize_table(bad), InvalidArgument) << bad;
  }
  // A corrupted cell tag is detected, not misparsed.
  std::string tampered = good;
  const auto pos = tampered.rfind("d ");
  ASSERT_NE(pos, std::string::npos);
  tampered[pos] = 'q';
  EXPECT_THROW((void)deserialize_table(tampered), InvalidArgument);
}

// --- sharded replication axis through the real CLI ------------------------

int run_cli(std::vector<std::string> args) {
  args.insert(args.begin(), "pimsim");
  std::vector<char*> argv;
  argv.reserve(args.size());
  for (std::string& a : args) argv.push_back(a.data());
  return cli_main(static_cast<int>(argv.size()), argv.data());
}

std::string slurp(const fs::path& path) {
  std::ifstream in(path, std::ios::binary);
  EXPECT_TRUE(in.good()) << path;
  std::ostringstream os;
  os << in.rdbuf();
  return os.str();
}

/// Scratch grid with a replication axis that mixes R=1 (the bypass,
/// which must run on the raw seed) and R=4 (the folded path) points.
class ReplicatedShardEndToEnd : public ::testing::Test {
 protected:
  void SetUp() override {
    fs::remove_all(root_);
    fs::create_directories(root_);
    std::ofstream cfg(root_ / "grid.cfg");
    cfg << "ops=20000\nnodes=2\nbanks=1,2\nreps=1,4\nseed=3\n";
    cfg.close();
    ASSERT_EQ(run_cli({"sweep", "memory_contention", config(), "format=csv",
                       "out=" + (root_ / "unsharded.csv").string(),
                       "metrics=" + (root_ / "unsharded_metrics.json").string()}),
              0);
    unsharded_ = slurp(root_ / "unsharded.csv");
    ASSERT_FALSE(unsharded_.empty());
  }

  [[nodiscard]] std::string config() const {
    return "config=" + (root_ / "grid.cfg").string();
  }

  int run_shard(std::size_t i, std::size_t n, const std::string& dir) {
    return run_cli({"sweep", "memory_contention", config(), "format=csv",
                    "shard=" + std::to_string(i) + "/" + std::to_string(n),
                    "out=" + (root_ / dir).string()});
  }

  void TearDown() override { fs::remove_all(root_); }

  // Unique per process, outside the source and build trees, so parallel
  // or repeated runs never share (or leave behind) scratch files.
  const fs::path root_ = fs::temp_directory_path() /
                         ("pimsim_test_replication_" + std::to_string(::getpid()));
  std::string unsharded_;
};

TEST_F(ReplicatedShardEndToEnd, MergeIsByteIdenticalForAnyShardCount) {
  const std::string metrics_ref = slurp(root_ / "unsharded_metrics.json");
  for (const std::size_t n : {std::size_t{1}, std::size_t{2}, std::size_t{4}}) {
    const std::string dir = "chunks" + std::to_string(n);
    for (std::size_t i = 0; i < n; ++i) {
      ASSERT_EQ(run_shard(i, n, dir), 0) << "shard " << i << "/" << n;
    }
    ASSERT_EQ(run_cli({"merge", (root_ / dir).string(),
                       "out=" + (root_ / "merged.csv").string(),
                       "metrics=" + (root_ / "merged_metrics.json").string()}),
              0)
        << n;
    EXPECT_EQ(slurp(root_ / "merged.csv"), unsharded_) << "N=" << n;
    EXPECT_EQ(slurp(root_ / "merged_metrics.json"), metrics_ref) << "N=" << n;
  }
  // The manifest records each point's reps and the (point, rep) units.
  const std::string manifest = slurp(root_ / "chunks2" / "manifest.json");
  EXPECT_NE(manifest.find("\"reps\": 4"), std::string::npos);
  EXPECT_NE(manifest.find("\"units\""), std::string::npos);
  EXPECT_NE(manifest.find("\"total_units\": 5"), std::string::npos)
      << "reps=1,4 axis = 1 + 4 units (banks is list-typed, not an axis)";
}

TEST_F(ReplicatedShardEndToEnd, TamperedRepChunkIsDetectedThenRecomputed) {
  ASSERT_EQ(run_shard(0, 2, "chunks"), 0);
  ASSERT_EQ(run_shard(1, 2, "chunks"), 0);
  {
    std::ofstream tamper(root_ / "chunks" / "chunk-1-of-2.csv",
                         std::ios::app | std::ios::binary);
    tamper << "X";
  }
  EXPECT_NE(run_cli({"merge", (root_ / "chunks").string(),
                     "out=" + (root_ / "merged.csv").string()}),
            0);
  ASSERT_EQ(run_shard(1, 2, "chunks"), 0);  // invalid chunk -> recompute
  ASSERT_EQ(run_cli({"merge", (root_ / "chunks").string(),
                     "out=" + (root_ / "merged.csv").string()}),
            0);
  EXPECT_EQ(slurp(root_ / "merged.csv"), unsharded_);
}

// --- statistical correctness against a closed-form target -----------------

/// M/M/1 waiting-time scenario via the Lindley recursion, one table row
/// per run.  The folded CI is checked against queueing::mm1_mean_wait.
Scenario mm1_scenario() {
  Scenario s;
  s.name = "mm1_wait";
  s.summary = "M/M/1 mean wait via Lindley recursion";
  s.paper = "n/a";
  s.params = {
      {"seed", ParamSpec::Kind::kInt, "1", ">= 0", "base RNG seed"},
      {"reps", ParamSpec::Kind::kInt, "1", ">= 1", "replications"},
  };
  s.make = [](const Config& cfg) {
    const auto seed = static_cast<std::uint64_t>(cfg.get_int("seed", 1));
    Rng arrivals(seed, 1);
    Rng services(seed, 2);
    const double lambda = 0.8;
    const double mu = 1.0;
    const std::size_t warmup = 400;
    const std::size_t measured = 2600;
    double w = 0.0;
    RunningStats waits;
    for (std::size_t i = 0; i < warmup + measured; ++i) {
      if (i >= warmup) waits.add(w);
      const double service = services.exponential(1.0 / mu);
      const double gap = arrivals.exponential(1.0 / lambda);
      w = std::max(0.0, w + service - gap);  // Lindley: W' = max(0, W+S-A)
    }
    Table t("mm1", {"queue", "mean wait"});
    t.add_row({std::string("M/M/1"), waits.mean()});
    return t;
  };
  return s;
}

TEST(ReplicationCoverage, FoldedCiCoversClosedFormMm1AtNominalRate) {
  // 100 pinned meta-trials of a reps=12 fold; the 95% CI must cover the
  // closed-form mean wait in >= 88 of them (~3 binomial sigma below the
  // nominal 95, so the test is deterministic-strict but not seed-lucky).
  const Scenario scn = mm1_scenario();
  const double truth = queueing::mm1_mean_wait(0.8, 1.0);
  ASSERT_NEAR(truth, 4.0, 1e-12);  // rho/(mu-lambda) = 0.8/0.2
  int covered = 0;
  for (int trial = 0; trial < 100; ++trial) {
    const Config cfg = Config::from_string(
        "reps=12 seed=" + std::to_string(1000 + trial));
    const Table folded = run_scenario(scn, cfg);
    const double mean = folded.number_at(0, 2);      // "mean wait"
    const double half = folded.number_at(0, 3);      // "mean wait ±"
    ASSERT_GT(half, 0.0) << "trial " << trial;
    if (std::abs(mean - truth) <= half) ++covered;
  }
  EXPECT_GE(covered, 88) << "95% CI badly undercovers the M/M/1 target";
  EXPECT_LE(covered, 100);
}

}  // namespace
}  // namespace pimsim::core
