// Sharded sweep fabric tests: the shard planner (disjoint cover,
// heaviest-first balance, determinism), shard= parsing, and the
// end-to-end chunk contract through the real CLI — merge of N shards is
// byte-identical to the unsharded sweep (text, CSV and JSON, plus
// metrics) for N in {1, 2, 4}, a complete chunk is a no-op skip on
// rerun, and corrupted / foreign / missing / old-schema chunks and
// non-integer count fields are detected, not merged.
#include <gtest/gtest.h>

#include <cstdlib>
#include <filesystem>
#include <fstream>
#include <iostream>
#include <numeric>
#include <set>
#include <sstream>
#include <string>
#include <vector>

#include <unistd.h>  // getpid: per-process scratch dir

#include "common/error.hpp"
#include "core/chunk.hpp"
#include "core/cli.hpp"
#include "core/sweep.hpp"
#include "des/simulation.hpp"

namespace pimsim::core {
namespace {

namespace fs = std::filesystem;

TEST(ParseShard, AcceptsValidForms) {
  EXPECT_EQ(parse_shard("0/1").index, 0u);
  EXPECT_EQ(parse_shard("0/1").count, 1u);
  EXPECT_EQ(parse_shard("3/4").index, 3u);
  EXPECT_EQ(parse_shard("3/4").count, 4u);
  EXPECT_EQ(parse_shard("12/100").index, 12u);
}

TEST(ParseShard, RejectsMalformedNamingTheValidForm) {
  for (const char* bad : {"", "2", "a/b", "1/", "/4", "4/4", "5/4", "0/0",
                          "-1/4", "1/-4", "1.5/4", "1 /4", "0x1/4"}) {
    try {
      (void)parse_shard(bad);
      FAIL() << "expected InvalidArgument for '" << bad << "'";
    } catch (const InvalidArgument& e) {
      const std::string what = e.what();
      EXPECT_NE(what.find("shard=i/N"), std::string::npos) << bad;
      EXPECT_NE(what.find("valid form"), std::string::npos) << bad;
    }
  }
}

TEST(PlanShards, DisjointCoverAndRoundRobinOnEqualWeights) {
  const std::vector<double> weights(10, 1.0);
  const auto plan = plan_shards(weights, 4);
  ASSERT_EQ(plan.size(), 10u);
  std::vector<std::size_t> sizes(4, 0);
  for (const std::size_t s : plan) {
    ASSERT_LT(s, 4u);  // every point owned by exactly one valid shard
    ++sizes[s];
  }
  EXPECT_EQ(std::accumulate(sizes.begin(), sizes.end(), std::size_t{0}), 10u);
  // Equal weights degrade to round-robin: bin sizes differ by at most 1.
  for (const std::size_t n : sizes) {
    EXPECT_GE(n, 2u);
    EXPECT_LE(n, 3u);
  }
}

TEST(PlanShards, HeaviestFirstBalancesSkewedWeights) {
  // One dominant point plus many small ones: LPT puts the heavy point
  // alone on one shard and spreads the rest over the other.
  const std::vector<double> weights = {100, 1, 1, 1, 1, 1, 1, 1};
  const auto plan = plan_shards(weights, 2);
  std::vector<double> load(2, 0.0);
  for (std::size_t i = 0; i < weights.size(); ++i) load[plan[i]] += weights[i];
  // The seven light points all land opposite the heavy one.
  for (std::size_t i = 1; i < weights.size(); ++i) {
    EXPECT_NE(plan[i], plan[0]) << "light point " << i << " shares the "
                                   "heavy shard";
  }
}

TEST(PlanShards, PureFunctionOfInputs) {
  const std::vector<double> weights = {3, 1, 4, 1, 5, 9, 2, 6};
  EXPECT_EQ(plan_shards(weights, 3), plan_shards(weights, 3));
  // Degenerate weights (zero, negative, NaN) still produce a full cover.
  const std::vector<double> weird = {0.0, -1.0,
                                     std::numeric_limits<double>::quiet_NaN(),
                                     1.0};
  const auto plan = plan_shards(weird, 2);
  for (const std::size_t s : plan) EXPECT_LT(s, 2u);
}

// --- end-to-end through the CLI ------------------------------------------

int run_cli(std::vector<std::string> args) {
  args.insert(args.begin(), "pimsim");
  std::vector<char*> argv;
  argv.reserve(args.size());
  for (std::string& a : args) argv.push_back(a.data());
  return cli_main(static_cast<int>(argv.size()), argv.data());
}

/// Runs the CLI and returns what it printed on stderr.
std::string run_cli_stderr(std::vector<std::string> args, int* rc) {
  std::ostringstream err;
  std::streambuf* const old = std::cerr.rdbuf(err.rdbuf());
  *rc = run_cli(std::move(args));
  std::cerr.rdbuf(old);
  return err.str();
}

std::string slurp(const fs::path& path) {
  std::ifstream in(path, std::ios::binary);
  EXPECT_TRUE(in.good()) << path;
  std::ostringstream os;
  os << in.rdbuf();
  return os.str();
}

void spit(const fs::path& path, const std::string& text) {
  std::ofstream out(path, std::ios::binary | std::ios::trunc);
  ASSERT_TRUE(out.good()) << path;
  out << text;
}

/// Fixture owning a per-process scratch dir under the system temp dir
/// with a small 2-point memory_contention grid (seed axis; banks is
/// list-typed, not an axis).
class ShardEndToEnd : public ::testing::Test {
 protected:
  void SetUp() override {
    fs::remove_all(root_);
    fs::create_directories(root_);
    spit(root_ / "grid.cfg", "ops=20000\nnodes=2\nbanks=1,2\nseed=3,5\n");
    unsharded_ = unsharded("csv", "unsharded_metrics.json");
    ASSERT_FALSE(unsharded_.empty());
  }

  [[nodiscard]] std::string config() const {
    return "config=" + (root_ / "grid.cfg").string();
  }

  /// The unsharded sweep's output in `format`; its metrics go to `metrics`.
  std::string unsharded(const std::string& format, const std::string& metrics) {
    const fs::path out = root_ / ("unsharded." + format);
    EXPECT_EQ(run_cli({"sweep", "memory_contention", config(),
                       "format=" + format, "out=" + out.string(),
                       "metrics=" + (root_ / metrics).string()}),
              0);
    return slurp(out);
  }

  int run_shard(std::size_t i, std::size_t n, const std::string& dir,
                const std::string& format = "csv") {
    return run_cli({"sweep", "memory_contention", config(), "format=" + format,
                    "shard=" + std::to_string(i) + "/" + std::to_string(n),
                    "out=" + (root_ / dir).string()});
  }

  int merge(const std::string& dir, const std::string& out,
            const std::string& metrics = "") {
    std::vector<std::string> args{"merge", (root_ / dir).string(),
                                  "out=" + (root_ / out).string()};
    if (!metrics.empty()) args.push_back("metrics=" + (root_ / metrics).string());
    return run_cli(args);
  }

  void TearDown() override { fs::remove_all(root_); }

  // Unique per process, outside the source and build trees, so parallel
  // or repeated runs never share (or leave behind) scratch files.
  const fs::path root_ = fs::temp_directory_path() /
                         ("pimsim_test_shard_" + std::to_string(::getpid()));
  std::string unsharded_;
};

TEST_F(ShardEndToEnd, MergeIsByteIdenticalToUnshardedForAnyShardCount) {
  // Merge renders what the unsharded sweep renders, in every format.
  for (const std::string format : {"text", "csv", "json"}) {
    const std::string ref = unsharded(format, "ref_metrics.json");
    const std::string metrics_ref = slurp(root_ / "ref_metrics.json");
    for (const std::size_t n : {std::size_t{1}, std::size_t{2}, std::size_t{4}}) {
      const std::string dir = format + "_chunks" + std::to_string(n);
      for (std::size_t i = 0; i < n; ++i) {
        ASSERT_EQ(run_shard(i, n, dir, format), 0)
            << format << " shard " << i << "/" << n;
      }
      ASSERT_EQ(merge(dir, "merged", "merged_metrics.json"), 0)
          << format << " N=" << n;
      EXPECT_EQ(slurp(root_ / "merged"), ref) << format << " N=" << n;
      EXPECT_EQ(slurp(root_ / "merged_metrics.json"), metrics_ref)
          << format << " N=" << n;
    }
  }
}

TEST_F(ShardEndToEnd, RerunOfCompleteShardIsANoOpSkip) {
  ASSERT_EQ(run_shard(0, 2, "chunks"), 0);
  const std::string csv = slurp(root_ / "chunks" / "chunk-0-of-2.csv");
  const std::string sidecar = slurp(root_ / "chunks" / "chunk-0-of-2.json");
  ASSERT_EQ(run_shard(0, 2, "chunks"), 0);  // resume: cache hit
  EXPECT_EQ(slurp(root_ / "chunks" / "chunk-0-of-2.csv"), csv);
  EXPECT_EQ(slurp(root_ / "chunks" / "chunk-0-of-2.json"), sidecar);
}

TEST_F(ShardEndToEnd, DeletedChunkIsRecomputedWithoutTouchingOthers) {
  ASSERT_EQ(run_shard(0, 2, "chunks"), 0);
  ASSERT_EQ(run_shard(1, 2, "chunks"), 0);
  const std::string other = slurp(root_ / "chunks" / "chunk-1-of-2.csv");
  fs::remove(root_ / "chunks" / "chunk-0-of-2.csv");
  fs::remove(root_ / "chunks" / "chunk-0-of-2.json");
  ASSERT_EQ(run_shard(0, 2, "chunks"), 0);  // recomputes only shard 0
  EXPECT_EQ(slurp(root_ / "chunks" / "chunk-1-of-2.csv"), other);
  ASSERT_EQ(merge("chunks", "merged.csv"), 0);
  EXPECT_EQ(slurp(root_ / "merged.csv"), unsharded_);
}

TEST_F(ShardEndToEnd, CorruptedChunkIsDetectedThenRecomputed) {
  ASSERT_EQ(run_shard(0, 2, "chunks"), 0);
  ASSERT_EQ(run_shard(1, 2, "chunks"), 0);
  {
    std::ofstream tamper(root_ / "chunks" / "chunk-1-of-2.csv",
                         std::ios::app | std::ios::binary);
    tamper << "X";  // divergent bytes: fingerprint check must fire
  }
  EXPECT_NE(merge("chunks", "merged.csv"), 0);
  ASSERT_EQ(run_shard(1, 2, "chunks"), 0);  // invalid chunk -> recompute
  ASSERT_EQ(merge("chunks", "merged.csv"), 0);
  EXPECT_EQ(slurp(root_ / "merged.csv"), unsharded_);
}

TEST_F(ShardEndToEnd, MissingChunkAndForeignContentsAreRejected) {
  ASSERT_EQ(run_shard(0, 2, "chunks"), 0);
  EXPECT_NE(merge("chunks", "merged.csv"), 0);  // shard 1 missing

  ASSERT_EQ(run_shard(1, 2, "chunks"), 0);
  std::ofstream junk(root_ / "chunks" / "chunk-weird.csv");
  junk << "?";
  junk.close();
  EXPECT_NE(merge("chunks", "merged.csv"), 0);  // unknown chunk-* name
  fs::remove(root_ / "chunks" / "chunk-weird.csv");
  EXPECT_EQ(merge("chunks", "merged.csv"), 0);
}

TEST_F(ShardEndToEnd, DifferentGridIntoSameDirIsRejected) {
  ASSERT_EQ(run_shard(0, 2, "chunks"), 0);
  // Same directory, different grid (ops changed): manifest mismatch.
  EXPECT_NE(run_cli({"sweep", "memory_contention", config(), "format=csv",
                     "ops=30000", "shard=0/2",
                     "out=" + (root_ / "chunks").string()}),
            0);
  // Different shard count is a different manifest too.
  EXPECT_NE(run_shard(0, 3, "chunks"), 0);
}

/// Replaces the first `from` in `text` with `to` (which must be present).
std::string replace_first(std::string text, const std::string& from,
                          const std::string& to) {
  const std::size_t at = text.find(from);
  EXPECT_NE(at, std::string::npos) << from;
  if (at != std::string::npos) text.replace(at, from.size(), to);
  return text;
}

TEST_F(ShardEndToEnd, NonIntegerManifestCountIsRejectedNamingFileAndField) {
  ASSERT_EQ(run_shard(0, 2, "chunks"), 0);
  ASSERT_EQ(run_shard(1, 2, "chunks"), 0);
  const fs::path manifest = root_ / "chunks" / "manifest.json";
  const std::string original = slurp(manifest);
  for (const std::string bad :
       {"2.9", "2e0", "-2", "+2", "\"2\"", "18446744073709551618"}) {
    spit(manifest, replace_first(original, "\"shards\": 2,",
                                 "\"shards\": " + bad + ","));
    int rc = 0;
    const std::string err = run_cli_stderr(
        {"merge", (root_ / "chunks").string(),
         "out=" + (root_ / "merged.csv").string()},
        &rc);
    EXPECT_NE(rc, 0) << bad;
    EXPECT_NE(err.find("manifest.json"), std::string::npos) << err;
    EXPECT_NE(err.find("\"shards\" is not a non-negative integer"),
              std::string::npos)
        << err;
  }
  spit(manifest, original);
  ASSERT_EQ(merge("chunks", "merged.csv"), 0);
  EXPECT_EQ(slurp(root_ / "merged.csv"), unsharded_);
}

TEST_F(ShardEndToEnd, NonIntegerChunkBytesIsInvalidAndRecomputedOnResume) {
  ASSERT_EQ(run_shard(0, 2, "chunks"), 0);
  ASSERT_EQ(run_shard(1, 2, "chunks"), 0);
  const fs::path sidecar = root_ / "chunks" / "chunk-1-of-2.json";
  const std::string original = slurp(sidecar);
  const std::size_t at = original.find("\"bytes\": ");
  ASSERT_NE(at, std::string::npos);
  const std::size_t digits_end =
      original.find_first_not_of("0123456789", at + 9);
  // A fraction, an exponent, and a value past 2^64.
  for (const std::string suffix : {".7", "e0", "00000000000000000000"}) {
    std::string tampered = original;
    tampered.insert(digits_end, suffix);
    spit(sidecar, tampered);
    int rc = 0;
    const std::string err = run_cli_stderr(
        {"merge", (root_ / "chunks").string(),
         "out=" + (root_ / "merged.csv").string()},
        &rc);
    EXPECT_NE(rc, 0) << suffix;
    EXPECT_NE(err.find("chunk-1-of-2.json"), std::string::npos) << err;
    EXPECT_NE(err.find("\"bytes\" is not a non-negative integer"),
              std::string::npos)
        << err;

    // Resume treats the chunk as invalid and recomputes it.
    const std::string resume = run_cli_stderr(
        {"sweep", "memory_contention", config(), "format=csv", "shard=1/2",
         "out=" + (root_ / "chunks").string()},
        &rc);
    EXPECT_EQ(rc, 0) << resume;
    EXPECT_EQ(resume.find("skipping"), std::string::npos) << resume;
    EXPECT_NE(run_cli_stderr({"sweep", "memory_contention", config(),
                              "format=csv", "shard=1/2",
                              "out=" + (root_ / "chunks").string()},
                             &rc)
                  .find("skipping"),
              std::string::npos);  // the recomputed chunk is a cache hit
    ASSERT_EQ(merge("chunks", "merged.csv"), 0) << suffix;
    EXPECT_EQ(slurp(root_ / "merged.csv"), unsharded_) << suffix;
  }
}

// A chunk directory as written before the unit model: one rendered block
// per point and a per-point shard plan.
constexpr const char* kV1Manifest = R"({
  "schema": "pimsim-manifest-v1",
  "scenario": "memory_contention",
  "format": "csv",
  "shards": 1,
  "total_points": 2,
  "grid_fingerprint": "0xddba05e65cbb930e",
  "points": [
    {"point": 0, "shard": 0, "assignment": "seed=3"},
    {"point": 1, "shard": 0, "assignment": "seed=5"}
  ]
}
)";
constexpr const char* kV1Sidecar = R"({
  "schema": "pimsim-chunk-v1",
  "scenario": "memory_contention",
  "format": "csv",
  "shard": 0,
  "shards": 1,
  "grid_fingerprint": "0xddba05e65cbb930e",
  "wall_seconds": 0.0056438060000000003,
  "points": [
    {"point": 0, "assignment": "seed=3", "bytes": 209, "fingerprint": "0x15480e414672f3ee"},
    {"point": 1, "assignment": "seed=5", "bytes": 209, "fingerprint": "0xfb059d86affe9c64"}
  ],
  "metrics": []
}
)";
constexpr const char* kV1Blocks =
    "# memory_contention seed=3\n"
    "# Banked-memory contention (100% LWP work, 2 LWPs, queue = per-bank)\n"
    "Banks,makespan (cycles),vs analytic,row-hit %,accesses\n"
    "1,184415,1.4521,6.4398,5994\n"
    "2,126250,0.9941,87.4708,5994\n"
    "\n"
    "# memory_contention seed=5\n"
    "# Banked-memory contention (100% LWP work, 2 LWPs, queue = per-bank)\n"
    "Banks,makespan (cycles),vs analytic,row-hit %,accesses\n"
    "1,184660,1.4859,5.9575,6026\n"
    "2,126075,1.0145,87.4544,6026\n"
    "\n";

TEST_F(ShardEndToEnd, V1ChunkDirectoryIsRejectedByMergeAndResume) {
  const fs::path dir = root_ / "v1";
  fs::create_directories(dir);
  spit(dir / "manifest.json", kV1Manifest);
  spit(dir / "chunk-0-of-1.json", kV1Sidecar);
  spit(dir / "chunk-0-of-1.csv", kV1Blocks);

  int rc = 0;
  std::string err = run_cli_stderr(
      {"merge", dir.string(), "out=" + (root_ / "merged.csv").string()}, &rc);
  EXPECT_NE(rc, 0);
  EXPECT_NE(err.find("unknown schema"), std::string::npos) << err;
  EXPECT_FALSE(fs::exists(root_ / "merged.csv"));

  err = run_cli_stderr({"sweep", "memory_contention", config(), "format=csv",
                        "shard=0/1", "out=" + dir.string()},
                       &rc);
  EXPECT_NE(rc, 0);
  EXPECT_NE(err.find("different sweep"), std::string::npos) << err;
  // Nothing of the old sweep is overwritten or reused.
  EXPECT_EQ(slurp(dir / "manifest.json"), kV1Manifest);
  EXPECT_EQ(slurp(dir / "chunk-0-of-1.json"), kV1Sidecar);
  EXPECT_EQ(slurp(dir / "chunk-0-of-1.csv"), kV1Blocks);
}

TEST_F(ShardEndToEnd, ShardWithoutOutDirAndBadDirAreRejected) {
  EXPECT_NE(run_cli({"sweep", "memory_contention", config(), "shard=0/2"}),
            0);  // shard= requires out=DIR
  EXPECT_NE(run_cli({"merge", (root_ / "nonexistent").string()}), 0);
  EXPECT_NE(run_cli({"merge", root_.string()}), 0);  // no manifest.json
}

TEST_F(ShardEndToEnd, ObservabilitySwitchesDoNotOutliveTheCommand) {
  // In-process callers (these tests, perfbench) run commands back to
  // back: a command's audit/trace/metrics/profile switches must end with
  // it, leaving the environment and every later Simulation untouched.
  constexpr const char* kVars[] = {"PIMSIM_AUDIT", "PIMSIM_TRACE",
                                   "PIMSIM_METRICS", "PIMSIM_PROFILE"};
  for (const char* var : kVars) ::unsetenv(var);
  int rc = 0;
  (void)run_cli_stderr(
      {"run", "memory_contention", "ops=20000", "nodes=2", "banks=1,2",
       "audit=1", "profile=1", "format=csv", "out=" + (root_ / "run.csv").string(),
       "trace=" + (root_ / "t.json").string(),
       "metrics=" + (root_ / "m.json").string()},
      &rc);
  EXPECT_EQ(rc, 0);
  EXPECT_EQ(run_shard(0, 2, "chunks"), 0);
  for (const char* var : kVars) EXPECT_EQ(std::getenv(var), nullptr) << var;
  const des::Simulation sim;
  EXPECT_FALSE(sim.audit_enabled());
  EXPECT_FALSE(sim.tracing_enabled());
  EXPECT_FALSE(sim.metrics_enabled());
  EXPECT_FALSE(sim.profile_enabled());
}

}  // namespace
}  // namespace pimsim::core
