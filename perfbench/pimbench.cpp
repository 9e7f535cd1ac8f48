// pimbench: the end-to-end host-time benchmark of the pimsim simulator.
//
// One process runs one named workload (see README.md beside this file for
// why each exists and how to read the output):
//
//   fig11_mesh      fig11 points on the packet-level mesh2d network
//   fig12_analytic  fig12 points on the analytic network (parcel + kernel)
//   fig5_banked     fig5 points on the banked DRAM backend (arch + memory)
//   sweep_sharded   a replicated fig12 sweep as 32 shards + merge via the CLI
//
// Every timing is host time (the simulator's own wall clock).  Simulated
// results are not metrics: each point's CSV output is checked against the
// fingerprints pinned in pins.txt, and a throw or a mismatch is a failed
// operation.  With --trace 0 the driver reports the end-to-end metrics;
// with --trace 1 it reports the per-layer ledger instead: spans recorded
// around direct calls into each layer's public functions, plus the exact
// counters the program exports through obs::MetricsHub / obs::ProfileHub.
//
// Usage (run.py builds this binary and passes the directories):
//   pimbench --workload NAME --seed N --seconds S --trace 0|1
//            --bench-dir DIR --work-dir DIR [--sim-seeds a,b,...] [--smoke]
//   pimbench --write-pins FILE --bench-dir DIR --work-dir DIR
//
// --seed chooses the order the points run in (the inputs the program
// receives are the same set for every --seed, so the pins always apply);
// --sim-seeds replaces the pinned simulation seeds, in which case the
// fingerprints are printed for a parent-vs-change comparison and only
// their repeatability inside the run is checked.  The last line of
// standard output is one JSON object: correct, attempted, failed, metrics.
#include <gnu/libc-version.h>
#include <spawn.h>
#include <sys/wait.h>
#include <unistd.h>

#include <algorithm>
#include <bit>
#include <chrono>
#include <cerrno>
#include <cmath>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <exception>
#include <filesystem>
#include <fstream>
#include <iostream>
#include <map>
#include <memory>
#include <numeric>
#include <optional>
#include <sstream>
#include <stdexcept>
#include <string>
#include <vector>

#include "arch/host_system.hpp"
#include "common/config.hpp"
#include "common/rng.hpp"
#include "common/table.hpp"
#include "core/cli.hpp"
#include "core/experiment.hpp"
#include "core/figures.hpp"
#include "core/scenario.hpp"
#include "des/process.hpp"
#include "des/simulation.hpp"
#include "interconnect/contention.hpp"
#include "interconnect/network.hpp"
#include "memory/memory_system.hpp"
#include "obs/metrics.hpp"
#include "obs/profiler.hpp"
#include "parcel/system.hpp"

#ifndef PIMBENCH_BUILD_TYPE
#define PIMBENCH_BUILD_TYPE "unknown"
#endif

extern char** environ;

namespace {

namespace fs = std::filesystem;
using namespace pimsim;
using Clock = std::chrono::steady_clock;

double since(Clock::time_point t0) {
  return std::chrono::duration<double>(Clock::now() - t0).count();
}

// --- workload definitions --------------------------------------------------
//
// Sizes are chosen so one pass over a workload takes a few seconds on a
// desktop-class core; a run repeats passes for --seconds.

constexpr const char* kFig11Base =
    "contention=1 network=mesh2d nodes=16 bytes=256 horizon=4000 threads=1";
constexpr const char* kFig12Base =
    "contention=0 network=flat horizon=2000 threads=1";
constexpr const char* kFig5Base =
    "memory=banked ops=16000 batch=800 maxnodes=16 threads=1";
// The sweep's grid lives in sweep_shard.cfg; these keys ride on the CLI.
constexpr const char* kSweepArgs = "horizon=200 reps=16 jobs=1 format=csv";
// Many small shards rather than a few large ones: each shard call is one
// timed operation, wall_s sums the calls' fastest passes, and the more
// calls that sum has, the more the slow spells of a shared machine that
// each one catches average out.
constexpr std::size_t kShards = 32;
// Setup is measured this many times per run, each in a fresh process.
constexpr int kSetupReps = 21;
// Points a --smoke run keeps per point workload.
constexpr std::size_t kSmokePoints = 4;

enum class Kind { kFig11, kFig12, kFig5, kSweep };

struct Workload {
  std::string name;
  Kind kind = Kind::kFig11;
  std::string scenario;             ///< registry name the points run
  std::vector<std::string> points;  ///< key=value text, canonical order
  std::string warmup;               ///< setup's untimed point (always pinned)
  std::string sweep_seeds;          ///< sweep_sharded: seed= list
};

std::vector<std::uint64_t> pinned_seeds(Kind kind) {
  switch (kind) {
    case Kind::kFig11:
    case Kind::kFig12: return {1, 2, 3};
    case Kind::kFig5: {
      std::vector<std::uint64_t> s(50);
      std::iota(s.begin(), s.end(), std::uint64_t{1});
      return s;
    }
    case Kind::kSweep: return {1, 3};
  }
  return {};
}

std::vector<std::uint64_t> parse_seeds(const std::string& text) {
  std::vector<std::uint64_t> seeds;
  std::stringstream ss(text);
  std::string item;
  while (std::getline(ss, item, ',')) {
    if (item.empty() ||
        item.find_first_not_of("0123456789") != std::string::npos) {
      throw std::invalid_argument("--sim-seeds: bad seed '" + item + "'");
    }
    seeds.push_back(std::stoull(item));
  }
  if (seeds.empty()) throw std::invalid_argument("--sim-seeds: empty list");
  return seeds;
}

Workload make_workload(const std::string& name,
                       const std::vector<std::uint64_t>& custom_seeds,
                       bool smoke) {
  Workload w;
  w.name = name;
  if (name == "fig11_mesh") {
    w.kind = Kind::kFig11;
    w.scenario = "fig11";
  } else if (name == "fig12_analytic") {
    w.kind = Kind::kFig12;
    w.scenario = "fig12";
  } else if (name == "fig5_banked") {
    w.kind = Kind::kFig5;
    w.scenario = "fig5";
  } else if (name == "sweep_sharded") {
    w.kind = Kind::kSweep;
    w.scenario = "fig12";
  } else {
    throw std::invalid_argument(
        "unknown workload '" + name +
        "'; valid: fig11_mesh, fig12_analytic, fig5_banked, sweep_sharded");
  }
  const std::vector<std::uint64_t> seeds =
      custom_seeds.empty() ? pinned_seeds(w.kind) : custom_seeds;
  const auto add = [&w](const char* base, const std::string& rest) {
    w.points.push_back(std::string(base) + " " + rest);
  };
  switch (w.kind) {
    case Kind::kFig11:
      for (const char* lat : {"10", "50", "100", "200", "500", "1000", "2000"}) {
        for (const char* rem : {"0.02", "0.05", "0.1", "0.2", "0.5"}) {
          for (const std::uint64_t s : seeds) {
            add(kFig11Base, std::string("latencies=") + lat + " remotes=" +
                                rem + " seed=" + std::to_string(s));
          }
        }
      }
      w.warmup = std::string(kFig11Base) + " latencies=100 remotes=0.5 seed=1";
      break;
    case Kind::kFig12:
      for (const char* lat : {"100", "200", "400", "800"}) {
        for (const char* size :
             {"1", "2", "4", "8", "16", "32", "64", "128", "256"}) {
          for (const std::uint64_t s : seeds) {
            add(kFig12Base, std::string("latency=") + lat + " sizes=" + size +
                                " seed=" + std::to_string(s));
          }
        }
      }
      w.warmup = std::string(kFig12Base) + " latency=200 sizes=128 seed=1";
      break;
    case Kind::kFig5:
      for (const std::uint64_t s : seeds) {
        for (const char* queue : {"0", "1"}) {
          add(kFig5Base, "seed=" + std::to_string(s) + " mem_queue=" + queue);
        }
      }
      w.warmup = std::string(kFig5Base) + " seed=1 mem_queue=0";
      break;
    case Kind::kSweep: {
      for (const std::uint64_t s : seeds) {
        w.sweep_seeds += (w.sweep_seeds.empty() ? "" : ",") + std::to_string(s);
      }
      // One point of the sweep's grid with all its replications.
      w.warmup =
          "horizon=200 latency=100 premote=0.05 seed=1 sizes=1,4,16,64 "
          "pars=1,8,32 reps=16 threads=1";
      break;
    }
  }
  if (smoke && w.points.size() > kSmokePoints) w.points.resize(kSmokePoints);
  return w;
}

// --- output pins -------------------------------------------------------------

std::string toolchain() {
#ifdef __clang__
  const char* compiler = "clang ";
#else
  const char* compiler = "gcc ";
#endif
  return compiler + std::string(__VERSION__) + "; glibc " +
         gnu_get_libc_version();
}

struct Pins {
  std::string toolchain;
  std::map<std::string, std::uint64_t> fingerprints;  ///< "workload|point"
};

std::string pin_key(const std::string& workload, const std::string& point) {
  return workload + "|" + point;
}

// pins.txt: a "toolchain ..." line, then "<workload> <hex> <point...>".
Pins load_pins(const fs::path& path) {
  std::ifstream in(path);
  if (!in) throw std::runtime_error("cannot read pins file " + path.string());
  Pins pins;
  std::string line;
  while (std::getline(in, line)) {
    if (line.empty() || line[0] == '#') continue;
    if (line.rfind("toolchain ", 0) == 0) {
      pins.toolchain = line.substr(10);
      continue;
    }
    std::istringstream fields(line);
    std::string workload, hex, point;
    fields >> workload >> hex;
    std::getline(fields >> std::ws, point);
    if (workload.empty() || hex.empty() || point.empty()) {
      throw std::runtime_error("malformed pins line: " + line);
    }
    pins.fingerprints[pin_key(workload, point)] =
        std::stoull(hex, nullptr, 16);
  }
  return pins;
}

std::string hex64(std::uint64_t v) {
  char buf[19];
  std::snprintf(buf, sizeof buf, "0x%016llx",
                static_cast<unsigned long long>(v));
  return buf;
}

/// Counts operations and checks each output fingerprint.  With the pinned
/// seeds every output must equal its pin; with custom seeds the first
/// output of a point becomes its reference and later runs must repeat it.
class Checker {
 public:
  Checker(std::string workload, const Pins* pins)
      : workload_(std::move(workload)), pins_(pins) {}

  bool check(const std::string& point, std::uint64_t fingerprint) {
    ++attempted_;
    std::optional<std::uint64_t> expected =
        seen_.emplace(point, fingerprint).first->second;
    if (pins_ != nullptr) {
      const auto pin = pins_->fingerprints.find(pin_key(workload_, point));
      expected = pin == pins_->fingerprints.end()
                     ? std::nullopt
                     : std::optional<std::uint64_t>(pin->second);
    }
    if (expected == fingerprint) return true;
    fail(point, expected ? "output " + hex64(fingerprint) + " != pinned " +
                               hex64(*expected)
                         : "no pinned fingerprint");
    return false;
  }

  void fail(const std::string& point, const std::string& why) {
    if (failed_ < 10) {
      std::cerr << "pimbench: FAILED " << workload_ << " [" << point
                << "]: " << why << "\n";
    }
    ++failed_;
  }
  void count_attempt() { ++attempted_; }

  [[nodiscard]] std::uint64_t attempted() const { return attempted_; }
  [[nodiscard]] std::uint64_t failed() const { return failed_; }
  [[nodiscard]] const std::map<std::string, std::uint64_t>& seen() const {
    return seen_;
  }

 private:
  std::string workload_;
  const Pins* pins_;
  std::map<std::string, std::uint64_t> seen_;
  std::uint64_t attempted_ = 0;
  std::uint64_t failed_ = 0;
};

// --- observability switches -------------------------------------------------

constexpr const char* kObsEnv[] = {"PIMSIM_AUDIT", "PIMSIM_TRACE",
                                   "PIMSIM_TRACE_CAP", "PIMSIM_METRICS",
                                   "PIMSIM_PROFILE"};

/// Simulation's constructor reads these, so a stray export would time an
/// instrumented program: clear them before anything runs.
void clear_observability_env() {
  for (const char* var : kObsEnv) {
    if (std::getenv(var) != nullptr) {
      std::cerr << "pimbench: clearing " << var << " for a hermetic run\n";
      ::unsetenv(var);
    }
  }
}

/// Metrics + kernel profiling on (fresh hubs) or off, for every
/// Simulation constructed afterwards.
void set_observed(bool on) {
  if (on) {
    ::setenv("PIMSIM_METRICS", "1", 1);
    ::setenv("PIMSIM_PROFILE", "1", 1);
    obs::MetricsHub::global().reset();
    obs::ProfileHub::global().reset();
  } else {
    ::unsetenv("PIMSIM_METRICS");
    ::unsetenv("PIMSIM_PROFILE");
  }
}

/// The exact counts one traced pass exports.
struct Counts {
  std::uint64_t simulations = 0;
  // Mutable: the registry's lookups are find-or-create.
  mutable obs::MetricsRegistry metrics;
  obs::KernelProfiler profile;

  /// Folds in what the hubs hold now.
  void harvest() {
    simulations += obs::MetricsHub::global().simulations();
    metrics.merge(obs::MetricsHub::global().aggregate());
    profile.merge(obs::ProfileHub::global().snapshot());
  }
  [[nodiscard]] std::uint64_t counter(const char* name) const {
    return metrics.counter(name).value();
  }
  [[nodiscard]] RunningStats summary(const char* name) const {
    return metrics.summary(name).stats();
  }
  [[nodiscard]] double gauge_max(const char* name) const {
    return metrics.gauge(name).max();
  }
  /// Every integer count reported, for the repeat check across passes.
  [[nodiscard]] std::vector<std::uint64_t> signature() const {
    std::vector<std::uint64_t> sig{simulations};
    for (const auto& k : profile.stats()) sig.push_back(k.dispatches);
    for (const char* c :
         {"des.events_dispatched", "net.packets_sent", "net.packets_delivered",
          "net.flit_hops", "mem.accesses", "mem.row_hits", "mem.row_misses"}) {
      sig.push_back(counter(c));
    }
    for (const char* s : {"parcel.request_rtt_cycles", "msg.request_rtt_cycles",
                          "net.packet_latency_cycles"}) {
      sig.push_back(summary(s).count());
    }
    return sig;
  }
};

// --- one pass over a workload ------------------------------------------------

/// Spans of one traced pass, summed per name.
struct PassLedger {
  double run_scenario_s = 0.0;
  double render_s = 0.0;
  double shard_s = 0.0;
  double merge_s = 0.0;
  std::uint64_t chunk_bytes = 0;
  Counts counts;
};

struct PassResult {
  double wall_s = 0.0;
  std::vector<double> op_seconds;  ///< indexed by point / CLI call
};

/// Calls fn() and adds its host time to `acc` (one span).
template <typename F>
auto timed(double& acc, F&& fn) {
  const auto t0 = Clock::now();
  auto result = fn();
  acc += since(t0);
  return result;
}

/// Runs one point and returns its table and CSV fingerprint.
std::pair<Table, std::uint64_t> run_point(const std::string& scenario,
                                          const std::string& point,
                                          PassLedger* ledger) {
  const auto t0 = Clock::now();
  Table table = core::run_scenario(scenario, Config::from_string(point));
  const auto t1 = Clock::now();
  std::ostringstream csv;
  table.print_csv(csv);
  if (ledger != nullptr) {
    ledger->run_scenario_s += std::chrono::duration<double>(t1 - t0).count();
    ledger->render_s += since(t1);
  }
  return {std::move(table), core::data_fingerprint(csv.str())};
}

std::vector<std::size_t> shuffled(std::size_t n, std::uint64_t seed,
                                  std::uint64_t pass) {
  std::vector<std::size_t> order(n);
  std::iota(order.begin(), order.end(), std::size_t{0});
  Rng rng(seed, pass);
  for (std::size_t i = n; i > 1; --i) {
    std::swap(order[i - 1], order[rng.uniform_int(0, i - 1)]);
  }
  return order;
}

PassResult run_point_pass(const Workload& w, const std::vector<std::size_t>& order,
                          Checker& checker, PassLedger* ledger,
                          std::vector<std::unique_ptr<Table>>* tables) {
  PassResult result;
  result.op_seconds.assign(w.points.size(), 0.0);
  if (ledger != nullptr) set_observed(true);
  const auto pass_t0 = Clock::now();
  for (const std::size_t idx : order) {
    const auto t0 = Clock::now();
    try {
      auto [table, fp] = run_point(w.scenario, w.points[idx], ledger);
      checker.check(w.points[idx], fp);
      if (tables != nullptr) {
        (*tables)[idx] = std::make_unique<Table>(std::move(table));
      }
    } catch (const std::exception& e) {
      checker.count_attempt();
      checker.fail(w.points[idx], std::string("threw: ") + e.what());
    }
    result.op_seconds[idx] = since(t0);
  }
  result.wall_s = since(pass_t0);
  if (ledger != nullptr) {
    ledger->counts.harvest();
    set_observed(false);
  }
  return result;
}

int call_cli(std::vector<std::string> args) {
  std::vector<char*> argv;
  for (std::string& a : args) argv.push_back(a.data());
  argv.push_back(nullptr);
  return core::cli_main(static_cast<int>(args.size()), argv.data());
}

std::uint64_t directory_bytes(const fs::path& dir) {
  std::uint64_t total = 0;
  for (const auto& entry : fs::directory_iterator(dir)) {
    if (entry.is_regular_file()) total += entry.file_size();
  }
  return total;
}

struct SweepSpec {
  fs::path config;
  fs::path work_dir;
};

std::string sweep_point_key(const Workload& w) {
  return std::string("merged ") + kSweepArgs + " seed=" + w.sweep_seeds;
}

/// Four `pimsim sweep ... shard=i/4` calls into a fresh chunk directory
/// (a complete chunk is a resume cache, so a reused one would time a
/// no-op skip), then `pimsim merge`, all in this process.
PassResult run_sweep_pass(const Workload& w, const SweepSpec& spec,
                          const std::vector<std::size_t>& order,
                          std::uint64_t pass, Checker& checker,
                          PassLedger* ledger) {
  const fs::path dir = spec.work_dir / ("sweep-" + std::to_string(::getpid()) +
                                        "-" + std::to_string(pass));
  fs::remove_all(dir);
  fs::create_directories(dir);
  PassResult result;
  result.op_seconds.assign(kShards + 1, 0.0);  // the shards, then the merge
  const auto pass_t0 = Clock::now();
  for (const std::size_t shard : order) {
    std::vector<std::string> args{"pimsim", "sweep", w.scenario,
                                  "config=" + spec.config.string()};
    std::istringstream extra(kSweepArgs);
    for (std::string tok; extra >> tok;) args.push_back(tok);
    args.push_back("seed=" + w.sweep_seeds);
    args.push_back("shard=" + std::to_string(shard) + "/" +
                   std::to_string(kShards));
    args.push_back("out=" + dir.string());
    if (ledger != nullptr) args.push_back("profile=1");
    const auto t0 = Clock::now();
    const int rc = call_cli(args);
    const double dt = since(t0);
    result.op_seconds[shard] = dt;
    checker.count_attempt();
    if (rc != 0) {
      checker.fail("shard " + std::to_string(shard),
                   "exit code " + std::to_string(rc));
    }
    if (ledger != nullptr) {
      ledger->shard_s += dt;
      // Each shard call resets the hubs when it starts.
      ledger->counts.harvest();
    }
  }
  if (ledger != nullptr) ledger->chunk_bytes = directory_bytes(dir);
  const fs::path merged = dir / "merged.csv";
  const auto t0 = Clock::now();
  const int rc =
      call_cli({"pimsim", "merge", dir.string(), "out=" + merged.string()});
  const double dt = since(t0);
  result.op_seconds[kShards] = dt;
  result.wall_s = since(pass_t0);
  if (ledger != nullptr) ledger->merge_s += dt;
  if (rc != 0) {
    checker.count_attempt();
    checker.fail("merge", "exit code " + std::to_string(rc));
  } else {
    std::ifstream in(merged, std::ios::binary);
    std::ostringstream bytes;
    bytes << in.rdbuf();
    checker.check(sweep_point_key(w), core::data_fingerprint(bytes.str()));
  }
  // Shard mode switches metrics on process-wide; switch it back off.
  set_observed(false);
  fs::remove_all(dir);
  return result;
}

// --- layer replay: direct calls that must reproduce the table cells ---------

struct LayerTimes {
  double split_s = 0.0;
  double message_s = 0.0;
  double host_s = 0.0;
  double control_s = 0.0;
  std::uint64_t parcel_runs = 0;
  std::uint64_t arch_runs = 0;
};

bool same_bits(double a, double b) {
  return std::bit_cast<std::uint64_t>(a) == std::bit_cast<std::uint64_t>(b);
}

const std::vector<std::size_t> kPars{1, 2, 4, 8, 16, 32};

/// Parcel parameters exactly as the fig11 / fig12 scenarios build them
/// for the keys the benchmark's points set.
parcel::SplitTransactionParams parcel_base(Kind kind, const Config& c) {
  if (kind == Kind::kFig11) {
    parcel::SplitTransactionParams p = core::ParcelFigureConfig::defaults_fig11().base;
    p.nodes = static_cast<std::size_t>(c.get_int("nodes", 8));
    p.horizon = c.get_double("horizon", 30'000.0);
    p.seed = static_cast<std::uint64_t>(c.get_int("seed", 1));
    p.network = c.get_string("network", p.network);
    p.contention = c.get_bool("contention", false);
    p.message_bytes = static_cast<std::size_t>(c.get_int("bytes", 16));
    p.p_remote = c.get_list("remotes", {}).at(0);
    p.round_trip_latency = c.get_list("latencies", {}).at(0);
    return p;
  }
  parcel::SplitTransactionParams p = core::ParcelFigureConfig::defaults_fig12().base;
  p.horizon = c.get_double("horizon", 20'000.0);
  p.round_trip_latency = c.get_double("latency", 200.0);
  p.p_remote = c.get_double("premote", 0.1);
  p.seed = static_cast<std::uint64_t>(c.get_int("seed", 1));
  p.network = c.get_string("network", p.network);
  p.contention = c.get_bool("contention", false);
  p.nodes = static_cast<std::size_t>(c.get_list("sizes", {}).at(0));
  return p;
}

/// Re-runs one point through the layers' public functions and returns
/// whether every simulated cell of `table` is reproduced bit for bit.
bool replay_point(Kind kind, const std::string& point, const Table& table,
                  LayerTimes& lt) {
  const Config c = Config::from_string(point);
  bool ok = true;
  if (kind == Kind::kFig11 || kind == Kind::kFig12) {
    const parcel::SplitTransactionParams base = parcel_base(kind, c);
    const parcel::SystemRunResult control = timed(
        lt.message_s, [&] { return parcel::run_message_passing_system(base); });
    ++lt.parcel_runs;
    for (std::size_t pi = 0; pi < kPars.size(); ++pi) {
      parcel::SplitTransactionParams p = base;
      p.parallelism = kPars[pi];
      const parcel::SystemRunResult test = timed(
          lt.split_s, [&] { return parcel::run_split_transaction_system(p); });
      ++lt.parcel_runs;
      if (kind == Kind::kFig11) {
        ok &= same_bits(table.number_at(pi, 3),
                        test.total_work() / control.total_work());
      } else {
        ok &= same_bits(table.number_at(pi, 2), test.mean_idle_fraction() * 100.0);
        ok &= same_bits(table.number_at(pi, 3),
                        control.mean_idle_fraction() * 100.0);
      }
    }
    return ok;
  }
  // fig5: one (%WL, N) cell per simulated_gain(), all sharing the seed
  // SweepRunner::sweep derives for a single replication.
  core::HostFigureConfig fig = core::HostFigureConfig::defaults_fig5();
  fig.node_counts =
      core::pow2_range(static_cast<std::size_t>(c.get_int("maxnodes", 256)));
  fig.base.workload.total_ops = static_cast<std::uint64_t>(c.get_int("ops", 0));
  fig.base.batch_ops = static_cast<std::uint64_t>(c.get_int("batch", 0));
  fig.base.memory.kind = c.get_string("memory", "analytic");
  fig.base.memory.queue = static_cast<std::size_t>(c.get_int("mem_queue", 0));
  SplitMix64 seeder(static_cast<std::uint64_t>(c.get_int("seed", 1)));
  const std::uint64_t seed = seeder.next();
  for (std::size_t pi = 0; pi < fig.lwp_fractions.size(); ++pi) {
    for (std::size_t ni = 0; ni < fig.node_counts.size(); ++ni) {
      arch::HostConfig cell = fig.base;
      cell.workload.lwp_fraction = fig.lwp_fractions[pi];
      cell.lwp_nodes = fig.node_counts[ni];
      cell.seed = seed;
      const arch::HostResult test =
          timed(lt.host_s, [&] { return arch::run_host_system(cell); });
      const arch::HostResult control =
          timed(lt.control_s, [&] { return arch::run_control_system(cell); });
      lt.arch_runs += 2;
      ok &= same_bits(table.number_at(pi, 1 + ni),
                      control.total_cycles / test.total_cycles);
    }
  }
  return ok;
}

// --- standalone component replays -------------------------------------------

des::Process packet_source(des::Simulation& sim, const parcel::Interconnect& net,
                           parcel::NodeId src, std::size_t nodes, double gap,
                           std::uint64_t packets, std::size_t bytes,
                           std::uint64_t seed) {
  Rng rng(seed, src);
  co_await des::delay(sim, static_cast<double>(src) * gap /
                               static_cast<double>(nodes));
  for (std::uint64_t i = 0; i < packets; ++i) {
    auto dst = static_cast<parcel::NodeId>(rng.uniform_int(0, nodes - 2));
    if (dst >= src) ++dst;
    net.deliver(sim, src, dst, bytes, [] {});
    co_await des::delay(sim, gap);
  }
}

/// `packets` 256-byte messages between uniform random node pairs of a
/// 16-node mesh2d through ContentionInterconnect::deliver.  Returns host
/// seconds; `flit_hops` receives the network's exact hop count.
double replay_interconnect(std::uint64_t packets, std::uint64_t seed,
                           std::uint64_t& flit_hops) {
  constexpr std::size_t kNodes = 16;
  const auto net =
      interconnect::make_contention_interconnect("mesh2d", kNodes, 200.0);
  const auto t0 = Clock::now();
  {
    des::Simulation sim;
    const std::uint64_t per_source = (packets + kNodes - 1) / kNodes;
    for (parcel::NodeId src = 0; src < kNodes; ++src) {
      sim.spawn(packet_source(sim, *net, src, kNodes, 128.0, per_source, 256,
                              seed));
    }
    sim.run();
  }
  const double seconds = since(t0);
  flit_hops = net->network() != nullptr ? net->network()->flit_hops() : 0;
  return seconds;
}

/// Closed-loop banked-DRAM traffic: 16 nodes, each issuing its next access
/// when the previous one retires, through MemorySystem::access.
struct MemoryReplay {
  const mem::MemorySystem* memory = nullptr;
  des::Simulation* sim = nullptr;
  std::vector<std::uint64_t> remaining;
  std::vector<std::uint64_t> cursor;
  Rng rng{1};

  void issue(std::size_t node) {
    if (remaining[node] == 0) return;
    --remaining[node];
    // Mostly sequential words within a node's region, with random jumps.
    cursor[node] = rng.bernoulli(0.125) ? rng.uniform_int(0, 1 << 20)
                                        : cursor[node] + 32;
    const std::uint64_t addr = (std::uint64_t{node} << 24) + cursor[node];
    memory->access(*sim, node, addr, mem::AccessKind::kLwpRow, false, &done,
                   this, node, 0);
  }
  static void done(void* ctx, std::uint64_t node, std::uint64_t) {
    static_cast<MemoryReplay*>(ctx)->issue(static_cast<std::size_t>(node));
  }
};

double replay_memory(std::uint64_t accesses, std::uint64_t seed) {
  constexpr std::size_t kNodes = 16;
  mem::MemoryConfig cfg;
  cfg.kind = "banked";
  cfg.nodes = kNodes;
  cfg.banks = 4;  // four nodes share each bank, so accesses queue
  const auto memory = mem::make_memory(cfg);
  const auto t0 = Clock::now();
  {
    des::Simulation sim;
    MemoryReplay replay{memory.get(), &sim,
                        std::vector<std::uint64_t>(kNodes, accesses / kNodes),
                        std::vector<std::uint64_t>(kNodes, 0), Rng(seed)};
    for (std::size_t n = 0; n < kNodes; ++n) replay.issue(n);
    sim.run();
  }
  return since(t0);
}

// --- statistics and output -----------------------------------------------------

double quantile(std::vector<double> v, double q) {
  if (v.empty()) return 0.0;
  std::sort(v.begin(), v.end());
  const double pos = q * static_cast<double>(v.size() - 1);
  const auto lo = static_cast<std::size_t>(pos);
  const std::size_t hi = std::min(lo + 1, v.size() - 1);
  return v[lo] + (pos - static_cast<double>(lo)) * (v[hi] - v[lo]);
}

double median(const std::vector<double>& v) { return quantile(v, 0.5); }

double ratio(double num, double den) { return den > 0.0 ? num / den : 0.0; }

struct Metric {
  std::string name;
  double value;
  std::string unit;
};

void print_result(bool correct, const Checker& checker,
                  const std::vector<Metric>& metrics) {
  std::ostringstream os;
  os << "{\"correct\": " << (correct ? "true" : "false")
     << ", \"attempted\": " << checker.attempted()
     << ", \"failed\": " << checker.failed() << ", \"metrics\": {";
  char buf[64];
  for (std::size_t i = 0; i < metrics.size(); ++i) {
    const double v = std::isfinite(metrics[i].value) ? metrics[i].value : 0.0;
    std::snprintf(buf, sizeof buf, "%.17g", v);
    os << (i ? ", " : "") << "\"" << metrics[i].name << "\": {\"value\": " << buf
       << ", \"unit\": \"" << metrics[i].unit << "\"}";
  }
  os << "}}";
  std::cout << os.str() << std::endl;
}

// --- driver -------------------------------------------------------------------

struct Args {
  std::string workload;
  std::uint64_t seed = 1;
  double seconds = 10.0;
  bool trace = false;
  fs::path bench_dir = "perfbench";
  fs::path work_dir = ".bench_build/work";
  std::string sim_seeds;
  bool smoke = false;
  bool setup_only = false;
  std::string write_pins;
};

Args parse_args(int argc, char** argv) {
  Args a;
  for (int i = 1; i < argc; ++i) {
    const std::string key = argv[i];
    const auto value = [&]() -> std::string {
      if (i + 1 >= argc) throw std::invalid_argument(key + " needs a value");
      return argv[++i];
    };
    if (key == "--workload") a.workload = value();
    else if (key == "--seed") a.seed = std::stoull(value());
    else if (key == "--seconds") a.seconds = std::stod(value());
    else if (key == "--trace") a.trace = value() != "0";
    else if (key == "--bench-dir") a.bench_dir = value();
    else if (key == "--work-dir") a.work_dir = value();
    else if (key == "--sim-seeds") a.sim_seeds = value();
    else if (key == "--write-pins") a.write_pins = value();
    else if (key == "--smoke") a.smoke = true;
    else if (key == "--setup-only") a.setup_only = true;
    else throw std::invalid_argument("unknown argument '" + key + "'");
  }
  if (a.workload.empty() && a.write_pins.empty()) {
    throw std::invalid_argument("--workload NAME is required");
  }
  return a;
}

/// Setup as a run pays it: registry built, grid expanded, pins loaded,
/// one untimed warm-up point run and checked.
struct Setup {
  Workload workload;
  Pins pins;
  bool pinned = true;  ///< the workload runs the pinned seeds
};

Setup do_setup(const Args& a) {
  (void)core::ScenarioRegistry::global();
  Setup s;
  const std::vector<std::uint64_t> custom =
      a.sim_seeds.empty() ? std::vector<std::uint64_t>{} : parse_seeds(a.sim_seeds);
  s.workload = make_workload(a.workload, custom, a.smoke);
  s.pinned = custom.empty();
  s.pins = load_pins(a.bench_dir / "pins.txt");
  if (s.pins.toolchain != toolchain()) {
    std::cerr << "pimbench: pins were recorded with [" << s.pins.toolchain
              << "] but this build is [" << toolchain()
              << "]; fingerprints are compiler- and libm-sensitive, so "
                 "mismatches may be the toolchain (re-pin with --write-pins "
                 "after comparing against a parent build)\n";
  }
  const Workload& w = s.workload;
  const std::uint64_t fp = run_point(w.scenario, w.warmup, nullptr).second;
  const auto pin = s.pins.fingerprints.find(pin_key(w.name, w.warmup));
  if (pin == s.pins.fingerprints.end() || pin->second != fp) {
    throw std::runtime_error("warm-up point output " + hex64(fp) +
                             " does not match its pin");
  }
  return s;
}

/// This process's resident-set high-water mark.  VmHWM, not getrusage:
/// ru_maxrss carries the parent's peak across exec (a Python launcher's).
double peak_rss_mb() {
  std::ifstream status("/proc/self/status");
  for (std::string line; std::getline(status, line);) {
    if (line.rfind("VmHWM:", 0) == 0) return std::stod(line.substr(6)) / 1024.0;
  }
  throw std::runtime_error("no VmHWM in /proc/self/status");
}

/// Median wall time of kSetupReps fresh processes that each do only setup.
double measure_setup(const Args& a) {
  std::vector<std::string> args{"pimbench", "--setup-only", "--workload",
                                a.workload, "--bench-dir", a.bench_dir.string(),
                                "--work-dir", a.work_dir.string()};
  if (!a.sim_seeds.empty()) {
    args.insert(args.end(), {"--sim-seeds", a.sim_seeds});
  }
  if (a.smoke) args.push_back("--smoke");
  std::vector<char*> argv;
  for (std::string& s : args) argv.push_back(s.data());
  argv.push_back(nullptr);
  std::vector<double> samples;
  for (int r = 0; r < kSetupReps; ++r) {
    const auto t0 = Clock::now();
    pid_t pid = 0;
    if (::posix_spawn(&pid, "/proc/self/exe", nullptr, nullptr, argv.data(),
                      environ) != 0) {
      throw std::runtime_error("cannot spawn the setup process");
    }
    int status = 0;
    while (::waitpid(pid, &status, 0) < 0) {
      if (errno != EINTR) throw std::runtime_error("waitpid failed");
    }
    samples.push_back(since(t0));
    if (!WIFEXITED(status) || WEXITSTATUS(status) != 0) {
      throw std::runtime_error("setup process failed");
    }
  }
  return median(samples);
}

std::vector<Metric> end_to_end(const Args& a, const Setup& s, Checker& checker,
                               const SweepSpec& sweep) {
  const double setup_s = measure_setup(a);
  const Workload& w = s.workload;
  std::vector<std::vector<double>> samples;  // [operation][pass]
  const auto t0 = Clock::now();
  double last = 0.0;  // no pass starts that the last one says would overrun
  for (std::uint64_t pass = 0; pass == 0 || since(t0) + last < a.seconds;
       ++pass) {
    const auto pass_t0 = Clock::now();
    const PassResult r =
        w.kind == Kind::kSweep
            ? run_sweep_pass(w, sweep, shuffled(kShards, a.seed, pass), pass,
                             checker, nullptr)
            : run_point_pass(w, shuffled(w.points.size(), a.seed, pass),
                             checker, nullptr, nullptr);
    std::cerr << "pimbench: pass " << pass << ": " << r.wall_s << " s\n";
    samples.resize(r.op_seconds.size());
    for (std::size_t op = 0; op < r.op_seconds.size(); ++op) {
      samples[op].push_back(r.op_seconds[op]);
    }
    last = since(pass_t0);
  }
  // Load from other processes only ever adds host time, so each
  // operation's fastest pass is its estimate least disturbed by them; the
  // workload's wall time is the sum of those per-operation minima.
  std::vector<double> ops;
  for (const std::vector<double>& op : samples) {
    ops.push_back(*std::min_element(op.begin(), op.end()));
  }
  std::cerr << "pimbench: " << w.name << ": " << samples.front().size()
            << " pass(es) of " << ops.size() << " operation(s)\n";
  return {{"wall_s", std::accumulate(ops.begin(), ops.end(), 0.0), "s"},
          {"point_ms_p50", quantile(ops, 0.5) * 1e3, "ms"},
          {"point_ms_p90", quantile(ops, 0.9) * 1e3, "ms"},
          {"setup_s", setup_s, "s"},
          {"peak_rss_mb", peak_rss_mb(), "MB"}};
}

std::vector<Metric> per_layer(const Args& a, const Setup& s, Checker& checker,
                              const SweepSpec& sweep, bool& consistent) {
  const Workload& w = s.workload;
  std::vector<double> untraced_walls, traced_walls, run_s, render_s, shard_s,
      merge_s;
  std::vector<PassLedger> ledgers;
  std::vector<std::unique_ptr<Table>> tables(w.points.size());
  const auto t0 = Clock::now();
  double last = 0.0;
  for (std::uint64_t pass = 0; pass < 2 || since(t0) + last < a.seconds;
       ++pass) {
    const auto pair_t0 = Clock::now();
    PassLedger ledger;
    if (w.kind == Kind::kSweep) {
      const auto order = shuffled(kShards, a.seed, pass);
      untraced_walls.push_back(
          run_sweep_pass(w, sweep, order, 2 * pass, checker, nullptr).wall_s);
      traced_walls.push_back(
          run_sweep_pass(w, sweep, order, 2 * pass + 1, checker, &ledger).wall_s);
    } else {
      const auto order = shuffled(w.points.size(), a.seed, pass);
      untraced_walls.push_back(
          run_point_pass(w, order, checker, nullptr, nullptr).wall_s);
      traced_walls.push_back(
          run_point_pass(w, order, checker, &ledger, &tables).wall_s);
    }
    run_s.push_back(ledger.run_scenario_s);
    render_s.push_back(ledger.render_s);
    shard_s.push_back(ledger.shard_s);
    merge_s.push_back(ledger.merge_s);
    ledgers.push_back(std::move(ledger));
    last = since(pair_t0);
  }
  for (const PassLedger& l : ledgers) {
    if (l.counts.signature() != ledgers.front().counts.signature()) {
      std::cerr << "pimbench: exact counts differ between traced passes\n";
      consistent = false;
    }
  }
  const Counts& counts = ledgers.front().counts;

  LayerTimes lt;
  if (w.kind != Kind::kSweep) {
    for (std::size_t i = 0; i < w.points.size(); ++i) {
      checker.count_attempt();
      if (!tables[i]) {
        checker.fail(w.points[i], "no table to replay");
      } else if (!replay_point(w.kind, w.points[i], *tables[i], lt)) {
        checker.fail(w.points[i], "direct layer calls do not reproduce the table");
      }
    }
  }
  double net_replay_s = 0.0, mem_replay_s = 0.0;
  std::uint64_t replay_hops = 0;
  const std::uint64_t packets = counts.counter("net.packets_sent");
  const std::uint64_t accesses = counts.counter("mem.accesses");
  if (w.kind == Kind::kFig11) {
    net_replay_s = replay_interconnect(packets, a.seed, replay_hops);
  }
  if (w.kind == Kind::kFig5) mem_replay_s = replay_memory(accesses, a.seed);

  const std::uint64_t dispatches = counts.counter("des.events_dispatched");
  const std::uint64_t row_hits = counts.counter("mem.row_hits");
  const std::uint64_t row_misses = counts.counter("mem.row_misses");
  const RunningStats rtt = counts.summary("parcel.request_rtt_cycles");
  std::vector<Metric> m{
      {"core.points",
       static_cast<double>(w.kind == Kind::kSweep ? 0 : w.points.size()),
       "count"},
      {"core.run_scenario_s", median(run_s), "s"},
      {"core.render_s", median(render_s), "s"},
      {"core.shard_s", median(shard_s), "s"},
      {"core.merge_s", median(merge_s), "s"},
      {"core.chunk_bytes", static_cast<double>(ledgers.front().chunk_bytes), "bytes"},
      {"des.simulations", static_cast<double>(counts.simulations), "count"},
      {"des.dispatches", static_cast<double>(dispatches), "count"},
  };
  const auto& kinds = counts.profile.stats();
  for (std::size_t k = 1; k < obs::KernelProfiler::kKinds; ++k) {
    m.push_back({std::string("des.dispatches.") + obs::KernelProfiler::kind_name(k),
                 static_cast<double>(kinds[k].dispatches), "count"});
  }
  for (std::size_t k = 1; k < obs::KernelProfiler::kKinds; ++k) {
    m.push_back({std::string("des.est_s.") + obs::KernelProfiler::kind_name(k),
                 counts.profile.estimated_seconds(k), "s"});
  }
  const double untraced = median(untraced_walls);
  m.insert(m.end(), {
      {"des.events_per_s", ratio(static_cast<double>(dispatches), untraced), "1/s"},
      {"parcel.split_transaction_s", lt.split_s, "s"},
      {"parcel.message_passing_s", lt.message_s, "s"},
      {"parcel.runs", static_cast<double>(lt.parcel_runs), "count"},
      {"parcel.request_rtt_count", static_cast<double>(rtt.count()), "count"},
      {"parcel.request_rtt_mean_cycles", rtt.count() ? rtt.mean() : 0.0, "cycles"},
      {"parcel.msg_rtt_count",
       static_cast<double>(counts.summary("msg.request_rtt_cycles").count()), "count"},
      {"interconnect.packets_sent", static_cast<double>(packets), "count"},
      {"interconnect.packets_delivered",
       static_cast<double>(counts.counter("net.packets_delivered")), "count"},
      {"interconnect.packets_in_flight_end",
       static_cast<double>(packets - counts.counter("net.packets_delivered")), "count"},
      {"interconnect.flit_hops",
       static_cast<double>(counts.counter("net.flit_hops")), "count"},
      {"interconnect.link_utilization_mean",
       counts.summary("net.link_utilization").count()
           ? counts.summary("net.link_utilization").mean() : 0.0, "fraction"},
      {"interconnect.packet_latency_mean_cycles",
       counts.summary("net.packet_latency_cycles").count()
           ? counts.summary("net.packet_latency_cycles").mean() : 0.0, "cycles"},
      {"interconnect.replay_s", net_replay_s, "s"},
      {"interconnect.ns_per_flit_hop",
       ratio(net_replay_s * 1e9, static_cast<double>(replay_hops)), "ns"},
      {"memory.accesses", static_cast<double>(accesses), "count"},
      {"memory.row_hits", static_cast<double>(row_hits), "count"},
      {"memory.row_misses", static_cast<double>(row_misses), "count"},
      {"memory.row_hit_rate",
       ratio(static_cast<double>(row_hits), static_cast<double>(row_hits + row_misses)),
       "fraction"},
      {"memory.queued_requests", counts.gauge_max("mem.queued_requests"), "count"},
      {"memory.replay_s", mem_replay_s, "s"},
      {"memory.ns_per_access",
       ratio(mem_replay_s * 1e9, static_cast<double>(accesses)), "ns"},
      {"arch.host_s", lt.host_s, "s"},
      {"arch.control_s", lt.control_s, "s"},
      {"arch.runs", static_cast<double>(lt.arch_runs), "count"},
      {"bench.trace_overhead_frac", ratio(median(traced_walls), untraced) - 1.0,
       "fraction"},
  });
  return m;
}

/// Runs every workload once at its pinned seeds and writes pins.txt.
int write_pins(const Args& a, const SweepSpec& sweep) {
  std::ostringstream out;
  out << "# Output fingerprints (FNV-1a 64 of each point's CSV) the benchmark\n"
         "# checks; regenerate with `pimbench --write-pins`.  Fingerprints are\n"
         "# compiler- and libm-sensitive, hence the toolchain line.\n"
      << "toolchain " << toolchain() << "\n";
  for (const char* name :
       {"fig11_mesh", "fig12_analytic", "fig5_banked", "sweep_sharded"}) {
    const Workload w = make_workload(name, {}, false);
    Checker checker(name, nullptr);
    const auto [table, fp] = run_point(w.scenario, w.warmup, nullptr);
    checker.check(w.warmup, fp);
    if (w.kind == Kind::kSweep) {
      run_sweep_pass(w, sweep, shuffled(kShards, 1, 0), 0, checker, nullptr);
    } else {
      std::vector<std::size_t> order(w.points.size());
      std::iota(order.begin(), order.end(), std::size_t{0});
      run_point_pass(w, order, checker, nullptr, nullptr);
    }
    if (checker.failed() != 0) return 1;
    for (const auto& [point, fingerprint] : checker.seen()) {
      out << name << " " << hex64(fingerprint) << " " << point << "\n";
    }
    std::cerr << "pimbench: pinned " << name << "\n";
  }
  std::ofstream file(a.write_pins);
  file << out.str();
  return file.good() ? 0 : 1;
}

int run(int argc, char** argv) {
  const Args a = parse_args(argc, argv);
#ifndef NDEBUG
  throw std::runtime_error("refusing to time a build with assertions on");
#endif
  if (std::string(PIMBENCH_BUILD_TYPE) != "Release") {
    throw std::runtime_error(std::string("refusing to time a ") +
                             PIMBENCH_BUILD_TYPE + " build; configure Release");
  }
  clear_observability_env();
  const SweepSpec sweep{a.bench_dir / "sweep_shard.cfg", a.work_dir};
  fs::create_directories(a.work_dir);
  if (!a.write_pins.empty()) return write_pins(a, sweep);

  Setup s = do_setup(a);
  if (a.setup_only) return 0;
  Checker checker(s.workload.name, s.pinned ? &s.pins : nullptr);
  bool consistent = true;
  const std::vector<Metric> metrics =
      a.trace ? per_layer(a, s, checker, sweep, consistent)
              : end_to_end(a, s, checker, sweep);
  if (!s.pinned) {
    for (const auto& [point, fingerprint] : checker.seen()) {
      std::cout << "fingerprint " << s.workload.name << " " << hex64(fingerprint)
                << " " << point << "\n";
    }
  }
  print_result(consistent && checker.failed() == 0, checker, metrics);
  return 0;
}

}  // namespace

int main(int argc, char** argv) {
  try {
    return run(argc, argv);
  } catch (const std::exception& e) {
    std::cerr << "pimbench: error: " << e.what() << "\n";
    return 1;
  }
}
