// Scaling benchmark of the sweep fabric, two layers:
//
//  * SweepRunner thread scaling on a Figure-12-sized sweep (9 system
//    sizes x 6 parallelism degrees, the paper's full idle-time grid).
//    Runs the sweep serially and at each requested thread count, checks
//    that every produced table is identical to the serial one cell for
//    cell, and reports the speedups.  Exits nonzero on divergence.
//
//  * Sharded process scaling (opt-in: pimsim=PATH dir=DIR): fans a
//    24-point fig12-style grid across 1 vs 4 OS processes via
//    `pimsim sweep ... shard=i/N out=DIR` (sweeps/fig12_shard_bench.cfg
//    holds the same grid for manual runs), merges each with
//    `pimsim merge`, and requires the two merged tables to be
//    byte-identical — the bench measures the fabric and re-proves its
//    bitwise contract in the same breath.
//
// On a machine with >= 8 hardware threads the 8-thread run is expected
// to be >= 3x faster than the serial path (the points are embarrassingly
// parallel; the ceiling is load imbalance from the 256-node simulations).
//
// Usage: bench_sweep [csv=1] [threads=1,2,4,8] [horizon=20000]
//                    [latency=200] [premote=0.1] [seed=1]
//                    [pimsim=PATH dir=DIR] [json=PATH] [floors=PATH]
//                    (json=- or no json key: no trajectory file)
#include <chrono>
#include <cstdlib>
#include <fstream>
#include <iostream>
#include <sstream>
#include <thread>
#include <utility>
#include <vector>

#include "bench_util.hpp"
#include "core/experiment.hpp"
#include "core/figures.hpp"
#include "core/scenario.hpp"

namespace {

using namespace pimsim;

double time_fig12(const core::ParcelFigureConfig& fig, Table* out) {
  const auto start = std::chrono::steady_clock::now();
  Table t = core::make_fig12(fig);
  const double elapsed = std::chrono::duration<double>(
                             std::chrono::steady_clock::now() - start)
                             .count();
  *out = std::move(t);
  return elapsed;
}

bool tables_identical(const Table& a, const Table& b) {
  if (a.rows() != b.rows() || a.columns() != b.columns()) return false;
  for (std::size_t r = 0; r < a.rows(); ++r) {
    if (a.row(r) != b.row(r)) return false;  // bitwise: Cell variants compare ==
  }
  return true;
}

// --- sharded process cells (pimsim=PATH dir=DIR) --------------------------

// The 24-point grid of sweeps/fig12_shard_bench.cfg, written fresh into
// the bench dir so the bench has no repo-relative path dependence.
constexpr const char* kGridCfg =
    "# bench_sweep sharded-throughput grid (24 points)\n"
    "horizon=20000\n"
    "latency=100,200,400,800\n"
    "premote=0.05,0.1,0.2\n"
    "seed=1,3\n"
    "sizes=1,4,16,64\n"
    "pars=1,8,32\n";
constexpr std::uint64_t kGridPoints = 24;

std::string slurp_file(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  require(in.good(), "bench_sweep: cannot read '" + path + "'");
  std::stringstream buffer;
  buffer << in.rdbuf();
  return buffer.str();
}

void run_or_die(const std::string& cmd) {
  // NOLINTNEXTLINE(concurrency-mt-unsafe): bench process, sequential setup
  const int rc = std::system(cmd.c_str());
  require(rc == 0, "bench_sweep: command failed (" + std::to_string(rc) +
                       "): " + cmd);
}

/// Fans `procs` shard processes over the grid in `cfg_path`, waits for
/// all of them, and returns the wall time of the fan-out (the merge is
/// untimed).  The merged table lands in `merged_path`.
double time_shard_fanout(const std::string& pimsim, const std::string& cfg_path,
                         const std::string& chunk_dir,
                         const std::string& merged_path, std::size_t procs) {
  const auto start = std::chrono::steady_clock::now();
  std::vector<std::thread> waiters;
  std::vector<int> rcs(procs, -1);
  for (std::size_t i = 0; i < procs; ++i) {
    waiters.emplace_back([&, i] {
      const std::string cmd = pimsim + " sweep fig12 config=" + cfg_path +
                              " format=csv jobs=1 shard=" + std::to_string(i) +
                              "/" + std::to_string(procs) + " out=" +
                              chunk_dir + " 2> /dev/null";
      // NOLINTNEXTLINE(concurrency-mt-unsafe): one system() per thread,
      // each waiting on its own child process
      rcs[i] = std::system(cmd.c_str());
    });
  }
  for (std::thread& w : waiters) w.join();
  const double elapsed = std::chrono::duration<double>(
                             std::chrono::steady_clock::now() - start)
                             .count();
  for (std::size_t i = 0; i < procs; ++i) {
    require(rcs[i] == 0, "bench_sweep: shard " + std::to_string(i) + "/" +
                             std::to_string(procs) + " failed");
  }
  run_or_die(pimsim + " merge " + chunk_dir + " out=" + merged_path +
             " 2> /dev/null");
  return elapsed;
}

}  // namespace

int main(int argc, char** argv) {
  try {
    const Config cfg = Config::from_args(argc, argv);
    core::ParcelFigureConfig fig = core::ParcelFigureConfig::defaults_fig12();
    fig.base.horizon = cfg.get_double("horizon", 20'000.0);
    fig.base.round_trip_latency = cfg.get_double("latency", 200.0);
    fig.base.p_remote = cfg.get_double("premote", 0.1);
    fig.base.seed = static_cast<std::uint64_t>(cfg.get_int("seed", 1));

    Table serial("unset", {"-"});
    fig.sweep_threads = 1;
    const double serial_s = time_fig12(fig, &serial);

    Table result("bench_sweep: sweep fabric scaling (threads, then processes)",
                 {"cell", "time (s)", "speedup", "identical to serial"});
    result.add_row({std::string("threads_1"), serial_s, 1.0,
                    std::string("yes (reference)")});
    std::vector<bench::BenchCell> cells;
    const auto grid_cell = [](const std::string& name, double seconds,
                              std::uint64_t points) {
      return bench::BenchCell{name, {bench::BenchRun{points, seconds}}};
    };
    // One fig12 grid = 9 sizes x 6 parallelism degrees.
    cells.push_back(grid_cell("threads_1", serial_s, 54));

    bool all_identical = true;
    for (double t : cfg.get_list("threads", {2, 4, 8})) {
      fig.sweep_threads = static_cast<std::size_t>(t);
      if (fig.sweep_threads == 0) {  // report the resolved count for threads=0
        fig.sweep_threads = std::max(1u, std::thread::hardware_concurrency());
      }
      Table parallel("unset", {"-"});
      const double parallel_s = time_fig12(fig, &parallel);
      const bool same = tables_identical(serial, parallel);
      all_identical = all_identical && same;
      const std::string name =
          "threads_" + std::to_string(fig.sweep_threads);
      result.add_row({name, parallel_s, serial_s / parallel_s,
                      std::string(same ? "yes" : "NO — DETERMINISM BUG")});
      cells.push_back(grid_cell(name, parallel_s, 54));
    }

    // Replication-engine overhead: one fig12 point folded over 8 reps
    // through the engine vs the same 8 single-rep tables run directly
    // and folded by hand.  The two folds must be identical cell for
    // cell, and the engine run should cost ~the 8 raw runs (the fold
    // itself is table arithmetic, not simulation).
    {
      const core::Scenario& fig12_scn =
          core::ScenarioRegistry::global().get("fig12");
      const Config rep_cfg = Config::from_string(
          "horizon=20000 sizes=1,4,16 pars=1,8 reps=8");
      const auto start_engine = std::chrono::steady_clock::now();
      const Table engine_fold = core::run_scenario(fig12_scn, rep_cfg);
      const double reps_s = std::chrono::duration<double>(
                                std::chrono::steady_clock::now() - start_engine)
                                .count();
      const auto start_direct = std::chrono::steady_clock::now();
      std::vector<Table> rep_tables;
      for (std::size_t r = 0; r < 8; ++r) {
        rep_tables.push_back(core::run_replication(fig12_scn, rep_cfg, r));
      }
      const Table manual_fold = core::fold_replications(rep_tables);
      const double direct_s = std::chrono::duration<double>(
                                  std::chrono::steady_clock::now() -
                                  start_direct)
                                  .count();
      const bool same = tables_identical(engine_fold, manual_fold);
      all_identical = all_identical && same;
      result.add_row({std::string("points_8"), direct_s, 1.0,
                      std::string("yes (reference)")});
      result.add_row({std::string("reps_8"), reps_s, direct_s / reps_s,
                      std::string(same ? "yes" : "NO — FOLD DIVERGENCE")});
      cells.push_back(grid_cell("points_8", direct_s, 8));
      cells.push_back(grid_cell("reps_8", reps_s, 8));
    }

    // Sharded process cells: 1 process vs 4 processes over the same
    // 24-point grid, merged outputs required byte-identical.
    const std::string pimsim = cfg.get_string("pimsim", "");
    const std::string dir = cfg.get_string("dir", "");
    if (!pimsim.empty()) {
      require(!dir.empty(), "bench_sweep: pimsim=PATH also needs dir=DIR "
                            "(scratch directory for chunks)");
      run_or_die("mkdir -p " + dir);
      const std::string cfg_path = dir + "/grid.cfg";
      {
        std::ofstream out(cfg_path);
        require(out.good(), "bench_sweep: cannot write '" + cfg_path + "'");
        out << kGridCfg;
      }
      run_or_die("rm -rf " + dir + "/p1 " + dir + "/p4");
      const double s1 = time_shard_fanout(pimsim, cfg_path, dir + "/p1",
                                          dir + "/p1.csv", 1);
      const double s4 = time_shard_fanout(pimsim, cfg_path, dir + "/p4",
                                          dir + "/p4.csv", 4);
      const bool same = slurp_file(dir + "/p1.csv") == slurp_file(dir + "/p4.csv");
      all_identical = all_identical && same;
      result.add_row({std::string("procs_1"), s1, 1.0,
                      std::string("yes (reference)")});
      result.add_row({std::string("procs_4"), s4, s1 / s4,
                      std::string(same ? "yes" : "NO — MERGE DIVERGENCE")});
      cells.push_back(grid_cell("procs_1", s1, kGridPoints));
      cells.push_back(grid_cell("procs_4", s4, kGridPoints));
    }

    bench::emit(result, cfg);

    bench::write_bench_json(cfg.get_string("json", "-"), "sweep", "points",
                            "", cells);
    int regressions = 0;
    const std::string floors = cfg.get_string("floors", "");
    if (!floors.empty()) {
      regressions = bench::check_floors(floors, "sweep", cells);
    }

    if (!all_identical) {
      std::cerr << "error: parallel sweep diverged from the serial results\n";
      return 1;
    }
    return regressions == 0 ? 0 : 1;
  } catch (const std::exception& e) {
    std::cerr << "error: " << e.what() << "\n";
    return 1;
  }
}
