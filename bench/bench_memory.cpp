// Memory-seam microbenchmark: access throughput of the MemorySystem
// backends under the streams that exercise their distinct hot paths:
//
//   analytic  the seam's static-event fast path (constant latency)
//   strided   banked, each node walks its region one wide word at a time
//             (open-row hits, no queueing — the zero-load path)
//   uniform   banked, each node touches uniform-random rows of its own
//             bank (row misses, still uncontended)
//   hotspot   banked, every node hammers node 0's bank (worst-case FIFO
//             queueing and waiter-ring churn)
//   exclusive banked, the strided stream on private banks handed over as
//             one closed-loop stream per node (MemorySystem::run_stream),
//             each run alone on its own clock: no event per access
//   shared    the same streams on private banks behind one shared port:
//             all 16 run as one stream group on the memory's private
//             schedule, one static call for the group and one wake per node
//
// Self-contained (no google-benchmark dependency) so the CI smoke job can
// always build it.  Each cell runs `reps` times; every repetition lands
// in a BENCH_memory.json trajectory (best repetition is the headline
// accesses/s number).
//
// Usage: bench_memory [nodes=16] [accesses=20000] [reps=3] [csv=1]
//                     [json=BENCH_memory.json]  (json=- disables)
//                     [floors=bench/baselines.json]  (perf guard)
#include <chrono>
#include <iostream>
#include <string>
#include <vector>

#include "bench_util.hpp"
#include "common/config.hpp"
#include "common/error.hpp"
#include "common/rng.hpp"
#include "common/table.hpp"
#include "des/process.hpp"
#include "des/simulation.hpp"
#include "memory/memory_system.hpp"

namespace {

using namespace pimsim;

struct BenchParams {
  std::size_t nodes = 16;
  int accesses = 20'000;  // accesses issued per node
};

struct Sample {
  std::uint64_t accesses = 0;
  double seconds = 0.0;
  double sim_cycles = 0.0;
  double row_hit_rate = 0.0;
};

des::Process stream(des::Simulation& sim, const mem::MemorySystem& memory,
                    std::size_t node, Rng rng, const BenchParams& p,
                    const std::string& pattern) {
  const std::uint64_t region = static_cast<std::uint64_t>(node) << 32;
  std::uint64_t addr = region;
  const std::size_t target = pattern == "hotspot" ? 0 : node;
  for (int i = 0; i < p.accesses; ++i) {
    if (pattern == "uniform") {
      // A random row of this node's region: 256 B rows, 1 MiB spread.
      addr = region + rng.uniform_int(0, (1u << 12) - 1) * 256;
    }
    co_await mem::AccessAwaitable{memory, sim, target, addr,
                                  mem::AccessKind::kLwpRow};
    addr += 32;
  }
}

/// The strided stream as one closed-loop access stream: each access is
/// issued the moment the previous one retires.
class StridedStream final : public mem::AccessStream {
 public:
  StridedStream(std::uint64_t base, int count) : addr_(base), left_(count) {}

  mem::StreamStep next(SimTime done_at) override {
    if (left_ == 0) return mem::StreamStep{.at = done_at, .end = true};
    --left_;
    const std::uint64_t addr = addr_;
    addr_ += 32;
    return mem::StreamStep{.at = done_at, .addr = addr};
  }

 private:
  std::uint64_t addr_;
  int left_;
};

/// One node's strided stream through the stream seam: one wake-up at the
/// end instead of one event per access.
des::Process closed_loop(des::Simulation& sim, const mem::MemorySystem& memory,
                         std::size_t node, const BenchParams& p) {
  StridedStream stream(static_cast<std::uint64_t>(node) << 32, p.accesses);
  const SimTime end = co_await mem::StreamAwaitable{memory, sim, node, stream};
  co_await des::wait_until(sim, end);
}

Sample run_cell(const std::string& pattern, const BenchParams& p) {
  mem::MemoryConfig mc;
  mc.kind = pattern == "analytic" ? "analytic" : "banked";
  mc.nodes = p.nodes;
  if (pattern == "shared") mc.queue = 1;
  const auto memory = mem::make_memory(mc);
  des::Simulation sim;
  Rng root(2026, 0x3D);
  for (std::size_t n = 0; n < p.nodes; ++n) {
    if (pattern == "exclusive" || pattern == "shared") {
      sim.spawn(closed_loop(sim, *memory, n, p));
    } else {
      sim.spawn(stream(sim, *memory, n, root.split(n), p, pattern));
    }
  }
  const auto start = std::chrono::steady_clock::now();
  sim.run();
  const auto elapsed = std::chrono::duration<double>(
                           std::chrono::steady_clock::now() - start)
                           .count();
  Sample s;
  s.accesses = static_cast<std::uint64_t>(p.nodes) *
               static_cast<std::uint64_t>(p.accesses);
  s.seconds = elapsed;
  s.sim_cycles = sim.now();
  s.row_hit_rate = memory->row_hit_rate();
  return s;
}

}  // namespace

int main(int argc, char** argv) {
  try {
    const Config cfg = Config::from_args(argc, argv);
    BenchParams p;
    p.nodes = static_cast<std::size_t>(cfg.get_int("nodes", 16));
    p.accesses = static_cast<int>(cfg.get_int("accesses", 20'000));
    const auto reps = static_cast<std::size_t>(cfg.get_int("reps", 3));
    const std::string json_path = cfg.get_string("json", "BENCH_memory.json");
    const std::string floors_path = cfg.get_string("floors", "");
    require(p.nodes >= 1 && p.accesses >= 1 && reps >= 1,
            "bench_memory: bad nodes=/accesses=/reps=");

    std::vector<bench::BenchCell> cells;
    Table table("Memory-seam access throughput (" + std::to_string(p.nodes) +
                    " nodes, " + std::to_string(p.accesses) +
                    " accesses/node, best of " + std::to_string(reps) + ")",
                {"Pattern", "accesses", "wall s", "accesses/s", "sim cycles",
                 "row-hit %"});
    for (const char* pattern : {"analytic", "strided", "uniform", "hotspot",
                                "exclusive", "shared"}) {
      bench::BenchCell cell{pattern, {}};
      Sample best{};
      for (std::size_t rep = 0; rep < reps; ++rep) {
        const Sample s = run_cell(pattern, p);
        // Determinism smoke: all repetitions simulate identical streams.
        if (!cell.runs.empty()) {
          ensure(s.sim_cycles == best.sim_cycles,
                 "bench_memory: non-deterministic makespan");
        }
        if (cell.runs.empty() || s.seconds < best.seconds) best = s;
        cell.runs.push_back(bench::BenchRun{s.accesses, s.seconds});
      }
      table.add_row({cell.name, static_cast<std::int64_t>(best.accesses),
                     best.seconds, cell.best().per_sec(), best.sim_cycles,
                     best.row_hit_rate * 100.0});
      cells.push_back(std::move(cell));
    }

    if (cfg.get_bool("csv", false)) {
      table.print_csv(std::cout);
    } else {
      table.print(std::cout);
    }

    const std::string header =
        "\"nodes\": " + std::to_string(p.nodes) +
        ", \"accesses_per_node\": " + std::to_string(p.accesses) +
        ", \"reps\": " + std::to_string(reps) + ",";
    bench::write_bench_json(json_path, "memory", "accesses", header, cells);
    if (!floors_path.empty()) {
      return bench::check_floors(floors_path, "memory", cells);
    }
    return 0;
  } catch (const std::exception& e) {
    std::cerr << "error: " << e.what() << "\n";
    return 1;
  }
}
