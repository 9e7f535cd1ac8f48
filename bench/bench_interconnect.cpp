// Packet-network microbenchmark: flit-hop throughput of the DES
// interconnect model, plus the contention observables the analytic models
// cannot produce (queued latency, link utilization).
//
// Self-contained (no google-benchmark dependency) so the CI smoke job can
// always build it.  Three traffic patterns per topology:
//
//   uniform   every node streams packets to uniform random destinations
//   neighbor  nearest-neighbor traffic (minimal path overlap)
//   hotspot   all-to-one onto node 0 (worst-case ejection contention)
//
// Each (topology, pattern) cell runs `reps` times; every repetition lands
// in a BENCH_interconnect.json trajectory (best repetition is the headline
// flit-hops/s number).
//
// Usage: bench_interconnect [nodes=64] [packets=400] [bytes=64] [gap=32]
//                           [reps=3] [csv=1]
//                           [json=BENCH_interconnect.json]  (json=- disables)
//                           [floors=bench/baselines.json]   (perf guard)
#include <algorithm>
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
#include "interconnect/network.hpp"
#include "interconnect/topology.hpp"

namespace {

using namespace pimsim;
using interconnect::NodeId;
using interconnect::PacketConfig;
using interconnect::PacketNetwork;
using interconnect::Topology;
using interconnect::TopologyBuilder;

struct BenchParams {
  std::size_t nodes = 64;
  int packets = 400;       // packets injected per node
  std::size_t bytes = 64;  // message size (4 flits at the default 16 B)
  double gap = 32.0;       // injection gap between packets, per node
};

struct Sample {
  std::uint64_t flit_hops = 0;
  double seconds = 0.0;
  double sim_cycles = 0.0;
  double mean_latency = 0.0;
  double p95_latency = 0.0;
  double peak_utilization = 0.0;
  [[nodiscard]] double hops_per_sec() const {
    return seconds > 0.0 ? static_cast<double>(flit_hops) / seconds : 0.0;
  }
};

struct CellResult {
  std::string name;
  std::vector<Sample> samples;
  [[nodiscard]] const Sample& best() const {
    std::size_t best_i = 0;
    for (std::size_t i = 1; i < samples.size(); ++i) {
      if (samples[i].hops_per_sec() > samples[best_i].hops_per_sec()) {
        best_i = i;
      }
    }
    return samples[best_i];
  }
};

des::Process generator(des::Simulation& sim, PacketNetwork& net, NodeId src,
                       Rng rng, const BenchParams& p, const std::string& pattern,
                       double gap) {
  const auto nodes = static_cast<std::uint64_t>(p.nodes);
  for (int i = 0; i < p.packets; ++i) {
    NodeId dst;
    if (pattern == "hotspot") {
      dst = 0;
      if (src == 0) co_return;  // the victim only receives
    } else if (pattern == "neighbor") {
      dst = static_cast<NodeId>((src + 1) % nodes);
    } else {
      dst = static_cast<NodeId>(rng.uniform_int(0, nodes - 1));
    }
    net.send(src, dst, p.bytes);
    co_await des::delay(sim, gap);
  }
}

/// Mean hop count over independent uniform (src, dst) pairs.
double mean_hops(const Topology& topo) {
  double sum = 0.0;
  for (NodeId a = 0; a < topo.nodes(); ++a) {
    for (NodeId b = 0; b < topo.nodes(); ++b) {
      sum += static_cast<double>(topo.hops(a, b));
    }
  }
  return sum / static_cast<double>(topo.nodes() * topo.nodes());
}

Sample run_cell(const std::string& topology, const std::string& pattern,
                const BenchParams& p) {
  des::Simulation sim;
  PacketConfig cfg;  // defaults: 16 B flits, 1-cycle wire, 8 credits
  PacketNetwork net(sim, TopologyBuilder::build(topology, p.nodes), cfg);
  // Uniform traffic must stay below saturation: without virtual channels
  // the wrap cycles of ring/torus can deadlock at sustained overload (see
  // interconnect/network.hpp).  Per-link offered load at injection gap g
  // is nodes * flits * mean_hops / (links * g); cap it at 0.7.  Hotspot
  // and neighbor traffic route as trees, which cannot deadlock, so the
  // hotspot cells are deliberately left saturating.
  double gap = p.gap;
  if (pattern == "uniform") {
    const auto flits =
        static_cast<double>(interconnect::flit_count(p.bytes, cfg.flit_bytes));
    const double per_link = static_cast<double>(p.nodes) * flits *
                            mean_hops(net.topology()) /
                            static_cast<double>(net.topology().links().size());
    gap = std::max(gap, per_link / 0.7);
  }
  Rng root(2026, 0x1C);
  for (std::size_t n = 0; n < p.nodes; ++n) {
    sim.spawn(generator(sim, net, static_cast<NodeId>(n), root.split(n), p,
                        pattern, gap));
  }
  const auto start = std::chrono::steady_clock::now();
  sim.run();
  const auto elapsed = std::chrono::duration<double>(
                           std::chrono::steady_clock::now() - start)
                           .count();
  ensure(net.packets_in_flight() == 0,
         "bench_interconnect: undrained traffic (deadlock?)");
  Sample s;
  s.flit_hops = net.flit_hops();
  s.seconds = elapsed;
  s.sim_cycles = sim.now();
  s.mean_latency = net.latency_stats().mean();
  // The histogram's 128-cycle bins interpolate above the true maximum at
  // light load (and clamp at hist_max under saturation); cap the reported
  // p95 at the exact observed maximum so the JSON never exceeds reality.
  s.p95_latency =
      std::min(net.latency_histogram().quantile(0.95), net.latency_stats().max());
  for (std::uint32_t l = 0; l < net.topology().links().size(); ++l) {
    s.peak_utilization =
        std::max(s.peak_utilization, net.link_stats(l).utilization);
  }
  return s;
}

}  // namespace

int main(int argc, char** argv) {
  try {
    const Config cfg = Config::from_args(argc, argv);
    BenchParams p;
    p.nodes = static_cast<std::size_t>(cfg.get_int("nodes", 64));
    p.packets = static_cast<int>(cfg.get_int("packets", 400));
    p.bytes = static_cast<std::size_t>(cfg.get_int("bytes", 64));
    p.gap = cfg.get_double("gap", 32.0);
    const auto reps = static_cast<std::size_t>(cfg.get_int("reps", 3));
    const std::string json_path =
        cfg.get_string("json", "BENCH_interconnect.json");
    const std::string floors_path = cfg.get_string("floors", "");
    require(p.nodes >= 2 && p.packets >= 1 && reps >= 1 && p.gap > 0.0,
            "bench_interconnect: bad nodes=/packets=/reps=/gap=");

    std::vector<CellResult> results;
    for (const char* topology : {"flat", "ring", "mesh2d", "torus"}) {
      for (const char* pattern : {"uniform", "neighbor", "hotspot"}) {
        CellResult cell;
        cell.name = std::string(topology) + "/" + pattern;
        for (std::size_t rep = 0; rep < reps; ++rep) {
          const Sample s = run_cell(topology, pattern, p);
          // Determinism smoke: all repetitions simulate identical traffic.
          if (!cell.samples.empty()) {
            ensure(s.flit_hops == cell.samples.front().flit_hops,
                   "bench_interconnect: non-deterministic flit-hop count");
          }
          cell.samples.push_back(s);
        }
        results.push_back(std::move(cell));
      }
    }

    Table table("Packet interconnect throughput (" + std::to_string(p.nodes) +
                    " nodes, " + std::to_string(p.packets) +
                    " packets/node, best of " + std::to_string(reps) + ")",
                {"Topology/pattern", "flit-hops", "wall s", "flit-hops/s",
                 "mean lat", "p95 lat", "peak util"});
    for (const auto& cell : results) {
      const Sample& best = cell.best();
      table.add_row({cell.name, static_cast<std::int64_t>(best.flit_hops),
                     best.seconds, best.hops_per_sec(), best.mean_latency,
                     best.p95_latency, best.peak_utilization});
    }
    if (cfg.get_bool("csv", false)) {
      table.print_csv(std::cout);
    } else {
      table.print(std::cout);
    }

    std::vector<bench::BenchCell> cells;
    for (const auto& cell : results) {
      bench::BenchCell out{cell.name, {}};
      for (const Sample& s : cell.samples) {
        out.runs.push_back(bench::BenchRun{s.flit_hops, s.seconds});
      }
      cells.push_back(std::move(out));
    }
    const std::string header =
        "\"nodes\": " + std::to_string(p.nodes) +
        ", \"packets_per_node\": " + std::to_string(p.packets) +
        ", \"bytes\": " + std::to_string(p.bytes) +
        ", \"reps\": " + std::to_string(reps) + ",";
    bench::write_bench_json(json_path, "interconnect", "flit_hops", header,
                            cells);
    if (!floors_path.empty()) {
      return bench::check_floors(floors_path, "interconnect", cells);
    }
    return 0;
  } catch (const std::exception& e) {
    std::cerr << "error: " << e.what() << "\n";
    return 1;
  }
}
