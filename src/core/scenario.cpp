#include "core/scenario.hpp"

#include <algorithm>
#include <cmath>
#include <functional>
#include <iostream>
#include <memory>
#include <sstream>

#include "analytic/accuracy.hpp"
#include "analytic/hwp_lwp.hpp"
#include "analytic/multithreading.hpp"
#include "analytic/parcel_model.hpp"
#include "arch/host_system.hpp"
#include "arch/mtlwp.hpp"
#include "arch/params.hpp"
#include "common/error.hpp"
#include "common/rng.hpp"
#include "core/experiment.hpp"
#include "core/figures.hpp"
#include "des/process.hpp"
#include "des/simulation.hpp"
#include "interconnect/contention.hpp"
#include "interconnect/network.hpp"
#include "parcel/network.hpp"
#include "parcel/system.hpp"

namespace pimsim::core {

const char* to_string(ParamSpec::Kind kind) {
  switch (kind) {
    case ParamSpec::Kind::kInt: return "int";
    case ParamSpec::Kind::kDouble: return "double";
    case ParamSpec::Kind::kBool: return "bool";
    case ParamSpec::Kind::kString: return "string";
    case ParamSpec::Kind::kList: return "list";
  }
  return "?";
}

namespace {

std::string join_names(const std::vector<std::string>& names) {
  std::string out;
  for (const auto& n : names) {
    if (!out.empty()) out += ", ";
    out += n;
  }
  return out;
}

// Terse ParamSpec builders so a registration reads like a manifest.
ParamSpec p_int(std::string key, std::string def, std::string range,
                std::string doc) {
  return {std::move(key), ParamSpec::Kind::kInt, std::move(def),
          std::move(range), std::move(doc)};
}
ParamSpec p_dbl(std::string key, std::string def, std::string range,
                std::string doc) {
  return {std::move(key), ParamSpec::Kind::kDouble, std::move(def),
          std::move(range), std::move(doc)};
}
ParamSpec p_bool(std::string key, std::string def, std::string doc) {
  return {std::move(key), ParamSpec::Kind::kBool, std::move(def), "0|1",
          std::move(doc)};
}
ParamSpec p_str(std::string key, std::string def, std::string range,
                std::string doc) {
  return {std::move(key), ParamSpec::Kind::kString, std::move(def),
          std::move(range), std::move(doc)};
}
ParamSpec p_list(std::string key, std::string def, std::string range,
                 std::string doc) {
  return {std::move(key), ParamSpec::Kind::kList, std::move(def),
          std::move(range), std::move(doc)};
}

ParamSpec p_seed() { return p_int("seed", "1", ">= 0", "base RNG seed"); }
ParamSpec p_reps() {
  return p_int("reps", "1", ">= 1",
               "seed-streamed replications; > 1 adds mean ± CI columns");
}
ParamSpec p_threads() {
  return p_int("threads", "0", ">= 0",
               "SweepRunner fan-out; 0 = one thread per core");
}

// The memory-seam knobs, shared by every scenario that runs the seam
// (the memory-side mirror of the network/contention parameters).
ParamSpec p_memory() {
  return p_str("memory", "analytic", "analytic|banked",
               "memory model behind the MemorySystem seam");
}
ParamSpec p_mem_banks() {
  return p_int("mem_banks", "0", ">= 0",
               "banked memory: DRAM banks (0 = one per node)");
}
ParamSpec p_mem_queue() {
  return p_int("mem_queue", "0", ">= 0",
               "banked memory: shared access ports (0 = one per bank)");
}

}  // namespace

void ScenarioRegistry::add(Scenario scenario) {
  if (scenario.name.empty()) {
    throw InvalidArgument("ScenarioRegistry: scenario name must be non-empty");
  }
  if (!scenario.make) {
    throw InvalidArgument("ScenarioRegistry: scenario '" + scenario.name +
                          "' has no generator");
  }
  if (scenarios_.count(scenario.name) != 0) {
    throw InvalidArgument("ScenarioRegistry: duplicate scenario name '" +
                          scenario.name + "'");
  }
  scenarios_.emplace(scenario.name, std::move(scenario));
}

bool ScenarioRegistry::contains(const std::string& name) const {
  return scenarios_.count(name) != 0;
}

const Scenario& ScenarioRegistry::get(const std::string& name) const {
  const auto it = scenarios_.find(name);
  if (it == scenarios_.end()) {
    throw InvalidArgument("unknown scenario '" + name +
                          "'; registered scenarios: " + join_names(names()));
  }
  return it->second;
}

std::vector<const Scenario*> ScenarioRegistry::all() const {
  std::vector<const Scenario*> out;
  out.reserve(scenarios_.size());
  for (const auto& [name, s] : scenarios_) out.push_back(&s);
  return out;  // std::map iteration order == name-sorted
}

std::vector<std::string> ScenarioRegistry::names() const {
  std::vector<std::string> out;
  out.reserve(scenarios_.size());
  for (const auto& [name, s] : scenarios_) out.push_back(name);
  return out;
}

ScenarioRegistry& ScenarioRegistry::global() {
  // The registry is filled once before main()'s first lookup and only
  // read afterwards; list() sorts by name, so registration order never
  // reaches any output.
  // lint:allow(mutable-static): write-once registry, read-only after startup
  static ScenarioRegistry* registry = [] {
    auto* r = new ScenarioRegistry;
    register_builtin_scenarios(*r);
    return r;
  }();
  return *registry;
}

Table run_scenario(const Scenario& scenario, const Config& cfg,
                   const std::vector<std::string>& extra_allowed) {
  std::vector<std::string> valid;
  valid.reserve(scenario.params.size());
  for (const ParamSpec& p : scenario.params) valid.push_back(p.key);

  // No key has been read yet, so unused_keys() is every provided key.
  for (const std::string& key : cfg.unused_keys()) {
    if (std::find(valid.begin(), valid.end(), key) != valid.end()) continue;
    if (std::find(extra_allowed.begin(), extra_allowed.end(), key) !=
        extra_allowed.end()) {
      continue;
    }
    throw InvalidArgument("scenario '" + scenario.name +
                          "': unknown parameter '" + key +
                          "'; valid keys: " + join_names(valid));
  }

  // Pre-parse every provided value as its declared type so a typo fails
  // before a potentially long generation run, with the key list attached.
  for (const ParamSpec& p : scenario.params) {
    if (!cfg.has(p.key)) continue;
    try {
      switch (p.kind) {
        case ParamSpec::Kind::kInt: (void)cfg.get_int(p.key, 0); break;
        case ParamSpec::Kind::kDouble: (void)cfg.get_double(p.key, 0.0); break;
        case ParamSpec::Kind::kBool: (void)cfg.get_bool(p.key, false); break;
        case ParamSpec::Kind::kString: (void)cfg.get_string(p.key, ""); break;
        case ParamSpec::Kind::kList: (void)cfg.get_list(p.key, {}); break;
      }
    } catch (const ConfigError& e) {
      throw InvalidArgument("scenario '" + scenario.name +
                            "': bad value for '" + p.key + "' (expected " +
                            std::string(to_string(p.kind)) +
                            (p.range.empty() ? "" : ", range " + p.range) +
                            "): " + e.what() +
                            "; valid keys: " + join_names(valid));
    }
  }

  // Replication engine: scenarios declaring a `reps` knob run R
  // seed-streamed replications folded into mean ± half-width columns.
  // reps=1 bypasses the fold, keeping single-run output bitwise
  // identical to the pre-engine path.
  const ReplicationSpec spec = replication_spec(scenario, cfg);
  if (!spec.declared || spec.reps == 1) return scenario.make(cfg);
  std::vector<Table> tables;
  tables.reserve(spec.reps);
  for (std::size_t r = 0; r < spec.reps; ++r) {
    tables.push_back(run_replication(scenario, cfg, r, extra_allowed));
  }
  return fold_replications(tables);
}

ReplicationSpec replication_spec(const Scenario& scenario, const Config& cfg) {
  ReplicationSpec spec;
  const ParamSpec* reps_param = nullptr;
  const ParamSpec* seed_param = nullptr;
  for (const ParamSpec& p : scenario.params) {
    if (p.key == "reps") reps_param = &p;
    if (p.key == "seed") seed_param = &p;
  }
  if (reps_param == nullptr) return spec;
  spec.declared = true;
  // The sweep plans its units from this before any point runs, so
  // unparsable text gets the scenario-named message here too.
  const auto get_int = [&](const char* key, std::int64_t fallback) {
    try {
      return cfg.get_int(key, fallback);
    } catch (const ConfigError& e) {
      throw InvalidArgument("scenario '" + scenario.name +
                            "': bad value for '" + key +
                            "' (expected int): " + e.what());
    }
  };
  const std::int64_t reps =
      get_int("reps", std::stoll(reps_param->default_value));
  if (reps < 1) {
    throw InvalidArgument(
        "scenario '" + scenario.name + "': bad value for 'reps' (" +
        std::to_string(reps) + "): expected int >= 1 replications");
  }
  spec.reps = static_cast<std::size_t>(reps);
  const std::int64_t seed_default =
      seed_param == nullptr ? 0 : std::stoll(seed_param->default_value);
  spec.base_seed = static_cast<std::uint64_t>(get_int("seed", seed_default));
  return spec;
}

Table run_replication(const Scenario& scenario, const Config& cfg,
                      std::size_t rep,
                      const std::vector<std::string>& extra_allowed) {
  const ReplicationSpec spec = replication_spec(scenario, cfg);
  if (!spec.declared) {
    throw InvalidArgument("run_replication: scenario '" + scenario.name +
                          "' declares no reps parameter");
  }
  if (rep >= spec.reps) {
    throw InvalidArgument("run_replication: rep " + std::to_string(rep) +
                          " out of range for " + std::to_string(spec.reps) +
                          " replications");
  }
  const std::vector<std::uint64_t> seeds =
      replication_seeds(spec.reps, spec.base_seed);
  Config one = cfg;
  // Round-trip the full 64-bit seed through its signed rendering:
  // get_int's strtoll would clamp the unsigned form past INT64_MAX,
  // collapsing distinct SplitMix64 streams.
  one.set("seed", std::to_string(static_cast<std::int64_t>(seeds[rep])));
  one.set("reps", "1");
  return run_scenario(scenario, one, extra_allowed);
}

Table run_scenario(const std::string& name, const Config& cfg,
                   const std::vector<std::string>& extra_allowed) {
  return run_scenario(ScenarioRegistry::global().get(name), cfg, extra_allowed);
}

std::uint64_t data_fingerprint(const std::string& data) {
  std::uint64_t hash = 1469598103934665603ull;  // FNV-1a 64
  for (const unsigned char c : data) {
    hash ^= c;
    hash *= 1099511628211ull;
  }
  return hash;
}

std::uint64_t table_fingerprint(const Table& table) {
  std::ostringstream csv;
  table.print_csv(csv);
  return data_fingerprint(csv.str());
}

// --- built-in scenarios ---------------------------------------------------
//
// Each registration is the former per-figure bench binary's main body,
// verbatim, so `pimsim run <name>` is bitwise-identical to the
// pre-registry binaries by construction.

namespace {

des::Process hotspot_source(des::Simulation& sim,
                            const parcel::Interconnect& net,
                            parcel::NodeId src, std::size_t nodes, double gap,
                            std::int64_t packets, std::size_t bytes) {
  // Phase the sources across one injection period (see
  // examples/hotspot_traffic.cpp for the rationale).
  co_await des::delay(sim, static_cast<double>(src) * gap /
                               static_cast<double>(nodes));
  for (std::int64_t i = 0; i < packets; ++i) {
    net.deliver(sim, src, 0, bytes, [] {});
    co_await des::delay(sim, gap);
  }
}

Table make_hotspot_table(const Config& cfg) {
  const auto nodes = static_cast<std::size_t>(cfg.get_int("nodes", 16));
  require(nodes >= 2, "hotspot: nodes must be >= 2 (node 0 is the sink)");
  const double round_trip = cfg.get_double("roundtrip", 200.0);
  const auto bytes = static_cast<std::size_t>(cfg.get_int("bytes", 16));
  const std::int64_t packets = cfg.get_int("packets", 200);
  const std::vector<double> gaps =
      cfg.get_list("gaps", {4096.0, 256.0, 32.0, 8.0, 4.0});
  const std::vector<std::string> kinds =
      split_csv(cfg.get_string("networks", "flat,mesh2d,torus"));
  require(!kinds.empty(), "hotspot: networks list is empty");

  Table table("Hotspot collapse: analytic vs packet-level latency to node 0",
              {"Network", "inj gap", "analytic mean", "measured mean", "p95",
               "max", "eject util"});
  for (const std::string& kind : kinds) {
    const auto analytic = parcel::make_interconnect(kind, nodes, round_trip);
    double predicted = 0.0;
    for (parcel::NodeId src = 1; src < nodes; ++src) {
      predicted += analytic->one_way_latency(src, 0);
    }
    predicted /= static_cast<double>(nodes - 1);
    for (const double gap : gaps) {
      const auto net = interconnect::make_contention_interconnect(
          kind, nodes, round_trip);
      des::Simulation sim;
      for (parcel::NodeId src = 1; src < nodes; ++src) {
        sim.spawn(hotspot_source(sim, *net, src, nodes, gap, packets, bytes));
      }
      sim.run();
      if (sim.metrics_enabled()) net->collect_metrics(sim.metrics());
      // Non-const: link_stats() folds the link's deferred credit ledger.
      interconnect::PacketNetwork& pn = *net->network();
      const double max = pn.latency_stats().max();
      // Coarse histogram bins can interpolate past the true maximum.
      const double p95 =
          std::min(pn.latency_histogram().quantile(0.95), max);
      double eject_util = 0.0;
      for (std::uint32_t l = 0; l < pn.topology().links().size(); ++l) {
        if (pn.topology().links()[l].dst_router == pn.topology().attach(0)) {
          eject_util = std::max(eject_util, pn.link_stats(l).utilization);
        }
      }
      table.add_row({kind, gap, predicted, pn.latency_stats().mean(), p95,
                     max, eject_util});
    }
  }
  return table;
}

}  // namespace

void register_builtin_scenarios(ScenarioRegistry& registry) {
  // --- Table 1 / Section 2 ------------------------------------------------
  registry.add(Scenario{
      "table1",
      "Table 1 parametric assumptions, derived per-op costs, and NB",
      "Section 3, Table 1",
      {p_dbl("thcycle", "1", "> 0", "HWP cycle time (ns)"),
       p_dbl("tlcycle", "5", "> 0", "LWP cycle time (HWP cycles)"),
       p_dbl("tmh", "90", "> 0", "host memory access time (cycles)"),
       p_dbl("tch", "2", "> 0", "host cache access time (cycles)"),
       p_dbl("tml", "22", "> 0", "LWP row access time (cycles)"),
       p_dbl("pmiss", "0.1", "[0, 1]", "host cache miss probability"),
       p_dbl("mix", "0.3", "[0, 1]", "load/store fraction of the op mix")},
      [](const Config& cfg) {
        arch::SystemParams params = arch::SystemParams::table1();
        params.th_cycle_ns = cfg.get_double("thcycle", params.th_cycle_ns);
        params.tl_cycle = cfg.get_double("tlcycle", params.tl_cycle);
        params.t_mh = cfg.get_double("tmh", params.t_mh);
        params.t_ch = cfg.get_double("tch", params.t_ch);
        params.t_ml = cfg.get_double("tml", params.t_ml);
        params.p_miss = cfg.get_double("pmiss", params.p_miss);
        params.ls_mix = cfg.get_double("mix", params.ls_mix);
        return make_table1(params);
      },
      /*verify_params=*/"",
      /*verify_fingerprint=*/0x618fa6123635a29eull,
      /*cost_hint=*/nullptr,
  });

  registry.add(Scenario{
      "bandwidth",
      "Section 2.1 DRAM macro/chip bandwidth arithmetic (50 Gbit/s, 1 Tbit/s)",
      "Section 2.1",
      {},
      [](const Config&) { return make_bandwidth_table(); },
      /*verify_params=*/"",
      /*verify_fingerprint=*/0xd9a7be0ca6ad39f6ull,
      /*cost_hint=*/nullptr,
  });

  // --- Section 3: host + PIM array ---------------------------------------
  registry.add(Scenario{
      "fig5",
      "simulated performance gain vs %WL, one column per node count",
      "Section 3.1, Figure 5",
      {p_int("maxnodes", "256", "1..2^20", "largest node count (pow2 axis)"),
       p_int("ops", "100000000", "> 0", "workload operations per run"),
       p_int("batch", "1000000", "> 0", "binomial batching granularity"),
       p_reps(), p_memory(), p_mem_banks(), p_mem_queue(), p_seed(),
       p_threads()},
      [](const Config& cfg) {
        HostFigureConfig fig = HostFigureConfig::defaults_fig5();
        fig.node_counts = pow2_range(
            static_cast<std::size_t>(cfg.get_int("maxnodes", 256)));
        fig.base.workload.total_ops =
            static_cast<std::uint64_t>(cfg.get_int("ops", 100'000'000));
        fig.base.batch_ops =
            static_cast<std::uint64_t>(cfg.get_int("batch", 1'000'000));
        fig.base.seed = static_cast<std::uint64_t>(cfg.get_int("seed", 1));
        fig.base.memory.kind = cfg.get_string("memory", "analytic");
        fig.base.memory.banks =
            static_cast<std::size_t>(cfg.get_int("mem_banks", 0));
        fig.base.memory.queue =
            static_cast<std::size_t>(cfg.get_int("mem_queue", 0));
        fig.sweep_threads =
            static_cast<std::size_t>(cfg.get_int("threads", 0));
        return make_fig5(fig);
      },
      /*verify_params=*/"maxnodes=8 ops=200000 batch=10000 reps=2",
      /*verify_fingerprint=*/0x26b4ab384a94edeaull,
      // Events scale with batches per run x node-axis length x reps.
      /*cost_hint=*/
      [](const Config& cfg) {
        const double ops = static_cast<double>(cfg.get_int("ops", 100'000'000));
        const double batch =
            std::max(1.0, static_cast<double>(cfg.get_int("batch", 1'000'000)));
        const double reps = static_cast<double>(cfg.get_int("reps", 1));
        const double axis =
            std::log2(static_cast<double>(cfg.get_int("maxnodes", 256))) + 1.0;
        return reps * axis * ops / batch;
      },
  });

  registry.add(Scenario{
      "fig6",
      "unnormalized response time (ns) vs node count, one column per %LWT",
      "Section 3.1, Figure 6",
      {p_int("maxnodes", "64", "1..2^20", "largest node count (pow2 axis)"),
       p_int("ops", "100000000", "> 0", "workload operations per run"),
       p_int("batch", "1000000", "> 0", "binomial batching granularity"),
       p_reps(), p_seed(), p_threads()},
      [](const Config& cfg) {
        HostFigureConfig fig = HostFigureConfig::defaults_fig6();
        fig.node_counts = pow2_range(
            static_cast<std::size_t>(cfg.get_int("maxnodes", 64)));
        fig.base.workload.total_ops =
            static_cast<std::uint64_t>(cfg.get_int("ops", 100'000'000));
        fig.base.batch_ops =
            static_cast<std::uint64_t>(cfg.get_int("batch", 1'000'000));
        fig.base.seed = static_cast<std::uint64_t>(cfg.get_int("seed", 1));
        fig.sweep_threads =
            static_cast<std::size_t>(cfg.get_int("threads", 0));
        return make_fig6(fig);
      },
      /*verify_params=*/"maxnodes=8 ops=200000 batch=10000 reps=1",
      /*verify_fingerprint=*/0xcfcc608e61d7733eull,
      /*cost_hint=*/
      [](const Config& cfg) {
        const double ops = static_cast<double>(cfg.get_int("ops", 100'000'000));
        const double batch =
            std::max(1.0, static_cast<double>(cfg.get_int("batch", 1'000'000)));
        const double reps = static_cast<double>(cfg.get_int("reps", 1));
        const double axis =
            std::log2(static_cast<double>(cfg.get_int("maxnodes", 64))) + 1.0;
        return reps * axis * ops / batch;
      },
  });

  registry.add(Scenario{
      "fig7",
      "analytic Time_relative vs node count; curves coincide at N = NB",
      "Section 3.2, Figure 7",
      {p_dbl("maxnodes", "64", ">= 1", "largest node count (x1.25 axis)"),
       p_dbl("tlcycle", "5", "> 0", "LWP cycle time (HWP cycles)"),
       p_dbl("tmh", "90", "> 0", "host memory access time (cycles)"),
       p_dbl("tch", "2", "> 0", "host cache access time (cycles)"),
       p_dbl("tml", "22", "> 0", "LWP row access time (cycles)"),
       p_dbl("pmiss", "0.1", "[0, 1]", "host cache miss probability"),
       p_dbl("mix", "0.3", "[0, 1]", "load/store fraction of the op mix")},
      [](const Config& cfg) {
        arch::SystemParams params = arch::SystemParams::table1();
        params.tl_cycle = cfg.get_double("tlcycle", params.tl_cycle);
        params.t_mh = cfg.get_double("tmh", params.t_mh);
        params.t_ch = cfg.get_double("tch", params.t_ch);
        params.t_ml = cfg.get_double("tml", params.t_ml);
        params.p_miss = cfg.get_double("pmiss", params.p_miss);
        params.ls_mix = cfg.get_double("mix", params.ls_mix);
        // Dense N axis (including the fractional neighborhood of NB) so
        // the coincidence point is visible in the plotted series.
        std::vector<double> nodes;
        const double max_nodes = cfg.get_double("maxnodes", 64.0);
        for (double n = 1.0; n <= max_nodes; n *= 1.25) nodes.push_back(n);
        nodes.push_back(params.nb());  // the crossover itself
        std::sort(nodes.begin(), nodes.end());
        return make_fig7(params, nodes, fraction_range(10));
      },
      /*verify_params=*/"maxnodes=16",
      /*verify_fingerprint=*/0xd314d3561be83107ull,
      /*cost_hint=*/nullptr,
  });

  registry.add(Scenario{
      "accuracy",
      "Section 3.1.2 claim: sim-vs-analytic relative error grid and band",
      "Section 3.1.2",
      {p_int("ops", "10000000", "> 0", "workload operations per run"),
       p_int("batch", "100000", "> 0", "binomial batching granularity"),
       p_int("maxnodes", "64", "1..2^20", "largest node count (pow2 axis)"),
       p_reps(), p_seed()},
      [](const Config& cfg) {
        HostFigureConfig fig;
        fig.base.workload.total_ops =
            static_cast<std::uint64_t>(cfg.get_int("ops", 10'000'000));
        fig.base.batch_ops =
            static_cast<std::uint64_t>(cfg.get_int("batch", 100'000));
        fig.base.seed = static_cast<std::uint64_t>(cfg.get_int("seed", 1));
        fig.node_counts = pow2_range(
            static_cast<std::size_t>(cfg.get_int("maxnodes", 64)));
        fig.lwp_fractions = {0.1, 0.3, 0.5, 0.7, 0.9, 1.0};
        const auto entries = analytic::compare_grid(fig.base, fig.node_counts,
                                                    fig.lwp_fractions);
        const auto band = analytic::summarize(entries);
        std::cerr << "# accuracy band: min " << band.min_rel_error * 100.0
                  << "%  mean " << band.mean_rel_error * 100.0 << "%  max "
                  << band.max_rel_error * 100.0 << "%  (paper: 5%-18%)\n";
        return make_accuracy_table(fig);
      },
      /*verify_params=*/"ops=500000 batch=10000 maxnodes=8",
      /*verify_fingerprint=*/0x4c6661ef681b5039ull,
      /*cost_hint=*/nullptr,
  });

  // --- Section 4: parcels -------------------------------------------------
  registry.add(Scenario{
      "fig11",
      "parcel latency hiding: work ratio vs latency, per parallelism/remote%",
      "Section 4.2, Figure 11",
      {p_int("nodes", "8", ">= 1", "system size (grid kinds need squares)"),
       p_dbl("horizon", "30000", "> 0", "simulated cycles per run"),
       p_dbl("tswitch", "2", ">= 0", "parcel context-switch cost (cycles)"),
       p_dbl("tlocal", "10", "> 0", "local memory access time (cycles)"),
       p_str("network", "flat", "flat|ring|mesh2d|torus", "topology"),
       p_bool("contention", "0", "packet-level network instead of analytic"),
       p_int("bytes", "16", ">= 1", "request/reply wire size (flit count)"),
       p_list("latencies", "10,50,100,200,500,1000,2000", "> 0",
              "system-wide round-trip latency axis L"),
       p_list("remotes", "0.02,0.05,0.1,0.2,0.5", "[0, 1]",
              "remote-access fraction curve family"),
       p_list("pars", "1,2,4,8,16,32", ">= 1",
              "degree-of-parallelism groups"),
       p_reps(), p_memory(), p_mem_banks(), p_mem_queue(), p_seed(),
       p_threads()},
      [](const Config& cfg) {
        ParcelFigureConfig fig = ParcelFigureConfig::defaults_fig11();
        fig.base.nodes = static_cast<std::size_t>(cfg.get_int("nodes", 8));
        fig.base.horizon = cfg.get_double("horizon", 30'000.0);
        fig.base.seed = static_cast<std::uint64_t>(cfg.get_int("seed", 1));
        fig.base.t_switch = cfg.get_double("tswitch", fig.base.t_switch);
        fig.base.t_local = cfg.get_double("tlocal", fig.base.t_local);
        fig.base.network = cfg.get_string("network", fig.base.network);
        fig.base.contention = cfg.get_bool("contention", false);
        fig.base.memory = cfg.get_string("memory", "analytic");
        fig.base.mem_banks =
            static_cast<std::size_t>(cfg.get_int("mem_banks", 0));
        fig.base.mem_queue =
            static_cast<std::size_t>(cfg.get_int("mem_queue", 0));
        fig.base.message_bytes = static_cast<std::size_t>(cfg.get_int(
            "bytes", static_cast<std::int64_t>(fig.base.message_bytes)));
        fig.latencies =
            cfg.get_list("latencies", {10, 50, 100, 200, 500, 1000, 2000});
        fig.remote_fractions =
            cfg.get_list("remotes", {0.02, 0.05, 0.10, 0.20, 0.50});
        std::vector<std::size_t> pars;
        for (double p : cfg.get_list("pars", {1, 2, 4, 8, 16, 32})) {
          pars.push_back(static_cast<std::size_t>(p));
        }
        fig.parallelism = pars;
        fig.sweep_threads =
            static_cast<std::size_t>(cfg.get_int("threads", 0));
        return make_fig11(fig);
      },
      /*verify_params=*/
      "nodes=4 horizon=8000 latencies=20,200 remotes=0.1 pars=1,8",
      /*verify_fingerprint=*/0x72c2d836c92500d3ull,
      // Event count ~ horizon x grid cells x total parcel contexts; the
      // packet-level network multiplies per-parcel event volume.
      /*cost_hint=*/
      [](const Config& cfg) {
        const double horizon = cfg.get_double("horizon", 30'000.0);
        const double nodes = static_cast<double>(cfg.get_int("nodes", 8));
        const auto lat =
            cfg.get_list("latencies", {10, 50, 100, 200, 500, 1000, 2000});
        const auto rem = cfg.get_list("remotes", {0.02, 0.05, 0.1, 0.2, 0.5});
        double pars = 0.0;
        for (double p : cfg.get_list("pars", {1, 2, 4, 8, 16, 32})) pars += p;
        const double net = cfg.get_bool("contention", false) ? 3.0 : 1.0;
        return horizon * nodes * net * static_cast<double>(lat.size()) *
               static_cast<double>(rem.size()) * pars;
      },
  });

  registry.add(Scenario{
      "fig12",
      "idle fraction of both systems vs parallelism, grouped by system size",
      "Section 4.2, Figure 12",
      {p_dbl("horizon", "20000", "> 0", "simulated cycles per run"),
       p_dbl("latency", "200", "> 0", "system-wide round-trip latency L"),
       p_dbl("premote", "0.1", "[0, 1]", "remote-access fraction"),
       p_str("network", "flat", "flat|ring|mesh2d|torus", "topology"),
       p_bool("contention", "0", "packet-level network instead of analytic"),
       p_int("bytes", "16", ">= 1", "request/reply wire size (flit count)"),
       p_list("sizes", "1,2,4,8,16,32,64,128,256", ">= 1",
              "system-size panels"),
       p_list("pars", "1,2,4,8,16,32", ">= 1", "degree-of-parallelism axis"),
       p_reps(), p_memory(), p_mem_banks(), p_mem_queue(), p_seed(),
       p_threads()},
      [](const Config& cfg) {
        ParcelFigureConfig fig = ParcelFigureConfig::defaults_fig12();
        fig.base.horizon = cfg.get_double("horizon", 20'000.0);
        fig.base.round_trip_latency = cfg.get_double("latency", 200.0);
        fig.base.p_remote = cfg.get_double("premote", 0.1);
        fig.base.seed = static_cast<std::uint64_t>(cfg.get_int("seed", 1));
        fig.base.network = cfg.get_string("network", fig.base.network);
        fig.base.contention = cfg.get_bool("contention", false);
        fig.base.memory = cfg.get_string("memory", "analytic");
        fig.base.mem_banks =
            static_cast<std::size_t>(cfg.get_int("mem_banks", 0));
        fig.base.mem_queue =
            static_cast<std::size_t>(cfg.get_int("mem_queue", 0));
        fig.base.message_bytes = static_cast<std::size_t>(cfg.get_int(
            "bytes", static_cast<std::int64_t>(fig.base.message_bytes)));
        std::vector<std::size_t> sizes;
        for (double s :
             cfg.get_list("sizes", {1, 2, 4, 8, 16, 32, 64, 128, 256})) {
          sizes.push_back(static_cast<std::size_t>(s));
        }
        fig.node_counts = sizes;
        std::vector<std::size_t> pars;
        for (double p : cfg.get_list("pars", {1, 2, 4, 8, 16, 32})) {
          pars.push_back(static_cast<std::size_t>(p));
        }
        fig.parallelism = pars;
        fig.sweep_threads =
            static_cast<std::size_t>(cfg.get_int("threads", 0));
        return make_fig12(fig);
      },
      /*verify_params=*/"horizon=8000 latency=200 sizes=1,4 pars=1,8",
      /*verify_fingerprint=*/0x9efb7d3d36ec7984ull,
      // Event count ~ horizon x total nodes across size panels x contexts.
      /*cost_hint=*/
      [](const Config& cfg) {
        const double horizon = cfg.get_double("horizon", 20'000.0);
        double sizes = 0.0;
        for (double s :
             cfg.get_list("sizes", {1, 2, 4, 8, 16, 32, 64, 128, 256})) {
          sizes += s;
        }
        double pars = 0.0;
        for (double p : cfg.get_list("pars", {1, 2, 4, 8, 16, 32})) pars += p;
        const double net = cfg.get_bool("contention", false) ? 3.0 : 1.0;
        return horizon * sizes * pars * net;
      },
  });

  // --- extensions (paper Section 5) ---------------------------------------
  registry.add(Scenario{
      "multithreading",
      "multithreaded LWP cost/op, NB(K), and speedup vs hardware threads",
      "Section 5.2",
      {p_dbl("switch", "1", ">= 0", "thread context-switch cost (cycles)"),
       p_int("ops", "60000", "> 0", "simulated operations per thread count"),
       p_reps(), p_int("seed", "11", ">= 0", "base RNG seed")},
      [](const Config& cfg) {
        const arch::SystemParams params = arch::SystemParams::table1();
        const double switch_cost = cfg.get_double("switch", 1.0);
        const auto ops =
            static_cast<std::uint64_t>(cfg.get_int("ops", 60'000));
        const auto seed =
            static_cast<std::uint64_t>(cfg.get_int("seed", 11));
        const analytic::MultithreadSpec spec =
            analytic::lwp_thread_spec(params, switch_cost);
        Table t("Multithreading at the PIM node (K_sat = " +
                    format_number(analytic::saturation_threads(spec)) +
                    ", switch = " + format_number(switch_cost) + " cycles)",
                {"Threads K", "cost/op (model)", "cost/op (sim)", "NB(K)",
                 "speedup vs K=1", "utilization (sim)"});
        for (std::size_t k : {1, 2, 3, 4, 6, 8, 16}) {
          des::Simulation sim;
          arch::MultithreadedLwp node(sim, params, Rng(seed), k, switch_cost);
          sim.spawn(node.run(ops));
          sim.run();
          const double sim_cost = sim.now() / static_cast<double>(ops);
          t.add_row({static_cast<std::int64_t>(k),
                     analytic::lwp_cost_per_op_mt(params, k, switch_cost),
                     sim_cost, analytic::nb_mt(params, k, switch_cost),
                     analytic::speedup(spec, k), node.utilization()});
        }
        return t;
      },
      /*verify_params=*/"ops=20000",
      /*verify_fingerprint=*/0xcfda9e606482a39eull,
      /*cost_hint=*/nullptr,
  });

  registry.add(Scenario{
      "sensitivity",
      "how NB moves with each Table 1 parameter, one-at-a-time",
      "Section 3.2 (design optimization)",
      {},
      [](const Config&) {
        const arch::SystemParams base = arch::SystemParams::table1();
        struct Knob {
          const char* name;
          std::function<void(arch::SystemParams&, double)> set;
          std::vector<double> values;
        };
        const std::vector<Knob> knobs = {
            {"Pmiss", [](arch::SystemParams& p, double v) { p.p_miss = v; },
             {0.02, 0.05, 0.1, 0.2, 0.4}},
            {"TMH", [](arch::SystemParams& p, double v) { p.t_mh = v; },
             {45, 90, 180, 360}},
            {"TML", [](arch::SystemParams& p, double v) { p.t_ml = v; },
             {10, 22, 30, 60}},
            {"TLcycle",
             [](arch::SystemParams& p, double v) { p.tl_cycle = v; },
             {2, 5, 10}},
            {"TCH", [](arch::SystemParams& p, double v) { p.t_ch = v; },
             {1, 2, 4}},
            {"mix l/s", [](arch::SystemParams& p, double v) { p.ls_mix = v; },
             {0.1, 0.3, 0.5}},
        };
        Table t("Sensitivity of NB to the Table 1 parameters (baseline NB = " +
                    format_number(base.nb()) + ")",
                {"Parameter", "Value", "HWP cost/op", "LWP cost/op", "NB",
                 "NB / baseline"});
        for (const auto& knob : knobs) {
          for (double v : knob.values) {
            arch::SystemParams p = base;
            knob.set(p, v);
            t.add_row({std::string(knob.name), v, p.hwp_cost_per_op(),
                       p.lwp_cost_per_op(), p.nb(), p.nb() / base.nb()});
          }
        }
        return t;
      },
      /*verify_params=*/"",
      /*verify_fingerprint=*/0xfce7c0ef4093f9bfull,
      /*cost_hint=*/nullptr,
  });

  // --- ablations of the paper's modeling assumptions ----------------------
  registry.add(Scenario{
      "ablation_bank_conflicts",
      "ablation A: cost of the paper's unmodeled-bank-conflicts assumption",
      "Section 3.1 (assumptions)",
      {p_int("ops", "400000", "> 0", "workload operations per run"),
       p_int("nodes", "8", ">= 1", "LWP count (one per bank at baseline)"),
       p_reps(), p_seed()},
      [](const Config& cfg) {
        arch::HostConfig base;
        base.workload.total_ops =
            static_cast<std::uint64_t>(cfg.get_int("ops", 400'000));
        base.workload.lwp_fraction = 1.0;  // all work on the LWP array
        base.lwp_nodes = static_cast<std::size_t>(cfg.get_int("nodes", 8));
        base.batch_ops = 10'000;
        base.seed = static_cast<std::uint64_t>(cfg.get_int("seed", 1));
        const double batched = arch::run_host_system(base).total_cycles;
        Table t("Ablation A: bank-conflict modeling (100% LWP work, " +
                    std::to_string(base.lwp_nodes) + " LWPs)",
                {"LWPs per bank", "makespan (cycles)", "vs contention-free"});
        t.add_row({std::string("(not modeled, paper)"), batched, 1.0});
        for (std::int64_t per_bank : {1, 2, 4, 8}) {
          // lwps_per_bank LWPs share one bank of the banked backend:
          // per_bank == 1 gives every LWP a private bank (pure per-access
          // serialization, no conflicts), larger values model a chip with
          // fewer banks than processors.
          arch::HostConfig cfg2 = base;
          cfg2.memory.kind = "banked";
          cfg2.memory.banks =
              (base.lwp_nodes + static_cast<std::size_t>(per_bank) - 1) /
              static_cast<std::size_t>(per_bank);
          const double cycles = arch::run_host_system(cfg2).total_cycles;
          t.add_row({per_bank, cycles, cycles / batched});
        }
        return t;
      },
      /*verify_params=*/"ops=100000 nodes=4",
      // Re-pinned when the ablation moved onto the MemorySystem seam: the
      // banked backend's FIFO arrival order breaks same-cycle ties
      // slightly differently from the old shared-Resource wait queue
      // (shared-bank makespans moved by < 0.01%; private banks exact).
      /*verify_fingerprint=*/0x5c3713859111d0c9ull,
      /*cost_hint=*/nullptr,
  });

  registry.add(Scenario{
      "memory_contention",
      "banked-DRAM study: makespan and row-hit rate vs bank count",
      "extension (memory seam)",
      {p_int("ops", "400000", "> 0", "workload operations per run"),
       p_int("nodes", "8", ">= 1", "LWP count (100% LWP work)"),
       p_list("banks", "1,2,4,8", ">= 1", "DRAM bank counts to sweep"),
       p_int("queue", "0", ">= 0", "shared access ports (0 = one per bank)"),
       p_reps(), p_seed()},
      [](const Config& cfg) {
        arch::HostConfig base;
        base.workload.total_ops =
            static_cast<std::uint64_t>(cfg.get_int("ops", 400'000));
        base.workload.lwp_fraction = 1.0;  // all work on the LWP array
        base.lwp_nodes = static_cast<std::size_t>(cfg.get_int("nodes", 8));
        base.batch_ops = 10'000;
        base.seed = static_cast<std::uint64_t>(cfg.get_int("seed", 1));
        const double analytic = arch::run_host_system(base).total_cycles;
        const auto queue = static_cast<std::size_t>(cfg.get_int("queue", 0));
        Table t("Banked-memory contention (100% LWP work, " +
                    std::to_string(base.lwp_nodes) + " LWPs, queue = " +
                    (queue == 0 ? std::string("per-bank")
                                : std::to_string(queue)) +
                    ")",
                {"Banks", "makespan (cycles)", "vs analytic", "row-hit %",
                 "accesses"});
        for (double b : cfg.get_list("banks", {1, 2, 4, 8})) {
          arch::HostConfig cfg2 = base;
          cfg2.memory.kind = "banked";
          cfg2.memory.banks = static_cast<std::size_t>(b);
          cfg2.memory.queue = queue;
          const arch::HostResult r = arch::run_host_system(cfg2);
          t.add_row({static_cast<std::int64_t>(b), r.total_cycles,
                     r.total_cycles / analytic, r.mem_row_hit_rate * 100.0,
                     static_cast<std::int64_t>(r.mem_accesses)});
        }
        return t;
      },
      /*verify_params=*/"ops=60000 nodes=4 banks=1,4",
      /*verify_fingerprint=*/0xacbd2bd677c9b95full,
      // One banked-DES run per bank count, each ~ ops memory events.
      /*cost_hint=*/
      [](const Config& cfg) {
        const double ops = static_cast<double>(cfg.get_int("ops", 400'000));
        const double banks =
            static_cast<double>(cfg.get_list("banks", {1, 2, 4, 8}).size());
        return ops * banks;
      },
  });

  registry.add(Scenario{
      "ablation_topology",
      "ablation B: Figure 11 slice under ring/mesh/torus vs flat latency",
      "Section 4.1 (assumptions)",
      {p_int("nodes", "16", ">= 1 (square for grids)", "system size"),
       p_dbl("horizon", "30000", "> 0", "simulated cycles per run"),
       p_dbl("latency", "500", "> 0", "calibrated mean round trip (cycles)"),
       p_dbl("premote", "0.2", "[0, 1]", "remote-access fraction"),
       p_bool("contention", "0", "packet-level network instead of analytic"),
       p_int("msgbytes", "16", ">= 1", "request/reply wire size"),
       p_reps(), p_seed()},
      [](const Config& cfg) {
        parcel::SplitTransactionParams base;
        base.nodes = static_cast<std::size_t>(cfg.get_int("nodes", 16));
        base.horizon = cfg.get_double("horizon", 30'000.0);
        base.round_trip_latency = cfg.get_double("latency", 500.0);
        base.p_remote = cfg.get_double("premote", 0.2);
        base.seed = static_cast<std::uint64_t>(cfg.get_int("seed", 1));
        base.contention = cfg.get_bool("contention", false);
        base.message_bytes =
            static_cast<std::size_t>(cfg.get_int("msgbytes", 16));
        Table t("Ablation B: topology sensitivity (mean round trip " +
                    format_number(base.round_trip_latency) + " cycles, " +
                    std::to_string(base.nodes) + " nodes, " +
                    (base.contention ? "packet-level" : "analytic") +
                    " network)",
                {"Network", "Parallelism", "work ratio", "test idle %",
                 "control idle %"});
        for (const char* network : {"flat", "ring", "mesh2d", "torus"}) {
          for (std::int64_t par : {1, 4, 16, 32}) {
            parcel::SplitTransactionParams p = base;
            p.network = network;
            p.parallelism = static_cast<std::size_t>(par);
            const parcel::ComparisonPoint point = parcel::compare_systems(p);
            t.add_row({std::string(network), par, point.work_ratio,
                       point.test_idle * 100.0, point.control_idle * 100.0});
          }
        }
        return t;
      },
      /*verify_params=*/"nodes=16 horizon=8000",
      /*verify_fingerprint=*/0xf1dba985cc2c3846ull,
      /*cost_hint=*/nullptr,
  });

  registry.add(Scenario{
      "ablation_switch_cost",
      "ablation C: t_switch sweep; ratio reversal when L < 2*t_switch",
      "Section 4.3 (conclusions)",
      {p_int("nodes", "8", ">= 1", "system size"),
       p_dbl("horizon", "30000", "> 0", "simulated cycles per run"),
       p_dbl("premote", "0.2", "[0, 1]", "remote-access fraction"),
       p_int("parallelism", "16", ">= 1", "parcel contexts per node"),
       p_reps(), p_seed()},
      [](const Config& cfg) {
        parcel::SplitTransactionParams base;
        base.nodes = static_cast<std::size_t>(cfg.get_int("nodes", 8));
        base.horizon = cfg.get_double("horizon", 30'000.0);
        base.p_remote = cfg.get_double("premote", 0.2);
        base.parallelism =
            static_cast<std::size_t>(cfg.get_int("parallelism", 16));
        base.seed = static_cast<std::uint64_t>(cfg.get_int("seed", 1));
        Table t("Ablation C: parcel handling overhead (reversal when L < "
                "2*t_switch)",
                {"t_switch", "Latency (cycles)", "work ratio",
                 "ratio (model)"});
        for (double t_switch : {0.0, 2.0, 8.0, 32.0}) {
          for (double latency : {10.0, 50.0, 200.0, 1000.0}) {
            parcel::SplitTransactionParams p = base;
            p.t_switch = t_switch;
            p.round_trip_latency = latency;
            const parcel::ComparisonPoint point = parcel::compare_systems(p);
            t.add_row({t_switch, latency, point.work_ratio,
                       analytic::predicted_ratio(p)});
          }
        }
        return t;
      },
      /*verify_params=*/"horizon=8000",
      /*verify_fingerprint=*/0x5fdcd0b7fb16b795ull,
      /*cost_hint=*/nullptr,
  });

  registry.add(Scenario{
      "ablation_overlap",
      "ablation D: serialized vs overlapped host/PIM execution",
      "Section 3 (Figure 4 flow)",
      {p_int("ops", "4000000", "> 0", "workload operations per run"),
       p_dbl("pct", "0.7", "[0, 1]", "lightweight workload fraction %WL"),
       p_reps(), p_seed()},
      [](const Config& cfg) {
        arch::HostConfig base;
        base.workload.total_ops =
            static_cast<std::uint64_t>(cfg.get_int("ops", 4'000'000));
        base.workload.lwp_fraction = cfg.get_double("pct", 0.7);
        base.batch_ops = 50'000;
        base.seed = static_cast<std::uint64_t>(cfg.get_int("seed", 1));
        const double pct = base.workload.lwp_fraction;
        const arch::SystemParams& params = base.params;
        Table t("Ablation D: serialized vs overlapped host/PIM execution "
                "(%WL = " +
                    format_number(pct * 100.0) + ", balanced N* = " +
                    format_number(analytic::balanced_nodes(params, pct)) +
                    ")",
                {"Nodes", "serial gain (sim)", "serial gain (model)",
                 "overlap gain (sim)", "overlap gain (model)"});
        const double control = arch::run_control_system(base).total_cycles;
        for (std::size_t nodes : {1, 2, 4, 8, 16, 32, 64, 128}) {
          arch::HostConfig serial = base;
          serial.lwp_nodes = nodes;
          arch::HostConfig overlap = serial;
          overlap.overlap_phases = true;
          const double n = static_cast<double>(nodes);
          t.add_row({static_cast<std::int64_t>(nodes),
                     control / arch::run_host_system(serial).total_cycles,
                     analytic::gain(params, n, pct),
                     control / arch::run_host_system(overlap).total_cycles,
                     1.0 / analytic::time_relative_overlapped(params, n, pct)});
        }
        return t;
      },
      /*verify_params=*/"ops=400000",
      /*verify_fingerprint=*/0xdd5c988e5f162882ull,
      /*cost_hint=*/nullptr,
  });

  registry.add(Scenario{
      "ablation_bandwidth",
      "ablation E: NIC injection bandwidth bound on latency hiding",
      "Section 4.1 (assumptions)",
      {p_int("nodes", "8", ">= 1", "system size"),
       p_dbl("horizon", "30000", "> 0", "simulated cycles per run"),
       p_dbl("latency", "500", "> 0", "system-wide round trip (cycles)"),
       p_dbl("premote", "0.2", "[0, 1]", "remote-access fraction"),
       p_reps(), p_seed()},
      [](const Config& cfg) {
        parcel::SplitTransactionParams base;
        base.nodes = static_cast<std::size_t>(cfg.get_int("nodes", 8));
        base.horizon = cfg.get_double("horizon", 30'000.0);
        base.round_trip_latency = cfg.get_double("latency", 500.0);
        base.p_remote = cfg.get_double("premote", 0.2);
        base.seed = static_cast<std::uint64_t>(cfg.get_int("seed", 1));
        Table t("Ablation E: injection bandwidth (L = " +
                    format_number(base.round_trip_latency) + ", " +
                    format_number(base.p_remote * 100.0) + "% remote)",
                {"nic_gap", "Parallelism", "work ratio",
                 "test work/cycle/node", "bandwidth bound"});
        for (double gap : {0.0, 5.0, 20.0, 80.0}) {
          for (std::int64_t par : {1, 4, 16, 64}) {
            parcel::SplitTransactionParams p = base;
            p.nic_gap = gap;
            p.parallelism = static_cast<std::size_t>(par);
            const parcel::ComparisonPoint point = parcel::compare_systems(p);
            const double per_node =
                point.test_work /
                (p.horizon * static_cast<double>(p.nodes));
            const double bound =
                analytic::test_throughput_bandwidth_bound(p);
            t.add_row({gap, par, point.work_ratio, per_node,
                       std::isinf(bound) ? Cell{std::string("inf")}
                                         : Cell{bound}});
          }
        }
        return t;
      },
      /*verify_params=*/"horizon=8000",
      /*verify_fingerprint=*/0x97301bd4aa8cade9ull,
      /*cost_hint=*/nullptr,
  });

  // --- traffic studies ----------------------------------------------------
  registry.add(Scenario{
      "hotspot",
      "all-to-one traffic: analytic vs packet-level latency collapse",
      "Section 4.1 (assumptions; interconnect study)",
      {p_int("nodes", "16", ">= 2 (square for grids)", "system size"),
       p_dbl("roundtrip", "200", "> 0", "calibrated mean round trip"),
       p_int("bytes", "16", ">= 1", "parcel wire size (one flit = 16)"),
       p_int("packets", "200", ">= 1", "packets per source node"),
       p_list("gaps", "4096,256,32,8,4", "> 0",
              "injection gaps, trickle to flood (cycles)"),
       p_str("networks", "flat,mesh2d,torus",
             "comma list of flat|ring|mesh2d|torus", "topologies to run")},
      make_hotspot_table,
      /*verify_params=*/"packets=50 gaps=4096,32",
      /*verify_fingerprint=*/0x111ea3ac7cdfe0f6ull,
      // Packet-level runs: sources x packets per (gap, network) cell.
      /*cost_hint=*/
      [](const Config& cfg) {
        const double nodes = static_cast<double>(cfg.get_int("nodes", 16));
        const double packets = static_cast<double>(cfg.get_int("packets", 200));
        const double gaps = static_cast<double>(
            cfg.get_list("gaps", {4096, 256, 32, 8, 4}).size());
        const double nets = static_cast<double>(
            split_csv(cfg.get_string("networks", "flat,mesh2d,torus")).size());
        return nodes * packets * gaps * nets;
      },
  });
}

}  // namespace pimsim::core
