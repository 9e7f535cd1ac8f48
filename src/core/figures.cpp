#include "core/figures.hpp"

#include <algorithm>
#include <numeric>
#include <string>

#include "analytic/accuracy.hpp"
#include "analytic/hwp_lwp.hpp"
#include "analytic/parcel_model.hpp"
#include "common/error.hpp"
#include "core/experiment.hpp"
#include "core/sweep.hpp"
#include "memory/dram.hpp"

namespace pimsim::core {

namespace {

std::string pct_label(double fraction) {
  return format_number(fraction * 100.0) + "% LWT";
}

}  // namespace

Table make_table1(const arch::SystemParams& params) {
  params.validate();
  Table t("Table 1: Parametric Assumptions and Metrics",
          {"Parameter", "Description", "Value"});
  const wl::WorkloadSpec workload_defaults;
  t.add_row({std::string("W"), std::string("total work = WH + WL (operations)"),
             static_cast<std::int64_t>(workload_defaults.total_ops)});
  t.add_row({std::string("%WH"), std::string("percent heavyweight work"),
             std::string("varied 0% to 100%")});
  t.add_row({std::string("%WL"), std::string("percent lightweight work"),
             std::string("varied 0% to 100%")});
  t.add_row({std::string("THcycle"), std::string("heavyweight cycle time (ns)"),
             params.th_cycle_ns});
  t.add_row({std::string("TLcycle"),
             std::string("lightweight cycle time (HWP cycles)"),
             params.tl_cycle});
  t.add_row({std::string("TMH"),
             std::string("heavyweight memory access time (cycles)"),
             params.t_mh});
  t.add_row({std::string("TCH"),
             std::string("heavyweight cache access time (cycles)"), params.t_ch});
  t.add_row({std::string("TML"),
             std::string("lightweight memory access time (cycles)"), params.t_ml});
  t.add_row({std::string("Pmiss"), std::string("heavyweight cache miss rate"),
             params.p_miss});
  t.add_row({std::string("mix l/s"),
             std::string("instruction mix for load and store ops"),
             params.ls_mix});
  t.add_row({std::string("-> HWP cost/op"),
             std::string("derived: 1 + mix*(TCH-1+Pmiss*TMH) (cycles)"),
             params.hwp_cost_per_op()});
  t.add_row({std::string("-> LWP cost/op"),
             std::string("derived: TLcycle + mix*(TML-TLcycle) (cycles)"),
             params.lwp_cost_per_op()});
  t.add_row({std::string("-> NB"),
             std::string("derived: LWP/HWP cost ratio (break-even nodes)"),
             params.nb()});
  return t;
}

HostFigureConfig HostFigureConfig::defaults_fig5() {
  HostFigureConfig c;
  c.node_counts = pow2_range(256);
  c.lwp_fractions = fraction_range(10);
  return c;
}

HostFigureConfig HostFigureConfig::defaults_fig6() {
  HostFigureConfig c;
  c.node_counts = pow2_range(64);
  c.lwp_fractions = fraction_range(10);
  return c;
}

Table make_fig5(const HostFigureConfig& config) {
  require(!config.node_counts.empty() && !config.lwp_fractions.empty(),
          "make_fig5: empty axes");
  std::vector<std::string> cols{"%WL"};
  for (std::size_t n : config.node_counts) {
    cols.push_back("gain N=" + std::to_string(n));
  }
  Table t("Figure 5: Simulation of Performance Gain (test vs control)", cols);

  // The control run ignores %WL and N (every work unit goes to the HWP)
  // and every cell draws the same seed, so it runs once, with that seed,
  // and each cell divides by it as simulated_gain() would.
  arch::HostConfig control = config.base;
  control.seed = replication_seeds(1, config.base.seed).front();
  const double control_cycles = arch::run_control_system(control).total_cycles;

  // Fan the (%WL, N) grid across cores; point order fixes the table layout.
  const std::size_t n_cols = config.node_counts.size();
  SweepRunner runner(config.sweep_threads);
  const std::vector<Estimate> estimates = runner.sweep(
      config.lwp_fractions.size() * n_cols, /*replications=*/1,
      config.base.seed,
      [&config, n_cols, control_cycles](std::size_t idx, std::uint64_t seed) {
        arch::HostConfig point = config.base;
        point.workload.lwp_fraction = config.lwp_fractions[idx / n_cols];
        point.lwp_nodes = config.node_counts[idx % n_cols];
        point.seed = seed;
        const double test_cycles = arch::run_host_system(point).total_cycles;
        ensure(test_cycles > 0.0, "make_fig5: empty test run");
        return control_cycles / test_cycles;
      });

  for (std::size_t pi = 0; pi < config.lwp_fractions.size(); ++pi) {
    std::vector<Cell> row{config.lwp_fractions[pi] * 100.0};
    for (std::size_t ni = 0; ni < n_cols; ++ni) {
      row.push_back(estimates[pi * n_cols + ni].mean);
    }
    t.add_row(std::move(row));
  }
  return t;
}

Table make_fig6(const HostFigureConfig& config) {
  require(!config.node_counts.empty() && !config.lwp_fractions.empty(),
          "make_fig6: empty axes");
  std::vector<std::string> cols{"Nodes"};
  for (double pct : config.lwp_fractions) {
    cols.push_back(pct == 0.0 ? "No LWT Work (ns)" : pct_label(pct) + " (ns)");
  }
  Table t("Figure 6: Single Thread/Node Response Time (unnormalized, ns)",
          cols);

  const std::size_t n_cols = config.lwp_fractions.size();
  SweepRunner runner(config.sweep_threads);
  const std::vector<Estimate> estimates = runner.sweep(
      config.node_counts.size() * n_cols, /*replications=*/1,
      config.base.seed, [&config, n_cols](std::size_t idx, std::uint64_t seed) {
        arch::HostConfig point = config.base;
        point.lwp_nodes = config.node_counts[idx / n_cols];
        point.workload.lwp_fraction = config.lwp_fractions[idx % n_cols];
        point.seed = seed;
        return arch::run_host_system(point).total_ns(point.params);
      });

  for (std::size_t ni = 0; ni < config.node_counts.size(); ++ni) {
    std::vector<Cell> row{static_cast<std::int64_t>(config.node_counts[ni])};
    for (std::size_t pi = 0; pi < n_cols; ++pi) {
      row.push_back(estimates[ni * n_cols + pi].mean);
    }
    t.add_row(std::move(row));
  }
  return t;
}

Table make_fig7(const arch::SystemParams& params,
                const std::vector<double>& node_counts,
                const std::vector<double>& lwp_fractions,
                std::size_t sweep_threads) {
  require(!node_counts.empty() && !lwp_fractions.empty(),
          "make_fig7: empty axes");
  std::vector<std::string> cols{"Nodes"};
  for (double pct : lwp_fractions) cols.push_back(pct_label(pct));
  Table t("Figure 7: Normalized Time_relative = 1 - %WL*(1 - NB/N)  [NB = " +
              format_number(params.nb()) + "]",
          cols);
  const std::size_t n_cols = lwp_fractions.size();
  std::vector<double> values(node_counts.size() * n_cols);
  SweepRunner runner(sweep_threads);
  runner.for_each(values.size(), [&](std::size_t idx) {
    values[idx] = analytic::time_relative(params, node_counts[idx / n_cols],
                                          lwp_fractions[idx % n_cols]);
  });
  for (std::size_t ni = 0; ni < node_counts.size(); ++ni) {
    std::vector<Cell> row{node_counts[ni]};
    for (std::size_t pi = 0; pi < n_cols; ++pi) {
      row.push_back(values[ni * n_cols + pi]);
    }
    t.add_row(std::move(row));
  }
  return t;
}

Table make_accuracy_table(const HostFigureConfig& config) {
  const auto entries = analytic::compare_grid(config.base, config.node_counts,
                                              config.lwp_fractions);
  Table t("Section 3.1.2: simulation vs analytic model (paper: 5%-18%)",
          {"Nodes", "%WL", "sim (cycles)", "model (cycles)", "rel err %"});
  for (const auto& e : entries) {
    t.add_row({static_cast<std::int64_t>(e.nodes), e.lwp_fraction * 100.0,
               e.simulated_cycles, e.model_cycles, e.rel_error * 100.0});
  }
  return t;
}

ParcelFigureConfig ParcelFigureConfig::defaults_fig11() {
  ParcelFigureConfig c;
  c.base.nodes = 16;
  c.base.horizon = 50'000.0;
  c.latencies = {10, 20, 50, 100, 200, 500, 1000, 2000};
  c.remote_fractions = {0.02, 0.05, 0.10, 0.20, 0.50};
  c.parallelism = {1, 2, 4, 8, 16, 32};  // the paper's "six major experiments"
  return c;
}

ParcelFigureConfig ParcelFigureConfig::defaults_fig12() {
  ParcelFigureConfig c;
  c.base.horizon = 20'000.0;
  c.base.round_trip_latency = 200.0;
  c.base.p_remote = 0.10;
  c.parallelism = {1, 2, 4, 8, 16, 32};
  // The paper's "8 major experimental sets ... from single node systems
  // ... to 256 nodes"; its 16-node case failed, ours is included.
  c.node_counts = {1, 2, 4, 8, 16, 32, 64, 128, 256};
  return c;
}

Table make_fig11(const ParcelFigureConfig& config) {
  require(!config.latencies.empty() && !config.remote_fractions.empty() &&
              !config.parallelism.empty(),
          "make_fig11: empty axes");
  Table t("Figure 11: Latency Hiding with Parcels (ops ratio test/control)",
          {"Parallelism", "%remote", "Latency (cycles)", "ratio",
           "ratio (model)", "ratio (MVA)"});
  // The control system has no parallelism knob, so run it once per
  // (remote fraction, latency) pair and reuse it across the panels.  The
  // pairs are independent design points: fan them across cores and append
  // the finished row groups in pair order.
  const std::size_t n_lat = config.latencies.size();
  const std::size_t n_par = config.parallelism.size();
  std::vector<std::vector<Cell>> rows(config.remote_fractions.size() * n_lat *
                                      n_par);
  SweepRunner runner(config.sweep_threads);
  runner.for_each(
      config.remote_fractions.size() * n_lat, [&](std::size_t pair) {
        const double remote = config.remote_fractions[pair / n_lat];
        const double latency = config.latencies[pair % n_lat];
        parcel::SplitTransactionParams base = config.base;
        base.p_remote = remote;
        base.round_trip_latency = latency;
        const double control_work =
            parcel::run_message_passing_system(base).total_work();
        for (std::size_t pi = 0; pi < n_par; ++pi) {
          parcel::SplitTransactionParams p = base;
          p.parallelism = config.parallelism[pi];
          const double test_work =
              parcel::run_split_transaction_system(p).total_work();
          rows[pair * n_par + pi] = {
              static_cast<std::int64_t>(config.parallelism[pi]),
              remote * 100.0,
              latency,
              test_work / control_work,
              analytic::predicted_ratio(p),
              analytic::predicted_ratio_mva(p)};
        }
      });
  for (std::vector<Cell>& row : rows) t.add_row(std::move(row));
  return t;
}

Table make_fig12(const ParcelFigureConfig& config) {
  require(!config.parallelism.empty() && !config.node_counts.empty(),
          "make_fig12: empty axes");
  Table t("Figure 12: Idle Time with respect to Degree of Parallelism",
          {"Nodes", "Parallelism", "test idle %", "control idle %"});
  // The control system has no parallelism knob, so one control run is
  // shared by every parallelism cell of a size; the (size, parallelism)
  // test runs then fan across cores individually for even load balance.
  const std::size_t n_par = config.parallelism.size();
  SweepRunner runner(config.sweep_threads);
  std::vector<double> control_idle(config.node_counts.size());
  runner.for_each(config.node_counts.size(), [&](std::size_t ni) {
    parcel::SplitTransactionParams base = config.base;
    base.nodes = config.node_counts[ni];
    control_idle[ni] =
        parcel::run_message_passing_system(base).mean_idle_fraction();
  });
  std::vector<std::vector<Cell>> rows(config.node_counts.size() * n_par);
  // Dispatch the expensive cells first: a 256-node, 32-context simulation
  // costs ~nodes*parallelism, and starting it last would leave one thread
  // finishing it alone while the rest sit idle.
  std::vector<std::size_t> order(rows.size());
  std::iota(order.begin(), order.end(), std::size_t{0});
  std::sort(order.begin(), order.end(), [&](std::size_t a, std::size_t b) {
    const auto cost = [&](std::size_t idx) {
      return config.node_counts[idx / n_par] * config.parallelism[idx % n_par];
    };
    return cost(a) > cost(b);
  });
  runner.for_each(rows.size(), [&](std::size_t k) {
    const std::size_t idx = order[k];
    const std::size_t ni = idx / n_par;
    parcel::SplitTransactionParams p = config.base;
    p.nodes = config.node_counts[ni];
    p.parallelism = config.parallelism[idx % n_par];
    const auto test = parcel::run_split_transaction_system(p);
    rows[idx] = {static_cast<std::int64_t>(p.nodes),
                 static_cast<std::int64_t>(p.parallelism),
                 test.mean_idle_fraction() * 100.0, control_idle[ni] * 100.0};
  });
  for (std::vector<Cell>& row : rows) t.add_row(std::move(row));
  return t;
}

Table make_bandwidth_table() {
  const mem::DramMacroSpec spec;
  Table t("Section 2.1: on-chip DRAM macro bandwidth",
          {"Quantity", "Value", "Paper claim"});
  t.add_row({std::string("row size (bits)"),
             static_cast<std::int64_t>(spec.row_bits), std::string("2048")});
  t.add_row({std::string("wide word (bits)"),
             static_cast<std::int64_t>(spec.word_bits), std::string("256")});
  t.add_row({std::string("row access (ns)"), spec.row_access_ns,
             std::string("20 (conservative)")});
  t.add_row({std::string("page access (ns)"), spec.page_access_ns,
             std::string("2")});
  t.add_row({std::string("macro sustained (Gbit/s)"),
             spec.sustained_bandwidth_gbps(), std::string("over 50")});
  t.add_row({std::string("macro burst (Gbit/s)"), spec.burst_bandwidth_gbps(),
             std::string("-")});
  t.add_row({std::string("chip, 32 nodes (Tbit/s)"),
             spec.chip_bandwidth_gbps(32) / 1000.0,
             std::string("greater than 1")});
  return t;
}

}  // namespace pimsim::core
