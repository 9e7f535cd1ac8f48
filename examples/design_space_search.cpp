// Design-space exploration: the "quantitative framework for assessing the
// tradeoff space" of paper Section 2.3, driven from the inverse direction
// a machine architect actually faces — given a target, what does the
// configuration need to be?
//
// Build & run:  ./examples/design_space_search
#include <cmath>
#include <cstdio>

#include "analytic/hwp_lwp.hpp"
#include "analytic/multithreading.hpp"
#include "analytic/parcel_model.hpp"
#include "arch/host_system.hpp"
#include "arch/params.hpp"
#include "core/design_space.hpp"
#include "core/sweep.hpp"

int main() {
  using namespace pimsim;
  const arch::SystemParams params = arch::SystemParams::table1();

  // --- 1. node provisioning: minimum N for a target speedup -------------
  std::printf("minimum PIM nodes for a target gain (Table 1 machine):\n");
  std::printf("%-10s", "%WL");
  for (double target : {1.5, 2.0, 4.0, 8.0}) std::printf("  gain %.1fx", target);
  std::printf("\n");
  for (double pct : {0.3, 0.5, 0.7, 0.9, 1.0}) {
    std::printf("%-10.0f", pct * 100.0);
    for (double target : {1.5, 2.0, 4.0, 8.0}) {
      const std::size_t n = analytic::min_nodes_for_gain(params, pct, target);
      if (n == 0) {
        std::printf("  %9s", "-");
      } else {
        std::printf("  %9zu", n);
      }
    }
    std::printf("\n");
  }
  std::printf("('-' = unattainable: max gain at %%WL is 1/(1-%%WL))\n\n");

  // --- 2. regime map across the (N, %WL) plane --------------------------
  std::printf("operating regimes (rows: nodes, cols: %%WL):\n%-8s", "");
  for (double pct : {0.1, 0.3, 0.5, 0.7, 0.9}) std::printf("%-14.0f", pct * 100);
  std::printf("\n");
  for (double n : {1.0, 2.0, 4.0, 16.0, 64.0, 256.0}) {
    std::printf("%-8.0f", n);
    for (double pct : {0.1, 0.3, 0.5, 0.7, 0.9}) {
      std::printf("%-14s", core::to_string(core::classify_host_point(params, n, pct)));
    }
    std::printf("\n");
  }

  // --- 3. how machine parameters move the break-even point --------------
  std::printf("\nsensitivity of NB to the machine parameters:\n");
  std::printf("%-34s %s\n", "configuration", "NB");
  auto show = [](const char* label, arch::SystemParams p) {
    std::printf("%-34s %.3f\n", label, p.nb());
  };
  show("Table 1 baseline", params);
  arch::SystemParams v = params;
  v.p_miss = 0.02;
  show("better host cache (Pmiss=0.02)", v);
  v = params;
  v.p_miss = 0.3;
  show("worse host cache (Pmiss=0.3)", v);
  v = params;
  v.t_ml = 10.0;
  show("faster PIM memory (TML=10)", v);
  v = params;
  v.tl_cycle = 2.0;
  show("faster PIM clock (TLcycle=2)", v);
  v = params;
  v.t_mh = 300.0;
  show("slower host DRAM path (TMH=300)", v);

  // --- 4. parcels: provisioning parallelism for a latency budget --------
  std::printf("\nparcel contexts needed to saturate a node (20%% remote):\n");
  std::printf("%-18s %s\n", "round trip (cy)", "contexts (ceil)");
  parcel::SplitTransactionParams pp;
  pp.p_remote = 0.2;
  for (double latency : {50.0, 200.0, 1000.0, 5000.0}) {
    pp.round_trip_latency = latency;
    std::printf("%-18.0f %.0f\n", latency,
                std::ceil(analytic::saturation_parallelism(pp)));
  }

  // --- 5. extensions: what relaxing the paper's assumptions buys --------
  std::printf("\nextensions at a glance (Table 1 machine, %%WL = 70):\n");
  const double pct70 = 0.7;
  std::printf("  serialized phases, N=16      : gain %.2fx\n",
              analytic::gain(params, 16.0, pct70));
  std::printf("  overlapped host+PIM, N=16    : gain %.2fx (cap %.2fx at N* = %.1f)\n",
              1.0 / analytic::time_relative_overlapped(params, 16.0, pct70),
              analytic::max_gain(pct70),
              analytic::balanced_nodes(params, pct70));
  std::printf("  4-way multithreaded LWPs     : NB falls %.2f -> %.2f\n",
              params.nb(), analytic::nb_mt(params, 4, 1.0));
  pp.round_trip_latency = 1000.0;
  pp.parallelism = 16;
  pp.nic_gap = 20.0;
  std::printf("  NIC-aware parcel ceiling     : %.3f work/cycle/node at "
              "20-cycle injection gap\n",
              analytic::test_throughput_bandwidth_bound(pp));

  // --- 6. simulated confirmation of the map, swept in parallel ----------
  // The analytic regime map above is instant; confirming it by simulation
  // is a (N, %WL) x replications grid — exactly what SweepRunner fans
  // across cores.  Means carry 95% CI half-widths from 3 replications.
  const std::vector<std::size_t> sweep_nodes{1, 4, 16, 64};
  const std::vector<double> sweep_fractions{0.3, 0.5, 0.7, 0.9};
  core::SweepRunner runner;  // one thread per core
  std::printf("\nsimulated gain map (%zu-thread sweep, mean +/- 95%% CI):\n",
              runner.threads());
  const std::vector<Estimate> gains = runner.sweep(
      sweep_nodes.size() * sweep_fractions.size(), /*replications=*/3,
      /*base_seed=*/1,
      [&](std::size_t idx, std::uint64_t seed) {
        arch::HostConfig point;
        point.workload.total_ops = 2'000'000;
        point.batch_ops = 20'000;
        point.lwp_nodes = sweep_nodes[idx / sweep_fractions.size()];
        point.workload.lwp_fraction =
            sweep_fractions[idx % sweep_fractions.size()];
        point.seed = seed;
        return arch::simulated_gain(point);
      });
  std::printf("%-8s", "");
  for (double pct : sweep_fractions) std::printf("%-16.0f", pct * 100.0);
  std::printf("\n");
  for (std::size_t ni = 0; ni < sweep_nodes.size(); ++ni) {
    std::printf("%-8zu", sweep_nodes[ni]);
    for (std::size_t fi = 0; fi < sweep_fractions.size(); ++fi) {
      const Estimate& e = gains[ni * sweep_fractions.size() + fi];
      std::printf("%6.2f +/- %-5.2f", e.mean, e.half_width);
    }
    std::printf("\n");
  }
  return 0;
}
