// Scenario registry tests: lookup and duplicate rejection, typed
// parameter validation (InvalidArgument listing the valid keys), and the
// CLI-vs-bench equivalence contract — `pimsim run fig5` produces the
// exact table make_fig5 produces, at any sweep_threads.
#include <gtest/gtest.h>

#include <algorithm>
#include <sstream>
#include <string>
#include <vector>

#include "arch/params.hpp"
#include "common/config.hpp"
#include "common/error.hpp"
#include "core/experiment.hpp"
#include "core/figures.hpp"
#include "core/scenario.hpp"

namespace pimsim::core {
namespace {

std::string csv_of(const Table& table) {
  std::ostringstream os;
  table.print_csv(os);
  return os.str();
}

TEST(ScenarioRegistry, GlobalHoldsEveryFigureAndAblation) {
  const ScenarioRegistry& reg = ScenarioRegistry::global();
  for (const char* name :
       {"table1", "bandwidth", "fig5", "fig6", "fig7", "accuracy", "fig11",
        "fig12", "multithreading", "sensitivity", "ablation_bank_conflicts",
        "ablation_topology", "ablation_switch_cost", "ablation_overlap",
        "ablation_bandwidth", "hotspot", "memory_contention"}) {
    EXPECT_TRUE(reg.contains(name)) << name;
  }
  EXPECT_EQ(reg.all().size(), 17u);
  // Every scenario is fully self-describing: summary, paper anchor, and a
  // doc string on every parameter.
  for (const Scenario* s : reg.all()) {
    EXPECT_FALSE(s->summary.empty()) << s->name;
    EXPECT_FALSE(s->paper.empty()) << s->name;
    for (const ParamSpec& p : s->params) {
      EXPECT_FALSE(p.doc.empty()) << s->name << "." << p.key;
      EXPECT_FALSE(p.default_value.empty()) << s->name << "." << p.key;
    }
  }
}

TEST(ScenarioRegistry, LookupMissThrowsListingNames) {
  try {
    (void)ScenarioRegistry::global().get("nope");
    FAIL() << "expected InvalidArgument";
  } catch (const InvalidArgument& e) {
    const std::string what = e.what();
    EXPECT_NE(what.find("nope"), std::string::npos);
    EXPECT_NE(what.find("fig5"), std::string::npos);
    EXPECT_NE(what.find("ablation_topology"), std::string::npos);
  }
}

TEST(ScenarioRegistry, RejectsDuplicateAndMalformedRegistrations) {
  ScenarioRegistry reg;
  Scenario s;
  s.name = "dup";
  s.make = [](const Config&) { return Table("t", {"c"}); };
  reg.add(s);
  EXPECT_TRUE(reg.contains("dup"));
  EXPECT_THROW(reg.add(s), InvalidArgument);

  Scenario unnamed;
  unnamed.make = [](const Config&) { return Table("t", {"c"}); };
  EXPECT_THROW(reg.add(unnamed), InvalidArgument);

  Scenario no_generator;
  no_generator.name = "hollow";
  EXPECT_THROW(reg.add(no_generator), InvalidArgument);
  EXPECT_FALSE(reg.contains("hollow"));
}

TEST(RunScenario, UnknownParameterListsValidKeys) {
  try {
    (void)run_scenario("fig5", Config::from_string("maxnodez=8"));
    FAIL() << "expected InvalidArgument";
  } catch (const InvalidArgument& e) {
    const std::string what = e.what();
    EXPECT_NE(what.find("maxnodez"), std::string::npos);
    EXPECT_NE(what.find("valid keys"), std::string::npos);
    EXPECT_NE(what.find("maxnodes"), std::string::npos);
    EXPECT_NE(what.find("threads"), std::string::npos);
  }
}

TEST(RunScenario, TypedParseErrorIsInvalidArgumentListingValidKeys) {
  // int, double, bool, and list parameters all fail the same way.
  for (const char* bad :
       {"ops=many", "horizon=tall", "contention=maybe", "latencies=a,b"}) {
    try {
      (void)run_scenario("fig11", Config::from_string(bad));
      FAIL() << "expected InvalidArgument for " << bad;
    } catch (const InvalidArgument& e) {
      const std::string what = e.what();
      EXPECT_NE(what.find("valid keys"), std::string::npos) << bad;
      EXPECT_NE(what.find("nodes"), std::string::npos) << bad;
    } catch (const std::exception& e) {
      FAIL() << "wrong exception type for " << bad << ": " << e.what();
    }
  }
}

TEST(RunScenario, ExtraAllowedKeysAreTolerated) {
  const Config cfg = Config::from_string("format=csv");
  EXPECT_THROW((void)run_scenario("table1", cfg), InvalidArgument);
  const Table t = run_scenario("table1", cfg, {"format"});
  EXPECT_EQ(t.rows(), 13u);
}

TEST(RunScenario, Fig5MatchesDirectGeneratorBitwiseAtAnySweepThreads) {
  // The same reduced grid, once through the registry (as pimsim run
  // does) and once through make_fig5 directly.
  HostFigureConfig direct = HostFigureConfig::defaults_fig5();
  direct.node_counts = pow2_range(8);
  direct.base.workload.total_ops = 200'000;
  direct.base.batch_ops = 10'000;
  direct.base.seed = 1;
  direct.sweep_threads = 1;
  const std::string expected = csv_of(make_fig5(direct));

  for (const char* threads : {"1", "2", "5"}) {
    const Config cfg = Config::from_string(
        std::string("maxnodes=8 ops=200000 batch=10000 threads=") + threads);
    EXPECT_EQ(csv_of(run_scenario("fig5", cfg)), expected)
        << "sweep_threads=" << threads;
  }
}

TEST(RunScenario, Fig7ListAndScalarDefaultsMatchBenchDefaults) {
  // fig7 has no RNG and runs instantly: spot-check the registry path end
  // to end against make_fig7 with the bench wrapper's exact axis logic.
  const Table via_registry =
      run_scenario("fig7", Config::from_string("maxnodes=16"));
  arch::SystemParams params = arch::SystemParams::table1();
  std::vector<double> nodes;
  for (double n = 1.0; n <= 16.0; n *= 1.25) nodes.push_back(n);
  nodes.push_back(params.nb());
  std::sort(nodes.begin(), nodes.end());
  const Table direct = make_fig7(params, nodes, fraction_range(10));
  EXPECT_EQ(csv_of(via_registry), csv_of(direct));
}

TEST(TableFingerprint, DistinguishesTablesAndIsStable) {
  Table a("t", {"x"});
  a.add_row({1.0});
  Table b("t", {"x"});
  b.add_row({2.0});
  EXPECT_NE(table_fingerprint(a), table_fingerprint(b));
  EXPECT_EQ(table_fingerprint(a), table_fingerprint(a));
  EXPECT_NE(table_fingerprint(a), 0u);
}

}  // namespace
}  // namespace pimsim::core
