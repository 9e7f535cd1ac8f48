// Tests for the observability layer: metrics registry, Chrome trace
// exporter, bounded Tracer buffer, and the kernel self-profiler.
#include <gtest/gtest.h>

#include <algorithm>
#include <cstdlib>
#include <optional>
#include <sstream>
#include <string>
#include <thread>
#include <vector>

#include "closure_arena.hpp"
#include "common/config.hpp"
#include "common/error.hpp"
#include "core/scenario.hpp"
#include "des/mailbox.hpp"
#include "des/process.hpp"
#include "des/resource.hpp"
#include "des/simulation.hpp"
#include "des/trace.hpp"
#include "obs/chrome_trace.hpp"
#include "obs/metrics.hpp"
#include "obs/profiler.hpp"
#include "obs/session.hpp"

namespace pimsim::obs {
namespace {

// --- JSON well-formedness ------------------------------------------------

/// Minimal structural validator: balanced {}/[] outside strings, escape
/// handling, and nothing but whitespace after the document closes.  Not a
/// grammar check (CI additionally runs python3 -m json.tool), but enough
/// to catch truncation, stray commas leaking braces, and unescaped quotes.
bool json_balanced(const std::string& text) {
  int depth = 0;
  bool in_string = false;
  bool closed = false;
  for (std::size_t i = 0; i < text.size(); ++i) {
    const char c = text[i];
    if (in_string) {
      if (c == '\\') {
        ++i;
      } else if (c == '"') {
        in_string = false;
      }
      continue;
    }
    if (closed && c != ' ' && c != '\n' && c != '\t') return false;
    switch (c) {
      case '"': in_string = true; break;
      case '{':
      case '[': ++depth; break;
      case '}':
      case ']':
        if (--depth < 0) return false;
        if (depth == 0) closed = true;
        break;
      default: break;
    }
  }
  return depth == 0 && !in_string && closed;
}

// --- Tracer buffer -------------------------------------------------------

TEST(Tracer, BoundedBufferKeepsFirstAndCountsDrops) {
  des::Tracer tracer(nullptr, /*capacity=*/4);
  for (int i = 0; i < 10; ++i) {
    tracer.record({static_cast<double>(i), static_cast<std::uint64_t>(i), 0, 0,
                   des::TraceKind::kInstant});
  }
  ASSERT_EQ(tracer.records().size(), 4u);
  EXPECT_EQ(tracer.dropped(), 6u);
  // Keep-first: the records that survive are the earliest ones, so async
  // span begins are preserved under saturation.
  EXPECT_EQ(tracer.records()[0].a, 0u);
  EXPECT_EQ(tracer.records()[3].a, 3u);
}

TEST(Tracer, InternIsIdempotentAndLabelZeroIsEmpty) {
  des::Tracer tracer;
  EXPECT_EQ(tracer.label(0), "");
  const des::LabelId a = tracer.intern("net.link0");
  const des::LabelId b = tracer.intern("net.link1");
  EXPECT_NE(a, b);
  EXPECT_EQ(tracer.intern("net.link0"), a);
  EXPECT_EQ(tracer.label(a), "net.link0");
}

TEST(Tracer, KindMaskFiltersRecords) {
  des::Tracer tracer;
  tracer.set_kind_mask(des::Tracer::kDefaultKinds);
  tracer.record({0.0, 1, 0, 0, des::TraceKind::kEventScheduled});  // masked
  tracer.record({0.0, 2, 0, 0, des::TraceKind::kCounter});
  ASSERT_EQ(tracer.records().size(), 1u);
  EXPECT_EQ(tracer.records()[0].kind, des::TraceKind::kCounter);
  EXPECT_EQ(tracer.dropped(), 0u);  // masked records are not "drops"
}

// --- metrics primitives --------------------------------------------------

TEST(Metrics, CounterGaugeSummaryBasics) {
  MetricsRegistry reg;
  reg.counter("c").add(3);
  reg.counter("c").add(4);
  EXPECT_EQ(reg.counter("c").value(), 7u);

  Gauge& g = reg.gauge("g");
  g.set(0.0, 2.0);
  g.add(10.0, 3.0);  // value 2 held over [0,10)
  g.set(20.0, 0.0);  // value 5 held over [10,20)
  EXPECT_DOUBLE_EQ(g.current(), 0.0);
  EXPECT_DOUBLE_EQ(g.max(), 5.0);
  EXPECT_DOUBLE_EQ(g.mean(), (2.0 * 10.0 + 5.0 * 10.0) / 20.0);

  Summary& s = reg.summary("s");
  for (int i = 1; i <= 100; ++i) s.add(static_cast<double>(i));
  EXPECT_EQ(s.count(), 100u);
  EXPECT_DOUBLE_EQ(s.stats().min(), 1.0);
  EXPECT_DOUBLE_EQ(s.stats().max(), 100.0);
  EXPECT_NEAR(s.stats().mean(), 50.5, 1e-9);
  // The power-of-two sketch is coarse; quantiles land on bin edges but
  // must be monotone and clamped to the observed range.
  const double p50 = s.quantile(0.5);
  const double p99 = s.quantile(0.99);
  EXPECT_GE(p50, s.stats().min());
  EXPECT_LE(p99, s.stats().max());
  EXPECT_LE(p50, p99);
}

TEST(Metrics, KindClashThrows) {
  MetricsRegistry reg;
  (void)reg.counter("x");
  EXPECT_THROW((void)reg.gauge("x"), LogicError);
  EXPECT_THROW((void)reg.summary("x"), LogicError);
}

TEST(Metrics, FingerprintIsRegistrationOrderIndependent) {
  MetricsRegistry a;
  a.counter("one").add(1);
  a.summary("two").add(2.0);
  MetricsRegistry b;
  b.summary("two").add(2.0);
  b.counter("one").add(1);
  EXPECT_EQ(a.fingerprint(), b.fingerprint());
}

TEST(Metrics, JsonAndCsvAreWellFormed) {
  MetricsRegistry reg;
  reg.counter("events").add(42);
  reg.gauge("depth").set(0.0, 1.0);
  reg.summary("latency").add(3.5);
  std::ostringstream json;
  reg.write_json(json, /*simulations=*/1);
  EXPECT_TRUE(json_balanced(json.str()));
  std::ostringstream csv;
  reg.write_csv(csv);
  // Header plus one line per metric.
  const std::string csv_text = csv.str();
  EXPECT_EQ(std::count(csv_text.begin(), csv_text.end(), '\n'), 4);
}

// --- hub determinism across absorption order -----------------------------

TEST(MetricsHub, AggregateIsAbsorptionOrderIndependent) {
  // Three per-simulation registries with overlapping names, absorbed
  // serially vs from three threads: the aggregate must serialize
  // identically (the hub folds in content order, not arrival order).
  const auto make = [](int i) {
    MetricsRegistry r;
    r.counter("runs").add(1);
    r.summary("latency").add(10.0 * (i + 1));
    r.gauge("depth").set(0.0, static_cast<double>(i));
    r.gauge("depth").set(5.0, 0.0);
    return r;
  };

  MetricsHub& hub = MetricsHub::global();
  hub.reset();
  for (int i = 0; i < 3; ++i) hub.absorb(make(i));
  std::ostringstream serial;
  hub.write_json(serial);

  hub.reset();
  std::vector<std::thread> threads;
  threads.reserve(3);
  for (int i = 2; i >= 0; --i) {
    threads.emplace_back([&hub, &make, i] { hub.absorb(make(i)); });
  }
  for (auto& t : threads) t.join();
  std::ostringstream parallel;
  hub.write_json(parallel);

  EXPECT_EQ(serial.str(), parallel.str());
  EXPECT_EQ(hub.simulations(), 3u);
  hub.reset();
}

TEST(MetricsHub, SnapshotBytesRoundTripExactly) {
  // The cross-process seam of the sharded sweep fabric: a snapshot
  // exported by snapshot_bytes() and reinstated with absorb_bytes() (in
  // another process, via a chunk sidecar) must fold bit-identically to
  // absorbing the original registry.
  const auto make = [](int i) {
    MetricsRegistry r;
    r.counter("runs").add(static_cast<std::uint64_t>(i) + 1);
    r.summary("latency").add(0.1 * (i + 1));  // non-representable doubles
    r.summary("latency").add(1e17);           // exercises m2 exactness
    r.gauge("depth").set(0.0, 0.3 * i);
    r.gauge("depth").set(7.7, 0.0);
    return r;
  };

  MetricsHub& hub = MetricsHub::global();
  hub.reset();
  for (int i = 0; i < 3; ++i) hub.absorb(make(i));
  std::ostringstream direct;
  hub.write_json(direct);
  const std::vector<std::string> shipped = hub.snapshot_bytes();
  ASSERT_EQ(shipped.size(), 3u);

  hub.reset();
  for (const std::string& bytes : shipped) {
    // Round trip through deserialize as well as absorb_bytes: the
    // restored registry must fingerprint identically to its source.
    (void)MetricsRegistry::deserialize(bytes);
    hub.absorb_bytes(bytes);
  }
  std::ostringstream refolded;
  hub.write_json(refolded);
  EXPECT_EQ(direct.str(), refolded.str());
  EXPECT_EQ(hub.simulations(), 3u);
  hub.reset();

  EXPECT_THROW(hub.absorb_bytes("corrupt"), ConfigError);
}

// --- Chrome trace exporter -----------------------------------------------

/// Pinned scripted workload exercising mailboxes, resources, async spans,
/// and counter tracks through a traced Simulation.
des::Tracer scripted_trace() {
  des::Simulation sim;
  sim.set_trace(true);
  const des::LabelId span = sim.trace_label("request");
  const des::LabelId depth = sim.trace_label("queue.depth");

  des::Mailbox<int> box(sim, "box");
  des::Resource port(sim, 1, "port");

  sim.spawn([](des::Simulation& s, des::Mailbox<int>& b, des::Resource& p,
               des::LabelId sp, des::LabelId dp) -> des::Process {
    for (int i = 0; i < 3; ++i) {
      if (s.tracing_enabled()) {
        s.trace(des::TraceKind::kAsyncBegin, sp, static_cast<std::uint64_t>(i));
      }
      co_await p.acquire();
      co_await des::delay(s, 2.0);
      p.release();
      if (s.tracing_enabled()) {
        s.trace(des::TraceKind::kCounter, dp, static_cast<std::uint64_t>(i));
      }
      b.send(i);
      if (s.tracing_enabled()) {
        s.trace(des::TraceKind::kAsyncEnd, sp, static_cast<std::uint64_t>(i));
      }
    }
  }(sim, box, port, span, depth));
  sim.spawn([](des::Mailbox<int>& b) -> des::Process {
    for (int i = 0; i < 3; ++i) (void)co_await b.receive();
  }(box));
  sim.run();

  // Detach the owned tracer's state before the Simulation dies.
  des::Tracer copy;
  ensure(sim.tracer() != nullptr, "scripted_trace: tracing is on");
  for (const std::string& l : sim.tracer()->labels()) {
    (void)copy.intern(l);
  }
  for (const des::TraceRecord& r : sim.tracer()->records()) copy.record(r);
  return copy;
}

TEST(ChromeTrace, ExportIsWellFormedAndDeterministic) {
  const des::Tracer first = scripted_trace();
  const des::Tracer second = scripted_trace();
  EXPECT_FALSE(first.records().empty());

  const auto blob = [](const des::Tracer& t) {
    return TraceBlob{t.labels(), t.records(), t.dropped()};
  };
  std::ostringstream a;
  write_chrome_trace(a, {blob(first), blob(second)});
  std::ostringstream b;
  write_chrome_trace(b, {blob(second), blob(first)});

  EXPECT_TRUE(json_balanced(a.str()));
  // Bit-identical across reruns AND across blob arrival order (the
  // exporter sorts by content before assigning pids).
  EXPECT_EQ(a.str(), b.str());
  // The async span and counter tracks survived into the document.
  EXPECT_NE(a.str().find("\"ph\": \"b\""), std::string::npos);
  EXPECT_NE(a.str().find("\"ph\": \"C\""), std::string::npos);
  EXPECT_NE(a.str().find("pimsim-trace-v1"), std::string::npos);
}

TEST(ChromeTrace, DropCounterReachesDocumentMetadata) {
  des::Tracer tracer(nullptr, /*capacity=*/2);
  for (int i = 0; i < 5; ++i) {
    tracer.record({0.0, 0, 0, 0, des::TraceKind::kInstant});
  }
  std::ostringstream os;
  write_chrome_trace(os, {TraceBlob{tracer.labels(), tracer.records(),
                                    tracer.dropped()}});
  EXPECT_TRUE(json_balanced(os.str()));
  EXPECT_NE(os.str().find("\"dropped\": 3"), std::string::npos);
}

// --- run options and sessions --------------------------------------------

/// Sets (or, with nullopt, unsets) one environment variable for a scope,
/// restoring the previous value on exit.
class ScopedEnv {
 public:
  ScopedEnv(const char* name, std::optional<std::string> value) : name_(name) {
    if (const char* old = std::getenv(name)) old_ = old;
    put(value);
  }
  ~ScopedEnv() { put(old_); }
  ScopedEnv(const ScopedEnv&) = delete;
  ScopedEnv& operator=(const ScopedEnv&) = delete;

 private:
  void put(const std::optional<std::string>& value) {
    if (value) {
      ::setenv(name_, value->c_str(), 1);
    } else {
      ::unsetenv(name_);
    }
  }
  const char* name_;
  std::optional<std::string> old_;
};

TEST(RunOptions, FromEnvReadsEveryPimsimSwitch) {
  const ScopedEnv audit("PIMSIM_AUDIT", "1");
  const ScopedEnv trace("PIMSIM_TRACE", "full");
  const ScopedEnv cap("PIMSIM_TRACE_CAP", std::nullopt);
  const ScopedEnv metrics("PIMSIM_METRICS", "0");  // "0" means off
  const ScopedEnv profile("PIMSIM_PROFILE", "");   // so does empty
  const RunOptions o = RunOptions::from_env();
  EXPECT_TRUE(o.audit);
  EXPECT_TRUE(o.trace);
  EXPECT_TRUE(o.trace_full);
  EXPECT_EQ(o.trace_cap, des::Tracer::kDefaultCapacity);
  EXPECT_FALSE(o.metrics);
  EXPECT_FALSE(o.profile);
}

TEST(RunOptions, TraceCapRejectsJunkNamingVariableAndValue) {
  const ScopedEnv trace("PIMSIM_TRACE", "1");
  for (const char* bad : {"abc", "-1", "18446744073709551616", "12x", " 7"}) {
    const ScopedEnv cap("PIMSIM_TRACE_CAP", bad);
    try {
      (void)RunOptions::from_env();
      ADD_FAILURE() << "PIMSIM_TRACE_CAP=" << bad << " was accepted";
    } catch (const ConfigError& e) {
      const std::string what = e.what();
      EXPECT_NE(what.find("PIMSIM_TRACE_CAP"), std::string::npos) << what;
      EXPECT_NE(what.find(std::string("'") + bad + "'"), std::string::npos) << what;
    }
    // An embedded caller's simulation fails loudly too, instead of
    // silently dropping every record (or never bounding the buffer).
    EXPECT_THROW(des::Simulation{}, ConfigError) << bad;
  }
}

TEST(RunOptions, TraceCapAcceptsARecordCount) {
  const ScopedEnv trace("PIMSIM_TRACE", "1");
  const ScopedEnv cap("PIMSIM_TRACE_CAP", "4096");
  EXPECT_EQ(RunOptions::from_env().trace_cap, 4096u);
  const des::Simulation sim;
  ASSERT_NE(sim.tracer(), nullptr);
  EXPECT_EQ(sim.tracer()->capacity(), 4096u);
}

TEST(Session, WinsOverEnvWhileActiveThenEnvAppliesAgain) {
  const ScopedEnv metrics("PIMSIM_METRICS", "1");
  const ScopedEnv profile("PIMSIM_PROFILE", std::nullopt);
  EXPECT_TRUE(des::Simulation{}.metrics_enabled());
  {
    const Session outer({.profile = true});
    const des::Simulation in_outer;
    EXPECT_FALSE(in_outer.metrics_enabled());
    EXPECT_TRUE(in_outer.profile_enabled());
    {
      const Session inner({.audit = true});
      const des::Simulation in_inner;
      EXPECT_TRUE(in_inner.audit_enabled());
      EXPECT_FALSE(in_inner.profile_enabled());
      EXPECT_FALSE(in_inner.metrics_enabled());
    }
    EXPECT_TRUE(des::Simulation{}.profile_enabled());  // outer is back
  }
  const des::Simulation after;
  EXPECT_TRUE(after.metrics_enabled());
  EXPECT_FALSE(after.profile_enabled());
}

TEST(Session, ReachesWorkerThreadsAndReportsTheirHubs) {
  const ScopedEnv profile("PIMSIM_PROFILE", std::nullopt);
  const Session session({.audit = true, .profile = true});
  EXPECT_EQ(ProfileHub::global().simulations(), 0u);  // reset on entry
  std::thread worker([] {
    des::Simulation sim;
    test::no_op_at(sim, 1.0);
    sim.run();
  });
  worker.join();
  std::ostringstream os;
  session.report(os);
  EXPECT_EQ(os.str().rfind("# audit: 1 simulation(s), 1 event(s), chain ", 0), 0u)
      << os.str();
  EXPECT_NE(os.str().find("# kernel profile: 1 simulation(s), 1 dispatches"),
            std::string::npos)
      << os.str();
}

// --- kernel profiler -----------------------------------------------------

TEST(Profiler, KindCountsAreExact) {
  des::Simulation sim;
  sim.set_profile(true);
  ASSERT_TRUE(sim.profile_enabled());

  // 11 static calls...
  for (int i = 0; i < 11; ++i) {
    test::no_op_at(sim, 1.0 + i);
  }
  // ...and a process whose start and two delays dispatch as wakes.
  sim.spawn([](des::Simulation& s) -> des::Process {
    co_await des::delay(s, 5.0);
    co_await des::delay(s, 5.0);
  }(sim));
  sim.run();

  const KernelProfiler* prof = sim.profiler();
  ASSERT_NE(prof, nullptr);
  const auto& stats = prof->stats();
  EXPECT_EQ(stats[des::EventAction::kCallKindId].dispatches, 11u);
  EXPECT_EQ(stats[des::EventAction::kWakeKindId].dispatches, 3u);
  for (const std::size_t reserved : {0, 2, 3}) {
    EXPECT_EQ(stats[reserved].dispatches, 0u) << KernelProfiler::kind_name(reserved);
  }
  EXPECT_EQ(prof->total_dispatches(), sim.events_dispatched());
}

TEST(Profiler, FigureRunsDispatchOnlyWakesAndStaticCalls) {
  // Every event the models schedule is a process wake or a static call:
  // kind ids 0, 2 and 3 are reserved and never dispatched.
  const Session session({.profile = true});
  (void)core::run_scenario("fig12", Config::from_string("sizes=1,16 horizon=2000"));
  (void)core::run_scenario(
      "fig11", Config::from_string("nodes=16 network=mesh2d contention=1 horizon=4000 "
                                   "latencies=10,500 remotes=0.5"));
  const KernelProfiler prof = ProfileHub::global().snapshot();
  EXPECT_GT(prof.stats()[des::EventAction::kWakeKindId].dispatches, 0u);
  EXPECT_GT(prof.stats()[des::EventAction::kCallKindId].dispatches, 0u);
  for (const std::size_t reserved : {0, 2, 3}) {
    EXPECT_EQ(prof.stats()[reserved].dispatches, 0u)
        << KernelProfiler::kind_name(reserved);
  }
  EXPECT_EQ(prof.total_dispatches(),
            prof.stats()[des::EventAction::kWakeKindId].dispatches +
                prof.stats()[des::EventAction::kCallKindId].dispatches);
}

TEST(Profiler, MergeAddsCountsAndTableRenders) {
  KernelProfiler a;
  a.count(2);
  a.count(2);
  KernelProfiler b;
  b.count(4);
  a.merge(b);
  EXPECT_EQ(a.stats()[2].dispatches, 2u);
  EXPECT_EQ(a.stats()[4].dispatches, 1u);
  EXPECT_EQ(a.total_dispatches(), 3u);
  EXPECT_STREQ(KernelProfiler::kind_name(2), "small");
}

TEST(Profiler, WriteTableLeavesStreamFormattingUnchanged) {
  // `pimsim run ... profile=1` prints the table and then the elapsed time
  // on the same stream; the table's fixed/precision settings must not
  // leak into that line.
  ProfileHub& hub = ProfileHub::global();
  hub.reset();
  KernelProfiler prof;
  prof.count(1);
  prof.count(2);
  hub.absorb(prof);
  std::ostringstream os;
  os.precision(9);
  const std::ios_base::fmtflags flags = os.flags();
  hub.write_table(os);
  hub.reset();
  EXPECT_NE(os.str().find("resume"), std::string::npos);
  EXPECT_EQ(os.flags(), flags);
  EXPECT_EQ(os.precision(), 9);
  os.str("");
  os << 0.000663749;
  EXPECT_EQ(os.str(), "0.000663749");
}

}  // namespace
}  // namespace pimsim::obs
