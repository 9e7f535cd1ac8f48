#include "core/cli.hpp"

#include <algorithm>
#include <chrono>
#include <cmath>
#include <cstdlib>
#include <fstream>
#include <iomanip>
#include <iostream>
#include <limits>
#include <memory>
#include <sstream>
#include <string>
#include <vector>

#include "common/config.hpp"
#include "common/error.hpp"
#include "common/table.hpp"
#include "core/chunk.hpp"
#include "core/experiment.hpp"
#include "core/scenario.hpp"
#include "core/sweep.hpp"
#include "des/audit.hpp"
#include "obs/chrome_trace.hpp"
#include "obs/metrics.hpp"
#include "obs/profiler.hpp"

namespace pimsim::core {
namespace {

constexpr const char* kUsage = R"(pimsim — unified scenario driver for the conf_sc_UpchurchSB04 reproduction

usage:
  pimsim list [names|json]
      Inventory of every registered scenario.  Default: human-readable
      table with per-parameter docs.  `names`: one name per line (stable,
      for scripts/CI).  `json`: full machine-readable inventory.

  pimsim run <scenario> [key=value ...] [format=text|csv|json] [out=PATH]
              [audit=1] [trace=PATH] [metrics=PATH] [profile=1]
      Runs one scenario.  Unknown keys and mistyped values fail loudly,
      listing the scenario's valid keys.  format defaults to text
      (csv=1 is accepted as an alias for format=csv); out defaults to
      stdout.  audit=1 turns on the event kernel's determinism audit
      (event-chain hashing + invariant sweeps; see docs/DETERMINISM.md)
      and reports the chain summary on stderr.
      Scenarios with a `reps` knob run reps= seed-streamed replications
      (one SplitMix64-derived seed per rep; see docs/REPLICATION.md)
      and emit a `<col> ±` 95% half-width companion per column; reps=1
      (the default) is bitwise-identical to a single run.
      Observability (docs/OBSERVABILITY.md): trace=PATH exports a
      Chrome-trace-event JSON (Perfetto / chrome://tracing loadable;
      PIMSIM_TRACE=full in the environment widens the kind mask to the
      per-event kernel records).  metrics=PATH dumps the metrics
      registry (.csv extension selects CSV, anything else JSON).
      profile=1 prints the per-EventAction-kind dispatch profile on
      stderr.

  pimsim sweep <scenario> config=FILE [key=value ...] [jobs=N]
                [format=text|csv|json] [out=PATH] [metrics=PATH]
                [profile=1] [shard=i/N]
      Runs a declarative parameter grid.  FILE holds key=value lines
      ('#' comments); a comma-separated value for a *scalar* parameter
      declares a grid axis (list-typed parameters pass through
      verbatim).  Command-line key=value pairs override the file.
      Points fan out across a SweepRunner pool of `jobs` threads
      (0 = all cores); each point's own `threads` knob is pinned to 1
      unless set explicitly.  Output is one table per point, preceded
      by `# <scenario> <assignment>`.  metrics=PATH aggregates the
      metrics registries of every point into one dump (deterministic
      regardless of jobs=N); profile=1 prints the pooled dispatch
      profile on stderr.
      shard=i/N runs only shard i of a deterministic N-way partition
      of the grid (heaviest points spread first) and requires out=DIR:
      the shard writes a self-describing chunk (rendered blocks +
      "pimsim-chunk-v1" JSON sidecar with per-point fingerprints and
      metrics snapshots) plus an idempotent manifest.json into DIR.
      Rerunning a shard whose valid chunk already exists is a no-op
      skip, so a killed sweep resumes from its surviving chunks.  When
      any point requests reps > 1 the shard plan splits (point, rep)
      units instead of points — `reps=32 shard=i/N` spreads the 32
      replications across the N shards — and chunks carry exact
      serialized per-rep tables that merge refolds bit-for-bit.  See
      docs/SWEEPS.md, docs/REPLICATION.md, tools/pimsim_sweep_all.sh.

  pimsim merge <DIR> [out=PATH] [metrics=PATH]
      Validates and merges the chunks of a sharded sweep: every chunk
      sidecar must match DIR's manifest (grid fingerprint, planned
      point set, per-point block fingerprints); missing, duplicate,
      corrupted, and divergent chunks are reported, not merged.  Emits
      the merged table byte-identical to the unsharded `pimsim sweep`
      output — for replicated sweeps by refolding the per-rep
      RunningStats from exact serialized cell bits, never re-parsed
      floats — and with metrics=PATH refolds every shard's metrics
      snapshots into the same dump the unsharded run would write.

  pimsim verify <scenario>|all [strict=1] [audit=1]
      Re-checks golden figure outputs on the scenario's reduced verify
      grid: reruns at two sweep thread counts and requires bitwise-
      identical CSV, and prints the output fingerprint.  With strict=1
      a pinned fingerprint mismatch also fails (fingerprints are
      compiler/libm sensitive, so this is opt-in).  Scenarios with a
      `reps` knob get an extra replication-determinism pass: the verify
      grid at reps=2 must fold to identical bytes across thread counts.
      With audit=1 both
      passes also run under the kernel's determinism audit, and the
      aggregated event-chain hashes must match across thread counts —
      a divergence check on the event streams themselves, not just the
      rendered CSV.

  pimsim help [scenario]
      This text, or one scenario's parameter documentation.
)";

void print_param_lines(std::ostream& os, const Scenario& s) {
  for (const ParamSpec& p : s.params) {
    os << "    " << p.key << " (" << to_string(p.kind) << ", default "
       << (p.default_value.empty() ? "-" : p.default_value);
    if (!p.range.empty()) os << ", range " << p.range;
    os << ") — " << p.doc << "\n";
  }
  if (s.params.empty()) os << "    (no parameters)\n";
}

std::string json_escape(const std::string& in) {
  std::string out;
  out.reserve(in.size());
  for (char c : in) {
    switch (c) {
      case '"': out += "\\\""; break;
      case '\\': out += "\\\\"; break;
      case '\n': out += "\\n"; break;
      default: out += c;
    }
  }
  return out;
}

void print_list_json(std::ostream& os) {
  const auto scenarios = ScenarioRegistry::global().all();
  os << "{\n  \"scenarios\": [\n";
  for (std::size_t i = 0; i < scenarios.size(); ++i) {
    const Scenario& s = *scenarios[i];
    os << "    {\"name\": \"" << json_escape(s.name) << "\", \"summary\": \""
       << json_escape(s.summary) << "\", \"paper\": \""
       << json_escape(s.paper) << "\",\n     \"params\": [";
    for (std::size_t j = 0; j < s.params.size(); ++j) {
      const ParamSpec& p = s.params[j];
      os << (j ? ",\n                " : "") << "{\"key\": \""
         << json_escape(p.key) << "\", \"type\": \"" << to_string(p.kind)
         << "\", \"default\": \"" << json_escape(p.default_value)
         << "\", \"range\": \"" << json_escape(p.range) << "\", \"doc\": \""
         << json_escape(p.doc) << "\"}";
    }
    os << "]}" << (i + 1 < scenarios.size() ? "," : "") << "\n";
  }
  os << "  ]\n}\n";
}

void print_table_json(std::ostream& os, const Table& t) {
  // Full round-trip precision: this is the machine-readable format, and
  // the default 6 significant digits would silently round cycle counts.
  const auto old_precision =
      os.precision(std::numeric_limits<double>::max_digits10);
  os << "{\n  \"title\": \"" << json_escape(t.title()) << "\",\n"
     << "  \"columns\": [";
  for (std::size_t c = 0; c < t.columns().size(); ++c) {
    os << (c ? ", " : "") << "\"" << json_escape(t.columns()[c]) << "\"";
  }
  os << "],\n  \"rows\": [\n";
  for (std::size_t r = 0; r < t.rows(); ++r) {
    os << "    [";
    const auto& row = t.row(r);
    for (std::size_t c = 0; c < row.size(); ++c) {
      if (c) os << ", ";
      if (const auto* s = std::get_if<std::string>(&row[c])) {
        os << "\"" << json_escape(*s) << "\"";
      } else if (const auto* i = std::get_if<std::int64_t>(&row[c])) {
        os << *i;
      } else {
        const double v = std::get<double>(row[c]);
        if (std::isfinite(v)) {
          os << v;
        } else {
          os << "null";  // JSON has no inf/nan
        }
      }
    }
    os << "]" << (r + 1 < t.rows() ? "," : "") << "\n";
  }
  os << "  ]\n}\n";
  os.precision(old_precision);
}

/// Renders `table` as format ("text" | "csv" | "json") to `os`, matching
/// bench::emit byte-for-byte for text/CSV (table + one blank line).
void render(std::ostream& os, const Table& table, const std::string& format) {
  if (format == "csv") {
    table.print_csv(os);
    os << "\n";
  } else if (format == "json") {
    print_table_json(os, table);
  } else {
    ensure(format == "text", "render: format not validated by format_of");
    table.print(os);
    os << "\n";
  }
}

/// Opens `out=` if given; otherwise returns nullptr (use stdout).
std::unique_ptr<std::ofstream> open_out(const Config& cfg) {
  const std::string path = cfg.get_string("out", "");
  if (path.empty()) return nullptr;
  auto file = std::make_unique<std::ofstream>(path);
  require(file->good(), "pimsim: cannot open output file '" + path + "'");
  return file;
}

/// Fails fast on an unwritable `out=` path (append mode: an existing
/// file's content is untouched) so a typo'd path is caught before a
/// potentially long generation run, while a failed run still never
/// truncates previous results.
void preflight_out(const Config& cfg) {
  const std::string path = cfg.get_string("out", "");
  if (path.empty()) return;
  std::ofstream probe(path, std::ios::app);
  require(probe.good(), "pimsim: cannot open output file '" + path + "'");
}

std::string format_of(const Config& cfg) {
  // csv=1 is a bench_* compatibility alias, honored only when format=
  // is absent — an explicit format= always wins (and gets validated).
  std::string format;
  if (cfg.has("format")) {
    format = cfg.get_string("format", "text");
    (void)cfg.get_bool("csv", false);  // consume the alias key if present
  } else {
    format = cfg.get_bool("csv", false) ? "csv" : "text";
  }
  // Validate up front, before a potentially long generation run.
  if (format != "text" && format != "csv" && format != "json") {
    throw InvalidArgument("pimsim: unknown format '" + format +
                          "'; valid formats: text, csv, json");
  }
  return format;
}

Config config_from_tokens(const std::vector<std::string>& tokens) {
  std::vector<const char*> argv{"pimsim"};
  for (const auto& t : tokens) argv.push_back(t.c_str());
  return Config::from_args(static_cast<int>(argv.size()), argv.data());
}

int cmd_list(const std::vector<std::string>& args) {
  const std::string mode = args.empty() ? "" : args[0];
  if (mode == "names") {
    for (const auto& name : ScenarioRegistry::global().names()) {
      std::cout << name << "\n";
    }
  } else if (mode == "json") {
    print_list_json(std::cout);
  } else if (mode.empty()) {
    for (const Scenario* s : ScenarioRegistry::global().all()) {
      std::cout << s->name << " — " << s->summary << "  [" << s->paper
                << "]\n";
      print_param_lines(std::cout, *s);
    }
  } else {
    throw InvalidArgument("pimsim list: unknown mode '" + mode +
                          "'; valid modes: names, json");
  }
  return 0;
}

/// Turns on kernel audit mode for every Simulation constructed after
/// this call (the PIMSIM_AUDIT env var is read in the Simulation
/// constructor, which is how the flag reaches simulations buried inside
/// figure generators) and clears the process-wide chain aggregate.
void enable_audit() {
  // NOLINTNEXTLINE(concurrency-mt-unsafe): called before any sweep
  // thread is spawned; only Simulation constructors read it back.
  ::setenv("PIMSIM_AUDIT", "1", 1);
  des::AuditRegistry::global().reset();
}

void report_audit(std::ostream& os) {
  const auto sum = des::AuditRegistry::global().snapshot();
  os << "# audit: " << sum.simulations << " simulation(s), " << sum.events
     << " event(s), chain " << std::hex << sum.combined << std::dec << "\n";
}

/// The observability switches use the same env-var seam as enable_audit:
/// every Simulation constructed after the call reads the flag back, which
/// is how the switch reaches simulations buried inside figure generators.
void enable_trace() {
  // NOLINTNEXTLINE(concurrency-mt-unsafe): called before any sweep
  // thread is spawned; only Simulation constructors read it back.
  // overwrite=0: a PIMSIM_TRACE=full (or custom cap) already in the
  // environment keeps its value.
  ::setenv("PIMSIM_TRACE", "1", 0);
  obs::TraceHub::global().reset();
}

void enable_metrics() {
  // NOLINTNEXTLINE(concurrency-mt-unsafe): same discipline as enable_audit.
  ::setenv("PIMSIM_METRICS", "1", 1);
  obs::MetricsHub::global().reset();
}

void enable_profile() {
  // NOLINTNEXTLINE(concurrency-mt-unsafe): same discipline as enable_audit.
  ::setenv("PIMSIM_PROFILE", "1", 1);
  obs::ProfileHub::global().reset();
}

void write_trace_file(const std::string& path) {
  std::ofstream os(path);
  require(os.good(), "pimsim: cannot open trace file '" + path + "'");
  const auto& hub = obs::TraceHub::global();
  hub.write_json(os);
  std::cerr << "# trace: " << hub.simulations() << " simulation(s), "
            << hub.records() << " record(s), " << hub.dropped()
            << " dropped -> " << path << "\n";
}

void write_metrics_file(const std::string& path) {
  std::ofstream os(path);
  require(os.good(), "pimsim: cannot open metrics file '" + path + "'");
  const auto& hub = obs::MetricsHub::global();
  const bool csv = path.size() >= 4 && path.rfind(".csv") == path.size() - 4;
  if (csv) {
    hub.write_csv(os);
  } else {
    hub.write_json(os);
  }
  std::cerr << "# metrics: " << hub.simulations() << " simulation(s) -> "
            << path << "\n";
}

void report_profile(std::ostream& os) {
  obs::ProfileHub::global().write_table(os);
}

int cmd_run(const std::vector<std::string>& args) {
  require(!args.empty(), "pimsim run: missing scenario name (try 'pimsim list')");
  const Scenario& scenario = ScenarioRegistry::global().get(args[0]);
  const Config cfg = config_from_tokens({args.begin() + 1, args.end()});
  const std::string format = format_of(cfg);
  const bool audit = cfg.get_bool("audit", false);
  const std::string trace_path = cfg.get_string("trace", "");
  const std::string metrics_path = cfg.get_string("metrics", "");
  const bool profile = cfg.get_bool("profile", false);
  preflight_out(cfg);

  if (audit) enable_audit();
  if (!trace_path.empty()) enable_trace();
  if (!metrics_path.empty()) enable_metrics();
  if (profile) enable_profile();
  const auto start = std::chrono::steady_clock::now();
  const Table table = run_scenario(
      scenario, cfg,
      {"csv", "format", "out", "audit", "trace", "metrics", "profile"});
  const double elapsed = std::chrono::duration<double>(
                             std::chrono::steady_clock::now() - start)
                             .count();
  // Opened only after a successful run: a failed run (typo'd key, bad
  // grid) must not truncate an existing results file.
  const auto out = open_out(cfg);
  render(out ? *out : std::cout, table, format);
  if (audit) report_audit(std::cerr);
  if (!trace_path.empty()) write_trace_file(trace_path);
  if (!metrics_path.empty()) write_metrics_file(metrics_path);
  if (profile) report_profile(std::cerr);
  std::ostringstream line;
  line << "# generated in " << std::fixed << std::setprecision(6) << elapsed
       << " s\n";
  std::cerr << line.str();
  return 0;
}

/// One expanded sweep point: the full Config plus its axis assignment.
struct SweepPoint {
  Config cfg;
  std::string assignment;  // "k=v k2=v2" of the swept axes only
};

/// Expands comma-separated values of *scalar* scenario parameters into a
/// cartesian grid (list-typed parameters keep their commas).  Axes nest
/// in `key_order` — declaration order: config file first, then CLI
/// overrides — with the last-declared axis varying fastest.
std::vector<SweepPoint> expand_grid(const Scenario& scenario,
                                    const Config& merged,
                                    const std::vector<std::string>& key_order,
                                    bool pin_inner_threads) {
  struct Axis {
    std::string key;
    std::vector<std::string> values;
  };
  std::vector<Axis> axes;
  Config base;
  for (const std::string& key : key_order) {
    const std::string value = merged.get_string(key, "");
    const auto spec =
        std::find_if(scenario.params.begin(), scenario.params.end(),
                     [&](const ParamSpec& p) { return p.key == key; });
    const bool is_list =
        spec != scenario.params.end() && spec->kind == ParamSpec::Kind::kList;
    if (!is_list && value.find(',') != std::string::npos) {
      Axis axis{key, split_csv(value)};
      require(!axis.values.empty(),
              "pimsim sweep: empty grid for '" + key + "'");
      axes.push_back(std::move(axis));
    } else {
      base.set(key, value);
    }
  }
  const bool has_threads = std::any_of(
      scenario.params.begin(), scenario.params.end(),
      [](const ParamSpec& p) { return p.key == "threads"; });
  if (pin_inner_threads && has_threads && !base.has("threads") &&
      std::none_of(axes.begin(), axes.end(),
                   [](const Axis& a) { return a.key == "threads"; })) {
    base.set("threads", "1");  // outer pool owns the parallelism
  }

  std::vector<SweepPoint> points;
  std::size_t total = 1;
  for (const Axis& a : axes) total *= a.values.size();
  for (std::size_t i = 0; i < total; ++i) {
    SweepPoint point{base, ""};
    std::size_t rest = i;
    // Last-declared axis varies fastest, like nested loops.
    for (std::size_t a = axes.size(); a-- > 0;) {
      const std::string& v = axes[a].values[rest % axes[a].values.size()];
      rest /= axes[a].values.size();
      point.cfg.set(axes[a].key, v);
      point.assignment = axes[a].key + "=" + v +
                         (point.assignment.empty() ? "" : " ") +
                         point.assignment;
    }
    points.push_back(std::move(point));
  }
  return points;
}

/// One sweep point's output block, exactly as the unsharded sweep prints
/// it: "# <scenario> <assignment>\n" + the rendered table.  Sharded
/// chunks store these blocks verbatim, which is what makes the merged
/// file byte-identical to an unsharded run.
std::string render_block(const Scenario& scenario, const SweepPoint& point,
                         const Table& table, const std::string& format) {
  std::ostringstream os;
  os << "# " << scenario.name
     << (point.assignment.empty() ? "" : " " + point.assignment) << "\n";
  render(os, table, format);
  return os.str();
}

/// Grid identity + deterministic shard plan for a sharded sweep.  The
/// fingerprint canonicalizes everything that decides the merged bytes
/// (scenario, format, merged parameters, per-point assignments) but NOT
/// the shard count, so chunks from different N-way partitions of the
/// same grid are recognized as the same sweep by fingerprint even
/// though the manifest pins one N.
GridSpec build_grid(const Scenario& scenario, const Config& merged,
                    const std::vector<std::string>& key_order,
                    const std::vector<SweepPoint>& points,
                    const ShardSpec& shard, const std::string& format) {
  GridSpec grid;
  grid.scenario = scenario.name;
  grid.format = format;
  grid.shards = shard.count;

  std::string canonical = "pimsim-grid-v1\n" + scenario.name + "\n" + format + "\n";
  for (const std::string& key : key_order) {
    canonical += key + "=" + merged.get_string(key, "") + "\n";
  }
  grid.assignments.reserve(points.size());
  std::vector<double> weights;
  weights.reserve(points.size());
  std::vector<std::size_t> reps(points.size(), 1);
  bool replicated = false;
  for (std::size_t i = 0; i < points.size(); ++i) {
    const SweepPoint& point = points[i];
    grid.assignments.push_back(point.assignment);
    canonical += point.assignment + "\n";
    // In a replicated grid the shard plan assigns (point, rep) units, so
    // weigh one replication (reps=1) — the rep axis multiplies units,
    // not per-unit cost.
    const ReplicationSpec rspec = replication_spec(scenario, point.cfg);
    reps[i] = rspec.reps;
    replicated = replicated || rspec.reps > 1;
    Config probe = point.cfg;
    if (rspec.declared) probe.set("reps", "1");
    double w = 1.0;
    if (scenario.cost_hint) {
      try {
        w = scenario.cost_hint(probe);
      } catch (const std::exception&) {
        w = 1.0;  // a hint must never be able to fail a sweep
      }
    }
    weights.push_back(w);
  }
  grid.grid_fingerprint = data_fingerprint(canonical);
  if (replicated) {
    grid.replicated = true;
    grid.point_reps = reps;
    std::vector<double> unit_weights;
    for (std::size_t i = 0; i < points.size(); ++i) {
      for (std::size_t r = 0; r < reps[i]; ++r) {
        grid.unit_point.push_back(i);
        grid.unit_rep.push_back(r);
        unit_weights.push_back(weights[i]);
      }
    }
    grid.unit_shard = plan_shards(unit_weights, shard.count);
    // Per-point shard_of (the manifest's informational field) is where
    // the point's first replication landed.
    grid.shard_of.assign(points.size(), 0);
    for (std::size_t u = 0; u < grid.unit_point.size(); ++u) {
      if (grid.unit_rep[u] == 0) {
        grid.shard_of[grid.unit_point[u]] = grid.unit_shard[u];
      }
    }
  } else {
    grid.shard_of = plan_shards(weights, shard.count);
  }
  return grid;
}

/// `pimsim sweep ... shard=i/N out=DIR`: computes shard i's points and
/// writes the chunk, or skips when a valid chunk already exists (resume).
int run_shard(const Scenario& scenario, const Config& cli,
              const Config& merged, const std::vector<std::string>& key_order,
              const std::vector<SweepPoint>& points, const ShardSpec& shard,
              std::size_t jobs, const std::string& format,
              const std::string& metrics_path, bool profile) {
  const std::string dir = cli.get_string("out", "");
  require(!dir.empty(),
          "pimsim sweep: shard=i/N requires out=DIR (the chunk directory "
          "shared by every shard of the sweep)");
  const GridSpec grid = build_grid(scenario, merged, key_order, points, shard, format);
  write_or_check_manifest(dir, grid);

  if (chunk_complete(dir, grid, shard.index)) {
    std::cerr << "# shard " << shard.index << "/" << shard.count
              << ": valid chunk already in '" << dir
              << "', skipping (delete its files to recompute)\n";
    return 0;
  }

  // In a replicated grid the work list is (point, rep) units and each
  // unit's chunk payload is the exact serialization of its single-rep
  // table ("pimsim-rep-v1"); merge refolds them bit-for-bit.  A plain
  // grid keeps the rendered-block payloads.
  std::vector<std::size_t> mine;
  if (grid.replicated) {
    for (std::size_t u = 0; u < grid.unit_point.size(); ++u) {
      if (grid.unit_shard[u] == shard.index) mine.push_back(u);
    }
  } else {
    for (std::size_t i = 0; i < points.size(); ++i) {
      if (grid.shard_of[i] == shard.index) mine.push_back(i);
    }
  }

  // Metrics are always collected in shard mode: the sidecar carries the
  // per-simulation snapshots so `pimsim merge` can refold them exactly
  // as the unsharded run would have.
  enable_metrics();
  if (profile) enable_profile();
  const auto start = std::chrono::steady_clock::now();
  std::vector<std::unique_ptr<Table>> tables(mine.size());
  SweepRunner runner(jobs);
  runner.for_each(mine.size(), [&](std::size_t i) {
    if (grid.replicated) {
      const std::size_t point = grid.unit_point[mine[i]];
      const std::size_t rep = grid.unit_rep[mine[i]];
      // Single-rep points run the reps=1 bypass (raw seed), exactly as
      // the unsharded sweep does; multi-rep points run one derived-seed
      // replication per unit.
      tables[i] = std::make_unique<Table>(
          grid.point_reps[point] == 1
              ? run_scenario(scenario, points[point].cfg,
                             {"csv", "format", "out"})
              : run_replication(scenario, points[point].cfg, rep,
                                {"csv", "format", "out"}));
    } else {
      tables[i] = std::make_unique<Table>(run_scenario(
          scenario, points[mine[i]].cfg, {"csv", "format", "out"}));
    }
  });
  const double elapsed = std::chrono::duration<double>(
                             std::chrono::steady_clock::now() - start)
                             .count();

  std::vector<ChunkPoint> chunk_points;
  chunk_points.reserve(mine.size());
  for (std::size_t i = 0; i < mine.size(); ++i) {
    ChunkPoint p;
    if (grid.replicated) {
      p.point = grid.unit_point[mine[i]];
      p.rep = grid.unit_rep[mine[i]];
      p.block = serialize_table(*tables[i]);
    } else {
      p.point = mine[i];
      p.block = render_block(scenario, points[p.point], *tables[i], format);
    }
    p.assignment = points[p.point].assignment;
    p.fingerprint = data_fingerprint(p.block);
    chunk_points.push_back(std::move(p));
  }
  write_chunk(dir, grid, shard.index, chunk_points,
              obs::MetricsHub::global().snapshot_bytes(), elapsed);
  if (!metrics_path.empty()) write_metrics_file(metrics_path);
  if (profile) report_profile(std::cerr);
  std::cerr << "# shard " << shard.index << "/" << shard.count << ": swept "
            << mine.size() << " of "
            << (grid.replicated ? grid.unit_point.size() : points.size())
            << " " << (grid.replicated ? "unit(s)" : "point(s)") << " on "
            << runner.threads() << " thread(s) in " << elapsed << " s -> "
            << dir << "/" << chunk_basename(shard.index, shard.count)
            << ".{csv,json}\n";
  return 0;
}

int cmd_sweep(const std::vector<std::string>& args) {
  require(!args.empty(), "pimsim sweep: missing scenario name");
  const Scenario& scenario = ScenarioRegistry::global().get(args[0]);
  const Config cli = config_from_tokens({args.begin() + 1, args.end()});

  const std::string config_path = cli.get_string("config", "");
  require(!config_path.empty(),
          "pimsim sweep: missing config=FILE (declarative parameter grid)");
  std::ifstream in(config_path);
  require(in.good(),
          "pimsim sweep: cannot read config file '" + config_path + "'");
  std::string text, line;
  while (std::getline(in, line)) {
    const auto hash = line.find('#');
    if (hash != std::string::npos) line.erase(hash);
    text += line + " ";
  }
  Config merged = Config::from_string(text);
  // Driver keys in the file would be silently shadowed by the CLI's
  // (format) or mistaken for scenario parameters (jobs) — reject loudly.
  for (const char* driver : {"config", "jobs", "format", "out", "csv",
                             "metrics", "profile", "shard"}) {
    require(!merged.has(driver),
            std::string("pimsim sweep: driver key '") + driver +
                "' belongs on the command line, not in config file '" +
                config_path + "'");
  }
  // Axis nesting follows declaration order: file keys first, in file
  // order, then command-line keys (which also override file values).
  std::vector<std::string> key_order;
  const auto note_key = [&key_order](const std::string& token) {
    const auto eq = token.find('=');
    if (eq == std::string::npos || eq == 0) return;
    const std::string key = token.substr(0, eq);
    if (std::find(key_order.begin(), key_order.end(), key) ==
        key_order.end()) {
      key_order.push_back(key);
    }
  };
  {
    std::istringstream tokens(text);
    std::string token;
    while (tokens >> token) note_key(token);
  }
  for (std::size_t i = 1; i < args.size(); ++i) {
    const std::string& token = args[i];
    if (token.rfind("--", 0) == 0) continue;  // as Config::from_args does
    const auto eq = token.find('=');
    if (eq == std::string::npos) continue;
    const std::string key = token.substr(0, eq);
    if (key == "config" || key == "jobs" || key == "format" || key == "out" ||
        key == "csv" || key == "metrics" || key == "profile" ||
        key == "shard") {
      continue;
    }
    merged.set(key, cli.get_string(key, ""));
    note_key(token);
  }

  const auto jobs = static_cast<std::size_t>(cli.get_int("jobs", 0));
  const std::string format = format_of(cli);
  const std::string metrics_path = cli.get_string("metrics", "");
  const bool profile = cli.get_bool("profile", false);
  const std::string shard_text = cli.get_string("shard", "");
  if (shard_text.empty()) preflight_out(cli);  // sharded: out= is a directory

  const std::vector<SweepPoint> points =
      expand_grid(scenario, merged, key_order, /*pin_inner_threads=*/true);
  require(!points.empty(), "pimsim sweep: empty parameter grid");

  if (!shard_text.empty()) {
    return run_shard(scenario, cli, merged, key_order, points,
                     parse_shard(shard_text), jobs, format, metrics_path,
                     profile);
  }

  // Aggregation across sweep points is deterministic regardless of
  // jobs=N: the hub folds snapshots in content order, not arrival order.
  if (!metrics_path.empty()) enable_metrics();
  if (profile) enable_profile();
  const auto start = std::chrono::steady_clock::now();
  std::vector<std::unique_ptr<Table>> tables(points.size());
  SweepRunner runner(jobs);
  runner.for_each(points.size(), [&](std::size_t i) {
    tables[i] = std::make_unique<Table>(
        run_scenario(scenario, points[i].cfg, {"csv", "format", "out"}));
  });
  const double elapsed = std::chrono::duration<double>(
                             std::chrono::steady_clock::now() - start)
                             .count();

  // Opened only after the whole grid ran: a failing point must not
  // truncate an existing results file.
  const auto out = open_out(cli);
  std::ostream& os = out ? *out : std::cout;
  for (std::size_t i = 0; i < points.size(); ++i) {
    os << render_block(scenario, points[i], *tables[i], format);
  }
  if (!metrics_path.empty()) write_metrics_file(metrics_path);
  if (profile) report_profile(std::cerr);
  std::cerr << "# swept " << points.size() << " point(s) on "
            << runner.threads() << " thread(s) in " << elapsed << " s\n";
  return 0;
}

int cmd_merge(const std::vector<std::string>& args) {
  require(!args.empty(),
          "pimsim merge: missing chunk directory (pimsim merge DIR "
          "[out=PATH] [metrics=PATH])");
  const std::string dir = args[0];
  const Config cfg = config_from_tokens({args.begin() + 1, args.end()});
  const std::string metrics_path = cfg.get_string("metrics", "");
  (void)cfg.get_string("out", "");
  cfg.reject_unused();

  const GridSpec grid = read_manifest(dir);
  const std::vector<std::size_t> present = chunks_present(dir, grid);
  std::vector<bool> have(grid.shards, false);
  for (const std::size_t id : present) {
    require(!have[id], "pimsim merge: duplicate chunk sidecar for shard " +
                           std::to_string(id) + " in '" + dir + "'");
    have[id] = true;
  }
  std::string missing;
  for (std::size_t s = 0; s < grid.shards; ++s) {
    if (!have[s]) missing += (missing.empty() ? "" : ", ") + std::to_string(s);
  }
  if (!missing.empty()) {
    throw InvalidArgument(
        "pimsim merge: '" + dir + "' is missing chunk(s) for shard(s) " +
        missing + " of " + std::to_string(grid.shards) +
        "; rerun `pimsim sweep " + grid.scenario +
        " ... shard=<i>/" + std::to_string(grid.shards) + " out=" + dir + "`");
  }

  // Every chunk validates against the manifest (read_chunk checks the
  // grid fingerprint, the planned point/unit set, and every block's
  // recorded fingerprint), so after this loop `blocks` holds the full
  // grid — rendered blocks per point, or serialized tables per
  // (point, rep) unit of a replicated grid.
  if (!metrics_path.empty()) obs::MetricsHub::global().reset();
  std::vector<std::size_t> unit_offset(grid.assignments.size(), 0);
  if (grid.replicated) {
    std::size_t offset = 0;
    for (std::size_t i = 0; i < grid.assignments.size(); ++i) {
      unit_offset[i] = offset;
      offset += grid.point_reps[i];
    }
  }
  std::vector<std::string> blocks(
      grid.replicated ? grid.unit_point.size() : grid.assignments.size());
  double shard_wall = 0.0;
  for (std::size_t s = 0; s < grid.shards; ++s) {
    const ChunkData data = read_chunk(dir, grid, s);
    shard_wall += data.wall_seconds;
    for (const ChunkPoint& p : data.points) {
      blocks[grid.replicated ? unit_offset[p.point] + p.rep : p.point] =
          p.block;
    }
    if (!metrics_path.empty()) {
      for (const std::string& snapshot : data.metrics) {
        obs::MetricsHub::global().absorb_bytes(snapshot);
      }
    }
  }

  const auto out = open_out(cfg);
  std::ostream& os = out ? *out : std::cout;
  if (grid.replicated) {
    // Refold each point's replications from the exact serialized cell
    // bits — raw RunningStats moments, never re-parsed rendered floats —
    // then render once, reproducing the unsharded fold byte for byte.
    for (std::size_t i = 0; i < grid.assignments.size(); ++i) {
      std::vector<Table> reps;
      reps.reserve(grid.point_reps[i]);
      for (std::size_t r = 0; r < grid.point_reps[i]; ++r) {
        reps.push_back(deserialize_table(blocks[unit_offset[i] + r]));
      }
      const Table folded = fold_replications(reps);
      os << "# " << grid.scenario
         << (grid.assignments[i].empty() ? "" : " " + grid.assignments[i])
         << "\n";
      render(os, folded, grid.format);
    }
  } else {
    for (const std::string& block : blocks) os << block;
  }
  if (!metrics_path.empty()) write_metrics_file(metrics_path);
  std::cerr << "# merged " << grid.shards << " chunk(s), "
            << grid.assignments.size() << " point(s), shard wall time "
            << shard_wall << " s\n";
  return 0;
}

std::string render_csv(const Scenario& scenario, const Config& cfg) {
  std::ostringstream os;
  run_scenario(scenario, cfg, {}).print_csv(os);
  return os.str();
}

int verify_one(const Scenario& s, bool strict, bool audit) {
  Config cfg = Config::from_string(s.verify_params);
  const bool has_threads = std::any_of(
      s.params.begin(), s.params.end(),
      [](const ParamSpec& p) { return p.key == "threads"; });

  // With audit on, each pass gets its own chain aggregate: the two
  // passes must produce the same combined event-chain hash, proving the
  // dispatched event streams — not just the rendered CSV — are
  // identical across thread counts.
  des::AuditRegistry::Summary chain_a, chain_b;
  const auto pass = [&](const Config& c, des::AuditRegistry::Summary& chain) {
    if (audit) des::AuditRegistry::global().reset();
    std::string csv = render_csv(s, c);
    if (audit) chain = des::AuditRegistry::global().snapshot();
    return csv;
  };

  std::string first, second;
  if (has_threads) {
    Config serial = cfg, parallel = cfg;
    serial.set("threads", "1");
    parallel.set("threads", "3");
    first = pass(serial, chain_a);
    second = pass(parallel, chain_b);
  } else {
    first = pass(cfg, chain_a);
    second = pass(cfg, chain_b);
  }

  const std::uint64_t fp = data_fingerprint(first);

  // Replication determinism: scenarios with a reps knob must fold to
  // identical bytes (and identical event chains under audit) at any
  // sweep thread count — the reps=1 passes above never exercise the
  // fold, so run the verify grid once more at reps=2.
  const bool has_reps = std::any_of(
      s.params.begin(), s.params.end(),
      [](const ParamSpec& p) { return p.key == "reps"; });
  bool reps_ok = true;
  bool reps_chain_ok = true;
  if (has_reps) {
    Config rep_a = cfg, rep_b = cfg;
    rep_a.set("reps", "2");
    rep_b.set("reps", "2");
    if (has_threads) {
      rep_a.set("threads", "1");
      rep_b.set("threads", "3");
    }
    des::AuditRegistry::Summary rep_chain_a, rep_chain_b;
    reps_ok = pass(rep_a, rep_chain_a) == pass(rep_b, rep_chain_b);
    reps_chain_ok = !audit || rep_chain_a == rep_chain_b;
  }

  int failures = 0;
  std::cerr << "verify " << s.name << ": ";
  if (first != second) {
    std::cerr << "FAIL (reruns differ"
              << (has_threads ? " across sweep_threads 1 vs 3)" : ")");
    ++failures;
  } else {
    std::cerr << "determinism ok";
  }
  if (has_reps) {
    if (reps_ok && reps_chain_ok) {
      std::cerr << ", reps=2 ok";
    } else {
      std::cerr << ", reps=2 FAIL ("
                << (reps_ok ? "event chains diverge" : "folds differ")
                << (has_threads ? " across sweep_threads 1 vs 3)" : ")");
      ++failures;
    }
  }
  if (audit) {
    if (chain_a == chain_b) {
      std::cerr << ", audit chain " << std::hex << chain_a.combined
                << std::dec << " ok (" << chain_a.simulations << " sims, "
                << chain_a.events << " events)";
    } else {
      std::cerr << ", audit FAIL (event chains diverge: " << std::hex
                << chain_a.combined << " vs " << chain_b.combined << std::dec
                << ")";
      ++failures;
    }
  }
  std::cerr << ", fingerprint " << std::hex << fp << std::dec;
  if (s.verify_fingerprint != 0) {
    if (fp == s.verify_fingerprint) {
      std::cerr << " (matches pinned)";
    } else if (strict) {
      std::cerr << " MISMATCH vs pinned " << std::hex << s.verify_fingerprint
                << std::dec;
      ++failures;
    } else {
      std::cerr << " (differs from pinned " << std::hex
                << s.verify_fingerprint << std::dec
                << "; compiler/libm dependent — strict=1 to enforce)";
    }
  } else {
    std::cerr << " (unpinned)";
  }
  std::cerr << "\n";
  return failures;
}

int cmd_verify(const std::vector<std::string>& args) {
  require(!args.empty(),
          "pimsim verify: missing scenario name (or 'all')");
  const Config cfg = config_from_tokens({args.begin() + 1, args.end()});
  const bool strict = cfg.get_bool("strict", false);
  const bool audit = cfg.get_bool("audit", false);
  cfg.reject_unused();

  if (audit) enable_audit();
  int failures = 0;
  if (args[0] == "all") {
    for (const Scenario* s : ScenarioRegistry::global().all()) {
      failures += verify_one(*s, strict, audit);
    }
  } else {
    failures +=
        verify_one(ScenarioRegistry::global().get(args[0]), strict, audit);
  }
  std::cerr << (failures == 0 ? "verify: all ok\n" : "verify: FAILURES\n");
  return failures;
}

int cmd_help(const std::vector<std::string>& args) {
  if (args.empty()) {
    std::cout << kUsage;
    return 0;
  }
  const Scenario& s = ScenarioRegistry::global().get(args[0]);
  std::cout << s.name << " — " << s.summary << "\n  paper: " << s.paper
            << "\n  parameters:\n";
  print_param_lines(std::cout, s);
  if (!s.verify_params.empty()) {
    std::cout << "  verify grid: " << s.verify_params << "\n";
  }
  return 0;
}

}  // namespace

int cli_main(int argc, char** argv) {
  try {
    std::vector<std::string> args(argv + 1, argv + argc);
    if (args.empty() || args[0] == "help" || args[0] == "--help" ||
        args[0] == "-h") {
      return cmd_help(args.empty() ? args
                                   : std::vector<std::string>(
                                         args.begin() + 1, args.end()));
    }
    const std::string command = args[0];
    const std::vector<std::string> rest(args.begin() + 1, args.end());
    if (command == "list") return cmd_list(rest);
    if (command == "run") return cmd_run(rest);
    if (command == "sweep") return cmd_sweep(rest);
    if (command == "merge") return cmd_merge(rest);
    if (command == "verify") return cmd_verify(rest);
    throw InvalidArgument(
        "pimsim: unknown command '" + command +
        "'; valid commands: list, run, sweep, merge, verify, help");
  } catch (const std::exception& e) {
    std::cerr << "error: " << e.what() << "\n";
    return 1;
  }
}

}  // namespace pimsim::core
