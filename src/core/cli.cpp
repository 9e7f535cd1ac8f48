#include "core/cli.hpp"

#include <algorithm>
#include <chrono>
#include <fstream>
#include <iomanip>
#include <iostream>
#include <iterator>
#include <memory>
#include <sstream>
#include <string>
#include <vector>

#include "common/config.hpp"
#include "common/error.hpp"
#include "common/json.hpp"
#include "common/table.hpp"
#include "core/chunk.hpp"
#include "core/scenario.hpp"
#include "core/sweep.hpp"
#include "des/audit.hpp"
#include "obs/metrics.hpp"
#include "obs/session.hpp"

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
      listing the scenario's valid keys.  format defaults to text; out
      defaults to stdout.  audit=1 turns on the event kernel's determinism audit
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
      The grid is a list of (point, rep) units — one per replication
      of each point, so a plain point is one unit — fanned out across
      a SweepRunner pool of `jobs` threads (0 = all cores); each
      point's own `threads` knob is pinned to 1 unless set explicitly.
      Output is one table per point (its units folded), preceded by
      `# <scenario> <assignment>`.  metrics=PATH aggregates the metrics
      registries of every unit into one dump (deterministic regardless
      of jobs=N); profile=1 prints the pooled dispatch profile on
      stderr.
      shard=i/N runs only shard i of a deterministic N-way partition
      of the units (heaviest first; `reps=32 shard=i/N` spreads the 32
      replications across the N shards) and requires out=DIR: the
      shard writes a self-describing chunk (exact serialized unit
      tables + "pimsim-chunk-v2" JSON sidecar with per-unit
      fingerprints and metrics snapshots) plus an idempotent
      manifest.json into DIR.  Rerunning a shard whose valid chunk
      already exists is a no-op skip, so a killed sweep resumes from
      its surviving chunks.  See docs/SWEEPS.md, docs/REPLICATION.md,
      tools/pimsim_sweep_all.sh.

  pimsim merge <DIR> [out=PATH] [metrics=PATH]
      Validates and merges the chunks of a sharded sweep: every chunk
      sidecar must match DIR's manifest (grid fingerprint, planned
      unit set, per-unit fingerprints); missing, duplicate, corrupted,
      and divergent chunks are reported, not merged.  The unit tables
      go through the same fold-and-render step as the unsharded
      `pimsim sweep` — replications refold from exact serialized cell
      bits, never re-parsed floats — so the output is byte-identical
      to it; with metrics=PATH every shard's metrics snapshots refold
      into the same dump the unsharded run would write.

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

/// Keys `pimsim run` consumes itself; the scenario must tolerate them.
const std::vector<std::string> kRunDriverKeys = {
    "format", "out", "audit", "trace", "metrics", "profile"};

/// Keys `pimsim sweep` consumes itself: they belong on the command line,
/// never in the config file, and never reach a sweep point.
constexpr const char* kSweepDriverKeys[] = {"config", "jobs",    "format",
                                            "out",    "metrics", "profile",
                                            "shard"};

void print_param_lines(std::ostream& os, const Scenario& s) {
  for (const ParamSpec& p : s.params) {
    os << "    " << p.key << " (" << to_string(p.kind) << ", default "
       << (p.default_value.empty() ? "-" : p.default_value);
    if (!p.range.empty()) os << ", range " << p.range;
    os << ") — " << p.doc << "\n";
  }
  if (s.params.empty()) os << "    (no parameters)\n";
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
  const std::string format = cfg.get_string("format", "text");
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

/// The observability switches of one command: its own keys overlaid on
/// the PIMSIM_* environment (so PIMSIM_TRACE=full and PIMSIM_TRACE_CAP
/// still shape trace=).  The command opens an obs::Session with them,
/// which reaches every Simulation it constructs, on any thread.
obs::RunOptions with_env(const obs::RunOptions& keys) {
  obs::RunOptions options = obs::RunOptions::from_env();
  options.audit = options.audit || keys.audit;
  options.trace = options.trace || keys.trace;
  options.metrics = options.metrics || keys.metrics;
  options.profile = options.profile || keys.profile;
  return options;
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

  const obs::Session session(with_env({.audit = audit,
                                       .trace = !trace_path.empty(),
                                       .metrics = !metrics_path.empty(),
                                       .profile = profile}),
                             {.trace = trace_path, .metrics = metrics_path});
  const auto start = std::chrono::steady_clock::now();
  const Table table = run_scenario(scenario, cfg, kRunDriverKeys);
  const double elapsed = std::chrono::duration<double>(
                             std::chrono::steady_clock::now() - start)
                             .count();
  // Opened only after a successful run: a failed run (typo'd key, bad
  // grid) must not truncate an existing results file.
  const auto out = open_out(cfg);
  render_table(out ? *out : std::cout, table, format);
  session.report(std::cerr);
  std::ostringstream line;
  line << "# generated in " << std::fixed << std::setprecision(6) << elapsed
       << " s\n";
  std::cerr << line.str();
  return 0;
}

/// Expands comma-separated values of *scalar* scenario parameters into a
/// cartesian grid (list-typed parameters keep their commas).  Axes nest
/// in `key_order` — declaration order: config file first, then CLI
/// overrides — with the last-declared axis varying fastest.  Each
/// point's own `threads` knob is pinned to 1 unless set explicitly.
std::vector<SweepPoint> expand_grid(const Scenario& scenario,
                                    const Config& merged,
                                    const std::vector<std::string>& key_order) {
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
  if (has_threads && !base.has("threads") &&
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

/// `pimsim sweep ... shard=i/N out=DIR`: runs shard i's units and writes
/// the chunk, or skips when a valid chunk already exists (resume).
int run_shard(const Scenario& scenario, const Config& cli,
              const std::vector<SweepPoint>& points, const GridSpec& grid,
              std::size_t shard, std::size_t jobs,
              const std::string& metrics_path, bool profile) {
  const std::string dir = cli.get_string("out", "");
  require(!dir.empty(),
          "pimsim sweep: shard=i/N requires out=DIR (the chunk directory "
          "shared by every shard of the sweep)");
  write_or_check_manifest(dir, grid);
  if (chunk_complete(dir, grid, shard)) {
    std::cerr << "# shard " << shard << "/" << grid.shards
              << ": valid chunk already in '" << dir
              << "', skipping (delete its files to recompute)\n";
    return 0;
  }

  // Metrics are always collected in shard mode: the sidecar carries the
  // per-simulation snapshots so `pimsim merge` can refold them exactly
  // as the unsharded run would have.
  const obs::Session session(with_env({.metrics = true, .profile = profile}),
                             {.metrics = metrics_path});
  const std::vector<std::size_t> mine = units_of_shard(grid, shard);
  const auto start = std::chrono::steady_clock::now();
  SweepRunner runner(jobs);
  const std::vector<Table> tables =
      run_units(scenario, points, grid, mine, runner);
  const double elapsed = std::chrono::duration<double>(
                             std::chrono::steady_clock::now() - start)
                             .count();
  write_chunk(dir, grid, shard, tables,
              obs::MetricsHub::global().snapshot_bytes(), elapsed);
  session.report(std::cerr);
  std::cerr << "# shard " << shard << "/" << grid.shards << ": swept "
            << mine.size() << " of " << grid.unit_point.size()
            << " unit(s) on " << runner.threads() << " thread(s) in "
            << elapsed << " s -> " << dir << "/"
            << chunk_basename(shard, grid.shards) << ".{csv,json}\n";
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
  for (const char* driver : kSweepDriverKeys) {
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
    if (std::find(std::begin(kSweepDriverKeys), std::end(kSweepDriverKeys),
                  key) != std::end(kSweepDriverKeys)) {
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
  const ShardSpec shard =
      shard_text.empty() ? ShardSpec{} : parse_shard(shard_text);
  if (shard_text.empty()) preflight_out(cli);  // sharded: out= is a directory

  const std::vector<SweepPoint> points =
      expand_grid(scenario, merged, key_order);
  require(!points.empty(), "pimsim sweep: empty parameter grid");
  const GridSpec grid =
      plan_grid(scenario, merged, key_order, points, shard.count, format);

  if (!shard_text.empty()) {
    return run_shard(scenario, cli, points, grid, shard.index, jobs,
                     metrics_path, profile);
  }

  // Aggregation across units is deterministic regardless of jobs=N: the
  // hub folds snapshots in content order, not arrival order.
  const obs::Session session(
      with_env({.metrics = !metrics_path.empty(), .profile = profile}),
      {.metrics = metrics_path});
  const auto start = std::chrono::steady_clock::now();
  SweepRunner runner(jobs);
  std::vector<Table> tables =
      run_units(scenario, points, grid, units_of_shard(grid, 0), runner);
  const double elapsed = std::chrono::duration<double>(
                             std::chrono::steady_clock::now() - start)
                             .count();

  // Opened only after the whole grid ran: a failing unit must not
  // truncate an existing results file.
  const auto out = open_out(cli);
  render_grid(out ? *out : std::cout, grid,
              [&tables](std::size_t unit) { return std::move(tables[unit]); });
  session.report(std::cerr);
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

  // Merge runs no simulations: its session only collects the shards'
  // metrics snapshots and reports them.
  const obs::Session session({.metrics = !metrics_path.empty()},
                             {.metrics = metrics_path});
  const ChunkedSweep sweep =
      read_chunked_sweep(dir, [&](const std::string& snapshot) {
        if (!metrics_path.empty()) {
          obs::MetricsHub::global().absorb_bytes(snapshot);
        }
      });
  const auto out = open_out(cfg);
  render_grid(out ? *out : std::cout, sweep.grid,
              [&sweep](std::size_t unit) { return sweep.table(unit); });
  session.report(std::cerr);
  std::cerr << "# merged " << sweep.grid.shards << " chunk(s), "
            << sweep.grid.assignments.size() << " point(s), shard wall time "
            << sweep.shard_wall_seconds << " s\n";
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

  const obs::Session session(with_env({.audit = audit}));
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
