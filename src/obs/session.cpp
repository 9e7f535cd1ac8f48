#include "obs/session.hpp"

#include <atomic>
#include <charconv>
#include <cstdlib>
#include <fstream>
#include <limits>
#include <ostream>
#include <string>
#include <string_view>
#include <system_error>
#include <utility>

#include "common/error.hpp"
#include "des/audit.hpp"
#include "obs/chrome_trace.hpp"
#include "obs/metrics.hpp"
#include "obs/profiler.hpp"

namespace pimsim::obs {

namespace {

/// The innermost live Session's options (nullptr: none, read the env).
/// Stored before any worker thread that constructs simulations starts and
/// read with acquire, so worker-thread constructors see the full options.
std::atomic<const RunOptions*>& active() {
  // lint:allow(mutable-static): the installed session; only Session writes it, on its owning thread
  static std::atomic<const RunOptions*> options{nullptr};
  return options;
}

/// Opens `path` for writing or throws ConfigError naming it.
std::ofstream open_report(const std::string& path, const char* what) {
  std::ofstream os(path);
  require(os.good(), "pimsim: cannot open " + std::string(what) + " file '" + path + "'");
  return os;
}

}  // namespace

RunOptions RunOptions::from_env() {
  const auto env = [](const char* name) -> std::string_view {
    // lint:allow(process-env): the one reader of the PIMSIM_* switches in src/
    const char* value = std::getenv(name);  // NOLINT(concurrency-mt-unsafe): src/ never writes the env
    return value != nullptr ? value : "";
  };
  const auto enabled = [](std::string_view value) { return !value.empty() && value != "0"; };
  RunOptions o;
  o.audit = enabled(env("PIMSIM_AUDIT"));
  const std::string_view trace = env("PIMSIM_TRACE");
  o.trace = enabled(trace);
  o.trace_full = trace == "full";
  if (const std::string_view cap = env("PIMSIM_TRACE_CAP"); !cap.empty()) {
    const auto [end, ec] = std::from_chars(cap.data(), cap.data() + cap.size(), o.trace_cap);
    require(ec == std::errc{} && end == cap.data() + cap.size(), [&] {
      return "PIMSIM_TRACE_CAP='" + std::string(cap) +
             "' is not a trace record count (an integer in [0, " +
             std::to_string(std::numeric_limits<std::size_t>::max()) + "])";
    });
  }
  o.metrics = enabled(env("PIMSIM_METRICS"));
  o.profile = enabled(env("PIMSIM_PROFILE"));
  return o;
}

RunOptions current_run_options() {
  const RunOptions* session = active().load(std::memory_order_acquire);
  return session != nullptr ? *session : RunOptions::from_env();
}

Session::Session(const RunOptions& options, ReportFiles files)
    : options_(options), files_(std::move(files)) {
  if (options_.audit) des::AuditRegistry::global().reset();
  if (options_.trace) TraceHub::global().reset();
  if (options_.metrics) MetricsHub::global().reset();
  if (options_.profile) ProfileHub::global().reset();
  previous_ = active().exchange(&options_, std::memory_order_acq_rel);
}

Session::~Session() { active().store(previous_, std::memory_order_release); }

void Session::report(std::ostream& os) const {
  if (options_.audit) {
    const auto sum = des::AuditRegistry::global().snapshot();
    os << "# audit: " << sum.simulations << " simulation(s), " << sum.events
       << " event(s), chain " << std::hex << sum.combined << std::dec << "\n";
  }
  if (options_.trace && !files_.trace.empty()) {
    std::ofstream file = open_report(files_.trace, "trace");
    const TraceTotals t = TraceHub::global().write_json(file);
    os << "# trace: " << t.simulations << " simulation(s), " << t.records << " record(s), "
       << t.dropped << " dropped -> " << files_.trace << "\n";
  }
  if (options_.metrics && !files_.metrics.empty()) {
    const MetricsHub& hub = MetricsHub::global();
    std::ofstream file = open_report(files_.metrics, "metrics");
    if (files_.metrics.ends_with(".csv")) {
      hub.write_csv(file);
    } else {
      hub.write_json(file);
    }
    os << "# metrics: " << hub.simulations() << " simulation(s) -> " << files_.metrics
       << "\n";
  }
  if (options_.profile) ProfileHub::global().write_table(os);
}

}  // namespace pimsim::obs
