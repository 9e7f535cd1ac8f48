// The observability switchboard.  Simulations are constructed deep inside
// figure generators, often on SweepRunner worker threads, so a caller
// opens an obs::Session instead of passing switches down: every
// Simulation constructed during its lifetime, on any thread, applies its
// RunOptions and, when destroyed, feeds the enabled layers' hubs
// (obs/hub.hpp), which Session::report() renders.  With no session
// active, each Simulation reads the PIMSIM_* environment instead — the
// embedded-caller path (docs/OBSERVABILITY.md lists the variables).
//
// Sessions nest LIFO and are opened and closed on one thread, outside the
// lifetime of any worker thread that constructs simulations.
#pragma once

#include <cstddef>
#include <iosfwd>
#include <string>

#include "des/trace.hpp"

namespace pimsim::obs {

/// The observability switches a Simulation applies at construction.
struct RunOptions {
  bool audit = false;
  bool trace = false;
  bool trace_full = false;  ///< record every kind, not Tracer::kDefaultKinds
  std::size_t trace_cap = des::Tracer::kDefaultCapacity;
  bool metrics = false;
  bool profile = false;

  /// PIMSIM_AUDIT, PIMSIM_TRACE (=full: every kind), PIMSIM_TRACE_CAP,
  /// PIMSIM_METRICS, PIMSIM_PROFILE; a switch is on unless unset, empty
  /// or "0".  Throws ConfigError naming PIMSIM_TRACE_CAP and its value
  /// unless it is an integer in [0, SIZE_MAX].
  [[nodiscard]] static RunOptions from_env();
};

/// What a Simulation constructed now applies: the innermost live
/// Session's options, else RunOptions::from_env().
[[nodiscard]] RunOptions current_run_options();

/// Files Session::report() writes; an empty path skips that file.
struct ReportFiles {
  std::string trace{};    ///< Chrome-trace JSON
  std::string metrics{};  ///< metrics dump; a .csv suffix selects CSV
};

/// RAII scope installing one RunOptions for every Simulation constructed
/// during its lifetime.  Hub contents outlive the session, so a caller
/// can still harvest them after it closes.
class Session {
 public:
  /// Resets the hubs of the enabled layers, then installs `options`.
  explicit Session(const RunOptions& options, ReportFiles files = {});
  /// Reinstates whatever was active before (an outer session or the env).
  ~Session();
  Session(const Session&) = delete;
  Session& operator=(const Session&) = delete;

  /// Reports the enabled layers on `os`: the audit chain line, the trace
  /// and metrics files (one line each), the profile table.
  void report(std::ostream& os) const;

 private:
  RunOptions options_;
  ReportFiles files_;
  const RunOptions* previous_;
};

}  // namespace pimsim::obs
