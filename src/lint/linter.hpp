// pimsim-lint: the determinism static-analysis pass.
//
// Every figure golden, CI `cmp` gate, and sweep fingerprint in this repo
// rests on one contract: bitwise-identical output at any sweep_threads /
// jobs count.  `pimsim verify` tells you *that* the contract broke; this
// linter catches the classes of bugs that break it at the source line,
// before they ever reach a fingerprint:
//
//   unordered-container  declaring std::unordered_map/std::unordered_set
//                        without a lookup-only justification — hash- or
//                        pointer-ordered traversal leaks into results.
//   unordered-iter       actually iterating one (range-for or .begin())
//                        — includes the floating-point accumulation
//                        trap, where a sum's rounding depends on hash
//                        order.
//   raw-entropy          rand()/srand()/std::random_device/time()/
//                        system_clock outside src/common/rng.* — all
//                        randomness must flow through seeded Rng
//                        streams, all timestamps through sim.now().
//                        (steady_clock wall-time *measurement* is fine;
//                        it never feeds simulation results.)
//   mutable-static       mutable static / global / thread_local state —
//                        order-dependent across translation units and a
//                        data race under SweepRunner.
//   const-cast           const_cast — hides mutation from the type
//                        system, which is how "observationally const"
//                        state changes sneak past review and TSan.
//   unguarded-trace      a `.trace(...)` / `.metrics()` member call in
//                        src/ without a tracing_enabled() /
//                        metrics_enabled() guard on the same line or the
//                        two lines above — argument evaluation (label
//                        interning, registry lookups) is not free, so
//                        the off path must stay one predicted branch
//                        (src/obs/ and the Tracer itself are exempt).
//   process-env          getenv/setenv/unsetenv/putenv in src/ — the
//                        environment is process-global, leaks from one
//                        run into the next, and setenv races with worker
//                        threads; observability switches travel as
//                        obs::RunOptions (only RunOptions::from_env may
//                        read PIMSIM_*).
//
// Suppressions: a comment of the form `// lint:allow(const-cast): why
// it is safe` — any rule id, comma-separate several — on the same line
// or the line directly above silences one finding; the reason is
// mandatory (an unexplained allow is itself a finding).  The scanner is
// token-aware (comments, string and char literals are stripped before
// matching) but deliberately not a compiler: it has no cross-file or
// cross-variable dataflow, so copying an unordered container into a
// local and iterating the copy escapes it.  docs/DETERMINISM.md has the
// full rationale per rule.
#pragma once

#include <string>
#include <vector>

namespace pimsim::lint {

/// One rule violation at a source line.
struct Finding {
  std::string file;     ///< path label as given to lint_source
  int line = 0;         ///< 1-based line number
  std::string rule;     ///< rule id, e.g. "unordered-iter"
  std::string message;  ///< human-readable explanation
};

/// All rule ids, for --list-rules and suppression validation.
[[nodiscard]] const std::vector<std::string>& rule_ids();

/// Lints one translation unit's text.  `path` is used both as the label
/// on findings and for path-based rule policy (raw-entropy is exempt in
/// src/common/rng.*).  Deterministic: findings are in line order.
[[nodiscard]] std::vector<Finding> lint_source(const std::string& path,
                                               const std::string& content);

/// Renders a finding as "file:line: [rule] message".
[[nodiscard]] std::string to_string(const Finding& finding);

}  // namespace pimsim::lint
