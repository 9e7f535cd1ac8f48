// The sweep unit model and its self-describing result chunks.
//
// Every `pimsim sweep` grid is a list of (point, rep) units: a point with
// reps=R contributes R units, a plain point (reps=1, or a scenario with
// no reps knob) exactly one.  The unsharded sweep runs every unit;
// `shard=i/N out=DIR` runs the units the deterministic shard plan gives
// shard i and writes a chunk — each unit's exact "pimsim-rep-v1" table
// serialization plus a JSON sidecar ("pimsim-chunk-v2": grid
// fingerprint, per-unit FNV-1a fingerprints, the shard's per-simulation
// obs::MetricsHub snapshots, wall time) — and an idempotent
// `manifest.json` describing the whole grid ("pimsim-manifest-v2").
// `pimsim merge DIR` validates every chunk against the manifest —
// missing, duplicate, corrupted, and divergent-fingerprint chunks are
// detected, not merged — and hands the unit tables to render_grid, the
// same fold-and-render function the unsharded sweep uses, so the merged
// output is byte-identical to an unsharded run by construction.  Because
// every unit is bitwise deterministic, a complete, fingerprint-valid
// chunk is a cache: rerunning its shard is a no-op skip, so a killed
// multi-hour sweep restarts in seconds.  See docs/SWEEPS.md.
#pragma once

#include <cstdint>
#include <functional>
#include <iosfwd>
#include <string>
#include <vector>

#include "common/config.hpp"
#include "common/table.hpp"

namespace pimsim::core {

struct Scenario;
class SweepRunner;

/// One expanded sweep point: the full Config plus its axis assignment.
struct SweepPoint {
  Config cfg;
  std::string assignment;  ///< "k=v k2=v2" of the swept axes only
};

/// Grid identity and unit plan, shared by the manifest and every chunk
/// of one sweep.  Units are listed in grid order: point 0's reps 0..R-1,
/// then point 1's, and so on.
struct GridSpec {
  std::string scenario;
  std::string format;                    ///< "text" | "csv" | "json"
  std::size_t shards = 1;
  std::uint64_t grid_fingerprint = 0;    ///< FNV-1a of the canonical grid text
  std::vector<std::string> assignments;  ///< per point, in grid order
  std::vector<std::size_t> point_reps;   ///< per point (1 for a plain point)
  std::vector<std::size_t> unit_point;   ///< per unit
  std::vector<std::size_t> unit_rep;     ///< per unit
  std::vector<std::size_t> unit_shard;   ///< planned shard per unit
};

/// Grid identity plus the deterministic `shards`-way unit plan.  The
/// fingerprint canonicalizes everything that decides the rendered bytes
/// (scenario, format, merged parameters, per-point assignments) but NOT
/// the shard count.  Each unit weighs one replication of its point
/// (`Scenario::cost_hint` at reps=1), so a reps=1 grid plans exactly as
/// a per-point plan would.
[[nodiscard]] GridSpec plan_grid(const Scenario& scenario, const Config& merged,
                                 const std::vector<std::string>& key_order,
                                 const std::vector<SweepPoint>& points,
                                 std::size_t shards, const std::string& format);

/// Grid-ordered indices of the units `shard` owns.
[[nodiscard]] std::vector<std::size_t> units_of_shard(const GridSpec& grid,
                                                      std::size_t shard);

/// Runs `units` of the grid on `runner` and returns their tables in the
/// order given.  A unit of a single-rep point runs the reps=1 bypass (raw
/// seed); a unit of a multi-rep point runs that one derived-seed
/// replication (`run_replication`).
[[nodiscard]] std::vector<Table> run_units(const Scenario& scenario,
                                           const std::vector<SweepPoint>& points,
                                           const GridSpec& grid,
                                           const std::vector<std::size_t>& units,
                                           SweepRunner& runner);

/// Renders `table` as format ("text" | "csv" | "json"): text and CSV are
/// followed by one blank line; JSON carries full round-trip precision.
void render_table(std::ostream& os, const Table& table, const std::string& format);

/// The one fold-and-render path of every sweep.  `unit_table(u)` yields
/// unit u's table and is called once per unit, in grid order, so a
/// caller can hand each table over (or decode it) just in time.  Each
/// point's units fold through `fold_replications` (a single table passes
/// unchanged) and print as "# <scenario> <assignment>\n" plus the table
/// in the grid's format.
void render_grid(std::ostream& os, const GridSpec& grid,
                 const std::function<Table(std::size_t unit)>& unit_table);

/// "chunk-<i>-of-<N>" — basename of a chunk's .csv/.json pair.
[[nodiscard]] std::string chunk_basename(std::size_t shard, std::size_t shards);

/// Creates `dir` if needed and writes (or re-validates) `manifest.json`.
/// The manifest bytes are a pure function of the grid, so concurrent
/// shard processes write identical files; a directory already holding a
/// *different* sweep's manifest (another grid, or another schema
/// version) throws InvalidArgument instead of mixing chunks.
void write_or_check_manifest(const std::string& dir, const GridSpec& grid);

/// Writes `chunk_basename(shard).{csv,json}` atomically (tmp + rename).
/// `tables` are the shard's units (`units_of_shard`) in grid order;
/// `metrics` is the shard's snapshot_bytes().
void write_chunk(const std::string& dir, const GridSpec& grid,
                 std::size_t shard, const std::vector<Table>& tables,
                 const std::vector<std::string>& metrics, double wall_seconds);

/// True when the shard's chunk exists and validates against `grid` — the
/// resume check.  A present but invalid chunk reads as incomplete.
[[nodiscard]] bool chunk_complete(const std::string& dir, const GridSpec& grid,
                                  std::size_t shard);

/// A whole sharded sweep read back for merging.
struct ChunkedSweep {
  GridSpec grid;
  /// Every unit's fingerprint-checked payload, in grid order.  Kept
  /// serialized (smaller than a Table) until render_grid asks for it.
  std::vector<std::string> payloads;
  double shard_wall_seconds = 0.0;  ///< summed over the shards

  /// Unit `unit`'s table, decoded from its payload.
  [[nodiscard]] Table table(std::size_t unit) const;
};

/// Reads and validates the manifest and every chunk of `dir`.  Throws
/// InvalidArgument naming the file and the defect: no manifest or an
/// unknown schema; unknown chunk-* files; duplicate or missing chunks
/// (naming the rerun command); a chunk that is truncated, has trailing
/// bytes, belongs to another grid, covers the wrong unit set, fails a
/// unit fingerprint, or has a malformed field.  Nothing partial is ever
/// merged.  Each chunk's per-simulation metrics snapshots go to
/// `on_metrics` as the chunk is read, so they are never all held at once.
[[nodiscard]] ChunkedSweep read_chunked_sweep(
    const std::string& dir,
    const std::function<void(const std::string& snapshot)>& on_metrics);

}  // namespace pimsim::core
