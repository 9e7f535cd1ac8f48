// Shared plumbing for the perf bench binaries: print tables (text or
// CSV), emit the BENCH_*.json throughput trajectories in one shared
// format, and check them against the perf-regression floors in
// bench/baselines.json.
#pragma once

#include <cstdint>
#include <fstream>
#include <iostream>
#include <sstream>
#include <string>
#include <vector>

#include "common/config.hpp"
#include "common/error.hpp"
#include "common/table.hpp"

namespace pimsim::bench {

/// One timed repetition of a bench cell.
struct BenchRun {
  std::uint64_t units = 0;  ///< work units completed (events, flit-hops...)
  double seconds = 0.0;
  [[nodiscard]] double per_sec() const {
    return seconds > 0.0 ? static_cast<double>(units) / seconds : 0.0;
  }
};

/// A named bench cell with its repetition trajectory.
struct BenchCell {
  std::string name;
  std::vector<BenchRun> runs;
  [[nodiscard]] const BenchRun& best() const {
    std::size_t best_i = 0;
    for (std::size_t i = 1; i < runs.size(); ++i) {
      if (runs[i].per_sec() > runs[best_i].per_sec()) best_i = i;
    }
    return runs[best_i];
  }
};

/// Writes the shared BENCH_*.json shape: a "cells" array of
/// {"name", "best_<unit>_per_sec", "trajectory": [...]} entries.
/// `header` is spliced verbatim after the bench name (extra scalar
/// fields, e.g. "\"nodes\": 64,"); may be empty.  A `path` of "-"
/// writes nothing (every bench's `json=-`).
inline void write_bench_json(const std::string& path,
                             const std::string& bench,
                             const std::string& unit,
                             const std::string& header,
                             const std::vector<BenchCell>& cells) {
  if (path == "-") return;
  std::ofstream out(path);
  require(out.good(), "bench: cannot open json output '" + path + "'");
  out << "{\n  \"bench\": \"" << bench << "\",\n";
  if (!header.empty()) out << "  " << header << "\n";
  out << "  \"cells\": [\n";
  for (std::size_t i = 0; i < cells.size(); ++i) {
    const BenchCell& cell = cells[i];
    out << "    {\"name\": \"" << cell.name << "\", \"best_" << unit
        << "_per_sec\": " << cell.best().per_sec() << ", \"trajectory\": [";
    for (std::size_t j = 0; j < cell.runs.size(); ++j) {
      out << (j ? ", " : "") << "{\"" << unit
          << "\": " << cell.runs[j].units
          << ", \"seconds\": " << cell.runs[j].seconds << ", \"" << unit
          << "_per_sec\": " << cell.runs[j].per_sec() << "}";
    }
    out << "]}" << (i + 1 < cells.size() ? "," : "") << "\n";
  }
  out << "  ]\n}\n";
  std::cerr << "# wrote " << path << "\n";
}

/// Extracts the floor value of `cell` inside `section` from baselines
/// text of the shape {"<section>": {"<cell>": <floor>, ...}, ...}.
/// Minimal parser for exactly that shape.
inline bool read_floor(const std::string& text, const std::string& section,
                       const std::string& cell, double* out) {
  const std::size_t sec = text.find("\"" + section + "\"");
  if (sec == std::string::npos) return false;
  const std::size_t sec_end = text.find('}', sec);
  std::size_t key = text.find("\"" + cell + "\"", sec);
  if (key == std::string::npos || key > sec_end) return false;
  key = text.find(':', key);
  if (key == std::string::npos) return false;
  *out = std::stod(text.substr(key + 1));
  return true;
}

/// Perf-regression guard: every cell's best rate must stay within
/// `tolerance` (default 30%) of its checked-in floor.  Returns the number
/// of regressions (0 = pass), reporting each on stderr.  Cells without a
/// floor are ignored, so new cells can land before being baselined.
inline int check_floors(const std::string& floors_path,
                        const std::string& section,
                        const std::vector<BenchCell>& cells,
                        double tolerance = 0.30) {
  std::ifstream in(floors_path);
  require(in.good(), "bench: cannot read floors file '" + floors_path + "'");
  std::stringstream buffer;
  buffer << in.rdbuf();
  const std::string text = buffer.str();
  int regressions = 0;
  for (const BenchCell& cell : cells) {
    double floor = 0.0;
    if (!read_floor(text, section, cell.name, &floor)) continue;
    const double measured = cell.best().per_sec();
    if (measured < floor * (1.0 - tolerance)) {
      std::cerr << "PERF REGRESSION: " << section << "/" << cell.name << ": "
                << measured << " per sec is more than "
                << static_cast<int>(tolerance * 100.0)
                << "% below the baseline floor " << floor << "\n";
      ++regressions;
    }
  }
  if (regressions == 0) {
    std::cerr << "# floors ok: " << section << " (" << floors_path << ")\n";
  }
  return regressions;
}

/// Prints `table` as text (default) or CSV when `csv=1` is configured.
inline void emit(const Table& table, const Config& cfg) {
  if (cfg.get_bool("csv", false)) {
    table.print_csv(std::cout);
  } else {
    table.print(std::cout);
  }
  std::cout << "\n";
}

}  // namespace pimsim::bench
