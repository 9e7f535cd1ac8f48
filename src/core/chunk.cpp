#include "core/chunk.hpp"

#include <algorithm>
#include <cerrno>
#include <cmath>
#include <cstdlib>
#include <filesystem>
#include <fstream>
#include <limits>
#include <optional>
#include <ostream>
#include <sstream>
#include <string_view>

#include <unistd.h>

#include "common/error.hpp"
#include "common/json.hpp"
#include "core/experiment.hpp"
#include "core/scenario.hpp"
#include "core/sweep.hpp"

namespace pimsim::core {
namespace fs = std::filesystem;

namespace {

constexpr const char* kManifestSchema = "pimsim-manifest-v2";
constexpr const char* kChunkSchema = "pimsim-chunk-v2";

std::string json_unescape(const std::string& in) {
  std::string out;
  out.reserve(in.size());
  for (std::size_t i = 0; i < in.size(); ++i) {
    if (in[i] != '\\' || i + 1 == in.size()) {
      out.push_back(in[i]);
      continue;
    }
    switch (in[++i]) {
      case 'n': out.push_back('\n'); break;
      case 't': out.push_back('\t'); break;
      default: out.push_back(in[i]);  // \" and \\ (and anything else verbatim)
    }
  }
  return out;
}

std::string hex_encode(const std::string& bytes) {
  static const char* kDigits = "0123456789abcdef";
  std::string out;
  out.reserve(bytes.size() * 2);
  for (const char c : bytes) {
    const auto b = static_cast<unsigned char>(c);
    out.push_back(kDigits[b >> 4U]);
    out.push_back(kDigits[b & 0xfU]);
  }
  return out;
}

int hex_nibble(char c, const std::string& file) {
  if (c >= '0' && c <= '9') return c - '0';
  if (c >= 'a' && c <= 'f') return c - 'a' + 10;
  throw InvalidArgument("pimsim merge: '" + file +
                        "': metrics snapshot is not valid hex");
}

std::string hex_decode(const std::string& hex, const std::string& file) {
  require(hex.size() % 2 == 0, [&] {
    return "pimsim merge: '" + file + "': odd-length metrics snapshot hex";
  });
  std::string out;
  out.reserve(hex.size() / 2);
  for (std::size_t i = 0; i < hex.size(); i += 2) {
    out.push_back(static_cast<char>((hex_nibble(hex[i], file) << 4) |
                                    hex_nibble(hex[i + 1], file)));
  }
  return out;
}

std::string slurp(const fs::path& path, const char* what) {
  std::ifstream in(path, std::ios::binary);
  require(in.good(), std::string("pimsim: cannot read ") + what + " '" +
                         path.string() + "'");
  std::ostringstream buffer;
  buffer << in.rdbuf();
  return buffer.str();
}

/// Writes `text` to `path` atomically: a temp file (unique per process,
/// so concurrent shard writers never interleave) renamed into place.
void atomic_write(const fs::path& path, const std::string& text) {
  const fs::path tmp =
      path.string() + ".tmp-" + std::to_string(static_cast<long>(::getpid()));
  {
    std::ofstream out(tmp, std::ios::binary);
    require(out.good(),
            "pimsim: cannot write chunk file '" + tmp.string() + "'");
    out << text;
    require(out.good(),
            "pimsim: short write to chunk file '" + tmp.string() + "'");
  }
  fs::rename(tmp, path);  // POSIX rename: atomic replace
}

// --- minimal parsers for the sidecar/manifest JSON we write ourselves ----

/// Position just past `"key":` (first occurrence).
std::size_t find_value(const std::string& text, const std::string& key,
                       const std::string& file) {
  const std::string token = "\"" + key + "\"";
  const std::size_t at = text.find(token);
  require(at != std::string::npos,
          [&] { return "pimsim: '" + file + "': missing field \"" + key + "\""; });
  const std::size_t colon = text.find(':', at + token.size());
  require(colon != std::string::npos, [&] {
    return "pimsim: '" + file + "': malformed field \"" + key + "\"";
  });
  return colon + 1;
}

/// Value of `"key": "..."` (first occurrence), unescaped.
std::string find_string(const std::string& text, const std::string& key,
                        const std::string& file) {
  const std::size_t open = text.find('"', find_value(text, key, file));
  require(open != std::string::npos, [&] {
    return "pimsim: '" + file + "': malformed field \"" + key + "\"";
  });
  std::size_t close = open + 1;
  while (close < text.size() &&
         (text[close] != '"' || text[close - 1] == '\\')) {
    ++close;
  }
  require(close < text.size(), [&] {
    return "pimsim: '" + file + "': unterminated string for \"" + key + "\"";
  });
  return json_unescape(text.substr(open + 1, close - open - 1));
}

/// Value of `"key": <number>` (first occurrence).
double find_number(const std::string& text, const std::string& key,
                   const std::string& file) {
  // Parsed in place (std::stod would need a copy of the rest of the
  // file); same syntax and the same failures: no digits, or out of range.
  const char* begin = text.c_str() + find_value(text, key, file);
  char* end = nullptr;
  errno = 0;
  const double v = std::strtod(begin, &end);
  if (end == begin || errno == ERANGE) {
    throw InvalidArgument("pimsim: '" + file + "': non-numeric field \"" +
                          key + "\"");
  }
  return v;
}

/// Strict non-negative decimal integer: one or more digits, nothing
/// else (no sign, fraction, exponent or spaces), and no overflow.
bool parse_decimal(std::string_view digits, std::size_t& out) {
  if (digits.empty()) return false;
  std::size_t v = 0;
  for (const char c : digits) {
    if (c < '0' || c > '9') return false;
    const auto d = static_cast<std::size_t>(c - '0');
    if (v > (std::numeric_limits<std::size_t>::max() - d) / 10) return false;
    v = v * 10 + d;
  }
  out = v;
  return true;
}

/// Value of `"key": <count>` (first occurrence): a strict non-negative
/// decimal integer, so "2.9", "1e3", "-1" and values past SIZE_MAX fail
/// instead of being truncated into a plausible count.
std::size_t find_size(const std::string& text, const std::string& key,
                      const std::string& file) {
  std::size_t begin = find_value(text, key, file);
  while (begin < text.size() && text[begin] == ' ') ++begin;
  const std::size_t end = std::min(text.find_first_of(",}] \t\r\n", begin),
                                   text.size());
  const std::string_view token(text.data() + begin, end - begin);
  std::size_t v = 0;
  if (!parse_decimal(token, v)) {
    throw InvalidArgument("pimsim: '" + file + "': field \"" + key +
                          "\" is not a non-negative integer ('" +
                          std::string(token) + "')");
  }
  return v;
}

/// Fingerprints are stored as "0x<hex>" strings (JSON numbers lose
/// precision past 2^53).
std::uint64_t find_fingerprint(const std::string& text, const std::string& key,
                               const std::string& file) {
  const std::string raw = find_string(text, key, file);
  const bool ok = raw.rfind("0x", 0) == 0 && raw.size() > 2 &&
                  raw.size() <= 18 &&
                  raw.find_first_not_of("0123456789abcdef", 2) ==
                      std::string::npos;
  require(ok, [&] {
    return "pimsim: '" + file + "': field \"" + key + "\" is not 0x<hex>";
  });
  return std::stoull(raw.substr(2), nullptr, 16);
}

std::string fingerprint_text(std::uint64_t fp) {
  std::ostringstream os;
  os << "0x" << std::hex << fp;
  return os.str();
}

/// The manifest bytes: a pure function of the grid, so every shard
/// process produces the identical file.
std::string manifest_text(const GridSpec& grid) {
  std::ostringstream os;
  os << "{\n  \"schema\": \"" << kManifestSchema << "\",\n  \"scenario\": \""
     << json_escape(grid.scenario) << "\",\n  \"format\": \"" << grid.format
     << "\",\n  \"shards\": " << grid.shards
     << ",\n  \"total_points\": " << grid.assignments.size()
     << ",\n  \"total_units\": " << grid.unit_point.size()
     << ",\n  \"grid_fingerprint\": \"" << fingerprint_text(grid.grid_fingerprint)
     << "\",\n  \"points\": [\n";
  for (std::size_t i = 0; i < grid.assignments.size(); ++i) {
    os << "    {\"point\": " << i << ", \"reps\": " << grid.point_reps[i]
       << ", \"assignment\": \"" << json_escape(grid.assignments[i]) << "\"}"
       << (i + 1 < grid.assignments.size() ? "," : "") << "\n";
  }
  os << "  ],\n  \"units\": [\n";
  for (std::size_t u = 0; u < grid.unit_point.size(); ++u) {
    os << "    {\"unit\": " << u << ", \"point\": " << grid.unit_point[u]
       << ", \"rep\": " << grid.unit_rep[u] << ", \"shard\": "
       << grid.unit_shard[u] << "}"
       << (u + 1 < grid.unit_point.size() ? "," : "") << "\n";
  }
  os << "  ]\n}\n";
  return os.str();
}

/// Lines of a JSON array of one-object-per-line entries, each starting
/// with `{"<tag>":` — the shape both writers emit.  Unit entries start
/// `{"unit":` and manifest point entries `{"point":`, so the two arrays
/// never cross-match.
std::vector<std::string> tagged_lines(const std::string& text,
                                      const char* tag) {
  const std::string token = std::string("{\"") + tag + "\":";
  std::vector<std::string> out;
  std::istringstream in(text);
  std::string line;
  while (std::getline(in, line)) {
    if (line.find(token) != std::string::npos) out.push_back(line);
  }
  return out;
}

GridSpec read_manifest(const std::string& dir) {
  const fs::path path = fs::path(dir) / "manifest.json";
  if (!fs::exists(path)) {
    throw InvalidArgument(
        "pimsim merge: no manifest.json in '" + dir +
        "'; expected a chunk directory written by pimsim sweep shard=i/N "
        "out=DIR");
  }
  const std::string text = slurp(path, "manifest");
  const std::string file = path.string();
  require(find_string(text, "schema", file) == kManifestSchema,
          "pimsim merge: '" + file + "': unknown schema (expected " +
              kManifestSchema +
              "); chunks are caches, so rerun the shards into a fresh "
              "directory");
  GridSpec grid;
  grid.scenario = find_string(text, "scenario", file);
  grid.format = find_string(text, "format", file);
  grid.shards = find_size(text, "shards", file);
  grid.grid_fingerprint = find_fingerprint(text, "grid_fingerprint", file);
  const std::size_t total_points = find_size(text, "total_points", file);
  const std::size_t total_units = find_size(text, "total_units", file);
  require(grid.shards >= 1, "pimsim merge: '" + file + "': shards must be >= 1");

  for (const std::string& line : tagged_lines(text, "point")) {
    const std::size_t point = find_size(line, "point", file);
    const std::size_t reps = find_size(line, "reps", file);
    require(point == grid.assignments.size(),
            "pimsim merge: '" + file + "': points out of order");
    require(reps >= 1, "pimsim merge: '" + file + "': point " +
                           std::to_string(point) + " declares zero reps");
    grid.assignments.push_back(find_string(line, "assignment", file));
    grid.point_reps.push_back(reps);
  }
  require(grid.assignments.size() == total_points,
          "pimsim merge: '" + file + "': total_points disagrees with the "
          "point list");

  // The unit list must be exactly the grid-order enumeration of every
  // (point, rep): render_grid folds units positionally.
  std::size_t next_point = 0;
  std::size_t next_rep = 0;
  for (const std::string& line : tagged_lines(text, "unit")) {
    const std::size_t unit = find_size(line, "unit", file);
    const std::size_t point = find_size(line, "point", file);
    const std::size_t rep = find_size(line, "rep", file);
    const std::size_t shard = find_size(line, "shard", file);
    require(unit == grid.unit_point.size(),
            [&] { return "pimsim merge: '" + file + "': units out of order"; });
    require(next_point < total_points && point == next_point &&
                rep == next_rep,
            [&] {
              return "pimsim merge: '" + file + "': unit " +
                     std::to_string(unit) +
                     " is not the next (point, rep) of the grid";
            });
    require(shard < grid.shards, [&] {
      return "pimsim merge: '" + file + "': unit assigned to shard " +
             std::to_string(shard) + " of " + std::to_string(grid.shards);
    });
    grid.unit_point.push_back(point);
    grid.unit_rep.push_back(rep);
    grid.unit_shard.push_back(shard);
    if (++next_rep == grid.point_reps[point]) {
      ++next_point;
      next_rep = 0;
    }
  }
  require(grid.unit_point.size() == total_units,
          "pimsim merge: '" + file + "': total_units disagrees with the "
          "unit list");
  require(next_point == total_points,
          "pimsim merge: '" + file + "': unit list does not cover every "
          "(point, rep) once");
  return grid;
}

/// A chunk read back from disk and validated against its manifest.
struct ChunkData {
  double wall_seconds = 0.0;
  std::vector<std::size_t> units;     ///< the shard's units, in grid order
  std::vector<std::string> payloads;  ///< one per entry of `units`
  std::vector<std::string> metrics;   ///< per-simulation snapshot bytes
};

ChunkData read_chunk(const std::string& dir, const GridSpec& grid,
                     std::size_t shard) {
  const std::string base = chunk_basename(shard, grid.shards);
  const fs::path side_path = fs::path(dir) / (base + ".json");
  const fs::path data_path = fs::path(dir) / (base + ".csv");
  const std::string file = side_path.string();
  const std::string data_file = data_path.string();
  const std::string text = slurp(side_path, "chunk sidecar");

  require(find_string(text, "schema", file) == kChunkSchema,
          "pimsim merge: '" + file + "': unknown schema (expected " +
              kChunkSchema + ")");
  require(find_string(text, "scenario", file) == grid.scenario,
          "pimsim merge: '" + file + "': scenario differs from the manifest");
  require(find_string(text, "format", file) == grid.format,
          "pimsim merge: '" + file + "': format differs from the manifest");
  require(find_size(text, "shard", file) == shard,
          "pimsim merge: '" + file + "': shard id disagrees with filename");
  require(find_size(text, "shards", file) == grid.shards,
          "pimsim merge: '" + file + "': shard count differs from the manifest");
  require(find_fingerprint(text, "grid_fingerprint", file) ==
              grid.grid_fingerprint,
          "pimsim merge: '" + file + "': chunk belongs to a different grid "
          "(grid fingerprint mismatch)");

  ChunkData data;
  data.wall_seconds = find_number(text, "wall_seconds", file);
  data.units = units_of_shard(grid, shard);

  const std::string payloads = slurp(data_path, "chunk data");
  std::size_t offset = 0;
  std::size_t next = 0;
  for (const std::string& line : tagged_lines(text, "unit")) {
    const std::size_t unit = find_size(line, "unit", file);
    require(next < data.units.size() && unit == data.units[next], [&] {
      return "pimsim merge: '" + file +
             "': unit set diverges from the manifest's shard plan";
    });
    const std::size_t point = grid.unit_point[unit];
    require(find_size(line, "point", file) == point &&
                find_size(line, "rep", file) == grid.unit_rep[unit] &&
                find_string(line, "assignment", file) ==
                    grid.assignments[point],
            [&] {
              return "pimsim merge: '" + file + "': unit " +
                     std::to_string(unit) +
                     " (point, rep, assignment) differs from the manifest";
            });
    const std::size_t bytes = find_size(line, "bytes", file);
    const std::uint64_t fingerprint = find_fingerprint(line, "fingerprint", file);
    require(bytes <= payloads.size() - offset, [&] {
      return "pimsim merge: '" + data_file +
             "': truncated (sidecar records more bytes than the file holds)";
    });
    std::string payload = payloads.substr(offset, bytes);
    require(data_fingerprint(payload) == fingerprint, [&] {
      return "pimsim merge: '" + data_file + "': unit " +
             std::to_string(unit) +
             " bytes do not match the recorded fingerprint (corrupted or "
             "divergent chunk)";
    });
    data.payloads.push_back(std::move(payload));
    offset += bytes;
    ++next;
  }
  require(next == data.units.size(),
          "pimsim merge: '" + file + "': chunk is missing units of its "
          "shard plan");
  require(offset == payloads.size(),
          "pimsim merge: '" + data_file + "': trailing bytes beyond the "
          "recorded units");

  // Metrics snapshots: quoted hex strings inside the "metrics" array.
  const std::string token = "\"metrics\"";
  std::size_t at = text.find(token);
  require(at != std::string::npos,
          "pimsim merge: '" + file + "': missing field \"metrics\"");
  at = text.find('[', at);
  const std::size_t end = text.find(']', at);
  require(at != std::string::npos && end != std::string::npos,
          "pimsim merge: '" + file + "': malformed \"metrics\" array");
  std::size_t open = text.find('"', at);
  while (open != std::string::npos && open < end) {
    const std::size_t close = text.find('"', open + 1);
    require(close != std::string::npos && close < end,
            "pimsim merge: '" + file + "': unterminated metrics snapshot");
    data.metrics.push_back(
        hex_decode(text.substr(open + 1, close - open - 1), file));
    open = text.find('"', close + 1);
  }
  return data;
}

/// Shard ids of the well-formed chunk sidecars present in `dir`.  A file
/// named chunk-* that does not parse as chunk-<i>-of-<N>.{csv,json} with
/// N == grid.shards and i < N throws InvalidArgument (unknown chunk-dir
/// contents are rejected, not skipped); other filenames are ignored.
std::vector<std::size_t> chunks_present(const std::string& dir,
                                        const GridSpec& grid) {
  std::vector<std::string> names;
  for (const fs::directory_entry& entry : fs::directory_iterator(dir)) {
    names.push_back(entry.path().filename().string());
  }
  std::sort(names.begin(), names.end());  // directory order is unspecified

  std::vector<std::size_t> shards;
  for (const std::string& name : names) {
    if (name.rfind("chunk-", 0) != 0) continue;  // not chunk-like: ignored
    const bool sidecar = name.ends_with(".json");
    const std::size_t suffix = sidecar ? 5 : name.ends_with(".csv") ? 4 : 0;
    // The stem must be exactly chunk-<i>-of-<N> with N == grid.shards, i < N.
    const std::string_view stem(name.data(), name.size() - suffix);
    const std::size_t of = stem.find("-of-");
    std::size_t index = 0;
    std::size_t count = 0;
    if (suffix == 0 || of == std::string_view::npos ||
        !parse_decimal(stem.substr(6, of - 6), index) ||
        !parse_decimal(stem.substr(of + 4), count) || count != grid.shards ||
        index >= count) {
      throw InvalidArgument(
          "pimsim merge: unknown chunk-dir contents: '" + dir + "/" + name +
          "'; valid chunk files are chunk-<i>-of-<N>.csv/.json with N the "
          "manifest's shard count and 0 <= i < N");
    }
    if (sidecar) shards.push_back(index);
  }
  return shards;
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

}  // namespace

GridSpec plan_grid(const Scenario& scenario, const Config& merged,
                   const std::vector<std::string>& key_order,
                   const std::vector<SweepPoint>& points, std::size_t shards,
                   const std::string& format) {
  GridSpec grid;
  grid.scenario = scenario.name;
  grid.format = format;
  grid.shards = shards;

  std::string canonical = "pimsim-grid-v1\n" + scenario.name + "\n" + format + "\n";
  for (const std::string& key : key_order) {
    canonical += key + "=" + merged.get_string(key, "") + "\n";
  }
  grid.assignments.reserve(points.size());
  grid.point_reps.reserve(points.size());
  std::vector<double> unit_weights;
  for (std::size_t i = 0; i < points.size(); ++i) {
    const SweepPoint& point = points[i];
    grid.assignments.push_back(point.assignment);
    canonical += point.assignment + "\n";
    // A unit is one replication, so weigh the point at reps=1: the rep
    // axis multiplies units, not per-unit cost.
    const ReplicationSpec rspec = replication_spec(scenario, point.cfg);
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
    grid.point_reps.push_back(rspec.reps);
    for (std::size_t r = 0; r < rspec.reps; ++r) {
      grid.unit_point.push_back(i);
      grid.unit_rep.push_back(r);
      unit_weights.push_back(w);
    }
  }
  grid.grid_fingerprint = data_fingerprint(canonical);
  grid.unit_shard = plan_shards(unit_weights, shards);
  return grid;
}

std::vector<std::size_t> units_of_shard(const GridSpec& grid,
                                        std::size_t shard) {
  std::vector<std::size_t> out;
  for (std::size_t u = 0; u < grid.unit_shard.size(); ++u) {
    if (grid.unit_shard[u] == shard) out.push_back(u);
  }
  return out;
}

std::vector<Table> run_units(const Scenario& scenario,
                             const std::vector<SweepPoint>& points,
                             const GridSpec& grid,
                             const std::vector<std::size_t>& units,
                             SweepRunner& runner) {
  std::vector<std::optional<Table>> slots(units.size());
  runner.for_each(units.size(), [&](std::size_t i) {
    const std::size_t point = grid.unit_point[units[i]];
    slots[i] = grid.point_reps[point] == 1
                   ? run_scenario(scenario, points[point].cfg)
                   : run_replication(scenario, points[point].cfg,
                                     grid.unit_rep[units[i]]);
  });
  std::vector<Table> tables;
  tables.reserve(slots.size());
  for (std::optional<Table>& t : slots) tables.push_back(std::move(*t));
  return tables;
}

void render_table(std::ostream& os, const Table& table,
                  const std::string& format) {
  if (format == "csv") {
    table.print_csv(os);
    os << "\n";
  } else if (format == "json") {
    print_table_json(os, table);
  } else {
    ensure(format == "text", "render_table: format not validated");
    table.print(os);
    os << "\n";
  }
}

void render_grid(std::ostream& os, const GridSpec& grid,
                 const std::function<Table(std::size_t unit)>& unit_table) {
  std::size_t unit = 0;
  for (std::size_t i = 0; i < grid.assignments.size(); ++i) {
    std::vector<Table> reps;
    reps.reserve(grid.point_reps[i]);
    for (std::size_t r = 0; r < grid.point_reps[i]; ++r) {
      reps.push_back(unit_table(unit++));
    }
    os << "# " << grid.scenario
       << (grid.assignments[i].empty() ? "" : " " + grid.assignments[i])
       << "\n";
    render_table(os, fold_replications(reps), grid.format);
  }
}

std::string chunk_basename(std::size_t shard, std::size_t shards) {
  return "chunk-" + std::to_string(shard) + "-of-" + std::to_string(shards);
}

void write_or_check_manifest(const std::string& dir, const GridSpec& grid) {
  const fs::path root(dir);
  if (fs::exists(root) && !fs::is_directory(root)) {
    throw InvalidArgument("pimsim sweep: out='" + dir +
                          "' exists and is not a directory; shard=i/N needs "
                          "a chunk directory");
  }
  fs::create_directories(root);
  const std::string text = manifest_text(grid);
  const fs::path path = root / "manifest.json";
  if (fs::exists(path)) {
    if (slurp(path, "manifest") != text) {
      throw InvalidArgument(
          "pimsim sweep: '" + path.string() +
          "' describes a different sweep (scenario, grid, format, shard "
          "count, or chunk schema changed); merge or delete the old chunks "
          "first");
    }
    return;
  }
  atomic_write(path, text);
}

void write_chunk(const std::string& dir, const GridSpec& grid,
                 std::size_t shard, const std::vector<Table>& tables,
                 const std::vector<std::string>& metrics, double wall_seconds) {
  const std::vector<std::size_t> units = units_of_shard(grid, shard);
  ensure(tables.size() == units.size(),
         "write_chunk: need exactly one table per unit of the shard");
  const fs::path root(dir);
  const std::string base = chunk_basename(shard, grid.shards);

  std::ostringstream os;
  const auto old_precision =
      os.precision(std::numeric_limits<double>::max_digits10);
  os << "{\n  \"schema\": \"" << kChunkSchema << "\",\n  \"scenario\": \""
     << json_escape(grid.scenario) << "\",\n  \"format\": \"" << grid.format
     << "\",\n  \"shard\": " << shard << ",\n  \"shards\": " << grid.shards
     << ",\n  \"grid_fingerprint\": \"" << fingerprint_text(grid.grid_fingerprint)
     << "\",\n  \"wall_seconds\": " << wall_seconds << ",\n  \"units\": [\n";
  std::string payloads;
  for (std::size_t i = 0; i < units.size(); ++i) {
    const std::size_t u = units[i];
    const std::string payload = serialize_table(tables[i]);
    payloads += payload;
    os << "    {\"unit\": " << u << ", \"point\": " << grid.unit_point[u]
       << ", \"rep\": " << grid.unit_rep[u] << ", \"assignment\": \""
       << json_escape(grid.assignments[grid.unit_point[u]])
       << "\", \"bytes\": " << payload.size() << ", \"fingerprint\": \""
       << fingerprint_text(data_fingerprint(payload)) << "\"}"
       << (i + 1 < units.size() ? "," : "") << "\n";
  }
  os << "  ],\n  \"metrics\": [";
  for (std::size_t i = 0; i < metrics.size(); ++i) {
    os << (i ? ",\n    \"" : "\n    \"") << hex_encode(metrics[i]) << "\"";
  }
  os << (metrics.empty() ? "]" : "\n  ]") << "\n}\n";
  os.precision(old_precision);
  atomic_write(root / (base + ".csv"), payloads);
  atomic_write(root / (base + ".json"), os.str());
}

bool chunk_complete(const std::string& dir, const GridSpec& grid,
                    std::size_t shard) {
  const fs::path side = fs::path(dir) / (chunk_basename(shard, grid.shards) + ".json");
  if (!fs::exists(side)) return false;
  try {
    (void)read_chunk(dir, grid, shard);
    return true;
  } catch (const ConfigError&) {
    return false;  // present but invalid -> recompute
  }
}

ChunkedSweep read_chunked_sweep(
    const std::string& dir,
    const std::function<void(const std::string& snapshot)>& on_metrics) {
  ChunkedSweep sweep;
  sweep.grid = read_manifest(dir);
  const GridSpec& grid = sweep.grid;
  std::vector<bool> have(grid.shards, false);
  for (const std::size_t id : chunks_present(dir, grid)) {
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

  // Every chunk validates against the manifest and the shards partition
  // the units, so after this loop every unit has its payload.
  sweep.payloads.resize(grid.unit_point.size());
  for (std::size_t s = 0; s < grid.shards; ++s) {
    ChunkData data = read_chunk(dir, grid, s);
    sweep.shard_wall_seconds += data.wall_seconds;
    for (std::size_t i = 0; i < data.units.size(); ++i) {
      sweep.payloads[data.units[i]] = std::move(data.payloads[i]);
    }
    for (const std::string& snapshot : data.metrics) on_metrics(snapshot);
  }
  return sweep;
}

Table ChunkedSweep::table(std::size_t unit) const {
  return deserialize_table(payloads.at(unit));
}

}  // namespace pimsim::core
