#include "core/chunk.hpp"

#include <algorithm>
#include <cerrno>
#include <cstdlib>
#include <filesystem>
#include <fstream>
#include <limits>
#include <sstream>

#include <unistd.h>

#include "common/error.hpp"
#include "core/scenario.hpp"

namespace pimsim::core {
namespace fs = std::filesystem;

namespace {

std::string json_escape(const std::string& in) {
  std::string out;
  out.reserve(in.size());
  for (const char c : in) {
    switch (c) {
      case '"': out += "\\\""; break;
      case '\\': out += "\\\\"; break;
      case '\n': out += "\\n"; break;
      case '\t': out += "\\t"; break;
      default: out.push_back(c);
    }
  }
  return out;
}

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

/// Value of `"key": "..."` (first occurrence), unescaped.
std::string find_string(const std::string& text, const std::string& key,
                        const std::string& file) {
  const std::string token = "\"" + key + "\"";
  const std::size_t at = text.find(token);
  require(at != std::string::npos,
          [&] { return "pimsim: '" + file + "': missing field \"" + key + "\""; });
  std::size_t open = text.find('"', at + token.size() + 1);
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
  const std::string token = "\"" + key + "\"";
  std::size_t at = text.find(token);
  require(at != std::string::npos,
          [&] { return "pimsim: '" + file + "': missing field \"" + key + "\""; });
  at = text.find(':', at + token.size());
  require(at != std::string::npos, [&] {
    return "pimsim: '" + file + "': malformed field \"" + key + "\"";
  });
  // Parsed in place (std::stod would need a copy of the rest of the
  // file); same syntax and the same failures: no digits, or out of range.
  const char* begin = text.c_str() + at + 1;
  char* end = nullptr;
  errno = 0;
  const double v = std::strtod(begin, &end);
  if (end == begin || errno == ERANGE) {
    throw InvalidArgument("pimsim: '" + file + "': non-numeric field \"" +
                          key + "\"");
  }
  return v;
}

std::size_t find_size(const std::string& text, const std::string& key,
                      const std::string& file) {
  const double v = find_number(text, key, file);
  require(v >= 0.0,
          [&] { return "pimsim: '" + file + "': negative field \"" + key + "\""; });
  return static_cast<std::size_t>(v);
}

/// Fingerprints are stored as "0x<hex>" strings (JSON numbers lose
/// precision past 2^53).
std::uint64_t find_fingerprint(const std::string& text, const std::string& key,
                               const std::string& file) {
  const std::string raw = find_string(text, key, file);
  require(raw.rfind("0x", 0) == 0 && raw.size() > 2,
          "pimsim: '" + file + "': field \"" + key + "\" is not 0x<hex>");
  try {
    return std::stoull(raw.substr(2), nullptr, 16);
  } catch (const std::exception&) {
    throw InvalidArgument("pimsim: '" + file + "': field \"" + key +
                          "\" is not 0x<hex>");
  }
}

std::string fingerprint_text(std::uint64_t fp) {
  std::ostringstream os;
  os << "0x" << std::hex << fp;
  return os.str();
}

/// The manifest bytes: a pure function of the grid, so every shard
/// process produces the identical file.  Replicated grids append the
/// per-point rep counts and the (point, rep) unit plan; plain grids
/// produce the exact pre-replication pimsim-manifest-v1 bytes.
std::string manifest_text(const GridSpec& grid) {
  std::ostringstream os;
  os << "{\n  \"schema\": \"pimsim-manifest-v1\",\n  \"scenario\": \""
     << json_escape(grid.scenario) << "\",\n  \"format\": \"" << grid.format
     << "\",\n  \"shards\": " << grid.shards
     << ",\n  \"total_points\": " << grid.assignments.size();
  if (grid.replicated) {
    os << ",\n  \"replicated\": true,\n  \"total_units\": "
       << grid.unit_point.size();
  }
  os << ",\n  \"grid_fingerprint\": \"" << fingerprint_text(grid.grid_fingerprint)
     << "\",\n  \"points\": [\n";
  for (std::size_t i = 0; i < grid.assignments.size(); ++i) {
    os << "    {\"point\": " << i << ", \"shard\": " << grid.shard_of[i];
    if (grid.replicated) os << ", \"reps\": " << grid.point_reps[i];
    os << ", \"assignment\": \"" << json_escape(grid.assignments[i]) << "\"}"
       << (i + 1 < grid.assignments.size() ? "," : "") << "\n";
  }
  os << "  ]";
  if (grid.replicated) {
    os << ",\n  \"units\": [\n";
    for (std::size_t u = 0; u < grid.unit_point.size(); ++u) {
      os << "    {\"unit\": " << u << ", \"point\": " << grid.unit_point[u]
         << ", \"rep\": " << grid.unit_rep[u] << ", \"shard\": "
         << grid.unit_shard[u] << "}"
         << (u + 1 < grid.unit_point.size() ? "," : "") << "\n";
    }
    os << "  ]";
  }
  os << "\n}\n";
  return os.str();
}

/// Splits the lines of a JSON array of one-object-per-line entries, each
/// starting with `{"<tag>":` — the shape both writers emit.  Manifest
/// unit lines start `{"unit":` and chunk/manifest point entries start
/// `{"point":`, so the two arrays never cross-match.
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

std::vector<std::string> point_lines(const std::string& text) {
  return tagged_lines(text, "point");
}

/// Grid-ordered indices of the points shard `shard` owns.
std::vector<std::size_t> points_of_shard(const GridSpec& grid,
                                         std::size_t shard) {
  std::vector<std::size_t> out;
  for (std::size_t i = 0; i < grid.shard_of.size(); ++i) {
    if (grid.shard_of[i] == shard) out.push_back(i);
  }
  return out;
}

/// Grid-ordered unit indices owned by `shard` (replicated grids).
std::vector<std::size_t> units_of_shard(const GridSpec& grid,
                                        std::size_t shard) {
  std::vector<std::size_t> out;
  for (std::size_t u = 0; u < grid.unit_shard.size(); ++u) {
    if (grid.unit_shard[u] == shard) out.push_back(u);
  }
  return out;
}

}  // namespace

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
          "' describes a different sweep (scenario, grid, format, or shard "
          "count changed); merge or delete the old chunks first");
    }
    return;
  }
  atomic_write(path, text);
}

void write_chunk(const std::string& dir, const GridSpec& grid,
                 std::size_t shard, const std::vector<ChunkPoint>& points,
                 const std::vector<std::string>& metrics, double wall_seconds) {
  const fs::path root(dir);
  const std::string base = chunk_basename(shard, grid.shards);

  std::string blocks;
  for (const ChunkPoint& p : points) blocks += p.block;
  atomic_write(root / (base + ".csv"), blocks);

  std::ostringstream os;
  const auto old_precision =
      os.precision(std::numeric_limits<double>::max_digits10);
  os << "{\n  \"schema\": \"pimsim-chunk-v1\",\n  \"scenario\": \""
     << json_escape(grid.scenario) << "\",\n  \"format\": \"" << grid.format
     << "\",\n  \"shard\": " << shard << ",\n  \"shards\": " << grid.shards;
  if (grid.replicated) os << ",\n  \"replicated\": true";
  os << ",\n  \"grid_fingerprint\": \"" << fingerprint_text(grid.grid_fingerprint)
     << "\",\n  \"wall_seconds\": " << wall_seconds << ",\n  \"points\": [\n";
  for (std::size_t i = 0; i < points.size(); ++i) {
    const ChunkPoint& p = points[i];
    os << "    {\"point\": " << p.point;
    if (grid.replicated) os << ", \"rep\": " << p.rep;
    os << ", \"assignment\": \""
       << json_escape(p.assignment) << "\", \"bytes\": " << p.block.size()
       << ", \"fingerprint\": \"" << fingerprint_text(p.fingerprint) << "\"}"
       << (i + 1 < points.size() ? "," : "") << "\n";
  }
  os << "  ],\n  \"metrics\": [";
  for (std::size_t i = 0; i < metrics.size(); ++i) {
    os << (i ? ",\n    \"" : "\n    \"") << hex_encode(metrics[i]) << "\"";
  }
  os << (metrics.empty() ? "]" : "\n  ]") << "\n}\n";
  os.precision(old_precision);
  atomic_write(root / (base + ".json"), os.str());
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
  require(find_string(text, "schema", file) == "pimsim-manifest-v1",
          "pimsim merge: '" + file + "': unknown schema (expected "
          "pimsim-manifest-v1)");
  GridSpec grid;
  grid.scenario = find_string(text, "scenario", file);
  grid.format = find_string(text, "format", file);
  grid.shards = find_size(text, "shards", file);
  grid.grid_fingerprint = find_fingerprint(text, "grid_fingerprint", file);
  const std::size_t total = find_size(text, "total_points", file);
  require(grid.shards >= 1, "pimsim merge: '" + file + "': shards must be >= 1");

  grid.replicated = text.find("\"replicated\": true") != std::string::npos;

  for (const std::string& line : point_lines(text)) {
    const std::size_t point = find_size(line, "point", file);
    const std::size_t shard = find_size(line, "shard", file);
    require(point == grid.assignments.size(),
            "pimsim merge: '" + file + "': points out of order");
    require(shard < grid.shards,
            "pimsim merge: '" + file + "': point assigned to shard " +
                std::to_string(shard) + " of " + std::to_string(grid.shards));
    grid.assignments.push_back(find_string(line, "assignment", file));
    grid.shard_of.push_back(shard);
    if (grid.replicated) {
      const std::size_t reps = find_size(line, "reps", file);
      require(reps >= 1, "pimsim merge: '" + file + "': point " +
                             std::to_string(point) + " declares zero reps");
      grid.point_reps.push_back(reps);
    }
  }
  require(grid.assignments.size() == total,
          "pimsim merge: '" + file + "': total_points disagrees with the "
          "point list");

  if (grid.replicated) {
    const std::size_t total_units = find_size(text, "total_units", file);
    for (const std::string& line : tagged_lines(text, "unit")) {
      const std::size_t unit = find_size(line, "unit", file);
      const std::size_t point = find_size(line, "point", file);
      const std::size_t rep = find_size(line, "rep", file);
      const std::size_t shard = find_size(line, "shard", file);
      require(unit == grid.unit_point.size(),
              "pimsim merge: '" + file + "': units out of order");
      require(point < grid.assignments.size() && rep < grid.point_reps[point],
              "pimsim merge: '" + file + "': unit " + std::to_string(unit) +
                  " names an out-of-range (point, rep)");
      require(shard < grid.shards,
              "pimsim merge: '" + file + "': unit assigned to shard " +
                  std::to_string(shard) + " of " +
                  std::to_string(grid.shards));
      grid.unit_point.push_back(point);
      grid.unit_rep.push_back(rep);
      grid.unit_shard.push_back(shard);
    }
    require(grid.unit_point.size() == total_units,
            "pimsim merge: '" + file + "': total_units disagrees with the "
            "unit list");
    std::size_t expected_units = 0;
    for (const std::size_t r : grid.point_reps) expected_units += r;
    require(expected_units == total_units,
            "pimsim merge: '" + file + "': unit list does not cover every "
            "(point, rep) once");
  }
  return grid;
}

ChunkData read_chunk(const std::string& dir, const GridSpec& grid,
                     std::size_t shard) {
  const std::string base = chunk_basename(shard, grid.shards);
  const fs::path side_path = fs::path(dir) / (base + ".json");
  const fs::path csv_path = fs::path(dir) / (base + ".csv");
  const std::string file = side_path.string();
  const std::string text = slurp(side_path, "chunk sidecar");

  require(find_string(text, "schema", file) == "pimsim-chunk-v1",
          "pimsim merge: '" + file + "': unknown schema (expected "
          "pimsim-chunk-v1)");
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
  data.shard = shard;
  data.wall_seconds = find_number(text, "wall_seconds", file);

  require((text.find("\"replicated\": true") != std::string::npos) ==
              grid.replicated,
          "pimsim merge: '" + file + "': replication mode differs from the "
          "manifest");

  const std::string blocks = slurp(csv_path, "chunk data");
  const std::vector<std::size_t> expected =
      grid.replicated ? units_of_shard(grid, shard)
                      : points_of_shard(grid, shard);
  std::size_t offset = 0;
  std::size_t next = 0;
  for (const std::string& line : point_lines(text)) {
    ChunkPoint p;
    p.point = find_size(line, "point", file);
    p.assignment = find_string(line, "assignment", file);
    const std::size_t bytes = find_size(line, "bytes", file);
    p.fingerprint = find_fingerprint(line, "fingerprint", file);
    if (grid.replicated) {
      p.rep = find_size(line, "rep", file);
      require(next < expected.size() &&
                  p.point == grid.unit_point[expected[next]] &&
                  p.rep == grid.unit_rep[expected[next]],
              "pimsim merge: '" + file + "': unit set diverges from the "
              "manifest's shard plan");
    } else {
      require(next < expected.size() && p.point == expected[next],
              "pimsim merge: '" + file + "': point set diverges from the "
              "manifest's shard plan");
    }
    require(p.point < grid.assignments.size() &&
                p.assignment == grid.assignments[p.point],
            "pimsim merge: '" + file + "': point assignment differs from "
            "the manifest");
    require(offset + bytes <= blocks.size(),
            "pimsim merge: '" + csv_path.string() + "': truncated (sidecar "
            "records more bytes than the file holds)");
    p.block = blocks.substr(offset, bytes);
    require(data_fingerprint(p.block) == p.fingerprint,
            "pimsim merge: '" + csv_path.string() + "': point " +
                std::to_string(p.point) +
                " bytes do not match the recorded fingerprint (corrupted or "
                "divergent chunk)");
    offset += bytes;
    ++next;
    data.points.push_back(std::move(p));
  }
  require(next == expected.size(),
          "pimsim merge: '" + file + "': chunk is missing points of its "
          "shard plan");
  require(offset == blocks.size(),
          "pimsim merge: '" + csv_path.string() + "': trailing bytes beyond "
          "the recorded points");

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

std::vector<std::size_t> chunks_present(const std::string& dir,
                                        const GridSpec& grid) {
  std::vector<std::string> names;
  for (const fs::directory_entry& entry : fs::directory_iterator(dir)) {
    names.push_back(entry.path().filename().string());
  }
  std::sort(names.begin(), names.end());  // directory order is unspecified

  const auto bad = [&dir](const std::string& name) -> std::size_t {
    throw InvalidArgument(
        "pimsim merge: unknown chunk-dir contents: '" + dir + "/" + name +
        "'; valid chunk files are chunk-<i>-of-<N>.csv/.json with N the "
        "manifest's shard count and 0 <= i < N");
  };
  std::vector<std::size_t> shards;
  for (const std::string& name : names) {
    if (name.rfind("chunk-", 0) != 0) continue;  // not chunk-like: ignored
    std::string stem = name;
    bool sidecar = false;
    if (stem.size() > 5 && stem.rfind(".json") == stem.size() - 5) {
      stem.erase(stem.size() - 5);
      sidecar = true;
    } else if (stem.size() > 4 && stem.rfind(".csv") == stem.size() - 4) {
      stem.erase(stem.size() - 4);
    } else {
      bad(name);
    }
    // stem must be exactly chunk-<i>-of-<N> with N == grid.shards, i < N.
    const std::size_t of = stem.find("-of-");
    if (of == std::string::npos) bad(name);
    const std::string index_text = stem.substr(6, of - 6);
    const std::string count_text = stem.substr(of + 4);
    std::size_t index = 0;
    std::size_t count = 0;
    try {
      std::size_t used = 0;
      index = std::stoul(index_text, &used);
      if (used != index_text.size() || index_text.empty()) bad(name);
      count = std::stoul(count_text, &used);
      if (used != count_text.size() || count_text.empty()) bad(name);
    } catch (const std::exception&) {
      bad(name);
    }
    if (count != grid.shards || index >= count) bad(name);
    if (sidecar) shards.push_back(index);
  }
  return shards;
}

}  // namespace pimsim::core
