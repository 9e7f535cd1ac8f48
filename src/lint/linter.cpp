#include "lint/linter.hpp"

#include <algorithm>
#include <cctype>
#include <cstddef>
#include <set>

namespace pimsim::lint {
namespace {

bool is_ident(char c) {
  return std::isalnum(static_cast<unsigned char>(c)) != 0 || c == '_';
}

/// The source with comments and string/char literals blanked to spaces
/// (newlines preserved), so token scans cannot match inside either, plus
/// the `lint:allow` annotations harvested from the comments.
struct Masked {
  std::string text;
  std::vector<std::size_t> line_starts;               // offset of line i (0-based)
  std::vector<std::vector<std::string>> line_allows;  // rules allowed per line
  std::vector<Finding> allow_findings;                // malformed annotations

  [[nodiscard]] int line_of(std::size_t offset) const {
    const auto it = std::upper_bound(line_starts.begin(), line_starts.end(),
                                     offset);
    return static_cast<int>(it - line_starts.begin());  // 1-based
  }
};

/// Parses every allow directive (rule list + mandatory reason, e.g.
/// `lint:allow(raw-entropy,const-cast): replaying a captured trace`)
/// inside one comment,
/// recording the allowed rules on `line`.  A missing reason or an unknown
/// rule id is itself a finding: an unexplained suppression is exactly the
/// kind of silent determinism debt this pass exists to surface.
void parse_allows(const std::string& comment, const std::string& path,
                  int line, Masked& out) {
  static const std::string kTag = "lint:allow(";
  std::size_t pos = 0;
  while ((pos = comment.find(kTag, pos)) != std::string::npos) {
    const std::size_t open = pos + kTag.size() - 1;
    const std::size_t close = comment.find(')', open);
    pos = open;
    if (close == std::string::npos) {
      out.allow_findings.push_back(
          {path, line, "bad-allow", "unclosed lint:allow(...)"});
      return;
    }
    // Split the rule list on commas.
    std::vector<std::string> rules;
    std::string name;
    for (std::size_t i = open + 1; i <= close; ++i) {
      const char c = comment[i];
      if (c == ',' || c == ')') {
        if (!name.empty()) rules.push_back(name);
        name.clear();
      } else if (!std::isspace(static_cast<unsigned char>(c))) {
        name += c;
      }
    }
    const auto& known = rule_ids();
    bool ok = !rules.empty();
    for (const std::string& r : rules) {
      if (std::find(known.begin(), known.end(), r) == known.end()) {
        out.allow_findings.push_back(
            {path, line, "bad-allow",
             "unknown rule '" + r + "' in lint:allow (see --list-rules)"});
        ok = false;
      }
    }
    // Require a justification after the closing paren: ":" or "--" then text.
    std::size_t after = close + 1;
    while (after < comment.size() &&
           std::isspace(static_cast<unsigned char>(comment[after]))) {
      ++after;
    }
    bool has_reason = false;
    if (after < comment.size() &&
        (comment[after] == ':' ||
         (comment[after] == '-' && after + 1 < comment.size() &&
          comment[after + 1] == '-'))) {
      std::size_t text_at = after + (comment[after] == ':' ? 1 : 2);
      while (text_at < comment.size() &&
             std::isspace(static_cast<unsigned char>(comment[text_at]))) {
        ++text_at;
      }
      has_reason = text_at < comment.size();
    }
    if (!has_reason) {
      out.allow_findings.push_back(
          {path, line, "bad-allow",
           "lint:allow needs a justification: lint:allow(rule): why"});
      ok = false;
    }
    if (ok) {
      auto& allowed = out.line_allows[static_cast<std::size_t>(line - 1)];
      allowed.insert(allowed.end(), rules.begin(), rules.end());
    }
    pos = close;
  }
}

Masked mask(const std::string& path, const std::string& src) {
  Masked out;
  out.text.assign(src.size(), ' ');
  out.line_starts.push_back(0);
  for (std::size_t i = 0; i < src.size(); ++i) {
    if (src[i] == '\n') {
      out.text[i] = '\n';
      out.line_starts.push_back(i + 1);
    }
  }
  out.line_allows.resize(out.line_starts.size());

  enum class State { kCode, kLineComment, kBlockComment, kString, kChar, kRaw };
  State state = State::kCode;
  std::string comment;       // accumulates the current comment's text
  int comment_line = 0;      // line the current comment started on
  std::string raw_delim;     // raw-string closing delimiter ")delim""
  const auto flush_comment = [&] {
    if (!comment.empty()) parse_allows(comment, path, comment_line, out);
    comment.clear();
  };

  for (std::size_t i = 0; i < src.size(); ++i) {
    const char c = src[i];
    const char next = i + 1 < src.size() ? src[i + 1] : '\0';
    switch (state) {
      case State::kCode:
        if (c == '/' && next == '/') {
          state = State::kLineComment;
          comment_line = out.line_of(i);
          ++i;
        } else if (c == '/' && next == '*') {
          state = State::kBlockComment;
          comment_line = out.line_of(i);
          ++i;
        } else if (c == '"') {
          // R"delim( ... )delim" — the only literal form that can span
          // lines and contain unescaped quotes.
          if (i > 0 && src[i - 1] == 'R' &&
              (i < 2 || !is_ident(src[i - 2]))) {
            raw_delim.clear();
            raw_delim.push_back(')');
            std::size_t j = i + 1;
            while (j < src.size() && src[j] != '(') raw_delim += src[j++];
            raw_delim += '"';
            i = j;  // consume through the opening '('
            state = State::kRaw;
          } else {
            state = State::kString;
          }
        } else if (c == '\'' && !(i > 0 && is_ident(src[i - 1]))) {
          // Not a digit separator (1'000'000).
          state = State::kChar;
        } else if (c != '\n') {
          out.text[i] = c;
        }
        break;
      case State::kLineComment:
        if (c == '\n') {
          flush_comment();
          state = State::kCode;
        } else {
          comment += c;
        }
        break;
      case State::kBlockComment:
        if (c == '*' && next == '/') {
          flush_comment();
          state = State::kCode;
          ++i;
        } else {
          comment += c;
        }
        break;
      case State::kString:
        if (c == '\\') {
          ++i;
        } else if (c == '"') {
          state = State::kCode;
        }
        break;
      case State::kChar:
        if (c == '\\') {
          ++i;
        } else if (c == '\'') {
          state = State::kCode;
        }
        break;
      case State::kRaw:
        if (c == ')' && src.compare(i, raw_delim.size(), raw_delim) == 0) {
          i += raw_delim.size() - 1;
          state = State::kCode;
        }
        break;
    }
  }
  flush_comment();
  return out;
}

/// Whole-token occurrences of `word` in the masked text.
std::vector<std::size_t> token_occurrences(const std::string& text,
                                           const std::string& word) {
  std::vector<std::size_t> out;
  std::size_t pos = 0;
  while ((pos = text.find(word, pos)) != std::string::npos) {
    const bool left_ok = pos == 0 || !is_ident(text[pos - 1]);
    const std::size_t end = pos + word.size();
    const bool right_ok = end >= text.size() || !is_ident(text[end]);
    if (left_ok && right_ok) out.push_back(pos);
    pos = end;
  }
  return out;
}

bool on_preprocessor_line(const Masked& m, std::size_t offset) {
  const int line = m.line_of(offset);
  std::size_t i = m.line_starts[static_cast<std::size_t>(line - 1)];
  while (i < m.text.size() &&
         (m.text[i] == ' ' || m.text[i] == '\t')) {
    ++i;
  }
  return i < m.text.size() && m.text[i] == '#';
}

std::size_t skip_ws(const std::string& text, std::size_t i) {
  while (i < text.size() &&
         std::isspace(static_cast<unsigned char>(text[i]))) {
    ++i;
  }
  return i;
}

/// Offset just past the `>` matching the `<` at `open` (npos if unmatched).
std::size_t match_angle(const std::string& text, std::size_t open) {
  int depth = 0;
  for (std::size_t i = open; i < text.size(); ++i) {
    if (text[i] == '<') ++depth;
    if (text[i] == '>' && --depth == 0) return i + 1;
    if (text[i] == ';' || text[i] == '{') break;  // clearly not a template
  }
  return std::string::npos;
}

struct Ruleset {
  const Masked& m;
  const std::string& path;
  std::vector<Finding>& findings;

  [[nodiscard]] bool allowed(const std::string& rule, int line) const {
    for (int l : {line, line - 1}) {
      if (l < 1 || l > static_cast<int>(m.line_allows.size())) continue;
      const auto& rules = m.line_allows[static_cast<std::size_t>(l - 1)];
      if (std::find(rules.begin(), rules.end(), rule) != rules.end()) {
        return true;
      }
    }
    return false;
  }

  void report(const std::string& rule, std::size_t offset,
              const std::string& message) const {
    const int line = m.line_of(offset);
    if (allowed(rule, line)) return;
    findings.push_back({path, line, rule, message});
  }
};

// --- const-cast ----------------------------------------------------------

void rule_const_cast(const Ruleset& r) {
  for (const std::size_t pos : token_occurrences(r.m.text, "const_cast")) {
    r.report("const-cast", pos,
             "const_cast hides mutation from the type system; use a mutable "
             "member or a non-const accessor");
  }
}

// --- raw-entropy ---------------------------------------------------------

void rule_raw_entropy(const Ruleset& r) {
  // All randomness flows through pimsim::Rng streams; rng.cpp/.hpp are
  // where the engine itself lives.
  if (r.path.find("src/common/rng.") != std::string::npos) return;
  struct Banned {
    const char* token;
    bool call_only;  // must be followed by '(' (avoids struct fields etc.)
  };
  static constexpr Banned kBanned[] = {
      {"rand", true},          {"srand", true},
      {"rand_r", true},        {"drand48", true},
      {"random_device", false}, {"system_clock", false},
      {"high_resolution_clock", false},
      {"time", true},          {"clock", true},
      {"gettimeofday", true},
  };
  for (const Banned& b : kBanned) {
    for (const std::size_t pos : token_occurrences(r.m.text, b.token)) {
      if (on_preprocessor_line(r.m, pos)) continue;
      const std::size_t end = pos + std::string(b.token).size();
      if (b.call_only) {
        const std::size_t after = skip_ws(r.m.text, end);
        if (after >= r.m.text.size() || r.m.text[after] != '(') continue;
        // Member calls (entry.time(), sim->time()) are fine; only the
        // global/std:: functions read ambient wall-clock state.
        std::size_t before = pos;
        while (before > 0 && std::isspace(static_cast<unsigned char>(
                                 r.m.text[before - 1]))) {
          --before;
        }
        if (before >= 1 && (r.m.text[before - 1] == '.')) continue;
        if (before >= 2 && r.m.text[before - 2] == '-' &&
            r.m.text[before - 1] == '>') {
          continue;
        }
        // A preceding identifier means a declaration (`SimTime time()`,
        // `ClockSpec clock()`), not a call — unless it is a statement
        // keyword (`return time(...)`).
        if (before >= 1 && is_ident(r.m.text[before - 1])) {
          std::size_t start = before;
          while (start > 0 && is_ident(r.m.text[start - 1])) --start;
          const std::string prev = r.m.text.substr(start, before - start);
          if (prev != "return" && prev != "co_return" && prev != "co_yield" &&
              prev != "else" && prev != "do") {
            continue;
          }
        }
      }
      r.report("raw-entropy", pos,
               std::string(b.token) +
                   " is nondeterministic input; derive randomness from a "
                   "seeded pimsim::Rng stream and time from sim.now()");
    }
  }
}

// --- mutable-static ------------------------------------------------------

void rule_mutable_static(const Ruleset& r) {
  std::vector<std::size_t> sites = token_occurrences(r.m.text, "static");
  for (const std::size_t pos : token_occurrences(r.m.text, "thread_local")) {
    sites.push_back(pos);
  }
  std::sort(sites.begin(), sites.end());
  for (const std::size_t pos : sites) {
    if (on_preprocessor_line(r.m, pos)) continue;
    // Examine the declaration up to its first ';', '=', or '{'.  A '('
    // first means a function (fine); 'const'/'constexpr'/'consteval'
    // before the terminator means immutable (fine).
    const std::size_t begin = pos + (r.m.text[pos] == 's' ? 6 : 12);
    bool immutable = false;
    bool function_like = false;
    std::size_t i = begin;
    std::string word;
    for (; i < r.m.text.size(); ++i) {
      const char c = r.m.text[i];
      if (is_ident(c)) {
        word += c;
        continue;
      }
      if (word == "const" || word == "constexpr" || word == "consteval" ||
          word == "constinit") {
        immutable = true;
      }
      word.clear();
      if (c == '(') {
        function_like = true;
        break;
      }
      if (c == ';' || c == '=' || c == '{') break;
    }
    if (word == "const" || word == "constexpr") immutable = true;
    if (immutable || function_like) continue;
    r.report("mutable-static", pos,
             "mutable static/thread_local state is initialization-order and "
             "thread-schedule dependent; pass state explicitly or mark it "
             "const/constexpr");
  }
}

// --- unordered containers ------------------------------------------------

void rule_unordered(const Ruleset& r) {
  // Pass 1: declarations.  Every unordered_map/unordered_set must carry a
  // lookup-only justification; collect the declared names for pass 2.
  std::set<std::string> names;
  for (const char* kind : {"unordered_map", "unordered_set"}) {
    for (const std::size_t pos : token_occurrences(r.m.text, kind)) {
      if (on_preprocessor_line(r.m, pos)) continue;  // #include <...>
      const std::size_t open = r.m.text.find('<', pos);
      std::size_t after = std::string::npos;
      if (open != std::string::npos && open < pos + std::string(kind).size() + 2) {
        after = match_angle(r.m.text, open);
      }
      // Extract the declared name: skip refs/pointers/cv to the first
      // identifier after the template arguments.
      if (after != std::string::npos) {
        std::size_t i = skip_ws(r.m.text, after);
        while (i < r.m.text.size() &&
               (r.m.text[i] == '&' || r.m.text[i] == '*')) {
          i = skip_ws(r.m.text, i + 1);
        }
        std::string word;
        while (i < r.m.text.size() && is_ident(r.m.text[i])) {
          word += r.m.text[i++];
        }
        if (word == "const") {
          i = skip_ws(r.m.text, i);
          word.clear();
          while (i < r.m.text.size() && is_ident(r.m.text[i])) {
            word += r.m.text[i++];
          }
        }
        if (!word.empty()) names.insert(word);
      }
      r.report("unordered-container", pos,
               std::string(kind) +
                   " orders elements by hash (and pointer keys by address): "
                   "justify lookup-only use with lint:allow, or use an "
                   "order-deterministic structure");
    }
  }

  // Pass 2: iteration over a name declared above.  Hash-ordered traversal
  // is how address-layout noise (ASLR, allocation order) reaches results
  // — including the FP-accumulation trap, where `sum += v` rounds
  // differently per visit order.
  const auto report_iter = [&](std::size_t offset, const std::string& name) {
    r.report("unordered-iter", offset,
             "iteration over unordered container '" + name +
                 "' visits elements in hash/pointer order; results and FP "
                 "accumulations inherit that order");
  };
  for (const std::string& name : names) {
    for (const std::size_t pos : token_occurrences(r.m.text, name)) {
      const std::size_t end = pos + name.size();
      // name.begin() / name.cbegin() / name.rbegin()
      if (end < r.m.text.size() && r.m.text[end] == '.') {
        const std::size_t call = skip_ws(r.m.text, end + 1);
        for (const char* it : {"begin", "cbegin", "rbegin"}) {
          const std::string fn(it);
          if (r.m.text.compare(call, fn.size(), fn) == 0 &&
              call + fn.size() < r.m.text.size() &&
              r.m.text[call + fn.size()] == '(') {
            report_iter(pos, name);
          }
        }
      }
      // for (... : name)
      std::size_t before = pos;
      while (before > 0 && std::isspace(static_cast<unsigned char>(
                               r.m.text[before - 1]))) {
        --before;
      }
      if (before >= 1 && r.m.text[before - 1] == ':' &&
          (before < 2 || r.m.text[before - 2] != ':')) {
        report_iter(pos, name);
      }
    }
  }
}

// --- unguarded-trace -----------------------------------------------------

void rule_unguarded_trace(const Ruleset& r) {
  // Scope: production sources only.  The observability layer itself and
  // the Tracer implementation are the machinery behind the guards, so
  // they are exempt (tests and tools call these freely anyway).
  if (r.path.find("src/") == std::string::npos) return;
  if (r.path.find("src/obs/") != std::string::npos) return;
  if (r.path.find("src/des/trace.") != std::string::npos) return;

  struct Hot {
    const char* token;
    const char* guard;
  };
  static constexpr Hot kHot[] = {
      {"trace", "tracing_enabled"},
      {"trace_at", "tracing_enabled"},
      {"metrics", "metrics_enabled"},
  };
  for (const Hot& h : kHot) {
    // Lines carrying the guard (typically `if (sim.tracing_enabled())`).
    std::vector<int> guard_lines;
    for (const std::size_t pos : token_occurrences(r.m.text, h.guard)) {
      guard_lines.push_back(r.m.line_of(pos));
    }
    for (const std::size_t pos : token_occurrences(r.m.text, h.token)) {
      // Only member calls (`sim.trace(...)`, `sim->metrics()`): the
      // guard contract covers the Simulation hot-path accessors, not
      // local helpers that happen to share the name.
      std::size_t before = pos;
      while (before > 0 && std::isspace(static_cast<unsigned char>(
                               r.m.text[before - 1]))) {
        --before;
      }
      const bool member =
          (before >= 1 && r.m.text[before - 1] == '.') ||
          (before >= 2 && r.m.text[before - 2] == '-' &&
           r.m.text[before - 1] == '>');
      if (!member) continue;
      const std::size_t after =
          skip_ws(r.m.text, pos + std::string(h.token).size());
      if (after >= r.m.text.size() || r.m.text[after] != '(') continue;
      const int line = r.m.line_of(pos);
      const bool guarded =
          std::any_of(guard_lines.begin(), guard_lines.end(),
                      [line](int g) { return g <= line && g >= line - 2; });
      if (guarded) continue;
      r.report("unguarded-trace", pos,
               std::string(".") + h.token + "() without a " + h.guard +
                   "() guard on the same line or the two lines above; "
                   "observability must cost one predicted branch when off "
                   "(argument evaluation is not free)");
    }
  }
}

// --- process-env ---------------------------------------------------------

void rule_process_env(const Ruleset& r) {
  // Observability switches travel as obs::RunOptions through a Session;
  // RunOptions::from_env is the one sanctioned reader of the environment.
  if (r.path.find("src/") == std::string::npos) return;
  for (const char* fn : {"getenv", "setenv", "unsetenv", "putenv"}) {
    for (const std::size_t pos : token_occurrences(r.m.text, fn)) {
      if (on_preprocessor_line(r.m, pos)) continue;
      r.report("process-env", pos,
               std::string(fn) +
                   " reads or writes process-global state that leaks across "
                   "runs and races with worker threads; pass obs::RunOptions "
                   "through an obs::Session instead");
    }
  }
}

}  // namespace

const std::vector<std::string>& rule_ids() {
  static const std::vector<std::string> kRules = {
      "unordered-container", "unordered-iter", "raw-entropy",
      "mutable-static",      "const-cast",     "bad-allow",
      "unguarded-trace",     "process-env",
  };
  return kRules;
}

std::vector<Finding> lint_source(const std::string& path,
                                 const std::string& content) {
  const Masked m = mask(path, content);
  std::vector<Finding> findings = m.allow_findings;
  const Ruleset r{m, path, findings};
  rule_const_cast(r);
  rule_raw_entropy(r);
  rule_mutable_static(r);
  rule_unordered(r);
  rule_unguarded_trace(r);
  rule_process_env(r);
  std::sort(findings.begin(), findings.end(),
            [](const Finding& a, const Finding& b) {
              if (a.line != b.line) return a.line < b.line;
              return a.rule < b.rule;
            });
  return findings;
}

std::string to_string(const Finding& finding) {
  return finding.file + ":" + std::to_string(finding.line) + ": [" +
         finding.rule + "] " + finding.message;
}

}  // namespace pimsim::lint
