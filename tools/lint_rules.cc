// Copyright (c) 2026 madnet authors. All rights reserved.

#include "lint_rules.h"

#include <algorithm>
#include <cctype>
#include <cstdio>
#include <map>
#include <regex>
#include <set>
#include <sstream>

#include "project_model.h"

namespace madnet::lint {
namespace {

// ---------------------------------------------------------------------------
// Source preprocessing.

std::vector<std::string> SplitLines(const std::string& text) {
  std::vector<std::string> lines;
  std::string current;
  for (char c : text) {
    if (c == '\n') {
      lines.push_back(current);
      current.clear();
    } else {
      current += c;
    }
  }
  if (!current.empty()) lines.push_back(current);
  return lines;
}

bool StartsWith(const std::string& s, const std::string& prefix) {
  return s.size() >= prefix.size() && s.compare(0, prefix.size(), prefix) == 0;
}

bool Contains(const std::string& s, const std::string& needle) {
  return s.find(needle) != std::string::npos;
}

// Per-character lexical classification used to derive both the
// code-only view (rules) and the comment-only view (NOLINT suppressions).
enum class CharClass : unsigned char { kCode, kComment, kLiteral };

std::vector<CharClass> ClassifyChars(const std::string& content) {
  std::vector<CharClass> classes(content.size(), CharClass::kCode);
  enum class State {
    kCode,
    kLineComment,
    kBlockComment,
    kString,
    kChar,
    kRawString,
  };
  State state = State::kCode;
  std::string raw_delim;  // ")delim" terminator of the active raw string.
  size_t i = 0;
  const size_t n = content.size();
  while (i < n) {
    const char c = content[i];
    const char next = i + 1 < n ? content[i + 1] : '\0';
    switch (state) {
      case State::kCode:
        if (c == '/' && next == '/') {
          state = State::kLineComment;
          classes[i] = classes[i + 1] = CharClass::kComment;
          i += 2;
        } else if (c == '/' && next == '*') {
          state = State::kBlockComment;
          classes[i] = classes[i + 1] = CharClass::kComment;
          i += 2;
        } else if (c == 'R' && next == '"' &&
                   (i == 0 || (!isalnum(static_cast<unsigned char>(
                                   content[i - 1])) &&
                               content[i - 1] != '_'))) {
          // Raw string literal: R"delim( ... )delim".
          size_t paren = content.find('(', i + 2);
          if (paren == std::string::npos) {
            ++i;  // Malformed; treat as code.
            break;
          }
          raw_delim = ")" + content.substr(i + 2, paren - i - 2) + "\"";
          for (size_t j = i; j <= paren; ++j) classes[j] = CharClass::kLiteral;
          i = paren + 1;
          state = State::kRawString;
        } else if (c == '"') {
          state = State::kString;
          classes[i] = CharClass::kLiteral;
          ++i;
        } else if (c == '\'') {
          // A quote right after a digit is a C++14 digit separator
          // (100'000), not a character literal.
          if (i > 0 && isdigit(static_cast<unsigned char>(content[i - 1]))) {
            ++i;
          } else {
            state = State::kChar;
            classes[i] = CharClass::kLiteral;
            ++i;
          }
        } else {
          ++i;
        }
        break;
      case State::kLineComment:
        if (c == '\n') {
          state = State::kCode;
        } else {
          classes[i] = CharClass::kComment;
        }
        ++i;
        break;
      case State::kBlockComment:
        if (c == '*' && next == '/') {
          classes[i] = classes[i + 1] = CharClass::kComment;
          i += 2;
          state = State::kCode;
        } else {
          classes[i] = CharClass::kComment;
          ++i;
        }
        break;
      case State::kString:
        if (c == '\\' && i + 1 < n) {
          classes[i] = classes[i + 1] = CharClass::kLiteral;
          i += 2;
        } else {
          if (c == '"') state = State::kCode;
          classes[i] = CharClass::kLiteral;
          ++i;
        }
        break;
      case State::kChar:
        if (c == '\\' && i + 1 < n) {
          classes[i] = classes[i + 1] = CharClass::kLiteral;
          i += 2;
        } else {
          if (c == '\'') state = State::kCode;
          classes[i] = CharClass::kLiteral;
          ++i;
        }
        break;
      case State::kRawString:
        if (content.compare(i, raw_delim.size(), raw_delim) == 0) {
          for (size_t j = i; j < i + raw_delim.size(); ++j) {
            classes[j] = CharClass::kLiteral;
          }
          i += raw_delim.size();
          state = State::kCode;
        } else {
          classes[i] = CharClass::kLiteral;
          ++i;
        }
        break;
    }
  }
  return classes;
}

// Blanks every character whose class is not `keep` (newlines survive, so
// line numbers are preserved).
std::string KeepOnly(const std::string& content,
                     const std::vector<CharClass>& classes, CharClass keep) {
  std::string out = content;
  for (size_t i = 0; i < content.size(); ++i) {
    if (content[i] != '\n' && classes[i] != keep) out[i] = ' ';
  }
  return out;
}

}  // namespace

std::string StripCommentsAndStrings(const std::string& content) {
  return KeepOnly(content, ClassifyChars(content), CharClass::kCode);
}

namespace {

// The comment-only view: NOLINT directives are only honoured (and only
// policed) inside comments, so a string literal mentioning NOLINT — e.g.
// in this linter's own sources — is not a directive.
std::string ExtractComments(const std::string& content) {
  return KeepOnly(content, ClassifyChars(content), CharClass::kComment);
}

// ---------------------------------------------------------------------------
// Suppressions.

struct Suppressions {
  // line (1-based) -> rules silenced on that line.
  std::map<int, std::set<std::string>> by_line;
  std::vector<Diagnostic> diagnostics;  // Malformed NOLINTs.
};

bool IsKnownRule(const std::string& rule) {
  const auto& names = RuleNames();
  return std::find(names.begin(), names.end(), rule) != names.end();
}

// Recognizes NOLINT(rule[,rule...]): justification  and the NEXTLINE form.
// `comment_lines` is the comment-only view of the file.
Suppressions CollectSuppressions(const std::string& path,
                                 const std::vector<std::string>& comment_lines) {
  static const std::regex kNolintRe(
      "NOLINT(NEXTLINE)?\\(([A-Za-z0-9_,\\- ]*)\\)(:?)\\s*(.*)");
  Suppressions result;
  for (size_t idx = 0; idx < comment_lines.size(); ++idx) {
    const int line = static_cast<int>(idx) + 1;
    std::smatch match;
    if (!std::regex_search(comment_lines[idx], match, kNolintRe)) continue;
    const bool next_line = match[1].matched && match[1].length() > 0;
    const std::string rule_list = match[2].str();
    const bool has_colon = match[3].length() > 0;
    const std::string justification = match[4].str();

    if (!has_colon || justification.find_first_not_of(" \t") ==
                          std::string::npos) {
      result.diagnostics.push_back(
          {path, line, "madnet-nolint",
           "NOLINT requires a justification: "
           "// NOLINT(madnet-<rule>): <why this is safe>"});
      continue;
    }
    const int target = next_line ? line + 1 : line;
    std::stringstream rules(rule_list);
    std::string rule;
    while (std::getline(rules, rule, ',')) {
      const size_t begin = rule.find_first_not_of(" \t");
      if (begin == std::string::npos) continue;
      const size_t end = rule.find_last_not_of(" \t");
      rule = rule.substr(begin, end - begin + 1);
      if (StartsWith(rule, "madnet-") && !IsKnownRule(rule)) {
        result.diagnostics.push_back(
            {path, line, "madnet-nolint",
             "unknown lint rule '" + rule + "' in NOLINT"});
        continue;
      }
      result.by_line[target].insert(rule);
    }
  }
  return result;
}

bool Suppressed(const Suppressions& suppressions, int line,
                const std::string& rule) {
  auto it = suppressions.by_line.find(line);
  if (it == suppressions.by_line.end()) return false;
  return it->second.count(rule) > 0;
}

// ---------------------------------------------------------------------------
// Per-file scan context.

struct FileScan {
  std::string path;
  std::vector<std::string> raw_lines;
  std::vector<std::string> code_lines;  // Comments/strings blanked.
  Suppressions suppressions;
};

FileScan ScanFile(const std::string& path, const std::string& content) {
  FileScan scan;
  scan.path = path;
  scan.raw_lines = SplitLines(content);
  scan.code_lines = SplitLines(StripCommentsAndStrings(content));
  scan.code_lines.resize(scan.raw_lines.size());
  scan.suppressions =
      CollectSuppressions(path, SplitLines(ExtractComments(content)));
  return scan;
}

bool InDirectory(const std::string& path, const std::string& dir) {
  return StartsWith(path, dir) || Contains(path, "/" + dir);
}

// ---------------------------------------------------------------------------
// Simple line-regex rules.

struct LineRule {
  const char* rule;
  std::regex pattern;
  const char* message;
  // Empty = applies everywhere; otherwise the path must be under one of
  // these directory prefixes.
  std::vector<std::string> only_under;
  // Paths containing any of these substrings are exempt.
  std::vector<std::string> allowlist;
};

const std::vector<LineRule>& LineRules() {
  static const std::vector<LineRule> rules{
      {"madnet-rand",
       std::regex("\\bstd\\s*::\\s*rand\\b|\\bsrand\\s*\\("),
       "std::rand/srand is a hidden global RNG; draw from a seeded "
       "madnet::Rng (util/random.h) instead",
       {},
       {}},
      {"madnet-wallclock",
       std::regex("\\btime\\s*\\(\\s*(nullptr|NULL|0)\\s*\\)|"
                  "\\bgettimeofday\\s*\\(|\\blocaltime\\s*\\(|"
                  "\\bgmtime\\s*\\(|\\bsystem_clock\\b"),
       "wall-clock time makes runs irreproducible; simulation code must "
       "use sim::Simulator::Now() (std::chrono::steady_clock is allowed "
       "outside src/ for benchmark timing only)",
       {"src/"},
       {}},
      {"madnet-random-device",
       std::regex("\\bstd\\s*::\\s*random_device\\b"),
       "std::random_device is nondeterministic entropy; seed a "
       "madnet::Rng explicitly so the run is reproducible",
       {},
       {"src/util/random"}},
      {"madnet-unseeded-mt19937",
       std::regex("\\bstd\\s*::\\s*mt19937(_64)?\\s+\\w+\\s*(;|\\{\\s*\\}|"
                  "\\(\\s*\\))|\\bstd\\s*::\\s*mt19937(_64)?\\s*(\\{\\s*\\}|"
                  "\\(\\s*\\))"),
       "default-constructed std::mt19937 uses a fixed-but-implicit seed; "
       "prefer madnet::Rng(seed), or pass the seed explicitly",
       {},
       {}},
      {"madnet-stderr",
       std::regex("\\bfprintf\\s*\\(\\s*stderr\\b|"
                  "\\bfputs\\s*\\([^)]*,\\s*stderr\\s*\\)"),
       "direct stderr writes bypass the locked Logger (records can shear "
       "under parallel sweeps and lose the sim-time prefix); use "
       "MADNET_LOG_ERROR/WARN from util/logging.h",
       {},
       {"util/logging", "tools/"}},
  };
  return rules;
}

// madnet-wallclock additionally bans time()/gettimeofday everywhere (not
// just src/): benchmarks must use steady_clock, never the wall clock.
const std::regex& WallclockEverywhereRe() {
  static const std::regex re(
      "\\btime\\s*\\(\\s*(nullptr|NULL|0)\\s*\\)|\\bgettimeofday\\s*\\(");
  return re;
}

// ---------------------------------------------------------------------------
// madnet-raw-new.

// Files allowed to use raw new/delete (custom allocators, arenas). Matched
// as path substrings; currently empty on purpose — widen only with care.
const std::vector<std::string>& RawNewAllowlist() {
  static const std::vector<std::string> allow{};
  return allow;
}

void CheckRawNew(const FileScan& scan, std::vector<Diagnostic>* out) {
  for (const std::string& allowed : RawNewAllowlist()) {
    if (Contains(scan.path, allowed)) return;
  }
  static const std::regex kNewAnyRe("\\bnew\\b");
  static const std::regex kDeleteRe("\\bdelete\\b(\\s*\\[\\s*\\])?");
  static const std::regex kDeletedFnRe("=\\s*delete\\b");
  static const std::regex kOperatorRe("\\boperator\\b");
  for (size_t idx = 0; idx < scan.code_lines.size(); ++idx) {
    const std::string& line = scan.code_lines[idx];
    const int lineno = static_cast<int>(idx) + 1;
    if (std::regex_search(line, kNewAnyRe) &&
        !std::regex_search(line, kOperatorRe)) {
      if (!Suppressed(scan.suppressions, lineno, "madnet-raw-new")) {
        out->push_back({scan.path, lineno, "madnet-raw-new",
                        "raw 'new': use std::make_unique/std::make_shared "
                        "or a container"});
      }
    }
    if (std::regex_search(line, kDeleteRe) &&
        !std::regex_search(line, kDeletedFnRe) &&
        !std::regex_search(line, kOperatorRe)) {
      if (!Suppressed(scan.suppressions, lineno, "madnet-raw-new")) {
        out->push_back({scan.path, lineno, "madnet-raw-new",
                        "raw 'delete': ownership belongs in a smart "
                        "pointer or container"});
      }
    }
  }
}

// ---------------------------------------------------------------------------
// madnet-unordered-iteration.

// The rule covers all of src/: hash-order iteration is a portability trap
// wherever it feeds FP sums, RNG draws, broadcast order, or user-visible
// output, not just in the stats/scenario aggregation paths it originally
// guarded. Order-independent folds carry a justified NOLINT instead.
bool InUnorderedIterationScope(const std::string& path) {
  return InDirectory(path, "src/");
}

// Collects identifiers bound to unordered containers on `line`: variables
// and members (`std::unordered_map<...> name_;` / `... name = ...`) and
// accessors returning them (`const std::unordered_map<...>& name() ...`).
void CollectUnorderedNames(const std::string& line,
                           std::set<std::string>* names) {
  static const std::regex kUnorderedRe("\\bunordered_(map|set)\\b");
  if (!std::regex_search(line, kUnorderedRe)) return;
  static const std::regex kBindingRe("([A-Za-z_][A-Za-z0-9_]*)\\s*[;=(]");
  auto begin = std::sregex_iterator(line.begin(), line.end(), kBindingRe);
  for (auto it = begin; it != std::sregex_iterator(); ++it) {
    const std::string name = (*it)[1].str();
    if (name == "unordered_map" || name == "unordered_set" || name == "std" ||
        name == "const" || name == "if" || name == "for" || name == "while" ||
        name == "return" || name == "operator") {
      continue;
    }
    names->insert(name);
  }
}

void CheckUnorderedIteration(const FileScan& scan,
                             const std::set<std::string>& unordered_names,
                             std::vector<Diagnostic>* out) {
  if (!InUnorderedIterationScope(scan.path)) return;
  static const std::regex kRangeForRe("\\bfor\\s*\\([^)]*:([^)]*)\\)");
  for (size_t idx = 0; idx < scan.code_lines.size(); ++idx) {
    const std::string& line = scan.code_lines[idx];
    std::smatch match;
    if (!std::regex_search(line, match, kRangeForRe)) continue;
    const std::string range_expr = match[1].str();
    std::string offender;
    if (Contains(range_expr, "unordered_")) {
      offender = "an unordered container";
    } else {
      static const std::regex kIdentRe("[A-Za-z_][A-Za-z0-9_]*");
      auto begin = std::sregex_iterator(range_expr.begin(), range_expr.end(),
                                        kIdentRe);
      for (auto it = begin; it != std::sregex_iterator(); ++it) {
        if (unordered_names.count(it->str()) > 0) {
          offender = "'" + it->str() + "'";
          break;
        }
      }
    }
    if (offender.empty()) continue;
    const int lineno = static_cast<int>(idx) + 1;
    if (Suppressed(scan.suppressions, lineno, "madnet-unordered-iteration")) {
      continue;
    }
    out->push_back(
        {scan.path, lineno, "madnet-unordered-iteration",
         "iteration over " + offender +
             ": hash order is not deterministic across platforms or "
             "library versions; use std::map/std::set, sort first, or "
             "NOLINT with a justification that the fold is "
             "order-independent"});
  }
}

// ---------------------------------------------------------------------------
// madnet-hot-alloc.

// Functions annotated with a `// MADNET_HOT` comment line are the per-event
// broadcast/queue paths: steady-state execution must not allocate. The rule
// flags obvious per-call allocations — `new`, make_shared/make_unique, and
// growth calls on containers — inside the function body following the
// marker. Receivers whose name chain identifies a deliberately reused
// buffer (scratch/arena/slot/pool/free vectors, out-parameters) are
// allowed; anything else needs a justified suppression (typically
// "amortized O(1) growth").

// True if `name` identifies a reused buffer or an out-parameter.
bool IsReusedBufferName(const std::string& name) {
  for (const char* marker : {"scratch", "arena", "slot", "pool", "free"}) {
    if (Contains(name, marker)) return true;
  }
  if (name == "out" || StartsWith(name, "out_")) return true;
  if (name.size() >= 4 && name.compare(name.size() - 4, 4, "_out") == 0) {
    return true;
  }
  // Trailing-underscore members: strip and re-test the out-param forms.
  if (!name.empty() && name.back() == '_') {
    return IsReusedBufferName(name.substr(0, name.size() - 1));
  }
  return false;
}

// Marks every line that lies inside a MADNET_HOT function body: from the
// `// MADNET_HOT` marker line, the body spans the first '{' on a following
// (or the marker's own) code line through its matching '}'.
std::vector<bool> HotRegionLines(const FileScan& scan) {
  std::vector<bool> hot(scan.code_lines.size(), false);
  static const std::regex kMarkerRe("//\\s*MADNET_HOT\\b");
  size_t idx = 0;
  while (idx < scan.raw_lines.size()) {
    if (!std::regex_search(scan.raw_lines[idx], kMarkerRe)) {
      ++idx;
      continue;
    }
    // Find the opening brace, then track depth on the code-only view.
    int depth = 0;
    bool opened = false;
    size_t body = idx + 1;
    for (; body < scan.code_lines.size(); ++body) {
      for (char c : scan.code_lines[body]) {
        if (c == '{') {
          ++depth;
          opened = true;
        } else if (c == '}') {
          --depth;
        }
      }
      if (opened) hot[body] = true;
      if (opened && depth <= 0) break;
      // A declaration (prototype ending in ';' before any '{') has no
      // body; stop scanning so the marker cannot swallow the rest of the
      // file.
      if (!opened && Contains(scan.code_lines[body], ";")) break;
    }
    idx = body + 1;
  }
  return hot;
}

// True if the (code-view) line performs a heap allocation that the hot-path
// policy bans: `new`, make_shared/make_unique, or growth on a container
// whose receiver chain does not name a reused scratch/arena/pool buffer or
// an out-parameter. Shared by madnet-hot-alloc (direct) and
// madnet-hot-transitive-alloc (call-graph reachable).
bool LineHasHotAllocViolation(const std::string& line) {
  static const std::regex kAllocRe(
      "\\bnew\\b|\\bmake_(shared|unique)\\b");
  static const std::regex kGrowRe(
      "((?:[A-Za-z_][A-Za-z0-9_]*\\s*(?:\\.|->)\\s*)+)"
      "(push_back|emplace_back|emplace|insert)\\s*\\(");
  static const std::regex kIdentRe("[A-Za-z_][A-Za-z0-9_]*");
  if (std::regex_search(line, kAllocRe)) return true;
  std::smatch match;
  std::string rest = line;
  while (std::regex_search(rest, match, kGrowRe)) {
    // Allow if any identifier in the receiver chain names a reused
    // buffer (covers `scratch_.push_back` and `out->ids.push_back`).
    const std::string chain = match[1].str();
    bool allowed = false;
    auto begin = std::sregex_iterator(chain.begin(), chain.end(), kIdentRe);
    for (auto it = begin; it != std::sregex_iterator(); ++it) {
      if (IsReusedBufferName(it->str())) {
        allowed = true;
        break;
      }
    }
    if (!allowed) return true;
    rest = match.suffix().str();
  }
  return false;
}

void CheckHotAlloc(const FileScan& scan, std::vector<Diagnostic>* out) {
  const std::vector<bool> hot = HotRegionLines(scan);
  for (size_t idx = 0; idx < scan.code_lines.size(); ++idx) {
    if (!hot[idx]) continue;
    const int lineno = static_cast<int>(idx) + 1;
    if (!LineHasHotAllocViolation(scan.code_lines[idx])) continue;
    if (Suppressed(scan.suppressions, lineno, "madnet-hot-alloc")) continue;
    out->push_back(
        {scan.path, lineno, "madnet-hot-alloc",
         "allocation in a MADNET_HOT function: reuse a scratch/arena "
         "buffer, or NOLINT with a justification if growth is amortized"});
  }
}

// ---------------------------------------------------------------------------
// madnet-layering.

// The declared architecture, lowest layer first. A src/<module> file may
// include its own module and any module of a *strictly lower* layer.
// Same-layer includes are tolerated (the sets below are peers by design)
// but the module include graph must stay acyclic — the cycle check fails
// the build the moment e.g. core -> net gains a net -> core back edge.
// Keep this table in sync with docs/STATIC_ANALYSIS.md ("Layering") and
// docs/architecture.md.
struct Layer {
  const char* module;
  int rank;
};

const std::vector<Layer>& LayerTable() {
  static const std::vector<Layer> table{
      {"util", 0},
      {"sketch", 1}, {"obs", 1},
      {"core", 2},   {"mobility", 2}, {"net", 2}, {"sim", 2},
      {"fault", 3},  {"stats", 3},    {"scenario", 3},
      {"exec", 4},
  };
  return table;
}

int LayerRankOf(const std::string& module) {
  for (const Layer& layer : LayerTable()) {
    if (module == layer.module) return layer.rank;
  }
  return -1;
}

const char* kLayerDagText =
    "util -> {sketch,obs} -> {core,mobility,net,sim} -> "
    "{fault,stats,scenario} -> exec";

// Looks up the scan of `path` (for suppression checks on diagnostics the
// project rules attribute to arbitrary files).
const FileScan* ScanOf(const std::vector<FileScan>& scans,
                       const std::string& path) {
  for (const FileScan& scan : scans) {
    if (scan.path == path) return &scan;
  }
  return nullptr;
}

void CheckLayering(const ProjectModel& model,
                   const std::vector<FileScan>& scans,
                   std::vector<Diagnostic>* out) {
  // Edge direction checks, file by file.
  for (const ModelFile& file : model.files()) {
    if (!file.in_src) continue;
    const FileScan* scan = ScanOf(scans, file.path);
    const int source_rank = LayerRankOf(file.module);
    if (source_rank < 0) {
      out->push_back(
          {file.path, 1, "madnet-layering",
           "module 'src/" + file.module +
               "' is not in the layer table; add it to LayerTable() in "
               "tools/lint_rules.cc and to docs/STATIC_ANALYSIS.md"});
      continue;
    }
    for (const IncludeSite& site : file.includes) {
      if (site.module.empty() || site.module == file.module) continue;
      if (scan != nullptr &&
          Suppressed(scan->suppressions, site.line, "madnet-layering")) {
        continue;
      }
      const int target_rank = LayerRankOf(site.module);
      if (target_rank < 0) {
        out->push_back(
            {file.path, site.line, "madnet-layering",
             "include of '" + site.target + "': module '" + site.module +
                 "' is not in the layer table; add it to LayerTable() in "
                 "tools/lint_rules.cc"});
        continue;
      }
      if (target_rank > source_rank) {
        out->push_back(
            {file.path, site.line, "madnet-layering",
             "layer violation: src/" + file.module + " (layer " +
                 std::to_string(source_rank) + ") may not include src/" +
                 site.module + " (layer " + std::to_string(target_rank) +
                 "); the dependency DAG is " + kLayerDagText +
                 " (docs/STATIC_ANALYSIS.md)"});
      }
    }
  }

  // Cycle check over the module projection (catches same-layer cycles the
  // rank test cannot, e.g. core -> net -> core). Deterministic: modules
  // and edges iterate in sorted order.
  std::map<std::string, std::vector<std::string>> adjacency;
  for (const auto& [edge, site] : model.module_edges()) {
    adjacency[edge.first].push_back(edge.second);
  }
  std::map<std::string, int> color;  // 0 white, 1 gray, 2 black.
  std::vector<std::string> path;
  // Iterative DFS with an explicit stack of (node, next-child) frames.
  for (const auto& [start, unused] : adjacency) {
    if (color[start] != 0) continue;
    std::vector<std::pair<std::string, size_t>> stack{{start, 0}};
    color[start] = 1;
    path.push_back(start);
    while (!stack.empty()) {
      auto& [node, next] = stack.back();
      const auto it = adjacency.find(node);
      if (it == adjacency.end() || next >= it->second.size()) {
        color[node] = 2;
        path.pop_back();
        stack.pop_back();
        continue;
      }
      const std::string& target = it->second[next++];
      if (color[target] == 1) {
        // Back edge: render the cycle path from `target` around to `node`.
        std::string cycle;
        bool in_cycle = false;
        for (const std::string& module : path) {
          if (module == target) in_cycle = true;
          if (in_cycle) cycle += module + " -> ";
        }
        cycle += target;
        const auto site =
            model.module_edges().find(std::make_pair(node, target));
        const std::string at_file =
            site != model.module_edges().end() ? site->second.file : "";
        const int at_line =
            site != model.module_edges().end() ? site->second.line : 1;
        const FileScan* scan = ScanOf(scans, at_file);
        if (scan == nullptr ||
            !Suppressed(scan->suppressions, at_line, "madnet-layering")) {
          out->push_back(
              {at_file, at_line, "madnet-layering",
               "include cycle between src modules: " + cycle +
                   "; break the cycle (dependency-invert or move the "
                   "shared type down a layer)"});
        }
        continue;
      }
      if (color[target] == 0) {
        color[target] = 1;
        path.push_back(target);
        stack.push_back({target, 0});
      }
    }
  }
}

// ---------------------------------------------------------------------------
// madnet-hot-transitive-alloc.

void CheckHotTransitiveAlloc(const ProjectModel& model,
                             const std::vector<FileScan>& scans,
                             std::vector<Diagnostic>* out) {
  for (const auto& reachable : model.HotReachableFunctions()) {
    const ModelFile& file =
        model.files()[static_cast<size_t>(reachable.function.first)];
    const FunctionSpan& span =
        file.functions[static_cast<size_t>(reachable.function.second)];
    const FileScan* scan = ScanOf(scans, file.path);
    if (scan == nullptr) continue;
    // Lines already inside a directly-marked MADNET_HOT body belong to
    // madnet-hot-alloc; this rule covers the unmarked remainder.
    const std::vector<bool> directly_hot = HotRegionLines(*scan);
    for (int lineno = span.body_begin; lineno <= span.body_end; ++lineno) {
      const size_t idx = static_cast<size_t>(lineno) - 1;
      if (idx >= scan->code_lines.size()) break;
      if (directly_hot[idx]) continue;
      if (!LineHasHotAllocViolation(scan->code_lines[idx])) continue;
      if (Suppressed(scan->suppressions, lineno,
                     "madnet-hot-transitive-alloc")) {
        continue;
      }
      const std::string name =
          span.qualified.empty() ? span.name : span.qualified;
      out->push_back(
          {file.path, lineno, "madnet-hot-transitive-alloc",
           "allocation in '" + name +
               "', which is reachable from a MADNET_HOT function (" +
               reachable.chain +
               "): reuse a scratch/arena buffer, or NOLINT with a "
               "justification (cold branch, amortized growth, or a "
               "heuristic call-graph false positive)"});
    }
  }
}

// ---------------------------------------------------------------------------
// madnet-rng-fork-label.

// util/random owns Fork() itself (implementation + tests of the mixer).
bool ExemptFromForkLabelRule(const std::string& path) {
  return Contains(path, "src/util/random");
}

std::string HexLabel(uint64_t value) {
  std::ostringstream out;
  out << "0x" << std::hex << std::uppercase << value;
  return out.str();
}

void CheckRngForkLabel(const ProjectModel& model,
                       const std::vector<FileScan>& scans,
                       std::vector<Diagnostic>* out) {
  struct Site {
    const ModelFile* file;
    const ForkSite* fork;
  };
  std::vector<Site> sites;
  for (const ModelFile& file : model.files()) {
    if (!file.in_src || ExemptFromForkLabelRule(file.path)) continue;
    for (const ForkSite& fork : file.forks) {
      sites.push_back(Site{&file, &fork});
    }
  }
  // Pass 1: literal labels, grouped by value for duplicate detection.
  std::map<uint64_t, std::vector<const Site*>> by_value;
  for (const Site& site : sites) {
    if (site.fork->literal) by_value[site.fork->value].push_back(&site);
  }
  for (const Site& site : sites) {
    const FileScan* scan = ScanOf(scans, site.file->path);
    if (scan != nullptr && Suppressed(scan->suppressions, site.fork->line,
                                      "madnet-rng-fork-label")) {
      continue;
    }
    if (!site.fork->literal) {
      out->push_back(
          {site.file->path, site.fork->line, "madnet-rng-fork-label",
           "Rng::Fork label '" + site.fork->argument +
               "' is not a compile-time integer literal, so stream "
               "identity cannot be audited project-wide; use a distinct "
               "literal, or NOLINT with a justification naming the "
               "disjoint label range a derived label draws from"});
      continue;
    }
    const std::vector<const Site*>& peers = by_value[site.fork->value];
    if (peers.size() > 1) {
      // Name one *other* site so the message is actionable.
      const Site* other = nullptr;
      for (const Site* peer : peers) {
        if (peer->file != site.file || peer->fork != site.fork) {
          other = peer;
          break;
        }
      }
      out->push_back(
          {site.file->path, site.fork->line, "madnet-rng-fork-label",
           "duplicate Rng::Fork label " + HexLabel(site.fork->value) +
               " (also used at " +
               (other != nullptr
                    ? other->file->path + ":" +
                          std::to_string(other->fork->line)
                    : "another site") +
               "): identical labels fork *correlated* streams; every Fork "
               "site needs a project-unique label"});
    }
  }
}

// ---------------------------------------------------------------------------
// madnet-trace-category-sync.
//
// src/obs/trace.h declares the category bit constants and
// kTraceCategoryCount; src/obs/trace.cc names them (TraceCategoryName) and
// parses them (ParseTraceCategories). A new category that misses one of
// those sites compiles fine and silently mislabels records ("?") or
// rejects the category on the command line, so the linter cross-checks the
// three whenever both files are in the scanned set.

bool EndsWith(const std::string& s, const std::string& suffix) {
  return s.size() >= suffix.size() &&
         s.compare(s.size() - suffix.size(), suffix.size(), suffix) == 0;
}

void CheckTraceCategorySync(const std::vector<FileScan>& scans,
                            std::vector<Diagnostic>* out) {
  const FileScan* header = nullptr;
  const FileScan* source = nullptr;
  for (const FileScan& scan : scans) {
    if (scan.path == "src/obs/trace.h" ||
        EndsWith(scan.path, "/src/obs/trace.h")) {
      header = &scan;
    }
    if (scan.path == "src/obs/trace.cc" ||
        EndsWith(scan.path, "/src/obs/trace.cc")) {
      source = &scan;
    }
  }
  if (header == nullptr || source == nullptr) return;

  // The category constants are exactly the single-bit kTrace* definitions
  // (kTraceAll is an OR of them, kTraceCategoryCount a plain integer, so
  // neither matches the shift shape).
  static const std::regex kCategoryRe(
      "\\bkTrace(\\w+)\\s*=\\s*1u?\\s*<<\\s*([0-9]+)");
  struct Category {
    std::string suffix;  // "Deliver"
    int shift = 0;
    int line = 0;
  };
  std::vector<Category> categories;
  int count_value = -1;
  int count_line = 1;
  static const std::regex kCountRe("\\bkTraceCategoryCount\\s*=\\s*([0-9]+)");
  for (size_t idx = 0; idx < header->code_lines.size(); ++idx) {
    const std::string& line = header->code_lines[idx];
    std::smatch match;
    if (std::regex_search(line, match, kCategoryRe)) {
      categories.push_back(Category{match[1].str(), std::stoi(match[2].str()),
                                    static_cast<int>(idx) + 1});
    }
    if (std::regex_search(line, match, kCountRe)) {
      count_value = std::stoi(match[1].str());
      count_line = static_cast<int>(idx) + 1;
    }
  }
  if (categories.empty()) return;  // Rewritten beyond recognition; bail.

  int max_shift = 0;
  for (const Category& category : categories) {
    max_shift = std::max(max_shift, category.shift);
  }
  if (count_value != static_cast<int>(categories.size()) ||
      max_shift + 1 != static_cast<int>(categories.size())) {
    if (!Suppressed(header->suppressions, count_line,
                    "madnet-trace-category-sync")) {
      out->push_back(
          {header->path, count_line, "madnet-trace-category-sync",
           "kTraceCategoryCount is " + std::to_string(count_value) +
               " but trace.h declares " + std::to_string(categories.size()) +
               " category bits (max shift " + std::to_string(max_shift) +
               "); the count sizes per-category sampling state, so keep "
               "bits contiguous from 0 and the count equal to the number "
               "of categories"});
    }
  }

  // Source anchor for missing-case diagnostics: the TraceCategoryName
  // definition if present, else line 1.
  int name_line = 1;
  for (size_t idx = 0; idx < source->code_lines.size(); ++idx) {
    if (Contains(source->code_lines[idx], "TraceCategoryName")) {
      name_line = static_cast<int>(idx) + 1;
      break;
    }
  }
  for (const Category& category : categories) {
    const std::string constant = "kTrace" + category.suffix;
    bool has_case = false;
    int uses = 0;
    for (const std::string& line : source->code_lines) {
      for (size_t at = line.find(constant); at != std::string::npos;
           at = line.find(constant, at + 1)) {
        ++uses;
      }
      if (Contains(line, "case " + constant)) has_case = true;
    }
    std::string lower = category.suffix;
    for (char& c : lower) {
      c = static_cast<char>(std::tolower(static_cast<unsigned char>(c)));
    }
    bool named = false;
    for (const std::string& line : source->raw_lines) {
      if (Contains(line, "\"" + lower + "\"")) named = true;
    }
    if (Suppressed(source->suppressions, name_line,
                   "madnet-trace-category-sync")) {
      continue;
    }
    if (!has_case) {
      out->push_back({source->path, name_line, "madnet-trace-category-sync",
                      "TraceCategoryName has no case for " + constant +
                          " (trace.h declares it); records of that "
                          "category would be labelled \"?\""});
    }
    // One use is the name switch (when present); the parser table must
    // add another.
    if (uses < (has_case ? 2 : 1) || !named) {
      out->push_back({source->path, name_line, "madnet-trace-category-sync",
                      "ParseTraceCategories does not map \"" + lower +
                          "\" to " + constant +
                          "; the category cannot be enabled from "
                          "--trace-categories"});
    }
  }
}

}  // namespace

// ---------------------------------------------------------------------------
// Public API.

std::string ToString(const Diagnostic& diagnostic) {
  return diagnostic.file + ":" + std::to_string(diagnostic.line) +
         ": error: [" + diagnostic.rule + "] " + diagnostic.message;
}

const std::vector<std::string>& RuleNames() {
  static const std::vector<std::string> names{
      "madnet-rand",
      "madnet-wallclock",
      "madnet-random-device",
      "madnet-unseeded-mt19937",
      "madnet-stderr",
      "madnet-unordered-iteration",
      "madnet-raw-new",
      "madnet-hot-alloc",
      "madnet-hot-transitive-alloc",
      "madnet-layering",
      "madnet-rng-fork-label",
      "madnet-trace-category-sync",
      "madnet-nolint",
  };
  return names;
}

void Linter::AddFile(std::string path, std::string content) {
  // Normalize Windows separators so directory scoping works uniformly.
  std::replace(path.begin(), path.end(), '\\', '/');
  files_.push_back(File{std::move(path), std::move(content)});
}

void Linter::SetActiveFiles(const std::vector<std::string>& paths) {
  active_files_ = paths;
  for (std::string& path : active_files_) {
    std::replace(path.begin(), path.end(), '\\', '/');
  }
}

std::vector<Diagnostic> Linter::Run() const {
  std::vector<FileScan> scans;
  scans.reserve(files_.size());
  for (const File& file : files_) {
    scans.push_back(ScanFile(file.path, file.content));
  }

  // Pass 1a: container names for the unordered-iteration rule. Names are
  // collected from in-scope files only, so e.g. a container member in
  // bench/ cannot shadow-flag a src/ loop.
  std::set<std::string> unordered_names;
  for (const FileScan& scan : scans) {
    if (!InUnorderedIterationScope(scan.path)) continue;
    for (const std::string& line : scan.code_lines) {
      CollectUnorderedNames(line, &unordered_names);
    }
  }

  // Pass 1b: the whole-project model (include graph, function spans, call
  // graph, Fork sites). Always built from *every* added file so the
  // project rules see full context even under --changed-only.
  ProjectModel model;
  for (const FileScan& scan : scans) {
    model.AddFile(scan.path, scan.raw_lines, scan.code_lines);
  }

  const auto active = [this](const std::string& path) {
    if (active_files_.empty()) return true;
    return std::find(active_files_.begin(), active_files_.end(), path) !=
           active_files_.end();
  };

  // Pass 2: all rules.
  std::vector<Diagnostic> diagnostics;
  for (const FileScan& scan : scans) {
    if (!active(scan.path)) continue;
    for (const Diagnostic& diagnostic : scan.suppressions.diagnostics) {
      diagnostics.push_back(diagnostic);
    }
    for (const LineRule& rule : LineRules()) {
      bool in_scope = rule.only_under.empty();
      for (const std::string& dir : rule.only_under) {
        if (InDirectory(scan.path, dir)) in_scope = true;
      }
      bool allowed = false;
      for (const std::string& exempt : rule.allowlist) {
        if (Contains(scan.path, exempt)) allowed = true;
      }
      if (allowed) continue;
      for (size_t idx = 0; idx < scan.code_lines.size(); ++idx) {
        const std::string& line = scan.code_lines[idx];
        const int lineno = static_cast<int>(idx) + 1;
        const bool hit =
            (in_scope && std::regex_search(line, rule.pattern)) ||
            (!in_scope && std::string(rule.rule) == "madnet-wallclock" &&
             std::regex_search(line, WallclockEverywhereRe()));
        if (!hit) continue;
        if (Suppressed(scan.suppressions, lineno, rule.rule)) continue;
        diagnostics.push_back({scan.path, lineno, rule.rule, rule.message});
      }
    }
    CheckRawNew(scan, &diagnostics);
    CheckHotAlloc(scan, &diagnostics);
    CheckUnorderedIteration(scan, unordered_names, &diagnostics);
  }

  // Project-model rules: run over everything, then filter to active files.
  std::vector<Diagnostic> project_diagnostics;
  CheckLayering(model, scans, &project_diagnostics);
  CheckHotTransitiveAlloc(model, scans, &project_diagnostics);
  CheckRngForkLabel(model, scans, &project_diagnostics);
  CheckTraceCategorySync(scans, &project_diagnostics);
  for (Diagnostic& diagnostic : project_diagnostics) {
    if (active(diagnostic.file)) {
      diagnostics.push_back(std::move(diagnostic));
    }
  }

  std::sort(diagnostics.begin(), diagnostics.end(),
            [](const Diagnostic& a, const Diagnostic& b) {
              if (a.file != b.file) return a.file < b.file;
              if (a.line != b.line) return a.line < b.line;
              return a.rule < b.rule;
            });
  return diagnostics;
}

std::vector<Diagnostic> LintFile(const std::string& path,
                                 const std::string& content) {
  Linter linter;
  linter.AddFile(path, content);
  return linter.Run();
}

namespace {

std::string JsonEscape(const std::string& text) {
  std::string out;
  out.reserve(text.size());
  for (char c : text) {
    switch (c) {
      case '"':
        out += "\\\"";
        break;
      case '\\':
        out += "\\\\";
        break;
      case '\n':
        out += "\\n";
        break;
      case '\t':
        out += "\\t";
        break;
      case '\r':
        out += "\\r";
        break;
      default:
        if (static_cast<unsigned char>(c) < 0x20) {
          char buf[8];
          std::snprintf(buf, sizeof(buf), "\\u%04x", c);
          out += buf;
        } else {
          out += c;
        }
    }
  }
  return out;
}

}  // namespace

std::string SarifReport(const std::vector<Diagnostic>& diagnostics) {
  std::ostringstream out;
  out << "{\n"
      << "  \"version\": \"2.1.0\",\n"
      << "  \"$schema\": \"https://json.schemastore.org/sarif-2.1.0.json\",\n"
      << "  \"runs\": [\n"
      << "    {\n"
      << "      \"tool\": {\n"
      << "        \"driver\": {\n"
      << "          \"name\": \"madnet_lint\",\n"
      << "          \"informationUri\": "
         "\"docs/STATIC_ANALYSIS.md\",\n"
      << "          \"rules\": [\n";
  const auto& names = RuleNames();
  for (size_t i = 0; i < names.size(); ++i) {
    out << "            {\"id\": \"" << JsonEscape(names[i]) << "\"}"
        << (i + 1 < names.size() ? "," : "") << "\n";
  }
  out << "          ]\n"
      << "        }\n"
      << "      },\n"
      << "      \"results\": [\n";
  for (size_t i = 0; i < diagnostics.size(); ++i) {
    const Diagnostic& d = diagnostics[i];
    out << "        {\n"
        << "          \"ruleId\": \"" << JsonEscape(d.rule) << "\",\n"
        << "          \"level\": \"error\",\n"
        << "          \"message\": {\"text\": \"" << JsonEscape(d.message)
        << "\"},\n"
        << "          \"locations\": [\n"
        << "            {\n"
        << "              \"physicalLocation\": {\n"
        << "                \"artifactLocation\": {\"uri\": \""
        << JsonEscape(d.file) << "\"},\n"
        << "                \"region\": {\"startLine\": " << d.line << "}\n"
        << "              }\n"
        << "            }\n"
        << "          ]\n"
        << "        }" << (i + 1 < diagnostics.size() ? "," : "") << "\n";
  }
  out << "      ]\n"
      << "    }\n"
      << "  ]\n"
      << "}\n";
  return out.str();
}

}  // namespace madnet::lint
