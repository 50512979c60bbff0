// Copyright (c) 2026 madnet authors. All rights reserved.
//
// The rule engine behind the madnet_lint binary: token/regex-based checks
// for madnet-specific correctness rules, chiefly the determinism policy
// (no wall clocks, no unseeded/global RNGs, ordered iteration in
// aggregation paths) that keeps every simulation bit-reproducible from its
// seed. No libclang dependency — files are scanned line-by-line after
// comments and string literals are blanked out.
//
// The engine runs in two passes. Pass 1 indexes every file into a
// ProjectModel (tools/project_model.h): include graph, function spans, a
// heuristic call graph, Rng::Fork label sites, MADNET_HOT markers. Pass 2
// runs the rules; the per-line rules see one file at a time, the
// project-model rules (layering, transitive hot allocation, Fork-label
// discipline) see the whole project.
//
// Rules (see docs/STATIC_ANALYSIS.md for the full policy):
//   madnet-rand                 std::rand / srand anywhere.
//   madnet-wallclock            time(nullptr), gettimeofday, localtime,
//                               std::chrono::system_clock in src/.
//   madnet-random-device        std::random_device outside src/util/random.
//   madnet-unseeded-mt19937     default-constructed std::mt19937[_64].
//   madnet-unordered-iteration  range-for over unordered containers
//                               anywhere in src/.
//   madnet-raw-new              raw new/delete outside allow-listed files.
//   madnet-hot-alloc            heap allocation (new, make_shared/unique,
//                               or container growth) inside a function
//                               marked `// MADNET_HOT`, unless the
//                               receiver is a reused scratch/arena/pool
//                               buffer or an out-parameter.
//   madnet-hot-transitive-alloc the same allocation check extended to
//                               every src/ function *reachable* from a
//                               MADNET_HOT function through the heuristic
//                               call graph.
//   madnet-layering             include edge between src/ modules that
//                               climbs the declared layer DAG
//                               (util -> {sketch,obs} ->
//                               {core,mobility,net,sim} ->
//                               {fault,stats,scenario} -> exec), targets a
//                               module missing from the table, or closes
//                               a module-level include cycle.
//   madnet-rng-fork-label       Rng::Fork call whose label is not an
//                               integer literal, or whose literal value is
//                               reused by another Fork site in src/
//                               (duplicate labels correlate streams).
//   madnet-trace-category-sync  src/obs/trace.h's kTrace* bit constants,
//                               kTraceCategoryCount, and src/obs/trace.cc's
//                               TraceCategoryName/ParseTraceCategories
//                               tables drifting out of sync (a category
//                               missing a name case or a parser mapping).
//   madnet-nolint               NOLINT without a justification, or naming
//                               an unknown madnet rule.
//
// Suppressions: `// NOLINT(madnet-<rule>): <justification>` silences the
// named rule on that line; `// NOLINTNEXTLINE(madnet-<rule>): <...>` on the
// next. The justification text is mandatory.

#ifndef MADNET_TOOLS_LINT_RULES_H_
#define MADNET_TOOLS_LINT_RULES_H_

#include <string>
#include <vector>

namespace madnet::lint {

/// One rule violation at a source location.
struct Diagnostic {
  std::string file;     ///< Repo-relative forward-slash path.
  int line = 0;         ///< 1-based line number.
  std::string rule;     ///< Rule id, e.g. "madnet-wallclock".
  std::string message;  ///< Human-readable explanation.
};

/// Renders "file:line: error: [rule] message" (the gcc-style format most
/// editors and CI annotators parse).
std::string ToString(const Diagnostic& diagnostic);

/// Ids of every implemented rule.
const std::vector<std::string>& RuleNames();

/// The cross-file rule engine. Add every file first, then Run(): the
/// unordered-iteration rule needs the full file set to resolve container
/// names declared in headers but iterated in sources, and the project-model
/// rules need the whole include/call graph.
class Linter {
 public:
  /// Registers a file. `path` must be repo-relative with forward slashes;
  /// path-dependent rules (allowlists, directory scoping) key off it.
  void AddFile(std::string path, std::string content);

  /// Restricts *reporting* to the given repo-relative paths (the
  /// `--changed-only` mode). Every added file still feeds pass 1 — cross-
  /// file name resolution, the include graph, and call-graph reachability
  /// stay whole-project — but per-line rules skip unlisted files and
  /// project-rule diagnostics landing in them are dropped. An empty list
  /// restores full reporting.
  void SetActiveFiles(const std::vector<std::string>& paths);

  /// Runs every rule over all added files. Diagnostics are sorted by
  /// (file, line, rule) so output is deterministic.
  std::vector<Diagnostic> Run() const;

 private:
  struct File {
    std::string path;
    std::string content;
  };
  std::vector<File> files_;
  std::vector<std::string> active_files_;  // Empty = report everything.
};

/// Convenience wrapper: lints one file in isolation (cross-file name
/// resolution then sees only this file).
std::vector<Diagnostic> LintFile(const std::string& path,
                                 const std::string& content);

/// Blanks comments and string/character literals (including raw strings),
/// preserving line structure. Exposed for tests.
std::string StripCommentsAndStrings(const std::string& content);

/// Renders diagnostics as a SARIF 2.1.0 log (one run, one result per
/// diagnostic) so CI can annotate PR diffs. Deterministic: preserves the
/// sorted diagnostic order and lists every rule id.
std::string SarifReport(const std::vector<Diagnostic>& diagnostics);

}  // namespace madnet::lint

#endif  // MADNET_TOOLS_LINT_RULES_H_
