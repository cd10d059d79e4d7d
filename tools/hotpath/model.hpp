// toposense_hotpath data model — the per-file summary the summarize pass
// extracts and the link pass consumes. The two passes only communicate
// through TuSummary, one per scanned file.
#pragma once

#include <cstddef>
#include <map>
#include <set>
#include <string>
#include <vector>

#include "engine.hpp"  // lint::Finding et al (tools/lint)

namespace hotpath {

enum class OpKind {
  kCall,   ///< name(...) — member / scoped / plain
  kToken,  ///< type or object token implying an effect (LockGuard, cout, ...)
  kNew,    ///< non-placement new-expression
  kDelete, ///< delete-expression
  kThrow,  ///< throw-expression
};

/// One effect-relevant operation inside a function body.
struct Op {
  OpKind kind{OpKind::kCall};
  std::string name;       ///< callee name or token text
  std::string qualifier;  ///< "Logger" in Logger::log(...); empty otherwise
  bool member{false};     ///< called through . or ->
  bool scoped{false};     ///< called through ::
  std::string file;       ///< file the op sits in (ops of overloads may merge)
  std::size_t line{0};    ///< 1-based line in `file`
  std::string text;       ///< trimmed raw source line (baseline key component)
  /// HOTPATH_ALLOW(rule[,rule]: reason) grants covering this line.
  std::vector<std::string> allowed_rules;
  std::string allow_reason;
  bool allow_missing_reason{false};
};

/// One function declaration or definition found in a TU.
struct FunctionInfo {
  std::string qname;  ///< scope-qualified, e.g. "tsim::sim::Scheduler::pop_min_upto"
  std::string file;
  std::size_t line{0};
  bool is_definition{false};
  bool hot{false};     ///< carried a HOT_PATH annotation
  bool exempt{false};  ///< carried a HOT_PATH_EXEMPT annotation
  std::string exempt_reason;
  std::vector<Op> ops;  ///< definition bodies only
};

/// Everything the link step needs from one translation unit (one file).
struct TuSummary {
  std::string file;
  std::vector<FunctionInfo> functions;
  /// Method names declared `virtual` (or pure) — member calls to these with
  /// no definition anywhere in the summary set are the virtual frontier.
  std::vector<std::string> virtual_methods;
  /// Names of std::function-typed members/globals — calls through these are
  /// the indirect-call frontier.
  std::vector<std::string> callable_members;
};

/// Summarize pass: parse one already-loaded file into a TU summary.
[[nodiscard]] TuSummary summarize(const lint::SourceFile& file);

/// Link-pass configuration.
struct AnalyzeOptions {
  /// Root qnames (or ::-suffixes) whose HOT_PATH annotation is ignored —
  /// used by tests to prove each root contributes to the reachable set.
  std::vector<std::string> drop_roots;
};

/// Link-pass output.
struct AnalyzeResult {
  std::vector<lint::Finding> findings;  ///< gating (rule violations)
  std::vector<lint::Finding> notes;     ///< informational (call-graph frontier)
  /// Deterministic reachable-set report: one section per root, listing the
  /// functions its cone reaches and the exempt boundaries that stop the walk.
  std::string reachable_report;
  std::size_t root_count{0};
  std::size_t reached_count{0};
};

/// Link pass: merge summaries, build the call graph, walk reachability from
/// HOT_PATH roots, and classify effects against the rule catalogue.
[[nodiscard]] AnalyzeResult analyze(const std::vector<TuSummary>& summaries,
                                    const AnalyzeOptions& options);

/// Rule catalogue (id -> one-line description), in report order.
[[nodiscard]] const std::vector<std::pair<std::string, std::string>>& rule_catalogue();

}  // namespace hotpath
