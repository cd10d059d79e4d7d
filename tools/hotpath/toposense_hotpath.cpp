// toposense_hotpath — hot-path purity analyzer for the TopoSense simulator.
// Proves the event datapath reachable from HOT_PATH roots stays allocation-,
// lock-, I/O-, throw-, and wall-clock-free. See docs/static-analysis.md
// ("Hot-path purity analyzer") for the rule catalogue and workflow.
//
// Usage:
//   toposense_hotpath [options] <file-or-dir>...
//     --baseline FILE          grandfathered findings; only new ones fail, and
//                              so does an entry for a scanned path that no
//                              finding matched (stale)
//     --write-baseline FILE    write all current findings as the new baseline
//     --sarif FILE             also emit SARIF 2.1.0 (notes included)
//     --reachable              print the per-root reachable-set report
//     --drop-root NAME         ignore HOT_PATH on NAME (repeatable; testing)
//     --notes                  print informational frontier notes
//     --list-rules             print the rule catalogue and exit
//
// Exit: 0 clean (no non-baseline findings, no stale baseline entries), 1 new
// findings or stale entries, 2 usage/IO error.
// Informational notes never gate. Run from the repository root so paths (and
// baseline keys) are stable.
//
// Two passes: each file is summarized on its own, then the link pass joins
// the per-file summaries into one call graph.
#include <algorithm>
#include <cstdio>
#include <exception>
#include <filesystem>
#include <string>
#include <vector>

#include "baseline.hpp"
#include "engine.hpp"
#include "model.hpp"
#include "sarif.hpp"

namespace fs = std::filesystem;

namespace {

struct Options {
  std::vector<fs::path> roots;
  std::string baseline_path;
  std::string write_baseline_path;
  std::string sarif_path;
  bool reachable{false};
  bool notes{false};
  bool list_rules{false};
  hotpath::AnalyzeOptions analyze;
};

int usage(const char* argv0) {
  std::fprintf(stderr,
               "usage: %s [--baseline FILE] [--write-baseline FILE] [--sarif FILE]\n"
               "           [--reachable] [--drop-root NAME]... [--notes] [--list-rules]\n"
               "           <file-or-dir>...\n",
               argv0);
  return 2;
}

bool parse_args(int argc, char** argv, Options& opts) {
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    const auto value = [&](std::string& into) {
      if (i + 1 >= argc) return false;
      into = argv[++i];
      return true;
    };
    if (arg == "--baseline") {
      if (!value(opts.baseline_path)) return false;
    } else if (arg == "--write-baseline") {
      if (!value(opts.write_baseline_path)) return false;
    } else if (arg == "--sarif") {
      if (!value(opts.sarif_path)) return false;
    } else if (arg == "--reachable") {
      opts.reachable = true;
    } else if (arg == "--notes") {
      opts.notes = true;
    } else if (arg == "--drop-root") {
      std::string name;
      if (!value(name)) return false;
      opts.analyze.drop_roots.push_back(name);
    } else if (arg == "--list-rules") {
      opts.list_rules = true;
    } else if (!arg.empty() && arg[0] == '-') {
      std::fprintf(stderr, "error: unknown option '%s'\n", arg.c_str());
      return false;
    } else {
      opts.roots.emplace_back(arg);
    }
  }
  return opts.list_rules || !opts.roots.empty();
}

}  // namespace

int main(int argc, char** argv) {
  Options opts;
  if (!parse_args(argc, argv, opts)) return usage(argv[0]);

  if (opts.list_rules) {
    for (const auto& [id, description] : hotpath::rule_catalogue()) {
      std::printf("%-24s %s\n", id.c_str(), description.c_str());
    }
    return 0;
  }

  try {
    std::vector<fs::path> paths;
    for (const fs::path& root : opts.roots) {
      std::error_code ec;
      if (fs::is_directory(root, ec)) {
        for (const auto& entry : fs::recursive_directory_iterator(root)) {
          if (entry.is_regular_file() && lint::lintable(entry.path())) {
            paths.push_back(entry.path());
          }
        }
      } else if (fs::is_regular_file(root, ec)) {
        paths.push_back(root);
      } else {
        std::fprintf(stderr, "error: cannot read '%s'\n", root.string().c_str());
        return 2;
      }
    }
    std::sort(paths.begin(), paths.end());
    paths.erase(std::unique(paths.begin(), paths.end()), paths.end());

    // Summarize pass, one summary per file; the link pass joins them.
    std::vector<hotpath::TuSummary> summaries;
    summaries.reserve(paths.size());
    for (const fs::path& p : paths) summaries.push_back(hotpath::summarize(lint::load_file(p)));

    const hotpath::AnalyzeResult result = hotpath::analyze(summaries, opts.analyze);

    if (opts.reachable) std::fputs(result.reachable_report.c_str(), stdout);

    if (!opts.write_baseline_path.empty()) {
      lint::Baseline::write(opts.write_baseline_path, result.findings);
      std::printf("toposense_hotpath: wrote %zu baseline entr%s to %s\n", result.findings.size(),
                  result.findings.size() == 1 ? "y" : "ies", opts.write_baseline_path.c_str());
      return 0;
    }

    std::vector<lint::Finding> baselined;
    std::vector<lint::Finding> fresh;
    std::vector<std::string> stale;
    if (!opts.baseline_path.empty()) {
      const lint::Baseline baseline = lint::Baseline::load(opts.baseline_path);
      stale = lint::stale_entries(baseline.partition(result.findings, baselined, fresh),
                                  opts.roots, {});
    } else {
      fresh = result.findings;
    }

    for (const lint::Finding& f : fresh) {
      std::printf("%s:%zu: [%s/%s] %s\n", f.file.c_str(), f.line, f.check.c_str(),
                  f.rule.c_str(), f.message.c_str());
    }
    for (const std::string& entry : stale) {
      std::printf("%s: stale entry, no finding matches it (prune it): %s\n",
                  opts.baseline_path.c_str(), entry.c_str());
    }
    if (opts.notes) {
      for (const lint::Finding& f : result.notes) {
        std::printf("%s:%zu: note: [%s/%s] %s\n", f.file.c_str(), f.line, f.check.c_str(),
                    f.rule.c_str(), f.message.c_str());
      }
    }
    if (!opts.sarif_path.empty()) {
      std::vector<lint::SarifRule> rules;
      for (const auto& [id, description] : hotpath::rule_catalogue()) {
        rules.push_back({id, description});
      }
      lint::write_sarif(opts.sarif_path, "toposense_hotpath", rules, baselined, fresh,
                        result.notes);
    }

    if (!fresh.empty() || !stale.empty()) {
      std::printf(
          "toposense_hotpath: %zu new finding(s), %zu baselined, %zu stale, %zu note(s), "
          "%zu root(s), %zu reachable function(s)\n",
          fresh.size(), baselined.size(), stale.size(), result.notes.size(),
          result.root_count, result.reached_count);
      return 1;
    }
    std::printf(
        "toposense_hotpath: clean (%zu baselined, %zu note(s), %zu root(s), "
        "%zu reachable function(s))\n",
        baselined.size(), result.notes.size(), result.root_count, result.reached_count);
    return 0;
  } catch (const std::exception& e) {
    std::fprintf(stderr, "error: %s\n", e.what());
    return 2;
  }
}
