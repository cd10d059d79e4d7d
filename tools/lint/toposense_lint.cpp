// toposense_lint — repo-specific static analysis for the TopoSense simulator:
// a registry of domain checks over a shared scanning engine. See
// docs/static-analysis.md for the check catalogue and workflow.
//
// Usage:
//   toposense_lint [options] <file-or-dir>...
//     --checks a,b           run only the named checks (default: all)
//     --baseline FILE        grandfathered findings; only new ones fail, and
//                            so does any entry of a check that ran on a
//                            scanned path that no finding matched (stale)
//     --write-baseline FILE  write all current findings as the new baseline
//     --sarif FILE           also emit SARIF 2.1.0
//     --list-checks          print the registered checks and exit
//
// Exit: 0 clean (no non-baseline findings, no stale baseline entries), 1 new
// findings or stale entries, 2 usage/IO error.
//
// Run from the repository root so paths (and so baseline keys) are stable.
#include <algorithm>
#include <cstdio>
#include <cstring>
#include <exception>
#include <filesystem>
#include <set>
#include <string>
#include <tuple>
#include <vector>

#include "baseline.hpp"
#include "engine.hpp"
#include "sarif.hpp"

namespace fs = std::filesystem;

namespace {

struct Options {
  std::vector<fs::path> roots;
  std::vector<std::string> only_checks;
  std::string baseline_path;
  std::string write_baseline_path;
  std::string sarif_path;
  bool list_checks{false};
};

int usage(const char* argv0) {
  std::fprintf(stderr,
               "usage: %s [--checks a,b] [--baseline FILE] [--write-baseline FILE]\n"
               "           [--sarif FILE] [--list-checks] <file-or-dir>...\n",
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
    if (arg == "--list-checks") {
      opts.list_checks = true;
    } else if (arg == "--checks") {
      std::string list;
      if (!value(list)) return false;
      std::size_t start = 0;
      while (start <= list.size()) {
        std::size_t comma = list.find(',', start);
        if (comma == std::string::npos) comma = list.size();
        const std::string name = list.substr(start, comma - start);
        if (!name.empty()) opts.only_checks.push_back(name);
        start = comma + 1;
      }
    } else if (arg == "--baseline") {
      if (!value(opts.baseline_path)) return false;
    } else if (arg == "--write-baseline") {
      if (!value(opts.write_baseline_path)) return false;
    } else if (arg == "--sarif") {
      if (!value(opts.sarif_path)) return false;
    } else if (!arg.empty() && arg[0] == '-') {
      std::fprintf(stderr, "error: unknown option '%s'\n", arg.c_str());
      return false;
    } else {
      opts.roots.emplace_back(arg);
    }
  }
  return opts.list_checks || !opts.roots.empty();
}

}  // namespace

int main(int argc, char** argv) {
  Options opts;
  if (!parse_args(argc, argv, opts)) return usage(argv[0]);

  lint::CheckRegistry registry;
  lint::register_builtin_checks(registry);

  if (opts.list_checks) {
    for (const auto& check : registry.checks()) {
      std::printf("%-20s %s\n", std::string{check->name()}.c_str(),
                  std::string{check->description()}.c_str());
    }
    return 0;
  }

  std::vector<const lint::Check*> enabled;
  if (opts.only_checks.empty()) {
    for (const auto& check : registry.checks()) enabled.push_back(check.get());
  } else {
    for (const std::string& name : opts.only_checks) {
      const lint::Check* check = registry.find(name);
      if (check == nullptr) {
        std::fprintf(stderr, "error: unknown check '%s' (try --list-checks)\n", name.c_str());
        return 2;
      }
      enabled.push_back(check);
    }
  }

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

  try {
    std::vector<lint::SourceFile> files;
    files.reserve(paths.size());
    for (const fs::path& p : paths) files.push_back(lint::load_file(p));

    // Pre-pass: cross-file context (e.g. unordered member names declared in
    // headers, iterated in .cpp files) before any per-file scan.
    lint::GlobalContext ctx;
    for (const lint::Check* check : enabled) {
      for (const lint::SourceFile& file : files) {
        if (check->applies_to(file)) check->collect(file, ctx);
      }
    }

    std::vector<lint::Finding> findings;
    for (const lint::Check* check : enabled) {
      for (const lint::SourceFile& file : files) {
        if (check->applies_to(file)) check->scan(file, ctx, findings);
      }
    }
    for (lint::Finding& f : findings) {
      // Baseline keys match on content, not line numbers, so edits above a
      // grandfathered site do not invalidate it.
      for (const lint::SourceFile& file : files) {
        if (file.path == f.file && f.line >= 1 && f.line <= file.raw.size()) {
          f.text = lint::trim(file.raw[f.line - 1]);
          break;
        }
      }
    }
    std::sort(findings.begin(), findings.end(),
              [](const lint::Finding& a, const lint::Finding& b) {
                return std::tie(a.file, a.line, a.check, a.rule, a.message) <
                       std::tie(b.file, b.line, b.check, b.rule, b.message);
              });

    if (!opts.write_baseline_path.empty()) {
      lint::Baseline::write(opts.write_baseline_path, findings);
      std::printf("toposense_lint: wrote %zu baseline entr%s to %s\n", findings.size(),
                  findings.size() == 1 ? "y" : "ies", opts.write_baseline_path.c_str());
      return 0;
    }

    std::vector<lint::Finding> baselined;
    std::vector<lint::Finding> fresh;
    std::vector<std::string> stale;
    if (!opts.baseline_path.empty()) {
      const lint::Baseline baseline = lint::Baseline::load(opts.baseline_path);
      std::set<std::string> ran;
      for (const lint::Check* check : enabled) ran.emplace(check->name());
      stale = lint::stale_entries(baseline.partition(findings, baselined, fresh), opts.roots,
                                  ran);
    } else {
      fresh = findings;
    }

    for (const lint::Finding& f : fresh) {
      std::printf("%s:%zu: [%s/%s] %s (suppress with // NOLINT(%s))\n", f.file.c_str(),
                  f.line, f.check.c_str(), f.rule.c_str(), f.message.c_str(),
                  f.check.c_str());
    }
    for (const std::string& entry : stale) {
      std::printf("%s: stale entry, no finding matches it (prune it): %s\n",
                  opts.baseline_path.c_str(), entry.c_str());
    }
    if (!opts.sarif_path.empty()) {
      lint::write_sarif(opts.sarif_path, registry, baselined, fresh);
    }

    if (!fresh.empty() || !stale.empty()) {
      std::printf("toposense_lint: %zu new finding(s), %zu baselined, %zu stale, %zu file(s)\n",
                  fresh.size(), baselined.size(), stale.size(), files.size());
      return 1;
    }
    std::printf("toposense_lint: clean (%zu file(s), %zu baselined finding(s))\n",
                files.size(), baselined.size());
    return 0;
  } catch (const std::exception& e) {
    std::fprintf(stderr, "error: %s\n", e.what());
    return 2;
  }
}
