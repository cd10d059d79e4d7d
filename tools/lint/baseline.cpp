#include "baseline.hpp"

#include <algorithm>
#include <fstream>
#include <stdexcept>

namespace lint {

Baseline Baseline::load(const std::filesystem::path& path) {
  std::ifstream in{path};
  if (!in) throw std::runtime_error("cannot read baseline '" + path.string() + "'");
  Baseline b;
  for (std::string line; std::getline(in, line);) {
    const std::string entry = trim(line);
    if (entry.empty() || entry[0] == '#') continue;
    ++b.allowed_[entry];
    ++b.total_;
  }
  return b;
}

std::string Baseline::key(const Finding& finding) {
  return finding.check + "|" + finding.rule + "|" + finding.file + "|" + finding.text;
}

std::vector<std::string> Baseline::partition(const std::vector<Finding>& findings,
                                             std::vector<Finding>& baselined,
                                             std::vector<Finding>& fresh) const {
  std::map<std::string, int> remaining = allowed_;
  for (const Finding& f : findings) {
    const auto it = remaining.find(key(f));
    if (it != remaining.end() && it->second > 0) {
      --it->second;
      baselined.push_back(f);
    } else {
      fresh.push_back(f);
    }
  }
  std::vector<std::string> unconsumed;
  for (const auto& [entry, count] : remaining) unconsumed.insert(unconsumed.end(), static_cast<std::size_t>(count), entry);
  return unconsumed;
}

std::vector<std::string> stale_entries(const std::vector<std::string>& unconsumed,
                                       const std::vector<std::filesystem::path>& roots,
                                       const std::set<std::string>& checks) {
  std::vector<std::string> stale;
  for (const std::string& entry : unconsumed) {
    // Key layout: check|rule|file|text (the text may itself contain '|').
    const std::size_t check_end = entry.find('|');
    const std::size_t rule_end = entry.find('|', check_end + 1);
    const std::size_t file_end = entry.find('|', rule_end + 1);
    if (file_end == std::string::npos) continue;
    if (!checks.empty() && checks.count(entry.substr(0, check_end)) == 0) continue;
    const std::string file = entry.substr(rule_end + 1, file_end - rule_end - 1);
    const bool covered = std::any_of(roots.begin(), roots.end(), [&](const auto& root) {
      std::string dir = root.lexically_normal().generic_string();
      if (dir == "." || dir == "./") return true;
      if (file == dir) return true;
      if (dir.back() != '/') dir += '/';
      return file.compare(0, dir.size(), dir) == 0;
    });
    if (covered) stale.push_back(entry);
  }
  return stale;
}

void Baseline::write(const std::filesystem::path& path, const std::vector<Finding>& findings) {
  std::vector<std::string> keys;
  keys.reserve(findings.size());
  for (const Finding& f : findings) keys.push_back(key(f));
  std::sort(keys.begin(), keys.end());
  std::ofstream out{path};
  if (!out) throw std::runtime_error("cannot write baseline '" + path.string() + "'");
  out << "# toposense_lint baseline — grandfathered findings, one per line:\n"
         "#   check|rule|file|trimmed-line-text\n"
         "# Matched by content (not line number). Regenerate with\n"
         "#   toposense_lint --write-baseline <this file> <paths...>\n"
         "# from the repository root. Do not add new entries by hand without\n"
         "# a review; shrink it whenever a grandfathered site is migrated.\n";
  for (const std::string& k : keys) out << k << '\n';
}

}  // namespace lint
