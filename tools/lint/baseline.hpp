// Baseline — grandfathered findings. The committed file maps a finding key
// `check|rule|file|trimmed-line-text` to an allowed multiplicity; scans match
// findings against it by key (not line number, so unrelated edits above a
// grandfathered line do not break CI). Unmatched findings fail, and so do
// stale entries: slots no finding consumed although the scan covered them.
#pragma once

#include <filesystem>
#include <map>
#include <set>
#include <string>
#include <vector>

#include "engine.hpp"

namespace lint {

class Baseline {
 public:
  /// One baseline line per grandfathered finding instance; '#' comments and
  /// blank lines are skipped. Throws std::runtime_error on IO failure.
  [[nodiscard]] static Baseline load(const std::filesystem::path& path);

  [[nodiscard]] static std::string key(const Finding& finding);

  /// Splits `findings` into (baselined, fresh), consuming one baseline slot
  /// per matched finding so removed offenders cannot mask new ones. Returns
  /// the key of every slot no finding consumed, in key order.
  [[nodiscard]] std::vector<std::string> partition(const std::vector<Finding>& findings,
                                                   std::vector<Finding>& baselined,
                                                   std::vector<Finding>& fresh) const;

  /// Writes `findings` as a sorted baseline file.
  static void write(const std::filesystem::path& path, const std::vector<Finding>& findings);

  [[nodiscard]] std::size_t size() const { return total_; }

 private:
  std::map<std::string, int> allowed_;
  std::size_t total_{0};
};

/// The unconsumed keys (from Baseline::partition) that the scan should have
/// matched: the entry's check ran (`checks` empty means every check) and its
/// file is one of `roots` or lies under a root directory — so an entry for a
/// deleted file is stale too.
[[nodiscard]] std::vector<std::string> stale_entries(const std::vector<std::string>& unconsumed,
                                                     const std::vector<std::filesystem::path>& roots,
                                                     const std::set<std::string>& checks);

}  // namespace lint
