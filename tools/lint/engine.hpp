// toposense_lint engine — shared scanning machinery for all checks: file
// loading with comment/string stripping, token helpers, the check registry,
// and the NOLINT suppression protocol.
//
// Suppression forms (on the offending line or the line directly above):
//   // NOLINT(check-name)            suppress one check
//   // NOLINT(check-a,check-b)      suppress several checks
//   // NOLINT(*)                    suppress every check on this line
#pragma once

#include <cstddef>
#include <filesystem>
#include <memory>
#include <set>
#include <string>
#include <string_view>
#include <vector>

namespace lint {

struct Finding {
  std::string file;     ///< path as scanned (normalized, '/'-separated)
  std::size_t line{0};  ///< 1-based
  std::string check;    ///< check name, e.g. "determinism"
  std::string rule;     ///< rule id inside the check, e.g. "wall-clock"
  std::string message;
  std::string text;  ///< trimmed raw source line (baseline key component)
};

struct SourceFile {
  std::string path;                ///< normalized generic path
  std::vector<std::string> raw;    ///< original lines
  std::vector<std::string> clean;  ///< comment/string-stripped lines
  std::string clean_joined;        ///< clean lines joined with '\n'

  /// True when `name` appears as a whole path component ("src" matches
  /// "src/core/x.hpp" and "/root/repo/src/x.hpp", not "mysrc/x.hpp").
  [[nodiscard]] bool has_component(std::string_view name) const;
  /// True when components `a` then `b` appear adjacent ("src", "core").
  [[nodiscard]] bool has_components(std::string_view a, std::string_view b) const;
  [[nodiscard]] bool is_header() const;
};

/// Cross-file knowledge gathered before any per-file scan: headers declare
/// the members that .cpp files iterate, so container kinds are resolved over
/// the whole scanned set.
struct GlobalContext {
  std::set<std::string> unordered_names;
  /// `using Name = T*;` aliases — pointer types hiding behind a name, so a
  /// hash/ordering keyed by the alias is keyed by an address.
  std::set<std::string> pointer_aliases;
};

class Check {
 public:
  virtual ~Check() = default;
  [[nodiscard]] virtual std::string_view name() const = 0;
  [[nodiscard]] virtual std::string_view description() const = 0;
  [[nodiscard]] virtual bool applies_to(const SourceFile& file) const = 0;
  /// Pre-pass over every applicable file; runs before any scan() call.
  virtual void collect(const SourceFile& file, GlobalContext& ctx) const;
  virtual void scan(const SourceFile& file, const GlobalContext& ctx,
                    std::vector<Finding>& out) const = 0;
};

class CheckRegistry {
 public:
  void add(std::unique_ptr<Check> check);
  [[nodiscard]] const std::vector<std::unique_ptr<Check>>& checks() const { return checks_; }
  [[nodiscard]] const Check* find(std::string_view name) const;

 private:
  std::vector<std::unique_ptr<Check>> checks_;
};

/// Registers the built-in checks in their canonical (report) order.
void register_builtin_checks(CheckRegistry& registry);

std::unique_ptr<Check> make_determinism_check();
std::unique_ptr<Check> make_raw_units_check();
std::unique_ptr<Check> make_callback_lifetime_check();
std::unique_ptr<Check> make_float_accumulation_check();
std::unique_ptr<Check> make_shared_mutable_static_check();
std::unique_ptr<Check> make_nondeterministic_source_check();
std::unique_ptr<Check> make_cross_shard_id_check();

// Shared token-scanning utilities.
[[nodiscard]] bool is_ident_char(char c);
/// True when `text` contains `token` with a non-identifier char on its left.
[[nodiscard]] bool contains_token(const std::string& text, std::string_view token);
/// Strips // and /* */ comments plus string/char literal contents.
[[nodiscard]] std::vector<std::string> strip_comments(const std::vector<std::string>& lines);
/// Last identifier of the range expression of a range-for on this line
/// ("state.members" -> "members"); empty when there is none or it is a call.
[[nodiscard]] std::string range_for_target(const std::string& line);
/// Names declared as std::unordered_{map,set} anywhere in `text`.
[[nodiscard]] std::set<std::string> unordered_names(const std::string& text);
/// True when the template argument list starting at `args_begin` (just past
/// the '<') opens with a pointer-typed first argument.
[[nodiscard]] bool first_template_arg_is_pointer(const std::string& text,
                                                 std::size_t args_begin);
[[nodiscard]] std::string trim(const std::string& s);

/// True when raw line `idx` (or the line above) suppresses `check`.
[[nodiscard]] bool suppressed(const SourceFile& file, std::size_t idx, std::string_view check);

/// Loads and pre-processes one file. Throws std::runtime_error on IO failure.
[[nodiscard]] SourceFile load_file(const std::filesystem::path& path);

/// True for the C++ source extensions the linter understands.
[[nodiscard]] bool lintable(const std::filesystem::path& p);

}  // namespace lint
