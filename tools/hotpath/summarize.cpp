// Summarize pass — a syntactic C++ scanner that extracts, per file: function
// definitions/declarations with their scope-qualified names, the HOT_PATH /
// HOT_PATH_EXEMPT annotations they carry, and the effect-relevant operations
// (calls, new/delete/throw, lock & I/O tokens) inside each body.
//
// This is deliberately NOT a full C++ parser: it runs on the lint engine's
// comment/string-stripped text, tracks namespace/class scope by brace
// structure, and recognizes function definitions by the `name(params)
// {` shape (including ctor-init lists and trailing-return types). Constructs
// it cannot attribute (lambda objects invoked through locals, SmallCallback's
// type-erased ops table) surface at the link step as informational frontier
// notes rather than silent gaps.
#include <cctype>
#include <cstddef>
#include <string>
#include <vector>

#include "model.hpp"

namespace hotpath {

namespace {

using lint::is_ident_char;
using lint::trim;

/// contains_token with BOTH boundaries checked (lint's version only checks
/// the left one, which would make "HOT_PATH" match "HOT_PATH_EXEMPT").
bool has_token(const std::string& text, std::string_view token) {
  std::size_t pos = 0;
  while ((pos = text.find(token, pos)) != std::string::npos) {
    const bool left_ok = pos == 0 || !is_ident_char(text[pos - 1]);
    const std::size_t after = pos + token.size();
    const bool right_ok = after >= text.size() || !is_ident_char(text[after]);
    if (left_ok && right_ok) return true;
    pos = after;
  }
  return false;
}

bool is_keyword(const std::string& word) {
  static const std::set<std::string> kKeywords{
      "if",       "for",     "while",    "switch",  "return",   "sizeof",
      "alignof",  "alignas", "noexcept", "decltype", "catch",    "static_assert",
      "assert",   "defined", "new",      "delete",  "throw",    "case",
      "do",       "else",    "operator", "typeid",  "co_await", "co_return",
      "co_yield", "requires"};
  return kKeywords.count(word) != 0;
}

struct Scope {
  enum Kind { kNamespace, kClass, kBlock } kind{kBlock};
  std::string name;
};

/// Extracts the HOTPATH_ALLOW(rule[,rule]: reason) grant from a raw line.
struct AllowGrant {
  bool present{false};
  std::vector<std::string> rules;
  std::string reason;
};

AllowGrant parse_allow(const std::string& raw_line) {
  AllowGrant grant;
  const std::size_t pos = raw_line.find("HOTPATH_ALLOW(");
  if (pos == std::string::npos) return grant;
  grant.present = true;
  const std::size_t open = pos + std::string_view{"HOTPATH_ALLOW("}.size();
  const std::size_t close = raw_line.rfind(')');
  if (close == std::string::npos || close <= open) return grant;
  const std::string body = raw_line.substr(open, close - open);
  const std::size_t colon = body.find(':');
  const std::string rules = colon == std::string::npos ? body : body.substr(0, colon);
  if (colon != std::string::npos) grant.reason = trim(body.substr(colon + 1));
  std::size_t item = 0;
  while (item <= rules.size()) {
    std::size_t comma = rules.find(',', item);
    if (comma == std::string::npos) comma = rules.size();
    const std::string name = trim(rules.substr(item, comma - item));
    if (!name.empty()) grant.rules.push_back(name);
    item = comma + 1;
  }
  return grant;
}

/// Lock/IO/nondeterminism tokens flagged by presence alone (no call syntax):
/// scoped-lock constructions, stream objects, ambient clocks.
const std::vector<std::string>& effect_tokens() {
  static const std::vector<std::string> kTokens{
      // lock
      "LockGuard", "UniqueLock", "lock_guard", "unique_lock", "scoped_lock",
      "shared_lock", "condition_variable", "ConditionVariable",
      // io
      "cout", "cerr", "clog", "ifstream", "ofstream", "fstream", "stringstream",
      "ostringstream", "istringstream",
      // nondeterministic-source
      "random_device", "steady_clock", "system_clock", "high_resolution_clock"};
  return kTokens;
}

class Summarizer {
 public:
  explicit Summarizer(const lint::SourceFile& file) : file_{file} { summary_.file = file.path; }

  TuSummary run() {
    // Single flat loop over (li_, ci_): helpers (skip_balanced_braces,
    // preprocessor continuations) advance the cursor themselves, so no
    // per-line reference survives a position change.
    li_ = 0;
    ci_ = 0;
    while (li_ < file_.clean.size()) {
      if (ci_ == 0 && preprocessor_line()) {
        ++li_;
        continue;
      }
      const std::string& line = file_.clean[li_];
      if (ci_ >= line.size()) {
        ++li_;
        ci_ = 0;
        continue;
      }
      step(line);
      ++ci_;
    }
    return std::move(summary_);
  }

 private:
  // --- declaration scanning -------------------------------------------------

  void step(const std::string& line) {
    if (in_body_) {
      body_step(line);
      return;
    }
    const char c = line[ci_];
    // Indentation and blanked comments before a declaration are not part of
    // it: the declaration starts on the line of its first character.
    if (decl_.empty()) {
      if (std::isspace(static_cast<unsigned char>(c))) return;
      decl_line_ = li_;
    }
    if (c == '(') ++decl_paren_;
    if (c == ')' && decl_paren_ > 0) --decl_paren_;
    if (decl_paren_ > 0) {
      decl_ += c;
      if (c != ' ') last_significant_ = c;
      return;
    }
    if (c == ';') {
      end_declaration();
      return;
    }
    if (c == '}') {
      if (!scopes_.empty()) scopes_.pop_back();
      decl_.clear();
      return;
    }
    if (c == '{') {
      open_brace();
      return;
    }
    decl_ += c;
    if (!std::isspace(static_cast<unsigned char>(c))) last_significant_ = c;
  }

  /// A `{` at declaration scope: scope opener, function body, ctor-init
  /// group, or braced initializer.
  void open_brace(bool nested_init = false) {
    const std::string head = trim(decl_);
    if (!nested_init && has_token(head, "namespace")) {
      scopes_.push_back({Scope::kNamespace, namespace_name(head)});
      decl_.clear();
      return;
    }
    if (!nested_init && class_like(head)) {
      scopes_.push_back({Scope::kClass, class_name(head)});
      decl_.clear();
      return;
    }
    if (!nested_init && (has_token(head, "enum") || head == "extern \"\"")) {
      skip_balanced_braces();
      return;
    }
    std::string name = function_name(head);
    const bool ctor_init = !name.empty() && has_ctor_colon(head);
    if (!name.empty() && (!ctor_init || last_significant_ == ')' || last_significant_ == '}')) {
      begin_function(name, head);
      return;
    }
    // Braced initializer (possibly a ctor-init group): consume balanced and
    // keep accumulating the same declaration.
    skip_balanced_braces();
    last_significant_ = '}';
  }

  void end_declaration() {
    const std::string head = trim(decl_);
    decl_.clear();
    last_significant_ = ';';
    if (head.empty()) return;
    record_virtuals_and_callables(head);
    if (!has_token(head, "HOT_PATH") && !has_token(head, "HOT_PATH_EXEMPT")) return;
    const std::string name = function_name(head);
    if (name.empty()) return;
    FunctionInfo info;
    info.qname = qualify(name);
    info.file = file_.path;
    info.line = decl_line_ + 1;
    info.is_definition = false;
    apply_annotations(info, head);
    summary_.functions.push_back(std::move(info));
  }

  void record_virtuals_and_callables(const std::string& head) {
    if (has_token(head, "virtual") || head.find("= 0") != std::string::npos) {
      const std::string name = function_name(head);
      if (!name.empty()) summary_.virtual_methods.push_back(last_component(name));
    }
    if (head.find("std::function<") != std::string::npos && head.find('=') == std::string::npos) {
      // Member/global declaration `std::function<...> name;` — record the
      // declared name so calls through it surface as the indirect frontier.
      std::size_t end = head.size();
      while (end > 0 && !is_ident_char(head[end - 1])) --end;
      std::size_t begin = end;
      while (begin > 0 && is_ident_char(head[begin - 1])) --begin;
      if (end > begin) summary_.callable_members.push_back(head.substr(begin, end - begin));
    }
  }

  void apply_annotations(FunctionInfo& info, const std::string& head) {
    info.hot = has_token(head, "HOT_PATH");
    info.exempt = has_token(head, "HOT_PATH_EXEMPT");
    if (info.exempt) info.exempt_reason = exempt_reason_from_raw();
  }

  /// Pulls the string literal out of HOT_PATH_EXEMPT("...") on the raw lines
  /// of the current declaration (the clean text has literal contents
  /// stripped).
  std::string exempt_reason_from_raw() const {
    // The macro argument may span several lines and be split into adjacent
    // literals ("a" "b"); join the raw declaration lines from the macro's
    // opening parenthesis and concatenate every literal until it closes.
    std::string joined;
    bool found = false;
    for (std::size_t i = decl_line_; i <= li_ && i < file_.raw.size(); ++i) {
      const std::string& raw = file_.raw[i];
      if (!found) {
        const std::size_t pos = raw.find("HOT_PATH_EXEMPT(");
        if (pos == std::string::npos) continue;
        found = true;
        joined = raw.substr(pos + std::string_view{"HOT_PATH_EXEMPT("}.size());
      } else {
        joined += raw;
      }
      joined += ' ';
    }
    if (!found) return {};
    std::string reason;
    int depth = 1;
    for (std::size_t i = 0; i < joined.size() && depth > 0; ++i) {
      const char c = joined[i];
      if (c == '"') {
        ++i;
        while (i < joined.size() && joined[i] != '"') {
          if (joined[i] == '\\' && i + 1 < joined.size()) {
            reason += joined[i + 1];
            i += 2;
            continue;
          }
          reason += joined[i++];
        }
        continue;
      }
      if (c == '(') ++depth;
      if (c == ')') --depth;
    }
    return reason;
  }

  // --- scope/name helpers ---------------------------------------------------

  static std::string namespace_name(const std::string& head) {
    const std::size_t kw = head.rfind("namespace");
    std::string name = trim(head.substr(kw + std::string_view{"namespace"}.size()));
    // Anonymous namespaces contribute no scope component.
    std::string out;
    for (const char c : name) {
      if (is_ident_char(c) || c == ':') out += c;
    }
    return out;
  }

  static bool class_like(const std::string& head) {
    if (!(has_token(head, "class") || has_token(head, "struct") || has_token(head, "union"))) {
      return false;
    }
    // `enum class` opens no member scope; a `(` before the keyword means the
    // keyword sits inside a parameter list (elaborated type), not a
    // definition head.
    return !has_token(head, "enum");
  }

  static std::string class_name(const std::string& head) {
    std::size_t kw = std::string::npos;
    for (const char* key : {"class", "struct", "union"}) {
      std::size_t pos = 0;
      const std::size_t len = std::string_view{key}.size();
      while ((pos = head.find(key, pos)) != std::string::npos) {
        const bool left = pos == 0 || !is_ident_char(head[pos - 1]);
        const bool right = pos + len >= head.size() || !is_ident_char(head[pos + len]);
        if (left && right) {
          kw = pos + len;
          break;
        }
        pos += len;
      }
      if (kw != std::string::npos) break;
    }
    if (kw == std::string::npos) return {};
    std::string tail = head.substr(kw);
    // Cut the base-clause at a ':' that is not part of '::'.
    for (std::size_t i = 0; i + 1 <= tail.size(); ++i) {
      if (tail[i] != ':') continue;
      const bool scoped = (i + 1 < tail.size() && tail[i + 1] == ':') || (i > 0 && tail[i - 1] == ':');
      if (!scoped) {
        tail = tail.substr(0, i);
        break;
      }
    }
    // The name is the last identifier not immediately followed by '(' (skips
    // attribute macros like TS_CAPABILITY("mutex")) and not `final`.
    std::string name;
    std::size_t i = 0;
    while (i < tail.size()) {
      if (!is_ident_char(tail[i])) {
        ++i;
        continue;
      }
      std::size_t end = i;
      while (end < tail.size() && is_ident_char(tail[end])) ++end;
      std::size_t after = end;
      while (after < tail.size() && tail[after] == ' ') ++after;
      const std::string word = tail.substr(i, end - i);
      const bool macro_like = after < tail.size() && tail[after] == '(';
      if (!macro_like && word != "final" && word != "alignas") name = word;
      if (macro_like || word == "alignas") {
        // Skip the attached (...) group.
        int depth = 0;
        while (after < tail.size()) {
          if (tail[after] == '(') ++depth;
          if (tail[after] == ')' && --depth == 0) break;
          ++after;
        }
        end = after;
      }
      i = end + 1;
    }
    return name;
  }

  /// True for ALL_CAPS identifiers — attribute/annotation macros in this
  /// codebase (TS_REQUIRES, HOT_PATH_EXEMPT) that must not be mistaken for
  /// function names.
  static bool macro_cased(const std::string& word) {
    if (word.size() < 2) return false;
    bool has_alpha = false;
    for (const char c : word) {
      if (std::islower(static_cast<unsigned char>(c)) != 0) return false;
      if (std::isalpha(static_cast<unsigned char>(c)) != 0) has_alpha = true;
    }
    return has_alpha;
  }

  /// The (possibly qualified) name of the function a declaration head
  /// declares, or "" when the head is not function-shaped. Scans for the last
  /// top-level (...) group preceded by a plausible identifier.
  static std::string function_name(const std::string& head) {
    if (class_like(head) || has_token(head, "namespace")) return {};
    int angle = 0;
    int paren = 0;
    std::string best;
    for (std::size_t i = 0; i < head.size(); ++i) {
      const char c = head[i];
      if (c == '<' && i > 0 && (is_ident_char(head[i - 1]) || head[i - 1] == ' ')) ++angle;
      if (c == '>' && angle > 0 && (i == 0 || head[i - 1] != '-')) --angle;
      if (c == '(') {
        if (paren == 0 && angle == 0) {
          const std::string name = identifier_before(head, i);
          const bool op_name = name.empty() || last_component(name) == "operator";
          if (op_name) {
            // `operator<(...)` / `operator()(...)`: the symbols between the
            // keyword and the paren group are part of the name.
            const std::string op = operator_name(head, i);
            if (!op.empty()) best = op;
          } else if (!is_keyword(name) && !macro_cased(last_component(name))) {
            best = name;
          }
        }
        ++paren;
      }
      if (c == ')' && paren > 0) --paren;
    }
    return best;
  }

  /// Walks back over an identifier / qualified-id / destructor name ending
  /// just before position `pos`.
  static std::string identifier_before(const std::string& head, std::size_t pos) {
    std::size_t end = pos;
    while (end > 0 && head[end - 1] == ' ') --end;
    std::size_t begin = end;
    while (begin > 0) {
      const char c = head[begin - 1];
      if (is_ident_char(c) || c == '~') {
        --begin;
      } else if (c == ':' && begin >= 2 && head[begin - 2] == ':') {
        begin -= 2;
      } else {
        break;
      }
    }
    if (begin == end) return {};
    const std::string name = head.substr(begin, end - begin);
    // Reject pure scope (":...") artifacts and names starting with a digit.
    if (name.front() == ':' || std::isdigit(static_cast<unsigned char>(name.front())) != 0) {
      return {};
    }
    // An `operator` token directly before the identifier means this is a
    // conversion/operator name; report it via operator_name instead.
    return name;
  }

  static std::string operator_name(const std::string& head, std::size_t paren) {
    const std::size_t kw = head.rfind("operator", paren);
    if (kw == std::string::npos) return {};
    return "operator" + trim(head.substr(kw + std::string_view{"operator"}.size(),
                                         paren - kw - std::string_view{"operator"}.size()));
  }

  static bool has_ctor_colon(const std::string& head) {
    // A ':' at top level after the parameter list, not part of '::'.
    int paren = 0;
    bool past_params = false;
    for (std::size_t i = 0; i < head.size(); ++i) {
      const char c = head[i];
      if (c == '(') ++paren;
      if (c == ')') {
        if (--paren == 0) past_params = true;
        continue;
      }
      if (!past_params || paren != 0) continue;
      if (c == ':') {
        const bool scoped =
            (i + 1 < head.size() && head[i + 1] == ':') || (i > 0 && head[i - 1] == ':');
        if (!scoped) return true;
        ++i;  // skip the second ':' of '::'
      }
    }
    return false;
  }

  std::string qualify(const std::string& name) const {
    std::string qname;
    for (const Scope& scope : scopes_) {
      if (scope.kind == Scope::kBlock || scope.name.empty()) continue;
      qname += scope.name;
      qname += "::";
    }
    return qname + name;
  }

  static std::string last_component(const std::string& qname) {
    const std::size_t pos = qname.rfind("::");
    return pos == std::string::npos ? qname : qname.substr(pos + 2);
  }

  // --- function bodies ------------------------------------------------------

  void begin_function(const std::string& name, const std::string& head) {
    current_ = FunctionInfo{};
    current_.qname = qualify(name);
    current_.file = file_.path;
    current_.line = decl_line_ + 1;
    current_.is_definition = true;
    apply_annotations(current_, head);
    record_virtuals_and_callables(head);
    decl_.clear();
    in_body_ = true;
    body_depth_ = 1;
  }

  void body_step(const std::string& line) {
    const char c = line[ci_];
    if (c == '{') {
      ++body_depth_;
      return;
    }
    if (c == '}') {
      if (--body_depth_ == 0) {
        summary_.functions.push_back(std::move(current_));
        in_body_ = false;
        decl_.clear();
        last_significant_ = '}';
      }
      return;
    }
    if (is_ident_char(c) && (ci_ == 0 || !is_ident_char(line[ci_ - 1]))) {
      scan_word(line);
    }
  }

  /// Identifier starting at ci_: record calls and new/delete/throw.
  void scan_word(const std::string& line) {
    std::size_t end = ci_;
    while (end < line.size() && is_ident_char(line[end])) ++end;
    const std::string word = line.substr(ci_, end - ci_);
    std::size_t after = end;
    while (after < line.size() && line[after] == ' ') ++after;

    if (word == "new") {
      // Placement new (`new (addr) T`) constructs in existing storage.
      if (after >= line.size() || line[after] != '(') add_op(OpKind::kNew, word);
    } else if (word == "delete") {
      const std::size_t before = prev_significant(line, ci_);
      if (before == std::string::npos || line[before] != '=') add_op(OpKind::kDelete, word);
    } else if (word == "throw") {
      add_op(OpKind::kThrow, word);
    } else if (after < line.size() && line[after] == '(' && !is_keyword(word)) {
      record_call(line, word);
    } else {
      maybe_effect_token(word);
    }
    ci_ = end - 1;
  }

  void maybe_effect_token(const std::string& word) {
    for (const std::string& token : effect_tokens()) {
      if (word == token) {
        add_op(OpKind::kToken, word);
        return;
      }
    }
  }

  void record_call(const std::string& line, const std::string& word) {
    Op op;
    op.kind = OpKind::kCall;
    op.name = word;
    const std::size_t before = prev_significant(line, ci_);
    if (before != std::string::npos) {
      const char c = line[before];
      if (c == '.' || (c == '>' && before > 0 && line[before - 1] == '-')) {
        op.member = true;
      } else if (c == ':' && before > 0 && line[before - 1] == ':') {
        op.scoped = true;
        std::size_t qend = before - 1;
        std::size_t qbegin = qend;
        while (qbegin > 0 && is_ident_char(line[qbegin - 1])) --qbegin;
        if (qend > qbegin) op.qualifier = line.substr(qbegin, qend - qbegin);
      }
    }
    finish_op(std::move(op));
  }

  void add_op(OpKind kind, const std::string& name) {
    Op op;
    op.kind = kind;
    op.name = name;
    finish_op(std::move(op));
  }

  void finish_op(Op op) {
    op.file = file_.path;
    op.line = li_ + 1;
    op.text = trim(file_.raw[li_]);
    AllowGrant grant = parse_allow(file_.raw[li_]);
    if (!grant.present && li_ > 0) grant = parse_allow(file_.raw[li_ - 1]);
    if (grant.present) {
      op.allowed_rules = grant.rules;
      op.allow_reason = grant.reason;
      op.allow_missing_reason = grant.reason.empty();
    }
    current_.ops.push_back(std::move(op));
  }

  static std::size_t prev_significant(const std::string& line, std::size_t pos) {
    while (pos > 0) {
      --pos;
      if (line[pos] != ' ') return pos;
    }
    return std::string::npos;
  }

  // --- structure helpers ----------------------------------------------------

  /// Consumes a balanced {...} group starting at the current '{', leaving
  /// the cursor on the closing '}' (or at EOF for unbalanced input).
  void skip_balanced_braces() {
    int depth = 0;
    while (li_ < file_.clean.size()) {
      const std::string& line = file_.clean[li_];
      if (ci_ >= line.size()) {
        ++li_;
        ci_ = 0;
        continue;
      }
      const char c = line[ci_];
      if (c == '{') ++depth;
      if (c == '}') {
        --depth;
        if (depth <= 0) return;
      }
      ++ci_;
    }
  }

  bool preprocessor_line() {
    if (!preprocessor_line_at(li_)) return false;
    // Honor line continuations so multi-line macros stay opaque.
    while (li_ < file_.raw.size() && !file_.raw[li_].empty() && file_.raw[li_].back() == '\\') {
      ++li_;
    }
    return true;
  }

  bool preprocessor_line_at(std::size_t index) const {
    const std::string t = trim(file_.clean[index]);
    return !t.empty() && t[0] == '#';
  }

  const lint::SourceFile& file_;
  TuSummary summary_;
  std::size_t li_{0};
  std::size_t ci_{0};

  std::vector<Scope> scopes_;
  std::string decl_;
  std::size_t decl_line_{0};
  int decl_paren_{0};
  char last_significant_{';'};

  bool in_body_{false};
  int body_depth_{0};
  FunctionInfo current_;
};

}  // namespace

TuSummary summarize(const lint::SourceFile& file) { return Summarizer{file}.run(); }

}  // namespace hotpath
