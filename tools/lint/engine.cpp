#include "engine.hpp"

#include <cctype>
#include <fstream>
#include <stdexcept>

namespace lint {

void Check::collect(const SourceFile& /*file*/, GlobalContext& /*ctx*/) const {}

bool SourceFile::has_component(std::string_view name) const {
  std::size_t start = 0;
  while (start <= path.size()) {
    std::size_t end = path.find('/', start);
    if (end == std::string::npos) end = path.size();
    if (path.compare(start, end - start, name) == 0) return true;
    start = end + 1;
  }
  return false;
}

bool SourceFile::has_components(std::string_view a, std::string_view b) const {
  std::string pattern;
  pattern.reserve(a.size() + b.size() + 1);
  pattern.append(a);
  pattern += '/';
  pattern.append(b);
  std::size_t pos = 0;
  while ((pos = path.find(pattern, pos)) != std::string::npos) {
    const bool left_ok = pos == 0 || path[pos - 1] == '/';
    const std::size_t after = pos + pattern.size();
    const bool right_ok = after == path.size() || path[after] == '/';
    if (left_ok && right_ok) return true;
    ++pos;
  }
  return false;
}

bool SourceFile::is_header() const {
  const std::size_t dot = path.rfind('.');
  if (dot == std::string::npos) return false;
  const std::string ext = path.substr(dot);
  return ext == ".hpp" || ext == ".h" || ext == ".hxx";
}

void CheckRegistry::add(std::unique_ptr<Check> check) { checks_.push_back(std::move(check)); }

const Check* CheckRegistry::find(std::string_view name) const {
  for (const auto& c : checks_) {
    if (c->name() == name) return c.get();
  }
  return nullptr;
}

void register_builtin_checks(CheckRegistry& registry) {
  registry.add(make_determinism_check());
  registry.add(make_raw_units_check());
  registry.add(make_callback_lifetime_check());
  registry.add(make_float_accumulation_check());
  registry.add(make_shared_mutable_static_check());
  registry.add(make_nondeterministic_source_check());
  registry.add(make_cross_shard_id_check());
}

bool is_ident_char(char c) {
  return std::isalnum(static_cast<unsigned char>(c)) != 0 || c == '_';
}

bool contains_token(const std::string& text, std::string_view token) {
  std::size_t pos = 0;
  while ((pos = text.find(token, pos)) != std::string::npos) {
    const bool left_ok = pos == 0 || !is_ident_char(text[pos - 1]);
    if (left_ok) return true;
    pos += token.size();
  }
  return false;
}

namespace {

/// When the '"' at `quote` opens a raw string literal (R", uR", u8R", ...),
/// returns the index where the literal's prefix starts; npos otherwise.
std::size_t raw_string_prefix(const std::string& line, std::size_t quote) {
  if (quote == 0 || line[quote - 1] != 'R') return std::string::npos;
  std::size_t start = quote - 1;
  if (start >= 2 && line[start - 2] == 'u' && line[start - 1] == '8') {
    start -= 2;
  } else if (start >= 1 &&
             (line[start - 1] == 'u' || line[start - 1] == 'U' || line[start - 1] == 'L')) {
    start -= 1;
  }
  if (start > 0 && is_ident_char(line[start - 1])) return std::string::npos;
  return start;
}

}  // namespace

std::vector<std::string> strip_comments(const std::vector<std::string>& lines) {
  std::vector<std::string> out;
  out.reserve(lines.size());
  bool in_block = false;
  std::string raw_terminator;  ///< non-empty while inside a raw string: ")delim\""
  for (const std::string& line : lines) {
    std::string clean;
    clean.reserve(line.size());
    for (std::size_t i = 0; i < line.size(); ++i) {
      if (!raw_terminator.empty()) {
        const std::size_t close = line.find(raw_terminator, i);
        if (close == std::string::npos) {
          i = line.size();
          break;
        }
        i = close + raw_terminator.size() - 1;  // land on the closing '"'
        clean += '"';
        raw_terminator.clear();
        continue;
      }
      if (in_block) {
        if (line.compare(i, 2, "*/") == 0) {
          in_block = false;
          ++i;
        }
        continue;
      }
      if (line.compare(i, 2, "//") == 0) break;
      if (line.compare(i, 2, "/*") == 0) {
        in_block = true;
        ++i;
        continue;
      }
      if (line[i] == '"' && raw_string_prefix(line, i) != std::string::npos) {
        // R"delim( ... )delim" — no escapes inside; the only terminator is the
        // exact )delim" sequence, which may sit on a later line.
        const std::size_t paren = line.find('(', i + 1);
        if (paren == std::string::npos) break;  // ill-formed; drop the tail
        raw_terminator = ")" + line.substr(i + 1, paren - i - 1) + "\"";
        clean += '"';
        i = paren;
        continue;
      }
      if (line[i] == '\'' && i > 0 && is_ident_char(line[i - 1])) {
        // Digit separator (32'000) — a char literal can never directly
        // follow an identifier character, so keep the quote as plain text
        // instead of stripping the rest of the line as a "literal".
        clean += line[i];
        continue;
      }
      if (line[i] == '"' || line[i] == '\'') {
        const char quote = line[i];
        clean += quote;
        ++i;
        while (i < line.size() && line[i] != quote) {
          if (line[i] == '\\') ++i;
          ++i;
        }
        if (i < line.size()) clean += quote;
        continue;
      }
      clean += line[i];
    }
    out.push_back(std::move(clean));
  }
  return out;
}

std::string range_for_target(const std::string& line) {
  const std::size_t f = line.find("for ");
  const std::size_t f2 = f == std::string::npos ? line.find("for(") : f;
  if (f2 == std::string::npos) return {};
  const std::size_t colon = line.find(" : ", f2);
  if (colon == std::string::npos) return {};
  std::size_t end = line.size();
  // Trim to the closing ')' of the for header if present.
  const std::size_t close = line.find(')', colon);
  if (close != std::string::npos) end = close;
  std::string expr = line.substr(colon + 3, end - colon - 3);
  // Drop a trailing call/index — "foo.bar()" orders by bar's result, not bar.
  if (!expr.empty() && (expr.back() == ')' || expr.back() == ']')) return {};
  std::size_t i = expr.size();
  while (i > 0 && is_ident_char(expr[i - 1])) --i;
  return expr.substr(i);
}

std::set<std::string> unordered_names(const std::string& text) {
  std::set<std::string> names;
  for (const char* kind : {"unordered_map<", "unordered_set<"}) {
    std::size_t pos = 0;
    while ((pos = text.find(kind, pos)) != std::string::npos) {
      std::size_t i = pos + std::string{kind}.size();
      int depth = 1;
      while (i < text.size() && depth > 0) {
        if (text[i] == '<') ++depth;
        if (text[i] == '>') --depth;
        ++i;
      }
      // Skip refs/pointers/whitespace, then read the declared identifier.
      while (i < text.size() &&
             (std::isspace(static_cast<unsigned char>(text[i])) != 0 || text[i] == '&' ||
              text[i] == '*')) {
        ++i;
      }
      std::string name;
      while (i < text.size() && is_ident_char(text[i])) name += text[i++];
      if (!name.empty() && !std::isdigit(static_cast<unsigned char>(name[0]))) {
        names.insert(name);
      }
      pos += std::string{kind}.size();
    }
  }
  return names;
}

bool first_template_arg_is_pointer(const std::string& text, std::size_t args_begin) {
  int depth = 1;
  for (std::size_t i = args_begin; i < text.size() && depth > 0; ++i) {
    if (text[i] == '<' || text[i] == '(') ++depth;
    if (text[i] == '>' || text[i] == ')') --depth;
    if (depth == 1 && text[i] == ',') return false;  // first argument ended
    if (depth >= 1 && text[i] == '*') return true;
  }
  return false;
}

std::string trim(const std::string& s) {
  std::size_t begin = 0;
  std::size_t end = s.size();
  while (begin < end && std::isspace(static_cast<unsigned char>(s[begin])) != 0) ++begin;
  while (end > begin && std::isspace(static_cast<unsigned char>(s[end - 1])) != 0) --end;
  return s.substr(begin, end - begin);
}

namespace {

/// True when `line` carries a generic NOLINT(...) list naming `check` or `*`.
bool generic_marker(const std::string& line, std::string_view check) {
  std::size_t pos = 0;
  while ((pos = line.find("NOLINT(", pos)) != std::string::npos) {
    // A NOLINT( right after an identifier character belongs to a longer name.
    const bool left_ok = pos == 0 || !is_ident_char(line[pos - 1]);
    pos += std::string_view{"NOLINT("}.size();
    if (!left_ok) continue;
    const std::size_t close = line.find(')', pos);
    if (close == std::string::npos) return false;
    // Split the comma-separated list.
    std::size_t item = pos;
    while (item < close) {
      std::size_t comma = line.find(',', item);
      if (comma == std::string::npos || comma > close) comma = close;
      const std::string name = trim(line.substr(item, comma - item));
      if (name == "*" || name == check) return true;
      item = comma + 1;
    }
  }
  return false;
}

}  // namespace

bool suppressed(const SourceFile& file, std::size_t idx, std::string_view check) {
  if (generic_marker(file.raw[idx], check)) return true;
  return idx > 0 && generic_marker(file.raw[idx - 1], check);
}

SourceFile load_file(const std::filesystem::path& path) {
  std::ifstream in{path};
  if (!in) throw std::runtime_error("cannot read '" + path.string() + "'");
  SourceFile file;
  file.path = path.lexically_normal().generic_string();
  for (std::string line; std::getline(in, line);) file.raw.push_back(std::move(line));
  file.clean = strip_comments(file.raw);
  for (const std::string& line : file.clean) {
    file.clean_joined += line;
    file.clean_joined += '\n';
  }
  return file;
}

bool lintable(const std::filesystem::path& p) {
  const std::string ext = p.extension().string();
  return ext == ".cpp" || ext == ".cc" || ext == ".cxx" || ext == ".hpp" || ext == ".h";
}

}  // namespace lint
