#include "scenarios/topology_file.hpp"

#include <algorithm>
#include <cctype>
#include <charconv>
#include <cmath>
#include <cstdint>
#include <limits>
#include <map>
#include <set>
#include <sstream>
#include <utility>

namespace tsim::scenarios {

namespace {

std::string lower(std::string_view s) {
  std::string out{s};
  std::transform(out.begin(), out.end(), out.begin(),
                 [](unsigned char c) { return static_cast<char>(std::tolower(c)); });
  return out;
}

std::vector<std::string> tokenize(const std::string& line) {
  std::vector<std::string> tokens;
  std::istringstream in{line};
  std::string token;
  while (in >> token) {
    if (token.front() == '#') break;  // trailing comment
    tokens.push_back(token);
  }
  return tokens;
}

/// Parses a finite number; NaN and the infinities are malformed here.
bool parse_double(std::string_view s, double& out) {
  // std::from_chars for double is unevenly supported; go through strtod.
  const std::string copy{s};
  char* end = nullptr;
  out = std::strtod(copy.c_str(), &end);
  return end == copy.c_str() + copy.size() && !copy.empty() && std::isfinite(out);
}

bool parse_seconds(const std::string& token, sim::Time& out, std::string& error,
                   const char* what) {
  double value = 0.0;
  if (!parse_double(token, value) || value < 0.0) {
    error = std::string{"bad "} + what + " '" + token + "' (plain seconds, e.g. 60)";
    return false;
  }
  if (value > kMaxSeconds) {
    error = std::string{what} + " '" + token + "' out of range (at most 9.2e9 s)";
    return false;
  }
  out = sim::Time::seconds(value);
  return true;
}

bool parse_probability(const std::string& token, double& out, std::string& error) {
  if (!parse_double(token, out) || out < 0.0 || out > 1.0) {
    error = "bad probability '" + token + "' (must be in [0, 1])";
    return false;
  }
  return true;
}

bool parse_session(const std::string& token, std::uint16_t& out, std::string& error) {
  unsigned value = 0;
  const auto [ptr, ec] =
      std::from_chars(token.data(), token.data() + token.size(), value);
  if (ec != std::errc{} || ptr != token.data() + token.size() || value > 0xFFFFu) {
    error = "bad session id '" + token + "' (integer in [0, 65535])";
    return false;
  }
  out = static_cast<std::uint16_t>(value);
  return true;
}

/// Parses one `fault ...` directive (tokens[0] == "fault") into `plan`.
bool parse_fault_line(const std::vector<std::string>& tokens, fault::FaultPlan& plan,
                      std::string& error) {
  if (tokens.size() < 2) {
    error = "fault needs: link|controller|suggestions ...";
    return false;
  }
  const std::string& target = tokens[1];

  if (target == "link") {
    if (tokens.size() < 5) {
      error = "fault link needs: a b down|lossy|flap ...";
      return false;
    }
    const std::string& a = tokens[2];
    const std::string& b = tokens[3];
    const std::string& mode = tokens[4];
    if (mode == "down") {
      // fault link a b down <t> [up <t>]
      sim::Time down_at{};
      if (tokens.size() != 6 && !(tokens.size() == 8 && tokens[6] == "up")) {
        error = "fault link down needs: down <t> [up <t>]";
        return false;
      }
      if (!parse_seconds(tokens[5], down_at, error, "down time")) return false;
      if (tokens.size() == 8) {
        sim::Time up_at{};
        if (!parse_seconds(tokens[7], up_at, error, "up time")) return false;
        plan.link_outage(a, b, down_at, up_at);
      } else {
        plan.link_down(a, b, down_at);
      }
      return true;
    }
    if (mode == "lossy") {
      // fault link a b lossy <p> <t0> <t1>
      if (tokens.size() != 8) {
        error = "fault link lossy needs: lossy <p> <t0> <t1>";
        return false;
      }
      double p = 0.0;
      sim::Time from{};
      sim::Time to{};
      if (!parse_probability(tokens[5], p, error)) return false;
      if (!parse_seconds(tokens[6], from, error, "start time")) return false;
      if (!parse_seconds(tokens[7], to, error, "end time")) return false;
      plan.link_lossy(a, b, p, from, to);
      return true;
    }
    if (mode == "flap") {
      // fault link a b flap <t0> <t1> period <seconds> [duty <d>]
      if (tokens.size() != 9 && tokens.size() != 11) {
        error = "fault link flap needs: flap <t0> <t1> period <seconds> [duty <d>]";
        return false;
      }
      sim::Time from{};
      sim::Time to{};
      sim::Time period{};
      double duty = 0.5;
      if (!parse_seconds(tokens[5], from, error, "start time")) return false;
      if (!parse_seconds(tokens[6], to, error, "end time")) return false;
      if (tokens[7] != "period" || !parse_seconds(tokens[8], period, error, "period")) {
        if (error.empty()) error = "fault link flap: expected 'period <seconds>'";
        return false;
      }
      if (tokens.size() == 11) {
        if (tokens[9] != "duty" || !parse_probability(tokens[10], duty, error)) {
          if (error.empty()) error = "fault link flap: expected 'duty <fraction>'";
          return false;
        }
      }
      plan.link_flap(a, b, from, to, period, duty);
      return true;
    }
    error = "unknown fault link mode '" + mode + "' (down|lossy|flap)";
    return false;
  }

  if (target == "controller") {
    // fault controller down <t0> up <t1>
    if (tokens.size() != 6 || tokens[2] != "down" || tokens[4] != "up") {
      error = "fault controller needs: down <t0> up <t1>";
      return false;
    }
    sim::Time from{};
    sim::Time to{};
    if (!parse_seconds(tokens[3], from, error, "down time")) return false;
    if (!parse_seconds(tokens[5], to, error, "up time")) return false;
    plan.controller_outage(from, to);
    return true;
  }

  if (target == "suggestions") {
    // fault suggestions drop <p> <t0> <t1>
    if (tokens.size() != 6 || tokens[2] != "drop") {
      error = "fault suggestions needs: drop <p> <t0> <t1>";
      return false;
    }
    double p = 0.0;
    sim::Time from{};
    sim::Time to{};
    if (!parse_probability(tokens[3], p, error)) return false;
    if (!parse_seconds(tokens[4], from, error, "start time")) return false;
    if (!parse_seconds(tokens[5], to, error, "end time")) return false;
    plan.drop_suggestions(p, from, to);
    return true;
  }

  error = "unknown fault target '" + target + "' (link|controller|suggestions)";
  return false;
}

}  // namespace

units::BitsPerSec parse_bandwidth(std::string_view token) {
  const std::string t = lower(token);
  double scale = 1.0;
  std::string_view digits = t;
  if (t.size() > 4 && t.substr(t.size() - 4) == "kbps") {
    scale = 1e3;
    digits = std::string_view{t}.substr(0, t.size() - 4);
  } else if (t.size() > 4 && t.substr(t.size() - 4) == "mbps") {
    scale = 1e6;
    digits = std::string_view{t}.substr(0, t.size() - 4);
  } else if (t.size() > 4 && t.substr(t.size() - 4) == "gbps") {
    scale = 1e9;
    digits = std::string_view{t}.substr(0, t.size() - 4);
  } else if (t.size() > 3 && t.substr(t.size() - 3) == "bps") {
    digits = std::string_view{t}.substr(0, t.size() - 3);
  } else {
    return units::BitsPerSec{-1.0};
  }
  double value = 0.0;
  if (!parse_double(digits, value) || value <= 0.0) return units::BitsPerSec{-1.0};
  return units::BitsPerSec{value * scale};
}

sim::Time parse_latency(std::string_view token) {
  const std::string t = lower(token);
  double scale_to_seconds = 0.0;
  std::string_view digits = t;
  if (t.size() > 2 && t.substr(t.size() - 2) == "ms") {
    scale_to_seconds = 1e-3;
    digits = std::string_view{t}.substr(0, t.size() - 2);
  } else if (t.size() > 1 && t.back() == 's') {
    scale_to_seconds = 1.0;
    digits = std::string_view{t}.substr(0, t.size() - 1);
  } else {
    return sim::Time::seconds(-1.0);
  }
  double value = 0.0;
  if (!parse_double(digits, value) || value < 0.0 || value * scale_to_seconds > kMaxSeconds) {
    return sim::Time::seconds(-1.0);
  }
  return sim::Time::seconds(value * scale_to_seconds);
}

ParseResult parse_topology(std::string_view text) {
  TopologyDescription desc;
  std::set<std::string> node_names;

  auto fail = [](int line_no, const std::string& message) {
    ParseResult r;
    // line 0 = file-level error with no single offending line
    r.error = line_no > 0 ? "line " + std::to_string(line_no) + ": " + message : message;
    return r;
  };

  std::istringstream in{std::string{text}};
  std::string line;
  int line_no = 0;
  while (std::getline(in, line)) {
    ++line_no;
    const auto tokens = tokenize(line);
    if (tokens.empty()) continue;
    const std::string& directive = tokens[0];

    if (directive == "node") {
      if (tokens.size() != 2) return fail(line_no, "node takes exactly one name");
      if (!node_names.insert(tokens[1]).second) {
        return fail(line_no, "duplicate node '" + tokens[1] + "'");
      }
      desc.nodes.push_back(tokens[1]);
    } else if (directive == "link") {
      if (tokens.size() < 5) return fail(line_no, "link needs: a b bandwidth latency");
      TopologyDescription::LinkSpec link;
      link.line = line_no;
      link.a = tokens[1];
      link.b = tokens[2];
      link.bandwidth = parse_bandwidth(tokens[3]);
      if (link.bandwidth <= units::BitsPerSec::zero()) {
        return fail(line_no, "bad bandwidth '" + tokens[3] + "' (use e.g. 256kbps, 1.5Mbps)");
      }
      if (link.bandwidth > units::BitsPerSec{1e12}) {
        return fail(line_no,
                    "bandwidth '" + tokens[3] + "' out of range (max 1000Gbps)");
      }
      link.latency = parse_latency(tokens[4]);
      if (link.latency < sim::Time::zero()) {
        return fail(line_no, "bad latency '" + tokens[4] +
                                 "' (use e.g. 200ms, 1s; at most 9.2e9 s)");
      }
      for (std::size_t i = 5; i < tokens.size(); ++i) {
        if (tokens[i] == "red") {
          link.red = true;
        } else if (tokens[i] == "queue" && i + 1 < tokens.size()) {
          std::size_t packets = 0;
          const auto [ptr, ec] = std::from_chars(
              tokens[i + 1].data(), tokens[i + 1].data() + tokens[i + 1].size(), packets);
          if (ec != std::errc{} || packets == 0) {
            return fail(line_no, "bad queue size '" + tokens[i + 1] + "'");
          }
          if (packets > std::numeric_limits<std::uint32_t>::max()) {
            return fail(line_no, "queue size '" + tokens[i + 1] +
                                     "' out of range (max 4294967295 packets)");
          }
          link.queue_packets = packets;
          ++i;
        } else {
          return fail(line_no, "unknown link option '" + tokens[i] + "'");
        }
      }
      desc.links.push_back(link);
    } else if (directive == "source") {
      if (tokens.size() != 3) return fail(line_no, "source needs: session node");
      TopologyDescription::SourceSpec src;
      src.line = line_no;
      std::string error;
      if (!parse_session(tokens[1], src.session, error)) return fail(line_no, error);
      src.node = tokens[2];
      desc.sources.push_back(src);
    } else if (directive == "receiver") {
      if (tokens.size() < 3) return fail(line_no, "receiver needs: node session");
      TopologyDescription::ReceiverSpec rcv;
      rcv.line = line_no;
      rcv.node = tokens[1];
      std::string error;
      if (!parse_session(tokens[2], rcv.session, error)) return fail(line_no, error);
      for (std::size_t i = 3; i < tokens.size(); i += 2) {
        if (i + 1 >= tokens.size()) {
          return fail(line_no, "receiver option '" + tokens[i] + "' needs a value");
        }
        sim::Time value{};
        if (!parse_seconds(tokens[i + 1], value, error, "time")) return fail(line_no, error);
        if (tokens[i] == "start") {
          rcv.start = value;
        } else if (tokens[i] == "stop") {
          rcv.stop = value;
        } else {
          return fail(line_no, "unknown receiver option '" + tokens[i] + "'");
        }
      }
      if (rcv.stop <= rcv.start) {
        return fail(line_no, "receiver stop must be after start");
      }
      desc.receivers.push_back(rcv);
    } else if (directive == "controller") {
      if (tokens.size() != 2) return fail(line_no, "controller takes one node");
      if (desc.controller_line != 0) {
        return fail(line_no, "a controller is already declared (line " +
                                 std::to_string(desc.controller_line) + ")");
      }
      desc.controller_node = tokens[1];
      desc.controller_line = line_no;
    } else if (directive == "domain") {
      if (tokens.size() < 3) {
        return fail(line_no, "domain needs: name border-node [node...]");
      }
      TopologyDescription::DomainSpec dom;
      dom.line = line_no;
      dom.name = tokens[1];
      for (const auto& existing : desc.domains) {
        if (existing.name == dom.name) {
          return fail(line_no, "duplicate domain '" + dom.name + "'");
        }
      }
      dom.nodes.assign(tokens.begin() + 2, tokens.end());
      desc.domains.push_back(std::move(dom));
    } else if (directive == "traffic") {
      if (tokens.size() < 2) {
        return fail(line_no, "traffic needs: packet|fluid [options]");
      }
      const std::string& engine = tokens[1];
      if (engine == "packet") {
        desc.engine = TrafficEngineSpec::kPacket;
      } else if (engine == "fluid") {
        desc.engine = TrafficEngineSpec::kFluid;
      } else {
        return fail(line_no, "unknown traffic engine '" + engine + "' (packet|fluid)");
      }
      desc.traffic_line = line_no;
      for (std::size_t i = 2; i < tokens.size(); i += 2) {
        if (i + 1 >= tokens.size()) {
          return fail(line_no, "traffic option '" + tokens[i] + "' needs a value");
        }
        if (tokens[i] == "step" && desc.engine == TrafficEngineSpec::kFluid) {
          double step_s = 0.0;
          if (!parse_double(tokens[i + 1], step_s) || step_s <= 0.0 || step_s > 1.0) {
            return fail(line_no, "bad step '" + tokens[i + 1] + "' (seconds in (0, 1])");
          }
          // The fluid engine requires a step that divides one second exactly
          // (a step must never span two VBR intervals); diagnose here with a
          // line number instead of at FluidEngine construction.
          const auto step_ns = sim::Time::seconds(step_s).as_nanoseconds();
          if (step_ns <= 0 || 1'000'000'000 % step_ns != 0) {
            return fail(line_no,
                        "step '" + tokens[i + 1] + "' must divide one second exactly");
          }
          desc.fluid_step_s = step_s;
        } else {
          return fail(line_no, "unknown traffic option '" + tokens[i] + "' for engine '" +
                                   engine + "'");
        }
      }
    } else if (directive == "fault") {
      std::string error;
      if (!parse_fault_line(tokens, desc.faults, error)) return fail(line_no, error);
      // resize only fills the events this directive just appended
      desc.fault_lines.resize(desc.faults.size(), line_no);
    } else {
      return fail(line_no, "unknown directive '" + directive + "'");
    }
  }

  // Semantic validation. Every diagnostic points at the offending line.
  auto known = [&](const std::string& name) { return node_names.count(name) != 0; };
  std::set<std::pair<std::string, std::string>> link_pairs;
  for (const auto& link : desc.links) {
    if (!known(link.a)) {
      return fail(link.line, "link references undeclared node '" + link.a + "'");
    }
    if (!known(link.b)) {
      return fail(link.line, "link references undeclared node '" + link.b + "'");
    }
    link_pairs.insert(link.a < link.b ? std::make_pair(link.a, link.b)
                                      : std::make_pair(link.b, link.a));
  }
  std::map<std::uint16_t, int> source_line;  // session -> line of its source
  for (const auto& src : desc.sources) {
    if (!known(src.node)) {
      return fail(src.line, "source on undeclared node '" + src.node + "'");
    }
    const auto [it, inserted] = source_line.emplace(src.session, src.line);
    if (!inserted) {
      return fail(src.line, "session " + std::to_string(src.session) +
                                " already has a source (line " + std::to_string(it->second) +
                                ")");
    }
  }
  for (const auto& rcv : desc.receivers) {
    if (!known(rcv.node)) {
      return fail(rcv.line, "receiver on undeclared node '" + rcv.node + "'");
    }
    if (source_line.count(rcv.session) == 0) {
      return fail(rcv.line,
                  "receiver session " + std::to_string(rcv.session) + " has no source");
    }
  }
  const auto& fault_events = desc.faults.events();
  for (std::size_t i = 0; i < fault_events.size(); ++i) {
    const auto& ev = fault_events[i];
    const int ev_line = i < desc.fault_lines.size() ? desc.fault_lines[i] : 0;
    if (!ev.a.empty() && !known(ev.a)) {
      return fail(ev_line, "fault references undeclared node '" + ev.a + "'");
    }
    if (!ev.b.empty() && !known(ev.b)) {
      return fail(ev_line, "fault references undeclared node '" + ev.b + "'");
    }
    const bool is_link_fault = ev.kind == fault::FaultKind::kLinkDown ||
                               ev.kind == fault::FaultKind::kLinkUp ||
                               ev.kind == fault::FaultKind::kLinkFlap ||
                               ev.kind == fault::FaultKind::kLinkLossy;
    if (is_link_fault) {
      const auto pair = ev.a < ev.b ? std::make_pair(ev.a, ev.b)
                                    : std::make_pair(ev.b, ev.a);
      if (link_pairs.count(pair) == 0) {
        return fail(ev_line, "fault on nonexistent link '" + ev.a + " " + ev.b +
                                 "' (no such `link` declared)");
      }
    }
  }
  if (const auto problem = desc.faults.validate()) {
    return fail(desc.fault_lines[problem->event], problem->message);
  }
  if (desc.receivers.empty()) return fail(0, "no receivers declared");
  if (desc.controller_node.empty()) return fail(0, "no controller declared");
  if (!known(desc.controller_node)) {
    return fail(desc.controller_line,
                "controller on undeclared node '" + desc.controller_node + "'");
  }
  std::map<std::string, std::string> domain_of_node;  // node -> domain name
  for (const auto& dom : desc.domains) {
    for (const auto& name : dom.nodes) {
      if (!known(name)) {
        return fail(dom.line,
                    "domain '" + dom.name + "' references undeclared node '" + name + "'");
      }
      const auto [it, inserted] = domain_of_node.emplace(name, dom.name);
      if (!inserted) {
        return fail(dom.line, "node '" + name + "' already belongs to domain '" +
                                  it->second + "'");
      }
    }
    // The controller node anchors the implicit root domain; claiming it would
    // leave the root headless.
    if (domain_of_node.count(desc.controller_node) != 0) {
      return fail(dom.line, "controller node '" + desc.controller_node +
                                "' cannot belong to a domain (it anchors the root)");
    }
  }

  ParseResult result;
  result.description = std::move(desc);
  return result;
}

}  // namespace tsim::scenarios
