#pragma once

#include <cstdint>
#include <optional>
#include <string>
#include <string_view>
#include <vector>

#include "core/units.hpp"
#include "fault/fault_plan.hpp"
#include "sim/time.hpp"

namespace tsim::scenarios {

/// Parsed form of the line-based topology description language used by the
/// `toposense_sim` CLI. Grammar (one directive per line, `#` comments):
///
///   node <name>
///   link <a> <b> <bandwidth> <latency> [queue <packets>] [red]
///   source <session> <node>
///   receiver <node> <session> [start <seconds>] [stop <seconds>]
///   controller <node>
///   domain <name> <border-node> [<node>...]
///   traffic packet
///   traffic fluid [step <seconds>]
///   fault link <a> <b> down <t> [up <t>]
///   fault link <a> <b> lossy <p> <t0> <t1>
///   fault link <a> <b> flap <t0> <t1> period <seconds> [duty <d>]
///   fault controller down <t0> up <t1>
///   fault suggestions drop <p> <t0> <t1>
///
/// Bandwidth accepts `bps`, `kbps`, `Mbps` suffixes (case-insensitive);
/// latency accepts `ms` and `s`. A `queue` limit is 1..4294967295 packets.
/// Fault times are plain seconds. Every number must be finite, and every time
/// at most 9.2e9 s (sim::Time holds int64 nanoseconds). Links are duplex;
/// link faults hit both directions.
///
/// `domain` declares a routing domain: the named nodes get their own
/// TopoSense controller, stationed at the border node (the first listed
/// node — the point where the parent domain's tree enters). Nodes in no
/// `domain` line form the implicit root domain around the `controller` node,
/// which therefore must not itself be claimed by a `domain` line. Each node
/// belongs to at most one domain.

/// Largest time the language accepts, in seconds: sim::Time holds int64
/// nanoseconds (about 9.22e9 s), and Time::seconds' conversion is undefined
/// beyond that.
inline constexpr double kMaxSeconds = 9.2e9;

/// Traffic engine requested by a `traffic` directive. kDefault means the
/// file said nothing and the ScenarioConfig's selection stands.
enum class TrafficEngineSpec {
  kDefault,
  kPacket,
  kFluid,
};

struct TopologyDescription {
  struct LinkSpec {
    std::string a;
    std::string b;
    units::BitsPerSec bandwidth{};
    sim::Time latency{};
    /// Default: max(30, bandwidth * kLinkLatency (200 ms) in packets),
    /// whatever `latency` is.
    std::optional<std::size_t> queue_packets{};
    bool red{false};
    int line{0};  ///< 1-based source line, for semantic diagnostics
  };
  struct SourceSpec {
    std::uint16_t session{0};
    std::string node;
    int line{0};
  };
  struct ReceiverSpec {
    std::string node;
    std::uint16_t session{0};
    sim::Time start{sim::Time::zero()};
    sim::Time stop{sim::Time::max()};
    int line{0};
    /// Label in Scenario::results(); empty means `<node>/s<session>`. Set by
    /// ScenarioBuilder's generated topologies, never by a directive.
    std::string name;
    /// Known optimal subscription (the closed forms of the generated
    /// topologies); unset means the offline OptimalAllocator computes it from
    /// the declared capacities. Never set by a directive.
    std::optional<int> optimal;
  };
  struct DomainSpec {
    std::string name;
    std::vector<std::string> nodes;  ///< first entry is the border/controller node
    int line{0};
  };

  std::vector<std::string> nodes;
  std::vector<LinkSpec> links;
  std::vector<SourceSpec> sources;
  std::vector<ReceiverSpec> receivers;
  std::vector<DomainSpec> domains;
  std::string controller_node;
  int controller_line{0};
  /// Traffic engine selection (`traffic` directive; kDefault when absent).
  TrafficEngineSpec engine{TrafficEngineSpec::kDefault};
  std::optional<double> fluid_step_s;  ///< `traffic fluid step <seconds>`
  int traffic_line{0};
  /// Schedule parsed from `fault` directives (empty when the file has none).
  fault::FaultPlan faults;
  /// Source line of each entry in `faults.events()`, same order (a directive
  /// like `fault link a b down .. up ..` contributes two events, one line).
  std::vector<int> fault_lines;
};

/// Parse result: either a description or a one-line error naming the line.
struct ParseResult {
  std::optional<TopologyDescription> description;
  std::string error;
  [[nodiscard]] bool ok() const { return description.has_value(); }
};

/// Parses the topology language. Validates that every referenced node is
/// declared, every session has exactly one source, exactly one controller is
/// set and the fault plan can run.
[[nodiscard]] ParseResult parse_topology(std::string_view text);

/// Parses "256kbps" / "1.5Mbps" / "8000bps" (case-insensitive suffix).
/// Returns a rate <= 0 on malformed input.
[[nodiscard]] units::BitsPerSec parse_bandwidth(std::string_view token);

/// Parses "200ms" / "1.5s". Returns negative time on malformed input and on
/// latencies beyond 9.2e9 s.
[[nodiscard]] sim::Time parse_latency(std::string_view token);

}  // namespace tsim::scenarios
