// DomainManager contract tests.
//
// The load-bearing guarantee is backwards compatibility: a run whose topology
// declares no domains builds a single-domain DomainManager, and that path
// must be *bit-for-bit identical* to the pre-domain single-controller wiring.
// The two golden fingerprints below were captured from the repository state
// before DomainManager existed (the fig6/fig7 experiment shapes); they must
// never change without a deliberate, documented behavior change.
//
// On top of that: the topology-language `domain` grammar, the child->parent
// summary / parent->child cap exchange (real kSummary packets), and the
// consistency sweep.
#include "control/domain_manager.hpp"

#include <gtest/gtest.h>

#include <cstdint>
#include <memory>
#include <stdexcept>
#include <string>
#include <utility>
#include <vector>

#include "scenarios/scenario.hpp"
#include "scenarios/scenario_builder.hpp"
#include "scenarios/topology_file.hpp"
#include "two_domain_topology.hpp"

namespace tsim::scenarios {
namespace {

using namespace tsim::sim::time_literals;
using sim::Time;

/// FNV-1a over every receiver's (node, final subscription, full subscription
/// timeline) — the same fold the goldens were captured with.
std::uint64_t fingerprint(const Scenario& s) {
  std::uint64_t h = 14695981039346656037ull;
  const auto mix = [&h](std::uint64_t v) {
    h ^= v;
    h *= 1099511628211ull;
  };
  for (const auto& r : s.results()) {
    mix(r.node);
    mix(static_cast<std::uint64_t>(r.final_subscription));
    for (const auto& [t, level] : r.timeline.points()) {
      mix(static_cast<std::uint64_t>(t.as_nanoseconds()));
      mix(static_cast<std::uint64_t>(level));
    }
  }
  return h;
}

/// Captured before the DomainManager refactor (single controller, no domain
/// layer at all): topology A, seed 42, VBR peak-to-mean 6, 60 s.
constexpr std::uint64_t kFig6Golden = 9490678231069009297ull;
/// Same vintage: topology B with 2 sessions, seed 1, VBR peak-to-mean 6, 60 s.
constexpr std::uint64_t kFig7Golden = 9597318739052090740ull;

TEST(DomainGoldenTest, Fig6SingleDomainMatchesPreDomainPipeline) {
  ScenarioConfig cfg;
  cfg.seed = 42;
  cfg.traffic.model = traffic::TrafficModel::kVbr;
  cfg.traffic.peak_to_mean = 6.0;
  cfg.duration = 60_s;
  auto s = ScenarioBuilder(cfg).topology_a(TopologyAOptions{}).build();
  s->run();
  ASSERT_NE(s->domains(), nullptr);
  EXPECT_EQ(s->domains()->domain_count(), 1u);
  EXPECT_FALSE(s->domains()->summaries_enabled());
  EXPECT_EQ(fingerprint(*s), kFig6Golden);
}

TEST(DomainGoldenTest, Fig7SingleDomainMatchesPreDomainPipeline) {
  ScenarioConfig cfg;
  cfg.seed = 1;
  cfg.traffic.model = traffic::TrafficModel::kVbr;
  cfg.traffic.peak_to_mean = 6.0;
  cfg.duration = 60_s;
  TopologyBOptions opts;
  opts.sessions = 2;
  auto s = ScenarioBuilder(cfg).topology_b(opts).build();
  s->run();
  ASSERT_NE(s->domains(), nullptr);
  EXPECT_EQ(s->domains()->domain_count(), 1u);
  EXPECT_EQ(fingerprint(*s), kFig7Golden);
}

TEST(DomainParseTest, DomainLinesParse) {
  const ParseResult parsed = parse_topology(kTwoDomainTopology);
  ASSERT_TRUE(parsed.ok()) << parsed.error;
  const TopologyDescription& desc = *parsed.description;
  ASSERT_EQ(desc.domains.size(), 2u);
  EXPECT_EQ(desc.domains[0].name, "one");
  EXPECT_EQ(desc.domains[0].nodes,
            (std::vector<std::string>{"d1", "d1r1", "d1r2"}));
  EXPECT_EQ(desc.domains[1].name, "two");
  EXPECT_EQ(desc.domains[1].nodes, (std::vector<std::string>{"d2", "d2r1"}));
}

TEST(DomainParseTest, RejectsUnknownNodeDuplicateClaimAndClaimedController) {
  const auto expect_error = [](const std::string& text, const std::string& needle) {
    const ParseResult parsed = parse_topology(text);
    ASSERT_FALSE(parsed.ok()) << "expected failure containing '" << needle << "'";
    EXPECT_NE(parsed.error.find(needle), std::string::npos) << parsed.error;
  };
  const std::string base = R"(
node src
node core
node r1
link src core 1Mbps 10ms
link core r1 1Mbps 10ms
source 0 src
receiver r1 0
controller core
)";
  expect_error(base + "domain one ghost\n", "ghost");
  expect_error(base + "domain one r1\ndomain two r1\n", "r1");
  expect_error(base + "domain one core r1\n", "core");
  expect_error(base + "domain one r1\ndomain one r1\n", "one");
}

TEST(DomainManagerTest, SummariesAndCapsFlowBetweenDomains) {
  const ParseResult parsed = parse_topology(kTwoDomainTopology);
  ASSERT_TRUE(parsed.ok()) << parsed.error;

  ScenarioConfig cfg;
  cfg.seed = 3;
  cfg.traffic.model = traffic::TrafficModel::kVbr;
  cfg.traffic.peak_to_mean = 6.0;
  cfg.duration = 40_s;
  auto s = ScenarioBuilder(cfg).topology(*parsed.description).build();

  control::DomainManager* manager = s->domains();
  ASSERT_NE(manager, nullptr);
  ASSERT_EQ(manager->domain_count(), 3u);  // core + one + two
  EXPECT_EQ(manager->domain(0).name, "core");
  EXPECT_EQ(manager->domain(0).parent, -1);
  EXPECT_EQ(manager->domain(1).parent, 0);
  EXPECT_EQ(manager->domain(2).parent, 0);
  // Every node is owned by exactly one domain (the partition is total).
  for (net::NodeId node = 0; node < s->network().node_count(); ++node) {
    EXPECT_GE(manager->domain_of(node), 0) << "node " << node;
  }
  for (std::size_t d = 0; d < manager->domain_count(); ++d) {
    for (const net::NodeId node : manager->domain(d).nodes) {
      EXPECT_EQ(manager->domain_of(node), static_cast<int>(d));
    }
  }
  EXPECT_TRUE(manager->summaries_enabled());

  s->run();

  // Both children sent periodic demand summaries; the parent ingested them
  // (the only packets on those paths are summaries, so losses aside the
  // counters move together) and pushed at least one border cap back down.
  EXPECT_GT(manager->summaries_sent(), 0u);
  EXPECT_GT(manager->summaries_received(), 0u);
  EXPECT_LE(manager->summaries_received(), manager->summaries_sent());
  EXPECT_GT(manager->caps_sent(), 0u);
  EXPECT_LE(manager->caps_received(), manager->caps_sent());

  // The parent treats each child's border as a pseudo-receiver, so its
  // controller hears exactly its own domain's receivers (none) plus borders.
  ASSERT_NE(manager->agent(0), nullptr);
  EXPECT_TRUE(manager->agent(0)->is_border(0, manager->domain(1).controller_node));
  EXPECT_TRUE(manager->agent(0)->is_border(0, manager->domain(2).controller_node));

  // Caps that arrived clamp the child's prescriptions to a real layer range.
  std::vector<std::string> failures;
  manager->check_consistency([&](const std::string& detail) { failures.push_back(detail); });
  EXPECT_TRUE(failures.empty()) << failures.front();
}

TEST(DomainManagerTest, MultiDomainRunsAreDeterministic) {
  const auto run_once = [] {
    const ParseResult parsed = parse_topology(kTwoDomainTopology);
    ScenarioConfig cfg;
    cfg.seed = 7;
    cfg.traffic.model = traffic::TrafficModel::kVbr;
    cfg.traffic.peak_to_mean = 6.0;
    cfg.duration = 30_s;
    auto s = ScenarioBuilder(cfg).topology(*parsed.description).build();
    s->run();
    return fingerprint(*s);
  };
  EXPECT_EQ(run_once(), run_once());
}

/// Builds a DomainManager directly over four bare nodes, so each partition
/// check is reached without the topology grammar refusing the input first.
class DomainPartitionTest : public ::testing::Test {
 protected:
  DomainPartitionTest() {
    for (int i = 0; i < 4; ++i) network_.add_node();
  }

  /// The refusal's message, or "" when the partition is accepted.
  std::string refusal(std::vector<control::Domain> domains) {
    try {
      const control::DomainManager manager{
          simulation_, network_, demuxes_, std::move(domains),
          [](std::size_t, const control::Domain&) {
            return std::make_unique<control::NullController>();
          }};
    } catch (const std::invalid_argument& e) {
      return e.what();
    }
    return "";
  }

  sim::Simulation simulation_{1};
  net::Network network_{simulation_};
  transport::DemuxRegistry demuxes_{network_};
  const control::Domain root_{"root", 0, {0, 1}, -1};
};

TEST_F(DomainPartitionTest, AcceptsAForest) {
  EXPECT_EQ(refusal({root_, {"child", 2, {2, 3}, 0}}), "");
}

TEST_F(DomainPartitionTest, RefusesANodeWithTwoOwners) {
  EXPECT_EQ(refusal({root_, {"child", 2, {1, 2, 3}, 0}}),
            "node 1 is owned by domains 'root' and 'child'");
}

TEST_F(DomainPartitionTest, RefusesAControllerOutsideItsDomain) {
  EXPECT_EQ(refusal({root_, {"child", 2, {3}, 0}}),
            "domain 'child' does not own its own controller node");
}

TEST_F(DomainPartitionTest, RefusesAnInvalidParent) {
  EXPECT_EQ(refusal({root_, {"child", 2, {2, 3}, 2}}),
            "domain 'child' has an invalid parent index");
  EXPECT_EQ(refusal({root_, {"child", 2, {2, 3}, 1}}),
            "domain 'child' has an invalid parent index");
}

TEST_F(DomainPartitionTest, RefusesAParentCycle) {
  EXPECT_EQ(refusal({{"a", 0, {0, 1}, 1}, {"b", 2, {2, 3}, 0}}),
            "domain parent links contain a cycle");
}

TEST(DomainManagerTest, ReceiverDrivenSchemesStayIndependent) {
  // Non-TopoSense schemes run their domains without a summary control plane.
  const ParseResult parsed = parse_topology(kTwoDomainTopology);
  ASSERT_TRUE(parsed.ok()) << parsed.error;
  ScenarioConfig cfg;
  cfg.seed = 9;
  cfg.duration = 20_s;
  cfg.control.kind = ControllerKind::kReceiverDriven;
  auto s = ScenarioBuilder(cfg).topology(*parsed.description).build();
  control::DomainManager* manager = s->domains();
  ASSERT_NE(manager, nullptr);
  EXPECT_EQ(manager->domain_count(), 3u);
  EXPECT_FALSE(manager->summaries_enabled());
  s->run();
  EXPECT_EQ(manager->summaries_sent(), 0u);
  // The receivers still adapted: somebody moved off the initial subscription.
  bool adapted = false;
  for (const auto& r : s->results()) adapted |= !r.timeline.points().empty();
  EXPECT_TRUE(adapted);
}

}  // namespace
}  // namespace tsim::scenarios
