#include "mcast/multicast_router.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <map>
#include <set>
#include <stdexcept>
#include <utility>
#include <vector>

#include "sim/random.hpp"
#include "sim/simulation.hpp"

namespace tsim::mcast {
namespace {

using namespace tsim::sim::time_literals;
using sim::Time;

/// star: src -> r -> {a, b}; all duplex 10 Mbps, 10 ms.
struct McastFixture : ::testing::Test {
  sim::Simulation simulation{1};
  net::Network network{simulation};
  net::NodeId src{network.add_node("src")};
  net::NodeId r{network.add_node("r")};
  net::NodeId a{network.add_node("a")};
  net::NodeId b{network.add_node("b")};
  MulticastRouter router{simulation, network, {1_s}};

  McastFixture() {
    network.add_duplex_link(src, r, tsim::units::BitsPerSec{10e6}, 10_ms);
    network.add_duplex_link(r, a, tsim::units::BitsPerSec{10e6}, 10_ms);
    network.add_duplex_link(r, b, tsim::units::BitsPerSec{10e6}, 10_ms);
    network.compute_routes();
    router.set_session_source(0, src);
  }

  net::Packet packet(net::GroupAddr group) {
    net::Packet p;
    p.kind = net::PacketKind::kData;
    p.size_bytes = 1000;
    p.src = src;
    p.multicast = true;
    p.group = group;
    return p;
  }
};

TEST_F(McastFixture, JoinWithoutSourceThrows) {
  EXPECT_THROW(router.join(a, net::GroupAddr{9, 1}), std::logic_error);
}

TEST_F(McastFixture, JoinOfUnknownNodeThrows) {
  const net::GroupAddr g{0, 1};
  EXPECT_THROW(router.join(7, g), std::out_of_range);
  EXPECT_THROW(router.join(net::kInvalidNode, g), std::out_of_range);
  // Leaving or asking about an unknown node stays harmless.
  router.join(a, g);
  router.leave(7, g);
  EXPECT_FALSE(router.is_member(7, g));
  EXPECT_EQ(router.members(g), (std::vector<net::NodeId>{a}));
}

TEST_F(McastFixture, SessionSourceOfUnknownNodeThrows) {
  EXPECT_THROW(router.set_session_source(1, 7), std::out_of_range);
  EXPECT_THROW(router.set_session_source(1, net::kInvalidNode), std::out_of_range);
  EXPECT_EQ(router.session_source(1), net::kInvalidNode);
}

TEST_F(McastFixture, MembershipReflectsJoinAndLeave) {
  const net::GroupAddr g{0, 1};
  EXPECT_FALSE(router.is_member(a, g));
  router.join(a, g);
  EXPECT_TRUE(router.is_member(a, g));
  router.leave(a, g);
  EXPECT_FALSE(router.is_member(a, g));  // local delivery stops immediately
}

TEST_F(McastFixture, TreeSpansJoinedMembers) {
  const net::GroupAddr g{0, 1};
  router.join(a, g);
  router.join(b, g);
  const GroupTree* tree = router.tree(g);
  ASSERT_NE(tree, nullptr);
  EXPECT_EQ(tree->source, src);
  EXPECT_EQ(tree->edges.size(), 3u);  // src->r, r->a, r->b
  EXPECT_EQ(tree->fan[a].deliver_locally, 1);
  EXPECT_EQ(tree->fan[b].deliver_locally, 1);
  EXPECT_EQ(tree->fan[src].count, 1u);
  EXPECT_EQ(tree->fan[r].count, 2u);
}

TEST_F(McastFixture, PacketsReachAllMembers) {
  const net::GroupAddr g{0, 1};
  router.join(a, g);
  router.join(b, g);
  int at_a = 0;
  int at_b = 0;
  network.set_local_sink(a, [&](const net::PacketRef&) { ++at_a; });
  network.set_local_sink(b, [&](const net::PacketRef&) { ++at_b; });
  network.send_multicast(packet(g));
  simulation.run_until(1_s);
  EXPECT_EQ(at_a, 1);
  EXPECT_EQ(at_b, 1);
}

TEST_F(McastFixture, NonMembersGetNothing) {
  const net::GroupAddr g{0, 1};
  router.join(a, g);
  int at_b = 0;
  network.set_local_sink(b, [&](const net::PacketRef&) { ++at_b; });
  network.send_multicast(packet(g));
  simulation.run_until(1_s);
  EXPECT_EQ(at_b, 0);
}

TEST_F(McastFixture, LeaveLatencyKeepsTrafficFlowingUpstream) {
  const net::GroupAddr g{0, 1};
  router.join(a, g);
  simulation.run_until(1_s);
  router.leave(a, g);

  // Immediately after the leave the branch is still grafted (IGMP
  // last-member query pending): packets still cross r -> a.
  const GroupTree* tree = router.tree(g);
  ASSERT_NE(tree, nullptr);
  EXPECT_EQ(tree->fan[a].deliver_locally, 0);
  EXPECT_EQ(tree->edges.size(), 2u);  // src->r, r->a still forwarding

  // After leave_latency (1 s) the branch is pruned.
  simulation.run_until(Time::seconds(2.5));
  const GroupTree* pruned = router.tree(g);
  ASSERT_NE(pruned, nullptr);
  EXPECT_TRUE(pruned->edges.empty());
}

TEST_F(McastFixture, MembersListsActiveOnly) {
  const net::GroupAddr g{0, 1};
  router.join(a, g);
  router.join(b, g);
  router.leave(b, g);
  EXPECT_EQ(router.members(g), (std::vector<net::NodeId>{a}));
}

TEST_F(McastFixture, SessionTreeOverlaysLayers) {
  router.join(a, net::GroupAddr{0, 1});
  router.join(a, net::GroupAddr{0, 2});
  router.join(b, net::GroupAddr{0, 1});
  const auto edges = router.session_tree_edges(0, 6);
  // Overlay is the union: src->r, r->a, r->b.
  EXPECT_EQ(edges.size(), 3u);
}

TEST(SessionTreeEdgesTest, MergedLayersEqualSortedUnionOfOverlappingTrees) {
  sim::Simulation simulation{1};
  net::Network network{simulation};
  // Leaves get the low node ids, so edges sort by parent first and each
  // layer's hub->leaf edges interleave with the other layers' in the union.
  std::vector<net::NodeId> leaves;
  for (int i = 0; i < 12; ++i) leaves.push_back(network.add_node());
  const net::NodeId src = network.add_node("src");
  std::vector<net::NodeId> hubs;
  for (int h = 0; h < 3; ++h) {
    hubs.push_back(network.add_node());
    network.add_duplex_link(src, hubs.back(), tsim::units::BitsPerSec{10e6}, 10_ms);
  }
  for (int i = 0; i < 12; ++i) {
    network.add_duplex_link(hubs[i % 3], leaves[i], tsim::units::BitsPerSec{10e6}, 10_ms);
  }
  network.compute_routes();
  MulticastRouter router{simulation, network, {1_s}};
  router.set_session_source(0, src);
  // Layer l reaches leaf i when (i * l) % 7 < 4: five partly overlapping
  // member sets. Layer 6 has no members and no tree.
  for (int layer = 1; layer <= 5; ++layer) {
    for (int i = 0; i < 12; ++i) {
      if ((i * layer) % 7 < 4) {
        router.join(leaves[i], net::GroupAddr{0, static_cast<net::LayerId>(layer)});
      }
    }
  }

  for (int max_layer = 1; max_layer <= 6; ++max_layer) {
    std::vector<std::pair<net::NodeId, net::NodeId>> expected;
    for (int layer = 1; layer <= max_layer; ++layer) {
      const GroupTree* tree = router.tree(net::GroupAddr{0, static_cast<net::LayerId>(layer)});
      if (tree != nullptr) expected.insert(expected.end(), tree->edges.begin(), tree->edges.end());
    }
    std::sort(expected.begin(), expected.end());
    expected.erase(std::unique(expected.begin(), expected.end()), expected.end());
    EXPECT_EQ(router.session_tree_edges(0, static_cast<net::LayerId>(max_layer)), expected)
        << "max_layer " << max_layer;
  }
  // Every hub and every leaf is on some layer's tree.
  EXPECT_EQ(router.session_tree_edges(0, 6).size(), 15u);
}

TEST_F(McastFixture, DuplicateJoinIsIdempotent) {
  const net::GroupAddr g{0, 1};
  router.join(a, g);
  router.join(a, g);
  EXPECT_EQ(router.members(g).size(), 1u);
}

TEST_F(McastFixture, LeaveOfUnknownGroupIsNoOp) {
  router.leave(a, net::GroupAddr{0, 5});
  SUCCEED();
}

TEST_F(McastFixture, SourceAsMemberDeliversLocally) {
  const net::GroupAddr g{0, 1};
  router.join(src, g);
  int at_src = 0;
  network.set_local_sink(src, [&](const net::PacketRef&) { ++at_src; });
  network.send_multicast(packet(g));
  simulation.run_until(1_s);
  EXPECT_EQ(at_src, 1);
}

/// A member as the router should track it: delivered locally while joined,
/// forwarded toward until `forward_until` after a leave.
struct ModelMember {
  bool local_active{false};
  Time forward_until{Time::zero()};
};

/// The tree build the router used before its hop-by-hop walk, kept as the
/// reference: the union of routes.path(source, m) over the members carrying
/// traffic, sorted and deduplicated, then the CSR fan-out via next_hop.
GroupTree reference_tree(const net::Network& network, net::NodeId source,
                         const std::map<net::NodeId, ModelMember>& members, Time now) {
  const net::RoutingTable& routes = network.routes();
  GroupTree tree;
  tree.source = source;
  tree.fan.assign(network.node_count(), {});
  for (const auto& [member, ms] : members) {
    if (!ms.local_active && ms.forward_until <= now) continue;
    if (ms.local_active) tree.fan[member].deliver_locally = 1;
    if (member == source) continue;
    const std::vector<net::NodeId> path = routes.path(source, member);
    for (std::size_t i = 0; i + 1 < path.size(); ++i) tree.edges.emplace_back(path[i], path[i + 1]);
  }
  std::sort(tree.edges.begin(), tree.edges.end());
  tree.edges.erase(std::unique(tree.edges.begin(), tree.edges.end()), tree.edges.end());
  for (const auto& [parent, child] : tree.edges) {
    GroupTree::FanSlot& slot = tree.fan[parent];
    if (slot.count == 0) slot.offset = static_cast<std::uint32_t>(tree.fan_links.size());
    ++slot.count;
    tree.fan_links.push_back(routes.next_hop(parent, child));
  }
  return tree;
}

/// True when some child of `edges` has more than one parent.
bool has_second_parent(const std::vector<std::pair<net::NodeId, net::NodeId>>& edges) {
  std::set<net::NodeId> children;
  for (const auto& edge : edges) {
    if (!children.insert(edge.second).second) return true;
  }
  return false;
}

/// Random connected meshes of 6-25 nodes with about 2n equal-latency duplex
/// links, plus one pendant node hung off the mesh by a single link. Equal
/// latencies give many equal-cost routes, so routes toward different members
/// can enter one node from different parents. Through joins, leaves before
/// and after the leave latency, a re-join, a mesh link going down and up and
/// the pendant being cut off, every tree must equal the reference exactly.
TEST(TreeBuildTest, MatchesSortedUnionOfMemberPaths) {
  const Time kLeaveLatency = 1_s;
  int meshes_with_second_parent = 0;
  for (std::uint64_t seed = 1; seed <= 300; ++seed) {
    SCOPED_TRACE(::testing::Message() << "seed " << seed);
    sim::Rng rng{seed};
    sim::Simulation simulation{seed};
    net::Network network{simulation};
    const auto mesh_size = static_cast<net::NodeId>(rng.uniform_int(6, 25));
    for (net::NodeId i = 0; i < mesh_size; ++i) network.add_node();
    const auto random_mesh_node = [&] {
      return static_cast<net::NodeId>(rng.uniform_int(0, mesh_size - 1));
    };
    std::set<std::pair<net::NodeId, net::NodeId>> linked;
    std::vector<std::pair<net::LinkId, net::LinkId>> mesh_links;
    const auto add_link = [&](net::NodeId x, net::NodeId y) {
      linked.insert(std::minmax(x, y));
      return network.add_duplex_link(x, y, tsim::units::BitsPerSec{10e6}, 10_ms);
    };
    for (net::NodeId i = 1; i < mesh_size; ++i) {
      mesh_links.push_back(add_link(i, static_cast<net::NodeId>(rng.uniform_int(0, i - 1))));
    }
    while (linked.size() < 2u * mesh_size) {
      const net::NodeId x = random_mesh_node();
      const net::NodeId y = random_mesh_node();
      if (x != y && linked.count(std::minmax(x, y)) == 0) mesh_links.push_back(add_link(x, y));
    }
    const net::NodeId pendant = network.add_node();
    const auto pendant_link = add_link(pendant, random_mesh_node());
    network.compute_routes();

    MulticastRouter router{simulation, network, {kLeaveLatency}};
    const net::NodeId source = random_mesh_node();
    router.set_session_source(0, source);
    const net::GroupAddr g{0, 1};
    std::map<net::NodeId, ModelMember> model;
    bool second_parent = false;
    const auto check = [&](const char* step) {
      SCOPED_TRACE(step);
      const GroupTree expected = reference_tree(network, source, model, simulation.now());
      const GroupTree* tree = router.tree(g);
      ASSERT_NE(tree, nullptr);
      EXPECT_EQ(tree->source, source);
      EXPECT_EQ(tree->edges, expected.edges);
      ASSERT_EQ(tree->fan.size(), expected.fan.size());
      for (std::size_t i = 0; i < expected.fan.size(); ++i) {
        EXPECT_EQ(tree->fan[i].offset, expected.fan[i].offset) << "node " << i;
        EXPECT_EQ(tree->fan[i].count, expected.fan[i].count) << "node " << i;
        EXPECT_EQ(tree->fan[i].deliver_locally, expected.fan[i].deliver_locally) << "node " << i;
      }
      EXPECT_EQ(tree->fan_links, expected.fan_links);
      std::vector<net::NodeId> local;
      for (const auto& [node, ms] : model) {
        if (ms.local_active) local.push_back(node);
      }
      EXPECT_EQ(router.members(g), local);
      second_parent |= has_second_parent(tree->edges);
    };
    const auto join = [&](net::NodeId node) {
      router.join(node, g);
      model[node] = {true, Time::max()};
    };
    const auto leave = [&](net::NodeId node) {
      router.leave(node, g);
      model[node] = {false, simulation.now() + kLeaveLatency};
    };
    const auto set_up = [&](std::pair<net::LinkId, net::LinkId> link, bool up) {
      network.link(link.first).set_up(up);
      network.link(link.second).set_up(up);
      network.on_topology_changed();
    };

    // About half the nodes join, the source and the pendant always.
    for (net::NodeId node = 0; node < network.node_count(); ++node) {
      if (node == source || node == pendant || rng.bernoulli(0.5)) join(node);
    }
    check("joined");
    simulation.run_until(1_s);
    std::vector<net::NodeId> left;
    for (const auto& [node, ms] : model) {
      if (rng.bernoulli(0.4)) left.push_back(node);
    }
    for (const net::NodeId node : left) leave(node);
    check("left, still forwarded");
    simulation.run_until(Time::seconds(1.5));
    if (!left.empty()) {
      join(left[static_cast<std::size_t>(rng.uniform_int(0, std::ssize(left) - 1))]);
    }
    check("one re-joined");
    simulation.run_until(Time::seconds(2.5));
    check("leave latency expired");

    const auto down =
        mesh_links[static_cast<std::size_t>(rng.uniform_int(0, std::ssize(mesh_links) - 1))];
    set_up(down, false);
    check("mesh link down");
    set_up(pendant_link, false);
    check("pendant cut off");
    set_up(down, true);
    set_up(pendant_link, true);
    check("links back up");
    meshes_with_second_parent += second_parent ? 1 : 0;
  }
  // The sweep must exercise the side list for a child's second parent.
  EXPECT_GT(meshes_with_second_parent, 0);
}

}  // namespace
}  // namespace tsim::mcast
