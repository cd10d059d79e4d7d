#include "mcast/multicast_router.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <utility>
#include <vector>

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
  MulticastRouter router{simulation, network, {Time::zero(), 1_s}};

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

TEST_F(McastFixture, JoinLatencyDelaysDelivery) {
  MulticastRouter delayed{simulation, network, {500_ms, 1_s}};
  delayed.set_session_source(1, src);
  const net::GroupAddr g{1, 1};
  delayed.join(a, g);
  EXPECT_FALSE(delayed.is_member(a, g));
  simulation.run_until(600_ms);
  EXPECT_TRUE(delayed.is_member(a, g));
}

TEST_F(McastFixture, LeaveRacingPendingJoinCancelsIt) {
  MulticastRouter delayed{simulation, network, {500_ms, 1_s}};
  delayed.set_session_source(1, src);
  const net::GroupAddr g{1, 1};
  delayed.join(a, g);
  delayed.leave(a, g);
  simulation.run_until(1_s);
  EXPECT_FALSE(delayed.is_member(a, g));
}

TEST_F(McastFixture, LeaveRacingPendingJoinGraftsNoBranch) {
  // Nonzero join AND leave latency: a leave that races the in-flight graft
  // must cancel it cleanly. The buggy path set forward_until = now +
  // leave_latency, so the next rebuild grafted a branch that never carried
  // traffic and forwarded onto it for the whole leave-latency window.
  MulticastRouter delayed{simulation, network, {500_ms, 1_s}};
  delayed.set_session_source(1, src);
  const net::GroupAddr g{1, 1};
  delayed.join(a, g);       // graft in flight until t=500ms
  simulation.run_until(100_ms);
  delayed.leave(a, g);      // races the pending graft
  simulation.run_until(200_ms);

  const GroupTree* tree = delayed.tree(g);
  ASSERT_NE(tree, nullptr);
  EXPECT_TRUE(tree->edges.empty())
      << "a never-completed graft must not leave a forwarding branch";
  EXPECT_FALSE(delayed.is_member(a, g));

  // The cancelled join must also not resurrect once the original graft timer
  // fires (t=500ms) or the leave-latency window (1 s) elapses.
  simulation.run_until(2_s);
  const GroupTree* later = delayed.tree(g);
  ASSERT_NE(later, nullptr);
  EXPECT_TRUE(later->edges.empty());
  EXPECT_FALSE(delayed.is_member(a, g));
}

TEST_F(McastFixture, LeaveDuringRejoinGraftKeepsEarlierForwardWindow) {
  // active -> leave (real forward window opens) -> rejoin (graft pending) ->
  // leave again while pending. The second leave cancels only the pending
  // graft; the forward window earned by the first (real) leave still stands.
  MulticastRouter delayed{simulation, network, {500_ms, 1_s}};
  delayed.set_session_source(1, src);
  const net::GroupAddr g{1, 1};
  delayed.join(a, g);
  simulation.run_until(600_ms);  // graft completed, a is active
  ASSERT_TRUE(delayed.is_member(a, g));
  delayed.leave(a, g);           // forward_until = 1.6s
  delayed.join(a, g);            // new graft in flight until 1.1s
  delayed.leave(a, g);           // races it; cancels the graft only
  simulation.run_until(700_ms);
  const GroupTree* tree = delayed.tree(g);
  ASSERT_NE(tree, nullptr);
  EXPECT_EQ(tree->edges.size(), 2u);  // src->r, r->a still forwarding
  simulation.run_until(2_s);          // past forward_until: branch pruned
  const GroupTree* pruned = delayed.tree(g);
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
  MulticastRouter router{simulation, network, {Time::zero(), 1_s}};
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

}  // namespace
}  // namespace tsim::mcast
