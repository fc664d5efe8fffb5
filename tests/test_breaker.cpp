// Unit tests for cycle breaking (vertex duplication + re-routing).
#include "deadlock/breaker.h"

#include <gtest/gtest.h>

#include "cdg/cdg.h"
#include "cdg/cycle.h"
#include "gen/generators.h"
#include "test_helpers.h"
#include "util/error.h"

namespace nocdr {
namespace {

CdgCycle PaperCycle(const testing::PaperExample& ex) {
  return {ex.c1, ex.c2, ex.c3, ex.c4};
}

TEST(BreakerTest, ForwardBreakAtD1) {
  auto ex = testing::MakePaperExample();
  const auto result =
      BreakCycle(ex.design, PaperCycle(ex), 0, BreakDirection::kForward);
  // D1 = (L1, L2), created by F1 and F4; both entered the cycle at L1,
  // so one duplicate of L1 suffices and is shared.
  EXPECT_EQ(result.added_channels.size(), 1u);
  EXPECT_EQ(result.rerouted_flows, (std::vector<FlowId>{ex.f1, ex.f4}));
  const ChannelId dup = result.added_channels[0];
  EXPECT_EQ(ex.design.topology.ChannelAt(dup).link, ex.l1);
  EXPECT_EQ(ex.design.topology.ChannelAt(dup).vc, 1u);
  // F1 route becomes {L1', L2, L3}; F4 becomes {L1', L2}.
  EXPECT_EQ(ex.design.routes.RouteOf(ex.f1),
            (Route{dup, ex.c2, ex.c3}));
  EXPECT_EQ(ex.design.routes.RouteOf(ex.f4), (Route{dup, ex.c2}));
  // F3 keeps using the original L1.
  EXPECT_EQ(ex.design.routes.RouteOf(ex.f3), (Route{ex.c4, ex.c1}));
  // Design still structurally valid, and the CDG is now acyclic.
  ex.design.Validate();
  EXPECT_TRUE(IsAcyclic(ChannelDependencyGraph::Build(ex.design)));
}

TEST(BreakerTest, ForwardBreakAtD2CostsTwo) {
  auto ex = testing::MakePaperExample();
  const auto result =
      BreakCycle(ex.design, PaperCycle(ex), 1, BreakDirection::kForward);
  // D2 = (L2, L3), created only by F1 which has used L1 and L2: both get
  // duplicated.
  EXPECT_EQ(result.added_channels.size(), 2u);
  EXPECT_EQ(result.rerouted_flows, std::vector<FlowId>{ex.f1});
  const Route& r1 = ex.design.routes.RouteOf(ex.f1);
  ASSERT_EQ(r1.size(), 3u);
  EXPECT_EQ(ex.design.topology.ChannelAt(r1[0]).link, ex.l1);
  EXPECT_EQ(ex.design.topology.ChannelAt(r1[0]).vc, 1u);
  EXPECT_EQ(ex.design.topology.ChannelAt(r1[1]).link, ex.l2);
  EXPECT_EQ(ex.design.topology.ChannelAt(r1[1]).vc, 1u);
  EXPECT_EQ(r1[2], ex.c3);  // the edge target stays original
  ex.design.Validate();
  EXPECT_TRUE(IsAcyclic(ChannelDependencyGraph::Build(ex.design)));
}

TEST(BreakerTest, BackwardBreakAtD2) {
  auto ex = testing::MakePaperExample();
  const auto result =
      BreakCycle(ex.design, PaperCycle(ex), 1, BreakDirection::kBackward);
  // D2 = (L2, L3) backward: duplicate L3 onward for F1.
  EXPECT_EQ(result.added_channels.size(), 1u);
  EXPECT_EQ(result.rerouted_flows, std::vector<FlowId>{ex.f1});
  const Route& r1 = ex.design.routes.RouteOf(ex.f1);
  ASSERT_EQ(r1.size(), 3u);
  EXPECT_EQ(r1[0], ex.c1);
  EXPECT_EQ(r1[1], ex.c2);
  EXPECT_EQ(ex.design.topology.ChannelAt(r1[2]).link, ex.l3);
  EXPECT_EQ(ex.design.topology.ChannelAt(r1[2]).vc, 1u);
  ex.design.Validate();
  EXPECT_TRUE(IsAcyclic(ChannelDependencyGraph::Build(ex.design)));
}

TEST(BreakerTest, BackwardBreakAtD4MatchesPaperFigure3) {
  auto ex = testing::MakePaperExample();
  // The paper's Figure 3/4 modification: F3 re-routed to a new L1'.
  const auto result =
      BreakCycle(ex.design, PaperCycle(ex), 3, BreakDirection::kBackward);
  EXPECT_EQ(result.added_channels.size(), 1u);
  EXPECT_EQ(result.rerouted_flows, std::vector<FlowId>{ex.f3});
  const Route& r3 = ex.design.routes.RouteOf(ex.f3);
  ASSERT_EQ(r3.size(), 2u);
  EXPECT_EQ(r3[0], ex.c4);
  EXPECT_EQ(ex.design.topology.ChannelAt(r3[1]).link, ex.l1);
  EXPECT_EQ(ex.design.topology.ChannelAt(r3[1]).vc, 1u);
  ex.design.Validate();
  EXPECT_TRUE(IsAcyclic(ChannelDependencyGraph::Build(ex.design)));
}

TEST(BreakerTest, SharedDuplicatesAcrossFlows) {
  // Ring where two flows create the same edge from different entries:
  // duplicates must be shared so the VC count equals the max cost.
  auto d = gen::UnidirectionalRing(4, 2);
  // Flows: i -> i+2 with routes {ring[i], ring[i+1]}. Edge
  // (ring[1], ring[2]) is created by flow 1 only. Add one more flow with
  // a 3-hop route 0 -> 3 = {ring[0], ring[1], ring[2]}.
  const CoreId src = d.traffic.AddCore();
  const CoreId dst = d.traffic.AddCore();
  d.attachment.push_back(SwitchId(0u));
  d.attachment.push_back(SwitchId(3u));
  const FlowId extra = d.traffic.AddFlow(src, dst, 1.0);
  d.routes.Resize(d.traffic.FlowCount());
  Route long_route;
  for (int h = 0; h < 3; ++h) {
    long_route.push_back(
        *d.topology.FindChannel(LinkId(static_cast<std::uint32_t>(h)), 0));
  }
  d.routes.SetRoute(extra, long_route);
  d.Validate();

  const auto cdg = ChannelDependencyGraph::Build(d);
  auto cycle = SmallestCycle(cdg);
  ASSERT_TRUE(cycle.has_value());
  ASSERT_EQ(cycle->size(), 4u);
  // Identify the position of edge (ring1, ring2) inside the found cycle.
  const ChannelId ring1 = *d.topology.FindChannel(LinkId(1u), 0);
  std::size_t pos = cycle->size();
  for (std::size_t i = 0; i < cycle->size(); ++i) {
    if ((*cycle)[i] == ring1) {
      pos = i;
      break;
    }
  }
  ASSERT_LT(pos, cycle->size());
  const auto result = BreakCycle(d, *cycle, pos, BreakDirection::kForward);
  // Flow 1 entered at ring1 (1 dup); extra flow used ring0 and ring1
  // (2 dups). Shared: ring1's duplicate serves both -> 2 channels total.
  EXPECT_EQ(result.added_channels.size(), 2u);
  EXPECT_EQ(result.rerouted_flows.size(), 2u);
  d.Validate();
}

TEST(BreakerTest, EdgeWithNoFlowsThrows) {
  auto ex = testing::MakePaperExample();
  // Break D1 first; afterwards the pair (c1, c2) no longer exists in any
  // route, so breaking it again must fail loudly.
  BreakCycle(ex.design, PaperCycle(ex), 0, BreakDirection::kForward);
  EXPECT_THROW(
      BreakCycle(ex.design, PaperCycle(ex), 0, BreakDirection::kForward),
      InvalidModelError);
}

TEST(BreakerTest, OutOfRangeEdgeThrows) {
  auto ex = testing::MakePaperExample();
  EXPECT_THROW(
      BreakCycle(ex.design, PaperCycle(ex), 9, BreakDirection::kForward),
      InvalidModelError);
  EXPECT_THROW(BreakCycle(ex.design, {}, 0, BreakDirection::kForward),
               InvalidModelError);
}

TEST(BreakerTest, PhysicalPathPreserved) {
  // Re-routing must only change VCs, never the physical links.
  auto ex = testing::MakePaperExample();
  auto links_of = [&](FlowId f) {
    std::vector<LinkId> links;
    for (ChannelId c : ex.design.routes.RouteOf(f)) {
      links.push_back(ex.design.topology.ChannelAt(c).link);
    }
    return links;
  };
  const auto before1 = links_of(ex.f1);
  const auto before4 = links_of(ex.f4);
  BreakCycle(ex.design, PaperCycle(ex), 0, BreakDirection::kForward);
  EXPECT_EQ(links_of(ex.f1), before1);
  EXPECT_EQ(links_of(ex.f4), before4);
}

}  // namespace
}  // namespace nocdr
