// Unit tests for the resource-ordering baseline.
#include "deadlock/resource_ordering.h"

#include <gtest/gtest.h>

#include <map>

#include "cdg/cdg.h"
#include "cdg/cycle.h"
#include "deadlock/removal.h"
#include "gen/generators.h"
#include "test_helpers.h"

namespace nocdr {
namespace {

TEST(ResourceOrderingTest, PaperExampleCounts) {
  auto ex = testing::MakePaperExample();
  const auto report = ApplyResourceOrdering(ex.design);
  // Hop classes per link: L1 used at hops {0 (F1,F4), 1 (F3)} -> 2
  // channels; L2 at {1} -> 1; L3 at {0 (F2), 2 (F1)} -> 2; L4 at
  // {0 (F3), 1 (F2)} -> 2. Extra VCs = (2-1)+(1-1)+(2-1)+(2-1) = 3.
  EXPECT_EQ(report.vcs_added, 3u);
  EXPECT_EQ(report.total_channels, 7u);
  EXPECT_EQ(report.max_class, 3u);  // F1's route has length 3
  ex.design.Validate();
}

TEST(ResourceOrderingTest, ResultIsDeadlockFree) {
  auto ex = testing::MakePaperExample();
  ApplyResourceOrdering(ex.design);
  EXPECT_TRUE(IsDeadlockFree(ex.design));
}

TEST(ResourceOrderingTest, ClassesIncreaseAlongEveryRoute) {
  // After ordering, each channel serves exactly one hop class and every
  // flow traverses strictly increasing classes. Recover the class of
  // each channel from the final routes and check both invariants.
  auto ex = testing::MakePaperExample();
  ApplyResourceOrdering(ex.design);
  std::map<std::uint32_t, std::size_t> channel_class;
  for (std::size_t fi = 0; fi < ex.design.traffic.FlowCount(); ++fi) {
    const Route& route = ex.design.routes.RouteOf(FlowId(fi));
    for (std::size_t h = 0; h < route.size(); ++h) {
      auto [it, inserted] = channel_class.emplace(route[h].value(), h);
      // One class per channel across all flows.
      EXPECT_EQ(it->second, h) << "channel serves two classes";
      (void)inserted;
    }
  }
  for (std::size_t fi = 0; fi < ex.design.traffic.FlowCount(); ++fi) {
    const Route& route = ex.design.routes.RouteOf(FlowId(fi));
    for (std::size_t h = 0; h + 1 < route.size(); ++h) {
      EXPECT_LT(channel_class[route[h].value()],
                channel_class[route[h + 1].value()]);
    }
  }
  EXPECT_TRUE(IsDeadlockFree(ex.design));
}

TEST(ResourceOrderingTest, PhysicalPathPreserved) {
  auto ex = testing::MakePaperExample();
  auto links_of = [&](FlowId f) {
    std::vector<LinkId> links;
    for (ChannelId c : ex.design.routes.RouteOf(f)) {
      links.push_back(ex.design.topology.ChannelAt(c).link);
    }
    return links;
  };
  const auto b1 = links_of(ex.f1);
  const auto b2 = links_of(ex.f2);
  ApplyResourceOrdering(ex.design);
  EXPECT_EQ(links_of(ex.f1), b1);
  EXPECT_EQ(links_of(ex.f2), b2);
}

TEST(ResourceOrderingTest, AcyclicOnRingsAndRandomDesigns) {
  for (std::size_t n : {4u, 6u, 9u}) {
    auto d = gen::UnidirectionalRing(n, 3);
    ApplyResourceOrdering(d);
    EXPECT_TRUE(IsDeadlockFree(d)) << "ring " << n;
    d.Validate();
  }
  for (std::uint64_t seed = 1; seed <= 10; ++seed) {
    auto d = testing::MakeRandomDesign(seed);
    ApplyResourceOrdering(d);
    EXPECT_TRUE(IsDeadlockFree(d)) << "seed " << seed;
    d.Validate();
  }
}

TEST(ResourceOrderingTest, SharedPrefixSharesChannels) {
  // Two flows over the same 2-hop path at the same hop positions need no
  // extra VCs at all.
  NocDesign d;
  const SwitchId a = d.topology.AddSwitch(), b = d.topology.AddSwitch(),
                 c = d.topology.AddSwitch();
  const LinkId ab = d.topology.AddLink(a, b);
  const LinkId bc = d.topology.AddLink(b, c);
  const CoreId ca = d.traffic.AddCore(), cc = d.traffic.AddCore();
  d.attachment = {a, c};
  const Route route = {*d.topology.FindChannel(ab, 0),
                       *d.topology.FindChannel(bc, 0)};
  const FlowId f1 = d.traffic.AddFlow(ca, cc, 1.0);
  const FlowId f2 = d.traffic.AddFlow(ca, cc, 2.0);
  d.routes.Resize(2);
  d.routes.SetRoute(f1, route);
  d.routes.SetRoute(f2, route);
  d.Validate();
  const auto report = ApplyResourceOrdering(d);
  EXPECT_EQ(report.vcs_added, 0u);
}

TEST(ResourceOrderingTest, OffsetUsePaysOneVcPerExtraClass) {
  // A link used at hop 0 by one flow and hop 1 by another needs 2 VCs.
  NocDesign d;
  const SwitchId a = d.topology.AddSwitch(), b = d.topology.AddSwitch(),
                 c = d.topology.AddSwitch();
  const LinkId ab = d.topology.AddLink(a, b);
  const LinkId bc = d.topology.AddLink(b, c);
  const CoreId x = d.traffic.AddCore(), y = d.traffic.AddCore(),
               z = d.traffic.AddCore();
  d.attachment = {a, b, c};
  const FlowId f1 = d.traffic.AddFlow(x, z, 1.0);  // a->b->c: bc at hop 1
  const FlowId f2 = d.traffic.AddFlow(y, z, 1.0);  // b->c:    bc at hop 0
  d.routes.Resize(2);
  d.routes.SetRoute(f1, {*d.topology.FindChannel(ab, 0),
                         *d.topology.FindChannel(bc, 0)});
  d.routes.SetRoute(f2, {*d.topology.FindChannel(bc, 0)});
  d.Validate();
  const auto report = ApplyResourceOrdering(d);
  EXPECT_EQ(report.vcs_added, 1u);
  EXPECT_EQ(d.topology.VcCount(bc), 2u);
  EXPECT_EQ(d.topology.VcCount(ab), 1u);
  // f2 keeps class 0 = VC 0; f1 uses class 1 = VC 1 on bc.
  EXPECT_EQ(d.topology.ChannelAt(d.routes.RouteOf(f2)[0]).vc, 0u);
  EXPECT_EQ(d.topology.ChannelAt(d.routes.RouteOf(f1)[1]).vc, 1u);
}

TEST(ResourceOrderingTest, CostGrowsWithRouteLength) {
  // The same ring with longer worms needs more classes: overhead grows.
  auto short_d = gen::UnidirectionalRing(8, 2);
  auto long_d = gen::UnidirectionalRing(8, 5);
  const auto short_report = ApplyResourceOrdering(short_d);
  const auto long_report = ApplyResourceOrdering(long_d);
  EXPECT_GT(long_report.vcs_added, short_report.vcs_added);
  EXPECT_EQ(long_report.max_class, 5u);
}

}  // namespace
}  // namespace nocdr
