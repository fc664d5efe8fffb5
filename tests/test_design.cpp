// Unit tests for the NocDesign bundle.
#include "noc/design.h"

#include <gtest/gtest.h>

#include "gen/generators.h"
#include "test_helpers.h"
#include "util/error.h"

namespace nocdr {
namespace {

TEST(DesignTest, PaperExampleValidates) {
  auto ex = testing::MakePaperExample();
  EXPECT_NO_THROW(ex.design.Validate());
  EXPECT_EQ(ex.design.topology.SwitchCount(), 4u);
  EXPECT_EQ(ex.design.topology.LinkCount(), 4u);
  EXPECT_EQ(ex.design.traffic.FlowCount(), 4u);
}

TEST(DesignTest, SwitchOf) {
  auto ex = testing::MakePaperExample();
  EXPECT_EQ(ex.design.SwitchOf(CoreId(0u)).value(), 0u);  // src1 at SW1
}

TEST(DesignTest, MissingAttachmentFails) {
  auto ex = testing::MakePaperExample();
  ex.design.attachment.pop_back();
  EXPECT_THROW(ex.design.Validate(), InvalidModelError);
}

TEST(DesignTest, BadAttachmentFails) {
  auto ex = testing::MakePaperExample();
  ex.design.attachment[0] = SwitchId(77u);
  EXPECT_THROW(ex.design.Validate(), InvalidModelError);
}

TEST(DesignTest, MissingRouteSlotFails) {
  auto ex = testing::MakePaperExample();
  ex.design.routes.Resize(2);
  EXPECT_THROW(ex.design.Validate(), InvalidModelError);
}

TEST(DesignTest, CorruptRouteFails) {
  auto ex = testing::MakePaperExample();
  ex.design.routes.MutableRouteOf(ex.f1).pop_back();  // no longer ends at SW4
  EXPECT_THROW(ex.design.Validate(), InvalidModelError);
}

TEST(DesignTest, LinkLoadsAccumulatePerTraversal) {
  auto ex = testing::MakePaperExample();
  const auto loads = ex.design.LinkLoads();
  // L1 is used by F1, F3 and F4 at 100 MB/s each.
  EXPECT_DOUBLE_EQ(loads[ex.l1.value()], 300.0);
  // L2 by F1 and F4.
  EXPECT_DOUBLE_EQ(loads[ex.l2.value()], 200.0);
  // L3 by F1 and F2.
  EXPECT_DOUBLE_EQ(loads[ex.l3.value()], 200.0);
  // L4 by F2 and F3.
  EXPECT_DOUBLE_EQ(loads[ex.l4.value()], 200.0);
}

TEST(DesignTest, FlowsOnLink) {
  auto ex = testing::MakePaperExample();
  const auto on_l1 = ex.design.FlowsOnLink(ex.l1);
  EXPECT_EQ(on_l1, (std::vector<FlowId>{ex.f1, ex.f3, ex.f4}));
  const auto on_l2 = ex.design.FlowsOnLink(ex.l2);
  EXPECT_EQ(on_l2, (std::vector<FlowId>{ex.f1, ex.f4}));
}

TEST(DesignTest, RingHelperValidates) {
  auto d = gen::UnidirectionalRing(6, 3);
  EXPECT_EQ(d.topology.SwitchCount(), 6u);
  EXPECT_EQ(d.traffic.FlowCount(), 6u);
  for (std::size_t i = 0; i < 6; ++i) {
    EXPECT_EQ(d.routes.RouteOf(FlowId(i)).size(), 3u);
  }
}

TEST(DesignTest, RandomHelperValidatesAcrossSeeds) {
  for (std::uint64_t seed = 1; seed <= 10; ++seed) {
    EXPECT_NO_THROW(testing::MakeRandomDesign(seed)) << "seed " << seed;
  }
}

}  // namespace
}  // namespace nocdr
