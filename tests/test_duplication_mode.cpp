// Unit tests for the physical-link duplication mode (the paper: "it is
// also possible to add physical channels if the NoC architecture does
// not support VCs").
#include <gtest/gtest.h>

#include "deadlock/breaker.h"
#include "deadlock/removal.h"
#include "gen/generators.h"
#include "sim/simulator.h"
#include "test_helpers.h"

namespace nocdr {
namespace {

TEST(DuplicationModeTest, PhysicalBreakAddsParallelLink) {
  auto ex = testing::MakePaperExample();
  const std::size_t links_before = ex.design.topology.LinkCount();
  const CdgCycle cycle = {ex.c1, ex.c2, ex.c3, ex.c4};
  const auto result = BreakCycle(ex.design, cycle, 0,
                                 BreakDirection::kForward,
                                 DuplicationMode::kPhysicalLink);
  ASSERT_EQ(result.added_channels.size(), 1u);
  EXPECT_EQ(ex.design.topology.LinkCount(), links_before + 1);
  // Every link still has exactly one VC.
  for (std::size_t l = 0; l < ex.design.topology.LinkCount(); ++l) {
    EXPECT_EQ(ex.design.topology.VcCount(LinkId(l)), 1u);
  }
  // The twin link connects the same switch pair as L1.
  const Channel& fresh = ex.design.topology.ChannelAt(result.added_channels[0]);
  const Link& twin = ex.design.topology.LinkAt(fresh.link);
  const Link& original = ex.design.topology.LinkAt(ex.l1);
  EXPECT_EQ(twin.src, original.src);
  EXPECT_EQ(twin.dst, original.dst);
  ex.design.Validate();
  EXPECT_TRUE(IsDeadlockFree(ex.design));
}

TEST(DuplicationModeTest, FullRemovalInPhysicalMode) {
  auto ex = testing::MakePaperExample();
  RemovalOptions options;
  options.duplication = DuplicationMode::kPhysicalLink;
  const auto report = RemoveDeadlocks(ex.design, options);
  EXPECT_EQ(report.vcs_added, 1u);  // one duplicated channel either way
  EXPECT_EQ(ex.design.topology.ExtraVcCount(), 0u);  // but zero extra VCs
  EXPECT_EQ(ex.design.topology.LinkCount(), 5u);     // one extra link
  EXPECT_TRUE(IsDeadlockFree(ex.design));
}

TEST(DuplicationModeTest, BothModesAddSameChannelCount) {
  for (std::uint64_t seed = 1; seed <= 10; ++seed) {
    auto vc_design = testing::MakeRandomDesign(seed);
    auto phys_design = vc_design;
    RemovalOptions vc_options;
    RemovalOptions phys_options;
    phys_options.duplication = DuplicationMode::kPhysicalLink;
    const auto vc_report = RemoveDeadlocks(vc_design, vc_options);
    const auto phys_report = RemoveDeadlocks(phys_design, phys_options);
    // The algorithm's decisions depend only on the CDG shape, which is
    // identical in both modes.
    EXPECT_EQ(vc_report.vcs_added, phys_report.vcs_added) << seed;
    EXPECT_TRUE(IsDeadlockFree(phys_design)) << seed;
    phys_design.Validate();
  }
}

TEST(DuplicationModeTest, PhysicalModeSurvivesStressSimulation) {
  auto d = gen::UnidirectionalRing(4, 2);
  RemovalOptions options;
  options.duplication = DuplicationMode::kPhysicalLink;
  RemoveDeadlocks(d, options);
  SimConfig cfg;
  cfg.traffic.packets_per_flow = 8;
  cfg.traffic.packet_length = 12;
  cfg.buffer_depth = 2;
  cfg.max_cycles = 100000;
  cfg.stall_threshold = 1000;
  const auto result = SimulateWorkload(d, cfg);
  EXPECT_FALSE(result.deadlocked);
  EXPECT_TRUE(result.AllDelivered());
}

TEST(DuplicationModeTest, PhysicalTwinsCarryIndependentTraffic) {
  // After a physical-mode break the twin and the original link can move
  // one flit each in the same cycle (they are separate wires), unlike
  // two VCs multiplexed on one link. Completing strictly faster than the
  // flit count over a single link proves the parallelism.
  auto d = gen::UnidirectionalRing(4, 2);
  RemovalOptions options;
  options.duplication = DuplicationMode::kPhysicalLink;
  RemoveDeadlocks(d, options);
  SimConfig cfg;
  cfg.traffic.packets_per_flow = 20;
  cfg.traffic.packet_length = 4;
  cfg.max_cycles = 100000;
  const auto result = SimulateWorkload(d, cfg);
  EXPECT_TRUE(result.AllDelivered());
}

}  // namespace
}  // namespace nocdr
