// Unit tests for the up*/down* turn-prohibition baseline.
#include "deadlock/updown.h"

#include <gtest/gtest.h>

#include "deadlock/removal.h"
#include "gen/generators.h"
#include "soc/benchmarks.h"
#include "synth/synthesizer.h"
#include "test_helpers.h"

namespace nocdr {
namespace {

TEST(UpDownTest, InfeasibleOnUnidirectionalRing) {
  // The paper's critique of turn prohibition: it needs bidirectional
  // links. A unidirectional ring has none.
  auto d = gen::UnidirectionalRing(4, 2);
  EXPECT_THROW(ApplyUpDownRouting(d), TurnProhibitionInfeasibleError);
}

TEST(UpDownTest, AcyclicOnBidirectionalRing) {
  // Bidirectional ring: up*/down* must succeed and the CDG must be
  // acyclic with zero added channels.
  NocDesign d;
  std::vector<SwitchId> sw;
  for (int i = 0; i < 6; ++i) {
    sw.push_back(d.topology.AddSwitch());
  }
  for (int i = 0; i < 6; ++i) {
    d.topology.AddLink(sw[i], sw[(i + 1) % 6]);
    d.topology.AddLink(sw[(i + 1) % 6], sw[i]);
  }
  std::vector<CoreId> cores;
  for (int i = 0; i < 6; ++i) {
    cores.push_back(d.traffic.AddCore());
    d.attachment.push_back(sw[i]);
  }
  d.routes.Resize(0);
  for (int i = 0; i < 6; ++i) {
    d.traffic.AddFlow(cores[i], cores[(i + 2) % 6], 10.0);
  }
  d.routes.Resize(d.traffic.FlowCount());
  // Seed with direct clockwise routes (which would be cyclic).
  for (std::size_t i = 0; i < 6; ++i) {
    Route r;
    for (std::size_t h = 0; h < 2; ++h) {
      const SwitchId from = sw[(i + h) % 6];
      const SwitchId to = sw[(i + h + 1) % 6];
      r.push_back(*d.topology.FindChannel(*d.topology.FindLink(from, to), 0));
    }
    d.routes.SetRoute(FlowId(i), r);
  }
  d.Validate();

  const std::size_t channels_before = d.topology.ChannelCount();
  const auto report = ApplyUpDownRouting(d);
  EXPECT_TRUE(IsDeadlockFree(d));
  EXPECT_EQ(d.topology.ChannelCount(), channels_before);  // no resources
  EXPECT_GE(report.HopInflation(), 1.0);  // tree routing can't be shorter
  d.Validate();
}

TEST(UpDownTest, WorksOnSynthesizedTreeOnlyTopologies) {
  // With shortcut_factor = 0 the synthesizer emits a bidirectional tree:
  // up*/down* is always feasible there.
  const auto b = MakeBenchmark(SocBenchmarkId::kD36_6);
  SynthesisOptions options;
  options.topology.shortcut_factor = 0.0;
  auto d = SynthesizeDesign(b.traffic, b.name, 12, options);
  const auto report = ApplyUpDownRouting(d);
  EXPECT_TRUE(IsDeadlockFree(d));
  EXPECT_EQ(d.topology.ExtraVcCount(), 0u);
  // On a tree, the unique path is already up-then-down, so hop counts
  // are identical.
  EXPECT_EQ(report.hops_before, report.hops_after);
}

TEST(UpDownTest, HopInflationOnRichTopologies) {
  // With shortcuts available to the original router but forbidden to the
  // tree discipline, up*/down* pays in hops — the cost the paper's
  // method avoids.
  const auto b = MakeBenchmark(SocBenchmarkId::kD36_8);
  SynthesisOptions options;
  options.topology.shortcut_factor = 2.0;
  auto d = SynthesizeDesign(b.traffic, b.name, 12, options);
  const auto report = ApplyUpDownRouting(d);
  EXPECT_TRUE(IsDeadlockFree(d));
  EXPECT_GT(report.HopInflation(), 1.0);
}

TEST(UpDownTest, LocalFlowsKeepEmptyRoutes) {
  NocDesign d;
  const SwitchId a = d.topology.AddSwitch(), b = d.topology.AddSwitch();
  d.topology.AddLink(a, b);
  d.topology.AddLink(b, a);
  const CoreId x = d.traffic.AddCore(), y = d.traffic.AddCore();
  d.attachment = {a, a};
  d.traffic.AddFlow(x, y, 5.0);
  d.routes.Resize(1);
  d.Validate();
  ApplyUpDownRouting(d);
  EXPECT_TRUE(d.routes.RouteOf(FlowId(0u)).empty());
}

class UpDownSweep : public ::testing::TestWithParam<SocBenchmarkId> {};

TEST_P(UpDownSweep, TreeTopologiesAlwaysFeasibleAndAcyclic) {
  const auto b = MakeBenchmark(GetParam());
  SynthesisOptions options;
  options.topology.shortcut_factor = 0.0;
  for (std::size_t switches : {6u, 10u, 14u}) {
    auto d = SynthesizeDesign(b.traffic, b.name, switches, options);
    ApplyUpDownRouting(d);
    EXPECT_TRUE(IsDeadlockFree(d)) << b.name << "@" << switches;
    d.Validate();
  }
}

INSTANTIATE_TEST_SUITE_P(AllBenchmarks, UpDownSweep,
                         ::testing::Values(SocBenchmarkId::kD26Media,
                                           SocBenchmarkId::kD36_8,
                                           SocBenchmarkId::kD35Bot,
                                           SocBenchmarkId::kD38Tvo));

}  // namespace
}  // namespace nocdr
