// Unit tests for design metrics.
#include "noc/metrics.h"

#include <gtest/gtest.h>

#include "deadlock/removal.h"
#include "deadlock/resource_ordering.h"
#include "gen/generators.h"
#include "soc/benchmarks.h"
#include "synth/synthesizer.h"
#include "test_helpers.h"

namespace nocdr {
namespace {

TEST(MetricsTest, PaperExampleNumbers) {
  auto ex = testing::MakePaperExample();
  const auto m = ComputeMetrics(ex.design);
  EXPECT_EQ(m.switches, 4u);
  EXPECT_EQ(m.links, 4u);
  EXPECT_EQ(m.channels, 4u);
  EXPECT_EQ(m.extra_vcs, 0u);
  EXPECT_EQ(m.cores, 8u);
  EXPECT_EQ(m.flows, 4u);
  // Route lengths 3, 2, 2, 2.
  EXPECT_DOUBLE_EQ(m.avg_route_hops, 9.0 / 4.0);
  EXPECT_EQ(m.max_route_hops, 3u);
  EXPECT_EQ(m.local_flows, 0u);
  EXPECT_EQ(m.max_vcs_per_link, 1u);
  EXPECT_DOUBLE_EQ(m.avg_vcs_per_link, 1.0);
  // Every switch has 1 in + 1 out link.
  EXPECT_EQ(m.max_switch_degree, 2u);
  EXPECT_DOUBLE_EQ(m.avg_switch_degree, 2.0);
  // Loads: 300, 200, 200, 200 (see test_design).
  EXPECT_DOUBLE_EQ(m.max_link_load, 300.0);
  EXPECT_DOUBLE_EQ(m.avg_link_load, 225.0);
  EXPECT_GT(m.link_load_cv, 0.0);
}

TEST(MetricsTest, RemovalChangesOnlyChannelCounts) {
  auto ex = testing::MakePaperExample();
  const auto before = ComputeMetrics(ex.design);
  RemoveDeadlocks(ex.design);
  const auto after = ComputeMetrics(ex.design);
  EXPECT_EQ(after.extra_vcs, 1u);
  EXPECT_EQ(after.channels, before.channels + 1);
  EXPECT_EQ(after.max_vcs_per_link, 2u);
  // Structure and traffic untouched.
  EXPECT_EQ(after.links, before.links);
  EXPECT_DOUBLE_EQ(after.avg_route_hops, before.avg_route_hops);
  EXPECT_DOUBLE_EQ(after.max_link_load, before.max_link_load);
}

TEST(MetricsTest, OrderingInflatesVcsMoreThanRemoval) {
  const auto b = MakeBenchmark(SocBenchmarkId::kD36_8);
  auto rm = SynthesizeDesign(b.traffic, b.name, 14);
  auto ro = rm;
  RemoveDeadlocks(rm);
  ApplyResourceOrdering(ro);
  const auto m_rm = ComputeMetrics(rm);
  const auto m_ro = ComputeMetrics(ro);
  EXPECT_LE(m_rm.extra_vcs, m_ro.extra_vcs);
  EXPECT_LE(m_rm.avg_vcs_per_link, m_ro.avg_vcs_per_link);
}

TEST(MetricsTest, LocalFlowsCounted) {
  NocDesign d;
  const SwitchId a = d.topology.AddSwitch();
  const CoreId x = d.traffic.AddCore(), y = d.traffic.AddCore();
  d.attachment = {a, a};
  d.traffic.AddFlow(x, y, 10.0);
  d.routes.Resize(1);
  d.Validate();
  const auto m = ComputeMetrics(d);
  EXPECT_EQ(m.local_flows, 1u);
  EXPECT_DOUBLE_EQ(m.avg_route_hops, 0.0);
  EXPECT_EQ(m.links, 0u);
  EXPECT_DOUBLE_EQ(m.link_load_cv, 0.0);
}

TEST(MetricsTest, HistogramCoversAllFlows) {
  auto ex = testing::MakePaperExample();
  const auto histogram = RouteLengthHistogram(ex.design);
  ASSERT_EQ(histogram.size(), 4u);  // lengths up to 3
  EXPECT_EQ(histogram[0], 0u);
  EXPECT_EQ(histogram[2], 3u);
  EXPECT_EQ(histogram[3], 1u);
  std::size_t total = 0;
  for (std::size_t count : histogram) {
    total += count;
  }
  EXPECT_EQ(total, ex.design.traffic.FlowCount());
}

TEST(MetricsTest, BalancedLoadHasZeroCv) {
  auto d = gen::UnidirectionalRing(4, 2);  // every link carries 2 flows
  const auto m = ComputeMetrics(d);
  EXPECT_NEAR(m.link_load_cv, 0.0, 1e-12);
}

TEST(MetricsTest, SynthesizedDesignsHaveReasonableShape) {
  for (auto id : AllBenchmarkIds()) {
    const auto b = MakeBenchmark(id);
    const auto design = SynthesizeDesign(b.traffic, b.name, 12);
    const auto m = ComputeMetrics(design);
    EXPECT_EQ(m.switches, 12u) << b.name;
    EXPECT_GE(m.avg_route_hops, 1.0) << b.name;
    EXPECT_LE(m.max_route_hops, 12u) << b.name;
    EXPECT_GE(m.avg_switch_degree, 2.0) << b.name;  // tree at minimum
  }
}

}  // namespace
}  // namespace nocdr
