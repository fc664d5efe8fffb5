// Unit tests for the power/area model.
#include "power/model.h"

#include <gtest/gtest.h>

#include "deadlock/removal.h"
#include "deadlock/resource_ordering.h"
#include "gen/generators.h"
#include "soc/benchmarks.h"
#include "synth/synthesizer.h"
#include "test_helpers.h"

namespace nocdr {
namespace {

TEST(PowerModelTest, PositiveForPaperExample) {
  auto ex = testing::MakePaperExample();
  const auto pa = EstimatePowerArea(ex.design);
  EXPECT_GT(pa.switch_area_um2, 0.0);
  EXPECT_GT(pa.dynamic_mw, 0.0);
  EXPECT_GT(pa.leakage_mw, 0.0);
  EXPECT_GT(pa.clock_mw, 0.0);
  EXPECT_GT(pa.TotalPowerMw(), 0.0);
  EXPECT_EQ(pa.switches.size(), 4u);
}

TEST(PowerModelTest, ZeroTrafficZeroDynamic) {
  NocDesign d;
  const SwitchId a = d.topology.AddSwitch(), b = d.topology.AddSwitch();
  d.topology.AddLink(a, b);
  const auto pa = EstimatePowerArea(d);
  EXPECT_DOUBLE_EQ(pa.dynamic_mw, 0.0);
  EXPECT_GT(pa.switch_area_um2, 0.0);  // idle hardware still has area
}

TEST(PowerModelTest, AddingVcsGrowsAreaLeakageClockOnly) {
  auto ex = testing::MakePaperExample();
  const auto before = EstimatePowerArea(ex.design);
  ex.design.topology.AddVirtualChannel(ex.l1);
  ex.design.topology.AddVirtualChannel(ex.l2);
  const auto after = EstimatePowerArea(ex.design);
  EXPECT_GT(after.switch_area_um2, before.switch_area_um2);
  EXPECT_GT(after.leakage_mw, before.leakage_mw);
  EXPECT_GT(after.clock_mw, before.clock_mw);
  EXPECT_DOUBLE_EQ(after.dynamic_mw, before.dynamic_mw);
}

TEST(PowerModelTest, DynamicScalesWithBandwidth) {
  auto light = testing::MakePaperExample();
  const auto pa_light = EstimatePowerArea(light.design);
  // Same design, all flow bandwidths doubled.
  NocDesign heavy;
  auto src = testing::MakePaperExample();
  heavy.name = src.design.name;
  heavy.topology = src.design.topology;
  heavy.attachment = src.design.attachment;
  for (std::size_t c = 0; c < src.design.traffic.CoreCount(); ++c) {
    heavy.traffic.AddCore(src.design.traffic.CoreName(CoreId(c)));
  }
  for (std::size_t f = 0; f < src.design.traffic.FlowCount(); ++f) {
    const Flow& flow = src.design.traffic.FlowAt(FlowId(f));
    heavy.traffic.AddFlow(flow.src, flow.dst, 2.0 * flow.bandwidth_mbps);
  }
  heavy.routes = src.design.routes;
  heavy.Validate();
  const auto pa_heavy = EstimatePowerArea(heavy);
  EXPECT_NEAR(pa_heavy.dynamic_mw, 2.0 * pa_light.dynamic_mw, 1e-9);
  EXPECT_DOUBLE_EQ(pa_heavy.switch_area_um2, pa_light.switch_area_um2);
}

TEST(PowerModelTest, LongerRoutesCostMoreDynamicPower) {
  auto short_ring = gen::UnidirectionalRing(8, 2);
  auto long_ring = gen::UnidirectionalRing(8, 5);
  const auto pa_short = EstimatePowerArea(short_ring);
  const auto pa_long = EstimatePowerArea(long_ring);
  EXPECT_GT(pa_long.dynamic_mw, pa_short.dynamic_mw);
}

TEST(PowerModelTest, RemovalCheaperThanResourceOrderingOnDenseDesign) {
  // The headline comparison: on a deadlock-prone design our algorithm
  // should end with fewer VCs, hence less area and less total power.
  const auto b = MakeBenchmark(SocBenchmarkId::kD36_8);
  auto removal_design = SynthesizeDesign(b.traffic, b.name, 14);
  auto ordering_design = removal_design;
  RemoveDeadlocks(removal_design);
  ApplyResourceOrdering(ordering_design);
  ASSERT_LE(removal_design.topology.ExtraVcCount(),
            ordering_design.topology.ExtraVcCount());
  const auto pa_removal = EstimatePowerArea(removal_design);
  const auto pa_ordering = EstimatePowerArea(ordering_design);
  EXPECT_LE(pa_removal.switch_area_um2, pa_ordering.switch_area_um2);
  EXPECT_LE(pa_removal.TotalPowerMw(), pa_ordering.TotalPowerMw());
}

TEST(PowerModelTest, CustomParamsRespected) {
  auto ex = testing::MakePaperExample();
  PowerModelParams params;
  params.leakage_mw_per_um2 *= 10.0;
  const auto base = EstimatePowerArea(ex.design);
  const auto leaky = EstimatePowerArea(ex.design, params);
  EXPECT_NEAR(leaky.leakage_mw, 10.0 * base.leakage_mw, 1e-9);
  EXPECT_DOUBLE_EQ(leaky.switch_area_um2, base.switch_area_um2);
}

TEST(PowerModelTest, PerSwitchFootprintsSumToTotals) {
  const auto b = MakeBenchmark(SocBenchmarkId::kD35Bot);
  const auto design = SynthesizeDesign(b.traffic, b.name, 9);
  const auto pa = EstimatePowerArea(design);
  double area = 0.0, leak = 0.0, clock = 0.0;
  for (const auto& sw : pa.switches) {
    area += sw.area_um2;
    leak += sw.leakage_mw;
    clock += sw.clock_mw;
  }
  EXPECT_NEAR(area, pa.switch_area_um2, 1e-6);
  EXPECT_NEAR(leak, pa.leakage_mw, 1e-9);
  EXPECT_NEAR(clock, pa.clock_mw, 1e-9);
}

TEST(PowerModelTest, PortCountsIncludeLocalCores) {
  auto ex = testing::MakePaperExample();
  const auto pa = EstimatePowerArea(ex.design);
  // SW1 hosts src1, dst2 and src4 (3 cores) plus 1 in-link, 1 out-link.
  const auto& sw1 = pa.switches[0];
  EXPECT_EQ(sw1.in_ports, 4u);
  EXPECT_EQ(sw1.out_ports, 4u);
  // Buffered VCs: only link L4's single VC (NI queues are not counted).
  EXPECT_EQ(sw1.buffer_vcs, 1u);
}

}  // namespace
}  // namespace nocdr
