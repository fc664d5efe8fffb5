// Unit tests for the simulator's per-flow and per-channel statistics.
#include <gtest/gtest.h>

#include "gen/generators.h"
#include "sim/simulator.h"
#include "test_helpers.h"

namespace nocdr {
namespace {

SimConfig Config(std::uint32_t packets, std::uint16_t length = 4) {
  SimConfig cfg;
  cfg.traffic.mode = InjectionMode::kFixedCount;
  cfg.traffic.packets_per_flow = packets;
  cfg.traffic.packet_length = length;
  cfg.max_cycles = 100000;
  cfg.stall_threshold = 1000;
  return cfg;
}

NocDesign TwoFlowLine() {
  // a -> b -> c with one 2-hop flow and one 1-hop flow.
  NocDesign d;
  const SwitchId a = d.topology.AddSwitch(), b = d.topology.AddSwitch(),
                 c = d.topology.AddSwitch();
  const LinkId ab = d.topology.AddLink(a, b);
  const LinkId bc = d.topology.AddLink(b, c);
  const CoreId w = d.traffic.AddCore(), x = d.traffic.AddCore(),
               y = d.traffic.AddCore(), z = d.traffic.AddCore();
  d.attachment = {a, c, b, c};
  const FlowId f_long = d.traffic.AddFlow(w, x, 100.0);
  const FlowId f_short = d.traffic.AddFlow(y, z, 100.0);
  d.routes.Resize(2);
  d.routes.SetRoute(f_long, {*d.topology.FindChannel(ab, 0),
                             *d.topology.FindChannel(bc, 0)});
  d.routes.SetRoute(f_short, {*d.topology.FindChannel(bc, 0)});
  d.Validate();
  return d;
}

TEST(SimStatsTest, PerFlowCountsSumToTotal) {
  const auto d = TwoFlowLine();
  const auto r = SimulateWorkload(d, Config(7));
  ASSERT_EQ(r.flows.size(), 2u);
  EXPECT_EQ(r.flows[0].packets_delivered + r.flows[1].packets_delivered,
            r.packets_delivered);
  EXPECT_EQ(r.flows[0].packets_delivered, 7u);
  EXPECT_EQ(r.flows[1].packets_delivered, 7u);
}

TEST(SimStatsTest, LongerRouteHasHigherLatency) {
  const auto d = TwoFlowLine();
  const auto r = SimulateWorkload(d, Config(5));
  EXPECT_GT(r.flows[0].avg_latency, r.flows[1].avg_latency);
  EXPECT_GE(r.flows[0].max_latency, r.flows[0].avg_latency);
}

TEST(SimStatsTest, AggregateLatencyIsWeightedMean) {
  const auto d = TwoFlowLine();
  const auto r = SimulateWorkload(d, Config(5));
  const double weighted =
      (r.flows[0].avg_latency *
           static_cast<double>(r.flows[0].packets_delivered) +
       r.flows[1].avg_latency *
           static_cast<double>(r.flows[1].packets_delivered)) /
      static_cast<double>(r.packets_delivered);
  EXPECT_NEAR(r.avg_packet_latency, weighted, 1e-9);
}

TEST(SimStatsTest, ChannelFlitCountsMatchTraffic) {
  const auto d = TwoFlowLine();
  const std::uint32_t packets = 6;
  const std::uint16_t length = 4;
  const auto r = SimulateWorkload(d, Config(packets, length));
  ASSERT_EQ(r.channel_flits.size(), 2u);
  // Channel ab forwards only the long flow; bc forwards both.
  EXPECT_EQ(r.channel_flits[0],
            static_cast<std::uint64_t>(packets) * length);
  EXPECT_EQ(r.channel_flits[1],
            2ull * static_cast<std::uint64_t>(packets) * length);
}

TEST(SimStatsTest, UtilizationBetweenZeroAndOne) {
  const auto d = TwoFlowLine();
  const auto r = SimulateWorkload(d, Config(10));
  for (std::size_t c = 0; c < r.channel_flits.size(); ++c) {
    const double u = r.ChannelUtilization(ChannelId(c));
    EXPECT_GE(u, 0.0);
    EXPECT_LE(u, 1.0);
  }
  // The shared link is the bottleneck: strictly busier than the private
  // one.
  EXPECT_GT(r.ChannelUtilization(ChannelId(1u)),
            r.ChannelUtilization(ChannelId(0u)));
}

TEST(SimStatsTest, LocalFlowsAppearInFlowStats) {
  NocDesign d;
  const SwitchId a = d.topology.AddSwitch();
  const CoreId x = d.traffic.AddCore(), y = d.traffic.AddCore();
  d.attachment = {a, a};
  d.traffic.AddFlow(x, y, 10.0);
  d.routes.Resize(1);
  d.Validate();
  const auto r = SimulateWorkload(d, Config(3));
  ASSERT_EQ(r.flows.size(), 1u);
  EXPECT_EQ(r.flows[0].packets_delivered, 3u);
  EXPECT_DOUBLE_EQ(r.flows[0].avg_latency, 1.0);
}

TEST(SimStatsTest, DeadlockedRunStillReportsPartialStats) {
  auto d = gen::UnidirectionalRing(4, 2);
  SimConfig cfg = Config(8, 12);
  cfg.buffer_depth = 2;
  const auto r = SimulateWorkload(d, cfg);
  ASSERT_TRUE(r.deadlocked);
  ASSERT_EQ(r.flows.size(), 4u);
  std::uint64_t delivered = 0;
  for (const auto& f : r.flows) {
    delivered += f.packets_delivered;
  }
  EXPECT_EQ(delivered, r.packets_delivered);
}

}  // namespace
}  // namespace nocdr
