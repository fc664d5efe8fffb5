// Unit tests for the wormhole simulator.
#include "sim/simulator.h"

#include <gtest/gtest.h>

#include "deadlock/removal.h"
#include "gen/generators.h"
#include "sim/transition.h"
#include "test_helpers.h"
#include "util/error.h"

namespace nocdr {
namespace {

SimConfig QuickConfig(std::uint32_t packets = 4) {
  SimConfig cfg;
  cfg.traffic.mode = InjectionMode::kFixedCount;
  cfg.traffic.packets_per_flow = packets;
  cfg.traffic.packet_length = 4;
  cfg.max_cycles = 50000;
  cfg.stall_threshold = 500;
  return cfg;
}

/// One flow across a 3-switch line.
NocDesign LineDesign() {
  NocDesign d;
  const SwitchId a = d.topology.AddSwitch(), b = d.topology.AddSwitch(),
                 c = d.topology.AddSwitch();
  const LinkId ab = d.topology.AddLink(a, b);
  const LinkId bc = d.topology.AddLink(b, c);
  const CoreId x = d.traffic.AddCore(), y = d.traffic.AddCore();
  d.attachment = {a, c};
  const FlowId f = d.traffic.AddFlow(x, y, 100.0);
  d.routes.Resize(1);
  d.routes.SetRoute(f, {*d.topology.FindChannel(ab, 0),
                        *d.topology.FindChannel(bc, 0)});
  d.Validate();
  return d;
}

TEST(SimTest, SingleFlowDeliversEverything) {
  const auto d = LineDesign();
  const auto result = SimulateWorkload(d, QuickConfig(10));
  EXPECT_FALSE(result.deadlocked);
  EXPECT_TRUE(result.AllDelivered());
  EXPECT_EQ(result.packets_delivered, 10u);
  EXPECT_EQ(result.flits_delivered, 10u * 4u);
  EXPECT_EQ(result.stuck_flits, 0u);
}

TEST(SimTest, LatencyIsAtLeastPipelineDepth) {
  const auto d = LineDesign();
  const auto result = SimulateWorkload(d, QuickConfig(1));
  // 4 flits over 2 hops + ejection: at least route length + packet
  // length cycles.
  EXPECT_GE(result.avg_packet_latency, 4.0);
  EXPECT_GE(result.max_packet_latency, 4u);
}

TEST(SimTest, LocalFlowsBypassNetwork) {
  NocDesign d;
  const SwitchId a = d.topology.AddSwitch();
  const CoreId x = d.traffic.AddCore(), y = d.traffic.AddCore();
  d.attachment = {a, a};
  d.traffic.AddFlow(x, y, 10.0);
  d.routes.Resize(1);
  d.Validate();
  const auto result = SimulateWorkload(d, QuickConfig(5));
  EXPECT_TRUE(result.AllDelivered());
  EXPECT_FALSE(result.deadlocked);
  EXPECT_EQ(result.max_packet_latency, 1u);
}

TEST(SimTest, RingWithAggressiveTrafficDeadlocks) {
  // The canonical scenario: 4-ring, every flow spans 2 hops, packets
  // longer than the buffers, all flows injecting at once. The CDG has a
  // cycle and the sim must actually freeze.
  auto d = gen::UnidirectionalRing(4, 2);
  SimConfig cfg = QuickConfig(8);
  cfg.traffic.packet_length = 12;  // worms span both hops
  cfg.buffer_depth = 2;
  const auto result = SimulateWorkload(d, cfg);
  EXPECT_TRUE(result.deadlocked);
  EXPECT_FALSE(result.AllDelivered());
  EXPECT_GT(result.stuck_flits, 0u);
  EXPECT_FALSE(result.deadlock_cycle.empty());
}

TEST(SimTest, SameRingAfterRemovalCompletes) {
  auto d = gen::UnidirectionalRing(4, 2);
  RemoveDeadlocks(d);
  SimConfig cfg = QuickConfig(8);
  cfg.traffic.packet_length = 12;
  cfg.buffer_depth = 2;
  const auto result = SimulateWorkload(d, cfg);
  EXPECT_FALSE(result.deadlocked);
  EXPECT_TRUE(result.AllDelivered());
  EXPECT_EQ(result.stuck_flits, 0u);
}

TEST(SimTest, PaperExampleDeadlocksThenIsFixed) {
  auto ex = testing::MakePaperExample();
  SimConfig cfg = QuickConfig(6);
  cfg.traffic.packet_length = 10;
  cfg.buffer_depth = 2;
  const auto before = SimulateWorkload(ex.design, cfg);
  EXPECT_TRUE(before.deadlocked);

  RemoveDeadlocks(ex.design);
  const auto after = SimulateWorkload(ex.design, cfg);
  EXPECT_FALSE(after.deadlocked);
  EXPECT_TRUE(after.AllDelivered());
}

TEST(SimTest, DeadlockCycleIsReportedOnRealChannels) {
  auto d = gen::UnidirectionalRing(4, 2);
  SimConfig cfg = QuickConfig(8);
  cfg.traffic.packet_length = 12;
  cfg.buffer_depth = 2;
  const auto result = SimulateWorkload(d, cfg);
  ASSERT_TRUE(result.deadlocked);
  for (ChannelId c : result.deadlock_cycle) {
    EXPECT_TRUE(d.topology.IsValidChannel(c));
  }
}

TEST(SimTest, BernoulliModeDeliversUnderLightLoad) {
  const auto d = LineDesign();
  SimConfig cfg;
  cfg.traffic.mode = InjectionMode::kBernoulli;
  cfg.traffic.packet_length = 4;
  cfg.traffic.reference_injection_rate = 0.01;
  cfg.max_cycles = 3000;
  const auto result = SimulateWorkload(d, cfg);
  EXPECT_FALSE(result.deadlocked);
  EXPECT_GT(result.packets_offered, 0u);
  // Most offered packets delivered (the horizon truncates stragglers).
  EXPECT_GE(result.packets_delivered + 5, result.packets_offered);
}

TEST(SimTest, DeterministicAcrossRuns) {
  auto d = gen::UnidirectionalRing(6, 2);
  const auto r1 = SimulateWorkload(d, QuickConfig(5));
  const auto r2 = SimulateWorkload(d, QuickConfig(5));
  EXPECT_EQ(r1.cycles, r2.cycles);
  EXPECT_EQ(r1.packets_delivered, r2.packets_delivered);
  EXPECT_EQ(r1.deadlocked, r2.deadlocked);
  EXPECT_DOUBLE_EQ(r1.avg_packet_latency, r2.avg_packet_latency);
}

/// All three entry points reject a zero packet length, buffer depth or
/// deadlock-check interval on both engines; the engine divides by the
/// interval, so a zero must never reach it.
TEST(SimTest, InvalidConfigThrows) {
  const auto d = LineDesign();
  const TrafficSchedule schedule(d, QuickConfig().traffic, 1000);
  const std::pair<const char*, void (*)(SimConfig&)> zeroed[] = {
      {"packet_length", [](SimConfig& c) { c.traffic.packet_length = 0; }},
      {"buffer_depth", [](SimConfig& c) { c.buffer_depth = 0; }},
      {"deadlock_check_interval",
       [](SimConfig& c) { c.deadlock_check_interval = 0; }},
  };
  for (const SimEngine engine : AllEngines()) {
    for (const auto& [field, zero] : zeroed) {
      SCOPED_TRACE(EngineName(engine) + " " + field);
      SimConfig cfg = QuickConfig();
      cfg.engine = engine;
      zero(cfg);
      EXPECT_THROW(SimulateWorkload(d, cfg), InvalidModelError);
      EXPECT_THROW(SimulateWorkload(d, cfg, schedule), InvalidModelError);
      TransitionConfig transition;
      transition.sim = cfg;
      EXPECT_THROW(SimulateTransition(d, d.routes, {}, transition),
                   InvalidModelError);
    }
  }
}

void ExpectSameResult(const SimResult& a, const SimResult& b) {
  EXPECT_EQ(a.cycles, b.cycles);
  EXPECT_EQ(a.packets_offered, b.packets_offered);
  EXPECT_EQ(a.packets_injected, b.packets_injected);
  EXPECT_EQ(a.packets_delivered, b.packets_delivered);
  EXPECT_EQ(a.flits_delivered, b.flits_delivered);
  EXPECT_EQ(a.deadlocked, b.deadlocked);
  EXPECT_EQ(a.deadlock_cycle, b.deadlock_cycle);
  EXPECT_EQ(a.stuck_flits, b.stuck_flits);
  EXPECT_DOUBLE_EQ(a.avg_packet_latency, b.avg_packet_latency);
  EXPECT_EQ(a.max_packet_latency, b.max_packet_latency);
  EXPECT_EQ(a.channel_flits, b.channel_flits);
  ASSERT_EQ(a.flows.size(), b.flows.size());
  for (std::size_t f = 0; f < a.flows.size(); ++f) {
    EXPECT_EQ(a.flows[f].packets_delivered, b.flows[f].packets_delivered);
    EXPECT_DOUBLE_EQ(a.flows[f].avg_latency, b.flows[f].avg_latency);
    EXPECT_EQ(a.flows[f].max_latency, b.flows[f].max_latency);
  }
}

/// The event engine must be bit-identical to the full-scan reference on
/// every workload shape: clean runs, deadlocks, Bernoulli traffic, both
/// arbitration orders.
TEST(SimEngineTest, EventMatchesFullScanEverywhere) {
  std::vector<std::pair<std::string, NocDesign>> designs;
  designs.emplace_back("line", LineDesign());
  designs.emplace_back("ring4", gen::UnidirectionalRing(4, 2));
  designs.emplace_back("ring8", gen::UnidirectionalRing(8, 3));
  for (std::uint64_t seed : {3ull, 4ull, 5ull}) {
    designs.emplace_back("random" + std::to_string(seed),
                         testing::MakeRandomDesign(seed, 8, 12, 24));
  }
  std::vector<SimConfig> configs;
  {
    SimConfig deadlocky = QuickConfig(8);
    deadlocky.traffic.packet_length = 12;
    deadlocky.buffer_depth = 2;
    configs.push_back(deadlocky);
    SimConfig tiny = QuickConfig(3);
    tiny.buffer_depth = 1;
    tiny.traffic.packet_length = 1;
    configs.push_back(tiny);
    SimConfig bernoulli;
    bernoulli.traffic.mode = InjectionMode::kBernoulli;
    bernoulli.traffic.reference_injection_rate = 0.05;
    bernoulli.traffic.packet_length = 4;
    bernoulli.max_cycles = 4000;
    configs.push_back(bernoulli);
    SimConfig inject_first = QuickConfig(6);
    inject_first.inject_first = true;
    inject_first.buffer_depth = 1;
    configs.push_back(inject_first);
  }
  for (const auto& [name, design] : designs) {
    for (std::size_t c = 0; c < configs.size(); ++c) {
      SimConfig cfg = configs[c];
      cfg.engine = SimEngine::kFullScan;
      const SimResult reference = SimulateWorkload(design, cfg);
      cfg.engine = SimEngine::kEvent;
      const SimResult optimized = SimulateWorkload(design, cfg);
      SCOPED_TRACE(name + " config " + std::to_string(c));
      ExpectSameResult(reference, optimized);
    }
  }
}

void ExpectConsistentStats(const NocDesign& design, const SimResult& r) {
  EXPECT_LE(r.packets_delivered, r.packets_offered);
  EXPECT_LE(r.packets_delivered, r.packets_injected);
  EXPECT_EQ(r.flows.size(), design.traffic.FlowCount());
  std::uint64_t per_flow = 0;
  for (const FlowStats& stats : r.flows) {
    per_flow += stats.packets_delivered;
  }
  EXPECT_EQ(per_flow, r.packets_delivered);
}

TEST(SimEdgeCaseTest, SingleFlitPackets) {
  // packet_length == 1: the head is also the tail.
  const auto d = LineDesign();
  SimConfig cfg = QuickConfig(10);
  cfg.traffic.packet_length = 1;
  const auto r = SimulateWorkload(d, cfg);
  EXPECT_FALSE(r.deadlocked);
  EXPECT_TRUE(r.AllDelivered());
  EXPECT_EQ(r.flits_delivered, 10u);
  EXPECT_EQ(r.stuck_flits, 0u);
  ExpectConsistentStats(d, r);
}

TEST(SimEdgeCaseTest, SingleSlotBuffers) {
  const auto d = LineDesign();
  SimConfig cfg = QuickConfig(10);
  cfg.buffer_depth = 1;
  const auto r = SimulateWorkload(d, cfg);
  EXPECT_FALSE(r.deadlocked);
  EXPECT_TRUE(r.AllDelivered());
  ExpectConsistentStats(d, r);
}

TEST(SimEdgeCaseTest, ZeroFlowsTerminatesImmediately) {
  NocDesign d;
  const SwitchId a = d.topology.AddSwitch(), b = d.topology.AddSwitch();
  d.topology.AddLink(a, b);
  d.routes.Resize(0);
  d.Validate();
  for (const SimEngine engine : AllEngines()) {
    SimConfig cfg = QuickConfig(5);
    cfg.engine = engine;
    const auto r = SimulateWorkload(d, cfg);
    EXPECT_FALSE(r.deadlocked);
    EXPECT_EQ(r.packets_offered, 0u);
    EXPECT_TRUE(r.AllDelivered());
    EXPECT_LE(r.cycles, 2u);
    ExpectConsistentStats(d, r);
  }
}

TEST(SimEdgeCaseTest, SelfFlowIsRejectedByTheModel) {
  // A flow whose source core equals its destination core is not a legal
  // communication edge.
  NocDesign d;
  d.topology.AddSwitch();
  const CoreId x = d.traffic.AddCore();
  EXPECT_THROW(d.traffic.AddFlow(x, x, 10.0), InvalidModelError);
}

TEST(SimEdgeCaseTest, SameSwitchFlowUsesLocalDelivery) {
  // Source and destination attach to the same switch: the empty route is
  // the degenerate "source equals destination" case the simulator must
  // deliver without touching the network.
  NocDesign d;
  const SwitchId a = d.topology.AddSwitch(), b = d.topology.AddSwitch();
  d.topology.AddLink(a, b);
  const CoreId x = d.traffic.AddCore(), y = d.traffic.AddCore();
  d.attachment = {a, a};
  d.traffic.AddFlow(x, y, 10.0);
  d.routes.Resize(1);
  d.Validate();
  SimConfig cfg = QuickConfig(7);
  cfg.traffic.packet_length = 1;
  const auto r = SimulateWorkload(d, cfg);
  EXPECT_FALSE(r.deadlocked);
  EXPECT_TRUE(r.AllDelivered());
  EXPECT_EQ(r.packets_delivered, 7u);
  EXPECT_EQ(r.stuck_flits, 0u);
  ExpectConsistentStats(d, r);
}

TEST(SimTest, ThroughputBoundedByLinkBandwidth) {
  // Two flows share one link; at most one flit per cycle can cross it,
  // so delivering all flits takes at least total_flits cycles.
  NocDesign d;
  const SwitchId a = d.topology.AddSwitch(), b = d.topology.AddSwitch();
  const LinkId ab = d.topology.AddLink(a, b);
  const CoreId w = d.traffic.AddCore(), x = d.traffic.AddCore(),
               y = d.traffic.AddCore(), z = d.traffic.AddCore();
  d.attachment = {a, b, a, b};
  const FlowId f1 = d.traffic.AddFlow(w, x, 100.0);
  const FlowId f2 = d.traffic.AddFlow(y, z, 100.0);
  d.routes.Resize(2);
  const ChannelId ch = *d.topology.FindChannel(ab, 0);
  d.routes.SetRoute(f1, {ch});
  d.routes.SetRoute(f2, {ch});
  d.Validate();
  const auto result = SimulateWorkload(d, QuickConfig(10));
  EXPECT_TRUE(result.AllDelivered());
  EXPECT_GE(result.cycles, 2u * 10u * 4u);  // 80 flits over one link
}

}  // namespace
}  // namespace nocdr
