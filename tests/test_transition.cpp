// Transition-simulation semantics: drain-and-restart loses nothing,
// mid-flight drops exactly the packets the fault caught, and a
// transition with nothing changed degenerates to a plain run.
#include <gtest/gtest.h>

#include "noc/design.h"
#include "sim/simulator.h"
#include "sim/transition.h"
#include "test_helpers.h"
#include "util/error.h"

namespace nocdr {
namespace {

/// Three switches, a two-hop path S0->S1->S2 and a direct spare
/// S0->S2: the smallest design where a fault on the second hop has a
/// detour. Flow 0 runs S0->S2 (route {a, b}), flow 1 runs S0->S1
/// (route {a}).
struct DetourFixture {
  NocDesign design;   // routes already detoured: flow 0 on {c}
  RouteSet pre_routes;  // original routes: flow 0 on {a, b}
  std::vector<char> dead;  // channel of link b
};

DetourFixture MakeDetourFixture() {
  DetourFixture fx;
  NocDesign& d = fx.design;
  d.name = "detour_line";
  const SwitchId s0 = d.topology.AddSwitch("S0");
  const SwitchId s1 = d.topology.AddSwitch("S1");
  const SwitchId s2 = d.topology.AddSwitch("S2");
  const LinkId a = d.topology.AddLink(s0, s1);
  const LinkId b = d.topology.AddLink(s1, s2);
  const LinkId c = d.topology.AddLink(s0, s2);
  const ChannelId ca = *d.topology.FindChannel(a, 0);
  const ChannelId cb = *d.topology.FindChannel(b, 0);
  const ChannelId cc = *d.topology.FindChannel(c, 0);

  const CoreId src0 = d.traffic.AddCore("src0");
  const CoreId dst0 = d.traffic.AddCore("dst0");
  const CoreId src1 = d.traffic.AddCore("src1");
  const CoreId dst1 = d.traffic.AddCore("dst1");
  d.attachment = {s0, s2, s0, s1};
  const FlowId f0 = d.traffic.AddFlow(src0, dst0, 100.0);
  const FlowId f1 = d.traffic.AddFlow(src1, dst1, 100.0);

  d.routes.Resize(2);
  fx.pre_routes.Resize(2);
  fx.pre_routes.SetRoute(f0, {ca, cb});
  fx.pre_routes.SetRoute(f1, {ca});
  d.routes.SetRoute(f0, {cc});  // post-fault detour
  d.routes.SetRoute(f1, {ca});  // unaffected
  d.Validate();

  fx.dead.assign(d.topology.ChannelCount(), 0);
  fx.dead[cb.value()] = 1;
  return fx;
}

TransitionConfig MakeConfig(TransitionPolicy policy,
                            std::uint64_t transition_cycle,
                            SimEngine engine = SimEngine::kEvent) {
  TransitionConfig config;
  config.sim.engine = engine;
  config.sim.buffer_depth = 1;
  config.sim.max_cycles = 50000;
  config.sim.stall_threshold = 1000;
  config.sim.traffic.mode = InjectionMode::kFixedCount;
  config.sim.traffic.packets_per_flow = 8;
  config.sim.traffic.packet_length = 6;
  config.policy = policy;
  config.transition_cycle = transition_cycle;
  return config;
}

TEST(TransitionTest, DrainAndRestartLosesNothing) {
  const DetourFixture fx = MakeDetourFixture();
  const auto result = SimulateTransition(
      fx.design, fx.pre_routes, fx.dead,
      MakeConfig(TransitionPolicy::kDrainAndRestart, 10));
  EXPECT_FALSE(result.sim.deadlocked);
  EXPECT_EQ(result.packets_dropped, 0u);
  EXPECT_TRUE(result.sim.AllDelivered());
  // Traffic was mid-flight at cycle 10, so the drain had to stall.
  EXPECT_GT(result.drain_cycles, 0u);
}

TEST(TransitionTest, MidFlightDropsExactlyTheDoomedPackets) {
  const DetourFixture fx = MakeDetourFixture();
  const auto result =
      SimulateTransition(fx.design, fx.pre_routes, fx.dead,
                         MakeConfig(TransitionPolicy::kMidFlight, 10));
  EXPECT_FALSE(result.sim.deadlocked);
  // The fault destroys something (flow 0 worms were in flight on the
  // doomed path at cycle 10) but every packet is accounted for.
  EXPECT_GT(result.packets_dropped, 0u);
  EXPECT_LT(result.sim.packets_delivered, result.sim.packets_offered);
  EXPECT_TRUE(result.AllAccountedFor());
  EXPECT_EQ(result.drain_cycles, 0u);
  // Flow 1 never touches the dead link: all its packets arrive.
  EXPECT_EQ(result.sim.flows[1].packets_delivered, 8u);
}

TEST(TransitionTest, LateTransitionTouchesNothing) {
  // If the whole workload drains before the transition cycle, both
  // policies must match a plain simulation of the pre-fault routes.
  const DetourFixture fx = MakeDetourFixture();
  NocDesign pre = fx.design;
  pre.routes = fx.pre_routes;
  TransitionConfig config =
      MakeConfig(TransitionPolicy::kMidFlight, 40000);
  const SimResult plain = SimulateWorkload(pre, config.sim);
  ASSERT_TRUE(plain.AllDelivered());

  for (const TransitionPolicy policy :
       {TransitionPolicy::kMidFlight, TransitionPolicy::kDrainAndRestart}) {
    config.policy = policy;
    const auto result =
        SimulateTransition(fx.design, fx.pre_routes, fx.dead, config);
    EXPECT_EQ(result.packets_dropped, 0u);
    EXPECT_EQ(result.sim.packets_delivered, plain.packets_delivered);
    EXPECT_EQ(result.sim.flits_delivered, plain.flits_delivered);
  }
}

TEST(TransitionTest, IdentityTransitionMatchesPlainRun) {
  // Same routes on both sides and nothing dead: a mid-flight
  // "transition" is a no-op and must be cycle-accurate-identical to
  // SimulateWorkload.
  const NocDesign design = testing::MakeRandomDesign(3, 8, 12, 20);
  TransitionConfig config = MakeConfig(TransitionPolicy::kMidFlight, 32);
  config.sim.max_cycles = 200000;
  const SimResult plain = SimulateWorkload(design, config.sim);
  const auto result =
      SimulateTransition(design, design.routes, {}, config);
  EXPECT_EQ(result.packets_dropped, 0u);
  EXPECT_EQ(result.sim.cycles, plain.cycles);
  EXPECT_EQ(result.sim.packets_delivered, plain.packets_delivered);
  EXPECT_EQ(result.sim.flits_delivered, plain.flits_delivered);
  EXPECT_EQ(result.sim.avg_packet_latency, plain.avg_packet_latency);
  EXPECT_EQ(result.sim.deadlocked, plain.deadlocked);
}

TEST(TransitionTest, EnginesAgreeAcrossTheTransition) {
  const DetourFixture fx = MakeDetourFixture();
  for (const TransitionPolicy policy :
       {TransitionPolicy::kDrainAndRestart, TransitionPolicy::kMidFlight}) {
    const auto fullscan = SimulateTransition(
        fx.design, fx.pre_routes, fx.dead,
        MakeConfig(policy, 10, SimEngine::kFullScan));
    const auto event = SimulateTransition(
        fx.design, fx.pre_routes, fx.dead,
        MakeConfig(policy, 10, SimEngine::kEvent));
    EXPECT_EQ(event.sim.cycles, fullscan.sim.cycles);
    EXPECT_EQ(event.sim.packets_delivered, fullscan.sim.packets_delivered);
    EXPECT_EQ(event.sim.flits_delivered, fullscan.sim.flits_delivered);
    EXPECT_EQ(event.packets_dropped, fullscan.packets_dropped);
    EXPECT_EQ(event.drain_cycles, fullscan.drain_cycles);
  }
}

TEST(TransitionTest, DeterministicAcrossRuns) {
  const DetourFixture fx = MakeDetourFixture();
  const auto config = MakeConfig(TransitionPolicy::kMidFlight, 12);
  const auto a =
      SimulateTransition(fx.design, fx.pre_routes, fx.dead, config);
  const auto b =
      SimulateTransition(fx.design, fx.pre_routes, fx.dead, config);
  EXPECT_EQ(a.sim.cycles, b.sim.cycles);
  EXPECT_EQ(a.packets_dropped, b.packets_dropped);
  EXPECT_EQ(a.sim.packets_delivered, b.sim.packets_delivered);
}

TEST(TransitionTest, RejectsMalformedInputs) {
  const DetourFixture fx = MakeDetourFixture();
  TransitionConfig config = MakeConfig(TransitionPolicy::kMidFlight, 10);
  RouteSet short_routes(1);  // wrong flow count
  EXPECT_THROW(
      SimulateTransition(fx.design, short_routes, fx.dead, config),
      InvalidModelError);
  std::vector<char> short_mask(1, 0);  // wrong channel count
  EXPECT_THROW(
      SimulateTransition(fx.design, fx.pre_routes, short_mask, config),
      InvalidModelError);
}

}  // namespace
}  // namespace nocdr
