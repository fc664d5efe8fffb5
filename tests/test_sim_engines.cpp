// Engine-equivalence suite: the event engine (SimEngine::kEvent) must be
// bit-identical — full SimResult, per-flow delivery counts, deadlock
// verdicts and the detected wait cycle, not just aggregates — to the
// full-scan reference, on every corpus design, traffic pattern and
// seed, including deadlock-check intervals and watchdogs off the
// defaults, whose deadlines the idle-cycle jump must land on. Also
// drives the event engine through the adversarial corners (zero flows,
// single-flit worms, saturated injection, flows arming on the same
// cycle, a cycle-0 deadlock).
#include <cstdint>
#include <string>
#include <utility>
#include <vector>

#include <gtest/gtest.h>

#include "deadlock/removal.h"
#include "gen/generators.h"
#include "sim/simulator.h"
#include "sim/transition.h"
#include "test_helpers.h"
#include "valid/campaign.h"

namespace nocdr {
namespace {

// ---------------------------------------------------------------------
// Full-result comparison. Every deterministic field of SimResult,
// including the deadlock wait cycle and the per-channel / per-flow
// breakdowns — "bit-identical" means nothing is exempt.
// ---------------------------------------------------------------------

void ExpectIdentical(const SimResult& a, const SimResult& b) {
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

/// Runs \p config on \p design under both engines and asserts the
/// results are identical (full-scan is the reference).
void ExpectEnginesAgree(const NocDesign& design, SimConfig config,
                        const std::string& context) {
  config.engine = SimEngine::kFullScan;
  const SimResult reference = SimulateWorkload(design, config);
  config.engine = SimEngine::kEvent;
  const SimResult candidate = SimulateWorkload(design, config);
  SCOPED_TRACE(context);
  ExpectIdentical(reference, candidate);
}

// ---------------------------------------------------------------------
// Workload shapes. Deliberately spans the regimes where the engines'
// bookkeeping diverges most: dense deadlock pressure, sparse Bernoulli
// traffic with long idle gaps (the event engine's fast path),
// injection-first arbitration, single-slot buffers, and the jump's
// deadlines at non-default deadlock-check intervals and watchdogs.
// ---------------------------------------------------------------------

std::vector<std::pair<std::string, SimConfig>> EngineConfigs() {
  std::vector<std::pair<std::string, SimConfig>> configs;
  SimConfig deadlocky;
  deadlocky.traffic.mode = InjectionMode::kFixedCount;
  deadlocky.traffic.packets_per_flow = 4;
  deadlocky.traffic.packet_length = 8;
  deadlocky.buffer_depth = 1;
  deadlocky.max_cycles = 50000;
  deadlocky.stall_threshold = 500;
  configs.emplace_back("deadlocky", deadlocky);

  SimConfig sparse;
  sparse.traffic.mode = InjectionMode::kBernoulli;
  sparse.traffic.reference_injection_rate = 0.002;
  sparse.traffic.packet_length = 4;
  sparse.max_cycles = 6000;
  sparse.stall_threshold = 500;
  configs.emplace_back("sparse_bernoulli", sparse);

  SimConfig inject_first;
  inject_first.traffic.mode = InjectionMode::kFixedCount;
  inject_first.traffic.packets_per_flow = 6;
  inject_first.traffic.packet_length = 5;
  inject_first.inject_first = true;
  inject_first.buffer_depth = 2;
  inject_first.max_cycles = 50000;
  inject_first.stall_threshold = 500;
  configs.emplace_back("inject_first", inject_first);

  // After a cycle that moved nothing with flits in flight, the
  // idle-cycle jump must stop at the next deadlock-check boundary and at
  // the watchdog's expiry, whichever comes first. Single-slot buffers
  // under 6-flit worms let a few of the untreated designs freeze between
  // two boundaries. Interval 1 makes every such cycle a boundary;
  // interval 7 puts the boundaries off the default's grid and ahead of
  // the watchdog; interval 1000 leaves the watchdog to fire first.
  SimConfig check_every_cycle;
  check_every_cycle.traffic.mode = InjectionMode::kBernoulli;
  check_every_cycle.traffic.reference_injection_rate = 0.02;
  check_every_cycle.traffic.packet_length = 6;
  check_every_cycle.buffer_depth = 1;
  check_every_cycle.max_cycles = 1000;
  check_every_cycle.stall_threshold = 40;
  check_every_cycle.deadlock_check_interval = 1;
  configs.emplace_back("check_every_cycle", check_every_cycle);

  SimConfig check_every_7 = check_every_cycle;
  check_every_7.deadlock_check_interval = 7;
  check_every_7.inject_first = true;
  configs.emplace_back("check_every_7_inject_first", check_every_7);

  SimConfig watchdog_first = check_every_7;
  watchdog_first.deadlock_check_interval = 1000;
  configs.emplace_back("watchdog_first_inject_first", watchdog_first);
  return configs;
}

// ---------------------------------------------------------------------
// Corpus property test: every design source the validation campaign
// draws from (synthesized SoCs, mesh/torus/ring DOR, fat-tree), seeds x
// treatments x traffic patterns. The untreated generated families are
// the adversarial half — torus/ring DOR designs really deadlock.
// ---------------------------------------------------------------------

TEST(SimEnginesTest, CorpusEquivalence) {
  valid::DesignEnvelope envelope;
  envelope.min_cores = 12;
  envelope.max_cores = 30;
  const auto configs = EngineConfigs();
  for (const valid::DesignSource source : valid::AllSources()) {
    for (const std::uint64_t seed : {1ull, 2ull}) {
      NocDesign design = valid::GenerateTrialDesign(source, seed, envelope);
      NocDesign treated = design;
      RemoveDeadlocks(treated);
      for (const auto& [config_name, config] : configs) {
        const std::string context = valid::SourceName(source) + "/seed" +
                                    std::to_string(seed) + "/" +
                                    config_name;
        ExpectEnginesAgree(design, config, context + "/untreated");
        ExpectEnginesAgree(treated, config, context + "/treated");
      }
    }
  }
}

TEST(SimEnginesTest, HandcraftedDesignsEquivalence) {
  std::vector<std::pair<std::string, NocDesign>> designs;
  designs.emplace_back("paper", testing::MakePaperExample().design);
  designs.emplace_back("ring4", gen::UnidirectionalRing(4, 2));
  designs.emplace_back("ring8", gen::UnidirectionalRing(8, 3));
  for (const std::uint64_t seed : {3ull, 4ull, 5ull}) {
    designs.emplace_back("random" + std::to_string(seed),
                         testing::MakeRandomDesign(seed, 8, 12, 24));
  }
  const auto configs = EngineConfigs();
  for (const auto& [name, design] : designs) {
    for (const auto& [config_name, config] : configs) {
      ExpectEnginesAgree(design, config, name + "/" + config_name);
    }
  }
}

TEST(SimEnginesTest, EventEngineIsDeterministicAcrossRuns) {
  const NocDesign design = testing::MakeRandomDesign(7, 8, 12, 24);
  SimConfig config;
  config.engine = SimEngine::kEvent;
  config.traffic.mode = InjectionMode::kBernoulli;
  config.traffic.reference_injection_rate = 0.01;
  config.max_cycles = 8000;
  const SimResult r1 = SimulateWorkload(design, config);
  const SimResult r2 = SimulateWorkload(design, config);
  ExpectIdentical(r1, r2);
}

// ---------------------------------------------------------------------
// Transitions: the event engine must track drain windows and mid-flight
// kills cycle-for-cycle. Same detour scenario as tests/test_transition,
// compared with the full-scan reference on the full TransitionResult.
// ---------------------------------------------------------------------

struct DetourFixture {
  NocDesign design;        // routes already detoured: flow 0 on {c}
  RouteSet pre_routes;     // original routes: flow 0 on {a, b}
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
  d.routes.SetRoute(f0, {cc});
  d.routes.SetRoute(f1, {ca});
  d.Validate();

  fx.dead.assign(d.topology.ChannelCount(), 0);
  fx.dead[cb.value()] = 1;
  return fx;
}

TEST(SimEnginesTest, TransitionEquivalence) {
  const DetourFixture fx = MakeDetourFixture();
  for (const TransitionPolicy policy :
       {TransitionPolicy::kDrainAndRestart, TransitionPolicy::kMidFlight}) {
    for (const std::uint64_t transition_cycle : {0ull, 10ull, 40000ull}) {
      TransitionConfig config;
      config.sim.buffer_depth = 1;
      config.sim.max_cycles = 50000;
      config.sim.stall_threshold = 1000;
      config.sim.traffic.mode = InjectionMode::kFixedCount;
      config.sim.traffic.packets_per_flow = 8;
      config.sim.traffic.packet_length = 6;
      config.policy = policy;
      config.transition_cycle = transition_cycle;

      config.sim.engine = SimEngine::kFullScan;
      const TransitionResult reference =
          SimulateTransition(fx.design, fx.pre_routes, fx.dead, config);
      config.sim.engine = SimEngine::kEvent;
      const TransitionResult candidate =
          SimulateTransition(fx.design, fx.pre_routes, fx.dead, config);
      SCOPED_TRACE("policy=" + std::to_string(static_cast<int>(policy)) +
                   " cycle=" + std::to_string(transition_cycle));
      ExpectIdentical(reference.sim, candidate.sim);
      EXPECT_EQ(reference.packets_dropped, candidate.packets_dropped);
      EXPECT_EQ(reference.drain_cycles, candidate.drain_cycles);
    }
  }
}

// ---------------------------------------------------------------------
// Adversarial edge cases.
// ---------------------------------------------------------------------

TEST(SimEnginesEdgeTest, ZeroFlowDesignTerminatesImmediately) {
  NocDesign d;
  const SwitchId a = d.topology.AddSwitch(), b = d.topology.AddSwitch();
  d.topology.AddLink(a, b);
  d.routes.Resize(0);
  d.Validate();
  SimConfig config;
  config.traffic.packets_per_flow = 5;
  ExpectEnginesAgree(d, config, "zero_flow");
  config.engine = SimEngine::kEvent;
  const SimResult r = SimulateWorkload(d, config);
  EXPECT_FALSE(r.deadlocked);
  EXPECT_EQ(r.packets_offered, 0u);
  EXPECT_LE(r.cycles, 2u);
}

TEST(SimEnginesEdgeTest, SingleFlitWorms) {
  // packet_length == 1: every head is its own tail, so channel ownership
  // is claimed and released within one hop and every delivery completes
  // a worm.
  const auto designs = {gen::UnidirectionalRing(4, 2),
                        testing::MakeRandomDesign(11, 6, 10, 16)};
  std::size_t i = 0;
  for (const NocDesign& d : designs) {
    SimConfig config;
    config.traffic.packets_per_flow = 10;
    config.traffic.packet_length = 1;
    config.buffer_depth = 1;
    config.max_cycles = 50000;
    config.stall_threshold = 500;
    ExpectEnginesAgree(d, config, "single_flit/" + std::to_string(i++));
  }
}

TEST(SimEnginesEdgeTest, FullySaturatedInjection) {
  // Bernoulli at probability 1.0: every flow offers a packet every
  // cycle, so the event engine's idle-cycle jump never fires and every
  // cycle runs the worklist step — results must still be identical,
  // including any deadlock.
  for (const bool treated : {false, true}) {
    NocDesign d = gen::UnidirectionalRing(6, 2);
    if (treated) {
      RemoveDeadlocks(d);
    }
    SimConfig config;
    config.traffic.mode = InjectionMode::kBernoulli;
    config.traffic.reference_injection_rate = 1.0;
    config.traffic.reference_bandwidth = 50.0;  // ring flows' bandwidth
    config.traffic.packet_length = 4;
    config.buffer_depth = 2;
    config.max_cycles = 3000;
    config.stall_threshold = 500;
    ExpectEnginesAgree(d, config,
                       treated ? "saturated/treated" : "saturated/raw");
  }
}

TEST(SimEnginesEdgeTest, FlowsArmingOnTheSameCycle) {
  // Eight flows, one shared link, every packet ready on cycle 0: eight
  // flows arm at once and only the rotating round-robin orders them.
  // The arbitration outcome — and therefore delivery order and per-flow
  // latency — must match the reference exactly, twice in a row.
  NocDesign d;
  const SwitchId a = d.topology.AddSwitch(), b = d.topology.AddSwitch();
  const LinkId ab = d.topology.AddLink(a, b);
  const ChannelId ch = *d.topology.FindChannel(ab, 0);
  const std::size_t kFlows = 8;
  d.routes.Resize(0);
  for (std::size_t i = 0; i < kFlows; ++i) {
    const CoreId src = d.traffic.AddCore();
    const CoreId dst = d.traffic.AddCore();
    d.attachment.push_back(a);
    d.attachment.push_back(b);
    d.traffic.AddFlow(src, dst, 100.0);
  }
  d.routes.Resize(kFlows);
  for (std::size_t i = 0; i < kFlows; ++i) {
    d.routes.SetRoute(FlowId(i), {ch});
  }
  d.Validate();
  SimConfig config;
  config.traffic.packets_per_flow = 3;
  config.traffic.packet_length = 4;
  config.buffer_depth = 1;
  ExpectEnginesAgree(d, config, "simultaneous_ready");
  config.engine = SimEngine::kEvent;
  const SimResult r1 = SimulateWorkload(d, config);
  const SimResult r2 = SimulateWorkload(d, config);
  ExpectIdentical(r1, r2);
}

TEST(SimEnginesEdgeTest, DeadlockOnCycleZero) {
  // Two switches with links in both directions and two flows routed
  // A->B->A and B->A->B. With one-slot buffers both heads inject on
  // cycle 0, fill each other's next channel, and form a circular hard
  // wait that the cycle-0 periodic check catches before a single cycle
  // elapses. All engines must report deadlocked at cycles == 0 with the
  // same wait cycle.
  NocDesign d;
  const SwitchId a = d.topology.AddSwitch("A"), b = d.topology.AddSwitch("B");
  const LinkId lab = d.topology.AddLink(a, b);
  const LinkId lba = d.topology.AddLink(b, a);
  const ChannelId cab = *d.topology.FindChannel(lab, 0);
  const ChannelId cba = *d.topology.FindChannel(lba, 0);
  const CoreId a_src = d.traffic.AddCore(), a_dst = d.traffic.AddCore();
  const CoreId b_src = d.traffic.AddCore(), b_dst = d.traffic.AddCore();
  d.attachment = {a, a, b, b};
  const FlowId f0 = d.traffic.AddFlow(a_src, a_dst, 100.0);
  const FlowId f1 = d.traffic.AddFlow(b_src, b_dst, 100.0);
  d.routes.Resize(2);
  d.routes.SetRoute(f0, {cab, cba});
  d.routes.SetRoute(f1, {cba, cab});
  d.Validate();

  SimConfig config;
  config.traffic.packets_per_flow = 1;
  config.traffic.packet_length = 4;
  config.buffer_depth = 1;
  ExpectEnginesAgree(d, config, "cycle0_deadlock");
  for (const SimEngine engine : AllEngines()) {
    config.engine = engine;
    const SimResult r = SimulateWorkload(d, config);
    SCOPED_TRACE("engine=" + EngineName(engine));
    EXPECT_TRUE(r.deadlocked);
    EXPECT_EQ(r.cycles, 0u);
    EXPECT_FALSE(r.deadlock_cycle.empty());
  }
}

TEST(SimEnginesTest, EngineNamesRoundTrip) {
  for (const SimEngine engine : AllEngines()) {
    const auto parsed = ParseEngine(EngineName(engine));
    ASSERT_TRUE(parsed.has_value());
    EXPECT_EQ(*parsed, engine);
  }
  EXPECT_FALSE(ParseEngine("quantum").has_value());
  EXPECT_FALSE(ParseEngine("worklist").has_value());  // retired
  EXPECT_EQ(AllEngines().size(), 2u);
  EXPECT_EQ(AllEngines().front(), SimEngine::kFullScan);
}

}  // namespace
}  // namespace nocdr
