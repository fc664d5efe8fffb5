// Fault-injection subsystem: plan determinism, online reconfiguration
// against its from-scratch reference, infeasibility honesty, table
// detours, and the fault-reconfig campaign contract.
#include <gtest/gtest.h>

#include <algorithm>

#include "cdg/cdg.h"
#include "cdg/incremental.h"
#include "deadlock/removal.h"
#include "deadlock/verify.h"
#include "fault/plan.h"
#include "fault/reconfigure.h"
#include "gen/generators.h"
#include "synth/route_builder.h"
#include "test_helpers.h"
#include "util/error.h"
#include "valid/fault_campaign.h"

namespace nocdr {
namespace {

using fault::FaultBurst;
using fault::FaultEvent;
using fault::FaultKind;
using fault::FaultPlan;
using fault::FaultPlanOptions;
using fault::FaultState;

bool SameEvents(const FaultPlan& a, const FaultPlan& b) {
  if (a.bursts.size() != b.bursts.size()) {
    return false;
  }
  for (std::size_t i = 0; i < a.bursts.size(); ++i) {
    if (a.bursts[i].size() != b.bursts[i].size()) {
      return false;
    }
    for (std::size_t j = 0; j < a.bursts[i].size(); ++j) {
      const FaultEvent& x = a.bursts[i][j];
      const FaultEvent& y = b.bursts[i][j];
      if (x.kind != y.kind || x.link != y.link ||
          x.switch_id != y.switch_id) {
        return false;
      }
    }
  }
  return true;
}

TEST(FaultPlanTest, DeterministicInSeed) {
  const NocDesign design = testing::MakeRandomDesign(5, 10, 14, 30);
  FaultPlanOptions options;
  options.bursts = 3;
  EXPECT_TRUE(SameEvents(fault::DrawFaultPlan(design, 42, options),
                         fault::DrawFaultPlan(design, 42, options)));
  // Different seeds should (for this design) pick different victims.
  EXPECT_FALSE(SameEvents(fault::DrawFaultPlan(design, 42, options),
                          fault::DrawFaultPlan(design, 43, options)));
}

TEST(FaultPlanTest, NeverNamesAnElementTwice) {
  const NocDesign design = testing::MakeRandomDesign(9, 12, 16, 40);
  FaultPlanOptions options;
  options.bursts = 4;
  options.max_links_per_burst = 3;
  options.disconnect_tolerance = 1.0;  // no guard: maximum churn
  const FaultPlan plan = fault::DrawFaultPlan(design, 17, options);
  std::vector<std::uint32_t> links;
  for (const FaultBurst& burst : plan.bursts) {
    for (const FaultEvent& event : burst) {
      if (event.kind == FaultKind::kLink) {
        links.push_back(event.link.value());
      }
    }
  }
  std::sort(links.begin(), links.end());
  EXPECT_EQ(std::adjacent_find(links.begin(), links.end()), links.end());
}

TEST(FaultPlanTest, GuardedPlansKeepAttachmentsConnected) {
  // With tolerance 0 every drawn burst must be survivable: applying the
  // whole plan leaves every flow's endpoints mutually reachable.
  for (std::uint64_t seed = 1; seed <= 10; ++seed) {
    const NocDesign design = testing::MakeRandomDesign(seed, 10, 14, 30);
    FaultPlanOptions options;
    options.bursts = 3;
    options.disconnect_tolerance = 0.0;
    const FaultPlan plan = fault::DrawFaultPlan(design, seed * 7, options);
    FaultState state = FaultState::None(design);
    for (const FaultBurst& burst : plan.bursts) {
      state.Apply(design, burst);
    }
    // Reuse the pipeline's own feasibility scan target: no affected flow
    // may be disconnected.
    NocDesign scratch = design;
    auto cdg = ChannelDependencyGraph::Build(scratch);
    DirtyCycleFinder finder(cdg);
    FaultState fresh = FaultState::None(scratch);
    for (const FaultBurst& burst : plan.bursts) {
      const auto report =
          fault::ApplyFaultBurst(scratch, cdg, finder, fresh, burst);
      EXPECT_FALSE(report.infeasible()) << "seed " << seed;
    }
  }
}

TEST(FaultStateTest, SwitchFailureFansOutToIncidentLinks) {
  const auto ex = testing::MakePaperExample();
  FaultState state = FaultState::None(ex.design);
  // SW2 is l1's dst and l2's src.
  state.Apply(ex.design, {{FaultKind::kSwitch, LinkId(), SwitchId(1)}});
  EXPECT_TRUE(state.SwitchFailed(SwitchId(1)));
  EXPECT_TRUE(state.LinkFailed(ex.l1));
  EXPECT_TRUE(state.LinkFailed(ex.l2));
  EXPECT_FALSE(state.LinkFailed(ex.l3));
  EXPECT_EQ(state.FailedLinkCount(), 2u);
  EXPECT_EQ(state.FailedSwitchCount(), 1u);
}

TEST(FaultReconfigureTest, AffectedFlowsMatchesRoutes) {
  const auto ex = testing::MakePaperExample();
  FaultState state = FaultState::None(ex.design);
  state.Apply(ex.design, {{FaultKind::kLink, ex.l2, SwitchId()}});
  // Routes touching l2's channel c2: F1 {c1,c2,c3} and F4 {c1,c2}.
  EXPECT_EQ(fault::AffectedFlows(ex.design, state),
            (std::vector<FlowId>{ex.f1, ex.f4}));
  const auto dead = fault::DeadChannelMask(ex.design, state);
  EXPECT_EQ(dead[ex.c2.value()], 1);
  EXPECT_EQ(dead[ex.c1.value()], 0);
}

TEST(FaultReconfigureTest, InfeasibleBurstMutatesNothing) {
  // The paper example's ring has no redundancy: killing l2 strands F1/F4.
  auto ex = testing::MakePaperExample();
  NocDesign design = ex.design;
  RemoveDeadlocks(design);
  const RouteSet routes_before = design.routes;
  const std::size_t channels_before = design.topology.ChannelCount();

  auto cdg = ChannelDependencyGraph::Build(design);
  DirtyCycleFinder finder(cdg);
  FaultState state = FaultState::None(design);
  const auto report = fault::ApplyFaultBurst(
      design, cdg, finder, state, {{FaultKind::kLink, ex.l2, SwitchId()}});

  ASSERT_TRUE(report.infeasible());
  EXPECT_EQ(report.disconnected_flows, (std::vector<FlowId>{ex.f1, ex.f4}));
  EXPECT_EQ(design.topology.ChannelCount(), channels_before);
  EXPECT_FALSE(state.LinkFailed(ex.l2)) << "state must not advance";
  for (std::size_t f = 0; f < design.traffic.FlowCount(); ++f) {
    EXPECT_EQ(design.routes.RouteOf(FlowId(f)),
              routes_before.RouteOf(FlowId(f)));
  }
  EXPECT_TRUE(cdg.SameDependencies(ChannelDependencyGraph::Build(design)));
}

TEST(FaultReconfigureTest, ReroutesAroundTheFaultAndStaysCertified) {
  for (std::uint64_t seed = 11; seed <= 18; ++seed) {
    NocDesign design = testing::MakeRandomDesign(seed, 10, 14, 30);
    RemoveDeadlocks(design);
    auto cdg = ChannelDependencyGraph::Build(design);
    DirtyCycleFinder finder(cdg);
    FaultState state = FaultState::None(design);

    FaultPlanOptions options;
    options.bursts = 2;
    options.disconnect_tolerance = 0.0;
    const FaultPlan plan = fault::DrawFaultPlan(design, seed, options);
    fault::ReconfigureOptions opts;
    opts.paranoid_validation = true;  // Validate() + CDG cross-check
    // Every pick of the post-burst removal, held to a full scan.
    opts.removal.paranoid_validation = true;
    for (const FaultBurst& burst : plan.bursts) {
      const auto report =
          fault::ApplyFaultBurst(design, cdg, finder, state, burst, opts);
      ASSERT_FALSE(report.infeasible()) << "seed " << seed;
      // No surviving route may cross a failed link.
      for (std::size_t f = 0; f < design.traffic.FlowCount(); ++f) {
        for (const ChannelId c : design.routes.RouteOf(FlowId(f))) {
          EXPECT_FALSE(
              state.LinkFailed(design.topology.ChannelAt(c).link))
              << "seed " << seed << " flow " << f;
        }
      }
      const DeadlockCertificate cert = CertifyFromCdg(design, cdg);
      EXPECT_TRUE(cert.deadlock_free);
      EXPECT_TRUE(CheckCertificate(design, cert));
    }
  }
}

TEST(FaultReconfigureTest, IncrementalMatchesRebuildReference) {
  for (std::uint64_t seed = 31; seed <= 40; ++seed) {
    NocDesign inc = testing::MakeRandomDesign(seed, 10, 14, 30);
    RemoveDeadlocks(inc);
    NocDesign reb = inc;
    auto cdg = ChannelDependencyGraph::Build(inc);
    DirtyCycleFinder finder(cdg);
    FaultState state_inc = FaultState::None(inc);
    FaultState state_reb = FaultState::None(reb);

    FaultPlanOptions options;
    options.bursts = 3;
    const FaultPlan plan = fault::DrawFaultPlan(inc, seed * 3, options);
    for (const FaultBurst& burst : plan.bursts) {
      const auto rep_inc =
          fault::ApplyFaultBurst(inc, cdg, finder, state_inc, burst);
      const auto rep_reb =
          fault::ApplyFaultBurstRebuild(reb, state_reb, burst);
      ASSERT_EQ(rep_inc.infeasible(), rep_reb.infeasible());
      ASSERT_EQ(rep_inc.affected_flows, rep_reb.affected_flows);
      if (rep_inc.infeasible()) {
        break;
      }
      EXPECT_EQ(rep_inc.removal.iterations, rep_reb.removal.iterations);
      EXPECT_EQ(rep_inc.removal.vcs_added, rep_reb.removal.vcs_added);
      ASSERT_EQ(inc.topology.ChannelCount(), reb.topology.ChannelCount());
      for (std::size_t f = 0; f < inc.traffic.FlowCount(); ++f) {
        ASSERT_EQ(inc.routes.RouteOf(FlowId(f)),
                  reb.routes.RouteOf(FlowId(f)))
            << "seed " << seed << " flow " << f;
      }
      ASSERT_TRUE(cdg.SameDependencies(ChannelDependencyGraph::Build(inc)));
    }
  }
}

TEST(FaultReconfigureTest, TableDetourPatchesInsteadOfRippingUp) {
  gen::GeneratorSpec spec;
  spec.family = gen::TopologyFamily::kMesh2D;
  spec.width = 5;
  spec.height = 5;
  spec.pattern = gen::TrafficPattern::kUniform;
  spec.uniform_fanout = 3;
  spec.seed = 3;
  NextHopTable table;
  NocDesign design = gen::GenerateStandardDesign(spec, &table);
  ASSERT_FALSE(table.empty());
  RemoveDeadlocks(design);

  auto cdg = ChannelDependencyGraph::Build(design);
  DirtyCycleFinder finder(cdg);
  FaultState state = FaultState::None(design);
  FaultPlanOptions plan_options;
  plan_options.bursts = 1;
  plan_options.disconnect_tolerance = 0.0;
  plan_options.switch_fault_probability = 0.0;
  const FaultPlan plan = fault::DrawFaultPlan(design, 2, plan_options);
  ASSERT_FALSE(plan.bursts.front().empty());

  fault::ReconfigureOptions opts;
  opts.table = &table;
  const auto report = fault::ApplyFaultBurst(design, cdg, finder, state,
                                             plan.bursts.front(), opts);
  ASSERT_FALSE(report.infeasible());
  EXPECT_GT(report.affected_flows.size(), 0u);
  EXPECT_EQ(report.table_detours, report.affected_flows.size());
  EXPECT_EQ(report.ripup_reroutes, 0u);
  // The patched table must still be complete and loop-free for every
  // surviving pair (dead entries are allowed to be holes).
  EXPECT_NO_THROW(ValidateNextHopTable(design.topology, table));
  design.Validate();
}

TEST(FaultReconfigureTest, TablePatchSurvivesARoutingLoopInTheInput) {
  // A corrupted table whose walk toward C cycles A -> B -> A must be
  // classified as broken (loop guard), not chased forever; the patch
  // then invalidates the unroutable entries and the table validates.
  TopologyGraph topology;
  const SwitchId a = topology.AddSwitch("A");
  const SwitchId b = topology.AddSwitch("B");
  const SwitchId c = topology.AddSwitch("C");
  const LinkId ab = topology.AddLink(a, b);
  const LinkId ba = topology.AddLink(b, a);
  NextHopTable looped(3, std::vector<LinkId>(3));
  looped[a.value()][c.value()] = ab;
  looped[b.value()][c.value()] = ba;  // the loop: C is never reached
  const std::size_t unroutable =
      PatchNextHopTable(topology, looped, {}, {});
  EXPECT_EQ(unroutable, 2u);  // both entries were filled, C has no in-links
  EXPECT_FALSE(looped[a.value()][c.value()].valid());
  EXPECT_FALSE(looped[b.value()][c.value()].valid());
  EXPECT_NO_THROW(ValidateNextHopTable(topology, looped));
}

TEST(DirtyCycleFinderTest, ExternalEdgeTaintRestoresExactness) {
  // Start from the acyclic half of the paper example, let the finder
  // cache "no cycle", then close the ring with edges between
  // pre-existing vertices — exactly what a fault re-route does.
  const auto ex = testing::MakePaperExample();
  ChannelDependencyGraph cdg;
  cdg.EnsureVertices(ex.design.topology.ChannelCount());
  cdg.AddEdges({ex.c1, ex.c2, ex.c3}, ex.f1);
  DirtyCycleFinder finder(cdg);
  EXPECT_FALSE(finder.Pick(CyclePolicy::kSmallestFirst).has_value());

  const Route closing = {ex.c3, ex.c4, ex.c1};
  cdg.AddEdges(closing, ex.f2);
  finder.NoteExternalEdges(closing);
  const auto dirty = finder.Pick(CyclePolicy::kSmallestFirst);
  const auto full = PickCycle(cdg, CyclePolicy::kSmallestFirst);
  ASSERT_TRUE(dirty.has_value());
  ASSERT_TRUE(full.has_value());
  EXPECT_EQ(*dirty, *full);

  // And removal of the same edges needs no taint at all.
  cdg.RemoveEdges(closing, ex.f2);
  EXPECT_FALSE(finder.Pick(CyclePolicy::kSmallestFirst).has_value());
}

TEST(FaultCampaignTest, SmallCampaignIsCleanAndThreadStable) {
  valid::FaultCampaignConfig config;
  config.trials = 20;
  config.base_seed = 5;
  config.threads = 2;
  const auto result = valid::RunFaultCampaign(config);
  EXPECT_EQ(result.Mismatches(), 0u);
  EXPECT_EQ(result.rows.size(), 20u);
  for (const auto& row : result.rows) {
    EXPECT_TRUE(row.mismatch.empty()) << row.mismatch;
  }

  valid::FaultCampaignConfig serial = config;
  serial.threads = 1;
  EXPECT_EQ(valid::RunFaultCampaign(serial).digest, result.digest);
}

TEST(FaultCampaignTest, TrialRowsAreDeterministic) {
  valid::FaultCampaignConfig config;
  const auto a = valid::RunFaultTrial(valid::DesignSource::kTorus, 99, config);
  const auto b = valid::RunFaultTrial(valid::DesignSource::kTorus, 99, config);
  EXPECT_EQ(Digest(std::vector{a}), Digest(std::vector{b}));
}

TEST(FaultCampaignTest, DigestIsPinned) {
  valid::FaultCampaignConfig config;
  config.trials = 20;
  config.base_seed = 5;
  EXPECT_EQ(valid::RunFaultCampaign(config).digest, 0xe07197f8eda883d5ull);
}

TEST(FaultCampaignTest, FullRowIsPinned) {
  valid::FaultTrialRow row;
  row.trial_index = 3;
  row.design_seed = 0x123456789abcdef0ull;
  row.design = "torus4x4";
  row.source = valid::DesignSource::kTorus;
  row.switches = 16;
  row.links = 64;
  row.flows = 20;
  row.channels_initial = 70;
  row.channels_final = 72;
  row.table_routed = true;
  row.bursts_planned = 3;
  row.bursts_applied = 2;
  row.failed_links = 4;
  row.failed_switches = 1;
  row.affected_flows = 5;
  row.disconnected_flows = 6;
  row.table_detours = 7;
  row.ripup_reroutes = 8;
  row.removal_iterations = 9;
  row.removal_vcs_added = 10;
  row.post_delivered = 11;
  row.drain_cycles = 12;
  row.drain_delivered = 13;
  row.midflight_dropped = 14;
  row.midflight_delivered = 15;
  row.midflight_deadlocks = 16;
  row.verdict = valid::FaultVerdict::kDisconnected;
  row.mismatch_kind = valid::FaultMismatchKind::kCdgDesync;
  row.mismatch = "cdg desync";
  row.run_ms = 12.5;
  EXPECT_EQ(Digest(std::vector{row}), 0x8f8f6fdb916fec89ull);
  const std::map<std::string, std::string> expected = {
      {"trial", "3"},
      {"design_seed", "1311768467463790320"},
      {"design", "\"torus4x4\""},
      {"source", "\"torus\""},
      {"switches", "16"},
      {"links", "64"},
      {"flows", "20"},
      {"channels_initial", "70"},
      {"channels_final", "72"},
      {"table_routed", "true"},
      {"bursts_planned", "3"},
      {"bursts_applied", "2"},
      {"failed_links", "4"},
      {"failed_switches", "1"},
      {"affected_flows", "5"},
      {"disconnected_flows", "6"},
      {"table_detours", "7"},
      {"ripup_reroutes", "8"},
      {"removal_iterations", "9"},
      {"removal_vcs_added", "10"},
      {"drain_cycles", "12"},
      {"drain_delivered", "13"},
      {"post_delivered", "11"},
      {"midflight_dropped", "14"},
      {"midflight_delivered", "15"},
      {"midflight_deadlocks", "16"},
      {"verdict", "\"disconnected\""},
      {"mismatch", "\"cdg desync\""},
      {"mismatch_kind", "4"},
      {"run_ms", "12.500000"},
  };
  EXPECT_EQ(testing::JsonMembers(RowToJson(row).Dump()), expected);
}

}  // namespace
}  // namespace nocdr
