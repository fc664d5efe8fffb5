// Fault-injection subsystem: plan determinism, online reconfiguration
// against its from-scratch reference, infeasibility honesty, table
// detours, and the fault-reconfig campaign contract.
#include <gtest/gtest.h>

#include <algorithm>
#include <set>

#include "cdg/cdg.h"
#include "cdg/incremental.h"
#include "deadlock/removal.h"
#include "deadlock/verify.h"
#include "fault/plan.h"
#include "fault/reconfigure.h"
#include "gen/generators.h"
#include "noc/io.h"
#include "soc/synthetic.h"
#include "synth/route_builder.h"
#include "synth/synthesizer.h"
#include "test_helpers.h"
#include "util/canonical.h"
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
    // Validate(), the CDG cross-check and every pick of the post-burst
    // removal, held to a full scan.
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
  // surviving pair (dead entries are allowed to be holes), once the
  // columns no detour read have caught up with the burst.
  EXPECT_THROW(ValidateNextHopTable(design.topology, table),
               InvalidModelError);
  table.Flush(design.topology);
  EXPECT_NO_THROW(ValidateNextHopTable(design.topology, table));
  design.Validate();
}

/// The destination switches of \p flows, each once.
std::set<SwitchId> DestinationSwitches(const NocDesign& design,
                                       const std::vector<FlowId>& flows) {
  std::set<SwitchId> switches;
  for (const FlowId f : flows) {
    switches.insert(design.attachment[design.traffic.FlowAt(f).dst.value()]);
  }
  return switches;
}

TEST(FaultReconfigureTest, LazyTablePatchMatchesTheRebuildReference) {
  // The incremental path patches only the columns its detours read; the
  // rebuild reference patches every column in every burst. Side by side
  // over multi-burst plans, on a table-routed torus and fat tree (whose
  // spine switches can fail), both must land on the same routes, VCs
  // and reports, and the lazy table, flushed, on the eager one. The
  // incremental side starts from the generator's rule with nothing
  // stored; the reference from the same rule, then from the pair-by-pair
  // reference table, fully stored.
  std::vector<gen::GeneratorSpec> specs(2);
  specs[0].family = gen::TopologyFamily::kTorus2D;
  specs[0].width = 6;
  specs[0].height = 6;
  specs[0].uniform_fanout = 3;
  specs[1].family = gen::TopologyFamily::kFatTree;
  specs[1].tree_arity = 2;
  specs[1].tree_levels = 4;
  specs[1].tree_uplinks = 2;
  std::size_t bursts = 0;
  std::size_t lazy_columns = 0;
  std::size_t eager_columns = 0;
  for (gen::GeneratorSpec& spec : specs) {
    for (std::uint64_t seed = 1; seed <= 8; ++seed) {
      const bool from_reference = seed > 4;
      spec.seed = 1 + (seed - 1) % 4;
      NextHopTable table;
      NocDesign inc = gen::GenerateStandardDesign(spec, &table);
      ASSERT_EQ(table.StoredColumns(), 0u);
      RemoveDeadlocks(inc);
      NocDesign reb = inc;
      NextHopTable table_inc = table;
      NextHopTable table_reb =
          from_reference ? testing::ReferenceTable(spec) : table;
      auto cdg = ChannelDependencyGraph::Build(inc);
      DirtyCycleFinder finder(cdg);
      FaultState state_inc = FaultState::None(inc);
      FaultState state_reb = FaultState::None(reb);
      fault::ReconfigureOptions opts_inc;
      opts_inc.table = &table_inc;
      // Also holds each column the detours read to an eagerly patched
      // copy, inside ApplyFaultBurst.
      opts_inc.removal.paranoid_validation = true;
      fault::ReconfigureOptions opts_reb;
      opts_reb.table = &table_reb;

      FaultPlanOptions plan_options;
      plan_options.bursts = 4;
      plan_options.switch_fault_probability = 0.3;
      plan_options.disconnect_tolerance = 0.0;
      const FaultPlan plan =
          fault::DrawFaultPlan(inc, spec.seed, plan_options);
      const std::size_t n = inc.topology.SwitchCount();
      for (std::size_t b = 0; b < plan.bursts.size(); ++b) {
        const std::string where = inc.name + " burst " + std::to_string(b);
        const auto rep_inc = fault::ApplyFaultBurst(
            inc, cdg, finder, state_inc, plan.bursts[b], opts_inc);
        const auto rep_reb = fault::ApplyFaultBurstRebuild(
            reb, state_reb, plan.bursts[b], opts_reb);
        ASSERT_FALSE(rep_inc.infeasible()) << where;
        ASSERT_FALSE(rep_reb.infeasible()) << where;
        ++bursts;
        EXPECT_EQ(rep_inc.affected_flows, rep_reb.affected_flows) << where;
        EXPECT_EQ(rep_inc.table_detours, rep_reb.table_detours) << where;
        EXPECT_EQ(rep_inc.ripup_reroutes, rep_reb.ripup_reroutes) << where;
        EXPECT_EQ(rep_inc.removal.iterations, rep_reb.removal.iterations)
            << where;
        EXPECT_EQ(rep_inc.removal.vcs_added, rep_reb.removal.vcs_added)
            << where;
        EXPECT_EQ(rep_inc.removal.flows_rerouted,
                  rep_reb.removal.flows_rerouted)
            << where;
        ASSERT_EQ(inc.topology.ChannelCount(), reb.topology.ChannelCount())
            << where;
        for (std::size_t f = 0; f < inc.traffic.FlowCount(); ++f) {
          ASSERT_EQ(inc.routes.RouteOf(FlowId(f)),
                    reb.routes.RouteOf(FlowId(f)))
              << where << " flow " << f;
        }
        // The work each schedule did: every column once on the eager
        // path; on the lazy path, on a first burst, one round on each
        // destination the detours walk toward.
        EXPECT_EQ(rep_reb.table_columns, n) << where;
        EXPECT_EQ(rep_reb.table_column_rounds, n) << where;
        // A column is stored when a burst first reads it: every column
        // on the eager path, only those the detours read on the lazy one.
        EXPECT_EQ(table_reb.StoredColumns(), n) << where;
        if (b == 0) {
          EXPECT_EQ(rep_inc.table_columns,
                    DestinationSwitches(inc, rep_inc.affected_flows).size())
              << where;
          EXPECT_EQ(rep_inc.table_column_rounds, rep_inc.table_columns)
              << where;
          EXPECT_EQ(table_inc.StoredColumns(), rep_inc.table_columns)
              << where;
        }
        EXPECT_LE(rep_inc.table_column_rounds, rep_inc.table_columns * (b + 1))
            << where;
        lazy_columns += rep_inc.table_columns;
        eager_columns += rep_reb.table_columns;
      }
      table_inc.Flush(inc.topology);
      EXPECT_TRUE(table_inc == table_reb) << inc.name;
    }
  }
  EXPECT_GE(bursts, 48u);
  EXPECT_LT(lazy_columns * 4, eager_columns);
}

/// What one stream of bursts showed about the live channel numbering.
struct NumberingTally {
  std::size_t bursts = 0;
  /// Bursts after which the live numbering was not link-major.
  std::size_t renumbered = 0;
  /// Bursts after which a pass in live numbering gave other bytes.
  std::size_t live_differs = 0;
};

/// Treats \p design, streams a guarded fault plan through its live CDG
/// and holds each epoch's published bytes — the live CDG certified in
/// the canonical channel order, the text in the canonical flow order —
/// to CanonicalizeDesign plus a from-scratch certificate.
NumberingTally ExpectCanonicalEpochs(NocDesign design, NextHopTable table,
                                     std::uint64_t seed) {
  RemoveDeadlocks(design);
  auto cdg = ChannelDependencyGraph::Build(design);
  DirtyCycleFinder finder(cdg);
  FaultState state = FaultState::None(design);
  FaultPlanOptions plan_options;
  plan_options.bursts = 3;
  plan_options.disconnect_tolerance = 0.0;
  const FaultPlan plan = fault::DrawFaultPlan(design, seed, plan_options);
  fault::ReconfigureOptions opts;
  opts.table = table.empty() ? nullptr : &table;
  NumberingTally tally;
  for (const FaultBurst& burst : plan.bursts) {
    const auto report =
        fault::ApplyFaultBurst(design, cdg, finder, state, burst, opts);
    EXPECT_FALSE(report.infeasible()) << design.name;
    if (report.infeasible()) {
      break;
    }
    const CanonicalDesign canonical = CanonicalizeDesign(design);
    const std::string expected =
        CertificateToJson(CertifyDeadlockFreedom(canonical.design));
    const std::vector<ChannelId> order =
        CanonicalChannelOrder(design.topology);
    EXPECT_EQ(CertificateToJson(CertifyFromCdg(design, cdg, order)),
              expected)
        << design.name << " burst " << tally.bursts;
    EXPECT_EQ(DesignText(design, CanonicalFlowOrder(design)),
              canonical.text)
        << design.name << " burst " << tally.bursts;
    ++tally.bursts;
    bool identity = true;
    for (std::size_t k = 0; k < order.size(); ++k) {
      identity = identity && order[k] == ChannelId(k);
    }
    tally.renumbered += identity ? 0 : 1;
    tally.live_differs +=
        CertificateToJson(CertifyFromCdg(design, cdg)) == expected ? 0 : 1;
  }
  return tally;
}

TEST(FaultReconfigureTest, CanonicalOrderCertifiesLikeTheCanonicalDesign) {
  NumberingTally total;
  const auto add = [&](const NumberingTally& tally) {
    total.bursts += tally.bursts;
    total.renumbered += tally.renumbered;
    total.live_differs += tally.live_differs;
  };
  for (const std::uint64_t seed : {1ull, 2ull, 3ull}) {
    // Table-detoured tori.
    gen::GeneratorSpec spec;
    spec.family = gen::TopologyFamily::kTorus2D;
    spec.width = 8;
    spec.height = 8;
    spec.pattern = gen::TrafficPattern::kUniform;
    spec.uniform_fanout = 4;
    spec.seed = seed;
    NextHopTable table;
    NocDesign torus = gen::GenerateStandardDesign(spec, &table);
    add(ExpectCanonicalEpochs(std::move(torus), std::move(table), seed));

    // Rip-up SoCs.
    SyntheticSocSpec soc_spec;
    soc_spec.cores = 24;
    soc_spec.seed = seed;
    const SocBenchmark soc = MakeSyntheticSoc(soc_spec);
    add(ExpectCanonicalEpochs(SynthesizeDesign(soc.traffic, soc.name, 8), {},
                              seed));

    // Flows tied on (src, dst, bandwidth).
    add(ExpectCanonicalEpochs(
        testing::WithTiedTwins(testing::MakeRandomDesign(seed, 10, 14, 30)),
        {}, seed));
  }
  EXPECT_GT(total.bursts, 12u);
  // The order matters: bursts added VCs out of link order, and then the
  // live numbering certifies to other bytes.
  EXPECT_GT(total.renumbered, 0u);
  EXPECT_GT(total.live_differs, 0u);
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
  NextHopTable looped(3);
  looped.MutableColumn(c)[a.value()] = ab;
  looped.MutableColumn(c)[b.value()] = ba;  // the loop: C is never reached
  const std::size_t unroutable =
      PatchNextHopTable(topology, looped, {}, {});
  EXPECT_EQ(unroutable, 2u);  // both entries were filled, C has no in-links
  EXPECT_FALSE(looped.Column(c)[a.value()].valid());
  EXPECT_FALSE(looped.Column(c)[b.value()].valid());
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
