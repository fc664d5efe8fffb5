// The incremental-CDG contract: mutating one graph across breaks must be
// indistinguishable from rebuilding it from the design, and the
// dirty-vertex cycle search must select exactly what a full scan selects.
// These are the properties the incremental removal engine's correctness
// rests on, checked here across the whole regression corpus.
#include <gtest/gtest.h>

#include <algorithm>
#include <utility>
#include <vector>

#include "cdg/cdg.h"
#include "cdg/cycle.h"
#include "cdg/incremental.h"
#include "deadlock/breaker.h"
#include "deadlock/cost.h"
#include "deadlock/removal.h"
#include "deadlock/verify.h"
#include "gen/generators.h"
#include "soc/benchmarks.h"
#include "soc/synthetic.h"
#include "synth/synthesizer.h"
#include "test_helpers.h"
#include "util/error.h"

namespace nocdr {
namespace {

TEST(CdgIncrementalTest, AddEdgesCreatesDependencies) {
  auto ex = testing::MakePaperExample();
  ChannelDependencyGraph cdg;
  cdg.EnsureVertices(ex.design.topology.ChannelCount());
  EXPECT_EQ(cdg.EdgeCount(), 0u);
  cdg.AddEdges({ex.c1, ex.c2, ex.c3}, ex.f1);
  EXPECT_EQ(cdg.EdgeCount(), 2u);
  ASSERT_TRUE(cdg.FindEdge(ex.c1, ex.c2).has_value());
  ASSERT_TRUE(cdg.FindEdge(ex.c2, ex.c3).has_value());
  EXPECT_EQ(cdg.EdgeAt(*cdg.FindEdge(ex.c1, ex.c2)).flows,
            std::vector<FlowId>{ex.f1});

  // A second flow over the same pair annotates, not duplicates.
  cdg.AddEdges({ex.c1, ex.c2}, ex.f4);
  EXPECT_EQ(cdg.EdgeCount(), 2u);
  EXPECT_EQ(cdg.EdgeAt(*cdg.FindEdge(ex.c1, ex.c2)).flows,
            (std::vector<FlowId>{ex.f1, ex.f4}));
}

TEST(CdgIncrementalTest, RemoveEdgesDeletesWhenLastFlowLeaves) {
  auto ex = testing::MakePaperExample();
  ChannelDependencyGraph cdg;
  cdg.EnsureVertices(ex.design.topology.ChannelCount());
  cdg.AddEdges({ex.c1, ex.c2, ex.c3}, ex.f1);
  cdg.AddEdges({ex.c1, ex.c2}, ex.f4);

  cdg.RemoveEdges({ex.c1, ex.c2}, ex.f4);
  EXPECT_EQ(cdg.EdgeCount(), 2u);
  EXPECT_EQ(cdg.EdgeAt(*cdg.FindEdge(ex.c1, ex.c2)).flows,
            std::vector<FlowId>{ex.f1});

  cdg.RemoveEdges({ex.c1, ex.c2, ex.c3}, ex.f1);
  EXPECT_EQ(cdg.EdgeCount(), 0u);
  EXPECT_FALSE(cdg.FindEdge(ex.c1, ex.c2).has_value());
}

TEST(CdgIncrementalTest, RemoveEdgesThrowsWhenOutOfSync) {
  auto ex = testing::MakePaperExample();
  ChannelDependencyGraph cdg;
  cdg.EnsureVertices(ex.design.topology.ChannelCount());
  cdg.AddEdges({ex.c1, ex.c2}, ex.f1);
  EXPECT_THROW(cdg.RemoveEdges({ex.c2, ex.c3}, ex.f1), InvalidModelError);
  EXPECT_THROW(cdg.RemoveEdges({ex.c1, ex.c2}, ex.f2), InvalidModelError);
}

TEST(CdgIncrementalTest, LookupsOutsideTheGraphFindNothing) {
  auto ex = testing::MakePaperExample();
  ChannelDependencyGraph cdg;
  cdg.EnsureVertices(ex.design.topology.ChannelCount());
  cdg.AddEdges({ex.c1, ex.c2}, ex.f1);
  EXPECT_FALSE(cdg.FindEdge(ChannelId(), ex.c2).has_value());
  EXPECT_FALSE(cdg.FindEdge(ChannelId(99), ex.c2).has_value());
  EXPECT_FALSE(cdg.FindEdge(ex.c1, ChannelId()).has_value());
  EXPECT_THROW(cdg.RemoveEdges({ChannelId(99), ex.c2}, ex.f1),
               InvalidModelError);
  EXPECT_THROW(cdg.RemoveEdges({ChannelId(), ex.c2}, ex.f1),
               InvalidModelError);
  EXPECT_EQ(cdg.EdgeCount(), 1u);
}

TEST(CdgIncrementalTest, SameDependenciesDetectsDifferences) {
  auto ex = testing::MakePaperExample();
  const auto built = ChannelDependencyGraph::Build(ex.design);
  auto copy = ChannelDependencyGraph::Build(ex.design);
  EXPECT_TRUE(built.SameDependencies(copy));
  copy.RemoveEdges({ex.c3, ex.c4}, ex.f2);
  EXPECT_FALSE(built.SameDependencies(copy));
}

// ------------------------------------------------------------------------
// Remove/re-add churn: the fault-reconfiguration pipeline drives
// RemoveEdges/AddEdges far outside the break discipline (arbitrary flow
// subsets, arbitrary re-add order, repeated rounds). A churned-then-
// restored graph must be bit-identical to a fresh Build — the canonical
// representation may not remember history.

void RunChurnProperty(const NocDesign& design, std::uint64_t seed) {
  auto cdg = ChannelDependencyGraph::Build(design);
  const auto reference = ChannelDependencyGraph::Build(design);
  Rng rng(seed);
  const std::size_t flows = design.traffic.FlowCount();

  for (int round = 0; round < 3; ++round) {
    std::vector<FlowId> victims;
    for (std::size_t f = 0; f < flows; ++f) {
      if (rng.NextBool(0.4)) {
        victims.push_back(FlowId(f));
      }
    }
    for (const FlowId f : victims) {
      cdg.RemoveEdges(design.routes.RouteOf(f), f);
    }
    rng.Shuffle(victims);  // restore in a different order
    for (const FlowId f : victims) {
      cdg.AddEdges(design.routes.RouteOf(f), f);
    }
    ASSERT_TRUE(cdg.SameDependencies(reference)) << "round " << round;
    ASSERT_TRUE(reference.SameDependencies(cdg)) << "round " << round;
  }

  // Full strip: every flow out (the graph must go empty), then all back
  // in reverse order.
  for (std::size_t f = 0; f < flows; ++f) {
    cdg.RemoveEdges(design.routes.RouteOf(FlowId(f)), FlowId(f));
  }
  ASSERT_EQ(cdg.EdgeCount(), 0u);
  for (std::size_t f = flows; f-- > 0;) {
    cdg.AddEdges(design.routes.RouteOf(FlowId(f)), FlowId(f));
  }
  ASSERT_TRUE(cdg.SameDependencies(reference));
}

TEST(CdgChurnTest, ChurnedGraphsMatchFreshBuildsAcrossCorpus) {
  for (const auto id : AllBenchmarkIds()) {
    const auto b = MakeBenchmark(id);
    for (std::size_t switches : {10u, 14u, 18u}) {
      SCOPED_TRACE(b.name + "@" + std::to_string(switches));
      RunChurnProperty(SynthesizeDesign(b.traffic, b.name, switches),
                       switches);
    }
  }
}

TEST(CdgChurnTest, ChurnedGraphsMatchOnTreatedDesigns) {
  // Post-removal designs have multi-VC routes — the representation the
  // fault pipeline actually churns.
  for (const auto id : AllBenchmarkIds()) {
    const auto b = MakeBenchmark(id);
    NocDesign design = SynthesizeDesign(b.traffic, b.name, 14);
    RemoveDeadlocks(design);
    SCOPED_TRACE(b.name);
    RunChurnProperty(design, 99);
  }
}

TEST(CdgChurnTest, ChurnedGraphsMatchOnRingsAndRandomDesigns) {
  RunChurnProperty(gen::UnidirectionalRing(12, 5), 1);
  for (std::uint64_t seed = 51; seed <= 58; ++seed) {
    SCOPED_TRACE("seed " + std::to_string(seed));
    RunChurnProperty(testing::MakeRandomDesign(seed, 10, 14, 30), seed);
  }
}

// ------------------------------------------------------------------------
// The property at the heart of the incremental engine: after every break,
// (a) the mutated CDG equals a from-scratch rebuild, and (b) the dirty
// cycle finder picks exactly what a full scan picks.

void RunMirrorProperty(NocDesign design, CyclePolicy policy) {
  ChannelDependencyGraph cdg = ChannelDependencyGraph::Build(design);
  DirtyCycleFinder finder(cdg);
  std::size_t guard = 0;
  for (;;) {
    const auto full = PickCycle(cdg, policy);
    const auto dirty = finder.Pick(policy);
    ASSERT_EQ(dirty.has_value(), full.has_value());
    if (!dirty) {
      break;
    }
    ASSERT_EQ(*dirty, *full) << "dirty search diverged from full scan";

    const BreakCandidate fwd =
        FindDepToBreak(design, *dirty, BreakDirection::kForward);
    const BreakCandidate bwd =
        FindDepToBreak(design, *dirty, BreakDirection::kBackward);
    const BreakCandidate chosen = fwd.cost <= bwd.cost ? fwd : bwd;
    const BreakResult applied =
        BreakCycle(design, *dirty, chosen.edge_pos, chosen.direction);
    ASSERT_EQ(applied.rerouted_flows.size(), applied.old_routes.size());

    cdg.ApplyBreak(design, applied.rerouted_flows, applied.old_routes);
    const auto rebuilt = ChannelDependencyGraph::Build(design);
    ASSERT_TRUE(cdg.SameDependencies(rebuilt))
        << "incremental CDG diverged from rebuild";
    ASSERT_TRUE(rebuilt.SameDependencies(cdg));
    ASSERT_LT(++guard, 10000u) << "removal loop failed to converge";
  }
  EXPECT_TRUE(IsAcyclic(cdg));
}

TEST(CdgIncrementalTest, MirrorsRebuildOnRings) {
  for (auto [n, span] : {std::pair<std::size_t, std::size_t>{4, 2},
                         {6, 3},
                         {8, 3},
                         {12, 5}}) {
    RunMirrorProperty(gen::UnidirectionalRing(n, span),
                      CyclePolicy::kSmallestFirst);
  }
}

TEST(CdgIncrementalTest, MirrorsRebuildOnBenchmarkCorpus) {
  for (const auto id : AllBenchmarkIds()) {
    const auto b = MakeBenchmark(id);
    for (std::size_t switches : {10u, 14u, 18u}) {
      SCOPED_TRACE(b.name + "@" + std::to_string(switches));
      RunMirrorProperty(SynthesizeDesign(b.traffic, b.name, switches),
                        CyclePolicy::kSmallestFirst);
    }
  }
}

TEST(CdgIncrementalTest, MirrorsRebuildOnRandomDesigns) {
  for (std::uint64_t seed = 1; seed <= 8; ++seed) {
    SCOPED_TRACE("seed " + std::to_string(seed));
    RunMirrorProperty(testing::MakeRandomDesign(seed, 10, 14, 30),
                      CyclePolicy::kSmallestFirst);
  }
}

// Tori and rings from the generators break into many small SCCs, so
// most picks recompute only a region of the graph; the SoC corpus above
// has a few large SCCs and mostly exercises whole-component refreshes.
// (Dimension-ordered transpose and neighbor traffic is acyclic on a
// torus; those designs check the first pick only. The full scan this
// property compares against dominates the run time, so the largest
// side gets one seed.)
TEST(CdgIncrementalTest, MirrorsRebuildOnGeneratedTori) {
  for (const std::size_t side : {4u, 6u, 8u, 12u}) {
    const std::uint64_t seeds = side < 12 ? 3 : 1;
    for (const gen::TrafficPattern pattern : gen::AllPatterns()) {
      for (const std::size_t cores : {1u, 4u}) {
        for (std::uint64_t seed = 1; seed <= seeds; ++seed) {
          gen::GeneratorSpec spec;
          spec.family = gen::TopologyFamily::kTorus2D;
          spec.width = side;
          spec.height = side;
          spec.pattern = pattern;
          spec.cores_per_switch = cores;
          spec.uniform_fanout = 6;
          spec.seed = seed;
          const NocDesign design = gen::GenerateStandardDesign(spec);
          SCOPED_TRACE(design.name + " seed " + std::to_string(seed));
          RunMirrorProperty(design, CyclePolicy::kSmallestFirst);
        }
      }
    }
  }
}

TEST(CdgIncrementalTest, MirrorsRebuildOnGeneratedRings) {
  for (const std::size_t nodes : {6u, 16u}) {
    for (const gen::TrafficPattern pattern : gen::AllPatterns()) {
      gen::GeneratorSpec spec;
      spec.family = gen::TopologyFamily::kRing;
      spec.ring_nodes = nodes;
      spec.pattern = pattern;
      spec.cores_per_switch = 2;
      spec.uniform_fanout = 6;
      const NocDesign design = gen::GenerateStandardDesign(spec);
      SCOPED_TRACE(design.name);
      RunMirrorProperty(design, CyclePolicy::kSmallestFirst);
    }
  }
}

// Work lock-in: after the first pick, a pick recomputes the SCCs of the
// components a break changed, not of the whole graph. Exactness tests
// cannot see a regression to a whole-graph pass per pick; this can.
TEST(CdgIncrementalTest, PicksAfterTheFirstRevisitOnlyChangedComponents) {
  gen::GeneratorSpec spec;
  spec.family = gen::TopologyFamily::kTorus2D;
  spec.width = 16;
  spec.height = 16;
  NocDesign design = gen::GenerateStandardDesign(spec);
  auto cdg = ChannelDependencyGraph::Build(design);
  DirtyCycleFinder finder(cdg);
  const RemovalReport report = RemoveDeadlocksOnCdg(design, cdg, finder);
  const DirtyCycleFinder::Stats& stats = finder.stats();
  ASSERT_GT(report.iterations, 10u);
  EXPECT_EQ(stats.picks, report.iterations + 1);
  EXPECT_LT(stats.scc_vertices * 10, stats.picks * cdg.VertexCount())
      << stats.scc_vertices << " SCC vertices over " << stats.picks
      << " picks of up to " << cdg.VertexCount() << " vertices";
}

// ------------------------------------------------------------------------
// The finder's skip: a marked SCC re-verifies its cached cycles only when
// it lost an edge with both ends inside it. Every pick here is held to a
// full scan, as RemovalOptions::paranoid_validation holds it.

using Edge = std::pair<std::uint32_t, std::uint32_t>;

/// A CDG on \p vertices vertices whose edge i only flow i creates, so
/// RemoveEdge deletes exactly that edge.
ChannelDependencyGraph EdgeGraph(std::size_t vertices,
                                 const std::vector<Edge>& edges) {
  ChannelDependencyGraph cdg;
  cdg.EnsureVertices(vertices);
  for (std::size_t i = 0; i < edges.size(); ++i) {
    cdg.AddEdges({ChannelId(edges[i].first), ChannelId(edges[i].second)},
                 FlowId(i));
  }
  return cdg;
}

void RemoveEdge(ChannelDependencyGraph& cdg, const std::vector<Edge>& edges,
                Edge edge) {
  const auto it = std::find(edges.begin(), edges.end(), edge);
  ASSERT_NE(it, edges.end());
  cdg.RemoveEdges({ChannelId(edge.first), ChannelId(edge.second)},
                  FlowId(static_cast<std::size_t>(it - edges.begin())));
}

/// The finder's pick, which must equal the full scan's.
std::optional<CdgCycle> CheckedPick(DirtyCycleFinder& finder,
                                    const ChannelDependencyGraph& cdg,
                                    CyclePolicy policy) {
  std::optional<CdgCycle> picked = finder.Pick(policy);
  EXPECT_EQ(picked, PickCycle(cdg, policy)) << "pick diverged from a full scan";
  return picked;
}

CdgCycle Cycle(std::initializer_list<std::uint32_t> vertices) {
  CdgCycle cycle;
  for (const std::uint32_t v : vertices) {
    cycle.emplace_back(v);
  }
  return cycle;
}

TEST(DirtyCycleFinderTest, SccThatLostAnInternalEdgeRechecksItsCycles) {
  // One SCC of two triangles through vertex 0. Deleting 1 -> 2 leaves
  // {0, 3, 4} strongly connected: 0's cached cycle (0, 1, 2) is gone, and
  // only a re-check finds that out.
  const std::vector<Edge> edges = {{0, 1}, {1, 2}, {2, 0},
                                   {0, 3}, {3, 4}, {4, 0}};
  auto cdg = EdgeGraph(5, edges);
  DirtyCycleFinder finder(cdg);
  EXPECT_EQ(CheckedPick(finder, cdg, CyclePolicy::kSmallestFirst),
            Cycle({0, 1, 2}));

  RemoveEdge(cdg, edges, {1, 2});
  const DirtyCycleFinder::Stats before = finder.stats();
  EXPECT_EQ(CheckedPick(finder, cdg, CyclePolicy::kSmallestFirst),
            Cycle({0, 3, 4}));
  const DirtyCycleFinder::Stats& after = finder.stats();
  EXPECT_EQ(after.scc_vertices - before.scc_vertices, 5u);
  // 3 and 4 keep their cycles after a check; 0 fails its check and is
  // re-BFSed; 1 and 2 are trivial now.
  EXPECT_EQ(after.cycle_checks - before.cycle_checks, 3u);
  EXPECT_EQ(after.bfs_runs - before.bfs_runs, 1u);
}

TEST(DirtyCycleFinderTest, SccThatLostOnlyALeavingEdgeKeepsItsCyclesUnchecked) {
  // SCC {0, 1, 2} with an edge 2 -> 3 into SCC {3, 4}. Deleting that
  // edge marks {0, 1, 2} (vertex 2's out-edges changed), yet no cycle of
  // it can have broken.
  const std::vector<Edge> edges = {{0, 1}, {1, 2}, {2, 0},
                                   {2, 3}, {3, 4}, {4, 3}};
  auto cdg = EdgeGraph(5, edges);
  DirtyCycleFinder finder(cdg);
  EXPECT_EQ(CheckedPick(finder, cdg, CyclePolicy::kSmallestFirst),
            Cycle({3, 4}));

  RemoveEdge(cdg, edges, {2, 3});
  const DirtyCycleFinder::Stats before = finder.stats();
  EXPECT_EQ(CheckedPick(finder, cdg, CyclePolicy::kLargestFirst),
            Cycle({0, 1, 2}));
  const DirtyCycleFinder::Stats& after = finder.stats();
  EXPECT_EQ(after.scc_vertices - before.scc_vertices, 3u);
  EXPECT_EQ(after.cycle_checks - before.cycle_checks, 0u);
  EXPECT_EQ(after.bfs_runs - before.bfs_runs, 0u);
}

TEST(DirtyCycleFinderTest, TiesGoToTheLowestVertexUnderEveryPolicy) {
  // Triangles at 0-2 and 6-8, 2-cycles at 3-4 and 9-10, 4-cycles at
  // 11-14 and 15-18, vertex 5 isolated: the smallest and the largest
  // pick each break a tie between two cycles, and the first-found pick
  // is neither of them.
  const std::vector<Edge> edges = {
      {0, 1},   {1, 2},   {2, 0},   {3, 4},   {4, 3},   {6, 7},
      {7, 8},   {8, 6},   {9, 10},  {10, 9},  {11, 12}, {12, 13},
      {13, 14}, {14, 11}, {15, 16}, {16, 17}, {17, 18}, {18, 15}};
  auto cdg = EdgeGraph(19, edges);
  DirtyCycleFinder finder(cdg);
  EXPECT_EQ(CheckedPick(finder, cdg, CyclePolicy::kSmallestFirst),
            Cycle({3, 4}));
  EXPECT_EQ(CheckedPick(finder, cdg, CyclePolicy::kLargestFirst),
            Cycle({11, 12, 13, 14}));
  EXPECT_EQ(CheckedPick(finder, cdg, CyclePolicy::kFirstFound),
            Cycle({0, 1, 2}));

  // Breaking the winners hands each tie to the other cycle.
  RemoveEdge(cdg, edges, {3, 4});
  RemoveEdge(cdg, edges, {11, 12});
  RemoveEdge(cdg, edges, {0, 1});
  EXPECT_EQ(CheckedPick(finder, cdg, CyclePolicy::kSmallestFirst),
            Cycle({9, 10}));
  EXPECT_EQ(CheckedPick(finder, cdg, CyclePolicy::kLargestFirst),
            Cycle({15, 16, 17, 18}));
  EXPECT_EQ(CheckedPick(finder, cdg, CyclePolicy::kFirstFound),
            Cycle({6, 7, 8}));
}

TEST(DirtyCycleFinderTest, ChangeLogHoldsOnlyWhatNoPickHasRead) {
  const std::vector<Edge> edges = {{0, 1}, {1, 0}, {1, 2}, {2, 1}};
  auto cdg = EdgeGraph(3, edges);
  // No reader: building and mutating log nothing.
  RemoveEdge(cdg, edges, {2, 1});
  EXPECT_TRUE(cdg.Changes().stamped.empty());
  EXPECT_TRUE(cdg.Changes().deleted.empty());
  {
    DirtyCycleFinder finder(cdg);
    EXPECT_THROW(DirtyCycleFinder second(cdg), InvalidModelError);
    CheckedPick(finder, cdg, CyclePolicy::kSmallestFirst);
    RemoveEdge(cdg, edges, {1, 2});
    EXPECT_EQ(cdg.Changes().stamped, std::vector<ChannelId>{ChannelId(1)});
    ASSERT_EQ(cdg.Changes().deleted.size(), 1u);
    EXPECT_EQ(cdg.Changes().deleted[0],
              std::make_pair(ChannelId(1), ChannelId(2)));
    EXPECT_EQ(CheckedPick(finder, cdg, CyclePolicy::kSmallestFirst),
              Cycle({0, 1}));
    EXPECT_TRUE(cdg.Changes().stamped.empty());
    EXPECT_TRUE(cdg.Changes().deleted.empty());
    RemoveEdge(cdg, edges, {1, 0});
    EXPECT_FALSE(cdg.Changes().deleted.empty());
  }
  // The finder's end stops the log and drops what no pick read.
  EXPECT_FALSE(cdg.TracksChanges());
  EXPECT_TRUE(cdg.Changes().stamped.empty());
  EXPECT_TRUE(cdg.Changes().deleted.empty());
  DirtyCycleFinder next(cdg);
  EXPECT_FALSE(CheckedPick(next, cdg, CyclePolicy::kSmallestFirst));
}

// The re-check path on whole designs: SoC removal runs whose SCCs lose
// internal edges, with every pick held to a full scan and the CDG to a
// rebuild.
TEST(DirtyCycleFinderTest, ParanoidSocRemovalRechecksCachedCycles) {
  const auto b = MakeBenchmark(SocBenchmarkId::kD36_8);
  std::size_t checks = 0;
  for (const std::size_t switches : {24u, 34u}) {
    SCOPED_TRACE(b.name + "@" + std::to_string(switches));
    NocDesign design = SynthesizeDesign(b.traffic, b.name, switches);
    RemovalOptions options;
    options.paranoid_validation = true;
    const RemovalReport report = RemoveDeadlocks(design, options);
    EXPECT_GT(report.iterations, 0u);
    EXPECT_TRUE(IsDeadlockFree(design));
    checks += report.cycle_checks;
  }
  EXPECT_GT(checks, 0u) << "no pick re-checked a cached cycle";
}

// Picks stay exact while the SCC member lists compact. A path of
// 2-cycles i <-> i+1 is one SCC; each deletion below splits it and
// re-numbers most of it, so dead member entries soon outnumber the
// vertices and the lists compact about every other pick.
TEST(DirtyCycleFinderTest, PicksStayExactAcrossMemberListCompaction) {
  const std::size_t n = 64;
  std::vector<Edge> edges;
  for (std::uint32_t i = 0; i + 1 < n; ++i) {
    edges.push_back({i, i + 1});
    edges.push_back({i + 1, i});
  }
  auto cdg = EdgeGraph(n, edges);
  DirtyCycleFinder finder(cdg);
  CheckedPick(finder, cdg, CyclePolicy::kSmallestFirst);
  for (std::uint32_t i = 0; i + 1 < n; i += 2) {
    RemoveEdge(cdg, edges, {i + 1, i});
    CheckedPick(finder, cdg, CyclePolicy::kSmallestFirst);
  }
  // What is left: the 2-cycles {1, 2}, {3, 4}, ..., {61, 62}.
  EXPECT_EQ(CheckedPick(finder, cdg, CyclePolicy::kLargestFirst),
            Cycle({1, 2}));
}

TEST(CdgIncrementalTest, MirrorsRebuildUnderAblationPolicies) {
  for (auto policy : {CyclePolicy::kFirstFound, CyclePolicy::kLargestFirst}) {
    RunMirrorProperty(gen::UnidirectionalRing(8, 3), policy);
    const auto b = MakeBenchmark(SocBenchmarkId::kD36_8);
    RunMirrorProperty(SynthesizeDesign(b.traffic, b.name, 14), policy);
  }
}

// ------------------------------------------------------------------------
// End-to-end: RemoveDeadlocks and the reference RemoveDeadlocksRebuild
// must produce identical reports and identical final designs.

void ExpectSameOutcome(const NocDesign& input) {
  NocDesign incremental_design = input;
  NocDesign rebuild_design = input;
  const auto incremental = RemoveDeadlocks(incremental_design);
  const auto rebuild = RemoveDeadlocksRebuild(rebuild_design);

  EXPECT_EQ(incremental.initially_deadlock_free,
            rebuild.initially_deadlock_free);
  EXPECT_EQ(incremental.iterations, rebuild.iterations);
  EXPECT_EQ(incremental.vcs_added, rebuild.vcs_added);
  EXPECT_EQ(incremental.flows_rerouted, rebuild.flows_rerouted);
  ASSERT_EQ(incremental.steps.size(), rebuild.steps.size());
  for (std::size_t i = 0; i < incremental.steps.size(); ++i) {
    EXPECT_EQ(incremental.steps[i].cycle_length,
              rebuild.steps[i].cycle_length);
    EXPECT_EQ(incremental.steps[i].direction, rebuild.steps[i].direction);
    EXPECT_EQ(incremental.steps[i].edge_pos, rebuild.steps[i].edge_pos);
    EXPECT_EQ(incremental.steps[i].cost, rebuild.steps[i].cost);
  }
  EXPECT_EQ(incremental_design.topology.ChannelCount(),
            rebuild_design.topology.ChannelCount());
  EXPECT_EQ(incremental_design.topology.LinkCount(),
            rebuild_design.topology.LinkCount());
  for (std::size_t f = 0; f < input.traffic.FlowCount(); ++f) {
    ASSERT_EQ(incremental_design.routes.RouteOf(FlowId(f)),
              rebuild_design.routes.RouteOf(FlowId(f)))
        << "flow " << f;
  }
  EXPECT_TRUE(IsDeadlockFree(incremental_design));
}

TEST(RemovalEngineEquivalenceTest, BenchmarkCorpus) {
  for (const auto id : AllBenchmarkIds()) {
    const auto b = MakeBenchmark(id);
    for (std::size_t switches : {10u, 18u}) {
      SCOPED_TRACE(b.name + "@" + std::to_string(switches));
      ExpectSameOutcome(SynthesizeDesign(b.traffic, b.name, switches));
    }
  }
}

TEST(RemovalEngineEquivalenceTest, RingsAndRandomDesigns) {
  ExpectSameOutcome(gen::UnidirectionalRing(10, 4));
  for (std::uint64_t seed = 21; seed <= 26; ++seed) {
    SCOPED_TRACE("seed " + std::to_string(seed));
    ExpectSameOutcome(testing::MakeRandomDesign(seed, 9, 12, 24));
  }
}

TEST(RemovalEngineEquivalenceTest, SocWithNonNestedBreakCostsCertifies) {
  // A 192-core synthetic SoC whose breaks duplicate non-nested channel
  // sets: with the flows' costs combined by max, removal predicted fewer
  // VCs than a break added and threw (deadlock/cost.h).
  SyntheticSocSpec spec;
  spec.cores = 192;
  spec.seed = 15;
  const SocBenchmark soc = MakeSyntheticSoc(spec);
  const NocDesign input = SynthesizeDesign(soc.traffic, soc.name, 64);
  ExpectSameOutcome(input);

  NocDesign treated = input;
  RemovalOptions options;
  options.paranoid_validation = true;
  const RemovalReport report = RemoveDeadlocks(treated, options);
  EXPECT_GT(report.iterations, 0u);
  const DeadlockCertificate certificate = CertifyDeadlockFreedom(treated);
  EXPECT_TRUE(certificate.deadlock_free);
  EXPECT_TRUE(CheckCertificate(treated, certificate));
}

TEST(RemovalEngineEquivalenceTest, ParanoidValidationPasses) {
  NocDesign design = gen::UnidirectionalRing(8, 3);
  RemovalOptions options;
  options.paranoid_validation = true;
  const auto report = RemoveDeadlocks(design, options);
  EXPECT_GT(report.iterations, 0u);
  EXPECT_TRUE(IsDeadlockFree(design));
}

TEST(RemovalEngineEquivalenceTest, PhysicalLinkModeMatchesToo) {
  const auto b = MakeBenchmark(SocBenchmarkId::kD36_6);
  const auto input = SynthesizeDesign(b.traffic, b.name, 14);
  NocDesign a = input;
  NocDesign c = input;
  RemovalOptions options;
  options.duplication = DuplicationMode::kPhysicalLink;
  const auto ra = RemoveDeadlocks(a, options);
  const auto rc = RemoveDeadlocksRebuild(c, options);
  EXPECT_EQ(ra.vcs_added, rc.vcs_added);
  EXPECT_EQ(ra.iterations, rc.iterations);
  EXPECT_TRUE(IsDeadlockFree(a));
}

}  // namespace
}  // namespace nocdr
