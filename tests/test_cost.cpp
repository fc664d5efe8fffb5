// Unit tests for Algorithm 2 (cost tables). The forward table must
// reproduce the paper's Table 1 exactly.
#include "deadlock/cost.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <vector>

#include "cdg/cdg.h"
#include "cdg/cycle.h"
#include "deadlock/breaker.h"
#include "gen/generators.h"
#include "soc/benchmarks.h"
#include "synth/synthesizer.h"
#include "test_helpers.h"
#include "util/error.h"

namespace nocdr {
namespace {

CdgCycle PaperCycle(const testing::PaperExample& ex) {
  return {ex.c1, ex.c2, ex.c3, ex.c4};
}

TEST(CostTest, ForwardTableMatchesTable1) {
  auto ex = testing::MakePaperExample();
  const auto table = ComputeCycleCostTable(ex.design, PaperCycle(ex),
                                           BreakDirection::kForward);
  // Rows F1..F4, columns D1..D4 (Di = edge (ci, c_{i+1 mod 4})).
  ASSERT_EQ(table.flows,
            (std::vector<FlowId>{ex.f1, ex.f2, ex.f3, ex.f4}));
  EXPECT_EQ(table.cost[0], (std::vector<std::size_t>{1, 2, 0, 0}));  // F1
  EXPECT_EQ(table.cost[1], (std::vector<std::size_t>{0, 0, 1, 0}));  // F2
  EXPECT_EQ(table.cost[2], (std::vector<std::size_t>{0, 0, 0, 1}));  // F3
  EXPECT_EQ(table.cost[3], (std::vector<std::size_t>{1, 0, 0, 0}));  // F4
  // MAX row of Table 1.
  EXPECT_EQ(table.combined, (std::vector<std::size_t>{1, 2, 1, 1}));
}

TEST(CostTest, ForwardBestBreakCostOne) {
  auto ex = testing::MakePaperExample();
  const auto best =
      FindDepToBreak(ex.design, PaperCycle(ex), BreakDirection::kForward);
  EXPECT_EQ(best.cost, 1u);
  EXPECT_EQ(best.edge_pos, 0u);  // first minimum: D1
  EXPECT_EQ(best.direction, BreakDirection::kForward);
}

TEST(CostTest, BackwardTablePaperExample) {
  auto ex = testing::MakePaperExample();
  const auto table = ComputeCycleCostTable(ex.design, PaperCycle(ex),
                                           BreakDirection::kBackward);
  ASSERT_EQ(table.flows,
            (std::vector<FlowId>{ex.f1, ex.f2, ex.f3, ex.f4}));
  // F1 = {L1,L2,L3}: breaking D1 backward duplicates L2 and L3 (cost 2);
  // breaking D2 backward duplicates L3 only (cost 1).
  EXPECT_EQ(table.cost[0], (std::vector<std::size_t>{2, 1, 0, 0}));
  // F2 = {L3,L4}: D3 backward duplicates L4 (cost 1).
  EXPECT_EQ(table.cost[1], (std::vector<std::size_t>{0, 0, 1, 0}));
  // F3 = {L4,L1}: D4 backward duplicates L1 (cost 1).
  EXPECT_EQ(table.cost[2], (std::vector<std::size_t>{0, 0, 0, 1}));
  // F4 = {L1,L2}: D1 backward duplicates L2 (cost 1).
  EXPECT_EQ(table.cost[3], (std::vector<std::size_t>{1, 0, 0, 0}));
  EXPECT_EQ(table.combined, (std::vector<std::size_t>{2, 1, 1, 1}));
}

TEST(CostTest, BackwardBestBreak) {
  auto ex = testing::MakePaperExample();
  const auto best =
      FindDepToBreak(ex.design, PaperCycle(ex), BreakDirection::kBackward);
  EXPECT_EQ(best.cost, 1u);
  EXPECT_EQ(best.edge_pos, 1u);  // first minimum: D2
  EXPECT_EQ(best.direction, BreakDirection::kBackward);
}

TEST(CostTest, RotatedCycleGivesRotatedTable) {
  auto ex = testing::MakePaperExample();
  const CdgCycle rotated = {ex.c3, ex.c4, ex.c1, ex.c2};
  const auto table =
      ComputeCycleCostTable(ex.design, rotated, BreakDirection::kForward);
  // Column p of the rotated table is column (p+2) mod 4 of Table 1.
  EXPECT_EQ(table.combined, (std::vector<std::size_t>{1, 1, 1, 2}));
}

TEST(CostTest, FlowsTouchingOneVertexAreExcluded) {
  auto ex = testing::MakePaperExample();
  // Add a flow that uses only L2 (one cycle vertex): must not appear.
  const CoreId a = ex.design.traffic.AddCore("extra_src");
  const CoreId b = ex.design.traffic.AddCore("extra_dst");
  ex.design.attachment.push_back(SwitchId(1u));  // SW2
  ex.design.attachment.push_back(SwitchId(2u));  // SW3
  const FlowId f = ex.design.traffic.AddFlow(a, b, 10.0);
  ex.design.routes.Resize(ex.design.traffic.FlowCount());
  ex.design.routes.SetRoute(f, {ex.c2});
  ex.design.Validate();
  const auto table = ComputeCycleCostTable(ex.design, PaperCycle(ex),
                                           BreakDirection::kForward);
  EXPECT_EQ(table.flows.size(), 4u);  // still only F1..F4
}

TEST(CostTest, NonConsecutiveCycleVerticesCountTowardVal) {
  // Flow visits c1, leaves the cycle, re-enters at c3 and creates edge
  // (c3, c4): the duplication cost at D3 must be 2 (c1 and c3), matching
  // "all channels used by the flow in the cycle prior to the dependency".
  NocDesign d;
  std::vector<SwitchId> sw;
  for (int i = 0; i < 6; ++i) {
    sw.push_back(d.topology.AddSwitch());
  }
  // Cycle channels: ring sw0->sw1->sw2->sw3->sw0.
  const LinkId l01 = d.topology.AddLink(sw[0], sw[1]);
  const LinkId l12 = d.topology.AddLink(sw[1], sw[2]);
  const LinkId l23 = d.topology.AddLink(sw[2], sw[3]);
  const LinkId l30 = d.topology.AddLink(sw[3], sw[0]);
  // Detour: sw1 -> sw4 -> sw2 (off-cycle path between c1's head and c3's
  // tail... here between sw1 and sw2).
  const LinkId l14 = d.topology.AddLink(sw[1], sw[4]);
  const LinkId l42 = d.topology.AddLink(sw[4], sw[2]);
  const ChannelId c0 = *d.topology.FindChannel(l01, 0);
  const ChannelId c1 = *d.topology.FindChannel(l12, 0);
  const ChannelId c2 = *d.topology.FindChannel(l23, 0);
  const ChannelId c3 = *d.topology.FindChannel(l30, 0);
  const ChannelId det1 = *d.topology.FindChannel(l14, 0);
  const ChannelId det2 = *d.topology.FindChannel(l42, 0);

  // Ring-closing flows, one per edge.
  std::vector<FlowId> flows;
  std::vector<Route> routes;
  auto add_flow = [&](SwitchId s, SwitchId t, Route r) {
    const CoreId cs = d.traffic.AddCore();
    const CoreId ct = d.traffic.AddCore();
    d.attachment.push_back(s);
    d.attachment.push_back(t);
    flows.push_back(d.traffic.AddFlow(cs, ct, 1.0));
    routes.push_back(std::move(r));
  };
  add_flow(sw[0], sw[2], {c0, c1});
  add_flow(sw[1], sw[3], {c1, c2});
  add_flow(sw[2], sw[0], {c2, c3});
  add_flow(sw[3], sw[1], {c3, c0});
  // The detour flow: c0, (off-cycle det1, det2), c2, c3 — creates the
  // dependency (c2, c3) having used cycle vertex c0 earlier.
  add_flow(sw[0], sw[0], {c0, det1, det2, c2, c3});
  d.routes.Resize(d.traffic.FlowCount());
  for (std::size_t i = 0; i < routes.size(); ++i) {
    d.routes.SetRoute(flows[i], routes[i]);
  }
  d.Validate();

  const CdgCycle cycle = {c0, c1, c2, c3};
  const auto table =
      ComputeCycleCostTable(d, cycle, BreakDirection::kForward);
  // The detour flow is the 5th row; at edge D3 = (c2, c3) its val has
  // counted c0 and c2 -> cost 2 (and it also creates D1 = (c0, c1)? No:
  // after c0 it goes off-cycle).
  ASSERT_EQ(table.flows.size(), 5u);
  const auto& detour_row = table.cost[4];
  EXPECT_EQ(detour_row, (std::vector<std::size_t>{0, 0, 2, 0}));
}

TEST(CostTest, EmptyCycleThrows) {
  auto ex = testing::MakePaperExample();
  EXPECT_THROW(
      ComputeCycleCostTable(ex.design, {}, BreakDirection::kForward),
      InvalidModelError);
}

TEST(CostTest, CombinedIsMaxNotSum) {
  auto ex = testing::MakePaperExample();
  const auto table = ComputeCycleCostTable(ex.design, PaperCycle(ex),
                                           BreakDirection::kForward);
  // D1 is created by F1 (cost 1) and F4 (cost 1): combined must be 1.
  EXPECT_EQ(table.combined[0], 1u);
}

TEST(CostTest, CombinedCountsTheUnionOfNonNestedDuplicates) {
  // Ring sw0->sw1->sw2->sw3->sw0 (channels c0..c3) plus a detour
  // sw1->sw4->sw2. Two flows create D2 = (c2, c3) having entered the
  // cycle at different channels: a forward break at D2 moves one onto
  // duplicates of {c1, c2} and the other onto duplicates of {c0, c2}.
  // The duplicates are shared, so the break adds |{c0, c1, c2}| = 3 VCs,
  // more than either flow's own cost of 2.
  NocDesign d;
  std::vector<SwitchId> sw;
  for (int i = 0; i < 5; ++i) {
    sw.push_back(d.topology.AddSwitch());
  }
  const ChannelId c0 =
      d.topology.ChannelsOf(d.topology.AddLink(sw[0], sw[1])).front();
  const ChannelId c1 =
      d.topology.ChannelsOf(d.topology.AddLink(sw[1], sw[2])).front();
  const ChannelId c2 =
      d.topology.ChannelsOf(d.topology.AddLink(sw[2], sw[3])).front();
  const ChannelId c3 =
      d.topology.ChannelsOf(d.topology.AddLink(sw[3], sw[0])).front();
  const ChannelId det1 =
      d.topology.ChannelsOf(d.topology.AddLink(sw[1], sw[4])).front();
  const ChannelId det2 =
      d.topology.ChannelsOf(d.topology.AddLink(sw[4], sw[2])).front();

  std::vector<Route> routes;
  auto add_flow = [&](SwitchId s, SwitchId t, Route r) {
    const CoreId cs = d.traffic.AddCore();
    const CoreId ct = d.traffic.AddCore();
    d.attachment.push_back(s);
    d.attachment.push_back(t);
    d.traffic.AddFlow(cs, ct, 1.0);
    routes.push_back(std::move(r));
  };
  add_flow(sw[0], sw[2], {c0, c1});                  // F0: D0
  add_flow(sw[1], sw[3], {c1, c2});                  // F1: D1
  add_flow(sw[2], sw[0], {c2, c3});                  // F2: D2
  add_flow(sw[3], sw[1], {c3, c0});                  // F3: D3
  add_flow(sw[1], sw[0], {c1, c2, c3});              // F4: D1, D2
  add_flow(sw[0], sw[0], {c0, det1, det2, c2, c3});  // F5: D2
  d.routes.Resize(d.traffic.FlowCount());
  for (std::size_t i = 0; i < routes.size(); ++i) {
    d.routes.SetRoute(FlowId(i), routes[i]);
  }
  d.Validate();

  const CdgCycle cycle = {c0, c1, c2, c3};
  const auto fwd = ComputeCycleCostTable(d, cycle, BreakDirection::kForward);
  ASSERT_EQ(fwd.cost.size(), 6u);
  EXPECT_EQ(fwd.cost[4], (std::vector<std::size_t>{0, 1, 2, 0}));
  EXPECT_EQ(fwd.cost[5], (std::vector<std::size_t>{0, 0, 2, 0}));
  // Max over the rows would say 2 at D2.
  EXPECT_EQ(fwd.combined, (std::vector<std::size_t>{1, 1, 3, 1}));

  // Backward, D1 is created by F1 ({c2}) and F4 ({c3, c2}): nested sets,
  // where the union is the max.
  const auto bwd = ComputeCycleCostTable(d, cycle, BreakDirection::kBackward);
  EXPECT_EQ(bwd.combined, (std::vector<std::size_t>{1, 2, 1, 1}));

  // The prediction is what the break realizes.
  const BreakResult applied = BreakCycle(d, cycle, 2, BreakDirection::kForward);
  EXPECT_EQ(applied.added_channels.size(), fwd.combined[2]);
  EXPECT_EQ(applied.rerouted_flows,
            (std::vector<FlowId>{FlowId(2u), FlowId(4u), FlowId(5u)}));
  d.Validate();
}

// FindDepToBreak keeps no per-flow rows, so hold it to the table on every
// cycle a removal run picks: the regression corpus's benchmarks at its
// three switch counts and two tori, each broken as RemoveDeadlocks breaks
// it (smallest cycle first, the cheaper direction, forward on ties), with
// one CycleIndex for the whole run and the cycle's flow union as its
// candidates, while the table scans every flow.
TEST(CostTest, FindDepToBreakIsTheTablesFirstMinimumOnEveryPickedCycle) {
  std::vector<NocDesign> corpus;
  for (const SocBenchmarkId id : AllBenchmarkIds()) {
    const SocBenchmark benchmark = MakeBenchmark(id);
    for (const std::size_t switches : {10u, 14u, 18u}) {
      corpus.push_back(
          SynthesizeDesign(benchmark.traffic, benchmark.name, switches));
    }
  }
  for (const std::size_t side : {6u, 10u}) {
    gen::GeneratorSpec torus;
    torus.family = gen::TopologyFamily::kTorus2D;
    torus.width = torus.height = side;
    corpus.push_back(gen::GenerateStandardDesign(torus));
  }

  std::size_t cycles = 0;
  for (NocDesign& design : corpus) {
    CycleIndex index;
    while (true) {
      const ChannelDependencyGraph cdg = ChannelDependencyGraph::Build(design);
      const std::optional<CdgCycle> cycle =
          PickCycle(cdg, CyclePolicy::kSmallestFirst);
      if (!cycle) {
        break;
      }
      std::vector<FlowId> candidates;
      for (std::size_t p = 0; p < cycle->size(); ++p) {
        const auto edge =
            cdg.FindEdge((*cycle)[p], (*cycle)[(p + 1) % cycle->size()]);
        ASSERT_TRUE(edge.has_value());
        const std::vector<FlowId>& flows = cdg.EdgeAt(*edge).flows;
        candidates.insert(candidates.end(), flows.begin(), flows.end());
      }
      std::sort(candidates.begin(), candidates.end());
      candidates.erase(std::unique(candidates.begin(), candidates.end()),
                       candidates.end());

      BreakCandidate picked[2];
      for (const BreakDirection direction :
           {BreakDirection::kForward, BreakDirection::kBackward}) {
        const std::vector<std::size_t> combined =
            ComputeCycleCostTable(design, *cycle, direction).combined;
        BreakCandidate expected;
        for (std::size_t p = 0; p < combined.size(); ++p) {
          if (combined[p] != 0 && combined[p] < expected.cost) {
            expected.cost = combined[p];
            expected.edge_pos = p;
          }
        }
        const BreakCandidate found =
            FindDepToBreak(design, *cycle, direction, &candidates, &index);
        EXPECT_EQ(found.cost, expected.cost) << design.name;
        EXPECT_EQ(found.edge_pos, expected.edge_pos) << design.name;
        EXPECT_EQ(found.direction, direction) << design.name;
        picked[direction == BreakDirection::kForward ? 0 : 1] = found;
      }
      const BreakCandidate& chosen =
          picked[0].cost <= picked[1].cost ? picked[0] : picked[1];
      BreakCycle(design, *cycle, chosen.edge_pos, chosen.direction,
                 DuplicationMode::kVirtualChannel, &candidates, &index);
      ++cycles;
    }
  }
  EXPECT_GE(cycles, 72u);
}

}  // namespace
}  // namespace nocdr
