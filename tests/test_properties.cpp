// Property-based suites: invariants that must hold on randomized inputs.
#include <gtest/gtest.h>

#include "cdg/cdg.h"
#include "cdg/cycle.h"
#include "deadlock/removal.h"
#include "deadlock/resource_ordering.h"
#include "gen/generators.h"
#include "sim/simulator.h"
#include "test_helpers.h"

namespace nocdr {
namespace {

class RandomDesignProperty : public ::testing::TestWithParam<std::uint64_t> {
 protected:
  NocDesign MakeDesign() const {
    const std::uint64_t seed = GetParam();
    // Vary the shape with the seed so the sweep covers different sizes.
    const std::size_t switches = 5 + seed % 7;
    const std::size_t cores = switches + 4 + seed % 5;
    const std::size_t flows = 2 * cores + seed % 11;
    return testing::MakeRandomDesign(seed, switches, cores, flows);
  }
};

TEST_P(RandomDesignProperty, RemovalYieldsAcyclicValidDesign) {
  auto d = MakeDesign();
  const auto report = RemoveDeadlocks(d);
  EXPECT_TRUE(IsDeadlockFree(d));
  EXPECT_NO_THROW(d.Validate());
  EXPECT_EQ(d.topology.ExtraVcCount(), report.vcs_added);
}

TEST_P(RandomDesignProperty, RemovalPreservesPhysicalPaths) {
  auto d = MakeDesign();
  std::vector<std::vector<LinkId>> before;
  for (std::size_t fi = 0; fi < d.traffic.FlowCount(); ++fi) {
    std::vector<LinkId> links;
    for (ChannelId c : d.routes.RouteOf(FlowId(fi))) {
      links.push_back(d.topology.ChannelAt(c).link);
    }
    before.push_back(std::move(links));
  }
  RemoveDeadlocks(d);
  for (std::size_t fi = 0; fi < d.traffic.FlowCount(); ++fi) {
    const Route& route = d.routes.RouteOf(FlowId(fi));
    ASSERT_EQ(route.size(), before[fi].size());
    for (std::size_t h = 0; h < route.size(); ++h) {
      EXPECT_EQ(d.topology.ChannelAt(route[h]).link, before[fi][h]);
    }
  }
}

TEST_P(RandomDesignProperty, ResourceOrderingYieldsAcyclicValidDesign) {
  auto d = MakeDesign();
  ApplyResourceOrdering(d);
  EXPECT_TRUE(IsDeadlockFree(d));
  EXPECT_NO_THROW(d.Validate());
}

TEST_P(RandomDesignProperty, RemovalNeverAddsMoreVcsThanOrdering) {
  // Not a theorem in general, but it holds across this entire randomized
  // corpus and is the paper's empirical headline; a failure here flags a
  // real regression in the cost heuristic.
  auto removal_design = MakeDesign();
  auto ordering_design = removal_design;
  const auto removal = RemoveDeadlocks(removal_design);
  const auto ordering = ApplyResourceOrdering(ordering_design);
  EXPECT_LE(removal.vcs_added, ordering.vcs_added);
}

TEST_P(RandomDesignProperty, RemovedDesignSurvivesStressSimulation) {
  auto d = MakeDesign();
  RemoveDeadlocks(d);
  SimConfig cfg;
  cfg.traffic.packets_per_flow = 2;
  cfg.traffic.packet_length = 6;
  cfg.buffer_depth = 2;
  cfg.max_cycles = 200000;
  cfg.stall_threshold = 2000;
  const auto result = SimulateWorkload(d, cfg);
  EXPECT_FALSE(result.deadlocked);
  EXPECT_TRUE(result.AllDelivered());
}

TEST_P(RandomDesignProperty, CdgEdgesComeFromConsecutiveRoutePairs) {
  const auto d = MakeDesign();
  const auto cdg = ChannelDependencyGraph::Build(d);
  for (const CdgEdge& e : cdg.Edges()) {
    EXPECT_FALSE(e.flows.empty());
    for (FlowId f : e.flows) {
      const Route& route = d.routes.RouteOf(f);
      bool found = false;
      for (std::size_t h = 0; h + 1 < route.size(); ++h) {
        if (route[h] == e.from && route[h + 1] == e.to) {
          found = true;
          break;
        }
      }
      EXPECT_TRUE(found) << "edge not backed by its flow";
    }
  }
}

TEST_P(RandomDesignProperty, SmallestCycleIsMinimalAmongPerVertexCycles) {
  const auto d = MakeDesign();
  const auto cdg = ChannelDependencyGraph::Build(d);
  const auto smallest = SmallestCycle(cdg);
  if (!smallest.has_value()) {
    EXPECT_TRUE(IsAcyclic(cdg));
    return;
  }
  for (std::size_t v = 0; v < cdg.VertexCount(); ++v) {
    const auto through = ShortestCycleThrough(cdg, ChannelId(v));
    if (through) {
      EXPECT_LE(smallest->size(), through->size());
    }
  }
}

TEST_P(RandomDesignProperty, AcyclicityIsConsistentWithCycleSearch) {
  const auto d = MakeDesign();
  const auto cdg = ChannelDependencyGraph::Build(d);
  EXPECT_EQ(IsAcyclic(cdg), !SmallestCycle(cdg).has_value());
  EXPECT_EQ(IsAcyclic(cdg), !FirstCycle(cdg).has_value());
}

INSTANTIATE_TEST_SUITE_P(Seeds, RandomDesignProperty,
                         ::testing::Range<std::uint64_t>(1, 26));

class RingProperty
    : public ::testing::TestWithParam<std::tuple<std::size_t, std::size_t>> {};

TEST_P(RingProperty, RemovalFixesEveryRing) {
  const auto [n, span] = GetParam();
  if (span >= n) {
    GTEST_SKIP();
  }
  auto d = gen::UnidirectionalRing(n, span);
  const auto report = RemoveDeadlocks(d);
  EXPECT_TRUE(IsDeadlockFree(d));
  EXPECT_GT(report.vcs_added, 0u);  // a ring CDG always has the big cycle
  d.Validate();
}

INSTANTIATE_TEST_SUITE_P(Rings, RingProperty,
                         ::testing::Combine(::testing::Values(3u, 4u, 5u,
                                                              6u, 8u, 10u),
                                            ::testing::Values(2u, 3u, 4u)));

}  // namespace
}  // namespace nocdr
