// Unit tests for congestion-aware route construction and the next-hop
// table walkers.
#include "synth/route_builder.h"

#include <gtest/gtest.h>

#include "gen/generators.h"
#include "soc/benchmarks.h"
#include "synth/partition.h"
#include "synth/synthesizer.h"
#include "synth/topology_builder.h"
#include "util/error.h"
#include "util/rng.h"

namespace nocdr {
namespace {

/// Small diamond: a -> {b, c} -> d lets traffic split.
struct Diamond {
  TopologyGraph topo;
  SwitchId a, b, c, d;
};

Diamond MakeDiamond() {
  Diamond dm;
  dm.a = dm.topo.AddSwitch("a");
  dm.b = dm.topo.AddSwitch("b");
  dm.c = dm.topo.AddSwitch("c");
  dm.d = dm.topo.AddSwitch("d");
  dm.topo.AddLink(dm.a, dm.b);
  dm.topo.AddLink(dm.b, dm.d);
  dm.topo.AddLink(dm.a, dm.c);
  dm.topo.AddLink(dm.c, dm.d);
  return dm;
}

TEST(RouteBuilderTest, ShortestPathWhenUncongested) {
  Diamond dm = MakeDiamond();
  // Extra 3-hop detour a->b->c->d would never win.
  dm.topo.AddLink(dm.b, dm.c);
  CommunicationGraph g;
  const CoreId x = g.AddCore(), y = g.AddCore();
  g.AddFlow(x, y, 10.0);
  const std::vector<SwitchId> attachment = {dm.a, dm.d};
  const auto routes = BuildRoutes(dm.topo, g, attachment);
  EXPECT_EQ(routes.RouteOf(FlowId(0u)).size(), 2u);
}

TEST(RouteBuilderTest, CongestionSplitsHeavyTraffic) {
  Diamond dm = MakeDiamond();
  CommunicationGraph g;
  const CoreId x = g.AddCore(), y = g.AddCore();
  // Two very heavy parallel flows: with load-aware weights the second
  // must take the other branch of the diamond.
  g.AddFlow(x, y, 2000.0);
  g.AddFlow(x, y, 2000.0);
  const std::vector<SwitchId> attachment = {dm.a, dm.d};
  RouteBuildOptions options;
  options.congestion_weight = 4.0;
  options.link_capacity_mbps = 1000.0;
  const auto routes = BuildRoutes(dm.topo, g, attachment, options);
  const Route& r0 = routes.RouteOf(FlowId(0u));
  const Route& r1 = routes.RouteOf(FlowId(1u));
  ASSERT_EQ(r0.size(), 2u);
  ASSERT_EQ(r1.size(), 2u);
  EXPECT_NE(r0[0], r1[0]) << "both flows took the same branch";
}

TEST(RouteBuilderTest, ZeroCongestionWeightIgnoresLoad) {
  Diamond dm = MakeDiamond();
  CommunicationGraph g;
  const CoreId x = g.AddCore(), y = g.AddCore();
  g.AddFlow(x, y, 2000.0);
  g.AddFlow(x, y, 2000.0);
  const std::vector<SwitchId> attachment = {dm.a, dm.d};
  RouteBuildOptions options;
  options.congestion_weight = 0.0;
  const auto routes = BuildRoutes(dm.topo, g, attachment, options);
  // Pure shortest path with deterministic tie-break: identical routes.
  EXPECT_EQ(routes.RouteOf(FlowId(0u)), routes.RouteOf(FlowId(1u)));
}

TEST(RouteBuilderTest, IntraSwitchFlowsGetEmptyRoutes) {
  Diamond dm = MakeDiamond();
  CommunicationGraph g;
  const CoreId x = g.AddCore(), y = g.AddCore();
  g.AddFlow(x, y, 50.0);
  const std::vector<SwitchId> attachment = {dm.a, dm.a};
  const auto routes = BuildRoutes(dm.topo, g, attachment);
  EXPECT_TRUE(routes.RouteOf(FlowId(0u)).empty());
}

TEST(RouteBuilderTest, DisconnectedThrows) {
  TopologyGraph t;
  const SwitchId a = t.AddSwitch(), b = t.AddSwitch();
  (void)b;
  CommunicationGraph g;
  const CoreId x = g.AddCore(), y = g.AddCore();
  g.AddFlow(x, y, 1.0);
  const std::vector<SwitchId> attachment = {a, SwitchId(1u)};
  EXPECT_THROW(BuildRoutes(t, g, attachment), InvalidModelError);
}

TEST(RouteBuilderTest, AllRoutesValidateOnSynthesizedTopologies) {
  for (auto id : AllBenchmarkIds()) {
    const auto b = MakeBenchmark(id);
    const auto design = SynthesizeDesign(b.traffic, b.name, 10);
    EXPECT_NO_THROW(design.Validate()) << b.name;
  }
}

TEST(RouteBuilderTest, RoutesUseOnlyVcZero) {
  const auto b = MakeBenchmark(SocBenchmarkId::kD36_6);
  const auto design = SynthesizeDesign(b.traffic, b.name, 12);
  for (std::size_t fi = 0; fi < design.traffic.FlowCount(); ++fi) {
    for (ChannelId c : design.routes.RouteOf(FlowId(fi))) {
      EXPECT_EQ(design.topology.ChannelAt(c).vc, 0u);
    }
  }
}

// ------------------------------------------------------- next-hop tables

/// One pair's walk followed on its own, with no memo: false on a hole or
/// after more than n hops (a routing loop). \p visited receives every
/// switch the walk leaves from.
bool NaiveWalkArrives(const TopologyGraph& topology, const NextHopTable& table,
                      std::size_t s, std::size_t d,
                      std::vector<std::size_t>& visited) {
  visited.clear();
  for (std::size_t cur = s; cur != d;) {
    visited.push_back(cur);
    const LinkId l = table[cur][d];
    if (!l.valid() || visited.size() > topology.SwitchCount()) {
      return false;
    }
    cur = topology.LinkAt(l).dst.value();
  }
  return true;
}

/// The reference for ValidateNextHopTable's walk check.
bool EveryFilledWalkArrives(const TopologyGraph& topology,
                            const NextHopTable& table) {
  const std::size_t n = topology.SwitchCount();
  std::vector<std::size_t> visited;
  for (std::size_t s = 0; s < n; ++s) {
    for (std::size_t d = 0; d < n; ++d) {
      if (s != d && table[s][d].valid() &&
          !NaiveWalkArrives(topology, table, s, d, visited)) {
        return false;
      }
    }
  }
  return true;
}

/// The reference for PatchNextHopTable with nothing failed on a strongly
/// connected topology: every switch on a filled pair's broken walk is
/// re-aimed at the first link of a shortest path to the destination
/// (backward BFS, in-links in ascending id order).
NextHopTable NaivePatch(const TopologyGraph& topology, NextHopTable table) {
  const std::size_t n = topology.SwitchCount();
  std::vector<std::size_t> visited;
  for (std::size_t d = 0; d < n; ++d) {
    std::vector<char> broken(n, 0);
    for (std::size_t s = 0; s < n; ++s) {
      if (s != d && table[s][d].valid() &&
          !NaiveWalkArrives(topology, table, s, d, visited)) {
        for (const std::size_t v : visited) {
          broken[v] = 1;
        }
      }
    }
    std::vector<LinkId> via(n);
    std::vector<char> seen(n, 0);
    std::vector<std::size_t> queue = {d};
    seen[d] = 1;
    for (std::size_t head = 0; head < queue.size(); ++head) {
      for (const LinkId l : topology.InLinks(SwitchId(queue[head]))) {
        const std::size_t u = topology.LinkAt(l).src.value();
        if (!seen[u]) {
          seen[u] = 1;
          via[u] = l;
          queue.push_back(u);
        }
      }
    }
    for (std::size_t s = 0; s < n; ++s) {
      if (broken[s]) {
        table[s][d] = via[s];
      }
    }
  }
  return table;
}

TEST(NextHopTableTest, WalkClassifierMatchesPerPairWalksOnMutatedTables) {
  // Clearing entries leaves holes on other sources' walks; re-pointing an
  // entry at another out-link of its switch makes loops, often entered
  // mid-chain or joined by a walk the classifier has already followed.
  // Both users of the memoized classifier are held to per-pair walks.
  std::vector<gen::GeneratorSpec> specs(4);
  specs[0].family = gen::TopologyFamily::kMesh2D;
  specs[0].width = 4;
  specs[0].height = 3;
  specs[1].family = gen::TopologyFamily::kTorus2D;
  specs[1].width = 4;
  specs[1].height = 3;
  specs[2].family = gen::TopologyFamily::kRing;
  specs[2].ring_nodes = 7;
  specs[3].family = gen::TopologyFamily::kFatTree;
  specs[3].tree_arity = 2;
  specs[3].tree_levels = 3;
  specs[3].tree_uplinks = 2;
  std::size_t sound = 0;
  std::size_t unsound = 0;
  for (std::size_t i = 0; i < specs.size(); ++i) {
    const auto topo = gen::BuildFamilyTopology(specs[i]);
    const TopologyGraph& topology = topo.topology;
    const std::size_t n = topology.SwitchCount();
    Rng rng(100 + i);
    for (std::size_t trial = 0; trial < 200; ++trial) {
      NextHopTable table = topo.table;
      const std::size_t edits = 1 + rng.NextBelow(4);
      for (std::size_t e = 0; e < edits; ++e) {
        const std::size_t s = rng.NextBelow(n);
        const std::size_t d = (s + 1 + rng.NextBelow(n - 1)) % n;
        if (rng.NextBool(0.5)) {
          table[s][d] = LinkId();
        } else {
          const auto& out = topology.OutLinks(SwitchId(s));
          table[s][d] = out[rng.NextBelow(out.size())];
        }
      }
      const std::string where = gen::FamilyShapeName(specs[i]) +
                                " trial " + std::to_string(trial);
      if (EveryFilledWalkArrives(topology, table)) {
        ++sound;
        EXPECT_NO_THROW(ValidateNextHopTable(topology, table)) << where;
      } else {
        ++unsound;
        EXPECT_THROW(ValidateNextHopTable(topology, table), InvalidModelError)
            << where;
      }
      NextHopTable patched = table;
      EXPECT_EQ(PatchNextHopTable(topology, patched, {}, {}), 0u) << where;
      EXPECT_TRUE(patched == NaivePatch(topology, table)) << where;
    }
  }
  // Both verdicts must be well exercised.
  EXPECT_GT(sound, 100u);
  EXPECT_GT(unsound, 100u);
}

TEST(NextHopTableTest, RaggedTableThrows) {
  gen::GeneratorSpec spec;
  spec.family = gen::TopologyFamily::kRing;
  spec.ring_nodes = 4;
  const auto topo = gen::BuildFamilyTopology(spec);
  NextHopTable ragged = topo.table;
  // A fresh one-entry row, so a sanitizer sees any read past it; a
  // resize would keep the old capacity and hide such a read.
  ragged[3] = std::vector<LinkId>(1);
  EXPECT_THROW(ValidateNextHopTable(topo.topology, ragged), InvalidModelError);
  NextHopTable patched = ragged;
  EXPECT_THROW(PatchNextHopTable(topo.topology, patched, {}, {}),
               InvalidModelError);
  CommunicationGraph traffic;
  std::vector<SwitchId> attachment;
  for (std::size_t s = 0; s < 4; ++s) {
    traffic.AddCore();
    attachment.push_back(SwitchId(s));
  }
  traffic.AddFlow(CoreId(3u), CoreId(1u), 10.0);
  EXPECT_THROW(BuildTableRoutes(topo.topology, traffic, attachment, ragged),
               InvalidModelError);
}

}  // namespace
}  // namespace nocdr
