// Unit tests for congestion-aware route construction and the next-hop
// table walkers.
#include "synth/route_builder.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <span>

#include "gen/generators.h"
#include "soc/benchmarks.h"
#include "synth/partition.h"
#include "synth/synthesizer.h"
#include "synth/topology_builder.h"
#include "test_helpers.h"
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

LinkId Entry(const NextHopTable& table, std::size_t s, std::size_t d) {
  return table.Column(SwitchId(d))[s];
}

void SetEntry(NextHopTable& table, std::size_t s, std::size_t d, LinkId l) {
  table.MutableColumn(SwitchId(d))[s] = l;
}

bool Failed(const std::vector<char>& mask, std::size_t i) {
  return !mask.empty() && mask[i] != 0;
}

/// True when \p l is unusable under the masks: failed itself, or an
/// endpoint switch failed.
bool NaiveLinkDown(const TopologyGraph& topology, LinkId l,
                   const std::vector<char>& failed_links,
                   const std::vector<char>& failed_switches) {
  const Link& link = topology.LinkAt(l);
  return Failed(failed_links, l.value()) ||
         Failed(failed_switches, link.src.value()) ||
         Failed(failed_switches, link.dst.value());
}

/// One pair's walk followed on its own, with no memo: false on a hole, a
/// failed switch or link under the masks, or after more than n hops (a
/// routing loop). \p visited receives every switch the walk leaves from.
bool NaiveWalkArrives(const TopologyGraph& topology, const NextHopTable& table,
                      std::size_t s, std::size_t d,
                      std::vector<std::size_t>& visited,
                      const std::vector<char>& failed_links = {},
                      const std::vector<char>& failed_switches = {}) {
  visited.clear();
  for (std::size_t cur = s; cur != d;) {
    visited.push_back(cur);
    const LinkId l = Entry(table, cur, d);
    if (!l.valid() || visited.size() > topology.SwitchCount() ||
        Failed(failed_switches, cur) ||
        NaiveLinkDown(topology, l, failed_links, failed_switches)) {
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
      if (s != d && Entry(table, s, d).valid() &&
          !NaiveWalkArrives(topology, table, s, d, visited)) {
        return false;
      }
    }
  }
  return true;
}

/// The reference for one PatchNextHopTable round, pair by pair: every
/// switch on a filled pair's broken walk is re-aimed at the first link of
/// a shortest surviving path to the destination (backward BFS, in-links
/// in ascending id order), or cleared when it failed or has no path
/// (then counted in \p disconnected); every column toward a failed
/// switch is cleared.
NextHopTable NaivePatch(const TopologyGraph& topology, NextHopTable table,
                        const std::vector<char>& failed_links,
                        const std::vector<char>& failed_switches,
                        std::size_t& disconnected) {
  const std::size_t n = topology.SwitchCount();
  std::vector<std::size_t> visited;
  disconnected = 0;
  for (std::size_t d = 0; d < n; ++d) {
    if (Failed(failed_switches, d)) {
      for (std::size_t s = 0; s < n; ++s) {
        SetEntry(table, s, d, LinkId());
      }
      continue;
    }
    std::vector<char> broken(n, 0);
    for (std::size_t s = 0; s < n; ++s) {
      if (s != d && Entry(table, s, d).valid() &&
          !NaiveWalkArrives(topology, table, s, d, visited, failed_links,
                            failed_switches)) {
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
        if (!seen[u] &&
            !NaiveLinkDown(topology, l, failed_links, failed_switches)) {
          seen[u] = 1;
          via[u] = l;
          queue.push_back(u);
        }
      }
    }
    for (std::size_t s = 0; s < n; ++s) {
      if (!broken[s]) {
        continue;
      }
      if (!Failed(failed_switches, s) && !seen[s]) {
        ++disconnected;
      }
      SetEntry(table, s, d, Failed(failed_switches, s) ? LinkId() : via[s]);
    }
  }
  return table;
}

/// The four families at sizes small enough for pair-by-pair references.
std::vector<gen::GeneratorSpec> SmallFamilies() {
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
  return specs;
}

TEST(NextHopTableTest, WalkClassifierMatchesPerPairWalksOnMutatedTables) {
  // Clearing entries leaves holes on other sources' walks; re-pointing an
  // entry at another out-link of its switch makes loops, often entered
  // mid-chain or joined by a walk the classifier has already followed.
  // Both users of the memoized classifier are held to per-pair walks:
  // the validator, and the patch with nothing failed and under a failed
  // link or switch.
  const std::vector<gen::GeneratorSpec> specs = SmallFamilies();
  std::size_t sound = 0;
  std::size_t unsound = 0;
  std::size_t disconnecting = 0;
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
          SetEntry(table, s, d, LinkId());
        } else {
          const auto& out = topology.OutLinks(SwitchId(s));
          SetEntry(table, s, d, out[rng.NextBelow(out.size())]);
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
      std::size_t expected = 0;
      NextHopTable patched = table;
      EXPECT_EQ(PatchNextHopTable(topology, patched, {}, {}), 0u) << where;
      EXPECT_TRUE(patched == NaivePatch(topology, table, {}, {}, expected))
          << where;

      std::vector<char> failed_links(topology.LinkCount(), 0);
      std::vector<char> failed_switches(n, 0);
      if (rng.NextBool(0.5)) {
        failed_links[rng.NextBelow(failed_links.size())] = 1;
      } else {
        failed_switches[rng.NextBelow(n)] = 1;
      }
      patched = table;
      const std::size_t disconnected =
          PatchNextHopTable(topology, patched, failed_links, failed_switches);
      EXPECT_TRUE(patched == NaivePatch(topology, table, failed_links,
                                        failed_switches, expected))
          << where;
      EXPECT_EQ(disconnected, expected) << where;
      disconnecting += disconnected > 0 ? 1 : 0;
    }
  }
  // Both verdicts, and disconnecting failures, must be well exercised.
  EXPECT_GT(sound, 100u);
  EXPECT_GT(unsound, 100u);
  EXPECT_GT(disconnecting, 20u);
}

TEST(NextHopTableTest, LazyColumnsMatchTheEagerlyPatchedTable) {
  // Two schedules of the same rounds: the eager table patches every
  // column in every round (PatchNextHopTable), the lazy one journals
  // each round and replays a column's pending rounds only when it is
  // read. Masks grow by links and switches, some of which disconnect
  // pairs; every eager round is also held to the pair-by-pair reference.
  // The lazy side starts from the family's rule with nothing stored; the
  // eager side from the same rule, then from the pair-by-pair reference
  // table, fully stored.
  std::size_t reads = 0;
  std::size_t disconnecting_plans = 0;
  for (const gen::GeneratorSpec& spec : SmallFamilies()) {
    const auto topo = gen::BuildFamilyTopology(spec);
    const TopologyGraph& topology = topo.topology;
    const std::size_t n = topology.SwitchCount();
    const NextHopTable reference = testing::ReferenceTable(spec);
    Rng rng(7);
    for (std::size_t plan = 0; plan < 60; ++plan) {
      NextHopTable eager = plan < 30 ? topo.table : reference;
      NextHopTable lazy = topo.table;
      std::vector<char> failed_links(topology.LinkCount(), 0);
      std::vector<char> failed_switches(n, 0);
      std::size_t eager_disconnected = 0;
      std::size_t lazy_disconnected = 0;
      for (std::size_t round = 0; round < 5; ++round) {
        const std::string where = gen::FamilyShapeName(spec) + " plan " +
                                  std::to_string(plan) + " round " +
                                  std::to_string(round);
        if (rng.NextBool(0.2)) {
          failed_switches[rng.NextBelow(n)] = 1;
        } else {
          failed_links[rng.NextBelow(failed_links.size())] = 1;
        }
        std::size_t expected = 0;
        const NextHopTable reference = NaivePatch(
            topology, eager, failed_links, failed_switches, expected);
        const std::size_t disconnected = PatchNextHopTable(
            topology, eager, failed_links, failed_switches);
        EXPECT_TRUE(eager == reference) << where;
        EXPECT_EQ(disconnected, expected) << where;
        eager_disconnected += disconnected;

        lazy.JournalRound(topology, failed_links, failed_switches);
        for (std::size_t k = rng.NextBelow(4); k > 0; --k) {
          const SwitchId d(rng.NextBelow(n));
          lazy_disconnected += lazy.Refresh(topology, {&d, 1}).disconnected;
          EXPECT_EQ(lazy.PendingRounds(d), 0u) << where;
          EXPECT_TRUE(lazy.Column(d) == eager.Column(d))
              << where << " column " << d.value();
          ++reads;
        }
      }
      const TableRefresh flush = lazy.Flush(topology);
      lazy_disconnected += flush.disconnected;
      EXPECT_LE(flush.columns, n);
      EXPECT_EQ(lazy.StoredColumns(), n);
      EXPECT_TRUE(lazy == eager) << gen::FamilyShapeName(spec);
      EXPECT_EQ(lazy_disconnected, eager_disconnected)
          << gen::FamilyShapeName(spec);
      disconnecting_plans += eager_disconnected > 0 ? 1 : 0;
    }
  }
  EXPECT_GT(reads, 600u);
  EXPECT_GT(disconnecting_plans, 40u);
}

TEST(NextHopTableTest, StaleReadsAndUnfailingRoundsThrow) {
  gen::GeneratorSpec spec;
  spec.family = gen::TopologyFamily::kRing;
  spec.ring_nodes = 6;
  const auto topo = gen::BuildFamilyTopology(spec);
  const TopologyGraph& topology = topo.topology;
  NextHopTable table = topo.table;
  std::vector<char> failed_links(topology.LinkCount(), 0);
  failed_links[0] = 1;
  table.JournalRound(topology, failed_links, {});
  EXPECT_EQ(table.Rounds(), 1u);
  EXPECT_EQ(table.PendingRounds(SwitchId(3)), 1u);

  // Every read of a column with a pending round throws.
  EXPECT_THROW((void)table.Column(SwitchId(3)), InvalidModelError);
  EXPECT_THROW((void)table.MutableColumn(SwitchId(3)), InvalidModelError);
  EXPECT_THROW(WalkTableRoute(topology, table, SwitchId(1), SwitchId(3)),
               InvalidModelError);
  EXPECT_THROW(ValidateNextHopTable(topology, table), InvalidModelError);
  EXPECT_THROW((void)(table == topo.table), InvalidModelError);
  EXPECT_THROW((void)(topo.table == table), InvalidModelError);

  // A refreshed column reads; the others still throw.
  const SwitchId three(3);
  const TableRefresh refresh = table.Refresh(topology, {&three, 1});
  EXPECT_EQ(refresh.columns, 1u);
  EXPECT_EQ(refresh.column_rounds, 1u);
  EXPECT_EQ(table.StoredColumns(), 1u);
  EXPECT_TRUE(WalkTableRoute(topology, table, SwitchId(1), three));
  EXPECT_THROW(WalkTableRoute(topology, table, SwitchId(1), SwitchId(4)),
               InvalidModelError);
  EXPECT_EQ(table.Refresh(topology, {&three, 1}).columns, 0u);

  // Failures only accumulate: a round that un-fails an element throws
  // and records nothing.
  EXPECT_THROW(table.JournalRound(topology, {}, {}), InvalidModelError);
  EXPECT_THROW(PatchNextHopTable(topology, table,
                                 std::vector<char>(topology.LinkCount(), 0),
                                 {}),
               InvalidModelError);
  std::vector<char> failed_switches(topology.SwitchCount(), 0);
  failed_switches[5] = 1;
  table.JournalRound(topology, failed_links, failed_switches);
  EXPECT_EQ(table.Rounds(), 2u);
  EXPECT_THROW(table.JournalRound(topology, failed_links, {}),
               InvalidModelError);
  EXPECT_EQ(table.Rounds(), 2u);
  EXPECT_EQ(table.PendingRounds(three), 1u);
  EXPECT_EQ(table.PendingRounds(SwitchId(4)), 2u);
  // A stored column with a pending round throws like an unstored one.
  EXPECT_THROW((void)table.Column(three), InvalidModelError);
  EXPECT_THROW(WalkTableRoute(topology, table, SwitchId(1), three),
               InvalidModelError);

  const TableRefresh flush = table.Flush(topology);
  EXPECT_EQ(flush.columns, 6u);
  EXPECT_EQ(flush.column_rounds, 11u);
  EXPECT_EQ(table.StoredColumns(), 6u);
  EXPECT_NO_THROW(ValidateNextHopTable(topology, table));
}

TEST(NextHopTableTest, EntryNamingNoLinkThrowsInThePatch) {
  // The patch follows entries without the validator's checks; an entry
  // past the link array must throw, not index the journal with it.
  gen::GeneratorSpec spec;
  spec.family = gen::TopologyFamily::kRing;
  spec.ring_nodes = 6;
  const auto topo = gen::BuildFamilyTopology(spec);
  NextHopTable table = topo.table;
  table.MutableColumn(SwitchId(3))[0] = LinkId(1000000);
  std::vector<char> failed_links(topo.topology.LinkCount(), 0);
  failed_links[5] = 1;
  EXPECT_THROW(PatchNextHopTable(topo.topology, table, failed_links, {}),
               InvalidModelError);
}

TEST(NextHopTableTest, TableSizedForAnotherSwitchCountThrows) {
  // Every entry point checks the table's switch count against the
  // topology's before it reads an entry.
  gen::GeneratorSpec spec;
  spec.family = gen::TopologyFamily::kRing;
  spec.ring_nodes = 4;
  const auto topo = gen::BuildFamilyTopology(spec);
  spec.ring_nodes = 5;
  const NextHopTable other = gen::BuildFamilyTopology(spec).table;
  CommunicationGraph traffic;
  std::vector<SwitchId> attachment;
  for (std::size_t s = 0; s < 4; ++s) {
    traffic.AddCore();
    attachment.push_back(SwitchId(s));
  }
  traffic.AddFlow(CoreId(3u), CoreId(1u), 10.0);
  for (const NextHopTable& wrong : {other, NextHopTable()}) {
    EXPECT_THROW(ValidateNextHopTable(topo.topology, wrong),
                 InvalidModelError);
    EXPECT_THROW(WalkTableRoute(topo.topology, wrong, SwitchId(3), SwitchId(1)),
                 InvalidModelError);
    EXPECT_THROW(BuildTableRoutes(topo.topology, traffic, attachment, wrong),
                 InvalidModelError);
    NextHopTable patched = wrong;
    EXPECT_THROW(PatchNextHopTable(topo.topology, patched, {}, {}),
                 InvalidModelError);
    EXPECT_THROW(patched.JournalRound(topo.topology, {}, {}),
                 InvalidModelError);
    EXPECT_THROW(patched.Flush(topo.topology), InvalidModelError);
    EXPECT_EQ(patched.Rounds(), 0u);
  }
  EXPECT_FALSE(other == topo.table);
}

}  // namespace
}  // namespace nocdr
