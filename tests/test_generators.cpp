// Standard-topology generators: structural invariants per family,
// routing-table completeness/minimality, each family's routing rule
// against the pair-by-pair reference table, deadlock character of the
// classical policies, and byte-identical determinism.
#include <gtest/gtest.h>

#include <algorithm>
#include <cstdlib>
#include <span>

#include "deadlock/removal.h"
#include "gen/generators.h"
#include "noc/io.h"
#include "test_helpers.h"
#include "util/error.h"

namespace nocdr {
namespace {

using gen::GeneratorSpec;
using gen::TopologyFamily;
using gen::TrafficPattern;

std::size_t ManhattanMesh(std::size_t a, std::size_t b, std::size_t w) {
  const auto dist = [](std::size_t p, std::size_t q) {
    return p > q ? p - q : q - p;
  };
  return dist(a % w, b % w) + dist(a / w, b / w);
}

std::size_t WrappedDist(std::size_t p, std::size_t q, std::size_t extent) {
  const std::size_t forward = (q + extent - p) % extent;
  return std::min(forward, extent - forward);
}

TEST(GeneratorNamesTest, FamilyAndPatternRoundTrip) {
  for (const TopologyFamily family : gen::AllFamilies()) {
    const auto parsed = gen::ParseFamily(gen::FamilyName(family));
    ASSERT_TRUE(parsed.has_value()) << gen::FamilyName(family);
    EXPECT_EQ(*parsed, family);
  }
  for (const TrafficPattern pattern : gen::AllPatterns()) {
    const auto parsed = gen::ParsePattern(gen::PatternName(pattern));
    ASSERT_TRUE(parsed.has_value()) << gen::PatternName(pattern);
    EXPECT_EQ(*parsed, pattern);
  }
  EXPECT_FALSE(gen::ParseFamily("hypercube").has_value());
  EXPECT_FALSE(gen::ParsePattern("tornado").has_value());
}

TEST(MeshGeneratorTest, StructureAndBidirectionality) {
  GeneratorSpec spec;
  spec.family = TopologyFamily::kMesh2D;
  spec.width = 5;
  spec.height = 4;
  const auto topo = gen::BuildFamilyTopology(spec);
  EXPECT_EQ(topo.topology.SwitchCount(), 20u);
  // 2 directed links per grid edge: W*(H-1) vertical + H*(W-1) horizontal.
  EXPECT_EQ(topo.topology.LinkCount(), 2 * (5 * 3 + 4 * 4));
  EXPECT_EQ(topo.core_switches.size(), 20u);
  for (std::size_t l = 0; l < topo.topology.LinkCount(); ++l) {
    const Link& link = topo.topology.LinkAt(LinkId(l));
    EXPECT_TRUE(topo.topology.FindLink(link.dst, link.src).has_value())
        << "missing reverse of link " << l;
  }
}

TEST(MeshGeneratorTest, XyRoutesAreMinimalAndDorShaped) {
  GeneratorSpec spec;
  spec.family = TopologyFamily::kMesh2D;
  spec.width = 6;
  spec.height = 5;
  spec.pattern = TrafficPattern::kUniform;
  spec.uniform_fanout = 4;
  const NocDesign design = gen::GenerateStandardDesign(spec);
  for (std::size_t f = 0; f < design.traffic.FlowCount(); ++f) {
    const Flow& flow = design.traffic.FlowAt(FlowId(f));
    const std::size_t src = design.attachment[flow.src.value()].value();
    const std::size_t dst = design.attachment[flow.dst.value()].value();
    const Route& route = design.routes.RouteOf(FlowId(f));
    EXPECT_EQ(route.size(), ManhattanMesh(src, dst, spec.width))
        << "flow " << f << " is not minimal";
    // Dimension order: once a route turns into Y it never moves in X.
    bool seen_y = false;
    for (const ChannelId c : route) {
      const Link& link =
          design.topology.LinkAt(design.topology.ChannelAt(c).link);
      const bool is_y = link.src.value() % spec.width ==
                        link.dst.value() % spec.width;
      EXPECT_TRUE(is_y || !seen_y) << "flow " << f << " turned back into X";
      seen_y = seen_y || is_y;
    }
  }
}

TEST(MeshGeneratorTest, XyIsDeadlockFreeOnEveryPatternAndSeed) {
  for (const TrafficPattern pattern : gen::AllPatterns()) {
    for (std::uint64_t seed = 1; seed <= 5; ++seed) {
      GeneratorSpec spec;
      spec.family = TopologyFamily::kMesh2D;
      spec.width = 5;
      spec.height = 5;
      spec.pattern = pattern;
      spec.seed = seed;
      const NocDesign design = gen::GenerateStandardDesign(spec);
      EXPECT_TRUE(IsDeadlockFree(design))
          << gen::PatternName(pattern) << " seed " << seed;
    }
  }
}

TEST(TorusGeneratorTest, WraparoundAndStructure) {
  GeneratorSpec spec;
  spec.family = TopologyFamily::kTorus2D;
  spec.width = 4;
  spec.height = 3;
  const auto topo = gen::BuildFamilyTopology(spec);
  EXPECT_EQ(topo.topology.SwitchCount(), 12u);
  // Every switch has degree 4 in each direction: 4*W*H directed links.
  EXPECT_EQ(topo.topology.LinkCount(), 4u * 12u);
  // Wraparound links exist in both dimensions.
  EXPECT_TRUE(
      topo.topology.FindLink(SwitchId(3), SwitchId(0)).has_value());
  EXPECT_TRUE(
      topo.topology.FindLink(SwitchId(0), SwitchId(3)).has_value());
  EXPECT_TRUE(
      topo.topology.FindLink(SwitchId(2 * 4), SwitchId(2 * 4 + 3))
          .has_value());
  EXPECT_TRUE(
      topo.topology.FindLink(SwitchId(0), SwitchId(2 * 4)).has_value());
}

TEST(TorusGeneratorTest, DorRoutesAreWrappedMinimal) {
  GeneratorSpec spec;
  spec.family = TopologyFamily::kTorus2D;
  spec.width = 5;
  spec.height = 4;
  spec.pattern = TrafficPattern::kUniform;
  const NocDesign design = gen::GenerateStandardDesign(spec);
  for (std::size_t f = 0; f < design.traffic.FlowCount(); ++f) {
    const Flow& flow = design.traffic.FlowAt(FlowId(f));
    const std::size_t src = design.attachment[flow.src.value()].value();
    const std::size_t dst = design.attachment[flow.dst.value()].value();
    EXPECT_EQ(design.routes.RouteOf(FlowId(f)).size(),
              WrappedDist(src % 5, dst % 5, 5) +
                  WrappedDist(src / 5, dst / 5, 4))
        << "flow " << f;
  }
}

TEST(TorusGeneratorTest, WrapDorIsCyclicUnderUniformTraffic) {
  // The whole point of opening the torus family: wraparound DOR has
  // cyclic channel dependencies, so the removal arms get real work.
  GeneratorSpec spec;
  spec.family = TopologyFamily::kTorus2D;
  spec.width = 5;
  spec.height = 5;
  spec.pattern = TrafficPattern::kUniform;
  spec.uniform_fanout = 4;
  const NocDesign design = gen::GenerateStandardDesign(spec);
  EXPECT_FALSE(IsDeadlockFree(design));

  NocDesign treated = design;
  const RemovalReport report = RemoveDeadlocks(treated);
  EXPECT_GT(report.vcs_added, 0u);
  EXPECT_TRUE(IsDeadlockFree(treated));
}

TEST(RingGeneratorTest, StructureAndShortestWayAround) {
  GeneratorSpec spec;
  spec.family = TopologyFamily::kRing;
  spec.ring_nodes = 9;
  spec.pattern = TrafficPattern::kUniform;
  const NocDesign design = gen::GenerateStandardDesign(spec);
  EXPECT_EQ(design.topology.SwitchCount(), 9u);
  EXPECT_EQ(design.topology.LinkCount(), 18u);
  for (std::size_t f = 0; f < design.traffic.FlowCount(); ++f) {
    const Flow& flow = design.traffic.FlowAt(FlowId(f));
    const std::size_t src = design.attachment[flow.src.value()].value();
    const std::size_t dst = design.attachment[flow.dst.value()].value();
    EXPECT_EQ(design.routes.RouteOf(FlowId(f)).size(),
              WrappedDist(src, dst, 9))
        << "flow " << f;
  }
}

TEST(RingGeneratorTest, RingIsCyclicUnderUniformTraffic) {
  GeneratorSpec spec;
  spec.family = TopologyFamily::kRing;
  spec.ring_nodes = 12;
  spec.pattern = TrafficPattern::kUniform;
  spec.uniform_fanout = 3;
  const NocDesign design = gen::GenerateStandardDesign(spec);
  EXPECT_FALSE(IsDeadlockFree(design));
}

TEST(FatTreeGeneratorTest, StructureAndLeafAttachment) {
  GeneratorSpec spec;
  spec.family = TopologyFamily::kFatTree;
  spec.tree_arity = 3;
  spec.tree_levels = 3;
  spec.tree_uplinks = 2;
  const auto topo = gen::BuildFamilyTopology(spec);
  EXPECT_EQ(topo.topology.SwitchCount(), 1u + 3u + 9u);
  // Every non-root switch has `uplinks` parallel links each way.
  EXPECT_EQ(topo.topology.LinkCount(), (3u + 9u) * 2u * 2u);
  // Cores attach to leaves only.
  ASSERT_EQ(topo.core_switches.size(), 9u);
  for (const SwitchId s : topo.core_switches) {
    EXPECT_GE(s.value(), 4u);
  }
}

TEST(FatTreeGeneratorTest, UpDownRoutesAreDeadlockFree) {
  for (std::uint64_t seed = 1; seed <= 5; ++seed) {
    GeneratorSpec spec;
    spec.family = TopologyFamily::kFatTree;
    spec.tree_arity = 2;
    spec.tree_levels = 4;
    spec.pattern = TrafficPattern::kUniform;
    spec.seed = seed;
    const NocDesign design = gen::GenerateStandardDesign(spec);
    EXPECT_TRUE(IsDeadlockFree(design)) << "seed " << seed;
    // Up-then-down: no route re-enters an up link after going down.
    // (level(src) > level(dst) means the hop goes up.)
  }
}

TEST(GeneratorPatternsTest, TransposeOnSquareGridMatchesMatrixTranspose) {
  GeneratorSpec spec;
  spec.family = TopologyFamily::kMesh2D;
  spec.width = 4;
  spec.height = 4;
  spec.pattern = TrafficPattern::kTranspose;
  const NocDesign design = gen::GenerateStandardDesign(spec);
  // 16 cores, 4 on the diagonal: 12 flows, each (x,y) -> (y,x).
  EXPECT_EQ(design.traffic.FlowCount(), 12u);
  for (std::size_t f = 0; f < design.traffic.FlowCount(); ++f) {
    const Flow& flow = design.traffic.FlowAt(FlowId(f));
    const std::size_t s = flow.src.value();
    const std::size_t d = flow.dst.value();
    EXPECT_EQ(d, (s % 4) * 4 + s / 4);
  }
}

TEST(GeneratorPatternsTest, HotspotConcentratesTraffic) {
  GeneratorSpec spec;
  spec.family = TopologyFamily::kMesh2D;
  spec.width = 5;
  spec.height = 5;
  spec.pattern = TrafficPattern::kHotspot;
  spec.hotspot_fraction = 1.0;
  const NocDesign design = gen::GenerateStandardDesign(spec);
  // With fraction 1 every non-hotspot core sends exactly one flow to
  // the hotspot.
  ASSERT_EQ(design.traffic.FlowCount(), 24u);
  const CoreId hotspot = design.traffic.FlowAt(FlowId(0)).dst;
  for (std::size_t f = 0; f < design.traffic.FlowCount(); ++f) {
    EXPECT_EQ(design.traffic.FlowAt(FlowId(f)).dst, hotspot);
  }
}

TEST(GeneratorPatternsTest, NeighborFlowsAreOneHop) {
  GeneratorSpec spec;
  spec.family = TopologyFamily::kTorus2D;
  spec.width = 4;
  spec.height = 4;
  spec.pattern = TrafficPattern::kNeighbor;
  const NocDesign design = gen::GenerateStandardDesign(spec);
  // +x and +y neighbor per core on a torus (wrap included).
  EXPECT_EQ(design.traffic.FlowCount(), 32u);
  for (std::size_t f = 0; f < design.traffic.FlowCount(); ++f) {
    EXPECT_EQ(design.routes.RouteOf(FlowId(f)).size(), 1u) << "flow " << f;
  }
}

TEST(GeneratorDeterminismTest, SameSpecSameBytes) {
  for (const TopologyFamily family : gen::AllFamilies()) {
    GeneratorSpec spec;
    spec.family = family;
    spec.pattern = TrafficPattern::kUniform;
    spec.cores_per_switch = 2;
    spec.seed = 77;
    const NocDesign a = gen::GenerateStandardDesign(spec);
    const NocDesign b = gen::GenerateStandardDesign(spec);
    EXPECT_EQ(DesignText(a), DesignText(b)) << gen::FamilyName(family);
    spec.seed = 78;
    const NocDesign c = gen::GenerateStandardDesign(spec);
    EXPECT_NE(DesignText(a), DesignText(c)) << gen::FamilyName(family);
  }
}

TEST(GeneratorSpecTest, OutOfRangeParametersThrow) {
  GeneratorSpec spec;
  spec.family = TopologyFamily::kTorus2D;
  spec.width = 2;
  spec.height = 4;
  EXPECT_THROW(gen::BuildFamilyTopology(spec), InvalidModelError);
  spec.family = TopologyFamily::kMesh2D;
  spec.width = 1;
  EXPECT_THROW(gen::BuildFamilyTopology(spec), InvalidModelError);
  spec = GeneratorSpec{};
  spec.family = TopologyFamily::kRing;
  spec.ring_nodes = 2;
  EXPECT_THROW(gen::BuildFamilyTopology(spec), InvalidModelError);
  spec = GeneratorSpec{};
  spec.family = TopologyFamily::kFatTree;
  spec.tree_arity = 1;
  EXPECT_THROW(gen::BuildFamilyTopology(spec), InvalidModelError);
  spec = GeneratorSpec{};
  spec.min_bandwidth = 0.0;
  EXPECT_THROW(gen::GenerateStandardDesign(spec), InvalidModelError);
}

/// Every shape the rule oracle covers: mesh and torus at every width and
/// height in 2..9 and 3..9, rings of 3..33 switches, fat trees of arity
/// 2-4, 2-4 levels and 1-3 uplinks.
std::vector<GeneratorSpec> OracleShapes() {
  std::vector<GeneratorSpec> specs;
  for (const TopologyFamily family :
       {TopologyFamily::kMesh2D, TopologyFamily::kTorus2D}) {
    const std::size_t low = family == TopologyFamily::kMesh2D ? 2 : 3;
    for (std::size_t w = low; w <= 9; ++w) {
      for (std::size_t h = low; h <= 9; ++h) {
        GeneratorSpec spec;
        spec.family = family;
        spec.width = w;
        spec.height = h;
        specs.push_back(spec);
      }
    }
  }
  for (std::size_t n = 3; n <= 33; ++n) {
    GeneratorSpec spec;
    spec.family = TopologyFamily::kRing;
    spec.ring_nodes = n;
    specs.push_back(spec);
  }
  for (std::size_t arity = 2; arity <= 4; ++arity) {
    for (std::size_t levels = 2; levels <= 4; ++levels) {
      for (std::size_t uplinks = 1; uplinks <= 3; ++uplinks) {
        GeneratorSpec spec;
        spec.family = TopologyFamily::kFatTree;
        spec.tree_arity = arity;
        spec.tree_levels = levels;
        spec.tree_uplinks = uplinks;
        specs.push_back(spec);
      }
    }
  }
  return specs;
}

TEST(NextHopRuleTest, RuleMatchesTheReferenceTableOnEveryShape) {
  // Each family routes by a rule instead of a filled table. The rule
  // must equal the table filled pair by pair, pass the validator like
  // it, and route every pattern's flows to the same bytes.
  std::size_t designs = 0;
  for (GeneratorSpec spec : OracleShapes()) {
    const auto topo = gen::BuildFamilyTopology(spec);
    const NextHopTable reference = testing::ReferenceTable(spec);
    const std::string shape = gen::FamilyShapeName(spec);
    EXPECT_EQ(topo.table.StoredColumns(), 0u) << shape;
    ASSERT_EQ(reference.StoredColumns(), reference.SwitchCount()) << shape;
    EXPECT_TRUE(topo.table == reference) << shape;
    // Entry by entry above; whole columns, as a patch stores them, here.
    NextHopTable stored = topo.table;
    for (std::size_t d = 0; d < stored.SwitchCount(); ++d) {
      (void)stored.MutableColumn(SwitchId(d));
    }
    EXPECT_EQ(stored.StoredColumns(), stored.SwitchCount()) << shape;
    EXPECT_TRUE(stored == reference) << shape;
    EXPECT_NO_THROW(ValidateNextHopTable(topo.topology, topo.table)) << shape;
    EXPECT_NO_THROW(ValidateNextHopTable(topo.topology, reference)) << shape;
    for (const TrafficPattern pattern : gen::AllPatterns()) {
      for (const std::size_t cores : {1u, 2u}) {
        spec.pattern = pattern;
        spec.cores_per_switch = cores;
        const NocDesign design = gen::GenerateStandardDesign(spec);
        NocDesign rerouted = design;
        rerouted.routes = BuildTableRoutes(rerouted.topology, rerouted.traffic,
                                           rerouted.attachment, reference);
        EXPECT_EQ(DesignText(design), DesignText(rerouted)) << design.name;
        ++designs;
      }
    }
  }
  EXPECT_EQ(designs, 171u * 8u);
}

TEST(NextHopRuleTest, GenerationStoresNoColumn) {
  // Nothing S x S on a cold path: the table a generated design hands out
  // is its rule, every column unstored, and reading it stores nothing.
  for (const TopologyFamily family : gen::AllFamilies()) {
    GeneratorSpec spec;
    spec.family = family;
    NextHopTable table;
    const NocDesign design = gen::GenerateStandardDesign(spec, &table);
    ASSERT_EQ(table.SwitchCount(), design.topology.SwitchCount());
    EXPECT_EQ(table.StoredColumns(), 0u) << design.name;
    ValidateNextHopTable(design.topology, table);
    (void)BuildTableRoutes(design.topology, design.traffic, design.attachment,
                           table);
    EXPECT_EQ(table.StoredColumns(), 0u) << design.name;
  }
  // An explicit table keeps its all-holes default and stores a column
  // only when one is written.
  NextHopTable explicit_table(4);
  EXPECT_EQ(explicit_table.StoredColumns(), 0u);
  EXPECT_FALSE(explicit_table.Column(SwitchId(2))[1].valid());
  explicit_table.MutableColumn(SwitchId(2))[1] = LinkId(0);
  EXPECT_EQ(explicit_table.StoredColumns(), 1u);
  EXPECT_EQ(explicit_table.Column(SwitchId(2))[1], LinkId(0));
  EXPECT_FALSE(explicit_table.Column(SwitchId(2))[0].valid());
}

TEST(NextHopTableTest, ValidatorRejectsHolesAndLoops) {
  GeneratorSpec spec;
  spec.family = TopologyFamily::kRing;
  spec.ring_nodes = 4;
  auto topo = gen::BuildFamilyTopology(spec);
  // A hole on a walk another pair relies on: clear (1 -> 2)'s entry
  // while (0 -> 2) still routes through switch 1.
  NextHopTable holed = topo.table;
  holed.MutableColumn(SwitchId(2))[1] = LinkId();
  EXPECT_THROW(ValidateNextHopTable(topo.topology, holed),
               InvalidModelError);
  // A loop: 0 -> 2 forwards to 3, 3 -> 2 forwards back to 0.
  NextHopTable looped = topo.table;
  const std::span<LinkId> toward_2 = looped.MutableColumn(SwitchId(2));
  toward_2[0] = *topo.topology.FindLink(SwitchId(0), SwitchId(3));
  toward_2[3] = *topo.topology.FindLink(SwitchId(3), SwitchId(0));
  EXPECT_THROW(ValidateNextHopTable(topo.topology, looped),
               InvalidModelError);
}

}  // namespace
}  // namespace nocdr
