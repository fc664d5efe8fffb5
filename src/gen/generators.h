// Standard-topology workload generators: mesh, torus, ring, fat tree.
//
// The paper's method targets *custom* application-specific topologies,
// but its cost claims are all relative to structured baselines. This
// module opens those structured families as first-class design sources:
// each generator emits a complete NocDesign — switches, links, core
// attachment, a pattern-driven flow set and table-driven routes built
// with the family's classical policy:
//
//   * 2D mesh  — dimension-ordered XY. Provably deadlock-free: every
//     route turns at most once, from an X channel into a Y channel, so
//     the CDG is acyclic by the classic turn argument.
//   * 2D torus — dimension-ordered XY over the wraparound links,
//     shortest way around per dimension. Deliberately *cyclic*: the
//     wrap links close ring dependencies in both dimensions, which is
//     exactly the adversarial input the removal / resource-ordering /
//     up*-down* arms need real work on.
//   * ring     — shortest-way-around routing; cyclic for the same
//     reason once flows cover the ring in one direction.
//   * fat tree — up to the lowest common ancestor, then down, with
//     destination-modulo spreading over the parallel parent links
//     (d-mod-k). Deadlock-free: up*/down* discipline, no down->up turn.
//
// All randomness (pattern destinations, bandwidths, hotspot choice)
// comes from util/rng seeded by the spec, so identical specs produce
// byte-identical designs on every platform.
#pragma once

#include <cstdint>
#include <optional>
#include <string>
#include <vector>

#include "noc/design.h"
#include "synth/route_builder.h"

namespace nocdr::gen {

enum class TopologyFamily {
  kMesh2D,
  kTorus2D,
  kRing,
  kFatTree,
};

/// All families, in the fixed sweep order.
std::vector<TopologyFamily> AllFamilies();

/// Stable lowercase identifier ("mesh", "torus", "ring", "fat_tree").
std::string FamilyName(TopologyFamily family);

/// Inverse of FamilyName; nullopt for unknown names.
std::optional<TopologyFamily> ParseFamily(const std::string& name);

/// Synthetic traffic-pattern matrix applied over the attached cores.
enum class TrafficPattern {
  /// Every core sends to `uniform_fanout` distinct random cores.
  kUniform,
  /// Matrix transpose: core at grid position (x, y) sends to the core
  /// at (y, x); non-grid families (and off-square remainders) use index
  /// reversal, the 1D analogue.
  kTranspose,
  /// One seeded hotspot core receives most traffic; the rest of each
  /// core's demand goes to a uniform background destination.
  kHotspot,
  /// Nearest-neighbor: each core sends to the core(s) one hop away in
  /// the positive direction(s) of its family (grid: +x and +y, ring:
  /// successor, tree: next leaf).
  kNeighbor,
};

/// All patterns, in the fixed sweep order.
std::vector<TrafficPattern> AllPatterns();

/// Stable lowercase identifier ("uniform", "transpose", ...).
std::string PatternName(TrafficPattern pattern);

/// Inverse of PatternName; nullopt for unknown names.
std::optional<TrafficPattern> ParsePattern(const std::string& name);

/// Full parameterization of one generated design. Only the fields of
/// the selected family are read (e.g. ring_nodes is ignored for a mesh).
struct GeneratorSpec {
  TopologyFamily family = TopologyFamily::kMesh2D;

  /// Mesh / torus grid extent. Mesh needs >= 2 per dimension; the torus
  /// needs >= 3 so wraparound links are distinct from the direct links.
  std::size_t width = 4;
  std::size_t height = 4;

  /// Ring switch count (>= 3).
  std::size_t ring_nodes = 8;

  /// Fat tree: children per switch (>= 2), levels including the root
  /// (>= 2) and parallel links per child<->parent pair (>= 1) — the
  /// "fatness" commodity fat trees realize as multiple uplinks.
  std::size_t tree_arity = 2;
  std::size_t tree_levels = 3;
  std::size_t tree_uplinks = 2;

  /// Cores attached per attachment point (every switch for mesh/torus/
  /// ring, every leaf for the fat tree).
  std::size_t cores_per_switch = 1;

  TrafficPattern pattern = TrafficPattern::kUniform;
  /// kUniform: distinct random destinations per core.
  std::size_t uniform_fanout = 3;
  /// kHotspot: probability a core's flow targets the hotspot core
  /// instead of a uniform background destination. Clamped to [0, 1].
  double hotspot_fraction = 0.75;

  /// Bandwidth range (MB/s) every generated flow draws from.
  double min_bandwidth = 10.0;
  double max_bandwidth = 200.0;

  std::uint64_t seed = 1;
};

/// Topology plus the family's routing policy, before traffic. The
/// next-hop table is the family's rule (NextHopRule, synth/
/// route_builder.h) with no column stored: O(S) ports instead of S x S
/// entries (S = switch count). core_switches lists the attachment points
/// in deterministic order (all switches for mesh/torus/ring, leaves for
/// the fat tree).
///
/// Why every rule is complete and loop-free, so that every (s, d) walk
/// reaches d in at most S hops (ValidateNextHopTable would hold; the
/// tests hold each rule to the explicit table as an oracle):
///
///   * mesh, torus, ring — an XY hop changes one coordinate by one. While
///     x differs it moves x one step toward dx (on a wrapped dimension
///     the shorter way, so the wrapped distance |dx - x| shrinks by one
///     and the direction never flips); y is untouched. Once x matches,
///     the same holds for y, and x stays put. The remaining distance in
///     the active dimension falls by one every hop, so the walk arrives
///     after the Manhattan (wrapped) distance, never revisiting a switch.
///     Every port a hop uses exists: a mesh hop never leaves the grid,
///     and a ring (a wrapped n x 1 grid) never moves in y.
///   * fat tree — from a switch that is not an ancestor of d the hop goes
///     up, one level nearer the root; from an ancestor of d it goes down
///     to the child on d's side, one level nearer d. Up hops end at the
///     lowest common ancestor (the root at worst, an ancestor of every
///     switch), then down hops follow d's ancestor chain to d: at most
///     2 x (levels - 1) hops, levels strictly monotone within each phase.
struct GeneratedTopology {
  TopologyGraph topology;
  NextHopTable table;
  std::vector<SwitchId> core_switches;
};

/// Builds the selected family's switch graph and classical routing
/// rule, in O(S). Deterministic in the spec; throws InvalidModelError on
/// out-of-range parameters.
GeneratedTopology BuildFamilyTopology(const GeneratorSpec& spec);

/// One-line shape label used as the design-name stem, e.g. "mesh5x4",
/// "torus4x4", "ring24", "ftree3x3".
std::string FamilyShapeName(const GeneratorSpec& spec);

/// The complete generated design: BuildFamilyTopology, cores round-robin
/// over the attachment points, the traffic pattern's flow set, and
/// routes expanded from the rule via BuildTableRoutes, each hop checked
/// as it is walked. The result satisfies Validate() (contiguous routes,
/// no repeated channel, the right endpoints) and is named
/// "<shape>_<pattern>[_c<cores_per_switch>]". When \p table_out is
/// non-null it receives the family's next-hop table, with no column
/// stored — the fault pipeline's table-driven detour policy needs it
/// (fault/reconfigure). Nothing S x S is allocated.
NocDesign GenerateStandardDesign(const GeneratorSpec& spec,
                                 NextHopTable* table_out = nullptr);

/// The canonical wormhole deadlock: a unidirectional ring of \p n
/// switches with one core each, where flow i carries 60 MB/s from core
/// i over the next \p span links. Named "ring<n>x<span>"; with span >= 2
/// its CDG is the full ring cycle. No family of GeneratorSpec: it has
/// no reverse links, so up*/down* routing is infeasible on it.
NocDesign UnidirectionalRing(std::size_t n, std::size_t span);

}  // namespace nocdr::gen
