#include "gen/generators.h"

#include <algorithm>
#include <unordered_set>
#include <utility>

#include "util/error.h"
#include "util/rng.h"

namespace nocdr::gen {

namespace {

/// Adds the links \p a -> \p b and \p b -> \p a, in that order, and
/// records them as \p a's port \p a_port and \p b's port \p b_port.
void AddLinkPair(TopologyGraph& topology, NextHopRule& rule, std::size_t a,
                 std::size_t b, std::size_t a_port, std::size_t b_port) {
  const std::size_t ports = rule.PortsPerSwitch();
  rule.ports[a * ports + a_port] = topology.AddLink(SwitchId(a), SwitchId(b));
  rule.ports[b * ports + b_port] = topology.AddLink(SwitchId(b), SwitchId(a));
}

// ------------------------------------------------------------- mesh/torus

std::size_t GridIndex(std::size_t x, std::size_t y, std::size_t width) {
  return y * width + x;
}

/// The attachment points of a grid or ring: every switch.
std::vector<SwitchId> EverySwitch(std::size_t n) {
  std::vector<SwitchId> switches;
  switches.reserve(n);
  for (std::size_t s = 0; s < n; ++s) {
    switches.emplace_back(s);
  }
  return switches;
}

GeneratedTopology BuildGrid(const GeneratorSpec& spec, bool wrap) {
  const std::size_t w = spec.width;
  const std::size_t h = spec.height;
  if (wrap) {
    Require(w >= 3 && h >= 3,
            "generator: torus needs width and height >= 3 (wrap links must "
            "be distinct from direct links)");
  } else {
    Require(w >= 2 && h >= 2, "generator: mesh needs width and height >= 2");
  }
  GeneratedTopology out;
  const std::string stem = wrap ? "t" : "m";
  for (std::size_t y = 0; y < h; ++y) {
    for (std::size_t x = 0; x < w; ++x) {
      out.topology.AddSwitch(stem + std::to_string(x) + "_" +
                             std::to_string(y));
    }
  }
  // Dimension-ordered XY: correct x fully, then y. On the torus each
  // dimension goes the shorter way around (ties break toward +).
  NextHopRule rule;
  rule.kind = NextHopRule::Kind::kGrid;
  rule.width = w;
  rule.height = h;
  rule.wrap = wrap;
  rule.ports.resize(w * h * rule.PortsPerSwitch());
  // One bidirectional pair per grid edge; the torus adds the wrap edges.
  for (std::size_t y = 0; y < h; ++y) {
    for (std::size_t x = 0; x < w; ++x) {
      const std::size_t s = GridIndex(x, y, w);
      if (x + 1 < w || wrap) {
        AddLinkPair(out.topology, rule, s, GridIndex((x + 1) % w, y, w),
                    NextHopRule::kPlusX, NextHopRule::kMinusX);
      }
      if (y + 1 < h || wrap) {
        AddLinkPair(out.topology, rule, s, GridIndex(x, (y + 1) % h, w),
                    NextHopRule::kPlusY, NextHopRule::kMinusY);
      }
    }
  }
  out.table = NextHopTable(std::move(rule));
  out.core_switches = EverySwitch(w * h);
  return out;
}

// ------------------------------------------------------------------ ring

GeneratedTopology BuildRing(const GeneratorSpec& spec) {
  const std::size_t n = spec.ring_nodes;
  Require(n >= 3, "generator: ring needs >= 3 nodes");
  GeneratedTopology out;
  for (std::size_t i = 0; i < n; ++i) {
    out.topology.AddSwitch("r" + std::to_string(i));
  }
  // A wrapped n x 1 grid: shortest way around, ties (the opposite node
  // on an even ring) break clockwise. Flows that chain clockwise
  // segments all the way around are what makes the CDG cyclic.
  NextHopRule rule;
  rule.kind = NextHopRule::Kind::kGrid;
  rule.width = n;
  rule.height = 1;
  rule.wrap = true;
  rule.ports.resize(n * rule.PortsPerSwitch());
  for (std::size_t i = 0; i < n; ++i) {
    AddLinkPair(out.topology, rule, i, (i + 1) % n, NextHopRule::kPlusX,
                NextHopRule::kMinusX);
  }
  out.table = NextHopTable(std::move(rule));
  out.core_switches = EverySwitch(n);
  return out;
}

// -------------------------------------------------------------- fat tree

GeneratedTopology BuildFatTree(const GeneratorSpec& spec) {
  const std::size_t k = spec.tree_arity;
  const std::size_t levels = spec.tree_levels;
  const std::size_t uplinks = spec.tree_uplinks;
  Require(k >= 2, "generator: fat tree needs arity >= 2");
  Require(levels >= 2, "generator: fat tree needs >= 2 levels");
  Require(uplinks >= 1, "generator: fat tree needs >= 1 uplink");
  Require(levels <= 8, "generator: fat tree deeper than 8 levels");

  std::vector<std::size_t> level_start(levels + 1, 0);
  std::size_t per_level = 1;
  for (std::size_t l = 0; l < levels; ++l) {
    level_start[l + 1] = level_start[l] + per_level;
    per_level *= k;
  }
  const std::size_t n = level_start[levels];

  GeneratedTopology out;
  for (std::size_t l = 0; l < levels; ++l) {
    for (std::size_t j = level_start[l]; j < level_start[l + 1]; ++j) {
      out.topology.AddSwitch("f" + std::to_string(l) + "_" +
                             std::to_string(j - level_start[l]));
    }
  }
  // Up to the lowest common ancestor, then down; the parallel link for a
  // hop is picked by destination modulo (d-mod-k spreading). Up*/down*
  // discipline, so the CDG stays acyclic. Each child's ports are its
  // parallel links up to its parent, then down from it.
  NextHopRule rule;
  rule.kind = NextHopRule::Kind::kFatTree;
  rule.arity = k;
  rule.levels = levels;
  rule.uplinks = uplinks;
  rule.ports.resize(n * rule.PortsPerSwitch());
  for (std::size_t l = 1; l < levels; ++l) {
    for (std::size_t j = level_start[l]; j < level_start[l + 1]; ++j) {
      const SwitchId child(j);
      const SwitchId above(level_start[l - 1] + (j - level_start[l]) / k);
      LinkId* ports = rule.ports.data() + j * rule.PortsPerSwitch();
      for (std::size_t p = 0; p < uplinks; ++p) {
        ports[p] = out.topology.AddLink(child, above);
        ports[uplinks + p] = out.topology.AddLink(above, child);
      }
    }
  }
  out.table = NextHopTable(std::move(rule));
  out.core_switches.reserve(level_start[levels] - level_start[levels - 1]);
  for (std::size_t j = level_start[levels - 1]; j < n; ++j) {
    out.core_switches.push_back(SwitchId(j));
  }
  return out;
}

// --------------------------------------------------------------- traffic

struct PatternContext {
  const GeneratorSpec& spec;
  const GeneratedTopology& topo;
  std::size_t core_count;
};

/// Uniform destination != \p src (rejection over a dense range; the
/// offset trick keeps the draw single-shot and deterministic).
std::size_t UniformOther(Rng& rng, std::size_t src, std::size_t count) {
  return (src + 1 + static_cast<std::size_t>(rng.NextBelow(count - 1))) %
         count;
}

void AddPatternFlow(CommunicationGraph& traffic, const GeneratorSpec& spec,
                    Rng& rng, std::size_t src, std::size_t dst) {
  if (src == dst) {
    return;
  }
  const double bw = spec.min_bandwidth +
                    rng.NextDouble() *
                        (spec.max_bandwidth - spec.min_bandwidth);
  traffic.AddFlow(CoreId(src), CoreId(dst), bw);
}

void GenerateUniform(CommunicationGraph& traffic, const PatternContext& ctx,
                     Rng& rng) {
  const std::size_t c = ctx.core_count;
  const std::size_t fanout =
      std::min(std::max<std::size_t>(ctx.spec.uniform_fanout, 1), c - 1);
  for (std::size_t i = 0; i < c; ++i) {
    std::unordered_set<std::size_t> picked;
    while (picked.size() < fanout) {
      const std::size_t d = UniformOther(rng, i, c);
      if (picked.insert(d).second) {
        AddPatternFlow(traffic, ctx.spec, rng, i, d);
      }
    }
  }
}

void GenerateTranspose(CommunicationGraph& traffic, const PatternContext& ctx,
                       Rng& rng) {
  const std::size_t c = ctx.core_count;
  const std::size_t attach = ctx.topo.core_switches.size();
  const bool grid = ctx.spec.family == TopologyFamily::kMesh2D ||
                    ctx.spec.family == TopologyFamily::kTorus2D;
  for (std::size_t i = 0; i < c; ++i) {
    std::size_t dst;
    if (grid) {
      const std::size_t w = ctx.spec.width;
      const std::size_t h = ctx.spec.height;
      const std::size_t s = i % attach;
      const std::size_t layer = i / attach;
      const std::size_t x = s % w;
      const std::size_t y = s / w;
      // (x, y) -> (y, x) where that position exists; the off-square
      // remainder reflects through the far corner instead.
      const std::size_t t =
          (y < w && x < h) ? GridIndex(y, x, w) : attach - 1 - s;
      dst = t + layer * attach;
    } else {
      dst = c - 1 - i;
    }
    AddPatternFlow(traffic, ctx.spec, rng, i, dst);
  }
}

void GenerateHotspot(CommunicationGraph& traffic, const PatternContext& ctx,
                     Rng& rng) {
  const std::size_t c = ctx.core_count;
  const double fraction =
      std::clamp(ctx.spec.hotspot_fraction, 0.0, 1.0);
  const std::size_t hotspot =
      static_cast<std::size_t>(rng.NextBelow(c));
  for (std::size_t i = 0; i < c; ++i) {
    if (i == hotspot) {
      continue;
    }
    const bool aimed = rng.NextBool(fraction);
    const std::size_t dst = aimed ? hotspot : UniformOther(rng, i, c);
    AddPatternFlow(traffic, ctx.spec, rng, i, dst);
  }
}

void GenerateNeighbor(CommunicationGraph& traffic, const PatternContext& ctx,
                      Rng& rng) {
  const std::size_t c = ctx.core_count;
  const std::size_t attach = ctx.topo.core_switches.size();
  for (std::size_t i = 0; i < c; ++i) {
    const std::size_t a = i % attach;
    const std::size_t layer = i / attach;
    std::vector<std::size_t> neighbors;
    switch (ctx.spec.family) {
      case TopologyFamily::kMesh2D:
      case TopologyFamily::kTorus2D: {
        const bool wrap = ctx.spec.family == TopologyFamily::kTorus2D;
        const std::size_t w = ctx.spec.width;
        const std::size_t h = ctx.spec.height;
        const std::size_t x = a % w;
        const std::size_t y = a / w;
        if (x + 1 < w || wrap) {
          neighbors.push_back(GridIndex((x + 1) % w, y, w));
        }
        if (y + 1 < h || wrap) {
          neighbors.push_back(GridIndex(x, (y + 1) % h, w));
        }
        break;
      }
      case TopologyFamily::kRing:
      case TopologyFamily::kFatTree:
        neighbors.push_back((a + 1) % attach);
        break;
    }
    for (const std::size_t nb : neighbors) {
      AddPatternFlow(traffic, ctx.spec, rng, i, nb + layer * attach);
    }
  }
}

}  // namespace

std::vector<TopologyFamily> AllFamilies() {
  return {TopologyFamily::kMesh2D, TopologyFamily::kTorus2D,
          TopologyFamily::kRing, TopologyFamily::kFatTree};
}

std::string FamilyName(TopologyFamily family) {
  switch (family) {
    case TopologyFamily::kMesh2D:
      return "mesh";
    case TopologyFamily::kTorus2D:
      return "torus";
    case TopologyFamily::kRing:
      return "ring";
    case TopologyFamily::kFatTree:
      return "fat_tree";
  }
  return "unknown";
}

std::optional<TopologyFamily> ParseFamily(const std::string& name) {
  for (const TopologyFamily family : AllFamilies()) {
    if (FamilyName(family) == name) {
      return family;
    }
  }
  return std::nullopt;
}

std::vector<TrafficPattern> AllPatterns() {
  return {TrafficPattern::kUniform, TrafficPattern::kTranspose,
          TrafficPattern::kHotspot, TrafficPattern::kNeighbor};
}

std::string PatternName(TrafficPattern pattern) {
  switch (pattern) {
    case TrafficPattern::kUniform:
      return "uniform";
    case TrafficPattern::kTranspose:
      return "transpose";
    case TrafficPattern::kHotspot:
      return "hotspot";
    case TrafficPattern::kNeighbor:
      return "neighbor";
  }
  return "unknown";
}

std::optional<TrafficPattern> ParsePattern(const std::string& name) {
  for (const TrafficPattern pattern : AllPatterns()) {
    if (PatternName(pattern) == name) {
      return pattern;
    }
  }
  return std::nullopt;
}

GeneratedTopology BuildFamilyTopology(const GeneratorSpec& spec) {
  GeneratedTopology out;
  switch (spec.family) {
    case TopologyFamily::kMesh2D:
      out = BuildGrid(spec, /*wrap=*/false);
      break;
    case TopologyFamily::kTorus2D:
      out = BuildGrid(spec, /*wrap=*/true);
      break;
    case TopologyFamily::kRing:
      out = BuildRing(spec);
      break;
    case TopologyFamily::kFatTree:
      out = BuildFatTree(spec);
      break;
  }
  return out;
}

std::string FamilyShapeName(const GeneratorSpec& spec) {
  switch (spec.family) {
    case TopologyFamily::kMesh2D:
      return "mesh" + std::to_string(spec.width) + "x" +
             std::to_string(spec.height);
    case TopologyFamily::kTorus2D:
      return "torus" + std::to_string(spec.width) + "x" +
             std::to_string(spec.height);
    case TopologyFamily::kRing:
      return "ring" + std::to_string(spec.ring_nodes);
    case TopologyFamily::kFatTree:
      return "ftree" + std::to_string(spec.tree_arity) + "x" +
             std::to_string(spec.tree_levels);
  }
  return "unknown";
}

NocDesign GenerateStandardDesign(const GeneratorSpec& spec,
                                 NextHopTable* table_out) {
  Require(spec.cores_per_switch >= 1,
          "generator: cores_per_switch must be >= 1");
  Require(spec.min_bandwidth > 0.0 &&
              spec.min_bandwidth <= spec.max_bandwidth,
          "generator: bandwidth range must satisfy 0 < min <= max");
  GeneratedTopology topo = BuildFamilyTopology(spec);

  NocDesign design;
  design.name = FamilyShapeName(spec) + "_" + PatternName(spec.pattern);
  if (spec.cores_per_switch > 1) {
    design.name += "_c" + std::to_string(spec.cores_per_switch);
  }

  const std::size_t attach = topo.core_switches.size();
  const std::size_t core_count = attach * spec.cores_per_switch;
  Require(core_count >= 2, "generator: needs at least two cores");
  design.attachment.reserve(core_count);
  for (std::size_t i = 0; i < core_count; ++i) {
    design.traffic.AddCore("c" + std::to_string(i));
    design.attachment.push_back(topo.core_switches[i % attach]);
  }

  Rng rng(spec.seed);
  const PatternContext ctx{spec, topo, core_count};
  switch (spec.pattern) {
    case TrafficPattern::kUniform:
      GenerateUniform(design.traffic, ctx, rng);
      break;
    case TrafficPattern::kTranspose:
      GenerateTranspose(design.traffic, ctx, rng);
      break;
    case TrafficPattern::kHotspot:
      GenerateHotspot(design.traffic, ctx, rng);
      break;
    case TrafficPattern::kNeighbor:
      GenerateNeighbor(design.traffic, ctx, rng);
      break;
  }
  Require(design.traffic.FlowCount() > 0,
          "generator: pattern produced no flows");

  design.routes = BuildTableRoutes(topo.topology, design.traffic,
                                   design.attachment, topo.table);
  if (table_out != nullptr) {
    *table_out = std::move(topo.table);
  }
  design.topology = std::move(topo.topology);
  design.Validate();
  return design;
}

NocDesign UnidirectionalRing(std::size_t n, std::size_t span) {
  NocDesign d;
  d.name = "ring" + std::to_string(n) + "x" + std::to_string(span);
  std::vector<SwitchId> sw;
  std::vector<CoreId> cores;
  for (std::size_t i = 0; i < n; ++i) {
    sw.push_back(d.topology.AddSwitch());
    cores.push_back(d.traffic.AddCore());
    d.attachment.push_back(sw[i]);
  }
  std::vector<ChannelId> ring;
  for (std::size_t i = 0; i < n; ++i) {
    ring.push_back(*d.topology.FindChannel(
        d.topology.AddLink(sw[i], sw[(i + 1) % n]), 0));
  }
  d.routes.Resize(n);
  for (std::size_t i = 0; i < n; ++i) {
    d.traffic.AddFlow(cores[i], cores[(i + span) % n], 60.0);
    Route r;
    for (std::size_t h = 0; h < span; ++h) {
      r.push_back(ring[(i + h) % n]);
    }
    d.routes.SetRoute(FlowId(i), r);
  }
  d.Validate();
  return d;
}

}  // namespace nocdr::gen
