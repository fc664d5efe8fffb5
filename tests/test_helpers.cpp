#include "test_helpers.h"

#include <algorithm>
#include <deque>
#include <span>

#include "util/error.h"
#include "util/json.h"

namespace nocdr::testing {

namespace {

/// The link \p src -> \p dst of a grid or ring, which has no parallel
/// links.
LinkId LinkBetween(const TopologyGraph& topology, std::size_t src,
                   std::size_t dst) {
  const auto l = topology.FindLink(SwitchId(src), SwitchId(dst));
  Require(l.has_value(), "ReferenceTable: missing link ", src, "->", dst);
  return *l;
}

/// Dimension-ordered XY over a w x h grid, each dimension the shorter way
/// around when it wraps (ties toward +).
void FillGrid(const TopologyGraph& topology, NextHopTable& table,
              std::size_t w, std::size_t h, bool wrap) {
  const std::size_t n = w * h;
  for (std::size_t d = 0; d < n; ++d) {
    const std::size_t dx = d % w;
    const std::size_t dy = d / w;
    const std::span<LinkId> column = table.MutableColumn(SwitchId(d));
    for (std::size_t s = 0; s < n; ++s) {
      if (s == d) {
        continue;
      }
      const std::size_t sx = s % w;
      const std::size_t sy = s / w;
      std::size_t next;
      if (sx != dx) {
        bool positive;
        if (wrap) {
          const std::size_t forward = (dx + w - sx) % w;
          positive = forward <= w - forward;
        } else {
          positive = dx > sx;
        }
        const std::size_t nx = positive ? (sx + 1) % w : (sx + w - 1) % w;
        next = sy * w + nx;
      } else {
        bool positive;
        if (wrap) {
          const std::size_t forward = (dy + h - sy) % h;
          positive = forward <= h - forward;
        } else {
          positive = dy > sy;
        }
        const std::size_t ny = positive ? (sy + 1) % h : (sy + h - 1) % h;
        next = ny * w + sx;
      }
      column[s] = LinkBetween(topology, s, next);
    }
  }
}

/// The shorter way around a ring of \p n switches, ties clockwise.
void FillRing(const TopologyGraph& topology, NextHopTable& table,
              std::size_t n) {
  for (std::size_t d = 0; d < n; ++d) {
    const std::span<LinkId> column = table.MutableColumn(SwitchId(d));
    for (std::size_t s = 0; s < n; ++s) {
      if (s == d) {
        continue;
      }
      const std::size_t clockwise = (d + n - s) % n;
      const std::size_t next =
          clockwise <= n - clockwise ? (s + 1) % n : (s + n - 1) % n;
      column[s] = LinkBetween(topology, s, next);
    }
  }
}

/// Up to the lowest common ancestor, then down, the parallel link picked
/// by destination modulo the uplink count.
void FillFatTree(const TopologyGraph& topology, NextHopTable& table,
                 const gen::GeneratorSpec& spec) {
  const std::size_t k = spec.tree_arity;
  const std::size_t levels = spec.tree_levels;
  const std::size_t n = topology.SwitchCount();
  std::vector<std::size_t> level_start(levels + 1, 0);
  std::size_t per_level = 1;
  for (std::size_t l = 0; l < levels; ++l) {
    level_start[l + 1] = level_start[l] + per_level;
    per_level *= k;
  }
  std::vector<std::size_t> level_of(n);
  std::vector<std::size_t> parent(n, 0);
  // Per child: its parallel links to (up) and from (down) its parent, in
  // id order.
  std::vector<std::vector<LinkId>> up(n);
  std::vector<std::vector<LinkId>> down(n);
  for (std::size_t l = 0; l < levels; ++l) {
    for (std::size_t j = level_start[l]; j < level_start[l + 1]; ++j) {
      level_of[j] = l;
    }
  }
  for (std::size_t j = level_start[1]; j < n; ++j) {
    parent[j] = level_start[level_of[j] - 1] +
                (j - level_start[level_of[j]]) / k;
    for (const LinkId l : topology.OutLinks(SwitchId(j))) {
      if (topology.LinkAt(l).dst == SwitchId(parent[j])) {
        up[j].push_back(l);
      }
    }
    for (const LinkId l : topology.InLinks(SwitchId(j))) {
      if (topology.LinkAt(l).src == SwitchId(parent[j])) {
        down[j].push_back(l);
      }
    }
    std::sort(up[j].begin(), up[j].end());
    std::sort(down[j].begin(), down[j].end());
  }
  std::vector<std::size_t> ancestor(levels);
  for (std::size_t d = 0; d < n; ++d) {
    for (std::size_t node = d;; node = parent[node]) {
      ancestor[level_of[node]] = node;
      if (level_of[node] == 0) {
        break;
      }
    }
    const std::size_t par = d % spec.tree_uplinks;
    const std::span<LinkId> column = table.MutableColumn(SwitchId(d));
    for (std::size_t s = 0; s < n; ++s) {
      if (s == d) {
        continue;
      }
      if (level_of[d] > level_of[s] && ancestor[level_of[s]] == s) {
        column[s] = down[ancestor[level_of[s] + 1]].at(par);
      } else {
        column[s] = up[s].at(par);
      }
    }
  }
}

}  // namespace

NextHopTable ReferenceTable(const gen::GeneratorSpec& spec) {
  const TopologyGraph topology = gen::BuildFamilyTopology(spec).topology;
  NextHopTable table(topology.SwitchCount());
  switch (spec.family) {
    case gen::TopologyFamily::kMesh2D:
      FillGrid(topology, table, spec.width, spec.height, /*wrap=*/false);
      break;
    case gen::TopologyFamily::kTorus2D:
      FillGrid(topology, table, spec.width, spec.height, /*wrap=*/true);
      break;
    case gen::TopologyFamily::kRing:
      FillRing(topology, table, spec.ring_nodes);
      break;
    case gen::TopologyFamily::kFatTree:
      FillFatTree(topology, table, spec);
      break;
  }
  return table;
}

NocDesign WithTiedTwins(NocDesign design) {
  const std::size_t flows = design.traffic.FlowCount();
  for (std::size_t f = 0; f < flows; f += 2) {
    const Flow flow = design.traffic.FlowAt(FlowId(f));
    const FlowId twin =
        design.traffic.AddFlow(flow.src, flow.dst, flow.bandwidth_mbps);
    design.routes.Resize(design.traffic.FlowCount());
    design.routes.SetRoute(twin, Route(design.routes.RouteOf(FlowId(f))));
  }
  design.Validate();
  return design;
}

NocDesign MakeRandomDesign(std::uint64_t seed, std::size_t switches,
                           std::size_t cores, std::size_t flows) {
  Rng rng(seed);
  NocDesign d;
  d.name = "random" + std::to_string(seed);

  std::vector<SwitchId> sw;
  for (std::size_t i = 0; i < switches; ++i) {
    sw.push_back(d.topology.AddSwitch());
  }
  // Bidirectional ring guarantees strong connectivity.
  for (std::size_t i = 0; i < switches; ++i) {
    d.topology.AddLink(sw[i], sw[(i + 1) % switches]);
    d.topology.AddLink(sw[(i + 1) % switches], sw[i]);
  }
  // Random chords make routing irregular.
  const std::size_t chords = switches / 2 + 1;
  for (std::size_t i = 0; i < chords; ++i) {
    const std::size_t a = rng.NextBelow(switches);
    const std::size_t b = rng.NextBelow(switches);
    if (a != b && !d.topology.FindLink(sw[a], sw[b])) {
      d.topology.AddLink(sw[a], sw[b]);
    }
  }

  std::vector<CoreId> core_ids;
  for (std::size_t i = 0; i < cores; ++i) {
    core_ids.push_back(d.traffic.AddCore());
    d.attachment.push_back(sw[rng.NextBelow(switches)]);
  }

  // BFS shortest path (hop count) per flow, deterministic tie-break by
  // link index.
  auto bfs_route = [&](SwitchId from, SwitchId to) {
    std::vector<LinkId> via(d.topology.SwitchCount());
    std::vector<bool> seen(d.topology.SwitchCount(), false);
    std::deque<SwitchId> queue{from};
    seen[from.value()] = true;
    while (!queue.empty()) {
      const SwitchId cur = queue.front();
      queue.pop_front();
      if (cur == to) {
        break;
      }
      for (LinkId l : d.topology.OutLinks(cur)) {
        const SwitchId next = d.topology.LinkAt(l).dst;
        if (!seen[next.value()]) {
          seen[next.value()] = true;
          via[next.value()] = l;
          queue.push_back(next);
        }
      }
    }
    Require(seen[to.value()], "MakeRandomDesign: disconnected");
    Route r;
    for (SwitchId cur = to; cur != from;
         cur = d.topology.LinkAt(via[cur.value()]).src) {
      r.push_back(*d.topology.FindChannel(via[cur.value()], 0));
    }
    std::reverse(r.begin(), r.end());
    return r;
  };

  std::size_t added = 0;
  while (added < flows) {
    const std::size_t a = rng.NextBelow(cores);
    const std::size_t b = rng.NextBelow(cores);
    if (a == b) {
      continue;
    }
    const FlowId f = d.traffic.AddFlow(
        core_ids[a], core_ids[b],
        static_cast<double>(rng.NextInRange(10, 200)));
    d.routes.Resize(d.traffic.FlowCount());
    const SwitchId from = d.attachment[a];
    const SwitchId to = d.attachment[b];
    d.routes.SetRoute(f, from == to ? Route{} : bfs_route(from, to));
    ++added;
  }
  d.Validate();
  return d;
}

std::map<std::string, std::string> JsonMembers(const std::string& json) {
  const JsonValue object = JsonValue::Parse(json);
  std::map<std::string, std::string> members;
  for (const auto& [key, value] : object.Members()) {
    std::string& text = members[key];
    switch (value.kind()) {
      case JsonValue::Kind::kString:
        text = "\"" + value.AsString() + "\"";
        break;
      case JsonValue::Kind::kBool:
        text = value.AsBool() ? "true" : "false";
        break;
      case JsonValue::Kind::kNumber:
        try {
          text = std::to_string(value.AsUint());
        } catch (const InvalidModelError&) {
          text = std::to_string(value.AsDouble());
        }
        break;
      default:
        text = "?";
    }
  }
  return members;
}

}  // namespace nocdr::testing
