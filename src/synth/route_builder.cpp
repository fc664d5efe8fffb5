#include "synth/route_builder.h"

#include <algorithm>
#include <cstdint>
#include <limits>
#include <queue>

#include "util/error.h"

namespace nocdr {

namespace {

struct QueueEntry {
  double dist;
  std::uint32_t node;

  bool operator>(const QueueEntry& other) const {
    if (dist != other.dist) {
      return dist > other.dist;
    }
    return node > other.node;  // deterministic tie-break
  }
};

/// True when \p l cannot carry traffic under the failure masks: its own
/// entry is set, or either endpoint switch has failed. Empty masks mean
/// nothing failed.
bool LinkDown(const TopologyGraph& topology, LinkId l,
              const std::vector<char>& failed_links,
              const std::vector<char>& failed_switches) {
  if (!failed_links.empty() && failed_links[l.value()]) {
    return true;
  }
  if (failed_switches.empty()) {
    return false;
  }
  const Link& link = topology.LinkAt(l);
  return failed_switches[link.src.value()] ||
         failed_switches[link.dst.value()];
}

bool SwitchDown(SwitchId s, const std::vector<char>& failed_switches) {
  return !failed_switches.empty() && failed_switches[s.value()];
}

/// Congestion-aware Dijkstra behind BuildRoutes and RerouteFlows. Routes
/// \p flows heaviest-first (stable in the given order) over the links the
/// failure masks leave usable. A link weighs one hop plus a penalty for
/// the bandwidth already in \p committed; each new route adds its flow's
/// bandwidth there. \p who prefixes error messages.
void RouteHeaviestFirst(const TopologyGraph& topology,
                        const CommunicationGraph& traffic,
                        const std::vector<SwitchId>& attachment,
                        std::vector<FlowId> flows,
                        const std::vector<char>& failed_links,
                        const std::vector<char>& failed_switches,
                        const RouteBuildOptions& options,
                        std::vector<double>& committed, RouteSet& routes,
                        const std::string& who) {
  // Heaviest flows first: they get the short paths, lighter flows detour.
  std::stable_sort(flows.begin(), flows.end(), [&](FlowId a, FlowId b) {
    return traffic.FlowAt(a).bandwidth_mbps > traffic.FlowAt(b).bandwidth_mbps;
  });

  constexpr double kInf = std::numeric_limits<double>::infinity();
  const std::size_t n = topology.SwitchCount();
  std::vector<double> dist(n);
  std::vector<LinkId> via(n);  // incoming link on the best path
  for (const FlowId f : flows) {
    const Flow& flow = traffic.FlowAt(f);
    const SwitchId src = attachment[flow.src.value()];
    const SwitchId dst = attachment[flow.dst.value()];
    Require(!SwitchDown(src, failed_switches) &&
                !SwitchDown(dst, failed_switches),
            who, ": endpoint switch of flow ", f.value(), " has failed");
    if (src == dst) {
      routes.SetRoute(f, {});  // local to one switch; no channels used
      continue;
    }

    std::fill(dist.begin(), dist.end(), kInf);
    std::priority_queue<QueueEntry, std::vector<QueueEntry>,
                        std::greater<QueueEntry>>
        queue;
    dist[src.value()] = 0.0;
    queue.push(QueueEntry{0.0, src.value()});
    while (!queue.empty()) {
      const QueueEntry top = queue.top();
      queue.pop();
      if (top.dist > dist[top.node]) {
        continue;
      }
      if (SwitchId(top.node) == dst) {
        break;
      }
      for (LinkId l : topology.OutLinks(SwitchId(top.node))) {
        if (LinkDown(topology, l, failed_links, failed_switches)) {
          continue;
        }
        const Link& link = topology.LinkAt(l);
        const double penalty =
            options.congestion_weight *
            (committed[l.value()] / options.link_capacity_mbps);
        const double candidate = top.dist + 1.0 + penalty;
        if (candidate + 1e-12 < dist[link.dst.value()]) {
          dist[link.dst.value()] = candidate;
          via[link.dst.value()] = l;
          queue.push(QueueEntry{candidate, link.dst.value()});
        }
      }
    }
    Require(dist[dst.value()] != kInf,
            who, ": no path between switches of flow ", f.value());

    // Walk back along `via`, emitting the VC-0 channel of each link.
    Route route;
    for (SwitchId cur = dst; cur != src;) {
      const LinkId l = via[cur.value()];
      auto channel = topology.FindChannel(l, 0);
      Require(channel.has_value(), who, ": link missing VC 0");
      route.push_back(*channel);
      committed[l.value()] += flow.bandwidth_mbps;
      cur = topology.LinkAt(l).src;
    }
    std::reverse(route.begin(), route.end());
    routes.SetRoute(f, std::move(route));
  }
}

/// Throws unless \p table is \p n x \p n; \p who prefixes the message.
void RequireSquare(const NextHopTable& table, std::size_t n,
                   const std::string& who) {
  Require(table.size() == n, who, ": row count != switch count");
  for (std::size_t s = 0; s < n; ++s) {
    Require(table[s].size() == n, who, ": row ", s,
            " column count != switch count");
  }
}

// Walk verdicts of ClassifyWalks.
constexpr std::uint8_t kUnclassified = 0;
constexpr std::uint8_t kReaches = 1;
constexpr std::uint8_t kBroken = 2;

/// The table-walk classifier behind ValidateNextHopTable and
/// PatchNextHopTable. Classifies every source's walk toward \p d by
/// pointer chasing with memoization, so each switch is chased once per
/// destination: status[s] becomes kReaches when the walk from s arrives
/// at d, and kBroken when it crosses a failed link or switch, hits a hole
/// or exceeds n switches (a routing loop). Sources with a hole stay
/// kUnclassified unless some other walk runs into them. Returns the lowest
/// source with a filled entry whose walk is broken, or n when there is
/// none. \p table must be square (RequireSquare); \p chain is a reused
/// buffer.
std::size_t ClassifyWalks(const TopologyGraph& topology,
                          const NextHopTable& table, std::size_t d,
                          const std::vector<char>& failed_links,
                          const std::vector<char>& failed_switches,
                          std::vector<std::uint8_t>& status,
                          std::vector<std::uint32_t>& chain) {
  const std::size_t n = table.size();
  status.assign(n, kUnclassified);
  status[d] = kReaches;
  std::size_t first_broken = n;
  for (std::size_t s = 0; s < n; ++s) {
    if (status[s] != kUnclassified || !table[s][d].valid()) {
      continue;
    }
    chain.clear();
    std::size_t cur = s;
    while (status[cur] == kUnclassified) {
      chain.push_back(static_cast<std::uint32_t>(cur));
      const LinkId l = table[cur][d];
      if (chain.size() > n || SwitchDown(SwitchId(cur), failed_switches) ||
          !l.valid() || LinkDown(topology, l, failed_links, failed_switches)) {
        break;  // a routing loop, a failure or a hole
      }
      cur = topology.LinkAt(l).dst.value();
    }
    const std::uint8_t verdict =
        status[cur] == kUnclassified ? kBroken : status[cur];
    for (const std::uint32_t v : chain) {
      status[v] = verdict;
    }
    if (verdict == kBroken && first_broken == n) {
      first_broken = s;
    }
  }
  return first_broken;
}

}  // namespace

RouteSet BuildRoutes(const TopologyGraph& topology,
                     const CommunicationGraph& traffic,
                     const std::vector<SwitchId>& attachment,
                     const RouteBuildOptions& options) {
  Require(attachment.size() == traffic.CoreCount(),
          "BuildRoutes: attachment incomplete");
  RouteSet routes(traffic.FlowCount());
  std::vector<FlowId> flows;
  flows.reserve(traffic.FlowCount());
  for (std::size_t fi = 0; fi < traffic.FlowCount(); ++fi) {
    flows.push_back(FlowId(fi));
  }
  std::vector<double> committed(topology.LinkCount(), 0.0);
  RouteHeaviestFirst(topology, traffic, attachment, std::move(flows), {}, {},
                     options, committed, routes, "BuildRoutes");
  return routes;
}

void ValidateNextHopTable(const TopologyGraph& topology,
                          const NextHopTable& table) {
  const std::size_t n = topology.SwitchCount();
  RequireSquare(table, n, "NextHopTable");
  for (std::size_t s = 0; s < n; ++s) {
    for (std::size_t d = 0; d < n; ++d) {
      const LinkId l = table[s][d];
      if (!l.valid()) {
        continue;
      }
      Require(s != d, "NextHopTable: self entry on switch ", s);
      Require(topology.IsValidLink(l), "NextHopTable: invalid link on (", s,
              ",", d, ")");
      Require(topology.LinkAt(l).src == SwitchId(s),
              "NextHopTable: link on (", s, ",", d,
              ") does not leave switch ", s);
    }
  }
  // Every filled pair must reach its destination without revisiting a
  // switch: one memoized pass per destination.
  std::vector<std::uint8_t> status;
  std::vector<std::uint32_t> chain;
  for (std::size_t d = 0; d < n; ++d) {
    const std::size_t s = ClassifyWalks(topology, table, d, {}, {}, status,
                                        chain);
    Require(s == n, "NextHopTable: the walk from ", s, " to ", d,
            " hits a hole or a routing loop");
  }
}

std::optional<Route> WalkTableRoute(const TopologyGraph& topology,
                                    const NextHopTable& table, SwitchId src,
                                    SwitchId dst) {
  Require(topology.IsValidSwitch(src) && topology.IsValidSwitch(dst),
          "WalkTableRoute: invalid endpoint switch");
  Require(table.size() == topology.SwitchCount(),
          "WalkTableRoute: table row count != switch count");
  const std::size_t n = topology.SwitchCount();
  Route route;
  SwitchId cur = src;
  while (cur != dst) {
    const auto& row = table[cur.value()];
    if (row.size() != n || !row[dst.value()].valid()) {
      return std::nullopt;  // hole: this pair needs the rip-up fallback
    }
    const LinkId l = row[dst.value()];
    Require(topology.IsValidLink(l) && topology.LinkAt(l).src == cur,
            "WalkTableRoute: table entry does not leave switch ",
            cur.value());
    const auto channel = topology.FindChannel(l, 0);
    Require(channel.has_value(), "WalkTableRoute: link missing VC 0");
    route.push_back(*channel);
    cur = topology.LinkAt(l).dst;
    if (route.size() > n) {
      return std::nullopt;  // routing loop (possible mid-patch)
    }
  }
  return route;
}

std::size_t PatchNextHopTable(const TopologyGraph& topology,
                              NextHopTable& table,
                              const std::vector<char>& failed_links,
                              const std::vector<char>& failed_switches) {
  const std::size_t n = topology.SwitchCount();
  RequireSquare(table, n, "PatchNextHopTable");
  Require(failed_links.empty() || failed_links.size() == topology.LinkCount(),
          "PatchNextHopTable: failed-link mask size mismatch");
  Require(failed_switches.empty() || failed_switches.size() == n,
          "PatchNextHopTable: failed-switch mask size mismatch");

  std::size_t disconnected = 0;
  std::vector<std::uint8_t> status;
  std::vector<std::uint32_t> chain;
  std::vector<std::uint32_t> dist(n);
  std::vector<LinkId> via(n);
  std::vector<std::uint32_t> queue;
  constexpr std::uint32_t kUnreached =
      std::numeric_limits<std::uint32_t>::max();

  for (std::size_t d = 0; d < n; ++d) {
    if (SwitchDown(SwitchId(d), failed_switches)) {
      // Nothing can route to a dead switch; drop every entry toward it.
      for (std::size_t s = 0; s < n; ++s) {
        table[s][d] = LinkId();
      }
      continue;
    }
    if (ClassifyWalks(topology, table, d, failed_links, failed_switches,
                      status, chain) == n) {
      continue;  // every filled walk toward d survives
    }
    // Backward BFS from d over surviving links: dist[s] = surviving hops
    // from s to d, via[s] = the first link of one such shortest path.
    // Incoming links are scanned in ascending id order, so ties break
    // deterministically toward the lowest link id.
    std::fill(dist.begin(), dist.end(), kUnreached);
    std::fill(via.begin(), via.end(), LinkId());
    dist[d] = 0;
    queue.assign(1, static_cast<std::uint32_t>(d));
    for (std::size_t head = 0; head < queue.size(); ++head) {
      const SwitchId v(queue[head]);
      for (const LinkId l : topology.InLinks(v)) {
        if (LinkDown(topology, l, failed_links, failed_switches)) {
          continue;
        }
        const std::size_t u = topology.LinkAt(l).src.value();
        if (dist[u] != kUnreached) {
          continue;
        }
        dist[u] = dist[v.value()] + 1;
        via[u] = l;
        queue.push_back(static_cast<std::uint32_t>(u));
      }
    }
    // Re-aim every broken walk; a hole some walk ran into is broken too.
    for (std::size_t s = 0; s < n; ++s) {
      if (s == d || status[s] != kBroken) {
        continue;
      }
      if (SwitchDown(SwitchId(s), failed_switches)) {
        table[s][d] = LinkId();
        continue;
      }
      if (dist[s] == kUnreached) {
        table[s][d] = LinkId();
        ++disconnected;
        continue;
      }
      table[s][d] = via[s];
    }
  }
  return disconnected;
}

void RerouteFlows(NocDesign& design, const std::vector<FlowId>& flows,
                  const std::vector<char>& failed_links,
                  const std::vector<char>& failed_switches,
                  const RouteBuildOptions& options) {
  const TopologyGraph& topology = design.topology;
  Require(failed_links.empty() || failed_links.size() == topology.LinkCount(),
          "RerouteFlows: failed-link mask size mismatch");
  Require(failed_switches.empty() ||
              failed_switches.size() == topology.SwitchCount(),
          "RerouteFlows: failed-switch mask size mismatch");

  // Rip up: congestion committed by every flow except the re-routed set.
  std::vector<char> ripped(design.traffic.FlowCount(), 0);
  for (const FlowId f : flows) {
    Require(f.valid() && f.value() < design.traffic.FlowCount(),
            "RerouteFlows: invalid flow id");
    ripped[f.value()] = 1;
  }
  std::vector<double> committed(topology.LinkCount(), 0.0);
  for (std::size_t fi = 0; fi < design.traffic.FlowCount(); ++fi) {
    if (ripped[fi]) {
      continue;
    }
    const double bw = design.traffic.FlowAt(FlowId(fi)).bandwidth_mbps;
    for (const ChannelId c : design.routes.RouteOf(FlowId(fi))) {
      committed[topology.ChannelAt(c).link.value()] += bw;
    }
  }
  RouteHeaviestFirst(topology, design.traffic, design.attachment, flows,
                     failed_links, failed_switches, options, committed,
                     design.routes, "RerouteFlows");
}

RouteSet BuildTableRoutes(const TopologyGraph& topology,
                          const CommunicationGraph& traffic,
                          const std::vector<SwitchId>& attachment,
                          const NextHopTable& table) {
  Require(attachment.size() == traffic.CoreCount(),
          "BuildTableRoutes: attachment incomplete");
  Require(table.size() == topology.SwitchCount(),
          "BuildTableRoutes: table row count != switch count");
  RouteSet routes(traffic.FlowCount());
  for (std::size_t fi = 0; fi < traffic.FlowCount(); ++fi) {
    const FlowId f(fi);
    const Flow& flow = traffic.FlowAt(f);
    const SwitchId src = attachment[flow.src.value()];
    const SwitchId dst = attachment[flow.dst.value()];
    auto route = WalkTableRoute(topology, table, src, dst);
    Require(route.has_value(),
            "BuildTableRoutes: hole or routing loop on the walk from switch ",
            src.value(), " to switch ", dst.value(), " for flow ", fi);
    routes.SetRoute(f, std::move(*route));
  }
  return routes;
}

}  // namespace nocdr
