#include "synth/route_builder.h"

#include <algorithm>
#include <cstdint>
#include <limits>
#include <queue>
#include <utility>

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

/// Throws unless \p table is sized for \p n switches; \p who prefixes
/// the message.
void RequireSized(const NextHopTable& table, std::size_t n, const char* who) {
  Require(table.SwitchCount() == n, who, ": table sized for ",
          table.SwitchCount(), " switches, the topology has ", n);
}

/// Throws unless \p d names a column of a table of \p n switches.
void RequireColumnIndex(SwitchId d, std::size_t n) {
  Require(d.valid() && d.value() < n, "NextHopTable: column ", d.value(),
          " out of range for ", n, " switches");
}

/// Where fat-tree switch \p s sits, for \p arity children per switch:
/// its level (0 = root), the first switch and the width of that level,
/// and its index within the level.
struct TreePlace {
  std::size_t level = 0;
  std::size_t start = 0;
  std::size_t width = 1;
  std::size_t index = 0;
};

TreePlace PlaceInTree(std::size_t s, std::size_t arity) {
  TreePlace place;
  while (s >= place.start + place.width) {
    place.start += place.width;
    place.width *= arity;
    ++place.level;
  }
  place.index = s - place.start;
  return place;
}

/// True when a grid hop from coordinate \p from toward \p to goes the +
/// way: toward it on a mesh, the shorter way around on a wrapped
/// dimension of \p extent (ties toward +).
bool PositiveHop(std::size_t from, std::size_t to, std::size_t extent,
                 bool wrap) {
  if (!wrap) {
    return to > from;
  }
  const std::size_t forward = to >= from ? to - from : to + extent - from;
  return forward <= extent - forward;
}

/// Journal stamp of an element that has not failed.
constexpr std::uint32_t kNever = std::numeric_limits<std::uint32_t>::max();

/// The failure masks of one patch round, read off the journal's stamps:
/// an element is down in round r when it was stamped in a round <= r.
/// Empty stamps mean nothing failed (the validator's view).
struct RoundMasks {
  std::span<const std::uint32_t> link_down;
  std::span<const std::uint32_t> switch_failed;
  std::uint32_t round = 0;

  bool LinkDown(LinkId l) const {
    return !link_down.empty() && link_down[l.value()] <= round;
  }
  bool SwitchDown(std::size_t s) const {
    return !switch_failed.empty() && switch_failed[s] <= round;
  }
};

// Walk verdicts of ClassifyWalks.
constexpr std::uint8_t kUnclassified = 0;
constexpr std::uint8_t kReaches = 1;
constexpr std::uint8_t kBroken = 2;

/// The table-walk classifier behind ValidateNextHopTable and the column
/// patch. Classifies every source's walk down \p column toward \p d by
/// pointer chasing with memoization, so each switch is chased once:
/// status[s] becomes kReaches when the walk from s arrives at d, and
/// kBroken when it crosses a link or switch down under \p masks, hits a
/// hole or exceeds n switches (a routing loop). Sources with a hole stay
/// kUnclassified unless some other walk runs into them. Returns the
/// lowest source with a filled entry whose walk is broken, or n when
/// there is none. \p chain is a reused buffer.
std::size_t ClassifyWalks(const TopologyGraph& topology,
                          std::span<const LinkId> column, std::size_t d,
                          const RoundMasks& masks,
                          std::vector<std::uint8_t>& status,
                          std::vector<std::uint32_t>& chain) {
  const std::size_t n = column.size();
  status.assign(n, kUnclassified);
  status[d] = kReaches;
  std::size_t first_broken = n;
  for (std::size_t s = 0; s < n; ++s) {
    if (status[s] != kUnclassified || !column[s].valid()) {
      continue;
    }
    chain.clear();
    std::size_t cur = s;
    while (status[cur] == kUnclassified) {
      chain.push_back(static_cast<std::uint32_t>(cur));
      const LinkId l = column[cur];
      if (chain.size() > n || masks.SwitchDown(cur) || !l.valid()) {
        break;  // a routing loop, a failed switch or a hole
      }
      // LinkAt throws on an entry naming no link, before its stamp is read.
      const Link& link = topology.LinkAt(l);
      if (masks.LinkDown(l)) {
        break;  // a failed link
      }
      cur = link.dst.value();
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

/// Buffers PatchColumn reuses from one column to the next.
struct PatchScratch {
  std::vector<std::uint8_t> status;
  std::vector<std::uint32_t> chain;
  std::vector<std::uint32_t> dist;
  std::vector<LinkId> via;
  std::vector<std::uint32_t> queue;
};

/// One round of the detour repair (PatchNextHopTable) on \p column, the
/// entries toward \p d, under \p masks. Reads and writes that column
/// only. Returns the number of filled entries it disconnected.
std::size_t PatchColumn(const TopologyGraph& topology,
                        std::span<LinkId> column, std::size_t d,
                        const RoundMasks& masks, PatchScratch& scratch) {
  const std::size_t n = column.size();
  if (masks.SwitchDown(d)) {
    // Nothing can route to a dead switch; drop every entry toward it.
    std::fill(column.begin(), column.end(), LinkId());
    return 0;
  }
  const std::vector<std::uint8_t>& status = scratch.status;
  if (ClassifyWalks(topology, column, d, masks, scratch.status,
                    scratch.chain) == n) {
    return 0;  // every filled walk toward d survives
  }
  // Backward BFS from d over surviving links: dist[s] = surviving hops
  // from s to d, via[s] = the first link of one such shortest path.
  // Incoming links are scanned in ascending id order, so ties break
  // deterministically toward the lowest link id.
  constexpr std::uint32_t kUnreached =
      std::numeric_limits<std::uint32_t>::max();
  std::vector<std::uint32_t>& dist = scratch.dist;
  std::vector<LinkId>& via = scratch.via;
  std::vector<std::uint32_t>& queue = scratch.queue;
  dist.assign(n, kUnreached);
  via.assign(n, LinkId());
  dist[d] = 0;
  queue.assign(1, static_cast<std::uint32_t>(d));
  for (std::size_t head = 0; head < queue.size(); ++head) {
    const SwitchId v(queue[head]);
    for (const LinkId l : topology.InLinks(v)) {
      if (masks.LinkDown(l)) {
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
  std::size_t disconnected = 0;
  for (std::size_t s = 0; s < n; ++s) {
    if (s == d || status[s] != kBroken) {
      continue;
    }
    if (masks.SwitchDown(s)) {
      column[s] = LinkId();
      continue;
    }
    if (dist[s] == kUnreached) {
      column[s] = LinkId();
      ++disconnected;
      continue;
    }
    column[s] = via[s];
  }
  return disconnected;
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

std::size_t NextHopRule::SwitchCount() const {
  switch (kind) {
    case Kind::kNone:
      return 0;
    case Kind::kGrid:
      return width * height;
    case Kind::kFatTree: {
      std::size_t count = 0;
      std::size_t per_level = 1;
      for (std::size_t l = 0; l < levels; ++l) {
        count += per_level;
        per_level *= arity;
      }
      return count;
    }
  }
  return 0;
}

std::size_t NextHopRule::PortsPerSwitch() const {
  switch (kind) {
    case Kind::kNone:
      return 0;
    case Kind::kGrid:
      return 4;
    case Kind::kFatTree:
      return 2 * uplinks;
  }
  return 0;
}

LinkId NextHopRule::NextHop(std::size_t s, std::size_t d) const {
  if (s == d) {
    return LinkId();
  }
  switch (kind) {
    case Kind::kNone:
      return LinkId();
    case Kind::kGrid: {
      // Correct x fully, then y.
      const std::size_t sx = s % width;
      const std::size_t dx = d % width;
      if (sx != dx) {
        return ports[s * 4 +
                     (PositiveHop(sx, dx, width, wrap) ? kPlusX : kMinusX)];
      }
      return ports[s * 4 + (PositiveHop(s / width, d / width, height, wrap)
                                ? kPlusY
                                : kMinusY)];
    }
    case Kind::kFatTree: {
      // Down from each of d's ancestors toward the child on d's side, up
      // from every other switch.
      const TreePlace from = PlaceInTree(s, arity);
      const TreePlace to = PlaceInTree(d, arity);
      const std::size_t parallel = d % uplinks;
      if (to.level > from.level) {
        std::size_t below = to.index;  // d's ancestor one level below s
        for (std::size_t l = to.level; l > from.level + 1; --l) {
          below /= arity;
        }
        if (below / arity == from.index) {
          const std::size_t child = from.start + from.width + below;
          return ports[child * 2 * uplinks + uplinks + parallel];
        }
      }
      return ports[s * 2 * uplinks + parallel];
    }
  }
  return LinkId();
}

void NextHopRule::FillColumn(std::size_t d, std::span<LinkId> column) const {
  for (std::size_t s = 0; s < column.size(); ++s) {
    column[s] = NextHop(s, d);
  }
}

std::span<const LinkId> NextHopColumn::Entries(
    std::vector<LinkId>& scratch) const {
  if (stored_ != nullptr) {
    return {stored_, n_};
  }
  scratch.resize(n_);
  rule_->FillColumn(d_, scratch);
  return scratch;
}

bool NextHopColumn::operator==(const NextHopColumn& other) const {
  if (n_ != other.n_) {
    return false;
  }
  for (std::size_t s = 0; s < n_; ++s) {
    if ((*this)[s] != other[s]) {
      return false;
    }
  }
  return true;
}

NextHopTable::NextHopTable(std::size_t switch_count)
    : n_(switch_count), columns_(switch_count) {}

NextHopTable::NextHopTable(NextHopRule rule)
    : n_(rule.SwitchCount()), rule_(std::move(rule)), columns_(n_) {
  Require(rule_.ports.size() == n_ * rule_.PortsPerSwitch(),
          "NextHopTable: the rule has ", rule_.ports.size(), " ports for ",
          n_, " switches");
}

NextHopColumn NextHopTable::Column(SwitchId d) const {
  RequireColumnIndex(d, n_);
  const ColumnState& column = columns_[d.value()];
  Require(column.rounds == rounds_, "NextHopTable: column ", d.value(),
          " read with patch rounds pending (", column.rounds, " of ", rounds_,
          " applied)");
  NextHopColumn view;
  view.stored_ = column.entries.empty() ? nullptr : column.entries.data();
  view.rule_ = &rule_;
  view.d_ = d.value();
  view.n_ = n_;
  return view;
}

std::span<LinkId> NextHopTable::Store(std::size_t d) {
  std::vector<LinkId>& entries = columns_[d].entries;
  if (entries.empty()) {
    entries.resize(n_);
    rule_.FillColumn(d, entries);
  }
  return entries;
}

std::span<LinkId> NextHopTable::MutableColumn(SwitchId d) {
  (void)Column(d);  // the range and pending-round checks
  return Store(d.value());
}

std::size_t NextHopTable::StoredColumns() const {
  return static_cast<std::size_t>(
      std::count_if(columns_.begin(), columns_.end(),
                    [](const ColumnState& c) { return !c.entries.empty(); }));
}

std::size_t NextHopTable::PendingRounds(SwitchId d) const {
  RequireColumnIndex(d, n_);
  return rounds_ - columns_[d.value()].rounds;
}

void NextHopTable::JournalRound(const TopologyGraph& topology,
                                const std::vector<char>& failed_links,
                                const std::vector<char>& failed_switches) {
  const std::size_t links = topology.LinkCount();
  RequireSized(*this, topology.SwitchCount(), "NextHopTable::JournalRound");
  Require(failed_links.empty() || failed_links.size() == links,
          "NextHopTable: failed-link mask size mismatch");
  Require(failed_switches.empty() || failed_switches.size() == n_,
          "NextHopTable: failed-switch mask size mismatch");
  Require(link_failed_.empty() || link_failed_.size() == links,
          "NextHopTable: journal holds ", link_failed_.size(),
          " links, the topology has ", links);
  Require(rounds_ + 1 < kNever, "NextHopTable: too many patch rounds");
  const auto failed = [](const std::vector<char>& mask, std::size_t i) {
    return !mask.empty() && mask[i] != 0;
  };
  const std::uint32_t round = rounds_ + 1;
  for (std::size_t l = 0; l < link_failed_.size(); ++l) {
    Require(link_failed_[l] == kNever || failed(failed_links, l),
            "NextHopTable: round ", round, " un-fails link ", l,
            ", failed in round ", link_failed_[l]);
  }
  for (std::size_t s = 0; s < switch_failed_.size(); ++s) {
    Require(switch_failed_[s] == kNever || failed(failed_switches, s),
            "NextHopTable: round ", round, " un-fails switch ", s,
            ", failed in round ", switch_failed_[s]);
  }
  if (link_failed_.empty()) {
    link_failed_.assign(links, kNever);
    link_down_.assign(links, kNever);
    switch_failed_.assign(n_, kNever);
  }
  for (std::size_t l = 0; l < links; ++l) {
    if (link_failed_[l] == kNever && failed(failed_links, l)) {
      link_failed_[l] = round;
    }
  }
  for (std::size_t s = 0; s < n_; ++s) {
    if (switch_failed_[s] == kNever && failed(failed_switches, s)) {
      switch_failed_[s] = round;
    }
  }
  for (std::size_t l = 0; l < links; ++l) {
    const Link& link = topology.LinkAt(LinkId(l));
    link_down_[l] = std::min({link_failed_[l],
                              switch_failed_[link.src.value()],
                              switch_failed_[link.dst.value()]});
  }
  rounds_ = round;
}

TableRefresh NextHopTable::Refresh(const TopologyGraph& topology,
                                   std::span<const SwitchId> columns) {
  RequireSized(*this, topology.SwitchCount(), "NextHopTable::Refresh");
  TableRefresh refresh;
  PatchScratch scratch;
  for (const SwitchId d : columns) {
    RequireColumnIndex(d, n_);
    ColumnState& state = columns_[d.value()];
    if (state.rounds == rounds_) {
      continue;
    }
    ++refresh.columns;
    refresh.column_rounds += rounds_ - state.rounds;
    const std::span<LinkId> column = Store(d.value());
    for (; state.rounds < rounds_; ++state.rounds) {
      refresh.disconnected += PatchColumn(
          topology, column, d.value(),
          RoundMasks{link_down_, switch_failed_, state.rounds + 1}, scratch);
    }
  }
  return refresh;
}

TableRefresh NextHopTable::Flush(const TopologyGraph& topology) {
  std::vector<SwitchId> all;
  all.reserve(n_);
  for (std::size_t d = 0; d < n_; ++d) {
    all.emplace_back(d);
  }
  return Refresh(topology, all);
}

bool NextHopTable::operator==(const NextHopTable& other) const {
  if (n_ != other.n_) {
    return false;
  }
  bool equal = true;
  for (std::size_t d = 0; d < n_; ++d) {
    // Both columns are read (and checked) before the comparison.
    equal = (Column(SwitchId(d)) == other.Column(SwitchId(d))) && equal;
  }
  return equal;
}

void ValidateNextHopTable(const TopologyGraph& topology,
                          const NextHopTable& table) {
  const std::size_t n = topology.SwitchCount();
  RequireSized(table, n, "NextHopTable");
  // Column by column: its entries, then its walks in one memoized pass
  // (the entries a walk follows are checked before it follows them).
  std::vector<std::uint8_t> status;
  std::vector<std::uint32_t> chain;
  std::vector<LinkId> scratch;
  for (std::size_t d = 0; d < n; ++d) {
    const std::span<const LinkId> column =
        table.Column(SwitchId(d)).Entries(scratch);
    for (std::size_t s = 0; s < n; ++s) {
      const LinkId l = column[s];
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
    const std::size_t s =
        ClassifyWalks(topology, column, d, RoundMasks{}, status, chain);
    Require(s == n, "NextHopTable: the walk from ", s, " to ", d,
            " hits a hole or a routing loop");
  }
}

std::optional<Route> WalkTableRoute(const TopologyGraph& topology,
                                    const NextHopTable& table, SwitchId src,
                                    SwitchId dst) {
  Require(topology.IsValidSwitch(src) && topology.IsValidSwitch(dst),
          "WalkTableRoute: invalid endpoint switch");
  const std::size_t n = topology.SwitchCount();
  RequireSized(table, n, "WalkTableRoute");
  const NextHopColumn column = table.Column(dst);
  Route route;
  SwitchId cur = src;
  while (cur != dst) {
    const LinkId l = column[cur.value()];
    if (!l.valid()) {
      return std::nullopt;  // hole: this pair needs the rip-up fallback
    }
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
  table.JournalRound(topology, failed_links, failed_switches);
  return table.Flush(topology).disconnected;
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
  RequireSized(table, topology.SwitchCount(), "BuildTableRoutes");
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
