#include "cdg/incremental.h"

#include <algorithm>
#include <numeric>
#include <utility>

#include "util/error.h"

namespace nocdr {

namespace {

/// scc_ value of a region vertex whose component is not yet closed.
constexpr std::uint32_t kPending = 0xffffffffu;
/// index_ value of a region vertex Tarjan has not visited.
constexpr std::uint32_t kUnvisited = 0xffffffffu;

}  // namespace

DirtyCycleFinder::DirtyCycleFinder(ChannelDependencyGraph& graph)
    : graph_(graph) {
  // A second reader would empty the log under the first one.
  Require(!graph_.TracksChanges(),
          "DirtyCycleFinder: the graph already serves a finder");
  graph_.TrackChanges(true);
}

DirtyCycleFinder::~DirtyCycleFinder() { graph_.TrackChanges(false); }

std::optional<CdgCycle> DirtyCycleFinder::Pick(CyclePolicy policy) {
  ++stats_.picks;
  Refresh();
  if (by_length_.empty()) {
    return std::nullopt;
  }
  // The full scans keep the first best vertex in id order, so ties go to
  // the lowest vertex: the first entry of a length's bucket.
  std::uint32_t v = by_length_.begin()->second;
  switch (policy) {
    case CyclePolicy::kSmallestFirst:
      break;
    case CyclePolicy::kLargestFirst:
      v = by_length_.lower_bound({by_length_.rbegin()->first, 0})->second;
      break;
    case CyclePolicy::kFirstFound:
      // The lowest vertex with a cycle: the least of the buckets' firsts.
      for (auto it = by_length_.begin(); it != by_length_.end();
           it = by_length_.lower_bound({it->first + 1, 0})) {
        v = std::min(v, it->second);
      }
      break;
  }
  return cycle_[v];
}

void DirtyCycleFinder::NoteExternalEdges(std::span<const ChannelId> vertices) {
  for (const ChannelId v : vertices) {
    if (v.valid()) {
      tainted_.push_back(v);
    }
  }
}

void DirtyCycleFinder::Refresh() {
  const std::size_t n = graph_.VertexCount();
  cycle_.resize(n);
  scc_.resize(n);
  recheck_.resize(n, 0);
  index_.resize(n);
  lowlink_.resize(n);
  parent_.resize(n);
  stamp_.resize(n, 0);

  // An SCC of the previous pick that holds both ends of a deleted edge
  // may have lost a cached cycle; every other SCC kept all of its own.
  for (const auto& [from, to] : graph_.Changes().deleted) {
    if (from.value() < known_vertices_ && to.value() < known_vertices_ &&
        scc_[from.value()] == scc_[to.value()]) {
      scc_lost_[scc_[from.value()]] = 1;
    }
  }

  // Taints on vertices that exist force the whole-graph pass and are
  // consumed by it; taints on not-yet-created vertices stay pending so
  // the pass they force is not lost. Without a live taint the region is
  // what CollectRegion finds: at the first pick every vertex is fresh,
  // so that is the whole graph too.
  const auto pending = [n](ChannelId t) { return t.value() >= n; };
  const auto live = std::partition(tainted_.begin(), tainted_.end(), pending);
  if (live != tainted_.end()) {
    for (std::size_t v = 0; v < known_vertices_; ++v) {
      recheck_[v] = scc_lost_[scc_[v]];
    }
    region_.resize(n);
    std::iota(region_.begin(), region_.end(), 0u);
    scc_count_ = 0;
    members_.clear();
    scc_begin_.clear();
    scc_size_.clear();
    scc_marked_.clear();
    scc_lost_.clear();
  } else {
    CollectRegion();
  }
  graph_.ClearChanges();

  const std::uint32_t first_id = scc_count_;
  for (const std::uint32_t v : region_) {
    scc_[v] = kPending;
    index_[v] = kUnvisited;
  }
  ComputeRegionSccs();
  for (auto it = live; it != tainted_.end(); ++it) {
    scc_fresh_[scc_[it->value()] - first_id] = 1;
  }
  tainted_.erase(live, tainted_.end());

  for (const std::uint32_t v : region_) {
    const ChannelId c{v};
    const std::uint32_t id = scc_[v];
    const bool recheck = std::exchange(recheck_[v], 0) != 0;
    if (scc_size_[id] == 1 && !graph_.FindEdge(c, c)) {
      SetCycle(v, std::nullopt);
      continue;
    }
    if (!scc_fresh_[id - first_id] && cycle_[v]) {
      if (!recheck) {
        continue;
      }
      ++stats_.cycle_checks;
      if (CycleStillPresent(*cycle_[v])) {
        continue;
      }
    }
    SetCycle(v, BfsWithinScc(c, id));
    ++stats_.bfs_runs;
  }
  stats_.scc_vertices += region_.size();
  known_vertices_ = n;
  CompactMembers();
}

void DirtyCycleFinder::CollectRegion() {
  marked_ids_.clear();
  for (const ChannelId v : graph_.Changes().stamped) {
    if (v.value() >= known_vertices_) {
      continue;  // fresh: joins the region below
    }
    const std::uint32_t id = scc_[v.value()];
    if (!scc_marked_[id]) {
      scc_marked_[id] = 1;
      marked_ids_.push_back(id);
    }
  }
  // Every SCC that lost an internal edge is marked: deleting the edge
  // logged its from-vertex.
  region_.clear();
  for (const std::uint32_t id : marked_ids_) {
    const auto first = members_.begin() + scc_begin_[id];
    for (auto it = first; it != first + scc_size_[id]; ++it) {
      region_.push_back(*it);
      recheck_[*it] = scc_lost_[id];
    }
    scc_marked_[id] = 0;
    scc_lost_[id] = 0;
  }
  for (std::size_t v = known_vertices_; v < graph_.VertexCount(); ++v) {
    region_.push_back(static_cast<std::uint32_t>(v));
  }
}

void DirtyCycleFinder::ComputeRegionSccs() {
  // Only kPending vertices belong to the region and are still open: an
  // edge to any other vertex leaves the region or reaches a closed
  // component, and is ignored. An open vertex that has been visited is
  // on the Tarjan stack, so no separate on-stack flag is needed.
  scc_fresh_.clear();
  std::uint32_t next_index = 0;
  for (const std::uint32_t root : region_) {
    if (index_[root] != kUnvisited) {
      continue;
    }
    frames_.push_back({root, 0});
    while (!frames_.empty()) {
      Frame& frame = frames_.back();
      const std::uint32_t v = frame.vertex;
      if (frame.edge_pos == 0) {
        index_[v] = lowlink_[v] = next_index++;
        stack_.push_back(v);
      }
      const auto out = graph_.OutEdges(ChannelId(v));
      bool descended = false;
      while (frame.edge_pos < out.size()) {
        const std::uint32_t w = out[frame.edge_pos].to.value();
        ++frame.edge_pos;
        if (scc_[w] != kPending) {
          continue;
        }
        if (index_[w] == kUnvisited) {
          frames_.push_back({w, 0});
          descended = true;
          break;
        }
        lowlink_[v] = std::min(lowlink_[v], index_[w]);
      }
      if (descended) {
        continue;
      }
      // v is finished: close its component if it is a root.
      if (lowlink_[v] == index_[v]) {
        const auto begin = static_cast<std::uint32_t>(members_.size());
        char fresh = 0;
        std::uint32_t w;
        do {
          w = stack_.back();
          stack_.pop_back();
          scc_[w] = scc_count_;
          members_.push_back(w);
          fresh |= static_cast<char>(w >= known_vertices_);
        } while (w != v);
        ++scc_count_;
        scc_begin_.push_back(begin);
        scc_size_.push_back(static_cast<std::uint32_t>(members_.size()) -
                            begin);
        scc_marked_.push_back(0);
        scc_lost_.push_back(0);
        scc_fresh_.push_back(fresh);
      }
      frames_.pop_back();
      if (!frames_.empty()) {
        const std::uint32_t parent = frames_.back().vertex;
        lowlink_[parent] = std::min(lowlink_[parent], lowlink_[v]);
      }
    }
  }
}

void DirtyCycleFinder::CompactMembers() {
  // Each vertex is a member of exactly one live component, so the list
  // holds VertexCount() live entries; the rest belong to dead ids.
  if (members_.size() <= 2 * graph_.VertexCount()) {
    return;
  }
  // Ids grow with creation, so a dead id's members already carry a
  // later id, and renumbering in id order never confuses the two.
  std::vector<std::uint32_t> members;
  members.reserve(graph_.VertexCount());
  std::uint32_t live = 0;
  for (std::uint32_t id = 0; id < scc_count_; ++id) {
    const std::uint32_t begin = scc_begin_[id];
    const std::uint32_t size = scc_size_[id];
    if (scc_[members_[begin]] != id) {
      continue;
    }
    scc_begin_[live] = static_cast<std::uint32_t>(members.size());
    scc_size_[live] = size;
    for (std::uint32_t k = begin; k < begin + size; ++k) {
      scc_[members_[k]] = live;
      members.push_back(members_[k]);
    }
    ++live;
  }
  scc_count_ = live;
  scc_begin_.resize(live);
  scc_size_.resize(live);
  scc_marked_.resize(live);
  scc_lost_.resize(live);
  members_ = std::move(members);
}

void DirtyCycleFinder::SetCycle(std::uint32_t v,
                                std::optional<CdgCycle> cycle) {
  if (cycle_[v]) {
    by_length_.erase({static_cast<std::uint32_t>(cycle_[v]->size()), v});
  }
  if (cycle) {
    by_length_.emplace(static_cast<std::uint32_t>(cycle->size()), v);
  }
  cycle_[v] = std::move(cycle);
}

std::optional<CdgCycle> DirtyCycleFinder::BfsWithinScc(ChannelId start,
                                                       std::uint32_t scc) {
  // Mirrors ShortestCycleThrough exactly, except vertices outside start's
  // SCC are never enqueued: no closed walk through start can leave the
  // component, and in-component vertices are only ever discovered from
  // in-component parents, so the BFS tree restricted to the component is
  // unchanged and the returned cycle is identical.
  ++epoch_;
  queue_.clear();
  for (const auto& ref : graph_.OutEdges(start)) {
    const ChannelId w = ref.to;
    if (w == start) {
      return CdgCycle{start};
    }
    if (scc_[w.value()] == scc && stamp_[w.value()] != epoch_) {
      stamp_[w.value()] = epoch_;
      parent_[w.value()] = start.value();
      queue_.push_back(w);
    }
  }
  for (std::size_t head = 0; head < queue_.size(); ++head) {
    const ChannelId v = queue_[head];
    for (const auto& ref : graph_.OutEdges(v)) {
      const ChannelId w = ref.to;
      if (w == start) {
        CdgCycle cycle;
        for (ChannelId cur = v; cur != start;
             cur = ChannelId(parent_[cur.value()])) {
          cycle.push_back(cur);
        }
        cycle.push_back(start);
        std::reverse(cycle.begin(), cycle.end());
        return cycle;
      }
      if (scc_[w.value()] == scc && stamp_[w.value()] != epoch_) {
        stamp_[w.value()] = epoch_;
        parent_[w.value()] = v.value();
        queue_.push_back(w);
      }
    }
  }
  return std::nullopt;
}

bool DirtyCycleFinder::CycleStillPresent(const CdgCycle& cycle) const {
  const std::size_t m = cycle.size();
  for (std::size_t i = 0; i < m; ++i) {
    if (!graph_.FindEdge(cycle[i], cycle[(i + 1) % m])) {
      return false;
    }
  }
  return true;
}

}  // namespace nocdr
