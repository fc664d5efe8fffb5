#include "cdg/incremental.h"

#include <algorithm>
#include <numeric>

namespace nocdr {

namespace {

/// scc_ value of a region vertex whose component is not yet closed.
constexpr std::uint32_t kPending = 0xffffffffu;
/// index_ value of a region vertex Tarjan has not visited.
constexpr std::uint32_t kUnvisited = 0xffffffffu;

}  // namespace

std::optional<CdgCycle> DirtyCycleFinder::Pick(CyclePolicy policy) {
  ++stats_.picks;
  Refresh();

  const std::size_t n = graph_.VertexCount();
  std::optional<std::size_t> best;
  for (std::size_t v = 0; v < n; ++v) {
    if (!cycle_[v]) {
      continue;
    }
    switch (policy) {
      case CyclePolicy::kFirstFound:
        return cycle_[v];
      case CyclePolicy::kSmallestFirst:
        if (!best || cycle_[v]->size() < cycle_[*best]->size()) {
          best = v;
        }
        break;
      case CyclePolicy::kLargestFirst:
        if (!best || cycle_[v]->size() > cycle_[*best]->size()) {
          best = v;
        }
        break;
    }
  }
  if (!best) {
    return std::nullopt;
  }
  return cycle_[*best];
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
  index_.resize(n);
  lowlink_.resize(n);
  parent_.resize(n);
  stamp_.resize(n, 0);

  // Taints on vertices that exist force the whole-graph pass and are
  // consumed by it; taints on not-yet-created vertices stay pending so
  // the pass they force is not lost. Without a live taint the region is
  // what CollectRegion finds: at the first pick every vertex is fresh,
  // so that is the whole graph too.
  const auto pending = [n](ChannelId t) { return t.value() >= n; };
  const auto live = std::partition(tainted_.begin(), tainted_.end(), pending);
  if (live != tainted_.end()) {
    region_.resize(n);
    std::iota(region_.begin(), region_.end(), 0u);
    scc_count_ = 0;
  } else {
    CollectRegion();
  }

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
    const std::uint32_t comp = scc_[v] - first_id;
    if (scc_size_[comp] == 1 && !graph_.FindEdge(c, c)) {
      cycle_[v] = std::nullopt;
      continue;
    }
    if (!scc_fresh_[comp] && cycle_[v] && CycleStillPresent(*cycle_[v])) {
      continue;
    }
    cycle_[v] = BfsWithinScc(c, scc_[v]);
    ++stats_.bfs_runs;
  }
  stats_.scc_vertices += region_.size();
  known_vertices_ = n;
  seen_generation_ = graph_.Generation();
}

void DirtyCycleFinder::CollectRegion() {
  const std::size_t n = graph_.VertexCount();
  scc_marked_.assign(scc_count_, 0);
  for (std::size_t v = 0; v < known_vertices_; ++v) {
    if (graph_.OutChangedAt(ChannelId(v)) > seen_generation_) {
      scc_marked_[scc_[v]] = 1;
    }
  }
  region_.clear();
  for (std::size_t v = 0; v < known_vertices_; ++v) {
    if (scc_marked_[scc_[v]]) {
      region_.push_back(static_cast<std::uint32_t>(v));
    }
  }
  for (std::size_t v = known_vertices_; v < n; ++v) {
    region_.push_back(static_cast<std::uint32_t>(v));
  }
}

void DirtyCycleFinder::ComputeRegionSccs() {
  // Only kPending vertices belong to the region and are still open: an
  // edge to any other vertex leaves the region or reaches a closed
  // component, and is ignored. An open vertex that has been visited is
  // on the Tarjan stack, so no separate on-stack flag is needed.
  scc_size_.clear();
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
        std::uint32_t size = 0;
        char fresh = 0;
        std::uint32_t w;
        do {
          w = stack_.back();
          stack_.pop_back();
          scc_[w] = scc_count_;
          ++size;
          fresh |= static_cast<char>(w >= known_vertices_);
        } while (w != v);
        ++scc_count_;
        scc_size_.push_back(size);
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
