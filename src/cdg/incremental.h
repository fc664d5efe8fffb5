// Dirty-vertex shortest-cycle search for the incremental removal engine.
//
// The removal loop asks for the globally smallest CDG cycle after every
// break. A from-scratch answer BFS-scans every vertex (cycle.h), which is
// the hot path of Algorithm 1 on large designs. This finder caches the
// per-vertex shortest cycle between picks and re-scans only the vertices
// whose answer a break could have changed.
//
// Why the cache stays exact (the selection is bit-identical to a full
// SmallestCycle/FirstCycle/LargestShortestCycle scan on the current
// graph):
//   * A break only (a) removes dependencies and (b) adds dependencies
//     incident to freshly duplicated channels — BreakCycle re-routes
//     flows onto brand-new VCs, so every structurally new edge touches a
//     vertex that did not exist at the previous pick.
//   * Removing edges never shortens a cycle; a cached cycle whose edges
//     all still exist therefore remains a shortest cycle through its
//     start vertex, and (because successors are scanned in sorted order
//     and competing candidates can only move later in BFS order when
//     edges disappear) it is exactly the cycle a fresh BFS would return.
//   * A *shorter or new* cycle through v must use an added edge, hence a
//     fresh vertex, and any cycle through v lies entirely inside v's
//     strongly connected component — so it can only appear when a fresh
//     vertex joined that component.
//
// Why the strongly connected components (SCCs) of the previous pick can
// be kept, and only the *region* a break touched recomputed:
//   * Each edge a break adds maps onto an edge the same flow used before
//     (replace every duplicate by its original channel). So reachability
//     among the vertices that existed at the previous pick can only
//     shrink, and their SCCs can only split.
//   * The graph stamps a vertex whenever its out-edge set changes
//     (ChannelDependencyGraph::OutChangedAt). An SCC with no stamped
//     vertex kept every internal edge, so it is still an SCC with the
//     same members, and every cycle cached inside it is still present
//     and still the answer a BFS would give. It keeps its id and its
//     cycles with no work done.
//   * A fresh vertex can only join an SCC that contains the vertex whose
//     new edge leads into it, and adding that edge stamped that vertex.
// Each pick therefore marks the SCCs that contain a stamped vertex; the
// region is their vertices plus every fresh vertex. Every new SCC lies
// wholly inside or wholly outside the region, so Tarjan runs on the
// region alone, ignoring edges that leave it. Inside the region the
// per-vertex rule is unchanged: a vertex of a trivial SCC (one vertex,
// no self-loop) has no cycle; a vertex of an SCC with a fresh or tainted
// vertex is re-BFSed; any other vertex keeps its cached cycle if every
// edge of it still exists, and is re-BFSed otherwise.
//
// Fault-driven reconfiguration (src/fault) breaks the "added edges touch
// fresh vertices" half of these arguments: re-routed flows add edges
// between vertices that both existed at the previous pick, which can
// merge SCCs. Callers report such mutations through NoteExternalEdges,
// which taints the named vertices; a pick that finds a taint on an
// existing vertex makes the region the whole graph (as the first pick
// does) and re-scans every SCC containing a tainted vertex exactly like
// one containing a fresh vertex. External *removals* need no notice:
// they stamp the vertices they touch and can never resurrect or shorten
// a cycle. The per-iteration equivalence is asserted against the full
// scan by tests/test_cdg_incremental.cpp, and by RemoveDeadlocksOnCdg
// itself under RemovalOptions::paranoid_validation.
#pragma once

#include <cstdint>
#include <optional>
#include <span>
#include <vector>

#include "cdg/cdg.h"
#include "cdg/cycle.h"

namespace nocdr {

/// Incremental replacement for the full-scan cycle searches of cycle.h.
/// Holds a reference to the graph it serves; the graph may be mutated
/// (via its incremental API) between Pick calls, but not destroyed.
class DirtyCycleFinder {
 public:
  explicit DirtyCycleFinder(const ChannelDependencyGraph& graph)
      : graph_(graph) {}

  /// The cycle PickCycle(graph, policy) would return on the current
  /// graph, at amortized dirty-vertex cost. Returns nullopt when acyclic.
  std::optional<CdgCycle> Pick(CyclePolicy policy);

  /// Reports that edges incident to \p vertices were *added* by a
  /// mutation outside the ApplyBreak discipline (fault-driven
  /// re-routing adds edges between pre-existing vertices). The next
  /// Pick recomputes the SCCs of the whole graph and re-scans every SCC
  /// containing one of these vertices as if a fresh vertex had joined
  /// it, restoring the cache-exactness argument in the header comment.
  /// Out-of-range ids are permitted and simply force that pass once the
  /// vertex exists.
  void NoteExternalEdges(std::span<const ChannelId> vertices);

  /// Work counters, for perf reporting and the scalability bench.
  struct Stats {
    std::size_t picks = 0;
    /// Vertices whose shortest cycle was recomputed by BFS.
    std::size_t bfs_runs = 0;
    /// Vertices whose SCC was recomputed (the region sizes, summed).
    std::size_t scc_vertices = 0;
  };
  [[nodiscard]] const Stats& stats() const { return stats_; }

 private:
  /// Recomputes the SCCs of the region and refreshes cycle_ inside it.
  void Refresh();
  /// Fills region_ with the vertices of every SCC holding a vertex whose
  /// out-edges changed since the previous pick, then the fresh vertices.
  void CollectRegion();
  /// Iterative Tarjan on the subgraph induced by region_, whose vertices
  /// are marked kPending in scc_. Numbers the components from
  /// scc_count_ on and fills scc_size_/scc_fresh_ per new component.
  void ComputeRegionSccs();
  /// ShortestCycleThrough restricted to start's SCC (identical result,
  /// smaller frontier).
  std::optional<CdgCycle> BfsWithinScc(ChannelId start, std::uint32_t scc);
  /// True iff every edge of \p cycle still exists.
  [[nodiscard]] bool CycleStillPresent(const CdgCycle& cycle) const;

  const ChannelDependencyGraph& graph_;
  /// Vertices that existed at the previous Pick; anything beyond is fresh.
  std::size_t known_vertices_ = 0;
  /// graph_.Generation() at the previous Pick.
  std::uint64_t seen_generation_ = 0;
  /// Vertices named by NoteExternalEdges since the previous Pick.
  std::vector<ChannelId> tainted_;
  std::vector<std::optional<CdgCycle>> cycle_;  // per vertex
  /// SCC id per vertex, kept between picks. Ids below scc_count_ are in
  /// use; a region pass numbers its components from scc_count_ on, and a
  /// whole-graph pass from 0.
  std::vector<std::uint32_t> scc_;
  std::uint32_t scc_count_ = 0;

  // Refresh scratch, reused across picks.
  std::vector<std::uint32_t> region_;
  /// Per SCC id in use: holds a vertex whose out-edges changed.
  std::vector<char> scc_marked_;
  /// Tarjan state: per-vertex index and lowlink, the component stack,
  /// and the explicit DFS (a vertex plus its position in its out-edges).
  std::vector<std::uint32_t> index_;
  std::vector<std::uint32_t> lowlink_;
  std::vector<std::uint32_t> stack_;
  struct Frame {
    std::uint32_t vertex;
    std::uint32_t edge_pos;
  };
  std::vector<Frame> frames_;
  /// Per new component of the current pass (index id - first new id).
  std::vector<std::uint32_t> scc_size_;
  std::vector<char> scc_fresh_;
  /// BFS scratch: parent pointers with epoch stamps so repeated searches
  /// need no O(V) clear, and a queue consumed from a head index.
  std::vector<std::uint32_t> parent_;
  std::vector<std::uint32_t> stamp_;
  std::uint32_t epoch_ = 0;
  std::vector<ChannelId> queue_;
  Stats stats_;
};

}  // namespace nocdr
