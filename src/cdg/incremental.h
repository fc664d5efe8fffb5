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
//   * The graph logs a vertex whenever its out-edge set changes
//     (ChannelDependencyGraph::Changes). An SCC with no logged vertex
//     kept every internal edge, so it is still an SCC with the same
//     members, and every cycle cached inside it is still present and
//     still the answer a BFS would give. It keeps its id and its cycles
//     with no work done.
//   * A fresh vertex can only join an SCC that contains the vertex whose
//     new edge leads into it, and adding that edge logged that vertex.
// Each pick therefore marks the SCCs that contain a logged vertex; the
// region is their vertices (read from per-SCC member lists, written as
// Tarjan closes each component) plus every fresh vertex. Every new SCC
// lies wholly inside or wholly outside the region, so Tarjan runs on the
// region alone, ignoring edges that leave it. Inside the region the
// per-vertex rule is unchanged: a vertex of a trivial SCC (one vertex,
// no self-loop) has no cycle; a vertex of an SCC with a fresh or tainted
// vertex is re-BFSed; any other vertex keeps its cached cycle if every
// edge of it still exists, and is re-BFSed otherwise.
//
// Why most of those cycles need no edge-by-edge check:
//   * At the end of a pick every cached cycle exists and lies inside one
//     SCC of that pick (a cycle through v is a closed walk through v).
//   * So an edge deleted since then between two SCCs is on none of them,
//     and an SCC that lost no edge with both ends inside it still holds
//     every cycle cached for its vertices. The graph logs each deleted
//     edge, and only the vertices of an SCC that lost an internal edge
//     re-check their cycles (Stats::cycle_checks counts those checks).
//   * A new SCC with no fresh or tainted vertex lies inside one SCC of
//     the previous pick: a break's edges only shrink reachability among
//     the old vertices, and an external edge (below) taints its ends, so
//     an SCC whose cycles use one is tainted. The previous pick's SCC
//     therefore decides for each such vertex, in a whole-graph pass too.
//
// Fault-driven reconfiguration (src/fault) breaks the "added edges touch
// fresh vertices" half of these arguments: re-routed flows add edges
// between vertices that both existed at the previous pick, which can
// merge SCCs. Callers report such mutations through NoteExternalEdges,
// which taints the named vertices; a pick that finds a taint on an
// existing vertex makes the region the whole graph (as the first pick
// does) and re-scans every SCC containing a tainted vertex exactly like
// one containing a fresh vertex. External *removals* need no notice:
// the graph logs them like a break's, and they can never resurrect or
// shorten a cycle. The per-iteration equivalence is asserted against
// the full scan by tests/test_cdg_incremental.cpp, and by
// RemoveDeadlocksOnCdg itself under RemovalOptions::paranoid_validation.
#pragma once

#include <cstdint>
#include <optional>
#include <set>
#include <span>
#include <utility>
#include <vector>

#include "cdg/cdg.h"
#include "cdg/cycle.h"

namespace nocdr {

/// Incremental replacement for the full-scan cycle searches of cycle.h.
/// Holds a reference to the graph it serves and reads the graph's change
/// log (ChannelDependencyGraph::TrackChanges), which it starts on
/// construction, empties at every Pick and stops on destruction. The
/// graph may be mutated (via its incremental API) between Pick calls,
/// but must outlive the finder; one finder serves one graph.
class DirtyCycleFinder {
 public:
  explicit DirtyCycleFinder(ChannelDependencyGraph& graph);
  ~DirtyCycleFinder();
  DirtyCycleFinder(const DirtyCycleFinder&) = delete;
  DirtyCycleFinder& operator=(const DirtyCycleFinder&) = delete;

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
    /// Cached cycles re-verified edge by edge, because their SCC lost an
    /// internal edge.
    std::size_t cycle_checks = 0;
  };
  [[nodiscard]] const Stats& stats() const { return stats_; }

 private:
  /// Recomputes the SCCs of the region and refreshes cycle_ inside it.
  void Refresh();
  /// Fills region_ with the members of every SCC holding a vertex whose
  /// out-edges changed since the previous pick, then the fresh vertices.
  void CollectRegion();
  /// Iterative Tarjan on the subgraph induced by region_, whose vertices
  /// are marked kPending in scc_. Numbers the components from
  /// scc_count_ on, appends their member lists and fills scc_fresh_ per
  /// new component.
  void ComputeRegionSccs();
  /// Renumbers the live components once dead member-list entries (of
  /// components a later pass split) outnumber the vertices.
  void CompactMembers();
  /// Replaces v's cached cycle, keeping by_length_ in step.
  void SetCycle(std::uint32_t v, std::optional<CdgCycle> cycle);
  /// ShortestCycleThrough restricted to start's SCC (identical result,
  /// smaller frontier).
  std::optional<CdgCycle> BfsWithinScc(ChannelId start, std::uint32_t scc);
  /// True iff every edge of \p cycle still exists.
  [[nodiscard]] bool CycleStillPresent(const CdgCycle& cycle) const;

  ChannelDependencyGraph& graph_;
  /// Vertices that existed at the previous Pick; anything beyond is fresh.
  std::size_t known_vertices_ = 0;
  /// Vertices named by NoteExternalEdges since the previous Pick.
  std::vector<ChannelId> tainted_;
  std::vector<std::optional<CdgCycle>> cycle_;  // per vertex
  /// (cycle length, vertex) of every cached cycle: buckets by length,
  /// each ordered by vertex, so a pick reads its answer off the ends.
  std::set<std::pair<std::uint32_t, std::uint32_t>> by_length_;
  /// SCC id per vertex, kept between picks. Ids below scc_count_ are in
  /// use; a region pass numbers its components from scc_count_ on, and a
  /// whole-graph pass from 0.
  std::vector<std::uint32_t> scc_;
  std::uint32_t scc_count_ = 0;
  /// Per SCC id: its members are members_[scc_begin_[id]] onwards,
  /// scc_size_[id] of them. An id whose vertices a later pass moved to
  /// new components is dead; CompactMembers drops those entries.
  std::vector<std::uint32_t> members_;
  std::vector<std::uint32_t> scc_begin_;
  std::vector<std::uint32_t> scc_size_;
  /// Per SCC id, set only during a pick: holds a vertex whose out-edges
  /// changed (listed in marked_ids_), and lost an internal edge.
  std::vector<char> scc_marked_;
  std::vector<char> scc_lost_;
  std::vector<std::uint32_t> marked_ids_;

  // Refresh scratch, reused across picks.
  std::vector<std::uint32_t> region_;
  /// Per vertex, set only during a pick: its SCC lost an internal edge,
  /// so a kept cycle must be re-verified.
  std::vector<char> recheck_;
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
