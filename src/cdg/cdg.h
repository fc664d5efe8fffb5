// Channel Dependency Graph (Definition 4).
//
// Vertices are the channels of the topology; a directed edge (ci, cj)
// exists when at least one flow's route uses channel ci immediately
// followed by channel cj. Each edge remembers the set of flows that create
// it — the deadlock-removal cost computation needs to know, per cycle
// edge, which flows must be re-routed to delete that edge.
//
// Dally & Towles: with static (deterministic) routing, the network is
// deadlock-free iff this graph is acyclic. The removal algorithm therefore
// works exclusively on this graph and maps its operations back to the
// topology (duplicate vertex = add VC) and the routes (edge removal =
// re-route the flows that created it).
//
// Storage is CSR-style: one flat adjacency pool holds every vertex's
// out-edge slots contiguously (sorted by target id), with per-vertex
// slack capacity so the removal loop can mutate the graph in place via
// the incremental API (AddEdges / RemoveEdges / ApplyBreak) instead of
// re-deriving it from the design after every break. There is no hash
// index: an edge is found by binary search in its from-vertex's sorted
// span, which is short (at most 5 slots on a treated torus, 1.4-1.5 on
// average). The representation is canonical — adjacency sorted by
// target, flow annotations sorted by flow id — so a graph reached
// through increments is indistinguishable from a from-scratch Build of
// the same design (see SameDependencies), and every order-sensitive
// consumer (the cycle searches) behaves identically on both.
#pragma once

#include <cstddef>
#include <cstdint>
#include <optional>
#include <span>
#include <utility>
#include <vector>

#include "noc/design.h"
#include "util/ids.h"

namespace nocdr {

/// One dependency edge of the CDG.
struct CdgEdge {
  ChannelId from;
  ChannelId to;
  /// Flows whose route contains the consecutive pair (from, to), in
  /// ascending FlowId order.
  std::vector<FlowId> flows;
};

/// The channel dependency graph of one NoC design.
class ChannelDependencyGraph {
 public:
  /// One slot of the adjacency pool: the target vertex plus the index of
  /// the full edge record in Edges(). The target is duplicated here so the
  /// cycle searches never touch the (colder) edge records.
  struct OutEdgeRef {
    ChannelId to;
    std::uint32_t edge = 0;
  };

  /// Builds the CDG of \p design from its routes. The design is not
  /// retained; the graph is a snapshot that the incremental API can keep
  /// in sync with subsequent design mutations.
  static ChannelDependencyGraph Build(const NocDesign& design);

  /// Number of vertices (= channels of the topology at build time, plus
  /// any vertices added through EnsureVertices).
  [[nodiscard]] std::size_t VertexCount() const { return spans_.size(); }

  [[nodiscard]] std::size_t EdgeCount() const { return edges_.size(); }

  [[nodiscard]] const CdgEdge& EdgeAt(std::size_t index) const;

  /// Out-edge slots of \p c, sorted by target channel id.
  [[nodiscard]] std::span<const OutEdgeRef> OutEdges(ChannelId c) const;

  /// Index of edge (from, to) if present.
  [[nodiscard]] std::optional<std::size_t> FindEdge(ChannelId from,
                                                    ChannelId to) const;

  /// Successor channels of \p c, sorted by channel id.
  [[nodiscard]] std::vector<ChannelId> Successors(ChannelId c) const;

  /// Every live edge. Iteration order is an implementation detail (edge
  /// deletion swap-removes); use OutEdges for a canonical order.
  [[nodiscard]] const std::vector<CdgEdge>& Edges() const { return edges_; }

  // ----------------------------------------------------------------------
  // Incremental update API. The removal loop mutates the design (adds VCs,
  // re-routes flows) and mirrors each mutation here, which is O(touched
  // routes) instead of the O(all routes) of a full rebuild.

  /// Grows the vertex set to \p count (e.g. after the topology gained
  /// channels). Shrinking is not supported; smaller counts are ignored.
  void EnsureVertices(std::size_t count);

  /// Registers every consecutive channel pair of \p route as a dependency
  /// created by \p flow, adding edges as needed.
  void AddEdges(const Route& route, FlowId flow);

  /// Removes \p flow from every consecutive channel pair of \p route;
  /// edges that lose their last flow are deleted. Throws InvalidModelError
  /// if \p route names a dependency the graph does not attribute to
  /// \p flow — that means the graph fell out of sync with the design.
  void RemoveEdges(const Route& route, FlowId flow);

  /// Mirrors one break operation: \p rerouted_flows had \p old_routes
  /// before the break and now have their current routes in \p design,
  /// which also owns any freshly added channels. Equivalent to (but much
  /// cheaper than) rebuilding from \p design.
  void ApplyBreak(const NocDesign& design,
                  const std::vector<FlowId>& rerouted_flows,
                  const std::vector<Route>& old_routes);

  /// True iff \p other represents exactly the same dependencies: same
  /// vertex count, same edge set, same per-edge flow annotations. Both
  /// representations are canonical, so this is a structural comparison.
  [[nodiscard]] bool SameDependencies(
      const ChannelDependencyGraph& other) const;

  // ----------------------------------------------------------------------
  // Change log, for a reader that caches what it derived from the graph
  // (cdg/incremental.h). While tracking is on, every insertion into or
  // deletion from a vertex's out-adjacency logs that vertex, and every
  // deleted edge logs its endpoints. Re-annotating an existing edge with
  // more or fewer flows, and the pool's internal moves, log nothing.
  // Build logs nothing, and a graph no reader tracks keeps no log.

  struct ChangeLog {
    /// Vertices whose out-edge set changed, once per insertion or
    /// deletion, in order.
    std::vector<ChannelId> stamped;
    /// Deleted edges as (from, to), in order.
    std::vector<std::pair<ChannelId, ChannelId>> deleted;
  };

  /// Starts (true) or stops (false) logging; either way the log empties.
  void TrackChanges(bool on);
  [[nodiscard]] bool TracksChanges() const { return tracking_; }

  /// What changed since tracking started or the last ClearChanges.
  [[nodiscard]] const ChangeLog& Changes() const { return changes_; }

  /// Empties the log once its reader has consumed it.
  void ClearChanges();

 private:
  /// Adjacency span of one vertex inside the flat pool.
  struct VertexSpan {
    std::uint32_t begin = 0;
    std::uint32_t size = 0;
    std::uint32_t capacity = 0;
  };

  void AddDependency(ChannelId from, ChannelId to, FlowId flow);
  void RemoveDependency(ChannelId from, ChannelId to, FlowId flow);
  /// The slot of \p to in from's sorted span, or where it would go.
  [[nodiscard]] std::uint32_t SlotOf(ChannelId from, ChannelId to) const;
  /// Inserts \p ref at slot \p at of from's span.
  void InsertSlot(ChannelId from, std::uint32_t at, OutEdgeRef ref);
  /// Points from's slot targeting \p to at \p edge (after a swap-remove).
  void RetargetSlot(ChannelId from, ChannelId to, std::uint32_t edge);
  /// Logs \p v as stamped while tracking is on.
  void Stamp(ChannelId v);
  /// Rewrites the pool without slack holes once they dominate.
  void MaybeCompact();

  std::vector<CdgEdge> edges_;  // dense: deletion swap-removes
  std::vector<OutEdgeRef> pool_;
  std::vector<VertexSpan> spans_;  // per vertex
  std::size_t live_slots_ = 0;  // pool_ slots currently inside a span
  bool tracking_ = false;
  ChangeLog changes_;
};

}  // namespace nocdr
