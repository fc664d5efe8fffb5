#include "cdg/cdg.h"

#include <algorithm>

#include "util/error.h"

namespace nocdr {

namespace {

/// Smallest capacity a vertex span is (re)allocated with.
constexpr std::uint32_t kMinSpanCapacity = 4;

}  // namespace

ChannelDependencyGraph ChannelDependencyGraph::Build(const NocDesign& design) {
  ChannelDependencyGraph g;
  g.EnsureVertices(design.topology.ChannelCount());
  for (std::size_t i = 0; i < design.traffic.FlowCount(); ++i) {
    g.AddEdges(design.routes.RouteOf(FlowId(i)), FlowId(i));
  }
  return g;
}

const CdgEdge& ChannelDependencyGraph::EdgeAt(std::size_t index) const {
  Require(index < edges_.size(), "EdgeAt: edge index out of range");
  return edges_[index];
}

std::span<const ChannelDependencyGraph::OutEdgeRef>
ChannelDependencyGraph::OutEdges(ChannelId c) const {
  Require(c.valid() && c.value() < spans_.size(),
          "OutEdges: channel is not a CDG vertex");
  const VertexSpan& span = spans_[c.value()];
  return {pool_.data() + span.begin, span.size};
}

std::optional<std::size_t> ChannelDependencyGraph::FindEdge(
    ChannelId from, ChannelId to) const {
  auto it = edge_index_.find(Key(from, to));
  if (it == edge_index_.end()) {
    return std::nullopt;
  }
  return it->second;
}

std::vector<ChannelId> ChannelDependencyGraph::Successors(ChannelId c) const {
  std::vector<ChannelId> result;
  for (const OutEdgeRef& ref : OutEdges(c)) {
    result.push_back(ref.to);
  }
  return result;
}

std::uint64_t ChannelDependencyGraph::OutChangedAt(ChannelId c) const {
  Require(c.valid() && c.value() < out_changed_at_.size(),
          "OutChangedAt: channel is not a CDG vertex");
  return out_changed_at_[c.value()];
}

void ChannelDependencyGraph::EnsureVertices(std::size_t count) {
  if (count > spans_.size()) {
    spans_.resize(count);
    out_changed_at_.resize(count, 0);
  }
}

void ChannelDependencyGraph::AddEdges(const Route& route, FlowId flow) {
  for (std::size_t h = 0; h + 1 < route.size(); ++h) {
    AddDependency(route[h], route[h + 1], flow);
  }
}

void ChannelDependencyGraph::RemoveEdges(const Route& route, FlowId flow) {
  for (std::size_t h = 0; h + 1 < route.size(); ++h) {
    RemoveDependency(route[h], route[h + 1], flow);
  }
}

void ChannelDependencyGraph::ApplyBreak(
    const NocDesign& design, const std::vector<FlowId>& rerouted_flows,
    const std::vector<Route>& old_routes) {
  Require(rerouted_flows.size() == old_routes.size(),
          "ApplyBreak: rerouted flow and old route counts differ");
  EnsureVertices(design.topology.ChannelCount());
  for (std::size_t i = 0; i < rerouted_flows.size(); ++i) {
    RemoveEdges(old_routes[i], rerouted_flows[i]);
  }
  for (FlowId f : rerouted_flows) {
    AddEdges(design.routes.RouteOf(f), f);
  }
}

bool ChannelDependencyGraph::SameDependencies(
    const ChannelDependencyGraph& other) const {
  if (VertexCount() != other.VertexCount() ||
      EdgeCount() != other.EdgeCount()) {
    return false;
  }
  for (std::size_t v = 0; v < VertexCount(); ++v) {
    const auto mine = OutEdges(ChannelId(v));
    const auto theirs = other.OutEdges(ChannelId(v));
    if (mine.size() != theirs.size()) {
      return false;
    }
    for (std::size_t i = 0; i < mine.size(); ++i) {
      if (mine[i].to != theirs[i].to ||
          edges_[mine[i].edge].flows != other.edges_[theirs[i].edge].flows) {
        return false;
      }
    }
  }
  return true;
}

void ChannelDependencyGraph::AddDependency(ChannelId from, ChannelId to,
                                           FlowId flow) {
  Require(from.valid() && from.value() < spans_.size() && to.valid() &&
              to.value() < spans_.size(),
          "AddDependency: channel is not a CDG vertex");
  const std::uint64_t key = Key(from, to);
  auto it = edge_index_.find(key);
  if (it != edge_index_.end()) {
    std::vector<FlowId>& flows = edges_[it->second].flows;
    auto pos = std::lower_bound(flows.begin(), flows.end(), flow);
    if (pos == flows.end() || *pos != flow) {
      flows.insert(pos, flow);
    }
    return;
  }
  const auto index = static_cast<std::uint32_t>(edges_.size());
  edges_.push_back(CdgEdge{from, to, {flow}});
  edge_index_.emplace(key, index);
  InsertSlot(from, OutEdgeRef{to, index});
}

void ChannelDependencyGraph::RemoveDependency(ChannelId from, ChannelId to,
                                              FlowId flow) {
  auto it = edge_index_.find(Key(from, to));
  Require(it != edge_index_.end(),
          "RemoveDependency: edge not present; CDG out of sync with design");
  const std::uint32_t index = it->second;
  std::vector<FlowId>& flows = edges_[index].flows;
  auto pos = std::lower_bound(flows.begin(), flows.end(), flow);
  Require(pos != flows.end() && *pos == flow,
          "RemoveDependency: flow does not create this edge; CDG out of "
          "sync with design");
  flows.erase(pos);
  if (!flows.empty()) {
    return;
  }

  // Last flow gone: delete the edge. The edge store stays dense via
  // swap-remove; the adjacency slot of the moved edge is repointed.
  EraseSlot(from, to);
  edge_index_.erase(it);
  const auto last = static_cast<std::uint32_t>(edges_.size() - 1);
  if (index != last) {
    edges_[index] = std::move(edges_[last]);
    const CdgEdge& moved = edges_[index];
    edge_index_[Key(moved.from, moved.to)] = index;
    RetargetSlot(moved.from, moved.to, index);
  }
  edges_.pop_back();
  MaybeCompact();
}

void ChannelDependencyGraph::InsertSlot(ChannelId from, OutEdgeRef ref) {
  VertexSpan& span = spans_[from.value()];
  if (span.size == span.capacity) {
    // Relocate the span to the end of the pool with doubled capacity; the
    // old slots become slack reclaimed by MaybeCompact.
    const std::uint32_t capacity =
        std::max(kMinSpanCapacity, span.capacity * 2);
    const auto begin = static_cast<std::uint32_t>(pool_.size());
    pool_.resize(pool_.size() + capacity);
    std::copy_n(pool_.begin() + span.begin, span.size, pool_.begin() + begin);
    span.begin = begin;
    span.capacity = capacity;
  }
  OutEdgeRef* data = pool_.data() + span.begin;
  std::uint32_t at = span.size;
  while (at > 0 && ref.to < data[at - 1].to) {
    data[at] = data[at - 1];
    --at;
  }
  data[at] = ref;
  ++span.size;
  ++live_slots_;
  out_changed_at_[from.value()] = ++generation_;
}

void ChannelDependencyGraph::EraseSlot(ChannelId from, ChannelId to) {
  VertexSpan& span = spans_[from.value()];
  OutEdgeRef* data = pool_.data() + span.begin;
  OutEdgeRef* end = data + span.size;
  OutEdgeRef* pos = std::lower_bound(
      data, end, to,
      [](const OutEdgeRef& ref, ChannelId t) { return ref.to < t; });
  Require(pos != end && pos->to == to, "EraseSlot: adjacency slot missing");
  std::move(pos + 1, end, pos);
  --span.size;
  --live_slots_;
  out_changed_at_[from.value()] = ++generation_;
}

void ChannelDependencyGraph::RetargetSlot(ChannelId from, ChannelId to,
                                          std::uint32_t edge) {
  VertexSpan& span = spans_[from.value()];
  OutEdgeRef* data = pool_.data() + span.begin;
  OutEdgeRef* end = data + span.size;
  OutEdgeRef* pos = std::lower_bound(
      data, end, to,
      [](const OutEdgeRef& ref, ChannelId t) { return ref.to < t; });
  Require(pos != end && pos->to == to, "RetargetSlot: adjacency slot missing");
  pos->edge = edge;
}

void ChannelDependencyGraph::MaybeCompact() {
  if (pool_.size() < 1024 || live_slots_ * 2 > pool_.size()) {
    return;
  }
  std::vector<OutEdgeRef> packed;
  packed.reserve(live_slots_);
  for (VertexSpan& span : spans_) {
    const auto begin = static_cast<std::uint32_t>(packed.size());
    packed.insert(packed.end(), pool_.begin() + span.begin,
                  pool_.begin() + span.begin + span.size);
    span.begin = begin;
    span.capacity = span.size;
  }
  pool_ = std::move(packed);
}

}  // namespace nocdr
