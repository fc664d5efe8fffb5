#include "cdg/cdg.h"

#include <algorithm>

#include "util/error.h"

namespace nocdr {

namespace {

/// Smallest capacity a vertex span is (re)allocated with.
constexpr std::uint32_t kMinSpanCapacity = 4;

bool TargetsBefore(const ChannelDependencyGraph::OutEdgeRef& ref,
                   ChannelId to) {
  return ref.to < to;
}

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
  if (!from.valid() || from.value() >= spans_.size()) {
    return std::nullopt;
  }
  const VertexSpan& span = spans_[from.value()];
  const std::uint32_t at = SlotOf(from, to);
  if (at == span.size || pool_[span.begin + at].to != to) {
    return std::nullopt;
  }
  return pool_[span.begin + at].edge;
}

std::vector<ChannelId> ChannelDependencyGraph::Successors(ChannelId c) const {
  std::vector<ChannelId> result;
  for (const OutEdgeRef& ref : OutEdges(c)) {
    result.push_back(ref.to);
  }
  return result;
}

void ChannelDependencyGraph::EnsureVertices(std::size_t count) {
  if (count > spans_.size()) {
    spans_.resize(count);
  }
}

void ChannelDependencyGraph::TrackChanges(bool on) {
  tracking_ = on;
  ClearChanges();
}

void ChannelDependencyGraph::ClearChanges() {
  changes_.stamped.clear();
  changes_.deleted.clear();
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
  const VertexSpan& span = spans_[from.value()];
  const std::uint32_t at = SlotOf(from, to);
  if (at < span.size && pool_[span.begin + at].to == to) {
    std::vector<FlowId>& flows = edges_[pool_[span.begin + at].edge].flows;
    auto pos = std::lower_bound(flows.begin(), flows.end(), flow);
    if (pos == flows.end() || *pos != flow) {
      flows.insert(pos, flow);
    }
    return;
  }
  const auto index = static_cast<std::uint32_t>(edges_.size());
  edges_.push_back(CdgEdge{from, to, {flow}});
  InsertSlot(from, at, OutEdgeRef{to, index});
}

void ChannelDependencyGraph::RemoveDependency(ChannelId from, ChannelId to,
                                              FlowId flow) {
  const std::optional<std::size_t> found = FindEdge(from, to);
  Require(found.has_value(),
          "RemoveDependency: edge not present; CDG out of sync with design");
  const auto index = static_cast<std::uint32_t>(*found);
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
  VertexSpan& span = spans_[from.value()];
  OutEdgeRef* data = pool_.data() + span.begin;
  const std::uint32_t at = SlotOf(from, to);
  std::move(data + at + 1, data + span.size, data + at);
  --span.size;
  --live_slots_;
  Stamp(from);
  if (tracking_) {
    changes_.deleted.emplace_back(from, to);
  }
  const auto last = static_cast<std::uint32_t>(edges_.size() - 1);
  if (index != last) {
    edges_[index] = std::move(edges_[last]);
    const CdgEdge& moved = edges_[index];
    RetargetSlot(moved.from, moved.to, index);
  }
  edges_.pop_back();
  MaybeCompact();
}

std::uint32_t ChannelDependencyGraph::SlotOf(ChannelId from,
                                             ChannelId to) const {
  const VertexSpan& span = spans_[from.value()];
  const OutEdgeRef* data = pool_.data() + span.begin;
  return static_cast<std::uint32_t>(
      std::lower_bound(data, data + span.size, to, TargetsBefore) - data);
}

void ChannelDependencyGraph::InsertSlot(ChannelId from, std::uint32_t at,
                                        OutEdgeRef ref) {
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
  std::move_backward(data + at, data + span.size, data + span.size + 1);
  data[at] = ref;
  ++span.size;
  ++live_slots_;
  Stamp(from);
}

void ChannelDependencyGraph::RetargetSlot(ChannelId from, ChannelId to,
                                          std::uint32_t edge) {
  const VertexSpan& span = spans_[from.value()];
  const std::uint32_t at = SlotOf(from, to);
  Require(at < span.size && pool_[span.begin + at].to == to,
          "RetargetSlot: adjacency slot missing");
  pool_[span.begin + at].edge = edge;
}

void ChannelDependencyGraph::Stamp(ChannelId v) {
  if (tracking_) {
    changes_.stamped.push_back(v);
  }
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
