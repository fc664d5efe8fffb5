#include "deadlock/breaker.h"

#include "util/error.h"

namespace nocdr {

BreakResult BreakCycle(NocDesign& design, const CdgCycle& cycle,
                       std::size_t edge_pos, BreakDirection direction,
                       DuplicationMode mode,
                       const std::vector<FlowId>* candidate_flows,
                       CycleIndex* index) {
  Require(!cycle.empty(), "BreakCycle: empty cycle");
  Require(edge_pos < cycle.size(), "BreakCycle: edge position out of range");
  const std::size_t m = cycle.size();
  const ChannelId edge_from = cycle[edge_pos];
  const ChannelId edge_to = cycle[(edge_pos + 1) % m];
  CycleIndex own;
  const CycleIndex::Fill pos(index != nullptr ? *index : own, cycle,
                             design.topology.ChannelCount());

  // Shared duplicates, by cycle position: the new VC of each cycle
  // channel. Created lazily so we only add the channels some re-routed
  // flow actually needs.
  std::vector<ChannelId> duplicate(m);
  BreakResult result;
  auto duplicate_of = [&](std::size_t q) {
    if (duplicate[q].valid()) {
      return duplicate[q];
    }
    const LinkId link = design.topology.ChannelAt(cycle[q]).link;
    ChannelId fresh;
    if (mode == DuplicationMode::kVirtualChannel) {
      fresh = design.topology.AddVirtualChannel(link);
    } else {
      // No VC support: open a parallel physical link between the same
      // switches and use its implicit channel.
      const Link& phys = design.topology.LinkAt(link);
      const LinkId twin = design.topology.AddLink(phys.src, phys.dst);
      fresh = design.topology.ChannelsOf(twin).front();
    }
    duplicate[q] = fresh;
    result.added_channels.push_back(fresh);
    return fresh;
  };
  // Replaces route[j] by its duplicate if it is a cycle channel.
  auto duplicate_hop = [&](Route& route, std::size_t j) {
    const std::uint32_t q = pos.PositionOf(route[j]);
    if (q != CycleIndex::kOffCycle) {
      route[j] = duplicate_of(q);
    }
  };

  const std::size_t scan_count = candidate_flows
                                     ? candidate_flows->size()
                                     : design.traffic.FlowCount();
  for (std::size_t fi = 0; fi < scan_count; ++fi) {
    const FlowId f = candidate_flows ? (*candidate_flows)[fi] : FlowId(fi);
    Route& route = design.routes.MutableRouteOf(f);
    // Routes never repeat a channel (validated on construction), so the
    // broken pair occurs at most once per route.
    std::size_t pair_at = route.size();
    for (std::size_t i = 0; i + 1 < route.size(); ++i) {
      if (route[i] == edge_from && route[i + 1] == edge_to) {
        pair_at = i;
        break;
      }
    }
    if (pair_at == route.size()) {
      continue;  // this flow does not create the broken dependency
    }
    result.old_routes.push_back(route);
    if (direction == BreakDirection::kForward) {
      for (std::size_t j = 0; j <= pair_at; ++j) {
        duplicate_hop(route, j);
      }
    } else {
      for (std::size_t j = pair_at + 1; j < route.size(); ++j) {
        duplicate_hop(route, j);
      }
    }
    result.rerouted_flows.push_back(f);
  }

  Require(!result.rerouted_flows.empty(),
          "BreakCycle: no flow creates the selected edge");
  return result;
}

}  // namespace nocdr
