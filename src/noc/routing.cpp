#include "noc/routing.h"

#include <unordered_set>

#include "util/error.h"

namespace nocdr {

const Route& RouteSet::RouteOf(FlowId f) const {
  Require(f.valid() && f.value() < routes_.size(),
          "RouteOf: no route for flow");
  return routes_[f.value()];
}

Route& RouteSet::MutableRouteOf(FlowId f) {
  Require(f.valid() && f.value() < routes_.size(),
          "MutableRouteOf: no route for flow");
  return routes_[f.value()];
}

void RouteSet::SetRoute(FlowId f, Route route) {
  Require(f.valid() && f.value() < routes_.size(),
          "SetRoute: no slot for flow");
  routes_[f.value()] = std::move(route);
}

void ValidateRoute(const TopologyGraph& topology, const Route& route,
                   SwitchId src_switch, SwitchId dst_switch,
                   const std::string& what) {
  if (route.empty()) {
    Require(src_switch == dst_switch,
            what, ": empty route between distinct switches");
    return;
  }
  std::unordered_set<ChannelId> seen;
  for (std::size_t i = 0; i < route.size(); ++i) {
    Require(topology.IsValidChannel(route[i]),
            what, ": route references unknown channel");
    Require(seen.insert(route[i]).second,
            what, ": route repeats a channel (routing loop)");
  }
  const Link& first = topology.LinkAt(topology.ChannelAt(route.front()).link);
  Require(first.src == src_switch,
          what, ": route does not start at the source switch");
  const Link& last = topology.LinkAt(topology.ChannelAt(route.back()).link);
  Require(last.dst == dst_switch,
          what, ": route does not end at the destination switch");
  for (std::size_t i = 0; i + 1 < route.size(); ++i) {
    const Link& a = topology.LinkAt(topology.ChannelAt(route[i]).link);
    const Link& b = topology.LinkAt(topology.ChannelAt(route[i + 1]).link);
    Require(a.dst == b.src, what, ": discontiguous route at hop ", i);
  }
}

}  // namespace nocdr
