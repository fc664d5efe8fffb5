#include "noc/routing.h"

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
                   std::size_t flow, std::span<std::size_t> last_use) {
  if (route.empty()) {
    Require(src_switch == dst_switch, "flow ", flow,
            ": empty route between distinct switches");
    return;
  }
  for (const ChannelId c : route) {
    Require(topology.IsValidChannel(c), "flow ", flow,
            ": route references unknown channel");
    std::size_t& stamp = last_use[c.value()];
    Require(stamp != flow + 1, "flow ", flow,
            ": route repeats a channel (routing loop)");
    stamp = flow + 1;
  }
  const Link& first = topology.LinkAt(topology.ChannelAt(route.front()).link);
  Require(first.src == src_switch, "flow ", flow,
          ": route does not start at the source switch");
  const Link& last = topology.LinkAt(topology.ChannelAt(route.back()).link);
  Require(last.dst == dst_switch, "flow ", flow,
          ": route does not end at the destination switch");
  for (std::size_t i = 0; i + 1 < route.size(); ++i) {
    const Link& a = topology.LinkAt(topology.ChannelAt(route[i]).link);
    const Link& b = topology.LinkAt(topology.ChannelAt(route[i + 1]).link);
    Require(a.dst == b.src, "flow ", flow, ": discontiguous route at hop ",
            i);
  }
}

}  // namespace nocdr
