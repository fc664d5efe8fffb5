// Routes: ordered channel sequences for each flow (Definition 3).
//
// A route is the ordered set of channels a packet of one flow traverses
// from the source core's switch to the destination core's switch. Routes
// are *static* per flow (table/source routing), which is the setting in
// which the CDG-acyclicity condition of Dally/Towles is both necessary and
// sufficient for deadlock freedom.
#pragma once

#include <span>
#include <vector>

#include "noc/topology.h"
#include "noc/traffic.h"
#include "util/ids.h"

namespace nocdr {

/// Ordered channels traversed by one flow; empty for intra-switch flows.
using Route = std::vector<ChannelId>;

/// Per-flow routes, indexed by FlowId.
class RouteSet {
 public:
  RouteSet() = default;
  explicit RouteSet(std::size_t flow_count) : routes_(flow_count) {}

  void Resize(std::size_t flow_count) { routes_.resize(flow_count); }

  [[nodiscard]] std::size_t FlowCount() const { return routes_.size(); }

  [[nodiscard]] const Route& RouteOf(FlowId f) const;
  [[nodiscard]] Route& MutableRouteOf(FlowId f);

  void SetRoute(FlowId f, Route route);

  friend bool operator==(const RouteSet&, const RouteSet&) = default;

 private:
  std::vector<Route> routes_;
};

/// Checks that \p route is structurally sound against \p topology:
/// channels exist, consecutive channels are link-contiguous
/// (link[i].dst == link[i+1].src), no channel repeats, and the route
/// starts at \p src_switch and ends at \p dst_switch (an empty route
/// requires src == dst). Throws InvalidModelError on violation, naming
/// the route "flow <flow>". \p last_use holds one slot per channel of
/// \p topology, zeroed before a design's first route and shared by all
/// its routes: the check writes flow + 1 into the slots of the route's
/// channels, so a repeat finds its own mark. Linear in the route; it
/// allocates nothing.
void ValidateRoute(const TopologyGraph& topology, const Route& route,
                   SwitchId src_switch, SwitchId dst_switch,
                   std::size_t flow, std::span<std::size_t> last_use);

}  // namespace nocdr
