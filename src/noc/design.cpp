#include "noc/design.h"

#include "util/error.h"

namespace nocdr {

SwitchId NocDesign::SwitchOf(CoreId c) const {
  Require(traffic.IsValidCore(c), "SwitchOf: core does not exist");
  Require(c.value() < attachment.size(), "SwitchOf: core is not attached");
  return attachment[c.value()];
}

void NocDesign::Validate() const {
  Require(attachment.size() == traffic.CoreCount(),
          "Validate: attachment size does not match core count");
  for (std::size_t i = 0; i < attachment.size(); ++i) {
    Require(topology.IsValidSwitch(attachment[i]),
            "Validate: core ", i, " attached to unknown switch");
  }
  Require(routes.FlowCount() == traffic.FlowCount(),
          "Validate: route set size does not match flow count");
  std::vector<std::size_t> last_use(topology.ChannelCount(), 0);
  for (std::size_t i = 0; i < traffic.FlowCount(); ++i) {
    FlowId f(i);
    const Flow& flow = traffic.FlowAt(f);
    ValidateRoute(topology, routes.RouteOf(f), SwitchOf(flow.src),
                  SwitchOf(flow.dst), i, last_use);
  }
}

std::vector<double> NocDesign::LinkLoads() const {
  std::vector<double> loads(topology.LinkCount(), 0.0);
  for (std::size_t i = 0; i < traffic.FlowCount(); ++i) {
    FlowId f(i);
    const double bw = traffic.FlowAt(f).bandwidth_mbps;
    for (ChannelId c : routes.RouteOf(f)) {
      loads[topology.ChannelAt(c).link.value()] += bw;
    }
  }
  return loads;
}

std::vector<FlowId> NocDesign::FlowsOnLink(LinkId link) const {
  std::vector<FlowId> result;
  for (std::size_t i = 0; i < traffic.FlowCount(); ++i) {
    FlowId f(i);
    for (ChannelId c : routes.RouteOf(f)) {
      if (topology.ChannelAt(c).link == link) {
        result.push_back(f);
        break;
      }
    }
  }
  return result;
}

}  // namespace nocdr
