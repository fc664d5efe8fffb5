// NocDesign: the complete problem instance the paper operates on.
//
// Bundles the topology graph TG(S, L), the communication graph G(V, E),
// the core-to-switch attachment and the per-flow routes R_k. This is the
// input and output type of the deadlock removal algorithm: removal mutates
// the topology (adds VCs) and the routes, never the traffic.
#pragma once

#include <string>
#include <vector>

#include "noc/routing.h"
#include "noc/topology.h"
#include "noc/traffic.h"

namespace nocdr {

/// A complete NoC design instance.
struct NocDesign {
  std::string name;
  TopologyGraph topology;
  CommunicationGraph traffic;
  /// attachment[core] = switch the core's network interface connects to.
  std::vector<SwitchId> attachment;
  RouteSet routes;

  /// Switch a core attaches to.
  [[nodiscard]] SwitchId SwitchOf(CoreId c) const;

  /// Full structural validation: attachment completeness, route presence
  /// and per-route soundness (see ValidateRoute). Throws
  /// InvalidModelError with a descriptive message on the first violation.
  void Validate() const;

  /// Total bandwidth (MB/s) crossing each link, from flow demands.
  [[nodiscard]] std::vector<double> LinkLoads() const;

  /// Flows whose route traverses at least one channel of \p link.
  [[nodiscard]] std::vector<FlowId> FlowsOnLink(LinkId link) const;

  /// Member-wise: the same ids throughout. Bandwidths compare as
  /// doubles, so 0.0 equals -0.0.
  bool operator==(const NocDesign&) const = default;
};

}  // namespace nocdr
