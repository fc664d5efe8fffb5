// Communication graph: cores and the flows between them.
//
// Mirrors Definition 2 of the paper: G(V, E) is a directed graph whose
// vertices are cores and whose edges are communication flows. Each flow
// carries a bandwidth demand (MB/s) used by the synthesizer (link capacity
// aware routing) and the power model (switching activity).
#pragma once

#include <string>
#include <vector>

#include "util/ids.h"

namespace nocdr {

/// One directed communication flow between two cores.
struct Flow {
  CoreId src;
  CoreId dst;
  double bandwidth_mbps = 0.0;

  friend bool operator==(const Flow&, const Flow&) = default;
};

/// The application's core set and flow set.
class CommunicationGraph {
 public:
  /// Adds a core. \p name is used in diagnostics and reports.
  CoreId AddCore(std::string name = {});

  /// Adds a flow from \p src to \p dst with \p bandwidth_mbps demand.
  /// Self-flows are rejected; parallel flows between the same pair are
  /// allowed (they may use different routes).
  FlowId AddFlow(CoreId src, CoreId dst, double bandwidth_mbps);

  [[nodiscard]] std::size_t CoreCount() const { return core_names_.size(); }
  [[nodiscard]] std::size_t FlowCount() const { return flows_.size(); }

  [[nodiscard]] const std::string& CoreName(CoreId c) const;
  [[nodiscard]] const Flow& FlowAt(FlowId f) const;

  /// Flows leaving / entering a core.
  [[nodiscard]] const std::vector<FlowId>& OutFlows(CoreId c) const;
  [[nodiscard]] const std::vector<FlowId>& InFlows(CoreId c) const;

  /// Sum of all flow bandwidths.
  [[nodiscard]] double TotalBandwidth() const;

  [[nodiscard]] bool IsValidCore(CoreId c) const {
    return c.valid() && c.value() < CoreCount();
  }
  [[nodiscard]] bool IsValidFlow(FlowId f) const {
    return f.valid() && f.value() < FlowCount();
  }

  /// Same cores and flows, each with the same id.
  friend bool operator==(const CommunicationGraph&,
                         const CommunicationGraph&) = default;

 private:
  std::vector<std::string> core_names_;
  std::vector<Flow> flows_;
  std::vector<std::vector<FlowId>> out_flows_;  // indexed by CoreId
  std::vector<std::vector<FlowId>> in_flows_;   // indexed by CoreId
};

}  // namespace nocdr
