// End-to-end application-specific NoC synthesis.
//
// Partition cores onto switches, build the irregular switch topology,
// compute static routes — producing the NocDesign instances the deadlock
// experiments run on. Stands in for the closed-source synthesis flow the
// paper cites ([9]).
#pragma once

#include <cstddef>
#include <string>

#include "noc/design.h"
#include "synth/partition.h"
#include "synth/route_builder.h"
#include "synth/topology_builder.h"

namespace nocdr {

struct SynthesisOptions {
  PartitionOptions partition;
  TopologyBuildOptions topology;
  RouteBuildOptions routing;
};

/// Synthesizes a complete, validated design named
/// "<traffic name>@<switch_count>sw" for \p traffic on \p switch_count
/// switches. The result has one VC per link; it is *not* guaranteed
/// deadlock-free — that is the job of the removal methods.
NocDesign SynthesizeDesign(const CommunicationGraph& traffic,
                           const std::string& name, std::size_t switch_count,
                           const SynthesisOptions& options = {});

}  // namespace nocdr
