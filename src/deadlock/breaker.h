// Cycle breaking: vertex duplication and flow re-routing
// (BreakCycleForward / BreakCycleBackward of the paper).
//
// Breaking cycle edge (c_p, c_{p+1}) re-routes every flow whose route
// contains that consecutive channel pair:
//   * forward:  every cycle channel the flow used up to and including c_p
//     is replaced by a duplicate channel (a new VC on the same physical
//     link); the dependency into c_{p+1} now originates from a fresh
//     vertex, so the cycle edge disappears;
//   * backward: every cycle channel the flow uses from c_{p+1} onwards is
//     replaced by a duplicate, so the edge out of c_p now points at a
//     fresh vertex.
// Duplicates are shared between the re-routed flows (one new VC per
// duplicated cycle channel), which is what makes the per-edge cost the
// size of the union of the flows' duplicated sets, not the sum of the
// sizes (deadlock/cost.h).
#pragma once

#include <vector>

#include "cdg/cycle.h"
#include "deadlock/cost.h"
#include "noc/design.h"

namespace nocdr {

/// How a duplicated CDG vertex is realized in hardware. The paper adds
/// virtual channels by default but notes that physical channels work when
/// the switch architecture has no VC support: a duplicate then becomes a
/// parallel physical link between the same pair of switches.
enum class DuplicationMode {
  kVirtualChannel,
  kPhysicalLink,
};

/// Outcome of one break operation.
struct BreakResult {
  /// Channels added to the topology by this break (new VCs, or the
  /// implicit channel of each new parallel link in kPhysicalLink mode).
  std::vector<ChannelId> added_channels;
  /// Flows whose route was modified.
  std::vector<FlowId> rerouted_flows;
  /// The routes those flows had before the break, in rerouted_flows
  /// order; lets ChannelDependencyGraph::ApplyBreak mirror the break
  /// without re-deriving the graph from the design.
  std::vector<Route> old_routes;
};

/// Breaks \p cycle at edge \p edge_pos in \p direction, mutating the
/// design's topology (new channels per \p mode) and routes. The number
/// of added channels equals the combined cost of that edge in the
/// corresponding cost table. Throws InvalidModelError if no flow creates
/// the chosen edge.
///
/// \p candidate_flows, when given, restricts the re-route scan to those
/// flows (ascending FlowId order); the CDG annotation of the broken edge
/// lists exactly the flows that create it, so passing it is equivalent to
/// scanning every flow. Pass nullptr to scan all flows. \p index is the
/// scratch of CycleIndex (deadlock/cost.h); nullptr allocates one.
BreakResult BreakCycle(NocDesign& design, const CdgCycle& cycle,
                       std::size_t edge_pos, BreakDirection direction,
                       DuplicationMode mode = DuplicationMode::kVirtualChannel,
                       const std::vector<FlowId>* candidate_flows = nullptr,
                       CycleIndex* index = nullptr);

}  // namespace nocdr
