// Cost computation for breaking a CDG cycle (Algorithm 2 of the paper).
//
// To delete one dependency edge of a cycle, every flow that creates that
// edge must be re-routed onto freshly added channels (VCs), and — to avoid
// merely shifting the cycle (Figure 7 of the paper) — the flow must be
// moved onto duplicates of *all* cycle channels it used before the edge
// (forward direction) or after it (backward direction). Duplicates are
// shared between flows (one new VC per duplicated cycle channel), so the
// cost of breaking at a given edge is the number of distinct cycle
// channels that the flows creating it duplicate: the size of the *union*
// of their duplicated sets, not the sum of the sizes.
//
// The paper combines the flows' costs with max (Step 20 of Algorithm 2).
// Max is the size of the union exactly when the duplicated sets are
// nested, as in the worked example (Table 1). Flows that enter the
// cycle at different channels can duplicate sets that are not nested;
// there max under-counts, and the break adds more VCs than it predicts.
// The union is never below max, and equals it wherever the sets nest.
// So on every design where max predicted the realized count at the
// chosen edge, that edge keeps its cost, every other edge keeps or
// raises its own, and the first minimum and the forward-vs-backward
// choice are unchanged.
//
// The cost-table semantics follow the paper's worked example (Table 1):
// a flow contributes a cost at cycle edge (c_p, c_{p+1}) only if its route
// uses c_p immediately followed by c_{p+1}; the contributed value is the
// number of cycle vertices the flow has traversed up to and including c_p
// (forward) or from c_{p+1} to the end of its route (backward).
#pragma once

#include <cstddef>
#include <cstdint>
#include <limits>
#include <optional>
#include <vector>

#include "cdg/cycle.h"
#include "noc/design.h"
#include "util/ids.h"

namespace nocdr {

/// Which side of the removed edge gets duplicated.
enum class BreakDirection {
  kForward,   // duplicate from the flow's cycle entry up to the edge
  kBackward,  // duplicate from the edge to the flow's cycle exit
};

/// The per-flow/per-edge cost table of Algorithm 2, kept explicit so the
/// worked-example reproduction (Table 1) and tests can inspect it.
struct CycleCostTable {
  /// Flows participating in the cycle, in FlowId order (the table rows).
  std::vector<FlowId> flows;
  /// cost[row][p]: duplication cost contributed by flows[row] at cycle
  /// edge p = (c_p, c_{p+1 mod m}); 0 means the flow does not create the
  /// dependency at p.
  std::vector<std::vector<std::size_t>> cost;
  /// Combined per-edge cost: the number of distinct cycle channels the
  /// rows' breaks at p duplicate — the VCs BreakCycle adds there (0 only
  /// if no flow creates the edge, which cannot happen for a genuine CDG
  /// cycle).
  std::vector<std::size_t> combined;
};

/// Result of FindDepToBreak: where to cut and what it costs.
struct BreakCandidate {
  std::size_t cost = std::numeric_limits<std::size_t>::max();
  std::size_t edge_pos = 0;  // p: break edge (c_p, c_{p+1 mod m})
  BreakDirection direction = BreakDirection::kForward;
};

class CycleWalk;  // cost.cpp: the scoring walk, whose bitsets live here

/// Scratch for scoring and breaking one cycle: each channel's position on
/// the cycle, in an array indexed by channel id, so a route hop costs one
/// load, and the scoring walk's bitsets over cycle positions.
/// ComputeCycleCostTable, FindDepToBreak and BreakCycle fill the positions
/// from their cycle and clear exactly those entries before they return,
/// so a removal run hands one index to every call, never resets the whole
/// array and allocates no scoring scratch once the bitsets have grown to
/// its longest cycle. A call given none uses a fresh one of its own.
class CycleIndex {
 public:
  static constexpr std::uint32_t kOffCycle = 0xffffffffu;

  /// Marks a cycle's channels with their positions for its lifetime and
  /// clears them when it ends, also when the call throws.
  class Fill {
   public:
    /// Requires a non-empty cycle of distinct channels of a design with
    /// \p channel_count channels.
    Fill(CycleIndex& index, const CdgCycle& cycle, std::size_t channel_count);
    ~Fill();
    Fill(const Fill&) = delete;
    Fill& operator=(const Fill&) = delete;

    /// Position of \p c on the cycle, or kOffCycle.
    [[nodiscard]] std::uint32_t PositionOf(ChannelId c) const {
      const std::vector<std::uint32_t>& position = index_.position_;
      return c.value() < position.size() ? position[c.value()] : kOffCycle;
    }

   private:
    CycleIndex& index_;
    const CdgCycle& cycle_;
  };

 private:
  friend class CycleWalk;

  std::vector<std::uint32_t> position_;  // per channel id
  /// The cycle positions one flow has walked so far.
  std::vector<std::uint64_t> walked_;
  /// Per cycle edge p, the union of the positions the breaks at p
  /// duplicate: the combined cost's bitset.
  std::vector<std::uint64_t> duplicated_;
};

/// Builds the full cost table for breaking \p cycle in \p direction
/// (FindDepToBreakForward / ...Backward of the paper, with the table
/// exposed). \p cycle must be a genuine cycle of the design's CDG. The
/// walk is FindDepToBreak's, which writes no rows.
///
/// \p candidate_flows, when given, restricts the scan to those flows
/// (ascending FlowId order). Only flows that create at least one cycle
/// edge contribute a row, and the CDG's per-edge flow annotations name
/// exactly those flows — so passing the union of the cycle edges' flow
/// lists produces the identical table at a fraction of the cost. Pass
/// nullptr to scan every flow of the design. \p index is the scratch of
/// CycleIndex; nullptr allocates one for the call.
CycleCostTable ComputeCycleCostTable(
    const NocDesign& design, const CdgCycle& cycle, BreakDirection direction,
    const std::vector<FlowId>* candidate_flows = nullptr,
    CycleIndex* index = nullptr);

/// The paper's FindDepToBreak{Forward,Backward}: minimum combined cost and
/// its edge position (first minimum wins, deterministically), equal to
/// the first minimum of ComputeCycleCostTable(...).combined. It walks the
/// same flows but keeps no per-flow row: the combined cost comes from
/// the duplicated-position bitsets alone, in \p index's scratch.
BreakCandidate FindDepToBreak(
    const NocDesign& design, const CdgCycle& cycle, BreakDirection direction,
    const std::vector<FlowId>* candidate_flows = nullptr,
    CycleIndex* index = nullptr);

}  // namespace nocdr
