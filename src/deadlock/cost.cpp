#include "deadlock/cost.h"

#include <algorithm>
#include <bit>

#include "util/error.h"

namespace nocdr {

CycleIndex::Fill::Fill(CycleIndex& index, const CdgCycle& cycle,
                       std::size_t channel_count)
    : index_(index), cycle_(cycle) {
  std::vector<std::uint32_t>& position = index_.position_;
  if (position.size() < channel_count) {
    position.resize(channel_count, kOffCycle);
  }
  for (std::size_t i = 0; i < cycle.size(); ++i) {
    const ChannelId c = cycle[i];
    const bool known = c.valid() && c.value() < channel_count;
    if (!known || position[c.value()] != kOffCycle) {
      // A throwing constructor runs no destructor: clear what was set.
      for (std::size_t k = 0; k < i; ++k) {
        position[cycle[k].value()] = kOffCycle;
      }
      throw InvalidModelError(known
                                  ? "cycle repeats a vertex; not a simple cycle"
                                  : "cycle names a channel the design lacks");
    }
    position[c.value()] = static_cast<std::uint32_t>(i);
  }
}

CycleIndex::Fill::~Fill() {
  for (const ChannelId c : cycle_) {
    index_.position_[c.value()] = kOffCycle;
  }
}

/// Algorithm 2's walk over the flows that may create edges of one cycle,
/// shared by ComputeCycleCostTable and FindDepToBreak: it fills the
/// duplicated-position bitsets in \p index's scratch and writes the
/// per-flow rows of \p rows only when given a table.
class CycleWalk {
 public:
  CycleWalk(const NocDesign& design, const CdgCycle& cycle,
            BreakDirection direction,
            const std::vector<FlowId>* candidate_flows, CycleIndex& index,
            CycleCostTable* rows);

  /// The combined cost at edge p: the distinct cycle channels the breaks
  /// at p duplicate.
  [[nodiscard]] std::size_t Combined(std::size_t p) const {
    std::size_t cost = 0;
    for (std::size_t w = 0; w < words_; ++w) {
      cost += std::popcount(index_.duplicated_[p * words_ + w]);
    }
    return cost;
  }

 private:
  const CycleIndex& index_;
  std::size_t words_ = 0;
};

CycleWalk::CycleWalk(const NocDesign& design, const CdgCycle& cycle,
                     BreakDirection direction,
                     const std::vector<FlowId>* candidate_flows,
                     CycleIndex& index, CycleCostTable* rows)
    : index_(index) {
  Require(!cycle.empty(), "ComputeCycleCostTable: empty cycle");
  const std::size_t m = cycle.size();
  const CycleIndex::Fill pos(index, cycle, design.topology.ChannelCount());
  const bool forward = direction == BreakDirection::kForward;

  // Bitsets over cycle positions, `words` 64-bit words each: `walked`
  // holds the cycle channels one flow has walked so far, and
  // duplicated[p] the union of what the rows' breaks at edge p duplicate.
  words_ = (m + 63) / 64;
  if (index.walked_.size() < words_) {
    index.walked_.resize(words_);
  }
  index.duplicated_.assign(m * words_, 0);
  std::uint64_t* const walked = index.walked_.data();
  std::uint64_t* const duplicated = index.duplicated_.data();

  const std::size_t scan_count = candidate_flows
                                     ? candidate_flows->size()
                                     : design.traffic.FlowCount();
  for (std::size_t fi = 0; fi < scan_count; ++fi) {
    const FlowId f = candidate_flows ? (*candidate_flows)[fi] : FlowId(fi);
    const Route& route = design.routes.RouteOf(f);
    const std::size_t n = route.size();

    // Walk the route source->destination for forward breaks and
    // destination->source for backward ones, counting the cycle channels
    // walked (the paper's `val`). A forward break at edge (c_p, c_{p+1})
    // duplicates what the walk holds on reaching c_p, a backward one what
    // it holds on reaching c_{p+1}. Flows that walk at most one cycle
    // channel create no cycle edge (Algorithm 2, steps 3-7) and get no
    // row.
    std::fill(walked, walked + words_, 0);
    std::vector<std::size_t>* row = nullptr;
    std::size_t val = 0;
    for (std::size_t s = 0; s < n; ++s) {
      const std::size_t i = forward ? s : n - 1 - s;
      const std::uint32_t q = pos.PositionOf(route[i]);
      if (q == CycleIndex::kOffCycle) {
        continue;
      }
      ++val;
      walked[q / 64] |= std::uint64_t{1} << (q % 64);
      // Edge p is the one whose duplicated side ends at c_q: (c_q,
      // c_{q+1}) forward, (c_{q-1}, c_q) backward. The flow creates it if
      // its route holds the edge's other end next to c_q.
      const std::size_t p = forward ? q : (q + m - 1) % m;
      const ChannelId other = cycle[forward ? (p + 1) % m : p];
      const bool creates = forward ? i + 1 < n && route[i + 1] == other
                                   : i > 0 && route[i - 1] == other;
      if (!creates) {
        continue;
      }
      if (rows != nullptr) {
        if (row == nullptr) {
          rows->flows.push_back(f);
          row = &rows->cost.emplace_back(m, 0);
        }
        (*row)[p] = val;
      }
      for (std::size_t w = 0; w < words_; ++w) {
        duplicated[p * words_ + w] |= walked[w];
      }
    }
  }
}

CycleCostTable ComputeCycleCostTable(
    const NocDesign& design, const CdgCycle& cycle, BreakDirection direction,
    const std::vector<FlowId>* candidate_flows, CycleIndex* index) {
  CycleIndex own;
  CycleCostTable table;
  const CycleWalk walk(design, cycle, direction, candidate_flows,
                       index != nullptr ? *index : own, &table);
  table.combined.resize(cycle.size());
  for (std::size_t p = 0; p < cycle.size(); ++p) {
    table.combined[p] = walk.Combined(p);
  }
  return table;
}

BreakCandidate FindDepToBreak(
    const NocDesign& design, const CdgCycle& cycle, BreakDirection direction,
    const std::vector<FlowId>* candidate_flows, CycleIndex* index) {
  CycleIndex own;
  const CycleWalk walk(design, cycle, direction, candidate_flows,
                       index != nullptr ? *index : own, nullptr);
  BreakCandidate best;
  best.direction = direction;
  for (std::size_t p = 0; p < cycle.size(); ++p) {
    const std::size_t cost = walk.Combined(p);
    if (cost == 0) {
      continue;  // no flow creates this edge; cannot break here
    }
    if (cost < best.cost) {
      best.cost = cost;
      best.edge_pos = p;
    }
  }
  Require(best.cost != std::numeric_limits<std::size_t>::max(),
          "FindDepToBreak: no breakable edge; cycle is not route-induced");
  return best;
}

}  // namespace nocdr
