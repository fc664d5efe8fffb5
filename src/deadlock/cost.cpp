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

CycleCostTable ComputeCycleCostTable(
    const NocDesign& design, const CdgCycle& cycle, BreakDirection direction,
    const std::vector<FlowId>* candidate_flows, CycleIndex* index) {
  Require(!cycle.empty(), "ComputeCycleCostTable: empty cycle");
  const std::size_t m = cycle.size();
  CycleIndex own;
  const CycleIndex::Fill pos(index != nullptr ? *index : own, cycle,
                             design.topology.ChannelCount());
  const bool forward = direction == BreakDirection::kForward;

  // Bitsets over cycle positions, `words` 64-bit words each: `walked`
  // holds the cycle channels one flow has walked so far, and
  // duplicated[p] the union of what the rows' breaks at edge p duplicate.
  const std::size_t words = (m + 63) / 64;
  std::vector<std::uint64_t> walked(words);
  std::vector<std::uint64_t> duplicated(m * words, 0);

  const std::size_t scan_count = candidate_flows
                                     ? candidate_flows->size()
                                     : design.traffic.FlowCount();
  CycleCostTable table;
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
    std::fill(walked.begin(), walked.end(), 0);
    std::vector<std::size_t> row;
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
      if (row.empty()) {
        row.assign(m, 0);
      }
      row[p] = val;
      for (std::size_t w = 0; w < words; ++w) {
        duplicated[p * words + w] |= walked[w];
      }
    }
    if (!row.empty()) {
      table.flows.push_back(f);
      table.cost.push_back(std::move(row));
    }
  }

  table.combined.assign(m, 0);
  for (std::size_t p = 0; p < m; ++p) {
    for (std::size_t w = 0; w < words; ++w) {
      table.combined[p] += std::popcount(duplicated[p * words + w]);
    }
  }
  return table;
}

BreakCandidate FindDepToBreak(
    const NocDesign& design, const CdgCycle& cycle, BreakDirection direction,
    const std::vector<FlowId>* candidate_flows, CycleIndex* index) {
  const CycleCostTable table = ComputeCycleCostTable(
      design, cycle, direction, candidate_flows, index);
  BreakCandidate best;
  best.direction = direction;
  for (std::size_t p = 0; p < table.combined.size(); ++p) {
    if (table.combined[p] == 0) {
      continue;  // no flow creates this edge; cannot break here
    }
    if (table.combined[p] < best.cost) {
      best.cost = table.combined[p];
      best.edge_pos = p;
    }
  }
  Require(best.cost != std::numeric_limits<std::size_t>::max(),
          "FindDepToBreak: no breakable edge; cycle is not route-induced");
  return best;
}

}  // namespace nocdr
