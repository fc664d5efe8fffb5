#include "fault/plan.h"

#include <algorithm>

#include "util/error.h"
#include "util/rng.h"

namespace nocdr::fault {

FaultState FaultState::None(const NocDesign& design) {
  FaultState state;
  state.failed_links.assign(design.topology.LinkCount(), 0);
  state.failed_switches.assign(design.topology.SwitchCount(), 0);
  return state;
}

std::size_t FaultState::FailedLinkCount() const {
  return static_cast<std::size_t>(
      std::count(failed_links.begin(), failed_links.end(), 1));
}

std::size_t FaultState::FailedSwitchCount() const {
  return static_cast<std::size_t>(
      std::count(failed_switches.begin(), failed_switches.end(), 1));
}

void FaultState::Apply(const NocDesign& design, const FaultBurst& burst) {
  Require(failed_links.size() == design.topology.LinkCount() &&
              failed_switches.size() == design.topology.SwitchCount(),
          "FaultState::Apply: state not sized for this design");
  for (const FaultEvent& event : burst) {
    switch (event.kind) {
      case FaultKind::kLink:
        Require(design.topology.IsValidLink(event.link),
                "FaultState::Apply: invalid link id");
        failed_links[event.link.value()] = 1;
        break;
      case FaultKind::kSwitch: {
        Require(design.topology.IsValidSwitch(event.switch_id),
                "FaultState::Apply: invalid switch id");
        failed_switches[event.switch_id.value()] = 1;
        for (const LinkId l : design.topology.OutLinks(event.switch_id)) {
          failed_links[l.value()] = 1;
        }
        for (const LinkId l : design.topology.InLinks(event.switch_id)) {
          failed_links[l.value()] = 1;
        }
        break;
      }
    }
  }
}

void SurvivorBfs(const NocDesign& design, const FaultState& state,
                 SwitchId start, bool forward, std::vector<char>& seen) {
  seen.assign(design.topology.SwitchCount(), 0);
  if (state.SwitchFailed(start)) {
    return;
  }
  std::vector<std::uint32_t> queue{start.value()};
  seen[start.value()] = 1;
  for (std::size_t head = 0; head < queue.size(); ++head) {
    const SwitchId v(queue[head]);
    const auto& links = forward ? design.topology.OutLinks(v)
                                : design.topology.InLinks(v);
    for (const LinkId l : links) {
      if (state.LinkFailed(l)) {
        continue;
      }
      const Link& link = design.topology.LinkAt(l);
      const SwitchId w = forward ? link.dst : link.src;
      if (!seen[w.value()] && !state.SwitchFailed(w)) {
        seen[w.value()] = 1;
        queue.push_back(w.value());
      }
    }
  }
}

namespace {

/// Out-links of \p s still alive under \p state.
std::size_t AliveOut(const NocDesign& design, const FaultState& state,
                     SwitchId s) {
  std::size_t alive = 0;
  for (const LinkId l : design.topology.OutLinks(s)) {
    alive += !state.LinkFailed(l);
  }
  return alive;
}

std::size_t AliveIn(const NocDesign& design, const FaultState& state,
                    SwitchId s) {
  std::size_t alive = 0;
  for (const LinkId l : design.topology.InLinks(s)) {
    alive += !state.LinkFailed(l);
  }
  return alive;
}

/// True when, under \p state, every pair of attachment switches stays
/// mutually reachable: for a pivot attachment switch a0, a0 must reach
/// and be reached by every other attachment switch (then x -> a0 -> y
/// connects any pair). Exactly the condition under which every flow can
/// still be re-routed.
bool AttachmentsStronglyConnected(const NocDesign& design,
                                  const FaultState& state,
                                  const std::vector<char>& has_cores,
                                  std::vector<char>& fwd,
                                  std::vector<char>& bwd) {
  SwitchId pivot;
  for (std::size_t s = 0; s < has_cores.size(); ++s) {
    if (has_cores[s]) {
      pivot = SwitchId(s);
      break;
    }
  }
  if (!pivot.valid()) {
    return true;  // no attached cores, nothing to protect
  }
  SurvivorBfs(design, state, pivot, /*forward=*/true, fwd);
  SurvivorBfs(design, state, pivot, /*forward=*/false, bwd);
  for (std::size_t s = 0; s < has_cores.size(); ++s) {
    if (has_cores[s] && (!fwd[s] || !bwd[s])) {
      return false;
    }
  }
  return true;
}

}  // namespace

FaultPlan DrawFaultPlan(const NocDesign& design, std::uint64_t seed,
                        const FaultPlanOptions& options) {
  Require(options.max_links_per_burst >= 1,
          "DrawFaultPlan: max_links_per_burst must be >= 1");
  Rng rng(seed);
  FaultPlan plan;
  FaultState state = FaultState::None(design);

  std::vector<char> has_cores(design.topology.SwitchCount(), 0);
  for (const SwitchId s : design.attachment) {
    has_cores[s.value()] = 1;
  }

  std::vector<char> fwd, bwd;  // BFS scratch for the connectivity guard
  // True when killing \p event on top of \p state keeps every pair of
  // attachment switches mutually reachable (reconfiguration provably
  // stays feasible).
  const auto survivable = [&](const FaultEvent& event) {
    FaultState probe = state;
    probe.Apply(design, {event});
    return AttachmentsStronglyConnected(design, probe, has_cores, fwd, bwd);
  };

  for (std::size_t b = 0; b < options.bursts; ++b) {
    // Guarded bursts reject disconnecting kills; unguarded ones take
    // their chances (and exercise the infeasibility verdict downstream).
    const bool guarded = !rng.NextBool(options.disconnect_tolerance);
    FaultBurst burst;
    if (rng.NextBool(options.switch_fault_probability)) {
      // Kill one transit switch (or any switch when attachment sparing
      // is off).
      std::vector<SwitchId> candidates;
      for (std::size_t s = 0; s < design.topology.SwitchCount(); ++s) {
        const SwitchId sw(s);
        if (state.SwitchFailed(sw)) {
          continue;
        }
        if (options.spare_attachment_switches && has_cores[s]) {
          continue;
        }
        candidates.push_back(sw);
      }
      while (!candidates.empty()) {
        const std::size_t pick = rng.NextBelow(candidates.size());
        const FaultEvent event{FaultKind::kSwitch, LinkId(),
                               candidates[pick]};
        if (!guarded || survivable(event)) {
          burst.push_back(event);
          break;
        }
        candidates.erase(candidates.begin() +
                         static_cast<std::ptrdiff_t>(pick));
      }
    }
    if (burst.empty()) {
      const std::size_t want =
          1 + static_cast<std::size_t>(
                  rng.NextBelow(options.max_links_per_burst));
      for (std::size_t k = 0; k < want; ++k) {
        // Cheap pre-filter: a link is a candidate when it is alive and
        // neither endpoint would be left without any alive link in that
        // direction. Guarded bursts additionally reject kills the
        // connectivity check proves disconnecting.
        std::vector<LinkId> candidates;
        for (std::size_t li = 0; li < design.topology.LinkCount(); ++li) {
          const LinkId l(li);
          if (state.LinkFailed(l)) {
            continue;
          }
          const Link& link = design.topology.LinkAt(l);
          if (AliveOut(design, state, link.src) <= 1 ||
              AliveIn(design, state, link.dst) <= 1) {
            continue;
          }
          candidates.push_back(l);
        }
        bool placed = false;
        while (!candidates.empty()) {
          const std::size_t pick = rng.NextBelow(candidates.size());
          const FaultEvent event{FaultKind::kLink, candidates[pick],
                                 SwitchId()};
          if (!guarded || survivable(event)) {
            burst.push_back(event);
            state.Apply(design, {event});
            placed = true;
            break;
          }
          candidates.erase(candidates.begin() +
                           static_cast<std::ptrdiff_t>(pick));
        }
        if (!placed) {
          break;
        }
      }
    } else {
      state.Apply(design, burst);
    }
    plan.bursts.push_back(std::move(burst));
  }
  return plan;
}

namespace {

std::optional<SwitchId> FindSwitchByName(const NocDesign& design,
                                         const std::string& name) {
  for (std::size_t s = 0; s < design.topology.SwitchCount(); ++s) {
    const SwitchId id{s};
    if (design.topology.SwitchName(id) == name) {
      return id;
    }
  }
  return std::nullopt;
}

}  // namespace

std::optional<FaultEvent> MakeLinkFault(const NocDesign& design,
                                        const std::string& src_switch,
                                        const std::string& dst_switch) {
  const auto src = FindSwitchByName(design, src_switch);
  const auto dst = FindSwitchByName(design, dst_switch);
  if (!src || !dst) {
    return std::nullopt;
  }
  const auto link = design.topology.FindLink(*src, *dst);
  if (!link) {
    return std::nullopt;
  }
  FaultEvent event;
  event.kind = FaultKind::kLink;
  event.link = *link;
  return event;
}

std::optional<FaultEvent> MakeSwitchFault(const NocDesign& design,
                                          const std::string& switch_name) {
  const auto id = FindSwitchByName(design, switch_name);
  if (!id) {
    return std::nullopt;
  }
  FaultEvent event;
  event.kind = FaultKind::kSwitch;
  event.switch_id = *id;
  return event;
}

}  // namespace nocdr::fault
