// Deterministic fault plans: seeded link and switch failures.
//
// The paper's deadlock-removal method is cheap enough to re-run when the
// network changes; this module produces the changes. A FaultPlan is a
// sequence of bursts — sets of link/switch failures that hit together —
// drawn deterministically from (design, seed), so every fault scenario
// in the validation campaign and the benches is replayable from two
// integers. FaultState is the accumulated failure mask a plan leaves
// behind; it is the vocabulary every downstream stage speaks (masked
// re-routing in synth/route_builder, CDG surgery in fault/reconfigure,
// dead-channel packet drops in sim/transition).
#pragma once

#include <cstdint>
#include <optional>
#include <string>
#include <vector>

#include "noc/design.h"
#include "util/ids.h"

namespace nocdr::fault {

enum class FaultKind {
  kLink,    // one directed physical link goes down
  kSwitch,  // a whole switch goes down, taking every incident link
};

/// One failure. Only the id matching the kind is meaningful.
struct FaultEvent {
  FaultKind kind = FaultKind::kLink;
  LinkId link;
  SwitchId switch_id;
};

/// Failures that strike together; the reconfiguration pipeline sees a
/// burst as one atomic topology change.
using FaultBurst = std::vector<FaultEvent>;

/// A full scenario: bursts applied in order, each on the network state
/// the previous ones left behind.
struct FaultPlan {
  std::vector<FaultBurst> bursts;
};

/// Accumulated failure masks, indexed by LinkId / SwitchId. A switch
/// failure also fails every link incident to it, so failed_links alone
/// decides whether a route survives.
struct FaultState {
  std::vector<char> failed_links;
  std::vector<char> failed_switches;

  /// All-alive state sized for \p design.
  static FaultState None(const NocDesign& design);

  [[nodiscard]] bool LinkFailed(LinkId l) const {
    return failed_links[l.value()] != 0;
  }
  [[nodiscard]] bool SwitchFailed(SwitchId s) const {
    return failed_switches[s.value()] != 0;
  }
  [[nodiscard]] std::size_t FailedLinkCount() const;
  [[nodiscard]] std::size_t FailedSwitchCount() const;

  /// Marks every element \p burst names (switch failures fan out to the
  /// switch's incident links). Idempotent per element.
  void Apply(const NocDesign& design, const FaultBurst& burst);
};

/// Sets seen[s] (\p seen is resized here) for every switch s reachable
/// from \p start over the links and switches alive under \p state;
/// \p forward walks out-links, else in-links. A failed \p start
/// reaches nothing.
void SurvivorBfs(const NocDesign& design, const FaultState& state,
                 SwitchId start, bool forward, std::vector<char>& seen);

struct FaultPlanOptions {
  /// Waves of failures per plan.
  std::size_t bursts = 2;
  /// Links a link-kind burst kills (actual count drawn in [1, max]).
  std::size_t max_links_per_burst = 2;
  /// Probability a burst kills one switch instead of links.
  double switch_fault_probability = 0.2;
  /// Never kill a switch that has cores attached (its flows could not be
  /// re-routed at all — an instant disconnection). Switch faults then
  /// only hit pure transit switches; designs without any (e.g. one core
  /// per switch everywhere) degrade to link faults.
  bool spare_attachment_switches = true;
  /// Probability a burst is drawn *without* the connectivity guard.
  /// Guarded bursts only kill elements that provably keep every pair of
  /// attachment switches mutually reachable (so reconfiguration stays
  /// feasible and the pipeline gets real work); unguarded bursts may
  /// disconnect, exercising the distinct infeasibility verdict. 0 makes
  /// every burst survivable-by-construction, 1 restores pure chance.
  double disconnect_tolerance = 0.25;
};

/// Draws a deterministic plan for \p design from \p seed. Elements
/// already named earlier in the plan are never named again, and at least
/// one outgoing link of every surviving switch is left alive per burst
/// when possible; bursts come out empty once the design has nothing
/// safely failable left. Identical (design, seed, options) triples give
/// byte-identical plans on every platform.
FaultPlan DrawFaultPlan(const NocDesign& design, std::uint64_t seed,
                        const FaultPlanOptions& options = {});

/// Resolves a link failure named by (src, dst) switch names — the form
/// the serve protocol's fault_burst events arrive in. nullopt when a
/// name is unknown or no such directed link exists. Switch and link ids
/// are stable across design canonicalization, so an event resolved on
/// any rendering of the design names the same element.
std::optional<FaultEvent> MakeLinkFault(const NocDesign& design,
                                        const std::string& src_switch,
                                        const std::string& dst_switch);

/// Resolves a switch failure by name; nullopt when unknown.
std::optional<FaultEvent> MakeSwitchFault(const NocDesign& design,
                                          const std::string& switch_name);

}  // namespace nocdr::fault
