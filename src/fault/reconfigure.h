// Online reconfiguration after a fault burst.
//
// When links or switches fail, every flow whose route touched them must
// detour — and the detours can close new channel-dependency cycles, so
// deadlock removal has to run again. This module does that *online*,
// without rebuilding anything the fault did not touch:
//
//   1. affected flows are found by scanning routes against the failure
//      masks;
//   2. if the surviving topology cannot connect some affected flow's
//      endpoints, the burst is infeasible: it is reported with the
//      disconnected flows and nothing is mutated;
//   3. otherwise affected flows are re-routed — through the patched
//      next-hop table when the design is table-routed (the detour
//      policy; synth/route_builder.h), falling back to congestion-aware
//      rip-up-and-reroute Dijkstra otherwise. The burst is one patch
//      round in the table's journal (NextHopTable::JournalRound), and
//      only the columns of the affected flows' destination switches
//      replay their pending rounds, each stored from the family's rule
//      on its first read: a detour walk reads only its destination's
//      column. Every other column stays pending, and unstored, until a
//      later burst reads it. The rebuild reference patches every column
//      in every burst (PatchNextHopTable's schedule); the columns the
//      walks read are bit-identical either way;
//   4. the route churn is mirrored into the caller's live CDG via
//      RemoveEdges/AddEdges (plus DirtyCycleFinder taints), never a
//      rebuild;
//   5. deadlock removal re-runs incrementally on that CDG
//      (RemoveDeadlocksOnCdg), so only dirty SCCs are re-scanned.
//
// When a trace is current (obs/trace.h), steps 1-2 run under a
// "fault.affected" span, the table patch under "fault.patch_table" and
// the rest of steps 3-4 under "fault.reroute"; step 5's removal stage
// spans follow them as siblings.
//
// ApplyFaultBurstRebuild is the from-scratch reference: identical
// re-route decisions, but the CDG is re-derived and removal runs
// RemoveDeadlocksRebuild. The two paths must produce bit-identical
// designs — the fault-reconfig validation campaign
// (src/valid/fault_campaign) checks that on every trial, and
// `bench_campaign --campaign fault` measures the incremental path's
// speedup.
#pragma once

#include <cstddef>
#include <vector>

#include "cdg/cdg.h"
#include "cdg/incremental.h"
#include "deadlock/removal.h"
#include "fault/plan.h"
#include "noc/design.h"
#include "synth/route_builder.h"

namespace nocdr::fault {

struct ReconfigureOptions {
  /// Next-hop table of a table-routed design; enables the table-driven
  /// detour policy and is patched in place as bursts land (step 3).
  /// After ApplyFaultBurst, columns no detour read may hold pending
  /// rounds; NextHopTable::Flush brings them up to date. nullptr means
  /// every affected flow takes the rip-up-and-reroute fallback. Each
  /// reconfiguration pipeline (e.g. the incremental and the rebuild
  /// reference of one trial) must own its own copy.
  NextHopTable* table = nullptr;
  /// Congestion model of the rip-up fallback.
  RouteBuildOptions route_options;
  /// Options of the post-fault removal re-run; the incremental path runs
  /// RemoveDeadlocksOnCdg, the reference RemoveDeadlocksRebuild.
  /// `removal.paranoid_validation` also checks the whole burst: the
  /// mutated CDG against a from-scratch rebuild, every table column the
  /// detours read against a copy of the table patched in every column,
  /// and the design's Validate() (slow; tests and paranoid sessions).
  RemovalOptions removal;
};

struct ReconfigureReport {
  /// Flows whose route crossed a failed element (or whose endpoint
  /// switch died), ascending by id.
  std::vector<FlowId> affected_flows;
  /// Affected flows whose endpoints the surviving topology cannot
  /// connect. Non-empty means the burst was infeasible and nothing was
  /// mutated.
  std::vector<FlowId> disconnected_flows;
  /// How each affected flow was re-routed.
  std::size_t table_detours = 0;
  std::size_t ripup_reroutes = 0;
  /// Next-hop table columns that replayed a pending patch round in this
  /// burst, and the rounds they replayed (NextHopTable::Refresh); 0 when
  /// the design is not table-routed.
  std::size_t table_columns = 0;
  std::size_t table_column_rounds = 0;
  /// The post-fault removal re-run.
  RemovalReport removal;

  [[nodiscard]] bool infeasible() const {
    return !disconnected_flows.empty();
  }
};

/// Flows of \p design whose current route traverses a failed link or
/// whose endpoint attachment switch has failed, ascending by id.
std::vector<FlowId> AffectedFlows(const NocDesign& design,
                                  const FaultState& state);

/// Per-channel mask of channels multiplexed onto failed links — the
/// channels the transition simulator treats as lethal to in-flight
/// packets (sim/transition.h).
std::vector<char> DeadChannelMask(const NocDesign& design,
                                  const FaultState& state);

/// Applies one burst to a live (design, cdg, finder, state) quadruple:
/// steps 1-5 above. On an infeasible burst, returns the report with
/// disconnected_flows set and mutates nothing (state included). The CDG
/// must mirror the design's routes on entry; it still does on return.
ReconfigureReport ApplyFaultBurst(NocDesign& design,
                                  ChannelDependencyGraph& cdg,
                                  DirtyCycleFinder& finder,
                                  FaultState& state, const FaultBurst& burst,
                                  const ReconfigureOptions& options = {});

/// The from-scratch reference: identical affected-flow set, detours and
/// rip-up re-routes, but no CDG is maintained — removal re-derives the
/// graph from the design and runs RemoveDeadlocksRebuild. Infeasible
/// bursts behave exactly like ApplyFaultBurst's.
ReconfigureReport ApplyFaultBurstRebuild(
    NocDesign& design, FaultState& state, const FaultBurst& burst,
    const ReconfigureOptions& options = {});

}  // namespace nocdr::fault
