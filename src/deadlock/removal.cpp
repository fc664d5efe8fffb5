#include "deadlock/removal.h"

#include <algorithm>

#include "cdg/cdg.h"
#include "cdg/incremental.h"
#include "deadlock/breaker.h"
#include "obs/trace.h"
#include "util/error.h"

namespace nocdr {

namespace {

// Stage indices for the removal StageTimer: the four phases of every
// removal iteration, aggregated across the whole loop into one span per
// stage (and one "removal.<stage>_us" metrics histogram each). Both
// loops use the same stage names so trace analysis does not care which
// one ran; "invalidate" is the full CDG rebuild in the reference and the
// incremental ApplyBreak in RemoveDeadlocksOnCdg.
constexpr std::size_t kStageCycleSearch = 0;  // PickCycle / DirtyCycleFinder
constexpr std::size_t kStageScore = 1;        // candidate scoring (PickBreak)
constexpr std::size_t kStageApply = 2;        // BreakCycle application
constexpr std::size_t kStageInvalidate = 3;   // CDG rebuild / ApplyBreak

using obs::StageTimer;

const obs::StageSet& RemovalStages() {
  static const obs::StageSet stages(
      "removal", {"cycle_search", "score", "apply", "invalidate"});
  return stages;
}

/// Ascending union of the flow annotations on the cycle's edges — by the
/// CDG definition, exactly the flows that can contribute to any cost
/// table row or need re-routing for any break of this cycle.
std::vector<FlowId> CycleFlowUnion(const ChannelDependencyGraph& cdg,
                                   const CdgCycle& cycle) {
  std::vector<FlowId> flows;
  const std::size_t m = cycle.size();
  for (std::size_t p = 0; p < m; ++p) {
    const auto edge = cdg.FindEdge(cycle[p], cycle[(p + 1) % m]);
    Require(edge.has_value(),
            "CycleFlowUnion: cycle edge missing from the CDG");
    const auto& edge_flows = cdg.EdgeAt(*edge).flows;
    flows.insert(flows.end(), edge_flows.begin(), edge_flows.end());
  }
  std::sort(flows.begin(), flows.end());
  flows.erase(std::unique(flows.begin(), flows.end()), flows.end());
  return flows;
}

BreakCandidate PickBreak(const NocDesign& design, const CdgCycle& cycle,
                         DirectionPolicy policy,
                         const std::vector<FlowId>& candidates,
                         CycleIndex& index) {
  switch (policy) {
    case DirectionPolicy::kForwardOnly:
      return FindDepToBreak(design, cycle, BreakDirection::kForward,
                            &candidates, &index);
    case DirectionPolicy::kBackwardOnly:
      return FindDepToBreak(design, cycle, BreakDirection::kBackward,
                            &candidates, &index);
    case DirectionPolicy::kBoth:
      break;
  }
  // Algorithm 1, steps 5-11: evaluate both directions, keep the cheaper;
  // forward wins ties (the paper's `if f_cost <= b_cost`).
  const BreakCandidate fwd = FindDepToBreak(
      design, cycle, BreakDirection::kForward, &candidates, &index);
  const BreakCandidate bwd = FindDepToBreak(
      design, cycle, BreakDirection::kBackward, &candidates, &index);
  return fwd.cost <= bwd.cost ? fwd : bwd;
}

/// Applies the chosen break and records it; shared by both loops.
/// \p stages aggregates the scoring and application time (stage spans
/// and "removal.*_us" histograms are emitted when it is destroyed), and
/// \p index is the run's scoring and breaking scratch.
void ApplyAndRecord(NocDesign& design, const ChannelDependencyGraph& cdg,
                    const CdgCycle& cycle, const RemovalOptions& options,
                    StageTimer& stages, CycleIndex& index,
                    RemovalReport& report, BreakResult& applied_out) {
  if (report.iterations >= options.max_iterations) {
    throw AlgorithmLimitError("RemoveDeadlocks: iteration cap exceeded (" +
                              std::to_string(options.max_iterations) + ")");
  }
  const std::vector<FlowId> candidates = CycleFlowUnion(cdg, cycle);
  BreakCandidate chosen;
  {
    StageTimer::Section section(stages, kStageScore);
    chosen = PickBreak(design, cycle, options.direction_policy, candidates,
                       index);
    stages.Count(kStageScore, "candidates", candidates.size());
  }
  {
    StageTimer::Section section(stages, kStageApply);
    applied_out = BreakCycle(design, cycle, chosen.edge_pos, chosen.direction,
                             options.duplication, &candidates, &index);
    stages.Count(kStageApply, "vcs_added", applied_out.added_channels.size());
  }

  // Sharing duplicates between flows must keep the realized VC count at
  // the predicted cost; a mismatch means the cost table lied.
  Require(applied_out.added_channels.size() == chosen.cost,
          "RemoveDeadlocks: realized VC count differs from predicted cost");
  if (options.paranoid_validation) {
    design.Validate();
  }

  RemovalStep step;
  step.cycle_length = cycle.size();
  step.direction = chosen.direction;
  step.edge_pos = chosen.edge_pos;
  step.cost = chosen.cost;
  step.vcs_added = applied_out.added_channels.size();
  step.flows_rerouted = applied_out.rerouted_flows.size();
  report.steps.push_back(step);
  report.vcs_added += step.vcs_added;
  report.flows_rerouted += step.flows_rerouted;
  report.rerouted_flows.insert(report.rerouted_flows.end(),
                               applied_out.rerouted_flows.begin(),
                               applied_out.rerouted_flows.end());
  ++report.iterations;
}

/// Leaves the report's re-routed flows ascending and each once; called
/// when a loop ends.
void SortReroutedFlows(RemovalReport& report) {
  std::vector<FlowId>& flows = report.rerouted_flows;
  std::sort(flows.begin(), flows.end());
  flows.erase(std::unique(flows.begin(), flows.end()), flows.end());
}

}  // namespace

RemovalReport RemoveDeadlocksRebuild(NocDesign& design,
                                     const RemovalOptions& options) {
  RemovalReport report;
  StageTimer stages(RemovalStages());
  CycleIndex index;
  ChannelDependencyGraph cdg = ChannelDependencyGraph::Build(design);
  std::optional<CdgCycle> cycle;
  {
    StageTimer::Section section(stages, kStageCycleSearch);
    cycle = PickCycle(cdg, options.cycle_policy);
  }
  report.initially_deadlock_free = !cycle.has_value();

  while (cycle) {
    BreakResult applied;
    ApplyAndRecord(design, cdg, *cycle, options, stages, index, report,
                   applied);
    {
      StageTimer::Section section(stages, kStageInvalidate);
      cdg = ChannelDependencyGraph::Build(design);
    }
    StageTimer::Section section(stages, kStageCycleSearch);
    cycle = PickCycle(cdg, options.cycle_policy);
  }
  SortReroutedFlows(report);
  return report;
}

RemovalReport RemoveDeadlocksOnCdg(NocDesign& design,
                                   ChannelDependencyGraph& cdg,
                                   DirtyCycleFinder& finder,
                                   const RemovalOptions& options) {
  RemovalReport report;
  StageTimer stages(RemovalStages());
  CycleIndex index;
  const DirtyCycleFinder::Stats before = finder.stats();
  // The finder's pick, held to a full scan in paranoid mode.
  const auto pick = [&] {
    std::optional<CdgCycle> picked;
    {
      StageTimer::Section section(stages, kStageCycleSearch);
      picked = finder.Pick(options.cycle_policy);
    }
    if (options.paranoid_validation) {
      Require(picked == PickCycle(cdg, options.cycle_policy),
              "RemoveDeadlocks: incremental cycle pick diverged from a "
              "full scan");
    }
    return picked;
  };
  std::optional<CdgCycle> cycle = pick();
  report.initially_deadlock_free = !cycle.has_value();

  while (cycle) {
    BreakResult applied;
    ApplyAndRecord(design, cdg, *cycle, options, stages, index, report,
                   applied);
    {
      StageTimer::Section section(stages, kStageInvalidate);
      cdg.ApplyBreak(design, applied.rerouted_flows, applied.old_routes);
    }
    if (options.paranoid_validation) {
      Require(cdg.SameDependencies(ChannelDependencyGraph::Build(design)),
              "RemoveDeadlocks: incremental CDG diverged from rebuild");
    }
    cycle = pick();
  }
  SortReroutedFlows(report);
  const DirtyCycleFinder::Stats& after = finder.stats();
  report.cycle_bfs_runs = after.bfs_runs - before.bfs_runs;
  report.scc_vertices = after.scc_vertices - before.scc_vertices;
  report.cycle_checks = after.cycle_checks - before.cycle_checks;
  stages.Count(kStageCycleSearch, "bfs_runs", report.cycle_bfs_runs);
  stages.Count(kStageCycleSearch, "scc_vertices", report.scc_vertices);
  stages.Count(kStageCycleSearch, "cycle_checks", report.cycle_checks);
  return report;
}

RemovalReport RemoveDeadlocks(NocDesign& design,
                              const RemovalOptions& options) {
  ChannelDependencyGraph cdg = ChannelDependencyGraph::Build(design);
  DirtyCycleFinder finder(cdg);
  return RemoveDeadlocksOnCdg(design, cdg, finder, options);
}

bool IsDeadlockFree(const NocDesign& design) {
  return IsAcyclic(ChannelDependencyGraph::Build(design));
}

std::string Summarize(const RemovalReport& report) {
  if (report.initially_deadlock_free) {
    return "already deadlock-free; no VCs added";
  }
  return "broke " + std::to_string(report.iterations) + " cycle(s), added " +
         std::to_string(report.vcs_added) + " VC(s), re-routed " +
         std::to_string(report.flows_rerouted) + " flow traversal(s)";
}

}  // namespace nocdr
