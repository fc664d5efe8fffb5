// The deadlock removal algorithm (Algorithm 1 of the paper).
//
// While the channel dependency graph of the design has a cycle: take the
// smallest cycle, evaluate the cheapest way to break it in the forward and
// in the backward direction (Algorithm 2), apply the cheaper break (VC
// duplication + re-routing), and repeat on the updated design. Terminates
// when the CDG is acyclic, i.e. the design is provably deadlock-free for
// wormhole flow control with static routing.
//
// RemoveDeadlocks keeps one CDG alive across iterations, mirrors each
// break into it (ChannelDependencyGraph::ApplyBreak) and re-scans only
// dirty vertices for the next cycle (cdg/incremental.h).
// RemoveDeadlocksRebuild is the paper's literal formulation: it
// re-derives the CDG from the design and scans every vertex each
// iteration. It is the reference the incremental loop is benchmarked and
// property-tested against, called by name. Both make identical removal
// decisions (same steps, VC counts and final designs); only the work
// counters (cycle_bfs_runs, scc_vertices, cycle_checks) differ, as they
// exist to measure the incremental loop.
#pragma once

#include <cstddef>
#include <string>
#include <vector>

#include "cdg/cycle.h"
#include "deadlock/breaker.h"
#include "deadlock/cost.h"
#include "noc/design.h"

namespace nocdr {

/// Which break directions the cost search may consider; the paper uses
/// both, the restricted variants exist for the ablation study.
enum class DirectionPolicy {
  kBoth,
  kForwardOnly,
  kBackwardOnly,
};

/// Tuning knobs of the removal loop.
struct RemovalOptions {
  CyclePolicy cycle_policy = CyclePolicy::kSmallestFirst;
  DirectionPolicy direction_policy = DirectionPolicy::kBoth;
  /// Realize duplicates as extra VCs (default) or, for switch
  /// architectures without VC support, as parallel physical links.
  DuplicationMode duplication = DuplicationMode::kVirtualChannel;
  /// Hard safety cap on loop iterations; the heuristic converges on every
  /// input we have seen, but a cap turns a hypothetical livelock into an
  /// AlgorithmLimitError instead of a hang.
  std::size_t max_iterations = 100000;
  /// Re-validate the whole design after every break, and (incremental
  /// loop) check the mutated CDG against a from-scratch rebuild
  /// (slow; for tests).
  bool paranoid_validation = false;
};

/// One loop iteration, for reporting and debugging.
struct RemovalStep {
  std::size_t cycle_length = 0;
  BreakDirection direction = BreakDirection::kForward;
  std::size_t edge_pos = 0;
  std::size_t cost = 0;
  std::size_t vcs_added = 0;
  std::size_t flows_rerouted = 0;
};

/// Summary of a removal run.
struct RemovalReport {
  /// True when the input CDG was already acyclic (no work needed) — the
  /// common case for sparse application-specific designs (paper, Fig. 8).
  bool initially_deadlock_free = false;
  std::size_t iterations = 0;
  std::size_t vcs_added = 0;
  /// Re-routes over the run, one per flow a break re-routed (a flow
  /// re-routed by two breaks counts twice).
  std::size_t flows_rerouted = 0;
  /// The flows whose route the run changed, ascending by id, each once.
  std::vector<FlowId> rerouted_flows;
  /// Vertices whose shortest cycle was recomputed by BFS across the whole
  /// run (incremental loop only; RemoveDeadlocksRebuild leaves it 0, and
  /// its equivalent is roughly VertexCount() per iteration).
  std::size_t cycle_bfs_runs = 0;
  /// The incremental loop's other two cycle-search counters
  /// (DirtyCycleFinder::Stats), over the run; 0 from
  /// RemoveDeadlocksRebuild: vertices whose SCC a pick recomputed, and
  /// cached cycles re-verified edge by edge.
  std::size_t scc_vertices = 0;
  std::size_t cycle_checks = 0;
  std::vector<RemovalStep> steps;
};

/// Runs Algorithm 1 on \p design in place: one Build, one
/// DirtyCycleFinder and RemoveDeadlocksOnCdg. On return the design's CDG
/// is acyclic and the design still satisfies Validate(). Throws
/// AlgorithmLimitError if options.max_iterations is exceeded.
RemovalReport RemoveDeadlocks(NocDesign& design,
                              const RemovalOptions& options = {});

/// The reference: Algorithm 1 as the paper states it, re-deriving the
/// CDG from the design and scanning every vertex on every iteration.
/// Same contract and same decisions as RemoveDeadlocks; its work
/// counters stay 0.
RemovalReport RemoveDeadlocksRebuild(NocDesign& design,
                                     const RemovalOptions& options = {});

class DirtyCycleFinder;

/// The incremental removal loop on a caller-maintained CDG and
/// dirty-cycle finder instead of a freshly built pair. \p cdg must
/// mirror design's routes exactly (and \p finder must serve \p cdg);
/// every break is mirrored back via ApplyBreak, so on return the CDG is
/// acyclic and still in sync with the design. This is the entry point
/// the fault-reconfiguration pipeline (src/fault) uses to keep one CDG
/// and one finder cache alive across fault bursts instead of paying a
/// from-scratch Build per burst. The report's work counters
/// (cycle_bfs_runs, scc_vertices, cycle_checks) count only this call,
/// not the finder's lifetime total.
RemovalReport RemoveDeadlocksOnCdg(NocDesign& design,
                                   ChannelDependencyGraph& cdg,
                                   DirtyCycleFinder& finder,
                                   const RemovalOptions& options = {});

/// True iff the design's CDG is acyclic (Dally/Towles condition).
bool IsDeadlockFree(const NocDesign& design);

/// Human-readable one-line summary of a report.
std::string Summarize(const RemovalReport& report);

}  // namespace nocdr
