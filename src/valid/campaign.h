// Differential validation campaign engine.
//
// The paper's core claim is that CDG cycle breaking yields deadlock-free
// wormhole NoCs. This module validates that claim at scale by fanning
// randomized end-to-end trials over worker threads: synthesize a design
// (src/soc/synthetic + src/synth), run one treatment arm, certify the
// result (src/deadlock/verify), then run the cycle-accurate simulator
// and cross-check the four-way contract:
//
//   * a positive certificate must be accepted by the independent checker
//     AND the workload must run to completion with every packet
//     delivered and no deadlock;
//   * a negative certificate (possible only on the untreated arm) must
//     come with a genuine CDG-cycle counterexample AND the simulator
//     must reproduce a circular wait whose channels lie on a CDG cycle —
//     if the base workload completes, pressure is escalated a bounded
//     number of times before the trial is declared a mismatch;
//   * every treated arm must end deadlock-free;
//   * certificates must survive a JSON round trip with the same checker
//     verdict.
//
// Any disagreement is shrunk by a deterministic minimizer (valid/shrink)
// and dumped as a replayable JSON repro (valid/repro).
//
// This header also holds what the three campaigns (this one,
// valid/fault_campaign and valid/session_campaign) share: the design
// sources, the size envelope, and RunTrials, the one harness that maps
// trial i to its (source, seed, arm), fans the trials over the thread
// pool and digests the rows. Trials are pure functions of (base_seed,
// trial index), so campaign results are byte-identical for any thread
// count — the digest makes that checkable in one comparison.
#pragma once

#include <cstdint>
#include <optional>
#include <string>
#include <vector>

#include "noc/design.h"
#include "runner/parallel_map.h"
#include "runner/sweep.h"
#include "sim/simulator.h"
#include "synth/route_builder.h"
#include "util/error.h"
#include "util/row_fields.h"

namespace nocdr::valid {

/// Which treatment a trial applies before certification + simulation.
enum class TrialArm {
  kUntreated,           // baseline: no treatment, certificate may be negative
  kRemovalIncremental,  // RemoveDeadlocks, the incremental CDG loop
  kRemovalRebuild,      // RemoveDeadlocksRebuild, the reference loop
  kResourceOrdering,    // Dally/Towles distance classes
  kUpDown,              // up*/down* turn prohibition (may be infeasible)
};

/// All arms, in the fixed campaign order.
std::vector<TrialArm> AllArms();

/// Stable lowercase identifier ("untreated", "removal_incremental", ...).
std::string ArmName(TrialArm arm);

/// Inverse of ArmName; nullopt for unknown names.
std::optional<TrialArm> ParseArm(const std::string& name);

/// Where a trial's design comes from: the application-specific
/// synthesizer (src/soc/synthetic + src/synth) or one of the standard
/// topology families (src/gen) with their classical routing policies.
/// Generated families give the contract design distributions the
/// removal heuristic was never tuned for — notably the deliberately
/// cyclic torus/ring DOR inputs.
enum class DesignSource {
  kSynthesized,
  kMesh,
  kTorus,
  kRing,
  kFatTree,
};

/// All sources, in the fixed campaign order.
std::vector<DesignSource> AllSources();

/// Stable lowercase identifier ("synthesized", "mesh", "torus", "ring",
/// "fat_tree").
std::string SourceName(DesignSource source);

/// Inverse of SourceName; nullopt for unknown names.
std::optional<DesignSource> ParseSource(const std::string& name);

/// Size envelope the per-trial design generator draws from.
struct DesignEnvelope {
  std::size_t min_cores = 18;
  std::size_t max_cores = 60;
  std::size_t min_fanout = 2;
  std::size_t max_fanout = 6;
  std::size_t min_hubs = 1;
  std::size_t max_hubs = 4;
  /// Cores packed per synthesized switch; fewer switches means more
  /// route overlap and therefore more CDG cycles to validate against.
  std::size_t min_cores_per_switch = 3;
  std::size_t max_cores_per_switch = 6;
};

/// Deterministic design for one trial: draws a SyntheticSocSpec from the
/// envelope under \p seed and synthesizes it onto an irregular topology.
NocDesign GenerateTrialDesign(std::uint64_t seed,
                              const DesignEnvelope& envelope);

/// Deterministic design for one (source, seed) pair: kSynthesized
/// delegates to the overload above; the generated families draw a
/// GeneratorSpec (size, traffic pattern, fanout, cores per switch) from
/// \p seed sized to roughly match the envelope's core range.
NocDesign GenerateTrialDesign(DesignSource source, std::uint64_t seed,
                              const DesignEnvelope& envelope);

/// As above, but additionally hands out the next-hop routing table of a
/// generated (table-routed) family design — the fault-reconfiguration
/// campaign feeds it to the table-driven detour policy. For
/// kSynthesized (congestion-routed, no table) \p table_out comes back
/// empty and detours fall back to rip-up-and-reroute.
NocDesign GenerateTrialDesign(DesignSource source, std::uint64_t seed,
                              const DesignEnvelope& envelope,
                              NextHopTable* table_out);

/// What every campaign config shares: how many trials, from which seed,
/// on how many threads, over which design sources and sizes.
struct CampaignScope {
  /// 500 for the fault and session campaigns; CampaignConfig makes it
  /// 400.
  std::size_t trials = 500;
  std::uint64_t base_seed = 1;
  /// Worker threads; 0 means hardware concurrency. The digest is the
  /// same for any value.
  std::size_t threads = 0;
  std::vector<DesignSource> sources = AllSources();
  DesignEnvelope envelope;
};

/// Where trial \p index runs: design d = index / arms draws source
/// sources[d % sources.size()] with seed runner::JobSeed(base_seed, d),
/// and the trial applies arm index % arms. Consecutive trials therefore
/// share a design, one per arm.
struct TrialSpec {
  std::size_t index = 0;
  DesignSource source = DesignSource::kSynthesized;
  std::uint64_t seed = 0;
  std::size_t arm = 0;
};

/// A campaign's rows in trial order, and their digest.
template <typename Row>
struct CampaignResult {
  std::vector<Row> rows;
  /// Digest(rows) (util/row_fields.h); byte-identical for any thread
  /// count.
  std::uint64_t digest = 0;

  /// Rows whose verdict is \p verdict.
  [[nodiscard]] std::size_t Count(decltype(Row::verdict) verdict) const {
    std::size_t count = 0;
    for (const Row& row : rows) {
      count += row.verdict == verdict;
    }
    return count;
  }
  [[nodiscard]] std::size_t Mismatches() const {
    return Count(decltype(Row::verdict)::kMismatch);
  }
};

/// The one campaign harness: runs \p trial on the TrialSpec of every
/// trial index below scope.trials, on ParallelMapIndexed's workers, stamps
/// each row's trial_index and digests the rows. \p trial must not throw;
/// it turns a failure into a mismatch row.
template <typename Row, typename Trial>
CampaignResult<Row> RunTrials(const CampaignScope& scope, std::size_t arms,
                              Trial&& trial) {
  Require(arms > 0 && !scope.sources.empty(),
          "RunTrials: at least one arm and one design source required");
  CampaignResult<Row> result;
  result.rows = runner::ParallelMapIndexed<Row>(
      scope.trials, scope.threads, [&](std::size_t i) {
        TrialSpec spec;
        spec.index = i;
        spec.source = scope.sources[(i / arms) % scope.sources.size()];
        spec.seed = runner::JobSeed(scope.base_seed, i / arms);
        spec.arm = i % arms;
        Row row = trial(spec);
        row.trial_index = i;
        return row;
      });
  result.digest = Digest(result.rows);
  return result;
}

/// Workload pressure applied by the simulator cross-check. The defaults
/// are aggressive (shallow buffers, worms longer than routes, all flows
/// injecting at once) so that statically unsafe designs actually
/// detonate.
struct WorkloadConfig {
  std::uint16_t buffer_depth = 1;
  std::uint32_t packets_per_flow = 4;
  std::uint16_t packet_length = 8;
  std::uint64_t max_cycles = 200000;
  std::uint64_t stall_threshold = 2000;
  /// When a negative certificate fails to detonate under the blanket
  /// workload, escalate this many times before declaring a mismatch:
  /// level 1 restricts the workload to the counterexample cycle's own
  /// flows with route-spanning worms; levels >= 2 add randomly staggered
  /// short packets (Bernoulli, walking a small rate x length grid) on
  /// those flows, which close wait cycles the synchronized schedule
  /// phase-locks out of.
  std::size_t max_escalations = 6;
  SimEngine engine = SimEngine::kEvent;
};

enum class TrialVerdict {
  /// Positive certificate; workload ran clean, every packet delivered.
  kPositiveDelivered,
  /// Negative certificate; the simulator reproduced a circular wait
  /// lying on a CDG cycle.
  kNegativeDetonated,
  /// The arm cannot serve this design at all (up*/down* on a design
  /// whose bidirectional sub-topology is disconnected — the structural
  /// limitation the paper critiques). Recorded, not a contract breach.
  kArmInfeasible,
  /// The contract broke somewhere; TrialRow::mismatch says where.
  kMismatch,
};

/// Stable lowercase identifier ("positive_delivered",
/// "negative_detonated", "arm_infeasible", "mismatch").
std::string VerdictName(TrialVerdict verdict);

/// Which leg of the contract broke. The shrinker minimizes against the
/// *kind*, not the message, so a shrink step cannot silently morph one
/// disagreement into a different one.
enum class MismatchKind {
  kNone = 0,
  kTrialThrew,
  kTreatmentThrew,
  kCertificateJsonRoundTrip,
  kTreatedLeftCycle,
  kCheckerRejectedPositive,
  kPositiveDeadlocked,
  kPositiveUndelivered,
  kBadCounterexample,
  kWaitCycleOffCdg,
  kNoDetonation,
  /// Engine-differential mode only: two simulation engines disagreed on
  /// a deterministic trial field. Not minimized by the shrinker (which
  /// re-classifies under a single engine); replay from the row's
  /// design_seed + arm with each engine instead.
  kEngineDivergence,
};

/// Outcome of one trial. Every field except run_ms is a deterministic
/// function of (design, arm, workload, seed).
struct TrialRow {
  std::size_t trial_index = 0;
  std::uint64_t design_seed = 0;
  std::string design;
  DesignSource source = DesignSource::kSynthesized;
  TrialArm arm = TrialArm::kUntreated;

  // Design shape.
  std::size_t switches = 0;
  std::size_t links = 0;
  std::size_t flows = 0;
  std::size_t channels_before = 0;
  std::size_t channels_after = 0;

  // Certification.
  bool certified_free = false;
  bool certificate_checked = false;

  // Simulation (last escalation level that ran).
  bool sim_deadlocked = false;
  bool all_delivered = false;
  std::uint64_t cycles = 0;
  std::uint64_t packets_offered = 0;
  std::uint64_t packets_delivered = 0;
  std::size_t escalations = 0;

  TrialVerdict verdict = TrialVerdict::kMismatch;
  MismatchKind mismatch_kind = MismatchKind::kNone;
  /// Empty unless verdict == kMismatch.
  std::string mismatch;

  // Shrinker summary (mismatching trials with shrinking enabled only).
  std::size_t shrink_flows_kept = 0;
  std::size_t shrink_steps = 0;

  // Wall clock; excluded from Digest and determinism guarantees.
  double run_ms = 0.0;

  /// Replayable repro dump (valid/repro.h); non-empty only for a
  /// mismatching trial with shrinking enabled. Not a field: neither
  /// digested nor written to the JSON row.
  std::string repro_json;

  /// The fields in digest order (util/row_fields.h). The verdict is
  /// digested as its integer and written by name.
  static constexpr auto Fields() {
    using R = TrialRow;
    return std::tuple{
        RowField{"trial", &R::trial_index},
        RowField{"design_seed", &R::design_seed},
        RowField{"design", &R::design},
        RowField{"source", &R::source, SourceName, EnumHash::kName},
        RowField{"arm", &R::arm, ArmName, EnumHash::kName},
        RowField{"switches", &R::switches},
        RowField{"links", &R::links},
        RowField{"flows", &R::flows},
        RowField{"channels_before", &R::channels_before},
        RowField{"channels_after", &R::channels_after},
        RowField{"certified_free", &R::certified_free},
        RowField{"certificate_checked", &R::certificate_checked},
        RowField{"sim_deadlocked", &R::sim_deadlocked},
        RowField{"all_delivered", &R::all_delivered},
        RowField{"cycles", &R::cycles},
        RowField{"packets_offered", &R::packets_offered},
        RowField{"packets_delivered", &R::packets_delivered},
        RowField{"escalations", &R::escalations},
        RowField{"verdict", &R::verdict, VerdictName},
        OnFailure(RowField{"mismatch_kind", &R::mismatch_kind}),
        OnFailure(RowField{"mismatch", &R::mismatch}),
        OnFailure(RowField{"shrink_flows_kept", &R::shrink_flows_kept}),
        OnFailure(RowField{"shrink_steps", &R::shrink_steps}),
        RowField{"run_ms", &R::run_ms},
    };
  }
};

/// Classifies one (design, arm) pair against the contract: treat,
/// certify, JSON-round-trip the certificate, simulate, cross-check.
/// Deterministic in its arguments; never throws for treatment failures
/// (they become mismatch rows).
TrialRow ClassifyTrial(const NocDesign& design, TrialArm arm,
                       const WorkloadConfig& workload, std::uint64_t seed);

/// ClassifyTrial plus, on mismatch, deterministic shrinking and repro
/// dumping. \p trial_index is recorded in the row and in any repro dump
/// so a dump stays correlated with its campaign row and filename.
TrialRow RunTrial(const NocDesign& design, TrialArm arm,
                  const WorkloadConfig& workload, std::uint64_t seed,
                  bool shrink, std::size_t trial_index = 0);

/// Engine-differential trial: runs the full trial under engines[0] (the
/// primary, overriding workload.engine), then re-classifies under every
/// other engine and cross-checks all deterministic row fields. Any
/// disagreement becomes a kEngineDivergence mismatch naming the engine
/// pair and the first differing field. A trial the primary already
/// classifies as a mismatch is shrunk and reported as usual — the
/// engine sweep is skipped, one contract breach per row. Requires at
/// least one engine.
TrialRow RunTrialEngines(const NocDesign& design, TrialArm arm,
                         const WorkloadConfig& workload,
                         const std::vector<SimEngine>& engines,
                         std::uint64_t seed, bool shrink,
                         std::size_t trial_index = 0);

/// Trial i applies arm arms[i % arms.size()] to design i / arms.size()
/// (TrialSpec), so every arm sees the same design.
struct CampaignConfig : CampaignScope {
  CampaignConfig() { trials = 400; }

  std::vector<TrialArm> arms = AllArms();
  bool shrink = true;
  WorkloadConfig workload;
  /// Engine-differential mode: with two or more entries every trial runs
  /// RunTrialEngines over this matrix (engines[0] primary, the rest
  /// cross-checked field-for-field), turning the whole campaign into a
  /// simulation-engine equivalence test. Empty or singleton: plain
  /// single-engine trials under workload.engine (or engines[0]).
  std::vector<SimEngine> engines;
};

/// Runs the whole campaign on config.threads worker threads.
CampaignResult<TrialRow> RunCampaign(const CampaignConfig& config);

}  // namespace nocdr::valid
