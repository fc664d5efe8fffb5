// Differential validation campaign engine.
//
// The paper's core claim is that CDG cycle breaking yields deadlock-free
// wormhole NoCs. This module validates that claim at scale by fanning
// randomized end-to-end trials over the thread pool: synthesize a design
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
// and dumped as a replayable JSON repro (valid/repro). Trials are pure
// functions of (base_seed, trial index), so campaign results are
// byte-identical for any thread count — Digest() makes that checkable in
// one comparison, exactly like runner::SweepRunner.
#pragma once

#include <cstdint>
#include <optional>
#include <string>
#include <vector>

#include "noc/design.h"
#include "sim/simulator.h"
#include "synth/route_builder.h"
#include "util/json.h"

namespace nocdr::valid {

/// Which treatment a trial applies before certification + simulation.
enum class TrialArm {
  kUntreated,           // baseline: no treatment, certificate may be negative
  kRemovalIncremental,  // RemoveDeadlocks, incremental CDG engine
  kRemovalRebuild,      // RemoveDeadlocks, rebuild-per-iteration engine
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
};

/// Classifies one (design, arm) pair against the contract: treat,
/// certify, JSON-round-trip the certificate, simulate, cross-check.
/// Deterministic in its arguments; never throws for treatment failures
/// (they become mismatch rows).
TrialRow ClassifyTrial(const NocDesign& design, TrialArm arm,
                       const WorkloadConfig& workload, std::uint64_t seed);

struct TrialOutcome {
  TrialRow row;
  /// Replayable repro dump (valid/repro.h); non-empty only for
  /// mismatching trials when shrinking is enabled.
  std::string repro_json;
};

/// ClassifyTrial plus, on mismatch, deterministic shrinking and repro
/// dumping. \p trial_index is recorded in the row and in any repro dump
/// so a dump stays correlated with its campaign row and filename.
TrialOutcome RunTrial(const NocDesign& design, TrialArm arm,
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
TrialOutcome RunTrialEngines(const NocDesign& design, TrialArm arm,
                             const WorkloadConfig& workload,
                             const std::vector<SimEngine>& engines,
                             std::uint64_t seed, bool shrink,
                             std::size_t trial_index = 0);

struct CampaignConfig {
  /// Total trial rows. Trial i generates design d = i / arms.size() from
  /// source sources[d % sources.size()] — the design seed is shared by
  /// consecutive trials so every arm sees the same design — and applies
  /// arm arms[i % arms.size()].
  std::size_t trials = 400;
  std::uint64_t base_seed = 1;
  /// Worker threads; 0 means hardware concurrency.
  std::size_t threads = 0;
  std::vector<TrialArm> arms = AllArms();
  /// Design sources interleaved across the campaign.
  std::vector<DesignSource> sources = AllSources();
  bool shrink = true;
  DesignEnvelope envelope;
  WorkloadConfig workload;
  /// Engine-differential mode: with two or more entries every trial runs
  /// RunTrialEngines over this matrix (engines[0] primary, the rest
  /// cross-checked field-for-field), turning the whole campaign into a
  /// simulation-engine equivalence test. Empty or singleton: plain
  /// single-engine trials under workload.engine (or engines[0]).
  std::vector<SimEngine> engines;
};

struct CampaignResult {
  std::vector<TrialRow> rows;
  /// (trial index, repro JSON) for every mismatching trial that shrunk.
  std::vector<std::pair<std::size_t, std::string>> repros;
  std::size_t mismatches = 0;
  std::size_t positives = 0;
  std::size_t detonations = 0;
  std::size_t infeasibles = 0;
  /// FNV-1a over the deterministic row fields; byte-identical for any
  /// thread count.
  std::uint64_t digest = 0;
};

/// Runs the whole campaign over an internal thread pool.
CampaignResult RunCampaign(const CampaignConfig& config);

/// FNV-1a digest over the deterministic fields of \p rows, in row order.
std::uint64_t Digest(const std::vector<TrialRow>& rows);

/// Renders \p row as a flat JSON object for BENCH_*.json emission.
JsonObject RowToJson(const TrialRow& row);

}  // namespace nocdr::valid
