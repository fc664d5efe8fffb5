// Fault-injection validation campaign: the incremental
// reconfiguration pipeline (src/fault) against its from-scratch
// reference and against the cycle-accurate simulator, at scale.
//
// Each trial: generate a design (same five sources as the base
// campaign), make it deadlock-free with the removal algorithm, then
// replay a seeded FaultPlan burst by burst. Every burst runs twice in
// lockstep — ApplyFaultBurst on a live (CDG, finder) pair and
// ApplyFaultBurstRebuild on a pristine copy — and the contract is:
//
//   * both paths must agree on feasibility, the affected-flow set, the
//     detour/rip-up split, the removal outcome and the final design
//     (routes compared flow by flow);
//   * the incrementally maintained CDG must be bit-identical to a
//     from-scratch rebuild of the post-burst design;
//   * the post-fault certificate (computed from the maintained CDG via
//     CertifyFromCdg) must be positive, accepted by the independent
//     checker, survive a JSON round trip, and match the certificate the
//     rebuild path derives from scratch;
//   * a drain-and-restart transition simulation must deliver every
//     packet with no deadlock — the certificate's claim, carried across
//     the reconfiguration boundary;
//   * a mid-flight transition simulation must account for every packet
//     (delivered + dropped-by-the-fault = offered) unless it hits a
//     cross-epoch deadlock, which is recorded, not a mismatch — mixed
//     old/new-route traffic is outside any single certificate's claim;
//   * a burst reported infeasible must name genuinely disconnected
//     flows (re-checked by an independent BFS here); the trial then
//     ends with the distinct kDisconnected verdict, not a mismatch.
//
// Trials are pure functions of (base_seed, trial index) and run through
// the shared harness (RunTrials in valid/campaign.h), whose digest makes
// thread-count determinism checkable in one comparison, exactly like
// the base campaign.
#pragma once

#include <cstdint>
#include <string>

#include "fault/plan.h"
#include "sim/simulator.h"
#include "valid/campaign.h"

namespace nocdr::valid {

enum class FaultVerdict {
  /// Every burst reconfigured, re-certified and simulated clean.
  kReconfigured,
  /// Some burst disconnected at least one flow; verified and recorded.
  /// The distinct non-mismatch outcome for infeasible reconfigurations.
  kDisconnected,
  /// The contract broke; FaultTrialRow::mismatch says where.
  kMismatch,
};

enum class FaultMismatchKind {
  kNone = 0,
  kTrialThrew,
  kPreCertificateNegative,
  /// Incremental and rebuild paths disagreed (feasibility, affected
  /// flows, routes, removal outcome, channel count or certificate).
  kEngineDiverged,
  /// Maintained CDG != from-scratch rebuild of the same design.
  kCdgDesync,
  /// A flow reported disconnected is actually still reachable.
  kFalseDisconnect,
  kPostCertificateNegative,
  kCheckerRejectedCertificate,
  kCertificateJsonRoundTrip,
  /// Positive post-fault certificate but the plain post-fault workload
  /// deadlocked / lost packets.
  kPostSimDeadlocked,
  kPostSimUndelivered,
  kDrainDeadlocked,
  kDrainUndelivered,
  /// Mid-flight transition finished without deadlock but lost packets
  /// beyond the ones the fault destroyed.
  kMidflightLost,
};

/// Workload of the per-burst transition simulations.
struct FaultWorkload {
  std::uint16_t buffer_depth = 1;
  std::uint32_t packets_per_flow = 4;
  std::uint16_t packet_length = 8;
  std::uint64_t max_cycles = 200000;
  std::uint64_t stall_threshold = 2000;
  /// Cycle the fault strikes / the drain begins.
  std::uint64_t transition_cycle = 64;
  SimEngine engine = SimEngine::kEvent;
};

/// Stable lowercase identifier ("reconfigured", "disconnected",
/// "mismatch").
std::string FaultVerdictName(FaultVerdict verdict);

/// Outcome of one fault trial. Every field except run_ms is a
/// deterministic function of (source, seed, config).
struct FaultTrialRow {
  std::size_t trial_index = 0;
  std::uint64_t design_seed = 0;
  std::string design;
  DesignSource source = DesignSource::kSynthesized;

  // Design shape after the initial removal treatment.
  std::size_t switches = 0;
  std::size_t links = 0;
  std::size_t flows = 0;
  std::size_t channels_initial = 0;
  std::size_t channels_final = 0;
  bool table_routed = false;

  // Fault plan execution.
  std::size_t bursts_planned = 0;
  std::size_t bursts_applied = 0;
  std::size_t failed_links = 0;
  std::size_t failed_switches = 0;
  std::size_t affected_flows = 0;
  std::size_t disconnected_flows = 0;
  std::size_t table_detours = 0;
  std::size_t ripup_reroutes = 0;

  // Post-fault removal re-runs, summed over applied bursts.
  std::size_t removal_iterations = 0;
  std::size_t removal_vcs_added = 0;

  // Post-fault and transition simulations, summed over applied bursts.
  std::uint64_t post_delivered = 0;
  std::uint64_t drain_cycles = 0;
  std::uint64_t drain_delivered = 0;
  std::uint64_t midflight_dropped = 0;
  std::uint64_t midflight_delivered = 0;
  std::size_t midflight_deadlocks = 0;

  FaultVerdict verdict = FaultVerdict::kMismatch;
  FaultMismatchKind mismatch_kind = FaultMismatchKind::kNone;
  /// Empty unless verdict == kMismatch.
  std::string mismatch;

  // Wall clock; excluded from Digest and determinism guarantees.
  double run_ms = 0.0;

  /// The fields in digest order (util/row_fields.h).
  static constexpr auto Fields() {
    using R = FaultTrialRow;
    return std::tuple{
        RowField{"trial", &R::trial_index},
        RowField{"design_seed", &R::design_seed},
        RowField{"design", &R::design},
        RowField{"source", &R::source, SourceName, EnumHash::kName},
        RowField{"switches", &R::switches},
        RowField{"links", &R::links},
        RowField{"flows", &R::flows},
        RowField{"channels_initial", &R::channels_initial},
        RowField{"channels_final", &R::channels_final},
        RowField{"table_routed", &R::table_routed},
        RowField{"bursts_planned", &R::bursts_planned},
        RowField{"bursts_applied", &R::bursts_applied},
        RowField{"failed_links", &R::failed_links},
        RowField{"failed_switches", &R::failed_switches},
        RowField{"affected_flows", &R::affected_flows},
        RowField{"disconnected_flows", &R::disconnected_flows},
        RowField{"table_detours", &R::table_detours},
        RowField{"ripup_reroutes", &R::ripup_reroutes},
        RowField{"removal_iterations", &R::removal_iterations},
        RowField{"removal_vcs_added", &R::removal_vcs_added},
        RowField{"drain_cycles", &R::drain_cycles},
        RowField{"drain_delivered", &R::drain_delivered},
        RowField{"post_delivered", &R::post_delivered},
        RowField{"midflight_dropped", &R::midflight_dropped},
        RowField{"midflight_delivered", &R::midflight_delivered},
        RowField{"midflight_deadlocks", &R::midflight_deadlocks},
        RowField{"verdict", &R::verdict, FaultVerdictName, EnumHash::kName},
        OnFailure(RowField{"mismatch_kind", &R::mismatch_kind}),
        OnFailure(RowField{"mismatch", &R::mismatch}),
        RowField{"run_ms", &R::run_ms},
    };
  }
};

/// One arm: trial i runs on design i (TrialSpec).
struct FaultCampaignConfig : CampaignScope {
  FaultWorkload workload;
  fault::FaultPlanOptions plan;
};

/// Runs one trial; deterministic in its arguments, never throws for
/// pipeline failures (they become mismatch rows).
FaultTrialRow RunFaultTrial(DesignSource source, std::uint64_t seed,
                            const FaultCampaignConfig& config);

/// Runs the whole campaign over an internal thread pool.
CampaignResult<FaultTrialRow> RunFaultCampaign(
    const FaultCampaignConfig& config);

}  // namespace nocdr::valid
