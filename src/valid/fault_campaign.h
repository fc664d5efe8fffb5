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
// Trials are pure functions of (base_seed, trial index); Digest() makes
// thread-count determinism checkable in one comparison, exactly like
// the base campaign.
#pragma once

#include <cstdint>
#include <optional>
#include <string>
#include <vector>

#include "fault/plan.h"
#include "sim/simulator.h"
#include "util/json.h"
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
};

/// Stable lowercase identifier ("reconfigured", "disconnected",
/// "mismatch").
std::string FaultVerdictName(FaultVerdict verdict);

struct FaultCampaignConfig {
  /// Trial i draws source sources[i % sources.size()] with seed
  /// runner::JobSeed(base_seed, i).
  std::size_t trials = 500;
  std::uint64_t base_seed = 1;
  /// Worker threads; 0 means hardware concurrency.
  std::size_t threads = 0;
  std::vector<DesignSource> sources = AllSources();
  DesignEnvelope envelope;
  FaultWorkload workload;
  fault::FaultPlanOptions plan;
};

/// Runs one trial; deterministic in its arguments, never throws for
/// pipeline failures (they become mismatch rows).
FaultTrialRow RunFaultTrial(DesignSource source, std::uint64_t seed,
                            const FaultCampaignConfig& config);

struct FaultCampaignResult {
  std::vector<FaultTrialRow> rows;
  std::size_t reconfigured = 0;
  std::size_t disconnected = 0;
  std::size_t mismatches = 0;
  /// FNV-1a over the deterministic row fields; byte-identical for any
  /// thread count.
  std::uint64_t digest = 0;
};

/// Runs the whole campaign over an internal thread pool.
FaultCampaignResult RunFaultCampaign(const FaultCampaignConfig& config);

/// FNV-1a digest over the deterministic fields of \p rows, in order.
std::uint64_t FaultDigest(const std::vector<FaultTrialRow>& rows);

/// Renders \p row as a flat JSON object for BENCH_*.json emission.
JsonObject FaultRowToJson(const FaultTrialRow& row);

}  // namespace nocdr::valid
