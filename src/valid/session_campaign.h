// Differential session campaign: protocol v2's stateful streaming
// sessions (serve/session) against a stateless replay, at scale.
//
// Each trial plays both sides of one streaming reconfiguration
// session. The server side is a real SessionService over a real
// CertificationService; the client side keeps a *replica* of the
// session's design — parsed from the session_open response's design
// text — and advances it with ApplyFaultBurstRebuild, the from-scratch
// reference the fault campaign already holds the incremental engine
// to. A seeded FaultPlan is drawn on the replica and streamed to the
// session as name-based fault_burst events, and the contract per burst
// is:
//
//   * session and replica must agree on feasibility, the affected-flow
//     count, the detour/rip-up split, the removal outcome and — byte
//     for byte — the post-burst design text;
//   * the session's epoch must advance by exactly one per applied
//     burst and stay put across infeasible bursts, snapshots and the
//     deliberate stale-epoch probe;
//   * the epoch's certificate must be byte-identical to what a *cold*
//     CertificationService answers for the replica's design text — a
//     streamed session and a stateless re-submission are the same
//     problem and must get the same certificate;
//   * re-serving the replica's text through the session's own service
//     must hit the cache entry the epoch published, and every payload
//     field of that hit (treated design text included) must equal the
//     cold serve's — the content-addressed key moved with the design,
//     so a stale certificate is unservable by construction, and an
//     entry the session built from its live state must be the one a
//     recompute writes;
//   * the certificate must pass the independent checker against the
//     canonical form of the replica;
//   * every request streamed must survive a protocol codec round trip
//     (render -> parse -> render, byte-identical).
//
// Trials are pure functions of (base_seed, trial index) and run through
// the shared harness (RunTrials in valid/campaign.h), whose digest makes
// thread-count determinism checkable in one comparison, exactly like
// the base and fault campaigns.
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "deadlock/removal.h"
#include "fault/plan.h"
#include "serve/session.h"
#include "valid/campaign.h"

namespace nocdr::valid {

enum class SessionVerdict {
  /// Every planned burst streamed, re-certified and replayed clean.
  kStreamed,
  /// Some burst disconnected at least one flow; the session answered
  /// feasible=false with an unchanged epoch and the replica agreed.
  kDisconnected,
  /// The contract broke; SessionTrialRow::mismatch says where.
  kMismatch,
};

enum class SessionMismatchKind {
  kNone = 0,
  kTrialThrew,
  /// session_open did not answer kOk with a positive epoch-0
  /// certificate.
  kOpenFailed,
  /// A request line changed under render -> parse -> render.
  kCodecRoundTrip,
  /// Session and replica disagreed (feasibility, affected count,
  /// detour/rip-up split or removal outcome).
  kEngineDiverged,
  /// Epoch advanced when it must not have, or failed to advance.
  kEpochViolation,
  /// Session design text != replica design text, byte for byte.
  kDesignDiverged,
  /// Session certificate/key != a cold stateless serve of the replica.
  kStatelessDiverged,
  /// Re-serving the epoch's design through the session's service
  /// missed the published cache entry or returned a different payload.
  kStaleCertificate,
  /// The independent checker rejected an epoch's certificate.
  kCheckerRejected,
  /// A lifecycle violation (stale epoch, double close, burst after
  /// close) was not answered with the prescribed structured error.
  kLifecycleViolation,
};

/// Stable lowercase identifier ("streamed", "disconnected",
/// "mismatch").
std::string SessionVerdictName(SessionVerdict verdict);

/// Outcome of one session trial. Every field except run_ms is a
/// deterministic function of (source, seed, config).
struct SessionTrialRow {
  std::size_t trial_index = 0;
  std::uint64_t design_seed = 0;
  std::string design;
  DesignSource source = DesignSource::kSynthesized;

  // Design shape at epoch 0 (after the open's removal treatment).
  std::size_t switches = 0;
  std::size_t links = 0;
  std::size_t flows = 0;
  std::size_t channels_initial = 0;
  std::size_t channels_final = 0;
  bool table_routed = false;

  // Stream execution.
  std::size_t bursts_planned = 0;
  std::size_t bursts_streamed = 0;
  /// Plan events dropped because the topology gave no unambiguous
  /// name to stream them by (both sides drop identically).
  std::size_t events_unnamed = 0;
  std::uint64_t final_epoch = 0;
  std::size_t affected_flows = 0;
  std::size_t disconnected_flows = 0;
  std::size_t table_detours = 0;
  std::size_t ripup_reroutes = 0;
  std::size_t removal_iterations = 0;
  std::size_t removal_vcs_added = 0;
  std::size_t failed_links = 0;
  std::size_t failed_switches = 0;

  /// Content-addressed key of the final epoch's certificate.
  std::uint64_t final_key = 0;
  /// SessionResponseDigest over every response the session produced,
  /// in stream order.
  std::uint64_t session_digest = 0;

  SessionVerdict verdict = SessionVerdict::kMismatch;
  SessionMismatchKind mismatch_kind = SessionMismatchKind::kNone;
  /// Empty unless verdict == kMismatch.
  std::string mismatch;

  // Wall clock; excluded from Digest and determinism guarantees.
  double run_ms = 0.0;

  /// The fields in digest order (util/row_fields.h).
  static constexpr auto Fields() {
    using R = SessionTrialRow;
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
        RowField{"bursts_streamed", &R::bursts_streamed},
        RowField{"events_unnamed", &R::events_unnamed},
        RowField{"final_epoch", &R::final_epoch},
        RowField{"affected_flows", &R::affected_flows},
        RowField{"disconnected_flows", &R::disconnected_flows},
        RowField{"table_detours", &R::table_detours},
        RowField{"ripup_reroutes", &R::ripup_reroutes},
        RowField{"removal_iterations", &R::removal_iterations},
        RowField{"removal_vcs_added", &R::removal_vcs_added},
        RowField{"failed_links", &R::failed_links},
        RowField{"failed_switches", &R::failed_switches},
        RowField{"final_key", &R::final_key},
        RowField{"session_digest", &R::session_digest},
        RowField{"verdict", &R::verdict, SessionVerdictName, EnumHash::kName},
        OnFailure(RowField{"mismatch_kind", &R::mismatch_kind}),
        OnFailure(RowField{"mismatch", &R::mismatch}),
        RowField{"run_ms", &R::run_ms},
    };
  }
};

/// One arm: trial i runs on design i (TrialSpec). Each trial runs its
/// own single-threaded services, so the digest is identical for any
/// thread count.
struct SessionCampaignConfig : CampaignScope {
  fault::FaultPlanOptions plan;
  /// Removal options the session opens with (and the replica re-treats
  /// with).
  RemovalOptions removal;
};

/// Runs one trial; deterministic in its arguments, never throws for
/// pipeline failures (they become mismatch rows).
SessionTrialRow RunSessionTrial(DesignSource source, std::uint64_t seed,
                                const SessionCampaignConfig& config);

/// Runs the whole campaign on config.threads worker threads.
CampaignResult<SessionTrialRow> RunSessionCampaign(
    const SessionCampaignConfig& config);

/// Names the events of \p burst for streaming, by switch names, exactly
/// as a protocol client must: appends one spec per event to \p specs and
/// returns the events it named. An event the topology gives no
/// unambiguous name for (an unnamed switch, a duplicate name, a parallel
/// link) is left out of both and counted in \p dropped, so a client's
/// replica and the session it streams to apply the same faults.
fault::FaultBurst NameBurst(const NocDesign& design,
                            const fault::FaultBurst& burst,
                            std::vector<serve::SessionEventSpec>& specs,
                            std::size_t& dropped);

}  // namespace nocdr::valid
