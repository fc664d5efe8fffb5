// Stateful streaming reconfiguration sessions — protocol v2's server
// side.
//
// A stateless client watching a degrading chip must re-ship the whole
// design per fault burst; a session keeps the design *and its channel
// dependency graph* alive on the server instead. session_open
// materializes a design (the same three spec kinds as stateless
// certify, through the shared MaterializeDesign path), treats it and
// answers with a session id plus the epoch-0 certificate. Each
// fault_burst message then advances the session one epoch through the
// online pipeline — fault::ApplyFaultBurst re-routes affected flows and
// mirrors the churn into the live CDG, RemoveDeadlocksOnCdg re-treats
// incrementally, CertifyFromCdg re-certifies at dirty-SCC cost — and
// the delta response carries the detour/rip-up split, VCs added, the
// fresh certificate and the new epoch number. session_snapshot returns
// the current design text + certificate; session_close retires the
// session.
//
// Epoch-versioned cache interaction: every epoch's certificate is also
// published into the owning CertificationService's content-addressed
// cert cache, keyed by the canonical form of that epoch's design — a
// later epoch's design is different content, so it lands on a different
// key and a session can never be answered with a stale certificate.
// The published entry is built from the session's live state, with no
// text round trip, no removal and no CDG rebuild: the canonical flow
// order renders the key's text once (DesignText). The session's flows
// are in canonical order from the open on and bursts change only
// routes, so that order re-sorts only the runs of flows tied on (src,
// dst, bandwidth), by route, and renders no bandwidth. One Kahn pass
// over the live CDG in the canonical channel order (CertifyFromCdg)
// gives the certificate the canonical design would get. So the entry
// is bit-identical to what a stateless client re-shipping the epoch's
// design text computes, which is the service's invariant for every
// cached payload. Epoch 0 publishes through the same function, on the
// treated design parsed once and put in canonical flow order. Three
// oracles hold the published bytes to the from-scratch path
// (CanonicalizeDesign + ComputeCertification): RemovalOptions::
// paranoid_validation recomputes every publish and Requires equality;
// the differential session campaign (src/valid/session_campaign) holds
// a streamed session and a cold stateless replay to byte-identical
// responses; and perfbench's traced fault_session Breakdown checks
// every burst's certificate against ComputeCertification.
//
// Concurrency and lifecycle: opens are admission-bounded
// (max_sessions); the epoch-0 certification runs through the service's
// coalescer, so concurrent opens of the same design share one
// computation with stateless clients. Bursts/snapshots on one session
// serialize on that session's mutex; distinct sessions proceed in
// parallel. Lifecycle violations (burst on a closed or never-opened
// session, double close, stale expect_epoch) are structured-error
// responses, never exceptions.
#pragma once

#include <cstdint>
#include <memory>
#include <mutex>
#include <string>
#include <unordered_map>
#include <vector>

#include "fault/plan.h"
#include "serve/service.h"

namespace nocdr::serve {

/// The four v2 session operations (plus stateless certify, which is
/// not a session op; see serve/protocol.h for the full v2 surface).
enum class SessionOp {
  kOpen,      // "session_open"
  kBurst,     // "fault_burst"
  kSnapshot,  // "session_snapshot"
  kClose,     // "session_close"
};

/// One failure named at the protocol level: links by (src, dst) switch
/// names, switches by name. Resolved against the session's design
/// (switch and link ids survive canonicalization; channel ids do not,
/// which is why the protocol never names channels).
struct SessionEventSpec {
  fault::FaultKind kind = fault::FaultKind::kLink;
  std::string src;          // kLink: source switch name
  std::string dst;          // kLink: destination switch name
  std::string switch_name;  // kSwitch
};

struct SessionRequest {
  int protocol_version = kProtocolV2;
  SessionOp op = SessionOp::kOpen;
  /// Echoed verbatim in the response; empty is fine.
  std::string id;
  /// Target session; ignored by kOpen (the server assigns ids).
  std::string session_id;

  // ---- kOpen ----
  DesignSpec spec;
  RemovalOptions options;

  // ---- kBurst ----
  std::vector<SessionEventSpec> events;
  /// Optimistic concurrency: when set, the burst only applies if the
  /// session is still at this epoch; otherwise kStaleEpoch, unapplied.
  bool has_expect_epoch = false;
  std::uint64_t expect_epoch = 0;

  // ---- kOpen / kBurst (kSnapshot always returns the design) ----
  bool return_design = false;

  /// Trace identity of this message (obs/trace.h); empty = untraced.
  /// Like CertRequest::trace_id: observability metadata only, never
  /// part of SessionResponseDigest.
  std::string trace_id;
};

struct SessionResponse {
  // ---- deterministic payload (covered by SessionResponseDigest) ----
  int protocol_version = kProtocolV2;
  SessionOp op = SessionOp::kOpen;
  std::string id;
  std::string session_id;
  ServeStatus status = ServeStatus::kError;
  /// Meaningful iff status != kOk.
  ErrorInfo error;
  /// Epoch the payload below describes: 0 at open, +1 per applied
  /// burst; unchanged by infeasible bursts, snapshots and close.
  std::uint64_t epoch = 0;

  /// kBurst only: false means the surviving topology cannot connect
  /// some affected flow — the burst was rejected atomically (status
  /// stays kOk; infeasibility is an answer, not a failure), the epoch
  /// did not advance and disconnected_flows names the witnesses.
  bool feasible = true;
  std::vector<std::uint64_t> disconnected_flows;

  // Delta fields: at kOpen the initial treatment, at kBurst this
  // burst's reconfiguration + incremental re-treatment.
  std::size_t affected_flows = 0;
  std::size_t table_detours = 0;
  std::size_t ripup_reroutes = 0;
  std::size_t removal_iterations = 0;
  std::size_t vcs_added = 0;
  std::size_t flows_rerouted = 0;

  // Current session state (kOpen/kBurst/kSnapshot).
  std::size_t channels = 0;
  /// Content-addressed key of the epoch's certification problem — the
  /// cert-cache entry this epoch's certificate was published under.
  std::uint64_t key = 0;
  bool deadlock_free = false;
  std::string certificate_json;
  /// The epoch's design text (canonical at epoch 0). Set when the
  /// request asked return_design, and always by kSnapshot.
  std::string design_text;

  // Accumulated counters (kSnapshot/kClose).
  std::size_t failed_links = 0;
  std::size_t failed_switches = 0;
  std::size_t bursts_applied = 0;

  // ---- metadata (schedule/timing dependent, excluded) ----
  /// kOpen only: how the epoch-0 certification resolved.
  CacheOutcome cache_outcome = CacheOutcome::kNone;
  double service_ms = 0.0;
};

struct SessionServiceConfig {
  /// Admission bound on concurrently open sessions; opens beyond it get
  /// ErrorCode::kSessionLimit.
  std::size_t max_sessions = 256;
};

struct SessionServiceStats {
  std::uint64_t opened = 0;
  std::uint64_t closed = 0;
  /// Opens rejected by max_sessions or the compute admission bound.
  std::uint64_t open_rejected = 0;
  std::uint64_t bursts_applied = 0;
  std::uint64_t bursts_infeasible = 0;
  /// Certificates served across all ops (open/burst/snapshot).
  std::uint64_t epochs_served = 0;
  std::uint64_t errors = 0;
  std::size_t live_sessions = 0;
};

class SessionService {
 public:
  /// Sessions certify through \p service — its cache, coalescer,
  /// admission bound and design-size envelope. The service must outlive
  /// the SessionService.
  explicit SessionService(CertificationService& service,
                          SessionServiceConfig config = {});
  ~SessionService();

  SessionService(const SessionService&) = delete;
  SessionService& operator=(const SessionService&) = delete;

  /// Serves one session message, blocking until the response is ready.
  /// Failures are structured-error responses, never exceptions. Safe to
  /// call from many threads; per-session operations serialize.
  SessionResponse Handle(const SessionRequest& request);

  [[nodiscard]] SessionServiceStats Stats() const;

  [[nodiscard]] const SessionServiceConfig& config() const { return config_; }

 private:
  struct Session;

  /// The one failure exit: echoes \p request's protocol_version, op and
  /// id into \p response, sets the error, derives the status from
  /// \p code (kOverloaded for ErrorCode::kOverloaded, else kError) and
  /// counts the outcome once: open_rejected for kSessionLimit and
  /// kOverloaded (both refuse an open), errors otherwise. Every other
  /// field of \p response (session_id, epoch) is kept as the caller
  /// left it. Takes mutex_, so the caller must not hold it.
  SessionResponse Fail(const SessionRequest& request, SessionResponse response,
                       ErrorCode code, std::string message);
  SessionResponse HandleInner(const SessionRequest& request);
  SessionResponse Open(const SessionRequest& request);
  SessionResponse Burst(const SessionRequest& request, Session& session);
  SessionResponse Snapshot(const SessionRequest& request, Session& session);
  SessionResponse Close(const SessionRequest& request, Session& session);
  std::shared_ptr<Session> Find(const std::string& session_id);
  /// Certifies the session's current design from its live CDG in the
  /// canonical channel order, publishes the epoch's cache entry
  /// (CertificationService::Publish) and refreshes the session's
  /// key/certificate fields; returns the epoch's canonical design text.
  /// Throws if the live CDG has a cycle, or (paranoid_validation) if the
  /// from-scratch path disagrees. Runs under the session's mutex, or
  /// before the session is visible.
  std::string PublishEpoch(Session& session);

  CertificationService& service_;
  SessionServiceConfig config_;

  mutable std::mutex mutex_;  // guards sessions_, next_session_, stats_
  std::unordered_map<std::string, std::shared_ptr<Session>> sessions_;
  /// Opens past admission but before insertion; counted against
  /// max_sessions so a concurrent open burst cannot overshoot the bound.
  std::size_t opening_ = 0;
  std::uint64_t next_session_ = 1;
  SessionServiceStats stats_;
};

/// FNV-1a digest over the deterministic payload fields of \p responses,
/// in order. Identical for any client thread count and any cache state.
std::uint64_t SessionResponseDigest(
    const std::vector<SessionResponse>& responses);

}  // namespace nocdr::serve
