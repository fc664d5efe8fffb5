#include "serve/session.h"

#include <chrono>
#include <utility>

#include "cdg/cdg.h"
#include "cdg/incremental.h"
#include "deadlock/verify.h"
#include "fault/reconfigure.h"
#include "noc/io.h"
#include "obs/metrics.h"
#include "serve/protocol.h"
#include "util/canonical.h"
#include "util/clock.h"
#include "util/digest.h"
#include "util/error.h"

namespace nocdr::serve {

namespace {

/// Runs a callable when it goes out of scope, exceptions included.
template <typename F>
class ScopeExit {
 public:
  explicit ScopeExit(F on_exit) : on_exit_(std::move(on_exit)) {}
  ~ScopeExit() { on_exit_(); }

  ScopeExit(const ScopeExit&) = delete;
  ScopeExit& operator=(const ScopeExit&) = delete;

 private:
  F on_exit_;
};

/// Puts on \p span what a publish rendered (DesignTextLines' counts and
/// the text's size), deterministic for a given message stream.
void TracePublish(obs::ScopedSpan& span, const DesignTextLines& lines,
                  const std::string& text) {
  if (!span.active()) {
    return;
  }
  span.Attr("link_lines",
            static_cast<std::uint64_t>(lines.link_lines_rendered));
  span.Attr("flow_lines",
            static_cast<std::uint64_t>(lines.flow_lines_rendered));
  span.Attr("route_lines",
            static_cast<std::uint64_t>(lines.route_lines_rendered));
  span.Attr("text_bytes", static_cast<std::uint64_t>(text.size()));
}

}  // namespace

/// Everything a session keeps alive between messages: the design, the
/// channel dependency graph mirroring its routes, the dirty-cycle
/// finder's cache, the accumulated failure masks, the (possibly
/// patched) next-hop table, and the epoch's published entry with the
/// index of its text. Operations serialize on \p mutex; the object
/// lives in a shared_ptr so a concurrent close can never free it under
/// a burst.
struct SessionService::Session {
  Session(NocDesign live, NextHopTable next_hops,
          RemovalOptions removal_options)
      : options(removal_options),
        design(std::move(live)),
        cdg(ChannelDependencyGraph::Build(design)),
        finder(cdg),
        table(std::move(next_hops)),
        state(fault::FaultState::None(design)),
        tied_runs(TiedFlowRuns(design)) {}

  std::mutex mutex;
  bool closed = false;

  /// Assigned when the open inserts the session, under the service's
  /// mutex_; read-only from then on.
  std::string id;
  const RemovalOptions options;

  // The live quadruple ApplyFaultBurst advances. `finder` references
  // `cdg`; the session is never moved after construction.
  NocDesign design;
  ChannelDependencyGraph cdg;
  DirtyCycleFinder finder;
  NextHopTable table;
  fault::FaultState state;
  /// The design's flows are in canonical order from the open on, and
  /// bursts change only routes: the canonical order of each epoch
  /// re-sorts only these runs of flows tied on (src, dst, bandwidth).
  const std::vector<FlowRun> tied_runs;

  std::uint64_t epoch = 0;
  std::size_t bursts_applied = 0;

  // The current epoch's publication: its key, the cache entry (shared
  // with the cache, never copied) holding its certificate and canonical
  // text, and where that text's link, flow and route lines start, so
  // the next publish re-renders only what a burst changed.
  std::uint64_t key = 0;
  std::shared_ptr<const CachedCertification> published;
  DesignTextLines text_lines;
};

SessionService::SessionService(CertificationService& service,
                               SessionServiceConfig config)
    : service_(service), config_(config) {}

SessionService::~SessionService() = default;

SessionResponse SessionService::Handle(const SessionRequest& request) {
  const auto t0 = std::chrono::steady_clock::now();
  // The message's root span. nocdr_serve serves session messages
  // synchronously in stream order, so everything about this trace —
  // which child spans run, the assigned session id, the epoch — is
  // deterministic, and the full open/burst pipeline can carry spans
  // (unlike stateless requests, whose inner path is schedule-
  // dependent).
  obs::ScopedTrace trace(service_.config().trace, request.trace_id,
                         "session");
  SessionResponse response;
  // Failures are responses, never escaping exceptions — the server loop
  // and the campaign drive sessions from code that must not unwind.
  try {
    response = HandleInner(request);
  } catch (const std::exception& e) {
    SessionResponse blank;
    blank.session_id = request.session_id;
    response = Fail(request, std::move(blank), ErrorCode::kInternal, e.what());
  }
  response.service_ms = MillisSince(t0);
  if (trace.active()) {
    trace.Attr("id", request.id);
    trace.Attr("op", SessionOpName(request.op));
    trace.Attr("session", response.session_id);
    trace.Attr("status", StatusName(response.status));
    trace.Attr("epoch", response.epoch);
    if (!response.error.ok()) {
      trace.Attr("error", ErrorCodeName(response.error.code));
    }
  }
  {
    obs::MetricsRegistry& registry = obs::Metrics();
    static obs::Histogram& open_us =
        registry.GetHistogram("session.open_us");
    static obs::Histogram& burst_us =
        registry.GetHistogram("session.burst_us");
    const auto us = static_cast<std::uint64_t>(response.service_ms * 1000.0);
    if (request.op == SessionOp::kOpen) {
      open_us.Record(us);
    } else if (request.op == SessionOp::kBurst) {
      burst_us.Record(us);
    }
  }
  return response;
}

SessionResponse SessionService::Fail(const SessionRequest& request,
                                     SessionResponse response, ErrorCode code,
                                     std::string message) {
  response.protocol_version = request.protocol_version;
  response.op = request.op;
  response.id = request.id;
  response.status = code == ErrorCode::kOverloaded ? ServeStatus::kOverloaded
                                                   : ServeStatus::kError;
  response.error = ErrorInfo{code, std::move(message)};
  const bool open_rejected =
      code == ErrorCode::kSessionLimit || code == ErrorCode::kOverloaded;
  std::lock_guard<std::mutex> lock(mutex_);
  ++(open_rejected ? stats_.open_rejected : stats_.errors);
  return response;
}

SessionResponse SessionService::HandleInner(const SessionRequest& request) {
  if (request.op == SessionOp::kOpen) {
    return Open(request);
  }
  SessionResponse response;
  response.protocol_version = request.protocol_version;
  response.op = request.op;
  response.id = request.id;
  response.session_id = request.session_id;
  const std::shared_ptr<Session> session = Find(request.session_id);
  if (session == nullptr) {
    return Fail(request, std::move(response), ErrorCode::kUnknownSession,
                "no open session \"" + request.session_id + "\"");
  }
  switch (request.op) {
    case SessionOp::kBurst:
      return Burst(request, *session);
    case SessionOp::kSnapshot:
      return Snapshot(request, *session);
    case SessionOp::kClose:
      return Close(request, *session);
    case SessionOp::kOpen:
      break;  // handled above
  }
  return Fail(request, std::move(response), ErrorCode::kInternal,
              "unhandled session op");
}

SessionResponse SessionService::Open(const SessionRequest& request) {
  SessionResponse response;
  response.protocol_version = request.protocol_version;
  response.op = SessionOp::kOpen;
  response.id = request.id;

  // Reserve an admission slot before the (expensive) certification so a
  // concurrent open burst cannot overshoot max_sessions. The check
  // decides under mutex_; Fail takes it again to count.
  bool at_limit = false;
  {
    std::lock_guard<std::mutex> lock(mutex_);
    at_limit = sessions_.size() + opening_ >= config_.max_sessions;
    if (!at_limit) {
      ++opening_;
    }
  }
  if (at_limit) {
    return Fail(request, std::move(response), ErrorCode::kSessionLimit,
                "session limit (" + std::to_string(config_.max_sessions) +
                    ") reached; close a session first");
  }
  // The slot goes back on every way out, exceptions included, unless
  // the open succeeded and handed it to the session it inserted.
  bool slot_held = true;
  const ScopeExit release_slot([&] {
    if (slot_held) {
      std::lock_guard<std::mutex> lock(mutex_);
      --opening_;
    }
  });

  CertRequest cert;
  static_cast<DesignSpec&>(cert) = request.spec;
  cert.protocol_version = request.protocol_version;
  cert.id = request.id;
  cert.options = request.options;
  // Sessions always treat: the live CDG must start acyclic for the
  // incremental re-certification contract to mean anything.
  cert.treat = true;
  cert.return_design = true;

  NextHopTable table;
  NocDesign materialized;
  try {
    obs::ScopedSpan span("open.materialize");
    materialized = MaterializeDesign(request.spec, service_.config().envelope,
                                     &table);
  } catch (const std::exception& e) {
    return Fail(request, std::move(response), ErrorCode::kInvalidRequest,
                e.what());
  }

  // Epoch-0 certification through the service: coalesces with
  // stateless clients of the same design, hits its cache, respects its
  // admission bound. A leader computes here, on this thread, but traces
  // the computation under its canonical key, not under this span.
  CertResponse treated;
  {
    obs::ScopedSpan span("open.certify");
    treated = service_.ServeDesign(std::move(materialized), cert);
  }
  if (treated.status != ServeStatus::kOk) {
    return Fail(request, std::move(response), treated.error.code,
                std::move(treated.error.message));
  }

  // Epoch 0 is the treated design in canonical form: parsed once (the
  // parse numbers channels link-major) with its flows in canonical
  // order — the design any stateless client re-shipping the session's
  // text reconstructs. Publishing it seeds the epoch-0 cache entry the
  // session's snapshot text resolves to.
  std::shared_ptr<Session> session;
  {
    obs::ScopedSpan span("open.publish");
    const NocDesign parsed = ReadDesign(treated.treated_design_text);
    session = std::make_shared<Session>(
        PermuteFlows(parsed, CanonicalFlowOrder(parsed)), std::move(table),
        request.options);
    PublishEpoch(*session);
    TracePublish(span, session->text_lines,
                 session->published->treated_design_text);
  }

  {
    std::lock_guard<std::mutex> lock(mutex_);
    --opening_;
    slot_held = false;
    session->id = "s" + std::to_string(next_session_++);
    sessions_.emplace(session->id, session);
    ++stats_.opened;
    ++stats_.epochs_served;
  }

  response.status = ServeStatus::kOk;
  response.session_id = session->id;
  response.epoch = 0;
  // The delta fields of an open describe the initial treatment.
  response.removal_iterations = treated.iterations;
  response.vcs_added = treated.vcs_added;
  response.flows_rerouted = treated.flows_rerouted;
  response.channels = session->design.topology.ChannelCount();
  response.key = session->key;
  response.deadlock_free = session->published->deadlock_free;
  response.certificate_json = session->published->certificate_json;
  if (request.return_design) {
    response.design_text = session->published->treated_design_text;
  }
  response.cache_outcome = treated.cache_outcome;
  return response;
}

SessionResponse SessionService::Burst(const SessionRequest& request,
                                      Session& session) {
  SessionResponse response;
  response.protocol_version = request.protocol_version;
  response.op = SessionOp::kBurst;
  response.id = request.id;
  response.session_id = session.id;

  const auto fail = [&](ErrorCode code, std::string message) {
    return Fail(request, std::move(response), code, std::move(message));
  };
  // A failure past the first mutation leaves the session unusable.
  const auto fail_closed = [&](std::string message) {
    session.closed = true;
    {
      std::lock_guard<std::mutex> lock(mutex_);
      sessions_.erase(session.id);
      ++stats_.closed;
    }
    return fail(ErrorCode::kComputeFailed,
                std::move(message) + " (session closed)");
  };

  std::lock_guard<std::mutex> session_lock(session.mutex);
  if (session.closed) {
    return fail(ErrorCode::kUnknownSession,
                "session \"" + session.id + "\" is closed");
  }
  if (request.has_expect_epoch && request.expect_epoch != session.epoch) {
    // Echo the session's actual epoch so an optimistic client can
    // resync without a snapshot round trip.
    response.epoch = session.epoch;
    return fail(ErrorCode::kStaleEpoch,
                "expect_epoch " + std::to_string(request.expect_epoch) +
                    " but session is at epoch " +
                    std::to_string(session.epoch));
  }
  if (request.events.empty()) {
    return fail(ErrorCode::kInvalidRequest,
                "a fault_burst needs at least one event");
  }

  fault::FaultBurst burst;
  burst.reserve(request.events.size());
  for (const SessionEventSpec& spec : request.events) {
    std::optional<fault::FaultEvent> event;
    if (spec.kind == fault::FaultKind::kLink) {
      event = fault::MakeLinkFault(session.design, spec.src, spec.dst);
      if (!event) {
        return fail(ErrorCode::kInvalidRequest,
                    "no link \"" + spec.src + "\" -> \"" + spec.dst + "\"");
      }
    } else {
      event = fault::MakeSwitchFault(session.design, spec.switch_name);
      if (!event) {
        return fail(ErrorCode::kInvalidRequest,
                    "no switch \"" + spec.switch_name + "\"");
      }
    }
    burst.push_back(*event);
  }

  fault::ReconfigureOptions reconfigure;
  reconfigure.table = session.table.empty() ? nullptr : &session.table;
  reconfigure.removal = session.options;

  fault::ReconfigureReport report;
  try {
    // The incremental removal inside ApplyFaultBurst runs on this
    // thread, so its cycle_search/score/apply/invalidate stage spans
    // nest under this span.
    obs::ScopedSpan span("burst.apply_faults");
    report = fault::ApplyFaultBurst(session.design, session.cdg,
                                    session.finder, session.state, burst,
                                    reconfigure);
    span.Attr("events", static_cast<std::uint64_t>(burst.size()));
    span.Attr("affected_flows",
              static_cast<std::uint64_t>(report.affected_flows.size()));
  } catch (const std::exception& e) {
    // The live quadruple may be mid-mutation.
    return fail_closed(std::string("reconfiguration failed: ") + e.what());
  }

  response.status = ServeStatus::kOk;
  response.affected_flows = report.affected_flows.size();
  if (report.infeasible()) {
    // Infeasibility is an answer, not an error: nothing was mutated,
    // the epoch stands and the current certificate is still the truth.
    response.feasible = false;
    response.disconnected_flows.reserve(report.disconnected_flows.size());
    for (const FlowId flow : report.disconnected_flows) {
      response.disconnected_flows.push_back(flow.value());
    }
    response.epoch = session.epoch;
    response.channels = session.design.topology.ChannelCount();
    response.key = session.key;
    response.deadlock_free = session.published->deadlock_free;
    response.certificate_json = session.published->certificate_json;
    std::lock_guard<std::mutex> lock(mutex_);
    ++stats_.bursts_infeasible;
    ++stats_.epochs_served;
    return response;
  }

  session.epoch += 1;
  session.bursts_applied += 1;

  // The removal above ran on the maintained CDG (RemoveDeadlocksOnCdg
  // inside ApplyFaultBurst); publishing certifies that graph, which
  // Requires it acyclic, before the epoch's certificate is served.
  try {
    obs::ScopedSpan span("burst.publish");
    PublishEpoch(session, report.ReroutedFlows());
    TracePublish(span, session.text_lines,
                 session.published->treated_design_text);
  } catch (const std::exception& e) {
    return fail_closed(std::string("post-burst certification failed: ") +
                       e.what());
  }

  response.epoch = session.epoch;
  response.feasible = true;
  response.table_detours = report.table_detours;
  response.ripup_reroutes = report.ripup_reroutes;
  response.removal_iterations = report.removal.iterations;
  response.vcs_added = report.removal.vcs_added;
  response.flows_rerouted = report.removal.flows_rerouted;
  response.channels = session.design.topology.ChannelCount();
  response.key = session.key;
  response.deadlock_free = session.published->deadlock_free;
  response.certificate_json = session.published->certificate_json;
  if (request.return_design) {
    response.design_text = DesignText(session.design);
  }
  {
    std::lock_guard<std::mutex> lock(mutex_);
    ++stats_.bursts_applied;
    ++stats_.epochs_served;
  }
  return response;
}

void SessionService::PublishEpoch(Session& session,
                                  std::span<const FlowId> rerouted) {
  const NocDesign& design = session.design;
  CertRequest cert;
  cert.options = session.options;
  cert.treat = true;

  // What ComputeCertification writes for the epoch's canonical design,
  // derived from the live state: that design is already acyclic, so
  // treatment is a no-op, and its CDG is the live one renumbered
  // link-major. Its text is the last epoch's with the lines this burst
  // changed re-rendered; the open renders it whole.
  CachedCertification value;
  const DeadlockCertificate certificate = CertifyFromCdg(
      design, session.cdg, CanonicalChannelOrder(design.topology));
  value.certificate_json = CertificateToJson(certificate);
  std::vector<FlowId> order = CanonicalFlowOrder(design, session.tied_runs);
  value.treated_design_text =
      session.published == nullptr
          ? DesignText(design, order, &session.text_lines)
          : UpdateDesignText(session.published->treated_design_text,
                             session.text_lines, design, std::move(order),
                             rerouted);
  value.deadlock_free = certificate.deadlock_free;
  value.initially_deadlock_free = certificate.deadlock_free;
  value.channels_before = design.topology.ChannelCount();
  value.channels_after = design.topology.ChannelCount();

  if (session.options.paranoid_validation) {
    const CanonicalDesign canonical = CanonicalizeDesign(design);
    Require(canonical.text == value.treated_design_text,
            "PublishEpoch: the canonical text (and so the key) differs from "
            "CanonicalizeDesign's");
    Require(ComputeCertification(canonical.design, cert) == value,
            "PublishEpoch: the published entry differs from "
            "ComputeCertification's");
  }

  // With a persistent tier (ServiceConfig::cache_dir) the insert writes
  // through, so a restarted server serves the latest epoch warm. When
  // the key is resident already, its entry holds the same text.
  CertificationService::Published published =
      service_.Publish(cert, std::move(value));
  session.key = published.key;
  session.published = std::move(published.entry);
}

SessionResponse SessionService::Snapshot(const SessionRequest& request,
                                         Session& session) {
  SessionResponse response;
  response.protocol_version = request.protocol_version;
  response.op = SessionOp::kSnapshot;
  response.id = request.id;
  response.session_id = session.id;

  std::lock_guard<std::mutex> session_lock(session.mutex);
  if (session.closed) {
    return Fail(request, std::move(response), ErrorCode::kUnknownSession,
                "session \"" + session.id + "\" is closed");
  }
  response.status = ServeStatus::kOk;
  response.epoch = session.epoch;
  response.channels = session.design.topology.ChannelCount();
  response.key = session.key;
  response.deadlock_free = session.published->deadlock_free;
  response.certificate_json = session.published->certificate_json;
  response.design_text = DesignText(session.design);
  response.failed_links = session.state.FailedLinkCount();
  response.failed_switches = session.state.FailedSwitchCount();
  response.bursts_applied = session.bursts_applied;
  {
    std::lock_guard<std::mutex> lock(mutex_);
    ++stats_.epochs_served;
  }
  return response;
}

SessionResponse SessionService::Close(const SessionRequest& request,
                                      Session& session) {
  SessionResponse response;
  response.protocol_version = request.protocol_version;
  response.op = SessionOp::kClose;
  response.id = request.id;
  response.session_id = session.id;

  std::lock_guard<std::mutex> session_lock(session.mutex);
  if (session.closed) {
    return Fail(request, std::move(response), ErrorCode::kUnknownSession,
                "session \"" + session.id + "\" is closed");
  }
  session.closed = true;
  response.status = ServeStatus::kOk;
  response.epoch = session.epoch;
  response.failed_links = session.state.FailedLinkCount();
  response.failed_switches = session.state.FailedSwitchCount();
  response.bursts_applied = session.bursts_applied;
  {
    std::lock_guard<std::mutex> lock(mutex_);
    sessions_.erase(session.id);
    ++stats_.closed;
  }
  return response;
}

std::shared_ptr<SessionService::Session> SessionService::Find(
    const std::string& session_id) {
  std::lock_guard<std::mutex> lock(mutex_);
  const auto it = sessions_.find(session_id);
  return it == sessions_.end() ? nullptr : it->second;
}

SessionServiceStats SessionService::Stats() const {
  std::lock_guard<std::mutex> lock(mutex_);
  SessionServiceStats stats = stats_;
  stats.live_sessions = sessions_.size();
  return stats;
}

std::uint64_t SessionResponseDigest(
    const std::vector<SessionResponse>& responses) {
  std::uint64_t h = kFnvOffsetBasis;
  for (const SessionResponse& response : responses) {
    DigestField(h, static_cast<std::uint64_t>(response.protocol_version));
    DigestField(h, static_cast<std::uint64_t>(response.op));
    DigestField(h, response.id);
    DigestField(h, response.session_id);
    DigestField(h, static_cast<std::uint64_t>(response.status));
    DigestField(h, static_cast<std::uint64_t>(response.error.code));
    DigestField(h, response.error.message);
    DigestField(h, response.epoch);
    DigestField(h, static_cast<std::uint64_t>(response.feasible));
    for (const std::uint64_t flow : response.disconnected_flows) {
      DigestField(h, flow);
    }
    DigestField(h, response.affected_flows);
    DigestField(h, response.table_detours);
    DigestField(h, response.ripup_reroutes);
    DigestField(h, response.removal_iterations);
    DigestField(h, response.vcs_added);
    DigestField(h, response.flows_rerouted);
    DigestField(h, response.channels);
    DigestField(h, response.key);
    DigestField(h, static_cast<std::uint64_t>(response.deadlock_free));
    DigestField(h, response.certificate_json);
    DigestField(h, response.design_text);
    DigestField(h, response.failed_links);
    DigestField(h, response.failed_switches);
    DigestField(h, response.bursts_applied);
  }
  return h;
}

}  // namespace nocdr::serve
