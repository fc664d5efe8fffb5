#include "valid/session_campaign.h"

#include <chrono>
#include <exception>
#include <optional>
#include <string>

#include "deadlock/verify.h"
#include "fault/reconfigure.h"
#include "noc/io.h"
#include "runner/sweep.h"
#include "serve/protocol.h"
#include "serve/service.h"
#include "serve/session.h"
#include "util/canonical.h"
#include "util/clock.h"

namespace nocdr::valid {

namespace {

struct Fail {
  SessionMismatchKind kind;
  std::string message;
};

/// Render -> parse -> render must be byte-identical; the parse must
/// come back as a session message.
std::optional<Fail> CodecRoundTrip(const serve::SessionRequest& request) {
  const std::string line = serve::SessionRequestToJsonLine(request);
  serve::ServeMessage reparsed;
  try {
    reparsed = serve::ParseMessageLine(line);
  } catch (const std::exception& e) {
    return Fail{SessionMismatchKind::kCodecRoundTrip,
                "rendered request failed to parse: " + std::string(e.what())};
  }
  if (!reparsed.is_session) {
    return Fail{SessionMismatchKind::kCodecRoundTrip,
                "rendered session request parsed as stateless"};
  }
  if (serve::SessionRequestToJsonLine(reparsed.session) != line) {
    return Fail{SessionMismatchKind::kCodecRoundTrip,
                "session request changed under render -> parse -> render"};
  }
  return std::nullopt;
}

serve::CertRequest StatelessReplay(const std::string& design_text,
                                   const RemovalOptions& removal) {
  serve::CertRequest request;
  request.protocol_version = serve::kProtocolV2;
  request.kind = serve::RequestKind::kDesignText;
  request.design_text = design_text;
  request.options = removal;
  request.treat = true;
  request.return_design = true;
  return request;
}

}  // namespace

fault::FaultBurst NameBurst(const NocDesign& design,
                            const fault::FaultBurst& burst,
                            std::vector<serve::SessionEventSpec>& specs,
                            std::size_t& dropped) {
  fault::FaultBurst kept;
  for (const fault::FaultEvent& event : burst) {
    if (event.kind == fault::FaultKind::kSwitch) {
      const std::string& name = design.topology.SwitchName(event.switch_id);
      const auto resolved =
          name.empty() ? std::nullopt : fault::MakeSwitchFault(design, name);
      if (!resolved || resolved->switch_id != event.switch_id) {
        ++dropped;
        continue;
      }
      serve::SessionEventSpec spec;
      spec.kind = fault::FaultKind::kSwitch;
      spec.switch_name = name;
      specs.push_back(spec);
    } else {
      const Link& link = design.topology.LinkAt(event.link);
      const std::string& src = design.topology.SwitchName(link.src);
      const std::string& dst = design.topology.SwitchName(link.dst);
      const auto resolved = (src.empty() || dst.empty())
                                ? std::nullopt
                                : fault::MakeLinkFault(design, src, dst);
      if (!resolved || resolved->link != event.link) {
        ++dropped;
        continue;
      }
      serve::SessionEventSpec spec;
      spec.kind = fault::FaultKind::kLink;
      spec.src = src;
      spec.dst = dst;
      specs.push_back(spec);
    }
    kept.push_back(event);
  }
  return kept;
}

std::string SessionVerdictName(SessionVerdict verdict) {
  switch (verdict) {
    case SessionVerdict::kStreamed:
      return "streamed";
    case SessionVerdict::kDisconnected:
      return "disconnected";
    case SessionVerdict::kMismatch:
      return "mismatch";
  }
  return "unknown";
}

SessionTrialRow RunSessionTrial(DesignSource source, std::uint64_t seed,
                                const SessionCampaignConfig& config) {
  const auto t0 = std::chrono::steady_clock::now();
  SessionTrialRow row;
  row.design_seed = seed;
  row.source = source;

  std::vector<serve::SessionResponse> responses;
  const auto fail = [&](SessionMismatchKind kind,
                        const std::string& message) -> SessionTrialRow& {
    row.verdict = SessionVerdict::kMismatch;
    row.mismatch_kind = kind;
    row.mismatch = message;
    row.session_digest = serve::SessionResponseDigest(responses);
    row.run_ms = MillisSince(t0);
    return row;
  };

  try {
    // The server side: a real service pair, single-threaded so the
    // trial is a pure function of (source, seed).
    serve::ServiceConfig service_config;
    service_config.threads = 1;
    service_config.envelope = config.envelope;
    serve::CertificationService service(service_config);
    serve::SessionService sessions(service);
    // The stateless control: a *cold* service per trial, so every
    // epoch's certificate is recomputed from the design text alone.
    serve::ServiceConfig cold_config;
    cold_config.threads = 1;
    serve::CertificationService cold(cold_config);

    // ---- session_open ----
    serve::SessionRequest open_request;
    open_request.op = serve::SessionOp::kOpen;
    open_request.id = "open";
    open_request.spec.kind = serve::RequestKind::kSourceSeed;
    open_request.spec.source = source;
    open_request.spec.seed = seed;
    open_request.options = config.removal;
    open_request.return_design = true;
    if (const auto bad = CodecRoundTrip(open_request)) {
      return fail(bad->kind, bad->message);
    }

    const serve::SessionResponse open = sessions.Handle(open_request);
    responses.push_back(open);
    if (open.status != serve::ServeStatus::kOk || !open.deadlock_free ||
        open.epoch != 0 || open.session_id.empty() ||
        open.design_text.empty()) {
      return fail(SessionMismatchKind::kOpenFailed,
                  "session_open failed: " + open.error.message);
    }

    // The client replica starts from the open's design text and owns
    // its own copy of the generator's next-hop table (the session holds
    // the server-side copy).
    NextHopTable table;
    GenerateTrialDesign(source, seed, config.envelope, &table);
    NocDesign replica = ReadDesign(open.design_text);
    fault::FaultState state = fault::FaultState::None(replica);
    fault::ReconfigureOptions reconfigure;
    reconfigure.table = table.empty() ? nullptr : &table;
    reconfigure.removal = config.removal;

    row.design = replica.name;
    row.switches = replica.topology.SwitchCount();
    row.links = replica.topology.LinkCount();
    row.flows = replica.traffic.FlowCount();
    row.channels_initial = replica.topology.ChannelCount();
    row.table_routed = !table.empty();
    if (open.channels != replica.topology.ChannelCount()) {
      return fail(SessionMismatchKind::kDesignDiverged,
                  "open channel count does not match its design text");
    }

    std::uint64_t epoch = 0;
    std::uint64_t last_key = open.key;
    std::string last_certificate = open.certificate_json;

    // Every epoch (0 and after each applied burst) must satisfy the
    // stateless-replay and cache-coherence contract for the replica's
    // current text.
    const auto verify_epoch = [&](const std::string& design_text,
                                  std::uint64_t key,
                                  const std::string& certificate_json,
                                  const char* what) -> std::optional<Fail> {
      const serve::CertRequest replay =
          StatelessReplay(design_text, config.removal);
      const serve::CertResponse fresh = cold.Serve(replay);
      if (fresh.status != serve::ServeStatus::kOk || !fresh.deadlock_free) {
        return Fail{SessionMismatchKind::kStatelessDiverged,
                    std::string(what) +
                        ": cold stateless replay failed to certify"};
      }
      if (fresh.key != key || fresh.certificate_json != certificate_json) {
        return Fail{SessionMismatchKind::kStatelessDiverged,
                    std::string(what) +
                        ": session certificate differs from a cold "
                        "stateless serve of the same design"};
      }
      const serve::CertResponse warm = service.Serve(replay);
      if (warm.status != serve::ServeStatus::kOk ||
          warm.cache_outcome != serve::CacheOutcome::kHit) {
        return Fail{SessionMismatchKind::kStaleCertificate,
                    std::string(what) +
                        ": epoch certificate was not published into the "
                        "service cache"};
      }
      // Both answer one request, so equal digests mean every payload
      // field is equal, the treated design text included.
      if (serve::ResponseDigest({warm}) != serve::ResponseDigest({fresh})) {
        return Fail{SessionMismatchKind::kStaleCertificate,
                    std::string(what) +
                        ": the published entry's payload differs from a "
                        "cold stateless serve"};
      }
      const DeadlockCertificate reloaded =
          CertificateFromJson(certificate_json);
      if (!reloaded.deadlock_free ||
          !CheckCertificate(CanonicalizeDesign(replica).design, reloaded)) {
        return Fail{SessionMismatchKind::kCheckerRejected,
                    std::string(what) +
                        ": independent checker rejected the certificate"};
      }
      return std::nullopt;
    };

    if (const auto bad =
            verify_epoch(open.design_text, open.key, open.certificate_json,
                         "epoch 0")) {
      return fail(bad->kind, bad->message);
    }

    // ---- the fault stream ----
    const fault::FaultPlan plan = fault::DrawFaultPlan(
        replica, runner::JobSeed(seed, 0x5e55), config.plan);
    row.bursts_planned = plan.bursts.size();
    bool probed_stale = false;

    for (std::size_t b = 0; b < plan.bursts.size(); ++b) {
      std::vector<serve::SessionEventSpec> specs;
      const fault::FaultBurst burst =
          NameBurst(replica, plan.bursts[b], specs, row.events_unnamed);
      if (burst.empty()) {
        continue;
      }
      const std::string tag = "burst " + std::to_string(b);

      serve::SessionRequest burst_request;
      burst_request.op = serve::SessionOp::kBurst;
      burst_request.id = "b" + std::to_string(b);
      burst_request.session_id = open.session_id;
      burst_request.events = specs;
      burst_request.has_expect_epoch = true;
      burst_request.expect_epoch = epoch;
      burst_request.return_design = true;
      if (const auto bad = CodecRoundTrip(burst_request)) {
        return fail(bad->kind, bad->message);
      }

      const serve::SessionResponse reply = sessions.Handle(burst_request);
      responses.push_back(reply);
      if (reply.status != serve::ServeStatus::kOk) {
        return fail(SessionMismatchKind::kEngineDiverged,
                    tag + ": session answered an error: " +
                        reply.error.message);
      }

      const fault::ReconfigureReport report =
          fault::ApplyFaultBurstRebuild(replica, state, burst, reconfigure);

      if (reply.feasible != !report.infeasible()) {
        return fail(SessionMismatchKind::kEngineDiverged,
                    tag + ": session and replica disagree on feasibility");
      }

      if (report.infeasible()) {
        // Infeasible: an answer, not an epoch. Both sides left their
        // state untouched; the session must echo the current epoch and
        // certificate and name the same witnesses.
        std::vector<std::uint64_t> expected;
        expected.reserve(report.disconnected_flows.size());
        for (const FlowId flow : report.disconnected_flows) {
          expected.push_back(flow.value());
        }
        if (reply.disconnected_flows != expected) {
          return fail(SessionMismatchKind::kEngineDiverged,
                      tag + ": disconnected-flow witnesses differ");
        }
        if (reply.epoch != epoch) {
          return fail(SessionMismatchKind::kEpochViolation,
                      tag + ": infeasible burst moved the epoch");
        }
        if (reply.key != last_key ||
            reply.certificate_json != last_certificate) {
          return fail(SessionMismatchKind::kStaleCertificate,
                      tag + ": infeasible burst changed the certificate");
        }
        row.disconnected_flows = report.disconnected_flows.size();
        row.affected_flows += report.affected_flows.size();
        row.verdict = SessionVerdict::kDisconnected;
        break;
      }

      ++epoch;
      ++row.bursts_streamed;
      row.affected_flows += report.affected_flows.size();
      row.table_detours += report.table_detours;
      row.ripup_reroutes += report.ripup_reroutes;
      row.removal_iterations += report.removal.iterations;
      row.removal_vcs_added += report.removal.vcs_added;

      if (reply.epoch != epoch) {
        return fail(SessionMismatchKind::kEpochViolation,
                    tag + ": epoch did not advance by exactly one");
      }
      if (reply.affected_flows != report.affected_flows.size() ||
          reply.table_detours != report.table_detours ||
          reply.ripup_reroutes != report.ripup_reroutes ||
          reply.removal_iterations != report.removal.iterations ||
          reply.vcs_added != report.removal.vcs_added ||
          reply.flows_rerouted != report.removal.flows_rerouted) {
        return fail(SessionMismatchKind::kEngineDiverged,
                    tag + ": delta fields differ from the replica's "
                          "reconfiguration report");
      }
      if (reply.design_text != DesignText(replica) ||
          reply.channels != replica.topology.ChannelCount()) {
        return fail(SessionMismatchKind::kDesignDiverged,
                    tag + ": session design text differs from the replica");
      }
      if (const auto bad = verify_epoch(reply.design_text, reply.key,
                                        reply.certificate_json,
                                        tag.c_str())) {
        return fail(bad->kind, bad->message);
      }
      last_key = reply.key;
      last_certificate = reply.certificate_json;

      if (!probed_stale) {
        // Deliberate optimistic-concurrency violation: replaying the
        // burst against the pre-burst epoch must be rejected with
        // kStaleEpoch and must not touch the session.
        probed_stale = true;
        serve::SessionRequest stale = burst_request;
        stale.id = "stale" + std::to_string(b);
        stale.expect_epoch = epoch - 1;
        const serve::SessionResponse rejected = sessions.Handle(stale);
        responses.push_back(rejected);
        if (rejected.status == serve::ServeStatus::kOk ||
            rejected.error.code != serve::ErrorCode::kStaleEpoch ||
            rejected.epoch != epoch) {
          return fail(SessionMismatchKind::kLifecycleViolation,
                      tag + ": stale expect_epoch was not rejected with "
                            "stale_epoch");
        }
      }
    }
    if (row.verdict != SessionVerdict::kDisconnected) {
      row.verdict = SessionVerdict::kStreamed;
    }

    // ---- session_snapshot: the session's view == the replica ----
    serve::SessionRequest snapshot_request;
    snapshot_request.op = serve::SessionOp::kSnapshot;
    snapshot_request.id = "snap";
    snapshot_request.session_id = open.session_id;
    if (const auto bad = CodecRoundTrip(snapshot_request)) {
      return fail(bad->kind, bad->message);
    }
    const serve::SessionResponse snapshot = sessions.Handle(snapshot_request);
    responses.push_back(snapshot);
    if (snapshot.status != serve::ServeStatus::kOk ||
        snapshot.epoch != epoch || snapshot.key != last_key ||
        snapshot.certificate_json != last_certificate ||
        snapshot.design_text != DesignText(replica) ||
        snapshot.failed_links != state.FailedLinkCount() ||
        snapshot.failed_switches != state.FailedSwitchCount() ||
        snapshot.bursts_applied != row.bursts_streamed) {
      return fail(SessionMismatchKind::kDesignDiverged,
                  "session_snapshot differs from the replica's state");
    }

    // ---- session_close, and the lifecycle fences behind it ----
    serve::SessionRequest close_request;
    close_request.op = serve::SessionOp::kClose;
    close_request.id = "close";
    close_request.session_id = open.session_id;
    if (const auto bad = CodecRoundTrip(close_request)) {
      return fail(bad->kind, bad->message);
    }
    const serve::SessionResponse closed = sessions.Handle(close_request);
    responses.push_back(closed);
    if (closed.status != serve::ServeStatus::kOk ||
        closed.bursts_applied != row.bursts_streamed) {
      return fail(SessionMismatchKind::kLifecycleViolation,
                  "session_close failed: " + closed.error.message);
    }
    const serve::SessionResponse reclosed = sessions.Handle(close_request);
    responses.push_back(reclosed);
    if (reclosed.status == serve::ServeStatus::kOk ||
        reclosed.error.code != serve::ErrorCode::kUnknownSession) {
      return fail(SessionMismatchKind::kLifecycleViolation,
                  "double close was not rejected with unknown_session");
    }
    serve::SessionRequest ghost = snapshot_request;
    ghost.id = "ghost";
    const serve::SessionResponse after = sessions.Handle(ghost);
    responses.push_back(after);
    if (after.status == serve::ServeStatus::kOk ||
        after.error.code != serve::ErrorCode::kUnknownSession) {
      return fail(SessionMismatchKind::kLifecycleViolation,
                  "snapshot after close was not rejected with "
                  "unknown_session");
    }

    row.final_epoch = epoch;
    row.final_key = last_key;
    row.channels_final = replica.topology.ChannelCount();
    row.failed_links = state.FailedLinkCount();
    row.failed_switches = state.FailedSwitchCount();
  } catch (const std::exception& e) {
    return fail(SessionMismatchKind::kTrialThrew,
                "trial threw: " + std::string(e.what()));
  }
  row.session_digest = serve::SessionResponseDigest(responses);
  row.run_ms = MillisSince(t0);
  return row;
}

CampaignResult<SessionTrialRow> RunSessionCampaign(
    const SessionCampaignConfig& config) {
  return RunTrials<SessionTrialRow>(config, 1, [&](const TrialSpec& trial) {
    return RunSessionTrial(trial.source, trial.seed, config);
  });
}

}  // namespace nocdr::valid
