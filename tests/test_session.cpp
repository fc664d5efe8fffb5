// Protocol v2 streaming sessions: codec round trips, structured-error
// rejection, session lifecycle, epoch monotonicity and the
// epoch-versioned cert-cache interaction (serve/session,
// serve/protocol, valid/session_campaign).
#include <gtest/gtest.h>

#include <condition_variable>
#include <deque>
#include <mutex>
#include <optional>
#include <sstream>
#include <string>
#include <thread>
#include <vector>

#include "deadlock/verify.h"
#include "fault/plan.h"
#include "gen/generators.h"
#include "noc/io.h"
#include "serve/protocol.h"
#include "serve/service.h"
#include "serve/session.h"
#include "test_helpers.h"
#include "util/canonical.h"
#include "util/error.h"
#include "valid/session_campaign.h"

namespace nocdr {
namespace {

using gen::UnidirectionalRing;
using serve::CacheOutcome;
using serve::CertificationService;
using serve::CertRequest;
using serve::CertResponse;
using serve::ErrorCode;
using serve::RequestKind;
using serve::ServeStatus;
using serve::ServiceConfig;
using serve::SessionEventSpec;
using serve::SessionOp;
using serve::SessionRequest;
using serve::SessionResponse;
using serve::SessionService;
using serve::SessionServiceConfig;

NocDesign Reparse(const std::string& text) {
  std::istringstream stream(text);
  return ReadDesign(stream);
}

/// A fresh single-threaded service pair for deterministic tests.
struct Stack {
  Stack() : Stack(SessionServiceConfig{}) {}
  explicit Stack(SessionServiceConfig session_config)
      : service(MakeConfig()), sessions(service, session_config) {}

  static ServiceConfig MakeConfig() {
    ServiceConfig config;
    config.threads = 1;
    return config;
  }

  CertificationService service;
  SessionService sessions;
};

SessionRequest OpenText(const NocDesign& design) {
  SessionRequest request;
  request.op = SessionOp::kOpen;
  request.id = "open";
  request.spec.kind = RequestKind::kDesignText;
  request.spec.design_text = DesignText(design);
  request.return_design = true;
  return request;
}

/// A link event naming \p link by its endpoint switch names.
SessionEventSpec LinkEvent(const NocDesign& design, LinkId link) {
  const Link& l = design.topology.LinkAt(link);
  SessionEventSpec spec;
  spec.kind = fault::FaultKind::kLink;
  spec.src = design.topology.SwitchName(l.src);
  spec.dst = design.topology.SwitchName(l.dst);
  return spec;
}

SessionRequest BurstOn(const std::string& session_id,
                       std::vector<SessionEventSpec> events,
                       std::uint64_t expect_epoch) {
  SessionRequest request;
  request.op = SessionOp::kBurst;
  request.id = "burst";
  request.session_id = session_id;
  request.events = std::move(events);
  request.has_expect_epoch = true;
  request.expect_epoch = expect_epoch;
  return request;
}

SessionRequest SnapshotOf(const std::string& session_id) {
  SessionRequest request;
  request.op = SessionOp::kSnapshot;
  request.id = "snap";
  request.session_id = session_id;
  return request;
}

SessionRequest CloseOf(const std::string& session_id) {
  SessionRequest request;
  request.op = SessionOp::kClose;
  request.id = "close";
  request.session_id = session_id;
  return request;
}

// ---------------------------------------------------------------------
// Codec
// ---------------------------------------------------------------------

void ExpectRoundTrip(const SessionRequest& request) {
  const std::string line = serve::SessionRequestToJsonLine(request);
  const serve::ServeMessage message = serve::ParseMessageLine(line);
  ASSERT_TRUE(message.is_session);
  EXPECT_EQ(serve::SessionRequestToJsonLine(message.session), line);
}

TEST(SessionProtocolTest, AllMessageTypesRoundTrip) {
  SessionRequest open;
  open.op = SessionOp::kOpen;
  open.id = "o1";
  open.spec.kind = RequestKind::kGeneratorSpec;
  open.spec.generator.family = gen::TopologyFamily::kTorus2D;
  open.spec.generator.width = 4;
  open.spec.generator.height = 4;
  open.return_design = true;
  ExpectRoundTrip(open);

  SessionRequest open_seed;
  open_seed.op = SessionOp::kOpen;
  open_seed.spec.kind = RequestKind::kSourceSeed;
  open_seed.spec.source = valid::DesignSource::kMesh;
  open_seed.spec.seed = 42;
  ExpectRoundTrip(open_seed);

  SessionEventSpec link;
  link.kind = fault::FaultKind::kLink;
  link.src = "t0_0";
  link.dst = "t1_0";
  SessionEventSpec dead_switch;
  dead_switch.kind = fault::FaultKind::kSwitch;
  dead_switch.switch_name = "t2_2";

  SessionRequest burst = BurstOn("s1", {link, dead_switch}, 3);
  burst.return_design = true;
  ExpectRoundTrip(burst);
  SessionRequest no_epoch = BurstOn("s1", {link}, 0);
  no_epoch.has_expect_epoch = false;
  ExpectRoundTrip(no_epoch);

  ExpectRoundTrip(SnapshotOf("s9"));
  ExpectRoundTrip(CloseOf("s9"));
}

TEST(SessionProtocolTest, V1LinesStillParseAsStatelessCertify) {
  const serve::ServeMessage message = serve::ParseMessageLine(
      R"({"id":"r1","source":"mesh","seed":5})");
  EXPECT_FALSE(message.is_session);
  EXPECT_EQ(message.certify.protocol_version, serve::kProtocolV1);
  EXPECT_EQ(message.certify.id, "r1");
}

void ExpectProtocolError(const std::string& line, ErrorCode code) {
  try {
    (void)serve::ParseMessageLine(line);
    FAIL() << "line parsed but should have been rejected: " << line;
  } catch (const serve::ProtocolError& e) {
    EXPECT_EQ(e.code(), code) << line;
  }
}

TEST(SessionProtocolTest, RejectsUnknownVersionsTypesAndMalformedFields) {
  // A version this server does not speak, on either message shape.
  ExpectProtocolError(R"({"protocol_version":3,"source":"mesh","seed":1})",
                      ErrorCode::kUnsupportedVersion);
  ExpectProtocolError(R"({"protocol_version":0,"type":"session_open"})",
                      ErrorCode::kUnsupportedVersion);
  // v2 message types the server does not know.
  ExpectProtocolError(R"({"protocol_version":2,"type":"session_reopen"})",
                      ErrorCode::kUnknownType);
  // Typed messages require v2: "type" on a v1 line is malformed.
  ExpectProtocolError(R"({"type":"session_open","source":"mesh","seed":1})",
                      ErrorCode::kInvalidRequest);
  // Session ops without a session id.
  ExpectProtocolError(R"({"protocol_version":2,"type":"fault_burst"})",
                      ErrorCode::kInvalidRequest);
  // Burst events with an unknown kind / missing fields.
  ExpectProtocolError(
      R"({"protocol_version":2,"type":"fault_burst","session":"s1",)"
      R"("events":[{"kind":"router","name":"x"}]})",
      ErrorCode::kInvalidRequest);
  ExpectProtocolError(
      R"({"protocol_version":2,"type":"fault_burst","session":"s1",)"
      R"("events":[{"kind":"link","src":"a"}]})",
      ErrorCode::kInvalidRequest);
  // Open without exactly one design spec.
  ExpectProtocolError(R"({"protocol_version":2,"type":"session_open"})",
                      ErrorCode::kInvalidRequest);
  // Not JSON at all.
  ExpectProtocolError("not json", ErrorCode::kInvalidRequest);
}

TEST(SessionProtocolTest, ErrorCodeNamesRoundTrip) {
  for (const ErrorCode code :
       {ErrorCode::kNone, ErrorCode::kInvalidRequest,
        ErrorCode::kUnsupportedVersion, ErrorCode::kUnknownType,
        ErrorCode::kUnknownSession, ErrorCode::kStaleEpoch,
        ErrorCode::kSessionLimit, ErrorCode::kOverloaded,
        ErrorCode::kComputeFailed, ErrorCode::kInternal}) {
    EXPECT_EQ(serve::ParseErrorCode(serve::ErrorCodeName(code)), code);
  }
}

TEST(SessionProtocolTest, DispatcherAnswersMalformedLinesWithStructuredErrors) {
  Stack stack;
  serve::ServeDispatcher dispatcher(stack.service, stack.sessions);
  const std::string reply = dispatcher.HandleLine(
      R"({"protocol_version":2,"type":"session_reopen","id":"x9"})");
  EXPECT_NE(reply.find("\"error\""), std::string::npos);
  EXPECT_NE(reply.find("unknown_type"), std::string::npos);
  EXPECT_NE(reply.find("\"x9\""), std::string::npos);
}

// ---------------------------------------------------------------------
// MaterializeDesign — the one entry point sessions and stateless
// serves share.
// ---------------------------------------------------------------------

TEST(MaterializeDesignTest, AllThreeSpecKindsMaterialize) {
  const valid::DesignEnvelope envelope;
  serve::DesignSpec text_spec;
  text_spec.kind = RequestKind::kDesignText;
  text_spec.design_text = DesignText(UnidirectionalRing(6, 2));
  const NocDesign from_text =
      serve::MaterializeDesign(text_spec, envelope);
  EXPECT_EQ(from_text.topology.SwitchCount(), 6u);

  serve::DesignSpec gen_spec;
  gen_spec.kind = RequestKind::kGeneratorSpec;
  gen_spec.generator.family = gen::TopologyFamily::kMesh2D;
  gen_spec.generator.width = 3;
  gen_spec.generator.height = 3;
  NextHopTable table;
  const NocDesign from_gen =
      serve::MaterializeDesign(gen_spec, envelope, &table);
  EXPECT_EQ(from_gen.topology.SwitchCount(), 9u);
  EXPECT_FALSE(table.empty());

  serve::DesignSpec seed_spec;
  seed_spec.kind = RequestKind::kSourceSeed;
  seed_spec.source = valid::DesignSource::kRing;
  seed_spec.seed = 11;
  const NocDesign from_seed =
      serve::MaterializeDesign(seed_spec, envelope, &table);
  EXPECT_GT(from_seed.topology.SwitchCount(), 0u);

  serve::DesignSpec bad;
  bad.kind = RequestKind::kDesignText;
  bad.design_text = "not a design";
  EXPECT_THROW((void)serve::MaterializeDesign(bad, envelope),
               DesignParseError);
}

// ---------------------------------------------------------------------
// Lifecycle
// ---------------------------------------------------------------------

TEST(SessionServiceTest, OpenBurstSnapshotCloseLifecycle) {
  Stack stack;
  gen::GeneratorSpec spec;
  spec.family = gen::TopologyFamily::kMesh2D;
  spec.width = 4;
  spec.height = 4;
  SessionRequest open_request;
  open_request.op = SessionOp::kOpen;
  open_request.spec.kind = RequestKind::kGeneratorSpec;
  open_request.spec.generator = spec;
  open_request.return_design = true;

  const SessionResponse open = stack.sessions.Handle(open_request);
  ASSERT_EQ(open.status, ServeStatus::kOk) << open.error.message;
  EXPECT_EQ(open.session_id, "s1");
  EXPECT_EQ(open.epoch, 0u);
  EXPECT_TRUE(open.deadlock_free);
  ASSERT_FALSE(open.design_text.empty());

  // Two bursts: the epoch advances by exactly one each, the key moves,
  // and every epoch's certificate checks against its design.
  const NocDesign epoch0 = Reparse(open.design_text);
  std::uint64_t epoch = 0;
  std::uint64_t last_key = open.key;
  for (const std::size_t link : {std::size_t{0}, std::size_t{5}}) {
    const SessionResponse reply = stack.sessions.Handle(BurstOn(
        open.session_id, {LinkEvent(epoch0, LinkId(link))}, epoch));
    ASSERT_EQ(reply.status, ServeStatus::kOk) << reply.error.message;
    ASSERT_TRUE(reply.feasible);
    ++epoch;
    EXPECT_EQ(reply.epoch, epoch);
    EXPECT_NE(reply.key, last_key);
    EXPECT_TRUE(reply.deadlock_free);
    last_key = reply.key;
  }

  const SessionResponse snapshot =
      stack.sessions.Handle(SnapshotOf(open.session_id));
  ASSERT_EQ(snapshot.status, ServeStatus::kOk);
  EXPECT_EQ(snapshot.epoch, epoch);
  EXPECT_EQ(snapshot.key, last_key);
  EXPECT_EQ(snapshot.failed_links, 2u);
  EXPECT_EQ(snapshot.bursts_applied, 2u);
  ASSERT_FALSE(snapshot.design_text.empty());
  const DeadlockCertificate certificate =
      CertificateFromJson(snapshot.certificate_json);
  EXPECT_TRUE(CheckCertificate(
      CanonicalizeDesign(Reparse(snapshot.design_text)).design,
      certificate));

  const SessionResponse closed =
      stack.sessions.Handle(CloseOf(open.session_id));
  EXPECT_EQ(closed.status, ServeStatus::kOk);
  EXPECT_EQ(closed.bursts_applied, 2u);

  const serve::SessionServiceStats stats = stack.sessions.Stats();
  EXPECT_EQ(stats.opened, 1u);
  EXPECT_EQ(stats.closed, 1u);
  EXPECT_EQ(stats.live_sessions, 0u);
  EXPECT_EQ(stats.bursts_applied, 2u);
}

// Every failure moves exactly one of errors and open_rejected: the
// lifecycle and burst violations count as errors, the refused opens
// (session limit, overloaded compute budget) as open_rejected.
TEST(SessionServiceTest, LifecycleViolationsAreStructuredErrors) {
  // One session at a time, and a budget that admits the first open's
  // computation and never refills.
  ServiceConfig service_config = Stack::MakeConfig();
  service_config.admission.enabled = true;
  service_config.admission.tokens_per_sec = 0.0;
  service_config.admission.burst = 1.0;
  CertificationService service(service_config);
  SessionServiceConfig session_config;
  session_config.max_sessions = 1;
  SessionService sessions(service, session_config);

  using Stats = serve::SessionServiceStats;
  Stats before = sessions.Stats();
  const auto counted = [&](const SessionResponse& response,
                           std::uint64_t Stats::*moved) {
    const Stats after = sessions.Stats();
    for (const auto counter : {&Stats::errors, &Stats::open_rejected}) {
      EXPECT_EQ(after.*counter, before.*counter + (counter == moved ? 1 : 0))
          << response.error.message;
    }
    before = after;
  };
  const auto error = &Stats::errors;
  const auto open_rejected = &Stats::open_rejected;

  const SessionResponse ghost = sessions.Handle(SnapshotOf("s404"));
  EXPECT_EQ(ghost.status, ServeStatus::kError);
  EXPECT_EQ(ghost.error.code, ErrorCode::kUnknownSession);
  EXPECT_EQ(ghost.session_id, "s404");
  counted(ghost, error);

  const SessionResponse open =
      sessions.Handle(OpenText(UnidirectionalRing(8, 2)));
  ASSERT_EQ(open.status, ServeStatus::kOk) << open.error.message;
  counted(open, nullptr);
  const NocDesign design = Reparse(open.design_text);

  // Empty burst.
  const SessionResponse empty =
      sessions.Handle(BurstOn(open.session_id, {}, 0));
  EXPECT_EQ(empty.status, ServeStatus::kError);
  EXPECT_EQ(empty.error.code, ErrorCode::kInvalidRequest);
  EXPECT_EQ(empty.session_id, open.session_id);
  counted(empty, error);

  // Unknown switch and link names resolve to nothing; the burst is
  // rejected atomically before any state changes.
  SessionEventSpec bogus;
  bogus.kind = fault::FaultKind::kSwitch;
  bogus.switch_name = "no_such_switch";
  const SessionResponse unresolved =
      sessions.Handle(BurstOn(open.session_id, {bogus}, 0));
  EXPECT_EQ(unresolved.status, ServeStatus::kError);
  EXPECT_EQ(unresolved.error.code, ErrorCode::kInvalidRequest);
  counted(unresolved, error);
  SessionEventSpec no_link = LinkEvent(design, LinkId(0));
  no_link.dst = no_link.src;
  const SessionResponse unlinked =
      sessions.Handle(BurstOn(open.session_id, {no_link}, 0));
  EXPECT_EQ(unlinked.status, ServeStatus::kError);
  EXPECT_EQ(unlinked.error.code, ErrorCode::kInvalidRequest);
  EXPECT_EQ(unlinked.error.message,
            "no link \"" + no_link.src + "\" -> \"" + no_link.src + "\"");
  counted(unlinked, error);

  // Stale optimistic-concurrency epoch; the error echoes the actual
  // epoch so clients can resync.
  const SessionResponse stale = sessions.Handle(
      BurstOn(open.session_id, {LinkEvent(design, LinkId(0))}, 7));
  EXPECT_EQ(stale.status, ServeStatus::kError);
  EXPECT_EQ(stale.error.code, ErrorCode::kStaleEpoch);
  EXPECT_EQ(stale.epoch, 0u);
  counted(stale, error);

  // The session is unharmed by any of the above.
  const SessionResponse snapshot = sessions.Handle(SnapshotOf(open.session_id));
  ASSERT_EQ(snapshot.status, ServeStatus::kOk);
  EXPECT_EQ(snapshot.epoch, 0u);
  EXPECT_EQ(snapshot.failed_links, 0u);
  counted(snapshot, nullptr);

  // The one session slot is taken.
  const SessionResponse limited =
      sessions.Handle(OpenText(UnidirectionalRing(8, 2)));
  EXPECT_EQ(limited.status, ServeStatus::kError);
  EXPECT_EQ(limited.error.code, ErrorCode::kSessionLimit);
  EXPECT_TRUE(limited.session_id.empty());
  counted(limited, open_rejected);

  // Close, then everything on the dead session is unknown_session.
  const SessionResponse closed = sessions.Handle(CloseOf(open.session_id));
  EXPECT_EQ(closed.status, ServeStatus::kOk);
  counted(closed, nullptr);
  for (const SessionRequest& late :
       {CloseOf(open.session_id), SnapshotOf(open.session_id),
        BurstOn(open.session_id, {LinkEvent(design, LinkId(0))}, 0)}) {
    const SessionResponse dead = sessions.Handle(late);
    EXPECT_EQ(dead.error.code, ErrorCode::kUnknownSession);
    counted(dead, error);
  }

  // A slot is free again, but the compute budget is spent: a design
  // the cache does not hold is refused as overloaded.
  const SessionResponse overloaded =
      sessions.Handle(OpenText(UnidirectionalRing(6, 2)));
  EXPECT_EQ(overloaded.status, ServeStatus::kOverloaded);
  EXPECT_EQ(overloaded.error.code, ErrorCode::kOverloaded);
  counted(overloaded, open_rejected);
  EXPECT_EQ(sessions.Stats().live_sessions, 0u);
}

TEST(SessionServiceTest, SessionLimitBoundsOpensUntilAClose) {
  SessionServiceConfig config;
  config.max_sessions = 1;
  Stack stack(config);
  const NocDesign design = UnidirectionalRing(6, 2);
  const SessionResponse first = stack.sessions.Handle(OpenText(design));
  ASSERT_EQ(first.status, ServeStatus::kOk);

  const SessionResponse rejected = stack.sessions.Handle(OpenText(design));
  EXPECT_EQ(rejected.status, ServeStatus::kError);
  EXPECT_EQ(rejected.error.code, ErrorCode::kSessionLimit);
  EXPECT_EQ(stack.sessions.Stats().open_rejected, 1u);

  EXPECT_EQ(stack.sessions.Handle(CloseOf(first.session_id)).status,
            ServeStatus::kOk);
  EXPECT_EQ(stack.sessions.Handle(OpenText(design)).status,
            ServeStatus::kOk);
}

// ---------------------------------------------------------------------
// Epochs and the cert cache
// ---------------------------------------------------------------------

TEST(SessionServiceTest, InfeasibleBurstIsAnAnswerNotAnEpoch) {
  Stack stack;
  gen::GeneratorSpec spec;
  spec.family = gen::TopologyFamily::kMesh2D;
  spec.width = 3;
  spec.height = 3;
  SessionRequest open_request;
  open_request.op = SessionOp::kOpen;
  open_request.spec.kind = RequestKind::kGeneratorSpec;
  open_request.spec.generator = spec;
  open_request.return_design = true;
  const SessionResponse open = stack.sessions.Handle(open_request);
  ASSERT_EQ(open.status, ServeStatus::kOk) << open.error.message;
  const NocDesign design = Reparse(open.design_text);

  // Kill a switch with cores attached: its flows cannot re-route, so
  // the burst must be rejected atomically with named witnesses.
  SessionEventSpec kill;
  kill.kind = fault::FaultKind::kSwitch;
  kill.switch_name = design.topology.SwitchName(design.attachment.front());
  const SessionResponse reply =
      stack.sessions.Handle(BurstOn(open.session_id, {kill}, 0));
  ASSERT_EQ(reply.status, ServeStatus::kOk) << reply.error.message;
  EXPECT_FALSE(reply.feasible);
  EXPECT_FALSE(reply.disconnected_flows.empty());
  EXPECT_EQ(reply.epoch, 0u);
  EXPECT_EQ(reply.key, open.key);
  EXPECT_EQ(reply.certificate_json, open.certificate_json);

  // Nothing changed: the session still answers epoch-0 state and a
  // feasible burst still applies afterwards.
  const SessionResponse snapshot =
      stack.sessions.Handle(SnapshotOf(open.session_id));
  EXPECT_EQ(snapshot.epoch, 0u);
  EXPECT_EQ(snapshot.failed_switches, 0u);
  EXPECT_EQ(stack.sessions.Stats().bursts_infeasible, 1u);
}

TEST(SessionServiceTest, EveryEpochIsServableAndNeverStale) {
  Stack stack;
  gen::GeneratorSpec spec;
  spec.family = gen::TopologyFamily::kMesh2D;
  spec.width = 4;
  spec.height = 4;
  const SessionResponse open =
      stack.sessions.Handle(OpenText(gen::GenerateStandardDesign(spec)));
  ASSERT_EQ(open.status, ServeStatus::kOk) << open.error.message;
  const NocDesign epoch0 = Reparse(open.design_text);

  SessionRequest burst =
      BurstOn(open.session_id, {LinkEvent(epoch0, LinkId(0))}, 0);
  burst.return_design = true;
  const SessionResponse reply = stack.sessions.Handle(burst);
  ASSERT_EQ(reply.status, ServeStatus::kOk) << reply.error.message;
  ASSERT_TRUE(reply.feasible);
  ASSERT_NE(reply.key, open.key);

  // The current epoch's design serves as a cache hit with the
  // session's exact certificate...
  CertRequest current;
  current.kind = RequestKind::kDesignText;
  current.design_text = reply.design_text;
  const CertResponse warm = stack.service.Serve(current);
  ASSERT_EQ(warm.status, ServeStatus::kOk);
  EXPECT_EQ(warm.cache_outcome, CacheOutcome::kHit);
  EXPECT_EQ(warm.key, reply.key);
  EXPECT_EQ(warm.certificate_json, reply.certificate_json);

  // ...and the *old* epoch's design still serves its *old* certificate
  // — content addressing means a stale certificate can never shadow a
  // fresh one (or vice versa); they are different keys.
  CertRequest old;
  old.kind = RequestKind::kDesignText;
  old.design_text = open.design_text;
  const CertResponse old_reply = stack.service.Serve(old);
  ASSERT_EQ(old_reply.status, ServeStatus::kOk);
  EXPECT_EQ(old_reply.key, open.key);
  EXPECT_EQ(old_reply.certificate_json, open.certificate_json);
  EXPECT_NE(old_reply.key, warm.key);
}

TEST(SessionServiceTest, TiedFlowsPublishInCanonicalOrderEveryEpoch) {
  // Twins tied on (src, dst, bandwidth) sort by route, and a burst that
  // re-routes one twin can flip them. Each publish re-sorts only the
  // runs of tied flows taken at the open; paranoid validation holds its
  // text to CanonicalizeDesign's and closes the session on a mismatch.
  std::size_t bursts = 0;
  std::size_t affected = 0;
  for (const std::uint64_t seed : {1ull, 2ull, 3ull}) {
    Stack stack;
    SessionRequest open_request = OpenText(
        testing::WithTiedTwins(testing::MakeRandomDesign(seed, 10, 14, 30)));
    open_request.options.paranoid_validation = true;
    const SessionResponse open = stack.sessions.Handle(open_request);
    ASSERT_EQ(open.status, ServeStatus::kOk) << open.error.message;
    const NocDesign epoch0 = Reparse(open.design_text);

    fault::FaultPlanOptions plan_options;
    plan_options.bursts = 4;
    plan_options.disconnect_tolerance = 0.0;
    const fault::FaultPlan plan =
        fault::DrawFaultPlan(epoch0, seed, plan_options);
    std::uint64_t epoch = 0;
    for (const fault::FaultBurst& burst : plan.bursts) {
      std::vector<SessionEventSpec> events;
      std::size_t dropped = 0;
      valid::NameBurst(epoch0, burst, events, dropped);
      ASSERT_EQ(dropped, 0u);
      if (events.empty()) {
        continue;
      }
      const SessionResponse reply =
          stack.sessions.Handle(BurstOn(open.session_id, events, epoch));
      ASSERT_EQ(reply.status, ServeStatus::kOk)
          << "seed " << seed << ": " << reply.error.message;
      ASSERT_TRUE(reply.feasible) << "seed " << seed;
      epoch = reply.epoch;
      affected += reply.affected_flows;
      ++bursts;
    }
  }
  EXPECT_GE(bursts, 10u);
  EXPECT_GT(affected, 0u);
}

TEST(SessionServiceTest, PublishesEveryEpochWhateverAdmissionSays) {
  // A token bucket that admits the open's one computation and never
  // refills: nothing after the open can compute.
  ServiceConfig config = Stack::MakeConfig();
  config.admission.enabled = true;
  config.admission.tokens_per_sec = 1e-9;
  config.admission.burst = 1.0;
  CertificationService service(config);
  SessionService sessions(service);

  // Dimension-order routes on a mesh are deadlock-free, so the open's
  // treatment and epoch 0 share one canonical problem.
  SessionRequest open_request;
  open_request.op = SessionOp::kOpen;
  open_request.spec.kind = RequestKind::kGeneratorSpec;
  open_request.spec.generator.family = gen::TopologyFamily::kMesh2D;
  open_request.spec.generator.width = 4;
  open_request.spec.generator.height = 4;
  open_request.return_design = true;
  const SessionResponse open = sessions.Handle(open_request);
  ASSERT_EQ(open.status, ServeStatus::kOk) << open.error.message;
  ASSERT_EQ(open.removal_iterations, 0u);

  SessionRequest burst = BurstOn(
      open.session_id, {LinkEvent(Reparse(open.design_text), LinkId(0))}, 0);
  burst.return_design = true;
  const SessionResponse reply = sessions.Handle(burst);
  ASSERT_EQ(reply.status, ServeStatus::kOk) << reply.error.message;
  ASSERT_TRUE(reply.feasible);

  // The bucket is empty, so a stateless client re-shipping the epoch's
  // text gets an answer only if the burst published it.
  CertRequest current;
  current.kind = RequestKind::kDesignText;
  current.design_text = reply.design_text;
  const CertResponse warm = service.Serve(current);
  ASSERT_EQ(warm.status, ServeStatus::kOk) << warm.error.message;
  EXPECT_EQ(warm.cache_outcome, CacheOutcome::kHit);
  EXPECT_EQ(warm.key, reply.key);
  EXPECT_EQ(warm.certificate_json, reply.certificate_json);

  // Publishes are neither requests nor computations; the open's serve
  // and the client's are.
  const serve::ServiceStats stats = service.Stats();
  EXPECT_EQ(stats.requests, 2u);
  EXPECT_EQ(stats.computations, 1u);
  EXPECT_EQ(stats.rejected, 0u);
  EXPECT_EQ(stats.cache.insertions, 2u);  // the open's, the burst's
}

TEST(SessionServiceTest, AFailedOpenGivesItsSlotBack) {
  // The first computation hands back a treated text that does not
  // parse, so that open throws after reserving its slot; later ones are
  // real.
  int computations = 0;
  CertificationService service(
      Stack::MakeConfig(),
      [&](const NocDesign& design, const CertRequest& request) {
        serve::CachedCertification value =
            serve::ComputeCertification(design, request);
        if (computations++ == 0) {
          value.treated_design_text = "not a design";
        }
        return value;
      });
  SessionServiceConfig config;
  config.max_sessions = 1;
  SessionService sessions(service, config);

  const SessionResponse broken =
      sessions.Handle(OpenText(UnidirectionalRing(6, 2)));
  EXPECT_EQ(broken.status, ServeStatus::kError);
  EXPECT_EQ(broken.error.code, ErrorCode::kInternal);
  // A leaked slot would answer session_limit here.
  const SessionResponse open =
      sessions.Handle(OpenText(UnidirectionalRing(7, 2)));
  EXPECT_EQ(open.status, ServeStatus::kOk) << open.error.message;
  EXPECT_EQ(sessions.Stats().live_sessions, 1u);
}

TEST(SessionServiceTest, ConcurrentBurstsPublishWhatStatelessReadersHit) {
  // Sessions burst on their own threads while reader threads re-serve
  // each published epoch's text statelessly: every read must hit the
  // epoch's entry with the session's certificate.
  ServiceConfig config;
  config.threads = 2;
  CertificationService service(config);
  SessionService sessions(service);

  struct Epoch {
    std::string design_text;
    std::uint64_t key = 0;
    std::string certificate_json;
  };
  std::mutex mutex;
  std::condition_variable ready;
  std::deque<Epoch> published;
  std::size_t writers_left = 3;
  std::vector<std::string> failures;
  std::size_t reads = 0;
  const auto note = [&](std::string failure) {
    std::lock_guard<std::mutex> lock(mutex);
    failures.push_back(std::move(failure));
  };

  const auto writer = [&](std::size_t w) {
    SessionRequest open_request;
    open_request.op = SessionOp::kOpen;
    open_request.spec.kind = RequestKind::kSourceSeed;
    open_request.spec.source = w == 0   ? valid::DesignSource::kMesh
                               : w == 1 ? valid::DesignSource::kTorus
                                        : valid::DesignSource::kRing;
    open_request.spec.seed = 3 + w;
    open_request.return_design = true;
    const SessionResponse open = sessions.Handle(open_request);
    if (open.status != ServeStatus::kOk) {
      note("open " + std::to_string(w) + ": " + open.error.message);
    } else {
      const NocDesign design = Reparse(open.design_text);
      fault::FaultPlanOptions options;
      options.bursts = 3;
      options.disconnect_tolerance = 0.0;
      const fault::FaultPlan plan = fault::DrawFaultPlan(design, w, options);
      std::uint64_t epoch = 0;
      for (const fault::FaultBurst& planned : plan.bursts) {
        std::vector<SessionEventSpec> events;
        std::size_t unnamed = 0;
        if (valid::NameBurst(design, planned, events, unnamed).empty()) {
          continue;
        }
        SessionRequest burst =
            BurstOn(open.session_id, std::move(events), epoch);
        burst.return_design = true;
        const SessionResponse reply = sessions.Handle(burst);
        if (reply.status != ServeStatus::kOk || !reply.feasible) {
          note("burst on " + open.session_id + ": " + reply.error.message);
          break;
        }
        epoch = reply.epoch;
        std::lock_guard<std::mutex> lock(mutex);
        published.push_back(
            Epoch{reply.design_text, reply.key, reply.certificate_json});
        ready.notify_one();
      }
    }
    std::lock_guard<std::mutex> lock(mutex);
    --writers_left;
    ready.notify_all();
  };

  const auto reader = [&] {
    for (;;) {
      Epoch epoch;
      {
        std::unique_lock<std::mutex> lock(mutex);
        ready.wait(lock,
                   [&] { return !published.empty() || writers_left == 0; });
        if (published.empty()) {
          return;
        }
        epoch = std::move(published.front());
        published.pop_front();
        ++reads;
      }
      CertRequest request;
      request.kind = RequestKind::kDesignText;
      request.design_text = epoch.design_text;
      const CertResponse response = service.Serve(request);
      if (response.status != ServeStatus::kOk ||
          response.cache_outcome != CacheOutcome::kHit ||
          response.key != epoch.key ||
          response.certificate_json != epoch.certificate_json) {
        note("stateless read of epoch key " + std::to_string(epoch.key) +
             " missed or differed");
      }
    }
  };

  std::vector<std::thread> threads;
  for (std::size_t w = 0; w < 3; ++w) {
    threads.emplace_back(writer, w);
  }
  threads.emplace_back(reader);
  threads.emplace_back(reader);
  for (std::thread& thread : threads) {
    thread.join();
  }
  EXPECT_TRUE(failures.empty()) << failures.front();
  EXPECT_GE(reads, 3u);
}

// ---------------------------------------------------------------------
// Determinism and the differential campaign
// ---------------------------------------------------------------------

TEST(SessionServiceTest, ResponseDigestIsReproducible) {
  std::vector<std::uint64_t> digests;
  for (int run = 0; run < 2; ++run) {
    Stack stack;
    std::vector<SessionResponse> responses;
    const SessionResponse open =
        stack.sessions.Handle(OpenText(UnidirectionalRing(8, 2)));
    responses.push_back(open);
    const NocDesign design = Reparse(open.design_text);
    responses.push_back(stack.sessions.Handle(
        BurstOn(open.session_id, {LinkEvent(design, LinkId(2))}, 0)));
    responses.push_back(stack.sessions.Handle(SnapshotOf(open.session_id)));
    responses.push_back(stack.sessions.Handle(CloseOf(open.session_id)));
    digests.push_back(serve::SessionResponseDigest(responses));
  }
  EXPECT_EQ(digests[0], digests[1]);
}

TEST(SessionCampaignTest, SmallCampaignHasNoMismatchesAndStableDigest) {
  valid::SessionCampaignConfig config;
  config.trials = 10;
  config.base_seed = 11;
  config.threads = 2;
  const auto result = valid::RunSessionCampaign(config);
  EXPECT_EQ(result.Mismatches(), 0u) << result.rows.front().mismatch;
  for (const valid::SessionTrialRow& row : result.rows) {
    EXPECT_NE(row.verdict, valid::SessionVerdict::kMismatch)
        << "trial " << row.trial_index << ": " << row.mismatch;
  }

  valid::SessionCampaignConfig serial = config;
  serial.threads = 1;
  EXPECT_EQ(valid::RunSessionCampaign(serial).digest, result.digest);
}

TEST(SessionCampaignTest, ParanoidPublishesMatchTheFromScratchPath) {
  // paranoid_validation recomputes every publish through
  // CanonicalizeDesign + ComputeCertification and Requires the same
  // bytes; a disagreement closes the session and fails its trial. The
  // option is not part of any key, so the digest is the plain one.
  valid::SessionCampaignConfig config;
  config.trials = 8;
  config.base_seed = 5;
  config.threads = 2;
  config.removal.paranoid_validation = true;
  const auto paranoid = valid::RunSessionCampaign(config);
  for (const valid::SessionTrialRow& row : paranoid.rows) {
    EXPECT_NE(row.verdict, valid::SessionVerdict::kMismatch)
        << "trial " << row.trial_index << ": " << row.mismatch;
  }
  config.removal.paranoid_validation = false;
  EXPECT_EQ(valid::RunSessionCampaign(config).digest, paranoid.digest);
}

TEST(SessionCampaignTest, DigestIsPinned) {
  valid::SessionCampaignConfig config;
  config.trials = 10;
  config.base_seed = 11;
  EXPECT_EQ(valid::RunSessionCampaign(config).digest, 0x1a4eed87188b0d62ull);
}

TEST(SessionCampaignTest, FullRowIsPinned) {
  valid::SessionTrialRow row;
  row.trial_index = 3;
  row.design_seed = 0x123456789abcdef0ull;
  row.design = "mesh4x4";
  row.source = valid::DesignSource::kMesh;
  row.switches = 16;
  row.links = 48;
  row.flows = 20;
  row.channels_initial = 50;
  row.channels_final = 52;
  row.table_routed = true;
  row.bursts_planned = 3;
  row.bursts_streamed = 2;
  row.events_unnamed = 1;
  row.final_epoch = 2;
  row.affected_flows = 5;
  row.disconnected_flows = 6;
  row.table_detours = 7;
  row.ripup_reroutes = 8;
  row.removal_iterations = 9;
  row.removal_vcs_added = 10;
  row.failed_links = 4;
  row.failed_switches = 1;
  row.final_key = 0xfedcba9876543210ull;
  row.session_digest = 0x0123456789abcdefull;
  row.verdict = valid::SessionVerdict::kDisconnected;
  row.mismatch_kind = valid::SessionMismatchKind::kEpochViolation;
  row.mismatch = "epoch violation";
  row.run_ms = 12.5;
  EXPECT_EQ(Digest(std::vector{row}), 0x0a87a3f9e8654f77ull);
  const std::map<std::string, std::string> expected = {
      {"trial", "3"},
      {"design_seed", "1311768467463790320"},
      {"design", "\"mesh4x4\""},
      {"source", "\"mesh\""},
      {"switches", "16"},
      {"links", "48"},
      {"flows", "20"},
      {"channels_initial", "50"},
      {"channels_final", "52"},
      {"table_routed", "true"},
      {"bursts_planned", "3"},
      {"bursts_streamed", "2"},
      {"events_unnamed", "1"},
      {"final_epoch", "2"},
      {"affected_flows", "5"},
      {"disconnected_flows", "6"},
      {"table_detours", "7"},
      {"ripup_reroutes", "8"},
      {"removal_iterations", "9"},
      {"removal_vcs_added", "10"},
      {"failed_links", "4"},
      {"failed_switches", "1"},
      {"final_key", "18364758544493064720"},
      {"session_digest", "81985529216486895"},
      {"verdict", "\"disconnected\""},
      {"mismatch", "\"epoch violation\""},
      {"mismatch_kind", "5"},
      {"run_ms", "12.500000"},
  };
  EXPECT_EQ(testing::JsonMembers(RowToJson(row).Dump()), expected);
}

}  // namespace
}  // namespace nocdr
