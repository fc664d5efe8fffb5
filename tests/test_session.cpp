// Protocol v2 streaming sessions: codec round trips, structured-error
// rejection, session lifecycle, epoch monotonicity and the
// epoch-versioned cert-cache interaction (serve/session,
// serve/protocol, valid/session_campaign).
#include <gtest/gtest.h>

#include <optional>
#include <sstream>
#include <string>
#include <vector>

#include "deadlock/verify.h"
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
using testing::MakeRingDesign;

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
  text_spec.design_text = DesignText(MakeRingDesign(6));
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

TEST(SessionServiceTest, LifecycleViolationsAreStructuredErrors) {
  Stack stack;
  const SessionResponse ghost =
      stack.sessions.Handle(SnapshotOf("s404"));
  EXPECT_EQ(ghost.status, ServeStatus::kError);
  EXPECT_EQ(ghost.error.code, ErrorCode::kUnknownSession);

  const SessionResponse open =
      stack.sessions.Handle(OpenText(MakeRingDesign(8)));
  ASSERT_EQ(open.status, ServeStatus::kOk) << open.error.message;
  const NocDesign design = Reparse(open.design_text);

  // Empty burst.
  const SessionResponse empty =
      stack.sessions.Handle(BurstOn(open.session_id, {}, 0));
  EXPECT_EQ(empty.status, ServeStatus::kError);
  EXPECT_EQ(empty.error.code, ErrorCode::kInvalidRequest);

  // Unknown switch names resolve to nothing; the burst is rejected
  // atomically before any state changes.
  SessionEventSpec bogus;
  bogus.kind = fault::FaultKind::kSwitch;
  bogus.switch_name = "no_such_switch";
  const SessionResponse unresolved =
      stack.sessions.Handle(BurstOn(open.session_id, {bogus}, 0));
  EXPECT_EQ(unresolved.status, ServeStatus::kError);
  EXPECT_EQ(unresolved.error.code, ErrorCode::kInvalidRequest);

  // Stale optimistic-concurrency epoch; the error echoes the actual
  // epoch so clients can resync.
  const SessionResponse stale = stack.sessions.Handle(
      BurstOn(open.session_id, {LinkEvent(design, LinkId(0))}, 7));
  EXPECT_EQ(stale.status, ServeStatus::kError);
  EXPECT_EQ(stale.error.code, ErrorCode::kStaleEpoch);
  EXPECT_EQ(stale.epoch, 0u);

  // The session is unharmed by any of the above.
  const SessionResponse snapshot =
      stack.sessions.Handle(SnapshotOf(open.session_id));
  ASSERT_EQ(snapshot.status, ServeStatus::kOk);
  EXPECT_EQ(snapshot.epoch, 0u);
  EXPECT_EQ(snapshot.failed_links, 0u);

  // Close, then everything on the dead session is unknown_session.
  EXPECT_EQ(stack.sessions.Handle(CloseOf(open.session_id)).status,
            ServeStatus::kOk);
  EXPECT_EQ(stack.sessions.Handle(CloseOf(open.session_id)).error.code,
            ErrorCode::kUnknownSession);
  EXPECT_EQ(stack.sessions.Handle(SnapshotOf(open.session_id)).error.code,
            ErrorCode::kUnknownSession);
  EXPECT_EQ(stack.sessions
                .Handle(BurstOn(open.session_id,
                                {LinkEvent(design, LinkId(0))}, 0))
                .error.code,
            ErrorCode::kUnknownSession);
}

TEST(SessionServiceTest, SessionLimitBoundsOpensUntilAClose) {
  SessionServiceConfig config;
  config.max_sessions = 1;
  Stack stack(config);
  const NocDesign design = MakeRingDesign(6);
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

// ---------------------------------------------------------------------
// Determinism and the differential campaign
// ---------------------------------------------------------------------

TEST(SessionServiceTest, ResponseDigestIsReproducible) {
  std::vector<std::uint64_t> digests;
  for (int run = 0; run < 2; ++run) {
    Stack stack;
    std::vector<SessionResponse> responses;
    const SessionResponse open =
        stack.sessions.Handle(OpenText(MakeRingDesign(8)));
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
