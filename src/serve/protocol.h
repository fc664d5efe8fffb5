// Line-delimited JSON protocol of the certification service.
//
// One request per line in, one response per line out — the transport
// the nocdr_serve binary speaks on stdin/stdout and the format the
// examples/ directory documents. A request names its design exactly one
// of three ways:
//
//   {"id":"r1","design":"noc d\nswitch s0\n..."}          inline text
//   {"id":"r2","generator":{"family":"torus","width":6,   generator spec
//                           "height":6,"pattern":"uniform","seed":3}}
//   {"id":"r3","source":"fat_tree","seed":42}             campaign draw
//
// plus optional fields:
//
//   "options": {"cycle_policy":"smallest_first|first_found|largest_first",
//               "direction":"both|forward_only|backward_only",
//               "duplication":"virtual_channel|physical_link",
//               "max_iterations":N}
//              (unknown keys are ignored, so a request that still sends
//              the retired "engine" key is served as if it did not)
//   "treat": true|false      (default true; false = certify as-is)
//   "return_design": bool    (include the treated design text)
//
// The response carries the deterministic payload (certificate embedded
// as a JSON object, VC-insertion counts, the content-addressed key)
// plus cache/timing metadata:
//
//   {"id":"r1","status":"ok","key":123...,"deadlock_free":true,
//    "certificate":{...},"vcs_added":2,...,"cache":"hit",
//    "service_ms":0.04}
//
// status is "ok", "overloaded" (admission bound hit — retry later) or
// "error"; failures carry a structured error object
// {"code":"invalid_request","message":"..."} shared by both protocol
// versions (codes: see serve/service.h ErrorCode).
//
// Protocol v2 (explicit {"protocol_version":2}) adds typed messages.
// "type":"certify" is the stateless request above; the other four types
// drive stateful sessions (serve/session.h):
//
//   {"protocol_version":2,"type":"session_open","id":"c1",
//    "generator":{...},"options":{...},"return_design":true}
//   {"protocol_version":2,"type":"fault_burst","id":"c2","session":"s1",
//    "expect_epoch":0,
//    "events":[{"kind":"link","src":"sw_0_0","dst":"sw_0_1"},
//              {"kind":"switch","switch":"sw_1_1"}]}
//   {"protocol_version":2,"type":"session_snapshot","id":"c3","session":"s1"}
//   {"protocol_version":2,"type":"session_close","id":"c4","session":"s1"}
//
// and two introspection types. "stats" returns the service's counters
// — request totals, every cache tier (front memo, memory, disk),
// session totals and the per-class admission split — as one structured
// JSON response:
//
//   {"protocol_version":2,"type":"stats","id":"c5"}
//
// "metrics" returns the process-wide metrics registry (obs/metrics.h)
// — counters and log-bucketed latency histograms — plus the
// build provenance (git sha, compiler, flags):
//
//   {"protocol_version":2,"type":"metrics","id":"c6"}
//
// The `nocdr_serve --stats` operator text is *rendered from* those
// JSON responses (StatsTextFromJson / MetricsTextFromJson), so the
// human and machine surfaces cannot drift.
//
// Session responses echo the message type and carry the session id,
// epoch number, the delta fields of the operation and the epoch's
// certificate + content-addressed key. Requests without a
// protocol_version field are v1; v1 requests must not carry "type".
// docs/PROTOCOL.md documents the full grammar, with examples
// machine-checked against this codec by tools/docs_check.cpp.
#pragma once

#include <string>

#include "obs/metrics.h"
#include "serve/service.h"
#include "serve/session.h"
#include "util/error.h"

namespace nocdr::serve {

/// What ParseMessageLine and the dispatcher throw: an InvalidModelError
/// that knows its protocol error code, so malformed lines become
/// structured-error responses instead of free text.
class ProtocolError : public InvalidModelError {
 public:
  ProtocolError(ErrorCode code, const std::string& message)
      : InvalidModelError(message), code_(code) {}

  [[nodiscard]] ErrorCode code() const { return code_; }

 private:
  ErrorCode code_;
};

/// The v2 introspection request: carries nothing but its id. The
/// response is the whole ServiceStats + SessionServiceStats picture.
struct StatsRequest {
  int protocol_version = kProtocolV2;
  std::string id;
};

/// The v2 metrics request: like stats, carries nothing but its id. The
/// response is the process-wide metrics registry (obs/metrics.h) plus
/// build provenance.
struct MetricsRequest {
  int protocol_version = kProtocolV2;
  std::string id;
};

/// One parsed protocol line of either version: a stateless certify
/// request, a session message, a stats request or a metrics request.
/// At most one of is_session / is_stats / is_metrics is set; none means
/// certify.
struct ServeMessage {
  bool is_session = false;
  bool is_stats = false;
  bool is_metrics = false;
  CertRequest certify;     // valid iff no flag is set
  SessionRequest session;  // valid iff is_session
  StatsRequest stats;      // valid iff is_stats
  MetricsRequest metrics;  // valid iff is_metrics
};

/// Parses one line of either protocol version. Throws ProtocolError on
/// malformed JSON or fields (kInvalidRequest), a protocol_version the
/// server does not speak (kUnsupportedVersion) or an unknown v2 message
/// type (kUnknownType).
ServeMessage ParseMessageLine(const std::string& line);

/// Parses one *stateless* request line (either version). Throws
/// ProtocolError; a v2 session message is kInvalidRequest here.
CertRequest ParseRequestLine(const std::string& line);

/// Renders \p request as one protocol line (inverse of
/// ParseRequestLine up to field order and JSON escaping). v2 requests
/// carry "type":"certify".
std::string RequestToJsonLine(const CertRequest& request);

/// Renders \p response as one protocol line.
std::string ResponseToJsonLine(const CertResponse& response);

/// Renders \p request as one v2 protocol line (inverse of
/// ParseMessageLine for session messages).
std::string SessionRequestToJsonLine(const SessionRequest& request);

/// Renders \p response as one v2 protocol line.
std::string SessionResponseToJsonLine(const SessionResponse& response);

/// Renders \p request as one v2 protocol line
/// ({"protocol_version":2,"type":"stats",...}).
std::string StatsRequestToJsonLine(const StatsRequest& request);

/// Renders the stats response line: the full counter picture —
/// request totals, the front / memory-cache / disk tiers (one
/// CacheStats shape each), session totals and the per-class admission
/// split.
std::string StatsResponseToJsonLine(const StatsRequest& request,
                                    const ServiceStats& service_stats,
                                    const SessionServiceStats& session_stats);

/// Renders the `nocdr_serve --stats` operator text from a stats
/// *response line* (each output line prefixed with \p prefix). The
/// text is derived from the JSON — never assembled from the structs
/// directly — so the human and machine surfaces cannot drift. Throws
/// ProtocolError on a line that is not a stats response.
std::string StatsTextFromJson(const std::string& response_line,
                              const std::string& prefix);

/// Renders \p request as one v2 protocol line
/// ({"protocol_version":2,"type":"metrics",...}).
std::string MetricsRequestToJsonLine(const MetricsRequest& request);

/// Renders the metrics response line: build provenance plus every
/// registered counter and histogram
/// ({"histograms":{"name":{"count":N,"sum":S,
/// "buckets":[[le,count],...]},...}); "le" is the bucket's inclusive
/// upper bound and zero-count buckets are omitted (obs/metrics.h).
std::string MetricsResponseToJsonLine(const MetricsRequest& request,
                                      const obs::MetricsSnapshot& snapshot);

/// Renders the `nocdr_serve --stats` latency-histogram section from a
/// metrics *response line* — counters and per-histogram
/// count/sum/quantile-bound lines, derived from the JSON like
/// StatsTextFromJson. Throws ProtocolError on a line that is not a
/// metrics response.
std::string MetricsTextFromJson(const std::string& response_line,
                                const std::string& prefix);

/// Renders the structured-error response line a malformed input line
/// gets: {"protocol_version":V,"id":...,"status":"error",
/// "error":{"code":...,"message":...}}.
std::string ErrorResponseLine(int protocol_version, const std::string& id,
                              ErrorCode code, const std::string& message);

/// Stable names used by the protocol ("ok" / "overloaded" / "error",
/// "hit" / "computed" / "coalesced" / "none").
std::string StatusName(ServeStatus status);
std::string CacheOutcomeName(CacheOutcome outcome);

/// Stable v2 message-type names ("certify", "session_open",
/// "fault_burst", "session_snapshot", "session_close").
std::string SessionOpName(SessionOp op);

/// Inverse of ErrorCodeName (serve/service.h); nullopt-free: throws
/// ProtocolError(kInvalidRequest) on an unknown name.
ErrorCode ParseErrorCode(const std::string& name);

/// Routes parsed messages to a CertificationService (stateless
/// certify) and a SessionService (session ops); the one-stop line
/// handler a server loop needs.
class ServeDispatcher {
 public:
  ServeDispatcher(CertificationService& service, SessionService& sessions)
      : service_(service), sessions_(sessions) {}

  /// Parses, routes and serves one protocol line of either version.
  /// Malformed lines become structured-error response lines; this never
  /// throws.
  std::string HandleLine(const std::string& line);

  /// Serves one pre-parsed message.
  std::string Handle(const ServeMessage& message);

 private:
  CertificationService& service_;
  SessionService& sessions_;
};

}  // namespace nocdr::serve
