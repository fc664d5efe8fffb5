#include "serve/protocol.h"

#include <utility>

#include "util/build_info.h"
#include "util/error.h"
#include "util/json.h"

namespace nocdr::serve {

namespace {

std::string CyclePolicyName(CyclePolicy policy) {
  switch (policy) {
    case CyclePolicy::kSmallestFirst:
      return "smallest_first";
    case CyclePolicy::kFirstFound:
      return "first_found";
    case CyclePolicy::kLargestFirst:
      return "largest_first";
  }
  return "unknown";
}

CyclePolicy ParseCyclePolicy(const std::string& name) {
  for (const CyclePolicy policy :
       {CyclePolicy::kSmallestFirst, CyclePolicy::kFirstFound,
        CyclePolicy::kLargestFirst}) {
    if (CyclePolicyName(policy) == name) {
      return policy;
    }
  }
  throw InvalidModelError("ParseRequestLine: unknown cycle_policy \"" + name +
                          "\"");
}

std::string DirectionName(DirectionPolicy policy) {
  switch (policy) {
    case DirectionPolicy::kBoth:
      return "both";
    case DirectionPolicy::kForwardOnly:
      return "forward_only";
    case DirectionPolicy::kBackwardOnly:
      return "backward_only";
  }
  return "unknown";
}

DirectionPolicy ParseDirection(const std::string& name) {
  for (const DirectionPolicy policy :
       {DirectionPolicy::kBoth, DirectionPolicy::kForwardOnly,
        DirectionPolicy::kBackwardOnly}) {
    if (DirectionName(policy) == name) {
      return policy;
    }
  }
  throw InvalidModelError("ParseRequestLine: unknown direction \"" + name +
                          "\"");
}

std::string DuplicationName(DuplicationMode mode) {
  return mode == DuplicationMode::kVirtualChannel ? "virtual_channel"
                                                  : "physical_link";
}

DuplicationMode ParseDuplication(const std::string& name) {
  if (name == "virtual_channel") {
    return DuplicationMode::kVirtualChannel;
  }
  if (name == "physical_link") {
    return DuplicationMode::kPhysicalLink;
  }
  throw InvalidModelError("ParseRequestLine: unknown duplication \"" + name +
                          "\"");
}

RemovalOptions ParseOptions(const JsonValue& json) {
  RemovalOptions options;
  if (const JsonValue* value = json.Find("cycle_policy")) {
    options.cycle_policy = ParseCyclePolicy(value->AsString());
  }
  if (const JsonValue* value = json.Find("direction")) {
    options.direction_policy = ParseDirection(value->AsString());
  }
  if (const JsonValue* value = json.Find("duplication")) {
    options.duplication = ParseDuplication(value->AsString());
  }
  if (const JsonValue* value = json.Find("max_iterations")) {
    options.max_iterations = value->AsUint();
  }
  return options;
}

/// The "options" object ParseOptions reads back, every field explicit.
std::string OptionsToJson(const RemovalOptions& options) {
  JsonObject json;
  json.Set("cycle_policy", CyclePolicyName(options.cycle_policy))
      .Set("direction", DirectionName(options.direction_policy))
      .Set("duplication", DuplicationName(options.duplication))
      .Set("max_iterations", options.max_iterations);
  return json.Dump();
}

gen::GeneratorSpec ParseGenerator(const JsonValue& json) {
  gen::GeneratorSpec spec;
  const std::string family_name = json.At("family").AsString();
  const auto family = gen::ParseFamily(family_name);
  Require(family.has_value(),
          "ParseRequestLine: unknown generator family \"", family_name,
          "\"");
  spec.family = *family;
  const auto size_field = [&](const char* key, std::size_t* target) {
    if (const JsonValue* value = json.Find(key)) {
      *target = value->AsUint();
    }
  };
  size_field("width", &spec.width);
  size_field("height", &spec.height);
  size_field("ring_nodes", &spec.ring_nodes);
  size_field("tree_arity", &spec.tree_arity);
  size_field("tree_levels", &spec.tree_levels);
  size_field("tree_uplinks", &spec.tree_uplinks);
  size_field("cores_per_switch", &spec.cores_per_switch);
  size_field("uniform_fanout", &spec.uniform_fanout);
  if (const JsonValue* value = json.Find("pattern")) {
    const std::string pattern_name = value->AsString();
    const auto pattern = gen::ParsePattern(pattern_name);
    Require(pattern.has_value(),
            "ParseRequestLine: unknown traffic pattern \"", pattern_name,
            "\"");
    spec.pattern = *pattern;
  }
  if (const JsonValue* value = json.Find("hotspot_fraction")) {
    spec.hotspot_fraction = value->AsDouble();
  }
  if (const JsonValue* value = json.Find("min_bandwidth")) {
    spec.min_bandwidth = value->AsDouble();
  }
  if (const JsonValue* value = json.Find("max_bandwidth")) {
    spec.max_bandwidth = value->AsDouble();
  }
  if (const JsonValue* value = json.Find("seed")) {
    spec.seed = value->AsUint();
  }
  return spec;
}

/// One CacheStats as one JSON object — the same shape for every tier
/// (front memo, memory, disk), zeros included, so clients never probe
/// for optional fields.
JsonObject CacheStatsToJson(const CacheStats& stats) {
  JsonObject json;
  json.Set("hits", stats.hits)
      .Set("misses", stats.misses)
      .Set("insertions", stats.insertions)
      .Set("evictions", stats.evictions)
      .Set("oversize_rejections", stats.oversize_rejections)
      .Set("promotions", stats.promotions)
      .Set("demotions", stats.demotions)
      .Set("corrupt_skipped", stats.corrupt_skipped)
      .Set("entries", stats.entries)
      .Set("bytes", stats.bytes);
  return json;
}

/// The {"code":...,"message":...} object every failure response embeds.
JsonObject ErrorToJson(const ErrorInfo& error) {
  JsonObject json;
  json.Set("code", ErrorCodeName(error.code)).Set("message", error.message);
  return json;
}

JsonObject GeneratorToJson(const gen::GeneratorSpec& spec) {
  JsonObject json;
  json.Set("family", gen::FamilyName(spec.family))
      .Set("width", spec.width)
      .Set("height", spec.height)
      .Set("ring_nodes", spec.ring_nodes)
      .Set("tree_arity", spec.tree_arity)
      .Set("tree_levels", spec.tree_levels)
      .Set("tree_uplinks", spec.tree_uplinks)
      .Set("cores_per_switch", spec.cores_per_switch)
      .Set("pattern", gen::PatternName(spec.pattern))
      .Set("uniform_fanout", spec.uniform_fanout)
      .Set("hotspot_fraction", spec.hotspot_fraction)
      .Set("min_bandwidth", spec.min_bandwidth)
      .Set("max_bandwidth", spec.max_bandwidth)
      .Set("seed", spec.seed);
  return json;
}

/// The design-naming block shared by v1/v2 certify and session_open: a
/// message names exactly one of "design", "generator" or "source".
void ParseDesignSpec(const JsonValue& json, DesignSpec& spec) {
  int source_fields = 0;
  if (const JsonValue* value = json.Find("design")) {
    spec.kind = RequestKind::kDesignText;
    spec.design_text = value->AsString();
    ++source_fields;
  }
  if (const JsonValue* value = json.Find("generator")) {
    spec.kind = RequestKind::kGeneratorSpec;
    spec.generator = ParseGenerator(*value);
    ++source_fields;
  }
  if (const JsonValue* value = json.Find("source")) {
    spec.kind = RequestKind::kSourceSeed;
    const std::string source_name = value->AsString();
    const auto source = valid::ParseSource(source_name);
    Require(source.has_value(), "ParseRequestLine: unknown design source \"",
            source_name, "\"");
    spec.source = *source;
    spec.seed = json.At("seed").AsUint();
    ++source_fields;
  }
  Require(source_fields == 1,
          "ParseRequestLine: a request needs exactly one of \"design\", "
          "\"generator\" or \"source\"");
}

/// Renders the design-naming block (inverse of ParseDesignSpec).
void DesignSpecToJson(const DesignSpec& spec, JsonObject& json) {
  switch (spec.kind) {
    case RequestKind::kDesignText:
      json.Set("design", spec.design_text);
      break;
    case RequestKind::kGeneratorSpec:
      json.SetRaw("generator", GeneratorToJson(spec.generator).Dump());
      break;
    case RequestKind::kSourceSeed:
      json.Set("source", valid::SourceName(spec.source))
          .Set("seed", spec.seed);
      break;
  }
}

CertRequest ParseCertify(const JsonValue& json, int protocol_version) {
  CertRequest request;
  request.protocol_version = protocol_version;
  if (const JsonValue* value = json.Find("id")) {
    request.id = value->AsString();
  }
  ParseDesignSpec(json, request);
  if (const JsonValue* value = json.Find("options")) {
    request.options = ParseOptions(*value);
  }
  if (const JsonValue* value = json.Find("treat")) {
    request.treat = value->AsBool();
  }
  if (const JsonValue* value = json.Find("return_design")) {
    request.return_design = value->AsBool();
  }
  if (const JsonValue* value = json.Find("class")) {
    request.priority_class = value->AsString();
  }
  return request;
}

SessionEventSpec ParseEvent(const JsonValue& json) {
  SessionEventSpec event;
  const std::string kind = json.At("kind").AsString();
  if (kind == "link") {
    event.kind = fault::FaultKind::kLink;
    event.src = json.At("src").AsString();
    event.dst = json.At("dst").AsString();
  } else if (kind == "switch") {
    event.kind = fault::FaultKind::kSwitch;
    event.switch_name = json.At("switch").AsString();
  } else {
    throw ProtocolError(ErrorCode::kInvalidRequest,
                        "ParseMessageLine: unknown event kind \"" + kind +
                            "\" (want \"link\" or \"switch\")");
  }
  return event;
}

SessionRequest ParseSession(const JsonValue& json, SessionOp op,
                            int protocol_version) {
  SessionRequest request;
  request.protocol_version = protocol_version;
  request.op = op;
  if (const JsonValue* value = json.Find("id")) {
    request.id = value->AsString();
  }
  if (op == SessionOp::kOpen) {
    ParseDesignSpec(json, request.spec);
    if (const JsonValue* value = json.Find("options")) {
      request.options = ParseOptions(*value);
    }
  } else {
    request.session_id = json.At("session").AsString();
  }
  if (op == SessionOp::kBurst) {
    if (const JsonValue* value = json.Find("expect_epoch")) {
      request.has_expect_epoch = true;
      request.expect_epoch = value->AsUint();
    }
    for (const JsonValue& item : json.At("events").Items()) {
      request.events.push_back(ParseEvent(item));
    }
  }
  if (const JsonValue* value = json.Find("return_design")) {
    request.return_design = value->AsBool();
  }
  return request;
}

int ParseVersion(const JsonValue& json) {
  const JsonValue* value = json.Find("protocol_version");
  if (value == nullptr) {
    return kProtocolV1;
  }
  const std::uint64_t version = value->AsUint();
  if (version != static_cast<std::uint64_t>(kProtocolV1) &&
      version != static_cast<std::uint64_t>(kProtocolV2)) {
    throw ProtocolError(ErrorCode::kUnsupportedVersion,
                        "this server speaks protocol versions 1 and 2, not " +
                            std::to_string(version));
  }
  return static_cast<int>(version);
}

ServeMessage ParseMessageInner(const std::string& line) {
  const JsonValue json = JsonValue::Parse(line);
  const int version = ParseVersion(json);
  const JsonValue* type_value = json.Find("type");
  ServeMessage message;
  if (version == kProtocolV1) {
    Require(type_value == nullptr,
            "ParseMessageLine: \"type\" requires \"protocol_version\":2");
    message.certify = ParseCertify(json, version);
    return message;
  }
  const std::string type =
      type_value == nullptr ? "certify" : type_value->AsString();
  if (type == "certify") {
    message.certify = ParseCertify(json, version);
    return message;
  }
  if (type == "stats") {
    message.is_stats = true;
    message.stats.protocol_version = version;
    if (const JsonValue* value = json.Find("id")) {
      message.stats.id = value->AsString();
    }
    return message;
  }
  if (type == "metrics") {
    message.is_metrics = true;
    message.metrics.protocol_version = version;
    if (const JsonValue* value = json.Find("id")) {
      message.metrics.id = value->AsString();
    }
    return message;
  }
  message.is_session = true;
  if (type == "session_open") {
    message.session = ParseSession(json, SessionOp::kOpen, version);
  } else if (type == "fault_burst") {
    message.session = ParseSession(json, SessionOp::kBurst, version);
  } else if (type == "session_snapshot") {
    message.session = ParseSession(json, SessionOp::kSnapshot, version);
  } else if (type == "session_close") {
    message.session = ParseSession(json, SessionOp::kClose, version);
  } else {
    throw ProtocolError(ErrorCode::kUnknownType,
                        "unknown v2 message type \"" + type + "\"");
  }
  return message;
}

}  // namespace

ServeMessage ParseMessageLine(const std::string& line) {
  try {
    return ParseMessageInner(line);
  } catch (const ProtocolError&) {
    throw;
  } catch (const std::exception& e) {
    throw ProtocolError(ErrorCode::kInvalidRequest, e.what());
  }
}

CertRequest ParseRequestLine(const std::string& line) {
  ServeMessage message = ParseMessageLine(line);
  if (message.is_session) {
    throw ProtocolError(
        ErrorCode::kInvalidRequest,
        "ParseRequestLine: a session message needs ParseMessageLine");
  }
  return message.certify;
}

std::string RequestToJsonLine(const CertRequest& request) {
  JsonObject json;
  json.Set("protocol_version", request.protocol_version);
  if (request.protocol_version >= kProtocolV2) {
    json.Set("type", "certify");
  }
  if (!request.id.empty()) {
    json.Set("id", request.id);
  }
  DesignSpecToJson(request, json);
  json.SetRaw("options", OptionsToJson(request.options));
  json.Set("treat", request.treat).Set("return_design", request.return_design);
  if (!request.priority_class.empty()) {
    json.Set("class", request.priority_class);
  }
  return json.Dump();
}

std::string StatusName(ServeStatus status) {
  switch (status) {
    case ServeStatus::kOk:
      return "ok";
    case ServeStatus::kOverloaded:
      return "overloaded";
    case ServeStatus::kError:
      return "error";
  }
  return "unknown";
}

std::string CacheOutcomeName(CacheOutcome outcome) {
  switch (outcome) {
    case CacheOutcome::kHit:
      return "hit";
    case CacheOutcome::kComputed:
      return "computed";
    case CacheOutcome::kCoalesced:
      return "coalesced";
    case CacheOutcome::kNone:
      return "none";
  }
  return "unknown";
}

std::string ResponseToJsonLine(const CertResponse& response) {
  JsonObject json;
  json.Set("protocol_version", response.protocol_version);
  if (!response.id.empty()) {
    json.Set("id", response.id);
  }
  json.Set("status", StatusName(response.status));
  if (response.status != ServeStatus::kOk) {
    json.SetRaw("error", ErrorToJson(response.error).Dump());
    json.Set("cache", CacheOutcomeName(response.cache_outcome))
        .Set("service_ms", response.service_ms);
    return json.Dump();
  }
  json.Set("key", response.key)
      .Set("deadlock_free", response.deadlock_free)
      .Set("initially_deadlock_free", response.initially_deadlock_free)
      .SetRaw("certificate", response.certificate_json)
      .Set("channels_before", response.channels_before)
      .Set("channels_after", response.channels_after)
      .Set("vcs_added", response.vcs_added)
      .Set("iterations", response.iterations)
      .Set("flows_rerouted", response.flows_rerouted);
  if (!response.treated_design_text.empty()) {
    json.Set("design", response.treated_design_text);
  }
  json.Set("cache", CacheOutcomeName(response.cache_outcome))
      .Set("service_ms", response.service_ms);
  return json.Dump();
}

std::string SessionOpName(SessionOp op) {
  switch (op) {
    case SessionOp::kOpen:
      return "session_open";
    case SessionOp::kBurst:
      return "fault_burst";
    case SessionOp::kSnapshot:
      return "session_snapshot";
    case SessionOp::kClose:
      return "session_close";
  }
  return "unknown";
}

ErrorCode ParseErrorCode(const std::string& name) {
  for (const ErrorCode code :
       {ErrorCode::kNone, ErrorCode::kInvalidRequest,
        ErrorCode::kUnsupportedVersion, ErrorCode::kUnknownType,
        ErrorCode::kUnknownSession, ErrorCode::kStaleEpoch,
        ErrorCode::kSessionLimit, ErrorCode::kOverloaded,
        ErrorCode::kComputeFailed, ErrorCode::kInternal}) {
    if (ErrorCodeName(code) == name) {
      return code;
    }
  }
  throw ProtocolError(ErrorCode::kInvalidRequest,
                      "unknown error code \"" + name + "\"");
}

std::string SessionRequestToJsonLine(const SessionRequest& request) {
  JsonObject json;
  json.Set("protocol_version", request.protocol_version)
      .Set("type", SessionOpName(request.op));
  if (!request.id.empty()) {
    json.Set("id", request.id);
  }
  if (request.op == SessionOp::kOpen) {
    DesignSpecToJson(request.spec, json);
    json.SetRaw("options", OptionsToJson(request.options));
  } else {
    json.Set("session", request.session_id);
  }
  if (request.op == SessionOp::kBurst) {
    if (request.has_expect_epoch) {
      json.Set("expect_epoch", request.expect_epoch);
    }
    std::string events = "[";
    for (std::size_t i = 0; i < request.events.size(); ++i) {
      const SessionEventSpec& event = request.events[i];
      JsonObject item;
      if (event.kind == fault::FaultKind::kLink) {
        item.Set("kind", "link").Set("src", event.src).Set("dst", event.dst);
      } else {
        item.Set("kind", "switch").Set("switch", event.switch_name);
      }
      if (i != 0) {
        events += ",";
      }
      events += item.Dump();
    }
    events += "]";
    json.SetRaw("events", events);
  }
  if (request.op == SessionOp::kOpen || request.op == SessionOp::kBurst) {
    json.Set("return_design", request.return_design);
  }
  return json.Dump();
}

std::string SessionResponseToJsonLine(const SessionResponse& response) {
  JsonObject json;
  json.Set("protocol_version", response.protocol_version)
      .Set("type", SessionOpName(response.op));
  if (!response.id.empty()) {
    json.Set("id", response.id);
  }
  if (!response.session_id.empty()) {
    json.Set("session", response.session_id);
  }
  json.Set("status", StatusName(response.status));
  if (response.status != ServeStatus::kOk) {
    json.SetRaw("error", ErrorToJson(response.error).Dump());
    if (response.error.code == ErrorCode::kStaleEpoch) {
      // The one error that carries state: the session's actual epoch,
      // so an optimistic client can resync without a snapshot.
      json.Set("epoch", response.epoch);
    }
    json.Set("service_ms", response.service_ms);
    return json.Dump();
  }
  json.Set("epoch", response.epoch);
  if (response.op == SessionOp::kBurst) {
    json.Set("feasible", response.feasible);
    if (!response.feasible) {
      std::string flows = "[";
      for (std::size_t i = 0; i < response.disconnected_flows.size(); ++i) {
        if (i != 0) {
          flows += ",";
        }
        flows += std::to_string(response.disconnected_flows[i]);
      }
      flows += "]";
      json.SetRaw("disconnected_flows", flows);
    }
    json.Set("affected_flows", response.affected_flows)
        .Set("table_detours", response.table_detours)
        .Set("ripup_reroutes", response.ripup_reroutes);
  }
  if (response.op == SessionOp::kOpen || response.op == SessionOp::kBurst) {
    json.Set("removal_iterations", response.removal_iterations)
        .Set("vcs_added", response.vcs_added)
        .Set("flows_rerouted", response.flows_rerouted);
  }
  if (response.op != SessionOp::kClose) {
    json.Set("channels", response.channels)
        .Set("key", response.key)
        .Set("deadlock_free", response.deadlock_free);
    if (!response.certificate_json.empty()) {
      json.SetRaw("certificate", response.certificate_json);
    }
  }
  if (!response.design_text.empty()) {
    json.Set("design", response.design_text);
  }
  if (response.op == SessionOp::kSnapshot || response.op == SessionOp::kClose) {
    json.Set("failed_links", response.failed_links)
        .Set("failed_switches", response.failed_switches)
        .Set("bursts_applied", response.bursts_applied);
  }
  if (response.op == SessionOp::kOpen) {
    json.Set("cache", CacheOutcomeName(response.cache_outcome));
  }
  json.Set("service_ms", response.service_ms);
  return json.Dump();
}

std::string StatsRequestToJsonLine(const StatsRequest& request) {
  JsonObject json;
  json.Set("protocol_version", request.protocol_version).Set("type", "stats");
  if (!request.id.empty()) {
    json.Set("id", request.id);
  }
  return json.Dump();
}

std::string StatsResponseToJsonLine(const StatsRequest& request,
                                    const ServiceStats& service_stats,
                                    const SessionServiceStats& session_stats) {
  JsonObject json;
  json.Set("protocol_version", request.protocol_version).Set("type", "stats");
  if (!request.id.empty()) {
    json.Set("id", request.id);
  }
  json.Set("status", StatusName(ServeStatus::kOk))
      .SetRaw("provenance", BuildProvenanceJson().Dump())
      .Set("requests", service_stats.requests)
      .Set("hits", service_stats.hits)
      .Set("computations", service_stats.computations)
      .Set("coalesced", service_stats.coalesced)
      .Set("rejected", service_stats.rejected)
      .Set("errors", service_stats.errors)
      .Set("pool_backlog", service_stats.pool_backlog)
      .SetRaw("front", CacheStatsToJson(service_stats.front).Dump())
      .SetRaw("cache", CacheStatsToJson(service_stats.cache).Dump())
      .SetRaw("disk", CacheStatsToJson(service_stats.disk).Dump());
  JsonObject sessions;
  sessions.Set("opened", session_stats.opened)
      .Set("closed", session_stats.closed)
      .Set("open_rejected", session_stats.open_rejected)
      .Set("bursts_applied", session_stats.bursts_applied)
      .Set("bursts_infeasible", session_stats.bursts_infeasible)
      .Set("epochs_served", session_stats.epochs_served)
      .Set("errors", session_stats.errors)
      .Set("live", session_stats.live_sessions);
  json.SetRaw("sessions", sessions.Dump());
  std::string classes = "[";
  bool first = true;
  for (const sched::ClassCounters& c : service_stats.admission_classes) {
    JsonObject item;
    item.Set("name", c.name)
        .Set("rank", c.rank)
        .Set("requests", c.requests)
        .Set("admitted", c.admitted)
        .Set("rejected", c.rejected)
        .Set("cost_admitted", c.cost_admitted);
    if (!first) {
      classes += ",";
    }
    first = false;
    classes += item.Dump();
  }
  classes += "]";
  json.SetRaw("admission_classes", classes);
  return json.Dump();
}

std::string StatsTextFromJson(const std::string& response_line,
                              const std::string& prefix) {
  JsonValue json;
  try {
    json = JsonValue::Parse(response_line);
  } catch (const std::exception& e) {
    throw ProtocolError(ErrorCode::kInvalidRequest, e.what());
  }
  try {
    const JsonValue* type = json.Find("type");
    if (type == nullptr || type->AsString() != "stats") {
      throw ProtocolError(ErrorCode::kInvalidRequest,
                          "StatsTextFromJson: not a stats response line");
    }
    const auto u = [&](const JsonValue& node, const char* key) {
      return node.At(key).AsUint();
    };
    std::string text;
    text += prefix + std::to_string(u(json, "requests")) + " requests: " +
            std::to_string(u(json, "hits")) + " hits, " +
            std::to_string(u(json, "computations")) + " computed, " +
            std::to_string(u(json, "coalesced")) + " coalesced, " +
            std::to_string(u(json, "rejected")) + " rejected, " +
            std::to_string(u(json, "errors")) + " errors\n";
    const auto tier = [&](const char* key, const char* label) {
      const JsonValue& node = json.At(key);
      std::string line = prefix + std::string(label) + ": " +
                         std::to_string(u(node, "entries")) + " entries / " +
                         std::to_string(u(node, "bytes")) + " bytes, " +
                         std::to_string(u(node, "hits")) + " hits, " +
                         std::to_string(u(node, "insertions")) +
                         " insertions, " +
                         std::to_string(u(node, "evictions")) + " evictions";
      if (u(node, "promotions") != 0 || u(node, "demotions") != 0) {
        line += ", " + std::to_string(u(node, "promotions")) +
                " promotions, " + std::to_string(u(node, "demotions")) +
                " demotions";
      }
      if (u(node, "corrupt_skipped") != 0) {
        line += ", " + std::to_string(u(node, "corrupt_skipped")) +
                " corrupt skipped";
      }
      return line + "\n";
    };
    text += tier("front", "front memo");
    text += tier("cache", "cache");
    text += tier("disk", "disk");
    const JsonValue& sessions = json.At("sessions");
    text += prefix + "sessions: " + std::to_string(u(sessions, "opened")) +
            " opened, " + std::to_string(u(sessions, "closed")) + " closed, " +
            std::to_string(u(sessions, "live")) + " live, " +
            std::to_string(u(sessions, "open_rejected")) + " rejected, " +
            std::to_string(u(sessions, "bursts_applied")) +
            " bursts applied, " +
            std::to_string(u(sessions, "bursts_infeasible")) +
            " infeasible, " + std::to_string(u(sessions, "epochs_served")) +
            " epochs served, " + std::to_string(u(sessions, "errors")) +
            " errors\n";
    for (const JsonValue& c : json.At("admission_classes").Items()) {
      if (u(c, "requests") == 0) {
        continue;  // configured but never used
      }
      text += prefix + "class " + c.At("name").AsString() + ": rank " +
              std::to_string(c.At("rank").AsUint()) + ", " +
              std::to_string(u(c, "requests")) + " requests, " +
              std::to_string(u(c, "admitted")) + " admitted, " +
              std::to_string(u(c, "rejected")) + " rejected, " +
              std::to_string(u(c, "cost_admitted")) + " cost units admitted\n";
    }
    return text;
  } catch (const ProtocolError&) {
    throw;
  } catch (const std::exception& e) {
    throw ProtocolError(ErrorCode::kInvalidRequest, e.what());
  }
}

std::string MetricsRequestToJsonLine(const MetricsRequest& request) {
  JsonObject json;
  json.Set("protocol_version", request.protocol_version)
      .Set("type", "metrics");
  if (!request.id.empty()) {
    json.Set("id", request.id);
  }
  return json.Dump();
}

std::string MetricsResponseToJsonLine(const MetricsRequest& request,
                                      const obs::MetricsSnapshot& snapshot) {
  JsonObject json;
  json.Set("protocol_version", request.protocol_version)
      .Set("type", "metrics");
  if (!request.id.empty()) {
    json.Set("id", request.id);
  }
  json.Set("status", StatusName(ServeStatus::kOk))
      .SetRaw("provenance", BuildProvenanceJson().Dump())
      .SetRaw("counters", obs::CountersToJson(snapshot).Dump())
      .SetRaw("histograms", obs::HistogramsToJson(snapshot).Dump());
  return json.Dump();
}

std::string MetricsTextFromJson(const std::string& response_line,
                                const std::string& prefix) {
  JsonValue json;
  try {
    json = JsonValue::Parse(response_line);
  } catch (const std::exception& e) {
    throw ProtocolError(ErrorCode::kInvalidRequest, e.what());
  }
  try {
    const JsonValue* type = json.Find("type");
    if (type == nullptr || type->AsString() != "metrics") {
      throw ProtocolError(ErrorCode::kInvalidRequest,
                          "MetricsTextFromJson: not a metrics response line");
    }
    std::string text;
    const JsonValue& provenance = json.At("provenance");
    text += prefix + "build " + provenance.At("git_sha").AsString() + " (" +
            provenance.At("compiler").AsString() + ")\n";
    for (const auto& [name, value] : json.At("counters").Members()) {
      text += prefix + "counter " + name + " = " +
              std::to_string(value.AsUint()) + "\n";
    }
    for (const auto& [name, histogram] : json.At("histograms").Members()) {
      const std::uint64_t count = histogram.At("count").AsUint();
      const std::uint64_t sum = histogram.At("sum").AsUint();
      // Reconstruct quantile bounds from the [le, count] pairs — the
      // same arithmetic as HistogramSnapshot::Quantile, but over the
      // wire shape, so this text is honest about what a remote
      // consumer of the JSON can know.
      const auto bound = [&](double q) -> std::uint64_t {
        const auto want = static_cast<std::uint64_t>(
            q * static_cast<double>(count) + 0.999999);
        std::uint64_t seen = 0;
        std::uint64_t last = 0;
        for (const JsonValue& pair : histogram.At("buckets").Items()) {
          last = pair.Items().at(0).AsUint();
          seen += pair.Items().at(1).AsUint();
          if (seen >= want) {
            return last;
          }
        }
        return last;
      };
      text += prefix + name + ": " + std::to_string(count) + " samples, sum " +
              std::to_string(sum);
      if (count > 0) {
        text += ", p50 <= " + std::to_string(bound(0.5)) + ", p99 <= " +
                std::to_string(bound(0.99));
      }
      text += "\n";
    }
    return text;
  } catch (const ProtocolError&) {
    throw;
  } catch (const std::exception& e) {
    throw ProtocolError(ErrorCode::kInvalidRequest, e.what());
  }
}

std::string ErrorResponseLine(int protocol_version, const std::string& id,
                              ErrorCode code, const std::string& message) {
  JsonObject json;
  json.Set("protocol_version", protocol_version);
  if (!id.empty()) {
    json.Set("id", id);
  }
  json.Set("status", StatusName(ServeStatus::kError));
  json.SetRaw("error", ErrorToJson(ErrorInfo{code, message}).Dump());
  return json.Dump();
}

std::string ServeDispatcher::Handle(const ServeMessage& message) {
  if (message.is_stats) {
    return StatsResponseToJsonLine(message.stats, service_.Stats(),
                                   sessions_.Stats());
  }
  if (message.is_metrics) {
    return MetricsResponseToJsonLine(message.metrics,
                                     obs::Metrics().Snapshot());
  }
  if (message.is_session) {
    return SessionResponseToJsonLine(sessions_.Handle(message.session));
  }
  return ResponseToJsonLine(service_.Serve(message.certify));
}

std::string ServeDispatcher::HandleLine(const std::string& line) {
  try {
    return Handle(ParseMessageLine(line));
  } catch (const ProtocolError& e) {
    // Best-effort echo of version and id so the client can correlate
    // the failure; the line may be arbitrarily malformed.
    int version = kProtocolV1;
    std::string id;
    try {
      const JsonValue json = JsonValue::Parse(line);
      if (const JsonValue* value = json.Find("protocol_version")) {
        const std::uint64_t v = value->AsUint();
        if (v == static_cast<std::uint64_t>(kProtocolV2)) {
          version = kProtocolV2;
        }
      }
      if (const JsonValue* value = json.Find("id")) {
        id = value->AsString();
      }
    } catch (const std::exception&) {
      // Unparseable line: v1, no id.
    }
    return ErrorResponseLine(version, id, e.code(), e.what());
  } catch (const std::exception& e) {
    return ErrorResponseLine(kProtocolV1, "", ErrorCode::kInternal, e.what());
  }
}

}  // namespace nocdr::serve
