#include "serve/service.h"

#include <chrono>
#include <cstdio>
#include <cstring>
#include <utility>

#include "cdg/cdg.h"
#include "cdg/incremental.h"
#include "deadlock/verify.h"
#include "noc/io.h"
#include "obs/metrics.h"
#include "runner/parallel_map.h"
#include "serve/protocol.h"
#include "util/canonical.h"
#include "util/clock.h"
#include "util/digest.h"
#include "util/error.h"

namespace nocdr::serve {

namespace {

/// The serve-layer instruments, registered once (references stay valid
/// for the process lifetime; see obs/metrics.h). Serve sections are
/// timed into these histograms only — no spans: they sit on
/// schedule-dependent paths (a repeat may hit the memo or coalesce
/// depending on interleaving), and request traces must stay
/// byte-deterministic.
struct ServeInstruments {
  obs::Histogram& request_us = obs::Metrics().GetHistogram("serve.request_us");
  obs::Histogram& hit_us = obs::Metrics().GetHistogram("serve.hit_us");
  obs::Histogram& compute_us =
      obs::Metrics().GetHistogram("serve.compute_us");
  obs::Histogram& coalesced_us =
      obs::Metrics().GetHistogram("serve.coalesced_us");
  obs::Histogram& materialize_us =
      obs::Metrics().GetHistogram("serve.materialize_us");
  obs::Histogram& canonicalize_us =
      obs::Metrics().GetHistogram("serve.canonicalize_us");
  obs::Histogram& cache_lookup_us =
      obs::Metrics().GetHistogram("serve.cache_lookup_us");
  obs::Histogram& coalesce_wait_us =
      obs::Metrics().GetHistogram("serve.coalesce_wait_us");
};

ServeInstruments& Instruments() {
  static ServeInstruments* instruments = new ServeInstruments();
  return *instruments;
}

/// Total request latency plus the per-outcome split. Outcome histograms
/// are deliberately schedule-dependent (the same request can hit,
/// compute or coalesce depending on interleaving) — that is the point:
/// they show what the traffic actually experienced.
void RecordRequestMetrics(const CertResponse& response) {
  ServeInstruments& instruments = Instruments();
  const auto us = static_cast<std::uint64_t>(response.service_ms * 1000.0);
  instruments.request_us.Record(us);
  switch (response.cache_outcome) {
    case CacheOutcome::kHit:
      instruments.hit_us.Record(us);
      break;
    case CacheOutcome::kComputed:
      instruments.compute_us.Record(us);
      break;
    case CacheOutcome::kCoalesced:
      instruments.coalesced_us.Record(us);
      break;
    case CacheOutcome::kNone:
      break;
  }
}

/// Trace id of the computation for canonical digest \p key: "k" + 16
/// hex digits. One computation trace exists per unique key (the
/// coalescer computes each key exactly once while no eviction
/// interferes), so the set of computation traces — and each one's span
/// tree — is deterministic even though *which* request triggered the
/// computation is not.
std::string KeyTraceId(std::uint64_t key) {
  char buf[20];
  std::snprintf(buf, sizeof(buf), "k%016llx",
                static_cast<unsigned long long>(key));
  return buf;
}

/// Encoding of every semantically relevant option (the fields
/// CanonicalDesignDigest covers); appended to both cache key texts.
std::string OptionsKeySuffix(const CertRequest& request) {
  return "#options cycle=" +
         std::to_string(static_cast<int>(request.options.cycle_policy)) +
         " direction=" +
         std::to_string(static_cast<int>(request.options.direction_policy)) +
         " duplication=" +
         std::to_string(static_cast<int>(request.options.duplication)) +
         " max_iterations=" +
         std::to_string(request.options.max_iterations) +
         " treat=" + (request.treat ? "1" : "0");
}

/// Full collision-proof cache key: the canonical design text plus an
/// encoding of every option the digest covers. Two keys are the same
/// certification problem iff their texts compare equal, so a 64-bit
/// digest collision can only ever degrade to a miss.
std::string CacheKeyText(std::string canonical_text,
                         const CertRequest& request) {
  return std::move(canonical_text) + OptionsKeySuffix(request);
}

/// Renders the exact bit pattern of \p value — injective, unlike any
/// fixed-precision decimal rendering (two specs differing in the last
/// ulp must not collide in the front memo: a fingerprint collision
/// would serve the wrong certificate).
std::string DoubleBits(double value) {
  std::uint64_t bits = 0;
  static_assert(sizeof(bits) == sizeof(value));
  std::memcpy(&bits, &value, sizeof(bits));
  return std::to_string(bits);
}

/// Exact-bytes identity of a request for the front memo: the raw design
/// source fields plus the options suffix. Unlike the canonical key this
/// is representation-sensitive by design — it exists so an exact repeat
/// can skip canonicalization; distinct renderings of the same problem
/// simply take the full path once each and converge on one canonical
/// entry.
std::string FingerprintText(const CertRequest& request) {
  std::string fp;
  switch (request.kind) {
    case RequestKind::kDesignText:
      fp = "design\x1f" + request.design_text;
      break;
    case RequestKind::kGeneratorSpec: {
      const gen::GeneratorSpec& g = request.generator;
      fp = "generator\x1f" + std::to_string(static_cast<int>(g.family)) +
           " " + std::to_string(g.width) + " " + std::to_string(g.height) +
           " " + std::to_string(g.ring_nodes) + " " +
           std::to_string(g.tree_arity) + " " +
           std::to_string(g.tree_levels) + " " +
           std::to_string(g.tree_uplinks) + " " +
           std::to_string(g.cores_per_switch) + " " +
           std::to_string(static_cast<int>(g.pattern)) + " " +
           std::to_string(g.uniform_fanout) + " " +
           DoubleBits(g.hotspot_fraction) + " " +
           DoubleBits(g.min_bandwidth) + " " + DoubleBits(g.max_bandwidth) +
           " " + std::to_string(g.seed);
      break;
    }
    case RequestKind::kSourceSeed:
      fp = "source\x1f" + valid::SourceName(request.source) + " " +
           std::to_string(request.seed);
      break;
  }
  return fp + OptionsKeySuffix(request);
}

std::uint64_t FingerprintDigest(const std::string& fingerprint) {
  std::uint64_t h = kFnvOffsetBasis;
  DigestField(h, fingerprint);
  return h;
}

/// Builds the persistent tier when the config names a directory; null
/// keeps the service memory-only. Compaction (when requested) runs
/// here, before the first request is served.
std::unique_ptr<DiskCache> MakeDiskTier(const ServiceConfig& config) {
  if (config.cache_dir.empty()) {
    return nullptr;
  }
  DiskCacheConfig disk_config;
  disk_config.directory = config.cache_dir;
  disk_config.max_bytes = config.disk_cache_bytes;
  auto disk = std::make_unique<DiskCache>(disk_config);
  if (config.cache_compact) {
    disk->Compact();
  }
  return disk;
}

void FillPayload(CertResponse& response, const CachedCertification& value,
                 const CertRequest& request) {
  response.status = ServeStatus::kOk;
  response.deadlock_free = value.deadlock_free;
  response.initially_deadlock_free = value.initially_deadlock_free;
  response.certificate_json = value.certificate_json;
  if (request.return_design) {
    response.treated_design_text = value.treated_design_text;
  }
  response.channels_before = value.channels_before;
  response.channels_after = value.channels_after;
  response.vcs_added = value.vcs_added;
  response.iterations = value.iterations;
  response.flows_rerouted = value.flows_rerouted;
}

}  // namespace

std::string ErrorCodeName(ErrorCode code) {
  switch (code) {
    case ErrorCode::kNone:
      return "none";
    case ErrorCode::kInvalidRequest:
      return "invalid_request";
    case ErrorCode::kUnsupportedVersion:
      return "unsupported_version";
    case ErrorCode::kUnknownType:
      return "unknown_type";
    case ErrorCode::kUnknownSession:
      return "unknown_session";
    case ErrorCode::kStaleEpoch:
      return "stale_epoch";
    case ErrorCode::kSessionLimit:
      return "session_limit";
    case ErrorCode::kOverloaded:
      return "overloaded";
    case ErrorCode::kComputeFailed:
      return "compute_failed";
    case ErrorCode::kInternal:
      return "internal";
  }
  return "unknown";
}

NocDesign MaterializeDesign(const DesignSpec& spec,
                            const valid::DesignEnvelope& envelope,
                            NextHopTable* table_out) {
  switch (spec.kind) {
    case RequestKind::kDesignText: {
      // Inline text carries routes but no next-hop table; fault detours
      // on such designs take the rip-up-and-reroute fallback.
      if (table_out != nullptr) {
        table_out->clear();
      }
      return ReadDesign(spec.design_text);
    }
    case RequestKind::kGeneratorSpec:
      return gen::GenerateStandardDesign(spec.generator, table_out);
    case RequestKind::kSourceSeed:
      return valid::GenerateTrialDesign(spec.source, spec.seed, envelope,
                                        table_out);
  }
  throw InvalidModelError("MaterializeDesign: unknown request kind");
}

namespace {

/// ComputeCertification's treat and certify steps on one CDG, which is
/// freed before the payload is rendered: removal keeps the graph it
/// treats in sync with the design, so certify reads it as it stands.
/// Fills \p out's removal fields when the request treats.
DeadlockCertificate TreatAndCertify(NocDesign& design,
                                    const CertRequest& request,
                                    CachedCertification& out) {
  ChannelDependencyGraph cdg;
  if (request.treat) {
    // The removal StageTimer (deadlock/removal.cpp) nests its
    // cycle_search/score/apply/invalidate stage spans under this one.
    obs::ScopedSpan span("treat");
    cdg = ChannelDependencyGraph::Build(design);
    DirtyCycleFinder finder(cdg);
    const RemovalReport report =
        RemoveDeadlocksOnCdg(design, cdg, finder, request.options);
    out.initially_deadlock_free = report.initially_deadlock_free;
    out.iterations = report.iterations;
    out.vcs_added = report.vcs_added;
    out.flows_rerouted = report.flows_rerouted;
    span.Attr("iterations", static_cast<std::uint64_t>(report.iterations));
    span.Attr("vcs_added", static_cast<std::uint64_t>(report.vcs_added));
  }
  obs::ScopedSpan span("certify");
  if (!request.treat) {
    cdg = ChannelDependencyGraph::Build(design);
  }
  // With no channel order this is CertifyDeadlockFreedom's certificate
  // byte for byte. CheckCertificate walks the routes and reads no CDG,
  // so a positive certificate is also checked by code that shares
  // nothing with the graph's upkeep; a failure is compute_failed.
  DeadlockCertificate certificate = CertifyFromCdg(design, cdg);
  Require(!certificate.deadlock_free || CheckCertificate(design, certificate),
          "ComputeCertification: the certificate fails CheckCertificate");
  return certificate;
}

}  // namespace

CachedCertification ComputeCertification(NocDesign treated,
                                         const CertRequest& request) {
  CachedCertification out;
  out.channels_before = treated.topology.ChannelCount();
  const DeadlockCertificate certificate =
      TreatAndCertify(treated, request, out);
  out.channels_after = treated.topology.ChannelCount();
  out.deadlock_free = certificate.deadlock_free;
  if (!request.treat) {
    out.initially_deadlock_free = certificate.deadlock_free;
  }
  {
    obs::ScopedSpan span("serialize");
    out.certificate_json = CertificateToJson(certificate);
    out.treated_design_text = DesignText(treated);
  }
  return out;
}

CertificationService::CertificationService(ServiceConfig config,
                                           Certifier certifier)
    : config_(config),
      certifier_(std::move(certifier)),
      cache_(config.cache, MakeDiskTier(config)),
      front_(config.front_cache),
      coalescer_(CoalescerConfig{config.max_pending}),
      admission_(config.admission),
      epoch_(std::chrono::steady_clock::now()) {
  if (!certifier_) {
    certifier_ = ComputeCertification;
  }
}

std::uint64_t CertificationService::NowUs() const {
  return static_cast<std::uint64_t>(
      std::chrono::duration_cast<std::chrono::microseconds>(
          std::chrono::steady_clock::now() - epoch_)
          .count());
}

CertResponse CertificationService::Fail(const CertRequest& request,
                                        CertResponse response, ErrorCode code,
                                        std::string message) {
  response.protocol_version = request.protocol_version;
  response.id = request.id;
  response.status = code == ErrorCode::kOverloaded ? ServeStatus::kOverloaded
                                                   : ServeStatus::kError;
  response.error = ErrorInfo{code, std::move(message)};
  std::lock_guard<std::mutex> lock(stats_mutex_);
  ++(code == ErrorCode::kOverloaded ? stats_.rejected : stats_.errors);
  return response;
}

CertResponse CertificationService::Guarded(
    const CertRequest& request, const std::function<CertResponse()>& inner) {
  const auto t0 = std::chrono::steady_clock::now();
  CertResponse response;
  // Request failures are responses, never escaping exceptions: Serve is
  // called from ServeBatch's workers (which must not throw) and from
  // long-lived server loops, and an injected test certifier (or an
  // allocation failure outside the inner try blocks) may throw types
  // the inner handlers don't cover.
  try {
    response = inner();
  } catch (const std::exception& e) {
    response = Fail(request, {}, ErrorCode::kInternal, e.what());
  } catch (...) {
    response = Fail(request, {}, ErrorCode::kInternal,
                    "unknown non-standard exception");
  }
  response.service_ms = MillisSince(t0);
  return response;
}

CertResponse CertificationService::Serve(const CertRequest& request) {
  // The request's root span. Only deterministic-payload attributes go
  // on it (id, status, key, error code) — never cache_outcome or
  // timings, which depend on interleaving and would break the
  // byte-identical-traces contract. Timing lives in the metrics
  // histograms below.
  obs::ScopedTrace trace(config_.trace, request.trace_id, "request");
  const CertResponse response =
      Guarded(request, [&] { return ServeInner(request); });
  RecordRequestMetrics(response);
  if (trace.active()) {
    trace.Attr("id", request.id);
    trace.Attr("status", StatusName(response.status));
    trace.Attr("key", response.key);
    if (!response.error.ok()) {
      trace.Attr("error", ErrorCodeName(response.error.code));
    }
  }
  return response;
}

CertResponse CertificationService::ServeDesign(NocDesign design,
                                               const CertRequest& request) {
  return Guarded(request, [&] {
    {
      std::lock_guard<std::mutex> lock(stats_mutex_);
      ++stats_.requests;
    }
    // No raw request bytes exist for an in-memory design, so there is
    // no fingerprint to memoize; the canonical cache still dedups.
    return ServeMaterialized(std::move(design), request, {}, 0);
  });
}

// ServeDesign deliberately opens no root trace of its own: its callers
// (sessions) either run under their message's trace — child spans nest
// there via the thread-local context — or pass an empty trace_id.

CertResponse CertificationService::ServeInner(const CertRequest& request) {
  CertResponse response;
  response.protocol_version = request.protocol_version;
  response.id = request.id;
  {
    std::lock_guard<std::mutex> lock(stats_mutex_);
    ++stats_.requests;
  }

  // Front fast path: an exact repeat of a request already resolved maps
  // straight to its canonical cache entry — no materialization, no
  // canonicalization. An FNV pass over the raw bytes plus two hash
  // lookups; this is what a warm hit costs.
  std::string fingerprint = FingerprintText(request);
  const std::uint64_t fingerprint_digest = FingerprintDigest(fingerprint);
  if (const auto target = front_.Lookup(fingerprint_digest, fingerprint)) {
    // Revalidate, not Lookup: if the canonical entry was evicted, the
    // full path below will count the one miss for this request.
    if (const auto hit = cache_.Revalidate(target->canonical_digest,
                                           target->canonical_key_text)) {
      response.key = target->canonical_digest;
      FillPayload(response, *hit, request);
      response.cache_outcome = CacheOutcome::kHit;
      std::lock_guard<std::mutex> lock(stats_mutex_);
      ++stats_.hits;
      return response;
    }
    // Canonical entry evicted since the memo was written; fall
    // through to the full path (which re-publishes it).
  }

  NocDesign design;
  try {
    obs::ScopedHistogramTimer timer(Instruments().materialize_us);
    design = MaterializeDesign(request, config_.envelope);
  } catch (const std::exception& e) {
    return Fail(request, std::move(response), ErrorCode::kInvalidRequest,
                e.what());
  }
  return ServeMaterialized(std::move(design), request, std::move(fingerprint),
                           fingerprint_digest);
}

CertResponse CertificationService::ServeMaterialized(
    NocDesign design, const CertRequest& request, std::string fingerprint,
    std::uint64_t fingerprint_digest) {
  CertResponse response;
  response.protocol_version = request.protocol_version;
  response.id = request.id;

  CanonicalDesign canonical;
  try {
    obs::ScopedHistogramTimer timer(Instruments().canonicalize_us);
    canonical = CanonicalizeDesign(design);
  } catch (const std::exception& e) {
    return Fail(request, std::move(response), ErrorCode::kInvalidRequest,
                e.what());
  }
  if (request.options.paranoid_validation) {
    // The text round trip CanonicalizeDesign replaced is its oracle:
    // rendered in canonical flow order and parsed back, it must give
    // the same text and the same design.
    Require(DesignText(design, CanonicalFlowOrder(design)) == canonical.text &&
                ReadDesign(canonical.text) == canonical.design,
            "ServeMaterialized: CanonicalizeDesign differs from the text "
            "round trip");
  }
  // The canonical design stands for the materialized one from here on.
  design = NocDesign();
  response.key =
      CanonicalTextDigest(canonical.text, request.options, request.treat);
  const std::string key_text =
      CacheKeyText(std::move(canonical.text), request);

  // Remember how this exact request resolves, so its next repeat takes
  // the front fast path. ServeDesign requests have no fingerprint.
  const auto publish_front = [&] {
    if (!fingerprint.empty()) {
      front_.Insert(fingerprint_digest, std::move(fingerprint),
                    FrontTarget{response.key, key_text});
    }
  };

  // Fast path: a sharded, counted lookup with no global serialization.
  decltype(cache_.Lookup(response.key, key_text)) lookup_hit;
  {
    obs::ScopedHistogramTimer timer(Instruments().cache_lookup_us);
    lookup_hit = cache_.Lookup(response.key, key_text);
  }
  if (lookup_hit) {
    FillPayload(response, *lookup_hit, request);
    response.cache_outcome = CacheOutcome::kHit;
    publish_front();
    std::lock_guard<std::mutex> lock(stats_mutex_);
    ++stats_.hits;
    return response;
  }

  // Token-budget admission sits in front of the coalescer, on misses
  // only: a hit costs no compute, so the fast paths above never charge
  // the budget. The rejection is the same structured "overloaded" shape
  // as an in-flight-bound rejection — clients cannot tell which policy
  // said no, and both speak v1 and v2 unchanged.
  if (!admission_.TryAdmit(request.priority_class,
                           sched::EstimateCost(canonical.design), NowUs())) {
    return Fail(request, std::move(response), ErrorCode::kOverloaded,
                "admission budget exhausted; retry later");
  }

  // Slow path: re-probe + single-flight under the coalescer lock. A
  // leader computes inside Submit, here on this thread, and treats the
  // canonical design in place; a follower waits for its leader.
  RequestCoalescer::Outcome outcome = coalescer_.Submit(
      response.key, key_text,
      [&]() -> std::optional<RequestCoalescer::Result> {
        if (const auto hit = cache_.Revalidate(response.key, key_text)) {
          return *hit;
        }
        return std::nullopt;
      },
      [&]() -> CachedCertification {
        // The computation's own trace, keyed by canonical digest — not
        // by requester. Detached from this request's trace context, so
        // ComputeCertification's treat/certify/serialize spans and the
        // removal stage spans nest under this root, or nowhere when the
        // service has no sink.
        obs::DetachedScope detached;
        obs::ScopedTrace trace(config_.trace, KeyTraceId(response.key),
                               "compute");
        trace.Attr("treat", static_cast<std::uint64_t>(request.treat));
        CachedCertification value =
            certifier_(std::move(canonical.design), request);
        trace.Attr("vcs_added", static_cast<std::uint64_t>(value.vcs_added));
        // Publish before the coalescer retires the in-flight entry — the
        // exactly-once-per-key argument lives on this ordering.
        cache_.Insert(response.key, key_text, value);
        return value;
      });

  switch (outcome.kind) {
    case RequestCoalescer::Outcome::Kind::kResolved: {
      FillPayload(response, *outcome.resolved, request);
      response.cache_outcome = CacheOutcome::kHit;
      publish_front();
      std::lock_guard<std::mutex> lock(stats_mutex_);
      ++stats_.hits;
      return response;
    }
    case RequestCoalescer::Outcome::Kind::kRejected:
      return Fail(request, std::move(response), ErrorCode::kOverloaded,
                  "admission bound full; retry later");
    case RequestCoalescer::Outcome::Kind::kLeader:
    case RequestCoalescer::Outcome::Kind::kFollower: {
      const bool leader =
          outcome.kind == RequestCoalescer::Outcome::Kind::kLeader;
      try {
        obs::ScopedHistogramTimer timer(Instruments().coalesce_wait_us);
        const CachedCertification& value = outcome.future.get();
        FillPayload(response, value, request);
        response.cache_outcome =
            leader ? CacheOutcome::kComputed : CacheOutcome::kCoalesced;
        publish_front();
        std::lock_guard<std::mutex> lock(stats_mutex_);
        ++(leader ? stats_.computations : stats_.coalesced);
      } catch (const std::exception& e) {
        return Fail(request, std::move(response), ErrorCode::kComputeFailed,
                    e.what());
      }
      return response;
    }
  }
  return response;
}

std::uint64_t CertificationService::Publish(const std::string& canonical_text,
                                            const CertRequest& request,
                                            CachedCertification value) {
  const std::uint64_t key =
      CanonicalTextDigest(canonical_text, request.options, request.treat);
  std::string key_text = CacheKeyText(canonical_text, request);
  if (cache_.Revalidate(key, key_text) == nullptr) {
    cache_.Insert(key, std::move(key_text), std::move(value));
  }
  return key;
}

std::vector<CertResponse> CertificationService::ServeBatch(
    const std::vector<CertRequest>& requests, std::size_t client_threads) {
  if (client_threads == 0) {
    client_threads = config_.threads;
  }
  return runner::ParallelMapIndexed<CertResponse>(
      requests.size(), client_threads,
      [&](std::size_t i) { return Serve(requests[i]); });
}

ServiceStats CertificationService::Stats() const {
  ServiceStats stats;
  {
    std::lock_guard<std::mutex> lock(stats_mutex_);
    stats = stats_;
  }
  stats.pool_backlog = coalescer_.Pending();
  stats.cache = cache_.Stats();
  stats.front = front_.Stats();
  stats.disk = cache_.DiskStats();
  stats.admission_classes = admission_.Counters();
  return stats;
}

std::uint64_t ResponseDigest(const std::vector<CertResponse>& responses) {
  std::uint64_t h = kFnvOffsetBasis;
  for (const CertResponse& response : responses) {
    DigestField(h, static_cast<std::uint64_t>(response.protocol_version));
    DigestField(h, response.id);
    DigestField(h, static_cast<std::uint64_t>(response.status));
    DigestField(h, static_cast<std::uint64_t>(response.error.code));
    DigestField(h, response.error.message);
    DigestField(h, response.key);
    DigestField(h, static_cast<std::uint64_t>(response.deadlock_free));
    DigestField(h,
                static_cast<std::uint64_t>(response.initially_deadlock_free));
    DigestField(h, response.certificate_json);
    DigestField(h, response.treated_design_text);
    DigestField(h, response.channels_before);
    DigestField(h, response.channels_after);
    DigestField(h, response.vcs_added);
    DigestField(h, response.iterations);
    DigestField(h, response.flows_rerouted);
  }
  return h;
}

}  // namespace nocdr::serve
