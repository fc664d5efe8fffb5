// CertificationService: the certify pipeline as a deterministic
// multi-client service.
//
// One request names a certification problem three ways — an inline
// noc/io design text, a standard-topology generator spec (src/gen), or
// a campaign design source + seed (src/valid) — plus the removal
// options to treat it with. The service materializes the design,
// canonicalizes it (util/canonical: the flow sort and link-major
// channels the text round trip gives, built with no parse and rendered
// once, so flow declaration order, comments and channel numbering never
// split the cache), and serves the certificate + VC-insertion result
// through a sharded LRU cache (serve/cert_cache) fronted by a
// single-flight coalescer (serve/coalescer).
//
// A cold request runs on the thread that called Serve: it holds one
// canonical design from canonicalize to payload, frees the materialized
// one once the canonical one exists, and, as the coalescing leader,
// moves it into the computation, which treats it in place. The service
// owns no compute thread. Serve may be called from any number of
// threads, and each admitted leader computes on its caller's thread:
// max_pending and the token budget (serve/sched.h) bound the admitted
// work, not a pool width. ServeBatch serves at ServiceConfig::threads.
//
// Determinism contract: the response *payload* (certificate JSON,
// treated design text, VC counts) is a pure function of the canonical
// key — hit, computed and coalesced requests produce bit-identical
// payloads, and ResponseDigest over a batch is identical for any client
// thread count. Cache/timing metadata (cache_outcome, *_ms) is
// explicitly excluded from that contract.
//
// Two cache levels (see serve/cert_cache.h): the authoritative
// certificate cache is content-addressed by the canonical digest, so
// any representation of the same problem — reordered flows, a comment
// in the text, a generator spec vs. its rendered design — lands on one
// entry. In front of it sits a request *fingerprint* memo keyed by the
// raw request bytes: an exact repeat (the overwhelmingly common case in
// repeat-heavy traffic) resolves to the canonical entry without
// materializing or canonicalizing the design at all, which is what
// makes a warm hit orders of magnitude cheaper than a recompute. The
// memo stores only the mapping to the canonical key; if the canonical
// entry was evicted, the request falls back to the full path.
//
// With ServiceConfig::cache_dir set, the certificate cache is the
// tiered composite of serve/disk_cache.h — memory fronting a
// persistent content-addressed store — so warmth survives process
// restarts and additional worker processes can mount the same
// directory read-through. The determinism contract is unchanged: a
// disk hit re-verifies its checksum and full key text before serving.
//
// Backpressure: when the admission bound is full, novel requests get
// ServeStatus::kOverloaded immediately instead of queueing unboundedly;
// duplicate-in-flight requests always join their leader (they add no
// work). The line protocol (serve/protocol.h) and the nocdr_serve
// binary expose the same semantics over stdin/stdout.
#pragma once

#include <chrono>
#include <cstdint>
#include <functional>
#include <string>
#include <vector>

#include "deadlock/removal.h"
#include "gen/generators.h"
#include "obs/trace.h"
#include "serve/cert_cache.h"
#include "serve/coalescer.h"
#include "serve/disk_cache.h"
#include "serve/sched.h"
#include "valid/campaign.h"

namespace nocdr::serve {

/// The protocol versions this service speaks. v1 is the original
/// stateless request/response pairs; v2 adds typed messages and
/// stateful sessions (serve/session.h). Requests without an explicit
/// protocol_version field are v1.
inline constexpr int kProtocolV1 = 1;
inline constexpr int kProtocolV2 = 2;

enum class RequestKind {
  kDesignText,     // inline noc/io design text
  kGeneratorSpec,  // standard-topology generator parameterization
  kSourceSeed,     // campaign design source + seed (all five sources)
};

/// The three ways a request (stateless certify or session_open) names a
/// design. One struct so stateless serves and sessions share exactly
/// one materialization path (MaterializeDesign below).
struct DesignSpec {
  RequestKind kind = RequestKind::kDesignText;

  std::string design_text;                 // kDesignText
  gen::GeneratorSpec generator;            // kGeneratorSpec
  valid::DesignSource source =
      valid::DesignSource::kSynthesized;   // kSourceSeed
  std::uint64_t seed = 0;                  // kSourceSeed
};

struct CertRequest : DesignSpec {
  /// Echoed in the response. Requests parsed without the field are v1.
  int protocol_version = kProtocolV1;
  /// Echoed verbatim in the response; empty is fine.
  std::string id;

  /// Removal options applied when \p treat is true.
  RemovalOptions options;
  /// false: certify the design as-is (the certificate may be negative,
  /// carrying a CDG-cycle counterexample).
  bool treat = true;
  /// Include the treated design text in the response payload.
  bool return_design = false;
  /// Admission/scheduling class (protocol field "class"). Routes the
  /// request through its class's token bucket and fairness counters;
  /// empty means sched::kDefaultClass. Never part of the cache key —
  /// the payload is class-independent.
  std::string priority_class;

  /// Trace identity of this request (obs/trace.h); empty = untraced.
  /// nocdr_serve derives it from the request's stdin stream index, so
  /// it is stable across client thread counts. Observability metadata
  /// only: never part of the fingerprint, the cache key or
  /// ResponseDigest.
  std::string trace_id;
};

enum class ServeStatus {
  kOk,
  kOverloaded,  // admission bound hit; retry later
  kError,       // malformed request or failed computation
};

/// Machine-readable failure classification, shared by protocol v1 and
/// v2. A response's error field is meaningful iff status != kOk.
enum class ErrorCode {
  kNone = 0,
  kInvalidRequest,      // malformed JSON, fields, design text or spec
  kUnsupportedVersion,  // protocol_version the server does not speak
  kUnknownType,         // v2 message type the server does not know
  kUnknownSession,      // session id never opened, or already closed
  kStaleEpoch,          // fault_burst expect_epoch != session epoch
  kSessionLimit,        // session admission bound hit; close one first
  kOverloaded,          // compute admission bound hit; retry later
  kComputeFailed,       // the certification computation threw
  kInternal,            // unexpected failure inside the service
};

/// The structured {code, message} error object every protocol response
/// carries on failure (free-text-only errors were protocol v1-alpha).
struct ErrorInfo {
  ErrorCode code = ErrorCode::kNone;
  std::string message;

  [[nodiscard]] bool ok() const { return code == ErrorCode::kNone; }
};

/// Stable protocol name of \p code ("invalid_request", "stale_epoch",
/// ...). Inverse: ParseErrorCode in serve/protocol.h.
std::string ErrorCodeName(ErrorCode code);

/// How the response was produced; metadata only, excluded from the
/// deterministic payload.
enum class CacheOutcome {
  kHit,        // served from the cache
  kComputed,   // this request ran the computation (coalescing leader)
  kCoalesced,  // joined another request's in-flight computation
  kNone,       // overloaded / error before the cache was consulted
};

struct CertResponse {
  // ---- deterministic payload (covered by ResponseDigest) ----
  /// Echo of the request's protocol_version.
  int protocol_version = kProtocolV1;
  std::string id;
  ServeStatus status = ServeStatus::kError;
  /// Meaningful iff status != kOk (kOverloaded carries kOverloaded).
  ErrorInfo error;
  /// Canonical content-addressed key (design + options + treat).
  std::uint64_t key = 0;
  bool deadlock_free = false;
  bool initially_deadlock_free = false;
  std::string certificate_json;
  /// Non-empty iff the request set return_design.
  std::string treated_design_text;
  std::size_t channels_before = 0;
  std::size_t channels_after = 0;
  std::size_t vcs_added = 0;
  std::size_t iterations = 0;
  std::size_t flows_rerouted = 0;

  // ---- metadata (schedule/timing dependent, excluded) ----
  CacheOutcome cache_outcome = CacheOutcome::kNone;
  double service_ms = 0.0;
};

/// Service-level counters. requests == hits + computations + coalesced
/// + rejected + errors; the split between hits and coalesced depends on
/// request interleaving, but computations is exactly the number of
/// distinct keys computed while no eviction interferes (the coalescer's
/// exactly-once contract).
struct ServiceStats {
  std::uint64_t requests = 0;
  std::uint64_t hits = 0;
  std::uint64_t computations = 0;
  std::uint64_t coalesced = 0;
  std::uint64_t rejected = 0;
  std::uint64_t errors = 0;
  /// Admitted computations not yet finished (RequestCoalescer::
  /// Pending): leaders computing now, each on its caller's thread.
  std::size_t pool_backlog = 0;
  /// The authoritative certificate cache (memory tier; promotions and
  /// demotions count the tier-crossing traffic when a disk tier is
  /// configured).
  CacheStats cache;
  /// The raw-request fingerprint memo in front of it.
  CacheStats front;
  /// The persistent disk tier (serve/disk_cache); all-zero when the
  /// service runs memory-only.
  CacheStats disk;
  /// Per-class admission fairness split (serve/sched.h); accumulates
  /// even when the token policy is disabled.
  std::vector<sched::ClassCounters> admission_classes;
};

/// Every request takes the one path: the fingerprint memo, the
/// certificate cache, admission and the coalescer. No setting bypasses
/// them; what a first-time request costs is what it costs on a fresh
/// service.
struct ServiceConfig {
  CacheConfig cache;
  /// Bounds of the raw-request fingerprint memo (entries are small:
  /// request bytes + canonical key text).
  CacheConfig front_cache{16, 8192, 32ull << 20};
  /// ServeBatch's width: how many requests it serves at once, each
  /// computing on its own thread when it leads; 0 = hardware
  /// concurrency. The service keeps no pool of its own, so a caller that
  /// calls Serve from more threads computes on all of them.
  std::size_t threads = 0;
  /// Admission bound on in-flight computations (see serve/coalescer.h).
  std::size_t max_pending = 1024;
  /// Token-budget admission policy in front of the coalescer (see
  /// serve/sched.h). Disabled by default: only the in-flight bound
  /// (max_pending) rejects. Applies to cache misses — hits carry no
  /// compute cost and always pass.
  sched::AdmissionConfig admission;
  /// Size envelope for kSourceSeed requests (valid::GenerateTrialDesign).
  valid::DesignEnvelope envelope;
  /// Directory of the persistent certificate-cache tier
  /// (serve/disk_cache). Empty = memory-only (the historical
  /// behavior). Non-empty: the certificate cache becomes memory
  /// fronting this disk store — warmth survives restarts, and a fleet
  /// of workers can mount one directory (one appender, many readers).
  std::string cache_dir;
  /// Byte bound of the disk store (segment files on disk).
  std::size_t disk_cache_bytes = 1ull << 30;
  /// Compact the disk store at open (drop superseded and damaged
  /// records) before serving.
  bool cache_compact = false;
  /// Trace collector (obs/trace.h); null disables span emission (the
  /// tracing-off hot path costs one branch per request). Requests with
  /// an empty trace_id stay untraced either way; certification
  /// *computations* are always traced when a sink is present, keyed by
  /// canonical digest ("k<hex>"), so the set of computation traces is
  /// deterministic under the coalescer's exactly-once contract. Not
  /// owned; must outlive the service.
  obs::TraceSink* trace = nullptr;
};

class CertificationService {
 public:
  /// The certification computation: canonical design + request ->
  /// cached value. It runs on the leader's thread and owns the design
  /// the service moves in, so it may treat it in place. Injectable so
  /// tests can gate, count or fail the computation deterministically;
  /// production uses ComputeCertification.
  using Certifier = std::function<CachedCertification(
      NocDesign canonical_design, const CertRequest& request)>;

  explicit CertificationService(ServiceConfig config = {},
                                Certifier certifier = {});

  CertificationService(const CertificationService&) = delete;
  CertificationService& operator=(const CertificationService&) = delete;

  /// Serves one request, blocking until the response is ready (or
  /// immediately for hits, rejections and malformed requests). A cold
  /// request computes on the calling thread. Safe to call from many
  /// threads.
  CertResponse Serve(const CertRequest& request);

  /// Serves a design the caller already materialized (sessions hold
  /// their live design in memory). Skips the raw-request fingerprint
  /// memo — there are no raw request bytes — but shares the canonical
  /// cache, the coalescer and the admission bound with Serve: the
  /// response is bit-identical to Serve on any request naming the same
  /// canonical problem. The request's design-source fields are ignored.
  /// Takes \p design by value: a caller done with it moves it in.
  CertResponse ServeDesign(NocDesign design, const CertRequest& request);

  /// Publishes a certification the caller computed itself: inserts
  /// \p value into the certificate cache under the key Serve computes
  /// for \p canonical_text (a CanonicalizeDesign text) and \p request's
  /// options and treat flag, and returns that key. Sessions publish
  /// every epoch this way from their live state (serve/session.h).
  /// The caller vouches that \p value is what the certifier computes
  /// for that canonical design; the cache's contract that a hit equals
  /// a recompute rests on it. A key the cache already holds is left as
  /// it is. Charges no admission and counts as no request (the cache's
  /// insertions count it).
  std::uint64_t Publish(const std::string& canonical_text,
                        const CertRequest& request,
                        CachedCertification value);

  /// Serves \p requests over \p client_threads threads (0 =
  /// ServiceConfig::threads); responses come back indexed like the
  /// input. Deterministic payloads for any thread count.
  std::vector<CertResponse> ServeBatch(const std::vector<CertRequest>& requests,
                                       std::size_t client_threads = 0);

  [[nodiscard]] ServiceStats Stats() const;

  [[nodiscard]] const ServiceConfig& config() const { return config_; }

 private:
  /// What the fingerprint memo resolves a raw request to: the canonical
  /// cache coordinates of its certification problem.
  struct FrontTarget {
    std::uint64_t canonical_digest = 0;
    std::string canonical_key_text;

    [[nodiscard]] std::size_t PayloadBytes() const {
      return canonical_key_text.size();
    }
  };

  CertResponse ServeInner(const CertRequest& request);
  /// The canonical-path tail shared by Serve and ServeDesign:
  /// canonicalize, consult the cache, coalesce, compute. \p design is
  /// dropped once its canonical form exists (after the text round-trip
  /// check under RemovalOptions::paranoid_validation). A non-empty
  /// \p fingerprint publishes the front-memo mapping on success.
  CertResponse ServeMaterialized(NocDesign design, const CertRequest& request,
                                 std::string fingerprint,
                                 std::uint64_t fingerprint_digest);
  /// Serve's exception-to-response boundary, shared with ServeDesign.
  CertResponse Guarded(const CertRequest& request,
                       const std::function<CertResponse()>& inner);
  /// The one failure exit: echoes \p request's protocol_version and id
  /// into \p response, sets the error, derives the status from \p code
  /// (kOverloaded for ErrorCode::kOverloaded, else kError) and counts
  /// the outcome once, as rejected or errors. Every other field of
  /// \p response (key, cache_outcome) is kept as the caller left it.
  CertResponse Fail(const CertRequest& request, CertResponse response,
                    ErrorCode code, std::string message);

  /// Microseconds since service construction — the live clock mapped
  /// onto the sched layer's explicit now_us interface.
  std::uint64_t NowUs() const;

  ServiceConfig config_;
  Certifier certifier_;
  TieredCertCache cache_;
  ShardedLruCache<FrontTarget> front_;
  RequestCoalescer coalescer_;
  sched::AdmissionController admission_;
  std::chrono::steady_clock::time_point epoch_;

  mutable std::mutex stats_mutex_;
  ServiceStats stats_;
};

/// The production certification computation: take the canonical design
/// (a caller that keeps its own passes a copy), optionally
/// RemoveDeadlocks on it in place with the request's options, certify,
/// and serialize certificate + treated design. Deterministic in its inputs,
/// and byte-equal to RemoveDeadlocks + CertifyDeadlockFreedom +
/// DesignText. It builds one CDG: removal treats on it
/// (RemoveDeadlocksOnCdg) unless treat = false, and certify reads it
/// (CertifyFromCdg). Every positive certificate must pass
/// CheckCertificate, or the computation throws.
CachedCertification ComputeCertification(NocDesign canonical_design,
                                         const CertRequest& request);

/// Materializes the design a spec names (parse, generate, or campaign
/// trial draw) — the one design-sourcing path stateless serves and
/// sessions share. Throws on malformed design text or generator
/// parameters. When \p table_out is non-null it receives the design's
/// next-hop routing table for the generator and source+seed kinds
/// (enabling table-driven fault detours in sessions) and is cleared for
/// inline design text, whose routes carry no table.
NocDesign MaterializeDesign(const DesignSpec& spec,
                            const valid::DesignEnvelope& envelope,
                            NextHopTable* table_out = nullptr);

/// FNV-1a digest over the deterministic payload fields of \p responses,
/// in order. Identical for any client thread count and any cache state.
std::uint64_t ResponseDigest(const std::vector<CertResponse>& responses);

}  // namespace nocdr::serve
