// In-flight request coalescing (single-flight), computed on the
// leader's own thread.
//
// When N clients ask for the same certification key concurrently, the
// service must run the computation once and fan the result out — N
// identical RemoveDeadlocks runs would burn N-1 computations to produce
// bit-identical bytes. The coalescer keeps a registry of in-flight
// computations keyed by canonical digest + key text; the first request
// for a key becomes the *leader* and runs the computation itself,
// inside Submit, on the thread that called it. Later requests for the
// key become *followers* and wait on the leader's shared future. The
// coalescer owns no thread: a request computes where it was asked, so
// a cold request pays no hand-off to a pool and back.
//
// Exactly-once contract: a request first probes the cache *under the
// coalescer lock* (via the probe callback). The leader's computation
// inserts its result into the cache; only then does Submit fulfil the
// shared promise and retire the registry entry — under the lock — so
// every request for a key either sees the cached value, joins the
// in-flight leader, or becomes the first leader. With an eviction-free
// cache this makes "one computation per distinct key" exact, not
// probabilistic; tests/test_serve.cpp pins it across thread counts.
//
// Backpressure: leaders admitted but not yet finished are bounded by
// max_pending. A request whose key is not in flight and whose admission
// would exceed the bound is rejected immediately (kRejected) — the
// caller turns that into an "overloaded" response instead of queueing
// unboundedly. Followers never count against the bound (they add no
// work). Since leaders compute on their callers' threads, the bound also
// caps how many threads compute at once.
//
// Exceptions: a leader computation that throws poisons its future;
// leader and followers all observe the same exception, and nothing is
// cached.
#pragma once

#include <cstdint>
#include <functional>
#include <future>
#include <mutex>
#include <optional>
#include <string>
#include <unordered_map>
#include <vector>

#include "serve/cert_cache.h"

namespace nocdr::serve {

struct CoalescerConfig {
  /// Max leaders admitted and still computing. 0 rejects everything.
  std::size_t max_pending = 1024;
};

class RequestCoalescer {
 public:
  using Result = CachedCertification;
  /// Cache probe, called with the registry lock held; return a value to
  /// resolve the request without computing.
  using ProbeFn = std::function<std::optional<Result>()>;
  /// The computation plus its publication (cache insert). Runs only for
  /// a leader, inside Submit on the leader's thread, with the registry
  /// lock released, so it may read the caller's state in place. May
  /// throw.
  using ComputeFn = std::function<Result()>;

  struct Outcome {
    enum class Kind {
      kResolved,  // probe produced the value; `resolved` is set
      kLeader,    // this request computed; `future` is ready
      kFollower,  // joined an in-flight computation; wait on future
      kRejected,  // admission bound hit; no future
    };
    Kind kind = Kind::kRejected;
    std::optional<Result> resolved;
    std::shared_future<Result> future;
  };

  explicit RequestCoalescer(CoalescerConfig config = {});

  RequestCoalescer(const RequestCoalescer&) = delete;
  RequestCoalescer& operator=(const RequestCoalescer&) = delete;

  /// Resolves, joins, leads or rejects the request for
  /// (\p digest, \p key_text). A leader runs \p compute before Submit
  /// returns, and the outcome's future holds its result or exception.
  /// \p compute must insert its result into the cache the probe reads
  /// before returning (the exactly-once argument above depends on that
  /// ordering).
  Outcome Submit(std::uint64_t digest, const std::string& key_text,
                 const ProbeFn& probe, const ComputeFn& compute);

  /// Leaders admitted but not yet finished.
  [[nodiscard]] std::size_t Pending() const;

 private:
  struct InFlight {
    std::string key_text;
    std::shared_future<Result> future;
  };

  /// Removes the in-flight slot for (digest, key_text) and releases its
  /// admission budget.
  void Retire(std::uint64_t digest, const std::string& key_text);

  CoalescerConfig config_;
  mutable std::mutex mutex_;
  /// digest -> in-flight computations with that digest (more than one
  /// only under a digest collision, which text comparison untangles).
  std::unordered_map<std::uint64_t, std::vector<InFlight>> inflight_;
  std::size_t pending_ = 0;
};

}  // namespace nocdr::serve
