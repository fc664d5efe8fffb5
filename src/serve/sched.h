// Token-budget admission control for the certification service.
//
// The coalescer's admission policy is a hard bound on in-flight
// computations, answered with the structured "overloaded" error. This
// module puts a token budget in front of it:
//
//   * a deterministic *cost model* (EstimateCost) mapping a design's
//     size to abstract cost units, so cost-charged token budgets have a
//     machine-independent notion of "job size";
//   * TokenBucket / AdmissionController — token-budget admission in
//     front of the coalescer, optionally split into weighted classes,
//     with per-class fairness counters (admitted / rejected / cost)
//     surfaced through ServiceStats and `nocdr_serve --stats`.
//
// CertificationService::Serve charges every cache miss here; an
// admitted miss computes at once on the thread serving it (the service
// has no compute pool), and a class's rank only labels its stats
// lines. Time is always an explicit `now_us`
// argument: the live service maps steady_clock onto it, and tests
// drive the bucket with chosen timestamps. Nothing in here reads a
// real clock.
#pragma once

#include <cstdint>
#include <mutex>
#include <string>
#include <vector>

#include "noc/design.h"

namespace nocdr::serve::sched {

/// Deterministic service-cost units of a certification job, keyed on
/// design size. Removal cost grows with both the channel count (CDG
/// vertices) and the flow count (cycle-break candidates); the weights
/// match the observed relative cost well enough for budget charging —
/// the absolute scale is arbitrary.
std::uint64_t EstimateCost(std::size_t channels, std::size_t flows);
std::uint64_t EstimateCost(const NocDesign& design);

/// The class every request without an explicit "class" field lands in.
inline constexpr const char* kDefaultClass = "default";

/// One class of the admission policy. Its rank labels its stats lines;
/// its weight shares the token budget.
struct ClassConfig {
  std::string name;
  int rank = 0;
  double weight = 1.0;
};

/// Token-budget admission policy. Disabled by default: every request
/// is admitted and only the coalescer's in-flight bound applies.
struct AdmissionConfig {
  bool enabled = false;
  /// Budget refill rate, tokens per second, shared by all
  /// classes proportionally to weight.
  double tokens_per_sec = 0.0;
  /// Bucket capacity in tokens; 0 defaults to one second of refill.
  double burst = 0.0;
  /// true: a request costs EstimateCost units; false: every request
  /// costs exactly one token.
  bool charge_cost = false;
  /// Named classes with their own weighted buckets. Empty = one shared
  /// bucket for everyone. Requests naming an unknown class are charged
  /// to kDefaultClass (auto-added with rank 0, weight 1 if absent).
  std::vector<ClassConfig> classes;
};

/// Deterministic token bucket on explicit timestamps.
class TokenBucket {
 public:
  TokenBucket() = default;
  /// Starts full at \p now_us.
  TokenBucket(double tokens_per_us, double capacity, std::uint64_t now_us);

  /// Refills for the elapsed time, then takes \p cost tokens if
  /// available. Monotonic \p now_us is the caller's contract; stale
  /// timestamps are clamped forward.
  bool TryTake(double cost, std::uint64_t now_us);

  [[nodiscard]] double tokens() const { return tokens_; }

 private:
  double rate_per_us_ = 0.0;
  double capacity_ = 0.0;
  double tokens_ = 0.0;
  std::uint64_t last_us_ = 0;
};

/// Per-class fairness counters; the split `nocdr_serve --stats` prints.
struct ClassCounters {
  std::string name;
  int rank = 0;
  std::uint64_t requests = 0;   // TryAdmit calls for this class
  std::uint64_t admitted = 0;
  std::uint64_t rejected = 0;
  std::uint64_t cost_admitted = 0;  // cost units of admitted work
};

/// Thread-safe token-budget admission with per-class buckets.
///
/// With the policy disabled this is a pure counter: everything is
/// admitted, the fairness split still accumulates. Classes not named in
/// the config share kDefaultClass's bucket (and are counted under their
/// own name, so the stats still show who asked).
class AdmissionController {
 public:
  explicit AdmissionController(AdmissionConfig config = {},
                               std::uint64_t now_us = 0);

  /// Admits or rejects \p cost units for \p class_name at \p now_us.
  bool TryAdmit(const std::string& class_name, std::uint64_t cost,
                std::uint64_t now_us);

  [[nodiscard]] const AdmissionConfig& config() const { return config_; }

  /// Snapshot of the per-class counters, config order, classes that
  /// actually sent requests appended after the configured ones.
  [[nodiscard]] std::vector<ClassCounters> Counters() const;

 private:
  struct Bucket {
    ClassConfig config;
    TokenBucket tokens;
  };

  /// Bucket index serving \p class_name (the default bucket for
  /// unknown names).
  std::size_t BucketIndex(const std::string& class_name) const;

  AdmissionConfig config_;
  mutable std::mutex mutex_;
  std::vector<Bucket> buckets_;
  std::vector<ClassCounters> counters_;
};

}  // namespace nocdr::serve::sched
