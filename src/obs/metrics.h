// Process-wide metrics: counters and log-bucketed latency histograms.
//
// The serve/removal stack records aggregate timing and event counts
// here; the v2 {"type":"metrics"} protocol request and the
// `nocdr_serve --stats` histogram section read them back out. Design
// constraints, in order:
//
//   * Allocation-free on the hot path. Record()/Add() touch only
//     pre-registered atomics — no locks, no map lookups, no heap. The
//     one-time registration (GetCounter/GetHistogram) takes a mutex and
//     may allocate; callers cache the returned reference (instruments
//     are never destroyed, so references stay valid for the process
//     lifetime).
//
//   * Mergeable across threads. Instruments are plain relaxed atomics;
//     a Snapshot() is a consistent-enough read for reporting (each
//     field individually coherent), and HistogramSnapshot::Merge is
//     elementwise addition — commutative and associative, so merging
//     per-thread or per-shard snapshots in any order yields identical
//     totals (tested in tests/test_obs.cpp).
//
//   * Fixed log bucketing. A histogram has exactly kHistogramBuckets
//     power-of-two buckets: bucket 0 holds the value 0, bucket i >= 1
//     holds [2^(i-1), 2^i - 1], and the last bucket absorbs everything
//     beyond. Values are dimensionless uint64s; by convention the
//     instrumented code records microseconds and names the metric
//     *_us. Bucket boundaries are part of the protocol surface
//     (docs/OBSERVABILITY.md) and pinned by tests.
//
// Metrics are aggregates and deliberately schedule-dependent (a cache
// hit vs. a coalesced wait lands in different histograms depending on
// interleaving); the deterministic per-run story is the trace layer
// (obs/trace.h), which byte-compares. The two are independent:
// metrics accumulate whether or not tracing is on.
#pragma once

#include <array>
#include <atomic>
#include <chrono>
#include <cstdint>
#include <map>
#include <memory>
#include <mutex>
#include <string>
#include <utility>
#include <vector>

#include "util/json.h"

namespace nocdr::obs {

class Counter {
 public:
  void Add(std::uint64_t delta = 1) {
    value_.fetch_add(delta, std::memory_order_relaxed);
  }

  [[nodiscard]] std::uint64_t Value() const {
    return value_.load(std::memory_order_relaxed);
  }

  void Reset() { value_.store(0, std::memory_order_relaxed); }

 private:
  std::atomic<std::uint64_t> value_{0};
};

inline constexpr std::size_t kHistogramBuckets = 64;

/// A coherent copy of one histogram's buckets; plain integers, so
/// snapshots can be merged, compared and rendered without atomics.
struct HistogramSnapshot {
  std::uint64_t count = 0;
  std::uint64_t sum = 0;
  std::array<std::uint64_t, kHistogramBuckets> buckets{};

  /// Elementwise addition — commutative and associative, so any merge
  /// order over any partition of the samples yields the same totals.
  void Merge(const HistogramSnapshot& other);

  /// Upper bound of the smallest-index prefix of buckets holding at
  /// least ceil(q * count) samples — the classic "p99 <= X" bound.
  /// Returns 0 on an empty histogram.
  [[nodiscard]] std::uint64_t Quantile(double q) const;

  bool operator==(const HistogramSnapshot&) const = default;
};

class Histogram {
 public:
  /// 0 -> bucket 0; v >= 1 -> bucket 1 + floor(log2 v), capped at the
  /// last bucket. Exposed (and tested) because the boundaries are part
  /// of the metrics protocol surface.
  static std::size_t BucketIndex(std::uint64_t value);

  /// Largest value bucket \p index holds: 0 for bucket 0, 2^index - 1
  /// for the middle buckets, UINT64_MAX for the last (it absorbs the
  /// tail).
  static std::uint64_t BucketUpperBound(std::size_t index);

  void Record(std::uint64_t value) {
    count_.fetch_add(1, std::memory_order_relaxed);
    sum_.fetch_add(value, std::memory_order_relaxed);
    buckets_[BucketIndex(value)].fetch_add(1, std::memory_order_relaxed);
  }

  [[nodiscard]] HistogramSnapshot Snapshot() const;

  void Reset();

 private:
  std::atomic<std::uint64_t> count_{0};
  std::atomic<std::uint64_t> sum_{0};
  std::array<std::atomic<std::uint64_t>, kHistogramBuckets> buckets_{};
};

/// Name-sorted copies of every registered instrument.
struct MetricsSnapshot {
  std::vector<std::pair<std::string, std::uint64_t>> counters;
  std::vector<std::pair<std::string, HistogramSnapshot>> histograms;
};

/// Owns the instruments. Registration returns a stable reference (the
/// instrument lives as long as the registry; the process-wide registry
/// below is never destroyed before exit), so hot paths register once
/// and then touch only atomics.
class MetricsRegistry {
 public:
  Counter& GetCounter(const std::string& name);
  Histogram& GetHistogram(const std::string& name);

  [[nodiscard]] MetricsSnapshot Snapshot() const;

  /// Zeroes every instrument without invalidating references — test
  /// isolation for the process-wide registry.
  void ResetAll();

 private:
  mutable std::mutex mutex_;
  std::map<std::string, std::unique_ptr<Counter>> counters_;
  std::map<std::string, std::unique_ptr<Histogram>> histograms_;
};

/// The process-wide registry every instrumented layer records into.
MetricsRegistry& Metrics();

/// Records the wall-clock microseconds of its scope into a histogram
/// (RAII). The histogram reference is typically a cached registration
/// (a function-local static), keeping the per-use cost at two clock
/// reads and one Record().
class ScopedHistogramTimer {
 public:
  explicit ScopedHistogramTimer(Histogram& histogram)
      : histogram_(histogram),
        start_(std::chrono::steady_clock::now()) {}

  ~ScopedHistogramTimer() {
    histogram_.Record(static_cast<std::uint64_t>(
        std::chrono::duration_cast<std::chrono::microseconds>(
            std::chrono::steady_clock::now() - start_)
            .count()));
  }

  ScopedHistogramTimer(const ScopedHistogramTimer&) = delete;
  ScopedHistogramTimer& operator=(const ScopedHistogramTimer&) = delete;

 private:
  Histogram& histogram_;
  std::chrono::steady_clock::time_point start_;
};

/// JSON fragments of a snapshot — the shapes the v2 metrics response
/// embeds (serve/protocol.cpp splices them verbatim):
///   counters:   {"name":value,...}
///   histograms: {"name":{"count":N,"sum":S,"buckets":[[le,count],...]},...}
/// where "le" is the bucket's inclusive upper bound and zero-count
/// buckets are omitted.
JsonObject CountersToJson(const MetricsSnapshot& snapshot);
JsonObject HistogramToJson(const HistogramSnapshot& snapshot);
JsonObject HistogramsToJson(const MetricsSnapshot& snapshot);

}  // namespace nocdr::obs
