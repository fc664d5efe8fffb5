// Pluggable admission control and queue disciplines for the
// certification service.
//
// PR 5's coalescer already had one admission policy — a hard bound on
// in-flight computations, answered with the structured "overloaded"
// error. This module grows that path into a policy layer:
//
//   * a deterministic *cost model* (EstimateCost) mapping a design's
//     size to abstract cost units, so shortest-job-first scheduling and
//     cost-charged token budgets have a machine-independent notion of
//     "job size";
//   * TokenBucket / AdmissionController — token-budget admission in
//     front of the coalescer, optionally split into weighted priority
//     classes, with per-class fairness counters (admitted / rejected /
//     cost) surfaced through ServiceStats and `nocdr_serve --stats`;
//   * ReadyQueue — a bounded ready queue with pluggable disciplines
//     (FIFO, shortest-job-first, priority-class) and fully
//     deterministic ordering: SJF cost ties break on a seeded salt, so
//     a given (seed, job set) pops in exactly one order on every
//     platform and thread count.
//
// Time is always an explicit `now_us` argument (virtual microseconds).
// The open-loop load generator (serve/load_gen.h) drives these classes
// on deterministic virtual time — that is what makes a whole load
// replay bit-identical; the live service maps steady_clock onto the
// same interface. Nothing in here reads a real clock. The live service
// uses the admission controller only: its admitted misses queue FIFO
// on the compute pool, and ReadyQueue runs in the load replay alone.
#pragma once

#include <cstdint>
#include <mutex>
#include <optional>
#include <string>
#include <vector>

#include "noc/design.h"

namespace nocdr::serve::sched {

/// Ready-queue service order.
enum class Discipline {
  kFifo,      // arrival order
  kSjf,       // shortest job first (EstimateCost), seeded tie-break
  kPriority,  // priority class rank, FIFO within a class
};

/// Stable names: "fifo" / "sjf" / "priority".
std::string DisciplineName(Discipline discipline);
std::optional<Discipline> ParseDiscipline(const std::string& name);
std::vector<Discipline> AllDisciplines();

/// Deterministic service-cost units of a certification job, keyed on
/// design size. Removal cost grows with both the channel count (CDG
/// vertices) and the flow count (cycle-break candidates); the weights
/// match the observed relative cost well enough for SJF ordering and
/// budget charging — the absolute scale is arbitrary.
std::uint64_t EstimateCost(std::size_t channels, std::size_t flows);
std::uint64_t EstimateCost(const NocDesign& design);

/// The class every request without an explicit "class" field lands in.
inline constexpr const char* kDefaultClass = "default";

/// One priority class of the admission policy. Lower rank = more
/// urgent (rank orders the kPriority discipline); weight shares the
/// token budget.
struct ClassConfig {
  std::string name;
  int rank = 0;
  double weight = 1.0;
};

/// Token-budget admission policy. Disabled by default: every request
/// is admitted and only the coalescer's in-flight bound applies.
struct AdmissionConfig {
  bool enabled = false;
  /// Budget refill rate, tokens per (virtual) second, shared by all
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

  /// Refills for the elapsed virtual time, then takes \p cost tokens if
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

/// One schedulable job. `seq` is the arrival sequence number — the
/// deterministic total order every discipline falls back to.
struct Job {
  std::uint64_t seq = 0;
  std::uint64_t cost = 1;
  int rank = 0;                 // priority class rank (lower = first)
  std::uint64_t arrival_us = 0;
  std::size_t payload = 0;      // caller's index (trace item, request)
};

/// Bounded ready queue with a pluggable discipline and deterministic
/// tie-breaks.
///
/// Ordering keys (all ascending, lexicographic):
///   kFifo:     (seq)
///   kSjf:      (cost, salt, seq)   salt = SplitMix64(seed ^ seq)
///   kPriority: (rank, seq)
///
/// The SJF salt makes equal-cost ordering a pure function of the queue
/// seed — replaying a trace with the same seed pops the same order on
/// every platform; a different seed permutes only within cost ties.
/// Not thread-safe: the virtual-time replay drives it from one event
/// loop, the tests directly.
class ReadyQueue {
 public:
  explicit ReadyQueue(Discipline discipline, std::uint64_t seed,
                      std::size_t capacity);

  /// Enqueues \p job; false when the queue is at capacity (the caller
  /// rejects the job as overloaded).
  bool Push(const Job& job);

  /// Pops the next job per the discipline; nullopt when empty.
  std::optional<Job> Pop();

  [[nodiscard]] std::size_t Size() const { return heap_.size(); }
  [[nodiscard]] bool Empty() const { return heap_.empty(); }
  [[nodiscard]] std::size_t capacity() const { return capacity_; }

 private:
  struct Entry {
    std::uint64_t key0;  // discipline-major key
    std::uint64_t key1;  // tie-break
    std::uint64_t seq;   // final, total order
    Job job;

    bool operator>(const Entry& other) const {
      if (key0 != other.key0) {
        return key0 > other.key0;
      }
      if (key1 != other.key1) {
        return key1 > other.key1;
      }
      return seq > other.seq;
    }
  };

  Discipline discipline_;
  std::uint64_t seed_;
  std::size_t capacity_;
  std::vector<Entry> heap_;  // std::push_heap/pop_heap min-heap
};

}  // namespace nocdr::serve::sched
