// SweepRunner: parallel batch execution of deadlock-removal experiments.
//
// Every experiment harness in bench/ used to hand-roll the same loop:
// synthesize a design, run a deadlock-handling method, collect VC counts
// and wall-clock times. SweepRunner centralizes that as a job batch
// executed over a thread pool: one job = one (design factory ×
// RemovalOptions) point, one row = its outcome.
//
// Determinism contract: each job gets its own Rng seeded purely from
// (base_seed, job index) — never from time, thread id or schedule — and
// rows are written to result slots indexed by job. The deterministic
// fields of the aggregate are therefore byte-identical for any thread
// count, which Digest() makes checkable in one comparison (wall-clock
// fields are excluded). tests/test_runner.cpp pins this contract.
#pragma once

#include <cstdint>
#include <functional>
#include <string>
#include <vector>

#include "deadlock/removal.h"
#include "noc/design.h"
#include "util/rng.h"
#include "util/row_fields.h"

namespace nocdr::runner {

/// Which deadlock-handling method a job runs.
enum class SweepMethod {
  kRemoval,           // Algorithm 1 (RemoveDeadlocks, per job options)
  kResourceOrdering,  // Dally/Towles distance classes (baseline)
};

/// One point of a sweep.
struct SweepJob {
  /// Label of the design family (for rows and tables).
  std::string design;
  /// Label of the option set / method arm.
  std::string variant;
  /// Builds the design; must be deterministic given the Rng it receives
  /// (the runner seeds it from the job index alone).
  std::function<NocDesign(Rng&)> factory;
  RemovalOptions options{};
  SweepMethod method = SweepMethod::kRemoval;
};

/// Outcome of one job. All fields except the *_ms timings are
/// deterministic functions of (job, base_seed).
struct SweepRow {
  std::size_t job_index = 0;
  std::string design;
  std::string variant;
  std::uint64_t seed = 0;

  // Design shape.
  std::size_t switches = 0;
  std::size_t links = 0;
  std::size_t flows = 0;
  std::size_t channels = 0;  // after treatment

  // Method outcome.
  bool initially_deadlock_free = false;
  std::size_t iterations = 0;
  std::size_t vcs_added = 0;
  std::size_t flows_rerouted = 0;
  std::size_t cycle_bfs_runs = 0;
  bool deadlock_free = false;
  /// Non-empty iff the job threw; the sweep itself never throws.
  std::string error;

  // Wall-clock (excluded from Digest and from determinism guarantees).
  double factory_ms = 0.0;
  double run_ms = 0.0;

  /// The fields in digest order (util/row_fields.h).
  static constexpr auto Fields() {
    using R = SweepRow;
    return std::tuple{
        RowField{"job", &R::job_index},
        RowField{"design", &R::design},
        RowField{"variant", &R::variant},
        RowField{"seed", &R::seed},
        RowField{"switches", &R::switches},
        RowField{"links", &R::links},
        RowField{"flows", &R::flows},
        RowField{"channels", &R::channels},
        RowField{"initially_deadlock_free", &R::initially_deadlock_free},
        RowField{"iterations", &R::iterations},
        RowField{"vcs_added", &R::vcs_added},
        RowField{"flows_rerouted", &R::flows_rerouted},
        RowField{"cycle_bfs_runs", &R::cycle_bfs_runs},
        RowField{"deadlock_free", &R::deadlock_free},
        OnFailure(RowField{"error", &R::error}),
        RowField{"factory_ms", &R::factory_ms},
        RowField{"run_ms", &R::run_ms},
    };
  }
};

struct SweepConfig {
  /// Worker threads; 0 means hardware concurrency.
  std::size_t threads = 0;
  /// Base seed every per-job seed is derived from.
  std::uint64_t base_seed = 1;
};

/// Seed of job \p job_index under \p base_seed (SplitMix64-style mix;
/// public so tests and harnesses can reproduce single jobs).
std::uint64_t JobSeed(std::uint64_t base_seed, std::size_t job_index);

/// Executes job batches on an internal thread pool.
class SweepRunner {
 public:
  explicit SweepRunner(SweepConfig config = {});

  /// Runs every job; the returned vector is indexed like \p jobs.
  /// Per-job exceptions are captured into SweepRow::error.
  [[nodiscard]] std::vector<SweepRow> Run(
      const std::vector<SweepJob>& jobs) const;

  [[nodiscard]] const SweepConfig& config() const { return config_; }

 private:
  SweepConfig config_;
};

}  // namespace nocdr::runner
