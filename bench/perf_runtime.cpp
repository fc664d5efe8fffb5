// Experiment E7 — algorithm runtime ("the method runs within minutes
// even for the largest benchmark"; on modern hardware it should be
// milliseconds).
//
// Two measurements:
//   1. Engine latency: RemoveDeadlocks with the incremental CDG engine
//      versus the rebuild-per-iteration baseline on identical inputs,
//      largest design last. The engines must produce identical reports;
//      the incremental one is expected to be >= 3x faster on the largest
//      design.
//   2. Sweep throughput: the same job set through SweepRunner with one
//      thread and with all hardware threads; the deterministic digests
//      must match exactly, the wall-clock should not.
// Rows are appended to BENCH_perf_runtime.json for cross-PR tracking.
#include <chrono>
#include <iostream>

#include "bench_common.h"
#include "runner/sweep.h"
#include "soc/synthetic.h"
#include "synth/synthesizer.h"
#include "util/json.h"
#include "util/table.h"

using namespace nocdr;

namespace {

struct TimedRun {
  double best_ms = 0.0;
  RemovalReport report;
};

/// Best-of-N timing of RemoveDeadlocks on copies of \p base; repeats
/// until ~200ms of samples or 5 reps, whichever first.
TimedRun TimeRemoval(const NocDesign& base, RemovalEngine engine) {
  TimedRun result;
  RemovalOptions options;
  options.engine = engine;
  double total = 0.0;
  for (int rep = 0; rep < 5; ++rep) {
    NocDesign design = base;  // copy outside the timed region
    const auto t0 = std::chrono::steady_clock::now();
    RemovalReport report = RemoveDeadlocks(design, options);
    const double ms = MillisSince(t0);
    if (rep == 0 || ms < result.best_ms) {
      result.best_ms = ms;
    }
    result.report = std::move(report);
    total += ms;
    if (total > 200.0) {
      break;
    }
  }
  return result;
}

struct PerfDesign {
  std::string name;
  NocDesign design;
};

std::vector<PerfDesign> MakePerfDesigns() {
  std::vector<PerfDesign> designs;
  designs.push_back({"ring32x3", bench::MakeRing(32, 3)});
  designs.push_back({"ring64x4", bench::MakeRing(64, 4)});
  for (std::size_t switches : {14u, 24u, 34u}) {
    const auto b = MakeBenchmark(SocBenchmarkId::kD36_8);
    designs.push_back({"D36_8@" + std::to_string(switches),
                       SynthesizeDesign(b.traffic, b.name, switches)});
  }
  // Largest: a synthetic SoC an order of magnitude past the paper's suite.
  SyntheticSocSpec spec;
  spec.cores = 288;
  spec.fanout = 4;
  spec.hubs = 288 / 24;
  const auto big = MakeSyntheticSoc(spec);
  designs.push_back({"S288_f4", SynthesizeDesign(big.traffic, big.name,
                                                 288 / 3)});
  return designs;
}

}  // namespace

int main() {
  std::cout << "=== E7: removal-engine latency, incremental vs "
               "rebuild-per-iteration ===\n\n";
  BenchJsonWriter json("perf_runtime");

  const std::vector<PerfDesign> designs = MakePerfDesigns();
  TextTable table;
  table.SetHeader({"design", "iters", "VCs", "rebuild (ms)",
                   "incremental (ms)", "speedup", "BFS runs"});
  bool mismatch = false;
  double largest_speedup = 0.0;
  for (const PerfDesign& pd : designs) {
    const TimedRun rebuild = TimeRemoval(pd.design, RemovalEngine::kRebuild);
    const TimedRun incremental =
        TimeRemoval(pd.design, RemovalEngine::kIncremental);
    if (rebuild.report.iterations != incremental.report.iterations ||
        rebuild.report.vcs_added != incremental.report.vcs_added ||
        rebuild.report.flows_rerouted != incremental.report.flows_rerouted) {
      std::cout << "ENGINE MISMATCH on " << pd.name << ": rebuild "
                << Summarize(rebuild.report) << " vs incremental "
                << Summarize(incremental.report) << "\n";
      mismatch = true;
    }
    const double speedup =
        incremental.best_ms > 0.0 ? rebuild.best_ms / incremental.best_ms
                                  : 0.0;
    largest_speedup = speedup;  // designs end with the largest
    table.AddRow({pd.name, std::to_string(incremental.report.iterations),
                  std::to_string(incremental.report.vcs_added),
                  FormatDouble(rebuild.best_ms, 2),
                  FormatDouble(incremental.best_ms, 2),
                  FormatDouble(speedup, 1) + "x",
                  std::to_string(incremental.report.cycle_bfs_runs)});
    json.AddRow(JsonObject()
                    .Set("section", "engine_latency")
                    .Set("design", pd.name)
                    .Set("iterations", incremental.report.iterations)
                    .Set("vcs_added", incremental.report.vcs_added)
                    .Set("rebuild_ms", rebuild.best_ms)
                    .Set("incremental_ms", incremental.best_ms)
                    .Set("speedup", speedup)
                    .Set("cycle_bfs_runs",
                         incremental.report.cycle_bfs_runs));
  }
  table.Print(std::cout);
  std::cout << "\nSpeedup on largest design (" << designs.back().name
            << "): " << FormatDouble(largest_speedup, 1)
            << "x (target >= 3x)\n";

  // ---------------------------------------------------------------------
  std::cout << "\n=== SweepRunner: thread-count determinism + throughput "
               "===\n\n";
  std::vector<runner::SweepJob> jobs;
  for (const PerfDesign& pd : designs) {
    for (const auto& [engine, label] :
         {std::pair{RemovalEngine::kIncremental, "incremental"},
          std::pair{RemovalEngine::kRebuild, "rebuild"}}) {
      runner::SweepJob job;
      job.design = pd.name;
      job.variant = label;
      job.options.engine = engine;
      job.factory = [&design = pd.design](Rng&) { return design; };
      jobs.push_back(std::move(job));
    }
  }

  auto t0 = std::chrono::steady_clock::now();
  const auto serial = runner::SweepRunner({.threads = 1}).Run(jobs);
  const double serial_ms = MillisSince(t0);
  t0 = std::chrono::steady_clock::now();
  const auto parallel = runner::SweepRunner({.threads = 0}).Run(jobs);
  const double parallel_ms = MillisSince(t0);

  const std::uint64_t serial_digest = Digest(serial);
  const std::uint64_t parallel_digest = Digest(parallel);
  const bool deterministic = serial_digest == parallel_digest;
  std::cout << jobs.size() << " jobs: 1 thread " << FormatDouble(serial_ms, 1)
            << " ms, all threads " << FormatDouble(parallel_ms, 1)
            << " ms (" << FormatDouble(serial_ms / parallel_ms, 1)
            << "x), digests "
            << (deterministic ? "IDENTICAL" : "MISMATCH (bug!)") << "\n";
  json.AddRow(JsonObject()
                  .Set("section", "sweep_throughput")
                  .Set("jobs", jobs.size())
                  .Set("serial_ms", serial_ms)
                  .Set("parallel_ms", parallel_ms)
                  .Set("digest_match", deterministic)
                  .Set("largest_design_speedup", largest_speedup));

  const std::string path = json.Write();
  if (!path.empty()) {
    std::cout << "rows written to " << path << "\n";
  }
  return (mismatch || !deterministic) ? 1 : 0;
}
