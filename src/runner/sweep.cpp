#include "runner/sweep.h"

#include <chrono>
#include <exception>

#include "deadlock/resource_ordering.h"
#include "runner/parallel_map.h"
#include "util/clock.h"

namespace nocdr::runner {

namespace {

SweepRow RunJob(const SweepJob& job, std::size_t job_index,
                std::uint64_t base_seed) {
  SweepRow row;
  row.job_index = job_index;
  row.design = job.design;
  row.variant = job.variant;
  row.seed = JobSeed(base_seed, job_index);
  try {
    Rng rng(row.seed);
    auto t0 = std::chrono::steady_clock::now();
    NocDesign design = job.factory(rng);
    row.factory_ms = MillisSince(t0);
    row.switches = design.topology.SwitchCount();
    row.links = design.topology.LinkCount();
    row.flows = design.traffic.FlowCount();
    row.initially_deadlock_free = IsDeadlockFree(design);

    t0 = std::chrono::steady_clock::now();
    if (job.method == SweepMethod::kRemoval) {
      const RemovalReport report = RemoveDeadlocks(design, job.options);
      row.iterations = report.iterations;
      row.vcs_added = report.vcs_added;
      row.flows_rerouted = report.flows_rerouted;
      row.cycle_bfs_runs = report.cycle_bfs_runs;
    } else {
      const ResourceOrderingReport report = ApplyResourceOrdering(design);
      row.iterations = 1;
      row.vcs_added = report.vcs_added;
    }
    row.run_ms = MillisSince(t0);
    row.channels = design.topology.ChannelCount();
    row.deadlock_free = IsDeadlockFree(design);
  } catch (const std::exception& e) {
    row.error = e.what();
  }
  return row;
}

}  // namespace

std::uint64_t JobSeed(std::uint64_t base_seed, std::size_t job_index) {
  // Two rounds of the library's SplitMix64 decorrelate base seed and
  // index without a second copy of the generator constants.
  const std::uint64_t mixed_index =
      Rng(static_cast<std::uint64_t>(job_index)).Next();
  return Rng(base_seed ^ mixed_index).Next();
}

SweepRunner::SweepRunner(SweepConfig config) : config_(config) {}

std::vector<SweepRow> SweepRunner::Run(
    const std::vector<SweepJob>& jobs) const {
  return ParallelMapIndexed<SweepRow>(
      jobs.size(), config_.threads,
      [&](std::size_t i) { return RunJob(jobs[i], i, config_.base_seed); });
}

}  // namespace nocdr::runner
