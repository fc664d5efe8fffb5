// ParallelMapIndexed and SweepRunner: the determinism contract (N
// threads == 1 thread, byte-identical deterministic fields), per-job
// seeding, and error capture.
#include <gtest/gtest.h>

#include <atomic>
#include <set>

#include "gen/generators.h"
#include "runner/parallel_map.h"
#include "runner/sweep.h"
#include "test_helpers.h"
#include "util/error.h"

namespace nocdr {
namespace {

TEST(ParallelMapIndexedTest, RunsEveryIndexOnceAtAnyThreadCount) {
  for (const std::size_t threads : {1u, 3u, 8u}) {
    SCOPED_TRACE(std::to_string(threads) + " threads");
    std::vector<std::atomic<int>> hits(1000);
    const std::vector<std::size_t> rows =
        runner::ParallelMapIndexed<std::size_t>(
            hits.size(), threads, [&](std::size_t i) {
              hits[i].fetch_add(1);
              return i * i;
            });
    ASSERT_EQ(rows.size(), hits.size());
    for (std::size_t i = 0; i < hits.size(); ++i) {
      EXPECT_EQ(hits[i].load(), 1) << "index " << i;
      EXPECT_EQ(rows[i], i * i) << "index " << i;
    }
  }
}

TEST(ParallelMapIndexedTest, ZeroCountReturnsEmptyWithoutCallingFn) {
  std::atomic<bool> called = false;
  const std::vector<int> rows =
      runner::ParallelMapIndexed<int>(0, 2, [&](std::size_t) {
        called = true;
        return 1;
      });
  EXPECT_TRUE(rows.empty());
  EXPECT_FALSE(called.load());
}

TEST(JobSeedTest, DistinctAndStable) {
  std::set<std::uint64_t> seeds;
  for (std::size_t i = 0; i < 256; ++i) {
    seeds.insert(runner::JobSeed(1, i));
  }
  EXPECT_EQ(seeds.size(), 256u);
  EXPECT_EQ(runner::JobSeed(1, 0), runner::JobSeed(1, 0));
  EXPECT_NE(runner::JobSeed(1, 0), runner::JobSeed(2, 0));
}

std::vector<runner::SweepJob> MakeJobs() {
  std::vector<runner::SweepJob> jobs;
  for (auto [n, span] : {std::pair<std::size_t, std::size_t>{4, 2},
                         {6, 2},
                         {6, 3},
                         {8, 3},
                         {10, 4}}) {
    for (const auto& [method, label] :
         {std::pair{runner::SweepMethod::kRemoval, "incremental"},
          std::pair{runner::SweepMethod::kRemovalRebuild, "rebuild"}}) {
      runner::SweepJob job;
      job.design = "ring" + std::to_string(n) + "x" + std::to_string(span);
      job.variant = label;
      job.method = method;
      job.factory = [n = n, span = span](Rng&) {
        return gen::UnidirectionalRing(n, span);
      };
      jobs.push_back(std::move(job));
    }
  }
  // One randomized design family exercising the per-job Rng.
  for (std::size_t i = 0; i < 4; ++i) {
    runner::SweepJob job;
    job.design = "random" + std::to_string(i);
    job.variant = "incremental";
    job.factory = [](Rng& rng) {
      return testing::MakeRandomDesign(rng.Next(), 8, 10, 18);
    };
    jobs.push_back(std::move(job));
  }
  // And one resource-ordering arm.
  runner::SweepJob ordering;
  ordering.design = "ring6x3";
  ordering.variant = "ordering";
  ordering.method = runner::SweepMethod::kResourceOrdering;
  ordering.factory = [](Rng&) { return gen::UnidirectionalRing(6, 3); };
  jobs.push_back(std::move(ordering));
  return jobs;
}

TEST(SweepRunnerTest, ThreadCountDoesNotChangeResults) {
  const auto jobs = MakeJobs();
  const auto serial = runner::SweepRunner({.threads = 1}).Run(jobs);
  const auto three = runner::SweepRunner({.threads = 3}).Run(jobs);
  const auto eight = runner::SweepRunner({.threads = 8}).Run(jobs);

  ASSERT_EQ(serial.size(), jobs.size());
  const std::uint64_t digest = Digest(serial);
  EXPECT_EQ(digest, Digest(three));
  EXPECT_EQ(digest, Digest(eight));

  for (std::size_t i = 0; i < serial.size(); ++i) {
    EXPECT_EQ(serial[i].job_index, i);
    EXPECT_EQ(serial[i].design, jobs[i].design);
    EXPECT_EQ(serial[i].variant, jobs[i].variant);
    EXPECT_EQ(serial[i].vcs_added, eight[i].vcs_added);
    EXPECT_EQ(serial[i].iterations, eight[i].iterations);
    EXPECT_EQ(serial[i].seed, eight[i].seed);
    EXPECT_TRUE(serial[i].error.empty()) << serial[i].error;
    EXPECT_TRUE(serial[i].deadlock_free);
  }
}

TEST(SweepRunnerTest, EnginesAgreeWithinTheSweep) {
  const auto jobs = MakeJobs();
  const auto rows = runner::SweepRunner({.threads = 2}).Run(jobs);
  // Jobs come in (incremental, rebuild) pairs for the ring designs.
  for (std::size_t i = 0; i + 1 < 10; i += 2) {
    EXPECT_EQ(rows[i].vcs_added, rows[i + 1].vcs_added)
        << rows[i].design;
    EXPECT_EQ(rows[i].iterations, rows[i + 1].iterations)
        << rows[i].design;
  }
}

TEST(SweepRunnerTest, DigestReactsToOutcomeChanges) {
  const auto jobs = MakeJobs();
  auto rows = runner::SweepRunner({.threads = 1}).Run(jobs);
  const std::uint64_t digest = Digest(rows);
  rows[0].vcs_added += 1;
  EXPECT_NE(digest, Digest(rows));
}

TEST(SweepRunnerTest, DigestIgnoresTimings) {
  const auto jobs = MakeJobs();
  auto rows = runner::SweepRunner({.threads = 1}).Run(jobs);
  const std::uint64_t digest = Digest(rows);
  rows[0].run_ms += 1234.5;
  rows[1].factory_ms += 9.0;
  EXPECT_EQ(digest, Digest(rows));
}

TEST(SweepRunnerTest, FactoryExceptionIsCapturedPerJob) {
  std::vector<runner::SweepJob> jobs = MakeJobs();
  runner::SweepJob poison;
  poison.design = "poison";
  poison.variant = "throws";
  poison.factory = [](Rng&) -> NocDesign {
    throw InvalidModelError("synthetic failure");
  };
  jobs.insert(jobs.begin() + 1, std::move(poison));

  const auto rows = runner::SweepRunner({.threads = 4}).Run(jobs);
  ASSERT_EQ(rows.size(), jobs.size());
  EXPECT_EQ(rows[1].error, "synthetic failure");
  EXPECT_TRUE(rows[0].error.empty());
  EXPECT_TRUE(rows[2].error.empty());
  EXPECT_TRUE(rows[2].deadlock_free);
}

TEST(SweepRunnerTest, ThrowingJobDoesNotPoisonSiblingsAcrossThreadCounts) {
  // A mid-batch throwing job must fail only its own row, and the digest
  // must stay byte-identical for any thread count even in that scenario.
  std::vector<runner::SweepJob> jobs = MakeJobs();
  runner::SweepJob poison;
  poison.design = "poison";
  poison.variant = "throws";
  poison.factory = [](Rng&) -> NocDesign {
    throw AlgorithmLimitError("deliberate mid-sweep failure");
  };
  const std::size_t poisoned = jobs.size() / 2;
  jobs.insert(jobs.begin() + static_cast<std::ptrdiff_t>(poisoned), poison);

  const auto one = runner::SweepRunner({.threads = 1}).Run(jobs);
  const auto two = runner::SweepRunner({.threads = 2}).Run(jobs);
  const auto eight = runner::SweepRunner({.threads = 8}).Run(jobs);

  ASSERT_EQ(one.size(), jobs.size());
  for (std::size_t i = 0; i < one.size(); ++i) {
    if (i == poisoned) {
      EXPECT_EQ(one[i].error, "deliberate mid-sweep failure");
      EXPECT_FALSE(one[i].deadlock_free);
    } else {
      EXPECT_TRUE(one[i].error.empty()) << "row " << i << ": "
                                        << one[i].error;
      EXPECT_TRUE(one[i].deadlock_free) << "row " << i;
    }
  }
  const std::uint64_t digest = Digest(one);
  EXPECT_EQ(digest, Digest(two));
  EXPECT_EQ(digest, Digest(eight));
}

TEST(SweepRunnerTest, RowToJsonRoundsTrip) {
  runner::SweepRow row;
  row.design = "d";
  row.variant = "v";
  row.seed = 7;
  row.vcs_added = 3;
  const std::string dump = RowToJson(row).Dump();
  EXPECT_NE(dump.find("\"design\":\"d\""), std::string::npos);
  EXPECT_NE(dump.find("\"vcs_added\":3"), std::string::npos);
  EXPECT_EQ(dump.find("\"error\""), std::string::npos);
}

TEST(SweepRunnerTest, DigestIsPinned) {
  const auto rows = runner::SweepRunner({.threads = 2}).Run(MakeJobs());
  EXPECT_EQ(Digest(rows), 0xb3b9a47ae849de4full);
}

TEST(SweepRunnerTest, FullRowIsPinned) {
  runner::SweepRow row;
  row.job_index = 3;
  row.design = "ring6x3";
  row.variant = "rebuild";
  row.seed = 0x123456789abcdef0ull;
  row.switches = 6;
  row.links = 7;
  row.flows = 8;
  row.channels = 9;
  row.initially_deadlock_free = true;
  row.iterations = 10;
  row.vcs_added = 11;
  row.flows_rerouted = 12;
  row.cycle_bfs_runs = 13;
  row.deadlock_free = true;
  row.error = "factory threw";
  row.factory_ms = 1.5;
  row.run_ms = 12.5;
  EXPECT_EQ(Digest(std::vector{row}), 0xb796b3d83c514d5dull);
  const std::map<std::string, std::string> expected = {
      {"job", "3"},
      {"design", "\"ring6x3\""},
      {"variant", "\"rebuild\""},
      {"seed", "1311768467463790320"},
      {"switches", "6"},
      {"links", "7"},
      {"flows", "8"},
      {"channels", "9"},
      {"initially_deadlock_free", "true"},
      {"iterations", "10"},
      {"vcs_added", "11"},
      {"flows_rerouted", "12"},
      {"cycle_bfs_runs", "13"},
      {"deadlock_free", "true"},
      {"error", "\"factory threw\""},
      {"factory_ms", "1.500000"},
      {"run_ms", "12.500000"},
  };
  EXPECT_EQ(testing::JsonMembers(RowToJson(row).Dump()), expected);
}

}  // namespace
}  // namespace nocdr
