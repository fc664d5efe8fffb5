// Unit tests for Algorithm 1 (the removal loop).
#include "deadlock/removal.h"

#include <gtest/gtest.h>

#include "cdg/cdg.h"
#include "gen/generators.h"
#include "test_helpers.h"
#include "util/error.h"

namespace nocdr {
namespace {

TEST(RemovalTest, PaperExampleNeedsExactlyOneVc) {
  auto ex = testing::MakePaperExample();
  const auto report = RemoveDeadlocks(ex.design);
  EXPECT_FALSE(report.initially_deadlock_free);
  EXPECT_EQ(report.iterations, 1u);
  EXPECT_EQ(report.vcs_added, 1u);
  EXPECT_EQ(ex.design.topology.ExtraVcCount(), 1u);
  EXPECT_TRUE(IsDeadlockFree(ex.design));
  ex.design.Validate();
}

TEST(RemovalTest, AcyclicInputIsNoOp) {
  auto ex = testing::MakePaperExample();
  // Shorten F3 so the ring does not close (cf. test_cycle).
  ex.design.routes.SetRoute(ex.f3, {ex.c4});
  ex.design.attachment[5] = SwitchId(0u);
  ex.design.Validate();
  const auto report = RemoveDeadlocks(ex.design);
  EXPECT_TRUE(report.initially_deadlock_free);
  EXPECT_EQ(report.iterations, 0u);
  EXPECT_EQ(report.vcs_added, 0u);
  EXPECT_EQ(ex.design.topology.ExtraVcCount(), 0u);
}

TEST(RemovalTest, StepRecordsAreConsistent) {
  auto ex = testing::MakePaperExample();
  const auto report = RemoveDeadlocks(ex.design);
  ASSERT_EQ(report.steps.size(), report.iterations);
  std::size_t total = 0;
  for (const auto& step : report.steps) {
    EXPECT_EQ(step.cost, step.vcs_added);
    EXPECT_GE(step.cycle_length, 2u);
    total += step.vcs_added;
  }
  EXPECT_EQ(total, report.vcs_added);
}

TEST(RemovalTest, RingsOfAllSizes) {
  for (std::size_t n : {3u, 4u, 6u, 10u, 16u}) {
    auto d = gen::UnidirectionalRing(n, 2);
    const auto report = RemoveDeadlocks(d);
    EXPECT_TRUE(IsDeadlockFree(d)) << "ring " << n;
    EXPECT_GT(report.vcs_added, 0u) << "ring " << n;
    d.Validate();
  }
}

TEST(RemovalTest, LongSpanRings) {
  // Longer worms wrap further around the ring; removal must still
  // converge and produce a valid deadlock-free design.
  for (std::size_t span : {2u, 3u, 4u, 5u}) {
    auto d = gen::UnidirectionalRing(8, span);
    RemoveDeadlocks(d);
    EXPECT_TRUE(IsDeadlockFree(d)) << "span " << span;
    d.Validate();
  }
}

TEST(RemovalTest, IterationCapThrows) {
  auto d = gen::UnidirectionalRing(8, 3);
  RemovalOptions options;
  options.max_iterations = 0;
  EXPECT_THROW(RemoveDeadlocks(d, options), AlgorithmLimitError);
}

TEST(RemovalTest, ParanoidValidationPasses) {
  auto d = gen::UnidirectionalRing(10, 4);
  RemovalOptions options;
  options.paranoid_validation = true;
  EXPECT_NO_THROW(RemoveDeadlocks(d, options));
  EXPECT_TRUE(IsDeadlockFree(d));
}

TEST(RemovalTest, DirectionPolicies) {
  for (auto policy : {DirectionPolicy::kBoth, DirectionPolicy::kForwardOnly,
                      DirectionPolicy::kBackwardOnly}) {
    auto d = gen::UnidirectionalRing(8, 3);
    RemovalOptions options;
    options.direction_policy = policy;
    const auto report = RemoveDeadlocks(d, options);
    EXPECT_TRUE(IsDeadlockFree(d));
    EXPECT_GT(report.vcs_added, 0u);
    d.Validate();
  }
}

TEST(RemovalTest, CyclePolicies) {
  for (auto policy : {CyclePolicy::kSmallestFirst, CyclePolicy::kFirstFound,
                      CyclePolicy::kLargestFirst}) {
    auto d = gen::UnidirectionalRing(8, 3);
    RemovalOptions options;
    options.cycle_policy = policy;
    RemoveDeadlocks(d, options);
    EXPECT_TRUE(IsDeadlockFree(d));
    d.Validate();
  }
}

TEST(RemovalTest, BothDirectionsNeverWorseThanSingle) {
  // Evaluating both directions and taking the cheaper one cannot add
  // more VCs than the first break of either restricted policy...
  // globally the heuristic gives no guarantee, so compare totals on a
  // batch of random designs in aggregate instead.
  std::size_t both_total = 0, fwd_total = 0, bwd_total = 0;
  for (std::uint64_t seed = 1; seed <= 12; ++seed) {
    for (auto [policy, total] :
         std::initializer_list<std::pair<DirectionPolicy, std::size_t*>>{
             {DirectionPolicy::kBoth, &both_total},
             {DirectionPolicy::kForwardOnly, &fwd_total},
             {DirectionPolicy::kBackwardOnly, &bwd_total}}) {
      auto d = testing::MakeRandomDesign(seed, 8, 14, 30);
      RemovalOptions options;
      options.direction_policy = policy;
      *total += RemoveDeadlocks(d, options).vcs_added;
    }
  }
  EXPECT_LE(both_total, fwd_total);
  EXPECT_LE(both_total, bwd_total);
}

TEST(RemovalTest, SummarizeMentionsCounts) {
  auto ex = testing::MakePaperExample();
  const auto report = RemoveDeadlocks(ex.design);
  const std::string s = Summarize(report);
  EXPECT_NE(s.find("1 cycle(s)"), std::string::npos);
  EXPECT_NE(s.find("1 VC(s)"), std::string::npos);

  auto ex2 = testing::MakePaperExample();
  ex2.design.routes.SetRoute(ex2.f3, {ex2.c4});
  ex2.design.attachment[5] = SwitchId(0u);
  const auto noop = RemoveDeadlocks(ex2.design);
  EXPECT_NE(Summarize(noop).find("already deadlock-free"),
            std::string::npos);
}

TEST(RemovalTest, IdempotentOnSecondRun) {
  auto d = gen::UnidirectionalRing(8, 3);
  RemoveDeadlocks(d);
  const auto second = RemoveDeadlocks(d);
  EXPECT_TRUE(second.initially_deadlock_free);
  EXPECT_EQ(second.vcs_added, 0u);
}

}  // namespace
}  // namespace nocdr
