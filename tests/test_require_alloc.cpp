// A passing Require builds no message: the checks in the model's
// accessors cost their comparison and nothing else. This binary replaces
// the global operator new and delete with counting versions and asserts
// that loops of passing checks and accessor calls allocate nothing.
#include <gtest/gtest.h>

#include <atomic>
#include <cstdint>
#include <cstdlib>
#include <limits>
#include <new>
#include <string>
#include <string_view>

#include "cdg/cdg.h"
#include "deadlock/removal.h"
#include "gen/generators.h"
#include "obs/metrics.h"
#include "obs/trace.h"
#include "util/error.h"
#include "util/json.h"

namespace {

std::atomic<std::size_t> g_allocations{0};

void* CountedAllocate(std::size_t size) {
  g_allocations.fetch_add(1, std::memory_order_relaxed);
  if (void* p = std::malloc(size == 0 ? 1 : size)) {
    return p;
  }
  throw std::bad_alloc();
}

}  // namespace

void* operator new(std::size_t size) { return CountedAllocate(size); }
void* operator new[](std::size_t size) { return CountedAllocate(size); }
void operator delete(void* p) noexcept { std::free(p); }
void operator delete[](void* p) noexcept { std::free(p); }
void operator delete(void* p, std::size_t) noexcept { std::free(p); }
void operator delete[](void* p, std::size_t) noexcept { std::free(p); }

namespace nocdr {
namespace {

std::size_t Allocations() {
  return g_allocations.load(std::memory_order_relaxed);
}

template <typename... Parts>
concept RequireAccepts =
    requires(const Parts&... parts) { Require(true, parts...); };

static_assert(RequireAccepts<char[4], const char*, std::string,
                             std::string_view, int, std::size_t,
                             std::int64_t, std::uint32_t>);
static_assert(!RequireAccepts<char>);
static_assert(!RequireAccepts<bool>);

TEST(RequireAllocTest, CountingAllocatorIsInstalled) {
  const std::size_t before = Allocations();
  // A direct call, unlike a new-expression, may not be elided.
  ::operator delete(::operator new(64));
  EXPECT_EQ(Allocations(), before + 1);
}

TEST(RequireAllocTest, PassingChecksAllocateNothing) {
  const std::string owner = "a std::string past the small-string buffer";
  const std::string_view view = "a string_view past the small-string buffer";
  const std::size_t before = Allocations();
  for (int i = 0; i < 1000; ++i) {
    Require(i >= 0, "Require: a literal longer than fifteen characters");
    Require(i < 1000, owner, ": row ", i, " column ", std::size_t{7}, " of ",
            view, ", offset ", std::int64_t{-3});
  }
  EXPECT_EQ(Allocations(), before);
}

TEST(RequireAllocTest, FailingCheckThrowsTheConcatenatedParts) {
  const std::string who = "NextHopTable";
  try {
    Require(1 + 1 == 3, who, ": row ", 3, " of ", std::string_view("12"),
            ", min ", std::numeric_limits<std::int64_t>::min(), ", max ",
            std::numeric_limits<std::uint64_t>::max());
    FAIL() << "Require(false, ...) returned";
  } catch (const InvalidModelError& e) {
    EXPECT_STREQ(e.what(),
                 "NextHopTable: row 3 of 12, min -9223372036854775808, max "
                 "18446744073709551615");
  }
}

TEST(RequireAllocTest, AccessorsAllocateNothing) {
  gen::GeneratorSpec spec;
  spec.family = gen::TopologyFamily::kTorus2D;
  spec.width = 4;
  spec.height = 4;
  NocDesign design = gen::GenerateStandardDesign(spec);
  RemoveDeadlocks(design);
  const auto cdg = ChannelDependencyGraph::Build(design);
  const TopologyGraph& topo = design.topology;
  const CommunicationGraph& traffic = design.traffic;

  const std::size_t before = Allocations();
  std::size_t sum = 0;
  for (int round = 0; round < 10; ++round) {
    for (std::size_t l = 0; l < topo.LinkCount(); ++l) {
      sum += topo.LinkAt(LinkId(l)).dst.value();
      sum += topo.FindChannel(LinkId(l), 0)->value();
      sum += topo.FindChannel(LinkId(l), 1).has_value() ? 1 : 0;
    }
    for (std::size_t c = 0; c < topo.ChannelCount(); ++c) {
      sum += topo.ChannelAt(ChannelId(c)).vc;
      sum += cdg.OutEdges(ChannelId(c)).size();
    }
    for (std::size_t s = 0; s < topo.SwitchCount(); ++s) {
      sum += topo.OutLinks(SwitchId(s)).size();
      sum += topo.InLinks(SwitchId(s)).size();
    }
    for (std::size_t f = 0; f < traffic.FlowCount(); ++f) {
      sum += traffic.FlowAt(FlowId(f)).src.value();
      sum += design.routes.RouteOf(FlowId(f)).size();
    }
  }
  EXPECT_EQ(Allocations(), before);
  EXPECT_GT(sum, 0u);
}

TEST(RequireAllocTest, ValidateAllocationsDoNotGrowWithTheDesign) {
  // Validate checks every flow's route; neither the route's name nor
  // the repeat check may allocate per flow or per route.
  const auto torus = [](std::size_t side) {
    gen::GeneratorSpec spec;
    spec.family = gen::TopologyFamily::kTorus2D;
    spec.width = side;
    spec.height = side;
    return gen::GenerateStandardDesign(spec);
  };
  const NocDesign small = torus(4);
  const NocDesign large = torus(12);
  const auto validate = [](const NocDesign& design) {
    const std::size_t before = Allocations();
    design.Validate();
    return Allocations() - before;
  };
  EXPECT_EQ(validate(small), validate(large));
}

TEST(RequireAllocTest, JsonParseAllocationsDoNotGrowWithTheText) {
  // The parser checks every character of a string token; a passing
  // check must not build its message.
  const auto parse = [](std::size_t chars) {
    const std::string text = "{\"key\":\"" + std::string(chars, 'x') + "\"}";
    const std::size_t before = Allocations();
    const JsonValue value = JsonValue::Parse(text);
    const std::size_t allocations = Allocations() - before;
    EXPECT_EQ(value.At("key").AsString().size(), chars);
    return allocations;
  };
  // The decoded string's own buffer doubles as it grows: log2 of the
  // length, far under the bound; a message built per character is not.
  EXPECT_LT(parse(100000), parse(1000) + 32);
}

TEST(RequireAllocTest, UntracedStageTimerAllocatesNothingAfterWarmUp) {
  // Every removal run and fault burst ends a StageTimer. With no trace
  // current, it only records each touched stage's busy time into that
  // stage's histogram, which the first run registers.
  static const obs::StageSet stage_set("stage_alloc_test",
                                       {"cycle_search", "invalidate"});
  const auto run = [] {
    obs::StageTimer timer(stage_set);
    { obs::StageTimer::Section section(timer, 0); }
    { obs::StageTimer::Section section(timer, 1); }
    timer.Count(0, "bfs_runs", 3);
  };
  run();
  const obs::Histogram& histogram =
      obs::Metrics().GetHistogram("stage_alloc_test.cycle_search_us");
  const std::uint64_t recorded = histogram.Snapshot().count;
  const std::size_t before = Allocations();
  run();
  EXPECT_EQ(Allocations(), before);
  EXPECT_EQ(histogram.Snapshot().count, recorded + 1);
}

}  // namespace
}  // namespace nocdr
