// util/canonical: canonical design rendering and content-addressed
// digesting — the primitive the certification service keys its cache by
// and the shrinker validates repros against.
#include "util/canonical.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <sstream>
#include <vector>

#include "deadlock/removal.h"
#include "gen/generators.h"
#include "noc/io.h"
#include "soc/synthetic.h"
#include "synth/route_builder.h"
#include "synth/synthesizer.h"
#include "test_helpers.h"
#include "util/error.h"

namespace nocdr {
namespace {

using testing::MakePaperExample;
using testing::MakeRandomDesign;
using testing::WithTiedTwins;

TEST(CanonicalTest, IoCanonicalizePreservesFlowOrderAndText) {
  const NocDesign design = MakePaperExample().design;
  const NocDesign round = IoCanonicalize(design);
  EXPECT_EQ(DesignText(design), DesignText(round));
  ASSERT_EQ(design.traffic.FlowCount(), round.traffic.FlowCount());
  for (std::size_t f = 0; f < design.traffic.FlowCount(); ++f) {
    EXPECT_EQ(design.traffic.FlowAt(FlowId(f)).src,
              round.traffic.FlowAt(FlowId(f)).src);
  }
  EXPECT_TRUE(IsIoStable(design));
}

TEST(CanonicalTest, DigestStableUnderFlowReordering) {
  const RemovalOptions options;
  for (const std::uint64_t seed : {1ull, 7ull, 42ull}) {
    const NocDesign design = MakeRandomDesign(seed);
    const std::uint64_t base = CanonicalDesignDigest(design, options);

    std::vector<FlowId> order;
    for (std::size_t i = design.traffic.FlowCount(); i > 0; --i) {
      order.emplace_back(i - 1);  // full reversal
    }
    EXPECT_EQ(base,
              CanonicalDesignDigest(PermuteFlows(design, order), options))
        << "seed " << seed;

    Rng rng(seed ^ 0xfeed);
    rng.Shuffle(order);
    EXPECT_EQ(base,
              CanonicalDesignDigest(PermuteFlows(design, order), options))
        << "seed " << seed;
  }
}

TEST(CanonicalTest, DigestStableUnderTextNoise) {
  // Comments, blank lines and trailing whitespace-only reformatting of
  // the source text must not change identity: parse both renderings and
  // digest.
  const NocDesign design = MakePaperExample().design;
  const std::string text = DesignText(design);
  std::string noisy = "# a comment\n\n";
  for (const char c : text) {
    noisy += c;
    if (c == '\n') {
      noisy += "# between lines\n\n";
    }
  }
  std::istringstream in(noisy);
  const NocDesign reparsed = ReadDesign(in);
  const RemovalOptions options;
  EXPECT_EQ(CanonicalDesignDigest(design, options),
            CanonicalDesignDigest(reparsed, options));
}

TEST(CanonicalTest, CanonicalizationIsIdempotent) {
  for (const std::uint64_t seed : {3ull, 11ull}) {
    const NocDesign design = MakeRandomDesign(seed);
    const CanonicalDesign once = CanonicalizeDesign(design);
    const CanonicalDesign twice = CanonicalizeDesign(once.design);
    EXPECT_EQ(once.text, twice.text) << "seed " << seed;
    EXPECT_TRUE(IsIoStable(once.design)) << "seed " << seed;
  }
}

TEST(CanonicalTest, CanonicalizationPreservesTheCertificationProblem) {
  // Same switches, links, channel multiset and route multiset — only
  // flow identity may be renamed.
  const NocDesign design = MakeRandomDesign(5);
  const CanonicalDesign canonical = CanonicalizeDesign(design);
  EXPECT_EQ(design.topology.SwitchCount(),
            canonical.design.topology.SwitchCount());
  EXPECT_EQ(design.topology.LinkCount(),
            canonical.design.topology.LinkCount());
  EXPECT_EQ(design.topology.ChannelCount(),
            canonical.design.topology.ChannelCount());
  ASSERT_EQ(design.traffic.FlowCount(),
            canonical.design.traffic.FlowCount());

  const auto route_key = [](const NocDesign& d, FlowId f) {
    std::vector<std::pair<std::uint32_t, std::uint32_t>> key;
    for (const ChannelId c : d.routes.RouteOf(f)) {
      const Channel& channel = d.topology.ChannelAt(c);
      key.emplace_back(channel.link.value(), channel.vc);
    }
    return key;
  };
  std::vector<std::vector<std::pair<std::uint32_t, std::uint32_t>>> a, b;
  for (std::size_t f = 0; f < design.traffic.FlowCount(); ++f) {
    a.push_back(route_key(design, FlowId(f)));
    b.push_back(route_key(canonical.design, FlowId(f)));
  }
  std::sort(a.begin(), a.end());
  std::sort(b.begin(), b.end());
  EXPECT_EQ(a, b);
}

TEST(CanonicalTest, FlowOrderRendersTheCanonicalText) {
  for (const std::uint64_t seed : {3ull, 9ull, 27ull}) {
    // Removal may re-route one twin of a pair and not the other, so
    // some ties are decided by the route key.
    NocDesign design = WithTiedTwins(MakeRandomDesign(seed));
    RemoveDeadlocks(design);
    const std::vector<FlowId> order = CanonicalFlowOrder(design);
    ASSERT_EQ(order.size(), design.traffic.FlowCount());
    EXPECT_EQ(DesignText(design, order), CanonicalizeDesign(design).text)
        << "seed " << seed;
    EXPECT_EQ(DesignText(PermuteFlows(design, order)),
              DesignText(design, order))
        << "seed " << seed;
    // Canonical order is a fixpoint of itself.
    EXPECT_EQ(DesignText(PermuteFlows(design, order)),
              DesignText(PermuteFlows(design, order),
                         CanonicalFlowOrder(PermuteFlows(design, order))));
  }
}

TEST(CanonicalTest, TiedRunsOrderADesignWhoseRoutesChanged) {
  // A design in canonical order keeps its runs of tied flows while
  // re-routes change routes (a session's epochs, serve/session.h), and
  // sorting within the runs gives the full canonical order. Here the
  // first flow of each run detours around its first link, which moves
  // it behind its twin whenever the detour's route key is larger.
  std::size_t moved = 0;
  for (const std::uint64_t seed : {3ull, 9ull, 27ull}) {
    const NocDesign twins = WithTiedTwins(MakeRandomDesign(seed));
    EXPECT_THROW(TiedFlowRuns(twins), InvalidModelError)
        << "twins appended out of order";
    NocDesign design = PermuteFlows(twins, CanonicalFlowOrder(twins));
    const std::vector<FlowRun> runs = TiedFlowRuns(design);
    ASSERT_FALSE(runs.empty());
    for (const FlowRun& run : runs) {
      const FlowId first(run.begin);
      const Route& route = design.routes.RouteOf(first);
      if (route.empty()) {
        continue;
      }
      std::vector<char> failed(design.topology.LinkCount(), 0);
      failed[design.topology.ChannelAt(route.front()).link.value()] = 1;
      RerouteFlows(design, {first}, failed, {});
    }
    const std::vector<FlowId> order = CanonicalFlowOrder(design);
    EXPECT_EQ(CanonicalFlowOrder(design, runs), order) << "seed " << seed;
    for (std::size_t f = 0; f < order.size(); ++f) {
      moved += order[f] == FlowId(f) ? 0 : 1;
    }
  }
  EXPECT_GT(moved, 0u);
}

TEST(CanonicalTest, FlowOrderBreaksTiesOnTheRoute) {
  // Two flows between the same cores at the same bandwidth, declared
  // with the larger route key first: the sort must swap them.
  NocDesign design;
  design.name = "ties";
  const SwitchId a = design.topology.AddSwitch("a");
  const SwitchId b = design.topology.AddSwitch("b");
  const SwitchId c = design.topology.AddSwitch("c");
  const LinkId ab = design.topology.AddLink(a, b);
  const LinkId ac = design.topology.AddLink(a, c);
  const LinkId cb = design.topology.AddLink(c, b);
  const CoreId src = design.traffic.AddCore("src");
  const CoreId dst = design.traffic.AddCore("dst");
  design.attachment = {a, b};
  design.traffic.AddFlow(src, dst, 5.0);
  design.traffic.AddFlow(src, dst, 5.0);
  design.routes.Resize(2);
  design.routes.SetRoute(FlowId(0), {*design.topology.FindChannel(ac, 0),
                                     *design.topology.FindChannel(cb, 0)});
  design.routes.SetRoute(FlowId(1), {*design.topology.FindChannel(ab, 0)});
  design.Validate();
  EXPECT_EQ(CanonicalFlowOrder(design),
            (std::vector<FlowId>{FlowId(1), FlowId(0)}));
}

TEST(CanonicalTest, TwinsTheTextCannotOrderKeepTheirOrderWhenReshipped) {
  // Two flows between the same cores whose bandwidths differ only past
  // the six significant digits the text keeps, the lower one on the
  // larger route. Both render as "100", so the route must decide: a
  // client that parses the canonical text and canonicalizes it again
  // must get the same text and the same cache key.
  NocDesign design;
  design.name = "twins";
  const SwitchId a = design.topology.AddSwitch("a");
  const SwitchId b = design.topology.AddSwitch("b");
  const SwitchId c = design.topology.AddSwitch("c");
  const LinkId ab = design.topology.AddLink(a, b);
  const LinkId ac = design.topology.AddLink(a, c);
  const LinkId cb = design.topology.AddLink(c, b);
  const CoreId src = design.traffic.AddCore("src");
  const CoreId dst = design.traffic.AddCore("dst");
  design.attachment = {a, b};
  design.traffic.AddFlow(src, dst, 100.0000002);
  design.traffic.AddFlow(src, dst, 100.0000001);
  design.routes.Resize(2);
  design.routes.SetRoute(FlowId(0), {*design.topology.FindChannel(ab, 0)});
  design.routes.SetRoute(FlowId(1), {*design.topology.FindChannel(ac, 0),
                                     *design.topology.FindChannel(cb, 0)});
  design.Validate();
  EXPECT_EQ(TextBandwidth(100.0000002), TextBandwidth(100.0000001));
  EXPECT_EQ(CanonicalFlowOrder(design),
            (std::vector<FlowId>{FlowId(0), FlowId(1)}));

  const CanonicalDesign once = CanonicalizeDesign(design);
  EXPECT_EQ(CanonicalizeDesign(once.design).text, once.text);
  EXPECT_EQ(CanonicalizeDesign(ReadDesign(once.text)).text, once.text);
  const RemovalOptions options;
  EXPECT_EQ(CanonicalDesignDigest(ReadDesign(once.text), options),
            CanonicalDesignDigest(design, options));
}

TEST(CanonicalTest, ChannelOrderIsTheParsedNumbering) {
  // Removal and hand-added VCs append channels at the end of the
  // array, out of link order; the parse numbers them link by link.
  std::size_t renumbered = 0;
  for (const std::uint64_t seed : {1ull, 4ull, 8ull, 15ull}) {
    NocDesign design = MakeRandomDesign(seed);
    RemoveDeadlocks(design);
    design.topology.AddVirtualChannel(LinkId(3));
    design.topology.AddVirtualChannel(LinkId(0));
    design.topology.AddVirtualChannel(LinkId(3));
    const std::vector<ChannelId> order =
        CanonicalChannelOrder(design.topology);
    const NocDesign parsed = ReadDesign(DesignText(design));
    ASSERT_EQ(order.size(), parsed.topology.ChannelCount());
    bool identity = true;
    for (std::size_t k = 0; k < order.size(); ++k) {
      EXPECT_EQ(design.topology.ChannelAt(order[k]),
                parsed.topology.ChannelAt(ChannelId(k)))
          << "seed " << seed << " channel " << k;
      identity = identity && order[k] == ChannelId(k);
    }
    renumbered += identity ? 0 : 1;
  }
  EXPECT_EQ(renumbered, 4u);
}

TEST(CanonicalTest, TreatedDesignsKeepSwitchAndLinkIds) {
  // A session pairs the generator's next-hop table, which names links by
  // id, with the design parsed from its treated text, and resolves fault
  // events by switch name. So through removal's VCs and the canonical
  // render and parse, every switch keeps its id and name and every link
  // its id and (src, dst); only channel and flow ids may move.
  std::vector<NocDesign> designs;
  for (const gen::TopologyFamily family : gen::AllFamilies()) {
    gen::GeneratorSpec spec;
    spec.family = family;
    spec.uniform_fanout = 4;
    designs.push_back(gen::GenerateStandardDesign(spec));
  }
  SyntheticSocSpec soc_spec;
  soc_spec.cores = 36;
  soc_spec.fanout = 4;
  const SocBenchmark soc = MakeSyntheticSoc(soc_spec);
  designs.push_back(SynthesizeDesign(soc.traffic, soc.name, 12));
  std::size_t vcs_added = 0;
  for (const NocDesign& generated : designs) {
    NocDesign treated = generated;
    vcs_added += RemoveDeadlocks(treated).vcs_added;
    const TopologyGraph& before = generated.topology;
    const TopologyGraph& after = CanonicalizeDesign(treated).design.topology;
    ASSERT_EQ(after.SwitchCount(), before.SwitchCount()) << generated.name;
    for (std::size_t s = 0; s < before.SwitchCount(); ++s) {
      EXPECT_EQ(after.SwitchName(SwitchId(s)), before.SwitchName(SwitchId(s)))
          << generated.name << " switch " << s;
    }
    ASSERT_EQ(after.LinkCount(), before.LinkCount()) << generated.name;
    for (std::size_t l = 0; l < before.LinkCount(); ++l) {
      EXPECT_EQ(after.LinkAt(LinkId(l)).src, before.LinkAt(LinkId(l)).src)
          << generated.name << " link " << l;
      EXPECT_EQ(after.LinkAt(LinkId(l)).dst, before.LinkAt(LinkId(l)).dst)
          << generated.name << " link " << l;
    }
  }
  EXPECT_GT(vcs_added, 0u);  // the canonical pass renumbered channels
}

TEST(CanonicalTest, DigestSeparatesDesignsAndOptions) {
  const NocDesign a = MakeRandomDesign(1);
  const NocDesign b = MakeRandomDesign(2);
  const RemovalOptions options;
  EXPECT_NE(CanonicalDesignDigest(a, options),
            CanonicalDesignDigest(b, options));

  RemovalOptions first_found;
  first_found.cycle_policy = CyclePolicy::kFirstFound;
  EXPECT_NE(CanonicalDesignDigest(a, options),
            CanonicalDesignDigest(a, first_found));

  RemovalOptions capped;
  capped.max_iterations = 7;
  EXPECT_NE(CanonicalDesignDigest(a, options),
            CanonicalDesignDigest(a, capped));

  EXPECT_NE(CanonicalDesignDigest(a, options, /*treat=*/true),
            CanonicalDesignDigest(a, options, /*treat=*/false));

  // The engine choice is *not* part of identity: both engines produce
  // bit-identical results, so they share cache entries.
  RemovalOptions rebuild;
  rebuild.engine = RemovalEngine::kRebuild;
  EXPECT_EQ(CanonicalDesignDigest(a, options),
            CanonicalDesignDigest(a, rebuild));
}

}  // namespace
}  // namespace nocdr
