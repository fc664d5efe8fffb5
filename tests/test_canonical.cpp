// util/canonical: canonical design rendering and content-addressed
// digesting — the primitive the certification service keys its cache by
// and the shrinker validates repros against. CanonicalizeDesign builds
// its design in memory; the differential tests at the end hold it to
// the text round trip it replaced, on seeds and on seeded mutants.
#include "util/canonical.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <bit>
#include <cfloat>
#include <cstdint>
#include <limits>
#include <optional>
#include <sstream>
#include <string>
#include <vector>

#include "deadlock/removal.h"
#include "gen/generators.h"
#include "noc/io.h"
#include "soc/synthetic.h"
#include "synth/route_builder.h"
#include "synth/synthesizer.h"
#include "test_helpers.h"
#include "util/error.h"
#include "util/rng.h"

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
}

// --------------------------------------------- differential: round trip

/// The oracle: \p design rendered in canonical flow order and parsed
/// back, with that text; nullopt where the round trip throws or its parse
/// does not re-render to the text it read.
std::optional<CanonicalDesign> RoundTrip(const NocDesign& design) {
  try {
    CanonicalDesign out;
    out.text = DesignText(design, CanonicalFlowOrder(design));
    out.design = ReadDesign(out.text);
    if (DesignText(out.design) != out.text) {
      return std::nullopt;
    }
    return out;
  } catch (const std::exception&) {
    return std::nullopt;
  }
}

/// Asserts that CanonicalizeDesign(\p design) gives the round trip's text
/// and design, bandwidth bits included, or throws InvalidModelError where
/// the round trip throws. Returns whether the round trip succeeded.
bool ExpectRoundTripOutcome(const NocDesign& design, const std::string& what) {
  const std::optional<CanonicalDesign> oracle = RoundTrip(design);
  if (!oracle) {
    EXPECT_THROW((void)CanonicalizeDesign(design), InvalidModelError) << what;
    return false;
  }
  CanonicalDesign canonical;
  try {
    canonical = CanonicalizeDesign(design);
  } catch (const std::exception& e) {
    ADD_FAILURE() << what << ": threw " << e.what();
    return true;
  }
  EXPECT_EQ(canonical.text, oracle->text) << what;
  EXPECT_TRUE(canonical.design == oracle->design) << what;
  const CommunicationGraph& traffic = canonical.design.traffic;
  for (std::size_t f = 0; f < traffic.FlowCount(); ++f) {
    EXPECT_EQ(
        std::bit_cast<std::uint64_t>(traffic.FlowAt(FlowId(f)).bandwidth_mbps),
        std::bit_cast<std::uint64_t>(
            oracle->design.traffic.FlowAt(FlowId(f)).bandwidth_mbps))
        << what << " flow " << f;
  }
  return true;
}

/// Whether CanonicalChannelOrder(\p topology) is the identity.
bool IsLinkMajor(const TopologyGraph& topology) {
  const std::vector<ChannelId> order = CanonicalChannelOrder(topology);
  for (std::size_t k = 0; k < order.size(); ++k) {
    if (order[k] != ChannelId(k)) {
      return false;
    }
  }
  return true;
}

/// Every family, the paper example and two synthetic SoCs, each untreated
/// and treated, plus tied flows and VCs appended out of link order.
std::vector<NocDesign> CanonicalSeeds() {
  std::vector<NocDesign> untreated;
  untreated.push_back(MakePaperExample().design);
  for (const gen::TopologyFamily family : gen::AllFamilies()) {
    gen::GeneratorSpec spec;
    spec.family = family;
    spec.width = 4;
    spec.height = 5;
    spec.ring_nodes = 8;
    spec.tree_arity = 2;
    spec.tree_levels = 3;
    spec.uniform_fanout = 3;
    untreated.push_back(gen::GenerateStandardDesign(spec));
  }
  for (const std::uint64_t seed : {3ull, 9ull}) {
    SyntheticSocSpec soc_spec;
    soc_spec.cores = 36;
    soc_spec.fanout = 4;
    soc_spec.seed = seed;
    const SocBenchmark soc = MakeSyntheticSoc(soc_spec);
    untreated.push_back(SynthesizeDesign(soc.traffic, soc.name, 12));
  }
  untreated.push_back(WithTiedTwins(MakeRandomDesign(1)));
  untreated.push_back(MakeRandomDesign(8));
  std::vector<NocDesign> seeds;
  for (const NocDesign& design : untreated) {
    seeds.push_back(design);
    NocDesign treated = design;
    RemoveDeadlocks(treated);
    seeds.push_back(std::move(treated));
  }
  NocDesign appended = MakeRandomDesign(15);
  RemoveDeadlocks(appended);
  appended.topology.AddVirtualChannel(LinkId(3));
  appended.topology.AddVirtualChannel(LinkId(0));
  appended.topology.AddVirtualChannel(LinkId(3));
  seeds.push_back(std::move(appended));
  return seeds;
}

/// What a mutant may change: the names and the bandwidths.
struct Labels {
  std::string name;
  std::vector<std::string> switches;
  std::vector<std::string> cores;
  std::vector<double> bandwidths;
};

Labels LabelsOf(const NocDesign& design) {
  Labels labels{design.name, {}, {}, {}};
  for (std::size_t s = 0; s < design.topology.SwitchCount(); ++s) {
    labels.switches.push_back(design.topology.SwitchName(SwitchId(s)));
  }
  for (std::size_t c = 0; c < design.traffic.CoreCount(); ++c) {
    labels.cores.push_back(design.traffic.CoreName(CoreId(c)));
  }
  for (std::size_t f = 0; f < design.traffic.FlowCount(); ++f) {
    labels.bandwidths.push_back(
        design.traffic.FlowAt(FlowId(f)).bandwidth_mbps);
  }
  return labels;
}

/// \p design with \p labels, its channel ids kept: the channels are
/// added again in id order, each VC where it was appended.
NocDesign Relabeled(const NocDesign& design, const Labels& labels) {
  NocDesign out;
  out.name = labels.name;
  for (const std::string& name : labels.switches) {
    out.topology.AddSwitch(name);
  }
  for (std::size_t k = 0; k < design.topology.ChannelCount(); ++k) {
    const Channel& channel = design.topology.ChannelAt(ChannelId(k));
    if (channel.vc == 0) {
      const Link& link = design.topology.LinkAt(channel.link);
      out.topology.AddLink(link.src, link.dst);
    } else {
      out.topology.AddVirtualChannel(channel.link);
    }
  }
  for (const std::string& name : labels.cores) {
    out.traffic.AddCore(name);
  }
  for (std::size_t f = 0; f < design.traffic.FlowCount(); ++f) {
    const Flow& flow = design.traffic.FlowAt(FlowId(f));
    out.traffic.AddFlow(flow.src, flow.dst, labels.bandwidths[f]);
  }
  out.attachment = design.attachment;
  out.routes = design.routes;
  return out;
}

TEST(CanonicalTest, SeedsGiveTheRoundTripsTextAndDesign) {
  std::size_t renumbered = 0;
  for (const NocDesign& seed : CanonicalSeeds()) {
    ASSERT_TRUE(Relabeled(seed, LabelsOf(seed)) == seed) << seed.name;
    EXPECT_TRUE(ExpectRoundTripOutcome(seed, seed.name)) << seed.name;
    renumbered += IsLinkMajor(seed.topology) ? 0 : 1;
  }
  // Treated designs whose VCs removal appended out of link order.
  EXPECT_GE(renumbered, 6u);
}

TEST(CanonicalTest, MutantsGetTheRoundTripsOutcome) {
  const char separators[] = {' ', '\t', '\r', '\n', '\v', '\f', '#'};
  const double bandwidths[] = {std::numeric_limits<double>::infinity(),
                               -0.0,
                               5e-324,
                               1e21,
                               0.1234567,
                               DBL_MAX};
  Rng rng(20261019);
  std::size_t accepted = 0;
  std::size_t rejected = 0;
  for (const NocDesign& seed : CanonicalSeeds()) {
    for (int trial = 0; trial < 60; ++trial) {
      Labels labels = LabelsOf(seed);
      std::string what = seed.name + " trial " + std::to_string(trial) + ":";
      const std::uint64_t mutations = 1 + rng.NextBelow(2);
      for (std::uint64_t m = 0; m < mutations; ++m) {
        std::vector<std::string>& names =
            rng.NextBool(0.5) ? labels.switches : labels.cores;
        const std::size_t i = rng.NextBelow(names.size());
        switch (rng.NextBelow(6)) {
          case 0: {  // a separator or '#' in a switch or core name
            const char c = separators[rng.NextBelow(std::size(separators))];
            names[i].insert(rng.NextBelow(names[i].size() + 1), 1, c);
            what += " separator in a name;";
            break;
          }
          case 1:  // empty: the graph names it SW<n> or core<n>
            names[i].clear();
            what += " empty name;";
            break;
          case 2:
            names[i] = names[rng.NextBelow(names.size())];
            what += " duplicate name;";
            break;
          case 3:
            labels.name.clear();
            what += " empty design name;";
            break;
          case 4:
            labels.name.insert(rng.NextBelow(labels.name.size() + 1), 1, ' ');
            what += " design name with a space;";
            break;
          default: {
            const std::size_t f = rng.NextBelow(labels.bandwidths.size());
            labels.bandwidths[f] =
                bandwidths[rng.NextBelow(std::size(bandwidths))];
            what += " bandwidth;";
            break;
          }
        }
      }
      const bool ok = ExpectRoundTripOutcome(Relabeled(seed, labels), what);
      ++(ok ? accepted : rejected);
    }
  }
  // Both outcomes are exercised, so agreement is not vacuous.
  EXPECT_GT(accepted, 300u);
  EXPECT_GT(rejected, 500u);
}

}  // namespace
}  // namespace nocdr
