// Unit tests for design serialization and Graphviz export.
#include "noc/io.h"

#include "util/error.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <cstdio>
#include <cstdlib>
#include <sstream>

#include "deadlock/removal.h"
#include "soc/benchmarks.h"
#include "synth/synthesizer.h"
#include "test_helpers.h"

namespace nocdr {
namespace {

/// Structural equality of two designs (names, graphs, routes).
void ExpectSameDesign(const NocDesign& a, const NocDesign& b) {
  EXPECT_EQ(a.name, b.name);
  ASSERT_EQ(a.topology.SwitchCount(), b.topology.SwitchCount());
  ASSERT_EQ(a.topology.LinkCount(), b.topology.LinkCount());
  ASSERT_EQ(a.topology.ChannelCount(), b.topology.ChannelCount());
  for (std::size_t l = 0; l < a.topology.LinkCount(); ++l) {
    EXPECT_EQ(a.topology.LinkAt(LinkId(l)).src,
              b.topology.LinkAt(LinkId(l)).src);
    EXPECT_EQ(a.topology.LinkAt(LinkId(l)).dst,
              b.topology.LinkAt(LinkId(l)).dst);
    EXPECT_EQ(a.topology.VcCount(LinkId(l)), b.topology.VcCount(LinkId(l)));
  }
  ASSERT_EQ(a.traffic.CoreCount(), b.traffic.CoreCount());
  ASSERT_EQ(a.traffic.FlowCount(), b.traffic.FlowCount());
  EXPECT_EQ(a.attachment, b.attachment);
  for (std::size_t f = 0; f < a.traffic.FlowCount(); ++f) {
    const Flow& fa = a.traffic.FlowAt(FlowId(f));
    const Flow& fb = b.traffic.FlowAt(FlowId(f));
    EXPECT_EQ(fa.src, fb.src);
    EXPECT_EQ(fa.dst, fb.dst);
    EXPECT_DOUBLE_EQ(fa.bandwidth_mbps, fb.bandwidth_mbps);
    // Channel ids may be renumbered by the reader (it materializes all
    // VCs of a link together); routes must match as (link, vc) pairs.
    const Route& ra = a.routes.RouteOf(FlowId(f));
    const Route& rb = b.routes.RouteOf(FlowId(f));
    ASSERT_EQ(ra.size(), rb.size());
    for (std::size_t h = 0; h < ra.size(); ++h) {
      EXPECT_EQ(a.topology.ChannelAt(ra[h]), b.topology.ChannelAt(rb[h]));
    }
  }
}

TEST(IoTest, RoundTripPaperExample) {
  auto ex = testing::MakePaperExample();
  std::stringstream buffer;
  WriteDesign(buffer, ex.design);
  const NocDesign loaded = ReadDesign(buffer);
  ExpectSameDesign(ex.design, loaded);
}

TEST(IoTest, RoundTripAfterRemovalKeepsExtraVcs) {
  auto ex = testing::MakePaperExample();
  RemoveDeadlocks(ex.design);
  std::stringstream buffer;
  WriteDesign(buffer, ex.design);
  const NocDesign loaded = ReadDesign(buffer);
  ExpectSameDesign(ex.design, loaded);
  EXPECT_EQ(loaded.topology.ExtraVcCount(), 1u);
  EXPECT_TRUE(IsDeadlockFree(loaded));
}

class IoRoundTripSweep : public ::testing::TestWithParam<std::uint64_t> {};

TEST_P(IoRoundTripSweep, RandomDesignsSurviveRoundTrip) {
  const auto d = testing::MakeRandomDesign(GetParam());
  std::stringstream buffer;
  WriteDesign(buffer, d);
  ExpectSameDesign(d, ReadDesign(buffer));
}

INSTANTIATE_TEST_SUITE_P(Seeds, IoRoundTripSweep,
                         ::testing::Range<std::uint64_t>(1, 11));

/// \p lines equals \p fresh, a DesignText index of the same text.
void ExpectSameLines(const DesignTextLines& lines,
                     const DesignTextLines& fresh) {
  EXPECT_EQ(lines.order, fresh.order);
  EXPECT_EQ(lines.channels, fresh.channels);
  EXPECT_EQ(lines.links, fresh.links);
  EXPECT_EQ(lines.flows, fresh.flows);
  EXPECT_EQ(lines.routes, fresh.routes);
}

/// The links of \p design that own a channel numbered \p channels_before
/// or higher.
std::size_t LinksWithChannelsFrom(const NocDesign& design,
                                  std::size_t channels_before) {
  std::vector<bool> grew(design.topology.LinkCount(), false);
  for (std::size_t c = channels_before; c < design.topology.ChannelCount();
       ++c) {
    grew[design.topology.ChannelAt(ChannelId(c)).link.value()] = true;
  }
  return static_cast<std::size_t>(std::count(grew.begin(), grew.end(), true));
}

TEST(IoTest, UpdateDesignTextEqualsAFreshRender) {
  // Removal appends VCs (or, duplicating physical links, whole links)
  // and re-routes flows. The updated text must be a fresh render byte
  // for byte, with a fresh render's line index, having rendered only
  // the lines of the links that grew and of the re-routed flows.
  std::size_t vcs_added = 0;
  for (const DuplicationMode mode :
       {DuplicationMode::kVirtualChannel, DuplicationMode::kPhysicalLink}) {
    for (std::uint64_t seed = 1; seed <= 12; ++seed) {
      NocDesign design = testing::MakeRandomDesign(seed, 10, 14, 40);
      DesignTextLines lines;
      const std::string before = DesignText(design, {}, &lines);
      RemovalOptions options;
      options.duplication = mode;
      const std::size_t channels_before = design.topology.ChannelCount();
      const RemovalReport report = RemoveDeadlocks(design, options);
      vcs_added += report.vcs_added;
      ASSERT_TRUE(std::is_sorted(report.rerouted_flows.begin(),
                                 report.rerouted_flows.end()));
      const std::string after = UpdateDesignText(before, lines, design, {},
                                                 report.rerouted_flows);
      DesignTextLines fresh;
      EXPECT_EQ(after, DesignText(design, {}, &fresh)) << "seed " << seed;
      ExpectSameLines(lines, fresh);
      EXPECT_EQ(lines.link_lines_rendered,
                LinksWithChannelsFrom(design, channels_before));
      EXPECT_EQ(lines.flow_lines_rendered, 0u);
      EXPECT_EQ(lines.route_lines_rendered, report.rerouted_flows.size());
    }
  }
  EXPECT_GT(vcs_added, 0u);
}

TEST(IoTest, UpdateDesignTextRendersTheLinesOfMovedFlows) {
  // A flow order that swaps two positions moves their flow and route
  // lines, and nothing else, when no route changed.
  const NocDesign design = testing::MakeRandomDesign(3, 8, 10, 12);
  DesignTextLines lines;
  const std::string before = DesignText(design, {}, &lines);
  std::vector<FlowId> order;
  for (std::size_t f = 0; f < design.traffic.FlowCount(); ++f) {
    order.emplace_back(f);
  }
  std::swap(order[4], order[7]);
  const std::string after = UpdateDesignText(before, lines, design, order, {});
  DesignTextLines fresh;
  EXPECT_EQ(after, DesignText(design, order, &fresh));
  ExpectSameLines(lines, fresh);
  EXPECT_EQ(lines.link_lines_rendered, 0u);
  EXPECT_EQ(lines.flow_lines_rendered, 2u);
  EXPECT_EQ(lines.route_lines_rendered, 2u);
  // The index of another design's text is refused.
  DesignTextLines other;
  const std::string other_text =
      DesignText(testing::MakeRandomDesign(4, 8, 10, 20), {}, &other);
  EXPECT_THROW(UpdateDesignText(other_text, other, design, {}, {}),
               InvalidModelError);
}

TEST(IoTest, RoundTripSynthesizedBenchmark) {
  const auto b = MakeBenchmark(SocBenchmarkId::kD26Media);
  const auto d = SynthesizeDesign(b.traffic, b.name, 9);
  std::stringstream buffer;
  WriteDesign(buffer, d);
  ExpectSameDesign(d, ReadDesign(buffer));
}

TEST(IoTest, HandWrittenFileWithComments) {
  const std::string text = R"(# tiny two-switch design
noc tiny
switch A
switch B
link A B      # link 0
link B A 2    # link 1 with an extra VC
core x A
core y B
flow x y 25.5
flow y x 10
route 0 0:0
route 1 1:1
)";
  std::istringstream is(text);
  const NocDesign d = ReadDesign(is);
  EXPECT_EQ(d.name, "tiny");
  EXPECT_EQ(d.topology.SwitchCount(), 2u);
  EXPECT_EQ(d.topology.VcCount(LinkId(1u)), 2u);
  EXPECT_DOUBLE_EQ(d.traffic.FlowAt(FlowId(0u)).bandwidth_mbps, 25.5);
  EXPECT_EQ(d.topology.ChannelAt(d.routes.RouteOf(FlowId(1u))[0]).vc, 1u);
}

TEST(IoTest, ParseErrorsCarryLineNumbers) {
  auto expect_error = [](const std::string& text,
                         const std::string& fragment) {
    std::istringstream is(text);
    try {
      ReadDesign(is);
      FAIL() << "expected DesignParseError for: " << text;
    } catch (const DesignParseError& e) {
      EXPECT_NE(std::string(e.what()).find(fragment), std::string::npos)
          << e.what();
    }
  };
  expect_error("bogus\n", "unknown keyword");
  expect_error("noc t\nswitch A\nswitch A\n", "duplicate");
  expect_error("noc t\nlink A B\n", "unknown switch");
  expect_error("noc t\nswitch A\ncore x Z\n", "unknown switch");
  expect_error("noc t\nswitch A\nswitch B\nlink A B\ncore x A\ncore y B\n"
               "flow x y 1\nroute 0 0:7\n",
               "no vc");
  expect_error("noc t\nswitch A\nswitch B\nlink A B\ncore x A\ncore y B\n"
               "flow x y 1\nroute 0 zz\n",
               "hop");
  expect_error("noc t\nswitch A\nswitch B\nlink A B\ncore x A\ncore y B\n"
               "flow x y 1\nroute 5 0:0\n",
               "bad flow index");

  // The numeric grammar (noc/io.h): a sign, a base prefix, characters
  // after the number or a value past 32 bits fails its line instead of
  // being misread ("-1" VCs once read as 2^64-1, "0:4294967296" as 0:0).
  const std::string two_switches = "noc t\nswitch A\nswitch B\n";
  for (const char* vcs : {"-1", "+2", "2x", "0x2", "x", "4294967296"}) {
    expect_error(two_switches + "link A B " + vcs + "\n", "line 4: link:");
  }
  const std::string one_flow =
      two_switches + "link A B\ncore x A\ncore y B\n";
  for (const char* bandwidth : {"5abc", "0x10", "inf", "nan", "1e400"}) {
    expect_error(one_flow + "flow x y " + bandwidth + "\nroute 0 0:0\n",
                 "line 7: flow:");
  }
  for (const char* hop : {"0:4294967296", "0:0junk", "+0:0", "0x0:0",
                          "0:-1", "0:0:0"}) {
    expect_error(one_flow + "flow x y 1\nroute 0 " + hop + "\n",
                 "line 8: route: malformed hop");
  }
  expect_error(one_flow + "flow x y 1\nroute +0 0:0\n",
               "line 8: route: bad flow index");
}

TEST(IoTest, NumberFormsTheGrammarAccepts) {
  // CRLF line ends, leading zeros, ignored trailing tokens, a signed
  // bandwidth, a fraction with no integer digits, and a bandwidth that
  // underflows to zero.
  const std::string text =
      "noc t\r\nswitch A\r\nswitch B\r\nlink A B 02 ignored\r\n"
      "core x A\r\ncore y B\r\ncore z A\r\n"
      "flow x y +5\r\nflow x z 1e-400\r\nflow z y .25E1\r\n"
      "flow z x -0\r\n"
      "route 0 0:01\r\nroute 1\r\nroute 00002 000:0\r\nroute 3\r\n";
  EXPECT_EQ(DesignText(ReadDesign(text)),
            "noc t\nswitch A\nswitch B\nlink A B 2\n"
            "core x A\ncore y B\ncore z A\n"
            "flow x y 5\nflow x z 0\nflow z y 2.5\nflow z x -0\n"
            "route 0 0:1\nroute 1\nroute 2 0:0\nroute 3\n");
}

TEST(IoTest, TextBandwidthIsTheValueTheTextStores) {
  // Oracle: printf's "%g" (6 significant digits) read back by strtod.
  const auto stored = [](double mbps) {
    char text[32];
    std::snprintf(text, sizeof text, "%g", mbps);
    return std::strtod(text, nullptr);
  };
  // Values on, and either side of, the points where the sixth digit
  // rounds, and values that differ only past it.
  for (const double base : {0.0, 1e-290, 3.3e-7, 0.001234, 1.0, 99.99995,
                            100.0, 123456.5, 999999.5, 1e9, 1.7e300}) {
    for (const double delta : {0.0, 1e-9, 4e-7, 5e-6}) {
      for (const double mbps : {base * (1 + delta), base * (1 - delta)}) {
        EXPECT_EQ(TextBandwidth(mbps), stored(mbps)) << mbps;
      }
    }
  }
}

TEST(IoTest, MissingRouteIsAnError) {
  const std::string text =
      "noc t\nswitch A\nswitch B\nlink A B\ncore x A\ncore y B\n"
      "flow x y 1\n";
  std::istringstream is(text);
  EXPECT_THROW(ReadDesign(is), DesignParseError);
}

TEST(IoTest, InvalidRouteFailsValidation) {
  // Parseable but structurally wrong: route does not reach the flow's
  // destination switch.
  const std::string text =
      "noc t\nswitch A\nswitch B\nswitch C\nlink A B\nlink B C\n"
      "core x A\ncore y C\nflow x y 1\nroute 0 0:0\n";
  std::istringstream is(text);
  EXPECT_THROW(ReadDesign(is), InvalidModelError);
}

TEST(IoTest, TopologyDotMentionsSwitchesAndVcCounts) {
  auto ex = testing::MakePaperExample();
  RemoveDeadlocks(ex.design);
  std::ostringstream os;
  WriteTopologyDot(os, ex.design);
  const std::string dot = os.str();
  EXPECT_NE(dot.find("digraph topology"), std::string::npos);
  EXPECT_NE(dot.find("SW1"), std::string::npos);
  EXPECT_NE(dot.find("x2"), std::string::npos);  // the duplicated link
}

TEST(IoTest, CdgDotMentionsChannelsAndFlows) {
  auto ex = testing::MakePaperExample();
  std::ostringstream os;
  WriteCdgDot(os, ex.design);
  const std::string dot = os.str();
  EXPECT_NE(dot.find("digraph cdg"), std::string::npos);
  EXPECT_NE(dot.find("SW1->SW2.vc0"), std::string::npos);
  EXPECT_NE(dot.find("F0"), std::string::npos);
}

}  // namespace
}  // namespace nocdr
