// Differential mutation test of the design text codec (noc/io), the
// first target of the parser-fuzzing roadmap item. The reference is the
// istream-based reader and writer the string codec replaced, copied
// verbatim. Seeded mutations of real design texts must get the same
// outcome from both readers, and the same text from both writers,
// except where the numeric grammar of noc/io.h deliberately rejects what
// the reference misread. Those mutations are tagged and run on the new
// reader only: the reference reads "link A B -1" as 2^64-1 VCs and
// allocates until memory runs out.
#include <gtest/gtest.h>

#include <algorithm>
#include <bit>
#include <cfloat>
#include <cmath>
#include <cstdint>
#include <istream>
#include <limits>
#include <map>
#include <optional>
#include <sstream>
#include <string>
#include <vector>

#include "deadlock/removal.h"
#include "gen/generators.h"
#include "noc/io.h"
#include "soc/synthetic.h"
#include "synth/synthesizer.h"
#include "test_helpers.h"
#include "util/error.h"
#include "util/rng.h"

namespace nocdr {
namespace {

// ------------------------------------------------------------ reference

void ReferenceWriteDesign(std::ostream& os, const NocDesign& design) {
  os << "noc " << (design.name.empty() ? "unnamed" : design.name) << "\n";
  const TopologyGraph& topo = design.topology;
  for (std::size_t s = 0; s < topo.SwitchCount(); ++s) {
    os << "switch " << topo.SwitchName(SwitchId(s)) << "\n";
  }
  for (std::size_t l = 0; l < topo.LinkCount(); ++l) {
    const Link& link = topo.LinkAt(LinkId(l));
    os << "link " << topo.SwitchName(link.src) << " "
       << topo.SwitchName(link.dst);
    const std::size_t vcs = topo.VcCount(LinkId(l));
    if (vcs != 1) {
      os << " " << vcs;
    }
    os << "\n";
  }
  const CommunicationGraph& traffic = design.traffic;
  for (std::size_t c = 0; c < traffic.CoreCount(); ++c) {
    os << "core " << traffic.CoreName(CoreId(c)) << " "
       << topo.SwitchName(design.SwitchOf(CoreId(c))) << "\n";
  }
  for (std::size_t f = 0; f < traffic.FlowCount(); ++f) {
    const Flow& flow = traffic.FlowAt(FlowId(f));
    os << "flow " << traffic.CoreName(flow.src) << " "
       << traffic.CoreName(flow.dst) << " " << flow.bandwidth_mbps << "\n";
  }
  for (std::size_t f = 0; f < traffic.FlowCount(); ++f) {
    os << "route " << f;
    for (ChannelId c : design.routes.RouteOf(FlowId(f))) {
      const Channel& ch = topo.ChannelAt(c);
      os << " " << ch.link.value() << ":" << ch.vc;
    }
    os << "\n";
  }
}

[[noreturn]] void ReferenceFail(std::size_t line, const std::string& message) {
  throw DesignParseError("line " + std::to_string(line) + ": " + message);
}

NocDesign ReferenceReadDesign(std::istream& is) {
  NocDesign design;
  std::map<std::string, SwitchId> switch_by_name;
  std::map<std::string, CoreId> core_by_name;
  std::size_t routes_seen = 0;

  std::string raw;
  std::size_t line_no = 0;
  while (std::getline(is, raw)) {
    ++line_no;
    const auto hash = raw.find('#');
    if (hash != std::string::npos) {
      raw.erase(hash);
    }
    std::istringstream line(raw);
    std::string keyword;
    if (!(line >> keyword)) {
      continue;  // blank or comment-only
    }
    if (keyword == "noc") {
      if (!(line >> design.name)) {
        ReferenceFail(line_no, "noc: missing name");
      }
    } else if (keyword == "switch") {
      std::string name;
      if (!(line >> name)) {
        ReferenceFail(line_no, "switch: missing name");
      }
      if (switch_by_name.contains(name)) {
        ReferenceFail(line_no, "switch: duplicate name '" + name + "'");
      }
      switch_by_name.emplace(name, design.topology.AddSwitch(name));
    } else if (keyword == "link") {
      std::string src, dst;
      if (!(line >> src >> dst)) {
        ReferenceFail(line_no, "link: expected two switch names");
      }
      const auto si = switch_by_name.find(src);
      const auto di = switch_by_name.find(dst);
      if (si == switch_by_name.end() || di == switch_by_name.end()) {
        ReferenceFail(line_no, "link: unknown switch");
      }
      const LinkId l = design.topology.AddLink(si->second, di->second);
      std::size_t vcs = 1;
      if (line >> vcs) {
        if (vcs < 1) {
          ReferenceFail(line_no, "link: vc count must be >= 1");
        }
        for (std::size_t v = 1; v < vcs; ++v) {
          design.topology.AddVirtualChannel(l);
        }
      }
    } else if (keyword == "core") {
      std::string name, sw;
      if (!(line >> name >> sw)) {
        ReferenceFail(line_no, "core: expected name and switch");
      }
      const auto si = switch_by_name.find(sw);
      if (si == switch_by_name.end()) {
        ReferenceFail(line_no, "core: unknown switch '" + sw + "'");
      }
      if (core_by_name.contains(name)) {
        ReferenceFail(line_no, "core: duplicate name '" + name + "'");
      }
      core_by_name.emplace(name, design.traffic.AddCore(name));
      design.attachment.push_back(si->second);
    } else if (keyword == "flow") {
      std::string src, dst;
      double bandwidth = 0.0;
      if (!(line >> src >> dst >> bandwidth)) {
        ReferenceFail(line_no, "flow: expected two cores and a bandwidth");
      }
      const auto si = core_by_name.find(src);
      const auto di = core_by_name.find(dst);
      if (si == core_by_name.end() || di == core_by_name.end()) {
        ReferenceFail(line_no, "flow: unknown core");
      }
      design.traffic.AddFlow(si->second, di->second, bandwidth);
      design.routes.Resize(design.traffic.FlowCount());
    } else if (keyword == "route") {
      std::size_t flow_index = 0;
      if (!(line >> flow_index) ||
          flow_index >= design.traffic.FlowCount()) {
        ReferenceFail(line_no, "route: bad flow index");
      }
      Route route;
      std::string hop;
      while (line >> hop) {
        const auto colon = hop.find(':');
        if (colon == std::string::npos) {
          ReferenceFail(line_no, "route: hop must be <link>:<vc>");
        }
        std::size_t link_index = 0, vc = 0;
        try {
          link_index = std::stoul(hop.substr(0, colon));
          vc = std::stoul(hop.substr(colon + 1));
        } catch (const std::exception&) {
          ReferenceFail(line_no, "route: malformed hop '" + hop + "'");
        }
        if (link_index >= design.topology.LinkCount()) {
          ReferenceFail(line_no,
                        "route: unknown link " + std::to_string(link_index));
        }
        const auto channel = design.topology.FindChannel(
            LinkId(link_index), static_cast<std::uint32_t>(vc));
        if (!channel) {
          ReferenceFail(line_no, "route: link " + std::to_string(link_index) +
                                     " has no vc " + std::to_string(vc));
        }
        route.push_back(*channel);
      }
      design.routes.SetRoute(FlowId(flow_index), std::move(route));
      ++routes_seen;
    } else {
      ReferenceFail(line_no, "unknown keyword '" + keyword + "'");
    }
  }
  if (routes_seen != design.traffic.FlowCount()) {
    throw DesignParseError("missing route lines: " +
                           std::to_string(routes_seen) + " of " +
                           std::to_string(design.traffic.FlowCount()));
  }
  design.Validate();
  return design;
}

std::string ReferenceDesignText(const NocDesign& design) {
  std::ostringstream out;
  ReferenceWriteDesign(out, design);
  return out.str();
}

// -------------------------------------------------------------- outcome

enum class Kind { kOk, kParseError, kModelError };

struct Outcome {
  Kind kind = Kind::kOk;
  std::string text;  // DesignText on success, else the error message
};

template <typename Read>
Outcome Run(const Read& read) {
  try {
    return Outcome{Kind::kOk, DesignText(read())};
  } catch (const DesignParseError& e) {
    return Outcome{Kind::kParseError, e.what()};
  } catch (const InvalidModelError& e) {
    return Outcome{Kind::kModelError, e.what()};
  }
}

Outcome RunNew(const std::string& text) {
  return Run([&] { return ReadDesign(text); });
}

Outcome RunReference(const std::string& text) {
  return Run([&] {
    std::istringstream in(text);
    return ReferenceReadDesign(in);
  });
}

/// "line N" of a parse error ("missing route lines" has none).
std::string LineOf(const std::string& message) {
  return message.substr(0, message.find(':'));
}

// ---------------------------------------------------------- the grammar

using Line = std::vector<std::string>;

bool IsSpace(char c) {
  return c == ' ' || c == '\t' || c == '\n' || c == '\v' || c == '\f' ||
         c == '\r';
}

/// The tokens of every line of \p text, split as the reader splits them.
std::vector<Line> Tokenize(const std::string& text) {
  std::vector<Line> lines;
  std::istringstream in(text);
  std::string raw;
  while (std::getline(in, raw)) {
    raw = raw.substr(0, raw.find('#'));
    Line& line = lines.emplace_back();
    std::string token;
    for (const char c : raw + ' ') {
      if (!IsSpace(c)) {
        token += c;
      } else if (!token.empty()) {
        line.push_back(token);
        token.clear();
      }
    }
  }
  return lines;
}

std::string Render(const std::vector<Line>& lines) {
  std::string text;
  for (const Line& line : lines) {
    for (std::size_t i = 0; i < line.size(); ++i) {
      text += (i ? " " : "") + line[i];
    }
    text += '\n';
  }
  return text;
}

enum class Field { kNone, kVcCount, kBandwidth, kFlowIndex, kHop };

Field FieldOf(const Line& line, std::size_t i) {
  if (line.empty()) {
    return Field::kNone;
  }
  if (line[0] == "link" && i == 3) {
    return Field::kVcCount;
  }
  if (line[0] == "flow" && i == 3) {
    return Field::kBandwidth;
  }
  if (line[0] == "route") {
    return i == 1 ? Field::kFlowIndex : i >= 2 ? Field::kHop : Field::kNone;
  }
  return Field::kNone;
}

/// The new grammar's integer: all decimal digits, at most 2^32-1.
std::optional<std::uint64_t> StrictInteger(const std::string& token) {
  if (token.empty() ||
      token.find_first_not_of("0123456789") != std::string::npos) {
    return std::nullopt;
  }
  const std::size_t first = token.find_first_not_of('0');
  if (first != std::string::npos && token.size() - first > 10) {
    return std::nullopt;
  }
  const std::uint64_t value = std::stoull(token);
  if (value > std::numeric_limits<std::uint32_t>::max()) {
    return std::nullopt;
  }
  return value;
}

/// Mutants with a VC count this large are parsed by neither reader: both
/// would allocate that many channels.
constexpr std::uint64_t kMaxVcCount = 1 << 12;

enum class Tag {
  kOrdinary,    // both readers must agree
  kTightening,  // the new reader must reject; the reference may misread
  kOversized,   // a VC count of at least kMaxVcCount: parse with neither
};

/// kTightening when \p text has a numeric token the reference reads
/// leniently (a sign, a base prefix, trailing characters, a value past
/// 32 bits) and the new grammar rejects. Over-approximates for integers:
/// an integer token that is not strict is tagged even where the
/// reference rejects it too.
Tag Classify(const std::string& text) {
  Tag tag = Tag::kOrdinary;
  for (const Line& line : Tokenize(text)) {
    for (std::size_t i = 0; i < line.size(); ++i) {
      const std::string& token = line[i];
      switch (FieldOf(line, i)) {
        case Field::kNone:
          break;
        case Field::kVcCount: {
          const auto vcs = StrictInteger(token);
          if (vcs && *vcs >= kMaxVcCount) {
            return Tag::kOversized;
          }
          if (!vcs) {
            tag = Tag::kTightening;
          }
          break;
        }
        case Field::kFlowIndex:
          if (!StrictInteger(token)) {
            tag = Tag::kTightening;
          }
          break;
        case Field::kHop: {
          const std::size_t colon = token.find(':');
          if (colon != std::string::npos &&
              (!StrictInteger(token.substr(0, colon)) ||
               !StrictInteger(token.substr(colon + 1)))) {
            tag = Tag::kTightening;
          }
          break;
        }
        case Field::kBandwidth: {
          // The reference stops at the first character that cannot
          // continue a number and ignores the rest of the token.
          std::istringstream in(token);
          double value = 0.0;
          if ((in >> value) && in.peek() != std::char_traits<char>::eof()) {
            tag = Tag::kTightening;
          }
          break;
        }
      }
    }
  }
  return tag;
}

// ------------------------------------------------------------- variants

const std::vector<std::string> kIntegerVariants = {
    "0", "1", "2", "3", "00", "01", "007", "12", "4294967295"};
const std::vector<std::string> kVcCountVariants = {"0",  "1",  "2", "3",
                                                   "00", "02", "12"};
const std::vector<std::string> kBandwidthVariants = {
    "0",       "1",        "+5",        "-0",
    ".5",      "5.",       "1e3",       "2.5E-2",
    "1e+2",    "1e-400",   "-1e-400",   "4.9e-324",
    "1e308",   "-1",       "inf",       "nan",
    "-inf",    "infinity", "1e400",     "-1e400",
    "1e",      ".",        "-",         "+",
    "abc",     "+-5",      "++5",       "e5",
    "1e+",     "007.50",   "123456789", "0.000001",
    "2.4703282292062327e-324",          "2.4703282292062328e-324",
    "1.7976931348623158e308",           "1.7976931348623159e308"};

/// Numeric forms the reference misread and the new grammar rejects.
const std::vector<std::string> kIntegerTightenings = {
    "-1", "+1",  "1x",         "0x1",   "1.0",
    "x",  "-0",  "4294967296", "18446744073709551617"};
const std::vector<std::string> kBandwidthTightenings = {
    "5abc", "0x10", "1e5x", "1,5", "2.5.5"};

template <typename T>
const T& Pick(Rng& rng, const std::vector<T>& items) {
  return items[rng.NextBelow(items.size())];
}

/// One numeric field of a design text: its line, token index and kind.
struct NumericSlot {
  std::size_t line = 0;
  std::size_t token = 0;
  Field field = Field::kNone;
};

std::vector<NumericSlot> NumericSlots(const std::vector<Line>& lines) {
  std::vector<NumericSlot> slots;
  for (std::size_t l = 0; l < lines.size(); ++l) {
    // A link line without a VC count gains one at index 3.
    const std::size_t end =
        !lines[l].empty() && lines[l][0] == "link" ? 4 : lines[l].size();
    for (std::size_t t = 0; t < std::max(end, lines[l].size()); ++t) {
      const Field field = FieldOf(lines[l], t);
      if (field != Field::kNone) {
        slots.push_back(NumericSlot{l, t, field});
      }
    }
  }
  return slots;
}

/// Sets the slot's token to \p value (for a hop, one side of it).
void SetSlot(std::vector<Line>& lines, const NumericSlot& slot,
             const std::string& value, Rng& rng) {
  Line& line = lines[slot.line];
  if (slot.token >= line.size()) {
    line.resize(slot.token + 1);
  }
  std::string& token = line[slot.token];
  if (slot.field != Field::kHop) {
    token = value;
    return;
  }
  const std::size_t colon = token.find(':');
  const std::string link = token.substr(0, colon);
  const std::string vc =
      colon == std::string::npos ? "0" : token.substr(colon + 1);
  token = rng.NextBool(0.5) ? value + ":" + vc : link + ":" + value;
}

std::string OrdinaryVariant(Rng& rng, Field field) {
  switch (field) {
    case Field::kVcCount:
      return Pick(rng, kVcCountVariants);
    case Field::kBandwidth:
      return Pick(rng, kBandwidthVariants);
    default:
      return Pick(rng, kIntegerVariants);
  }
}

std::string TighteningVariant(Rng& rng, Field field,
                              const std::string& original) {
  if (field == Field::kBandwidth) {
    const std::string suffixed = original + "abc";
    return rng.NextBool(0.3) ? suffixed : Pick(rng, kBandwidthTightenings);
  }
  return Pick(rng, kIntegerTightenings);
}

/// A token position anywhere in \p lines, if there is one.
std::optional<std::pair<std::size_t, std::size_t>> AnyToken(
    Rng& rng, const std::vector<Line>& lines) {
  for (int attempt = 0; attempt < 16; ++attempt) {
    const std::size_t l = rng.NextBelow(lines.size());
    if (!lines[l].empty()) {
      return std::make_pair(l, rng.NextBelow(lines[l].size()));
    }
  }
  return std::nullopt;
}

/// One ordinary mutation of \p lines: token or line deletion,
/// duplication or swap, or (four times in ten) a numeric token set to an
/// ordinary variant.
void MutateOnce(Rng& rng, std::vector<Line>& lines) {
  if (lines.empty()) {
    return;
  }
  const auto a = AnyToken(rng, lines);
  const auto b = AnyToken(rng, lines);
  const std::size_t la = rng.NextBelow(lines.size());
  const std::size_t lb = rng.NextBelow(lines.size());
  switch (rng.NextBelow(10)) {
    case 0:
      if (a) {
        lines[a->first].erase(lines[a->first].begin() + a->second);
      }
      break;
    case 1:
      if (a) {
        Line& line = lines[a->first];
        line.insert(line.begin() + a->second, line[a->second]);
      }
      break;
    case 2:
      if (a && b) {
        std::swap(lines[a->first][a->second], lines[b->first][b->second]);
      }
      break;
    case 3:
      lines.erase(lines.begin() + la);
      break;
    case 4:
      lines.insert(lines.begin() + la, lines[la]);
      break;
    case 5:
      std::swap(lines[la], lines[lb]);
      break;
    default: {
      const auto slots = NumericSlots(lines);
      if (!slots.empty()) {
        const NumericSlot& slot = Pick(rng, slots);
        SetSlot(lines, slot, OrdinaryVariant(rng, slot.field), rng);
      }
      break;
    }
  }
}

/// Whitespace and comment forms the grammar treats alike: tabs and
/// other separators, CRLF line ends, comments.
std::string Respace(Rng& rng, std::string text) {
  const char separators[] = {'\t', '\v', '\f', '\r'};
  for (char& c : text) {
    if (c == ' ' && rng.NextBool(0.05)) {
      c = separators[rng.NextBelow(4)];
    }
  }
  std::string out;
  for (const char c : text) {
    if (c == '\n' && rng.NextBool(0.1)) {
      out += rng.NextBool(0.5) ? "\r" : "  # note";
    }
    out += c;
  }
  return out;
}

// ---------------------------------------------------------------- seeds

std::vector<NocDesign> SeedDesigns() {
  std::vector<NocDesign> seeds;
  seeds.push_back(testing::MakePaperExample().design);
  NocDesign treated = testing::MakePaperExample().design;
  RemoveDeadlocks(treated);
  seeds.push_back(treated);
  for (const gen::TopologyFamily family : gen::AllFamilies()) {
    gen::GeneratorSpec spec;
    spec.family = family;
    spec.width = 3;
    spec.height = 3;
    spec.ring_nodes = 5;
    spec.tree_arity = 2;
    spec.tree_levels = 2;
    spec.uniform_fanout = 2;
    NocDesign design = gen::GenerateStandardDesign(spec);
    seeds.push_back(design);
    RemoveDeadlocks(design);
    seeds.push_back(design);
  }
  SyntheticSocSpec soc_spec;
  soc_spec.cores = 12;
  soc_spec.fanout = 2;
  soc_spec.hubs = 1;
  soc_spec.pipeline_length = 3;
  const SocBenchmark soc = MakeSyntheticSoc(soc_spec);
  NocDesign synthesized = SynthesizeDesign(soc.traffic, soc.name, 4);
  seeds.push_back(synthesized);
  RemoveDeadlocks(synthesized);
  seeds.push_back(synthesized);
  return seeds;
}

// ---------------------------------------------------------------- tests

TEST(IoFuzzTest, SeedsReadAndWriteAlikeInBothCodecs) {
  for (const NocDesign& seed : SeedDesigns()) {
    const std::string text = DesignText(seed);
    ASSERT_EQ(text, ReferenceDesignText(seed)) << seed.name;
    const Outcome fresh = RunNew(text);
    const Outcome reference = RunReference(text);
    ASSERT_EQ(fresh.kind, Kind::kOk) << fresh.text;
    EXPECT_EQ(fresh.text, reference.text) << seed.name;
    EXPECT_EQ(fresh.text, text) << seed.name;
  }
}

TEST(IoFuzzTest, MutantsGetTheReferenceOutcome) {
  std::map<Kind, std::size_t> compared;
  std::size_t tagged = 0;
  Rng rng(20260101);
  for (const NocDesign& seed : SeedDesigns()) {
    const std::vector<Line> seed_lines = Tokenize(DesignText(seed));
    for (int trial = 0; trial < 400; ++trial) {
      std::vector<Line> lines = seed_lines;
      const std::uint64_t mutations = 1 + rng.NextBelow(3);
      for (std::uint64_t m = 0; m < mutations; ++m) {
        MutateOnce(rng, lines);
      }
      const std::string text =
          rng.NextBool(0.3) ? Respace(rng, Render(lines)) : Render(lines);
      const Tag tag = Classify(text);
      if (tag == Tag::kOversized) {
        continue;
      }
      const Outcome fresh = RunNew(text);
      if (tag == Tag::kTightening) {
        // The reference may misread (or never finish) this one.
        ++tagged;
        EXPECT_NE(fresh.kind, Kind::kOk) << text;
        continue;
      }
      const Outcome reference = RunReference(text);
      ++compared[reference.kind];
      ASSERT_EQ(fresh.kind, reference.kind)
          << "new: " << fresh.text << "\nreference: " << reference.text
          << "\ntext:\n"
          << text;
      if (fresh.kind == Kind::kOk) {
        ASSERT_EQ(fresh.text, reference.text) << text;
        std::istringstream in(text);
        ASSERT_EQ(fresh.text, ReferenceDesignText(ReferenceReadDesign(in)));
      } else if (fresh.kind == Kind::kParseError) {
        ASSERT_EQ(LineOf(fresh.text), LineOf(reference.text))
            << fresh.text << " vs " << reference.text;
      } else {
        ASSERT_EQ(fresh.text, reference.text);
      }
    }
  }
  // Every outcome is exercised, so agreement is not vacuous.
  EXPECT_GT(compared[Kind::kOk], 200u);
  EXPECT_GT(compared[Kind::kParseError], 1000u);
  EXPECT_GT(compared[Kind::kModelError], 200u);
  EXPECT_GT(tagged, 100u);
}

TEST(IoFuzzTest, TighteningsAreLineNumberedParseErrors) {
  Rng rng(20260102);
  std::size_t checked = 0;
  for (const NocDesign& seed : SeedDesigns()) {
    const std::vector<Line> seed_lines = Tokenize(DesignText(seed));
    const std::vector<NumericSlot> slots = NumericSlots(seed_lines);
    for (int trial = 0; trial < 60; ++trial) {
      std::vector<Line> lines = seed_lines;
      const NumericSlot& slot = Pick(rng, slots);
      const std::string original = slot.token < lines[slot.line].size()
                                       ? lines[slot.line][slot.token]
                                       : "";
      SetSlot(lines, slot, TighteningVariant(rng, slot.field, original),
              rng);
      const std::string text = Render(lines);
      ASSERT_EQ(Classify(text), Tag::kTightening) << text;
      const Outcome fresh = RunNew(text);
      ASSERT_EQ(fresh.kind, Kind::kParseError)
          << fresh.text << "\nline: " << Render({lines[slot.line]});
      EXPECT_EQ(LineOf(fresh.text),
                "line " + std::to_string(slot.line + 1));
      ++checked;
    }
  }
  EXPECT_GT(checked, 500u);
}

TEST(IoFuzzTest, BandwidthTextMatchesOstream) {
  std::vector<double> values = {0.0,
                                -0.0,
                                0.1,
                                1e-5,
                                1e6,
                                1e21,
                                std::numeric_limits<double>::denorm_min(),
                                DBL_MIN,
                                DBL_MAX,
                                999999.5,
                                9999995.0,
                                0.0001,
                                123456.5};
  Rng rng(20260103);
  while (values.size() < 100000) {
    if (rng.NextBool(0.5)) {
      // Any finite non-negative double: every exponent and denormals.
      const std::uint64_t bits = rng.Next() >> 1;
      const double value = std::bit_cast<double>(bits);
      if (std::isfinite(value)) {
        values.push_back(value);
      }
    } else {
      // Short decimals, which sit on the 6-digit rounding boundaries.
      const double scale[] = {1.0, 10.0, 100.0, 1e4, 1e7};
      values.push_back(static_cast<double>(rng.NextBelow(100000000)) /
                       scale[rng.NextBelow(5)]);
    }
  }
  NocDesign design;
  const SwitchId sw = design.topology.AddSwitch("A");
  const CoreId x = design.traffic.AddCore("x");
  const CoreId y = design.traffic.AddCore("y");
  design.attachment = {sw, sw};
  for (const double value : values) {
    design.traffic.AddFlow(x, y, value);
  }
  design.routes.Resize(design.traffic.FlowCount());

  std::istringstream text(DesignText(design));
  std::string line;
  std::size_t f = 0;
  while (std::getline(text, line)) {
    if (line.rfind("flow x y ", 0) != 0) {
      continue;
    }
    std::ostringstream expected;
    expected << values[f];
    ASSERT_EQ(line.substr(9), expected.str()) << "flow " << f;
    ++f;
  }
  EXPECT_EQ(f, values.size());
}

}  // namespace
}  // namespace nocdr
