#include "noc/io.h"

#include <algorithm>
#include <charconv>
#include <cmath>
#include <cstdint>
#include <istream>
#include <iterator>
#include <optional>
#include <ostream>
#include <unordered_map>

#include "cdg/cdg.h"
#include "util/error.h"

namespace nocdr {

namespace {

void AppendUint(std::string& out, std::uint64_t value) {
  char digits[20];
  out.append(digits, std::to_chars(digits, digits + sizeof digits, value).ptr);
}

template <typename... Parts>
[[noreturn]] void Fail(std::size_t line, const Parts&... parts) {
  std::string message = "line " + std::to_string(line) + ": ";
  (message.append(parts), ...);
  throw DesignParseError(message);
}

bool IsSpace(char c) {
  return c == ' ' || c == '\t' || c == '\n' || c == '\v' || c == '\f' ||
         c == '\r';
}

/// The whitespace-separated tokens of one line, in order.
class TokenReader {
 public:
  explicit TokenReader(std::string_view line) : rest_(line) {}

  /// The next token; empty once the line is used up.
  std::string_view Next() {
    std::size_t begin = 0;
    while (begin < rest_.size() && IsSpace(rest_[begin])) {
      ++begin;
    }
    std::size_t end = begin;
    while (end < rest_.size() && !IsSpace(rest_[end])) {
      ++end;
    }
    const std::string_view token = rest_.substr(begin, end - begin);
    rest_.remove_prefix(end);
    return token;
  }

 private:
  std::string_view rest_;
};

/// A whole token of decimal digits whose value fits 32 bits.
std::optional<std::uint32_t> ParseIndex(std::string_view token) {
  std::uint32_t value = 0;
  const char* const end = token.data() + token.size();
  const auto [ptr, ec] = std::from_chars(token.data(), end, value);
  if (ec != std::errc() || ptr != end) {
    return std::nullopt;
  }
  return value;
}

/// True when \p number, a decimal that from_chars read whole but found
/// out of range, is below 1 in magnitude: it underflowed rather than
/// overflowed.
bool BelowOne(std::string_view number) {
  const std::size_t exponent_at =
      std::min(number.find_first_of("eE"), number.size());
  const std::string_view mantissa = number.substr(0, exponent_at);
  const std::size_t point = std::min(mantissa.find('.'), mantissa.size());
  const std::size_t lead = mantissa.find_first_of("123456789");
  if (lead == std::string_view::npos) {
    return true;
  }
  // Decimal place of the leading digit: 0 for units, -1 for tenths.
  std::int64_t place = lead < point
                           ? static_cast<std::int64_t>(point - lead) - 1
                           : -static_cast<std::int64_t>(lead - point);
  if (exponent_at < number.size()) {
    std::string_view exponent = number.substr(exponent_at + 1);
    const bool negative = exponent.starts_with('-');
    if (negative || exponent.starts_with('+')) {
      exponent.remove_prefix(1);
    }
    std::int64_t magnitude = 0;
    for (const char digit : exponent) {
      magnitude = std::min<std::int64_t>(magnitude * 10 + (digit - '0'),
                                         std::int64_t{1} << 40);
    }
    place += negative ? -magnitude : magnitude;
  }
  return place < 0;
}

/// A whole token that reads as a finite decimal number (see io.h).
std::optional<double> ParseBandwidth(std::string_view token) {
  // from_chars takes no leading '+'; the grammar does.
  if (token.starts_with('+') && !token.substr(1).starts_with('-')) {
    token.remove_prefix(1);
  }
  double value = 0.0;
  const char* const end = token.data() + token.size();
  const auto [ptr, ec] = std::from_chars(token.data(), end, value,
                                         std::chars_format::general);
  if (ptr != end) {
    return std::nullopt;
  }
  // from_chars reports a value that rounds to zero as out of range;
  // strtod, and so the grammar, reads it as zero.
  if (ec == std::errc::result_out_of_range && BelowOne(token)) {
    return token.starts_with('-') ? -0.0 : 0.0;
  }
  if (ec != std::errc() || !std::isfinite(value)) {
    return std::nullopt;
  }
  return value;
}

/// DesignText's bytes for \p bandwidth_mbps, those of a default-formatted
/// std::ostream ("%g", precision 6), written at \p out; returns the end.
char* RenderBandwidth(double bandwidth_mbps, char (&out)[32]) {
  return std::to_chars(out, out + sizeof out, bandwidth_mbps,
                       std::chars_format::general, 6)
      .ptr;
}

}  // namespace

double TextBandwidth(double bandwidth_mbps) {
  char text[32];
  const char* const end = RenderBandwidth(bandwidth_mbps, text);
  return ParseBandwidth(std::string_view(text, end - text))
      .value_or(bandwidth_mbps);
}

bool IsTextToken(std::string_view name) {
  return !name.empty() && std::none_of(name.begin(), name.end(), [](char c) {
    return IsSpace(c) || c == '#';
  });
}

std::string DesignText(const NocDesign& design,
                       std::span<const FlowId> flow_order) {
  const TopologyGraph& topo = design.topology;
  const CommunicationGraph& traffic = design.traffic;
  Require(flow_order.empty() || flow_order.size() == traffic.FlowCount(),
          "DesignText: the flow order does not list every flow");
  const auto flow_at = [&](std::size_t i) {
    return flow_order.empty() ? FlowId(i) : flow_order[i];
  };
  std::string out;
  out += "noc ";
  out += design.name.empty() ? std::string_view("unnamed")
                             : std::string_view(design.name);
  out += '\n';
  for (std::size_t s = 0; s < topo.SwitchCount(); ++s) {
    out += "switch ";
    out += topo.SwitchName(SwitchId(s));
    out += '\n';
  }
  for (std::size_t l = 0; l < topo.LinkCount(); ++l) {
    const Link& link = topo.LinkAt(LinkId(l));
    out += "link ";
    out += topo.SwitchName(link.src);
    out += ' ';
    out += topo.SwitchName(link.dst);
    const std::size_t vcs = topo.VcCount(LinkId(l));
    if (vcs != 1) {
      out += ' ';
      AppendUint(out, vcs);
    }
    out += '\n';
  }
  for (std::size_t c = 0; c < traffic.CoreCount(); ++c) {
    out += "core ";
    out += traffic.CoreName(CoreId(c));
    out += ' ';
    out += topo.SwitchName(design.SwitchOf(CoreId(c)));
    out += '\n';
  }
  for (std::size_t f = 0; f < traffic.FlowCount(); ++f) {
    const Flow& flow = traffic.FlowAt(flow_at(f));
    out += "flow ";
    out += traffic.CoreName(flow.src);
    out += ' ';
    out += traffic.CoreName(flow.dst);
    out += ' ';
    char bandwidth[32];
    out.append(bandwidth, RenderBandwidth(flow.bandwidth_mbps, bandwidth));
    out += '\n';
  }
  for (std::size_t f = 0; f < traffic.FlowCount(); ++f) {
    out += "route ";
    AppendUint(out, f);
    for (ChannelId c : design.routes.RouteOf(flow_at(f))) {
      const Channel& ch = topo.ChannelAt(c);
      out += ' ';
      AppendUint(out, ch.link.value());
      out += ':';
      AppendUint(out, ch.vc);
    }
    out += '\n';
  }
  return out;
}

void WriteDesign(std::ostream& os, const NocDesign& design) {
  os << DesignText(design);
}

NocDesign ReadDesign(std::string_view text) {
  NocDesign design;
  // Keys view \p text, which outlives the parse.
  std::unordered_map<std::string_view, SwitchId> switch_by_name;
  std::unordered_map<std::string_view, CoreId> core_by_name;
  std::size_t routes_seen = 0;

  std::size_t line_no = 0;
  for (std::size_t begin = 0; begin < text.size();) {
    const std::size_t newline = std::min(text.find('\n', begin), text.size());
    std::string_view line = text.substr(begin, newline - begin);
    begin = newline + 1;
    ++line_no;
    line = line.substr(0, line.find('#'));
    TokenReader tokens(line);
    const std::string_view keyword = tokens.Next();
    if (keyword.empty()) {
      continue;  // blank or comment-only
    }
    if (keyword == "noc") {
      const std::string_view name = tokens.Next();
      if (name.empty()) {
        Fail(line_no, "noc: missing name");
      }
      design.name = name;
    } else if (keyword == "switch") {
      const std::string_view name = tokens.Next();
      if (name.empty()) {
        Fail(line_no, "switch: missing name");
      }
      if (switch_by_name.contains(name)) {
        Fail(line_no, "switch: duplicate name '", name, "'");
      }
      switch_by_name.emplace(name,
                             design.topology.AddSwitch(std::string(name)));
    } else if (keyword == "link") {
      const std::string_view src = tokens.Next();
      const std::string_view dst = tokens.Next();
      if (dst.empty()) {
        Fail(line_no, "link: expected two switch names");
      }
      const auto si = switch_by_name.find(src);
      const auto di = switch_by_name.find(dst);
      if (si == switch_by_name.end() || di == switch_by_name.end()) {
        Fail(line_no, "link: unknown switch");
      }
      const LinkId l = design.topology.AddLink(si->second, di->second);
      const std::string_view vc_token = tokens.Next();
      if (!vc_token.empty()) {
        const auto vcs = ParseIndex(vc_token);
        if (!vcs) {
          Fail(line_no, "link: malformed vc count '", vc_token, "'");
        }
        if (*vcs < 1) {
          Fail(line_no, "link: vc count must be >= 1");
        }
        for (std::uint32_t v = 1; v < *vcs; ++v) {
          design.topology.AddVirtualChannel(l);
        }
      }
    } else if (keyword == "core") {
      const std::string_view name = tokens.Next();
      const std::string_view sw = tokens.Next();
      if (sw.empty()) {
        Fail(line_no, "core: expected name and switch");
      }
      const auto si = switch_by_name.find(sw);
      if (si == switch_by_name.end()) {
        Fail(line_no, "core: unknown switch '", sw, "'");
      }
      if (core_by_name.contains(name)) {
        Fail(line_no, "core: duplicate name '", name, "'");
      }
      core_by_name.emplace(name, design.traffic.AddCore(std::string(name)));
      design.attachment.push_back(si->second);
    } else if (keyword == "flow") {
      const std::string_view src = tokens.Next();
      const std::string_view dst = tokens.Next();
      const std::string_view bandwidth_token = tokens.Next();
      if (bandwidth_token.empty()) {
        Fail(line_no, "flow: expected two cores and a bandwidth");
      }
      const auto bandwidth = ParseBandwidth(bandwidth_token);
      if (!bandwidth) {
        Fail(line_no, "flow: malformed bandwidth '", bandwidth_token, "'");
      }
      const auto si = core_by_name.find(src);
      const auto di = core_by_name.find(dst);
      if (si == core_by_name.end() || di == core_by_name.end()) {
        Fail(line_no, "flow: unknown core");
      }
      design.traffic.AddFlow(si->second, di->second, *bandwidth);
      design.routes.Resize(design.traffic.FlowCount());
    } else if (keyword == "route") {
      const auto flow_index = ParseIndex(tokens.Next());
      if (!flow_index || *flow_index >= design.traffic.FlowCount()) {
        Fail(line_no, "route: bad flow index");
      }
      Route route;
      for (std::string_view hop = tokens.Next(); !hop.empty();
           hop = tokens.Next()) {
        const std::size_t colon = hop.find(':');
        if (colon == std::string_view::npos) {
          Fail(line_no, "route: hop must be <link>:<vc>");
        }
        const auto link_index = ParseIndex(hop.substr(0, colon));
        const auto vc = ParseIndex(hop.substr(colon + 1));
        if (!link_index || !vc) {
          Fail(line_no, "route: malformed hop '", hop, "'");
        }
        if (*link_index >= design.topology.LinkCount()) {
          Fail(line_no, "route: unknown link ", std::to_string(*link_index));
        }
        const auto channel =
            design.topology.FindChannel(LinkId(*link_index), *vc);
        if (!channel) {
          Fail(line_no, "route: link ", std::to_string(*link_index),
               " has no vc ", std::to_string(*vc));
        }
        route.push_back(*channel);
      }
      design.routes.SetRoute(FlowId(*flow_index), std::move(route));
      ++routes_seen;
    } else {
      Fail(line_no, "unknown keyword '", keyword, "'");
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

NocDesign ReadDesign(std::istream& is) {
  return ReadDesign(std::string(std::istreambuf_iterator<char>(is), {}));
}

void WriteTopologyDot(std::ostream& os, const NocDesign& design) {
  const TopologyGraph& topo = design.topology;
  os << "digraph topology {\n  rankdir=LR;\n  node [shape=box];\n";
  for (std::size_t s = 0; s < topo.SwitchCount(); ++s) {
    os << "  s" << s << " [label=\"" << topo.SwitchName(SwitchId(s))
       << "\"];\n";
  }
  for (std::size_t l = 0; l < topo.LinkCount(); ++l) {
    const Link& link = topo.LinkAt(LinkId(l));
    os << "  s" << link.src.value() << " -> s" << link.dst.value()
       << " [label=\"x" << topo.VcCount(LinkId(l)) << "\"];\n";
  }
  os << "}\n";
}

void WriteCdgDot(std::ostream& os, const NocDesign& design) {
  const auto cdg = ChannelDependencyGraph::Build(design);
  os << "digraph cdg {\n  node [shape=ellipse];\n";
  for (std::size_t c = 0; c < design.topology.ChannelCount(); ++c) {
    os << "  c" << c << " [label=\""
       << design.topology.ChannelLabel(ChannelId(c)) << "\"];\n";
  }
  for (const CdgEdge& e : cdg.Edges()) {
    os << "  c" << e.from.value() << " -> c" << e.to.value()
       << " [label=\"";
    for (std::size_t i = 0; i < e.flows.size(); ++i) {
      os << (i ? "," : "") << "F" << e.flows[i].value();
    }
    os << "\"];\n";
  }
  os << "}\n";
}

}  // namespace nocdr
