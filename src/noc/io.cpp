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

// The writers of the text's lines, shared by DesignText and
// UpdateDesignText so that both format every byte with one piece of code.
// They are forced inline: called once per line, out of line they slow
// DesignText, which a cold request runs twice (canonicalize, serialize).

[[gnu::always_inline]] inline void AppendLinkLine(std::string& out,
                                                  const TopologyGraph& topo,
                                                  LinkId l) {
  const Link& link = topo.LinkAt(l);
  out += "link ";
  out += topo.SwitchName(link.src);
  out += ' ';
  out += topo.SwitchName(link.dst);
  const std::size_t vcs = topo.VcCount(l);
  if (vcs != 1) {
    out += ' ';
    AppendUint(out, vcs);
  }
  out += '\n';
}

[[gnu::always_inline]] inline void AppendFlowLine(
    std::string& out, const CommunicationGraph& traffic, FlowId f) {
  const Flow& flow = traffic.FlowAt(f);
  out += "flow ";
  out += traffic.CoreName(flow.src);
  out += ' ';
  out += traffic.CoreName(flow.dst);
  out += ' ';
  char bandwidth[32];
  out.append(bandwidth, RenderBandwidth(flow.bandwidth_mbps, bandwidth));
  out += '\n';
}

/// Route line \p index, carrying flow \p f's route.
[[gnu::always_inline]] inline void AppendRouteLine(std::string& out,
                                                   const NocDesign& design,
                                                   std::size_t index,
                                                   FlowId f) {
  out += "route ";
  AppendUint(out, index);
  for (ChannelId c : design.routes.RouteOf(f)) {
    const Channel& ch = design.topology.ChannelAt(c);
    out += ' ';
    AppendUint(out, ch.link.value());
    out += ':';
    AppendUint(out, ch.vc);
  }
  out += '\n';
}

/// Flow i of \p order; an empty order is id order.
FlowId FlowAt(std::span<const FlowId> order, std::size_t i) {
  return order.empty() ? FlowId(i) : order[i];
}

/// The next version of a text, spliced from the old one: old byte ranges
/// replaced, in text order, by lines rendered into a side buffer, then
/// assembled into one exact allocation.
class TextSplice {
 public:
  explicit TextSplice(std::string_view old_text) : old_(old_text) {}

  /// Where old byte \p pos lands in the new text. \p pos must not lie
  /// before the end of the last range replaced.
  [[nodiscard]] std::size_t Moved(std::size_t pos) const {
    return static_cast<std::size_t>(static_cast<std::ptrdiff_t>(pos) +
                                    delta_);
  }

  /// Replaces old bytes [begin, end) (empty to insert) with what
  /// \p render appends to the string it is given.
  template <typename Render>
  void Replace(std::size_t begin, std::size_t end, const Render& render) {
    const std::size_t from = rendered_.size();
    render(rendered_);
    edits_.push_back(Edit{begin, end, from, rendered_.size()});
    delta_ += static_cast<std::ptrdiff_t>(rendered_.size() - from) -
              static_cast<std::ptrdiff_t>(end - begin);
  }

  /// Moves the start offsets of one section's lines [0, n) to the new
  /// text (line k spans old offsets[k] to offsets[k + 1]), re-rendering
  /// line k through render(out, k) where replace(k). offsets[n] keeps
  /// its old value. Returns the lines rendered.
  template <typename ReplaceLine, typename RenderLine>
  std::size_t Lines(std::vector<std::size_t>& offsets, std::size_t n,
                    const ReplaceLine& replace, const RenderLine& render) {
    std::size_t rendered = 0;
    for (std::size_t k = 0; k < n; ++k) {
      const std::size_t begin = offsets[k];
      offsets[k] = Moved(begin);
      if (replace(k)) {
        Replace(begin, offsets[k + 1],
                [&](std::string& out) { render(out, k); });
        ++rendered;
      }
    }
    return rendered;
  }

  [[nodiscard]] std::string Assemble() const {
    std::string out;
    out.reserve(Moved(old_.size()));
    std::size_t copied = 0;
    for (const Edit& edit : edits_) {
      out.append(old_.substr(copied, edit.old_begin - copied));
      out.append(std::string_view(rendered_).substr(
          edit.new_begin, edit.new_end - edit.new_begin));
      copied = edit.old_end;
    }
    out.append(old_.substr(copied));
    return out;
  }

 private:
  struct Edit {
    std::size_t old_begin = 0;
    std::size_t old_end = 0;
    std::size_t new_begin = 0;  // into rendered_
    std::size_t new_end = 0;
  };

  std::string_view old_;
  std::string rendered_;
  std::vector<Edit> edits_;
  std::ptrdiff_t delta_ = 0;  // new size minus old size so far
};

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
                       std::span<const FlowId> flow_order,
                       DesignTextLines* lines) {
  const TopologyGraph& topo = design.topology;
  const CommunicationGraph& traffic = design.traffic;
  Require(flow_order.empty() || flow_order.size() == traffic.FlowCount(),
          "DesignText: the flow order does not list every flow");
  std::string out;
  // Records, when asked to, that a line of one section starts here.
  const auto mark = [&](std::vector<std::size_t> DesignTextLines::*offsets) {
    if (lines != nullptr) {
      (lines->*offsets).push_back(out.size());
    }
  };
  if (lines != nullptr) {
    *lines = DesignTextLines();
    lines->order.assign(flow_order.begin(), flow_order.end());
    lines->channels = topo.ChannelCount();
    lines->links.reserve(topo.LinkCount() + 1);
    lines->flows.reserve(traffic.FlowCount() + 1);
    lines->routes.reserve(traffic.FlowCount() + 1);
    lines->link_lines_rendered = topo.LinkCount();
    lines->flow_lines_rendered = traffic.FlowCount();
    lines->route_lines_rendered = traffic.FlowCount();
  }
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
    mark(&DesignTextLines::links);
    AppendLinkLine(out, topo, LinkId(l));
  }
  mark(&DesignTextLines::links);
  for (std::size_t c = 0; c < traffic.CoreCount(); ++c) {
    out += "core ";
    out += traffic.CoreName(CoreId(c));
    out += ' ';
    out += topo.SwitchName(design.SwitchOf(CoreId(c)));
    out += '\n';
  }
  for (std::size_t f = 0; f < traffic.FlowCount(); ++f) {
    mark(&DesignTextLines::flows);
    AppendFlowLine(out, traffic, FlowAt(flow_order, f));
  }
  mark(&DesignTextLines::flows);
  for (std::size_t f = 0; f < traffic.FlowCount(); ++f) {
    mark(&DesignTextLines::routes);
    AppendRouteLine(out, design, f, FlowAt(flow_order, f));
  }
  mark(&DesignTextLines::routes);
  return out;
}

std::string UpdateDesignText(std::string_view text, DesignTextLines& lines,
                             const NocDesign& design,
                             std::vector<FlowId> flow_order,
                             std::span<const FlowId> rerouted) {
  const TopologyGraph& topo = design.topology;
  const std::size_t flows = design.traffic.FlowCount();
  Require(!lines.links.empty() && lines.links.size() <= topo.LinkCount() + 1 &&
              lines.channels <= topo.ChannelCount() &&
              lines.flows.size() == flows + 1 &&
              lines.routes.size() == flows + 1 &&
              lines.routes.back() == text.size() &&
              (lines.order.empty() || lines.order.size() == flows) &&
              (flow_order.empty() || flow_order.size() == flows),
          "UpdateDesignText: the lines do not index this design's text");
  // Channels are only ever appended, so the links that gained one since
  // the text was written are those of the channels past lines.channels.
  const std::size_t links_before = lines.links.size() - 1;
  std::vector<char> link_grew(links_before, 0);
  for (std::size_t c = lines.channels; c < topo.ChannelCount(); ++c) {
    const LinkId link = topo.ChannelAt(ChannelId(c)).link;
    if (link.value() < links_before) {
      link_grew[link.value()] = 1;
    }
  }
  std::vector<char> flow_rerouted(flows, 0);
  for (const FlowId f : rerouted) {
    Require(f.value() < flows, "UpdateDesignText: re-routed flow ",
            f.value(), " out of range");
    flow_rerouted[f.value()] = 1;
  }
  const auto moved = [&](std::size_t i) {
    return FlowAt(lines.order, i) != FlowAt(flow_order, i);
  };

  TextSplice splice(text);
  const std::size_t links_end = lines.links.back();
  lines.link_lines_rendered = splice.Lines(
      lines.links, links_before,
      [&](std::size_t l) { return link_grew[l] != 0; },
      [&](std::string& out, std::size_t l) {
        AppendLinkLine(out, topo, LinkId(l));
      });
  // Links added since (physical-link duplication) follow the old ones.
  lines.links.resize(topo.LinkCount() + 1);
  for (std::size_t l = links_before; l < topo.LinkCount(); ++l) {
    lines.links[l] = splice.Moved(links_end);
    splice.Replace(links_end, links_end, [&](std::string& out) {
      AppendLinkLine(out, topo, LinkId(l));
    });
    ++lines.link_lines_rendered;
  }
  lines.links.back() = splice.Moved(links_end);
  lines.flow_lines_rendered = splice.Lines(
      lines.flows, flows, moved, [&](std::string& out, std::size_t i) {
        AppendFlowLine(out, design.traffic, FlowAt(flow_order, i));
      });
  lines.flows.back() = splice.Moved(lines.flows.back());
  lines.route_lines_rendered = splice.Lines(
      lines.routes, flows,
      [&](std::size_t i) {
        return moved(i) || flow_rerouted[FlowAt(flow_order, i).value()] != 0;
      },
      [&](std::string& out, std::size_t i) {
        AppendRouteLine(out, design, i, FlowAt(flow_order, i));
      });
  lines.routes.back() = splice.Moved(lines.routes.back());
  lines.order = std::move(flow_order);
  lines.channels = topo.ChannelCount();
  return splice.Assemble();
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
