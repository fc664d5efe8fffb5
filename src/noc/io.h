// Serialization: a line-oriented text format for complete designs, plus
// Graphviz exports for topologies and channel dependency graphs.
//
// The text format makes the library usable as a standalone tool — a
// designer can describe a hand-made irregular topology with its routes in
// a file, run the deadlock remover, and write the repaired design back.
//
//   noc <name>
//   switch <name>                      # index order = declaration order
//   link <src_switch> <dst_switch> [vc_count]
//   core <name> <switch_name>
//   flow <src_core> <dst_core> <bandwidth_mbps>
//   route <flow_index> <link_index>:<vc> ...
//
// '#' starts a comment; blank lines are ignored. Tokens are separated by
// whitespace (space, tab, CR, LF, VT, FF), so CRLF line ends read like LF
// ones; tokens past the last one a keyword takes are ignored. Every flow
// must receive exactly one route line (possibly with zero hops).
//
// Numbers. <vc_count>, <flow_index>, <link_index> and <vc> are each a
// whole token of decimal digits (in a hop, the whole text on its side of
// the first ':') whose value fits 32 bits, at most 4294967295: no sign,
// no base prefix, nothing after the digits. <bandwidth_mbps> is a whole
// token that reads as a finite decimal number, with an optional sign,
// fraction and exponent (12, +0.5, -0, .25, 1e3, 2.5E-2); a value too
// small to represent reads as zero. inf, nan, hexadecimal and anything
// after the number are rejected. The writer prints bandwidths as a
// default-formatted std::ostream does (printf "%g": 6 significant digits).
#pragma once

#include <cstddef>
#include <iosfwd>
#include <span>
#include <stdexcept>
#include <string>
#include <string_view>
#include <vector>

#include "noc/design.h"

namespace nocdr {

/// Raised on malformed input to ReadDesign.
class DesignParseError : public std::runtime_error {
 public:
  using std::runtime_error::runtime_error;
};

/// An index of a design text, to rewrite it after the design changes:
/// what the text was written from, and the byte offset where each line
/// such a change can alter starts. Those are the link lines (a link
/// gains a VC), the flow lines (another flow takes the position) and the
/// route lines (a re-route). Each offset vector holds one entry more
/// than it has lines: where the last line ends. Filled by DesignText,
/// advanced by UpdateDesignText.
struct DesignTextLines {
  /// The flow order the text was written in; empty means id order.
  std::vector<FlowId> order;
  /// TopologyGraph::ChannelCount() when the text was written.
  std::size_t channels = 0;
  std::vector<std::size_t> links;   // LinkCount() + 1
  std::vector<std::size_t> flows;   // FlowCount() + 1
  std::vector<std::size_t> routes;  // FlowCount() + 1; back() = text size

  /// The lines the last write rendered (all of them for DesignText).
  std::size_t link_lines_rendered = 0;
  std::size_t flow_lines_rendered = 0;
  std::size_t route_lines_rendered = 0;
};

/// \p design in the text format above (stable, diff-friendly). A
/// non-empty \p flow_order, a permutation of the flow ids, writes the
/// flows in that order: flow line i and route line i are those of
/// flow_order[i], so the text is that of the design with its flows
/// permuted (util/canonical.h's CanonicalFlowOrder is the caller).
/// \p lines, when set, receives where the text's lines start.
std::string DesignText(const NocDesign& design,
                       std::span<const FlowId> flow_order = {},
                       DesignTextLines* lines = nullptr);

/// DesignText(\p design, \p flow_order), written from an earlier text of
/// the same design by re-rendering only the lines that changed. \p text
/// and \p lines come from DesignText (or this function) on an earlier
/// state of \p design. Since then, \p design may only have appended
/// channels (VCs, or links under physical-link duplication) and
/// re-routed the flows in \p rerouted; its names, cores and flows are
/// as they were. A link line is rendered when its link gained a
/// channel (or is new), a flow line when another flow sits at its
/// position, and a route line when another flow sits there or its flow
/// was re-routed. Every other byte is copied from \p text into one
/// exact allocation. \p lines then describes the returned text.
std::string UpdateDesignText(std::string_view text, DesignTextLines& lines,
                             const NocDesign& design,
                             std::vector<FlowId> flow_order,
                             std::span<const FlowId> rerouted);

/// \p bandwidth_mbps as the text stores it: DesignText's rendering (6
/// significant digits) read back as ReadDesign reads it. Bandwidths that
/// differ only past that precision store alike, so the text cannot
/// order them.
double TextBandwidth(double bandwidth_mbps);

/// True when \p name reads back from the text as itself: one non-empty
/// token, with none of the whitespace that separates tokens and no '#',
/// which starts a comment. DesignText writes names as they are, so a
/// design, switch or core name that is not a token does not survive
/// ReadDesign.
bool IsTextToken(std::string_view name);

/// Writes DesignText(\p design) to \p os.
void WriteDesign(std::ostream& os, const NocDesign& design);

/// Parses a design written by DesignText (or by hand). The result is
/// fully validated. Throws DesignParseError with line information on
/// malformed input, InvalidModelError on structurally bad designs.
NocDesign ReadDesign(std::string_view text);

/// ReadDesign over the rest of \p is.
NocDesign ReadDesign(std::istream& is);

/// Graphviz (dot) rendering of the switch topology: switches as nodes,
/// links as edges labelled with their VC count.
void WriteTopologyDot(std::ostream& os, const NocDesign& design);

/// Graphviz rendering of the channel dependency graph: channels as
/// nodes, dependencies as edges labelled with the flows creating them.
void WriteCdgDot(std::ostream& os, const NocDesign& design);

}  // namespace nocdr
