#include "util/canonical.h"

#include <algorithm>
#include <cmath>
#include <cstddef>
#include <string_view>
#include <unordered_set>
#include <utility>

#include "noc/io.h"
#include "util/digest.h"
#include "util/error.h"

namespace nocdr {

namespace {

/// Channel-numbering-independent sort key of one route: the (link, vc)
/// pairs the text format itself stores.
std::vector<std::pair<std::uint32_t, std::uint32_t>> RouteKey(
    const NocDesign& design, const Route& route) {
  std::vector<std::pair<std::uint32_t, std::uint32_t>> key;
  key.reserve(route.size());
  for (const ChannelId c : route) {
    const Channel& channel = design.topology.ChannelAt(c);
    key.emplace_back(channel.link.value(), channel.vc);
  }
  return key;
}

/// The last key of the canonical flow order: the routes as link:vc pairs.
bool RouteLess(const NocDesign& design, FlowId a, FlowId b) {
  return RouteKey(design, design.routes.RouteOf(a)) <
         RouteKey(design, design.routes.RouteOf(b));
}

/// Whether flow \p f ties with flow f - 1 on (src, dst, bandwidth as
/// the text stores it); throws InvalidModelError when f - 1 sorts after
/// f on those keys.
bool TiesWithPrevious(const NocDesign& design, std::size_t f) {
  const Flow& prev = design.traffic.FlowAt(FlowId(f - 1));
  const Flow& next = design.traffic.FlowAt(FlowId(f));
  const auto ends = [](const Flow& flow) {
    return std::pair(flow.src.value(), flow.dst.value());
  };
  Require(ends(prev) <= ends(next), "TiedFlowRuns: flows ", f - 1, " and ",
          f, " are out of canonical order");
  if (ends(prev) != ends(next)) {
    return false;
  }
  // Bandwidths are rendered only for flows tied on (src, dst).
  const double bandwidth_prev = TextBandwidth(prev.bandwidth_mbps);
  const double bandwidth_next = TextBandwidth(next.bandwidth_mbps);
  Require(bandwidth_prev <= bandwidth_next, "TiedFlowRuns: flows ", f - 1,
          " and ", f, " are out of canonical order");
  return bandwidth_prev == bandwidth_next;
}

/// \p topology with its channels numbered link-major, as the parse of
/// its text numbers them, and in \p renumbered each old channel id's new
/// one. Removal appends VCs out of link order; when none is
/// (CanonicalChannelOrder is the identity, as on an untreated design),
/// the topology is copied as it is and \p renumbered stays empty.
TopologyGraph LinkMajorTopology(const TopologyGraph& topology,
                                std::vector<ChannelId>& renumbered) {
  const std::vector<ChannelId> order = CanonicalChannelOrder(topology);
  bool identity = true;
  for (std::size_t k = 0; k < order.size() && identity; ++k) {
    identity = order[k] == ChannelId(k);
  }
  if (identity) {
    return topology;
  }
  TopologyGraph out;
  for (std::size_t s = 0; s < topology.SwitchCount(); ++s) {
    out.AddSwitch(topology.SwitchName(SwitchId(s)));
  }
  for (std::size_t l = 0; l < topology.LinkCount(); ++l) {
    const Link& link = topology.LinkAt(LinkId(l));
    const LinkId added = out.AddLink(link.src, link.dst);
    for (std::size_t v = 1; v < topology.VcCount(LinkId(l)); ++v) {
      out.AddVirtualChannel(added);
    }
  }
  renumbered.resize(order.size());
  for (std::size_t k = 0; k < order.size(); ++k) {
    renumbered[order[k].value()] = ChannelId(k);
  }
  return out;
}

/// Throws InvalidModelError unless each of the \p count names \p name_of
/// gives is a text token (IsTextToken) and none repeats: a name the
/// parse would split, cut at a '#' or reject as a duplicate.
template <typename NameOf>
void RequireTokenNames(const NocDesign& design, const char* what,
                       std::size_t count, const NameOf& name_of) {
  std::unordered_set<std::string_view> seen;
  seen.reserve(count);
  for (std::size_t i = 0; i < count; ++i) {
    const std::string& name = name_of(i);
    Require(IsTextToken(name), "CanonicalizeDesign: design \"", design.name,
            "\" has ", what, " name \"", name,
            "\", which the text cannot carry");
    Require(seen.insert(name).second, "CanonicalizeDesign: design \"",
            design.name, "\" has two ", what, "s named \"", name, "\"");
  }
}

/// The flow ids of \p design in id order.
std::vector<FlowId> FlowIds(const NocDesign& design) {
  std::vector<FlowId> ids;
  ids.reserve(design.traffic.FlowCount());
  for (std::size_t f = 0; f < design.traffic.FlowCount(); ++f) {
    ids.emplace_back(f);
  }
  return ids;
}

}  // namespace

NocDesign IoCanonicalize(const NocDesign& design) {
  return ReadDesign(DesignText(design));
}

bool IsIoStable(const NocDesign& design) {
  return DesignText(IoCanonicalize(design)) == DesignText(design);
}

std::vector<FlowId> CanonicalFlowOrder(const NocDesign& design) {
  std::vector<FlowId> order = FlowIds(design);
  std::stable_sort(order.begin(), order.end(), [&](FlowId a, FlowId b) {
    const Flow& fa = design.traffic.FlowAt(a);
    const Flow& fb = design.traffic.FlowAt(b);
    if (fa.src != fb.src) {
      return fa.src.value() < fb.src.value();
    }
    if (fa.dst != fb.dst) {
      return fa.dst.value() < fb.dst.value();
    }
    // As the text stores them: bandwidths it renders alike must tie, or
    // parsing the canonical text would re-sort them.
    const double bandwidth_a = TextBandwidth(fa.bandwidth_mbps);
    const double bandwidth_b = TextBandwidth(fb.bandwidth_mbps);
    if (bandwidth_a != bandwidth_b) {
      return bandwidth_a < bandwidth_b;
    }
    return RouteLess(design, a, b);
  });
  return order;
}

std::vector<FlowRun> TiedFlowRuns(const NocDesign& design) {
  std::vector<FlowRun> runs;
  const std::size_t flows = design.traffic.FlowCount();
  std::size_t begin = 0;
  for (std::size_t f = 1; f <= flows; ++f) {
    if (f < flows && TiesWithPrevious(design, f)) {
      continue;
    }
    if (f - begin >= 2) {
      runs.push_back(FlowRun{begin, f});
    }
    begin = f;
  }
  return runs;
}

std::vector<FlowId> CanonicalFlowOrder(const NocDesign& design,
                                       std::span<const FlowRun> tied_runs) {
  std::vector<FlowId> order = FlowIds(design);
  for (const FlowRun& run : tied_runs) {
    Require(run.begin < run.end && run.end <= order.size(),
            "CanonicalFlowOrder: tied run [", run.begin, ", ", run.end,
            ") out of range for ", order.size(), " flows");
    std::stable_sort(order.begin() + static_cast<std::ptrdiff_t>(run.begin),
                     order.begin() + static_cast<std::ptrdiff_t>(run.end),
                     [&](FlowId a, FlowId b) {
                       return RouteLess(design, a, b);
                     });
  }
  return order;
}

NocDesign PermuteFlows(const NocDesign& design,
                       std::span<const FlowId> order) {
  Require(order.size() == design.traffic.FlowCount(),
          "PermuteFlows: the order does not list every flow");
  NocDesign out;
  out.name = design.name;
  out.topology = design.topology;
  out.attachment = design.attachment;
  for (std::size_t c = 0; c < design.traffic.CoreCount(); ++c) {
    out.traffic.AddCore(design.traffic.CoreName(CoreId(c)));
  }
  out.routes.Resize(order.size());
  for (const FlowId from : order) {
    const Flow& flow = design.traffic.FlowAt(from);
    const FlowId f = out.traffic.AddFlow(flow.src, flow.dst,
                                         flow.bandwidth_mbps);
    out.routes.SetRoute(f, design.routes.RouteOf(from));
  }
  return out;
}

std::vector<ChannelId> CanonicalChannelOrder(const TopologyGraph& topology) {
  std::vector<ChannelId> order;
  order.reserve(topology.ChannelCount());
  for (std::size_t l = 0; l < topology.LinkCount(); ++l) {
    const std::vector<ChannelId>& vcs = topology.ChannelsOf(LinkId(l));
    order.insert(order.end(), vcs.begin(), vcs.end());
  }
  return order;
}

CanonicalDesign CanonicalizeDesign(const NocDesign& design) {
  const TopologyGraph& topology = design.topology;
  const CommunicationGraph& traffic = design.traffic;
  CanonicalDesign out;
  NocDesign& canonical = out.design;
  canonical.name = design.name.empty() ? "unnamed" : design.name;
  Require(IsTextToken(canonical.name), "CanonicalizeDesign: design name \"",
          design.name, "\" is not one token of the text");
  RequireTokenNames(design, "switch", topology.SwitchCount(),
                    [&](std::size_t s) -> const std::string& {
                      return topology.SwitchName(SwitchId(s));
                    });
  RequireTokenNames(design, "core", traffic.CoreCount(),
                    [&](std::size_t c) -> const std::string& {
                      return traffic.CoreName(CoreId(c));
                    });

  std::vector<ChannelId> renumbered;
  canonical.topology = LinkMajorTopology(topology, renumbered);
  for (std::size_t c = 0; c < traffic.CoreCount(); ++c) {
    canonical.traffic.AddCore(traffic.CoreName(CoreId(c)));
    canonical.attachment.push_back(design.SwitchOf(CoreId(c)));
  }
  const std::vector<FlowId> order = CanonicalFlowOrder(design);
  canonical.routes.Resize(order.size());
  for (const FlowId from : order) {
    const Flow& flow = traffic.FlowAt(from);
    Require(std::isfinite(flow.bandwidth_mbps), "CanonicalizeDesign: flow ",
            from.value(), " of design \"", design.name,
            "\" has a bandwidth the text cannot carry");
    const FlowId f = canonical.traffic.AddFlow(
        flow.src, flow.dst, TextBandwidth(flow.bandwidth_mbps));
    Route route = design.routes.RouteOf(from);
    if (!renumbered.empty()) {
      for (ChannelId& c : route) {
        Require(topology.IsValidChannel(c), "CanonicalizeDesign: flow ",
                from.value(), " routes over a channel the design lacks");
        c = renumbered[c.value()];
      }
    }
    canonical.routes.SetRoute(f, std::move(route));
  }
  canonical.Validate();
  out.text = DesignText(canonical);
  return out;
}

void DigestRemovalOptions(std::uint64_t& h, const RemovalOptions& options) {
  DigestField(h, static_cast<std::uint64_t>(options.cycle_policy));
  DigestField(h, static_cast<std::uint64_t>(options.direction_policy));
  DigestField(h, static_cast<std::uint64_t>(options.duplication));
  DigestField(h, static_cast<std::uint64_t>(options.max_iterations));
}

std::uint64_t CanonicalDesignDigest(const NocDesign& design,
                                    const RemovalOptions& options,
                                    bool treat) {
  return CanonicalTextDigest(CanonicalizeDesign(design).text, options,
                             treat);
}

std::uint64_t CanonicalTextDigest(const std::string& canonical_text,
                                  const RemovalOptions& options,
                                  bool treat) {
  std::uint64_t h = kFnvOffsetBasis;
  DigestField(h, canonical_text);
  DigestRemovalOptions(h, options);
  DigestField(h, static_cast<std::uint64_t>(treat));
  return h;
}

}  // namespace nocdr
