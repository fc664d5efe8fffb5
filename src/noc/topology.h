// Topology graph: switches, directed physical links, and channels.
//
// Mirrors Definition 1 of the paper: TG(S, L) is a directed graph whose
// vertices are switches and whose edges are physical links. On top of the
// physical structure we track *channels* (Definition 3/4): a channel is one
// (physical link, virtual-channel index) pair, and channels — not links —
// are the vertices of the channel dependency graph and the unit of resource
// accounting (the paper minimizes |L'| - |L|, i.e. the number of channels
// added beyond the one implicit channel per link).
#pragma once

#include <cstdint>
#include <optional>
#include <string>
#include <vector>

#include "util/ids.h"

namespace nocdr {

/// One directed physical link between two switches.
struct Link {
  SwitchId src;
  SwitchId dst;

  friend bool operator==(const Link&, const Link&) = default;
};

/// One channel: a physical link plus a virtual-channel index on that link.
struct Channel {
  LinkId link;
  std::uint32_t vc = 0;

  friend bool operator==(const Channel&, const Channel&) = default;
};

/// Directed switch-level topology with per-link virtual channels.
///
/// Switches and links are append-only; channels can be appended to any link
/// (that is exactly the "add a VC" operation of the deadlock removal
/// algorithm). Every link starts with one channel (VC 0).
class TopologyGraph {
 public:
  /// Adds a switch. \p name is used only for diagnostics and reports.
  SwitchId AddSwitch(std::string name = {});

  /// Adds a directed physical link from \p src to \p dst and its implicit
  /// first channel (VC 0). Self-loops are rejected.
  LinkId AddLink(SwitchId src, SwitchId dst);

  /// Adds one more virtual channel to \p link; returns the new channel.
  ChannelId AddVirtualChannel(LinkId link);

  [[nodiscard]] std::size_t SwitchCount() const { return switch_names_.size(); }
  [[nodiscard]] std::size_t LinkCount() const { return links_.size(); }
  [[nodiscard]] std::size_t ChannelCount() const { return channels_.size(); }

  /// Channels added beyond the one implicit channel per link; this is the
  /// paper's cost metric |L'| - |L|.
  [[nodiscard]] std::size_t ExtraVcCount() const {
    return ChannelCount() - LinkCount();
  }

  [[nodiscard]] const std::string& SwitchName(SwitchId s) const;
  [[nodiscard]] const Link& LinkAt(LinkId l) const;
  [[nodiscard]] const Channel& ChannelAt(ChannelId c) const;

  /// All channels multiplexed onto \p link, in VC order.
  [[nodiscard]] const std::vector<ChannelId>& ChannelsOf(LinkId l) const;

  /// Number of VCs currently on \p link.
  [[nodiscard]] std::size_t VcCount(LinkId l) const {
    return ChannelsOf(l).size();
  }

  /// Outgoing / incoming physical links of a switch.
  [[nodiscard]] const std::vector<LinkId>& OutLinks(SwitchId s) const;
  [[nodiscard]] const std::vector<LinkId>& InLinks(SwitchId s) const;

  /// First link from \p src to \p dst if one exists.
  [[nodiscard]] std::optional<LinkId> FindLink(SwitchId src,
                                               SwitchId dst) const;

  /// The channel (\p link, \p vc) if that VC exists.
  [[nodiscard]] std::optional<ChannelId> FindChannel(LinkId link,
                                                     std::uint32_t vc) const;

  [[nodiscard]] bool IsValidSwitch(SwitchId s) const {
    return s.valid() && s.value() < SwitchCount();
  }
  [[nodiscard]] bool IsValidLink(LinkId l) const {
    return l.valid() && l.value() < LinkCount();
  }
  [[nodiscard]] bool IsValidChannel(ChannelId c) const {
    return c.valid() && c.value() < ChannelCount();
  }

  /// Human-readable channel label, e.g. "SW0->SW3.vc1".
  [[nodiscard]] std::string ChannelLabel(ChannelId c) const;

  /// Same switches, links and channels, each with the same id.
  friend bool operator==(const TopologyGraph&, const TopologyGraph&) = default;

 private:
  std::vector<std::string> switch_names_;
  std::vector<Link> links_;
  std::vector<Channel> channels_;
  std::vector<std::vector<ChannelId>> link_channels_;  // indexed by LinkId
  std::vector<std::vector<LinkId>> out_links_;         // indexed by SwitchId
  std::vector<std::vector<LinkId>> in_links_;          // indexed by SwitchId
};

}  // namespace nocdr
