// Static route computation over the synthesized switch topology.
//
// Congestion-aware Dijkstra: flows are routed heaviest-first; each link's
// weight is 1 (hop) plus a penalty proportional to the bandwidth already
// committed to it relative to its capacity. Heavier traffic therefore
// spreads across parallel paths, which produces the irregular multi-path
// route sets on which cyclic channel dependencies arise — the situation
// the paper's algorithm exists to fix. Every route uses VC 0 of each link
// (the implicit channel); VCs beyond that are added only by the deadlock
// handling methods.
#pragma once

#include <cstddef>
#include <optional>
#include <vector>

#include "noc/design.h"
#include "noc/routing.h"
#include "noc/topology.h"
#include "noc/traffic.h"

namespace nocdr {

struct RouteBuildOptions {
  /// Nominal link capacity (MB/s) for the congestion penalty.
  double link_capacity_mbps = 1600.0;
  /// Weight of the congestion term relative to a hop; 0 disables
  /// load-aware routing (pure shortest path).
  double congestion_weight = 2.0;
};

/// Computes a route for every flow of \p traffic over \p topology.
/// Throws InvalidModelError if some flow's endpoints are not connected.
RouteSet BuildRoutes(const TopologyGraph& topology,
                     const CommunicationGraph& traffic,
                     const std::vector<SwitchId>& attachment,
                     const RouteBuildOptions& options = {});

/// Deterministic distributed routing table: table[s][d] is the outgoing
/// link switch \p s forwards toward destination switch \p d (invalid
/// LinkId on the diagonal and for unreachable pairs). This is the form
/// classical structured-topology policies take — dimension-ordered XY on
/// a mesh/torus, up-then-down on a tree — where every hop is a pure
/// function of (current switch, destination), unlike the per-flow
/// congestion-aware paths of BuildRoutes.
using NextHopTable = std::vector<std::vector<LinkId>>;

/// Checks that \p table is shaped switch_count x switch_count, that every
/// entry is either invalid or a link actually leaving its row's switch,
/// and that following the table from any switch reaches any destination
/// with a filled row without revisiting a switch (i.e. the table is
/// complete and loop-free for every reachable pair). The walks are
/// checked in one memoized pass per destination, the walk classifier
/// PatchNextHopTable also uses, so every switch is followed once per
/// destination. Throws InvalidModelError on a violation.
void ValidateNextHopTable(const TopologyGraph& topology,
                          const NextHopTable& table);

/// Expands \p table into one static route per flow of \p traffic with
/// WalkTableRoute from each flow's source switch, always on VC 0 (the
/// implicit channel; extra VCs are the deadlock methods' job). Throws
/// InvalidModelError when the table has no entry for a hop some flow
/// needs or a walk exceeds the switch count (a routing loop).
RouteSet BuildTableRoutes(const TopologyGraph& topology,
                          const CommunicationGraph& traffic,
                          const std::vector<SwitchId>& attachment,
                          const NextHopTable& table);

// ------------------------------------------------------------------------
// Fault-driven re-routing (src/fault). Failed links and switches are
// boolean masks indexed by LinkId / SwitchId; an empty mask means nothing
// has failed. A link is unusable when its own entry is set or either of
// its endpoint switches has failed.

/// Expands table[src][dst] hop by hop into a VC-0 route, like
/// BuildTableRoutes does for whole flows. Returns nullopt instead of
/// throwing when the table has a hole on the walk or the walk exceeds
/// the switch count — the caller (the fault detour policy) falls back to
/// rip-up-and-reroute for exactly those pairs.
std::optional<Route> WalkTableRoute(const TopologyGraph& topology,
                                    const NextHopTable& table, SwitchId src,
                                    SwitchId dst);

/// Table-driven detour repair: re-points every next-hop entry whose walk
/// no longer survives the failure masks. Per destination, sources whose
/// current walk traverses a failed link or switch (or a hole left by an
/// earlier patch) are re-aimed along a shortest path over the surviving
/// links (backward BFS from the destination, lowest link id wins ties);
/// intact entries are left untouched, so unaffected traffic keeps its
/// routes — the "detour" character of table-based fault recovery.
/// Entries from or to failed switches are invalidated. Patched tables
/// stay loop-free: a patched prefix strictly descends the surviving-
/// distance to the destination and hands over to an intact suffix.
/// Returns the number of previously-routable (src, dst) pairs the
/// failures disconnected (their entries become invalid). Throws
/// InvalidModelError, before touching any entry, when \p table is not
/// switch_count x switch_count or a mask has the wrong size.
std::size_t PatchNextHopTable(const TopologyGraph& topology,
                              NextHopTable& table,
                              const std::vector<char>& failed_links,
                              const std::vector<char>& failed_switches);

/// Rip-up-and-reroute fallback: recomputes the routes of \p flows over
/// the surviving topology with BuildRoutes' search, the same
/// congestion-aware Dijkstra restricted to surviving links. The listed
/// flows' bandwidth is ripped out of the congestion picture first, then
/// they are re-routed heaviest-first (stable in the order given) against
/// the bandwidth committed by every other flow, accumulating their own
/// as they land. New routes use VC 0 of each surviving link; extra VCs
/// remain the deadlock methods' job. Throws InvalidModelError when some
/// flow's endpoints are disconnected by the failures — callers decide
/// feasibility first (src/fault).
void RerouteFlows(NocDesign& design, const std::vector<FlowId>& flows,
                  const std::vector<char>& failed_links,
                  const std::vector<char>& failed_switches,
                  const RouteBuildOptions& options = {});

}  // namespace nocdr
