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
#include <cstdint>
#include <optional>
#include <span>
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

/// What NextHopTable::Refresh replayed.
struct TableRefresh {
  /// Columns that replayed at least one pending round.
  std::size_t columns = 0;
  /// Rounds replayed, summed over those columns.
  std::size_t column_rounds = 0;
  /// Previously-routable (src, dst) pairs the replayed rounds
  /// disconnected (their entries became invalid).
  std::size_t disconnected = 0;
};

/// Deterministic distributed routing table: entry (s, d) is the outgoing
/// link switch s forwards on toward destination switch d (invalid LinkId
/// on the diagonal and for unreachable pairs). This is the form
/// classical structured-topology policies take — dimension-ordered XY on
/// a mesh/torus, up-then-down on a tree — where every hop is a pure
/// function of (current switch, destination), unlike the per-flow
/// congestion-aware paths of BuildRoutes.
///
/// Layout: by column. Column d holds the entries toward d, and the table
/// is one flat array indexed [d * n + s] (n = switch count), so a walk
/// toward d, which reads only column d, reads one contiguous run.
///
/// Patch journal: fault repair (PatchNextHopTable, fault/reconfigure.h)
/// works in rounds, one per patch call. JournalRound records a round's
/// failure masks as stamps: the round in which each link and each
/// switch first failed. A column's patch reads only that column, the
/// links and its round's masks ("stamped in a round <= r"), so each
/// column can replay its missed rounds when it is next needed (Refresh)
/// and end bit-identical to a column patched in every round, as long as
/// the topology's links do not change in between (removal adds VCs,
/// never links). Each column counts the rounds applied to it; the rest
/// are pending.
///
/// Stale reads are loud: Column and MutableColumn throw
/// InvalidModelError on a column with pending rounds, so WalkTableRoute,
/// ValidateNextHopTable and equality never see an unpatched column. The
/// check runs once per column access, not once per entry.
class NextHopTable {
 public:
  /// The empty table (no switches): a design that is not table-routed.
  NextHopTable() = default;
  /// \p switch_count x \p switch_count holes, nothing journaled.
  explicit NextHopTable(std::size_t switch_count);

  [[nodiscard]] bool empty() const { return n_ == 0; }
  void clear() { *this = NextHopTable(); }
  [[nodiscard]] std::size_t SwitchCount() const { return n_; }

  /// Column \p d: entry s is the link s forwards on toward d. Throws
  /// InvalidModelError when d is out of range or column d has pending
  /// rounds.
  [[nodiscard]] std::span<const LinkId> Column(SwitchId d) const;
  /// Column \p d for writing (table builders); throws like Column.
  [[nodiscard]] std::span<LinkId> MutableColumn(SwitchId d);

  /// Records one patch round under the failure masks (indexed by LinkId /
  /// SwitchId; an empty mask means nothing failed) and leaves every
  /// column one more round pending. Throws InvalidModelError, recording
  /// nothing, when the table is not sized for \p topology, a mask has the
  /// wrong size, or a mask un-fails an element an earlier round failed
  /// (failures only accumulate, like fault::FaultState).
  void JournalRound(const TopologyGraph& topology,
                    const std::vector<char>& failed_links,
                    const std::vector<char>& failed_switches);

  /// Rounds journaled so far, and rounds not yet applied to column \p d.
  [[nodiscard]] std::size_t Rounds() const { return rounds_; }
  [[nodiscard]] std::size_t PendingRounds(SwitchId d) const;

  /// Replays the pending rounds of each column in \p columns (repeats
  /// allowed), in round order; afterwards those columns read as if every
  /// round had patched them when it was journaled. Throws
  /// InvalidModelError when the table is not sized for \p topology or a
  /// column is out of range.
  TableRefresh Refresh(const TopologyGraph& topology,
                       std::span<const SwitchId> columns);
  /// Refresh on every column.
  TableRefresh Flush(const TopologyGraph& topology);

  /// Equal switch counts and entries (journals aside). Reads every
  /// column of both sides, so a pending round on either throws.
  bool operator==(const NextHopTable& other) const;

 private:
  std::size_t n_ = 0;
  /// Entry (s, d) at [d * n_ + s].
  std::vector<LinkId> next_hops_;
  std::uint32_t rounds_ = 0;
  /// Per column: rounds applied.
  std::vector<std::uint32_t> column_rounds_;
  /// Per link: the round its own mask entry was first set. Per link
  /// again: the round it first became unusable (its own entry or an
  /// endpoint switch). Per switch: the round it first failed. Unfailed
  /// elements hold kNever; all three are sized at the first round.
  std::vector<std::uint32_t> link_failed_;
  std::vector<std::uint32_t> link_down_;
  std::vector<std::uint32_t> switch_failed_;
};

/// Checks that \p table is sized for \p topology's switch count, that
/// every entry is either invalid or a link actually leaving its switch,
/// and that following the table from any switch reaches any destination
/// with a filled entry without revisiting a switch (i.e. the table is
/// complete and loop-free for every reachable pair). Column by column:
/// the entries, then the walks in one memoized pass, the walk classifier
/// the patch also uses, so every switch is followed once per
/// destination. Throws InvalidModelError on a violation or a column with
/// pending rounds.
void ValidateNextHopTable(const TopologyGraph& topology,
                          const NextHopTable& table);

/// Expands \p table into one static route per flow of \p traffic with
/// WalkTableRoute from each flow's source switch, always on VC 0 (the
/// implicit channel; extra VCs are the deadlock methods' job). Throws
/// InvalidModelError when the table is sized for another switch count,
/// has no entry for a hop some flow needs or a walk exceeds the switch
/// count (a routing loop).
RouteSet BuildTableRoutes(const TopologyGraph& topology,
                          const CommunicationGraph& traffic,
                          const std::vector<SwitchId>& attachment,
                          const NextHopTable& table);

// ------------------------------------------------------------------------
// Fault-driven re-routing (src/fault). Failed links and switches are
// boolean masks indexed by LinkId / SwitchId; an empty mask means nothing
// has failed. A link is unusable when its own entry is set or either of
// its endpoint switches has failed.

/// Expands entry (src, dst) hop by hop into a VC-0 route, like
/// BuildTableRoutes does for whole flows; it reads column \p dst only.
/// Returns nullopt instead of throwing when the table has a hole on the
/// walk or the walk exceeds the switch count — the caller (the fault
/// detour policy) falls back to rip-up-and-reroute for exactly those
/// pairs. Throws InvalidModelError when the table is sized for another
/// switch count or column \p dst has pending rounds.
std::optional<Route> WalkTableRoute(const TopologyGraph& topology,
                                    const NextHopTable& table, SwitchId src,
                                    SwitchId dst);

/// Table-driven detour repair, patching every column now: journals one
/// round under the failure masks, then flushes every column. A column's
/// patch in round r re-points every entry whose walk no longer survives
/// the round's masks: sources whose current walk traverses a failed link
/// or switch (or a hole left by an earlier patch) are re-aimed along a
/// shortest path over the surviving links (backward BFS from the
/// destination, lowest link id wins ties); intact entries are left
/// untouched, so unaffected traffic keeps its routes — the "detour"
/// character of table-based fault recovery. Entries from or to failed
/// switches are invalidated. Patched tables stay loop-free: a patched
/// prefix strictly descends the surviving-distance to the destination
/// and hands over to an intact suffix. Returns the number of
/// previously-routable (src, dst) pairs the failures disconnected
/// (their entries become invalid), counting the rounds that were still
/// pending too. Throws InvalidModelError, before touching any entry,
/// when \p table is sized for another switch count or a mask has the
/// wrong size or un-fails an element (JournalRound).
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
