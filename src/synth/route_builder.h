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

/// A generated family's routing rule, as a plain value: entry (s, d) of
/// its next-hop table is a pure function of (s, d), computed from the
/// family's shape and each switch's port links (NextHop). No callback
/// and no pointer, so a copy of a rule-backed table is a plain copy.
///
/// kGrid: a width x height grid, switch s at (s % width, s / width),
/// routed dimension-ordered XY: x is corrected fully, then y. With wrap
/// (the torus; a ring is a wrapped width x 1 grid) each dimension goes
/// the shorter way around, ties toward +. Ports per switch: the links to
/// its +x, -x, +y and -y neighbours, in that order (invalid where a mesh
/// edge or a ring's missing y dimension has none).
///
/// kFatTree: `arity` children per switch, `levels` levels from the root,
/// switches numbered level by level. Up to the lowest common ancestor,
/// then down, the parallel link of each hop picked by destination
/// modulo `uplinks` (d-mod-k). Ports per switch: its `uplinks` links up
/// to its parent, then its `uplinks` links down from it (invalid on the
/// root).
///
/// kNone: no entry at all, the all-holes content of an explicit table.
struct NextHopRule {
  enum class Kind : std::uint8_t { kNone, kGrid, kFatTree };
  /// Grid port slots.
  static constexpr std::size_t kPlusX = 0;
  static constexpr std::size_t kMinusX = 1;
  static constexpr std::size_t kPlusY = 2;
  static constexpr std::size_t kMinusY = 3;

  Kind kind = Kind::kNone;
  std::size_t width = 0;
  std::size_t height = 0;
  bool wrap = false;
  std::size_t arity = 0;
  std::size_t levels = 0;
  std::size_t uplinks = 0;
  /// PortsPerSwitch() links per switch, switch by switch.
  std::vector<LinkId> ports;

  /// The switches the rule routes (0 for kNone).
  [[nodiscard]] std::size_t SwitchCount() const;
  [[nodiscard]] std::size_t PortsPerSwitch() const;
  /// The link switch \p s forwards on toward \p d: invalid when s == d,
  /// and for any (s, d) under kNone. Otherwise both must be below
  /// SwitchCount().
  [[nodiscard]] LinkId NextHop(std::size_t s, std::size_t d) const;
  /// Writes NextHop(s, d) into \p column[s] for every s (SwitchCount()
  /// entries; kNone fills holes at the size of \p column).
  void FillColumn(std::size_t d, std::span<LinkId> column) const;
};

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

/// One column of a NextHopTable, read entry by entry: the stored
/// entries, or the rule's answers for a column the table does not
/// store. A view: valid while its table is not written or destroyed.
class NextHopColumn {
 public:
  /// Entry s: the link switch s forwards on toward this column's switch.
  [[nodiscard]] LinkId operator[](std::size_t s) const {
    return stored_ != nullptr ? stored_[s] : rule_->NextHop(s, d_);
  }
  /// The whole column: the stored entries, or the rule's column written
  /// into \p scratch.
  [[nodiscard]] std::span<const LinkId> Entries(
      std::vector<LinkId>& scratch) const;
  /// Equal sizes and entries.
  bool operator==(const NextHopColumn& other) const;

 private:
  friend class NextHopTable;
  const LinkId* stored_ = nullptr;
  const NextHopRule* rule_ = nullptr;
  std::size_t d_ = 0;
  std::size_t n_ = 0;
};

/// Deterministic distributed routing table: entry (s, d) is the outgoing
/// link switch s forwards on toward destination switch d (invalid LinkId
/// on the diagonal and for unreachable pairs). This is the form
/// classical structured-topology policies take — dimension-ordered XY on
/// a mesh/torus, up-then-down on a tree — where every hop is a pure
/// function of (current switch, destination), unlike the per-flow
/// congestion-aware paths of BuildRoutes.
///
/// Rule and stored columns: a table's default content is its rule
/// (NextHopRule; a generated family's routing policy, or all holes for
/// an explicit table), so a generated table costs O(S), not S x S
/// (S = switch count). A column d — the entries toward d — is stored,
/// as one contiguous run of S entries, only once something writes it:
/// Refresh stores it from the rule before replaying its pending rounds,
/// MutableColumn before handing it out. An entry of an unstored column
/// is the rule's answer. No const method stores anything, so threads
/// may read one table concurrently.
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
/// are pending. A column's first refresh stores it from the rule, then
/// replays every pending round in full.
///
/// Stale reads are loud: Column and MutableColumn throw
/// InvalidModelError on a column with pending rounds, stored or not, so
/// WalkTableRoute, ValidateNextHopTable and equality never see an
/// unpatched column. The check runs once per column access, not once
/// per entry.
class NextHopTable {
 public:
  /// The empty table (no switches): a design that is not table-routed.
  NextHopTable() = default;
  /// An explicit table: \p switch_count x \p switch_count holes,
  /// nothing stored, nothing journaled.
  explicit NextHopTable(std::size_t switch_count);
  /// A table whose content is \p rule, for rule.SwitchCount() switches.
  /// Throws InvalidModelError when the rule's port count does not match.
  explicit NextHopTable(NextHopRule rule);

  [[nodiscard]] bool empty() const { return n_ == 0; }
  void clear() { *this = NextHopTable(); }
  [[nodiscard]] std::size_t SwitchCount() const { return n_; }

  /// Column \p d: entry s is the link s forwards on toward d. Throws
  /// InvalidModelError when d is out of range or column d has pending
  /// rounds.
  [[nodiscard]] NextHopColumn Column(SwitchId d) const;
  /// Column \p d for writing (table builders): stores it from the rule
  /// if it is not stored yet; throws like Column.
  [[nodiscard]] std::span<LinkId> MutableColumn(SwitchId d);
  /// Columns stored so far (0 on a table fresh from its rule).
  [[nodiscard]] std::size_t StoredColumns() const;

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
  /// allowed), in round order, storing each from the rule first if it is
  /// not stored; afterwards those columns read as if every round had
  /// patched them when it was journaled. Throws InvalidModelError when
  /// the table is not sized for \p topology or a column is out of range.
  TableRefresh Refresh(const TopologyGraph& topology,
                       std::span<const SwitchId> columns);
  /// Refresh on every column.
  TableRefresh Flush(const TopologyGraph& topology);

  /// Equal switch counts and entries (journals aside; stored or from the
  /// rule alike). Reads every column of both sides, so a pending round on
  /// either throws.
  bool operator==(const NextHopTable& other) const;

 private:
  /// One destination's column: its entries once stored (empty until
  /// then) and the rounds applied.
  struct ColumnState {
    std::vector<LinkId> entries;
    std::uint32_t rounds = 0;
  };

  /// Stores column \p d from the rule unless it is stored; returns it.
  std::span<LinkId> Store(std::size_t d);

  std::size_t n_ = 0;
  NextHopRule rule_;
  std::vector<ColumnState> columns_;
  std::uint32_t rounds_ = 0;
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
/// destination; an unstored column is read whole from the rule into a
/// scratch buffer, and nothing is stored. Generation does not call it:
/// a family's rule is loop-free by its argument (gen/generators.h), and
/// this stays the check for explicit and patched tables. Throws
/// InvalidModelError on a violation or a column with pending rounds.
void ValidateNextHopTable(const TopologyGraph& topology,
                          const NextHopTable& table);

/// Expands \p table into one static route per flow of \p traffic with
/// WalkTableRoute from each flow's source switch, reading entry by entry
/// and storing nothing, always on VC 0 (the
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
/// BuildTableRoutes does for whole flows; it reads column \p dst only,
/// entry by entry (the rule's answers where the column is not stored).
/// Every hop is checked: the link leaves the current switch and has VC 0.
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
