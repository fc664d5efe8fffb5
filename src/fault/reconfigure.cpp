#include "fault/reconfigure.h"

#include <algorithm>
#include <optional>
#include <unordered_map>

#include "obs/trace.h"
#include "util/error.h"

namespace nocdr::fault {

namespace {

/// The shared burst pipeline. \p cdg / \p finder are null on the rebuild
/// reference path. Returns true when the design was mutated (the burst
/// was feasible).
bool ReconfigureCore(NocDesign& design, ChannelDependencyGraph* cdg,
                     DirtyCycleFinder* finder, FaultState& state,
                     const FaultBurst& burst,
                     const ReconfigureOptions& options,
                     ReconfigureReport& report) {
  FaultState next = state;
  next.Apply(design, burst);

  {
    obs::ScopedSpan span("fault.affected");
    // 1. Affected flows: endpoint switch died, or the route crosses a
    // failed link. Routes were valid under the previous state, so any
    // failed link on them is newly failed.
    report.affected_flows = AffectedFlows(design, next);

    // 2. Feasibility: every affected flow must still have some
    // surviving path. Any miss makes the whole burst infeasible,
    // untouched. Many affected flows share a source switch, so each
    // source's reach is searched once.
    std::unordered_map<std::uint32_t, std::vector<char>> reach;
    const auto reaches = [&](SwitchId src, SwitchId dst) {
      const auto [row, fresh] = reach.try_emplace(src.value());
      if (fresh) {
        SurvivorBfs(design, next, src, /*forward=*/true, row->second);
      }
      return row->second[dst.value()] != 0;
    };
    for (const FlowId f : report.affected_flows) {
      const Flow& flow = design.traffic.FlowAt(f);
      const SwitchId src = design.attachment[flow.src.value()];
      const SwitchId dst = design.attachment[flow.dst.value()];
      if (next.SwitchFailed(src) || next.SwitchFailed(dst) ||
          !reaches(src, dst)) {
        report.disconnected_flows.push_back(f);
      }
    }
    span.Attr("affected_flows",
              static_cast<std::uint64_t>(report.affected_flows.size()));
  }
  if (report.infeasible()) {
    return false;
  }
  state = std::move(next);

  // 4, first part: a table-routed design patches its next-hop table
  // around the failures. The patch touches no route, so it can run
  // ahead of step 3 and be timed on its own. The burst is one journal
  // round; the incremental path replays the pending rounds only on the
  // columns its detour walks read (each walk reads its destination's
  // column), the rebuild reference on every column.
  if (options.table != nullptr) {
    obs::ScopedSpan span("fault.patch_table");
    NextHopTable& table = *options.table;
    table.JournalRound(design.topology, state.failed_links,
                       state.failed_switches);
    TableRefresh refresh;
    if (cdg == nullptr) {
      refresh = table.Flush(design.topology);
    } else {
      std::vector<SwitchId> read;
      read.reserve(report.affected_flows.size());
      for (const FlowId f : report.affected_flows) {
        read.push_back(
            design.attachment[design.traffic.FlowAt(f).dst.value()]);
      }
      // Under paranoid validation a copy patches every column: each
      // column the detours read must equal its eagerly patched self.
      std::optional<NextHopTable> eager;
      if (options.removal.paranoid_validation) {
        eager.emplace(table);
        eager->Flush(design.topology);
      }
      refresh = table.Refresh(design.topology, read);
      if (eager.has_value()) {
        for (const SwitchId d : read) {
          Require(table.Column(d) == eager->Column(d),
                  "ApplyFaultBurst: lazily patched column ", d.value(),
                  " differs from the eagerly patched table");
        }
      }
    }
    report.table_columns = refresh.columns;
    report.table_column_rounds = refresh.column_rounds;
    span.Attr("columns", static_cast<std::uint64_t>(refresh.columns));
    span.Attr("column_rounds",
              static_cast<std::uint64_t>(refresh.column_rounds));
  }

  {
    obs::ScopedSpan span("fault.reroute");
    // 3. Mirror the rip-up into the CDG before any route changes.
    if (cdg != nullptr) {
      for (const FlowId f : report.affected_flows) {
        cdg->RemoveEdges(design.routes.RouteOf(f), f);
      }
    }

    // 4. Re-route: table detours first, rip-up Dijkstra for the rest.
    std::vector<FlowId> ripup;
    if (options.table != nullptr) {
      for (const FlowId f : report.affected_flows) {
        const Flow& flow = design.traffic.FlowAt(f);
        const SwitchId src = design.attachment[flow.src.value()];
        const SwitchId dst = design.attachment[flow.dst.value()];
        auto detour =
            WalkTableRoute(design.topology, *options.table, src, dst);
        if (detour.has_value()) {
          design.routes.SetRoute(f, std::move(*detour));
          ++report.table_detours;
        } else {
          ripup.push_back(f);
        }
      }
    } else {
      ripup = report.affected_flows;
    }
    if (!ripup.empty()) {
      RerouteFlows(design, ripup, state.failed_links, state.failed_switches,
                   options.route_options);
      report.ripup_reroutes = ripup.size();
    }
    if (cdg != nullptr) {
      for (const FlowId f : report.affected_flows) {
        const Route& route = design.routes.RouteOf(f);
        cdg->AddEdges(route, f);
        // The new edges connect pre-existing vertices, which the
        // finder's fresh-vertex rule would never re-scan on its own.
        finder->NoteExternalEdges(route);
      }
    }
    span.Attr("table_detours",
              static_cast<std::uint64_t>(report.table_detours));
    span.Attr("ripup_reroutes",
              static_cast<std::uint64_t>(report.ripup_reroutes));
  }

  // 5. Deadlock removal re-runs on what the detours left behind.
  if (cdg != nullptr) {
    report.removal =
        RemoveDeadlocksOnCdg(design, *cdg, *finder, options.removal);
    if (options.removal.paranoid_validation) {
      Require(cdg->SameDependencies(ChannelDependencyGraph::Build(design)),
              "ApplyFaultBurst: maintained CDG diverged from rebuild");
    }
  } else {
    report.removal = RemoveDeadlocksRebuild(design, options.removal);
  }
  if (options.removal.paranoid_validation) {
    design.Validate();
  }
  return true;
}

}  // namespace

std::vector<FlowId> AffectedFlows(const NocDesign& design,
                                  const FaultState& state) {
  std::vector<FlowId> affected;
  for (std::size_t fi = 0; fi < design.traffic.FlowCount(); ++fi) {
    const FlowId f(fi);
    const Flow& flow = design.traffic.FlowAt(f);
    const SwitchId src = design.attachment[flow.src.value()];
    const SwitchId dst = design.attachment[flow.dst.value()];
    if (state.SwitchFailed(src) || state.SwitchFailed(dst)) {
      affected.push_back(f);
      continue;
    }
    for (const ChannelId c : design.routes.RouteOf(f)) {
      if (state.LinkFailed(design.topology.ChannelAt(c).link)) {
        affected.push_back(f);
        break;
      }
    }
  }
  return affected;
}

std::vector<char> DeadChannelMask(const NocDesign& design,
                                  const FaultState& state) {
  std::vector<char> dead(design.topology.ChannelCount(), 0);
  for (std::size_t c = 0; c < design.topology.ChannelCount(); ++c) {
    dead[c] = state.LinkFailed(design.topology.ChannelAt(ChannelId(c)).link)
                  ? 1
                  : 0;
  }
  return dead;
}

ReconfigureReport ApplyFaultBurst(NocDesign& design,
                                  ChannelDependencyGraph& cdg,
                                  DirtyCycleFinder& finder,
                                  FaultState& state, const FaultBurst& burst,
                                  const ReconfigureOptions& options) {
  ReconfigureReport report;
  ReconfigureCore(design, &cdg, &finder, state, burst, options, report);
  return report;
}

ReconfigureReport ApplyFaultBurstRebuild(NocDesign& design,
                                         FaultState& state,
                                         const FaultBurst& burst,
                                         const ReconfigureOptions& options) {
  ReconfigureReport report;
  ReconfigureCore(design, nullptr, nullptr, state, burst, options, report);
  return report;
}

}  // namespace nocdr::fault
