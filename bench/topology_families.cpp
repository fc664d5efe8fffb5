// Experiment E11 — standard topology families under classical routing.
//
// The paper's pitch is that application-specific topologies beat
// structured ones on deadlock-handling cost. This harness runs the
// structured families themselves (src/gen): per (family, size, pattern)
// point it measures
//   * whether the family's classical policy is statically safe
//     (mesh XY and fat-tree up/down: yes; torus/ring shortest-way
//     wrap routing: no — those rows MUST need cycle breaking),
//   * the extra-VC cost and runtime of the removal algorithm vs the
//     resource-ordering baseline vs up*/down* re-routing,
//   * steady-state simulator throughput and latency on the
//     removal-treated design.
// Rows land in BENCH_topology_families.json (sections "family_point"
// and "family_summary") for the CI perf gate to diff against
// bench/baselines/.
//
// Exit code 0 iff every treated design certifies deadlock-free AND the
// deliberately cyclic rows (torus/ring under uniform traffic) really
// did require cycle breaking.
//
// Flags:
//   --uniform-fanout N  flows per core under the uniform pattern
//                       (default 4 — the baseline-gated density; lower
//                       values may legitimately fail the must-be-cyclic
//                       assertion)
#include <chrono>
#include <iostream>
#include <string>
#include <vector>

#include "bench_common.h"
#include "deadlock/updown.h"
#include "gen/generators.h"
#include "sim/simulator.h"
#include "util/json.h"
#include "util/table.h"

using namespace nocdr;

namespace {

struct FamilyPoint {
  gen::GeneratorSpec spec;
  std::string size_label;
};

std::vector<FamilyPoint> MakePoints(std::size_t uniform_fanout) {
  std::vector<FamilyPoint> points;
  const auto add = [&points, uniform_fanout](gen::GeneratorSpec spec,
                                             const std::string& size_label) {
    // The default fanout 4 keeps the uniform pattern dense enough that
    // wrapped shortest-way routing on the torus/ring points is reliably
    // cyclic; lower values exercise the sparse regime (and may fail the
    // must-be-cyclic assertion by design).
    spec.uniform_fanout = uniform_fanout;
    for (const gen::TrafficPattern pattern : gen::AllPatterns()) {
      spec.pattern = pattern;
      points.push_back({spec, size_label});
    }
  };
  gen::GeneratorSpec mesh;
  mesh.family = gen::TopologyFamily::kMesh2D;
  mesh.width = mesh.height = 6;
  add(mesh, "small");
  mesh.width = mesh.height = 10;
  add(mesh, "large");

  gen::GeneratorSpec torus;
  torus.family = gen::TopologyFamily::kTorus2D;
  torus.width = torus.height = 5;
  add(torus, "small");
  torus.width = torus.height = 8;
  add(torus, "large");

  gen::GeneratorSpec ring;
  ring.family = gen::TopologyFamily::kRing;
  ring.ring_nodes = 16;
  add(ring, "small");
  ring.ring_nodes = 48;
  add(ring, "large");

  gen::GeneratorSpec tree;
  tree.family = gen::TopologyFamily::kFatTree;
  tree.tree_arity = 2;
  tree.tree_levels = 4;
  tree.tree_uplinks = 2;
  add(tree, "small");
  tree.tree_arity = 4;
  tree.tree_levels = 3;
  add(tree, "large");
  return points;
}

}  // namespace

int main(int argc, char** argv) {
  std::size_t uniform_fanout = 4;
  bench::FlagParser flags("bench_topology_families");
  flags.AddSize("--uniform-fanout", &uniform_fanout);
  flags.Parse(argc, argv);
  if (uniform_fanout == 0) {
    flags.Fail("--uniform-fanout must be >= 1");
  }

  std::cout << "=== E11: standard topology families, classical routing "
               "===\n\n";
  BenchJsonWriter json("topology_families");
  TextTable table;
  table.SetHeader({"family", "size", "pattern", "sw", "flows", "cyclic",
                   "rm VCs", "rm (ms)", "ord VCs", "u/d infl",
                   "thr (f/cyc)", "avg lat"});

  bool failed = false;
  struct FamilyAgg {
    std::size_t points = 0;
    std::size_t cyclic = 0;
    std::size_t removal_vcs = 0;
    std::size_t ordering_vcs = 0;
    double removal_ms = 0.0;
  };
  std::vector<std::pair<std::string, FamilyAgg>> aggregates;
  const auto agg_of = [&aggregates](const std::string& family) -> FamilyAgg& {
    for (auto& [name, agg] : aggregates) {
      if (name == family) {
        return agg;
      }
    }
    aggregates.emplace_back(family, FamilyAgg{});
    return aggregates.back().second;
  };

  for (const FamilyPoint& point : MakePoints(uniform_fanout)) {
    const std::string family = gen::FamilyName(point.spec.family);
    const std::string pattern = gen::PatternName(point.spec.pattern);
    const NocDesign base = gen::GenerateStandardDesign(point.spec);
    const bool cyclic = !IsDeadlockFree(base);

    NocDesign removal_design = base;
    const auto t0 = std::chrono::steady_clock::now();
    const RemovalReport removal = RemoveDeadlocks(removal_design);
    const double removal_ms = MillisSince(t0);

    NocDesign ordering_design = base;
    const ResourceOrderingReport ordering =
        ApplyResourceOrdering(ordering_design);

    // Up*/down* is always feasible on these families (every link has
    // its reverse), but keep the probe honest.
    NocDesign updown_design = base;
    bool updown_feasible = true;
    double updown_inflation = 1.0;
    try {
      const UpDownReport updown = ApplyUpDownRouting(updown_design);
      updown_inflation = updown.HopInflation();
    } catch (const TurnProhibitionInfeasibleError&) {
      updown_feasible = false;
    }

    if (!IsDeadlockFree(removal_design) ||
        !IsDeadlockFree(ordering_design) ||
        (updown_feasible && !IsDeadlockFree(updown_design))) {
      std::cout << "BUG: a treated " << base.name << " still has a CDG "
                << "cycle\n";
      failed = true;
    }
    // The adversarial claim this family expansion exists for: wrapped
    // shortest-way routing on torus and ring is NOT statically safe
    // under uniform traffic, so cycle breaking must have real cost.
    const bool must_be_cyclic =
        (point.spec.family == gen::TopologyFamily::kTorus2D ||
         point.spec.family == gen::TopologyFamily::kRing) &&
        point.spec.pattern == gen::TrafficPattern::kUniform;
    if (must_be_cyclic && (!cyclic || removal.vcs_added == 0)) {
      std::cout << "BUG: " << base.name
                << " was expected to need cycle breaking (cyclic="
                << cyclic << ", removal VCs=" << removal.vcs_added << ")\n";
      failed = true;
    }
    if ((point.spec.family == gen::TopologyFamily::kMesh2D ||
         point.spec.family == gen::TopologyFamily::kFatTree) &&
        cyclic) {
      std::cout << "BUG: " << base.name
                << " should be deadlock-free by construction\n";
      failed = true;
    }

    // Steady-state throughput/latency on the removal-treated design.
    SimConfig sim_cfg;
    sim_cfg.buffer_depth = 2;
    sim_cfg.max_cycles = 20000;
    sim_cfg.traffic.mode = InjectionMode::kBernoulli;
    sim_cfg.traffic.reference_injection_rate = 0.02;
    sim_cfg.traffic.packet_length = 5;
    sim_cfg.traffic.seed = point.spec.seed;
    const SimResult sim = SimulateWorkload(removal_design, sim_cfg);
    if (sim.deadlocked) {
      std::cout << "BUG: treated " << base.name << " deadlocked in "
                << "steady-state simulation\n";
      failed = true;
    }
    const double throughput =
        sim.cycles > 0
            ? static_cast<double>(sim.flits_delivered) /
                  static_cast<double>(sim.cycles)
            : 0.0;

    table.AddRow({family, point.size_label, pattern,
                  std::to_string(base.topology.SwitchCount()),
                  std::to_string(base.traffic.FlowCount()),
                  cyclic ? "yes" : "no",
                  std::to_string(removal.vcs_added),
                  FormatDouble(removal_ms, 2),
                  std::to_string(ordering.vcs_added),
                  FormatDouble(updown_inflation, 2),
                  FormatDouble(throughput, 3),
                  FormatDouble(sim.avg_packet_latency, 1)});
    json.AddRow(JsonObject()
                    .Set("section", "family_point")
                    .Set("family", family)
                    .Set("size", point.size_label)
                    .Set("pattern", pattern)
                    .Set("design", base.name)
                    .Set("switches", base.topology.SwitchCount())
                    .Set("links", base.topology.LinkCount())
                    .Set("flows", base.traffic.FlowCount())
                    .Set("cyclic", cyclic)
                    .Set("removal_vcs", removal.vcs_added)
                    .Set("removal_iterations", removal.iterations)
                    .Set("removal_ms", removal_ms)
                    .Set("ordering_vcs", ordering.vcs_added)
                    .Set("updown_feasible", updown_feasible)
                    .Set("updown_hop_inflation", updown_inflation)
                    .Set("sim_cycles", sim.cycles)
                    .Set("packets_offered", sim.packets_offered)
                    .Set("packets_delivered", sim.packets_delivered)
                    .Set("throughput_flits_per_cycle", throughput)
                    .Set("avg_packet_latency", sim.avg_packet_latency));
    FamilyAgg& agg = agg_of(family);
    ++agg.points;
    agg.cyclic += cyclic;
    agg.removal_vcs += removal.vcs_added;
    agg.ordering_vcs += ordering.vcs_added;
    agg.removal_ms += removal_ms;
  }
  table.Print(std::cout);

  std::cout << "\n";
  for (const auto& [family, agg] : aggregates) {
    std::cout << family << ": " << agg.cyclic << "/" << agg.points
              << " cyclic points, removal " << agg.removal_vcs
              << " VCs total vs ordering " << agg.ordering_vcs << " ("
              << FormatDouble(agg.removal_ms, 1) << " ms removal)\n";
    json.AddRow(JsonObject()
                    .Set("section", "family_summary")
                    .Set("family", family)
                    .Set("points", agg.points)
                    .Set("cyclic_points", agg.cyclic)
                    .Set("removal_vcs", agg.removal_vcs)
                    .Set("ordering_vcs", agg.ordering_vcs)
                    .Set("removal_ms", agg.removal_ms));
  }

  const std::string path = json.Write();
  if (!path.empty()) {
    std::cout << "rows written to " << path << "\n";
  }
  return failed ? 1 : 0;
}
