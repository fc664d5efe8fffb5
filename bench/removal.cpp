// The removal loop's runtime and its cost on structured designs, in one
// run. The paper says its method "is scalable" and finishes "within
// minutes even for the largest benchmark" (38 cores, 2010 hardware).
//
//   * Engine ladder (E7, E10): RemoveDeadlocks with the incremental CDG
//     engine and with the rebuild-per-iteration baseline on copies of
//     each design, the two timed in alternation (bench::BestOfMs), and
//     the VCs resource ordering adds. The ladder climbs from rings and
//     D36_8 through synthetic SoCs and the structured families at
//     85-144 switches to S288_f4, a 288-core SoC, timed last.
//   * Determinism: the ladder's jobs through SweepRunner at one thread
//     and at all hardware threads; the digests must be equal.
//   * Family grid (E11): mesh, torus, ring and fat tree at two sizes
//     under four traffic patterns with the family's classical routing:
//     whether the untreated design is cyclic, the VCs of removal and of
//     resource ordering, up*/down*'s hop inflation, and steady-state
//     throughput and latency of the removal-treated design.
//   * Generation at scale: GenerateStandardDesign under uniform traffic
//     for mesh and torus up to 100x100, a 1024-switch ring and a 4x6 fat
//     tree: the design's size, its route hops and the next-hop columns
//     it stored (none: a family routes by its rule), timed once. The
//     mesh and torus rows also canonicalize the design (timed) and run a
//     served request's ComputeCertification once: its iterations, VCs,
//     payload bytes and payload digest, plus the cycle search's work
//     counters from a RemoveDeadlocks run on a copy. CanonicalizeDesign
//     must equal the text round trip on the design and on that treated
//     copy.
//
// Every deterministic number printed is a field of a row of
// BENCH_removal.json. Takes no flags. Exits 1 when an invariant breaks:
// the engines disagree, a treated design keeps a cyclic CDG, a torus or
// ring point under uniform traffic needs no VC, an untreated mesh or
// fat-tree point is cyclic, a treated design deadlocks in simulation, a
// sweep job throws, the sweep digests differ, a generated design stored
// a next-hop column, a request's computation is not deadlock-free or
// disagrees with its removal run, or CanonicalizeDesign differs from the
// text round trip. No timing sets it.
#include <chrono>
#include <iostream>
#include <string>
#include <tuple>
#include <utility>
#include <vector>

#include "bench_common.h"
#include "deadlock/removal.h"
#include "deadlock/resource_ordering.h"
#include "deadlock/updown.h"
#include "gen/generators.h"
#include "ledger.h"
#include "noc/io.h"
#include "runner/sweep.h"
#include "serve/service.h"
#include "sim/simulator.h"
#include "soc/benchmarks.h"
#include "soc/synthetic.h"
#include "synth/synthesizer.h"
#include "util/canonical.h"
#include "util/clock.h"
#include "util/digest.h"
#include "util/json.h"
#include "util/table.h"

using namespace nocdr;
using bench::Cell;
using bench::Ledger;
using bench::Table;

namespace {

/// A design of the engine ladder under its BENCH name.
struct Rung {
  std::string name;
  NocDesign design;
};

/// A synthetic SoC of \p cores cores, fan-out 4 and one hub per 24
/// cores, synthesized on one switch per three cores.
Rung SyntheticRung(std::size_t cores) {
  SyntheticSocSpec spec;
  spec.cores = cores;
  spec.fanout = 4;
  spec.hubs = cores / 24;
  const SocBenchmark soc = MakeSyntheticSoc(spec);
  return {soc.name, SynthesizeDesign(soc.traffic, soc.name, cores / 3)};
}

std::vector<Rung> MakeLadder() {
  std::vector<Rung> ladder;
  ladder.push_back({"ring32x3", gen::UnidirectionalRing(32, 3)});
  ladder.push_back({"ring64x4", gen::UnidirectionalRing(64, 4)});
  const SocBenchmark d36 = MakeBenchmark(SocBenchmarkId::kD36_8);
  for (const std::size_t switches : {14u, 24u, 34u}) {
    ladder.push_back({"D36_8@" + std::to_string(switches),
                      SynthesizeDesign(d36.traffic, d36.name, switches)});
  }
  for (const std::size_t cores : {36u, 72u, 144u}) {
    ladder.push_back(SyntheticRung(cores));
  }
  // The families under uniform traffic. Wrapped shortest-way routing on
  // the torus and ring is cyclic, so removal has real work there.
  gen::GeneratorSpec spec;
  spec.uniform_fanout = 4;
  const auto add_family = [&ladder, &spec](gen::TopologyFamily family) {
    spec.family = family;
    NocDesign design = gen::GenerateStandardDesign(spec);
    ladder.push_back({gen::FamilyShapeName(spec), std::move(design)});
  };
  spec.width = spec.height = 12;
  add_family(gen::TopologyFamily::kMesh2D);
  spec.width = spec.height = 10;
  add_family(gen::TopologyFamily::kTorus2D);
  spec.ring_nodes = 96;
  add_family(gen::TopologyFamily::kRing);
  spec.tree_arity = 4;
  spec.tree_levels = 4;
  spec.tree_uplinks = 2;
  add_family(gen::TopologyFamily::kFatTree);
  ladder.push_back(SyntheticRung(288));  // the largest, last
  return ladder;
}

struct TimedRun {
  double best_ms = 0.0;
  RemovalReport report;
};

using RemovalLoop = RemovalReport (*)(NocDesign&, const RemovalOptions&);

/// Best-of timing of the removal loops on copies of \p base,
/// RemoveDeadlocksRebuild and RemoveDeadlocks in alternation
/// (bench::BestOfMs, capped at 200 ms a side); returns {rebuild,
/// incremental}.
std::pair<TimedRun, TimedRun> TimeRemoval(const NocDesign& base) {
  const auto timed = [&base](RemovalLoop remove, TimedRun& result) {
    NocDesign design = base;  // copy outside the timed region
    const auto t0 = std::chrono::steady_clock::now();
    RemovalReport report = remove(design, {});
    const double ms = MillisSince(t0);
    result.report = std::move(report);
    return ms;
  };
  TimedRun rebuild;
  TimedRun incremental;
  std::tie(rebuild.best_ms, incremental.best_ms) = bench::BestOfMs(
      200.0, [&] { return timed(RemoveDeadlocksRebuild, rebuild); },
      [&] { return timed(RemoveDeadlocks, incremental); });
  return {std::move(rebuild), std::move(incremental)};
}

/// Times both engines and counts resource ordering's VCs on every rung;
/// returns the speedup on the last, the largest.
double EngineLadder(Ledger& ledger, const std::vector<Rung>& ladder) {
  std::cout << "=== E7/E10: removal-engine latency, incremental vs "
               "rebuild-per-iteration ===\n\n";
  Table table(ledger, "engine_latency",
              {"design", "switches", "links", "flows", "iters", "VCs",
               "ordering VCs", "rebuild (ms)", "incremental (ms)", "speedup",
               "BFS runs"});
  double largest_speedup = 0.0;
  for (const Rung& rung : ladder) {
    const auto [rebuild, incremental] = TimeRemoval(rung.design);
    const RemovalReport& report = incremental.report;
    const bool agree = rebuild.report.iterations == report.iterations &&
                       rebuild.report.vcs_added == report.vcs_added &&
                       rebuild.report.flows_rerouted == report.flows_rerouted;
    ledger.Expect(agree, rung.name,
                  "engines disagree: rebuild " + Summarize(rebuild.report) +
                      " vs incremental " + Summarize(report));
    NocDesign ordered = rung.design;
    const std::size_t ordering_vcs = ApplyResourceOrdering(ordered).vcs_added;
    ledger.ExpectAcyclic(ordered, "resource ordering");

    const double speedup =
        incremental.best_ms > 0.0 ? rebuild.best_ms / incremental.best_ms
                                  : 0.0;
    largest_speedup = speedup;  // the ladder ends with the largest
    const NocDesign& design = rung.design;
    table.Add(rung.name,
              {Cell("", rung.name),
               Cell("switches", design.topology.SwitchCount()),
               Cell("links", design.topology.LinkCount()),
               Cell("flows", design.traffic.FlowCount()),
               Cell("iterations", report.iterations),
               Cell("vcs_added", report.vcs_added),
               Cell("ordering_vcs", ordering_vcs),
               Cell("rebuild_ms", rebuild.best_ms, 2),
               Cell("incremental_ms", incremental.best_ms, 2),
               Cell("speedup", speedup, 1, "x"),
               Cell("cycle_bfs_runs", report.cycle_bfs_runs)});
  }
  table.Print();
  std::cout << "\nSpeedup on largest design (" << ladder.back().name
            << "): " << FormatDouble(largest_speedup, 1)
            << "x (target >= 3x)\n";
  return largest_speedup;
}

/// Runs both engines on every rung through SweepRunner at one thread
/// and at all hardware threads; the deterministic digests must match,
/// and every treated design must be acyclic.
void SweepDeterminism(Ledger& ledger, const std::vector<Rung>& ladder,
                      double largest_speedup) {
  std::cout << "\n=== SweepRunner: thread-count determinism + throughput "
               "===\n\n";
  std::vector<runner::SweepJob> jobs;
  for (const Rung& rung : ladder) {
    for (const auto& [method, label] :
         {std::pair{runner::SweepMethod::kRemoval, "incremental"},
          std::pair{runner::SweepMethod::kRemovalRebuild, "rebuild"}}) {
      runner::SweepJob& job = jobs.emplace_back();
      job.design = rung.name;
      job.variant = label;
      job.method = method;
      job.factory = [&design = rung.design](Rng&) { return design; };
    }
  }

  auto t0 = std::chrono::steady_clock::now();
  const auto serial = runner::SweepRunner({.threads = 1}).Run(jobs);
  const double serial_ms = MillisSince(t0);
  t0 = std::chrono::steady_clock::now();
  const auto parallel = runner::SweepRunner({.threads = 0}).Run(jobs);
  const double parallel_ms = MillisSince(t0);

  for (const runner::SweepRow& row : serial) {
    const std::string job = row.design + "/" + row.variant;
    ledger.Expect(row.error.empty(), job, "job failed: " + row.error);
    ledger.Expect(row.deadlock_free, job, "removal left a cyclic CDG");
  }
  const std::uint64_t digest = Digest(serial);
  const bool deterministic = digest == Digest(parallel);
  ledger.Expect(deterministic, "sweep",
                "digests differ between 1 thread and all threads");
  std::cout << jobs.size() << " jobs: 1 thread " << FormatDouble(serial_ms, 1)
            << " ms, all threads " << FormatDouble(parallel_ms, 1)
            << " ms (" << FormatDouble(serial_ms / parallel_ms, 1)
            << "x), digests "
            << (deterministic ? "IDENTICAL" : "MISMATCH (bug!)") << " ("
            << std::hex << digest << std::dec << ")\n";
  ledger.Add(JsonObject()
                 .Set("section", "sweep_throughput")
                 .Set("jobs", jobs.size())
                 .Set("serial_ms", serial_ms)
                 .Set("parallel_ms", parallel_ms)
                 .Set("digest_match", deterministic)
                 .Set("digest", digest)
                 .Set("largest_design_speedup", largest_speedup));
}

struct FamilyPoint {
  gen::GeneratorSpec spec;
  std::string size_label;
};

/// Every family at a small and a large size, each under every pattern,
/// family by family.
std::vector<FamilyPoint> GridPoints() {
  std::vector<FamilyPoint> points;
  const auto add = [&points](gen::GeneratorSpec spec,
                             const std::string& size_label) {
    // Fan-out 4 keeps the uniform pattern dense enough that wrapped
    // shortest-way routing on the torus and ring points is cyclic.
    spec.uniform_fanout = 4;
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

/// E11: the structured families under their classical routing, treated
/// by removal, resource ordering and up*/down*.
void FamilyGrid(Ledger& ledger) {
  std::cout << "\n=== E11: standard topology families, classical routing "
               "===\n\n";
  Table table(ledger, "family_point",
              {"family", "size", "pattern", "sw", "flows", "cyclic",
               "rm VCs", "rm (ms)", "ord VCs", "u/d infl", "thr (f/cyc)",
               "avg lat"});
  struct FamilyAgg {
    std::size_t points = 0;
    std::size_t cyclic = 0;
    std::size_t removal_vcs = 0;
    std::size_t ordering_vcs = 0;
    double removal_ms = 0.0;
  };
  std::vector<std::pair<std::string, FamilyAgg>> aggregates;

  for (const FamilyPoint& point : GridPoints()) {
    const gen::TopologyFamily family = point.spec.family;
    const std::string family_name = gen::FamilyName(family);
    const NocDesign base = gen::GenerateStandardDesign(point.spec);
    const bool cyclic = !IsDeadlockFree(base);

    NocDesign removal_design = base;
    const auto t0 = std::chrono::steady_clock::now();
    const RemovalReport removal = RemoveDeadlocks(removal_design);
    const double removal_ms = MillisSince(t0);
    ledger.ExpectAcyclic(removal_design, "removal");

    NocDesign ordering_design = base;
    const std::size_t ordering_vcs =
        ApplyResourceOrdering(ordering_design).vcs_added;
    ledger.ExpectAcyclic(ordering_design, "resource ordering");

    // Up*/down* is always feasible on these families (every link has
    // its reverse), but keep the probe honest.
    NocDesign updown_design = base;
    bool updown_feasible = true;
    double updown_inflation = 1.0;
    try {
      updown_inflation = ApplyUpDownRouting(updown_design).HopInflation();
      ledger.ExpectAcyclic(updown_design, "up*/down*");
    } catch (const TurnProhibitionInfeasibleError&) {
      updown_feasible = false;
    }

    // Wrapped shortest-way routing on torus and ring is not statically
    // safe under uniform traffic, so cycle breaking must cost VCs; mesh
    // XY and fat-tree up/down routing are acyclic by construction.
    const bool wrapped = family == gen::TopologyFamily::kTorus2D ||
                         family == gen::TopologyFamily::kRing;
    if (wrapped && point.spec.pattern == gen::TrafficPattern::kUniform) {
      ledger.Expect(cyclic && removal.vcs_added > 0, base.name,
                    "expected to need cycle breaking (cyclic=" +
                        std::to_string(cyclic) + ", removal VCs=" +
                        std::to_string(removal.vcs_added) + ")");
    }
    ledger.Expect(wrapped || !cyclic, base.name,
                  "should be deadlock-free by construction");

    // Steady-state throughput/latency on the removal-treated design.
    SimConfig sim_cfg;
    sim_cfg.buffer_depth = 2;
    sim_cfg.max_cycles = 20000;
    sim_cfg.traffic.mode = InjectionMode::kBernoulli;
    sim_cfg.traffic.reference_injection_rate = 0.02;
    sim_cfg.traffic.packet_length = 5;
    sim_cfg.traffic.seed = point.spec.seed;
    const SimResult sim = SimulateWorkload(removal_design, sim_cfg);
    ledger.Expect(!sim.deadlocked, base.name,
                  "deadlocked in steady-state simulation after removal");
    const double throughput =
        sim.cycles > 0 ? static_cast<double>(sim.flits_delivered) /
                             static_cast<double>(sim.cycles)
                       : 0.0;

    table.Add(table.Row(base.name)
                  .Set("links", base.topology.LinkCount())
                  .Set("removal_iterations", removal.iterations)
                  .Set("updown_feasible", updown_feasible)
                  .Set("sim_cycles", sim.cycles)
                  .Set("packets_offered", sim.packets_offered)
                  .Set("packets_delivered", sim.packets_delivered),
              {Cell("family", family_name), Cell("size", point.size_label),
               Cell("pattern", gen::PatternName(point.spec.pattern)),
               Cell("switches", base.topology.SwitchCount()),
               Cell("flows", base.traffic.FlowCount()),
               Cell("cyclic", cyclic, cyclic ? "yes" : "no"),
               Cell("removal_vcs", removal.vcs_added),
               Cell("removal_ms", removal_ms, 2),
               Cell("ordering_vcs", ordering_vcs),
               Cell("updown_hop_inflation", updown_inflation, 2),
               Cell("throughput_flits_per_cycle", throughput, 3),
               Cell("avg_packet_latency", sim.avg_packet_latency, 1)});
    if (aggregates.empty() || aggregates.back().first != family_name) {
      aggregates.emplace_back(family_name, FamilyAgg{});
    }
    FamilyAgg& agg = aggregates.back().second;
    ++agg.points;
    agg.cyclic += cyclic;
    agg.removal_vcs += removal.vcs_added;
    agg.ordering_vcs += ordering_vcs;
    agg.removal_ms += removal_ms;
  }
  table.Print();

  std::cout << "\n";
  for (const auto& [family, agg] : aggregates) {
    std::cout << family << ": " << agg.cyclic << "/" << agg.points
              << " cyclic points, removal " << agg.removal_vcs
              << " VCs total vs ordering " << agg.ordering_vcs << " ("
              << FormatDouble(agg.removal_ms, 1) << " ms removal)\n";
    ledger.Add(JsonObject()
                   .Set("section", "family_summary")
                   .Set("family", family)
                   .Set("points", agg.points)
                   .Set("cyclic_points", agg.cyclic)
                   .Set("removal_vcs", agg.removal_vcs)
                   .Set("ordering_vcs", agg.ordering_vcs)
                   .Set("removal_ms", agg.removal_ms));
  }
}

/// Expects CanonicalizeDesign(\p design), \p canonical, to equal the
/// text round trip it replaced: \p design rendered in canonical flow
/// order and parsed back. Equal designs have the same channel table,
/// flows and routes.
void ExpectRoundTrip(Ledger& ledger, const NocDesign& design,
                     const CanonicalDesign& canonical,
                     const std::string& what) {
  const std::string text = DesignText(design, CanonicalFlowOrder(design));
  ledger.Expect(canonical.text == text, design.name,
                what + ": the canonical text differs from the round trip's");
  ledger.Expect(ReadDesign(text) == canonical.design, design.name,
                what + ": the canonical design differs from the round trip's");
}

/// The request cells of a generate row: canonicalize \p design (timed,
/// not gated), run a served request's ComputeCertification once (timed,
/// not gated), and RemoveDeadlocks on a copy of the canonical design for
/// the cycle search's counters. CanonicalizeDesign must equal the text
/// round trip on the design and on that treated copy, whose VCs removal
/// appended out of link order.
std::vector<Cell> RequestCells(Ledger& ledger, const NocDesign& design) {
  auto t0 = std::chrono::steady_clock::now();
  const CanonicalDesign canonical = CanonicalizeDesign(design);
  const double canonicalize_ms = MillisSince(t0);
  ExpectRoundTrip(ledger, design, canonical, "untreated");
  t0 = std::chrono::steady_clock::now();
  const serve::CachedCertification served =
      serve::ComputeCertification(canonical.design, serve::CertRequest{});
  const double ms = MillisSince(t0);
  NocDesign copy = canonical.design;
  const RemovalReport report = RemoveDeadlocks(copy);
  ExpectRoundTrip(ledger, copy, CanonicalizeDesign(copy), "treated");
  ledger.Expect(served.deadlock_free, design.name,
                "the computed certificate is not deadlock-free");
  ledger.Expect(report.iterations == served.iterations &&
                    report.vcs_added == served.vcs_added,
                design.name, "the computation and its removal run disagree");
  std::uint64_t digest = kFnvOffsetBasis;
  DigestField(digest, served.certificate_json);
  DigestField(digest, served.treated_design_text);
  return {Cell("iterations", served.iterations),
          Cell("vcs_added", served.vcs_added),
          Cell("payload_bytes", served.certificate_json.size() +
                                    served.treated_design_text.size()),
          Cell("payload_digest", digest),
          Cell("cycle_bfs_runs", report.cycle_bfs_runs),
          Cell("scc_vertices", report.scc_vertices),
          Cell("cycle_checks", report.cycle_checks),
          Cell("compute_ms", ms, 1),
          Cell("canonicalize_ms", canonicalize_ms, 1)};
}

/// Generation at scale, uniform traffic, seed 1: each design's size and
/// route hops, the next-hop columns its table stored (a family routes by
/// its rule, so none) and one timed run; for mesh and torus, one request
/// computed on it (RequestCells).
void GenerateAtScale(Ledger& ledger) {
  std::cout << "\n=== generation at scale ===\n\n";
  Table table(ledger, "generate",
              {"design", "switches", "links", "flows", "route hops",
               "stored columns", "generate (ms)", "iterations", "VCs",
               "payload bytes", "payload digest", "BFS runs",
               "SCC vertices", "cycle checks", "compute (ms)",
               "canonicalize (ms)"});
  std::vector<gen::GeneratorSpec> specs;
  for (const gen::TopologyFamily family :
       {gen::TopologyFamily::kMesh2D, gen::TopologyFamily::kTorus2D}) {
    for (const std::size_t side : {32u, 64u, 100u}) {
      gen::GeneratorSpec& spec = specs.emplace_back();
      spec.family = family;
      spec.width = spec.height = side;
    }
  }
  gen::GeneratorSpec& ring = specs.emplace_back();
  ring.family = gen::TopologyFamily::kRing;
  ring.ring_nodes = 1024;
  gen::GeneratorSpec& tree = specs.emplace_back();
  tree.family = gen::TopologyFamily::kFatTree;
  tree.tree_arity = 4;
  tree.tree_levels = 6;
  for (const gen::GeneratorSpec& spec : specs) {
    NextHopTable next_hops;
    const auto t0 = std::chrono::steady_clock::now();
    const NocDesign design = gen::GenerateStandardDesign(spec, &next_hops);
    const double ms = MillisSince(t0);
    std::size_t hops = 0;
    for (std::size_t f = 0; f < design.traffic.FlowCount(); ++f) {
      hops += design.routes.RouteOf(FlowId(f)).size();
    }
    const std::size_t stored = next_hops.StoredColumns();
    ledger.Expect(stored == 0, design.name,
                  "generation stored " + std::to_string(stored) +
                      " next-hop columns");
    std::vector<Cell> cells = {
        Cell("", design.name),
        Cell("switches", design.topology.SwitchCount()),
        Cell("links", design.topology.LinkCount()),
        Cell("flows", design.traffic.FlowCount()),
        Cell("route_hops", hops), Cell("stored_columns", stored),
        Cell("generate_ms", ms, 2)};
    if (spec.family == gen::TopologyFamily::kMesh2D ||
        spec.family == gen::TopologyFamily::kTorus2D) {
      for (Cell& cell : RequestCells(ledger, design)) {
        cells.push_back(std::move(cell));
      }
    }
    table.Add(design.name, cells);
  }
  table.Print();
}

}  // namespace

int main() {
  Ledger ledger("removal");
  const std::vector<Rung> ladder = MakeLadder();
  SweepDeterminism(ledger, ladder, EngineLadder(ledger, ladder));
  FamilyGrid(ledger);
  GenerateAtScale(ledger);
  return ledger.Finish();
}
