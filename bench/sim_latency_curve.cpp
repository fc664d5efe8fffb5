// Extension experiment E9 — latency vs. offered load in simulation,
// plus the gate on the event engine's idle-cycle jump.
//
// Part 1 is classic NoC evaluation the paper's venue expects around its
// method: after deadlock handling, how does the network behave under
// increasing load? Sweeps the Bernoulli injection rate on D36_8 @ 14
// switches for both deadlock-free designs (removal algorithm vs.
// resource ordering) and reports average packet latency and delivery
// rate. The removal design has fewer VCs (cheaper) yet — since both run
// the same physical routes — serves comparable latency until
// saturation.
//
// Part 2 gates the event engine's reason to exist: on the largest
// generated mesh designs under light steady-state Bernoulli traffic over
// a 1M-cycle horizon, SimEngine::kEvent must beat the full-scan
// reference by >= 3,000x wall clock while producing the same results.
// The floor sits far above what O(active) stepping alone buys: an
// engine that still visits every idle cycle is only some hundreds of
// times faster than the full scan here, so the gate fails as soon as
// the jump over idle cycles stops skipping. Both engines consume the
// same pre-built TrafficSchedule so the shared O(flows x horizon)
// schedule synthesis stays out of the measurement. The full scan takes
// seconds per design and runs once; the event engine is timed
// best-of-N. Rows land in BENCH_sim_latency_curve.json (section
// "event_engine_speedup") for the tools/bench_compare.py perf gate.
//
// Flags:
//   --repeats N    best-of-N wall clock of the event engine (default 3;
//                  the full scan runs once)
//   --no-speedup   latency curve only: skip part 2 and write no BENCH
//                  rows (quick local iteration; not for gated runs)
#include <algorithm>
#include <chrono>
#include <iostream>

#include "bench_common.h"
#include "deadlock/removal.h"
#include "deadlock/resource_ordering.h"
#include "gen/generators.h"
#include "sim/simulator.h"
#include "util/json.h"
#include "util/table.h"

using namespace nocdr;

namespace {

/// Part 2's in-binary floor on the event engine's speedup over the full
/// scan; see the header for why it is not lower.
constexpr double kMinSpeedupVsFullScan = 3000.0;

SimResult RunAt(const NocDesign& design, double rate) {
  SimConfig cfg;
  cfg.traffic.mode = InjectionMode::kBernoulli;
  cfg.traffic.packet_length = 5;
  cfg.traffic.reference_injection_rate = rate;
  cfg.traffic.seed = 7;
  cfg.buffer_depth = 4;
  cfg.max_cycles = 30000;
  cfg.stall_threshold = 5000;
  return SimulateWorkload(design, cfg);
}

/// Best-of-N wall clock of one engine over a pre-built schedule; the
/// result of the last repetition is handed back for cross-checking.
double TimeEngine(const NocDesign& design, SimConfig config,
                  const TrafficSchedule& schedule, SimEngine engine,
                  std::size_t repeats, SimResult* result_out) {
  config.engine = engine;
  double best = 0.0;
  for (std::size_t rep = 0; rep < repeats; ++rep) {
    const auto t0 = std::chrono::steady_clock::now();
    SimResult result = SimulateWorkload(design, config, schedule);
    const double ms = MillisSince(t0);
    if (rep == 0 || ms < best) {
      best = ms;
    }
    *result_out = std::move(result);
  }
  return best;
}

/// Light steady-state traffic on the largest generated meshes: the idle
/// cycles between packets are exactly what the event engine skips and
/// what the full scan sweeps every channel and flow for. Returns the
/// smallest per-design event-vs-fullscan speedup.
double MeasureEventEngineSpeedup(BenchJsonWriter& json,
                                 std::size_t repeats) {
  std::cout << "\n=== event engine vs fullscan, light steady-state "
               "Bernoulli, 1M-cycle horizon ===\n\n";
  SimConfig cfg;
  cfg.traffic.mode = InjectionMode::kBernoulli;
  cfg.traffic.reference_injection_rate = 0.0000001;
  cfg.traffic.packet_length = 4;
  cfg.traffic.seed = 11;
  cfg.buffer_depth = 4;
  cfg.max_cycles = 1000000;
  cfg.stall_threshold = 2000;

  double min_speedup = 0.0;
  TextTable table;
  table.SetHeader({"design", "channels", "flows", "packets",
                   "fullscan (ms)", "event (ms)", "speedup"});
  for (const std::size_t extent : {std::size_t{16}, std::size_t{20}}) {
    gen::GeneratorSpec spec;
    spec.family = gen::TopologyFamily::kMesh2D;
    spec.width = extent;
    spec.height = extent;
    spec.cores_per_switch = 1;
    spec.pattern = gen::TrafficPattern::kUniform;
    spec.uniform_fanout = 2;
    spec.seed = 21;
    NocDesign design = gen::GenerateStandardDesign(spec);
    RemoveDeadlocks(design);

    const TrafficSchedule schedule(design, cfg.traffic, cfg.max_cycles);
    SimResult fullscan_result, event_result;
    const double fullscan_ms = TimeEngine(design, cfg, schedule,
                                          SimEngine::kFullScan, 1,
                                          &fullscan_result);
    const double event_ms = TimeEngine(design, cfg, schedule,
                                       SimEngine::kEvent, repeats,
                                       &event_result);
    if (fullscan_result.deadlocked || event_result.deadlocked ||
        fullscan_result.cycles != event_result.cycles ||
        fullscan_result.packets_delivered !=
            event_result.packets_delivered ||
        fullscan_result.flits_delivered != event_result.flits_delivered) {
      std::cout << "ENGINE DISAGREEMENT on " << design.name
                << " (fullscan " << fullscan_result.packets_delivered
                << " pkts / " << fullscan_result.cycles << " cyc, event "
                << event_result.packets_delivered << " pkts / "
                << event_result.cycles << " cyc)\n";
      return 0.0;
    }
    const double speedup = event_ms > 0.0 ? fullscan_ms / event_ms : 0.0;
    min_speedup =
        min_speedup == 0.0 ? speedup : std::min(min_speedup, speedup);
    table.AddRow({design.name,
                  std::to_string(design.topology.ChannelCount()),
                  std::to_string(design.traffic.FlowCount()),
                  std::to_string(event_result.packets_delivered),
                  FormatDouble(fullscan_ms, 2), FormatDouble(event_ms, 2),
                  FormatDouble(speedup, 0) + "x"});
    json.AddRow(JsonObject()
                    .Set("section", "event_engine_speedup")
                    .Set("design", design.name)
                    .Set("channels", design.topology.ChannelCount())
                    .Set("flows", design.traffic.FlowCount())
                    .Set("packets_delivered",
                         event_result.packets_delivered)
                    .Set("cycles", event_result.cycles)
                    .Set("fullscan_ms", fullscan_ms)
                    .Set("event_ms", event_ms)
                    .Set("speedup_vs_fullscan", speedup));
  }
  table.Print(std::cout);
  std::cout << "minimum event engine speedup "
            << FormatDouble(min_speedup, 0) << "x (target >= "
            << FormatDouble(kMinSpeedupVsFullScan, 0) << "x)\n";
  return min_speedup;
}

}  // namespace

int main(int argc, char** argv) {
  std::size_t repeats = 3;
  bool no_speedup = false;
  bench::FlagParser flags("bench_sim_latency_curve");
  flags.AddSize("--repeats", &repeats);
  flags.AddSwitch("--no-speedup", &no_speedup);
  flags.Parse(argc, argv);
  if (repeats == 0) {
    flags.Fail("--repeats must be >= 1");
  }

  std::cout << "=== E9: latency vs offered load, D36_8 @ 14 switches "
               "(5-flit packets, Bernoulli) ===\n\n";
  const auto b = MakeBenchmark(SocBenchmarkId::kD36_8);
  const auto base = SynthesizeDesign(b.traffic, b.name, 14);
  auto removal_design = base;
  auto ordering_design = base;
  RemoveDeadlocks(removal_design);
  ApplyResourceOrdering(ordering_design);
  std::cout << "removal design: " << removal_design.topology.ExtraVcCount()
            << " extra VCs; ordering design: "
            << ordering_design.topology.ExtraVcCount() << " extra VCs\n\n";

  TextTable table;
  table.SetHeader({"inj. rate", "removal: latency", "delivered",
                   "ordering: latency", "delivered"});
  for (double rate : {0.0005, 0.001, 0.002, 0.004, 0.008, 0.016}) {
    const auto rm = RunAt(removal_design, rate);
    const auto ro = RunAt(ordering_design, rate);
    auto delivered = [](const SimResult& r) {
      return r.packets_offered == 0
                 ? std::string("-")
                 : FormatDouble(100.0 *
                                    static_cast<double>(r.packets_delivered) /
                                    static_cast<double>(r.packets_offered),
                                1) +
                       "%";
    };
    table.AddRow({FormatDouble(rate, 4),
                  FormatDouble(rm.avg_packet_latency, 1) + " cyc",
                  delivered(rm),
                  FormatDouble(ro.avg_packet_latency, 1) + " cyc",
                  delivered(ro)});
    if (rm.deadlocked || ro.deadlocked) {
      std::cout << "UNEXPECTED DEADLOCK at rate " << rate << "\n";
      return 1;
    }
  }
  table.Print(std::cout);
  std::cout << "\nNeither design may ever deadlock (both CDGs are "
               "acyclic); the delivery-rate drop at high load is\n"
               "saturation, not deadlock. The removal design achieves "
               "this with a fraction of the ordering design's VCs.\n";

  if (no_speedup) {
    // Latency-curve-only run for quick local iteration; no BENCH rows
    // are written, so a baseline compare against this run would fail
    // loudly instead of silently passing on missing coverage.
    return 0;
  }
  BenchJsonWriter json("sim_latency_curve");
  const double min_speedup = MeasureEventEngineSpeedup(json, repeats);
  const std::string path = json.Write();
  if (!path.empty()) {
    std::cout << "rows written to " << path << "\n";
  }
  if (min_speedup < kMinSpeedupVsFullScan) {
    std::cout << "FAIL: event engine speedup " << FormatDouble(min_speedup, 0)
              << "x below the " << FormatDouble(kMinSpeedupVsFullScan, 0)
              << "x target\n";
    return 1;
  }
  return 0;
}
