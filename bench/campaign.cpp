// The three differential campaigns of src/valid, from one main. Each
// runs its trials, then a ladder that times its fast path against its
// reference:
//
//   --campaign validation  certificates vs cycle-accurate simulation
//                          (valid/campaign.h): per-arm and per-source
//                          summaries, then the event_engine_speedup
//                          ladder, which runs the event engine and the
//                          full-scan reference on light 1M-cycle mesh
//                          traffic and gates the speedup at 3,000x;
//                          BENCH_validation_campaign.json.
//   --campaign fault       fault bursts, the incremental reconfiguration
//                          path vs the rebuild path
//                          (valid/fault_campaign.h): a per-source
//                          summary, then the reconfig_perf ladder, which
//                          re-certifies one burst per design both ways
//                          and gates the speedup; BENCH_fault_reconfig.json.
//   --campaign session     live protocol v2 sessions vs a stateless
//                          replay (valid/session_campaign.h), then the
//                          session-delta ladder, which streams bursts
//                          through a session vs re-submitting the whole
//                          design; BENCH_serve_sessions.json.
//
// Each campaign prints its header, runs its trials, lists every
// mismatch with the file it dumped and the --replay command that reruns
// it, reruns at 1 and 3 threads under --check-determinism, runs its
// ladder, and writes its rows. Tables, rows and the exit status go
// through bench::Ledger (ledger.h).
//
// Flags. A campaign reads only its own flags; any other exits 2.
//   --campaign NAME      validation | fault | session (required)
//   --trials N           trial rows (default 400 / 500 / 500)
//   --seed S             base seed (default 1); the session ladder draws
//                        its fault plans from it too
//   --threads T          worker threads, 0 = hardware (default 0)
//   --check-determinism  rerun at 1 and 3 threads, require equal digests
//   --replay FILE        rerun one dumped mismatch instead of a campaign:
//                        a shrunk repro (validation, valid/repro.h) or a
//                        trial row, whose source and design seed name the
//                        trial (fault, session)
//   --sources a,b        validation, fault: synthesized|mesh|torus|ring|
//                        fat_tree (default: all)
//   --arms a,b           validation: untreated|removal_incremental|
//                        removal_rebuild|resource_ordering|updown
//                        (default: all)
//   --engines a,b        validation: fullscan|event. Two make every trial
//                        an engine differential: the first engine is the
//                        primary, the other re-classifies and is checked
//                        field for field. One just selects it.
//   --no-shrink          validation: skip minimizing mismatches
//   --emit-trials        fault: one BENCH row per trial
//   --no-perf            skip the ladder
//   --bursts K           session: fault bursts per ladder round (10)
//   --rounds R           session: ladder rounds per rung (3)
//
// Exit code: 0 iff no trial mismatched, the digests matched under
// --check-determinism, and the ladder passed: validation's engines
// agree and the event engine is at least 3,000x faster on both meshes;
// fault's two paths agree and its largest rung is faster than 1x;
// session's certificates agree and its largest rung reaches 1.5x; 1
// otherwise. --replay exits 0 when the mismatch reproduces, 1 when the
// trial comes back clean and 2 when the file cannot be read.
#include <algorithm>
#include <chrono>
#include <fstream>
#include <iostream>
#include <optional>
#include <sstream>
#include <string>
#include <tuple>
#include <vector>

#include "bench_common.h"
#include "cdg/cdg.h"
#include "cdg/incremental.h"
#include "deadlock/removal.h"
#include "deadlock/verify.h"
#include "fault/plan.h"
#include "fault/reconfigure.h"
#include "gen/generators.h"
#include "ledger.h"
#include "noc/io.h"
#include "runner/sweep.h"
#include "serve/service.h"
#include "serve/session.h"
#include "sim/simulator.h"
#include "soc/synthetic.h"
#include "synth/synthesizer.h"
#include "util/json.h"
#include "util/table.h"
#include "valid/campaign.h"
#include "valid/fault_campaign.h"
#include "valid/repro.h"
#include "valid/session_campaign.h"

using namespace nocdr;
using bench::Cell;
using bench::Ledger;
using bench::Table;

namespace {

/// The contents of \p path, or nullopt after saying it cannot be read.
std::optional<std::string> ReadDump(const std::string& path) {
  std::ifstream in(path);
  if (!in) {
    std::cerr << "cannot read " << path << "\n";
    return std::nullopt;
  }
  std::stringstream buffer;
  buffer << in.rdbuf();
  return buffer.str();
}

/// Prints a replay's outcome and returns the --replay exit code.
int ReplayVerdict(bool reproduced, const std::string& mismatch) {
  if (reproduced) {
    std::cout << "REPRODUCED: " << mismatch << "\n";
    return 0;
  }
  std::cout << "did not reproduce (verdict is clean now)\n";
  return 1;
}

/// --replay of a fault or session trial row: reruns \p trial on the
/// source and design seed the row names.
template <typename Trial, typename Verdict>
int ReplayRow(const std::string& path, Trial trial,
              std::string (*verdict_name)(Verdict)) {
  const std::optional<std::string> text = ReadDump(path);
  if (!text.has_value()) {
    return 2;
  }
  std::optional<valid::DesignSource> source;
  std::uint64_t seed = 0;
  try {
    const JsonValue row = JsonValue::Parse(*text);
    seed = row.At("design_seed").AsUint();
    source = valid::ParseSource(row.At("source").AsString());
  } catch (const std::exception& e) {
    std::cerr << path << ": " << e.what() << "\n";
  }
  if (!source.has_value()) {
    std::cerr << path << " is not a trial row with a source and a seed\n";
    return 2;
  }
  const auto row = trial(*source, seed);
  std::cout << "replayed " << valid::SourceName(*source) << " seed " << seed
            << ": design " << row.design << ", verdict "
            << verdict_name(row.verdict) << "\n";
  return ReplayVerdict(row.verdict == Verdict::kMismatch, row.mismatch);
}

// ------------------------------------------------------------ validation

/// The event engine's in-binary floor on its speedup over the full scan.
/// An engine that still visited every idle cycle would be only some
/// hundreds of times faster here, so the floor fails as soon as the jump
/// over idle cycles stops skipping.
constexpr double kMinSpeedupVsFullScan = 3000.0;

/// "<packets> pkts / <cycles> cyc" of one simulation.
std::string Outcome(const SimResult& result) {
  return std::to_string(result.packets_delivered) + " pkts / " +
         std::to_string(result.cycles) + " cyc";
}

/// The validation ladder: the event engine against the full-scan
/// reference on the largest generated meshes under light steady-state
/// Bernoulli traffic over a 1M-cycle horizon. The idle cycles between
/// packets are what the event engine skips and what the full scan sweeps
/// every channel and flow for. Both engines consume one pre-built
/// TrafficSchedule, so the shared O(flows x horizon) schedule synthesis
/// stays out of the measurement. The full scan takes seconds per design
/// and runs once; the event engine's sub-millisecond run is timed by
/// bench::BestOfMs.
void RunEngineLadder(Ledger& ledger) {
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
  cfg.engine = SimEngine::kEvent;

  double min_speedup = 0.0;
  Table table(ledger, "event_engine_speedup",
              {"design", "channels", "flows", "packets", "fullscan (ms)",
               "event (ms)", "speedup"});
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
    SimConfig fullscan_cfg = cfg;
    fullscan_cfg.engine = SimEngine::kFullScan;
    const auto t0 = std::chrono::steady_clock::now();
    const SimResult fullscan = SimulateWorkload(design, fullscan_cfg, schedule);
    const double fullscan_ms = MillisSince(t0);
    SimResult event;
    const double event_ms = bench::BestOfMs(200.0, [&] {
      const auto t1 = std::chrono::steady_clock::now();
      SimResult result = SimulateWorkload(design, cfg, schedule);
      const double ms = MillisSince(t1);
      event = std::move(result);
      return ms;
    });
    const bool agree = !fullscan.deadlocked && !event.deadlocked &&
                       fullscan.cycles == event.cycles &&
                       fullscan.packets_delivered == event.packets_delivered &&
                       fullscan.flits_delivered == event.flits_delivered;
    ledger.Expect(agree, design.name,
                  "engines disagree: fullscan " + Outcome(fullscan) +
                      ", event " + Outcome(event));
    const double speedup = event_ms > 0.0 ? fullscan_ms / event_ms : 0.0;
    min_speedup =
        min_speedup == 0.0 ? speedup : std::min(min_speedup, speedup);
    table.Add(table.Row(design.name).Set("cycles", event.cycles),
              {Cell("", design.name),
               Cell("channels", design.topology.ChannelCount()),
               Cell("flows", design.traffic.FlowCount()),
               Cell("packets_delivered", event.packets_delivered),
               Cell("fullscan_ms", fullscan_ms, 2),
               Cell("event_ms", event_ms, 2),
               Cell("speedup_vs_fullscan", speedup, 0, "x")});
  }
  table.Print();
  std::cout << "minimum event engine speedup " << FormatDouble(min_speedup, 0)
            << "x (gate: >= " << FormatDouble(kMinSpeedupVsFullScan, 0)
            << "x; baseline-gated by CI)\n";
  ledger.Expect(min_speedup >= kMinSpeedupVsFullScan, "event engine",
                "speedup below the in-binary floor");
}

struct Validation {
  static constexpr const char* kName = "validation";
  static constexpr const char* kBench = "validation_campaign";
  static constexpr const char* kDump = "repro_trial";
  static constexpr auto Run = valid::RunCampaign;
  using Result = valid::CampaignResult<valid::TrialRow>;

  valid::CampaignConfig config;
  bool perf = true;

  void AddFlags(bench::FlagParser& flags) {
    flags.AddList("--sources", &config.sources, valid::ParseSource,
                  "design source");
    flags.AddList("--arms", &config.arms, valid::ParseArm, "arm");
    flags.AddList("--engines", &config.engines, ParseEngine, "engine");
    flags.AddSwitch("--no-shrink", &config.shrink, false);
    flags.AddSwitch("--no-perf", &perf, false);
  }
  void Check(const bench::FlagParser&) const {}

  std::string Title() const {
    std::string title = "validation campaign: " +
                        std::to_string(config.trials) + " trials, seed " +
                        std::to_string(config.base_seed) + ", " +
                        std::to_string(config.arms.size()) + " arms, " +
                        std::to_string(config.sources.size()) +
                        " design sources";
    if (config.engines.size() > 1) {
      title += ", engine differential";
      for (const SimEngine engine : config.engines) {
        title += " " + EngineName(engine);
      }
    }
    return title;
  }

  static std::string Label(const valid::TrialRow& row) {
    return valid::ArmName(row.arm);
  }
  /// The shrunk repro; empty (no dump) under --no-shrink.
  static std::string Dump(const valid::TrialRow& row) {
    return row.repro_json;
  }

  void Summarize(const Result& result, double campaign_ms,
                 Ledger& ledger) const {
    for (const valid::TrialRow& row : result.rows) {
      ledger.Add(RowToJson(row).Set("section", "trial"));
    }
    std::vector<std::string> arms, sources;
    for (const valid::TrialArm arm : config.arms) {
      arms.push_back(valid::ArmName(arm));
    }
    for (const valid::DesignSource source : config.sources) {
      sources.push_back(valid::SourceName(source));
    }
    PrintGroup(result, "arm", arms, ledger, [](const valid::TrialRow& row) {
      return valid::ArmName(row.arm);
    });
    PrintGroup(result, "source", sources, ledger,
               [](const valid::TrialRow& row) {
                 return valid::SourceName(row.source);
               });
    std::cout << result.rows.size() << " trials in "
              << FormatDouble(campaign_ms, 1) << " ms: "
              << result.Count(valid::TrialVerdict::kPositiveDelivered)
              << " positive, "
              << result.Count(valid::TrialVerdict::kNegativeDetonated)
              << " detonated, "
              << result.Count(valid::TrialVerdict::kArmInfeasible)
              << " infeasible, " << result.Mismatches()
              << " mismatches; digest " << std::hex << result.digest
              << std::dec << "\n";
  }

  /// One table (section "<key>_summary", one row per name) of the rows
  /// whose \p selector names each of \p names.
  template <typename Selector>
  static void PrintGroup(const Result& result, const std::string& key,
                         const std::vector<std::string>& names,
                         Ledger& ledger, const Selector& selector) {
    Table table(ledger, key + "_summary",
                {key, "trials", "positive", "detonated", "infeasible",
                 "mismatch", "escalated", "extra_vcs"});
    for (const std::string& name : names) {
      std::size_t trials = 0, positive = 0, detonated = 0, infeasible = 0,
                  mismatch = 0, escalated = 0, extra_vcs = 0;
      for (const valid::TrialRow& row : result.rows) {
        if (selector(row) != name) {
          continue;
        }
        ++trials;
        positive += row.verdict == valid::TrialVerdict::kPositiveDelivered;
        detonated += row.verdict == valid::TrialVerdict::kNegativeDetonated;
        infeasible += row.verdict == valid::TrialVerdict::kArmInfeasible;
        mismatch += row.verdict == valid::TrialVerdict::kMismatch;
        escalated += row.escalations > 0;
        // Rows whose treatment threw never set channels_after; skip
        // them instead of underflowing.
        if (row.channels_after >= row.channels_before) {
          extra_vcs += row.channels_after - row.channels_before;
        }
      }
      table.Add(table.Row(),
                {Cell(key, name), Cell("trials", trials),
                 Cell("positive", positive), Cell("detonated", detonated),
                 Cell("infeasible", infeasible), Cell("mismatch", mismatch),
                 Cell("escalated", escalated), Cell("extra_vcs", extra_vcs)});
    }
    table.Print();
    std::cout << "\n";
  }

  void Finish(const Result& result, double campaign_ms,
              std::optional<bool> deterministic, Ledger& ledger) const {
    ledger.Add(JsonObject()
                   .Set("section", "campaign")
                   .Set("trials", result.rows.size())
                   .Set("base_seed", config.base_seed)
                   .Set("arms", config.arms.size())
                   .Set("sources", config.sources.size())
                   .Set("positives",
                        result.Count(valid::TrialVerdict::kPositiveDelivered))
                   .Set("detonations",
                        result.Count(valid::TrialVerdict::kNegativeDetonated))
                   .Set("infeasibles",
                        result.Count(valid::TrialVerdict::kArmInfeasible))
                   .Set("mismatches", result.Mismatches())
                   .Set("digest", result.digest)
                   .Set("deterministic", deterministic.value_or(true))
                   .Set("campaign_ms", campaign_ms));
    if (perf) {
      RunEngineLadder(ledger);
    }
  }

  int Replay(const std::string& path) const {
    const std::optional<std::string> text = ReadDump(path);
    if (!text.has_value()) {
      return 2;
    }
    valid::Repro repro;
    try {
      repro = valid::ReproFromJson(*text);
    } catch (const std::exception& e) {
      std::cerr << path << " is not a valid repro dump: " << e.what() << "\n";
      return 2;
    }
    std::cout << "replaying trial " << repro.trial_index << " ("
              << valid::ArmName(repro.arm) << ", seed " << repro.seed
              << ", design " << repro.design.name << " with "
              << repro.design.traffic.FlowCount() << " flows)\n"
              << "recorded mismatch: " << repro.mismatch << "\n";
    if (!repro.io_stable) {
      std::cout << "note: the original design was not io-stable (channel "
                   "numbering changed in the dump); the replay may "
                   "legitimately come back clean\n";
    }
    const valid::ReplayResult replay = valid::ReplayRepro(repro);
    return ReplayVerdict(replay.reproduced, replay.row.mismatch);
  }
};

// ----------------------------------------------------------------- fault

/// One rung of the reconfig_perf ladder: a treated, certified design
/// plus the burst the timing loops replay.
struct PerfPoint {
  std::string label;
  NocDesign design;    // post-treatment, pre-fault
  NextHopTable table;  // empty for synthesized designs
  fault::FaultBurst burst;
};

std::vector<PerfPoint> MakePerfLadder() {
  std::vector<PerfPoint> points;
  const auto add_synth = [&](std::size_t cores, std::size_t per_switch) {
    SyntheticSocSpec spec;
    spec.cores = cores;
    spec.fanout = 4;
    spec.hubs = std::max<std::size_t>(1, cores / 24);
    const auto soc = MakeSyntheticSoc(spec);
    PerfPoint point;
    point.label = "S" + std::to_string(cores);
    point.design = SynthesizeDesign(soc.traffic, soc.name, cores / per_switch);
    points.push_back(std::move(point));
  };
  // Table-routed tori: the incremental path patches only the table
  // columns its detours read, the rebuild path every column.
  const auto add_torus = [&](std::size_t side) {
    gen::GeneratorSpec spec;
    spec.family = gen::TopologyFamily::kTorus2D;
    spec.width = side;
    spec.height = side;
    spec.pattern = gen::TrafficPattern::kUniform;
    spec.uniform_fanout = 3;
    spec.seed = 7;
    PerfPoint point;
    point.label = gen::FamilyShapeName(spec);
    point.design = gen::GenerateStandardDesign(spec, &point.table);
    points.push_back(std::move(point));
  };
  add_synth(48, 3);
  add_synth(96, 3);
  add_synth(192, 3);
  add_torus(10);
  add_torus(16);
  add_torus(32);
  add_synth(288, 3);  // the gated speedup: S288 stays last
  for (PerfPoint& point : points) {
    RemoveDeadlocks(point.design);
    fault::FaultPlanOptions plan_opts;
    plan_opts.bursts = 1;
    plan_opts.max_links_per_burst = 2;
    plan_opts.switch_fault_probability = 0.0;
    const fault::FaultPlan plan =
        fault::DrawFaultPlan(point.design, 11, plan_opts);
    point.burst = plan.bursts.front();
  }
  return points;
}

struct PerfSample {
  double best_ms = 0.0;
  std::size_t affected = 0;
  std::size_t table_columns = 0;
  std::size_t table_column_rounds = 0;
  std::size_t channels_after = 0;
  DeadlockCertificate cert;
  RouteSet routes;
};

/// One run of one re-certify path on \p point's burst, into \p sample;
/// returns its ms. All copies are made outside the timed region; the
/// timed region is the burst application plus certification.
double TimePathOnce(const PerfPoint& point, bool incremental,
                    PerfSample& sample) {
  NocDesign design = point.design;
  NextHopTable table = point.table;
  fault::ReconfigureOptions opts;
  opts.table = table.empty() ? nullptr : &table;
  fault::FaultState state = fault::FaultState::None(design);
  ChannelDependencyGraph cdg;
  std::optional<DirtyCycleFinder> finder;
  if (incremental) {
    cdg = ChannelDependencyGraph::Build(design);
    finder.emplace(cdg);
    // Warm the finder cache to the pre-fault steady state: in
    // production the finder is the one the initial removal run left
    // behind, already knowing the graph is acyclic.
    (void)finder->Pick(CyclePolicy::kSmallestFirst);
  }

  const auto t0 = std::chrono::steady_clock::now();
  const fault::ReconfigureReport report =
      incremental ? fault::ApplyFaultBurst(design, cdg, *finder, state,
                                           point.burst, opts)
                  : fault::ApplyFaultBurstRebuild(design, state, point.burst,
                                                  opts);
  const DeadlockCertificate cert = incremental
                                       ? CertifyFromCdg(design, cdg)
                                       : CertifyDeadlockFreedom(design);
  const double ms = MillisSince(t0);

  sample.affected = report.affected_flows.size();
  sample.table_columns = report.table_columns;
  sample.table_column_rounds = report.table_column_rounds;
  sample.channels_after = design.topology.ChannelCount();
  sample.cert = cert;
  sample.routes = design.routes;
  return ms;
}

/// Best-of timing of both re-certify paths on \p point's burst, in
/// alternation (bench::BestOfMs); returns {incremental, rebuild}. The
/// 1,500 ms cap a side lets torus32x32's rebuild side, about 200-300 ms
/// a run, reach a settled best of 5 runs.
std::pair<PerfSample, PerfSample> TimePaths(const PerfPoint& point) {
  PerfSample inc;
  PerfSample reb;
  std::tie(inc.best_ms, reb.best_ms) = bench::BestOfMs(
      1500.0, [&] { return TimePathOnce(point, /*incremental=*/true, inc); },
      [&] { return TimePathOnce(point, /*incremental=*/false, reb); });
  return {std::move(inc), std::move(reb)};
}

/// Runs the ladder; returns the largest design's speedup. The two paths
/// must agree on every rung.
double RunPerfLadder(Ledger& ledger) {
  std::cout << "\n=== incremental re-certify vs full rebuild ===\n\n";
  const std::vector<PerfPoint> points = MakePerfLadder();
  Table table(ledger, "reconfig_perf",
              {"design", "channels", "affected", "table columns",
               "column rounds", "rebuild (ms)", "incremental (ms)",
               "speedup"});
  double largest_speedup = 0.0;
  for (const PerfPoint& point : points) {
    const auto [inc, reb] = TimePaths(point);
    const bool same = inc.channels_after == reb.channels_after &&
                      inc.affected == reb.affected &&
                      inc.cert.deadlock_free == reb.cert.deadlock_free &&
                      inc.cert.topological_order == reb.cert.topological_order;
    ledger.Expect(same, point.label, "incremental and rebuild outcomes differ");
    for (std::size_t f = 0; f < inc.routes.FlowCount(); ++f) {
      if (inc.routes.RouteOf(FlowId(f)) != reb.routes.RouteOf(FlowId(f))) {
        ledger.Expect(false, point.label,
                      "flow " + std::to_string(f) + " routed differently");
        break;
      }
    }
    const double speedup = inc.best_ms > 0.0 ? reb.best_ms / inc.best_ms : 0.0;
    largest_speedup = speedup;  // ladder ends with the largest design
    table.Add(
        table.Row(point.label).Set("flows", point.design.traffic.FlowCount()),
        {Cell("", point.label),
         Cell("channels", point.design.topology.ChannelCount()),
         Cell("affected_flows", inc.affected),
         Cell("table_columns", inc.table_columns),
         Cell("table_column_rounds", inc.table_column_rounds),
         Cell("rebuild_ms", reb.best_ms, 3),
         Cell("incremental_ms", inc.best_ms, 3),
         Cell("speedup", speedup, 1, "x")});
  }
  table.Print();
  std::cout << "\nSpeedup on largest design (" << points.back().label
            << "): " << FormatDouble(largest_speedup, 1)
            << "x (gate: must beat 1x; baseline-gated by CI)\n";
  ledger.Expect(largest_speedup > 1.0, points.back().label,
                "incremental re-certify not faster than the rebuild");
  return largest_speedup;
}

struct Fault {
  static constexpr const char* kName = "fault";
  static constexpr const char* kBench = "fault_reconfig";
  static constexpr const char* kDump = "fault_repro_trial";
  static constexpr auto Run = valid::RunFaultCampaign;
  using Result = valid::CampaignResult<valid::FaultTrialRow>;

  valid::FaultCampaignConfig config;
  bool emit_trials = false;
  bool perf = true;

  void AddFlags(bench::FlagParser& flags) {
    flags.AddList("--sources", &config.sources, valid::ParseSource,
                  "design source");
    flags.AddSwitch("--emit-trials", &emit_trials);
    flags.AddSwitch("--no-perf", &perf, false);
  }
  void Check(const bench::FlagParser&) const {}

  std::string Title() const {
    return "fault-reconfig campaign: " + std::to_string(config.trials) +
           " trials, seed " + std::to_string(config.base_seed) + ", " +
           std::to_string(config.sources.size()) + " design sources";
  }

  static std::string Label(const valid::FaultTrialRow& row) {
    return valid::SourceName(row.source);
  }
  static std::string Dump(const valid::FaultTrialRow& row) {
    return RowToJson(row).Dump();
  }

  void Summarize(const Result& result, double campaign_ms,
                 Ledger& ledger) const {
    if (emit_trials) {
      for (const valid::FaultTrialRow& row : result.rows) {
        ledger.Add(RowToJson(row).Set("section", "trial"));
      }
    }
    Table table(ledger, "source_summary",
                {"source", "trials", "reconfigured", "disconnected",
                 "mismatch", "affected", "detours", "ripups", "vcs_added",
                 "mid_deadlocks"});
    for (const valid::DesignSource source : config.sources) {
      std::size_t trials = 0, reconf = 0, disc = 0, mism = 0, affected = 0,
                  detours = 0, ripups = 0, vcs = 0, middl = 0;
      for (const valid::FaultTrialRow& row : result.rows) {
        if (row.source != source) {
          continue;
        }
        ++trials;
        reconf += row.verdict == valid::FaultVerdict::kReconfigured;
        disc += row.verdict == valid::FaultVerdict::kDisconnected;
        mism += row.verdict == valid::FaultVerdict::kMismatch;
        affected += row.affected_flows;
        detours += row.table_detours;
        ripups += row.ripup_reroutes;
        vcs += row.removal_vcs_added;
        middl += row.midflight_deadlocks;
      }
      table.Add(table.Row(),
                {Cell("source", valid::SourceName(source)),
                 Cell("trials", trials), Cell("reconfigured", reconf),
                 Cell("disconnected", disc), Cell("mismatch", mism),
                 Cell("affected_flows", affected),
                 Cell("table_detours", detours),
                 Cell("ripup_reroutes", ripups),
                 Cell("removal_vcs_added", vcs),
                 Cell("midflight_deadlocks", middl)});
    }
    table.Print();
    std::cout << "\n"
              << result.rows.size() << " trials in "
              << FormatDouble(campaign_ms, 1) << " ms: "
              << result.Count(valid::FaultVerdict::kReconfigured)
              << " reconfigured, "
              << result.Count(valid::FaultVerdict::kDisconnected)
              << " disconnected, " << result.Mismatches()
              << " mismatches; digest " << std::hex << result.digest
              << std::dec << "\n";
  }

  void Finish(const Result& result, double campaign_ms,
              std::optional<bool> deterministic, Ledger& ledger) const {
    const double largest_speedup = perf ? RunPerfLadder(ledger) : 0.0;
    ledger.Add(JsonObject()
                   .Set("section", "campaign")
                   .Set("trials", result.rows.size())
                   .Set("base_seed", config.base_seed)
                   .Set("sources", config.sources.size())
                   .Set("reconfigured",
                        result.Count(valid::FaultVerdict::kReconfigured))
                   .Set("disconnected",
                        result.Count(valid::FaultVerdict::kDisconnected))
                   .Set("mismatches", result.Mismatches())
                   .Set("digest", result.digest)
                   .Set("deterministic", deterministic.value_or(true))
                   .Set("campaign_ms", campaign_ms)
                   .Set("largest_design_speedup", largest_speedup));
  }

  int Replay(const std::string& path) const {
    const auto trial = [&](valid::DesignSource source, std::uint64_t seed) {
      return valid::RunFaultTrial(source, seed, config);
    };
    return ReplayRow(path, trial, valid::FaultVerdictName);
  }
};

// --------------------------------------------------------------- session

/// Always-guarded plans: every drawn event provably keeps all
/// attachment switches mutually reachable, so every ladder burst is
/// feasible and the two passes never diverge on an infeasible answer.
fault::FaultPlanOptions PerfPlan(std::size_t bursts) {
  fault::FaultPlanOptions plan;
  plan.bursts = bursts;
  plan.max_links_per_burst = 2;
  plan.switch_fault_probability = 0.15;
  plan.disconnect_tolerance = 0.0;
  return plan;
}

/// One session-delta rung: stream \p rounds seeded fault plans of
/// \p bursts bursts through a live session, then replay each plan the
/// stateless way (rebuild the design client-side, render it to text,
/// re-submit) and compare wall clock and final certificates. Returns the
/// rung's speedup, 0 when a message fails.
double RunRung(const gen::GeneratorSpec& spec, std::uint64_t seed,
               std::size_t bursts_per_round, std::size_t rounds,
               Ledger& ledger, Table& table) {
  NextHopTable base_table;
  const NocDesign base = gen::GenerateStandardDesign(spec, &base_table);

  serve::ServiceConfig session_config;
  session_config.threads = 1;
  serve::CertificationService session_service(session_config);
  serve::SessionService sessions(session_service);
  serve::ServiceConfig stateless_config;
  stateless_config.threads = 1;
  serve::CertificationService stateless_service(stateless_config);

  double session_ms = 0.0;
  double stateless_ms = 0.0;
  std::size_t bursts_run = 0;
  bool certificates_match = true;
  std::size_t flows = 0;

  for (std::size_t round = 0; round < rounds; ++round) {
    // Open (untimed): the session's epoch-0 state is the treated,
    // canonicalized design; the stateless client starts from the same
    // bytes.
    serve::SessionRequest open_request;
    open_request.op = serve::SessionOp::kOpen;
    open_request.id = "open";
    open_request.spec.kind = serve::RequestKind::kGeneratorSpec;
    open_request.spec.generator = spec;
    open_request.return_design = true;
    const serve::SessionResponse open = sessions.Handle(open_request);
    if (open.status != serve::ServeStatus::kOk) {
      ledger.Expect(false, base.name, "session_open: " + open.error.message);
      return 0.0;
    }

    NocDesign replica = ReadDesign(open.design_text);
    flows = replica.traffic.FlowCount();
    fault::FaultState state = fault::FaultState::None(replica);
    NextHopTable table = base_table;
    fault::ReconfigureOptions reconfigure;
    reconfigure.table = table.empty() ? nullptr : &table;

    // A fresh plan per round, so the stateless pass never gets a
    // cache hit on a design it already re-submitted last round.
    const fault::FaultPlan plan = fault::DrawFaultPlan(
        replica, runner::JobSeed(seed, 0xbe57 + round),
        PerfPlan(bursts_per_round));
    // Named the only way a protocol client can stream them; a burst
    // with no nameable event is left out of both passes.
    std::vector<fault::FaultBurst> bursts;
    std::vector<std::vector<serve::SessionEventSpec>> specs;
    std::size_t unnamed = 0;
    for (const fault::FaultBurst& drawn : plan.bursts) {
      std::vector<serve::SessionEventSpec> named;
      fault::FaultBurst kept = valid::NameBurst(replica, drawn, named, unnamed);
      if (!named.empty()) {
        bursts.push_back(std::move(kept));
        specs.push_back(std::move(named));
      }
    }

    // ---- streamed pass: one fault_burst message per burst ----
    std::string session_certificate;
    const auto t_session = std::chrono::steady_clock::now();
    for (std::size_t b = 0; b < specs.size(); ++b) {
      serve::SessionRequest request;
      request.op = serve::SessionOp::kBurst;
      request.id = "b" + std::to_string(b);
      request.session_id = open.session_id;
      request.events = specs[b];
      const serve::SessionResponse reply = sessions.Handle(request);
      if (reply.status != serve::ServeStatus::kOk || !reply.feasible) {
        ledger.Expect(false, base.name,
                      "burst " + std::to_string(b) + " not applied: " +
                          reply.error.message);
        return 0.0;
      }
      session_certificate = reply.certificate_json;
    }
    session_ms += MillisSince(t_session);

    // ---- stateless pass: rebuild + render + re-submit per burst ----
    std::string stateless_certificate;
    const auto t_stateless = std::chrono::steady_clock::now();
    for (const fault::FaultBurst& burst : bursts) {
      const fault::ReconfigureReport report =
          fault::ApplyFaultBurstRebuild(replica, state, burst, reconfigure);
      if (report.infeasible()) {
        ledger.Expect(false, base.name,
                      "stateless pass hit an infeasible burst the session "
                      "applied");
        return 0.0;
      }
      serve::CertRequest resubmit;
      resubmit.kind = serve::RequestKind::kDesignText;
      resubmit.design_text = DesignText(replica);
      const serve::CertResponse reply = stateless_service.Serve(resubmit);
      if (reply.status != serve::ServeStatus::kOk || !reply.deadlock_free) {
        ledger.Expect(false, base.name,
                      "stateless re-submission failed: " +
                          reply.error.message);
        return 0.0;
      }
      stateless_certificate = reply.certificate_json;
    }
    stateless_ms += MillisSince(t_stateless);
    bursts_run += bursts.size();

    // Same faults, same design — the two paths must hold the same
    // certificate at the end of the stream.
    certificates_match =
        certificates_match && session_certificate == stateless_certificate;

    serve::SessionRequest close_request;
    close_request.op = serve::SessionOp::kClose;
    close_request.session_id = open.session_id;
    sessions.Handle(close_request);
  }

  ledger.Expect(certificates_match, base.name,
                "session and stateless certificates diverged");
  const double speedup = session_ms > 0.0 ? stateless_ms / session_ms : 0.0;
  const double per_burst_session =
      bursts_run != 0 ? session_ms / static_cast<double>(bursts_run) : 0.0;
  const double per_burst_stateless =
      bursts_run != 0 ? stateless_ms / static_cast<double>(bursts_run) : 0.0;
  table.Add(table.Row(base.name)
                .Set("links", base.topology.LinkCount())
                .Set("rounds", rounds)
                .Set("session_ms", session_ms)
                .Set("stateless_ms", stateless_ms),
            {Cell("", base.name),
             Cell("switches", base.topology.SwitchCount()),
             Cell("flows", flows), Cell("bursts", bursts_run),
             Cell("session_ms_per_burst", per_burst_session, 3),
             Cell("stateless_ms_per_burst", per_burst_stateless, 3),
             Cell("speedup", speedup, 2),
             Cell("certificates_match", certificates_match,
                  certificates_match ? "identical" : "DIVERGED (bug!)")});
  return speedup;
}

struct Session {
  static constexpr const char* kName = "session";
  static constexpr const char* kBench = "serve_sessions";
  static constexpr const char* kDump = "session_repro_trial";
  static constexpr auto Run = valid::RunSessionCampaign;
  using Result = valid::CampaignResult<valid::SessionTrialRow>;

  valid::SessionCampaignConfig config;
  std::size_t bursts = 10;
  std::size_t rounds = 3;
  bool perf = true;

  void AddFlags(bench::FlagParser& flags) {
    flags.AddSize("--bursts", &bursts);
    flags.AddSize("--rounds", &rounds);
    flags.AddSwitch("--no-perf", &perf, false);
  }
  void Check(const bench::FlagParser& flags) const {
    if (config.trials == 0 || bursts == 0 || rounds == 0) {
      flags.Fail("--trials, --bursts and --rounds must be positive");
    }
  }

  std::string Title() const {
    return "streaming-session campaign: " + std::to_string(config.trials) +
           " trials (" + std::to_string(config.sources.size()) +
           " sources), seed " + std::to_string(config.base_seed);
  }

  static std::string Label(const valid::SessionTrialRow& row) {
    return valid::SourceName(row.source);
  }
  static std::string Dump(const valid::SessionTrialRow& row) {
    return RowToJson(row).Dump();
  }

  void Summarize(const Result& result, double campaign_ms,
                 Ledger& ledger) const {
    std::size_t events_unnamed = 0;
    std::size_t epochs = 0;
    for (const valid::SessionTrialRow& row : result.rows) {
      events_unnamed += row.events_unnamed;
      epochs += row.bursts_streamed;
    }
    const std::size_t streamed = result.Count(valid::SessionVerdict::kStreamed);
    const std::size_t disconnected =
        result.Count(valid::SessionVerdict::kDisconnected);
    std::cout << streamed << " streamed / " << disconnected
              << " disconnected / " << result.Mismatches() << " mismatches; "
              << epochs << " epochs advanced, " << events_unnamed
              << " events unnamed; digest " << std::hex << result.digest
              << std::dec << " (" << FormatDouble(campaign_ms, 0) << " ms)\n";
    ledger.Add(JsonObject()
                   .Set("section", "session_campaign")
                   .Set("trials", result.rows.size())
                   .Set("streamed", streamed)
                   .Set("disconnected", disconnected)
                   .Set("mismatches", result.Mismatches())
                   .Set("epochs", epochs)
                   .Set("events_unnamed", events_unnamed)
                   .Set("digest", result.digest)
                   .Set("campaign_ms", campaign_ms));
  }

  void Finish(const Result& result, double /*campaign_ms*/,
              std::optional<bool> deterministic, Ledger& ledger) const {
    if (deterministic.has_value()) {
      ledger.Add(JsonObject()
                     .Set("section", "session_determinism")
                     .Set("trials", config.trials)
                     .Set("digest", result.digest)
                     .Set("digests_match", *deterministic));
    }
    if (perf) {
      RunLadder(ledger);
    }
  }

  /// The session-delta ladder: every rung must pass and the largest
  /// reach 1.5x.
  void RunLadder(Ledger& ledger) const {
    std::cout << "\n=== session-delta vs stateless re-submission: " << bursts
              << " bursts x " << rounds << " rounds per rung ===\n\n";
    Table table(ledger, "session_delta",
                {"design", "switches", "flows", "bursts", "session_ms/burst",
                 "stateless_ms/burst", "speedup", "final certs"});
    std::vector<gen::GeneratorSpec> rungs(3);
    rungs[0].family = gen::TopologyFamily::kMesh2D;
    rungs[0].width = 8;
    rungs[0].height = 8;
    rungs[1].family = gen::TopologyFamily::kTorus2D;
    rungs[1].width = 10;
    rungs[1].height = 10;
    rungs[2].family = gen::TopologyFamily::kMesh2D;
    rungs[2].width = 16;
    rungs[2].height = 16;
    double headline = 0.0;
    for (const gen::GeneratorSpec& spec : rungs) {
      // The last rung is the largest design.
      headline = RunRung(spec, config.base_seed, bursts, rounds, ledger, table);
    }
    table.Print();
    std::cout << "\nheadline (largest rung): session_delta_speedup "
              << FormatDouble(headline, 2)
              << "x (gate: >= 1.5x; baseline-gated by CI)\n";
    ledger.Add(JsonObject()
                   .Set("section", "session_summary")
                   .Set("bursts_per_round", bursts)
                   .Set("rounds", rounds)
                   .Set("session_delta_speedup", headline));
    ledger.Expect(headline >= 1.5, "session_delta",
                  "largest rung's speedup below 1.5x");
  }

  int Replay(const std::string& path) const {
    const auto trial = [&](valid::DesignSource source, std::uint64_t seed) {
      return valid::RunSessionTrial(source, seed, config);
    };
    return ReplayRow(path, trial, valid::SessionVerdictName);
  }
};

// ---------------------------------------------------------------- driver

/// Parses the command line against \p Campaign's flags and runs it, or
/// replays a dump. Returns the exit code.
template <typename Campaign>
int RunCampaign(int argc, char** argv) {
  Campaign campaign;
  std::string name;  // main() already chose the campaign by it
  bool check_determinism = false;
  std::string replay;
  bench::FlagParser flags(std::string("bench_campaign --campaign ") +
                          Campaign::kName);
  flags.AddString("--campaign", &name);
  flags.AddSize("--trials", &campaign.config.trials);
  flags.AddUint64("--seed", &campaign.config.base_seed);
  flags.AddSize("--threads", &campaign.config.threads);
  flags.AddSwitch("--check-determinism", &check_determinism);
  flags.AddString("--replay", &replay);
  campaign.AddFlags(flags);
  flags.Parse(argc, argv);
  campaign.Check(flags);
  if (!replay.empty()) {
    return campaign.Replay(replay);
  }

  std::cout << "=== " << campaign.Title() << " ===\n\n";
  const auto t0 = std::chrono::steady_clock::now();
  const typename Campaign::Result result = Campaign::Run(campaign.config);
  const double campaign_ms = MillisSince(t0);
  Ledger ledger(Campaign::kBench);
  campaign.Summarize(result, campaign_ms, ledger);

  for (const auto& row : result.rows) {
    if (row.verdict != decltype(row.verdict)::kMismatch) {
      continue;
    }
    const std::string trial = "trial " + std::to_string(row.trial_index) +
                              " (" + Campaign::Label(row) + ", design seed " +
                              std::to_string(row.design_seed) + ")";
    ledger.Expect(false, trial, row.mismatch);
    const std::string dump = Campaign::Dump(row);
    if (!dump.empty()) {
      const std::string path = std::string(Campaign::kDump) +
                               std::to_string(row.trial_index) + ".json";
      std::ofstream out(path);
      out << dump << "\n";
      std::cout << "  replay: bench_campaign --campaign " << Campaign::kName
                << " --replay " << path << "\n";
    }
  }

  // Thread-count determinism: the digest must not depend on scheduling.
  std::optional<bool> deterministic;
  if (check_determinism) {
    deterministic = true;
    for (const std::size_t threads : {std::size_t{1}, std::size_t{3}}) {
      auto rerun = campaign.config;
      rerun.threads = threads;
      const std::uint64_t digest = Campaign::Run(rerun).digest;
      const bool match = digest == result.digest;
      deterministic = *deterministic && match;
      std::cout << "determinism check (" << threads << " threads): digest "
                << std::hex << digest << std::dec << "\n";
      ledger.Expect(match, "determinism check",
                    std::to_string(threads) + " threads gave another digest");
    }
  }

  campaign.Finish(result, campaign_ms, deterministic, ledger);
  return ledger.Finish();
}

}  // namespace

int main(int argc, char** argv) {
  // --campaign picks the flags the rest of the command line is read
  // against, so find it first.
  std::string campaign;
  for (int i = 1; i + 1 < argc; ++i) {
    if (std::string(argv[i]) == "--campaign") {
      campaign = argv[i + 1];
    }
  }
  if (campaign == Validation::kName) {
    return RunCampaign<Validation>(argc, argv);
  }
  if (campaign == Fault::kName) {
    return RunCampaign<Fault>(argc, argv);
  }
  if (campaign == Session::kName) {
    return RunCampaign<Session>(argc, argv);
  }
  std::cerr << "bench_campaign: --campaign needs validation, fault or "
               "session\n";
  return 2;
}
