// The three differential campaigns of src/valid, from one main:
//
//   --campaign validation  certificates vs cycle-accurate simulation
//                          (valid/campaign.h): per-arm and per-source
//                          summaries, BENCH_validation_campaign.json.
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
// it, reruns at 1 and 3 threads under --check-determinism, and writes
// its rows.
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
//   --no-perf            fault, session: skip the ladder
//   --bursts K           session: fault bursts per ladder round (10)
//   --rounds R           session: ladder rounds per rung (3)
//
// Exit code: 0 iff no trial mismatched, the digests matched under
// --check-determinism, and the ladder passed: fault's two paths agree
// and its largest rung is faster than 1x; session's certificates agree
// and its largest rung reaches 1.5x. --replay exits 0 when the mismatch
// reproduces, 1 when the trial comes back clean and 2 when the file
// cannot be read.
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
#include "noc/io.h"
#include "runner/sweep.h"
#include "serve/service.h"
#include "serve/session.h"
#include "soc/synthetic.h"
#include "synth/synthesizer.h"
#include "util/json.h"
#include "util/table.h"
#include "valid/campaign.h"
#include "valid/fault_campaign.h"
#include "valid/repro.h"
#include "valid/session_campaign.h"

using namespace nocdr;

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

struct Validation {
  static constexpr const char* kName = "validation";
  static constexpr const char* kBench = "validation_campaign";
  static constexpr const char* kDump = "repro_trial";
  static constexpr auto Run = valid::RunCampaign;
  using Result = valid::CampaignResult<valid::TrialRow>;

  valid::CampaignConfig config;

  void AddFlags(bench::FlagParser& flags) {
    flags.AddList("--sources", &config.sources, valid::ParseSource,
                  "design source");
    flags.AddList("--arms", &config.arms, valid::ParseArm, "arm");
    flags.AddList("--engines", &config.engines, ParseEngine, "engine");
    flags.AddSwitch("--no-shrink", &config.shrink, false);
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
                 BenchJsonWriter& json) const {
    for (const valid::TrialRow& row : result.rows) {
      json.AddRow(RowToJson(row).Set("section", "trial"));
    }
    std::vector<std::string> arms, sources;
    for (const valid::TrialArm arm : config.arms) {
      arms.push_back(valid::ArmName(arm));
    }
    for (const valid::DesignSource source : config.sources) {
      sources.push_back(valid::SourceName(source));
    }
    PrintGroup(result, "arm", arms, json, [](const valid::TrialRow& row) {
      return valid::ArmName(row.arm);
    });
    PrintGroup(result, "source", sources, json, [](const valid::TrialRow& row) {
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

  /// One table (and one "<key>_summary" row per name) of the rows whose
  /// \p selector names each of \p names.
  template <typename Selector>
  static void PrintGroup(const Result& result, const std::string& key,
                         const std::vector<std::string>& names,
                         BenchJsonWriter& json, const Selector& selector) {
    TextTable table;
    table.SetHeader({key, "trials", "positive", "detonated", "infeasible",
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
      table.AddRow({name, std::to_string(trials), std::to_string(positive),
                    std::to_string(detonated), std::to_string(infeasible),
                    std::to_string(mismatch), std::to_string(escalated),
                    std::to_string(extra_vcs)});
      json.AddRow(JsonObject()
                      .Set("section", key + "_summary")
                      .Set(key, name)
                      .Set("trials", trials)
                      .Set("positive", positive)
                      .Set("detonated", detonated)
                      .Set("infeasible", infeasible)
                      .Set("mismatch", mismatch)
                      .Set("escalated", escalated)
                      .Set("extra_vcs", extra_vcs));
    }
    table.Print(std::cout);
    std::cout << "\n";
  }

  bool Finish(const Result& result, double campaign_ms,
              std::optional<bool> deterministic, BenchJsonWriter& json) const {
    const std::size_t positives =
        result.Count(valid::TrialVerdict::kPositiveDelivered);
    const std::size_t detonations =
        result.Count(valid::TrialVerdict::kNegativeDetonated);
    const std::size_t infeasibles =
        result.Count(valid::TrialVerdict::kArmInfeasible);
    json.AddRow(JsonObject()
                    .Set("section", "campaign")
                    .Set("trials", result.rows.size())
                    .Set("base_seed", config.base_seed)
                    .Set("arms", config.arms.size())
                    .Set("sources", config.sources.size())
                    .Set("positives", positives)
                    .Set("detonations", detonations)
                    .Set("infeasibles", infeasibles)
                    .Set("mismatches", result.Mismatches())
                    .Set("digest", result.digest)
                    .Set("deterministic", deterministic.value_or(true))
                    .Set("campaign_ms", campaign_ms));
    return true;
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
/// alternation (bench::BestOfMs, capped at 300 ms a side); returns
/// {incremental, rebuild}.
std::pair<PerfSample, PerfSample> TimePaths(const PerfPoint& point) {
  PerfSample inc;
  PerfSample reb;
  std::tie(inc.best_ms, reb.best_ms) = bench::BestOfMs(
      300.0, [&] { return TimePathOnce(point, /*incremental=*/true, inc); },
      [&] { return TimePathOnce(point, /*incremental=*/false, reb); });
  return {std::move(inc), std::move(reb)};
}

/// Runs the ladder; returns the largest design's speedup and sets
/// \p mismatch when the two paths' outcomes differ on any rung.
double RunPerfLadder(BenchJsonWriter& json, bool& mismatch) {
  std::cout << "\n=== incremental re-certify vs full rebuild ===\n\n";
  const std::vector<PerfPoint> points = MakePerfLadder();
  TextTable table;
  table.SetHeader({"design", "channels", "affected", "table columns",
                   "column rounds", "rebuild (ms)", "incremental (ms)",
                   "speedup"});
  double largest_speedup = 0.0;
  for (const PerfPoint& point : points) {
    const auto [inc, reb] = TimePaths(point);
    if (inc.channels_after != reb.channels_after ||
        inc.affected != reb.affected ||
        inc.cert.deadlock_free != reb.cert.deadlock_free ||
        inc.cert.topological_order != reb.cert.topological_order) {
      std::cout << "PATH MISMATCH on " << point.label
                << ": incremental and rebuild outcomes differ\n";
      mismatch = true;
    }
    for (std::size_t f = 0; f < inc.routes.FlowCount(); ++f) {
      if (inc.routes.RouteOf(FlowId(f)) != reb.routes.RouteOf(FlowId(f))) {
        std::cout << "PATH MISMATCH on " << point.label << ": flow " << f
                  << " routed differently\n";
        mismatch = true;
        break;
      }
    }
    const double speedup = inc.best_ms > 0.0 ? reb.best_ms / inc.best_ms : 0.0;
    largest_speedup = speedup;  // ladder ends with the largest design
    table.AddRow({point.label,
                  std::to_string(point.design.topology.ChannelCount()),
                  std::to_string(inc.affected),
                  std::to_string(inc.table_columns),
                  std::to_string(inc.table_column_rounds),
                  FormatDouble(reb.best_ms, 3), FormatDouble(inc.best_ms, 3),
                  FormatDouble(speedup, 1) + "x"});
    json.AddRow(JsonObject()
                    .Set("section", "reconfig_perf")
                    .Set("design", point.label)
                    .Set("channels", point.design.topology.ChannelCount())
                    .Set("flows", point.design.traffic.FlowCount())
                    .Set("affected_flows", inc.affected)
                    .Set("table_columns", inc.table_columns)
                    .Set("table_column_rounds", inc.table_column_rounds)
                    .Set("rebuild_ms", reb.best_ms)
                    .Set("incremental_ms", inc.best_ms)
                    .Set("speedup", speedup));
  }
  table.Print(std::cout);
  std::cout << "\nSpeedup on largest design (" << points.back().label
            << "): " << FormatDouble(largest_speedup, 1)
            << "x (gate: must beat 1x; baseline-gated by CI)\n";
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
                 BenchJsonWriter& json) const {
    if (emit_trials) {
      for (const valid::FaultTrialRow& row : result.rows) {
        json.AddRow(RowToJson(row).Set("section", "trial"));
      }
    }
    TextTable table;
    table.SetHeader({"source", "trials", "reconfigured", "disconnected",
                     "mismatch", "affected", "detours", "ripups",
                     "vcs_added", "mid_deadlocks"});
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
      const std::string name = valid::SourceName(source);
      table.AddRow({name, std::to_string(trials), std::to_string(reconf),
                    std::to_string(disc), std::to_string(mism),
                    std::to_string(affected), std::to_string(detours),
                    std::to_string(ripups), std::to_string(vcs),
                    std::to_string(middl)});
      json.AddRow(JsonObject()
                      .Set("section", "source_summary")
                      .Set("source", name)
                      .Set("trials", trials)
                      .Set("reconfigured", reconf)
                      .Set("disconnected", disc)
                      .Set("mismatch", mism)
                      .Set("affected_flows", affected)
                      .Set("table_detours", detours)
                      .Set("ripup_reroutes", ripups)
                      .Set("removal_vcs_added", vcs)
                      .Set("midflight_deadlocks", middl));
    }
    table.Print(std::cout);
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

  bool Finish(const Result& result, double campaign_ms,
              std::optional<bool> deterministic, BenchJsonWriter& json) const {
    bool paths_differ = false;
    double largest_speedup = 0.0;
    if (perf) {
      largest_speedup = RunPerfLadder(json, paths_differ);
    }
    const std::size_t reconfigured =
        result.Count(valid::FaultVerdict::kReconfigured);
    const std::size_t disconnected =
        result.Count(valid::FaultVerdict::kDisconnected);
    json.AddRow(JsonObject()
                    .Set("section", "campaign")
                    .Set("trials", result.rows.size())
                    .Set("base_seed", config.base_seed)
                    .Set("sources", config.sources.size())
                    .Set("reconfigured", reconfigured)
                    .Set("disconnected", disconnected)
                    .Set("mismatches", result.Mismatches())
                    .Set("digest", result.digest)
                    .Set("deterministic", deterministic.value_or(true))
                    .Set("campaign_ms", campaign_ms)
                    .Set("largest_design_speedup", largest_speedup));
    return !perf || (!paths_differ && largest_speedup > 1.0);
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

struct RungOutcome {
  bool failed = false;
  double speedup = 0.0;
};

/// One session-delta rung: stream \p rounds seeded fault plans of
/// \p bursts bursts through a live session, then replay each plan the
/// stateless way (rebuild the design client-side, render it to text,
/// re-submit) and compare wall clock and final certificates.
RungOutcome RunRung(const gen::GeneratorSpec& spec, std::uint64_t seed,
                    std::size_t bursts_per_round, std::size_t rounds,
                    BenchJsonWriter& json, TextTable& table) {
  RungOutcome outcome;
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
      std::cout << "RUNG FAILED: session_open: " << open.error.message
                << "\n";
      outcome.failed = true;
      return outcome;
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
        std::cout << "RUNG FAILED: burst " << b
                  << " not applied: " << reply.error.message << "\n";
        outcome.failed = true;
        return outcome;
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
        std::cout << "RUNG FAILED: stateless pass hit an infeasible "
                     "burst the session applied\n";
        outcome.failed = true;
        return outcome;
      }
      serve::CertRequest resubmit;
      resubmit.kind = serve::RequestKind::kDesignText;
      resubmit.design_text = DesignText(replica);
      const serve::CertResponse reply = stateless_service.Serve(resubmit);
      if (reply.status != serve::ServeStatus::kOk || !reply.deadlock_free) {
        std::cout << "RUNG FAILED: stateless re-submission failed: "
                  << reply.error.message << "\n";
        outcome.failed = true;
        return outcome;
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

  outcome.speedup = session_ms > 0.0 ? stateless_ms / session_ms : 0.0;
  outcome.failed = outcome.failed || !certificates_match;
  const double per_burst_session =
      bursts_run != 0 ? session_ms / static_cast<double>(bursts_run) : 0.0;
  const double per_burst_stateless =
      bursts_run != 0 ? stateless_ms / static_cast<double>(bursts_run) : 0.0;
  table.AddRow({base.name, std::to_string(base.topology.SwitchCount()),
                std::to_string(flows), std::to_string(bursts_run),
                FormatDouble(per_burst_session, 3),
                FormatDouble(per_burst_stateless, 3),
                FormatDouble(outcome.speedup, 2),
                certificates_match ? "identical" : "DIVERGED (bug!)"});
  json.AddRow(JsonObject()
                  .Set("section", "session_delta")
                  .Set("design", base.name)
                  .Set("switches", base.topology.SwitchCount())
                  .Set("links", base.topology.LinkCount())
                  .Set("flows", flows)
                  .Set("rounds", rounds)
                  .Set("bursts", bursts_run)
                  .Set("session_ms", session_ms)
                  .Set("stateless_ms", stateless_ms)
                  .Set("session_ms_per_burst", per_burst_session)
                  .Set("stateless_ms_per_burst", per_burst_stateless)
                  .Set("certificates_match", certificates_match)
                  .Set("speedup", outcome.speedup));
  return outcome;
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
                 BenchJsonWriter& json) const {
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
    json.AddRow(JsonObject()
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

  bool Finish(const Result& result, double /*campaign_ms*/,
              std::optional<bool> deterministic, BenchJsonWriter& json) const {
    if (deterministic.has_value()) {
      json.AddRow(JsonObject()
                      .Set("section", "session_determinism")
                      .Set("trials", config.trials)
                      .Set("digest", result.digest)
                      .Set("digests_match", *deterministic));
    }
    return !perf || RunLadder(json);
  }

  /// The session-delta ladder; false when a rung fails or the largest
  /// rung's speedup is below 1.5x.
  bool RunLadder(BenchJsonWriter& json) const {
    std::cout << "\n=== session-delta vs stateless re-submission: " << bursts
              << " bursts x " << rounds << " rounds per rung ===\n\n";
    TextTable table;
    table.SetHeader({"design", "switches", "flows", "bursts",
                     "session_ms/burst", "stateless_ms/burst", "speedup",
                     "final certs"});
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
    bool failed = false;
    double headline = 0.0;
    for (const gen::GeneratorSpec& spec : rungs) {
      const RungOutcome outcome =
          RunRung(spec, config.base_seed, bursts, rounds, json, table);
      failed = failed || outcome.failed;
      headline = outcome.speedup;  // last rung = largest design
    }
    table.Print(std::cout);
    std::cout << "\nheadline (largest rung): session_delta_speedup "
              << FormatDouble(headline, 2)
              << "x (gate: >= 1.5x; baseline-gated by CI)\n";
    json.AddRow(JsonObject()
                    .Set("section", "session_summary")
                    .Set("bursts_per_round", bursts)
                    .Set("rounds", rounds)
                    .Set("session_delta_speedup", headline));
    return !failed && headline >= 1.5;
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
  BenchJsonWriter json(Campaign::kBench);
  campaign.Summarize(result, campaign_ms, json);

  for (const auto& row : result.rows) {
    if (row.verdict != decltype(row.verdict)::kMismatch) {
      continue;
    }
    std::cout << "MISMATCH trial " << row.trial_index << " ("
              << Campaign::Label(row) << ", design seed " << row.design_seed
              << "): " << row.mismatch << "\n";
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
                << std::hex << digest << std::dec
                << (match ? " OK" : " MISMATCH (bug!)") << "\n";
    }
  }

  const bool passed = campaign.Finish(result, campaign_ms, deterministic, json);
  const std::string path = json.Write();
  if (!path.empty()) {
    std::cout << "rows written to " << path << "\n";
  }
  const bool failed = result.Mismatches() != 0 ||
                      !deterministic.value_or(true) || !passed;
  return failed ? 1 : 0;
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
