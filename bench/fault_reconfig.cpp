// Fault-injection & online-reconfiguration campaign + perf comparison.
//
// Two halves:
//   1. The fault-reconfig validation campaign (src/valid/fault_campaign):
//      per-source summaries, the campaign digest and any mismatch rows
//      land in BENCH_fault_reconfig.json; mismatching trials also dump a
//      fault_repro_trial<i>.json whose (source, design_seed) pair replays
//      the trial via --replay-source/--replay-seed.
//   2. The incremental-vs-rebuild perf ladder: on designs of growing
//      size, one fault burst is re-certified through the live-CDG path
//      (ApplyFaultBurst + CertifyFromCdg) and through the from-scratch
//      path (ApplyFaultBurstRebuild + CertifyDeadlockFreedom); outcomes
//      must be bit-identical and the "speedup" column is gated by the
//      perf-regression CI job.
//
// Flags:
//   --trials N        campaign trial rows (default 500)
//   --seed S          campaign base seed (default 1)
//   --threads T       worker threads, 0 = hardware (default 0)
//   --sources a,b,c   comma list of synthesized|mesh|torus|ring|fat_tree
//   --emit-trials     emit one BENCH row per trial (nightly artifacts)
//   --no-perf         skip the perf ladder
//   --check-determinism  rerun at 1 and 3 threads, require equal digests
//   --replay-source NAME --replay-seed N  rerun one trial verbosely
//
// Exit code: 0 iff no campaign mismatch, all determinism digests match,
// and (unless --no-perf) the incremental path beats the rebuild path on
// the largest design.
#include <chrono>
#include <fstream>
#include <iostream>
#include <optional>
#include <sstream>
#include <string>

#include "bench_common.h"
#include "cdg/cdg.h"
#include "cdg/incremental.h"
#include "deadlock/removal.h"
#include "deadlock/verify.h"
#include "fault/plan.h"
#include "fault/reconfigure.h"
#include "gen/generators.h"
#include "soc/synthetic.h"
#include "synth/synthesizer.h"
#include "util/json.h"
#include "util/table.h"
#include "valid/fault_campaign.h"

using namespace nocdr;

namespace {

using bench::MillisSince;

struct Options {
  valid::FaultCampaignConfig campaign;
  bool perf = true;
  bool emit_trials = false;
  bool check_determinism = false;
  std::string replay_source;
  std::uint64_t replay_seed = 0;
  bool replay_seed_given = false;
  bool replay = false;
};

Options ParseOptions(int argc, char** argv) {
  Options opts;
  bench::FlagParser flags("bench_fault_reconfig");
  std::string sources_csv;
  bool sources_given = false;
  bool no_perf = false;
  bool replay_source_given = false;
  flags.AddSize("--trials", &opts.campaign.trials);
  flags.AddUint64("--seed", &opts.campaign.base_seed);
  flags.AddSize("--threads", &opts.campaign.threads);
  flags.AddString("--sources", &sources_csv, &sources_given);
  flags.AddSwitch("--emit-trials", &opts.emit_trials);
  flags.AddSwitch("--no-perf", &no_perf);
  flags.AddSwitch("--check-determinism", &opts.check_determinism);
  flags.AddString("--replay-source", &opts.replay_source,
                  &replay_source_given);
  flags.AddUint64("--replay-seed", &opts.replay_seed,
                  &opts.replay_seed_given);
  flags.Parse(argc, argv);
  opts.perf = !no_perf;
  opts.replay = replay_source_given || opts.replay_seed_given;
  if (opts.replay_seed_given && !replay_source_given) {
    flags.Fail("--replay-seed needs --replay-source");
  }
  if (replay_source_given && !opts.replay_seed_given) {
    flags.Fail("--replay-source needs --replay-seed");
  }
  if (sources_given) {
    opts.campaign.sources.clear();
    for (const std::string& name : bench::SplitCsv(sources_csv)) {
      const auto source = valid::ParseSource(name);
      if (!source.has_value()) {
        flags.Fail("unknown design source \"" + name + "\"");
      }
      opts.campaign.sources.push_back(*source);
    }
    if (opts.campaign.sources.empty()) {
      flags.Fail("--sources needs at least one source");
    }
  }
  return opts;
}

int Replay(const Options& opts) {
  const auto source = valid::ParseSource(opts.replay_source);
  if (!source.has_value()) {
    std::cerr << "unknown design source \"" << opts.replay_source << "\"\n";
    return 2;
  }
  const valid::FaultTrialRow row =
      valid::RunFaultTrial(*source, opts.replay_seed, opts.campaign);
  std::cout << "replayed " << valid::SourceName(*source) << " seed "
            << opts.replay_seed << ": design " << row.design << ", verdict "
            << valid::FaultVerdictName(row.verdict) << "\n";
  if (row.verdict == valid::FaultVerdict::kMismatch) {
    std::cout << "REPRODUCED: " << row.mismatch << "\n";
    return 0;
  }
  std::cout << "did not reproduce (verdict is clean now)\n";
  return 1;
}

/// One rung of the perf ladder: a treated, certified design plus the
/// burst the timing loops replay.
struct PerfPoint {
  std::string label;
  NocDesign design;       // post-treatment, pre-fault
  NextHopTable table;     // empty for synthesized designs
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
    point.design =
        SynthesizeDesign(soc.traffic, soc.name, cores / per_switch);
    points.push_back(std::move(point));
  };
  add_synth(48, 3);
  add_synth(96, 3);
  add_synth(192, 3);
  {
    gen::GeneratorSpec spec;
    spec.family = gen::TopologyFamily::kTorus2D;
    spec.width = 10;
    spec.height = 10;
    spec.pattern = gen::TrafficPattern::kUniform;
    spec.uniform_fanout = 3;
    spec.seed = 7;
    PerfPoint point;
    point.label = "torus10x10";
    point.design = gen::GenerateStandardDesign(spec, &point.table);
    points.push_back(std::move(point));
  }
  add_synth(288, 3);  // largest last: the gated speedup
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
  std::size_t channels_after = 0;
  DeadlockCertificate cert;
  RouteSet routes;
};

/// Best-of-N timing of one re-certify path on \p point's burst. All
/// copies are made outside the timed region; the timed region is the
/// burst application plus certification.
PerfSample TimePath(const PerfPoint& point, bool incremental) {
  PerfSample sample;
  double total = 0.0;
  for (int rep = 0; rep < 5; ++rep) {
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
                    : fault::ApplyFaultBurstRebuild(design, state,
                                                    point.burst, opts);
    const DeadlockCertificate cert = incremental
                                         ? CertifyFromCdg(design, cdg)
                                         : CertifyDeadlockFreedom(design);
    const double ms = MillisSince(t0);

    if (rep == 0 || ms < sample.best_ms) {
      sample.best_ms = ms;
    }
    sample.affected = report.affected_flows.size();
    sample.channels_after = design.topology.ChannelCount();
    sample.cert = cert;
    sample.routes = design.routes;
    total += ms;
    if (total > 300.0) {
      break;
    }
  }
  return sample;
}

/// Runs the ladder; returns the largest design's speedup (0 on outcome
/// mismatch, which also prints loudly).
double RunPerfLadder(BenchJsonWriter& json, bool& mismatch) {
  std::cout << "\n=== incremental re-certify vs full rebuild ===\n\n";
  const std::vector<PerfPoint> points = MakePerfLadder();
  TextTable table;
  table.SetHeader({"design", "channels", "affected", "rebuild (ms)",
                   "incremental (ms)", "speedup"});
  double largest_speedup = 0.0;
  for (const PerfPoint& point : points) {
    const PerfSample inc = TimePath(point, /*incremental=*/true);
    const PerfSample reb = TimePath(point, /*incremental=*/false);
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
    const double speedup =
        inc.best_ms > 0.0 ? reb.best_ms / inc.best_ms : 0.0;
    largest_speedup = speedup;  // ladder ends with the largest design
    table.AddRow({point.label,
                  std::to_string(point.design.topology.ChannelCount()),
                  std::to_string(inc.affected),
                  FormatDouble(reb.best_ms, 3),
                  FormatDouble(inc.best_ms, 3),
                  FormatDouble(speedup, 1) + "x"});
    json.AddRow(JsonObject()
                    .Set("section", "reconfig_perf")
                    .Set("design", point.label)
                    .Set("channels", point.design.topology.ChannelCount())
                    .Set("flows", point.design.traffic.FlowCount())
                    .Set("affected_flows", inc.affected)
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

}  // namespace

int main(int argc, char** argv) {
  const Options opts = ParseOptions(argc, argv);
  if (opts.replay) {
    return Replay(opts);
  }

  std::cout << "=== fault-reconfig campaign: " << opts.campaign.trials
            << " trials, seed " << opts.campaign.base_seed << ", "
            << opts.campaign.sources.size() << " design sources ===\n\n";
  const auto t0 = std::chrono::steady_clock::now();
  const valid::FaultCampaignResult result =
      valid::RunFaultCampaign(opts.campaign);
  const double campaign_ms = MillisSince(t0);

  BenchJsonWriter json("fault_reconfig");
  if (opts.emit_trials) {
    for (const valid::FaultTrialRow& row : result.rows) {
      json.AddRow(valid::FaultRowToJson(row).Set("section", "trial"));
    }
  }

  // Per-source aggregates.
  TextTable table;
  table.SetHeader({"source", "trials", "reconfigured", "disconnected",
                   "mismatch", "affected", "detours", "ripups", "vcs_added",
                   "mid_deadlocks"});
  for (const valid::DesignSource source : opts.campaign.sources) {
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
            << FormatDouble(campaign_ms, 1) << " ms: " << result.reconfigured
            << " reconfigured, " << result.disconnected << " disconnected, "
            << result.mismatches << " mismatches; digest " << std::hex
            << result.digest << std::dec << "\n";

  // Replayable context for every mismatch.
  for (const valid::FaultTrialRow& row : result.rows) {
    if (row.verdict != valid::FaultVerdict::kMismatch) {
      continue;
    }
    std::cout << "MISMATCH trial " << row.trial_index << " ("
              << valid::SourceName(row.source) << ", design seed "
              << row.design_seed << "): " << row.mismatch << "\n"
              << "  replay: --replay-source " << valid::SourceName(row.source)
              << " --replay-seed " << row.design_seed << "\n";
    const std::string path =
        "fault_repro_trial" + std::to_string(row.trial_index) + ".json";
    std::ofstream out(path);
    out << valid::FaultRowToJson(row).Dump() << "\n";
    std::cout << "  row dumped to " << path << "\n";
  }

  // Thread-count determinism: the digest must not depend on scheduling.
  const bool deterministic =
      !opts.check_determinism ||
      bench::DigestStableAcrossThreads(
          result.digest, [&](std::size_t threads) {
            valid::FaultCampaignConfig alt = opts.campaign;
            alt.threads = threads;
            return valid::RunFaultCampaign(alt).digest;
          });

  bool perf_mismatch = false;
  double largest_speedup = 0.0;
  if (opts.perf) {
    largest_speedup = RunPerfLadder(json, perf_mismatch);
  }

  json.AddRow(JsonObject()
                  .Set("section", "campaign")
                  .Set("trials", result.rows.size())
                  .Set("base_seed", opts.campaign.base_seed)
                  .Set("sources", opts.campaign.sources.size())
                  .Set("reconfigured", result.reconfigured)
                  .Set("disconnected", result.disconnected)
                  .Set("mismatches", result.mismatches)
                  .Set("digest", result.digest)
                  .Set("deterministic", deterministic)
                  .Set("campaign_ms", campaign_ms)
                  .Set("largest_design_speedup", largest_speedup));
  const std::string path = json.Write();
  if (!path.empty()) {
    std::cout << "rows written to " << path << "\n";
  }
  const bool perf_failed =
      opts.perf && (perf_mismatch || largest_speedup <= 1.0);
  return (result.mismatches != 0 || !deterministic || perf_failed) ? 1 : 0;
}
