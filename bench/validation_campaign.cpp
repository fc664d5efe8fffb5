// Differential validation campaign: certificates vs. cycle-accurate
// simulation at scale.
//
// Fans randomized end-to-end trials over the thread pool (see
// src/valid/campaign.h for the four-way contract), prints per-arm
// summaries, dumps replayable repros for any mismatch, and appends
// machine-readable rows to BENCH_validation_campaign.json:
//   * one row per trial (section "trial"),
//   * per-arm aggregates (section "arm_summary"),
//   * the campaign summary with its determinism digest ("campaign"),
//   * the event engine's speedup over the full-scan reference on the
//     campaign's largest design ("sim_engine_speedup"), both the dense
//     campaign workload and a light steady-state workload.
//
// Flags:
//   --trials N       total trial rows (default 400)
//   --seed S         base seed (default 1)
//   --threads T      worker threads, 0 = hardware (default 0)
//   --arms a,b,c     comma list of untreated|removal_incremental|
//                    removal_rebuild|resource_ordering|updown
//                    (default: all)
//   --sources a,b,c  comma list of design sources synthesized|mesh|
//                    torus|ring|fat_tree (default: all)
//   --engines a,b    comma list of fullscan|event. Two turn every trial
//                    into an engine-differential test: the first engine
//                    is the primary, the other is re-classified and
//                    cross-checked field-for-field (any disagreement is
//                    an engine_divergence mismatch). One engine just
//                    selects it.
//   --no-shrink      skip minimizing mismatches
//   --no-perf        skip the simulator speedup measurement
//   --check-determinism  rerun at 1 and 3 threads, require equal digests
//   --replay FILE    replay a dumped repro instead of running a campaign
//
// Exit code: 0 iff the campaign had no contract mismatch (and, with
// --check-determinism, all digests matched); --replay exits 0 iff the
// repro still reproduces its mismatch.
#include <algorithm>
#include <chrono>
#include <fstream>
#include <iostream>
#include <sstream>
#include <string>

#include "bench_common.h"
#include "deadlock/removal.h"
#include "sim/simulator.h"
#include "util/json.h"
#include "util/table.h"
#include "valid/campaign.h"
#include "valid/repro.h"

using namespace nocdr;

namespace {

using bench::MillisSince;

struct Options {
  valid::CampaignConfig campaign;
  bool perf = true;
  bool check_determinism = false;
  std::string replay_path;
};

Options ParseOptions(int argc, char** argv) {
  Options opts;
  bench::FlagParser flags("bench_validation_campaign");
  std::string arms_csv;
  std::string sources_csv;
  std::string engines_csv;
  bool arms_given = false;
  bool sources_given = false;
  bool engines_given = false;
  bool no_shrink = false;
  bool no_perf = false;
  flags.AddSize("--trials", &opts.campaign.trials);
  flags.AddUint64("--seed", &opts.campaign.base_seed);
  flags.AddSize("--threads", &opts.campaign.threads);
  flags.AddString("--arms", &arms_csv, &arms_given);
  flags.AddString("--sources", &sources_csv, &sources_given);
  flags.AddString("--engines", &engines_csv, &engines_given);
  flags.AddSwitch("--no-shrink", &no_shrink);
  flags.AddSwitch("--no-perf", &no_perf);
  flags.AddSwitch("--check-determinism", &opts.check_determinism);
  flags.AddString("--replay", &opts.replay_path);
  flags.Parse(argc, argv);
  opts.campaign.shrink = !no_shrink;
  opts.perf = !no_perf;
  if (arms_given) {
    opts.campaign.arms.clear();
    for (const std::string& name : bench::SplitCsv(arms_csv)) {
      const auto arm = valid::ParseArm(name);
      if (!arm.has_value()) {
        flags.Fail("unknown arm \"" + name + "\"");
      }
      opts.campaign.arms.push_back(*arm);
    }
    if (opts.campaign.arms.empty()) {
      flags.Fail("--arms needs at least one arm");
    }
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
  if (engines_given) {
    for (const std::string& name : bench::SplitCsv(engines_csv)) {
      const auto engine = ParseEngine(name);
      if (!engine.has_value()) {
        flags.Fail("unknown engine \"" + name + "\"");
      }
      opts.campaign.engines.push_back(*engine);
    }
    if (opts.campaign.engines.empty()) {
      flags.Fail("--engines needs at least one engine");
    }
  }
  return opts;
}

int Replay(const std::string& path) {
  std::ifstream in(path);
  if (!in) {
    std::cerr << "cannot read " << path << "\n";
    return 2;
  }
  std::stringstream buffer;
  buffer << in.rdbuf();
  valid::Repro repro;
  try {
    repro = valid::ReproFromJson(buffer.str());
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
  if (replay.reproduced) {
    std::cout << "REPRODUCED: " << replay.row.mismatch << "\n";
    return 0;
  }
  std::cout << "did not reproduce (verdict is clean now)\n";
  return 1;
}

/// Best-of-3 wall clock of one simulation.
double TimeSim(const NocDesign& design, const SimConfig& config) {
  double best = 0.0;
  for (int rep = 0; rep < 3; ++rep) {
    const auto t0 = std::chrono::steady_clock::now();
    const SimResult result = SimulateWorkload(design, config);
    const double ms = MillisSince(t0);
    (void)result;
    if (rep == 0 || ms < best) {
      best = ms;
    }
  }
  return best;
}

/// Measures the event engine against the full-scan reference on the
/// campaign's largest design, under the dense campaign workload and a
/// light steady-state workload. Returns the better speedup of the two —
/// the event engine exists for sparse activity, where the full scan
/// burns a whole channel sweep per cycle to move a handful of flits and
/// the event engine skips idle cycles outright. These rows are
/// informational; the gated comparison runs on the far larger designs
/// of bench_sim_latency_curve.
double MeasureSimSpeedup(const valid::CampaignConfig& config,
                         const std::vector<valid::TrialRow>& rows,
                         BenchJsonWriter& json) {
  std::uint64_t largest_seed = 0;
  std::size_t largest_channels = 0;
  valid::DesignSource largest_source = valid::DesignSource::kSynthesized;
  for (const valid::TrialRow& row : rows) {
    if (row.channels_before > largest_channels) {
      largest_channels = row.channels_before;
      largest_seed = row.design_seed;
      largest_source = row.source;
    }
  }
  NocDesign design = valid::GenerateTrialDesign(largest_source, largest_seed,
                                                config.envelope);
  RemoveDeadlocks(design);

  SimConfig dense;
  dense.buffer_depth = config.workload.buffer_depth;
  dense.max_cycles = config.workload.max_cycles;
  dense.traffic.mode = InjectionMode::kFixedCount;
  dense.traffic.packets_per_flow = config.workload.packets_per_flow * 16;
  dense.traffic.packet_length = config.workload.packet_length;

  SimConfig light;
  light.buffer_depth = 2;
  light.max_cycles = 100000;
  light.traffic.mode = InjectionMode::kBernoulli;
  light.traffic.reference_injection_rate = 0.005;
  light.traffic.packet_length = 5;
  light.traffic.seed = largest_seed;

  double best_speedup = 0.0;
  TextTable table;
  table.SetHeader({"workload", "fullscan (ms)", "event (ms)", "speedup"});
  for (const auto& [label, base] :
       {std::pair<std::string, SimConfig*>{"dense_fixed_count", &dense},
        {"light_bernoulli", &light}}) {
    SimConfig cfg = *base;
    cfg.engine = SimEngine::kFullScan;
    const double full_ms = TimeSim(design, cfg);
    cfg.engine = SimEngine::kEvent;
    const double event_ms = TimeSim(design, cfg);
    const double speedup = event_ms > 0.0 ? full_ms / event_ms : 0.0;
    best_speedup = std::max(best_speedup, speedup);
    table.AddRow({label, FormatDouble(full_ms, 2), FormatDouble(event_ms, 2),
                  FormatDouble(speedup, 2) + "x"});
    json.AddRow(JsonObject()
                    .Set("section", "sim_engine_speedup")
                    .Set("design", design.name)
                    .Set("channels", design.topology.ChannelCount())
                    .Set("flows", design.traffic.FlowCount())
                    .Set("workload", label)
                    .Set("fullscan_ms", full_ms)
                    .Set("event_ms", event_ms)
                    .Set("speedup", speedup));
  }
  std::cout << "\n=== simulator engine speedup on largest design ("
            << design.name << ", " << design.topology.ChannelCount()
            << " channels, " << design.traffic.FlowCount() << " flows) ===\n";
  table.Print(std::cout);
  std::cout << "best speedup " << FormatDouble(best_speedup, 2) << "x\n";
  return best_speedup;
}

}  // namespace

int main(int argc, char** argv) {
  const Options opts = ParseOptions(argc, argv);
  if (!opts.replay_path.empty()) {
    return Replay(opts.replay_path);
  }

  std::cout << "=== validation campaign: " << opts.campaign.trials
            << " trials, seed " << opts.campaign.base_seed << ", "
            << opts.campaign.arms.size() << " arms, "
            << opts.campaign.sources.size() << " design sources";
  if (opts.campaign.engines.size() > 1) {
    std::cout << ", engine differential";
    for (const SimEngine engine : opts.campaign.engines) {
      std::cout << " " << EngineName(engine);
    }
  }
  std::cout << " ===\n\n";
  const auto t0 = std::chrono::steady_clock::now();
  const valid::CampaignResult result = valid::RunCampaign(opts.campaign);
  const double campaign_ms = MillisSince(t0);

  BenchJsonWriter json("validation_campaign");
  for (const valid::TrialRow& row : result.rows) {
    json.AddRow(valid::RowToJson(row).Set("section", "trial"));
  }

  // Per-arm and per-source aggregates.
  struct Aggregate {
    std::size_t trials = 0, positive = 0, detonated = 0, infeasible = 0,
                mismatch = 0, escalated = 0, extra_vcs = 0;

    void Absorb(const valid::TrialRow& row) {
      ++trials;
      positive += row.verdict == valid::TrialVerdict::kPositiveDelivered;
      detonated += row.verdict == valid::TrialVerdict::kNegativeDetonated;
      infeasible += row.verdict == valid::TrialVerdict::kArmInfeasible;
      mismatch += row.verdict == valid::TrialVerdict::kMismatch;
      escalated += row.escalations > 0;
      // Rows whose treatment threw never set channels_after; skip them
      // instead of underflowing.
      if (row.channels_after >= row.channels_before) {
        extra_vcs += row.channels_after - row.channels_before;
      }
    }
  };
  const auto print_group =
      [&](const std::string& key, const std::vector<std::string>& names,
          const auto& selector) {
        TextTable table;
        table.SetHeader({key, "trials", "positive", "detonated",
                         "infeasible", "mismatch", "escalated",
                         "extra_vcs"});
        for (const std::string& name : names) {
          Aggregate agg;
          for (const valid::TrialRow& row : result.rows) {
            if (selector(row) == name) {
              agg.Absorb(row);
            }
          }
          table.AddRow({name, std::to_string(agg.trials),
                        std::to_string(agg.positive),
                        std::to_string(agg.detonated),
                        std::to_string(agg.infeasible),
                        std::to_string(agg.mismatch),
                        std::to_string(agg.escalated),
                        std::to_string(agg.extra_vcs)});
          json.AddRow(JsonObject()
                          .Set("section", key + "_summary")
                          .Set(key, name)
                          .Set("trials", agg.trials)
                          .Set("positive", agg.positive)
                          .Set("detonated", agg.detonated)
                          .Set("infeasible", agg.infeasible)
                          .Set("mismatch", agg.mismatch)
                          .Set("escalated", agg.escalated)
                          .Set("extra_vcs", agg.extra_vcs));
        }
        table.Print(std::cout);
        std::cout << "\n";
      };
  std::vector<std::string> arm_names, source_names;
  for (const valid::TrialArm arm : opts.campaign.arms) {
    arm_names.push_back(valid::ArmName(arm));
  }
  for (const valid::DesignSource source : opts.campaign.sources) {
    source_names.push_back(valid::SourceName(source));
  }
  print_group("arm", arm_names, [](const valid::TrialRow& row) {
    return valid::ArmName(row.arm);
  });
  print_group("source", source_names, [](const valid::TrialRow& row) {
    return valid::SourceName(row.source);
  });
  std::cout << result.rows.size() << " trials in "
            << FormatDouble(campaign_ms, 1) << " ms: " << result.positives
            << " positive, " << result.detonations << " detonated, "
            << result.infeasibles << " infeasible, " << result.mismatches
            << " mismatches; digest " << std::hex << result.digest
            << std::dec << "\n";

  // Replayable repro dumps for every mismatch.
  for (const auto& [trial, repro_json] : result.repros) {
    const std::string path = "repro_trial" + std::to_string(trial) + ".json";
    std::ofstream out(path);
    out << repro_json << "\n";
    std::cout << "mismatch repro written to " << path << "\n";
  }
  for (const valid::TrialRow& row : result.rows) {
    if (row.verdict == valid::TrialVerdict::kMismatch) {
      std::cout << "MISMATCH trial " << row.trial_index << " ("
                << valid::ArmName(row.arm) << ", design seed "
                << row.design_seed << "): " << row.mismatch << "\n";
    }
  }

  // Thread-count determinism: the digest must not depend on scheduling.
  const bool deterministic =
      !opts.check_determinism ||
      bench::DigestStableAcrossThreads(
          result.digest, [&](std::size_t threads) {
            valid::CampaignConfig alt = opts.campaign;
            alt.threads = threads;
            return valid::RunCampaign(alt).digest;
          });

  double speedup = 0.0;
  if (opts.perf) {
    speedup = MeasureSimSpeedup(opts.campaign, result.rows, json);
  }

  json.AddRow(JsonObject()
                  .Set("section", "campaign")
                  .Set("trials", result.rows.size())
                  .Set("base_seed", opts.campaign.base_seed)
                  .Set("arms", opts.campaign.arms.size())
                  .Set("sources", opts.campaign.sources.size())
                  .Set("positives", result.positives)
                  .Set("detonations", result.detonations)
                  .Set("infeasibles", result.infeasibles)
                  .Set("mismatches", result.mismatches)
                  .Set("digest", result.digest)
                  .Set("deterministic", deterministic)
                  .Set("campaign_ms", campaign_ms)
                  .Set("largest_design_speedup", speedup));
  const std::string path = json.Write();
  if (!path.empty()) {
    std::cout << "rows written to " << path << "\n";
  }
  return (result.mismatches != 0 || !deterministic) ? 1 : 0;
}
