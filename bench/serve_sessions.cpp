// Streaming-session harness: protocol v2 sessions end to end, and the
// economics that justify them.
//
// Emits the BENCH rows the perf gate pins:
//   * session_campaign — the differential session campaign
//     (src/valid/session_campaign): a real SessionService streamed a
//     seeded fault plan per trial, held byte-for-byte to a stateless
//     replay (cold re-serve per epoch, cache-coherence probe,
//     independent checker, codec round trips, lifecycle fences).
//     Any mismatch fails the binary.
//   * session_determinism — the whole campaign rerun at 1 and 3 worker
//     threads must reproduce the main run's digest
//     (--check-determinism).
//   * session_delta — the ladder: per design rung, K fault bursts
//     streamed through a live session (incremental re-route +
//     re-certify on the maintained CDG) vs. the stateless alternative
//     the session replaces — rebuild the design client-side, render it
//     to text and re-submit the whole problem. Both sides end each
//     epoch holding the same certificate (checked byte for byte).
//   * session_summary — the headline: speedup of the largest rung;
//     baseline-gated by CI and >= 1.5x for this binary to exit 0.
//
// Flags:
//   --trials N           campaign trials (default 500)
//   --seed S             base seed (default 1)
//   --threads T          campaign worker threads, 0 = hardware
//   --bursts K           fault bursts per perf round (default 10)
//   --rounds R           perf rounds per rung (default 3)
//   --no-perf            skip the session-delta ladder
//   --check-determinism  rerun the campaign at 1 and 3 threads,
//                        require the main run's digest
//
// Exit code: 0 iff the campaign had zero mismatches, every perf burst
// was feasible with byte-identical certificates on both sides, all
// determinism digests matched and (unless --no-perf) the headline
// speedup is >= 1.5x.
#include <chrono>
#include <iostream>
#include <string>
#include <vector>

#include "bench_common.h"
#include "fault/plan.h"
#include "fault/reconfigure.h"
#include "gen/generators.h"
#include "noc/io.h"
#include "runner/sweep.h"
#include "serve/protocol.h"
#include "serve/service.h"
#include "serve/session.h"
#include "util/canonical.h"
#include "util/json.h"
#include "util/table.h"
#include "valid/session_campaign.h"

using namespace nocdr;

namespace {

using bench::MillisSince;

struct Options {
  std::size_t trials = 500;
  std::uint64_t seed = 1;
  std::size_t threads = 0;
  std::size_t bursts = 10;
  std::size_t rounds = 3;
  bool perf = true;
  bool check_determinism = false;
};

Options ParseOptions(int argc, char** argv) {
  Options opts;
  bench::FlagParser flags("bench_serve_sessions");
  bool no_perf = false;
  flags.AddSize("--trials", &opts.trials);
  flags.AddUint64("--seed", &opts.seed);
  flags.AddSize("--threads", &opts.threads);
  flags.AddSize("--bursts", &opts.bursts);
  flags.AddSize("--rounds", &opts.rounds);
  flags.AddSwitch("--no-perf", &no_perf);
  flags.AddSwitch("--check-determinism", &opts.check_determinism);
  flags.Parse(argc, argv);
  opts.perf = !no_perf;
  if (opts.trials == 0 || opts.bursts == 0 || opts.rounds == 0) {
    flags.Fail("--trials, --bursts and --rounds must be positive");
  }
  return opts;
}

/// Always-guarded plans: every drawn event provably keeps all
/// attachment switches mutually reachable, so every perf burst is
/// feasible and the two passes never diverge on an infeasible answer.
fault::FaultPlanOptions PerfPlan(std::size_t bursts) {
  fault::FaultPlanOptions plan;
  plan.bursts = bursts;
  plan.max_links_per_burst = 2;
  plan.switch_fault_probability = 0.15;
  plan.disconnect_tolerance = 0.0;
  return plan;
}

/// The plan's events, named by switch names — the only form a protocol
/// client can stream them in. Unnamed events are dropped from both
/// passes.
std::vector<std::vector<serve::SessionEventSpec>> NamePlan(
    const NocDesign& design, const fault::FaultPlan& plan,
    std::vector<fault::FaultBurst>& kept) {
  std::vector<std::vector<serve::SessionEventSpec>> specs;
  for (const fault::FaultBurst& burst : plan.bursts) {
    std::vector<serve::SessionEventSpec> burst_specs;
    fault::FaultBurst burst_kept;
    for (const fault::FaultEvent& event : burst) {
      if (event.kind == fault::FaultKind::kSwitch) {
        const std::string& name =
            design.topology.SwitchName(event.switch_id);
        if (name.empty()) {
          continue;
        }
        serve::SessionEventSpec spec;
        spec.kind = fault::FaultKind::kSwitch;
        spec.switch_name = name;
        burst_specs.push_back(spec);
      } else {
        const Link& link = design.topology.LinkAt(event.link);
        const std::string& src = design.topology.SwitchName(link.src);
        const std::string& dst = design.topology.SwitchName(link.dst);
        if (src.empty() || dst.empty()) {
          continue;
        }
        serve::SessionEventSpec spec;
        spec.kind = fault::FaultKind::kLink;
        spec.src = src;
        spec.dst = dst;
        burst_specs.push_back(spec);
      }
      burst_kept.push_back(event);
    }
    if (!burst_specs.empty()) {
      specs.push_back(std::move(burst_specs));
      kept.push_back(std::move(burst_kept));
    }
  }
  return specs;
}

struct RungOutcome {
  bool failed = false;
  double speedup = 0.0;
};

/// One ladder rung: stream --rounds seeded fault plans through a live
/// session, then replay each plan the stateless way — rebuild the
/// design client-side, render to text, re-submit — and compare wall
/// clock and final certificates.
RungOutcome RunRung(const gen::GeneratorSpec& spec, const Options& opts,
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

  for (std::size_t round = 0; round < opts.rounds; ++round) {
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
        replica, runner::JobSeed(opts.seed, 0xbe57 + round),
        PerfPlan(opts.bursts));
    std::vector<fault::FaultBurst> bursts;
    const std::vector<std::vector<serve::SessionEventSpec>> specs =
        NamePlan(replica, plan, bursts);

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
                  .Set("rounds", opts.rounds)
                  .Set("bursts", bursts_run)
                  .Set("session_ms", session_ms)
                  .Set("stateless_ms", stateless_ms)
                  .Set("session_ms_per_burst", per_burst_session)
                  .Set("stateless_ms_per_burst", per_burst_stateless)
                  .Set("certificates_match", certificates_match)
                  .Set("speedup", outcome.speedup));
  return outcome;
}

}  // namespace

int main(int argc, char** argv) {
  const Options opts = ParseOptions(argc, argv);
  bool failed = false;
  BenchJsonWriter json("serve_sessions");

  // ---- differential session campaign ----
  valid::SessionCampaignConfig config;
  config.trials = opts.trials;
  config.base_seed = opts.seed;
  config.threads = opts.threads;
  std::cout << "=== streaming-session campaign: " << config.trials
            << " trials (5 sources), seed " << config.base_seed
            << " ===\n\n";
  const auto t_campaign = std::chrono::steady_clock::now();
  const valid::SessionCampaignResult campaign =
      valid::RunSessionCampaign(config);
  const double campaign_ms = MillisSince(t_campaign);

  std::size_t events_unnamed = 0;
  std::size_t epochs = 0;
  for (const valid::SessionTrialRow& row : campaign.rows) {
    events_unnamed += row.events_unnamed;
    epochs += row.bursts_streamed;
    if (row.verdict == valid::SessionVerdict::kMismatch) {
      std::cout << "MISMATCH trial " << row.trial_index << " ("
                << row.design << ", seed " << row.design_seed
                << "): " << row.mismatch << "\n";
    }
  }
  std::cout << campaign.streamed << " streamed / " << campaign.disconnected
            << " disconnected / " << campaign.mismatches << " mismatches; "
            << epochs << " epochs advanced, " << events_unnamed
            << " events unnamed; digest " << std::hex << campaign.digest
            << std::dec << " (" << FormatDouble(campaign_ms, 0) << " ms)\n";
  json.AddRow(JsonObject()
                  .Set("section", "session_campaign")
                  .Set("trials", campaign.rows.size())
                  .Set("streamed", campaign.streamed)
                  .Set("disconnected", campaign.disconnected)
                  .Set("mismatches", campaign.mismatches)
                  .Set("epochs", epochs)
                  .Set("events_unnamed", events_unnamed)
                  .Set("digest", campaign.digest)
                  .Set("campaign_ms", campaign_ms));
  failed = failed || campaign.mismatches != 0;

  // ---- thread-count determinism of the campaign digest ----
  if (opts.check_determinism) {
    const bool deterministic = bench::DigestStableAcrossThreads(
        campaign.digest, [&](std::size_t threads) {
          valid::SessionCampaignConfig rerun = config;
          rerun.threads = threads;
          return valid::RunSessionCampaign(rerun).digest;
        });
    json.AddRow(JsonObject()
                    .Set("section", "session_determinism")
                    .Set("trials", config.trials)
                    .Set("digest", campaign.digest)
                    .Set("digests_match", deterministic));
    failed = failed || !deterministic;
  }

  // ---- the session-delta ladder ----
  if (opts.perf) {
    std::cout << "\n=== session-delta vs stateless re-submission: "
              << opts.bursts << " bursts x " << opts.rounds
              << " rounds per rung ===\n\n";
    TextTable table;
    table.SetHeader({"design", "switches", "flows", "bursts",
                     "session_ms/burst", "stateless_ms/burst", "speedup",
                     "final certs"});

    std::vector<gen::GeneratorSpec> rungs;
    {
      gen::GeneratorSpec mesh;
      mesh.family = gen::TopologyFamily::kMesh2D;
      mesh.width = 8;
      mesh.height = 8;
      rungs.push_back(mesh);
      gen::GeneratorSpec torus;
      torus.family = gen::TopologyFamily::kTorus2D;
      torus.width = 10;
      torus.height = 10;
      rungs.push_back(torus);
      gen::GeneratorSpec big;
      big.family = gen::TopologyFamily::kMesh2D;
      big.width = 16;
      big.height = 16;
      rungs.push_back(big);
    }
    double headline = 0.0;
    for (const gen::GeneratorSpec& spec : rungs) {
      const RungOutcome outcome = RunRung(spec, opts, json, table);
      failed = failed || outcome.failed;
      headline = outcome.speedup;  // last rung = largest design
    }
    table.Print(std::cout);

    std::cout << "\nheadline (largest rung): session_delta_speedup "
              << FormatDouble(headline, 2)
              << "x (gate: >= 1.5x; baseline-gated by CI)\n";
    json.AddRow(JsonObject()
                    .Set("section", "session_summary")
                    .Set("bursts_per_round", opts.bursts)
                    .Set("rounds", opts.rounds)
                    .Set("session_delta_speedup", headline));
    failed = failed || headline < 1.5;
  }

  const std::string path = json.Write();
  if (!path.empty()) {
    std::cout << "rows written to " << path << "\n";
  }
  return failed ? 1 : 0;
}
