// Open-loop load benchmark for the certification service: seeded
// arrival traces (Poisson / bursty MMPP) replayed on deterministic
// virtual time through the pluggable scheduling layer, then executed
// for real against a live service.
//
// Where bench_serve drives closed-loop mixes (the next request waits
// for the previous response), this harness models what operators
// actually face: requests arrive when the trace says so, queues build
// when service lags, and the p99 virtual latency is the SLO number. The
// grid is (arrival process x queue discipline x class mix); every cell
// emits:
//   * serve_load          — served / rejected split, p50/p90/p99/max
//                           virtual latency, goodput, utilization, the
//                           replay latency digest and the real-serve
//                           response digests. All virtual-time metrics
//                           are bit-identical across machines and
//                           thread counts; the p99 row is baseline-gated
//                           in CI (one-sided: regressions fail, being
//                           faster passes).
//   * serve_load_fairness — per-class counters for the "classes" mix
//                           (weighted token admission): arrivals,
//                           served, token/queue rejections, mean wait.
//   * serve_load_determinism — with --check-determinism, replays every
//                           cell's real-serve pass at 1 and 3 client
//                           threads and requires identical combined
//                           digests (the load_gen contract, end to end).
//
// The corpus spans all five campaign design sources plus live
// reconfiguration sessions: a slice of trace arrivals are fault_burst
// messages applied to sessions opened at cell start (replays are
// idempotent, so a trace may hit the same burst twice and stay
// deterministic).
//
// Flags:
//   --requests N        arrivals per cell trace (default 400)
//   --designs U         unique stateless designs (default 12)
//   --sessions S        live sessions, one burst item each (default 2)
//   --seed S            base seed (default 1)
//   --rate R            mean arrival rate per virtual second
//                       (default 20000 — deliberately overloading, so
//                       disciplines actually reorder the queue)
//   --servers N         virtual service slots in the replay (default 4)
//   --queue-capacity N  ready-queue bound (default 64)
//   --threads T         compute-pool threads, 0 = hardware (default 0)
//   --client-threads C  real-serve client threads (default 0 = pool)
//   --check-determinism rerun every cell at 1 and 3 client threads,
//                       require identical combined digests
//
// Exit code: 0 iff every real response was kOk, every cell served a
// non-empty stream, and all determinism digests matched.
#include <algorithm>
#include <chrono>
#include <iostream>
#include <string>
#include <vector>

#include "bench_common.h"
#include "fault/plan.h"
#include "noc/io.h"
#include "runner/sweep.h"
#include "serve/load_gen.h"
#include "serve/service.h"
#include "serve/session.h"
#include "util/canonical.h"
#include "util/json.h"
#include "util/table.h"
#include "valid/campaign.h"

using namespace nocdr;

namespace {

using serve::load::ArrivalConfig;
using serve::load::ArrivalKind;
using serve::load::OpenLoopOutcome;
using serve::load::ReplayConfig;
using serve::load::TraceClassMix;
using serve::load::TraceItem;
using serve::load::WorkItem;
using serve::sched::Discipline;

struct Options {
  std::size_t requests = 400;
  std::size_t designs = 12;
  std::size_t sessions = 2;
  std::uint64_t seed = 1;
  std::uint64_t rate = 20000;
  std::size_t servers = 4;
  std::size_t queue_capacity = 64;
  std::size_t threads = 0;
  std::size_t client_threads = 0;
  bool check_determinism = false;
};

Options ParseOptions(int argc, char** argv) {
  Options opts;
  bench::FlagParser flags("bench_serve_load");
  flags.AddSize("--requests", &opts.requests);
  flags.AddSize("--designs", &opts.designs);
  flags.AddSize("--sessions", &opts.sessions);
  flags.AddUint64("--seed", &opts.seed);
  flags.AddUint64("--rate", &opts.rate);
  flags.AddSize("--servers", &opts.servers);
  flags.AddSize("--queue-capacity", &opts.queue_capacity);
  flags.AddSize("--threads", &opts.threads);
  flags.AddSize("--client-threads", &opts.client_threads);
  flags.AddSwitch("--check-determinism", &opts.check_determinism);
  flags.Parse(argc, argv);
  if (opts.requests == 0 || opts.designs == 0 || opts.rate == 0 ||
      opts.servers == 0) {
    flags.Fail("--requests, --designs, --rate and --servers must be positive");
  }
  return opts;
}

/// One class mix of the grid: trace shares + the admission policy the
/// replay runs under.
struct MixSpec {
  std::string name;
  std::vector<TraceClassMix> classes;
  serve::sched::AdmissionConfig admission;
};

std::vector<MixSpec> BuildMixes(const Options& opts) {
  MixSpec open;
  open.name = "open";  // one class, no token policy: pure queueing

  MixSpec classes;
  classes.name = "classes";
  classes.classes = {TraceClassMix{"interactive", 0, 3.0},
                     TraceClassMix{"batch", 2, 1.0}};
  classes.admission.enabled = true;
  // Half the offered rate in tokens with a small burst: the budget is
  // the bottleneck on purpose, so rejections and the per-class split
  // show up in the fairness rows.
  classes.admission.tokens_per_sec = static_cast<double>(opts.rate) * 0.5;
  classes.admission.burst =
      std::max(4.0, static_cast<double>(opts.requests) / 10.0);
  classes.admission.classes = {
      serve::sched::ClassConfig{"interactive", 0, 3.0},
      serve::sched::ClassConfig{"batch", 2, 1.0}};
  return {open, classes};
}

/// The stateless slice of the corpus, pre-rendered once: design text
/// requests round-robining the five campaign sources, with their cost
/// model values.
struct CorpusSeed {
  std::vector<std::string> design_texts;
  std::vector<std::uint64_t> costs;
};

CorpusSeed BuildCorpusSeed(const Options& opts) {
  const valid::DesignEnvelope envelope;
  const std::vector<valid::DesignSource> sources = valid::AllSources();
  CorpusSeed seed;
  for (std::size_t d = 0; d < opts.designs; ++d) {
    const valid::DesignSource source = sources[d % sources.size()];
    const NocDesign design = valid::GenerateTrialDesign(
        source, runner::JobSeed(opts.seed, d), envelope);
    seed.design_texts.push_back(DesignText(design));
    seed.costs.push_back(serve::sched::EstimateCost(design));
  }
  return seed;
}

/// Names the first burst of a seeded fault plan for \p design, protocol
/// style. Empty when nothing survives naming.
std::vector<serve::SessionEventSpec> NamedBurst(const NocDesign& design,
                                                std::uint64_t seed) {
  fault::FaultPlanOptions options;
  options.bursts = 1;
  const fault::FaultPlan plan = fault::DrawFaultPlan(design, seed, options);
  std::vector<serve::SessionEventSpec> specs;
  for (const fault::FaultEvent& event : plan.bursts.empty()
                                            ? fault::FaultBurst{}
                                            : plan.bursts.front()) {
    if (event.kind == fault::FaultKind::kSwitch) {
      serve::SessionEventSpec spec;
      spec.kind = fault::FaultKind::kSwitch;
      spec.switch_name = design.topology.SwitchName(event.switch_id);
      specs.push_back(spec);
    } else {
      const Link& link = design.topology.LinkAt(event.link);
      serve::SessionEventSpec spec;
      spec.kind = fault::FaultKind::kLink;
      spec.src = design.topology.SwitchName(link.src);
      spec.dst = design.topology.SwitchName(link.dst);
      specs.push_back(spec);
    }
  }
  return specs;
}

/// One cell run: fresh service + sessions, open-loop trace, replay and
/// real-serve pass.
OpenLoopOutcome RunCell(const Options& opts, const CorpusSeed& corpus_seed,
                        const MixSpec& mix, ArrivalKind arrival_kind,
                        Discipline discipline, std::uint64_t trace_seed,
                        std::size_t client_threads, std::size_t* bad_out) {
  serve::ServiceConfig service_config;
  service_config.threads = opts.threads;
  serve::CertificationService service(service_config);
  serve::SessionService sessions(service);

  std::vector<WorkItem> corpus;
  for (std::size_t d = 0; d < corpus_seed.design_texts.size(); ++d) {
    WorkItem item;
    item.certify.id = "d" + std::to_string(d);
    item.certify.kind = serve::RequestKind::kDesignText;
    item.certify.design_text = corpus_seed.design_texts[d];
    item.cost = corpus_seed.costs[d];
    corpus.push_back(std::move(item));
  }
  // Session slice: one burst work item per opened session. The open
  // itself happens outside the trace (sessions exist before load hits).
  const valid::DesignEnvelope envelope;
  for (std::size_t s = 0; s < opts.sessions; ++s) {
    serve::SessionRequest open;
    open.op = serve::SessionOp::kOpen;
    open.id = "open" + std::to_string(s);
    open.spec.kind = serve::RequestKind::kSourceSeed;
    open.spec.source = valid::DesignSource::kMesh;
    open.spec.seed = runner::JobSeed(opts.seed + 1000, s);
    const NocDesign design =
        serve::MaterializeDesign(open.spec, envelope, nullptr);
    const serve::SessionResponse opened = sessions.Handle(open);
    if (opened.status != serve::ServeStatus::kOk) {
      ++*bad_out;
      continue;
    }
    const std::vector<serve::SessionEventSpec> events =
        NamedBurst(design, runner::JobSeed(opts.seed + 2000, s));
    if (events.empty()) {
      continue;
    }
    WorkItem item;
    item.is_session = true;
    item.burst.op = serve::SessionOp::kBurst;
    item.burst.id = "burst" + std::to_string(s);
    item.burst.session_id = opened.session_id;
    item.burst.events = events;
    item.cost = serve::sched::EstimateCost(design);
    corpus.push_back(std::move(item));
  }

  ArrivalConfig arrival;
  arrival.kind = arrival_kind;
  arrival.rate_per_sec = static_cast<double>(opts.rate);
  const std::vector<TraceItem> trace = serve::load::GenerateTrace(
      arrival, opts.requests, corpus.size(), mix.classes, trace_seed);

  ReplayConfig replay;
  replay.discipline = discipline;
  replay.servers = opts.servers;
  replay.queue_capacity = opts.queue_capacity;
  replay.seed = opts.seed;
  replay.admission = mix.admission;

  const OpenLoopOutcome outcome = serve::load::RunOpenLoop(
      service, &sessions, corpus, trace, replay, client_threads);
  *bad_out += outcome.bad_responses;
  return outcome;
}

}  // namespace

int main(int argc, char** argv) {
  const Options opts = ParseOptions(argc, argv);
  bool failed = false;
  BenchJsonWriter json("serve_load");

  std::cout << "=== open-loop service load: " << opts.requests
            << " arrivals/cell at " << opts.rate << "/s over "
            << opts.designs << " designs + " << opts.sessions
            << " sessions, " << opts.servers << " virtual servers, seed "
            << opts.seed << " ===\n\n";

  const CorpusSeed corpus_seed = BuildCorpusSeed(opts);
  const std::vector<MixSpec> mixes = BuildMixes(opts);

  TextTable table;
  table.SetHeader({"arrival", "discipline", "mix", "served", "rej_tok",
                   "rej_queue", "p50us", "p99us", "goodput/s", "util",
                   "wall_ms"});

  const std::vector<ArrivalKind> arrivals = serve::load::AllArrivalKinds();
  for (std::size_t a = 0; a < arrivals.size(); ++a) {
    const ArrivalKind arrival_kind = arrivals[a];
    for (const Discipline discipline : serve::sched::AllDisciplines()) {
      for (std::size_t m = 0; m < mixes.size(); ++m) {
        const MixSpec& mix = mixes[m];
        const std::string arrival_name =
            serve::load::ArrivalKindName(arrival_kind);
        const std::string discipline_name =
            serve::sched::DisciplineName(discipline);
        // One trace per (arrival, mix): disciplines replay the *same*
        // arrivals, so their rows differ only by scheduling.
        const std::uint64_t trace_seed =
            runner::JobSeed(opts.seed, a * 16 + m);

        std::size_t bad = 0;
        const auto t0 = std::chrono::steady_clock::now();
        const OpenLoopOutcome outcome =
            RunCell(opts, corpus_seed, mix, arrival_kind, discipline,
                    trace_seed, opts.client_threads, &bad);
        const double wall_ms = MillisSince(t0);
        const serve::load::LoadReport& report = outcome.report;

        if (bad != 0) {
          std::cout << "CELL FAILED: " << arrival_name << "/"
                    << discipline_name << "/" << mix.name << ": " << bad
                    << " bad responses\n";
          failed = true;
        }
        if (report.served == 0) {
          std::cout << "CELL FAILED: " << arrival_name << "/"
                    << discipline_name << "/" << mix.name
                    << ": nothing served\n";
          failed = true;
        }

        table.AddRow({arrival_name, discipline_name, mix.name,
                      std::to_string(report.served),
                      std::to_string(report.rejected_tokens),
                      std::to_string(report.rejected_queue),
                      std::to_string(report.latency.p50),
                      std::to_string(report.latency.p99),
                      FormatDouble(report.goodput_per_sec, 0),
                      FormatDouble(report.utilization, 3),
                      FormatDouble(wall_ms, 1)});
        json.AddRow(
            JsonObject()
                .Set("section", "serve_load")
                .Set("arrival", arrival_name)
                .Set("discipline", discipline_name)
                .Set("mix", mix.name)
                .Set("requests", opts.requests)
                .Set("served", report.served)
                .Set("rejected_tokens", report.rejected_tokens)
                .Set("rejected_queue", report.rejected_queue)
                .Set("p50_latency_us", report.latency.p50)
                .Set("p90_latency_us", report.latency.p90)
                .Set("p99_latency_us", report.latency.p99)
                .Set("max_latency_us", report.latency.max)
                .Set("goodput_per_sec", report.goodput_per_sec)
                .Set("utilization", report.utilization)
                .Set("latency_digest", report.digest)
                .Set("responses_digest", outcome.response_digest)
                .Set("combined_digest", outcome.combined_digest)
                .Set("wall_ms", wall_ms));

        if (mix.name == "classes") {
          for (const serve::load::ClassLoadStats& c : report.classes) {
            if (c.arrivals == 0) {
              continue;
            }
            const double mean_wait =
                c.served == 0 ? 0.0
                              : static_cast<double>(c.total_wait_us) /
                                    static_cast<double>(c.served);
            json.AddRow(JsonObject()
                            .Set("section", "serve_load_fairness")
                            .Set("arrival", arrival_name)
                            .Set("discipline", discipline_name)
                            .Set("class", c.name)
                            .Set("rank", c.rank)
                            .Set("arrivals", c.arrivals)
                            .Set("served", c.served)
                            .Set("rejected_tokens", c.rejected_tokens)
                            .Set("rejected_queue", c.rejected_queue)
                            .Set("mean_wait_us", mean_wait)
                            .Set("max_wait_us", c.max_wait_us));
          }
        }

        if (opts.check_determinism) {
          std::size_t bad_one = 0;
          std::size_t bad_three = 0;
          const OpenLoopOutcome one =
              RunCell(opts, corpus_seed, mix, arrival_kind, discipline,
                      trace_seed, 1, &bad_one);
          const OpenLoopOutcome three =
              RunCell(opts, corpus_seed, mix, arrival_kind, discipline,
                      trace_seed, 3, &bad_three);
          const bool match =
              one.combined_digest == three.combined_digest &&
              one.combined_digest == outcome.combined_digest &&
              bad_one == 0 && bad_three == 0;
          if (!match) {
            std::cout << "DETERMINISM FAILED: " << arrival_name << "/"
                      << discipline_name << "/" << mix.name << "\n";
            failed = true;
          }
          json.AddRow(JsonObject()
                          .Set("section", "serve_load_determinism")
                          .Set("arrival", arrival_name)
                          .Set("discipline", discipline_name)
                          .Set("mix", mix.name)
                          .Set("digests_match", match));
        }
      }
    }
  }

  table.Print(std::cout);
  std::cout << "\n";

  const std::string path = json.Write();
  if (!path.empty()) {
    std::cout << "wrote " << json.RowCount() << " rows to " << path << "\n";
  }
  std::cout << (failed ? "FAILED\n" : "OK\n");
  return failed ? 1 : 0;
}
