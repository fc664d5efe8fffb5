// Certification-service load harness: cache + coalescer under seeded
// multi-client traffic.
//
// Exercises src/serve end to end and emits the BENCH rows the perf gate
// pins:
//   * serve_mix      — per traffic mix (repeat-heavy / uniform /
//                      unique-heavy), served serially so hit / miss /
//                      eviction counts are exact and machine-independent:
//                      requests, hits, misses, computations, hit_rate and
//                      the response payload digest.
//   * serve_eviction — a deliberately tiny single-shard cache driven to
//                      eviction; occupancy must respect both capacity
//                      bounds.
//   * serve_concurrent — duplicate-burst traffic over concurrent client
//                      threads: the coalescer's exactly-once contract
//                      (computations == unique designs) and payload-digest
//                      equality with the serial pass.
//   * serve_summary  — the headline: cold (cache-disabled recompute) vs
//                      warm (all-hit) serving of the repeat-heavy stream;
//                      cache_hit_speedup is baseline-gated and must be
//                      >= 10x for this binary to exit 0.
//
// The request corpus spans all five design sources (synthesized / mesh /
// torus / ring / fat_tree via valid::GenerateTrialDesign), pre-rendered
// to noc/io text outside every timed region.
//
// Flags:
//   --requests N         requests per mix (default 600)
//   --designs U          unique designs in the corpus (default 20)
//   --seed S             base seed (default 1)
//   --threads T          compute-pool threads, 0 = hardware (default 0)
//   --client-threads C   client threads in the concurrent pass
//                        (default 0 = compute-pool width)
//   --no-perf            skip the cold/warm speedup measurement
//   --check-determinism  rerun the concurrent pass at 1 and 3 client
//                        threads, require identical payload digests
//
// Exit code: 0 iff no error/overloaded response, the coalescing pass
// computed each unique design exactly once with payloads identical to
// the serial pass, eviction respected both bounds, all determinism
// digests matched and (unless --no-perf) the hit speedup is >= 10x.
#include <algorithm>
#include <chrono>
#include <iostream>
#include <string>
#include <vector>

#include "bench_common.h"
#include "noc/io.h"
#include "obs/trace.h"
#include "runner/sweep.h"
#include "serve/protocol.h"
#include "serve/service.h"
#include "util/canonical.h"
#include "util/json.h"
#include "util/rng.h"
#include "util/table.h"
#include "valid/campaign.h"

using namespace nocdr;

namespace {

struct Options {
  std::size_t requests = 600;
  std::size_t designs = 20;
  std::uint64_t seed = 1;
  std::size_t threads = 0;
  std::size_t client_threads = 0;
  bool perf = true;
  bool check_determinism = false;
};

Options ParseOptions(int argc, char** argv) {
  Options opts;
  bench::FlagParser flags("bench_serve");
  bool no_perf = false;
  flags.AddSize("--requests", &opts.requests);
  flags.AddSize("--designs", &opts.designs);
  flags.AddUint64("--seed", &opts.seed);
  flags.AddSize("--threads", &opts.threads);
  flags.AddSize("--client-threads", &opts.client_threads);
  flags.AddSwitch("--no-perf", &no_perf);
  flags.AddSwitch("--check-determinism", &opts.check_determinism);
  flags.Parse(argc, argv);
  opts.perf = !no_perf;
  if (opts.requests == 0 || opts.designs == 0) {
    flags.Fail("--requests and --designs must be positive");
  }
  return opts;
}

/// One pre-rendered design request (text form, so serving pays no
/// generation cost inside timed regions).
serve::CertRequest TextRequest(std::string id, std::string design_text) {
  serve::CertRequest request;
  request.id = std::move(id);
  request.kind = serve::RequestKind::kDesignText;
  request.design_text = std::move(design_text);
  return request;
}

/// The unique-design corpus: round-robin over all five design sources.
std::vector<serve::CertRequest> BuildCorpus(std::size_t designs,
                                            std::uint64_t base_seed,
                                            std::uint64_t salt) {
  const valid::DesignEnvelope envelope;
  const std::vector<valid::DesignSource> sources = valid::AllSources();
  std::vector<serve::CertRequest> corpus;
  corpus.reserve(designs);
  for (std::size_t d = 0; d < designs; ++d) {
    const valid::DesignSource source = sources[d % sources.size()];
    const std::uint64_t seed = runner::JobSeed(base_seed + salt, d);
    const NocDesign design = valid::GenerateTrialDesign(source, seed, envelope);
    corpus.push_back(TextRequest("d" + std::to_string(salt) + "_" +
                                     std::to_string(d),
                                 DesignText(design)));
  }
  return corpus;
}

/// repeat_heavy: 80% of requests go to a hot subset of the corpus.
/// uniform: every corpus design equally likely.
std::vector<serve::CertRequest> DrawMix(
    const std::vector<serve::CertRequest>& corpus, std::size_t requests,
    std::uint64_t seed, double hot_fraction) {
  Rng rng(seed);
  const std::size_t hot = std::max<std::size_t>(1, corpus.size() / 5);
  std::vector<serve::CertRequest> stream;
  stream.reserve(requests);
  for (std::size_t i = 0; i < requests; ++i) {
    std::size_t pick = 0;
    if (rng.NextBool(hot_fraction)) {
      pick = rng.NextBelow(hot);
    } else {
      pick = rng.NextBelow(corpus.size());
    }
    stream.push_back(corpus[pick]);
  }
  return stream;
}

/// Duplicate-burst stream for the coalescing pass: runs of identical
/// requests back to back, so concurrent clients land on the same key at
/// the same time.
std::vector<serve::CertRequest> DrawBursts(
    const std::vector<serve::CertRequest>& corpus, std::size_t requests,
    std::uint64_t seed, std::size_t burst) {
  Rng rng(seed);
  std::vector<serve::CertRequest> stream;
  stream.reserve(requests);
  while (stream.size() < requests) {
    const serve::CertRequest& pick = corpus[rng.NextBelow(corpus.size())];
    for (std::size_t i = 0; i < burst && stream.size() < requests; ++i) {
      stream.push_back(pick);
    }
  }
  return stream;
}

std::size_t CountBad(const std::vector<serve::CertResponse>& responses) {
  std::size_t bad = 0;
  for (const serve::CertResponse& response : responses) {
    if (response.status != serve::ServeStatus::kOk) {
      std::cout << "BAD RESPONSE (" << serve::StatusName(response.status)
                << ") id=" << response.id << ": "
                << serve::ErrorCodeName(response.error.code) << ": "
                << response.error.message << "\n";
      ++bad;
    }
  }
  return bad;
}

double Percentile(std::vector<double> values, double p) {
  if (values.empty()) {
    return 0.0;
  }
  std::sort(values.begin(), values.end());
  const std::size_t index = std::min(
      values.size() - 1,
      static_cast<std::size_t>(p * static_cast<double>(values.size())));
  return values[index];
}

std::size_t UniqueKeys(const std::vector<serve::CertResponse>& responses) {
  std::vector<std::uint64_t> keys;
  keys.reserve(responses.size());
  for (const serve::CertResponse& response : responses) {
    keys.push_back(response.key);
  }
  std::sort(keys.begin(), keys.end());
  keys.erase(std::unique(keys.begin(), keys.end()), keys.end());
  return keys.size();
}

struct MixOutcome {
  std::uint64_t digest = 0;
  std::size_t bad = 0;
};

/// Serves \p stream serially on a fresh service and emits the
/// deterministic serve_mix row.
MixOutcome RunSerialMix(const std::string& mix_name,
                        const std::vector<serve::CertRequest>& stream,
                        std::size_t threads, BenchJsonWriter& json,
                        TextTable& table) {
  serve::ServiceConfig config;
  config.threads = threads;
  serve::CertificationService service(config);
  std::vector<serve::CertResponse> responses;
  responses.reserve(stream.size());
  const auto t0 = std::chrono::steady_clock::now();
  for (const serve::CertRequest& request : stream) {
    responses.push_back(service.Serve(request));
  }
  const double serve_ms = MillisSince(t0);

  const serve::ServiceStats stats = service.Stats();
  std::vector<double> latencies;
  latencies.reserve(responses.size());
  for (const serve::CertResponse& response : responses) {
    latencies.push_back(response.service_ms);
  }
  MixOutcome outcome;
  outcome.digest = serve::ResponseDigest(responses);
  outcome.bad = CountBad(responses);
  const std::size_t unique = UniqueKeys(responses);
  const double hit_rate =
      static_cast<double>(stats.hits) / static_cast<double>(stream.size());
  table.AddRow({mix_name, std::to_string(stream.size()),
                std::to_string(unique), std::to_string(stats.hits),
                std::to_string(stats.cache.misses),
                std::to_string(stats.computations),
                FormatDouble(hit_rate, 3), FormatDouble(serve_ms, 1)});
  json.AddRow(JsonObject()
                  .Set("section", "serve_mix")
                  .Set("mix", mix_name)
                  .Set("requests", stream.size())
                  .Set("unique_designs", unique)
                  .Set("hits", stats.hits)
                  .Set("misses", stats.cache.misses)
                  .Set("computations", stats.computations)
                  .Set("coalesced", stats.coalesced)
                  .Set("evictions", stats.cache.evictions)
                  .Set("errors", stats.errors)
                  .Set("hit_rate", hit_rate)
                  .Set("responses_digest", outcome.digest)
                  .Set("serve_ms", serve_ms)
                  .Set("p50_ms", Percentile(latencies, 0.50))
                  .Set("p99_ms", Percentile(latencies, 0.99)));
  return outcome;
}

}  // namespace

int main(int argc, char** argv) {
  const Options opts = ParseOptions(argc, argv);
  bool failed = false;
  BenchJsonWriter json("serve");

  std::cout << "=== certification service load: " << opts.requests
            << " requests/mix over " << opts.designs
            << " designs (5 sources), seed " << opts.seed << " ===\n\n";

  const auto t_corpus = std::chrono::steady_clock::now();
  const std::vector<serve::CertRequest> corpus =
      BuildCorpus(opts.designs, opts.seed, 0);
  // Unique-heavy traffic: every request is a first-contact design.
  const std::size_t unique_requests =
      std::max<std::size_t>(8, std::min<std::size_t>(opts.requests / 4, 150));
  const std::vector<serve::CertRequest> unique_stream =
      BuildCorpus(unique_requests, opts.seed, 7777);
  std::cout << "corpus of " << corpus.size() << " + " << unique_stream.size()
            << " designs rendered in "
            << FormatDouble(MillisSince(t_corpus), 1) << " ms\n\n";

  const std::vector<serve::CertRequest> repeat_stream =
      DrawMix(corpus, opts.requests, opts.seed ^ 0x5e11, 0.8);
  const std::vector<serve::CertRequest> uniform_stream =
      DrawMix(corpus, opts.requests, opts.seed ^ 0x7a31, 0.0);

  // ---- serial mixes: exact, machine-independent cache behaviour ----
  TextTable mix_table;
  mix_table.SetHeader({"mix", "requests", "unique", "hits", "misses",
                       "computed", "hit_rate", "serve_ms"});
  const MixOutcome repeat_outcome = RunSerialMix(
      "repeat_heavy", repeat_stream, opts.threads, json, mix_table);
  const MixOutcome uniform_outcome = RunSerialMix(
      "uniform", uniform_stream, opts.threads, json, mix_table);
  const MixOutcome unique_outcome = RunSerialMix(
      "unique_heavy", unique_stream, opts.threads, json, mix_table);
  mix_table.Print(std::cout);
  failed = failed || repeat_outcome.bad != 0 || uniform_outcome.bad != 0 ||
           unique_outcome.bad != 0;

  // ---- eviction: a tiny single-shard cache must respect its bounds ----
  {
    serve::ServiceConfig config;
    config.threads = opts.threads;
    config.cache.shards = 1;
    config.cache.max_entries = 8;
    serve::CertificationService service(config);
    for (const serve::CertRequest& request : uniform_stream) {
      service.Serve(request);
    }
    const serve::ServiceStats stats = service.Stats();
    const bool entries_ok = stats.cache.entries <= 8;
    const bool bytes_ok = stats.cache.bytes <= config.cache.max_bytes;
    const bool evicted = stats.cache.evictions ==
                         stats.cache.insertions - stats.cache.entries;
    std::string verdict = "BOUNDS VIOLATED";
    if (entries_ok && bytes_ok && evicted) {
      verdict = "bounds OK";
    }
    std::cout << "\neviction: " << stats.cache.insertions << " insertions, "
              << stats.cache.evictions << " evictions, "
              << stats.cache.entries << " resident (" << verdict << ")\n";
    json.AddRow(JsonObject()
                    .Set("section", "serve_eviction")
                    .Set("max_entries", std::size_t{8})
                    .Set("insertions", stats.cache.insertions)
                    .Set("evictions", stats.cache.evictions)
                    .Set("entries", stats.cache.entries)
                    .Set("entries_within_cap", entries_ok)
                    .Set("bytes_within_cap", bytes_ok)
                    .Set("eviction_accounting_exact", evicted));
    failed = failed || !entries_ok || !bytes_ok || !evicted;
  }

  // ---- concurrent coalescing: exactly one computation per design ----
  const std::vector<serve::CertRequest> burst_stream =
      DrawBursts(corpus, opts.requests, opts.seed ^ 0xb00, 8);
  std::uint64_t serial_burst_digest = 0;
  {
    TextTable scratch;
    scratch.SetHeader({});
    BenchJsonWriter scratch_json("serve_scratch");
    const MixOutcome serial =
        RunSerialMix("burst_serial", burst_stream, opts.threads, scratch_json,
                     scratch);
    serial_burst_digest = serial.digest;
    failed = failed || serial.bad != 0;
  }
  {
    serve::ServiceConfig config;
    config.threads = opts.threads;
    serve::CertificationService service(config);
    const auto t0 = std::chrono::steady_clock::now();
    const std::vector<serve::CertResponse> responses =
        service.ServeBatch(burst_stream, opts.client_threads);
    const double wall_ms = MillisSince(t0);
    const serve::ServiceStats stats = service.Stats();
    const std::size_t unique = UniqueKeys(responses);
    const std::uint64_t digest = serve::ResponseDigest(responses);
    const bool single_flight = stats.computations == unique;
    const bool digest_matches = digest == serial_burst_digest;
    const std::size_t shared = stats.hits + stats.coalesced;
    std::string clients = "pool-width";
    if (opts.client_threads != 0) {
      clients = std::to_string(opts.client_threads);
    }
    std::cout << "\ncoalescing: " << burst_stream.size() << " requests ("
              << unique << " unique) over " << clients
              << " clients: " << stats.computations << " computations, "
              << stats.coalesced << " coalesced, " << stats.hits
              << " hits (saved " << shared << " recomputes) in "
              << FormatDouble(wall_ms, 1) << " ms\n"
              << "  single-flight "
              << (single_flight ? "EXACT" : "VIOLATED (bug!)")
              << ", payloads ";
    if (digest_matches) {
      std::cout << "identical to serial\n";
    } else {
      std::cout << "DIVERGED from serial (bug!)\n";
    }
    json.AddRow(JsonObject()
                    .Set("section", "serve_concurrent")
                    .Set("requests", burst_stream.size())
                    .Set("unique_designs", unique)
                    .Set("computations", stats.computations)
                    .Set("single_flight_exact", single_flight)
                    .Set("digest_matches_serial", digest_matches)
                    .Set("responses_digest", digest)
                    .Set("wall_ms", wall_ms));
    failed = failed || CountBad(responses) != 0 || !single_flight ||
             !digest_matches;
  }

  // ---- determinism: payload digests for any client thread count ----
  bool deterministic = true;
  if (opts.check_determinism) {
    for (const std::size_t clients : {std::size_t{1}, std::size_t{3}}) {
      serve::ServiceConfig config;
      config.threads = opts.threads;
      serve::CertificationService service(config);
      const std::uint64_t digest = serve::ResponseDigest(
          service.ServeBatch(burst_stream, clients));
      const bool match = digest == serial_burst_digest;
      deterministic = deterministic && match;
      std::cout << "determinism check (" << clients << " clients): digest "
                << std::hex << digest << std::dec
                << (match ? " OK" : " MISMATCH (bug!)") << "\n";
    }
    failed = failed || !deterministic;
  }

  // ---- headline: cold recompute vs warm cache-hit serving ----
  double hit_speedup = 0.0;
  if (opts.perf) {
    // Cold: cache and coalescer bypassed, every request recomputes.
    serve::ServiceConfig cold_config;
    cold_config.threads = opts.threads;
    cold_config.cache_enabled = false;
    serve::CertificationService cold_service(cold_config);
    const auto t_cold = std::chrono::steady_clock::now();
    std::vector<serve::CertResponse> cold_responses;
    cold_responses.reserve(repeat_stream.size());
    for (const serve::CertRequest& request : repeat_stream) {
      cold_responses.push_back(cold_service.Serve(request));
    }
    const double cold_ms = MillisSince(t_cold);

    // Warm: every unique design pre-served once (untimed), then the
    // identical stream is served entirely from the cache. Several
    // rounds, so the (microseconds-per-hit) measurement amortizes
    // scheduler noise on shared CI runners; the speedup compares
    // per-request averages.
    constexpr std::size_t kWarmRounds = 5;
    serve::ServiceConfig warm_config;
    warm_config.threads = opts.threads;
    serve::CertificationService warm_service(warm_config);
    for (const serve::CertRequest& request : corpus) {
      warm_service.Serve(request);
    }
    const serve::ServiceStats warm_before = warm_service.Stats();
    const auto t_warm = std::chrono::steady_clock::now();
    std::vector<serve::CertResponse> warm_responses;
    warm_responses.reserve(repeat_stream.size());
    for (std::size_t round = 0; round < kWarmRounds; ++round) {
      warm_responses.clear();
      for (const serve::CertRequest& request : repeat_stream) {
        warm_responses.push_back(warm_service.Serve(request));
      }
    }
    const double warm_ms = MillisSince(t_warm) / kWarmRounds;
    const serve::ServiceStats warm_after = warm_service.Stats();
    const bool all_hits = warm_after.hits - warm_before.hits ==
                          kWarmRounds * repeat_stream.size();
    const bool payloads_match = serve::ResponseDigest(warm_responses) ==
                                serve::ResponseDigest(cold_responses);

    hit_speedup = warm_ms > 0.0 ? cold_ms / warm_ms : 0.0;
    std::cout << "\ncold recompute: " << FormatDouble(cold_ms, 1)
              << " ms, warm all-hit: " << FormatDouble(warm_ms, 1)
              << " ms -> cache_hit_speedup "
              << FormatDouble(hit_speedup, 1)
              << "x (gate: >= 10x; baseline-gated by CI)\n"
              << "  warm pass ";
    if (all_hits) {
      std::cout << "served 100% from cache";
    } else {
      std::cout << "MISSED the cache (bug!)";
    }
    std::cout << ", cached payloads ";
    if (payloads_match) {
      std::cout << "bit-identical to recompute\n";
    } else {
      std::cout << "DIVERGED from recompute (bug!)\n";
    }
    json.AddRow(JsonObject()
                    .Set("section", "serve_summary")
                    .Set("requests", repeat_stream.size())
                    .Set("unique_designs", corpus.size())
                    .Set("all_hits_when_warm", all_hits)
                    .Set("cached_equals_recomputed", payloads_match)
                    .Set("cold_ms", cold_ms)
                    .Set("warm_ms", warm_ms)
                    .Set("cache_hit_speedup", hit_speedup));
    failed = failed || !all_hits || !payloads_match || hit_speedup < 10.0;
  }

  // ---- instrumentation overhead: warm hits, tracing off vs on ----
  // Metrics instrumentation is compiled in unconditionally; what the
  // deploy decision needs is the *marginal* cost of attaching a trace
  // sink and tracing every request. Both arms serve the identical
  // all-hit stream; the ratio is gated one-sided (trace_overhead) by
  // tools/bench_compare.py so instrumentation cannot silently grow.
  if (opts.perf) {
    constexpr std::size_t kOverheadRounds = 5;
    const auto warm_hit_ms = [&](obs::TraceSink* sink) {
      serve::ServiceConfig config;
      config.threads = opts.threads;
      config.trace = sink;
      serve::CertificationService service(config);
      for (const serve::CertRequest& request : corpus) {
        service.Serve(request);
      }
      std::vector<serve::CertRequest> stream = repeat_stream;
      if (sink != nullptr) {
        for (std::size_t i = 0; i < stream.size(); ++i) {
          stream[i].trace_id = "q" + std::to_string(i);
        }
      }
      const auto t0 = std::chrono::steady_clock::now();
      for (std::size_t round = 0; round < kOverheadRounds; ++round) {
        for (const serve::CertRequest& request : stream) {
          service.Serve(request);
        }
      }
      return MillisSince(t0) / kOverheadRounds;
    };
    const double untraced_ms = warm_hit_ms(nullptr);
    obs::TraceSink sink(obs::TraceClockMode::kLogical);
    const double traced_ms = warm_hit_ms(&sink);
    const double overhead = untraced_ms > 0.0 ? traced_ms / untraced_ms : 0.0;
    std::cout << "\ninstrumentation overhead: warm pass "
              << FormatDouble(untraced_ms, 2) << " ms untraced vs "
              << FormatDouble(traced_ms, 2) << " ms traced ("
              << sink.TraceCount() << " traces) -> trace_overhead "
              << FormatDouble(overhead, 2)
              << "x (one-sided baseline gate in CI)\n";
    json.AddRow(JsonObject()
                    .Set("section", "obs_overhead")
                    .Set("requests", repeat_stream.size())
                    .Set("untraced_ms", untraced_ms)
                    .Set("traced_ms", traced_ms)
                    .Set("trace_overhead", overhead));
  }

  const std::string path = json.Write();
  if (!path.empty()) {
    std::cout << "rows written to " << path << "\n";
  }
  return failed ? 1 : 0;
}
