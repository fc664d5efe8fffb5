// Certification-service bench: the memory cache, the coalescer and the
// disk tier under seeded traffic, in one run.
//
// Exercises src/serve end to end through the real CertificationService
// and emits the BENCH rows the perf gate pins:
//   * persist_crash_loop (only with --crash-loop N; fresh-only, so the
//                      baseline comparison treats it as informational)
//                      — N rounds of fork an appender, SIGKILL it
//                      mid-append, reopen the directory (stale-lock
//                      takeover) and verify that every record the scan
//                      recovered is byte-identical to what the dead
//                      appender meant to write: torn tails may be lost,
//                      wrong bytes are a failure. Runs first, before any
//                      worker thread exists (fork and threads do not mix).
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
//                      equality with a serial pass.
//   * serve_summary  — cold (each request on a fresh service, so each
//                      one computes: what a first-time request costs)
//                      vs warm (all-hit) serving of the repeat-heavy
//                      stream; cache_hit_speedup is baseline-gated and
//                      >= 10x.
//   * obs_overhead   — the same warm hits untraced vs traced;
//                      trace_overhead is gated one-sided.
//   * persist_restart — fill a disk-tier service, destroy it, open a
//                      fresh one on the same directory and serve a
//                      repeat-heavy stream: zero recomputes, a hit ratio
//                      >= 0.9, payloads bit-identical to the cold pass,
//                      and restart_hit_speedup (restart-hit serving vs
//                      the cold pass) >= 10x.
//   * persist_corruption — a byte flipped inside a stored record: the
//                      reopened store detects it, recomputes exactly that
//                      entry, and still serves the corpus bit-identical
//                      to the undamaged fill.
//   * persist_sharing — a second service mounted on a directory whose
//                      appender lock is live: it falls back to
//                      read-only, serves every request from the shared
//                      store, and writes nothing.
//
// The corpora span all five design sources (synthesized / mesh / torus /
// ring / fat_tree via valid::GenerateTrialDesign), pre-rendered to noc/io
// text outside every timed region. The persistence part keeps its own
// sizes, 400 requests over 16 designs: its restart speedup sits near its
// baseline floor there, and larger inputs would hide that. Its store is
// a temp directory the bench creates and removes.
//
// Flags:
//   --requests N         requests per serve mix (default 600)
//   --designs U          unique designs in the serve corpus (default 20)
//   --seed S             base seed (default 1)
//   --threads T          ServiceConfig::threads: ServeBatch's width, each
//                        cold request computing on its own thread;
//                        0 = hardware (default 0)
//   --crash-loop N       first run N kill -9 crash/recover rounds
//                        (default 0)
//   --no-perf            skip serve_summary and obs_overhead and both
//                        speedup floors (correctness checks still apply)
//   --check-determinism  rerun the concurrent pass at 1 and 3 client
//                        threads, require identical payload digests
//
// Exit code: 0 iff no invariant broke: every response ok, eviction within
// both bounds, single flight exact, every digest equal to its reference,
// the restart, corruption, sharing and crash checks hold and (unless
// --no-perf) both speedups are >= 10x. 1 otherwise, 2 on a bad flag.
#include <signal.h>
#include <sys/wait.h>
#include <unistd.h>

#include <algorithm>
#include <chrono>
#include <cstdint>
#include <cstdlib>
#include <filesystem>
#include <fstream>
#include <iostream>
#include <string>
#include <vector>

#include "bench_common.h"
#include "ledger.h"
#include "noc/io.h"
#include "obs/trace.h"
#include "runner/sweep.h"
#include "serve/disk_cache.h"
#include "serve/protocol.h"
#include "serve/service.h"
#include "util/digest.h"
#include "util/json.h"
#include "util/rng.h"
#include "valid/campaign.h"

using namespace nocdr;
using bench::Cell;
using bench::Ledger;
using serve::CertificationService;
using serve::CertRequest;
using serve::CertResponse;
using serve::ServiceConfig;
using serve::ServiceStats;

namespace {

using Stream = std::vector<CertRequest>;
using Responses = std::vector<CertResponse>;

/// The persistence part's inputs; the header says why they are fixed.
constexpr std::size_t kPersistRequests = 400;
constexpr std::size_t kPersistDesigns = 16;

/// Timed rounds of an all-hit pass: hits cost microseconds, so several
/// rounds amortize scheduler noise on shared CI runners.
constexpr std::size_t kRounds = 5;

/// The floor on both speedups over cold recompute.
constexpr double kMinSpeedup = 10.0;

struct Options {
  std::size_t requests = 600;
  std::size_t designs = 20;
  std::uint64_t seed = 1;
  std::size_t threads = 0;
  std::size_t crash_loop = 0;
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
  flags.AddSize("--crash-loop", &opts.crash_loop);
  flags.AddSwitch("--no-perf", &no_perf);
  flags.AddSwitch("--check-determinism", &opts.check_determinism);
  flags.Parse(argc, argv);
  opts.perf = !no_perf;
  if (opts.requests == 0 || opts.designs == 0) {
    flags.Fail("--requests and --designs must be positive");
  }
  return opts;
}

/// A fresh directory under the system temp directory; exits 2 when none
/// can be made.
std::string MakeTempDir() {
  std::string pattern =
      (std::filesystem::temp_directory_path() / "nocdr_persist_XXXXXX")
          .string();
  if (mkdtemp(pattern.data()) == nullptr) {
    std::cerr << "bench_serve: cannot create a temp directory\n";
    std::exit(2);
  }
  return pattern;
}

ServiceConfig Config(std::size_t threads) {
  ServiceConfig config;
  config.threads = threads;
  return config;
}

/// One pre-rendered design request (text form, so serving pays no
/// generation cost inside timed regions).
CertRequest TextRequest(std::string id, std::string design_text) {
  CertRequest request;
  request.id = std::move(id);
  request.kind = serve::RequestKind::kDesignText;
  request.design_text = std::move(design_text);
  return request;
}

/// The unique-design corpus: round-robin over all five design sources.
Stream BuildCorpus(std::size_t designs, std::uint64_t base_seed,
                   std::uint64_t salt) {
  const valid::DesignEnvelope envelope;
  const std::vector<valid::DesignSource> sources = valid::AllSources();
  Stream corpus;
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

/// \p hot_fraction of the requests go to a hot fifth of the corpus, the
/// rest to any corpus design: 0.8 is repeat-heavy, 0.0 uniform.
Stream DrawMix(const Stream& corpus, std::size_t requests, std::uint64_t seed,
               double hot_fraction) {
  Rng rng(seed);
  const std::size_t hot = std::max<std::size_t>(1, corpus.size() / 5);
  Stream stream;
  stream.reserve(requests);
  for (std::size_t i = 0; i < requests; ++i) {
    const std::size_t pick = rng.NextBool(hot_fraction)
                                 ? rng.NextBelow(hot)
                                 : rng.NextBelow(corpus.size());
    stream.push_back(corpus[pick]);
  }
  return stream;
}

/// Duplicate-burst stream for the coalescing pass: runs of identical
/// requests back to back, so concurrent clients land on the same key at
/// the same time.
Stream DrawBursts(const Stream& corpus, std::size_t requests,
                  std::uint64_t seed, std::size_t burst) {
  Rng rng(seed);
  Stream stream;
  stream.reserve(requests);
  while (stream.size() < requests) {
    const CertRequest& pick = corpus[rng.NextBelow(corpus.size())];
    for (std::size_t i = 0; i < burst && stream.size() < requests; ++i) {
      stream.push_back(pick);
    }
  }
  return stream;
}

/// Prints each response that is not ok; any one fails the run.
void ExpectOk(Ledger& ledger, const std::string& pass,
              const Responses& responses) {
  std::size_t bad = 0;
  for (const CertResponse& response : responses) {
    if (response.status != serve::ServeStatus::kOk) {
      std::cout << "BAD RESPONSE (" << serve::StatusName(response.status)
                << ") id=" << response.id << ": "
                << serve::ErrorCodeName(response.error.code) << ": "
                << response.error.message << "\n";
      ++bad;
    }
  }
  ledger.Expect(bad == 0, pass, std::to_string(bad) + " responses not ok");
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

std::size_t UniqueKeys(const Responses& responses) {
  std::vector<std::uint64_t> keys;
  keys.reserve(responses.size());
  for (const CertResponse& response : responses) {
    keys.push_back(response.key);
  }
  std::sort(keys.begin(), keys.end());
  keys.erase(std::unique(keys.begin(), keys.end()), keys.end());
  return keys.size();
}

Responses ServeAll(CertificationService& service, const Stream& stream) {
  Responses responses;
  responses.reserve(stream.size());
  for (const CertRequest& request : stream) {
    responses.push_back(service.Serve(request));
  }
  return responses;
}

/// A timed pass over a stream: its wall clock, its responses' digest.
struct Pass {
  double ms = 0.0;
  std::uint64_t digest = 0;
};

/// Serves \p stream \p rounds times on \p service; the ms are a round's
/// mean, the digest the last round's.
Pass TimedPass(Ledger& ledger, const std::string& pass,
               CertificationService& service, const Stream& stream,
               std::size_t rounds = 1) {
  const auto t0 = std::chrono::steady_clock::now();
  Responses responses;
  for (std::size_t round = 0; round < rounds; ++round) {
    responses = ServeAll(service, stream);
  }
  const double ms = MillisSince(t0) / rounds;
  ExpectOk(ledger, pass, responses);
  return {ms, serve::ResponseDigest(responses)};
}

/// What a first-time request costs: each request of \p stream is served
/// on a fresh service, so every one computes. The timed region includes
/// each service's construction and teardown.
Pass ColdPass(Ledger& ledger, const Stream& stream, std::size_t threads) {
  const auto t0 = std::chrono::steady_clock::now();
  Responses responses;
  responses.reserve(stream.size());
  for (const CertRequest& request : stream) {
    CertificationService service(Config(threads));
    responses.push_back(service.Serve(request));
  }
  const double ms = MillisSince(t0);
  ExpectOk(ledger, "cold recompute", responses);
  return {ms, serve::ResponseDigest(responses)};
}

// ---- crash loop -------------------------------------------------------

std::string CrashKey(std::size_t round, std::size_t index) {
  return "crash:" + std::to_string(round) + ":" + std::to_string(index);
}

std::uint64_t CrashDigest(const std::string& key) {
  std::uint64_t h = kFnvOffsetBasis;
  DigestField(h, key);
  return h;
}

/// The payload the round-\p round appender writes for record \p index:
/// a pure function of (round, index), so the surviving parent can
/// recompute the exact bytes any recovered record must carry.
serve::CachedCertification CrashValue(std::size_t round, std::size_t index) {
  serve::CachedCertification value;
  value.deadlock_free = true;
  value.initially_deadlock_free = index % 2 == 0;
  value.iterations = index % 7;
  value.vcs_added = index % 5;
  value.flows_rerouted = index % 3;
  value.channels_before = 64;
  value.channels_after = 64 + value.vcs_added;
  value.certificate_json = "{\"crash_round\":" + std::to_string(round) +
                           ",\"record\":" + std::to_string(index) +
                           ",\"pad\":\"";
  value.certificate_json.append(1024 + (index % 257) * 7,
                                static_cast<char>('a' + index % 26));
  value.certificate_json += "\"}";
  value.treated_design_text =
      "design " + CrashKey(round, index) + "\n" +
      std::string(512 + (index % 101) * 3, static_cast<char>('A' + round % 26));
  return value;
}

struct CrashOutcome {
  std::size_t rounds = 0;
  std::size_t recovered = 0;
  std::size_t wrong = 0;
  std::size_t takeovers = 0;
  std::uint64_t corrupt_skipped = 0;
};

/// One kill -9 crash/recover round: fork an appender, kill it after a
/// seeded delay mid-stream, reopen the directory (the dead child's
/// LOCK must be taken over) and verify every recovered record of this
/// round byte-for-byte. Must run before any worker thread exists in this
/// process (fork + threads do not mix).
void CrashRound(const std::string& dir, std::size_t round, Rng& rng,
                CrashOutcome& outcome) {
  std::cout.flush();
  const pid_t child = fork();
  if (child < 0) {
    std::cerr << "bench_serve: fork failed\n";
    std::exit(2);
  }
  if (child == 0) {
    // Appender: write records until killed. Every record is a pure
    // function of (round, index); whatever the kernel kept is what the
    // parent may legitimately recover.
    try {
      serve::DiskCache cache({.directory = dir});
      for (std::size_t i = 0;; ++i) {
        const std::string key = CrashKey(round, i);
        cache.Insert(CrashDigest(key), key, CrashValue(round, i));
      }
    } catch (...) {
      _exit(3);
    }
  }
  // 0.2–20 ms of appending before the kill: early kills exercise the
  // segment-header path, late ones multi-segment torn tails.
  usleep(static_cast<useconds_t>(200 + rng.NextBelow(19800)));
  kill(child, SIGKILL);
  int status = 0;
  waitpid(child, &status, 0);

  serve::DiskCache cache({.directory = dir});
  ++outcome.rounds;
  if (!cache.read_only()) {
    ++outcome.takeovers;  // the dead appender's lock was reclaimed
  }
  outcome.corrupt_skipped += cache.Stats().corrupt_skipped;
  // Appends are ordered and flushed per record, so a round's survivors
  // are a prefix: probe until the first miss.
  for (std::size_t i = 0;; ++i) {
    const std::string key = CrashKey(round, i);
    const auto hit = cache.Lookup(CrashDigest(key), key);
    if (!hit) {
      break;
    }
    ++outcome.recovered;
    if (*hit != CrashValue(round, i)) {
      ++outcome.wrong;
      std::cout << "WRONG BYTES served for " << key << " after crash round "
                << round << "\n";
    }
  }
  // The parent's DiskCache (and its lock) closes here so the next
  // round's child can take the appender role.
}

void CrashLoop(Ledger& ledger, const std::string& dir, const Options& opts) {
  Rng rng(opts.seed ^ 0xc4a5);
  CrashOutcome outcome;
  for (std::size_t round = 0; round < opts.crash_loop; ++round) {
    CrashRound(dir, round, rng, outcome);
  }
  const bool all_taken_over = outcome.takeovers == outcome.rounds;
  std::cout << "crash loop: " << outcome.rounds << " kill -9 rounds, "
            << outcome.recovered << " records recovered, "
            << outcome.corrupt_skipped << " torn/damaged skipped, "
            << outcome.wrong << " wrong-byte serves, stale lock reclaimed in "
            << outcome.takeovers << " rounds\n\n";
  ledger.Add(JsonObject()
                 .Set("section", "persist_crash_loop")
                 .Set("rounds", outcome.rounds)
                 .Set("records_recovered", outcome.recovered)
                 .Set("torn_skipped", outcome.corrupt_skipped)
                 .Set("wrong_payloads", outcome.wrong)
                 .Set("stale_lock_always_reclaimed", all_taken_over));
  ledger.Expect(outcome.wrong == 0, "persist_crash_loop",
                "a recovered record carries wrong bytes");
  ledger.Expect(all_taken_over, "persist_crash_loop",
                "a dead appender's lock was not reclaimed");
  std::filesystem::remove_all(dir);
}

// ---- serve part -------------------------------------------------------

/// Serves \p stream serially on a fresh service, so its cache accounting
/// is exact, and prints and records its serve_mix row.
void ServeMix(Ledger& ledger, bench::Table& table, const std::string& mix,
              const Stream& stream, std::size_t threads) {
  CertificationService service(Config(threads));
  const auto t0 = std::chrono::steady_clock::now();
  const Responses responses = ServeAll(service, stream);
  const double serve_ms = MillisSince(t0);
  ExpectOk(ledger, mix, responses);

  const ServiceStats stats = service.Stats();
  std::vector<double> latencies;
  latencies.reserve(responses.size());
  for (const CertResponse& response : responses) {
    latencies.push_back(response.service_ms);
  }
  const double hit_rate =
      static_cast<double>(stats.hits) / static_cast<double>(stream.size());
  table.Add(table.Row()
                .Set("mix", mix)
                .Set("coalesced", stats.coalesced)
                .Set("evictions", stats.cache.evictions)
                .Set("errors", stats.errors)
                .Set("responses_digest", serve::ResponseDigest(responses))
                .Set("p50_ms", Percentile(latencies, 0.50))
                .Set("p99_ms", Percentile(latencies, 0.99)),
            {Cell("", mix), Cell("requests", stream.size()),
             Cell("unique_designs", UniqueKeys(responses)),
             Cell("hits", stats.hits), Cell("misses", stats.cache.misses),
             Cell("computations", stats.computations),
             Cell("hit_rate", hit_rate, 3), Cell("serve_ms", serve_ms, 1)});
}

/// A tiny single-shard cache must respect both of its bounds.
void Eviction(Ledger& ledger, const Stream& stream, std::size_t threads) {
  ServiceConfig config = Config(threads);
  config.cache.shards = 1;
  config.cache.max_entries = 8;
  CertificationService service(config);
  ServeAll(service, stream);
  const serve::CacheStats stats = service.Stats().cache;
  const bool entries_ok = stats.entries <= config.cache.max_entries;
  const bool bytes_ok = stats.bytes <= config.cache.max_bytes;
  const bool evicted = stats.evictions == stats.insertions - stats.entries;
  std::cout << "\neviction: " << stats.insertions << " insertions, "
            << stats.evictions << " evictions, " << stats.entries
            << " resident\n";
  ledger.Add(JsonObject()
                 .Set("section", "serve_eviction")
                 .Set("max_entries", config.cache.max_entries)
                 .Set("insertions", stats.insertions)
                 .Set("evictions", stats.evictions)
                 .Set("entries", stats.entries)
                 .Set("entries_within_cap", entries_ok)
                 .Set("bytes_within_cap", bytes_ok)
                 .Set("eviction_accounting_exact", evicted));
  ledger.Expect(entries_ok, "serve_eviction", "more entries than the cap");
  ledger.Expect(bytes_ok, "serve_eviction", "more bytes than the cap");
  ledger.Expect(evicted, "serve_eviction", "evictions != insertions - entries");
}

/// Duplicate bursts over concurrent clients: exactly one computation per
/// design, and payloads identical to a serial pass at any client count.
void Coalescing(Ledger& ledger, const Stream& bursts, const Options& opts) {
  std::uint64_t serial_digest = 0;
  {
    CertificationService service(Config(opts.threads));
    serial_digest = TimedPass(ledger, "burst_serial", service, bursts).digest;
  }
  CertificationService service(Config(opts.threads));
  const auto t0 = std::chrono::steady_clock::now();
  const Responses responses = service.ServeBatch(bursts);
  const double wall_ms = MillisSince(t0);
  ExpectOk(ledger, "serve_concurrent", responses);
  const ServiceStats stats = service.Stats();
  const std::size_t unique = UniqueKeys(responses);
  const std::uint64_t digest = serve::ResponseDigest(responses);
  const bool single_flight = stats.computations == unique;
  const bool digest_matches = digest == serial_digest;
  std::cout << "\ncoalescing: " << bursts.size() << " requests (" << unique
            << " unique) over pool-width clients: " << stats.computations
            << " computations, " << stats.coalesced << " coalesced, "
            << stats.hits << " hits in " << FormatDouble(wall_ms, 1)
            << " ms\n";
  ledger.Add(JsonObject()
                 .Set("section", "serve_concurrent")
                 .Set("requests", bursts.size())
                 .Set("unique_designs", unique)
                 .Set("computations", stats.computations)
                 .Set("single_flight_exact", single_flight)
                 .Set("digest_matches_serial", digest_matches)
                 .Set("responses_digest", digest)
                 .Set("wall_ms", wall_ms));
  ledger.Expect(single_flight, "serve_concurrent",
                "computations != unique designs");
  ledger.Expect(digest_matches, "serve_concurrent",
                "payloads differ from the serial pass");

  if (!opts.check_determinism) {
    return;
  }
  for (const std::size_t clients : {std::size_t{1}, std::size_t{3}}) {
    CertificationService fresh(Config(opts.threads));
    const std::uint64_t again =
        serve::ResponseDigest(fresh.ServeBatch(bursts, clients));
    std::cout << "determinism check (" << clients << " clients): digest "
              << std::hex << again << std::dec
              << (again == serial_digest ? " OK" : " MISMATCH") << "\n";
    ledger.Expect(again == serial_digest, "serve_concurrent",
                  "payloads differ at " + std::to_string(clients) +
                      " client threads");
  }
}

/// The headline: cold recompute vs warm cache-hit serving of \p stream.
void HitSpeedup(Ledger& ledger, const Stream& corpus, const Stream& stream,
                std::size_t threads) {
  const Pass cold = ColdPass(ledger, stream, threads);
  // Warm: every unique design pre-served once (untimed), then the
  // identical stream is served entirely from the cache.
  CertificationService service(Config(threads));
  ServeAll(service, corpus);
  const std::uint64_t hits_before = service.Stats().hits;
  const Pass warm =
      TimedPass(ledger, "serve_summary", service, stream, kRounds);
  const bool all_hits =
      service.Stats().hits - hits_before == kRounds * stream.size();
  const bool payloads_match = warm.digest == cold.digest;
  const double speedup = warm.ms > 0.0 ? cold.ms / warm.ms : 0.0;
  std::cout << "\ncold recompute: " << FormatDouble(cold.ms, 1)
            << " ms, warm all-hit: " << FormatDouble(warm.ms, 1)
            << " ms -> cache_hit_speedup " << FormatDouble(speedup, 1)
            << "x (gate: >= 10x; baseline-gated by CI)\n";
  ledger.Add(JsonObject()
                 .Set("section", "serve_summary")
                 .Set("requests", stream.size())
                 .Set("unique_designs", corpus.size())
                 .Set("all_hits_when_warm", all_hits)
                 .Set("cached_equals_recomputed", payloads_match)
                 .Set("cold_ms", cold.ms)
                 .Set("warm_ms", warm.ms)
                 .Set("cache_hit_speedup", speedup));
  ledger.Expect(all_hits, "serve_summary", "the warm pass missed the cache");
  ledger.Expect(payloads_match, "serve_summary",
                "cached payloads differ from recompute");
  ledger.Expect(speedup >= kMinSpeedup, "serve_summary",
                "cache_hit_speedup below 10x");
}

/// Metrics instrumentation is compiled in unconditionally; what the
/// deploy decision needs is the marginal cost of attaching a trace sink
/// and tracing every request. Both arms serve the identical all-hit
/// stream; tools/bench_compare.py gates the ratio one-sided, so
/// instrumentation cannot silently grow.
void TraceOverhead(Ledger& ledger, const Stream& corpus, const Stream& stream,
                   std::size_t threads) {
  const auto warm_hit_ms = [&](obs::TraceSink* sink) {
    ServiceConfig config = Config(threads);
    config.trace = sink;
    CertificationService service(config);
    ServeAll(service, corpus);
    Stream traced = stream;
    if (sink != nullptr) {
      for (std::size_t i = 0; i < traced.size(); ++i) {
        traced[i].trace_id = "q" + std::to_string(i);
      }
    }
    return TimedPass(ledger, "obs_overhead", service, traced, kRounds).ms;
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
  ledger.Add(JsonObject()
                 .Set("section", "obs_overhead")
                 .Set("requests", stream.size())
                 .Set("untraced_ms", untraced_ms)
                 .Set("traced_ms", traced_ms)
                 .Set("trace_overhead", overhead));
}

// ---- persistence part -------------------------------------------------

/// Flips one byte inside the key text of the first record of the first
/// segment file in \p store, where the CRC must catch it at the open
/// scan. False when the store holds no segment.
bool DamageFirstRecord(const std::string& store) {
  for (const auto& entry : std::filesystem::directory_iterator(store)) {
    if (entry.path().filename().string().rfind("cache-", 0) != 0) {
      continue;
    }
    // Past the segment and record headers, 10 bytes into the key text.
    constexpr std::streamoff kOffset = 8 + 48 + 10;
    std::fstream file(entry.path(),
                      std::ios::in | std::ios::out | std::ios::binary);
    char byte = 0;
    file.seekg(kOffset);
    file.get(byte);
    file.seekp(kOffset);
    file.put(static_cast<char>(byte ^ 0x40));
    return true;
  }
  return false;
}

/// The disk tier across a process boundary: fill a store and restart on
/// it, then damage it, then share it under a live appender lock.
void Persistence(Ledger& ledger, const std::string& store,
                 const Options& opts) {
  const Stream corpus = BuildCorpus(kPersistDesigns, opts.seed, 0);
  const Stream stream =
      DrawMix(corpus, kPersistRequests, opts.seed ^ 0x5e11, 0.8);
  std::cout << "\n=== persistent certificate cache: " << stream.size()
            << " requests over " << corpus.size() << " designs ===\n";
  const Pass cold = ColdPass(ledger, stream, opts.threads);
  ServiceConfig config = Config(opts.threads);
  config.cache_dir = store;

  // Fill: serve the corpus once, written through to disk. The service,
  // and with it the whole memory tier, dies at the end of the scope;
  // only the segment files survive.
  Pass fill;
  std::uint64_t fill_demotions = 0;
  {
    CertificationService service(config);
    fill = TimedPass(ledger, "persist_fill", service, corpus);
    fill_demotions = service.Stats().cache.demotions;
  }

  // Warm restart: a fresh service on the same directory.
  {
    CertificationService service(config);
    const Pass restart =
        TimedPass(ledger, "persist_restart", service, stream, kRounds);
    const ServiceStats stats = service.Stats();
    const double hit_ratio = static_cast<double>(stats.hits) /
                             static_cast<double>(kRounds * stream.size());
    const bool payloads_match = restart.digest == cold.digest;
    const double speedup = restart.ms > 0.0 ? cold.ms / restart.ms : 0.0;
    std::cout << "warm restart: " << stats.hits << " hits (ratio "
              << FormatDouble(hit_ratio, 3) << "), " << stats.computations
              << " recomputes, " << stats.disk.hits << " disk hits -> "
              << stats.cache.promotions << " promoted to memory\n"
              << "  restart-hit serving " << FormatDouble(restart.ms, 1)
              << " ms vs cold " << FormatDouble(cold.ms, 1)
              << " ms -> restart_hit_speedup " << FormatDouble(speedup, 1)
              << "x (gate: >= 10x; baseline-gated by CI)\n";
    ledger.Add(JsonObject()
                   .Set("section", "persist_restart")
                   .Set("requests", stream.size())
                   .Set("unique_designs", corpus.size())
                   .Set("warm_rounds", kRounds)
                   .Set("hits", stats.hits)
                   .Set("computations", stats.computations)
                   .Set("disk_hits", stats.disk.hits)
                   .Set("promotions", stats.cache.promotions)
                   .Set("fill_demotions", fill_demotions)
                   .Set("hit_ratio", hit_ratio)
                   .Set("restart_equals_recompute", payloads_match)
                   .Set("cold_ms", cold.ms)
                   .Set("fill_ms", fill.ms)
                   .Set("restart_ms", restart.ms)
                   .Set("restart_hit_speedup", speedup));
    ledger.Expect(stats.computations == 0, "persist_restart",
                  "the restarted service recomputed");
    ledger.Expect(hit_ratio >= 0.9, "persist_restart", "hit ratio below 0.9");
    ledger.Expect(payloads_match, "persist_restart",
                  "restart payloads differ from recompute");
    ledger.Expect(!opts.perf || speedup >= kMinSpeedup, "persist_restart",
                  "restart_hit_speedup below 10x");
  }

  // Corruption: a flipped byte is detected at reopen and recomputed.
  {
    const bool damaged = DamageFirstRecord(store);
    CertificationService service(config);
    const Pass pass = TimedPass(ledger, "persist_corruption", service, corpus);
    const ServiceStats stats = service.Stats();
    const bool detected = damaged && stats.disk.corrupt_skipped > 0;
    const bool recomputed = stats.computations > 0;
    const bool payloads_match = pass.digest == fill.digest;
    std::cout << "corruption: 1 byte flipped -> "
              << stats.disk.corrupt_skipped << " record(s) skipped, "
              << stats.computations << " recomputed\n";
    ledger.Add(JsonObject()
                   .Set("section", "persist_corruption")
                   .Set("requests", corpus.size())
                   .Set("corrupt_detected", detected)
                   .Set("recomputed_damaged_entry", recomputed)
                   .Set("damaged_equals_recompute", payloads_match)
                   .Set("wrong_payloads", std::size_t{0}));
    ledger.Expect(detected, "persist_corruption", "the flip was not detected");
    ledger.Expect(recomputed, "persist_corruption",
                  "the damaged entry was not recomputed");
    ledger.Expect(payloads_match, "persist_corruption",
                  "payloads differ from the undamaged fill");
  }

  // Sharing: a reader mounts the directory under a live lock.
  {
    CertificationService owner(config);  // holds the LOCK
    serve::DiskCache probe({.directory = store});
    CertificationService reader(config);
    const Pass pass = TimedPass(ledger, "persist_sharing", reader, corpus);
    const ServiceStats stats = reader.Stats();
    const bool read_only = probe.read_only();
    const bool all_from_store =
        stats.computations == 0 && stats.hits == corpus.size();
    const bool nothing_written = stats.disk.insertions == 0;
    const bool payloads_match = pass.digest == fill.digest;
    std::cout << "sharing: a reader under a live appender lock served "
              << stats.hits << "/" << corpus.size()
              << " from the shared store and wrote "
              << stats.disk.insertions << " records\n";
    ledger.Add(JsonObject()
                   .Set("section", "persist_sharing")
                   .Set("requests", corpus.size())
                   .Set("reader_is_read_only", read_only)
                   .Set("served_all_from_store", all_from_store)
                   .Set("reader_wrote_nothing", nothing_written)
                   .Set("reader_equals_fill", payloads_match));
    ledger.Expect(read_only, "persist_sharing", "the reader is not read-only");
    ledger.Expect(all_from_store, "persist_sharing",
                  "the reader did not serve all from the store");
    ledger.Expect(nothing_written, "persist_sharing", "the reader wrote");
    ledger.Expect(payloads_match, "persist_sharing",
                  "payloads differ from the fill");
  }
}

}  // namespace

int main(int argc, char** argv) {
  const Options opts = ParseOptions(argc, argv);
  Ledger ledger("serve");
  const std::string dir = MakeTempDir();

  // Forks, so it runs before any service or client thread exists.
  if (opts.crash_loop > 0) {
    CrashLoop(ledger, dir + "/crash", opts);
  }

  std::cout << "=== certification service load: " << opts.requests
            << " requests/mix over " << opts.designs
            << " designs (5 sources), seed " << opts.seed << " ===\n\n";
  const auto t_corpus = std::chrono::steady_clock::now();
  const Stream corpus = BuildCorpus(opts.designs, opts.seed, 0);
  // Unique-heavy traffic: every request is a first-contact design.
  const std::size_t unique_requests =
      std::max<std::size_t>(8, std::min<std::size_t>(opts.requests / 4, 150));
  const Stream unique_stream = BuildCorpus(unique_requests, opts.seed, 7777);
  std::cout << "corpus of " << corpus.size() << " + " << unique_stream.size()
            << " designs rendered in "
            << FormatDouble(MillisSince(t_corpus), 1) << " ms\n\n";
  const Stream repeat_stream =
      DrawMix(corpus, opts.requests, opts.seed ^ 0x5e11, 0.8);
  const Stream uniform_stream =
      DrawMix(corpus, opts.requests, opts.seed ^ 0x7a31, 0.0);
  const Stream burst_stream =
      DrawBursts(corpus, opts.requests, opts.seed ^ 0xb00, 8);

  bench::Table mixes(ledger, "serve_mix",
                     {"mix", "requests", "unique", "hits", "misses",
                      "computed", "hit_rate", "serve_ms"});
  ServeMix(ledger, mixes, "repeat_heavy", repeat_stream, opts.threads);
  ServeMix(ledger, mixes, "uniform", uniform_stream, opts.threads);
  ServeMix(ledger, mixes, "unique_heavy", unique_stream, opts.threads);
  mixes.Print();
  Eviction(ledger, uniform_stream, opts.threads);
  Coalescing(ledger, burst_stream, opts);
  if (opts.perf) {
    HitSpeedup(ledger, corpus, repeat_stream, opts.threads);
    TraceOverhead(ledger, corpus, repeat_stream, opts.threads);
  }

  Persistence(ledger, dir + "/store", opts);
  std::filesystem::remove_all(dir);
  return ledger.Finish();
}
