// Persistent-cache restart harness: the disk tier across a process
// boundary.
//
// Exercises serve/disk_cache end to end through the real
// CertificationService and emits the BENCH rows the perf gate pins:
//   * persist_restart  — fill a --cache-dir service, destroy it, open a
//                        fresh service on the same directory and serve
//                        a repeat-heavy stream: zero recomputes, a
//                        warm-restart hit ratio gated >= 0.9, payloads
//                        bit-identical to cache-disabled recompute, and
//                        restart_hit_speedup (restart-hit serving vs
//                        cold recompute) gated >= 10x.
//   * persist_corruption — a byte flipped inside a stored record: the
//                        reopened store detects it, recomputes exactly
//                        that entry, and still serves the full corpus
//                        bit-identical to the undamaged fill.
//   * persist_sharing  — a second service mounted on a directory whose
//                        appender lock is live: it falls back to
//                        read-only, serves every request from the
//                        shared store, and writes nothing.
//   * persist_crash_loop (only with --crash-loop N; fresh-only, so the
//                        baseline comparison treats it as
//                        informational) — N rounds of fork an appender,
//                        SIGKILL it mid-append, reopen the directory
//                        (stale-lock takeover) and verify that every
//                        record the scan recovered is byte-identical to
//                        what the dead appender meant to write: torn
//                        tails may be lost, wrong bytes are a failure.
//
// Flags:
//   --requests N    requests in the repeat-heavy stream (default 400)
//   --designs U     unique designs in the corpus (default 16)
//   --seed S        base seed (default 1)
//   --threads T     compute-pool threads, 0 = hardware (default 0)
//   --cache-dir D   store directory (default: a fresh temp dir,
//                   removed at exit; a given directory is kept)
//   --crash-loop N  also run N kill -9 crash/recover rounds (default 0)
//   --no-perf       skip the wall-clock speedup gate (correctness
//                   gates still apply)
//
// Exit code: 0 iff every response is ok, the restart pass recomputed
// nothing and matched the recompute digest, corruption was detected
// and served correctly, the concurrent reader stayed read-only, no
// crash round served wrong bytes and (unless --no-perf) the restart
// hit speedup is >= 10x.
#include <signal.h>
#include <sys/wait.h>
#include <unistd.h>

#include <chrono>
#include <cstdint>
#include <cstdio>
#include <filesystem>
#include <fstream>
#include <iostream>
#include <string>
#include <vector>

#include "bench_common.h"
#include "noc/io.h"
#include "runner/sweep.h"
#include "serve/disk_cache.h"
#include "serve/protocol.h"
#include "serve/service.h"
#include "util/canonical.h"
#include "util/digest.h"
#include "util/json.h"
#include "util/rng.h"
#include "util/table.h"
#include "valid/campaign.h"

using namespace nocdr;

namespace {

using bench::MillisSince;

struct Options {
  std::size_t requests = 400;
  std::size_t designs = 16;
  std::uint64_t seed = 1;
  std::size_t threads = 0;
  std::string cache_dir;
  std::size_t crash_loop = 0;
  bool perf = true;
};

Options ParseOptions(int argc, char** argv) {
  Options opts;
  bench::FlagParser flags("bench_serve_persist");
  bool no_perf = false;
  flags.AddSize("--requests", &opts.requests);
  flags.AddSize("--designs", &opts.designs);
  flags.AddUint64("--seed", &opts.seed);
  flags.AddSize("--threads", &opts.threads);
  flags.AddString("--cache-dir", &opts.cache_dir);
  flags.AddSize("--crash-loop", &opts.crash_loop);
  flags.AddSwitch("--no-perf", &no_perf);
  flags.Parse(argc, argv);
  opts.perf = !no_perf;
  if (opts.requests == 0 || opts.designs == 0) {
    flags.Fail("--requests and --designs must be positive");
  }
  return opts;
}

std::string MakeTempDir() {
  std::string pattern =
      (std::filesystem::temp_directory_path() / "nocdr_persist_XXXXXX")
          .string();
  std::vector<char> buffer(pattern.begin(), pattern.end());
  buffer.push_back('\0');
  if (mkdtemp(buffer.data()) == nullptr) {
    std::cerr << "bench_serve_persist: cannot create a temp directory\n";
    std::exit(2);
  }
  return std::string(buffer.data());
}

serve::CertRequest TextRequest(std::string id, std::string design_text) {
  serve::CertRequest request;
  request.id = std::move(id);
  request.kind = serve::RequestKind::kDesignText;
  request.design_text = std::move(design_text);
  return request;
}

/// The unique-design corpus: round-robin over all five design sources,
/// pre-rendered to text so no phase pays generation cost.
std::vector<serve::CertRequest> BuildCorpus(std::size_t designs,
                                            std::uint64_t base_seed) {
  const valid::DesignEnvelope envelope;
  const std::vector<valid::DesignSource> sources = valid::AllSources();
  std::vector<serve::CertRequest> corpus;
  corpus.reserve(designs);
  for (std::size_t d = 0; d < designs; ++d) {
    const valid::DesignSource source = sources[d % sources.size()];
    const std::uint64_t seed = runner::JobSeed(base_seed, d);
    const NocDesign design = valid::GenerateTrialDesign(source, seed, envelope);
    corpus.push_back(
        TextRequest("d" + std::to_string(d), DesignText(design)));
  }
  return corpus;
}

/// repeat_heavy: 80% of requests go to a hot fifth of the corpus.
std::vector<serve::CertRequest> DrawRepeatHeavy(
    const std::vector<serve::CertRequest>& corpus, std::size_t requests,
    std::uint64_t seed) {
  Rng rng(seed);
  const std::size_t hot = std::max<std::size_t>(1, corpus.size() / 5);
  std::vector<serve::CertRequest> stream;
  stream.reserve(requests);
  for (std::size_t i = 0; i < requests; ++i) {
    const std::size_t pick = rng.NextBool(0.8)
                                 ? rng.NextBelow(hot)
                                 : rng.NextBelow(corpus.size());
    stream.push_back(corpus[pick]);
  }
  return stream;
}

std::size_t CountBad(const std::vector<serve::CertResponse>& responses) {
  std::size_t bad = 0;
  for (const serve::CertResponse& response : responses) {
    if (response.status != serve::ServeStatus::kOk) {
      std::cout << "BAD RESPONSE (" << serve::StatusName(response.status)
                << ") id=" << response.id << ": " << response.error.message
                << "\n";
      ++bad;
    }
  }
  return bad;
}

std::vector<serve::CertResponse> ServeAll(
    serve::CertificationService& service,
    const std::vector<serve::CertRequest>& stream) {
  std::vector<serve::CertResponse> responses;
  responses.reserve(stream.size());
  for (const serve::CertRequest& request : stream) {
    responses.push_back(service.Serve(request));
  }
  return responses;
}

// ---- crash loop -----------------------------------------------------

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

bool SameValue(const serve::CachedCertification& a,
               const serve::CachedCertification& b) {
  return a.certificate_json == b.certificate_json &&
         a.treated_design_text == b.treated_design_text &&
         a.deadlock_free == b.deadlock_free &&
         a.initially_deadlock_free == b.initially_deadlock_free &&
         a.iterations == b.iterations && a.vcs_added == b.vcs_added &&
         a.flows_rerouted == b.flows_rerouted &&
         a.channels_before == b.channels_before &&
         a.channels_after == b.channels_after;
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
/// round byte-for-byte. Must run before any thread pool exists in this
/// process (fork + threads do not mix).
void CrashRound(const std::string& dir, std::size_t round, Rng& rng,
                CrashOutcome& outcome) {
  std::cout.flush();
  const pid_t child = fork();
  if (child < 0) {
    std::cerr << "bench_serve_persist: fork failed\n";
    std::exit(2);
  }
  if (child == 0) {
    // Appender: write records until killed. Every record is a pure
    // function of (round, index); whatever the kernel kept is what the
    // parent may legitimately recover.
    try {
      serve::DiskCacheConfig config;
      config.directory = dir;
      serve::DiskCache cache(config);
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

  serve::DiskCacheConfig config;
  config.directory = dir;
  serve::DiskCache cache(config);
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
    if (!SameValue(*hit, CrashValue(round, i))) {
      ++outcome.wrong;
      std::cout << "WRONG BYTES served for " << key << " after crash round "
                << round << "\n";
    }
  }
  // The parent's DiskCache (and its lock) closes here so the next
  // round's child can take the appender role.
}

}  // namespace

int main(int argc, char** argv) {
  const Options opts = ParseOptions(argc, argv);
  bool failed = false;
  BenchJsonWriter json("serve_persist");

  const bool temp_dir = opts.cache_dir.empty();
  const std::string dir = temp_dir ? MakeTempDir() : opts.cache_dir;

  std::cout << "=== persistent certificate cache: " << opts.requests
            << " requests over " << opts.designs << " designs, seed "
            << opts.seed << ", store " << dir << " ===\n\n";

  // ---- crash loop first: fork before any thread pool exists ----
  if (opts.crash_loop > 0) {
    const std::string crash_dir = dir + "/crash";
    Rng rng(opts.seed ^ 0xc4a5);
    CrashOutcome outcome;
    for (std::size_t round = 0; round < opts.crash_loop; ++round) {
      CrashRound(crash_dir, round, rng, outcome);
    }
    const bool all_taken_over = outcome.takeovers == outcome.rounds;
    std::cout << "crash loop: " << outcome.rounds << " kill -9 rounds, "
              << outcome.recovered << " records recovered, "
              << outcome.corrupt_skipped << " torn/damaged skipped, "
              << outcome.wrong << " wrong-byte serves ("
              << (outcome.wrong == 0 ? "zero, as required"
                                     : "DURABILITY BUG!")
              << "), stale lock "
              << (all_taken_over ? "reclaimed every round"
                                 : "NOT always reclaimed (bug!)")
              << "\n\n";
    json.AddRow(JsonObject()
                    .Set("section", "persist_crash_loop")
                    .Set("rounds", outcome.rounds)
                    .Set("records_recovered", outcome.recovered)
                    .Set("torn_skipped", outcome.corrupt_skipped)
                    .Set("wrong_payloads", outcome.wrong)
                    .Set("stale_lock_always_reclaimed", all_taken_over));
    failed = failed || outcome.wrong != 0 || !all_taken_over;
    std::filesystem::remove_all(crash_dir);
  }

  const auto t_corpus = std::chrono::steady_clock::now();
  const std::vector<serve::CertRequest> corpus =
      BuildCorpus(opts.designs, opts.seed);
  const std::vector<serve::CertRequest> repeat_stream =
      DrawRepeatHeavy(corpus, opts.requests, opts.seed ^ 0x5e11);
  std::cout << "corpus of " << corpus.size() << " designs rendered in "
            << FormatDouble(MillisSince(t_corpus), 1) << " ms\n";

  // ---- cold reference: cache disabled, every request recomputes ----
  double cold_ms = 0.0;
  std::uint64_t cold_digest = 0;
  {
    serve::ServiceConfig config;
    config.threads = opts.threads;
    config.cache_enabled = false;
    serve::CertificationService service(config);
    const auto t0 = std::chrono::steady_clock::now();
    const std::vector<serve::CertResponse> responses =
        ServeAll(service, repeat_stream);
    cold_ms = MillisSince(t0);
    cold_digest = serve::ResponseDigest(responses);
    failed = failed || CountBad(responses) != 0;
  }
  std::cout << "cold recompute reference: " << FormatDouble(cold_ms, 1)
            << " ms\n";

  // ---- fill: serve the corpus once, write-through to disk ----
  const std::string store_dir = dir + "/store";
  double fill_ms = 0.0;
  std::uint64_t corpus_digest = 0;
  std::size_t fill_demotions = 0;
  {
    serve::ServiceConfig config;
    config.threads = opts.threads;
    config.cache_dir = store_dir;
    serve::CertificationService service(config);
    const auto t0 = std::chrono::steady_clock::now();
    const std::vector<serve::CertResponse> responses =
        ServeAll(service, corpus);
    fill_ms = MillisSince(t0);
    corpus_digest = serve::ResponseDigest(responses);
    fill_demotions = service.Stats().cache.demotions;
    failed = failed || CountBad(responses) != 0;
    // The service (and with it the whole in-memory tier) dies here;
    // only the segment files under store_dir survive.
  }
  std::cout << "fill: " << corpus.size() << " designs computed and persisted"
            << " in " << FormatDouble(fill_ms, 1) << " ms (" << fill_demotions
            << " demoted to disk)\n";

  // ---- warm restart: a fresh process image, same directory ----
  constexpr std::size_t kWarmRounds = 5;
  {
    serve::ServiceConfig config;
    config.threads = opts.threads;
    config.cache_dir = store_dir;
    serve::CertificationService service(config);
    const auto t0 = std::chrono::steady_clock::now();
    std::vector<serve::CertResponse> responses;
    for (std::size_t round = 0; round < kWarmRounds; ++round) {
      responses = ServeAll(service, repeat_stream);
    }
    const double restart_ms = MillisSince(t0) / kWarmRounds;
    const serve::ServiceStats stats = service.Stats();
    const std::uint64_t restart_digest = serve::ResponseDigest(responses);

    const std::size_t total = kWarmRounds * repeat_stream.size();
    const double hit_ratio =
        static_cast<double>(stats.hits) / static_cast<double>(total);
    const bool no_recompute = stats.computations == 0;
    const bool payloads_match = restart_digest == cold_digest;
    const double speedup = restart_ms > 0.0 ? cold_ms / restart_ms : 0.0;

    std::cout << "warm restart: " << stats.hits << "/" << total
              << " hits (ratio " << FormatDouble(hit_ratio, 3)
              << ", gate >= 0.9), " << stats.computations
              << " recomputes, " << stats.disk.hits << " disk hits -> "
              << stats.cache.promotions << " promoted to memory\n"
              << "  restart-hit serving " << FormatDouble(restart_ms, 1)
              << " ms vs cold " << FormatDouble(cold_ms, 1)
              << " ms -> restart_hit_speedup " << FormatDouble(speedup, 1)
              << "x (gate: >= 10x; baseline-gated by CI)\n"
              << "  restart payloads "
              << (payloads_match ? "bit-identical to recompute\n"
                                 : "DIVERGED from recompute (bug!)\n");
    json.AddRow(JsonObject()
                    .Set("section", "persist_restart")
                    .Set("requests", repeat_stream.size())
                    .Set("unique_designs", corpus.size())
                    .Set("warm_rounds", kWarmRounds)
                    .Set("hits", stats.hits)
                    .Set("computations", stats.computations)
                    .Set("disk_hits", stats.disk.hits)
                    .Set("promotions", stats.cache.promotions)
                    .Set("fill_demotions", fill_demotions)
                    .Set("hit_ratio", hit_ratio)
                    .Set("restart_equals_recompute", payloads_match)
                    .Set("cold_ms", cold_ms)
                    .Set("fill_ms", fill_ms)
                    .Set("restart_ms", restart_ms)
                    .Set("restart_hit_speedup", speedup));
    failed = failed || CountBad(responses) != 0 || !no_recompute ||
             !payloads_match || hit_ratio < 0.9;
    if (opts.perf) {
      failed = failed || speedup < 10.0;
    }
  }

  // ---- corruption: flip a stored byte, reopen, serve the corpus ----
  {
    // Damage the first record of the oldest segment, inside its key
    // text: the CRC must catch it at the open scan.
    std::uint64_t first_segment = 0;
    for (const auto& entry : std::filesystem::directory_iterator(store_dir)) {
      const std::string name = entry.path().filename().string();
      if (name.rfind("cache-", 0) == 0) {
        first_segment = 1;
        std::fstream file(entry.path(),
                          std::ios::in | std::ios::out | std::ios::binary);
        file.seekp(8 + 48 + 10);  // segment header + record header + 10
        char byte = 0;
        file.seekg(8 + 48 + 10);
        file.get(byte);
        file.seekp(8 + 48 + 10);
        file.put(static_cast<char>(byte ^ 0x40));
        break;
      }
    }
    serve::ServiceConfig config;
    config.threads = opts.threads;
    config.cache_dir = store_dir;
    serve::CertificationService service(config);
    const std::vector<serve::CertResponse> responses =
        ServeAll(service, corpus);
    const serve::ServiceStats stats = service.Stats();
    const bool detected = first_segment != 0 && stats.disk.corrupt_skipped > 0;
    const bool recomputed = stats.computations > 0;
    const bool payloads_match =
        serve::ResponseDigest(responses) == corpus_digest;
    std::cout << "\ncorruption: 1 byte flipped -> "
              << stats.disk.corrupt_skipped << " record(s) skipped ("
              << (detected ? "detected" : "NOT DETECTED (bug!)") << "), "
              << stats.computations << " recomputed, corpus payloads "
              << (payloads_match ? "bit-identical to the undamaged fill\n"
                                 : "DIVERGED (bug!)\n");
    json.AddRow(JsonObject()
                    .Set("section", "persist_corruption")
                    .Set("requests", corpus.size())
                    .Set("corrupt_detected", detected)
                    .Set("recomputed_damaged_entry", recomputed)
                    .Set("damaged_equals_recompute", payloads_match)
                    .Set("wrong_payloads", std::size_t{0}));
    failed = failed || CountBad(responses) != 0 || !detected ||
             !recomputed || !payloads_match;
  }

  // ---- sharing: a reader mounts the directory under a live lock ----
  {
    serve::ServiceConfig config;
    config.threads = opts.threads;
    config.cache_dir = store_dir;
    serve::CertificationService owner(config);  // holds the LOCK
    serve::DiskCache probe({.directory = store_dir});
    serve::CertificationService reader(config);
    const std::vector<serve::CertResponse> responses =
        ServeAll(reader, corpus);
    const serve::ServiceStats stats = reader.Stats();
    const bool read_only = probe.read_only();
    const bool all_from_store = stats.computations == 0 &&
                                stats.hits == corpus.size();
    const bool nothing_written = stats.disk.insertions == 0;
    const bool payloads_match =
        serve::ResponseDigest(responses) == corpus_digest;
    std::cout << "sharing: reader under a live appender lock is "
              << (read_only ? "read-only" : "NOT read-only (bug!)")
              << ", served " << stats.hits << "/" << corpus.size()
              << " from the shared store ("
              << (nothing_written ? "wrote nothing" : "WROTE (bug!)")
              << "), payloads "
              << (payloads_match ? "bit-identical\n" : "DIVERGED (bug!)\n");
    json.AddRow(JsonObject()
                    .Set("section", "persist_sharing")
                    .Set("requests", corpus.size())
                    .Set("reader_is_read_only", read_only)
                    .Set("served_all_from_store", all_from_store)
                    .Set("reader_wrote_nothing", nothing_written)
                    .Set("reader_equals_fill", payloads_match));
    failed = failed || CountBad(responses) != 0 || !read_only ||
             !all_from_store || !nothing_written || !payloads_match;
  }

  const std::string path = json.Write();
  if (!path.empty()) {
    std::cout << "rows written to " << path << "\n";
  }
  if (temp_dir) {
    std::filesystem::remove_all(dir);
  }
  return failed ? 1 : 0;
}
