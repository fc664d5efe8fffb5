// nocdr_serve: the certification service on stdin/stdout.
//
// Reads line-delimited JSON requests (grammar: docs/PROTOCOL.md;
// operator guide: docs/OPERATIONS.md), serves them through the
// in-process
// CertificationService — sharded certificate cache, single-flight
// coalescing, bounded admission — and writes one response line per
// request, in request order. Protocol v2 session messages
// (session_open / fault_burst / session_snapshot / session_close) are
// routed to an in-process SessionService sharing the same cert cache.
// Malformed lines produce a structured-error response rather than
// killing the session.
//
//   ./nocdr_serve < examples/serve_requests.jsonl
//   ./nocdr_serve < examples/serve_session_requests.jsonl
//
// Flags:
//   --threads N       requests served at once, each cold one computing
//                     on its own thread; 0 = hardware (default 0)
//   --shards N        cache shards (default 16)
//   --cache-entries N cache entry bound (default 4096)
//   --cache-mb N      cache payload bound in MiB (default 64)
//   --max-pending N   admission bound on in-flight computations
//                     (default 1024; excess requests get "overloaded")
//   --max-sessions N  admission bound on open sessions (default 256)
//   --batch N         v1 lines served per pipelined batch (default 4x
//                     the compute width; 1 = strictly sequential)
//   --admission-tokens N      token-budget refill rate per second; > 0
//                             enables the policy (default 0 = only the
//                             in-flight bound rejects)
//   --admission-burst N       bucket capacity in tokens (default 0 =
//                             one second of refill)
//   --admission-charge-cost   charge requests their design-size cost
//                             (sched::EstimateCost) instead of 1 token
//   --admission-classes SPEC  admission classes as CSV of
//                             name:rank:weight, e.g.
//                             "interactive:0:3,batch:1:1"; requests pick
//                             a class with the "class" field
//   --cache-dir DIR   persistent certificate-cache directory
//                     (serve/disk_cache): warmth survives restarts,
//                     and worker fleets share one directory (single
//                     appender via its LOCK file, many readers)
//   --disk-cache-bytes N      disk store byte bound (default 1 GiB);
//                             whole segments are retired oldest-first
//   --cache-compact   compact the disk store at open (drop superseded
//                     and damaged records) before serving
//   --stats           print service + session counters (every cache
//                     tier and the per-class admission split) plus the
//                     metrics registry — latency histograms included —
//                     to stderr at EOF. The text is rendered from the
//                     v2 "stats" / "metrics" response JSON
//                     (serve/protocol.h), so it cannot drift from what
//                     the protocol reports.
//   --trace-out PATH  write a structured trace of the run (JSON Lines,
//                     schema: docs/OBSERVABILITY.md) at EOF; analyze
//                     with tools/nocdr_trace
//   --trace-sample N  trace every Nth protocol line (default 1 = all;
//                     certification computations are always traced
//                     when --trace-out is set, keyed by cache key)
//   --trace-clock logical|wall
//                     logical (default) = byte-deterministic tick
//                     counts; wall = real microseconds
//   --version         print build provenance (git sha, compiler,
//                     build type) and exit
//
// Stateless requests are batched so duplicates coalesce; a session
// message flushes the pending batch first (responses stay in request
// order) and is then served synchronously — bursts on one session are
// ordered by construction.
//
// Exit code: 0 on EOF, 2 on bad flags, an unusable --cache-dir or an
// unwritable --trace-out. Request-level failures are responses, not
// exit codes — a serving process must outlive them.
#include <algorithm>
#include <cstdint>
#include <cstdlib>
#include <iostream>
#include <memory>
#include <stdexcept>
#include <string>
#include <thread>
#include <vector>

#include "bench_common.h"
#include "obs/metrics.h"
#include "obs/trace.h"
#include "serve/protocol.h"
#include "serve/service.h"
#include "serve/session.h"
#include "util/build_info.h"

using namespace nocdr;

namespace {

struct Options {
  serve::ServiceConfig service;
  serve::SessionServiceConfig sessions;
  std::size_t batch = 0;
  bool stats = false;
  std::string trace_out;
  std::size_t trace_sample = 1;
  obs::TraceClockMode trace_clock = obs::TraceClockMode::kLogical;
};

/// Parses "name:rank:weight" CSV entries (rank and weight optional,
/// defaulting to 0 and 1).
std::vector<serve::sched::ClassConfig> ParseClasses(const std::string& spec) {
  std::vector<serve::sched::ClassConfig> classes;
  for (const std::string& entry : bench::SplitCsv(spec)) {
    serve::sched::ClassConfig config;
    const std::size_t first = entry.find(':');
    config.name = entry.substr(0, first);
    if (config.name.empty()) {
      throw std::invalid_argument("--admission-classes: empty class name");
    }
    if (first != std::string::npos) {
      const std::size_t second = entry.find(':', first + 1);
      config.rank = std::stoi(entry.substr(first + 1, second - first - 1));
      if (second != std::string::npos) {
        config.weight = std::stod(entry.substr(second + 1));
      }
    }
    classes.push_back(std::move(config));
  }
  return classes;
}

Options ParseOptions(int argc, char** argv) {
  Options opts;
  bench::FlagParser flags("nocdr_serve");
  std::size_t cache_mb = 64;
  std::uint64_t admission_tokens = 0;
  std::uint64_t admission_burst = 0;
  std::string admission_classes;
  std::string trace_clock = "logical";
  bool version = false;
  flags.AddSize("--threads", &opts.service.threads);
  flags.AddSize("--shards", &opts.service.cache.shards);
  flags.AddSize("--cache-entries", &opts.service.cache.max_entries);
  flags.AddSize("--cache-mb", &cache_mb);
  flags.AddSize("--max-pending", &opts.service.max_pending);
  flags.AddSize("--max-sessions", &opts.sessions.max_sessions);
  flags.AddSize("--batch", &opts.batch);
  flags.AddUint64("--admission-tokens", &admission_tokens);
  flags.AddUint64("--admission-burst", &admission_burst);
  flags.AddSwitch("--admission-charge-cost",
                  &opts.service.admission.charge_cost);
  flags.AddString("--admission-classes", &admission_classes);
  flags.AddString("--cache-dir", &opts.service.cache_dir);
  flags.AddSize("--disk-cache-bytes", &opts.service.disk_cache_bytes);
  flags.AddSwitch("--cache-compact", &opts.service.cache_compact);
  flags.AddSwitch("--stats", &opts.stats);
  flags.AddString("--trace-out", &opts.trace_out);
  flags.AddSize("--trace-sample", &opts.trace_sample);
  flags.AddString("--trace-clock", &trace_clock);
  flags.AddSwitch("--version", &version);
  flags.Parse(argc, argv);
  if (version) {
    std::cout << BuildInfoLine("nocdr_serve") << "\n";
    std::exit(0);
  }
  if (opts.trace_sample == 0) {
    flags.Fail("--trace-sample must be >= 1");
  }
  try {
    opts.trace_clock = obs::ParseTraceClock(trace_clock);
  } catch (const std::exception& e) {
    flags.Fail(e.what());
  }
  opts.service.cache.max_bytes = cache_mb << 20;
  opts.service.admission.enabled = admission_tokens > 0;
  opts.service.admission.tokens_per_sec =
      static_cast<double>(admission_tokens);
  opts.service.admission.burst = static_cast<double>(admission_burst);
  if (!admission_classes.empty()) {
    try {
      opts.service.admission.classes = ParseClasses(admission_classes);
    } catch (const std::exception& e) {
      flags.Fail(e.what());
    }
  }
  return opts;
}

}  // namespace

int main(int argc, char** argv) {
  Options opts = ParseOptions(argc, argv);
  // The sink must outlive the service: each computation finishes its
  // trace into it, on the thread that served the request.
  std::unique_ptr<obs::TraceSink> trace_sink;
  if (!opts.trace_out.empty()) {
    trace_sink = std::make_unique<obs::TraceSink>(opts.trace_clock);
    opts.service.trace = trace_sink.get();
  }
  std::unique_ptr<serve::CertificationService> service_holder;
  try {
    service_holder = std::make_unique<serve::CertificationService>(
        opts.service);
  } catch (const std::exception& e) {
    // An unusable --cache-dir is a deployment error, not a request
    // error: fail fast like a bad flag instead of serving cold.
    std::cerr << "nocdr_serve: " << e.what() << "\n";
    return 2;
  }
  serve::CertificationService& service = *service_holder;
  serve::SessionService sessions(service, opts.sessions);
  serve::ServeDispatcher dispatcher(service, sessions);
  std::size_t width = opts.service.threads;
  if (width == 0) {
    width = std::max(1u, std::thread::hardware_concurrency());
  }
  const std::size_t batch_size = opts.batch != 0 ? opts.batch : 4 * width;

  std::vector<serve::CertRequest> batch;
  std::vector<std::size_t> bad_lines;  // indices with parse failures
  std::vector<std::string> bad_responses;
  std::string line;
  std::size_t served = 0;
  std::size_t session_messages = 0;

  const auto flush = [&] {
    // Parse failures become error responses inline; parsable requests
    // are served as one pipelined batch so duplicates coalesce.
    const std::vector<serve::CertResponse> responses =
        service.ServeBatch(batch);
    std::size_t bad = 0;
    for (std::size_t i = 0, r = 0; i < batch.size() + bad_lines.size(); ++i) {
      if (bad < bad_lines.size() && bad_lines[bad] == i) {
        std::cout << bad_responses[bad] << "\n";
        ++bad;
      } else {
        std::cout << serve::ResponseToJsonLine(responses[r++]) << "\n";
      }
    }
    std::cout.flush();
    served += batch.size() + bad_lines.size();
    batch.clear();
    bad_lines.clear();
    bad_responses.clear();
  };

  std::size_t line_index = 0;
  std::uint64_t stream_index = 0;  // trace identity: position in stream
  while (std::getline(std::cin, line)) {
    if (line.empty()) {
      continue;
    }
    // Root trace ids derive from the stream index ("q<index>"), never
    // from scheduling — the property that makes logical traces of the
    // same request file byte-identical at any --threads value.
    std::string trace_id;
    if (trace_sink != nullptr && stream_index % opts.trace_sample == 0) {
      trace_id = "q" + std::to_string(stream_index);
    }
    ++stream_index;
    try {
      serve::ServeMessage message = serve::ParseMessageLine(line);
      if (message.is_session || message.is_stats || message.is_metrics) {
        // Session, stats and metrics messages serve in stream order:
        // flush the stateless batch first, then answer synchronously
        // (a stats response must reflect every request before it).
        flush();
        line_index = 0;
        message.session.trace_id = std::move(trace_id);
        std::cout << dispatcher.Handle(message) << "\n";
        std::cout.flush();
        ++served;
        ++session_messages;
        continue;
      }
      message.certify.trace_id = std::move(trace_id);
      batch.push_back(std::move(message.certify));
    } catch (const serve::ProtocolError&) {
      bad_lines.push_back(line_index);
      // Re-dispatch for the structured error line (best-effort id and
      // protocol_version echo); the line cannot parse, so this cannot
      // serve anything.
      bad_responses.push_back(dispatcher.HandleLine(line));
    }
    ++line_index;
    if (line_index >= batch_size) {
      flush();
      line_index = 0;
    }
  }
  if (line_index > 0) {
    flush();
  }

  if (opts.stats) {
    // Render the operator text through the protocol's own stats and
    // metrics responses — the same bytes a v2 {"type":"stats"} /
    // {"type":"metrics"} client gets — so this report and the
    // introspection API cannot drift.
    const std::string stats_line = serve::StatsResponseToJsonLine(
        serve::StatsRequest{}, service.Stats(), sessions.Stats());
    const std::string metrics_line = serve::MetricsResponseToJsonLine(
        serve::MetricsRequest{}, obs::Metrics().Snapshot());
    std::cerr << "nocdr_serve: " << served << " served (" << session_messages
              << " session messages)\n"
              << serve::StatsTextFromJson(stats_line, "nocdr_serve: ")
              << serve::MetricsTextFromJson(metrics_line, "nocdr_serve: ");
  }
  if (trace_sink != nullptr) {
    // A computation's trace finishes before its response is written,
    // and EOF means every batch was flushed and every response written,
    // so all traces are in the sink.
    if (!trace_sink->WriteFile(opts.trace_out)) {
      std::cerr << "nocdr_serve: cannot write --trace-out " << opts.trace_out
                << "\n";
      return 2;
    }
  }
  return 0;
}
