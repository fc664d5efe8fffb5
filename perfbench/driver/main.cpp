// perfbench_driver: the repo benchmark's client. One thread, closed
// loop: every op is one blocking call into the library's public entry
// points, timed from the outside, and no two ops overlap.
//
// Timed run (default): repeats one round until --seconds of wall clock
// have passed, and at least kMinRounds rounds ran. A round builds the
// workload afresh from the seed, sets it up (one setup_s sample), runs
// one untimed warm-up op per class, then alternates the workload's fixed
// number of heavy and light ops. Every round runs the same ops on the
// same inputs and must print the same digest, so an op's fastest round
// is its latency with the least interference from the host. Before every
// op it times a fixed reference kernel that touches no library code;
// perfbench/run.py scales the run's times by it.
//
// Traced run (--trace-out PATH): every workload in turn, whatever
// --workload names, a fixed number of ops per class (--seconds is not
// used), each op run once untraced and once under a wall-clock trace
// whose root holds the op's span and the workload's breakdown spans.
// The trace file goes to PATH.
//
// Output: one JSON object on the last line of stdout with the raw
// per-op records; perfbench/run.py turns it into metrics. Exit code 0
// when the run completed (output checks are reported, not fatal), 1 on
// an unexpected exception, 2 on bad flags.
#include <algorithm>
#include <chrono>
#include <cinttypes>
#include <cstdio>
#include <fstream>
#include <iostream>
#include <sstream>
#include <stdexcept>
#include <string>
#include <vector>

#include "obs/trace.h"
#include "util/json.h"
#include "workload.h"

namespace perfbench {
namespace {

using Clock = std::chrono::steady_clock;

constexpr std::size_t kMinRounds = 3;
constexpr std::size_t kTracedOpsPerClass = 6;
constexpr OpClass kClasses[] = {OpClass::kHeavy, OpClass::kLight};

struct WorkloadEntry {
  const char* name;
  std::unique_ptr<Workload> (*make)(std::uint64_t seed, bool traced);
  std::size_t ops_per_class;  // timed ops of each class in one round
};

// Rounds of a few seconds each, so a run of --seconds holds many.
constexpr WorkloadEntry kWorkloads[] = {
    {"certify_cold", MakeCertifyCold, 16},
    {"fault_session", MakeFaultSession, 24},
    {"sim_traffic", MakeSimTraffic, 20},
};

std::uint64_t NanosSince(Clock::time_point start) {
  return static_cast<std::uint64_t>(
      std::chrono::duration_cast<std::chrono::nanoseconds>(Clock::now() -
                                                           start)
          .count());
}

/// The host reference: std::sort of the same 32768 pseudo-random words,
/// about 2 ms of branchy compare-and-move work in 128 KiB, the kind of
/// work the library's ops do. It shares no code with the library, so its
/// time moves only with the machine.
std::uint64_t TimeReferenceLoop() {
  static const std::vector<std::uint32_t> input = [] {
    std::vector<std::uint32_t> words(1u << 15);
    std::uint32_t x = 2463534242u;
    for (std::uint32_t& word : words) {
      x ^= x << 13;
      x ^= x >> 17;
      x ^= x << 5;
      word = x;
    }
    return words;
  }();
  static std::vector<std::uint32_t> work(input.size());
  static volatile std::uint32_t sink = 0;
  const auto start = Clock::now();
  std::copy(input.begin(), input.end(), work.begin());
  std::sort(work.begin(), work.end());
  sink = sink + work[work.size() / 2];
  return NanosSince(start);
}

/// The process's peak resident memory, VmHWM. Not getrusage's
/// ru_maxrss: Linux carries that across exec, so it starts at the
/// launching process's size (a Python interpreter, about 16 MB).
std::uint64_t PeakRssKb() {
  std::ifstream status("/proc/self/status");
  std::string line;
  while (std::getline(status, line)) {
    if (line.rfind("VmHWM:", 0) == 0) {
      return std::stoull(line.substr(6));
    }
  }
  throw std::runtime_error("no VmHWM in /proc/self/status");
}

std::string Hex(std::uint64_t value) {
  char buf[20];
  std::snprintf(buf, sizeof(buf), "%016" PRIx64, value);
  return buf;
}

/// One op as the driver saw it; rendered as [class, ns, error(, trace)].
struct OpRecord {
  OpClass cls;
  std::uint64_t ns;
  std::string error;
  std::string trace_id;
};

std::string RenderOps(const std::vector<OpRecord>& ops) {
  std::ostringstream out;
  out << "[";
  for (std::size_t i = 0; i < ops.size(); ++i) {
    const OpRecord& op = ops[i];
    out << (i == 0 ? "" : ",") << "[\"" << ClassName(op.cls) << "\","
        << op.ns << ",\"" << nocdr::JsonEscape(op.error) << "\"";
    if (!op.trace_id.empty()) {
      out << ",\"" << op.trace_id << "\"";
    }
    out << "]";
  }
  out << "]";
  return out.str();
}

std::string RenderNumbers(const std::vector<std::uint64_t>& items) {
  std::string out = "[";
  for (std::size_t i = 0; i < items.size(); ++i) {
    out += i == 0 ? "" : ",";
    out += std::to_string(items[i]);
  }
  return out + "]";
}

std::string RenderStrings(const std::vector<std::string>& items) {
  std::string out = "[";
  for (std::size_t i = 0; i < items.size(); ++i) {
    out += (i == 0 ? "\"" : ",\"") + nocdr::JsonEscape(items[i]) + "\"";
  }
  return out + "]";
}

/// Output checks of one op. An exception thrown while checking is a
/// failed check, not a crash.
void CheckOp(Workload& workload, OpClass cls,
             std::vector<std::string>& failures) {
  std::string failure;
  try {
    failure = workload.Check(cls);
  } catch (const std::exception& e) {
    failure = std::string("check threw: ") + e.what();
  }
  if (!failure.empty()) {
    failures.push_back(std::move(failure));
  }
}

/// One op of \p cls: inputs drawn, the call timed, its output checked.
OpRecord RunOp(Workload& workload, OpClass cls,
               std::vector<std::string>& failures) {
  workload.Prepare(cls);
  const auto start = Clock::now();
  std::string error = workload.Run(cls);
  OpRecord record{cls, NanosSince(start), std::move(error), {}};
  CheckOp(workload, cls, failures);
  return record;
}

std::string Report(const Workload& workload) {
  nocdr::JsonObject report;
  workload.Report(report);
  return report.Dump();
}

int TimedRun(const WorkloadEntry& entry, std::uint64_t seed,
             std::uint64_t seconds) {
  std::vector<std::string> failures;
  std::vector<std::uint64_t> setup_ns;
  std::vector<std::uint64_t> reference_ns;
  std::ostringstream rounds;
  std::uint64_t digest = 0;
  std::uint64_t peak_rss_kb = 0;
  std::string report;
  const auto run_start = Clock::now();
  const std::uint64_t budget_ns = seconds * 1000000000ull;
  for (std::size_t round = 0;
       round < kMinRounds || NanosSince(run_start) < budget_ns; ++round) {
    const std::unique_ptr<Workload> workload = entry.make(seed, false);
    const auto start = Clock::now();
    workload->Setup();
    std::uint64_t ns = NanosSince(start);
    for (const OpClass cls : kClasses) {
      const std::uint64_t warmup_ns = RunOp(*workload, cls, failures).ns;
      if (workload->WarmupInSetup()) {
        ns += warmup_ns;
      }
    }
    setup_ns.push_back(ns);

    std::vector<OpRecord> ops;
    for (std::size_t i = 0; i < entry.ops_per_class; ++i) {
      for (const OpClass cls : kClasses) {
        reference_ns.push_back(TimeReferenceLoop());
        ops.push_back(RunOp(*workload, cls, failures));
      }
    }
    rounds << (round == 0 ? "" : ",") << RenderOps(ops);
    if (round == 0) {
      // A round is a fixed amount of work, so the peak after the first
      // one does not depend on how many rounds the machine fits in.
      peak_rss_kb = PeakRssKb();
      digest = workload->Digest();
    } else if (workload->Digest() != digest) {
      failures.push_back("round " + std::to_string(round + 1) +
                         " printed another digest than round 1");
    }
    report = Report(*workload);
  }

  std::cout << "{\"mode\":\"timed\",\"workload\":\"" << entry.name
            << "\",\"seed\":" << seed
            << ",\"setup_ns\":" << RenderNumbers(setup_ns)
            << ",\"rounds\":[" << rounds.str() << "]"
            << ",\"reference_ns\":" << RenderNumbers(reference_ns)
            << ",\"peak_rss_kb\":" << peak_rss_kb << ",\"digest\":\""
            << Hex(digest) << "\",\"report\":" << report
            << ",\"check_failures\":" << RenderStrings(failures) << "}\n";
  return 0;
}

int TracedRun(std::uint64_t seed, const std::string& trace_out) {
  nocdr::obs::TraceSink sink(nocdr::obs::TraceClockMode::kWall);
  std::vector<std::uint64_t> reference_ns;
  std::ostringstream workloads;
  for (const WorkloadEntry& entry : kWorkloads) {
    std::vector<std::string> failures;
    std::unique_ptr<Workload> workload = entry.make(seed, true);
    workload->Setup();
    for (const OpClass cls : kClasses) {
      RunOp(*workload, cls, failures);  // warm-up
    }
    std::vector<OpRecord> untraced;
    std::vector<OpRecord> traced;
    for (std::size_t i = 0; i < kTracedOpsPerClass; ++i) {
      for (const OpClass cls : kClasses) {
        reference_ns.push_back(TimeReferenceLoop());
        untraced.push_back(RunOp(*workload, cls, failures));

        workload->Prepare(cls);
        char trace_id[96];
        std::snprintf(trace_id, sizeof(trace_id), "%s.%s.%02zu", entry.name,
                      ClassName(cls), i);
        OpRecord record{cls, 0, {}, trace_id};
        {
          nocdr::obs::ScopedTrace trace(
              &sink, trace_id, std::string(entry.name) + "." + ClassName(cls));
          const auto start = Clock::now();
          {
            nocdr::obs::ScopedSpan span(workload->OpSpanName());
            record.error = workload->Run(cls);
          }
          record.ns = NanosSince(start);
          std::string mismatch;
          try {
            mismatch = workload->Breakdown(cls);
          } catch (const std::exception& e) {
            mismatch = std::string("breakdown threw: ") + e.what();
          }
          if (!mismatch.empty()) {
            failures.push_back(std::move(mismatch));
          }
          trace.Attr("status", record.error.empty() ? "ok" : record.error);
        }
        CheckOp(*workload, cls, failures);
        traced.push_back(std::move(record));
      }
    }
    workloads << (workloads.tellp() == 0 ? "" : ",") << "\"" << entry.name
              << "\":{\"untraced\":" << RenderOps(untraced)
              << ",\"traced\":" << RenderOps(traced) << ",\"digest\":\""
              << Hex(workload->Digest()) << "\",\"report\":"
              << Report(*workload)
              << ",\"check_failures\":" << RenderStrings(failures) << "}";
  }
  if (!sink.WriteFile(trace_out)) {
    std::cerr << "perfbench_driver: cannot write " << trace_out << "\n";
    return 1;
  }
  std::cout << "{\"mode\":\"traced\",\"seed\":" << seed
            << ",\"trace_file\":\"" << nocdr::JsonEscape(trace_out)
            << "\",\"workloads\":{" << workloads.str()
            << "},\"reference_ns\":" << RenderNumbers(reference_ns)
            << ",\"peak_rss_kb\":" << PeakRssKb() << "}\n";
  return 0;
}

[[noreturn]] void Usage(const std::string& error) {
  std::cerr << "perfbench_driver: " << error
            << "\nusage: perfbench_driver --workload NAME --seed N "
               "--seconds N [--trace-out PATH]\n";
  std::exit(2);
}

std::uint64_t ParseNumber(const std::string& flag, const std::string& value) {
  if (value.empty() || value.size() > 18 ||
      value.find_first_not_of("0123456789") != std::string::npos) {
    Usage(flag + " needs a non-negative integer, got \"" + value + "\"");
  }
  return std::stoull(value);
}

}  // namespace
}  // namespace perfbench

int main(int argc, char** argv) {
  using namespace perfbench;
  std::string workload_name;
  std::string trace_out;
  std::uint64_t seed = 1;
  std::uint64_t seconds = 10;
  for (int i = 1; i < argc; i += 2) {
    const std::string flag = argv[i];
    if (i + 1 >= argc) {
      Usage(flag + " needs a value");
    }
    const std::string value = argv[i + 1];
    if (flag == "--workload") {
      workload_name = value;
    } else if (flag == "--seed") {
      seed = ParseNumber(flag, value);
    } else if (flag == "--seconds") {
      seconds = ParseNumber(flag, value);
    } else if (flag == "--trace-out") {
      trace_out = value;
    } else {
      Usage("unknown flag \"" + flag + "\"");
    }
  }
  const WorkloadEntry* entry = nullptr;
  for (const WorkloadEntry& candidate : kWorkloads) {
    if (workload_name == candidate.name) {
      entry = &candidate;
    }
  }
  if (entry == nullptr) {
    Usage("unknown --workload \"" + workload_name + "\"");
  }
  try {
    return trace_out.empty() ? TimedRun(*entry, seed, seconds)
                             : TracedRun(seed, trace_out);
  } catch (const std::exception& e) {
    std::cerr << "perfbench_driver: " << e.what() << "\n";
    return 1;
  }
}
