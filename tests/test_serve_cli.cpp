// End-to-end tests of the nocdr_serve and nocdr_trace binaries: exit
// codes (documented in docs/OPERATIONS.md), --version provenance, and
// the byte-determinism contract of --trace-out (same seeded request
// stream -> identical trace files at any thread count, validated by
// nocdr_trace --check and profiled by --top).
//
// The binaries are located through the NOCDR_BIN_DIR compile
// definition (CMake sets it to the build directory); if they have not
// been built the tests skip rather than fail, so library-only builds
// stay green.
#include <sys/wait.h>

#include <algorithm>
#include <cstdlib>
#include <filesystem>
#include <fstream>
#include <map>
#include <sstream>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "obs/trace.h"

#ifndef NOCDR_BIN_DIR
#define NOCDR_BIN_DIR "."
#endif

namespace nocdr {
namespace {

namespace fs = std::filesystem;

std::string ServeBinary() {
  return std::string(NOCDR_BIN_DIR) + "/nocdr_serve";
}
std::string TraceBinary() {
  return std::string(NOCDR_BIN_DIR) + "/nocdr_trace";
}

/// Runs \p command through the shell and returns its exit code
/// (-1 if the child did not exit normally).
int RunShell(const std::string& command) {
  const int status = std::system(command.c_str());
  if (status == -1) {
    return -1;
  }
#ifdef WIFEXITED
  if (!WIFEXITED(status)) {
    return -1;
  }
  return WEXITSTATUS(status);
#else
  return status;
#endif
}

std::string ReadFile(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  std::ostringstream out;
  out << in.rdbuf();
  return out.str();
}

void WriteFile(const std::string& path, const std::string& text) {
  std::ofstream out(path, std::ios::binary | std::ios::trunc);
  out << text;
}

/// A small mixed request stream: repeats (cache hits + coalescing), a
/// v2 session open/burst/close, and a metrics probe.
std::string RequestStream() {
  const char* lines[] = {
      R"({"id":"r0","source":"ring","seed":1})",
      R"({"id":"r1","source":"mesh","seed":2})",
      R"({"id":"r2","source":"ring","seed":1})",
      R"({"id":"r3","source":"fat_tree","seed":3})",
      R"({"protocol_version":2,"type":"session_open","id":"c0",)"
      R"("source":"mesh","seed":9})",
      R"({"protocol_version":2,"type":"session_close","id":"c1",)"
      R"("session":"s1"})",
      R"({"id":"r4","source":"ring","seed":1})",
      R"({"protocol_version":2,"type":"metrics","id":"m0"})",
  };
  std::string stream;
  for (const char* line : lines) {
    stream.append(line);
    stream.push_back('\n');
  }
  return stream;
}

/// The seeded request campaign: 75 source+seed requests cycling the
/// five design sources at seeds 0-14, then a v2 session open and close
/// and a metrics probe.
std::string CampaignStream() {
  const char* const sources[] = {"ring", "mesh", "torus", "fat_tree",
                                 "synthesized"};
  std::string stream;
  for (int i = 0; i < 75; ++i) {
    stream += "{\"id\":\"t" + std::to_string(i) + "\",\"source\":\"" +
              sources[i % 5] + "\",\"seed\":" + std::to_string(i / 5) +
              "}\n";
  }
  return stream +
         R"({"protocol_version":2,"type":"session_open","id":"c0",)"
         R"("source":"mesh","seed":9})"
         "\n"
         R"({"protocol_version":2,"type":"session_close","id":"c1",)"
         R"("session":"s1"})"
         "\n"
         R"({"protocol_version":2,"type":"metrics","id":"m0"})"
         "\n";
}

/// A v2 session open and one fault burst on it (the first two lines of
/// examples/serve_session_requests.jsonl).
std::string SessionStream() {
  return R"({"protocol_version":2,"type":"session_open","id":"open",)"
         R"("generator":{"family":"torus","width":4,"height":4,)"
         R"("pattern":"uniform","uniform_fanout":3,"seed":7}})"
         "\n"
         R"({"protocol_version":2,"type":"fault_burst","id":"b1",)"
         R"("session":"s1","expect_epoch":0,)"
         R"("events":[{"kind":"link","src":"t0_0","dst":"t1_0"}]})"
         "\n";
}

/// "<trace> <span> <parent> <name>" per span of the stream traces (ids
/// q<i>) in \p trace_file, one per line: the span tree's shape without
/// its ticks or attributes.
std::string StreamSpanTree(const std::string& trace_file) {
  std::istringstream in(ReadFile(trace_file));
  std::string tree;
  for (std::string line; std::getline(in, line);) {
    if (obs::IsTraceHeaderLine(line)) {
      continue;
    }
    const obs::ParsedSpan span = obs::ParseSpanLine(line);
    if (span.trace.rfind('q', 0) == 0) {
      tree += span.trace + " " + std::to_string(span.span) + " " +
              std::to_string(span.parent) + " " + span.name + "\n";
    }
  }
  return tree;
}

class ServeCliTest : public ::testing::Test {
 protected:
  void SetUp() override {
    if (!fs::exists(ServeBinary())) {
      GTEST_SKIP() << "nocdr_serve not built at " << ServeBinary();
    }
    dir_ = fs::path(::testing::TempDir()) / "nocdr_serve_cli";
    fs::create_directories(dir_);
  }

  void TearDown() override {
    std::error_code ec;
    fs::remove_all(dir_, ec);
  }

  std::string Path(const std::string& name) { return (dir_ / name).string(); }

  fs::path dir_;
};

TEST_F(ServeCliTest, BadFlagExitsTwo) {
  EXPECT_EQ(RunShell(ServeBinary() + " --no-such-flag < /dev/null 2> " +
                     Path("err.txt")),
            2);
}

TEST_F(ServeCliTest, BadTraceSampleExitsTwo) {
  EXPECT_EQ(RunShell(ServeBinary() + " --trace-sample 0 < /dev/null 2> " +
                     Path("err.txt")),
            2);
  EXPECT_EQ(RunShell(ServeBinary() + " --trace-clock lunar < /dev/null 2> " +
                     Path("err.txt")),
            2);
}

TEST_F(ServeCliTest, UnusableCacheDirExitsTwo) {
  // --cache-dir pointing at a regular file is a deployment error: the
  // server must fail fast (exit 2), not serve cold.
  const std::string file = Path("not_a_dir");
  WriteFile(file, "occupied\n");
  EXPECT_EQ(RunShell(ServeBinary() + " --cache-dir " + file +
                     " < /dev/null 2> " + Path("err.txt")),
            2);
}

TEST_F(ServeCliTest, CleanEofExitsZero) {
  const std::string requests = Path("requests.jsonl");
  WriteFile(requests, RequestStream());
  EXPECT_EQ(RunShell(ServeBinary() + " < " + requests + " > " +
                     Path("out.jsonl") + " 2> " + Path("err.txt")),
            0);
}

TEST_F(ServeCliTest, VersionPrintsProvenanceAndExitsZero) {
  const std::string out = Path("version.txt");
  ASSERT_EQ(RunShell(ServeBinary() + " --version > " + out), 0);
  const std::string text = ReadFile(out);
  EXPECT_EQ(text.rfind("nocdr_serve ", 0), 0u) << text;
  EXPECT_NE(text.find("("), std::string::npos) << text;
}

TEST_F(ServeCliTest, TraceBytesIdenticalAcrossThreadCountsAndRuns) {
  // Every run of a stream must write its first run's trace bytes: the
  // small mixed stream at 1 thread and twice at 3, the seeded campaign
  // at 1 and 4.
  const auto trace_bytes = [&](const std::string& name,
                               const std::string& stream,
                               const std::vector<std::string>& threads) {
    WriteFile(Path(name + ".jsonl"), stream);
    std::string first;
    for (std::size_t i = 0; i < threads.size(); ++i) {
      const std::string trace = Path(name + "_" + std::to_string(i) + ".jsonl");
      EXPECT_EQ(RunShell(ServeBinary() + " --threads " + threads[i] +
                         " --trace-out " + trace + " < " +
                         Path(name + ".jsonl") + " > " + Path("out.jsonl") +
                         " 2> " + Path("err.txt")),
                0);
      const std::string bytes = ReadFile(trace);
      if (i == 0) {
        first = bytes;
      } else {
        EXPECT_EQ(bytes, first) << name << " at " << threads[i] << " threads";
      }
    }
    return first;
  };
  const std::string bytes =
      trace_bytes("mixed", RequestStream(), {"1", "3", "3"});
  ASSERT_FALSE(bytes.empty());
  ASSERT_FALSE(trace_bytes("campaign", CampaignStream(), {"1", "4"}).empty());

  if (!fs::exists(TraceBinary())) {
    GTEST_SKIP() << "nocdr_trace not built at " << TraceBinary();
  }
  // The analyzer validates each whole file (exit 0) and rejects a
  // corrupted span line (exit 1). The campaign's traces are its 75
  // requests, their 75 computations and the two session messages.
  EXPECT_EQ(RunShell(TraceBinary() + " --in " + Path("mixed_0.jsonl") +
                     " --check > " + Path("check.txt")),
            0);
  EXPECT_EQ(RunShell(TraceBinary() + " --in " + Path("campaign_0.jsonl") +
                     " --check > " + Path("check.txt")),
            0);
  const std::string check = ReadFile(Path("check.txt"));
  EXPECT_NE(check.find("152 traces, 494 spans"), std::string::npos) << check;
  ASSERT_EQ(RunShell(TraceBinary() + " --in " + Path("campaign_0.jsonl") +
                     " --top 5 > " + Path("top.txt")),
            0);
  // The report ends with the critical-path table: a header, five rows.
  const std::string top = ReadFile(Path("top.txt"));
  const std::size_t paths = top.find("critical path of the slowest traces");
  ASSERT_NE(paths, std::string::npos) << top;
  EXPECT_EQ(std::count(top.begin() + static_cast<std::ptrdiff_t>(paths),
                       top.end(), '\n'),
            6)
      << top;
  WriteFile(Path("corrupt.jsonl"),
            bytes + "{\"trace\":\"zz\",\"span\":0,\"parent\":-1,"
                    "\"name\":\"r\",\"start\":9,\"end\":3}\n");
  EXPECT_EQ(RunShell(TraceBinary() + " --in " + Path("corrupt.jsonl") +
                     " --check 2> " + Path("err.txt")),
            1);
  EXPECT_EQ(RunShell(TraceBinary() + " --in " + Path("missing.jsonl") +
                     " --check 2> " + Path("err.txt")),
            2);
}

TEST_F(ServeCliTest, SessionTracePinsItsSpanTree) {
  // The names and parents of a session's spans, from a logical-clock
  // run: the open's three phases, and the burst's fault steps and
  // removal stage under apply_faults, then the publish.
  WriteFile(Path("session.jsonl"), SessionStream());
  ASSERT_EQ(RunShell(ServeBinary() + " --trace-out " + Path("t.jsonl") +
                     " < " + Path("session.jsonl") + " > " +
                     Path("out.jsonl") + " 2> " + Path("err.txt")),
            0);
  EXPECT_EQ(StreamSpanTree(Path("t.jsonl")),
            "q0 0 -1 session\n"
            "q0 1 0 open.materialize\n"
            "q0 2 0 open.certify\n"
            "q0 3 0 open.publish\n"
            "q1 0 -1 session\n"
            "q1 1 0 burst.apply_faults\n"
            "q1 2 1 fault.affected\n"
            "q1 3 1 fault.patch_table\n"
            "q1 4 1 fault.reroute\n"
            "q1 5 1 cycle_search\n"
            "q1 6 0 burst.publish\n");
}

TEST_F(ServeCliTest, SessionTracePinsPublishWork) {
  // What each publish rendered, from the same logical-clock run. The
  // open renders the whole canonical text of the torus 4x4: 64 link
  // lines and 48 flow and route lines. The burst re-routes 3 flows and
  // adds no VC, so it re-renders their 3 route lines and copies the
  // rest; one more hop makes the text one byte longer.
  WriteFile(Path("session.jsonl"), SessionStream());
  ASSERT_EQ(RunShell(ServeBinary() + " --trace-out " + Path("t.jsonl") +
                     " < " + Path("session.jsonl") + " > " +
                     Path("out.jsonl") + " 2> " + Path("err.txt")),
            0);
  std::map<std::string, std::map<std::string, std::uint64_t>> publish;
  std::istringstream in(ReadFile(Path("t.jsonl")));
  for (std::string line; std::getline(in, line);) {
    if (!obs::IsTraceHeaderLine(line)) {
      const obs::ParsedSpan span = obs::ParseSpanLine(line);
      if (span.name.ends_with(".publish")) {
        publish[span.name] = span.uint_attrs;
      }
    }
  }
  using Attrs = std::map<std::string, std::uint64_t>;
  EXPECT_EQ(publish["open.publish"],
            (Attrs{{"flow_lines", 48},
                   {"link_lines", 64},
                   {"route_lines", 48},
                   {"text_bytes", 3214}}));
  EXPECT_EQ(publish["burst.publish"],
            (Attrs{{"flow_lines", 0},
                   {"link_lines", 0},
                   {"route_lines", 3},
                   {"text_bytes", 3215}}));
}

TEST_F(ServeCliTest, TraceSampleTracesEveryNthRequest) {
  const std::string requests = Path("requests.jsonl");
  WriteFile(requests, RequestStream());
  ASSERT_EQ(RunShell(ServeBinary() + " --trace-sample 4 --trace-out " +
                     Path("sampled.jsonl") + " < " + requests + " > " +
                     Path("out.jsonl") + " 2> " + Path("err.txt")),
            0);
  const std::string bytes = ReadFile(Path("sampled.jsonl"));
  // Stream indices 0 and 4 are sampled; computation traces (k...) are
  // always recorded.
  EXPECT_NE(bytes.find("\"trace\":\"q0\""), std::string::npos);
  EXPECT_EQ(bytes.find("\"trace\":\"q1\""), std::string::npos);
  EXPECT_NE(bytes.find("\"trace\":\"q4\""), std::string::npos);
  EXPECT_NE(bytes.find("\"trace\":\"k"), std::string::npos);
}

TEST_F(ServeCliTest, UnwritableTraceOutExitsTwo) {
  const std::string requests = Path("requests.jsonl");
  WriteFile(requests, RequestStream());
  EXPECT_EQ(RunShell(ServeBinary() + " --trace-out " +
                     Path("no_such_dir") + "/t.jsonl < " + requests + " > " +
                     Path("out.jsonl") + " 2> " + Path("err.txt")),
            2);
}

}  // namespace
}  // namespace nocdr
