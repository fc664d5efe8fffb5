// nocdr_docs_check: keeps the protocol and observability docs honest
// against the code.
//
// docs/PROTOCOL.md promises that every fenced block tagged `jsonl` is
// machine-checked, and docs/OBSERVABILITY.md promises the same for
// blocks tagged `trace-jsonl`. This tool is that check: it extracts
// each line of every tagged block and validates it against the *real*
// implementation, so the documentation cannot drift from the code:
//
//   * a `jsonl` line without a "status" field is a request: it must
//     parse via serve::ParseMessageLine (the exact entry point
//     nocdr_serve uses);
//   * a `jsonl` line with a "status" field is a response: it must be
//     valid JSON, its status one of "ok" / "overloaded" / "error", any
//     non-ok line must carry an {code, message} error object whose
//     code serve::ParseErrorCode accepts, and a v2 "type" must be a
//     known message type;
//   * a `trace-jsonl` line is a trace-file header (validated by
//     obs::ParseTraceHeaderLine) or a span (obs::ParseSpanLine — the
//     same schema checker tools/nocdr_trace uses).
//
// Blocks tagged anything else (json, text, sh) are prose and skipped.
// A minimum checked-line count guards against the failure mode where a
// fence tag is renamed and the gate silently checks nothing.
//
//   ./nocdr_docs_check ../docs/PROTOCOL.md ../docs/OBSERVABILITY.md
//
// Exit code: 0 all examples valid, 1 any drift (each offender printed
// with its file:line), 2 usage/IO error. Registered as the docs_drift
// CTest test, so every CI job that runs ctest runs it.
#include <fstream>
#include <iostream>
#include <sstream>
#include <string>
#include <vector>

#include "obs/trace.h"
#include "serve/protocol.h"
#include "util/json.h"

using namespace nocdr;

namespace {

struct ExampleLine {
  std::size_t line_number = 0;
  std::string text;
  bool is_trace = false;  // from a ```trace-jsonl fence
};

/// Pulls every line of every ```jsonl and ```trace-jsonl fenced block
/// out of \p markdown.
std::vector<ExampleLine> ExtractJsonlExamples(std::istream& markdown) {
  std::vector<ExampleLine> examples;
  std::string line;
  std::size_t line_number = 0;
  bool in_block = false;
  bool block_is_trace = false;
  while (std::getline(markdown, line)) {
    ++line_number;
    if (line.rfind("```", 0) == 0) {
      const std::string tag = line.substr(3);
      in_block = !in_block && (tag == "jsonl" || tag == "trace-jsonl");
      block_is_trace = in_block && tag == "trace-jsonl";
      continue;
    }
    if (in_block && !line.empty()) {
      examples.push_back({line_number, line, block_is_trace});
    }
  }
  return examples;
}

/// A documented response line: shape-checked against the protocol's
/// stable names (the request side goes through the full parser).
void CheckResponseLine(const JsonValue& json) {
  const std::string& status = json.At("status").AsString();
  if (status != serve::StatusName(serve::ServeStatus::kOk) &&
      status != serve::StatusName(serve::ServeStatus::kOverloaded) &&
      status != serve::StatusName(serve::ServeStatus::kError)) {
    throw serve::ProtocolError(serve::ErrorCode::kInvalidRequest,
                               "unknown response status \"" + status + "\"");
  }
  if (status != serve::StatusName(serve::ServeStatus::kOk)) {
    const JsonValue& error = json.At("error");
    serve::ParseErrorCode(error.At("code").AsString());
    if (error.At("message").kind() != JsonValue::Kind::kString) {
      throw serve::ProtocolError(serve::ErrorCode::kInvalidRequest,
                                 "error.message must be a string");
    }
  }
  if (const JsonValue* version = json.Find("protocol_version")) {
    const std::uint64_t v = version->AsUint();
    if (v != static_cast<std::uint64_t>(serve::kProtocolV1) &&
        v != static_cast<std::uint64_t>(serve::kProtocolV2)) {
      throw serve::ProtocolError(
          serve::ErrorCode::kUnsupportedVersion,
          "documented response claims protocol_version " + std::to_string(v));
    }
  }
  if (const JsonValue* type = json.Find("type")) {
    const std::string& name = type->AsString();
    bool known = name == "certify" || name == "stats" || name == "metrics";
    for (const serve::SessionOp op :
         {serve::SessionOp::kOpen, serve::SessionOp::kBurst,
          serve::SessionOp::kSnapshot, serve::SessionOp::kClose}) {
      known = known || name == serve::SessionOpName(op);
    }
    if (!known) {
      throw serve::ProtocolError(serve::ErrorCode::kUnknownType,
                                 "unknown response type \"" + name + "\"");
    }
  }
}

/// A documented trace-jsonl line: a header or a span, through the same
/// validators tools/nocdr_trace uses.
void CheckTraceLine(const std::string& text) {
  if (obs::IsTraceHeaderLine(text)) {
    obs::ParseTraceHeaderLine(text);
  } else {
    obs::ParseSpanLine(text);
  }
}

/// Checks one markdown file; returns its number of failed lines and
/// adds its checked-line counts into the totals.
std::size_t CheckFile(const std::string& path, std::size_t& requests,
                      std::size_t& responses, std::size_t& trace_lines,
                      std::size_t& total) {
  std::ifstream file(path);
  if (!file) {
    std::cerr << "nocdr_docs_check: cannot open " << path << "\n";
    std::exit(2);
  }
  const std::vector<ExampleLine> examples = ExtractJsonlExamples(file);
  std::size_t failures = 0;
  for (const ExampleLine& example : examples) {
    try {
      if (example.is_trace) {
        CheckTraceLine(example.text);
        ++trace_lines;
      } else {
        const JsonValue json = JsonValue::Parse(example.text);
        if (json.Find("status") != nullptr) {
          CheckResponseLine(json);
          ++responses;
        } else {
          serve::ParseMessageLine(example.text);
          ++requests;
        }
      }
    } catch (const std::exception& e) {
      ++failures;
      std::cerr << path << ":" << example.line_number
                << ": documented example does not survive the codec: "
                << e.what() << "\n";
    }
  }
  total += examples.size();
  return failures;
}

}  // namespace

int main(int argc, char** argv) {
  // A fence tag rename must not silently turn the gate into a no-op:
  // the real documents carry well over this many checked lines.
  constexpr std::size_t kMinimumExamples = 10;

  std::vector<std::string> paths;
  for (int i = 1; i < argc; ++i) {
    paths.emplace_back(argv[i]);
  }
  if (paths.empty()) {
    paths.emplace_back("docs/PROTOCOL.md");
  }

  std::size_t requests = 0;
  std::size_t responses = 0;
  std::size_t trace_lines = 0;
  std::size_t total = 0;
  std::size_t failures = 0;
  for (const std::string& path : paths) {
    failures += CheckFile(path, requests, responses, trace_lines, total);
  }

  if (failures != 0) {
    std::cerr << "nocdr_docs_check: " << failures << " of " << total
              << " documented example line(s) drifted from the "
                 "implementation\n";
    return 1;
  }
  if (total < kMinimumExamples) {
    std::cerr << "nocdr_docs_check: only " << total
              << " example line(s) found across " << paths.size()
              << " file(s) (expected at least " << kMinimumExamples
              << ") — were the fences retagged?\n";
    return 1;
  }
  std::cout << "nocdr_docs_check: " << requests << " request, " << responses
            << " response and " << trace_lines
            << " trace example line(s) validated across " << paths.size()
            << " file(s)\n";
  return 0;
}
