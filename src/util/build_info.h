// Build provenance: which exact binary produced this artifact?
//
// Every durable artifact the repo emits — BENCH_*.json baselines, v2
// stats/metrics responses, `nocdr_serve --version` — carries the same
// four fields, stamped once here so the answers cannot drift between
// surfaces. The values are burned in at compile time: the git sha is
// read at *build* time, on every build, with "-dirty" when a tracked
// file differs from HEAD (cmake/BuildStamp.cmake writes it into a
// header only build_info.cpp includes, and only when it changed); the
// compiler identity, flags and build type are definitions CMake scopes
// to build_info.cpp at configure time (see CMakeLists.txt).
#pragma once

#include <string>

#include "util/json.h"

namespace nocdr {

struct BuildInfo {
  /// Short sha, with "-dirty" when a tracked file differed from HEAD, or
  /// "unknown" outside a checkout.
  std::string git_sha;
  std::string compiler;   // e.g. "GNU 12.2.0"
  std::string compiler_flags;
  std::string build_type;  // e.g. "Release"; empty when unset
};

/// The process's burned-in build info (immutable, never destroyed).
const BuildInfo& GetBuildInfo();

/// {"git_sha":...,"compiler":...,"compiler_flags":...,"build_type":...}
/// — the fragment spliced into bench headers and serve responses.
JsonObject BuildProvenanceJson();

/// One-line human rendering for --version flags:
///   "<tool> <sha> (<compiler>, <build_type>)".
std::string BuildInfoLine(const std::string& tool_name);

}  // namespace nocdr
