// Synthetic SoC benchmark suite.
//
// The paper evaluates on proprietary SoC communication specifications
// (described in [21]): D26_media (26-core multimedia + wireless),
// D36_4/6/8 (36 cores, each sending to 4/6/8 others), D35_bot and
// D38_tvo. Those specs are not public, so this module generates
// deterministic synthetic equivalents with the documented core counts,
// fan-outs and traffic character:
//   * D26_media — heterogeneous pipelines (video, audio, wireless) around
//     DRAM/ARM hubs; sparse, hub-and-spoke + chain structure;
//   * D36_k    — uniform 36-core multimedia fabric where every processor
//     sends to k strided peers; fan-out is the documented parameter;
//   * D35_bot  — clustered sensor/fusion/actuation robot pipeline;
//   * D38_tvo  — dual high-bandwidth TV-out video pipelines with shared
//     memory controllers.
// Deadlock structure depends on core count, fan-out and route shape — all
// matched — not on the exact proprietary bandwidth numbers.
#pragma once

#include <string>
#include <vector>

#include "noc/traffic.h"

namespace nocdr {

/// Identifiers for the paper's benchmark set.
enum class SocBenchmarkId {
  kD26Media,
  kD36_4,
  kD36_6,
  kD36_8,
  kD35Bot,
  kD38Tvo,
};

/// A named communication specification.
struct SocBenchmark {
  std::string name;
  CommunicationGraph traffic;
};

/// Builds the requested benchmark. Deterministic: repeated calls return
/// identical graphs.
SocBenchmark MakeBenchmark(SocBenchmarkId id);

/// All six benchmarks in the paper's Figure 10 order.
std::vector<SocBenchmarkId> AllBenchmarkIds();

/// Display name ("D26_media", ...).
std::string BenchmarkName(SocBenchmarkId id);

/// The generic D36-style fabric for arbitrary fan-out (used by tests and
/// scaling studies beyond the paper's 4/6/8).
SocBenchmark MakeD36WithFanout(std::size_t fanout);

}  // namespace nocdr
