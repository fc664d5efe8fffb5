// The benchmark driver's view of one workload.
//
// A workload is a closed loop of blocking calls into the library's
// public entry points, in two op classes (heavy and light) that the
// driver alternates one by one. The driver times each Run() from the
// outside; everything else a workload does — drawing inputs, checking
// outputs, the traced breakdown — happens outside the timed region.
#pragma once

#include <cstdint>
#include <memory>
#include <string>

#include "util/json.h"

namespace perfbench {

enum class OpClass { kHeavy = 0, kLight = 1 };

inline const char* ClassName(OpClass cls) {
  return cls == OpClass::kHeavy ? "heavy" : "light";
}

/// Per-op seed: a splitmix64 finalizer over (run seed, stream, index),
/// so every op's inputs are a pure function of the --seed flag.
inline std::uint64_t MixSeed(std::uint64_t seed, std::uint64_t stream,
                             std::uint64_t index) {
  std::uint64_t z = seed ^ (stream * 0x9e3779b97f4a7c15ull) ^
                    (index * 0xbf58476d1ce4e5b9ull);
  z += 0x9e3779b97f4a7c15ull;
  z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ull;
  z = (z ^ (z >> 27)) * 0x94d049bb133111ebull;
  return z ^ (z >> 31);
}

/// Ops of each class whose outputs the digest covers (after the
/// warm-up op). A timed round always runs more than this many, so runs
/// with one --seed print one digest however fast the machine is.
inline constexpr std::size_t kDigestOpsPerClass = 8;

class Workload {
 public:
  Workload() = default;
  virtual ~Workload() = default;

  Workload(const Workload&) = delete;
  Workload& operator=(const Workload&) = delete;

  /// Program work before the first timed op; the driver times it as one
  /// setup_s sample. Drawing the benchmark's own inputs is excluded:
  /// workloads do that in their constructor or in Prepare().
  virtual void Setup() = 0;

  /// True when the class warm-up ops belong to setup_s (certify_cold:
  /// service construction alone is no measurable work).
  [[nodiscard]] virtual bool WarmupInSetup() const { return false; }

  /// Untimed: draws the inputs of the next op of \p cls.
  virtual void Prepare(OpClass cls) = 0;

  /// The timed op: one blocking library call on the prepared inputs.
  /// Returns the ErrorCode name of an error answer, or "" on success.
  virtual std::string Run(OpClass cls) = 0;

  /// Untimed, after every Run(): adds the answer to the digest and, if
  /// the op succeeded, checks its output. Returns a description of the
  /// first violated check, or "".
  virtual std::string Check(OpClass cls) = 0;

  /// Traced breakdown of the last op: repeats the program's own public
  /// calls, in the program's order, each as one sibling span under the
  /// current trace. Returns a mismatch description, or "".
  virtual std::string Breakdown(OpClass cls) = 0;

  /// Name of the span the driver wraps around a traced Run().
  [[nodiscard]] virtual const char* OpSpanName() const = 0;

  /// FNV-1a digest over the deterministic outputs of the warm-up ops
  /// and the first kDigestOpsPerClass ops of each class.
  [[nodiscard]] virtual std::uint64_t Digest() const = 0;

  /// Workload-specific counters for the driver's report (e.g. the
  /// service's cache statistics).
  virtual void Report(nocdr::JsonObject& out) const = 0;
};

/// Factories; \p traced prepares a workload for Breakdown() calls.
std::unique_ptr<Workload> MakeCertifyCold(std::uint64_t seed, bool traced);
std::unique_ptr<Workload> MakeFaultSession(std::uint64_t seed, bool traced);
std::unique_ptr<Workload> MakeSimTraffic(std::uint64_t seed, bool traced);

}  // namespace perfbench
