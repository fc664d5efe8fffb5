// Replayable repro dumps for validation-campaign mismatches.
//
// A repro is one self-contained JSON object: the shrunk design in the
// noc/io text format (embedded as a string), the treatment arm, the full
// workload configuration and the exact seed under which the mismatch was
// observed. ReplayRepro re-runs the identical trial pipeline, so a dump
// attached to a bug report reproduces the disagreement on any machine
// with one command (bench_campaign --campaign validation --replay
// <file>).
#pragma once

#include <string>

#include "noc/design.h"
#include "valid/campaign.h"

namespace nocdr::valid {

struct Repro {
  NocDesign design;
  TrialArm arm = TrialArm::kUntreated;
  WorkloadConfig workload;
  std::uint64_t seed = 0;
  /// Mismatch text observed by the dumping campaign.
  std::string mismatch;
  std::size_t trial_index = 0;
  std::size_t shrink_steps = 0;
  /// False when the design only mismatched under a channel numbering
  /// the text format cannot express (ShrinkResult::io_stable); the
  /// replay may then legitimately come back clean.
  bool io_stable = true;
};

/// Serializes \p repro as one JSON object (design embedded via
/// WriteDesign).
std::string ReproToJson(const Repro& repro);

/// Parses a dump written by ReproToJson; throws InvalidModelError /
/// DesignParseError on malformed input.
Repro ReproFromJson(const std::string& json);

struct ReplayResult {
  TrialRow row;
  /// True when the replay reproduced a contract mismatch.
  bool reproduced = false;
};

/// Re-runs the trial a repro captured.
ReplayResult ReplayRepro(const Repro& repro);

}  // namespace nocdr::valid
