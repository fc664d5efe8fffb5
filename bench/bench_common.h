// Shared helpers for the experiment harnesses in bench/.
//
// Every binary in this directory regenerates one table or figure of the
// paper (see DESIGN.md's experiment index). The helpers here run the two
// competing deadlock-handling methods on a synthesized design and collect
// the quantities the paper plots: extra VCs, switch area, total power.
#pragma once

#include <chrono>
#include <cstddef>
#include <cstdint>
#include <cstdlib>
#include <iostream>
#include <sstream>
#include <string>
#include <utility>
#include <vector>

#include "deadlock/removal.h"
#include "deadlock/resource_ordering.h"
#include "power/model.h"
#include "runner/sweep.h"
#include "soc/benchmarks.h"
#include "synth/synthesizer.h"
#include "test_support_designs.h"

namespace nocdr::bench {

/// Milliseconds elapsed since \p start.
inline double MillisSince(std::chrono::steady_clock::time_point start) {
  return std::chrono::duration<double, std::milli>(
             std::chrono::steady_clock::now() - start)
      .count();
}

/// --check-determinism for the campaign benches: reruns the whole
/// campaign at 1 and 3 worker threads via \p digest_at (threads ->
/// campaign digest), prints one line per rerun with the digest in hex,
/// and returns true iff every rerun reproduced \p digest, the main
/// run's.
template <typename DigestAt>
bool DigestStableAcrossThreads(std::uint64_t digest, DigestAt digest_at) {
  bool stable = true;
  for (const std::size_t threads : {std::size_t{1}, std::size_t{3}}) {
    const std::uint64_t rerun = digest_at(threads);
    const bool match = rerun == digest;
    stable = stable && match;
    std::cout << "determinism check (" << threads << " threads): digest "
              << std::hex << rerun << std::dec
              << (match ? " OK" : " MISMATCH (bug!)") << "\n";
  }
  return stable;
}

/// Registration-based command-line parsing for the bench harnesses.
///
/// Every binary in this directory used to hand-roll the same argv loop
/// (next_value / next_number lambdas, the same out-of-range guards, a
/// by-hand usage string). FlagParser centralizes that: register each
/// flag with its target once, Parse() fills the targets, rejects junk
/// values, and derives the usage line from the registrations. Errors
/// print the usage and exit 2, matching the historical behaviour.
class FlagParser {
 public:
  explicit FlagParser(std::string binary) : binary_(std::move(binary)) {}

  /// --flag N (non-negative integer). \p seen, when given, records
  /// whether the flag appeared at all (for flags whose presence matters
  /// beyond their value, e.g. --replay-seed).
  void AddUint64(const std::string& flag, std::uint64_t* target,
                 bool* seen = nullptr) {
    specs_.push_back({flag, Kind::kUint64, target, seen});
  }
  void AddSize(const std::string& flag, std::size_t* target,
               bool* seen = nullptr) {
    specs_.push_back({flag, Kind::kSize, target, seen});
  }

  /// Valueless --flag; presence sets \p target to true.
  void AddSwitch(const std::string& flag, bool* target) {
    specs_.push_back({flag, Kind::kSwitch, target, nullptr});
  }

  /// --flag VALUE (verbatim string).
  void AddString(const std::string& flag, std::string* target,
                 bool* seen = nullptr) {
    specs_.push_back({flag, Kind::kString, target, seen});
  }

  /// Prints the derived usage line plus \p error and exits 2. Public so
  /// call sites can reuse it for their own post-parse validation (list
  /// flags, flag interdependencies).
  [[noreturn]] void Fail(const std::string& error) const {
    std::cerr << binary_ << ": " << error << "\nflags:";
    for (const Spec& spec : specs_) {
      std::cerr << " " << spec.flag;
      if (spec.kind == Kind::kString) {
        std::cerr << " VALUE";
      } else if (spec.kind != Kind::kSwitch) {
        std::cerr << " N";
      }
    }
    std::cerr << "\n";
    std::exit(2);
  }

  void Parse(int argc, char** argv) const {
    for (int i = 1; i < argc; ++i) {
      const std::string arg = argv[i];
      const Spec* match = nullptr;
      for (const Spec& spec : specs_) {
        if (spec.flag == arg) {
          match = &spec;
          break;
        }
      }
      if (match == nullptr) {
        Fail("unknown flag \"" + arg + "\"");
      }
      if (match->seen != nullptr) {
        *match->seen = true;
      }
      if (match->kind == Kind::kSwitch) {
        *static_cast<bool*>(match->target) = true;
        continue;
      }
      if (i + 1 >= argc) {
        Fail(arg + " needs a value");
      }
      const std::string value = argv[++i];
      if (match->kind == Kind::kString) {
        *static_cast<std::string*>(match->target) = value;
        continue;
      }
      // Flag values are untrusted; std::stoull would call
      // std::terminate on junk, so reject anything that is not a plain
      // decimal number.
      if (value.empty() ||
          value.find_first_not_of("0123456789") != std::string::npos) {
        Fail(arg + " needs a non-negative integer, got \"" + value + "\"");
      }
      std::uint64_t number = 0;
      try {
        number = std::stoull(value);
      } catch (const std::out_of_range&) {
        Fail(arg + " value \"" + value + "\" is out of range");
      }
      if (match->kind == Kind::kUint64) {
        *static_cast<std::uint64_t*>(match->target) = number;
      } else {
        *static_cast<std::size_t*>(match->target) =
            static_cast<std::size_t>(number);
      }
    }
  }

 private:
  enum class Kind { kUint64, kSize, kSwitch, kString };
  struct Spec {
    std::string flag;
    Kind kind;
    void* target;
    bool* seen;
  };

  std::string binary_;
  std::vector<Spec> specs_;
};

/// Splits "a,b,c" into {"a","b","c"}. Interior empty segments are kept
/// ("a,,b" -> {"a","","b"}) so a mangled list fails the caller's name
/// validation loudly instead of being silently narrowed.
inline std::vector<std::string> SplitCsv(const std::string& csv) {
  std::vector<std::string> out;
  std::stringstream stream(csv);
  std::string item;
  while (std::getline(stream, item, ',')) {
    out.push_back(item);
  }
  return out;
}

/// One arm of a removal-options ablation.
struct AblationArm {
  std::string label;
  RemovalOptions options;
};

/// Runs corpus × arms through SweepRunner; rows come back design-major
/// (rows[d * arms.size() + a] is design d under arm a).
inline std::vector<runner::SweepRow> RunCorpusSweep(
    const std::vector<std::pair<std::string, DesignFactory>>& corpus,
    const std::vector<AblationArm>& arms) {
  std::vector<runner::SweepJob> jobs;
  for (const auto& [name, make] : corpus) {
    for (const AblationArm& arm : arms) {
      runner::SweepJob job;
      job.design = name;
      job.variant = arm.label;
      job.options = arm.options;
      job.factory = [make = make](Rng&) { return make(); };
      jobs.push_back(std::move(job));
    }
  }
  return runner::SweepRunner{}.Run(jobs);
}

/// Prints a diagnostic and returns true if \p row captured an error.
inline bool RowFailed(const runner::SweepRow& row) {
  if (row.error.empty()) {
    return false;
  }
  std::cout << "JOB FAILED: " << row.design << "/" << row.variant << ": "
            << row.error << "\n";
  return true;
}

/// Results of applying one deadlock-handling method.
struct MethodOutcome {
  std::size_t vcs_added = 0;
  double area_um2 = 0.0;
  double power_mw = 0.0;
  bool deadlock_free = false;
};

/// Both methods plus the untreated design, on one (benchmark, switches)
/// point.
struct ComparisonPoint {
  std::string design_name;
  std::size_t switches = 0;
  std::size_t links = 0;
  MethodOutcome untreated;  // vcs_added always 0; may not be deadlock-free
  MethodOutcome removal;
  MethodOutcome ordering;
};

/// Synthesizes `traffic` on `switches` switches and runs both methods.
inline ComparisonPoint Compare(const CommunicationGraph& traffic,
                               const std::string& name,
                               std::size_t switches) {
  ComparisonPoint point;
  point.switches = switches;
  const NocDesign base = SynthesizeDesign(traffic, name, switches);
  point.design_name = base.name;
  point.links = base.topology.LinkCount();

  const auto pa_base = EstimatePowerArea(base);
  point.untreated = {0, pa_base.switch_area_um2, pa_base.TotalPowerMw(),
                     IsDeadlockFree(base)};

  NocDesign removal_design = base;
  const auto removal_report = RemoveDeadlocks(removal_design);
  const auto pa_removal = EstimatePowerArea(removal_design);
  point.removal = {removal_report.vcs_added, pa_removal.switch_area_um2,
                   pa_removal.TotalPowerMw(), IsDeadlockFree(removal_design)};

  NocDesign ordering_design = base;
  const auto ordering_report = ApplyResourceOrdering(ordering_design);
  const auto pa_ordering = EstimatePowerArea(ordering_design);
  point.ordering = {ordering_report.vcs_added, pa_ordering.switch_area_um2,
                    pa_ordering.TotalPowerMw(),
                    IsDeadlockFree(ordering_design)};
  return point;
}

}  // namespace nocdr::bench
