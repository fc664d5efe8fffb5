// Shared helpers for the harnesses in bench/ (and the tools that borrow
// FlagParser): command-line flags and best-of timing. util/clock.h's
// MillisSince times most benches' runs.
#pragma once

#include <algorithm>
#include <cstddef>
#include <cstdint>
#include <cstdlib>
#include <functional>
#include <iostream>
#include <optional>
#include <sstream>
#include <string>
#include <utility>
#include <vector>

#include "util/clock.h"

namespace nocdr::bench {

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

/// The samples of one timed region: its best and total ms.
struct RegionSamples {
  double best_ms = 0.0;
  double total_ms = 0.0;
  int runs = 0;

  void Add(double ms) {
    best_ms = runs == 0 ? ms : std::min(best_ms, ms);
    total_ms += ms;
    ++runs;
  }
  /// At least 5 runs and 20 ms in total, so a sub-millisecond region is
  /// sampled often enough for its best to settle.
  [[nodiscard]] bool Settled() const { return runs >= 5 && total_ms >= 20.0; }
};

/// Best wall clock, in ms, of one timed region. \p run runs the region
/// once, with any setup outside its own clock, and returns the region's
/// ms. The region runs until it is settled (RegionSamples::Settled); it
/// stops early once the runs total more than \p cap_ms.
template <typename Run>
double BestOfMs(double cap_ms, Run&& run) {
  RegionSamples region;
  do {
    region.Add(run());
  } while (!region.Settled() && region.total_ms <= cap_ms);
  return region.best_ms;
}

/// Best wall clocks, in ms, of two timed regions that a speedup compares,
/// as {best of \p run_a, best of \p run_b}. Each run is as above. The
/// two alternate in one loop (a, b, a, b, ...) until both are settled,
/// so a slow stretch of the host lands on both sides instead of on
/// whichever ran then. A side whose runs total more than \p cap_ms
/// stops running; the other keeps running until it is settled too (or
/// passes the cap itself), so the cheap side of a large speedup is not
/// cut to the one or two runs the expensive side fits under the cap.
template <typename RunA, typename RunB>
std::pair<double, double> BestOfMs(double cap_ms, RunA&& run_a,
                                   RunB&& run_b) {
  RegionSamples a;
  RegionSamples b;
  const auto open = [cap_ms](const RegionSamples& r) {
    return r.total_ms <= cap_ms;
  };
  const auto unsettled = [&open](const RegionSamples& r) {
    return open(r) && !r.Settled();
  };
  do {
    if (open(a)) {
      a.Add(run_a());
    }
    if (open(b)) {
      b.Add(run_b());
    }
  } while (unsettled(a) || unsettled(b));
  return {a.best_ms, b.best_ms};
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
  // The registered setters call back into the parser that owns them.
  FlagParser(const FlagParser&) = delete;
  FlagParser& operator=(const FlagParser&) = delete;

  /// --flag N (non-negative integer).
  void AddUint64(const std::string& flag, std::uint64_t* target) {
    Add(flag, "N",
        [=, this](const std::string& value) { *target = Number(flag, value); });
  }
  void AddSize(const std::string& flag, std::size_t* target) {
    Add(flag, "N", [=, this](const std::string& value) {
      *target = static_cast<std::size_t>(Number(flag, value));
    });
  }

  /// Valueless --flag; presence sets \p target to \p value.
  void AddSwitch(const std::string& flag, bool* target, bool value = true) {
    Add(flag, "", [=](const std::string&) { *target = value; });
  }

  /// --flag VALUE (verbatim string).
  void AddString(const std::string& flag, std::string* target) {
    Add(flag, "VALUE", [=](const std::string& value) { *target = value; });
  }

  /// --flag a,b,c: replaces *target with the items, each read by
  /// \p parse; an item \p parse rejects, or an empty list, fails with a
  /// message naming \p what ("design source", "arm", ...).
  template <typename T>
  void AddList(const std::string& flag, std::vector<T>* target,
               std::optional<T> (*parse)(const std::string&),
               const std::string& what) {
    Add(flag, "VALUE", [=, this](const std::string& csv) {
      target->clear();
      for (const std::string& name : SplitCsv(csv)) {
        const std::optional<T> item = parse(name);
        if (!item.has_value()) {
          Fail("unknown " + what + " \"" + name + "\"");
        }
        target->push_back(*item);
      }
      if (target->empty()) {
        Fail(flag + " needs at least one " + what);
      }
    });
  }

  /// Prints the derived usage line plus \p error and exits 2. Public so
  /// call sites can reuse it for their own post-parse validation (flag
  /// interdependencies).
  [[noreturn]] void Fail(const std::string& error) const {
    std::cerr << binary_ << ": " << error << "\nflags:";
    for (const Spec& spec : specs_) {
      std::cerr << " " << spec.flag;
      if (!spec.metavar.empty()) {
        std::cerr << " " << spec.metavar;
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
      if (match->metavar.empty()) {
        match->set("");
        continue;
      }
      if (i + 1 >= argc) {
        Fail(arg + " needs a value");
      }
      match->set(argv[++i]);
    }
  }

 private:
  struct Spec {
    std::string flag;
    /// Shown after the flag in the usage line; empty for a switch.
    std::string metavar;
    std::function<void(const std::string&)> set;
  };

  void Add(const std::string& flag, const std::string& metavar,
           std::function<void(const std::string&)> set) {
    specs_.push_back({flag, metavar, std::move(set)});
  }

  /// Flag values are untrusted; std::stoull would call std::terminate
  /// on junk, so anything that is not a plain decimal number fails.
  std::uint64_t Number(const std::string& flag,
                       const std::string& value) const {
    if (value.empty() ||
        value.find_first_not_of("0123456789") != std::string::npos) {
      Fail(flag + " needs a non-negative integer, got \"" + value + "\"");
    }
    try {
      return std::stoull(value);
    } catch (const std::out_of_range&) {
      Fail(flag + " value \"" + value + "\" is out of range");
    }
  }

  std::string binary_;
  std::vector<Spec> specs_;
};

}  // namespace nocdr::bench
