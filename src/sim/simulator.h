// Cycle-accurate flit-level wormhole network simulator.
//
// Validates the library's whole premise end to end: designs whose CDG has
// a cycle really do freeze under load, and designs processed by the
// removal algorithm (or resource ordering) run the same workload to
// completion.
//
// Model:
//   * source routing — every packet follows its flow's static route, a
//     list of (link, VC) channels taken verbatim from the design;
//   * wormhole switching — the head flit acquires each channel buffer for
//     the whole packet, the tail flit releases it; body flits may only
//     enter channels their packet owns;
//   * credit/occupancy flow control — a flit advances only into a buffer
//     slot that exists; each physical link carries one flit per cycle;
//     each buffer pops at most one flit per cycle;
//   * rotating round-robin arbitration for links, buffers and injection,
//     making every run deterministic for a given seed;
//   * deadlock detection — a progress watchdog plus an exact circular-
//     wait check on the channel wait-for graph (a cycle of full or
//     foreign-owned channels each blocking the next is a deadlock by
//     definition: no preemption, no timeout in wormhole switching).
#pragma once

#include <cstdint>
#include <optional>
#include <string>
#include <vector>

#include "noc/design.h"
#include "sim/flit.h"
#include "sim/traffic_gen.h"

namespace nocdr {

/// How the engine finds work each cycle. Both engines simulate the same
/// cycle-level semantics and produce bit-identical SimResults
/// (property-tested against each other across the corpus); they differ
/// only in what a cycle — or the absence of one — costs.
enum class SimEngine {
  /// The reference formulation: scan every channel and every flow each
  /// cycle. Kept as the baseline the event engine is differential-
  /// tested and benchmarked against.
  kFullScan,
  /// The incremental engine. Worklists of non-empty channels and armed
  /// flows make a cycle cost O(active); a flow whose next packet lies in
  /// the future parks in a heap keyed by its ready cycle. After a cycle
  /// in which nothing moved, time jumps straight to the next cycle at
  /// which anything observable can happen — a parked flow's ready
  /// cycle, the transition window, a deadlock-check or watchdog
  /// deadline — so idle time on large sparse designs costs nothing. The
  /// jump lands on exactly the cycles the reference would have acted
  /// on, which is what keeps the results bit-identical.
  kEvent,
};

/// All engines, in the fixed differential-test order (reference first).
std::vector<SimEngine> AllEngines();

/// Stable lowercase identifier ("fullscan", "event").
std::string EngineName(SimEngine engine);

/// Inverse of EngineName; nullopt for unknown names.
std::optional<SimEngine> ParseEngine(const std::string& name);

/// Every entry point (SimulateWorkload, SimulateTransition) throws
/// InvalidModelError when traffic.packet_length, buffer_depth or
/// deadlock_check_interval is 0.
struct SimConfig {
  SimEngine engine = SimEngine::kEvent;
  /// Arbitrate injections before in-network traversals instead of after.
  /// Both orders are legal router arbitrations; the default favors
  /// in-network traffic (the common switch allocator policy), which can
  /// phase-lock some statically unsafe designs into a live steady state
  /// — a freed channel is always re-taken by the parked waiter it would
  /// have starved. Injection-first is the adversarial order validation
  /// campaigns use to detonate such designs (src/valid/).
  bool inject_first = false;
  /// Buffer depth of every channel (flits).
  std::uint16_t buffer_depth = 4;
  /// Hard cap on simulated cycles.
  std::uint64_t max_cycles = 200000;
  /// Declare no-progress after this many cycles without any flit motion
  /// while flits are in flight.
  std::uint64_t stall_threshold = 2000;
  /// How often to run the exact circular-wait check.
  std::uint64_t deadlock_check_interval = 256;
  TrafficConfig traffic;
};

/// Per-flow delivery statistics.
struct FlowStats {
  std::uint64_t packets_delivered = 0;
  double avg_latency = 0.0;
  std::uint64_t max_latency = 0;
};

/// Outcome of one simulation run.
struct SimResult {
  std::uint64_t cycles = 0;
  std::uint64_t packets_offered = 0;    // per the traffic schedule
  std::uint64_t packets_injected = 0;   // entered the network (or local)
  std::uint64_t packets_delivered = 0;
  std::uint64_t flits_delivered = 0;
  bool deadlocked = false;
  /// Channels participating in the detected circular wait (empty unless
  /// deadlocked).
  std::vector<ChannelId> deadlock_cycle;
  std::uint64_t stuck_flits = 0;
  double avg_packet_latency = 0.0;
  std::uint64_t max_packet_latency = 0;
  /// Per-flow breakdown, indexed by FlowId.
  std::vector<FlowStats> flows;
  /// Flits forwarded out of each channel buffer, indexed by ChannelId;
  /// divided by cycles this is the channel utilization.
  std::vector<std::uint64_t> channel_flits;

  [[nodiscard]] bool AllDelivered() const {
    return packets_delivered == packets_offered;
  }

  /// Utilization of a channel in [0, 1] (flits forwarded per cycle).
  [[nodiscard]] double ChannelUtilization(ChannelId c) const {
    if (cycles == 0 || c.value() >= channel_flits.size()) {
      return 0.0;
    }
    return static_cast<double>(channel_flits[c.value()]) /
           static_cast<double>(cycles);
  }
};

/// Runs the workload described by \p config.traffic on \p design.
/// The design must satisfy Validate().
SimResult SimulateWorkload(const NocDesign& design, const SimConfig& config);

/// As above, but injects from \p schedule instead of synthesizing one
/// from config.traffic. The schedule must have been built for this
/// design (one entry list per flow). Lets engine benchmarks share one
/// schedule across engines and time the simulation alone — Bernoulli
/// schedule synthesis is O(flows x horizon) and identical for every
/// engine, so folding it into the measurement would mask the engine
/// difference it exists to expose.
SimResult SimulateWorkload(const NocDesign& design, const SimConfig& config,
                           const TrafficSchedule& schedule);

}  // namespace nocdr
