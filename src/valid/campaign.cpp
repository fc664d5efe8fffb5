#include "valid/campaign.h"

#include <chrono>
#include <exception>

#include "cdg/cdg.h"
#include "deadlock/removal.h"
#include "deadlock/resource_ordering.h"
#include "deadlock/updown.h"
#include "deadlock/verify.h"
#include "gen/generators.h"
#include "soc/synthetic.h"
#include "synth/synthesizer.h"
#include "util/clock.h"
#include "util/rng.h"
#include "valid/repro.h"
#include "valid/shrink.h"

// KeepFlows lives in valid/shrink.h; the focused detonation ladder below
// reuses it to restrict a design to its counterexample's flows.

namespace nocdr::valid {

namespace {

/// The simulator configuration for escalation level \p escalation:
/// every level doubles the worm length and the packet count (and widens
/// the cycle budget to match).
SimConfig MakeSimConfig(const WorkloadConfig& workload, std::uint64_t seed,
                        std::size_t escalation) {
  SimConfig cfg;
  cfg.engine = workload.engine;
  cfg.buffer_depth = workload.buffer_depth;
  cfg.max_cycles = workload.max_cycles << escalation;
  cfg.stall_threshold = workload.stall_threshold;
  cfg.deadlock_check_interval = 256;
  cfg.traffic.mode = InjectionMode::kFixedCount;
  cfg.traffic.packets_per_flow =
      workload.packets_per_flow << escalation;
  cfg.traffic.packet_length =
      static_cast<std::uint16_t>(workload.packet_length << escalation);
  cfg.traffic.seed = seed ^ (0x9e3779b97f4a7c15ull * (escalation + 1));
  return cfg;
}

/// True iff \p cycle is a directed cycle of \p graph: length >= 2, every
/// vertex in range, every consecutive pair (including the wrap-around)
/// an edge.
bool IsCdgCycle(const ChannelDependencyGraph& graph,
                const std::vector<ChannelId>& cycle) {
  if (cycle.size() < 2) {
    return false;
  }
  for (const ChannelId c : cycle) {
    if (!c.valid() || c.value() >= graph.VertexCount()) {
      return false;
    }
  }
  for (std::size_t i = 0; i < cycle.size(); ++i) {
    const ChannelId from = cycle[i];
    const ChannelId to = cycle[(i + 1) % cycle.size()];
    if (!graph.FindEdge(from, to).has_value()) {
      return false;
    }
  }
  return true;
}

void FillSimFields(TrialRow& row, const SimResult& sim,
                   std::size_t escalation) {
  row.sim_deadlocked = sim.deadlocked;
  row.all_delivered = sim.AllDelivered();
  row.cycles = sim.cycles;
  row.packets_offered = sim.packets_offered;
  row.packets_delivered = sim.packets_delivered;
  row.escalations = escalation;
}

}  // namespace

std::vector<TrialArm> AllArms() {
  return {TrialArm::kUntreated, TrialArm::kRemovalIncremental,
          TrialArm::kRemovalRebuild, TrialArm::kResourceOrdering,
          TrialArm::kUpDown};
}

std::string ArmName(TrialArm arm) {
  switch (arm) {
    case TrialArm::kUntreated:
      return "untreated";
    case TrialArm::kRemovalIncremental:
      return "removal_incremental";
    case TrialArm::kRemovalRebuild:
      return "removal_rebuild";
    case TrialArm::kResourceOrdering:
      return "resource_ordering";
    case TrialArm::kUpDown:
      return "updown";
  }
  return "unknown";
}

std::optional<TrialArm> ParseArm(const std::string& name) {
  for (const TrialArm arm : AllArms()) {
    if (ArmName(arm) == name) {
      return arm;
    }
  }
  return std::nullopt;
}

std::string VerdictName(TrialVerdict verdict) {
  switch (verdict) {
    case TrialVerdict::kPositiveDelivered:
      return "positive_delivered";
    case TrialVerdict::kNegativeDetonated:
      return "negative_detonated";
    case TrialVerdict::kArmInfeasible:
      return "arm_infeasible";
    case TrialVerdict::kMismatch:
      return "mismatch";
  }
  return "unknown";
}

std::vector<DesignSource> AllSources() {
  return {DesignSource::kSynthesized, DesignSource::kMesh,
          DesignSource::kTorus, DesignSource::kRing, DesignSource::kFatTree};
}

std::string SourceName(DesignSource source) {
  switch (source) {
    case DesignSource::kSynthesized:
      return "synthesized";
    case DesignSource::kMesh:
      return "mesh";
    case DesignSource::kTorus:
      return "torus";
    case DesignSource::kRing:
      return "ring";
    case DesignSource::kFatTree:
      return "fat_tree";
  }
  return "unknown";
}

std::optional<DesignSource> ParseSource(const std::string& name) {
  for (const DesignSource source : AllSources()) {
    if (SourceName(source) == name) {
      return source;
    }
  }
  return std::nullopt;
}

NocDesign GenerateTrialDesign(std::uint64_t seed,
                              const DesignEnvelope& envelope) {
  Require(envelope.min_cores <= envelope.max_cores &&
              envelope.min_fanout <= envelope.max_fanout &&
              envelope.min_hubs <= envelope.max_hubs &&
              envelope.min_cores_per_switch <= envelope.max_cores_per_switch,
          "GenerateTrialDesign: inverted envelope range");
  Require(envelope.min_cores >= envelope.max_hubs + 2,
          "GenerateTrialDesign: min_cores must exceed max_hubs + 2");
  Rng rng(seed);
  const auto draw = [&rng](std::size_t lo, std::size_t hi) {
    return lo + static_cast<std::size_t>(rng.NextBelow(hi - lo + 1));
  };
  SyntheticSocSpec spec;
  spec.cores = draw(envelope.min_cores, envelope.max_cores);
  spec.fanout = draw(envelope.min_fanout, envelope.max_fanout);
  spec.hubs = draw(envelope.min_hubs, envelope.max_hubs);
  spec.pipeline_length = draw(3, 7);
  spec.seed = rng.Next();
  const SocBenchmark soc = MakeSyntheticSoc(spec);
  const std::size_t per_switch = draw(envelope.min_cores_per_switch,
                                      envelope.max_cores_per_switch);
  const std::size_t switches =
      std::max<std::size_t>(2, (spec.cores + per_switch - 1) / per_switch);
  return SynthesizeDesign(soc.traffic, soc.name, switches);
}

NocDesign GenerateTrialDesign(DesignSource source, std::uint64_t seed,
                              const DesignEnvelope& envelope) {
  return GenerateTrialDesign(source, seed, envelope, nullptr);
}

NocDesign GenerateTrialDesign(DesignSource source, std::uint64_t seed,
                              const DesignEnvelope& envelope,
                              NextHopTable* table_out) {
  if (table_out != nullptr) {
    table_out->clear();
  }
  if (source == DesignSource::kSynthesized) {
    return GenerateTrialDesign(seed, envelope);
  }
  Require(envelope.min_cores <= envelope.max_cores,
          "GenerateTrialDesign: inverted envelope range");
  Rng rng(seed);
  const auto draw = [&rng](std::size_t lo, std::size_t hi) {
    return lo + static_cast<std::size_t>(rng.NextBelow(hi - lo + 1));
  };
  gen::GeneratorSpec spec;
  // Draw the traffic pattern first so the shape draws below stay aligned
  // across sources that share a seed.
  const auto patterns = gen::AllPatterns();
  spec.pattern = patterns[draw(0, patterns.size() - 1)];
  spec.uniform_fanout = draw(2, 4);
  spec.cores_per_switch = draw(1, 2);
  switch (source) {
    case DesignSource::kMesh:
      spec.family = gen::TopologyFamily::kMesh2D;
      spec.width = draw(4, 8);
      spec.height = draw(3, 7);
      break;
    case DesignSource::kTorus:
      spec.family = gen::TopologyFamily::kTorus2D;
      spec.width = draw(4, 8);
      spec.height = draw(3, 7);
      break;
    case DesignSource::kRing:
      spec.family = gen::TopologyFamily::kRing;
      spec.ring_nodes = draw(envelope.min_cores, envelope.max_cores);
      spec.cores_per_switch = 1;
      break;
    case DesignSource::kFatTree: {
      spec.family = gen::TopologyFamily::kFatTree;
      spec.tree_arity = draw(2, 4);
      // Levels sized so the leaf count lands near the envelope's core
      // range: 2^4=16, 3^3=27, 4^2=16 leaves.
      spec.tree_levels = 7 - spec.tree_arity;
      spec.tree_uplinks = draw(1, 2);
      break;
    }
    case DesignSource::kSynthesized:
      break;  // handled above
  }
  spec.seed = rng.Next();
  return gen::GenerateStandardDesign(spec, table_out);
}

TrialRow ClassifyTrial(const NocDesign& design, TrialArm arm,
                       const WorkloadConfig& workload, std::uint64_t seed) {
  TrialRow row;
  row.design_seed = seed;
  row.design = design.name;
  row.arm = arm;
  row.switches = design.topology.SwitchCount();
  row.links = design.topology.LinkCount();
  row.flows = design.traffic.FlowCount();
  row.channels_before = design.topology.ChannelCount();

  NocDesign treated = design;
  try {
    switch (arm) {
      case TrialArm::kUntreated:
        break;
      case TrialArm::kRemovalIncremental: {
        RemovalOptions options;
        options.engine = RemovalEngine::kIncremental;
        RemoveDeadlocks(treated, options);
        break;
      }
      case TrialArm::kRemovalRebuild: {
        RemovalOptions options;
        options.engine = RemovalEngine::kRebuild;
        RemoveDeadlocks(treated, options);
        break;
      }
      case TrialArm::kResourceOrdering:
        ApplyResourceOrdering(treated);
        break;
      case TrialArm::kUpDown:
        ApplyUpDownRouting(treated);
        break;
    }
  } catch (const TurnProhibitionInfeasibleError&) {
    // Not a contract breach: up*/down* genuinely cannot serve designs
    // whose bidirectional sub-topology is disconnected (the limitation
    // the paper's Section 1 critique is about). Record and move on.
    row.channels_after = row.channels_before;
    row.verdict = TrialVerdict::kArmInfeasible;
    return row;
  } catch (const std::exception& e) {
    row.mismatch_kind = MismatchKind::kTreatmentThrew;
    row.mismatch = "treatment threw: " + std::string(e.what());
    return row;
  }
  row.channels_after = treated.topology.ChannelCount();

  const DeadlockCertificate cert = CertifyDeadlockFreedom(treated);
  row.certified_free = cert.deadlock_free;
  row.certificate_checked = CheckCertificate(treated, cert);

  // Belt and braces: the certificate must survive a JSON round trip with
  // the same verdict from the independent checker.
  const DeadlockCertificate reloaded =
      CertificateFromJson(CertificateToJson(cert));
  if (CheckCertificate(treated, reloaded) != row.certificate_checked) {
    row.mismatch_kind = MismatchKind::kCertificateJsonRoundTrip;
    row.mismatch =
        "certificate changed checker verdict after JSON round trip";
    return row;
  }

  if (arm != TrialArm::kUntreated && !cert.deadlock_free) {
    row.mismatch_kind = MismatchKind::kTreatedLeftCycle;
    row.mismatch = ArmName(arm) + " left a CDG cycle (negative certificate)";
    return row;
  }

  if (cert.deadlock_free) {
    if (!row.certificate_checked) {
      row.mismatch_kind = MismatchKind::kCheckerRejectedPositive;
      row.mismatch = "positive certificate rejected by independent checker";
      return row;
    }
    const SimResult sim =
        SimulateWorkload(treated, MakeSimConfig(workload, seed, 0));
    FillSimFields(row, sim, 0);
    if (sim.deadlocked) {
      row.mismatch_kind = MismatchKind::kPositiveDeadlocked;
      row.mismatch = "positive certificate but the simulator deadlocked";
      return row;
    }
    if (!sim.AllDelivered()) {
      row.mismatch_kind = MismatchKind::kPositiveUndelivered;
      row.mismatch = "positive certificate but only " +
                     std::to_string(sim.packets_delivered) + " of " +
                     std::to_string(sim.packets_offered) +
                     " packets delivered";
      return row;
    }
    row.verdict = TrialVerdict::kPositiveDelivered;
    return row;
  }

  // Negative certificate: the counterexample must be a genuine CDG cycle
  // and the simulator must reproduce a circular wait lying on the CDG.
  //
  // A cyclic CDG is a *worst-case* property — a particular workload may
  // well complete (some cycles need a precise interleaving to close).
  // The escalation ladder therefore moves from the configured blanket
  // workload to the adversarial workload the certificate actually
  // predicts deadlock for: only the flows whose routes create the
  // counterexample cycle's edges, each injecting worms long enough to
  // span their whole route, so every cycle channel ends up held while
  // its successor is requested.
  const auto cdg = ChannelDependencyGraph::Build(treated);
  if (!IsCdgCycle(cdg, cert.counterexample)) {
    row.mismatch_kind = MismatchKind::kBadCounterexample;
    row.mismatch = "negative certificate counterexample is not a CDG cycle";
    return row;
  }
  const auto check_detonation = [&](const SimResult& sim,
                                    const ChannelDependencyGraph& graph) {
    // The simulator's circular wait chains channel c to the next channel
    // of c's head flit's route — exactly a CDG edge — so a reported
    // cycle must be a CDG cycle. (The stall watchdog may detect a
    // deadlock it cannot attribute to a channel-level cycle; an empty
    // report is acceptable, a wrong one is not.)
    if (!sim.deadlock_cycle.empty() && !IsCdgCycle(graph, sim.deadlock_cycle)) {
      row.mismatch_kind = MismatchKind::kWaitCycleOffCdg;
      row.mismatch = "simulator circular wait is not a CDG cycle";
      return;
    }
    row.verdict = TrialVerdict::kNegativeDetonated;
  };

  // Level 0: the full design under the configured blanket workload.
  {
    const SimResult sim =
        SimulateWorkload(treated, MakeSimConfig(workload, seed, 0));
    FillSimFields(row, sim, 0);
    if (sim.deadlocked) {
      check_detonation(sim, cdg);
      return row;
    }
  }

  // Focused levels: restrict to the counterexample's own flows.
  std::vector<bool> keep(treated.traffic.FlowCount(), false);
  std::size_t max_route = 1;
  for (std::size_t i = 0; i < cert.counterexample.size(); ++i) {
    const ChannelId from = cert.counterexample[i];
    const ChannelId to =
        cert.counterexample[(i + 1) % cert.counterexample.size()];
    const auto edge = cdg.FindEdge(from, to);
    for (const FlowId f : cdg.EdgeAt(*edge).flows) {
      keep[f.value()] = true;
      max_route =
          std::max(max_route, treated.routes.RouteOf(f).size());
    }
  }
  const NocDesign focused = KeepFlows(treated, keep);
  const auto focused_cdg = ChannelDependencyGraph::Build(focused);
  const std::uint16_t spanning_length = static_cast<std::uint16_t>(
      std::min<std::size_t>(max_route * workload.buffer_depth + 4, 4096));
  for (std::size_t esc = 1; esc <= workload.max_escalations; ++esc) {
    SimConfig cfg = MakeSimConfig(workload, seed, esc);
    if (esc <= 2) {
      // Worms long enough to span the longest kept route end to end —
      // the tail is still at the injector while the head blocks, so
      // every cycle channel a worm reaches stays held. Level 2 switches
      // to injection-first arbitration: the default in-network priority
      // can phase-lock a cyclic design into a live steady state (a
      // freed cycle channel is always re-taken by the parked waiter
      // that would otherwise starve), and the certificate's claim
      // quantifies over every legal arbitration order.
      cfg.traffic.packet_length = spanning_length;
      cfg.inject_first = esc == 2;
    } else {
      // Randomly staggered short packets close the remaining wait
      // cycles through full buffers rather than worm ownership;
      // different cycles need different pressure profiles, so the
      // levels walk a small (rate, length) grid with distinct traffic
      // seeds, alternating the arbitration order.
      static constexpr struct {
        double rate;
        std::uint16_t length;
      } kStaggeredLevels[] = {
          {0.08, 1}, {0.02, 2}, {0.25, 1}, {0.05, 3}, {0.12, 2},
      };
      const auto& level =
          kStaggeredLevels[(esc - 3) % std::size(kStaggeredLevels)];
      cfg.traffic.mode = InjectionMode::kBernoulli;
      cfg.traffic.reference_injection_rate = level.rate;
      cfg.traffic.packet_length = level.length;
      cfg.max_cycles = workload.max_cycles;
      cfg.inject_first = (esc % 2) == 0;
    }
    const SimResult sim = SimulateWorkload(focused, cfg);
    FillSimFields(row, sim, esc);
    if (sim.deadlocked) {
      check_detonation(sim, focused_cdg);
      return row;
    }
  }
  row.mismatch_kind = MismatchKind::kNoDetonation;
  row.mismatch =
      "negative certificate but the workload completed every escalation "
      "level (" +
      std::to_string(workload.max_escalations) + " focused)";
  return row;
}

TrialRow RunTrial(const NocDesign& design, TrialArm arm,
                  const WorkloadConfig& workload, std::uint64_t seed,
                  bool shrink, std::size_t trial_index) {
  const auto t0 = std::chrono::steady_clock::now();
  TrialRow row = ClassifyTrial(design, arm, workload, seed);
  row.trial_index = trial_index;
  if (row.verdict == TrialVerdict::kMismatch && shrink) {
    const ShrinkResult shrunk =
        ShrinkMismatch(design, arm, workload, seed, row.mismatch_kind);
    row.shrink_flows_kept = shrunk.design.traffic.FlowCount();
    row.shrink_steps = shrunk.steps;
    Repro repro;
    repro.design = shrunk.design;
    repro.arm = arm;
    repro.workload = workload;
    repro.seed = shrunk.seed;
    repro.mismatch = row.mismatch;
    repro.trial_index = trial_index;
    repro.shrink_steps = shrunk.steps;
    repro.io_stable = shrunk.io_stable;
    row.repro_json = ReproToJson(repro);
  }
  row.run_ms = MillisSince(t0);
  return row;
}

TrialRow RunTrialEngines(const NocDesign& design, TrialArm arm,
                         const WorkloadConfig& workload,
                         const std::vector<SimEngine>& engines,
                         std::uint64_t seed, bool shrink,
                         std::size_t trial_index) {
  Require(!engines.empty(),
          "RunTrialEngines: at least one engine required");
  WorkloadConfig primary = workload;
  primary.engine = engines.front();
  TrialRow row = RunTrial(design, arm, primary, seed, shrink, trial_index);
  if (row.verdict == TrialVerdict::kMismatch) {
    return row;  // already a contract breach; one breach per row
  }
  const auto t0 = std::chrono::steady_clock::now();
  for (std::size_t e = 1; e < engines.size(); ++e) {
    WorkloadConfig secondary = workload;
    secondary.engine = engines[e];
    TrialRow other = ClassifyTrial(design, arm, secondary, seed);
    other.trial_index = row.trial_index;
    const std::string difference = FirstDifference(row, other);
    if (!difference.empty()) {
      row.verdict = TrialVerdict::kMismatch;
      row.mismatch_kind = MismatchKind::kEngineDivergence;
      row.mismatch = "engine divergence " + EngineName(engines.front()) +
                     " vs " + EngineName(engines[e]) + ": " + difference;
      break;
    }
  }
  row.run_ms += MillisSince(t0);
  return row;
}

CampaignResult<TrialRow> RunCampaign(const CampaignConfig& config) {
  const std::vector<SimEngine> engines =
      config.engines.empty() ? std::vector{config.workload.engine}
                             : config.engines;
  return RunTrials<TrialRow>(
      config, config.arms.size(), [&](const TrialSpec& trial) {
        const TrialArm arm = config.arms[trial.arm];
        TrialRow row;
        try {
          const NocDesign design =
              GenerateTrialDesign(trial.source, trial.seed, config.envelope);
          row = RunTrialEngines(design, arm, config.workload, engines,
                                trial.seed, config.shrink, trial.index);
        } catch (const std::exception& e) {
          row.design_seed = trial.seed;
          row.arm = arm;
          row.mismatch = "trial threw: " + std::string(e.what());
          row.mismatch_kind = MismatchKind::kTrialThrew;
          row.verdict = TrialVerdict::kMismatch;
        }
        row.source = trial.source;
        return row;
      });
}

}  // namespace nocdr::valid
