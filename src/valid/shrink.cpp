#include "valid/shrink.h"

#include <algorithm>

#include "util/canonical.h"
#include "util/error.h"
#include "util/rng.h"

// IoCanonicalize / IsIoStable live in util/canonical: the
// certification service (src/serve) keys its cache by the same
// canonical text the shrinker validates repros against, and two private
// copies of that primitive would be free to drift apart.

namespace nocdr::valid {

namespace {

/// Deterministic workload seed for shrink step \p step (SplitMix64
/// rounds, same construction as runner::JobSeed).
std::uint64_t StepSeed(std::uint64_t seed, std::size_t step) {
  const std::uint64_t mixed = Rng(static_cast<std::uint64_t>(step)).Next();
  return Rng(seed ^ mixed).Next();
}

}  // namespace

NocDesign KeepFlows(const NocDesign& design, const std::vector<bool>& keep) {
  Require(keep.size() == design.traffic.FlowCount(),
          "KeepFlows: mask size != flow count");
  NocDesign out;
  out.name = design.name;
  out.topology = design.topology;
  out.attachment = design.attachment;
  for (std::size_t c = 0; c < design.traffic.CoreCount(); ++c) {
    out.traffic.AddCore(design.traffic.CoreName(CoreId(c)));
  }
  std::vector<Route> routes;
  for (std::size_t f = 0; f < design.traffic.FlowCount(); ++f) {
    if (!keep[f]) {
      continue;
    }
    const Flow& flow = design.traffic.FlowAt(FlowId(f));
    out.traffic.AddFlow(flow.src, flow.dst, flow.bandwidth_mbps);
    routes.push_back(design.routes.RouteOf(FlowId(f)));
  }
  out.routes.Resize(routes.size());
  for (std::size_t f = 0; f < routes.size(); ++f) {
    out.routes.SetRoute(FlowId(f), std::move(routes[f]));
  }
  out.Validate();
  return out;
}

NocDesign PruneUnused(const NocDesign& design) {
  const std::size_t n_switches = design.topology.SwitchCount();
  const std::size_t n_links = design.topology.LinkCount();
  const std::size_t n_cores = design.traffic.CoreCount();

  std::vector<bool> core_used(n_cores, false);
  std::vector<bool> switch_used(n_switches, false);
  // Highest VC index any route uses per link; -1 = link unused.
  std::vector<int> link_max_vc(n_links, -1);

  for (std::size_t f = 0; f < design.traffic.FlowCount(); ++f) {
    const Flow& flow = design.traffic.FlowAt(FlowId(f));
    core_used[flow.src.value()] = true;
    core_used[flow.dst.value()] = true;
    for (const ChannelId c : design.routes.RouteOf(FlowId(f))) {
      const Channel& channel = design.topology.ChannelAt(c);
      link_max_vc[channel.link.value()] =
          std::max(link_max_vc[channel.link.value()],
                   static_cast<int>(channel.vc));
    }
  }
  for (std::size_t c = 0; c < n_cores; ++c) {
    if (core_used[c]) {
      switch_used[design.attachment[c].value()] = true;
    }
  }
  for (std::size_t l = 0; l < n_links; ++l) {
    if (link_max_vc[l] >= 0) {
      const Link& link = design.topology.LinkAt(LinkId(l));
      switch_used[link.src.value()] = true;
      switch_used[link.dst.value()] = true;
    }
  }

  NocDesign out;
  out.name = design.name;
  std::vector<SwitchId> switch_map(n_switches);
  for (std::size_t s = 0; s < n_switches; ++s) {
    if (switch_used[s]) {
      switch_map[s] =
          out.topology.AddSwitch(design.topology.SwitchName(SwitchId(s)));
    }
  }
  std::vector<LinkId> link_map(n_links);
  for (std::size_t l = 0; l < n_links; ++l) {
    if (link_max_vc[l] < 0) {
      continue;
    }
    const Link& link = design.topology.LinkAt(LinkId(l));
    link_map[l] = out.topology.AddLink(switch_map[link.src.value()],
                                       switch_map[link.dst.value()]);
    for (int vc = 1; vc <= link_max_vc[l]; ++vc) {
      out.topology.AddVirtualChannel(link_map[l]);
    }
  }
  std::vector<CoreId> core_map(n_cores);
  for (std::size_t c = 0; c < n_cores; ++c) {
    if (core_used[c]) {
      core_map[c] = out.traffic.AddCore(design.traffic.CoreName(CoreId(c)));
      out.attachment.push_back(switch_map[design.attachment[c].value()]);
    }
  }
  std::vector<Route> routes;
  for (std::size_t f = 0; f < design.traffic.FlowCount(); ++f) {
    const Flow& flow = design.traffic.FlowAt(FlowId(f));
    out.traffic.AddFlow(core_map[flow.src.value()],
                        core_map[flow.dst.value()], flow.bandwidth_mbps);
    Route remapped;
    for (const ChannelId c : design.routes.RouteOf(FlowId(f))) {
      const Channel& channel = design.topology.ChannelAt(c);
      remapped.push_back(*out.topology.FindChannel(
          link_map[channel.link.value()], channel.vc));
    }
    routes.push_back(std::move(remapped));
  }
  out.routes.Resize(routes.size());
  for (std::size_t f = 0; f < routes.size(); ++f) {
    out.routes.SetRoute(FlowId(f), std::move(routes[f]));
  }
  out.Validate();
  return out;
}

ShrinkResult ShrinkMismatch(const NocDesign& design, TrialArm arm,
                            const WorkloadConfig& workload,
                            std::uint64_t seed,
                            std::optional<MismatchKind> known_kind) {
  ShrinkResult result;
  result.design = design;
  result.seed = seed;

  // Shrink against the *kind* of the original disagreement: a candidate
  // that mismatches differently (e.g. a flow drop that flips the
  // certificate from negative to positive and then fails the positive
  // leg) is not a smaller version of the same bug. Classifying the
  // baseline is as expensive as the trial itself, so reuse the caller's
  // observation when it has one.
  MismatchKind kind;
  if (known_kind.has_value()) {
    kind = *known_kind;
  } else {
    const TrialRow baseline = ClassifyTrial(design, arm, workload, seed);
    if (baseline.verdict != TrialVerdict::kMismatch) {
      return result;
    }
    kind = baseline.mismatch_kind;
  }
  if (kind == MismatchKind::kNone) {
    return result;
  }
  const auto mismatches = [&](const NocDesign& candidate,
                              std::uint64_t candidate_seed) {
    ++result.candidates;
    const TrialRow row =
        ClassifyTrial(candidate, arm, workload, candidate_seed);
    return row.verdict == TrialVerdict::kMismatch &&
           row.mismatch_kind == kind;
  };

  // Canonicalize FIRST: once the design is io-stable, every later
  // candidate inherits that property (KeepFlows copies the topology
  // verbatim, PruneUnused rebuilds channels per-link contiguous exactly
  // like ReadDesign does), so the dumped text parses back to exactly
  // the design the shrinker validated. Canonicalization can renumber
  // channels — shifting round-robin arbitration — so it commits only if
  // the mismatch survives; a couple of seed retries guard against a
  // workload-seed accident masking a robust mismatch.
  if (!IsIoStable(result.design)) {
    for (int attempt = 0; attempt < 3; ++attempt) {
      const std::uint64_t step_seed = StepSeed(seed, result.candidates + 1);
      NocDesign candidate = IoCanonicalize(result.design);
      if (mismatches(candidate, step_seed)) {
        result.design = std::move(candidate);
        result.seed = step_seed;
        ++result.steps;
        break;
      }
    }
  }

  // Greedy flow dropping, highest index first so the indices still to be
  // visited stay stable across commits; a second round catches flows
  // that only became droppable after later ones went.
  constexpr int kRounds = 2;
  for (int round = 0; round < kRounds; ++round) {
    bool progress = false;
    for (std::size_t f = result.design.traffic.FlowCount(); f-- > 0;) {
      if (result.design.traffic.FlowCount() <= 1) {
        break;
      }
      std::vector<bool> keep(result.design.traffic.FlowCount(), true);
      keep[f] = false;
      const std::uint64_t step_seed = StepSeed(seed, result.candidates + 1);
      NocDesign candidate = KeepFlows(result.design, keep);
      if (mismatches(candidate, step_seed)) {
        result.design = std::move(candidate);
        result.seed = step_seed;
        ++result.steps;
        progress = true;
      }
    }
    if (!progress) {
      break;
    }
  }

  // Structural prune; renumbers ids, so it is kept only if the
  // mismatch still reproduces on the transformed design.
  {
    const std::uint64_t step_seed = StepSeed(seed, result.candidates + 1);
    NocDesign candidate = PruneUnused(result.design);
    if (mismatches(candidate, step_seed)) {
      result.design = std::move(candidate);
      result.seed = step_seed;
      ++result.steps;
    }
  }
  result.io_stable = IsIoStable(result.design);
  return result;
}

}  // namespace nocdr::valid
