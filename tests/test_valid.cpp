// Validation campaign engine: the four-way contract, thread-count
// determinism, the shrinker and replayable repro dumps.
#include <gtest/gtest.h>

#include <algorithm>

#include "cdg/cdg.h"
#include "deadlock/removal.h"
#include "test_helpers.h"
#include "util/error.h"
#include "valid/campaign.h"
#include "valid/repro.h"
#include "valid/shrink.h"

namespace nocdr {
namespace {

valid::CampaignConfig SmallCampaign() {
  valid::CampaignConfig cfg;
  cfg.trials = 24;
  cfg.base_seed = 5;
  return cfg;
}

TEST(ArmTest, NamesRoundTrip) {
  for (const valid::TrialArm arm : valid::AllArms()) {
    const auto parsed = valid::ParseArm(valid::ArmName(arm));
    ASSERT_TRUE(parsed.has_value()) << valid::ArmName(arm);
    EXPECT_EQ(*parsed, arm);
  }
  EXPECT_FALSE(valid::ParseArm("no_such_arm").has_value());
}

TEST(SourceTest, NamesRoundTrip) {
  for (const valid::DesignSource source : valid::AllSources()) {
    const auto parsed = valid::ParseSource(valid::SourceName(source));
    ASSERT_TRUE(parsed.has_value()) << valid::SourceName(source);
    EXPECT_EQ(*parsed, source);
  }
  EXPECT_FALSE(valid::ParseSource("no_such_source").has_value());
}

TEST(GenerateTrialDesignTest, DeterministicAndValid) {
  const valid::DesignEnvelope envelope;
  for (std::uint64_t seed = 1; seed <= 20; ++seed) {
    const NocDesign a = valid::GenerateTrialDesign(seed, envelope);
    const NocDesign b = valid::GenerateTrialDesign(seed, envelope);
    a.Validate();
    EXPECT_EQ(a.name, b.name);
    EXPECT_EQ(a.topology.ChannelCount(), b.topology.ChannelCount());
    EXPECT_EQ(a.traffic.FlowCount(), b.traffic.FlowCount());
    EXPECT_GE(a.traffic.CoreCount(), envelope.min_cores);
    EXPECT_LE(a.traffic.CoreCount(), envelope.max_cores);
  }
}

TEST(GenerateTrialDesignTest, EverySourceIsDeterministicAndValid) {
  const valid::DesignEnvelope envelope;
  for (const valid::DesignSource source : valid::AllSources()) {
    for (std::uint64_t seed = 1; seed <= 8; ++seed) {
      const NocDesign a = valid::GenerateTrialDesign(source, seed, envelope);
      const NocDesign b = valid::GenerateTrialDesign(source, seed, envelope);
      a.Validate();
      EXPECT_EQ(a.name, b.name) << valid::SourceName(source);
      EXPECT_EQ(a.topology.ChannelCount(), b.topology.ChannelCount());
      EXPECT_EQ(a.traffic.FlowCount(), b.traffic.FlowCount());
    }
  }
}

TEST(CampaignTest, SmallCampaignHasNoMismatches) {
  const auto result = valid::RunCampaign(SmallCampaign());
  ASSERT_EQ(result.rows.size(), 24u);
  EXPECT_EQ(result.Mismatches(), 0u);
  const std::size_t decided =
      result.Count(valid::TrialVerdict::kPositiveDelivered) +
      result.Count(valid::TrialVerdict::kNegativeDetonated) +
      result.Count(valid::TrialVerdict::kArmInfeasible);
  EXPECT_EQ(decided, 24u);
  for (const auto& row : result.rows) {
    EXPECT_TRUE(row.mismatch.empty()) << row.mismatch;
    EXPECT_TRUE(row.repro_json.empty());
    // Only up*/down* may sit a design out, and only for lack of
    // bidirectional connectivity.
    if (row.verdict == valid::TrialVerdict::kArmInfeasible) {
      EXPECT_EQ(row.arm, valid::TrialArm::kUpDown);
    }
  }
}

TEST(CampaignTest, EveryGeneratedSourceRunsCleanly) {
  for (const valid::DesignSource source :
       {valid::DesignSource::kMesh, valid::DesignSource::kTorus,
        valid::DesignSource::kRing, valid::DesignSource::kFatTree}) {
    valid::CampaignConfig cfg = SmallCampaign();
    cfg.trials = 10;
    cfg.sources = {source};
    const auto result = valid::RunCampaign(cfg);
    EXPECT_EQ(result.Mismatches(), 0u) << valid::SourceName(source);
    for (const auto& row : result.rows) {
      EXPECT_EQ(row.source, source);
      EXPECT_TRUE(row.mismatch.empty())
          << valid::SourceName(source) << ": " << row.mismatch;
    }
  }
}

TEST(CampaignTest, DigestIdenticalAcrossThreadCounts) {
  valid::CampaignConfig cfg = SmallCampaign();
  cfg.threads = 1;
  const auto serial = valid::RunCampaign(cfg);
  cfg.threads = 2;
  const auto two = valid::RunCampaign(cfg);
  cfg.threads = 8;
  const auto eight = valid::RunCampaign(cfg);
  EXPECT_EQ(serial.digest, two.digest);
  EXPECT_EQ(serial.digest, eight.digest);
  EXPECT_EQ(serial.digest, Digest(serial.rows));
}

TEST(CampaignTest, EngineDifferentialCampaignRunsClean) {
  // The engine matrix cross-checks every trial field-for-field, event
  // against the fullscan reference; with bit-identical engines the rows
  // must match the plain default-engine campaign exactly (same digest),
  // with zero divergences, at any thread count.
  valid::CampaignConfig cfg = SmallCampaign();
  cfg.engines = {SimEngine::kEvent, SimEngine::kFullScan};
  const auto differential = valid::RunCampaign(cfg);
  EXPECT_EQ(differential.Mismatches(), 0u);
  for (const auto& row : differential.rows) {
    EXPECT_NE(row.mismatch_kind, valid::MismatchKind::kEngineDivergence)
        << row.mismatch;
  }

  const valid::CampaignConfig plain = SmallCampaign();
  const auto single = valid::RunCampaign(plain);
  EXPECT_EQ(differential.digest, single.digest);

  cfg.threads = 1;
  const auto serial = valid::RunCampaign(cfg);
  EXPECT_EQ(serial.digest, differential.digest);
}

TEST(CampaignTest, RunTrialEnginesMatchesSingleEngineTrial) {
  const NocDesign ring = testing::MakeRingDesign(6, 2);
  valid::WorkloadConfig workload;
  workload.engine = SimEngine::kEvent;  // overridden by engines[0]
  const valid::TrialRow differential = valid::RunTrialEngines(
      ring, valid::TrialArm::kUntreated, workload,
      {SimEngine::kFullScan, SimEngine::kEvent}, 9,
      /*shrink=*/false);
  valid::WorkloadConfig primary = workload;
  primary.engine = SimEngine::kFullScan;
  const valid::TrialRow single =
      valid::ClassifyTrial(ring, valid::TrialArm::kUntreated, primary, 9);
  EXPECT_EQ(differential.verdict, single.verdict);
  EXPECT_EQ(differential.cycles, single.cycles);
  EXPECT_EQ(differential.mismatch_kind, valid::MismatchKind::kNone);
  EXPECT_TRUE(differential.mismatch.empty()) << differential.mismatch;
}

TEST(CampaignTest, ArmsShareTheSameDesign) {
  const auto result = valid::RunCampaign(SmallCampaign());
  // Trials come in groups (one per arm) over one design.
  const std::size_t arms = valid::AllArms().size();
  for (std::size_t g = 0; g + arms - 1 < result.rows.size(); g += arms) {
    for (std::size_t k = 1; k < arms; ++k) {
      EXPECT_EQ(result.rows[g].design_seed, result.rows[g + k].design_seed);
      EXPECT_EQ(result.rows[g].design, result.rows[g + k].design);
      EXPECT_EQ(result.rows[g].source, result.rows[g + k].source);
      EXPECT_EQ(result.rows[g].channels_before,
                result.rows[g + k].channels_before);
    }
  }
}

TEST(CampaignTest, UpDownInfeasibleOnUnidirectionalRing) {
  // The test-helper ring has no reverse links, so up*/down* cannot serve
  // it; that is an kArmInfeasible verdict, not a contract mismatch.
  const NocDesign ring = testing::MakeRingDesign(6, 2);
  const valid::WorkloadConfig workload;
  const valid::TrialRow row =
      valid::ClassifyTrial(ring, valid::TrialArm::kUpDown, workload, 9);
  EXPECT_EQ(row.verdict, valid::TrialVerdict::kArmInfeasible);
  EXPECT_TRUE(row.mismatch.empty());
  EXPECT_EQ(row.channels_after, row.channels_before);
}

TEST(CampaignTest, UntreatedRingDetonatesOnCdgCycle) {
  const NocDesign ring = testing::MakeRingDesign(6, 2);
  const valid::WorkloadConfig workload;
  const valid::TrialRow row =
      valid::ClassifyTrial(ring, valid::TrialArm::kUntreated, workload, 9);
  EXPECT_EQ(row.verdict, valid::TrialVerdict::kNegativeDetonated);
  EXPECT_FALSE(row.certified_free);
  EXPECT_TRUE(row.sim_deadlocked);
}

TEST(CampaignTest, TreatedRingDeliversEverything) {
  const NocDesign ring = testing::MakeRingDesign(6, 2);
  const valid::WorkloadConfig workload;
  for (const valid::TrialArm arm :
       {valid::TrialArm::kRemovalIncremental,
        valid::TrialArm::kRemovalRebuild,
        valid::TrialArm::kResourceOrdering}) {
    const valid::TrialRow row =
        valid::ClassifyTrial(ring, arm, workload, 9);
    EXPECT_EQ(row.verdict, valid::TrialVerdict::kPositiveDelivered)
        << valid::ArmName(arm) << ": " << row.mismatch;
    EXPECT_TRUE(row.certified_free);
    EXPECT_TRUE(row.certificate_checked);
    EXPECT_TRUE(row.all_delivered);
  }
}

/// A workload too strangled to ever detonate: zero escalations, a
/// two-cycle budget and a watchdog that never fires. Combined with
/// MakeApproachRingDesign (whose circular wait needs more than two
/// cycles to form, unlike a plain ring's instant cycle-0 deadlock),
/// this guarantees a deterministic kNoDetonation mismatch — which is
/// how the shrinker and repro paths get exercised.
valid::WorkloadConfig UndetonatableWorkload() {
  valid::WorkloadConfig workload;
  workload.max_cycles = 2;
  workload.stall_threshold = std::uint64_t{1} << 40;
  workload.max_escalations = 0;
  return workload;
}

/// A unidirectional n-ring whose flows reach it through one private
/// access link each (routes [access_i, ring_i, ring_{i+1}]), plus
/// \p extra_flows access-only flows that carry no CDG-cycle edge. The
/// CDG contains the full ring cycle, but at cycle 0 every head sits in
/// its private access channel, so no circular wait exists yet.
NocDesign MakeApproachRingDesign(std::size_t n, std::size_t extra_flows) {
  NocDesign d;
  d.name = "approach_ring" + std::to_string(n);
  std::vector<SwitchId> ring_sw, access_sw;
  for (std::size_t i = 0; i < n; ++i) {
    ring_sw.push_back(d.topology.AddSwitch());
  }
  for (std::size_t i = 0; i < n; ++i) {
    access_sw.push_back(d.topology.AddSwitch());
  }
  std::vector<ChannelId> ring, access;
  for (std::size_t i = 0; i < n; ++i) {
    ring.push_back(*d.topology.FindChannel(
        d.topology.AddLink(ring_sw[i], ring_sw[(i + 1) % n]), 0));
  }
  for (std::size_t i = 0; i < n; ++i) {
    access.push_back(*d.topology.FindChannel(
        d.topology.AddLink(access_sw[i], ring_sw[i]), 0));
  }
  std::vector<Route> routes;
  for (std::size_t i = 0; i < n; ++i) {
    const CoreId src = d.traffic.AddCore(), dst = d.traffic.AddCore();
    d.attachment.push_back(access_sw[i]);
    d.attachment.push_back(ring_sw[(i + 2) % n]);
    d.traffic.AddFlow(src, dst, 50.0);
    routes.push_back({access[i], ring[i], ring[(i + 1) % n]});
  }
  for (std::size_t i = 0; i < extra_flows; ++i) {
    const CoreId src = d.traffic.AddCore(), dst = d.traffic.AddCore();
    d.attachment.push_back(access_sw[i % n]);
    d.attachment.push_back(ring_sw[i % n]);
    d.traffic.AddFlow(src, dst, 25.0);
    routes.push_back({access[i % n]});
  }
  d.routes.Resize(routes.size());
  for (std::size_t i = 0; i < routes.size(); ++i) {
    d.routes.SetRoute(FlowId(i), std::move(routes[i]));
  }
  d.Validate();
  return d;
}

TEST(ShrinkTest, KeepFlowsDropsFlowsAndPreservesValidity) {
  const NocDesign ring = testing::MakeRingDesign(6, 2);
  std::vector<bool> keep(ring.traffic.FlowCount(), true);
  keep[0] = false;
  keep[3] = false;
  const NocDesign kept = valid::KeepFlows(ring, keep);
  kept.Validate();
  EXPECT_EQ(kept.traffic.FlowCount(), ring.traffic.FlowCount() - 2);
  EXPECT_EQ(kept.topology.ChannelCount(), ring.topology.ChannelCount());
  // The second kept flow is the original flow 2.
  EXPECT_EQ(kept.routes.RouteOf(FlowId(1)), ring.routes.RouteOf(FlowId(2)));
}

TEST(ShrinkTest, PruneUnusedDropsUntouchedStructure) {
  // Keep only one 2-hop flow of a 6-ring: pruning must shrink the
  // topology to that flow's corridor.
  const NocDesign ring = testing::MakeRingDesign(6, 2);
  std::vector<bool> keep(ring.traffic.FlowCount(), false);
  keep[0] = true;
  const NocDesign kept = valid::KeepFlows(ring, keep);
  const NocDesign pruned = valid::PruneUnused(kept);
  pruned.Validate();
  EXPECT_EQ(pruned.traffic.FlowCount(), 1u);
  EXPECT_EQ(pruned.topology.LinkCount(), 2u);
  EXPECT_EQ(pruned.topology.SwitchCount(), 3u);
  EXPECT_EQ(pruned.traffic.CoreCount(), 2u);
  EXPECT_EQ(pruned.routes.RouteOf(FlowId(0)).size(), 2u);
}

TEST(ShrinkTest, MismatchShrinksToTheCycleCore) {
  // Under the undetonatable workload the negative certificate cannot
  // detonate, producing a deterministic kNoDetonation mismatch; the
  // shrinker must keep that exact kind while dropping the access-only
  // flows and pruning their structure.
  const NocDesign design = MakeApproachRingDesign(6, 5);
  const valid::WorkloadConfig workload = UndetonatableWorkload();
  const valid::TrialRow row = valid::ClassifyTrial(
      design, valid::TrialArm::kUntreated, workload, 11);
  ASSERT_EQ(row.verdict, valid::TrialVerdict::kMismatch);
  ASSERT_EQ(row.mismatch_kind, valid::MismatchKind::kNoDetonation);

  const valid::ShrinkResult shrunk = valid::ShrinkMismatch(
      design, valid::TrialArm::kUntreated, workload, 11);
  // The five access-only flows carry no cycle edge and must go.
  EXPECT_LE(shrunk.design.traffic.FlowCount(), 6u);
  EXPECT_GT(shrunk.steps, 0u);
  // The shrunk design still mismatches the same way under its recorded
  // seed.
  const valid::TrialRow again = valid::ClassifyTrial(
      shrunk.design, valid::TrialArm::kUntreated, workload, shrunk.seed);
  EXPECT_EQ(again.verdict, valid::TrialVerdict::kMismatch);
  EXPECT_EQ(again.mismatch_kind, valid::MismatchKind::kNoDetonation);
  // And it still needs a CDG cycle to mismatch this way.
  EXPECT_FALSE(IsDeadlockFree(shrunk.design));
  // The reproducer survives the io text round trip unchanged, so the
  // dump replays against exactly this design.
  EXPECT_TRUE(shrunk.io_stable);
}

TEST(ReproTest, DumpReplayRoundTrip) {
  const NocDesign ring = MakeApproachRingDesign(6, 3);
  const valid::WorkloadConfig workload = UndetonatableWorkload();
  const valid::TrialRow row = valid::RunTrial(
      ring, valid::TrialArm::kUntreated, workload, 11, /*shrink=*/true);
  ASSERT_EQ(row.verdict, valid::TrialVerdict::kMismatch);
  ASSERT_FALSE(row.repro_json.empty());

  const valid::Repro repro = valid::ReproFromJson(row.repro_json);
  EXPECT_EQ(repro.arm, valid::TrialArm::kUntreated);
  EXPECT_EQ(repro.workload.max_cycles, workload.max_cycles);
  EXPECT_EQ(repro.mismatch, row.mismatch);
  repro.design.Validate();

  const valid::ReplayResult replay = valid::ReplayRepro(repro);
  EXPECT_TRUE(replay.reproduced) << replay.row.mismatch;
  EXPECT_EQ(replay.row.mismatch, row.mismatch);

  // The dump itself round-trips byte-identically.
  valid::Repro reparsed = valid::ReproFromJson(valid::ReproToJson(repro));
  EXPECT_EQ(valid::ReproToJson(reparsed), valid::ReproToJson(repro));
}

TEST(ReproTest, EveryEngineRoundTrips) {
  // A mismatch found on any engine must replay on that same engine. A
  // dump naming an unknown engine, including the retired "worklist",
  // is rejected rather than replayed on some other engine.
  valid::Repro repro;
  repro.design = MakeApproachRingDesign(4, 0);
  for (const SimEngine engine : AllEngines()) {
    repro.workload.engine = engine;
    const std::string json = valid::ReproToJson(repro);
    EXPECT_EQ(valid::ReproFromJson(json).workload.engine, engine)
        << EngineName(engine);

    const std::string field = "\"engine\":\"" + EngineName(engine) + "\"";
    const std::size_t at = json.find(field);
    ASSERT_NE(at, std::string::npos) << json;
    for (const char* name : {"warp", "worklist"}) {
      std::string unknown = json;
      unknown.replace(at, field.size(),
                      std::string("\"engine\":\"") + name + "\"");
      EXPECT_THROW(valid::ReproFromJson(unknown), InvalidModelError) << name;
    }
  }
}

TEST(ReproTest, MalformedJsonThrows) {
  EXPECT_THROW(valid::ReproFromJson("{"), InvalidModelError);
  EXPECT_THROW(valid::ReproFromJson("{\"version\":2}"), InvalidModelError);
}

TEST(CampaignTest, RowToJsonCarriesVerdict) {
  valid::TrialRow row;
  row.design = "d";
  row.verdict = valid::TrialVerdict::kNegativeDetonated;
  const std::string dump = RowToJson(row).Dump();
  EXPECT_NE(dump.find("\"verdict\":\"negative_detonated\""),
            std::string::npos);
  EXPECT_EQ(dump.find("\"mismatch\""), std::string::npos);
}

TEST(CampaignTest, FirstDifferenceNamesTheFirstFieldInDigestOrder) {
  valid::TrialRow a;
  a.cycles = 11;
  a.verdict = valid::TrialVerdict::kPositiveDelivered;
  valid::TrialRow b = a;
  EXPECT_EQ(FirstDifference(a, b), "");
  b.run_ms = 5.0;  // wall clock is not compared
  EXPECT_EQ(FirstDifference(a, b), "");
  b.verdict = valid::TrialVerdict::kNegativeDetonated;
  EXPECT_EQ(FirstDifference(a, b),
            "verdict (\"positive_delivered\" vs \"negative_detonated\")");
  b.cycles = 12;
  EXPECT_EQ(FirstDifference(a, b), "cycles (11 vs 12)");
}

TEST(CampaignTest, DigestReactsToOutcomeChanges) {
  const auto result = valid::RunCampaign(SmallCampaign());
  auto rows = result.rows;
  const std::uint64_t digest = Digest(rows);
  rows[0].cycles += 1;
  EXPECT_NE(digest, Digest(rows));
  rows[0].cycles -= 1;
  rows[0].run_ms += 1000.0;  // timings are excluded
  rows[0].repro_json = "{}";  // so is the repro dump
  EXPECT_EQ(digest, Digest(rows));
}

// The digest format is pinned: a change to any field's encoding, order
// or coverage moves these values. Every campaign digest printed by the
// benches and gated by the perf baselines rests on the same format.
TEST(DigestFormatTest, SmallCampaignDigestIsPinned) {
  EXPECT_EQ(valid::RunCampaign(SmallCampaign()).digest, 0xad124339158c6e28ull);
}

TEST(DigestFormatTest, FullTrialRowIsPinned) {
  valid::TrialRow row;
  row.trial_index = 3;
  row.design_seed = 0x123456789abcdef0ull;
  row.design = "ring6";
  row.source = valid::DesignSource::kTorus;
  row.arm = valid::TrialArm::kUpDown;
  row.switches = 6;
  row.links = 7;
  row.flows = 8;
  row.channels_before = 9;
  row.channels_after = 10;
  row.certified_free = true;
  row.certificate_checked = true;
  row.sim_deadlocked = true;
  row.all_delivered = true;
  row.cycles = 11;
  row.packets_offered = 12;
  row.packets_delivered = 13;
  row.escalations = 2;
  row.verdict = valid::TrialVerdict::kNegativeDetonated;
  row.mismatch_kind = valid::MismatchKind::kNoDetonation;
  row.mismatch = "no detonation";
  row.shrink_flows_kept = 4;
  row.shrink_steps = 5;
  row.run_ms = 12.5;
  EXPECT_EQ(Digest(std::vector{row}), 0x1ef66ea0bc9c4bd9ull);
  const std::map<std::string, std::string> expected = {
      {"trial", "3"},
      {"design_seed", "1311768467463790320"},
      {"design", "\"ring6\""},
      {"source", "\"torus\""},
      {"arm", "\"updown\""},
      {"switches", "6"},
      {"links", "7"},
      {"flows", "8"},
      {"channels_before", "9"},
      {"channels_after", "10"},
      {"certified_free", "true"},
      {"certificate_checked", "true"},
      {"sim_deadlocked", "true"},
      {"all_delivered", "true"},
      {"cycles", "11"},
      {"packets_offered", "12"},
      {"packets_delivered", "13"},
      {"escalations", "2"},
      {"verdict", "\"negative_detonated\""},
      {"mismatch", "\"no detonation\""},
      {"mismatch_kind", "10"},
      {"shrink_flows_kept", "4"},
      {"shrink_steps", "5"},
      {"run_ms", "12.500000"},
  };
  EXPECT_EQ(testing::JsonMembers(RowToJson(row).Dump()), expected);
}

}  // namespace
}  // namespace nocdr
