// sim_traffic: SimulateWorkload(design, config) on removal-treated
// torus 16x16 designs generated during setup, with the simulator's
// default engine.
//
//   heavy: campaign-style fixed-count pressure (one-flit buffers, every
//          flow injecting at once); stepping dominates.
//   light: sparse Bernoulli steady state on the same designs; most
//          cycles are idle and TrafficSchedule synthesis dominates.
#include <optional>

#include "deadlock/removal.h"
#include "gen/generators.h"
#include "obs/trace.h"
#include "sim/simulator.h"
#include "util/digest.h"
#include "workload.h"

namespace perfbench {
namespace {

using namespace nocdr;

constexpr std::size_t kTorusSide = 16;
// Heavy op latency depends on the design's seeded traffic; four designs
// keep one design from setting a run's median.
constexpr std::size_t kDesigns = 4;

SimConfig HeavyConfig(std::uint64_t seed) {
  // valid/campaign's default WorkloadConfig pressure.
  SimConfig config;
  config.buffer_depth = 1;
  config.max_cycles = 200000;
  config.stall_threshold = 2000;
  config.traffic.mode = InjectionMode::kFixedCount;
  config.traffic.packets_per_flow = 4;
  config.traffic.packet_length = 8;
  config.traffic.seed = seed;
  return config;
}

SimConfig LightConfig(std::uint64_t seed) {
  SimConfig config;
  config.max_cycles = 5000;
  config.traffic.mode = InjectionMode::kBernoulli;
  config.traffic.reference_injection_rate = 0.0001;
  config.traffic.seed = seed;
  return config;
}

std::uint64_t FlitHops(const SimResult& result) {
  std::uint64_t hops = 0;
  for (const std::uint64_t flits : result.channel_flits) {
    hops += flits;
  }
  return hops;
}

std::uint64_t ResultDigest(const SimResult& r) {
  std::uint64_t h = kFnvOffsetBasis;
  DigestField(h, r.cycles);
  DigestField(h, r.packets_offered);
  DigestField(h, r.packets_injected);
  DigestField(h, r.packets_delivered);
  DigestField(h, r.flits_delivered);
  DigestField(h, static_cast<std::uint64_t>(r.deadlocked));
  DigestField(h, r.stuck_flits);
  DigestField(h, r.max_packet_latency);
  DigestField(h, static_cast<std::uint64_t>(r.avg_packet_latency * 1e6));
  for (const FlowStats& flow : r.flows) {
    DigestField(h, flow.packets_delivered);
    DigestField(h, flow.max_latency);
  }
  for (const std::uint64_t flits : r.channel_flits) {
    DigestField(h, flits);
  }
  return h;
}

class SimTraffic final : public Workload {
 public:
  explicit SimTraffic(std::uint64_t seed) : seed_(seed) {}

  void Setup() override {
    designs_.clear();
    for (std::size_t i = 0; i < kDesigns; ++i) {
      gen::GeneratorSpec spec;
      spec.family = gen::TopologyFamily::kTorus2D;
      spec.width = kTorusSide;
      spec.height = kTorusSide;
      spec.seed = MixSeed(seed_, 30, i);
      NocDesign design = gen::GenerateStandardDesign(spec);
      RemoveDeadlocks(design);
      designs_.push_back(std::move(design));
    }
  }

  void Prepare(OpClass cls) override {
    const std::size_t index = prepared_[Slot(cls)]++;
    const std::uint64_t op_seed = MixSeed(seed_, 31 + Slot(cls), index);
    design_ = &designs_[index % designs_.size()];
    config_ = cls == OpClass::kHeavy ? HeavyConfig(op_seed)
                                     : LightConfig(op_seed);
  }

  std::string Run(OpClass) override {
    result_ = SimulateWorkload(*design_, config_);
    return "";
  }

  std::string Check(OpClass cls) override {
    if (checked_[Slot(cls)]++ <= kDigestOpsPerClass) {
      DigestField(digest_, ResultDigest(result_));
    }
    if (result_.deadlocked) {
      return std::string(ClassName(cls)) + " op: a treated design deadlocked";
    }
    if (config_.traffic.mode == InjectionMode::kFixedCount &&
        !result_.AllDelivered()) {
      return "heavy op: fixed-count run delivered " +
             std::to_string(result_.packets_delivered) + " of " +
             std::to_string(result_.packets_offered) + " packets";
    }
    return "";
  }

  // SimulateWorkload's two phases as public calls: schedule synthesis,
  // then stepping the engine on that schedule.
  std::string Breakdown(OpClass) override {
    std::optional<TrafficSchedule> schedule;
    {
      obs::ScopedSpan span("sim.schedule");
      schedule.emplace(*design_, config_.traffic, config_.max_cycles);
    }
    SimResult stepped;
    {
      obs::ScopedSpan span("sim.step");
      stepped = SimulateWorkload(*design_, config_, *schedule);
      span.Attr("cycles", stepped.cycles);
      span.Attr("flit_hops", FlitHops(stepped));
      span.Attr("packets_delivered", stepped.packets_delivered);
    }
    if (ResultDigest(stepped) != ResultDigest(result_)) {
      return "sim breakdown disagrees with SimulateWorkload";
    }
    return "";
  }

  [[nodiscard]] const char* OpSpanName() const override {
    return "sim.simulate";
  }

  [[nodiscard]] std::uint64_t Digest() const override { return digest_; }

  void Report(JsonObject&) const override {}

 private:
  static std::size_t Slot(OpClass cls) { return static_cast<std::size_t>(cls); }

  const std::uint64_t seed_;
  std::vector<NocDesign> designs_;
  const NocDesign* design_ = nullptr;
  SimConfig config_;
  SimResult result_;
  std::size_t prepared_[2] = {0, 0};
  std::size_t checked_[2] = {0, 0};
  std::uint64_t digest_ = kFnvOffsetBasis;
};

}  // namespace

std::unique_ptr<Workload> MakeSimTraffic(std::uint64_t seed, bool) {
  return std::make_unique<SimTraffic>(seed);
}

}  // namespace perfbench
