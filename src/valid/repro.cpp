#include "valid/repro.h"


#include "noc/io.h"
#include "sim/simulator.h"
#include "util/canonical.h"
#include "util/error.h"

namespace nocdr::valid {

std::string ReproToJson(const Repro& repro) {
  JsonObject json;
  json.Set("version", 1)
      .Set("trial", repro.trial_index)
      .Set("arm", ArmName(repro.arm))
      .Set("seed", repro.seed)
      .Set("mismatch", repro.mismatch)
      .Set("shrink_steps", repro.shrink_steps)
      .Set("io_stable", repro.io_stable)
      .Set("buffer_depth", repro.workload.buffer_depth)
      .Set("packets_per_flow", repro.workload.packets_per_flow)
      .Set("packet_length", repro.workload.packet_length)
      .Set("max_cycles", repro.workload.max_cycles)
      .Set("stall_threshold", repro.workload.stall_threshold)
      .Set("max_escalations", repro.workload.max_escalations)
      .Set("engine", EngineName(repro.workload.engine))
      .Set("design", DesignText(repro.design));
  return json.Dump();
}

Repro ReproFromJson(const std::string& json) {
  const JsonValue value = JsonValue::Parse(json);
  Require(value.At("version").AsUint() == 1,
          "ReproFromJson: unsupported repro version");
  Repro repro;
  repro.trial_index = value.At("trial").AsUint();
  const std::string arm_name = value.At("arm").AsString();
  const auto arm = ParseArm(arm_name);
  Require(arm.has_value(), "ReproFromJson: unknown arm \"", arm_name, "\"");
  repro.arm = *arm;
  repro.seed = value.At("seed").AsUint();
  repro.mismatch = value.At("mismatch").AsString();
  repro.shrink_steps = value.At("shrink_steps").AsUint();
  repro.io_stable = value.At("io_stable").AsBool();
  repro.workload.buffer_depth =
      static_cast<std::uint16_t>(value.At("buffer_depth").AsUint());
  repro.workload.packets_per_flow =
      static_cast<std::uint32_t>(value.At("packets_per_flow").AsUint());
  repro.workload.packet_length =
      static_cast<std::uint16_t>(value.At("packet_length").AsUint());
  repro.workload.max_cycles = value.At("max_cycles").AsUint();
  repro.workload.stall_threshold = value.At("stall_threshold").AsUint();
  repro.workload.max_escalations = value.At("max_escalations").AsUint();
  const std::string engine_name = value.At("engine").AsString();
  const auto engine = ParseEngine(engine_name);
  Require(engine.has_value(),
          "ReproFromJson: unknown sim engine \"", engine_name, "\"");
  repro.workload.engine = *engine;
  repro.design = ReadDesign(value.At("design").AsString());
  return repro;
}

ReplayResult ReplayRepro(const Repro& repro) {
  ReplayResult result;
  result.row =
      ClassifyTrial(repro.design, repro.arm, repro.workload, repro.seed);
  result.row.trial_index = repro.trial_index;
  result.reproduced = result.row.verdict == TrialVerdict::kMismatch;
  return result;
}

}  // namespace nocdr::valid
