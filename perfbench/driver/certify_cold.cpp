// certify_cold: stateless CertificationService::Serve on problems the
// service has never seen, so every request runs the whole pipeline
// (materialize -> canonicalize -> remove -> certify -> serialize) and
// the cache never hits.
//
//   heavy: a generator-spec torus 16x16; materialize, and in it
//          ValidateNextHopTable, dominates.
//   light: an application-specific synthetic SoC sent as design text,
//          on cores/3 switches; parse, canonicalize and removal share
//          it, with no routing table.
#include <sstream>

#include "deadlock/removal.h"
#include "deadlock/verify.h"
#include "gen/generators.h"
#include "noc/io.h"
#include "obs/trace.h"
#include "serve/service.h"
#include "soc/synthetic.h"
#include "synth/route_builder.h"
#include "synth/synthesizer.h"
#include "util/canonical.h"
#include "workload.h"

namespace perfbench {
namespace {

using namespace nocdr;

constexpr std::size_t kTorusSide = 16;
// The removal defect "realized VC count differs from predicted cost"
// (README.md) fires on 2.7% of these synthetic SoCs at 192 cores, 1% at
// 144, 0.23% at 120 and 0.1% at 96; none of 4500 at 72 cores hit it.
constexpr std::size_t kSocCores = 72;

gen::GeneratorSpec TorusSpec(std::uint64_t seed) {
  gen::GeneratorSpec spec;
  spec.family = gen::TopologyFamily::kTorus2D;
  spec.width = kTorusSide;
  spec.height = kTorusSide;
  spec.seed = seed;
  return spec;
}

std::string SocText(std::uint64_t seed) {
  SyntheticSocSpec spec;
  spec.cores = kSocCores;
  spec.seed = seed;
  const SocBenchmark soc = MakeSyntheticSoc(spec);
  return DesignText(SynthesizeDesign(soc.traffic, soc.name, kSocCores / 3));
}

class CertifyCold final : public Workload {
 public:
  explicit CertifyCold(std::uint64_t seed) : seed_(seed) {}

  void Setup() override {
    service_ = std::make_unique<serve::CertificationService>();
  }

  [[nodiscard]] bool WarmupInSetup() const override { return true; }

  void Prepare(OpClass cls) override {
    const std::size_t index = prepared_[Slot(cls)]++;
    const std::uint64_t op_seed = MixSeed(seed_, Slot(cls), index);
    request_ = serve::CertRequest{};
    request_.id = std::string(ClassName(cls)) + std::to_string(index);
    request_.return_design = true;
    if (cls == OpClass::kHeavy) {
      request_.kind = serve::RequestKind::kGeneratorSpec;
      request_.generator = TorusSpec(op_seed);
    } else {
      request_.kind = serve::RequestKind::kDesignText;
      request_.design_text = SocText(op_seed);
    }
  }

  std::string Run(OpClass) override {
    response_ = service_->Serve(request_);
    return response_.status == serve::ServeStatus::kOk
               ? ""
               : serve::ErrorCodeName(response_.error.code);
  }

  std::string Check(OpClass cls) override {
    if (checked_[Slot(cls)]++ <= kDigestOpsPerClass) {
      digested_.push_back(response_);
    }
    if (response_.status != serve::ServeStatus::kOk) {
      return "";  // an error answer is a failed op, not a wrong output
    }
    if (response_.cache_outcome != serve::CacheOutcome::kComputed) {
      return request_.id + ": served from the cache, not computed";
    }
    if (!response_.deadlock_free) {
      return request_.id + ": response is not deadlock_free";
    }
    std::istringstream in(response_.treated_design_text);
    const NocDesign treated = ReadDesign(in);
    if (!IsDeadlockFree(treated)) {
      return request_.id + ": treated_design_text has a CDG cycle";
    }
    if (treated.topology.ChannelCount() != response_.channels_after) {
      return request_.id + ": treated_design_text has " +
             std::to_string(treated.topology.ChannelCount()) +
             " channels, channels_after says " +
             std::to_string(response_.channels_after);
    }
    return "";
  }

  // Serve's pipeline, call for call: MaterializeDesign (generate or
  // parse), CanonicalizeDesign, then ComputeCertification's
  // RemoveDeadlocks, CertifyDeadlockFreedom and serialization.
  std::string Breakdown(OpClass cls) override {
    NocDesign design;
    NextHopTable table;
    if (cls == OpClass::kHeavy) {
      obs::ScopedSpan span("gen.materialize");
      design = gen::GenerateStandardDesign(request_.generator, &table);
    } else {
      obs::ScopedSpan span("noc.parse");
      std::istringstream in(request_.design_text);
      design = ReadDesign(in);
    }
    CanonicalDesign canonical;
    {
      obs::ScopedSpan span("canonical.canonicalize");
      canonical = CanonicalizeDesign(design);
    }
    NocDesign treated = canonical.design;
    RemovalReport report;
    {
      // RemoveDeadlocks' own cycle_search/score/apply/invalidate stage
      // spans nest under this one.
      obs::ScopedSpan span("deadlock.remove");
      report = RemoveDeadlocks(treated, request_.options);
      span.Attr("iterations", static_cast<std::uint64_t>(report.iterations));
      span.Attr("vcs_added", static_cast<std::uint64_t>(report.vcs_added));
      span.Attr("cycle_bfs_runs",
                static_cast<std::uint64_t>(report.cycle_bfs_runs));
    }
    DeadlockCertificate certificate;
    {
      obs::ScopedSpan span("deadlock.certify");
      certificate = CertifyDeadlockFreedom(treated);
    }
    std::string certificate_json;
    std::string text;
    {
      obs::ScopedSpan span("deadlock.serialize");
      certificate_json = CertificateToJson(certificate);
      text = DesignText(treated);
      span.Attr("payload_bytes", static_cast<std::uint64_t>(
                                     certificate_json.size() + text.size()));
    }
    if (cls == OpClass::kHeavy) {
      // Standalone repeats of the two table passes inside
      // gen.materialize: their share of it, not further pipeline steps.
      {
        obs::ScopedSpan span("synth.validate_table");
        ValidateNextHopTable(design.topology, table);
      }
      obs::ScopedSpan span("synth.table_routes");
      BuildTableRoutes(design.topology, design.traffic, design.attachment,
                       table);
    }
    if (response_.status != serve::ServeStatus::kOk) {
      return "";
    }
    if (report.iterations != response_.iterations ||
        report.vcs_added != response_.vcs_added ||
        certificate_json != response_.certificate_json ||
        text != response_.treated_design_text) {
      return request_.id + ": breakdown pipeline disagrees with Serve";
    }
    return "";
  }

  [[nodiscard]] const char* OpSpanName() const override {
    return "serve.request";
  }

  [[nodiscard]] std::uint64_t Digest() const override {
    return serve::ResponseDigest(digested_);
  }

  void Report(JsonObject& out) const override {
    const serve::ServiceStats stats = service_->Stats();
    out.Set("cache_hits", stats.hits).Set("computations", stats.computations);
  }

 private:
  static std::size_t Slot(OpClass cls) { return static_cast<std::size_t>(cls); }

  const std::uint64_t seed_;
  std::unique_ptr<serve::CertificationService> service_;
  serve::CertRequest request_;
  serve::CertResponse response_;
  std::size_t prepared_[2] = {0, 0};
  std::size_t checked_[2] = {0, 0};
  std::vector<serve::CertResponse> digested_;
};

}  // namespace

std::unique_ptr<Workload> MakeCertifyCold(std::uint64_t seed, bool) {
  return std::make_unique<CertifyCold>(seed);
}

}  // namespace perfbench
