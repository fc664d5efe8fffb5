// src/serve/sched: token-budget admission, the cost model and the live
// service's policy hook — the edge cases nocdr_serve leans on.
#include <gtest/gtest.h>

#include <string>
#include <vector>

#include "gen/generators.h"
#include "noc/io.h"
#include "serve/protocol.h"
#include "serve/service.h"
#include "test_helpers.h"
#include "util/canonical.h"

namespace nocdr {
namespace {

using gen::UnidirectionalRing;
using serve::CertRequest;
using serve::CertResponse;
using serve::CertificationService;
using serve::RequestKind;
using serve::ServeStatus;
using serve::ServiceConfig;
using serve::sched::AdmissionConfig;
using serve::sched::AdmissionController;
using serve::sched::ClassConfig;
using serve::sched::ClassCounters;
using serve::sched::TokenBucket;

// --------------------------------------------------------------- tokens

TEST(SchedTest, TokenBucketRefillsAtRate) {
  // 1 token per 1000 us, capacity 2, starting full at t=0.
  TokenBucket bucket(0.001, 2.0, 0);
  EXPECT_TRUE(bucket.TryTake(1.0, 0));
  EXPECT_TRUE(bucket.TryTake(1.0, 0));
  EXPECT_FALSE(bucket.TryTake(1.0, 0));      // drained
  EXPECT_FALSE(bucket.TryTake(1.0, 500));    // half a token back
  EXPECT_TRUE(bucket.TryTake(1.0, 1500));    // 1.5 back
  EXPECT_FALSE(bucket.TryTake(1.0, 1500));
  // Capacity caps the refill: a long idle gap earns 2, not 10.
  EXPECT_TRUE(bucket.TryTake(2.0, 100000));
  EXPECT_FALSE(bucket.TryTake(0.5, 100000));
}

TEST(SchedTest, AdmissionDisabledCountsButNeverRejects) {
  AdmissionController admission(AdmissionConfig{});
  for (int i = 0; i < 10; ++i) {
    EXPECT_TRUE(admission.TryAdmit("batch", 5, 0));
  }
  const std::vector<ClassCounters> counters = admission.Counters();
  // "default" is auto-added; "batch" accumulated under its own name.
  ASSERT_EQ(counters.size(), 2u);
  EXPECT_EQ(counters[0].name, "default");
  EXPECT_EQ(counters[1].name, "batch");
  EXPECT_EQ(counters[1].requests, 10u);
  EXPECT_EQ(counters[1].admitted, 10u);
  EXPECT_EQ(counters[1].rejected, 0u);
  EXPECT_EQ(counters[1].cost_admitted, 50u);
}

TEST(SchedTest, WeightedClassesSplitTheBudget) {
  AdmissionConfig config;
  config.enabled = true;
  // Weights 3:1 plus the auto-added default class (weight 1) = 5 total;
  // 5 tokens of burst split into capacities 3, 1 and 1.
  config.tokens_per_sec = 5.0;
  config.burst = 5.0;
  config.classes = {ClassConfig{"interactive", 0, 3.0},
                    ClassConfig{"batch", 1, 1.0}};
  AdmissionController admission(config, 0);
  // At t=0 the buckets hold their capacity: 3 and 1.
  int interactive = 0;
  int batch = 0;
  for (int i = 0; i < 4; ++i) {
    interactive += admission.TryAdmit("interactive", 1, 0) ? 1 : 0;
    batch += admission.TryAdmit("batch", 1, 0) ? 1 : 0;
  }
  EXPECT_EQ(interactive, 3);
  EXPECT_EQ(batch, 1);
}

TEST(SchedTest, PriorityClassStarvesLastUnderTokenExhaustion) {
  // The inversion scenario: a flood of low-priority traffic must not
  // consume the high-priority class's budget — per-class buckets keep
  // the urgent class admitting even when "batch" is long exhausted.
  AdmissionConfig config;
  config.enabled = true;
  // urgent:batch:default weigh 3:1:1 -> capacities 6, 2 and 2 of the
  // 10-token burst.
  config.tokens_per_sec = 10.0;
  config.burst = 10.0;
  config.classes = {ClassConfig{"urgent", 0, 3.0}, ClassConfig{"batch", 5, 1.0}};
  AdmissionController admission(config, 0);
  // Exhaust batch's bucket.
  int batch_admitted = 0;
  for (int i = 0; i < 50; ++i) {
    batch_admitted += admission.TryAdmit("batch", 1, 0) ? 1 : 0;
  }
  EXPECT_EQ(batch_admitted, 2);
  // Urgent still has its full share (6 tokens).
  for (int i = 0; i < 6; ++i) {
    EXPECT_TRUE(admission.TryAdmit("urgent", 1, 0));
  }
  EXPECT_FALSE(admission.TryAdmit("urgent", 1, 0));
}

TEST(SchedTest, UnknownClassSharesDefaultBucketButOwnCounters) {
  AdmissionConfig config;
  config.enabled = true;
  config.tokens_per_sec = 2.0;
  config.burst = 2.0;
  AdmissionController admission(config, 0);
  EXPECT_TRUE(admission.TryAdmit("alpha", 1, 0));
  EXPECT_TRUE(admission.TryAdmit("beta", 1, 0));
  EXPECT_FALSE(admission.TryAdmit("alpha", 1, 0));  // shared bucket drained
  const std::vector<ClassCounters> counters = admission.Counters();
  ASSERT_EQ(counters.size(), 3u);
  EXPECT_EQ(counters[0].name, "default");
  EXPECT_EQ(counters[0].requests, 0u);
  EXPECT_EQ(counters[1].name, "alpha");
  EXPECT_EQ(counters[1].requests, 2u);
  EXPECT_EQ(counters[1].rejected, 1u);
  EXPECT_EQ(counters[2].name, "beta");
  EXPECT_EQ(counters[2].admitted, 1u);
}

// ------------------------------------------------------------ cost model

TEST(SchedTest, EstimateCostGrowsWithDesignSize) {
  const NocDesign small = UnidirectionalRing(4, 2);
  const NocDesign large = UnidirectionalRing(12, 8);
  EXPECT_GT(serve::sched::EstimateCost(large),
            serve::sched::EstimateCost(small));
  EXPECT_GE(serve::sched::EstimateCost(0, 0), 1u);  // never zero
}

// ----------------------------------------------- live service rejection

/// Requests naming distinct designs, so each is a cache miss that must
/// pass admission.
CertRequest RingRequest(const std::string& id, std::size_t nodes) {
  CertRequest request;
  request.id = id;
  request.kind = RequestKind::kDesignText;
  request.design_text = DesignText(UnidirectionalRing(nodes, 2));
  return request;
}

TEST(SchedTest, TokenRejectionIsStructuredOverloadedForV1AndV2) {
  ServiceConfig config;
  config.threads = 2;
  config.admission.enabled = true;
  // Zero refill on the live clock: exactly one miss passes, every later
  // miss rejects no matter how slowly the test machine runs.
  config.admission.tokens_per_sec = 0.0;
  config.admission.burst = 1.0;
  CertificationService service(config);

  CertRequest first = RingRequest("a", 4);
  EXPECT_EQ(service.Serve(first).status, ServeStatus::kOk);

  // v1 client: rejection carries the same structured shape the
  // in-flight bound uses — status "overloaded", error.code "overloaded".
  CertRequest v1 = RingRequest("b", 5);
  const CertResponse r1 = service.Serve(v1);
  EXPECT_EQ(r1.status, ServeStatus::kOverloaded);
  EXPECT_EQ(r1.error.code, serve::ErrorCode::kOverloaded);
  const std::string line1 = serve::ResponseToJsonLine(r1);
  EXPECT_NE(line1.find("\"status\":\"overloaded\""), std::string::npos);
  EXPECT_NE(line1.find("\"code\":\"overloaded\""), std::string::npos);

  // v2 client: identical shape, plus the v2 type/version echo.
  CertRequest v2 = RingRequest("c", 6);
  v2.protocol_version = serve::kProtocolV2;
  const CertResponse r2 = service.Serve(v2);
  EXPECT_EQ(r2.status, ServeStatus::kOverloaded);
  EXPECT_EQ(r2.error.code, serve::ErrorCode::kOverloaded);
  const std::string line2 = serve::ResponseToJsonLine(r2);
  EXPECT_NE(line2.find("\"protocol_version\":2"), std::string::npos);
  EXPECT_NE(line2.find("\"code\":\"overloaded\""), std::string::npos);

  // A *hit* bypasses admission even with the budget drained.
  EXPECT_EQ(service.Serve(first).status, ServeStatus::kOk);

  const serve::ServiceStats stats = service.Stats();
  EXPECT_EQ(stats.rejected, 2u);
  ASSERT_FALSE(stats.admission_classes.empty());
  EXPECT_EQ(stats.admission_classes[0].name, "default");
  EXPECT_EQ(stats.admission_classes[0].rejected, 2u);
}

TEST(SchedTest, ProtocolRoundTripsPriorityClass) {
  CertRequest request = RingRequest("classy", 4);
  request.priority_class = "interactive";
  const std::string line = serve::RequestToJsonLine(request);
  EXPECT_NE(line.find("\"class\":\"interactive\""), std::string::npos);
  const CertRequest parsed = serve::ParseRequestLine(line);
  EXPECT_EQ(parsed.priority_class, "interactive");
  // Absent field parses to empty (the default class).
  CertRequest plain = RingRequest("plain", 4);
  EXPECT_EQ(serve::ParseRequestLine(serve::RequestToJsonLine(plain))
                .priority_class,
            "");
  EXPECT_EQ(serve::RequestToJsonLine(plain).find("\"class\""),
            std::string::npos);
}

}  // namespace
}  // namespace nocdr
