// Unit tests for deadlock-freedom certificates.
#include "deadlock/verify.h"

#include <gtest/gtest.h>

#include "cdg/cdg.h"
#include "deadlock/removal.h"
#include "deadlock/resource_ordering.h"
#include "test_helpers.h"
#include "util/error.h"

namespace nocdr {
namespace {

TEST(VerifyTest, CyclicDesignGetsCounterexample) {
  auto ex = testing::MakePaperExample();
  const auto cert = CertifyDeadlockFreedom(ex.design);
  EXPECT_FALSE(cert.deadlock_free);
  EXPECT_TRUE(cert.topological_order.empty());
  ASSERT_EQ(cert.counterexample.size(), 4u);
  EXPECT_FALSE(CheckCertificate(ex.design, cert));
}

TEST(VerifyTest, RemovalProducesCheckableCertificate) {
  auto ex = testing::MakePaperExample();
  RemoveDeadlocks(ex.design);
  const auto cert = CertifyDeadlockFreedom(ex.design);
  EXPECT_TRUE(cert.deadlock_free);
  EXPECT_EQ(cert.topological_order.size(),
            ex.design.topology.ChannelCount());
  EXPECT_TRUE(CheckCertificate(ex.design, cert));
}

TEST(VerifyTest, ResourceOrderingProducesCheckableCertificate) {
  auto ex = testing::MakePaperExample();
  ApplyResourceOrdering(ex.design);
  const auto cert = CertifyDeadlockFreedom(ex.design);
  EXPECT_TRUE(cert.deadlock_free);
  EXPECT_TRUE(CheckCertificate(ex.design, cert));
}

TEST(VerifyTest, TamperedOrderIsRejected) {
  auto ex = testing::MakePaperExample();
  RemoveDeadlocks(ex.design);
  auto cert = CertifyDeadlockFreedom(ex.design);
  ASSERT_TRUE(cert.deadlock_free);
  ASSERT_GE(cert.topological_order.size(), 2u);
  std::swap(cert.topological_order.front(), cert.topological_order.back());
  // Swapping the extremes of the order must break some route's
  // monotonicity (both endpoints carry traffic in this design).
  EXPECT_FALSE(CheckCertificate(ex.design, cert));
}

TEST(VerifyTest, TruncatedOrderIsRejected) {
  auto ex = testing::MakePaperExample();
  RemoveDeadlocks(ex.design);
  auto cert = CertifyDeadlockFreedom(ex.design);
  cert.topological_order.pop_back();
  EXPECT_FALSE(CheckCertificate(ex.design, cert));
}

TEST(VerifyTest, DuplicateEntryIsRejected) {
  auto ex = testing::MakePaperExample();
  RemoveDeadlocks(ex.design);
  auto cert = CertifyDeadlockFreedom(ex.design);
  cert.topological_order.back() = cert.topological_order.front();
  EXPECT_FALSE(CheckCertificate(ex.design, cert));
}

TEST(VerifyTest, ForgedPositiveVerdictIsRejected) {
  // Claiming deadlock freedom for a cyclic design with an arbitrary
  // order must fail the route-monotonicity check.
  auto ex = testing::MakePaperExample();
  DeadlockCertificate forged;
  forged.deadlock_free = true;
  for (std::size_t c = 0; c < ex.design.topology.ChannelCount(); ++c) {
    forged.topological_order.push_back(ChannelId(c));
  }
  EXPECT_FALSE(CheckCertificate(ex.design, forged));
}

TEST(VerifyTest, RenumberedPassNeedsAPermutationAndAnAcyclicGraph) {
  auto ex = testing::MakePaperExample();
  const auto identity = [](const NocDesign& design) {
    std::vector<ChannelId> order;
    for (std::size_t c = 0; c < design.topology.ChannelCount(); ++c) {
      order.emplace_back(c);
    }
    return order;
  };
  // A cyclic graph has no counterexample in the new numbers.
  EXPECT_THROW((void)CertifyFromCdg(ex.design,
                                    ChannelDependencyGraph::Build(ex.design),
                                    identity(ex.design)),
               InvalidModelError);

  RemoveDeadlocks(ex.design);
  const auto cdg = ChannelDependencyGraph::Build(ex.design);
  std::vector<ChannelId> order = identity(ex.design);
  // The identity order is today's pass.
  EXPECT_EQ(CertificateToJson(CertifyFromCdg(ex.design, cdg, order)),
            CertificateToJson(CertifyDeadlockFreedom(ex.design)));
  order.back() = order.front();
  EXPECT_THROW((void)CertifyFromCdg(ex.design, cdg, order),
               InvalidModelError);
  order.pop_back();
  EXPECT_THROW((void)CertifyFromCdg(ex.design, cdg, order),
               InvalidModelError);
}

// ---------------------------------------------------------------------
// Adversarial mutations: every corruption of a valid certificate must be
// rejected by the independent checker.

/// A treated random design together with its (checkable) certificate.
struct CertifiedDesign {
  NocDesign design;
  DeadlockCertificate certificate;
};

CertifiedDesign MakeCertified(std::uint64_t seed) {
  CertifiedDesign fixture{testing::MakeRandomDesign(seed), {}};
  RemoveDeadlocks(fixture.design);
  fixture.certificate = CertifyDeadlockFreedom(fixture.design);
  EXPECT_TRUE(fixture.certificate.deadlock_free);
  EXPECT_TRUE(CheckCertificate(fixture.design, fixture.certificate));
  return fixture;
}

TEST(VerifyAdversarialTest, SwappedPairsAreRejected) {
  // Swapping the two endpoints of any route dependency must break that
  // route's monotonicity. (Swapping an *unconstrained* pair can yield
  // another valid topological order, so the adversary swaps across real
  // dependencies.)
  for (std::uint64_t seed = 1; seed <= 8; ++seed) {
    const CertifiedDesign fixture = MakeCertified(seed);
    std::vector<std::size_t> position(
        fixture.design.topology.ChannelCount(), 0);
    for (std::size_t i = 0;
         i < fixture.certificate.topological_order.size(); ++i) {
      position[fixture.certificate.topological_order[i].value()] = i;
    }
    std::size_t swaps = 0;
    for (std::size_t f = 0; f < fixture.design.traffic.FlowCount(); ++f) {
      const Route& route = fixture.design.routes.RouteOf(FlowId(f));
      for (std::size_t h = 0; h + 1 < route.size(); ++h) {
        DeadlockCertificate mutated = fixture.certificate;
        std::swap(mutated.topological_order[position[route[h].value()]],
                  mutated.topological_order[position[route[h + 1].value()]]);
        EXPECT_FALSE(CheckCertificate(fixture.design, mutated))
            << "seed " << seed << " flow " << f << " hop " << h;
        ++swaps;
      }
    }
    EXPECT_GT(swaps, 0u) << "seed " << seed;
    EXPECT_TRUE(CheckCertificate(fixture.design, fixture.certificate));
  }
}

TEST(VerifyAdversarialTest, DroppedChannelIsRejected) {
  const CertifiedDesign fixture = MakeCertified(3);
  for (std::size_t i = 0; i < fixture.certificate.topological_order.size();
       ++i) {
    DeadlockCertificate mutated = fixture.certificate;
    mutated.topological_order.erase(mutated.topological_order.begin() +
                                    static_cast<std::ptrdiff_t>(i));
    EXPECT_FALSE(CheckCertificate(fixture.design, mutated)) << i;
  }
}

TEST(VerifyAdversarialTest, DuplicatedChannelIsRejected) {
  const CertifiedDesign fixture = MakeCertified(4);
  for (std::size_t i = 0; i < fixture.certificate.topological_order.size();
       ++i) {
    DeadlockCertificate mutated = fixture.certificate;
    // Duplicate entry i over its successor (wrapping), keeping the
    // length correct so only the duplicate itself can be the reason.
    const std::size_t j = (i + 1) % mutated.topological_order.size();
    mutated.topological_order[j] = mutated.topological_order[i];
    EXPECT_FALSE(CheckCertificate(fixture.design, mutated)) << i;
  }
}

TEST(VerifyAdversarialTest, ForeignDesignOrderIsRejected) {
  // A certificate is evidence about one design; grafting another
  // design's order onto it must fail (here: different channel counts or
  // different route structure).
  const CertifiedDesign ours = MakeCertified(5);
  for (std::uint64_t foreign_seed = 6; foreign_seed <= 10; ++foreign_seed) {
    const CertifiedDesign theirs = MakeCertified(foreign_seed);
    EXPECT_FALSE(CheckCertificate(ours.design, theirs.certificate))
        << "foreign seed " << foreign_seed;
  }
}

TEST(VerifyAdversarialTest, OutOfRangeAndInvalidIdsAreRejected) {
  const CertifiedDesign fixture = MakeCertified(6);
  DeadlockCertificate mutated = fixture.certificate;
  mutated.topological_order.back() =
      ChannelId(fixture.design.topology.ChannelCount());
  EXPECT_FALSE(CheckCertificate(fixture.design, mutated));
  mutated = fixture.certificate;
  mutated.topological_order.front() = ChannelId();
  EXPECT_FALSE(CheckCertificate(fixture.design, mutated));
}

TEST(VerifyJsonTest, PassingCertificateSurvivesRoundTrip) {
  for (std::uint64_t seed = 1; seed <= 8; ++seed) {
    const CertifiedDesign fixture = MakeCertified(seed);
    const std::string json = CertificateToJson(fixture.certificate);
    const DeadlockCertificate reloaded = CertificateFromJson(json);
    EXPECT_EQ(reloaded.deadlock_free, fixture.certificate.deadlock_free);
    EXPECT_EQ(reloaded.topological_order,
              fixture.certificate.topological_order);
    EXPECT_EQ(reloaded.counterexample, fixture.certificate.counterexample);
    EXPECT_TRUE(CheckCertificate(fixture.design, reloaded));
    // Serialization is deterministic.
    EXPECT_EQ(json, CertificateToJson(reloaded));
  }
}

TEST(VerifyJsonTest, NegativeCertificateSurvivesRoundTrip) {
  auto ex = testing::MakePaperExample();
  const auto cert = CertifyDeadlockFreedom(ex.design);
  ASSERT_FALSE(cert.deadlock_free);
  const DeadlockCertificate reloaded =
      CertificateFromJson(CertificateToJson(cert));
  EXPECT_FALSE(reloaded.deadlock_free);
  EXPECT_EQ(reloaded.counterexample, cert.counterexample);
  EXPECT_FALSE(CheckCertificate(ex.design, reloaded));
}

class VerifyPropertySweep : public ::testing::TestWithParam<std::uint64_t> {};

TEST_P(VerifyPropertySweep, CertificateAgreesWithIsDeadlockFree) {
  auto d = testing::MakeRandomDesign(GetParam());
  const auto cert = CertifyDeadlockFreedom(d);
  EXPECT_EQ(cert.deadlock_free, IsDeadlockFree(d));
  if (cert.deadlock_free) {
    EXPECT_TRUE(CheckCertificate(d, cert));
  } else {
    EXPECT_GE(cert.counterexample.size(), 2u);
  }
  // After removal the certificate must always check out.
  RemoveDeadlocks(d);
  const auto fixed = CertifyDeadlockFreedom(d);
  EXPECT_TRUE(fixed.deadlock_free);
  EXPECT_TRUE(CheckCertificate(d, fixed));
}

INSTANTIATE_TEST_SUITE_P(Seeds, VerifyPropertySweep,
                         ::testing::Range<std::uint64_t>(1, 16));

}  // namespace
}  // namespace nocdr
