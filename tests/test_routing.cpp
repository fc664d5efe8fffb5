// Unit tests for routes and route validation.
#include "noc/routing.h"

#include <gtest/gtest.h>

#include "util/error.h"

namespace nocdr {
namespace {

class RoutingTest : public ::testing::Test {
 protected:
  void SetUp() override {
    a_ = topo_.AddSwitch("A");
    b_ = topo_.AddSwitch("B");
    c_ = topo_.AddSwitch("C");
    ab_ = topo_.AddLink(a_, b_);
    bc_ = topo_.AddLink(b_, c_);
    ca_ = topo_.AddLink(c_, a_);
    cab_ = *topo_.FindChannel(ab_, 0);
    cbc_ = *topo_.FindChannel(bc_, 0);
    cca_ = *topo_.FindChannel(ca_, 0);
    last_use_.assign(topo_.ChannelCount(), 0);
  }

  TopologyGraph topo_;
  SwitchId a_, b_, c_;
  LinkId ab_, bc_, ca_;
  ChannelId cab_, cbc_, cca_;
  std::vector<std::size_t> last_use_;  // ValidateRoute's channel stamps
};

TEST_F(RoutingTest, ValidTwoHopRoute) {
  EXPECT_NO_THROW(
      ValidateRoute(topo_, {cab_, cbc_}, a_, c_, 0, last_use_));
}

TEST_F(RoutingTest, EmptyRouteSameSwitchOk) {
  EXPECT_NO_THROW(ValidateRoute(topo_, {}, a_, a_, 0, last_use_));
}

TEST_F(RoutingTest, EmptyRouteDistinctSwitchesRejected) {
  EXPECT_THROW(ValidateRoute(topo_, {}, a_, b_, 0, last_use_),
               InvalidModelError);
}

TEST_F(RoutingTest, WrongStartRejected) {
  EXPECT_THROW(ValidateRoute(topo_, {cbc_}, a_, c_, 0, last_use_),
               InvalidModelError);
}

TEST_F(RoutingTest, WrongEndRejected) {
  EXPECT_THROW(ValidateRoute(topo_, {cab_}, a_, c_, 0, last_use_),
               InvalidModelError);
}

TEST_F(RoutingTest, DiscontiguousRejected) {
  EXPECT_THROW(ValidateRoute(topo_, {cab_, cca_}, a_, a_, 0, last_use_),
               InvalidModelError);
}

TEST_F(RoutingTest, RepeatedChannelRejected) {
  // A full loop around the triangle and once more over ab.
  EXPECT_THROW(
      ValidateRoute(topo_, {cab_, cbc_, cca_, cab_}, a_, b_, 0, last_use_),
      InvalidModelError);
}

TEST_F(RoutingTest, UnknownChannelRejected) {
  EXPECT_THROW(
      ValidateRoute(topo_, {ChannelId(99u)}, a_, b_, 0, last_use_),
      InvalidModelError);
}

TEST_F(RoutingTest, FullCycleRouteIsValidIfDistinctChannels) {
  // a -> b -> c -> a uses three distinct channels: structurally fine
  // (the CDG analysis decides whether it is safe, not route validation).
  EXPECT_NO_THROW(
      ValidateRoute(topo_, {cab_, cbc_, cca_}, a_, a_, 0, last_use_));
}

TEST_F(RoutingTest, RouteSetAccessors) {
  RouteSet rs(2);
  EXPECT_EQ(rs.FlowCount(), 2u);
  rs.SetRoute(FlowId(0u), {cab_});
  EXPECT_EQ(rs.RouteOf(FlowId(0u)).size(), 1u);
  EXPECT_TRUE(rs.RouteOf(FlowId(1u)).empty());
  rs.MutableRouteOf(FlowId(1u)).push_back(cbc_);
  EXPECT_EQ(rs.RouteOf(FlowId(1u)).size(), 1u);
}

TEST_F(RoutingTest, RouteSetOutOfRangeThrows) {
  RouteSet rs(1);
  EXPECT_THROW((void)rs.RouteOf(FlowId(1u)), InvalidModelError);
  EXPECT_THROW(rs.SetRoute(FlowId(), {}), InvalidModelError);
}

TEST_F(RoutingTest, ResizeGrows) {
  RouteSet rs;
  EXPECT_EQ(rs.FlowCount(), 0u);
  rs.Resize(3);
  EXPECT_EQ(rs.FlowCount(), 3u);
}

}  // namespace
}  // namespace nocdr
