#include "metrics/recovery.hpp"

#include <gtest/gtest.h>

namespace tsim::metrics {
namespace {

using namespace tsim::sim::time_literals;
using sim::Time;

/// A repair at 100 s of a receiver whose optimum is 5 layers: levels of 4
/// and up count as recovered once they hold for 10 s.
RecoveryConfig repair_at_100s(Time until = 300_s) {
  RecoveryConfig config;
  config.repair = 100_s;
  config.target = 5;
  config.until = until;
  return config;
}

TEST(RecoveryTimeTest, AlreadyRecoveredAtRepairIsZero) {
  SubscriptionTimeline tl{Time::zero(), 5};
  tl.record(50_s, 4);  // within one layer of the target: still recovered
  const auto recovery = recovery_time(tl, repair_at_100s());
  ASSERT_TRUE(recovery.has_value());
  EXPECT_EQ(*recovery, Time::zero());
}

TEST(RecoveryTimeTest, ClimbThatHoldsCountsFromItsStart) {
  SubscriptionTimeline tl{Time::zero(), 1};
  tl.record(104_s, 4);
  const auto recovery = recovery_time(tl, repair_at_100s());
  ASSERT_TRUE(recovery.has_value());
  EXPECT_EQ(*recovery, 4_s);
}

TEST(RecoveryTimeTest, DipInsideTheHoldResetsTheSpell) {
  SubscriptionTimeline tl{Time::zero(), 1};
  tl.record(104_s, 4);
  tl.record(113_s, 3);  // below target - 1 after 9 s: the first spell fails
  tl.record(120_s, 5);
  tl.record(129_s, 2);  // again short of 10 s
  tl.record(140_s, 4);
  const auto recovery = recovery_time(tl, repair_at_100s());
  ASSERT_TRUE(recovery.has_value());
  EXPECT_EQ(*recovery, 40_s);
}

TEST(RecoveryTimeTest, SpellOfExactlyTheHoldCounts) {
  SubscriptionTimeline tl{Time::zero(), 1};
  tl.record(104_s, 4);
  tl.record(114_s, 3);
  const auto recovery = recovery_time(tl, repair_at_100s());
  ASSERT_TRUE(recovery.has_value());
  EXPECT_EQ(*recovery, 4_s);
}

TEST(RecoveryTimeTest, SpellOpenAtUntilCounts) {
  SubscriptionTimeline tl{Time::zero(), 1};
  tl.record(150_s, 5);
  // The window closes 15 s into the spell, which never ends in the record.
  const auto recovery = recovery_time(tl, repair_at_100s(165_s));
  ASSERT_TRUE(recovery.has_value());
  EXPECT_EQ(*recovery, 50_s);
}

TEST(RecoveryTimeTest, SpellShorterThanTheHoldAtUntilDoesNotCount) {
  SubscriptionTimeline tl{Time::zero(), 1};
  tl.record(150_s, 5);
  EXPECT_FALSE(recovery_time(tl, repair_at_100s(155_s)).has_value());
}

TEST(RecoveryTimeTest, NeverRecoveringGivesNullopt) {
  SubscriptionTimeline tl{Time::zero(), 5};
  tl.record(90_s, 1);
  tl.record(150_s, 3);  // two layers short of the target
  tl.record(200_s, 2);
  EXPECT_FALSE(recovery_time(tl, repair_at_100s()).has_value());
}

TEST(RecoveryTimeTest, ChangesAfterUntilAreIgnored) {
  SubscriptionTimeline tl{Time::zero(), 1};
  tl.record(250_s, 5);
  EXPECT_FALSE(recovery_time(tl, repair_at_100s(200_s)).has_value());
}

}  // namespace
}  // namespace tsim::metrics
