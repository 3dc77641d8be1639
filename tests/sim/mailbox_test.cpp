#include "ptest/sim/mailbox.hpp"

#include <gtest/gtest.h>

#include <stdexcept>

namespace ptest::sim {
namespace {

TEST(MailboxTest, DeliversAfterLatency) {
  Mailbox box(CoreId::kArm, CoreId::kDsp, 4, /*latency=*/2);
  ASSERT_TRUE(box.post(/*now=*/10, 0xabcd));
  EXPECT_FALSE(box.pending(10));
  EXPECT_FALSE(box.pending(11));
  EXPECT_TRUE(box.pending(12));
  const auto word = box.take(12);
  ASSERT_TRUE(word.has_value());
  EXPECT_EQ(*word, 0xabcdu);
  EXPECT_FALSE(box.pending(12));
}

TEST(MailboxTest, TakeBeforeLatencyReturnsNothing) {
  Mailbox box(CoreId::kArm, CoreId::kDsp, 4, 3);
  ASSERT_TRUE(box.post(0, 1));
  EXPECT_FALSE(box.take(1).has_value());
  EXPECT_TRUE(box.take(3).has_value());
}

TEST(MailboxTest, FifoOrderPreserved) {
  Mailbox box(CoreId::kArm, CoreId::kDsp, 4, 0);
  ASSERT_TRUE(box.post(0, 1));
  ASSERT_TRUE(box.post(0, 2));
  ASSERT_TRUE(box.post(0, 3));
  EXPECT_EQ(box.take(0).value(), 1u);
  EXPECT_EQ(box.take(0).value(), 2u);
  EXPECT_EQ(box.take(0).value(), 3u);
}

TEST(MailboxTest, RejectsWhenFull) {
  Mailbox box(CoreId::kArm, CoreId::kDsp, /*depth=*/2, 0);
  EXPECT_TRUE(box.post(0, 1));
  EXPECT_TRUE(box.post(0, 2));
  EXPECT_TRUE(box.full());
  EXPECT_FALSE(box.post(0, 3));
  (void)box.take(0);
  EXPECT_TRUE(box.post(0, 3));
}

TEST(MailboxTest, CountsPostedAndDelivered) {
  Mailbox box(CoreId::kArm, CoreId::kDsp, 4, 0);
  (void)box.post(0, 1);
  (void)box.post(0, 2);
  (void)box.take(0);
  EXPECT_EQ(box.posted_count(), 2u);
  EXPECT_EQ(box.delivered_count(), 1u);
}

TEST(MailboxTest, RingWrapKeepsFifoOrderAndLatency) {
  Mailbox box(CoreId::kDsp, CoreId::kArm, /*depth=*/4, /*latency=*/3);
  std::uint32_t next_post = 0;
  std::uint32_t next_take = 0;
  Tick now = 0;
  // Five full fill/drain cycles, then three words per step so the ring's
  // head starts at every offset in turn while words cross the wrap.
  for (int cycle = 0; cycle < 5; ++cycle) {
    for (int i = 0; i < 4; ++i) ASSERT_TRUE(box.post(now, next_post++));
    EXPECT_TRUE(box.full());
    EXPECT_FALSE(box.post(now, 999));
    EXPECT_FALSE(box.pending(now + 2));
    EXPECT_FALSE(box.take(now + 2).has_value());
    now += 3;
    for (int i = 0; i < 4; ++i) {
      ASSERT_TRUE(box.pending(now));
      EXPECT_EQ(box.take(now).value(), next_take++);
    }
    EXPECT_EQ(box.queued(), 0u);
    EXPECT_FALSE(box.pending(now));
    EXPECT_EQ(box.posted_count(), next_post);
    EXPECT_EQ(box.delivered_count(), next_take);
  }
  for (int step = 0; step < 12; ++step) {
    for (Tick i = 0; i < 3; ++i) ASSERT_TRUE(box.post(now + i, next_post++));
    // Each word shows exactly `latency` ticks after its own post.
    for (Tick i = 0; i < 3; ++i) {
      EXPECT_FALSE(box.take(now + i + 2).has_value());
      EXPECT_EQ(box.take(now + i + 3).value(), next_take++);
    }
    now += 6;
  }
  EXPECT_EQ(box.posted_count(), 56u);
  EXPECT_EQ(box.delivered_count(), 56u);
  EXPECT_EQ(box.queued(), 0u);
}

TEST(MailboxTest, RejectsDepthsOutsideTheHardwareRange) {
  EXPECT_THROW(Mailbox(CoreId::kArm, CoreId::kDsp, 0), std::invalid_argument);
  EXPECT_THROW(Mailbox(CoreId::kArm, CoreId::kDsp, 5), std::invalid_argument);
  EXPECT_NO_THROW(Mailbox(CoreId::kArm, CoreId::kDsp, 1));
  EXPECT_NO_THROW(Mailbox(CoreId::kArm, CoreId::kDsp, Mailbox::kMaxDepth));
}

TEST(MailboxTest, DepthOneHoldsOneWord) {
  Mailbox box(CoreId::kArm, CoreId::kDsp, /*depth=*/1, 0);
  for (std::uint32_t i = 0; i < 6; ++i) {
    ASSERT_TRUE(box.post(i, i));
    EXPECT_FALSE(box.post(i, 100 + i));
    EXPECT_EQ(box.take(i).value(), i);
  }
  EXPECT_EQ(box.posted_count(), 6u);
  EXPECT_EQ(box.delivered_count(), 6u);
}

TEST(MailboxBankTest, HasFourBoxesWithOmapDirections) {
  MailboxBank bank;
  EXPECT_EQ(bank.box(0).sender(), CoreId::kArm);
  EXPECT_EQ(bank.box(0).receiver(), CoreId::kDsp);
  EXPECT_EQ(bank.box(1).receiver(), CoreId::kDsp);
  EXPECT_EQ(bank.box(2).sender(), CoreId::kDsp);
  EXPECT_EQ(bank.box(2).receiver(), CoreId::kArm);
  EXPECT_EQ(bank.box(3).receiver(), CoreId::kArm);
  EXPECT_THROW((void)bank.box(4), std::out_of_range);
}

TEST(MailboxBankTest, InterruptPendingPerCore) {
  MailboxBank bank;
  EXPECT_FALSE(bank.interrupt_pending(CoreId::kDsp, 0));
  (void)bank.box(0).post(0, 7);
  EXPECT_FALSE(bank.interrupt_pending(CoreId::kDsp, kMailboxLatency - 1));
  EXPECT_TRUE(bank.interrupt_pending(CoreId::kDsp, kMailboxLatency));
  EXPECT_FALSE(bank.interrupt_pending(CoreId::kArm, kMailboxLatency));
}

}  // namespace
}  // namespace ptest::sim
