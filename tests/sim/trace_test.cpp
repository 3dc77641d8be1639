#include "ptest/sim/trace.hpp"

#include <gtest/gtest.h>

#include <string>
#include <utility>
#include <vector>

namespace ptest::sim {
namespace {

TEST(TraceLogTest, RecordsAndTails) {
  TraceLog log(8);
  log.record(1, TraceCategory::kKernel, TraceCode::kTaskExit, 1, 0);
  log.record(2, TraceCategory::kBridge, TraceCode::kCommandTS, 7, 2);
  const auto tail = log.tail(10);
  ASSERT_EQ(tail.size(), 2u);
  EXPECT_EQ(tail[0].message(), "task 1 exited with code 0");
  EXPECT_EQ(tail[1].message(), "cmd seq=7 TS task=2");
  EXPECT_EQ(tail[1].tick, 2u);
  EXPECT_EQ(tail[1].code, TraceCode::kCommandTS);
  EXPECT_EQ(tail[1].a, 7u);
  EXPECT_EQ(tail[1].b, 2u);
}

TEST(TraceLogTest, EvictsOldestAtCapacity) {
  TraceLog log(3);
  for (std::uint32_t i = 0; i < 5; ++i) {
    log.record(static_cast<Tick>(i), TraceCategory::kKernel,
               TraceCode::kTaskExit, i);
  }
  EXPECT_EQ(log.size(), 3u);
  EXPECT_EQ(log.total_recorded(), 5u);
  const auto tail = log.tail(3);
  EXPECT_EQ(tail[0].message(), "task 2 exited with code 0");
  EXPECT_EQ(tail[2].message(), "task 4 exited with code 0");
}

TEST(TraceLogTest, WrapsManyTimesInOrder) {
  TraceLog log(5);
  for (std::uint32_t i = 0; i < 23; ++i) {
    log.record(i, TraceCategory::kKernel, TraceCode::kTaskExit, i);
  }
  const auto tail = log.tail(5);
  ASSERT_EQ(tail.size(), 5u);
  for (std::uint32_t k = 0; k < 5; ++k) {
    EXPECT_EQ(tail[k].tick, 18u + k);
    EXPECT_EQ(tail[k].a, 18u + k);
  }
  EXPECT_EQ(log.total_recorded(), 23u);
}

TEST(TraceLogTest, TailSmallerThanSize) {
  TraceLog log(8);
  for (std::uint32_t i = 0; i < 5; ++i) {
    log.record(0, TraceCategory::kMaster, TraceCode::kTaskExit, i);
  }
  const auto tail = log.tail(2);
  ASSERT_EQ(tail.size(), 2u);
  EXPECT_EQ(tail[0].message(), "task 3 exited with code 0");
}

TEST(TraceLogTest, TailSkipsTheNewestEvents) {
  // A wrapped ring of 5 holding events 18..22.
  TraceLog log(5);
  for (std::uint32_t i = 0; i < 23; ++i) {
    log.record(i, TraceCategory::kKernel, TraceCode::kTaskExit, i);
  }
  std::vector<TraceEvent> tail;
  log.tail_into(2, tail, 1);
  ASSERT_EQ(tail.size(), 2u);
  EXPECT_EQ(tail[0].a, 20u);
  EXPECT_EQ(tail[1].a, 21u);
  // Fewer events than asked before the skipped ones, and a skip past the
  // whole ring.
  log.tail_into(10, tail, 3);
  ASSERT_EQ(tail.size(), 2u);
  EXPECT_EQ(tail[0].a, 18u);
  log.tail_into(10, tail, 9);
  EXPECT_TRUE(tail.empty());
}

TEST(TraceLogTest, LineFormatsTickCategoryAndMessage) {
  TraceLog log(8);
  log.record(42, TraceCategory::kFault, TraceCode::kKernelPanic, "boom");
  std::string line;
  log.tail(1).at(0).append_line(line);
  EXPECT_EQ(line, "42 [fault] kernel panic: boom\n");
}

TEST(TraceLogTest, IntegerRecordClearsAReusedSlotsText) {
  TraceLog log(1);
  log.record(0, TraceCategory::kMaster, TraceCode::kThreadDone, "committer");
  log.record(1, TraceCategory::kKernel, TraceCode::kRecursiveLock, 3, 4);
  const auto tail = log.tail(1);
  ASSERT_EQ(tail.size(), 1u);
  EXPECT_TRUE(tail[0].text.empty());
  EXPECT_EQ(tail[0].message(), "task 3 recursive lock of mutex 4");
}

TEST(TraceLogTest, ZeroCapacityDropsEverything) {
  TraceLog log(0);
  log.record(0, TraceCategory::kKernel, TraceCode::kTaskExit);
  log.record(0, TraceCategory::kKernel, TraceCode::kKernelPanic, "x");
  EXPECT_EQ(log.size(), 0u);
}

TEST(TraceLogTest, ClearResets) {
  TraceLog log(8);
  log.record(0, TraceCategory::kKernel, TraceCode::kTaskExit);
  log.clear();
  EXPECT_EQ(log.size(), 0u);
  EXPECT_EQ(log.total_recorded(), 0u);
}

// --- reuse after clear() ---------------------------------------------------------
//
// clear() keeps the slots and their text buffers.  A log filled, cleared
// and refilled must read exactly like a fresh log given the same events.

/// Records `count` events starting at `first`: every third one a "%t"
/// event whose text is `text_length` characters long.
void play(TraceLog& log, std::uint32_t first, std::uint32_t count,
          std::size_t text_length) {
  for (std::uint32_t i = first; i < first + count; ++i) {
    if (i % 3 == 0) {
      log.record(i, TraceCategory::kFault, TraceCode::kKernelPanic,
                 std::string(text_length, static_cast<char>('a' + i % 26)));
    } else {
      log.record(i, TraceCategory::kBridge, TraceCode::kCommandTD, i, i + 1);
    }
  }
}

void expect_same_log(const TraceLog& reused, const TraceLog& fresh) {
  EXPECT_EQ(reused.size(), fresh.size());
  EXPECT_EQ(reused.total_recorded(), fresh.total_recorded());
  std::vector<TraceEvent> a;
  std::vector<TraceEvent> b;
  for (std::size_t skip = 0; skip <= fresh.size() + 1; ++skip) {
    for (std::size_t count = 0; count <= fresh.size() + 1; ++count) {
      reused.tail_into(count, a, skip);
      fresh.tail_into(count, b, skip);
      EXPECT_EQ(a, b) << "count " << count << " skip " << skip;
    }
  }
}

TEST(TraceLogTest, AClearedLogReadsLikeAFreshOne) {
  constexpr std::size_t kCapacity = 7;
  // (events, text length) of each refill: fewer events than slots, as
  // many, past capacity, and again fewer; texts shorter and longer than
  // the occupants they overwrite.
  const std::vector<std::pair<std::uint32_t, std::size_t>> refills = {
      {4, 2}, {7, 40}, {19, 1}, {3, 64}, {12, 0}, {1, 5}, {0, 0}, {30, 33}};
  TraceLog reused(kCapacity);
  play(reused, 100, 11, 48);  // wrapped, long texts in its slots
  std::uint32_t first = 0;
  for (const auto& [count, text_length] : refills) {
    SCOPED_TRACE("refill of " + std::to_string(count) + " events, text " +
                 std::to_string(text_length));
    reused.clear();
    EXPECT_EQ(reused.size(), 0u);
    EXPECT_EQ(reused.total_recorded(), 0u);
    play(reused, first, count, text_length);
    TraceLog fresh(kCapacity);
    play(fresh, first, count, text_length);
    expect_same_log(reused, fresh);
    first += count;
  }
}

TEST(TraceCategoryTest, Names) {
  EXPECT_STREQ(to_string(TraceCategory::kKernel), "kernel");
  EXPECT_STREQ(to_string(TraceCategory::kDetector), "detector");
}

TEST(TraceCodeTest, UnknownCodeRendersAQuestionMark) {
  TraceEvent event;
  event.code = static_cast<TraceCode>(kTraceCodeCount);
  EXPECT_EQ(event.message(), "?");
}

}  // namespace
}  // namespace ptest::sim
