#include "ptest/sim/soc.hpp"

#include <gtest/gtest.h>

namespace ptest::sim {
namespace {

class CountingDevice final : public Device {
 public:
  explicit CountingDevice(int stop_after = -1) : stop_after_(stop_after) {}
  bool tick(Soc& soc) override {
    ++ticks_;
    last_seen_ = soc.now();
    return stop_after_ < 0 || ticks_ < stop_after_;
  }
  int ticks_ = 0;
  Tick last_seen_ = 0;
  int stop_after_;
};

TEST(SocTest, RunsRequestedTicks) {
  Soc soc;
  CountingDevice device;
  soc.attach(device);
  EXPECT_EQ(soc.run(10), 10u);
  EXPECT_EQ(device.ticks_, 10);
  EXPECT_EQ(soc.now(), 10u);
}

TEST(SocTest, DeviceCanStopSimulation) {
  Soc soc;
  CountingDevice device(/*stop_after=*/3);
  soc.attach(device);
  EXPECT_EQ(soc.run(100), 3u);
  EXPECT_EQ(device.ticks_, 3);
}

TEST(SocTest, DevicesSteppedInAttachOrderSameTick) {
  Soc soc;
  CountingDevice first;
  CountingDevice second;
  soc.attach(first);
  soc.attach(second);
  (void)soc.run(5);
  EXPECT_EQ(first.ticks_, second.ticks_);
  EXPECT_EQ(first.last_seen_, second.last_seen_);
}

TEST(SocTest, RecordGoesToTraceWithCurrentTick) {
  Soc soc;
  CountingDevice device;
  soc.attach(device);
  (void)soc.run(3);
  soc.record(TraceCategory::kMaster, TraceCode::kThreadDone, "hello");
  const auto tail = soc.trace().tail(1);
  ASSERT_EQ(tail.size(), 1u);
  EXPECT_EQ(tail[0].tick, 3u);
  EXPECT_EQ(tail[0].message(), "thread 'hello' done");
}

}  // namespace
}  // namespace ptest::sim
