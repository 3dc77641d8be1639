#include <gtest/gtest.h>

#include <vector>

#include "ptest/bridge/committee.hpp"
#include "ptest/pcore/programs.hpp"

namespace ptest::bridge {
namespace {

TEST(ProtocolTest, MnemonicsRoundTrip) {
  for (std::size_t i = 0; i < kServiceCount; ++i) {
    const auto service = static_cast<Service>(i);
    const auto parsed = service_from_mnemonic(mnemonic(service));
    ASSERT_TRUE(parsed.has_value());
    EXPECT_EQ(*parsed, service);
  }
  EXPECT_FALSE(service_from_mnemonic("XX").has_value());
}

TEST(ProtocolTest, InternServiceAlphabetIsIdempotent) {
  pfa::Alphabet alphabet;
  intern_service_alphabet(alphabet);
  intern_service_alphabet(alphabet);
  EXPECT_EQ(alphabet.size(), kServiceCount);
  EXPECT_EQ(service_from_symbol(alphabet, alphabet.at("TCH")),
            Service::kTaskChanprio);
}

TEST(ProtocolTest, NonServiceSymbolMapsToNothing) {
  pfa::Alphabet alphabet;
  intern_service_alphabet(alphabet);
  const auto other = alphabet.intern("OTHER");
  EXPECT_FALSE(service_from_symbol(alphabet, other).has_value());
}

class ChannelFixture : public ::testing::Test {
 protected:
  sim::Soc soc_;
  Channel channel_{soc_};
};

TEST_F(ChannelFixture, CommandRoundTripThroughSramAndMailbox) {
  Command command;
  command.seq = 7;
  command.service = Service::kTaskSuspend;
  command.task = 3;
  ASSERT_TRUE(channel_.post_command(soc_, command));
  // Mailbox latency: not yet visible.
  EXPECT_FALSE(channel_.take_command(soc_).has_value());
  (void)soc_.run(3);
  const auto received = channel_.take_command(soc_);
  ASSERT_TRUE(received.has_value());
  EXPECT_EQ(received->seq, 7u);
  EXPECT_EQ(received->service, Service::kTaskSuspend);
  EXPECT_EQ(received->task, 3);
}

TEST_F(ChannelFixture, ResponseRoundTrip) {
  Response response;
  response.seq = 9;
  response.status = ResponseStatus::kError;
  response.detail = 4;
  ASSERT_TRUE(channel_.post_response(soc_, response));
  (void)soc_.run(3);
  const auto received = channel_.take_response(soc_);
  ASSERT_TRUE(received.has_value());
  EXPECT_EQ(received->seq, 9u);
  EXPECT_EQ(received->status, ResponseStatus::kError);
}

TEST_F(ChannelFixture, PreservesOrderAcrossBatches) {
  for (std::uint32_t i = 0; i < 4; ++i) {
    Command command;
    command.seq = i;
    ASSERT_TRUE(channel_.post_command(soc_, command));
  }
  (void)soc_.run(3);
  for (std::uint32_t i = 0; i < 4; ++i) {
    const auto received = channel_.take_command(soc_);
    ASSERT_TRUE(received.has_value());
    EXPECT_EQ(received->seq, i);
  }
}

TEST_F(ChannelFixture, DoorbellMailboxDepthLimitsBurst) {
  // The OMAP mailbox FIFO holds 4 words; a 5th burst post must fail even
  // though the ring has room — the committer retries next tick.
  Command command;
  int posted = 0;
  for (int i = 0; i < 6; ++i) {
    command.seq = static_cast<std::uint32_t>(i);
    if (channel_.post_command(soc_, command)) ++posted;
  }
  EXPECT_EQ(posted, 4);
  (void)soc_.run(3);
  // Draining restores capacity.
  int drained = 0;
  while (channel_.take_command(soc_)) ++drained;
  EXPECT_EQ(drained, 4);
  EXPECT_TRUE(channel_.post_command(soc_, command));
}

class CommitteeFixture : public ::testing::Test {
 protected:
  void SetUp() override {
    kernel_.register_program(1, [](std::uint32_t) {
      return pcore::Program{"idle", pcore::idle()};
    });
    soc_.attach(committee_);
    soc_.attach(kernel_);
  }

  /// Posts a command, runs the loop until its response arrives.
  Response transact(Command command) {
    EXPECT_TRUE(channel_.post_command(soc_, command));
    for (int i = 0; i < 64; ++i) {
      (void)soc_.step();
      if (const auto response = channel_.take_response(soc_)) {
        return *response;
      }
    }
    ADD_FAILURE() << "no response within 64 ticks";
    return {};
  }

  sim::Soc soc_;
  pcore::PcoreKernel kernel_;
  Channel channel_{soc_};
  Committee committee_{channel_, kernel_};
};

TEST_F(CommitteeFixture, ExecutesTaskCreateAndReportsSlot) {
  Command command;
  command.seq = 1;
  command.service = Service::kTaskCreate;
  command.priority = 5;
  command.program_id = 1;
  const Response response = transact(command);
  EXPECT_EQ(response.status, ResponseStatus::kOk);
  EXPECT_NE(response.task, pcore::kInvalidTask);
  EXPECT_EQ(kernel_.live_task_count(), 1u);
}

TEST_F(CommitteeFixture, ReportsServiceErrors) {
  Command command;
  command.seq = 2;
  command.service = Service::kTaskResume;
  command.task = 5;  // no such task
  const Response response = transact(command);
  EXPECT_EQ(response.status, ResponseStatus::kError);
  EXPECT_EQ(static_cast<pcore::Status>(response.detail),
            pcore::Status::kErrBadTask);
}

TEST_F(CommitteeFixture, FullLifecycleViaRemoteCommands) {
  Command create;
  create.seq = 1;
  create.service = Service::kTaskCreate;
  create.priority = 7;
  create.program_id = 1;
  const Response created = transact(create);
  const pcore::TaskId task = created.task;

  Command suspend;
  suspend.seq = 2;
  suspend.service = Service::kTaskSuspend;
  suspend.task = task;
  EXPECT_EQ(transact(suspend).status, ResponseStatus::kOk);
  EXPECT_EQ(kernel_.tcb(task).state, pcore::TaskState::kSuspended);

  Command resume;
  resume.seq = 3;
  resume.service = Service::kTaskResume;
  resume.task = task;
  EXPECT_EQ(transact(resume).status, ResponseStatus::kOk);

  Command chanprio;
  chanprio.seq = 4;
  chanprio.service = Service::kTaskChanprio;
  chanprio.task = task;
  chanprio.priority = 12;
  EXPECT_EQ(transact(chanprio).status, ResponseStatus::kOk);
  EXPECT_EQ(kernel_.tcb(task).priority, 12);

  Command del;
  del.seq = 5;
  del.service = Service::kTaskDelete;
  del.task = task;
  EXPECT_EQ(transact(del).status, ResponseStatus::kOk);
  EXPECT_EQ(kernel_.live_task_count(), 0u);
}

TEST_F(CommitteeFixture, QuietDoorbellTicksChangeNothing) {
  const sim::Mailbox& doorbell =
      soc_.mailboxes().box(Channel::kCommandMailbox);
  for (int i = 0; i < 100; ++i) {
    EXPECT_FALSE(channel_.command_ready(soc_));
    ASSERT_TRUE(committee_.tick(soc_));
    soc_.clock().advance();
  }
  EXPECT_EQ(committee_.executed(), 0u);
  EXPECT_EQ(doorbell.delivered_count(), 0u);
  EXPECT_EQ(channel_.responses_posted(), 0u);
}

TEST_F(CommitteeFixture, CommandExecutesExactlyOneLatencyAfterPost) {
  (void)soc_.run(5);
  const sim::Tick posted_at = soc_.now();
  Command command;
  command.seq = 1;
  command.service = Service::kTaskCreate;
  command.priority = 5;
  command.program_id = 1;
  ASSERT_TRUE(channel_.post_command(soc_, command));
  const sim::Tick latency = sim::kMailboxLatency;
  while (soc_.now() < posted_at + latency) {
    EXPECT_FALSE(channel_.command_ready(soc_));
    (void)soc_.step();
    EXPECT_EQ(committee_.executed(), 0u) << "tick " << soc_.now() - 1;
  }
  ASSERT_EQ(soc_.now(), posted_at + latency);
  EXPECT_TRUE(channel_.command_ready(soc_));
  (void)soc_.step();
  EXPECT_EQ(committee_.executed(), 1u);
  EXPECT_FALSE(channel_.command_ready(soc_));
  EXPECT_EQ(
      soc_.mailboxes().box(Channel::kCommandMailbox).delivered_count(), 1u);
}

TEST_F(CommitteeFixture, BacklogFlushesInFifoOrder) {
  // Nobody takes responses, so the 4-deep response doorbell fills and
  // later responses queue in the committee's backlog.
  std::uint32_t seq = 0;
  Command command;
  command.service = Service::kTaskResume;
  command.task = 5;  // no such task: every command fails fast
  for (int round = 0; round < 2; ++round) {
    for (int i = 0; i < 4; ++i) {
      command.seq = seq++;
      ASSERT_TRUE(channel_.post_command(soc_, command));
    }
    (void)soc_.run(6);
  }
  // Responses 4 and 5 went to the backlog on one tick; while it holds
  // anything the committee executes no new command.
  EXPECT_EQ(committee_.executed(), 6u);
  EXPECT_EQ(channel_.responses_posted(), 4u);
  // Draining the doorbell lets the backlog out, oldest first.
  std::vector<std::uint32_t> received;
  for (int i = 0; i < 32 && received.size() < 8; ++i) {
    while (const auto response = channel_.take_response(soc_)) {
      received.push_back(response->seq);
    }
    (void)soc_.step();
  }
  EXPECT_EQ(received, (std::vector<std::uint32_t>{0, 1, 2, 3, 4, 5, 6, 7}));
  EXPECT_EQ(committee_.executed(), 8u);
  EXPECT_EQ(channel_.responses_posted(), 8u);
}

TEST_F(CommitteeFixture, PanicReportedInResponse) {
  kernel_.force_panic("test panic");
  Command command;
  command.seq = 1;
  command.service = Service::kTaskCreate;
  command.program_id = 1;
  const Response response = transact(command);
  EXPECT_EQ(response.status, ResponseStatus::kPanic);
}

}  // namespace
}  // namespace ptest::bridge
