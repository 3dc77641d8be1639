#include "ptest/master/committer.hpp"

#include <gtest/gtest.h>

#include "core/reference_session.hpp"
#include "ptest/bridge/committee.hpp"
#include "ptest/core/bug_detector.hpp"
#include "ptest/master/scheduler.hpp"
#include "ptest/pcore/programs.hpp"

namespace ptest::master {
namespace {

class RecordingObserver final : public CommitterObserver {
 public:
  void on_issue(const IssueRecord& record) override {
    issues.push_back(record);
  }
  void on_ack(const AckRecord& record) override {
    acks.push_back(record);
    if (kernel != nullptr) {
      priorities.push_back(kernel->tcb(record.task).priority);
    }
  }
  void on_pattern_complete(sim::Tick tick) override { completed_at = tick; }

  /// When set, each ack also records its task's priority at that moment.
  const pcore::PcoreKernel* kernel = nullptr;
  std::vector<IssueRecord> issues;
  std::vector<AckRecord> acks;
  std::vector<pcore::Priority> priorities;
  std::optional<sim::Tick> completed_at;
};

class CommitterFixture : public ::testing::Test {
 protected:
  void SetUp() override {
    bridge::intern_service_alphabet(alphabet_);
    kernel_.register_program(0, [](std::uint32_t) {
      return pcore::Program{"idle", pcore::idle()};
    });
  }

  pattern::MergedPattern pattern_of(
      std::initializer_list<std::pair<int, const char*>> elements) {
    pattern::MergedPattern merged;
    for (const auto& [slot, name] : elements) {
      merged.elements.push_back(
          {static_cast<pattern::SlotIndex>(slot), alphabet_.at(name)});
    }
    return merged;
  }

  /// Runs the full stack until the committer finishes (or budget).
  void run(pattern::MergedPattern merged, sim::Tick budget = 10000) {
    drive(std::make_unique<Committer>(std::move(merged), alphabet_,
                                      CommitterOptions{}, &observer_),
          budget);
  }

  /// Runs `committer` on a fresh stack until it finishes (or budget).
  void drive(std::unique_ptr<Committer> committer, sim::Tick budget = 10000) {
    soc_ = std::make_unique<sim::Soc>();
    channel_ = std::make_unique<bridge::Channel>(*soc_);
    committee_ =
        std::make_unique<bridge::Committee>(*channel_, kernel_);
    scheduler_ = std::make_unique<MasterScheduler>(*channel_);
    committer_ = committer.get();
    scheduler_->add(std::move(committer));
    soc_->attach(*scheduler_);
    soc_->attach(*committee_);
    soc_->attach(kernel_);
    for (sim::Tick t = 0; t < budget && !scheduler_->all_done(); ++t) {
      (void)soc_->step();
    }
  }

  pfa::Alphabet alphabet_;
  pcore::PcoreKernel kernel_;
  RecordingObserver observer_;
  std::unique_ptr<sim::Soc> soc_;
  std::unique_ptr<bridge::Channel> channel_;
  std::unique_ptr<bridge::Committee> committee_;
  std::unique_ptr<MasterScheduler> scheduler_;
  Committer* committer_ = nullptr;
};

TEST_F(CommitterFixture, DrivesFullLifecyclePattern) {
  run(pattern_of({{0, "TC"}, {0, "TS"}, {0, "TR"}, {0, "TCH"}, {0, "TD"}}));
  EXPECT_TRUE(committer_->finished());
  EXPECT_EQ(committer_->issued(), 5u);
  EXPECT_EQ(committer_->acked(), 5u);
  EXPECT_EQ(committer_->failed(), 0u);
  EXPECT_EQ(kernel_.live_task_count(), 0u);
  EXPECT_TRUE(observer_.completed_at.has_value());
}

TEST_F(CommitterFixture, BindsSlotsToDistinctTasks) {
  run(pattern_of({{0, "TC"}, {1, "TC"}, {2, "TC"}}));
  EXPECT_TRUE(committer_->finished());
  const auto t0 = committer_->task_for_slot(0);
  const auto t1 = committer_->task_for_slot(1);
  const auto t2 = committer_->task_for_slot(2);
  ASSERT_TRUE(t0 && t1 && t2);
  EXPECT_NE(*t0, *t1);
  EXPECT_NE(*t1, *t2);
  EXPECT_EQ(kernel_.live_task_count(), 3u);
  // Unique priorities per slot (paper §IV-A).
  EXPECT_NE(kernel_.tcb(*t0).priority, kernel_.tcb(*t1).priority);
}

TEST_F(CommitterFixture, PerSlotOrderingPreserved) {
  run(pattern_of({{0, "TC"}, {1, "TC"}, {0, "TS"}, {1, "TS"}, {0, "TR"},
                  {1, "TR"}, {0, "TD"}, {1, "TD"}}));
  EXPECT_TRUE(committer_->finished());
  // Acks for a slot must follow pattern order.
  std::map<pattern::SlotIndex, std::vector<bridge::Service>> order;
  for (const auto& ack : observer_.acks) {
    order[ack.issue.slot].push_back(ack.issue.service);
  }
  const std::vector<bridge::Service> expected{
      bridge::Service::kTaskCreate, bridge::Service::kTaskSuspend,
      bridge::Service::kTaskResume, bridge::Service::kTaskDelete};
  EXPECT_EQ(order[0], expected);
  EXPECT_EQ(order[1], expected);
}

TEST_F(CommitterFixture, TaskSlotUnbindsAfterDelete) {
  run(pattern_of({{0, "TC"}, {0, "TD"}}));
  EXPECT_FALSE(committer_->task_for_slot(0).has_value());
}

TEST_F(CommitterFixture, ChanprioUsesCyclingPriorities) {
  run(pattern_of({{0, "TC"}, {0, "TCH"}, {0, "TCH"}, {0, "TD"}}));
  EXPECT_TRUE(committer_->finished());
  EXPECT_EQ(committer_->failed(), 0u);
}

TEST_F(CommitterFixture, PrioritiesFollowTheSlotSchedule) {
  // TC of slot s creates its task at 10 + s; the k-th TCH of slot s
  // (k from 0) sets 10 + (s + k) % 16.  Each priority is read from the
  // kernel's TCB when the ack arrives, before the slot's next command.
  constexpr pattern::SlotIndex kSlots = 16;
  constexpr std::uint32_t kChanprios = 18;  // past one 16-step cycle
  pattern::MergedPattern merged;
  for (pattern::SlotIndex slot = 0; slot < kSlots; ++slot) {
    merged.elements.push_back({slot, alphabet_.at("TC")});
  }
  for (std::uint32_t k = 0; k < kChanprios; ++k) {
    for (pattern::SlotIndex slot = 0; slot < kSlots; ++slot) {
      merged.elements.push_back({slot, alphabet_.at("TCH")});
    }
  }
  observer_.kernel = &kernel_;
  run(std::move(merged), 100000);
  ASSERT_TRUE(committer_->finished());
  EXPECT_EQ(committer_->failed(), 0u);
  ASSERT_EQ(observer_.acks.size(), kSlots * (1 + kChanprios));
  ASSERT_EQ(observer_.priorities.size(), observer_.acks.size());
  std::vector<std::uint32_t> chanprios(kSlots, 0);
  for (std::size_t i = 0; i < observer_.acks.size(); ++i) {
    const IssueRecord& issue = observer_.acks[i].issue;
    const pattern::SlotIndex slot = issue.slot;
    if (issue.service == bridge::Service::kTaskCreate) {
      EXPECT_EQ(observer_.priorities[i], 10 + slot) << "TC slot " << slot;
    } else {
      ASSERT_EQ(issue.service, bridge::Service::kTaskChanprio);
      const std::uint32_t k = chanprios[slot]++;
      EXPECT_EQ(observer_.priorities[i], 10 + (slot + k) % 16)
          << "TCH " << k << " slot " << slot;
    }
  }
  for (const std::uint32_t count : chanprios) EXPECT_EQ(count, kChanprios);
}

TEST_F(CommitterFixture, FailedCommandCountedNotFatal) {
  // TS on a slot whose task was already deleted by TD — committer skips
  // (no bound task), so craft a failure differently: create twice in one
  // slot; the second TC binds a new task and the first is orphaned (still
  // legal).  Use resume-without-suspend instead: TR on a ready task.
  run(pattern_of({{0, "TC"}, {0, "TR"}, {0, "TD"}}));
  EXPECT_TRUE(committer_->finished());
  EXPECT_EQ(committer_->failed(), 1u);  // TR rejected: kErrBadState
  EXPECT_EQ(kernel_.live_task_count(), 0u);
}

TEST_F(CommitterFixture, SkipsServicesForUnboundSlots) {
  run(pattern_of({{0, "TS"}, {0, "TR"}}));
  EXPECT_TRUE(committer_->finished());
  EXPECT_EQ(committer_->issued(), 0u);
}

TEST_F(CommitterFixture, SlotsOutsideThePatternHaveNoTask) {
  run(pattern_of({{0, "TC"}, {0, "TS"}}));
  EXPECT_TRUE(committer_->finished());
  EXPECT_TRUE(committer_->task_for_slot(0).has_value());
  EXPECT_FALSE(committer_->task_for_slot(1).has_value());
  EXPECT_FALSE(committer_->task_for_slot(7).has_value());
}

TEST_F(CommitterFixture, EmptyPatternFinishesWithNoSlots) {
  run(pattern::MergedPattern{});
  EXPECT_TRUE(committer_->finished());
  EXPECT_EQ(committer_->issued(), 0u);
  EXPECT_FALSE(committer_->task_for_slot(0).has_value());
}

TEST_F(CommitterFixture, UnresponsiveReportNamesTheLowestTimedOutSeq) {
  // No committee: the slave never answers, so the test acks by hand.
  // Four TCs on four slots go out as seqs 1..4; acks for 3 and then 1
  // arrive out of order, leaving 2 and 4 outstanding.
  soc_ = std::make_unique<sim::Soc>();
  channel_ = std::make_unique<bridge::Channel>(*soc_);
  scheduler_ = std::make_unique<MasterScheduler>(*channel_);
  core::StateRecorder recorder(alphabet_);
  auto committer = std::make_unique<Committer>(
      pattern_of({{0, "TC"}, {1, "TC"}, {2, "TC"}, {3, "TC"}}), alphabet_,
      CommitterOptions{}, &recorder);
  committer_ = committer.get();
  scheduler_->add(std::move(committer));
  soc_->attach(*scheduler_);
  (void)soc_->run(8);
  ASSERT_EQ(committer_->issued(), 4u);
  for (const std::uint32_t seq : {3u, 1u}) {
    bridge::Response ack;
    ack.seq = seq;
    ack.task = static_cast<std::uint8_t>(seq);
    ASSERT_TRUE(channel_->post_response(*soc_, ack));
  }
  (void)soc_->run(8);
  ASSERT_EQ(committer_->acked(), 2u);
  std::vector<std::uint32_t> outstanding;
  for (const auto& [seq, issue] : committer_->outstanding()) {
    outstanding.push_back(seq);
  }
  ASSERT_EQ(outstanding, (std::vector<std::uint32_t>{2, 4}));

  // Both are far past the timeout when the detector first looks.
  core::DetectorConfig config;
  config.command_timeout = 4;
  core::BugDetector detector(config, kernel_, *committer_, recorder);
  soc_->attach(detector);
  (void)soc_->run(1);
  ASSERT_TRUE(detector.bug_found());
  EXPECT_EQ(detector.report()->kind, core::BugKind::kUnresponsive);
  EXPECT_EQ(detector.report()->description.rfind("command seq=2 (", 0), 0u)
      << detector.report()->description;
}

class Spinner final : public MasterThread {
 public:
  explicit Spinner(int limit) : limit_(limit) {}
  std::string name() const override { return "spinner"; }
  ThreadStep step(MasterContext&) override {
    return ++steps_ >= limit_ ? ThreadStep::kDone : ThreadStep::kContinue;
  }
  int steps_ = 0;
  int limit_;
};

// --- the service table ---------------------------------------------------------
//
// The committer resolves each symbol's service once; every entry must be
// what bridge::service_from_symbol says for that symbol.

void expect_table_matches(const Committer& committer,
                          const pfa::Alphabet& alphabet) {
  const auto& table = committer.service_table();
  ASSERT_EQ(table.size(), alphabet.size());
  for (pfa::SymbolId symbol = 0; symbol < alphabet.size(); ++symbol) {
    EXPECT_EQ(table[symbol], bridge::service_from_symbol(alphabet, symbol))
        << alphabet.name(symbol);
  }
}

TEST(CommitterServiceTable, MatchesServiceFromSymbolOnEveryCatalogAlphabet) {
  std::size_t variants = 0;
  core::for_each_catalog_variant([&](const core::CatalogVariant& variant) {
    SCOPED_TRACE(variant.label);
    const core::CompiledTestPlanPtr plan = core::compile(variant.config);
    pfa::Alphabet alphabet = plan->alphabet;
    Committer committer(pattern::MergedPattern{}, alphabet, {});
    expect_table_matches(committer, alphabet);

    // A symbol interned after construction joins the table on reset().
    alphabet.intern("late-symbol");
    const pattern::MergedPattern empty;
    committer.reset(empty);
    expect_table_matches(committer, alphabet);
    ++variants;
  });
  EXPECT_EQ(variants, 27u);
}

TEST(CommitterServiceTable, ServicesInternedAfterConstructionResolveOnReset) {
  pfa::Alphabet alphabet;
  alphabet.intern("x");
  Committer committer(pattern::MergedPattern{}, alphabet, {});
  expect_table_matches(committer, alphabet);
  EXPECT_FALSE(committer.service_table()[0].has_value());

  bridge::intern_service_alphabet(alphabet);
  const pattern::MergedPattern empty;
  committer.reset(empty);
  expect_table_matches(committer, alphabet);
  EXPECT_EQ(committer.service_table()[alphabet.at("TCH")],
            bridge::Service::kTaskChanprio);
}

TEST_F(CommitterFixture, CommandsInternedAfterConstructionAreIssued) {
  // The committer is built before its alphabet holds the mnemonics; the
  // first command past the table's end extends it.
  pfa::Alphabet late;
  late.intern("x");
  pattern::MergedPattern merged;
  merged.elements = {{0, 1}, {0, 2}};  // TC and TD once interned
  auto committer = std::make_unique<Committer>(std::move(merged), late,
                                               CommitterOptions{},
                                               &observer_);
  bridge::intern_service_alphabet(late);
  ASSERT_EQ(late.at("TC"), 1u);
  ASSERT_EQ(late.at("TD"), 2u);
  drive(std::move(committer));
  EXPECT_TRUE(committer_->finished());
  EXPECT_EQ(committer_->acked(), 2u);
  EXPECT_EQ(committer_->failed(), 0u);
  ASSERT_EQ(observer_.issues.size(), 2u);
  EXPECT_EQ(observer_.issues[0].service, bridge::Service::kTaskCreate);
  EXPECT_EQ(observer_.issues[1].service, bridge::Service::kTaskDelete);
  expect_table_matches(*committer_, late);
}

TEST(MasterSchedulerTest, RoundRobinSharesTime) {
  sim::Soc soc;
  bridge::Channel channel(soc);
  MasterScheduler scheduler(channel, /*quantum=*/4);
  auto a = std::make_unique<Spinner>(10);
  auto b = std::make_unique<Spinner>(10);
  Spinner* pa = a.get();
  Spinner* pb = b.get();
  scheduler.add(std::move(a));
  scheduler.add(std::move(b));
  soc.attach(scheduler);
  (void)soc.run(50);
  EXPECT_TRUE(scheduler.all_done());
  EXPECT_EQ(pa->steps_, 10);
  EXPECT_EQ(pb->steps_, 10);
}

TEST(MasterSchedulerTest, ThreadAddedAfterAllDoneRuns) {
  sim::Soc soc;
  bridge::Channel channel(soc);
  MasterScheduler scheduler(channel, /*quantum=*/4);
  EXPECT_TRUE(scheduler.all_done());  // no threads yet
  auto a = std::make_unique<Spinner>(3);
  Spinner* pa = a.get();
  scheduler.add(std::move(a));
  EXPECT_FALSE(scheduler.all_done());
  soc.attach(scheduler);
  (void)soc.run(10);
  ASSERT_TRUE(scheduler.all_done());
  EXPECT_EQ(pa->steps_, 3);

  // Idle ticks leave the finished thread alone.
  (void)soc.run(5);
  EXPECT_EQ(pa->steps_, 3);

  auto b = std::make_unique<Spinner>(5);
  Spinner* pb = b.get();
  EXPECT_EQ(scheduler.add(std::move(b)), 1u);
  EXPECT_FALSE(scheduler.all_done());
  (void)soc.run(20);
  EXPECT_TRUE(scheduler.all_done());
  EXPECT_EQ(pa->steps_, 3);
  EXPECT_EQ(pb->steps_, 5);
  EXPECT_EQ(soc.trace().total_recorded(), 2u);  // one thread-done each
}

}  // namespace
}  // namespace ptest::master
