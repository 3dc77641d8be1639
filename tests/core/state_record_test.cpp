#include "ptest/core/state_record.hpp"

#include <gtest/gtest.h>

#include "ptest/core/report.hpp"

namespace ptest::core {
namespace {

struct Fixture {
  pfa::Alphabet alphabet;
  pfa::SymbolId tc, ts, tr, td;

  Fixture() {
    tc = alphabet.intern("TC");
    ts = alphabet.intern("TS");
    tr = alphabet.intern("TR");
    td = alphabet.intern("TD");
  }

  master::IssueRecord issue(pattern::SlotIndex slot, pfa::SymbolId symbol,
                            bridge::Service service, std::uint32_t seq) {
    return {seq, slot, symbol, service, 0};
  }

  master::AckRecord ack(const master::IssueRecord& record,
                        bridge::ResponseStatus status =
                            bridge::ResponseStatus::kOk) {
    master::AckRecord out;
    out.issue = record;
    out.status = status;
    return out;
  }
};

TEST(StateRecordTest, DeltaIsRemainingSubsequence) {
  CpRecord record;
  record.tp = {1, 2, 3};
  record.sn = 1;
  EXPECT_EQ(record.delta(), (std::vector<pfa::SymbolId>{2, 3}));
  record.sn = 3;
  EXPECT_TRUE(record.delta().empty());
}

TEST(StateRecordTest, RenderMatchesFig4Shape) {
  Fixture f;
  CpRecord record;
  record.qm = MasterState::kAcked;
  record.qs = SlaveState::kReady;
  record.tp = {f.tc, f.ts, f.tr};
  record.sn = 2;
  EXPECT_EQ(record.render(f.alphabet), "(acked, ready, TC->TS->TR, 2, TR)");
}

TEST(StateRecordTest, RenderEmptyDeltaAsDash) {
  Fixture f;
  CpRecord record;
  record.tp = {f.tc};
  record.sn = 1;
  record.qm = MasterState::kDone;
  record.qs = SlaveState::kTerminated;
  EXPECT_EQ(record.render(f.alphabet), "(done, terminated, TC, 1, -)");
}

TEST(StateRecordTest, RecorderFollowsLifecycle) {
  Fixture f;
  StateRecorder recorder(f.alphabet);
  recorder.assign(0, {f.tc, f.ts, f.tr, f.td});

  EXPECT_EQ(recorder.record(0).qm, MasterState::kIdle);
  EXPECT_EQ(recorder.record(0).qs, SlaveState::kNone);

  const auto tc_issue = f.issue(0, f.tc, bridge::Service::kTaskCreate, 1);
  recorder.on_issue(tc_issue);
  EXPECT_EQ(recorder.record(0).qm, MasterState::kIssuing);
  EXPECT_EQ(recorder.record(0).sn, 1u);

  recorder.on_ack(f.ack(tc_issue));
  EXPECT_EQ(recorder.record(0).qm, MasterState::kAcked);
  EXPECT_EQ(recorder.record(0).qs, SlaveState::kReady);

  const auto ts_issue = f.issue(0, f.ts, bridge::Service::kTaskSuspend, 2);
  recorder.on_issue(ts_issue);
  recorder.on_ack(f.ack(ts_issue));
  EXPECT_EQ(recorder.record(0).qs, SlaveState::kSuspended);
  EXPECT_EQ(recorder.record(0).sn, 2u);
  EXPECT_EQ(recorder.record(0).delta(),
            (std::vector<pfa::SymbolId>{f.tr, f.td}));

  const auto tr_issue = f.issue(0, f.tr, bridge::Service::kTaskResume, 3);
  recorder.on_issue(tr_issue);
  recorder.on_ack(f.ack(tr_issue));
  EXPECT_EQ(recorder.record(0).qs, SlaveState::kReady);

  const auto td_issue = f.issue(0, f.td, bridge::Service::kTaskDelete, 4);
  recorder.on_issue(td_issue);
  recorder.on_ack(f.ack(td_issue));
  EXPECT_EQ(recorder.record(0).qs, SlaveState::kTerminated);
  EXPECT_EQ(recorder.record(0).qm, MasterState::kDone);
}

TEST(StateRecordTest, FailedAckMarksMaster) {
  Fixture f;
  StateRecorder recorder(f.alphabet);
  recorder.assign(0, {f.tc});
  const auto tc_issue = f.issue(0, f.tc, bridge::Service::kTaskCreate, 1);
  recorder.on_issue(tc_issue);
  recorder.on_ack(f.ack(tc_issue, bridge::ResponseStatus::kError));
  EXPECT_EQ(recorder.record(0).qm, MasterState::kFailed);
}

TEST(StateRecordTest, ReportRendersAllRecords) {
  Fixture f;
  StateRecorder recorder(f.alphabet);
  recorder.assign(0, {f.tc});
  recorder.assign(1, {f.tc, f.td});
  BugReport report;
  report.state_records.assign(recorder.records().begin(),
                              recorder.records().end());
  const std::string text = report.render(f.alphabet);
  EXPECT_NE(text.find("CP0= (idle, none, TC, 0, TC)\n"), std::string::npos);
  EXPECT_NE(text.find("CP1= (idle, none, TC->TD, 0, TC->TD)\n"),
            std::string::npos);
}

}  // namespace
}  // namespace ptest::core
