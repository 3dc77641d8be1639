#include "ptest/core/state_record.hpp"

#include "ptest/support/strings.hpp"

namespace ptest::core {

const char* to_string(MasterState state) noexcept {
  switch (state) {
    case MasterState::kIdle: return "idle";
    case MasterState::kIssuing: return "issuing";
    case MasterState::kAcked: return "acked";
    case MasterState::kFailed: return "failed";
    case MasterState::kDone: return "done";
  }
  return "?";
}

const char* to_string(SlaveState state) noexcept {
  switch (state) {
    case SlaveState::kNone: return "none";
    case SlaveState::kReady: return "ready";
    case SlaveState::kSuspended: return "suspended";
    case SlaveState::kBlocked: return "blocked";
    case SlaveState::kTerminated: return "terminated";
  }
  return "?";
}

std::vector<pfa::SymbolId> CpRecord::delta() const {
  if (sn >= tp.size()) return {};
  return {tp.begin() + static_cast<std::ptrdiff_t>(sn), tp.end()};
}

std::string CpRecord::render(const pfa::Alphabet& alphabet) const {
  std::string out;
  append_to(out, alphabet);
  return out;
}

void CpRecord::append_to(std::string& out,
                         const pfa::Alphabet& alphabet) const {
  const auto append_symbols = [&](std::size_t from) {
    for (std::size_t i = from; i < tp.size(); ++i) {
      if (i != from) out += "->";
      out += alphabet.name(tp[i]);
    }
  };
  out += '(';
  out += to_string(qm);
  out += ", ";
  out += to_string(qs);
  out += ", ";
  append_symbols(0);
  out += ", ";
  support::append_decimal(out, sn);
  out += ", ";
  // δS = tp[sn..], "-" when empty.
  if (sn >= tp.size()) {
    out += '-';
  } else {
    append_symbols(sn);
  }
  out += ')';
}

void StateRecorder::assign(pattern::SlotIndex slot,
                           std::vector<pfa::SymbolId> tp) {
  CpRecord record;
  record.tp = std::move(tp);
  records_[slot] = std::move(record);
}

void StateRecorder::on_issue(const master::IssueRecord& record) {
  CpRecord& cp = records_[record.slot];
  cp.qm = MasterState::kIssuing;
  if (cp.sn < cp.tp.size()) ++cp.sn;
}

void StateRecorder::on_ack(const master::AckRecord& record) {
  CpRecord& cp = records_[record.issue.slot];
  if (record.status != bridge::ResponseStatus::kOk) {
    cp.qm = MasterState::kFailed;
    return;
  }
  cp.qm = (cp.sn >= cp.tp.size()) ? MasterState::kDone : MasterState::kAcked;
  switch (record.issue.service) {
    case bridge::Service::kTaskCreate:
    case bridge::Service::kTaskResume:
      cp.qs = SlaveState::kReady;
      break;
    case bridge::Service::kTaskSuspend:
      cp.qs = SlaveState::kSuspended;
      break;
    case bridge::Service::kTaskDelete:
    case bridge::Service::kTaskYield:
      cp.qs = SlaveState::kTerminated;
      break;
    case bridge::Service::kTaskChanprio:
      break;  // state unchanged
  }
}

void StateRecorder::on_pattern_complete(sim::Tick) {
  for (auto& [slot, cp] : records_) {
    if (cp.qm == MasterState::kAcked && cp.sn >= cp.tp.size()) {
      cp.qm = MasterState::kDone;
    }
  }
}

std::string StateRecorder::render() const {
  std::string out;
  for (const auto& [slot, cp] : records_) {
    out += "CP";
    support::append_decimal(out, slot);
    out += "= ";
    cp.append_to(out, *alphabet_);
    out += '\n';
  }
  return out;
}

}  // namespace ptest::core
