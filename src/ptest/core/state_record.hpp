// State recording of concurrent processes — Definition 2 and Fig. 4.
//
// CP = (qm, qs, TP, SN, δS):
//   qm — state of the master process (the committer's protocol state for
//        this slot just before it issued the last remote command),
//   qs — state of the corresponding slave process,
//   TP — the test pattern assigned to the slave process,
//   SN — sequence number of the pattern's current state,
//   δS — the remaining subsequence to execute next.
//
// The StateRecorder observes the committer and maintains one CpRecord per
// slot; the bug detector embeds the records in its reports, which is what
// lets a user see exactly where in each pattern the failure occurred.
#pragma once

#include <map>
#include <string>
#include <vector>

#include "ptest/master/committer.hpp"
#include "ptest/pattern/pattern.hpp"

namespace ptest::core {

/// Master-process protocol states (the m* of Fig. 4).
enum class MasterState : std::uint8_t {
  kIdle = 0,    // nothing issued yet
  kIssuing,     // command sent, ack pending
  kAcked,       // last command acknowledged
  kFailed,      // last command rejected / slave panicked
  kDone,        // pattern for this slot fully executed
};

[[nodiscard]] const char* to_string(MasterState state) noexcept;

/// Slave-process states (the s* of Fig. 4): pcore task states plus
/// "not created yet".
enum class SlaveState : std::uint8_t {
  kNone = 0,
  kReady,
  kSuspended,
  kBlocked,
  kTerminated,
};

[[nodiscard]] const char* to_string(SlaveState state) noexcept;

struct CpRecord {
  MasterState qm = MasterState::kIdle;
  SlaveState qs = SlaveState::kNone;
  std::vector<pfa::SymbolId> tp;  // TP
  std::size_t sn = 0;             // SN, 1-based; 0 = before first state
  /// δS is derived: tp[sn..].
  [[nodiscard]] std::vector<pfa::SymbolId> delta() const;

  /// Fig. 4 rendering: "(m, s, p1->p2->p3, SN, pk->...)".
  [[nodiscard]] std::string render(const pfa::Alphabet& alphabet) const;
  /// Appends render()'s text to `out`.
  void append_to(std::string& out, const pfa::Alphabet& alphabet) const;
};

class StateRecorder final : public master::CommitterObserver {
 public:
  explicit StateRecorder(const pfa::Alphabet& alphabet)
      : alphabet_(&alphabet) {}

  /// Registers the pattern assigned to `slot` (before the run).
  void assign(pattern::SlotIndex slot, std::vector<pfa::SymbolId> tp);

  void on_issue(const master::IssueRecord& record) override;
  void on_ack(const master::AckRecord& record) override;
  void on_pattern_complete(sim::Tick tick) override;

  [[nodiscard]] const std::map<pattern::SlotIndex, CpRecord>& records()
      const noexcept {
    return records_;
  }
  [[nodiscard]] const CpRecord& record(pattern::SlotIndex slot) const {
    return records_.at(slot);
  }

  /// All records rendered one per line ("CPk= (...)"), as in Fig. 4.
  [[nodiscard]] std::string render() const;

 private:
  const pfa::Alphabet* alphabet_;
  std::map<pattern::SlotIndex, CpRecord> records_;
};

}  // namespace ptest::core
