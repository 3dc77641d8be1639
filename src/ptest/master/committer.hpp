// The committer: pTest's master-side agent (Fig. 2).  "According to the
// test pattern, the committer issues the corresponding commands to enable
// the remote testing for a slave system." (§III-B)
//
// A MasterThread that walks a MergedPattern element by element:
//   * per-slot ordering is strict — a slot's next service is issued only
//     after its previous command was acknowledged, preserving the merged
//     interleaving's intent;
//   * TC allocates the pCore task at priority 10 + slot ("each task is
//     typically forked with a unique priority", §IV-A) and binds the
//     slot; the k-th TCH of a slot sets 10 + (slot + k) % 16;
//   * TD/TY retire the slot's task; one rejected because the task was
//     transiently blocked (bad state) is retried under RetryPolicy{};
//   * every issue/ack is reported to a CommitterObserver so pTest's state
//     recorder (Definition 2) and bug detector see the execution history;
//   * each alphabet symbol's service is resolved once, into a table built
//     at construction and extended when the alphabet grows, so a command
//     never compares mnemonic strings;
//   * an optional per-command issue delay and noise hook support the
//     ConTest-style baseline.
#pragma once

#include <functional>
#include <optional>
#include <vector>

#include "ptest/fleet/ledger.hpp"
#include "ptest/master/thread.hpp"
#include "ptest/pattern/pattern.hpp"
#include "ptest/pcore/task.hpp"

namespace ptest::master {

struct IssueRecord {
  std::uint32_t seq = 0;
  pattern::SlotIndex slot = 0;
  pfa::SymbolId symbol = 0;
  bridge::Service service = bridge::Service::kTaskCreate;
  sim::Tick issued_at = 0;
};

struct AckRecord {
  IssueRecord issue;
  bridge::ResponseStatus status = bridge::ResponseStatus::kOk;
  std::uint8_t detail = 0;              // pcore::Status
  pcore::TaskId task = pcore::kInvalidTask;
  sim::Tick acked_at = 0;
};

class CommitterObserver {
 public:
  virtual ~CommitterObserver() = default;
  virtual void on_issue(const IssueRecord& record) = 0;
  virtual void on_ack(const AckRecord& record) = 0;
  virtual void on_pattern_complete(sim::Tick tick) = 0;
};

struct CommitterOptions {
  /// Program each created task runs: id into the kernel registry plus a
  /// per-slot argument provider.
  std::uint32_t program_id = 0;
  std::function<std::uint32_t(pattern::SlotIndex)> program_arg =
      [](pattern::SlotIndex) { return 0u; };
  /// Extra ticks to wait before each issue (noise injection hook; 0 = none).
  std::function<sim::Tick(const pattern::MergedElement&)> issue_delay =
      [](const pattern::MergedElement&) { return sim::Tick{0}; };
};

class Committer : public MasterThread {
 public:
  /// A committer that owns `pattern`.
  Committer(pattern::MergedPattern pattern, const pfa::Alphabet& alphabet,
            CommitterOptions options, CommitterObserver* observer = nullptr);

  // Not copyable or movable: pattern() may point at the owned copy.
  Committer(const Committer&) = delete;
  Committer& operator=(const Committer&) = delete;

  [[nodiscard]] std::string name() const override { return "committer"; }
  ThreadStep step(MasterContext& ctx) override;

  /// Returns to the state of a committer freshly constructed with
  /// `pattern` and the same options and observer.  The committer borrows
  /// `pattern`, which must outlive the session (or the next reset); the
  /// ledger, retries and slot state keep their capacity.  Symbols the
  /// alphabet interned since the last reset join the service table.
  void reset(const pattern::MergedPattern& pattern);
  void reset(pattern::MergedPattern&&) = delete;

  /// The merged pattern this committer drives.
  [[nodiscard]] const pattern::MergedPattern& pattern() const noexcept {
    return *pattern_;
  }

  /// bridge::service_from_symbol of every alphabet symbol, indexed by
  /// symbol id; an alphabet only appends, so the table covers the symbols
  /// interned up to the last construction, reset() or command.
  [[nodiscard]] const std::vector<std::optional<bridge::Service>>&
  service_table() const noexcept {
    return services_;
  }

  [[nodiscard]] bool finished() const noexcept { return finished_; }
  [[nodiscard]] std::size_t issued() const noexcept { return issued_count_; }
  [[nodiscard]] std::size_t acked() const noexcept { return acked_count_; }
  [[nodiscard]] std::size_t failed() const noexcept { return failed_count_; }
  /// Outstanding (seq, issue) entries in ascending seq order, with their
  /// issue ticks (bug-detector timeout source).
  [[nodiscard]] const std::vector<std::pair<std::uint32_t, IssueRecord>>&
  outstanding() const noexcept {
    return ledger_.outstanding();
  }
  /// pCore task bound to a slot, if any (nullopt for a slot the pattern
  /// does not use).
  [[nodiscard]] std::optional<pcore::TaskId> task_for_slot(
      pattern::SlotIndex slot) const {
    if (slot >= slots_.size()) return std::nullopt;
    return slots_[slot].task;
  }

 private:
  enum class PostOutcome { kPosted, kSkipped, kBackpressure };

  /// Per-slot bookkeeping, indexed by slot.
  struct SlotState {
    std::optional<pcore::TaskId> task;  // bound by a TC ack
    bool busy = false;                  // a command awaits its ack
    std::uint32_t chanprio_count = 0;   // TCH commands issued so far
  };

  /// Sizes slots_ to the pattern's widest slot, every entry fresh.
  void reset_slots();
  /// Resolves the symbols the alphabet interned past the table's end.
  void extend_service_table();
  /// `symbol`'s service through the table; nullopt for a symbol that
  /// names no service or lies past the alphabet.
  [[nodiscard]] std::optional<bridge::Service> service_of(
      pfa::SymbolId symbol) {
    if (symbol >= services_.size()) {
      extend_service_table();
      if (symbol >= services_.size()) return std::nullopt;
    }
    return services_[symbol];
  }
  void drain_responses(MasterContext& ctx);
  ThreadStep issue_next(MasterContext& ctx);
  PostOutcome post_element(MasterContext& ctx,
                           const pattern::MergedElement& element);

  /// The constructor's pattern; pattern_ points here until a reset()
  /// borrows another.
  pattern::MergedPattern owned_;
  const pattern::MergedPattern* pattern_;
  const pfa::Alphabet* alphabet_;
  std::vector<std::optional<bridge::Service>> services_;
  CommitterOptions options_;
  CommitterObserver* observer_;

  std::size_t cursor_ = 0;
  /// Issue/ack/retry bookkeeping (fleet/ledger.hpp); the default retry
  /// budget is charged per slot, time is the simulation tick.
  fleet::OutstandingTable<IssueRecord> ledger_;
  fleet::RetryQueue<pattern::MergedElement, pattern::SlotIndex> retries_;
  /// One entry per slot up to the pattern's largest, sized once.
  std::vector<SlotState> slots_;
  sim::Tick delay_until_ = 0;
  std::size_t issued_count_ = 0;
  std::size_t acked_count_ = 0;
  std::size_t failed_count_ = 0;
  bool finished_ = false;
};

}  // namespace ptest::master
