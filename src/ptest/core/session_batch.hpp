// SessionBatchRunner — the one place sessions run in parallel.
//
// Campaign (whole slices, or 8-session policy rounds when arms compete)
// and GuidedCampaign (one batch per epoch) hand it one compiled plan per
// arm, a session body and a run-index range.  It owns the WorkerPool and
// one Slot per participant, and each session folds into its
// participant's slot.  The fold is order-free: counters, histograms and
// coverage merge by sum or union, and "first report per signature"
// becomes "lowest run index per signature" — a participant claims
// increasing indices, so it keeps its first report, and the batch keeps
// the lowest index across slots.  The result is therefore bit-identical
// for every `jobs` value.  A session files only its report's head; the
// fold completes the body on the rig the session ran on, and only when
// the participant has not seen the signature yet, so a repeat costs no
// snapshot.
//
// A participant touches, session after session, only memory it
// allocated on its own thread: its slot is built at its first session,
// on that thread — the scratch, the kept result, a rig and a coverage
// tracker per arm and, on a helper, a private copy of each arm's plan —
// and cache-line aligned, so no two threads write one line.  The caller
// (participant 0) reads the plans it compiled; a helper that read them
// could share their heap lines with whatever the caller allocates next
// to them and writes every session.  A helper's copies are refreshed
// only when set_plans() changes the plans: once per campaign, once per
// guided epoch.
#pragma once

#include <cstddef>
#include <cstdint>
#include <functional>
#include <map>
#include <memory>
#include <optional>
#include <string>
#include <utility>
#include <vector>

#include "ptest/core/campaign.hpp"
#include "ptest/support/worker_pool.hpp"

namespace ptest::core {

struct SessionBatch {
  /// Everything but coverage (see SessionBatchRunner::take_coverage).
  CampaignResult result;
  /// Lowest run index whose report counted as a detection.
  std::optional<std::size_t> first_detection;
};

class SessionBatchRunner {
 public:
  class Slot;
  /// The session body: runs global run index `run` on `slot`, the
  /// running participant's own state, and returns the arm it ran.  It
  /// executes slot.plan(arm) on slot.rig(arm) into slot.out(), which
  /// holds the previous session the participant ran (and that session's
  /// report when the fold did not keep it): the body overwrites it,
  /// reusing its buffers.  The rig must stay loaded with the session:
  /// the fold completes a kept report on it.
  using Body = support::FunctionRef<std::size_t(Slot& slot, std::size_t run)>;
  /// Whether a filed report counts as a detection; empty = every report.
  /// Runs on worker threads, so it must be pure.
  using Counts = std::function<bool(const BugReport&)>;

  /// `plans` holds one compiled plan per arm; rigs are built from their
  /// configs and alphabets and coverage folds sampled edges of their
  /// automata.  `jobs` follows CampaignOptions::jobs, capped at
  /// `max_batch`, the largest range run() will get.
  SessionBatchRunner(std::size_t jobs, std::size_t max_batch,
                     std::vector<CompiledTestPlanPtr> plans, Counts counts);

  [[nodiscard]] std::size_t participants() const noexcept {
    return slots_.size();
  }

  /// Replaces the plans later batches run (a guided epoch's refined
  /// plan).  Each must keep its arm's config, alphabet and automaton
  /// skeleton: the slots' rigs and coverage trackers outlive the change.
  void set_plans(std::vector<CompiledTestPlanPtr> plans);

  /// Runs run indices [first, last) in one parallel_for and folds them.
  SessionBatch run(std::size_t first, std::size_t last, Body body);

  /// Per arm, the union of every slot's coverage since the last call.
  [[nodiscard]] std::vector<pattern::CoverageState> take_coverage();

  /// Participant p's state.  Only p touches slot p during a batch.
  class alignas(64) Slot {
   public:
    [[nodiscard]] std::size_t participant() const noexcept {
      return participant_;
    }
    /// Arm `arm`'s plan: the caller's own on participant 0, a private
    /// copy on a helper.
    [[nodiscard]] const CompiledTestPlan& plan(std::size_t arm) const {
      return *plans_[arm];
    }
    /// Arm `arm`'s rig, kept across sessions and batches.
    [[nodiscard]] SessionRig& rig(std::size_t arm) { return *rigs_[arm]; }
    [[nodiscard]] pfa::WalkScratch& scratch() noexcept { return scratch_; }
    /// The session the body writes into, kept across sessions.
    [[nodiscard]] AdaptiveTestResult& out() noexcept { return session_; }

   private:
    friend class SessionBatchRunner;

    std::size_t participant_ = 0;
    /// The plans version plans_ reflects; 0 before the first session.
    std::uint64_t plans_version_ = 0;
    /// The batch partial_ and reports_ belong to; 0 before the first.
    std::uint64_t batch_ = 0;
    std::vector<std::unique_ptr<CompiledTestPlan>> copies_;  // helpers only
    std::vector<const CompiledTestPlan*> plans_;
    std::vector<std::unique_ptr<SessionRig>> rigs_;
    /// One per arm; empty until the first session after take_coverage().
    std::vector<pattern::CoverageTracker> coverage_;
    pfa::WalkScratch scratch_;
    CampaignResult partial_;  // no reports: those keep their run index
    AdaptiveTestResult session_;
    /// The last report's signature, written into a kept buffer.
    std::string key_;
    std::map<std::string, std::pair<std::size_t, BugReport>, std::less<>>
        reports_;
  };

 private:
  /// Brings `slot` up to date for a session of the current batch, on its
  /// participant's thread.
  void prepare(Slot& slot);

  /// The constructor's plans, kept alive: participant 0 builds its rigs
  /// and trackers over them, so a set_plans() cannot pull them away.
  std::vector<CompiledTestPlanPtr> base_;
  std::vector<CompiledTestPlanPtr> plans_;
  std::uint64_t plans_version_ = 1;
  std::uint64_t batch_ = 0;
  Counts counts_;
  std::unique_ptr<support::WorkerPool> pool_;
  std::vector<Slot> slots_;
};

}  // namespace ptest::core
