// SessionBatchRunner — the one place sessions run in parallel.
//
// Campaign (whole slices, or 8-session policy rounds when arms compete)
// and GuidedCampaign (one batch per epoch) hand it a session body and a
// run-index range.  It owns the WorkerPool and one slot per participant
// (sampling scratch, a coverage tracker per arm, a partial result), and
// each session folds into its participant's slot.  The fold is
// order-free: counters, histograms and coverage merge by sum or union,
// and "first report per signature" becomes "lowest run index per
// signature" — a participant claims increasing indices, so it keeps its
// first report, and the batch keeps the lowest index across slots.  The
// result is therefore bit-identical for every `jobs` value.  A session
// files only its report's head; the fold completes the body on the rig
// the session ran on, and only when the participant has not seen the
// signature yet, so a repeat costs no snapshot.
#pragma once

#include <cstddef>
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
  /// What the body returns: the session's arm and the rig it ran on,
  /// still loaded with the session, which completes a kept report.
  struct Ran {
    std::size_t arm;
    const SessionRig& rig;
  };
  /// The session body: runs global run index `run` on pool participant
  /// `participant` into `out`, sampling through that participant's
  /// scratch.  `out` is the participant's kept result, holding the
  /// previous session it ran (and that session's report when the fold did
  /// not keep it): the body overwrites it, reusing its buffers.
  using Body = support::FunctionRef<Ran(
      std::size_t participant, std::size_t run, pfa::WalkScratch& scratch,
      AdaptiveTestResult& out)>;
  /// Whether a filed report counts as a detection; empty = every report.
  /// Runs on worker threads, so it must be pure.
  using Counts = std::function<bool(const BugReport&)>;

  /// `jobs` follows CampaignOptions::jobs, capped at `max_batch`, the
  /// largest range run() will get.  Coverage folds sampled edges of
  /// `arm_pfas`, which must outlive the runner.
  SessionBatchRunner(std::size_t jobs, std::size_t max_batch,
                     std::vector<const pfa::Pfa*> arm_pfas, bool dedup,
                     Counts counts);

  [[nodiscard]] std::size_t participants() const noexcept {
    return slots_.size();
  }

  /// Runs run indices [first, last) in one parallel_for and folds them.
  SessionBatch run(std::size_t first, std::size_t last, Body body);

  /// Per arm, the union of every slot's coverage since the last call.
  [[nodiscard]] std::vector<pattern::CoverageState> take_coverage();

 private:
  /// Participant p's state; only p touches slot p during a batch.
  struct alignas(64) Slot {
    pfa::WalkScratch scratch;
    std::vector<pattern::CoverageTracker> coverage;  // one per arm
    CampaignResult partial;  // no reports: those keep their run index
    /// The session the body writes into, kept across sessions.
    AdaptiveTestResult session;
    /// The last report's signature, written into a kept buffer.
    std::string key;
    std::map<std::string, std::pair<std::size_t, BugReport>, std::less<>>
        reports;
  };

  std::vector<const pfa::Pfa*> arm_pfas_;
  bool dedup_;
  Counts counts_;
  std::unique_ptr<support::WorkerPool> pool_;
  std::vector<Slot> slots_;
};

}  // namespace ptest::core
