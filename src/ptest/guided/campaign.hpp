// GuidedCampaign — coverage-guided refinement of PFA test plans across
// epochs.
//
// The paper's Algorithm 1 samples patterns from a *static* PFA; §V
// concedes fault coverage was never verified and asks how the
// probability distributions influence generation.  This module closes
// the loop the paper left open:
//
//   epoch e:  run a batch of sessions off the current compiled plan
//             -> fold structural coverage, trace fingerprints, and bug
//                yield into the CoverageCorpus
//             -> PlanRefiner re-weights the distributions toward the
//                still-uncovered transitions
//             -> recompile through the ordinary compile/execute split
//   stop on:  oracle fire (the seeded bug was found), the epoch budget,
//             or a plateau in the coverage-gain series — detected by an
//             offline changepoint scan in the spirit of conformal
//             changepoint localization (Hore & Ramdas): locate the most
//             likely mean-shift in the gain series and stop once the
//             post-change segment is long and flat enough.
//
// Sessions run like a Campaign's: core::execute on the kept
// core::SessionRig of the batch participant's slot, built once per run.
// Refinement only moves probabilities, so every refined plan shares the
// base plan's config and alphabet, which is all a rig is built from; the
// runner's set_plans() hands each epoch's plan to the slots.  Each
// session's trace fingerprint is read off its rig's Soc right after the
// run, into the participant's own cache line of fingerprints.
//
// Determinism: a guided run is a pure function of (config.seed, options,
// seed corpus).  Each epoch is one core::SessionBatchRunner batch, like
// a Campaign — session seeds derive from the global run index alone and
// the batch folds order-free — so `jobs` can never change the outcome.
// A corpus saved mid-campaign resumes to the bit-identical continuation
// of the uninterrupted run: run indices continue from corpus.sessions(),
// epochs count globally from corpus.epochs(), and the corpus records
// which transitions each epoch first covered — just enough to replay
// the refinement chain (each epoch refines the previous refined plan)
// before the first resumed batch.
#pragma once

#include <functional>
#include <optional>
#include <string>
#include <string_view>
#include <vector>

#include "ptest/core/campaign.hpp"
#include "ptest/guided/corpus.hpp"
#include "ptest/guided/refiner.hpp"

namespace ptest::guided {

struct GuidedOptions {
  /// Refinement epochs at most (>= 1); the budget stop.
  std::size_t max_epochs = 8;
  /// Sessions per epoch batch (>= 1).  Total session budget is therefore
  /// at most max_epochs * sessions_per_epoch.
  std::size_t sessions_per_epoch = 8;
  /// Worker threads per epoch batch (CampaignOptions::jobs semantics,
  /// capped at sessions_per_epoch; never changes results).
  std::size_t jobs = 1;
  /// Re-weighting policy (exploration share, floor).
  RefinerOptions refiner;
  /// Plateau stop: the post-changepoint segment of the coverage-gain
  /// series must span at least `plateau_window` epochs with mean gain
  /// below 1e-3.  window = 0 disables the plateau stop.
  std::size_t plateau_window = 3;
  /// Stop as soon as a counted detection lands (sessions-to-first-bug
  /// mode).  Off = spend the full epoch budget mapping coverage.
  bool stop_on_bug = true;
  /// Which detections count (scenario oracles route through this);
  /// nullptr = any detected bug.  Called on the worker threads that run
  /// the sessions, possibly concurrently, so it must be pure.
  std::function<bool(const core::BugReport&)> counts_as_bug;
};

enum class StopReason : std::uint8_t {
  kBugFound = 0,
  kEpochBudget,
  kCoveragePlateau,
};
[[nodiscard]] const char* to_string(StopReason reason) noexcept;

/// Per-epoch accounting mirrored into the corpus (EpochRecord) and the
/// result's trajectory.
struct GuidedEpoch {
  std::size_t index = 0;            ///< epoch ordinal within this run
  std::size_t sessions = 0;
  std::size_t detections = 0;       ///< counted detections in this epoch
  std::uint64_t new_transitions = 0;
  std::uint64_t new_fingerprints = 0;
  double transition_coverage = 0.0;  ///< cumulative (corpus-seeded) value
  double coverage_gain = 0.0;
};

struct GuidedResult {
  /// Aggregate over every executed session, in ordinary campaign shape
  /// (one arm; metrics carry epochs / plan_refinements / pfa_* coverage).
  core::CampaignResult campaign;
  std::vector<GuidedEpoch> epochs;
  StopReason stop_reason = StopReason::kEpochBudget;
  /// Plans recompiled from a refined spec (= epochs run - 1, unless the
  /// run stopped during epoch 0).
  std::size_t refinements = 0;
  /// 1-based ordinal, within this run, of the first session whose report
  /// counted; the guided-vs-static bench's headline number.
  std::optional<std::size_t> sessions_to_first_bug;
  /// Final cumulative structural coverage (corpus included).
  pattern::CoverageReport coverage;
};

class GuidedCampaign {
 public:
  /// `corpus` seeds coverage/fingerprints from an earlier invocation
  /// (pass {} to start cold); after run() it holds the accumulated
  /// state, retrievable via corpus() for saving.
  GuidedCampaign(core::PtestConfig config, core::WorkloadSetup setup,
                 GuidedOptions options = {}, CoverageCorpus corpus = {});

  [[nodiscard]] GuidedResult run();

  /// The corpus after (or before) run() — save this to resume later.
  [[nodiscard]] const CoverageCorpus& corpus() const noexcept {
    return corpus_;
  }

  /// Guided counterpart of Campaign::run_scenario: runs the named
  /// registry scenario under guidance, wiring its BugOracle into
  /// counts_as_bug.  A corpus labeled for a different scenario is
  /// rejected (clean Result error, like every other misuse here).
  [[nodiscard]] static support::Result<GuidedResult, std::string>
  run_scenario(std::string_view name, GuidedOptions options = {},
               CoverageCorpus corpus = {},
               std::optional<std::uint64_t> seed_override = {},
               CoverageCorpus* corpus_out = nullptr);

 private:
  core::PtestConfig config_;
  core::WorkloadSetup setup_;
  GuidedOptions options_;
  CoverageCorpus corpus_;
};

/// Exposed for tests: the plateau rule over a coverage-gain series.
/// Offline changepoint scan (maximize the scaled mean-shift statistic
/// sqrt(tau (n - tau) / n) |mean_pre - mean_post|) plus the direct rule
/// "the last `window` gains are all below epsilon".
[[nodiscard]] bool coverage_plateaued(const std::vector<double>& gains,
                                      std::size_t window, double epsilon);

}  // namespace ptest::guided
