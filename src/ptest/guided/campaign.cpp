#include "ptest/guided/campaign.hpp"

#include <algorithm>
#include <chrono>
#include <cmath>
#include <memory>
#include <stdexcept>

#include "ptest/obs/trace.hpp"
#include "ptest/pfa/estimator.hpp"
#include "ptest/scenario/golden.hpp"
#include "ptest/scenario/registry.hpp"
#include "ptest/support/rng.hpp"
#include "ptest/support/worker_pool.hpp"

namespace ptest::guided {

namespace {

double mean(const std::vector<double>& values, std::size_t begin,
            std::size_t end) {
  double total = 0.0;
  for (std::size_t i = begin; i < end; ++i) total += values[i];
  return end == begin ? 0.0 : total / static_cast<double>(end - begin);
}

}  // namespace

const char* to_string(StopReason reason) noexcept {
  switch (reason) {
    case StopReason::kBugFound: return "bug-found";
    case StopReason::kEpochBudget: return "epoch-budget";
    case StopReason::kCoveragePlateau: return "coverage-plateau";
  }
  return "?";
}

bool coverage_plateaued(const std::vector<double>& gains, std::size_t window,
                        double epsilon) {
  if (window == 0 || gains.size() < window) return false;
  const std::size_t n = gains.size();
  // Direct rule: the most recent `window` gains are all below epsilon —
  // catches monotone decay with no sharp change anywhere.
  bool flat_tail = true;
  for (std::size_t i = n - window; i < n; ++i) {
    flat_tail &= gains[i] < epsilon;
  }
  if (flat_tail) return true;
  // Offline changepoint localization over the whole series (the spirit
  // of Hore & Ramdas's conformal changepoint localization, reduced to
  // its CUSUM core): pick the split tau maximizing the scaled mean-shift
  // statistic, and declare a plateau when the located post-change
  // segment is at least `window` long with mean gain below epsilon.
  std::size_t best_tau = 0;
  double best_stat = -1.0;
  for (std::size_t tau = 1; tau < n; ++tau) {
    const double stat =
        std::sqrt(static_cast<double>(tau) * static_cast<double>(n - tau) /
                  static_cast<double>(n)) *
        std::abs(mean(gains, 0, tau) - mean(gains, tau, n));
    if (stat > best_stat) {
      best_stat = stat;
      best_tau = tau;
    }
  }
  return best_tau != 0 && n - best_tau >= window &&
         mean(gains, best_tau, n) < epsilon;
}

GuidedCampaign::GuidedCampaign(core::PtestConfig config,
                               core::WorkloadSetup setup,
                               GuidedOptions options, CoverageCorpus corpus)
    : config_(std::move(config)),
      setup_(std::move(setup)),
      options_(std::move(options)),
      corpus_(std::move(corpus)) {
  if (options_.max_epochs == 0) {
    throw std::invalid_argument("GuidedCampaign: max_epochs must be >= 1");
  }
  if (options_.sessions_per_epoch == 0) {
    throw std::invalid_argument(
        "GuidedCampaign: sessions_per_epoch must be >= 1");
  }
  if (!corpus_.matches_seed(config_.seed)) {
    throw std::invalid_argument(
        "GuidedCampaign: corpus was built under a different seed — the "
        "resume contract only holds for the seed that built it");
  }
  corpus_.set_seed(config_.seed);
}

GuidedResult GuidedCampaign::run() {
  const auto wall_start = std::chrono::steady_clock::now();
  GuidedResult result;
  result.campaign.arm_stats.resize(1);
  support::MetricsSnapshot& metrics = result.campaign.metrics;

  // The base plan; refined epochs recompile with a re-weighted spec but
  // share the regex/alphabet, so the automaton skeleton — and with it
  // every (state, symbol) pair in the corpus — stays stable.  The base
  // plan stays alive for the whole run: the cumulative tracker replays
  // against ITS automaton while `plan` advances to refined recompiles.
  const core::CompiledTestPlanPtr base_plan = core::compile(config_);
  core::CompiledTestPlanPtr plan = base_plan;
  ++metrics.plan_compiles;

  // Cumulative structural coverage, seeded from the corpus: transitions
  // covered by an earlier invocation start covered, so refinement (and
  // the plateau series) continue rather than restart.
  pattern::CoverageTracker tracker(base_plan->pfa, options_.ngram);
  for (const auto& [state, symbol] : corpus_.transitions()) {
    tracker.mark_transition(state, symbol);
  }

  const PlanRefiner refiner(options_.refiner);
  pfa::TraceEstimator estimator(options_.estimator_smoothing);

  const std::size_t jobs = support::resolve_jobs(options_.jobs);
  const std::size_t useful_jobs =
      std::min(jobs, options_.sessions_per_epoch);
  std::unique_ptr<support::WorkerPool> pool;
  if (useful_jobs > 1) {
    pool = std::make_unique<support::WorkerPool>(useful_jobs - 1);
  }
  // One sampling scratch per pool participant (participant 0 is the
  // caller), campaign-lived so epoch batches sample allocation-free once
  // warm.  Reuse counters stay jobs-invariant — WalkScratch accounts per
  // session, against its own high-water mark (see begin_session).
  const std::size_t participants = pool ? pool->thread_count() + 1 : 1;
  std::vector<pfa::WalkScratch> scratches(participants);

  // The coverage-gain series feeding the plateau detector.  A resumed
  // campaign reconstructs the persisted trajectory's gains so the
  // detector sees the whole history, not a truncated restart.
  std::vector<double> gains;
  double prev_coverage = 0.0;
  for (const EpochRecord& record : corpus_.epochs()) {
    gains.push_back(record.transition_coverage - prev_coverage);
    prev_coverage = record.transition_coverage;
  }
  prev_coverage = tracker.report().transition_coverage;

  // Session seeds are a pure function of the global run index, which
  // continues from the corpus so a resumed campaign never replays the
  // seeds it already spent.
  std::uint64_t run_base = corpus_.sessions();

  // Epochs count globally across the corpus: a resumed campaign's first
  // local epoch is global epoch `prior_epochs`, so it refines right away
  // instead of replaying the base plan the uninterrupted run already
  // moved past.
  const std::size_t prior_epochs = corpus_.epochs().size();

  // Refinement chains — each epoch refines the PREVIOUS refined plan, so
  // the exploration bonus compounds on stubborn uncovered edges.  The
  // corpus records which transitions each epoch first covered, which is
  // exactly enough to replay that chain here: refine before global epoch
  // g re-applies against the covered set as of epoch g-1.  This is what
  // keeps a resumed campaign bit-identical to the uninterrupted one
  // (modulo estimator blend, which is in-process only).
  if (prior_epochs > 0) {
    std::set<CoverageCorpus::Transition> covered_so_far;
    for (std::size_t g = 0; g < prior_epochs; ++g) {
      if (g > 0) {
        pfa::DistributionSpec refined =
            refiner.refine(*plan, covered_so_far, nullptr);
        plan = core::compile_with_spec(config_, std::move(refined));
        ++metrics.plan_compiles;
      }
      for (const auto& transition : corpus_.epochs()[g].transitions) {
        covered_so_far.insert(transition);
      }
    }
  }

  std::vector<scenario::TracedRun> batch(options_.sessions_per_epoch);
  bool stopped = false;
  for (std::size_t epoch = 0; epoch < options_.max_epochs && !stopped;
       ++epoch) {
    obs::TraceSpan epoch_span("epoch");
    if (epoch + prior_epochs > 0) {
      // Refine toward what is still uncovered, optionally blended with
      // the bigram law learned from this run's own patterns, and push
      // the refined spec through the ordinary compile/execute split.
      const pfa::DistributionSpec* learned_ptr = nullptr;
      pfa::DistributionSpec learned;
      if (options_.refiner.estimator_blend > 0.0 &&
          estimator.trace_count() > 0) {
        learned = estimator.estimate(base_plan->alphabet.size());
        learned_ptr = &learned;
      }
      // The recompile below gets its own "compile" span inside
      // compile_with_spec; this span isolates the refinement policy.
      pfa::DistributionSpec refined = [&] {
        PTEST_OBS_SPAN("refine");
        return refiner.refine(*plan, tracker.transitions_seen(), learned_ptr);
      }();
      plan = core::compile_with_spec(config_, std::move(refined));
      ++metrics.plan_compiles;
      ++result.refinements;
    }

    // Execute the epoch batch exactly like a Campaign round: each slot
    // is a pure function of its global run index, results merge in run
    // order, so `jobs` is invisible in the outcome.
    const std::size_t batch_size = options_.sessions_per_epoch;
    const core::CompiledTestPlan& epoch_plan = *plan;
    auto execute_slot = [&](std::size_t participant, std::size_t i) {
      PTEST_OBS_SPAN("session");
      batch[i] = scenario::run_traced(
          epoch_plan, support::derive_seed(config_.seed, run_base + i),
          setup_, scratches[participant]);
    };
    if (pool) {
      pool->parallel_for(batch_size, execute_slot);
    } else {
      for (std::size_t i = 0; i < batch_size; ++i) execute_slot(0, i);
    }
    run_base += batch_size;

    GuidedEpoch epoch_stats;
    epoch_stats.index = epoch;
    epoch_stats.sessions = batch_size;
    bool bug_this_epoch = false;
    for (std::size_t i = 0; i < batch_size; ++i) {
      const scenario::TracedRun& traced = batch[i];
      const core::AdaptiveTestResult& outcome = traced.result;
      ++result.campaign.total_runs;
      ++result.campaign.arm_stats[0].runs;
      core::add_session(metrics, core::tally(outcome), config_.dedup_patterns);
      for (const pattern::TestPattern& sampled : outcome.patterns) {
        tracker.observe(sampled);
        estimator.observe(sampled.symbols);
      }
      epoch_stats.new_fingerprints +=
          corpus_.add_fingerprint(traced.trace_hash) ? 1 : 0;

      const bool bug = outcome.session.outcome == core::Outcome::kBug &&
                       outcome.session.report.has_value();
      if (!bug) continue;
      const core::BugReport& report = *outcome.session.report;
      const bool counted =
          !options_.counts_as_bug || options_.counts_as_bug(report);
      if (!counted) continue;
      ++result.campaign.arm_stats[0].detections;
      ++result.campaign.total_detections;
      ++epoch_stats.detections;
      result.campaign.distinct_failures.try_emplace(report.signature(), report);
      if (!result.sessions_to_first_bug) {
        result.sessions_to_first_bug = result.campaign.total_runs;
      }
      bug_this_epoch = true;
    }

    // Fold this epoch's coverage into the corpus and extend the
    // trajectory.
    EpochRecord record;
    for (const auto& [state, symbol] : tracker.transitions_seen()) {
      if (corpus_.add_transition(state, symbol)) {
        record.transitions.emplace_back(state, symbol);
      }
    }
    epoch_stats.new_transitions = record.new_transitions();
    const pattern::CoverageReport report = tracker.report();
    epoch_stats.transition_coverage = report.transition_coverage;
    epoch_stats.coverage_gain = report.transition_coverage - prev_coverage;
    prev_coverage = report.transition_coverage;
    gains.push_back(epoch_stats.coverage_gain);
    result.epochs.push_back(epoch_stats);

    record.sessions = epoch_stats.sessions;
    record.detections = epoch_stats.detections;
    record.new_fingerprints = epoch_stats.new_fingerprints;
    record.transition_coverage = epoch_stats.transition_coverage;
    corpus_.add_epoch(record);

    // Stop rules, most decisive first: oracle fire, coverage plateau,
    // epoch budget (the loop condition).
    if (options_.stop_on_bug && bug_this_epoch) {
      result.stop_reason = StopReason::kBugFound;
      stopped = true;
    } else if (coverage_plateaued(gains, options_.plateau_window,
                                  options_.plateau_epsilon)) {
      result.stop_reason = StopReason::kCoveragePlateau;
      stopped = true;
    } else {
      result.stop_reason = StopReason::kEpochBudget;
    }
  }

  result.coverage = tracker.report();
  result.campaign.best_arm = 0;
  result.campaign.arm_coverage.push_back(result.coverage);

  result.campaign.derive_coverage_metrics();
  metrics.epochs = result.epochs.size();
  metrics.plan_refinements = result.refinements;
  metrics.worker_threads = participants;
  if (pool) metrics.worker_idle_ns = pool->idle_nanos();
  metrics.wall_ns = static_cast<std::uint64_t>(
      std::chrono::duration_cast<std::chrono::nanoseconds>(
          std::chrono::steady_clock::now() - wall_start)
          .count());
  return result;
}

support::Result<GuidedResult, std::string> GuidedCampaign::run_scenario(
    std::string_view name, GuidedOptions options, CoverageCorpus corpus,
    std::optional<std::uint64_t> seed_override, CoverageCorpus* corpus_out) {
  const scenario::Scenario* entry =
      scenario::ScenarioRegistry::builtin().find(name);
  if (entry == nullptr) {
    return std::string("unknown scenario '") + std::string(name) +
           "' (see --list-scenarios)";
  }
  if (!corpus.matches_scenario(name)) {
    return "corpus is labeled for scenario '" + corpus.scenario() +
           "', not '" + std::string(name) + "'";
  }
  corpus.set_scenario(std::string(name));
  core::PtestConfig config = entry->config;
  if (seed_override) config.seed = *seed_override;
  if (!corpus.matches_seed(config.seed)) {
    return "corpus was built under seed " + std::to_string(*corpus.seed()) +
           ", not " + std::to_string(config.seed) +
           " (resume with the original seed, or start a fresh corpus)";
  }
  if (!options.counts_as_bug) {
    options.counts_as_bug = [oracle = entry->oracle](
                                const core::BugReport& report) {
      return oracle.matches(report);
    };
  }
  GuidedCampaign campaign(std::move(config), entry->setup,
                          std::move(options), std::move(corpus));
  GuidedResult result = campaign.run();
  if (corpus_out != nullptr) *corpus_out = campaign.corpus();
  return result;
}

}  // namespace ptest::guided
