// guided/ — corpus persistence, refinement determinism, and the epoch
// loop's contracts.
//
// The load-bearing properties: (1) a corpus survives a JSON round trip
// so well that refinement decisions made from the reloaded copy are
// bit-identical — resumable campaigns depend on it; (2) corrupt or
// version-mismatched corpus files fail as clean Result errors, never as
// a half-seeded corpus silently skewing refinement; (3) a guided run is
// a pure function of (seed, options, corpus) — jobs=4 must reproduce
// jobs=1 bit for bit, corpus included.
#include "ptest/guided/campaign.hpp"

#include <gtest/gtest.h>

#include <bit>
#include <cstdio>
#include <fstream>
#include <utility>

#include "ptest/guided/corpus.hpp"
#include "ptest/guided/refiner.hpp"
#include "ptest/scenario/golden.hpp"
#include "ptest/scenario/registry.hpp"

namespace ptest::guided {
namespace {

/// An uninformed plan for the queue-order workload: quick sessions, some
/// transitions left uncovered for the refiner to chase.
core::PtestConfig small_config() {
  const scenario::Scenario* entry =
      scenario::ScenarioRegistry::builtin().find("queue-order");
  core::PtestConfig config = entry->config;
  config.distributions.clear();  // uniform
  config.seed = 11;
  return config;
}

const core::WorkloadSetup& small_setup() {
  return scenario::ScenarioRegistry::builtin().find("queue-order")->setup;
}

GuidedOptions small_options() {
  GuidedOptions options;
  options.max_epochs = 3;
  options.sessions_per_epoch = 3;
  options.stop_on_bug = false;  // run all epochs: exercises refinement
  options.plateau_window = 0;
  return options;
}

// --- corpus persistence ---------------------------------------------------

TEST(CoverageCorpus, RoundTripPreservesEverything) {
  CoverageCorpus corpus;
  corpus.set_scenario("queue-order");
  corpus.set_seed(0xfeedfacecafebeefULL);  // full-width: must not round
  EXPECT_TRUE(corpus.add_transition(0, 2));
  EXPECT_TRUE(corpus.add_transition(3, 1));
  EXPECT_FALSE(corpus.add_transition(0, 2));  // duplicate
  EXPECT_TRUE(corpus.add_fingerprint(0xdeadbeefcafef00dULL));
  EXPECT_TRUE(corpus.add_fingerprint(1));
  EpochRecord record;
  record.sessions = 8;
  record.detections = 1;
  record.transitions = {{0, 2}, {3, 1}};
  record.new_fingerprints = 2;
  record.transition_coverage = 0.25;
  corpus.add_epoch(record);

  const auto reloaded = CoverageCorpus::from_json(corpus.to_json());
  ASSERT_TRUE(reloaded.ok()) << reloaded.error();
  const CoverageCorpus& copy = reloaded.value();
  EXPECT_EQ(copy.scenario(), "queue-order");
  ASSERT_TRUE(copy.seed().has_value());
  EXPECT_EQ(*copy.seed(), 0xfeedfacecafebeefULL);
  EXPECT_EQ(copy.transitions(), corpus.transitions());
  EXPECT_EQ(copy.fingerprints(), corpus.fingerprints());
  EXPECT_EQ(copy.sessions(), 8u);
  EXPECT_EQ(copy.detections(), 1u);
  ASSERT_EQ(copy.epochs().size(), 1u);
  EXPECT_DOUBLE_EQ(copy.epochs()[0].transition_coverage, 0.25);
  // The canonical serialization is itself stable.
  EXPECT_EQ(copy.to_json(), corpus.to_json());
}

TEST(CoverageCorpus, RoundTripYieldsIdenticalRefinementDecisions) {
  // Run a short guided campaign to accumulate a real corpus, reload it
  // through JSON, and require the PlanRefiner to produce the identical
  // spec from both copies — the property that makes --corpus resumes
  // bit-deterministic.
  GuidedCampaign campaign(small_config(), small_setup(), small_options());
  (void)campaign.run();
  const CoverageCorpus& original = campaign.corpus();
  ASSERT_FALSE(original.empty());

  const auto reloaded = CoverageCorpus::from_json(original.to_json());
  ASSERT_TRUE(reloaded.ok()) << reloaded.error();

  const core::CompiledTestPlanPtr plan = core::compile(small_config());
  const PlanRefiner refiner(RefinerOptions{});
  const pfa::DistributionSpec a =
      refiner.refine(*plan, original.transitions());
  const pfa::DistributionSpec b =
      refiner.refine(*plan, reloaded.value().transitions());
  for (std::uint32_t state = 0; state < plan->pfa.states().size(); ++state) {
    for (const auto& t : plan->pfa.states()[state].transitions) {
      const auto wa = a.explicit_state_weight(state, t.symbol);
      const auto wb = b.explicit_state_weight(state, t.symbol);
      ASSERT_EQ(wa.has_value(), wb.has_value());
      if (wa) {
        EXPECT_DOUBLE_EQ(*wa, *wb);
      }
    }
  }
}

TEST(CoverageCorpus, SaveAndLoadRoundTripThroughAFile) {
  CoverageCorpus corpus;
  corpus.add_transition(1, 2);
  corpus.add_fingerprint(42);
  const std::string path = ::testing::TempDir() + "corpus_roundtrip.json";
  ASSERT_EQ(corpus.save(path), std::nullopt);
  const auto loaded = CoverageCorpus::load(path);
  ASSERT_TRUE(loaded.ok()) << loaded.error();
  EXPECT_EQ(loaded.value().to_json(), corpus.to_json());
  std::remove(path.c_str());
}

TEST(CoverageCorpus, CorruptFilesFailCleanly) {
  // Structural garbage, not-JSON, wrong shapes: every case must come
  // back as an error Result naming the problem — never a partial load.
  for (const char* bad : {
           "not json at all",
           "{\"format_version\": 1}",  // missing arrays
           "{\"format_version\": 1, \"transitions\": 7, \"fingerprints\": [],"
           " \"epochs\": [], \"sessions\": 0, \"detections\": 0}",
           "{\"format_version\": 1, \"transitions\": [[1]],"
           " \"fingerprints\": [], \"epochs\": [], \"sessions\": 0,"
           " \"detections\": 0}",
           "{\"format_version\": 1, \"transitions\": [],"
           " \"fingerprints\": [\"zz\"], \"epochs\": [], \"sessions\": 0,"
           " \"detections\": 0}",
           // totals disagreeing with the epoch records
           "{\"format_version\": 1, \"transitions\": [],"
           " \"fingerprints\": [], \"epochs\": [], \"sessions\": 5,"
           " \"detections\": 0}",
           // counts outside uint64 range (the cast must be guarded,
           // not UB): a hand-edited corpus can hold any number
           "{\"format_version\": 1, \"transitions\": [],"
           " \"fingerprints\": [], \"epochs\": [], \"sessions\": 1e300,"
           " \"detections\": 0}",
           "{\"format_version\": 1, \"transitions\": [],"
           " \"fingerprints\": [], \"epochs\": [], \"sessions\": -3,"
           " \"detections\": 0}",
       }) {
    SCOPED_TRACE(bad);
    const auto result = CoverageCorpus::from_json(bad);
    EXPECT_FALSE(result.ok());
    if (!result.ok()) {
      EXPECT_NE(result.error().find("corpus:"), std::string::npos);
    }
  }
}

TEST(CoverageCorpus, VersionMismatchIsItsOwnError) {
  const auto result = CoverageCorpus::from_json(
      "{\"format_version\": 99, \"transitions\": [], \"fingerprints\": [],"
      " \"epochs\": [], \"sessions\": 0, \"detections\": 0}");
  ASSERT_FALSE(result.ok());
  EXPECT_NE(result.error().find("format_version 99"), std::string::npos);
}

TEST(CoverageCorpus, MissingFileFailsCleanly) {
  const auto result = CoverageCorpus::load("/nonexistent/corpus.json");
  ASSERT_FALSE(result.ok());
  EXPECT_NE(result.error().find("cannot read"), std::string::npos);
}

// --- refiner --------------------------------------------------------------

TEST(PlanRefiner, BoostsUncoveredEdgesAndPreservesCoveredStates) {
  const core::CompiledTestPlanPtr plan = core::compile(small_config());
  // Mark everything covered except one edge of the start state.
  std::set<std::pair<std::uint32_t, pfa::SymbolId>> covered;
  std::pair<std::uint32_t, pfa::SymbolId> uncovered_edge{0, 0};
  bool first = true;
  for (std::uint32_t state = 0; state < plan->pfa.states().size(); ++state) {
    for (const auto& t : plan->pfa.states()[state].transitions) {
      if (first && state == plan->pfa.start()) {
        uncovered_edge = {state, t.symbol};
        first = false;
        continue;
      }
      covered.insert({state, t.symbol});
    }
  }
  ASSERT_FALSE(first);

  RefinerOptions options;
  options.exploration_share = 0.5;
  const pfa::DistributionSpec spec =
      PlanRefiner(options).refine(*plan, covered);

  // The uncovered edge got the whole exploration share on top of its
  // scaled base probability.
  const auto& state = plan->pfa.states()[uncovered_edge.first];
  for (const auto& t : state.transitions) {
    const auto weight =
        spec.explicit_state_weight(uncovered_edge.first, t.symbol);
    ASSERT_TRUE(weight.has_value());
    const double expected =
        t.symbol == uncovered_edge.second ? 0.5 * t.probability + 0.5
                                          : 0.5 * t.probability;
    EXPECT_NEAR(*weight, std::max(expected, options.floor /
                                                state.transitions.size()),
                1e-12);
  }
  // Fully covered states keep their current distribution verbatim.
  for (std::uint32_t id = 0; id < plan->pfa.states().size(); ++id) {
    if (id == uncovered_edge.first) continue;
    for (const auto& t : plan->pfa.states()[id].transitions) {
      const auto weight = spec.explicit_state_weight(id, t.symbol);
      ASSERT_TRUE(weight.has_value());
      EXPECT_NEAR(*weight,
                  std::max(t.probability,
                           options.floor /
                               plan->pfa.states()[id].transitions.size()),
                  1e-12);
    }
  }
}

TEST(PlanRefiner, RefinedSpecCompilesIntoAValidPfa) {
  const core::CompiledTestPlanPtr plan = core::compile(small_config());
  const pfa::DistributionSpec spec = PlanRefiner(RefinerOptions{})
                                         .refine(*plan, /*covered=*/{});
  const core::CompiledTestPlanPtr refined =
      core::compile_with_spec(plan->config, spec);
  refined->pfa.validate();  // Eq. (1) holds after re-normalization
  EXPECT_EQ(refined->pfa.states().size(), plan->pfa.states().size());
}

TEST(PlanRefiner, RejectsBadOptions) {
  RefinerOptions bad;
  bad.exploration_share = 1.0;
  EXPECT_THROW(PlanRefiner{bad}, std::invalid_argument);
  bad = {};
  bad.floor = 1.0;
  EXPECT_THROW(PlanRefiner{bad}, std::invalid_argument);
}

// --- plateau rule ---------------------------------------------------------

TEST(Plateau, FlatTailStops) {
  EXPECT_TRUE(coverage_plateaued({0.2, 0.1, 0.0, 0.0, 0.0}, 3, 1e-3));
}

TEST(Plateau, SteadyGainsKeepGoing) {
  EXPECT_FALSE(coverage_plateaued({0.2, 0.15, 0.1, 0.1, 0.05}, 3, 1e-3));
  EXPECT_FALSE(coverage_plateaued({0.0, 0.0}, 3, 1e-3));  // too short
}

TEST(Plateau, ChangepointLocalizesTheShift) {
  // Strong gains, then a long near-zero tail with one blip: the direct
  // last-window rule misses (the blip sits inside the window) but the
  // changepoint scan localizes the shift and sees the flat segment.
  const std::vector<double> gains = {0.3,    0.25,   0.2,  0.0004, 0.0003,
                                     0.0002, 0.0021, 0.0,  0.0};
  EXPECT_TRUE(coverage_plateaued(gains, 3, 1e-3));
}

TEST(Plateau, DisabledWindowNeverStops) {
  EXPECT_FALSE(coverage_plateaued({0.0, 0.0, 0.0, 0.0}, 0, 1e-3));
}

// --- the epoch loop -------------------------------------------------------

TEST(GuidedCampaign, DeterministicAcrossJobs) {
  GuidedResult results[2];
  std::string corpora[2];
  for (int i = 0; i < 2; ++i) {
    GuidedOptions options = small_options();
    options.jobs = i == 0 ? 1 : 4;
    GuidedCampaign campaign(small_config(), small_setup(), options);
    results[i] = campaign.run();
    corpora[i] = campaign.corpus().to_json();
  }
  EXPECT_EQ(corpora[0], corpora[1]);  // the strongest equality we have
  EXPECT_EQ(results[0].campaign.total_runs, results[1].campaign.total_runs);
  EXPECT_EQ(results[0].campaign.total_detections,
            results[1].campaign.total_detections);
  EXPECT_EQ(results[0].stop_reason, results[1].stop_reason);
  EXPECT_EQ(results[0].sessions_to_first_bug,
            results[1].sessions_to_first_bug);
  ASSERT_EQ(results[0].epochs.size(), results[1].epochs.size());
  for (std::size_t e = 0; e < results[0].epochs.size(); ++e) {
    EXPECT_DOUBLE_EQ(results[0].epochs[e].transition_coverage,
                     results[1].epochs[e].transition_coverage);
    EXPECT_EQ(results[0].epochs[e].detections,
              results[1].epochs[e].detections);
  }
  ASSERT_EQ(results[0].campaign.distinct_failures.size(),
            results[1].campaign.distinct_failures.size());
  auto it = results[1].campaign.distinct_failures.begin();
  for (const auto& [signature, report] :
       results[0].campaign.distinct_failures) {
    EXPECT_EQ(signature, it->first);
    // The same (earliest) report was kept, not just its signature.
    EXPECT_EQ(report.seed, it->second.seed) << signature;
    EXPECT_EQ(report.merged.elements, it->second.merged.elements)
        << signature;
    ++it;
  }
  // Work counters are jobs-invariant too.
  EXPECT_EQ(support::work_difference(results[0].campaign.metrics,
                                     results[1].campaign.metrics),
            "");
  // The session-wall histogram (--guided --metrics prints it) times run
  // indices 0, 64, 128, ... of this fresh corpus, whichever worker ran
  // them.
  for (const GuidedResult& result : results) {
    const support::MetricsSnapshot& metrics = result.campaign.metrics;
    EXPECT_GT(metrics.sessions, 0u);
    EXPECT_EQ(metrics.session_wall_hist.count(), (metrics.sessions + 63) / 64);
  }
}

TEST(GuidedCampaign, ResumingFromASavedCorpusIsDeterministic) {
  // leg 1 cold, leg 2 resumed from leg 1's corpus — and the same again
  // with the corpus passed through its JSON serialization.  Both second
  // legs must agree exactly.
  GuidedOptions options = small_options();
  options.max_epochs = 2;
  GuidedCampaign first(small_config(), small_setup(), options);
  (void)first.run();
  const std::string saved = first.corpus().to_json();

  GuidedCampaign direct(small_config(), small_setup(), options,
                        first.corpus());
  const GuidedResult direct_result = direct.run();

  const auto reloaded = CoverageCorpus::from_json(saved);
  ASSERT_TRUE(reloaded.ok()) << reloaded.error();
  GuidedCampaign resumed(small_config(), small_setup(), options,
                         reloaded.value());
  const GuidedResult resumed_result = resumed.run();

  EXPECT_EQ(direct.corpus().to_json(), resumed.corpus().to_json());
  EXPECT_EQ(direct_result.campaign.total_detections,
            resumed_result.campaign.total_detections);
  EXPECT_EQ(direct_result.sessions_to_first_bug,
            resumed_result.sessions_to_first_bug);
  ASSERT_EQ(direct_result.epochs.size(), resumed_result.epochs.size());
  for (std::size_t e = 0; e < direct_result.epochs.size(); ++e) {
    EXPECT_DOUBLE_EQ(direct_result.epochs[e].transition_coverage,
                     resumed_result.epochs[e].transition_coverage);
  }
  // Resume continues the run-index stream instead of replaying seeds:
  // the resumed legs saw different sessions than the cold leg.
  EXPECT_EQ(direct.corpus().sessions(),
            first.corpus().sessions() + direct_result.campaign.total_runs);
}

TEST(GuidedCampaign, SplitRunIsBitIdenticalToTheUninterruptedRun) {
  // The documented resume contract: 2 epochs + save/load + 2 epochs must
  // land on exactly the corpus a single 4-epoch run produces.  This
  // holds because session seeds continue from corpus.sessions(), epochs
  // count globally from corpus.epochs() (the resumed leg refines before
  // its first batch), and every refinement is recomputed from the base
  // plan + the persisted covered set — nothing in-process-only feeds it.
  GuidedOptions uninterrupted_options = small_options();
  uninterrupted_options.max_epochs = 4;
  GuidedCampaign uninterrupted(small_config(), small_setup(),
                               uninterrupted_options);
  const GuidedResult whole = uninterrupted.run();

  GuidedOptions leg_options = small_options();
  leg_options.max_epochs = 2;
  GuidedCampaign leg1(small_config(), small_setup(), leg_options);
  const GuidedResult half1 = leg1.run();
  const auto reloaded = CoverageCorpus::from_json(leg1.corpus().to_json());
  ASSERT_TRUE(reloaded.ok()) << reloaded.error();
  GuidedCampaign leg2(small_config(), small_setup(), leg_options,
                      reloaded.value());
  const GuidedResult half2 = leg2.run();

  EXPECT_EQ(leg2.corpus().to_json(), uninterrupted.corpus().to_json());
  EXPECT_EQ(half1.campaign.total_detections + half2.campaign.total_detections,
            whole.campaign.total_detections);
  ASSERT_EQ(half2.epochs.size(), 2u);
  ASSERT_EQ(whole.epochs.size(), 4u);
  for (std::size_t e = 0; e < 2; ++e) {
    EXPECT_DOUBLE_EQ(half2.epochs[e].transition_coverage,
                     whole.epochs[e + 2].transition_coverage);
    EXPECT_EQ(half2.epochs[e].detections, whole.epochs[e + 2].detections);
    EXPECT_EQ(half2.epochs[e].new_fingerprints,
              whole.epochs[e + 2].new_fingerprints);
  }
  // The resumed leg refines before every one of its batches (global
  // epochs 2 and 3), so across both legs the refinement count matches
  // the uninterrupted run's.
  EXPECT_EQ(half1.refinements + half2.refinements, whole.refinements);
  EXPECT_EQ(half2.refinements, 2u);
}

/// FNV-1a over everything a guided run reports: per epoch the sessions,
/// detections, new transitions, new fingerprints and the coverage bits,
/// then the stop reason, sessions_to_first_bug and the saved corpus.
std::uint64_t trajectory_digest(const GuidedResult& result,
                                const CoverageCorpus& corpus) {
  std::uint64_t hash = scenario::kFnvOffset;
  for (const GuidedEpoch& epoch : result.epochs) {
    hash = scenario::fnv1a(hash, epoch.sessions);
    hash = scenario::fnv1a(hash, epoch.detections);
    hash = scenario::fnv1a(hash, epoch.new_transitions);
    hash = scenario::fnv1a(hash, epoch.new_fingerprints);
    hash = scenario::fnv1a(
        hash, std::bit_cast<std::uint64_t>(epoch.transition_coverage));
    hash = scenario::fnv1a(hash,
                           std::bit_cast<std::uint64_t>(epoch.coverage_gain));
  }
  hash = scenario::fnv1a(hash, static_cast<std::uint64_t>(result.stop_reason));
  hash = scenario::fnv1a(
      hash, result.sessions_to_first_bug.value_or(~std::size_t{0}));
  return scenario::fnv1a(hash, corpus.to_json());
}

TEST(GuidedCampaign, TrajectoryIsPinned) {
  // Every epoch's sessions run on kept rigs; these digests were recorded
  // when each session still ran on a freshly wired one, so any state a
  // kept rig or result carries into a refined plan's session moves them.
  // The trace fingerprints feed new_fingerprints and the corpus.
  const std::pair<const char*, std::uint64_t> pins[] = {
      {"aba-stack", 0x5ba3fc7f2ae15abaULL},
      {"philosophers-deadlock", 0xaec2c71c6d9da56aULL},
      {"fig1-livelock", 0x705e80a8d43b498bULL},
      {"writer-starvation", 0x77cfaa48281f7411ULL},
  };
  for (const auto& [name, digest] : pins) {
    for (const std::size_t jobs : {1, 2}) {
      SCOPED_TRACE(std::string(name) + " jobs " + std::to_string(jobs));
      GuidedOptions options;
      options.jobs = jobs;
      options.stop_on_bug = false;
      options.plateau_window = 0;
      CoverageCorpus corpus;
      const auto result =
          GuidedCampaign::run_scenario(name, options, {}, {}, &corpus);
      ASSERT_TRUE(result.ok()) << result.error();
      EXPECT_EQ(result.value().epochs.size(), options.max_epochs);
      EXPECT_EQ(trajectory_digest(result.value(), corpus), digest)
          << std::hex << trajectory_digest(result.value(), corpus);
    }
  }
}

TEST(GuidedCampaign, StopsOnOracleFire) {
  GuidedOptions options;
  options.max_epochs = 8;
  options.sessions_per_epoch = 4;
  const auto result = GuidedCampaign::run_scenario("queue-order", options);
  ASSERT_TRUE(result.ok()) << result.error();
  EXPECT_EQ(result.value().stop_reason, StopReason::kBugFound);
  ASSERT_TRUE(result.value().sessions_to_first_bug.has_value());
  EXPECT_GE(*result.value().sessions_to_first_bug, 1u);
  EXPECT_GT(result.value().campaign.metrics.epochs, 0u);
  EXPECT_GT(result.value().coverage.transitions_covered, 0u);
}

TEST(GuidedCampaign, RejectsACorpusBuiltUnderADifferentSeed) {
  // The resume contract only holds under the seed that built the
  // corpus; a mismatch must be a clean error, not a silent splice of
  // two session streams.
  GuidedOptions options = small_options();
  GuidedCampaign first(small_config(), small_setup(), options);
  (void)first.run();
  ASSERT_TRUE(first.corpus().seed().has_value());

  core::PtestConfig other_seed = small_config();
  other_seed.seed = small_config().seed + 1;
  EXPECT_THROW(GuidedCampaign(other_seed, small_setup(), options,
                              first.corpus()),
               std::invalid_argument);

  CoverageCorpus labeled = first.corpus();
  labeled.set_scenario("queue-order");
  const auto result = GuidedCampaign::run_scenario(
      "queue-order", options, std::move(labeled), small_config().seed + 1);
  ASSERT_FALSE(result.ok());
  EXPECT_NE(result.error().find("built under seed"), std::string::npos)
      << result.error();

  // Same seed resumes fine.
  const auto resumed = GuidedCampaign::run_scenario(
      "queue-order", options, first.corpus(), small_config().seed);
  EXPECT_TRUE(resumed.ok()) << resumed.error();
}

TEST(GuidedCampaign, RunScenarioRejectsMisuse) {
  EXPECT_FALSE(GuidedCampaign::run_scenario("no-such-scenario").ok());

  CoverageCorpus corpus;
  corpus.set_scenario("aba-stack");
  const auto mismatch =
      GuidedCampaign::run_scenario("queue-order", {}, corpus);
  ASSERT_FALSE(mismatch.ok());
  EXPECT_NE(mismatch.error().find("labeled for scenario"), std::string::npos);
}

TEST(GuidedCampaign, RejectsZeroBudgets) {
  GuidedOptions options;
  options.max_epochs = 0;
  EXPECT_THROW(GuidedCampaign(small_config(), small_setup(), options),
               std::invalid_argument);
  options = {};
  options.sessions_per_epoch = 0;
  EXPECT_THROW(GuidedCampaign(small_config(), small_setup(), options),
               std::invalid_argument);
}

}  // namespace
}  // namespace ptest::guided
