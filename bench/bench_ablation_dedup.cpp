// Ablation (paper §V future work): "the replicated test patterns can
// reduce the effectiveness of pTest."
// Measures replica rates of the raw generator at several pattern sizes,
// and the model-coverage reached per command budget with and without
// duplicate suppression.
#include <cstdio>
#include <vector>

#include "harness.hpp"
#include "ptest/bridge/protocol.hpp"
#include "ptest/pattern/coverage.hpp"
#include "ptest/pattern/dedup.hpp"

namespace {

using namespace ptest;

struct Model {
  pfa::Alphabet alphabet;
  pfa::Pfa pfa;
  Model() : pfa(build()) {}
  pfa::Pfa build() {
    bridge::intern_service_alphabet(alphabet);
    const pfa::Regex re = pfa::Regex::parse(
        "TC((TCH)* | TS TR (TCH)*)* (TD$ | TY$)", alphabet);
    return pfa::Pfa::from_regex(re, pfa::DistributionSpec{}, alphabet);
  }
};

void print_tables() {
  Model model;
  std::printf("=== Ablation: duplicate patterns (1000 samples per row) "
              "===\n");
  std::printf("%-6s | %-14s | %-12s\n", "s", "unique/1000", "replicas");
  for (const std::size_t s : {2u, 4u, 6u, 8u, 12u, 16u}) {
    support::Rng rng(17);
    pattern::PatternDeduper deduper;
    for (int i = 0; i < 1000; ++i) {
      (void)deduper.insert(model.pfa.sample(rng, {.size = s}));
    }
    std::printf("%6zu | %14zu | %12llu\n", s, deduper.unique_count(),
                static_cast<unsigned long long>(deduper.rejected_count()));
  }

  std::printf("\ncoverage per budget of 32 issued patterns:\n");
  std::printf("%-10s | %-20s\n", "dedup", "n-grams observed");
  for (const bool dedup : {false, true}) {
    support::Rng rng(23);
    pattern::CoverageTracker tracker(model.pfa);
    pattern::PatternDeduper deduper;
    int issued = 0;
    int sampled = 0;
    while (issued < 32 && sampled < 10000) {
      ++sampled;
      const auto pattern = model.pfa.sample(rng, {.size = 4});
      if (dedup && !deduper.insert(pattern)) continue;
      tracker.observe(pattern);
      ++issued;
    }
    std::printf("%-10s | %zu distinct 3-grams (from %d samples)\n",
                dedup ? "on" : "off", tracker.report().ngrams_observed,
                sampled);
  }
  std::printf("(expected shape: dedup spends the same budget on more "
              "distinct behaviours)\n\n");
}

const int registered = [] {
  bench::register_report("ablation_dedup", print_tables);

  bench::register_benchmark("ablation_dedup/insert", [](bench::Context& ctx) {
    Model model;
    support::Rng rng(3);
    std::vector<pattern::TestPattern> patterns(4096);
    for (pattern::TestPattern& sampled : patterns) {
      sampled = model.pfa.sample(rng, {.size = 8});
    }
    pattern::PatternDeduper deduper;
    std::size_t i = 0;
    ctx.measure([&] {
      bench::do_not_optimize(deduper.insert(patterns[i++ % patterns.size()]));
    });
  });
  return 0;
}();

}  // namespace
