// Model-coverage analysis (paper §V future work): how thoroughly do the
// generated patterns exercise the pCore PFA?  Prints state/transition
// coverage as a function of the number of patterns, with and without
// duplicate suppression, plus the PFA itself in Graphviz form.
#include <cstdio>

#include "ptest/bridge/protocol.hpp"
#include "ptest/pattern/coverage.hpp"
#include "ptest/pattern/dedup.hpp"

int main() {
  using namespace ptest;

  pfa::Alphabet alphabet;
  bridge::intern_service_alphabet(alphabet);
  const pfa::Regex regex =
      pfa::Regex::parse("TC((TCH)* | TS TR (TCH)*)* (TD$ | TY$)", alphabet);
  const pfa::DistributionSpec spec = pfa::DistributionSpec::parse(
      "TC -> TCH = 0.6; TC -> TS = 0.2; TC -> TD = 0.1; TC -> TY = 0.1;"
      "TCH -> TCH = 0.6; TCH -> TS = 0.2; TCH -> TD = 0.1; TCH -> TY = 0.1;"
      "TS -> TR = 1.0;"
      "TR -> TCH = 0.4; TR -> TS = 0.3; TR -> TY = 0.2; TR -> TD = 0.1",
      alphabet);
  const pfa::Pfa pfa = pfa::Pfa::from_regex(regex, spec, alphabet);

  std::printf("pCore PFA (paper Fig. 5), Graphviz:\n%s\n",
              pfa.to_dot(alphabet).c_str());

  std::printf("patterns | transition coverage | unique patterns\n");
  std::printf("---------+---------------------+----------------\n");
  for (const std::size_t count : {1u, 2u, 4u, 8u, 16u, 32u, 64u}) {
    support::Rng rng(7);
    pattern::CoverageTracker tracker(pfa);
    pattern::PatternDeduper deduper;
    for (std::size_t i = 0; i < count; ++i) {
      const auto pattern = pfa.sample(rng, {.size = 8});
      tracker.observe(pattern);
      (void)deduper.insert(pattern);
    }
    const auto report = tracker.report();
    std::printf("%8zu | %8.1f%% (%zu/%zu)  | %zu\n", count,
                report.transition_coverage * 100.0,
                report.transitions_covered, report.transitions_total,
                deduper.unique_count());
  }
  return 0;
}
