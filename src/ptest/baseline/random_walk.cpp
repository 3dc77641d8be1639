#include "ptest/baseline/random_walk.hpp"

#include "ptest/bridge/protocol.hpp"

namespace ptest::baseline {

pattern::MergedPattern random_command_pattern(const pfa::Alphabet& alphabet,
                                              std::size_t slots,
                                              std::size_t total,
                                              support::Rng& rng) {
  static const char* kServices[] = {"TC", "TD", "TS", "TR", "TCH", "TY"};
  pattern::MergedPattern merged;
  merged.elements.reserve(total);
  for (std::size_t i = 0; i < total; ++i) {
    const auto slot =
        static_cast<pattern::SlotIndex>(rng.below(slots == 0 ? 1 : slots));
    const char* service = kServices[rng.below(6)];
    merged.elements.push_back({slot, alphabet.at(service)});
  }
  return merged;
}

core::AdaptiveTestResult random_baseline_test(
    const core::PtestConfig& config, pfa::Alphabet& alphabet,
    const core::WorkloadSetup& setup) {
  bridge::intern_service_alphabet(alphabet);
  support::Rng rng(config.seed ^ 0xbadbeefULL);

  core::AdaptiveTestResult result;
  result.merged = random_command_pattern(alphabet, config.n,
                                         config.n * config.s, rng);
  // Per-slot projections stand in for "patterns" in the state records;
  // a slot the random walk never picked gets an empty one.
  result.patterns = result.merged.project_all();
  result.patterns.resize(config.n);
  core::TestSession session(config, alphabet, result.merged, result.patterns,
                            setup);
  result.session = session.run();
  return result;
}

}  // namespace ptest::baseline
