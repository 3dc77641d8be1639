// Paper Fig. 5 + Eq. (2): the pCore task-lifecycle PFA.
// Regenerates: (a) 100% pattern legality — every sampled pattern is a word
// of RE = TC((TCH)* | TS TR (TCH)*)* (TD$|TY$); (b) empirical transition
// frequencies vs. the configured Fig. 5 probabilities; (c) generation
// throughput vs. pattern size s (Algorithm 2's cost model).
#include <cstdio>
#include <map>
#include <string>

#include "harness.hpp"
#include "ptest/bridge/protocol.hpp"
#include "ptest/pfa/pfa.hpp"

namespace {

using namespace ptest;

const char* kFig5 =
    "TC -> TCH = 0.6; TC -> TS = 0.2; TC -> TD = 0.1; TC -> TY = 0.1;"
    "TCH -> TCH = 0.6; TCH -> TS = 0.2; TCH -> TD = 0.1; TCH -> TY = 0.1;"
    "TS -> TR = 1.0;"
    "TR -> TCH = 0.4; TR -> TS = 0.3; TR -> TY = 0.2; TR -> TD = 0.1";

struct PcorePfa {
  pfa::Alphabet alphabet;
  pfa::Pfa pfa;
  PcorePfa() : pfa(build()) {}
  pfa::Pfa build() {
    bridge::intern_service_alphabet(alphabet);
    const pfa::Regex re = pfa::Regex::parse(
        "TC((TCH)* | TS TR (TCH)*)* (TD$ | TY$)", alphabet);
    return pfa::Pfa::from_regex(
        re, pfa::DistributionSpec::parse(kFig5, alphabet), alphabet);
  }
};

void print_tables() {
  PcorePfa f;
  support::Rng rng(2009);
  constexpr int kTrials = 50000;
  int legal = 0;
  std::map<std::pair<pfa::SymbolId, pfa::SymbolId>, double> counts;
  std::map<pfa::SymbolId, double> totals;
  pfa::WalkOptions options;
  options.size = 12;
  for (int i = 0; i < kTrials; ++i) {
    const pfa::Walk walk = f.pfa.sample(rng, options);
    legal += f.pfa.accepts(walk.symbols);
    for (std::size_t j = 0; j + 1 < walk.symbols.size(); ++j) {
      counts[{walk.symbols[j], walk.symbols[j + 1]}] += 1.0;
      totals[walk.symbols[j]] += 1.0;
    }
  }
  std::printf("=== Fig. 5 pCore PFA, Eq. (2) ===\n");
  std::printf("pattern legality: %d / %d (%.2f%%)\n", legal, kTrials,
              100.0 * legal / kTrials);
  std::printf("%-10s | %-10s | %-10s\n", "transition", "configured",
              "empirical");
  const auto row = [&](const char* from, const char* to, double want) {
    const auto a = f.alphabet.at(from), b = f.alphabet.at(to);
    std::printf("%3s -> %-3s | %10.3f | %10.3f\n", from, to, want,
                totals[a] > 0 ? counts[{a, b}] / totals[a] : 0.0);
  };
  row("TC", "TCH", 0.6);
  row("TC", "TS", 0.2);
  row("TC", "TD", 0.1);
  row("TC", "TY", 0.1);
  row("TCH", "TCH", 0.6);
  row("TCH", "TS", 0.2);
  row("TS", "TR", 1.0);
  row("TR", "TCH", 0.4);
  row("TR", "TS", 0.3);
  row("TR", "TY", 0.2);
  row("TR", "TD", 0.1);
  std::printf("\n");
}

const int registered = [] {
  bench::register_report("fig5_pcore_pfa", print_tables);

  for (const std::size_t size : {4u, 8u, 16u, 32u, 64u}) {
    bench::register_benchmark(
        "fig5_pcore_pfa/generate_pattern/s=" + std::to_string(size),
        [size](bench::Context& ctx) {
          PcorePfa f;
          support::Rng rng(1);
          ctx.measure([&] {
            bench::do_not_optimize(f.pfa.sample(rng, {.size = size}));
          });
          ctx.set_items_per_call(static_cast<double>(size));
        });
  }

  bench::register_benchmark(
      "fig5_pcore_pfa/build_pfa_from_regex", [](bench::Context& ctx) {
        ctx.measure([&] {
          pfa::Alphabet alphabet;
          const pfa::Regex re = pfa::Regex::parse(
              "TC((TCH)* | TS TR (TCH)*)* (TD$ | TY$)", alphabet);
          bench::do_not_optimize(pfa::Pfa::from_regex(
              re, pfa::DistributionSpec::parse(kFig5, alphabet), alphabet));
        });
      });
  return 0;
}();

}  // namespace
