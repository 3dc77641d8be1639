// Microbenchmarks of the pattern pipeline (Algorithm 1's phases in
// isolation): regex -> NFA -> DFA construction, PFA attachment, pattern
// sampling, and the merge operators at several n — plus the aggregate
// core::compile() that a CompiledTestPlan pays once per campaign arm,
// contrasted with the per-seed generate_and_merge() it amortizes.
#include <string>
#include <vector>

#include "harness.hpp"
#include "ptest/bridge/protocol.hpp"
#include "ptest/core/adaptive_test.hpp"
#include "ptest/pattern/merger.hpp"

namespace {

using namespace ptest;

constexpr const char* kEq2 = "TC((TCH)* | TS TR (TCH)*)* (TD$ | TY$)";

struct Model {
  pfa::Alphabet alphabet;
  pfa::Pfa pfa;
  Model() : pfa(build()) {}
  pfa::Pfa build() {
    bridge::intern_service_alphabet(alphabet);
    const pfa::Regex re = pfa::Regex::parse(kEq2, alphabet);
    return pfa::Pfa::from_regex(re, pfa::DistributionSpec{}, alphabet);
  }
};

void register_merge_op(pattern::MergeOp op, std::size_t n) {
  bench::register_benchmark(
      "pattern_pipeline/merge_op/" + std::string(pattern::to_string(op)) +
          "/n=" + std::to_string(n),
      [op, n](bench::Context& ctx) {
        Model model;
        support::Rng rng(5);
        std::vector<pattern::TestPattern> patterns(n);
        for (pattern::TestPattern& sampled : patterns) {
          sampled = model.pfa.sample(rng, {.size = 16});
        }
        pattern::MergerOptions options;
        options.op = op;
        options.cyclic_break_symbols = {model.alphabet.at("TS"),
                                        model.alphabet.at("TR")};
        ctx.measure([&] {
          pattern::PatternMerger merger(options, support::Rng(7));
          bench::do_not_optimize(merger.merge(patterns));
        });
      });
}

const int registered = [] {
  bench::register_benchmark("pattern_pipeline/regex_parse",
                            [](bench::Context& ctx) {
                              ctx.measure([&] {
                                pfa::Alphabet alphabet;
                                bench::do_not_optimize(
                                    pfa::Regex::parse(kEq2, alphabet));
                              });
                            });

  bench::register_benchmark(
      "pattern_pipeline/nfa_construction", [](bench::Context& ctx) {
        pfa::Alphabet alphabet;
        const pfa::Regex re = pfa::Regex::parse(kEq2, alphabet);
        ctx.measure([&] { bench::do_not_optimize(pfa::Nfa::from_regex(re)); });
      });

  bench::register_benchmark(
      "pattern_pipeline/dfa_subset_construction", [](bench::Context& ctx) {
        pfa::Alphabet alphabet;
        const pfa::Regex re = pfa::Regex::parse(kEq2, alphabet);
        const pfa::Nfa nfa = pfa::Nfa::from_regex(re);
        ctx.measure([&] { bench::do_not_optimize(pfa::Dfa::from_nfa(nfa)); });
      });

  bench::register_benchmark(
      "pattern_pipeline/dfa_minimize", [](bench::Context& ctx) {
        pfa::Alphabet alphabet;
        const pfa::Regex re = pfa::Regex::parse(kEq2, alphabet);
        const pfa::Dfa dfa = pfa::Dfa::from_nfa(pfa::Nfa::from_regex(re));
        ctx.measure([&] { bench::do_not_optimize(dfa.minimized()); });
      });

  register_merge_op(pattern::MergeOp::kRoundRobin, 4);
  register_merge_op(pattern::MergeOp::kRoundRobin, 16);
  register_merge_op(pattern::MergeOp::kRandom, 16);
  register_merge_op(pattern::MergeOp::kCyclic, 16);
  register_merge_op(pattern::MergeOp::kShuffle, 16);

  // The whole fixed artifact (alphabet interning + regex parse + NFA +
  // DFA + PFA + option resolution) — what compile-per-run paid on every
  // session before the compile/execute split.
  bench::register_benchmark(
      "pattern_pipeline/compile_test_plan", [](bench::Context& ctx) {
        core::PtestConfig config;
        ctx.measure([&] { bench::do_not_optimize(core::compile(config)); });
      });

  // The per-seed remainder once a plan exists: sampling n patterns and
  // merging them.  The ratio to compile_test_plan is the per-session
  // overhead the plan cache removes.
  for (const std::size_t n : {std::size_t{4}, std::size_t{16}}) {
    bench::register_benchmark(
        "pattern_pipeline/generate_and_merge_from_plan/n=" +
            std::to_string(n),
        [n](bench::Context& ctx) {
          core::PtestConfig config;
          config.n = n;
          const core::CompiledTestPlanPtr plan = core::compile(config);
          pfa::WalkScratch scratch;
          std::uint64_t seed = 0;
          ctx.measure([&] {
            bench::do_not_optimize(
                core::generate_and_merge(*plan, ++seed, scratch));
          });
        });
  }

  // The sampling hot path head to head: the allocate-per-call sample()
  // wrapper vs sample_into() into a warm walk and scratch.  Same PFA,
  // same seeds, same walks — the delta is pure allocation + table
  // traffic, the win the scratch-reuse API exists for.
  bench::register_benchmark(
      "pattern_pipeline/sample_per_call_alloc", [](bench::Context& ctx) {
        Model model;
        support::Rng rng(11);
        pfa::WalkOptions options;
        options.size = 16;
        ctx.set_items_per_call(1.0);
        ctx.measure(
            [&] { bench::do_not_optimize(model.pfa.sample(rng, options)); });
      });

  bench::register_benchmark(
      "pattern_pipeline/sample_into_scratch_reuse", [](bench::Context& ctx) {
        Model model;
        support::Rng rng(11);
        pfa::WalkOptions options;
        options.size = 16;
        pfa::Walk walk;
        pfa::WalkScratch scratch;
        ctx.set_items_per_call(1.0);
        ctx.measure([&] {
          model.pfa.sample_into(walk, scratch, rng, options);
          bench::do_not_optimize(walk);
        });
      });

  for (const std::size_t cap : {std::size_t{64}, std::size_t{1024}}) {
    bench::register_benchmark(
        "pattern_pipeline/enumerate_interleavings/cap=" + std::to_string(cap),
        [cap](bench::Context& ctx) {
          Model model;
          support::Rng rng(5);
          std::vector<pattern::TestPattern> patterns(3);
          for (pattern::TestPattern& sampled : patterns) {
            sampled = model.pfa.sample(rng, {.size = 3});
          }
          ctx.measure([&] {
            bench::do_not_optimize(
                pattern::PatternMerger::enumerate_interleavings(patterns,
                                                                cap));
          });
        });
  }
  return 0;
}();

}  // namespace
