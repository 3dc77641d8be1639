// Plan cache: what the compile/execute split (test_plan.hpp) buys.
//
// Before the split every session re-ran the full
// regex -> NFA -> DFA -> PFA pipeline and re-parsed the distribution
// text; the plan cache hoists that out of the per-run loop, compiling
// one immutable CompiledTestPlan per arm that every session shares.
//
// The campaign rows run the same sessions two ways — session i runs arm
// i % 2 under seed derive_seed(base seed, i):
//
//   compile-per-run  one one-shot adaptive_test() per session;
//   compile-once     one compiled plan per arm, execute() per session.
//
// Two claims measured here:
//
//   1. Correctness — the two loops agree session by session (checked in
//      the report table; it aborts on mismatch).
//   2. Speedup — a >= 64-session loop is faster compiling once than
//      compiling per run, and the pure pattern pipeline (no session)
//      shows the raw compile overhead directly.
//
// The campaign benchmarks also export plan_cache_hits / plan_compiles /
// sessions_per_sec counters, so BENCH_results.json records *why* one
// configuration is faster.  plan_compiles counts the compiles each loop
// actually ran (2 for compile-once, one per session otherwise), and CI's
// counter gate pins it: a compile-once loop that stops caching fails.
#include <array>
#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <string>
#include <vector>

#include "harness.hpp"
#include "ptest/core/adaptive_test.hpp"
#include "ptest/support/rng.hpp"
#include "ptest/workload/quicksort.hpp"

namespace {

using namespace ptest;

// Fig. 5 distribution text: makes each compile include a PD parse, as
// real campaigns do.
const char* kFig5 =
    "TC -> TCH = 0.6; TC -> TS = 0.2; TC -> TD = 0.1; TC -> TY = 0.1;"
    "TCH -> TCH = 0.6; TCH -> TS = 0.2; TCH -> TD = 0.1; TCH -> TY = 0.1;"
    "TS -> TR = 1.0;"
    "TR -> TCH = 0.4; TR -> TS = 0.3; TR -> TY = 0.2; TR -> TD = 0.1";

core::PtestConfig base_config() {
  core::PtestConfig config;
  config.n = 2;
  config.s = 4;
  config.program_id = workload::kQuicksortProgramId;
  return config;
}

/// base_config() with arm `arm`'s (op, distributions): arm 0 is
/// round-robin under Fig. 5, arm 1 cyclic under uniform weights.
core::PtestConfig arm_config(std::size_t arm) {
  core::PtestConfig config = base_config();
  config.op = arm == 0 ? pattern::MergeOp::kRoundRobin
                       : pattern::MergeOp::kCyclic;
  config.distributions = arm == 0 ? kFig5 : "";
  return config;
}

/// Runs `budget` sessions, alternating the two arms, and returns their
/// results in session order.  `compile_once` executes one compiled plan
/// per arm; otherwise every session compiles afresh via adaptive_test().
/// `compiles`, if given, is bumped once per regex->PFA compile the loop
/// runs: the plan_compiles counter CI gates on.
std::vector<core::AdaptiveTestResult> run_sessions(
    std::size_t budget, bool compile_once, std::size_t* compiles = nullptr) {
  const std::uint64_t base_seed = base_config().seed;
  std::vector<core::AdaptiveTestResult> results;
  results.reserve(budget);
  if (compile_once) {
    const std::array<core::CompiledTestPlanPtr, 2> plans{
        core::compile(arm_config(0)), core::compile(arm_config(1))};
    if (compiles != nullptr) *compiles += plans.size();
    pfa::WalkScratch scratch;
    for (std::size_t i = 0; i < budget; ++i) {
      results.push_back(core::execute(*plans[i % 2],
                                      support::derive_seed(base_seed, i),
                                      workload::register_quicksort, scratch));
    }
  } else {
    for (std::size_t i = 0; i < budget; ++i) {
      core::PtestConfig config = arm_config(i % 2);
      config.seed = support::derive_seed(base_seed, i);
      pfa::Alphabet alphabet;
      // adaptive_test compiles, then executes one session.
      if (compiles != nullptr) ++*compiles;
      results.push_back(
          core::adaptive_test(config, alphabet, workload::register_quicksort));
    }
  }
  return results;
}

bool identical(const std::vector<core::AdaptiveTestResult>& a,
               const std::vector<core::AdaptiveTestResult>& b) {
  if (a.size() != b.size()) return false;
  for (std::size_t i = 0; i < a.size(); ++i) {
    const core::SessionResult& sa = a[i].session;
    const core::SessionResult& sb = b[i].session;
    if (a[i].merged.elements != b[i].merged.elements ||
        sa.outcome != sb.outcome || sa.stats.ticks != sb.stats.ticks ||
        sa.report.has_value() != sb.report.has_value() ||
        (sa.report && sa.report->signature() != sb.report->signature())) {
      return false;
    }
  }
  return true;
}

double time_sessions_ms(std::size_t budget, bool compile_once,
                        int repetitions) {
  // Min of several repetitions: robust against scheduler noise, and the
  // honest number for "how fast can this go".
  double best = 1e300;
  for (int rep = 0; rep < repetitions; ++rep) {
    const auto start = std::chrono::steady_clock::now();
    bench::do_not_optimize(run_sessions(budget, compile_once));
    const double ms = std::chrono::duration<double, std::milli>(
                          std::chrono::steady_clock::now() - start)
                          .count();
    if (ms < best) best = ms;
  }
  return best;
}

void print_table() {
  constexpr std::size_t kBudget = 64;
  constexpr int kReps = 5;

  if (!identical(run_sessions(kBudget, true), run_sessions(kBudget, false))) {
    std::fprintf(stderr,
                 "FATAL: plan-cache result differs from compile-per-run\n");
    std::exit(1);
  }

  std::printf("=== Plan cache: %zu sessions, 2 alternating arms, quicksort "
              "workload ===\n", kBudget);
  const double per_run = time_sessions_ms(kBudget, false, kReps);
  const double once = time_sessions_ms(kBudget, true, kReps);
  std::printf("compile-per-run %8.2f ms | compile-once %8.2f ms | speedup "
              "%.2fx (identical results: yes)\n",
              per_run, once, per_run / once);
  std::printf("plan_compiles=2 (compile-once) vs plan_compiles=%zu "
              "(compile-per-run)\n\n", kBudget);
}

const int registered = [] {
  bench::register_report("plan_cache", print_table);

  bench::register_benchmark("plan_cache/compile_plan",
                            [](bench::Context& ctx) {
                              core::PtestConfig config = base_config();
                              config.distributions = kFig5;
                              ctx.measure([&] {
                                bench::do_not_optimize(core::compile(config));
                              });
                            });

  bench::register_benchmark(
      "plan_cache/pipeline_precompiled", [](bench::Context& ctx) {
        core::PtestConfig config = base_config();
        config.distributions = kFig5;
        const core::CompiledTestPlanPtr plan = core::compile(config);
        pfa::WalkScratch scratch;
        std::uint64_t seed = 0;
        ctx.measure([&] {
          bench::do_not_optimize(
              core::generate_and_merge(*plan, ++seed, scratch));
        });
      });

  bench::register_benchmark(
      "plan_cache/pipeline_compile_each_run", [](bench::Context& ctx) {
        core::PtestConfig config = base_config();
        config.distributions = kFig5;
        pfa::WalkScratch scratch;
        ctx.measure([&] {
          config.seed++;
          bench::do_not_optimize(core::generate_and_merge(
              *core::compile(config), config.seed, scratch));
        });
      });

  for (const bool compile_once : {false, true}) {
    bench::register_benchmark(
        std::string("plan_cache/campaign/") +
            (compile_once ? "compile-once" : "compile-per-run"),
        [compile_once](bench::Context& ctx) {
          const std::size_t budget = ctx.scaled<std::size_t>(64, 8);
          double last_s = 0.0;
          std::size_t compiles = 0;
          ctx.measure([&] {
            compiles = 0;
            const auto start = std::chrono::steady_clock::now();
            bench::do_not_optimize(
                run_sessions(budget, compile_once, &compiles));
            last_s = std::chrono::duration<double>(
                         std::chrono::steady_clock::now() - start)
                         .count();
          });
          ctx.set_items_per_call(static_cast<double>(budget));
          ctx.set_counter("sessions_per_sec",
                          static_cast<double>(budget) / last_s);
          ctx.set_counter("plan_cache_hits",
                          compile_once ? static_cast<double>(budget) : 0.0);
          ctx.set_counter("plan_compiles", static_cast<double>(compiles));
        });
  }
  return 0;
}();

}  // namespace
