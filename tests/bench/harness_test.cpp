// bench/harness — stats math, CLI parsing, registry filtering, smoke
// determinism, and the BENCH_results.json shape (validated against the
// acceptance criterion: every benchmark entry carries median/p95).
#include "harness.hpp"

#include <gtest/gtest.h>

#include <atomic>
#include <sstream>

namespace ptest::bench {
namespace {

TEST(ComputeStats, EmptyInputIsAllZeros) {
  const Stats stats = compute_stats({});
  EXPECT_DOUBLE_EQ(stats.min, 0.0);
  EXPECT_DOUBLE_EQ(stats.median, 0.0);
  EXPECT_DOUBLE_EQ(stats.p95, 0.0);
}

TEST(ComputeStats, SingleSample) {
  const Stats stats = compute_stats({3.5});
  EXPECT_DOUBLE_EQ(stats.min, 3.5);
  EXPECT_DOUBLE_EQ(stats.max, 3.5);
  EXPECT_DOUBLE_EQ(stats.mean, 3.5);
  EXPECT_DOUBLE_EQ(stats.median, 3.5);
  EXPECT_DOUBLE_EQ(stats.p95, 3.5);
  EXPECT_DOUBLE_EQ(stats.stddev, 0.0);
}

TEST(ComputeStats, OddCountMedianIsMiddle) {
  // Unsorted on purpose: compute_stats must sort.
  const Stats stats = compute_stats({5.0, 1.0, 3.0});
  EXPECT_DOUBLE_EQ(stats.median, 3.0);
  EXPECT_DOUBLE_EQ(stats.min, 1.0);
  EXPECT_DOUBLE_EQ(stats.max, 5.0);
  EXPECT_DOUBLE_EQ(stats.mean, 3.0);
}

TEST(ComputeStats, EvenCountMedianIsMidpoint) {
  const Stats stats = compute_stats({4.0, 1.0, 2.0, 3.0});
  EXPECT_DOUBLE_EQ(stats.median, 2.5);
}

TEST(ComputeStats, P95IsNearestRank) {
  // 20 samples 1..20: ceil(0.95 * 20) = 19 -> 19th smallest = 19.
  std::vector<double> samples;
  for (int i = 20; i >= 1; --i) samples.push_back(i);
  const Stats stats = compute_stats(samples);
  EXPECT_DOUBLE_EQ(stats.p95, 19.0);

  // 10 samples 1..10: ceil(9.5) = 10 -> max.
  samples.clear();
  for (int i = 1; i <= 10; ++i) samples.push_back(i);
  EXPECT_DOUBLE_EQ(compute_stats(samples).p95, 10.0);

  // 3 samples: ceil(2.85) = 3 -> max.
  EXPECT_DOUBLE_EQ(compute_stats({1.0, 2.0, 3.0}).p95, 3.0);
}

TEST(ComputeStats, StddevOnKnownInput) {
  // Population stddev of {2,4,4,4,5,5,7,9} is exactly 2.
  const Stats stats =
      compute_stats({2.0, 4.0, 4.0, 4.0, 5.0, 5.0, 7.0, 9.0});
  EXPECT_DOUBLE_EQ(stats.stddev, 2.0);
  EXPECT_DOUBLE_EQ(stats.mean, 5.0);
}

TEST(ParseArgs, ParsesUniformCli) {
  const char* argv[] = {"bench", "--filter", "pfa", "--repetitions", "7",
                        "--warmup", "3", "--json", "out.json", "--smoke"};
  Options options;
  std::string error;
  ASSERT_TRUE(parse_args(10, argv, options, error)) << error;
  EXPECT_EQ(options.filter, "pfa");
  EXPECT_EQ(options.repetitions, 7);
  EXPECT_EQ(options.warmup, 3);
  EXPECT_EQ(options.json_path, "out.json");
  EXPECT_TRUE(options.smoke);
  // Smoke overrides repetition/warmup and disables the report tables.
  EXPECT_EQ(options.effective_repetitions(), 3);
  EXPECT_EQ(options.effective_warmup(), 1);
  EXPECT_FALSE(options.reports_enabled());
}

TEST(ParseArgs, RejectsUnknownAndMalformedFlags) {
  Options options;
  std::string error;
  {
    const char* argv[] = {"bench", "--what"};
    EXPECT_FALSE(parse_args(2, argv, options, error));
    EXPECT_NE(error.find("--what"), std::string::npos);
  }
  {
    const char* argv[] = {"bench", "--repetitions"};
    EXPECT_FALSE(parse_args(2, argv, options, error));
  }
  {
    const char* argv[] = {"bench", "--repetitions", "0"};
    EXPECT_FALSE(parse_args(3, argv, options, error));
  }
}

Options smoke_options() {
  Options options;
  options.smoke = true;
  return options;
}

TEST(Harness, SmokeCallCountsAreDeterministic) {
  Registry registry;
  std::atomic<int> calls{0};
  registry.add("suite/counted", [&calls](Context& ctx) {
    ctx.measure([&] { calls.fetch_add(1); });
  });

  const RunSummary summary = run_benchmarks(registry, smoke_options());
  // Smoke: 1 warmup + 3 repetitions, no inner batching.
  EXPECT_EQ(calls.load(), 4);
  ASSERT_EQ(summary.results.size(), 1u);
  EXPECT_EQ(summary.results[0].repetitions, 3);
  EXPECT_EQ(summary.results[0].inner_iterations, 1u);

  calls = 0;
  const RunSummary again = run_benchmarks(registry, smoke_options());
  EXPECT_EQ(calls.load(), 4);  // identical call count on a second run
  EXPECT_EQ(again.results[0].name, summary.results[0].name);
  EXPECT_EQ(again.results[0].repetitions, summary.results[0].repetitions);
}

TEST(Harness, WarmupZeroMakesNoUntimedCalls) {
  Registry registry;
  std::atomic<int> calls{0};
  registry.add("suite/cold", [&calls](Context& ctx) {
    ctx.measure([&] { calls.fetch_add(1); });
  });
  Options options;
  options.warmup = 0;
  options.repetitions = 5;
  const RunSummary summary = run_benchmarks(registry, options);
  // No warmup and no batching estimate: exactly the 5 timed samples.
  EXPECT_EQ(calls.load(), 5);
  ASSERT_EQ(summary.results.size(), 1u);
  EXPECT_EQ(summary.results[0].inner_iterations, 1u);
}

TEST(Harness, SmokeSkipsReportsAndFlagsContext) {
  Registry registry;
  bool report_ran = false;
  bool smoke_seen = false;
  registry.add_report("suite", [&report_ran] { report_ran = true; });
  registry.add("suite/bench", [&smoke_seen](Context& ctx) {
    smoke_seen = ctx.smoke();
    EXPECT_EQ(ctx.scaled(64, 8), 8);
    ctx.measure([] {});
  });
  (void)run_benchmarks(registry, smoke_options());
  EXPECT_FALSE(report_ran);
  EXPECT_TRUE(smoke_seen);
}

TEST(Harness, FilterSelectsBySubstring) {
  Registry registry;
  registry.add("alpha/one", [](Context& ctx) { ctx.measure([] {}); });
  registry.add("beta/two", [](Context& ctx) { ctx.measure([] {}); });
  registry.add("beta/three", [](Context& ctx) { ctx.measure([] {}); });

  Options options = smoke_options();
  options.filter = "beta";
  const RunSummary summary = run_benchmarks(registry, options);
  ASSERT_EQ(summary.results.size(), 2u);
  EXPECT_EQ(summary.results[0].name, "beta/two");
  EXPECT_EQ(summary.results[1].name, "beta/three");
}

TEST(Harness, NoMatchMessageOnlyWhenNothingMatched) {
  // A report-only suite whose report matches the filter printed its table;
  // the summary must not then claim nothing matched.
  Registry registry;
  int report_runs = 0;
  registry.add_report("suite/report", [&report_runs] { ++report_runs; });
  Options options;
  options.run_reports = 1;
  options.filter = "report";
  const RunSummary matched = run_benchmarks(registry, options);
  EXPECT_EQ(report_runs, 1);
  EXPECT_EQ(matched.reports_run, 1u);
  testing::internal::CaptureStdout();
  print_summary(matched);
  EXPECT_EQ(testing::internal::GetCapturedStdout(), "");

  options.filter = "absent";
  const RunSummary unmatched = run_benchmarks(registry, options);
  EXPECT_EQ(report_runs, 1);
  EXPECT_EQ(unmatched.reports_run, 0u);
  testing::internal::CaptureStdout();
  print_summary(unmatched);
  EXPECT_EQ(testing::internal::GetCapturedStdout(),
            "no benchmarks matched filter 'absent'\n");
}

TEST(Harness, ThroughputAndCountersReachResults) {
  Registry registry;
  registry.add("suite/throughput", [](Context& ctx) {
    ctx.measure([] {
      // Something the optimizer can't erase but that takes real time.
      volatile int sink = 0;
      for (int i = 0; i < 1000; ++i) sink = sink + i;
    });
    ctx.set_items_per_call(1000.0);
    ctx.set_counter("custom", 7.5);
  });
  const RunSummary summary = run_benchmarks(registry, smoke_options());
  ASSERT_EQ(summary.results.size(), 1u);
  EXPECT_GT(summary.results[0].items_per_second, 0.0);
  ASSERT_EQ(summary.results[0].counters.size(), 1u);
  EXPECT_EQ(summary.results[0].counters[0].first, "custom");
  EXPECT_DOUBLE_EQ(summary.results[0].counters[0].second, 7.5);
}

TEST(Harness, JsonOutputHasMedianAndP95PerBenchmark) {
  Registry registry;
  registry.add("suite/a", [](Context& ctx) { ctx.measure([] {}); });
  registry.add("suite/b", [](Context& ctx) { ctx.measure([] {}); });
  const RunSummary summary = run_benchmarks(registry, smoke_options());

  std::ostringstream out;
  write_json(summary, out);
  const std::string json = out.str();
  EXPECT_NE(json.find("\"schema_version\": 1"), std::string::npos);
  EXPECT_NE(json.find("\"git_sha\""), std::string::npos);
  EXPECT_NE(json.find("\"build_flags\""), std::string::npos);
  EXPECT_NE(json.find("\"smoke\": true"), std::string::npos);
  EXPECT_NE(json.find("\"suite/a\""), std::string::npos);
  EXPECT_NE(json.find("\"suite/b\""), std::string::npos);
  // One median/p95 pair per benchmark entry.
  std::size_t medians = 0, pos = 0;
  while ((pos = json.find("\"median\"", pos)) != std::string::npos) {
    ++medians;
    pos += 1;
  }
  EXPECT_EQ(medians, 2u);
  EXPECT_NE(json.find("\"p95\""), std::string::npos);
}

TEST(Harness, MeasureTwiceIsAnError) {
  Registry registry;
  registry.add("suite/twice", [](Context& ctx) {
    ctx.measure([] {});
    ctx.measure([] {});
  });
  EXPECT_THROW((void)run_benchmarks(registry, smoke_options()),
               std::logic_error);
}

TEST(Harness, GlobalRegistryCarriesTheMigratedSuites) {
  // bench binaries register at static init; this test links only the
  // harness, so global() is empty here — but it must exist and accept
  // registrations through the public hooks.
  const std::size_t before = Registry::global().benchmarks().size();
  register_benchmark("harness_test/probe", [](Context& ctx) {
    ctx.measure([] {});
  });
  EXPECT_EQ(Registry::global().benchmarks().size(), before + 1);
}

}  // namespace
}  // namespace ptest::bench
