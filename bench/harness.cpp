#include "harness.hpp"

#include <algorithm>
#include <chrono>
#include <cmath>
#include <cstdio>
#include <fstream>
#include <iostream>
#include <stdexcept>

#include "ptest/obs/trace.hpp"
#include "ptest/support/json.hpp"

// Build provenance baked in by bench/CMakeLists.txt so every
// BENCH_results.json records what produced it.
#ifndef PTEST_GIT_SHA
#define PTEST_GIT_SHA "unknown"
#endif
#ifndef PTEST_BUILD_FLAGS
#define PTEST_BUILD_FLAGS "unknown"
#endif
#ifndef PTEST_COMPILER
#define PTEST_COMPILER "unknown"
#endif

namespace ptest::bench {

namespace {

double seconds_since(std::chrono::steady_clock::time_point start) {
  return std::chrono::duration<double>(std::chrono::steady_clock::now() -
                                       start)
      .count();
}

}  // namespace

Stats compute_stats(std::vector<double> samples) {
  Stats stats;
  if (samples.empty()) return stats;
  std::sort(samples.begin(), samples.end());
  const std::size_t n = samples.size();
  stats.min = samples.front();
  stats.max = samples.back();
  double sum = 0.0;
  for (const double s : samples) sum += s;
  stats.mean = sum / static_cast<double>(n);
  stats.median = n % 2 == 1
                     ? samples[n / 2]
                     : 0.5 * (samples[n / 2 - 1] + samples[n / 2]);
  // Nearest-rank p95: smallest sample >= 95% of the distribution.
  const std::size_t rank = static_cast<std::size_t>(
      std::ceil(0.95 * static_cast<double>(n)));
  stats.p95 = samples[rank == 0 ? 0 : rank - 1];
  double sq = 0.0;
  for (const double s : samples) sq += (s - stats.mean) * (s - stats.mean);
  stats.stddev = std::sqrt(sq / static_cast<double>(n));
  return stats;
}

void Context::measure(const std::function<void()>& fn) {
  if (!samples_.empty()) {
    throw std::logic_error("Context::measure called twice in one benchmark");
  }

  // Warmup: untimed, and (outside smoke) the last call estimates how
  // many inner iterations one sample needs to dominate clock noise.
  // --warmup 0 makes no untimed call at all — the first timed sample is
  // genuinely cold — which also leaves no estimate, so batching stays
  // at 1 rather than absorbing the cold call into a warmup it was told
  // not to run.
  double estimate = 0.0;
  for (int i = 0; i < warmup_; ++i) {
    const auto start = std::chrono::steady_clock::now();
    fn();
    estimate = seconds_since(start);
  }

  inner_iterations_ = 1;
  if (!smoke_ && estimate > 0.0 && estimate < min_sample_seconds_) {
    constexpr std::uint64_t kMaxInner = 10000;
    inner_iterations_ = std::min<std::uint64_t>(
        kMaxInner,
        static_cast<std::uint64_t>(min_sample_seconds_ / estimate) + 1);
  }

  samples_.reserve(static_cast<std::size_t>(repetitions_));
  for (int rep = 0; rep < repetitions_; ++rep) {
    obs::TraceSpan rep_span(trace_name_);
    const auto start = std::chrono::steady_clock::now();
    for (std::uint64_t i = 0; i < inner_iterations_; ++i) fn();
    samples_.push_back(seconds_since(start));
  }
}

Registry& Registry::global() {
  static Registry instance;
  return instance;
}

void Registry::add(std::string name, BenchFn fn) {
  benchmarks_.push_back({std::move(name), std::move(fn)});
}

void Registry::add_report(std::string name, std::function<void()> fn) {
  reports_.push_back({std::move(name), std::move(fn)});
}

int register_benchmark(std::string name, BenchFn fn) {
  Registry::global().add(std::move(name), std::move(fn));
  return 0;
}

int register_report(std::string name, std::function<void()> fn) {
  Registry::global().add_report(std::move(name), std::move(fn));
  return 0;
}

bool parse_args(int argc, const char* const* argv, Options& options,
                std::string& error) {
  for (int i = 1; i < argc; ++i) {
    const std::string flag = argv[i];
    const auto value = [&]() -> const char* {
      if (i + 1 >= argc) return nullptr;
      return argv[++i];
    };
    if (flag == "--filter") {
      const char* v = value();
      if (!v) { error = "--filter needs a value"; return false; }
      options.filter = v;
    } else if (flag == "--repetitions") {
      const char* v = value();
      if (!v) { error = "--repetitions needs a value"; return false; }
      options.repetitions = std::atoi(v);
      if (options.repetitions < 1) {
        error = "--repetitions must be >= 1";
        return false;
      }
    } else if (flag == "--warmup") {
      const char* v = value();
      if (!v) { error = "--warmup needs a value"; return false; }
      options.warmup = std::atoi(v);
      if (options.warmup < 0) { error = "--warmup must be >= 0"; return false; }
    } else if (flag == "--smoke") {
      options.smoke = true;
    } else if (flag == "--json") {
      const char* v = value();
      if (!v) { error = "--json needs a path"; return false; }
      options.json_path = v;
    } else if (flag == "--list") {
      options.list = true;
    } else if (flag == "--tables") {
      options.run_reports = 1;
    } else if (flag == "--no-tables") {
      options.run_reports = 0;
    } else if (flag == "--help" || flag == "-h") {
      error.clear();  // run_main treats empty error + false as "show usage"
      return false;
    } else {
      error = "unknown flag '" + flag + "'";
      return false;
    }
  }
  return true;
}

RunSummary run_benchmarks(const Registry& registry, const Options& options) {
  RunSummary summary;
  summary.options = options;

  if (options.reports_enabled()) {
    for (const Report& report : registry.reports()) {
      if (!options.filter.empty() &&
          report.name.find(options.filter) == std::string::npos) {
        continue;
      }
      report.fn();
      ++summary.reports_run;
    }
  }

  for (const Benchmark& benchmark : registry.benchmarks()) {
    if (!options.filter.empty() &&
        benchmark.name.find(options.filter) == std::string::npos) {
      continue;
    }
    Context context(options.smoke, options.effective_repetitions(),
                    options.effective_warmup(), options.min_sample_seconds);
    // The registry outlives every drain, so its name storage satisfies
    // the recorder's static-lifetime requirement.
    context.set_trace_name(benchmark.name.c_str());
    benchmark.fn(context);

    BenchmarkResult result;
    result.name = benchmark.name;
    result.repetitions = static_cast<int>(context.samples().size());
    result.inner_iterations = context.inner_iterations();
    // Per-sample seconds -> per-call milliseconds, so numbers stay
    // comparable when the harness picks different batch sizes.
    std::vector<double> per_call_ms;
    per_call_ms.reserve(context.samples().size());
    for (const double s : context.samples()) {
      per_call_ms.push_back(s * 1e3 /
                            static_cast<double>(context.inner_iterations()));
    }
    result.wall_ms = compute_stats(std::move(per_call_ms));
    if (context.items_per_call() > 0.0 && result.wall_ms.median > 0.0) {
      result.items_per_second =
          context.items_per_call() / (result.wall_ms.median * 1e-3);
    }
    result.counters = context.counters();
    summary.results.push_back(std::move(result));
  }
  return summary;
}

void write_json(const RunSummary& summary, std::ostream& out) {
  support::JsonWriter json;
  json.begin_object();
  json.key("schema_version").value(std::int64_t{1});
  json.key("git_sha").value(PTEST_GIT_SHA);
  json.key("build_flags").value(PTEST_BUILD_FLAGS);
  json.key("compiler").value(PTEST_COMPILER);
  json.key("smoke").value(summary.options.smoke);
  json.key("repetitions").value(
      std::int64_t{summary.options.effective_repetitions()});
  json.key("benchmarks").begin_object();
  for (const BenchmarkResult& result : summary.results) {
    json.key(result.name).begin_object();
    json.key("repetitions").value(std::int64_t{result.repetitions});
    json.key("inner_iterations").value(result.inner_iterations);
    json.key("wall_ms").begin_object();
    json.key("min").value(result.wall_ms.min);
    json.key("median").value(result.wall_ms.median);
    json.key("p95").value(result.wall_ms.p95);
    json.key("max").value(result.wall_ms.max);
    json.key("mean").value(result.wall_ms.mean);
    json.key("stddev").value(result.wall_ms.stddev);
    json.end_object();
    if (result.items_per_second > 0.0) {
      json.key("items_per_second").value(result.items_per_second);
    }
    if (!result.counters.empty()) {
      json.key("counters").begin_object();
      for (const auto& [name, value] : result.counters) {
        json.key(name).value(value);
      }
      json.end_object();
    }
    json.end_object();
  }
  json.end_object();
  json.end_object();
  out << json.str() << '\n';
}

void print_summary(const RunSummary& summary) {
  if (summary.results.empty()) {
    // A report-only suite (bench_parallel_campaign) has nothing to list.
    if (!summary.options.filter.empty() && summary.reports_run == 0) {
      std::printf("no benchmarks matched filter '%s'\n",
                  summary.options.filter.c_str());
    }
    return;
  }
  std::printf("%-44s %12s %12s %12s %8s\n", "benchmark", "median(ms)",
              "p95(ms)", "min(ms)", "reps");
  for (const BenchmarkResult& result : summary.results) {
    std::printf("%-44s %12.4f %12.4f %12.4f %8d", result.name.c_str(),
                result.wall_ms.median, result.wall_ms.p95, result.wall_ms.min,
                result.repetitions);
    if (result.items_per_second > 0.0) {
      std::printf("  %.3g items/s", result.items_per_second);
    }
    for (const auto& [name, value] : result.counters) {
      std::printf("  %s=%.4g", name.c_str(), value);
    }
    std::printf("\n");
  }
}

int run_main(int argc, char** argv) {
  Options options;
  std::string error;
  if (!parse_args(argc, argv, options, error)) {
    if (!error.empty()) std::fprintf(stderr, "error: %s\n", error.c_str());
    std::fprintf(
        stderr,
        "usage: %s [--filter SUBSTR] [--repetitions N] [--warmup N]\n"
        "          [--smoke] [--json PATH] [--tables|--no-tables] [--list]\n",
        argv[0]);
    return error.empty() ? 0 : 64;
  }

  const Registry& registry = Registry::global();
  if (options.list) {
    for (const Benchmark& benchmark : registry.benchmarks()) {
      std::printf("%s\n", benchmark.name.c_str());
    }
    return 0;
  }

  const RunSummary summary = run_benchmarks(registry, options);
  print_summary(summary);

  if (!options.json_path.empty()) {
    std::ofstream file(options.json_path);
    if (!file) {
      std::fprintf(stderr, "error: cannot open '%s' for writing\n",
                   options.json_path.c_str());
      return 1;
    }
    write_json(summary, file);
    std::printf("wrote %zu benchmark result(s) to %s\n",
                summary.results.size(), options.json_path.c_str());
  }
  return 0;
}

}  // namespace ptest::bench
