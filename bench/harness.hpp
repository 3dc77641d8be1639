// Shared benchmark harness: registration, measurement, stats, JSON.
//
// Every bench_* binary and the bench_all driver are thin shells around
// this harness — benchmark bodies register themselves at static-init
// time, and run_main() supplies the uniform CLI:
//
//   --filter SUBSTR       run only benchmarks whose name contains SUBSTR
//   --repetitions N       timed samples per benchmark (default 10)
//   --warmup N            untimed warmup calls per benchmark (default 2;
//                         0 = none, so the first sample measures the
//                         cold path and adaptive batching stays off)
//   --smoke               fast deterministic pass: 3 repetitions, 1
//                         warmup, no inner batching, reports skipped,
//                         Context::smoke() true so bodies shrink budgets
//   --json PATH           write machine-readable results (the
//                         BENCH_results.json schema; see README)
//   --tables / --no-tables  force the paper-figure report tables on/off
//   --list                print registered benchmark names and exit
//
// Measurement model: a benchmark body is called once and does its own
// setup (untimed), then hands the hot region to Context::measure(fn).
// The harness times `repetitions` samples of fn — batching multiple fn
// calls per sample when a single call is too fast to time reliably —
// and reports min/mean/median/p95/max/stddev wall time, plus optional
// throughput (set_items_per_call) and named counters (set_counter).
//
// Replaces the Google Benchmark dependency: the harness is plain C++20
// on std::chrono, so the bench tree builds wherever the library does.
#pragma once

#include <cstdint>
#include <functional>
#include <iosfwd>
#include <string>
#include <utility>
#include <vector>

namespace ptest::bench {

/// Defeats dead-code elimination of a benchmark result without costing
/// a store (the Google Benchmark idiom, minus the library).
template <typename T>
inline void do_not_optimize(T&& value) {
#if defined(__GNUC__) || defined(__clang__)
  asm volatile("" : : "g"(&value) : "memory");
#else
  static volatile const void* sink;
  sink = &value;
#endif
}

/// Order statistics over one benchmark's repetition samples.
struct Stats {
  double min = 0.0;
  double max = 0.0;
  double mean = 0.0;
  double median = 0.0;  ///< midpoint (mean of the two middle samples)
  double p95 = 0.0;     ///< nearest-rank 95th percentile
  double stddev = 0.0;  ///< population standard deviation
};

/// Computes Stats over `samples` (empty input -> all zeros).
[[nodiscard]] Stats compute_stats(std::vector<double> samples);

class Context;
using BenchFn = std::function<void(Context&)>;

/// Handed to each benchmark body: carries the run mode in, the timing
/// samples and counters out.
class Context {
 public:
  Context(bool smoke, int repetitions, int warmup, double min_sample_seconds)
      : smoke_(smoke),
        repetitions_(repetitions),
        warmup_(warmup),
        min_sample_seconds_(min_sample_seconds) {}

  /// True under --smoke: bodies should shrink budgets (fewer sessions,
  /// lower tick limits) so the whole suite stays CI-fast.
  [[nodiscard]] bool smoke() const noexcept { return smoke_; }

  /// Convenience: `full` normally, `reduced` under --smoke.
  template <typename T>
  [[nodiscard]] T scaled(T full, T reduced) const noexcept {
    return smoke_ ? reduced : full;
  }

  /// Times the hot region: warmup calls, then `repetitions` samples,
  /// each covering `inner_iterations()` calls of fn when one call is
  /// too fast for the clock (never batched under --smoke).  Call
  /// exactly once per benchmark body, after setup.  When the process
  /// TraceRecorder is enabled each repetition records a span named by
  /// set_trace_name (the harness sets the benchmark's registry name).
  void measure(const std::function<void()>& fn);

  /// Span name for measure()'s repetitions; must outlive the recorder
  /// drain (registry-owned benchmark names qualify).
  void set_trace_name(const char* name) noexcept { trace_name_ = name; }

  /// Work items per fn call, for items/sec throughput in the results.
  void set_items_per_call(double items) noexcept { items_per_call_ = items; }

  /// Attaches a named counter (e.g. sessions_per_sec) to the result.
  void set_counter(const std::string& name, double value) {
    counters_.emplace_back(name, value);
  }

  // Harness-side accessors (results assembly and tests).
  [[nodiscard]] const std::vector<double>& samples() const noexcept {
    return samples_;
  }
  [[nodiscard]] std::uint64_t inner_iterations() const noexcept {
    return inner_iterations_;
  }
  [[nodiscard]] double items_per_call() const noexcept {
    return items_per_call_;
  }
  [[nodiscard]] const std::vector<std::pair<std::string, double>>& counters()
      const noexcept {
    return counters_;
  }

 private:
  bool smoke_;
  int repetitions_;
  int warmup_;
  double min_sample_seconds_;
  const char* trace_name_ = "bench:rep";
  std::uint64_t inner_iterations_ = 1;
  double items_per_call_ = 0.0;
  std::vector<double> samples_;  // seconds per sample
  std::vector<std::pair<std::string, double>> counters_;
};

struct Benchmark {
  std::string name;
  BenchFn fn;
};

/// A "report" is a bench binary's paper-figure table printer: free-form
/// stdout, run before the timed benchmarks (skipped under --smoke).
struct Report {
  std::string name;
  std::function<void()> fn;
};

/// Registered benchmarks/reports.  Benchmarks register into global() at
/// static-init time; tests build private registries.
class Registry {
 public:
  static Registry& global();

  void add(std::string name, BenchFn fn);
  void add_report(std::string name, std::function<void()> fn);

  [[nodiscard]] const std::vector<Benchmark>& benchmarks() const noexcept {
    return benchmarks_;
  }
  [[nodiscard]] const std::vector<Report>& reports() const noexcept {
    return reports_;
  }

 private:
  std::vector<Benchmark> benchmarks_;
  std::vector<Report> reports_;
};

/// Static-init registration hooks; both return 0 so bench files can run
/// them from an initializer:  const int reg = [] { ... return 0; }();
int register_benchmark(std::string name, BenchFn fn);
int register_report(std::string name, std::function<void()> fn);

struct Options {
  std::string filter;             // substring; empty = everything
  int repetitions = 10;
  int warmup = 2;
  bool smoke = false;
  std::string json_path;          // empty = no JSON output
  bool list = false;
  int run_reports = -1;           // -1 auto (on unless smoke), 0 off, 1 on
  double min_sample_seconds = 1e-3;

  /// Repetition/warmup/batching actually in effect (smoke overrides).
  [[nodiscard]] int effective_repetitions() const noexcept {
    return smoke ? 3 : repetitions;
  }
  [[nodiscard]] int effective_warmup() const noexcept {
    return smoke ? 1 : warmup;
  }
  [[nodiscard]] bool reports_enabled() const noexcept {
    return run_reports == -1 ? !smoke : run_reports != 0;
  }
};

/// Parses the uniform CLI.  Returns true on success; on failure fills
/// `error` (run_main prints it plus usage and exits 64).
bool parse_args(int argc, const char* const* argv, Options& options,
                std::string& error);

struct BenchmarkResult {
  std::string name;
  int repetitions = 0;
  std::uint64_t inner_iterations = 1;
  Stats wall_ms;                     // per-sample wall time, milliseconds
  double items_per_second = 0.0;     // 0 = body set no throughput
  std::vector<std::pair<std::string, double>> counters;
};

struct RunSummary {
  Options options;
  std::vector<BenchmarkResult> results;
  /// Reports that matched the filter and ran.
  std::size_t reports_run = 0;
};

/// Runs every registered benchmark matching options.filter (reports
/// first when enabled) and returns the collected results.
RunSummary run_benchmarks(const Registry& registry, const Options& options);

/// Serializes a summary to the BENCH_results.json schema.
void write_json(const RunSummary& summary, std::ostream& out);

/// Human-readable results table to stdout.
void print_summary(const RunSummary& summary);

/// Full CLI entry point over Registry::global(); bench_main.cpp calls
/// this from main().  Returns the process exit code.
int run_main(int argc, char** argv);

}  // namespace ptest::bench
