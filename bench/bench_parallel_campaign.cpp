// Parallel campaign runner: the epsilon-greedy session budget of a
// two-arm campaign runs through core::SessionBatchRunner in fixed
// 8-session policy rounds (a single-arm campaign would run as one
// batch), with per-session seeds derived from (base seed, run index) and
// an order-free fold of each round.  The report table runs the same
// 64-session campaign at jobs=1/2/4/8 and aborts unless every
// CampaignResult, work counters included, is bit-identical to the serial
// one.  It prints no timings: one-shot wall times swing from run to run,
// and end-to-end throughput is perfbench's to measure, so this suite
// registers no timed rows either.
//
// `bench_parallel_campaign --scaling [--repeats R]` (its own main, in
// bench_parallel_campaign_main.cpp) measures how one single-arm
// aba-stack campaign scales instead: at jobs 1..N, N the hardware thread
// count capped at 8, it prints sessions/s, process CPU us per session,
// speedup, efficiency (speedup / jobs) and the work inflation
// cpu(jobs) / cpu(jobs=1), each the median of R repeats (default 5) with
// min-max.  It exits 1 if any run differs from the jobs=1 run, 64 on a
// bad flag; its timings are printed, never checked.
#include <algorithm>
#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <ctime>
#include <string>
#include <string_view>
#include <vector>

#include "harness.hpp"
#include "ptest/core/campaign.hpp"
#include "ptest/support/worker_pool.hpp"
#include "ptest/workload/philosophers.hpp"

namespace {

using namespace ptest;

const char* kSuspendHeavy =
    "TC -> TS = 0.8; TC -> TCH = 0.1; TC -> TD = 0.05; TC -> TY = 0.05;"
    "TCH -> TS = 0.8; TCH -> TCH = 0.1; TCH -> TD = 0.05; TCH -> TY = 0.05;"
    "TS -> TR = 1.0;"
    "TR -> TS = 0.8; TR -> TCH = 0.1; TR -> TD = 0.05; TR -> TY = 0.05";

core::PtestConfig base_config() {
  core::PtestConfig config;
  config.n = 3;
  config.s = 10;
  config.program_id = workload::kPhilosopherProgramId;
  config.max_ticks = 100000;
  config.command_spacing = 12;
  return config;
}

core::Campaign make_campaign(std::size_t budget, std::size_t jobs) {
  std::vector<core::CampaignArm> arms{
      {"sequential/uniform", pattern::MergeOp::kSequential, ""},
      {"round-robin/suspend-heavy", pattern::MergeOp::kRoundRobin,
       kSuspendHeavy},
  };
  const core::WorkloadSetup setup = [](pcore::PcoreKernel& kernel) {
    (void)workload::register_philosophers(kernel, /*buggy=*/true,
                                          /*meals=*/500);
  };
  core::CampaignOptions options;
  options.budget = budget;
  options.target = core::BugKind::kDeadlock;
  options.jobs = jobs;
  return core::Campaign(base_config(), arms, setup, options);
}

bool identical(const core::CampaignResult& a, const core::CampaignResult& b) {
  if (a.total_runs != b.total_runs ||
      a.total_detections != b.total_detections || a.best_arm != b.best_arm ||
      a.arm_stats.size() != b.arm_stats.size() ||
      a.distinct_failures.size() != b.distinct_failures.size()) {
    return false;
  }
  for (std::size_t i = 0; i < a.arm_stats.size(); ++i) {
    if (a.arm_stats[i].runs != b.arm_stats[i].runs ||
        a.arm_stats[i].detections != b.arm_stats[i].detections) {
      return false;
    }
  }
  auto it = b.distinct_failures.begin();
  for (const auto& entry : a.distinct_failures) {
    if (entry.first != it->first) return false;
    ++it;
  }
  return true;
}

void print_table() {
  std::printf("=== Parallel campaign: 64-session budget ===\n");

  const core::CampaignResult reference = make_campaign(64, 1).run();
  for (const std::size_t jobs : {1, 2, 4, 8}) {
    const core::CampaignResult result = make_campaign(64, jobs).run();
    const std::string_view counter =
        support::work_difference(reference.metrics, result.metrics);
    if (!identical(reference, result) || !counter.empty()) {
      std::fprintf(stderr,
                   "FATAL: jobs=%zu result differs from the serial run "
                   "(work counter '%.*s')\n",
                   jobs, static_cast<int>(counter.size()), counter.data());
      std::exit(1);
    }
    std::printf("jobs=%zu: %zu detections, identical to serial: yes\n", jobs,
                result.total_detections);
  }

  std::printf("\n");
}

const int registered = bench::register_report("parallel_campaign",
                                              print_table);

/// Sessions per scaling campaign: about 0.1 s of CPU at jobs=1.
constexpr std::size_t kScalingBudget = 60'000;

double process_cpu_seconds() {
  timespec now{};
  clock_gettime(CLOCK_PROCESS_CPUTIME_ID, &now);
  return static_cast<double>(now.tv_sec) +
         1e-9 * static_cast<double>(now.tv_nsec);
}

struct Spread {
  double median = 0.0;
  double min = 0.0;
  double max = 0.0;
};

Spread spread(std::vector<double> values) {
  std::sort(values.begin(), values.end());
  const std::size_t n = values.size();
  return {n % 2 ? values[n / 2] : (values[n / 2 - 1] + values[n / 2]) / 2,
          values.front(), values.back()};
}

std::string show(const Spread& s, const char* format) {
  char buffer[96];
  std::snprintf(buffer, sizeof buffer, format, s.median, s.min, s.max);
  return buffer;
}

}  // namespace

namespace ptest::bench {

int parallel_scaling(int argc, char** argv) {
  int repeats = 5;
  for (int i = 1; i < argc; ++i) {
    const std::string_view flag = argv[i];
    if (flag == "--scaling") continue;
    if (flag == "--repeats" && i + 1 < argc) {
      repeats = std::atoi(argv[++i]);
      if (repeats >= 1) continue;
    }
    std::fprintf(stderr, "usage: %s --scaling [--repeats R]  (R >= 1)\n",
                 argv[0]);
    return 64;
  }
  const std::size_t max_jobs =
      std::min<std::size_t>(support::resolve_jobs(0), 8);

  core::CampaignOptions options;
  options.budget = kScalingBudget;
  const auto run = [&](std::size_t jobs) {
    options.jobs = jobs;
    auto result = core::Campaign::run_scenario("aba-stack", options);
    if (!result) {
      std::fprintf(stderr, "FATAL: %s\n", result.error().c_str());
      std::exit(1);
    }
    return std::move(result).value();
  };
  const core::CampaignResult reference = run(1);  // also the warm-up

  // rates[j][r], cpu[j][r]: jobs j + 1, repeat r.  Each repeat runs every
  // jobs value in turn, so a drift of the host spreads over all of them.
  std::vector<std::vector<double>> rates(max_jobs), cpu(max_jobs);
  for (int r = 0; r < repeats; ++r) {
    for (std::size_t jobs = 1; jobs <= max_jobs; ++jobs) {
      const double cpu_start = process_cpu_seconds();
      const auto wall_start = std::chrono::steady_clock::now();
      const core::CampaignResult result = run(jobs);
      const double wall = std::chrono::duration<double>(
                              std::chrono::steady_clock::now() - wall_start)
                              .count();
      const double cpu_used = process_cpu_seconds() - cpu_start;
      const std::string_view counter =
          support::work_difference(reference.metrics, result.metrics);
      if (!identical(reference, result) || !counter.empty()) {
        std::fprintf(stderr,
                     "FATAL: jobs=%zu result differs from the serial run "
                     "(work counter '%.*s')\n",
                     jobs, static_cast<int>(counter.size()), counter.data());
        return 1;
      }
      const double sessions = static_cast<double>(result.total_runs);
      rates[jobs - 1].push_back(sessions / wall);
      cpu[jobs - 1].push_back(cpu_used * 1e6 / sessions);
    }
  }

  std::printf(
      "=== Parallel scaling: aba-stack, %zu sessions per campaign, "
      "median (min-max) of %d repeats ===\n",
      kScalingBudget, repeats);
  std::printf("%-5s %-28s %-24s %-22s %-22s %s\n", "jobs", "sessions/s",
              "cpu us/session", "speedup", "efficiency",
              "inflation cpu(j)/cpu(1)");
  for (std::size_t jobs = 1; jobs <= max_jobs; ++jobs) {
    std::vector<double> speedup, efficiency, inflation;
    for (int r = 0; r < repeats; ++r) {
      speedup.push_back(rates[jobs - 1][r] / rates[0][r]);
      efficiency.push_back(speedup.back() / static_cast<double>(jobs));
      inflation.push_back(cpu[jobs - 1][r] / cpu[0][r]);
    }
    std::printf("%-5zu %-28s %-24s %-22s %-22s %s\n", jobs,
                show(spread(rates[jobs - 1]), "%.0f (%.0f-%.0f)").c_str(),
                show(spread(cpu[jobs - 1]), "%.3f (%.3f-%.3f)").c_str(),
                show(spread(speedup), "%.2f (%.2f-%.2f)").c_str(),
                show(spread(efficiency), "%.2f (%.2f-%.2f)").c_str(),
                show(spread(inflation), "%.3f (%.3f-%.3f)").c_str());
  }
  std::printf("identical to serial at every jobs value: yes\n");
  return 0;
}

}  // namespace ptest::bench
