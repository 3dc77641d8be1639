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
#include <cstdio>
#include <cstdlib>
#include <string_view>

#include "harness.hpp"
#include "ptest/core/campaign.hpp"
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

}  // namespace
