// ptest_cli — drive pTest from the command line.
//
// The mode flags pick one of seven modes, and each mode accepts only
// the flags its row of kFlags lists: a silently ignored flag reads as a
// run that honoured it, so any other flag is a usage error (exit 64)
// naming the flag and the mode.  `ptest_cli --help` prints the table.
//
//   plain     (no mode flag) R adaptive-test sessions of --workload,
//             one line per run plus the first bug report found.  With
//             --jobs J the R sessions instead run as a single-arm
//             campaign on J worker threads (0 = one per hardware
//             thread); its summary is bit-identical for every J, so
//             `--jobs 8` can be diffed against `--jobs 1`.
//   scenario  --scenario NAME runs the catalog entry's campaign (its
//             own plan, workload and default budget unless --runs
//             overrides) and reports the bug-oracle verdict; --benign
//             runs the benign counterpart, where satisfaction means the
//             oracle stayed silent.  An unknown name exits 64.
//   guided    --scenario NAME --guided runs the coverage-guided epoch
//             loop of src/ptest/guided/ until the oracle fires, the
//             epoch budget (--epochs) runs out or coverage plateaus.
//             --corpus FILE seeds the run from an existing file
//             (resuming bit-deterministically) and saves the corpus
//             back on exit; a corrupt or mismatched file exits 64.
//   fleet     --scenario NAME with --fleet N and/or --connect shards
//             the campaign.  --fleet N alone runs coordinator and N
//             workers as threads of this process; --connect
//             HOST:PORT[,...] dials --listen daemons instead and ends
//             the campaign with a campaign-end broadcast that leaves
//             them up for the next coordinator.  --status prints a
//             liveness line per second to stderr.
//   listen    --listen PORT makes this process a persistent TCP worker
//             daemon (PORT 0 = kernel-assigned; the bound port is
//             printed) that exits 0 on a shutdown frame.
//   halt      --halt-fleet --connect HOST:PORT[,...] broadcasts that
//             shutdown frame to the daemons.
//   list      --list-scenarios prints the catalog (--markdown: the
//             README table).
//
// Every run mode takes --metrics (the perf counter table; its timing
// rows vary run-to-run, so determinism diffs omit the flag) and --trace
// FILE (a Chrome trace-event JSON of the run; fleet coordinators stitch
// the workers' shipped fragments into one timeline).  --export-corpus
// FILE writes the campaign's session-span corpus — the merged corpus in
// fleet mode, the whole-budget equivalent in scenario mode — which is
// what the CI fleet gate diffs.  Exit codes: 0 = all passed (plain) or
// oracle satisfied, 2 = bug detected (plain) or oracle not satisfied,
// 64 = usage error.
#include <unistd.h>

#include <algorithm>
#include <charconv>
#include <chrono>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <exception>
#include <fstream>
#include <optional>
#include <string>
#include <string_view>
#include <variant>
#include <vector>

#include "ptest/core/adaptive_test.hpp"
#include "ptest/core/campaign.hpp"
#include "ptest/core/report.hpp"
#include "ptest/fleet/coordinator.hpp"
#include "ptest/fleet/socket_transport.hpp"
#include "ptest/fleet/wire.hpp"
#include "ptest/fleet/worker.hpp"
#include "ptest/guided/campaign.hpp"
#include "ptest/obs/trace.hpp"
#include "ptest/scenario/registry.hpp"
#include "ptest/support/strings.hpp"
#include "ptest/workload/philosophers.hpp"
#include "ptest/workload/quicksort.hpp"

using namespace ptest;

namespace {

enum Mode : unsigned {
  kList = 1u << 0,
  kListen = 1u << 1,
  kHalt = 1u << 2,
  kPlain = 1u << 3,
  kScenario = 1u << 4,
  kGuided = 1u << 5,
  kFleet = 1u << 6,
};
constexpr unsigned kRunModes = kPlain | kScenario | kGuided | kFleet;

/// The parsed command line.  A number is nullopt when its flag was not
/// given, which is how modes tell "default" from an explicit value.
struct Cli {
  bool list = false;
  bool markdown = false;
  bool halt = false;
  bool guided = false;
  bool benign = false;
  bool gc_fault = false;
  bool metrics = false;
  bool status = false;
  std::string scenario;
  std::string connect;
  std::string workload = "quicksort";
  std::string op;
  std::string pd = "fig5";
  std::string corpus;
  std::string export_path;
  std::string trace;
  std::optional<std::uint64_t> listen;
  std::optional<std::uint64_t> fleet;
  std::optional<std::uint64_t> n;
  std::optional<std::uint64_t> s;
  std::optional<std::uint64_t> spacing;
  std::optional<std::uint64_t> seed;
  std::optional<std::uint64_t> runs;
  std::optional<std::uint64_t> jobs;
  std::optional<std::uint64_t> epochs;
  std::optional<std::uint64_t> epoch_sessions;
};

/// A flag's value kind is its field's type: a switch, a string, or a
/// number checked against [lowest, highest].
using Field = std::variant<bool Cli::*, std::string Cli::*,
                           std::optional<std::uint64_t> Cli::*>;

struct Flag {
  const char* name;
  const char* meta;  ///< value placeholder for --help; "" = switch
  Field field;
  unsigned modes;  ///< the modes that accept this flag
  std::uint64_t lowest = 0;
  std::uint64_t highest = UINT64_MAX;
};

constexpr Flag kFlags[] = {
    {"--list-scenarios", "", &Cli::list, kList},
    {"--markdown", "", &Cli::markdown, kList},
    {"--listen", "PORT", &Cli::listen, kListen, 0, 65535},
    {"--halt-fleet", "", &Cli::halt, kHalt},
    {"--scenario", "NAME", &Cli::scenario, kScenario | kGuided | kFleet},
    {"--guided", "", &Cli::guided, kGuided},
    {"--fleet", "N", &Cli::fleet, kFleet, 1},
    {"--connect", "HOST:PORT[,...]", &Cli::connect, kHalt | kFleet},
    {"--workload", "quicksort|philosophers|philosophers-fixed",
     &Cli::workload, kPlain},
    {"--op", "sequential|round-robin|random|cyclic|shuffle", &Cli::op,
     kPlain},
    {"--n", "N", &Cli::n, kPlain, 1},
    {"--s", "S", &Cli::s, kPlain, 1},
    {"--spacing", "TICKS", &Cli::spacing, kPlain},
    {"--gc-fault", "", &Cli::gc_fault, kPlain},
    {"--pd", "fig5|uniform|TEXT", &Cli::pd, kPlain},
    {"--benign", "", &Cli::benign, kScenario},
    {"--epochs", "N", &Cli::epochs, kGuided, 1},
    {"--epoch-sessions", "K", &Cli::epoch_sessions, kGuided, 1},
    {"--corpus", "FILE", &Cli::corpus, kGuided},
    {"--runs", "R", &Cli::runs, kPlain | kScenario | kFleet, 1},
    {"--jobs", "J", &Cli::jobs, kRunModes},
    {"--seed", "SEED", &Cli::seed, kRunModes},
    {"--export-corpus", "FILE", &Cli::export_path, kScenario | kFleet},
    {"--status", "", &Cli::status, kFleet},
    {"--metrics", "", &Cli::metrics, kRunModes},
    {"--trace", "FILE", &Cli::trace, kRunModes},
};

/// Socket polling cadence: 1 ms sleeps, bounded at ~10 minutes of
/// continuous idling before a coordinator or halt concludes its peers
/// are gone (smoke runs finish in seconds; a wedged fleet must still
/// exit).  The shard deadline re-issues an assignment quiet for ~1
/// minute of idle polls — a worker process died mid-shard.
constexpr std::uint64_t kFleetIdleSleepUs = 1000;
constexpr std::uint64_t kFleetPollLimit = 600'000;
constexpr std::uint64_t kFleetShardDeadline = 60'000;

/// The last lines of every run mode: --metrics, then --trace, which
/// drains the process TraceRecorder (its producers are joined by now),
/// stitches any shipped worker fragments onto it and writes the Chrome
/// trace document.  Returns 0, or 64 when the trace cannot be written.
int finish_run(const Cli& cli, const support::MetricsSnapshot& metrics,
               const char* process_name = "ptest",
               const std::vector<obs::NodeTrace>& node_traces = {}) {
  if (cli.metrics) std::printf("%s", metrics.render().c_str());
  if (cli.trace.empty()) return 0;
  std::ofstream out(cli.trace, std::ios::binary | std::ios::trunc);
  out << obs::stitch_chrome_trace(
      process_name, obs::TraceRecorder::instance().drain(), node_traces);
  out.flush();
  if (!out.good()) {
    std::fprintf(stderr, "--trace %s: write failed\n", cli.trace.c_str());
    return 64;
  }
  std::printf("trace written to %s (%zu worker fragment(s))\n",
              cli.trace.c_str(), node_traces.size());
  return 0;
}

const scenario::Scenario* find_scenario(const std::string& name) {
  const scenario::Scenario* entry =
      scenario::ScenarioRegistry::builtin().find(name);
  if (entry == nullptr) {
    std::fprintf(stderr, "unknown scenario '%s' (see --list-scenarios)\n",
                 name.c_str());
  }
  return entry;
}

/// The summary scenario and fleet runs share: header, signature list,
/// the optional corpus export, the oracle verdict, --metrics/--trace.
/// For the buggy plan the oracle must fire (or stay silent on clean
/// scenarios); for the benign counterpart it must stay silent.
int report_scenario_run(const Cli& cli, const scenario::Scenario& entry,
                        const std::string& label,
                        const core::CampaignResult& campaign,
                        const guided::CoverageCorpus* corpus,
                        const char* process_name,
                        const std::vector<obs::NodeTrace>& node_traces) {
  std::printf("scenario %s: %zu runs, %zu detections, %zu distinct "
              "signatures\n",
              label.c_str(), campaign.total_runs, campaign.total_detections,
              campaign.distinct_failures.size());
  for (const auto& [signature, report] : campaign.distinct_failures) {
    std::printf("  %s\n", signature.c_str());
  }
  if (corpus != nullptr) {
    if (const auto error = corpus->save(cli.export_path)) {
      std::fprintf(stderr, "%s\n", error->c_str());
      return 64;
    }
    std::printf("corpus exported to %s (%zu transitions, %zu span(s))\n",
                cli.export_path.c_str(), corpus->transitions().size(),
                corpus->spans().size());
  }
  const bool ok = cli.benign ? !entry.oracle.fired(campaign)
                             : entry.oracle.satisfied(campaign);
  std::printf("oracle [%s]: %s\n", entry.oracle.description.c_str(),
              ok ? "satisfied" : "NOT satisfied");
  if (const int code =
          finish_run(cli, campaign.metrics, process_name, node_traces)) {
    return code;
  }
  return ok ? 0 : 2;
}

int run_list(const Cli& cli) {
  using scenario::ScenarioRegistry;
  if (cli.markdown) {
    std::printf("| Scenario | Category | Difficulty | Expected bug | "
                "Oracle |\n");
    std::printf("|----------|----------|------------|--------------|"
                "--------|\n");
  } else {
    std::printf("%-22s %-10s %-7s %-15s %s\n", "scenario", "category",
                "diff", "expected bug", "summary");
  }
  for (const auto& s : ScenarioRegistry::builtin().all()) {
    const char* kind =
        s.expects_bug() ? core::to_string(*s.oracle.expected_kind) : "none";
    if (cli.markdown) {
      std::printf("| `%s` | %s | %s | %s | %s |\n", s.name.c_str(),
                  to_string(s.category), to_string(s.difficulty), kind,
                  s.oracle.description.c_str());
    } else {
      std::printf("%-22s %-10s %-7s %-15s %s\n", s.name.c_str(),
                  to_string(s.category), to_string(s.difficulty), kind,
                  s.summary.c_str());
    }
  }
  return 0;
}

int run_listen(const Cli& cli) {
  const auto port = static_cast<std::uint16_t>(*cli.listen);
  fleet::WorkerOptions options;
  options.idle_sleep_us = kFleetIdleSleepUs;
  // Persistent daemon: survives campaign-end frames and waits for the
  // next coordinator; only a shutdown frame (or days of total silence
  // under the default poll limit) ends it.
  options.persistent = true;
  options.node = "daemon-" + std::to_string(getpid());
  try {
    fleet::SocketTransport transport(fleet::SocketTransport::Listen{port});
    // Scripts parse this line to learn a kernel-assigned (--listen 0)
    // port, so it must flush before the serve loop blocks.
    std::printf("listening on port %u\n",
                static_cast<unsigned>(transport.port()));
    std::fflush(stdout);
    const auto served = fleet::Worker(options).serve(transport);
    if (!served.ok()) {
      std::fprintf(stderr, "%s\n", served.error().c_str());
      return 1;
    }
    std::printf("worker: served %zu shard(s)\n", served.value());
    return 0;
  } catch (const std::exception& error) {
    std::fprintf(stderr, "--listen %u: %s\n", static_cast<unsigned>(port),
                 error.what());
    return 64;
  }
}

int run_halt(const Cli& cli) {
  try {
    fleet::SocketTransport transport(
        fleet::SocketTransport::Connect{support::split(cli.connect, ',')});
    const std::string frame = fleet::encode_shutdown();
    const std::size_t peers = transport.peers();
    for (std::size_t i = 0; i < peers; ++i) {
      std::uint64_t polls = 0;
      while (!transport.send(frame)) {
        if (++polls > kFleetPollLimit) {
          std::fprintf(stderr, "--halt-fleet: shutdown send jammed\n");
          return 1;
        }
        usleep(kFleetIdleSleepUs);
      }
    }
    std::printf("halt broadcast to %zu daemon(s)\n", peers);
    return 0;
  } catch (const std::exception& error) {
    std::fprintf(stderr, "--halt-fleet: %s\n", error.what());
    return 64;
  }
}

int run_plain(const Cli& cli) {
  core::PtestConfig config;
  config.distributions = core::kFig5Distributions;
  if (!cli.op.empty()) {
    const auto op = pattern::merge_op_from_string(cli.op);
    if (!op) {
      std::fprintf(stderr, "unknown merge op\n");
      return 64;
    }
    config.op = *op;
  }
  config.n = cli.n.value_or(config.n);
  config.s = cli.s.value_or(config.s);
  config.seed = cli.seed.value_or(config.seed);
  config.command_spacing = cli.spacing.value_or(config.command_spacing);
  if (cli.gc_fault) {
    config.kernel.fault_plan.gc_corruption = true;
    config.kernel.fault_plan.churn_threshold = 24;
    config.kernel.fault_plan.live_block_threshold = 20;
    config.restart_at_accept = true;
  }
  if (cli.pd == "uniform") {
    config.distributions.clear();
  } else if (cli.pd != "fig5") {
    config.distributions = cli.pd;  // raw DistributionSpec::parse text
  }

  core::WorkloadSetup setup;
  if (cli.workload == "quicksort") {
    config.program_id = workload::kQuicksortProgramId;
    setup = workload::register_quicksort;
  } else if (cli.workload == "philosophers" ||
             cli.workload == "philosophers-fixed") {
    config.program_id = workload::kPhilosopherProgramId;
    config.n = std::min<std::size_t>(config.n, 3);
    const bool buggy = cli.workload == "philosophers";
    setup = [buggy](pcore::PcoreKernel& kernel) {
      (void)workload::register_philosophers(kernel, buggy, /*meals=*/500);
    };
  } else {
    std::fprintf(stderr, "unknown workload '%s'\n", cli.workload.c_str());
    return 64;
  }
  const std::uint64_t runs = cli.runs.value_or(1);

  if (cli.jobs) {
    // One arm carrying the configured (op, PD); the campaign machinery
    // shards the budget across the worker pool.  Nothing printed below
    // depends on the jobs value — that is the determinism contract.
    core::CampaignArm arm;
    arm.name = std::string(pattern::to_string(config.op)) + "/" +
               (cli.pd == "fig5" || cli.pd == "uniform" ? cli.pd : "custom");
    arm.op = config.op;
    arm.distributions = config.distributions;
    core::CampaignOptions options;
    options.budget = runs;
    options.jobs = *cli.jobs;
    core::Campaign campaign(config, {arm}, setup, options);
    const core::CampaignResult result = campaign.run();

    std::printf("campaign: %zu runs, 1 arm, seed=%llu\n", result.total_runs,
                static_cast<unsigned long long>(config.seed));
    const core::ArmStats& stats = result.arm_stats[0];
    std::printf("arm %-24s runs=%zu detections=%zu (rate %.3f)\n",
                arm.name.c_str(), stats.runs, stats.detections,
                stats.detection_rate());
    std::printf("distinct failure signatures: %zu\n",
                result.distinct_failures.size());
    for (const auto& entry : result.distinct_failures) {
      std::printf("  %s\n", entry.first.c_str());
    }
    if (const int code = finish_run(cli, result.metrics)) return code;
    return result.total_detections == 0 ? 0 : 2;
  }

  // Compile the fixed artifact (alphabet, regex, PFA, distributions)
  // once; each run only re-seeds sampling and the session.
  const auto wall_start = std::chrono::steady_clock::now();
  support::MetricsSnapshot metrics;
  const core::CompiledTestPlanPtr plan = core::compile(config);
  ++metrics.plan_compiles;
  int exit_code = 0;
  // One loop-lived sampling scratch: run 2 onward samples through warm
  // buffers (pfa::WalkScratch), and --metrics reports the reuse.
  pfa::WalkScratch scratch;
  for (std::uint64_t run = 0; run < runs; ++run) {
    const std::uint64_t seed = config.seed + run;
    const auto result = core::execute(*plan, seed, setup, scratch);
    core::add_session(metrics, result, config.dedup_patterns);
    std::printf("run %llu seed=%llu: %s (%zu commands, %llu ticks)\n",
                static_cast<unsigned long long>(run + 1),
                static_cast<unsigned long long>(seed),
                core::to_string(result.session.outcome),
                result.session.stats.commands_issued,
                static_cast<unsigned long long>(result.session.stats.ticks));
    if (result.session.report) {
      std::printf("\n%s\n",
                  result.session.report->render(plan->alphabet).c_str());
      exit_code = 2;
      break;
    }
  }
  metrics.worker_threads = 1;
  metrics.wall_ns = static_cast<std::uint64_t>(
      std::chrono::duration_cast<std::chrono::nanoseconds>(
          std::chrono::steady_clock::now() - wall_start)
          .count());
  if (const int code = finish_run(cli, metrics)) return code;
  return exit_code;
}

int run_scenario(const Cli& cli) {
  const scenario::Scenario* entry = find_scenario(cli.scenario);
  if (entry == nullptr) return 64;
  core::CampaignOptions options;
  options.budget = cli.runs.value_or(0);  // 0 = the scenario's default
  options.jobs = cli.jobs.value_or(1);
  const auto result = core::Campaign::run_scenario(cli.scenario, options,
                                                   cli.benign, cli.seed);
  if (!result.ok()) {
    std::fprintf(stderr, "%s\n", result.error().c_str());
    return 64;
  }
  const core::CampaignResult& campaign = result.value();
  std::optional<guided::CoverageCorpus> corpus;
  if (!cli.export_path.empty()) {
    // The whole budget as one slice: exactly what a fleet of any shard
    // count merges back to, which is what the CI gate diffs.
    const core::ShardSlice whole{0, 0, campaign.total_runs};
    auto sliced =
        fleet::shard_corpus(cli.scenario, whole, campaign, cli.seed);
    if (!sliced.ok()) {
      std::fprintf(stderr, "%s\n", sliced.error().c_str());
      return 64;
    }
    corpus = std::move(sliced.value());
  }
  return report_scenario_run(
      cli, *entry, cli.scenario + (cli.benign ? " (benign)" : ""), campaign,
      corpus ? &*corpus : nullptr, "ptest", {});
}

int run_guided(const Cli& cli) {
  const scenario::Scenario* entry = find_scenario(cli.scenario);
  if (entry == nullptr) return 64;
  guided::GuidedOptions options;
  options.max_epochs = cli.epochs.value_or(options.max_epochs);
  options.sessions_per_epoch =
      cli.epoch_sessions.value_or(options.sessions_per_epoch);
  options.jobs = cli.jobs.value_or(1);

  guided::CoverageCorpus corpus;
  if (!cli.corpus.empty() && std::ifstream(cli.corpus).good()) {
    auto loaded = guided::CoverageCorpus::load(cli.corpus);
    if (!loaded.ok()) {
      std::fprintf(stderr, "%s\n", loaded.error().c_str());
      return 64;
    }
    corpus = std::move(loaded.value());
    std::printf("corpus %s: resuming after %llu sessions, %zu transitions,"
                " %zu behaviors\n",
                cli.corpus.c_str(),
                static_cast<unsigned long long>(corpus.sessions()),
                corpus.transitions().size(), corpus.fingerprints().size());
  }

  guided::CoverageCorpus corpus_out;
  const auto result = guided::GuidedCampaign::run_scenario(
      cli.scenario, options, std::move(corpus), cli.seed, &corpus_out);
  if (!result.ok()) {
    std::fprintf(stderr, "%s\n", result.error().c_str());
    return 64;
  }
  const guided::GuidedResult& guided_result = result.value();

  std::printf("guided scenario %s: %zu sessions over %zu epochs\n",
              cli.scenario.c_str(), guided_result.campaign.total_runs,
              guided_result.epochs.size());
  for (const guided::GuidedEpoch& epoch : guided_result.epochs) {
    std::printf("  epoch %zu: %zu sessions, %zu detections, coverage %.3f "
                "(+%.3f), %llu new behaviors\n",
                epoch.index, epoch.sessions, epoch.detections,
                epoch.transition_coverage, epoch.coverage_gain,
                static_cast<unsigned long long>(epoch.new_fingerprints));
  }
  std::printf("stop reason: %s; refinements: %zu\n",
              to_string(guided_result.stop_reason), guided_result.refinements);
  for (const auto& [signature, report] :
       guided_result.campaign.distinct_failures) {
    std::printf("  %s\n", signature.c_str());
  }
  if (guided_result.sessions_to_first_bug) {
    std::printf("sessions to first bug: %zu\n",
                *guided_result.sessions_to_first_bug);
  }

  if (!cli.corpus.empty()) {
    if (const auto error = corpus_out.save(cli.corpus)) {
      std::fprintf(stderr, "%s\n", error->c_str());
      return 64;
    }
    std::printf("corpus saved to %s (%zu transitions, %zu behaviors)\n",
                cli.corpus.c_str(), corpus_out.transitions().size(),
                corpus_out.fingerprints().size());
  }
  if (const int code = finish_run(cli, guided_result.campaign.metrics)) {
    return code;
  }

  // Verdict: bug scenarios must reach the oracle; clean scenarios only
  // map coverage, so any completed run satisfies them.
  const bool ok = !entry->expects_bug() ||
                  guided_result.sessions_to_first_bug.has_value();
  std::printf("oracle: %s\n", ok ? "satisfied" : "NOT satisfied");
  return ok ? 0 : 2;
}

void print_fleet_status(const fleet::FleetStatus& status) {
  std::string nodes;
  for (const auto& [node, results] : status.node_results) {
    nodes += nodes.empty() ? " [" : " ";
    nodes += node + "=" + std::to_string(results);
  }
  if (!nodes.empty()) nodes += "]";
  std::fprintf(stderr,
               "fleet: %.1fs %zu/%zu shards done, %zu outstanding, "
               "%zu pending, %llu retries, %zu sessions%s\n",
               static_cast<double>(status.elapsed_ns) * 1e-9,
               status.shards_done, status.shards_total, status.outstanding,
               status.pending,
               static_cast<unsigned long long>(status.retries_issued),
               status.sessions_done, nodes.c_str());
}

int run_fleet(const Cli& cli) {
  const scenario::Scenario* entry = find_scenario(cli.scenario);
  if (entry == nullptr) return 64;
  fleet::CoordinatorOptions options;
  options.shards = cli.fleet.value_or(2);
  options.jobs = cli.jobs.value_or(1);
  options.budget = cli.runs.value_or(0);  // 0 = the scenario's default
  options.seed = cli.seed;
  options.trace = !cli.trace.empty();
  if (cli.status) {
    options.status_interval_ms = 1000;
    options.on_status = print_fleet_status;
  }
  const auto result =
      [&]() -> support::Result<fleet::FleetResult, std::string> {
    if (cli.connect.empty()) {
      return fleet::run_local_fleet(cli.scenario, options);
    }
    options.idle_sleep_us = kFleetIdleSleepUs;
    options.poll_limit = kFleetPollLimit;
    options.shard_deadline = kFleetShardDeadline;
    // The daemons are persistent, so the campaign ends with
    // campaign-end frames, not process shutdown — --halt-fleet is the
    // explicit way to end the daemons.
    options.drain = fleet::DrainMode::kCampaignEnd;
    try {
      fleet::SocketTransport transport(
          fleet::SocketTransport::Connect{support::split(cli.connect, ',')});
      return fleet::Coordinator(cli.scenario, options).run(transport);
    } catch (const std::exception& error) {
      return "--connect " + cli.connect + ": " + error.what();
    }
  }();
  if (!result.ok()) {
    std::fprintf(stderr, "%s\n", result.error().c_str());
    return 64;
  }
  const fleet::FleetResult& fleet_result = result.value();
  return report_scenario_run(
      cli, *entry,
      cli.scenario + " (fleet of " + std::to_string(options.shards) + ")",
      fleet_result.result,
      cli.export_path.empty() ? nullptr : &fleet_result.corpus, "coordinator",
      fleet_result.node_traces);
}

struct ModeRow {
  Mode mode;
  const char* name;
  const char* synopsis;  ///< the flags that select the mode
  int (*run)(const Cli&);
};

constexpr ModeRow kModes[] = {
    {kPlain, "plain", "", run_plain},
    {kScenario, "scenario", "--scenario NAME", run_scenario},
    {kGuided, "guided", "--scenario NAME --guided", run_guided},
    {kFleet, "fleet",
     "--scenario NAME --fleet N and/or --connect HOST:PORT[,...]", run_fleet},
    {kListen, "listen", "--listen PORT", run_listen},
    {kHalt, "halt", "--halt-fleet --connect HOST:PORT[,...]", run_halt},
    {kList, "list", "--list-scenarios", run_list},
};

/// Prints each mode's synopsis followed by the optional flags its
/// kFlags rows accept, so the text cannot drift from the check.
void usage() {
  std::fprintf(stderr, "usage: ptest_cli [FLAGS]  (each mode accepts only "
                       "the flags listed with it)\n");
  for (const ModeRow& mode : kModes) {
    const std::vector<std::string> selectors =
        support::split(mode.synopsis, ' ');
    std::string line = std::string("  ") + mode.name;
    line.resize(12, ' ');
    line += mode.synopsis;
    for (const Flag& flag : kFlags) {
      if ((flag.modes & mode.mode) == 0 ||
          std::find(selectors.begin(), selectors.end(), flag.name) !=
              selectors.end()) {
        continue;
      }
      std::string option = "[";
      option.append(flag.name);
      if (*flag.meta != '\0') option.append(" ").append(flag.meta);
      option += ']';
      if (line.size() + 1 + option.size() > 78) {
        std::fprintf(stderr, "%s\n", line.c_str());
        line.assign(12, ' ');
      } else if (line.size() > 12) {
        line += ' ';
      }
      line += option;
    }
    std::fprintf(stderr, "%s\n", line.c_str());
  }
}

/// Parses a numeric flag whole or not at all: a non-numeric, partly
/// numeric or out-of-range value is a usage error, never a silent 0.
std::uint64_t number(const Flag& flag, const char* text) {
  const char* const text_end = text + std::strlen(text);
  std::uint64_t value = 0;
  const auto [end, error] = std::from_chars(text, text_end, value);
  if (error == std::errc{} && end == text_end && value >= flag.lowest &&
      value <= flag.highest) {
    return value;
  }
  if (flag.highest != UINT64_MAX) {
    std::fprintf(stderr, "%s needs an integer in %llu..%llu, got '%s'\n",
                 flag.name, static_cast<unsigned long long>(flag.lowest),
                 static_cast<unsigned long long>(flag.highest), text);
  } else {
    std::fprintf(stderr, "%s needs a %s integer, got '%s'\n", flag.name,
                 flag.lowest > 0 ? "positive" : "non-negative", text);
  }
  std::exit(64);
}

/// The mode the mode-selecting flags pick.  A second selector never
/// wins silently: the chosen mode's kFlags check rejects it.
Mode resolve_mode(const Cli& cli) {
  if (cli.list) return kList;
  if (cli.listen) return kListen;
  if (cli.halt) return kHalt;
  if (cli.scenario.empty()) return kPlain;
  if (cli.guided) return kGuided;
  if (cli.fleet || !cli.connect.empty()) return kFleet;
  return kScenario;
}

}  // namespace

int main(int argc, char** argv) {
  Cli cli;
  std::vector<const Flag*> given;
  for (int i = 1; i < argc; ++i) {
    const std::string_view name = argv[i];
    if (name == "--help" || name == "-h") {
      usage();
      return 0;
    }
    const Flag* flag = nullptr;
    for (const Flag& row : kFlags) {
      if (row.name == name) flag = &row;
    }
    if (flag == nullptr) {
      usage();
      return 64;
    }
    given.push_back(flag);
    if (const auto* on = std::get_if<bool Cli::*>(&flag->field)) {
      cli.**on = true;
      continue;
    }
    if (i + 1 >= argc) {
      usage();
      return 64;
    }
    const char* value = argv[++i];
    if (const auto* text = std::get_if<std::string Cli::*>(&flag->field)) {
      cli.**text = value;
    } else {
      cli.*std::get<std::optional<std::uint64_t> Cli::*>(flag->field) =
          number(*flag, value);
    }
  }

  const Mode mode = resolve_mode(cli);
  const ModeRow& row =
      *std::find_if(std::begin(kModes), std::end(kModes),
                    [mode](const ModeRow& r) { return r.mode == mode; });
  for (const Flag* flag : given) {
    if ((flag->modes & mode) == 0) {
      std::fprintf(stderr, "%s is not accepted in %s mode (see --help)\n",
                   flag->name, row.name);
      return 64;
    }
  }
  // The cross-flag rules the mode table cannot express.
  if (cli.benign && !cli.export_path.empty()) {
    std::fprintf(stderr, "--export-corpus requires the buggy plan; drop "
                         "--benign\n");
    return 64;
  }
  if (cli.halt && cli.connect.empty()) {
    std::fprintf(stderr, "--halt-fleet requires --connect HOST:PORT[,...]\n");
    return 64;
  }
  const auto endpoints = support::split(cli.connect, ',');
  if (!cli.connect.empty() &&
      (endpoints.empty() ||
       std::any_of(endpoints.begin(), endpoints.end(), [](const auto& e) {
         return e.find(':') == std::string::npos;
       }))) {
    std::fprintf(stderr,
                 "--connect takes host:port[,host:port...], got '%s'\n",
                 cli.connect.c_str());
    return 64;
  }
  // Arm the recorder before any plan compiles so the first "compile"
  // span is captured too (only run modes accept --trace).
  if (!cli.trace.empty()) obs::TraceRecorder::instance().enable();
  return row.run(cli);
}
