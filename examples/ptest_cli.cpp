// ptest_cli — drive pTest from the command line.
//
//   ptest_cli [--workload quicksort|philosophers|philosophers-fixed]
//             [--op sequential|round-robin|random|cyclic|shuffle]
//             [--n N] [--s S] [--seed SEED] [--runs R] [--jobs J]
//             [--spacing TICKS] [--gc-fault] [--pd fig5|uniform|FILE-TEXT]
//             [--metrics]
//   ptest_cli --scenario NAME [--benign] [--runs R] [--jobs J]
//             [--seed SEED] [--metrics]
//   ptest_cli --scenario NAME --guided [--epochs N] [--epoch-sessions K]
//             [--corpus FILE] [--jobs J] [--seed SEED] [--metrics]
//   ptest_cli --scenario NAME --fleet N [--runs R] [--jobs J] [--seed SEED]
//             [--export-corpus FILE] [--metrics]
//   ptest_cli --serve DIR
//   ptest_cli --listen PORT
//   ptest_cli --scenario NAME --connect DIR|HOST:PORT[,HOST:PORT...]
//             [--fleet N] [--runs R] ...
//   ptest_cli --halt-fleet --connect HOST:PORT[,HOST:PORT...]
//   ptest_cli --list-scenarios [--markdown]
//
// Default mode runs R adaptive-test sessions and prints one line per run
// plus the first bug report found.  With --jobs J the R sessions instead
// run as a single-arm campaign on J worker threads (0 = one per hardware
// thread) and print a campaign summary; the summary is bit-identical for
// every J, so `--jobs 8` can be diffed against `--jobs 1` to check the
// parallel runner.  --metrics appends the support::MetricsSnapshot perf
// counters (sessions/sec, plan cache, dedup, worker idle time); the
// timing lines vary run-to-run, so diff-based determinism checks should
// omit the flag.  Exit code: 0 = all passed, 2 = bug detected.
//
// Scenario mode drives the ScenarioRegistry: --scenario runs the named
// catalog entry's campaign (its own plan, workload, and default budget
// unless --runs overrides) and reports the bug-oracle verdict — exit 0
// when the oracle is satisfied (bug found, or silence for clean
// scenarios), 2 when it is not.  --benign selects the scenario's benign
// counterpart, where satisfaction means the oracle stayed silent.
// --list-scenarios prints the catalog (--markdown emits the README
// table).  An unknown scenario name is a clean usage error (exit 64).
//
// Guided mode (--guided, scenario mode only) replaces the single-plan
// campaign with the coverage-guided epoch loop of src/ptest/guided/:
// run a batch, fold PFA coverage + trace fingerprints into the corpus,
// re-weight the distributions toward uncovered transitions, recompile,
// repeat — stopping on oracle fire, the epoch budget (--epochs), or a
// coverage-gain plateau.  --corpus FILE persists the corpus across
// invocations: an existing file seeds the run (resuming yesterday's
// campaign bit-deterministically), and the accumulated corpus is saved
// back on exit.  A corrupt or version-mismatched corpus file is a clean
// usage error; a missing one just starts cold.  Exit codes mirror
// scenario mode: 0 when the oracle fired (or the scenario is clean), 2
// when the budget ran out first.
//
// Fleet mode shards the scenario campaign across workers.  --fleet N
// alone runs coordinator and N workers as threads of this process (the
// determinism demo: the summary is bit-identical to the single-process
// run).  --serve DIR turns this process into a file-queue worker
// polling DIR's spool; --connect DIR (with --scenario) runs the
// coordinator against that spool, splitting the budget over --fleet N
// shards served by however many --serve processes share the directory.
// --listen PORT turns this process into a *persistent* TCP worker
// daemon (PORT 0 = kernel-assigned; the bound port is printed) that
// survives campaign boundaries: a --connect HOST:PORT[,HOST:PORT...]
// coordinator dials the daemons, runs one campaign, and ends it with a
// campaign-end broadcast that leaves the daemons up for the next
// coordinator.  --halt-fleet (with a socket --connect, no --scenario)
// broadcasts the process-shutdown frame instead, ending the daemons.
// --export-corpus FILE writes the campaign's session-span corpus — the
// merged corpus in fleet mode, the whole-budget equivalent in plain
// scenario mode — which is what the CI fleet gate diffs.  Exit codes
// mirror scenario mode; --serve/--listen exit 0 on a clean shutdown
// frame.
#include <unistd.h>

#include <cerrno>
#include <chrono>
#include <cstdio>
#include <cstring>
#include <exception>
#include <fstream>
#include <string>
#include <vector>

#include "ptest/core/adaptive_test.hpp"
#include "ptest/core/campaign.hpp"
#include "ptest/core/report.hpp"
#include "ptest/fleet/coordinator.hpp"
#include "ptest/fleet/socket_transport.hpp"
#include "ptest/fleet/transport.hpp"
#include "ptest/fleet/wire.hpp"
#include "ptest/fleet/worker.hpp"
#include "ptest/guided/campaign.hpp"
#include "ptest/obs/trace.hpp"
#include "ptest/scenario/registry.hpp"
#include "ptest/workload/philosophers.hpp"
#include "ptest/workload/quicksort.hpp"

namespace {

constexpr const char* kFig5 = ptest::core::kFig5Distributions;

void usage(const char* argv0) {
  std::fprintf(stderr,
               "usage: %s [--workload quicksort|philosophers|"
               "philosophers-fixed] [--op OP] [--n N] [--s S]\n"
               "          [--seed SEED] [--runs R] [--jobs J] "
               "[--spacing TICKS] [--gc-fault] [--pd fig5|uniform|TEXT]\n"
               "          [--metrics]\n"
               "       %s --scenario NAME [--benign] [--runs R] [--jobs J]"
               " [--seed SEED] [--metrics]\n"
               "       %s --scenario NAME --guided [--epochs N]"
               " [--epoch-sessions K] [--corpus FILE]\n"
               "          [--jobs J] [--seed SEED] [--metrics]\n"
               "       %s --scenario NAME --fleet N [--runs R] [--jobs J]"
               " [--seed SEED]\n"
               "          [--export-corpus FILE] [--metrics]\n"
               "       %s --serve DIR\n"
               "       %s --listen PORT\n"
               "       %s --scenario NAME --connect DIR|HOST:PORT[,...]"
               " [--fleet N]\n"
               "          [--runs R] [--jobs J] [--seed SEED]"
               " [--export-corpus FILE] [--metrics]\n"
               "       %s --halt-fleet --connect HOST:PORT[,...]\n"
               "       %s --list-scenarios [--markdown]\n"
               "\n"
               "  --trace FILE   write a Chrome trace-event JSON of the run\n"
               "                 (any run mode; fleet coordinators stitch the\n"
               "                 workers' shipped fragments into one timeline)\n"
               "  --status       print a fleet liveness line per second to\n"
               "                 stderr (--fleet/--connect runs only)\n",
               argv0, argv0, argv0, argv0, argv0, argv0, argv0, argv0,
               argv0);
}

/// Drains the process TraceRecorder (producers must already be joined —
/// every run mode satisfies this by the time it calls here), stitches
/// any shipped worker fragments onto it, and writes the Chrome trace
/// document.  Returns 0 on success, 64 on an unwritable file.
int write_trace_file(const std::string& path, const char* process_name,
                     const std::vector<ptest::obs::NodeTrace>& node_traces) {
  using namespace ptest;
  const std::string document = obs::stitch_chrome_trace(
      process_name, obs::TraceRecorder::instance().drain(), node_traces);
  std::ofstream out(path, std::ios::binary | std::ios::trunc);
  out << document;
  out.flush();
  if (!out.good()) {
    std::fprintf(stderr, "--trace %s: write failed\n", path.c_str());
    return 64;
  }
  std::printf("trace written to %s (%zu worker fragment(s))\n", path.c_str(),
              node_traces.size());
  return 0;
}

void print_fleet_status(const ptest::fleet::FleetStatus& status) {
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

int run_guided_mode(const std::string& name, std::size_t epochs,
                    std::size_t epoch_sessions, const std::string& corpus_path,
                    std::size_t jobs, std::optional<std::uint64_t> seed,
                    bool show_metrics, const std::string& trace_path) {
  using namespace ptest;
  guided::GuidedOptions options;
  if (epochs != 0) options.max_epochs = epochs;
  if (epoch_sessions != 0) options.sessions_per_epoch = epoch_sessions;
  options.jobs = jobs;

  guided::CoverageCorpus corpus;
  if (!corpus_path.empty()) {
    std::ifstream probe(corpus_path);
    if (probe.good()) {
      probe.close();
      auto loaded = guided::CoverageCorpus::load(corpus_path);
      if (!loaded.ok()) {
        std::fprintf(stderr, "%s\n", loaded.error().c_str());
        return 64;
      }
      corpus = std::move(loaded.value());
      std::printf("corpus %s: resuming after %llu sessions, %zu transitions,"
                  " %zu behaviors\n",
                  corpus_path.c_str(),
                  static_cast<unsigned long long>(corpus.sessions()),
                  corpus.transitions().size(), corpus.fingerprints().size());
    }
  }

  guided::CoverageCorpus corpus_out;
  const auto result =
      guided::GuidedCampaign::run_scenario(name, options, std::move(corpus),
                                           seed, &corpus_out);
  if (!result.ok()) {
    std::fprintf(stderr, "%s\n", result.error().c_str());
    return 64;
  }
  const guided::GuidedResult& guided_result = result.value();

  std::printf("guided scenario %s: %zu sessions over %zu epochs\n",
              name.c_str(), guided_result.campaign.total_runs,
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

  if (!corpus_path.empty()) {
    if (const auto error = corpus_out.save(corpus_path)) {
      std::fprintf(stderr, "%s\n", error->c_str());
      return 64;
    }
    std::printf("corpus saved to %s (%zu transitions, %zu behaviors)\n",
                corpus_path.c_str(), corpus_out.transitions().size(),
                corpus_out.fingerprints().size());
  }
  if (show_metrics) {
    std::printf("%s", guided_result.campaign.metrics.render().c_str());
  }
  if (!trace_path.empty()) {
    if (const int code = write_trace_file(trace_path, "ptest", {})) {
      return code;
    }
  }

  // Verdict: bug scenarios must reach the oracle; clean scenarios only
  // map coverage, so any completed run satisfies them.
  const scenario::Scenario* entry =
      scenario::ScenarioRegistry::builtin().find(name);
  const bool ok = entry == nullptr || !entry->expects_bug() ||
                  guided_result.sessions_to_first_bug.has_value();
  std::printf("oracle: %s\n", ok ? "satisfied" : "NOT satisfied");
  return ok ? 0 : 2;
}

void list_scenarios(bool markdown) {
  using ptest::scenario::ScenarioRegistry;
  if (markdown) {
    std::printf("| Scenario | Category | Difficulty | Expected bug | "
                "Oracle |\n");
    std::printf("|----------|----------|------------|--------------|"
                "--------|\n");
  } else {
    std::printf("%-22s %-10s %-7s %-15s %s\n", "scenario", "category",
                "diff", "expected bug", "summary");
  }
  for (const auto& s : ScenarioRegistry::builtin().all()) {
    const char* kind = s.expects_bug()
                           ? ptest::core::to_string(*s.oracle.expected_kind)
                           : "none";
    if (markdown) {
      std::printf("| `%s` | %s | %s | %s | %s |\n", s.name.c_str(),
                  to_string(s.category), to_string(s.difficulty), kind,
                  s.oracle.description.c_str());
    } else {
      std::printf("%-22s %-10s %-7s %-15s %s\n", s.name.c_str(),
                  to_string(s.category), to_string(s.difficulty), kind,
                  s.summary.c_str());
    }
  }
}

/// Saves `corpus` to `path`; 64 on failure, 0 on success.
int export_corpus(const ptest::guided::CoverageCorpus& corpus,
                  const std::string& path) {
  if (const auto error = corpus.save(path)) {
    std::fprintf(stderr, "%s\n", error->c_str());
    return 64;
  }
  std::printf("corpus exported to %s (%zu transitions, %zu span(s))\n",
              path.c_str(), corpus.transitions().size(),
              corpus.spans().size());
  return 0;
}

int run_scenario_mode(const std::string& name, bool benign,
                      std::uint64_t runs, std::size_t jobs,
                      std::optional<std::uint64_t> seed, bool show_metrics,
                      const std::string& export_path,
                      const std::string& trace_path) {
  using namespace ptest;
  const scenario::Scenario* entry =
      scenario::ScenarioRegistry::builtin().find(name);
  if (entry == nullptr) {
    std::fprintf(stderr, "unknown scenario '%s' (see --list-scenarios)\n",
                 name.c_str());
    return 64;
  }
  core::CampaignOptions options;
  options.budget = static_cast<std::size_t>(runs);  // 0 = scenario default
  options.jobs = jobs;
  const auto result =
      core::Campaign::run_scenario(name, options, benign, seed);
  if (!result.ok()) {
    std::fprintf(stderr, "%s\n", result.error().c_str());
    return 64;
  }
  const core::CampaignResult& campaign = result.value();
  std::printf("scenario %s%s: %zu runs, %zu detections, %zu distinct "
              "signatures\n",
              name.c_str(), benign ? " (benign)" : "", campaign.total_runs,
              campaign.total_detections, campaign.distinct_failures.size());
  for (const auto& [signature, report] : campaign.distinct_failures) {
    std::printf("  %s\n", signature.c_str());
  }
  if (!export_path.empty()) {
    // The whole budget as one slice: exactly what a fleet of any shard
    // count merges back to, which is what the CI gate diffs.
    const core::ShardSlice whole{0, 0, campaign.total_runs};
    auto corpus = fleet::shard_corpus(name, whole, campaign, seed);
    if (!corpus.ok()) {
      std::fprintf(stderr, "%s\n", corpus.error().c_str());
      return 64;
    }
    if (const int code = export_corpus(corpus.value(), export_path)) {
      return code;
    }
  }
  // For the buggy plan the oracle must fire (or stay silent on clean
  // scenarios); for the benign counterpart it must stay silent.
  const bool ok = benign ? !entry->oracle.fired(campaign)
                         : entry->oracle.satisfied(campaign);
  std::printf("oracle [%s]: %s\n", entry->oracle.description.c_str(),
              ok ? "satisfied" : "NOT satisfied");
  if (show_metrics) {
    std::printf("%s", campaign.metrics.render().c_str());
  }
  if (!trace_path.empty()) {
    if (const int code = write_trace_file(trace_path, "ptest", {})) {
      return code;
    }
  }
  return ok ? 0 : 2;
}

// File-queue / socket polling cadence: 1ms sleeps, bounded at ~10
// minutes of continuous idling before coordinator or worker concludes
// its peer is gone (smoke runs finish in seconds; a wedged fleet must
// still exit).  The shard deadline re-issues an assignment quiet for
// ~1 minute of idle polls — a worker process died mid-shard.
constexpr std::uint64_t kSpoolIdleSleepUs = 1000;
constexpr std::uint64_t kSpoolPollLimit = 600'000;
constexpr std::uint64_t kFleetShardDeadline = 60'000;

/// "--connect host:port,host:port" → the endpoint list (a ':' is what
/// distinguishes socket endpoints from a spool directory).
std::vector<std::string> split_endpoints(const std::string& csv) {
  std::vector<std::string> endpoints;
  std::size_t begin = 0;
  while (begin <= csv.size()) {
    const std::size_t comma = csv.find(',', begin);
    const std::size_t end = comma == std::string::npos ? csv.size() : comma;
    if (end > begin) endpoints.push_back(csv.substr(begin, end - begin));
    if (comma == std::string::npos) break;
    begin = comma + 1;
  }
  return endpoints;
}

int run_fleet_mode(const std::string& name, std::size_t shards,
                   const std::string& connect_to, std::uint64_t runs,
                   std::size_t jobs, std::optional<std::uint64_t> seed,
                   bool show_metrics, const std::string& export_path,
                   const std::string& trace_path, bool status) {
  using namespace ptest;
  const scenario::Scenario* entry =
      scenario::ScenarioRegistry::builtin().find(name);
  if (entry == nullptr) {
    std::fprintf(stderr, "unknown scenario '%s' (see --list-scenarios)\n",
                 name.c_str());
    return 64;
  }
  fleet::CoordinatorOptions options;
  options.shards = shards;
  options.jobs = jobs;
  options.budget = static_cast<std::size_t>(runs);  // 0 = scenario default
  options.seed = seed;
  options.trace = !trace_path.empty();
  if (status) {
    options.status_interval_ms = 1000;
    options.on_status = print_fleet_status;
  }
  const auto result =
      [&]() -> support::Result<fleet::FleetResult, std::string> {
    if (connect_to.empty()) return fleet::run_local_fleet(name, options);
    options.idle_sleep_us = kSpoolIdleSleepUs;
    options.poll_limit = kSpoolPollLimit;
    options.shard_deadline = kFleetShardDeadline;
    try {
      if (connect_to.find(':') != std::string::npos) {
        // Socket fleet: the daemons are persistent, so the campaign
        // ends with campaign-end frames, not process shutdown —
        // --halt-fleet is the explicit way to end the daemons.
        options.drain = fleet::DrainMode::kCampaignEnd;
        fleet::SocketTransport transport(
            fleet::SocketTransport::Connect{split_endpoints(connect_to)});
        return fleet::Coordinator(name, options).run(transport);
      }
      fleet::FileQueueTransport transport(
          connect_to, fleet::FileQueueTransport::Role::kCoordinator,
          "coordinator-" + std::to_string(getpid()));
      return fleet::Coordinator(name, options).run(transport);
    } catch (const std::exception& error) {
      return "--connect " + connect_to + ": " + error.what();
    }
  }();
  if (!result.ok()) {
    std::fprintf(stderr, "%s\n", result.error().c_str());
    return 64;
  }
  const core::CampaignResult& campaign = result.value().result;
  std::printf("scenario %s (fleet of %zu): %zu runs, %zu detections, "
              "%zu distinct signatures\n",
              name.c_str(), shards, campaign.total_runs,
              campaign.total_detections, campaign.distinct_failures.size());
  for (const auto& [signature, report] : campaign.distinct_failures) {
    std::printf("  %s\n", signature.c_str());
  }
  if (!export_path.empty()) {
    if (const int code = export_corpus(result.value().corpus, export_path)) {
      return code;
    }
  }
  const bool ok = entry->oracle.satisfied(campaign);
  std::printf("oracle [%s]: %s\n", entry->oracle.description.c_str(),
              ok ? "satisfied" : "NOT satisfied");
  if (show_metrics) {
    std::printf("%s", campaign.metrics.render().c_str());
  }
  if (!trace_path.empty()) {
    if (const int code = write_trace_file(trace_path, "coordinator",
                                          result.value().node_traces)) {
      return code;
    }
  }
  return ok ? 0 : 2;
}

int run_serve_mode(const std::string& dir) {
  using namespace ptest;
  fleet::WorkerOptions options;
  options.idle_sleep_us = kSpoolIdleSleepUs;
  options.poll_limit = kSpoolPollLimit;
  options.node = "worker-" + std::to_string(getpid());
  try {
    fleet::FileQueueTransport transport(
        dir, fleet::FileQueueTransport::Role::kWorker, options.node);
    const auto served = fleet::Worker(options).serve(transport);
    if (!served.ok()) {
      std::fprintf(stderr, "%s\n", served.error().c_str());
      return 1;
    }
    std::printf("worker: served %zu shard(s)\n", served.value());
    return 0;
  } catch (const std::exception& error) {
    std::fprintf(stderr, "--serve %s: %s\n", dir.c_str(), error.what());
    return 64;
  }
}

int run_listen_mode(std::uint16_t port) {
  using namespace ptest;
  fleet::WorkerOptions options;
  options.idle_sleep_us = kSpoolIdleSleepUs;
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

int run_halt_mode(const std::string& endpoints_csv) {
  using namespace ptest;
  try {
    fleet::SocketTransport transport(
        fleet::SocketTransport::Connect{split_endpoints(endpoints_csv)});
    const std::string frame = fleet::encode_shutdown();
    const std::size_t peers = transport.peers();
    for (std::size_t i = 0; i < peers; ++i) {
      std::uint64_t polls = 0;
      while (!transport.send(frame)) {
        if (++polls > kSpoolPollLimit) {
          std::fprintf(stderr, "--halt-fleet: shutdown send jammed\n");
          return 1;
        }
        usleep(kSpoolIdleSleepUs);
      }
    }
    std::printf("halt broadcast to %zu daemon(s)\n", peers);
    return 0;
  } catch (const std::exception& error) {
    std::fprintf(stderr, "--halt-fleet: %s\n", error.what());
    return 64;
  }
}

}  // namespace

int main(int argc, char** argv) {
  using namespace ptest;

  std::string workload_name = "quicksort";
  std::string pd = "fig5";
  core::PtestConfig config;
  config.distributions = kFig5;
  std::uint64_t runs = 1;
  bool runs_given = false;
  bool seed_given = false;
  bool campaign_mode = false;
  bool show_metrics = false;
  std::size_t jobs = 1;
  std::string scenario_name;
  bool benign = false;
  bool list_mode = false;
  bool markdown = false;
  bool guided_mode = false;
  std::size_t epochs = 0;          // 0 = guided default
  std::size_t epoch_sessions = 0;  // 0 = guided default
  std::string corpus_path;
  std::size_t fleet_shards = 0;  // 0 = not a fleet run
  std::string serve_dir;
  std::string connect_to;  // spool DIR or HOST:PORT[,HOST:PORT...]
  bool listen_given = false;
  std::uint16_t listen_port = 0;
  bool halt_fleet = false;
  std::string export_path;
  std::string trace_path;
  bool status = false;
  // First plan-shaping flag seen; scenarios carry their own plan, so
  // these are rejected in scenario mode rather than silently ignored.
  std::string plan_flag;

  for (int i = 1; i < argc; ++i) {
    const std::string flag = argv[i];
    if (flag == "--workload" || flag == "--op" || flag == "--n" ||
        flag == "--s" || flag == "--spacing" || flag == "--gc-fault" ||
        flag == "--pd") {
      if (plan_flag.empty()) plan_flag = flag;
    }
    const auto value = [&]() -> const char* {
      if (i + 1 >= argc) {
        usage(argv[0]);
        std::exit(64);
      }
      return argv[++i];
    };
    // Numeric flags parse whole or not at all: a non-numeric, partly
    // numeric or out-of-range value is a usage error, never a silent 0.
    // `lowest` is 1 for flags where 0 is meaningless (for budget flags 0
    // doubles internally as "not given").
    const auto number = [&](const char* text,
                            unsigned long long lowest) -> std::uint64_t {
      char* end = nullptr;
      errno = 0;
      const unsigned long long parsed = std::strtoull(text, &end, 10);
      if (*text < '0' || *text > '9' || *end != '\0' || errno == ERANGE ||
          parsed < lowest) {
        std::fprintf(stderr, "%s needs a %s integer, got '%s'\n",
                     flag.c_str(), lowest > 0 ? "positive" : "non-negative",
                     text);
        std::exit(64);
      }
      return parsed;
    };
    const auto positive = [&](const char* text) -> std::size_t {
      return static_cast<std::size_t>(number(text, 1));
    };
    if (flag == "--workload") {
      workload_name = value();
    } else if (flag == "--scenario") {
      scenario_name = value();
    } else if (flag == "--benign") {
      benign = true;
    } else if (flag == "--list-scenarios") {
      list_mode = true;
    } else if (flag == "--markdown") {
      markdown = true;
    } else if (flag == "--guided") {
      guided_mode = true;
    } else if (flag == "--epochs") {
      epochs = positive(value());
    } else if (flag == "--epoch-sessions") {
      epoch_sessions = positive(value());
    } else if (flag == "--corpus") {
      corpus_path = value();
    } else if (flag == "--fleet") {
      fleet_shards = positive(value());
    } else if (flag == "--serve") {
      serve_dir = value();
    } else if (flag == "--listen") {
      // 0 is meaningful here (kernel-assigned port), so this does not
      // go through positive().
      const char* text = value();
      char* end = nullptr;
      const unsigned long long parsed = std::strtoull(text, &end, 10);
      if (*text < '0' || *text > '9' || end == text || *end != '\0' ||
          parsed > 65535) {
        std::fprintf(stderr, "--listen needs a port (0-65535), got '%s'\n",
                     text);
        return 64;
      }
      listen_given = true;
      listen_port = static_cast<std::uint16_t>(parsed);
    } else if (flag == "--halt-fleet") {
      halt_fleet = true;
    } else if (flag == "--connect") {
      connect_to = value();
    } else if (flag == "--export-corpus") {
      export_path = value();
    } else if (flag == "--trace") {
      trace_path = value();
    } else if (flag == "--status") {
      status = true;
    } else if (flag == "--op") {
      const auto op = pattern::merge_op_from_string(value());
      if (!op) {
        std::fprintf(stderr, "unknown merge op\n");
        return 64;
      }
      config.op = *op;
    } else if (flag == "--n") {
      config.n = positive(value());
    } else if (flag == "--s") {
      config.s = positive(value());
    } else if (flag == "--seed") {
      config.seed = number(value(), 0);
      seed_given = true;
    } else if (flag == "--runs") {
      runs = positive(value());
      runs_given = true;
    } else if (flag == "--jobs") {
      campaign_mode = true;
      jobs = static_cast<std::size_t>(number(value(), 0));
    } else if (flag == "--spacing") {
      config.command_spacing = number(value(), 0);
    } else if (flag == "--gc-fault") {
      config.kernel.fault_plan.gc_corruption = true;
      config.kernel.fault_plan.churn_threshold = 24;
      config.kernel.fault_plan.live_block_threshold = 20;
      config.restart_at_accept = true;
    } else if (flag == "--pd") {
      pd = value();
    } else if (flag == "--metrics") {
      show_metrics = true;
    } else if (flag == "--help" || flag == "-h") {
      usage(argv[0]);
      return 0;
    } else {
      usage(argv[0]);
      return 64;
    }
  }

  // Mode-flag hygiene, both directions: scenario-only flags are rejected
  // outside their mode just like plan flags are rejected inside it — a
  // silently ignored flag reads as a run that honoured it.
  if (markdown && !list_mode) {
    std::fprintf(stderr, "--markdown requires --list-scenarios\n");
    return 64;
  }
  if (!trace_path.empty() &&
      (list_mode || !serve_dir.empty() || listen_given || halt_fleet)) {
    std::fprintf(stderr, "--trace records a run: it conflicts with "
                         "--serve/--listen/--halt-fleet/--list-scenarios\n");
    return 64;
  }
  if (status && (halt_fleet || (fleet_shards == 0 && connect_to.empty()))) {
    std::fprintf(stderr, "--status reports fleet liveness: it requires a "
                         "--fleet/--connect coordinator run\n");
    return 64;
  }
  if (benign && scenario_name.empty()) {
    std::fprintf(stderr, "--benign requires --scenario\n");
    return 64;
  }
  if ((guided_mode || epochs != 0 || epoch_sessions != 0 ||
       !corpus_path.empty()) &&
      scenario_name.empty()) {
    std::fprintf(stderr, "--guided/--epochs/--epoch-sessions/--corpus "
                         "require --scenario\n");
    return 64;
  }
  if (!guided_mode && (epochs != 0 || epoch_sessions != 0 ||
                       !corpus_path.empty())) {
    std::fprintf(stderr,
                 "--epochs/--epoch-sessions/--corpus require --guided\n");
    return 64;
  }
  if (guided_mode && benign) {
    std::fprintf(stderr, "--guided drives the buggy plan only (the corpus "
                         "would mix plans); drop --benign\n");
    return 64;
  }
  if (guided_mode && runs_given) {
    std::fprintf(stderr, "--runs conflicts with --guided (use --epochs and "
                         "--epoch-sessions)\n");
    return 64;
  }
  if (!serve_dir.empty() &&
      (!scenario_name.empty() || !connect_to.empty() || fleet_shards != 0 ||
       guided_mode || list_mode || !export_path.empty() || benign ||
       runs_given || campaign_mode || !plan_flag.empty() || listen_given ||
       halt_fleet)) {
    std::fprintf(stderr, "--serve takes no other flags: the coordinator "
                         "decides what this worker runs\n");
    return 64;
  }
  if (listen_given &&
      (!scenario_name.empty() || !connect_to.empty() || fleet_shards != 0 ||
       guided_mode || list_mode || !export_path.empty() || benign ||
       runs_given || campaign_mode || !plan_flag.empty() || halt_fleet)) {
    std::fprintf(stderr, "--listen takes no other flags: the coordinator "
                         "decides what this daemon runs\n");
    return 64;
  }
  if (halt_fleet) {
    if (connect_to.find(':') == std::string::npos) {
      std::fprintf(stderr,
                   "--halt-fleet requires --connect HOST:PORT[,...]\n");
      return 64;
    }
    if (!scenario_name.empty() || fleet_shards != 0 || guided_mode ||
        list_mode || !export_path.empty() || benign || runs_given ||
        campaign_mode || !plan_flag.empty()) {
      std::fprintf(stderr, "--halt-fleet takes only --connect: it ends the "
                           "daemons, it runs nothing\n");
      return 64;
    }
  }
  if (!halt_fleet && (fleet_shards != 0 || !connect_to.empty()) &&
      scenario_name.empty()) {
    std::fprintf(stderr, "--fleet/--connect require --scenario\n");
    return 64;
  }
  if ((fleet_shards != 0 || !connect_to.empty()) && (guided_mode || benign)) {
    std::fprintf(stderr, "--fleet/--connect shard the buggy plan only; "
                         "drop --guided/--benign\n");
    return 64;
  }
  if (!export_path.empty() && (scenario_name.empty() || guided_mode ||
                               benign)) {
    std::fprintf(stderr, "--export-corpus requires a buggy-plan --scenario "
                         "run (plain or fleet)\n");
    return 64;
  }
  if (!serve_dir.empty()) {
    return run_serve_mode(serve_dir);
  }
  if (listen_given) {
    return run_listen_mode(listen_port);
  }
  if (halt_fleet) {
    return run_halt_mode(connect_to);
  }
  if (list_mode) {
    list_scenarios(markdown);
    return 0;
  }
  // Every remaining mode is a run; arm the recorder before any plan
  // compiles so the first "compile" span is captured too.
  if (!trace_path.empty()) obs::TraceRecorder::instance().enable();
  if (!scenario_name.empty()) {
    if (!plan_flag.empty()) {
      std::fprintf(stderr,
                   "%s conflicts with --scenario: the scenario carries its "
                   "own plan (use --runs/--jobs/--seed/--benign)\n",
                   plan_flag.c_str());
      return 64;
    }
    if (guided_mode) {
      return run_guided_mode(
          scenario_name, epochs, epoch_sessions, corpus_path, jobs,
          seed_given ? std::optional<std::uint64_t>(config.seed)
                     : std::nullopt,
          show_metrics, trace_path);
    }
    if (fleet_shards != 0 || !connect_to.empty()) {
      return run_fleet_mode(
          scenario_name, fleet_shards == 0 ? 2 : fleet_shards, connect_to,
          runs_given ? runs : 0, jobs,
          seed_given ? std::optional<std::uint64_t>(config.seed)
                     : std::nullopt,
          show_metrics, export_path, trace_path, status);
    }
    return run_scenario_mode(
        scenario_name, benign, runs_given ? runs : 0, jobs,
        seed_given ? std::optional<std::uint64_t>(config.seed) : std::nullopt,
        show_metrics, export_path, trace_path);
  }

  if (pd == "uniform") {
    config.distributions.clear();
  } else if (pd != "fig5") {
    config.distributions = pd;  // raw DistributionSpec::parse text
  }

  core::WorkloadSetup setup;
  if (workload_name == "quicksort") {
    config.program_id = workload::kQuicksortProgramId;
    setup = workload::register_quicksort;
  } else if (workload_name == "philosophers" ||
             workload_name == "philosophers-fixed") {
    config.program_id = workload::kPhilosopherProgramId;
    config.n = std::min<std::size_t>(config.n, 3);
    const bool buggy = workload_name == "philosophers";
    setup = [buggy](pcore::PcoreKernel& kernel) {
      (void)workload::register_philosophers(kernel, buggy, /*meals=*/500);
    };
  } else {
    std::fprintf(stderr, "unknown workload '%s'\n", workload_name.c_str());
    return 64;
  }

  if (campaign_mode) {
    // One arm carrying the configured (op, PD); the campaign machinery
    // shards the budget across the worker pool.  Nothing printed below
    // depends on the jobs value — that is the determinism contract.
    core::CampaignArm arm;
    arm.name = std::string(pattern::to_string(config.op)) + "/" +
               (pd == "fig5" || pd == "uniform" ? pd : "custom");
    arm.op = config.op;
    arm.distributions = config.distributions;
    core::CampaignOptions options;
    options.budget = runs;
    options.jobs = jobs;
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
    if (show_metrics) {
      std::printf("%s", result.metrics.render().c_str());
    }
    if (!trace_path.empty()) {
      if (const int code = write_trace_file(trace_path, "ptest", {})) {
        return code;
      }
    }
    return result.total_detections == 0 ? 0 : 2;
  }

  // Compile the fixed artifact (alphabet, regex, PFA, distributions)
  // once; each run only re-seeds sampling and the session.
  const auto wall_start = std::chrono::steady_clock::now();
  support::MetricsSnapshot metrics;
  const core::CompiledTestPlanPtr plan = core::compile(config);
  ++metrics.plan_compiles;
  const std::uint64_t base_seed = config.seed;
  int exit_code = 0;
  // One loop-lived sampling scratch: run 2 onward samples through warm
  // buffers (pfa::WalkScratch), and --metrics reports the reuse.
  pfa::WalkScratch scratch;
  for (std::uint64_t run = 0; run < runs; ++run) {
    const std::uint64_t seed = base_seed + run;
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
  if (show_metrics) {
    metrics.worker_threads = 1;
    metrics.wall_ns = static_cast<std::uint64_t>(
        std::chrono::duration_cast<std::chrono::nanoseconds>(
            std::chrono::steady_clock::now() - wall_start)
            .count());
    std::printf("%s", metrics.render().c_str());
  }
  if (!trace_path.empty()) {
    if (const int code = write_trace_file(trace_path, "ptest", {})) {
      return code;
    }
  }
  return exit_code;
}
