// Campaign benchmark program.
//
// Untraced mode (--trace 0) times whole single-arm scenario campaigns
// through core::Campaign::run_scenario and reports end-to-end metrics:
// sessions/s, CPU per session, peak RSS, and set-up time.
//
// Traced mode (--trace 1) drives the same sessions through the public
// layer calls (compile, generate_and_merge, TestSession build and run,
// CoverageTracker::observe), records one span per call in memory, and on
// a deterministic 1-in-N subset rebuilds the session from its public
// parts with every device wrapped in a timing sim::Device, which gives
// the per-device split without per-tick spans.
//
// Either mode checks its outputs: every campaign of one (scenario, seed)
// must reproduce the same digest (sessions, ticks, detections, distinct
// signatures, oracle verdict), traced totals must equal the campaign's,
// and every replica session must match core::execute.  The last line of
// standard output is one JSON object; perfbench/run.py builds this
// program, runs it, and checks the digests against golden.json.
//
//   campaign_bench --workload NAME --seed N --seconds S --trace 0|1
//   campaign_bench --workload NAME --seed N --digest
#include <time.h>

#include <algorithm>
#include <array>
#include <chrono>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <deque>
#include <fstream>
#include <iostream>
#include <memory>
#include <optional>
#include <sstream>
#include <string>
#include <unordered_map>
#include <vector>

#include "ptest/bridge/committee.hpp"
#include "ptest/core/adaptive_test.hpp"
#include "ptest/core/bug_detector.hpp"
#include "ptest/core/campaign.hpp"
#include "ptest/core/state_record.hpp"
#include "ptest/master/committer.hpp"
#include "ptest/master/scheduler.hpp"
#include "ptest/pattern/coverage.hpp"
#include "ptest/scenario/registry.hpp"
#include "ptest/support/fnv.hpp"
#include "ptest/support/rng.hpp"

namespace {

using namespace ptest;

// --- workloads ---------------------------------------------------------------

struct ScenarioRun {
  const char* name;
  std::size_t budget;  // sessions per timed campaign
};

struct Workload {
  const char* name;
  std::vector<ScenarioRun> scenarios;
  std::size_t jobs;
};

// Budgets put each campaign at roughly 0.1 s on a 4-vCPU Xeon, so a 10 s
// run measures about fifty rounds (one campaign per scenario).
const std::vector<Workload>& workloads() {
  static const std::vector<Workload> table = {
      {"short-crash", {{"aba-stack", 6000}, {"queue-order", 6000}}, 1},
      {"long-hang", {{"barrier-reuse", 400}, {"fig1-livelock", 400}}, 1},
      {"detector-heavy",
       {{"philosophers-deadlock", 640}, {"writer-starvation", 900}},
       1},
      {"parallel-short", {{"aba-stack", 6000}, {"queue-order", 6000}}, 2},
  };
  return table;
}

/// Campaign seeds per scenario: round r runs seed slot r % kSeedCycle, so
/// a run averages over several campaigns instead of one seed's luck, and
/// every slot recurs to be checked against its first result.  A run
/// measures at least kSeedCycle rounds.
constexpr std::size_t kSeedCycle = 8;
/// Set-up runs before the first round and again after every
/// kSetupEvery-th round.  Host slow phases last about as long as a few
/// set-ups, so repeats spread over the run give a steadier median than
/// back-to-back ones.
constexpr std::size_t kSetupEvery = 4;
/// Warm-up campaigns run budget / kWarmupDivisor sessions.
constexpr std::size_t kWarmupDivisor = 4;
/// Traced runs rebuild every kReplicaEvery-th session with timed devices.
constexpr std::size_t kReplicaEvery = 16;
/// Compiles timed per scenario for pfa.compile_us.
constexpr int kCompileSamples = 16;
/// Share of --seconds the traced session loop may use; reference
/// campaigns and compile timing take the rest.
constexpr double kTracedLoopShare = 0.6;
/// Spans the traced loop keeps in memory at most (24 bytes each).
constexpr std::size_t kMaxSpans = std::size_t{1} << 21;
/// Steps of the host-speed reference run before each timed round, and
/// the fast decile of its time on a quiet 4-vCPU Xeon, to which the
/// untraced figures are scaled.
constexpr int kReferenceSteps = 50000;
constexpr double kReferenceNominalNs = 750e3;

// --- host measurements -------------------------------------------------------

std::int64_t now_ns() {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

std::int64_t cpu_ns() {
  timespec ts{};
  clock_gettime(CLOCK_PROCESS_CPUTIME_ID, &ts);
  return static_cast<std::int64_t>(ts.tv_sec) * 1'000'000'000 + ts.tv_nsec;
}

/// Peak resident set of this process image.  VmHWM, not getrusage's
/// ru_maxrss: the latter carries over the parent's peak across exec.
double peak_rss_mb() {
  std::ifstream status("/proc/self/status");
  std::string line;
  while (std::getline(status, line)) {
    if (line.rfind("VmHWM:", 0) == 0) {
      return std::strtod(line.c_str() + 6, nullptr) / 1024.0;  // kB
    }
  }
  throw std::runtime_error("VmHWM missing from /proc/self/status");
}

/// Times a fixed piece of work that stands for the host's speed at the
/// moment: heap allocation, virtual calls, hashing, a deque and string
/// building, the operations a session spends its time on.  It is the
/// benchmark's own code, so no change to the program moves it.
double reference_ns() {
  struct Step {
    virtual ~Step() = default;
    virtual std::uint64_t apply(std::uint64_t x) const = 0;
  };
  struct Mix final : Step {
    std::uint64_t apply(std::uint64_t x) const override {
      return x * 6364136223846793005ULL + 1442695040888963407ULL;
    }
  };
  struct Rotate final : Step {
    std::uint64_t apply(std::uint64_t x) const override {
      return (x << 13 | x >> 51) ^ 0x9e3779b97f4a7c15ULL;
    }
  };
  const std::int64_t start = now_ns();
  std::uint64_t x = 1;
  std::unordered_map<std::uint64_t, std::uint64_t> table;
  std::deque<std::uint64_t> queue;
  std::vector<std::unique_ptr<Step>> steps;
  std::string text;
  for (int i = 0; i < kReferenceSteps; ++i) {
    if (i % 64 == 0) {
      steps.clear();
      for (int s = 0; s < 8; ++s) {
        if (((x >> s) & 1) != 0) {
          steps.push_back(std::make_unique<Mix>());
        } else {
          steps.push_back(std::make_unique<Rotate>());
        }
      }
    }
    x = steps[static_cast<std::size_t>(i) % steps.size()]->apply(x);
    table[x & 1023] += x;
    queue.push_back(x);
    if (queue.size() > 32) queue.pop_front();
    if (i % 16 == 0) {
      text += std::to_string(x);
      if (text.size() > 256) text.clear();
    }
  }
  const auto elapsed = static_cast<double>(now_ns() - start);
  if (table.size() + text.size() == 1) std::fputc(' ', stderr);
  return elapsed;
}

double median(std::vector<double> values) {
  if (values.empty()) return 0.0;
  std::sort(values.begin(), values.end());
  const std::size_t mid = values.size() / 2;
  return values.size() % 2 == 1 ? values[mid]
                                 : (values[mid - 1] + values[mid]) / 2.0;
}

/// Nearest-rank percentile of `values` (p in [0, 1]).
double percentile(std::vector<double>& values, double p) {
  if (values.empty()) return 0.0;
  const auto rank = static_cast<std::size_t>(
      p * static_cast<double>(values.size() - 1) + 0.5);
  std::nth_element(values.begin(), values.begin() + rank, values.end());
  return values[rank];
}

double ratio(double num, double den) { return den == 0.0 ? 0.0 : num / den; }

// --- correctness digest ------------------------------------------------------

/// The deterministic output of one campaign.
struct Digest {
  std::uint64_t sessions = 0;
  std::uint64_t ticks = 0;
  std::uint64_t detections = 0;
  std::vector<std::string> signatures;  // distinct, sorted
  bool oracle = false;

  bool operator==(const Digest&) const = default;
};

Digest digest_of(const core::CampaignResult& result,
                 const scenario::Scenario& entry) {
  Digest digest;
  digest.sessions = result.total_runs;
  digest.ticks = result.metrics.ticks;
  digest.detections = result.total_detections;
  for (const auto& [signature, report] : result.distinct_failures) {
    digest.signatures.push_back(signature);
  }
  digest.oracle = entry.oracle.satisfied(result);
  return digest;
}

/// One scenario of the workload, resolved against the registry.
struct Target {
  const scenario::Scenario* entry = nullptr;
  std::size_t budget = 0;
  /// Campaign seeds, derived from --seed, and each slot's first digest.
  std::array<std::uint64_t, kSeedCycle> seeds{};
  std::array<std::optional<Digest>, kSeedCycle> references;
};

std::vector<Target> resolve(const Workload& workload, std::uint64_t seed) {
  std::vector<Target> targets;
  for (const ScenarioRun& run : workload.scenarios) {
    Target target;
    target.entry = scenario::ScenarioRegistry::builtin().find(run.name);
    if (target.entry == nullptr) {
      throw std::runtime_error(std::string("unknown scenario ") + run.name);
    }
    target.budget = run.budget;
    // Keyed by name, not position, so a scenario gets the same campaign
    // seeds in every workload that runs it.
    const std::uint64_t base = support::derive_seed(
        seed, support::fnv1a_bytes(support::kFnvOffset, run.name));
    for (std::size_t slot = 0; slot < kSeedCycle; ++slot) {
      target.seeds[slot] = support::derive_seed(base, slot);
    }
    targets.push_back(std::move(target));
  }
  return targets;
}

core::CampaignResult run_campaign(const Target& target, std::size_t slot,
                                  std::size_t budget, std::size_t jobs) {
  core::CampaignOptions options;
  options.budget = budget;
  options.jobs = jobs;
  auto result = core::Campaign::run_scenario(target.entry->name, options,
                                             false, target.seeds[slot]);
  if (!result) throw std::runtime_error(result.error());
  return std::move(result).value();
}

/// Records `digest` as the slot's reference, or compares against it.
bool check(Target& target, std::size_t slot, const Digest& digest,
           std::vector<std::string>& errors, const char* what) {
  std::optional<Digest>& reference = target.references[slot];
  if (!reference) {
    reference = digest;
    return true;
  }
  if (digest == *reference) return true;
  errors.push_back(target.entry->name + ": " + what + " with seed slot " +
                   std::to_string(slot) + " differs from its first campaign");
  return false;
}

// --- JSON output -------------------------------------------------------------

std::string quote(const std::string& text) {
  std::string out = "\"";
  for (const char c : text) {
    if (c == '"' || c == '\\') {
      out += '\\';
      out += c;
    } else if (static_cast<unsigned char>(c) < 0x20) {
      char buf[8];
      std::snprintf(buf, sizeof buf, "\\u%04x", c);
      out += buf;
    } else {
      out += c;
    }
  }
  return out + "\"";
}

struct Metric {
  std::string name;
  double value;
  const char* unit;
};

struct Output {
  std::size_t attempted = 0;
  std::size_t failed = 0;
  std::vector<std::string> errors;
  std::vector<Metric> metrics;
};

/// Prints the result line.  Each scenario's digest sums the campaigns of
/// its seed slots (oracle counts the campaigns whose oracle held); that
/// is what run.py compares with golden.json.
void print(const Output& out, const std::vector<Target>& targets,
           std::uint64_t seed) {
  std::ostringstream json;
  json.precision(12);
  json << "{\"correct\": " << (out.failed == 0 ? "true" : "false")
       << ", \"attempted\": " << out.attempted
       << ", \"failed\": " << out.failed << ", \"metrics\": {";
  for (std::size_t i = 0; i < out.metrics.size(); ++i) {
    const Metric& m = out.metrics[i];
    json << (i == 0 ? "" : ", ") << quote(m.name) << ": {\"value\": "
         << m.value << ", \"unit\": " << quote(m.unit) << "}";
  }
  json << "}, \"campaigns\": [";
  for (std::size_t i = 0; i < targets.size(); ++i) {
    const Target& t = targets[i];
    Digest sum;
    std::size_t campaigns = 0;
    std::size_t oracle = 0;
    for (const std::optional<Digest>& digest : t.references) {
      if (!digest) continue;
      ++campaigns;
      sum.sessions += digest->sessions;
      sum.ticks += digest->ticks;
      sum.detections += digest->detections;
      oracle += digest->oracle ? 1 : 0;
      sum.signatures.insert(sum.signatures.end(), digest->signatures.begin(),
                            digest->signatures.end());
    }
    std::sort(sum.signatures.begin(), sum.signatures.end());
    sum.signatures.erase(
        std::unique(sum.signatures.begin(), sum.signatures.end()),
        sum.signatures.end());
    json << (i == 0 ? "" : ", ") << "{\"scenario\": " << quote(t.entry->name)
         << ", \"seed\": " << seed << ", \"budget\": " << t.budget
         << ", \"campaigns\": " << campaigns
         << ", \"sessions\": " << sum.sessions
         << ", \"ticks\": " << sum.ticks
         << ", \"detections\": " << sum.detections
         << ", \"oracle\": " << oracle << ", \"signatures\": [";
    for (std::size_t s = 0; s < sum.signatures.size(); ++s) {
      json << (s == 0 ? "" : ", ") << quote(sum.signatures[s]);
    }
    json << "]}";
  }
  json << "], \"errors\": [";
  for (std::size_t i = 0; i < out.errors.size(); ++i) {
    json << (i == 0 ? "" : ", ") << quote(out.errors[i]);
  }
  json << "]}";
  std::cout << json.str() << std::endl;
}

// --- untraced run ------------------------------------------------------------

Output run_untraced(const Workload& workload, std::vector<Target>& targets,
                    double seconds) {
  Output out;

  // Set-up: registry lookup, compile of each plan, one warm-up campaign
  // per scenario.  Never inside a timed round.
  std::vector<double> setup_s;
  const auto set_up = [&] {
    const std::int64_t start = now_ns();
    for (const Target& target : targets) {
      const scenario::Scenario* entry =
          scenario::ScenarioRegistry::builtin().find(target.entry->name);
      const core::CompiledTestPlanPtr plan = core::compile(entry->config);
      (void)run_campaign(target, 0, target.budget / kWarmupDivisor,
                         workload.jobs);
    }
    setup_s.push_back(static_cast<double>(now_ns() - start) * 1e-9);
  };
  set_up();

  // Timed rounds: one campaign per scenario, back to back, until the
  // time is up.  Each round yields one wall and one CPU sample for its
  // seed slot.  The run keeps each slot's fast decile and divides the
  // slots' sessions by their summed times.  On a shared host co-tenants
  // only ever slow a round down, so the fast decile ignores slow phases
  // that cover most of the run, where a median would follow them.
  // Taking it per slot keeps the same mix of campaigns, and so the same
  // work, behind every figure.  Slow phases that cover a whole run are
  // offset by the host-speed reference timed before every round: the
  // times are scaled to a host on which its fast decile is
  // kReferenceNominalNs.
  std::array<std::vector<double>, kSeedCycle> slot_wall_ns;
  std::array<std::vector<double>, kSeedCycle> slot_cpu_ns;
  std::array<std::uint64_t, kSeedCycle> slot_sessions{};
  std::vector<double> reference;
  const std::int64_t deadline =
      now_ns() + static_cast<std::int64_t>(seconds * 1e9);
  for (std::size_t round = 0; round < kSeedCycle || now_ns() < deadline;
       ++round) {
    const std::size_t slot = round % kSeedCycle;
    reference.push_back(reference_ns());
    std::int64_t wall = 0;
    std::int64_t cpu = 0;
    std::uint64_t sessions = 0;
    for (Target& target : targets) {
      ++out.attempted;
      const std::int64_t wall_start = now_ns();
      const std::int64_t cpu_start = cpu_ns();
      core::CampaignResult result;
      try {
        result = run_campaign(target, slot, target.budget, workload.jobs);
      } catch (const std::exception& error) {
        ++out.failed;
        out.errors.push_back(target.entry->name + ": " + error.what());
        continue;
      }
      cpu += cpu_ns() - cpu_start;
      wall += now_ns() - wall_start;
      sessions += result.total_runs;
      if (!check(target, slot, digest_of(result, *target.entry), out.errors,
                 "timed campaign")) {
        ++out.failed;
      }
    }
    if (sessions == 0) break;
    slot_wall_ns[slot].push_back(static_cast<double>(wall));
    slot_cpu_ns[slot].push_back(static_cast<double>(cpu));
    slot_sessions[slot] = sessions;
    if ((round + 1) % kSetupEvery == 0) set_up();
  }

  // Results must not depend on the thread count: re-run the first slot
  // serially and compare (golden.json, recorded serially, covers all).
  if (workload.jobs != 1) {
    for (Target& target : targets) {
      ++out.attempted;
      if (!check(target, 0,
                 digest_of(run_campaign(target, 0, target.budget, 1),
                           *target.entry),
                 out.errors, "jobs=1 campaign")) {
        ++out.failed;
      }
    }
  }

  double sessions = 0.0;
  double wall_ns = 0.0;
  double cpu_ns_used = 0.0;
  for (std::size_t slot = 0; slot < kSeedCycle; ++slot) {
    if (slot_wall_ns[slot].empty()) continue;
    sessions += static_cast<double>(slot_sessions[slot]);
    wall_ns += percentile(slot_wall_ns[slot], 0.1);
    cpu_ns_used += percentile(slot_cpu_ns[slot], 0.1);
  }
  const double host_scale =
      kReferenceNominalNs / percentile(reference, 0.1);
  wall_ns *= host_scale;
  cpu_ns_used *= host_scale;
  out.metrics = {
      {"sessions_per_s", ratio(sessions * 1e9, wall_ns), "1/s"},
      {"cpu_us_per_session", ratio(cpu_ns_used * 1e-3, sessions), "us"},
      {"peak_rss_mb", peak_rss_mb(), "MB"},
      {"setup_s", median(setup_s), "s"},
  };
  return out;
}

// --- traced run --------------------------------------------------------------

enum Layer : std::uint8_t { kSession, kGenerate, kBuild, kRun, kCoverage };
constexpr std::size_t kLayerCount = 5;

/// One call into a layer.  Child spans share their session span's id.
struct Span {
  std::uint32_t session;
  Layer layer;
  std::int64_t start_ns;
  std::int64_t end_ns;
};

/// Per-session counts summed over the traced loop.
struct SessionTotals {
  std::uint64_t sessions = 0;
  std::uint64_t ticks = 0;
  std::uint64_t reports = 0;
  std::uint64_t patterns = 0;
  std::uint64_t dedup_rejected = 0;
  std::uint64_t issued = 0;
  std::uint64_t acked = 0;
  std::uint64_t failed = 0;
  std::uint64_t service_calls = 0;
  std::uint64_t context_switches = 0;
  std::uint64_t gc_runs = 0;
};

enum DeviceIndex : std::size_t { kMaster, kBridge, kPcore, kDetector };
constexpr std::size_t kDeviceCount = 4;

/// Busy time per device over the replica sessions.
struct DeviceSplit {
  std::array<std::uint64_t, kDeviceCount> busy_ns{};
  std::uint64_t ticks = 0;
  std::uint64_t sessions = 0;
  std::vector<double> report_us;  // the detector tick that filed a report
};

/// Wraps a device and charges it the time since the previous wrapper
/// finished, so one clock read per device per tick splits the tick.  The
/// first device's share also carries the tick loop and clock advance.
class TimedDevice final : public sim::Device {
 public:
  TimedDevice(sim::Device& inner, std::int64_t& last) noexcept
      : inner_(&inner), last_(&last) {}

  bool tick(sim::Soc& soc) override {
    const bool keep_running = inner_->tick(soc);
    const std::int64_t now = now_ns();
    last_tick_ns = now - *last_;
    busy_ns += static_cast<std::uint64_t>(last_tick_ns);
    *last_ = now;
    return keep_running;
  }

  std::uint64_t busy_ns = 0;
  std::int64_t last_tick_ns = 0;

 private:
  sim::Device* inner_;
  std::int64_t* last_;
};

/// Rebuilds one session from its public parts, wired as
/// core::TestSession does (core/session.cpp), with timed devices, and
/// runs it the way TestSession::run does.
core::SessionResult run_replica(const core::PtestConfig& config,
                                const pfa::Alphabet& alphabet,
                                const pattern::MergedPattern& merged,
                                const std::vector<pattern::TestPattern>& patterns,
                                const core::WorkloadSetup& setup,
                                DeviceSplit& split) {
  sim::Soc soc;
  pcore::PcoreKernel kernel(config.kernel);
  if (setup) setup(kernel);
  bridge::Channel channel(soc);
  bridge::Committee committee(channel, kernel);
  master::MasterScheduler master(channel);
  core::StateRecorder recorder(alphabet);
  for (pattern::SlotIndex slot = 0; slot < patterns.size(); ++slot) {
    recorder.assign(slot, patterns[slot].symbols);
  }

  master::CommitterOptions committer_options;
  committer_options.program_id = config.program_id;
  committer_options.program_arg = [](pattern::SlotIndex slot) {
    return static_cast<std::uint32_t>(slot);
  };
  if (config.noise_max_delay > 0 || config.command_spacing > 0) {
    auto noise_rng =
        std::make_shared<support::Rng>(config.seed ^ 0x6e6f697365ULL);
    const sim::Tick max_delay = config.noise_max_delay;
    const sim::Tick spacing = config.command_spacing;
    committer_options.issue_delay =
        [noise_rng, max_delay, spacing](const pattern::MergedElement&) {
          const sim::Tick jitter =
              max_delay > 0
                  ? static_cast<sim::Tick>(noise_rng->below(max_delay + 1))
                  : 0;
          return spacing + jitter;
        };
  }
  auto owned_committer = std::make_unique<master::Committer>(
      merged, alphabet, std::move(committer_options), &recorder);
  const master::Committer& committer = *owned_committer;
  master.add(std::move(owned_committer));
  core::BugDetector detector(config.detector, kernel, committer, recorder);

  std::int64_t last = 0;
  std::array<TimedDevice, kDeviceCount> timed = {
      TimedDevice(master, last), TimedDevice(committee, last),
      TimedDevice(kernel, last), TimedDevice(detector, last)};
  for (TimedDevice& device : timed) soc.attach(device);

  core::SessionResult result;
  last = now_ns();
  result.stats.ticks = soc.run(config.max_ticks);
  if (detector.bug_found()) {
    result.outcome = core::Outcome::kBug;
    result.report = *detector.report();
    result.report->seed = config.seed;
    result.report->merged = merged;
    split.report_us.push_back(
        static_cast<double>(timed[kDetector].last_tick_ns) * 1e-3);
  } else if (detector.passed()) {
    result.outcome = core::Outcome::kPassed;
  } else {
    result.outcome = core::Outcome::kTickLimit;
  }

  for (std::size_t d = 0; d < kDeviceCount; ++d) {
    split.busy_ns[d] += timed[d].busy_ns;
  }
  split.ticks += result.stats.ticks;
  ++split.sessions;
  return result;
}

bool same_session(const core::SessionResult& a, const core::SessionResult& b) {
  if (a.stats.ticks != b.stats.ticks || a.outcome != b.outcome) return false;
  if (a.report.has_value() != b.report.has_value()) return false;
  return !a.report || a.report->signature() == b.report->signature();
}

/// State the traced loop keeps until the run ends.
struct TraceState {
  std::vector<Span> spans;
  SessionTotals totals;
  DeviceSplit split;
};

/// Reproduces the campaign of `target`'s seed `slot` session by session
/// through the public layer calls, timing each call.  Returns the
/// campaign digest.
Digest traced_campaign(const Target& target, std::size_t slot,
                       const core::CompiledTestPlan& plan,
                       pfa::WalkScratch& scratch, TraceState& trace) {
  const core::WorkloadSetup& setup = target.entry->setup;
  pattern::CoverageTracker tracker(plan.pfa);
  core::CampaignResult folded;  // what the oracle reads
  std::uint64_t ticks = 0;

  for (std::size_t run = 0; run < target.budget; ++run) {
    const std::uint64_t seed = support::derive_seed(target.seeds[slot], run);
    const auto id = static_cast<std::uint32_t>(trace.totals.sessions);
    const bool replicate = run % kReplicaEvery == 0;
    core::SessionResult kept;  // replica sessions only

    // Everything the session allocates is freed inside its span, as it
    // is inside Campaign's per-session call.
    const std::int64_t start = now_ns();
    std::int64_t generated_at = 0;
    std::int64_t built_at = 0;
    std::int64_t ran_at = 0;
    std::int64_t covered_start = 0;
    std::int64_t covered_at = 0;
    {
      core::AdaptiveTestResult generated =
          core::generate_and_merge(plan, seed, scratch);
      generated_at = now_ns();
      core::SessionResult session_result;
      {
        core::PtestConfig config = plan.config;
        config.seed = seed;
        core::TestSession session(config, plan.alphabet, generated.merged,
                                  generated.patterns, setup);
        built_at = now_ns();
        session_result = session.run();
        ran_at = now_ns();
      }
      covered_start = now_ns();
      for (const pattern::TestPattern& sampled : generated.patterns) {
        tracker.observe(sampled);
      }
      covered_at = now_ns();

      const core::SessionStats& stats = session_result.stats;
      SessionTotals& totals = trace.totals;
      ++totals.sessions;
      totals.ticks += stats.ticks;
      totals.patterns += generated.patterns.size();
      totals.dedup_rejected += generated.duplicates_rejected;
      totals.issued += stats.commands_issued;
      totals.acked += stats.commands_acked;
      totals.failed += stats.commands_failed;
      totals.service_calls += stats.kernel_service_calls;
      totals.context_switches += stats.context_switches;
      totals.gc_runs += stats.gc_runs;
      ticks += stats.ticks;
      if (session_result.outcome == core::Outcome::kBug &&
          session_result.report) {
        ++totals.reports;
        ++folded.total_detections;
        folded.distinct_failures.emplace(session_result.report->signature(),
                                         *session_result.report);
      }
      if (replicate) kept = std::move(session_result);
    }
    const std::int64_t end = now_ns();

    trace.spans.push_back({id, kSession, start, end});
    trace.spans.push_back({id, kGenerate, start, generated_at});
    trace.spans.push_back({id, kBuild, generated_at, built_at});
    trace.spans.push_back({id, kRun, built_at, ran_at});
    trace.spans.push_back({id, kCoverage, covered_start, covered_at});

    if (replicate) {
      const core::AdaptiveTestResult reference =
          core::execute(plan, seed, setup, scratch);
      const core::AdaptiveTestResult generated =
          core::generate_and_merge(plan, seed, scratch);
      core::PtestConfig config = plan.config;
      config.seed = seed;
      const core::SessionResult replica =
          run_replica(config, plan.alphabet, generated.merged,
                      generated.patterns, setup, trace.split);
      if (!same_session(replica, reference.session) ||
          !same_session(kept, reference.session)) {
        throw std::runtime_error(target.entry->name + ": session " +
                                 std::to_string(run) +
                                 " replica differs from core::execute");
      }
    }
  }

  folded.total_runs = target.budget;
  folded.metrics.ticks = ticks;
  return digest_of(folded, *target.entry);
}

double clock_read_ns() {
  constexpr int kReads = 1 << 18;
  std::int64_t sink = 0;
  const std::int64_t start = now_ns();
  for (int i = 0; i < kReads; ++i) sink ^= now_ns();
  const std::int64_t elapsed = now_ns() - start;
  if (sink == 42) std::fputc(' ', stderr);  // keeps the loop alive
  return static_cast<double>(elapsed) / kReads;
}

Output run_traced(const Workload& workload, std::vector<Target>& targets,
                  double seconds) {
  Output out;
  const std::int64_t run_start = now_ns();

  // pfa layer: compile timing.
  std::vector<double> compile_us;
  std::vector<core::CompiledTestPlanPtr> plans;
  for (const Target& target : targets) {
    for (int i = 0; i < kCompileSamples; ++i) {
      const std::int64_t start = now_ns();
      core::CompiledTestPlanPtr plan = core::compile(target.entry->config);
      compile_us.push_back(static_cast<double>(now_ns() - start) * 1e-3);
      if (i == 0) plans.push_back(std::move(plan));
    }
  }

  // Traced session loop: whole campaigns, round-robin over the
  // scenarios, until its share of the time or the span store is used.
  // Each traced campaign alternates with the same campaign untraced
  // (jobs=1, for the tracing overhead) and, when the workload runs
  // threads, at its jobs (campaign layer: worker idle), so both sides
  // see the same host conditions.
  TraceState trace;
  trace.spans.reserve(kMaxSpans);
  std::size_t round_spans = 0;
  for (const Target& target : targets) {
    round_spans += target.budget * kLayerCount;
  }
  pfa::WalkScratch scratch;
  double idle_ns = 0.0;
  double thread_wall_ns = 0.0;
  double serial_sessions = 0.0;
  double serial_wall_ns = 0.0;
  std::vector<std::size_t> jobs_list = {1};
  if (workload.jobs != 1) jobs_list.push_back(workload.jobs);
  const std::int64_t loop_deadline =
      run_start + static_cast<std::int64_t>(seconds * kTracedLoopShare * 1e9);
  for (std::size_t round = 0;
       round < kSeedCycle ||
       (now_ns() < loop_deadline &&
        trace.spans.size() + round_spans <= kMaxSpans);
       ++round) {
    const std::size_t slot = round % kSeedCycle;
    for (std::size_t i = 0; i < targets.size(); ++i) {
      Target& target = targets[i];
      ++out.attempted;
      if (!check(target, slot,
                 traced_campaign(target, slot, *plans[i], scratch, trace),
                 out.errors, "traced session loop")) {
        ++out.failed;
      }
      for (const std::size_t jobs : jobs_list) {
        ++out.attempted;
        const std::int64_t start = now_ns();
        const core::CampaignResult result =
            run_campaign(target, slot, target.budget, jobs);
        const auto wall = static_cast<double>(now_ns() - start);
        if (jobs == 1) {
          serial_sessions += static_cast<double>(result.total_runs);
          serial_wall_ns += wall;
        }
        if (jobs == workload.jobs) {
          const support::MetricsSnapshot& m = result.metrics;
          idle_ns += static_cast<double>(m.worker_idle_ns);
          thread_wall_ns += static_cast<double>(m.wall_ns) *
                            static_cast<double>(m.worker_threads);
        }
        if (!check(target, slot, digest_of(result, *target.entry),
                   out.errors, "campaign")) {
          ++out.failed;
        }
      }
    }
  }

  // Fold the spans.
  std::array<std::vector<double>, kLayerCount> durations_us;
  std::array<double, kLayerCount> total_ns{};
  for (const Span& span : trace.spans) {
    const auto ns = static_cast<double>(span.end_ns - span.start_ns);
    durations_us[span.layer].push_back(ns * 1e-3);
    total_ns[span.layer] += ns;
  }
  const double session_ns = total_ns[kSession];
  const double covered_ns = total_ns[kGenerate] + total_ns[kBuild] +
                            total_ns[kRun] + total_ns[kCoverage];
  const SessionTotals& t = trace.totals;
  const auto sessions = static_cast<double>(t.sessions);
  const DeviceSplit& split = trace.split;
  double device_ns = 0.0;
  for (const std::uint64_t busy : split.busy_ns) {
    device_ns += static_cast<double>(busy);
  }
  const auto per_tick = [&](DeviceIndex d) {
    return ratio(static_cast<double>(split.busy_ns[d]),
                 static_cast<double>(split.ticks));
  };
  const auto device_share = [&](DeviceIndex d) {
    return ratio(static_cast<double>(split.busy_ns[d]), device_ns);
  };
  const double traced_rate = ratio(sessions * 1e9, session_ns);
  const double untraced_rate = ratio(serial_sessions * 1e9, serial_wall_ns);

  out.metrics = {
      {"pfa.compile_us", median(compile_us), "us"},
      {"pattern.generate_us_p50", percentile(durations_us[kGenerate], 0.5), "us"},
      {"pattern.generate_us_p99", percentile(durations_us[kGenerate], 0.99), "us"},
      {"pattern.patterns", ratio(static_cast<double>(t.patterns), sessions), "count"},
      {"pattern.dedup_rejected", ratio(static_cast<double>(t.dedup_rejected), sessions), "count"},
      {"pattern.coverage_us", percentile(durations_us[kCoverage], 0.5), "us"},
      {"session.build_us_p50", percentile(durations_us[kBuild], 0.5), "us"},
      {"session.build_us_p99", percentile(durations_us[kBuild], 0.99), "us"},
      {"session.run_us_p50", percentile(durations_us[kRun], 0.5), "us"},
      {"session.run_us_p99", percentile(durations_us[kRun], 0.99), "us"},
      {"session.ticks", ratio(static_cast<double>(t.ticks), sessions), "count"},
      {"session.ns_per_tick", ratio(total_ns[kRun], static_cast<double>(t.ticks)), "ns"},
      {"session.share_generate", ratio(total_ns[kGenerate], session_ns), "ratio"},
      {"session.share_build", ratio(total_ns[kBuild], session_ns), "ratio"},
      {"session.share_run", ratio(total_ns[kRun], session_ns), "ratio"},
      {"session.share_coverage", ratio(total_ns[kCoverage], session_ns), "ratio"},
      {"session.share_other", ratio(session_ns - covered_ns, session_ns), "ratio"},
      {"master.tick_ns", per_tick(kMaster), "ns"},
      {"bridge.tick_ns", per_tick(kBridge), "ns"},
      {"pcore.tick_ns", per_tick(kPcore), "ns"},
      {"detector.tick_ns", per_tick(kDetector), "ns"},
      {"master.share", device_share(kMaster), "ratio"},
      {"bridge.share", device_share(kBridge), "ratio"},
      {"pcore.share", device_share(kPcore), "ratio"},
      {"detector.share", device_share(kDetector), "ratio"},
      {"detector.report_us", median(split.report_us), "us"},
      {"detector.scans_per_report",
       ratio(static_cast<double>(t.ticks),
             static_cast<double>(std::max<std::uint64_t>(t.reports, 1))),
       "count"},
      {"bridge.commands_issued", ratio(static_cast<double>(t.issued), sessions), "count"},
      {"bridge.commands_acked", ratio(static_cast<double>(t.acked), sessions), "count"},
      {"bridge.commands_failed", ratio(static_cast<double>(t.failed), sessions), "count"},
      {"bridge.fail_ratio", ratio(static_cast<double>(t.failed), static_cast<double>(t.issued)), "ratio"},
      {"pcore.service_calls", ratio(static_cast<double>(t.service_calls), sessions), "count"},
      {"pcore.context_switches", ratio(static_cast<double>(t.context_switches), sessions), "count"},
      {"pcore.gc_runs", ratio(static_cast<double>(t.gc_runs), sessions), "count"},
      {"campaign.worker_idle_share", ratio(idle_ns, thread_wall_ns), "ratio"},
      {"trace.sessions", sessions, "count"},
      {"trace.sessions_per_s", traced_rate, "1/s"},
      {"trace.untraced_sessions_per_s", untraced_rate, "1/s"},
      {"trace.overhead", ratio(untraced_rate, traced_rate) - 1.0, "ratio"},
      {"trace.clock_read_ns", clock_read_ns(), "ns"},
      {"trace.replica_sessions", static_cast<double>(split.sessions), "count"},
  };
  return out;
}

// --- digest mode -------------------------------------------------------------

/// Runs each scenario's campaigns once, serially, to record their digests
/// (how golden.json is generated).
Output run_digest(std::vector<Target>& targets) {
  Output out;
  for (Target& target : targets) {
    for (std::size_t slot = 0; slot < kSeedCycle; ++slot) {
      ++out.attempted;
      target.references[slot] = digest_of(
          run_campaign(target, slot, target.budget, 1), *target.entry);
    }
  }
  return out;
}

int usage() {
  std::cerr << "usage: campaign_bench --workload NAME --seed N "
               "[--seconds S] [--trace 0|1] [--digest]\n  workloads:";
  for (const Workload& w : workloads()) std::cerr << ' ' << w.name;
  std::cerr << '\n';
  return 64;
}

}  // namespace

int main(int argc, char** argv) {
  std::string workload_name;
  std::uint64_t seed = 0;
  double seconds = 10.0;
  bool traced = false;
  bool digest_only = false;
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    const bool has_value = i + 1 < argc;
    if (arg == "--workload" && has_value) {
      workload_name = argv[++i];
    } else if (arg == "--seed" && has_value) {
      seed = std::strtoull(argv[++i], nullptr, 10);
    } else if (arg == "--seconds" && has_value) {
      seconds = std::strtod(argv[++i], nullptr);
    } else if (arg == "--trace" && has_value) {
      traced = std::strcmp(argv[++i], "0") != 0;
    } else if (arg == "--digest") {
      digest_only = true;
    } else {
      return usage();
    }
  }
  const auto found = std::find_if(
      workloads().begin(), workloads().end(),
      [&](const Workload& w) { return workload_name == w.name; });
  if (found == workloads().end() || seconds <= 0.0) return usage();

  try {
    std::vector<Target> targets = resolve(*found, seed);
    const Output out = digest_only ? run_digest(targets)
                       : traced    ? run_traced(*found, targets, seconds)
                                   : run_untraced(*found, targets, seconds);
    print(out, targets, seed);
    return out.failed == 0 ? 0 : 1;
  } catch (const std::exception& error) {
    std::cerr << "campaign_bench: " << error.what() << '\n';
    return 1;
  }
}
