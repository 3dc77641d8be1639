// fleet::Coordinator — the campaign scheduler refactored into a
// transport-agnostic service.
//
// The committer already solved the coordinator's core problem — issue
// work units in order, track what is outstanding, retry what bounces,
// respect backpressure — for the simulated bridge.  This class drives
// the same extracted machinery (fleet/ledger.hpp, shared RetryPolicy)
// over a fleet::Transport instead: shard slices of a single-arm
// scenario campaign go out as AssignFrames, ResultFrames come back,
// failed shards are re-issued under the retry budget, and the shard
// results fold (in shard order, through CampaignResult::append) into
// one CampaignResult plus one CoverageCorpus that are bit-identical to
// the single-process run of the same budget and seed.
//
// The ledger's clock here is the poll-iteration counter (the committer
// uses simulation ticks); RetryPolicy::delay therefore means "poll
// iterations before a bounced shard is re-issued".
#pragma once

#include <cstdint>
#include <functional>
#include <optional>
#include <string>
#include <utility>
#include <vector>

#include "ptest/core/campaign.hpp"
#include "ptest/fleet/ledger.hpp"
#include "ptest/fleet/transport.hpp"
#include "ptest/guided/corpus.hpp"
#include "ptest/obs/trace.hpp"
#include "ptest/support/result.hpp"

namespace ptest::fleet {

/// One liveness/throughput sample of a running fleet campaign, handed
/// to CoordinatorOptions::on_status at status_interval_ms cadence from
/// the coordinator's poll loop (the `ptest_cli --status` report).
struct FleetStatus {
  std::uint64_t elapsed_ns = 0;
  std::size_t shards_total = 0;
  std::size_t shards_done = 0;
  std::size_t outstanding = 0;  ///< issued, no result yet
  std::size_t pending = 0;      ///< never issued
  std::uint64_t retries_issued = 0;
  std::size_t sessions_done = 0;  ///< sessions in merged-in results
  /// Accepted results per reporting worker node, node-name order.
  std::vector<std::pair<std::string, std::size_t>> node_results;
};

/// What the coordinator broadcasts to drain the fleet when a campaign
/// finishes (on every exit path, success or error): kShutdown ends the
/// worker processes, kCampaignEnd leaves persistent daemons running for
/// the next campaign.
enum class DrainMode : std::uint8_t { kShutdown, kCampaignEnd };

struct CoordinatorOptions {
  /// Shard slices to split the budget into.
  std::size_t shards = 2;
  /// Worker-local parallelism per shard (CampaignOptions::jobs).
  std::size_t jobs = 1;
  /// Campaign budget; 0 = the scenario's default_budget.
  std::size_t budget = 0;
  /// Seed override for the scenario's plan.
  std::optional<std::uint64_t> seed;
  /// Re-issue budget/delay for failed shards; the same policy type the
  /// master committer runs at its defaults, with the delay measured in
  /// coordinator poll iterations.
  RetryPolicy retry;
  /// Poll iterations before the coordinator gives up on missing
  /// results (a worker died without reporting).  The in-process fleet
  /// completes in thousands of iterations; socket fleets poll at
  /// idle_sleep_us intervals, so the default is minutes of real time.
  std::uint64_t poll_limit = 200'000'000;
  /// Microseconds to sleep when a poll iteration moved no frame
  /// (0 = busy-spin with yield; cross-process callers should set this
  /// to avoid spinning a core on an idle socket).
  std::uint64_t idle_sleep_us = 0;
  /// Heartbeat deadline per outstanding shard, in poll iterations
  /// (0 = none).  An assignment with no result after this many polls is
  /// presumed lost with its worker (died mid-shard, vanished peer) and
  /// flows back through the RetryQueue under the shard's retry budget;
  /// a straggler's late result then drops as a stale seq, so a
  /// duplicate delivery cannot double-merge (first result wins).
  std::uint64_t shard_deadline = 0;
  /// Workers this fleet is known to have (0 = unknown).  The drain
  /// broadcast covers max(transport peers, this, distinct reporting
  /// workers, shards-as-a-floor) so every worker that exists gets a
  /// frame, not just one per shard.
  std::size_t expected_workers = 0;
  /// What the end-of-campaign drain broadcast says: shut the workers
  /// down (default) or just end the campaign, leaving daemons up.
  DrainMode drain = DrainMode::kShutdown;
  /// Ask workers to trace their slices and ship the trace tail back on
  /// the result frame; the fragments come back in
  /// FleetResult::node_traces for obs::stitch_chrome_trace.
  bool trace = false;
  /// Status report cadence in milliseconds (0 = no reports); each tick
  /// invokes on_status from the poll loop.
  std::uint64_t status_interval_ms = 0;
  std::function<void(const FleetStatus&)> on_status;
};

/// What a fleet campaign yields: the merged campaign result and the
/// merged session-span corpus.  Both satisfy the fleet invariant — for
/// any shard count, bit-identical to the single-process run.
struct FleetResult {
  core::CampaignResult result;
  guided::CoverageCorpus corpus;
  /// Trace fragments the workers shipped (CoordinatorOptions::trace),
  /// each anchored at its assign-issue instant on the coordinator's
  /// clock — exactly what obs::stitch_chrome_trace consumes.
  std::vector<obs::NodeTrace> node_traces;
};

class Coordinator {
 public:
  Coordinator(std::string scenario, CoordinatorOptions options = {});

  /// Drives the full protocol over `transport`: plan shards, issue,
  /// collect/retry/reclaim, merge, broadcast the drain frames.  Returns
  /// the merged result or an error (unknown scenario, shard failed past
  /// the retry budget, malformed frame, poll limit).  The fleet is
  /// drained on *every* exit path — an error return still broadcasts,
  /// so workers never outlive a failed campaign by spinning to their
  /// own poll limits.
  [[nodiscard]] support::Result<FleetResult, std::string> run(
      Transport& transport);

 private:
  [[nodiscard]] support::Result<FleetResult, std::string> run_protocol(
      Transport& transport, std::size_t& workers_seen);

  std::string scenario_;
  CoordinatorOptions options_;
};

/// Runs `scenario` as an in-process fleet: a Coordinator on the calling
/// thread and `workers` Worker threads (0 = one per shard) over an
/// InProcessQueue.  The `--fleet N` CLI mode and the determinism tests
/// go through this.
[[nodiscard]] support::Result<FleetResult, std::string> run_local_fleet(
    const std::string& scenario, CoordinatorOptions options = {},
    std::size_t workers = 0);

}  // namespace ptest::fleet
