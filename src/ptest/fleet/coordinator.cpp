#include "ptest/fleet/coordinator.hpp"

#include <chrono>
#include <deque>
#include <map>
#include <set>
#include <thread>
#include <utility>
#include <vector>

#include "ptest/fleet/wire.hpp"
#include "ptest/fleet/worker.hpp"
#include "ptest/obs/trace.hpp"
#include "ptest/scenario/registry.hpp"

namespace ptest::fleet {

namespace {

/// Send attempts per drain frame before giving up on that worker.  The
/// drain is best effort by design — it also runs after transport
/// failures, where waiting out the full poll limit per frame would turn
/// an error return into a near-hang.
constexpr std::uint64_t kDrainSendBudget = 10'000;

void idle_wait(std::uint64_t idle_sleep_us) {
  if (idle_sleep_us == 0) {
    std::this_thread::yield();
  } else {
    std::this_thread::sleep_for(std::chrono::microseconds(idle_sleep_us));
  }
}

std::uint64_t elapsed_ns(std::chrono::steady_clock::time_point since) {
  return static_cast<std::uint64_t>(
      std::chrono::duration_cast<std::chrono::nanoseconds>(
          std::chrono::steady_clock::now() - since)
          .count());
}

/// Appends the shard results in shard-index order (global run-index
/// order) through the CampaignResult::append that also folds a
/// campaign's session batches, so earlier-wins keeps the serial run's
/// report.  Moves the results out of `shards` (never empty); the fold
/// starts from the first, as MetricsSnapshot::merge requires.
core::CampaignResult merge_shards(std::vector<ResultFrame>& shards) {
  core::CampaignResult merged = std::move(shards.front().result);
  for (std::size_t i = 1; i < shards.size(); ++i) {
    merged.append(std::move(shards[i].result));
  }
  merged.derive_coverage();
  return merged;
}

}  // namespace

Coordinator::Coordinator(std::string scenario, CoordinatorOptions options)
    : scenario_(std::move(scenario)), options_(options) {}

support::Result<FleetResult, std::string> Coordinator::run(
    Transport& transport) {
  std::size_t workers_seen = 0;
  auto outcome = run_protocol(transport, workers_seen);

  // Drain the fleet on every exit path — success, decode failure,
  // exhausted retry budget, poll limit — so workers never outlive a
  // failed campaign by spinning to their own poll limits.  The frame
  // count covers the workers that actually exist: the transport's live
  // peer count when it knows one (sockets), otherwise the distinct
  // workers that reported results, with the shard count kept as a floor
  // for workers that never got (or never finished) a slice.
  const std::size_t known_peers = transport.peers();
  const std::size_t broadcast =
      known_peers != 0
          ? known_peers
          : std::max({options_.shards, options_.expected_workers, workers_seen,
                      std::size_t{1}});
  const std::string drain_frame = options_.drain == DrainMode::kCampaignEnd
                                      ? encode_campaign_end()
                                      : encode_shutdown();
  for (std::size_t i = 0; i < broadcast; ++i) {
    std::uint64_t send_polls = 0;
    while (!transport.send(drain_frame)) {
      if (++send_polls > kDrainSendBudget) break;  // best effort
      idle_wait(options_.idle_sleep_us);
    }
  }
  return outcome;
}

support::Result<FleetResult, std::string> Coordinator::run_protocol(
    Transport& transport, std::size_t& workers_seen) {
  const auto wall_start = std::chrono::steady_clock::now();
  const scenario::Scenario* entry =
      scenario::ScenarioRegistry::builtin().find(scenario_);
  if (entry == nullptr) {
    return "fleet: unknown scenario '" + scenario_ + "'";
  }
  const std::size_t budget =
      options_.budget == 0 ? entry->default_budget : options_.budget;
  const auto slices = core::Campaign::plan_shards(budget, options_.shards);

  // The committer's issue/ack/retry discipline, verbatim: seq numbers
  // are only burned by sends that went out, stale acks drop at the
  // ledger, bounced work re-queues with its attempt count intact.
  OutstandingTable<AssignFrame> ledger;
  RetryQueue<AssignFrame, std::size_t> retries(options_.retry);
  std::deque<AssignFrame> pending;
  for (const core::ShardSlice& slice : slices) {
    AssignFrame frame;
    frame.slice = slice;
    frame.scenario = scenario_;
    frame.seed = options_.seed;
    frame.jobs = options_.jobs == 0 ? 1 : options_.jobs;
    frame.trace = options_.trace;
    pending.push_back(std::move(frame));
  }

  std::vector<std::optional<ResultFrame>> shard_results(slices.size());
  std::set<std::string> reporting_nodes;
  // Poll iteration each outstanding seq was issued at, for the shard
  // deadline: the ledger stays clock-free, the coordinator owns time.
  std::map<std::uint32_t, std::uint64_t> issued_at;
  // Steady-clock ns each outstanding seq was sent at.  Serves double
  // duty: the frame-RTT sample on ack, and the anchor that places the
  // shard's shipped trace fragment on the coordinator's timeline.
  std::map<std::uint32_t, std::uint64_t> issued_clock;
  std::vector<obs::NodeTrace> node_traces;
  // Timing-class histograms owned by the coordinator (the shards
  // contribute theirs through merge_shards).
  obs::Histogram frame_rtt_hist;
  obs::Histogram transport_send_hist;
  obs::Histogram corpus_merge_hist;
  // --status bookkeeping.
  std::size_t sessions_done = 0;
  std::map<std::string, std::size_t> node_result_counts;
  const std::uint64_t status_interval_ns =
      options_.status_interval_ms * 1'000'000;
  std::uint64_t next_status_ns = status_interval_ns;
  std::size_t completed = 0;
  std::uint64_t retries_issued = 0;
  std::uint64_t now = 0;
  while (completed < slices.size()) {
    if (++now > options_.poll_limit) {
      return std::string("fleet: poll limit exceeded awaiting shard results");
    }
    bool progressed = false;

    while (const auto text = transport.receive()) {
      progressed = true;
      auto decoded = decode(*text);
      if (!decoded.ok()) return decoded.error();
      if (decoded.value().kind != FrameKind::kResult) {
        return std::string("fleet: coordinator received a non-result frame");
      }
      ResultFrame& frame = decoded.value().result;
      if (!frame.node.empty()) {
        reporting_nodes.insert(frame.node);
        workers_seen = reporting_nodes.size();
      }
      const auto issue = ledger.acknowledge(frame.seq);
      if (!issue) continue;  // stale/duplicate result (or one a deadline
                             // already reclaimed): first delivery won
      obs::TraceRecorder::instance().record_instant("fleet:ack");
      std::uint64_t issue_clock_ns = 0;
      if (const auto clock_it = issued_clock.find(frame.seq);
          clock_it != issued_clock.end()) {
        issue_clock_ns = clock_it->second;
        frame_rtt_hist.record(obs::TraceRecorder::now_ns() - issue_clock_ns);
        issued_clock.erase(clock_it);
      }
      issued_at.erase(frame.seq);
      if (!frame.error.empty()) {
        if (!retries.schedule(issue->slice.index, *issue, now)) {
          return "fleet: shard " + std::to_string(issue->slice.index) +
                 " failed past the retry budget: " + frame.error;
        }
        continue;
      }
      if (frame.shard >= shard_results.size()) {
        return std::string("fleet: result names an unplanned shard");
      }
      if (frame.result.arm_stats.size() != 1) {
        return std::string("fleet: shard results must be single-arm");
      }
      if (shard_results[frame.shard]) continue;  // duplicate: first wins
      sessions_done += frame.result.total_runs;
      ++node_result_counts[frame.node.empty() ? "worker" : frame.node];
      if (!frame.trace_json.empty()) {
        // Anchor the fragment at the instant its assign went out on the
        // coordinator's clock — events inside are rebased to the slice
        // start, so issue time is the right zero (off by at most the
        // assign's transit time).
        node_traces.push_back({frame.node.empty() ? "worker" : frame.node,
                               std::move(frame.trace_json), issue_clock_ns});
        frame.trace_json.clear();
      }
      shard_results[frame.shard] = std::move(frame);
      ++completed;
    }

    // Shard deadline: an assignment quiet past the heartbeat window is
    // presumed lost with its worker and re-queued under the same retry
    // budget an error frame charges.  The reclaimed seq leaves the
    // ledger, so a straggler's eventual result drops as stale.
    if (options_.shard_deadline != 0) {
      for (auto it = issued_at.begin(); it != issued_at.end();) {
        if (now >= it->second + options_.shard_deadline) {
          auto lost = ledger.acknowledge(it->first);
          issued_clock.erase(it->first);
          it = issued_at.erase(it);
          if (lost) {
            obs::TraceRecorder::instance().record_instant("fleet:reclaim");
            const std::size_t shard = lost->slice.index;
            if (!retries.schedule(shard, std::move(*lost), now)) {
              return "fleet: shard " + std::to_string(shard) +
                     " unresponsive past the retry budget (worker dead?)";
            }
            progressed = true;
          }
        } else {
          ++it;
        }
      }
    }

    // Due retries outrank fresh issues, like the committer's step().
    if (const auto* front = retries.front()) {
      if (front->not_before <= now) {
        if (auto record = retries.take_front()) {
          record->payload.seq = ledger.next_seq();
          const std::uint64_t send_start = obs::TraceRecorder::now_ns();
          if (transport.send(encode(record->payload))) {
            transport_send_hist.record(obs::TraceRecorder::now_ns() -
                                       send_start);
            obs::TraceRecorder::instance().record_instant("fleet:retry");
            issued_at[record->payload.seq] = now;
            issued_clock[record->payload.seq] = send_start;
            ledger.record_issue(std::move(record->payload));
            ++retries_issued;
            progressed = true;
          } else {
            retries.requeue_front(std::move(*record));
          }
        }
      }
    } else if (!pending.empty()) {
      AssignFrame frame = std::move(pending.front());
      frame.seq = ledger.next_seq();
      const std::uint64_t send_start = obs::TraceRecorder::now_ns();
      if (transport.send(encode(frame))) {
        transport_send_hist.record(obs::TraceRecorder::now_ns() - send_start);
        obs::TraceRecorder::instance().record_instant("fleet:issue");
        pending.pop_front();
        issued_at[frame.seq] = now;
        issued_clock[frame.seq] = send_start;
        ledger.record_issue(std::move(frame));
        progressed = true;
      } else {
        pending.front() = std::move(frame);  // keep the stamped copy idle
      }
    }

    if (options_.on_status && status_interval_ns != 0) {
      const std::uint64_t elapsed = elapsed_ns(wall_start);
      if (elapsed >= next_status_ns) {
        FleetStatus status;
        status.elapsed_ns = elapsed;
        status.shards_total = slices.size();
        status.shards_done = completed;
        status.outstanding = issued_at.size();
        status.pending = pending.size();
        status.retries_issued = retries_issued;
        status.sessions_done = sessions_done;
        status.node_results.assign(node_result_counts.begin(),
                                   node_result_counts.end());
        options_.on_status(status);
        // Skip missed ticks rather than bursting reports to catch up.
        next_status_ns =
            (elapsed / status_interval_ns + 1) * status_interval_ns;
      }
    }

    if (!progressed) idle_wait(options_.idle_sleep_us);
  }

  // Merge in shard order; the corpus merge is timed for the
  // fleet_corpus_merge_ms metric.
  std::vector<ResultFrame> ordered;
  ordered.reserve(slices.size());
  for (auto& slot : shard_results) {
    ordered.push_back(std::move(*slot));
    // Each shard is a fleet of one; merge() sums, maxes and mins these
    // into the whole fleet's counters.
    support::MetricsSnapshot& shard = ordered.back().result.metrics;
    shard.fleet_shards = 1;
    shard.fleet_shard_wall_max_ns = ordered.back().wall_ns;
    shard.fleet_shard_wall_min_ns = ordered.back().wall_ns;
  }

  FleetResult fleet;
  fleet.result = merge_shards(ordered);
  const auto merge_start = std::chrono::steady_clock::now();
  for (const ResultFrame& frame : ordered) {
    const std::uint64_t shard_merge_start = obs::TraceRecorder::now_ns();
    obs::TraceSpan merge_span("corpus-merge");
    auto corpus = guided::CoverageCorpus::from_json(frame.corpus_json);
    if (!corpus.ok()) {
      return "fleet: shard " + std::to_string(frame.shard) +
             " corpus rejected: " + corpus.error();
    }
    if (auto error = fleet.corpus.merge(corpus.value())) {
      return "fleet: shard " + std::to_string(frame.shard) +
             " corpus merge failed: " + *error;
    }
    corpus_merge_hist.record(obs::TraceRecorder::now_ns() - shard_merge_start);
  }
  const std::uint64_t merge_ns = elapsed_ns(merge_start);

  support::MetricsSnapshot& metrics = fleet.result.metrics;
  metrics.fleet_retries = retries_issued;
  metrics.fleet_corpus_merge_ns = merge_ns;
  metrics.frame_rtt_hist.merge(frame_rtt_hist);
  metrics.transport_send_hist.merge(transport_send_hist);
  metrics.corpus_merge_hist.merge(corpus_merge_hist);
  fleet.node_traces = std::move(node_traces);
  metrics.wall_ns = elapsed_ns(wall_start);
  return fleet;
}

support::Result<FleetResult, std::string> run_local_fleet(
    const std::string& scenario, CoordinatorOptions options,
    std::size_t workers) {
  if (workers == 0 || workers > options.shards) workers = options.shards;
  options.expected_workers = workers;
  InProcessQueue queue;
  std::vector<std::thread> threads;
  threads.reserve(workers);
  for (std::size_t i = 0; i < workers; ++i) {
    threads.emplace_back([&queue, &options, i] {
      WorkerOptions worker_options;
      worker_options.poll_limit = options.poll_limit;
      worker_options.idle_sleep_us = options.idle_sleep_us;
      worker_options.node = "local-w" + std::to_string(i);
      // In-process workers share the coordinator's TraceRecorder; if
      // they enabled/drained it per slice they would race each other and
      // steal the coordinator's events.  The CLI drains the shared
      // recorder once at the end instead, which yields the one-process
      // timeline that is actually true here.
      worker_options.ship_trace = false;
      // Worker errors surface as error ResultFrames or the
      // coordinator's poll limit; the thread itself just exits.
      (void)Worker(worker_options).serve(queue.worker_endpoint());
    });
  }
  Coordinator coordinator(scenario, options);
  auto result = coordinator.run(queue.coordinator_endpoint());
  for (std::thread& thread : threads) thread.join();
  return result;
}

}  // namespace ptest::fleet
