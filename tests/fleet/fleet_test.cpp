// Fleet suite: the extracted issue/ack/retry ledger, the JSON wire
// frames, both transports, and the keystone invariant of the whole
// module — a 2-shard fleet at total budget B is bit-identical (arm
// stats, failure signatures, work counters, coverage, merged corpus) to
// a single-process run at budget B under the same seed.
#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <filesystem>
#include <optional>
#include <stdexcept>
#include <string>
#include <string_view>
#include <thread>
#include <vector>

#include <fstream>
#include <memory>

#include "ptest/core/campaign.hpp"
#include "ptest/fleet/coordinator.hpp"
#include "ptest/fleet/ledger.hpp"
#include "ptest/fleet/socket_transport.hpp"
#include "ptest/fleet/transport.hpp"
#include "ptest/fleet/wire.hpp"
#include "ptest/fleet/worker.hpp"
#include "ptest/support/metrics.hpp"

namespace ptest::fleet {
namespace {

// ---------------------------------------------------------------------------
// ledger.hpp

TEST(OutstandingTable, SeqsAreOnlyBurnedByRecordedIssues) {
  OutstandingTable<int> table;
  EXPECT_EQ(table.next_seq(), 1u);
  EXPECT_EQ(table.next_seq(), 1u);  // peeking does not advance
  EXPECT_EQ(table.record_issue(10), 1u);
  EXPECT_EQ(table.next_seq(), 2u);
  EXPECT_EQ(table.record_issue(20), 2u);
  EXPECT_EQ(table.outstanding().size(), 2u);
}

TEST(OutstandingTable, AcknowledgeReturnsThePayloadOnce) {
  OutstandingTable<int> table;
  const std::uint32_t seq = table.record_issue(42);
  const auto first = table.acknowledge(seq);
  ASSERT_TRUE(first.has_value());
  EXPECT_EQ(*first, 42);
  // Duplicate and never-issued acks resolve to nullopt, not damage.
  EXPECT_FALSE(table.acknowledge(seq).has_value());
  EXPECT_FALSE(table.acknowledge(999).has_value());
  EXPECT_TRUE(table.empty());
}

TEST(RetryQueue, ChargesAttemptsPerKeyAndGivesUpPastBudget) {
  RetryQueue<int, int> retries({.max_attempts = 2, .delay = 5});
  EXPECT_TRUE(retries.schedule(7, 100, 0));
  EXPECT_TRUE(retries.schedule(7, 100, 0));
  EXPECT_FALSE(retries.schedule(7, 100, 0));  // third strike
  // A different key has its own budget.
  EXPECT_TRUE(retries.schedule(8, 200, 0));
}

TEST(RetryQueue, NotBeforeHonorsTheDelayAndRequeueKeepsAttempts) {
  RetryQueue<int, int> retries({.max_attempts = 16, .delay = 10});
  ASSERT_TRUE(retries.schedule(1, 42, 100));
  const auto* front = retries.front();
  ASSERT_NE(front, nullptr);
  EXPECT_EQ(front->not_before, 110u);
  EXPECT_EQ(front->attempts, 1u);
  auto record = retries.take_front();
  ASSERT_TRUE(record.has_value());
  EXPECT_TRUE(retries.empty());
  retries.requeue_front(std::move(*record));  // backpressure path
  ASSERT_NE(retries.front(), nullptr);
  EXPECT_EQ(retries.front()->attempts, 1u);  // attempt count intact
}

TEST(RetryQueue, TakeFrontOnAnEmptyQueueIsNulloptNotUB) {
  RetryQueue<int, int> retries({.max_attempts = 2, .delay = 0});
  EXPECT_FALSE(retries.take_front().has_value());
  ASSERT_TRUE(retries.schedule(1, 5, 0));
  EXPECT_TRUE(retries.take_front().has_value());
  EXPECT_FALSE(retries.take_front().has_value());  // drained again
}

TEST(RetryQueue, ForgiveResetsTheBudgetForAKey) {
  RetryQueue<int, int> retries({.max_attempts = 1, .delay = 0});
  EXPECT_TRUE(retries.schedule(3, 0, 0));
  EXPECT_FALSE(retries.schedule(3, 0, 0));
  retries.forgive(3);
  EXPECT_TRUE(retries.schedule(3, 0, 0));
}

// ---------------------------------------------------------------------------
// wire.hpp

TEST(Wire, AssignFrameRoundTripsWithAndWithoutSeed) {
  AssignFrame frame;
  frame.seq = 9;
  frame.slice = {.index = 1, .run_base = 12, .sessions = 12};
  frame.scenario = "philosophers-deadlock";
  frame.jobs = 4;
  for (const auto seed : {std::optional<std::uint64_t>{},
                          std::optional<std::uint64_t>{0xdeadbeefcafe}}) {
    frame.seed = seed;
    const auto decoded = decode(encode(frame));
    ASSERT_TRUE(decoded.ok()) << decoded.error();
    ASSERT_EQ(decoded.value().kind, FrameKind::kAssign);
    const AssignFrame& got = decoded.value().assign;
    EXPECT_EQ(got.seq, frame.seq);
    EXPECT_EQ(got.slice.index, frame.slice.index);
    EXPECT_EQ(got.slice.run_base, frame.slice.run_base);
    EXPECT_EQ(got.slice.sessions, frame.slice.sessions);
    EXPECT_EQ(got.scenario, frame.scenario);
    EXPECT_EQ(got.seed, frame.seed);
    EXPECT_EQ(got.jobs, frame.jobs);
  }
}

TEST(Wire, ShutdownRoundTrips) {
  const auto decoded = decode(encode_shutdown());
  ASSERT_TRUE(decoded.ok()) << decoded.error();
  EXPECT_EQ(decoded.value().kind, FrameKind::kShutdown);
}

TEST(Wire, CampaignEndRoundTripsAndIsDistinctFromShutdown) {
  const auto decoded = decode(encode_campaign_end());
  ASSERT_TRUE(decoded.ok()) << decoded.error();
  EXPECT_EQ(decoded.value().kind, FrameKind::kCampaignEnd);
  EXPECT_NE(encode_campaign_end(), encode_shutdown());
}

TEST(Wire, ResultFrameCarriesARealCampaignResult) {
  // Run a genuine slice so the frame carries failures, coverage and
  // metrics worth round-tripping, then check the deterministic surface
  // survives encode/decode exactly.
  const core::ShardSlice slice{.index = 0, .run_base = 0, .sessions = 8};
  auto ran = core::Campaign::run_scenario_slice("philosophers-deadlock", slice);
  ASSERT_TRUE(ran.ok()) << ran.error();
  const core::CampaignResult& result = ran.value();
  ASSERT_FALSE(result.distinct_failures.empty());
  ASSERT_FALSE(result.arm_coverage_state.empty());

  auto corpus = shard_corpus("philosophers-deadlock", slice, result);
  ASSERT_TRUE(corpus.ok()) << corpus.error();

  ResultFrame frame;
  frame.seq = 3;
  frame.shard = 0;
  frame.node = "daemon-42";
  frame.result = result;
  frame.corpus_json = corpus.value().to_json();
  frame.wall_ns = 12345;
  const auto decoded = decode(encode(frame));
  ASSERT_TRUE(decoded.ok()) << decoded.error();
  ASSERT_EQ(decoded.value().kind, FrameKind::kResult);
  const ResultFrame& got = decoded.value().result;
  EXPECT_EQ(got.seq, 3u);
  EXPECT_EQ(got.shard, 0u);
  EXPECT_EQ(got.node, "daemon-42");
  EXPECT_TRUE(got.error.empty());
  EXPECT_EQ(got.wall_ns, 12345u);
  EXPECT_EQ(got.corpus_json, frame.corpus_json);

  const core::CampaignResult& r = got.result;
  EXPECT_EQ(r.total_runs, result.total_runs);
  EXPECT_EQ(r.total_detections, result.total_detections);
  ASSERT_EQ(r.arm_stats.size(), result.arm_stats.size());
  EXPECT_EQ(r.arm_stats[0].runs, result.arm_stats[0].runs);
  EXPECT_EQ(r.arm_stats[0].detections, result.arm_stats[0].detections);
  ASSERT_EQ(r.distinct_failures.size(), result.distinct_failures.size());
  for (auto it = r.distinct_failures.begin(),
            ref = result.distinct_failures.begin();
       it != r.distinct_failures.end(); ++it, ++ref) {
    EXPECT_EQ(it->first, ref->first);
    EXPECT_EQ(it->second.signature(), ref->second.signature());
    EXPECT_EQ(it->second.kind, ref->second.kind);
    EXPECT_EQ(it->second.seed, ref->second.seed);
    EXPECT_EQ(it->second.merged.elements, ref->second.merged.elements);
  }
  ASSERT_EQ(r.arm_coverage_state.size(), 1u);
  EXPECT_EQ(r.arm_coverage_state[0], result.arm_coverage_state[0]);
  // The whole snapshot survives, the pfa_* rows rederived from the
  // coverage states.
  EXPECT_TRUE(r.metrics == result.metrics);
}

TEST(Wire, DecodeRejectsGarbageAndWrongVersions) {
  EXPECT_FALSE(decode("").ok());
  EXPECT_FALSE(decode("not json").ok());
  EXPECT_FALSE(decode("{}").ok());
  EXPECT_FALSE(decode(R"({"wire_version": 999, "kind": "shutdown"})").ok());
  // v1 frames (no campaign-end, no result node) are a different
  // protocol, not a degraded peer.
  EXPECT_FALSE(decode(R"({"wire_version": 1, "kind": "shutdown"})").ok());
  EXPECT_FALSE(decode(R"({"wire_version": 2, "kind": "mystery"})").ok());
  // An assign without a scenario is malformed, not defaulted.
  EXPECT_FALSE(decode(R"({"wire_version": 2, "kind": "assign"})").ok());
  // v3 metrics blocks had a different key set; v4 peers refuse them.
  EXPECT_FALSE(decode(R"({"wire_version": 3, "kind": "shutdown"})").ok());
}

/// A genuine slice's result frame (failures, coverage, work counters)
/// with the fleet counters and every histogram filled too.
ResultFrame seeded_result_frame() {
  const core::ShardSlice slice{.index = 0, .run_base = 0, .sessions = 8};
  auto ran = core::Campaign::run_scenario_slice("philosophers-deadlock", slice);
  EXPECT_TRUE(ran.ok()) << ran.error();
  ResultFrame frame;
  frame.seq = 5;
  frame.shard = 1;
  frame.node = "fuzz";
  frame.result = ran.value();
  frame.wall_ns = 777;
  support::MetricsSnapshot& m = frame.result.metrics;
  m.fleet_shards = 2;
  m.fleet_retries = 1;
  m.fleet_corpus_merge_ns = 4321;
  m.fleet_shard_wall_max_ns = 900;
  m.fleet_shard_wall_min_ns = 300;
  m.corpus_merge_hist.record(4321);
  m.frame_rtt_hist.record(100'000);
  m.transport_send_hist.record(70);
  return frame;
}

/// Decodes a mutated frame, which must either decode or fail with a
/// clean "wire:" error — never crash (the sanitized CI step runs this).
/// Returns whether it decoded.
bool decodes_or_rejects_cleanly(std::string_view text) {
  const auto decoded = decode(text);
  if (!decoded.ok()) {
    EXPECT_EQ(decoded.error().rfind("wire: ", 0), 0u) << decoded.error();
  }
  return decoded.ok();
}

TEST(Wire, MetricsBlockSurvivesRoundTripAndMutation) {
  const ResultFrame frame = seeded_result_frame();
  ASSERT_FALSE(frame.result.distinct_failures.empty());
  ASSERT_FALSE(frame.result.arm_coverage_state.empty());
  const std::string text = encode(frame);

  // Unmutated: the whole snapshot and the whole frame survive.
  const auto clean = decode(text);
  ASSERT_TRUE(clean.ok()) << clean.error();
  EXPECT_TRUE(clean.value().result.result.metrics == frame.result.metrics);
  EXPECT_EQ(encode(clean.value().result), text);

  // The metrics object is flat (histograms are arrays), so its first '}'
  // closes it.
  const std::size_t begin = text.find("\"metrics\":{");
  ASSERT_NE(begin, std::string::npos);
  const std::size_t end = text.find('}', begin);
  ASSERT_NE(end, std::string::npos);

  for (std::size_t pos = begin; pos <= end; ++pos) {
    for (int bit = 0; bit < 8; ++bit) {
      std::string flipped = text;
      flipped[pos] = static_cast<char>(flipped[pos] ^ (1 << bit));
      decodes_or_rejects_cleanly(flipped);
    }
    EXPECT_FALSE(decodes_or_rejects_cleanly(text.substr(0, pos)))
        << "cut at " << pos;
  }

  // Deleting any one key rejects the frame, naming the key.
  const auto doc = support::parse_json(text);
  ASSERT_TRUE(doc.ok()) << doc.error();
  for (const auto& [key, value] :
       doc.value().at("result").at("metrics").object) {
    SCOPED_TRACE(key);
    const std::size_t at = text.find("\"" + key + "\":", begin);
    ASSERT_LT(at, end);
    std::size_t value_end = at + key.size() + 3;
    if (text[value_end] == '[') {
      for (int depth = 0; value_end < end; ++value_end) {
        depth += text[value_end] == '[' ? 1 : text[value_end] == ']' ? -1 : 0;
        if (depth == 0) break;
      }
      ++value_end;
    } else {
      value_end = text.find_first_of(",}", value_end);
    }
    std::string deleted = text;
    if (deleted[value_end] == ',') {
      deleted.erase(at, value_end + 1 - at);  // the key and its comma
    } else {
      deleted.erase(at - 1, value_end - at + 1);  // last key: the comma before
    }
    const auto decoded = decode(deleted);
    ASSERT_FALSE(decoded.ok());
    EXPECT_NE(decoded.error().find(key), std::string::npos)
        << decoded.error();
  }
}

// ---------------------------------------------------------------------------
// transports

TEST(InProcessQueue, DeliversEachFrameToExactlyOneEndAndBackpressures) {
  InProcessQueue queue(2);
  Transport& coordinator = queue.coordinator_endpoint();
  Transport& worker = queue.worker_endpoint();
  EXPECT_FALSE(worker.receive().has_value());
  ASSERT_TRUE(coordinator.send("a"));
  ASSERT_TRUE(coordinator.send("b"));
  EXPECT_FALSE(coordinator.send("c"));  // capacity 2: backpressure
  EXPECT_EQ(worker.receive().value_or(""), "a");
  ASSERT_TRUE(coordinator.send("c"));  // freed a slot
  EXPECT_EQ(worker.receive().value_or(""), "b");
  EXPECT_EQ(worker.receive().value_or(""), "c");
  EXPECT_FALSE(worker.receive().has_value());
  // The reverse direction is its own queue.
  ASSERT_TRUE(worker.send("r"));
  EXPECT_FALSE(worker.receive().has_value());
  EXPECT_EQ(coordinator.receive().value_or(""), "r");
}

TEST(FileQueueTransport, RoundTripsFramesThroughTheSpool) {
  const std::filesystem::path root =
      std::filesystem::path(::testing::TempDir()) / "fleet_spool_roundtrip";
  std::filesystem::remove_all(root);
  FileQueueTransport coordinator(root, FileQueueTransport::Role::kCoordinator,
                                 "coord");
  FileQueueTransport worker(root, FileQueueTransport::Role::kWorker, "w0");
  EXPECT_FALSE(worker.receive().has_value());
  ASSERT_TRUE(coordinator.send("first"));
  ASSERT_TRUE(coordinator.send("second"));
  EXPECT_EQ(worker.receive().value_or(""), "first");  // counter order
  EXPECT_EQ(worker.receive().value_or(""), "second");
  EXPECT_FALSE(worker.receive().has_value());
  ASSERT_TRUE(worker.send("reply"));
  EXPECT_EQ(coordinator.receive().value_or(""), "reply");
  std::filesystem::remove_all(root);
}

TEST(FileQueueTransport, CompetingWorkersClaimEachFrameOnce) {
  const std::filesystem::path root =
      std::filesystem::path(::testing::TempDir()) / "fleet_spool_claims";
  std::filesystem::remove_all(root);
  FileQueueTransport coordinator(root, FileQueueTransport::Role::kCoordinator,
                                 "coord");
  FileQueueTransport w0(root, FileQueueTransport::Role::kWorker, "w0");
  FileQueueTransport w1(root, FileQueueTransport::Role::kWorker, "w1");
  const int frames = 20;
  for (int i = 0; i < frames; ++i) {
    ASSERT_TRUE(coordinator.send("frame-" + std::to_string(i)));
  }
  std::vector<std::string> claimed;
  while (true) {
    auto a = w0.receive();
    auto b = w1.receive();
    if (a) claimed.push_back(*a);
    if (b) claimed.push_back(*b);
    if (!a && !b) break;
  }
  std::sort(claimed.begin(), claimed.end());
  EXPECT_EQ(claimed.size(), static_cast<std::size_t>(frames));
  EXPECT_EQ(std::unique(claimed.begin(), claimed.end()), claimed.end());
  std::filesystem::remove_all(root);
}

TEST(FileQueueTransport, RecoversItsOwnStaleTmpFilesOnConstruction) {
  namespace fs = std::filesystem;
  const fs::path root =
      fs::path(::testing::TempDir()) / "fleet_spool_recovery";
  fs::remove_all(root);
  fs::create_directories(root / "work");
  fs::create_directories(root / "results");
  fs::create_directories(root / "tmp");
  // A previous "w0" process crashed holding a claimed work frame...
  {
    std::ofstream out(root / "tmp" / "claim-w0-00000000000000000000");
    out << "frame-that-must-not-be-lost";
  }
  // ...and a previous "coord" process crashed between writing a frame
  // and its atomic rename-publish.
  {
    std::ofstream out(root / "tmp" / "00000000000000000007-coord");
    out << "half-writ";
  }
  FileQueueTransport worker(root, FileQueueTransport::Role::kWorker, "w0");
  // The stale claim went back to the inbox and delivers normally.
  EXPECT_EQ(worker.receive().value_or(""), "frame-that-must-not-be-lost");
  // The other node's husk was not w0's to touch...
  EXPECT_TRUE(fs::exists(root / "tmp" / "00000000000000000007-coord"));
  FileQueueTransport coordinator(root, FileQueueTransport::Role::kCoordinator,
                                 "coord");
  // ...but the restarted publisher deletes it: that send never returned
  // true, so the frame was never logically sent.
  EXPECT_FALSE(fs::exists(root / "tmp" / "00000000000000000007-coord"));
  EXPECT_FALSE(worker.receive().has_value());
  fs::remove_all(root);
}

TEST(FileQueueTransport, InboxScanSkipsUnstatableEntriesNotTheWholePoll) {
  namespace fs = std::filesystem;
  const fs::path root =
      fs::path(::testing::TempDir()) / "fleet_spool_unstatable";
  fs::remove_all(root);
  FileQueueTransport coordinator(root, FileQueueTransport::Role::kCoordinator,
                                 "coord");
  FileQueueTransport worker(root, FileQueueTransport::Role::kWorker, "w0");
  for (int i = 0; i < 3; ++i) {
    ASSERT_TRUE(coordinator.send("frame-" + std::to_string(i)));
  }
  // A self-referencing symlink in the inbox stats with ELOOP.  The scan
  // must skip the one bad entry, not abort and postpone every pending
  // frame behind it forever.
  fs::create_symlink("0-loop", root / "work" / "0-loop");
  for (int i = 0; i < 3; ++i) {
    EXPECT_EQ(worker.receive().value_or(""), "frame-" + std::to_string(i));
  }
  EXPECT_FALSE(worker.receive().has_value());
  fs::remove_all(root);
}

// ---------------------------------------------------------------------------
// the fleet invariant

/// Full bit-identity check between a fleet result and the serial
/// reference: arm stats, failure signatures, every deterministic work
/// counter, coverage state, and the merged corpus document.
void expect_fleet_identical(const FleetResult& fleet,
                            const core::CampaignResult& serial,
                            const std::string& scenario,
                            std::size_t budget) {
  const core::CampaignResult& merged = fleet.result;
  EXPECT_EQ(merged.total_runs, serial.total_runs);
  EXPECT_EQ(merged.total_detections, serial.total_detections);
  ASSERT_EQ(merged.arm_stats.size(), serial.arm_stats.size());
  EXPECT_EQ(merged.arm_stats[0].runs, serial.arm_stats[0].runs);
  EXPECT_EQ(merged.arm_stats[0].detections, serial.arm_stats[0].detections);

  ASSERT_EQ(merged.distinct_failures.size(), serial.distinct_failures.size());
  for (auto it = merged.distinct_failures.begin(),
            ref = serial.distinct_failures.begin();
       it != merged.distinct_failures.end(); ++it, ++ref) {
    EXPECT_EQ(it->first, ref->first);
    EXPECT_EQ(it->second.signature(), ref->second.signature());
    EXPECT_EQ(it->second.seed, ref->second.seed);
    EXPECT_EQ(it->second.detected_at, ref->second.detected_at);
    EXPECT_EQ(it->second.merged.elements, ref->second.merged.elements);
  }

  EXPECT_EQ(support::work_difference(merged.metrics, serial.metrics), "");
  ASSERT_EQ(merged.arm_coverage_state.size(),
            serial.arm_coverage_state.size());
  if (!merged.arm_coverage_state.empty()) {
    EXPECT_EQ(merged.arm_coverage_state[0], serial.arm_coverage_state[0]);
  }

  // The merged corpus must be byte-for-byte the corpus the serial run
  // exports for its whole budget as one slice.
  const core::ShardSlice whole{.index = 0, .run_base = 0, .sessions = budget};
  auto reference = shard_corpus(scenario, whole, serial);
  ASSERT_TRUE(reference.ok()) << reference.error();
  EXPECT_EQ(fleet.corpus.to_json(), reference.value().to_json());
  ASSERT_EQ(fleet.corpus.spans().size(), 1u);  // shards coalesced
  EXPECT_EQ(fleet.corpus.spans()[0].sessions, budget);
}

TEST(Fleet, PlanShardsCoverTheBudgetContiguously) {
  const auto slices = core::Campaign::plan_shards(25, 4);
  ASSERT_EQ(slices.size(), 4u);
  std::size_t next = 0, total = 0;
  for (std::size_t i = 0; i < slices.size(); ++i) {
    EXPECT_EQ(slices[i].index, i);
    EXPECT_EQ(slices[i].run_base, next);
    next += slices[i].sessions;
    total += slices[i].sessions;
  }
  EXPECT_EQ(total, 25u);
  // Degenerate shapes: more shards than budget, and zero shards.
  EXPECT_EQ(core::Campaign::plan_shards(2, 8).size(), 2u);
  EXPECT_EQ(core::Campaign::plan_shards(5, 0).size(), 1u);
}

TEST(Fleet, InProcessTwoShardFleetIsBitIdenticalToSerial) {
  const std::string scenario = "philosophers-deadlock";
  const std::size_t budget = 24;
  core::CampaignOptions serial_options;
  serial_options.budget = budget;
  auto serial = core::Campaign::run_scenario(scenario, serial_options);
  ASSERT_TRUE(serial.ok()) << serial.error();
  ASSERT_GT(serial.value().total_detections, 0u);  // a vacuous pass hides bugs

  CoordinatorOptions options;
  options.shards = 2;
  options.budget = budget;
  auto fleet = run_local_fleet(scenario, options);
  ASSERT_TRUE(fleet.ok()) << fleet.error();
  expect_fleet_identical(fleet.value(), serial.value(), scenario, budget);
  EXPECT_EQ(fleet.value().result.metrics.fleet_shards, 2u);
  EXPECT_EQ(fleet.value().result.metrics.fleet_retries, 0u);
}

TEST(Fleet, ShardCountAndWorkerJobsDoNotChangeTheResult) {
  // 3 shards over an uneven budget, workers running jobs=2 internally:
  // still the serial answer.  This stacks both split axes (shard slices
  // across the fleet, worker threads within a shard).
  const std::string scenario = "lost-update";
  const std::size_t budget = 18;
  core::CampaignOptions serial_options;
  serial_options.budget = budget;
  auto serial = core::Campaign::run_scenario(scenario, serial_options);
  ASSERT_TRUE(serial.ok()) << serial.error();

  CoordinatorOptions options;
  options.shards = 3;
  options.jobs = 2;
  options.budget = budget;
  auto fleet = run_local_fleet(scenario, options);
  ASSERT_TRUE(fleet.ok()) << fleet.error();
  expect_fleet_identical(fleet.value(), serial.value(), scenario, budget);
  EXPECT_EQ(fleet.value().result.metrics.fleet_shards, 3u);
}

TEST(Fleet, FileQueueFleetMatchesSerialToo) {
  const std::string scenario = "philosophers-deadlock";
  const std::size_t budget = 16;
  core::CampaignOptions serial_options;
  serial_options.budget = budget;
  auto serial = core::Campaign::run_scenario(scenario, serial_options);
  ASSERT_TRUE(serial.ok()) << serial.error();

  const std::filesystem::path root =
      std::filesystem::path(::testing::TempDir()) / "fleet_spool_campaign";
  std::filesystem::remove_all(root);

  CoordinatorOptions options;
  options.shards = 2;
  options.budget = budget;
  options.idle_sleep_us = 200;
  options.poll_limit = 1'000'000;  // bound a hang well under the timeout
  WorkerOptions worker_options;
  worker_options.idle_sleep_us = 200;
  worker_options.poll_limit = 1'000'000;

  std::vector<std::thread> workers;
  for (const char* node : {"w0", "w1"}) {
    workers.emplace_back([&root, worker_options, node] {
      FileQueueTransport transport(root, FileQueueTransport::Role::kWorker,
                                   node);
      auto served = Worker(worker_options).serve(transport);
      EXPECT_TRUE(served.ok()) << served.error();
    });
  }
  FileQueueTransport transport(root, FileQueueTransport::Role::kCoordinator,
                               "coord");
  auto fleet = Coordinator(scenario, options).run(transport);
  for (std::thread& thread : workers) thread.join();
  ASSERT_TRUE(fleet.ok()) << fleet.error();
  expect_fleet_identical(fleet.value(), serial.value(), scenario, budget);
  std::filesystem::remove_all(root);
}

TEST(Fleet, CoordinatorRejectsUnknownScenarios) {
  InProcessQueue queue;
  auto result = Coordinator("no-such-scenario").run(queue.coordinator_endpoint());
  ASSERT_FALSE(result.ok());
  EXPECT_NE(result.error().find("unknown scenario"), std::string::npos);
}

TEST(Fleet, CoordinatorRetriesErrorFramesUnderTheBudget) {
  // Hand-drive the worker side: bounce the first assignment with an
  // error frame, then serve the retries honestly with a real worker.
  InProcessQueue queue;
  Transport& worker_end = queue.worker_endpoint();

  CoordinatorOptions options;
  options.shards = 2;
  options.budget = 8;
  options.retry.delay = 0;  // due immediately
  Coordinator coordinator("philosophers-deadlock", options);

  std::thread worker_thread([&worker_end] {
    // Bounce exactly one assignment...
    std::optional<std::string> text;
    while (!(text = worker_end.receive())) std::this_thread::yield();
    auto frame = decode(*text);
    ASSERT_TRUE(frame.ok()) << frame.error();
    ASSERT_EQ(frame.value().kind, FrameKind::kAssign);
    ResultFrame bounce;
    bounce.seq = frame.value().assign.seq;
    bounce.shard = frame.value().assign.slice.index;
    bounce.error = "transient spool hiccup";
    while (!worker_end.send(encode(bounce))) std::this_thread::yield();
    // ...then serve the rest (including the re-issue) for real.
    auto served = Worker().serve(worker_end);
    EXPECT_TRUE(served.ok()) << served.error();
  });

  auto fleet = coordinator.run(queue.coordinator_endpoint());
  worker_thread.join();
  ASSERT_TRUE(fleet.ok()) << fleet.error();
  EXPECT_EQ(fleet.value().result.metrics.fleet_retries, 1u);

  // And the retried fleet still matches the serial run.
  core::CampaignOptions serial_options;
  serial_options.budget = 8;
  auto serial =
      core::Campaign::run_scenario("philosophers-deadlock", serial_options);
  ASSERT_TRUE(serial.ok()) << serial.error();
  expect_fleet_identical(fleet.value(), serial.value(),
                         "philosophers-deadlock", 8);
}

TEST(Fleet, SocketTwoWorkerFleetIsBitIdenticalToSerial) {
  const std::string scenario = "philosophers-deadlock";
  const std::size_t budget = 16;
  core::CampaignOptions serial_options;
  serial_options.budget = budget;
  auto serial = core::Campaign::run_scenario(scenario, serial_options);
  ASSERT_TRUE(serial.ok()) << serial.error();

  // Two TCP worker daemons on kernel-assigned localhost ports; the
  // coordinator dials both and drains with shutdown so they exit.
  auto listener0 = std::make_unique<SocketTransport>(SocketTransport::Listen{0});
  auto listener1 = std::make_unique<SocketTransport>(SocketTransport::Listen{0});
  WorkerOptions worker_options;
  worker_options.idle_sleep_us = 200;
  worker_options.poll_limit = 1'000'000;
  std::vector<std::thread> workers;
  int node = 0;
  for (SocketTransport* transport : {listener0.get(), listener1.get()}) {
    WorkerOptions options = worker_options;
    options.node = "sock-w" + std::to_string(node++);
    workers.emplace_back([transport, options] {
      auto served = Worker(options).serve(*transport);
      EXPECT_TRUE(served.ok()) << served.error();
    });
  }

  CoordinatorOptions options;
  options.shards = 2;
  options.budget = budget;
  options.idle_sleep_us = 200;
  options.poll_limit = 1'000'000;
  options.shard_deadline = 500'000;  // armed but far beyond shard wall time
  SocketTransport transport(SocketTransport::Connect{
      {"127.0.0.1:" + std::to_string(listener0->port()),
       "127.0.0.1:" + std::to_string(listener1->port())}});
  auto fleet = Coordinator(scenario, options).run(transport);
  for (std::thread& thread : workers) thread.join();
  ASSERT_TRUE(fleet.ok()) << fleet.error();
  expect_fleet_identical(fleet.value(), serial.value(), scenario, budget);
  EXPECT_EQ(fleet.value().result.metrics.fleet_retries, 0u);
}

TEST(Fleet, PersistentDaemonServesTwoCampaignsThenHaltsOnShutdown) {
  const std::string scenario = "lost-update";
  const std::size_t budget = 12;
  auto listener = std::make_unique<SocketTransport>(SocketTransport::Listen{0});
  const std::string endpoint =
      "127.0.0.1:" + std::to_string(listener->port());

  WorkerOptions worker_options;
  worker_options.idle_sleep_us = 200;
  worker_options.poll_limit = 5'000'000;
  worker_options.persistent = true;
  worker_options.node = "daemon-0";
  std::thread daemon([&listener, worker_options] {
    auto served = Worker(worker_options).serve(*listener);
    ASSERT_TRUE(served.ok()) << served.error();
    // Two campaigns x two shards, all through one daemon process.
    EXPECT_EQ(served.value(), 4u);
  });

  CoordinatorOptions options;
  options.shards = 2;
  options.budget = budget;
  options.idle_sleep_us = 200;
  options.poll_limit = 1'000'000;
  options.drain = DrainMode::kCampaignEnd;  // leave the daemon running
  std::vector<FleetResult> campaigns;
  for (int campaign = 0; campaign < 2; ++campaign) {
    // Each campaign is its own coordinator process in miniature: fresh
    // connection, full protocol, campaign-end, disconnect.
    SocketTransport transport(SocketTransport::Connect{{endpoint}});
    auto fleet = Coordinator(scenario, options).run(transport);
    ASSERT_TRUE(fleet.ok()) << fleet.error();
    campaigns.push_back(std::move(fleet.value()));
  }
  // Same daemon, same inputs: identical campaigns.
  EXPECT_EQ(campaigns[0].corpus.to_json(), campaigns[1].corpus.to_json());
  EXPECT_EQ(campaigns[0].result.total_detections,
            campaigns[1].result.total_detections);

  // --halt-fleet in miniature: an explicit shutdown broadcast is what
  // ends the daemon, not any campaign boundary.
  SocketTransport halt(SocketTransport::Connect{{endpoint}});
  while (!halt.send(encode_shutdown())) std::this_thread::yield();
  daemon.join();
}

TEST(Fleet, ShardDeadlineReissuesWorkLostWithADeadWorker) {
  // The first assignment is claimed and never answered — a worker died
  // mid-shard.  The deadline must reclaim it through the retry queue
  // and a healthy worker must finish the campaign, still bit-identical.
  InProcessQueue queue;
  Transport& worker_end = queue.worker_endpoint();

  CoordinatorOptions options;
  options.shards = 2;
  options.budget = 8;
  options.retry.delay = 0;
  // Busy-spin polls: long enough that a shard a *live* worker is
  // computing is very unlikely to be reclaimed, short enough that the
  // swallowed shard's reclaim lands in well under a second.
  options.shard_deadline = 2'000'000;
  Coordinator coordinator("philosophers-deadlock", options);

  std::thread worker_thread([&worker_end] {
    std::optional<std::string> text;
    while (!(text = worker_end.receive())) std::this_thread::yield();
    auto frame = decode(*text);
    ASSERT_TRUE(frame.ok()) << frame.error();
    ASSERT_EQ(frame.value().kind, FrameKind::kAssign);
    // Swallow it (the dead worker), then serve honestly.
    auto served = Worker().serve(worker_end);
    EXPECT_TRUE(served.ok()) << served.error();
  });

  auto fleet = coordinator.run(queue.coordinator_endpoint());
  worker_thread.join();
  ASSERT_TRUE(fleet.ok()) << fleet.error();
  // At least the swallowed shard was reclaimed (a slow live shard may
  // legitimately add more); duplicates are absorbed either way.
  EXPECT_GE(fleet.value().result.metrics.fleet_retries, 1u);

  core::CampaignOptions serial_options;
  serial_options.budget = 8;
  auto serial =
      core::Campaign::run_scenario("philosophers-deadlock", serial_options);
  ASSERT_TRUE(serial.ok()) << serial.error();
  expect_fleet_identical(fleet.value(), serial.value(),
                         "philosophers-deadlock", 8);
}

/// Test double for duplicate delivery: every frame the worker sends
/// arrives twice at the coordinator (an at-least-once transport, or a
/// straggler racing a deadline re-issue).
class DuplicatingTransport final : public Transport {
 public:
  explicit DuplicatingTransport(Transport& inner) : inner_(inner) {}
  [[nodiscard]] bool send(const std::string& frame) override {
    if (!inner_.send(frame)) return false;
    (void)inner_.send(frame);  // best-effort duplicate
    return true;
  }
  [[nodiscard]] std::optional<std::string> receive() override {
    return inner_.receive();
  }

 private:
  Transport& inner_;
};

TEST(Fleet, DuplicateResultDeliveryIsAbsorbedFirstWins) {
  InProcessQueue queue;
  DuplicatingTransport duplicating(queue.worker_endpoint());

  CoordinatorOptions options;
  options.shards = 2;
  options.budget = 8;
  Coordinator coordinator("philosophers-deadlock", options);
  std::thread worker_thread([&duplicating] {
    auto served = Worker().serve(duplicating);
    EXPECT_TRUE(served.ok()) << served.error();
  });
  auto fleet = coordinator.run(queue.coordinator_endpoint());
  worker_thread.join();
  ASSERT_TRUE(fleet.ok()) << fleet.error();
  // The duplicates dropped as stale seqs: nothing retried, nothing
  // double-merged.
  EXPECT_EQ(fleet.value().result.metrics.fleet_retries, 0u);

  core::CampaignOptions serial_options;
  serial_options.budget = 8;
  auto serial =
      core::Campaign::run_scenario("philosophers-deadlock", serial_options);
  ASSERT_TRUE(serial.ok()) << serial.error();
  expect_fleet_identical(fleet.value(), serial.value(),
                         "philosophers-deadlock", 8);
}

/// Drains `endpoint` and returns how many shutdown frames it held.
int count_shutdown_frames(Transport& endpoint) {
  int shutdowns = 0;
  while (auto text = endpoint.receive()) {
    auto frame = decode(*text);
    if (frame.ok() && frame.value().kind == FrameKind::kShutdown) {
      ++shutdowns;
    }
  }
  return shutdowns;
}

TEST(Fleet, PollLimitErrorStillBroadcastsTheDrain) {
  // Nobody serves: the run fails on its poll limit — and the workers
  // (who may simply be slow, not dead) must still find shutdown frames
  // waiting, not spin to their own limits.
  InProcessQueue queue;
  CoordinatorOptions options;
  options.shards = 2;
  options.budget = 8;
  options.poll_limit = 10;
  auto result =
      Coordinator("philosophers-deadlock", options).run(
          queue.coordinator_endpoint());
  ASSERT_FALSE(result.ok());
  EXPECT_NE(result.error().find("poll limit"), std::string::npos);
  EXPECT_GE(count_shutdown_frames(queue.worker_endpoint()), 2);
}

TEST(Fleet, DecodeFailureStillBroadcastsTheDrain) {
  InProcessQueue queue;
  Transport& worker_end = queue.worker_endpoint();
  ASSERT_TRUE(worker_end.send("this is not a frame"));
  CoordinatorOptions options;
  options.shards = 2;
  options.budget = 8;
  auto result =
      Coordinator("philosophers-deadlock", options).run(
          queue.coordinator_endpoint());
  ASSERT_FALSE(result.ok());
  EXPECT_GE(count_shutdown_frames(worker_end), 2);
}

TEST(Fleet, MultiArmCampaignsRefuseToShard) {
  core::PtestConfig config;
  std::vector<core::CampaignArm> arms(2);
  arms[0].name = "a";
  arms[1].name = "b";
  core::Campaign campaign(config, arms, {});
  EXPECT_THROW((void)campaign.run_slice({.index = 0, .run_base = 0,
                                         .sessions = 4}),
               std::invalid_argument);
}

TEST(Fleet, MetricsSnapshotDerivesShardImbalance) {
  support::MetricsSnapshot metrics;
  EXPECT_EQ(metrics.fleet_shard_imbalance(), 0.0);
  metrics.fleet_shards = 2;
  metrics.fleet_shard_wall_max_ns = 300;
  metrics.fleet_shard_wall_min_ns = 100;
  EXPECT_DOUBLE_EQ(metrics.fleet_shard_imbalance(), 3.0);
  // A genuinely instantaneous fastest shard is a 0ns minimum, not an
  // unset sentinel: the ratio stays finite (min floored at 1ns) instead
  // of collapsing to the "no fleet ran" 0.
  metrics.fleet_shard_wall_min_ns = 0;
  EXPECT_DOUBLE_EQ(metrics.fleet_shard_imbalance(), 300.0);
}

}  // namespace
}  // namespace ptest::fleet
