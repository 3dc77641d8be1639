// Fleet wire frames — the coordinator/worker protocol, extracted from
// the bridge's lesson rather than its bytes.
//
// bridge/protocol.hpp frames commands for the simulated master/slave
// channel as packed structs because both ends share one address space
// and one build.  A fleet worker is a separate *process* (possibly a
// different build on another host), so its framing must be
// self-describing and versioned instead: each frame is one JSON
// document written with support::JsonWriter and reloaded with
// support::parse_json — the same strict round-trip pair the guided
// corpus trusts.  Transports carry frames as opaque strings; nothing
// here knows whether the string crossed a mutex or a socket.
//
// Four frames make up the protocol:
//   * AssignFrame     coordinator -> worker: run this shard slice of a
//                     scenario campaign;
//   * ResultFrame     worker -> coordinator: the slice's CampaignResult
//                     (reduced to its deterministic surface: arm stats,
//                     distinct failures with their replay bundles,
//                     coverage state, work counters) plus the shard's
//                     corpus as an embedded JSON document;
//   * CampaignEnd     coordinator -> worker: this campaign is over.  A
//                     persistent worker daemon stays up and waits for
//                     the next campaign; a one-shot worker exits;
//   * ShutdownFrame   coordinator -> worker: drain and exit the
//                     process, ending daemons too.
//
// ResultFrame carries each failure in the compact form BugReport holds
// it: CP records and trace events as numbers, plus the kernel-snapshot
// fields BugReport::render() reads (not the heap statistics, switch
// counts or per-task progress).  A decoded report therefore renders the
// same bytes as the original and replays to the identical failure.  The
// fleet bit-identity contract is over signatures, counters, coverage and
// corpora.
#pragma once

#include <cstdint>
#include <optional>
#include <string>
#include <string_view>

#include "ptest/core/campaign.hpp"
#include "ptest/support/result.hpp"

namespace ptest::fleet {

/// Protocol version; decode rejects frames from other versions.
/// v2 added the campaign-end frame and the reporting worker's node id
/// on result frames.  v3 added the trace request flag on assigns, the
/// shipped trace fragment on results, and the fleet counters +
/// histogram distributions in the metrics block.  v4 made the metrics
/// block support::MetricsSnapshot::write_json — one key per counter row
/// and histogram of the metrics table, so adding a counter changes the
/// key set, and the strict decoder needs a version bump for it.  v5
/// ships failures' CP records and trace tails as numbers instead of
/// rendered text, plus the kernel fields the report rendering reads.
/// v6 adds the quiet-phase rows (quiet_ticks, quiet_checks) to the
/// metrics block.  v7 drops four rows that restated other counters
/// (plan_cache_hits, dedup_accepted, scratch_reuse_hits,
/// sample_alloc_bytes_saved).
inline constexpr std::uint64_t kWireVersion = 7;

enum class FrameKind : std::uint8_t {
  kAssign,
  kResult,
  kCampaignEnd,
  kShutdown,
};

struct AssignFrame {
  std::uint32_t seq = 0;
  core::ShardSlice slice;
  std::string scenario;
  /// Seed override for the scenario's plan; unset = the plan's own seed.
  std::optional<std::uint64_t> seed;
  /// Worker-local parallelism for the slice (CampaignOptions::jobs).
  std::size_t jobs = 1;
  /// Ask the worker to record a trace of this slice and ship the tail
  /// back on the result frame (obs::TraceRecorder).
  bool trace = false;
};

struct ResultFrame {
  std::uint32_t seq = 0;
  std::size_t shard = 0;
  /// Reporting worker's node id (may be empty).  The coordinator counts
  /// distinct nodes so its end-of-campaign drain broadcast reaches the
  /// workers that actually exist, not the shard count.
  std::string node;
  /// Non-empty = the slice failed (message); `result` is then empty and
  /// the coordinator re-issues the assignment under its retry budget.
  std::string error;
  core::CampaignResult result;
  /// The shard's CoverageCorpus as its own JSON document (the corpus
  /// format owns its schema; embedding the string keeps one parser).
  std::string corpus_json;
  /// Shard wall time (fleet_shard_imbalance metric).
  std::uint64_t wall_ns = 0;
  /// The worker's trace tail for this slice as its own JSON document
  /// (obs::trace_fragment_json: events rebased to the slice start, plus
  /// the ring-wrap drop count).  Empty when the assign didn't ask for a
  /// trace; embedded as a string for the same one-parser reason as
  /// corpus_json.
  std::string trace_json;
};

[[nodiscard]] std::string encode(const AssignFrame& frame);
[[nodiscard]] std::string encode(const ResultFrame& frame);
[[nodiscard]] std::string encode_campaign_end();
[[nodiscard]] std::string encode_shutdown();

/// One decoded frame; `kind` selects which member is meaningful.
struct DecodedFrame {
  FrameKind kind = FrameKind::kShutdown;
  AssignFrame assign;
  ResultFrame result;
};

[[nodiscard]] support::Result<DecodedFrame, std::string> decode(
    std::string_view text);

}  // namespace ptest::fleet
