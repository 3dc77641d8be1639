// fleet::Worker — the executing half of the coordinator/worker split.
//
// A worker owns no policy: it polls its transport for AssignFrames,
// runs each assigned shard slice through the exact code path the serial
// runner uses (core::Campaign::run_scenario_slice), reports a
// ResultFrame per slice — campaign result, session-span corpus, wall
// time — and exits on a shutdown frame.  A slice that fails (unknown
// scenario, multi-arm plan) is reported as an error frame so the
// coordinator can retry or abort; the worker itself keeps serving.
//
// A *persistent* worker (WorkerOptions::persistent, the `--listen`
// daemon mode) additionally survives campaign boundaries: a
// campaign-end frame resets its idle clock and it keeps serving the
// next coordinator; only an explicit shutdown frame ends it.
#pragma once

#include <cstdint>
#include <string>

#include "ptest/core/campaign.hpp"
#include "ptest/fleet/transport.hpp"
#include "ptest/guided/corpus.hpp"
#include "ptest/support/result.hpp"

namespace ptest::fleet {

struct WorkerOptions {
  /// Poll iterations with no inbound frame before serve() gives up
  /// (the coordinator died without broadcasting shutdown).
  std::uint64_t poll_limit = 200'000'000;
  /// Microseconds to sleep on an idle poll (0 = yield; cross-process
  /// callers should set this).
  std::uint64_t idle_sleep_us = 0;
  /// Daemon mode: survive campaign-end frames (keep serving the next
  /// coordinator) and treat send failures / decode errors on one
  /// campaign as that campaign's problem, not a reason to die — the
  /// coordinator's shard deadline re-issues anything lost.
  bool persistent = false;
  /// Stamped into every ResultFrame so the coordinator can count the
  /// distinct workers it must drain; must be unique per live process.
  std::string node;
  /// Honour AssignFrame::trace by enabling this process's TraceRecorder
  /// around the slice and shipping the drained tail on the ResultFrame.
  /// run_local_fleet turns this off: in-process workers share the
  /// coordinator's recorder, and draining it per slice would race the
  /// other workers and steal the coordinator's own events.
  bool ship_trace = true;
};

class Worker {
 public:
  explicit Worker(WorkerOptions options = {}) : options_(options) {}

  /// Serves assignments until a shutdown frame arrives (persistent
  /// workers also ride through campaign-end frames); returns the number
  /// of slices executed, or an error (malformed frame, transport jammed
  /// past retry, idle past poll_limit — the latter two only fatal when
  /// not persistent).
  [[nodiscard]] support::Result<std::size_t, std::string> serve(
      Transport& transport);

 private:
  WorkerOptions options_;
};

/// The session-span corpus one shard reports (and the serial reference
/// the CI fleet gate diffs against): scenario label, resolved plan
/// seed, the covered transitions of `result`'s single arm, and one span
/// [slice.run_base, slice.run_base + slice.sessions) carrying the
/// detections.  Merging every shard's corpus in any order yields
/// byte-for-byte the corpus this returns for the whole-budget slice of
/// the single-process run.  Errors on unknown scenarios and multi-arm
/// results.
[[nodiscard]] support::Result<guided::CoverageCorpus, std::string>
shard_corpus(const std::string& scenario, const core::ShardSlice& slice,
             const core::CampaignResult& result,
             std::optional<std::uint64_t> seed_override = {});

}  // namespace ptest::fleet
