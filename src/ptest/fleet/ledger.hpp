// Issue/ack/retry bookkeeping, extracted from master::Committer.
//
// The committer grew the exact machinery a distributed coordinator
// needs — monotone sequence numbers, an outstanding table keyed by seq,
// a retry queue with per-key attempt budgets and a not-before delay,
// and backpressure-aware requeueing — but had it fused into the
// simulated master thread.  This header is that machinery alone, with
// no transport, clock, or payload assumptions: the Committer drives it
// with sim::Tick and MergedPattern elements against the channel bridge,
// the fleet::Coordinator with poll counters and shard assignments
// against a Transport.  Both budget retries with RetryPolicy.
//
// Time is whatever monotone counter the caller supplies ("now" in the
// retry calls): simulation ticks for the committer, poll iterations for
// the coordinator.  The ledger never reads a clock.
#pragma once

#include <algorithm>
#include <cstdint>
#include <deque>
#include <map>
#include <optional>
#include <utility>
#include <vector>

namespace ptest::fleet {

/// Retry knobs.  fleet::CoordinatorOptions carries one; master::Committer
/// always runs the defaults (16 retries per slot, 32 ticks apart).
struct RetryPolicy {
  /// Attempts allowed per retry key before the ledger gives up.
  std::uint32_t max_attempts = 16;
  /// Units of the caller's clock to wait before a retry becomes due.
  std::uint64_t delay = 32;
};

/// Sequence allocation + the in-flight table: every issued payload is
/// remembered under a fresh seq until its ack arrives.  Acks for
/// unknown seqs (stale, duplicate, reordered) resolve to nullopt so the
/// caller can drop them without bookkeeping damage.
///
/// The table is a flat vector: seqs only grow, so an issue appends and
/// the entries stay in ascending seq order; an ack erases in place,
/// which keeps that order.  A handful of commands is in flight at a
/// time, so the linear ack lookup beats a tree, and reset() keeps the
/// buffer for the next session.
template <typename Payload>
class OutstandingTable {
 public:
  using Entry = std::pair<std::uint32_t, Payload>;

  /// The seq the next record_issue() will assign — callers that stamp
  /// the seq into the payload (wire frames, bridge commands) read it
  /// before committing to the send.
  [[nodiscard]] std::uint32_t next_seq() const noexcept { return next_seq_; }

  /// Files `payload` under next_seq() and advances the counter.  Only
  /// call after the send actually went out: a backpressured send must
  /// not burn a sequence number, or the peer sees gaps.
  std::uint32_t record_issue(Payload payload) {
    const std::uint32_t seq = next_seq_++;
    outstanding_.emplace_back(seq, std::move(payload));
    return seq;
  }

  /// Resolves an ack: removes and returns the issued payload, or
  /// nullopt when `seq` is not outstanding.
  std::optional<Payload> acknowledge(std::uint32_t seq) {
    const auto it = std::find_if(
        outstanding_.begin(), outstanding_.end(),
        [seq](const Entry& entry) { return entry.first == seq; });
    if (it == outstanding_.end()) return std::nullopt;
    Payload payload = std::move(it->second);
    outstanding_.erase(it);
    return payload;
  }

  /// In-flight (seq, payload) entries in ascending seq order.
  [[nodiscard]] const std::vector<Entry>& outstanding() const noexcept {
    return outstanding_;
  }
  [[nodiscard]] bool empty() const noexcept { return outstanding_.empty(); }

  /// Forgets every in-flight entry and restarts seqs at 1; the buffer
  /// keeps its capacity.
  void reset() noexcept {
    outstanding_.clear();
    next_seq_ = 1;
  }

 private:
  std::uint32_t next_seq_ = 1;
  std::vector<Entry> outstanding_;
};

/// FIFO retry queue with a per-key attempt budget and a not-before
/// delay.  `Key` names what the budget is charged to (the committer
/// charges the pattern slot, the coordinator the shard index); the
/// queue itself stays FIFO so retries cannot starve behind each other.
template <typename Payload, typename Key>
class RetryQueue {
 public:
  struct Record {
    Payload payload;
    std::uint32_t attempts = 0;
    std::uint64_t not_before = 0;
  };

  explicit RetryQueue(RetryPolicy policy = {}) : policy_(policy) {}

  [[nodiscard]] const RetryPolicy& policy() const noexcept { return policy_; }

  /// Charges one attempt to `key`; within budget the payload is queued
  /// due at now + policy.delay and true is returned.  Over budget
  /// nothing is queued — the caller abandons that key's work.
  bool schedule(const Key& key, Payload payload, std::uint64_t now) {
    const std::uint32_t attempts = ++attempts_[key];
    if (attempts > policy_.max_attempts) return false;
    queue_.push_back({std::move(payload), attempts, now + policy_.delay});
    return true;
  }

  /// Oldest queued retry, or nullptr.  The caller checks due-ness
  /// (record->not_before <= now) plus any of its own gates before
  /// take_front().
  [[nodiscard]] const Record* front() const noexcept {
    return queue_.empty() ? nullptr : &queue_.front();
  }

  /// Pops the oldest queued retry; nullopt when the queue is empty
  /// (front() raced with nothing — an empty pop must not be UB).
  [[nodiscard]] std::optional<Record> take_front() {
    if (queue_.empty()) return std::nullopt;
    Record record = std::move(queue_.front());
    queue_.pop_front();
    return record;
  }

  /// Puts a taken record back at the head — the backpressure path:
  /// the retry was due but the send did not go through, so it stays
  /// next in line with its attempt count intact.
  void requeue_front(Record record) {
    queue_.push_front(std::move(record));
  }

  /// Forgets `key`'s attempt history (its work completed or became
  /// moot), so later failures on the same key start a fresh budget.
  void forgive(const Key& key) { attempts_.erase(key); }

  [[nodiscard]] bool empty() const noexcept { return queue_.empty(); }

  /// Drops every queued retry and every key's attempt history; the
  /// policy stays.
  void reset() {
    queue_.clear();
    attempts_.clear();
  }

 private:
  RetryPolicy policy_;
  std::deque<Record> queue_;
  std::map<Key, std::uint32_t> attempts_;
};

}  // namespace ptest::fleet
