// Fleet transports — how frames move, kept apart from what they mean.
//
// Coordinator and Worker speak only to this interface: send() one
// encoded frame toward the peer (false = backpressure, retry later),
// receive() the next frame addressed to this endpoint (nullopt = none
// pending; polling, never blocking).  The committer/coordinator retry
// machinery (fleet/ledger.hpp) was designed around exactly this
// contract, so the same backpressure handling drives a bounded
// in-process queue and a TCP connection set.
//
// Two implementations:
//   * InProcessQueue — a bounded two-direction mutex queue; the local
//     `--fleet N` mode and the unit tests run coordinator and workers
//     as threads of one process.  Multiple workers may share the worker
//     endpoint; each frame is claimed by exactly one receiver.
//   * SocketTransport (socket_transport.hpp) — newline-delimited frames
//     over TCP for separate processes (`--listen PORT` daemons, a
//     `--connect HOST:PORT[,...]` coordinator).
#pragma once

#include <cstdint>
#include <deque>
#include <mutex>
#include <optional>
#include <string>

namespace ptest::fleet {

class Transport {
 public:
  virtual ~Transport() = default;
  /// Queues one frame toward the peer; false = backpressure (the caller
  /// retries later, without burning a sequence number).
  [[nodiscard]] virtual bool send(const std::string& frame) = 0;
  /// Next frame addressed to this endpoint, or nullopt when none is
  /// pending.  Never blocks.
  [[nodiscard]] virtual std::optional<std::string> receive() = 0;
  /// Live peers this endpoint can currently reach, or 0 when the
  /// transport cannot know (a queue has no connection concept).  The
  /// coordinator sizes its end-of-campaign drain broadcast from this
  /// when it is available.
  [[nodiscard]] virtual std::size_t peers() { return 0; }
};

/// Bounded bidirectional in-memory queue pair.  coordinator_endpoint()
/// sends into the worker-bound queue and receives from the
/// coordinator-bound one; worker_endpoint() the reverse.  Both
/// endpoints are safe to share across threads.
class InProcessQueue {
 public:
  /// `capacity` bounds each direction; a full queue backpressures
  /// send() exactly like a full command ring backpressures the
  /// committer.
  explicit InProcessQueue(std::size_t capacity = 64);

  [[nodiscard]] Transport& coordinator_endpoint() noexcept {
    return coordinator_;
  }
  [[nodiscard]] Transport& worker_endpoint() noexcept { return worker_; }

 private:
  struct Queue {
    std::mutex mutex;
    std::deque<std::string> frames;
    std::size_t capacity = 64;

    bool push(const std::string& frame);
    std::optional<std::string> pop();
  };

  class Endpoint final : public Transport {
   public:
    Endpoint(Queue& out, Queue& in) : out_(&out), in_(&in) {}
    [[nodiscard]] bool send(const std::string& frame) override {
      return out_->push(frame);
    }
    [[nodiscard]] std::optional<std::string> receive() override {
      return in_->pop();
    }

   private:
    Queue* out_;
    Queue* in_;
  };

  Queue to_worker_;
  Queue to_coordinator_;
  Endpoint coordinator_{to_worker_, to_coordinator_};
  Endpoint worker_{to_coordinator_, to_worker_};
};

}  // namespace ptest::fleet
