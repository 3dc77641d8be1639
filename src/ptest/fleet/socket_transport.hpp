// fleet::SocketTransport — the fleet's wire frames over TCP.
//
// The Transport implementation that leaves the process (and the host):
// worker daemons listen on a port (`ptest_cli --listen PORT`), the
// coordinator dials each of them (`--connect host:port,...`), and the
// single-line JSON wire frames travel as newline-delimited lines on
// the stream.  Frames never contain a raw
// newline (support::JsonWriter escapes control characters inside
// strings), so '\n' is an unambiguous frame terminator and a reader
// that has not yet seen one simply has no pending frame.
//
// The sockets are non-blocking and the Transport contract maps onto
// them directly:
//   * send() == false    every reachable connection has bytes still
//                        waiting on a full kernel buffer, or no peer is
//                        connected at all — backpressure, retry later;
//   * receive() == nullopt  no connection has a complete line buffered
//                        — partial frames accumulate in a per-connection
//                        reassembly buffer until their terminator
//                        arrives.
//
// Peer disconnect is routine, not exotic: a read of EOF (or a reset)
// reaps the connection and discards its partial reassembly buffer —
// a frame the peer never finished was never delivered, and the
// coordinator's shard deadline re-issues whatever work died with the
// peer.  A listening endpoint keeps accepting new connections forever,
// which is what lets a worker daemon outlive the coordinators that
// come and go between campaigns.
#pragma once

#include <cstdint>
#include <optional>
#include <string>
#include <vector>

#include "ptest/fleet/transport.hpp"

namespace ptest::fleet {

class SocketTransport final : public Transport {
 public:
  /// Listening (worker-daemon) endpoint: bind + listen on `port`
  /// (0 = kernel-assigned; read the result from port()).
  struct Listen {
    std::uint16_t port = 0;
  };
  /// Dialing (coordinator) endpoint: one outbound connection per
  /// "host:port" (an empty host means 127.0.0.1).  Each connect is
  /// retried until `connect_timeout_ms` elapses, so a coordinator
  /// racing its daemons' startup does not fail spuriously.
  struct Connect {
    std::vector<std::string> endpoints;
    std::uint64_t connect_timeout_ms = 10'000;
  };

  /// Throws std::runtime_error when the socket cannot be created,
  /// bound, or (for Connect) any endpoint stays unreachable past the
  /// timeout.
  explicit SocketTransport(const Listen& listen);
  explicit SocketTransport(const Connect& connect);
  ~SocketTransport() override;

  SocketTransport(const SocketTransport&) = delete;
  SocketTransport& operator=(const SocketTransport&) = delete;

  [[nodiscard]] bool send(const std::string& frame) override;
  [[nodiscard]] std::optional<std::string> receive() override;
  /// Live connections right now (listening endpoints count accepted
  /// peers; dialing endpoints count connections that have not died).
  [[nodiscard]] std::size_t peers() override;

  /// The port this endpoint is bound to (meaningful for Listen; with
  /// Listen{0} this is where the kernel's pick surfaces).
  [[nodiscard]] std::uint16_t port() const noexcept { return port_; }

 private:
  struct Connection {
    int fd = -1;
    std::string in;   ///< partial-frame reassembly buffer
    std::string out;  ///< unflushed tail of the last accepted frame
  };

  void accept_pending();
  void flush(Connection& connection);
  void read_into(Connection& connection);
  void reap_dead();
  [[nodiscard]] std::optional<std::string> take_line(Connection& connection);

  int listen_fd_ = -1;
  std::uint16_t port_ = 0;
  std::vector<Connection> connections_;
  /// Rotation cursors so neither sends nor receives pin one connection.
  std::size_t send_cursor_ = 0;
  std::size_t receive_cursor_ = 0;
};

}  // namespace ptest::fleet
