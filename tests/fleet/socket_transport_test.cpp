// SocketTransport suite: newline framing over real TCP sockets on
// localhost — round trips, partial-frame reassembly, the backpressure
// mapping, and the disconnect rules (complete buffered lines still
// deliver, an unterminated tail never does).
#include <gtest/gtest.h>

#include <arpa/inet.h>
#include <netinet/in.h>
#include <sys/socket.h>
#include <unistd.h>

#include <chrono>
#include <cstring>
#include <optional>
#include <stdexcept>
#include <string>
#include <thread>

#include "ptest/fleet/socket_transport.hpp"

namespace ptest::fleet {
namespace {

/// Polls `transport.receive()` until a frame arrives or ~5s elapse
/// (localhost delivery is microseconds; the slack is for loaded CI).
std::optional<std::string> receive_within(SocketTransport& transport) {
  const auto deadline =
      std::chrono::steady_clock::now() + std::chrono::seconds(5);
  while (std::chrono::steady_clock::now() < deadline) {
    if (auto frame = transport.receive()) return frame;
    std::this_thread::sleep_for(std::chrono::milliseconds(1));
  }
  return std::nullopt;
}

/// A raw blocking client socket speaking to `port`, for injecting
/// byte sequences the transport itself would never produce.
class RawClient {
 public:
  explicit RawClient(std::uint16_t port) {
    fd_ = ::socket(AF_INET, SOCK_STREAM, 0);
    if (fd_ < 0) throw std::runtime_error("raw socket() failed");
    sockaddr_in addr{};
    addr.sin_family = AF_INET;
    addr.sin_port = htons(port);
    ::inet_pton(AF_INET, "127.0.0.1", &addr.sin_addr);
    if (::connect(fd_, reinterpret_cast<const sockaddr*>(&addr),
                  sizeof addr) != 0) {
      ::close(fd_);
      throw std::runtime_error("raw connect() failed");
    }
  }
  ~RawClient() { close(); }

  void write(const std::string& bytes) {
    std::size_t sent = 0;
    while (sent < bytes.size()) {
      const ssize_t wrote =
          ::send(fd_, bytes.data() + sent, bytes.size() - sent, MSG_NOSIGNAL);
      ASSERT_GT(wrote, 0);
      sent += static_cast<std::size_t>(wrote);
    }
  }

  void close() {
    if (fd_ >= 0) ::close(fd_);
    fd_ = -1;
  }

 private:
  int fd_ = -1;
};

TEST(SocketTransport, RoundTripsFramesBothWaysInOrder) {
  SocketTransport listener(SocketTransport::Listen{0});
  ASSERT_NE(listener.port(), 0);
  SocketTransport dialer(
      SocketTransport::Connect{{"127.0.0.1:" + std::to_string(
                                    listener.port())}});
  ASSERT_TRUE(dialer.send("first"));
  ASSERT_TRUE(dialer.send("second"));
  EXPECT_EQ(receive_within(listener).value_or(""), "first");
  EXPECT_EQ(receive_within(listener).value_or(""), "second");
  EXPECT_FALSE(listener.receive().has_value());
  // And back: the accepted connection is bidirectional.
  ASSERT_TRUE(listener.send("reply"));
  EXPECT_EQ(receive_within(dialer).value_or(""), "reply");
}

TEST(SocketTransport, ReassemblesFramesLargerThanOneRead) {
  // Much larger than the transport's 64KB read chunk, so the frame is
  // guaranteed to arrive in pieces and cross the reassembly buffer.
  SocketTransport listener(SocketTransport::Listen{0});
  SocketTransport dialer(
      SocketTransport::Connect{{"127.0.0.1:" + std::to_string(
                                    listener.port())}});
  std::string big(512 * 1024, 'x');
  big[0] = '{';
  big[big.size() - 1] = '}';
  ASSERT_TRUE(dialer.send(big));
  EXPECT_EQ(receive_within(listener).value_or(""), big);
}

TEST(SocketTransport, PartialFrameIsBufferedNotDelivered) {
  SocketTransport listener(SocketTransport::Listen{0});
  RawClient client(listener.port());
  client.write("half a frame with no terminator");
  // The bytes are on the wire, but no newline means no frame: polls
  // spanning well past the delivery latency must all come up empty.
  for (int i = 0; i < 100; ++i) {
    EXPECT_FALSE(listener.receive().has_value());
    std::this_thread::sleep_for(std::chrono::milliseconds(1));
  }
  EXPECT_EQ(listener.peers(), 1u);  // buffered, connection alive
  // The terminator completes it.
  client.write(" ... now finished\n");
  EXPECT_EQ(receive_within(listener).value_or(""),
            "half a frame with no terminator ... now finished");
}

TEST(SocketTransport, DisconnectDeliversCompleteLinesAndDropsTheTail) {
  SocketTransport listener(SocketTransport::Listen{0});
  {
    RawClient client(listener.port());
    client.write("alpha\nbeta\ntruncated-tail-without-newline");
    // Give the kernel a moment to surface the bytes + EOF together.
    while (listener.peers() == 0) {
      std::this_thread::sleep_for(std::chrono::milliseconds(1));
    }
  }  // client closes: EOF after three writes, the last unterminated
  EXPECT_EQ(receive_within(listener).value_or(""), "alpha");
  EXPECT_EQ(receive_within(listener).value_or(""), "beta");
  // The tail was never a frame; it must not surface as one, and the
  // dead connection reaps once drained.
  EXPECT_FALSE(listener.receive().has_value());
  EXPECT_EQ(listener.peers(), 0u);
}

TEST(SocketTransport, SendBackpressuresWithNoPeersAndRecovers) {
  SocketTransport listener(SocketTransport::Listen{0});
  EXPECT_EQ(listener.peers(), 0u);
  EXPECT_FALSE(listener.send("nobody home"));  // no peer: backpressure
  SocketTransport dialer(
      SocketTransport::Connect{{"127.0.0.1:" + std::to_string(
                                    listener.port())}});
  // The listener discovers the new peer on its next operation.
  const auto deadline =
      std::chrono::steady_clock::now() + std::chrono::seconds(5);
  while (listener.peers() == 0 &&
         std::chrono::steady_clock::now() < deadline) {
    std::this_thread::sleep_for(std::chrono::milliseconds(1));
  }
  ASSERT_EQ(listener.peers(), 1u);
  EXPECT_TRUE(listener.send("now delivered"));
  EXPECT_EQ(receive_within(dialer).value_or(""), "now delivered");
}

TEST(SocketTransport, ConnectFailsCleanlyWhenNothingListens) {
  // Port 1 is privileged and unbound; the dial must give up at the
  // timeout with an exception, not hang or half-construct.
  EXPECT_THROW(SocketTransport(SocketTransport::Connect{
                   .endpoints = {"127.0.0.1:1"}, .connect_timeout_ms = 100}),
               std::runtime_error);
  EXPECT_THROW(SocketTransport(SocketTransport::Connect{
                   .endpoints = {"no-port-here"}, .connect_timeout_ms = 100}),
               std::runtime_error);
}

TEST(SocketTransport, ListenerSurvivesReconnectingPeers) {
  // The daemon property: the listening endpoint outlives any one peer.
  SocketTransport listener(SocketTransport::Listen{0});
  for (int round = 0; round < 3; ++round) {
    SocketTransport dialer(
        SocketTransport::Connect{{"127.0.0.1:" + std::to_string(
                                      listener.port())}});
    const std::string frame = "round-" + std::to_string(round);
    ASSERT_TRUE(dialer.send(frame));
    EXPECT_EQ(receive_within(listener).value_or(""), frame);
  }  // dialer destructs: disconnect
  // Poll until the listener has noticed the last disconnect; no frame
  // may arrive meanwhile, nor after.
  const auto deadline =
      std::chrono::steady_clock::now() + std::chrono::seconds(5);
  while (listener.peers() != 0 &&
         std::chrono::steady_clock::now() < deadline) {
    EXPECT_FALSE(listener.receive().has_value());
    std::this_thread::sleep_for(std::chrono::milliseconds(1));
  }
  EXPECT_EQ(listener.peers(), 0u);
  EXPECT_FALSE(listener.receive().has_value());
}

TEST(SocketTransport, RotatesSendsAcrossPeersSoBroadcastsCoverEveryone) {
  SocketTransport a(SocketTransport::Listen{0});
  SocketTransport b(SocketTransport::Listen{0});
  SocketTransport dialer(SocketTransport::Connect{
      {"127.0.0.1:" + std::to_string(a.port()),
       "127.0.0.1:" + std::to_string(b.port())}});
  ASSERT_EQ(dialer.peers(), 2u);
  // Two consecutive sends must land on two different peers.
  ASSERT_TRUE(dialer.send("one"));
  ASSERT_TRUE(dialer.send("two"));
  EXPECT_TRUE(receive_within(a).has_value());
  EXPECT_TRUE(receive_within(b).has_value());
}

}  // namespace
}  // namespace ptest::fleet
