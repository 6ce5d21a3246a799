// A blocking raw-framed client on a plain loopback socket, for tests that
// need byte-exact control of the client side: it can put any number of
// frames into ONE send(), it can stop reading (so the server's send queue
// backs up), and it reads back the exact frame sequence the server wrote,
// down to the EOF that ends it.
#pragma once

#include <arpa/inet.h>
#include <netinet/in.h>
#include <sys/socket.h>
#include <sys/time.h>
#include <unistd.h>

#include <array>
#include <optional>
#include <variant>
#include <vector>

#include "proto/codec.hpp"

namespace md::test_support {

class RawFramedClient {
 public:
  /// `rcvbuf` > 0 caps the socket's receive buffer before the handshake, so
  /// the advertised window stays small: once the test stops reading, the
  /// server's deliveries pile up in its own send queue after a few KiB.
  explicit RawFramedClient(std::uint16_t port, int rcvbuf = 0)
      : fd_(::socket(AF_INET, SOCK_STREAM, 0)) {
    if (rcvbuf > 0) {
      ::setsockopt(fd_, SOL_SOCKET, SO_RCVBUF, &rcvbuf, sizeof(rcvbuf));
    }
    sockaddr_in addr{};
    addr.sin_family = AF_INET;
    addr.sin_port = htons(port);
    addr.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
    connected_ = fd_ >= 0 && ::connect(fd_, reinterpret_cast<sockaddr*>(&addr),
                                       sizeof(addr)) == 0;
    timeval timeout{20, 0};
    ::setsockopt(fd_, SOL_SOCKET, SO_RCVTIMEO, &timeout, sizeof(timeout));
  }
  ~RawFramedClient() {
    if (fd_ >= 0) ::close(fd_);
  }
  RawFramedClient(const RawFramedClient&) = delete;
  RawFramedClient& operator=(const RawFramedClient&) = delete;

  [[nodiscard]] bool connected() const { return connected_; }

  /// Encodes the frames back to back and writes them with one send() (a
  /// loop only in case the kernel takes a partial write).
  bool SendAll(const std::vector<Frame>& frames) {
    Bytes wire;
    for (const Frame& frame : frames) EncodeFramed(frame, wire);
    std::size_t sent = 0;
    while (sent < wire.size()) {
      const ssize_t n =
          ::send(fd_, wire.data() + sent, wire.size() - sent, MSG_NOSIGNAL);
      if (n <= 0) return false;
      sent += static_cast<std::size_t>(n);
    }
    return true;
  }

  /// The next frame from the server; nullopt on timeout, close or garbage.
  std::optional<Frame> Next() {
    while (true) {
      auto r = ExtractFrame(in_);
      if (!r.status.ok()) return std::nullopt;
      if (r.frame) return std::move(r.frame);
      if (!Fill()) return std::nullopt;
    }
  }

  /// Reads the next frame and requires it to be a T.
  template <typename T>
  std::optional<T> Expect() {
    auto frame = Next();
    if (!frame || !std::holds_alternative<T>(*frame)) return std::nullopt;
    return std::get<T>(*frame);
  }

  /// True iff the server ended the stream cleanly right here: no partial
  /// frame left over, and the next read is EOF (not a timeout or a reset).
  bool AtEof() {
    if (!in_.empty()) return false;
    std::uint8_t byte = 0;
    return ::recv(fd_, &byte, 1, 0) == 0;
  }

 private:
  bool Fill() {
    std::array<std::uint8_t, 64 * 1024> buf;
    const ssize_t n = ::recv(fd_, buf.data(), buf.size(), 0);
    if (n <= 0) return false;
    in_.Append(BytesView(buf.data(), static_cast<std::size_t>(n)));
    return true;
  }

  int fd_;
  bool connected_ = false;
  ByteQueue in_;
};

}  // namespace md::test_support
