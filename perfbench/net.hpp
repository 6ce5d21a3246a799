// Process and socket plumbing for the benchmark generator: spawning engine
// processes with a line-command pipe, and blocking loopback client
// connections that speak the raw framed protocol or WebSocket.
#pragma once

#include <fcntl.h>
#include <netinet/in.h>
#include <netinet/tcp.h>
#include <poll.h>
#include <signal.h>
#include <spawn.h>
#include <sys/socket.h>
#include <sys/wait.h>
#include <unistd.h>

#include <cerrno>
#include <chrono>
#include <cstdint>
#include <cstring>
#include <optional>
#include <string>
#include <thread>
#include <vector>

#include "common/bytes.hpp"
#include "common/rng.hpp"
#include "proto/codec.hpp"
#include "proto/websocket.hpp"

extern char** environ;

namespace pb {

inline std::int64_t NowNs() {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

/// One engine process with its stdin/stdout connected to pipes.
class EngineProc {
 public:
  EngineProc() = default;
  EngineProc(const EngineProc&) = delete;
  EngineProc& operator=(const EngineProc&) = delete;
  ~EngineProc() { Stop(); }

  bool Spawn(const std::vector<std::string>& argv) {
    int toChild[2];
    int fromChild[2];
    if (pipe2(toChild, O_CLOEXEC) != 0) return false;
    if (pipe2(fromChild, O_CLOEXEC) != 0) {
      close(toChild[0]);
      close(toChild[1]);
      return false;
    }
    posix_spawn_file_actions_t actions;
    posix_spawn_file_actions_init(&actions);
    posix_spawn_file_actions_adddup2(&actions, toChild[0], 0);
    posix_spawn_file_actions_adddup2(&actions, fromChild[1], 1);
    std::vector<char*> args;
    for (const std::string& a : argv) args.push_back(const_cast<char*>(a.c_str()));
    args.push_back(nullptr);
    const int rc = posix_spawn(&pid_, args[0], &actions, nullptr, args.data(), environ);
    posix_spawn_file_actions_destroy(&actions);
    close(toChild[0]);
    close(fromChild[1]);
    toFd_ = toChild[1];
    fromFd_ = fromChild[0];
    if (rc != 0) {
      pid_ = -1;
      Stop();
      return false;
    }
    return true;
  }

  /// Reads one stdout line, waiting at most `timeoutMs`.
  std::optional<std::string> ReadLine(int timeoutMs) {
    const std::int64_t deadline = NowNs() + std::int64_t{timeoutMs} * 1'000'000;
    while (true) {
      const auto nl = buf_.find('\n');
      if (nl != std::string::npos) {
        std::string line = buf_.substr(0, nl);
        buf_.erase(0, nl + 1);
        return line;
      }
      const std::int64_t left = (deadline - NowNs()) / 1'000'000;
      if (left <= 0 || fromFd_ < 0) return std::nullopt;
      pollfd p{fromFd_, POLLIN, 0};
      if (poll(&p, 1, static_cast<int>(left)) <= 0) continue;
      char chunk[4096];
      const ssize_t n = read(fromFd_, chunk, sizeof(chunk));
      if (n <= 0) return std::nullopt;
      buf_.append(chunk, static_cast<std::size_t>(n));
    }
  }

  bool Command(const std::string& cmd) {
    const std::string line = cmd + "\n";
    return toFd_ >= 0 &&
           write(toFd_, line.data(), line.size()) == static_cast<ssize_t>(line.size());
  }

  /// Asks the engine to quit and reaps it; SIGKILL after 10 s.
  void Stop() {
    if (toFd_ >= 0) {
      Command("quit");
      close(toFd_);
      toFd_ = -1;
    }
    if (pid_ > 0) {
      const std::int64_t deadline = NowNs() + 10'000'000'000LL;
      int status = 0;
      while (waitpid(pid_, &status, WNOHANG) == 0) {
        if (NowNs() > deadline) {
          kill(pid_, SIGKILL);
          waitpid(pid_, &status, 0);
          break;
        }
        std::this_thread::sleep_for(std::chrono::milliseconds(2));
      }
      pid_ = -1;
    }
    if (fromFd_ >= 0) {
      close(fromFd_);
      fromFd_ = -1;
    }
  }

  [[nodiscard]] pid_t pid() const noexcept { return pid_; }

 private:
  pid_t pid_ = -1;
  int toFd_ = -1;
  int fromFd_ = -1;
  std::string buf_;
};

/// A blocking loopback client connection. One thread writes (SendFrame /
/// WriteAll) and one thread reads (ReadAvailable + NextFrame); the two
/// halves share only the fd.
class Conn {
 public:
  Conn() = default;
  Conn(const Conn&) = delete;
  Conn& operator=(const Conn&) = delete;
  ~Conn() { Close(); }

  /// Connects; a WebSocket connection also sends its upgrade request
  /// (FinishOpen waits for the answer).
  bool Open(std::uint16_t port, bool websocket, std::uint64_t seed) {
    ws_ = websocket;
    rng_ = md::Rng(seed);
    fd_ = socket(AF_INET, SOCK_STREAM | SOCK_CLOEXEC, 0);
    if (fd_ < 0) return false;
    int one = 1;
    setsockopt(fd_, IPPROTO_TCP, TCP_NODELAY, &one, sizeof(one));
    sockaddr_in addr{};
    addr.sin_family = AF_INET;
    addr.sin_port = htons(port);
    addr.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
    if (connect(fd_, reinterpret_cast<sockaddr*>(&addr), sizeof(addr)) != 0) {
      Close();
      return false;
    }
    if (!ws_) return true;
    wsKey_ = md::ws::GenerateKey(rng_);
    const std::string req =
        md::ws::BuildClientHandshake("127.0.0.1:" + std::to_string(port), "/", wsKey_);
    return WriteAll(md::AsBytes(req));
  }

  /// Waits for the WebSocket upgrade answer (no-op for raw framing).
  bool FinishOpen(int timeoutMs) {
    if (!ws_) return true;
    const std::int64_t deadline = NowNs() + std::int64_t{timeoutMs} * 1'000'000;
    while (NowNs() < deadline) {
      const auto r = md::ws::ParseServerHandshakeResponse(in_, wsKey_);
      if (!r.status.ok()) return false;
      if (r.complete) return true;
      if (!ReadAvailable(20)) return false;
    }
    return false;
  }

  void Close() {
    if (fd_ >= 0) {
      close(fd_);
      fd_ = -1;
    }
  }

  [[nodiscard]] int fd() const noexcept { return fd_; }

  /// This end's TCP port (the server sees it as the peer port); 0 if closed.
  [[nodiscard]] int LocalPort() const {
    sockaddr_in addr{};
    socklen_t len = sizeof(addr);
    if (fd_ < 0 || getsockname(fd_, reinterpret_cast<sockaddr*>(&addr), &len) != 0) return 0;
    return ntohs(addr.sin_port);
  }

  /// Appends `frame` in this connection's wire format to `out`.
  void Encode(const md::Frame& frame, md::Bytes& out) {
    if (!ws_) {
      md::EncodeFramed(frame, out);
      return;
    }
    md::Bytes body;
    md::EncodeFrame(frame, body);
    md::ws::EncodeWsFrame(md::ws::Opcode::kBinary, md::BytesView(body), out,
                          static_cast<std::uint32_t>(rng_.Next()));
  }

  bool SendFrame(const md::Frame& frame) {
    md::Bytes wire;
    Encode(frame, wire);
    return WriteAll(md::BytesView(wire));
  }

  bool WriteAll(md::BytesView data) {
    std::size_t off = 0;
    while (off < data.size()) {
      const ssize_t n = send(fd_, data.data() + off, data.size() - off, MSG_NOSIGNAL);
      if (n < 0) {
        if (errno == EINTR) continue;
        return false;
      }
      off += static_cast<std::size_t>(n);
    }
    return true;
  }

  /// Waits up to `timeoutMs` for bytes and appends what is there. False on
  /// EOF or error.
  bool ReadAvailable(int timeoutMs) {
    pollfd p{fd_, POLLIN, 0};
    const int r = poll(&p, 1, timeoutMs);
    if (r < 0) return errno == EINTR;
    if (r == 0) return true;
    return ReadNow();
  }

  /// Non-blocking read of whatever the socket holds. False on EOF/error.
  bool ReadNow() {
    std::uint8_t chunk[64 * 1024];
    const ssize_t n = recv(fd_, chunk, sizeof(chunk), MSG_DONTWAIT);
    if (n == 0) return false;
    if (n < 0) return errno == EAGAIN || errno == EWOULDBLOCK || errno == EINTR;
    in_.Append(md::BytesView(chunk, static_cast<std::size_t>(n)));
    return true;
  }

  /// Next complete frame from the buffered bytes. Sets `*bad` on a protocol
  /// violation.
  std::optional<md::Frame> NextFrame(bool* bad) {
    while (true) {
      if (!ws_) {
        auto r = md::ExtractFrame(in_);
        if (!r.status.ok()) *bad = true;
        return std::move(r.frame);
      }
      auto r = md::ws::ExtractWsFrame(in_, /*expectMasked=*/false);
      if (!r.status.ok()) {
        *bad = true;
        return std::nullopt;
      }
      if (!r.frame) return std::nullopt;
      if (r.frame->opcode != md::ws::Opcode::kBinary) continue;
      auto decoded = md::DecodeFrame(md::BytesView(r.frame->payload));
      if (!decoded.ok()) {
        *bad = true;
        return std::nullopt;
      }
      return std::move(*decoded);
    }
  }

  /// Blocks until a frame arrives (setup paths only).
  std::optional<md::Frame> WaitFrame(int timeoutMs) {
    const std::int64_t deadline = NowNs() + std::int64_t{timeoutMs} * 1'000'000;
    while (true) {
      bool bad = false;
      if (auto f = NextFrame(&bad)) return f;
      if (bad || NowNs() > deadline) return std::nullopt;
      if (!ReadAvailable(20)) return std::nullopt;
    }
  }

 private:
  int fd_ = -1;
  bool ws_ = false;
  std::string wsKey_;
  md::Rng rng_;
  md::ByteQueue in_;
};

/// Reserves `n` distinct free loopback ports (bound together, then freed).
inline std::vector<std::uint16_t> FreePorts(std::size_t n) {
  std::vector<int> fds;
  std::vector<std::uint16_t> ports;
  for (std::size_t i = 0; i < n; ++i) {
    const int fd = socket(AF_INET, SOCK_STREAM | SOCK_CLOEXEC, 0);
    sockaddr_in addr{};
    addr.sin_family = AF_INET;
    addr.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
    socklen_t len = sizeof(addr);
    if (fd < 0 || bind(fd, reinterpret_cast<sockaddr*>(&addr), sizeof(addr)) != 0 ||
        getsockname(fd, reinterpret_cast<sockaddr*>(&addr), &len) != 0) {
      if (fd >= 0) close(fd);
      break;
    }
    fds.push_back(fd);
    ports.push_back(ntohs(addr.sin_port));
  }
  for (const int fd : fds) close(fd);
  return ports;
}

}  // namespace pb
