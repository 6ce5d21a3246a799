// RFC 6455 WebSocket subset, implemented from scratch (paper §3: clients
// connect over WebSockets).
//
// Covers: HTTP/1.1 upgrade handshake (client request + server response with
// Sec-WebSocket-Accept), binary/text data frames, fragmentation-free payloads
// up to 2^63 bytes, client-side masking, ping/pong, close. Extensions and
// subprotocol negotiation are not implemented (not needed by the protocol).
#pragma once

#include <cstdint>
#include <optional>
#include <string>
#include <string_view>

#include "common/bytes.hpp"
#include "common/rng.hpp"
#include "common/status.hpp"

namespace md::ws {

enum class Opcode : std::uint8_t {
  kContinuation = 0x0,
  kText = 0x1,
  kBinary = 0x2,
  kClose = 0x8,
  kPing = 0x9,
  kPong = 0xA,
};

/// RFC 6455 §7.4.1 close status: the server is overloaded for this client
/// ("try again later") — sent when the slow-consumer policy evicts a session.
inline constexpr std::uint16_t kClosePolicyTryAgainLater = 1013;

struct WsFrame {
  Opcode opcode = Opcode::kBinary;
  bool fin = true;
  Bytes payload;
};

/// Appends one encoded frame to `out`. If `maskKey` is set the payload is
/// masked (clients MUST mask; servers MUST NOT — RFC 6455 §5.3).
void EncodeWsFrame(Opcode opcode, BytesView payload, Bytes& out,
                   std::optional<std::uint32_t> maskKey = std::nullopt);

/// Turns the payload already written at out[payloadStart..] into one frame
/// in place: inserts the header (and mask key) in front of it, masking the
/// payload when `maskKey` is set.
void FrameInPlace(Opcode opcode, Bytes& out, std::size_t payloadStart,
                  std::optional<std::uint32_t> maskKey = std::nullopt);

/// Incremental decoder over a ByteQueue. Returns a frame when complete,
/// std::nullopt when more bytes are needed, or an error on protocol
/// violations (bad RSV bits, oversized control frame, wrong masking).
struct WsExtractResult {
  std::optional<WsFrame> frame;
  Status status;
};
WsExtractResult ExtractWsFrame(ByteQueue& in, bool expectMasked,
                               std::size_t maxPayload = 16 * 1024 * 1024);

// ---------------------------------------------------------------------------
// Handshake
// ---------------------------------------------------------------------------

/// Builds the client's HTTP/1.1 upgrade request. `key` is the raw 16-byte
/// nonce, base64-encoded into Sec-WebSocket-Key.
std::string BuildClientHandshake(std::string_view host, std::string_view path,
                                 std::string_view keyBase64);

/// Generates a random Sec-WebSocket-Key (base64 of 16 random bytes).
std::string GenerateKey(Rng& rng);

/// Computes Sec-WebSocket-Accept for a given Sec-WebSocket-Key.
std::string ComputeAccept(std::string_view keyBase64);

/// Result of parsing the server side of the handshake.
struct ServerHandshake {
  std::string path;
  std::string key;   // Sec-WebSocket-Key as received
  std::string host;
};

/// Incrementally parses an HTTP upgrade request from `in`. Consumes the
/// request bytes on success. nullopt = need more bytes.
struct HandshakeParseResult {
  std::optional<ServerHandshake> handshake;
  Status status;
};
HandshakeParseResult ParseClientHandshake(ByteQueue& in);

/// Builds the server's 101 Switching Protocols response.
std::string BuildServerHandshakeResponse(std::string_view keyBase64);

/// Parses/validates the server's 101 response against the expected key.
/// Consumes the response bytes on success. nullopt = need more bytes.
struct ClientHandshakeResult {
  bool complete = false;
  Status status;
};
ClientHandshakeResult ParseServerHandshakeResponse(ByteQueue& in,
                                                   std::string_view expectedKey);

}  // namespace md::ws
