// HTTP fallback transport (paper §3: clients connect "over WebSockets (or
// HTTP)").
//
// Clients that cannot speak WebSocket open a full-duplex chunked HTTP/1.1
// exchange: a POST request with `Transfer-Encoding: chunked` streams protocol
// frames upward (one frame per chunk) while the `200 OK` response streams
// frames downward the same way. A zero-length chunk terminates a direction,
// per RFC 9112 §7.1.
#pragma once

#include <optional>
#include <string>
#include <string_view>

#include "common/bytes.hpp"
#include "common/status.hpp"

namespace md::http {

/// Path the server recognises as a streaming session.
inline constexpr std::string_view kStreamPath = "/stream";

/// Client's request head (POST /stream + chunked).
std::string BuildStreamRequest(std::string_view host);

/// Server's response head (200 OK + chunked).
std::string BuildStreamResponse();

/// Parses/validates the client's request head. Consumes it on success.
/// nullopt + OK = need more bytes.
struct StreamRequestResult {
  bool complete = false;
  std::string host;
  Status status;
};
StreamRequestResult ParseStreamRequest(ByteQueue& in);

/// Parses/validates the server's response head. Consumes it on success.
struct StreamResponseResult {
  bool complete = false;
  Status status;
};
StreamResponseResult ParseStreamResponse(ByteQueue& in);

/// Appends one chunk (hex length, CRLF, payload, CRLF).
void EncodeChunk(BytesView payload, Bytes& out);

/// Turns the payload already written at out[payloadStart..] into one chunk:
/// inserts the hex length line in front of it and appends the CRLF.
void ChunkInPlace(Bytes& out, std::size_t payloadStart);

/// Appends the terminal zero-length chunk.
void EncodeFinalChunk(Bytes& out);

/// Extracts one chunk. `endOfStream` marks the zero-length terminator.
struct ChunkResult {
  std::optional<Bytes> payload;
  bool endOfStream = false;
  Status status;
};
ChunkResult ExtractChunk(ByteQueue& in, std::size_t maxChunk = 16 * 1024 * 1024);

}  // namespace md::http
