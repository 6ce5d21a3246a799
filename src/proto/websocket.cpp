#include "proto/websocket.hpp"

#include <cstring>

#include "common/sha1.hpp"
#include "common/strutil.hpp"

namespace md::ws {

namespace {

constexpr std::string_view kGuid = "258EAFA5-E914-47DA-95CA-C5AB0DC85B11";
constexpr std::size_t kMaxControlPayload = 125;

void ApplyMask(std::uint8_t* data, std::size_t len, std::uint32_t key) noexcept {
  std::uint8_t keyBytes[4] = {
      static_cast<std::uint8_t>(key >> 24), static_cast<std::uint8_t>(key >> 16),
      static_cast<std::uint8_t>(key >> 8), static_cast<std::uint8_t>(key)};
  for (std::size_t i = 0; i < len; ++i) data[i] ^= keyBytes[i % 4];
}

/// Writes the header of a final frame carrying `len` payload bytes (mask
/// bit set when `masked`, key not included) into `head` (room for 10
/// bytes); returns its length.
std::size_t WriteHeader(Opcode opcode, std::size_t len, bool masked,
                        std::uint8_t* head) noexcept {
  const std::uint8_t maskBit = masked ? 0x80 : 0x00;
  head[0] = static_cast<std::uint8_t>(0x80 | static_cast<std::uint8_t>(opcode));
  if (len < 126) {
    head[1] = static_cast<std::uint8_t>(maskBit | len);
    return 2;
  }
  if (len <= 0xFFFF) {
    head[1] = maskBit | 126;
    head[2] = static_cast<std::uint8_t>(len >> 8);
    head[3] = static_cast<std::uint8_t>(len);
    return 4;
  }
  head[1] = maskBit | 127;
  for (int i = 0; i < 8; ++i) {
    head[2 + i] = static_cast<std::uint8_t>(static_cast<std::uint64_t>(len) >> (8 * (7 - i)));
  }
  return 10;
}

}  // namespace

void EncodeWsFrame(Opcode opcode, BytesView payload, Bytes& out,
                   std::optional<std::uint32_t> maskKey) {
  const std::size_t start = out.size();
  out.insert(out.end(), payload.begin(), payload.end());
  FrameInPlace(opcode, out, start, maskKey);
}

void FrameInPlace(Opcode opcode, Bytes& out, std::size_t payloadStart,
                  std::optional<std::uint32_t> maskKey) {
  const std::size_t len = out.size() - payloadStart;
  std::uint8_t head[14];
  std::size_t headLen = WriteHeader(opcode, len, maskKey.has_value(), head);
  if (maskKey) {
    for (int shift = 24; shift >= 0; shift -= 8) {
      head[headLen++] = static_cast<std::uint8_t>(*maskKey >> shift);
    }
  }
  out.insert(out.begin() + static_cast<std::ptrdiff_t>(payloadStart), head,
             head + headLen);
  if (maskKey) ApplyMask(out.data() + payloadStart + headLen, len, *maskKey);
}

WsExtractResult ExtractWsFrame(ByteQueue& in, bool expectMasked,
                               std::size_t maxPayload) {
  WsExtractResult result;
  const BytesView data = in.Peek();
  if (data.size() < 2) return result;

  const std::uint8_t b0 = data[0];
  const std::uint8_t b1 = data[1];
  const bool fin = (b0 & 0x80) != 0;
  if ((b0 & 0x70) != 0) {
    result.status = Err(ErrorCode::kProtocol, "nonzero RSV bits");
    return result;
  }
  const auto opcode = static_cast<Opcode>(b0 & 0x0F);
  switch (opcode) {
    case Opcode::kContinuation:
    case Opcode::kText:
    case Opcode::kBinary:
    case Opcode::kClose:
    case Opcode::kPing:
    case Opcode::kPong:
      break;
    default:
      result.status = Err(ErrorCode::kProtocol, "reserved opcode");
      return result;
  }
  const bool masked = (b1 & 0x80) != 0;
  if (masked != expectMasked) {
    result.status = Err(ErrorCode::kProtocol,
                        expectMasked ? "client frame not masked"
                                     : "server frame masked");
    return result;
  }

  std::size_t pos = 2;
  std::uint64_t len = b1 & 0x7F;
  if (len == 126) {
    if (data.size() < pos + 2) return result;
    len = (static_cast<std::uint64_t>(data[pos]) << 8) | data[pos + 1];
    pos += 2;
  } else if (len == 127) {
    if (data.size() < pos + 8) return result;
    len = 0;
    for (int i = 0; i < 8; ++i) len = (len << 8) | data[pos + i];
    pos += 8;
  }

  const bool isControl = (static_cast<std::uint8_t>(opcode) & 0x8) != 0;
  if (isControl && (len > kMaxControlPayload || !fin)) {
    result.status = Err(ErrorCode::kProtocol, "invalid control frame");
    return result;
  }
  if (len > maxPayload) {
    result.status = Err(ErrorCode::kProtocol, "payload exceeds limit");
    return result;
  }

  std::uint32_t maskKey = 0;
  if (masked) {
    if (data.size() < pos + 4) return result;
    maskKey = (static_cast<std::uint32_t>(data[pos]) << 24) |
              (static_cast<std::uint32_t>(data[pos + 1]) << 16) |
              (static_cast<std::uint32_t>(data[pos + 2]) << 8) |
              static_cast<std::uint32_t>(data[pos + 3]);
    pos += 4;
  }

  if (data.size() < pos + len) return result;

  WsFrame frame;
  frame.opcode = opcode;
  frame.fin = fin;
  frame.payload.assign(data.begin() + static_cast<std::ptrdiff_t>(pos),
                       data.begin() + static_cast<std::ptrdiff_t>(pos + len));
  if (masked) ApplyMask(frame.payload.data(), frame.payload.size(), maskKey);

  in.Consume(pos + static_cast<std::size_t>(len));
  result.frame = std::move(frame);
  return result;
}

// ---------------------------------------------------------------------------
// Handshake
// ---------------------------------------------------------------------------

std::string GenerateKey(Rng& rng) {
  char nonce[16];
  for (auto& c : nonce) c = static_cast<char>(rng.NextBelow(256));
  return Base64Encode(std::string_view(nonce, sizeof(nonce)));
}

std::string ComputeAccept(std::string_view keyBase64) {
  std::string material(keyBase64);
  material += kGuid;
  return Base64Encode(Sha1String(material));
}

std::string BuildClientHandshake(std::string_view host, std::string_view path,
                                 std::string_view keyBase64) {
  std::string req;
  req += "GET ";
  req += path;
  req += " HTTP/1.1\r\nHost: ";
  req += host;
  req += "\r\nUpgrade: websocket\r\nConnection: Upgrade\r\nSec-WebSocket-Key: ";
  req += keyBase64;
  req += "\r\nSec-WebSocket-Version: 13\r\n\r\n";
  return req;
}

namespace {

/// Finds \r\n\r\n; returns the offset just past it, or npos.
std::size_t FindHeaderEnd(std::string_view data) noexcept {
  const std::size_t pos = data.find("\r\n\r\n");
  return pos == std::string_view::npos ? std::string_view::npos : pos + 4;
}

/// Case-insensitive single-header lookup within a raw HTTP head block.
std::optional<std::string> FindHeader(std::string_view head, std::string_view name) {
  for (std::string_view line : SplitView(head, '\n')) {
    if (!line.empty() && line.back() == '\r') line.remove_suffix(1);
    const std::size_t colon = line.find(':');
    if (colon == std::string_view::npos) continue;
    if (EqualsIgnoreCase(TrimView(line.substr(0, colon)), name)) {
      return std::string(TrimView(line.substr(colon + 1)));
    }
  }
  return std::nullopt;
}

}  // namespace

HandshakeParseResult ParseClientHandshake(ByteQueue& in) {
  HandshakeParseResult result;
  const std::string_view data = AsStringView(in.Peek());
  const std::size_t end = FindHeaderEnd(data);
  if (end == std::string_view::npos) {
    if (data.size() > 16384) {
      result.status = Err(ErrorCode::kProtocol, "oversized handshake");
    }
    return result;
  }
  const std::string_view head = data.substr(0, end);

  // Request line: GET <path> HTTP/1.1
  const std::size_t lineEnd = head.find("\r\n");
  const std::string_view requestLine = head.substr(0, lineEnd);
  const auto parts = SplitView(requestLine, ' ');
  if (parts.size() != 3 || parts[0] != "GET" || !StartsWith(parts[2], "HTTP/1.1")) {
    result.status = Err(ErrorCode::kProtocol, "bad request line");
    return result;
  }

  ServerHandshake hs;
  hs.path = std::string(parts[1]);

  const auto upgrade = FindHeader(head, "Upgrade");
  const auto key = FindHeader(head, "Sec-WebSocket-Key");
  const auto version = FindHeader(head, "Sec-WebSocket-Version");
  if (!upgrade || !EqualsIgnoreCase(*upgrade, "websocket") || !key ||
      !version || *version != "13") {
    result.status = Err(ErrorCode::kProtocol, "missing/invalid upgrade headers");
    return result;
  }
  hs.key = *key;
  if (const auto host = FindHeader(head, "Host")) hs.host = *host;

  in.Consume(end);
  result.handshake = std::move(hs);
  return result;
}

std::string BuildServerHandshakeResponse(std::string_view keyBase64) {
  std::string resp;
  resp += "HTTP/1.1 101 Switching Protocols\r\nUpgrade: websocket\r\n"
          "Connection: Upgrade\r\nSec-WebSocket-Accept: ";
  resp += ComputeAccept(keyBase64);
  resp += "\r\n\r\n";
  return resp;
}

ClientHandshakeResult ParseServerHandshakeResponse(ByteQueue& in,
                                                   std::string_view expectedKey) {
  ClientHandshakeResult result;
  const std::string_view data = AsStringView(in.Peek());
  const std::size_t end = FindHeaderEnd(data);
  if (end == std::string_view::npos) {
    if (data.size() > 16384) {
      result.status = Err(ErrorCode::kProtocol, "oversized handshake response");
    }
    return result;
  }
  const std::string_view head = data.substr(0, end);
  if (!StartsWith(head, "HTTP/1.1 101")) {
    result.status = Err(ErrorCode::kProtocol, "handshake rejected");
    return result;
  }
  const auto accept = FindHeader(head, "Sec-WebSocket-Accept");
  if (!accept || *accept != ComputeAccept(expectedKey)) {
    result.status = Err(ErrorCode::kProtocol, "bad Sec-WebSocket-Accept");
    return result;
  }
  in.Consume(end);
  result.complete = true;
  return result;
}

}  // namespace md::ws
