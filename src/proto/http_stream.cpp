#include "proto/http_stream.hpp"

#include <algorithm>

#include "common/strutil.hpp"

namespace md::http {

namespace {

std::size_t FindHeaderEnd(std::string_view data) noexcept {
  const std::size_t pos = data.find("\r\n\r\n");
  return pos == std::string_view::npos ? std::string_view::npos : pos + 4;
}

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

std::string BuildStreamRequest(std::string_view host) {
  std::string req;
  req += "POST ";
  req += kStreamPath;
  req += " HTTP/1.1\r\nHost: ";
  req += host;
  req += "\r\nContent-Type: application/octet-stream\r\n"
         "Transfer-Encoding: chunked\r\nConnection: keep-alive\r\n\r\n";
  return req;
}

std::string BuildStreamResponse() {
  return "HTTP/1.1 200 OK\r\nContent-Type: application/octet-stream\r\n"
         "Transfer-Encoding: chunked\r\nCache-Control: no-store\r\n\r\n";
}

StreamRequestResult ParseStreamRequest(ByteQueue& in) {
  StreamRequestResult result;
  const std::string_view data = AsStringView(in.Peek());
  const std::size_t end = FindHeaderEnd(data);
  if (end == std::string_view::npos) {
    if (data.size() > 16384) {
      result.status = Err(ErrorCode::kProtocol, "oversized request head");
    }
    return result;
  }
  const std::string_view head = data.substr(0, end);

  const std::size_t lineEnd = head.find("\r\n");
  const auto parts = SplitView(head.substr(0, lineEnd), ' ');
  if (parts.size() != 3 || parts[0] != "POST" || parts[1] != kStreamPath ||
      !StartsWith(parts[2], "HTTP/1.1")) {
    result.status = Err(ErrorCode::kProtocol, "bad stream request line");
    return result;
  }
  const auto te = FindHeader(head, "Transfer-Encoding");
  if (!te || !EqualsIgnoreCase(*te, "chunked")) {
    result.status = Err(ErrorCode::kProtocol, "stream request must be chunked");
    return result;
  }
  if (const auto host = FindHeader(head, "Host")) result.host = *host;

  in.Consume(end);
  result.complete = true;
  return result;
}

StreamResponseResult ParseStreamResponse(ByteQueue& in) {
  StreamResponseResult result;
  const std::string_view data = AsStringView(in.Peek());
  const std::size_t end = FindHeaderEnd(data);
  if (end == std::string_view::npos) {
    if (data.size() > 16384) {
      result.status = Err(ErrorCode::kProtocol, "oversized response head");
    }
    return result;
  }
  const std::string_view head = data.substr(0, end);
  if (!StartsWith(head, "HTTP/1.1 200")) {
    result.status = Err(ErrorCode::kProtocol, "stream rejected");
    return result;
  }
  const auto te = FindHeader(head, "Transfer-Encoding");
  if (!te || !EqualsIgnoreCase(*te, "chunked")) {
    result.status = Err(ErrorCode::kProtocol, "stream response must be chunked");
    return result;
  }
  in.Consume(end);
  result.complete = true;
  return result;
}

void EncodeChunk(BytesView payload, Bytes& out) {
  const std::size_t start = out.size();
  out.insert(out.end(), payload.begin(), payload.end());
  ChunkInPlace(out, start);
}

void ChunkInPlace(Bytes& out, std::size_t payloadStart) {
  // Hex size + CRLF: at most 16 digits for a 64-bit length.
  std::uint8_t line[18];
  std::size_t digits = 0;
  std::size_t len = out.size() - payloadStart;
  do {
    line[digits++] = static_cast<std::uint8_t>("0123456789abcdef"[len & 0xF]);
    len >>= 4;
  } while (len != 0);
  std::reverse(line, line + digits);
  line[digits] = '\r';
  line[digits + 1] = '\n';
  out.insert(out.begin() + static_cast<std::ptrdiff_t>(payloadStart), line,
             line + digits + 2);
  out.push_back('\r');
  out.push_back('\n');
}

void EncodeFinalChunk(Bytes& out) {
  static constexpr char kFinal[] = "0\r\n\r\n";
  out.insert(out.end(), kFinal, kFinal + 5);
}

ChunkResult ExtractChunk(ByteQueue& in, std::size_t maxChunk) {
  ChunkResult result;
  const std::string_view data = AsStringView(in.Peek());

  const std::size_t lineEnd = data.find("\r\n");
  if (lineEnd == std::string_view::npos) {
    if (data.size() > 18) {
      result.status = Err(ErrorCode::kProtocol, "chunk size line too long");
    }
    return result;
  }

  // Parse the hex size (chunk extensions after ';' are tolerated/ignored).
  std::size_t size = 0;
  std::size_t digits = 0;
  for (const char c : data.substr(0, lineEnd)) {
    if (c == ';') break;
    int v;
    if (c >= '0' && c <= '9') {
      v = c - '0';
    } else if (c >= 'a' && c <= 'f') {
      v = c - 'a' + 10;
    } else if (c >= 'A' && c <= 'F') {
      v = c - 'A' + 10;
    } else {
      result.status = Err(ErrorCode::kProtocol, "bad chunk size");
      return result;
    }
    size = size * 16 + static_cast<std::size_t>(v);
    if (++digits > 8) {
      result.status = Err(ErrorCode::kProtocol, "chunk size overflow");
      return result;
    }
  }
  if (digits == 0) {
    result.status = Err(ErrorCode::kProtocol, "missing chunk size");
    return result;
  }
  if (size > maxChunk) {
    result.status = Err(ErrorCode::kProtocol, "chunk exceeds limit");
    return result;
  }

  if (size == 0) {
    // Terminal chunk: "0\r\n" followed by a final "\r\n" (no trailers sent
    // by this implementation; tolerate their absence only when complete).
    if (data.size() < lineEnd + 4) return result;  // need more
    if (data.substr(lineEnd + 2, 2) != "\r\n") {
      result.status = Err(ErrorCode::kProtocol, "trailers unsupported");
      return result;
    }
    in.Consume(lineEnd + 4);
    result.endOfStream = true;
    return result;
  }

  const std::size_t total = lineEnd + 2 + size + 2;
  if (data.size() < total) return result;  // need more bytes
  if (data.substr(lineEnd + 2 + size, 2) != "\r\n") {
    result.status = Err(ErrorCode::kProtocol, "chunk missing CRLF");
    return result;
  }
  const BytesView view = in.Peek().subspan(lineEnd + 2, size);
  result.payload = Bytes(view.begin(), view.end());
  in.Consume(total);
  return result;
}

}  // namespace md::http
