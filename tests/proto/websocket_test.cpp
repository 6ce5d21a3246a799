#include "proto/websocket.hpp"

#include <gtest/gtest.h>

#include "common/rng.hpp"

namespace md::ws {
namespace {

TEST(WsFrameTest, UnmaskedSmallFrameRoundTrip) {
  Bytes wire;
  const Bytes payload{1, 2, 3};
  EncodeWsFrame(Opcode::kBinary, BytesView(payload), wire);
  ByteQueue q;
  q.Append(BytesView(wire));
  auto r = ExtractWsFrame(q, /*expectMasked=*/false);
  ASSERT_TRUE(r.status.ok());
  ASSERT_TRUE(r.frame.has_value());
  EXPECT_EQ(r.frame->opcode, Opcode::kBinary);
  EXPECT_TRUE(r.frame->fin);
  EXPECT_EQ(r.frame->payload, payload);
}

TEST(WsFrameTest, MaskedFrameRoundTrip) {
  Bytes wire;
  const Bytes payload{10, 20, 30, 40, 50};
  EncodeWsFrame(Opcode::kBinary, BytesView(payload), wire, 0xA1B2C3D4);
  ByteQueue q;
  q.Append(BytesView(wire));
  auto r = ExtractWsFrame(q, /*expectMasked=*/true);
  ASSERT_TRUE(r.status.ok());
  ASSERT_TRUE(r.frame.has_value());
  EXPECT_EQ(r.frame->payload, payload);
}

TEST(WsFrameTest, MaskingActuallyScramblesWire) {
  Bytes masked, unmasked;
  const Bytes payload{'h', 'e', 'l', 'l', 'o'};
  EncodeWsFrame(Opcode::kBinary, BytesView(payload), unmasked);
  EncodeWsFrame(Opcode::kBinary, BytesView(payload), masked, 0xDEADBEEF);
  // Masked wire must not contain the plaintext payload.
  const std::string maskedStr(masked.begin(), masked.end());
  EXPECT_EQ(maskedStr.find("hello"), std::string::npos);
}

TEST(WsFrameTest, FrameInPlaceAppendsBehindEarlierFrames) {
  // Two frames built in place in one buffer, the second behind the first:
  // each header goes in front of its own payload, masked or not.
  const Bytes first{1, 2, 3};
  const Bytes second(300, 0x42);
  for (const bool masked : {false, true}) {
    Bytes wire(first.begin(), first.end());
    const auto key = masked ? std::optional<std::uint32_t>(0x01020304) : std::nullopt;
    FrameInPlace(Opcode::kBinary, wire, 0, key);
    const std::size_t start = wire.size();
    wire.insert(wire.end(), second.begin(), second.end());
    FrameInPlace(Opcode::kText, wire, start, key);

    ByteQueue q;
    q.Append(BytesView(wire));
    for (const Bytes* payload : {&first, &second}) {
      auto r = ExtractWsFrame(q, /*expectMasked=*/masked);
      ASSERT_TRUE(r.status.ok());
      ASSERT_TRUE(r.frame.has_value());
      EXPECT_EQ(r.frame->payload, *payload);
    }
    EXPECT_EQ(q.size(), 0u);
  }
}

class WsPayloadSizes : public ::testing::TestWithParam<std::size_t> {};

TEST_P(WsPayloadSizes, RoundTripsAtLengthBoundaries) {
  const std::size_t n = GetParam();
  Bytes payload(n);
  Rng rng(n);
  for (auto& b : payload) b = static_cast<std::uint8_t>(rng.Next());

  for (const bool mask : {false, true}) {
    Bytes wire;
    EncodeWsFrame(Opcode::kBinary, BytesView(payload), wire,
                  mask ? std::optional<std::uint32_t>(0x12345678) : std::nullopt);
    ByteQueue q;
    q.Append(BytesView(wire));
    auto r = ExtractWsFrame(q, mask, 1 << 20);
    ASSERT_TRUE(r.status.ok());
    ASSERT_TRUE(r.frame.has_value());
    EXPECT_EQ(r.frame->payload, payload);
    EXPECT_TRUE(q.empty());
  }
}

// 125/126/127 and 65535/65536 are the wire-format length-encoding boundaries.
INSTANTIATE_TEST_SUITE_P(Boundaries, WsPayloadSizes,
                         ::testing::Values(0, 1, 125, 126, 127, 65535, 65536,
                                           100000));

TEST(WsFrameTest, IncrementalFeedByteByByte) {
  Bytes wire;
  Bytes payload(300, 0x42);
  EncodeWsFrame(Opcode::kBinary, BytesView(payload), wire, 0x01020304);
  ByteQueue q;
  int produced = 0;
  for (std::size_t i = 0; i < wire.size(); ++i) {
    q.Append(BytesView(wire).subspan(i, 1));
    auto r = ExtractWsFrame(q, true);
    ASSERT_TRUE(r.status.ok());
    if (r.frame) {
      ++produced;
      EXPECT_EQ(r.frame->payload, payload);
    }
  }
  EXPECT_EQ(produced, 1);
}

TEST(WsFrameTest, ControlFramesPingPongClose) {
  for (const Opcode op : {Opcode::kPing, Opcode::kPong, Opcode::kClose}) {
    Bytes wire;
    const Bytes payload{0x03, 0xE8};  // e.g. close code 1000
    EncodeWsFrame(op, BytesView(payload), wire);
    ByteQueue q;
    q.Append(BytesView(wire));
    auto r = ExtractWsFrame(q, false);
    ASSERT_TRUE(r.status.ok());
    ASSERT_TRUE(r.frame.has_value());
    EXPECT_EQ(r.frame->opcode, op);
    EXPECT_EQ(r.frame->payload, payload);
  }
}

TEST(WsFrameTest, RejectsWrongMasking) {
  Bytes wire;
  EncodeWsFrame(Opcode::kBinary, BytesView{}, wire);  // unmasked
  ByteQueue q;
  q.Append(BytesView(wire));
  auto r = ExtractWsFrame(q, /*expectMasked=*/true);
  EXPECT_EQ(r.status.code(), ErrorCode::kProtocol);
}

TEST(WsFrameTest, RejectsReservedBits) {
  Bytes wire{0xC2, 0x00};  // FIN + RSV1 set, binary, empty
  ByteQueue q;
  q.Append(BytesView(wire));
  auto r = ExtractWsFrame(q, false);
  EXPECT_EQ(r.status.code(), ErrorCode::kProtocol);
}

TEST(WsFrameTest, RejectsReservedOpcode) {
  Bytes wire{0x83, 0x00};  // opcode 0x3 is reserved
  ByteQueue q;
  q.Append(BytesView(wire));
  auto r = ExtractWsFrame(q, false);
  EXPECT_EQ(r.status.code(), ErrorCode::kProtocol);
}

TEST(WsFrameTest, RejectsOversizedControlFrame) {
  // Control frames may not exceed 125 bytes — craft a ping claiming 126.
  Bytes wire{0x89, 126, 0x00, 0x80};
  ByteQueue q;
  q.Append(BytesView(wire));
  auto r = ExtractWsFrame(q, false);
  EXPECT_EQ(r.status.code(), ErrorCode::kProtocol);
}

TEST(WsFrameTest, RejectsPayloadBeyondLimit) {
  Bytes wire;
  Bytes payload(2000, 1);
  EncodeWsFrame(Opcode::kBinary, BytesView(payload), wire);
  ByteQueue q;
  q.Append(BytesView(wire));
  auto r = ExtractWsFrame(q, false, /*maxPayload=*/1000);
  EXPECT_EQ(r.status.code(), ErrorCode::kProtocol);
}

// --- handshake ---------------------------------------------------------------

TEST(WsHandshakeTest, AcceptKeyMatchesRfcExample) {
  EXPECT_EQ(ComputeAccept("dGhlIHNhbXBsZSBub25jZQ=="),
            "s3pPLMBiTxaQ9kYGzzhZRbK+xOo=");
}

TEST(WsHandshakeTest, FullClientServerExchange) {
  Rng rng(1);
  const std::string key = GenerateKey(rng);
  const std::string request = BuildClientHandshake("example.com:8080", "/md", key);

  ByteQueue serverIn;
  serverIn.Append(request);
  auto parsed = ParseClientHandshake(serverIn);
  ASSERT_TRUE(parsed.status.ok()) << parsed.status.ToString();
  ASSERT_TRUE(parsed.handshake.has_value());
  EXPECT_EQ(parsed.handshake->path, "/md");
  EXPECT_EQ(parsed.handshake->key, key);
  EXPECT_EQ(parsed.handshake->host, "example.com:8080");
  EXPECT_TRUE(serverIn.empty());

  const std::string response = BuildServerHandshakeResponse(parsed.handshake->key);
  ByteQueue clientIn;
  clientIn.Append(response);
  auto done = ParseServerHandshakeResponse(clientIn, key);
  EXPECT_TRUE(done.status.ok());
  EXPECT_TRUE(done.complete);
  EXPECT_TRUE(clientIn.empty());
}

TEST(WsHandshakeTest, PartialRequestNeedsMoreBytes) {
  ByteQueue q;
  q.Append(std::string_view("GET /md HTTP/1.1\r\nHost: x\r\n"));
  auto r = ParseClientHandshake(q);
  EXPECT_TRUE(r.status.ok());
  EXPECT_FALSE(r.handshake.has_value());
}

TEST(WsHandshakeTest, RejectsNonGet) {
  ByteQueue q;
  q.Append(std::string_view("POST /md HTTP/1.1\r\nUpgrade: websocket\r\n"
                            "Sec-WebSocket-Key: aaa\r\nSec-WebSocket-Version: 13\r\n\r\n"));
  auto r = ParseClientHandshake(q);
  EXPECT_EQ(r.status.code(), ErrorCode::kProtocol);
}

TEST(WsHandshakeTest, RejectsMissingUpgradeHeader) {
  ByteQueue q;
  q.Append(std::string_view("GET /md HTTP/1.1\r\nHost: x\r\n"
                            "Sec-WebSocket-Key: aaa\r\nSec-WebSocket-Version: 13\r\n\r\n"));
  auto r = ParseClientHandshake(q);
  EXPECT_EQ(r.status.code(), ErrorCode::kProtocol);
}

TEST(WsHandshakeTest, RejectsWrongVersion) {
  ByteQueue q;
  q.Append(std::string_view("GET /md HTTP/1.1\r\nUpgrade: websocket\r\n"
                            "Sec-WebSocket-Key: aaa\r\nSec-WebSocket-Version: 8\r\n\r\n"));
  auto r = ParseClientHandshake(q);
  EXPECT_EQ(r.status.code(), ErrorCode::kProtocol);
}

TEST(WsHandshakeTest, HeaderNamesAreCaseInsensitive) {
  ByteQueue q;
  q.Append(std::string_view("GET / HTTP/1.1\r\nUPGRADE: WebSocket\r\n"
                            "SEC-WEBSOCKET-KEY: k\r\nsec-websocket-version: 13\r\n\r\n"));
  auto r = ParseClientHandshake(q);
  ASSERT_TRUE(r.status.ok());
  ASSERT_TRUE(r.handshake.has_value());
  EXPECT_EQ(r.handshake->key, "k");
}

TEST(WsHandshakeTest, RejectsBadAcceptFromServer) {
  ByteQueue q;
  q.Append(std::string_view("HTTP/1.1 101 Switching Protocols\r\n"
                            "Upgrade: websocket\r\nConnection: Upgrade\r\n"
                            "Sec-WebSocket-Accept: WRONG\r\n\r\n"));
  auto r = ParseServerHandshakeResponse(q, "somekey");
  EXPECT_EQ(r.status.code(), ErrorCode::kProtocol);
}

TEST(WsHandshakeTest, RejectsNon101Response) {
  ByteQueue q;
  q.Append(std::string_view("HTTP/1.1 400 Bad Request\r\n\r\n"));
  auto r = ParseServerHandshakeResponse(q, "k");
  EXPECT_EQ(r.status.code(), ErrorCode::kProtocol);
}

TEST(WsHandshakeTest, TrailingFrameBytesSurviveHandshakeParse) {
  // Frames may arrive in the same TCP segment as the handshake.
  Rng rng(2);
  const std::string key = GenerateKey(rng);
  ByteQueue q;
  q.Append(BuildClientHandshake("h", "/", key));
  Bytes frame;
  EncodeWsFrame(Opcode::kBinary, BytesView{}, frame, 0x11223344);
  q.Append(BytesView(frame));

  auto parsed = ParseClientHandshake(q);
  ASSERT_TRUE(parsed.handshake.has_value());
  auto r = ExtractWsFrame(q, true);
  ASSERT_TRUE(r.status.ok());
  EXPECT_TRUE(r.frame.has_value());
}

}  // namespace
}  // namespace md::ws
