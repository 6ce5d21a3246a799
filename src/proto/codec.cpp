#include "proto/codec.hpp"

#include <algorithm>
#include <utility>

namespace md {

namespace {

// --- field-level helpers ----------------------------------------------------

void WritePubId(ByteWriter& w, const PublicationId& id) {
  w.WriteU64(id.clientHash);
  w.WriteVarint(id.counter);
}

Status ReadPubId(ByteReader& r, PublicationId& id) {
  if (Status s = r.ReadU64(id.clientHash); !s.ok()) return s;
  return r.ReadVarint(id.counter);
}

void WriteMessage(ByteWriter& w, const Message& m) {
  w.WriteString(m.topic);
  w.WriteLengthPrefixed(m.payload);
  w.WriteVarint(m.epoch);
  w.WriteVarint(m.seq);
  WritePubId(w, m.pubId);
  w.WriteU64(static_cast<std::uint64_t>(m.publishTs));
}

Status ReadMessage(ByteReader& r, Message& m) {
  if (Status s = r.ReadString(m.topic); !s.ok()) return s;
  BytesView payload;
  if (Status s = r.ReadLengthPrefixed(payload); !s.ok()) return s;
  m.payload.assign(payload.begin(), payload.end());
  std::uint64_t epoch = 0;
  if (Status s = r.ReadVarint(epoch); !s.ok()) return s;
  m.epoch = static_cast<std::uint32_t>(epoch);
  if (Status s = r.ReadVarint(m.seq); !s.ok()) return s;
  if (Status s = ReadPubId(r, m.pubId); !s.ok()) return s;
  std::uint64_t ts = 0;
  if (Status s = r.ReadU64(ts); !s.ok()) return s;
  m.publishTs = static_cast<std::int64_t>(ts);
  return OkStatus();
}

void WritePos(ByteWriter& w, const StreamPos& p) {
  w.WriteVarint(p.epoch);
  w.WriteVarint(p.seq);
}

Status ReadPos(ByteReader& r, StreamPos& p) {
  std::uint64_t epoch = 0;
  if (Status s = r.ReadVarint(epoch); !s.ok()) return s;
  p.epoch = static_cast<std::uint32_t>(epoch);
  return r.ReadVarint(p.seq);
}

/// Strict 32-bit epoch read for the rebalancing frames: a varint past
/// UINT32_MAX is a malformed (or adversarial) frame, not a silent wrap —
/// fence comparisons must never see a truncated epoch.
Status ReadEpoch32(ByteReader& r, std::uint32_t& out) {
  std::uint64_t v = 0;
  if (Status s = r.ReadVarint(v); !s.ok()) return s;
  if (v > 0xFFFFFFFFULL) return Err(ErrorCode::kProtocol, "epoch overflow");
  out = static_cast<std::uint32_t>(v);
  return OkStatus();
}

void WriteCursors(ByteWriter& w,
                  const std::vector<std::pair<std::string, StreamPos>>& cursors) {
  w.WriteVarint(cursors.size());
  for (const auto& [topic, pos] : cursors) {
    w.WriteString(topic);
    WritePos(w, pos);
  }
}

Status ReadCursors(ByteReader& r,
                   std::vector<std::pair<std::string, StreamPos>>& out) {
  std::uint64_t count = 0;
  if (Status s = r.ReadVarint(count); !s.ok()) return s;
  if (count > 1'000'000) return Err(ErrorCode::kProtocol, "absurd cursor count");
  out.reserve(static_cast<std::size_t>(count));
  for (std::uint64_t i = 0; i < count; ++i) {
    std::string topic;
    if (Status s = r.ReadString(topic); !s.ok()) return s;
    StreamPos pos;
    if (Status s = ReadPos(r, pos); !s.ok()) return s;
    out.emplace_back(std::move(topic), pos);
  }
  return OkStatus();
}

// --- output sizing ----------------------------------------------------------

/// Room for the header a framing inserts in front of a body under 64 KiB,
/// and the HTTP chunk's trailing CRLF.
constexpr std::size_t kFramingRoom = 8;
/// Room reserved for a frame without a payload (acks, notices, pings).
constexpr std::size_t kSmallFrame = 24;

std::size_t VarintSize(std::uint64_t v) noexcept {
  std::size_t n = 1;
  for (; v >= 0x80; v >>= 7) ++n;
  return n;
}

std::size_t StringSize(std::size_t len) noexcept { return VarintSize(len) + len; }

/// Bytes WriteMessage writes for `m`.
std::size_t MessageSize(const Message& m) noexcept {
  return StringSize(m.topic.size()) + StringSize(m.payload.size()) +
         VarintSize(m.epoch) + VarintSize(m.seq) + 8 + VarintSize(m.pubId.counter) + 8;
}

/// Bytes a frame takes once framed: exact, plus kFramingRoom, for the frames
/// a publication travels in; a small guess for the rest.
std::size_t SizeHint(const Frame& frame) noexcept {
  if (const auto* d = std::get_if<DeliverFrame>(&frame)) {
    return 1 + MessageSize(d->msg) + kFramingRoom;
  }
  if (const auto* b = std::get_if<BroadcastFrame>(&frame)) {
    return 1 + MessageSize(b->msg) + VarintSize(b->group) +
           StringSize(b->coordinatorId.size()) + VarintSize(b->fenceEpoch) + kFramingRoom;
  }
  if (const auto* p = std::get_if<PublishFrame>(&frame)) {
    return 1 + StringSize(p->topic.size()) + StringSize(p->payload.size()) + 8 +
           VarintSize(p->pubId.counter) + 1 + 8 + kFramingRoom;
  }
  if (const auto* f = std::get_if<ForwardPubFrame>(&frame)) {
    return 1 + StringSize(f->topic.size()) + StringSize(f->payload.size()) + 8 +
           VarintSize(f->pubId.counter) + StringSize(f->originServerId.size()) + 8 + 1 +
           kFramingRoom;
  }
  return kSmallFrame;
}

/// Makes room for `bytes` more in `out` before an encode appends them: a
/// fresh buffer gets one allocation of the frame's size instead of a chain
/// of regrowths, frames appended back to back still grow the buffer
/// geometrically, and a warm buffer is left alone.
void ReserveFor(Bytes& out, std::size_t bytes) {
  const std::size_t need = out.size() + bytes;
  if (need > out.capacity()) out.reserve(std::max(need, 2 * out.capacity()));
}

// --- per-frame encoders -----------------------------------------------------

struct Encoder {
  ByteWriter& w;

  void operator()(const ConnectFrame& f) { w.WriteString(f.clientId); }
  void operator()(const ConnAckFrame& f) { w.WriteString(f.serverId); }
  void operator()(const SubscribeFrame& f) {
    w.WriteString(f.topic);
    w.WriteU8(f.hasResumePos ? 1 : 0);
    if (f.hasResumePos) WritePos(w, f.resumeAfter);
  }
  void operator()(const SubAckFrame& f) {
    w.WriteString(f.topic);
    w.WriteU8(f.ok ? 1 : 0);
  }
  void operator()(const UnsubscribeFrame& f) { w.WriteString(f.topic); }
  void operator()(const PublishFrame& f) {
    w.WriteString(f.topic);
    w.WriteLengthPrefixed(f.payload);
    WritePubId(w, f.pubId);
    w.WriteU8(f.wantAck ? 1 : 0);
    w.WriteU64(static_cast<std::uint64_t>(f.publishTs));
  }
  void operator()(const PubAckFrame& f) {
    WritePubId(w, f.pubId);
    w.WriteU8(static_cast<std::uint8_t>(f.code));
  }
  void operator()(const DeliverFrame& f) { WriteMessage(w, f.msg); }
  void operator()(const PingFrame& f) { w.WriteVarint(f.nonce); }
  void operator()(const PongFrame& f) { w.WriteVarint(f.nonce); }
  void operator()(const DisconnectFrame& f) { w.WriteString(f.reason); }
  void operator()(const HelloFrame& f) { w.WriteString(f.serverId); }
  void operator()(const ForwardPubFrame& f) {
    w.WriteString(f.topic);
    w.WriteLengthPrefixed(f.payload);
    WritePubId(w, f.pubId);
    w.WriteString(f.originServerId);
    w.WriteU64(static_cast<std::uint64_t>(f.publishTs));
    w.WriteU8(f.electIfUnassigned ? 1 : 0);
  }
  void operator()(const BroadcastFrame& f) {
    WriteMessage(w, f.msg);
    w.WriteVarint(f.group);
    w.WriteString(f.coordinatorId);
    w.WriteVarint(f.fenceEpoch);
  }
  void operator()(const BroadcastAckFrame& f) {
    w.WriteVarint(f.group);
    w.WriteVarint(f.epoch);
    w.WriteVarint(f.seq);
    w.WriteString(f.topic);
  }
  void operator()(const ForwardRejectFrame& f) {
    WritePubId(w, f.pubId);
    w.WriteString(f.topic);
  }
  void operator()(const ReplicatedNoticeFrame& f) {
    WritePubId(w, f.pubId);
    w.WriteString(f.topic);
  }
  void operator()(const GossipAnnounceFrame& f) {
    w.WriteVarint(f.group);
    w.WriteVarint(f.epoch);
    w.WriteString(f.serverId);
  }
  void operator()(const CacheSyncReqFrame& f) {
    w.WriteVarint(f.group);
    w.WriteVarint(f.have.size());
    for (const auto& [topic, pos] : f.have) {
      w.WriteString(topic);
      WritePos(w, pos);
    }
    w.WriteVarint(f.head.size());
    for (const auto& [topic, pos] : f.head) {
      w.WriteString(topic);
      WritePos(w, pos);
    }
  }
  void operator()(const CacheSyncRespFrame& f) {
    w.WriteVarint(f.group);
    w.WriteVarint(f.messages.size());
    for (const auto& m : f.messages) WriteMessage(w, m);
    w.WriteU8(f.done ? 1 : 0);
  }
  void operator()(const HandoffFrame& f) {
    w.WriteString(f.targetServerId);
    w.WriteVarint(f.partition);
    w.WriteVarint(f.rebalanceEpoch);
    WriteCursors(w, f.cursors);
  }
  void operator()(const HandoffBeginFrame& f) {
    w.WriteVarint(f.partition);
    w.WriteVarint(f.fenceEpoch);
    w.WriteU64(f.handoffId);
    w.WriteString(f.fromServerId);
    w.WriteVarint(f.sessions.size());
    for (const auto& s : f.sessions) {
      w.WriteString(s.clientId);
      WriteCursors(w, s.cursors);
    }
  }
  void operator()(const HandoffAckFrame& f) {
    w.WriteU64(f.handoffId);
    w.WriteVarint(f.partition);
    w.WriteVarint(f.fenceEpoch);
    w.WriteU8(f.ok ? 1 : 0);
  }
};

// --- per-frame decoders -----------------------------------------------------

template <typename F>
Result<Frame> DecodeInto(ByteReader& r, Status (*fill)(ByteReader&, F&)) {
  F f{};
  if (Status s = fill(r, f); !s.ok()) return s;
  if (!r.AtEnd()) return Err(ErrorCode::kProtocol, "trailing bytes in frame");
  return Frame(std::move(f));
}

Status FillConnect(ByteReader& r, ConnectFrame& f) { return r.ReadString(f.clientId); }
Status FillConnAck(ByteReader& r, ConnAckFrame& f) { return r.ReadString(f.serverId); }

Status FillSubscribe(ByteReader& r, SubscribeFrame& f) {
  if (Status s = r.ReadString(f.topic); !s.ok()) return s;
  std::uint8_t flag = 0;
  if (Status s = r.ReadU8(flag); !s.ok()) return s;
  f.hasResumePos = flag != 0;
  if (f.hasResumePos) return ReadPos(r, f.resumeAfter);
  return OkStatus();
}

Status FillSubAck(ByteReader& r, SubAckFrame& f) {
  if (Status s = r.ReadString(f.topic); !s.ok()) return s;
  std::uint8_t ok = 0;
  if (Status s = r.ReadU8(ok); !s.ok()) return s;
  f.ok = ok != 0;
  return OkStatus();
}

Status FillPublish(ByteReader& r, PublishFrame& f) {
  if (Status s = r.ReadString(f.topic); !s.ok()) return s;
  BytesView payload;
  if (Status s = r.ReadLengthPrefixed(payload); !s.ok()) return s;
  f.payload.assign(payload.begin(), payload.end());
  if (Status s = ReadPubId(r, f.pubId); !s.ok()) return s;
  std::uint8_t ack = 0;
  if (Status s = r.ReadU8(ack); !s.ok()) return s;
  f.wantAck = ack != 0;
  std::uint64_t ts = 0;
  if (Status s = r.ReadU64(ts); !s.ok()) return s;
  f.publishTs = static_cast<std::int64_t>(ts);
  return OkStatus();
}

Status FillPubAck(ByteReader& r, PubAckFrame& f) {
  if (Status s = ReadPubId(r, f.pubId); !s.ok()) return s;
  std::uint8_t code = 0;
  if (Status s = r.ReadU8(code); !s.ok()) return s;
  if (code > kMaxPubAckCode) return Err(ErrorCode::kProtocol, "bad puback code");
  f.code = static_cast<PubAckCode>(code);
  return OkStatus();
}

Status FillUnsubscribe(ByteReader& r, UnsubscribeFrame& f) { return r.ReadString(f.topic); }
Status FillDeliver(ByteReader& r, DeliverFrame& f) { return ReadMessage(r, f.msg); }
Status FillPing(ByteReader& r, PingFrame& f) { return r.ReadVarint(f.nonce); }
Status FillPong(ByteReader& r, PongFrame& f) { return r.ReadVarint(f.nonce); }
Status FillDisconnect(ByteReader& r, DisconnectFrame& f) { return r.ReadString(f.reason); }
Status FillHello(ByteReader& r, HelloFrame& f) { return r.ReadString(f.serverId); }

Status FillForwardPub(ByteReader& r, ForwardPubFrame& f) {
  if (Status s = r.ReadString(f.topic); !s.ok()) return s;
  BytesView payload;
  if (Status s = r.ReadLengthPrefixed(payload); !s.ok()) return s;
  f.payload.assign(payload.begin(), payload.end());
  if (Status s = ReadPubId(r, f.pubId); !s.ok()) return s;
  if (Status s = r.ReadString(f.originServerId); !s.ok()) return s;
  std::uint64_t ts = 0;
  if (Status s = r.ReadU64(ts); !s.ok()) return s;
  f.publishTs = static_cast<std::int64_t>(ts);
  std::uint8_t elect = 0;
  if (Status s = r.ReadU8(elect); !s.ok()) return s;
  f.electIfUnassigned = elect != 0;
  return OkStatus();
}

Status FillBroadcast(ByteReader& r, BroadcastFrame& f) {
  if (Status s = ReadMessage(r, f.msg); !s.ok()) return s;
  std::uint64_t group = 0;
  if (Status s = r.ReadVarint(group); !s.ok()) return s;
  f.group = static_cast<std::uint32_t>(group);
  if (Status s = r.ReadString(f.coordinatorId); !s.ok()) return s;
  return ReadEpoch32(r, f.fenceEpoch);
}

Status FillBroadcastAck(ByteReader& r, BroadcastAckFrame& f) {
  std::uint64_t group = 0;
  if (Status s = r.ReadVarint(group); !s.ok()) return s;
  f.group = static_cast<std::uint32_t>(group);
  std::uint64_t epoch = 0;
  if (Status s = r.ReadVarint(epoch); !s.ok()) return s;
  f.epoch = static_cast<std::uint32_t>(epoch);
  if (Status s = r.ReadVarint(f.seq); !s.ok()) return s;
  return r.ReadString(f.topic);
}

Status FillForwardReject(ByteReader& r, ForwardRejectFrame& f) {
  if (Status s = ReadPubId(r, f.pubId); !s.ok()) return s;
  return r.ReadString(f.topic);
}

Status FillReplicatedNotice(ByteReader& r, ReplicatedNoticeFrame& f) {
  if (Status s = ReadPubId(r, f.pubId); !s.ok()) return s;
  return r.ReadString(f.topic);
}

Status FillGossipAnnounce(ByteReader& r, GossipAnnounceFrame& f) {
  std::uint64_t group = 0;
  if (Status s = r.ReadVarint(group); !s.ok()) return s;
  f.group = static_cast<std::uint32_t>(group);
  std::uint64_t epoch = 0;
  if (Status s = r.ReadVarint(epoch); !s.ok()) return s;
  f.epoch = static_cast<std::uint32_t>(epoch);
  return r.ReadString(f.serverId);
}

Status FillCacheSyncReq(ByteReader& r, CacheSyncReqFrame& f) {
  std::uint64_t group = 0;
  if (Status s = r.ReadVarint(group); !s.ok()) return s;
  f.group = static_cast<std::uint32_t>(group);
  std::uint64_t count = 0;
  if (Status s = r.ReadVarint(count); !s.ok()) return s;
  if (count > 1'000'000) return Err(ErrorCode::kProtocol, "absurd have-list size");
  f.have.reserve(static_cast<std::size_t>(count));
  for (std::uint64_t i = 0; i < count; ++i) {
    std::string topic;
    if (Status s = r.ReadString(topic); !s.ok()) return s;
    StreamPos pos;
    if (Status s = ReadPos(r, pos); !s.ok()) return s;
    f.have.emplace_back(std::move(topic), pos);
  }
  std::uint64_t heads = 0;
  if (Status s = r.ReadVarint(heads); !s.ok()) return s;
  if (heads > 1'000'000) return Err(ErrorCode::kProtocol, "absurd head-list size");
  f.head.reserve(static_cast<std::size_t>(heads));
  for (std::uint64_t i = 0; i < heads; ++i) {
    std::string topic;
    if (Status s = r.ReadString(topic); !s.ok()) return s;
    StreamPos pos;
    if (Status s = ReadPos(r, pos); !s.ok()) return s;
    f.head.emplace_back(std::move(topic), pos);
  }
  return OkStatus();
}

Status FillCacheSyncResp(ByteReader& r, CacheSyncRespFrame& f) {
  std::uint64_t group = 0;
  if (Status s = r.ReadVarint(group); !s.ok()) return s;
  f.group = static_cast<std::uint32_t>(group);
  std::uint64_t count = 0;
  if (Status s = r.ReadVarint(count); !s.ok()) return s;
  if (count > 10'000'000) return Err(ErrorCode::kProtocol, "absurd message count");
  f.messages.resize(static_cast<std::size_t>(count));
  for (auto& m : f.messages) {
    if (Status s = ReadMessage(r, m); !s.ok()) return s;
  }
  std::uint8_t done = 0;
  if (Status s = r.ReadU8(done); !s.ok()) return s;
  f.done = done != 0;
  return OkStatus();
}

Status FillHandoff(ByteReader& r, HandoffFrame& f) {
  if (Status s = r.ReadString(f.targetServerId); !s.ok()) return s;
  std::uint64_t partition = 0;
  if (Status s = r.ReadVarint(partition); !s.ok()) return s;
  f.partition = static_cast<std::uint32_t>(partition);
  if (Status s = ReadEpoch32(r, f.rebalanceEpoch); !s.ok()) return s;
  return ReadCursors(r, f.cursors);
}

Status FillHandoffBegin(ByteReader& r, HandoffBeginFrame& f) {
  std::uint64_t partition = 0;
  if (Status s = r.ReadVarint(partition); !s.ok()) return s;
  f.partition = static_cast<std::uint32_t>(partition);
  if (Status s = ReadEpoch32(r, f.fenceEpoch); !s.ok()) return s;
  if (Status s = r.ReadU64(f.handoffId); !s.ok()) return s;
  if (Status s = r.ReadString(f.fromServerId); !s.ok()) return s;
  std::uint64_t count = 0;
  if (Status s = r.ReadVarint(count); !s.ok()) return s;
  if (count > 1'000'000) return Err(ErrorCode::kProtocol, "absurd session count");
  f.sessions.resize(static_cast<std::size_t>(count));
  for (auto& session : f.sessions) {
    if (Status s = r.ReadString(session.clientId); !s.ok()) return s;
    if (Status s = ReadCursors(r, session.cursors); !s.ok()) return s;
  }
  return OkStatus();
}

Status FillHandoffAck(ByteReader& r, HandoffAckFrame& f) {
  if (Status s = r.ReadU64(f.handoffId); !s.ok()) return s;
  std::uint64_t partition = 0;
  if (Status s = r.ReadVarint(partition); !s.ok()) return s;
  f.partition = static_cast<std::uint32_t>(partition);
  if (Status s = ReadEpoch32(r, f.fenceEpoch); !s.ok()) return s;
  std::uint8_t ok = 0;
  if (Status s = r.ReadU8(ok); !s.ok()) return s;
  f.ok = ok != 0;
  return OkStatus();
}

}  // namespace

FrameType TypeOf(const Frame& frame) noexcept {
  struct Visitor {
    FrameType operator()(const ConnectFrame&) { return FrameType::kConnect; }
    FrameType operator()(const ConnAckFrame&) { return FrameType::kConnAck; }
    FrameType operator()(const SubscribeFrame&) { return FrameType::kSubscribe; }
    FrameType operator()(const SubAckFrame&) { return FrameType::kSubAck; }
    FrameType operator()(const UnsubscribeFrame&) { return FrameType::kUnsubscribe; }
    FrameType operator()(const PublishFrame&) { return FrameType::kPublish; }
    FrameType operator()(const PubAckFrame&) { return FrameType::kPubAck; }
    FrameType operator()(const DeliverFrame&) { return FrameType::kDeliver; }
    FrameType operator()(const PingFrame&) { return FrameType::kPing; }
    FrameType operator()(const PongFrame&) { return FrameType::kPong; }
    FrameType operator()(const DisconnectFrame&) { return FrameType::kDisconnect; }
    FrameType operator()(const HelloFrame&) { return FrameType::kHello; }
    FrameType operator()(const ForwardPubFrame&) { return FrameType::kForwardPub; }
    FrameType operator()(const BroadcastFrame&) { return FrameType::kBroadcast; }
    FrameType operator()(const BroadcastAckFrame&) { return FrameType::kBroadcastAck; }
    FrameType operator()(const ForwardRejectFrame&) { return FrameType::kForwardReject; }
    FrameType operator()(const ReplicatedNoticeFrame&) { return FrameType::kReplicatedNotice; }
    FrameType operator()(const GossipAnnounceFrame&) { return FrameType::kGossipAnnounce; }
    FrameType operator()(const CacheSyncReqFrame&) { return FrameType::kCacheSyncReq; }
    FrameType operator()(const CacheSyncRespFrame&) { return FrameType::kCacheSyncResp; }
    FrameType operator()(const HandoffFrame&) { return FrameType::kHandoff; }
    FrameType operator()(const HandoffBeginFrame&) { return FrameType::kHandoffBegin; }
    FrameType operator()(const HandoffAckFrame&) { return FrameType::kHandoffAck; }
  };
  return std::visit(Visitor{}, frame);
}

const char* FrameTypeName(FrameType type) noexcept {
  switch (type) {
    case FrameType::kConnect: return "CONNECT";
    case FrameType::kConnAck: return "CONNACK";
    case FrameType::kSubscribe: return "SUBSCRIBE";
    case FrameType::kSubAck: return "SUBACK";
    case FrameType::kUnsubscribe: return "UNSUBSCRIBE";
    case FrameType::kPublish: return "PUBLISH";
    case FrameType::kPubAck: return "PUBACK";
    case FrameType::kDeliver: return "DELIVER";
    case FrameType::kPing: return "PING";
    case FrameType::kPong: return "PONG";
    case FrameType::kDisconnect: return "DISCONNECT";
    case FrameType::kHello: return "HELLO";
    case FrameType::kForwardPub: return "FORWARD_PUB";
    case FrameType::kBroadcast: return "BROADCAST";
    case FrameType::kBroadcastAck: return "BROADCAST_ACK";
    case FrameType::kForwardReject: return "FORWARD_REJECT";
    case FrameType::kReplicatedNotice: return "REPLICATED_NOTICE";
    case FrameType::kGossipAnnounce: return "GOSSIP_ANNOUNCE";
    case FrameType::kCacheSyncReq: return "CACHE_SYNC_REQ";
    case FrameType::kCacheSyncResp: return "CACHE_SYNC_RESP";
    case FrameType::kHandoff: return "HANDOFF";
    case FrameType::kHandoffBegin: return "HANDOFF_BEGIN";
    case FrameType::kHandoffAck: return "HANDOFF_ACK";
  }
  return "UNKNOWN";
}

void EncodeFrame(const Frame& frame, Bytes& out) {
  ReserveFor(out, SizeHint(frame));
  ByteWriter w(out);
  w.WriteU8(static_cast<std::uint8_t>(TypeOf(frame)));
  std::visit(Encoder{w}, frame);
}

Result<Frame> DecodeFrame(BytesView data) {
  ByteReader r(data);
  std::uint8_t tag = 0;
  if (Status s = r.ReadU8(tag); !s.ok()) return s;
  switch (static_cast<FrameType>(tag)) {
    case FrameType::kConnect: return DecodeInto<ConnectFrame>(r, FillConnect);
    case FrameType::kConnAck: return DecodeInto<ConnAckFrame>(r, FillConnAck);
    case FrameType::kSubscribe: return DecodeInto<SubscribeFrame>(r, FillSubscribe);
    case FrameType::kSubAck: return DecodeInto<SubAckFrame>(r, FillSubAck);
    case FrameType::kUnsubscribe: return DecodeInto<UnsubscribeFrame>(r, FillUnsubscribe);
    case FrameType::kPublish: return DecodeInto<PublishFrame>(r, FillPublish);
    case FrameType::kPubAck: return DecodeInto<PubAckFrame>(r, FillPubAck);
    case FrameType::kDeliver: return DecodeInto<DeliverFrame>(r, FillDeliver);
    case FrameType::kPing: return DecodeInto<PingFrame>(r, FillPing);
    case FrameType::kPong: return DecodeInto<PongFrame>(r, FillPong);
    case FrameType::kDisconnect: return DecodeInto<DisconnectFrame>(r, FillDisconnect);
    case FrameType::kHello: return DecodeInto<HelloFrame>(r, FillHello);
    case FrameType::kForwardPub: return DecodeInto<ForwardPubFrame>(r, FillForwardPub);
    case FrameType::kBroadcast: return DecodeInto<BroadcastFrame>(r, FillBroadcast);
    case FrameType::kBroadcastAck: return DecodeInto<BroadcastAckFrame>(r, FillBroadcastAck);
    case FrameType::kForwardReject: return DecodeInto<ForwardRejectFrame>(r, FillForwardReject);
    case FrameType::kReplicatedNotice: return DecodeInto<ReplicatedNoticeFrame>(r, FillReplicatedNotice);
    case FrameType::kGossipAnnounce: return DecodeInto<GossipAnnounceFrame>(r, FillGossipAnnounce);
    case FrameType::kCacheSyncReq: return DecodeInto<CacheSyncReqFrame>(r, FillCacheSyncReq);
    case FrameType::kCacheSyncResp: return DecodeInto<CacheSyncRespFrame>(r, FillCacheSyncResp);
    case FrameType::kHandoff: return DecodeInto<HandoffFrame>(r, FillHandoff);
    case FrameType::kHandoffBegin: return DecodeInto<HandoffBeginFrame>(r, FillHandoffBegin);
    case FrameType::kHandoffAck: return DecodeInto<HandoffAckFrame>(r, FillHandoffAck);
  }
  return Err(ErrorCode::kProtocol, "unknown frame type");
}

void EncodeDeliver(const Message& msg, Bytes& out) {
  ReserveFor(out, 1 + MessageSize(msg) + kFramingRoom);
  ByteWriter w(out);
  w.WriteU8(static_cast<std::uint8_t>(FrameType::kDeliver));
  WriteMessage(w, msg);
}

void EncodeFramed(const Frame& frame, Bytes& out) {
  const std::size_t start = out.size();
  EncodeFrame(frame, out);
  PrefixVarintLength(out, start);
}

FrameExtractResult ExtractFrame(ByteQueue& in, std::size_t maxFrameSize) {
  FrameExtractResult result;
  const BytesView avail = in.Peek();
  ByteReader r(avail);
  std::uint64_t len = 0;
  if (Status s = r.ReadVarint(len); !s.ok()) {
    // Could be an incomplete varint; only an error if it is malformed.
    if (avail.size() >= 10) result.status = s;
    return result;
  }
  if (len > maxFrameSize) {
    result.status = Err(ErrorCode::kProtocol, "frame exceeds maximum size");
    return result;
  }
  if (r.remaining() < len) return result;  // body not complete yet
  BytesView body;
  (void)r.ReadBytes(static_cast<std::size_t>(len), body);
  Result<Frame> frame = DecodeFrame(body);
  if (!frame.ok()) {
    result.status = frame.status();
    return result;
  }
  in.Consume(r.position());
  result.frame = std::move(frame).value();
  return result;
}

}  // namespace md
