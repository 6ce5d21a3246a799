#include "coord/codec.hpp"

namespace md::coord {

namespace {

enum class MsgTag : std::uint8_t {
  kRequestVote = 1,
  kVoteReply = 2,
  kAppendEntries = 3,
  kAppendReply = 4,
  kClientRequest = 5,
  kClientReply = 6,
};

enum class CmdTag : std::uint8_t {
  kCreate = 1,
  kPut = 2,
  kDelete = 3,
  kExpireSession = 4,
  kNoop = 5,
};

void WriteCommand(ByteWriter& w, const Command& cmd) {
  if (const auto* create = std::get_if<CreateCmd>(&cmd)) {
    w.WriteU8(static_cast<std::uint8_t>(CmdTag::kCreate));
    w.WriteString(create->key);
    w.WriteString(create->value);
    w.WriteVarint(create->ephemeralOwner);
    return;
  }
  if (const auto* put = std::get_if<PutCmd>(&cmd)) {
    w.WriteU8(static_cast<std::uint8_t>(CmdTag::kPut));
    w.WriteString(put->key);
    w.WriteString(put->value);
    return;
  }
  if (const auto* del = std::get_if<DeleteCmd>(&cmd)) {
    w.WriteU8(static_cast<std::uint8_t>(CmdTag::kDelete));
    w.WriteString(del->key);
    w.WriteVarint(del->expectedVersion);
    return;
  }
  if (const auto* expire = std::get_if<ExpireSessionCmd>(&cmd)) {
    w.WriteU8(static_cast<std::uint8_t>(CmdTag::kExpireSession));
    w.WriteVarint(expire->session);
    return;
  }
  w.WriteU8(static_cast<std::uint8_t>(CmdTag::kNoop));
}

Status ReadCommand(ByteReader& r, Command& cmd) {
  std::uint8_t tag = 0;
  if (Status s = r.ReadU8(tag); !s.ok()) return s;
  switch (static_cast<CmdTag>(tag)) {
    case CmdTag::kCreate: {
      CreateCmd c;
      if (Status s = r.ReadString(c.key); !s.ok()) return s;
      if (Status s = r.ReadString(c.value); !s.ok()) return s;
      std::uint64_t owner = 0;
      if (Status s = r.ReadVarint(owner); !s.ok()) return s;
      c.ephemeralOwner = static_cast<NodeId>(owner);
      cmd = std::move(c);
      return OkStatus();
    }
    case CmdTag::kPut: {
      PutCmd c;
      if (Status s = r.ReadString(c.key); !s.ok()) return s;
      if (Status s = r.ReadString(c.value); !s.ok()) return s;
      cmd = std::move(c);
      return OkStatus();
    }
    case CmdTag::kDelete: {
      DeleteCmd c;
      if (Status s = r.ReadString(c.key); !s.ok()) return s;
      if (Status s = r.ReadVarint(c.expectedVersion); !s.ok()) return s;
      cmd = std::move(c);
      return OkStatus();
    }
    case CmdTag::kExpireSession: {
      ExpireSessionCmd c;
      std::uint64_t session = 0;
      if (Status s = r.ReadVarint(session); !s.ok()) return s;
      c.session = static_cast<NodeId>(session);
      cmd = c;
      return OkStatus();
    }
    case CmdTag::kNoop:
      cmd = NoopCmd{};
      return OkStatus();
  }
  return Err(ErrorCode::kProtocol, "unknown command tag");
}

void WriteEntry(ByteWriter& w, const LogEntry& entry) {
  w.WriteVarint(entry.term);
  WriteCommand(w, entry.cmd);
  w.WriteVarint(entry.requestId);
  w.WriteVarint(entry.requestOrigin);
}

Status ReadEntry(ByteReader& r, LogEntry& entry) {
  if (Status s = r.ReadVarint(entry.term); !s.ok()) return s;
  if (Status s = ReadCommand(r, entry.cmd); !s.ok()) return s;
  if (Status s = r.ReadVarint(entry.requestId); !s.ok()) return s;
  std::uint64_t origin = 0;
  if (Status s = r.ReadVarint(origin); !s.ok()) return s;
  entry.requestOrigin = static_cast<NodeId>(origin);
  return OkStatus();
}

}  // namespace

void EncodeCoordMsg(const CoordMsg& msg, Bytes& out) {
  ByteWriter w(out);
  if (const auto* rv = std::get_if<RequestVote>(&msg)) {
    w.WriteU8(static_cast<std::uint8_t>(MsgTag::kRequestVote));
    w.WriteVarint(rv->term);
    w.WriteVarint(rv->candidate);
    w.WriteVarint(rv->lastLogIndex);
    w.WriteVarint(rv->lastLogTerm);
    return;
  }
  if (const auto* vr = std::get_if<VoteReply>(&msg)) {
    w.WriteU8(static_cast<std::uint8_t>(MsgTag::kVoteReply));
    w.WriteVarint(vr->term);
    w.WriteU8(vr->granted ? 1 : 0);
    return;
  }
  if (const auto* ae = std::get_if<AppendEntries>(&msg)) {
    w.WriteU8(static_cast<std::uint8_t>(MsgTag::kAppendEntries));
    w.WriteVarint(ae->term);
    w.WriteVarint(ae->leader);
    w.WriteVarint(ae->prevLogIndex);
    w.WriteVarint(ae->prevLogTerm);
    w.WriteVarint(ae->leaderCommit);
    w.WriteVarint(ae->entries.size());
    for (const auto& entry : ae->entries) WriteEntry(w, entry);
    return;
  }
  if (const auto* ar = std::get_if<AppendReply>(&msg)) {
    w.WriteU8(static_cast<std::uint8_t>(MsgTag::kAppendReply));
    w.WriteVarint(ar->term);
    w.WriteU8(ar->success ? 1 : 0);
    w.WriteVarint(ar->matchIndex);
    return;
  }
  if (const auto* cr = std::get_if<ClientRequest>(&msg)) {
    w.WriteU8(static_cast<std::uint8_t>(MsgTag::kClientRequest));
    w.WriteVarint(cr->requestId);
    w.WriteVarint(cr->origin);
    WriteCommand(w, cr->cmd);
    return;
  }
  const auto& reply = std::get<ClientReply>(msg);
  w.WriteU8(static_cast<std::uint8_t>(MsgTag::kClientReply));
  w.WriteVarint(reply.requestId);
  w.WriteU8(reply.errorCode);
  w.WriteVarint(reply.version);
}

Result<CoordMsg> DecodeCoordMsg(BytesView data) {
  ByteReader r(data);
  std::uint8_t tag = 0;
  if (Status s = r.ReadU8(tag); !s.ok()) return s;

  auto finish = [&r](CoordMsg msg) -> Result<CoordMsg> {
    if (!r.AtEnd()) return Err(ErrorCode::kProtocol, "trailing bytes");
    return msg;
  };

  switch (static_cast<MsgTag>(tag)) {
    case MsgTag::kRequestVote: {
      RequestVote m;
      std::uint64_t candidate = 0;
      if (Status s = r.ReadVarint(m.term); !s.ok()) return s;
      if (Status s = r.ReadVarint(candidate); !s.ok()) return s;
      m.candidate = static_cast<NodeId>(candidate);
      if (Status s = r.ReadVarint(m.lastLogIndex); !s.ok()) return s;
      if (Status s = r.ReadVarint(m.lastLogTerm); !s.ok()) return s;
      return finish(m);
    }
    case MsgTag::kVoteReply: {
      VoteReply m;
      if (Status s = r.ReadVarint(m.term); !s.ok()) return s;
      std::uint8_t granted = 0;
      if (Status s = r.ReadU8(granted); !s.ok()) return s;
      m.granted = granted != 0;
      return finish(m);
    }
    case MsgTag::kAppendEntries: {
      AppendEntries m;
      std::uint64_t leader = 0;
      if (Status s = r.ReadVarint(m.term); !s.ok()) return s;
      if (Status s = r.ReadVarint(leader); !s.ok()) return s;
      m.leader = static_cast<NodeId>(leader);
      if (Status s = r.ReadVarint(m.prevLogIndex); !s.ok()) return s;
      if (Status s = r.ReadVarint(m.prevLogTerm); !s.ok()) return s;
      if (Status s = r.ReadVarint(m.leaderCommit); !s.ok()) return s;
      std::uint64_t count = 0;
      if (Status s = r.ReadVarint(count); !s.ok()) return s;
      if (count > 100'000) return Err(ErrorCode::kProtocol, "absurd entry count");
      m.entries.resize(static_cast<std::size_t>(count));
      for (auto& entry : m.entries) {
        if (Status s = ReadEntry(r, entry); !s.ok()) return s;
      }
      return finish(std::move(m));
    }
    case MsgTag::kAppendReply: {
      AppendReply m;
      if (Status s = r.ReadVarint(m.term); !s.ok()) return s;
      std::uint8_t success = 0;
      if (Status s = r.ReadU8(success); !s.ok()) return s;
      m.success = success != 0;
      if (Status s = r.ReadVarint(m.matchIndex); !s.ok()) return s;
      return finish(m);
    }
    case MsgTag::kClientRequest: {
      ClientRequest m;
      if (Status s = r.ReadVarint(m.requestId); !s.ok()) return s;
      std::uint64_t origin = 0;
      if (Status s = r.ReadVarint(origin); !s.ok()) return s;
      m.origin = static_cast<NodeId>(origin);
      if (Status s = ReadCommand(r, m.cmd); !s.ok()) return s;
      return finish(std::move(m));
    }
    case MsgTag::kClientReply: {
      ClientReply m;
      if (Status s = r.ReadVarint(m.requestId); !s.ok()) return s;
      if (Status s = r.ReadU8(m.errorCode); !s.ok()) return s;
      if (Status s = r.ReadVarint(m.version); !s.ok()) return s;
      return finish(m);
    }
  }
  return Err(ErrorCode::kProtocol, "unknown coord message tag");
}

void EncodeCoordFramed(const CoordMsg& msg, Bytes& out) {
  const std::size_t start = out.size();
  EncodeCoordMsg(msg, out);
  PrefixVarintLength(out, start);
}

CoordExtractResult ExtractCoordMsg(ByteQueue& in, std::size_t maxSize) {
  CoordExtractResult result;
  const BytesView avail = in.Peek();
  ByteReader r(avail);
  std::uint64_t len = 0;
  if (Status s = r.ReadVarint(len); !s.ok()) {
    if (avail.size() >= 10) result.status = s;
    return result;
  }
  if (len > maxSize) {
    result.status = Err(ErrorCode::kProtocol, "coord message exceeds maximum");
    return result;
  }
  if (r.remaining() < len) return result;
  BytesView body;
  (void)r.ReadBytes(static_cast<std::size_t>(len), body);
  Result<CoordMsg> msg = DecodeCoordMsg(body);
  if (!msg.ok()) {
    result.status = msg.status();
    return result;
  }
  in.Consume(r.position());
  result.msg = std::move(msg).value();
  return result;
}

}  // namespace md::coord
