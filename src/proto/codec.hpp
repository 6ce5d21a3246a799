// Binary codec: Frame <-> bytes, and stream framing over a byte stream.
//
// Encoding: one byte FrameType tag followed by the frame's fields (varints,
// length-prefixed strings/blobs; see codec.cpp). Stream framing: a varint
// body length followed by the body, so frames can be extracted from a TCP
// byte stream incrementally.
#pragma once

#include <cstdint>
#include <optional>

#include "common/bytes.hpp"
#include "common/status.hpp"
#include "proto/frames.hpp"

namespace md {

/// Serializes `frame` (tag + body, no stream length prefix) into `out`.
void EncodeFrame(const Frame& frame, Bytes& out);

/// Parses one frame from exactly `data` (no length prefix expected).
Result<Frame> DecodeFrame(BytesView data);

/// Serializes a DELIVER of `msg` (tag + body) into `out`: the bytes
/// EncodeFrame writes for DeliverFrame{msg}, without building the frame.
void EncodeDeliver(const Message& msg, Bytes& out);

/// Appends a stream-framed (varint length + body) frame to `out`.
void EncodeFramed(const Frame& frame, Bytes& out);

/// Incremental extractor for stream framing over a ByteQueue.
/// Returns: a frame if one is complete; std::nullopt if more bytes are
/// needed; an error Status on malformed input (connection should be closed).
struct FrameExtractResult {
  std::optional<Frame> frame;
  Status status;  // non-OK => protocol violation
};
FrameExtractResult ExtractFrame(ByteQueue& in, std::size_t maxFrameSize = 16 * 1024 * 1024);

}  // namespace md
