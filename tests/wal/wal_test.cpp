// WAL format, scanner-fuzz and recovery edge-case tests.
//
// The fuzz families feed the segment scanner every truncation point and
// every single-byte corruption of a known-good segment: the scanner must
// classify the damage (torn tail vs. skipped record vs. bad header) and
// must never read out of bounds or throw — ASan/TSan legs of run_all.sh
// execute this binary to enforce the "never OOB" half.
//
// The recovery-edge cases run the full Log against MemEnv: empty dirs,
// crash-truncated tails per fsync policy, rotation + retention, kill -9
// during rotation, double kill -9, ENOSPC and latent bit flips.
#include <algorithm>
#include <chrono>
#include <string>
#include <thread>
#include <vector>

#include <gtest/gtest.h>

#include "common/bytes.hpp"
#include "core/cache.hpp"
#include "obs/families.hpp"
#include "obs/metrics.hpp"
#include "wal/format.hpp"
#include "wal/log.hpp"
#include "wal/mem_env.hpp"

namespace md::wal {
namespace {

Message MakeMsg(const std::string& topic, std::uint32_t epoch,
                std::uint64_t seq) {
  Message m;
  m.topic = topic;
  const std::string body =
      topic + "#" + std::to_string(epoch) + "." + std::to_string(seq);
  m.payload.assign(body.begin(), body.end());
  m.epoch = epoch;
  m.seq = seq;
  m.pubId = {0xFEEDF00DULL + seq, seq};
  m.publishTs = static_cast<std::int64_t>(1000 + seq);
  return m;
}

BytesView View(const Bytes& b) { return BytesView(b.data(), b.size()); }

/// One segment: header plus the given records.
Bytes BuildSegment(const std::vector<Message>& msgs) {
  Bytes seg;
  EncodeSegmentHeader(seg);
  for (const auto& m : msgs) EncodeRecord(m, seg);
  return seg;
}

std::vector<Message> ScanAll(BytesView data,
                             SegmentScanner* outScan = nullptr) {
  SegmentScanner scan(data);
  std::vector<Message> got;
  Message m;
  while (scan.Next(&m)) got.push_back(m);
  if (outScan) *outScan = scan;
  return got;
}

// ---------------------------------------------------------------------------
// Format primitives.

TEST(WalFormatTest, Crc32MatchesKnownVectors) {
  // The CRC-32/IEEE check value: crc("123456789") == 0xCBF43926.
  const std::string check = "123456789";
  Bytes data(check.begin(), check.end());
  EXPECT_EQ(Crc32(View(data)), 0xCBF43926U);
  EXPECT_EQ(Crc32(BytesView{}), 0U);
}

TEST(WalFormatTest, Crc32DetectsEverySingleBitFlip) {
  Bytes data;
  for (int i = 0; i < 32; ++i) data.push_back(static_cast<std::uint8_t>(i));
  const std::uint32_t base = Crc32(View(data));
  for (std::size_t byte = 0; byte < data.size(); ++byte) {
    for (int bit = 0; bit < 8; ++bit) {
      Bytes flipped = data;
      flipped[byte] ^= static_cast<std::uint8_t>(1U << bit);
      EXPECT_NE(Crc32(View(flipped)), base)
          << "flip at byte " << byte << " bit " << bit;
    }
  }
}

TEST(WalFormatTest, SegmentFileNameRoundTrips) {
  const std::uint64_t cases[] = {0, 2, 105, 18446744073709551615ULL};
  for (const std::uint64_t index : cases) {
    const std::string name = SegmentFileName(index);
    const auto parsed = ParseSegmentFileName(name);
    ASSERT_TRUE(parsed.has_value()) << name;
    EXPECT_EQ(*parsed, index);
  }
  EXPECT_EQ(SegmentFileName(3), "00000000000000000003.wal");
  // Zero padding keeps name order equal to index order.
  EXPECT_LT(SegmentFileName(9), SegmentFileName(10));
}

TEST(WalFormatTest, ParseSegmentFileNameRejectsNonSegments) {
  // Version-1 per-group names (g<group>-<index>.wal) are not segments of the
  // journal, and neither is an index that is unpadded or out of range.
  const char* bad[] = {"",
                       "g7-3.wal",
                       "g0-00000000000000000003.wal",
                       "3.wal",
                       "0000000000000000003.wal",
                       "000000000000000000003.wal",
                       "00000000000000000003.log",
                       "00000000000000000003.wall",
                       "0000000000000000000x.wal",
                       "-0000000000000000003.wal",
                       "+0000000000000000003.wal",
                       "99999999999999999999.wal",
                       "00000000000000000003"};
  for (const char* name : bad) {
    EXPECT_FALSE(ParseSegmentFileName(name).has_value()) << name;
  }
}

TEST(WalFormatTest, SegmentHeaderRoundTripsAndRejectsDamage) {
  Bytes header;
  EncodeSegmentHeader(header);
  ASSERT_EQ(header.size(), kSegmentHeaderLen);
  EXPECT_TRUE(DecodeSegmentHeader(View(header)).ok());
  // Every strict prefix is too short.
  for (std::size_t n = 0; n < header.size(); ++n) {
    EXPECT_FALSE(DecodeSegmentHeader(BytesView(header.data(), n)).ok());
  }
  // Any single-byte corruption of magic/version/zero word must be rejected
  // (bytes 12..15 are reserved and ignored by design).
  for (std::size_t byte = 0; byte < 12; ++byte) {
    Bytes damaged = header;
    damaged[byte] ^= 0xFF;
    EXPECT_FALSE(DecodeSegmentHeader(View(damaged)).ok()) << byte;
  }
}

TEST(WalFormatTest, RecordPayloadRoundTrips) {
  const Message original = MakeMsg("stocks/NVDA", 3, 7777);
  Bytes framed;
  EncodeRecord(original, framed);
  ASSERT_GT(framed.size(), kRecordFrameLen);
  const BytesView payload(framed.data() + kRecordFrameLen,
                          framed.size() - kRecordFrameLen);
  Message decoded;
  ASSERT_TRUE(DecodeRecordPayload(payload, &decoded).ok());
  EXPECT_EQ(decoded, original);
}

TEST(WalFormatTest, RecordPayloadPrefixesNeverDecode) {
  // Every strict prefix of a valid payload must fail cleanly (bounds-checked
  // reads), never crash; this is what a torn record decode looks like.
  const Message original = MakeMsg("news/world", 1, 1);
  Bytes framed;
  EncodeRecord(original, framed);
  const std::size_t payloadLen = framed.size() - kRecordFrameLen;
  for (std::size_t n = 0; n < payloadLen; ++n) {
    Message decoded;
    EXPECT_FALSE(
        DecodeRecordPayload(BytesView(framed.data() + kRecordFrameLen, n),
                            &decoded)
            .ok())
        << "prefix " << n;
  }
}

// ---------------------------------------------------------------------------
// Scanner fuzz family (satellite: decode fuzz — never OOB, never throw).

std::vector<Message> ThreeRecords() {
  return {MakeMsg("a/one", 1, 1), MakeMsg("b/two", 1, 2),
          MakeMsg("a/one", 2, 1)};
}

TEST(WalScannerTest, YieldsAllRecordsFromCleanSegment) {
  const auto msgs = ThreeRecords();
  const Bytes seg = BuildSegment(msgs);
  SegmentScanner state(BytesView{});
  const auto got = ScanAll(View(seg), &state);
  ASSERT_EQ(got.size(), msgs.size());
  for (std::size_t i = 0; i < msgs.size(); ++i) EXPECT_EQ(got[i], msgs[i]);
  EXPECT_FALSE(state.badHeader());
  EXPECT_FALSE(state.torn());
  EXPECT_EQ(state.corruptSkipped(), 0U);
  EXPECT_EQ(state.offset(), seg.size());
}

TEST(WalScannerTest, TruncationAtEveryOffsetYieldsAnIntactPrefix) {
  const auto msgs = ThreeRecords();
  const Bytes seg = BuildSegment(msgs);
  // Offsets where a cut leaves only whole records behind — such a cut is
  // indistinguishable from a clean close and must NOT read as torn.
  std::vector<std::size_t> boundaries{kSegmentHeaderLen};
  for (const auto& m : msgs) {
    Bytes rec;
    EncodeRecord(m, rec);
    boundaries.push_back(boundaries.back() + rec.size());
  }
  for (std::size_t cut = 0; cut <= seg.size(); ++cut) {
    SegmentScanner state(BytesView{});
    const auto got = ScanAll(BytesView(seg.data(), cut), &state);
    ASSERT_LE(got.size(), msgs.size()) << "cut at " << cut;
    // Whatever survives must be an exact prefix of what was written.
    for (std::size_t i = 0; i < got.size(); ++i) {
      EXPECT_EQ(got[i], msgs[i]) << "cut at " << cut;
    }
    const bool atBoundary =
        std::find(boundaries.begin(), boundaries.end(), cut) !=
        boundaries.end();
    if (cut < kSegmentHeaderLen) {
      EXPECT_TRUE(state.badHeader()) << "cut at " << cut;
      EXPECT_TRUE(got.empty());
    } else if (atBoundary) {
      EXPECT_FALSE(state.torn()) << "cut at " << cut;
      const auto whole = static_cast<std::size_t>(std::count_if(
          boundaries.begin(), boundaries.end(),
          [cut](std::size_t b) { return b != kSegmentHeaderLen && b <= cut; }));
      EXPECT_EQ(got.size(), whole) << "cut at " << cut;
    } else {
      // Some bytes of a record are missing: a torn tail, not a clean end.
      EXPECT_TRUE(state.torn()) << "cut at " << cut;
    }
  }
}

TEST(WalScannerTest, EverySingleBitFlipIsContained) {
  // Flip each bit of the segment in turn. The scan must terminate without
  // OOB reads and must never fabricate a record that was not written.
  const auto msgs = ThreeRecords();
  const Bytes seg = BuildSegment(msgs);
  for (std::size_t byte = 0; byte < seg.size(); ++byte) {
    // Bytes 12..15 are the header's reserved field: ignored by design, so a
    // flip there is genuinely harmless.
    if (byte >= 12 && byte < kSegmentHeaderLen) continue;
    for (int bit = 0; bit < 8; ++bit) {
      Bytes damaged = seg;
      damaged[byte] ^= static_cast<std::uint8_t>(1U << bit);
      SegmentScanner state(BytesView{});
      const auto got = ScanAll(View(damaged), &state);
      ASSERT_LE(got.size(), msgs.size());
      for (const auto& m : got) {
        EXPECT_TRUE(std::find(msgs.begin(), msgs.end(), m) != msgs.end())
            << "byte " << byte << " bit " << bit << " fabricated a record";
      }
      // One flipped bit damages exactly one thing: the header (nothing
      // yields), or at least one record (skipped or torn away).
      EXPECT_LT(got.size(), msgs.size())
          << "byte " << byte << " bit " << bit << " went unnoticed";
    }
  }
}

TEST(WalScannerTest, CrcMismatchSkipsExactlyThatRecord) {
  const auto msgs = ThreeRecords();
  Bytes seg = BuildSegment(msgs);
  // Locate record 2's payload: header + record1 + frame of record2.
  Bytes rec1;
  EncodeRecord(msgs[0], rec1);
  const std::size_t middlePayload =
      kSegmentHeaderLen + rec1.size() + kRecordFrameLen;
  seg[middlePayload] ^= 0x01;

  SegmentScanner state(BytesView{});
  const auto got = ScanAll(View(seg), &state);
  ASSERT_EQ(got.size(), 2U);
  EXPECT_EQ(got[0], msgs[0]);
  EXPECT_EQ(got[1], msgs[2]);  // the record AFTER the damage still decodes
  EXPECT_EQ(state.corruptSkipped(), 1U);
  EXPECT_FALSE(state.torn());
}

TEST(WalScannerTest, ZeroFilledTailTruncates) {
  const auto msgs = ThreeRecords();
  Bytes seg = BuildSegment(msgs);
  seg.insert(seg.end(), 64, std::uint8_t{0});  // preallocated-but-unwritten
  SegmentScanner state(BytesView{});
  const auto got = ScanAll(View(seg), &state);
  ASSERT_EQ(got.size(), msgs.size());
  EXPECT_TRUE(state.torn());
  EXPECT_EQ(state.corruptSkipped(), 0U);
}

TEST(WalScannerTest, GarbageLengthTruncatesInsteadOfAllocating) {
  const auto msgs = ThreeRecords();
  Bytes seg = BuildSegment(msgs);
  ByteWriter w(seg);
  w.WriteU32(kMaxRecordLen + 1);  // length field beyond any sane record
  w.WriteU32(0xDEADBEEFU);
  seg.insert(seg.end(), 16, std::uint8_t{0xAB});
  SegmentScanner state(BytesView{});
  const auto got = ScanAll(View(seg), &state);
  ASSERT_EQ(got.size(), msgs.size());
  EXPECT_TRUE(state.torn());
}

TEST(WalScannerTest, WrongGroupHeaderYieldsNothing) {
  // A version-1 segment header: version 1 and the group in word 3.
  Bytes seg = BuildSegment(ThreeRecords());
  seg[4] = 1;
  seg[8] = 5;
  SegmentScanner state(BytesView{});
  auto got = ScanAll(View(seg), &state);
  EXPECT_TRUE(got.empty());
  EXPECT_TRUE(state.badHeader());
  // A current version with a nonzero group word is refused the same way.
  seg[4] = static_cast<std::uint8_t>(kFormatVersion);
  got = ScanAll(View(seg), &state);
  EXPECT_TRUE(got.empty());
  EXPECT_TRUE(state.badHeader());
}

// ---------------------------------------------------------------------------
// MemEnv crash semantics (the fault model everything above relies on).

TEST(MemEnvTest, CrashKeepsSyncedPrefixAndSomeUnsyncedPrefix) {
  MemEnv env;
  std::unique_ptr<WritableFile> file;
  ASSERT_TRUE(env.NewWritableFile("f", &file).ok());
  const std::string syncedPart = "synced-synced-synced";
  const std::string tailPart = "unsynced-tail-unsynced-tail";
  Bytes synced(syncedPart.begin(), syncedPart.end());
  Bytes tail(tailPart.begin(), tailPart.end());
  ASSERT_TRUE(file->Append(View(synced)).ok());
  ASSERT_TRUE(file->Sync().ok());
  ASSERT_TRUE(file->Append(View(tail)).ok());

  const std::string full = syncedPart + tailPart;
  for (std::uint64_t seed = 1; seed <= 32; ++seed) {
    MemEnv e2;
    std::unique_ptr<WritableFile> f2;
    ASSERT_TRUE(e2.NewWritableFile("f", &f2).ok());
    ASSERT_TRUE(f2->Append(View(synced)).ok());
    ASSERT_TRUE(f2->Sync().ok());
    ASSERT_TRUE(f2->Append(View(tail)).ok());
    e2.Crash(seed);
    Bytes after;
    ASSERT_TRUE(e2.ReadFile("f", &after).ok());
    ASSERT_GE(after.size(), syncedPart.size()) << "synced bytes vanished";
    ASSERT_LE(after.size(), full.size());
    EXPECT_TRUE(std::equal(after.begin(), after.end(), full.begin()))
        << "crash produced bytes that were never written";
  }
}

TEST(MemEnvTest, SetFullFailsAppendsWithCapacity) {
  MemEnv env;
  std::unique_ptr<WritableFile> file;
  ASSERT_TRUE(env.NewWritableFile("f", &file).ok());
  Bytes data{1, 2, 3};
  ASSERT_TRUE(file->Append(View(data)).ok());
  env.SetFull(true);
  const Status s = file->Append(View(data));
  ASSERT_FALSE(s.ok());
  EXPECT_EQ(s.code(), ErrorCode::kCapacity);
  env.SetFull(false);
  EXPECT_TRUE(file->Append(View(data)).ok());
  Bytes out;
  ASSERT_TRUE(env.ReadFile("f", &out).ok());
  EXPECT_EQ(out.size(), 6U);  // the rejected append left no partial bytes
}

// ---------------------------------------------------------------------------
// Log recovery edge cases (satellite: recovery paths).

WalConfig TestConfig() {
  WalConfig cfg;
  cfg.dir = "wal/test";
  cfg.fsync = FsyncPolicy::kAlways;
  return cfg;
}

std::vector<Message> RecoverAll(Log& log, RecoveryStats* stats = nullptr) {
  std::vector<Message> got;
  const RecoveryStats s =
      log.Recover([&got](Message&& m) { got.push_back(std::move(m)); });
  if (stats) *stats = s;
  return got;
}

TEST(WalLogTest, EmptyDirectoryRecoversCleanAndAccepts) {
  MemEnv env;
  Log log(env, TestConfig());
  RecoveryStats stats;
  EXPECT_TRUE(RecoverAll(log, &stats).empty());
  EXPECT_EQ(stats.records, 0U);
  EXPECT_EQ(stats.segments, 0U);
  EXPECT_TRUE(log.Append(0, MakeMsg("t", 1, 1), 0).ok());
}

TEST(WalLogTest, AppendRecoverRoundTripAcrossGroups) {
  MemEnv env;
  std::vector<Message> written;
  {
    Log log(env, TestConfig());
    for (std::uint64_t seq = 1; seq <= 24; ++seq) {
      const auto group = static_cast<std::uint32_t>(seq % 3);
      Message m = MakeMsg("g" + std::to_string(group) + "/topic", 1, seq);
      ASSERT_TRUE(log.Append(group, m, 0).ok());
      written.push_back(std::move(m));
    }
    log.Close();
  }
  Log fresh(env, TestConfig());
  RecoveryStats stats;
  const auto got = RecoverAll(fresh, &stats);
  EXPECT_EQ(stats.records, written.size());
  EXPECT_EQ(stats.corruptSkipped + stats.tornTails + stats.badSegments, 0U);
  ASSERT_EQ(got.size(), written.size());
  // Same multiset overall; within each group, the original append order.
  for (std::uint32_t group = 0; group < 3; ++group) {
    const std::string topic = "g" + std::to_string(group) + "/topic";
    std::vector<std::uint64_t> wantSeqs, gotSeqs;
    for (const auto& m : written) {
      if (m.topic == topic) wantSeqs.push_back(m.seq);
    }
    for (const auto& m : got) {
      if (m.topic == topic) gotSeqs.push_back(m.seq);
    }
    EXPECT_EQ(gotSeqs, wantSeqs) << "group " << group;
  }
}

TEST(WalLogTest, AlwaysPolicySurvivesKillNineCompletely) {
  MemEnv env;
  {
    Log log(env, TestConfig());
    for (std::uint64_t seq = 1; seq <= 10; ++seq) {
      ASSERT_TRUE(log.Append(0, MakeMsg("t", 1, seq), 0).ok());
    }
    log.Abandon();  // kill -9: no Close, no final sync
  }
  env.Crash(99);
  Log fresh(env, TestConfig());
  RecoveryStats stats;
  const auto got = RecoverAll(fresh, &stats);
  EXPECT_EQ(got.size(), 10U) << "fsync=always must make every append durable";
  EXPECT_EQ(stats.tornTails, 0U);
}

TEST(WalLogTest, OsPolicyCrashKeepsAPrefixNeverGarbage) {
  // With fsync=os everything unsynced may vanish — but recovery must yield
  // an exact prefix of the appended sequence, never a gap or invention.
  for (std::uint64_t seed = 1; seed <= 16; ++seed) {
    MemEnv env;
    WalConfig cfg = TestConfig();
    cfg.fsync = FsyncPolicy::kOs;
    {
      Log log(env, cfg);
      for (std::uint64_t seq = 1; seq <= 10; ++seq) {
        ASSERT_TRUE(log.Append(0, MakeMsg("t", 1, seq), 0).ok());
      }
      log.Abandon();
    }
    env.Crash(seed);
    Log fresh(env, cfg);
    const auto got = RecoverAll(fresh);
    ASSERT_LE(got.size(), 10U);
    for (std::size_t i = 0; i < got.size(); ++i) {
      EXPECT_EQ(got[i].seq, i + 1) << "seed " << seed;
    }
  }
}

TEST(WalLogTest, RotationSpreadsRecordsAcrossSegmentsAndRecovers) {
  MemEnv env;
  WalConfig cfg = TestConfig();
  cfg.segmentBytes = 64;  // every record overflows the segment: max rotation
  cfg.retainSegments = 64;
  {
    Log log(env, cfg);
    for (std::uint64_t seq = 1; seq <= 8; ++seq) {
      ASSERT_TRUE(log.Append(0, MakeMsg("t", 1, seq), 0).ok());
    }
    log.Close();
  }
  EXPECT_GT(env.FileCount(), 1U) << "tiny segments must have rotated";
  Log fresh(env, cfg);
  RecoveryStats stats;
  const auto got = RecoverAll(fresh, &stats);
  ASSERT_EQ(got.size(), 8U);
  for (std::size_t i = 0; i < got.size(); ++i) EXPECT_EQ(got[i].seq, i + 1);
  EXPECT_GT(stats.segments, 1U);
}

TEST(WalLogTest, KillNineDuringRotationLosesNothingSealed) {
  // Sealed segments are synced at rotation even under fsync=os, so a crash
  // right after rotation (mid-life of the new active segment) can only lose
  // the unsynced active tail.
  MemEnv env;
  WalConfig cfg = TestConfig();
  cfg.fsync = FsyncPolicy::kOs;
  cfg.segmentBytes = 64;
  cfg.retainSegments = 64;
  {
    Log log(env, cfg);
    for (std::uint64_t seq = 1; seq <= 6; ++seq) {
      ASSERT_TRUE(log.Append(0, MakeMsg("t", 1, seq), 0).ok());
    }
    log.Abandon();
  }
  env.Crash(7);
  Log fresh(env, cfg);
  const auto got = RecoverAll(fresh);
  // Each append seals the previous segment; only the final record rode an
  // active (possibly unsynced) segment.
  ASSERT_GE(got.size(), 5U);
  for (std::size_t i = 0; i < got.size(); ++i) EXPECT_EQ(got[i].seq, i + 1);
}

TEST(WalLogTest, RecoveryOpensFreshSegmentsAboveTheOldOnes) {
  MemEnv env;
  WalConfig cfg = TestConfig();
  {
    Log log(env, cfg);
    ASSERT_TRUE(log.Append(0, MakeMsg("t", 1, 1), 0).ok());
    log.Abandon();
  }
  Log second(env, cfg);
  (void)RecoverAll(second);
  ASSERT_TRUE(second.Append(0, MakeMsg("t", 1, 2), 0).ok());
  second.Close();

  std::vector<std::string> names;
  ASSERT_TRUE(env.ListDir(cfg.dir, &names).ok());
  std::vector<std::uint64_t> indices;
  for (const auto& name : names) {
    const auto parsed = ParseSegmentFileName(name);
    ASSERT_TRUE(parsed.has_value()) << name;
    indices.push_back(*parsed);
  }
  std::sort(indices.begin(), indices.end());
  ASSERT_EQ(indices.size(), 2U);
  EXPECT_GT(indices[1], indices[0])
      << "recovery must never append to a possibly-damaged tail";

  Log third(env, cfg);
  const auto got = RecoverAll(third);
  ASSERT_EQ(got.size(), 2U);
  EXPECT_EQ(got[0].seq, 1U);
  EXPECT_EQ(got[1].seq, 2U);
}

TEST(WalLogTest, DoubleKillNineStaysConsistent) {
  MemEnv env;
  const WalConfig cfg = TestConfig();
  {
    Log log(env, cfg);
    for (std::uint64_t seq = 1; seq <= 5; ++seq) {
      ASSERT_TRUE(log.Append(0, MakeMsg("t", 1, seq), 0).ok());
    }
    log.Abandon();
  }
  env.Crash(1);
  {
    Log log(env, cfg);
    EXPECT_EQ(RecoverAll(log).size(), 5U);
    for (std::uint64_t seq = 6; seq <= 8; ++seq) {
      ASSERT_TRUE(log.Append(0, MakeMsg("t", 1, seq), 0).ok());
    }
    log.Abandon();
  }
  env.Crash(2);
  Log log(env, cfg);
  const auto got = RecoverAll(log);
  ASSERT_EQ(got.size(), 8U);
  for (std::size_t i = 0; i < got.size(); ++i) EXPECT_EQ(got[i].seq, i + 1);
}

TEST(WalLogTest, RetentionPrunesOldSegmentsButKeepsNewest) {
  MemEnv env;
  WalConfig cfg = TestConfig();
  cfg.segmentBytes = 64;
  cfg.retainSegments = 2;
  {
    Log log(env, cfg);
    for (std::uint64_t seq = 1; seq <= 12; ++seq) {
      ASSERT_TRUE(log.Append(0, MakeMsg("t", 1, seq), 0).ok());
    }
    log.Close();
  }
  // At most: retained sealed segments + the active one.
  EXPECT_LE(env.FileCount(), static_cast<std::size_t>(cfg.retainSegments) + 1);
  Log fresh(env, cfg);
  const auto got = RecoverAll(fresh);
  ASSERT_FALSE(got.empty());
  ASSERT_LT(got.size(), 12U) << "retention should have dropped old segments";
  // What survives is the newest contiguous suffix.
  EXPECT_EQ(got.back().seq, 12U);
  for (std::size_t i = 1; i < got.size(); ++i) {
    EXPECT_EQ(got[i].seq, got[i - 1].seq + 1);
  }
}

TEST(WalLogTest, EnospcFailsAppendButLogStaysUsable) {
  MemEnv env;
  Log log(env, TestConfig());
  ASSERT_TRUE(log.Append(0, MakeMsg("t", 1, 1), 0).ok());
  env.SetFull(true);
  const Status s = log.Append(0, MakeMsg("t", 1, 2), 0);
  ASSERT_FALSE(s.ok());
  EXPECT_EQ(s.code(), ErrorCode::kCapacity);
  env.SetFull(false);
  ASSERT_TRUE(log.Append(0, MakeMsg("t", 1, 3), 0).ok());
  log.Close();

  Log fresh(env, TestConfig());
  const auto got = RecoverAll(fresh);
  std::vector<std::uint64_t> seqs;
  for (const auto& m : got) seqs.push_back(m.seq);
  // Record 2 was rejected whole: it must not reappear, and must not have
  // corrupted its neighbours.
  EXPECT_EQ(seqs, (std::vector<std::uint64_t>{1, 3}));
}

TEST(WalLogTest, LatentBitFlipCostsAtMostOneRecordOrOneSegment) {
  for (std::uint64_t seed = 1; seed <= 16; ++seed) {
    MemEnv env;
    {
      Log log(env, TestConfig());
      for (std::uint64_t seq = 1; seq <= 8; ++seq) {
        ASSERT_TRUE(log.Append(0, MakeMsg("t", 1, seq), 0).ok());
      }
      log.Close();
    }
    ASSERT_TRUE(env.FlipRandomBit(seed));
    Log fresh(env, TestConfig());
    RecoveryStats stats;
    const auto got = RecoverAll(fresh, &stats);
    EXPECT_LT(got.size(), 8U) << "seed " << seed << ": flip went unnoticed";
    EXPECT_GE(stats.corruptSkipped + stats.tornTails + stats.badSegments, 1U)
        << "seed " << seed;
    // Nothing recovered may be an invention.
    for (const auto& m : got) {
      EXPECT_EQ(m, MakeMsg("t", 1, m.seq)) << "seed " << seed;
    }
  }
}

TEST(WalLogTest, TornTailTruncationIsCountedOnce) {
  MemEnv env;
  {
    Log log(env, TestConfig());
    for (std::uint64_t seq = 1; seq <= 4; ++seq) {
      ASSERT_TRUE(log.Append(0, MakeMsg("t", 1, seq), 0).ok());
    }
    log.Close();
  }
  ASSERT_GT(env.TruncateRandomTail(3), 0U);
  Log fresh(env, TestConfig());
  RecoveryStats stats;
  const auto got = RecoverAll(fresh, &stats);
  ASSERT_LT(got.size(), 4U);
  for (std::size_t i = 0; i < got.size(); ++i) EXPECT_EQ(got[i].seq, i + 1);
  EXPECT_EQ(stats.tornTails + stats.badSegments, 1U);
}

// ---------------------------------------------------------------------------
// Group commit: the owner syncs, never the appending thread.

WalConfig GroupConfig() {
  WalConfig cfg = TestConfig();
  cfg.fsync = FsyncPolicy::kGroupCommit;
  return cfg;
}

TEST(WalLogTest, GroupCommitNeverSyncsOnTheAppendPath) {
  MemEnv env;
  obs::MetricsRegistry registry;
  obs::WalMetrics metrics(registry);
  std::vector<Message> written;
  {
    Log log(env, GroupConfig(), &metrics);
    // 10 ms between appends, twice the flush interval: every append finds
    // the interval long expired, and still none of them syncs.
    for (std::uint64_t i = 0; i < 200; ++i) {
      Message m = MakeMsg("t/" + std::to_string(i % 50), 1, i / 50 + 1);
      ASSERT_TRUE(log.Append(static_cast<std::uint32_t>(i % 50), m,
                             static_cast<TimePoint>(i) * 10 * kMillisecond)
                      .ok());
      written.push_back(std::move(m));
    }
    EXPECT_EQ(metrics.fsyncs.Value(), 0U);
    // One sync covers all 50 groups.
    log.Flush(2000 * kMillisecond);
    EXPECT_EQ(metrics.fsyncs.Value(), 1U);
    log.Abandon();
  }
  env.Crash(5);
  Log fresh(env, GroupConfig());
  EXPECT_EQ(RecoverAll(fresh), written);
}

TEST(WalLogTest, SyncLoopBoundsDataAtRiskAndStopsPromptly) {
  using namespace std::chrono_literals;
  MemEnv env;
  obs::MetricsRegistry registry;
  obs::WalMetrics metrics(registry);
  WalConfig cfg = GroupConfig();
  cfg.flushInterval = 2 * kMillisecond;
  Log log(env, cfg, &metrics);
  std::jthread syncer([&log](std::stop_token stop) { log.SyncLoop(stop); });

  // An append is synced by the loop, not by the appending thread.
  ASSERT_TRUE(log.Append(0, MakeMsg("t", 1, 1), 0).ok());
  const auto deadline = std::chrono::steady_clock::now() + 1s;
  while (metrics.fsyncs.Value() == 0 &&
         std::chrono::steady_clock::now() < deadline) {
    std::this_thread::sleep_for(100us);
  }
  ASSERT_EQ(metrics.fsyncs.Value(), 1U) << "append not synced within 1 s";

  // A clean journal costs no fsync, however long it stays idle.
  std::this_thread::sleep_for(50ms);
  EXPECT_EQ(metrics.fsyncs.Value(), 1U);

  // Once stopped, the loop syncs nothing more; Close syncs the rest.
  syncer.request_stop();
  syncer.join();
  ASSERT_TRUE(log.Append(0, MakeMsg("t", 1, 2), 0).ok());
  std::this_thread::sleep_for(20ms);
  EXPECT_EQ(metrics.fsyncs.Value(), 1U);
  log.Close();
  EXPECT_EQ(metrics.fsyncs.Value(), 2U);
  env.Crash(9);
  Log fresh(env, cfg);
  EXPECT_EQ(RecoverAll(fresh).size(), 2U);

  // Stop-and-join returns at once while the journal is dirty and the loop
  // waits out its interval (an hour here), without syncing.
  MemEnv env2;
  obs::MetricsRegistry registry2;
  obs::WalMetrics metrics2(registry2);
  cfg.flushInterval = 3600 * kSecond;
  Log slow(env2, cfg, &metrics2);
  std::jthread slowSyncer([&slow](std::stop_token stop) { slow.SyncLoop(stop); });
  ASSERT_TRUE(slow.Append(0, MakeMsg("t", 1, 1), 0).ok());
  std::this_thread::sleep_for(5ms);  // let the loop see the append
  const auto stopAt = std::chrono::steady_clock::now();
  slowSyncer.request_stop();
  slowSyncer.join();
  EXPECT_LT(std::chrono::steady_clock::now() - stopAt, 1s);
  EXPECT_EQ(metrics2.fsyncs.Value(), 0U);
  slow.Close();
  EXPECT_EQ(metrics2.fsyncs.Value(), 1U);
}

// ---------------------------------------------------------------------------
// Cache <-> WAL integration: the path ClusterNode::RecoverFromWal exercises.

TEST(WalCacheTest, CacheAppendsAreRecoverableIntoAFreshCache) {
  MemEnv env;
  core::CacheConfig ccfg;
  ccfg.topicGroups = 4;
  std::vector<Message> written;
  {
    Log log(env, TestConfig());
    core::Cache cache(ccfg);
    cache.AttachWal(&log);
    for (std::uint64_t seq = 1; seq <= 20; ++seq) {
      Message m =
          MakeMsg("topic/" + std::to_string(seq % 3), 1, (seq / 3) + 1);
      if (cache.Append(m, 0)) written.push_back(m);
    }
    log.Close();
  }
  Log fresh(env, TestConfig());
  core::Cache recovered(ccfg);
  const RecoveryStats stats = fresh.Recover(
      [&recovered](Message&& m) { recovered.InsertRecovered(m); });
  EXPECT_EQ(stats.records, written.size());
  EXPECT_EQ(recovered.TotalMessages(), written.size());
  core::Cache reference(ccfg);
  for (const auto& m : written) reference.InsertRecovered(m);
  for (const auto& topic : {"topic/0", "topic/1", "topic/2"}) {
    EXPECT_EQ(recovered.LastPos(topic), reference.LastPos(topic)) << topic;
  }
}

TEST(WalCacheTest, ContiguousPositionsStopAtTheFirstHole) {
  core::CacheConfig ccfg;
  ccfg.topicGroups = 1;
  core::Cache cache(ccfg);
  for (std::uint64_t seq : {1, 2, 3, 5, 6}) {  // hole at 4 (flip-skipped)
    cache.InsertRecovered(MakeMsg("t", 1, seq));
  }
  const auto positions = cache.GroupPositions(0);
  ASSERT_EQ(positions.size(), 1U);
  EXPECT_EQ(positions[0].second.seq, 6U);
  const auto contiguous = cache.GroupContiguousPositions(0);
  ASSERT_EQ(contiguous.size(), 1U);
  EXPECT_EQ(contiguous[0].second.seq, 3U)
      << "peer backfill must restart before the hole, not after it";
}

}  // namespace
}  // namespace md::wal
