// Reader-robustness fuzz for the persistence subsystem: every decode path
// must return a three-valued Status — kInvalidArgument (with a byte offset)
// for corruption, kUnsupported for version skew, never a crash — under
//
//  - truncation at every (strided) prefix of the container,
//  - single-bit flips across the container (the CRC32C layer),
//  - single-bit flips and truncation of raw section payloads fed straight
//    to the codecs (the Decoder bounds/plausibility layer, which a CRC
//    collision or a hostile writer could reach),
//  - section reordering, unknown section types, and version skew,
//  - frontier rows out of canonical order or duplicated (the kernel relies
//    on sorted, distinct rows, so restore must refuse anything else).
//
// Runs under ASAN/UBSAN and TSAN via the ctest "sanitizer" label: a decoder
// walking out of bounds is a sanitizer failure even when it happens not to
// crash a plain build.

#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <string>
#include <vector>

#include "granmine/granularity/system.h"
#include "granmine/mining/miner.h"
#include "granmine/persist/bytes.h"
#include "granmine/persist/codecs.h"
#include "granmine/persist/snapshot.h"
#include "granmine/persist/stream_codec.h"
#include "granmine/stream/online_miner.h"

namespace granmine {
namespace {

using persist::Section;
using persist::SectionType;
using persist::SnapshotReader;
using persist::SnapshotWriter;
using persist::SpanSource;
using persist::VectorSink;

// A decode failure must be a *judgment* about the bytes, not an accident:
// corrupt (Invalid) or version skew (Unsupported). Anything else —
// Internal, NotFound, a sanitizer abort — is a reader bug.
void ExpectCleanFailure(const Status& status, const std::string& context) {
  EXPECT_TRUE(status.code() == StatusCode::kInvalidArgument ||
              status.code() == StatusCode::kUnsupported)
      << context << ": " << status;
  if (status.code() == StatusCode::kInvalidArgument) {
    EXPECT_NE(status.message().find("offset"), std::string::npos)
        << context << ": corruption Status must carry a byte offset: "
        << status;
  }
}

// Shared corpus: one snapshot carrying every section type, built over a
// real session so the stream payload has live frontiers to corrupt.
class SnapshotFuzzTest : public testing::Test {
 protected:
  SnapshotFuzzTest() {
    unit_ = toy_.AddUniform("unit", 1);
    VariableId x0 = s_.AddVariable("X0");
    VariableId x1 = s_.AddVariable("X1");
    VariableId x2 = s_.AddVariable("X2");
    EXPECT_TRUE(s_.AddConstraint(x0, x1, Tcg::Of(0, 8, unit_)).ok());
    EXPECT_TRUE(s_.AddConstraint(x1, x2, Tcg::Of(0, 8, unit_)).ok());
    problem_.structure = &s_;
    problem_.reference_type = 0;
    problem_.min_confidence = 0.05;
    problem_.allowed.assign(3, {});
    problem_.allowed[1] = {0, 1, 2, 3};
    problem_.allowed[2] = {0, 1, 2, 3};

    EXPECT_TRUE(toy_.Freeze().ok());
    Result<FrozenSystemImage> image = toy_.ExportFrozenImage();
    EXPECT_TRUE(image.ok());
    image_payload_ = persist::EncodeFrozenSystemImage(*image);

    EventSequence sequence;
    for (int i = 0; i < 16; ++i) {
      sequence.Add(Event{static_cast<EventTypeId>(i % 4), i});
    }
    sequence_payload_ = persist::EncodeEventSequence(sequence);

    OnlineMiner miner = MakeMiner();
    std::uint64_t state = 0xfeedface12345678ULL;
    TimePoint t = 1;
    for (int i = 0; i < 40; ++i) {
      state = state * 6364136223846793005ULL + 1442695040888963407ULL;
      t += static_cast<TimePoint>((state >> 33) % 2);
      EXPECT_TRUE(
          miner.Ingest(Event{static_cast<EventTypeId>((state >> 13) % 4), t})
              .ok());
    }
    stream_payload_ = persist::StreamSessionCodec::Encode(miner);

    VectorSink sink;
    SnapshotWriter writer(&sink);
    EXPECT_TRUE(writer.WriteHeader().ok());
    EXPECT_TRUE(
        writer.WriteSection(SectionType::kFrozenSystemImage, image_payload_)
            .ok());
    EXPECT_TRUE(
        writer.WriteSection(SectionType::kEventSequence, sequence_payload_)
            .ok());
    EXPECT_TRUE(
        writer.WriteSection(SectionType::kStreamSession, stream_payload_)
            .ok());
    const std::vector<std::uint8_t> meta = {'f', 'u', 'z', 'z'};
    EXPECT_TRUE(writer.WriteSection(SectionType::kMeta, meta).ok());
    EXPECT_TRUE(
        writer.WriteSection(static_cast<SectionType>(999), meta).ok());
    EXPECT_TRUE(writer.Finish().ok());
    snapshot_ = sink.TakeBuffer();
  }

  OnlineMiner MakeMiner() {
    Result<OnlineMiner> miner =
        OnlineMiner::Create(&toy_, problem_, OnlineMinerOptions{});
    EXPECT_TRUE(miner.ok()) << miner.status();
    return std::move(*miner);
  }

  // Runs the full consumer pipeline over container bytes: framing, then
  // every codec a real reader would invoke on the sections it finds. The
  // return value only says whether everything succeeded; the point is that
  // every failure is a clean one.
  void DrivePipeline(std::span<const std::uint8_t> bytes,
                     const std::string& context) {
    SpanSource source(bytes);
    Result<std::vector<Section>> sections =
        persist::ReadAllSections(&source);
    if (!sections.ok()) {
      ExpectCleanFailure(sections.status(), context + " [container]");
      return;
    }
    for (const Section& section : *sections) {
      switch (section.type) {
        case SectionType::kFrozenSystemImage: {
          Result<FrozenSystemImage> image =
              persist::DecodeFrozenSystemImage(section);
          if (!image.ok()) {
            ExpectCleanFailure(image.status(), context + " [image]");
          }
          break;
        }
        case SectionType::kEventSequence: {
          Result<EventSequence> sequence =
              persist::DecodeEventSequence(section);
          if (!sequence.ok()) {
            ExpectCleanFailure(sequence.status(), context + " [sequence]");
          }
          break;
        }
        case SectionType::kStreamSession: {
          OnlineMiner miner = MakeMiner();
          Status installed =
              persist::StreamSessionCodec::Decode(section, &miner);
          if (!installed.ok()) {
            ExpectCleanFailure(installed, context + " [stream]");
          }
          break;
        }
        default:
          break;  // kMeta / unknown: skippable by design
      }
    }
  }

  GranularitySystem toy_;
  const Granularity* unit_;
  EventStructure s_;
  DiscoveryProblem problem_;
  std::vector<std::uint8_t> image_payload_;
  std::vector<std::uint8_t> sequence_payload_;
  std::vector<std::uint8_t> stream_payload_;
  std::vector<std::uint8_t> snapshot_;
};

TEST_F(SnapshotFuzzTest, IntactCorpusDecodesEndToEnd) {
  SpanSource source(snapshot_);
  Result<std::vector<Section>> sections = persist::ReadAllSections(&source);
  ASSERT_TRUE(sections.ok()) << sections.status();
  ASSERT_EQ(sections->size(), 5u);
  DrivePipeline(snapshot_, "intact");
}

TEST_F(SnapshotFuzzTest, TruncationAtEveryPrefixFailsCleanly) {
  // Every prefix across the header and the first frames, then strided
  // through the bulk: a strict prefix must never decode as a complete
  // snapshot (the kEnd trailer is what rules out silent truncation).
  for (std::size_t cut = 0; cut < snapshot_.size();
       cut += (cut < 256 ? 1 : 13)) {
    std::span<const std::uint8_t> prefix(snapshot_.data(), cut);
    SpanSource source(prefix);
    Result<std::vector<Section>> sections =
        persist::ReadAllSections(&source);
    ASSERT_FALSE(sections.ok()) << "prefix " << cut << " decoded cleanly";
    ExpectCleanFailure(sections.status(),
                       "truncated at " + std::to_string(cut));
  }
}

TEST_F(SnapshotFuzzTest, SingleBitFlipsNeverCrashTheReader) {
  // CRC32C detects every single-bit flip in a covered frame+payload; flips
  // in the header are caught by magic/version checks; flips in reserved
  // fields may legitimately decode. Either way: no crash, clean Status.
  std::vector<std::uint8_t> mutant;
  for (std::size_t byte = 0; byte < snapshot_.size();
       byte += (byte < 64 ? 1 : 7)) {
    mutant = snapshot_;
    mutant[byte] = static_cast<std::uint8_t>(
        mutant[byte] ^ (1u << (byte % 8)));
    DrivePipeline(mutant, "bit flip at byte " + std::to_string(byte));
  }
}

TEST_F(SnapshotFuzzTest, CodecLevelBitFlipsFailCleanly) {
  // Straight to the codecs, bypassing the CRC — the layer a hostile writer
  // (valid CRC over malicious bytes) would reach. The Decoder's bounds and
  // plausibility guards are all that stands between these bytes and an
  // out-of-bounds walk.
  struct Target {
    const char* name;
    const std::vector<std::uint8_t>* payload;
    SectionType type;
  };
  const Target targets[] = {
      {"image", &image_payload_, SectionType::kFrozenSystemImage},
      {"sequence", &sequence_payload_, SectionType::kEventSequence},
      {"stream", &stream_payload_, SectionType::kStreamSession},
  };
  for (const Target& target : targets) {
    for (std::size_t byte = 0; byte < target.payload->size();
         byte += (byte < 64 ? 1 : 11)) {
      for (int bit : {0, 7}) {
        Section section;
        section.type = target.type;
        section.payload = *target.payload;
        section.payload_offset = 36;  // arbitrary but fixed file coordinate
        section.payload[byte] =
            static_cast<std::uint8_t>(section.payload[byte] ^ (1u << bit));
        const std::string context = std::string("codec flip ") + target.name +
                                    " byte " + std::to_string(byte);
        if (target.type == SectionType::kFrozenSystemImage) {
          Result<FrozenSystemImage> image =
              persist::DecodeFrozenSystemImage(section);
          // A flipped table value still *decodes*; FreezeFromImage is the
          // semantic gate. Structural corruption must fail cleanly.
          if (!image.ok()) ExpectCleanFailure(image.status(), context);
        } else if (target.type == SectionType::kEventSequence) {
          Result<EventSequence> sequence =
              persist::DecodeEventSequence(section);
          if (!sequence.ok()) ExpectCleanFailure(sequence.status(), context);
        } else {
          OnlineMiner miner = MakeMiner();
          Status installed =
              persist::StreamSessionCodec::Decode(section, &miner);
          if (!installed.ok()) ExpectCleanFailure(installed, context);
        }
      }
    }
  }
}

TEST_F(SnapshotFuzzTest, CodecLevelTruncationFailsCleanly) {
  for (std::size_t cut = 0; cut < stream_payload_.size();
       cut += (cut < 64 ? 1 : 17)) {
    Section section;
    section.type = SectionType::kStreamSession;
    section.payload.assign(stream_payload_.begin(),
                           stream_payload_.begin() +
                               static_cast<std::ptrdiff_t>(cut));
    section.payload_offset = 36;
    OnlineMiner miner = MakeMiner();
    Status installed = persist::StreamSessionCodec::Decode(section, &miner);
    ASSERT_FALSE(installed.ok())
        << "stream payload truncated at " << cut << " installed cleanly";
    ExpectCleanFailure(installed, "stream truncated at " + std::to_string(cut));
  }
  for (std::size_t cut = 0; cut < image_payload_.size();
       cut += (cut < 64 ? 1 : 17)) {
    Section section;
    section.type = SectionType::kFrozenSystemImage;
    section.payload.assign(image_payload_.begin(),
                           image_payload_.begin() +
                               static_cast<std::ptrdiff_t>(cut));
    section.payload_offset = 36;
    Result<FrozenSystemImage> image =
        persist::DecodeFrozenSystemImage(section);
    ASSERT_FALSE(image.ok())
        << "image payload truncated at " << cut << " decoded cleanly";
    ExpectCleanFailure(image.status(),
                       "image truncated at " + std::to_string(cut));
  }
}

TEST_F(SnapshotFuzzTest, SectionReorderStillDecodes) {
  // Rebuild the container with the sections in reverse order: framing makes
  // each section independent, so order is presentation, not semantics.
  SpanSource source(snapshot_);
  Result<std::vector<Section>> sections = persist::ReadAllSections(&source);
  ASSERT_TRUE(sections.ok());
  VectorSink sink;
  SnapshotWriter writer(&sink);
  ASSERT_TRUE(writer.WriteHeader().ok());
  for (auto it = sections->rbegin(); it != sections->rend(); ++it) {
    ASSERT_TRUE(writer.WriteSection(it->type, it->payload).ok());
  }
  ASSERT_TRUE(writer.Finish().ok());
  DrivePipeline(sink.buffer(), "reversed");
}

TEST_F(SnapshotFuzzTest, ContainerVersionSkewIsUnsupported) {
  std::vector<std::uint8_t> future = snapshot_;
  future[8] = 0x02;  // little-endian format version
  SpanSource source(future);
  SnapshotReader reader(&source);
  Status header = reader.ReadHeader();
  ASSERT_FALSE(header.ok());
  EXPECT_EQ(header.code(), StatusCode::kUnsupported) << header;
}

// Walks a stream-session payload (layout: src/granmine/persist/
// stream_codec.cc) to the first resident frontier holding two or more
// configurations; returns the payload offset of its first row, the row size
// and the row count, or a zero row count when there is none.
struct FrontierAt {
  std::size_t offset = 0;
  std::size_t row_bytes = 0;
  std::uint64_t rows = 0;
};
FrontierAt FindMultiRowFrontier(const std::vector<std::uint8_t>& payload) {
  persist::Decoder dec(payload, 0);
  std::uint8_t u8 = 0;
  std::uint32_t u32 = 0;
  std::int32_t i32 = 0;
  std::uint64_t u64 = 0, count = 0;
  std::int64_t i64 = 0;
  auto skip = [&](int u8s, int i32s, int i64s, int u64s) {
    for (int i = 0; i < u8s; ++i) EXPECT_TRUE(dec.GetU8("u8", &u8).ok());
    for (int i = 0; i < i32s; ++i) EXPECT_TRUE(dec.GetI32("i32", &i32).ok());
    for (int i = 0; i < i64s; ++i) EXPECT_TRUE(dec.GetI64("i64", &i64).ok());
    for (int i = 0; i < u64s; ++i) EXPECT_TRUE(dec.GetU64("u64", &u64).ok());
  };
  EXPECT_TRUE(dec.GetU32("version", &u32).ok());
  skip(1, 3, 2, 3);  // fingerprint
  skip(2, 0, 1, 2);  // watermark + late/shed counters
  EXPECT_TRUE(dec.GetU64("buffered", &count).ok());
  for (std::uint64_t i = 0; i < count; ++i) skip(0, 1, 1, 0);
  skip(0, 0, 0, 3);  // core counters
  EXPECT_TRUE(dec.GetU64("groups", &count).ok());
  for (std::uint64_t i = 0; i < count; ++i) skip(0, 0, 1, 3);
  EXPECT_TRUE(dec.GetU8("has matcher", &u8).ok());
  std::uint64_t clocks = 0, candidates = 0, roots = 0;
  EXPECT_TRUE(dec.GetU64("clocks", &clocks).ok());
  EXPECT_TRUE(dec.GetU64("candidates", &candidates).ok());
  EXPECT_TRUE(dec.GetU64("roots", &roots).ok());
  const std::size_t row_bytes = 4 + 8 * static_cast<std::size_t>(clocks);
  for (std::uint64_t r = 0; r < roots; ++r) {
    skip(0, 0, 2, 1);  // t0, deadline, pending
    for (std::uint64_t c = 0; c < candidates; ++c) {
      skip(1, 0, 0, 0);  // verdict
      skip(1, 1, 0, 5);  // stats
      skip(1, 0, 0, 0);  // seeded
      EXPECT_TRUE(dec.GetU64("frontier", &count).ok());
      const std::size_t at = static_cast<std::size_t>(dec.offset());
      if (count >= 2) return {at, row_bytes, count};
      for (std::uint64_t i = 0; i < count; ++i) {
        skip(0, 1, static_cast<int>(clocks), 0);
      }
    }
  }
  return {};
}

TEST_F(SnapshotFuzzTest, OutOfOrderOrDuplicateFrontierRowsAreCorrupt) {
  const FrontierAt frontier = FindMultiRowFrontier(stream_payload_);
  ASSERT_GE(frontier.rows, 2u) << "the corpus needs a multi-row frontier";
  auto install = [&](const std::vector<std::uint8_t>& payload) {
    Section section;
    section.type = SectionType::kStreamSession;
    section.payload = payload;
    section.payload_offset = 36;
    OnlineMiner miner = MakeMiner();
    return persist::StreamSessionCodec::Decode(section, &miner);
  };
  ASSERT_TRUE(install(stream_payload_).ok());

  const auto at = static_cast<std::ptrdiff_t>(frontier.offset);
  const auto row = static_cast<std::ptrdiff_t>(frontier.row_bytes);
  std::vector<std::uint8_t> swapped = stream_payload_;
  std::swap_ranges(swapped.begin() + at, swapped.begin() + at + row,
                   swapped.begin() + at + row);
  std::vector<std::uint8_t> duplicated = stream_payload_;
  std::copy_n(stream_payload_.begin() + at, row,
              duplicated.begin() + at + row);

  for (const auto* payload : {&swapped, &duplicated}) {
    Status installed = install(*payload);
    ASSERT_FALSE(installed.ok());
    ExpectCleanFailure(installed, "reordered frontier");
    EXPECT_NE(installed.message().find("strictly increasing"),
              std::string::npos)
        << installed;
  }
}

TEST_F(SnapshotFuzzTest, StreamPayloadVersionSkewIsUnsupported) {
  Section section;
  section.type = SectionType::kStreamSession;
  section.payload = stream_payload_;
  section.payload_offset = 36;
  section.payload[0] = 0x02;  // little-endian payload version
  OnlineMiner miner = MakeMiner();
  Status installed = persist::StreamSessionCodec::Decode(section, &miner);
  ASSERT_FALSE(installed.ok());
  EXPECT_EQ(installed.code(), StatusCode::kUnsupported) << installed;
}

}  // namespace
}  // namespace granmine
