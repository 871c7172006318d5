// The persistence subsystem's contract suite (docs/persistence.md):
//
//  - container: the byte layout matches docs/persistence.md, the CRC is the
//    standard CRC-32C, header/section/trailer framing roundtrips, unknown
//    section types are forward-skippable, truncation is Invalid with a byte
//    offset;
//  - warm start: FreezeFromImage installs sealed caches identical to a cold
//    Freeze and refuses an image from a different family;
//  - stream checkpoint/restore: the crash-recovery differential — kill the
//    session at EVERY checkpoint boundary, restore, finish the stream, and
//    both the report and the next checkpoint's bytes must be identical to an
//    uninterrupted run, at 1 and 4 threads;
//  - crash safety: an abandoned or governor-cancelled write leaves no
//    partial file; checkpoint I/O is charged to the governor.

#include <gtest/gtest.h>

#include <cstdint>
#include <cstdio>
#include <cstring>
#include <span>
#include <string>
#include <vector>

#include "granmine/common/governor.h"
#include "granmine/engine/engine.h"
#include "granmine/granularity/system.h"
#include "granmine/mining/miner.h"
#include "granmine/persist/bytes.h"
#include "granmine/persist/codecs.h"
#include "granmine/persist/crc32c.h"
#include "granmine/persist/snapshot.h"
#include "granmine/persist/stream_codec.h"
#include "granmine/stream/online_miner.h"
#include "test_pool.h"

namespace granmine {
namespace {

using persist::Section;
using persist::SectionType;
using persist::SnapshotIoOptions;
using persist::SnapshotReader;
using persist::SnapshotWriter;
using persist::SpanSource;
using persist::VectorSink;

std::string TempPath(const char* name) {
  return testing::TempDir() + "granmine_persist_" + name;
}

bool FileExists(const std::string& path) {
  if (std::FILE* file = std::fopen(path.c_str(), "rb"); file != nullptr) {
    std::fclose(file);
    return true;
  }
  return false;
}

std::vector<std::uint8_t> ReadFileBytes(const std::string& path) {
  std::vector<std::uint8_t> out;
  if (std::FILE* file = std::fopen(path.c_str(), "rb"); file != nullptr) {
    std::uint8_t buffer[4096];
    std::size_t n = 0;
    while ((n = std::fread(buffer, 1, sizeof(buffer), file)) > 0) {
      out.insert(out.end(), buffer, buffer + n);
    }
    std::fclose(file);
  }
  return out;
}

std::vector<std::uint8_t> Bytes(std::initializer_list<int> values) {
  std::vector<std::uint8_t> out;
  for (int v : values) out.push_back(static_cast<std::uint8_t>(v));
  return out;
}

// ---------------------------------------------------------------------------
// Container framing.

// The standard CRC-32C check value (the CRC of the ASCII digits 1-9), so a
// self-consistent but non-standard checksum cannot pass the round trips.
TEST(SnapshotContainerTest, Crc32cMatchesTheStandardCheckValue) {
  const std::string digits = "123456789";
  const std::span<const std::uint8_t> bytes(
      reinterpret_cast<const std::uint8_t*>(digits.data()), digits.size());
  EXPECT_EQ(persist::Crc32c(bytes), 0xE3069283u);
  for (std::size_t split = 0; split <= bytes.size(); ++split) {
    const std::uint32_t head =
        persist::ExtendCrc32c(persist::kCrc32cInit, bytes.first(split));
    EXPECT_EQ(persist::ExtendCrc32c(head, bytes.subspan(split)), 0xE3069283u)
        << "split at " << split;
  }
}

// The byte offsets pinned here are normative in docs/persistence.md
// ("Container format"): a 16-byte header, then per section u32 type |
// u32 reserved | u64 length | u32 CRC32C = 20 frame bytes before the
// payload, and a kEnd trailer with an empty payload.
TEST(SnapshotContainerTest, SectionLayoutMatchesSpec) {
  VectorSink sink;
  SnapshotWriter writer(&sink);
  ASSERT_TRUE(writer.WriteHeader().ok());
  const std::vector<std::uint8_t> payload = Bytes({0xAA, 0xBB, 0xCC});
  ASSERT_TRUE(writer.WriteSection(SectionType::kMeta, payload).ok());
  ASSERT_TRUE(writer.Finish().ok());
  const std::vector<std::uint8_t>& bytes = sink.buffer();
  ASSERT_EQ(bytes.size(), 16u + 20u + payload.size() + 20u);
  // Header: magic "GMSNAP01", u32 format version 1, u32 reserved zero.
  EXPECT_EQ(std::memcmp(bytes.data(), "GMSNAP01", 8), 0);
  EXPECT_EQ(bytes[8], 1u);
  EXPECT_EQ(bytes[11], 0u);
  EXPECT_EQ(bytes[12], 0u);
  EXPECT_EQ(bytes[15], 0u);
  // Section frame at offset 16: u32 type (kMeta = 4) at +0.
  EXPECT_EQ(bytes[16], 4u);
  EXPECT_EQ(bytes[19], 0u);
  // u32 reserved at +4, zero.
  EXPECT_EQ(bytes[20], 0u);
  EXPECT_EQ(bytes[23], 0u);
  // u64 payload length at +8.
  EXPECT_EQ(bytes[24], payload.size());
  EXPECT_EQ(bytes[31], 0u);
  // u32 CRC32C at +16 over the 16 frame bytes before it plus the payload.
  std::vector<std::uint8_t> covered(bytes.begin() + 16, bytes.begin() + 32);
  covered.insert(covered.end(), payload.begin(), payload.end());
  const std::uint32_t crc = persist::Crc32c(covered);
  EXPECT_EQ(bytes[32], crc & 0xFFu);
  EXPECT_EQ(bytes[35], crc >> 24);
  // Payload at +20.
  EXPECT_EQ(bytes[36], 0xAAu);
  EXPECT_EQ(bytes[38], 0xCCu);
  // Trailer: type kEnd (0), zero length, CRC over its 16 zero frame bytes.
  const std::size_t trailer = 39;
  for (std::size_t i = trailer; i < trailer + 16; ++i) {
    EXPECT_EQ(bytes[i], 0u) << "trailer byte " << i;
  }
  const std::uint32_t end_crc =
      persist::Crc32c(std::vector<std::uint8_t>(16, 0));
  EXPECT_EQ(bytes[trailer + 16], end_crc & 0xFFu);
  EXPECT_EQ(bytes[trailer + 19], end_crc >> 24);
}

TEST(SnapshotContainerTest, RoundtripsSectionsInOrder) {
  VectorSink sink;
  SnapshotWriter writer(&sink);
  ASSERT_TRUE(writer.WriteHeader().ok());
  const std::vector<std::uint8_t> meta = Bytes({1, 2, 3, 4, 5});
  const std::vector<std::uint8_t> empty;
  ASSERT_TRUE(writer.WriteSection(SectionType::kMeta, meta).ok());
  ASSERT_TRUE(writer.WriteSection(SectionType::kEventSequence, empty).ok());
  ASSERT_TRUE(writer.Finish().ok());
  EXPECT_EQ(writer.sections_written(), 2u);

  SpanSource source(sink.buffer());
  Result<std::vector<Section>> sections = persist::ReadAllSections(&source);
  ASSERT_TRUE(sections.ok()) << sections.status();
  ASSERT_EQ(sections->size(), 2u);
  EXPECT_EQ((*sections)[0].type, SectionType::kMeta);
  EXPECT_EQ((*sections)[0].payload, meta);
  EXPECT_EQ((*sections)[1].type, SectionType::kEventSequence);
  EXPECT_TRUE((*sections)[1].payload.empty());
  // Payload offsets are file coordinates: past the 16-byte header and the
  // 20-byte frame.
  EXPECT_EQ((*sections)[0].payload_offset, 16u + 20u);
}

TEST(SnapshotContainerTest, UnknownSectionTypeIsSkippable) {
  VectorSink sink;
  SnapshotWriter writer(&sink);
  ASSERT_TRUE(writer.WriteHeader().ok());
  const std::vector<std::uint8_t> future = Bytes({42, 42, 42});
  const std::vector<std::uint8_t> known = Bytes({7});
  ASSERT_TRUE(
      writer.WriteSection(static_cast<SectionType>(999), future).ok());
  ASSERT_TRUE(writer.WriteSection(SectionType::kMeta, known).ok());
  ASSERT_TRUE(writer.Finish().ok());

  // A reader that does not understand type 999 still CRC-verifies and steps
  // over it, and delivers the section after it intact.
  SpanSource source(sink.buffer());
  Result<std::vector<Section>> sections = persist::ReadAllSections(&source);
  ASSERT_TRUE(sections.ok()) << sections.status();
  ASSERT_EQ(sections->size(), 2u);
  EXPECT_EQ(static_cast<std::uint32_t>((*sections)[0].type), 999u);
  EXPECT_EQ((*sections)[1].payload, known);
}

TEST(SnapshotContainerTest, MissingTrailerIsTruncationWithOffset) {
  VectorSink sink;
  SnapshotWriter writer(&sink);
  ASSERT_TRUE(writer.WriteHeader().ok());
  ASSERT_TRUE(writer.WriteSection(SectionType::kMeta, Bytes({9, 9})).ok());
  // No Finish(): the file ends between sections, which must read as
  // truncation, not as a clean snapshot.
  SpanSource source(sink.buffer());
  Result<std::vector<Section>> sections = persist::ReadAllSections(&source);
  ASSERT_FALSE(sections.ok());
  EXPECT_EQ(sections.status().code(), StatusCode::kInvalidArgument);
  EXPECT_NE(sections.status().message().find("offset"), std::string::npos)
      << sections.status();
}

TEST(SnapshotContainerTest, BadMagicAndBadVersionAreDistinguished) {
  VectorSink sink;
  SnapshotWriter writer(&sink);
  ASSERT_TRUE(writer.WriteHeader().ok());
  ASSERT_TRUE(writer.Finish().ok());

  std::vector<std::uint8_t> bad_magic = sink.buffer();
  bad_magic[0] ^= 0xFF;
  SpanSource magic_source(bad_magic);
  SnapshotReader magic_reader(&magic_source);
  EXPECT_EQ(magic_reader.ReadHeader().code(), StatusCode::kInvalidArgument);

  std::vector<std::uint8_t> bad_version = sink.buffer();
  bad_version[8] = 0xFE;  // little-endian version field
  SpanSource version_source(bad_version);
  SnapshotReader version_reader(&version_source);
  EXPECT_EQ(version_reader.ReadHeader().code(), StatusCode::kUnsupported);
}

// ---------------------------------------------------------------------------
// Section codecs.

TEST(CodecTest, EventSequenceRoundtrips) {
  EventSequence sequence;
  sequence.Add(Event{3, 100});
  sequence.Add(Event{1, 100});
  sequence.Add(Event{0, -7});
  const std::vector<std::uint8_t> payload =
      persist::EncodeEventSequence(sequence);
  Section section;
  section.type = SectionType::kEventSequence;
  section.payload = payload;
  Result<EventSequence> decoded = persist::DecodeEventSequence(section);
  ASSERT_TRUE(decoded.ok()) << decoded.status();
  ASSERT_EQ(decoded->size(), sequence.size());
  for (std::size_t i = 0; i < sequence.size(); ++i) {
    EXPECT_EQ(decoded->events()[i].type, sequence.events()[i].type);
    EXPECT_EQ(decoded->events()[i].time, sequence.events()[i].time);
  }
}

TEST(CodecTest, FrozenImageRoundtripsAndWarmStartEqualsColdFreeze) {
  // Cold system: freeze computes the sealed caches from the definitions.
  GranularitySystem cold;
  const Granularity* unit = cold.AddUniform("unit", 1);
  const Granularity* triple = cold.AddUniform("triple", 3);
  ASSERT_NE(unit, nullptr);
  ASSERT_NE(triple, nullptr);
  ASSERT_TRUE(cold.Freeze().ok());
  Result<FrozenSystemImage> image = cold.ExportFrozenImage();
  ASSERT_TRUE(image.ok()) << image.status();

  // Codec roundtrip.
  Section section;
  section.type = SectionType::kFrozenSystemImage;
  section.payload = persist::EncodeFrozenSystemImage(*image);
  Result<FrozenSystemImage> decoded =
      persist::DecodeFrozenSystemImage(section);
  ASSERT_TRUE(decoded.ok()) << decoded.status();

  // Warm system: same definitions, caches installed from the image.
  GranularitySystem warm;
  const Granularity* warm_unit = warm.AddUniform("unit", 1);
  const Granularity* warm_triple = warm.AddUniform("triple", 3);
  ASSERT_TRUE(warm.FreezeFromImage(*decoded).ok());
  ASSERT_TRUE(warm.frozen());

  for (std::int64_t k = 1; k <= 64; ++k) {
    EXPECT_EQ(cold.tables().MinSize(*unit, k),
              warm.tables().MinSize(*warm_unit, k));
    EXPECT_EQ(cold.tables().MaxSize(*triple, k),
              warm.tables().MaxSize(*warm_triple, k));
    EXPECT_EQ(cold.tables().MinGap(*triple, k),
              warm.tables().MinGap(*warm_triple, k));
  }
  EXPECT_EQ(cold.coverage().Covers(*triple, *unit),
            warm.coverage().Covers(*warm_triple, *warm_unit));
  EXPECT_EQ(cold.coverage().Covers(*unit, *triple),
            warm.coverage().Covers(*warm_unit, *warm_triple));
}

TEST(CodecTest, WarmStartRefusesImageFromDifferentFamily) {
  GranularitySystem origin;
  ASSERT_NE(origin.AddUniform("unit", 1), nullptr);
  ASSERT_TRUE(origin.Freeze().ok());
  Result<FrozenSystemImage> image = origin.ExportFrozenImage();
  ASSERT_TRUE(image.ok());

  // Same name, different definition: the spot check must catch that the
  // sealed tables disagree with this system's semantics.
  GranularitySystem different;
  ASSERT_NE(different.AddUniform("unit", 2), nullptr);
  Status mismatch = different.FreezeFromImage(*image);
  EXPECT_EQ(mismatch.code(), StatusCode::kInvalidArgument) << mismatch;
  EXPECT_FALSE(different.frozen());

  // Different family shape: refused before any table comparison.
  GranularitySystem renamed;
  ASSERT_NE(renamed.AddUniform("other", 1), nullptr);
  EXPECT_EQ(renamed.FreezeFromImage(*image).code(),
            StatusCode::kInvalidArgument);
}

// ---------------------------------------------------------------------------
// Engine snapshot / warm start.

TEST(EngineSnapshotTest, SaveThenFromSnapshotServesIdenticalResults) {
  const std::string path = TempPath("engine_snapshot.bin");
  std::remove(path.c_str());

  EventSequence sequence;
  for (int i = 0; i < 8; ++i) {
    sequence.Add(Event{static_cast<EventTypeId>(i % 2), i * 3600});
  }

  Result<std::unique_ptr<Engine>> cold = Engine::CreateGregorian();
  ASSERT_TRUE(cold.ok());
  SnapshotSaveOptions save;
  save.sequence = &sequence;
  ASSERT_TRUE((*cold)->SaveSnapshot(path, save).ok());

  EventSequence restored_sequence;
  Result<std::unique_ptr<Engine>> warm = Engine::FromSnapshot(
      GranularitySystem::Gregorian(), path, EngineOptions{},
      &restored_sequence);
  ASSERT_TRUE(warm.ok()) << warm.status();
  ASSERT_TRUE((*warm)->frozen());
  ASSERT_EQ(restored_sequence.size(), sequence.size());

  // The warm engine's sealed caches answer identically to the cold one's.
  const GranularitySystem& a = *(*cold)->system();
  const GranularitySystem& b = *(*warm)->system();
  ASSERT_EQ(a.family().size(), b.family().size());
  for (std::size_t g = 0; g < a.family().size(); ++g) {
    for (std::int64_t k : {1, 2, 7, 30}) {
      EXPECT_EQ(a.tables().MinSize(*a.family()[g], k),
                b.tables().MinSize(*b.family()[g], k));
      EXPECT_EQ(a.tables().MaxSize(*a.family()[g], k),
                b.tables().MaxSize(*b.family()[g], k));
      EXPECT_EQ(a.tables().MinGap(*a.family()[g], k),
                b.tables().MinGap(*b.family()[g], k));
    }
  }
  std::remove(path.c_str());
}

TEST(EngineSnapshotTest, FromSnapshotWithoutImageSectionIsInvalid) {
  const std::string path = TempPath("no_image.bin");
  {
    Result<std::unique_ptr<persist::AtomicFileSink>> sink =
        persist::AtomicFileSink::Open(path);
    ASSERT_TRUE(sink.ok());
    SnapshotWriter writer(sink->get());
    ASSERT_TRUE(writer.WriteHeader().ok());
    ASSERT_TRUE(writer.Finish().ok());
    ASSERT_TRUE((*sink)->Commit().ok());
  }
  Result<std::unique_ptr<Engine>> warm =
      Engine::FromSnapshot(GranularitySystem::Gregorian(), path);
  ASSERT_FALSE(warm.ok());
  EXPECT_EQ(warm.status().code(), StatusCode::kInvalidArgument);
  std::remove(path.c_str());
}

// ---------------------------------------------------------------------------
// Crash safety and governed I/O.

TEST(AtomicSinkTest, AbandonedWriteLeavesNoFile) {
  const std::string path = TempPath("abandoned.bin");
  std::remove(path.c_str());
  {
    Result<std::unique_ptr<persist::AtomicFileSink>> sink =
        persist::AtomicFileSink::Open(path);
    ASSERT_TRUE(sink.ok());
    const std::vector<std::uint8_t> data = Bytes({1, 2, 3});
    ASSERT_TRUE((*sink)->Append(data).ok());
    // No Commit: destruction abandons the write.
  }
  EXPECT_FALSE(FileExists(path));
  EXPECT_FALSE(FileExists(path + ".tmp"));
}

TEST(AtomicSinkTest, AbandonedWritePreservesPreviousFile) {
  const std::string path = TempPath("previous.bin");
  {
    std::FILE* file = std::fopen(path.c_str(), "wb");
    ASSERT_NE(file, nullptr);
    std::fputs("previous checkpoint", file);
    std::fclose(file);
  }
  {
    Result<std::unique_ptr<persist::AtomicFileSink>> sink =
        persist::AtomicFileSink::Open(path);
    ASSERT_TRUE(sink.ok());
    const std::vector<std::uint8_t> data = Bytes({0xDE, 0xAD});
    ASSERT_TRUE((*sink)->Append(data).ok());
  }
  std::FILE* file = std::fopen(path.c_str(), "rb");
  ASSERT_NE(file, nullptr);
  char buffer[64] = {};
  const std::size_t n = std::fread(buffer, 1, sizeof(buffer) - 1, file);
  std::fclose(file);
  EXPECT_EQ(std::string(buffer, n), "previous checkpoint");
  std::remove(path.c_str());
}

TEST(GovernedIoTest, WriterChargesStepsPerPayloadBlock) {
  GovernorLimits limits;
  limits.max_steps = 1'000'000;
  limits.check_stride = 1;  // flush every charge so steps() is exact
  ResourceGovernor governor(limits);
  VectorSink sink;
  SnapshotWriter writer(&sink, SnapshotIoOptions{&governor});
  ASSERT_TRUE(writer.WriteHeader().ok());
  const std::vector<std::uint8_t> payload(64 * 1024, 0xAB);
  ASSERT_TRUE(writer.WriteSection(SectionType::kMeta, payload).ok());
  ASSERT_TRUE(writer.Finish().ok());
  // 64 KiB at one step per 4096 bytes = at least 16 steps.
  EXPECT_GE(governor.steps(),
            payload.size() / persist::kGovernedBytesPerStep);
}

TEST(GovernedIoTest, ExhaustedBudgetCancelsWriteWithoutPartialFile) {
  GranularitySystem toy;
  const Granularity* unit = toy.AddUniform("unit", 1);
  EventStructure s;
  VariableId x0 = s.AddVariable("X0");
  VariableId x1 = s.AddVariable("X1");
  ASSERT_TRUE(s.AddConstraint(x0, x1, Tcg::Of(0, 4, unit)).ok());
  DiscoveryProblem problem;
  problem.structure = &s;
  problem.reference_type = 0;
  problem.allowed.assign(2, {});
  problem.allowed[1] = {0, 1, 2, 3};
  Result<OnlineMiner> miner =
      OnlineMiner::Create(&toy, problem, OnlineMinerOptions{});
  ASSERT_TRUE(miner.ok());
  // Enough resident state that the checkpoint payload exceeds the
  // bytes-per-step quantum — a sub-quantum write charges no step and
  // legitimately cannot trip the budget.
  for (int i = 0; i < 256; ++i) {
    ASSERT_TRUE(miner->Ingest(Event{static_cast<EventTypeId>(i % 4), i}).ok());
  }

  const std::string path = TempPath("cancelled.bin");
  std::remove(path.c_str());
  GovernorLimits limits;
  limits.max_steps = 1;
  limits.check_stride = 1;  // trips on the first flushed charge
  ResourceGovernor governor(limits);
  Status refused = persist::SaveStreamCheckpoint(*miner, path,
                                                 SnapshotIoOptions{&governor});
  ASSERT_FALSE(refused.ok());
  EXPECT_EQ(refused.code(), StatusCode::kResourceExhausted) << refused;
  EXPECT_FALSE(FileExists(path));
  EXPECT_FALSE(FileExists(path + ".tmp"));
}

// ---------------------------------------------------------------------------
// Stream checkpoint/restore differential. Same toy system, structure and
// deterministic arrival process as stream_test.cc, so the two gates certify
// the same session shape.

std::string FormatReport(const MiningReport& report) {
  std::string out;
  char buffer[256];
  auto append = [&](const char* format, auto... args) {
    std::snprintf(buffer, sizeof(buffer), format, args...);
    out += buffer;
  };
  append("roots=%zu events=%zu/%zu cand=%llu/%llu runs=%llu configs=%llu\n",
         report.total_roots, report.events_before,
         report.events_after_reduction,
         static_cast<unsigned long long>(report.candidates_before),
         static_cast<unsigned long long>(report.candidates_after_screening),
         static_cast<unsigned long long>(report.tag_runs),
         static_cast<unsigned long long>(report.matcher_configurations));
  const MiningCompleteness& c = report.completeness;
  append("complete=%d stop=%d confirmed=%llu refuted=%llu unknown=%llu\n",
         c.complete ? 1 : 0, static_cast<int>(c.stop),
         static_cast<unsigned long long>(c.confirmed),
         static_cast<unsigned long long>(c.refuted),
         static_cast<unsigned long long>(c.unknown));
  for (const DiscoveredType& solution : report.solutions) {
    out += "sol";
    for (EventTypeId type : solution.assignment) {
      append(" %d", type);
    }
    append(" matched=%zu freq=%.17g\n", solution.matched_roots,
           solution.frequency);
  }
  return out;
}

class CheckpointTest : public testing::Test {
 protected:
  static constexpr int kTypeCount = 6;

  CheckpointTest() {
    unit_ = toy_.AddUniform("unit", 1);
    VariableId x0 = s_.AddVariable("X0");
    VariableId x1 = s_.AddVariable("X1");
    VariableId x2 = s_.AddVariable("X2");
    EXPECT_TRUE(s_.AddConstraint(x0, x1, Tcg::Of(0, 8, unit_)).ok());
    EXPECT_TRUE(s_.AddConstraint(x1, x2, Tcg::Of(0, 8, unit_)).ok());
    std::uint64_t state = 0x51ed2701afe4c9b3ULL;
    TimePoint t = 1;
    for (int i = 0; i < 48; ++i) {
      state = state * 6364136223846793005ULL + 1442695040888963407ULL;
      t += static_cast<TimePoint>((state >> 33) % 2);
      events_.push_back(
          Event{static_cast<EventTypeId>((state >> 13) % kTypeCount), t});
    }
    problem_.structure = &s_;
    problem_.reference_type = 0;
    problem_.min_confidence = 0.05;
    problem_.allowed.assign(3, {});
    problem_.allowed[1] = {0, 1, 2, 3, 4, 5};
    problem_.allowed[2] = {0, 1, 2, 3, 4, 5};
  }

  OnlineMinerOptions Options(Executor* executor = nullptr) const {
    OnlineMinerOptions options;
    options.executor = executor;
    options.retention = 24;  // evictions happen during the run
    return options;
  }

  OnlineMiner MakeStream(Executor* executor = nullptr) {
    Result<OnlineMiner> miner =
        OnlineMiner::Create(&toy_, problem_, Options(executor));
    EXPECT_TRUE(miner.ok()) << miner.status();
    return std::move(*miner);
  }

  GranularitySystem toy_;
  const Granularity* unit_;
  EventStructure s_;
  std::vector<Event> events_;
  DiscoveryProblem problem_;
};

// The acceptance differential: for EVERY checkpoint boundary p, kill the
// session right after its checkpoint (discard the miner — that is what a
// crash does), restore from the file, finish the stream, and compare both
// the final report and the final checkpoint bytes against an uninterrupted
// run. At 1 and 4 threads.
TEST_F(CheckpointTest, KillAtEveryCheckpointThenRestoreIsByteIdentical) {
  for (int threads : {1, 4}) {
    std::unique_ptr<Executor> pool = PoolOf(threads);
    // Uninterrupted reference run.
    OnlineMiner uninterrupted = MakeStream(pool.get());
    for (const Event& event : events_) {
      ASSERT_TRUE(uninterrupted.Ingest(event).ok());
    }
    Result<MiningReport> want_report = uninterrupted.Snapshot();
    ASSERT_TRUE(want_report.ok());
    const std::string want = FormatReport(*want_report);
    const std::vector<std::uint8_t> want_bytes =
        persist::StreamSessionCodec::Encode(uninterrupted);

    const std::string path = TempPath("kill_restore.bin");
    for (std::size_t p = 0; p <= events_.size(); ++p) {
      std::remove(path.c_str());
      {
        OnlineMiner first = MakeStream(pool.get());
        for (std::size_t i = 0; i < p; ++i) {
          ASSERT_TRUE(first.Ingest(events_[i]).ok());
        }
        ASSERT_TRUE(persist::SaveStreamCheckpoint(first, path).ok());
        // `first` dies here: everything after the checkpoint is lost, as in
        // a crash.
      }
      Result<OnlineMiner> restored = persist::RestoreStreamCheckpoint(
          &toy_, problem_, Options(pool.get()), path);
      ASSERT_TRUE(restored.ok())
          << "threads=" << threads << " p=" << p << ": " << restored.status();
      for (std::size_t i = p; i < events_.size(); ++i) {
        ASSERT_TRUE(restored->Ingest(events_[i]).ok());
      }
      Result<MiningReport> got_report = restored->Snapshot();
      ASSERT_TRUE(got_report.ok());
      ASSERT_EQ(want, FormatReport(*got_report))
          << "threads=" << threads << " checkpoint at prefix " << p;
      ASSERT_EQ(want_bytes, persist::StreamSessionCodec::Encode(*restored))
          << "threads=" << threads << " checkpoint at prefix " << p;
    }
    std::remove(path.c_str());
  }
}

// Snapshots taken mid-stream after a restore must also match: restore at
// one boundary, then compare reports at every subsequent prefix against a
// fresh uninterrupted session over the same prefix.
TEST_F(CheckpointTest, RestoredSessionMatchesAtEverySubsequentPrefix) {
  const std::size_t kCheckpointAt = 17;
  const std::string path = TempPath("prefix_differential.bin");
  std::remove(path.c_str());
  {
    OnlineMiner first = MakeStream();
    for (std::size_t i = 0; i < kCheckpointAt; ++i) {
      ASSERT_TRUE(first.Ingest(events_[i]).ok());
    }
    ASSERT_TRUE(persist::SaveStreamCheckpoint(first, path).ok());
  }
  Result<OnlineMiner> restored =
      persist::RestoreStreamCheckpoint(&toy_, problem_, Options(), path);
  ASSERT_TRUE(restored.ok()) << restored.status();
  OnlineMiner fresh = MakeStream();
  for (std::size_t i = 0; i < kCheckpointAt; ++i) {
    ASSERT_TRUE(fresh.Ingest(events_[i]).ok());
  }
  for (std::size_t i = kCheckpointAt; i < events_.size(); ++i) {
    ASSERT_TRUE(restored->Ingest(events_[i]).ok());
    ASSERT_TRUE(fresh.Ingest(events_[i]).ok());
    Result<MiningReport> got = restored->Snapshot();
    Result<MiningReport> want = fresh.Snapshot();
    ASSERT_TRUE(got.ok());
    ASSERT_TRUE(want.ok());
    ASSERT_EQ(FormatReport(*want), FormatReport(*got)) << "prefix " << i + 1;
  }
  std::remove(path.c_str());
}

// Checkpoint bytes are canonical: the same session state encodes to the
// same bytes regardless of thread count (unordered frontier sets are
// serialized in sorted order).
TEST_F(CheckpointTest, CheckpointBytesAreThreadCountInvariant) {
  std::vector<std::uint8_t> serial_bytes;
  for (int threads : {1, 4}) {
    std::unique_ptr<Executor> pool = PoolOf(threads);
    OnlineMiner miner = MakeStream(pool.get());
    for (const Event& event : events_) {
      ASSERT_TRUE(miner.Ingest(event).ok());
    }
    std::vector<std::uint8_t> bytes =
        persist::StreamSessionCodec::Encode(miner);
    if (threads == 1) {
      serial_bytes = std::move(bytes);
    } else {
      EXPECT_EQ(serial_bytes, bytes);
    }
  }
}

// A checkpoint written by an earlier build (tests/golden/
// stream_checkpoint.bin: this fixture's session after 30 arrivals, with a
// tolerance of 3 so the reorder buffer is non-empty) must restore, encode
// back to the very same bytes, and finish the stream exactly like an
// uninterrupted session. This pins the on-disk format across kernel
// rewrites. On a mismatch the bytes this build wrote are left next to the
// other test temporaries.
TEST_F(CheckpointTest, CommittedFixtureRestoresAndReencodesByteIdentically) {
  constexpr std::size_t kFixtureArrivals = 30;
  OnlineMinerOptions options = Options();
  options.tolerance = 3;
  const std::string fixture =
      std::string(GRANMINE_TEST_GOLDEN_DIR) + "/stream_checkpoint.bin";
  const std::string written = TempPath("fixture_reencoded.bin");
  std::remove(written.c_str());

  Result<OnlineMiner> fresh = OnlineMiner::Create(&toy_, problem_, options);
  ASSERT_TRUE(fresh.ok()) << fresh.status();
  for (std::size_t i = 0; i < kFixtureArrivals; ++i) {
    ASSERT_TRUE(fresh->Ingest(events_[i]).ok());
  }
  ASSERT_GT(fresh->resident_configurations(), 0u);
  ASSERT_GT(fresh->buffered_events(), 0u);

  Result<OnlineMiner> restored =
      persist::RestoreStreamCheckpoint(&toy_, problem_, options, fixture);
  if (!restored.ok()) {
    ASSERT_TRUE(persist::SaveStreamCheckpoint(*fresh, written).ok());
    FAIL() << "cannot restore " << fixture << ": " << restored.status()
           << "\nthis build's checkpoint was written to " << written;
  }
  ASSERT_TRUE(persist::SaveStreamCheckpoint(*restored, written).ok());
  const std::vector<std::uint8_t> want = ReadFileBytes(fixture);
  EXPECT_EQ(want, ReadFileBytes(written))
      << "re-encoding the fixture changed its bytes; see " << written;
  // The same arrivals ingested by this build encode to the same bytes too.
  ASSERT_TRUE(persist::SaveStreamCheckpoint(*fresh, written).ok());
  EXPECT_EQ(want, ReadFileBytes(written))
      << "this build checkpoints the fixture's session differently; see "
      << written;

  for (std::size_t i = kFixtureArrivals; i < events_.size(); ++i) {
    ASSERT_TRUE(restored->Ingest(events_[i]).ok());
    ASSERT_TRUE(fresh->Ingest(events_[i]).ok());
  }
  Result<MiningReport> got = restored->Snapshot();
  Result<MiningReport> expected = fresh->Snapshot();
  ASSERT_TRUE(got.ok());
  ASSERT_TRUE(expected.ok());
  EXPECT_EQ(FormatReport(*expected), FormatReport(*got));
}

TEST_F(CheckpointTest, RestoreRefusesMismatchedSessionGeometry) {
  const std::string path = TempPath("geometry.bin");
  std::remove(path.c_str());
  {
    OnlineMiner miner = MakeStream();
    for (int i = 0; i < 10; ++i) {
      ASSERT_TRUE(miner.Ingest(events_[static_cast<std::size_t>(i)]).ok());
    }
    ASSERT_TRUE(persist::SaveStreamCheckpoint(miner, path).ok());
  }
  // Same problem, different tolerance: the fingerprint must refuse.
  OnlineMinerOptions skewed = Options();
  skewed.tolerance = 5;
  Result<OnlineMiner> mismatch =
      persist::RestoreStreamCheckpoint(&toy_, problem_, skewed, path);
  ASSERT_FALSE(mismatch.ok());
  EXPECT_EQ(mismatch.status().code(), StatusCode::kInvalidArgument)
      << mismatch.status();

  // A snapshot that is valid but carries no stream session is also refused.
  const std::string plain = TempPath("plain_snapshot.bin");
  {
    Result<std::unique_ptr<persist::AtomicFileSink>> sink =
        persist::AtomicFileSink::Open(plain);
    ASSERT_TRUE(sink.ok());
    SnapshotWriter writer(sink->get());
    ASSERT_TRUE(writer.WriteHeader().ok());
    ASSERT_TRUE(writer.Finish().ok());
    ASSERT_TRUE((*sink)->Commit().ok());
  }
  Result<OnlineMiner> missing =
      persist::RestoreStreamCheckpoint(&toy_, problem_, Options(), plain);
  ASSERT_FALSE(missing.ok());
  EXPECT_EQ(missing.status().code(), StatusCode::kInvalidArgument);
  std::remove(path.c_str());
  std::remove(plain.c_str());
}

}  // namespace
}  // namespace granmine
