#include "granmine/persist/snapshot.h"

#include <algorithm>
#include <cstring>
#include <limits>

#include "granmine/obs/obs.h"
#include "granmine/persist/framing.h"

namespace granmine::persist {

namespace {

constexpr std::size_t kHeaderBytes = 8 + 4 + 4;
/// A section frame: u32 type | u32 reserved, then the shared length + CRC.
constexpr FrameLayout kSectionLayout{8, "snapshot section"};
constexpr std::size_t kFrameBytes = kSectionLayout.header_size();
/// Truncated-input reads grow the payload buffer in bounded slices so a
/// bit-flipped length field can never trigger one huge allocation before the
/// missing bytes are noticed.
constexpr std::size_t kReadChunk = std::size_t{1} << 20;

/// Charges `bytes` of checkpoint I/O against the governor as steps (one per
/// kGovernedBytesPerStep, accumulated so small sections still add up).
/// Returns the refusal cause, kNone to continue.
StopCause ChargeIo(GovernorTicket* ticket, std::uint64_t* charged,
                   std::uint64_t bytes) {
  *charged += bytes;
  while (*charged >= kGovernedBytesPerStep) {
    *charged -= kGovernedBytesPerStep;
    if (StopCause cause = ticket->Charge(*charged); cause != StopCause::kNone) {
      return cause;
    }
  }
  return StopCause::kNone;
}

}  // namespace

// ---------------------------------------------------------------------------
// SnapshotWriter

SnapshotWriter::SnapshotWriter(ByteSink* sink, SnapshotIoOptions options)
    : sink_(sink),
      options_(options),
      ticket_(options.governor, GovernorScope::kGeneral) {}

Status SnapshotWriter::WriteHeader() {
  if (header_written_) {
    return Status::Internal("snapshot header already written");
  }
  std::uint8_t header[kHeaderBytes] = {};  // the trailing u32 is reserved
  std::memcpy(header, kSnapshotMagic, sizeof(kSnapshotMagic));
  StoreLe<std::uint32_t>(header + 8, kSnapshotFormatVersion);
  GM_RETURN_NOT_OK(sink_->Append(header));
  header_written_ = true;
  return Status::OK();
}

Status SnapshotWriter::WriteSection(SectionType type,
                                    std::span<const std::uint8_t> payload) {
  if (!header_written_ || finished_) {
    return Status::Internal("snapshot section written outside header/finish");
  }
  GM_TRACE_SPAN("persist_write_section");
  if (StopCause cause =
          ChargeIo(&ticket_, &charged_bytes_, kFrameBytes + payload.size());
      cause != StopCause::kNone) {
    return StopCauseToStatus(cause, "snapshot write");
  }
  std::uint8_t fields[kSectionLayout.field_bytes] = {};  // type | reserved
  StoreLe<std::uint32_t>(fields, static_cast<std::uint32_t>(type));
  std::vector<std::uint8_t> frame;
  kSectionLayout.AppendHeader(fields, payload, &frame);
  GM_RETURN_NOT_OK(sink_->Append(frame));
  GM_RETURN_NOT_OK(sink_->Append(payload));
  ++sections_written_;
  GM_COUNTER_ADD("granmine_persist_sections_written_total", "", 1);
  GM_COUNTER_ADD("granmine_persist_bytes_written_total", "",
                 kFrameBytes + payload.size());
  return Status::OK();
}

Status SnapshotWriter::Finish() {
  GM_RETURN_NOT_OK(WriteSection(SectionType::kEnd, {}));
  --sections_written_;  // the trailer is framing, not content
  finished_ = true;
  return Status::OK();
}

// ---------------------------------------------------------------------------
// SnapshotReader

SnapshotReader::SnapshotReader(ByteSource* source, SnapshotIoOptions options)
    : source_(source),
      options_(options),
      ticket_(options.governor, GovernorScope::kGeneral) {}

Status SnapshotReader::ReadExact(std::span<std::uint8_t> out,
                                 const char* what) {
  std::size_t total = 0;
  while (total < out.size()) {
    std::size_t n = 0;
    GM_RETURN_NOT_OK(source_->Read(out.subspan(total), &n));
    if (n == 0) {
      return Status::Invalid(
          "snapshot truncated reading " + std::string(what) +
          " at byte offset " + std::to_string(source_->offset()));
    }
    total += n;
  }
  return Status::OK();
}

Status SnapshotReader::ReadHeader() {
  if (header_read_) return Status::Internal("snapshot header already read");
  std::uint8_t header[kHeaderBytes];
  GM_RETURN_NOT_OK(ReadExact(header, "header"));
  if (std::memcmp(header, kSnapshotMagic, sizeof(kSnapshotMagic)) != 0) {
    return Status::Invalid(
        "not a granmine snapshot (bad magic at byte offset 0)");
  }
  format_version_ = LoadLe<std::uint32_t>(header + 8);
  if (format_version_ != kSnapshotFormatVersion) {
    return Status::Unsupported(
        "snapshot format version " + std::to_string(format_version_) +
        " is not supported (this build reads version " +
        std::to_string(kSnapshotFormatVersion) + ")");
  }
  header_read_ = true;
  return Status::OK();
}

Result<Section> SnapshotReader::Next() {
  if (!header_read_) return Status::Internal("snapshot header not read");
  if (done_) return Status::Internal("snapshot already fully read");
  GM_TRACE_SPAN("persist_read_section");
  const std::uint64_t frame_offset = source_->offset();
  std::uint8_t frame[kFrameBytes];
  GM_RETURN_NOT_OK(ReadExact(frame, "section frame"));
  // No length bound here: the memory charge below refuses an implausible
  // length instead, and the chunked read finds a truncated one.
  GM_ASSIGN_OR_RETURN(
      const std::uint64_t length,
      kSectionLayout.PayloadLength(
          frame, std::numeric_limits<std::uint64_t>::max(), frame_offset));

  Section section;
  section.type = static_cast<SectionType>(LoadLe<std::uint32_t>(frame));
  section.payload_offset = source_->offset();
  if (StopCause cause = ChargeIo(&ticket_, &charged_bytes_, kFrameBytes);
      cause != StopCause::kNone) {
    return StopCauseToStatus(cause, "snapshot read");
  }
  if (options_.governor != nullptr && length > 0) {
    // A corrupted length can demand gigabytes; charge it against the memory
    // budget *before* the buffer grows so the refusal is a clean Status.
    if (StopCause cause = options_.governor->ChargeMemory(
            GovernorScope::kGeneral, charged_bytes_, length);
        cause != StopCause::kNone) {
      return StopCauseToStatus(cause, "snapshot section buffer");
    }
  }
  // The length field is untrusted until the CRC passes, so I/O is charged
  // chunk by chunk as bytes actually arrive — never upfront from `length`,
  // which a bit flip can inflate to exabytes.
  Status read_status = Status::OK();
  std::uint64_t remaining = length;
  while (remaining > 0) {
    const std::size_t chunk =
        static_cast<std::size_t>(std::min<std::uint64_t>(remaining, kReadChunk));
    if (StopCause cause = ChargeIo(&ticket_, &charged_bytes_, chunk);
        cause != StopCause::kNone) {
      read_status = StopCauseToStatus(cause, "snapshot read");
      break;
    }
    const std::size_t old = section.payload.size();
    section.payload.resize(old + chunk);
    read_status = ReadExact(
        std::span<std::uint8_t>(section.payload).subspan(old), "section payload");
    if (!read_status.ok()) break;
    remaining -= chunk;
  }
  if (options_.governor != nullptr && length > 0) {
    options_.governor->ReleaseMemory(length);
  }
  GM_RETURN_NOT_OK(read_status);

  GM_RETURN_NOT_OK(
      kSectionLayout.CheckCrc(frame, section.payload, frame_offset));
  if (section.type == SectionType::kEnd) {
    if (!section.payload.empty()) {
      return Status::Invalid("snapshot trailer carries payload at byte offset " +
                             std::to_string(section.payload_offset));
    }
    done_ = true;
  }
  GM_COUNTER_ADD("granmine_persist_sections_read_total", "", 1);
  GM_COUNTER_ADD("granmine_persist_bytes_read_total", "",
                 kFrameBytes + length);
  return section;
}

Result<std::vector<Section>> ReadAllSections(ByteSource* source,
                                             SnapshotIoOptions options) {
  SnapshotReader reader(source, options);
  GM_RETURN_NOT_OK(reader.ReadHeader());
  std::vector<Section> sections;
  while (!reader.done()) {
    GM_ASSIGN_OR_RETURN(Section section, reader.Next());
    if (section.type != SectionType::kEnd) {
      sections.push_back(std::move(section));
    }
  }
  return sections;
}

// ---------------------------------------------------------------------------
// Encoder / Decoder

void Encoder::PutString(std::string_view s) {
  PutU32(static_cast<std::uint32_t>(s.size()));
  buffer_.insert(buffer_.end(), s.begin(), s.end());
}

Status Decoder::Corrupt(const std::string& detail) const {
  return Status::Invalid(std::string(container_) + ": " + detail +
                         " at byte offset " + std::to_string(offset()));
}

Status Decoder::GetString(const char* field, std::string* out) {
  std::uint32_t length = 0;
  GM_RETURN_NOT_OK(GetU32(field, &length));
  if (remaining() < length) {
    return Corrupt("truncated reading " + std::string(field) + " (" +
                   std::to_string(length) + " bytes declared, " +
                   std::to_string(remaining()) + " available)");
  }
  out->assign(reinterpret_cast<const char*>(data_.data() + pos_), length);
  pos_ += length;
  return Status::OK();
}

Status Decoder::ExpectEnd(const char* what) const {
  if (remaining() != 0) {
    return Corrupt(std::to_string(remaining()) + " trailing byte(s) after " +
                   std::string(what));
  }
  return Status::OK();
}

}  // namespace granmine::persist
