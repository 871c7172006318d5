#ifndef GRANMINE_PERSIST_SNAPSHOT_H_
#define GRANMINE_PERSIST_SNAPSHOT_H_

#include <cstdint>
#include <span>
#include <string>
#include <type_traits>
#include <vector>

#include "granmine/common/governor.h"
#include "granmine/common/result.h"
#include "granmine/common/status.h"
#include "granmine/persist/bytes.h"
#include "granmine/persist/framing.h"

namespace granmine::persist {

/// The versioned, section-framed binary snapshot container
/// (docs/persistence.md). Layout, all integers little-endian fixed-width:
///
///   header:   8-byte magic "GMSNAP01" | u32 format version | u32 reserved
///   section*: u32 type | u32 reserved | u64 payload length
///             | u32 crc32c(frame fields + payload) | payload bytes
///   trailer:  one section of type kEnd with empty payload
///
/// Sections are frames of the shared codec in framing.h.
///
/// Readers skip sections whose type they do not know (the length makes every
/// frame forward-skippable), so old binaries read new snapshots; a format
/// *version* bump is reserved for changes that break the framing itself and
/// decodes to Unsupported. The CRC covers the frame fields too, so a bit
/// flip in a length can never walk the reader silently into garbage. The
/// kEnd trailer distinguishes clean end-of-snapshot from a file truncated
/// between sections.
///
/// Decode failures are three-valued by Status code (never a crash):
///   - kInvalidArgument: definitely corrupt (truncated / bit-flipped /
///     malformed), message carries the absolute byte offset;
///   - kUnsupported: well-formed but from an incompatible format version;
///   - other codes (kResourceExhausted, kCancelled, kInternal): the
///     *environment* failed — budget refusal or I/O — the bytes themselves
///     were not judged.
inline constexpr std::uint8_t kSnapshotMagic[8] = {'G', 'M', 'S', 'N',
                                                   'A', 'P', '0', '1'};
inline constexpr std::uint32_t kSnapshotFormatVersion = 1;

/// Section payload types. Values are wire format — append, never renumber.
enum class SectionType : std::uint32_t {
  kEnd = 0,                ///< trailer; empty payload
  kFrozenSystemImage = 1,  ///< sealed granularity tables + coverage matrix
  kEventSequence = 2,      ///< a batch event sequence
  kStreamSession = 3,      ///< full OnlineMiner dynamic state
  kMeta = 4,               ///< free-form producer string (skippable)
};

/// Governor/accounting knobs shared by snapshot writers and readers.
/// Checkpoint I/O is governed like any other computation: bytes are charged
/// as steps (one per kGovernedBytesPerStep), payload buffers as memory, and
/// a refusal surfaces the StopCause as a Status — cancellable mid-write,
/// with the atomic sink guaranteeing no partial file escapes.
struct SnapshotIoOptions {
  const ResourceGovernor* governor = nullptr;
};

/// Bytes of section payload charged as one governor step.
inline constexpr std::uint64_t kGovernedBytesPerStep = 4096;

/// Streams the container format to a sink: `WriteHeader`, any number of
/// `WriteSection`, then `Finish` (which emits the kEnd trailer). Not
/// thread-safe; one writer per sink.
class SnapshotWriter {
 public:
  explicit SnapshotWriter(ByteSink* sink, SnapshotIoOptions options = {});

  Status WriteHeader();
  Status WriteSection(SectionType type, std::span<const std::uint8_t> payload);
  Status Finish();

  std::uint64_t sections_written() const { return sections_written_; }

 private:
  ByteSink* sink_;
  SnapshotIoOptions options_;
  GovernorTicket ticket_;
  std::uint64_t charged_bytes_ = 0;
  std::uint64_t sections_written_ = 0;
  bool header_written_ = false;
  bool finished_ = false;
};

/// One decoded section: its payload plus the absolute offset of the
/// payload's first byte, so section codecs can report error positions in
/// file coordinates.
struct Section {
  SectionType type = SectionType::kEnd;
  std::uint64_t payload_offset = 0;
  std::vector<std::uint8_t> payload;
};

/// Pull-reader over the container: `ReadHeader` validates magic + version,
/// then `Next` yields sections until the kEnd trailer (`Next` returns a
/// section with type kEnd and `done()` flips). Unknown section types are
/// surfaced to the caller, who may ignore them — the reader has already
/// CRC-verified and consumed the frame.
class SnapshotReader {
 public:
  explicit SnapshotReader(ByteSource* source, SnapshotIoOptions options = {});

  Status ReadHeader();
  /// Reads the next CRC-verified section. After the kEnd trailer `done()`
  /// is true and further calls fail.
  Result<Section> Next();

  bool done() const { return done_; }
  std::uint32_t format_version() const { return format_version_; }

 private:
  /// Reads exactly `out.size()` bytes or fails with a truncation Status
  /// naming `what` and the offset where input ran out.
  Status ReadExact(std::span<std::uint8_t> out, const char* what);

  ByteSource* source_;
  SnapshotIoOptions options_;
  GovernorTicket ticket_;
  std::uint64_t charged_bytes_ = 0;
  std::uint32_t format_version_ = 0;
  bool header_read_ = false;
  bool done_ = false;
};

/// Convenience: reads the header and every section into memory. Sections
/// appear in file order, trailer excluded.
Result<std::vector<Section>> ReadAllSections(ByteSource* source,
                                             SnapshotIoOptions options = {});

/// Little-endian payload builder used by the section codecs. Append-only;
/// the buffer is handed to SnapshotWriter::WriteSection.
class Encoder {
 public:
  void PutU8(std::uint8_t v) { buffer_.push_back(v); }
  void PutU32(std::uint32_t v) { PutLe(v); }
  void PutU64(std::uint64_t v) { PutLe(v); }
  void PutI64(std::int64_t v) { PutU64(static_cast<std::uint64_t>(v)); }
  void PutI32(std::int32_t v) { PutU32(static_cast<std::uint32_t>(v)); }
  /// u32 length prefix + raw bytes.
  void PutString(std::string_view s);

  const std::vector<std::uint8_t>& buffer() const { return buffer_; }
  std::span<const std::uint8_t> view() const { return buffer_; }
  std::size_t size() const { return buffer_.size(); }

 private:
  template <typename T>
  void PutLe(T v) {
    buffer_.resize(buffer_.size() + sizeof(T));
    StoreLe<T>(buffer_.data() + buffer_.size() - sizeof(T), v);
  }

  std::vector<std::uint8_t> buffer_;
};

/// Bounds-checked little-endian payload reader. Every getter takes the
/// field name it is decoding; on exhausted input the Status names the
/// container, the field and the *absolute* byte offset (payload base +
/// local position), so a truncated or bit-flipped snapshot — or a malformed
/// wire frame payload — pinpoints where decoding died.
class Decoder {
 public:
  Decoder(std::span<const std::uint8_t> data, std::uint64_t base_offset,
          const char* container = "snapshot")
      : data_(data), base_offset_(base_offset), container_(container) {}

  Status GetU8(const char* field, std::uint8_t* out) {
    return GetLe(field, out);
  }
  Status GetU32(const char* field, std::uint32_t* out) {
    return GetLe(field, out);
  }
  Status GetU64(const char* field, std::uint64_t* out) {
    return GetLe(field, out);
  }
  Status GetI64(const char* field, std::int64_t* out) {
    return GetLe(field, out);
  }
  Status GetI32(const char* field, std::int32_t* out) {
    return GetLe(field, out);
  }
  Status GetString(const char* field, std::string* out);

  /// Fails unless every payload byte has been consumed — trailing garbage
  /// inside a CRC-valid section still means a codec/format mismatch.
  Status ExpectEnd(const char* what) const;

  std::size_t remaining() const { return data_.size() - pos_; }
  /// Absolute offset of the next unread byte.
  std::uint64_t offset() const { return base_offset_ + pos_; }

  /// The truncation Status getters fail with, exposed for codecs that do
  /// their own structural validation.
  Status Corrupt(const std::string& detail) const;

 private:
  template <typename T>
  Status GetLe(const char* field, T* out) {
    if (remaining() < sizeof(T)) {
      return Corrupt("truncated reading " + std::string(field));
    }
    *out = static_cast<T>(
        LoadLe<std::make_unsigned_t<T>>(data_.data() + pos_));
    pos_ += sizeof(T);
    return Status::OK();
  }

  std::span<const std::uint8_t> data_;
  std::uint64_t base_offset_;
  const char* container_;
  std::size_t pos_ = 0;
};

}  // namespace granmine::persist

#endif  // GRANMINE_PERSIST_SNAPSHOT_H_
