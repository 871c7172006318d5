#ifndef GRANMINE_PERSIST_BYTES_H_
#define GRANMINE_PERSIST_BYTES_H_

#include <algorithm>
#include <cstddef>
#include <cstdint>
#include <cstdio>
#include <memory>
#include <span>
#include <string>
#include <vector>

#include "granmine/common/result.h"
#include "granmine/common/status.h"

namespace granmine::persist {

/// Destination of snapshot bytes. Implementations report failures through
/// Status (never exceptions) and track the running offset so framing errors
/// can name the exact byte position.
class ByteSink {
 public:
  virtual ~ByteSink() = default;

  /// Appends `data` verbatim. On failure the sink is dead: further appends
  /// may fail and the consumer must discard the output.
  virtual Status Append(std::span<const std::uint8_t> data) = 0;

  /// Bytes successfully appended so far.
  std::uint64_t bytes_written() const { return bytes_written_; }

 protected:
  std::uint64_t bytes_written_ = 0;
};

/// Source of snapshot bytes. `Read` is *best effort*: it returns the number
/// of bytes actually delivered (short reads signal end of input, not an
/// error), so a truncated file surfaces as a decode-layer Status with offset
/// context instead of an I/O failure.
class ByteSource {
 public:
  virtual ~ByteSource() = default;

  /// Reads up to `out.size()` bytes into `out`; sets `*read` to the count
  /// delivered (0 at end of input). A non-OK Status is an environmental I/O
  /// failure, not truncation.
  virtual Status Read(std::span<std::uint8_t> out, std::size_t* read) = 0;

  /// Bytes consumed so far — the offset of the next unread byte.
  std::uint64_t offset() const { return offset_; }

 protected:
  std::uint64_t offset_ = 0;
};

/// In-memory sink appending to an owned buffer.
class VectorSink : public ByteSink {
 public:
  Status Append(std::span<const std::uint8_t> data) override {
    buffer_.insert(buffer_.end(), data.begin(), data.end());
    bytes_written_ += data.size();
    return Status::OK();
  }

  const std::vector<std::uint8_t>& buffer() const { return buffer_; }
  std::vector<std::uint8_t> TakeBuffer() { return std::move(buffer_); }

 private:
  std::vector<std::uint8_t> buffer_;
};

/// In-memory source over a borrowed span (must outlive the source).
class SpanSource : public ByteSource {
 public:
  explicit SpanSource(std::span<const std::uint8_t> data) : data_(data) {}

  Status Read(std::span<std::uint8_t> out, std::size_t* read) override {
    const std::size_t n =
        std::min(out.size(), data_.size() - static_cast<std::size_t>(offset_));
    std::copy_n(data_.begin() + static_cast<std::ptrdiff_t>(offset_), n,
                out.begin());
    offset_ += n;
    *read = n;
    return Status::OK();
  }

 private:
  std::span<const std::uint8_t> data_;
};

/// Buffered stdio file source.
class FileSource : public ByteSource {
 public:
  /// NotFound when the file cannot be opened for reading.
  static Result<std::unique_ptr<FileSource>> Open(const std::string& path);

  ~FileSource() override;
  Status Read(std::span<std::uint8_t> out, std::size_t* read) override;

 private:
  FileSource(std::FILE* file, std::string path)
      : file_(file), path_(std::move(path)) {}

  std::FILE* file_;
  std::string path_;
};

/// Crash-safe file sink: bytes accumulate in `path + ".tmp"` and only an
/// explicit, fully flushed `Commit()` renames the temp file over `path` —
/// the POSIX atomic-replace idiom, so a reader of `path` sees either the
/// previous complete snapshot or the new complete snapshot, never a torn
/// write. Destruction without Commit unlinks the temp file (abandoned
/// checkpoint, e.g. a governor refusal mid-write).
class AtomicFileSink : public ByteSink {
 public:
  /// Fails (Internal) when the temp file cannot be created.
  static Result<std::unique_ptr<AtomicFileSink>> Open(const std::string& path);

  ~AtomicFileSink() override;

  Status Append(std::span<const std::uint8_t> data) override;

  /// Flushes and atomically renames the temp file onto the target path.
  /// After Commit the sink is closed; further appends fail.
  Status Commit();

 private:
  AtomicFileSink(std::FILE* file, std::string path, std::string temp_path)
      : file_(file), path_(std::move(path)), temp_path_(std::move(temp_path)) {}

  std::FILE* file_;
  std::string path_;
  std::string temp_path_;
  bool committed_ = false;
};

}  // namespace granmine::persist

#endif  // GRANMINE_PERSIST_BYTES_H_
