#ifndef GRANMINE_PERSIST_FRAMING_H_
#define GRANMINE_PERSIST_FRAMING_H_

// The one CRC32C frame codec behind both byte formats granmine speaks: the
// RPC wire (src/granmine/server/wire.h, docs/serving.md) and the snapshot
// container (snapshot.h, docs/persistence.md). Every frame is
//
//   fixed fields | u64 payload length | u32 CRC32C | payload
//
// with all integers little-endian and the CRC covering every header byte
// before it plus the payload, so a flipped type or length is caught before
// the reader trusts either. The formats differ only in their fixed fields:
// the wire carries type|flags|corr (16 bytes, a 28-byte header), a snapshot
// section type|reserved (8 bytes, a 20-byte header). This module also owns
// the little-endian load/store helpers every byte format uses and the
// ByteQueue that wire frames travel through.

#include <cstddef>
#include <cstdint>
#include <span>
#include <type_traits>
#include <vector>

#include "granmine/common/result.h"

namespace granmine::persist {

/// Little-endian fixed-width integers; name the width: StoreLe<uint32_t>.
template <typename T>
void StoreLe(std::uint8_t* out, std::type_identity_t<T> v) {
  static_assert(std::is_unsigned_v<T>);
  for (std::size_t i = 0; i < sizeof(T); ++i) {
    out[i] = static_cast<std::uint8_t>(v >> (8 * i));
  }
}

template <typename T>
T LoadLe(const std::uint8_t* in) {
  static_assert(std::is_unsigned_v<T>);
  T v = 0;
  for (std::size_t i = 0; i < sizeof(T); ++i) v |= T{in[i]} << (8 * i);
  return v;
}

/// One frame format: `field_bytes` of fixed fields before the payload
/// length, and what a frame is called in error messages.
struct FrameLayout {
  std::size_t field_bytes;
  const char* what;

  constexpr std::size_t header_size() const { return field_bytes + 12; }

  /// Appends the header of a frame carrying `payload` to `out`: `fields`
  /// (exactly field_bytes of them), the payload length, then the CRC. The
  /// payload bytes are the caller's to write next.
  void AppendHeader(std::span<const std::uint8_t> fields,
                    std::span<const std::uint8_t> payload,
                    std::vector<std::uint8_t>* out) const;

  /// The payload length `header` announces. A length above `max_payload`
  /// is an error naming the frame's stream `offset`, decided on the header
  /// alone — a desynchronized or bit-flipped length is never an allocation
  /// request.
  Result<std::uint64_t> PayloadLength(std::span<const std::uint8_t> header,
                                      std::uint64_t max_payload,
                                      std::uint64_t offset) const;

  /// Checks the CRC stored in `header` against its fields and `payload`; a
  /// mismatch names the frame's stream `offset`.
  Status CheckCrc(std::span<const std::uint8_t> header,
                  std::span<const std::uint8_t> payload,
                  std::uint64_t offset) const;
};

/// A FIFO of bytes in one contiguous buffer: spans are appended at the back,
/// read as one span from the front and consumed as a prefix. The consumed
/// prefix is compacted away once it is at least half the buffer, so every
/// byte moves amortised O(1) times.
class ByteQueue {
 public:
  void Append(std::span<const std::uint8_t> bytes) {
    bytes_.insert(bytes_.end(), bytes.begin(), bytes.end());
  }
  std::span<const std::uint8_t> view() const {
    return std::span<const std::uint8_t>(bytes_).subspan(head_);
  }
  std::size_t size() const { return bytes_.size() - head_; }
  bool empty() const { return size() == 0; }
  /// Drops the first `n` (<= size()) bytes.
  void Consume(std::size_t n);

 private:
  std::vector<std::uint8_t> bytes_;
  std::size_t head_ = 0;
};

}  // namespace granmine::persist

#endif  // GRANMINE_PERSIST_FRAMING_H_
