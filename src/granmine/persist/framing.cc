#include "granmine/persist/framing.h"

#include <algorithm>
#include <string>

#include "granmine/common/check.h"
#include "granmine/persist/crc32c.h"

namespace granmine::persist {

void FrameLayout::AppendHeader(std::span<const std::uint8_t> fields,
                               std::span<const std::uint8_t> payload,
                               std::vector<std::uint8_t>* out) const {
  GM_CHECK(fields.size() == field_bytes);
  out->resize(out->size() + header_size());
  std::uint8_t* header = out->data() + out->size() - header_size();
  std::copy(fields.begin(), fields.end(), header);
  StoreLe<std::uint64_t>(header + field_bytes, payload.size());
  // The CRC covers every header byte before it, then the payload.
  const std::uint32_t crc = ExtendCrc32c(
      ExtendCrc32c(kCrc32cInit, {header, field_bytes + 8}), payload);
  StoreLe<std::uint32_t>(header + field_bytes + 8, crc);
}

Result<std::uint64_t> FrameLayout::PayloadLength(
    std::span<const std::uint8_t> header, std::uint64_t max_payload,
    std::uint64_t offset) const {
  GM_CHECK(header.size() >= header_size());
  const std::uint64_t length = LoadLe<std::uint64_t>(&header[field_bytes]);
  if (length > max_payload) {
    return Status::Invalid(std::string(what) + " at byte offset " +
                           std::to_string(offset) + ": payload length " +
                           std::to_string(length) + " exceeds the " +
                           std::to_string(max_payload) + "-byte bound");
  }
  return length;
}

Status FrameLayout::CheckCrc(std::span<const std::uint8_t> header,
                             std::span<const std::uint8_t> payload,
                             std::uint64_t offset) const {
  GM_CHECK(header.size() >= header_size());
  const std::uint32_t stored = LoadLe<std::uint32_t>(&header[field_bytes + 8]);
  const std::uint32_t computed = ExtendCrc32c(
      ExtendCrc32c(kCrc32cInit, header.first(field_bytes + 8)), payload);
  if (stored == computed) return Status::OK();
  return Status::Invalid(std::string(what) + " at byte offset " +
                         std::to_string(offset) + ": CRC mismatch (stored " +
                         std::to_string(stored) + ", computed " +
                         std::to_string(computed) + ", payload length " +
                         std::to_string(payload.size()) + ")");
}

void ByteQueue::Consume(std::size_t n) {
  GM_CHECK(n <= size());
  head_ += n;
  if (2 * head_ >= bytes_.size()) {
    bytes_.erase(bytes_.begin(),
                 bytes_.begin() + static_cast<std::ptrdiff_t>(head_));
    head_ = 0;
  }
}

}  // namespace granmine::persist
