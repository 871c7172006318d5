#ifndef GRANMINE_PERSIST_CRC32C_H_
#define GRANMINE_PERSIST_CRC32C_H_

#include <cstddef>
#include <cstdint>
#include <span>

namespace granmine::persist {

/// CRC-32C (Castagnoli, polynomial 0x1EDC6F41, reflected 0x82F63B78) — the
/// checksum of the shared frame codec (framing.h), which stamps every
/// snapshot section and every RPC wire frame with it. Software
/// slice-by-one implementation, portable but bytewise: payloads run from
/// empty frames to multi-megabyte frozen-system images and 16 MiB wire
/// frames, and no gated workload shows the checksum yet (slicing-by-8 is an
/// open ROADMAP item). Detects all single-bit and all burst errors up to
/// 32 bits, which the snapshot fuzz suite leans on.
///
/// `Extend(crc, data)` continues a running checksum (start from
/// `kCrc32cInit`, i.e. 0); `Crc32c(data)` is the one-shot form.
inline constexpr std::uint32_t kCrc32cInit = 0;

std::uint32_t ExtendCrc32c(std::uint32_t crc,
                           std::span<const std::uint8_t> data);

inline std::uint32_t Crc32c(std::span<const std::uint8_t> data) {
  return ExtendCrc32c(kCrc32cInit, data);
}

}  // namespace granmine::persist

#endif  // GRANMINE_PERSIST_CRC32C_H_
