#ifndef GRANMINE_SERVER_WIRE_H_
#define GRANMINE_SERVER_WIRE_H_

// The granmine RPC wire format (docs/serving.md): a 12-byte connection
// preamble followed by length-prefixed, CRC-checked frames. The frames are
// the persist layer's one frame codec (persist/framing.h) and the payloads
// its little-endian Encoder/Decoder (docs/persistence.md). The format is
// deliberately snapshot-shaped — magic + u32 version up front, a CRC32C
// over every frame, unknown frame types skippable by construction — so the
// forward-compatibility rules operators already know from snapshots apply
// on the wire too.

#include <cstdint>
#include <optional>
#include <span>
#include <string>
#include <vector>

#include "granmine/common/result.h"
#include "granmine/persist/framing.h"
#include "granmine/persist/snapshot.h"

namespace granmine::server {

/// Connection preamble: 8 magic bytes + u32 wire version, sent by both
/// sides immediately after connect. "GMRPC01\0" — the trailing NUL pads the
/// magic to 8 bytes, mirroring the snapshot magic convention.
inline constexpr std::size_t kMagicSize = 8;
inline constexpr char kWireMagic[kMagicSize + 1] = "GMRPC01\0";
inline constexpr std::uint32_t kWireVersion = 1;
inline constexpr std::size_t kPreambleSize = kMagicSize + 4;

/// Frame header: u32 type | u32 flags | u64 correlation id | u64 payload
/// length | u32 CRC32C over the first 24 header bytes plus the payload.
inline constexpr persist::FrameLayout kFrameLayout{16, "frame"};
inline constexpr std::size_t kFrameHeaderSize = kFrameLayout.header_size();

/// Plausibility bound on a single frame payload. A header announcing more
/// is a protocol error (likely stream desync), not an allocation request.
inline constexpr std::uint64_t kMaxPayloadBytes = 16ull * 1024 * 1024;

/// Frame types. Append-only: values are wire contract, never renumbered.
/// Requests live below 64, replies at 64 and above; a receiver that does
/// not know a type CRC-checks and skips the frame (responding kErrorReply
/// kUnsupported if it is a server), so new types degrade gracefully.
enum class FrameType : std::uint32_t {
  // Requests (client -> server).
  kMine = 1,
  kCheck = 2,
  kDot = 3,
  kStatusz = 4,
  kStreamOpen = 5,
  kStreamIngest = 6,
  kStreamSeal = 7,
  kPing = 8,
  // Replies (server -> client).
  kReply = 64,
  kErrorReply = 65,
  kStreamAck = 66,
  kPong = 67,
};

/// One decoded frame: CRC-verified, payload materialized.
struct Frame {
  FrameType type = FrameType::kPing;
  std::uint32_t flags = 0;
  std::uint64_t corr_id = 0;
  std::vector<std::uint8_t> payload;
};

/// Appends the 12-byte preamble to `out`.
void AppendPreamble(std::vector<std::uint8_t>* out);

/// Validates a peer's preamble bytes (exactly kPreambleSize of them).
Status CheckPreamble(std::span<const std::uint8_t> bytes);

/// Appends one complete frame (header + payload, CRC stamped) to `out`.
void AppendFrame(std::vector<std::uint8_t>* out, FrameType type,
                 std::uint64_t corr_id, std::span<const std::uint8_t> payload);

/// Incremental frame parser over a connection's receive buffer. Bytes are
/// fed in whatever fragments the transport delivers (down to one byte at a
/// time); `Next()` yields a frame exactly when a complete, CRC-valid one is
/// buffered. Any error (oversized length, CRC mismatch) is a protocol
/// error: the stream offset is unrecoverable and the connection must be
/// torn down.
class FrameParser {
 public:
  explicit FrameParser(std::uint64_t max_payload = kMaxPayloadBytes)
      : max_payload_(max_payload) {}

  void Feed(std::span<const std::uint8_t> bytes) { buffer_.Append(bytes); }

  /// One complete frame if buffered, std::nullopt if more bytes are needed,
  /// or a Status naming the absolute stream offset of the corruption.
  Result<std::optional<Frame>> Next();

  /// Bytes buffered but not yet consumed as frames.
  std::size_t buffered() const { return buffer_.size(); }
  /// Absolute offset of the next frame boundary in the byte stream.
  std::uint64_t consumed() const { return consumed_; }

 private:
  persist::ByteQueue buffer_;
  std::uint64_t max_payload_;
  std::uint64_t consumed_ = 0;
};

// --- Payload codecs ------------------------------------------------------
//
// Payloads reuse persist::Encoder / persist::Decoder: little-endian
// fixed-width integers and u32-length-prefixed strings. Every decoder ends
// with ExpectEnd, so trailing garbage inside a CRC-valid frame is still a
// codec mismatch with a byte offset; decode errors name the "frame payload"
// and the offset within it.

/// One `mine` request, carried by value: the server reads no files, the
/// client ships the structure / event texts. String knobs that the CLI
/// validates ("confidence", "on-budget", …) travel as the raw flag text and
/// are validated server-side with the same error messages, so a bad value
/// round-trips the exact granmine_cli diagnostic.
struct MineCall {
  std::string structure_text;
  std::string events_text;
  std::string reference;
  std::string confidence;  ///< empty = the 0.5 default
  std::string on_budget;   ///< empty = policy unset
  std::vector<std::string> pins;
  bool naive = false;
  bool explain = false;
  /// CLI parity: a deadline without an explicit --on-budget degrades to a
  /// partial report instead of failing the run.
  bool default_partial = false;
};

struct CheckCall {
  std::string structure_text;
  bool exact = false;
};

struct DotCall {
  std::string structure_text;
  bool tag = false;
};

struct StreamOpenCall {
  std::string structure_text;
  std::string reference;
  std::string window;     ///< raw flag text, validated server-side
  std::string slide;
  std::string theta;      ///< empty = the 0.5 default
  std::string types;      ///< comma-separated shared pool; empty = none
  std::string tolerance;  ///< empty = unset
  std::vector<std::string> pins;
};

std::vector<std::uint8_t> EncodeMineCall(const MineCall& call);
Status DecodeMineCall(std::span<const std::uint8_t> payload, MineCall* out);

std::vector<std::uint8_t> EncodeCheckCall(const CheckCall& call);
Status DecodeCheckCall(std::span<const std::uint8_t> payload, CheckCall* out);

std::vector<std::uint8_t> EncodeDotCall(const DotCall& call);
Status DecodeDotCall(std::span<const std::uint8_t> payload, DotCall* out);

std::vector<std::uint8_t> EncodeStreamOpenCall(const StreamOpenCall& call);
Status DecodeStreamOpenCall(std::span<const std::uint8_t> payload,
                            StreamOpenCall* out);

/// kStreamIngest payload: raw event-file lines, no envelope.
std::vector<std::uint8_t> EncodeIngestChunk(std::string_view lines);

/// kReply payload: the subcommand's exit code plus its exact stdout /
/// stderr / stats bytes (docs/serving.md, "Reply"). `out` is byte-identical
/// to what granmine_cli would have printed for the same request.
struct ReplyBody {
  std::int32_t exit_code = 0;
  std::string out;
  std::string err;
  std::string diag;
};

std::vector<std::uint8_t> EncodeReply(const ReplyBody& reply);
Status DecodeReply(std::span<const std::uint8_t> payload, ReplyBody* out);

/// kErrorReply payload: a serving-layer error (admission shed, protocol
/// violation, unknown frame type) — distinct from an application error,
/// which travels as a kReply with a non-zero exit code.
struct ErrorBody {
  std::uint32_t status_code = 0;  ///< StatusCode numeric value
  bool retryable = false;         ///< re-submit after backoff_ms is safe
  bool fatal = false;             ///< server closes the connection after this
  std::uint64_t backoff_ms = 0;   ///< suggested retry delay (retryable only)
  std::string message;
};

std::vector<std::uint8_t> EncodeError(const ErrorBody& error);
Status DecodeError(std::span<const std::uint8_t> payload, ErrorBody* out);

/// kStreamAck payload: one deterministic commit acknowledgement per
/// kStreamIngest / kStreamSeal frame — the counts and snapshot bytes are a
/// pure function of the lines ingested so far, independent of timing.
struct StreamAckBody {
  std::uint64_t accepted = 0;       ///< events accepted by this frame
  std::uint64_t rejected_late = 0;  ///< late arrivals rejected by this frame
  std::int32_t exit_code = 0;
  std::string out;  ///< snapshot blocks emitted by this frame, CLI bytes
  std::string err;  ///< per-line drop/parse diagnostics, CLI bytes
};

std::vector<std::uint8_t> EncodeStreamAck(const StreamAckBody& ack);
Status DecodeStreamAck(std::span<const std::uint8_t> payload,
                       StreamAckBody* out);

}  // namespace granmine::server

#endif  // GRANMINE_SERVER_WIRE_H_
