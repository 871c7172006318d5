#include "granmine/server/wire.h"

#include <cstring>

namespace granmine::server {

namespace {

void PutPins(persist::Encoder* enc, const std::vector<std::string>& pins) {
  enc->PutU32(static_cast<std::uint32_t>(pins.size()));
  for (const std::string& pin : pins) enc->PutString(pin);
}

Status GetPins(persist::Decoder* dec, std::vector<std::string>* pins) {
  std::uint32_t count = 0;
  GM_RETURN_NOT_OK(dec->GetU32("pin count", &count));
  // Each pin costs at least its 4-byte length prefix; a count beyond
  // remaining/4 cannot be satisfied — reject before reserving.
  if (count > dec->remaining() / 4) {
    return dec->Corrupt("pin count " + std::to_string(count) +
                        " exceeds remaining payload");
  }
  pins->clear();
  pins->reserve(count);
  for (std::uint32_t i = 0; i < count; ++i) {
    std::string pin;
    GM_RETURN_NOT_OK(dec->GetString("pin", &pin));
    pins->push_back(std::move(pin));
  }
  return Status::OK();
}

}  // namespace

void AppendPreamble(std::vector<std::uint8_t>* out) {
  std::uint8_t preamble[kPreambleSize];
  std::memcpy(preamble, kWireMagic, kMagicSize);
  persist::StoreLe<std::uint32_t>(preamble + kMagicSize, kWireVersion);
  out->insert(out->end(), preamble, preamble + kPreambleSize);
}

Status CheckPreamble(std::span<const std::uint8_t> bytes) {
  if (bytes.size() != kPreambleSize) {
    return Status::Invalid("preamble: expected " +
                           std::to_string(kPreambleSize) + " bytes, got " +
                           std::to_string(bytes.size()));
  }
  if (std::memcmp(bytes.data(), kWireMagic, kMagicSize) != 0) {
    return Status::Invalid("preamble: bad magic (not a granmine RPC peer)");
  }
  const std::uint32_t version =
      persist::LoadLe<std::uint32_t>(bytes.data() + kMagicSize);
  if (version != kWireVersion) {
    return Status::Unsupported("preamble: wire version " +
                               std::to_string(version) + ", this build speaks " +
                               std::to_string(kWireVersion));
  }
  return Status::OK();
}

void AppendFrame(std::vector<std::uint8_t>* out, FrameType type,
                 std::uint64_t corr_id,
                 std::span<const std::uint8_t> payload) {
  std::uint8_t fields[kFrameLayout.field_bytes];
  persist::StoreLe<std::uint32_t>(fields, static_cast<std::uint32_t>(type));
  persist::StoreLe<std::uint32_t>(fields + 4, 0);  // flags: reserved
  persist::StoreLe<std::uint64_t>(fields + 8, corr_id);
  kFrameLayout.AppendHeader(fields, payload, out);
  out->insert(out->end(), payload.begin(), payload.end());
}

Result<std::optional<Frame>> FrameParser::Next() {
  const std::span<const std::uint8_t> bytes = buffer_.view();
  if (bytes.size() < kFrameHeaderSize) return std::optional<Frame>{};
  GM_ASSIGN_OR_RETURN(
      const std::uint64_t payload_len,
      kFrameLayout.PayloadLength(bytes, max_payload_, consumed_));
  if (bytes.size() - kFrameHeaderSize < payload_len) {
    return std::optional<Frame>{};
  }
  const std::span<const std::uint8_t> payload = bytes.subspan(
      kFrameHeaderSize, static_cast<std::size_t>(payload_len));
  GM_RETURN_NOT_OK(kFrameLayout.CheckCrc(bytes, payload, consumed_));
  Frame frame;
  frame.type =
      static_cast<FrameType>(persist::LoadLe<std::uint32_t>(&bytes[0]));
  frame.flags = persist::LoadLe<std::uint32_t>(&bytes[4]);
  frame.corr_id = persist::LoadLe<std::uint64_t>(&bytes[8]);
  frame.payload.assign(payload.begin(), payload.end());
  buffer_.Consume(kFrameHeaderSize + payload.size());
  consumed_ += kFrameHeaderSize + payload.size();
  return std::optional<Frame>{std::move(frame)};
}

std::vector<std::uint8_t> EncodeMineCall(const MineCall& call) {
  persist::Encoder enc;
  enc.PutString(call.structure_text);
  enc.PutString(call.events_text);
  enc.PutString(call.reference);
  enc.PutString(call.confidence);
  enc.PutString(call.on_budget);
  enc.PutU8(static_cast<std::uint8_t>((call.naive ? 1 : 0) |
                                      (call.explain ? 2 : 0) |
                                      (call.default_partial ? 4 : 0)));
  PutPins(&enc, call.pins);
  return enc.buffer();
}

Status DecodeMineCall(std::span<const std::uint8_t> payload, MineCall* out) {
  persist::Decoder dec(payload, 0, "frame payload");
  GM_RETURN_NOT_OK(dec.GetString("structure text", &out->structure_text));
  GM_RETURN_NOT_OK(dec.GetString("events text", &out->events_text));
  GM_RETURN_NOT_OK(dec.GetString("reference", &out->reference));
  GM_RETURN_NOT_OK(dec.GetString("confidence", &out->confidence));
  GM_RETURN_NOT_OK(dec.GetString("on-budget", &out->on_budget));
  std::uint8_t flags = 0;
  GM_RETURN_NOT_OK(dec.GetU8("mine flags", &flags));
  out->naive = (flags & 1) != 0;
  out->explain = (flags & 2) != 0;
  out->default_partial = (flags & 4) != 0;
  GM_RETURN_NOT_OK(GetPins(&dec, &out->pins));
  return dec.ExpectEnd("mine call");
}

std::vector<std::uint8_t> EncodeCheckCall(const CheckCall& call) {
  persist::Encoder enc;
  enc.PutString(call.structure_text);
  enc.PutU8(call.exact ? 1 : 0);
  return enc.buffer();
}

Status DecodeCheckCall(std::span<const std::uint8_t> payload, CheckCall* out) {
  persist::Decoder dec(payload, 0, "frame payload");
  GM_RETURN_NOT_OK(dec.GetString("structure text", &out->structure_text));
  std::uint8_t exact = 0;
  GM_RETURN_NOT_OK(dec.GetU8("exact flag", &exact));
  out->exact = exact != 0;
  return dec.ExpectEnd("check call");
}

std::vector<std::uint8_t> EncodeDotCall(const DotCall& call) {
  persist::Encoder enc;
  enc.PutString(call.structure_text);
  enc.PutU8(call.tag ? 1 : 0);
  return enc.buffer();
}

Status DecodeDotCall(std::span<const std::uint8_t> payload, DotCall* out) {
  persist::Decoder dec(payload, 0, "frame payload");
  GM_RETURN_NOT_OK(dec.GetString("structure text", &out->structure_text));
  std::uint8_t tag = 0;
  GM_RETURN_NOT_OK(dec.GetU8("tag flag", &tag));
  out->tag = tag != 0;
  return dec.ExpectEnd("dot call");
}

std::vector<std::uint8_t> EncodeStreamOpenCall(const StreamOpenCall& call) {
  persist::Encoder enc;
  enc.PutString(call.structure_text);
  enc.PutString(call.reference);
  enc.PutString(call.window);
  enc.PutString(call.slide);
  enc.PutString(call.theta);
  enc.PutString(call.types);
  enc.PutString(call.tolerance);
  PutPins(&enc, call.pins);
  return enc.buffer();
}

Status DecodeStreamOpenCall(std::span<const std::uint8_t> payload,
                            StreamOpenCall* out) {
  persist::Decoder dec(payload, 0, "frame payload");
  GM_RETURN_NOT_OK(dec.GetString("structure text", &out->structure_text));
  GM_RETURN_NOT_OK(dec.GetString("reference", &out->reference));
  GM_RETURN_NOT_OK(dec.GetString("window", &out->window));
  GM_RETURN_NOT_OK(dec.GetString("slide", &out->slide));
  GM_RETURN_NOT_OK(dec.GetString("theta", &out->theta));
  GM_RETURN_NOT_OK(dec.GetString("types", &out->types));
  GM_RETURN_NOT_OK(dec.GetString("tolerance", &out->tolerance));
  GM_RETURN_NOT_OK(GetPins(&dec, &out->pins));
  return dec.ExpectEnd("stream open call");
}

std::vector<std::uint8_t> EncodeIngestChunk(std::string_view lines) {
  return std::vector<std::uint8_t>(lines.begin(), lines.end());
}

std::vector<std::uint8_t> EncodeReply(const ReplyBody& reply) {
  persist::Encoder enc;
  enc.PutI32(reply.exit_code);
  enc.PutString(reply.out);
  enc.PutString(reply.err);
  enc.PutString(reply.diag);
  return enc.buffer();
}

Status DecodeReply(std::span<const std::uint8_t> payload, ReplyBody* out) {
  persist::Decoder dec(payload, 0, "frame payload");
  GM_RETURN_NOT_OK(dec.GetI32("exit code", &out->exit_code));
  GM_RETURN_NOT_OK(dec.GetString("stdout", &out->out));
  GM_RETURN_NOT_OK(dec.GetString("stderr", &out->err));
  GM_RETURN_NOT_OK(dec.GetString("diag", &out->diag));
  return dec.ExpectEnd("reply");
}

std::vector<std::uint8_t> EncodeError(const ErrorBody& error) {
  persist::Encoder enc;
  enc.PutU32(error.status_code);
  enc.PutU8(error.retryable ? 1 : 0);
  enc.PutU8(error.fatal ? 1 : 0);
  enc.PutU64(error.backoff_ms);
  enc.PutString(error.message);
  return enc.buffer();
}

Status DecodeError(std::span<const std::uint8_t> payload, ErrorBody* out) {
  persist::Decoder dec(payload, 0, "frame payload");
  GM_RETURN_NOT_OK(dec.GetU32("status code", &out->status_code));
  std::uint8_t retryable = 0, fatal = 0;
  GM_RETURN_NOT_OK(dec.GetU8("retryable flag", &retryable));
  GM_RETURN_NOT_OK(dec.GetU8("fatal flag", &fatal));
  out->retryable = retryable != 0;
  out->fatal = fatal != 0;
  GM_RETURN_NOT_OK(dec.GetU64("backoff ms", &out->backoff_ms));
  GM_RETURN_NOT_OK(dec.GetString("message", &out->message));
  return dec.ExpectEnd("error reply");
}

std::vector<std::uint8_t> EncodeStreamAck(const StreamAckBody& ack) {
  persist::Encoder enc;
  enc.PutU64(ack.accepted);
  enc.PutU64(ack.rejected_late);
  enc.PutI32(ack.exit_code);
  enc.PutString(ack.out);
  enc.PutString(ack.err);
  return enc.buffer();
}

Status DecodeStreamAck(std::span<const std::uint8_t> payload,
                       StreamAckBody* out) {
  persist::Decoder dec(payload, 0, "frame payload");
  GM_RETURN_NOT_OK(dec.GetU64("accepted", &out->accepted));
  GM_RETURN_NOT_OK(dec.GetU64("rejected late", &out->rejected_late));
  GM_RETURN_NOT_OK(dec.GetI32("exit code", &out->exit_code));
  GM_RETURN_NOT_OK(dec.GetString("stdout", &out->out));
  GM_RETURN_NOT_OK(dec.GetString("stderr", &out->err));
  return dec.ExpectEnd("stream ack");
}

}  // namespace granmine::server
