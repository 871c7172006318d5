#ifndef GRANMINE_SERVER_CLIENT_H_
#define GRANMINE_SERVER_CLIENT_H_

// A small blocking client for the granmine wire protocol (docs/serving.md):
// connects, exchanges preambles, and runs one call at a time over the
// connection. It exists for granmine_client, the loopback differential
// tests and the benches — it is intentionally synchronous and single-
// threaded (one Client per thread; the server side multiplexes).

#include <cstdint>
#include <memory>
#include <span>
#include <string>

#include "granmine/common/result.h"
#include "granmine/server/wire.h"

namespace granmine::server {

/// One decoded server response, whichever reply frame type arrived.
struct Response {
  FrameType type = FrameType::kReply;
  std::uint64_t corr_id = 0;
  /// kReply / kStreamAck payloads.
  int exit_code = 0;
  std::string out;
  std::string err;
  std::string diag;
  std::uint64_t accepted = 0;
  std::uint64_t rejected_late = 0;
  /// kErrorReply payload.
  ErrorBody error;
};

class Client {
 public:
  /// Connects, sends the preamble and validates the server's.
  static Result<std::unique_ptr<Client>> Connect(const std::string& host,
                                                 std::uint16_t port);
  ~Client();

  Client(const Client&) = delete;
  Client& operator=(const Client&) = delete;

  Result<Response> Mine(const MineCall& call);
  Result<Response> Check(const CheckCall& call);
  Result<Response> Dot(const DotCall& call);
  Result<Response> Statusz();
  Result<Response> StreamOpen(const StreamOpenCall& call);
  Result<Response> StreamIngest(std::string_view lines);
  Result<Response> StreamSeal();
  Status Ping();

  /// One framed round trip: send `type` with `payload`, return the first
  /// reply frame whose correlation id matches (unknown reply types from a
  /// newer server are skipped — the client-side forward-compat rule).
  Result<Response> Call(FrameType type, std::span<const std::uint8_t> payload);

  /// Raw transport access for protocol fault-injection tests (torn writes,
  /// corrupted frames).
  Status SendBytes(std::span<const std::uint8_t> bytes);
  /// The next reply frame: socket reads feed a FrameParser, so a frame
  /// gets the same length bound, CRC check and offset-bearing errors as on
  /// the server side.
  Result<Frame> ReadFrame();
  int fd() const { return fd_; }

 private:
  explicit Client(int fd) : fd_(fd) {}
  /// One read(2) of at least one byte; a closed connection is an error.
  Result<std::size_t> ReadSome(std::span<std::uint8_t> out);

  int fd_ = -1;
  std::uint64_t next_corr_ = 0;
  /// Reply bytes read past the last returned frame stay here.
  FrameParser parser_;
};

}  // namespace granmine::server

#endif  // GRANMINE_SERVER_CLIENT_H_
