#include "granmine/server/client.h"

#include <arpa/inet.h>
#include <netinet/in.h>
#include <netinet/tcp.h>
#include <sys/socket.h>
#include <unistd.h>

#include <cerrno>
#include <cstring>

namespace granmine::server {

Result<std::unique_ptr<Client>> Client::Connect(const std::string& host,
                                                std::uint16_t port) {
  const int fd = ::socket(AF_INET, SOCK_STREAM | SOCK_CLOEXEC, 0);
  if (fd < 0) {
    return Status::Internal(std::string("socket: ") + std::strerror(errno));
  }
  int one = 1;
  ::setsockopt(fd, IPPROTO_TCP, TCP_NODELAY, &one, sizeof(one));
  sockaddr_in addr{};
  addr.sin_family = AF_INET;
  addr.sin_port = htons(port);
  if (::inet_pton(AF_INET, host.c_str(), &addr.sin_addr) != 1) {
    ::close(fd);
    return Status::Invalid("bad address '" + host + "'");
  }
  if (::connect(fd, reinterpret_cast<sockaddr*>(&addr), sizeof(addr)) < 0) {
    Status status = Status::Internal("connect " + host + ":" +
                                     std::to_string(port) + ": " +
                                     std::strerror(errno));
    ::close(fd);
    return status;
  }
  auto client = std::unique_ptr<Client>(new Client(fd));
  std::vector<std::uint8_t> hello;
  AppendPreamble(&hello);
  GM_RETURN_NOT_OK(client->SendBytes(hello));
  // Exactly the preamble: reply frames are ReadFrame's to buffer.
  std::uint8_t peer[kPreambleSize];
  for (std::size_t got = 0; got < kPreambleSize;) {
    GM_ASSIGN_OR_RETURN(const std::size_t n,
                        client->ReadSome(std::span(peer).subspan(got)));
    got += n;
  }
  GM_RETURN_NOT_OK(CheckPreamble(peer));
  return client;
}

Client::~Client() {
  if (fd_ >= 0) ::close(fd_);
}

Status Client::SendBytes(std::span<const std::uint8_t> bytes) {
  std::size_t sent = 0;
  while (sent < bytes.size()) {
    // MSG_NOSIGNAL: a server that closed the connection mid-send must
    // surface as an EPIPE Status, not as a process-killing SIGPIPE.
    const ssize_t n = ::send(fd_, bytes.data() + sent, bytes.size() - sent,
                             MSG_NOSIGNAL);
    if (n < 0) {
      if (errno == EINTR) continue;
      return Status::Internal(std::string("write: ") + std::strerror(errno));
    }
    sent += static_cast<std::size_t>(n);
  }
  return Status::OK();
}

Result<std::size_t> Client::ReadSome(std::span<std::uint8_t> out) {
  while (true) {
    const ssize_t n = ::read(fd_, out.data(), out.size());
    if (n > 0) return static_cast<std::size_t>(n);
    if (n == 0) return Status::Internal("connection closed by server");
    if (errno != EINTR) {
      return Status::Internal(std::string("read: ") + std::strerror(errno));
    }
  }
}

Result<Frame> Client::ReadFrame() {
  while (true) {
    GM_ASSIGN_OR_RETURN(std::optional<Frame> frame, parser_.Next());
    if (frame.has_value()) return std::move(*frame);
    std::uint8_t buf[16384];
    GM_ASSIGN_OR_RETURN(const std::size_t n, ReadSome(buf));
    parser_.Feed(std::span<const std::uint8_t>(buf, n));
  }
}

Result<Response> Client::Call(FrameType type,
                              std::span<const std::uint8_t> payload) {
  const std::uint64_t corr = ++next_corr_;
  std::vector<std::uint8_t> bytes;
  AppendFrame(&bytes, type, corr, payload);
  GM_RETURN_NOT_OK(SendBytes(bytes));
  while (true) {
    auto frame = ReadFrame();
    GM_RETURN_NOT_OK(frame.status());
    Response response;
    response.type = frame->type;
    response.corr_id = frame->corr_id;
    switch (frame->type) {
      case FrameType::kReply: {
        ReplyBody reply;
        GM_RETURN_NOT_OK(DecodeReply(frame->payload, &reply));
        response.exit_code = reply.exit_code;
        response.out = std::move(reply.out);
        response.err = std::move(reply.err);
        response.diag = std::move(reply.diag);
        break;
      }
      case FrameType::kStreamAck: {
        StreamAckBody ack;
        GM_RETURN_NOT_OK(DecodeStreamAck(frame->payload, &ack));
        response.exit_code = ack.exit_code;
        response.out = std::move(ack.out);
        response.err = std::move(ack.err);
        response.accepted = ack.accepted;
        response.rejected_late = ack.rejected_late;
        break;
      }
      case FrameType::kErrorReply: {
        GM_RETURN_NOT_OK(DecodeError(frame->payload, &response.error));
        break;
      }
      case FrameType::kPong:
        break;
      default:
        // An unknown reply type from a newer server: skip it — the
        // client-side half of the forward-compatibility contract.
        continue;
    }
    if (frame->corr_id != corr) continue;  // stale reply; keep reading
    return response;
  }
}

Result<Response> Client::Mine(const MineCall& call) {
  return Call(FrameType::kMine, EncodeMineCall(call));
}

Result<Response> Client::Check(const CheckCall& call) {
  return Call(FrameType::kCheck, EncodeCheckCall(call));
}

Result<Response> Client::Dot(const DotCall& call) {
  return Call(FrameType::kDot, EncodeDotCall(call));
}

Result<Response> Client::Statusz() { return Call(FrameType::kStatusz, {}); }

Result<Response> Client::StreamOpen(const StreamOpenCall& call) {
  return Call(FrameType::kStreamOpen, EncodeStreamOpenCall(call));
}

Result<Response> Client::StreamIngest(std::string_view lines) {
  return Call(FrameType::kStreamIngest, EncodeIngestChunk(lines));
}

Result<Response> Client::StreamSeal() {
  return Call(FrameType::kStreamSeal, {});
}

Status Client::Ping() {
  auto response = Call(FrameType::kPing, {});
  GM_RETURN_NOT_OK(response.status());
  if (response->type != FrameType::kPong) {
    return Status::Internal("expected pong, got frame type " +
                            std::to_string(
                                static_cast<std::uint32_t>(response->type)));
  }
  return Status::OK();
}

}  // namespace granmine::server
