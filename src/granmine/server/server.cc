#include "granmine/server/server.h"

#include <arpa/inet.h>
#include <fcntl.h>
#include <netinet/in.h>
#include <netinet/tcp.h>
#include <poll.h>
#include <sys/socket.h>
#include <unistd.h>

#include <algorithm>
#include <atomic>
#include <cerrno>
#include <cmath>
#include <condition_variable>
#include <cstring>
#include <deque>
#include <map>
#include <mutex>
#include <thread>
#include <vector>

#include "granmine/engine/admission.h"
#include "granmine/engine/engine.h"
#include "granmine/engine/statusz.h"
#include "granmine/obs/context.h"
#include "granmine/obs/obs.h"
#include "granmine/server/service.h"
#include "granmine/server/wire.h"

namespace granmine::server {

namespace {

void NoteRequestMetric(FrameType type) {
  // Metric label bodies must be string literals (obs/obs.h) — hence the
  // switch instead of a formatted label.
  switch (type) {
    case FrameType::kMine:
      GM_COUNTER_ADD("granmine_server_requests_total", "type=\"mine\"", 1);
      break;
    case FrameType::kCheck:
      GM_COUNTER_ADD("granmine_server_requests_total", "type=\"check\"", 1);
      break;
    case FrameType::kDot:
      GM_COUNTER_ADD("granmine_server_requests_total", "type=\"dot\"", 1);
      break;
    case FrameType::kStatusz:
      GM_COUNTER_ADD("granmine_server_requests_total", "type=\"statusz\"", 1);
      break;
    case FrameType::kStreamOpen:
      GM_COUNTER_ADD("granmine_server_requests_total",
                     "type=\"stream-open\"", 1);
      break;
    case FrameType::kStreamIngest:
      GM_COUNTER_ADD("granmine_server_requests_total",
                     "type=\"stream-ingest\"", 1);
      break;
    case FrameType::kStreamSeal:
      GM_COUNTER_ADD("granmine_server_requests_total",
                     "type=\"stream-seal\"", 1);
      break;
    default:
      break;
  }
}

bool IsDispatchableRequest(FrameType type) {
  switch (type) {
    case FrameType::kMine:
    case FrameType::kCheck:
    case FrameType::kDot:
    case FrameType::kStatusz:
    case FrameType::kStreamOpen:
    case FrameType::kStreamIngest:
    case FrameType::kStreamSeal:
      return true;
    default:
      return false;
  }
}

}  // namespace

struct Server::Impl {
  struct Connection {
    int fd = -1;
    std::uint64_t id = 0;  ///< for log lines; dense accept order

    // Read side — touched only by the loop thread.
    FrameParser parser;
    std::uint8_t preamble[kPreambleSize];
    std::size_t preamble_got = 0;
    bool preamble_ok = false;

    // Cross-thread state — guarded by Impl::mu_.
    persist::ByteQueue outbox;
    std::deque<std::pair<Frame, std::uint64_t>> pending;  // frame, request id
    bool busy = false;   ///< one dispatched frame in flight on a worker
    bool fatal = false;  ///< protocol error: flush the error frame, close
    bool dead = false;   ///< peer gone: destroy once no worker holds it

    // Session state — touched only by the worker holding `busy` (the mutex
    // hand-off on busy orders the accesses between successive workers).
    std::unique_ptr<StreamSession> stream;
  };

  struct Job {
    Connection* conn = nullptr;
    Frame frame;
    std::uint64_t request_id = 0;
  };

  Impl(Engine* engine, ServerOptions options)
      : engine_(engine), options_(std::move(options)) {
    if (options_.max_payload_bytes == 0) {
      options_.max_payload_bytes = kMaxPayloadBytes;
    }
    if (options_.max_pending_frames == 0) {
      options_.max_pending_frames = ServerOptions{}.max_pending_frames;
    }
    if (options_.max_outbox_bytes == 0) {
      options_.max_outbox_bytes = ServerOptions{}.max_outbox_bytes;
    }
  }

  Engine* engine_;
  ServerOptions options_;

  int listen_fd_ = -1;
  int wake_r_ = -1;
  int wake_w_ = -1;
  std::uint16_t port_ = 0;
  bool started_ = false;

  std::thread loop_;
  std::vector<std::thread> workers_;

  std::mutex mu_;
  std::condition_variable job_cv_;
  std::deque<Job> jobs_;
  bool stop_ = false;

  // Loop-thread-only connection table (workers reach connections through
  // Job::conn, never through this map).
  std::map<int, std::unique_ptr<Connection>> conns_;
  std::uint64_t next_conn_id_ = 0;

  std::atomic<std::uint64_t> accepted_{0};
  std::atomic<std::uint64_t> dispatched_{0};
  std::atomic<std::uint64_t> frame_errors_{0};
  std::atomic<std::int64_t> inflight_{0};

  void Wake() {
    const char byte = 'w';
    [[maybe_unused]] ssize_t n = ::write(wake_w_, &byte, 1);
  }

  void EnqueueBytesLocked(Connection* conn,
                          const std::vector<std::uint8_t>& bytes) {
    conn->outbox.Append(bytes);
    if (conn->outbox.size() > options_.max_outbox_bytes && !conn->dead) {
      // A peer that pipelines requests but never drains its replies: drop
      // the connection rather than buffer without bound. No error frame —
      // the outbox is exactly what the peer has stopped reading.
      conn->dead = true;
      GM_COUNTER_ADD("granmine_server_overflow_disconnects_total", "", 1);
    }
  }

  void SendFrame(Connection* conn, FrameType type, std::uint64_t corr_id,
                 std::span<const std::uint8_t> payload) {
    std::vector<std::uint8_t> bytes;
    AppendFrame(&bytes, type, corr_id, payload);
    std::lock_guard<std::mutex> lock(mu_);
    EnqueueBytesLocked(conn, bytes);
  }

  /// A serving-layer error frame. `fatal` additionally poisons the
  /// connection: the loop flushes this frame, then closes.
  void SendError(Connection* conn, std::uint64_t corr_id, const Status& status,
                 bool retryable, std::uint64_t backoff_ms, bool fatal) {
    std::vector<std::uint8_t> bytes;
    AppendErrorFrame(&bytes, corr_id, status, retryable, backoff_ms, fatal);
    std::lock_guard<std::mutex> lock(mu_);
    EnqueueBytesLocked(conn, bytes);
    if (fatal) conn->fatal = true;
  }

  Status Start() {
    {
      // Claim started_ inside the same critical section as the check: two
      // concurrent Start() calls must not both pass it and double-build
      // sockets and thread pools. Every failure path below rolls the claim
      // back through FailStart.
      std::lock_guard<std::mutex> lock(mu_);
      if (started_) return Status::Invalid("server already started");
      started_ = true;
      stop_ = false;
    }
    // The network layer is a serve-phase artifact: freeze up front so
    // every worker parses structures against an immutable family (and the
    // multi-second Gregorian freeze is paid before the first request, not
    // inside it).
    if (Status frozen = engine_->Freeze(); !frozen.ok()) {
      return FailStart(std::move(frozen));
    }

    listen_fd_ = ::socket(AF_INET, SOCK_STREAM | SOCK_NONBLOCK | SOCK_CLOEXEC,
                          0);
    if (listen_fd_ < 0) {
      return FailStart(
          Status::Internal(std::string("socket: ") + std::strerror(errno)));
    }
    int one = 1;
    ::setsockopt(listen_fd_, SOL_SOCKET, SO_REUSEADDR, &one, sizeof(one));
    sockaddr_in addr{};
    addr.sin_family = AF_INET;
    addr.sin_port = htons(options_.port);
    if (::inet_pton(AF_INET, options_.host.c_str(), &addr.sin_addr) != 1) {
      return FailStart(
          Status::Invalid("bad listen address '" + options_.host + "'"));
    }
    if (::bind(listen_fd_, reinterpret_cast<sockaddr*>(&addr), sizeof(addr)) <
        0) {
      return FailStart(Status::Internal(
          "bind " + options_.host + ":" + std::to_string(options_.port) +
          ": " + std::strerror(errno)));
    }
    if (::listen(listen_fd_, 128) < 0) {
      return FailStart(
          Status::Internal(std::string("listen: ") + std::strerror(errno)));
    }
    sockaddr_in bound{};
    socklen_t bound_len = sizeof(bound);
    ::getsockname(listen_fd_, reinterpret_cast<sockaddr*>(&bound), &bound_len);
    port_ = ntohs(bound.sin_port);

    int pipe_fds[2];
    if (::pipe2(pipe_fds, O_NONBLOCK | O_CLOEXEC) < 0) {
      return FailStart(
          Status::Internal(std::string("pipe2: ") + std::strerror(errno)));
    }
    wake_r_ = pipe_fds[0];
    wake_w_ = pipe_fds[1];

    const int workers = options_.workers > 0 ? options_.workers : 1;
    workers_.reserve(static_cast<std::size_t>(workers));
    for (int i = 0; i < workers; ++i) {
      workers_.emplace_back([this] { WorkerThread(); });
    }
    loop_ = std::thread([this] { LoopThread(); });
    GM_LOG(obs::LogLevel::kInfo, "server", "listening",
           {"host", options_.host}, {"port", std::to_string(port_)},
           {"workers", std::to_string(workers)});
    return Status::OK();
  }

  Status FailStart(Status status) {
    CloseStartupFds();
    std::lock_guard<std::mutex> lock(mu_);
    started_ = false;
    return status;
  }

  void CloseStartupFds() {
    if (listen_fd_ >= 0) ::close(listen_fd_);
    if (wake_r_ >= 0) ::close(wake_r_);
    if (wake_w_ >= 0) ::close(wake_w_);
    listen_fd_ = wake_r_ = wake_w_ = -1;
  }

  void Stop() {
    {
      std::lock_guard<std::mutex> lock(mu_);
      if (!started_) return;
      stop_ = true;
    }
    job_cv_.notify_all();
    Wake();
    for (std::thread& worker : workers_) worker.join();
    workers_.clear();
    loop_.join();
    // Both thread groups are gone: tear the sockets down directly.
    for (auto& [fd, conn] : conns_) ::close(fd);
    conns_.clear();
    CloseStartupFds();
    GM_GAUGE_SET("granmine_server_connections_active", "", 0);
    std::lock_guard<std::mutex> lock(mu_);
    started_ = false;
  }

  // --- Event loop --------------------------------------------------------

  void LoopThread() {
    std::vector<pollfd> fds;
    while (true) {
      fds.clear();
      fds.push_back({listen_fd_, POLLIN, 0});
      fds.push_back({wake_r_, POLLIN, 0});
      {
        std::lock_guard<std::mutex> lock(mu_);
        if (stop_) return;
        for (auto& [fd, conn] : conns_) {
          short events = 0;
          // Backpressure: a connection at its pipelining cap stops being
          // read — the kernel socket buffer fills and TCP flow control
          // pushes back on the peer — until workers drain pending.
          const bool stalled =
              conn->pending.size() >= options_.max_pending_frames;
          if (!conn->fatal && !conn->dead && !stalled) events |= POLLIN;
          if (!conn->outbox.empty()) events |= POLLOUT;
          if (events != 0) fds.push_back({fd, events, 0});
        }
      }
      if (::poll(fds.data(), fds.size(), 200) < 0 && errno != EINTR) return;
      if (fds[1].revents & POLLIN) {
        char drain[64];
        while (::read(wake_r_, drain, sizeof(drain)) > 0) {
        }
      }
      if (fds[0].revents & POLLIN) AcceptNew();
      for (std::size_t i = 2; i < fds.size(); ++i) {
        if (fds[i].revents == 0) continue;
        auto it = conns_.find(fds[i].fd);
        if (it == conns_.end()) continue;
        Connection* conn = it->second.get();
        if (fds[i].revents & (POLLIN | POLLERR | POLLHUP)) ReadFrom(conn);
        if (fds[i].revents & POLLOUT) FlushTo(conn);
      }
      // Frames that sat buffered while a connection was at its pipelining
      // cap parse here, once workers drain pending (their Wake lands the
      // loop back in this iteration).
      for (auto& [fd, conn] : conns_) {
        if (conn->parser.buffered() > 0) ParseFrames(conn.get());
      }
      ReapConnections();
    }
  }

  void AcceptNew() {
    while (true) {
      const int fd = ::accept4(listen_fd_, nullptr, nullptr,
                               SOCK_NONBLOCK | SOCK_CLOEXEC);
      if (fd < 0) return;
      int one = 1;
      ::setsockopt(fd, IPPROTO_TCP, TCP_NODELAY, &one, sizeof(one));
      auto conn = std::make_unique<Connection>();
      conn->fd = fd;
      conn->id = ++next_conn_id_;
      conn->parser = FrameParser(options_.max_payload_bytes);
      std::vector<std::uint8_t> hello;
      AppendPreamble(&hello);
      {
        std::lock_guard<std::mutex> lock(mu_);
        EnqueueBytesLocked(conn.get(), hello);
      }
      GM_LOG(obs::LogLevel::kDebug, "server", "connection accepted",
             {"conn", std::to_string(conn->id)});
      conns_.emplace(fd, std::move(conn));
      accepted_.fetch_add(1, std::memory_order_relaxed);
      GM_COUNTER_ADD("granmine_server_connections_total", "", 1);
      GM_GAUGE_SET("granmine_server_connections_active", "", conns_.size());
    }
  }

  void ReadFrom(Connection* conn) {
    std::uint8_t buf[16384];
    while (true) {
      const ssize_t n = ::read(conn->fd, buf, sizeof(buf));
      if (n > 0) {
        GM_COUNTER_ADD("granmine_server_bytes_read_total", "", n);
        std::size_t offset = 0;
        if (!conn->preamble_ok) {
          offset = std::min(kPreambleSize - conn->preamble_got,
                            static_cast<std::size_t>(n));
          std::memcpy(conn->preamble + conn->preamble_got, buf, offset);
          conn->preamble_got += offset;
          if (conn->preamble_got == kPreambleSize) {
            Status status = CheckPreamble(
                std::span<const std::uint8_t>(conn->preamble, kPreambleSize));
            if (!status.ok()) {
              NoteFrameError("preamble");
              SendError(conn, 0, status, /*retryable=*/false, 0,
                        /*fatal=*/true);
              return;
            }
            conn->preamble_ok = true;
          }
        }
        if (offset < static_cast<std::size_t>(n)) {
          conn->parser.Feed(std::span<const std::uint8_t>(
              buf + offset, static_cast<std::size_t>(n) - offset));
        }
        continue;
      }
      if (n == 0) {
        MarkDead(conn);
        break;
      }
      if (errno == EAGAIN || errno == EWOULDBLOCK) break;
      if (errno == EINTR) continue;
      MarkDead(conn);
      break;
    }
    ParseFrames(conn);
  }

  void ParseFrames(Connection* conn) {
    while (true) {
      {
        std::lock_guard<std::mutex> lock(mu_);
        if (conn->fatal || conn->dead) return;
        // At the pipelining cap: leave the rest buffered; the loop retries
        // once workers drain pending.
        if (conn->pending.size() >= options_.max_pending_frames) return;
      }
      auto next = conn->parser.Next();
      if (!next.ok()) {
        // A framing error (CRC mismatch, implausible length) means the byte
        // stream is desynchronized — unrecoverable, so the error frame is
        // fatal and the connection closes after the flush.
        NoteFrameError("protocol");
        SendError(conn, 0, next.status(), /*retryable=*/false, 0,
                  /*fatal=*/true);
        return;
      }
      if (!next->has_value()) return;
      Frame frame = std::move(**next);
      // The wire request id is minted at frame decode (docs/serving.md):
      // every span and log line from here to the reply shares it.
      const std::uint64_t request_id = engine_->MintRequestId();
      {
        obs::RequestScope scope(request_id);
        GM_LOG(obs::LogLevel::kDebug, "server", "frame decoded",
               {"conn", std::to_string(conn->id)},
               {"type", std::to_string(static_cast<std::uint32_t>(frame.type))},
               {"corr_id", std::to_string(frame.corr_id)},
               {"bytes", std::to_string(frame.payload.size())});
      }
      if (frame.type == FrameType::kPing) {
        // Answered inline from the loop: a liveness probe should not queue
        // behind a long mine.
        SendFrame(conn, FrameType::kPong, frame.corr_id, {});
        continue;
      }
      if (!IsDispatchableRequest(frame.type)) {
        // Unknown frame type: CRC-checked, skipped, answered — the
        // forward-compatibility contract (docs/serving.md). Not fatal; the
        // next frame parses normally.
        NoteFrameError("unknown-type");
        SendError(conn, frame.corr_id,
                  Status::Unsupported(
                      "unknown frame type " +
                      std::to_string(static_cast<std::uint32_t>(frame.type))),
                  /*retryable=*/false, 0, /*fatal=*/false);
        continue;
      }
      std::lock_guard<std::mutex> lock(mu_);
      conn->pending.emplace_back(std::move(frame), request_id);
      ScheduleLocked(conn);
    }
  }

  void NoteFrameError(const char* kind) {
    frame_errors_.fetch_add(1, std::memory_order_relaxed);
    if (std::strcmp(kind, "preamble") == 0) {
      GM_COUNTER_ADD("granmine_server_frame_errors_total",
                     "kind=\"preamble\"", 1);
    } else if (std::strcmp(kind, "unknown-type") == 0) {
      GM_COUNTER_ADD("granmine_server_frame_errors_total",
                     "kind=\"unknown-type\"", 1);
    } else if (std::strcmp(kind, "decode") == 0) {
      GM_COUNTER_ADD("granmine_server_frame_errors_total", "kind=\"decode\"",
                     1);
    } else {
      GM_COUNTER_ADD("granmine_server_frame_errors_total",
                     "kind=\"protocol\"", 1);
    }
  }

  void MarkDead(Connection* conn) {
    std::lock_guard<std::mutex> lock(mu_);
    conn->dead = true;
  }

  void FlushTo(Connection* conn) {
    std::uint8_t buf[16384];
    while (true) {
      std::size_t staged = 0;
      {
        std::lock_guard<std::mutex> lock(mu_);
        staged = std::min(conn->outbox.size(), sizeof(buf));
        std::copy_n(conn->outbox.view().begin(), staged, buf);
      }
      if (staged == 0) return;
      // MSG_NOSIGNAL: a peer that closed with replies still queued must
      // surface as EPIPE here, not as a process-killing SIGPIPE.
      const ssize_t written = ::send(conn->fd, buf, staged, MSG_NOSIGNAL);
      if (written > 0) {
        GM_COUNTER_ADD("granmine_server_bytes_written_total", "", written);
        std::lock_guard<std::mutex> lock(mu_);
        conn->outbox.Consume(static_cast<std::size_t>(written));
        if (static_cast<std::size_t>(written) < staged) return;
        continue;
      }
      if (written < 0 && (errno == EAGAIN || errno == EWOULDBLOCK)) return;
      if (written < 0 && errno == EINTR) continue;
      MarkDead(conn);
      return;
    }
  }

  void ReapConnections() {
    for (auto it = conns_.begin(); it != conns_.end();) {
      Connection* conn = it->second.get();
      bool reap = false;
      {
        std::lock_guard<std::mutex> lock(mu_);
        const bool idle = !conn->busy && conn->pending.empty();
        reap = idle && (conn->dead || (conn->fatal && conn->outbox.empty()));
      }
      if (reap) {
        GM_LOG(obs::LogLevel::kDebug, "server", "connection closed",
               {"conn", std::to_string(conn->id)});
        ::close(conn->fd);
        it = conns_.erase(it);
        GM_GAUGE_SET("granmine_server_connections_active", "", conns_.size());
      } else {
        ++it;
      }
    }
  }

  /// Moves the next pending frame onto the job queue. At most one job per
  /// connection is in flight (busy), which keeps each connection's requests
  /// strictly ordered — the invariant behind deterministic stream acks.
  void ScheduleLocked(Connection* conn) {
    if (conn->busy || conn->fatal || conn->pending.empty()) return;
    conn->busy = true;
    Job job;
    job.conn = conn;
    job.frame = std::move(conn->pending.front().first);
    job.request_id = conn->pending.front().second;
    conn->pending.pop_front();
    jobs_.push_back(std::move(job));
    job_cv_.notify_one();
  }

  // --- Worker pool -------------------------------------------------------

  void WorkerThread() {
    while (true) {
      Job job;
      {
        std::unique_lock<std::mutex> lock(mu_);
        job_cv_.wait(lock, [this] { return stop_ || !jobs_.empty(); });
        if (jobs_.empty()) return;  // stop_ set and queue drained
        job = std::move(jobs_.front());
        jobs_.pop_front();
      }
      GM_GAUGE_SET("granmine_server_inflight", "",
                   inflight_.fetch_add(1, std::memory_order_relaxed) + 1);
      std::vector<std::uint8_t> response = Dispatch(job);
      GM_GAUGE_SET("granmine_server_inflight", "",
                   inflight_.fetch_sub(1, std::memory_order_relaxed) - 1);
      {
        std::lock_guard<std::mutex> lock(mu_);
        EnqueueBytesLocked(job.conn, response);
        job.conn->busy = false;
        ScheduleLocked(job.conn);
      }
      Wake();
    }
  }

  std::vector<std::uint8_t> Dispatch(Job& job) {
    obs::RequestScope scope(job.request_id);
    GM_TRACE_SPAN("server_dispatch");
    dispatched_.fetch_add(1, std::memory_order_relaxed);
    NoteRequestMetric(job.frame.type);
    const std::uint64_t corr = job.frame.corr_id;
    std::vector<std::uint8_t> out;
    switch (job.frame.type) {
      case FrameType::kMine: {
        MineCall call;
        if (Status st = DecodeMineCall(job.frame.payload, &call); !st.ok()) {
          return EncodeDecodeError(corr, st);
        }
        return FinishCall(corr, ServeMine(engine_, call));
      }
      case FrameType::kCheck: {
        CheckCall call;
        if (Status st = DecodeCheckCall(job.frame.payload, &call); !st.ok()) {
          return EncodeDecodeError(corr, st);
        }
        return FinishCall(corr, ServeCheck(engine_, call));
      }
      case FrameType::kDot: {
        DotCall call;
        if (Status st = DecodeDotCall(job.frame.payload, &call); !st.ok()) {
          return EncodeDecodeError(corr, st);
        }
        return FinishCall(corr, ServeDot(engine_, call));
      }
      case FrameType::kStatusz: {
        ReplyBody reply;
        reply.out = RenderStatuszJson(engine_->Statusz()) + "\n";
        AppendFrame(&out, FrameType::kReply, corr, EncodeReply(reply));
        return out;
      }
      case FrameType::kStreamOpen: {
        if (job.conn->stream != nullptr) {
          AppendErrorFrame(&out, corr,
                           Status::Invalid(
                               "a stream session is already open on this "
                               "connection (seal it first)"),
                           false, 0, false);
          return out;
        }
        StreamOpenCall call;
        if (Status st = DecodeStreamOpenCall(job.frame.payload, &call);
            !st.ok()) {
          return EncodeDecodeError(corr, st);
        }
        auto opened = StreamSession::Open(engine_, call);
        if (opened.session == nullptr) {
          return FinishCall(corr, std::move(opened.result));
        }
        job.conn->stream = std::move(opened.session);
        AppendFrame(&out, FrameType::kReply, corr,
                    EncodeReply(ReplyBody{}));
        return out;
      }
      case FrameType::kStreamIngest: {
        if (job.conn->stream == nullptr) {
          AppendErrorFrame(&out, corr,
                           Status::Invalid("no open stream session on this "
                                           "connection"),
                           false, 0, false);
          return out;
        }
        const std::string_view chunk(
            reinterpret_cast<const char*>(job.frame.payload.data()),
            job.frame.payload.size());
        auto ingested = job.conn->stream->Ingest(chunk);
        StreamAckBody ack;
        ack.accepted = ingested.accepted;
        ack.rejected_late = ingested.rejected_late;
        ack.exit_code = ingested.result.exit_code;
        ack.out = std::move(ingested.result.out);
        ack.err = std::move(ingested.result.err);
        // A failing chunk (parse error, snapshot failure) ends the session,
        // like end-of-run in the CLI; the ack carries the exit code.
        if (ack.exit_code != 0) job.conn->stream.reset();
        AppendFrame(&out, FrameType::kStreamAck, corr, EncodeStreamAck(ack));
        return out;
      }
      case FrameType::kStreamSeal: {
        if (job.conn->stream == nullptr) {
          AppendErrorFrame(&out, corr,
                           Status::Invalid("no open stream session on this "
                                           "connection"),
                           false, 0, false);
          return out;
        }
        StreamSession* session = job.conn->stream.get();
        CallResult sealed = session->Seal();
        StreamAckBody ack;
        // The seal ack reports session totals, not per-frame deltas.
        ack.accepted = session->accepted_total();
        ack.rejected_late = session->dropped_late();
        ack.exit_code = sealed.exit_code;
        ack.out = std::move(sealed.out);
        ack.err = std::move(sealed.err);
        job.conn->stream.reset();
        AppendFrame(&out, FrameType::kStreamAck, corr, EncodeStreamAck(ack));
        return out;
      }
      default:
        // Unreachable: ParseFrames only enqueues dispatchable types.
        AppendErrorFrame(&out, corr,
                         Status::Internal("undispatchable frame type"), false,
                         0, false);
        return out;
    }
  }

  void AppendErrorFrame(std::vector<std::uint8_t>* out, std::uint64_t corr,
                        const Status& status, bool retryable,
                        std::uint64_t backoff_ms, bool fatal) {
    ErrorBody error;
    error.status_code = static_cast<std::uint32_t>(status.code());
    error.retryable = retryable;
    error.fatal = fatal;
    error.backoff_ms = backoff_ms;
    error.message = status.ToString();
    AppendFrame(out, FrameType::kErrorReply, corr, EncodeError(error));
  }

  std::vector<std::uint8_t> EncodeDecodeError(std::uint64_t corr,
                                              const Status& status) {
    // A CRC-valid frame with a malformed payload is a client codec bug, not
    // a stream desync: report it, keep the connection.
    NoteFrameError("decode");
    std::vector<std::uint8_t> out;
    AppendErrorFrame(&out, corr, status, false, 0, false);
    return out;
  }

  std::vector<std::uint8_t> FinishCall(std::uint64_t corr, CallResult result) {
    std::vector<std::uint8_t> out;
    double backoff_ms = 0;
    if (!result.engine_status.ok() &&
        IsRetryableShed(result.engine_status, &backoff_ms)) {
      // The PR 7 retry contract on the wire: shed ⇒ retryable error frame
      // carrying the reason and the suggested backoff.
      GM_COUNTER_ADD("granmine_server_sheds_total", "", 1);
      AppendErrorFrame(&out, corr, result.engine_status, /*retryable=*/true,
                       static_cast<std::uint64_t>(std::llround(backoff_ms)),
                       /*fatal=*/false);
      return out;
    }
    ReplyBody reply;
    reply.exit_code = result.exit_code;
    reply.out = std::move(result.out);
    reply.err = std::move(result.err);
    reply.diag = std::move(result.diag);
    AppendFrame(&out, FrameType::kReply, corr, EncodeReply(reply));
    return out;
  }
};

Server::Server(Engine* engine, ServerOptions options)
    : impl_(std::make_unique<Impl>(engine, std::move(options))) {}

Server::~Server() { Stop(); }

Status Server::Start() { return impl_->Start(); }

void Server::Stop() { impl_->Stop(); }

std::uint16_t Server::port() const { return impl_->port_; }

std::uint64_t Server::connections_accepted() const {
  return impl_->accepted_.load(std::memory_order_relaxed);
}

std::uint64_t Server::frames_dispatched() const {
  return impl_->dispatched_.load(std::memory_order_relaxed);
}

std::uint64_t Server::frame_errors() const {
  return impl_->frame_errors_.load(std::memory_order_relaxed);
}

}  // namespace granmine::server
