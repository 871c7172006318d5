// The serving-layer contract suite (docs/serving.md):
//
//  - wire format: the frame layout constants match the spec's table, the
//    incremental parser survives one-byte-at-a-time delivery and seeded
//    random fragmentation of a long pipelined stream, and CRC / length
//    corruption is a protocol error naming the stream offset;
//  - loopback differential: server responses are byte-identical to
//    granmine_cli stdout (and exit codes match) for the same requests —
//    mine (plain / --naive / pins / --explain / bad reference), check
//    (consistent, --exact, inconsistent), dot (structure and TAG), and a
//    windowed stream driven frame by frame;
//  - protocol faults: torn frames reassemble, a CRC-flipped frame draws a
//    fatal error reply and a closed connection, an unknown frame type draws
//    a non-fatal kUnsupported reply, a malformed payload in a CRC-valid
//    frame a non-fatal kInvalidArgument reply, and the connection keeps
//    serving;
//  - overload: an injected queue-full fault surfaces as a retryable error
//    frame carrying the admission reason and a suggested backoff;
//  - connection robustness: a client hanging up with replies queued does
//    not SIGPIPE the process, pipelining past max_pending_frames stalls
//    reads instead of growing the heap, an outbox past max_outbox_bytes
//    drops the peer, and racing Start() calls admit exactly one winner;
//  - concurrency: four clients soak the same server and every response
//    stays byte-identical to the single-client expectation, also on an
//    engine whose 2-thread pool the mines and a stream session share (run
//    under the `sanitizer` label for the TSAN/ASAN gate).

#include <arpa/inet.h>
#include <gtest/gtest.h>
#include <netinet/in.h>
#include <sys/socket.h>
#include <sys/wait.h>
#include <unistd.h>

#include <algorithm>
#include <atomic>
#include <cerrno>
#include <chrono>
#include <cstdint>
#include <cstdio>
#include <cstring>
#include <fstream>
#include <memory>
#include <random>
#include <span>
#include <sstream>
#include <string>
#include <thread>
#include <vector>

#include "granmine/common/governor.h"
#include "granmine/engine/admission.h"
#include "granmine/engine/engine.h"
#include "granmine/granularity/system.h"
#include "granmine/obs/metrics.h"
#include "granmine/server/client.h"
#include "granmine/server/server.h"
#include "granmine/server/wire.h"

namespace granmine {
namespace {

using server::Client;
using server::Frame;
using server::FrameParser;
using server::FrameType;
using server::Response;
using server::Server;
using server::ServerOptions;

// The demo corpus granmine_cli writes for its own quickstart — every
// differential below runs both sides over these bytes.
constexpr char kStructure[] =
    "rise -> report : [1,1] b-day\n"
    "report -> fall : [0,1] week\n"
    "rise -> hp     : [0,5] b-day\n"
    "hp -> fall     : [0,8] hour\n";

constexpr char kEvents[] =
    "1970-01-05 10:00:00 IBM-rise\n"
    "1970-01-06 11:00:00 IBM-earnings-report\n"
    "1970-01-07 12:00:00 HP-rise\n"
    "1970-01-07 15:00:00 IBM-fall\n"
    "1970-01-12 10:00:00 IBM-rise\n"
    "1970-01-13 11:00:00 IBM-earnings-report\n"
    "1970-01-14 12:00:00 HP-rise\n"
    "1970-01-14 15:00:00 IBM-fall\n"
    "1970-01-19 10:00:00 IBM-rise\n";

// A structure propagation refutes: the a->c path through b takes two weeks
// but the direct edge allows at most a day.
constexpr char kInconsistent[] =
    "a -> b : [1,1] week\n"
    "b -> c : [1,1] week\n"
    "a -> c : [0,1] day\n";

// The windowed stream session of the demo corpus, every non-root variable
// pinned (the CLI twin is the `stream` invocation `granmine_cli demo` prints).
server::StreamOpenCall DemoStreamOpen() {
  server::StreamOpenCall open;
  open.structure_text = kStructure;
  open.reference = "IBM-rise";
  open.window = "1209600";
  open.slide = "604800";
  open.pins = {"report=IBM-earnings-report", "hp=HP-rise", "fall=IBM-fall"};
  return open;
}

std::string TempPath(const char* name) {
  return testing::TempDir() + "granmine_server_" + name;
}

void WriteFile(const std::string& path, const std::string& content) {
  std::ofstream out(path, std::ios::binary | std::ios::trunc);
  out << content;
  ASSERT_TRUE(out.good()) << path;
}

struct CliRun {
  std::string out;
  int exit_code = -1;
};

// Runs the real granmine_cli binary, capturing stdout; stderr (stats,
// diagnostics) is discarded — the differential is the stdout contract.
CliRun RunCli(const std::string& args) {
  CliRun run;
  const std::string command =
      std::string(GRANMINE_CLI_BINARY) + " " + args + " 2>/dev/null";
  std::FILE* pipe = popen(command.c_str(), "r");
  if (pipe == nullptr) return run;
  char buffer[4096];
  std::size_t n;
  while ((n = std::fread(buffer, 1, sizeof(buffer), pipe)) > 0) {
    run.out.append(buffer, n);
  }
  const int status = pclose(pipe);
  if (WIFEXITED(status)) run.exit_code = WEXITSTATUS(status);
  return run;
}

// One engine + server per fixture; tests connect as many clients as they
// need. The engine freezes at Start, like production.
class ServerTest : public testing::Test {
 protected:
  void StartServer(EngineOptions engine_options = {},
                   ServerOptions server_options = {}) {
    auto engine = Engine::CreateGregorian(engine_options);
    ASSERT_TRUE(engine.ok()) << engine.status().ToString();
    engine_ = std::move(*engine);
    srv_ = std::make_unique<Server>(engine_.get(), server_options);
    Status started = srv_->Start();
    ASSERT_TRUE(started.ok()) << started.ToString();
  }

  std::unique_ptr<Client> Connect() {
    auto client = Client::Connect("127.0.0.1", srv_->port());
    EXPECT_TRUE(client.ok()) << client.status().ToString();
    return client.ok() ? std::move(*client) : nullptr;
  }

  void TearDown() override {
    if (srv_ != nullptr) srv_->Stop();
  }

  std::unique_ptr<Engine> engine_;
  std::unique_ptr<Server> srv_;
};

// --- Wire format ---------------------------------------------------------

// The layout constants pinned here are normative in docs/serving.md
// ("Frame layout"): 8-byte magic + u32 version preamble, then per frame
// u32 type | u32 flags | u64 corr | u64 len | u32 crc = 28 header bytes.
TEST(WireFormat, FrameLayoutMatchesSpec) {
  EXPECT_EQ(server::kMagicSize, 8u);
  EXPECT_EQ(server::kPreambleSize, 12u);
  EXPECT_EQ(server::kFrameHeaderSize, 28u);
  EXPECT_EQ(std::memcmp(server::kWireMagic, "GMRPC01\0", 8), 0);

  std::vector<std::uint8_t> bytes;
  const std::vector<std::uint8_t> payload = {0xAA, 0xBB, 0xCC};
  AppendFrame(&bytes, FrameType::kPing, /*corr_id=*/0x1122334455667788ull,
              payload);
  ASSERT_EQ(bytes.size(), server::kFrameHeaderSize + payload.size());
  // u32 type, little-endian, at offset 0.
  EXPECT_EQ(bytes[0], static_cast<std::uint8_t>(FrameType::kPing));
  EXPECT_EQ(bytes[1], 0u);
  // u32 flags at offset 4 — zero on the wire today.
  EXPECT_EQ(bytes[4], 0u);
  // u64 correlation id at offset 8.
  EXPECT_EQ(bytes[8], 0x88u);
  EXPECT_EQ(bytes[15], 0x11u);
  // u64 payload length at offset 16.
  EXPECT_EQ(bytes[16], payload.size());
  EXPECT_EQ(bytes[23], 0u);
  // Payload follows the 28-byte header.
  EXPECT_EQ(bytes[28], 0xAA);

  FrameParser parser;
  parser.Feed(bytes);
  auto frame = parser.Next();
  ASSERT_TRUE(frame.ok()) << frame.status().ToString();
  ASSERT_TRUE(frame->has_value());
  EXPECT_EQ((*frame)->type, FrameType::kPing);
  EXPECT_EQ((*frame)->corr_id, 0x1122334455667788ull);
  EXPECT_EQ((*frame)->payload, payload);
}

TEST(WireFormat, ParserSurvivesByteAtATimeDelivery) {
  server::CheckCall call;
  call.structure_text = kStructure;
  call.exact = true;
  std::vector<std::uint8_t> bytes;
  AppendFrame(&bytes, FrameType::kCheck, 7, EncodeCheckCall(call));
  AppendFrame(&bytes, FrameType::kPing, 8, {});

  FrameParser parser;
  std::vector<Frame> frames;
  for (std::uint8_t b : bytes) {
    parser.Feed(std::span<const std::uint8_t>(&b, 1));
    while (true) {
      auto next = parser.Next();
      ASSERT_TRUE(next.ok()) << next.status().ToString();
      if (!next->has_value()) break;
      frames.push_back(std::move(**next));
    }
  }
  ASSERT_EQ(frames.size(), 2u);
  EXPECT_EQ(frames[0].type, FrameType::kCheck);
  EXPECT_EQ(frames[0].corr_id, 7u);
  server::CheckCall decoded;
  ASSERT_TRUE(DecodeCheckCall(frames[0].payload, &decoded).ok());
  EXPECT_EQ(decoded.structure_text, call.structure_text);
  EXPECT_TRUE(decoded.exact);
  EXPECT_EQ(frames[1].type, FrameType::kPing);
  EXPECT_EQ(parser.buffered(), 0u);
  EXPECT_EQ(parser.consumed(), bytes.size());
}

// The parser's one buffer compacts its consumed prefix as frames leave it.
// A long pipelined stream of empty, small and near-bound frames, fed in
// seeded random chunks with frames pulled between feeds, must come out
// frame for frame, with the byte counters exact after every feed.
TEST(WireFormat, RandomFragmentationYieldsEveryFrameInOrder) {
  constexpr std::uint64_t kMaxPayload = 4096;
  constexpr std::size_t kFrames = 1200;
  std::mt19937_64 rng(18);
  std::vector<std::vector<std::uint8_t>> payloads;
  std::vector<std::uint64_t> frame_ends;  // stream offset after each frame
  std::vector<std::uint8_t> wire;
  for (std::size_t i = 0; i < kFrames; ++i) {
    std::size_t size = 0;
    switch (rng() % 3) {
      case 0:
        break;
      case 1:
        size = 1 + rng() % 64;
        break;
      default:
        size = kMaxPayload - rng() % 16;
        break;
    }
    std::vector<std::uint8_t> payload(size);
    for (std::uint8_t& b : payload) b = static_cast<std::uint8_t>(rng());
    AppendFrame(&wire, FrameType::kStreamIngest, i, payload);
    payloads.push_back(std::move(payload));
    frame_ends.push_back(wire.size());
  }

  FrameParser parser(kMaxPayload);
  std::size_t fed = 0;
  std::size_t next = 0;
  while (fed < wire.size()) {
    // Mostly chunks up to two frames long, sometimes slivers of a header.
    const std::size_t limit = rng() % 4 == 0 ? 8 : 2 * kMaxPayload;
    const std::size_t chunk = std::min(wire.size() - fed, 1 + rng() % limit);
    parser.Feed(std::span<const std::uint8_t>(wire).subspan(fed, chunk));
    fed += chunk;
    while (true) {
      auto frame = parser.Next();
      ASSERT_TRUE(frame.ok()) << frame.status().ToString();
      if (!frame->has_value()) break;
      ASSERT_LT(next, kFrames);
      EXPECT_EQ((*frame)->type, FrameType::kStreamIngest);
      EXPECT_EQ((*frame)->corr_id, next);
      EXPECT_EQ((*frame)->payload, payloads[next]) << "frame " << next;
      ++next;
    }
    const std::uint64_t consumed = next == 0 ? 0 : frame_ends[next - 1];
    ASSERT_EQ(parser.consumed(), consumed);
    ASSERT_EQ(parser.buffered(), fed - consumed);
    // What stays buffered is less than the next whole frame.
    if (next < kFrames) {
      ASSERT_LT(parser.buffered(), frame_ends[next] - consumed);
    }
  }
  EXPECT_EQ(next, kFrames);
  EXPECT_EQ(parser.consumed(), wire.size());
  EXPECT_EQ(parser.buffered(), 0u);
}

TEST(WireFormat, CrcFlipIsAProtocolErrorWithAnOffset) {
  std::vector<std::uint8_t> bytes;
  AppendFrame(&bytes, FrameType::kPing, 1, {{1, 2, 3, 4}});
  bytes.back() ^= 0x01;  // corrupt the payload under an already-stamped CRC
  FrameParser parser;
  parser.Feed(bytes);
  auto frame = parser.Next();
  ASSERT_FALSE(frame.ok());
  EXPECT_NE(frame.status().message().find("CRC mismatch"), std::string::npos)
      << frame.status().ToString();
  EXPECT_NE(frame.status().message().find("offset 0"), std::string::npos);
}

TEST(WireFormat, OversizedLengthIsAProtocolErrorNotAnAllocation) {
  std::vector<std::uint8_t> bytes;
  AppendFrame(&bytes, FrameType::kPing, 1, {});
  // Rewrite the length field to something absurd; the parser must reject on
  // the header alone, before any CRC or payload wait.
  bytes[16] = 0xFF;
  bytes[22] = 0xFF;
  FrameParser parser;
  parser.Feed(bytes);
  auto frame = parser.Next();
  ASSERT_FALSE(frame.ok());
  EXPECT_NE(frame.status().message().find("payload length"),
            std::string::npos)
      << frame.status().ToString();
}

// --- Loopback differential ----------------------------------------------

class ServerDifferentialTest : public ServerTest {
 protected:
  void SetUp() override {
    structure_path_ = TempPath("structure.txt");
    events_path_ = TempPath("events.txt");
    inconsistent_path_ = TempPath("inconsistent.txt");
    WriteFile(structure_path_, kStructure);
    WriteFile(events_path_, kEvents);
    WriteFile(inconsistent_path_, kInconsistent);
    StartServer();
  }

  // Asserts one served response against one CLI invocation: same stdout
  // bytes, same exit code.
  void ExpectMatchesCli(const Response& response, const std::string& cli_args) {
    ASSERT_NE(response.type, FrameType::kErrorReply)
        << response.error.message;
    const CliRun cli = RunCli(cli_args);
    ASSERT_GE(cli.exit_code, 0) << "could not run " GRANMINE_CLI_BINARY;
    EXPECT_EQ(response.out, cli.out) << "for: " << cli_args;
    EXPECT_EQ(response.exit_code, cli.exit_code) << "for: " << cli_args;
  }

  server::MineCall DemoMine() {
    server::MineCall call;
    call.structure_text = kStructure;
    call.events_text = kEvents;
    call.reference = "IBM-rise";
    call.confidence = "0.5";
    return call;
  }

  std::string MineArgs(const std::string& extra = "") {
    return "mine --structure " + structure_path_ + " --events " +
           events_path_ + " --reference IBM-rise --confidence 0.5" + extra;
  }

  std::string structure_path_;
  std::string events_path_;
  std::string inconsistent_path_;
};

TEST_F(ServerDifferentialTest, MineMatchesCliByteForByte) {
  auto client = Connect();
  ASSERT_NE(client, nullptr);

  auto plain = client->Mine(DemoMine());
  ASSERT_TRUE(plain.ok()) << plain.status().ToString();
  ExpectMatchesCli(*plain, MineArgs());
  EXPECT_FALSE(plain->out.empty());

  auto naive_call = DemoMine();
  naive_call.naive = true;
  auto naive = client->Mine(naive_call);
  ASSERT_TRUE(naive.ok());
  ExpectMatchesCli(*naive, MineArgs(" --naive"));
  // The optimized and naive pipelines must agree on the solution set — the
  // paper's differential — so the two replies share their solution lines.
  EXPECT_EQ(plain->out.substr(plain->out.find("solution(s)")),
            naive->out.substr(naive->out.find("solution(s)")));

  auto pinned_call = DemoMine();
  pinned_call.pins = {"report=IBM-earnings-report", "fall=IBM-fall"};
  auto pinned = client->Mine(pinned_call);
  ASSERT_TRUE(pinned.ok());
  ExpectMatchesCli(*pinned,
                   MineArgs(" --pin report=IBM-earnings-report"
                            " --pin fall=IBM-fall"));

  auto explain_call = DemoMine();
  explain_call.explain = true;
  auto explained = client->Mine(explain_call);
  ASSERT_TRUE(explained.ok());
  ExpectMatchesCli(*explained, MineArgs(" --explain"));
}

TEST_F(ServerDifferentialTest, MineErrorsCarryTheCliDiagnostics) {
  auto client = Connect();
  ASSERT_NE(client, nullptr);
  auto call = DemoMine();
  call.reference = "NO-SUCH-TYPE";
  auto response = client->Mine(call);
  ASSERT_TRUE(response.ok());
  const CliRun cli = RunCli(
      "mine --structure " + structure_path_ + " --events " + events_path_ +
      " --reference NO-SUCH-TYPE --confidence 0.5");
  EXPECT_EQ(response->exit_code, 65);
  EXPECT_EQ(response->exit_code, cli.exit_code);
  EXPECT_EQ(response->out, cli.out);
  EXPECT_NE(response->err.find("reference type 'NO-SUCH-TYPE' does not occur"),
            std::string::npos)
      << response->err;
}

TEST_F(ServerDifferentialTest, CheckAndDotMatchCli) {
  auto client = Connect();
  ASSERT_NE(client, nullptr);

  server::CheckCall check;
  check.structure_text = kStructure;
  auto approx = client->Check(check);
  ASSERT_TRUE(approx.ok());
  ExpectMatchesCli(*approx, "check --structure " + structure_path_);

  check.exact = true;
  auto exact = client->Check(check);
  ASSERT_TRUE(exact.ok());
  ExpectMatchesCli(*exact, "check --structure " + structure_path_ + " --exact");
  EXPECT_NE(exact->out.find("CONSISTENT (exact witness found"),
            std::string::npos);

  server::CheckCall bad;
  bad.structure_text = kInconsistent;
  auto refuted = client->Check(bad);
  ASSERT_TRUE(refuted.ok());
  ExpectMatchesCli(*refuted, "check --structure " + inconsistent_path_);
  EXPECT_EQ(refuted->exit_code, 1);

  server::DotCall dot;
  dot.structure_text = kStructure;
  auto graph = client->Dot(dot);
  ASSERT_TRUE(graph.ok());
  ExpectMatchesCli(*graph, "dot --structure " + structure_path_);

  dot.tag = true;
  auto tag = client->Dot(dot);
  ASSERT_TRUE(tag.ok());
  ExpectMatchesCli(*tag, "dot --structure " + structure_path_ + " --tag");
}

TEST_F(ServerDifferentialTest, StreamFramesMatchTheCliLoop) {
  auto client = Connect();
  ASSERT_NE(client, nullptr);

  auto opened = client->StreamOpen(DemoStreamOpen());
  ASSERT_TRUE(opened.ok()) << opened.status().ToString();
  ASSERT_EQ(opened->exit_code, 0) << opened->err;

  // Feed the demo events one line per frame; every ack's counters and
  // snapshot bytes are deterministic commits.
  std::string served_out = opened->out;
  std::uint64_t accepted = 0;
  std::istringstream events(kEvents);
  std::string line;
  while (std::getline(events, line)) {
    auto ack = client->StreamIngest(line + "\n");
    ASSERT_TRUE(ack.ok()) << ack.status().ToString();
    ASSERT_EQ(ack->type, FrameType::kStreamAck);
    ASSERT_EQ(ack->exit_code, 0) << ack->err;
    served_out += ack->out;
    accepted += ack->accepted;
  }
  EXPECT_EQ(accepted, 9u);

  auto sealed = client->StreamSeal();
  ASSERT_TRUE(sealed.ok());
  ASSERT_EQ(sealed->type, FrameType::kStreamAck);
  ASSERT_EQ(sealed->exit_code, 0) << sealed->err;
  // The seal ack reports session totals, not per-frame deltas.
  EXPECT_EQ(sealed->accepted, 9u);
  EXPECT_EQ(sealed->rejected_late, 0u);
  served_out += sealed->out;

  const CliRun cli = RunCli(
      "stream --structure " + structure_path_ + " --events " + events_path_ +
      " --reference IBM-rise --window 1209600 --slide 604800"
      " --pin report=IBM-earnings-report --pin hp=HP-rise"
      " --pin fall=IBM-fall");
  ASSERT_EQ(cli.exit_code, 0);
  EXPECT_EQ(served_out, cli.out);
}

// σ is a set: a stream whose --types pool repeats a type mines each
// candidate once, so it reports what the pool without the repeat reports.
TEST_F(ServerDifferentialTest, StreamWithARepeatedTypeReportsEachSolutionOnce) {
  auto client = Connect();
  ASSERT_NE(client, nullptr);
  const std::string types =
      "IBM-rise,IBM-fall,HP-rise,HP-fall,IBM-earnings-report";
  server::StreamOpenCall open;
  open.structure_text = kStructure;
  open.reference = "IBM-rise";
  open.window = "1209600";
  open.slide = "604800";
  open.types = types + ",IBM-fall";
  auto opened = client->StreamOpen(open);
  ASSERT_TRUE(opened.ok()) << opened.status().ToString();
  ASSERT_EQ(opened->exit_code, 0) << opened->err;
  std::string served_out = opened->out;
  auto ack = client->StreamIngest(kEvents);
  ASSERT_TRUE(ack.ok()) << ack.status().ToString();
  ASSERT_EQ(ack->exit_code, 0) << ack->err;
  served_out += ack->out;
  auto sealed = client->StreamSeal();
  ASSERT_TRUE(sealed.ok());
  ASSERT_EQ(sealed->exit_code, 0) << sealed->err;
  served_out += sealed->out;

  const std::string args = "stream --structure " + structure_path_ +
                           " --events " + events_path_ +
                           " --reference IBM-rise --window 1209600"
                           " --slide 604800 --types ";
  const CliRun repeated = RunCli(args + open.types);
  const CliRun distinct = RunCli(args + types);
  ASSERT_EQ(repeated.exit_code, 0);
  EXPECT_EQ(served_out, repeated.out);
  EXPECT_EQ(repeated.out, distinct.out);
  const std::string final_report =
      served_out.substr(served_out.find("final [end of stream]"));
  EXPECT_NE(final_report.find("solutions=1\n"), std::string::npos)
      << final_report;
}

// --- Protocol faults -----------------------------------------------------

TEST_F(ServerDifferentialTest, TornFramesReassemble) {
  auto client = Connect();
  ASSERT_NE(client, nullptr);

  server::CheckCall call;
  call.structure_text = kStructure;
  const Response expected = [&] {
    auto whole = client->Check(call);
    EXPECT_TRUE(whole.ok());
    return *whole;
  }();

  // The same request delivered one byte per write — the worst-case framing
  // the parser promises to survive (docs/serving.md, "Framing").
  std::vector<std::uint8_t> bytes;
  AppendFrame(&bytes, FrameType::kCheck, 99, EncodeCheckCall(call));
  for (std::uint8_t b : bytes) {
    ASSERT_TRUE(
        client->SendBytes(std::span<const std::uint8_t>(&b, 1)).ok());
  }
  auto frame = client->ReadFrame();
  ASSERT_TRUE(frame.ok()) << frame.status().ToString();
  EXPECT_EQ(frame->corr_id, 99u);
  server::ReplyBody reply;
  ASSERT_TRUE(DecodeReply(frame->payload, &reply).ok());
  EXPECT_EQ(reply.out, expected.out);
  EXPECT_EQ(reply.exit_code, expected.exit_code);
}

TEST_F(ServerDifferentialTest, CorruptedFrameIsFatal) {
  auto client = Connect();
  ASSERT_NE(client, nullptr);

  std::vector<std::uint8_t> bytes;
  AppendFrame(&bytes, FrameType::kPing, 5, {{9, 9, 9}});
  bytes.back() ^= 0x40;
  ASSERT_TRUE(client->SendBytes(bytes).ok());

  auto frame = client->ReadFrame();
  ASSERT_TRUE(frame.ok()) << frame.status().ToString();
  ASSERT_EQ(frame->type, FrameType::kErrorReply);
  server::ErrorBody error;
  ASSERT_TRUE(DecodeError(frame->payload, &error).ok());
  EXPECT_TRUE(error.fatal);
  EXPECT_FALSE(error.retryable);
  EXPECT_NE(error.message.find("CRC mismatch"), std::string::npos)
      << error.message;
  // The stream offset is unrecoverable: the server closes the connection.
  auto eof = client->ReadFrame();
  EXPECT_FALSE(eof.ok());
}

TEST_F(ServerDifferentialTest, UnknownFrameTypeIsSkippedNotFatal) {
  auto client = Connect();
  ASSERT_NE(client, nullptr);

  auto response = client->Call(static_cast<FrameType>(999), {});
  ASSERT_TRUE(response.ok()) << response.status().ToString();
  ASSERT_EQ(response->type, FrameType::kErrorReply);
  EXPECT_FALSE(response->error.fatal);
  EXPECT_EQ(response->error.status_code,
            static_cast<std::uint32_t>(StatusCode::kUnsupported));
  // Forward compatibility: the connection keeps serving after skipping the
  // unknown frame.
  EXPECT_TRUE(client->Ping().ok());
}

// A CRC-valid frame whose payload does not decode is a client codec bug,
// not a stream desync: a non-fatal kInvalidArgument reply that names the
// field and its offset inside the frame payload, counted as a decode error,
// and the connection keeps serving.
TEST_F(ServerDifferentialTest, MalformedPayloadIsANonFatalDecodeError) {
  auto client = Connect();
  ASSERT_NE(client, nullptr);
  obs::MetricsRegistry& registry = obs::MetricsRegistry::Global();
  const bool metrics_were_enabled = registry.enabled();
  registry.set_enabled(true);
  auto decode_errors = [&registry] {
    const obs::MetricsSnapshot snapshot = registry.Snapshot();
    const obs::MetricValue* metric = snapshot.Find(
        "granmine_server_frame_errors_total", "kind=\"decode\"");
    return metric != nullptr ? metric->value : 0;
  };
  [[maybe_unused]] const std::uint64_t decode_errors_before =
      decode_errors();

  // The u32 length prefix of the structure text, then only 6 of its bytes.
  std::vector<std::uint8_t> payload = EncodeMineCall(DemoMine());
  payload.resize(4 + 6);
  auto response = client->Call(FrameType::kMine, payload);
  ASSERT_TRUE(response.ok()) << response.status().ToString();
  ASSERT_EQ(response->type, FrameType::kErrorReply);
  EXPECT_FALSE(response->error.fatal);
  EXPECT_FALSE(response->error.retryable);
  EXPECT_EQ(response->error.status_code,
            static_cast<std::uint32_t>(StatusCode::kInvalidArgument));
  const std::string& message = response->error.message;
  EXPECT_NE(message.find("frame payload: truncated reading structure text"),
            std::string::npos)
      << message;
  EXPECT_NE(message.find("at byte offset 4"), std::string::npos) << message;
  EXPECT_EQ(message.find("snapshot"), std::string::npos) << message;
  EXPECT_EQ(srv_->frame_errors(), 1u);
#if GRANMINE_OBS_ENABLED
  EXPECT_EQ(decode_errors(), decode_errors_before + 1);
#endif
  EXPECT_TRUE(client->Ping().ok());
  registry.set_enabled(metrics_were_enabled);
}

TEST_F(ServerDifferentialTest, StatuszFrameRendersTheEngineStatus) {
  auto client = Connect();
  ASSERT_NE(client, nullptr);
  auto response = client->Statusz();
  ASSERT_TRUE(response.ok());
  ASSERT_NE(response->type, FrameType::kErrorReply);
  EXPECT_EQ(response->exit_code, 0);
  ASSERT_FALSE(response->out.empty());
  EXPECT_EQ(response->out.front(), '{');
  EXPECT_EQ(response->out.back(), '\n');
  EXPECT_NE(response->out.find("\"granularities\""), std::string::npos)
      << response->out;
}

// --- Overload ------------------------------------------------------------

TEST_F(ServerTest, AdmissionShedBecomesARetryableErrorFrame) {
  EngineOptions options;
  options.admission.enabled = true;
  StartServer(options);
  // Trip every admission check from the first arrival on: each request is
  // shed as an injected queue-full fault, deterministically.
  FaultInjector injector(GovernorScope::kGeneral, /*trip_index=*/0,
                         /*cancel_globally=*/false, FaultKind::kQueueFull);
  engine_->admission()->InstallFaultInjector(&injector);

  auto client = Connect();
  ASSERT_NE(client, nullptr);
  server::MineCall call;
  call.structure_text = kStructure;
  call.events_text = kEvents;
  call.reference = "IBM-rise";
  auto response = client->Mine(call);
  ASSERT_TRUE(response.ok()) << response.status().ToString();
  ASSERT_EQ(response->type, FrameType::kErrorReply);
  EXPECT_TRUE(response->error.retryable);
  EXPECT_FALSE(response->error.fatal);
  EXPECT_GE(response->error.backoff_ms, 1u);
  EXPECT_EQ(response->error.status_code,
            static_cast<std::uint32_t>(StatusCode::kResourceExhausted));
  EXPECT_NE(response->error.message.find("admission"), std::string::npos)
      << response->error.message;
  // A shed is not fatal: the connection still answers once the fault lifts.
  engine_->admission()->InstallFaultInjector(nullptr);
  EXPECT_TRUE(client->Ping().ok());
}

// --- Connection robustness -----------------------------------------------

// A client that disconnects with a reply still in flight must not kill
// the server. The crash shape: the peer stops reading mid-reply so the
// flush stalls with POLLOUT armed, then aborts (RST); the next poll
// reports POLLIN and POLLOUT together, the loop's read consumes the
// pending socket error, and the flush right after it writes to a
// clean-but-dead socket — which, without MSG_NOSIGNAL, raises SIGPIPE and
// terminates the whole process (this test included) under the default
// disposition.
TEST_F(ServerTest, ClientVanishingMidResponseDoesNotKillTheServer) {
  StartServer();
  // A dot request over a 40k-edge chain of long-named events: the ~10 MB
  // DOT reply overruns even a fully autotuned kernel send buffer
  // (tcp_wmem maxes out at a few MB), so the flush is guaranteed to stall
  // mid-reply with POLLOUT armed once we stop reading.
  server::DotCall call;
  call.structure_text.reserve(10u << 20);
  const std::string pad(96, 'x');
  for (int i = 0; i < 40000; ++i) {
    call.structure_text += "e" + std::to_string(i) + pad + " -> e" +
                           std::to_string(i + 1) + pad + " : [1,1] hour\n";
  }
  const int fd = ::socket(AF_INET, SOCK_STREAM, 0);
  ASSERT_GE(fd, 0);
  // A minimal receive window (set before connect), so the server can push
  // only a few KB of the reply into the kernel before its flush stalls.
  int tiny = 4096;
  ::setsockopt(fd, SOL_SOCKET, SO_RCVBUF, &tiny, sizeof(tiny));
  sockaddr_in addr{};
  addr.sin_family = AF_INET;
  addr.sin_port = htons(srv_->port());
  ASSERT_EQ(inet_pton(AF_INET, "127.0.0.1", &addr.sin_addr), 1);
  ASSERT_EQ(::connect(fd, reinterpret_cast<sockaddr*>(&addr), sizeof(addr)),
            0);
  std::vector<std::uint8_t> bytes;
  server::AppendPreamble(&bytes);
  AppendFrame(&bytes, FrameType::kDot, 1, EncodeDotCall(call));
  std::size_t sent = 0;
  while (sent < bytes.size()) {
    const ssize_t n =
        ::send(fd, bytes.data() + sent, bytes.size() - sent, MSG_NOSIGNAL);
    ASSERT_GT(n, 0) << std::strerror(errno);
    sent += static_cast<std::size_t>(n);
  }
  // Read just past the server's 12-byte preamble: one byte of the reply
  // proves the flush has started — with megabytes still queued behind our
  // tiny window — then never read again.
  std::uint8_t sliver[server::kPreambleSize + 1];
  std::size_t got = 0;
  while (got < sizeof(sliver)) {
    const ssize_t n = ::recv(fd, sliver + got, sizeof(sliver) - got, 0);
    ASSERT_GT(n, 0) << std::strerror(errno);
    got += static_cast<std::size_t>(n);
  }
  // Abort the connection: SO_LINGER{on, 0} turns close() into an
  // immediate RST while the server's outbox is still megabytes deep.
  std::this_thread::sleep_for(std::chrono::milliseconds(200));
  linger hard{1, 0};
  ::setsockopt(fd, SOL_SOCKET, SO_LINGER, &hard, sizeof(hard));
  ::close(fd);
  // Give the loop a beat to take the POLLIN|POLLOUT wakeup: read the RST,
  // then flush into the dead socket.
  std::this_thread::sleep_for(std::chrono::milliseconds(500));
  // The server survived the aborted connection and keeps serving.
  auto alive = Connect();
  ASSERT_NE(alive, nullptr);
  EXPECT_TRUE(alive->Ping().ok());
}

// Pipelining far past the per-connection cap must not lose or reorder
// frames: the loop stops reading the socket at max_pending_frames (plain
// TCP backpressure) and resumes as workers drain the queue, so every
// request is still answered, in order.
TEST_F(ServerTest, PipeliningBeyondThePendingCapStallsAndResumes) {
  ServerOptions tight;
  tight.max_pending_frames = 2;
  StartServer({}, tight);
  auto client = Connect();
  ASSERT_NE(client, nullptr);
  constexpr std::uint64_t kRequests = 24;
  std::vector<std::uint8_t> burst;
  for (std::uint64_t corr = 1; corr <= kRequests; ++corr) {
    AppendFrame(&burst, FrameType::kStatusz, corr, {});
  }
  ASSERT_TRUE(client->SendBytes(burst).ok());
  for (std::uint64_t corr = 1; corr <= kRequests; ++corr) {
    auto frame = client->ReadFrame();
    ASSERT_TRUE(frame.ok()) << frame.status().ToString();
    EXPECT_EQ(frame->type, FrameType::kReply);
    EXPECT_EQ(frame->corr_id, corr);
  }
}

// A peer whose buffered replies cross max_outbox_bytes is disconnected
// instead of growing the heap. The cap here is smaller than one statusz
// reply, so the overflow trips deterministically at enqueue time; bytes
// already staged may still flush, but the connection must not survive.
TEST_F(ServerTest, OutboxOverflowDisconnectsInsteadOfBuffering) {
  ServerOptions tight;
  tight.max_outbox_bytes = 64;
  StartServer({}, tight);
  auto client = Connect();
  ASSERT_NE(client, nullptr);
  std::vector<std::uint8_t> request;
  AppendFrame(&request, FrameType::kStatusz, 1, {});
  ASSERT_TRUE(client->SendBytes(request).ok());
  auto first = client->ReadFrame();
  if (first.ok()) {
    EXPECT_FALSE(client->ReadFrame().ok());
  }
}

// Start() claims the server under one critical section: racing Start()
// calls admit exactly one winner (no double-built sockets or thread
// pools), and the winner leaves a fully serving server behind.
TEST(ServerLifecycle, ConcurrentStartsAdmitExactlyOne) {
  auto engine = Engine::CreateGregorian({});
  ASSERT_TRUE(engine.ok()) << engine.status().ToString();
  Server server(engine->get(), ServerOptions{});
  std::atomic<int> started{0};
  std::vector<std::thread> racers;
  racers.reserve(4);
  for (int t = 0; t < 4; ++t) {
    racers.emplace_back([&] {
      if (server.Start().ok()) started.fetch_add(1);
    });
  }
  for (std::thread& racer : racers) racer.join();
  EXPECT_EQ(started.load(), 1);
  auto client = Client::Connect("127.0.0.1", server.port());
  ASSERT_TRUE(client.ok()) << client.status().ToString();
  EXPECT_TRUE((*client)->Ping().ok());
  server.Stop();
}

// --- Concurrency ---------------------------------------------------------

TEST_F(ServerDifferentialTest, FourClientsSoakWithIdenticalResponses) {
  auto reference_client = Connect();
  ASSERT_NE(reference_client, nullptr);
  const auto mine_call = DemoMine();
  server::CheckCall check_call;
  check_call.structure_text = kStructure;
  server::DotCall dot_call;
  dot_call.structure_text = kStructure;
  dot_call.tag = true;

  const Response expected_mine = *reference_client->Mine(mine_call);
  const Response expected_check = *reference_client->Check(check_call);
  const Response expected_dot = *reference_client->Dot(dot_call);
  ASSERT_FALSE(expected_mine.out.empty());

  constexpr int kThreads = 4;
  constexpr int kIterations = 8;
  std::atomic<int> mismatches{0};
  std::vector<std::thread> threads;
  threads.reserve(kThreads);
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([&] {
      auto client = Client::Connect("127.0.0.1", srv_->port());
      if (!client.ok()) {
        mismatches.fetch_add(100);
        return;
      }
      for (int i = 0; i < kIterations; ++i) {
        auto mine = (*client)->Mine(mine_call);
        auto check = (*client)->Check(check_call);
        auto dot = (*client)->Dot(dot_call);
        if (!mine.ok() || mine->out != expected_mine.out ||
            mine->exit_code != expected_mine.exit_code) {
          mismatches.fetch_add(1);
        }
        if (!check.ok() || check->out != expected_check.out) {
          mismatches.fetch_add(1);
        }
        if (!dot.ok() || dot->out != expected_dot.out) {
          mismatches.fetch_add(1);
        }
      }
    });
  }
  for (std::thread& thread : threads) thread.join();
  EXPECT_EQ(mismatches.load(), 0);
  EXPECT_GE(srv_->connections_accepted(), 5u);
  EXPECT_GE(srv_->frames_dispatched(),
            static_cast<std::uint64_t>(kThreads * kIterations * 3));
  EXPECT_EQ(srv_->frame_errors(), 0u);
}

// One stream session over the demo events, one line per ingest frame: every
// reply's stdout concatenated, or "" when any frame fails.
std::string StreamTranscript(Client* client) {
  auto opened = client->StreamOpen(DemoStreamOpen());
  if (!opened.ok() || opened->exit_code != 0) return "";
  std::string transcript = opened->out;
  std::istringstream events(kEvents);
  std::string line;
  while (std::getline(events, line)) {
    auto ack = client->StreamIngest(line + "\n");
    if (!ack.ok() || ack->exit_code != 0) return "";
    transcript += ack->out;
  }
  auto sealed = client->StreamSeal();
  if (!sealed.ok() || sealed->exit_code != 0) return "";
  return transcript + sealed->out;
}

// The soak on an engine with a 2-thread pool and no admission: both
// dispatch workers reach the one shared Executor at once, and one client's
// stream snapshots borrow it too. Every reply equals the single-threaded
// reference.
TEST_F(ServerDifferentialTest, FourClientsSoakOnOneSharedPool) {
  auto reference_client = Connect();
  ASSERT_NE(reference_client, nullptr);
  const auto mine_call = DemoMine();
  server::CheckCall check_call;
  check_call.structure_text = kStructure;
  const Response expected_mine = *reference_client->Mine(mine_call);
  const Response expected_check = *reference_client->Check(check_call);
  const std::string expected_stream =
      StreamTranscript(reference_client.get());
  ASSERT_FALSE(expected_mine.out.empty());
  ASSERT_FALSE(expected_stream.empty());
  reference_client.reset();
  srv_->Stop();
  srv_.reset();
  engine_.reset();

  EngineOptions pooled;
  pooled.num_threads = 2;
  StartServer(pooled);
  ASSERT_NE(engine_->executor(), nullptr);
  ASSERT_EQ(engine_->admission(), nullptr);

  constexpr int kThreads = 4;
  constexpr int kIterations = 8;
  std::atomic<int> mismatches{0};
  std::vector<std::thread> threads;
  threads.reserve(kThreads);
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([&, t] {
      auto client = Client::Connect("127.0.0.1", srv_->port());
      if (!client.ok()) {
        mismatches.fetch_add(100);
        return;
      }
      for (int i = 0; i < kIterations; ++i) {
        auto mine = (*client)->Mine(mine_call);
        auto check = (*client)->Check(check_call);
        if (!mine.ok() || mine->out != expected_mine.out ||
            mine->exit_code != expected_mine.exit_code) {
          mismatches.fetch_add(1);
        }
        if (!check.ok() || check->out != expected_check.out) {
          mismatches.fetch_add(1);
        }
        if (t == 0 && StreamTranscript(client->get()) != expected_stream) {
          mismatches.fetch_add(1);
        }
      }
    });
  }
  for (std::thread& thread : threads) thread.join();
  EXPECT_EQ(mismatches.load(), 0);
  EXPECT_EQ(srv_->frame_errors(), 0u);
}

}  // namespace
}  // namespace granmine
