#ifndef PERFBENCH_LOAD_WORKLOAD_H_
#define PERFBENCH_LOAD_WORKLOAD_H_

// The benchmark's request pools. Every pool is generated from
// src/granmine/sequence/generators.h (the Example-1 stock workload) and is a
// pure function of the workload settings and the seed. Before anything is
// timed, the expected reply bytes of every request are computed in-process
// on a second engine, so every reply the server sends can be checked.

#include <cstdint>
#include <span>
#include <string>
#include <vector>

#include "granmine/common/result.h"
#include "granmine/engine/engine.h"
#include "granmine/server/wire.h"

namespace perfbench {

/// The Example-1 structure of the paper (tests/server_test.cc kStructure).
inline constexpr char kStructure[] =
    "rise -> report : [1,1] b-day\n"
    "report -> fall : [0,1] week\n"
    "rise -> hp     : [0,5] b-day\n"
    "hp -> fall     : [0,8] hour\n";
inline constexpr char kReference[] = "IBM-rise";

/// One workload's generator settings, parsed from a "key=value ..." spec.
/// Keys: days, confidence (mine), connections, pool, rate_rps (open loop
/// only), types, theta, window_s, slide_s, frame_lines (stream only).
struct Settings {
  std::string name;
  bool stream = false;
  int trading_days = 0;
  std::string confidence;
  int connections = 0;
  int pool = 0;
  double rate_rps = 0;  ///< 0 = closed loop
  std::string types;
  std::string theta;
  std::string window_s;
  std::string slide_s;
  int frame_lines = 0;
};

granmine::Result<Settings> ParseSettings(const std::string& name,
                                         const std::string& spec);

struct MineItem {
  granmine::server::MineCall call;
  std::vector<std::uint8_t> request;   ///< encoded kMine payload
  std::vector<std::uint8_t> expected;  ///< canonical kReply payload
};

/// One stream session: open, `frames` as kStreamIngest frames, seal.
struct StreamItem {
  granmine::server::StreamOpenCall open;
  std::vector<std::uint8_t> open_request;  ///< encoded kStreamOpen payload
  std::vector<std::string> frames;         ///< event-file lines per frame
  std::vector<std::uint8_t> expected_open;  ///< canonical kReply payload
  std::vector<std::vector<std::uint8_t>> expected_acks;  ///< one per frame
  std::vector<std::uint8_t> expected_seal;  ///< kStreamAck payload
};

struct Pool {
  std::vector<MineItem> mines;
  std::vector<StreamItem> sessions;
};

/// Generates the pool for `settings` from `seed` (deterministic).
Pool BuildPool(const Settings& settings, std::uint64_t seed,
               const granmine::GranularitySystem& system);

/// Serves every pool request in-process on `engine`, from `threads` threads,
/// and stores the expected reply bytes. Fails when any request does not
/// succeed (exit code 0, no late events): the workloads are defined to have
/// no failures.
granmine::Status ComputeExpectations(granmine::Engine* engine, Pool* pool,
                                     int threads);

/// Canonical form of a reply payload: kReply bodies are re-encoded with the
/// number in the stats line's "elapsed N ms" replaced by "*" (the only
/// timing-dependent reply bytes); every other payload is returned as is.
/// Returns false when a kReply payload does not decode.
bool CanonicalPayload(granmine::server::FrameType type,
                      std::span<const std::uint8_t> payload,
                      std::vector<std::uint8_t>* out);

/// Canonical kReply payload for an in-process service result.
std::vector<std::uint8_t> CanonicalReply(std::int32_t exit_code,
                                         const std::string& out,
                                         const std::string& err,
                                         const std::string& diag);

/// Engine options for the in-process engine: the server's --threads, read
/// with the parser granmine_serve uses. Admission stays off in-process, so
/// expectations can be computed from several threads at once; the admission
/// layer is measured over the wire.
granmine::Result<granmine::EngineOptions> EngineOptionsForServerFlags(
    const std::vector<std::string>& flags);

}  // namespace perfbench

#endif  // PERFBENCH_LOAD_WORKLOAD_H_
