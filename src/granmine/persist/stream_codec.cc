#include "granmine/persist/stream_codec.h"

#include <algorithm>
#include <utility>

#include "granmine/obs/obs.h"
#include "granmine/persist/bytes.h"

namespace granmine::persist {

namespace {

/// Bumped when the kStreamSession payload layout changes. Separate from the
/// container's format version: the container frames stay readable, only
/// this one section becomes Unsupported.
constexpr std::uint32_t kStreamSessionVersion = 1;

void EncodeStats(Encoder* enc, const MatchStats& stats) {
  enc->PutU64(stats.configurations);
  enc->PutU64(stats.peak_frontier);
  enc->PutU64(stats.events_scanned);
  enc->PutU64(stats.transitions);
  enc->PutU64(stats.groups_advanced);
  enc->PutU8(stats.budget_exhausted ? 1 : 0);
  enc->PutI32(static_cast<std::int32_t>(stats.stopped));
}

Status DecodeStats(Decoder* dec, MatchStats* stats) {
  std::uint64_t peak = 0;
  std::uint8_t exhausted = 0;
  std::int32_t stopped = 0;
  GM_RETURN_NOT_OK(dec->GetU64("stats configurations",
                               &stats->configurations));
  GM_RETURN_NOT_OK(dec->GetU64("stats peak frontier", &peak));
  GM_RETURN_NOT_OK(dec->GetU64("stats events scanned",
                               &stats->events_scanned));
  GM_RETURN_NOT_OK(dec->GetU64("stats transitions", &stats->transitions));
  GM_RETURN_NOT_OK(dec->GetU64("stats groups advanced",
                               &stats->groups_advanced));
  GM_RETURN_NOT_OK(dec->GetU8("stats budget flag", &exhausted));
  GM_RETURN_NOT_OK(dec->GetI32("stats stop cause", &stopped));
  if (exhausted > 1) return dec->Corrupt("stats budget flag is not boolean");
  if (stopped < static_cast<std::int32_t>(StopCause::kNone) ||
      stopped > static_cast<std::int32_t>(StopCause::kDegraded)) {
    return dec->Corrupt("stats stop cause " + std::to_string(stopped) +
                        " is out of range");
  }
  stats->peak_frontier = static_cast<std::size_t>(peak);
  stats->budget_exhausted = exhausted != 0;
  stats->stopped = static_cast<StopCause>(stopped);
  return Status::OK();
}

}  // namespace

std::vector<std::uint8_t> StreamSessionCodec::Encode(const OnlineMiner& miner) {
  Encoder enc;
  enc.PutU32(kStreamSessionVersion);

  // Fingerprint of the static configuration: restore re-derives everything
  // else from (system, problem, options), so this is what must match.
  enc.PutI64(miner.options_.tolerance);
  enc.PutI64(miner.options_.retention);
  enc.PutU64(miner.options_.max_candidates);
  enc.PutU64(miner.options_.max_configurations_per_run);
  enc.PutI32(static_cast<std::int32_t>(miner.root_));
  enc.PutU8(miner.consistent_ ? 1 : 0);
  enc.PutI32(miner.type_count_);
  enc.PutU64(miner.candidates_before_);
  enc.PutI32(miner.problem_.reference_type);

  // Ingestor: watermark frontier, counters, and the live reorder buffer.
  const StreamIngestor& ingestor = miner.ingestor_;
  enc.PutI64(ingestor.tracker_.max_seen_);
  enc.PutU8(ingestor.tracker_.any_ ? 1 : 0);
  enc.PutU8(ingestor.tracker_.sealed_ ? 1 : 0);
  enc.PutU64(ingestor.late_events_);
  enc.PutU64(ingestor.shed_events_);
  enc.PutU64(ingestor.events_.size() - ingestor.head_);
  for (std::size_t i = ingestor.head_; i < ingestor.events_.size(); ++i) {
    enc.PutI32(ingestor.events_[i].type);
    enc.PutI64(ingestor.events_[i].time);
  }

  // Core accounting: the committed-group records retention needs.
  const OnlineMiner::Core& core = miner.core_;
  enc.PutU64(core.raw_events);
  enc.PutU64(core.raw_roots);
  enc.PutU64(core.reduced_events);
  enc.PutU64(core.groups.size());
  for (std::size_t i = 0; i < core.groups.size(); ++i) {
    const OnlineMiner::GroupRecord& record = core.groups[i];
    enc.PutI64(record.time);
    enc.PutU64(record.raw);
    enc.PutU64(record.raw_roots);
    enc.PutU64(record.reduced);
  }

  enc.PutU8(core.matcher.has_value() ? 1 : 0);
  if (!core.matcher.has_value()) return enc.buffer();

  // Resident runs. Frontier rows are stored in canonical (state, resets)
  // order, so writing them as stored makes the same session state always
  // encode to the same bytes and checkpoint files compare directly.
  const IncrementalMatcher& matcher = *core.matcher;
  const std::size_t width = matcher.kernel_.row_width();
  enc.PutU64(matcher.kernel_.clock_count());
  enc.PutU64(matcher.candidate_count_);
  enc.PutU64(matcher.roots_.size());
  for (std::size_t r = 0; r < matcher.roots_.size(); ++r) {
    const RootRuns& root = matcher.roots_[r];
    enc.PutI64(root.t0);
    enc.PutI64(root.deadline);
    enc.PutU64(root.pending);
    for (const ResidentRun& slot : root.slots) {
      enc.PutU8(static_cast<std::uint8_t>(slot.verdict));
      EncodeStats(&enc, slot.stats);
      enc.PutU8(slot.run.seeded ? 1 : 0);
      const std::vector<std::int64_t>& frontier = slot.run.frontier;
      enc.PutU64(frontier.size() / width);
      for (std::size_t at = 0; at < frontier.size(); at += width) {
        enc.PutI32(static_cast<std::int32_t>(frontier[at]));
        for (std::size_t c = 1; c < width; ++c) enc.PutI64(frontier[at + c]);
      }
    }
  }
  return enc.buffer();
}

Status StreamSessionCodec::Decode(const Section& section, OnlineMiner* miner) {
  if (section.type != SectionType::kStreamSession) {
    return Status::Internal("Decode called on a non-stream-session section");
  }
  Decoder dec(section.payload, section.payload_offset);
  std::uint32_t version = 0;
  GM_RETURN_NOT_OK(dec.GetU32("stream-session version", &version));
  if (version != kStreamSessionVersion) {
    return Status::Unsupported("stream-session payload version " +
                               std::to_string(version) +
                               " is not supported (this build reads version " +
                               std::to_string(kStreamSessionVersion) + ")");
  }

  struct Fingerprint {
    std::int64_t tolerance, retention;
    std::uint64_t max_candidates, max_configurations;
    std::int32_t root;
    std::uint8_t consistent;
    std::int32_t type_count;
    std::uint64_t candidates_before;
    std::int32_t reference_type;
  } fp{};
  GM_RETURN_NOT_OK(dec.GetI64("fingerprint tolerance", &fp.tolerance));
  GM_RETURN_NOT_OK(dec.GetI64("fingerprint retention", &fp.retention));
  GM_RETURN_NOT_OK(dec.GetU64("fingerprint candidate cap",
                              &fp.max_candidates));
  GM_RETURN_NOT_OK(dec.GetU64("fingerprint configuration cap",
                              &fp.max_configurations));
  GM_RETURN_NOT_OK(dec.GetI32("fingerprint root", &fp.root));
  GM_RETURN_NOT_OK(dec.GetU8("fingerprint consistency", &fp.consistent));
  GM_RETURN_NOT_OK(dec.GetI32("fingerprint type count", &fp.type_count));
  GM_RETURN_NOT_OK(dec.GetU64("fingerprint candidate count",
                              &fp.candidates_before));
  GM_RETURN_NOT_OK(dec.GetI32("fingerprint reference type",
                              &fp.reference_type));
  if (fp.consistent > 1) {
    return dec.Corrupt("fingerprint consistency flag is not boolean");
  }
  if (fp.tolerance != miner->options_.tolerance ||
      fp.retention != miner->options_.retention ||
      fp.max_candidates != miner->options_.max_candidates ||
      fp.max_configurations != miner->options_.max_configurations_per_run ||
      fp.root != static_cast<std::int32_t>(miner->root_) ||
      (fp.consistent != 0) != miner->consistent_ ||
      fp.type_count != miner->type_count_ ||
      fp.candidates_before != miner->candidates_before_ ||
      fp.reference_type != miner->problem_.reference_type) {
    return Status::Invalid(
        "stream checkpoint fingerprint does not match this session's "
        "problem/options; refusing to install state from a different "
        "configuration (payload at byte offset " +
        std::to_string(section.payload_offset) + ")");
  }

  StreamIngestor& ingestor = miner->ingestor_;
  std::uint8_t any = 0, sealed = 0;
  GM_RETURN_NOT_OK(dec.GetI64("watermark max seen",
                              &ingestor.tracker_.max_seen_));
  GM_RETURN_NOT_OK(dec.GetU8("watermark any flag", &any));
  GM_RETURN_NOT_OK(dec.GetU8("watermark sealed flag", &sealed));
  if (any > 1 || sealed > 1) {
    return dec.Corrupt("watermark flag is not boolean");
  }
  ingestor.tracker_.any_ = any != 0;
  ingestor.tracker_.sealed_ = sealed != 0;
  GM_RETURN_NOT_OK(dec.GetU64("late-event counter", &ingestor.late_events_));
  GM_RETURN_NOT_OK(dec.GetU64("shed-event counter", &ingestor.shed_events_));
  std::uint64_t buffered = 0;
  GM_RETURN_NOT_OK(dec.GetU64("buffered-event count", &buffered));
  if (buffered > dec.remaining() / 12) {
    return dec.Corrupt("buffered-event count " + std::to_string(buffered) +
                       " exceeds payload");
  }
  ingestor.events_.clear();
  ingestor.head_ = 0;
  ingestor.events_.reserve(static_cast<std::size_t>(buffered));
  for (std::uint64_t i = 0; i < buffered; ++i) {
    Event event;
    GM_RETURN_NOT_OK(dec.GetI32("buffered event type", &event.type));
    GM_RETURN_NOT_OK(dec.GetI64("buffered event time", &event.time));
    ingestor.events_.push_back(event);
  }

  OnlineMiner::Core& core = miner->core_;
  std::uint64_t raw_events = 0, raw_roots = 0, reduced_events = 0;
  std::uint64_t group_count = 0;
  GM_RETURN_NOT_OK(dec.GetU64("raw-event counter", &raw_events));
  GM_RETURN_NOT_OK(dec.GetU64("raw-root counter", &raw_roots));
  GM_RETURN_NOT_OK(dec.GetU64("reduced-event counter", &reduced_events));
  GM_RETURN_NOT_OK(dec.GetU64("group-record count", &group_count));
  if (group_count > dec.remaining() / 32) {
    return dec.Corrupt("group-record count " + std::to_string(group_count) +
                       " exceeds payload");
  }
  core.raw_events = static_cast<std::size_t>(raw_events);
  core.raw_roots = static_cast<std::size_t>(raw_roots);
  core.reduced_events = static_cast<std::size_t>(reduced_events);
  core.groups.clear();
  for (std::uint64_t i = 0; i < group_count; ++i) {
    OnlineMiner::GroupRecord record;
    std::uint64_t raw = 0, roots = 0, reduced = 0;
    GM_RETURN_NOT_OK(dec.GetI64("group time", &record.time));
    GM_RETURN_NOT_OK(dec.GetU64("group raw count", &raw));
    GM_RETURN_NOT_OK(dec.GetU64("group root count", &roots));
    GM_RETURN_NOT_OK(dec.GetU64("group reduced count", &reduced));
    record.raw = static_cast<std::size_t>(raw);
    record.raw_roots = static_cast<std::size_t>(roots);
    record.reduced = static_cast<std::size_t>(reduced);
    core.groups.push_back(record);
  }

  std::uint8_t has_matcher = 0;
  GM_RETURN_NOT_OK(dec.GetU8("matcher presence flag", &has_matcher));
  if (has_matcher > 1) {
    return dec.Corrupt("matcher presence flag is not boolean");
  }
  if ((has_matcher != 0) != core.matcher.has_value()) {
    return dec.Corrupt("matcher presence disagrees with the re-derived "
                       "propagation verdict");
  }
  if (has_matcher == 0) return dec.ExpectEnd("stream session");

  IncrementalMatcher& matcher = *core.matcher;
  std::uint64_t clock_count = 0, candidate_count = 0, root_count = 0;
  GM_RETURN_NOT_OK(dec.GetU64("clock count", &clock_count));
  GM_RETURN_NOT_OK(dec.GetU64("candidate count", &candidate_count));
  GM_RETURN_NOT_OK(dec.GetU64("resident-root count", &root_count));
  if (clock_count != matcher.kernel_.clock_count()) {
    return dec.Corrupt("checkpoint clock count " +
                       std::to_string(clock_count) +
                       " disagrees with the re-derived TAG");
  }
  if (candidate_count != matcher.candidate_count_) {
    return dec.Corrupt("checkpoint candidate count " +
                       std::to_string(candidate_count) +
                       " disagrees with the re-derived candidate space");
  }
  if (root_count > dec.remaining() / 24) {
    return dec.Corrupt("resident-root count " + std::to_string(root_count) +
                       " exceeds payload");
  }
  const int state_count = matcher.kernel_.tag().state_count();
  matcher.roots_.clear();
  for (std::uint64_t r = 0; r < root_count; ++r) {
    RootRuns root;
    std::uint64_t pending = 0;
    GM_RETURN_NOT_OK(dec.GetI64("root t0", &root.t0));
    GM_RETURN_NOT_OK(dec.GetI64("root deadline", &root.deadline));
    GM_RETURN_NOT_OK(dec.GetU64("root pending count", &pending));
    if (pending > candidate_count) {
      return dec.Corrupt("root pending count exceeds the candidate count");
    }
    root.pending = static_cast<std::size_t>(pending);
    root.slots.resize(static_cast<std::size_t>(candidate_count));
    for (ResidentRun& slot : root.slots) {
      std::uint8_t verdict = 0, seeded = 0;
      GM_RETURN_NOT_OK(dec.GetU8("run verdict", &verdict));
      if (verdict > static_cast<std::uint8_t>(RunVerdict::kUnknown)) {
        return dec.Corrupt("run verdict " + std::to_string(verdict) +
                           " is out of range");
      }
      slot.verdict = static_cast<RunVerdict>(verdict);
      GM_RETURN_NOT_OK(DecodeStats(&dec, &slot.stats));
      GM_RETURN_NOT_OK(dec.GetU8("run seeded flag", &seeded));
      if (seeded > 1) return dec.Corrupt("run seeded flag is not boolean");
      slot.run.seeded = seeded != 0;
      std::uint64_t frontier = 0;
      GM_RETURN_NOT_OK(dec.GetU64("frontier size", &frontier));
      if (frontier > dec.remaining() / (4 + clock_count * 8)) {
        return dec.Corrupt("frontier size " + std::to_string(frontier) +
                           " exceeds payload");
      }
      // Rows must arrive strictly increasing in (state, resets) order — the
      // order every writer emits and the kernel's closure relies on; this
      // also rules out duplicates.
      const std::size_t width = static_cast<std::size_t>(clock_count) + 1;
      std::vector<std::int64_t>& rows = slot.run.frontier;
      rows.reserve(static_cast<std::size_t>(frontier) * width);
      for (std::uint64_t c = 0; c < frontier; ++c) {
        std::int32_t state = 0;
        GM_RETURN_NOT_OK(dec.GetI32("config state", &state));
        if (state < 0 || state >= state_count) {
          return dec.Corrupt("config state " + std::to_string(state) +
                             " is not a state of the re-derived TAG");
        }
        rows.push_back(state);
        for (std::size_t i = 1; i < width; ++i) {
          std::int64_t reset = 0;
          GM_RETURN_NOT_OK(dec.GetI64("config reset", &reset));
          rows.push_back(reset);
        }
        const auto row = rows.end() - static_cast<std::ptrdiff_t>(width);
        if (c > 0 && !std::lexicographical_compare(
                         row - static_cast<std::ptrdiff_t>(width), row, row,
                         rows.end())) {
          return dec.Corrupt(
              "frontier configurations are not in strictly increasing "
              "(state, resets) order");
        }
      }
    }
    matcher.roots_.push_back(std::move(root));
  }
  return dec.ExpectEnd("stream session");
}

Status SaveStreamCheckpoint(const OnlineMiner& miner, const std::string& path,
                            SnapshotIoOptions io) {
  GM_TRACE_SPAN("persist_save_checkpoint");
  GM_ASSIGN_OR_RETURN(std::unique_ptr<AtomicFileSink> sink,
                      AtomicFileSink::Open(path));
  SnapshotWriter writer(sink.get(), io);
  GM_RETURN_NOT_OK(writer.WriteHeader());
  GM_RETURN_NOT_OK(writer.WriteSection(SectionType::kStreamSession,
                                       StreamSessionCodec::Encode(miner)));
  GM_RETURN_NOT_OK(writer.Finish());
  GM_RETURN_NOT_OK(sink->Commit());
  GM_COUNTER_ADD("granmine_persist_checkpoints_total", "", 1);
  return Status::OK();
}

Result<OnlineMiner> RestoreStreamCheckpoint(GranularitySystem* system,
                                            const DiscoveryProblem& problem,
                                            OnlineMinerOptions options,
                                            const std::string& path,
                                            SnapshotIoOptions io) {
  GM_TRACE_SPAN("persist_restore_checkpoint");
  GM_ASSIGN_OR_RETURN(std::unique_ptr<FileSource> source,
                      FileSource::Open(path));
  GM_ASSIGN_OR_RETURN(std::vector<Section> sections,
                      ReadAllSections(source.get(), io));
  const Section* session = nullptr;
  for (const Section& section : sections) {
    if (section.type == SectionType::kStreamSession) {
      session = &section;
      break;
    }
  }
  if (session == nullptr) {
    return Status::Invalid("snapshot '" + path +
                           "' carries no stream-session section");
  }
  GM_ASSIGN_OR_RETURN(OnlineMiner miner,
                      OnlineMiner::Create(system, problem, options));
  GM_RETURN_NOT_OK(StreamSessionCodec::Decode(*session, &miner));
  GM_COUNTER_ADD("granmine_persist_restores_total", "", 1);
  return miner;
}

}  // namespace granmine::persist
