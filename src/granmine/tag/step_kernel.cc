#include "granmine/tag/step_kernel.h"

#include <algorithm>
#include <atomic>
#include <optional>

#include "granmine/common/check.h"

namespace granmine {

namespace {

std::atomic<std::uint64_t> next_kernel_id{1};

// Timestamps a scratch's tick memo holds before it starts over; bounds the
// memo of a long-lived scratch (a stream worker) without ever mattering to
// a request-sized scan.
constexpr std::size_t kTickMemoCap = std::size_t{1} << 14;

std::uint64_t Mix(std::uint64_t h) {
  h ^= h >> 33;
  h *= 0xff51afd7ed558ccdULL;
  h ^= h >> 33;
  return h;
}

std::uint64_t HashRow(const std::int64_t* row, std::size_t width) {
  std::uint64_t h = 0x9e3779b97f4a7c15ULL;
  for (std::size_t i = 0; i < width; ++i) {
    h = (h ^ static_cast<std::uint64_t>(row[i])) * 0x100000001b3ULL;
  }
  return Mix(h);
}

// Rebuilds an open-addressing table of `count` entries at twice its size;
// `hash_of(i)` hashes entry i.
template <typename HashOf>
void Regrow(std::vector<std::uint32_t>* table, std::size_t count,
            HashOf hash_of) {
  table->assign(table->size() * 2, 0);
  const std::size_t mask = table->size() - 1;
  for (std::size_t i = 0; i < count; ++i) {
    std::size_t slot = hash_of(i) & mask;
    while ((*table)[slot] != 0) slot = (slot + 1) & mask;
    (*table)[slot] = static_cast<std::uint32_t>(i + 1);
  }
}

}  // namespace

TagKernel::TagKernel(const Tag* tag)
    : tag_(tag), id_(next_kernel_id.fetch_add(1, std::memory_order_relaxed)) {
  GM_CHECK(tag_ != nullptr);
  for (const Tag::Clock& clock : tag_->clocks()) {
    auto it = std::find(granularities_.begin(), granularities_.end(),
                        clock.granularity);
    if (it == granularities_.end()) {
      granularities_.push_back(clock.granularity);
      clock_granularity_.push_back(
          static_cast<int>(granularities_.size()) - 1);
    } else {
      clock_granularity_.push_back(
          static_cast<int>(it - granularities_.begin()));
    }
  }
  const int clocks = static_cast<int>(clock_count());
  step_begin_.push_back(0);
  for (int state = 0; state < tag_->state_count(); ++state) {
    for (int t_index : tag_->OutgoingOf(state)) {
      const Tag::Transition& tr = tag_->transitions()[t_index];
      if (tr.symbol == kAnySymbol) continue;  // skips are absorbed implicitly
      // Valuation rows are indexed by clock without further checks.
      for (int c : tr.guard.MentionedClocks()) GM_CHECK(c < clocks);
      for (int c : tr.resets) GM_CHECK(c >= 0 && c < clocks);
      GM_CHECK(tr.symbol >= 0);
      binding_width_ = std::max(binding_width_,
                                static_cast<std::size_t>(tr.symbol) + 1);
      steps_.push_back(Step{tr.to, tr.symbol, tag_->IsAccepting(tr.to),
                            CompiledGuard(tr.guard), tr.resets});
    }
    step_begin_.push_back(static_cast<std::uint32_t>(steps_.size()));
  }
  start_states_ = tag_->start_states();
  std::sort(start_states_.begin(), start_states_.end());
}

const std::int64_t* TagKernel::TicksAt(TimePoint time,
                                       TagKernelScratch* scratch) const {
  const std::size_t width = granularities_.size();
  if (width == 0) return nullptr;
  std::vector<TimePoint>& times = scratch->tick_times;
  std::vector<std::int64_t>& rows = scratch->tick_rows;
  std::vector<std::uint32_t>& table = scratch->tick_table;
  if (scratch->tick_kernel != id_ || times.size() >= kTickMemoCap) {
    scratch->tick_kernel = id_;
    times.clear();
    rows.clear();
    table.assign(64, 0);
  }
  const std::size_t mask = table.size() - 1;
  std::size_t slot = Mix(static_cast<std::uint64_t>(time)) & mask;
  for (; table[slot] != 0; slot = (slot + 1) & mask) {
    const std::size_t index = table[slot] - 1;
    if (times[index] == time) return rows.data() + index * width;
  }
  const std::size_t index = times.size();
  times.push_back(time);
  for (const Granularity* granularity : granularities_) {
    std::optional<Tick> tick = granularity->TickContaining(time);
    rows.push_back(tick.has_value() ? *tick : kUndefinedTick);
  }
  table[slot] = static_cast<std::uint32_t>(index + 1);
  if (times.size() * 2 > table.size()) {
    Regrow(&table, times.size(), [&](std::size_t i) {
      return Mix(static_cast<std::uint64_t>(times[i]));
    });
  }
  return rows.data() + index * width;
}

void TagKernel::ClockValues(const std::int64_t* row, const std::int64_t* now,
                            TagKernelScratch* scratch) const {
  for (std::size_t c = 0; c < clock_granularity_.size(); ++c) {
    const std::int64_t reset = row[1 + c];
    const std::int64_t tick = now[clock_granularity_[c]];
    scratch->values[c] = (reset == kUndefinedTick || tick == kUndefinedTick)
                             ? CompiledGuard::kUndefined
                             : tick - reset;
  }
}

TagKernel::GroupOutcome TagKernel::AdvanceGroup(
    std::span<const Event> group, const SymbolMap& symbols, bool anchored,
    TagRunState* run, TagKernelScratch* scratch, MatchStats* stats,
    std::uint64_t max_configurations, GovernorTicket* ticket,
    GovernorAllocator* arena, std::vector<std::int64_t>* accepted) const {
  GM_CHECK(!group.empty());
  MatchStats& st = *stats;
  const std::size_t clocks = clock_count();
  // Binding slots sit after the resets: [state, resets.., bindings..].
  const std::size_t binding_at = row_width();
  const std::size_t bindings = accepted != nullptr ? binding_width_ : 0;
  const std::size_t width = binding_at + bindings;
  const std::uint64_t config_bytes =
      kGovernedConfigBaseBytes + (clocks + bindings) * sizeof(std::int64_t);
  st.events_scanned += group.size();
  ++st.groups_advanced;

  // Clock ticks are constant across the group.
  const std::int64_t* now = TicksAt(group.front().time, scratch);
  scratch->values.resize(clocks);
  const std::span<const std::int64_t> values = scratch->values;

  // Per-type availability within the group.
  std::vector<EventTypeId>& group_types = scratch->group_types;
  std::vector<int>& available = scratch->available;
  group_types.clear();
  available.clear();
  for (const Event& event : group) {
    auto it = std::find(group_types.begin(), group_types.end(), event.type);
    if (it == group_types.end()) {
      group_types.push_back(event.type);
      available.push_back(1);
    } else {
      ++available[it - group_types.begin()];
    }
  }
  const EventTypeId anchor_type = group.front().type;

  std::vector<std::int64_t>& frontier = run->frontier;
  const bool seeding = !run->seeded;
  if (seeding) {
    // Clocks read 0 at the first event (§4 initiation). Start states are
    // sorted and the resets and bindings equal, so the rows are canonical as
    // written.
    frontier.clear();
    for (int state : start_states_) {
      frontier.push_back(state);
      for (std::size_t c = 0; c < clocks; ++c) {
        frontier.push_back(now[clock_granularity_[c]]);
      }
      frontier.insert(frontier.end(), bindings, kUnbound);
    }
    st.configurations += start_states_.size();
    if (arena != nullptr) {
      if (StopCause cause = arena->Charge(
              st.configurations, start_states_.size() * config_bytes);
          cause != StopCause::kNone) {
        st.stopped = cause;
        return GroupOutcome::kStopped;
      }
    }
    run->seeded = true;
  }

  // Closure over labeled consumptions within the group: a node is a
  // configuration plus how many events of each group type it consumed and
  // whether it still must consume the anchor (anchored matching, first group
  // only). The frontier seeds it in canonical (state, resets) order and the
  // stack expands last-in first-out: the accept early exit makes the
  // reported stats a function of exploration order, so the order must
  // follow from the frontier's contents alone — a checkpoint-restored run
  // explores exactly like the uninterrupted one.
  const std::size_t types = group_types.size();
  const std::size_t node_width = width + types + 1;
  const std::size_t pre_anchor_at = width + types;
  std::vector<std::int64_t>& nodes = scratch->nodes;
  std::vector<std::uint32_t>& table = scratch->table;
  std::vector<std::uint32_t>& stack = scratch->stack;
  nodes.clear();
  stack.clear();
  const std::size_t seeds = frontier.size() / width;
  std::size_t table_size = 16;
  while (table_size < seeds * 2) table_size *= 2;
  table.assign(table_size, 0);

  // Adds the node `row` unless already present; true when it was new.
  auto intern = [&](const std::int64_t* row) {
    const std::size_t mask = table.size() - 1;
    std::size_t slot = HashRow(row, node_width) & mask;
    for (; table[slot] != 0; slot = (slot + 1) & mask) {
      const std::int64_t* other =
          nodes.data() + (table[slot] - 1) * node_width;
      if (std::equal(row, row + node_width, other)) return false;
    }
    const std::size_t id = nodes.size() / node_width;
    nodes.insert(nodes.end(), row, row + node_width);
    table[slot] = static_cast<std::uint32_t>(id + 1);
    stack.push_back(static_cast<std::uint32_t>(id));
    if ((id + 1) * 2 > table.size()) {
      Regrow(&table, id + 1, [&](std::size_t i) {
        return HashRow(nodes.data() + i * node_width, node_width);
      });
    }
    return true;
  };

  std::vector<std::int64_t>& node = scratch->node;
  std::vector<std::int64_t>& successor = scratch->successor;
  node.assign(node_width, 0);
  node[pre_anchor_at] = (anchored && seeding) ? 1 : 0;
  for (std::size_t s = 0; s < seeds; ++s) {
    std::copy_n(frontier.data() + s * width, width, node.data());
    intern(node.data());  // frontier rows are distinct: always new
  }

  while (!stack.empty()) {
    // Copied out: interning successors may reallocate `nodes`.
    const std::size_t id = stack.back();
    stack.pop_back();
    std::copy_n(nodes.data() + id * node_width, node_width, node.data());
    ClockValues(node.data(), now, scratch);
    const int state = static_cast<int>(node[0]);
    const bool pre_anchor = node[pre_anchor_at] != 0;
    for (std::size_t type_index = 0; type_index < types; ++type_index) {
      if (node[width + type_index] >= available[type_index]) continue;
      EventTypeId type = group_types[type_index];
      if (pre_anchor && type != anchor_type) continue;
      std::span<const Symbol> event_symbols = symbols.SymbolsFor(type);
      if (event_symbols.empty()) continue;
      for (std::uint32_t k = step_begin_[state]; k < step_begin_[state + 1];
           ++k) {
        const Step& step = steps_[k];
        if (std::find(event_symbols.begin(), event_symbols.end(),
                      step.symbol) == event_symbols.end()) {
          continue;
        }
        const std::size_t slot =
            binding_at + static_cast<std::size_t>(step.symbol);
        if (bindings != 0 && node[slot] != kUnbound && node[slot] != type) {
          continue;
        }
        if (!step.guard.IsSatisfied(values)) continue;
        ++st.transitions;
        if (step.accepting) {
          if (bindings == 0) return GroupOutcome::kAccepted;
          const std::size_t at = accepted->size();
          accepted->insert(accepted->end(), node.begin() + binding_at,
                           node.begin() + width);
          (*accepted)[at + slot - binding_at] = type;
          continue;
        }
        successor = node;
        successor[0] = step.to;
        if (bindings != 0) successor[slot] = type;
        for (int c : step.resets) {
          successor[1 + static_cast<std::size_t>(c)] =
              now[clock_granularity_[static_cast<std::size_t>(c)]];
        }
        ++successor[width + type_index];
        successor[pre_anchor_at] = 0;
        if (!intern(successor.data())) continue;
        ++st.configurations;
        if (st.configurations > max_configurations) {
          st.budget_exhausted = true;
          st.stopped = StopCause::kStepBudget;
          return GroupOutcome::kStopped;
        }
        if (ticket != nullptr) {
          if (StopCause cause = ticket->Charge(st.configurations);
              cause != StopCause::kNone) {
            st.stopped = cause;
            return GroupOutcome::kStopped;
          }
        }
        if (arena != nullptr) {
          if (StopCause cause = arena->Charge(st.configurations, config_bytes);
              cause != StopCause::kNone) {
            st.stopped = cause;
            return GroupOutcome::kStopped;
          }
        }
      }
    }
  }

  // Every reached node past the anchor is a valid post-group configuration
  // (unconsumed events are absorbed by ANY self-loops). Keep the distinct
  // ones in canonical order, dropping those that can never progress again:
  // clock values only grow until a labeled transition resets them, so once
  // every labeled outgoing guard is expired the configuration is dead. This
  // prune keeps the live frontier within the Theorem-4 (|V|K)^p bound
  // instead of growing with the sequence.
  std::vector<const std::int64_t*>& rows = scratch->rows;
  rows.clear();
  for (std::size_t at = 0; at < nodes.size(); at += node_width) {
    if (nodes[at + pre_anchor_at] == 0) rows.push_back(nodes.data() + at);
  }
  auto row_less = [width](const std::int64_t* a, const std::int64_t* b) {
    return std::lexicographical_compare(a, a + width, b, b + width);
  };
  auto row_equal = [width](const std::int64_t* a, const std::int64_t* b) {
    return std::equal(a, a + width, b);
  };
  std::sort(rows.begin(), rows.end(), row_less);
  rows.erase(std::unique(rows.begin(), rows.end(), row_equal), rows.end());
  frontier.clear();
  for (const std::int64_t* row : rows) {
    ClockValues(row, now, scratch);
    const std::size_t state = static_cast<std::size_t>(row[0]);
    for (std::uint32_t k = step_begin_[state]; k < step_begin_[state + 1];
         ++k) {
      if (!steps_[k].guard.ExpiredForever(values)) {
        frontier.insert(frontier.end(), row, row + width);
        break;
      }
    }
  }
  st.peak_frontier = std::max(st.peak_frontier, frontier.size() / width);
  if (frontier.empty()) return GroupOutcome::kDead;  // no run recovers
  return GroupOutcome::kAdvanced;
}

}  // namespace granmine
