#include "granmine/mining/screening.h"

#include <algorithm>
#include <bit>
#include <functional>

#include "granmine/common/check.h"

namespace granmine {

std::size_t FirstEventAtOrAfter(const EventSequence& sequence, TimePoint t) {
  const std::vector<Event>& events = sequence.events();
  auto it = std::lower_bound(
      events.begin(), events.end(), t,
      [](const Event& event, TimePoint value) { return event.time < value; });
  return static_cast<std::size_t>(it - events.begin());
}

UsabilityTable::UsabilityTable(
    const std::vector<std::vector<EventTypeId>>& allowed, VariableId root,
    std::size_t max_roots)
    : root_(root), words_((max_roots + 63) / 64), roots_(max_roots) {
  for (std::size_t v = 0; v < allowed.size(); ++v) {
    first_row_.push_back(rows_);
    types_.push_back(static_cast<VariableId>(v) == root
                         ? std::vector<EventTypeId>{}
                         : allowed[v]);
    GM_CHECK(std::adjacent_find(types_.back().begin(), types_.back().end(),
                                std::greater_equal<>()) ==
             types_.back().end());
    rows_ += types_.back().size();
  }
}

std::size_t UsabilityTable::TypeIndex(std::size_t v, EventTypeId type) const {
  const std::vector<EventTypeId>& types = types_[v];
  return static_cast<std::size_t>(
      std::find(types.begin(), types.end(), type) - types.begin());
}

bool UsabilityTable::ScanWindow(const EventSequence& sequence,
                                const PropagationResult& propagation,
                                std::size_t v, const TimeSpan& window,
                                std::size_t column) {
  if (window.empty()) return false;
  const std::uint64_t bit = std::uint64_t{1} << (column % 64);
  const std::vector<Event>& events = sequence.events();
  bool any = false;
  for (std::size_t e = FirstEventAtOrAfter(sequence, window.first);
       e < events.size() && events[e].time <= window.last; ++e) {
    const std::size_t type = TypeIndex(v, events[e].type);
    if (type == types_[v].size()) continue;
    std::uint64_t& word = bits_[Word(v, type, column)];
    if ((word & bit) == 0 &&
        UsableForVariable(propagation, static_cast<VariableId>(v), window,
                          events[e].time)) {
      word |= bit;
      any = true;
    }
  }
  return any;
}

std::vector<std::size_t> UsabilityTable::Build(
    const EventSequence& sequence, const PropagationResult& propagation,
    const std::vector<RootWindows>& windows, bool reduce) {
  GM_CHECK(windows.size() <= roots_);
  bits_.assign(rows_ * words_, 0);
  std::vector<std::size_t> kept;
  for (std::size_t i = 0; i < windows.size(); ++i) {
    const std::size_t column = kept.size();
    bool usable = !reduce || windows[i].root_viable;
    for (std::size_t v = 0; usable && v < types_.size(); ++v) {
      if (static_cast<VariableId>(v) == root_) continue;
      usable = ScanWindow(sequence, propagation, v, windows[i].windows[v],
                          column) ||
               !reduce;
    }
    if (usable) {
      kept.push_back(i);
      continue;
    }
    const std::uint64_t bit = std::uint64_t{1} << (column % 64);
    for (std::size_t r = 0; r < rows_; ++r) {
      bits_[r * words_ + column / 64] &= ~bit;
    }
  }

  // Close the rows up to the columns kept.
  roots_ = kept.size();
  const std::size_t words = (roots_ + 63) / 64;
  for (std::size_t r = 1; r < rows_; ++r) {
    std::copy_n(bits_.begin() + static_cast<std::ptrdiff_t>(r * words_),
                words, bits_.begin() + static_cast<std::ptrdiff_t>(r * words));
  }
  words_ = words;
  bits_.resize(rows_ * words_);
  return kept;
}

void UsabilityTable::Screen(
    std::size_t total_roots, double min_confidence,
    std::vector<std::vector<EventTypeId>>* allowed) const {
  GM_CHECK(allowed != nullptr);
  if (total_roots == 0) return;
  for (std::size_t v = 0; v < types_.size(); ++v) {
    if (static_cast<VariableId>(v) == root_) continue;
    std::vector<EventTypeId> surviving;
    for (std::size_t type = 0; type < types_[v].size(); ++type) {
      const std::uint64_t* row = bits_.data() + Word(v, type, 0);
      std::size_t hits = 0;
      for (std::size_t w = 0; w < words_; ++w) {
        hits += static_cast<std::size_t>(std::popcount(row[w]));
      }
      if (static_cast<double>(hits) / static_cast<double>(total_roots) >
          min_confidence) {
        surviving.push_back(types_[v][type]);
      }
    }
    (*allowed)[v] = std::move(surviving);
  }
}

std::size_t UsabilityTable::EligibleRoots(const std::vector<EventTypeId>& phi,
                                          std::uint64_t* mask) const {
  std::fill(mask, mask + words_, ~std::uint64_t{0});
  if (roots_ % 64 != 0) {
    mask[words_ - 1] = (std::uint64_t{1} << (roots_ % 64)) - 1;
  }
  for (std::size_t v = 0; v < types_.size(); ++v) {
    if (static_cast<VariableId>(v) == root_) continue;
    const std::size_t type = TypeIndex(v, phi[v]);
    GM_DCHECK(type < types_[v].size());
    const std::uint64_t* row = bits_.data() + Word(v, type, 0);
    for (std::size_t w = 0; w < words_; ++w) mask[w] &= row[w];
  }
  std::size_t count = 0;
  for (std::size_t w = 0; w < words_; ++w) {
    count += static_cast<std::size_t>(std::popcount(mask[w]));
  }
  return count;
}

void ScreenByWindows(const PropagationResult& propagation,
                     const EventSequence& sequence,
                     const std::vector<RootWindows>& windows,
                     VariableId root, std::size_t total_roots,
                     double min_confidence,
                     std::vector<std::vector<EventTypeId>>* allowed) {
  GM_CHECK(allowed != nullptr);
  UsabilityTable table(*allowed, root, windows.size());
  table.Build(sequence, propagation, windows, /*reduce=*/false);
  table.Screen(total_roots, min_confidence, allowed);
}

}  // namespace granmine
