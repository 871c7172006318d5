#include "granmine/granularity/tables.h"

#include <algorithm>
#include <mutex>

#include "granmine/common/check.h"
#include "granmine/common/math.h"
#include "granmine/obs/obs.h"

namespace granmine {

namespace {

// Start positions [1, LastDeviantTick + ticks_per_period] exhibit every span
// and gap shape: past the deviant window hulls follow the periodic pattern
// (see DESIGN.md).
std::int64_t ScanStarts(const Granularity& g) {
  return g.LastDeviantTick() + g.periodicity().ticks_per_period;
}

// The last tick whose hull a scan of g may read.
Tick ScanLimit(const Granularity& g) {
  return std::min<Tick>(GranularityTables::kScanTickCap, LastFittingTick(g));
}

// Folds one table value over start positions 1..starts: the span of ticks
// i..i+k-1, or with `min_gap` the distance from tick i to tick i+k.
// `hull(z)` yields the hull of tick z.
template <typename HullOf>
std::int64_t Fold(bool min_gap, bool maximize, std::int64_t starts,
                  std::int64_t k, const HullOf& hull) {
  const Tick offset = min_gap ? k : k - 1;
  std::int64_t best = maximize ? 0 : kInfinity;
  for (Tick i = 1; i <= starts; ++i) {
    const TimeSpan lo = hull(i);
    const TimeSpan hi = hull(i + offset);
    const std::int64_t value =
        min_gap ? hi.first - lo.last : hi.last - lo.first + 1;
    best = maximize ? std::max(best, value) : std::min(best, value);
  }
  return best;
}

}  // namespace

void GranularityTables::Seal(const std::vector<const Granularity*>& family) {
  if (sealed_) return;
  sealed_entries_.clear();
  sealed_entries_.resize(family.size());
  std::vector<TimeSpan> hulls;
  for (std::size_t id = 0; id < family.size(); ++id) {
    const Granularity* g = family[id];
    GM_CHECK(g != nullptr);
    GM_CHECK(g->id() == static_cast<GranularityId>(id));
    // Every scanned k reads the hulls of ticks 1..starts + k: read them once
    // for all k, up to the scan limit.
    const std::int64_t starts = ScanStarts(*g);
    const Tick limit = ScanLimit(*g);
    const Tick buffered =
        starts <= limit ? std::min(starts + kSealedKCap, limit) : 0;
    hulls.clear();
    for (Tick z = 1; z <= buffered; ++z) hulls.push_back(*g->TickHull(z));
    const auto value = [&](Table table, std::int64_t k) {
      std::optional<std::int64_t> v = Analytic(table, *g, k);
      const bool min_gap = table == Table::kMinGap;
      if (!v.has_value() &&
          starts + (min_gap ? k : k - 1) <=
              static_cast<std::int64_t>(hulls.size())) {
        v = Fold(min_gap, table == Table::kMaxSize, starts, k, [&](Tick z) {
          return hulls[static_cast<std::size_t>(z - 1)];
        });
      }
      return v.value_or(kSealedNoValue);
    };
    SealedEntry& slot = sealed_entries_[id];
    const std::size_t width = static_cast<std::size_t>(kSealedKCap) + 1;
    slot.minsize.assign(width, kSealedNoValue);
    slot.maxsize.assign(width, kSealedNoValue);
    slot.mingap.assign(width, kSealedNoValue);
    for (std::int64_t k = 1; k <= kSealedKCap; ++k) {
      const std::size_t i = static_cast<std::size_t>(k);
      slot.minsize[i] = value(Table::kMinSize, k);
      slot.maxsize[i] = value(Table::kMaxSize, k);
      slot.mingap[i] = value(Table::kMinGap, k);
    }
    // Publish the guard pointer last: SealedValue only trusts a slot whose
    // address matches, so a granularity from a *different* system that
    // happens to share an id can never read a foreign row.
    slot.gran = g;
  }
  sealed_ = true;
}

std::vector<GranularityTables::SealedRow> GranularityTables::ExportSealedRows()
    const {
  GM_CHECK(sealed_) << "ExportSealedRows on unsealed tables";
  std::vector<SealedRow> rows;
  rows.reserve(sealed_entries_.size());
  for (const SealedEntry& slot : sealed_entries_) {
    rows.push_back(SealedRow{slot.minsize, slot.maxsize, slot.mingap});
  }
  return rows;
}

Status GranularityTables::SealFromRows(
    const std::vector<const Granularity*>& family,
    std::vector<SealedRow> rows) {
  if (sealed_) {
    return Status::Internal("granularity tables are already sealed");
  }
  if (rows.size() != family.size()) {
    return Status::Invalid("sealed-table image has " +
                           std::to_string(rows.size()) + " rows for a family "
                           "of " + std::to_string(family.size()));
  }
  const std::size_t width = static_cast<std::size_t>(kSealedKCap) + 1;
  for (std::size_t id = 0; id < family.size(); ++id) {
    const Granularity* g = family[id];
    if (g == nullptr || g->id() != static_cast<GranularityId>(id)) {
      return Status::Invalid("family member " + std::to_string(id) +
                             " is not id-indexed; cannot seal from rows");
    }
    const SealedRow& row = rows[id];
    if (row.minsize.size() != width || row.maxsize.size() != width ||
        row.mingap.size() != width) {
      return Status::Invalid("sealed-table row for '" + g->name() +
                             "' does not span k in [1, " +
                             std::to_string(kSealedKCap) + "]");
    }
  }
  sealed_entries_.clear();
  sealed_entries_.resize(family.size());
  for (std::size_t id = 0; id < family.size(); ++id) {
    SealedEntry& slot = sealed_entries_[id];
    slot.minsize = std::move(rows[id].minsize);
    slot.maxsize = std::move(rows[id].maxsize);
    slot.mingap = std::move(rows[id].mingap);
    slot.gran = family[id];
  }
  sealed_ = true;
  return Status::OK();
}

std::optional<std::optional<std::int64_t>> GranularityTables::SealedValue(
    Table table, const Granularity& g, std::int64_t k) const {
  if (!sealed_ || k < 1 || k > kSealedKCap) return std::nullopt;
  const GranularityId id = g.id();
  if (id < 0 || static_cast<std::size_t>(id) >= sealed_entries_.size()) {
    return std::nullopt;
  }
  const SealedEntry& slot = sealed_entries_[static_cast<std::size_t>(id)];
  if (slot.gran != &g) return std::nullopt;
  const std::vector<std::int64_t>* values = nullptr;
  switch (table) {
    case Table::kMinSize:
      values = &slot.minsize;
      break;
    case Table::kMaxSize:
      values = &slot.maxsize;
      break;
    default:
      values = &slot.mingap;
      break;
  }
  std::int64_t v = (*values)[static_cast<std::size_t>(k)];
  if (v == kSealedNoValue) {
    return std::optional<std::optional<std::int64_t>>(std::nullopt);
  }
  return std::optional<std::optional<std::int64_t>>(v);
}

std::optional<std::int64_t> GranularityTables::ScannedValue(
    Table table, const Granularity& g, std::int64_t k) {
  std::lock_guard<std::mutex> lock(memo_mutex_);
  const auto key = std::make_tuple(&g, table, k);
  if (auto it = memo_.find(key); it != memo_.end()) {
    GM_COUNTER_ADD("granmine_tables_lookups_total", "result=\"hit\"", 1);
    return it->second;
  }
  // Miss: scan under the lock, so each value is scanned once.
  GM_COUNTER_ADD("granmine_tables_lookups_total", "result=\"miss\"", 1);
  const bool min_gap = table == Table::kMinGap;
  const std::int64_t starts = ScanStarts(g);
  if ((min_gap ? k : k - 1) > ScanLimit(g) - starts) return std::nullopt;
  const std::int64_t best =
      Fold(min_gap, table == Table::kMaxSize, starts, k,
           [&g](Tick z) { return *g.TickHull(z); });
  memo_.emplace(key, best);
  return best;
}

std::optional<std::int64_t> GranularityTables::Analytic(Table table,
                                                        const Granularity& g,
                                                        std::int64_t k) {
  switch (table) {
    case Table::kMinSize:
      return g.AnalyticMinSize(k);
    case Table::kMaxSize:
      return g.AnalyticMaxSize(k);
    default:
      return g.AnalyticMinGap(k);
  }
}

std::optional<std::int64_t> GranularityTables::Value(Table table,
                                                     const Granularity& g,
                                                     std::int64_t k) {
  if (auto sealed = SealedValue(table, g, k); sealed.has_value()) {
    GM_COUNTER_ADD("granmine_tables_lookups_total", "result=\"sealed\"", 1);
    return *sealed;
  }
  if (std::optional<std::int64_t> v = Analytic(table, g, k); v.has_value()) {
    return v;
  }
  return ScannedValue(table, g, k);
}

std::optional<std::int64_t> GranularityTables::MinSize(const Granularity& g,
                                                       std::int64_t k) {
  GM_CHECK(k >= 0);
  if (k == 0) return 0;
  return Value(Table::kMinSize, g, k);
}

std::optional<std::int64_t> GranularityTables::MaxSize(const Granularity& g,
                                                       std::int64_t k) {
  GM_CHECK(k >= 0);
  if (k == 0) return 0;
  return Value(Table::kMaxSize, g, k);
}

std::optional<std::int64_t> GranularityTables::MinGap(const Granularity& g,
                                                      std::int64_t k) {
  GM_CHECK(k >= 0);
  if (k == 0) {
    std::optional<std::int64_t> max1 = MaxSize(g, 1);
    if (!max1.has_value()) return std::nullopt;
    return 1 - *max1;
  }
  return Value(Table::kMinGap, g, k);
}

namespace {

// Least s >= lo with value(s) >= bar, for a value nondecreasing in s; nullopt
// when a probe is undefined. The search starts from the smaller of bar and
// the ticks in two periods past x instants, which the callers' tables bound
// the answer by, and doubles only defensively.
template <typename Value>
std::optional<std::int64_t> LeastTicksReaching(const Granularity& g,
                                               std::int64_t x,
                                               std::int64_t bar,
                                               std::int64_t lo, Value value) {
  const Granularity::Periodicity p = g.periodicity();
  std::int64_t periods = FloorDiv(x, p.period) + 2;
  std::int64_t by_period = periods > kInfinity / p.ticks_per_period
                               ? kInfinity
                               : periods * p.ticks_per_period;
  std::int64_t hi = std::max<std::int64_t>(std::min(bar, by_period), 1);
  std::optional<std::int64_t> at_hi = value(hi);
  if (!at_hi.has_value()) return std::nullopt;
  while (*at_hi < bar) {  // defensive; should not trigger
    hi *= 2;
    at_hi = value(hi);
    if (!at_hi.has_value()) return std::nullopt;
  }
  while (lo < hi) {
    std::int64_t mid = lo + (hi - lo) / 2;
    std::optional<std::int64_t> v = value(mid);
    if (!v.has_value()) return std::nullopt;
    if (*v >= bar) {
      hi = mid;
    } else {
      lo = mid + 1;
    }
  }
  return lo;
}

}  // namespace

std::optional<std::int64_t> GranularityTables::LeastTicksCovering(
    const Granularity& g, std::int64_t x) {
  GM_CHECK(x >= 1);
  // minsize is strictly increasing in s and minsize(s) >= s, so the answer
  // (if representable) is at most x.
  return LeastTicksReaching(g, x, x, 1,
                            [&](std::int64_t s) { return MinSize(g, s); });
}

std::optional<std::int64_t> GranularityTables::LeastTicksExceeding(
    const Granularity& g, std::int64_t x) {
  if (x < 0) return 0;
  // maxsize is strictly increasing with maxsize(r) >= r; the answer is at
  // most x + 1.
  return LeastTicksReaching(g, x, x + 1, 0,
                            [&](std::int64_t r) { return MaxSize(g, r); });
}

std::optional<std::int64_t> GranularityTables::LeastTicksWithGapExceeding(
    const Granularity& g, std::int64_t x) {
  // mingap(s) >= minsize(s-1) + 1 >= s, so the answer is at most x + 1.
  return LeastTicksReaching(g, std::max<std::int64_t>(x, 0), x + 1, 1,
                            [&](std::int64_t s) { return MinGap(g, s); });
}

}  // namespace granmine
