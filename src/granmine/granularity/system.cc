#include "granmine/granularity/system.h"

#include <utility>

#include "granmine/common/check.h"

namespace granmine {

namespace {

// Day-tick indices (1-based, day 1 = 1970-01-01) of the given civil dates.
std::vector<Tick> HolidayDayTicks(const std::vector<CivilDate>& holidays) {
  std::vector<Tick> ticks;
  ticks.reserve(holidays.size());
  for (const CivilDate& date : holidays) {
    std::int64_t days = DaysFromCivil(date.year, date.month, date.day);
    GM_CHECK(days >= 0) << "holidays before 1970 are outside the support";
    int weekday = WeekdayFromDays(days);
    if (weekday >= 5) continue;  // weekend "holidays" are already excluded
    ticks.push_back(days + 1);
  }
  return ticks;
}

// Weekday selection pattern over `day`: day tick 1 = 1970-01-01 (Thursday),
// so the anchor inside the Monday-first week cycle is 3.
PeriodicPattern WeekdayPattern(std::vector<std::int64_t> kept) {
  return PeriodicPattern{/*base_period=*/7, std::move(kept), /*anchor=*/3};
}

void AddGregorianFamily(GranularitySystem* system, std::int64_t units_per_day,
                        bool with_subday_types,
                        const std::vector<CivilDate>& holidays) {
  const std::int64_t day_width = units_per_day;
  if (with_subday_types) {
    system->AddUniform("second", 1);
    system->AddUniform("minute", 60);
    system->AddUniform("hour", 3600);
  }
  const Granularity* day = system->AddUniform("day", day_width);
  // 1970-01-01 is a Thursday; the Monday on or before it is 3 days earlier.
  const Granularity* week =
      system->AddUniform("week", 7 * day_width, /*offset=*/-3 * day_width);
  const Granularity* month = system->AddMonths("month", units_per_day);
  system->AddGroup("quarter", month, 3);
  system->AddYears("year", units_per_day);
  const Granularity* b_day =
      system->AddFilter("b-day", day, WeekdayPattern({0, 1, 2, 3, 4}),
                        HolidayDayTicks(holidays));
  system->AddFilter("weekend-day", day, WeekdayPattern({5, 6}));
  system->AddGroupBy("b-week", b_day, week);
  system->AddGroupBy("b-month", b_day, month);
}

}  // namespace

std::unique_ptr<GranularitySystem> GranularitySystem::Gregorian(
    std::vector<CivilDate> holidays) {
  auto system = std::make_unique<GranularitySystem>();
  AddGregorianFamily(system.get(), kSecondsPerDay, /*with_subday_types=*/true,
                     holidays);
  return system;
}

std::unique_ptr<GranularitySystem> GranularitySystem::GregorianDays(
    std::vector<CivilDate> holidays) {
  auto system = std::make_unique<GranularitySystem>();
  AddGregorianFamily(system.get(), 1, /*with_subday_types=*/false, holidays);
  return system;
}

const Granularity* GranularitySystem::Register(
    std::unique_ptr<Granularity> g) {
  GM_CHECK(!frozen_) << "Register on a frozen system";
  GM_CHECK(by_name_.find(g->name()) == by_name_.end())
      << "duplicate granularity name " << g->name();
  g->id_ = static_cast<GranularityId>(family_.size());
  const Granularity* raw = g.get();
  by_name_.emplace(g->name(), raw);
  family_.push_back(raw);
  owned_.push_back(std::move(g));
  return raw;
}

const Granularity* GranularitySystem::RegisterOrReject(
    PeriodicGranularity::Made made) {
  if (!made.ok()) {
    last_add_error_ = made.status();
    return nullptr;
  }
  return Register(std::move(*made));
}

bool GranularitySystem::RejectIfFrozen(const std::string& name) {
  if (!frozen_) return false;
  last_add_error_ = Status::Invalid(
      "cannot add granularity '" + name +
      "': the system is frozen (Freeze() ends the build phase; create a new "
      "GranularitySystem to define more types)");
  return true;
}

const Granularity* GranularitySystem::AddUniform(std::string name,
                                                 std::int64_t width,
                                                 TimePoint offset) {
  if (RejectIfFrozen(name)) return nullptr;
  return Register(
      std::make_unique<UniformGranularity>(std::move(name), width, offset));
}

const Granularity* GranularitySystem::AddMonths(std::string name,
                                                std::int64_t units_per_day) {
  if (RejectIfFrozen(name)) return nullptr;
  return Register(
      std::make_unique<MonthGranularity>(std::move(name), units_per_day));
}

const Granularity* GranularitySystem::AddYears(std::string name,
                                               std::int64_t units_per_day) {
  if (RejectIfFrozen(name)) return nullptr;
  return Register(
      std::make_unique<YearGranularity>(std::move(name), units_per_day));
}

const Granularity* GranularitySystem::AddFilter(std::string name,
                                                const Granularity* base,
                                                PeriodicPattern pattern,
                                                std::vector<Tick> removed) {
  if (RejectIfFrozen(name)) return nullptr;
  return RegisterOrReject(PeriodicGranularity::Filter(
      std::move(name), base, std::move(pattern), std::move(removed)));
}

const Granularity* GranularitySystem::AddGroup(std::string name,
                                               const Granularity* base,
                                               std::int64_t k,
                                               std::int64_t phase) {
  if (RejectIfFrozen(name)) return nullptr;
  return RegisterOrReject(
      PeriodicGranularity::Group(std::move(name), base, k, phase));
}

const Granularity* GranularitySystem::AddGroupBy(std::string name,
                                                 const Granularity* inner,
                                                 const Granularity* outer) {
  if (RejectIfFrozen(name)) return nullptr;
  return RegisterOrReject(
      PeriodicGranularity::GroupBy(std::move(name), inner, outer));
}

const Granularity* GranularitySystem::AddSynthetic(
    std::string name, std::int64_t period, std::vector<TimeSpan> ticks,
    TimePoint origin) {
  if (RejectIfFrozen(name)) return nullptr;
  return RegisterOrReject(PeriodicGranularity::Synthetic(
      std::move(name), period, std::move(ticks), origin));
}

const Granularity* GranularitySystem::Find(std::string_view name) const {
  auto it = by_name_.find(std::string(name));
  return it == by_name_.end() ? nullptr : it->second;
}

Status GranularitySystem::Freeze() {
  if (frozen_) return Status::OK();
  tables_.Seal(family_);
  coverage_.Seal(family_);
  frozen_ = true;
  return Status::OK();
}

Result<FrozenSystemImage> GranularitySystem::ExportFrozenImage() const {
  if (!frozen_) {
    return Status::Internal("ExportFrozenImage on an unfrozen system");
  }
  FrozenSystemImage image;
  image.sealed_k_cap = GranularityTables::kSealedKCap;
  image.names.reserve(family_.size());
  for (const Granularity* g : family_) image.names.push_back(g->name());
  image.table_rows = tables_.ExportSealedRows();
  image.coverage = coverage_.ExportSealedMatrix();
  return image;
}

Status GranularitySystem::FreezeFromImage(const FrozenSystemImage& image) {
  if (frozen_) return Status::Internal("system is already frozen");
  if (image.sealed_k_cap != GranularityTables::kSealedKCap) {
    return Status::Unsupported(
        "frozen image was sealed with k cap " +
        std::to_string(image.sealed_k_cap) + "; this build uses " +
        std::to_string(GranularityTables::kSealedKCap));
  }
  if (image.names.size() != family_.size()) {
    return Status::Invalid("frozen image describes " +
                           std::to_string(image.names.size()) +
                           " granularities; this system has " +
                           std::to_string(family_.size()));
  }
  const std::size_t n = family_.size();
  const std::size_t width =
      static_cast<std::size_t>(GranularityTables::kSealedKCap) + 1;
  if (image.table_rows.size() != n || image.coverage.size() != n * n) {
    return Status::Invalid("frozen image tables/coverage do not match a "
                           "family of " + std::to_string(n));
  }
  for (std::size_t id = 0; id < n; ++id) {
    if (image.names[id] != family_[id]->name()) {
      return Status::Invalid("frozen image granularity " + std::to_string(id) +
                             " is named '" + image.names[id] +
                             "'; this system has '" + family_[id]->name() +
                             "'");
    }
    const GranularityTables::SealedRow& row = image.table_rows[id];
    if (row.minsize.size() != width || row.maxsize.size() != width ||
        row.mingap.size() != width) {
      return Status::Invalid("frozen image row for '" + image.names[id] +
                             "' has the wrong k span");
    }
  }
  // Names matching is necessary but not sufficient — the same name can be
  // registered with a different definition. Recomputing the cheapest table
  // values (k = 1, 2) through the unsealed memo path and comparing them to
  // the image catches that without paying for a full re-seal.
  for (std::size_t id = 0; id < n; ++id) {
    const Granularity& g = *family_[id];
    const GranularityTables::SealedRow& row = image.table_rows[id];
    for (std::int64_t k = 1;
         k <= 2 && k <= GranularityTables::kSealedKCap; ++k) {
      const auto sealed = [&](const std::vector<std::int64_t>& table) {
        const std::int64_t raw = table[static_cast<std::size_t>(k)];
        return raw == GranularityTables::kSealedNoValue
                   ? std::optional<std::int64_t>()
                   : std::optional<std::int64_t>(raw);
      };
      if (tables_.MinSize(g, k) != sealed(row.minsize) ||
          tables_.MaxSize(g, k) != sealed(row.maxsize) ||
          tables_.MinGap(g, k) != sealed(row.mingap)) {
        return Status::Invalid(
            "frozen image tables for '" + g.name() + "' disagree with this "
            "system's definition at k=" + std::to_string(k) +
            "; refusing warm start");
      }
    }
  }
  GM_RETURN_NOT_OK(tables_.SealFromRows(family_, image.table_rows));
  GM_RETURN_NOT_OK(coverage_.SealFromMatrix(family_, image.coverage));
  frozen_ = true;
  return Status::OK();
}

}  // namespace granmine
