#ifndef GRANMINE_GRANULARITY_SYSTEM_H_
#define GRANMINE_GRANULARITY_SYSTEM_H_

#include <cstdint>
#include <memory>
#include <string>
#include <string_view>
#include <unordered_map>
#include <vector>

#include "granmine/common/result.h"
#include "granmine/common/status.h"
#include "granmine/granularity/calendar_types.h"
#include "granmine/granularity/civil_calendar.h"
#include "granmine/granularity/convert.h"
#include "granmine/granularity/granularity.h"
#include "granmine/granularity/periodic.h"
#include "granmine/granularity/tables.h"
#include "granmine/granularity/uniform.h"

namespace granmine {

/// A frozen system's sealed caches as plain data: the family names in id
/// order (the identity check on restore), every granularity's sealed table
/// rows, and the support-coverage matrix. Produced by
/// `GranularitySystem::ExportFrozenImage`, consumed by `FreezeFromImage`;
/// the persist layer (de)serializes it (persist/codecs.h) so `Engine` can
/// warm-start from a snapshot instead of re-running the `Freeze()` scans.
struct FrozenSystemImage {
  std::vector<std::string> names;
  /// The kSealedKCap the rows were computed with; rejected on mismatch.
  std::int64_t sealed_k_cap = 0;
  std::vector<GranularityTables::SealedRow> table_rows;
  /// Row-major target×source, names.size() squared.
  std::vector<bool> coverage;
};

/// Owns a family of granularities over one primitive time line, plus the
/// shared caches (Appendix-A.1 tables and support-coverage results) that the
/// constraint algorithms consult. The registry is append-only; each
/// granularity gets a dense `GranularityId` in registration order, and
/// pointers remain valid for the lifetime of the system.
///
/// Lifecycle: build → freeze → serve. `Freeze()` ends the build phase — it
/// seals `tables()` and `coverage()` into flat id-indexed arrays (lookups
/// become bounds-checked array reads, no hashing, no locks) and makes the
/// family immutable: any later `Add*` returns nullptr and records a Status
/// retrievable via `last_add_error()`. Freezing is optional; an unfrozen
/// system answers the same values from the locked memos.
///
/// Thread safety: the caches returned by `tables()` and `coverage()` are
/// internally synchronized, so a fully built system may be shared by any
/// number of reader/query threads — every worker warms the same tables
/// instead of rebuilding them. Registration (`Add*`) and `Freeze()` are not
/// synchronized; finish building (and freeze, if desired) before sharing
/// the system across threads. A *frozen* system needs no synchronization at
/// all for table/coverage hits within the sealed range.
class GranularitySystem {
 public:
  GranularitySystem() = default;
  GranularitySystem(const GranularitySystem&) = delete;
  GranularitySystem& operator=(const GranularitySystem&) = delete;

  /// The standard second-based Gregorian family: second, minute, hour, day,
  /// week (Monday-anchored), month, quarter, year, b-day, weekend-day,
  /// b-week, b-month. `holidays` (civil dates) are removed from the business
  /// types.
  static std::unique_ptr<GranularitySystem> Gregorian(
      std::vector<CivilDate> holidays = {});

  /// A day-grained Gregorian family (primitive instant = one day): day,
  /// week, month, year, b-day — convenient for examples whose events are
  /// daily and for tractable exact solving.
  static std::unique_ptr<GranularitySystem> GregorianDays(
      std::vector<CivilDate> holidays = {});

  const Granularity* AddUniform(std::string name, std::int64_t width,
                                TimePoint offset = 0);
  const Granularity* AddMonths(std::string name, std::int64_t units_per_day);
  const Granularity* AddYears(std::string name, std::int64_t units_per_day);
  /// The derived types compile into a `PeriodicGranularity` (periodic.h);
  /// a refused definition returns nullptr with the reason in
  /// `last_add_error()`.
  const Granularity* AddFilter(std::string name, const Granularity* base,
                               PeriodicPattern pattern,
                               std::vector<Tick> removed = {});
  const Granularity* AddGroup(std::string name, const Granularity* base,
                              std::int64_t k, std::int64_t phase = 0);
  const Granularity* AddGroupBy(std::string name, const Granularity* inner,
                                const Granularity* outer);
  const Granularity* AddSynthetic(std::string name, std::int64_t period,
                                  std::vector<TimeSpan> ticks_in_period,
                                  TimePoint origin = 0);

  /// Looks up a granularity by name; nullptr when absent.
  const Granularity* Find(std::string_view name) const;

  /// Ends the build phase: precomputes the table/coverage caches into dense
  /// id-indexed arrays and rejects further `Add*` calls. Idempotent; call
  /// from the build thread before sharing the system. Always succeeds (an
  /// empty family freezes fine).
  Status Freeze();

  bool frozen() const { return frozen_; }

  /// The frozen caches as plain data for snapshotting. Requires frozen().
  Result<FrozenSystemImage> ExportFrozenImage() const;

  /// Ends the build phase by installing a previously exported image instead
  /// of recomputing the seal scans (warm start). The image must come from a
  /// family with the same names in the same id order; on top of the name
  /// check, table values for k = 1 and 2 are recomputed and compared so an
  /// image from a structurally different *definition* of the same names is
  /// rejected too. Fails without freezing on any mismatch — the system then
  /// still accepts a plain `Freeze()`.
  Status FreezeFromImage(const FrozenSystemImage& image);

  /// The registered granularities in id order: `family()[g->id()] == g`.
  const std::vector<const Granularity*>& family() const { return family_; }

  /// The Status of the most recent rejected `Add*` (one that returned
  /// nullptr because the system is frozen or the definition is malformed,
  /// e.g. a filter repeating an offset); OK when none has been rejected.
  const Status& last_add_error() const { return last_add_error_; }

  GranularityTables& tables() const { return tables_; }
  SupportCoverageCache& coverage() const { return coverage_; }

 private:
  const Granularity* Register(std::unique_ptr<Granularity> g);
  /// Registers a compiled granularity, or records why it was refused.
  const Granularity* RegisterOrReject(PeriodicGranularity::Made made);
  /// Records and rejects a post-freeze `Add*`; returns true when frozen.
  bool RejectIfFrozen(const std::string& name);

  std::vector<std::unique_ptr<Granularity>> owned_;
  std::vector<const Granularity*> family_;
  std::unordered_map<std::string, const Granularity*> by_name_;
  bool frozen_ = false;
  Status last_add_error_ = Status::OK();
  mutable GranularityTables tables_;
  mutable SupportCoverageCache coverage_;
};

}  // namespace granmine

#endif  // GRANMINE_GRANULARITY_SYSTEM_H_
