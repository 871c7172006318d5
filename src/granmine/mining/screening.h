#ifndef GRANMINE_MINING_SCREENING_H_
#define GRANMINE_MINING_SCREENING_H_

#include <cstdint>
#include <vector>

#include "granmine/constraint/propagation.h"
#include "granmine/mining/windows.h"
#include "granmine/sequence/sequence.h"

namespace granmine {

/// §5 steps 3 and 4 ask one question of the per-root windows: does root i's
/// v-window hold an event of type E usable for v? The table answers it once
/// per mine. Row (v, E) pairs a non-root variable v with a type of the
/// allowed[v] it was laid out from, which is in ResolveAllowedTypes' normal
/// form (sorted, distinct), so v's rows are σ(v)'s positions one to one.
/// Column i is the i-th root kept, and a bit is set iff that root's v-window
/// holds an E-event passing UsableForVariable.
/// Step 3 drops roots with it (Build), and step 4 at k = 1 counts a row's
/// bits (Screen).
class UsabilityTable {
 public:
  /// Rows for every non-root v and every type of allowed[v] (each sorted
  /// and distinct) and `max_roots` columns, no bits until Build.
  UsabilityTable(const std::vector<std::vector<EventTypeId>>& allowed,
                 VariableId root, std::size_t max_roots);

  /// Bytes Build allocates; a governed caller charges them first.
  std::size_t bytes() const { return rows_ * words_ * sizeof(std::uint64_t); }

  /// Fills one column per entry of `windows` (at most `max_roots`) and
  /// returns the indices of the entries kept: column i is windows[kept[i]].
  /// With `reduce` (step 3) a root is dropped, leaving no bits, if it is not
  /// root_viable, or as soon as one v has no usable type.
  std::vector<std::size_t> Build(const EventSequence& sequence,
                                 const PropagationResult& propagation,
                                 const std::vector<RootWindows>& windows,
                                 bool reduce);

  /// Step 4 at k = 1: sets each non-root allowed[v] to the types of v's
  /// rows, in row order, whose set bits / `total_roots` (every reference
  /// occurrence of the input) is strictly above `min_confidence`. A full
  /// occurrence restricts to one of the induced two-variable sub-structure,
  /// so a pruned type is in no solution.
  void Screen(std::size_t total_roots, double min_confidence,
              std::vector<std::vector<EventTypeId>>* allowed) const;

 private:
  // Sets `column` in v's rows of the types with an event usable for v in
  // `window`; true iff it set any.
  bool ScanWindow(const EventSequence& sequence,
                  const PropagationResult& propagation, std::size_t v,
                  const TimeSpan& window, std::size_t column);
  // Index of `type`'s row among v's rows, or types_[v].size().
  std::size_t TypeIndex(std::size_t v, EventTypeId type) const;
  std::size_t Word(std::size_t v, std::size_t type, std::size_t column) const {
    return (first_row_[v] + type) * words_ + column / 64;
  }

  VariableId root_;
  std::vector<std::vector<EventTypeId>> types_;  // per variable; root: none
  std::vector<std::size_t> first_row_;           // per variable
  std::size_t rows_ = 0;
  std::size_t words_ = 0;
  std::size_t roots_ = 0;
  std::vector<std::uint64_t> bits_;  // row-major
};

/// Step 4 at k = 1 over `windows`, the windows of the surviving reference
/// occurrences: a UsabilityTable with a column for each, then Screen.
void ScreenByWindows(const PropagationResult& propagation,
                     const EventSequence& sequence,
                     const std::vector<RootWindows>& windows,
                     VariableId root, std::size_t total_roots,
                     double min_confidence,
                     std::vector<std::vector<EventTypeId>>* allowed);

/// Indices of the first event at-or-after each instant, for window scans.
/// (Thin wrapper over binary search on the sorted event vector.)
std::size_t FirstEventAtOrAfter(const EventSequence& sequence, TimePoint t);

}  // namespace granmine

#endif  // GRANMINE_MINING_SCREENING_H_
