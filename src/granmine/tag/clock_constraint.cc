#include "granmine/tag/clock_constraint.h"

#include <algorithm>
#include <sstream>

#include "granmine/common/check.h"

namespace granmine {

ClockConstraint ClockConstraint::True() {
  ClockConstraint c;
  c.kind_ = Kind::kTrue;
  return c;
}

ClockConstraint ClockConstraint::AtMost(int clock, std::int64_t k) {
  GM_CHECK(clock >= 0);
  ClockConstraint c;
  c.kind_ = Kind::kAtMost;
  c.clock_ = clock;
  c.bound_ = k;
  return c;
}

ClockConstraint ClockConstraint::AtLeast(int clock, std::int64_t k) {
  GM_CHECK(clock >= 0);
  ClockConstraint c;
  c.kind_ = Kind::kAtLeast;
  c.clock_ = clock;
  c.bound_ = k;
  return c;
}

ClockConstraint ClockConstraint::Range(int clock, std::int64_t lo,
                                       std::int64_t hi) {
  return And(AtLeast(clock, lo), AtMost(clock, hi));
}

ClockConstraint ClockConstraint::And(ClockConstraint a, ClockConstraint b) {
  if (a.IsTriviallyTrue()) return b;
  if (b.IsTriviallyTrue()) return a;
  ClockConstraint c;
  c.kind_ = Kind::kAnd;
  c.children_.push_back(std::move(a));
  c.children_.push_back(std::move(b));
  return c;
}

ClockConstraint ClockConstraint::Or(ClockConstraint a, ClockConstraint b) {
  ClockConstraint c;
  c.kind_ = Kind::kOr;
  c.children_.push_back(std::move(a));
  c.children_.push_back(std::move(b));
  return c;
}

ClockConstraint ClockConstraint::Not(ClockConstraint a) {
  ClockConstraint c;
  c.kind_ = Kind::kNot;
  c.children_.push_back(std::move(a));
  return c;
}

bool ClockConstraint::IsTriviallyTrue() const { return kind_ == Kind::kTrue; }

std::optional<bool> ClockConstraint::Evaluate(
    std::span<const std::optional<std::int64_t>> values) const {
  switch (kind_) {
    case Kind::kTrue:
      return true;
    case Kind::kAtMost: {
      GM_CHECK(clock_ >= 0 && clock_ < static_cast<int>(values.size()));
      const std::optional<std::int64_t>& v = values[clock_];
      if (!v.has_value()) return std::nullopt;
      return *v <= bound_;
    }
    case Kind::kAtLeast: {
      GM_CHECK(clock_ >= 0 && clock_ < static_cast<int>(values.size()));
      const std::optional<std::int64_t>& v = values[clock_];
      if (!v.has_value()) return std::nullopt;
      return bound_ <= *v;
    }
    case Kind::kAnd: {
      bool unknown = false;
      for (const ClockConstraint& child : children_) {
        std::optional<bool> r = child.Evaluate(values);
        if (r == std::optional<bool>(false)) return false;
        if (!r.has_value()) unknown = true;
      }
      if (unknown) return std::nullopt;
      return true;
    }
    case Kind::kOr: {
      bool unknown = false;
      for (const ClockConstraint& child : children_) {
        std::optional<bool> r = child.Evaluate(values);
        if (r == std::optional<bool>(true)) return true;
        if (!r.has_value()) unknown = true;
      }
      if (unknown) return std::nullopt;
      return false;
    }
    case Kind::kNot: {
      std::optional<bool> r = children_[0].Evaluate(values);
      if (!r.has_value()) return std::nullopt;
      return !*r;
    }
  }
  return std::nullopt;
}

bool ClockConstraint::ExpiredForever(
    std::span<const std::optional<std::int64_t>> values) const {
  switch (kind_) {
    case Kind::kTrue:
    case Kind::kAtLeast:  // values only grow: satisfiable eventually
    case Kind::kNot:      // conservatively unknown
      return false;
    case Kind::kAtMost: {
      const std::optional<std::int64_t>& v = values[clock_];
      return v.has_value() && *v > bound_;
    }
    case Kind::kAnd:
      for (const ClockConstraint& child : children_) {
        if (child.ExpiredForever(values)) return true;
      }
      return false;
    case Kind::kOr:
      for (const ClockConstraint& child : children_) {
        if (!child.ExpiredForever(values)) return false;
      }
      return true;
  }
  return false;
}

std::vector<int> ClockConstraint::MentionedClocks() const {
  std::vector<int> out;
  if (kind_ == Kind::kAtMost || kind_ == Kind::kAtLeast) {
    out.push_back(clock_);
  }
  for (const ClockConstraint& child : children_) {
    std::vector<int> sub = child.MentionedClocks();
    out.insert(out.end(), sub.begin(), sub.end());
  }
  std::sort(out.begin(), out.end());
  out.erase(std::unique(out.begin(), out.end()), out.end());
  return out;
}

std::string ClockConstraint::ToString() const {
  std::ostringstream os;
  switch (kind_) {
    case Kind::kTrue:
      os << "true";
      break;
    case Kind::kAtMost:
      os << "x" << clock_ << " <= " << bound_;
      break;
    case Kind::kAtLeast:
      os << bound_ << " <= x" << clock_;
      break;
    case Kind::kAnd:
    case Kind::kOr: {
      const char* sep = kind_ == Kind::kAnd ? " && " : " || ";
      os << "(";
      for (std::size_t i = 0; i < children_.size(); ++i) {
        if (i > 0) os << sep;
        os << children_[i].ToString();
      }
      os << ")";
      break;
    }
    case Kind::kNot:
      os << "!(" << children_[0].ToString() << ")";
      break;
  }
  return os.str();
}

namespace {

// The smallest *defined* clock value a compiled bound admits; kUndefined
// sits just below it, so no `lo` ever admits an undefined clock.
constexpr std::int64_t kMinDefined = CompiledGuard::kUndefined + 1;
constexpr std::int64_t kMaxValue = std::numeric_limits<std::int64_t>::max();

}  // namespace

CompiledGuard::CompiledGuard(const ClockConstraint& guard) {
  for (const Box& box : Disjunction(guard, /*negated=*/false)) {
    bounds_.insert(bounds_.end(), box.begin(), box.end());
    box_end_.push_back(static_cast<std::uint32_t>(bounds_.size()));
  }
}

// The boxes of `formula` (or of its negation), pushing negations down to the
// atoms: !(v <= k) is k+1 <= v and !(k <= v) is v <= k-1, saturating at the
// int64 edges into an empty range (lo > hi) that no defined value meets.
std::vector<CompiledGuard::Box> CompiledGuard::Disjunction(
    const ClockConstraint& formula, bool negated) {
  using Kind = ClockConstraint::Kind;
  const int clock = formula.clock_;
  const std::int64_t k = formula.bound_;
  switch (formula.kind_) {
    case Kind::kTrue:
      if (negated) return {};
      return {Box{}};
    case Kind::kAtMost:
      if (!negated) return {Box{{clock, kMinDefined, k}}};
      if (k == kMaxValue) return {Box{{clock, kMaxValue, kMaxValue - 1}}};
      return {Box{{clock, std::max(k + 1, kMinDefined), kMaxValue}}};
    case Kind::kAtLeast:
      if (!negated) return {Box{{clock, std::max(k, kMinDefined), kMaxValue}}};
      if (k <= kMinDefined) return {Box{{clock, kMinDefined, kMinDefined - 1}}};
      return {Box{{clock, kMinDefined, k - 1}}};
    case Kind::kNot:
      return Disjunction(formula.children_[0], !negated);
    case Kind::kAnd:
    case Kind::kOr:
      break;
  }
  std::vector<Box> result;
  if ((formula.kind_ == Kind::kAnd) != negated) {
    // Conjunction: distribute over the children's disjunctions.
    result.push_back(Box{});
    for (const ClockConstraint& child : formula.children_) {
      std::vector<Box> next;
      for (const Box& left : result) {
        for (const Box& right : Disjunction(child, negated)) {
          Box merged;
          std::size_t i = 0, j = 0;
          while (i < left.size() || j < right.size()) {
            if (j == right.size() ||
                (i < left.size() && left[i].clock < right[j].clock)) {
              merged.push_back(left[i++]);
            } else if (i == left.size() || right[j].clock < left[i].clock) {
              merged.push_back(right[j++]);
            } else {
              merged.push_back({left[i].clock,
                                std::max(left[i].lo, right[j].lo),
                                std::min(left[i].hi, right[j].hi)});
              ++i;
              ++j;
            }
          }
          next.push_back(std::move(merged));
        }
      }
      result = std::move(next);
    }
  } else {
    for (const ClockConstraint& child : formula.children_) {
      std::vector<Box> boxes = Disjunction(child, negated);
      result.insert(result.end(), boxes.begin(), boxes.end());
    }
  }
  return result;
}

bool CompiledGuard::IsSatisfied(std::span<const std::int64_t> values) const {
  std::uint32_t begin = 0;
  for (std::uint32_t end : box_end_) {
    std::uint32_t i = begin;
    while (i < end) {
      const Bound& bound = bounds_[i];
      const std::int64_t v = values[static_cast<std::size_t>(bound.clock)];
      if (v < bound.lo || v > bound.hi) break;
      ++i;
    }
    if (i == end) return true;
    begin = end;
  }
  return false;
}

bool CompiledGuard::ExpiredForever(
    std::span<const std::int64_t> values) const {
  std::uint32_t begin = 0;
  for (std::uint32_t end : box_end_) {
    bool dead = false;
    for (std::uint32_t i = begin; i < end && !dead; ++i) {
      dead = values[static_cast<std::size_t>(bounds_[i].clock)] >
             bounds_[i].hi;
    }
    if (!dead) return false;
    begin = end;
  }
  return true;
}

}  // namespace granmine
