#include "refstruct/value_list.h"

#include "base/str_util.h"

namespace pascalr {

ValueList::Mode ValueList::ModeFor(CompareOp op, Quantifier q) {
  switch (op) {
    case CompareOp::kLt:
    case CompareOp::kLe:
      return q == Quantifier::kAll ? Mode::kMinOnly : Mode::kMaxOnly;
    case CompareOp::kGt:
    case CompareOp::kGe:
      return q == Quantifier::kAll ? Mode::kMaxOnly : Mode::kMinOnly;
    case CompareOp::kEq:
      return q == Quantifier::kAll ? Mode::kAtMostOne : Mode::kFull;
    case CompareOp::kNe:
      return q == Quantifier::kAll ? Mode::kFull : Mode::kAtMostOne;
  }
  return Mode::kFull;
}

void ValueList::Add(const Value& v) {
  const bool first = count_++ == 0;
  switch (mode_) {
    case Mode::kFull:
      // A repeated value cannot move the bounds.
      if (!values_.Insert(v)) return;
      break;
    case Mode::kMinOnly:
      if (first || v < min_) min_ = v;
      return;
    case Mode::kMaxOnly:
      if (first || max_ < v) max_ = v;
      return;
    case Mode::kAtMostOne:
      break;
  }
  if (first) {
    min_ = v;
    max_ = v;
  } else if (v < min_) {
    min_ = v;
  } else if (max_ < v) {
    max_ = v;
  }
}

size_t ValueList::stored_values() const {
  if (empty()) return 0;
  switch (mode_) {
    case Mode::kFull:
      return values_.size();
    case Mode::kMinOnly:
    case Mode::kMaxOnly:
      return 1;
    case Mode::kAtMostOne:
      return ManyDistinct() ? 2 : 1;  // value + overflow marker
  }
  return 0;
}

Status ValueList::NeedFull(CompareOp op) const {
  if (mode_ == Mode::kFull) return Status::OK();
  return Status::Internal(
      StrFormat("value list in summary mode cannot answer '%s' probe",
                std::string(CompareOpToString(op)).c_str()));
}

Result<bool> ValueList::SatisfiesSome(CompareOp op, const Value& x) const {
  if (empty()) return false;  // SOME over the empty list
  switch (op) {
    case CompareOp::kEq:
      // exists w: x = w  <=>  x in list
      PASCALR_RETURN_IF_ERROR(NeedFull(op));
      return values_.Contains(x);
    case CompareOp::kNe:
      // exists w: x <> w  <=>  >=2 distinct values, or the single one != x
      if (mode_ != Mode::kAtMostOne && mode_ != Mode::kFull) {
        return NeedFull(op);
      }
      return ManyDistinct() || min_ != x;
    case CompareOp::kLt:
      // exists w: x < w  <=>  x < max
      if (mode_ == Mode::kMinOnly) return NeedFull(op);
      return x < max_;
    case CompareOp::kLe:
      if (mode_ == Mode::kMinOnly) return NeedFull(op);
      return x.Compare(max_) <= 0;
    case CompareOp::kGt:
      // exists w: x > w  <=>  x > min
      if (mode_ == Mode::kMaxOnly) return NeedFull(op);
      return min_ < x;
    case CompareOp::kGe:
      if (mode_ == Mode::kMaxOnly) return NeedFull(op);
      return x.Compare(min_) >= 0;
  }
  return Status::Internal("unknown comparison operator");
}

Result<bool> ValueList::SatisfiesAll(CompareOp op, const Value& x) const {
  if (empty()) return true;  // ALL over the empty list (vacuous)
  switch (op) {
    case CompareOp::kEq:
      // all w: x = w  <=>  exactly one distinct value and it is x
      if (mode_ != Mode::kAtMostOne && mode_ != Mode::kFull) {
        return NeedFull(op);
      }
      return !ManyDistinct() && min_ == x;
    case CompareOp::kNe:
      // all w: x <> w  <=>  x not in list
      PASCALR_RETURN_IF_ERROR(NeedFull(op));
      return !values_.Contains(x);
    case CompareOp::kLt:
      // all w: x < w  <=>  x < min
      if (mode_ == Mode::kMaxOnly) return NeedFull(op);
      return x < min_;
    case CompareOp::kLe:
      if (mode_ == Mode::kMaxOnly) return NeedFull(op);
      return x.Compare(min_) <= 0;
    case CompareOp::kGt:
      // all w: x > w  <=>  x > max
      if (mode_ == Mode::kMinOnly) return NeedFull(op);
      return max_ < x;
    case CompareOp::kGe:
      if (mode_ == Mode::kMinOnly) return NeedFull(op);
      return x.Compare(max_) >= 0;
  }
  return Status::Internal("unknown comparison operator");
}

std::string ValueList::DebugString() const {
  const char* mode_name = "";
  switch (mode_) {
    case Mode::kFull: mode_name = "full"; break;
    case Mode::kMinOnly: mode_name = "min"; break;
    case Mode::kMaxOnly: mode_name = "max"; break;
    case Mode::kAtMostOne: mode_name = "one"; break;
  }
  return StrFormat("value_list(mode=%s, added=%zu, stored=%zu)", mode_name,
                   count_, stored_values());
}

}  // namespace pascalr
