// A Tuple is one relation element: a fixed-arity sequence of Values laid
// out in schema component order.

#ifndef PASCALR_VALUE_TUPLE_H_
#define PASCALR_VALUE_TUPLE_H_

#include <initializer_list>
#include <string>
#include <vector>

#include "value/value.h"

namespace pascalr {

class Tuple {
 public:
  Tuple() = default;
  explicit Tuple(std::vector<Value> values) : values_(std::move(values)) {}
  Tuple(std::initializer_list<Value> values) : values_(values) {}

  size_t size() const { return values_.size(); }
  bool empty() const { return values_.empty(); }
  const Value& at(size_t i) const { return values_[i]; }
  Value& at(size_t i) { return values_[i]; }
  const std::vector<Value>& values() const { return values_; }

  void Append(Value v) { values_.push_back(std::move(v)); }

  /// Lexicographic three-way comparison (same arity and value kinds).
  int Compare(const Tuple& other) const;
  bool operator==(const Tuple& other) const { return Compare(other) == 0; }
  bool operator!=(const Tuple& other) const { return Compare(other) != 0; }
  bool operator<(const Tuple& other) const { return Compare(other) < 0; }

  /// Folds each value's Hash() into kHashSeed with HashCombine, in
  /// component order.
  uint64_t Hash() const;
  static constexpr uint64_t kHashSeed = 0xcbf29ce484222325ULL;

  /// Projects the tuple onto the given component positions.
  Tuple Project(const std::vector<size_t>& positions) const;

  /// "<v1, v2, ...>" with raw value rendering.
  std::string ToString() const;

 private:
  std::vector<Value> values_;
};

/// Hash functor for unordered containers keyed by Tuple.
struct TupleHash {
  uint64_t operator()(const Tuple& t) const { return t.Hash(); }
};

}  // namespace pascalr

#endif  // PASCALR_VALUE_TUPLE_H_
