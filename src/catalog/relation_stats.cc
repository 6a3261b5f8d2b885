#include "catalog/relation_stats.h"

#include <algorithm>
#include <cmath>
#include <limits>

#include "base/math_util.h"
#include "base/str_util.h"
#include "refstruct/flat_hash.h"

namespace pascalr {

bool NumericValueRep(const Value& v, int64_t* out) {
  if (v.is_int()) {
    *out = v.AsInt();
    return true;
  }
  if (v.is_enum()) {
    *out = v.AsEnumOrdinal();
    return true;
  }
  if (v.is_bool()) {
    *out = v.AsBool() ? 1 : 0;
    return true;
  }
  return false;
}

size_t Histogram::BucketOf(int64_t x) const {
  if (buckets.empty() || hi <= lo) return 0;
  double span = static_cast<double>(hi) - static_cast<double>(lo) + 1.0;
  double idx = (static_cast<double>(x) - static_cast<double>(lo)) *
               static_cast<double>(buckets.size()) / span;
  size_t b = static_cast<size_t>(idx);
  return b >= buckets.size() ? buckets.size() - 1 : b;
}

double Histogram::FractionLe(int64_t x) const {
  if (empty() || buckets.empty()) return 0.0;
  if (x < lo) return 0.0;
  if (x >= hi) return 1.0;
  double span = static_cast<double>(hi) - static_cast<double>(lo) + 1.0;
  double bucket_span = span / static_cast<double>(buckets.size());
  size_t b = BucketOf(x);
  uint64_t below = 0;
  for (size_t i = 0; i < b; ++i) below += buckets[i];
  // Linear interpolation inside bucket b: values covered up to and
  // including x, over the bucket's own width.
  double b_lo = static_cast<double>(lo) + static_cast<double>(b) * bucket_span;
  double in_bucket = (static_cast<double>(x) - b_lo + 1.0) / bucket_span;
  double covered = static_cast<double>(below) +
                   Clamp01(in_bucket) * static_cast<double>(buckets[b]);
  return Clamp01(covered / static_cast<double>(total));
}

double Histogram::FractionLt(int64_t x) const {
  if (empty()) return 0.0;
  if (x <= lo) return 0.0;
  return FractionLe(x - 1);
}

double ColumnStats::Selectivity(CompareOp op, const Value& literal) const {
  // Out-of-range probes resolve exactly from min/max regardless of kind.
  if (has_min_max && literal.SameKind(min)) {
    int vs_min = literal.Compare(min);
    int vs_max = literal.Compare(max);
    switch (op) {
      case CompareOp::kEq:
        if (vs_min < 0 || vs_max > 0) return 0.0;
        break;
      case CompareOp::kNe:
        if (vs_min < 0 || vs_max > 0) return 1.0;
        break;
      case CompareOp::kLt:  // component < literal
        if (vs_min <= 0) return 0.0;
        if (vs_max > 0) return 1.0;
        break;
      case CompareOp::kLe:
        if (vs_min < 0) return 0.0;
        if (vs_max >= 0) return 1.0;
        break;
      case CompareOp::kGt:
        if (vs_max >= 0) return 0.0;
        if (vs_min < 0) return 1.0;
        break;
      case CompareOp::kGe:
        if (vs_max > 0) return 0.0;
        if (vs_min <= 0) return 1.0;
        break;
    }
  }

  int64_t x = 0;
  if (numeric && !histogram.empty() && NumericValueRep(literal, &x)) {
    switch (op) {
      case CompareOp::kEq: {
        size_t b = histogram.BucketOf(x);
        if (histogram.buckets.empty() || histogram.buckets[b] == 0) {
          return 0.0;
        }
        double share = static_cast<double>(histogram.buckets[b]) /
                       static_cast<double>(histogram.total);
        // Distinct values assumed spread like the row counts: the bucket
        // holds ~distinct*share of them, each equally likely — but never
        // more than the bucket's own domain width (a single-value bucket
        // answers equality exactly).
        double bucket_width =
            (static_cast<double>(histogram.hi) -
             static_cast<double>(histogram.lo) + 1.0) /
            static_cast<double>(histogram.buckets.size());
        double distinct_in_bucket =
            std::max(1.0, std::min(static_cast<double>(distinct) * share,
                                   std::ceil(bucket_width)));
        return Clamp01(share / distinct_in_bucket);
      }
      case CompareOp::kNe:
        return Clamp01(1.0 - Selectivity(CompareOp::kEq, literal));
      case CompareOp::kLt:
        return histogram.FractionLt(x);
      case CompareOp::kLe:
        return histogram.FractionLe(x);
      case CompareOp::kGt:
        return Clamp01(1.0 - histogram.FractionLe(x));
      case CompareOp::kGe:
        return Clamp01(1.0 - histogram.FractionLt(x));
    }
  }

  // No histogram (strings, or no data): uniform-distinct fallbacks.
  switch (op) {
    case CompareOp::kEq:
      return distinct == 0 ? 0.0 : 1.0 / static_cast<double>(distinct);
    case CompareOp::kNe:
      return distinct == 0 ? 0.0
                           : 1.0 - 1.0 / static_cast<double>(distinct);
    default:
      return distinct == 0 ? 0.0 : 1.0 / 3.0;
  }
}

std::string RelationStats::ToString() const {
  std::string out = StrFormat("%s: %llu elements (analyzed at mod %llu)\n",
                              relation.c_str(),
                              static_cast<unsigned long long>(cardinality),
                              static_cast<unsigned long long>(built_at_mod));
  for (const ColumnStats& c : columns) {
    out += StrFormat("  %-10s distinct=%llu", c.name.c_str(),
                     static_cast<unsigned long long>(c.distinct));
    if (c.has_min_max) {
      out += " min=" + c.min.ToString() + " max=" + c.max.ToString();
    }
    if (c.numeric && !c.histogram.empty()) {
      out += StrFormat(" histogram[%zu]", c.histogram.buckets.size());
    }
    out += "\n";
  }
  return out;
}

RelationStats ComputeRelationStats(const Relation& rel,
                                   size_t histogram_buckets) {
  RelationStats stats;
  stats.relation = rel.name();
  stats.cardinality = rel.cardinality();
  stats.built_at_mod = rel.mod_count();

  const size_t n = rel.schema().num_components();
  stats.columns.resize(n);
  std::vector<FlatValueSet> distinct(n);
  std::vector<std::vector<int64_t>> numeric_values(n);
  for (size_t i = 0; i < n; ++i) {
    stats.columns[i].name = rel.schema().component(i).name;
  }

  rel.Scan([&](const Ref&, const Tuple& tuple) {
    for (size_t i = 0; i < n; ++i) {
      const Value& v = tuple.at(i);
      ColumnStats& col = stats.columns[i];
      distinct[i].Insert(v);
      if (!col.has_min_max) {
        col.min = v;
        col.max = v;
        col.has_min_max = true;
      } else {
        if (v.Compare(col.min) < 0) col.min = v;
        if (v.Compare(col.max) > 0) col.max = v;
      }
      int64_t x;
      if (NumericValueRep(v, &x)) numeric_values[i].push_back(x);
    }
    return true;
  });

  for (size_t i = 0; i < n; ++i) {
    ColumnStats& col = stats.columns[i];
    col.distinct = distinct[i].size();
    if (numeric_values[i].empty()) continue;
    col.numeric = true;
    Histogram& h = col.histogram;
    h.lo = *std::min_element(numeric_values[i].begin(),
                             numeric_values[i].end());
    h.hi = *std::max_element(numeric_values[i].begin(),
                             numeric_values[i].end());
    h.total = numeric_values[i].size();
    // Span computed in unsigned arithmetic: hi - lo can exceed INT64_MAX
    // for wide subranges, which would be signed overflow (UB).
    uint64_t span =
        static_cast<uint64_t>(h.hi) - static_cast<uint64_t>(h.lo) + 1;
    if (span == 0) span = std::numeric_limits<uint64_t>::max();  // full domain
    h.buckets.assign(
        static_cast<size_t>(std::min<uint64_t>(
            histogram_buckets, std::max<uint64_t>(span, 1))),
        0);
    for (int64_t x : numeric_values[i]) ++h.buckets[h.BucketOf(x)];
  }
  return stats;
}

}  // namespace pascalr
