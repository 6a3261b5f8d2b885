#include "pipeline/iterators.h"

#include <algorithm>

#include "base/str_util.h"
#include "refstruct/division.h"
#include "refstruct/ops.h"
#include "storage/relation.h"

namespace pascalr {

namespace {

bool KeyEquals(const RefRow& a, const std::vector<int>& pa, const RefRow& b,
               const std::vector<int>& pb) {
  for (size_t i = 0; i < pa.size(); ++i) {
    if (a[static_cast<size_t>(pa[i])] != b[static_cast<size_t>(pb[i])]) {
      return false;
    }
  }
  return true;
}

uint64_t HashKeyChunk(const Chunk& chunk, size_t row,
                      const std::vector<int>& positions) {
  uint64_t h = kJoinKeyHashSeed;
  for (int p : positions) {
    h = HashCombine(h, chunk.cols[static_cast<size_t>(p)][row].Hash());
  }
  return h;
}

bool KeyEqualsChunk(const Chunk& chunk, size_t row,
                    const std::vector<int>& pa, const RefRow& b,
                    const std::vector<int>& pb) {
  for (size_t i = 0; i < pa.size(); ++i) {
    if (chunk.cols[static_cast<size_t>(pa[i])][row] !=
        b[static_cast<size_t>(pb[i])]) {
      return false;
    }
  }
  return true;
}

}  // namespace

Result<bool> RefIterator::NextBatch(Chunk* out) {
  // Row bridge: the adapter that keeps unvectorized operators inside
  // batched plans. Work and counters are identical to pulling the same
  // rows through Next directly — only the call pattern changes.
  out->Reset(out->arity());
  RefRow row;
  while (!out->full()) {
    PASCALR_ASSIGN_OR_RETURN(bool more, Next(&row));
    if (!more) break;
    out->AppendRow(row);
  }
  return out->rows > 0;
}

Result<bool> UnitIter::Next(RefRow* out) {
  if (done_) return false;
  done_ = true;
  out->clear();
  return true;
}

Status ScanIter::Ensure() {
  if (rel_ == nullptr) {
    // Demand-driven: the structure materialises at the first pull.
    PASCALR_RETURN_IF_ERROR(builders_->EnsureStructure(structure_id_));
    rel_ = &builders_->result().structures[structure_id_];
  }
  if (end_ > rel_->size()) end_ = rel_->size();
  return Status::OK();
}

Result<bool> ScanIter::Next(RefRow* out) {
  PASCALR_RETURN_IF_ERROR(Ensure());
  if (pos_ >= end_) return false;
  *out = rel_->row(pos_++);
  return true;
}

Result<bool> ScanIter::NextBatch(Chunk* out) {
  PASCALR_RETURN_IF_ERROR(Ensure());
  const size_t arity = rel_->arity();
  out->Reset(arity);
  const size_t take = std::min(out->capacity, end_ - std::min(pos_, end_));
  if (take == 0) return false;
  // One pass over the row-major structure: each source row is chased
  // exactly once and the columns are written through raw pointers — no
  // per-row RefRow allocation, no per-element capacity check.
  for (size_t c = 0; c < arity; ++c) out->cols[c].resize(take);
  const RefRow* rows = rel_->rows().data() + pos_;
  if (arity == 1) {
    Ref* dst = out->cols[0].data();
    for (size_t r = 0; r < take; ++r) dst[r] = rows[r][0];
  } else {
    for (size_t r = 0; r < take; ++r) {
      const Ref* src = rows[r].data();
      for (size_t c = 0; c < arity; ++c) out->cols[c][r] = src[c];
    }
  }
  pos_ += take;
  out->rows = take;
  return true;
}

// ------------------------------------------------------------- BaseScanIter

Result<bool> BaseScanIter::Next(RefRow* out) {
  if (!prepared_) {
    prepared_ = true;
    PASCALR_RETURN_IF_ERROR(builders_->EnsureElementPrereqs(structure_id_));
    PASCALR_ASSIGN_OR_RETURN(const Relation* rel,
                             builders_->StructureBaseRelation(structure_id_));
    refs_ = rel->AllRefs();
  }
  while (true) {
    if (pending_pos_ < pending_.size()) {
      *out = pending_[pending_pos_++];
      return true;
    }
    if (ref_pos_ >= refs_.size()) return false;
    pending_.clear();
    pending_pos_ = 0;
    PASCALR_RETURN_IF_ERROR(
        builders_->EvalElement(structure_id_, refs_[ref_pos_++], &pending_));
  }
}

// ------------------------------------------------------------ ProbeJoinIter

ProbeJoinIter::ProbeJoinIter(RefIteratorPtr left, const RefRelation* right,
                             std::vector<int> left_key,
                             std::vector<int> right_key,
                             std::vector<int> right_extras, bool semi,
                             ExecStats* stats)
    : left_(std::move(left)),
      right_(right),
      left_key_(std::move(left_key)),
      right_key_(std::move(right_key)),
      right_extras_(std::move(right_extras)),
      semi_(semi),
      stats_(stats) {}

ProbeJoinIter::ProbeJoinIter(RefIteratorPtr left, CollectionBuilders* builders,
                             size_t right_structure, std::vector<int> left_key,
                             std::vector<int> right_key,
                             std::vector<int> right_extras, bool semi,
                             ExecStats* stats, int keyed_probe_pos)
    : left_(std::move(left)),
      builders_(builders),
      right_structure_(right_structure),
      left_key_(std::move(left_key)),
      right_key_(std::move(right_key)),
      right_extras_(std::move(right_extras)),
      semi_(semi),
      stats_(stats),
      key_probe_pos_(keyed_probe_pos) {}

ProbeJoinIter::ProbeJoinIter(RefIteratorPtr left, RefIteratorPtr right_source,
                             std::vector<std::string> right_columns,
                             std::vector<int> left_key,
                             std::vector<int> right_key,
                             std::vector<int> right_extras, bool semi,
                             ExecStats* stats, PeakTracker* tracker)
    : left_(std::move(left)),
      right_source_(std::move(right_source)),
      right_buf_(std::move(right_columns)),
      left_key_(std::move(left_key)),
      right_key_(std::move(right_key)),
      right_extras_(std::move(right_extras)),
      semi_(semi),
      stats_(stats),
      tracker_(tracker) {}

ProbeJoinIter::ProbeJoinIter(RefIteratorPtr left, const RefRelation* right,
                             const JoinHashTable* shared,
                             std::vector<int> left_key,
                             std::vector<int> right_key,
                             std::vector<int> right_extras, bool semi,
                             ExecStats* stats)
    : left_(std::move(left)),
      right_(right),
      left_key_(std::move(left_key)),
      right_key_(std::move(right_key)),
      right_extras_(std::move(right_extras)),
      semi_(semi),
      stats_(stats),
      shared_table_(shared) {}

Status ProbeJoinIter::Prepare() {
  // prepared_ is only set on success: a failed Prepare (lazy build error,
  // bushy drain error) must re-run on the next Next, not probe
  // half-initialized state.
  if (builders_ != nullptr && key_probe_pos_ >= 0 &&
      !builders_->structure_built(right_structure_)) {
    // Lazy right side in keyed mode (the lowering decided the structure's
    // keyed column is part of the probe key): populate per requested join
    // key — an O(probe) element evaluation instead of an O(relation)
    // build; KeyEquals still verifies the full (possibly multi-column)
    // key below.
    keyed_mode_ = true;
    prepared_ = true;
    return Status::OK();
  }
  if (builders_ != nullptr) {
    PASCALR_RETURN_IF_ERROR(builders_->EnsureStructure(right_structure_));
    right_ = &builders_->result().structures[right_structure_];
  }
  if (right_source_ != nullptr) {
    // Bushy build: the right subtree must be complete before the first
    // probe — the one genuinely blocking join input, peak-counted.
    RefRow row;
    while (true) {
      PASCALR_ASSIGN_OR_RETURN(bool more, right_source_->Next(&row));
      if (!more) break;
      if (right_buf_.Add(std::move(row)) && tracker_ != nullptr) {
        tracker_->Add(1);
      }
    }
    right_source_.reset();
    right_ = &right_buf_;
  }
  if (!left_key_.empty() && shared_table_ == nullptr) {
    table_ = BuildJoinHashTable(*right_, right_key_);
    shared_table_ = &table_;
  }
  prepared_ = true;
  return Status::OK();
}

bool ProbeJoinIter::Emit(const RefRow& right_row, RefRow* out) {
  *out = left_row_;
  if (!semi_) {
    out->reserve(out->size() + right_extras_.size());
    for (int e : right_extras_) {
      out->push_back(right_row[static_cast<size_t>(e)]);
    }
  }
  if (stats_ != nullptr) ++stats_->combination_rows;
  return true;
}

Result<bool> ProbeJoinIter::Next(RefRow* out) {
  if (!prepared_) PASCALR_RETURN_IF_ERROR(Prepare());
  while (true) {
    if (!have_left_) {
      PASCALR_ASSIGN_OR_RETURN(bool more, left_->Next(&left_row_));
      if (!more) return false;
      have_left_ = true;
      match_pos_ = 0;
      if (keyed_mode_) {
        PASCALR_ASSIGN_OR_RETURN(
            keyed_rows_,
            builders_->KeyedMatches(
                right_structure_,
                left_row_[static_cast<size_t>(key_probe_pos_)]));
      } else if (!left_key_.empty()) {
        chain_ = shared_table_->Find(JoinKeyHash(left_row_, left_key_));
      }
    }
    if (keyed_mode_) {
      while (keyed_rows_ != nullptr && match_pos_ < keyed_rows_->size()) {
        const RefRow& candidate = (*keyed_rows_)[match_pos_++];
        if (!KeyEquals(left_row_, left_key_, candidate, right_key_)) continue;
        if (semi_) have_left_ = false;  // first match wins; next left row
        return Emit(candidate, out);
      }
      have_left_ = false;
      continue;
    }
    if (left_key_.empty()) {
      // Cartesian step. Semi: the right side only needs to be non-empty.
      if (semi_) {
        have_left_ = false;
        if (!right_->empty()) return Emit(right_->row(0), out);
        continue;
      }
      if (match_pos_ < right_->size()) {
        return Emit(right_->row(match_pos_++), out);
      }
      have_left_ = false;
      continue;
    }
    // Keyed probe: walk the hash chain, verifying against collisions.
    while (match_pos_ < chain_.size) {
      const RefRow& candidate = right_->row(chain_.rows[match_pos_++]);
      if (!KeyEquals(left_row_, left_key_, candidate, right_key_)) continue;
      if (semi_) have_left_ = false;  // first match wins; next left row
      return Emit(candidate, out);
    }
    have_left_ = false;
  }
}

void ProbeJoinIter::EmitBatch(size_t l, const RefRow* right_row, Chunk* out) {
  const size_t left_arity = left_chunk_.arity();
  for (size_t c = 0; c < left_arity; ++c) {
    out->cols[c].push_back(left_chunk_.cols[c][l]);
  }
  if (!semi_ && right_row != nullptr) {
    for (size_t e = 0; e < right_extras_.size(); ++e) {
      out->cols[left_arity + e].push_back(
          (*right_row)[static_cast<size_t>(right_extras_[e])]);
    }
  }
  ++out->rows;
  if (stats_ != nullptr) ++stats_->combination_rows;
}

Result<bool> ProbeJoinIter::NextBatch(Chunk* out) {
  if (!prepared_) PASCALR_RETURN_IF_ERROR(Prepare());
  if (keyed_mode_) {
    // Lazy per-join-key population stays row-at-a-time (the builders'
    // keyed cache is inherently per-probe); the bridge keeps it working.
    return RefIterator::NextBatch(out);
  }
  // The chunk contract requires a full overwrite on every pull: start
  // from an empty chunk so rows from the previous pull can never leak
  // into this one when the left child turns out to be exhausted.
  out->Reset(out->arity());
  // `have_left_` marks a left row whose match chain is mid-emission
  // (the previous output chunk filled up); everything else restarts
  // from the left chunk cursor.
  bool sized = left_chunk_.rows > 0 || have_left_;
  if (sized) {
    out->Reset(left_chunk_.arity() +
               (semi_ ? 0 : right_extras_.size()));
  }
  while (!out->full()) {
    if (!have_left_) {
      if (left_pos_ >= left_chunk_.rows) {
        left_chunk_.capacity = out->capacity;
        PASCALR_ASSIGN_OR_RETURN(bool more, left_->NextBatch(&left_chunk_));
        if (!more) break;
        left_pos_ = 0;
        if (!sized) {
          sized = true;
          out->Reset(left_chunk_.arity() +
                     (semi_ ? 0 : right_extras_.size()));
        }
      }
      have_left_ = true;
      match_pos_ = 0;
      if (!left_key_.empty()) {
        chain_ = shared_table_->Find(
            HashKeyChunk(left_chunk_, left_pos_, left_key_));
      }
    }
    const size_t l = left_pos_;
    if (left_key_.empty()) {
      // Cartesian step. Semi: the right side only needs to be non-empty.
      if (semi_) {
        if (!right_->empty()) EmitBatch(l, nullptr, out);
      } else {
        while (match_pos_ < right_->size() && !out->full()) {
          EmitBatch(l, &right_->row(match_pos_++), out);
        }
        if (match_pos_ < right_->size()) continue;  // out full, row pending
      }
    } else {
      bool emitted_semi = false;
      while (match_pos_ < chain_.size && !out->full()) {
        const RefRow& candidate = right_->row(chain_.rows[match_pos_++]);
        if (!KeyEqualsChunk(left_chunk_, l, left_key_, candidate,
                            right_key_)) {
          continue;
        }
        EmitBatch(l, &candidate, out);
        if (semi_) {
          emitted_semi = true;
          break;  // first match wins; next left row
        }
      }
      if (!emitted_semi && match_pos_ < chain_.size) {
        continue;  // out full mid-chain, left row stays pending
      }
    }
    have_left_ = false;
    ++left_pos_;
  }
  return out->rows > 0;
}

// --------------------------------------------------------------- ExtendIter

Status ExtendIter::EnsureRefs() {
  if (refs_ != nullptr) return Status::OK();
  PASCALR_RETURN_IF_ERROR(builders_->EnsureRange(var_));
  auto it = builders_->result().range_refs.find(var_);
  if (it == builders_->result().range_refs.end()) {
    return Status::Internal("no materialised range for '" + var_ + "'");
  }
  refs_ = &it->second;
  return Status::OK();
}

Result<bool> ExtendIter::Next(RefRow* out) {
  PASCALR_RETURN_IF_ERROR(EnsureRefs());
  if (refs_->empty()) return false;  // product with an empty range
  while (true) {
    if (!have_) {
      PASCALR_ASSIGN_OR_RETURN(bool more, child_->Next(&row_));
      if (!more) return false;
      have_ = true;
      pos_ = 0;
    }
    if (pos_ < refs_->size()) {
      *out = row_;
      out->push_back((*refs_)[pos_++]);
      if (stats_ != nullptr) ++stats_->combination_rows;
      return true;
    }
    have_ = false;
  }
}

Result<bool> ExtendIter::NextBatch(Chunk* out) {
  PASCALR_RETURN_IF_ERROR(EnsureRefs());
  const std::vector<Ref>& refs = *refs_;
  if (refs.empty()) {
    out->Reset(out->arity());
    return false;  // product with an empty range
  }
  // Full overwrite on every pull: without this, an exhausted child
  // (whose chunk was zeroed by its own final refill) leaves `sized`
  // false and the previous pull's rows would be returned again.
  out->Reset(out->arity());
  bool sized = child_chunk_.rows > 0;
  if (sized) out->Reset(child_chunk_.arity() + 1);
  while (!out->full()) {
    if (child_pos_ >= child_chunk_.rows) {
      if (pos_ != 0 && pos_ < refs.size()) break;  // mid-row, cannot refill
      child_chunk_.capacity = out->capacity;
      PASCALR_ASSIGN_OR_RETURN(bool more, child_->NextBatch(&child_chunk_));
      if (!more) break;
      child_pos_ = 0;
      pos_ = 0;
      if (!sized) {
        sized = true;
        out->Reset(child_chunk_.arity() + 1);
      }
    }
    const size_t arity = child_chunk_.arity();
    while (child_pos_ < child_chunk_.rows && !out->full()) {
      // One child row × the range: replicate the row per ref in tight
      // column loops.
      const size_t take = std::min(refs.size() - pos_,
                                   out->capacity - out->rows);
      for (size_t c = 0; c < arity; ++c) {
        const Ref v = child_chunk_.cols[c][child_pos_];
        std::vector<Ref>& col = out->cols[c];
        col.insert(col.end(), take, v);
      }
      out->cols[arity].insert(out->cols[arity].end(), refs.begin() + pos_,
                              refs.begin() + pos_ + take);
      out->rows += take;
      if (stats_ != nullptr) stats_->combination_rows += take;
      pos_ += take;
      if (pos_ >= refs.size()) {
        pos_ = 0;
        ++child_pos_;
      }
    }
  }
  return out->rows > 0;
}

// ------------------------------------------------------------ RangeGuardIter

Status RangeGuardIter::Check() {
  if (checked_) return Status::OK();
  checked_ = true;
  PASCALR_RETURN_IF_ERROR(builders_->EnsureRange(var_));
  auto it = builders_->result().range_refs.find(var_);
  empty_ = it == builders_->result().range_refs.end() || it->second.empty();
  return Status::OK();
}

Result<bool> RangeGuardIter::Next(RefRow* out) {
  PASCALR_RETURN_IF_ERROR(Check());
  if (empty_) return false;
  return child_->Next(out);
}

Result<bool> RangeGuardIter::NextBatch(Chunk* out) {
  PASCALR_RETURN_IF_ERROR(Check());
  if (empty_) {
    out->Reset(out->arity());
    return false;
  }
  return child_->NextBatch(out);
}

// --------------------------------------------------------------- FilterIter

bool FilterIter::Keeps(const Chunk& chunk, size_t row) {
  if (member_of_ != nullptr) {
    key_.resize(key_pos_.size());
    for (size_t i = 0; i < key_pos_.size(); ++i) {
      key_[i] = chunk.cols[static_cast<size_t>(key_pos_[i])][row];
    }
    return member_of_->Contains(key_);
  }
  bool same = chunk.cols[static_cast<size_t>(left_pos_)][row] ==
              chunk.cols[static_cast<size_t>(right_pos_)][row];
  return same == equal_;
}

Result<bool> FilterIter::Next(RefRow* out) {
  while (true) {
    PASCALR_ASSIGN_OR_RETURN(bool more, child_->Next(out));
    if (!more) return false;
    if (stats_ != nullptr) ++stats_->comparisons;
    if (member_of_ != nullptr) {
      key_.resize(key_pos_.size());
      for (size_t i = 0; i < key_pos_.size(); ++i) {
        key_[i] = (*out)[static_cast<size_t>(key_pos_[i])];
      }
      if (member_of_->Contains(key_)) {
        // Kept rows count as combination output, mirroring the semi
        // probe-join this lowering replaces — combination_rows totals
        // are invariant across the two lowerings.
        if (stats_ != nullptr) ++stats_->combination_rows;
        return true;
      }
      continue;
    }
    bool same = (*out)[static_cast<size_t>(left_pos_)] ==
                (*out)[static_cast<size_t>(right_pos_)];
    if (same == equal_) return true;
  }
}

Result<bool> FilterIter::NextBatch(Chunk* out) {
  // The vectorized reference shape: evaluate the predicate over the
  // child chunk into a selection vector, then gather the survivors
  // column-by-column. Emits one (possibly short) chunk per child chunk;
  // an all-filtered chunk loops for the next.
  while (true) {
    child_chunk_.capacity = out->capacity;
    PASCALR_ASSIGN_OR_RETURN(bool more, child_->NextBatch(&child_chunk_));
    if (!more) {
      out->Reset(out->arity());
      return false;
    }
    sel_.clear();
    if (member_of_ != nullptr) {
      // Vectorized membership: hash the key columns in bulk (one tight
      // loop per column over the chunk), then probe with the precomputed
      // hash — the per-row work left is the index probe itself.
      const size_t n = child_chunk_.rows;
      hashes_.assign(n, RefRelation::kRowHashSeed);
      for (int pos : key_pos_) {
        const Ref* col = child_chunk_.cols[static_cast<size_t>(pos)].data();
        for (size_t r = 0; r < n; ++r) {
          hashes_[r] = HashCombine(hashes_[r], col[r].Hash());
        }
      }
      key_.resize(key_pos_.size());
      for (size_t r = 0; r < n; ++r) {
        for (size_t i = 0; i < key_pos_.size(); ++i) {
          key_[i] = child_chunk_.cols[static_cast<size_t>(key_pos_[i])][r];
        }
        if (member_of_->ContainsPrehashed(hashes_[r], key_)) {
          sel_.push_back(static_cast<uint32_t>(r));
        }
      }
    } else {
      for (size_t r = 0; r < child_chunk_.rows; ++r) {
        if (Keeps(child_chunk_, r)) sel_.push_back(static_cast<uint32_t>(r));
      }
    }
    if (stats_ != nullptr) {
      stats_->comparisons += child_chunk_.rows;
      // Membership mode replaces a semi probe-join: survivors are its
      // combination output (totals invariant across the two lowerings).
      if (member_of_ != nullptr) stats_->combination_rows += sel_.size();
    }
    if (sel_.empty()) continue;
    out->Reset(child_chunk_.arity());
    for (size_t c = 0; c < child_chunk_.arity(); ++c) {
      const std::vector<Ref>& src = child_chunk_.cols[c];
      std::vector<Ref>& dst = out->cols[c];
      for (uint32_t r : sel_) dst.push_back(src[r]);
    }
    out->rows = sel_.size();
    return true;
  }
}

// -------------------------------------------------------------- ProjectIter

ProjectIter::ProjectIter(RefIteratorPtr child, std::vector<int> positions,
                         std::vector<std::string> columns, bool dedup,
                         ExecStats* stats, PeakTracker* tracker)
    : child_(std::move(child)),
      positions_(std::move(positions)),
      dedup_(dedup),
      seen_(dedup ? RefRelation(std::move(columns)) : RefRelation()),
      stats_(stats),
      tracker_(tracker) {}

Result<bool> ProjectIter::Next(RefRow* out) {
  RefRow row;
  while (true) {
    PASCALR_ASSIGN_OR_RETURN(bool more, child_->Next(&row));
    if (!more) return false;
    RefRow projected;
    projected.reserve(positions_.size());
    for (int p : positions_) projected.push_back(row[static_cast<size_t>(p)]);
    if (dedup_) {
      if (!seen_.Add(projected)) continue;  // duplicate row, suppressed
      if (tracker_ != nullptr) tracker_->Add(1);
    }
    if (stats_ != nullptr) ++stats_->combination_rows;
    *out = std::move(projected);
    return true;
  }
}

Result<bool> ProjectIter::NextBatch(Chunk* out) {
  if (!dedup_) {
    // Mid-chain alignment: gather the selected columns of one child
    // chunk — a pure column shuffle, no per-row work at all.
    while (true) {
      child_chunk_.capacity = out->capacity;
      PASCALR_ASSIGN_OR_RETURN(bool more, child_->NextBatch(&child_chunk_));
      if (!more) {
        out->Reset(out->arity());
        return false;
      }
      if (child_chunk_.rows == 0) continue;
      out->Reset(positions_.size());
      for (size_t i = 0; i < positions_.size(); ++i) {
        out->cols[i] = child_chunk_.cols[static_cast<size_t>(positions_[i])];
      }
      out->rows = child_chunk_.rows;
      if (stats_ != nullptr) stats_->combination_rows += out->rows;
      return true;
    }
  }
  // Dedup sink: accumulate until the output chunk is full (or the child
  // is dry), so the emitted chunk grid depends only on the distinct-row
  // stream and the batch size — not on upstream chunk boundaries. That
  // keeps batches_emitted deterministic and PARALLEL-degree-invariant.
  out->Reset(positions_.size());
  while (!out->full()) {
    if (child_pos_ >= child_chunk_.rows) {
      if (child_done_) break;
      child_chunk_.capacity = out->capacity;
      PASCALR_ASSIGN_OR_RETURN(bool more, child_->NextBatch(&child_chunk_));
      if (!more) {
        child_done_ = true;
        break;
      }
      child_pos_ = 0;
    }
    while (child_pos_ < child_chunk_.rows && !out->full()) {
      const size_t r = child_pos_++;
      scratch_.resize(positions_.size());
      for (size_t i = 0; i < positions_.size(); ++i) {
        scratch_[i] = child_chunk_.cols[static_cast<size_t>(positions_[i])][r];
      }
      if (!seen_.Add(scratch_)) continue;  // duplicate row, suppressed
      if (tracker_ != nullptr) tracker_->Add(1);
      for (size_t i = 0; i < positions_.size(); ++i) {
        out->cols[i].push_back(scratch_[i]);
      }
      ++out->rows;
      if (stats_ != nullptr) ++stats_->combination_rows;
    }
  }
  return out->rows > 0;
}

// --------------------------------------------------------------- ConcatIter

Result<bool> ConcatIter::Next(RefRow* out) {
  while (current_ < children_.size()) {
    PASCALR_ASSIGN_OR_RETURN(bool more, children_[current_]->Next(out));
    if (more) return true;
    children_[current_].reset();  // fully drained; release its state
    ++current_;
  }
  return false;
}

Result<bool> ConcatIter::NextBatch(Chunk* out) {
  while (current_ < children_.size()) {
    PASCALR_ASSIGN_OR_RETURN(bool more, children_[current_]->NextBatch(out));
    if (more && out->rows > 0) return true;
    children_[current_].reset();  // fully drained; release its state
    ++current_;
  }
  out->Reset(out->arity());
  return false;
}

// ------------------------------------------------------ QuantifierTailIter

QuantifierTailIter::QuantifierTailIter(
    RefIteratorPtr child, std::vector<QuantifiedVar> tail,
    std::vector<std::string> columns, std::vector<std::string> free_names,
    CollectionBuilders* builders, DivisionAlgorithm division,
    ExecStats* stats, PeakTracker* tracker)
    : child_(std::move(child)),
      tail_(std::move(tail)),
      columns_(std::move(columns)),
      free_names_(std::move(free_names)),
      builders_(builders),
      division_(division),
      stats_(stats),
      tracker_(tracker) {}

Status QuantifierTailIter::Materialize() {
  materialized_ = true;
  // Buffer the stream with set semantics: exactly the division input the
  // materializing path arrives at after its inner-SOME projections. The
  // child is drained in chunks so a vectorized subtree stays batched up
  // to this blocking boundary.
  RefRelation combined(columns_);
  Chunk chunk;
  RefRow row;
  while (true) {
    PASCALR_ASSIGN_OR_RETURN(bool more, child_->NextBatch(&chunk));
    if (!more) break;
    for (size_t r = 0; r < chunk.rows; ++r) {
      chunk.RowAt(r, &row);
      if (combined.Add(row)) {
        if (tracker_ != nullptr) tracker_->Add(1);
        if (stats_ != nullptr) ++stats_->combination_rows;
      }
    }
  }
  child_.reset();

  for (size_t i = tail_.size(); i-- > 0;) {
    const QuantifiedVar& qv = tail_[i];
    if (qv.quantifier == Quantifier::kFree) break;
    RefRelation next;
    if (qv.quantifier == Quantifier::kSome) {
      std::vector<std::string> keep;
      for (const std::string& col : combined.columns()) {
        if (col != qv.var) keep.push_back(col);
      }
      PASCALR_ASSIGN_OR_RETURN(next, Project(combined, keep, stats_));
    } else {
      PASCALR_RETURN_IF_ERROR(builders_->EnsureRange(qv.var));
      auto it = builders_->result().range_refs.find(qv.var);
      if (it == builders_->result().range_refs.end()) {
        return Status::Internal("no materialised range for '" + qv.var + "'");
      }
      PASCALR_ASSIGN_OR_RETURN(
          next, Divide(combined, qv.var, it->second, stats_, division_));
    }
    if (tracker_ != nullptr) {
      tracker_->Add(next.size());
      tracker_->Sub(combined.size());
    }
    combined = std::move(next);
  }

  PASCALR_ASSIGN_OR_RETURN(result_, Project(combined, free_names_, stats_));
  if (tracker_ != nullptr) {
    tracker_->Add(result_.size());
    tracker_->Sub(combined.size());
  }
  return Status::OK();
}

Result<bool> QuantifierTailIter::Next(RefRow* out) {
  if (!materialized_) PASCALR_RETURN_IF_ERROR(Materialize());
  if (pos_ >= result_.size()) {
    if (tracker_ != nullptr) tracker_->Sub(result_.size());
    result_.Clear();
    pos_ = 0;
    return false;
  }
  *out = result_.row(pos_++);
  return true;
}

Result<bool> QuantifierTailIter::NextBatch(Chunk* out) {
  if (!materialized_) PASCALR_RETURN_IF_ERROR(Materialize());
  const size_t arity = free_names_.size();
  out->Reset(arity);
  if (pos_ >= result_.size()) {
    if (tracker_ != nullptr) tracker_->Sub(result_.size());
    result_.Clear();
    pos_ = 0;
    return false;
  }
  const size_t take = std::min(out->capacity, result_.size() - pos_);
  for (size_t c = 0; c < arity; ++c) {
    std::vector<Ref>& col = out->cols[c];
    for (size_t r = 0; r < take; ++r) col.push_back(result_.row(pos_ + r)[c]);
  }
  pos_ += take;
  out->rows = take;
  return true;
}

}  // namespace pascalr
