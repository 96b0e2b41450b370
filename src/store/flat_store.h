#ifndef RIPPLE_STORE_FLAT_STORE_H_
#define RIPPLE_STORE_FLAT_STORE_H_

#include <cstdint>
#include <vector>

#include "common/check.h"
#include "store/tuple.h"

namespace ripple::store {

/// Flat structure-of-arrays tuple storage: one id array plus d contiguous
/// coordinate columns, sized to the runtime dimensionality (not kMaxDims).
/// This is the backing layout of LocalStore and KdIndex — the per-peer
/// kernels (block scoring, column-wise dominance, bounded top-k) stream
/// whole columns instead of striding over 88-byte Tuple records, which is
/// what lets the inner loops auto-vectorize. Tuple/TupleVec survive only
/// at the edges (wire codecs, answers, oracles); TupleAt/Materialize
/// convert on demand.
class FlatStore {
 public:
  FlatStore() = default;
  // Copies re-point the column pointer table at their own columns; moves
  // keep the column buffers, so the moved table stays valid.
  FlatStore(const FlatStore& o) : ids_(o.ids_), cols_(o.cols_) { SyncPtrs(); }
  FlatStore& operator=(const FlatStore& o) {
    ids_ = o.ids_;
    cols_ = o.cols_;
    SyncPtrs();
    return *this;
  }
  FlatStore(FlatStore&&) noexcept = default;
  FlatStore& operator=(FlatStore&&) noexcept = default;

  size_t size() const { return ids_.size(); }
  bool empty() const { return ids_.empty(); }
  /// Number of coordinate columns; 0 until the first Append fixes it.
  int dims() const { return static_cast<int>(cols_.size()); }

  uint64_t id(size_t i) const {
    RIPPLE_DCHECK(i < ids_.size());
    return ids_[i];
  }
  const std::vector<uint64_t>& ids() const { return ids_; }

  /// Base pointer of coordinate column `c` (values of dimension c for all
  /// rows, contiguous).
  const double* col(int c) const {
    RIPPLE_DCHECK(c >= 0 && c < dims());
    return cols_[c].data();
  }

  /// All d column base pointers, kernel-call shaped. Valid until the next
  /// mutation. A pure read (every mutation re-syncs the table), so
  /// concurrent readers may call it.
  const double* const* cols() const { return col_ptrs_.data(); }

  Point PointAt(size_t i) const {
    RIPPLE_DCHECK(i < ids_.size());
    Point p(dims());
    for (int c = 0; c < dims(); ++c) p[c] = cols_[c][i];
    return p;
  }

  Tuple TupleAt(size_t i) const { return Tuple{id(i), PointAt(i)}; }

  void Reserve(size_t n) {
    ids_.reserve(n);
    for (auto& col : cols_) col.reserve(n);
    SyncPtrs();
  }

  void Append(const Tuple& t) {
    const int d = t.key.dims();
    if (empty() && d != dims()) Reshape(d);
    RIPPLE_DCHECK(d == dims());
    ids_.push_back(t.id);
    for (int c = 0; c < d; ++c) {
      cols_[c].push_back(t.key[c]);
      col_ptrs_[c] = cols_[c].data();
    }
  }

  void AppendAll(const TupleVec& ts) {
    Reserve(size() + ts.size());
    for (const Tuple& t : ts) Append(t);
  }

  /// Column-wise bulk absorb of another store's rows.
  void AppendAll(const FlatStore& other) {
    if (other.empty()) return;
    if (empty() && other.dims() != dims()) Reshape(other.dims());
    RIPPLE_DCHECK(other.dims() == dims());
    ids_.insert(ids_.end(), other.ids_.begin(), other.ids_.end());
    for (int c = 0; c < dims(); ++c) {
      cols_[c].insert(cols_[c].end(), other.cols_[c].begin(),
                      other.cols_[c].end());
    }
    SyncPtrs();
  }

  /// Drops all rows. Dimensionality and column capacity are kept; an
  /// Append with a different dims() re-shapes an empty store.
  void Clear() {
    ids_.clear();
    for (auto& col : cols_) col.clear();
  }

  /// A new store holding this store's rows reordered to `order`
  /// (order[i] = source row of output row i). Column-wise gather.
  FlatStore Permuted(const std::vector<uint32_t>& order) const {
    FlatStore out;
    out.cols_.resize(cols_.size());
    out.ids_.reserve(order.size());
    for (uint32_t i : order) out.ids_.push_back(ids_[i]);
    for (size_t c = 0; c < cols_.size(); ++c) {
      out.cols_[c].reserve(order.size());
      for (uint32_t i : order) out.cols_[c].push_back(cols_[c][i]);
    }
    out.SyncPtrs();
    return out;
  }

  TupleVec Materialize() const {
    TupleVec out;
    out.reserve(size());
    for (size_t i = 0; i < size(); ++i) out.push_back(TupleAt(i));
    return out;
  }

  /// Stable split: rows with extract_mask[i] != 0 are removed and
  /// returned (in row order); kept rows are compacted preserving order —
  /// the SoA equivalent of std::stable_partition + erase.
  TupleVec ExtractIf(const std::vector<uint8_t>& extract_mask) {
    RIPPLE_DCHECK(extract_mask.size() == size());
    TupleVec out;
    size_t w = 0;
    for (size_t r = 0; r < size(); ++r) {
      if (extract_mask[r]) {
        out.push_back(TupleAt(r));
        continue;
      }
      if (w != r) {
        ids_[w] = ids_[r];
        for (int c = 0; c < dims(); ++c) cols_[c][w] = cols_[c][r];
      }
      ++w;
    }
    ids_.resize(w);
    for (auto& col : cols_) col.resize(w);
    return out;
  }

 private:
  void Reshape(int d) {
    RIPPLE_CHECK(d >= 0 && d <= kMaxDims);
    RIPPLE_DCHECK(empty());
    cols_.assign(static_cast<size_t>(d), {});
    SyncPtrs();
  }

  void SyncPtrs() {
    col_ptrs_.resize(cols_.size());
    for (size_t c = 0; c < cols_.size(); ++c) col_ptrs_[c] = cols_[c].data();
  }

  std::vector<uint64_t> ids_;
  std::vector<std::vector<double>> cols_;  // cols_[c][row], dims() columns
  std::vector<const double*> col_ptrs_;    // cols_[c].data(), for cols()
};

}  // namespace ripple::store

#endif  // RIPPLE_STORE_FLAT_STORE_H_
