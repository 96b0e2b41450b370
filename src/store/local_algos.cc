#include "store/local_algos.h"

#include <algorithm>
#include <iterator>
#include <numeric>
#include <optional>
#include <utility>

#include "common/arena.h"
#include "common/check.h"
#include "geom/dominance.h"

namespace ripple {

namespace {

/// Coordinate sum with the accumulation order every caller shares
/// (dimension-ascending adds), so precomputed sums compare exactly like
/// sums recomputed inside a comparator.
double SumOf(const Tuple& t) {
  double s = 0.0;
  for (int i = 0; i < t.key.dims(); ++i) s += t.key[i];
  return s;
}

/// Sorts by id and drops repeated ids (merged states may repeat tuples).
void SortDedupById(TupleVec* tuples) {
  std::sort(tuples->begin(), tuples->end(), TupleIdLess());
  tuples->erase(std::unique(tuples->begin(), tuples->end(),
                            [](const Tuple& a, const Tuple& b) {
                              return a.id == b.id;
                            }),
                tuples->end());
}

/// Drops duplicate ids and returns the remaining tuples in (coordinate
/// sum, id) order — the shared preamble of the skyline and skyband
/// kernels. Sorting an index permutation by precomputed sums is stable,
/// so the order is identical to stable_sorting the id-sorted tuples with
/// an on-the-fly sum comparator.
TupleVec DedupAndSumSort(TupleVec tuples) {
  SortDedupById(&tuples);
  std::vector<double> sums(tuples.size());
  for (size_t i = 0; i < tuples.size(); ++i) sums[i] = SumOf(tuples[i]);
  std::vector<uint32_t> order(tuples.size());
  std::iota(order.begin(), order.end(), 0);
  std::stable_sort(order.begin(), order.end(),
                   [&](uint32_t a, uint32_t b) { return sums[a] < sums[b]; });
  // Apply the permutation in place (cycle-walking, O(n) moves): same
  // result as rebuilding `sorted[i] = tuples[order[i]]` without a second
  // tuple buffer.
  for (uint32_t i = 0; i < order.size(); ++i) {
    if (order[i] == i) continue;
    Tuple tmp = std::move(tuples[i]);
    uint32_t cur = i;
    while (order[cur] != i) {
      const uint32_t nxt = order[cur];
      tuples[cur] = std::move(tuples[nxt]);
      order[cur] = cur;
      cur = nxt;
    }
    tuples[cur] = std::move(tmp);
    order[cur] = cur;
  }
  return tuples;
}

/// A growable structure-of-arrays view over the running skyline, backed
/// by the per-query arena: d column arrays sized for the worst case
/// (every candidate survives), appended to as candidates are accepted.
class ArenaColumns {
 public:
  ArenaColumns(Arena* arena, int dims, size_t capacity) : dims_(dims) {
    for (int c = 0; c < dims; ++c) {
      cols_[c] = arena->AllocateArray<double>(capacity);
    }
  }

  void Append(const Point& p) {
    for (int c = 0; c < dims_; ++c) cols_[c][size_] = p[c];
    ++size_;
  }

  const double* const* cols() const { return cols_; }
  size_t size() const { return size_; }

 private:
  int dims_;
  size_t size_ = 0;
  double* cols_[kMaxDims] = {};
};

/// The forward pass of the band kernels over `n` candidates in (coordinate
/// sum, id) order: each candidate's dominators are counted, up to `k`,
/// against the running band (held column-wise), and a candidate with fewer
/// than `k` joins the band and is reported as keep(i, count). Only earlier
/// candidates count under the precedence rule, and a candidate with `k`
/// dominators has `k` inside the band itself (band lemma, docs/STORE.md),
/// so the one pass suffices.
template <typename KeyAt, typename Keep>
void BandPass(size_t n, int dims, size_t k, const KeyAt& key_at,
              const Keep& keep) {
  Arena& arena = PerQueryArena();
  ArenaScope scope(&arena);
  ArenaColumns band_cols(&arena, dims, n);
  KernelCounters& kc = LocalKernelCounters();
  for (size_t i = 0; i < n; ++i) {
    ++kc.tuples_scanned;
    const auto& key = key_at(i);
    const size_t count = CountDominatorsColumns(band_cols.cols(), dims,
                                                band_cols.size(), key, k);
    if (count >= k) continue;
    band_cols.Append(key);
    keep(i, count);
  }
}

/// Keeps the tuples whose `keep` flag is set, in order.
void Compact(TupleVec* tuples, const uint8_t* keep) {
  size_t n = 0;
  for (size_t i = 0; i < tuples->size(); ++i) {
    if (keep[i]) (*tuples)[n++] = std::move((*tuples)[i]);
  }
  tuples->resize(n);
}

/// `b`'s tuples whose id the id-sorted `a` lacks, sorted by id with
/// repeated ids dropped: the part of `b` a band merge has to count.
TupleVec WithoutIdsOf(const TupleVec& b, const TupleVec& a) {
  TupleVec rest = b;
  SortDedupById(&rest);
  size_t n = 0;
  size_t cursor = 0;
  for (size_t i = 0; i < rest.size(); ++i) {
    while (cursor < a.size() && a[cursor].id < rest[i].id) ++cursor;
    if (cursor < a.size() && a[cursor].id == rest[i].id) continue;
    rest[n++] = std::move(rest[i]);
  }
  rest.resize(n);
  return rest;
}

/// One input of a band merge: its id-sorted tuples, visited in (coordinate
/// sum, id) order with the keys held column-wise in that order. Under the
/// precedence rule a row can only be counted against by rows before it in
/// this order, so "the dominators of row r" is a count over a prefix.
class BandSide {
 public:
  BandSide(Arena* arena, const TupleVec& by_id)
      : by_id_(by_id),
        sums_(arena->AllocateArray<double>(by_id.size())),
        order_(arena->AllocateArray<uint32_t>(by_id.size())),
        cols_(arena, by_id[0].key.dims(), by_id.size()) {
    for (uint32_t i = 0; i < by_id.size(); ++i) {
      sums_[i] = SumOf(by_id[i]);
      order_[i] = i;
    }
    std::stable_sort(order_, order_ + by_id.size(),
                     [&](uint32_t a, uint32_t b) {
                       return sums_[a] < sums_[b];
                     });
    for (size_t r = 0; r < by_id.size(); ++r) cols_.Append(Row(r).key);
  }

  size_t size() const { return by_id_.size(); }
  /// The r-th tuple in (sum, id) order, and its index in id order.
  const Tuple& Row(size_t r) const { return by_id_[order_[r]]; }
  uint32_t IdIndex(size_t r) const { return order_[r]; }
  double Sum(size_t r) const { return sums_[order_[r]]; }
  /// Whether row r precedes a tuple with this sum and id.
  bool Precedes(size_t r, double sum, uint64_t id) const {
    return Sum(r) < sum || (Sum(r) == sum && Row(r).id < id);
  }
  const double* const* cols() const { return cols_.cols(); }

 private:
  const TupleVec& by_id_;
  double* sums_;      // by id-order index
  uint32_t* order_;   // (sum, id) rank -> id-order index
  ArenaColumns cols_;
};

/// Flags (by id-order index) the rows of the k-band `x` that stay in the
/// k-band of x ∪ y, for a `y` sharing no id with `x`. A row's count there
/// is its own count in `x` (below k, `x` being a band) plus its cross
/// count in `y`, so the own count is needed only for cross counts in
/// [1, k-1], and then only up to k - cross. Rows of `x` are visited in
/// (sum, id) order, so the prefix of `y` preceding them only grows.
void MarkBandSurvivors(const BandSide& x, const BandSide& y, int dims,
                       size_t k, uint8_t* keep) {
  KernelCounters& kc = LocalKernelCounters();
  size_t y_before = 0;
  for (size_t r = 0; r < x.size(); ++r) {
    const Tuple& t = x.Row(r);
    const double sum = x.Sum(r);
    while (y_before < y.size() && y.Precedes(y_before, sum, t.id)) {
      ++y_before;
    }
    ++kc.tuples_scanned;
    const size_t cross =
        CountDominatorsColumns(y.cols(), dims, y_before, t.key, k);
    size_t own = 0;
    if (cross > 0 && cross < k) {
      own = CountDominatorsColumns(x.cols(), dims, r, t.key, k - cross);
    }
    keep[x.IdIndex(r)] = cross + own < k;
  }
}

}  // namespace

TupleVec ComputeSkyline(TupleVec tuples) {
  if (tuples.empty()) return tuples;
  TupleVec sorted = DedupAndSumSort(std::move(tuples));
  const int dims = sorted[0].key.dims();
  // A tuple can only be dominated by tuples with a strictly smaller
  // coordinate sum, so one forward pass against the running skyline —
  // held column-wise for the branch-free kernel — suffices.
  Arena& arena = PerQueryArena();
  ArenaScope scope(&arena);
  ArenaColumns sky_cols(&arena, dims, sorted.size());
  TupleVec sky;
  KernelCounters& kc = LocalKernelCounters();
  for (Tuple& t : sorted) {
    ++kc.tuples_scanned;
    if (AnyDominatesColumns(sky_cols.cols(), dims, sky_cols.size(), t.key)) {
      continue;
    }
    sky_cols.Append(t.key);
    sky.push_back(std::move(t));
  }
  std::sort(sky.begin(), sky.end(), TupleIdLess());
  return sky;
}

TupleVec SelectDominators(const TupleVec& sky, size_t max_count) {
  if (sky.size() <= max_count) return sky;
  // Precompute the sums once and select over an index permutation: the
  // comparator sees the exact values the scalar on-the-fly version
  // compared, so the selected set is unchanged.
  std::vector<double> sums(sky.size());
  for (size_t i = 0; i < sky.size(); ++i) sums[i] = SumOf(sky[i]);
  std::vector<uint32_t> order(sky.size());
  std::iota(order.begin(), order.end(), 0);
  std::nth_element(order.begin(), order.begin() + max_count, order.end(),
                   [&](uint32_t a, uint32_t b) { return sums[a] < sums[b]; });
  TupleVec out;
  out.reserve(max_count);
  for (size_t i = 0; i < max_count; ++i) out.push_back(sky[order[i]]);
  return out;
}

TupleVec MergeSkylines(TupleVec a, const TupleVec& b) {
  if (b.empty()) {
    std::sort(a.begin(), a.end(), TupleIdLess());
    return a;
  }
  if (a.empty()) {
    TupleVec out = b;
    std::sort(out.begin(), out.end(), TupleIdLess());
    return out;
  }
  const int dims = a[0].key.dims();
  Arena& arena = PerQueryArena();
  ArenaScope scope(&arena);
  ArenaColumns a_cols(&arena, dims, a.size());
  for (const Tuple& t : a) a_cols.Append(t.key);
  ArenaColumns b_cols(&arena, dims, b.size());
  for (const Tuple& t : b) b_cols.Append(t.key);
  KernelCounters& kc = LocalKernelCounters();
  // Survivors of a: not dominated by any b tuple.
  TupleVec out;
  out.reserve(a.size() + b.size());
  for (Tuple& t : a) {
    ++kc.tuples_scanned;
    if (!AnyDominatesColumns(b_cols.cols(), dims, b_cols.size(), t.key)) {
      out.push_back(std::move(t));
    }
  }
  const size_t a_survivors = out.size();
  // Survivors of b: not dominated by any a tuple. (Testing against all of
  // a equals testing against a's survivors: if a removed a-tuple s
  // dominated t in b, then s's own b-dominator would dominate t by
  // transitivity — impossible, b is mutually non-dominated.) Ids already
  // kept in the a-pass are skipped; duplicated tuples always survive the
  // a-pass, since nothing in b dominates a tuple b itself contains. The
  // skip test merges b against the a-survivors in id order: states come
  // sorted by id, so the cursor only moves forward, and a b out of id
  // order re-seats it by binary search.
  std::sort(out.begin(), out.end(), TupleIdLess());
  size_t cursor = 0;
  uint64_t prev_id = 0;
  for (const Tuple& t : b) {
    if (t.id < prev_id) {
      cursor = std::lower_bound(out.begin(), out.begin() + a_survivors, t,
                                TupleIdLess()) -
               out.begin();
    }
    prev_id = t.id;
    while (cursor < a_survivors && out[cursor].id < t.id) ++cursor;
    if (cursor < a_survivors && out[cursor].id == t.id) continue;
    ++kc.tuples_scanned;
    if (!AnyDominatesColumns(a_cols.cols(), dims, a_cols.size(), t.key)) {
      out.push_back(t);
    }
  }
  std::sort(out.begin(), out.end(), TupleIdLess());
  return out;
}

TupleVec SkylineSurvivors(TupleVec sky, const TupleVec& others) {
  if (sky.empty() || others.empty()) return sky;
  const int dims = sky[0].key.dims();
  Arena& arena = PerQueryArena();
  ArenaScope scope(&arena);
  ArenaColumns others_cols(&arena, dims, others.size());
  for (const Tuple& t : others) others_cols.Append(t.key);
  uint8_t* keep = arena.AllocateArray<uint8_t>(sky.size());
  std::vector<std::pair<uint64_t, size_t>> dropped;  // (id, index in sky)
  KernelCounters& kc = LocalKernelCounters();
  for (size_t i = 0; i < sky.size(); ++i) {
    ++kc.tuples_scanned;
    keep[i] = !AnyDominatesColumns(others_cols.cols(), dims,
                                   others_cols.size(), sky[i].key);
    if (!keep[i]) dropped.emplace_back(sky[i].id, i);
  }
  // MergeSkylines' b-pass keeps an `others` tuple that no `sky` tuple
  // dominates; one sharing its id with a dropped `sky` tuple brings that
  // id back. It takes a tuple held on both sides and dominated within
  // `others`, so `sky`'s columns are built only when it happens.
  std::sort(dropped.begin(), dropped.end());
  std::optional<ArenaColumns> sky_cols;
  for (const Tuple& u : others) {
    auto it = std::lower_bound(dropped.begin(), dropped.end(),
                               std::make_pair(u.id, size_t{0}));
    if (it == dropped.end() || it->first != u.id) continue;
    if (!sky_cols) {
      sky_cols.emplace(&arena, dims, sky.size());
      for (const Tuple& t : sky) sky_cols->Append(t.key);
    }
    ++kc.tuples_scanned;
    if (AnyDominatesColumns(sky_cols->cols(), dims, sky.size(), u.key)) {
      continue;
    }
    for (; it != dropped.end() && it->first == u.id; ++it) {
      keep[it->second] = 1;
    }
  }
  Compact(&sky, keep);
  return sky;
}

TupleVec ComputeKSkyband(TupleVec tuples, size_t k) {
  if (tuples.empty() || k == 0) return {};
  TupleVec sorted = DedupAndSumSort(std::move(tuples));
  TupleVec band;
  BandPass(
      sorted.size(), sorted[0].key.dims(), k,
      [&](size_t i) -> const Point& { return sorted[i].key; },
      [&](size_t i, size_t) { band.push_back(std::move(sorted[i])); });
  std::sort(band.begin(), band.end(), TupleIdLess());
  return band;
}

std::optional<std::vector<BandRow>> StoreBand(const store::FlatStore& flat,
                                              size_t cap) {
  RIPPLE_CHECK(cap >= 1 && cap <= 255);
  const size_t n = flat.size();
  std::vector<BandRow> band;
  if (n == 0) return band;
  // The rows in id order, then in (sum, id) order by the same stable sum
  // sort DedupAndSumSort runs over the id-sorted tuples, so the pass
  // visits rows exactly as ComputeKSkyband visits the materialized store.
  std::vector<uint32_t> by_id(n);
  std::iota(by_id.begin(), by_id.end(), 0);
  std::sort(by_id.begin(), by_id.end(), [&](uint32_t a, uint32_t b) {
    return flat.id(a) < flat.id(b);
  });
  for (size_t i = 1; i < n; ++i) {
    if (flat.id(by_id[i - 1]) == flat.id(by_id[i])) return std::nullopt;
  }
  std::vector<double> sums(n, 0.0);
  for (int c = 0; c < flat.dims(); ++c) {
    const double* col = flat.col(c);
    for (size_t i = 0; i < n; ++i) sums[i] += col[by_id[i]];
  }
  std::vector<uint32_t> order(n);
  std::iota(order.begin(), order.end(), 0);
  std::stable_sort(order.begin(), order.end(),
                   [&](uint32_t a, uint32_t b) { return sums[a] < sums[b]; });
  // Band members as (id rank, count); sorting the ranks restores id order.
  std::vector<std::pair<uint32_t, uint8_t>> members;
  BandPass(
      n, flat.dims(), cap,
      [&](size_t i) { return flat.PointAt(by_id[order[i]]); },
      [&](size_t i, size_t count) {
        members.emplace_back(order[i], static_cast<uint8_t>(count));
      });
  std::sort(members.begin(), members.end());
  band.reserve(members.size());
  for (const auto& [rank, count] : members) {
    band.push_back(BandRow{by_id[rank], count});
  }
  return band;
}

TupleVec MergeSkybands(TupleVec a, const TupleVec& b, size_t k) {
  if (k == 0) return {};
  SortDedupById(&a);
  TupleVec rest = WithoutIdsOf(b, a);
  if (rest.empty()) return a;
  if (a.empty()) return rest;
  const int dims = a[0].key.dims();
  Arena& arena = PerQueryArena();
  ArenaScope scope(&arena);
  const BandSide a_side(&arena, a);
  const BandSide rest_side(&arena, rest);
  uint8_t* keep_a = arena.AllocateArray<uint8_t>(a.size());
  uint8_t* keep_rest = arena.AllocateArray<uint8_t>(rest.size());
  MarkBandSurvivors(a_side, rest_side, dims, k, keep_a);
  MarkBandSurvivors(rest_side, a_side, dims, k, keep_rest);
  Compact(&a, keep_a);
  Compact(&rest, keep_rest);
  TupleVec out;
  out.reserve(a.size() + rest.size());
  std::merge(std::make_move_iterator(a.begin()),
             std::make_move_iterator(a.end()),
             std::make_move_iterator(rest.begin()),
             std::make_move_iterator(rest.end()), std::back_inserter(out),
             TupleIdLess());
  return out;
}

TupleVec SkybandSurvivors(TupleVec band, const TupleVec& others, size_t k) {
  if (k == 0) return {};
  SortDedupById(&band);
  const TupleVec rest = WithoutIdsOf(others, band);
  if (band.empty() || rest.empty()) return band;
  const int dims = band[0].key.dims();
  Arena& arena = PerQueryArena();
  ArenaScope scope(&arena);
  uint8_t* keep = arena.AllocateArray<uint8_t>(band.size());
  MarkBandSurvivors(BandSide(&arena, band), BandSide(&arena, rest), dims, k,
                    keep);
  Compact(&band, keep);
  return band;
}

}  // namespace ripple
