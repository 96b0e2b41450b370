// Row-at-a-time reference kernels: the scalar skyline, skyline merge,
// top-k selection and k-skyband the column kernels of store/local_algos.h
// replaced. Tests assert the production kernels return byte-identical
// results; bench_fig_kernels times them as the "before" panel.
#ifndef RIPPLE_TESTS_ORACLES_ORACLES_H_
#define RIPPLE_TESTS_ORACLES_ORACLES_H_

#include <algorithm>
#include <cstddef>

#include "store/tuple.h"

namespace ripple {

/// The skyline by a forward pass in coordinate-sum order, testing each
/// tuple against the running skyline with the scalar Dominates. Sorted by
/// id; duplicate ids are collapsed.
TupleVec ComputeSkylineScalar(TupleVec tuples);

/// The skyline of a ∪ b for inputs that are each skylines, by scalar
/// cross-dominance passes. Ids present in both are kept once; sorted by
/// id.
TupleVec MergeSkylinesScalar(TupleVec a, const TupleVec& b);

/// The k-skyband: dedup by id, stable sort by coordinate sum (so rows run
/// in (sum, id) order), then count each row's dominators among ALL
/// earlier rows with the scalar Dominates. This fixes the precedence rule
/// the kernels must reproduce: a dominator with an equal sum and a larger
/// id comes later and does not count. Sorted by id.
TupleVec KSkybandOracle(TupleVec tuples, size_t k);

/// The k highest scoring tuples under `score_of` (higher first, ties by
/// smaller id), by partial_sort.
template <typename ScoreFn>
TupleVec SelectTopKScalar(TupleVec tuples, const ScoreFn& score_of,
                          size_t k) {
  auto better = [&](const Tuple& a, const Tuple& b) {
    const double sa = score_of(a.key), sb = score_of(b.key);
    if (sa != sb) return sa > sb;
    return a.id < b.id;
  };
  if (tuples.size() > k) {
    std::partial_sort(tuples.begin(), tuples.begin() + k, tuples.end(),
                      better);
    tuples.resize(k);
  } else {
    std::sort(tuples.begin(), tuples.end(), better);
  }
  return tuples;
}

}  // namespace ripple

#endif  // RIPPLE_TESTS_ORACLES_ORACLES_H_
