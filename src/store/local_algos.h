#ifndef RIPPLE_STORE_LOCAL_ALGOS_H_
#define RIPPLE_STORE_LOCAL_ALGOS_H_

#include <algorithm>

#include "common/kernel_counters.h"
#include "store/bounded_topk.h"
#include "store/tuple.h"

namespace ripple {

/// Computes the skyline (maximal set under Pareto dominance, min-is-better)
/// of a set of tuples. Deterministic: the result is sorted by tuple id.
/// Duplicate tuple ids are collapsed to one occurrence.
///
/// This is the centralized `computeSkyline` primitive the paper's skyline
/// state functions rely on (Algorithms 10, 11, 13), also used as the oracle
/// in tests. O(n log n + n * s) where s is the skyline size. Internally the
/// candidate pass runs the column-wise dominance kernel
/// (AnyDominatesColumns) over a structure-of-arrays copy of the running
/// skyline; ComputeSkylineScalar is the retained row-at-a-time oracle and
/// returns byte-identical results.
TupleVec ComputeSkyline(TupleVec tuples);

/// The pre-SoA scalar implementation, kept as the parity oracle for tests
/// and the bench_fig_kernels before/after panel.
TupleVec ComputeSkylineScalar(TupleVec tuples);

/// Merges two sets that are EACH already skylines (mutually non-dominated
/// within themselves) into the skyline of their union, using only
/// cross-dominance checks — O(|a| * |b|) instead of re-running the full
/// computation over the union. Tuples present in both inputs (by id) are
/// kept once. Result sorted by id. This is the work-horse of distributed
/// skyline state maintenance, where every incoming state is itself a
/// skyline; at d >= 8, where skylines span half the dataset, the full
/// recomputation would be quadratic in the data size per peer. The
/// cross-dominance passes run the column-wise kernel; MergeSkylinesScalar
/// is the retained oracle.
TupleVec MergeSkylines(TupleVec a, const TupleVec& b);

/// The pre-SoA scalar implementation, kept as the parity oracle.
TupleVec MergeSkylinesScalar(TupleVec a, const TupleVec& b);

/// The tuples of `sky` that MergeSkylines(sky, others) keeps, in `sky`'s
/// order — the skyline local state (Algorithm 10, lines 2-3) without
/// building the merged set: a `sky` tuple stays when no `others` tuple
/// dominates it (MergeSkylines' a-pass), or when `others` carries its id
/// and no `sky` tuple dominates that copy (MergeSkylines' b-pass keeping
/// the id). Empty `others` returns `sky` unchanged.
TupleVec SkylineSurvivors(TupleVec sky, const TupleVec& others);

/// Computes the k-skyband: the tuples dominated by fewer than `k` others
/// (k = 1 is the skyline; k = 0 yields nothing). Deterministic, sorted by
/// id; duplicate ids are collapsed. Dominators count under the precedence
/// rule of docs/STORE.md: `s` counts against `t` iff s dominates t and
/// (sum(s), id(s)) < (sum(t), id(t)). This is the structure SPEERTO
/// precomputes per peer (paper, Section 2.1). One forward pass in (sum,
/// id) order counts each candidate's dominators among the running band,
/// held column-wise in the per-query arena, with CountDominatorsColumns.
TupleVec ComputeKSkyband(TupleVec tuples, size_t k);

/// The k-band analogue of MergeSkylines: ComputeKSkyband(a ∪ b, k) for
/// inputs that are EACH already k-bands (every tuple has fewer than k
/// dominators within its own set, as every ComputeKSkyband or
/// MergeSkybands output and every subset of one does). Tuples present
/// in both inputs (by id) are kept once; the result is sorted by id. By
/// the band-merge lemma (docs/STORE.md) a tuple's fate hangs on its cross
/// count, the dominators it has in the other input: 0 keeps it, k or
/// more drop it, and only in between is its own-set count recounted. An
/// empty side returns the other side (sorted by id, deduplicated).
TupleVec MergeSkybands(TupleVec a, const TupleVec& b, size_t k);

/// The tuples of the k-band `band` that stay in ComputeKSkyband(band ∪
/// others, k), sorted by id — the skyband local state. `others` need not
/// be a band: each `band` tuple's dominators in it are counted directly.
TupleVec SkybandSurvivors(TupleVec band, const TupleVec& others, size_t k);

/// Selects up to `max_count` tuples with the smallest coordinate sums —
/// the only candidates able to dominate whole regions. Used to bound the
/// per-link dominance tests of the distributed skyline methods; pruning
/// with a subset is sound (never prunes more than the full set would).
TupleVec SelectDominators(const TupleVec& sky, size_t max_count);

/// Returns the k highest scoring tuples under `score_of` (higher first),
/// deterministic tie-break by id. Used as the centralized top-k oracle.
/// Runs a bounded branch-light queue (store::BoundedTopK) over the
/// candidates instead of copy-and-full-sort; SelectTopKScalar is the
/// retained partial_sort oracle and returns byte-identical results.
template <typename ScoreFn>
TupleVec SelectTopK(TupleVec tuples, const ScoreFn& score_of, size_t k);

/// The pre-SoA partial_sort implementation, kept as the parity oracle.
template <typename ScoreFn>
TupleVec SelectTopKScalar(TupleVec tuples, const ScoreFn& score_of, size_t k);

// ---------------------------------------------------------------------------
// Implementation details only below here.
// ---------------------------------------------------------------------------

template <typename ScoreFn>
TupleVec SelectTopK(TupleVec tuples, const ScoreFn& score_of, size_t k) {
  if (k == 0 || tuples.empty()) return {};
  store::BoundedTopK queue(k);
  LocalKernelCounters().tuples_scanned += tuples.size();
  for (size_t i = 0; i < tuples.size(); ++i) {
    queue.Insert(score_of(tuples[i].key), tuples[i].id,
                 static_cast<uint32_t>(i));
  }
  TupleVec out;
  out.reserve(queue.size());
  for (const store::BoundedTopK::Entry& e : queue.SortedDescending()) {
    out.push_back(std::move(tuples[e.payload]));
  }
  return out;
}

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

#endif  // RIPPLE_STORE_LOCAL_ALGOS_H_
