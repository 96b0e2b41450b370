#include "oracles.h"

#include <algorithm>

#include "geom/dominance.h"

namespace ripple {

namespace {

double SumOf(const Tuple& t) {
  double s = 0.0;
  for (int i = 0; i < t.key.dims(); ++i) s += t.key[i];
  return s;
}

}  // namespace

TupleVec ComputeSkylineScalar(TupleVec tuples) {
  if (tuples.empty()) return tuples;
  // Drop duplicates by id first (merged states may repeat tuples).
  std::sort(tuples.begin(), tuples.end(), TupleIdLess());
  tuples.erase(std::unique(tuples.begin(), tuples.end(),
                           [](const Tuple& a, const Tuple& b) {
                             return a.id == b.id;
                           }),
               tuples.end());
  // Sort by coordinate sum: a tuple can only be dominated by tuples with a
  // strictly smaller sum, so a single forward pass against the running
  // skyline suffices.
  std::stable_sort(tuples.begin(), tuples.end(),
                   [&](const Tuple& a, const Tuple& b) {
                     return SumOf(a) < SumOf(b);
                   });
  TupleVec sky;
  for (const Tuple& t : tuples) {
    bool dominated = false;
    for (const Tuple& s : sky) {
      if (Dominates(s.key, t.key)) {
        dominated = true;
        break;
      }
    }
    if (!dominated) sky.push_back(t);
  }
  std::sort(sky.begin(), sky.end(), TupleIdLess());
  return sky;
}

TupleVec MergeSkylinesScalar(TupleVec a, const TupleVec& b) {
  if (b.empty()) {
    std::sort(a.begin(), a.end(), TupleIdLess());
    return a;
  }
  if (a.empty()) {
    TupleVec out = b;
    std::sort(out.begin(), out.end(), TupleIdLess());
    return out;
  }
  TupleVec out;
  out.reserve(a.size() + b.size());
  for (const Tuple& t : a) {
    bool dominated = false;
    for (const Tuple& s : b) {
      if (Dominates(s.key, t.key)) {
        dominated = true;
        break;
      }
    }
    if (!dominated) out.push_back(t);
  }
  const size_t a_survivors = out.size();
  for (const Tuple& t : b) {
    bool skip = false;
    for (size_t i = 0; i < a_survivors; ++i) {
      if (out[i].id == t.id) {
        skip = true;
        break;
      }
    }
    if (skip) continue;
    bool dominated = false;
    for (const Tuple& s : a) {
      if (Dominates(s.key, t.key)) {
        dominated = true;
        break;
      }
    }
    if (!dominated) out.push_back(t);
  }
  std::sort(out.begin(), out.end(), TupleIdLess());
  return out;
}

TupleVec KSkybandOracle(TupleVec tuples, size_t k) {
  if (tuples.empty() || k == 0) return {};
  std::sort(tuples.begin(), tuples.end(), TupleIdLess());
  tuples.erase(std::unique(tuples.begin(), tuples.end(),
                           [](const Tuple& a, const Tuple& b) {
                             return a.id == b.id;
                           }),
               tuples.end());
  std::stable_sort(tuples.begin(), tuples.end(),
                   [&](const Tuple& a, const Tuple& b) {
                     return SumOf(a) < SumOf(b);
                   });
  TupleVec band;
  for (size_t i = 0; i < tuples.size(); ++i) {
    size_t dominators = 0;
    for (size_t j = 0; j < i && dominators < k; ++j) {
      if (Dominates(tuples[j].key, tuples[i].key)) ++dominators;
    }
    if (dominators < k) band.push_back(tuples[i]);
  }
  std::sort(band.begin(), band.end(), TupleIdLess());
  return band;
}

}  // namespace ripple
