// Workload shapes and a bitwise tuple comparison shared by the kernel
// property suites (flat_kernels_test, skyband_test): dimensionality
// sweeps over the three PISA-style score-series shapes.

#ifndef RIPPLE_TESTS_KERNEL_FIXTURES_H_
#define RIPPLE_TESTS_KERNEL_FIXTURES_H_

#include <algorithm>
#include <cstring>
#include <vector>

#include "common/rng.h"
#include "data/datasets.h"
#include "geom/scoring.h"
#include "store/tuple.h"

namespace ripple::fixtures {

// --- workload shapes --------------------------------------------------------

enum class Series { kIncreasing, kDecreasing, kRandom };

inline const char* Name(Series s) {
  switch (s) {
    case Series::kIncreasing: return "increasing";
    case Series::kDecreasing: return "decreasing";
    case Series::kRandom: return "random";
  }
  return "?";
}

/// Uniform tuples whose rows arrive in the given score order under
/// `scorer` — the adversarial orders for a bounded top-k heap (increasing
/// admits every row; decreasing admits only the first k).
inline TupleVec ShapedTuples(size_t n, int dims, Series series,
                             const Scorer& scorer, uint64_t seed) {
  Rng rng(seed);
  TupleVec out = data::MakeUniform(n, dims, &rng);
  if (series == Series::kRandom) return out;
  std::stable_sort(out.begin(), out.end(),
                   [&](const Tuple& a, const Tuple& b) {
                     return scorer.Score(a.key) < scorer.Score(b.key);
                   });
  if (series == Series::kDecreasing) std::reverse(out.begin(), out.end());
  return out;
}

inline LinearScorer PreferenceScorer(int dims, uint64_t seed) {
  Rng rng(seed);
  std::vector<double> w(dims);
  for (double& v : w) v = -rng.UniformDouble();
  return LinearScorer(w);
}

inline bool BitIdentical(const TupleVec& a, const TupleVec& b) {
  if (a.size() != b.size()) return false;
  for (size_t i = 0; i < a.size(); ++i) {
    if (a[i].id != b[i].id) return false;
    if (a[i].key.dims() != b[i].key.dims()) return false;
    for (int d = 0; d < a[i].key.dims(); ++d) {
      const double x = a[i].key[d];
      const double y = b[i].key[d];
      if (std::memcmp(&x, &y, sizeof(double)) != 0) return false;
    }
  }
  return true;
}

}  // namespace ripple::fixtures

#endif  // RIPPLE_TESTS_KERNEL_FIXTURES_H_
