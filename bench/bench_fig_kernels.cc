// Kernel work-profile figure: the per-peer SoA kernels (bounded top-k over
// block-scored columns, column-wise mask dominance, the counting kernel
// behind the k-skyband) against scalar oracles, swept over dimensionality
// d in {2, 4, 8, 10} and the three PISA-style score-series shapes
// (increasing, decreasing, random).
// Not a figure of the paper — it gates the hot-path refactor itself.
//
// Gating (tools/bench_check.py): every kernel exports machine-independent
// work counters (common/kernel_counters.h) that are exact functions of
// (seed, n, d, k, series), reported under the exact_ prefix so the gate
// allows ZERO drift against the committed baseline:
//   exact_topk_tuples_scanned      rows the top-k scan visited
//   exact_topk_heap_pushes         admissions into the bounded queue
//   exact_skyline_tuples_scanned   skyline candidates examined
//   exact_skyline_dominance_cmps   pair tests by the dominance kernel
//   exact_oracle_mismatch          0 iff SoA results byte-match the oracles
//   exact_skyband_tuples_scanned   k-skyband candidates examined
//   exact_skyband_dominance_cmps   pair tests by the counting kernel
//   exact_skyband_oracle_mismatch  0 iff ComputeKSkyband, and MergeSkybands
//                                  over the two halves' bands, byte-match
//                                  the sort-and-count oracle below
// Wall-clock for the SoA and scalar paths rides along under the
// informational wall_ prefix (the before/after evidence, never gated).

#include <algorithm>
#include <chrono>
#include <cstdio>
#include <cstring>
#include <string>
#include <vector>

#include "bench_common.h"
#include "common/kernel_counters.h"
#include "geom/dominance.h"
#include "oracles.h"
#include "store/local_algos.h"

using namespace ripple;
using namespace ripple::bench;

namespace {

constexpr size_t kTopK = 16;
constexpr size_t kBand = 3;
constexpr int kTimedReps = 5;

enum class Shape { kIncreasing, kDecreasing, kRandom };
constexpr Shape kAllSeries[] = {Shape::kIncreasing, Shape::kDecreasing,
                                 Shape::kRandom};

const char* Name(Shape s) {
  switch (s) {
    case Shape::kIncreasing: return "increasing";
    case Shape::kDecreasing: return "decreasing";
    case Shape::kRandom: return "random";
  }
  return "?";
}

/// Rows ordered so the scores SelectTopK consumes arrive in the given
/// series shape — increasing admits every row into the queue (worst case
/// for heap maintenance), decreasing admits only the first k (best case),
/// random is the expected case.
TupleVec ShapedTuples(size_t n, int dims, Shape series,
                      const Scorer& scorer, uint64_t seed) {
  Rng rng(seed);
  TupleVec out = data::MakeUniform(n, dims, &rng);
  if (series == Shape::kRandom) return out;
  std::stable_sort(out.begin(), out.end(),
                   [&](const Tuple& a, const Tuple& b) {
                     return scorer.Score(a.key) < scorer.Score(b.key);
                   });
  if (series == Shape::kDecreasing) std::reverse(out.begin(), out.end());
  return out;
}

bool BitIdentical(const TupleVec& a, const TupleVec& b) {
  if (a.size() != b.size()) return false;
  for (size_t i = 0; i < a.size(); ++i) {
    if (a[i].id != b[i].id || a[i].key.dims() != b[i].key.dims()) return false;
    for (int d = 0; d < a[i].key.dims(); ++d) {
      const double x = a[i].key[d];
      const double y = b[i].key[d];
      if (std::memcmp(&x, &y, sizeof(double)) != 0) return false;
    }
  }
  return true;
}

template <typename Fn>
double TimeMs(const Fn& fn) {
  const auto start = std::chrono::steady_clock::now();
  for (int rep = 0; rep < kTimedReps; ++rep) fn();
  const auto end = std::chrono::steady_clock::now();
  return std::chrono::duration<double, std::milli>(end - start).count() /
         kTimedReps;
}

}  // namespace

int main() {
  const BenchConfig config = LoadConfig();
  PrintHeader(config, "Figure K",
              "per-peer kernel work profile: SoA kernels vs scalar oracles");

  const size_t n = std::min<size_t>(config.tuples, 4096);
  std::printf("  n=%zu k=%zu band=%zu, d in {2,4,8,10} x 3 series shapes\n",
              n, kTopK, kBand);
  std::printf("  %-22s %12s %12s %14s %12s %12s %12s %12s\n", "case",
              "soa_topk_ms", "sca_topk_ms", "soa_skyline_ms", "sca_sky_ms",
              "skyband_ms", "orc_band_ms", "mismatch");

  uint64_t total_mismatches = 0;
  for (int dims : {2, 4, 8, 10}) {
    Rng wrng(config.seed * 131 + static_cast<uint64_t>(dims));
    std::vector<double> weights(dims);
    for (double& w : weights) w = -wrng.UniformDouble();
    const LinearScorer scorer(weights);
    auto score = [&](const Point& p) { return scorer.Score(p); };
    for (Shape series : kAllSeries) {
      const TupleVec tuples = ShapedTuples(
          n, dims, series, scorer,
          config.seed * 977 + static_cast<uint64_t>(dims) * 3 +
              static_cast<uint64_t>(series));
      const std::string case_id = "kernels/d=" + std::to_string(dims) + "/" +
                                  Name(series);

      // One instrumented pass per kernel: the counters are exact
      // functions of the workload, independent of repetition count.
      ResetKernelCounters();
      const TupleVec topk = SelectTopK(tuples, score, kTopK);
      const KernelCounters topk_work = LocalKernelCounters();
      ResetKernelCounters();
      const TupleVec sky = ComputeSkyline(tuples);
      const KernelCounters sky_work = LocalKernelCounters();
      ResetKernelCounters();
      const TupleVec band = ComputeKSkyband(tuples, kBand);
      const KernelCounters band_work = LocalKernelCounters();
      ResetKernelCounters();

      // Byte-identity against the retained scalar oracles.
      uint64_t mismatch = 0;
      if (!BitIdentical(topk, SelectTopKScalar(tuples, score, kTopK))) {
        ++mismatch;
      }
      if (!BitIdentical(sky, ComputeSkylineScalar(tuples))) ++mismatch;
      const TupleVec lo(tuples.begin(), tuples.begin() + n / 2);
      const TupleVec hi(tuples.begin() + n / 2, tuples.end());
      const TupleVec lo_band = ComputeKSkyband(lo, kBand);
      const TupleVec hi_band = ComputeKSkyband(hi, kBand);
      const TupleVec band_oracle = KSkybandOracle(tuples, kBand);
      uint64_t band_mismatch = 0;
      if (!BitIdentical(band, band_oracle)) ++band_mismatch;
      if (!BitIdentical(MergeSkybands(lo_band, hi_band, kBand), band_oracle)) {
        ++band_mismatch;
      }
      ResetKernelCounters();
      total_mismatches += mismatch + band_mismatch;

      // Wall clock, informational: the SoA-vs-scalar before/after evidence.
      const double soa_topk_ms =
          TimeMs([&] { (void)SelectTopK(tuples, score, kTopK); });
      const double scalar_topk_ms =
          TimeMs([&] { (void)SelectTopKScalar(tuples, score, kTopK); });
      const double soa_sky_ms = TimeMs([&] { (void)ComputeSkyline(tuples); });
      const double scalar_sky_ms =
          TimeMs([&] { (void)ComputeSkylineScalar(tuples); });
      const double band_ms =
          TimeMs([&] { (void)ComputeKSkyband(tuples, kBand); });
      const double oracle_band_ms =
          TimeMs([&] { (void)KSkybandOracle(tuples, kBand); });
      const double merge_band_ms =
          TimeMs([&] { (void)MergeSkybands(lo_band, hi_band, kBand); });
      ResetKernelCounters();

      Reporter().AddMetric(case_id, "exact_topk_tuples_scanned",
                           static_cast<double>(topk_work.tuples_scanned));
      Reporter().AddMetric(case_id, "exact_topk_heap_pushes",
                           static_cast<double>(topk_work.heap_pushes));
      Reporter().AddMetric(case_id, "exact_skyline_tuples_scanned",
                           static_cast<double>(sky_work.tuples_scanned));
      Reporter().AddMetric(case_id, "exact_skyline_dominance_cmps",
                           static_cast<double>(sky_work.dominance_cmps));
      Reporter().AddMetric(case_id, "exact_oracle_mismatch",
                           static_cast<double>(mismatch));
      Reporter().AddMetric(case_id, "exact_skyband_tuples_scanned",
                           static_cast<double>(band_work.tuples_scanned));
      Reporter().AddMetric(case_id, "exact_skyband_dominance_cmps",
                           static_cast<double>(band_work.dominance_cmps));
      Reporter().AddMetric(case_id, "exact_skyband_oracle_mismatch",
                           static_cast<double>(band_mismatch));
      Reporter().AddMetric(case_id, "wall_soa_topk_ms", soa_topk_ms);
      Reporter().AddMetric(case_id, "wall_scalar_topk_ms", scalar_topk_ms);
      Reporter().AddMetric(case_id, "wall_soa_skyline_ms", soa_sky_ms);
      Reporter().AddMetric(case_id, "wall_scalar_skyline_ms", scalar_sky_ms);
      Reporter().AddMetric(case_id, "wall_skyband_ms", band_ms);
      Reporter().AddMetric(case_id, "wall_oracle_skyband_ms", oracle_band_ms);
      Reporter().AddMetric(case_id, "wall_merge_skybands_ms", merge_band_ms);

      std::printf("  %-22s %12.3f %12.3f %14.3f %12.3f %12.3f %12.3f %12llu\n",
                  (std::string("d=") + std::to_string(dims) + "/" +
                   Name(series))
                      .c_str(),
                  soa_topk_ms, scalar_topk_ms, soa_sky_ms, scalar_sky_ms,
                  band_ms, oracle_band_ms,
                  static_cast<unsigned long long>(mismatch + band_mismatch));
    }
  }

  std::printf("  total oracle mismatches: %llu\n",
              static_cast<unsigned long long>(total_mismatches));
  return total_mismatches == 0 ? 0 : 1;
}
