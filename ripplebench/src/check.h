// Answer checking shared by every workload: each typed query instance is
// described in plain values, its reference answer is computed by
// RefData, and answers to the same instance must agree with each other
// (fast vs slow vs ripple, and before vs after churn).
#ifndef RIPPLEBENCH_CHECK_H_
#define RIPPLEBENCH_CHECK_H_

#include <cstdint>
#include <map>
#include <string>
#include <type_traits>
#include <vector>

#include "geom/scoring.h"
#include "queries/range.h"
#include "queries/skyband.h"
#include "queries/skyline.h"
#include "queries/topk.h"
#include "reference.h"

namespace rbench {

/// A query instance in plain values.
struct Instance {
  enum class Kind { kTopK, kSkyline, kSkyband, kRange };
  Kind kind = Kind::kTopK;
  std::vector<double> weights;  // top-k
  size_t k = 0;                 // top-k
  size_t band = 1;              // skyline (1) and skyband
  std::vector<double> center;   // range
  double radius = 0;            // range

  /// Identity of the instance (what the property checks group by).
  std::string Key() const;
};

template <typename Q>
Instance Describe(const Q& query) {
  Instance in;
  if constexpr (std::is_same_v<Q, ripple::TopKQuery>) {
    const auto* linear =
        dynamic_cast<const ripple::LinearScorer*>(query.scorer);
    in.kind = Instance::Kind::kTopK;
    if (linear != nullptr) in.weights = linear->weights();
    in.k = query.k;
  } else if constexpr (std::is_same_v<Q, ripple::SkylineQuery>) {
    in.kind = Instance::Kind::kSkyline;
  } else if constexpr (std::is_same_v<Q, ripple::SkybandQuery>) {
    in.kind = Instance::Kind::kSkyband;
    in.band = query.band;
  } else {
    static_assert(std::is_same_v<Q, ripple::RangeQuery>);
    in.kind = Instance::Kind::kRange;
    for (int d = 0; d < query.center.dims(); ++d) {
      in.center.push_back(query.center[d]);
    }
    in.radius = query.radius;
  }
  return in;
}

class AnswerChecker {
 public:
  /// `ref` must outlive the checker.
  explicit AnswerChecker(const RefData* ref) : ref_(ref) {}

  /// Reference answer ids (rank order for top-k, ascending otherwise),
  /// computed once per instance.
  const std::vector<uint64_t>& Expected(const Instance& in);

  /// Compares `answer` with the reference, then with the first answer to
  /// the same instance (at another r, or before a churn stage), which it
  /// must repeat tuple for tuple. Returns "" or what disagreed.
  std::string Check(const Instance& in, const ripple::TupleVec& answer);

  /// Forgets the top-k and range references and every earlier answer,
  /// once no later query can repeat their instances, so that the
  /// checker's memory does not grow with the length of a run.
  void Forget();

 private:
  const RefData* ref_;
  std::map<size_t, std::vector<uint64_t>> skyband_;  // by band (1: skyline)
  std::map<std::string, std::vector<uint64_t>> expected_;  // by instance key
  std::map<std::string, std::vector<uint64_t>> answered_;  // first answer
};

}  // namespace rbench

#endif  // RIPPLEBENCH_CHECK_H_
