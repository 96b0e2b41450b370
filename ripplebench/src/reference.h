// Reference answers computed apart from the program: brute force over the
// full tuple set, in the benchmark's own code. Nothing here calls a
// libripple kernel, scorer or dominance test; the tuples are copied into
// plain rows first, so only the generated input is shared.
#ifndef RIPPLEBENCH_REFERENCE_H_
#define RIPPLEBENCH_REFERENCE_H_

#include <cstdint>
#include <string>
#include <vector>

#include "store/tuple.h"

namespace rbench {

/// The full tuple set as plain rows: row i holds the tuple with id i.
class RefData {
 public:
  RefData() = default;
  /// Requires ids 0..n-1 (what every data generator emits).
  explicit RefData(const ripple::TupleVec& tuples);

  size_t size() const { return rows_.size(); }
  int dims() const { return dims_; }
  const std::vector<double>& row(size_t id) const { return rows_[id]; }

  /// Ids of the k tuples maximizing sum_i w_i * x_i, best first; ties go
  /// to the smaller id.
  std::vector<uint64_t> TopK(const std::vector<double>& weights,
                             size_t k) const;
  /// Ids (ascending) of the tuples dominated by fewer than `band` others,
  /// smaller coordinates being better; band 1 is the skyline.
  std::vector<uint64_t> Skyband(size_t band) const;
  /// Ids (ascending) of the tuples within L2 distance `radius` of
  /// `center`.
  std::vector<uint64_t> Range(const std::vector<double>& center,
                              double radius) const;

 private:
  int dims_ = 0;
  std::vector<std::vector<double>> rows_;
};

/// Runs the reference on a small hand-computed case. Returns an empty
/// string on success, otherwise what disagreed.
std::string ReferenceSelfTest();

/// Checks a distributed answer against reference ids: the same id set
/// (`ordered` additionally requires the same order), and every returned
/// key equal to the input row of its id. Returns "" or the mismatch.
std::string CompareAnswer(const RefData& data, const ripple::TupleVec& answer,
                          const std::vector<uint64_t>& expected,
                          bool ordered);

/// Ids of an answer in ascending order (for order-free comparisons).
std::vector<uint64_t> SortedIds(const ripple::TupleVec& answer);

}  // namespace rbench

#endif  // RIPPLEBENCH_REFERENCE_H_
