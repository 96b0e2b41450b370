#include "reference.h"

#include <algorithm>
#include <cmath>
#include <numeric>

namespace rbench {

RefData::RefData(const ripple::TupleVec& tuples) {
  rows_.resize(tuples.size());
  for (const ripple::Tuple& t : tuples) {
    if (t.id >= rows_.size()) continue;  // caught by CompareAnswer's key check
    std::vector<double>& row = rows_[t.id];
    row.resize(static_cast<size_t>(t.key.dims()));
    for (int d = 0; d < t.key.dims(); ++d) row[d] = t.key[d];
    dims_ = t.key.dims();
  }
}

std::vector<uint64_t> RefData::TopK(const std::vector<double>& weights,
                                    size_t k) const {
  std::vector<std::pair<double, uint64_t>> scored(rows_.size());
  for (size_t i = 0; i < rows_.size(); ++i) {
    double s = 0.0;
    for (size_t d = 0; d < weights.size(); ++d) s += weights[d] * rows_[i][d];
    scored[i] = {s, i};
  }
  const auto better = [](const std::pair<double, uint64_t>& a,
                         const std::pair<double, uint64_t>& b) {
    return a.first != b.first ? a.first > b.first : a.second < b.second;
  };
  k = std::min(k, scored.size());
  std::partial_sort(scored.begin(), scored.begin() + k, scored.end(), better);
  std::vector<uint64_t> ids(k);
  for (size_t i = 0; i < k; ++i) ids[i] = scored[i].second;
  return ids;
}

namespace {

/// a dominates b: no worse anywhere, strictly better somewhere.
bool RowDominates(const std::vector<double>& a, const std::vector<double>& b) {
  bool strict = false;
  for (size_t d = 0; d < a.size(); ++d) {
    if (a[d] > b[d]) return false;
    if (a[d] < b[d]) strict = true;
  }
  return strict;
}

}  // namespace

std::vector<uint64_t> RefData::Skyband(size_t band) const {
  // Sort-filter: visit rows by (coordinate sum, then lexicographic order),
  // so every dominator of a row is visited before it. A row belongs to
  // the band iff fewer than `band` band members dominate it: a dominator
  // outside the band has `band` dominators of its own, which dominate the
  // row too and are visited earlier.
  std::vector<double> sum(rows_.size(), 0.0);
  for (size_t i = 0; i < rows_.size(); ++i) {
    for (double v : rows_[i]) sum[i] += v;
  }
  std::vector<size_t> order(rows_.size());
  std::iota(order.begin(), order.end(), 0);
  std::sort(order.begin(), order.end(), [&](size_t a, size_t b) {
    if (sum[a] != sum[b]) return sum[a] < sum[b];
    if (rows_[a] != rows_[b]) return rows_[a] < rows_[b];
    return a < b;
  });
  std::vector<size_t> members;
  for (size_t i : order) {
    size_t dominators = 0;
    for (size_t m : members) {
      if (RowDominates(rows_[m], rows_[i]) && ++dominators >= band) break;
    }
    if (dominators < band) members.push_back(i);
  }
  std::vector<uint64_t> ids(members.begin(), members.end());
  std::sort(ids.begin(), ids.end());
  return ids;
}

std::vector<uint64_t> RefData::Range(const std::vector<double>& center,
                                     double radius) const {
  std::vector<uint64_t> ids;
  for (size_t i = 0; i < rows_.size(); ++i) {
    double sq = 0.0;
    for (size_t d = 0; d < center.size(); ++d) {
      const double diff = rows_[i][d] - center[d];
      sq += diff * diff;
    }
    if (std::sqrt(sq) <= radius) ids.push_back(i);
  }
  return ids;
}

std::string ReferenceSelfTest() {
  // Six 2-d points, worked by hand:
  //   0 (0.1, 0.9)  1 (0.5, 0.5)  2 (0.9, 0.1)
  //   3 (0.6, 0.6)  4 (0.2, 0.95) 5 (0.95, 0.95)
  // Skyline {0,1,2}. Dominators: 3 <- {1}; 4 <- {0}; 5 <- {0..4}, so the
  // 2-skyband adds 3 and 4. Scores under w = (1, 2): 1.9, 1.5, 1.1, 1.8,
  // 2.1, 2.85 -> top-3 is 5, 4, 0. Within 0.15 of (0.55, 0.55): 1 and 3
  // (both at 0.0707).
  ripple::TupleVec tuples;
  const double pts[6][2] = {{0.1, 0.9}, {0.5, 0.5}, {0.9, 0.1},
                            {0.6, 0.6}, {0.2, 0.95}, {0.95, 0.95}};
  for (uint64_t i = 0; i < 6; ++i) {
    tuples.push_back(ripple::Tuple{i, ripple::Point{pts[i][0], pts[i][1]}});
  }
  const RefData data(tuples);
  const auto expect = [](const std::vector<uint64_t>& got,
                         const std::vector<uint64_t>& want,
                         const char* what) -> std::string {
    return got == want ? "" : std::string("reference self-test: ") + what;
  };
  std::string err = expect(data.Skyband(1), {0, 1, 2}, "skyline");
  if (err.empty()) err = expect(data.Skyband(2), {0, 1, 2, 3, 4}, "skyband");
  if (err.empty()) err = expect(data.TopK({1.0, 2.0}, 3), {5, 4, 0}, "top-k");
  if (err.empty()) {
    err = expect(data.Range({0.55, 0.55}, 0.15), {1, 3}, "range");
  }
  return err;
}

std::vector<uint64_t> SortedIds(const ripple::TupleVec& answer) {
  std::vector<uint64_t> ids;
  ids.reserve(answer.size());
  for (const ripple::Tuple& t : answer) ids.push_back(t.id);
  std::sort(ids.begin(), ids.end());
  return ids;
}

std::string CompareAnswer(const RefData& data, const ripple::TupleVec& answer,
                          const std::vector<uint64_t>& expected,
                          bool ordered) {
  for (const ripple::Tuple& t : answer) {
    if (t.id >= data.size()) return "unknown tuple id " + std::to_string(t.id);
    const std::vector<double>& row = data.row(t.id);
    bool same = t.key.dims() == static_cast<int>(row.size());
    for (int d = 0; same && d < t.key.dims(); ++d) same = t.key[d] == row[d];
    if (!same) return "tuple " + std::to_string(t.id) + " carries a wrong key";
  }
  if (ordered) {
    std::vector<uint64_t> ids;
    for (const ripple::Tuple& t : answer) ids.push_back(t.id);
    if (ids == expected) return "";
  } else {
    std::vector<uint64_t> want = expected;
    std::sort(want.begin(), want.end());
    if (SortedIds(answer) == want) return "";
  }
  return "answer has " + std::to_string(answer.size()) + " tuples, " +
         "reference " + std::to_string(expected.size()) + ", ids differ";
}

}  // namespace rbench
