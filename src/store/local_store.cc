#include "store/local_store.h"

#include <algorithm>
#include <cstring>

#include "common/arena.h"
#include "common/kernel_counters.h"

namespace ripple {

namespace {

/// Runs `build` once per mutation epoch: readers that find `fresh` set
/// skip the lock; the first stale reader builds under `mu` and publishes.
template <typename Build>
void BuildOnce(std::atomic<bool>* fresh, std::mutex* mu, Build&& build) {
  if (fresh->load(std::memory_order_acquire)) return;
  std::lock_guard<std::mutex> lock(*mu);
  if (fresh->load(std::memory_order_relaxed)) return;
  build();
  fresh->store(true, std::memory_order_release);
}

}  // namespace

LocalStore& LocalStore::operator=(const LocalStore& other) {
  if (this == &other) return *this;
  flat_ = other.flat_;
  index_ = other.index_;
  sorted_ids_ = other.sorted_ids_;
  index_fresh_.store(other.index_fresh_.load());
  ids_fresh_.store(other.ids_fresh_.load());
  return *this;
}

LocalStore& LocalStore::operator=(LocalStore&& other) noexcept {
  if (this == &other) return *this;
  flat_ = std::move(other.flat_);
  index_ = std::move(other.index_);
  sorted_ids_ = std::move(other.sorted_ids_);
  index_fresh_.store(other.index_fresh_.load());
  ids_fresh_.store(other.ids_fresh_.load());
  other.MarkMutated();
  return *this;
}

void LocalStore::Add(const Tuple& t) {
  flat_.Append(t);
  MarkMutated();
}

void LocalStore::AddAll(const TupleVec& ts) {
  flat_.AppendAll(ts);
  MarkMutated();
}

void LocalStore::AddAll(const LocalStore& other) {
  flat_.AppendAll(other.flat_);
  MarkMutated();
}

void LocalStore::Clear() {
  flat_.Clear();
  MarkMutated();
}

bool LocalStore::ContainsId(uint64_t id) const {
  BuildOnce(&ids_fresh_, &derive_mu_, [this] {
    sorted_ids_ = flat_.ids();
    std::sort(sorted_ids_.begin(), sorted_ids_.end());
  });
  return std::binary_search(sorted_ids_.begin(), sorted_ids_.end(), id);
}

TupleVec LocalStore::ExtractOutside(const Rect& zone, const Rect& domain) {
  std::vector<uint8_t> outside(flat_.size());
  for (size_t i = 0; i < flat_.size(); ++i) {
    outside[i] =
        static_cast<uint8_t>(!zone.ContainsHalfOpen(flat_.PointAt(i), domain));
  }
  TupleVec moved = flat_.ExtractIf(outside);
  MarkMutated();
  return moved;
}

const KdIndex* LocalStore::Index() const {
  if (flat_.size() < kIndexThreshold) return nullptr;
  BuildOnce(&index_fresh_, &derive_mu_, [this] { index_.Build(flat_); });
  return &index_;
}

TupleVec LocalStore::TopKAbove(const Scorer& scorer, size_t k,
                               double tau) const {
  if (const KdIndex* idx = Index()) {
    return idx->TopK(scorer, k, tau, /*inclusive_floor=*/true);
  }
  const size_t n = flat_.size();
  if (n == 0 || k == 0) return {};
  Arena& arena = PerQueryArena();
  ArenaScope scope(&arena);
  double* scores = arena.AllocateArray<double>(n);
  scorer.ScoreBlock(flat_.cols(), flat_.dims(), n, scores);
  LocalKernelCounters().tuples_scanned += n;
  store::BoundedTopK queue(k);
  for (size_t i = 0; i < n; ++i) {
    if (scores[i] >= tau) {
      queue.Insert(scores[i], flat_.id(i), static_cast<uint32_t>(i));
    }
  }
  TupleVec out;
  out.reserve(queue.size());
  for (const store::BoundedTopK::Entry& e : queue.SortedDescending()) {
    out.push_back(flat_.TupleAt(e.payload));
  }
  return out;
}

TupleVec LocalStore::BestBelow(const Scorer& scorer, size_t count,
                               double tau) const {
  const size_t n = flat_.size();
  if (n == 0 || count == 0) return {};
  Arena& arena = PerQueryArena();
  ArenaScope scope(&arena);
  double* scores = arena.AllocateArray<double>(n);
  scorer.ScoreBlock(flat_.cols(), flat_.dims(), n, scores);
  LocalKernelCounters().tuples_scanned += n;
  store::BoundedTopK queue(count);
  for (size_t i = 0; i < n; ++i) {
    if (scores[i] < tau) {
      queue.Insert(scores[i], flat_.id(i), static_cast<uint32_t>(i));
    }
  }
  TupleVec out;
  out.reserve(queue.size());
  for (const store::BoundedTopK::Entry& e : queue.SortedDescending()) {
    out.push_back(flat_.TupleAt(e.payload));
  }
  return out;
}

TupleVec LocalStore::AllAtLeast(const Scorer& scorer, double tau) const {
  TupleVec out;
  if (const KdIndex* idx = Index()) {
    idx->CollectAtLeast(scorer, tau, &out);
  } else {
    const size_t n = flat_.size();
    if (n > 0) {
      Arena& arena = PerQueryArena();
      ArenaScope scope(&arena);
      double* scores = arena.AllocateArray<double>(n);
      scorer.ScoreBlock(flat_.cols(), flat_.dims(), n, scores);
      LocalKernelCounters().tuples_scanned += n;
      for (size_t i = 0; i < n; ++i) {
        if (scores[i] >= tau) out.push_back(flat_.TupleAt(i));
      }
    }
  }
  std::sort(out.begin(), out.end(), TupleIdLess());
  return out;
}

TupleVec LocalStore::LocalSkyline() const {
  return ComputeSkyline(flat_.Materialize());
}

double LocalStore::MedianAlong(int dim) const {
  RIPPLE_CHECK(!flat_.empty());
  const size_t n = flat_.size();
  Arena& arena = PerQueryArena();
  ArenaScope scope(&arena);
  double* coords = arena.AllocateArray<double>(n);
  std::memcpy(coords, flat_.col(dim), n * sizeof(double));
  const size_t mid = n / 2;
  std::nth_element(coords, coords + mid, coords + n);
  return coords[mid];
}

std::optional<Tuple> LocalStore::ArgMin(
    const std::function<double(const Point&)>& cost,
    const std::function<double(const Rect&)>& rect_lower,
    const std::function<bool(const Tuple&)>& admit,
    double* best_cost) const {
  if (const KdIndex* idx = Index()) {
    return idx->ArgMin(cost, rect_lower, admit, best_cost);
  }
  std::optional<Tuple> best;
  double best_c = std::numeric_limits<double>::infinity();
  KernelCounters& kc = LocalKernelCounters();
  for (size_t i = 0; i < flat_.size(); ++i) {
    ++kc.tuples_scanned;
    const Tuple t = flat_.TupleAt(i);
    if (!admit(t)) continue;
    const double c = cost(t.key);
    if (!best.has_value() || c < best_c || (c == best_c && t.id < best->id)) {
      best_c = c;
      best = t;
    }
  }
  if (best_cost != nullptr) *best_cost = best_c;
  return best;
}

}  // namespace ripple
