#ifndef RIPPLE_STORE_LOCAL_STORE_H_
#define RIPPLE_STORE_LOCAL_STORE_H_

#include <atomic>
#include <functional>
#include <limits>
#include <mutex>
#include <optional>
#include <vector>

#include "geom/rect.h"
#include "geom/scoring.h"
#include "store/flat_store.h"
#include "store/kd_index.h"
#include "store/local_algos.h"
#include "store/tuple.h"

namespace ripple {

/// A peer's local tuple storage plus the query primitives the RIPPLE
/// policies need from local data. Rows live in a store::FlatStore (flat
/// structure-of-arrays: ids plus d contiguous coordinate columns), so the
/// scan paths batch-score whole columns (Scorer::ScoreBlock) into a
/// bounded top-k queue instead of walking Tuple records. Mutations
/// (tuples arriving or handed off during zone splits/merges) end a
/// mutation epoch; the structures derived from the rows (a k-d index, the
/// sorted ids, the capped band behind LocalSkyline/LocalSkyband) are
/// rebuilt on first use in the next epoch. Small stores are scanned
/// directly.
///
/// Threading: const queries may run concurrently (executor workers share
/// peers); mutations, copies and moves must not overlap any other access.
class LocalStore {
 public:
  LocalStore() = default;
  LocalStore(const LocalStore& other) { *this = other; }
  LocalStore(LocalStore&& other) noexcept { *this = std::move(other); }
  LocalStore& operator=(const LocalStore& other);
  LocalStore& operator=(LocalStore&& other) noexcept;

  size_t size() const { return flat_.size(); }
  bool empty() const { return flat_.empty(); }

  /// The backing columnar rows (insertion order).
  const store::FlatStore& flat() const { return flat_; }

  /// Row-order materialization into edge Tuples (wire, oracles, tests).
  TupleVec Snapshot() const { return flat_.Materialize(); }

  /// Calls `fn(const Tuple&)` for every stored tuple in row order.
  template <typename Fn>
  void ForEach(Fn&& fn) const {
    for (size_t i = 0; i < flat_.size(); ++i) fn(flat_.TupleAt(i));
  }

  /// Whether a tuple with this id is stored here (lazy sorted-id index).
  bool ContainsId(uint64_t id) const;

  void Add(const Tuple& t);
  void AddAll(const TupleVec& ts);
  /// Column-wise bulk absorb of another store's rows (zone merges).
  void AddAll(const LocalStore& other);
  void Clear();

  /// Removes and returns every tuple whose key is NOT inside `zone`
  /// (half-open semantics relative to `domain`). Used when a zone is split
  /// and half the data moves to the new peer.
  TupleVec ExtractOutside(const Rect& zone, const Rect& domain);

  /// Up to `k` local tuples with score >= `tau`, best first (Alg. 4
  /// line 1). Inclusive so that a tuple witnessing the threshold itself is
  /// selected — with strict comparison the k-th answer tuple would be
  /// silently dropped whenever a state whose tau equals its score reaches
  /// its owner.
  TupleVec TopKAbove(const Scorer& scorer, size_t k, double tau) const;

  /// Up to `count` highest-ranking local tuples with score strictly below
  /// `tau` (Alg. 4 line 3: fill the answer with the best of the rest;
  /// strict so the two selections never double-count a tuple).
  TupleVec BestBelow(const Scorer& scorer, size_t count, double tau) const;

  /// Every local tuple with score >= `tau` (Alg. 6).
  TupleVec AllAtLeast(const Scorer& scorer, double tau) const;

  /// Dominator counts the epoch band tracks exactly; bands up to this k
  /// are filters of it.
  static constexpr size_t kBandCap = 8;

  /// The local k-skyband, equal to ComputeKSkyband(Snapshot(), k). For
  /// k <= kBandCap an id-order filter of the epoch band (built once per
  /// mutation epoch, on first use); above it, the kernel over a snapshot.
  TupleVec LocalSkyband(size_t k) const;

  /// The local skyline (min-is-better dominance): the 1-band, equal to
  /// ComputeSkyline(Snapshot()).
  TupleVec LocalSkyline() const { return LocalSkyband(1); }

  /// Median coordinate of the stored tuples along `dim` (lower median).
  /// Requires a non-empty store. Used for load-balancing zone splits.
  double MedianAlong(int dim) const;

  /// The local tuple minimizing `cost`, among tuples accepted by `admit`,
  /// pruning subtrees via `rect_lower` (sound lower bound of cost over a
  /// rect). Empty optional when the store has no admitted tuple. Ties are
  /// broken by smallest id for determinism.
  std::optional<Tuple> ArgMin(
      const std::function<double(const Point&)>& cost,
      const std::function<double(const Rect&)>& rect_lower,
      const std::function<bool(const Tuple&)>& admit,
      double* best_cost) const;

 private:
  /// Rebuilds the k-d index if stale; returns it (nullptr for tiny stores).
  const KdIndex* Index() const;

  // Relaxed: mutations never overlap readers (see the class comment), so
  // whatever hands the store to readers orders these stores too.
  void MarkMutated() {
    index_fresh_.store(false, std::memory_order_relaxed);
    ids_fresh_.store(false, std::memory_order_relaxed);
    band_fresh_.store(false, std::memory_order_relaxed);
  }

  store::FlatStore flat_;
  // Derived lookup structures, rebuilt on first use after a mutation by
  // concurrent const readers: a double-checked build whose fast path is
  // an acquire load of the fresh flag, and whose rebuild runs under
  // `derive_mu_` and publishes with a release store.
  mutable std::mutex derive_mu_;
  mutable KdIndex index_;
  mutable std::atomic<bool> index_fresh_{false};
  mutable std::vector<uint64_t> sorted_ids_;
  mutable std::atomic<bool> ids_fresh_{false};
  // StoreBand(flat_, kBandCap); nullopt when ids repeat.
  mutable std::optional<std::vector<BandRow>> band_;
  mutable std::atomic<bool> band_fresh_{false};

  /// Below this many tuples a plain scan beats the index.
  static constexpr size_t kIndexThreshold = 32;
};

}  // namespace ripple

#endif  // RIPPLE_STORE_LOCAL_STORE_H_
