#include "queries/skyband.h"

#include <gtest/gtest.h>

#include <set>
#include <string>

#include "common/rng.h"
#include "data/datasets.h"
#include "overlay/midas/midas.h"
#include "queries/topk.h"
#include "queries/topk_driver.h"
#include "ripple/engine.h"
#include "kernel_fixtures.h"
#include "oracles.h"

namespace ripple {
namespace {

using namespace fixtures;

TupleVec Concat(TupleVec a, const TupleVec& b) {
  a.insert(a.end(), b.begin(), b.end());
  return a;
}

TupleVec BruteForceBand(const TupleVec& all, size_t k) {
  TupleVec band;
  for (const Tuple& t : all) {
    size_t dominators = 0;
    for (const Tuple& s : all) {
      if (Dominates(s.key, t.key)) ++dominators;
    }
    if (dominators < k) band.push_back(t);
  }
  std::sort(band.begin(), band.end(), TupleIdLess());
  return band;
}

TEST(KSkybandTest, MatchesBruteForce) {
  Rng rng(801);
  const TupleVec all = data::MakeUniform(300, 3, &rng);
  for (size_t k : {1u, 2u, 4u, 8u}) {
    EXPECT_EQ(ComputeKSkyband(all, k), BruteForceBand(all, k)) << "k=" << k;
  }
}

TEST(KSkybandTest, OneBandIsSkyline) {
  Rng rng(803);
  const TupleVec all = data::MakeUniform(400, 4, &rng);
  EXPECT_EQ(ComputeKSkyband(all, 1), ComputeSkyline(all));
}

TEST(KSkybandTest, BandsAreNested) {
  Rng rng(805);
  const TupleVec all = data::MakeUniform(300, 2, &rng);
  TupleVec previous;
  for (size_t k = 1; k <= 5; ++k) {
    const TupleVec band = ComputeKSkyband(all, k);
    EXPECT_GE(band.size(), previous.size());
    std::set<uint64_t> ids;
    for (const Tuple& t : band) ids.insert(t.id);
    for (const Tuple& t : previous) EXPECT_TRUE(ids.count(t.id));
    previous = band;
  }
}

TEST(KSkybandTest, ZeroKAndEmptyInput) {
  Rng rng(807);
  const TupleVec all = data::MakeUniform(50, 2, &rng);
  EXPECT_TRUE(ComputeKSkyband(all, 0).empty());
  EXPECT_TRUE(ComputeKSkyband({}, 3).empty());
}

// --- column kernels vs the oracle ------------------------------------------

constexpr size_t kBands[] = {1, 2, 3, 5};

TEST(KSkybandKernelTest, ComputeAndMergeMatchOracle) {
  for (int dims = 2; dims <= kMaxDims; ++dims) {
    const LinearScorer scorer = PreferenceScorer(dims, 2100 + dims);
    for (Series series :
         {Series::kIncreasing, Series::kDecreasing, Series::kRandom}) {
      const TupleVec ts =
          ShapedTuples(240, dims, series, scorer, 2200 + dims);
      // Overlapping inputs: rows 100-139 are in both, so the merge sees
      // duplicate ids across its sides.
      const TupleVec lo(ts.begin(), ts.begin() + 140);
      const TupleVec hi(ts.begin() + 100, ts.end());
      for (size_t k : kBands) {
        const std::string where = std::string("dims=") +
                                  std::to_string(dims) + " series=" +
                                  Name(series) + " k=" + std::to_string(k);
        EXPECT_TRUE(
            BitIdentical(ComputeKSkyband(ts, k), KSkybandOracle(ts, k)))
            << where;
        const TupleVec a = ComputeKSkyband(lo, k);
        const TupleVec b = ComputeKSkyband(hi, k);
        const TupleVec merged = MergeSkybands(a, b, k);
        EXPECT_TRUE(BitIdentical(merged, KSkybandOracle(Concat(a, b), k)))
            << where;
        // The band of the union of bands is the band of the union.
        EXPECT_TRUE(BitIdentical(merged, KSkybandOracle(ts, k))) << where;
        EXPECT_TRUE(BitIdentical(MergeSkybands(b, a, k), merged)) << where;
        EXPECT_TRUE(BitIdentical(MergeSkybands(a, {}, k), a)) << where;
        EXPECT_TRUE(BitIdentical(MergeSkybands({}, b, k), b)) << where;
        EXPECT_TRUE(BitIdentical(MergeSkybands(a, a, k), a)) << where;
        // The survivors of one side are exactly its share of the merge.
        TupleVec a_share;
        for (const Tuple& t : merged) {
          if (std::binary_search(a.begin(), a.end(), t, TupleIdLess())) {
            a_share.push_back(t);
          }
        }
        EXPECT_TRUE(BitIdentical(SkybandSurvivors(a, b, k), a_share)) << where;
      }
    }
  }
}

TEST(KSkybandKernelTest, EqualSumDominatorWithLargerIdDoesNotCount) {
  // 1e-20 vanishes beside 0.5, so both tuples have coordinate sum exactly
  // 0.5 while v dominates u. Rows run in (sum, id) order, so v counts
  // against u only when v has the smaller id.
  const Tuple u{1, Point{0.5, 1e-20}};
  const Tuple v{3, Point{0.5, 0.0}};
  ASSERT_TRUE(Dominates(v.key, u.key));
  const Tuple u_late{5, u.key};
  const Tuple v_early{4, v.key};
  for (size_t k : kBands) {
    EXPECT_TRUE(BitIdentical(ComputeKSkyband({u, v}, k),
                             KSkybandOracle({u, v}, k)));
    EXPECT_TRUE(BitIdentical(ComputeKSkyband({u_late, v_early}, k),
                             KSkybandOracle({u_late, v_early}, k)));
    EXPECT_TRUE(BitIdentical(MergeSkybands({u}, {v}, k),
                             KSkybandOracle({u, v}, k)));
    EXPECT_TRUE(BitIdentical(MergeSkybands({v}, {u}, k),
                             KSkybandOracle({u, v}, k)));
    EXPECT_TRUE(BitIdentical(MergeSkybands({u_late}, {v_early}, k),
                             KSkybandOracle({u_late, v_early}, k)));
    EXPECT_TRUE(BitIdentical(SkybandSurvivors({u}, {v}, k), {u}));
    EXPECT_EQ(SkybandSurvivors({u_late}, {v_early}, k).size(),
              k > 1 ? 1u : 0u);
  }
  EXPECT_EQ(ComputeKSkyband({u, v}, 1).size(), 2u);
  EXPECT_EQ(ComputeKSkyband({u_late, v_early}, 1).size(), 1u);
  // A chain of equal-sum dominators: with ascending ids none counts,
  // with descending ids each counts against every later row.
  std::vector<Tuple> up, down;
  for (uint64_t i = 0; i < 6; ++i) {
    const Point key{0.5, 1e-20 * static_cast<double>(5 - i)};
    up.push_back({10 + i, key});
    down.push_back({20 - i, key});
  }
  for (size_t k : kBands) {
    EXPECT_TRUE(BitIdentical(ComputeKSkyband(up, k), KSkybandOracle(up, k)));
    EXPECT_TRUE(
        BitIdentical(ComputeKSkyband(down, k), KSkybandOracle(down, k)));
    const TupleVec up_a(up.begin(), up.begin() + 3);
    const TupleVec up_b(up.begin() + 3, up.end());
    EXPECT_TRUE(BitIdentical(
        MergeSkybands(ComputeKSkyband(up_a, k), ComputeKSkyband(up_b, k), k),
        KSkybandOracle(up, k)));
    const TupleVec down_a(down.begin(), down.begin() + 3);
    const TupleVec down_b(down.begin() + 3, down.end());
    EXPECT_TRUE(BitIdentical(MergeSkybands(ComputeKSkyband(down_a, k),
                                           ComputeKSkyband(down_b, k), k),
                             KSkybandOracle(down, k)));
  }
  EXPECT_EQ(ComputeKSkyband(up, 1).size(), 6u);
  EXPECT_EQ(ComputeKSkyband(down, 2).size(), 2u);
}

TEST(KSkybandKernelTest, OneBandMergeEqualsMergeSkylines) {
  for (int dims : {2, 3, 4, 6, 8, 10}) {
    Rng rng(2300 + dims);
    for (int trial = 0; trial < 5; ++trial) {
      const TupleVec all = data::MakeUniform(400, dims, &rng);
      // Overlapping skylines from trial 2 on.
      const size_t b_from = trial < 2 ? 200 : 150;
      const TupleVec a =
          ComputeSkyline(TupleVec(all.begin(), all.begin() + 200));
      const TupleVec b = ComputeSkyline(TupleVec(all.begin() + b_from,
                                                 all.end()));
      EXPECT_TRUE(BitIdentical(MergeSkybands(a, b, 1), MergeSkylines(a, b)))
          << "dims=" << dims << " trial=" << trial;
    }
  }
}

// --- policy states vs the union-then-filter formulation ------------------

SkybandState BandState(const TupleVec& ts, size_t k) {
  SkybandState s;
  s.tuples = KSkybandOracle(ts, k);
  s.dominators = SelectDominators(s.tuples, SkybandState::kMaxDominators);
  return s;
}

TEST(SkybandPolicyKernelTest, StatesEqualUnionThenFilter) {
  const SkybandPolicy policy;
  for (int dims : {2, 3, 5, 8, 10}) {
    Rng rng(2400 + dims);
    for (size_t k : kBands) {
      for (int trial = 0; trial < 4; ++trial) {
        const TupleVec all = data::MakeUniform(320, dims, &rng);
        LocalStore store;
        store.AddAll(TupleVec(all.begin(), all.begin() + 60));
        // The global state covers other rows, and from trial 2 on some of
        // the store's own rows too (shared ids).
        const size_t g_from = trial < 2 ? 60 : 30;
        const SkybandState g = BandState(
            TupleVec(all.begin() + g_from, all.begin() + 140 + 40 * trial), k);
        const SkybandQuery q{k, Norm::kL2};
        const std::string where = "dims=" + std::to_string(dims) +
                                  " k=" + std::to_string(k) +
                                  " trial=" + std::to_string(trial);

        // Local state: local band members that survive band(local ∪ g).
        const TupleVec local_band = KSkybandOracle(store.Snapshot(), k);
        const TupleVec merged = KSkybandOracle(Concat(local_band, g.tuples), k);
        TupleVec want_l;
        for (const Tuple& t : local_band) {
          if (std::binary_search(merged.begin(), merged.end(), t,
                                 TupleIdLess())) {
            want_l.push_back(t);
          }
        }
        const SkybandState l = policy.ComputeLocalState(store, q, g);
        EXPECT_TRUE(BitIdentical(l.tuples, want_l)) << where;
        EXPECT_TRUE(l.dominators.empty()) << where;
        EXPECT_TRUE(BitIdentical(policy.ComputeLocalState(store, q, {}).tuples,
                                 local_band))
            << where;

        // Global state: band(g ∪ l) plus its min-sum dominator subset.
        const SkybandState next = policy.ComputeGlobalState(q, g, l);
        const SkybandState want_next = BandState(Concat(g.tuples, l.tuples), k);
        EXPECT_TRUE(BitIdentical(next.tuples, want_next.tuples)) << where;
        EXPECT_TRUE(BitIdentical(next.dominators, want_next.dominators))
            << where;
        EXPECT_TRUE(BitIdentical(policy.ComputeGlobalState(q, g, {}).tuples,
                                 g.tuples))
            << where;

        // Merged local states: band of the union of every state.
        SkybandState mine = l;
        const std::vector<SkybandState> received = {
            g, SkybandState{},
            BandState(TupleVec(all.begin() + 100, all.end()), k)};
        policy.MergeLocalStates(q, &mine, received);
        TupleVec everything = l.tuples;
        for (const SkybandState& s : received) {
          everything = Concat(std::move(everything), s.tuples);
        }
        EXPECT_TRUE(BitIdentical(mine.tuples, KSkybandOracle(everything, k)))
            << where;
      }
    }
  }
}

struct Net {
  MidasOverlay overlay;
  TupleVec all;
};

Net MakeNet(size_t peers, size_t tuples, int dims, uint64_t seed) {
  MidasOptions opt;
  opt.dims = dims;
  opt.seed = seed;
  opt.split_rule = MidasSplitRule::kDataMedian;
  Net net{MidasOverlay(opt), {}};
  Rng rng(seed ^ 0x4444);
  net.all = data::MakeUniform(tuples, dims, &rng);
  for (const Tuple& t : net.all) net.overlay.InsertTuple(t);
  while (net.overlay.NumPeers() < peers) net.overlay.Join();
  return net;
}

TEST(SkybandEngineTest, DistributedBandMatchesOracle) {
  Net net = MakeNet(64, 800, 3, 809);
  Engine<MidasOverlay, SkybandPolicy> engine(&net.overlay, SkybandPolicy{});
  Rng rng(5);
  for (size_t band : {1u, 3u, 5u}) {
    SkybandQuery q;
    q.band = band;
    const TupleVec want = ComputeKSkyband(net.all, band);
    for (const RippleParam r : {RippleParam::Fast(), RippleParam::Slow()}) {
      const auto result = engine.Run({.initiator = net.overlay.RandomPeer(&rng), .query = q, .ripple = r});
      ASSERT_EQ(result.answer.size(), want.size())
          << "band=" << band << " r=" << r;
      for (size_t i = 0; i < want.size(); ++i) {
        EXPECT_EQ(result.answer[i].id, want[i].id);
      }
    }
  }
}

TEST(SkybandEngineTest, WiderBandVisitsMorePeers) {
  Net net = MakeNet(128, 2000, 3, 811);
  Engine<MidasOverlay, SkybandPolicy> engine(&net.overlay, SkybandPolicy{});
  Rng rng(7);
  const PeerId initiator = net.overlay.RandomPeer(&rng);
  SkybandQuery narrow;
  narrow.band = 1;
  SkybandQuery wide;
  wide.band = 6;
  const auto a = engine.Run({.initiator = initiator, .query = narrow, .ripple = RippleParam::Slow()});
  const auto b = engine.Run({.initiator = initiator, .query = wide, .ripple = RippleParam::Slow()});
  EXPECT_LE(a.stats.peers_visited, b.stats.peers_visited);
  EXPECT_LT(a.answer.size(), b.answer.size());
}

// --- Approximate top-k ----------------------------------------------------------

TEST(ApproxTopKTest, EpsilonZeroIsExactAndSlackIsHonored) {
  Net net = MakeNet(128, 3000, 3, 813);
  LinearScorer scorer({-0.4, -0.3, -0.3});
  Engine<MidasOverlay, TopKPolicy> engine(&net.overlay, TopKPolicy{});
  Rng rng(11);
  const PeerId initiator = net.overlay.RandomPeer(&rng);
  TopKQuery exact{&scorer, 10, 0.0};
  const TupleVec want = SelectTopK(
      net.all, [&](const Point& p) { return scorer.Score(p); }, exact.k);
  const auto exact_run = SeededTopK(net.overlay, engine, {.initiator = initiator, .query = exact, .ripple = RippleParam::Fast()});
  ASSERT_EQ(exact_run.answer.size(), want.size());
  for (size_t i = 0; i < want.size(); ++i) {
    EXPECT_EQ(exact_run.answer[i].id, want[i].id);
  }
  // Approximate: every returned score within epsilon of the exact rank.
  for (double eps : {0.02, 0.1}) {
    TopKQuery approx{&scorer, 10, eps};
    const auto run = SeededTopK(net.overlay, engine, {.initiator = initiator, .query = approx, .ripple = RippleParam::Fast()});
    ASSERT_EQ(run.answer.size(), want.size()) << "eps=" << eps;
    for (size_t i = 0; i < want.size(); ++i) {
      EXPECT_GE(scorer.Score(run.answer[i].key) + eps,
                scorer.Score(want[i].key))
          << "eps=" << eps << " rank " << i;
    }
    EXPECT_LE(run.stats.peers_visited, exact_run.stats.peers_visited);
  }
}

TEST(ApproxTopKTest, LargerEpsilonNeverVisitsMore) {
  Net net = MakeNet(256, 4000, 3, 817);
  LinearScorer scorer({-0.5, -0.25, -0.25});
  Engine<MidasOverlay, TopKPolicy> engine(&net.overlay, TopKPolicy{});
  Rng rng(13);
  uint64_t prev = std::numeric_limits<uint64_t>::max();
  for (double eps : {0.0, 0.05, 0.2}) {
    TopKQuery q{&scorer, 10, eps};
    uint64_t visits = 0;
    Rng pick(17);
    for (int trial = 0; trial < 5; ++trial) {
      visits += SeededTopK(net.overlay, engine, {.initiator = net.overlay.RandomPeer(&pick), .query = q, .ripple = RippleParam::Fast()})
                    .stats.peers_visited;
    }
    EXPECT_LE(visits, prev) << "eps=" << eps;
    prev = visits;
  }
}

// --- the epoch band behind LocalStore::LocalSkyline/LocalSkyband ----------

/// Tuples on a coarse grid, so coordinate sums tie and whole points repeat
/// under different ids; zero coordinates are +0.0 or -0.0 at random. Ids
/// are a permutation of [id_base, id_base + n), not in insertion order.
TupleVec GridTuples(size_t n, int dims, uint64_t seed, uint64_t id_base) {
  Rng rng(seed);
  TupleVec out;
  for (size_t i = 0; i < n; ++i) {
    Point p(dims);
    for (int d = 0; d < dims; ++d) {
      const double v = 0.25 * static_cast<double>(rng.UniformU64(4));
      p[d] = (v == 0.0 && rng.Bernoulli(0.5)) ? -0.0 : v;
    }
    out.push_back(Tuple{id_base + (i * 7919) % n, p});
  }
  return out;
}

/// Every skyline/band read of `store` is bit-identical to a fresh kernel
/// run over the store's rows, for k = 0 .. kBandCap + 1.
void ExpectEpochStateFresh(const LocalStore& store, const std::string& where) {
  const TupleVec rows = store.Snapshot();
  EXPECT_TRUE(BitIdentical(store.LocalSkyline(), ComputeSkyline(rows)))
      << where;
  for (size_t k = 0; k <= LocalStore::kBandCap + 1; ++k) {
    EXPECT_TRUE(BitIdentical(store.LocalSkyband(k), ComputeKSkyband(rows, k)))
        << where << " k=" << k;
  }
}

TEST(EpochBandTest, EveryMutatorCopyAndMoveStartsAFreshEpoch) {
  constexpr int kDims = 3;
  const TupleVec a = GridTuples(300, kDims, 11, 0);
  const TupleVec b = GridTuples(200, kDims, 12, 1000);
  LocalStore store;
  ExpectEpochStateFresh(store, "empty");
  for (size_t i = 0; i < 40; ++i) {
    store.Add(a[i]);
    ExpectEpochStateFresh(store, "Add #" + std::to_string(i));
  }
  store.AddAll(TupleVec(a.begin() + 40, a.end()));
  ExpectEpochStateFresh(store, "AddAll(TupleVec)");
  LocalStore other;
  other.AddAll(b);
  ExpectEpochStateFresh(other, "other");
  store.AddAll(other);
  ExpectEpochStateFresh(store, "AddAll(LocalStore)");

  LocalStore copy(store);
  ExpectEpochStateFresh(copy, "copy-constructed");
  LocalStore assigned;
  assigned.Add(b[0]);
  ExpectEpochStateFresh(assigned, "before copy-assign");
  assigned = store;
  ExpectEpochStateFresh(assigned, "copy-assigned");

  const Rect domain = Rect::Unit(kDims);
  Point hi = domain.hi();
  hi[0] = 0.5;
  const TupleVec extracted = store.ExtractOutside(Rect(domain.lo(), hi),
                                                  domain);
  EXPECT_FALSE(extracted.empty());
  ExpectEpochStateFresh(store, "ExtractOutside");
  ExpectEpochStateFresh(copy, "copy after its source changed");

  LocalStore moved(std::move(copy));
  ExpectEpochStateFresh(moved, "move-constructed");
  ExpectEpochStateFresh(copy, "moved-from");
  LocalStore move_assigned;
  move_assigned.Add(a[0]);
  ExpectEpochStateFresh(move_assigned, "before move-assign");
  move_assigned = std::move(moved);
  ExpectEpochStateFresh(move_assigned, "move-assigned");
  ExpectEpochStateFresh(moved, "move-assigned-from");

  store.Clear();
  ExpectEpochStateFresh(store, "Clear");
  store.Add(b[1]);
  ExpectEpochStateFresh(store, "Add after Clear");
}

TEST(EpochBandTest, RepeatedIdsFallBackToTheKernel) {
  const TupleVec a = GridTuples(120, 3, 13, 0);
  LocalStore store;
  store.AddAll(a);
  ExpectEpochStateFresh(store, "unique ids");
  store.Add(Tuple{a[5].id, Point{0.0, 0.0, 0.0}});
  ExpectEpochStateFresh(store, "repeated id");
}

TEST(EpochBandTest, BandFiltersMatchTheOracleAcrossDims) {
  for (int dims = 2; dims <= kMaxDims; ++dims) {
    const LinearScorer scorer = PreferenceScorer(dims, 2500 + dims);
    for (Series series :
         {Series::kIncreasing, Series::kDecreasing, Series::kRandom}) {
      const TupleVec ts = ShapedTuples(200, dims, series, scorer, 2600 + dims);
      LocalStore store;
      store.AddAll(ts);
      for (size_t k = 1; k <= LocalStore::kBandCap + 1; ++k) {
        EXPECT_TRUE(BitIdentical(store.LocalSkyband(k), KSkybandOracle(ts, k)))
            << "dims=" << dims << " series=" << Name(series) << " k=" << k;
      }
    }
  }
}

}  // namespace
}  // namespace ripple
