// The per-peer RIPPLE procedure as a pure state machine
// (ripple/peer_session.h): sessions are driven by hand on a small MIDAS
// overlay — no transport, clock, codec or engine — and every step is
// checked against the paper's Algorithms 1-3 recomputed from the policy.

#include "ripple/peer_session.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <limits>
#include <utility>
#include <vector>

#include "common/rng.h"
#include "data/datasets.h"
#include "geom/scoring.h"
#include "overlay/midas/midas.h"
#include "queries/topk.h"

namespace ripple {
namespace {

MidasOverlay MakeOverlay() {
  MidasOptions opt;
  opt.dims = 2;
  opt.seed = 29;
  opt.split_rule = MidasSplitRule::kDataMedian;
  MidasOverlay overlay(opt);
  Rng rng(31);
  for (const Tuple& t : data::MakeUniform(600, 2, &rng)) {
    overlay.InsertTuple(t);
  }
  while (overlay.NumPeers() < 24) overlay.Join();
  return overlay;
}

/// TopK with every link priority tied, so only the bias orders the walk.
struct TiedTopKPolicy : TopKPolicy {
  template <typename Area>
  double LinkPriority(const Query&, const Area&) const {
    return 0.0;
  }
};

struct Link {
  PeerId target;
  Rect area;
};

/// The links of `node` whose regions meet `area`, restricted to it, in
/// link order.
std::vector<Link> Intersecting(const MidasOverlay& overlay, PeerId node,
                               const Rect& area) {
  std::vector<Link> out;
  for (const auto& link : overlay.GetPeer(node).links) {
    Rect restricted;
    if (MidasOverlay::IntersectArea(link.region, area, &restricted)) {
      out.push_back(Link{link.target, restricted});
    }
  }
  return out;
}

class PeerSessionTest : public ::testing::Test {
 protected:
  using Session = PeerSession<MidasOverlay, TopKPolicy>;

  PeerSessionTest()
      : overlay_(MakeOverlay()),
        scorer_({-0.6, -0.4}),
        query_{&scorer_, 5},
        wide_{&scorer_, 1000} {}

  /// Line 1-2 of the algorithms, recomputed outside the session.
  TopKState GlobalAfterOpen(PeerId node, const TopKState& incoming) const {
    const TopKState local = policy_.ComputeLocalState(
        overlay_.GetPeer(node).store, query_, incoming);
    return policy_.ComputeGlobalState(query_, incoming, local);
  }

  MidasOverlay overlay_;
  LinearScorer scorer_;
  TopKQuery query_;
  // More tuples wanted than exist: every link stays relevant (m < k) until
  // a child reports otherwise.
  TopKQuery wide_;
  TopKPolicy policy_;
};

TEST_F(PeerSessionTest, FastOpenForwardsExactlyTheRelevantIntersectingLinks) {
  size_t pruned_total = 0;
  size_t forwarded_total = 0;
  for (PeerId node = 0; node < overlay_.NumPeers(); ++node) {
    const std::vector<Link> links =
        Intersecting(overlay_, node, overlay_.FullArea());
    ASSERT_FALSE(links.empty());
    // A threshold at the median link bound prunes part of the fan-out.
    std::vector<double> bounds;
    for (const Link& l : links) bounds.push_back(scorer_.UpperBound(l.area));
    std::sort(bounds.begin(), bounds.end());
    const TopKState incoming{query_.k, bounds[bounds.size() / 2]};
    const TopKState global = GlobalAfterOpen(node, incoming);

    Session s(&overlay_, &policy_);
    const Session::Step step =
        s.Open(node, query_, incoming, overlay_.FullArea(), /*r=*/0);
    std::vector<Link> expected;
    for (const Link& l : links) {
      if (policy_.IsLinkRelevant(query_, global, l.area)) expected.push_back(l);
    }
    ASSERT_EQ(step.forwards.size(), expected.size()) << "node " << node;
    for (size_t i = 0; i < expected.size(); ++i) {
      EXPECT_EQ(step.forwards[i].target, expected[i].target);
      EXPECT_EQ(step.forwards[i].area, expected[i].area);
      EXPECT_EQ(step.forwards[i].r, 0);
    }
    EXPECT_EQ(step.links_pruned, links.size() - expected.size());
    EXPECT_EQ(step.finished.has_value(), expected.empty());
    EXPECT_TRUE(s.fast());
    pruned_total += step.links_pruned;
    forwarded_total += step.forwards.size();
  }
  // The sweep exercised both outcomes.
  EXPECT_GT(pruned_total, 0u);
  EXPECT_GT(forwarded_total, 0u);
}

TEST_F(PeerSessionTest, SlowOpenVisitsCandidatesByPriority) {
  const PeerId node = 3;
  std::vector<Link> links = Intersecting(overlay_, node, overlay_.FullArea());
  ASSERT_GE(links.size(), 3u);
  std::stable_sort(links.begin(), links.end(),
                   [&](const Link& a, const Link& b) {
                     return scorer_.UpperBound(a.area) >
                            scorer_.UpperBound(b.area);
                   });
  // Children that report nothing keep every candidate relevant, so the
  // walk visits all of them, one at a time, by priority.
  Session s(&overlay_, &policy_);
  Session::Step step = s.Open(node, wide_, policy_.InitialGlobalState(wide_),
                              overlay_.FullArea(), /*r=*/2);
  for (const Link& want : links) {
    ASSERT_EQ(step.forwards.size(), 1u);
    EXPECT_EQ(step.forwards[0].target, want.target);
    EXPECT_EQ(step.forwards[0].area, want.area);
    EXPECT_EQ(step.forwards[0].r, 1);
    EXPECT_FALSE(step.finished.has_value());
    step = s.OnChildStates({TopKState{}});
  }
  EXPECT_TRUE(step.forwards.empty());
  ASSERT_TRUE(step.finished.has_value());
  EXPECT_EQ(step.finished->states.size(), 1u);  // its own state only
}

TEST_F(PeerSessionTest, SlowTiesAreBrokenByBias) {
  const TiedTopKPolicy tied;
  const PeerId node = 5;
  std::vector<Link> links = Intersecting(overlay_, node, overlay_.FullArea());
  ASSERT_GE(links.size(), 3u);
  // Larger bias first: the smallest peer id leads.
  const LinkBias bias = [](PeerId p) { return -static_cast<double>(p); };
  std::sort(links.begin(), links.end(),
            [](const Link& a, const Link& b) { return a.target < b.target; });

  PeerSession<MidasOverlay, TiedTopKPolicy> s(&overlay_, &tied);
  auto step = s.Open(node, wide_, tied.InitialGlobalState(wide_),
                     overlay_.FullArea(), /*r=*/1, bias);
  for (const Link& want : links) {
    ASSERT_EQ(step.forwards.size(), 1u);
    EXPECT_EQ(step.forwards[0].target, want.target);
    EXPECT_EQ(step.forwards[0].r, 0);
    step = s.OnChildFailed();
  }
  EXPECT_TRUE(step.finished.has_value());
}

TEST_F(PeerSessionTest, SlowWalkRetestsRelevanceAfterEachMergedChild) {
  const PeerId node = 3;
  const size_t candidates =
      Intersecting(overlay_, node, overlay_.FullArea()).size();
  ASSERT_GE(candidates, 3u);
  Session s(&overlay_, &policy_);
  Session::Step step = s.Open(node, wide_, policy_.InitialGlobalState(wide_),
                              overlay_.FullArea(), /*r=*/3);
  ASSERT_EQ(step.forwards.size(), 1u);
  EXPECT_EQ(step.links_pruned, 0u);
  // The first child already knows k tuples above every remaining bound:
  // the merged state makes each later candidate irrelevant, so the walk
  // prunes them all and finishes without another forward.
  const double high = 1e300;
  step = s.OnChildStates({TopKState{wide_.k, high}});
  EXPECT_TRUE(step.forwards.empty());
  EXPECT_EQ(step.links_pruned, candidates - 1);
  ASSERT_TRUE(step.finished.has_value());
  ASSERT_EQ(step.finished->states.size(), 1u);
  EXPECT_GE(step.finished->states[0].m, wide_.k);
  EXPECT_EQ(step.finished->states[0].tau, high);
  // The local answer is extracted under that merged state: nothing here
  // scores above it.
  EXPECT_TRUE(step.finished->answer.empty());
}

TEST_F(PeerSessionTest, ChildFailureContinuesTheSlowWalk) {
  const PeerId node = 3;
  std::vector<Link> links = Intersecting(overlay_, node, overlay_.FullArea());
  std::stable_sort(links.begin(), links.end(),
                   [&](const Link& a, const Link& b) {
                     return scorer_.UpperBound(a.area) >
                            scorer_.UpperBound(b.area);
                   });
  Session s(&overlay_, &policy_);
  Session::Step step = s.Open(node, wide_, policy_.InitialGlobalState(wide_),
                              overlay_.FullArea(), /*r=*/1);
  ASSERT_EQ(step.forwards.size(), 1u);
  EXPECT_EQ(step.forwards[0].target, links[0].target);
  step = s.OnChildFailed();
  ASSERT_EQ(step.forwards.size(), 1u);
  EXPECT_EQ(step.forwards[0].target, links[1].target);
}

TEST_F(PeerSessionTest, FastFanOutFinishesWhenEveryChildReportedOrFailed) {
  const PeerId node = 0;
  Session s(&overlay_, &policy_);
  Session::Step step = s.Open(node, wide_, policy_.InitialGlobalState(wide_),
                              overlay_.FullArea(), /*r=*/0);
  const size_t fan_out = step.forwards.size();
  ASSERT_GE(fan_out, 3u);
  // One child reports a two-state bundle, the others fail; only the last
  // input ends the session.
  step = s.OnChildStates({TopKState{1, 0.5}, TopKState{2, 0.25}});
  EXPECT_FALSE(step.finished.has_value());
  for (size_t i = 1; i + 1 < fan_out; ++i) {
    step = s.OnChildFailed();
    EXPECT_FALSE(step.finished.has_value());
    EXPECT_TRUE(step.forwards.empty());
  }
  EXPECT_FALSE(s.finished());
  step = s.OnChildFailed();
  ASSERT_TRUE(step.finished.has_value());
  EXPECT_TRUE(s.finished());
  // The bundle passes through unmerged, followed by the line-1 state.
  const auto& states = step.finished->states;
  ASSERT_EQ(states.size(), 3u);
  EXPECT_EQ(states[0].m, 1u);
  EXPECT_EQ(states[1].m, 2u);
  const TopKState local = policy_.ComputeLocalState(
      overlay_.GetPeer(node).store, wide_, policy_.InitialGlobalState(wide_));
  EXPECT_EQ(states[2].m, local.m);
  EXPECT_EQ(states[2].tau, local.tau);
}

TEST_F(PeerSessionTest, FinishedIsEmittedExactlyOnce) {
  for (const int r : {0, 1, std::numeric_limits<int>::max()}) {
    Session s(&overlay_, &policy_);
    Session::Step step = s.Open(
        7, query_, policy_.InitialGlobalState(query_), overlay_.FullArea(), r);
    int finishes = step.finished.has_value() ? 1 : 0;
    // Answer every forward with an empty child until the session ends.
    size_t outstanding = step.forwards.size();
    while (outstanding > 0 && finishes == 0) {
      outstanding -= 1;
      step = s.OnChildStates({TopKState{}});
      outstanding += step.forwards.size();
      finishes += step.finished.has_value() ? 1 : 0;
    }
    EXPECT_EQ(finishes, 1) << "r=" << r;
    EXPECT_EQ(outstanding, 0u) << "r=" << r;
    EXPECT_TRUE(s.finished());
    EXPECT_DEATH(s.OnChildFailed(), "RIPPLE_CHECK");
  }
}

TEST_F(PeerSessionTest, LeafFinishesOnOpen) {
  // A restriction area no link region meets leaves nothing to forward.
  const PeerId node = 4;
  const Rect& zone = overlay_.GetPeer(node).zone;
  for (const int r : {0, 2}) {
    Session s(&overlay_, &policy_);
    const Session::Step step =
        s.Open(node, query_, policy_.InitialGlobalState(query_), zone, r);
    EXPECT_TRUE(step.forwards.empty());
    ASSERT_TRUE(step.finished.has_value());
    EXPECT_EQ(step.finished->states.size(), 1u);
    EXPECT_EQ(step.finished->answer,
              policy_.ComputeLocalAnswer(overlay_.GetPeer(node).store, query_,
                                         step.finished->states[0]));
  }
}

}  // namespace
}  // namespace ripple
