#include "queries/skyline.h"

#include <algorithm>

namespace ripple {

SkylinePolicy::LocalState SkylinePolicy::ComputeLocalState(
    const LocalStore& store, const Query& q, const GlobalState& g) const {
  // Line 1: the local skyline (over the constraint box, if any).
  TupleVec local_sky;
  if (q.constraint.has_value()) {
    TupleVec admitted;
    store.ForEach([&](const Tuple& t) {
      if (q.Admits(t.key)) admitted.push_back(t);
    });
    local_sky = ComputeSkyline(std::move(admitted));
  } else {
    local_sky = store.LocalSkyline();
  }
  // Lines 2-3: keep only the local-skyline tuples that survive a merge
  // with the received global state — without building the merged set.
  LocalState l;
  l.tuples = SkylineSurvivors(std::move(local_sky), g.tuples);
  return l;
}

SkylinePolicy::GlobalState SkylinePolicy::ComputeGlobalState(
    const Query&, const GlobalState& g, const LocalState& l) const {
  GlobalState out;
  out.tuples = MergeSkylines(l.tuples, g.tuples);
  // Refresh the bounded dominator subset: the min-sum tuples are the only
  // ones that can dominate whole regions.
  out.dominators = SelectDominators(out.tuples,
                                    SkylineState::kMaxDominators);
  return out;
}

void SkylinePolicy::MergeLocalStates(
    const Query&, LocalState* mine,
    const std::vector<LocalState>& received) const {
  TupleVec merged = std::move(mine->tuples);
  for (const LocalState& s : received) {
    merged = MergeSkylines(std::move(merged), s.tuples);
  }
  mine->tuples = std::move(merged);
}

SkylinePolicy::Answer SkylinePolicy::ComputeLocalAnswer(
    const LocalStore& store, const Query&, const LocalState& l) const {
  // Algorithm 12: the *local* tuples among the state. After slow-phase
  // merges the state may contain remote tuples; only tuples this peer
  // stores are its contribution to the answer.
  Answer a;
  for (const Tuple& t : l.tuples) {
    if (store.ContainsId(t.id)) a.push_back(t);
  }
  return a;
}

void SkylinePolicy::MergeAnswer(Answer* acc, Answer&& local,
                                const Query&) const {
  // Every per-peer contribution is itself mutually non-dominated, so the
  // accumulator can stay a skyline throughout.
  *acc = MergeSkylines(std::move(*acc), local);
}

void SkylinePolicy::FinalizeAnswer(Answer* acc, const Query&) const {
  std::sort(acc->begin(), acc->end(), TupleIdLess());
}

}  // namespace ripple
