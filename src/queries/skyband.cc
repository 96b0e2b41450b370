#include "queries/skyband.h"

#include <algorithm>

namespace ripple {

SkybandPolicy::LocalState SkybandPolicy::ComputeLocalState(
    const LocalStore& store, const Query& q, const GlobalState& g) const {
  // Keep local band members not already disqualified by the global state:
  // those still in the band of (local band ∪ g).
  LocalState l;
  l.tuples = SkybandSurvivors(store.LocalSkyband(q.band), g.tuples, q.band);
  return l;
}

SkybandPolicy::GlobalState SkybandPolicy::ComputeGlobalState(
    const Query& q, const GlobalState& g, const LocalState& l) const {
  GlobalState out;
  out.tuples = MergeSkybands(l.tuples, g.tuples, q.band);
  out.dominators =
      SelectDominators(out.tuples, SkybandState::kMaxDominators);
  return out;
}

void SkybandPolicy::MergeLocalStates(
    const Query& q, LocalState* mine,
    const std::vector<LocalState>& received) const {
  TupleVec merged = std::move(mine->tuples);
  for (const LocalState& s : received) {
    merged = MergeSkybands(std::move(merged), s.tuples, q.band);
  }
  mine->tuples = std::move(merged);
}

SkybandPolicy::Answer SkybandPolicy::ComputeLocalAnswer(
    const LocalStore& store, const Query&, const LocalState& l) const {
  Answer a;
  for (const Tuple& t : l.tuples) {
    if (store.ContainsId(t.id)) a.push_back(t);
  }
  return a;
}

void SkybandPolicy::MergeAnswer(Answer* acc, Answer&& local,
                                const Query&) const {
  acc->insert(acc->end(), std::make_move_iterator(local.begin()),
              std::make_move_iterator(local.end()));
}

void SkybandPolicy::FinalizeAnswer(Answer* acc, const Query& q) const {
  *acc = ComputeKSkyband(std::move(*acc), q.band);
}

}  // namespace ripple
