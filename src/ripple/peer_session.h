#ifndef RIPPLE_RIPPLE_PEER_SESSION_H_
#define RIPPLE_RIPPLE_PEER_SESSION_H_

#include <algorithm>
#include <cstdint>
#include <functional>
#include <optional>
#include <utility>
#include <vector>

#include "common/check.h"
#include "overlay/types.h"
#include "ripple/policy.h"

namespace ripple {

/// Secondary slow-phase contact order: among links whose policy priorities
/// tie, larger bias goes first. Never changes which links are contacted.
using LinkBias = std::function<double(PeerId)>;

/// One activation of the paper's per-peer procedure — Algorithms 1 (fast),
/// 2 (slow) and 3 (ripple) — as a sans-IO state machine. It runs on decoded
/// inputs and returns plain outputs; encoding, transport, clocks,
/// retransmission, answer delivery and instrumentation belong to its
/// drivers (AsyncEngine on the simulated network, net::PeerDaemon on the
/// live one). The recursive Engine stays the analytic oracle.
///
///   Open           lines 1-2 (local and global state), then either the
///                  fast fan-out to every relevant link at once, or the
///                  first forward of the prioritised slow walk;
///   OnChildStates  the outstanding child reported its subtree's states: a
///                  fast session collects them for its slow ancestor, a
///                  slow one merges them and re-tests the remaining
///                  candidates' relevance against the updated state;
///   OnChildFailed  a child could not be reached: continue without it.
///
/// Each input returns a Step: the forwards to issue now (carrying the
/// session's current global state, read through global()), the links
/// pruned while choosing them, and — exactly once, on the step that ends
/// the session — Finished: the states to report upward (a fast session's
/// collected bundle, then its own final state) and the local answer under
/// that final state. At finish the session drops its candidates, bundle
/// and states; only peer, phase and query stay readable.
///
/// The overlay and policy must outlive the session.
template <typename Overlay, typename Policy>
  requires QueryPolicy<Policy, typename Overlay::Area>
class PeerSession {
 public:
  using Area = typename Overlay::Area;
  using Query = typename Policy::Query;
  using LocalState = typename Policy::LocalState;
  using GlobalState = typename Policy::GlobalState;
  using Answer = typename Policy::Answer;

  struct Forward {
    PeerId target = kInvalidPeer;
    Area area;  // the link's region restricted to this session's area
    int r = 0;  // the child's remaining slow hops
  };
  struct Finished {
    std::vector<LocalState> states;
    Answer answer{};
  };
  struct Step {
    std::vector<Forward> forwards;  // links forwarded == forwards.size()
    uint64_t links_pruned = 0;
    std::optional<Finished> finished;
  };

  PeerSession(const Overlay* overlay, const Policy* policy)
      : overlay_(overlay), policy_(policy) {}

  PeerId peer() const { return peer_; }
  bool fast() const { return fast_; }
  bool finished() const { return finished_; }
  const Query& query() const { return query_; }
  const GlobalState& global() const { return global_; }

  /// Activates the procedure at `node` on the query, global state and
  /// restriction area as received, with `r` slow hops left.
  Step Open(PeerId node, Query query, GlobalState state, const Area& area,
            int r, const LinkBias& bias = {}) {
    peer_ = node;
    query_ = std::move(query);
    incoming_ = std::move(state);
    r_ = r;
    fast_ = r <= 0;
    const auto& peer = overlay_->GetPeer(node);
    local_ = policy_->ComputeLocalState(peer.store, query_, incoming_);
    global_ = policy_->ComputeGlobalState(query_, incoming_, local_);
    Step step;
    if (fast_) {
      // Alg. 1 / Alg. 3 lines 13-17: every relevant link at once, all with
      // the same state snapshot.
      for (const auto& link : peer.links) {
        Area restricted;
        if (!Overlay::IntersectArea(link.region, area, &restricted)) continue;
        if (!policy_->IsLinkRelevant(query_, global_, restricted)) {
          step.links_pruned += 1;
          continue;
        }
        step.forwards.push_back(Forward{link.target, std::move(restricted), 0});
      }
      outstanding_ = static_cast<int>(step.forwards.size());
      if (outstanding_ == 0) Finish(&step);
      return step;
    }
    // Alg. 2 / Alg. 3 lines 4-11: prioritised, one link at a time.
    candidates_.reserve(peer.links.size());
    for (const auto& link : peer.links) {
      Area restricted;
      if (!Overlay::IntersectArea(link.region, area, &restricted)) continue;
      const double priority = policy_->LinkPriority(query_, restricted);
      candidates_.push_back(
          Candidate{link.target, std::move(restricted), priority});
    }
    std::stable_sort(candidates_.begin(), candidates_.end(),
                     [&bias](const Candidate& a, const Candidate& b) {
                       if (a.priority != b.priority) {
                         return a.priority > b.priority;
                       }
                       if (bias) return bias(a.target) > bias(b.target);
                       return false;
                     });
    Advance(&step);
    return step;
  }

  Step OnChildStates(std::vector<LocalState> bundle) {
    RIPPLE_CHECK(!finished_ && "input to a finished session");
    Step step;
    if (fast_) {
      for (LocalState& s : bundle) bundle_.push_back(std::move(s));
      if (--outstanding_ == 0) Finish(&step);
      return step;
    }
    policy_->MergeLocalStates(query_, &local_, bundle);
    global_ = policy_->ComputeGlobalState(query_, incoming_, local_);
    Advance(&step);
    return step;
  }

  Step OnChildFailed() {
    RIPPLE_CHECK(!finished_ && "input to a finished session");
    Step step;
    if (!fast_) {
      Advance(&step);
    } else if (--outstanding_ == 0) {
      Finish(&step);
    }
    return step;
  }

 private:
  struct Candidate {
    PeerId target;
    Area area;
    double priority;
  };

  /// Slow phase: forward to the next candidate still relevant under the
  /// state merged so far, or finish when none is left.
  void Advance(Step* step) {
    while (next_ < candidates_.size()) {
      Candidate& c = candidates_[next_++];
      if (!policy_->IsLinkRelevant(query_, global_, c.area)) {
        step->links_pruned += 1;
        continue;
      }
      step->forwards.push_back(Forward{c.target, std::move(c.area), r_ - 1});
      return;
    }
    Finish(step);
  }

  /// Lines 12-13 / 19-21: the final local state drives the answer
  /// extraction (a fast session never merged, so it is the line-1 state).
  void Finish(Step* step) {
    Finished f;
    f.answer = policy_->ComputeLocalAnswer(overlay_->GetPeer(peer_).store,
                                           query_, local_);
    f.states = std::move(bundle_);
    f.states.push_back(std::move(local_));
    step->finished = std::move(f);
    finished_ = true;
    incoming_ = GlobalState{};
    global_ = GlobalState{};
    local_ = LocalState{};
    bundle_ = {};
    candidates_ = {};
  }

  const Overlay* overlay_;
  const Policy* policy_;
  PeerId peer_ = kInvalidPeer;
  Query query_{};            // Q as decoded at this peer
  GlobalState incoming_{};   // S^G as received
  GlobalState global_{};     // S^G_w, updated between slow iterations
  LocalState local_{};       // S^L_w
  std::vector<Candidate> candidates_;  // slow phase, by priority
  std::vector<LocalState> bundle_;     // fast phase, for the slow ancestor
  uint32_t next_ = 0;        // next slow candidate
  int outstanding_ = 0;      // fast phase: children still to report
  int r_ = 0;
  bool fast_ = false;
  bool finished_ = false;
};

}  // namespace ripple

#endif  // RIPPLE_RIPPLE_PEER_SESSION_H_
