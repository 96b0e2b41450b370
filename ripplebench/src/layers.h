// Layer timers for the traced run. Three decorators wrap the public seams
// of libripple from the benchmark's side, so the program itself is timed
// without being changed:
//
//  * TimedPolicy<P>  — satisfies QueryPolicy; times the per-peer work
//    (local state/answer: the store kernels), state merging, link
//    relevance/priority, and the payload codecs the engines call;
//  * TimedEngine<E, P> — what SeededTopK / SeededSkyline receive; times
//    Engine::Run / AsyncEngine::Run, so the seeded entry point's own
//    routing and walk time is the difference;
//  * TimedTransport  — a net::Transport forwarding to a loopback or UDP
//    transport, timing Send outside the delivery callback.
//
// The totals are process-wide and unsynchronized: the traced workloads
// run one executor worker, and the admission thread reads them only
// after Executor::Run has joined it.
#ifndef RIPPLEBENCH_LAYERS_H_
#define RIPPLEBENCH_LAYERS_H_

#include <chrono>
#include <cstdint>
#include <type_traits>
#include <utility>
#include <vector>

#include "net/transport.h"
#include "obs/journal.h"
#include "obs/trace.h"
#include "ripple/api.h"
#include "store/local_store.h"
#include "wire/buffer.h"

namespace rbench {

/// Accumulated layer time (ns) and counts since the last reset.
struct LayerTotals {
  uint64_t local_ns = 0;      // ComputeLocalState + ComputeLocalAnswer
  uint64_t merge_ns = 0;      // ComputeGlobalState, MergeLocalStates, answers
  uint64_t relevance_ns = 0;  // IsLinkRelevant + LinkPriority
  uint64_t encode_ns = 0;     // policy payload encoders
  uint64_t decode_ns = 0;     // policy payload decoders
  uint64_t links_tested = 0;  // IsLinkRelevant calls
  uint64_t links_pruned = 0;  // ... that returned false
  uint64_t run_ns = 0;        // Engine::Run / AsyncEngine::Run
  uint64_t transport_ns = 0;  // Transport::Send minus delivery callbacks
  uint64_t frames = 0;        // frames shipped through a loopback

  uint64_t PolicyNs() const {
    return local_ns + merge_ns + relevance_ns + encode_ns + decode_ns;
  }
  LayerTotals operator-(const LayerTotals& o) const;
};

LayerTotals& Layers();

/// Adds the lifetime of the scope to one LayerTotals field.
class ScopeTimer {
 public:
  explicit ScopeTimer(uint64_t* sink)
      : sink_(sink), t0_(std::chrono::steady_clock::now()) {}
  ~ScopeTimer() {
    *sink_ += static_cast<uint64_t>(
        std::chrono::duration_cast<std::chrono::nanoseconds>(
            std::chrono::steady_clock::now() - t0_)
            .count());
  }
  ScopeTimer(const ScopeTimer&) = delete;
  ScopeTimer& operator=(const ScopeTimer&) = delete;

 private:
  uint64_t* sink_;
  std::chrono::steady_clock::time_point t0_;
};

template <typename P>
class TimedPolicy : public P {
 public:
  using Query = typename P::Query;
  using LocalState = typename P::LocalState;
  using GlobalState = typename P::GlobalState;
  using Answer = typename P::Answer;
  static_assert(std::is_same_v<LocalState, GlobalState>,
                "one EncodeState/DecodeState overload covers both states");

  LocalState ComputeLocalState(const ripple::LocalStore& store,
                               const Query& q, const GlobalState& g) const {
    ScopeTimer t(&Layers().local_ns);
    return P::ComputeLocalState(store, q, g);
  }
  Answer ComputeLocalAnswer(const ripple::LocalStore& store, const Query& q,
                            const LocalState& l) const {
    ScopeTimer t(&Layers().local_ns);
    return P::ComputeLocalAnswer(store, q, l);
  }
  GlobalState ComputeGlobalState(const Query& q, const GlobalState& g,
                                 const LocalState& l) const {
    ScopeTimer t(&Layers().merge_ns);
    return P::ComputeGlobalState(q, g, l);
  }
  void MergeLocalStates(const Query& q, LocalState* mine,
                        const std::vector<LocalState>& received) const {
    ScopeTimer t(&Layers().merge_ns);
    P::MergeLocalStates(q, mine, received);
  }
  void MergeAnswer(Answer* acc, Answer&& local, const Query& q) const {
    ScopeTimer t(&Layers().merge_ns);
    P::MergeAnswer(acc, std::move(local), q);
  }
  void FinalizeAnswer(Answer* acc, const Query& q) const {
    ScopeTimer t(&Layers().merge_ns);
    P::FinalizeAnswer(acc, q);
  }
  template <typename Area>
  bool IsLinkRelevant(const Query& q, const GlobalState& g,
                      const Area& area) const {
    bool relevant;
    {
      ScopeTimer t(&Layers().relevance_ns);
      relevant = P::IsLinkRelevant(q, g, area);
    }
    Layers().links_tested += 1;
    if (!relevant) Layers().links_pruned += 1;
    return relevant;
  }
  template <typename Area>
  double LinkPriority(const Query& q, const Area& area) const {
    ScopeTimer t(&Layers().relevance_ns);
    return P::LinkPriority(q, area);
  }
  void EncodeQuery(const Query& q, ripple::wire::Buffer* buf) const {
    ScopeTimer t(&Layers().encode_ns);
    P::EncodeQuery(q, buf);
  }
  void EncodeState(const LocalState& s, ripple::wire::Buffer* buf) const {
    ScopeTimer t(&Layers().encode_ns);
    P::EncodeState(s, buf);
  }
  void EncodeAnswer(const Answer& a, ripple::wire::Buffer* buf) const {
    ScopeTimer t(&Layers().encode_ns);
    P::EncodeAnswer(a, buf);
  }
  bool DecodeQuery(ripple::wire::Reader* r, Query* out) const {
    ScopeTimer t(&Layers().decode_ns);
    return P::DecodeQuery(r, out);
  }
  bool DecodeState(ripple::wire::Reader* r, LocalState* out) const {
    ScopeTimer t(&Layers().decode_ns);
    return P::DecodeState(r, out);
  }
  bool DecodeAnswer(ripple::wire::Reader* r, Answer* out) const {
    ScopeTimer t(&Layers().decode_ns);
    return P::DecodeAnswer(r, out);
  }
};

/// Presents an engine built over TimedPolicy<P> with the interface the
/// seeded drivers expect of an engine over P: requests typed for P, and
/// policy() as the undecorated P (the drivers' own walk calls the policy
/// directly, and stays outside the policy timers).
template <typename Inner, typename P>
class TimedEngine {
 public:
  using Result = typename Inner::Result;

  explicit TimedEngine(const Inner* inner) : inner_(inner) {}

  const P& policy() const { return inner_->policy(); }
  ripple::obs::Tracer* tracer() const { return inner_->tracer(); }
  ripple::obs::JournalSet* journal() const { return inner_->journal(); }

  Result Run(const ripple::QueryRequest<P>& request) const {
    ripple::QueryRequest<TimedPolicy<P>> req;
    req.initiator = request.initiator;
    req.query = request.query;
    req.ripple = request.ripple;
    req.initial_state = request.initial_state;
    req.deadline = request.deadline;
    req.retry = request.retry;
    req.fault = request.fault;
    req.trace_id = request.trace_id;
    ScopeTimer t(&Layers().run_ns);
    return inner_->Run(req);
  }

 private:
  const Inner* inner_;
};

/// Forwards to another transport and times its Send. With `push`, the
/// inner transport's deliveries are relayed to this transport's receiver
/// (the AsyncEngine arrangement) and the time spent in that callback is
/// excluded from transport_ns; without it (the live client), Poll is
/// forwarded.
class TimedTransport : public ripple::net::Transport {
 public:
  TimedTransport(ripple::net::Transport* inner, bool push);

  void Send(const ripple::net::Envelope& env,
            std::vector<uint8_t> datagram) override;
  bool Poll(ripple::net::Datagram* out, int timeout_ms = 0) override;

 private:
  ripple::net::Transport* inner_;
  uint64_t callback_ns_ = 0;
};

}  // namespace rbench

#endif  // RIPPLEBENCH_LAYERS_H_
