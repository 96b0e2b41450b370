#ifndef RIPPLE_SIM_ASYNC_ENGINE_H_
#define RIPPLE_SIM_ASYNC_ENGINE_H_

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <functional>
#include <unordered_map>
#include <utility>
#include <vector>

#include "common/arena.h"
#include "common/check.h"
#include "common/kernel_counters.h"
#include "net/coverage.h"
#include "net/envelope.h"
#include "net/fault.h"
#include "net/metrics.h"
#include "net/traffic.h"
#include "net/transport.h"
#include "obs/journal.h"
#include "obs/metrics.h"
#include "obs/profile.h"
#include "obs/trace.h"
#include "overlay/types.h"
#include "ripple/api.h"
#include "ripple/peer_session.h"
#include "ripple/policy.h"
#include "ripple/retransmit.h"
#include "ripple/wire_codec.h"
#include "sim/event_sim.h"
#include "sim/fault_model.h"
#include "wire/buffer.h"
#include "wire/frame.h"

namespace ripple {

/// Per-message network delay: (from, to) -> time units. The default charges
/// one unit per hop, mirroring the hop-count analysis.
using LatencyModel = std::function<double(PeerId from, PeerId to)>;

inline LatencyModel UnitLatency() {
  return [](PeerId, PeerId) { return 1.0; };
}

/// Drives the per-peer RIPPLE procedure (ripple::PeerSession) over a
/// simulated network: query forwards, per-subtree state responses (fast
/// subtrees convergecast their bundles) and answer deliveries straight to
/// the initiator are explicit messages through a discrete-event scheduler,
/// each taking LatencyModel time on the wire.
///
/// Every message crosses a real serialization boundary: it is encoded
/// (ripple/wire_codec.h, docs/WIRE.md) and handed to the fire-and-forget
/// net::Transport; whatever the transport delivers back through the
/// engine's receiver is what gets decoded, so policy code at a peer runs on
/// exactly what came off the wire. The default LoopbackTransport validates
/// each datagram and delivers it synchronously (the wire takes zero
/// simulated time). A custom transport (SetTransport) may count, corrupt or
/// swallow datagrams, and arms the fault machinery so rejections and
/// losses degrade into retransmissions and coverage loss, never hangs.
///
/// Fault tolerance: when FaultOptions::AnyFault(), every transmission runs
/// through a deterministic FaultModel (loss, duplication, jitter, crashes)
/// and the protocol arms itself: messages carry ids, receivers dedup them,
/// requesters retransmit byte-identical frames with capped backoff
/// (net::Retransmitter on the simulator's TimerWheel), finished callees
/// replay their cached reply and running ones ack, and a spent retry
/// budget folds in what arrived and flags the result `complete = false`
/// with a Coverage report. On a perfect network none of this exists and
/// the cross-validation contract holds: the same answer, visited peers,
/// message count and bytes-on-wire as the recursive engine, with a
/// completion time that upper-bounds its forward-hop latency.
template <typename Overlay, typename Policy>
  requires QueryPolicy<Policy, typename Overlay::Area>
class AsyncEngine {
 public:
  using Area = typename Overlay::Area;
  using Query = typename Policy::Query;
  using LocalState = typename Policy::LocalState;
  using GlobalState = typename Policy::GlobalState;
  using Answer = typename Policy::Answer;
  using Request = QueryRequest<Policy>;
  using Result = QueryResult<Answer>;

  AsyncEngine(const Overlay* overlay, Policy policy,
              LatencyModel latency = UnitLatency())
      : overlay_(overlay),
        policy_(std::move(policy)),
        latency_(std::move(latency)) {}

  /// Attaches a tracer recording one span per session, stamped with
  /// simulator time. Same contract as Engine::SetTracer: nullptr disables,
  /// not owned, QueryStats are identical either way. Under faults, spans
  /// additionally carry per-session retry/timeout counts.
  void SetTracer(obs::Tracer* tracer) { tracer_ = tracer; }
  obs::Tracer* tracer() const { return tracer_; }

  /// Attaches a per-peer event journal (obs/journal.h): frame sends,
  /// receives, retransmissions, drops and crash-drops of head-sampled
  /// queries (request.trace_id != 0) go to the acting peer's log. With a
  /// tracer attached, Run() points it at the same journal so the offline
  /// assembler can rebuild the span tree. nullptr detaches; not owned.
  void SetJournal(obs::JournalSet* journal) { journal_ = journal; }
  obs::JournalSet* journal() const { return journal_; }

  /// Observer invoked for every peer that opens a session — same contract
  /// as Engine::SetVisitObserver. Pass nullptr to clear.
  void SetVisitObserver(std::function<void(PeerId)> observer) {
    visit_observer_ = std::move(observer);
  }

  /// Secondary slow-phase contact order on priority ties — same contract
  /// as Engine::SetLinkBias. nullptr clears.
  void SetLinkBias(LinkBias bias) { link_bias_ = std::move(bias); }

  /// Attaches a per-peer load profiler (same contract as
  /// Engine::SetProfiler; here it also sees retransmissions, acks and
  /// fan-out high-water marks). nullptr disables; not owned.
  void SetProfiler(obs::Profiler* profiler) { profiler_ = profiler; }
  obs::Profiler* profiler() const { return profiler_; }

  /// Replaces the default loopback transport (nullptr restores it; not
  /// owned). A custom transport is treated as an imperfect network: the
  /// fault machinery arms even under clean FaultOptions.
  void SetTransport(net::Transport* transport) { transport_ = transport; }
  net::Transport* transport() const {
    return transport_ != nullptr ? transport_ : &default_transport_;
  }
  /// The built-in loopback (its shipped-frame counters are handy in
  /// tests even when a custom transport is not installed).
  const net::LoopbackTransport& loopback() const { return default_transport_; }

  const Policy& policy() const { return policy_; }

  Result Run(const Request& request) const {
    // Fresh per-query scratch (kernel arena + work counters), mirroring
    // the recursive engine so both report identical kernel.* work.
    PerQueryArena().Reset();
    ResetKernelCounters();
    if (tracer_ != nullptr) {
      // Head sampling: the tracer follows the request's decision so
      // journal mirroring records exactly the sampled queries.
      tracer_->set_trace_id(request.trace_id);
      if (journal_ != nullptr) tracer_->SetJournal(journal_);
    }
    Runtime rt(this, &request);
    rt.Start();
    rt.sim.Run();
    Result result = rt.Finalize();
    obs::FlushKernelCounters();
    return result;
  }

 private:
  using Proc = PeerSession<Overlay, Policy>;

  /// The simulator's record of one activation: the procedure itself plus
  /// what the driver needs to respond and replay.
  struct Session {
    Proc proc;
    int64_t origin_req = -1;  // query-forward id that spawned us; -1: root
    uint32_t span = obs::kNoSpan;
    // Reply cache: the encoded response datagram (one frame per state), so
    // a retransmitted query is answered byte-identically without
    // re-execution; `parts` carries each frame's charged bytes and tuples.
    struct Part {
      size_t bytes = 0;
      uint64_t tuples = 0;
    };
    std::vector<uint8_t> response_frame;
    std::vector<Part> parts;
  };

  /// Who asked whom, per query-forward id. Outlives the retransmission
  /// entry: late and duplicate copies still need the route.
  struct Route {
    int requester;
    PeerId from;
    PeerId target;
    bool resolved = false;  // response consumed, or given up
    bool failed = false;    // given up
  };

  /// An answer delivery: the sender and what each attempt charges.
  struct AnswerMeta {
    PeerId from = kInvalidPeer;
    size_t tuples = 0;
    uint32_t span = obs::kNoSpan;
  };

  /// Answers ride a bounded-retry reliable channel whose acks are elided:
  /// the sender cannot observe a lost or rejected datagram, so each
  /// transmission arms a watchdog with constant patience (a cap equal to
  /// the initial timeout) and the same retry budget.
  static net::RetryOptions WatchdogOptions(net::RetryOptions r) {
    r.backoff = 1.0;
    r.timeout_cap = r.timeout;
    return r;
  }

  struct Runtime {
    Runtime(const AsyncEngine* engine, const Request* req)
        : self(engine),
          request(req),
          ft(req->fault.AnyFault() || engine->transport_ != nullptr),
          fault(req->fault, req->initiator),
          timers(&sim),
          codec(engine->overlay_, &engine->policy_),
          forwards(&timers, req->retry),
          answers(&timers, WatchdogOptions(req->retry)) {}

    const AsyncEngine* self;
    const Request* request;
    const bool ft;  // fault machinery armed
    FaultModel fault;
    EventSimulator sim;
    TimerWheel timers;
    WireCodec<Overlay, Policy> codec;
    net::WireTraffic traffic;
    std::vector<Session> sessions;
    std::vector<Route> routes;  // indexed by query-forward id
    // In flight: query forwards (meta: state tuples charged per attempt)
    // and answer deliveries.
    Retransmitter<TimerWheel, uint64_t> forwards;
    Retransmitter<TimerWheel, AnswerMeta> answers;
    uint64_t next_answer = 0;
    std::unordered_map<PeerId, net::DedupWindow> query_dedup;
    Result result;
    bool root_done = false;
    bool deadline_hit = false;
    double root_finish_time = 0;
    double last_answer_time = 0;

    const Policy& policy() const { return self->policy_; }
    const Overlay& overlay() const { return *self->overlay_; }
    obs::Profiler* profiler() const { return self->profiler_; }
    obs::Span* SpanOf(uint32_t span) const {
      return span == obs::kNoSpan ? nullptr : &self->tracer_->span(span);
    }

    /// The trace context a peer whose live span is `span` stamps into an
    /// outgoing frame: the query's trace id, the sender's span as the
    /// receiver's parent, and the initiator's head-sampling decision.
    wire::TraceContext TraceFor(uint32_t span) const {
      wire::TraceContext t;
      t.trace_id = request->trace_id;
      t.parent_span = span;
      if (request->trace_id != 0) t.flags = wire::kFrameFlagSampled;
      return t;
    }

    /// Appends one frame-level event to `peer`'s journal; head sampling
    /// gates every event.
    void JournalFrame(obs::JournalEventKind kind, PeerId peer,
                      const net::Envelope& env, uint64_t bytes) {
      if (request->trace_id == 0 || self->journal_ == nullptr) return;
      obs::JournalEvent e = obs::FrameEvent(kind, peer, sim.now(), env, bytes);
      e.trace_id = request->trace_id;
      self->journal_->Record(e);
    }

    /// Charges one sent message to stats, traffic and the profiler.
    void Charge(uint64_t* traffic_bytes, PeerId from, PeerId to,
                uint64_t tuples, uint64_t bytes) {
      result.stats.messages += 1;
      result.stats.tuples_shipped += tuples;
      result.stats.bytes_on_wire += bytes;
      *traffic_bytes += bytes;
      traffic.frames += 1;
      if (profiler() != nullptr) profiler()->OnMessage(from, to, tuples, bytes);
    }

    // --- entry / exit ----------------------------------------------------

    void Start() {
      // Every datagram the transport delivers lands in OnWireDeliver,
      // which applies the simulated network and schedules the decode.
      self->transport()->SetReceiver(
          [this](const net::Envelope& env, std::vector<uint8_t> bytes) {
            OnWireDeliver(env, std::move(bytes));
          });
      if (ft && std::isfinite(request->deadline)) {
        sim.Schedule(request->deadline, [this] { OnDeadline(); });
      }
      GlobalState initial =
          request->initial_state.has_value()
              ? *request->initial_state
              : policy().InitialGlobalState(request->query);
      // The root session received no frame: it copies the request's query.
      StartSession(request->initiator, request->query, std::move(initial),
                   overlay().FullArea(), request->ripple.hops(),
                   /*origin_req=*/-1, obs::kNoSpan);
    }

    Result Finalize() {
      self->transport()->SetReceiver(nullptr);
      if (!ft && !std::isfinite(request->deadline)) {
        RIPPLE_CHECK(std::all_of(sessions.begin(), sessions.end(),
                                 [](const Session& s) {
                                   return s.proc.finished();
                                 }) &&
                     "async run left dangling sessions");
      }
      policy().FinalizeAnswer(&result.answer, request->query);
      result.completion_time = std::max(root_finish_time, last_answer_time);
      if (deadline_hit) {
        result.completion_time = std::max(result.completion_time, sim.now());
      }
      result.complete = result.coverage.complete() && !deadline_hit;
      net::RecordCoverageMetrics(result.coverage);
      net::RecordTrafficMetrics(traffic);
      return std::move(result);
    }

    // --- wire ------------------------------------------------------------

    /// The transport delivered one datagram (possibly modified in flight).
    /// The simulated network (latency, fault draws) sits between here and
    /// the decode, exactly where the wire would be. The envelope id
    /// recovers the sender-side bookkeeping — transport metadata, like a
    /// UDP source address; the decode re-reads everything from the bytes.
    void OnWireDeliver(const net::Envelope& env, std::vector<uint8_t> bytes) {
      // Admin-plane kinds only exist on the live overlay.
      RIPPLE_CHECK(!net::IsAdminKind(env.kind));
      const net::MessageKind kind = env.kind;
      const int64_t id = static_cast<int64_t>(env.id);
      Transmit(env, [this, kind, id, datagram = std::move(bytes)] {
        switch (kind) {
          case net::MessageKind::kQuery: DeliverQuery(id, datagram); break;
          case net::MessageKind::kResponse:
            DeliverResponse(id, datagram);
            break;
          case net::MessageKind::kAck: DeliverAck(id, datagram); break;
          case net::MessageKind::kAnswer: DeliverAnswer(id, datagram); break;
          default: break;
        }
      });
    }

    /// Decodes a single-frame datagram of `kind` whose payload `payload`
    /// reads completely; a failure is rejected (RejectFrame) and dropped.
    template <typename Payload>
    bool DecodeFrame(const std::vector<uint8_t>& datagram,
                     net::MessageKind kind, net::Envelope* env,
                     Payload&& payload) {
      wire::Reader r(datagram);
      const wire::FrameError ferr = net::DecodeEnvelopeFrameEx(&r, env);
      if (ferr == wire::FrameError::kOk && env->kind == kind && payload(&r) &&
          r.ok() && r.remaining() == 0) {
        return true;
      }
      RejectFrame(ferr);
      return false;
    }

    /// A received datagram failed to decode. Corruption can only come from
    /// a custom transport, which arms `ft` — on a loopback wire a rejection
    /// is an engine bug. Truncation is counted apart from semantic
    /// rejections so the two failure families stay distinguishable.
    void RejectFrame(wire::FrameError err) {
      if (err == wire::FrameError::kTruncated) {
        traffic.frames_truncated += 1;
      } else {
        traffic.frames_rejected += 1;
      }
      RIPPLE_CHECK(ft && "frame rejected without fault machinery armed");
    }

    /// Schedules `deliver` at `to` after `delay`, dropping it if the
    /// receiver has crashed by then. Every receive path dedups, so a
    /// duplicated copy is harmless.
    void ScheduleDelivery(const net::Envelope& env, double delay,
                          std::function<void()> deliver) {
      sim.Schedule(delay, [this, env, deliver = std::move(deliver)] {
        if (ft && fault.CrashedAt(env.to, sim.now())) {
          result.coverage.crash_drops += 1;
          NoteCrashed(env.to);
          JournalFrame(obs::JournalEventKind::kCrash, env.to, env, 0);
          return;
        }
        deliver();
      });
    }

    /// One wire transmission, subject to loss / jitter / duplication (in
    /// that draw order). The sender already charged the message.
    void Transmit(const net::Envelope& env, std::function<void()> deliver) {
      const double base = self->latency_(env.from, env.to);
      if (!ft) {
        sim.Schedule(base, std::move(deliver));
        return;
      }
      if (fault.DropMessage()) {
        result.coverage.messages_lost += 1;
        JournalFrame(obs::JournalEventKind::kDrop, env.from, env, 0);
        return;
      }
      const double d = fault.Jitter(base);
      if (fault.DuplicateMessage()) {
        result.coverage.messages_duplicated += 1;
        ScheduleDelivery(env, fault.Jitter(base), deliver);
      }
      ScheduleDelivery(env, d, std::move(deliver));
    }

    static void NoteSorted(std::vector<PeerId>* v, PeerId peer) {
      auto it = std::lower_bound(v->begin(), v->end(), peer);
      if (it == v->end() || *it != peer) v->insert(it, peer);
    }
    void NoteCrashed(PeerId p) { NoteSorted(&result.coverage.crashed_peers, p); }
    void NoteUnreachable(PeerId p) {
      NoteSorted(&result.coverage.unreachable_peers, p);
    }

    // --- sessions: driving the PeerSession machine -----------------------

    /// Opens the procedure at `peer` on what was decoded there.
    /// `wire_parent_span` is the parent span carried by the query frame's
    /// header — trace parentage travels the wire (the root passes kNoSpan).
    void StartSession(PeerId peer, Query query, GlobalState state,
                      const Area& area, int r, int64_t origin_req,
                      uint32_t wire_parent_span) {
      const int id = static_cast<int>(sessions.size());
      sessions.push_back(
          Session{Proc(self->overlay_, &self->policy_), origin_req});
      result.stats.peers_visited += 1;
      if (self->visit_observer_) self->visit_observer_(peer);
      if (profiler() != nullptr) profiler()->OnSpan(peer);
      if (obs::Tracer* tracer = self->tracer_) {
        const uint32_t span = tracer->StartSpan(
            peer, wire_parent_span,
            r <= 0 ? obs::SpanKind::kFast : obs::SpanKind::kSlow, r,
            sim.now());
        tracer->span(span).tuples_in = policy().GlobalStateTupleCount(state);
        sessions[id].span = span;
      }
      Drive(id, peer, [&](Proc& p) {
        return p.Open(peer, std::move(query), std::move(state), area, r,
                      self->link_bias_);
      });
    }

    /// Feeds one input to session `id` at `peer` (its policy work timed
    /// against the peer), then carries out the resulting step.
    template <typename Input>
    void Drive(int id, PeerId peer, Input&& input) {
      typename Proc::Step step;
      {
        obs::ScopedTimer cpu(profiler(), peer);
        step = input(sessions[id].proc);
      }
      const Session& s = sessions[id];
      if (obs::Span* sp = SpanOf(s.span)) {
        sp->links_pruned += step.links_pruned;
        sp->links_forwarded += step.forwards.size();
      }
      if (profiler() != nullptr && !step.forwards.empty()) {
        // A fast fan-out has every forward outstanding at once.
        profiler()->OnQueueDepth(s.proc.peer(), step.forwards.size());
      }
      for (auto& f : step.forwards) {
        NewRequest(id, f.target, f.area, f.r);
      }
      if (step.finished) FinishSession(id, std::move(*step.finished));
    }

    /// A child (or fast subtree) responded with a bundle of local states.
    void OnResponse(int id, std::vector<LocalState> bundle) {
      if (obs::Span* sp = SpanOf(sessions[id].span);
          sp != nullptr && !sessions[id].proc.fast()) {
        sp->states_merged += bundle.size();
      }
      Drive(id, sessions[id].proc.peer(),
            [&](Proc& p) { return p.OnChildStates(std::move(bundle)); });
    }

    /// Ships the local answer to the initiator and reports the states to
    /// the parent. In the protocol fast-phase peers address their states to
    /// the nearest slow ancestor (Alg. 3 keeps forwarding u through the
    /// fast phase), so state messages are charged once, at the slow session
    /// consuming them; the convergecast through fast sessions only detects
    /// completion.
    void FinishSession(int id, typename Proc::Finished done) {
      const size_t tuples = policy().AnswerTupleCount(done.answer);
      if (tuples > 0) {
        SendAnswer(sessions[id].proc.peer(), std::move(done.answer), tuples,
                   sessions[id].span);
      }
      Session& s = sessions[id];
      if (obs::Span* sp = SpanOf(s.span)) {
        sp->state_tuples = policy().StateTupleCount(done.states.back());
        sp->answer_tuples = tuples;
        self->tracer_->EndSpan(s.span, sim.now());
      }
      if (s.origin_req < 0) {
        root_done = true;
        root_finish_time = sim.now();
        MaybeStop();
        return;
      }
      const net::Envelope env = ResponseEnvelope(id);
      wire::Buffer buf;
      for (const LocalState& st : done.states) {
        const size_t bytes = codec.EncodeResponseFrame(env, st, &buf);
        s.parts.push_back({bytes, policy().StateTupleCount(st)});
      }
      s.response_frame = buf.Take();
      SendResponse(id, /*retransmit=*/false);
    }

    // --- query forwards --------------------------------------------------

    /// Issues a new query forward from session `requester` with its
    /// current global state, snapshotting the encoded frame.
    void NewRequest(int requester, PeerId target, const Area& area, int r) {
      const Session& s = sessions[requester];
      const uint64_t id = routes.size();
      routes.push_back(Route{requester, s.proc.peer(), target});
      const net::Envelope env{id, s.proc.peer(), target,
                              net::MessageKind::kQuery, 0, TraceFor(s.span)};
      wire::Buffer buf;
      codec.EncodeQueryMessage(env, s.proc.query(), s.proc.global(), area, r,
                               &buf);
      forwards.Add(id, policy().GlobalStateTupleCount(s.proc.global()),
                   buf.Take());
      TransmitQuery(id);
    }

    void TransmitQuery(uint64_t id) {
      const Route& rt = routes[id];
      Ship(forwards, {id, rt.from, rt.target, net::MessageKind::kQuery, 0,
                      TraceFor(sessions[rt.requester].span)},
           forwards.Find(id)->meta, &traffic.bytes_query,
           [this, id] { OnTimeout(id); });
    }

    /// One (re)transmission of the in-flight message `env.id` of
    /// `channel`: charged at the sender like any message, journaled, and —
    /// on an imperfect network — covered by the channel's timer.
    template <typename Channel, typename OnFire>
    void Ship(Channel& channel, net::Envelope env, uint64_t tuples,
              uint64_t* traffic_bytes, OnFire on_timeout) {
      auto& e = *channel.Find(env.id);
      std::vector<uint8_t> bytes = channel.NextCopy(e);
      env.attempt = e.attempt;
      Charge(traffic_bytes, env.from, env.to, tuples, bytes.size());
      if (profiler() != nullptr && e.attempt > 1) {
        profiler()->OnRetransmission(env.from);
      }
      JournalFrame(e.attempt > 1 ? obs::JournalEventKind::kRetransmit
                                 : obs::JournalEventKind::kFrameSend,
                   env.from, env, bytes.size());
      self->transport()->Send(env, std::move(bytes));
      if (ft) channel.Arm(env.id, std::move(on_timeout));
    }

    void DeliverQuery(int64_t id, const std::vector<uint8_t>& datagram) {
      const Route rt = routes[id];
      if (ft) {
        if (const int64_t* session =
                DedupOf(rt.target).Lookup(static_cast<uint64_t>(id))) {
          // A retransmission or duplicate: replay the cached reply, or ack
          // that the session is still running.
          result.coverage.duplicates_suppressed += 1;
          const int s = static_cast<int>(*session);
          if (sessions[s].proc.finished()) {
            SendResponse(s, /*retransmit=*/true);
          } else {
            SendAck(id, s);
          }
          return;
        }
      }
      net::Envelope env;
      Query q{};
      GlobalState g{};
      Area area{};
      int64_t hops = 0;
      // A rejected query stays out of the dedup window, so the requester's
      // (possibly clean) retransmission is not suppressed.
      if (!DecodeFrame(datagram, net::MessageKind::kQuery, &env,
                       [&](wire::Reader* r) {
                         return codec.DecodeQueryPayload(r, &q, &g, &area,
                                                         &hops);
                       })) {
        return;
      }
      JournalFrame(obs::JournalEventKind::kFrameRecv, rt.target, env,
                   datagram.size());
      if (ft) {
        DedupOf(rt.target).Insert(static_cast<uint64_t>(id),
                                  static_cast<int64_t>(sessions.size()));
      }
      StartSession(rt.target, std::move(q), std::move(g), area,
                   static_cast<int>(hops), id, env.trace.parent_span);
    }

    void OnTimeout(uint64_t id) {
      auto* e = forwards.Find(id);
      if (e == nullptr) return;
      const Route& rt = routes[id];
      // A crashed requester stops timing out; its own parent handles it.
      if (fault.CrashedAt(rt.from, sim.now())) return;
      result.coverage.timeouts += 1;
      obs::Span* sp = SpanOf(sessions[rt.requester].span);
      if (sp != nullptr) sp->timeouts += 1;
      if (!forwards.Strike(*e)) {
        GiveUp(id);
        return;
      }
      result.coverage.retries += 1;
      if (sp != nullptr) sp->retries += 1;
      TransmitQuery(id);
    }

    /// The retry budget for this link is spent: degrade gracefully.
    void GiveUp(uint64_t id) {
      Route& rt = routes[id];
      rt.resolved = rt.failed = true;
      forwards.Resolve(id);
      result.coverage.links_unresolved += 1;
      NoteUnreachable(rt.target);
      if (fault.CrashedAt(rt.target, sim.now())) NoteCrashed(rt.target);
      const int requester = rt.requester;
      Drive(requester, sessions[requester].proc.peer(),
            [](Proc& p) { return p.OnChildFailed(); });
    }

    /// Progress ack for a request whose session `session_id` still runs
    /// (a bare header-only frame, charged like any other message).
    void SendAck(int64_t id, int session_id) {
      const Route& rt = routes[id];
      result.coverage.acks += 1;
      const net::Envelope env{static_cast<uint64_t>(id), rt.target, rt.from,
                              net::MessageKind::kAck, 0,
                              TraceFor(sessions[session_id].span)};
      wire::Buffer buf;
      const size_t bytes = codec.EncodeAckMessage(env, &buf);
      Charge(&traffic.bytes_ack, rt.target, rt.from, 0, bytes);
      JournalFrame(obs::JournalEventKind::kFrameSend, rt.target, env, bytes);
      self->transport()->Send(env, buf.Take());
    }

    /// A progress ack restores the requester's patience. A corrupted one
    /// is silently dropped: the next timeout re-asks anyway.
    void DeliverAck(int64_t id, const std::vector<uint8_t>& datagram) {
      net::Envelope ack;
      if (!DecodeFrame(datagram, net::MessageKind::kAck, &ack,
                       [](wire::Reader*) { return true; })) {
        return;
      }
      JournalFrame(obs::JournalEventKind::kFrameRecv, routes[id].from, ack,
                   datagram.size());
      if (auto* e = forwards.Find(id)) forwards.Ack(*e);
    }

    // --- responses --------------------------------------------------------

    net::Envelope ResponseEnvelope(int id) const {
      const Session& s = sessions[id];
      return net::Envelope{static_cast<uint64_t>(s.origin_req), s.proc.peer(),
                           routes[s.origin_req].from,
                           net::MessageKind::kResponse, 0, TraceFor(s.span)};
    }

    /// Ships session `id`'s reply-cache datagram to its requester. Charged
    /// one message per state frame, and only at slow requesters (see
    /// FinishSession): a fast requester's convergecast bundle crosses the
    /// transport uncharged. Retransmissions are charged again.
    void SendResponse(int id, bool retransmit) {
      const Session& s = sessions[id];
      const Session& parent = sessions[routes[s.origin_req].requester];
      if (!parent.proc.fast()) {
        for (const auto& part : s.parts) {
          Charge(&traffic.bytes_response, s.proc.peer(), parent.proc.peer(),
                 part.tuples, part.bytes);
        }
      }
      if (retransmit) {
        result.coverage.retries += 1;
        if (profiler() != nullptr) profiler()->OnRetransmission(s.proc.peer());
      }
      const net::Envelope env = ResponseEnvelope(id);
      JournalFrame(retransmit ? obs::JournalEventKind::kRetransmit
                              : obs::JournalEventKind::kFrameSend,
                   s.proc.peer(), env, s.response_frame.size());
      self->transport()->Send(env, std::vector<uint8_t>(s.response_frame));
    }

    void DeliverResponse(int64_t req_id, const std::vector<uint8_t>& datagram) {
      if (req_id < 0) return;
      Route& rt = routes[req_id];
      if (rt.resolved) {
        // A duplicate of a consumed response, or one arriving after the
        // requester gave up on the link.
        if (rt.failed) {
          result.coverage.late_responses += 1;
        } else {
          result.coverage.duplicates_suppressed += 1;
        }
        return;
      }
      typename WireCodec<Overlay, Policy>::Reply reply;
      if (!codec.DecodeReply(datagram, static_cast<uint64_t>(req_id),
                             /*allow_partial=*/false, &reply)) {
        // Dropped: the requester times out and retransmits, and the
        // finished callee replays its cached response bytes.
        RejectFrame(reply.error);
        return;
      }
      const wire::FrameHeader& h = reply.first;
      JournalFrame(obs::JournalEventKind::kFrameRecv, rt.from,
                   net::Envelope{h.id, h.from, h.to,
                                 net::MessageKind::kResponse, 0, h.trace},
                   datagram.size());
      rt.resolved = true;
      forwards.Resolve(static_cast<uint64_t>(req_id));
      OnResponse(rt.requester, std::move(reply.states));
    }

    // --- answers ----------------------------------------------------------

    void SendAnswer(PeerId from, Answer&& payload, size_t tuples,
                    uint32_t span) {
      const uint64_t id = next_answer++;
      const net::Envelope env{id, from, request->initiator,
                              net::MessageKind::kAnswer, 0, TraceFor(span)};
      wire::Buffer buf;
      codec.EncodeAnswerMessage(env, payload, &buf);
      answers.Add(id, AnswerMeta{from, tuples, span}, buf.Take());
      TransmitAnswer(id);
    }

    void TransmitAnswer(uint64_t id) {
      // Delivery cancels the watchdog; loss, swallowing or a rejection at
      // the initiator lets it fire.
      const AnswerMeta& a = answers.Find(id)->meta;
      Ship(answers, {id, a.from, request->initiator, net::MessageKind::kAnswer,
                     0, TraceFor(a.span)},
           a.tuples, &traffic.bytes_answer, [this, id] { OnAnswerTimeout(id); });
    }

    /// The watchdog fired with no delivery: retransmit, or spend the
    /// budget and record the loss.
    void OnAnswerTimeout(uint64_t id) {
      auto* a = answers.Find(id);
      if (a == nullptr) return;
      if (!answers.Strike(*a)) {
        result.coverage.answers_lost += 1;
        SettleAnswer(id);
        return;
      }
      result.coverage.retries += 1;
      if (fault.CrashedAt(a->meta.from, sim.now())) {
        // The sender died holding the only copy.
        result.coverage.answers_lost += 1;
        SettleAnswer(id);
        return;
      }
      TransmitAnswer(id);
    }

    void DeliverAnswer(int64_t id, const std::vector<uint8_t>& datagram) {
      if (answers.Find(static_cast<uint64_t>(id)) == nullptr) {
        result.coverage.duplicates_suppressed += 1;
        return;
      }
      net::Envelope env;
      Answer payload{};
      // On a rejection the elided nack becomes a watchdog retransmission.
      if (!DecodeFrame(datagram, net::MessageKind::kAnswer, &env,
                       [&](wire::Reader* r) {
                         return codec.DecodeAnswerPayload(r, &payload);
                       })) {
        return;
      }
      JournalFrame(obs::JournalEventKind::kFrameRecv, request->initiator,
                   env, datagram.size());
      policy().MergeAnswer(&result.answer, std::move(payload),
                           request->query);
      last_answer_time = std::max(last_answer_time, sim.now());
      SettleAnswer(static_cast<uint64_t>(id));
    }

    void SettleAnswer(uint64_t id) {
      answers.Resolve(id);
      MaybeStop();
    }

    // --- termination ------------------------------------------------------

    /// Once the root session closed and every answer settled the query is
    /// over; surviving events are lapsed timers and convergecast
    /// bookkeeping of abandoned subtrees.
    void MaybeStop() {
      if (root_done && answers.size() == 0) sim.Stop();
    }

    /// The deadline fired first: every pending forward is declared
    /// unresolved and the initiator returns what it folded so far.
    void OnDeadline() {
      if (root_done && answers.size() == 0) return;
      deadline_hit = true;
      for (Route& rt : routes) {
        if (rt.resolved) continue;
        rt.resolved = rt.failed = true;
        result.coverage.links_unresolved += 1;
        NoteUnreachable(rt.target);
      }
      sim.Stop();
    }

    net::DedupWindow& DedupOf(PeerId peer) {
      return query_dedup.try_emplace(peer, request->retry.dedup_window)
          .first->second;
    }
  };

  const Overlay* overlay_;
  Policy policy_;
  LatencyModel latency_;
  std::function<void(PeerId)> visit_observer_;
  LinkBias link_bias_;
  obs::Tracer* tracer_ = nullptr;
  obs::JournalSet* journal_ = nullptr;
  obs::Profiler* profiler_ = nullptr;
  net::Transport* transport_ = nullptr;
  mutable net::LoopbackTransport default_transport_;
};

}  // namespace ripple

#endif  // RIPPLE_SIM_ASYNC_ENGINE_H_
