#ifndef RIPPLE_NET_DAEMON_H_
#define RIPPLE_NET_DAEMON_H_

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cstdint>
#include <functional>
#include <tuple>
#include <unordered_set>
#include <utility>
#include <vector>

#include "common/log.h"
#include "net/admin.h"
#include "net/envelope.h"
#include "net/fault.h"
#include "net/peers.h"
#include "net/protocol.h"
#include "net/transport.h"
#include "net/wall_clock.h"
#include "obs/journal.h"
#include "obs/profile.h"
#include "ripple/peer_session.h"
#include "ripple/retransmit.h"
#include "ripple/wire_codec.h"

namespace ripple::net {

/// One process of the live overlay: serves the rank-query protocol for
/// the peers assigned to it, over a Transport (UDP in production, any
/// Transport in tests). The daemon drives the same per-peer procedure as
/// the simulator (ripple::PeerSession) through the same WireCodec; what it
/// adds is the live side: real datagrams, WallTimers, all four policies
/// served at once (live query frames carry a PolicyTag byte that selects
/// the policy's shard; docs/NET.md), and answer delivery by convergecast.
///
/// Reliability is requester-driven, exactly like the simulator's fault
/// protocol: child requests retransmit with capped backoff through the
/// shared net::Retransmitter until a response arrives or the retry budget
/// is spent; a callee acks queries whose session is still running and
/// replays the cached reply datagram for finished ones (dedup by message
/// id). Answers convergecast up the query tree inside reply datagrams —
/// each session merges its children's partial answers with its own local
/// answer — so the peer serving the client folds the complete answer and
/// ships it back in one datagram; the client's own retransmissions cover
/// its loss. Every policy's FinalizeAnswer canonicalizes order, which is
/// what makes the tree-merge byte-identical to the simulator's flat merge.
///
/// Single-threaded: one thread owns the daemon and pumps ServeLoop (or
/// ServeOnce / Dispatch in tests).
template <typename Overlay>
class PeerDaemon {
 public:
  /// `local_peers`: the overlay ids this process serves (from
  /// PeersFile::PeersAt on its endpoint). `retry` is interpreted in
  /// milliseconds (the simulator reads the same struct in hops).
  PeerDaemon(const Overlay* overlay, Transport* transport,
             std::vector<PeerId> local_peers, RetryOptions retry = {})
      : overlay_(overlay),
        transport_(transport),
        retry_(retry),
        dedup_(retry.dedup_window),
        local_peers_(local_peers.begin(), local_peers.end()),
        start_(std::chrono::steady_clock::now()) {}

  void SetJournal(obs::JournalSet* journal) { journal_ = journal; }
  void SetProfiler(obs::Profiler* profiler) { profiler_ = profiler; }

  /// Mirrors the daemon's counters into `registry` (SyncRegistry / admin
  /// snapshot requests drive the sync), so `serve --metrics-out` and
  /// windowed snapshots carry net.daemon.* / net.udp.* live.
  void SetRegistry(obs::Registry* registry) { registry_ = registry; }

  /// Pull hook for the transport's datagram counters (the daemon only
  /// knows the abstract Transport; `serve` passes a lambda reading its
  /// UdpSocketTransport). Feeds stats replies and the registry bridge.
  void SetTransportCounters(std::function<TransportCounters()> fn) {
    transport_counters_ = std::move(fn);
  }

  const DaemonStats& stats() const { return stats_; }
  WallTimers& timers() { return timers_; }

  double UptimeMs() const { return NowMs(); }

  /// Instantaneous queue/wheel depths (the kAdminStats "right now" half).
  QueueDepths Depths() const {
    QueueDepths q;
    q.open_sessions = open_sessions_;
    q.sessions_total = std::apply(
        [](const auto&... shard) { return (shard.sessions.size() + ...); },
        shards_);
    q.pending_requests = pending_.size();
    q.timers_pending = timers_.pending();
    q.dedup_tracked = dedup_.size();
    return q;
  }

  /// The full counter scrape: what a kAdminStats reply carries and what
  /// `serve --stats-out` writes at shutdown (same fields, same names).
  AdminStatsReport StatsReport() const {
    AdminStatsReport rep;
    rep.uptime_ms = static_cast<uint64_t>(NowMs());
    rep.peer_lo = *std::min_element(local_peers_.begin(), local_peers_.end());
    rep.peer_hi = *std::max_element(local_peers_.begin(), local_peers_.end());
    rep.stats = stats_;
    if (transport_counters_) rep.transport = transport_counters_();
    rep.queues = Depths();
    return rep;
  }

  /// Pushes current counters/depths into the registry (no-op without
  /// SetRegistry). Callers: admin snapshot requests, serve's periodic
  /// snapshot capture, and the shutdown --metrics-out flush.
  void SyncRegistry() {
    if (registry_ == nullptr) return;
    StatsBridge bridge(registry_);
    bridge.SyncStats(stats_);
    if (transport_counters_) bridge.SyncTransport(transport_counters_());
    bridge.SyncQueues(Depths(), NowMs());
  }

  /// One pump iteration: run due timers, wait up to `max_wait_ms` for a
  /// datagram (bounded by the next timer), dispatch everything readable.
  /// Returns the number of datagrams handled.
  int ServeOnce(int max_wait_ms) {
    timers_.RunDue();
    int wait = timers_.NextDelayMs();
    if (wait < 0 || wait > max_wait_ms) wait = max_wait_ms;
    int handled = 0;
    Datagram d;
    while (transport_->Poll(&d, handled == 0 ? wait : 0)) {
      Dispatch(std::move(d));
      handled += 1;
    }
    timers_.RunDue();
    return handled;
  }

  /// Serves until `*stop` turns true (a signal handler's flag).
  void ServeLoop(const std::atomic<bool>& stop, int tick_ms = 50) {
    while (!stop.load(std::memory_order_relaxed)) ServeOnce(tick_ms);
  }

  /// Protocol entry point, public so tests can inject datagrams (with
  /// reordering, duplication, truncation) without a socket.
  void Dispatch(Datagram d) {
    switch (d.env.kind) {
      case MessageKind::kQuery: HandleQuery(d); break;
      case MessageKind::kResponse: HandleResponse(d); break;
      case MessageKind::kAck: HandleAck(d); break;
      case MessageKind::kAnswer:
        // Bare answers address clients; a daemon receiving one saw a
        // misrouted or stale datagram.
        stats_.misdelivered += 1;
        break;
      case MessageKind::kAdminPing:
      case MessageKind::kAdminStats:
      case MessageKind::kAdminSnapshot:
      case MessageKind::kAdminHealth:
        HandleAdmin(d);
        break;
    }
  }

 private:
  using Clock = std::chrono::steady_clock;

  /// One session of the procedure plus what the daemon adds around it:
  /// the requester to reply to, the convergecast answer accumulator and,
  /// once finished, the encoded reply datagram kept as the reply cache.
  template <typename Policy>
  struct NetSession {
    PeerSession<Overlay, Policy> proc;
    PeerId requester = kInvalidPeer;  // parent peer, or a client id
    uint64_t origin_req = 0;          // the request id this session answers
    // Own local answer merged with every child's partial answer.
    typename Policy::Answer answer_acc{};
    std::vector<uint8_t> reply_frame;
  };

  template <typename P>
  struct Shard {
    using Policy = P;
    static constexpr PolicyTag kTag = PolicyTagOf<P>::value;
    P policy;
    std::vector<NetSession<P>> sessions;
  };
  using Shards = std::tuple<Shard<TopKPolicy>, Shard<SkylinePolicy>,
                            Shard<SkybandPolicy>, Shard<RangePolicy>>;

  /// Calls `fn` with the shard serving `tag` (the tag -> shard dispatch).
  template <size_t I = 0, typename Fn>
  void WithShard(PolicyTag tag, Fn&& fn) {
    if constexpr (I < std::tuple_size_v<Shards>) {
      auto& shard = std::get<I>(shards_);
      if (shard.kTag == tag) {
        fn(shard);
      } else {
        WithShard<I + 1>(tag, std::forward<Fn>(fn));
      }
    }
  }

  template <typename Policy>
  WireCodec<Overlay, Policy> CodecOf(const Shard<Policy>& shard) const {
    return WireCodec<Overlay, Policy>(overlay_, &shard.policy);
  }

  /// A child query forward awaiting its response (the retransmitter's
  /// per-entry bookkeeping): which shard's session waits, for which link.
  struct ChildRequest {
    PolicyTag tag = PolicyTag::kTopK;
    int session = -1;  // requester session slot in the tag's shard
    PeerId from = kInvalidPeer;
    PeerId target = kInvalidPeer;
  };

  double NowMs() const {
    return std::chrono::duration<double, std::milli>(Clock::now() - start_)
        .count();
  }

  void JournalFrame(obs::JournalEventKind kind, PeerId peer,
                    const Envelope& env, uint64_t bytes) {
    if (journal_ != nullptr) {
      journal_->Record(obs::FrameEvent(kind, peer, NowMs(), env, bytes));
    }
  }

  // --- admin plane --------------------------------------------------------

  /// Answers one monitoring probe. Requests are empty-payload frames; any
  /// payload bytes mean a corrupt or foreign frame, counted and dropped
  /// exactly like an undecodable query. The reply reuses the request's
  /// kind and id (the monitor correlates by id, like the query protocol)
  /// and flows through the normal Send path. No dedup: admin reads are
  /// idempotent, so answering a duplicated probe twice is harmless.
  /// Admin traffic stays out of the journals — they record the query
  /// protocol, and trace assembly must not see recv events whose send
  /// side lives in another process's (unjournaled) monitor.
  void HandleAdmin(const Datagram& d) {
    if (local_peers_.find(d.env.to) == local_peers_.end()) {
      stats_.misdelivered += 1;
      return;
    }
    wire::Reader r(d.bytes);
    Envelope env;
    if (!DecodeEnvelopeFrame(&r, &env) || r.remaining() != 0) {
      stats_.frames_rejected += 1;
      return;
    }
    stats_.admin_requests += 1;
    const Envelope reply{env.id, env.to, env.from, env.kind, 0, env.trace};
    wire::Buffer buf;
    const size_t start = BeginEnvelopeFrame(reply, &buf);
    switch (env.kind) {
      case MessageKind::kAdminPing: {
        AdminPong pong;
        pong.uptime_ms = static_cast<uint64_t>(NowMs());
        pong.peers_served = local_peers_.size();
        EncodeAdminPong(pong, &buf);
        break;
      }
      case MessageKind::kAdminStats:
        EncodeStatsReport(StatsReport(), &buf);
        break;
      case MessageKind::kAdminSnapshot: {
        obs::Snapshot snap;
        snap.at_ms = NowMs();
        if (registry_ != nullptr) {
          SyncRegistry();
          snap.counters = registry_->CounterValues();
          snap.gauges = registry_->GaugeValues();
        }
        EncodeSnapshot(snap, &buf);
        break;
      }
      case MessageKind::kAdminHealth: {
        AdminHealthReport h;
        h.healthy = true;  // it answered; the monitor marks silence
        h.uptime_ms = static_cast<uint64_t>(NowMs());
        h.open_sessions = open_sessions_;
        h.pending_requests = pending_.size();
        h.queries_served = stats_.queries_served;
        EncodeHealthReport(h, &buf);
        break;
      }
      default:
        return;  // unreachable: Dispatch only routes admin kinds here
    }
    wire::EndFrame(&buf, start);
    transport_->Send(reply, buf.Take());
  }

  // --- incoming queries --------------------------------------------------

  void HandleQuery(const Datagram& d) {
    if (local_peers_.find(d.env.to) == local_peers_.end()) {
      stats_.misdelivered += 1;
      return;
    }
    if (const int64_t* slot = dedup_.Lookup(d.env.id)) {
      // Retransmission or network duplicate: replay the cached reply of a
      // finished session, or ack that the session is still running.
      stats_.duplicates_suppressed += 1;
      const int sid = static_cast<int>(*slot >> 8);
      WithShard(static_cast<PolicyTag>(*slot & 0xff),
                [&](auto& shard) { ReplyOrAck(shard, sid, d.env); });
      return;
    }
    wire::Reader r(d.bytes);
    Envelope env;
    if (!DecodeEnvelopeFrame(&r, &env)) {
      stats_.frames_rejected += 1;
      return;
    }
    const uint8_t raw_tag = r.U8();
    if (!r.ok() || !ValidPolicyTag(raw_tag)) {
      stats_.frames_rejected += 1;
      return;
    }
    WithShard(static_cast<PolicyTag>(raw_tag), [&](auto& shard) {
      OpenSession(shard, env, &r, d.bytes.size());
    });
  }

  template <typename Policy>
  void ReplyOrAck(Shard<Policy>& shard, int sid, const Envelope& env) {
    const NetSession<Policy>& s = shard.sessions[sid];
    if (s.proc.finished()) {
      SendReply(shard, sid, /*retransmit=*/true);
      return;
    }
    stats_.acks_sent += 1;
    const Envelope ack{env.id, s.proc.peer(), s.requester, MessageKind::kAck,
                       0, env.trace};
    wire::Buffer buf;
    CodecOf(shard).EncodeAckMessage(ack, &buf);
    JournalFrame(obs::JournalEventKind::kFrameSend, ack.from, ack, buf.size());
    transport_->Send(ack, buf.Take());
  }

  template <typename Policy>
  void OpenSession(Shard<Policy>& shard, const Envelope& env, wire::Reader* r,
                   uint64_t wire_bytes) {
    typename Policy::Query q{};
    typename Policy::GlobalState g{};
    typename Overlay::Area area{};
    int64_t hops = 0;
    if (!CodecOf(shard).DecodeQueryPayload(r, &q, &g, &area, &hops) ||
        !r->ok() || r->remaining() != 0) {
      // Dropped without entering the dedup window: the requester's
      // retransmission (possibly clean this time) must not be suppressed.
      stats_.frames_rejected += 1;
      return;
    }
    JournalFrame(obs::JournalEventKind::kFrameRecv, env.to, env, wire_bytes);
    const int sid = static_cast<int>(shard.sessions.size());
    shard.sessions.push_back(NetSession<Policy>{
        PeerSession<Overlay, Policy>(overlay_, &shard.policy), env.from,
        env.id});
    dedup_.Insert(env.id, (static_cast<int64_t>(sid) << 8) |
                              static_cast<int64_t>(shard.kTag));
    stats_.queries_served += 1;
    open_sessions_ += 1;
    if (profiler_ != nullptr) profiler_->OnSpan(env.to);
    Drive(shard, sid, [&](auto& proc) {
      return proc.Open(env.to, std::move(q), std::move(g), area,
                       static_cast<int>(hops));
    });
  }

  /// Feeds one input to a session and carries out the resulting step.
  template <typename Policy, typename Input>
  void Drive(Shard<Policy>& shard, int sid, Input&& input) {
    auto step = input(shard.sessions[sid].proc);
    for (auto& f : step.forwards) NewRequest(shard, sid, f.target, f.area, f.r);
    if (step.finished) FinishSession(shard, sid, std::move(*step.finished));
  }

  /// Report upward: merge the local answer into the convergecast
  /// accumulator, encode the reply datagram (the reply cache), send.
  template <typename Policy>
  void FinishSession(
      Shard<Policy>& shard, int sid,
      typename PeerSession<Overlay, Policy>::Finished done) {
    NetSession<Policy>& s = shard.sessions[sid];
    open_sessions_ -= 1;
    const auto& query = s.proc.query();
    shard.policy.MergeAnswer(&s.answer_acc, std::move(done.answer), query);
    const auto codec = CodecOf(shard);
    const Envelope aenv{s.origin_req, s.proc.peer(), s.requester,
                        MessageKind::kAnswer, 0, {}};
    wire::Buffer buf;
    if (IsClientId(s.requester)) {
      // This session is the query's root: the accumulator now holds the
      // whole tree's answer. Finalize and ship it alone.
      shard.policy.FinalizeAnswer(&s.answer_acc, query);
      stats_.answers_finalized += 1;
      codec.EncodeAnswerMessage(aenv, s.answer_acc, &buf);
    } else {
      // Interior node: states for the parent's merge, then the partial
      // answer, all under the parent's request id in one datagram.
      Envelope renv = aenv;
      renv.kind = MessageKind::kResponse;
      for (const auto& st : done.states) {
        codec.EncodeResponseFrame(renv, st, &buf);
      }
      if (shard.policy.AnswerTupleCount(s.answer_acc) > 0) {
        codec.EncodeAnswerMessage(aenv, s.answer_acc, &buf);
      }
    }
    s.reply_frame = buf.Take();
    s.answer_acc = {};
    SendReply(shard, sid, /*retransmit=*/false);
  }

  template <typename Policy>
  void SendReply(Shard<Policy>& shard, int sid, bool retransmit) {
    const NetSession<Policy>& s = shard.sessions[sid];
    const PeerId peer = s.proc.peer();
    const MessageKind kind = IsClientId(s.requester) ? MessageKind::kAnswer
                                                     : MessageKind::kResponse;
    const Envelope env{s.origin_req, peer, s.requester, kind,
                       retransmit ? 1 : 0, {}};
    if (retransmit) {
      stats_.retransmissions += 1;
      if (profiler_ != nullptr) profiler_->OnRetransmission(peer);
    } else {
      stats_.replies_sent += 1;
    }
    if (profiler_ != nullptr) {
      // Clients are not overlay peers: their synthetic ids must never
      // index the profiler's dense per-peer vector.
      if (IsClientId(s.requester)) {
        profiler_->OnMessageOut(peer, 0, s.reply_frame.size());
      } else {
        profiler_->OnMessage(peer, s.requester, 0, s.reply_frame.size());
      }
    }
    JournalFrame(retransmit ? obs::JournalEventKind::kRetransmit
                            : obs::JournalEventKind::kFrameSend,
                 peer, env, s.reply_frame.size());
    transport_->Send(env, std::vector<uint8_t>(s.reply_frame));
  }

  // --- child requests ----------------------------------------------------

  /// Forwards the query with session `sid`'s current global state. The
  /// live frame carries the policy tag before the codec's payload.
  template <typename Policy>
  void NewRequest(Shard<Policy>& shard, int sid, PeerId target,
                  const typename Overlay::Area& area, int r) {
    const auto& proc = shard.sessions[sid].proc;
    const uint64_t id = MakeMessageId(proc.peer(), next_seq_++);
    const Envelope env{id, proc.peer(), target, MessageKind::kQuery, 0, {}};
    wire::Buffer buf;
    const size_t start = BeginEnvelopeFrame(env, &buf);
    buf.PutU8(static_cast<uint8_t>(shard.kTag));
    buf.PutZigzag(r);
    shard.policy.EncodeQuery(proc.query(), &buf);
    shard.policy.EncodeState(proc.global(), &buf);
    overlay_->EncodeArea(area, &buf);
    wire::EndFrame(&buf, start);
    pending_.Add(id, ChildRequest{shard.kTag, sid, proc.peer(), target},
                 buf.Take());
    stats_.child_requests += 1;
    TransmitRequest(id);
  }

  void TransmitRequest(uint64_t id) {
    auto& p = *pending_.Find(id);
    const ChildRequest c = p.meta;
    // The journal's attempt is the strike count, which an ack resets.
    const Envelope env{id, c.from, c.target, MessageKind::kQuery, p.strikes,
                       {}};
    if (profiler_ != nullptr) {
      profiler_->OnMessage(c.from, c.target, 0, p.frame.size());
      if (p.strikes > 0) profiler_->OnRetransmission(c.from);
    }
    JournalFrame(p.strikes > 0 ? obs::JournalEventKind::kRetransmit
                               : obs::JournalEventKind::kFrameSend,
                 c.from, env, p.frame.size());
    transport_->Send(env, pending_.NextCopy(p));
    pending_.Arm(id, [this, id] { OnRequestTimeout(id); });
  }

  void OnRequestTimeout(uint64_t id) {
    auto* p = pending_.Find(id);
    if (p == nullptr) return;
    if (pending_.Strike(*p)) {
      stats_.retransmissions += 1;
      TransmitRequest(id);
      return;
    }
    const ChildRequest c = p->meta;
    stats_.links_unresolved += 1;
    RIPPLE_LOG(kWarn, "net: giving up on peer %u after %d attempts", c.target,
               p->strikes + 1);
    pending_.Resolve(id);
    WithShard(c.tag, [&](auto& shard) {
      Drive(shard, c.session, [](auto& proc) { return proc.OnChildFailed(); });
    });
  }

  // --- incoming responses / acks ------------------------------------------

  void HandleResponse(const Datagram& d) {
    auto* p = pending_.Find(d.env.id);
    if (p == nullptr) {
      stats_.late_responses += 1;
      return;
    }
    WithShard(p->meta.tag,
              [&](auto& shard) { ConsumeResponse(shard, p->meta, d); });
  }

  /// Consumes a reply datagram (WireCodec::DecodeReply): states for the
  /// requester's merge plus the child subtree's partial answer. An
  /// undecodable datagram is dropped whole; the retransmission timer
  /// recovers it.
  template <typename Policy>
  void ConsumeResponse(Shard<Policy>& shard, const ChildRequest c,
                       const Datagram& d) {
    typename WireCodec<Overlay, Policy>::Reply reply;
    if (!CodecOf(shard).DecodeReply(d.bytes, d.env.id, /*allow_partial=*/true,
                                    &reply)) {
      stats_.frames_rejected += 1;
      return;
    }
    JournalFrame(obs::JournalEventKind::kFrameRecv, c.from, d.env,
                 d.bytes.size());
    pending_.Resolve(d.env.id);
    NetSession<Policy>& s = shard.sessions[c.session];
    if (reply.partial) {
      shard.policy.MergeAnswer(&s.answer_acc, std::move(*reply.partial),
                               s.proc.query());
    }
    Drive(shard, c.session, [&](auto& proc) {
      return proc.OnChildStates(std::move(reply.states));
    });
  }

  void HandleAck(const Datagram& d) {
    auto* p = pending_.Find(d.env.id);
    if (p == nullptr) return;
    JournalFrame(obs::JournalEventKind::kFrameRecv, p->meta.from, d.env,
                 d.bytes.size());
    pending_.Ack(*p);
  }

  const Overlay* overlay_;
  Transport* transport_;
  RetryOptions retry_;
  DedupWindow dedup_;
  std::unordered_set<PeerId> local_peers_;
  Clock::time_point start_;
  obs::JournalSet* journal_ = nullptr;
  obs::Profiler* profiler_ = nullptr;
  obs::Registry* registry_ = nullptr;
  std::function<TransportCounters()> transport_counters_;
  WallTimers timers_;
  DaemonStats stats_;
  uint64_t open_sessions_ = 0;
  uint32_t next_seq_ = 1;
  Retransmitter<WallTimers, ChildRequest> pending_{&timers_, retry_};
  Shards shards_;
};

}  // namespace ripple::net

#endif  // RIPPLE_NET_DAEMON_H_
