#ifndef RIPPLE_OBS_JOURNAL_H_
#define RIPPLE_OBS_JOURNAL_H_

#include <cstddef>
#include <cstdint>
#include <mutex>
#include <string>
#include <unordered_map>
#include <vector>

#include "common/result.h"
#include "obs/trace.h"
#include "wire/frame.h"

namespace ripple::obs {

// The wire's "no parent" sentinel and the tracer's root sentinel must be
// the same bit pattern: a frame header's parent_span field is consumed
// directly as a span parent.
static_assert(wire::kNoParentSpan == kNoSpan);

/// What one journal entry records. Frame events carry message identity
/// and byte counts; span events mirror the tracer; kRetransmit / kDrop /
/// kCrash record the fault layer's interventions.
enum class JournalEventKind : uint8_t {
  kFrameSend,   // a frame left this peer
  kFrameRecv,   // a frame was decoded at this peer
  kSpanBegin,   // the tracer opened a span at this peer
  kSpanEnd,     // the tracer closed a span at this peer
  kRetransmit,  // the reliability layer re-sent a frame from this peer
  kDrop,        // the simulated network dropped a frame sent by this peer
  kCrash,       // a delivery was addressed to this peer after it crashed
};

const char* JournalEventKindName(JournalEventKind kind);

/// One append-only journal entry. A single flat record type keeps the
/// JSONL format trivial; fields irrelevant to a kind stay at their
/// defaults and are omitted from the serialized line.
struct JournalEvent {
  JournalEventKind kind = JournalEventKind::kFrameSend;
  uint32_t peer = 0;      // whose journal this entry belongs to
  double sim_time = 0.0;  // engine clock: logical hops or simulator time
  uint64_t wall_ns = 0;   // monotonic wall stamp taken at record time
  uint64_t trace_id = 0;  // 0 = unsampled (assembler ignores the entry)

  // Frame events.
  uint64_t msg_id = 0;
  uint8_t msg_kind = 0;  // net::MessageKind value
  uint32_t parent_span = kNoSpan;  // trace context the frame carried
  uint64_t bytes = 0;
  int attempt = 0;

  // Span events (kSpanBegin carries identity/start; kSpanEnd additionally
  // carries the final counters).
  uint32_t span = kNoSpan;
  uint8_t span_kind = 0;  // obs::SpanKind value
  int r = 0;
  double start = 0.0;
  double end = 0.0;
  uint64_t tuples_in = 0;
  uint64_t links_pruned = 0;
  uint64_t links_forwarded = 0;
  uint64_t states_merged = 0;
  uint64_t state_tuples = 0;
  uint64_t answer_tuples = 0;
  uint64_t retries = 0;
  uint64_t timeouts = 0;
};

/// The frame-level event (send, receive, retransmit, drop, crash) of the
/// frame an envelope (net::Envelope) describes, at `peer` and engine time
/// `time`.
template <typename Envelope>
JournalEvent FrameEvent(JournalEventKind kind, uint32_t peer, double time,
                        const Envelope& env, uint64_t bytes) {
  JournalEvent e;
  e.kind = kind;
  e.peer = peer;
  e.sim_time = time;
  e.trace_id = env.trace.trace_id;
  e.msg_id = env.id;
  e.msg_kind = static_cast<uint8_t>(env.kind);
  e.parent_span = env.trace.parent_span;
  e.bytes = bytes;
  e.attempt = env.attempt;
  return e;
}

/// One JSONL line per event; the inverse of ParseJournalLine.
std::string JournalEventToJson(const JournalEvent& e);

/// Parses one serialized journal line. Unknown keys are ignored (forward
/// compatibility); a malformed line or unknown event kind is an error.
Result<JournalEvent> ParseJournalLine(const std::string& line);

/// The parsed content of one per-peer journal file.
struct PeerJournal {
  uint32_t peer = 0;
  uint64_t dropped = 0;  // events lost to the capacity bound
  std::vector<JournalEvent> events;
};

/// Bounded append-only event logs, one per peer. Thread-safe: executor
/// workers running independent queries may share one set. Events keep
/// insertion order per peer; once a peer's journal is full further events
/// are counted in dropped() instead of recorded — append-only means no
/// eviction, so the *front* of a trace survives truncation.
class JournalSet {
 public:
  /// `capacity_per_peer` bounds each peer's event count (0 = unbounded).
  explicit JournalSet(size_t capacity_per_peer = 1 << 16)
      : capacity_(capacity_per_peer) {}

  /// Appends `e` to peer `e.peer`'s journal, stamping wall_ns with the
  /// monotonic clock. Drops (and counts) the event when full.
  void Record(JournalEvent e);

  /// Peers with at least one recorded or dropped event, ascending.
  std::vector<uint32_t> Peers() const;

  /// Snapshot of one peer's journal (empty journal when untouched).
  PeerJournal Snapshot(uint32_t peer) const;

  uint64_t TotalEvents() const;
  uint64_t TotalDropped() const;
  size_t capacity_per_peer() const { return capacity_; }

  void Clear();

  /// Writes `peer-<id>.jsonl` under `dir` for every touched peer: a meta
  /// line (`{"journal": {...}}`) then one event per line. Creates `dir`.
  Status WriteDir(const std::string& dir) const;

 private:
  struct Log {
    uint64_t dropped = 0;
    std::vector<JournalEvent> events;
  };

  size_t capacity_;
  mutable std::mutex mu_;
  std::unordered_map<uint32_t, Log> logs_;
};

/// Reads one per-peer journal file written by WriteDir (meta line
/// optional, so hand-built event streams parse too).
Result<PeerJournal> ReadJournalFile(const std::string& path);

/// Reads every `*.jsonl` in `dir` (or just `path` when it is a file).
Result<std::vector<PeerJournal>> ReadJournals(const std::string& path);

}  // namespace ripple::obs

#endif  // RIPPLE_OBS_JOURNAL_H_
