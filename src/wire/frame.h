#ifndef RIPPLE_WIRE_FRAME_H_
#define RIPPLE_WIRE_FRAME_H_

#include <cstddef>
#include <cstdint>

#include "wire/buffer.h"

namespace ripple::wire {

/// Schema version stamped into every frame, and the only one the decoder
/// accepts. Bump on any incompatible change to a payload format
/// (docs/WIRE.md is the spec). Version 2 added the trace-context tail.
inline constexpr uint8_t kWireVersion = 2;

/// Highest message-type tag a frame may carry. The values mirror
/// net::MessageKind (query=0, response=1, ack=2, answer=3, plus the
/// admin plane: ping=4, stats=5, snapshot=6, health=7); envelope.h
/// static_asserts the two stay in sync. The admin tags widened this
/// range within wire version 2 — a pre-admin v2 decoder rejects them as
/// kBadTag, which degrades a mixed fleet to "unmonitorable", never to
/// wrong answers (the query protocol's tags are untouched).
inline constexpr uint8_t kMaxMessageTag = 7;

/// Sentinel parent span id: "this frame starts a new root span". Matches
/// obs::kNoSpan bit-for-bit, but wire/ must not depend on obs/ (the
/// static_assert lives in obs/journal.h).
inline constexpr uint32_t kNoParentSpan = 0xffffffffu;

/// Frame flags (the v2 flags byte). Bit 0 is the head-based sampling
/// decision taken once at the query initiator; every downstream peer
/// honors it, so a trace is either complete or absent, never partial.
inline constexpr uint8_t kFrameFlagSampled = 0x01;

/// Trace context carried by every frame; the defaults mean no trace, no
/// parent, not sampled.
struct TraceContext {
  uint64_t trace_id = 0;               // 0 = unsampled / no trace
  uint32_t parent_span = kNoParentSpan;
  uint8_t flags = 0;

  bool sampled() const { return (flags & kFrameFlagSampled) != 0; }
};

/// Fixed frame header, in wire order:
///
///   [u32 length][u8 version][u8 tag][u64 msg id][u32 from][u32 to]
///   [u8 flags][u64 trace id][u32 parent span]
///
/// `length` counts every byte after the length field itself (header tail +
/// payload), so a datagram of concatenated frames can be walked without
/// knowing the payload formats. Ids, peer ids and the trace tail are
/// fixed-width on purpose: frame sizes must not depend on how an engine
/// assigns message ids or span ids, or the two engines' byte accounting
/// would diverge.
inline constexpr size_t kFrameHeaderSize =
    4 + 1 + 1 + 8 + 4 + 4 + 1 + 8 + 4;
/// Header bytes after the length field (everything `length` counts that
/// is not payload).
inline constexpr size_t kFrameHeaderTailSize = kFrameHeaderSize - 4;

struct FrameHeader {
  uint32_t length = 0;  // bytes after the length field
  uint8_t version = kWireVersion;
  uint8_t tag = 0;
  uint64_t id = 0;
  uint32_t from = 0;
  uint32_t to = 0;
  TraceContext trace;
};

/// Why a frame header failed to decode. kTruncated covers every "not
/// enough bytes" shape (short buffer, length below the header tail,
/// declared payload absent); kBadVersion / kBadTag are semantic
/// rejections of complete headers.
enum class FrameError : uint8_t {
  kOk = 0,
  kTruncated,
  kBadVersion,
  kBadTag,
};

/// Appends a frame header with a zero length placeholder; returns the
/// frame's start offset for EndFrame. The caller appends the payload, then
/// calls EndFrame to patch the length. `trace` is the context stamped into
/// the v2 tail (default: unsampled, no parent).
size_t BeginFrame(Buffer* buf, uint8_t tag, uint64_t id, uint32_t from,
                  uint32_t to, const TraceContext& trace = {});

/// Patches the length field of the frame begun at `frame_start` to cover
/// everything appended since.
void EndFrame(Buffer* buf, size_t frame_start);

/// Reads and validates one frame header: enough bytes for the fixed
/// header, the current version, a known tag, and a length the buffer
/// actually holds. On success the
/// reader is positioned at the payload and the declared payload is
/// guaranteed present; on failure the reader is failed and the reason is
/// returned.
FrameError DecodeFrameHeaderEx(Reader* r, FrameHeader* out);

/// Boolean wrapper for callers that do not need the failure reason.
inline bool DecodeFrameHeader(Reader* r, FrameHeader* out) {
  return DecodeFrameHeaderEx(r, out) == FrameError::kOk;
}

/// Payload bytes of a decoded header (length minus the header tail).
inline size_t FramePayloadSize(const FrameHeader& h) {
  return h.length - kFrameHeaderTailSize;
}

}  // namespace ripple::wire

#endif  // RIPPLE_WIRE_FRAME_H_
