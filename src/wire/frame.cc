#include "wire/frame.h"

namespace ripple::wire {

size_t BeginFrame(Buffer* buf, uint8_t tag, uint64_t id, uint32_t from,
                  uint32_t to, const TraceContext& trace) {
  const size_t start = buf->size();
  buf->PutFixed32(0);  // length, patched by EndFrame
  buf->PutU8(kWireVersion);
  buf->PutU8(tag);
  buf->PutFixed64(id);
  buf->PutFixed32(from);
  buf->PutFixed32(to);
  buf->PutU8(trace.flags);
  buf->PutFixed64(trace.trace_id);
  buf->PutFixed32(trace.parent_span);
  return start;
}

void EndFrame(Buffer* buf, size_t frame_start) {
  buf->WriteFixed32At(frame_start,
                      static_cast<uint32_t>(buf->size() - frame_start - 4));
}

FrameError DecodeFrameHeaderEx(Reader* r, FrameHeader* out) {
  out->length = r->Fixed32();
  out->version = r->U8();
  out->tag = r->U8();
  out->id = r->Fixed64();
  out->from = r->Fixed32();
  out->to = r->Fixed32();
  if (!r->ok()) return FrameError::kTruncated;
  if (out->version != kWireVersion) {
    r->Fail();
    return FrameError::kBadVersion;
  }
  if (out->tag > kMaxMessageTag) {
    r->Fail();
    return FrameError::kBadTag;
  }
  out->trace.flags = r->U8();
  out->trace.trace_id = r->Fixed64();
  out->trace.parent_span = r->Fixed32();
  if (!r->ok()) return FrameError::kTruncated;
  if (out->length < kFrameHeaderTailSize ||
      FramePayloadSize(*out) > r->remaining()) {
    r->Fail();
    return FrameError::kTruncated;
  }
  return FrameError::kOk;
}

}  // namespace ripple::wire
