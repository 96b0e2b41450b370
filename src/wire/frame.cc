#include "wire/frame.h"

namespace ripple::wire {

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
