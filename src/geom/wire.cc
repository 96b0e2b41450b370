#include "geom/wire.h"

#include <utility>
#include <vector>

#include "common/check.h"

namespace ripple {

bool DecodePoint(wire::Reader* r, Point* out) {
  const uint8_t dims = r->U8();
  if (!r->ok() || dims > kMaxDims) {
    r->Fail();
    return false;
  }
  Point p(dims);
  for (int i = 0; i < dims; ++i) p[i] = r->F64();
  if (!r->ok()) return false;
  *out = p;
  return true;
}

bool DecodeRect(wire::Reader* r, Rect* out) {
  Point lo, hi;
  if (!DecodePoint(r, &lo) || !DecodePoint(r, &hi)) return false;
  // Validate what the Rect constructor checks, so corrupted bytes reject
  // instead of aborting the process.
  if (lo.dims() != hi.dims()) {
    r->Fail();
    return false;
  }
  for (int i = 0; i < lo.dims(); ++i) {
    if (!(lo[i] <= hi[i])) {  // catches NaN too
      r->Fail();
      return false;
    }
  }
  *out = Rect(lo, hi);
  return true;
}

using namespace wire_tags;

bool DecodeNorm(wire::Reader* r, Norm* out) {
  switch (r->U8()) {
    case kNormL1: *out = Norm::kL1; break;
    case kNormL2: *out = Norm::kL2; break;
    case kNormLInf: *out = Norm::kLInf; break;
    default:
      r->Fail();
      return false;
  }
  return r->ok();
}

std::shared_ptr<const Scorer> DecodeScorer(wire::Reader* r) {
  switch (r->U8()) {
    case kScorerLinear: {
      const uint64_t count = r->Varint();
      // Each weight takes 8 bytes; a count the buffer cannot hold is
      // corruption, not a huge allocation request.
      if (!r->ok() || count > r->remaining() / 8) {
        r->Fail();
        return nullptr;
      }
      std::vector<double> weights(count);
      for (uint64_t i = 0; i < count; ++i) weights[i] = r->F64();
      if (!r->ok()) return nullptr;
      return std::make_shared<LinearScorer>(std::move(weights));
    }
    case kScorerNearest: {
      Point anchor;
      Norm norm = Norm::kL2;
      if (!DecodePoint(r, &anchor) || !DecodeNorm(r, &norm)) return nullptr;
      return std::make_shared<NearestScorer>(anchor, norm);
    }
    default:
      r->Fail();
      return nullptr;
  }
}

}  // namespace ripple
