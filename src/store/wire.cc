#include "store/wire.h"

namespace ripple {

bool DecodeTuple(wire::Reader* r, Tuple* out) {
  out->id = r->Varint();
  return r->ok() && DecodePoint(r, &out->key);
}

bool DecodeTupleVec(wire::Reader* r, TupleVec* out) {
  const uint64_t count = r->Varint();
  if (!r->ok() || count > r->remaining() / 2) {
    r->Fail();
    return false;
  }
  TupleVec v;
  v.reserve(count);
  for (uint64_t i = 0; i < count; ++i) {
    Tuple t;
    if (!DecodeTuple(r, &t)) return false;
    v.push_back(std::move(t));
  }
  *out = std::move(v);
  return true;
}

}  // namespace ripple
