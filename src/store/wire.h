#ifndef RIPPLE_STORE_WIRE_H_
#define RIPPLE_STORE_WIRE_H_

#include "geom/wire.h"
#include "store/tuple.h"
#include "wire/buffer.h"

namespace ripple {

/// Wire codecs for tuples (docs/WIRE.md, "store payloads").

/// Tuple: [varint id][point key].
template <typename Sink>
void EncodeTuple(const Tuple& t, Sink* buf) {
  buf->PutVarint(t.id);
  EncodePoint(t.key, buf);
}
bool DecodeTuple(wire::Reader* r, Tuple* out);

/// TupleVec: [varint count][count x tuple]. The count is sanity-bounded
/// by the remaining buffer (every tuple takes at least 2 bytes), so a
/// corrupted count rejects instead of allocating.
template <typename Sink>
void EncodeTupleVec(const TupleVec& v, Sink* buf) {
  buf->PutVarint(v.size());
  for (const Tuple& t : v) EncodeTuple(t, buf);
}
bool DecodeTupleVec(wire::Reader* r, TupleVec* out);

}  // namespace ripple

#endif  // RIPPLE_STORE_WIRE_H_
