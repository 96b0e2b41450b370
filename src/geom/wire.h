#ifndef RIPPLE_GEOM_WIRE_H_
#define RIPPLE_GEOM_WIRE_H_

#include <cstdint>
#include <memory>

#include "common/check.h"
#include "geom/point.h"
#include "geom/rect.h"
#include "geom/scoring.h"
#include "wire/buffer.h"

namespace ripple {

/// Wire codecs for the geometry vocabulary (docs/WIRE.md, "geom
/// payloads"). Encoders never fail; decoders validate everything the
/// value types RIPPLE_CHECK on construction (dimension caps, lo <= hi),
/// fail the reader and return false on bad bytes — corruption becomes a
/// rejected message, never an aborted process. Encoders are templates
/// over the sink (wire::Buffer, or wire::SizeCounter to price a value).

namespace wire_tags {
inline constexpr uint8_t kNormL1 = 0;
inline constexpr uint8_t kNormL2 = 1;
inline constexpr uint8_t kNormLInf = 2;
inline constexpr uint8_t kScorerLinear = 1;
inline constexpr uint8_t kScorerNearest = 2;
}  // namespace wire_tags

/// Point: [u8 dims][dims x f64].
template <typename Sink>
void EncodePoint(const Point& p, Sink* buf) {
  buf->PutU8(static_cast<uint8_t>(p.dims()));
  for (int i = 0; i < p.dims(); ++i) buf->PutF64(p[i]);
}
bool DecodePoint(wire::Reader* r, Point* out);

/// Rect: lo point, hi point. Rejects mismatched dims and lo > hi.
template <typename Sink>
void EncodeRect(const Rect& rect, Sink* buf) {
  EncodePoint(rect.lo(), buf);
  EncodePoint(rect.hi(), buf);
}
bool DecodeRect(wire::Reader* r, Rect* out);

/// Norm enum as one byte. Rejects unknown values.
template <typename Sink>
void EncodeNorm(Norm norm, Sink* buf) {
  switch (norm) {
    case Norm::kL1: buf->PutU8(wire_tags::kNormL1); return;
    case Norm::kL2: buf->PutU8(wire_tags::kNormL2); return;
    case Norm::kLInf: buf->PutU8(wire_tags::kNormLInf); return;
  }
  RIPPLE_CHECK(false && "unknown Norm");
}
bool DecodeNorm(wire::Reader* r, Norm* out);

/// Scorer: [u8 kind][kind-specific payload]. Kind 1 = LinearScorer
/// (varint weight count + f64 weights), kind 2 = NearestScorer (anchor
/// point + norm). Encoding an unknown Scorer subclass is a programming
/// error (checked); decoding returns null on bad bytes. The decoded
/// scorer is heap-owned — queries carrying one keep it alive via
/// shared_ptr.
template <typename Sink>
void EncodeScorer(const Scorer& s, Sink* buf) {
  if (const auto* linear = dynamic_cast<const LinearScorer*>(&s)) {
    buf->PutU8(wire_tags::kScorerLinear);
    buf->PutVarint(linear->weights().size());
    for (double w : linear->weights()) buf->PutF64(w);
    return;
  }
  if (const auto* nearest = dynamic_cast<const NearestScorer*>(&s)) {
    buf->PutU8(wire_tags::kScorerNearest);
    EncodePoint(nearest->anchor(), buf);
    EncodeNorm(nearest->norm(), buf);
    return;
  }
  RIPPLE_CHECK(false && "scorer type has no wire encoding");
}
std::shared_ptr<const Scorer> DecodeScorer(wire::Reader* r);

}  // namespace ripple

#endif  // RIPPLE_GEOM_WIRE_H_
