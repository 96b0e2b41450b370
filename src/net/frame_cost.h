#ifndef RIPPLE_NET_FRAME_COST_H_
#define RIPPLE_NET_FRAME_COST_H_

#include <cstddef>
#include <utility>

#include "net/envelope.h"
#include "wire/buffer.h"
#include "wire/frame.h"

namespace ripple::net {

/// Byte cost of a payload-less message (a routed forward, an ack): one
/// bare frame header on the wire.
inline constexpr size_t kBareFrameBytes = wire::kFrameHeaderSize;

/// Measures what one framed message would occupy on the wire: a frame
/// header plus whatever `encode_payload(wire::SizeCounter*)` counts (a
/// generic lambda over the codecs' sink parameter). Used by the baseline
/// protocols (DSL, SSP, flooding) and the seeded drivers, which charge
/// bytes without shipping datagrams — the analytic counterpart of the
/// async engine's encode-then-Ship path, priced by the same codecs so the
/// two accountings are comparable. Envelope ids don't matter here: frame
/// headers are fixed-width.
template <typename Fn>
size_t MeasureFrameBytes(MessageKind kind, Fn&& encode_payload) {
  wire::SizeCounter size;
  const Envelope env{0, 0, 0, kind, 0};
  const size_t start = BeginEnvelopeFrame(env, &size);
  std::forward<Fn>(encode_payload)(&size);
  wire::EndFrame(&size, start);
  return size.size() - start;
}

}  // namespace ripple::net

#endif  // RIPPLE_NET_FRAME_COST_H_
