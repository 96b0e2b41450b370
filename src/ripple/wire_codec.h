#ifndef RIPPLE_RIPPLE_WIRE_CODEC_H_
#define RIPPLE_RIPPLE_WIRE_CODEC_H_

#include <cstddef>
#include <cstdint>
#include <optional>
#include <utility>
#include <vector>

#include "net/envelope.h"
#include "wire/buffer.h"
#include "wire/frame.h"

namespace ripple {

/// Serializes the four message kinds RIPPLE engines exchange (docs/WIRE.md):
///
///   query    payload = [zigzag r][query][global state][area]
///   response payload = [local state]            (one state per frame; a
///                      response datagram is a concatenation of frames all
///                      sharing the request's message id)
///   answer   payload = [answer]
///   ack      payload = empty (a bare frame header)
///
/// Both the recursive and the async engine charge bytes through this one
/// class, so their bytes_on_wire agree by construction: same policy, same
/// overlay, same payload bytes. All Encode* return the size of the frame
/// just appended. Decode*Payload assume the caller already consumed the
/// frame header (net::DecodeEnvelopeFrame) and is positioned at the
/// payload; the caller owns verifying the frame's declared length against
/// the bytes actually consumed.
template <typename Overlay, typename Policy>
class WireCodec {
 public:
  using Query = typename Policy::Query;
  using LocalState = typename Policy::LocalState;
  using GlobalState = typename Policy::GlobalState;
  using Answer = typename Policy::Answer;
  using Area = typename Overlay::Area;

  WireCodec(const Overlay* overlay, const Policy* policy)
      : overlay_(overlay), policy_(policy) {}

  size_t EncodeQueryMessage(const net::Envelope& env, const Query& q,
                            const GlobalState& g, const Area& area,
                            int64_t r, wire::Buffer* buf) const {
    const size_t start = net::BeginEnvelopeFrame(env, buf);
    buf->PutZigzag(r);
    policy_->EncodeQuery(q, buf);
    policy_->EncodeState(g, buf);
    overlay_->EncodeArea(area, buf);
    wire::EndFrame(buf, start);
    return buf->size() - start;
  }
  bool DecodeQueryPayload(wire::Reader* r, Query* q, GlobalState* g,
                          Area* area, int64_t* hops) const {
    *hops = r->Zigzag();
    return r->ok() && policy_->DecodeQuery(r, q) &&
           policy_->DecodeState(r, g) && overlay_->DecodeArea(r, area);
  }

  size_t EncodeResponseFrame(const net::Envelope& env, const LocalState& s,
                             wire::Buffer* buf) const {
    const size_t start = net::BeginEnvelopeFrame(env, buf);
    policy_->EncodeState(s, buf);
    wire::EndFrame(buf, start);
    return buf->size() - start;
  }
  bool DecodeResponsePayload(wire::Reader* r, LocalState* s) const {
    return policy_->DecodeState(r, s);
  }

  size_t EncodeAnswerMessage(const net::Envelope& env, const Answer& a,
                             wire::Buffer* buf) const {
    const size_t start = net::BeginEnvelopeFrame(env, buf);
    policy_->EncodeAnswer(a, buf);
    wire::EndFrame(buf, start);
    return buf->size() - start;
  }
  bool DecodeAnswerPayload(wire::Reader* r, Answer* a) const {
    return policy_->DecodeAnswer(r, a);
  }

  /// A decoded reply datagram: back-to-back frames under the request's
  /// message id, state frames for the requester's merge, then at most one
  /// answer frame (a live subtree's partial answer).
  struct Reply {
    std::vector<LocalState> states;
    std::optional<Answer> partial;
    wire::FrameHeader first;  // header of the first frame (journaling)
    /// Why a frame header failed; kOk when a payload failed instead, and
    /// kTruncated for an empty datagram.
    wire::FrameError error = wire::FrameError::kOk;
  };

  /// All-or-nothing: false when any frame fails, the id does not match, an
  /// answer frame appears where `allow_partial` is off or twice, a state
  /// follows the answer, or no state arrived at all.
  bool DecodeReply(const std::vector<uint8_t>& datagram, uint64_t id,
                   bool allow_partial, Reply* out) const {
    if (datagram.empty()) {
      out->error = wire::FrameError::kTruncated;
      return false;
    }
    wire::Reader r(datagram);
    while (r.remaining() > 0) {
      wire::FrameHeader h;
      out->error = wire::DecodeFrameHeaderEx(&r, &h);
      if (out->error != wire::FrameError::kOk || h.id != id) return false;
      if (out->states.empty()) out->first = h;
      const size_t frame_end = r.position() + wire::FramePayloadSize(h);
      bool ok = false;
      if (h.tag == static_cast<uint8_t>(net::MessageKind::kResponse) &&
          !out->partial) {
        LocalState st{};
        ok = DecodeResponsePayload(&r, &st);
        out->states.push_back(std::move(st));
      } else if (h.tag == static_cast<uint8_t>(net::MessageKind::kAnswer) &&
                 allow_partial && !out->partial) {
        ok = DecodeAnswerPayload(&r, &out->partial.emplace());
      }
      if (!ok || !r.ok() || r.position() != frame_end) return false;
    }
    return !out->states.empty();
  }

  size_t EncodeAckMessage(const net::Envelope& env, wire::Buffer* buf) const {
    const size_t start = net::BeginEnvelopeFrame(env, buf);
    wire::EndFrame(buf, start);
    return buf->size() - start;
  }

 private:
  const Overlay* overlay_;
  const Policy* policy_;
};

}  // namespace ripple

#endif  // RIPPLE_RIPPLE_WIRE_CODEC_H_
