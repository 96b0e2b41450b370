#include "layers.h"

namespace rbench {

LayerTotals LayerTotals::operator-(const LayerTotals& o) const {
  LayerTotals d;
  d.local_ns = local_ns - o.local_ns;
  d.merge_ns = merge_ns - o.merge_ns;
  d.relevance_ns = relevance_ns - o.relevance_ns;
  d.encode_ns = encode_ns - o.encode_ns;
  d.decode_ns = decode_ns - o.decode_ns;
  d.links_tested = links_tested - o.links_tested;
  d.links_pruned = links_pruned - o.links_pruned;
  d.run_ns = run_ns - o.run_ns;
  d.transport_ns = transport_ns - o.transport_ns;
  d.frames = frames - o.frames;
  return d;
}

LayerTotals& Layers() {
  static LayerTotals totals;
  return totals;
}

TimedTransport::TimedTransport(ripple::net::Transport* inner, bool push)
    : inner_(inner) {
  if (push) {
    inner_->SetReceiver([this](const ripple::net::Envelope& env,
                               std::vector<uint8_t> bytes) {
      ScopeTimer t(&callback_ns_);
      Deliver(env, std::move(bytes));
    });
  }
}

void TimedTransport::Send(const ripple::net::Envelope& env,
                          std::vector<uint8_t> datagram) {
  const uint64_t callback_before = callback_ns_;
  uint64_t total = 0;
  {
    ScopeTimer t(&total);
    inner_->Send(env, std::move(datagram));
  }
  Layers().transport_ns += total - (callback_ns_ - callback_before);
}

bool TimedTransport::Poll(ripple::net::Datagram* out, int timeout_ms) {
  return inner_->Poll(out, timeout_ms);
}

}  // namespace rbench
