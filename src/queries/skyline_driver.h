#ifndef RIPPLE_QUERIES_SKYLINE_DRIVER_H_
#define RIPPLE_QUERIES_SKYLINE_DRIVER_H_

#include <vector>

#include "net/frame_cost.h"
#include "obs/trace.h"
#include "queries/skyline.h"
#include "ripple/api.h"
#include "ripple/engine.h"

namespace ripple {

/// Seeded skyline initiation.
///
/// A skyline run started at an arbitrary peer forwards with an empty state
/// on its first hops — nothing is dominated yet, so nothing is pruned and
/// the fast mode degenerates towards a broadcast. Both distributed-skyline
/// baselines the paper compares against avoid this by construction: DSL
/// roots its hierarchy at the peer owning the domain origin and SSP starts
/// at the origin's region. We give RIPPLE the same standard opening: route
/// the query to the peer responsible for the domain's lower corner (whose
/// zone reaches into the most dominating area, so its local skyline prunes
/// aggressively) and initiate processing there. Routing hops are charged
/// to the query.
/// Generic over the engine, like SeededTopK: the request's `initiator` is
/// where the bootstrap routing starts; the run proper is initiated at the
/// corner owner. Fault/retry/deadline fields pass through to the engine.
template <typename Overlay, typename EngineT>
typename EngineT::Result SeededSkyline(
    const Overlay& overlay, const EngineT& engine,
    const QueryRequest<SkylinePolicy>& request) {
  uint64_t hops = 0;
  obs::Tracer* tracer = engine.tracer();
  const SkylineQuery& query = request.query;
  // Attach the engine's journal before the bootstrap route spans are
  // recorded: the engine only wires tracer-to-journal mirroring inside
  // Run(), and a sampled trace must cover the bootstrap too.
  if (tracer != nullptr && engine.journal() != nullptr &&
      request.trace_id != 0) {
    tracer->SetJournal(engine.journal());
    tracer->set_trace_id(request.trace_id);
  }
  // Constrained queries aim at the constraint's lower corner (the spot DSL
  // roots its hierarchy at); unconstrained ones at the domain origin.
  const Point corner = query.constraint.has_value()
                           ? query.constraint->lo()
                           : overlay.domain().lo();
  std::vector<PeerId> route_path;
  const PeerId start = overlay.RouteFrom(request.initiator, corner, &hops,
                                         tracer ? &route_path : nullptr);
  double saved_offset = 0.0;
  if (tracer) {
    // One route span per forwarding peer, so the trace covers exactly the
    // peers the stats charge; the engine's clock starts after them.
    uint32_t last_span = obs::kNoSpan;
    double t = 0.0;
    for (PeerId p : route_path) {
      last_span =
          tracer->StartSpan(p, last_span, obs::SpanKind::kRoute, /*r=*/0, t);
      tracer->span(last_span).links_forwarded = 1;
      tracer->EndSpan(last_span, t + 1.0);
      t += 1.0;
    }
    saved_offset = tracer->time_offset();
    tracer->set_time_offset(saved_offset + static_cast<double>(hops));
  }
  QueryRequest<SkylinePolicy> seeded = request;
  seeded.initiator = start;
  auto result = engine.Run(seeded);
  if (tracer) tracer->set_time_offset(saved_offset);
  result.stats.latency_hops += hops;
  result.stats.messages += hops;
  result.stats.peers_visited += hops;  // forwarding peers handle the query
  // Each route forward carries the query: one query-only frame per hop.
  result.stats.bytes_on_wire +=
      hops * net::MeasureFrameBytes(net::MessageKind::kQuery,
                                    [&](auto* buf) {
                                      engine.policy().EncodeQuery(query, buf);
                                    });
  if (result.completion_time > 0) {
    result.completion_time += static_cast<double>(hops);
  }
  return result;
}

}  // namespace ripple

#endif  // RIPPLE_QUERIES_SKYLINE_DRIVER_H_
