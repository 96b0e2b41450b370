// live-udp: one client process against three `ripple_cli serve` daemons
// over loopback UDP. The launcher (run.py) starts the daemons and passes
// their pids, the peers file and the readiness times; this side issues
// one query at a time through net::NetClient, checks every answer,
// scrapes the cluster over the admin plane before and after the measured
// rounds, and reads the daemons' CPU and memory from /proc.
#include <algorithm>
#include <memory>
#include <string>
#include <type_traits>
#include <vector>

#include "check.h"
#include "common/rng.h"
#include "data/datasets.h"
#include "exec/compile.h"
#include "layers.h"
#include "net/bootstrap.h"
#include "net/client.h"
#include "net/monitor.h"
#include "net/peers.h"
#include "net/udp_transport.h"
#include "queries/topk_driver.h"
#include "workloads.h"

namespace rbench {

using ripple::MidasOverlay;
using ripple::RippleParam;
using ripple::exec::WorkloadItem;

namespace {

/// Rounds per second of --seconds: a live run issues a fixed number of
/// rounds, so daemon memory (which grows with every query served) is
/// compared after the same work on every commit.
constexpr double kRoundsPerSecond = 0.4;

/// 1000 queries: 300 top-k instances (k 10/20) each asked at r = fast,
/// slow and 2; 99 range queries (radius 0.3); 1 skyline (r = 2), whose
/// state and answer frames exceed the UDP datagram limit on this data.
std::vector<WorkloadItem> LiveRound(ripple::Rng* rng) {
  std::vector<WorkloadItem> items;
  const auto item = [](WorkloadItem::Kind kind, RippleParam r, int group) {
    WorkloadItem it;
    it.kind = kind;
    it.ripple = r;
    it.group = group;
    it.label = ripple::exec::WorkloadKindName(kind);
    return it;
  };
  int group = 0;
  for (int i = 0; i < 300; ++i, ++group) {
    for (RippleParam r : {RippleParam::Fast(), RippleParam::Slow(),
                          RippleParam::Hops(2)}) {
      WorkloadItem it = item(WorkloadItem::Kind::kTopK, r, group);
      it.k = i % 2 == 0 ? 10 : 20;
      items.push_back(it);
    }
  }
  for (int i = 0; i < 99; ++i) {
    WorkloadItem it = item(WorkloadItem::Kind::kRange, RippleParam::Fast(), -1);
    it.radius = 0.3;
    items.push_back(it);
  }
  items.push_back(
      item(WorkloadItem::Kind::kSkyline, RippleParam::Hops(2), group));
  rng->Shuffle(&items);
  return items;
}

/// The cluster's counters and the daemons' /proc view at one moment.
struct ClusterPoint {
  ripple::net::ClusterSample sample;
  double cpu_ms = 0;
  double rss_kb = 0;
  double hwm_kb = 0;
  bool ok = true;
};

ClusterPoint Observe(ripple::net::ClusterMonitor* monitor,
                     const std::vector<pid_t>& pids, double at_ms) {
  ClusterPoint p;
  p.sample = monitor->Scrape(at_ms);
  p.ok = p.sample.totals.healthy == p.sample.totals.endpoints;
  for (pid_t pid : pids) {
    ProcSample s;
    if (!ReadProc(pid, &s)) {
      p.ok = false;
      continue;
    }
    p.cpu_ms += s.cpu_ms;
    p.rss_kb += s.rss_kb;
    p.hwm_kb += s.hwm_kb;
  }
  return p;
}

/// The oversize drops the cluster has counted so far, or -1 when a daemon
/// does not answer the scrape.
int64_t OversizeDropped(ripple::net::ClusterMonitor* monitor) {
  const ripple::net::ClusterSample s = monitor->Scrape(0);
  if (s.totals.healthy != s.totals.endpoints) return -1;
  return static_cast<int64_t>(s.totals.transport.oversize_dropped);
}

struct LiveTally {
  uint64_t attempted = 0, failed = 0, oversize_failed = 0;
  uint64_t measured = 0, answered = 0;
  LatencyLog latency_ms;
  double timed_ms = 0, client_cpu_ms = 0;
  double route_hops = 0, answer_tuples = 0;
  uint64_t answer_queries = 0;
};

/// Issues rounds [first, first + count) through `client`. Round 0 warms
/// up: it is checked but not measured. Every skyline is bracketed by
/// scrapes of the cluster's oversize drops, outside its timed window: a
/// failed skyline is the named oversize fault only when they rose.
void RunRounds(const Options& opts, const MidasOverlay& overlay,
               ripple::net::NetClient<MidasOverlay>* client, int first,
               int count, ripple::net::ClusterMonitor* monitor,
               AnswerChecker* checker, LiveTally* t, Report* report,
               std::vector<SpanRecord>* spans, Clock::time_point origin) {
  for (int r = first; r < first + count; ++r) {
    ripple::Rng round_rng(MixSeed(opts.seed, 1000 + r));
    const std::vector<WorkloadItem> items = LiveRound(&round_rng);
    const uint64_t seed = MixSeed(opts.seed, 5000 + r);
    const bool measured = r > 0;
    std::vector<std::unique_ptr<ripple::Scorer>> scorers;
    ripple::exec::ForEachWorkloadInstance(
        overlay, items, seed, &scorers,
        [&](size_t, const WorkloadItem& item, ripple::PeerId initiator,
            auto query) {
          using Q = std::decay_t<decltype(query)>;
          const int64_t hops = item.ripple.hops();
          constexpr bool kSkyline = std::is_same_v<Q, ripple::SkylineQuery>;
          const int64_t dropped0 = kSkyline ? OversizeDropped(monitor) : -1;
          uint64_t route_hops = 0;
          const Clock::time_point t0 = Clock::now();
          const double cpu0 = ProcessCpuMs();
          // The seeded drivers' bootstrap runs on the client's replica,
          // as net-bench does, before the serving peer is addressed.
          auto outcome = [&] {
            if constexpr (std::is_same_v<Q, ripple::TopKQuery>) {
              ripple::TopKPolicy policy;
              const ripple::PeerId start = overlay.RouteFrom(
                  initiator, query.scorer->Peak(overlay.domain()),
                  &route_hops);
              std::vector<ripple::PeerId> walk_path;
              const ripple::TopKState walk = ripple::TopKSeedWalk(
                  overlay, policy, query, start, &walk_path);
              // As the seeded driver counts it: one hop per walk step.
              if (!walk_path.empty()) route_hops += walk_path.size() - 1;
              return client->Execute(policy, query, start, hops, walk);
            } else if constexpr (kSkyline) {
              ripple::SkylinePolicy policy;
              const ripple::PeerId start = overlay.RouteFrom(
                  initiator, overlay.domain().lo(), &route_hops);
              return client->Execute(policy, query, start, hops,
                                     policy.InitialGlobalState(query));
            } else if constexpr (std::is_same_v<Q, ripple::RangeQuery>) {
              ripple::RangePolicy policy;
              return client->Execute(policy, query, initiator, hops,
                                     policy.InitialGlobalState(query));
            } else {
              ripple::SkybandPolicy policy;
              return client->Execute(policy, query, initiator, hops,
                                     policy.InitialGlobalState(query));
            }
          }();
          const double ms = MsSince(t0);
          if (measured) {
            t->client_cpu_ms += ProcessCpuMs() - cpu0;
            t->timed_ms += ms;
          }
          if (spans != nullptr) {
            const double start_us =
                std::chrono::duration<double, std::micro>(t0 - origin)
                    .count();
            spans->push_back(SpanRecord{spans->size() + 1, 0, "live.query",
                                        item.label + " r=" +
                                            item.ripple.ToString(),
                                        start_us, start_us + ms * 1e3,
                                        {{"attempts", outcome.attempts}}});
          }
          const Instance in = Describe(query);
          t->attempted += 1;
          std::string err = outcome.complete
                                ? checker->Check(in, outcome.answer)
                                : "incomplete";
          if (!err.empty()) {
            t->failed += 1;
            // The named fault: a skyline whose frames exceed the datagram
            // limit is dropped at Send and finalized without the subtree.
            const int64_t dropped1 = kSkyline ? OversizeDropped(monitor) : -1;
            if (dropped0 >= 0 && dropped1 > dropped0) {
              t->oversize_failed += 1;
            } else {
              report->Fail(item.label + " r=" + item.ripple.ToString() +
                           ": " + err);
            }
          }
          if (!measured) return;
          t->route_hops += static_cast<double>(route_hops);
          // The skyline, the named fault's query, is left out of the
          // answer tuples: its fix must not read as a rise.
          if (!kSkyline) {
            t->answer_tuples += static_cast<double>(outcome.answer.size());
            t->answer_queries += 1;
          }
          t->measured += 1;
          if (err.empty()) {
            t->answered += 1;
            t->latency_ms.Add(ms);
          }
        });
  }
}

double PerQuery(double total, uint64_t n) {
  return n > 0 ? total / static_cast<double>(n) : 0.0;
}

}  // namespace

Report RunLiveUdp(const Options& opts) {
  Report report;
  const std::string self_test = ReferenceSelfTest();
  if (!self_test.empty()) report.Fail(self_test);
  auto peers = ripple::net::LoadPeersFile(opts.peers_file);
  if (!peers.ok()) {
    report.Fail("peers file: " + peers.status().message());
    return report;
  }
  const ripple::net::NetConfig& config = peers->config;

  // The client's replica and the reference data, from the peers-file
  // recipe every daemon builds from.
  const Clock::time_point t0 = Clock::now();
  ripple::Rng data_rng(config.seed * 7919);
  const ripple::TupleVec data = ripple::data::MakeByName(
      config.dataset, config.tuples, static_cast<int>(config.dims),
      &data_rng);
  const double data_ms = MsSince(t0);
  const Clock::time_point t1 = Clock::now();
  const std::unique_ptr<MidasOverlay> overlay =
      ripple::net::BuildOverlay(config);
  const double overlay_ms = MsSince(t1);
  const RefData ref(data);
  AnswerChecker checker(&ref);
  const ripple::net::Endpoint local{"127.0.0.1", 0};
  auto udp = ripple::net::UdpSocketTransport::Open(*peers, local);
  auto mon_udp = ripple::net::UdpSocketTransport::Open(*peers, local);
  if (!udp.ok() || !mon_udp.ok()) {
    report.Fail("cannot open a client socket");
    return report;
  }
  ripple::net::MonitorOptions mopts;
  mopts.probe_timeout_ms = 500;
  mopts.probe_attempts = 4;
  ripple::net::ClusterMonitor monitor(
      *peers, mon_udp->get(), ripple::net::kClientIdBase | 3, mopts);
  ripple::net::NetClient<MidasOverlay> plain(
      overlay.get(), udp->get(), ripple::net::kClientIdBase | 1);
  TimedTransport timed(udp->get(), /*push=*/false);
  ripple::net::NetClient<MidasOverlay> traced(
      overlay.get(), &timed, ripple::net::kClientIdBase | 2);

  const int rounds =
      std::max(2, static_cast<int>(opts.seconds * kRoundsPerSecond + 0.5));
  LiveTally t;
  LiveTally untraced;
  std::vector<SpanRecord> spans;
  const Clock::time_point origin = Clock::now();
  // Round 0 warms up; the cluster is observed around the rest.
  RunRounds(opts, *overlay, &plain, 0, 1, &monitor, &checker, &t,
            &report, nullptr, origin);
  const ClusterPoint before = Observe(&monitor, opts.daemon_pids, 0);
  if (!opts.trace) {
    RunRounds(opts, *overlay, &plain, 1, rounds - 1, &monitor,
              &checker, &t, &report, nullptr, origin);
  } else {
    // Half the rounds untraced, then the same rounds through the timed
    // transport; the rest of the cluster is identical in both.
    const int half = std::max(1, (rounds - 1) / 2);
    RunRounds(opts, *overlay, &plain, 1, half, &monitor, &checker,
              &untraced, &report, nullptr, origin);
    Layers() = LayerTotals{};
    RunRounds(opts, *overlay, &traced, 1, half, &monitor, &checker,
              &t, &report, &spans, origin);
  }
  const ClusterPoint after =
      Observe(&monitor, opts.daemon_pids, MsSince(origin));
  if (!before.ok || !after.ok) report.Fail("cluster unhealthy or daemon gone");

  t.attempted += untraced.attempted;
  t.failed += untraced.failed;
  t.oversize_failed += untraced.oversize_failed;
  const uint64_t n = opts.trace ? t.measured + untraced.measured : t.measured;
  const ripple::net::ClusterTotals& a = after.sample.totals;
  const ripple::net::ClusterTotals& b = before.sample.totals;
  const double daemon_cpu_ms = after.cpu_ms - before.cpu_ms;
  const double datagrams = static_cast<double>(a.transport.datagrams_sent -
                                               b.transport.datagrams_sent);
  if (!opts.trace) {
    report.Set("setup_s", Median(opts.ready_ms) / 1e3);
    report.Set("qps", static_cast<double>(t.answered) / (t.timed_ms / 1e3));
    report.Set("latency_p50_ms", t.latency_ms.Percentile(0.50));
    report.Set("latency_p99_ms", t.latency_ms.Percentile(0.99));
    report.Set("cpu_ms_per_query",
               PerQuery(daemon_cpu_ms + t.client_cpu_ms, n));
    report.Set("rss_mb", after.hwm_kb / 1024.0);
    // The daemons count no hops and keep no simulated clock: both read the
    // client's bootstrap routing, as on sim-lossy.
    report.Set("hops_per_query", PerQuery(t.route_hops, n));
    report.Set("sim_time_per_query", PerQuery(t.route_hops, n));
    report.Set("messages_per_query", PerQuery(datagrams, n));
    report.Set("bytes_per_query",
               PerQuery(static_cast<double>(a.transport.bytes_sent -
                                            b.transport.bytes_sent),
                        n));
    report.Set("tuples_per_query",
               PerQuery(t.answer_tuples, t.answer_queries));
    report.Set("peers_per_query",
               PerQuery(static_cast<double>(a.stats.queries_served -
                                            b.stats.queries_served),
                        n));
  } else {
    report.Set("net.transport_us_per_query",
               PerQuery(static_cast<double>(Layers().transport_ns) / 1e3,
                        t.measured));
    report.Set("net.daemon_cpu_ms_per_query", PerQuery(daemon_cpu_ms, n));
    report.Set("net.datagrams_per_query", PerQuery(datagrams, n));
    report.Set("net.retransmissions_per_query",
               PerQuery(static_cast<double>(a.stats.retransmissions -
                                            b.stats.retransmissions),
                        n));
    report.Set("net.oversize_dropped",
               static_cast<double>(a.transport.oversize_dropped -
                                   b.transport.oversize_dropped));
    report.Set("net.links_unresolved",
               static_cast<double>(a.stats.links_unresolved -
                                   b.stats.links_unresolved));
    report.Set("net.oversize_failed_queries",
               static_cast<double>(t.oversize_failed));
    report.Set("net.sessions_total_end",
               static_cast<double>(a.queues.sessions_total));
    report.Set("net.open_sessions_end",
               static_cast<double>(a.queues.open_sessions));
    report.Set("net.pending_requests_end",
               static_cast<double>(a.queues.pending_requests));
    report.Set("net.rss_growth_kb_per_query",
               PerQuery(after.rss_kb - before.rss_kb, n));
    report.Set("setup.data_ms", data_ms);
    report.Set("setup.overlay_ms", overlay_ms);
    report.Set("setup.daemons_ready_ms", Median(opts.ready_ms));
    report.Set("obs.untraced_wall_ms", untraced.timed_ms);
    report.Set("obs.traced_wall_ms", t.timed_ms);
    report.Set("obs.trace_overhead_pct",
               untraced.timed_ms > 0
                   ? (t.timed_ms - untraced.timed_ms) / untraced.timed_ms * 100
                   : 0);
    report.Set("obs.spans", static_cast<double>(spans.size()));
    const std::string path =
      opts.span_dir + "/" + opts.workload + ".spans.jsonl";
    report.notes.push_back(WriteSpans(path, spans)
                               ? "spans written to " + path
                               : "could not write spans to " + path);
  }
  report.attempted = t.attempted;
  report.failed = t.failed;
  report.notes.push_back(
      "queries: " + std::to_string(t.attempted) + " attempted, " +
      std::to_string(t.failed) + " failed (" +
      std::to_string(t.oversize_failed) + " oversize skyline), " +
      std::to_string(n) + " measured");
  report.notes.push_back(
      "cluster: " + std::to_string(a.queues.sessions_total) +
      " sessions kept, daemon RSS " + std::to_string(after.rss_kb / 1024) +
      " MiB (was " + std::to_string(before.rss_kb / 1024) + "), " +
      std::to_string(a.transport.oversize_dropped) + " oversize datagrams");
  return report;
}

}  // namespace rbench
