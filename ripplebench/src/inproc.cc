// The in-process workloads: inproc-mixed (recursive Engine), sim-lossy
// (discrete-event AsyncEngine under seeded faults) and cache-churn (the
// batched cache path with overlay churn), all through exec::Executor with
// one worker and an admission queue of one, so each query starts only
// after the previous one returned.
#include <unistd.h>

#include <functional>
#include <memory>
#include <string>
#include <type_traits>
#include <utility>
#include <vector>

#include "cache/query_cache.h"
#include "check.h"
#include "common/rng.h"
#include "common/zipf.h"
#include "data/datasets.h"
#include "exec/batch.h"
#include "exec/compile.h"
#include "exec/executor.h"
#include "layers.h"
#include "obs/metrics.h"
#include "overlay/midas/midas.h"
#include "workloads.h"

namespace rbench {

using ripple::MidasOverlay;
using ripple::RippleParam;
using ripple::exec::WorkloadItem;

namespace {

// --- workload make-up -------------------------------------------------------

struct DataSpec {
  const char* dataset;
  size_t tuples;
  int dims;
  size_t peers;
};

// NBA-like d=6: 22,000 tuples over 512 peers, ~43 per peer, above the
// store's k-d index threshold of 32.
constexpr DataSpec kNbaSpec{"nba", 22000, 6, 512};
// Uniform d=3: 3 tuples per peer over 4096 peers.
constexpr DataSpec kLossySpec{"uniform", 12288, 3, 4096};

WorkloadItem Item(WorkloadItem::Kind kind, RippleParam r, int group) {
  WorkloadItem item;
  item.kind = kind;
  item.ripple = r;
  item.group = group;
  item.label = ripple::exec::WorkloadKindName(kind);
  return item;
}

WorkloadItem TopK(size_t k, RippleParam r, int group) {
  WorkloadItem item = Item(WorkloadItem::Kind::kTopK, r, group);
  item.k = k;
  return item;
}

/// inproc-mixed, 200 queries: 50 top-k instances each asked at r = fast,
/// slow and 2 (k alternating 10/20); 41 range queries (radius 0.2); 4
/// skyline instances at r = 2 and slow; 1 skyband (band 2, r = slow).
std::vector<WorkloadItem> MixedRound(ripple::Rng* rng) {
  std::vector<WorkloadItem> items;
  int group = 0;
  for (int i = 0; i < 50; ++i, ++group) {
    const size_t k = i % 2 == 0 ? 10 : 20;
    items.push_back(TopK(k, RippleParam::Fast(), group));
    items.push_back(TopK(k, RippleParam::Slow(), group));
    items.push_back(TopK(k, RippleParam::Hops(2), group));
  }
  for (int i = 0; i < 41; ++i) {
    WorkloadItem item =
        Item(WorkloadItem::Kind::kRange, RippleParam::Fast(), -1);
    item.radius = 0.2;
    items.push_back(item);
  }
  for (int i = 0; i < 4; ++i, ++group) {
    items.push_back(
        Item(WorkloadItem::Kind::kSkyline, RippleParam::Hops(2), group));
    items.push_back(
        Item(WorkloadItem::Kind::kSkyline, RippleParam::Slow(), group));
  }
  WorkloadItem band = Item(WorkloadItem::Kind::kSkyband, RippleParam::Slow(),
                           group);
  band.band = 2;
  items.push_back(band);
  rng->Shuffle(&items);
  return items;
}

/// sim-lossy, 48 queries: 20 top-k instances (k 10/20) and 4 skyline
/// instances, each asked at r = slow and r = 2.
std::vector<WorkloadItem> LossyRound(ripple::Rng* rng) {
  std::vector<WorkloadItem> items;
  int group = 0;
  for (int i = 0; i < 20; ++i, ++group) {
    const size_t k = i % 2 == 0 ? 10 : 20;
    items.push_back(TopK(k, RippleParam::Slow(), group));
    items.push_back(TopK(k, RippleParam::Hops(2), group));
  }
  for (int i = 0; i < 4; ++i, ++group) {
    items.push_back(
        Item(WorkloadItem::Kind::kSkyline, RippleParam::Slow(), group));
    items.push_back(
        Item(WorkloadItem::Kind::kSkyline, RippleParam::Hops(2), group));
  }
  rng->Shuffle(&items);
  return items;
}

// cache-churn: a population of 96 query instances (locality groups) over
// a cache of 24 entries; each batch draws 64 queries by Zipf(1.0)
// popularity. Every 8th group is a range query, the rest top-k (k 10/20,
// r slow for every third group). A round is 4 batches and a churn stage
// (8 joins, 8 leaves, then the cache is invalidated).
constexpr int kPopulation = 96;
constexpr size_t kCacheCapacity = 24;
constexpr size_t kBatchSize = 64;
constexpr int kBatchesPerStage = 4;
constexpr int kJoinsPerStage = 8;
constexpr int kLeavesPerStage = 8;
constexpr uint64_t kEpochStream = 1000000;

WorkloadItem PopulationItem(int group) {
  if (group % 8 == 7) {
    WorkloadItem item =
        Item(WorkloadItem::Kind::kRange, RippleParam::Fast(), group);
    item.radius = 0.2;
    return item;
  }
  return TopK(group % 2 == 0 ? 10 : 20,
              group % 3 == 0 ? RippleParam::Slow() : RippleParam::Fast(),
              group);
}

std::vector<WorkloadItem> ChurnBatch(const ripple::ZipfSampler& zipf,
                                     ripple::Rng* rng) {
  std::vector<WorkloadItem> items;
  for (size_t i = 0; i < kBatchSize; ++i) {
    items.push_back(PopulationItem(static_cast<int>(zipf.Sample(rng))));
  }
  return items;
}

ripple::exec::CompileOptions LossyCompileOptions() {
  ripple::exec::CompileOptions c;
  c.async = true;
  c.fault.loss_rate = 0.02;
  c.fault.dup_rate = 0.01;
  c.fault.delay_jitter = 0.2;
  c.retry.max_retries = 6;
  return c;
}

// --- set-up -----------------------------------------------------------------

struct Setup {
  ripple::TupleVec data;
  std::unique_ptr<MidasOverlay> overlay;
  std::vector<double> data_ms;
  std::vector<double> overlay_ms;
};

/// The data and the overlay are fixed, so that runs with different seeds
/// differ in their query streams only.
constexpr uint64_t kDataSeed = 7;
/// Set-up is repeated and its median reported.
constexpr int kSetupReps = 25;

/// Data generation plus MIDAS build (data-median splits), `reps` times;
/// the last build is kept.
Setup BuildSetup(const DataSpec& spec, int reps) {
  Setup s;
  for (int rep = 0; rep < reps; ++rep) {
    const Clock::time_point t0 = Clock::now();
    ripple::Rng data_rng(MixSeed(kDataSeed, 1));
    s.data = ripple::data::MakeByName(spec.dataset, spec.tuples, spec.dims,
                                      &data_rng);
    s.data_ms.push_back(MsSince(t0));
    const Clock::time_point t1 = Clock::now();
    ripple::MidasOptions opt;
    opt.dims = spec.dims;
    opt.seed = MixSeed(kDataSeed, 2);
    opt.split_rule = ripple::MidasSplitRule::kDataMedian;
    s.overlay = std::make_unique<MidasOverlay>(opt);
    for (const ripple::Tuple& t : s.data) s.overlay->InsertTuple(t);
    while (s.overlay->NumPeers() < spec.peers) s.overlay->Join();
    s.overlay_ms.push_back(MsSince(t1));
  }
  return s;
}

// --- traced compilation -----------------------------------------------------

/// Spans of the traced phase, kept in memory and written at the end.
struct SpanLog {
  Clock::time_point origin = Clock::now();
  std::vector<SpanRecord> spans;
  uint64_t next_id = 1;

  double Us(Clock::time_point t) const {
    return std::chrono::duration<double, std::micro>(t - origin).count();
  }
};

SpanLog& Spans() {
  static SpanLog log;
  return log;
}

/// Times one entry point call and records its spans: the query, the
/// seeded drivers' bootstrap (routing and walk; `seeded` only) and the
/// engine run with the layer self-times it contains.
template <typename Call>
auto TracedCall(const std::string& label, bool async, bool seeded,
                Call&& call) {
  SpanLog& log = Spans();
  const LayerTotals before = Layers();
  const Clock::time_point t0 = Clock::now();
  auto result = call();
  const Clock::time_point t1 = Clock::now();
  const LayerTotals d = Layers() - before;
  const double run_us = static_cast<double>(d.run_ns) / 1e3;
  const uint64_t root = log.next_id++;
  log.spans.push_back(SpanRecord{root, 0, "query", label, log.Us(t0),
                                 log.Us(t1), {}});
  // The seeded drivers bootstrap first, then run the engine.
  const double run_start = log.Us(t1) - run_us;
  if (seeded) {
    log.spans.push_back(SpanRecord{log.next_id++, root, "overlay.seed", label,
                                   log.Us(t0), run_start, {}});
  }
  const double policy_us = static_cast<double>(d.PolicyNs()) / 1e3;
  const double transport_us = static_cast<double>(d.transport_ns) / 1e3;
  log.spans.push_back(SpanRecord{
      log.next_id++, root, async ? "sim.run" : "ripple.run", label, run_start,
      log.Us(t1),
      {{"self_us", run_us - policy_us - transport_us},
       {"queries.local_us", static_cast<double>(d.local_ns) / 1e3},
       {"queries.merge_us", static_cast<double>(d.merge_ns) / 1e3},
       {"queries.relevance_us", static_cast<double>(d.relevance_ns) / 1e3},
       {"wire.encode_us", static_cast<double>(d.encode_ns) / 1e3},
       {"wire.decode_us", static_cast<double>(d.decode_ns) / 1e3},
       {"net.transport_us", transport_us},
       {"links_tested", static_cast<double>(d.links_tested)},
       {"links_pruned", static_cast<double>(d.links_pruned)}}});
  return result;
}

/// One traced executor job: the same request exec::CompileWorkload would
/// build, run through TimedPolicy / TimedEngine (and a TimedTransport
/// over a loopback for the async engine).
template <typename Policy, typename Driver>
ripple::exec::Job TracedJob(const MidasOverlay& overlay,
                            typename Policy::Query query,
                            const WorkloadItem& item,
                            const ripple::exec::CompileOptions& opts,
                            size_t index, ripple::PeerId initiator,
                            Driver driver) {
  ripple::exec::Job job;
  job.label = item.label;
  job.deadline_ms = item.deadline;
  job.run = [&overlay, query = std::move(query), item, opts, index, initiator,
             driver](ripple::exec::JobContext& ctx) {
    namespace ei = ripple::exec::internal;
    constexpr bool kSeeded = std::is_same_v<Policy, ripple::TopKPolicy> ||
                             std::is_same_v<Policy, ripple::SkylinePolicy>;
    const ripple::QueryRequest<Policy> req =
        ei::MakeRequest<MidasOverlay, Policy>(initiator, query, item, opts,
                                              index);
    if (opts.async) {
      ripple::AsyncEngine<MidasOverlay, TimedPolicy<Policy>> engine(
          &overlay, TimedPolicy<Policy>{});
      ei::WireEngine(&engine, ctx);
      ripple::net::LoopbackTransport loopback;
      TimedTransport timed(&loopback, /*push=*/true);
      engine.SetTransport(&timed);
      TimedEngine<decltype(engine), Policy> te(&engine);
      auto result = TracedCall(item.label, true, kSeeded,
                               [&] { return driver(overlay, te, req); });
      Layers().frames += loopback.frames_shipped();
      return ei::ToJobResult(std::move(result), initiator, req.trace_id);
    }
    ripple::Engine<MidasOverlay, TimedPolicy<Policy>> engine(
        &overlay, TimedPolicy<Policy>{});
    ei::WireEngine(&engine, ctx);
    TimedEngine<decltype(engine), Policy> te(&engine);
    auto result = TracedCall(item.label, false, kSeeded,
                             [&] { return driver(overlay, te, req); });
    return ei::ToJobResult(std::move(result), initiator, req.trace_id);
  };
  return job;
}

/// The traced counterpart of exec::CompileWorkload (plan == nullptr) and
/// exec::CompileBatchedWorkload (leaders of `plan` only, top-k leaders
/// seeded from the bound index as the plan says).
ripple::exec::BatchedWorkload CompileTraced(
    const MidasOverlay& overlay, const std::vector<WorkloadItem>& items,
    const ripple::exec::CompileOptions& opts,
    const ripple::exec::BatchPlan* plan) {
  using ripple::exec::BatchSlot;
  ripple::exec::BatchedWorkload out;
  ripple::exec::ForEachWorkloadInstance(
      overlay, items, opts.seed, &out.compiled.scorers,
      [&](size_t i, const WorkloadItem& item, ripple::PeerId initiator,
          auto query) {
        using Q = std::decay_t<decltype(query)>;
        const BatchSlot* slot = plan != nullptr ? &plan->slots[i] : nullptr;
        if (slot != nullptr && slot->role != BatchSlot::Role::kLead) return;
        if constexpr (std::is_same_v<Q, ripple::TopKQuery>) {
          const bool seeded = slot != nullptr && slot->has_seed;
          const ripple::TopKState seed =
              seeded ? slot->seed : ripple::TopKState{};
          out.compiled.jobs.push_back(TracedJob<ripple::TopKPolicy>(
              overlay, std::move(query), item, opts, i, initiator,
              [seeded, seed](const MidasOverlay& o, const auto& engine,
                             auto req) {
                if (seeded) req.initial_state = seed;
                return ripple::SeededTopK(o, engine, req);
              }));
        } else if constexpr (std::is_same_v<Q, ripple::SkylineQuery>) {
          out.compiled.jobs.push_back(TracedJob<ripple::SkylinePolicy>(
              overlay, std::move(query), item, opts, i, initiator,
              [](const MidasOverlay& o, const auto& engine, const auto& req) {
                return ripple::SeededSkyline(o, engine, req);
              }));
        } else if constexpr (std::is_same_v<Q, ripple::SkybandQuery>) {
          out.compiled.jobs.push_back(TracedJob<ripple::SkybandPolicy>(
              overlay, std::move(query), item, opts, i, initiator,
              [](const MidasOverlay&, const auto& engine, const auto& req) {
                return engine.Run(req);
              }));
        } else {
          out.compiled.jobs.push_back(TracedJob<ripple::RangePolicy>(
              overlay, std::move(query), item, opts, i, initiator,
              [](const MidasOverlay&, const auto& engine, const auto& req) {
                return engine.Run(req);
              }));
        }
        out.job_items.push_back(i);
      });
  return out;
}

// --- measurement ------------------------------------------------------------

/// Everything one phase of rounds accumulates.
struct Tally {
  uint64_t attempted = 0;
  uint64_t failed = 0;
  // Over the measured rounds only (the first round warms up):
  uint64_t measured = 0;
  uint64_t answered = 0;  // measured and correct
  LatencyLog latency_ms;
  double timed_ms = 0;
  double cpu_ms = 0;
  double hops = 0, messages = 0, bytes = 0, tuples = 0, peers = 0;
  double sim_time = 0;
  // Executor timings, ms.
  LatencyLog wait_ms, run_ms;
  ripple::net::Coverage coverage;
};

/// Checks one executed round against the reference and folds it into the
/// tally. `latency_ms[i]` is item i's latency.
void Absorb(const MidasOverlay& overlay, const std::vector<WorkloadItem>& items,
            uint64_t seed, const ripple::exec::WorkloadResult& result,
            const std::vector<double>& latency_ms, bool measured,
            AnswerChecker* checker, Tally* tally, Report* report) {
  std::vector<std::unique_ptr<ripple::Scorer>> scorers;
  ripple::exec::ForEachWorkloadInstance(
      overlay, items, seed, &scorers,
      [&](size_t i, const WorkloadItem& item, ripple::PeerId, auto query) {
        const ripple::exec::QueryOutcome& q = result.queries[i];
        tally->attempted += 1;
        std::string err;
        if (q.shed) {
          err = "shed";
        } else if (!q.complete) {
          err = "incomplete";
        } else {
          err = checker->Check(Describe(query), q.answer);
        }
        if (!err.empty()) {
          tally->failed += 1;
          report->Fail(item.label + " r=" + item.ripple.ToString() + ": " +
                       err);
        }
        if (!measured) return;
        tally->measured += 1;
        tally->hops += static_cast<double>(q.stats.latency_hops);
        tally->messages += static_cast<double>(q.stats.messages);
        tally->bytes += static_cast<double>(q.stats.bytes_on_wire);
        tally->tuples += static_cast<double>(q.stats.tuples_shipped);
        tally->peers += static_cast<double>(q.stats.peers_visited);
        tally->sim_time += q.completion_time;
        if (err.empty()) {
          tally->answered += 1;
          tally->latency_ms.Add(latency_ms[i]);
        }
        if (q.worker >= 0) {
          tally->wait_ms.Add(q.wait_ms);
          tally->run_ms.Add(q.run_ms);
        }
      });
  if (measured) tally->coverage += result.coverage;
}

double PerQuery(double total, uint64_t n) {
  return n > 0 ? total / static_cast<double>(n) : 0.0;
}

double SelfHwmMb() {
  ProcSample s;
  return ReadProc(getpid(), &s) ? s.hwm_kb / 1024.0 : 0.0;
}

/// The end-to-end metrics every in-process workload reports.
/// `hop_clock` selects what sim_time_per_query reads: the recursive
/// engine has no simulated clock, its clock is latency_hops.
void AddEndToEnd(const Tally& t, const Setup& setup, bool hop_clock,
                 Report* report) {
  std::vector<double> setup_s;
  for (size_t i = 0; i < setup.data_ms.size(); ++i) {
    setup_s.push_back((setup.data_ms[i] + setup.overlay_ms[i]) / 1e3);
  }
  report->Set("setup_s", Median(setup_s));
  report->Set("qps", static_cast<double>(t.answered) / (t.timed_ms / 1e3));
  report->Set("latency_p50_ms", t.latency_ms.Percentile(0.50));
  report->Set("latency_p99_ms", t.latency_ms.Percentile(0.99));
  report->Set("cpu_ms_per_query", PerQuery(t.cpu_ms, t.measured));
  report->Set("rss_mb", SelfHwmMb());
  report->Set("hops_per_query", PerQuery(t.hops, t.measured));
  report->Set("sim_time_per_query",
              PerQuery(hop_clock ? t.hops : t.sim_time, t.measured));
  report->Set("messages_per_query", PerQuery(t.messages, t.measured));
  report->Set("bytes_per_query", PerQuery(t.bytes, t.measured));
  report->Set("tuples_per_query", PerQuery(t.tuples, t.measured));
  report->Set("peers_per_query", PerQuery(t.peers, t.measured));
}

uint64_t CounterValue(const char* name) {
  for (const auto& [n, v] : ripple::obs::Registry::Global().CounterValues()) {
    if (n == name) return v;
  }
  return 0;
}

/// What the traced phase adds on top of a Tally.
struct TraceExtras {
  LayerTotals layers;
  uint64_t tuples_scanned = 0, dominance_cmps = 0, heap_pushes = 0;
  double untraced_ms = 0, traced_ms = 0;
  // cache-churn
  ripple::cache::CacheStats cache;
  uint64_t follows = 0;
  double plan_ms = 0;
  uint64_t planned = 0;
  double post_churn_local_ns = 0;
  uint64_t post_churn_queries = 0;
  std::vector<double> join_us, leave_us;
};

/// The per-layer metrics of an in-process workload. Layers it does not
/// exercise are left unset and read 0 in the report.
void AddPerLayer(const Tally& t, const TraceExtras& x, const Setup& setup,
                 bool async, Report* report) {
  const uint64_t n = t.measured;
  const auto us = [&](uint64_t ns) {
    return PerQuery(static_cast<double>(ns) / 1e3, n);
  };
  const LayerTotals& l = x.layers;
  report->Set("store.tuples_scanned_per_query",
              PerQuery(static_cast<double>(x.tuples_scanned), n));
  report->Set("store.heap_pushes_per_query",
              PerQuery(static_cast<double>(x.heap_pushes), n));
  report->Set("store.post_churn_local_us_per_query",
              PerQuery(x.post_churn_local_ns / 1e3, x.post_churn_queries));
  report->Set("geom.dominance_cmps_per_query",
              PerQuery(static_cast<double>(x.dominance_cmps), n));
  report->Set("queries.local_us_per_query", us(l.local_ns));
  report->Set("queries.merge_us_per_query", us(l.merge_ns));
  report->Set("queries.relevance_us_per_query", us(l.relevance_ns));
  report->Set("queries.links_tested_per_query",
              PerQuery(static_cast<double>(l.links_tested), n));
  report->Set("queries.links_pruned_per_query",
              PerQuery(static_cast<double>(l.links_pruned), n));
  double seed_ns = 0;
  for (const SpanRecord& s : Spans().spans) {
    if (s.name == "overlay.seed") seed_ns += (s.end_us - s.start_us) * 1e3;
  }
  report->Set("overlay.seed_us_per_query", PerQuery(seed_ns / 1e3, n));
  report->Set("overlay.join_us", Median(x.join_us));
  report->Set("overlay.leave_us", Median(x.leave_us));
  const double self_ns = static_cast<double>(l.run_ns) -
                         static_cast<double>(l.PolicyNs()) -
                         static_cast<double>(l.transport_ns);
  report->Set(async ? "sim.self_us_per_query" : "ripple.self_us_per_query",
              PerQuery(self_ns / 1e3, n));
  report->Set("wire.encode_us_per_query", us(l.encode_ns));
  report->Set("wire.decode_us_per_query", us(l.decode_ns));
  report->Set("wire.frames_per_query",
              PerQuery(static_cast<double>(l.frames), n));
  report->Set("sim.retries_per_query",
              PerQuery(static_cast<double>(t.coverage.retries), n));
  report->Set("sim.timeouts_per_query",
              PerQuery(static_cast<double>(t.coverage.timeouts), n));
  report->Set("sim.dedup_per_query",
              PerQuery(static_cast<double>(t.coverage.duplicates_suppressed),
                       n));
  report->Set("sim.acks_per_query",
              PerQuery(static_cast<double>(t.coverage.acks), n));
  report->Set("net.transport_us_per_query", us(l.transport_ns));
  report->Set("exec.wait_ms_p50", t.wait_ms.Percentile(0.5));
  report->Set("exec.run_ms_p50", t.run_ms.Percentile(0.5));
  report->Set("exec.run_ms_p99", t.run_ms.Percentile(0.99));
  const double lookups =
      static_cast<double>(x.cache.hits + x.cache.misses);
  report->Set("cache.lookups", lookups);
  report->Set("cache.hits", static_cast<double>(x.cache.hits));
  report->Set("cache.hit_rate",
              lookups > 0 ? static_cast<double>(x.cache.hits) / lookups : 0);
  report->Set("cache.follows", static_cast<double>(x.follows));
  report->Set("cache.evictions", static_cast<double>(x.cache.evictions));
  report->Set("cache.invalidations",
              static_cast<double>(x.cache.invalidations));
  report->Set("cache.plan_us_per_query",
              PerQuery(x.plan_ms * 1e3, x.planned));
  report->Set("setup.data_ms", Median(setup.data_ms));
  report->Set("setup.overlay_ms", Median(setup.overlay_ms));
  report->Set("obs.untraced_wall_ms", x.untraced_ms);
  report->Set("obs.traced_wall_ms", x.traced_ms);
  report->Set("obs.trace_overhead_pct",
              x.untraced_ms > 0
                  ? (x.traced_ms - x.untraced_ms) / x.untraced_ms * 100.0
                  : 0);
  report->Set("obs.spans", static_cast<double>(Spans().spans.size()));
}

void FlushSpans(const Options& opts, Report* report) {
  const std::string path =
      opts.span_dir + "/" + opts.workload + ".spans.jsonl";
  if (WriteSpans(path, Spans().spans)) {
    report->notes.push_back("spans written to " + path);
  } else {
    report->notes.push_back("could not write spans to " + path);
  }
}

/// kernel.* counters of the global registry at the start of tracing.
struct KernelSnapshot {
  uint64_t tuples_scanned = 0, dominance_cmps = 0, heap_pushes = 0;
};

KernelSnapshot ReadKernels() {
  return KernelSnapshot{CounterValue("kernel.tuples_scanned"),
                        CounterValue("kernel.dominance_cmps"),
                        CounterValue("kernel.heap_pushes")};
}

/// Starts the measured part of a traced phase: the engines publish their
/// kernel counters, and the layer totals and spans start empty.
KernelSnapshot StartTracing() {
  ripple::obs::Registry::EnableGlobal(true);
  Layers() = LayerTotals{};
  Spans() = SpanLog{};
  return ReadKernels();
}

void FinishTracing(const KernelSnapshot& start, TraceExtras* x) {
  const KernelSnapshot end = ReadKernels();
  x->layers = Layers();
  x->tuples_scanned = end.tuples_scanned - start.tuples_scanned;
  x->dominance_cmps = end.dominance_cmps - start.dominance_cmps;
  x->heap_pushes = end.heap_pushes - start.heap_pushes;
}

// --- the plain (non-batched) workloads --------------------------------------

using RoundFn = std::vector<WorkloadItem> (*)(ripple::Rng*);

struct PlainSpec {
  DataSpec data;
  RoundFn round;
  bool async;
};

/// Runs `rounds` rounds — or, with rounds < 0, until the measured time
/// reaches `seconds` — and returns the number run. Round 0 warms up and
/// is checked but not measured; `on_measure` runs before round 1.
int RunPlainRounds(const PlainSpec& spec, const Options& opts,
                   const MidasOverlay& overlay, int rounds, bool traced,
                   const std::function<void()>& on_measure,
                   AnswerChecker* checker, Tally* tally, Report* report) {
  ripple::exec::ExecutorOptions eo;
  eo.threads = 1;
  eo.queue_capacity = 1;
  eo.seed = opts.seed;
  ripple::exec::Executor executor(eo);
  for (int r = 0;; ++r) {
    if (rounds >= 0 ? r >= rounds
                    : (r > 1 && tally->timed_ms >= opts.seconds * 1e3)) {
      return r;
    }
    if (r == 1 && on_measure) on_measure();
    ripple::Rng round_rng(MixSeed(opts.seed, 1000 + r));
    const std::vector<WorkloadItem> items = spec.round(&round_rng);
    ripple::exec::CompileOptions copts =
        spec.async ? LossyCompileOptions() : ripple::exec::CompileOptions{};
    copts.seed = MixSeed(opts.seed, 5000 + r);
    const bool measured = r > 0;
    const Clock::time_point t0 = Clock::now();
    const double cpu0 = ProcessCpuMs();
    ripple::exec::WorkloadResult result;
    if (traced) {
      ripple::exec::BatchedWorkload bw =
          CompileTraced(overlay, items, copts, nullptr);
      result = executor.Run(bw.compiled.jobs, overlay.NumPeers());
    } else {
      ripple::exec::CompiledWorkload cw =
          ripple::exec::CompileWorkload(overlay, items, copts);
      result = executor.Run(cw.jobs, overlay.NumPeers());
    }
    if (measured) {
      tally->cpu_ms += ProcessCpuMs() - cpu0;
      tally->timed_ms += MsSince(t0);
    }
    std::vector<double> latency(items.size());
    for (size_t i = 0; i < items.size(); ++i) {
      latency[i] = result.queries[i].run_ms;
    }
    Absorb(overlay, items, copts.seed, result, latency, measured, checker,
           tally, report);
    // Later rounds draw new instances. A traced run keeps every answer,
    // to compare its traced pass with the untraced one.
    if (!opts.trace) checker->Forget();
  }
}

Report RunPlain(const PlainSpec& spec, const Options& opts) {
  Report report;
  const std::string self_test = ReferenceSelfTest();
  if (!self_test.empty()) report.Fail(self_test);
  Setup setup = BuildSetup(spec.data, kSetupReps);
  const RefData ref(setup.data);
  AnswerChecker checker(&ref);
  Tally tally;
  if (!opts.trace) {
    RunPlainRounds(spec, opts, *setup.overlay, -1, false, nullptr, &checker,
                   &tally, &report);
    AddEndToEnd(tally, setup, !spec.async, &report);
  } else {
    // The same rounds twice, each from a fresh build: untraced for the
    // overhead base, then traced for the layer numbers.
    Options half = opts;
    half.seconds = opts.seconds / 2;
    Tally untraced;
    const int rounds = RunPlainRounds(spec, half, *setup.overlay, -1, false,
                                      nullptr, &checker, &untraced, &report);
    setup = BuildSetup(spec.data, 1);
    TraceExtras x;
    KernelSnapshot kernels;
    RunPlainRounds(spec, opts, *setup.overlay, rounds, true,
                   [&] { kernels = StartTracing(); }, &checker, &tally,
                   &report);
    FinishTracing(kernels, &x);
    x.untraced_ms = untraced.timed_ms;
    x.traced_ms = tally.timed_ms;
    tally.attempted += untraced.attempted;
    tally.failed += untraced.failed;
    AddPerLayer(tally, x, setup, spec.async, &report);
    FlushSpans(opts, &report);
  }
  report.attempted = tally.attempted;
  report.failed = tally.failed;
  report.notes.push_back("queries: " + std::to_string(tally.attempted) +
                         " attempted, " + std::to_string(tally.failed) +
                         " failed, " + std::to_string(tally.measured) +
                         " measured");
  return report;
}

}  // namespace

Report RunInprocMixed(const Options& opts) {
  return RunPlain(PlainSpec{kNbaSpec, MixedRound, false}, opts);
}

Report RunSimLossy(const Options& opts) {
  return RunPlain(PlainSpec{kLossySpec, LossyRound, true}, opts);
}

// --- cache-churn ------------------------------------------------------------

namespace {

struct ChurnState {
  Setup setup;
  ripple::cache::QueryCache cache;
  ripple::Rng draws;  // which population members each batch asks
  // Which peers leave: fixed like the data, so that the overlay evolves
  // the same way under every seed.
  ripple::Rng leaves;
  ChurnState(Setup s, uint64_t seed)
      : setup(std::move(s)),
        cache(ripple::cache::CacheOptions{kCacheCapacity, 0}),
        draws(MixSeed(seed, 7)),
        leaves(MixSeed(kDataSeed, 8)) {}
};

/// Runs churn rounds (kBatchesPerStage batches, then one churn stage)
/// until the measured time reaches `seconds` (rounds < 0) or for
/// `rounds` rounds; the first round warms up. Returns rounds run.
int RunChurnRounds(const Options& opts, ChurnState* st, int rounds,
                   bool traced, const std::function<void()>& on_measure,
                   AnswerChecker* checker, Tally* tally, TraceExtras* x,
                   Report* report) {
  MidasOverlay& overlay = *st->setup.overlay;
  const ripple::ZipfSampler zipf(kPopulation, 1.0);
  ripple::exec::ExecutorOptions eo;
  eo.threads = 1;
  eo.queue_capacity = 1;
  eo.seed = opts.seed;
  ripple::exec::Executor executor(eo);
  ripple::exec::CompileOptions copts;
  ripple::exec::BatchOptions bopts;
  bopts.cache = &st->cache;
  for (int r = 0;; ++r) {
    if (rounds >= 0 ? r >= rounds
                    : (r > 1 && tally->timed_ms >= opts.seconds * 1e3)) {
      return r;
    }
    if (r == 1 && on_measure) on_measure();
    const bool measured = r > 0;
    // Each group keeps its instance for two rounds, so that every
    // instance is asked again after a churn stage; the population is
    // renewed after that, so a run averages over many instances.
    copts.seed = MixSeed(opts.seed, kEpochStream + r / 2);
    if (r % 2 == 0 && !opts.trace) checker->Forget();
    for (int b = 0; b < kBatchesPerStage; ++b) {
      const std::vector<WorkloadItem> items = ChurnBatch(zipf, &st->draws);
      const ripple::cache::CacheStats stats0 = st->cache.stats();
      const uint64_t local0 = Layers().local_ns;
      const Clock::time_point t0 = Clock::now();
      const double cpu0 = ProcessCpuMs();
      ripple::exec::BatchPlan plan =
          ripple::exec::PlanWorkload(overlay, items, copts, bopts);
      const double plan_ms = MsSince(t0);
      ripple::exec::BatchedWorkload bw =
          traced ? CompileTraced(overlay, plan.items, copts, &plan)
                 : ripple::exec::CompileBatchedWorkload(overlay, plan, copts);
      ripple::exec::WorkloadResult lead =
          executor.Run(bw.compiled.jobs, overlay.NumPeers());
      ripple::exec::WorkloadResult full = ripple::exec::ExpandBatchedResult(
          plan, bw.job_items, std::move(lead));
      ripple::exec::AbsorbBatchedResults(overlay, plan, copts, full, bopts);
      if (measured) {
        tally->cpu_ms += ProcessCpuMs() - cpu0;
        tally->timed_ms += MsSince(t0);
        const ripple::cache::CacheStats& s = st->cache.stats();
        x->cache.hits += s.hits - stats0.hits;
        x->cache.misses += s.misses - stats0.misses;
        x->cache.evictions += s.evictions - stats0.evictions;
        x->follows += plan.follows;
        x->plan_ms += plan_ms;
        x->planned += items.size();
        if (b == 0) {  // the first batch after a churn stage
          x->post_churn_local_ns +=
              static_cast<double>(Layers().local_ns - local0);
          x->post_churn_queries += plan.leads;
        }
      }
      // Hits and followers are answered at plan time; leaders when their
      // executor run returns.
      const double plan_share = plan_ms / static_cast<double>(items.size());
      std::vector<double> latency(items.size(), plan_share);
      for (size_t i = 0; i < items.size(); ++i) {
        if (plan.slots[i].role == ripple::exec::BatchSlot::Role::kLead) {
          latency[i] += full.queries[i].run_ms;
        }
      }
      Absorb(overlay, plan.items, copts.seed, full, latency, measured,
             checker, tally, report);
    }
    // Churn stage: peers join (zone splits), then leave (merges); tuples
    // move between peers and the cache is invalidated wholesale.
    const Clock::time_point t0 = Clock::now();
    const double cpu0 = ProcessCpuMs();
    for (int j = 0; j < kJoinsPerStage; ++j) {
      const Clock::time_point tj = Clock::now();
      overlay.Join();
      x->join_us.push_back(MsSince(tj) * 1e3);
    }
    for (int j = 0; j < kLeavesPerStage; ++j) {
      const Clock::time_point tl = Clock::now();
      const ripple::Status s = overlay.LeaveRandom(&st->leaves);
      x->leave_us.push_back(MsSince(tl) * 1e3);
      if (!s.ok()) report->Fail("leave: " + s.message());
    }
    const uint64_t inval0 = st->cache.stats().invalidations;
    st->cache.InvalidateAll();
    if (measured) {
      tally->cpu_ms += ProcessCpuMs() - cpu0;
      tally->timed_ms += MsSince(t0);
      x->cache.invalidations += st->cache.stats().invalidations - inval0;
    }
  }
}

}  // namespace

Report RunCacheChurn(const Options& opts) {
  Report report;
  const std::string self_test = ReferenceSelfTest();
  if (!self_test.empty()) report.Fail(self_test);
  Setup first = BuildSetup(kNbaSpec, kSetupReps);
  // Join and leave move tuples between peers and never drop one, so the
  // reference over the generated set stays exact through every stage.
  const RefData ref(first.data);
  AnswerChecker checker(&ref);
  Tally tally;
  TraceExtras x;
  if (!opts.trace) {
    ChurnState st(std::move(first), opts.seed);
    RunChurnRounds(opts, &st, -1, false, nullptr, &checker, &tally, &x,
                   &report);
    AddEndToEnd(tally, st.setup, true, &report);
  } else {
    Options half = opts;
    half.seconds = opts.seconds / 2;
    Tally untraced;
    int rounds = 0;
    {
      TraceExtras ignored;
      ChurnState st(std::move(first), opts.seed);
      rounds = RunChurnRounds(half, &st, -1, false, nullptr, &checker,
                              &untraced, &ignored, &report);
    }
    ChurnState st(BuildSetup(kNbaSpec, 1), opts.seed);
    KernelSnapshot kernels;
    RunChurnRounds(opts, &st, rounds, true,
                   [&] { kernels = StartTracing(); }, &checker, &tally, &x,
                   &report);
    FinishTracing(kernels, &x);
    x.untraced_ms = untraced.timed_ms;
    x.traced_ms = tally.timed_ms;
    tally.attempted += untraced.attempted;
    tally.failed += untraced.failed;
    AddPerLayer(tally, x, st.setup, false, &report);
    FlushSpans(opts, &report);
  }
  report.attempted = tally.attempted;
  report.failed = tally.failed;
  report.notes.push_back("queries: " + std::to_string(tally.attempted) +
                         " attempted, " + std::to_string(tally.failed) +
                         " failed, " + std::to_string(tally.measured) +
                         " measured");
  return report;
}

}  // namespace rbench
