#include "util.h"

#include <time.h>
#include <unistd.h>

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <fstream>
#include <sstream>

namespace rbench {

double ProcessCpuMs() {
  timespec ts{};
  clock_gettime(CLOCK_PROCESS_CPUTIME_ID, &ts);
  return static_cast<double>(ts.tv_sec) * 1e3 +
         static_cast<double>(ts.tv_nsec) / 1e6;
}

LatencyLog::LatencyLog() : counts_(kBuckets, 0), max_(kBuckets, 0.0) {}

void LatencyLog::Add(double ms) {
  int b = 0;
  if (ms > kMinMs) {
    b = static_cast<int>(std::log10(ms / kMinMs) * kPerDecade);
    b = std::min(b, kBuckets - 1);
  }
  counts_[b] += 1;
  max_[b] = std::max(max_[b], ms);
  count_ += 1;
}

double LatencyLog::Percentile(double p) const {
  if (count_ == 0) return 0.0;
  const double rank = std::ceil(p * static_cast<double>(count_));
  const uint64_t want = rank < 1.0 ? 1 : static_cast<uint64_t>(rank);
  uint64_t seen = 0;
  for (int b = 0; b < kBuckets; ++b) {
    seen += counts_[b];
    if (seen >= want) return max_[b];
  }
  return max_[kBuckets - 1];
}

double Median(std::vector<double> values) {
  if (values.empty()) return 0.0;
  std::sort(values.begin(), values.end());
  const size_t n = values.size();
  return n % 2 == 1 ? values[n / 2]
                    : 0.5 * (values[n / 2 - 1] + values[n / 2]);
}

bool ReadProc(pid_t pid, ProcSample* out) {
  const std::string base = "/proc/" + std::to_string(pid);
  std::ifstream stat(base + "/stat");
  std::string line;
  if (!std::getline(stat, line)) return false;
  // The command name is parenthesized and may hold spaces: fields resume
  // after the last ')'. utime and stime are fields 14 and 15.
  const size_t close = line.rfind(')');
  if (close == std::string::npos) return false;
  std::istringstream rest(line.substr(close + 2));
  std::string field;
  double utime = 0, stime = 0;
  for (int i = 3; i <= 15 && rest >> field; ++i) {
    if (i == 14) utime = std::stod(field);
    if (i == 15) stime = std::stod(field);
  }
  const double tick = static_cast<double>(sysconf(_SC_CLK_TCK));
  out->cpu_ms = (utime + stime) * 1000.0 / tick;
  std::ifstream status(base + "/status");
  while (std::getline(status, line)) {
    double* target = nullptr;
    if (line.rfind("VmRSS:", 0) == 0) target = &out->rss_kb;
    if (line.rfind("VmHWM:", 0) == 0) target = &out->hwm_kb;
    if (target != nullptr) *target = std::stod(line.substr(6));
  }
  return true;
}

uint64_t MixSeed(uint64_t seed, uint64_t stream) {
  uint64_t z = seed + 0x9e3779b97f4a7c15ULL * (stream + 1);
  z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ULL;
  z = (z ^ (z >> 27)) * 0x94d049bb133111ebULL;
  return z ^ (z >> 31);
}

namespace {

std::string JsonNumber(double v) {
  if (!std::isfinite(v)) return "null";
  char buf[64];
  std::snprintf(buf, sizeof(buf), "%.17g", v);
  return buf;
}

std::string JsonString(const std::string& s) {
  std::string out = "\"";
  for (char c : s) {
    if (c == '"' || c == '\\') {
      out += '\\';
      out += c;
    } else if (static_cast<unsigned char>(c) < 0x20) {
      char buf[8];
      std::snprintf(buf, sizeof(buf), "\\u%04x", c);
      out += buf;
    } else {
      out += c;
    }
  }
  return out + "\"";
}

}  // namespace

const std::vector<MetricSpec> kEndToEndMetrics = {
    {"setup_s", "s"},
    {"qps", "1/s"},
    {"latency_p50_ms", "ms"},
    {"latency_p99_ms", "ms"},
    {"cpu_ms_per_query", "ms"},
    {"rss_mb", "MiB"},
    {"hops_per_query", "hops"},
    {"sim_time_per_query", "sim"},
    {"messages_per_query", "count"},
    {"bytes_per_query", "bytes"},
    {"tuples_per_query", "count"},
    {"peers_per_query", "count"},
};

const std::vector<MetricSpec> kPerLayerMetrics = {
    {"store.tuples_scanned_per_query", "count"},
    {"store.heap_pushes_per_query", "count"},
    {"store.post_churn_local_us_per_query", "us"},
    {"geom.dominance_cmps_per_query", "count"},
    {"queries.local_us_per_query", "us"},
    {"queries.merge_us_per_query", "us"},
    {"queries.relevance_us_per_query", "us"},
    {"queries.links_tested_per_query", "count"},
    {"queries.links_pruned_per_query", "count"},
    {"overlay.seed_us_per_query", "us"},
    {"overlay.join_us", "us"},
    {"overlay.leave_us", "us"},
    {"ripple.self_us_per_query", "us"},
    {"wire.encode_us_per_query", "us"},
    {"wire.decode_us_per_query", "us"},
    {"wire.frames_per_query", "count"},
    {"sim.self_us_per_query", "us"},
    {"sim.retries_per_query", "count"},
    {"sim.timeouts_per_query", "count"},
    {"sim.dedup_per_query", "count"},
    {"sim.acks_per_query", "count"},
    {"net.transport_us_per_query", "us"},
    {"net.daemon_cpu_ms_per_query", "ms"},
    {"net.datagrams_per_query", "count"},
    {"net.retransmissions_per_query", "count"},
    {"net.oversize_dropped", "count"},
    {"net.links_unresolved", "count"},
    {"net.oversize_failed_queries", "count"},
    {"net.sessions_total_end", "count"},
    {"net.open_sessions_end", "count"},
    {"net.pending_requests_end", "count"},
    {"net.rss_growth_kb_per_query", "KiB"},
    {"exec.wait_ms_p50", "ms"},
    {"exec.run_ms_p50", "ms"},
    {"exec.run_ms_p99", "ms"},
    {"cache.lookups", "count"},
    {"cache.hits", "count"},
    {"cache.hit_rate", "ratio"},
    {"cache.follows", "count"},
    {"cache.evictions", "count"},
    {"cache.invalidations", "count"},
    {"cache.plan_us_per_query", "us"},
    {"setup.data_ms", "ms"},
    {"setup.overlay_ms", "ms"},
    {"setup.daemons_ready_ms", "ms"},
    {"obs.untraced_wall_ms", "ms"},
    {"obs.traced_wall_ms", "ms"},
    {"obs.trace_overhead_pct", "%"},
    {"obs.spans", "count"},
};

std::string ReportJson(Report report, const std::vector<MetricSpec>& specs,
                       bool missing_is_zero) {
  std::string metrics;
  for (const MetricSpec& spec : specs) {
    auto it = report.values.find(spec.name);
    if (it == report.values.end() && !missing_is_zero) {
      report.correct = false;
    }
    const double value = it != report.values.end() ? it->second : 0.0;
    if (!metrics.empty()) metrics += ", ";
    metrics += JsonString(spec.name) + ": {\"value\": " + JsonNumber(value) +
               ", \"unit\": " + JsonString(spec.unit) + "}";
  }
  std::string out = "{\"correct\": ";
  out += report.correct ? "true" : "false";
  out += ", \"attempted\": " + std::to_string(report.attempted);
  out += ", \"failed\": " + std::to_string(report.failed);
  return out + ", \"metrics\": {" + metrics + "}}";
}

bool WriteSpans(const std::string& path,
                const std::vector<SpanRecord>& spans) {
  std::ofstream f(path);
  if (!f) return false;
  for (const SpanRecord& s : spans) {
    f << "{\"id\": " << s.id << ", \"parent\": " << s.parent
      << ", \"name\": " << JsonString(s.name)
      << ", \"label\": " << JsonString(s.label)
      << ", \"start_us\": " << JsonNumber(s.start_us)
      << ", \"end_us\": " << JsonNumber(s.end_us);
    for (const auto& [k, v] : s.attrs) {
      f << ", " << JsonString(k) << ": " << JsonNumber(v);
    }
    f << "}\n";
  }
  return static_cast<bool>(f);
}

}  // namespace rbench
