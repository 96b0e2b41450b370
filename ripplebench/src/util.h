// Shared plumbing of the repository benchmark: clocks, percentiles,
// process accounting read from /proc, and the one-line JSON report.
#ifndef RIPPLEBENCH_UTIL_H_
#define RIPPLEBENCH_UTIL_H_

#include <sys/types.h>

#include <chrono>
#include <cstdint>
#include <map>
#include <string>
#include <utility>
#include <vector>

namespace rbench {

using Clock = std::chrono::steady_clock;

inline double MsSince(Clock::time_point t0) {
  return std::chrono::duration<double, std::milli>(Clock::now() - t0).count();
}

/// CPU time (user + system) of every thread of this process, in ms.
double ProcessCpuMs();

double Median(std::vector<double> values);

/// Latencies in constant memory, so the benchmark's own footprint does not
/// grow with the number of queries a run completes (rss_mb would read it).
/// Values fall into log-spaced buckets 0.46% wide; each bucket keeps its
/// count and the largest value it saw. Percentile() is the nearest-rank
/// percentile up to its bucket, reported as that largest measured value.
class LatencyLog {
 public:
  LatencyLog();
  void Add(double ms);
  /// p in (0, 1]; 0 when empty.
  double Percentile(double p) const;
  uint64_t count() const { return count_; }

 private:
  static constexpr double kMinMs = 1e-4;   // bucket 0 holds everything below
  static constexpr int kPerDecade = 500;
  static constexpr int kBuckets = 9 * kPerDecade;  // up to 1e5 ms
  std::vector<uint64_t> counts_;
  std::vector<double> max_;
  uint64_t count_ = 0;
};

/// Read-only views of another process's /proc entries.
struct ProcSample {
  double cpu_ms = 0;    // utime + stime
  double rss_kb = 0;    // VmRSS
  double hwm_kb = 0;    // VmHWM (peak resident size)
};
/// False when the process is gone or its entries are unreadable.
bool ReadProc(pid_t pid, ProcSample* out);

/// Splitmix64 mixing of (seed, stream) into an independent 64-bit seed.
uint64_t MixSeed(uint64_t seed, uint64_t stream);

/// A metric of BENCHMARK.json: its name and unit.
struct MetricSpec {
  const char* name;
  const char* unit;
};

/// The end-to-end metrics (printed by untraced runs) and the per-layer
/// metrics (printed by traced runs), in BENCHMARK.json order.
extern const std::vector<MetricSpec> kEndToEndMetrics;
extern const std::vector<MetricSpec> kPerLayerMetrics;

/// What every workload returns to main: the operation accounting the
/// driver checks, metric values by name, and human-readable lines printed
/// before the JSON result.
struct Report {
  bool correct = true;
  uint64_t attempted = 0;
  uint64_t failed = 0;
  std::map<std::string, double> values;
  std::vector<std::string> notes;

  void Set(const std::string& name, double value) { values[name] = value; }
  /// Marks the run incorrect and records why (the first few reasons).
  void Fail(const std::string& why) {
    correct = false;
    if (++check_failures <= kMaxFailureNotes) {
      notes.push_back("CHECK FAILED: " + why);
    }
  }

  static constexpr int kMaxFailureNotes = 20;
  int check_failures = 0;
};

/// `{"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}`
/// with every metric of `specs`, in order. A per-layer metric the
/// workload did not set reads 0 (its layer did no work); a missing
/// end-to-end metric marks the report incorrect.
std::string ReportJson(Report report, const std::vector<MetricSpec>& specs,
                       bool missing_is_zero);

/// One span of the traced run: a named interval on the benchmark's clock
/// (microseconds since the traced phase began), the span that caused it,
/// and the layer self-times the interval contains.
struct SpanRecord {
  uint64_t id = 0;
  uint64_t parent = 0;  // 0 = root
  std::string name;
  std::string label;
  double start_us = 0;
  double end_us = 0;
  std::vector<std::pair<std::string, double>> attrs;
};

/// Writes the spans as JSON lines; returns false on an I/O error.
bool WriteSpans(const std::string& path, const std::vector<SpanRecord>& spans);

}  // namespace rbench

#endif  // RIPPLEBENCH_UTIL_H_
