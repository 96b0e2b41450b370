// The four workloads of the repository benchmark. Each runs whole rounds
// of a fixed query mix in a closed loop, checks every answer against the
// brute-force reference and the property checks, and returns the
// end-to-end metrics (untraced) or the per-layer metrics (traced).
#ifndef RIPPLEBENCH_WORKLOADS_H_
#define RIPPLEBENCH_WORKLOADS_H_

#include <sys/types.h>

#include <cstdint>
#include <string>
#include <vector>

#include "util.h"

namespace rbench {

struct Options {
  std::string workload;
  uint64_t seed = 1;
  double seconds = 10;
  bool trace = false;
  /// Where the traced run writes its spans.
  std::string span_dir;
  // live-udp only: the cluster the launcher started.
  std::string peers_file;
  std::vector<pid_t> daemon_pids;
  /// Spawn-to-healthy times of the cluster start-ups, ms.
  std::vector<double> ready_ms;
};

Report RunInprocMixed(const Options& opts);
Report RunSimLossy(const Options& opts);
Report RunCacheChurn(const Options& opts);
Report RunLiveUdp(const Options& opts);

}  // namespace rbench

#endif  // RIPPLEBENCH_WORKLOADS_H_
