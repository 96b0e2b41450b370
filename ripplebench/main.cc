// ripplebench: runs one workload of the repository benchmark and prints
// human-readable lines followed by one JSON result line. Normally started
// by run.py, which builds this binary and, for live-udp, the daemons.
//
//   ripplebench --workload=<inproc-mixed|sim-lossy|cache-churn|live-udp>
//               --seed=<n> --seconds=<s> --trace=<0|1> --span-dir=<dir>
//               [--peers-file=<path> --daemon-pids=<a,b,c>
//                --ready-ms=<x,y,z>]                     (live-udp)
#include <cstdio>
#include <cstdlib>
#include <sstream>
#include <string>
#include <vector>

#include "src/workloads.h"

namespace {

bool Flag(const std::string& arg, const char* name, std::string* value) {
  const std::string prefix = std::string("--") + name + "=";
  if (arg.rfind(prefix, 0) != 0) return false;
  *value = arg.substr(prefix.size());
  return true;
}

std::vector<double> SplitNumbers(const std::string& text) {
  std::vector<double> out;
  std::stringstream in(text);
  std::string part;
  while (std::getline(in, part, ',')) {
    if (!part.empty()) out.push_back(std::strtod(part.c_str(), nullptr));
  }
  return out;
}

}  // namespace

int main(int argc, char** argv) {
  rbench::Options opts;
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    std::string v;
    if (Flag(arg, "workload", &v)) {
      opts.workload = v;
    } else if (Flag(arg, "seed", &v)) {
      opts.seed = std::strtoull(v.c_str(), nullptr, 10);
    } else if (Flag(arg, "seconds", &v)) {
      opts.seconds = std::strtod(v.c_str(), nullptr);
    } else if (Flag(arg, "trace", &v)) {
      opts.trace = v == "1";
    } else if (Flag(arg, "span-dir", &v)) {
      opts.span_dir = v;
    } else if (Flag(arg, "peers-file", &v)) {
      opts.peers_file = v;
    } else if (Flag(arg, "daemon-pids", &v)) {
      for (double pid : SplitNumbers(v)) {
        opts.daemon_pids.push_back(static_cast<pid_t>(pid));
      }
    } else if (Flag(arg, "ready-ms", &v)) {
      opts.ready_ms = SplitNumbers(v);
    } else {
      std::fprintf(stderr, "ripplebench: unknown argument %s\n", arg.c_str());
      return 2;
    }
  }
  if (opts.seconds <= 0) {
    std::fprintf(stderr, "ripplebench: --seconds must be positive\n");
    return 2;
  }
  rbench::Report report;
  if (opts.workload == "inproc-mixed") {
    report = rbench::RunInprocMixed(opts);
  } else if (opts.workload == "sim-lossy") {
    report = rbench::RunSimLossy(opts);
  } else if (opts.workload == "cache-churn") {
    report = rbench::RunCacheChurn(opts);
  } else if (opts.workload == "live-udp") {
    report = rbench::RunLiveUdp(opts);
  } else {
    std::fprintf(stderr, "ripplebench: unknown workload '%s'\n",
                 opts.workload.c_str());
    return 2;
  }
  for (const std::string& note : report.notes) {
    std::printf("%s: %s\n", opts.workload.c_str(), note.c_str());
  }
  if (report.check_failures > rbench::Report::kMaxFailureNotes) {
    std::printf("%s: %d failed checks in all\n", opts.workload.c_str(),
                report.check_failures);
  }
  const std::string json =
      opts.trace
          ? rbench::ReportJson(report, rbench::kPerLayerMetrics, true)
          : rbench::ReportJson(report, rbench::kEndToEndMetrics, false);
  std::printf("%s\n", json.c_str());
  return 0;
}
