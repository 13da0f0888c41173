//===----------------------------------------------------------------------===//
//
// Part of the jumpstart project, a reproduction of "HHVM Jump-Start:
// Boosting Both Warmup and Steady-State Performance at Scale" (CGO 2021).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The benchmark's four workloads (warmup, boot, serve, steady), run
/// against the library's public API.  See perfbench/README.md for what
/// each one measures and why it was chosen.
///
//===----------------------------------------------------------------------===//

#ifndef JUMPSTART_PERFBENCH_WORKLOADS_H
#define JUMPSTART_PERFBENCH_WORKLOADS_H

#include <cstdint>
#include <string>
#include <vector>

namespace perfbench {

struct Metric {
  std::string Name;
  double Value = 0;
  std::string Unit;
};

/// The serve workload's open-loop rate ladder (requests per second).
struct ServeLadder {
  std::vector<double> Rates;
  /// The rung whose latencies are reported as serve_p50_us/serve_p99_us.
  double ReferenceRate = 0;
  /// A rung passes when its p99 latency (from due time) is within this.
  double P99LimitUs = 0;
  /// Seconds of arrivals per rung.
  double WindowSec = 0;
};

struct RunOptions {
  std::string Workload;
  uint64_t Seed = 1;
  double Seconds = 10;
  bool Trace = false;
  /// Host processors available; bounds every thread count.
  unsigned Nproc = 1;
  ServeLadder Ladder;
  /// Where the traced run writes its spans (empty: not written).
  std::string SpansPath;
};

/// Threads a workload uses besides the main thread's own work.
struct ThreadCounts {
  unsigned Generator = 0;
  unsigned ServeWorkers = 0;
  unsigned CompilePool = 0;
  unsigned total() const { return Generator + ServeWorkers + CompilePool; }
};

struct RunResult {
  /// Metrics of the untraced run, gated by BENCHMARK.json.
  std::vector<Metric> EndToEnd;
  /// Workload-specific end-to-end results, printed with the run.
  std::vector<Metric> Reported;
  /// Per-layer metrics of the traced run.
  std::vector<Metric> Layers;
  uint64_t Attempted = 0;
  uint64_t Failed = 0;
  ThreadCounts Threads;
};

/// Names of the workloads, in BENCHMARK.json order.
const std::vector<std::string> &workloadNames();

/// The threads \p Workload would use on a host with \p Nproc processors.
ThreadCounts threadsFor(const std::string &Workload, unsigned Nproc);

/// Runs one workload.  Prints progress to stderr.
RunResult runWorkload(const RunOptions &Opts);

} // namespace perfbench

#endif // JUMPSTART_PERFBENCH_WORKLOADS_H
