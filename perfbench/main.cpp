//===----------------------------------------------------------------------===//
//
// Part of the jumpstart project, a reproduction of "HHVM Jump-Start:
// Boosting Both Warmup and Steady-State Performance at Scale" (CGO 2021).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// perfbench: one host-time benchmark for the whole library.
///
///   perfbench --workload warmup|boot|serve|steady --seed N --seconds S
///             --trace 0|1 --ladder R1,R2,... --ref-rate R
///             --p99-limit-us U --window-s W [--spans PATH]
///
/// Prints each metric as `name value unit`, then, as the last line, one
/// JSON object: {"correct", "attempted", "failed", "metrics"}.  With
/// --trace 0 the metrics are the end-to-end ones; with --trace 1 the
/// per-layer ones from the span recorder.  perfbench/run.py supplies the
/// ladder flags from perfbench/spec.json.
///
//===----------------------------------------------------------------------===//

#include "Workloads.h"

#include <sched.h>

#include <algorithm>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <exception>
#include <string>
#include <thread>

using namespace perfbench;

namespace {

[[noreturn]] void usage(const char *Argv0, const std::string &Why) {
  std::fprintf(stderr,
               "%s: %s\n"
               "usage: %s --workload NAME --seed N --seconds S --trace 0|1 "
               "--ladder R1,R2,... --ref-rate R --p99-limit-us U "
               "--window-s W [--spans PATH]\n",
               Argv0, Why.c_str(), Argv0);
  std::exit(2);
}

double parseNumber(const char *Argv0, const char *Flag, const char *Text) {
  char *End = nullptr;
  double V = std::strtod(Text, &End);
  if (End == Text || *End != '\0' || !(V >= 0))
    usage(Argv0, std::string("bad value for ") + Flag + ": " + Text);
  return V;
}

/// Processors this process may run on (what `nproc` prints).
unsigned hostProcessors() {
  cpu_set_t Set;
  CPU_ZERO(&Set);
  if (sched_getaffinity(0, sizeof(Set), &Set) == 0)
    return static_cast<unsigned>(std::max(1, CPU_COUNT(&Set)));
  return std::max(1u, std::thread::hardware_concurrency());
}

std::string jsonNumber(double V) {
  char Buf[64];
  std::snprintf(Buf, sizeof(Buf), "%.17g", V);
  return Buf;
}

void printMetrics(const char *Kind, const std::vector<Metric> &Ms) {
  for (const Metric &M : Ms)
    std::printf("%-9s %-28s %.6g %s\n", Kind, M.Name.c_str(), M.Value,
                M.Unit.c_str());
}

} // namespace

int main(int argc, char **argv) {
  RunOptions Opts;
  bool HaveWorkload = false, HaveSeed = false, HaveSeconds = false,
       HaveTrace = false;
  for (int I = 1; I < argc; ++I) {
    std::string Flag = argv[I];
    if (I + 1 >= argc)
      usage(argv[0], "missing value for " + Flag);
    const char *Value = argv[++I];
    if (Flag == "--workload") {
      Opts.Workload = Value;
      HaveWorkload = true;
    } else if (Flag == "--seed") {
      char *End = nullptr;
      Opts.Seed = std::strtoull(Value, &End, 10);
      if (End == Value || *End != '\0')
        usage(argv[0], std::string("bad seed: ") + Value);
      HaveSeed = true;
    } else if (Flag == "--seconds") {
      Opts.Seconds = parseNumber(argv[0], "--seconds", Value);
      HaveSeconds = true;
    } else if (Flag == "--trace") {
      if (std::strcmp(Value, "0") != 0 && std::strcmp(Value, "1") != 0)
        usage(argv[0], "--trace takes 0 or 1");
      Opts.Trace = Value[0] == '1';
      HaveTrace = true;
    } else if (Flag == "--ladder") {
      for (const char *P = Value; *P;) {
        char *End = nullptr;
        double R = std::strtod(P, &End);
        if (End == P || !(R > 0))
          usage(argv[0], std::string("bad ladder: ") + Value);
        Opts.Ladder.Rates.push_back(R);
        P = *End == ',' ? End + 1 : End;
        if (*End != ',' && *End != '\0')
          usage(argv[0], std::string("bad ladder: ") + Value);
      }
    } else if (Flag == "--ref-rate") {
      Opts.Ladder.ReferenceRate = parseNumber(argv[0], "--ref-rate", Value);
    } else if (Flag == "--p99-limit-us") {
      Opts.Ladder.P99LimitUs = parseNumber(argv[0], "--p99-limit-us", Value);
    } else if (Flag == "--window-s") {
      Opts.Ladder.WindowSec = parseNumber(argv[0], "--window-s", Value);
    } else if (Flag == "--spans") {
      Opts.SpansPath = Value;
    } else {
      usage(argv[0], "unknown flag " + Flag);
    }
  }
  if (!HaveWorkload || !HaveSeed || !HaveSeconds || !HaveTrace)
    usage(argv[0], "--workload, --seed, --seconds and --trace are required");
  const std::vector<std::string> &Names = workloadNames();
  if (std::find(Names.begin(), Names.end(), Opts.Workload) == Names.end())
    usage(argv[0], "unknown workload " + Opts.Workload);
  if (Opts.Workload == "serve") {
    const ServeLadder &L = Opts.Ladder;
    if (L.Rates.empty() || L.P99LimitUs <= 0 || L.WindowSec <= 0 ||
        std::find(L.Rates.begin(), L.Rates.end(), L.ReferenceRate) ==
            L.Rates.end())
      usage(argv[0], "serve needs --ladder, a --ref-rate on the ladder, "
                     "--p99-limit-us and --window-s");
  }

  // Thread budget: the generator, serve workers and compile pool must fit
  // the host's processors, or the numbers measure oversubscription.
  Opts.Nproc = hostProcessors();
  ThreadCounts Threads = threadsFor(Opts.Workload, Opts.Nproc);
  if (Threads.total() > Opts.Nproc) {
    std::fprintf(stderr,
                 "perfbench: %s needs %u threads (generator %u, serve "
                 "workers %u, compile pool %u) but this host has %u "
                 "processors; refusing to run\n",
                 Opts.Workload.c_str(), Threads.total(), Threads.Generator,
                 Threads.ServeWorkers, Threads.CompilePool, Opts.Nproc);
    return 3;
  }

  RunResult R;
  try {
    R = runWorkload(Opts);
  } catch (const std::exception &E) {
    std::fprintf(stderr, "perfbench: %s\n", E.what());
    return 1;
  }

  std::printf("workload  %s seed=%llu trace=%d nproc=%u threads: generator=%u "
              "serve_workers=%u compile_pool=%u\n",
              Opts.Workload.c_str(), static_cast<unsigned long long>(Opts.Seed),
              Opts.Trace ? 1 : 0, Opts.Nproc, R.Threads.Generator,
              R.Threads.ServeWorkers, R.Threads.CompilePool);
  const std::vector<Metric> &Gated = Opts.Trace ? R.Layers : R.EndToEnd;
  if (!Opts.Trace) {
    printMetrics("e2e", R.EndToEnd);
    printMetrics("result", R.Reported);
  } else {
    printMetrics("layer", R.Layers);
  }
  std::printf("checks    attempted=%llu failed=%llu\n",
              static_cast<unsigned long long>(R.Attempted),
              static_cast<unsigned long long>(R.Failed));

  std::string Json = "{\"correct\": ";
  Json += R.Failed == 0 ? "true" : "false";
  Json += ", \"attempted\": " + std::to_string(R.Attempted);
  Json += ", \"failed\": " + std::to_string(R.Failed);
  Json += ", \"metrics\": {";
  for (size_t I = 0; I < Gated.size(); ++I) {
    if (I)
      Json += ", ";
    Json += "\"" + Gated[I].Name + "\": {\"value\": " +
            jsonNumber(Gated[I].Value) + ", \"unit\": \"" + Gated[I].Unit +
            "\"}";
  }
  Json += "}}";
  std::printf("%s\n", Json.c_str());
  return 0;
}
