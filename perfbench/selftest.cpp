//===----------------------------------------------------------------------===//
//
// Part of the jumpstart project, a reproduction of "HHVM Jump-Start:
// Boosting Both Warmup and Steady-State Performance at Scale" (CGO 2021).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Self test of the benchmark's own machinery, against fake servers:
/// the seeded arrival schedule, coordinated-omission-free latencies, the
/// percentile rule, backlog detection and the span recorder.
///
///   python3 perfbench/run.py --selftest
///
//===----------------------------------------------------------------------===//

#include "LoadGen.h"
#include "Spans.h"

#include <chrono>
#include <cmath>
#include <cstdio>
#include <fstream>
#include <map>
#include <string>
#include <thread>

using namespace perfbench;

namespace {

int Failures = 0;

#define EXPECT(Cond)                                                           \
  do {                                                                         \
    if (!(Cond)) {                                                             \
      std::fprintf(stderr, "%s:%d: expected %s\n", __FILE__, __LINE__, #Cond); \
      ++Failures;                                                              \
    }                                                                          \
  } while (0)

/// Occupies the calling thread for \p Us microseconds (sleeping would
/// overshoot by the scheduler's wake-up latency).
void busyFor(double Us) {
  auto End = std::chrono::steady_clock::now() +
             std::chrono::duration_cast<std::chrono::steady_clock::duration>(
                 std::chrono::duration<double, std::micro>(Us));
  while (std::chrono::steady_clock::now() < End) {
  }
}

size_t countAbove(const std::vector<double> &V, double Limit) {
  size_t N = 0;
  for (double X : V)
    N += X > Limit ? 1 : 0;
  return N;
}

void scheduleIsSeeded() {
  std::vector<double> A = poissonSchedule(7, 1000, 5000);
  std::vector<double> B = poissonSchedule(7, 1000, 5000);
  std::vector<double> C = poissonSchedule(8, 1000, 5000);
  EXPECT(A == B);
  EXPECT(A != C);
  EXPECT(A.front() == 0);
  // Mean inter-arrival time within 5% of 1/rate.
  double Mean = A.back() / static_cast<double>(A.size() - 1);
  EXPECT(Mean > 0.95e-3 && Mean < 1.05e-3);
  EXPECT(deriveSeed(7, 1) == deriveSeed(7, 1));
  EXPECT(deriveSeed(7, 1) != deriveSeed(7, 2));
}

void stallShowsInLaterRequests() {
  // One worker, 50 us per request, requests every ~500 us; request 100
  // stalls for 30 ms.  The ~60 requests due during the stall wait for it:
  // timed from their due time they are all slow, although only one
  // request's own service time was.
  std::vector<double> Due = poissonSchedule(3, 2000, 400);
  OpenLoopResult R = runOpenLoop(Due, 1, [](size_t I) {
    busyFor(I == 100 ? 30000 : 50);
    return true;
  });
  EXPECT(countAbove(R.ServiceUs, 10000) == 1);
  EXPECT(countAbove(R.LatencyUs, 10000) >= 20);
  EXPECT(countAbove(R.QueueUs, 10000) >= 19);
  EXPECT(R.Failed == 0);
  EXPECT(!R.BacklogGrowing);
  for (size_t I = 0; I < Due.size(); ++I)
    EXPECT(R.LatencyUs[I] + 1e-6 >= R.ServiceUs[I]);
}

void failuresAreCounted() {
  std::vector<double> Due = poissonSchedule(4, 5000, 100);
  OpenLoopResult R =
      runOpenLoop(Due, 2, [](size_t I) { return I % 10 != 0; });
  EXPECT(R.Failed == 10);
}

void percentileRule() {
  auto Ramp = [](size_t N) {
    std::vector<double> V;
    for (size_t I = N; I > 0; --I)
      V.push_back(static_cast<double>(I));
    return V;
  };
  TailSummary S = summarize(Ramp(1000));
  EXPECT(S.Count == 1000);
  EXPECT(S.TailPct == 99); // exactly ten samples beyond p99
  EXPECT(S.Tail == 990);
  EXPECT(S.Median == 500);
  EXPECT(summarize(Ramp(999)).TailPct == 90);
  EXPECT(summarize(Ramp(10000)).TailPct == 99.9);
  EXPECT(summarize(Ramp(100000)).TailPct == 99.99);
  EXPECT(summarize(Ramp(20)).TailPct == 50);
  TailSummary Few = summarize(Ramp(19));
  EXPECT(Few.TailPct == 0);
  EXPECT(Few.Tail == 19);
  EXPECT(Few.Count == 19);
}

void backlogDetectedOverCapacity() {
  // One worker at 400 us per request serves at most 2500 req/s.
  auto Serve = [](size_t) {
    busyFor(400);
    return true;
  };
  OpenLoopResult Over = runOpenLoop(poissonSchedule(5, 5000, 2000), 1, Serve);
  EXPECT(Over.BacklogGrowing);
  OpenLoopResult Under = runOpenLoop(poissonSchedule(6, 500, 500), 1, Serve);
  EXPECT(!Under.BacklogGrowing);
}

void spansNestAndCount() {
  SpanRecorder T;
  size_t Outer = 0;
  {
    ScopedSpan A(&T, "vm.outer", 42);
    Outer = static_cast<size_t>(T.current());
    busyFor(2000);
    {
      ScopedSpan B(&T, "jit.inner");
      countAt(&T, "jit.items", 3);
      busyFor(3000);
    }
    // Work handed to another thread names its parent explicitly.
    std::thread Th([&] {
      ScopedSpan C(&T, "interp.worker", 0, static_cast<int64_t>(Outer));
      busyFor(1000);
    });
    Th.join();
  }
  const std::vector<SpanRecorder::Span> &S = T.spans();
  EXPECT(S.size() == 3);
  EXPECT(S[0].Parent == SpanRecorder::kNoParent);
  EXPECT(S[1].Parent == 0 && S[2].Parent == 0);
  EXPECT(S[1].RequestId == 42); // inherited from the parent
  EXPECT(T.counts().size() == 1 && T.counts()[0].Span == 1);
  EXPECT(T.total("jit.items") == 3);
  double Dur = static_cast<double>(S[0].EndNs - S[0].StartNs) * 1e-9;
  double Kids = static_cast<double>(S[1].EndNs - S[1].StartNs +
                                    S[2].EndNs - S[2].StartNs) *
                1e-9;
  EXPECT(std::abs(T.selfSeconds(0) - (Dur - Kids)) < 1e-9);
  EXPECT(T.selfSeconds(0) >= 1.9e-3);
  EXPECT(T.selfSeconds(1) >= 2.9e-3);
  std::map<std::string, double> ByLayer = T.selfByLayer();
  EXPECT(ByLayer.count("vm") && ByLayer.count("jit") &&
         ByLayer.count("interp"));
  std::map<std::string, SpanRecorder::Aggregate> Agg = T.aggregate();
  EXPECT(Agg["jit.inner"].Calls == 1);

  std::string Path = "perfbench_selftest_spans.jsonl";
  EXPECT(T.write(Path));
  std::ifstream In(Path);
  size_t Lines = 0;
  for (std::string L; std::getline(In, L);)
    ++Lines;
  EXPECT(Lines == 4); // three spans, one count
  std::remove(Path.c_str());

  // Untraced: a null recorder records nothing.
  ScopedSpan Off(nullptr, "vm.off");
  countAt(nullptr, "vm.off", 1);
}

} // namespace

int main() {
  scheduleIsSeeded();
  stallShowsInLaterRequests();
  failuresAreCounted();
  percentileRule();
  backlogDetectedOverCapacity();
  spansNestAndCount();
  if (Failures) {
    std::fprintf(stderr, "perfbench selftest: %d failure(s)\n", Failures);
    return 1;
  }
  std::printf("perfbench selftest: all checks passed\n");
  return 0;
}
