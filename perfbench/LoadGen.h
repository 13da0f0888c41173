//===----------------------------------------------------------------------===//
//
// Part of the jumpstart project, a reproduction of "HHVM Jump-Start:
// Boosting Both Warmup and Steady-State Performance at Scale" (CGO 2021).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Open-loop load generation and the benchmark's percentile rule.
///
/// An open loop sends each request when it is due, whether or not earlier
/// ones have finished, so a stalled server builds a queue.  Every request
/// is timed from when it was *due*, not from when a worker picked it up:
/// a stall then shows in the latencies of all requests that arrived
/// during it (no coordinated omission).  The generator's own lateness is
/// reported so a run whose generator could not keep the schedule can be
/// told apart from a slow server.
///
/// Header-only and independent of the jumpstart libraries so the self
/// test can drive it against fake servers.
///
//===----------------------------------------------------------------------===//

#ifndef JUMPSTART_PERFBENCH_LOADGEN_H
#define JUMPSTART_PERFBENCH_LOADGEN_H

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cmath>
#include <cstdint>
#include <thread>
#include <vector>

namespace perfbench {

/// SplitMix64: the benchmark's seed-derivation and schedule generator.
inline uint64_t splitMix64(uint64_t &State) {
  uint64_t Z = (State += 0x9e3779b97f4a7c15ULL);
  Z = (Z ^ (Z >> 30)) * 0xbf58476d1ce4e5b9ULL;
  Z = (Z ^ (Z >> 27)) * 0x94d049bb133111ebULL;
  return Z ^ (Z >> 31);
}

/// Derives the \p Stream-th independent seed from a workload seed.
inline uint64_t deriveSeed(uint64_t Seed, uint64_t Stream) {
  uint64_t S = Seed * 0x100000001b3ULL + Stream;
  return splitMix64(S);
}

/// Poisson arrivals: \p Count due times (seconds from the window start)
/// at mean rate \p Rate per second.  The same seed gives the same
/// schedule on every host.
inline std::vector<double> poissonSchedule(uint64_t Seed, double Rate,
                                           size_t Count) {
  std::vector<double> Due(Count);
  uint64_t State = Seed;
  double T = 0;
  for (size_t I = 0; I < Count; ++I) {
    Due[I] = T;
    // Uniform in (0, 1]: 53 random bits, never exactly 0.
    double U = static_cast<double>((splitMix64(State) >> 11) + 1) *
               (1.0 / 9007199254740992.0);
    T += -std::log(U) / Rate;
  }
  return Due;
}

/// A latency summary under the benchmark's percentile rule: the median,
/// plus the highest of p50/p90/p99/p99.9/p99.99 that still has at least
/// ten samples beyond it, and the sample count.
struct TailSummary {
  size_t Count = 0;
  double Median = 0;
  /// The percentile reported as the tail (0 when no listed percentile
  /// has ten samples beyond it; Tail is then the maximum).
  double TailPct = 0;
  double Tail = 0;
};

/// Nearest-rank percentile of sorted samples.
inline double nearestRank(const std::vector<double> &Sorted, double Pct) {
  if (Sorted.empty())
    return 0;
  double Rank = std::ceil(Pct / 100.0 * static_cast<double>(Sorted.size()));
  size_t I = Rank < 1 ? 0 : static_cast<size_t>(Rank) - 1;
  return Sorted[std::min(I, Sorted.size() - 1)];
}

/// Samples beyond the \p Pct-th percentile of \p N samples.
inline double samplesBeyond(size_t N, double Pct) {
  return static_cast<double>(N) * (1.0 - Pct / 100.0);
}

inline TailSummary summarize(std::vector<double> Samples) {
  TailSummary S;
  S.Count = Samples.size();
  if (Samples.empty())
    return S;
  std::sort(Samples.begin(), Samples.end());
  S.Median = nearestRank(Samples, 50);
  S.Tail = Samples.back();
  for (double Pct : {50.0, 90.0, 99.0, 99.9, 99.99}) {
    // A small tolerance keeps N = 1000 at p99 (exactly ten beyond).
    if (samplesBeyond(S.Count, Pct) + 1e-9 < 10)
      break;
    S.TailPct = Pct;
    S.Tail = nearestRank(Samples, Pct);
  }
  return S;
}

/// Nearest-rank percentile of unsorted samples.
inline double percentileOf(std::vector<double> Samples, double Pct) {
  std::sort(Samples.begin(), Samples.end());
  return nearestRank(Samples, Pct);
}

inline double medianOf(std::vector<double> Samples) {
  return percentileOf(std::move(Samples), 50);
}

/// Per-request timings of one open-loop window.  All times in
/// microseconds; index = schedule index.
struct OpenLoopResult {
  /// Completion minus due time (what a user waits).
  std::vector<double> LatencyUs;
  /// Start of service minus due time.
  std::vector<double> QueueUs;
  /// Completion minus start of service.
  std::vector<double> ServiceUs;
  /// How late the generator released each request.
  std::vector<double> GeneratorLagUs;
  /// Requests the server reported as failed (shed or faulted).
  uint64_t Failed = 0;
  /// First due time to last completion.
  double WallSec = 0;
  /// True when the number of requests in the system kept rising over
  /// the window (the rate is above capacity).
  bool BacklogGrowing = false;
};

/// Whether the backlog grew over a window: the mean number of requests
/// in the system (due but not finished) at each arrival in the last
/// quarter of the schedule exceeds that of the first quarter by more
/// than max(2 * Workers, 5% of the requests).  Below capacity the queue
/// only fluctuates; above it, it grows linearly with time.
inline bool backlogGrowing(const std::vector<double> &DueUs,
                           const std::vector<double> &EndUs,
                           unsigned Workers) {
  size_t N = DueUs.size();
  if (N < 8)
    return false;
  std::vector<double> Ends = EndUs;
  std::sort(Ends.begin(), Ends.end());
  auto InSystem = [&](size_t I) {
    size_t Done = static_cast<size_t>(
        std::upper_bound(Ends.begin(), Ends.end(), DueUs[I]) - Ends.begin());
    return static_cast<double>(I + 1) - static_cast<double>(Done);
  };
  size_t Q = N / 4;
  double First = 0, Last = 0;
  for (size_t I = 0; I < Q; ++I) {
    First += InSystem(I);
    Last += InSystem(N - Q + I);
  }
  First /= static_cast<double>(Q);
  Last /= static_cast<double>(Q);
  double Threshold =
      std::max(2.0 * Workers, 0.05 * static_cast<double>(N));
  return Last - First > Threshold;
}

/// Runs one open-loop window: the calling thread is the generator and
/// \p Workers threads serve.  \p Serve(Index) handles request Index and
/// \returns false when it failed (shed or faulted).  Workers block
/// (futex wait) while no request is due, so an idle window does not burn
/// the cores the server under test needs.
template <typename ServeFn>
OpenLoopResult runOpenLoop(const std::vector<double> &DueSec,
                           unsigned Workers, ServeFn &&Serve) {
  using Clock = std::chrono::steady_clock;
  const size_t N = DueSec.size();
  OpenLoopResult R;
  R.LatencyUs.assign(N, 0);
  R.QueueUs.assign(N, 0);
  R.ServiceUs.assign(N, 0);
  R.GeneratorLagUs.assign(N, 0);
  std::vector<double> EndUs(N, 0);
  std::vector<uint8_t> Ok(N, 1);

  std::atomic<uint64_t> Released{0};
  std::atomic<uint64_t> Next{0};
  // Leave room for the workers to start before the first arrival.
  const Clock::time_point T0 = Clock::now() + std::chrono::milliseconds(2);
  auto Us = [&](Clock::time_point T) {
    return std::chrono::duration<double, std::micro>(T - T0).count();
  };

  auto Worker = [&] {
    for (;;) {
      uint64_t I = Next.fetch_add(1, std::memory_order_relaxed);
      if (I >= N)
        return;
      for (uint64_t Seen = Released.load(std::memory_order_acquire);
           Seen <= I; Seen = Released.load(std::memory_order_acquire))
        Released.wait(Seen, std::memory_order_acquire);
      Clock::time_point Start = Clock::now();
      bool Good = Serve(static_cast<size_t>(I));
      Clock::time_point End = Clock::now();
      double DueUs = DueSec[I] * 1e6;
      R.QueueUs[I] = Us(Start) - DueUs;
      R.ServiceUs[I] =
          std::chrono::duration<double, std::micro>(End - Start).count();
      EndUs[I] = Us(End);
      R.LatencyUs[I] = EndUs[I] - DueUs;
      Ok[I] = Good ? 1 : 0;
    }
  };

  std::vector<std::thread> Pool;
  Pool.reserve(Workers);
  for (unsigned I = 0; I < std::max(1u, Workers); ++I)
    Pool.emplace_back(Worker);

  for (size_t I = 0; I < N; ++I) {
    Clock::time_point Due =
        T0 + std::chrono::duration_cast<Clock::duration>(
                 std::chrono::duration<double>(DueSec[I]));
    // Sleep while far from the due time, then spin for precision.
    for (Clock::time_point Now = Clock::now(); Now < Due; Now = Clock::now()) {
      if (Due - Now > std::chrono::microseconds(300))
        std::this_thread::sleep_for(Due - Now - std::chrono::microseconds(200));
    }
    R.GeneratorLagUs[I] = Us(Clock::now()) - DueSec[I] * 1e6;
    Released.store(I + 1, std::memory_order_release);
    Released.notify_all();
  }
  for (std::thread &T : Pool)
    T.join();

  std::vector<double> DueUs(N);
  for (size_t I = 0; I < N; ++I) {
    DueUs[I] = DueSec[I] * 1e6;
    R.Failed += Ok[I] ? 0 : 1;
  }
  if (N) {
    double LastEnd = *std::max_element(EndUs.begin(), EndUs.end());
    R.WallSec = (LastEnd - DueUs.front()) * 1e-6;
  }
  R.BacklogGrowing = backlogGrowing(DueUs, EndUs, std::max(1u, Workers));
  return R;
}

} // namespace perfbench

#endif // JUMPSTART_PERFBENCH_LOADGEN_H
