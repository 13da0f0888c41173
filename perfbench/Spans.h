//===----------------------------------------------------------------------===//
//
// Part of the jumpstart project, a reproduction of "HHVM Jump-Start:
// Boosting Both Warmup and Steady-State Performance at Scale" (CGO 2021).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The benchmark's own span recorder.  The traced run wraps each call into
/// a library layer's public API in a span; spans and the counts taken at
/// the same boundaries stay in memory and are written out once, when the
/// run ends.  A span's self time is its duration minus the time its child
/// spans cover.  A null recorder makes every ScopedSpan a no-op, which is
/// how the untraced (end-to-end) run measures.
///
/// Parent links follow the recording thread's open spans.  Only one
/// recorder is active at a time (the benchmark owns exactly one per
/// traced run), so the open-span stack is a plain thread_local.
///
//===----------------------------------------------------------------------===//

#ifndef JUMPSTART_PERFBENCH_SPANS_H
#define JUMPSTART_PERFBENCH_SPANS_H

#include <algorithm>
#include <chrono>
#include <cstdint>
#include <cstdio>
#include <map>
#include <mutex>
#include <string>
#include <vector>

namespace perfbench {

class SpanRecorder {
public:
  static constexpr int64_t kNoParent = -1;

  struct Span {
    /// Layer-qualified name ("vm.execute", "jit.grant", ...); the text
    /// before the first '.' is the layer.  Must be a string literal.
    const char *Name = "";
    int64_t StartNs = 0;
    int64_t EndNs = -1;
    int64_t Parent = kNoParent;
    uint64_t RequestId = 0;
  };

  struct Count {
    const char *Name = "";
    double Value = 0;
    /// The span open on the recording thread when the count was taken.
    int64_t Span = kNoParent;
  };

  /// Per-name totals over all spans of that name.
  struct Aggregate {
    uint64_t Calls = 0;
    double TotalSec = 0;
    std::vector<double> DurationsSec;
  };

  SpanRecorder() : Epoch(std::chrono::steady_clock::now()) {}
  SpanRecorder(const SpanRecorder &) = delete;
  SpanRecorder &operator=(const SpanRecorder &) = delete;

  /// Opens a span on the calling thread; \returns its index.  The parent
  /// is the calling thread's innermost open span, or \p Parent for work
  /// handed to another thread.
  size_t begin(const char *Name, uint64_t RequestId = 0,
               int64_t Parent = kNoParent) {
    int64_t Now = nowNs();
    std::lock_guard<std::mutex> Lock(M);
    Span S;
    S.Name = Name;
    S.StartNs = Now;
    S.Parent = openStack().empty() ? Parent : openStack().back();
    S.RequestId = RequestId;
    if (S.Parent != kNoParent && RequestId == 0)
      S.RequestId = Spans[static_cast<size_t>(S.Parent)].RequestId;
    Spans.push_back(S);
    openStack().push_back(static_cast<int64_t>(Spans.size() - 1));
    return Spans.size() - 1;
  }

  /// Closes span \p Index, which must be the innermost open span of the
  /// calling thread.
  void end(size_t Index) {
    int64_t Now = nowNs();
    std::lock_guard<std::mutex> Lock(M);
    Spans[Index].EndNs = Now;
    std::vector<int64_t> &Stack = openStack();
    if (!Stack.empty() && Stack.back() == static_cast<int64_t>(Index))
      Stack.pop_back();
  }

  /// Records a count at the current boundary of the calling thread.
  void count(const char *Name, double Value) {
    std::lock_guard<std::mutex> Lock(M);
    Count C;
    C.Name = Name;
    C.Value = Value;
    C.Span = openStack().empty() ? kNoParent : openStack().back();
    Counts.push_back(C);
  }

  /// The calling thread's innermost open span (kNoParent if none).
  int64_t current() const {
    return openStack().empty() ? kNoParent : openStack().back();
  }

  const std::vector<Span> &spans() const { return Spans; }
  const std::vector<Count> &counts() const { return Counts; }

  /// Self time of span \p Index: its duration minus the union of its
  /// children's intervals (children on one thread nest without overlap,
  /// but the union is taken anyway so the rule never double-subtracts).
  double selfSeconds(size_t Index) const {
    buildChildren();
    const Span &S = Spans[Index];
    std::vector<std::pair<int64_t, int64_t>> Kids;
    for (size_t C : Children[Index])
      Kids.emplace_back(std::max(Spans[C].StartNs, S.StartNs),
                        std::min(Spans[C].EndNs, S.EndNs));
    std::sort(Kids.begin(), Kids.end());
    int64_t Covered = 0, CurLo = 0, CurHi = -1;
    for (auto [Lo, Hi] : Kids) {
      if (Hi <= Lo)
        continue;
      if (Lo > CurHi) {
        Covered += std::max<int64_t>(0, CurHi - CurLo);
        CurLo = Lo;
        CurHi = Hi;
      } else {
        CurHi = std::max(CurHi, Hi);
      }
    }
    Covered += std::max<int64_t>(0, CurHi - CurLo);
    return static_cast<double>((S.EndNs - S.StartNs) - Covered) * 1e-9;
  }

  std::map<std::string, Aggregate> aggregate() const {
    std::map<std::string, Aggregate> Out;
    for (size_t I = 0; I < Spans.size(); ++I) {
      const Span &S = Spans[I];
      if (S.EndNs < S.StartNs)
        continue; // never closed
      Aggregate &A = Out[S.Name];
      double Dur = static_cast<double>(S.EndNs - S.StartNs) * 1e-9;
      ++A.Calls;
      A.TotalSec += Dur;
      A.DurationsSec.push_back(Dur);
    }
    return Out;
  }

  /// Self seconds summed per layer (the span name up to its first '.').
  std::map<std::string, double> selfByLayer() const {
    std::map<std::string, double> Out;
    for (size_t I = 0; I < Spans.size(); ++I) {
      if (Spans[I].EndNs < Spans[I].StartNs)
        continue;
      std::string Name = Spans[I].Name;
      Out[Name.substr(0, Name.find('.'))] += selfSeconds(I);
    }
    return Out;
  }

  /// Sum of the counts named \p Name.
  double total(const char *Name) const {
    double Sum = 0;
    for (const Count &C : Counts)
      if (std::string(C.Name) == Name)
        Sum += C.Value;
    return Sum;
  }

  /// Writes every span and count as JSON lines.  \returns false when the
  /// file cannot be written.
  bool write(const std::string &Path) const {
    std::FILE *F = std::fopen(Path.c_str(), "w");
    if (!F)
      return false;
    for (size_t I = 0; I < Spans.size(); ++I) {
      const Span &S = Spans[I];
      std::fprintf(F,
                   "{\"span\":%zu,\"name\":\"%s\",\"start_ns\":%lld,"
                   "\"end_ns\":%lld,\"parent\":%lld,\"request\":%llu,"
                   "\"self_s\":%.9f}\n",
                   I, S.Name, static_cast<long long>(S.StartNs),
                   static_cast<long long>(S.EndNs),
                   static_cast<long long>(S.Parent),
                   static_cast<unsigned long long>(S.RequestId),
                   S.EndNs >= S.StartNs ? selfSeconds(I) : 0.0);
    }
    for (const Count &C : Counts)
      std::fprintf(F, "{\"count\":\"%s\",\"value\":%.17g,\"span\":%lld}\n",
                   C.Name, C.Value, static_cast<long long>(C.Span));
    return std::fclose(F) == 0;
  }

private:
  int64_t nowNs() const {
    return std::chrono::duration_cast<std::chrono::nanoseconds>(
               std::chrono::steady_clock::now() - Epoch)
        .count();
  }

  static std::vector<int64_t> &openStack() {
    thread_local std::vector<int64_t> Stack;
    return Stack;
  }

  void buildChildren() const {
    if (Children.size() == Spans.size())
      return;
    Children.assign(Spans.size(), {});
    for (size_t I = 0; I < Spans.size(); ++I)
      if (Spans[I].Parent != kNoParent && Spans[I].EndNs >= Spans[I].StartNs)
        Children[static_cast<size_t>(Spans[I].Parent)].push_back(I);
  }

  std::chrono::steady_clock::time_point Epoch;
  std::mutex M;
  std::vector<Span> Spans;
  std::vector<Count> Counts;
  mutable std::vector<std::vector<size_t>> Children;
};

/// RAII span; a null recorder makes it free.
class ScopedSpan {
public:
  ScopedSpan(SpanRecorder *R, const char *Name, uint64_t RequestId = 0,
             int64_t Parent = SpanRecorder::kNoParent)
      : R(R), Index(R ? R->begin(Name, RequestId, Parent) : 0) {}
  ~ScopedSpan() {
    if (R)
      R->end(Index);
  }
  ScopedSpan(const ScopedSpan &) = delete;
  ScopedSpan &operator=(const ScopedSpan &) = delete;

private:
  SpanRecorder *R;
  size_t Index;
};

/// Records a count when tracing.
inline void countAt(SpanRecorder *R, const char *Name, double Value) {
  if (R)
    R->count(Name, Value);
}

} // namespace perfbench

#endif // JUMPSTART_PERFBENCH_SPANS_H
