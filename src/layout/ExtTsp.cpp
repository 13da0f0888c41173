//===----------------------------------------------------------------------===//
//
// Part of the jumpstart project, a reproduction of "HHVM Jump-Start:
// Boosting Both Warmup and Steady-State Performance at Scale" (CGO 2021).
//
//===----------------------------------------------------------------------===//

#include "layout/ExtTsp.h"

#include "support/Assert.h"

#include <algorithm>
#include <unordered_map>

using namespace jumpstart;
using namespace jumpstart::layout;

namespace {

/// Scores one edge given source end offset and destination start offset.
double scoreEdge(uint64_t Weight, uint64_t SrcEnd, uint64_t DstStart,
                 const ExtTspParams &P) {
  double W = static_cast<double>(Weight);
  if (DstStart == SrcEnd)
    return P.FallthroughWeight * W;
  if (DstStart > SrcEnd) {
    uint64_t Dist = DstStart - SrcEnd;
    if (Dist <= P.ForwardDistance)
      return P.ForwardWeight * W *
             (1.0 - static_cast<double>(Dist) /
                        static_cast<double>(P.ForwardDistance));
    return 0.0;
  }
  uint64_t Dist = SrcEnd - DstStart;
  if (Dist <= P.BackwardDistance)
    return P.BackwardWeight * W *
           (1.0 - static_cast<double>(Dist) /
                      static_cast<double>(P.BackwardDistance));
  return 0.0;
}

/// The greedy chain-merging optimizer.
///
/// Each iteration merges the connected chain pair with the largest score
/// gain.  A pair's best merge depends only on the two chains' contents, so
/// gains are cached per ordered chain pair and a merge invalidates only the
/// entries naming the two chains it touched; an iteration costs one cache
/// lookup per edge plus fresh evaluations of the pairs that involve the
/// chain just formed.
class ExtTspSolver {
public:
  ExtTspSolver(const Cfg &G, const ExtTspParams &P) : G(G), P(P) {
    size_t N = G.numBlocks();
    OutEdges.resize(N);
    for (const CfgEdge &E : G.edges()) {
      if (E.Src != E.Dst) // self-loops score nothing under any layout
        OutEdges[E.Src].push_back(E);
    }
    ChainOf.resize(N);
    for (uint32_t B = 0; B < N; ++B) {
      Chains.push_back({B});
      ChainOf[B] = B;
    }
    ScoreOf.assign(N, 0.0);
    StartOf.assign(N, 0);
    StampOf.assign(N, 0);
  }

  std::vector<uint32_t> solve();

  /// bestMerge evaluations made so far (cache misses).
  uint64_t MergeEvals = 0;

private:
  /// How a merged chain is assembled from chains A and B.
  enum Shape : int32_t {
    kConcatAB = 0,
    kConcatBA = 1,
    kSplitBase = 2, ///< kSplitBase + S: A[0,S) + B + A[S,end)
  };

  /// The best merge of an ordered chain pair (A, B).
  struct Merge {
    /// MergedScore - score(A) - score(B).
    double Gain = 0.0;
    double MergedScore = 0.0;
    int32_t How = kConcatAB;
  };

  static uint64_t pairKey(uint32_t A, uint32_t B) {
    return (static_cast<uint64_t>(A) << 32) | B;
  }

  /// Ext-TSP score of the blocks in \p Chain laid out consecutively,
  /// counting only edges internal to the chain.  Edges are summed in chain
  /// position order, then out-edge order.
  double chainScore(const std::vector<uint32_t> &Chain);

  /// Best merged form of chains A and B; considers A+B, B+A, and (for
  /// short A) splitting A around B.  The first strictly best candidate in
  /// that order wins.
  Merge bestMerge(uint32_t A, uint32_t B);

  /// Writes the chain \p How assembles from A and B into \p Out.
  void assemble(uint32_t A, uint32_t B, int32_t How,
                std::vector<uint32_t> &Out) const;

  uint64_t chainBytes(const std::vector<uint32_t> &Chain) const {
    uint64_t Total = 0;
    for (uint32_t Block : Chain)
      Total += G.block(Block).SizeBytes;
    return Total;
  }

  uint64_t chainWeight(const std::vector<uint32_t> &Chain) const {
    uint64_t Total = 0;
    for (uint32_t Block : Chain)
      Total += G.block(Block).Weight;
    return Total;
  }

  const Cfg &G;
  const ExtTspParams &P;
  std::vector<std::vector<CfgEdge>> OutEdges;
  std::vector<std::vector<uint32_t>> Chains; ///< empty = absorbed
  std::vector<uint32_t> ChainOf;             ///< block -> chain index
  std::vector<double> ScoreOf;               ///< chain -> chainScore
  /// Merge cache keyed by pairKey(A, B).
  std::unordered_map<uint64_t, Merge> Cache;

  /// chainScore's position map: StartOf[B] is B's offset in the chain
  /// being scored when StampOf[B] == Stamp.
  std::vector<uint64_t> StartOf;
  std::vector<uint32_t> StampOf;
  uint32_t Stamp = 0;
  /// bestMerge's candidate buffer.
  std::vector<uint32_t> Candidate;

  /// Splitting is only attempted on chains at most this many blocks long
  /// (bounds the cubic factor; matches the spirit of the reference
  /// implementation's chain-split threshold).
  static constexpr size_t kSplitLimit = 32;
};

double ExtTspSolver::chainScore(const std::vector<uint32_t> &Chain) {
  if (Chain.size() < 2)
    return 0.0;
  ++Stamp;
  uint64_t Offset = 0;
  for (uint32_t Block : Chain) {
    StartOf[Block] = Offset;
    StampOf[Block] = Stamp;
    Offset += G.block(Block).SizeBytes;
  }
  double Score = 0.0;
  for (uint32_t Block : Chain) {
    uint64_t SrcEnd = StartOf[Block] + G.block(Block).SizeBytes;
    for (const CfgEdge &E : OutEdges[Block])
      if (StampOf[E.Dst] == Stamp)
        Score += scoreEdge(E.Weight, SrcEnd, StartOf[E.Dst], P);
  }
  return Score;
}

void ExtTspSolver::assemble(uint32_t A, uint32_t B, int32_t How,
                            std::vector<uint32_t> &Out) const {
  const std::vector<uint32_t> &CA = Chains[A];
  const std::vector<uint32_t> &CB = Chains[B];
  Out.clear();
  if (How == kConcatAB) {
    Out.insert(Out.end(), CA.begin(), CA.end());
    Out.insert(Out.end(), CB.begin(), CB.end());
  } else if (How == kConcatBA) {
    Out.insert(Out.end(), CB.begin(), CB.end());
    Out.insert(Out.end(), CA.begin(), CA.end());
  } else {
    size_t Split = static_cast<size_t>(How - kSplitBase);
    Out.insert(Out.end(), CA.begin(), CA.begin() + Split);
    Out.insert(Out.end(), CB.begin(), CB.end());
    Out.insert(Out.end(), CA.begin() + Split, CA.end());
  }
}

ExtTspSolver::Merge ExtTspSolver::bestMerge(uint32_t A, uint32_t B) {
  ++MergeEvals;
  // The entry block must remain first in whatever chain holds it.
  // The entry block heads its chain, so A+B or B+A always passes.
  bool HoldsEntry = ChainOf[0] == A || ChainOf[0] == B;
  double Best = -1.0;
  int32_t BestHow = kConcatAB;
  auto Consider = [&](int32_t How) {
    assemble(A, B, How, Candidate);
    if (HoldsEntry && Candidate.front() != 0)
      return;
    double Score = chainScore(Candidate);
    if (Score > Best) {
      Best = Score;
      BestHow = How;
    }
  };

  Consider(kConcatAB);
  Consider(kConcatBA);
  size_t SizeA = Chains[A].size();
  if (SizeA >= 2 && SizeA <= kSplitLimit)
    for (size_t Split = 1; Split < SizeA; ++Split)
      Consider(kSplitBase + static_cast<int32_t>(Split));

  Merge M;
  M.How = BestHow;
  M.MergedScore = Best;
  M.Gain = Best - ScoreOf[A] - ScoreOf[B];
  return M;
}

std::vector<uint32_t> ExtTspSolver::solve() {
  // Greedily merge the pair of chains whose best merged form yields the
  // largest score gain, until no merge helps.
  for (;;) {
    double BestGain = 1e-9;
    uint32_t BestA = 0;
    uint32_t BestB = 0;
    const Merge *BestMerge = nullptr;

    // Candidate pairs are chains connected by at least one edge, visited
    // in edge order so ties go to the first pair reached.
    for (uint32_t Src = 0; Src < G.numBlocks(); ++Src) {
      for (const CfgEdge &E : OutEdges[Src]) {
        uint32_t A = ChainOf[E.Src];
        uint32_t B = ChainOf[E.Dst];
        if (A == B)
          continue;
        auto [It, Inserted] = Cache.try_emplace(pairKey(A, B));
        if (Inserted)
          It->second = bestMerge(A, B);
        const Merge &M = It->second;
        if (M.Gain > BestGain) {
          BestGain = M.Gain;
          BestA = A;
          BestB = B;
          BestMerge = &M;
        }
      }
    }
    if (!BestMerge)
      break;
    // Apply: A absorbs the merged chain, B empties.
    std::vector<uint32_t> Merged;
    assemble(BestA, BestB, BestMerge->How, Merged);
    ScoreOf[BestA] = BestMerge->MergedScore;
    ScoreOf[BestB] = 0.0;
    Chains[BestA] = std::move(Merged);
    Chains[BestB].clear();
    for (uint32_t Block : Chains[BestA])
      ChainOf[Block] = BestA;
    // Only entries naming A or B saw a chain (or the entry block's chain)
    // change; every other cached merge is still exact.
    std::erase_if(Cache, [&](const auto &Entry) {
      uint32_t X = static_cast<uint32_t>(Entry.first >> 32);
      uint32_t Y = static_cast<uint32_t>(Entry.first);
      return X == BestA || X == BestB || Y == BestA || Y == BestB;
    });
  }

  // Order chains: the entry chain first, the rest by density (hotness per
  // byte), ties broken by original index for determinism.
  std::vector<uint32_t> ChainIds;
  for (uint32_t C = 0; C < Chains.size(); ++C)
    if (!Chains[C].empty())
      ChainIds.push_back(C);

  uint32_t EntryChain = ChainOf[0];
  std::stable_sort(ChainIds.begin(), ChainIds.end(),
                   [&](uint32_t A, uint32_t B) {
                     if (A == EntryChain)
                       return true;
                     if (B == EntryChain)
                       return false;
                     uint64_t BytesA = std::max<uint64_t>(1, chainBytes(Chains[A]));
                     uint64_t BytesB = std::max<uint64_t>(1, chainBytes(Chains[B]));
                     double DensA = static_cast<double>(chainWeight(Chains[A])) /
                                    static_cast<double>(BytesA);
                     double DensB = static_cast<double>(chainWeight(Chains[B])) /
                                    static_cast<double>(BytesB);
                     return DensA > DensB;
                   });

  std::vector<uint32_t> Order;
  Order.reserve(G.numBlocks());
  for (uint32_t C : ChainIds)
    for (uint32_t Block : Chains[C])
      Order.push_back(Block);
  return Order;
}

} // namespace

double jumpstart::layout::extTspScore(const Cfg &G,
                                      const std::vector<uint32_t> &Order,
                                      const ExtTspParams &Params) {
  assert(Order.size() == G.numBlocks() && "order must cover all blocks");
  std::vector<uint64_t> Start(G.numBlocks(), 0);
  uint64_t Offset = 0;
  for (uint32_t Block : Order) {
    Start[Block] = Offset;
    Offset += G.block(Block).SizeBytes;
  }
  double Score = 0.0;
  for (const CfgEdge &E : G.edges()) {
    if (E.Src == E.Dst)
      continue;
    uint64_t SrcEnd = Start[E.Src] + G.block(E.Src).SizeBytes;
    Score += scoreEdge(E.Weight, SrcEnd, Start[E.Dst], Params);
  }
  return Score;
}

std::vector<uint32_t>
jumpstart::layout::extTspOrder(const Cfg &G, const ExtTspParams &Params,
                               ExtTspStats *Stats) {
  if (Stats)
    *Stats = ExtTspStats();
  if (G.numBlocks() == 0)
    return {};
  if (G.numBlocks() == 1)
    return {0};
  ExtTspSolver Solver(G, Params);
  std::vector<uint32_t> Order = Solver.solve();
  if (Stats)
    Stats->MergeEvals = Solver.MergeEvals;
  return Order;
}
