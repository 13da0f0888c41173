//===----------------------------------------------------------------------===//
//
// Part of the jumpstart project, a reproduction of "HHVM Jump-Start:
// Boosting Both Warmup and Steady-State Performance at Scale" (CGO 2021).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Ext-TSP basic-block reordering (Newell & Pupyrev, "Improved Basic Block
/// Reordering", IEEE TC 2020) -- the algorithm HHVM's JIT uses for block
/// layout and that Jump-Start feeds with accurate Vasm-level counters
/// (paper section V-A).
///
/// The Ext-TSP score extends simple fallthrough maximization: an edge
/// contributes its full weight when laid out as a fallthrough, and a
/// partial weight when it becomes a short forward or backward jump, decaying
/// linearly with jump distance.  The optimizer greedily merges block chains
/// by best score gain, considering multiple merge shapes (including
/// splitting a chain), then orders the final chains by density.
///
/// The solver is incremental, as in LLVM's CodeLayout: the best merge of
/// each connected chain pair is cached with its gain, and a merge drops
/// only the entries naming the two chains it touched.  An iteration thus
/// costs one cache lookup per edge plus fresh merge evaluations for the
/// pairs involving the chain just formed, instead of re-scoring every
/// pair.  The cached values are the very doubles a full re-scan would
/// compute, so the order is the one the whole-graph greedy merger yields
/// (tests/ExtTspReference.cpp keeps that merger as the oracle).
///
//===----------------------------------------------------------------------===//

#ifndef JUMPSTART_LAYOUT_EXTTSP_H
#define JUMPSTART_LAYOUT_EXTTSP_H

#include "layout/Cfg.h"

#include <vector>

namespace jumpstart::layout {

/// Ext-TSP scoring parameters (values from the paper).
struct ExtTspParams {
  double FallthroughWeight = 1.0;
  double ForwardWeight = 0.1;
  double BackwardWeight = 0.1;
  uint32_t ForwardDistance = 1024;
  uint32_t BackwardDistance = 640;
};

/// Computes the Ext-TSP score of laying \p Cfg out in \p Order (a
/// permutation of block ids).  Higher is better.
double extTspScore(const Cfg &G, const std::vector<uint32_t> &Order,
                   const ExtTspParams &Params = ExtTspParams());

/// Work counters of one extTspOrder call.
struct ExtTspStats {
  /// Best-merge evaluations of a chain pair (merge-cache misses).
  uint64_t MergeEvals = 0;
};

/// Computes a block order maximizing the Ext-TSP score, starting from the
/// entry block (block 0 always stays first).  Fills \p Stats when given.
std::vector<uint32_t> extTspOrder(const Cfg &G,
                                  const ExtTspParams &Params = ExtTspParams(),
                                  ExtTspStats *Stats = nullptr);

} // namespace jumpstart::layout

#endif // JUMPSTART_LAYOUT_EXTTSP_H
