//===----------------------------------------------------------------------===//
//
// Part of the jumpstart project, a reproduction of "HHVM Jump-Start:
// Boosting Both Warmup and Steady-State Performance at Scale" (CGO 2021).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Differential tests of the incremental Ext-TSP solver against the
/// whole-graph reference solver (ExtTspReference.h): identical orders on
/// every optimized unit of a seeder and a consumer on the standard site,
/// and on seeded random CFGs built to provoke ties; plus a deterministic
/// gate on the solver's merge evaluations.
///
//===----------------------------------------------------------------------===//

#include "ExtTspReference.h"

#include "FigureCommon.h"

#include "support/Random.h"

#include <gtest/gtest.h>

using namespace jumpstart;
using namespace jumpstart::layout;

namespace {

/// Asserts both solvers order every CFG of \p Cfgs identically.
void expectSameOrders(const std::vector<Cfg> &Cfgs, const char *What) {
  for (size_t I = 0; I < Cfgs.size(); ++I)
    ASSERT_EQ(reference::extTspOrder(Cfgs[I]), extTspOrder(Cfgs[I]))
        << What << " CFG #" << I << " (" << Cfgs[I].numBlocks()
        << " blocks)";
}

/// Random CFG shapes; the degenerate ones make many merge gains tie.
enum class Flavor { Random, EqualWeights, EqualSizes, ZeroWeights };

Cfg makeCfg(Rng &R, size_t NumBlocks, Flavor F) {
  auto Size = [&] {
    return F == Flavor::EqualSizes || F == Flavor::EqualWeights
               ? 16u
               : 8u + static_cast<uint32_t>(R.nextBelow(64));
  };
  auto Weight = [&](uint64_t Max) -> uint64_t {
    if (F == Flavor::EqualWeights)
      return 10;
    if (F == Flavor::ZeroWeights && R.nextBelow(3) == 0)
      return 0;
    return 1 + R.nextBelow(Max);
  };
  Cfg G;
  for (size_t I = 0; I < NumBlocks; ++I)
    G.addBlock(Size(), Weight(1000));
  // A backbone keeps the graph connected; random extra edges (including
  // self-loops and repeats, which accumulate) make the rest.
  for (size_t I = 0; I + 1 < NumBlocks; ++I)
    G.addEdge(static_cast<uint32_t>(I), static_cast<uint32_t>(I + 1),
              Weight(100));
  for (size_t I = 0; I < NumBlocks + NumBlocks / 2; ++I)
    G.addEdge(static_cast<uint32_t>(R.nextBelow(NumBlocks)),
              static_cast<uint32_t>(R.nextBelow(NumBlocks)), Weight(500));
  return G;
}

} // namespace

TEST(ExtTspDiff, StandardSiteSeederAndConsumerUnits) {
  auto W = fleet::generateWorkload(bench::standardSite());
  fleet::TrafficModel Traffic(*W, fleet::TrafficParams(), /*Seed=*/3);
  vm::ServerConfig Config = bench::figureServerConfig();
  // Close the profiling window inside the seeder's run so the seeder
  // itself retranslates (the figure's window outlasts 1,200 requests).
  Config.Jit.ProfileRequestTarget = 600;
  reference::LifecycleCfgs Cfgs = reference::lifecycleCfgs(
      *W, Traffic, Config, core::JumpStartOptions(), /*Requests=*/1200);
  ASSERT_TRUE(Cfgs.ConsumerUsedJumpStart);
  ASSERT_FALSE(Cfgs.Seeder.empty());
  ASSERT_FALSE(Cfgs.Consumer.empty());
  expectSameOrders(Cfgs.Seeder, "seeder");
  expectSameOrders(Cfgs.Consumer, "consumer");
}

TEST(ExtTspDiff, SeededRandomCfgs) {
  // 400 CFGs: mostly 2-32 blocks, every 40th spread evenly over 48-160
  // (the reference solver is cubic, so the large ones dominate the cost).
  // Flavors rotate over both groups.
  constexpr uint32_t kCfgs = 400;
  constexpr uint32_t kLargeEvery = 40;
  constexpr uint32_t kLarge = kCfgs / kLargeEvery;
  Rng R(1809);
  for (uint32_t I = 0; I < kCfgs; ++I) {
    bool Large = I % kLargeEvery == kLargeEvery - 1;
    size_t NumBlocks = Large ? 48 + 112 * (I / kLargeEvery) / (kLarge - 1)
                             : 2 + R.nextBelow(31);
    Flavor F = static_cast<Flavor>((Large ? I / kLargeEvery : I) % 4);
    Cfg G = makeCfg(R, NumBlocks, F);
    ASSERT_EQ(reference::extTspOrder(G), extTspOrder(G))
        << "CFG #" << I << ": " << NumBlocks << " blocks, flavor "
        << static_cast<int>(F);
  }
}

TEST(ExtTspDiff, MergeEvaluationsStayNearLinear) {
  // A fixed 128-block CFG with 316 distinct edges.  The whole-graph
  // solver evaluates every connected pair on each merge round (28,159
  // evaluations here); the incremental solver evaluates each pair once
  // plus, per round, the pairs touching the newly merged chain (2,185).
  // The bound, 10 evaluations per edge, fails deterministically on a
  // return to whole-graph rescans without timing anything.
  Rng R(42);
  Cfg G = makeCfg(R, 128, Flavor::Random);
  const uint64_t Bound = 10 * G.edges().size();

  ExtTspStats Stats;
  std::vector<uint32_t> Order = extTspOrder(G, ExtTspParams(), &Stats);
  uint64_t ReferenceEvals = 0;
  EXPECT_EQ(reference::extTspOrder(G, ExtTspParams(), &ReferenceEvals),
            Order);
  EXPECT_GT(Stats.MergeEvals, 0u);
  EXPECT_LE(Stats.MergeEvals, Bound);
  EXPECT_GT(ReferenceEvals, Bound) << "the gate would not catch a rescan";
}
