//===----------------------------------------------------------------------===//
//
// Part of the jumpstart project, a reproduction of "HHVM Jump-Start:
// Boosting Both Warmup and Steady-State Performance at Scale" (CGO 2021).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The tier-2 Ext-TSP sweep: for 200 generated programs, every optimized
/// unit of a seeder and of a consumer booted from its package is laid out
/// by the incremental solver and the whole-graph reference solver, and the
/// orders must match element for element.
///
/// Labeled tier2 in ctest; ci/sanitize.sh excludes it (-LE tier2).
///
//===----------------------------------------------------------------------===//

#include "ExtTspReference.h"

#include "testing/DiffRunner.h"
#include "testing/ProgramGen.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <cstdio>

using namespace jumpstart;
using namespace jumpstart::layout;
namespace jstest = jumpstart::testing;

TEST(ExtTspSweep, TwoHundredProgramsMatchReference) {
  core::JumpStartOptions Opts;
  Opts.Coverage.MinProfiledFuncs = 1;
  Opts.Coverage.MinTotalSamples = 1;
  Opts.ValidationRequests = 4;
  vm::ServerConfig Config;
  Config.Jit.ProfileRequestTarget = 20;

  size_t Units = 0;
  size_t MaxBlocks = 0;
  uint32_t JumpStartBoots = 0;
  for (uint32_t I = 0; I < 200; ++I) {
    jstest::GenParams G;
    G.Seed = 1809 * 1'000'003ull + I;
    G.MaxHelpers = 8;
    G.MaxStmts = 12;
    fleet::Workload W;
    ASSERT_TRUE(jstest::DiffRunner::compileProgram(
                    jstest::generateProgram(G).render(), W)
                    .ok())
        << "program " << I;
    fleet::TrafficModel Traffic(W, fleet::TrafficParams(), G.Seed);
    reference::LifecycleCfgs Cfgs =
        reference::lifecycleCfgs(W, Traffic, Config, Opts, 60);
    JumpStartBoots += Cfgs.ConsumerUsedJumpStart;
    for (const std::vector<Cfg> *Side : {&Cfgs.Seeder, &Cfgs.Consumer})
      for (const Cfg &C : *Side) {
        ++Units;
        MaxBlocks = std::max(MaxBlocks, C.numBlocks());
        ASSERT_EQ(reference::extTspOrder(C), extTspOrder(C))
            << "program " << I << ", " << C.numBlocks() << " blocks";
      }
  }
  std::printf("%zu optimized units (largest %zu blocks), %u Jump-Start "
              "boots\n",
              Units, MaxBlocks, JumpStartBoots);
  EXPECT_GT(Units, 200u);
  EXPECT_GT(JumpStartBoots, 100u);
}
