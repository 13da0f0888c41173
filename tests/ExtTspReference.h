//===----------------------------------------------------------------------===//
//
// Part of the jumpstart project, a reproduction of "HHVM Jump-Start:
// Boosting Both Warmup and Steady-State Performance at Scale" (CGO 2021).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The reference Ext-TSP solver: the original whole-graph greedy merger
/// that rescans every edge and recomputes every pair's best merge on each
/// iteration.  It is roughly cubic in the block count and lives here only
/// as a test oracle: layout::extTspOrder caches merge gains and must
/// return the same order, element for element, on every CFG.
///
//===----------------------------------------------------------------------===//

#ifndef JUMPSTART_TESTS_EXTTSPREFERENCE_H
#define JUMPSTART_TESTS_EXTTSPREFERENCE_H

#include "core/JumpStartOptions.h"
#include "fleet/Traffic.h"
#include "fleet/WorkloadGen.h"
#include "layout/ExtTsp.h"
#include "vm/Server.h"

#include <vector>

namespace jumpstart::layout::reference {

/// The reference block order of \p G.  When \p MergeEvals is non-null it
/// receives the number of best-merge evaluations the solve made.
std::vector<uint32_t> extTspOrder(const Cfg &G,
                                  const ExtTspParams &Params = ExtTspParams(),
                                  uint64_t *MergeEvals = nullptr);

/// The layout CFGs of every optimized translation of one seeder and of
/// one consumer booted from that seeder's package.
struct LifecycleCfgs {
  std::vector<Cfg> Seeder;
  std::vector<Cfg> Consumer;
  bool ConsumerUsedJumpStart = false;
};

/// Runs a seeder (\p Requests requests of \p Traffic, seeder
/// instrumentation on), publishes its package and boots a consumer from
/// it, collecting the layout CFG of each side's optimized translations.
LifecycleCfgs lifecycleCfgs(const fleet::Workload &W,
                            const fleet::TrafficModel &Traffic,
                            const vm::ServerConfig &Config,
                            const core::JumpStartOptions &Opts,
                            uint32_t Requests);

} // namespace jumpstart::layout::reference

#endif // JUMPSTART_TESTS_EXTTSPREFERENCE_H
