//===----------------------------------------------------------------------===//
//
// Part of the jumpstart project, a reproduction of "HHVM Jump-Start:
// Boosting Both Warmup and Steady-State Performance at Scale" (CGO 2021).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// A translation: one unit of JITed machine code and its placement.
///
//===----------------------------------------------------------------------===//

#ifndef JUMPSTART_JIT_TRANSLATION_H
#define JUMPSTART_JIT_TRANSLATION_H

#include "jit/Vasm.h"

#include <memory>
#include <vector>

namespace jumpstart::jit {

/// The three machine-code flavours HHVM produces (paper section II-A).
enum class TransKind : uint8_t {
  Live,      ///< Tracelet compiler output, from live VM state.
  Profile,   ///< Tier-1 instrumented translation.
  Optimized, ///< Tier-2 region compiler output.
};

inline const char *transKindName(TransKind K) {
  switch (K) {
  case TransKind::Live:
    return "live";
  case TransKind::Profile:
    return "profile";
  case TransKind::Optimized:
    return "optimized";
  }
  return "?";
}

/// One translation.  The Vasm unit is retained (it is the "machine code"
/// the shadow tracer executes); placement assigns each block an address
/// in the code cache.
struct Translation {
  uint32_t Id = 0;
  TransKind Kind = TransKind::Live;
  /// Immutable once created (TransDb keeps running byte totals of it).
  std::unique_ptr<const VasmUnit> Unit;
  /// Per-Vasm-block placed addresses; 0 until placed.
  std::vector<uint64_t> BlockAddrs;
  /// Blocks whose trailing unconditional jump was elided at placement
  /// because the jump target landed immediately after the block (layout
  /// turning jumps into fallthroughs shrinks the code, which is part of
  /// why good block order helps the I-cache).
  std::vector<bool> JumpElided;
  /// True once the translation is reachable (placed in the code cache).
  bool Placed = false;
  /// Average Vasm instructions executed per bytecode instruction -- the
  /// execution cost of running this translation, fed to the VM's virtual
  /// clock.  Computed at compile time from the unit.
  double CostPerBytecode = 0;

  bc::FuncId func() const { return Unit->Func; }
  uint64_t entryAddr() const {
    return BlockAddrs.empty() ? 0 : BlockAddrs[0];
  }
};

} // namespace jumpstart::jit

#endif // JUMPSTART_JIT_TRANSLATION_H
