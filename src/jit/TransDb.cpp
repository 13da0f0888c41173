//===----------------------------------------------------------------------===//
//
// Part of the jumpstart project, a reproduction of "HHVM Jump-Start:
// Boosting Both Warmup and Steady-State Performance at Scale" (CGO 2021).
//
//===----------------------------------------------------------------------===//

#include "jit/TransDb.h"

#include "support/Assert.h"
#include "support/StringUtil.h"

using namespace jumpstart;
using namespace jumpstart::jit;

TransDb::FuncMap &TransDb::mapFor(TransKind K) {
  switch (K) {
  case TransKind::Live:
    return LiveMap;
  case TransKind::Profile:
    return ProfileMap;
  case TransKind::Optimized:
    return OptMap;
  }
  unreachable("unhandled TransKind");
}

const TransDb::FuncMap &TransDb::mapFor(TransKind K) const {
  return const_cast<TransDb *>(this)->mapFor(K);
}

Translation &TransDb::create(TransKind Kind,
                             std::unique_ptr<VasmUnit> Unit) {
  auto T = std::make_unique<Translation>();
  T->Kind = Kind;
  T->Unit = std::move(Unit);
  // Execution cost: cost units per bytecode covered.  Calls model helper
  // overhead; everything else retires in about a unit.
  uint64_t Cost = 0;
  for (const VBlock &B : T->Unit->Blocks) {
    for (const VInstr &I : B.Instrs) {
      switch (I.Kind) {
      case VKind::Call:
      case VKind::IndCall:
        Cost += 4;
        break;
      case VKind::Counter:
        Cost += 2;
        break;
      default:
        Cost += 1;
        break;
      }
    }
  }
  T->CostPerBytecode =
      T->Unit->BytecodeCount
          ? static_cast<double>(Cost) /
                static_cast<double>(T->Unit->BytecodeCount)
          : 1.0;
  uint64_t Bytes = T->Unit->sizeBytes();
  support::MutexLock Lock(M);
  T->Id = static_cast<uint32_t>(All.size());
  ElidedGuardCount += T->Unit->ElidedGuards.size();
  BytesByKind[static_cast<size_t>(Kind)] += Bytes;
  mapFor(Kind).insertOrAssign(T->Unit->Func.raw(), T->Id);
  All.push_back(std::move(T));
  return *All.back();
}

Translation *TransDb::forFuncLocked(bc::FuncId F, TransKind K) const {
  const uint32_t *Id = mapFor(K).find(F.raw());
  return Id ? All[*Id].get() : nullptr;
}

Translation *TransDb::forFunc(bc::FuncId F, TransKind K) {
  support::MutexLock Lock(M);
  return forFuncLocked(F, K);
}

const Translation *TransDb::forFunc(bc::FuncId F, TransKind K) const {
  support::MutexLock Lock(M);
  return forFuncLocked(F, K);
}

const Translation *TransDb::best(bc::FuncId F) const {
  support::MutexLock Lock(M);
  const Translation *Opt = forFuncLocked(F, TransKind::Optimized);
  if (Opt && Opt->Placed)
    return Opt;
  const Translation *Live = forFuncLocked(F, TransKind::Live);
  if (Live && Live->Placed)
    return Live;
  const Translation *Prof = forFuncLocked(F, TransKind::Profile);
  if (Prof && Prof->Placed)
    return Prof;
  return nullptr;
}

std::string TransDb::placementDigest() const {
  support::MutexLock Lock(M);
  std::string Out;
  for (const auto &T : All)
    Out += strFormat("t%u %s f%u placed=%d entry=%llu blocks=%zu\n",
                     T->Id, transKindName(T->Kind), T->func().raw(),
                     T->Placed ? 1 : 0,
                     static_cast<unsigned long long>(T->entryAddr()),
                     T->BlockAddrs.size());
  return Out;
}
