//===----------------------------------------------------------------------===//
//
// Part of the jumpstart project, a reproduction of "HHVM Jump-Start:
// Boosting Both Warmup and Steady-State Performance at Scale" (CGO 2021).
//
//===----------------------------------------------------------------------===//

#include "layout/Cfg.h"

#include "support/Assert.h"

#include <algorithm>

using namespace jumpstart;
using namespace jumpstart::layout;

void Cfg::addEdge(uint32_t Src, uint32_t Dst, uint64_t Weight) {
  assert(Src < Blocks.size() && Dst < Blocks.size() && "edge out of range");
  if (2 * (Edges.size() + 1) > EdgeSlots.size())
    growEdgeSlots();
  for (size_t I = slotOf(Src, Dst);; I = (I + 1) & (EdgeSlots.size() - 1)) {
    if (EdgeSlots[I] == 0) {
      Edges.push_back(CfgEdge{Src, Dst, Weight});
      EdgeSlots[I] = static_cast<uint32_t>(Edges.size());
      return;
    }
    CfgEdge &E = Edges[EdgeSlots[I] - 1];
    if (E.Src == Src && E.Dst == Dst) {
      E.Weight += Weight;
      return;
    }
  }
}

size_t Cfg::slotOf(uint32_t Src, uint32_t Dst) const {
  uint64_t Key = (static_cast<uint64_t>(Src) << 32) | Dst;
  return static_cast<size_t>((Key * 0x9e3779b97f4a7c15ULL) >> 32) &
         (EdgeSlots.size() - 1);
}

void Cfg::growEdgeSlots() {
  EdgeSlots.assign(std::max<size_t>(16, 2 * EdgeSlots.size()), 0);
  for (uint32_t Id = 0; Id < Edges.size(); ++Id) {
    size_t I = slotOf(Edges[Id].Src, Edges[Id].Dst);
    while (EdgeSlots[I] != 0)
      I = (I + 1) & (EdgeSlots.size() - 1);
    EdgeSlots[I] = Id + 1;
  }
}

uint64_t Cfg::totalBytes() const {
  uint64_t Total = 0;
  for (const CfgBlock &B : Blocks)
    Total += B.SizeBytes;
  return Total;
}
