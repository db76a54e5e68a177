//===- CacheSim.cpp - Cache simulator implementation ----------------------===//
//
// Part of the AXI4MLIR reproduction. MIT licensed.
//
//===----------------------------------------------------------------------===//

#include "sim/CacheSim.h"

#include <cassert>

using namespace axi4mlir;
using namespace axi4mlir::sim;

/// log2 of \p Value when it is a power of two, -1 otherwise.
static int log2IfPow2(uint64_t Value) {
  return Value != 0 && (Value & (Value - 1)) == 0
             ? __builtin_ctzll(Value)
             : -1;
}

CacheLevel::CacheLevel(int64_t SizeBytes, int64_t Associativity,
                       int64_t LineBytes)
    : LineBytes(LineBytes), Ways(Associativity) {
  assert(SizeBytes > 0 && Associativity > 0 && LineBytes > 0);
  NumSets = static_cast<uint64_t>(SizeBytes / (Associativity * LineBytes));
  assert(NumSets > 0 && "cache too small for its associativity");
  LineShift = log2IfPow2(static_cast<uint64_t>(LineBytes));
  SetShift = log2IfPow2(NumSets);
  SetMask = NumSets - 1;
  Tags.assign(NumSets * Ways, 0);
}

bool CacheLevel::accessByDivision(uint64_t Address) {
  uint64_t Line = Address / static_cast<uint64_t>(LineBytes);
  uint64_t *SetTags = Tags.data() + Line % NumSets * Ways;
  uint64_t Tag = Line / NumSets + 1;
  return SetTags[0] == Tag || accessWays(SetTags, Tag);
}

bool CacheLevel::accessWays(uint64_t *SetTags, uint64_t Tag) {
  // One pass scans the non-MRU ways and shifts each one down a slot: a hit
  // at way W ends with ways [0, W) moved to [1, W], a miss shifts them all
  // and drops the LRU way. Either way the tag lands in the MRU slot.
  uint64_t Prev = SetTags[0];
  for (int64_t Way = 1; Way < Ways; ++Way) {
    uint64_t Cur = SetTags[Way];
    SetTags[Way] = Prev;
    if (Cur == Tag) {
      SetTags[0] = Tag;
      return true;
    }
    Prev = Cur;
  }
  SetTags[0] = Tag;
  return false;
}

void CacheLevel::reset() { Tags.assign(Tags.size(), 0); }

CacheSim::CacheSim(const SoCParams &Params)
    : Params(Params),
      L1(Params.L1SizeBytes, Params.L1Associativity, Params.CacheLineBytes),
      L2(Params.L2SizeBytes, Params.L2Associativity, Params.CacheLineBytes),
      LineShift(log2IfPow2(static_cast<uint64_t>(Params.CacheLineBytes))) {}

uint64_t CacheSim::accessSpan(uint64_t Address, uint64_t End) {
  ++References;
  return lookupSpan(Address, End);
}

uint64_t CacheSim::lookupSpan(uint64_t Address, uint64_t End) noexcept {
  uint64_t LineBytes = static_cast<uint64_t>(Params.CacheLineBytes);
  uint64_t Penalty = lookupLine(Address);
  // A straddling scalar access touches the second line too.
  if (End / LineBytes != Address / LineBytes)
    Penalty += accessLine(End / LineBytes * LineBytes);
  return Penalty;
}

uint64_t CacheSim::lookupLine(uint64_t LineAddress) noexcept {
  return L1.access(LineAddress) ? 0 : missL1(LineAddress);
}

uint64_t CacheSim::lookupWays(uint64_t *SetTags, uint64_t Tag,
                              uint64_t LineAddress) noexcept {
  return L1.accessWays(SetTags, Tag) ? 0 : missL1(LineAddress);
}

uint64_t CacheSim::missL1(uint64_t LineAddress) {
  ++L1Misses;
  if (L2.access(LineAddress))
    return Params.L1MissPenaltyCycles;
  ++L2Misses;
  return Params.L1MissPenaltyCycles + Params.L2MissPenaltyCycles;
}

void CacheSim::reset() {
  L1.reset();
  L2.reset();
  References = 0;
  L1Misses = 0;
  L2Misses = 0;
}
