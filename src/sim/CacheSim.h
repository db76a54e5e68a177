//===- CacheSim.h - Two-level set-associative cache simulator ---*- C++ -*-===//
//
// Part of the AXI4MLIR reproduction. MIT licensed.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// A functional two-level (L1D + shared L2) write-allocate LRU cache
/// simulator keyed on host virtual addresses. It produces the
/// `cache-references` and `cache-misses` counters the paper reports via
/// perf (Figs. 12 & 16): every L1 access is a cache reference; misses walk
/// into L2 and then DRAM, charging the cost-model penalties.
///
/// Every simulated scalar load/store goes through here, so the L1 lookup
/// up to the MRU compare is inline: an access that hits the most recently
/// used way of its L1 set costs a few ALU ops at the call site. The scan
/// of the other ways, the LRU update and the L2 walk stay out of line.
///
//===----------------------------------------------------------------------===//

#ifndef AXI4MLIR_SIM_CACHESIM_H
#define AXI4MLIR_SIM_CACHESIM_H

#include "sim/CostModel.h"

#include <cstdint>
#include <vector>

namespace axi4mlir {
namespace sim {

/// One set-associative level with LRU replacement.
class CacheLevel {
public:
  CacheLevel(int64_t SizeBytes, int64_t Associativity, int64_t LineBytes);

  /// Accesses the line containing \p Address. Returns true on hit; on miss
  /// the line is installed (write-allocate, no dirty modeling needed for
  /// counter reproduction).
  bool access(uint64_t Address) {
    // Shift/mask line math when line size and set count are powers of two
    // (the common configuration); anything else divides, out of line.
    if ((LineShift | SetShift) < 0)
      return accessByDivision(Address);
    uint64_t Line = Address >> LineShift;
    uint64_t *SetTags = Tags.data() + (Line & SetMask) * Ways;
    uint64_t Tag = (Line >> SetShift) + 1; // +1 so 0 stays "invalid".
    // MRU fast path: repeated accesses to the same line (element sweeps
    // within one cache line) skip the reordering scan entirely.
    return SetTags[0] == Tag || accessWays(SetTags, Tag);
  }

  void reset();

  uint64_t getNumSets() const { return NumSets; }

private:
  /// access() for geometries that are not powers of two (exact for any
  /// geometry).
  bool accessByDivision(uint64_t Address);

  /// The non-MRU rest of access(): looks for \p Tag in the other ways of
  /// \p SetTags and moves it to the MRU position, or installs it there on
  /// a miss (evicting the LRU way).
  bool accessWays(uint64_t *SetTags, uint64_t Tag);

  int64_t LineBytes;
  uint64_t NumSets;
  int64_t Ways;
  /// log2 of the line size and set count, or -1 when not a power of two.
  /// Purely an implementation speedup — hit/miss behavior is unchanged.
  int LineShift = -1;
  int SetShift = -1;
  uint64_t SetMask = 0;
  /// Tags[set * Ways + way]; 0 = invalid. LRU order per set is maintained
  /// by keeping the most recently used tag first.
  std::vector<uint64_t> Tags;
};

/// The two-level hierarchy with reference/miss counters.
class CacheSim {
public:
  explicit CacheSim(const SoCParams &Params);

  /// Simulates a scalar access of \p Bytes at \p Address (straddling
  /// accesses touch each line once). Returns the miss-penalty cycles.
  uint64_t access(uint64_t Address, unsigned Bytes) {
    uint64_t End = Address + (Bytes ? Bytes - 1 : 0);
    if (LineShift < 0 || (End >> LineShift) != (Address >> LineShift))
      return accessSpan(Address, End);
    return accessLine(Address);
  }

  /// Simulates a bulk access of \p Bytes starting at \p Address, touching
  /// each cache line exactly once — the behaviour of a vectorized memcpy
  /// (paper Sec. IV-B: "there will only be [a couple of] cache references
  /// to fetch the cache line"). Returns total miss-penalty cycles.
  uint64_t accessRange(uint64_t Address, uint64_t Bytes) {
    if (Bytes == 0)
      return 0;
    uint64_t Penalty = 0;
    if (LineShift >= 0) {
      uint64_t Shift = static_cast<uint64_t>(LineShift);
      uint64_t LastLine = (Address + Bytes - 1) >> Shift;
      for (uint64_t Line = Address >> Shift; Line <= LastLine; ++Line)
        Penalty += accessLine(Line << Shift);
      return Penalty;
    }
    uint64_t LineBytes = static_cast<uint64_t>(Params.CacheLineBytes);
    uint64_t LastLine = (Address + Bytes - 1) / LineBytes;
    for (uint64_t Line = Address / LineBytes; Line <= LastLine; ++Line)
      Penalty += accessLine(Line * LineBytes);
    return Penalty;
  }

  void reset();

  uint64_t getReferences() const { return References; }
  uint64_t getL1Misses() const { return L1Misses; }
  uint64_t getL2Misses() const { return L2Misses; }

private:
  uint64_t accessLine(uint64_t LineAddress) {
    ++References;
    return L1.access(LineAddress) ? 0 : missL1(LineAddress);
  }

  /// access() for a scalar that straddles two lines, or for any scalar
  /// when lines are not a power of two (exact for any line size): touches
  /// each line of [\p Address, \p End] once.
  uint64_t accessSpan(uint64_t Address, uint64_t End);

  /// Counts an L1 miss and walks L2; returns the miss penalty.
  uint64_t missL1(uint64_t LineAddress);

  SoCParams Params;
  CacheLevel L1;
  CacheLevel L2;
  int LineShift; ///< log2(CacheLineBytes), or -1 for the division path.
  uint64_t References = 0;
  uint64_t L1Misses = 0;
  uint64_t L2Misses = 0;
};

} // namespace sim
} // namespace axi4mlir

#endif // AXI4MLIR_SIM_CACHESIM_H
