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
/// A sweep of many accesses opens a CacheSim::Walker, which holds the L1
/// geometry and the reference count in locals while it is open.
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
  friend class CacheSim;

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
  class Walker;

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
  uint64_t accessRange(uint64_t Address, uint64_t Bytes);

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

  /// accessSpan() and accessLine() without counting the reference to the
  /// line holding \p Address, which a Walker has counted already.
  uint64_t lookupSpan(uint64_t Address, uint64_t End) noexcept;
  uint64_t lookupLine(uint64_t LineAddress) noexcept;
  /// The rest of a Walker lookup whose line (\p Tag) missed the MRU way
  /// of its L1 set \p SetTags: the way scan and, on a miss, the L2 walk.
  uint64_t lookupWays(uint64_t *SetTags, uint64_t Tag,
                      uint64_t LineAddress) noexcept;

  SoCParams Params;
  CacheLevel L1;
  CacheLevel L2;
  int LineShift; ///< log2(CacheLineBytes), or -1 for the division path.
  uint64_t References = 0;
  uint64_t L1Misses = 0;
  uint64_t L2Misses = 0;
};

/// Walks lines of a CacheSim for one block of code: the L1 tag base, set
/// mask, way count and shifts are copied into the walker, and the
/// reference count is kept here and added to the cache when the walker
/// closes. Tags, LRU order and the miss counters are read and written in
/// the cache itself, so accesses made through the cache while a walker is
/// open stay exact. A line that misses the MRU way goes to the cache's
/// out-of-line way scan and L2 walk. When the line size or the L1 set
/// count is not a power of two, every line takes the division lookup.
///
/// The walker counts one reference per access() and per line of a
/// range() unconditionally, so in a loop the count is an induction
/// variable; the second line of a straddling scalar is counted by the
/// cache.
class CacheSim::Walker {
public:
  explicit Walker(CacheSim &Cache)
      : Cache(Cache), Tags(Cache.L1.Tags.data()), SetMask(Cache.L1.SetMask),
        Ways(Cache.L1.Ways),
        LineShift((Cache.L1.LineShift | Cache.L1.SetShift) < 0
                      ? -1
                      : Cache.L1.LineShift),
        TagShift(Cache.L1.LineShift + Cache.L1.SetShift) {}
  ~Walker() { Cache.References += References; }
  Walker(const Walker &) = delete;
  Walker &operator=(const Walker &) = delete;

  /// What CacheSim::access(\p Address, \p Bytes) does. The branch hints
  /// keep the MRU hit of a scalar within one line on the straight path.
  uint64_t access(uint64_t Address, unsigned Bytes) {
    ++References;
    uint64_t End = Address + (Bytes ? Bytes - 1 : 0);
    if (__builtin_expect(LineShift < 0 || ((Address ^ End) >> LineShift), 0))
      return Cache.lookupSpan(Address, End);
    return lookup(Address);
  }

  /// What CacheSim::accessRange(\p Address, \p Bytes) does: each line of
  /// the range once, in address order.
  uint64_t range(uint64_t Address, uint64_t Bytes) {
    if (Bytes == 0)
      return 0;
    uint64_t Penalty = 0;
    if (LineShift >= 0) {
      uint64_t LastLine = (Address + Bytes - 1) >> LineShift;
      for (uint64_t Line = Address >> LineShift; Line <= LastLine; ++Line) {
        ++References;
        Penalty += lookup(Line << LineShift);
      }
      return Penalty;
    }
    uint64_t LineBytes = static_cast<uint64_t>(Cache.Params.CacheLineBytes);
    uint64_t LastLine = (Address + Bytes - 1) / LineBytes;
    for (uint64_t Line = Address / LineBytes; Line <= LastLine; ++Line) {
      ++References;
      Penalty += lookup(Line * LineBytes);
    }
    return Penalty;
  }

private:
  /// Looks up the line holding \p Address (its reference already
  /// counted); returns its penalty. The set and tag are CacheLevel's; a
  /// line that misses the MRU way goes straight to the way scan.
  uint64_t lookup(uint64_t Address) {
    if (LineShift < 0)
      return Cache.lookupLine(Address);
    uint64_t *SetTags = Tags + ((Address >> LineShift) & SetMask) * Ways;
    uint64_t Tag = (Address >> TagShift) + 1;
    if (__builtin_expect(SetTags[0] == Tag, 1))
      return 0;
    return Cache.lookupWays(SetTags, Tag, Address);
  }

  CacheSim &Cache;
  uint64_t *const Tags;
  const uint64_t SetMask;
  const int64_t Ways;
  /// log2 of the line size, or -1 when the line size or the L1 set count
  /// is not a power of two.
  const int LineShift;
  /// The line shift plus the set shift: an address shifted by it is the
  /// L1 tag, less one. Used only when LineShift is not -1.
  const int TagShift;
  uint64_t References = 0;
};

inline uint64_t CacheSim::accessRange(uint64_t Address, uint64_t Bytes) {
  return Walker(*this).range(Address, Bytes);
}

} // namespace sim
} // namespace axi4mlir

#endif // AXI4MLIR_SIM_CACHESIM_H
