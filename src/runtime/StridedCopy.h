//===- StridedCopy.h - Shared non-recursive strided copies ------*- C++ -*-===//
//
// Part of the AXI4MLIR reproduction. MIT licensed.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The one strided-copy engine behind every host-side data movement: the
/// interpreter's memref.copy and both directions of the DMA staging copies
/// (DmaRuntime::copyToDmaRegion / copyFromDmaRegion). Replaces the per-call
/// recursive sweeps (std::function recursion, per-element index vectors)
/// with a flat odometer walk whose cost-model charging is batched per row
/// block — counter totals are numerically identical to the unbatched
/// per-element/per-row charges because the arithmetic counters are pure
/// sums and the stateful cache simulator is still walked access-by-access
/// in the original order. All charges of one copy go through one
/// sim::HostPerfModel::Sweep.
///
/// Charging is unified across all callers (this is the fix for the
/// historical asymmetry where the DMA elementwise path charged a
/// per-row recursion overhead the interpreter's scalar sweep did not):
///   * scalar element: load(src) [+ load(dst) + 1 ALU when accumulating],
///     store(dst), 2 ALU index ops, 1 dispatch branch;
///   * row: one vectorized memcpy charge [+ RowBytes/8 ALU when
///     accumulating];
///   * one loop-iteration charge per index step of the sweep (every
///     dimension in scalar mode; all but the innermost in row mode);
///   * no per-row call-frame overhead — the walk is not recursive.
///
//===----------------------------------------------------------------------===//

#ifndef AXI4MLIR_RUNTIME_STRIDEDCOPY_H
#define AXI4MLIR_RUNTIME_STRIDEDCOPY_H

#include "runtime/MemRefDesc.h"
#include "sim/AcceleratorModel.h"
#include "sim/PerfModel.h"
#include "support/LogicalResult.h"

#include <cassert>
#include <cstdint>
#include <cstring>
#include <string>

namespace axi4mlir {
namespace runtime {

/// One side of a strided copy: word pointer and host address of the view's
/// element 0, plus per-dimension element strides (Rank entries).
struct CopySpan {
  uint32_t *Data = nullptr;
  uint64_t Address = 0;
  const int64_t *Strides = nullptr;
};

/// What to do with each destination word.
enum class CopyMode : uint8_t { Overwrite, AccumulateI32, AccumulateF32 };

/// One strided copy over a common iteration shape. The row-memcpy
/// specialization is a caller policy (the paper's Sec. IV-B flag plus any
/// profitability threshold), not decided here.
struct StridedCopyRequest {
  unsigned Rank = 0;
  const int64_t *Sizes = nullptr;
  CopySpan Dst;
  CopySpan Src;
  CopyMode Mode = CopyMode::Overwrite;
  bool RowMemcpy = false;
};

namespace detail {

/// Upper bound on iteration-space rank for the fixed-size odometers here
/// and in ExecPlan's generic kernels. Deeper copies are refused with
/// copyRankError (copyMemRef, DmaRuntime's staging copies) and deeper
/// linalg.generic nests by ExecPlan::compile; raw requests are asserted.
inline constexpr unsigned MaxCopyRank = 16;

/// Sum over d of prod(Sizes[0..d]) for d in [0, Dims): the number of
/// onLoopIteration charges a nested sweep over the leading \p Dims
/// dimensions performs.
inline uint64_t sweepIterations(const int64_t *Sizes, unsigned Dims) {
  uint64_t Total = 0, Prefix = 1;
  for (unsigned D = 0; D < Dims; ++D) {
    Prefix *= static_cast<uint64_t>(Sizes[D]);
    Total += Prefix;
  }
  return Total;
}

inline void accumulateRow(uint32_t *Dst, const uint32_t *Src, int64_t Count,
                          CopyMode Mode) {
  if (Mode == CopyMode::AccumulateF32) {
    for (int64_t I = 0; I < Count; ++I)
      Dst[I] = sim::floatToWord(sim::wordToFloat(Dst[I]) +
                                sim::wordToFloat(Src[I]));
  } else {
    for (int64_t I = 0; I < Count; ++I)
      Dst[I] = static_cast<uint32_t>(static_cast<int32_t>(Dst[I]) +
                                     static_cast<int32_t>(Src[I]));
  }
}

} // namespace detail

/// Builds a request between two memref views of a common shape (the
/// shape is taken from \p Source; callers have already checked equality).
/// The row-memcpy policy stays with the caller.
inline StridedCopyRequest makeCopyRequest(const MemRefDesc &Source,
                                          const MemRefDesc &Dest,
                                          bool RowMemcpy,
                                          CopyMode Mode = CopyMode::Overwrite) {
  StridedCopyRequest Req;
  Req.Rank = Source.rank();
  Req.Sizes = Source.Sizes.data();
  Req.Src = {Source.Buffer->Data.data() + Source.Offset,
             Source.addressOf(Source.Offset), Source.Strides.data()};
  Req.Dst = {Dest.Buffer->Data.data() + Dest.Offset,
             Dest.addressOf(Dest.Offset), Dest.Strides.data()};
  Req.Mode = Mode;
  Req.RowMemcpy = RowMemcpy;
  return Req;
}

/// The one diagnostic for a copy whose iteration space is deeper than
/// detail::MaxCopyRank: \p What names the copy (an op or a runtime call).
inline std::string copyRankError(const std::string &What, unsigned Rank) {
  return What + " of rank " + std::to_string(Rank) +
         " exceeds the supported copy rank (" +
         std::to_string(detail::MaxCopyRank) + ")";
}

/// Executes \p Req, charging \p Perf as documented above through one
/// sweep.
inline void stridedCopy(sim::HostPerfModel &Perf,
                        const StridedCopyRequest &Req) {
  assert(Req.Rank <= detail::MaxCopyRank && "copy rank beyond odometer cap");
  sim::HostPerfModel::Sweep Charge(Perf);
  const unsigned Rank = Req.Rank;
  const int64_t *Sizes = Req.Sizes;

  //===------------------------------------------------------------------===//
  // Row-memcpy mode: one memcpy per innermost row, charges batched per
  // uniformly-strided row block (the second-innermost dimension).
  //===------------------------------------------------------------------===//
  if (Req.RowMemcpy) {
    const int64_t RowElements = Rank == 0 ? 1 : Sizes[Rank - 1];
    const uint64_t RowBytes = static_cast<uint64_t>(RowElements) * 4;
    // Loop iterations are charged for every dimension above the rows.
    Charge.onLoopIterations(
        detail::sweepIterations(Sizes, Rank >= 1 ? Rank - 1 : 0));

    const int64_t Rows = Rank >= 2 ? Sizes[Rank - 2] : 1;
    const int64_t SrcRowStride = Rank >= 2 ? Req.Src.Strides[Rank - 2] : 0;
    const int64_t DstRowStride = Rank >= 2 ? Req.Dst.Strides[Rank - 2] : 0;
    // Rows that abut on both sides collapse into a single memcpy (charged
    // identically: the model still sees one memcpy per row).
    const bool Collapsible = Req.Mode == CopyMode::Overwrite &&
                             SrcRowStride == RowElements &&
                             DstRowStride == RowElements;

    // Odometer over the dimensions outside the row block. A zero-sized
    // outer dimension means no block ever runs (the loop-iteration
    // charges above are already zero from that dimension inward).
    const unsigned OuterDims = Rank >= 2 ? Rank - 2 : 0;
    for (unsigned D = 0; D < OuterDims; ++D)
      if (Sizes[D] == 0)
        return;
    int64_t Index[detail::MaxCopyRank] = {0};
    int64_t SrcOff = 0, DstOff = 0;
    while (true) {
      Charge.onMemcpyRows(Req.Dst.Address + DstOff * 4,
                          Req.Src.Address + SrcOff * 4, RowBytes,
                          static_cast<uint64_t>(Rows), DstRowStride * 4,
                          SrcRowStride * 4);
      if (Req.Mode == CopyMode::Overwrite) {
        if (Collapsible) {
          std::memcpy(Req.Dst.Data + DstOff, Req.Src.Data + SrcOff,
                      static_cast<size_t>(Rows) * RowBytes);
        } else {
          for (int64_t Row = 0; Row < Rows; ++Row)
            std::memcpy(Req.Dst.Data + DstOff + Row * DstRowStride,
                        Req.Src.Data + SrcOff + Row * SrcRowStride,
                        RowBytes);
        }
      } else {
        Charge.onArith(RowBytes / 8 * static_cast<uint64_t>(Rows));
        for (int64_t Row = 0; Row < Rows; ++Row)
          detail::accumulateRow(Req.Dst.Data + DstOff + Row * DstRowStride,
                                Req.Src.Data + SrcOff + Row * SrcRowStride,
                                RowElements, Req.Mode);
      }
      // Advance the outer odometer (innermost-outer fastest).
      unsigned D = OuterDims;
      while (D > 0) {
        --D;
        ++Index[D];
        SrcOff += Req.Src.Strides[D];
        DstOff += Req.Dst.Strides[D];
        if (Index[D] < Sizes[D])
          break;
        SrcOff -= Sizes[D] * Req.Src.Strides[D];
        DstOff -= Sizes[D] * Req.Dst.Strides[D];
        Index[D] = 0;
        if (D == 0)
          return;
      }
      if (OuterDims == 0)
        return;
    }
  }

  //===------------------------------------------------------------------===//
  // Scalar mode: element-by-element, cache accesses issued in element
  // order, pure-ALU charges batched per row.
  //===------------------------------------------------------------------===//
  const int64_t RowElements = Rank == 0 ? 1 : Sizes[Rank - 1];
  Charge.onLoopIterations(detail::sweepIterations(Sizes, Rank));
  const uint64_t ArithPerElement =
      Req.Mode == CopyMode::Overwrite ? 2 : 3;
  const int64_t SrcElemStride = Rank == 0 ? 0 : Req.Src.Strides[Rank - 1];
  const int64_t DstElemStride = Rank == 0 ? 0 : Req.Dst.Strides[Rank - 1];

  const unsigned OuterDims = Rank >= 1 ? Rank - 1 : 0;
  for (unsigned D = 0; D < OuterDims; ++D)
    if (Sizes[D] == 0)
      return;
  int64_t Index[detail::MaxCopyRank] = {0};
  int64_t SrcOff = 0, DstOff = 0;
  while (true) {
    Charge.onArith(ArithPerElement * static_cast<uint64_t>(RowElements));
    Charge.onBranch(static_cast<uint64_t>(RowElements));
    int64_t SrcElem = SrcOff, DstElem = DstOff;
    for (int64_t I = 0; I < RowElements; ++I) {
      Charge.onScalarLoad(Req.Src.Address + SrcElem * 4, 4);
      uint32_t Word = Req.Src.Data[SrcElem];
      uint32_t *Slot = Req.Dst.Data + DstElem;
      if (Req.Mode == CopyMode::Overwrite) {
        *Slot = Word;
      } else {
        Charge.onScalarLoad(Req.Dst.Address + DstElem * 4, 4);
        if (Req.Mode == CopyMode::AccumulateF32)
          *Slot = sim::floatToWord(sim::wordToFloat(*Slot) +
                                   sim::wordToFloat(Word));
        else
          *Slot = static_cast<uint32_t>(static_cast<int32_t>(*Slot) +
                                        static_cast<int32_t>(Word));
      }
      Charge.onScalarStore(Req.Dst.Address + DstElem * 4, 4);
      SrcElem += SrcElemStride;
      DstElem += DstElemStride;
    }
    unsigned D = OuterDims;
    while (D > 0) {
      --D;
      ++Index[D];
      SrcOff += Req.Src.Strides[D];
      DstOff += Req.Dst.Strides[D];
      if (Index[D] < Sizes[D])
        break;
      SrcOff -= Sizes[D] * Req.Src.Strides[D];
      DstOff -= Sizes[D] * Req.Dst.Strides[D];
      Index[D] = 0;
      if (D == 0)
        return;
    }
    if (OuterDims == 0)
      return;
  }
}

/// memref.copy as every executor runs it: equal shapes, a rank within
/// the odometer cap, then a row-wise memcpy when both sides are contiguous
/// innermost (the compiler vectorizes the copy) and a scalar sweep
/// otherwise. On failure \p Error holds the diagnostic and nothing moved.
inline LogicalResult copyMemRef(sim::HostPerfModel &Perf,
                                const MemRefDesc &Source,
                                const MemRefDesc &Dest, std::string &Error) {
  if (Source.Sizes != Dest.Sizes) {
    Error = "memref.copy shape mismatch";
    return failure();
  }
  if (Source.rank() > detail::MaxCopyRank) {
    Error = copyRankError("memref.copy", Source.rank());
    return failure();
  }
  stridedCopy(Perf, makeCopyRequest(Source, Dest,
                                    Source.innermostContiguous() &&
                                        Dest.innermostContiguous()));
  return success();
}

} // namespace runtime
} // namespace axi4mlir

#endif // AXI4MLIR_RUNTIME_STRIDEDCOPY_H
