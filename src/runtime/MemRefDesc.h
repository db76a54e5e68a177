//===- MemRefDesc.h - Runtime memref descriptor -----------------*- C++ -*-===//
//
// Part of the AXI4MLIR reproduction. MIT licensed.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The runtime equivalent of an MLIR memref (paper Fig. 3):
///
///   typedef struct {
///     float *allocated;  // for deallocation
///     float *aligned;    // base address
///     size_t offset;     // offset in # of elements
///     size_t size[N];    // one size per dim
///     size_t stride[N];  // one stride per dim
///   }
///
/// Elements are stored as 32-bit words (i32 or f32 bit patterns) to match
/// the AXI-Stream width; buffers are shared so subviews alias their source.
///
//===----------------------------------------------------------------------===//

#ifndef AXI4MLIR_RUNTIME_MEMREFDESC_H
#define AXI4MLIR_RUNTIME_MEMREFDESC_H

#include "sim/AcceleratorModel.h"
#include "support/AlignedAlloc.h"
#include "support/STLExtras.h"

#include <cassert>
#include <cstdint>
#include <memory>
#include <new>
#include <vector>

namespace axi4mlir {
namespace runtime {

/// Cache-line-aligned allocation (shared with the simulator's DMA staging
/// regions; see support/AlignedAlloc.h for why alignment matters to the
/// modeled counters).
using axi4mlir::CacheLineAllocator;

/// The storage behind one allocation.
struct MemRefBuffer {
  AlignedVector<uint32_t> Data;
  sim::ElemKind Kind = sim::ElemKind::I32;

  explicit MemRefBuffer(size_t NumElements,
                        sim::ElemKind Kind = sim::ElemKind::I32)
      : Data(NumElements, 0), Kind(Kind) {}
};

/// A (possibly strided) view into a MemRefBuffer.
struct MemRefDesc {
  std::shared_ptr<MemRefBuffer> Buffer;
  int64_t Offset = 0;
  std::vector<int64_t> Sizes;
  std::vector<int64_t> Strides;

  MemRefDesc() = default;

  /// Allocates a fresh contiguous row-major memref.
  static MemRefDesc alloc(const std::vector<int64_t> &Shape,
                          sim::ElemKind Kind = sim::ElemKind::I32) {
    MemRefDesc Desc;
    Desc.Buffer = std::make_shared<MemRefBuffer>(
        static_cast<size_t>(product(Shape)), Kind);
    Desc.Sizes = Shape;
    Desc.Strides.assign(Shape.size(), 1);
    for (int I = static_cast<int>(Shape.size()) - 2; I >= 0; --I)
      Desc.Strides[I] = Desc.Strides[I + 1] * Shape[I + 1];
    return Desc;
  }

  unsigned rank() const { return Sizes.size(); }
  int64_t numElements() const { return product(Sizes); }
  sim::ElemKind kind() const { return Buffer->Kind; }

  /// Makes this descriptor the rank-preserving subview of \p Source whose
  /// origin along dimension D is \p OffsetAt(D) and whose sizes are
  /// \p SubSizes (relative strides of 1), aliasing Source's buffer. This is
  /// the one definition of memref.subview; every executor writes the
  /// result's slot through it. Once Sizes and Strides have the rank's
  /// capacity it allocates nothing, it touches Buffer's reference count only
  /// when the buffer changes, and \p Source may be this descriptor.
  template <typename OffsetFn>
  void assignSubview(const MemRefDesc &Source, OffsetFn OffsetAt,
                     const std::vector<int64_t> &SubSizes) {
    assert(SubSizes.size() == Source.rank() && "subview rank mismatch");
    int64_t NewOffset = Source.Offset;
    for (unsigned I = 0; I < Source.rank(); ++I) {
      int64_t Origin = OffsetAt(I);
      assert(Origin + SubSizes[I] <= Source.Sizes[I] &&
             "subview escapes its source memref");
      NewOffset += Origin * Source.Strides[I];
    }
    if (this != &Source) {
      if (Buffer != Source.Buffer)
        Buffer = Source.Buffer;
      Strides.assign(Source.Strides.begin(), Source.Strides.end());
    }
    Sizes.assign(SubSizes.begin(), SubSizes.end());
    Offset = NewOffset;
  }

  /// assignSubview into a fresh descriptor, for callers holding the
  /// offsets in a vector.
  MemRefDesc subview(const std::vector<int64_t> &Offsets,
                     const std::vector<int64_t> &SubSizes) const {
    assert(Offsets.size() == rank() && "subview offset count mismatch");
    MemRefDesc Desc;
    Desc.assignSubview(
        *this, [&](unsigned I) { return Offsets[I]; }, SubSizes);
    return Desc;
  }

  /// Linearized element index of a coordinate.
  int64_t linearIndex(const std::vector<int64_t> &Indices) const {
    assert(Indices.size() == rank() && "coordinate rank mismatch");
    int64_t Linear = Offset;
    for (unsigned I = 0; I < rank(); ++I) {
      assert(Indices[I] >= 0 && Indices[I] < Sizes[I] &&
             "memref index out of bounds");
      Linear += Indices[I] * Strides[I];
    }
    return Linear;
  }

  uint32_t &at(const std::vector<int64_t> &Indices) {
    return Buffer->Data[static_cast<size_t>(linearIndex(Indices))];
  }
  uint32_t at(const std::vector<int64_t> &Indices) const {
    return Buffer->Data[static_cast<size_t>(linearIndex(Indices))];
  }

  /// Host virtual address of an element (for the cache simulator).
  uint64_t addressOf(int64_t LinearIndex) const {
    return reinterpret_cast<uint64_t>(Buffer->Data.data() + LinearIndex);
  }

  /// True if the innermost dimension is contiguous (stride 1), i.e. the
  /// copy specialization of paper Sec. IV-B applies.
  bool innermostContiguous() const {
    return rank() == 0 || Strides.back() == 1;
  }

  //===------------------------------------------------------------------===//
  // Typed element access (used by reference kernels and tests)
  //===------------------------------------------------------------------===//

  double read(const std::vector<int64_t> &Indices) const {
    uint32_t Word = at(Indices);
    return kind() == sim::ElemKind::F32
               ? static_cast<double>(sim::wordToFloat(Word))
               : static_cast<double>(static_cast<int32_t>(Word));
  }
  void write(const std::vector<int64_t> &Indices, double Value) {
    at(Indices) = kind() == sim::ElemKind::F32
                      ? sim::floatToWord(static_cast<float>(Value))
                      : static_cast<uint32_t>(
                            static_cast<int32_t>(sim::doubleToInt64(Value)));
  }
};

} // namespace runtime
} // namespace axi4mlir

#endif // AXI4MLIR_RUNTIME_MEMREFDESC_H
