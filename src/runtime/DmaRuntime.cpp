//===- DmaRuntime.cpp - DMA runtime library implementation ----------------===//
//
// Part of the AXI4MLIR reproduction. MIT licensed.
//
//===----------------------------------------------------------------------===//

#include "runtime/DmaRuntime.h"

#include "runtime/StridedCopy.h"

#include <cassert>
#include <string>

using namespace axi4mlir;
using namespace axi4mlir::runtime;

void DmaRuntime::dmaInit(const accel::DmaInitConfig &Config) {
  Soc.dma().init(Config);
}

uint64_t DmaRuntime::regionAddress(bool Input, int64_t OffsetWords) const {
  const sim::DmaEngine &Dma = static_cast<const sim::SoC &>(Soc).dma();
  const uint32_t *Base = Input ? Dma.inputRegion() : Dma.outputRegion();
  return reinterpret_cast<uint64_t>(Base + OffsetWords);
}

/// Range-checks a staging access of \p Words words at \p OffsetWords
/// against one region before any word moves. A violation latches a
/// protocol error on the engine, so the executors' status checks stop the
/// run, and the caller skips the copy.
static bool regionAccessFits(sim::DmaEngine &Dma, bool Input,
                             const char *Call, int64_t OffsetWords,
                             int64_t Words) {
  int64_t RegionWords = static_cast<int64_t>(
      Input ? Dma.inputRegionWords() : Dma.outputRegionWords());
  if (OffsetWords >= 0 && Words <= RegionWords - OffsetWords)
    return true;
  Dma.signalError(std::string("dma: ") + Call + " of " +
                  std::to_string(Words) + " word(s) at offset " +
                  std::to_string(OffsetWords) + " exceeds the " +
                  (Input ? "input" : "output") + " staging region (" +
                  std::to_string(RegionWords) + " words)");
  return false;
}

/// Drops size-1 dimensions from a descriptor: the rank-specialization the
/// paper applies to "known rank sizes" (Sec. IV-B). A [1, iC, 1, 1] conv
/// window collapses to a rank-1 sweep, saving per-row recursion overhead.
static MemRefDesc collapseUnitDims(const MemRefDesc &Desc) {
  MemRefDesc Collapsed;
  Collapsed.Buffer = Desc.Buffer;
  Collapsed.Offset = Desc.Offset;
  for (unsigned I = 0; I < Desc.rank(); ++I) {
    if (Desc.Sizes[I] == 1)
      continue;
    Collapsed.Sizes.push_back(Desc.Sizes[I]);
    Collapsed.Strides.push_back(Desc.Strides[I]);
  }
  return Collapsed;
}

/// Rows shorter than this gain nothing from memcpy (call setup dominates);
/// the generic path handles them — this is why fHW==1 convolution layers
/// cannot leverage the specialization (paper Sec. IV-D).
static constexpr int64_t MinProfitableRowElements = 2;

static bool rowsAreProfitable(const MemRefDesc &Desc) {
  return Desc.innermostContiguous() &&
         (Desc.rank() == 0 ||
          Desc.Sizes.back() >= MinProfitableRowElements);
}

/// Row-major contiguous strides over \p Sizes: the layout of the DMA
/// staging regions. Written into \p Strides (MaxCopyRank capacity).
static void contiguousStrides(const std::vector<int64_t> &Sizes,
                              int64_t *Strides) {
  unsigned Rank = Sizes.size();
  assert(Rank <= detail::MaxCopyRank && "region copy rank beyond cap");
  int64_t Running = 1;
  for (unsigned I = Rank; I > 0; --I) {
    Strides[I - 1] = Running;
    Running *= Sizes[I - 1];
  }
}

int64_t DmaRuntime::copyToDmaRegion(const MemRefDesc &Source,
                                    int64_t OffsetWords) {
  // Diagnosable in every build type (was a Release-stripped assert that
  // left an out-of-bounds write behind).
  if (!Soc.dma().isInitialized()) {
    Soc.dma().signalError("dma: copy_to_dma_region before dma_init");
    return OffsetWords;
  }
  int64_t Words = Source.numElements();
  if (!regionAccessFits(Soc.dma(), /*Input=*/true, "copy_to_dma_region",
                        OffsetWords, Words))
    return OffsetWords;
  MemRefDesc Collapsed = collapseUnitDims(Source);
  int64_t RegionStrides[detail::MaxCopyRank];
  contiguousStrides(Collapsed.Sizes, RegionStrides);

  StridedCopyRequest Req;
  Req.Rank = Collapsed.rank();
  Req.Sizes = Collapsed.Sizes.data();
  Req.Src = {Collapsed.Buffer->Data.data() + Collapsed.Offset,
             Collapsed.addressOf(Collapsed.Offset),
             Collapsed.Strides.data()};
  Req.Dst = {Soc.dma().inputRegion() + OffsetWords,
             regionAddress(/*Input=*/true, OffsetWords), RegionStrides};
  Req.RowMemcpy = SpecializeCopies && rowsAreProfitable(Collapsed);
  stridedCopy(Soc.perf(), Req);
  return OffsetWords + Words;
}

int64_t DmaRuntime::copyLiteralToDmaRegion(int32_t Literal,
                                           int64_t OffsetWords) {
  if (!Soc.dma().isInitialized()) {
    Soc.dma().signalError("dma: copy_literal_to_dma_region before dma_init");
    return OffsetWords;
  }
  if (!regionAccessFits(Soc.dma(), /*Input=*/true,
                        "copy_literal_to_dma_region", OffsetWords, 1))
    return OffsetWords;
  Soc.dma().inputRegion()[OffsetWords] = static_cast<uint32_t>(Literal);
  Soc.perf().onScalarStore(regionAddress(/*Input=*/true, OffsetWords), 4);
  Soc.perf().onArith(1);
  return OffsetWords + 1;
}

sim::AccelStatus DmaRuntime::dmaStartSend(int64_t LengthWords,
                                          int64_t OffsetWords) {
  return Soc.dma().startSend(static_cast<size_t>(LengthWords),
                             static_cast<size_t>(OffsetWords));
}

sim::AccelStatus DmaRuntime::dmaWaitSendCompletion() {
  return Soc.dma().waitSendCompletion();
}

sim::AccelStatus DmaRuntime::dmaStartRecv(int64_t LengthWords,
                                          int64_t OffsetWords) {
  return Soc.dma().startRecv(static_cast<size_t>(LengthWords),
                             static_cast<size_t>(OffsetWords));
}

sim::AccelStatus DmaRuntime::dmaWaitRecvCompletion() {
  return Soc.dma().waitRecvCompletion();
}

void DmaRuntime::copyFromDmaRegion(const MemRefDesc &OriginalDest,
                                   int64_t OffsetWords, bool Accumulate) {
  if (!Soc.dma().isInitialized()) {
    Soc.dma().signalError("dma: copy_from_dma_region before dma_init");
    return;
  }
  if (!regionAccessFits(Soc.dma(), /*Input=*/false, "copy_from_dma_region",
                        OffsetWords, OriginalDest.numElements()))
    return;
  MemRefDesc Dest = collapseUnitDims(OriginalDest);
  int64_t RegionStrides[detail::MaxCopyRank];
  contiguousStrides(Dest.Sizes, RegionStrides);

  StridedCopyRequest Req;
  Req.Rank = Dest.rank();
  Req.Sizes = Dest.Sizes.data();
  Req.Src = {Soc.dma().outputRegion() + OffsetWords,
             regionAddress(/*Input=*/false, OffsetWords), RegionStrides};
  Req.Dst = {Dest.Buffer->Data.data() + Dest.Offset,
             Dest.addressOf(Dest.Offset), Dest.Strides.data()};
  Req.Mode = !Accumulate ? CopyMode::Overwrite
             : Dest.kind() == sim::ElemKind::F32 ? CopyMode::AccumulateF32
                                                 : CopyMode::AccumulateI32;
  Req.RowMemcpy = SpecializeCopies && rowsAreProfitable(Dest);
  stridedCopy(Soc.perf(), Req);
}
