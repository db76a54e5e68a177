//===- DmaRuntime.cpp - DMA runtime library implementation ----------------===//
//
// Part of the AXI4MLIR reproduction. MIT licensed.
//
//===----------------------------------------------------------------------===//

#include "runtime/DmaRuntime.h"

#include "runtime/StridedCopy.h"

#include <string>

using namespace axi4mlir;
using namespace axi4mlir::runtime;

void DmaRuntime::dmaInit(const accel::DmaInitConfig &Config) {
  Soc.dma().init(Config);
}

uint64_t DmaRuntime::regionAddress(bool Input, int64_t OffsetWords) const {
  const sim::DmaEngine &Dma = static_cast<const sim::SoC &>(Soc).dma();
  size_t Offset = static_cast<size_t>(OffsetWords);
  return Input ? Dma.inputAddress(Offset) : Dma.outputAddress(Offset);
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

namespace {

/// A view with its size-1 dimensions dropped: the rank specialization the
/// paper applies to "known rank sizes" (Sec. IV-B). A [1, iC, 1, 1] conv
/// window collapses to a rank-1 sweep, saving per-row recursion overhead.
/// Fixed-size, so a staging copy allocates nothing; Rank counts every
/// non-unit dimension, and only the first MaxCopyRank are kept.
struct CollapsedView {
  unsigned Rank = 0;
  int64_t Sizes[detail::MaxCopyRank] = {};
  int64_t Strides[detail::MaxCopyRank] = {};

  explicit CollapsedView(const MemRefDesc &Desc) {
    for (unsigned I = 0; I < Desc.rank(); ++I) {
      if (Desc.Sizes[I] == 1)
        continue;
      if (Rank < detail::MaxCopyRank) {
        Sizes[Rank] = Desc.Sizes[I];
        Strides[Rank] = Desc.Strides[I];
      }
      ++Rank;
    }
  }

  /// Rows shorter than MinProfitableRowElements gain nothing from memcpy
  /// (call setup dominates); the generic path handles them — this is why
  /// fHW==1 convolution layers cannot leverage the specialization (paper
  /// Sec. IV-D).
  static constexpr int64_t MinProfitableRowElements = 2;

  bool rowsAreProfitable() const {
    return Rank == 0 || (Strides[Rank - 1] == 1 &&
                         Sizes[Rank - 1] >= MinProfitableRowElements);
  }
};

} // namespace

bool DmaRuntime::stage(bool Input, const char *Call, const MemRefDesc &View,
                       int64_t OffsetWords, bool Accumulate) {
  sim::DmaEngine &Dma = Soc.dma();
  // Diagnosable in every build type (was a Release-stripped assert that
  // left an out-of-bounds write behind).
  if (!Dma.isInitialized()) {
    Dma.signalError(std::string("dma: ") + Call + " before dma_init");
    return false;
  }
  int64_t Words = View.numElements();
  if (!regionAccessFits(Dma, Input, Call, OffsetWords, Words))
    return false;
  CollapsedView Collapsed(View);
  if (Collapsed.Rank > detail::MaxCopyRank) {
    Dma.signalError(
        copyRankError(std::string("dma: ") + Call, Collapsed.Rank));
    return false;
  }
  // The staging regions are row-major contiguous over the collapsed shape.
  int64_t RegionStrides[detail::MaxCopyRank];
  int64_t Running = 1;
  for (unsigned I = Collapsed.Rank; I > 0; --I) {
    RegionStrides[I - 1] = Running;
    Running *= Collapsed.Sizes[I - 1];
  }

  CopySpan Memory = {View.Buffer->Data.data() + View.Offset,
                     View.addressOf(View.Offset), Collapsed.Strides};
  size_t Offset = static_cast<size_t>(OffsetWords);
  size_t Count = static_cast<size_t>(Words);
  CopySpan Region = {Input ? Dma.inputWords(Offset, Count)
                           : Dma.outputWords(Offset, Count),
                     regionAddress(Input, OffsetWords), RegionStrides};
  StridedCopyRequest Req;
  Req.Rank = Collapsed.Rank;
  Req.Sizes = Collapsed.Sizes;
  Req.Src = Input ? Memory : Region;
  Req.Dst = Input ? Region : Memory;
  Req.Mode = !Accumulate ? CopyMode::Overwrite
             : View.kind() == sim::ElemKind::F32 ? CopyMode::AccumulateF32
                                                 : CopyMode::AccumulateI32;
  Req.RowMemcpy = SpecializeCopies && Collapsed.rowsAreProfitable();
  stridedCopy(Soc.perf(), Req);
  return true;
}

int64_t DmaRuntime::copyToDmaRegion(const MemRefDesc &Source,
                                    int64_t OffsetWords) {
  if (!stage(/*Input=*/true, "copy_to_dma_region", Source, OffsetWords,
             /*Accumulate=*/false))
    return OffsetWords;
  return OffsetWords + Source.numElements();
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
  *Soc.dma().inputWords(static_cast<size_t>(OffsetWords), 1) =
      static_cast<uint32_t>(Literal);
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

void DmaRuntime::copyFromDmaRegion(const MemRefDesc &Dest,
                                   int64_t OffsetWords, bool Accumulate) {
  stage(/*Input=*/false, "copy_from_dma_region", Dest, OffsetWords,
        Accumulate);
}
