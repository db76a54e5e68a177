//===- RuntimeTest.cpp - DMA runtime library unit tests -------------------===//
//
// Part of the AXI4MLIR reproduction. MIT licensed.
//
//===----------------------------------------------------------------------===//

#include "exec/Reference.h"
#include "runtime/DmaRuntime.h"
#include "runtime/StridedCopy.h"

#include <algorithm>
#include <string>
#include <vector>

#include <gtest/gtest.h>

using namespace axi4mlir;
using namespace axi4mlir::runtime;
using namespace axi4mlir::sim;

namespace {

std::unique_ptr<SoC> makeBoard() {
  auto Soc = makeMatMulSoC(MatMulAccelerator::Version::V3, 8);
  return Soc;
}

accel::DmaInitConfig bigRegions() {
  accel::DmaInitConfig Config;
  Config.InputBufferSize = 1 << 16;
  Config.OutputBufferSize = 1 << 16;
  return Config;
}

TEST(StridedCopy, ZeroSizedOuterDimIsANoOp) {
  SoCParams Params;
  HostPerfModel Perf(Params);
  // Scalar mode with a zero leading dimension: nothing to copy, nothing
  // charged (the buffers are empty — any element access would be OOB).
  MemRefDesc Src2 = MemRefDesc::alloc({0, 4});
  MemRefDesc Dst2 = MemRefDesc::alloc({0, 4});
  stridedCopy(Perf, makeCopyRequest(Src2, Dst2, /*RowMemcpy=*/false));
  // Row mode, rank 3, zero outermost dimension: no row block may run.
  MemRefDesc Src3 = MemRefDesc::alloc({0, 2, 4});
  MemRefDesc Dst3 = MemRefDesc::alloc({0, 2, 4});
  stridedCopy(Perf, makeCopyRequest(Src3, Dst3, /*RowMemcpy=*/true));
  PerfReport R = Perf.report();
  EXPECT_EQ(R.Instructions, 0u);
  EXPECT_EQ(R.Loads, 0u);
  EXPECT_EQ(R.Stores, 0u);
  EXPECT_EQ(R.L1DAccesses, 0u);
}

/// Every PerfReport field, compared exactly.
void expectSameReport(const PerfReport &A, const PerfReport &B,
                      const std::string &What) {
  SCOPED_TRACE(What);
  EXPECT_EQ(A.Instructions, B.Instructions);
  EXPECT_EQ(A.BranchInstructions, B.BranchInstructions);
  EXPECT_EQ(A.Loads, B.Loads);
  EXPECT_EQ(A.Stores, B.Stores);
  EXPECT_EQ(A.L1DAccesses, B.L1DAccesses);
  EXPECT_EQ(A.CacheReferences, B.CacheReferences);
  EXPECT_EQ(A.CacheMisses, B.CacheMisses);
  EXPECT_EQ(A.HostCycles, B.HostCycles);
  EXPECT_EQ(A.FabricCycles, B.FabricCycles);
  EXPECT_EQ(A.DmaTransfers, B.DmaTransfers);
  EXPECT_EQ(A.DmaBytesMoved, B.DmaBytesMoved);
  EXPECT_EQ(A.TaskClockMs, B.TaskClockMs);
  EXPECT_EQ(A.FaultsInjected, B.FaultsInjected);
  EXPECT_EQ(A.RecoveryRetries, B.RecoveryRetries);
  EXPECT_EQ(A.RecoveryBackoffCycles, B.RecoveryBackoffCycles);
  EXPECT_EQ(A.WatchdogPollCycles, B.WatchdogPollCycles);
  EXPECT_EQ(A.RecoveryReplayCycles, B.RecoveryReplayCycles);
  EXPECT_EQ(A.FailoverEvents, B.FailoverEvents);
  EXPECT_EQ(A.CpuFallbackEvents, B.CpuFallbackEvents);
  EXPECT_EQ(A.CpuFallbackCycles, B.CpuFallbackCycles);
  EXPECT_EQ(A.PlanCacheHits, B.PlanCacheHits);
  EXPECT_EQ(A.PlanCacheMisses, B.PlanCacheMisses);
}

/// Charges \p Shadow with the sequence StridedCopy.h documents for
/// \p Req, one hook call per event: a loop iteration per index step, per
/// element a source load, [a destination load and one ALU op when
/// accumulating,] a destination store, two ALU ops and a branch, or per
/// row one memcpy [and RowBytes / 8 ALU ops when accumulating]. Dims
/// counts the dimensions walked by index (all of them in scalar mode, all
/// but the row in row mode); \p Dim, \p Src and \p Dst are the walk's
/// position.
void chargeDocumentedCopy(HostPerfModel &Shadow, const StridedCopyRequest &Req,
                          unsigned Dims, unsigned Dim = 0, int64_t Src = 0,
                          int64_t Dst = 0) {
  if (Dim < Dims) {
    for (int64_t I = 0; I < Req.Sizes[Dim]; ++I) {
      Shadow.onLoopIteration();
      chargeDocumentedCopy(Shadow, Req, Dims, Dim + 1,
                           Src + I * Req.Src.Strides[Dim],
                           Dst + I * Req.Dst.Strides[Dim]);
    }
    return;
  }
  bool Accumulate = Req.Mode != CopyMode::Overwrite;
  if (Req.RowMemcpy) {
    uint64_t RowBytes = 4 * static_cast<uint64_t>(
                                Req.Rank == 0 ? 1 : Req.Sizes[Req.Rank - 1]);
    Shadow.onMemcpy(Req.Dst.Address + 4 * Dst, Req.Src.Address + 4 * Src,
                    RowBytes);
    if (Accumulate)
      Shadow.onArith(RowBytes / 8);
    return;
  }
  Shadow.onScalarLoad(Req.Src.Address + 4 * Src, 4);
  if (Accumulate) {
    Shadow.onScalarLoad(Req.Dst.Address + 4 * Dst, 4);
    Shadow.onArith(1);
  }
  Shadow.onScalarStore(Req.Dst.Address + 4 * Dst, 4);
  Shadow.onArith(2);
  Shadow.onBranch();
}

/// stridedCopy is shared by all three executors, so the walker-vs-plan
/// tests cannot see a change to how it charges. Pin its charges against
/// the documented per-element and per-row sequence instead, on the same
/// model twice over so the second pass starts from a warm cache.
TEST(StridedCopy, ChargesMatchTheDocumentedSequence) {
  SoCParams Params;
  HostPerfModel Perf(Params), Shadow(Params);
  std::vector<uint32_t> SrcWords(4096), DstWords(4096);
  for (size_t I = 0; I < SrcWords.size(); ++I)
    SrcWords[I] = static_cast<uint32_t>(I * 7 + 1);
  struct Case {
    const char *Name;
    std::vector<int64_t> Sizes, SrcStrides, DstStrides;
    CopyMode Mode;
    bool RowMemcpy;
    uint64_t SrcAddress, DstAddress;
  };
  const Case Cases[] = {
      // Scalar mode: a transposing 3-D walk (unit stride on neither side
      // innermost) in every mode, and a rank-0 copy.
      {"scalar overwrite", {3, 4, 5}, {1, 15, 3}, {40, 8, 1},
       CopyMode::Overwrite, false, 0x40000, 0x80010},
      {"scalar accumulate i32", {3, 4, 5}, {1, 15, 3}, {40, 8, 1},
       CopyMode::AccumulateI32, false, 0x40000, 0x80010},
      {"scalar accumulate f32", {3, 4, 5}, {1, 15, 3}, {40, 8, 1},
       CopyMode::AccumulateF32, false, 0x40000, 0x80010},
      {"scalar rank 0", {}, {}, {}, CopyMode::Overwrite, false, 0x40004,
       0x80008},
      // Row mode: rows that abut on both sides (one collapsed memcpy per
      // row block), then strided rows whose 40 bytes start mid-line, so
      // most of them straddle two lines, overwritten and accumulated.
      {"rows collapsible", {2, 6, 16}, {96, 16, 1}, {96, 16, 1},
       CopyMode::Overwrite, true, 0x50000, 0x90000},
      {"rows straddling", {2, 5, 10}, {120, 24, 1}, {70, 14, 1},
       CopyMode::Overwrite, true, 0x50024, 0x90038},
      {"rows straddling accumulate", {2, 5, 10}, {120, 24, 1}, {70, 14, 1},
       CopyMode::AccumulateI32, true, 0x50024, 0x90038},
      {"rows rank 1", {9}, {1}, {1}, CopyMode::Overwrite, true, 0x5003c,
       0x9003c},
  };
  for (int Pass = 0; Pass < 2; ++Pass) {
    for (const Case &C : Cases) {
      StridedCopyRequest Req;
      Req.Rank = static_cast<unsigned>(C.Sizes.size());
      Req.Sizes = C.Sizes.data();
      Req.Src = {SrcWords.data(), C.SrcAddress, C.SrcStrides.data()};
      Req.Dst = {DstWords.data(), C.DstAddress, C.DstStrides.data()};
      Req.Mode = C.Mode;
      Req.RowMemcpy = C.RowMemcpy;
      stridedCopy(Perf, Req);
      chargeDocumentedCopy(Shadow, Req,
                           C.RowMemcpy && Req.Rank > 0 ? Req.Rank - 1
                                                       : Req.Rank);
      expectSameReport(Perf.report(), Shadow.report(),
                       std::string(C.Name) + " pass " +
                           std::to_string(Pass));
    }
  }
  EXPECT_GT(Perf.report().CacheReferences, 0u);
}

TEST(MemRefDesc, AllocSubviewIndexing) {
  MemRefDesc Full = MemRefDesc::alloc({6, 8});
  EXPECT_EQ(Full.rank(), 2u);
  EXPECT_EQ(Full.numElements(), 48);
  EXPECT_EQ(Full.Strides, (std::vector<int64_t>{8, 1}));
  Full.write({2, 3}, 42);
  EXPECT_EQ(Full.read({2, 3}), 42);

  MemRefDesc Tile = Full.subview({2, 3}, {2, 2});
  EXPECT_EQ(Tile.Offset, 2 * 8 + 3);
  EXPECT_EQ(Tile.read({0, 0}), 42); // aliases the source buffer
  Tile.write({1, 1}, 7);
  EXPECT_EQ(Full.read({3, 4}), 7);
  EXPECT_TRUE(Tile.innermostContiguous());
}

TEST(MemRefDesc, FloatKind) {
  MemRefDesc F = MemRefDesc::alloc({4}, ElemKind::F32);
  F.write({2}, 1.5);
  EXPECT_DOUBLE_EQ(F.read({2}), 1.5);
}

TEST(DmaRuntime, LiteralAndOffsetChaining) {
  auto Soc = makeBoard();
  DmaRuntime Runtime(*Soc);
  Runtime.dmaInit(bigRegions());
  int64_t Off = Runtime.copyLiteralToDmaRegion(0x22, 0);
  EXPECT_EQ(Off, 1);
  MemRefDesc Tile = MemRefDesc::alloc({2, 3});
  for (int64_t I = 0; I < 2; ++I)
    for (int64_t J = 0; J < 3; ++J)
      Tile.write({I, J}, I * 3 + J);
  Off = Runtime.copyToDmaRegion(Tile, Off);
  EXPECT_EQ(Off, 7); // 1 literal + 6 elements
  uint32_t *Region = Soc->dma().inputWords(0, 7);
  EXPECT_EQ(Region[0], 0x22u);
  for (int I = 0; I < 6; ++I)
    EXPECT_EQ(static_cast<int32_t>(Region[1 + I]), I);
}

TEST(DmaRuntime, StridedCopyLinearizesRowMajor) {
  auto Soc = makeBoard();
  DmaRuntime Runtime(*Soc);
  Runtime.dmaInit(bigRegions());
  MemRefDesc Full = MemRefDesc::alloc({8, 8});
  for (int64_t I = 0; I < 8; ++I)
    for (int64_t J = 0; J < 8; ++J)
      Full.write({I, J}, I * 10 + J);
  MemRefDesc Tile = Full.subview({2, 4}, {3, 2});
  Runtime.copyToDmaRegion(Tile, 0);
  uint32_t *Region = Soc->dma().inputWords(0, 6);
  int32_t Expected[] = {24, 25, 34, 35, 44, 45};
  for (int I = 0; I < 6; ++I)
    EXPECT_EQ(static_cast<int32_t>(Region[I]), Expected[I]);
}

TEST(DmaRuntime, SpecializationIsBitExact) {
  for (bool Specialize : {false, true}) {
    auto Soc = makeBoard();
    DmaRuntime Runtime(*Soc, Specialize);
    Runtime.dmaInit(bigRegions());
    MemRefDesc Full = MemRefDesc::alloc({16, 16});
    exec::fillRandom(Full, 3);
    MemRefDesc Tile = Full.subview({4, 8}, {8, 8});
    Runtime.copyToDmaRegion(Tile, 0);
    if (Specialize) {
      // Compare against the unspecialized sibling run.
      auto SocRef = makeBoard();
      DmaRuntime RuntimeRef(*SocRef, false);
      RuntimeRef.dmaInit(bigRegions());
      RuntimeRef.copyToDmaRegion(Tile, 0);
      for (int I = 0; I < 64; ++I)
        EXPECT_EQ(Soc->dma().inputWords(0, 64)[I],
                  SocRef->dma().inputWords(0, 64)[I]);
    }
  }
}

TEST(DmaRuntime, SpecializationCutsInstructions) {
  MemRefDesc Full = MemRefDesc::alloc({64, 64});
  MemRefDesc Tile = Full.subview({0, 0}, {16, 16});

  auto SlowSoc = makeBoard();
  DmaRuntime Slow(*SlowSoc, /*SpecializeCopies=*/false);
  Slow.dmaInit(bigRegions());
  Slow.copyToDmaRegion(Tile, 0);

  auto FastSoc = makeBoard();
  DmaRuntime Fast(*FastSoc, /*SpecializeCopies=*/true);
  Fast.dmaInit(bigRegions());
  Fast.copyToDmaRegion(Tile, 0);

  EXPECT_LT(FastSoc->report().Instructions,
            SlowSoc->report().Instructions);
  EXPECT_LT(FastSoc->report().BranchInstructions,
            SlowSoc->report().BranchInstructions);
}

TEST(DmaRuntime, NonContiguousFallsBackToElementwise) {
  // Column-slice tile: innermost stride != 1 -> generic path regardless of
  // the specialization flag; contents must still be correct.
  auto Soc = makeBoard();
  DmaRuntime Runtime(*Soc, /*SpecializeCopies=*/true);
  Runtime.dmaInit(bigRegions());
  MemRefDesc Full = MemRefDesc::alloc({4, 4});
  for (int64_t I = 0; I < 4; ++I)
    for (int64_t J = 0; J < 4; ++J)
      Full.write({I, J}, I * 4 + J);
  MemRefDesc Column;
  Column.Buffer = Full.Buffer;
  Column.Offset = 1;
  Column.Sizes = {4};
  Column.Strides = {4}; // column 1
  Runtime.copyToDmaRegion(Column, 0);
  uint32_t *Region = Soc->dma().inputWords(0, 4);
  int32_t Expected[] = {1, 5, 9, 13};
  for (int I = 0; I < 4; ++I)
    EXPECT_EQ(static_cast<int32_t>(Region[I]), Expected[I]);
}

TEST(DmaRuntime, CopyFromDmaOverwriteAndAccumulate) {
  auto Soc = makeBoard();
  DmaRuntime Runtime(*Soc);
  Runtime.dmaInit(bigRegions());
  uint32_t *Out = Soc->dma().outputWords(0, 4);
  for (int I = 0; I < 4; ++I)
    Out[I] = static_cast<uint32_t>(10 + I);

  MemRefDesc Dest = MemRefDesc::alloc({2, 2});
  Dest.write({0, 0}, 100);
  Runtime.copyFromDmaRegion(Dest, 0, /*Accumulate=*/false);
  EXPECT_EQ(Dest.read({0, 0}), 10);
  EXPECT_EQ(Dest.read({1, 1}), 13);
  Runtime.copyFromDmaRegion(Dest, 0, /*Accumulate=*/true);
  EXPECT_EQ(Dest.read({0, 0}), 20);
  EXPECT_EQ(Dest.read({1, 1}), 26);
}

TEST(DmaRuntime, AccumulateFloat) {
  auto Soc = makeMatMulSoC(MatMulAccelerator::Version::V3, 8,
                           ElemKind::F32);
  DmaRuntime Runtime(*Soc);
  Runtime.dmaInit(bigRegions());
  *Soc->dma().outputWords(0, 1) = floatToWord(1.25f);
  MemRefDesc Dest = MemRefDesc::alloc({1}, ElemKind::F32);
  Dest.write({0}, 0.25);
  Runtime.copyFromDmaRegion(Dest, 0, /*Accumulate=*/true);
  EXPECT_DOUBLE_EQ(Dest.read({0}), 1.5);
}

TEST(DmaRuntime, UnitDimCollapseKeepsSemantics) {
  // A [1, C, 1, 1] conv-window-style view (the fHW==1 case of Sec. IV-D).
  auto Soc = makeBoard();
  DmaRuntime Runtime(*Soc, /*SpecializeCopies=*/true);
  Runtime.dmaInit(bigRegions());
  MemRefDesc Input = MemRefDesc::alloc({1, 4, 3, 3});
  for (int64_t C = 0; C < 4; ++C)
    Input.write({0, C, 1, 2}, 50 + C);
  MemRefDesc Window = Input.subview({0, 0, 1, 2}, {1, 4, 1, 1});
  Runtime.copyToDmaRegion(Window, 0);
  for (int I = 0; I < 4; ++I)
    EXPECT_EQ(static_cast<int32_t>(Soc->dma().inputWords(0, 4)[I]), 50 + I);
}

/// Staging copies are range-checked before they touch a region: an access
/// past either end latches a diagnostic naming the region and both sizes,
/// and leaves the region and the destination as they were (it used to
/// write past the input region's heap block).
TEST(DmaRuntime, StagingCopiesPastTheRegionAreRefused) {
  auto Soc = makeBoard();
  DmaRuntime Runtime(*Soc);
  accel::DmaInitConfig Tiny;
  Tiny.InputBufferSize = 16 * 4;
  Tiny.OutputBufferSize = 8 * 4;
  Runtime.dmaInit(Tiny);
  MemRefDesc Tile = MemRefDesc::alloc({4, 4});
  exec::fillRandom(Tile, 3);

  // A whole 16-word tile fits at offset 0 but not one word further.
  EXPECT_EQ(Runtime.copyToDmaRegion(Tile, 0), 16);
  EXPECT_EQ(Runtime.status(), AccelStatus::Ok);
  *Soc->dma().inputWords(15, 1) = 0xABCD;
  EXPECT_EQ(Runtime.copyToDmaRegion(Tile, 1), 1);
  EXPECT_EQ(Runtime.status(), AccelStatus::Fatal);
  EXPECT_EQ(Runtime.errorMessage(),
            "dma: copy_to_dma_region of 16 word(s) at offset 1 exceeds the "
            "input staging region (16 words)");
  EXPECT_EQ(*Soc->dma().inputWords(15, 1), 0xABCDu);

  for (int64_t Offset : {int64_t(16), int64_t(-1)}) {
    auto Fresh = makeBoard();
    DmaRuntime Rt(*Fresh);
    Rt.dmaInit(Tiny);
    EXPECT_EQ(Rt.copyLiteralToDmaRegion(7, Offset), Offset);
    EXPECT_NE(Rt.errorMessage().find(
                  "copy_literal_to_dma_region of 1 word(s) at offset " +
                  std::to_string(Offset) +
                  " exceeds the input staging region (16 words)"),
              std::string::npos)
        << Rt.errorMessage();
  }

  auto Fresh = makeBoard();
  DmaRuntime Rt(*Fresh);
  Rt.dmaInit(Tiny);
  MemRefDesc Dest = exec::cloneMemRef(Tile);
  Rt.copyFromDmaRegion(Dest, 0, /*Accumulate=*/false);
  EXPECT_EQ(Rt.errorMessage(),
            "dma: copy_from_dma_region of 16 word(s) at offset 0 exceeds the "
            "output staging region (8 words)");
  EXPECT_TRUE(exec::memrefEquals(Tile, Dest));
}

/// Staging copies collapse unit dimensions into a fixed-size view of at
/// most detail::MaxCopyRank dimensions. A view with more non-unit
/// dimensions is refused with the shared copy-rank diagnostic and moves
/// nothing (its region strides used to be written past a stack array);
/// one with exactly that many still copies.
TEST(DmaRuntime, StagingCopiesBeyondTheRankCapAreRefused) {
  // 20 dimensions of which 3 are unit: 17 remain after the collapse.
  std::vector<int64_t> Shape;
  for (unsigned D = 0; D < 20; ++D)
    Shape.push_back(D % 7 == 1 ? 1 : 2);
  MemRefDesc Deep = MemRefDesc::alloc(Shape);
  exec::fillRandom(Deep, 5);
  accel::DmaInitConfig Big;
  Big.InputBufferSize = Big.OutputBufferSize = Deep.numElements() * 4;
  auto regionIsZero = [](const uint32_t *Region, int64_t Words) {
    return std::all_of(Region, Region + Words,
                       [](uint32_t Word) { return Word == 0; });
  };

  auto Soc = makeBoard();
  DmaRuntime Rt(*Soc);
  Rt.dmaInit(Big);
  EXPECT_EQ(Rt.copyToDmaRegion(Deep, 0), 0);
  EXPECT_EQ(Rt.status(), AccelStatus::Fatal);
  EXPECT_EQ(Rt.errorMessage(), "dma: copy_to_dma_region of rank 17 exceeds "
                               "the supported copy rank (16)");
  EXPECT_TRUE(regionIsZero(Soc->dma().inputWords(0, Deep.numElements()),
                           Deep.numElements()));

  auto Fresh = makeBoard();
  DmaRuntime FreshRt(*Fresh);
  FreshRt.dmaInit(Big);
  MemRefDesc Dest = exec::cloneMemRef(Deep);
  FreshRt.copyFromDmaRegion(Dest, 0, /*Accumulate=*/true);
  EXPECT_EQ(FreshRt.errorMessage(), "dma: copy_from_dma_region of rank 17 "
                                    "exceeds the supported copy rank (16)");
  EXPECT_TRUE(exec::memrefEquals(Deep, Dest));

  // One more unit dimension leaves 16: the copy runs, row-major.
  Shape[0] = 1;
  MemRefDesc AtCap = MemRefDesc::alloc(Shape);
  exec::fillRandom(AtCap, 6);
  auto Board = makeBoard();
  DmaRuntime AtCapRt(*Board);
  AtCapRt.dmaInit(Big);
  EXPECT_EQ(AtCapRt.copyToDmaRegion(AtCap, 0), AtCap.numElements());
  EXPECT_EQ(AtCapRt.status(), AccelStatus::Ok);
  EXPECT_TRUE(std::equal(AtCap.Buffer->Data.begin(),
                         AtCap.Buffer->Data.end(),
                         Board->dma().inputWords(0, AtCap.numElements())));
}

TEST(DmaRuntime, EndToEndSendComputeRecv) {
  // Drive one 8x8x8 tile through the real accelerator via the runtime.
  auto Soc = makeBoard();
  DmaRuntime Runtime(*Soc);
  Runtime.dmaInit(bigRegions());

  MemRefDesc A = MemRefDesc::alloc({8, 8});
  MemRefDesc B = MemRefDesc::alloc({8, 8});
  MemRefDesc C = MemRefDesc::alloc({8, 8});
  exec::fillRandom(A, 5);
  exec::fillRandom(B, 6);
  MemRefDesc Expected = exec::cloneMemRef(C);
  exec::referenceMatMul(A, B, Expected);

  int64_t Off = Runtime.copyLiteralToDmaRegion(0x22, 0);
  Off = Runtime.copyToDmaRegion(A, Off);
  Off = Runtime.copyLiteralToDmaRegion(0x23, Off);
  Off = Runtime.copyToDmaRegion(B, Off);
  Off = Runtime.copyLiteralToDmaRegion(0xF0, Off);
  Off = Runtime.copyLiteralToDmaRegion(0x24, Off);
  Runtime.dmaStartSend(Off, 0);
  Runtime.dmaWaitSendCompletion();
  Runtime.dmaStartRecv(64, 0);
  Runtime.dmaWaitRecvCompletion();
  Runtime.copyFromDmaRegion(C, 0, /*Accumulate=*/true);

  ASSERT_FALSE(Runtime.hadError()) << Runtime.errorMessage();
  EXPECT_TRUE(exec::memrefEquals(Expected, C));
}

//===----------------------------------------------------------------------===//
// First-touch staging regions
//===----------------------------------------------------------------------===//
//
// dma_init sizes the staging regions without zero-filling them; a word
// reads as zero until the session writes it (docs/ARCHITECTURE.md, "The
// first-touch rule"). Each case first leaves every word of an earlier
// session non-zero, so a region that leaked stale memory would show it.

accel::DmaInitConfig regionsOfWords(int64_t Words) {
  accel::DmaInitConfig Config;
  Config.InputBufferSize = Config.OutputBufferSize = Words * 4;
  return Config;
}

/// Writes \p Word into every word of both regions.
void scribble(DmaEngine &Dma, uint32_t Word) {
  std::fill_n(Dma.inputWords(0, Dma.inputRegionWords()),
              Dma.inputRegionWords(), Word);
  std::fill_n(Dma.outputWords(0, Dma.outputRegionWords()),
              Dma.outputRegionWords(), Word);
}

bool allZero(const uint32_t *Words, size_t Count) {
  return std::all_of(Words, Words + Count,
                     [](uint32_t Word) { return Word == 0; });
}

TEST(FirstTouchRegion, NeverStagedWordsSendAsZeros) {
  // v1-4 computes C = A x B on one opcode; B is never staged, so C is 0
  // (stale ones would make every element 4).
  auto Soc = makeMatMulSoC(MatMulAccelerator::Version::V1, 4);
  DmaRuntime Runtime(*Soc);
  Runtime.dmaInit(regionsOfWords(1024));
  scribble(Soc->dma(), 1);
  Runtime.dmaInit(regionsOfWords(1024));
  MemRefDesc A = MemRefDesc::alloc({4, 4});
  for (uint32_t &Word : A.Buffer->Data)
    Word = 1;
  int64_t Off = Runtime.copyLiteralToDmaRegion(opcodes::MM_SASBCCRC, 0);
  Off = Runtime.copyToDmaRegion(A, Off);
  EXPECT_EQ(Runtime.dmaStartSend(Off + 16, 0), AccelStatus::Ok);
  EXPECT_EQ(Runtime.dmaStartRecv(16, 0), AccelStatus::Ok);
  MemRefDesc C = MemRefDesc::alloc({4, 4});
  for (uint32_t &Word : C.Buffer->Data)
    Word = 9;
  Runtime.copyFromDmaRegion(C, 0, /*Accumulate=*/false);
  ASSERT_FALSE(Runtime.hadError()) << Runtime.errorMessage();
  EXPECT_TRUE(allZero(C.Buffer->Data.data(), 16));
}

TEST(FirstTouchRegion, CopyBackFromAnUnwrittenOffsetReadsZeros) {
  auto Soc = makeBoard();
  DmaRuntime Runtime(*Soc);
  Runtime.dmaInit(regionsOfWords(512));
  scribble(Soc->dma(), 0xDEADBEEF);
  Runtime.dmaInit(regionsOfWords(512));
  MemRefDesc Dest = MemRefDesc::alloc({2, 3});
  for (uint32_t &Word : Dest.Buffer->Data)
    Word = 7;
  Runtime.copyFromDmaRegion(Dest, 300, /*Accumulate=*/true);
  for (uint32_t Word : Dest.Buffer->Data)
    EXPECT_EQ(Word, 7u);
  Runtime.copyFromDmaRegion(Dest, 300, /*Accumulate=*/false);
  EXPECT_TRUE(allZero(Dest.Buffer->Data.data(), 6));
  ASSERT_FALSE(Runtime.hadError()) << Runtime.errorMessage();
}

TEST(FirstTouchRegion, SecondInitHidesTheFirstSession) {
  // Grow (new storage), shrink and keep the size (storage reused).
  auto Soc = makeBoard();
  DmaRuntime Runtime(*Soc);
  for (int64_t Words : {64, 4096, 16, 16, 4096}) {
    SCOPED_TRACE(Words);
    Runtime.dmaInit(regionsOfWords(Words));
    DmaEngine &Dma = Soc->dma();
    ASSERT_EQ(Dma.inputRegionWords(), static_cast<size_t>(Words));
    ASSERT_EQ(Dma.outputRegionWords(), static_cast<size_t>(Words));
    EXPECT_TRUE(allZero(Dma.inputWords(0, Words), Words));
    EXPECT_TRUE(allZero(Dma.outputWords(0, Words), Words));
    scribble(Dma, 0xFFFFFFFF);
  }
}

TEST(FirstTouchRegion, HighOffsetStagingLeavesAZeroGap) {
  auto Soc = makeBoard();
  DmaRuntime Runtime(*Soc);
  Runtime.dmaInit(regionsOfWords(512));
  scribble(Soc->dma(), 0xFFFFFFFF);
  Runtime.dmaInit(regionsOfWords(512));
  MemRefDesc Tile = MemRefDesc::alloc({4, 4});
  exec::fillRandom(Tile, 7);
  EXPECT_EQ(Runtime.copyToDmaRegion(Tile, 200), 216);
  DmaEngine &Dma = Soc->dma();
  EXPECT_TRUE(allZero(Dma.inputWords(0, 200), 200));
  EXPECT_TRUE(std::equal(Tile.Buffer->Data.begin(), Tile.Buffer->Data.end(),
                         Dma.inputWords(200, 16)));
  EXPECT_TRUE(allZero(Dma.inputWords(216, 512 - 216), 512 - 216));
}

} // namespace
