//===- SimTest.cpp - Simulator substrate unit tests -----------------------===//
//
// Part of the AXI4MLIR reproduction. MIT licensed.
//
//===----------------------------------------------------------------------===//

#include "sim/SoC.h"

#include <gtest/gtest.h>

using namespace axi4mlir;
using namespace axi4mlir::sim;
using namespace axi4mlir::sim::opcodes;

namespace {

//===----------------------------------------------------------------------===//
// Cache simulator
//===----------------------------------------------------------------------===//

TEST(CacheSim, HitAfterMiss) {
  SoCParams Params;
  CacheSim Cache(Params);
  uint64_t Penalty1 = Cache.access(0x1000, 4);
  EXPECT_GT(Penalty1, 0u); // cold miss
  uint64_t Penalty2 = Cache.access(0x1004, 4);
  EXPECT_EQ(Penalty2, 0u); // same line
  EXPECT_EQ(Cache.getReferences(), 2u);
  EXPECT_EQ(Cache.getL1Misses(), 1u);
  EXPECT_EQ(Cache.getL2Misses(), 1u);
}

TEST(CacheSim, L2CatchesL1Evictions) {
  SoCParams Params;
  CacheSim Cache(Params);
  // Touch more lines than L1 holds but fewer than L2: second pass should
  // hit in L2 only.
  int64_t Lines = Params.L1SizeBytes / Params.CacheLineBytes * 2;
  for (int64_t I = 0; I < Lines; ++I)
    Cache.access(static_cast<uint64_t>(I) * Params.CacheLineBytes, 4);
  uint64_t L2MissesBefore = Cache.getL2Misses();
  for (int64_t I = 0; I < Lines; ++I)
    Cache.access(static_cast<uint64_t>(I) * Params.CacheLineBytes, 4);
  EXPECT_EQ(Cache.getL2Misses(), L2MissesBefore); // all L2 hits
  EXPECT_GT(Cache.getL1Misses(), static_cast<uint64_t>(Lines));
}

TEST(CacheSim, LruKeepsHotLine) {
  SoCParams Params;
  CacheSim Cache(Params);
  uint64_t SetStride =
      static_cast<uint64_t>(Params.L1SizeBytes / Params.L1Associativity);
  // Fill all 4 ways of set 0, re-touching line 0 to keep it MRU.
  Cache.access(0, 4);
  for (int64_t Way = 1; Way < Params.L1Associativity; ++Way) {
    Cache.access(static_cast<uint64_t>(Way) * SetStride, 4);
    Cache.access(0, 4);
  }
  // One more conflicting line evicts the LRU way — not line 0.
  Cache.access(static_cast<uint64_t>(Params.L1Associativity) * SetStride,
               4);
  uint64_t Misses = Cache.getL1Misses();
  Cache.access(0, 4);
  EXPECT_EQ(Cache.getL1Misses(), Misses); // still resident
}

TEST(CacheSim, RangeTouchesEachLineOnce) {
  SoCParams Params;
  CacheSim Cache(Params);
  Cache.accessRange(0, 256); // 4 lines of 64B
  EXPECT_EQ(Cache.getReferences(), 4u);
  Cache.reset();
  EXPECT_EQ(Cache.getReferences(), 0u);
  Cache.access(63, 4); // straddles two lines
  EXPECT_EQ(Cache.getReferences(), 2u);
}

//===----------------------------------------------------------------------===//
// Perf model
//===----------------------------------------------------------------------===//

TEST(PerfModel, CountersAccumulate) {
  SoCParams Params;
  HostPerfModel Perf(Params);
  Perf.onScalarLoad(0x100, 4);
  Perf.onScalarStore(0x200, 4);
  Perf.onBranch();
  Perf.onLoopIteration();
  Perf.onArith(3);
  PerfReport R = Perf.report();
  EXPECT_EQ(R.Loads, 1u);
  EXPECT_EQ(R.Stores, 1u);
  EXPECT_EQ(R.BranchInstructions, 2u); // explicit + loop backedge
  EXPECT_EQ(R.L1DAccesses, 2u);
  EXPECT_GT(R.Instructions, 6u);
  EXPECT_GT(R.TaskClockMs, 0.0);
  Perf.reset();
  EXPECT_EQ(Perf.report().Instructions, 0u);
}

TEST(PerfModel, MemcpyCheaperThanElementwise) {
  SoCParams Params;
  HostPerfModel A(Params), B(Params);
  // 64 elements x 4B.
  for (int I = 0; I < 64; ++I) {
    A.onScalarLoad(0x1000 + I * 4, 4);
    A.onScalarStore(0x8000 + I * 4, 4);
    A.onBranch();
  }
  B.onMemcpy(0x8000, 0x1000, 256);
  EXPECT_LT(B.report().Instructions, A.report().Instructions);
  EXPECT_LT(B.report().BranchInstructions,
            A.report().BranchInstructions);
}

TEST(PerfModel, TaskClockCombinesDomains) {
  SoCParams Params;
  HostPerfModel Perf(Params);
  Perf.onHostCycles(650000); // 1 ms of host work
  Perf.onFabricCycles(200000); // 1 ms of fabric work
  EXPECT_NEAR(Perf.report().TaskClockMs, 2.0, 1e-9);
}

//===----------------------------------------------------------------------===//
// MatMul accelerators
//===----------------------------------------------------------------------===//

/// Streams a full tile through a v1 engine and checks the product.
TEST(MatMulAccel, V1ComputesTile) {
  SoCParams Params;
  MatMulAccelerator Accel(MatMulAccelerator::Version::V1, 4, ElemKind::I32,
                          Params);
  Accel.consumeWord(MM_SASBCCRC);
  // A = all 2s, B = identity.
  for (int I = 0; I < 16; ++I)
    Accel.consumeWord(2);
  for (int R = 0; R < 4; ++R)
    for (int C = 0; C < 4; ++C)
      Accel.consumeWord(R == C ? 1 : 0);
  ASSERT_EQ(Accel.outputAvailable(), 16u);
  for (uint32_t Word : Accel.drainOutput(16))
    EXPECT_EQ(static_cast<int32_t>(Word), 2);
  EXPECT_FALSE(Accel.hadError());
  EXPECT_EQ(Accel.getTilesComputed(), 1u);
  // Table I throughput: 2*4^3/10 = 12.8 cycles.
  EXPECT_NEAR(Accel.takeComputeCycles(), 12.8, 1e-9);
}

TEST(MatMulAccel, V3AccumulatesAcrossCompute) {
  SoCParams Params;
  MatMulAccelerator Accel(MatMulAccelerator::Version::V3, 4, ElemKind::I32,
                          Params);
  auto sendTile = [&](uint32_t Opcode, int32_t Value) {
    Accel.consumeWord(Opcode);
    for (int I = 0; I < 16; ++I)
      Accel.consumeWord(static_cast<uint32_t>(Value));
  };
  sendTile(MM_SA, 1);
  sendTile(MM_SB, 1);
  Accel.consumeWord(MM_CC); // C += 4 per element
  Accel.consumeWord(MM_CC); // C += 4 again (output stationary)
  Accel.consumeWord(MM_RC);
  for (uint32_t Word : Accel.drainOutput(16))
    EXPECT_EQ(static_cast<int32_t>(Word), 8);
  // rC cleared the accumulator.
  Accel.consumeWord(MM_RC);
  for (uint32_t Word : Accel.drainOutput(16))
    EXPECT_EQ(static_cast<int32_t>(Word), 0);
  EXPECT_FALSE(Accel.hadError());
}

TEST(MatMulAccel, V2InputStationary) {
  SoCParams Params;
  MatMulAccelerator Accel(MatMulAccelerator::Version::V2, 4, ElemKind::I32,
                          Params);
  Accel.consumeWord(MM_SA);
  for (int I = 0; I < 16; ++I)
    Accel.consumeWord(3);
  // Two B tiles against the stationary A.
  for (int Round = 0; Round < 2; ++Round) {
    Accel.consumeWord(MM_SB);
    for (int R = 0; R < 4; ++R)
      for (int C = 0; C < 4; ++C)
        Accel.consumeWord(R == C ? 1 : 0);
    Accel.consumeWord(MM_CC_RC);
    for (uint32_t Word : Accel.drainOutput(16))
      EXPECT_EQ(static_cast<int32_t>(Word), 3);
  }
  EXPECT_FALSE(Accel.hadError());
  EXPECT_EQ(Accel.getTilesComputed(), 2u);
}

TEST(MatMulAccel, VersionOpcodeRestrictions) {
  SoCParams Params;
  MatMulAccelerator V1(MatMulAccelerator::Version::V1, 4, ElemKind::I32,
                       Params);
  V1.consumeWord(MM_SA); // v1 does not support split loads
  EXPECT_TRUE(V1.hadError());

  MatMulAccelerator V2(MatMulAccelerator::Version::V2, 4, ElemKind::I32,
                       Params);
  V2.consumeWord(MM_CC); // v2 has no separate compute opcode
  EXPECT_TRUE(V2.hadError());

  MatMulAccelerator V3(MatMulAccelerator::Version::V3, 4, ElemKind::I32,
                       Params);
  V3.consumeWord(MM_CFG); // only v4 is runtime-configurable
  EXPECT_TRUE(V3.hadError());
}

TEST(MatMulAccel, V4Reconfigures) {
  SoCParams Params;
  MatMulAccelerator Accel(MatMulAccelerator::Version::V4, 16,
                          ElemKind::I32, Params);
  Accel.consumeWord(MM_CFG);
  Accel.consumeWord(8);  // tM
  Accel.consumeWord(32); // tK
  Accel.consumeWord(4);  // tN
  EXPECT_FALSE(Accel.hadError());
  EXPECT_EQ(Accel.getTileM(), 8);
  EXPECT_EQ(Accel.getTileK(), 32);
  EXPECT_EQ(Accel.getTileN(), 4);

  Accel.consumeWord(MM_SA);
  for (int I = 0; I < 8 * 32; ++I)
    Accel.consumeWord(1);
  Accel.consumeWord(MM_SB);
  for (int I = 0; I < 32 * 4; ++I)
    Accel.consumeWord(1);
  Accel.consumeWord(MM_CC);
  Accel.consumeWord(MM_RC);
  ASSERT_EQ(Accel.outputAvailable(), 32u);
  for (uint32_t Word : Accel.drainOutput(32))
    EXPECT_EQ(static_cast<int32_t>(Word), 32); // sum over tK
}

TEST(MatMulAccel, V4RejectsOversizedTiles) {
  SoCParams Params;
  MatMulAccelerator Accel(MatMulAccelerator::Version::V4, 16,
                          ElemKind::I32, Params);
  Accel.consumeWord(MM_CFG);
  Accel.consumeWord(10000);
  Accel.consumeWord(10000);
  Accel.consumeWord(10000);
  EXPECT_TRUE(Accel.hadError());
}

TEST(MatMulAccel, FloatData) {
  SoCParams Params;
  MatMulAccelerator Accel(MatMulAccelerator::Version::V1, 4, ElemKind::F32,
                          Params);
  Accel.consumeWord(MM_SASBCCRC);
  for (int I = 0; I < 16; ++I)
    Accel.consumeWord(floatToWord(0.5f));
  for (int R = 0; R < 4; ++R)
    for (int C = 0; C < 4; ++C)
      Accel.consumeWord(floatToWord(R == C ? 2.0f : 0.0f));
  for (uint32_t Word : Accel.drainOutput(16))
    EXPECT_FLOAT_EQ(wordToFloat(Word), 1.0f);
}

TEST(MatMulAccel, ResetClearsState) {
  SoCParams Params;
  MatMulAccelerator Accel(MatMulAccelerator::Version::V3, 4, ElemKind::I32,
                          Params);
  Accel.consumeWord(MM_SA);
  for (int I = 0; I < 16; ++I)
    Accel.consumeWord(7);
  Accel.consumeWord(MM_RESET);
  Accel.consumeWord(MM_SB);
  for (int I = 0; I < 16; ++I)
    Accel.consumeWord(1);
  Accel.consumeWord(MM_CC);
  Accel.consumeWord(MM_RC);
  for (uint32_t Word : Accel.drainOutput(16))
    EXPECT_EQ(static_cast<int32_t>(Word), 0); // A was cleared
}

/// The engine-size rule shared by axi4mlir-opt --run, the serve SoC pool
/// and the static ProtocolModel: largest tile, 8 for all sentinels.
TEST(MatMulAccel, EngineSizeFromAccelSize) {
  EXPECT_EQ(MatMulAccelerator::engineSizeFor({4, 4, 4}), 4);
  EXPECT_EQ(MatMulAccelerator::engineSizeFor({16, 8, 4}), 16);
  EXPECT_EQ(MatMulAccelerator::engineSizeFor({-1, -1, -1}), 8);
}

//===----------------------------------------------------------------------===//
// Conv accelerator
//===----------------------------------------------------------------------===//

TEST(ConvAccel, ComputesWindows) {
  SoCParams Params;
  ConvAccelerator Accel(ElemKind::I32, Params);
  Accel.consumeWord(CONV_SET_FS);
  Accel.consumeWord(2); // 2x2 filter
  Accel.consumeWord(CONV_SET_IC);
  Accel.consumeWord(3); // 3 channels
  EXPECT_EQ(Accel.getFilterSize(), 2);
  EXPECT_EQ(Accel.getInputChannels(), 3);

  Accel.consumeWord(CONV_SF);
  for (int I = 0; I < 12; ++I)
    Accel.consumeWord(1); // all-ones filter
  // Two windows.
  for (int W = 0; W < 2; ++W) {
    Accel.consumeWord(CONV_SICO);
    for (int I = 0; I < 12; ++I)
      Accel.consumeWord(static_cast<uint32_t>(W + 1));
  }
  Accel.consumeWord(CONV_RO);
  auto Out = Accel.drainOutput(2);
  ASSERT_EQ(Out.size(), 2u);
  EXPECT_EQ(static_cast<int32_t>(Out[0]), 12);
  EXPECT_EQ(static_cast<int32_t>(Out[1]), 24);
  EXPECT_FALSE(Accel.hadError());
  EXPECT_EQ(Accel.getWindowsComputed(), 2u);
}

TEST(ConvAccel, RejectsOversizedWindows) {
  SoCParams Params;
  const std::vector<std::vector<uint32_t>> Streams = {
      {CONV_SET_FS, 3, CONV_SET_IC, 100}, // 100*9 > 64
      // 3 * fS * fS with fS = 2^31-1 does not fit int64: the bound must
      // still hold without overflowing.
      {CONV_SET_IC, 3, CONV_SET_FS, 0x7FFFFFFF},
  };
  for (const std::vector<uint32_t> &Stream : Streams) {
    ConvAccelerator Accel(ElemKind::I32, Params, /*MaxWindowWords=*/64);
    for (uint32_t Word : Stream)
      Accel.consumeWord(Word);
    EXPECT_TRUE(Accel.hadError());
    EXPECT_NE(Accel.errorMessage().find("window buffer"), std::string::npos)
        << Accel.errorMessage();
  }
}

TEST(ConvAccel, UnknownOpcode) {
  SoCParams Params;
  ConvAccelerator Accel(ElemKind::I32, Params);
  Accel.consumeWord(0xDEAD);
  EXPECT_TRUE(Accel.hadError());
}

//===----------------------------------------------------------------------===//
// DMA engine
//===----------------------------------------------------------------------===//

TEST(DmaEngine, TransfersAndAccounting) {
  auto Soc = makeMatMulSoC(MatMulAccelerator::Version::V1, 4);
  accel::DmaInitConfig Config;
  Config.InputBufferSize = 4096;
  Config.OutputBufferSize = 4096;
  Soc->dma().init(Config);
  ASSERT_TRUE(Soc->dma().isInitialized());

  uint32_t *In = Soc->dma().inputRegion();
  In[0] = MM_SASBCCRC;
  for (int I = 0; I < 32; ++I)
    In[1 + I] = 1;
  Soc->dma().startSend(33, 0);
  Soc->dma().waitSendCompletion();
  Soc->dma().startRecv(16, 0);
  Soc->dma().waitRecvCompletion();
  EXPECT_FALSE(Soc->dma().hadError()) << Soc->dma().errorMessage();
  for (int I = 0; I < 16; ++I)
    EXPECT_EQ(static_cast<int32_t>(Soc->dma().outputRegion()[I]), 4);

  PerfReport R = Soc->report();
  EXPECT_EQ(R.DmaTransfers, 2u);
  EXPECT_EQ(R.DmaBytesMoved, (33u + 16u) * 4u);
  EXPECT_GT(R.FabricCycles, 0.0);
}

// Formerly Release-stripped asserts: using the DMA engine before
// dma_init must surface as a diagnosable Fatal error in every build type.
TEST(DmaEngine, UseBeforeInitSignalsError) {
  auto Soc = makeMatMulSoC(MatMulAccelerator::Version::V1, 4);
  ASSERT_FALSE(Soc->dma().isInitialized());
  EXPECT_EQ(Soc->dma().startSend(4, 0), AccelStatus::Fatal);
  EXPECT_TRUE(Soc->dma().hadError());
  EXPECT_EQ(Soc->dma().errorMessage(),
            "dma: dma_start_send before dma_init");

  auto Soc2 = makeMatMulSoC(MatMulAccelerator::Version::V1, 4);
  EXPECT_EQ(Soc2->dma().startRecv(4, 0), AccelStatus::Fatal);
  EXPECT_TRUE(Soc2->dma().hadError());
  EXPECT_EQ(Soc2->dma().errorMessage(),
            "dma: dma_start_recv before dma_init");
}

// The burst plumbing is protected so the defensive protocol-violation
// paths (formerly Release-invisible asserts) stay pinned.
struct ProbeMatMul : MatMulAccelerator {
  using MatMulAccelerator::MatMulAccelerator;
  using MatMulAccelerator::copyIn;
  using MatMulAccelerator::finishBurst;
};

TEST(MatMulAccel, CopyInInIdleSignalsError) {
  SoCParams Params;
  ProbeMatMul Accel(MatMulAccelerator::Version::V3, 4, ElemKind::I32,
                    Params);
  uint32_t Word = 7;
  Accel.copyIn(&Word, 1);
  EXPECT_TRUE(Accel.hadError());
  EXPECT_EQ(Accel.status(), AccelStatus::Fatal);
  EXPECT_NE(Accel.errorMessage().find("copyIn in Idle state"),
            std::string::npos)
      << Accel.errorMessage();
}

TEST(MatMulAccel, FinishBurstInIdleSignalsError) {
  SoCParams Params;
  ProbeMatMul Accel(MatMulAccelerator::Version::V3, 4, ElemKind::I32,
                    Params);
  Accel.finishBurst();
  EXPECT_TRUE(Accel.hadError());
  EXPECT_NE(Accel.errorMessage().find("finishBurst in Idle state"),
            std::string::npos)
      << Accel.errorMessage();
}

// Error bookkeeping: the count is monotone and both the first (root
// cause) and most recent message survive a cascade.
TEST(MatMulAccel, ErrorCountRetainsFirstAndLastMessage) {
  SoCParams Params;
  ProbeMatMul Accel(MatMulAccelerator::Version::V3, 4, ElemKind::I32,
                    Params);
  EXPECT_EQ(Accel.errorCount(), 0u);
  uint32_t Word = 7;
  Accel.copyIn(&Word, 1); // first error
  Accel.finishBurst();    // cascading second error
  EXPECT_EQ(Accel.errorCount(), 2u);
  EXPECT_NE(Accel.errorMessage().find("copyIn in Idle state"),
            std::string::npos)
      << Accel.errorMessage();
  EXPECT_NE(Accel.lastErrorMessage().find("finishBurst in Idle state"),
            std::string::npos)
      << Accel.lastErrorMessage();
  // A full reset clears the bookkeeping.
  Accel.reset();
  EXPECT_EQ(Accel.errorCount(), 0u);
  EXPECT_TRUE(Accel.errorMessage().empty());
  EXPECT_TRUE(Accel.lastErrorMessage().empty());
}

TEST(DmaEngine, OverflowAndUnderflowErrors) {
  auto Soc = makeMatMulSoC(MatMulAccelerator::Version::V1, 4);
  accel::DmaInitConfig Config;
  Config.InputBufferSize = 64; // 16 words
  Config.OutputBufferSize = 64;
  Soc->dma().init(Config);
  Soc->dma().startSend(1000, 0); // exceeds the input region
  EXPECT_TRUE(Soc->dma().hadError());

  auto Soc2 = makeMatMulSoC(MatMulAccelerator::Version::V1, 4);
  Soc2->dma().init(Config);
  Soc2->dma().startRecv(4, 0); // accelerator produced nothing
  EXPECT_TRUE(Soc2->dma().hadError());
}

} // namespace

namespace {

// Fused single-opcode variants (sAcCrC / sBcCrC) used by the As/Bs flows
// of simpler engines: load one input, compute against the stationary
// other input, and emit C in a single burst.
TEST(MatMulAccel, FusedComputeOpcodes) {
  SoCParams Params;
  MatMulAccelerator Accel(MatMulAccelerator::Version::V3, 4, ElemKind::I32,
                          Params);
  // Stationary A = 2*I.
  Accel.consumeWord(MM_SA);
  for (int R = 0; R < 4; ++R)
    for (int C = 0; C < 4; ++C)
      Accel.consumeWord(R == C ? 2 : 0);
  // sBcCrC: stream B, compute, emit.
  Accel.consumeWord(MM_SB_CC_RC);
  for (int I = 0; I < 16; ++I)
    Accel.consumeWord(3);
  ASSERT_EQ(Accel.outputAvailable(), 16u);
  for (uint32_t Word : Accel.drainOutput(16))
    EXPECT_EQ(static_cast<int32_t>(Word), 6);
  // sAcCrC with the B still loaded: stream a fresh A, compute, emit.
  Accel.consumeWord(MM_SA_CC_RC);
  for (int R = 0; R < 4; ++R)
    for (int C = 0; C < 4; ++C)
      Accel.consumeWord(R == C ? 1 : 0);
  for (uint32_t Word : Accel.drainOutput(16))
    EXPECT_EQ(static_cast<int32_t>(Word), 3);
  EXPECT_FALSE(Accel.hadError());
}

TEST(ConvAccel, FilterReloadStartsFreshSlice) {
  SoCParams Params;
  ConvAccelerator Accel(ElemKind::I32, Params);
  Accel.consumeWord(CONV_SET_FS);
  Accel.consumeWord(1);
  Accel.consumeWord(CONV_SET_IC);
  Accel.consumeWord(2);
  auto window = [&](int32_t V) {
    Accel.consumeWord(CONV_SICO);
    Accel.consumeWord(static_cast<uint32_t>(V));
    Accel.consumeWord(static_cast<uint32_t>(V));
  };
  Accel.consumeWord(CONV_SF);
  Accel.consumeWord(1);
  Accel.consumeWord(1);
  window(5); // slice 0 accumulates one value (10)
  // Loading the next filter discards the un-drained slice.
  Accel.consumeWord(CONV_SF);
  Accel.consumeWord(2);
  Accel.consumeWord(2);
  window(3); // 3*2 + 3*2 = 12
  Accel.consumeWord(CONV_RO);
  auto Out = Accel.drainOutput(8);
  ASSERT_EQ(Out.size(), 1u);
  EXPECT_EQ(static_cast<int32_t>(Out[0]), 12);
}

} // namespace
