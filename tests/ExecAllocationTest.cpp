//===- ExecAllocationTest.cpp - Heap allocations of the axirt execute path ===//
//
// Part of the AXI4MLIR reproduction. MIT licensed.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Pins the execute path's allocation contract (docs/ARCHITECTURE.md): a
/// run allocates its slot array, its argument descriptors and its
/// memref.alloc buffers, and nothing per DMA staging copy or subview. One
/// divisible-shape axirt driver runs at two sizes whose tile counts differ
/// 64x; both plan executors must make the same number of heap allocations
/// at either size, so any per-transfer or per-tile allocation fails here.
///
/// The generic odometer is held to it as well: a linalg.generic the
/// decoder does not specialize, run 1 or 8 times by a loop, must allocate
/// equally often.
///
/// The static plan verifier is held to the same rule for staged words
/// (docs/ANALYSIS.md): verifying two drivers of one loop structure whose
/// staged tiles (16 vs 256 words) or conv windows (576 vs 4608 words)
/// differ in size must allocate equally often.
///
/// Its own binary, because it replaces the global operator new with a
/// counting one.
///
//===----------------------------------------------------------------------===//

#include "analysis/PlanVerifier.h"
#include "analysis/ProtocolModel.h"
#include "dialects/InitAllDialects.h"
#include "exec/AccelConfigs.h"
#include "exec/ExecPlan.h"
#include "exec/ExecPlanRun.h"
#include "exec/Pipeline.h"
#include "exec/Reference.h"
#include "ir/Parser.h"

#include <atomic>
#include <cstdlib>
#include <new>

#include <gtest/gtest.h>

namespace {
std::atomic<uint64_t> NumAllocations{0};

void *countedAlloc(std::size_t Size, std::size_t Alignment) {
  NumAllocations.fetch_add(1, std::memory_order_relaxed);
  if (Size == 0)
    Size = 1;
  void *P = Alignment <= alignof(std::max_align_t)
                ? std::malloc(Size)
                : std::aligned_alloc(Alignment,
                                     (Size + Alignment - 1) / Alignment *
                                         Alignment);
  if (!P)
    throw std::bad_alloc();
  return P;
}
} // namespace

// The array forms of libstdc++ forward to these.
void *operator new(std::size_t Size) { return countedAlloc(Size, 0); }
void *operator new(std::size_t Size, std::align_val_t Alignment) {
  return countedAlloc(Size, static_cast<std::size_t>(Alignment));
}
void operator delete(void *P) noexcept { std::free(P); }
void operator delete(void *P, std::size_t) noexcept { std::free(P); }
void operator delete(void *P, std::align_val_t) noexcept { std::free(P); }
void operator delete(void *P, std::size_t, std::align_val_t) noexcept {
  std::free(P);
}

using namespace axi4mlir;
using namespace axi4mlir::exec;
using runtime::MemRefDesc;
using V = sim::MatMulAccelerator::Version;

namespace {

struct RunAllocations {
  uint64_t Decoded = 0; ///< Inside DecodedPlan::run (threaded engine).
  uint64_t Plan = 0;    ///< Inside ExecPlan::run (plan interpreter).
};

/// Runs \p Plan through both plan executors on \p Soc after a warm-up
/// run each, counting operator new calls inside each run.
RunAllocations countExecutorAllocations(const ExecPlan &Plan, sim::SoC &Soc,
                                        runtime::DmaRuntime *Runtime,
                                        const std::vector<MemRefDesc> &Args) {
  std::unique_ptr<DecodedPlan> Decoded = DecodedPlan::decode(Plan);
  auto count = [&](auto Execute) -> uint64_t {
    std::string RunError;
    EXPECT_TRUE(succeeded(Execute(RunError))) << RunError; // warm-up
    RunError.clear();
    uint64_t Before = NumAllocations.load();
    LogicalResult Ran = Execute(RunError);
    uint64_t After = NumAllocations.load();
    EXPECT_TRUE(succeeded(Ran)) << RunError;
    return After - Before;
  };
  RunAllocations Counts;
  Counts.Decoded = count([&](std::string &RunError) {
    return Decoded->run(Soc, Runtime, Args, RunError);
  });
  Counts.Plan = count([&](std::string &RunError) {
    return Plan.run(Soc, Runtime, Args, RunError);
  });
  return Counts;
}

/// Lowers a \p Dim cubed i32 matmul to the axirt driver for the v3-4
/// engine and counts the allocations of a run on each plan executor.
RunAllocations countRunAllocations(int64_t Dim) {
  RunAllocations Counts;
  MLIRContext Context;
  registerAllDialects(Context);
  OpBuilder Builder(&Context);
  func::FuncOp Func = buildMatMulFunc(Builder, Dim, Dim, Dim,
                                      sim::ElemKind::I32);
  OwningOpRef Owner(Func.getOperation());
  std::string Error;
  transforms::LoweringOptions Options;
  Options.EnableCpuTiling = false;
  if (failed(transforms::buildPipeline(
                 parseSingleAccelerator(makeMatMulConfigJson(V::V3, 4, "Ns")),
                 Options)
                 .run(Func, Error))) {
    ADD_FAILURE() << Error;
    return Counts;
  }
  std::unique_ptr<ExecPlan> Plan = ExecPlan::compile(Func, Error);
  if (!Plan) {
    ADD_FAILURE() << Error;
    return Counts;
  }
  auto Soc = sim::makeMatMulSoC(V::V3, 4, sim::ElemKind::I32);
  runtime::DmaRuntime Runtime(*Soc);
  std::vector<MemRefDesc> Args = {MemRefDesc::alloc({Dim, Dim}),
                                  MemRefDesc::alloc({Dim, Dim}),
                                  MemRefDesc::alloc({Dim, Dim})};
  for (size_t I = 0; I < Args.size(); ++I)
    fillRandom(Args[I], 11 + static_cast<uint32_t>(I));
  return countExecutorAllocations(*Plan, *Soc, &Runtime, Args);
}

/// A loop that runs a 4x4 linalg.generic \p Trips times. Its body (an
/// add, then a sub) is no kernel the decoder specializes, so both
/// executors run it through their generic odometer.
RunAllocations countGenericLoopAllocations(int64_t Trips) {
  const std::string Memref = "memref<4x4xi32>";
  const std::string Source =
      "func.func() ({\n"
      "^bb(%arg0: " + Memref + ", %arg1: " + Memref + ", %arg2: " + Memref +
      "):\n"
      "  %0 = arith.constant() {value = 0 : index} : () -> (index)\n"
      "  %1 = arith.constant() {value = " + std::to_string(Trips) +
      " : index} : () -> (index)\n"
      "  %2 = arith.constant() {value = 1 : index} : () -> (index)\n"
      "  scf.for(%0, %1, %2) ({\n"
      "  ^bb(%arg3: index):\n"
      "    linalg.generic(%arg0, %arg1, %arg2) ({\n"
      "    ^bb(%arg4: i32, %arg5: i32, %arg6: i32):\n"
      "      %3 = arith.addi(%arg4, %arg5) : (i32, i32) -> (i32)\n"
      "      %4 = arith.subi(%3, %arg6) : (i32, i32) -> (i32)\n"
      "      linalg.yield(%4) : (i32) -> ()\n"
      "    }) {indexing_maps = [affine_map<(d0, d1) -> (d0, d1)>, "
      "affine_map<(d0, d1) -> (d1, d0)>, affine_map<(d0, d1) -> (d0, d1)>], "
      "iterator_types = [\"parallel\", \"parallel\"], num_inputs = 2} : (" +
      Memref + ", " + Memref + ", " + Memref + ") -> ()\n"
      "    scf.yield() : () -> ()\n"
      "  }) : (index, index, index) -> ()\n"
      "  func.return() : () -> ()\n"
      "}) {function_type = (" + Memref + ", " + Memref + ", " + Memref +
      ") -> (), sym_name = \"generic_loop\"} : () -> ()\n";
  MLIRContext Context;
  registerAllDialects(Context);
  std::string Error;
  auto Parsed = parseSourceString(Source, &Context, &Error);
  if (failed(Parsed)) {
    ADD_FAILURE() << Error;
    return {};
  }
  std::unique_ptr<ExecPlan> Plan =
      ExecPlan::compile(func::FuncOp(Parsed->get()), Error);
  if (!Plan) {
    ADD_FAILURE() << Error;
    return {};
  }
  EXPECT_EQ(DecodedPlan::decode(*Plan)->numSpecializedKernels(), 0u);
  auto Soc = sim::makeMatMulSoC(V::V3, 4, sim::ElemKind::I32);
  std::vector<MemRefDesc> Args = {MemRefDesc::alloc({4, 4}),
                                  MemRefDesc::alloc({4, 4}),
                                  MemRefDesc::alloc({4, 4})};
  for (size_t I = 0; I < Args.size(); ++I)
    fillRandom(Args[I], 21 + static_cast<uint32_t>(I));
  return countExecutorAllocations(*Plan, *Soc, nullptr, Args);
}

/// Lowers \p Func against the single accelerator of \p ConfigJson,
/// compiles its plan and counts operator new calls inside one verifyPlan
/// with the accelerator's ProtocolModel, after a warm-up call. The plan
/// must verify clean, so every staged word reaches the model.
uint64_t countVerifyAllocations(func::FuncOp Func,
                                const std::string &ConfigJson) {
  parser::AcceleratorDesc Accel = parseSingleAccelerator(ConfigJson);
  std::string Error;
  transforms::LoweringOptions Options;
  Options.EnableCpuTiling = false;
  if (failed(transforms::buildPipeline(Accel, Options).run(Func, Error))) {
    ADD_FAILURE() << Error;
    return 0;
  }
  std::unique_ptr<ExecPlan> Plan = ExecPlan::compile(Func, Error);
  if (!Plan) {
    ADD_FAILURE() << Error;
    return 0;
  }
  auto Model = analysis::ProtocolModel::forAccelerator(Accel, Error);
  if (failed(Model)) {
    ADD_FAILURE() << Error;
    return 0;
  }
  analysis::VerifyOptions Verify;
  Verify.Model = &*Model;
  analysis::VerifyResult Warm = analysis::verifyPlan(*Plan, Verify);
  EXPECT_TRUE(Warm.Errors.empty() && Warm.Warnings.empty())
      << Warm.toString();
  uint64_t Before = NumAllocations.load();
  analysis::verifyPlan(*Plan, Verify);
  return NumAllocations.load() - Before;
}

uint64_t countMatMulVerifyAllocations(int64_t Dim, int64_t TileSize) {
  MLIRContext Context;
  registerAllDialects(Context);
  OpBuilder Builder(&Context);
  func::FuncOp Func =
      buildMatMulFunc(Builder, Dim, Dim, Dim, sim::ElemKind::I32);
  OwningOpRef Owner(Func.getOperation());
  return countVerifyAllocations(Func,
                                makeMatMulConfigJson(V::V3, TileSize, "Ns"));
}

/// A 3x3 conv over a 6x6 input plane (4x4 output, 8 output channels):
/// each staged window holds 9 * \p InChannels words.
uint64_t countConvVerifyAllocations(int64_t InChannels) {
  MLIRContext Context;
  registerAllDialects(Context);
  OpBuilder Builder(&Context);
  func::FuncOp Func = buildConvFunc(Builder, 1, InChannels, 6, 8, 3, 1,
                                    sim::ElemKind::I32);
  OwningOpRef Owner(Func.getOperation());
  return countVerifyAllocations(Func, makeConvConfigJson());
}

TEST(ExecAllocation, VerifierDoesNotAllocatePerStagedWord) {
  // 4 tiles per dimension either way; a staged tile is 16 words on the
  // v3-4 engine and 256 on the v3-16 one.
  uint64_t SmallTiles = countMatMulVerifyAllocations(16, 4);
  uint64_t LargeTiles = countMatMulVerifyAllocations(64, 16);
  EXPECT_GT(SmallTiles, 0u);
  EXPECT_EQ(SmallTiles, LargeTiles) << "verifyPlan allocates per tile word";
  // 576 vs 4608 words per window.
  EXPECT_EQ(countConvVerifyAllocations(64), countConvVerifyAllocations(512))
      << "verifyPlan allocates per window word";
}

TEST(ExecAllocation, GenericOdometerDoesNotAllocatePerExecution) {
  RunAllocations Once = countGenericLoopAllocations(1);
  RunAllocations Eight = countGenericLoopAllocations(8);
  EXPECT_GT(Once.Decoded, 0u); // the slot array at least
  EXPECT_EQ(Once.Decoded, Eight.Decoded)
      << "DecodedPlan::run allocates per linalg.generic execution";
  EXPECT_EQ(Once.Plan, Eight.Plan)
      << "ExecPlan::run allocates per linalg.generic execution";
}

TEST(ExecAllocation, StagingAndSubviewsDoNotAllocatePerTile) {
  // 16^3 on 4x4x4 tiles is 64 tiles; 64^3 is 4096.
  RunAllocations Small = countRunAllocations(16);
  RunAllocations Large = countRunAllocations(64);
  EXPECT_GT(Small.Decoded, 0u); // the slot array at least
  EXPECT_EQ(Small.Decoded, Large.Decoded)
      << "DecodedPlan::run allocates per tile";
  EXPECT_EQ(Small.Plan, Large.Plan) << "ExecPlan::run allocates per tile";
}

} // namespace
