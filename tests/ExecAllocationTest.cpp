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
/// Its own binary, because it replaces the global operator new with a
/// counting one.
///
//===----------------------------------------------------------------------===//

#include "dialects/InitAllDialects.h"
#include "exec/AccelConfigs.h"
#include "exec/ExecPlan.h"
#include "exec/ExecPlanRun.h"
#include "exec/Pipeline.h"
#include "exec/Reference.h"

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

/// Lowers a \p Dim cubed i32 matmul to the axirt driver for the v3-4
/// engine, then runs it through both plan executors on one SoC after a
/// warm-up run each, counting operator new calls inside each run.
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
  std::unique_ptr<DecodedPlan> Decoded = DecodedPlan::decode(*Plan);

  auto Soc = sim::makeMatMulSoC(V::V3, 4, sim::ElemKind::I32);
  runtime::DmaRuntime Runtime(*Soc);
  std::vector<MemRefDesc> Args = {MemRefDesc::alloc({Dim, Dim}),
                                  MemRefDesc::alloc({Dim, Dim}),
                                  MemRefDesc::alloc({Dim, Dim})};
  for (size_t I = 0; I < Args.size(); ++I)
    fillRandom(Args[I], 11 + static_cast<uint32_t>(I));

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
  Counts.Decoded = count([&](std::string &RunError) {
    return Decoded->run(*Soc, &Runtime, Args, RunError);
  });
  Counts.Plan = count([&](std::string &RunError) {
    return Plan->run(*Soc, &Runtime, Args, RunError);
  });
  return Counts;
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
