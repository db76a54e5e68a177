//===- ExecPlanTest.cpp - Compiled plan vs. legacy walker equivalence -----===//
//
// Part of the AXI4MLIR reproduction. MIT licensed.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Proves the compile-once/execute-many ExecPlan is indistinguishable from
/// the tree-walking interpreter on both executable forms (linalg.generic
/// and the axirt driver): the plan interpreter and the threaded engine
/// running the pre-decoded plan both reproduce the walker's output buffers
/// AND its HostPerfModel counters bit for bit. The threaded engine is the
/// measurement engine for every figure bench, so this equivalence is what
/// licenses using it by default. Accel-level IR is refused by all three.
///
//===----------------------------------------------------------------------===//

#include "dialects/InitAllDialects.h"
#include "exec/AccelConfigs.h"
#include "exec/ExecPlan.h"
#include "exec/Interpreter.h"
#include "exec/Pipeline.h"
#include "exec/Reference.h"
#include "exec/opt/PlanOpt.h"

#include <cmath>
#include <optional>

#include <gtest/gtest.h>

using namespace axi4mlir;
using namespace axi4mlir::exec;
using runtime::MemRefDesc;
using V = sim::MatMulAccelerator::Version;

namespace {

/// Every field of the perf report, compared exactly. The doubles are
/// sums accumulated in the same order on both sides, so even they must
/// match bit for bit.
void expectIdenticalReports(const sim::PerfReport &Walker,
                            const sim::PerfReport &Plan) {
  EXPECT_EQ(Walker.Instructions, Plan.Instructions);
  EXPECT_EQ(Walker.BranchInstructions, Plan.BranchInstructions);
  EXPECT_EQ(Walker.Loads, Plan.Loads);
  EXPECT_EQ(Walker.Stores, Plan.Stores);
  EXPECT_EQ(Walker.L1DAccesses, Plan.L1DAccesses);
  EXPECT_EQ(Walker.CacheReferences, Plan.CacheReferences);
  EXPECT_EQ(Walker.CacheMisses, Plan.CacheMisses);
  EXPECT_EQ(Walker.HostCycles, Plan.HostCycles);
  EXPECT_EQ(Walker.FabricCycles, Plan.FabricCycles);
  EXPECT_EQ(Walker.DmaTransfers, Plan.DmaTransfers);
  EXPECT_EQ(Walker.DmaBytesMoved, Plan.DmaBytesMoved);
  EXPECT_EQ(Walker.TaskClockMs, Plan.TaskClockMs);
  EXPECT_EQ(Walker.FaultsInjected, Plan.FaultsInjected);
  EXPECT_EQ(Walker.RecoveryRetries, Plan.RecoveryRetries);
  EXPECT_EQ(Walker.RecoveryBackoffCycles, Plan.RecoveryBackoffCycles);
  EXPECT_EQ(Walker.WatchdogPollCycles, Plan.WatchdogPollCycles);
  EXPECT_EQ(Walker.RecoveryReplayCycles, Plan.RecoveryReplayCycles);
  EXPECT_EQ(Walker.FailoverEvents, Plan.FailoverEvents);
  EXPECT_EQ(Walker.CpuFallbackEvents, Plan.CpuFallbackEvents);
  EXPECT_EQ(Walker.CpuFallbackCycles, Plan.CpuFallbackCycles);
  EXPECT_EQ(Walker.PlanCacheHits, Plan.PlanCacheHits);
  EXPECT_EQ(Walker.PlanCacheMisses, Plan.PlanCacheMisses);
}

/// How far to lower the matmul before execution.
enum class Level { Generic, Accel, Axirt };

/// Lowers one matmul func to \p L. Returns false (with ADD_FAILURE) on a
/// pipeline error.
bool lowerMatMul(func::FuncOp Func, Level L,
                 const parser::AcceleratorDesc &Accel) {
  std::string Error;
  if (failed(transforms::convertNamedToGeneric(Func, Error))) {
    ADD_FAILURE() << Error;
    return false;
  }
  if (L == Level::Generic)
    return true;
  transforms::LoweringOptions Options;
  Options.EnableCpuTiling = false;
  if (failed(transforms::matchAndAnnotate(Func, Accel, Error)) ||
      failed(transforms::lowerToAccel(Func, Options, Error))) {
    ADD_FAILURE() << Error;
    return false;
  }
  if (L == Level::Axirt &&
      failed(transforms::convertAccelToRuntime(Func, Error))) {
    ADD_FAILURE() << Error;
    return false;
  }
  return true;
}

/// Runs \p Func three ways — the walker, ExecPlan::run and DecodedPlan::run
/// over one compiled plan — and expects the plan and threaded columns to
/// reproduce the walker's buffers and counters exactly. Each run first
/// refills argument I from seed \p Seed + I.
///
/// All executors run against the SAME SoC and the SAME argument buffers
/// (counters and cache reset between runs): the cache simulator is keyed
/// on real host addresses, so distinct allocations would legitimately
/// produce different line-straddle counts. The plan is compiled and
/// decoded before any run, and a warm-up run brings the allocator to
/// steady state, so staging buffers allocated mid-execution (pad
/// remainders) recycle identical addresses for every executor.
void checkExecutorsAgree(func::FuncOp Func, sim::SoC &Soc,
                         runtime::DmaRuntime *Runtime,
                         std::vector<MemRefDesc> &Args, uint32_t Seed) {
  std::string Error;
  std::unique_ptr<ExecPlan> Plan = ExecPlan::compile(Func, Error);
  ASSERT_NE(Plan, nullptr) << Error;
  std::unique_ptr<DecodedPlan> Decoded = DecodedPlan::decode(*Plan);

  auto runOnce = [&](auto Execute) -> sim::PerfReport {
    for (size_t I = 0; I < Args.size(); ++I)
      fillRandom(Args[I], Seed + static_cast<uint32_t>(I));
    Soc.resetCounters();
    std::string RunError;
    EXPECT_TRUE(succeeded(Execute(RunError))) << RunError;
    return Soc.report();
  };
  auto walker = [&](std::string &RunError) {
    Interpreter Walker(Soc, Runtime, ExecMode::Walker);
    return Walker.run(Func, Args, RunError);
  };

  runOnce(walker); // allocator warm-up
  sim::PerfReport Walker = runOnce(walker);
  MemRefDesc WalkerOut = cloneMemRef(Args.back());
  sim::PerfReport PlanReport = runOnce([&](std::string &RunError) {
    return Plan->run(Soc, Runtime, Args, RunError);
  });
  EXPECT_TRUE(memrefEquals(WalkerOut, Args.back()));
  expectIdenticalReports(Walker, PlanReport);
  sim::PerfReport Threaded = runOnce([&](std::string &RunError) {
    return Decoded->run(Soc, Runtime, Args, RunError);
  });
  EXPECT_TRUE(memrefEquals(WalkerOut, Args.back()));
  expectIdenticalReports(Walker, Threaded);
}

/// The full equivalence check for one (level, shape) combination.
void checkMatMulEquivalence(Level L, int64_t M, int64_t N, int64_t K,
                            int64_t AccelSize,
                            sim::ElemKind Kind = sim::ElemKind::I32) {
  MLIRContext Context;
  registerAllDialects(Context);
  OpBuilder Builder(&Context);
  func::FuncOp Func = buildMatMulFunc(Builder, M, N, K, Kind);
  OwningOpRef Owner(Func.getOperation());
  parser::AcceleratorDesc Accel = parseSingleAccelerator(
      makeMatMulConfigJson(V::V3, AccelSize, "Ns", 0, 0, 0,
                           Kind == sim::ElemKind::F32 ? "float32" : "int32"));
  if (!lowerMatMul(Func, L, Accel))
    return;

  auto Soc = L == Level::Generic
                 ? sim::makeCpuOnlySoC()
                 : sim::makeMatMulSoC(V::V3, AccelSize, Kind);
  std::unique_ptr<runtime::DmaRuntime> Runtime;
  if (L != Level::Generic)
    Runtime = std::make_unique<runtime::DmaRuntime>(*Soc);

  std::vector<MemRefDesc> Args = {MemRefDesc::alloc({M, K}, Kind),
                                  MemRefDesc::alloc({K, N}, Kind),
                                  MemRefDesc::alloc({M, N}, Kind)};
  checkExecutorsAgree(Func, *Soc, Runtime.get(), Args, /*Seed=*/21);
}

//===----------------------------------------------------------------------===//
// The executable forms, and the accel level that is not one
//===----------------------------------------------------------------------===//

TEST(ExecPlan, GenericLevelEquivalence) {
  checkMatMulEquivalence(Level::Generic, 12, 20, 16, 8);
}

TEST(ExecPlan, GenericLevelEquivalenceF32) {
  checkMatMulEquivalence(Level::Generic, 8, 10, 12, 8, sim::ElemKind::F32);
}

/// Accel ops are an intermediate IR: the plan compiler and the Interpreter
/// in both modes refuse a driver lowered only that far, naming the
/// lowering it still needs, and execute nothing.
TEST(ExecPlan, AccelLevelIsRefused) {
  MLIRContext Context;
  registerAllDialects(Context);
  OpBuilder Builder(&Context);
  func::FuncOp Func = buildMatMulFunc(Builder, 16, 16, 16, sim::ElemKind::I32);
  OwningOpRef Owner(Func.getOperation());
  ASSERT_TRUE(lowerMatMul(Func, Level::Accel,
                          parseSingleAccelerator(
                              makeMatMulConfigJson(V::V3, 8, "Ns"))));

  std::string PlanError;
  EXPECT_EQ(ExecPlan::compile(Func, PlanError), nullptr);
  EXPECT_EQ(PlanError, "interpreter: accel-level op 'accel.dma_init' is not "
                       "executable; lower it with convert-accel-to-runtime "
                       "first");

  auto Soc = sim::makeMatMulSoC(V::V3, 8);
  runtime::DmaRuntime Runtime(*Soc);
  std::vector<MemRefDesc> Args = {MemRefDesc::alloc({16, 16}),
                                  MemRefDesc::alloc({16, 16}),
                                  MemRefDesc::alloc({16, 16})};
  for (ExecMode Mode : {ExecMode::Walker, ExecMode::Threaded}) {
    Interpreter Interp(*Soc, &Runtime, Mode);
    std::string Error;
    EXPECT_TRUE(failed(Interp.run(Func, Args, Error))) << toString(Mode);
    EXPECT_EQ(Error, PlanError) << toString(Mode);
  }
  EXPECT_EQ(Soc->report().DmaTransfers, 0u);
}

TEST(ExecPlan, AxirtLevelEquivalence) {
  checkMatMulEquivalence(Level::Axirt, 32, 16, 24, 8);
}

/// Non-divisible extents force the pad remainder path: alloc + staged
/// memref.copy + masked accumulate through the shared strided-copy engine
/// in both executors.
TEST(ExecPlan, AxirtPartialTileEquivalence) {
  checkMatMulEquivalence(Level::Axirt, 10, 12, 9, 8);
}

/// Strided-convolution generics exercise the non-projected affine-map
/// fallback of the compiled plan (d2*s + d5 indexing).
TEST(ExecPlan, GenericConvEquivalence) {
  MLIRContext Context;
  registerAllDialects(Context);
  OpBuilder Builder(&Context);
  func::FuncOp Func =
      buildConvFunc(Builder, 1, 3, 9, 2, 3, 2, sim::ElemKind::I32);
  OwningOpRef Owner(Func.getOperation());
  std::string Error;
  ASSERT_TRUE(succeeded(transforms::convertNamedToGeneric(Func, Error)))
      << Error;

  auto Soc = sim::makeCpuOnlySoC();
  std::vector<MemRefDesc> Args = {MemRefDesc::alloc({1, 3, 9, 9}),
                                  MemRefDesc::alloc({2, 3, 3, 3}),
                                  MemRefDesc::alloc({1, 2, 4, 4})};
  checkExecutorsAgree(Func, *Soc, nullptr, Args, /*Seed=*/31);
}

//===----------------------------------------------------------------------===//
// Plan mechanics
//===----------------------------------------------------------------------===//

TEST(ExecPlan, CompilesToFlatProgram) {
  MLIRContext Context;
  registerAllDialects(Context);
  OpBuilder Builder(&Context);
  func::FuncOp Func = buildMatMulFunc(Builder, 8, 8, 8, sim::ElemKind::I32);
  OwningOpRef Owner(Func.getOperation());
  std::string Error;
  ASSERT_TRUE(succeeded(transforms::convertNamedToGeneric(Func, Error)));
  auto Plan = ExecPlan::compile(Func, Error);
  ASSERT_NE(Plan, nullptr) << Error;
  EXPECT_EQ(Plan->numArguments(), 3u);
  EXPECT_GT(Plan->numInstructions(), 0u);
  EXPECT_GE(Plan->numSlots(), 3u);
}

TEST(ExecPlan, ReusedAcrossRunsWithIdenticalCounters) {
  MLIRContext Context;
  registerAllDialects(Context);
  OpBuilder Builder(&Context);
  func::FuncOp Func = buildMatMulFunc(Builder, 6, 6, 6, sim::ElemKind::I32);
  OwningOpRef Owner(Func.getOperation());
  std::string Error;
  ASSERT_TRUE(succeeded(transforms::convertNamedToGeneric(Func, Error)));
  auto Plan = ExecPlan::compile(Func, Error);
  ASSERT_NE(Plan, nullptr) << Error;

  // Two executions of one plan on fresh systems: independent, identical.
  sim::PerfReport Reports[2];
  for (int Run = 0; Run < 2; ++Run) {
    auto Soc = sim::makeCpuOnlySoC();
    MemRefDesc A = MemRefDesc::alloc({6, 6});
    MemRefDesc B = MemRefDesc::alloc({6, 6});
    MemRefDesc C = MemRefDesc::alloc({6, 6});
    fillRandom(A, 1);
    fillRandom(B, 2);
    fillRandom(C, 3);
    MemRefDesc Expected = cloneMemRef(C);
    referenceMatMul(A, B, Expected);
    ASSERT_TRUE(succeeded(Plan->run(*Soc, nullptr, {A, B, C}, Error)))
        << Error;
    EXPECT_TRUE(memrefEquals(Expected, C));
    Reports[Run] = Soc->report();
  }
  expectIdenticalReports(Reports[0], Reports[1]);
}

/// Lowers the 16x16x16 v3-8 Ns matmul to the axirt driver, erases the
/// first call to \p Callee and returns the plan compiler's diagnostic.
std::string compileWithout(const char *Callee) {
  MLIRContext Context;
  registerAllDialects(Context);
  OpBuilder Builder(&Context);
  func::FuncOp Func = buildMatMulFunc(Builder, 16, 16, 16, sim::ElemKind::I32);
  OwningOpRef Owner(Func.getOperation());
  parser::AcceleratorDesc Accel =
      parseSingleAccelerator(makeMatMulConfigJson(V::V3, 8, "Ns"));
  if (!lowerMatMul(Func, Level::Axirt, Accel))
    return "";
  Operation *Victim = nullptr;
  Func.getOperation()->walk([&](Operation *Op) {
    if (!Victim && Op->getName() == func::CallOp::OpName &&
        func::CallOp(Op).getCallee() == Callee)
      Victim = Op;
  });
  EXPECT_NE(Victim, nullptr) << Callee;
  if (!Victim)
    return "";
  Victim->erase();
  std::string Error;
  EXPECT_EQ(ExecPlan::compile(Func, Error), nullptr) << Callee;
  return Error;
}

/// A send or receive is one instruction that starts the transfer and
/// waits for it, so the plan compiler accepts only the blocking driver's
/// shape: each start immediately followed by its wait.
TEST(ExecPlan, UnpairedTransferIsRefused) {
  namespace rt = transforms::rtcall;
  EXPECT_EQ(compileWithout(rt::WaitSend),
            "runtime call 'axirt.start_send' is not immediately followed by "
            "'axirt.wait_send'");
  EXPECT_EQ(compileWithout(rt::WaitRecv),
            "runtime call 'axirt.start_recv' is not immediately followed by "
            "'axirt.wait_recv'");
  EXPECT_EQ(compileWithout(rt::StartRecv),
            "runtime call 'axirt.wait_recv' does not follow its "
            "'axirt.start_recv'");
}

TEST(ExecPlan, DiagnosticsMatchWalker) {
  MLIRContext Context;
  registerAllDialects(Context);
  OpBuilder Builder(&Context);
  func::FuncOp Func = func::FuncOp::create(Builder, "f", {});
  OwningOpRef Owner(Func.getOperation());
  Builder.setInsertionPointToEnd(&Func.getBody());
  Builder.create("mystery.op");
  func::ReturnOp::create(Builder);

  std::string PlanError;
  EXPECT_EQ(ExecPlan::compile(Func, PlanError), nullptr);
  EXPECT_NE(PlanError.find("mystery.op"), std::string::npos);

  auto Soc = sim::makeCpuOnlySoC();
  std::string WalkerError;
  Interpreter Walker(*Soc, nullptr, ExecMode::Walker);
  EXPECT_TRUE(failed(Walker.run(Func, {}, WalkerError)));
  EXPECT_EQ(PlanError, WalkerError);
}

/// An integer result the double arithmetic cannot fit in int64 converts
/// the way the modeled ARM host's VCVT does, in every executor: muli and
/// addi of INT64_MAX compute 2^126 and 2^64, which both saturate to
/// INT64_MAX (a plain cast is undefined there and aborts under
/// -fsanitize=float-cast-overflow). The i32 stores keep its low word.
TEST(ExecPlan, IntegerResultsBeyondInt64Saturate) {
  MLIRContext Context;
  registerAllDialects(Context);
  OpBuilder Builder(&Context);
  MemRefType Ty = MemRefType::get(&Context, {2}, Type::getI32(&Context));
  func::FuncOp Func = func::FuncOp::create(Builder, "f", {Ty});
  OwningOpRef Owner(Func.getOperation());
  Builder.setInsertionPointToEnd(&Func.getBody());
  Value Max = arith::ConstantOp::createIndex(Builder, INT64_MAX).getResult();
  Value C0 = arith::ConstantOp::createIndex(Builder, 0).getResult();
  Value C1 = arith::ConstantOp::createIndex(Builder, 1).getResult();
  Value Product =
      arith::BinaryOp::create(Builder, "arith.muli", Max, Max).getResult();
  Value Sum =
      arith::BinaryOp::create(Builder, "arith.addi", Max, Max).getResult();
  for (auto [Result, Index] : {std::pair{Product, C0}, std::pair{Sum, C1}}) {
    Value Word =
        arith::IndexCastOp::create(Builder, Result, Builder.getI32Type())
            .getResult();
    memref::StoreOp::create(Builder, Word, Func.getArgument(0), {Index});
  }
  func::ReturnOp::create(Builder);

  auto Soc = sim::makeCpuOnlySoC();
  std::vector<MemRefDesc> Args = {MemRefDesc::alloc({2})};
  checkExecutorsAgree(Func, *Soc, nullptr, Args, 1);
  EXPECT_EQ(Args[0].Buffer->Data[0], 0xFFFFFFFFu);
  EXPECT_EQ(Args[0].Buffer->Data[1], 0xFFFFFFFFu);
  EXPECT_EQ(sim::doubleToInt64(0x1p126), INT64_MAX);
  EXPECT_EQ(sim::doubleToInt64(-0x1p64), INT64_MIN);
  EXPECT_EQ(sim::doubleToInt64(std::nan("")), 0);
  EXPECT_EQ(sim::doubleToInt64(-0x1p63), INT64_MIN);
  EXPECT_EQ(sim::doubleToInt64(-2.75), -2);
}

/// Runs a 16x16x16 v3-8 Ns driver that dies at a transfer through the
/// walker, ExecPlan::run and the threaded engine, on one SoC and one set
/// of operands, and expects the same error text (containing \p Needle)
/// and every PerfReport field to agree. \p Faults (empty: no injector)
/// and \p OutputBufferSize (0: the config's) make the run fail.
void checkFailedRunsAgree(const sim::FaultPlan &Faults,
                          int64_t OutputBufferSize,
                          const std::string &Needle) {
  MLIRContext Context;
  registerAllDialects(Context);
  OpBuilder Builder(&Context);
  func::FuncOp Func = buildMatMulFunc(Builder, 16, 16, 16, sim::ElemKind::I32);
  OwningOpRef Owner(Func.getOperation());
  parser::AcceleratorDesc Accel =
      parseSingleAccelerator(makeMatMulConfigJson(V::V3, 8, "Ns"));
  if (OutputBufferSize)
    Accel.DmaConfig.OutputBufferSize = OutputBufferSize;
  ASSERT_TRUE(lowerMatMul(Func, Level::Axirt, Accel));
  std::string Error;
  std::unique_ptr<ExecPlan> Plan = ExecPlan::compile(Func, Error);
  ASSERT_NE(Plan, nullptr) << Error;
  std::unique_ptr<DecodedPlan> Decoded = DecodedPlan::decode(*Plan);

  std::optional<sim::FaultInjector> Injector; // outlives the SoC
  auto Soc = sim::makeMatMulSoC(V::V3, 8);
  runtime::DmaRuntime Runtime(*Soc);
  std::vector<MemRefDesc> Args = {MemRefDesc::alloc({16, 16}),
                                  MemRefDesc::alloc({16, 16}),
                                  MemRefDesc::alloc({16, 16})};
  auto runOnce = [&](auto Execute, std::string &RunError) {
    for (size_t I = 0; I < Args.size(); ++I)
      fillRandom(Args[I], 31 + static_cast<uint32_t>(I));
    // A failed run leaves the accelerator mid-opcode and the engine's
    // status latched; start each run from a clean board.
    Soc->accelerator()->reset();
    Injector.emplace(Faults);
    Soc->attachFaultInjector(Faults.empty() ? nullptr : &*Injector);
    Soc->resetCounters();
    EXPECT_TRUE(failed(Execute(RunError)));
    EXPECT_NE(RunError.find(Needle), std::string::npos) << RunError;
    return Soc->report();
  };
  auto walker = [&](std::string &RunError) {
    Interpreter Walker(*Soc, &Runtime, ExecMode::Walker);
    return Walker.run(Func, Args, RunError);
  };

  std::string Ignored, WalkerError, PlanError, ThreadedError;
  runOnce(walker, Ignored); // allocator warm-up
  sim::PerfReport WalkerReport = runOnce(walker, WalkerError);
  sim::PerfReport PlanReport = runOnce(
      [&](std::string &RunError) {
        return Plan->run(*Soc, &Runtime, Args, RunError);
      },
      PlanError);
  sim::PerfReport ThreadedReport = runOnce(
      [&](std::string &RunError) {
        return Decoded->run(*Soc, &Runtime, Args, RunError);
      },
      ThreadedError);
  EXPECT_EQ(WalkerError, PlanError);
  EXPECT_EQ(WalkerError, ThreadedError);
  expectIdenticalReports(WalkerReport, PlanReport);
  expectIdenticalReports(WalkerReport, ThreadedReport);
}

/// The walker stops at the first runtime call that fails, so a failed
/// transfer start is never waited for; the plan executors must not charge
/// the wait they dispatch together with the start.
TEST(ExecPlan, FailedSendMatchesWalker) {
  sim::FaultPlan Faults;
  sim::FaultEvent Corrupt;
  Corrupt.Kind = sim::FaultKind::CorruptWord;
  Corrupt.At = 1;
  Faults.Events.push_back(Corrupt);
  Faults.Recovery.Enabled = false;
  checkFailedRunsAgree(Faults, 0, "corrupt-word");
}

TEST(ExecPlan, FailedRecvMatchesWalker) {
  // 16 output words: the first 8x8 result tile does not fit.
  checkFailedRunsAgree(sim::FaultPlan(), /*OutputBufferSize=*/0x40,
                       "recv burst exceeds the output staging region");
}

//===----------------------------------------------------------------------===//
// Golden disassembly: ExecPlan::print pinned before/after each optimizer
// pass (src/exec/opt) on one matmul and one conv driver.
//===----------------------------------------------------------------------===//

/// Asserts that \p Needles occur in \p Haystack in the given order.
void expectInOrder(const std::string &Haystack,
                   const std::vector<std::string> &Needles) {
  size_t Position = 0;
  for (const std::string &Needle : Needles) {
    size_t Found = Haystack.find(Needle, Position);
    ASSERT_NE(Found, std::string::npos)
        << "missing (in order): '" << Needle << "'\nafter offset "
        << Position << " in:\n"
        << Haystack;
    Position = Found + Needle.size();
  }
}

/// Lowers one small driver end to end (axirt level, no CPU tiling) and
/// compiles the plan. Matmul: 8x8x8 on the v3/4 As-flow accelerator.
/// Conv: 5x5x2 -> 3x3x2 on the conv2d_os engine.
std::unique_ptr<ExecPlan> compileGoldenDriver(MLIRContext &Context,
                                              OwningOpRef &Owner,
                                              bool Conv) {
  OpBuilder Builder(&Context);
  func::FuncOp Func =
      Conv ? buildConvFunc(Builder, 1, 2, 5, 2, 3, 1, sim::ElemKind::I32)
           : buildMatMulFunc(Builder, 8, 8, 8, sim::ElemKind::I32);
  Owner = OwningOpRef(Func.getOperation());
  parser::AcceleratorDesc Accel = parseSingleAccelerator(
      Conv ? makeConvConfigJson() : makeMatMulConfigJson(V::V3, 4, "As"));
  transforms::LoweringOptions Options;
  Options.EnableCpuTiling = false;
  transforms::PassManager Pipeline = transforms::buildPipeline(
      std::vector<parser::AcceleratorDesc>{Accel}, Options);
  std::string Error;
  if (failed(Pipeline.run(Func, Error))) {
    ADD_FAILURE() << Error;
    return nullptr;
  }
  auto Plan = ExecPlan::compile(Func, Error);
  EXPECT_NE(Plan, nullptr) << Error;
  return Plan;
}

opt::PlanOptOptions onlyPass(const std::string &Spec) {
  opt::PlanOptOptions Options;
  std::string Error;
  EXPECT_TRUE(succeeded(opt::parsePlanOptSpec(Spec, Options, Error)))
      << Error;
  return Options;
}

TEST(PlanDisassembly, MatMulUnoptimized) {
  MLIRContext Context;
  registerAllDialects(Context);
  OwningOpRef Owner;
  auto Plan = compileGoldenDriver(Context, Owner, /*Conv=*/false);
  ASSERT_NE(Plan, nullptr);
  expectInOrder(Plan->printToString(),
                {"plan @matmul_call args=3 slots=35 insts=41",
                 "dma_init #0",
                 "%5 = copy_literal_to_dma %4 @ %3",
                 "send end=%5 off=%3",
                 "loop %9 = [%6, %7) step %8 -> @41",
                 "loop %13 = [%10, %11) step %12 -> @40",
                 "%18 = const.i 34",
                 "%19 = copy_literal_to_dma %18 @ %17",
                 "%20 = subview %0[%9, %13] sizes=[4, 4]",
                 "%21 = copy_to_dma %20 @ %19",
                 "send end=%21 off=%17",
                 "loop %22 = [%14, %15) step %16 -> @39",
                 "%24 = const.i 35",
                 "%26 = subview %1[%13, %22] sizes=[4, 4]",
                 "%28 = const.i 240",
                 "%30 = const.i 36",
                 "send end=%31 off=%23",
                 "%32 = subview %2[%9, %22] sizes=[4, 4]",
                 "recv len=%33 off=%34",
                 "copy_from_dma %32 @ %34 accumulate",
                 "end -> @23",
                 "end -> @13",
                 "end -> @9"});
}

/// fold rewrites operand references to canonical constants without
/// moving or removing a single instruction: loop bounds, staging
/// offsets, and recv offsets all read the earliest dominating constant.
TEST(PlanDisassembly, MatMulAfterFold) {
  MLIRContext Context;
  registerAllDialects(Context);
  OwningOpRef Owner;
  auto Plan = compileGoldenDriver(Context, Owner, /*Conv=*/false);
  ASSERT_NE(Plan, nullptr);
  opt::PlanOptStats Stats = opt::optimizePlan(*Plan, onlyPass("fold"));
  EXPECT_EQ(Stats.FoldedOperands, 5u);
  EXPECT_FALSE(Stats.changedCounters());
  EXPECT_EQ(Stats.RemovedUnchargedInsts, 0u);
  expectInOrder(Plan->printToString(),
                {"plan @matmul_call args=3 slots=35 insts=41",
                 "loop %9 = [%3, %7) step %8 -> @41",
                 "%19 = copy_literal_to_dma %18 @ %14",
                 "send end=%21 off=%14",
                 "recv len=%33 off=%23",
                 "copy_from_dma %32 @ %23 accumulate"});
}

/// Every constant in this driver is read, so dce finds nothing: the
/// disassembly must be byte-identical to the unoptimized plan. Same for
/// coalesce — the As-flow v3 driver has no send adjacency or
/// single-trip loops.
TEST(PlanDisassembly, MatMulDceAndCoalesceAreNoOps) {
  MLIRContext Context;
  registerAllDialects(Context);
  OwningOpRef Owner;
  auto Plan = compileGoldenDriver(Context, Owner, /*Conv=*/false);
  ASSERT_NE(Plan, nullptr);
  std::string Before = Plan->printToString();

  opt::PlanOptStats Stats = opt::optimizePlan(*Plan, onlyPass("dce"));
  EXPECT_EQ(Stats.total(), 0u);
  EXPECT_EQ(Plan->printToString(), Before);

  Stats = opt::optimizePlan(*Plan, onlyPass("coalesce"));
  EXPECT_EQ(Stats.total(), 0u);
  EXPECT_EQ(Plan->printToString(), Before);
}

/// licm drains the loop-invariant constants into the preheader and
/// hoists the sB-opcode staging literal (charged) out of the inner loop;
/// the IV-dependent subviews and copies must stay put.
TEST(PlanDisassembly, MatMulAfterLicm) {
  MLIRContext Context;
  registerAllDialects(Context);
  OwningOpRef Owner;
  auto Plan = compileGoldenDriver(Context, Owner, /*Conv=*/false);
  ASSERT_NE(Plan, nullptr);
  opt::PlanOptStats Stats = opt::optimizePlan(*Plan, onlyPass("licm"));
  EXPECT_EQ(Stats.HoistedUnchargedInsts, 31u);
  EXPECT_EQ(Stats.HoistedChargedInsts, 1u);
  EXPECT_TRUE(Stats.changedCounters());
  expectInOrder(Plan->printToString(),
                {"plan @matmul_call args=3 slots=35 insts=41",
                 // Preheader: all loop constants, deepest last.
                 "%18 = const.i 34", "%24 = const.i 35",
                 "%28 = const.i 240", "%30 = const.i 36",
                 "%33 = const.i 16",
                 // Then the loop nest with only the real work inside.
                 "loop %9 = [%6, %7) step %8",
                 "loop %13 = [%10, %11) step %12",
                 "%19 = copy_literal_to_dma %18 @ %17",
                 "%20 = subview %0[%9, %13] sizes=[4, 4]",
                 "send end=%21 off=%17",
                 // The hoisted charged staging literal sits between the
                 // middle loop header and the inner loop.
                 "%25 = copy_literal_to_dma %24 @ %23",
                 "loop %22 = [%14, %15) step %16",
                 "%26 = subview %1[%13, %22] sizes=[4, 4]",
                 "send end=%31 off=%23",
                 "copy_from_dma %32 @ %34 accumulate"});
}

/// The full pipeline composes fold + licm, then dce deletes the
/// constants made dead by folding: 41 -> 31 instructions.
TEST(PlanDisassembly, MatMulAfterFullPipeline) {
  MLIRContext Context;
  registerAllDialects(Context);
  OwningOpRef Owner;
  auto Plan = compileGoldenDriver(Context, Owner, /*Conv=*/false);
  ASSERT_NE(Plan, nullptr);
  opt::PlanOptStats Stats =
      opt::optimizePlan(*Plan, opt::PlanOptOptions::all());
  EXPECT_EQ(Stats.FoldedOperands, 17u);
  EXPECT_EQ(Stats.RemovedUnchargedInsts, 10u);
  EXPECT_EQ(Stats.HoistedUnchargedInsts, 31u);
  EXPECT_EQ(Stats.HoistedChargedInsts, 1u);
  expectInOrder(Plan->printToString(),
                {"plan @matmul_call args=3 slots=35 insts=31",
                 "send end=%5 off=%3",
                 "%33 = const.i 16",
                 "loop %9 = [%3, %7) step %8 -> @31",
                 "loop %13 = [%3, %7) step %8 -> @30",
                 "%19 = copy_literal_to_dma %18 @ %3",
                 "send end=%21 off=%3",
                 "%25 = copy_literal_to_dma %24 @ %3",
                 "loop %22 = [%3, %7) step %8 -> @29",
                 "send end=%31 off=%3",
                 "recv len=%33 off=%3",
                 "copy_from_dma %32 @ %3 accumulate"});
}

TEST(PlanDisassembly, ConvUnoptimized) {
  MLIRContext Context;
  registerAllDialects(Context);
  OwningOpRef Owner;
  auto Plan = compileGoldenDriver(Context, Owner, /*Conv=*/true);
  ASSERT_NE(Plan, nullptr);
  expectInOrder(Plan->printToString(),
                {"plan @conv_call args=3 slots=48 insts=55",
                 "dma_init #0",
                 // cfg group: four chained literals, one send.
                 "%5 = copy_literal_to_dma %4 @ %3",
                 "%7 = copy_literal_to_dma %6 @ %5",
                 "%9 = copy_literal_to_dma %8 @ %7",
                 "%11 = copy_literal_to_dma %10 @ %9",
                 "send end=%11 off=%3",
                 // Output-channel loop: weights sent once per filter.
                 "loop %15 = [%12, %13) step %14 -> @55",
                 "%25 = subview %1[%15, %22, %23, %24] sizes=[1, 2, 3, 3]",
                 "send end=%26 off=%19",
                 // Spatial loops streaming input windows.
                 "loop %27 = [%16, %17) step %18 -> @42",
                 "loop %31 = [%28, %29) step %30 -> @41",
                 "%37 = subview %0[%35, %36, %27, %31] sizes=[1, 2, 3, 3]",
                 "send end=%38 off=%32",
                 "end -> @32", "end -> @28",
                 "recv len=%46 off=%47",
                 "copy_from_dma %45 @ %47 accumulate",
                 "end -> @15"});
}

/// Per-pass stats pins on the conv driver; dce and coalesce leave it
/// untouched, fold and licm each fire without changing the other's
/// domain.
TEST(PlanDisassembly, ConvPerPassStats) {
  MLIRContext Context;
  registerAllDialects(Context);

  struct Expectation {
    const char *Spec;
    size_t Folded, RemovedU, HoistedU, HoistedC;
  } Cases[] = {
      {"fold", 21, 0, 0, 0},
      {"dce", 0, 0, 0, 0},
      {"licm", 0, 0, 33, 2},
      {"coalesce", 0, 0, 0, 0},
  };
  for (const Expectation &E : Cases) {
    SCOPED_TRACE(E.Spec);
    OwningOpRef Owner;
    auto Plan = compileGoldenDriver(Context, Owner, /*Conv=*/true);
    ASSERT_NE(Plan, nullptr);
    std::string Before = Plan->printToString();
    opt::PlanOptStats Stats = opt::optimizePlan(*Plan, onlyPass(E.Spec));
    EXPECT_EQ(Stats.FoldedOperands, E.Folded);
    EXPECT_EQ(Stats.RemovedUnchargedInsts, E.RemovedU);
    EXPECT_EQ(Stats.HoistedUnchargedInsts, E.HoistedU);
    EXPECT_EQ(Stats.HoistedChargedInsts, E.HoistedC);
    EXPECT_EQ(Stats.RemovedChargedInsts, 0u);
    EXPECT_EQ(Stats.CoalescedSends, 0u);
    if (Stats.total() == 0) {
      EXPECT_EQ(Plan->printToString(), Before);
    }
  }
}

TEST(PlanDisassembly, ConvAfterFullPipeline) {
  MLIRContext Context;
  registerAllDialects(Context);
  OwningOpRef Owner;
  auto Plan = compileGoldenDriver(Context, Owner, /*Conv=*/true);
  ASSERT_NE(Plan, nullptr);
  opt::PlanOptStats Stats =
      opt::optimizePlan(*Plan, opt::PlanOptOptions::all());
  EXPECT_EQ(Stats.FoldedOperands, 47u);
  EXPECT_EQ(Stats.RemovedUnchargedInsts, 21u);
  EXPECT_EQ(Stats.HoistedUnchargedInsts, 33u);
  EXPECT_EQ(Stats.HoistedChargedInsts, 2u);
  expectInOrder(Plan->printToString(),
                {"plan @conv_call args=3 slots=48 insts=34",
                 "send end=%11 off=%3",
                 "loop %15 = [%3, %10) step %14 -> @34",
                 // Weight staging (IV-dependent) stays in the oC loop...
                 "%25 = subview %1[%15, %3, %3, %3] sizes=[1, 2, 3, 3]",
                 "send end=%26 off=%3",
                 // ...with the rC-opcode literal hoisted above the
                 // spatial nest.
                 "%34 = copy_literal_to_dma %33 @ %3",
                 "loop %27 = [%3, %6) step %14 -> @28",
                 "loop %31 = [%3, %6) step %14 -> @27",
                 "%37 = subview %0[%3, %3, %27, %31] sizes=[1, 2, 3, 3]",
                 "send end=%38 off=%3",
                 "recv len=%46 off=%3",
                 "copy_from_dma %45 @ %3 accumulate"});
}

//===----------------------------------------------------------------------===//
// Golden disassembly of the pre-decoded (dispatch-ready) form: the
// threaded engine's view of the same programs. Shared opcodes print with
// the plan-interpreter mnemonics; specialized linalg.generic sites print
// their bound micro-kernel.
//===----------------------------------------------------------------------===//

TEST(DecodedDisassembly, AxirtMatMulDriver) {
  MLIRContext Context;
  registerAllDialects(Context);
  OwningOpRef Owner;
  auto Plan = compileGoldenDriver(Context, Owner, /*Conv=*/false);
  ASSERT_NE(Plan, nullptr);
  auto Decoded = DecodedPlan::decode(*Plan);
  ASSERT_NE(Decoded, nullptr);
  // Fully lowered driver: no linalg.generic left, so no kernels bind;
  // the program is the plan's 41 instructions plus the return sentinel.
  EXPECT_EQ(Decoded->numSpecializedKernels(), 0u);
  expectInOrder(Decoded->printToString(),
                {"dplan @matmul_call args=3 slots=35 insts=41+ret kernels=0",
                 "  0: dma_init #0",
                 "  3: %5 = copy_literal_to_dma %4 @ %3",
                 "  4: send end=%5 off=%3",
                 "  8: loop %9 = [%6, %7) step %8 -> @41",
                 " 12: loop %13 = [%10, %11) step %12 -> @40",
                 " 19: %20 = subview %0[%9, %13] sizes=[4, 4]",
                 " 21: send end=%21 off=%17",
                 " 22: loop %22 = [%14, %15) step %16 -> @39",
                 " 36: recv len=%33 off=%34",
                 " 37: copy_from_dma %32 @ %34 accumulate",
                 " 38: end -> @23",
                 " 39: end -> @13",
                 " 40: end -> @9",
                 " 41: ret"});
}

TEST(DecodedDisassembly, CpuMatMulBindsMulAddKernel) {
  MLIRContext Context;
  registerAllDialects(Context);
  OpBuilder Builder(&Context);
  func::FuncOp Func = buildMatMulFunc(Builder, 4, 4, 4, sim::ElemKind::I32);
  OwningOpRef Owner(Func.getOperation());
  std::string Error;
  ASSERT_TRUE(succeeded(transforms::convertNamedToGeneric(Func, Error)))
      << Error;
  auto Plan = ExecPlan::compile(Func, Error);
  ASSERT_NE(Plan, nullptr) << Error;
  auto Decoded = DecodedPlan::decode(*Plan);
  EXPECT_EQ(Decoded->numSpecializedKernels(), 1u);
  EXPECT_EQ(Decoded->printToString(),
            "dplan @matmul_call args=3 slots=8 insts=1+ret kernels=1\n"
            "    0: generic.muladd ranges=[4, 4, 4] operands=[%0, %1, %2]\n"
            "    1: ret\n");
}

TEST(DecodedDisassembly, CpuConvBindsMulAddKernel) {
  MLIRContext Context;
  registerAllDialects(Context);
  OpBuilder Builder(&Context);
  func::FuncOp Func =
      buildConvFunc(Builder, 1, 2, 5, 2, 3, 1, sim::ElemKind::I32);
  OwningOpRef Owner(Func.getOperation());
  std::string Error;
  ASSERT_TRUE(succeeded(transforms::convertNamedToGeneric(Func, Error)))
      << Error;
  auto Plan = ExecPlan::compile(Func, Error);
  ASSERT_NE(Plan, nullptr) << Error;
  auto Decoded = DecodedPlan::decode(*Plan);
  // Conv's strided input map (d2*s+d5) is linear in the loop dims, so
  // the same mul+add kernel binds as for matmul.
  EXPECT_EQ(Decoded->numSpecializedKernels(), 1u);
  EXPECT_EQ(Decoded->printToString(),
            "dplan @conv_call args=3 slots=8 insts=1+ret kernels=1\n"
            "    0: generic.muladd ranges=[1, 2, 3, 3, 2, 3, 3] "
            "operands=[%0, %1, %2]\n"
            "    1: ret\n");
}

/// The Interpreter runs the threaded engine unless told otherwise.
TEST(DecodedDisassembly, InterpreterDefaultsToThreaded) {
  auto Soc = sim::makeCpuOnlySoC();
  Interpreter Interp(*Soc, nullptr);
  EXPECT_EQ(Interp.execMode(), ExecMode::Threaded);
}

} // namespace
