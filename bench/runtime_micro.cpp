//===- runtime_micro.cpp - google-benchmark runtime microbenchmarks -------===//
//
// Part of the AXI4MLIR reproduction. MIT licensed.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Wall-clock microbenchmarks (google-benchmark) of the simulator-side
/// primitives: staging copies (generic vs specialized), the cache
/// simulator, the accelerator state machines, the executors and the
/// static plan verifier. These measure the reproduction's own
/// performance, complementing the modeled task-clock numbers of the
/// figure benches.
///
//===----------------------------------------------------------------------===//

#include "analysis/PlanVerifier.h"
#include "analysis/ProtocolModel.h"
#include "dialects/InitAllDialects.h"
#include "exec/AccelConfigs.h"
#include "exec/ExecPlan.h"
#include "exec/ExecPlanRun.h"
#include "exec/Interpreter.h"
#include "exec/Pipeline.h"
#include "exec/Reference.h"
#include "exec/opt/PlanOpt.h"
#include "runtime/DmaRuntime.h"
#include "sim/SoC.h"
#include "transforms/Passes.h"

#include <benchmark/benchmark.h>

using namespace axi4mlir;
using namespace axi4mlir::sim;
using runtime::MemRefDesc;

namespace {

void BM_CopyToDmaGeneric(benchmark::State &State) {
  auto Soc = makeMatMulSoC(MatMulAccelerator::Version::V3, 16);
  runtime::DmaRuntime Runtime(*Soc, /*SpecializeCopies=*/false);
  accel::DmaInitConfig Config;
  Config.InputBufferSize = 1 << 20;
  Config.OutputBufferSize = 1 << 20;
  Runtime.dmaInit(Config);
  MemRefDesc Full = MemRefDesc::alloc({256, 256});
  MemRefDesc Tile = Full.subview({8, 8}, {State.range(0), State.range(0)});
  for (auto _ : State)
    benchmark::DoNotOptimize(Runtime.copyToDmaRegion(Tile, 0));
  State.SetItemsProcessed(State.iterations() * State.range(0) *
                          State.range(0));
}

void BM_CopyToDmaSpecialized(benchmark::State &State) {
  auto Soc = makeMatMulSoC(MatMulAccelerator::Version::V3, 16);
  runtime::DmaRuntime Runtime(*Soc, /*SpecializeCopies=*/true);
  accel::DmaInitConfig Config;
  Config.InputBufferSize = 1 << 20;
  Config.OutputBufferSize = 1 << 20;
  Runtime.dmaInit(Config);
  MemRefDesc Full = MemRefDesc::alloc({256, 256});
  MemRefDesc Tile = Full.subview({8, 8}, {State.range(0), State.range(0)});
  for (auto _ : State)
    benchmark::DoNotOptimize(Runtime.copyToDmaRegion(Tile, 0));
  State.SetItemsProcessed(State.iterations() * State.range(0) *
                          State.range(0));
}

/// Operand set-up: one square i32 operand filled by exec::fillRandom.
void BM_FillRandom(benchmark::State &State) {
  MemRefDesc A = MemRefDesc::alloc({State.range(0), State.range(0)});
  uint32_t Seed = 1;
  for (auto _ : State) {
    benchmark::DoNotOptimize(Seed);
    exec::fillRandom(A, Seed);
    benchmark::DoNotOptimize(A.Buffer->Data.data());
    benchmark::ClobberMemory();
  }
  State.SetItemsProcessed(State.iterations() * State.range(0) *
                          State.range(0));
}

/// The fixed DMA set-up of a job attempt: dma_init of the 256 KB regions
/// the matmul configs map, then one 16x16 staging copy and its send.
void BM_DmaInitAndTile(benchmark::State &State) {
  auto Soc = makeMatMulSoC(MatMulAccelerator::Version::V3, 16);
  runtime::DmaRuntime Runtime(*Soc);
  accel::DmaInitConfig Config;
  Config.InputBufferSize = 0x40000;
  Config.OutputBufferSize = 0x40000;
  MemRefDesc A = MemRefDesc::alloc({16, 16});
  exec::fillRandom(A, 1);
  for (auto _ : State) {
    Runtime.dmaInit(Config);
    int64_t Off = Runtime.copyLiteralToDmaRegion(opcodes::MM_SA, 0);
    Off = Runtime.copyToDmaRegion(A, Off);
    benchmark::DoNotOptimize(Runtime.dmaStartSend(Off, 0));
    Runtime.dmaWaitSendCompletion();
  }
}

void BM_CacheSimAccess(benchmark::State &State) {
  SoCParams Params;
  CacheSim Cache(Params);
  uint64_t Address = 0;
  for (auto _ : State) {
    benchmark::DoNotOptimize(Cache.access(Address, 4));
    Address += 64;
  }
}

/// One full v1 tile through the production burst datapath (what the DMA
/// engine drives): opcode + A|B burst in, C tile drained out.
void BM_MatMulAcceleratorTile(benchmark::State &State) {
  SoCParams Params;
  MatMulAccelerator Accel(MatMulAccelerator::Version::V1, State.range(0),
                          ElemKind::I32, Params);
  int64_t Words = 2 * State.range(0) * State.range(0);
  std::vector<uint32_t> Stream(static_cast<size_t>(Words) + 1, 1);
  Stream[0] = opcodes::MM_SASBCCRC;
  std::vector<uint32_t> Out(
      static_cast<size_t>(State.range(0) * State.range(0)));
  for (auto _ : State) {
    Accel.consumeBurst(Stream.data(), Stream.size());
    benchmark::DoNotOptimize(Accel.drainOutputInto(Out.data(), Out.size()));
    Accel.takeComputeCycles();
  }
  State.SetItemsProcessed(State.iterations() * State.range(0) *
                          State.range(0) * State.range(0));
}

/// The same tile delivered word by word (one-word bursts), kept
/// measurable so the ingest loop's per-burst overhead stays visible.
void BM_MatMulAcceleratorTileWordwise(benchmark::State &State) {
  SoCParams Params;
  MatMulAccelerator Accel(MatMulAccelerator::Version::V1, State.range(0),
                          ElemKind::I32, Params);
  int64_t Words = 2 * State.range(0) * State.range(0);
  std::vector<uint32_t> Out(
      static_cast<size_t>(State.range(0) * State.range(0)));
  for (auto _ : State) {
    Accel.consumeWord(opcodes::MM_SASBCCRC);
    for (int64_t I = 0; I < Words; ++I)
      Accel.consumeWord(1);
    benchmark::DoNotOptimize(Accel.drainOutputInto(Out.data(), Out.size()));
    Accel.takeComputeCycles();
  }
  State.SetItemsProcessed(State.iterations() * State.range(0) *
                          State.range(0) * State.range(0));
}

/// One conv output slice through the burst datapath: configure, load a
/// filter, stream State.range(0) windows, drain the slice.
void BM_ConvAcceleratorTile(benchmark::State &State) {
  SoCParams Params;
  ConvAccelerator Accel(ElemKind::I32, Params);
  constexpr int64_t InChannels = 8, FilterSize = 3;
  const size_t WindowWords = InChannels * FilterSize * FilterSize;
  int64_t Windows = State.range(0);

  std::vector<uint32_t> Cfg = {opcodes::CONV_SET_FS,
                               static_cast<uint32_t>(FilterSize),
                               opcodes::CONV_SET_IC,
                               static_cast<uint32_t>(InChannels)};
  Accel.consumeBurst(Cfg.data(), Cfg.size());

  // Filter burst + all window bursts + the emit opcode as one stream.
  std::vector<uint32_t> Stream;
  Stream.push_back(opcodes::CONV_SF);
  Stream.insert(Stream.end(), WindowWords, 2);
  for (int64_t W = 0; W < Windows; ++W) {
    Stream.push_back(opcodes::CONV_SICO);
    Stream.insert(Stream.end(), WindowWords, 3);
  }
  Stream.push_back(opcodes::CONV_RO);
  std::vector<uint32_t> Out(static_cast<size_t>(Windows));
  for (auto _ : State) {
    Accel.consumeBurst(Stream.data(), Stream.size());
    benchmark::DoNotOptimize(Accel.drainOutputInto(Out.data(), Out.size()));
    Accel.takeComputeCycles();
  }
  State.SetItemsProcessed(State.iterations() * Windows * WindowWords);
}

//===----------------------------------------------------------------------===//
// Host interpreter: the tree walker (the compiled executors are timed by
// the BM_ExecPlan* benches below on the same functions)
//===----------------------------------------------------------------------===//

/// CPU-level linalg.generic matmul (the mlir_CPU baseline): every point of
/// the M*N*K space runs through the executor, so executor overhead
/// dominates. The IR is built and lowered once.
void BM_InterpretMatMulCpuWalker(benchmark::State &State) {
  int64_t Dims = State.range(0);
  MLIRContext Context;
  registerAllDialects(Context);
  OpBuilder Builder(&Context);
  func::FuncOp Func =
      exec::buildMatMulFunc(Builder, Dims, Dims, Dims, ElemKind::I32);
  OwningOpRef Owner(Func.getOperation());
  std::string Error;
  if (failed(transforms::convertNamedToGeneric(Func, Error))) {
    State.SkipWithError(Error.c_str());
    return;
  }

  auto Soc = makeCpuOnlySoC();
  MemRefDesc A = MemRefDesc::alloc({Dims, Dims});
  MemRefDesc B = MemRefDesc::alloc({Dims, Dims});
  MemRefDesc C = MemRefDesc::alloc({Dims, Dims});
  exec::fillRandom(A, 1);
  exec::fillRandom(B, 2);
  exec::fillRandom(C, 3);

  exec::Interpreter Interp(*Soc, nullptr, exec::ExecMode::Walker);
  for (auto _ : State) {
    Soc->resetCounters();
    if (failed(Interp.run(Func, {A, B, C}, Error))) {
      State.SkipWithError(Error.c_str());
      break;
    }
  }
  State.SetItemsProcessed(State.iterations() * Dims * Dims * Dims);
}

/// Shared fixture for the axirt-level benches: one matmul func lowered
/// through the full pipeline to axirt.* calls, plus the simulated board
/// and filled argument buffers. Keeping this in one place guarantees the
/// walker/plan/threaded/plan-opt variants all measure the same pipeline.
struct AxirtMatMulFixture {
  MLIRContext Context;
  OwningOpRef Owner;
  func::FuncOp Func;
  std::unique_ptr<SoC> Soc;
  std::unique_ptr<runtime::DmaRuntime> Runtime;
  MemRefDesc A, B, C;

  /// Returns false (after SkipWithError) on a pipeline failure.
  bool init(benchmark::State &State, const char *Flow = "Ns",
            MatMulAccelerator::Version Version =
                MatMulAccelerator::Version::V3) {
    int64_t Dims = State.range(0);
    registerAllDialects(Context);
    OpBuilder Builder(&Context);
    Func = exec::buildMatMulFunc(Builder, Dims, Dims, Dims, ElemKind::I32);
    Owner = OwningOpRef(Func.getOperation());
    parser::AcceleratorDesc Accel = exec::parseSingleAccelerator(
        exec::makeMatMulConfigJson(Version, 16, Flow));
    std::string Error;
    transforms::LoweringOptions Options;
    Options.EnableCpuTiling = false;
    if (failed(transforms::convertNamedToGeneric(Func, Error)) ||
        failed(transforms::matchAndAnnotate(Func, Accel, Error)) ||
        failed(transforms::lowerToAccel(Func, Options, Error)) ||
        failed(transforms::convertAccelToRuntime(Func, Error))) {
      State.SkipWithError(Error.c_str());
      return false;
    }
    Soc = makeMatMulSoC(Version, 16);
    Runtime =
        std::make_unique<runtime::DmaRuntime>(*Soc, /*SpecializeCopies=*/true);
    A = MemRefDesc::alloc({Dims, Dims});
    B = MemRefDesc::alloc({Dims, Dims});
    C = MemRefDesc::alloc({Dims, Dims});
    exec::fillRandom(A, 1);
    exec::fillRandom(B, 2);
    exec::fillRandom(C, 3);
    return true;
  }
};

/// Fully lowered axirt form: scf loop nests driving batched DMA staging
/// copies — the host-driver hot path the paper measures (Sec. IV-B).
void BM_InterpretMatMulAxirtWalker(benchmark::State &State) {
  AxirtMatMulFixture F;
  if (!F.init(State))
    return;
  std::string Error;
  exec::Interpreter Interp(*F.Soc, F.Runtime.get(), exec::ExecMode::Walker);
  for (auto _ : State) {
    F.Soc->resetCounters();
    if (failed(Interp.run(F.Func, {F.A, F.B, F.C}, Error))) {
      State.SkipWithError(Error.c_str());
      break;
    }
  }
  State.SetItemsProcessed(State.iterations() * State.range(0) *
                          State.range(0) * State.range(0));
}

/// The axirt-lowered matmul executed by the plan interpreter
/// (ExecPlan::run). Registered under its historical name so the committed
/// baselines keep gating it.
void BM_ExecPlanAxirtFused(benchmark::State &State) {
  AxirtMatMulFixture F;
  if (!F.init(State))
    return;
  std::string Error;
  auto Plan = exec::ExecPlan::compile(F.Func, Error);
  if (!Plan) {
    State.SkipWithError(Error.c_str());
    return;
  }
  for (auto _ : State) {
    F.Soc->resetCounters();
    if (failed(Plan->run(*F.Soc, F.Runtime.get(), {F.A, F.B, F.C}, Error))) {
      State.SkipWithError(Error.c_str());
      break;
    }
  }
  State.SetItemsProcessed(State.iterations() * State.range(0) *
                          State.range(0) * State.range(0));
}

/// Plan-optimizer ablation (src/exec/opt): the A-stationary driver — the
/// data-stationary Fig. 11/12 flow with the most hoistable staging — run
/// from the unoptimized plan vs. the full fold+licm+coalesce+dce
/// pipeline. Wall-clock measures the host-dispatch saving; the modeled
/// counters are exported alongside so record_bench.sh captures the
/// ablation (instruction and DMA-transfer reduction) in
/// BENCH_runtime_micro.json.
void interpretMatMulAxirtPlanOpt(benchmark::State &State,
                                 const char *Spec) {
  AxirtMatMulFixture F;
  if (!F.init(State, /*Flow=*/"As", MatMulAccelerator::Version::V4))
    return;
  std::string Error;
  auto Plan = exec::ExecPlan::compile(F.Func, Error);
  if (!Plan) {
    State.SkipWithError(Error.c_str());
    return;
  }
  exec::opt::PlanOptOptions Options;
  if (failed(exec::opt::parsePlanOptSpec(Spec, Options, Error))) {
    State.SkipWithError(Error.c_str());
    return;
  }
  exec::opt::PlanOptStats Stats = exec::opt::optimizePlan(*Plan, Options);
  for (auto _ : State) {
    F.Soc->resetCounters();
    if (failed(Plan->run(*F.Soc, F.Runtime.get(), {F.A, F.B, F.C}, Error))) {
      State.SkipWithError(Error.c_str());
      break;
    }
  }
  PerfReport Report = F.Soc->report();
  State.counters["modeled_insts"] =
      static_cast<double>(Report.Instructions);
  State.counters["modeled_dma_transfers"] =
      static_cast<double>(Report.DmaTransfers);
  State.counters["opt_rewrites"] = static_cast<double>(Stats.total());
  State.SetItemsProcessed(State.iterations() * State.range(0) *
                          State.range(0) * State.range(0));
}

void BM_ExecPlanAxirtPlanOptNone(benchmark::State &State) {
  interpretMatMulAxirtPlanOpt(State, "none");
}
void BM_ExecPlanAxirtOptimized(benchmark::State &State) {
  interpretMatMulAxirtPlanOpt(State, "fold,dce,licm,coalesce");
}

//===----------------------------------------------------------------------===//
// Threaded-dispatch executor ablation: the same compiled plan run through
// the PR-3 plan interpreter (one switch per instruction, generic odometer)
// vs. the pre-decoded threaded engine (computed-goto dispatch, specialized
// micro-kernels). Modeled counters are bit-identical by contract
// (PlanEquivalenceFuzzTest); the delta is pure host wall-clock.
//===----------------------------------------------------------------------===//

/// CPU-path matmul: one linalg.generic, M*N*K points through the
/// executor — the odometer-vs-specialized-kernel comparison.
void execPlanCpuMatMul(benchmark::State &State, bool Threaded) {
  int64_t Dims = State.range(0);
  MLIRContext Context;
  registerAllDialects(Context);
  OpBuilder Builder(&Context);
  func::FuncOp Func =
      exec::buildMatMulFunc(Builder, Dims, Dims, Dims, ElemKind::I32);
  OwningOpRef Owner(Func.getOperation());
  std::string Error;
  if (failed(transforms::convertNamedToGeneric(Func, Error))) {
    State.SkipWithError(Error.c_str());
    return;
  }
  auto Plan = exec::ExecPlan::compile(Func, Error);
  if (!Plan) {
    State.SkipWithError(Error.c_str());
    return;
  }
  auto Decoded = exec::DecodedPlan::decode(*Plan);

  auto Soc = makeCpuOnlySoC();
  MemRefDesc A = MemRefDesc::alloc({Dims, Dims});
  MemRefDesc B = MemRefDesc::alloc({Dims, Dims});
  MemRefDesc C = MemRefDesc::alloc({Dims, Dims});
  exec::fillRandom(A, 1);
  exec::fillRandom(B, 2);
  exec::fillRandom(C, 3);

  for (auto _ : State) {
    Soc->resetCounters();
    LogicalResult Result =
        Threaded ? Decoded->run(*Soc, nullptr, {A, B, C}, Error)
                 : Plan->run(*Soc, nullptr, {A, B, C}, Error);
    if (failed(Result)) {
      State.SkipWithError(Error.c_str());
      break;
    }
  }
  State.counters["specialized_kernels"] =
      static_cast<double>(Decoded->numSpecializedKernels());
  State.SetItemsProcessed(State.iterations() * Dims * Dims * Dims);
}

void BM_ExecPlanCpuMatMul(benchmark::State &State) {
  execPlanCpuMatMul(State, /*Threaded=*/false);
}
void BM_ExecPlanCpuMatMulThreaded(benchmark::State &State) {
  execPlanCpuMatMul(State, /*Threaded=*/true);
}

/// CPU-path conv2d: the strided input map exercises the linear-fold
/// indexing (d2*s + d5) in the specialized kernel.
void execPlanCpuConv(benchmark::State &State, bool Threaded) {
  int64_t HW = State.range(0);
  MLIRContext Context;
  registerAllDialects(Context);
  OpBuilder Builder(&Context);
  func::FuncOp Func =
      exec::buildConvFunc(Builder, 1, 4, HW, 4, 3, 1, ElemKind::I32);
  OwningOpRef Owner(Func.getOperation());
  std::string Error;
  if (failed(transforms::convertNamedToGeneric(Func, Error))) {
    State.SkipWithError(Error.c_str());
    return;
  }
  auto Plan = exec::ExecPlan::compile(Func, Error);
  if (!Plan) {
    State.SkipWithError(Error.c_str());
    return;
  }
  auto Decoded = exec::DecodedPlan::decode(*Plan);

  auto Soc = makeCpuOnlySoC();
  int64_t OutHW = HW - 3 + 1;
  MemRefDesc In = MemRefDesc::alloc({1, 4, HW, HW});
  MemRefDesc Filter = MemRefDesc::alloc({4, 4, 3, 3});
  MemRefDesc Out = MemRefDesc::alloc({1, 4, OutHW, OutHW});
  exec::fillRandom(In, 1);
  exec::fillRandom(Filter, 2);
  exec::fillRandom(Out, 3);

  for (auto _ : State) {
    Soc->resetCounters();
    LogicalResult Result =
        Threaded ? Decoded->run(*Soc, nullptr, {In, Filter, Out}, Error)
                 : Plan->run(*Soc, nullptr, {In, Filter, Out}, Error);
    if (failed(Result)) {
      State.SkipWithError(Error.c_str());
      break;
    }
  }
  State.SetItemsProcessed(State.iterations() * 4 * OutHW * OutHW * 4 * 3 *
                          3);
}

void BM_ExecPlanCpuConv(benchmark::State &State) {
  execPlanCpuConv(State, /*Threaded=*/false);
}
void BM_ExecPlanCpuConvThreaded(benchmark::State &State) {
  execPlanCpuConv(State, /*Threaded=*/true);
}

/// Axirt-path threaded run (the DMA-heavy driver): dispatch is a smaller
/// share here, so the gain is bounded by the runtime-call work.
void BM_ExecPlanAxirtThreaded(benchmark::State &State) {
  AxirtMatMulFixture F;
  if (!F.init(State))
    return;
  std::string Error;
  auto Plan = exec::ExecPlan::compile(F.Func, Error);
  if (!Plan) {
    State.SkipWithError(Error.c_str());
    return;
  }
  auto Decoded = exec::DecodedPlan::decode(*Plan);
  for (auto _ : State) {
    F.Soc->resetCounters();
    if (failed(Decoded->run(*F.Soc, F.Runtime.get(), {F.A, F.B, F.C},
                            Error))) {
      State.SkipWithError(Error.c_str());
      break;
    }
  }
  State.SetItemsProcessed(State.iterations() * State.range(0) *
                          State.range(0) * State.range(0));
}

/// Plan compilation itself (paid once per function, amortized over runs).
void BM_ExecPlanCompile(benchmark::State &State) {
  int64_t Dims = State.range(0);
  MLIRContext Context;
  registerAllDialects(Context);
  OpBuilder Builder(&Context);
  func::FuncOp Func =
      exec::buildMatMulFunc(Builder, Dims, Dims, Dims, ElemKind::I32);
  OwningOpRef Owner(Func.getOperation());
  std::string Error;
  if (failed(transforms::convertNamedToGeneric(Func, Error))) {
    State.SkipWithError(Error.c_str());
    return;
  }
  for (auto _ : State)
    benchmark::DoNotOptimize(exec::ExecPlan::compile(Func, Error));
}

/// Static verification of a 3x3 conv driver (6x6 input plane, 8 output
/// channels, range(0) input channels) with the accelerator's protocol
/// model: every staged window (9 * range(0) words) is replayed against the
/// model. The cost should follow the plan's size, not the window's.
void BM_VerifyPlanConv(benchmark::State &State) {
  MLIRContext Context;
  registerAllDialects(Context);
  OpBuilder Builder(&Context);
  func::FuncOp Func = exec::buildConvFunc(Builder, 1, State.range(0), 6, 8,
                                          3, 1, ElemKind::I32);
  OwningOpRef Owner(Func.getOperation());
  parser::AcceleratorDesc Accel =
      exec::parseSingleAccelerator(exec::makeConvConfigJson());
  std::string Error;
  transforms::LoweringOptions Options;
  Options.EnableCpuTiling = false;
  if (failed(transforms::buildPipeline(Accel, Options).run(Func, Error))) {
    State.SkipWithError(Error.c_str());
    return;
  }
  auto Plan = exec::ExecPlan::compile(Func, Error);
  auto Model = analysis::ProtocolModel::forAccelerator(Accel, Error);
  if (!Plan || failed(Model)) {
    State.SkipWithError(Error.c_str());
    return;
  }
  analysis::VerifyOptions Verify;
  Verify.Model = &*Model;
  for (auto _ : State)
    benchmark::DoNotOptimize(analysis::verifyPlan(*Plan, Verify));
}

} // namespace

BENCHMARK(BM_CopyToDmaGeneric)->Arg(8)->Arg(16)->Arg(64);
BENCHMARK(BM_CopyToDmaSpecialized)->Arg(8)->Arg(16)->Arg(64);
BENCHMARK(BM_FillRandom)->Arg(32)->Arg(64);
BENCHMARK(BM_DmaInitAndTile);
BENCHMARK(BM_CacheSimAccess);
BENCHMARK(BM_MatMulAcceleratorTile)->Arg(4)->Arg(8)->Arg(16);
BENCHMARK(BM_MatMulAcceleratorTileWordwise)->Arg(4)->Arg(8)->Arg(16);
BENCHMARK(BM_ConvAcceleratorTile)->Arg(4)->Arg(16);
BENCHMARK(BM_InterpretMatMulCpuWalker)->Arg(16)->Arg(32);
BENCHMARK(BM_InterpretMatMulAxirtWalker)->Arg(32)->Arg(64);
BENCHMARK(BM_ExecPlanCpuMatMul)->Arg(16)->Arg(32);
BENCHMARK(BM_ExecPlanCpuMatMulThreaded)->Arg(16)->Arg(32);
BENCHMARK(BM_ExecPlanCpuConv)->Arg(16)->Arg(32);
BENCHMARK(BM_ExecPlanCpuConvThreaded)->Arg(16)->Arg(32);
BENCHMARK(BM_ExecPlanAxirtFused)->Arg(64);
BENCHMARK(BM_ExecPlanAxirtPlanOptNone)->Arg(64);
BENCHMARK(BM_ExecPlanAxirtOptimized)->Arg(64);
BENCHMARK(BM_ExecPlanAxirtThreaded)->Arg(64);
BENCHMARK(BM_ExecPlanCompile)->Arg(32);
BENCHMARK(BM_VerifyPlanConv)->Arg(64)->Arg(512);

BENCHMARK_MAIN();
