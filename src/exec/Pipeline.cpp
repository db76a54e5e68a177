//===- Pipeline.cpp - End-to-end driver API implementation ----------------===//
//
// Part of the AXI4MLIR reproduction. MIT licensed.
//
//===----------------------------------------------------------------------===//

#include "exec/Pipeline.h"

#include "dialects/InitAllDialects.h"
#include "dialects/Linalg.h"
#include "dialects/MemRef.h"
#include "exec/AccelConfigs.h"
#include "exec/Interpreter.h"
#include "exec/Reference.h"
#include "ir/Verifier.h"

using namespace axi4mlir;
using namespace axi4mlir::exec;
using runtime::MemRefDesc;
using sim::MatMulAccelerator;

func::FuncOp exec::buildMatMulFunc(OpBuilder &Builder, int64_t M, int64_t N,
                                   int64_t K, sim::ElemKind Kind) {
  MLIRContext *Context = Builder.getContext();
  Type Elem = Kind == sim::ElemKind::F32 ? Type::getF32(Context)
                                         : Type::getI32(Context);
  MemRefType ATy = MemRefType::get(Context, {M, K}, Elem);
  MemRefType BTy = MemRefType::get(Context, {K, N}, Elem);
  MemRefType CTy = MemRefType::get(Context, {M, N}, Elem);
  func::FuncOp Func =
      func::FuncOp::create(Builder, "matmul_call", {ATy, BTy, CTy});
  OpBuilder BodyBuilder(Context);
  BodyBuilder.setInsertionPointToEnd(&Func.getBody());
  linalg::MatmulOp::create(BodyBuilder, Func.getArgument(0),
                           Func.getArgument(1), Func.getArgument(2));
  func::ReturnOp::create(BodyBuilder);
  return Func;
}

func::FuncOp exec::buildConvFunc(OpBuilder &Builder, int64_t Batch,
                                 int64_t InChannels, int64_t InHW,
                                 int64_t OutChannels, int64_t FilterHW,
                                 int64_t Stride, sim::ElemKind Kind) {
  MLIRContext *Context = Builder.getContext();
  Type Elem = Kind == sim::ElemKind::F32 ? Type::getF32(Context)
                                         : Type::getI32(Context);
  int64_t OutHW = (InHW - FilterHW) / Stride + 1;
  MemRefType ITy =
      MemRefType::get(Context, {Batch, InChannels, InHW, InHW}, Elem);
  MemRefType WTy = MemRefType::get(
      Context, {OutChannels, InChannels, FilterHW, FilterHW}, Elem);
  MemRefType OTy =
      MemRefType::get(Context, {Batch, OutChannels, OutHW, OutHW}, Elem);
  func::FuncOp Func =
      func::FuncOp::create(Builder, "conv_call", {ITy, WTy, OTy});
  OpBuilder BodyBuilder(Context);
  BodyBuilder.setInsertionPointToEnd(&Func.getBody());
  linalg::Conv2DNchwFchwOp::create(BodyBuilder, Func.getArgument(0),
                                   Func.getArgument(1), Func.getArgument(2),
                                   Stride, Stride);
  func::ReturnOp::create(BodyBuilder);
  return Func;
}

namespace {

/// Shared validation: run the reference kernel on clones and compare.
bool validateMatMul(const MemRefDesc &A, const MemRefDesc &B,
                    const MemRefDesc &CIn, const MemRefDesc &COut) {
  MemRefDesc Expected = cloneMemRef(CIn);
  MemRefDesc ACopy = cloneMemRef(A), BCopy = cloneMemRef(B);
  referenceMatMul(ACopy, BCopy, Expected);
  return memrefEquals(Expected, COut);
}

struct MatMulData {
  MemRefDesc A, B, C, CInitial;
};

MatMulData makeMatMulData(const MatMulRunConfig &Config) {
  MatMulData Data;
  Data.A = MemRefDesc::alloc({Config.M, Config.K}, Config.Kind);
  Data.B = MemRefDesc::alloc({Config.K, Config.N}, Config.Kind);
  Data.C = MemRefDesc::alloc({Config.M, Config.N}, Config.Kind);
  fillRandom(Data.A, Config.Seed);
  fillRandom(Data.B, Config.Seed + 1);
  fillRandom(Data.C, Config.Seed + 2);
  Data.CInitial = cloneMemRef(Data.C);
  return Data;
}

int64_t tileOf(const MatMulRunConfig &Config, int Which) {
  int64_t Tile = Which == 0   ? Config.TileM
                 : Which == 1 ? Config.TileN
                              : Config.TileK;
  return Tile ? Tile : Config.AccelSize;
}

} // namespace

RunResult exec::runMatMulAxi4mlir(const MatMulRunConfig &Config) {
  RunResult Result;

  MLIRContext Context;
  registerAllDialects(Context);
  OpBuilder Builder(&Context);
  func::FuncOp Func = buildMatMulFunc(Builder, Config.M, Config.N, Config.K,
                                      Config.Kind);
  OwningOpRef Owner(Func.getOperation());

  // Parse the accelerator description (as from a user's config file).
  parser::AcceleratorDesc Accel = parseSingleAccelerator(
      makeMatMulConfigJson(Config.Version, Config.AccelSize, Config.Flow,
                           tileOf(Config, 0), tileOf(Config, 1),
                           tileOf(Config, 2)));

  transforms::LoweringOptions Options;
  Options.EnableCpuTiling = Config.CpuTiling;
  Options.CacheBytes = Config.Params.L2SizeBytes;
  Options.Remainder = Config.Remainder;
  Options.CostParams = Config.Params;
  auto Plans = std::make_shared<std::vector<transforms::TilingPlan>>();
  transforms::PassManager Pipeline = transforms::buildPipeline(
      std::vector<parser::AcceleratorDesc>{Accel}, Options, Plans);
  if (failed(Pipeline.run(Func, Result.Error)))
    return Result;
  if (!Plans->empty())
    Result.SelectedAccelerator = Plans->front().AcceleratorName;

  // Execute against the simulated board.
  auto Soc = sim::makeMatMulSoC(Config.Version, Config.AccelSize,
                                Config.Kind, Config.Params);
  // Fault injection + self-healing: spares are protocol-identical clones
  // ranked by the selected plan's modeled cost; the injector outlives the
  // run (the SoC holds a raw pointer).
  std::optional<sim::FaultInjector> Injector;
  if (!Config.Faults.empty() || Config.SpareAccelerators > 0) {
    double Score = Plans->empty() ? 0.0 : Plans->front().EstimatedCostMs;
    for (unsigned I = 0; I < Config.SpareAccelerators; ++I)
      Soc->addSpareAccelerator(Soc->accelerator()->cloneFresh(), Score);
    Injector.emplace(Config.Faults);
    Soc->attachFaultInjector(&*Injector);
  }
  runtime::DmaRuntime Runtime(*Soc, Config.SpecializeCopies);
  MatMulData Data = makeMatMulData(Config);
  Interpreter Interp(*Soc, &Runtime, Config.Exec);
  if (!Config.PlanOpt.empty()) {
    opt::PlanOptOptions OptOptions;
    if (failed(opt::parsePlanOptSpec(Config.PlanOpt, OptOptions,
                                     Result.Error)))
      return Result;
    Interp.setPlanOptions(OptOptions);
  }
  bool Ran = succeeded(Interp.run(Func, {Data.A, Data.B, Data.C},
                                   Result.Error));
  Result.Report = Soc->report();
  if (!Ran)
    return Result;

  Result.Ok = true;
  Result.NumericsMatch =
      !Config.Validate ||
      validateMatMul(Data.A, Data.B, Data.CInitial, Data.C);
  if (Config.Validate && !Result.NumericsMatch)
    Result.Error = "numerical mismatch against the reference kernel";
  return Result;
}

RunResult exec::runMatMulManual(const MatMulRunConfig &Config) {
  RunResult Result;
  auto Soc = sim::makeMatMulSoC(Config.Version, Config.AccelSize,
                                Config.Kind, Config.Params);
  runtime::DmaRuntime Runtime(*Soc, /*SpecializeCopies=*/true);
  MatMulData Data = makeMatMulData(Config);

  ManualMatMulConfig Manual;
  Manual.Version = Config.Version;
  Manual.TileM = tileOf(Config, 0);
  Manual.TileN = tileOf(Config, 1);
  Manual.TileK = tileOf(Config, 2);
  Manual.Flow = Config.Flow;
  bool Ran = runManualMatMul(Runtime, Data.A, Data.B, Data.C, Manual);
  Result.Report = Soc->report();
  if (!Ran) {
    Result.Error = "manual driver protocol error: " + Runtime.errorMessage();
    return Result;
  }

  Result.Ok = true;
  Result.NumericsMatch =
      !Config.Validate ||
      validateMatMul(Data.A, Data.B, Data.CInitial, Data.C);
  if (Config.Validate && !Result.NumericsMatch)
    Result.Error = "numerical mismatch against the reference kernel";
  return Result;
}

RunResult exec::runMatMulCpuOnly(const MatMulRunConfig &Config) {
  RunResult Result;

  MLIRContext Context;
  registerAllDialects(Context);
  OpBuilder Builder(&Context);
  func::FuncOp Func = buildMatMulFunc(Builder, Config.M, Config.N, Config.K,
                                      Config.Kind);
  OwningOpRef Owner(Func.getOperation());
  if (failed(transforms::convertNamedToGeneric(Func, Result.Error)))
    return Result;

  auto Soc = sim::makeCpuOnlySoC(Config.Params);
  MatMulData Data = makeMatMulData(Config);
  Interpreter Interp(*Soc, /*Runtime=*/nullptr, Config.Exec);
  bool Ran = succeeded(Interp.run(Func, {Data.A, Data.B, Data.C},
                                   Result.Error));
  Result.Report = Soc->report();
  if (!Ran)
    return Result;

  Result.Ok = true;
  Result.NumericsMatch =
      !Config.Validate ||
      validateMatMul(Data.A, Data.B, Data.CInitial, Data.C);
  if (Config.Validate && !Result.NumericsMatch)
    Result.Error = "numerical mismatch against the reference kernel";
  return Result;
}

//===----------------------------------------------------------------------===//
// Convolution
//===----------------------------------------------------------------------===//

namespace {

struct ConvData {
  MemRefDesc Input, Filter, Output, OutputInitial;
};

ConvData makeConvData(const ConvRunConfig &Config) {
  int64_t OutHW = (Config.InHW - Config.FilterHW) / Config.Stride + 1;
  ConvData Data;
  Data.Input = MemRefDesc::alloc(
      {Config.Batch, Config.InChannels, Config.InHW, Config.InHW},
      Config.Kind);
  Data.Filter = MemRefDesc::alloc({Config.OutChannels, Config.InChannels,
                                   Config.FilterHW, Config.FilterHW},
                                  Config.Kind);
  Data.Output = MemRefDesc::alloc(
      {Config.Batch, Config.OutChannels, OutHW, OutHW}, Config.Kind);
  fillRandom(Data.Input, Config.Seed);
  fillRandom(Data.Filter, Config.Seed + 1);
  fillRandom(Data.Output, Config.Seed + 2);
  Data.OutputInitial = cloneMemRef(Data.Output);
  return Data;
}

bool validateConv(const ConvRunConfig &Config, const ConvData &Data) {
  MemRefDesc Expected = cloneMemRef(Data.OutputInitial);
  referenceConv2D(Data.Input, Data.Filter, Expected, Config.Stride,
                  Config.Stride);
  return memrefEquals(Expected, Data.Output);
}

} // namespace

RunResult exec::runConvAxi4mlir(const ConvRunConfig &Config) {
  RunResult Result;

  MLIRContext Context;
  registerAllDialects(Context);
  OpBuilder Builder(&Context);
  func::FuncOp Func = buildConvFunc(Builder, Config.Batch,
                                    Config.InChannels, Config.InHW,
                                    Config.OutChannels, Config.FilterHW,
                                    Config.Stride, Config.Kind);
  OwningOpRef Owner(Func.getOperation());

  parser::AcceleratorDesc Accel =
      parseSingleAccelerator(makeConvConfigJson());

  transforms::LoweringOptions Options;
  Options.EnableCpuTiling = Config.CpuTiling;
  Options.CacheBytes = Config.Params.L2SizeBytes;
  Options.Remainder = Config.Remainder;
  Options.CostParams = Config.Params;
  auto Plans = std::make_shared<std::vector<transforms::TilingPlan>>();
  transforms::PassManager Pipeline = transforms::buildPipeline(
      std::vector<parser::AcceleratorDesc>{Accel}, Options, Plans);
  if (failed(Pipeline.run(Func, Result.Error)))
    return Result;
  if (!Plans->empty())
    Result.SelectedAccelerator = Plans->front().AcceleratorName;

  auto Soc = sim::makeConvSoC(Config.Kind, Config.Params);
  std::optional<sim::FaultInjector> Injector;
  if (!Config.Faults.empty() || Config.SpareAccelerators > 0) {
    double Score = Plans->empty() ? 0.0 : Plans->front().EstimatedCostMs;
    for (unsigned I = 0; I < Config.SpareAccelerators; ++I)
      Soc->addSpareAccelerator(Soc->accelerator()->cloneFresh(), Score);
    Injector.emplace(Config.Faults);
    Soc->attachFaultInjector(&*Injector);
  }
  runtime::DmaRuntime Runtime(*Soc, Config.SpecializeCopies);
  ConvData Data = makeConvData(Config);
  Interpreter Interp(*Soc, &Runtime, Config.Exec);
  if (!Config.PlanOpt.empty()) {
    opt::PlanOptOptions OptOptions;
    if (failed(opt::parsePlanOptSpec(Config.PlanOpt, OptOptions,
                                     Result.Error)))
      return Result;
    Interp.setPlanOptions(OptOptions);
  }
  bool Ran = succeeded(Interp.run(
      Func, {Data.Input, Data.Filter, Data.Output}, Result.Error));
  Result.Report = Soc->report();
  if (!Ran)
    return Result;

  Result.Ok = true;
  Result.NumericsMatch = !Config.Validate || validateConv(Config, Data);
  if (Config.Validate && !Result.NumericsMatch)
    Result.Error = "numerical mismatch against the reference kernel";
  return Result;
}

RunResult exec::runConvManual(const ConvRunConfig &Config) {
  RunResult Result;
  auto Soc = sim::makeConvSoC(Config.Kind, Config.Params);
  runtime::DmaRuntime Runtime(*Soc, /*SpecializeCopies=*/true);
  ConvData Data = makeConvData(Config);
  bool Ran = runManualConv2D(Runtime, Data.Input, Data.Filter, Data.Output,
                             Config.Stride, Config.Stride);
  Result.Report = Soc->report();
  if (!Ran) {
    Result.Error = "manual driver protocol error: " + Runtime.errorMessage();
    return Result;
  }
  Result.Ok = true;
  Result.NumericsMatch = !Config.Validate || validateConv(Config, Data);
  if (Config.Validate && !Result.NumericsMatch)
    Result.Error = "numerical mismatch against the reference kernel";
  return Result;
}
