//===- Pipeline.h - End-to-end driver API -----------------------*- C++ -*-===//
//
// Part of the AXI4MLIR reproduction. MIT licensed.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The library's top-level convenience API: build a linalg workload, run
/// the AXI4MLIR pipeline (or a baseline), execute it on the simulated SoC
/// and return validated perf counters. The examples and every benchmark
/// binary are built on these entry points.
///
//===----------------------------------------------------------------------===//

#ifndef AXI4MLIR_EXEC_PIPELINE_H
#define AXI4MLIR_EXEC_PIPELINE_H

#include "dialects/Func.h"
#include "exec/ExecPlanRun.h"
#include "exec/ManualDrivers.h"
#include "sim/SoC.h"
#include "transforms/Passes.h"

#include <optional>
#include <string>

namespace axi4mlir {
namespace exec {

/// Workload + system configuration for one MatMul experiment.
struct MatMulRunConfig {
  int64_t M = 64, N = 64, K = 64;
  sim::MatMulAccelerator::Version Version =
      sim::MatMulAccelerator::Version::V3;
  /// Square accelerator size (Table I: 4, 8 or 16).
  int64_t AccelSize = 8;
  /// Optional rectangular tiles (v4 only); 0 = use AccelSize.
  int64_t TileM = 0, TileN = 0, TileK = 0;
  /// Dataflow strategy: Ns / As / Bs / Cs.
  std::string Flow = "Ns";
  /// AXI4MLIR options (ignored by manual/CPU runs).
  bool CpuTiling = true;
  bool SpecializeCopies = true;
  /// Partial-tile strategy for extents not divisible by the tile
  /// (ignored by manual/CPU runs; Reject reproduces the legacy error).
  transforms::RemainderMode Remainder = transforms::RemainderMode::Pad;
  sim::ElemKind Kind = sim::ElemKind::I32;
  sim::SoCParams Params;
  /// Validate numerics against the reference kernel (costs an extra
  /// reference execution; disable in large sweeps).
  bool Validate = true;
  uint32_t Seed = 7;
  /// Plan-optimizer spec for the compiled executor: "none" (default),
  /// "all", or a comma list of fold/dce/licm/coalesce.
  std::string PlanOpt;
  /// Which execution engine interprets the lowered host code.
  ExecMode Exec = ExecMode::Threaded;
  /// Fault schedule + recovery policy for the run (empty events =
  /// fault-free; the injection hooks stay cold).
  sim::FaultPlan Faults;
  /// Protocol-identical spare accelerators registered as failover targets
  /// (scored by the TilingPlan modeled cost of the selected plan).
  unsigned SpareAccelerators = 0;
};

/// Result of one experiment run.
struct RunResult {
  bool Ok = false;
  bool NumericsMatch = false;
  std::string Error;
  /// The SoC's counters after the run; a failed run reports what it
  /// charged up to the failure.
  sim::PerfReport Report;
  /// Name of the accelerator the planning layer dispatched to (empty for
  /// manual/CPU runs).
  std::string SelectedAccelerator;
};

/// Builds `func @matmul_call(%A, %B, %C)` containing one linalg.matmul.
func::FuncOp buildMatMulFunc(OpBuilder &Builder, int64_t M, int64_t N,
                             int64_t K, sim::ElemKind Kind);

/// Builds `func @conv_call(%I, %W, %O)` containing one
/// linalg.conv_2d_nchw_fchw.
func::FuncOp buildConvFunc(OpBuilder &Builder, int64_t Batch,
                           int64_t InChannels, int64_t InHW,
                           int64_t OutChannels, int64_t FilterHW,
                           int64_t Stride, sim::ElemKind Kind);

/// Full AXI4MLIR path: IR -> pipeline -> interpret on the simulated SoC.
RunResult runMatMulAxi4mlir(const MatMulRunConfig &Config);

/// Hand-written driver baseline (cpp_MANUAL).
RunResult runMatMulManual(const MatMulRunConfig &Config);

/// CPU-only execution of the tiled linalg.generic (mlir_CPU baseline).
RunResult runMatMulCpuOnly(const MatMulRunConfig &Config);

/// One ResNet-style convolution layer.
struct ConvRunConfig {
  int64_t Batch = 1, InChannels = 64, InHW = 58, OutChannels = 64,
          FilterHW = 3, Stride = 1;
  bool CpuTiling = false; // conv tiles are already output-slice shaped
  bool SpecializeCopies = true;
  transforms::RemainderMode Remainder = transforms::RemainderMode::Pad;
  sim::ElemKind Kind = sim::ElemKind::I32;
  sim::SoCParams Params;
  bool Validate = true;
  uint32_t Seed = 11;
  /// Plan-optimizer spec (see MatMulRunConfig::PlanOpt).
  std::string PlanOpt;
  /// Which execution engine interprets the lowered host code.
  ExecMode Exec = ExecMode::Threaded;
  /// Fault schedule + failover spares (see MatMulRunConfig).
  sim::FaultPlan Faults;
  unsigned SpareAccelerators = 0;
};

RunResult runConvAxi4mlir(const ConvRunConfig &Config);
RunResult runConvManual(const ConvRunConfig &Config);

} // namespace exec
} // namespace axi4mlir

#endif // AXI4MLIR_EXEC_PIPELINE_H
