//===- axi4mlir-opt.cpp - Command-line pipeline driver --------------------===//
//
// Part of the AXI4MLIR reproduction. MIT licensed.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The command-line face of the reproduction, in the spirit of mlir-opt:
/// reads an accelerator/CPU configuration file (paper Fig. 5), builds the
/// requested linalg workload, runs the AXI4MLIR pipeline, and prints the
/// host driver as IR and/or C. Optionally executes the driver on the
/// simulated SoC and reports the perf counters.
///
/// Usage:
///   axi4mlir-opt --config configs/matmul_v3_16.json --matmul 128x128x128
///                [--flow As] [--emit ir|c|both] [--no-cpu-tiling]
///                [--no-specialize] [--remainder pad|peel|reject] [--run]
///   axi4mlir-opt --config configs/conv2d.json --conv 58x64x3x128x2 --run
///   axi4mlir-opt --config configs/matmul_v1_4.json
///                --input examples/matmul_v1.mlir --run
///
/// With --input the workload comes from a textual-IR file (one func.func
/// holding a linalg.matmul, linalg.conv_2d_nchw_fchw, or an equivalent
/// already-lowered linalg.generic) instead of the built-in workload
/// builders; the problem shape and element type are read off the kernel's
/// memref types.
///
/// Problem extents need not divide the accelerator tile: partial tiles
/// are padded (default) or peeled per --remainder. When the config file
/// defines several accelerators for the kernel, the planning layer
/// dispatches to the cheapest one under the cost model.
///
//===----------------------------------------------------------------------===//

#include "analysis/PlanVerifier.h"
#include "analysis/ProtocolModel.h"
#include "codegen/CEmitter.h"
#include "dialects/InitAllDialects.h"
#include "exec/ExecPlan.h"
#include "exec/Interpreter.h"
#include "exec/Pipeline.h"
#include "exec/Reference.h"
#include "ir/Parser.h"
#include "parser/ConfigParser.h"
#include "support/EditDistance.h"

#include <cctype>
#include <charconv>
#include <cstdio>
#include <cstring>
#include <iostream>
#include <optional>
#include <string>
#include <vector>

using namespace axi4mlir;

namespace {

struct CliOptions {
  /// --help / -h: print usage and exit 0.
  bool Help = false;
  std::string ConfigPath;
  std::string InputPath;
  std::string Emit = "both";
  bool CpuTiling = true;
  bool Specialize = true;
  bool Run = false;
  /// --verify-plan[=strict]: statically verify the compiled ExecPlan
  /// (and every optimizer stage) before anything executes.
  bool VerifyPlan = false;
  bool VerifyStrict = false;
  /// --verify-each: run the verifier between optimizer passes under
  /// --run too (the Debug default, forced on in Release).
  bool VerifyEach = false;
  std::string Flow; // override selected_flow
  /// ExecPlan optimizer passes for --run ("none", "all" or a comma list
  /// of fold/dce/licm/coalesce).
  exec::opt::PlanOptOptions PlanOpt;
  /// Execution engine for --run: walker or threaded (default).
  exec::ExecMode Exec = exec::ExecMode::Threaded;
  transforms::RemainderMode Remainder = transforms::RemainderMode::Pad;
  /// --faults spec merged over the config file's `faults` section.
  std::string FaultSpec;
  /// --spares override (config `faults.spares` when unset).
  int64_t Spares = -1;
  // MatMul problem.
  bool IsMatMul = false;
  int64_t M = 0, N = 0, K = 0;
  // Conv problem: iHW x iC x fHW x oC x stride.
  bool IsConv = false;
  int64_t InHW = 0, InC = 0, FilterHW = 0, OutC = 0, Stride = 1;
};

void printUsage(std::FILE *Out) {
  std::fprintf(
      Out,
      "usage: axi4mlir-opt --config FILE (--matmul MxNxK | --conv "
      "iHWxiCxfHWxoCxS | --input FILE.mlir)\n"
      "                    [--flow NAME] [--emit ir|c|both] [--run]\n"
      "                    [--no-cpu-tiling] [--no-specialize]\n"
      "                    [--remainder pad|peel|reject]\n"
      "                    [--plan-opt none|all|fold,dce,licm,coalesce]\n"
      "                    [--exec walker|threaded]\n"
      "                    [--verify-plan[=strict]] [--verify-each]\n"
      "                    [--faults SPEC] [--spares N]\n"
      "  --verify-plan: statically verify the compiled plan (slot\n"
      "    def-before-use, loop structure, DMA bounds, protocol FSM\n"
      "    conformance) plus every optimizer stage; exits 1 on errors\n"
      "    (with =strict also on unproven warnings)\n"
      "  --verify-each: with --run, verify the plan between optimizer\n"
      "    passes (on by default in Debug builds)\n"
      "  --faults SPEC: comma-separated fault schedule / recovery policy,\n"
      "    e.g. 'transient@2,corrupt@5:word=3,retries=2' or\n"
      "    'rand=7:n=4,norecover' (see docs/CONFIG.md)\n");
}

/// Parses `MxNxK`-style shape lists strictly: every piece must be a fully
/// consumed positive decimal integer, so `8xx8`, `abc` or `8a` are rejected
/// with a diagnostic naming the bad token instead of silently becoming 0.
bool parseDims(const std::string &Text, std::vector<int64_t> &Out) {
  size_t Pos = 0;
  while (true) {
    size_t Next = Text.find('x', Pos);
    std::string Piece = Text.substr(
        Pos, Next == std::string::npos ? std::string::npos : Next - Pos);
    int64_t Value = 0;
    auto [End, Errc] =
        std::from_chars(Piece.data(), Piece.data() + Piece.size(), Value, 10);
    if (Errc != std::errc() || End != Piece.data() + Piece.size() ||
        Value <= 0) {
      std::fprintf(stderr,
                   "error: invalid dimension '%s' in '%s' (expected "
                   "positive integers separated by 'x')\n",
                   Piece.c_str(), Text.c_str());
      return false;
    }
    Out.push_back(Value);
    if (Next == std::string::npos)
      break;
    Pos = Next + 1;
  }
  return true;
}

/// Every flag parseArgs understands, for did-you-mean suggestions.
const std::vector<std::string> &knownFlags() {
  static const std::vector<std::string> Flags = {
      "--config",    "--input",         "--matmul",        "--conv",
      "--flow",      "--emit",          "--remainder",     "--plan-opt",
      "--exec",      "--faults",        "--spares",        "--run",
      "--verify-plan", "--verify-each",
      "--no-cpu-tiling", "--no-specialize", "--help"};
  return Flags;
}

bool parseArgs(int Argc, char **Argv, CliOptions &Options) {
  for (int I = 1; I < Argc; ++I) {
    std::string Arg = Argv[I];
    // Accept both `--flag value` and `--flag=value`.
    std::string Inline;
    bool HasInline = false;
    if (Arg.rfind("--", 0) == 0) {
      size_t Eq = Arg.find('=');
      if (Eq != std::string::npos) {
        Inline = Arg.substr(Eq + 1);
        Arg = Arg.substr(0, Eq);
        HasInline = true;
        if (Inline.empty()) {
          std::fprintf(stderr, "missing value in '%s='\n", Arg.c_str());
          return false;
        }
      }
    }
    auto next = [&]() -> const char * {
      if (HasInline)
        return Inline.c_str();
      return I + 1 < Argc ? Argv[++I] : nullptr;
    };
    if (Arg == "--config") {
      const char *V = next();
      if (!V)
        return false;
      Options.ConfigPath = V;
    } else if (Arg == "--input") {
      const char *V = next();
      if (!V)
        return false;
      Options.InputPath = V;
    } else if (Arg == "--matmul") {
      const char *V = next();
      std::vector<int64_t> Dims;
      if (!V || !parseDims(V, Dims) || Dims.size() != 3)
        return false;
      Options.IsMatMul = true;
      Options.M = Dims[0];
      Options.N = Dims[1];
      Options.K = Dims[2];
    } else if (Arg == "--conv") {
      const char *V = next();
      std::vector<int64_t> Dims;
      if (!V || !parseDims(V, Dims) || Dims.size() != 5)
        return false;
      Options.IsConv = true;
      Options.InHW = Dims[0];
      Options.InC = Dims[1];
      Options.FilterHW = Dims[2];
      Options.OutC = Dims[3];
      Options.Stride = Dims[4];
    } else if (Arg == "--flow") {
      const char *V = next();
      if (!V)
        return false;
      Options.Flow = V;
    } else if (Arg == "--emit") {
      const char *V = next();
      if (!V)
        return false;
      Options.Emit = V;
      if (Options.Emit != "ir" && Options.Emit != "c" &&
          Options.Emit != "both" && Options.Emit != "none") {
        std::fprintf(stderr, "unknown emit mode '%s' (ir|c|both|none)\n",
                     V);
        return false;
      }
    } else if (Arg == "--remainder") {
      const char *V = next();
      if (!V)
        return false;
      auto Mode = transforms::parseRemainderMode(V);
      if (failed(Mode)) {
        std::fprintf(stderr,
                     "unknown remainder strategy '%s' (pad|peel|reject)\n",
                     V);
        return false;
      }
      Options.Remainder = *Mode;
    } else if (Arg == "--plan-opt") {
      const char *V = next();
      if (!V)
        return false;
      std::string SpecError;
      if (failed(exec::opt::parsePlanOptSpec(V, Options.PlanOpt,
                                             SpecError))) {
        std::fprintf(stderr, "error: %s\n", SpecError.c_str());
        return false;
      }
    } else if (Arg == "--exec") {
      const char *V = next();
      if (!V)
        return false;
      std::string ModeError;
      if (failed(exec::parseExecMode(V, Options.Exec, ModeError))) {
        std::fprintf(stderr, "error: %s\n", ModeError.c_str());
        return false;
      }
    } else if (Arg == "--faults") {
      const char *V = next();
      if (!V)
        return false;
      Options.FaultSpec = V;
    } else if (Arg == "--spares") {
      const char *V = next();
      int64_t Value = 0;
      if (!V)
        return false;
      auto [End, Errc] = std::from_chars(V, V + std::strlen(V), Value, 10);
      if (Errc != std::errc() || End != V + std::strlen(V) || Value < 0) {
        std::fprintf(stderr,
                     "error: --spares needs a non-negative integer "
                     "(got '%s')\n",
                     V);
        return false;
      }
      Options.Spares = Value;
    } else if (Arg == "--verify-plan") {
      Options.VerifyPlan = true;
      if (HasInline) {
        if (Inline != "strict") {
          std::fprintf(stderr,
                       "unknown verify-plan mode '%s' (expected 'strict')\n",
                       Inline.c_str());
          return false;
        }
        Options.VerifyStrict = true;
      }
    } else if (Arg == "--verify-each") {
      Options.VerifyEach = true;
    } else if (Arg == "--run") {
      Options.Run = true;
    } else if (Arg == "--no-cpu-tiling") {
      Options.CpuTiling = false;
    } else if (Arg == "--no-specialize") {
      Options.Specialize = false;
    } else if (Arg == "--help" || Arg == "-h") {
      Options.Help = true;
      return true;
    } else {
      std::string Suggestion = closestSpelling(Arg, knownFlags());
      if (Suggestion.empty())
        std::fprintf(stderr, "unknown argument '%s'\n", Arg.c_str());
      else
        std::fprintf(stderr, "unknown argument '%s'; did you mean '%s'?\n",
                     Arg.c_str(), Suggestion.c_str());
      return false;
    }
  }
  // Exactly one workload source: --matmul, --conv, or --input.
  int Sources = (Options.IsMatMul ? 1 : 0) + (Options.IsConv ? 1 : 0) +
                (Options.InputPath.empty() ? 0 : 1);
  return !Options.ConfigPath.empty() && Sources == 1;
}

/// Derives the workload description (kind, shape, element type) from a
/// parsed `--input` function by locating its single named linalg kernel.
/// Fills the same CliOptions fields the --matmul/--conv flags set.
bool describeInputWorkload(func::FuncOp Func, CliOptions &Options,
                           sim::ElemKind &Kind) {
  Operation *Kernel = nullptr;
  int KernelCount = 0;
  bool KernelIsMatMul = false;
  int64_t GenericStrideH = 1, GenericStrideW = 1;
  bool KernelIsGeneric = false;
  Func.getOperation()->walk([&](Operation *Op) {
    if (Op->getName() == linalg::MatmulOp::OpName ||
        Op->getName() == linalg::Conv2DNchwFchwOp::OpName) {
      Kernel = Op;
      KernelIsMatMul = Op->getName() == linalg::MatmulOp::OpName;
      KernelIsGeneric = false;
      ++KernelCount;
      return;
    }
    // Already-lowered linalg.generic kernels are accepted when they
    // structurally match one of the canonical kernels (the same matcher
    // the annotation pass uses).
    int64_t StrideH = 1, StrideW = 1;
    switch (transforms::classifyGenericKernel(Op, StrideH, StrideW)) {
    case transforms::GenericKernelKind::MatMul:
      Kernel = Op;
      KernelIsMatMul = true;
      KernelIsGeneric = true;
      ++KernelCount;
      break;
    case transforms::GenericKernelKind::Conv2D:
      Kernel = Op;
      KernelIsMatMul = false;
      KernelIsGeneric = true;
      GenericStrideH = StrideH;
      GenericStrideW = StrideW;
      ++KernelCount;
      break;
    case transforms::GenericKernelKind::None:
      break;
    }
  });
  if (KernelCount != 1) {
    std::fprintf(stderr,
                 "error: --input file must contain exactly one "
                 "linalg.matmul, linalg.conv_2d_nchw_fchw, or equivalent "
                 "linalg.generic kernel (found %d)\n",
                 KernelCount);
    return false;
  }
  auto memrefOf = [&](unsigned Index) {
    return Kernel->getOperand(Index).getType().dyn_cast<MemRefType>();
  };
  MemRefType A = memrefOf(0), B = memrefOf(1), C = memrefOf(2);
  if (!A || !B || !C) {
    std::fprintf(stderr, "error: kernel operands must be memrefs\n");
    return false;
  }
  // Match the CLI path's strictness: every extent must be a positive
  // static size (this also rejects dynamic '?' dimensions).
  for (const MemRefType &T : {A, B, C}) {
    for (int64_t Dim : T.getShape()) {
      if (isDynamic(Dim) || Dim < 1) {
        std::fprintf(stderr,
                     "error: kernel memref %s must have positive static "
                     "extents\n",
                     T.str().c_str());
        return false;
      }
    }
  }
  Type Elem = A.getElementType();
  if (Elem != B.getElementType() || Elem != C.getElementType()) {
    std::fprintf(stderr,
                 "error: kernel operands disagree on the element type\n");
    return false;
  }
  switch (Elem.getKind()) {
  case Type::Kind::I32:
    Kind = sim::ElemKind::I32;
    break;
  case Type::Kind::F32:
    Kind = sim::ElemKind::F32;
    break;
  default:
    std::fprintf(stderr,
                 "error: unsupported kernel element type %s (expected "
                 "i32 or f32)\n",
                 Elem.str().c_str());
    return false;
  }

  if (KernelIsMatMul) {
    if (A.getRank() != 2 || B.getRank() != 2 || C.getRank() != 2 ||
        A.getDimSize(1) != B.getDimSize(0) ||
        A.getDimSize(0) != C.getDimSize(0) ||
        B.getDimSize(1) != C.getDimSize(1)) {
      std::fprintf(stderr,
                   "error: linalg.matmul operand shapes are inconsistent "
                   "(%s, %s, %s)\n",
                   A.str().c_str(), B.str().c_str(), C.str().c_str());
      return false;
    }
    Options.IsMatMul = true;
    Options.M = A.getDimSize(0);
    Options.K = A.getDimSize(1);
    Options.N = B.getDimSize(1);
    return true;
  }

  // Conv: I = {1, iC, iHW, iHW}, W = {oC, iC, fHW, fHW}. Named kernels
  // carry the strides as an attribute (validated before the typed
  // accessors dereference it); generic kernels encode them in the
  // indexing maps, already extracted by the classifier.
  int64_t StrideH = GenericStrideH, StrideW = GenericStrideW;
  if (!KernelIsGeneric) {
    Attribute StridesAttr = Kernel->getAttr("strides");
    if (!StridesAttr || !StridesAttr.isArray() ||
        StridesAttr.getArrayValue().size() != 2 ||
        !StridesAttr.getArrayValue()[0].isInteger() ||
        !StridesAttr.getArrayValue()[1].isInteger()) {
      std::fprintf(stderr,
                   "error: linalg.conv_2d_nchw_fchw requires a "
                   "'strides = [sH, sW]' integer-array attribute\n");
      return false;
    }
    StrideH = StridesAttr.getArrayValue()[0].getIntValue();
    StrideW = StridesAttr.getArrayValue()[1].getIntValue();
  }
  if (A.getRank() != 4 || B.getRank() != 4 || C.getRank() != 4 ||
      A.getDimSize(2) != A.getDimSize(3) ||
      B.getDimSize(2) != B.getDimSize(3) ||
      A.getDimSize(1) != B.getDimSize(1)) {
    std::fprintf(stderr,
                 "error: linalg.conv_2d_nchw_fchw operand shapes are "
                 "inconsistent (%s, %s)\n",
                 A.str().c_str(), B.str().c_str());
    return false;
  }
  if (A.getDimSize(0) != 1) {
    std::fprintf(stderr,
                 "error: --input convolutions must have batch 1 (got %lld)\n",
                 static_cast<long long>(A.getDimSize(0)));
    return false;
  }
  if (StrideH != StrideW || StrideH < 1) {
    std::fprintf(stderr,
                 "error: --input convolutions must have equal positive "
                 "H/W strides (got [%lld, %lld])\n",
                 static_cast<long long>(StrideH),
                 static_cast<long long>(StrideW));
    return false;
  }
  // The output shape must agree with what I, W and the strides imply —
  // the interpreter drives loop bounds from C's type, so an oversized C
  // in the file would write past the --run-allocated buffer.
  int64_t OutHW = (A.getDimSize(2) - B.getDimSize(2)) / StrideH + 1;
  if (OutHW < 1 || C.getDimSize(0) != 1 ||
      C.getDimSize(1) != B.getDimSize(0) || C.getDimSize(2) != OutHW ||
      C.getDimSize(3) != OutHW) {
    std::fprintf(stderr,
                 "error: linalg.conv_2d_nchw_fchw output shape %s is "
                 "inconsistent with input %s, filter %s and stride %lld "
                 "(expected memref<1x%lldx%lldx%lld...>)\n",
                 C.str().c_str(), A.str().c_str(), B.str().c_str(),
                 static_cast<long long>(StrideH),
                 static_cast<long long>(B.getDimSize(0)),
                 static_cast<long long>(OutHW),
                 static_cast<long long>(OutHW));
    return false;
  }
  Options.IsConv = true;
  Options.InC = A.getDimSize(1);
  Options.InHW = A.getDimSize(2);
  Options.OutC = B.getDimSize(0);
  Options.FilterHW = B.getDimSize(2);
  Options.Stride = StrideH;
  return true;
}

int runTool(CliOptions Options) {
  std::string Error;
  MLIRContext Context;
  registerAllDialects(Context);

  // With --input the workload (kind, shape, element type) comes from the
  // parsed file rather than the built-in builders.
  OwningOpRef ParsedModule;
  sim::ElemKind InputKind = sim::ElemKind::I32;
  if (!Options.InputPath.empty()) {
    auto Parsed = parseSourceFile(Options.InputPath, &Context, &Error);
    if (failed(Parsed)) {
      std::fprintf(stderr, "%s\n", Error.c_str());
      return 1;
    }
    ParsedModule = std::move(*Parsed);
    if (ParsedModule->getName() != func::FuncOp::OpName) {
      std::fprintf(stderr,
                   "error: expected a top-level func.func in '%s', got "
                   "'%s'\n",
                   Options.InputPath.c_str(),
                   ParsedModule->getName().c_str());
      return 1;
    }
    if (!describeInputWorkload(func::FuncOp(ParsedModule.get()), Options,
                               InputKind))
      return 1;
  }

  auto Config = parser::parseSystemConfigFile(Options.ConfigPath, &Error);
  if (failed(Config)) {
    std::fprintf(stderr, "error: %s\n", Error.c_str());
    return 1;
  }
  // The SoC the cost model plans for and --run simulates, with the
  // config's last cache level as its L2.
  FailureOr<sim::SoCParams> Params =
      parser::makeSoCParams(Config->Cpu, &Error);
  if (failed(Params)) {
    std::fprintf(stderr, "error: %s: %s\n", Options.ConfigPath.c_str(),
                 Error.c_str());
    return 1;
  }

  // Fault schedule: the config file's `faults` section, with --faults
  // entries appended and --spares overriding the spare count.
  sim::FaultPlan FaultPlan = Config->Faults;
  bool FaultsArmed = Config->HasFaults;
  unsigned Spares = Config->SpareAccelerators;
  if (!Options.FaultSpec.empty()) {
    if (failed(sim::parseFaultSpec(Options.FaultSpec, FaultPlan, Error))) {
      std::fprintf(stderr, "error: %s\n", Error.c_str());
      return 1;
    }
    FaultsArmed = true;
  }
  if (Options.Spares >= 0)
    Spares = static_cast<unsigned>(Options.Spares);

  // Every accelerator implementing the requested kernel is a dispatch
  // candidate; the planning layer selects the cheapest per problem shape.
  const char *Kernel =
      Options.IsMatMul ? "linalg.matmul" : "linalg.conv_2d_nchw_fchw";
  std::vector<parser::AcceleratorDesc> Candidates;
  for (const parser::AcceleratorDesc &Desc : Config->Accelerators)
    if (Desc.Kernel == Kernel)
      Candidates.push_back(Desc);
  if (Candidates.empty()) {
    std::fprintf(stderr, "error: no accelerator for kernel '%s' in '%s'\n",
                 Kernel, Options.ConfigPath.c_str());
    return 1;
  }
  if (!Options.Flow.empty()) {
    for (parser::AcceleratorDesc &Candidate : Candidates) {
      if (!Candidate.lookupFlow(Options.Flow)) {
        std::fprintf(stderr, "error: accelerator '%s' has no flow '%s'\n",
                     Candidate.Name.c_str(), Options.Flow.c_str());
        return 1;
      }
      Candidate.SelectedFlow = Options.Flow;
    }
  }

  // The workload's element type must be fixed before planning, so all
  // dispatch candidates must agree on it.
  for (const parser::AcceleratorDesc &Candidate : Candidates) {
    if (Candidate.DataType != Candidates.front().DataType) {
      std::fprintf(stderr,
                   "error: candidate accelerators disagree on data_type "
                   "('%s' is %s, '%s' is %s)\n",
                   Candidates.front().Name.c_str(),
                   Candidates.front().DataType.c_str(),
                   Candidate.Name.c_str(), Candidate.DataType.c_str());
      return 1;
    }
  }

  sim::ElemKind Kind = Candidates.front().DataType == "f32"
                           ? sim::ElemKind::F32
                           : sim::ElemKind::I32;
  OwningOpRef Owner;
  func::FuncOp Func;
  if (ParsedModule) {
    if (InputKind != Kind) {
      std::fprintf(stderr,
                   "error: '%s' uses element type %s but config '%s' "
                   "declares data_type '%s'\n",
                   Options.InputPath.c_str(),
                   InputKind == sim::ElemKind::F32 ? "f32" : "i32",
                   Options.ConfigPath.c_str(),
                   Candidates.front().DataType.c_str());
      return 1;
    }
    Owner = std::move(ParsedModule);
    Func = func::FuncOp(Owner.get());
  } else {
    OpBuilder Builder(&Context);
    Func = Options.IsMatMul
               ? exec::buildMatMulFunc(Builder, Options.M, Options.N,
                                       Options.K, Kind)
               : exec::buildConvFunc(Builder, 1, Options.InC, Options.InHW,
                                     Options.OutC, Options.FilterHW,
                                     Options.Stride, Kind);
    Owner = OwningOpRef(Func.getOperation());
  }

  transforms::LoweringOptions Lowering;
  Lowering.EnableCpuTiling = Options.CpuTiling;
  Lowering.CacheBytes = Params->L2SizeBytes;
  Lowering.Remainder = Options.Remainder;
  Lowering.CostParams = *Params;
  auto Plans = std::make_shared<std::vector<transforms::TilingPlan>>();
  transforms::PassManager Pipeline =
      transforms::buildPipeline(Candidates, Lowering, Plans);
  if (failed(Pipeline.run(Func, Error))) {
    std::fprintf(stderr, "pipeline error: %s\n", Error.c_str());
    return 1;
  }
  if (Plans->empty()) {
    std::fprintf(stderr, "error: no kernel was matched and annotated\n");
    return 1;
  }
  const parser::AcceleratorDesc &Accel =
      Candidates[Plans->front().AcceleratorIndex];
  if (Candidates.size() > 1)
    std::fprintf(stderr,
                 "// plan: dispatching to '%s' (estimated %.3f ms)\n",
                 Accel.Name.c_str(), Plans->front().EstimatedCostMs);

  if (Options.Emit == "ir" || Options.Emit == "both") {
    std::cout << "// ---- lowered host driver IR ----\n"
              << *Func.getOperation() << "\n";
  }
  if (Options.Emit == "c" || Options.Emit == "both") {
    auto CSource = codegen::emitC(Func, &Error);
    if (failed(CSource)) {
      std::fprintf(stderr, "C emission error: %s\n", Error.c_str());
      return 1;
    }
    std::cout << "// ---- generated C driver ----\n" << *CSource << "\n";
  }

  if (Options.VerifyPlan) {
    // Static verification: compile the lowered driver to an ExecPlan,
    // prove it safe, then re-prove every optimizer stage (verify-each)
    // and the optimized result. Nothing executes.
    auto Plan = exec::ExecPlan::compile(Func, Error);
    if (!Plan) {
      std::fprintf(stderr, "verify-plan error: %s\n", Error.c_str());
      return 1;
    }
    std::string ModelError;
    FailureOr<analysis::ProtocolModel> Model =
        analysis::ProtocolModel::forAccelerator(Accel, ModelError);
    analysis::VerifyOptions VerifierOptions;
    VerifierOptions.Strict = Options.VerifyStrict;
    if (succeeded(Model))
      VerifierOptions.Model = &*Model;
    else
      std::fprintf(stderr, "// verify-plan: %s; protocol checks skipped\n",
                   ModelError.c_str());
    unsigned NumErrors = 0, NumWarnings = 0;
    auto report = [&](const char *Stage,
                      const analysis::VerifyResult &R) {
      NumErrors += R.Errors.size();
      NumWarnings += R.Warnings.size();
      for (const analysis::PlanDiag &D : R.Errors)
        std::fprintf(stderr, "verify-plan (%s) error: %s\n", Stage,
                     D.Message.c_str());
      for (const analysis::PlanDiag &D : R.Warnings)
        std::fprintf(stderr, "verify-plan (%s) warning: %s\n", Stage,
                     D.Message.c_str());
    };
    report("compiled", analysis::verifyPlan(*Plan, VerifierOptions));
    if (Options.PlanOpt.any()) {
      exec::opt::PlanOptOptions StagedOptions = Options.PlanOpt;
      StagedOptions.VerifyEach = true;
      exec::opt::PlanOptStats Stats =
          exec::opt::optimizePlan(*Plan, StagedOptions);
      if (!Stats.VerifyError.empty()) {
        ++NumErrors;
        std::fprintf(stderr, "verify-plan (after %s) error: %s\n",
                     Stats.VerifyFailedPass.c_str(),
                     Stats.VerifyError.c_str());
      } else {
        report("optimized", analysis::verifyPlan(*Plan, VerifierOptions));
      }
    }
    std::fprintf(stderr, "// verify-plan: %u error(s), %u warning(s)\n",
                 NumErrors, NumWarnings);
    if (NumErrors || (Options.VerifyStrict && NumWarnings))
      return 1;
  }

  if (!Options.Run)
    return 0;

  if (Options.VerifyEach)
    Options.PlanOpt.VerifyEach = true;

  // Build the matching simulated board from the accelerator name.
  std::unique_ptr<sim::SoC> Soc;
  if (Options.IsMatMul) {
    FailureOr<sim::MatMulAccelerator::Version> Version =
        sim::MatMulAccelerator::versionFromName(Accel.Name, Error);
    if (failed(Version)) {
      std::fprintf(stderr, "error: %s\n", Error.c_str());
      return 1;
    }
    Soc = sim::makeMatMulSoC(
        *Version, sim::MatMulAccelerator::engineSizeFor(Accel.AccelSize),
        Kind, *Params);
  } else {
    Soc = sim::makeConvSoC(Kind, *Params);
  }
  // Arm the fault injector and register spare failover units (protocol-
  // identical clones, scored like the dispatched plan). The injector must
  // outlive the run: the engine keeps a raw pointer to it.
  std::optional<sim::FaultInjector> Injector;
  if (FaultsArmed || Spares > 0) {
    for (unsigned I = 0; I < Spares; ++I) {
      auto Spare = Soc->accelerator()->cloneFresh();
      if (!Spare) {
        std::fprintf(stderr,
                     "error: accelerator '%s' cannot provide spare units\n",
                     Accel.Name.c_str());
        return 1;
      }
      Soc->addSpareAccelerator(std::move(Spare),
                               Plans->front().EstimatedCostMs);
    }
    Injector.emplace(FaultPlan);
    Soc->attachFaultInjector(&*Injector);
  }

  runtime::DmaRuntime Runtime(*Soc, Options.Specialize);

  std::vector<runtime::MemRefDesc> Args;
  if (Options.IsMatMul) {
    Args.push_back(runtime::MemRefDesc::alloc({Options.M, Options.K}, Kind));
    Args.push_back(runtime::MemRefDesc::alloc({Options.K, Options.N}, Kind));
    Args.push_back(runtime::MemRefDesc::alloc({Options.M, Options.N}, Kind));
  } else {
    int64_t OutHW =
        (Options.InHW - Options.FilterHW) / Options.Stride + 1;
    Args.push_back(runtime::MemRefDesc::alloc(
        {1, Options.InC, Options.InHW, Options.InHW}, Kind));
    Args.push_back(runtime::MemRefDesc::alloc(
        {Options.OutC, Options.InC, Options.FilterHW, Options.FilterHW},
        Kind));
    Args.push_back(
        runtime::MemRefDesc::alloc({1, Options.OutC, OutHW, OutHW}, Kind));
  }
  for (size_t I = 0; I < Args.size(); ++I)
    exec::fillRandom(Args[I], static_cast<uint32_t>(13 + I));

  // Reference result for validation.
  runtime::MemRefDesc Expected = exec::cloneMemRef(Args.back());
  if (Options.IsMatMul)
    exec::referenceMatMul(Args[0], Args[1], Expected);
  else
    exec::referenceConv2D(Args[0], Args[1], Expected, Options.Stride,
                          Options.Stride);

  exec::Interpreter Interp(*Soc, &Runtime, Options.Exec);
  Interp.setPlanOptions(Options.PlanOpt);
  if (failed(Interp.run(Func, Args, Error))) {
    std::fprintf(stderr, "execution error: %s\n", Error.c_str());
    return 1;
  }
  bool Match = exec::memrefEquals(Expected, Args.back());
  std::cout << "// ---- execution on the simulated SoC ----\n"
            << "numerics match reference: " << (Match ? "yes" : "NO")
            << "\n"
            << Soc->report().summary() << "\n";
  return Match ? 0 : 1;
}

} // namespace

int main(int Argc, char **Argv) {
  CliOptions Options;
  if (!parseArgs(Argc, Argv, Options)) {
    printUsage(stderr);
    return 2;
  }
  if (Options.Help) {
    printUsage(stdout);
    return 0;
  }
  return runTool(Options);
}
