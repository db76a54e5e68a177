//===- Interpreter.h - Host-code IR interpreter -----------------*- C++ -*-===//
//
// Part of the AXI4MLIR reproduction. MIT licensed.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Executes lowered host code (scf/arith/memref + runtime calls) against
/// the simulated SoC, charging the cost model for every host action. It
/// stands in for running the cross-compiled binary on the PYNQ-Z2: the
/// perf counters it produces correspond to what the paper measures with
/// perf (Sec. IV).
///
/// Two forms are executable:
///   * linalg.generic directly (the mlir_CPU baseline),
///   * the axirt driver: axirt.* runtime calls, the form
///     convert-accel-to-runtime produces and codegen::emitC prints.
/// Accel-dialect ops are an intermediate IR; both engines refuse them with
/// a diagnostic naming convert-accel-to-runtime.
///
//===----------------------------------------------------------------------===//

#ifndef AXI4MLIR_EXEC_INTERPRETER_H
#define AXI4MLIR_EXEC_INTERPRETER_H

#include "dialects/Func.h"
#include "exec/ExecPlanRun.h"
#include "exec/opt/PlanOpt.h"
#include "runtime/DmaRuntime.h"
#include "support/LogicalResult.h"

#include <map>
#include <string>
#include <vector>

namespace axi4mlir {
namespace exec {

/// Interprets one func.func against a simulated system. By default every
/// run() compiles the function into an ExecPlan, runs the plan optimizer,
/// pre-decodes the result and executes it through the threaded-dispatch
/// engine. The tree walker stays selectable through ExecMode as the
/// reference oracle; both produce identical buffers and perf counters.
/// Nothing is cached across runs, so a run always executes the IR as it is
/// at that call. Code that runs one function many times compiles and
/// decodes the plan once itself (as serve::PlanCache does).
class Interpreter {
public:
  /// \p Runtime may be null for CPU-only functions (no axirt calls).
  Interpreter(sim::SoC &Soc, runtime::DmaRuntime *Runtime,
              ExecMode Mode = ExecMode::Threaded);

  ExecMode execMode() const { return Mode; }

  /// Enables plan-optimizer passes (src/exec/opt) for subsequent threaded
  /// runs. Off by default to preserve the bit-identical
  /// threaded-vs-walker counter guarantee.
  void setPlanOptions(const opt::PlanOptOptions &Options) {
    PlanOptions = Options;
  }

  /// Runs \p Func with memref arguments bound to \p Arguments. A threaded
  /// run charges one plan-cache miss to the SoC's HostPerfModel (a counter
  /// only, no cycles) for the plan it compiles.
  LogicalResult run(func::FuncOp Func,
                    const std::vector<runtime::MemRefDesc> &Arguments,
                    std::string &Error);

private:
  /// A dynamic value: index/integer, float, or memref.
  struct RuntimeValue {
    enum class Kind { Int, Float, MemRef } Tag = Kind::Int;
    int64_t IntVal = 0;
    double FloatVal = 0;
    runtime::MemRefDesc MemRef;

    static RuntimeValue fromInt(int64_t V) {
      RuntimeValue Value;
      Value.Tag = Kind::Int;
      Value.IntVal = V;
      return Value;
    }
    static RuntimeValue fromFloat(double V) {
      RuntimeValue Value;
      Value.Tag = Kind::Float;
      Value.FloatVal = V;
      return Value;
    }
    static RuntimeValue fromMemRef(runtime::MemRefDesc Desc) {
      RuntimeValue Value;
      Value.Tag = Kind::MemRef;
      Value.MemRef = std::move(Desc);
      return Value;
    }
  };

  LogicalResult executeBlock(Block &TheBlock);
  LogicalResult executeOp(Operation *Op);
  LogicalResult executeLinalgGeneric(Operation *Op);
  LogicalResult executeRuntimeCall(Operation *Op);

  RuntimeValue &value(Value V) { return Env[V.getImpl()]; }
  int64_t intValue(Value V) { return value(V).IntVal; }
  const runtime::MemRefDesc &memrefValue(Value V) {
    return value(V).MemRef;
  }
  LogicalResult fail(const std::string &Message) {
    if (ErrorMessage.empty())
      ErrorMessage = Message;
    return failure();
  }

  sim::SoC &Soc;
  runtime::DmaRuntime *Runtime;
  ExecMode Mode;
  opt::PlanOptOptions PlanOptions;
  std::map<detail::ValueImpl *, RuntimeValue> Env;
  std::string ErrorMessage;
};

} // namespace exec
} // namespace axi4mlir

#endif // AXI4MLIR_EXEC_INTERPRETER_H
