//===- Interpreter.cpp - Host-code IR interpreter implementation ----------===//
//
// Part of the AXI4MLIR reproduction. MIT licensed.
//
//===----------------------------------------------------------------------===//

#include "exec/Interpreter.h"

#include "dialects/Arith.h"
#include "dialects/Linalg.h"
#include "dialects/MemRef.h"
#include "dialects/SCF.h"
#include "exec/ExecPlan.h"
#include "runtime/StridedCopy.h"
#include "transforms/Passes.h"

#include <cassert>

using namespace axi4mlir;
using namespace axi4mlir::exec;
using runtime::MemRefDesc;

Interpreter::Interpreter(sim::SoC &Soc, runtime::DmaRuntime *Runtime,
                         ExecMode Mode)
    : Soc(Soc), Runtime(Runtime), Mode(Mode) {}

LogicalResult Interpreter::run(func::FuncOp Func,
                               const std::vector<MemRefDesc> &Arguments,
                               std::string &Error) {
  Env.clear();
  ErrorMessage.clear();
  Block &Entry = Func.getBody();
  if (Arguments.size() != Entry.getNumArguments()) {
    Error = "argument count mismatch calling '" + Func.getFuncName() + "'";
    return failure();
  }
  if (Mode == ExecMode::Threaded) {
    // Compile, optimize and decode the function as it is now: nothing is
    // reused from an earlier run, so an in-place edit can never replay a
    // stale plan.
    Soc.perf().onPlanCacheMiss();
    std::unique_ptr<ExecPlan> Plan = ExecPlan::compile(Func, Error);
    if (!Plan)
      return failure();
    opt::PlanOptStats Stats = opt::optimizePlan(*Plan, PlanOptions);
    if (!Stats.VerifyError.empty()) {
      // Verify-each caught a miscompile between passes: refuse to run the
      // rejected plan.
      Error = "plan verification failed after " + Stats.VerifyFailedPass +
              ": " + Stats.VerifyError;
      return failure();
    }
    return DecodedPlan::decode(*Plan)->run(Soc, Runtime, Arguments, Error);
  }
  for (unsigned I = 0; I < Arguments.size(); ++I)
    Env[Entry.getArgument(I).getImpl()] =
        RuntimeValue::fromMemRef(Arguments[I]);
  if (failed(executeBlock(Entry))) {
    Error = ErrorMessage.empty() ? "interpreter failure" : ErrorMessage;
    return failure();
  }
  // Belt-and-braces end-of-run check (the per-call status checks stop the
  // run early; this catches anything signalled outside a runtime call).
  if (Runtime && Runtime->status() != sim::AccelStatus::Ok) {
    Error = Runtime->statusErrorText();
    return failure();
  }
  return success();
}

LogicalResult Interpreter::executeBlock(Block &TheBlock) {
  for (Operation *Op : TheBlock.getOperations()) {
    const std::string &Name = Op->getName();
    if (Name == "func.return" || Name == "scf.yield" ||
        Name == "linalg.yield")
      return success();
    if (failed(executeOp(Op)))
      return failure();
  }
  return success();
}

LogicalResult Interpreter::executeOp(Operation *Op) {
  const std::string &Name = Op->getName();
  sim::HostPerfModel &Perf = Soc.perf();

  //===--------------------------------------------------------------------===//
  // arith
  //===--------------------------------------------------------------------===//
  if (Name == "arith.constant") {
    Attribute ValueAttr = Op->getAttr("value");
    if (ValueAttr.getKind() == Attribute::Kind::Float)
      value(Op->getResult(0)) =
          RuntimeValue::fromFloat(ValueAttr.getFloatValue());
    else
      value(Op->getResult(0)) =
          RuntimeValue::fromInt(ValueAttr.getIntValue());
    return success();
  }
  if (Name.rfind("arith.", 0) == 0 && Op->getNumOperands() == 2) {
    RuntimeValue &LHS = value(Op->getOperand(0));
    RuntimeValue &RHS = value(Op->getOperand(1));
    Perf.onArith(1);
    bool IsFloat = LHS.Tag == RuntimeValue::Kind::Float;
    double A = IsFloat ? LHS.FloatVal : static_cast<double>(LHS.IntVal);
    double B = IsFloat ? RHS.FloatVal : static_cast<double>(RHS.IntVal);
    double R = 0;
    if (Name == "arith.addf" || Name == "arith.addi")
      R = A + B;
    else if (Name == "arith.mulf" || Name == "arith.muli")
      R = A * B;
    else if (Name == "arith.subf" || Name == "arith.subi")
      R = A - B;
    else if (Name == "arith.divf")
      R = A / B;
    else if (Name == "arith.maxf")
      R = A > B ? A : B;
    else
      return fail("unsupported arith op '" + Name + "'");
    if (Op->getResult(0).getType().isFloat())
      value(Op->getResult(0)) = RuntimeValue::fromFloat(R);
    else
      value(Op->getResult(0)) = RuntimeValue::fromInt(sim::doubleToInt64(R));
    return success();
  }
  if (Name == "arith.index_cast") {
    value(Op->getResult(0)) = value(Op->getOperand(0));
    return success();
  }

  //===--------------------------------------------------------------------===//
  // scf
  //===--------------------------------------------------------------------===//
  if (auto For = dyn_cast_op<scf::ForOp>(Op)) {
    int64_t LowerBound = intValue(For.getLowerBound());
    int64_t UpperBound = intValue(For.getUpperBound());
    int64_t Step = intValue(For.getStep());
    if (Step <= 0)
      return fail("scf.for requires a positive step");
    for (int64_t IV = LowerBound; IV < UpperBound; IV += Step) {
      Perf.onLoopIteration();
      value(For.getInductionVar()) = RuntimeValue::fromInt(IV);
      if (failed(executeBlock(*For.getBody())))
        return failure();
    }
    return success();
  }

  //===--------------------------------------------------------------------===//
  // memref
  //===--------------------------------------------------------------------===//
  if (auto Alloc = dyn_cast_op<memref::AllocOp>(Op)) {
    MemRefType Ty = Alloc.getType();
    sim::ElemKind Kind = Ty.getElementType().isFloat()
                             ? sim::ElemKind::F32
                             : sim::ElemKind::I32;
    Perf.onArith(10); // allocator call
    value(Op->getResult(0)) =
        RuntimeValue::fromMemRef(MemRefDesc::alloc(Ty.getShape(), Kind));
    return success();
  }
  if (Name == "memref.dealloc") {
    Perf.onArith(10);
    return success();
  }
  if (auto Load = dyn_cast_op<memref::LoadOp>(Op)) {
    const MemRefDesc &Desc = memrefValue(Load.getMemRef());
    std::vector<int64_t> Indices;
    for (unsigned I = 1; I < Op->getNumOperands(); ++I)
      Indices.push_back(intValue(Op->getOperand(I)));
    int64_t Linear = Desc.linearIndex(Indices);
    Perf.onArith(Desc.rank()); // address computation
    Perf.onScalarLoad(Desc.addressOf(Linear), 4);
    uint32_t Word = Desc.Buffer->Data[static_cast<size_t>(Linear)];
    if (Desc.kind() == sim::ElemKind::F32)
      value(Op->getResult(0)) = RuntimeValue::fromFloat(
          static_cast<double>(sim::wordToFloat(Word)));
    else
      value(Op->getResult(0)) =
          RuntimeValue::fromInt(static_cast<int32_t>(Word));
    return success();
  }
  if (auto Store = dyn_cast_op<memref::StoreOp>(Op)) {
    const MemRefDesc &Desc = memrefValue(Store.getMemRef());
    std::vector<int64_t> Indices;
    for (unsigned I = 2; I < Op->getNumOperands(); ++I)
      Indices.push_back(intValue(Op->getOperand(I)));
    int64_t Linear = Desc.linearIndex(Indices);
    Perf.onArith(Desc.rank());
    Perf.onScalarStore(Desc.addressOf(Linear), 4);
    RuntimeValue &Stored = value(Store.getStoredValue());
    uint32_t Word =
        Desc.kind() == sim::ElemKind::F32
            ? sim::floatToWord(static_cast<float>(
                  Stored.Tag == RuntimeValue::Kind::Float
                      ? Stored.FloatVal
                      : static_cast<double>(Stored.IntVal)))
            : static_cast<uint32_t>(static_cast<int32_t>(
                  Stored.Tag == RuntimeValue::Kind::Float
                      ? sim::doubleToInt64(Stored.FloatVal)
                      : Stored.IntVal));
    Desc.Buffer->Data[static_cast<size_t>(Linear)] = Word;
    return success();
  }
  if (auto Copy = dyn_cast_op<memref::CopyOp>(Op)) {
    std::string Error;
    if (failed(runtime::copyMemRef(Perf, memrefValue(Copy.getSource()),
                                   memrefValue(Copy.getDest()), Error)))
      return fail(Error);
    return success();
  }
  if (auto SubView = dyn_cast_op<memref::SubViewOp>(Op)) {
    const MemRefDesc &Source = memrefValue(SubView.getSource());
    Perf.onArith(2 * Source.rank()); // descriptor arithmetic
    RuntimeValue &Result = value(Op->getResult(0));
    Result.Tag = RuntimeValue::Kind::MemRef;
    Result.MemRef.assignSubview(
        Source, [&](unsigned I) { return intValue(Op->getOperand(I + 1)); },
        SubView.getStaticSizes());
    return success();
  }

  //===--------------------------------------------------------------------===//
  // linalg / runtime calls
  //===--------------------------------------------------------------------===//
  if (isa_op<linalg::GenericOp>(Op))
    return executeLinalgGeneric(Op);
  // Runtime calls check the structured DMA status on the way out: the
  // walker stops issuing work the moment a call comes back non-Ok
  // (recovery has already absorbed whatever it could by then).
  if (Name == "func.call") {
    if (failed(executeRuntimeCall(Op)))
      return failure();
    if (Runtime && Runtime->status() != sim::AccelStatus::Ok)
      return fail(Runtime->statusErrorText());
    return success();
  }

  return fail(unsupportedOpError(Name));
}

LogicalResult Interpreter::executeLinalgGeneric(Operation *Op) {
  linalg::GenericOp Generic(Op);
  std::vector<int64_t> Ranges = Generic.getStaticLoopRanges();
  if (Ranges.empty())
    return fail("linalg.generic with non-static loop ranges");

  unsigned NumOperands = Op->getNumOperands();
  unsigned NumInputs = Generic.getNumInputs();
  std::vector<MemRefDesc> Descs;
  std::vector<AffineMap> Maps;
  for (unsigned I = 0; I < NumOperands; ++I) {
    Descs.push_back(memrefValue(Op->getOperand(I)));
    Maps.push_back(Generic.getIndexingMap(I));
  }
  Block &Body = Generic.getBody();
  sim::HostPerfModel &Perf = Soc.perf();

  // Odometer over the iteration space; models the compiled loop nest.
  std::vector<int64_t> Point(Ranges.size(), 0);
  bool Done = product(Ranges) == 0;
  while (!Done) {
    Perf.onLoopIteration();
    Perf.onArith(3); // indexing arithmetic per point

    // Bind payload arguments: input elements then current output elements.
    for (unsigned I = 0; I < NumOperands; ++I) {
      std::vector<int64_t> Indices = Maps[I].eval(Point);
      int64_t Linear = Descs[I].linearIndex(Indices);
      Perf.onScalarLoad(Descs[I].addressOf(Linear), 4);
      uint32_t Word = Descs[I].Buffer->Data[static_cast<size_t>(Linear)];
      RuntimeValue BoundValue =
          Descs[I].kind() == sim::ElemKind::F32
              ? RuntimeValue::fromFloat(
                    static_cast<double>(sim::wordToFloat(Word)))
              : RuntimeValue::fromInt(static_cast<int32_t>(Word));
      Env[Body.getArgument(I).getImpl()] = BoundValue;
    }

    // Run the payload.
    for (Operation *BodyOp : Body.getOperations()) {
      if (BodyOp->getName() == "linalg.yield") {
        for (unsigned O = 0; O < BodyOp->getNumOperands(); ++O) {
          unsigned OperandIdx = NumInputs + O;
          RuntimeValue &Yielded = value(BodyOp->getOperand(O));
          std::vector<int64_t> Indices = Maps[OperandIdx].eval(Point);
          int64_t Linear = Descs[OperandIdx].linearIndex(Indices);
          Perf.onScalarStore(Descs[OperandIdx].addressOf(Linear), 4);
          Descs[OperandIdx].Buffer->Data[static_cast<size_t>(Linear)] =
              Descs[OperandIdx].kind() == sim::ElemKind::F32
                  ? sim::floatToWord(static_cast<float>(
                        Yielded.Tag == RuntimeValue::Kind::Float
                            ? Yielded.FloatVal
                            : static_cast<double>(Yielded.IntVal)))
                  : static_cast<uint32_t>(static_cast<int32_t>(
                        Yielded.Tag == RuntimeValue::Kind::Float
                            ? sim::doubleToInt64(Yielded.FloatVal)
                            : Yielded.IntVal));
        }
        break;
      }
      if (failed(executeOp(BodyOp)))
        return failure();
    }

    // Advance the odometer (innermost dimension fastest).
    Done = true;
    for (int D = static_cast<int>(Point.size()) - 1; D >= 0; --D) {
      if (++Point[D] < Ranges[D]) {
        Done = false;
        break;
      }
      Point[D] = 0;
    }
  }
  return success();
}

LogicalResult Interpreter::executeRuntimeCall(Operation *Op) {
  const std::string Callee = func::CallOp(Op).getCallee();
  if (!Runtime)
    return fail("runtime call executed without a DMA runtime");
  namespace rt = transforms::rtcall;

  if (Callee == rt::DmaInit) {
    Runtime->dmaInit(Op->getAttr("dma_config").getDmaConfigValue());
    return success();
  }
  if (Callee == rt::CopyToDma) {
    int64_t End = Runtime->copyToDmaRegion(memrefValue(Op->getOperand(0)),
                                           intValue(Op->getOperand(1)));
    value(Op->getResult(0)) = RuntimeValue::fromInt(End);
    return success();
  }
  if (Callee == rt::CopyLiteralToDma || Callee == rt::CopyIndexToDma) {
    RuntimeValue &Literal = value(Op->getOperand(0));
    int64_t End = Runtime->copyLiteralToDmaRegion(
        static_cast<int32_t>(Literal.IntVal), intValue(Op->getOperand(1)));
    value(Op->getResult(0)) = RuntimeValue::fromInt(End);
    return success();
  }
  if (Callee == rt::StartSend) {
    int64_t End = intValue(Op->getOperand(0));
    int64_t Start = intValue(Op->getOperand(1));
    Runtime->dmaStartSend(End - Start, Start);
    return success();
  }
  if (Callee == rt::WaitSend) {
    Runtime->dmaWaitSendCompletion();
    return success();
  }
  if (Callee == rt::StartRecv) {
    Runtime->dmaStartRecv(intValue(Op->getOperand(0)),
                          intValue(Op->getOperand(1)));
    return success();
  }
  if (Callee == rt::WaitRecv) {
    Runtime->dmaWaitRecvCompletion();
    return success();
  }
  if (Callee == rt::CopyFromDma) {
    bool Accumulate = Op->getAttr("accumulate").getIntValue() != 0;
    Runtime->copyFromDmaRegion(memrefValue(Op->getOperand(0)),
                               intValue(Op->getOperand(1)), Accumulate);
    return success();
  }
  return fail("unknown runtime callee '" + Callee + "'");
}
