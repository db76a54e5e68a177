//===- ExecPlan.cpp - Compiled host-code execution plans ------------------===//
//
// Part of the AXI4MLIR reproduction. MIT licensed.
//
//===----------------------------------------------------------------------===//

#include "exec/ExecPlan.h"

#include "dialects/Arith.h"
#include "dialects/Linalg.h"
#include "dialects/MemRef.h"
#include "dialects/SCF.h"
#include "runtime/StridedCopy.h"
#include "transforms/Passes.h"

#include <cassert>
#include <map>
#include <ostream>
#include <sstream>

using namespace axi4mlir;
using namespace axi4mlir::exec;
using runtime::MemRefDesc;

//===----------------------------------------------------------------------===//
// Compilation
//===----------------------------------------------------------------------===//

namespace axi4mlir {
namespace exec {

/// Lowers operations into ExecPlan instructions, numbering SSA values into
/// dense slots as it goes.
struct ExecPlanBuilder {
  ExecPlan &Plan;
  std::map<detail::ValueImpl *, int32_t> Slots;
  std::string Error;

  explicit ExecPlanBuilder(ExecPlan &Plan) : Plan(Plan) {}

  int32_t slot(Value V) {
    auto Inserted =
        Slots.try_emplace(V.getImpl(), static_cast<int32_t>(Plan.NumSlots));
    if (Inserted.second)
      ++Plan.NumSlots;
    return Inserted.first->second;
  }

  LogicalResult fail(std::string Message) {
    if (Error.empty())
      Error = std::move(Message);
    return failure();
  }

  static bool isTerminator(const std::string &Name) {
    return Name == "func.return" || Name == "scf.yield" ||
           Name == "linalg.yield";
  }

  /// Compiles \p TheBlock's operations up to (excluding) the first
  /// terminator, which is reported through \p Terminator.
  LogicalResult compileBlock(Block &TheBlock, std::vector<ExecPlan::Inst> &Out,
                             Operation **Terminator) {
    *Terminator = nullptr;
    const Block::OpListType &Ops = TheBlock.getOperations();
    for (auto It = Ops.begin(); It != Ops.end(); ++It) {
      Operation *Op = *It;
      if (isTerminator(Op->getName())) {
        *Terminator = Op;
        return success();
      }
      if (Op->getName() != func::CallOp::OpName) {
        if (failed(compileOp(Op, Out)))
          return failure();
        continue;
      }
      auto Next = std::next(It);
      bool TookNext = false;
      if (failed(compileCall(Op, Next == Ops.end() ? nullptr : *Next,
                             TookNext, Out)))
        return failure();
      if (TookNext)
        It = Next;
    }
    return success();
  }

  LogicalResult compileOp(Operation *Op, std::vector<ExecPlan::Inst> &Out);
  LogicalResult compileGeneric(Operation *Op,
                               std::vector<ExecPlan::Inst> &Out);
  /// Compiles the runtime call \p Op. A transfer start takes \p Next, the
  /// wait that must follow it, along (\p TookNext).
  LogicalResult compileCall(Operation *Op, Operation *Next, bool &TookNext,
                            std::vector<ExecPlan::Inst> &Out);
};

} // namespace exec
} // namespace axi4mlir

std::string exec::unsupportedOpError(const std::string &OpName) {
  if (OpName.rfind("accel.", 0) == 0)
    return "interpreter: accel-level op '" + OpName +
           "' is not executable; lower it with convert-accel-to-runtime "
           "first";
  return "interpreter: unsupported operation '" + OpName + "'";
}

LogicalResult ExecPlanBuilder::compileOp(Operation *Op,
                                         std::vector<ExecPlan::Inst> &Out) {
  using Inst = ExecPlan::Inst;
  using PlanOp = ExecPlan::Op;
  const std::string &Name = Op->getName();
  Inst I;

  //===--------------------------------------------------------------------===//
  // arith
  //===--------------------------------------------------------------------===//
  if (Name == "arith.constant") {
    Attribute ValueAttr = Op->getAttr("value");
    I.Dst = slot(Op->getResult(0));
    if (ValueAttr.getKind() == Attribute::Kind::Float) {
      I.Code = PlanOp::ConstFloat;
      I.FImm = ValueAttr.getFloatValue();
    } else {
      I.Code = PlanOp::ConstInt;
      I.Imm = ValueAttr.getIntValue();
    }
    Out.push_back(I);
    return success();
  }
  if (Name.rfind("arith.", 0) == 0 && Op->getNumOperands() == 2) {
    ExecPlan::BinKind Kind;
    if (Name == "arith.addf" || Name == "arith.addi")
      Kind = ExecPlan::BinKind::Add;
    else if (Name == "arith.mulf" || Name == "arith.muli")
      Kind = ExecPlan::BinKind::Mul;
    else if (Name == "arith.subf" || Name == "arith.subi")
      Kind = ExecPlan::BinKind::Sub;
    else if (Name == "arith.divf")
      Kind = ExecPlan::BinKind::Div;
    else if (Name == "arith.maxf")
      Kind = ExecPlan::BinKind::Max;
    else
      return fail("unsupported arith op '" + Name + "'");
    I.Code = PlanOp::Binary;
    I.Sub = static_cast<uint8_t>(Kind);
    if (Op->getResult(0).getType().isFloat())
      I.Sub |= ExecPlan::BinFloatResult;
    I.A = slot(Op->getOperand(0));
    I.B = slot(Op->getOperand(1));
    I.Dst = slot(Op->getResult(0));
    Out.push_back(I);
    return success();
  }
  if (Name == "arith.index_cast") {
    I.Code = PlanOp::IndexCast;
    I.A = slot(Op->getOperand(0));
    I.Dst = slot(Op->getResult(0));
    Out.push_back(I);
    return success();
  }

  //===--------------------------------------------------------------------===//
  // scf.for: flattened to LoopBegin/LoopEnd over a contiguous body span.
  //===--------------------------------------------------------------------===//
  if (Name == scf::ForOp::OpName) {
    scf::ForOp For(Op);
    I.Code = PlanOp::LoopBegin;
    I.A = slot(For.getLowerBound());
    I.B = slot(For.getUpperBound());
    I.C = slot(For.getStep());
    I.Dst = slot(For.getInductionVar());
    size_t BeginPc = Out.size();
    Out.push_back(I);
    Operation *Terminator = nullptr;
    if (failed(compileBlock(*For.getBody(), Out, &Terminator)))
      return failure();
    Inst End;
    End.Code = PlanOp::LoopEnd;
    End.Dst = I.Dst;
    End.B = I.B;
    End.C = I.C;
    End.Aux = static_cast<int32_t>(BeginPc + 1);
    Out.push_back(End);
    Out[BeginPc].Aux = static_cast<int32_t>(Out.size());
    return success();
  }

  //===--------------------------------------------------------------------===//
  // memref
  //===--------------------------------------------------------------------===//
  if (Name == memref::AllocOp::OpName) {
    memref::AllocOp Alloc(Op);
    MemRefType Ty = Alloc.getType();
    ExecPlan::AllocPlan Info;
    Info.Shape = Ty.getShape();
    Info.Kind = Ty.getElementType().isFloat() ? sim::ElemKind::F32
                                              : sim::ElemKind::I32;
    I.Code = PlanOp::Alloc;
    I.Aux = static_cast<int32_t>(Plan.Allocs.size());
    I.Dst = slot(Op->getResult(0));
    Plan.Allocs.push_back(std::move(Info));
    Out.push_back(I);
    return success();
  }
  if (Name == memref::DeallocOp::OpName) {
    I.Code = PlanOp::Dealloc;
    Out.push_back(I);
    return success();
  }
  if (Name == memref::LoadOp::OpName || Name == memref::StoreOp::OpName) {
    bool IsLoad = Name == memref::LoadOp::OpName;
    I.Code = IsLoad ? PlanOp::Load : PlanOp::Store;
    unsigned FirstIndex = IsLoad ? 1 : 2;
    if (IsLoad) {
      I.A = slot(Op->getOperand(0));
      I.Dst = slot(Op->getResult(0));
    } else {
      I.A = slot(Op->getOperand(0)); // stored value
      I.B = slot(Op->getOperand(1)); // memref
    }
    I.Aux = static_cast<int32_t>(Plan.SlotPool.size());
    for (unsigned Idx = FirstIndex; Idx < Op->getNumOperands(); ++Idx)
      Plan.SlotPool.push_back(slot(Op->getOperand(Idx)));
    I.Sub = static_cast<uint8_t>(Op->getNumOperands() - FirstIndex);
    Out.push_back(I);
    return success();
  }
  if (Name == memref::CopyOp::OpName) {
    I.Code = PlanOp::Copy;
    I.A = slot(Op->getOperand(0));
    I.B = slot(Op->getOperand(1));
    Out.push_back(I);
    return success();
  }
  if (Name == memref::SubViewOp::OpName) {
    memref::SubViewOp SubView(Op);
    ExecPlan::SubViewPlan Info;
    Info.PoolOffset = static_cast<int32_t>(Plan.SlotPool.size());
    for (unsigned Idx = 1; Idx < Op->getNumOperands(); ++Idx)
      Plan.SlotPool.push_back(slot(Op->getOperand(Idx)));
    Info.NumOffsets = Op->getNumOperands() - 1;
    Info.StaticSizes = SubView.getStaticSizes();
    I.Code = PlanOp::SubView;
    I.A = slot(Op->getOperand(0));
    I.Aux = static_cast<int32_t>(Plan.SubViews.size());
    I.Dst = slot(Op->getResult(0));
    Plan.SubViews.push_back(std::move(Info));
    Out.push_back(I);
    return success();
  }

  //===--------------------------------------------------------------------===//
  // linalg (runtime calls are compiled by compileBlock)
  //===--------------------------------------------------------------------===//
  if (Name == linalg::GenericOp::OpName)
    return compileGeneric(Op, Out);

  return fail(unsupportedOpError(Name));
}

LogicalResult
ExecPlanBuilder::compileGeneric(Operation *Op,
                                std::vector<ExecPlan::Inst> &Out) {
  linalg::GenericOp Generic(Op);
  ExecPlan::GenericPlan G;
  G.Ranges = Generic.getStaticLoopRanges();
  if (G.Ranges.empty())
    return fail("linalg.generic with non-static loop ranges");
  if (G.Ranges.size() > runtime::detail::MaxCopyRank)
    return fail("linalg.generic loop nest deeper than the supported " +
                std::to_string(runtime::detail::MaxCopyRank) + " loops");
  G.NumInputs = Generic.getNumInputs();

  for (unsigned Idx = 0; Idx < Op->getNumOperands(); ++Idx) {
    ExecPlan::OperandPlan P;
    P.Slot = slot(Op->getOperand(Idx));
    AffineMap Map = Generic.getIndexingMap(Idx);
    P.Projected = Map.isProjectedPermutation();
    if (P.Projected) {
      for (unsigned R = 0; R < Map.getNumResults(); ++R)
        P.DimPos.push_back(Map.getResult(R).getPosition());
    } else {
      P.Exprs = Map.getResults();
    }
    G.Operands.push_back(std::move(P));
  }

  Block &Body = Generic.getBody();
  for (unsigned Idx = 0; Idx < Body.getNumArguments(); ++Idx)
    G.BodyArgSlots.push_back(slot(Body.getArgument(Idx)));

  Operation *Terminator = nullptr;
  if (failed(compileBlock(Body, G.Body, &Terminator)))
    return failure();
  if (Terminator && Terminator->getName() == linalg::YieldOp::OpName)
    for (unsigned O = 0; O < Terminator->getNumOperands(); ++O)
      G.YieldSlots.push_back(slot(Terminator->getOperand(O)));

  ExecPlan::Inst I;
  I.Code = ExecPlan::Op::Generic;
  I.Aux = static_cast<int32_t>(Plan.Generics.size());
  Plan.Generics.push_back(std::move(G));
  Out.push_back(I);
  return success();
}

LogicalResult ExecPlanBuilder::compileCall(Operation *Op, Operation *Next,
                                           bool &TookNext,
                                           std::vector<ExecPlan::Inst> &Out) {
  using PlanOp = ExecPlan::Op;
  namespace rt = transforms::rtcall;
  const std::string Callee = func::CallOp(Op).getCallee();
  ExecPlan::Inst I;
  TookNext = false;

  if (Callee == rt::DmaInit) {
    I.Code = PlanOp::CallDmaInit;
    I.Aux = static_cast<int32_t>(Plan.DmaConfigs.size());
    Plan.DmaConfigs.push_back(Op->getAttr("dma_config").getDmaConfigValue());
  } else if (Callee == rt::CopyToDma) {
    I.Code = PlanOp::CallCopyToDma;
    I.A = slot(Op->getOperand(0));
    I.B = slot(Op->getOperand(1));
    I.Dst = slot(Op->getResult(0));
  } else if (Callee == rt::CopyLiteralToDma || Callee == rt::CopyIndexToDma) {
    I.Code = PlanOp::CallCopyLiteralToDma;
    I.A = slot(Op->getOperand(0));
    I.B = slot(Op->getOperand(1));
    I.Dst = slot(Op->getResult(0));
  } else if (Callee == rt::StartSend || Callee == rt::StartRecv) {
    // The driver is blocking: every start is immediately followed by its
    // wait, and the pair is one instruction.
    bool Send = Callee == rt::StartSend;
    const std::string Wait = Send ? rt::WaitSend : rt::WaitRecv;
    if (!Next || Next->getName() != func::CallOp::OpName ||
        func::CallOp(Next).getCallee() != Wait)
      return fail("runtime call '" + Callee +
                  "' is not immediately followed by '" + Wait + "'");
    I.Code = Send ? PlanOp::CallSend : PlanOp::CallRecv;
    I.A = slot(Op->getOperand(0));
    I.B = slot(Op->getOperand(1));
    TookNext = true;
  } else if (Callee == rt::WaitSend || Callee == rt::WaitRecv) {
    return fail("runtime call '" + Callee + "' does not follow its '" +
                (Callee == rt::WaitSend ? rt::StartSend : rt::StartRecv) +
                "'");
  } else if (Callee == rt::CopyFromDma) {
    I.Code = PlanOp::CallCopyFromDma;
    I.A = slot(Op->getOperand(0));
    I.B = slot(Op->getOperand(1));
    I.Sub = Op->getAttr("accumulate").getIntValue() != 0 ? 1 : 0;
  } else {
    return fail("unknown runtime callee '" + Callee + "'");
  }
  Out.push_back(I);
  return success();
}

std::unique_ptr<ExecPlan> ExecPlan::compile(func::FuncOp Func,
                                            std::string &Error) {
  std::unique_ptr<ExecPlan> Plan(new ExecPlan());
  ExecPlanBuilder Builder(*Plan);
  Plan->FuncName = Func.getFuncName();
  Block &Entry = Func.getBody();
  Plan->NumArgs = Entry.getNumArguments();
  // Arguments occupy the first slots in order.
  for (unsigned Idx = 0; Idx < Plan->NumArgs; ++Idx)
    Builder.slot(Entry.getArgument(Idx));
  Operation *Terminator = nullptr;
  if (failed(Builder.compileBlock(Entry, Plan->Program, &Terminator))) {
    Error = Builder.Error.empty() ? "plan compilation failure"
                                  : Builder.Error;
    return nullptr;
  }
  return Plan;
}

//===----------------------------------------------------------------------===//
// Disassembly
//===----------------------------------------------------------------------===//

const char *ExecPlan::binName(uint8_t Sub) {
  switch (Sub & 0x7) {
  case 0:
    return "add";
  case 1:
    return "mul";
  case 2:
    return "sub";
  case 3:
    return "div";
  case 4:
    return "max";
  default:
    return "bin?";
  }
}

namespace {

void printIndexList(std::ostream &OS, const std::vector<int32_t> &Pool,
                    int32_t Offset, uint32_t Count) {
  OS << '[';
  for (uint32_t K = 0; K < Count; ++K) {
    if (K)
      OS << ", ";
    OS << '%' << Pool[static_cast<size_t>(Offset) + K];
  }
  OS << ']';
}

} // namespace

void ExecPlan::printPc(std::ostream &OS, size_t Pc) {
  OS << "  ";
  // Fixed-width PC keeps goldens aligned without depending on locale.
  if (Pc < 10)
    OS << ' ';
  if (Pc < 100)
    OS << ' ';
  OS << Pc << ": ";
}

void ExecPlan::printGenericShape(std::ostream &OS, const GenericPlan &G) {
  OS << " ranges=[";
  for (size_t K = 0; K < G.Ranges.size(); ++K)
    OS << (K ? ", " : "") << G.Ranges[K];
  OS << "] operands=[";
  for (size_t K = 0; K < G.Operands.size(); ++K)
    OS << (K ? ", " : "") << '%' << G.Operands[K].Slot;
  OS << ']';
}

void ExecPlan::printInst(std::ostream &OS, const Inst &I,
                         const std::vector<int32_t> &SlotPool,
                         const std::vector<AllocPlan> &Allocs,
                         const std::vector<SubViewPlan> &SubViews,
                         const std::vector<GenericPlan> &Generics) {
  switch (I.Code) {
  case Op::ConstInt:
    OS << '%' << I.Dst << " = const.i " << I.Imm;
    break;
  case Op::ConstFloat: {
    std::ostringstream Tmp;
    Tmp << I.FImm;
    OS << '%' << I.Dst << " = const.f " << Tmp.str();
    break;
  }
  case Op::Binary:
    OS << '%' << I.Dst << " = " << binName(I.Sub)
       << ((I.Sub & BinFloatResult) ? ".f %" : ".i %") << I.A << ", %"
       << I.B;
    break;
  case Op::IndexCast:
    OS << '%' << I.Dst << " = index_cast %" << I.A;
    break;
  case Op::LoopBegin:
    OS << "loop %" << I.Dst << " = [%" << I.A << ", %" << I.B << ") step %"
       << I.C << " -> @" << I.Aux;
    break;
  case Op::LoopEnd:
    OS << "end -> @" << I.Aux;
    break;
  case Op::Alloc: {
    const AllocPlan &Info = Allocs[I.Aux];
    OS << '%' << I.Dst << " = alloc ";
    for (int64_t Dim : Info.Shape)
      OS << Dim << 'x';
    OS << (Info.Kind == sim::ElemKind::F32 ? "f32" : "i32");
    break;
  }
  case Op::Dealloc:
    OS << "dealloc";
    break;
  case Op::Load:
    OS << '%' << I.Dst << " = load %" << I.A;
    printIndexList(OS, SlotPool, I.Aux, I.Sub);
    break;
  case Op::Store:
    OS << "store %" << I.A << " -> %" << I.B;
    printIndexList(OS, SlotPool, I.Aux, I.Sub);
    break;
  case Op::Copy:
    OS << "copy %" << I.A << " -> %" << I.B;
    break;
  case Op::SubView: {
    const SubViewPlan &Info = SubViews[I.Aux];
    OS << '%' << I.Dst << " = subview %" << I.A;
    printIndexList(OS, SlotPool, Info.PoolOffset, Info.NumOffsets);
    OS << " sizes=[";
    for (size_t K = 0; K < Info.StaticSizes.size(); ++K)
      OS << (K ? ", " : "") << Info.StaticSizes[K];
    OS << ']';
    break;
  }
  case Op::Generic: {
    const GenericPlan &G = Generics[I.Aux];
    OS << "generic";
    printGenericShape(OS, G);
    OS << " body=" << G.Body.size();
    break;
  }
  case Op::CallDmaInit:
    OS << "dma_init #" << I.Aux;
    break;
  case Op::CallCopyToDma:
    OS << '%' << I.Dst << " = copy_to_dma %" << I.A << " @ %" << I.B;
    break;
  case Op::CallCopyLiteralToDma:
    OS << '%' << I.Dst << " = copy_literal_to_dma %" << I.A << " @ %"
       << I.B;
    break;
  case Op::CallSend:
    OS << "send end=%" << I.A << " off=%" << I.B;
    break;
  case Op::CallRecv:
    OS << "recv len=%" << I.A << " off=%" << I.B;
    break;
  case Op::CallCopyFromDma:
    OS << "copy_from_dma %" << I.A << " @ %" << I.B
       << (I.Sub ? " accumulate" : "");
    break;
  }
}

void ExecPlan::print(std::ostream &OS) const {
  OS << "plan @" << FuncName << " args=" << NumArgs << " slots=" << NumSlots
     << " insts=" << Program.size() << "\n";
  for (size_t Pc = 0; Pc < Program.size(); ++Pc) {
    printPc(OS, Pc);
    printInst(OS, Program[Pc], SlotPool, Allocs, SubViews, Generics);
    OS << "\n";
  }
}

std::string ExecPlan::printToString() const {
  std::ostringstream OS;
  print(OS);
  return OS.str();
}

//===----------------------------------------------------------------------===//
// Execution
//===----------------------------------------------------------------------===//

struct ExecPlan::ExecState {
  /// A linalg.generic operand resolved for one execution; for projected
  /// permutations the map is folded into per-loop-dim stride
  /// contributions so each point's linear index is a plain dot product.
  struct GenericOperand {
    const MemRefDesc *Desc;
    bool IsF32;
    bool Projected;
    int64_t DimStride[runtime::detail::MaxCopyRank];
  };

  sim::SoC &Soc;
  runtime::DmaRuntime *Runtime;
  std::vector<Cell> Cells;
  std::string Error;
  /// runGeneric's operand table and odometer point, kept for the run so
  /// that only the first linalg.generic execution allocates them.
  std::vector<GenericOperand> GenericOperands;
  std::vector<int64_t> GenericPoint;

  ExecState(sim::SoC &Soc, runtime::DmaRuntime *Runtime)
      : Soc(Soc), Runtime(Runtime) {}

  LogicalResult fail(std::string Message) {
    if (Error.empty())
      Error = std::move(Message);
    return failure();
  }
};

namespace {

/// Word -> dynamic value / dynamic value -> word, matching the walker's
/// load/store conversions exactly. Templated so the anonymous namespace
/// can name ExecPlan's private Cell type through deduction.
template <typename CellT> inline void wordToCellImpl(uint32_t Word, bool IsF32, CellT &C) {
  if (IsF32) {
    C.Tag = CellT::Kind::Float;
    C.F = static_cast<double>(sim::wordToFloat(Word));
  } else {
    C.Tag = CellT::Kind::Int;
    C.I = static_cast<int32_t>(Word);
  }
}

template <typename CellT> inline uint32_t cellToWordImpl(const CellT &C, bool IsF32) {
  if (IsF32)
    return sim::floatToWord(static_cast<float>(
        C.Tag == CellT::Kind::Float ? C.F : static_cast<double>(C.I)));
  return static_cast<uint32_t>(static_cast<int32_t>(
      C.Tag == CellT::Kind::Float ? sim::doubleToInt64(C.F) : C.I));
}

} // namespace

LogicalResult ExecPlan::runSpan(const std::vector<Inst> &Code,
                                ExecState &S) const {
  sim::HostPerfModel &Perf = S.Soc.perf();
  for (size_t Pc = 0; Pc < Code.size(); ++Pc) {
    const Inst &I = Code[Pc];
    switch (I.Code) {
    case Op::ConstInt: {
      Cell &C = S.Cells[I.Dst];
      C.Tag = Cell::Kind::Int;
      C.I = I.Imm;
      break;
    }
    case Op::ConstFloat: {
      Cell &C = S.Cells[I.Dst];
      C.Tag = Cell::Kind::Float;
      C.F = I.FImm;
      break;
    }
    case Op::Binary: {
      const Cell &LHS = S.Cells[I.A];
      const Cell &RHS = S.Cells[I.B];
      Perf.onArith(1);
      // The LHS tag selects the interpretation of both operands, exactly
      // as in the legacy walker.
      bool IsFloat = LHS.Tag == Cell::Kind::Float;
      double A = IsFloat ? LHS.F : static_cast<double>(LHS.I);
      double B = IsFloat ? RHS.F : static_cast<double>(RHS.I);
      double R = 0;
      switch (static_cast<BinKind>(I.Sub & 0x7)) {
      case BinKind::Add:
        R = A + B;
        break;
      case BinKind::Mul:
        R = A * B;
        break;
      case BinKind::Sub:
        R = A - B;
        break;
      case BinKind::Div:
        R = A / B;
        break;
      case BinKind::Max:
        R = A > B ? A : B;
        break;
      }
      Cell &D = S.Cells[I.Dst];
      if (I.Sub & BinFloatResult) {
        D.Tag = Cell::Kind::Float;
        D.F = R;
      } else {
        D.Tag = Cell::Kind::Int;
        D.I = sim::doubleToInt64(R);
      }
      break;
    }
    case Op::IndexCast: {
      S.Cells[I.Dst] = S.Cells[I.A];
      break;
    }
    case Op::LoopBegin: {
      int64_t LowerBound = S.Cells[I.A].I;
      int64_t UpperBound = S.Cells[I.B].I;
      int64_t Step = S.Cells[I.C].I;
      if (Step <= 0)
        return S.fail("scf.for requires a positive step");
      if (LowerBound >= UpperBound) {
        Pc = static_cast<size_t>(I.Aux) - 1; // continue after LoopEnd
        break;
      }
      Perf.onLoopIteration();
      Cell &Iv = S.Cells[I.Dst];
      Iv.Tag = Cell::Kind::Int;
      Iv.I = LowerBound;
      break;
    }
    case Op::LoopEnd: {
      Cell &Iv = S.Cells[I.Dst];
      int64_t Next = Iv.I + S.Cells[I.C].I;
      if (Next < S.Cells[I.B].I) {
        Perf.onLoopIteration();
        Iv.I = Next;
        Pc = static_cast<size_t>(I.Aux) - 1; // jump to loop body
      }
      break;
    }
    case Op::Alloc: {
      const AllocPlan &Info = Allocs[I.Aux];
      Perf.onArith(10); // allocator call
      Cell &C = S.Cells[I.Dst];
      C.Tag = Cell::Kind::MemRef;
      C.M = MemRefDesc::alloc(Info.Shape, Info.Kind);
      break;
    }
    case Op::Dealloc: {
      Perf.onArith(10);
      break;
    }
    case Op::Load: {
      const MemRefDesc &Desc = S.Cells[I.A].M;
      const int32_t *IndexSlots = SlotPool.data() + I.Aux;
      int64_t Linear = Desc.Offset;
      for (unsigned K = 0; K < I.Sub; ++K) {
        int64_t Index = S.Cells[IndexSlots[K]].I;
        assert(Index >= 0 && Index < Desc.Sizes[K] &&
               "memref index out of bounds");
        Linear += Index * Desc.Strides[K];
      }
      Perf.onArith(I.Sub); // address computation
      Perf.onScalarLoad(Desc.addressOf(Linear), 4);
      uint32_t Word = Desc.Buffer->Data[static_cast<size_t>(Linear)];
      wordToCellImpl(Word, Desc.kind() == sim::ElemKind::F32,
                     S.Cells[I.Dst]);
      break;
    }
    case Op::Store: {
      const MemRefDesc &Desc = S.Cells[I.B].M;
      const int32_t *IndexSlots = SlotPool.data() + I.Aux;
      int64_t Linear = Desc.Offset;
      for (unsigned K = 0; K < I.Sub; ++K) {
        int64_t Index = S.Cells[IndexSlots[K]].I;
        assert(Index >= 0 && Index < Desc.Sizes[K] &&
               "memref index out of bounds");
        Linear += Index * Desc.Strides[K];
      }
      Perf.onArith(I.Sub);
      Perf.onScalarStore(Desc.addressOf(Linear), 4);
      Desc.Buffer->Data[static_cast<size_t>(Linear)] = cellToWordImpl(
          S.Cells[I.A], Desc.kind() == sim::ElemKind::F32);
      break;
    }
    case Op::Copy: {
      std::string Error;
      if (failed(runtime::copyMemRef(Perf, S.Cells[I.A].M, S.Cells[I.B].M,
                                     Error)))
        return S.fail(std::move(Error));
      break;
    }
    case Op::SubView: {
      const SubViewPlan &Info = SubViews[I.Aux];
      const MemRefDesc &Source = S.Cells[I.A].M;
      assert(Info.NumOffsets == Source.rank() && "subview offset count");
      const int32_t *OffsetSlots = SlotPool.data() + Info.PoolOffset;
      Perf.onArith(2 * Source.rank()); // descriptor arithmetic
      Cell &C = S.Cells[I.Dst];
      C.Tag = Cell::Kind::MemRef;
      C.M.assignSubview(
          Source, [&](unsigned D) { return S.Cells[OffsetSlots[D]].I; },
          Info.StaticSizes);
      break;
    }
    case Op::Generic: {
      if (failed(runGeneric(Generics[I.Aux], S)))
        return failure();
      break;
    }

    //===----------------------------------------------------------------===//
    // axirt runtime calls
    //===----------------------------------------------------------------===//
    case Op::CallDmaInit:
    case Op::CallCopyToDma:
    case Op::CallCopyLiteralToDma:
    case Op::CallSend:
    case Op::CallRecv:
    case Op::CallCopyFromDma: {
      if (!S.Runtime)
        return S.fail("runtime call executed without a DMA runtime");
      runtime::DmaRuntime &Rt = *S.Runtime;
      switch (I.Code) {
      case Op::CallDmaInit:
        Rt.dmaInit(DmaConfigs[I.Aux]);
        break;
      case Op::CallCopyToDma: {
        int64_t End = Rt.copyToDmaRegion(S.Cells[I.A].M, S.Cells[I.B].I);
        Cell &C = S.Cells[I.Dst];
        C.Tag = Cell::Kind::Int;
        C.I = End;
        break;
      }
      case Op::CallCopyLiteralToDma: {
        int64_t End = Rt.copyLiteralToDmaRegion(
            static_cast<int32_t>(S.Cells[I.A].I), S.Cells[I.B].I);
        Cell &C = S.Cells[I.Dst];
        C.Tag = Cell::Kind::Int;
        C.I = End;
        break;
      }
      case Op::CallSend:
        // The walker's start and wait calls, in order; like the walker,
        // a failed start is never waited for.
        Rt.dmaStartSend(S.Cells[I.A].I - S.Cells[I.B].I, S.Cells[I.B].I);
        if (Rt.status() == sim::AccelStatus::Ok)
          Rt.dmaWaitSendCompletion();
        break;
      case Op::CallRecv:
        Rt.dmaStartRecv(S.Cells[I.A].I, S.Cells[I.B].I);
        if (Rt.status() == sim::AccelStatus::Ok)
          Rt.dmaWaitRecvCompletion();
        break;
      case Op::CallCopyFromDma:
        Rt.copyFromDmaRegion(S.Cells[I.A].M, S.Cells[I.B].I, I.Sub != 0);
        break;
      default:
        break;
      }
      if (Rt.status() != sim::AccelStatus::Ok)
        return S.fail(Rt.statusErrorText());
      break;
    }
    }
  }
  return success();
}

LogicalResult ExecPlan::runGeneric(const GenericPlan &G, ExecState &S) const {
  sim::HostPerfModel &Perf = S.Soc.perf();
  const unsigned NumLoops = static_cast<unsigned>(G.Ranges.size());
  const unsigned NumOperands = static_cast<unsigned>(G.Operands.size());

  // Resolve descriptors once per generic execution, into the run's
  // scratch arrays. They are taken here and handed back at the end, so a
  // body that runs a generic of its own gets fresh ones.
  assert(NumLoops <= runtime::detail::MaxCopyRank &&
         "loop nest beyond plan odometer cap");
  std::vector<ExecState::GenericOperand> Ops = std::move(S.GenericOperands);
  Ops.resize(NumOperands);
  for (unsigned K = 0; K < NumOperands; ++K) {
    const OperandPlan &P = G.Operands[K];
    ExecState::GenericOperand &R = Ops[K];
    R.Desc = &S.Cells[P.Slot].M;
    R.IsF32 = R.Desc->kind() == sim::ElemKind::F32;
    R.Projected = P.Projected;
    if (P.Projected) {
      for (unsigned D = 0; D < NumLoops; ++D)
        R.DimStride[D] = 0;
      for (unsigned Idx = 0; Idx < P.DimPos.size(); ++Idx)
        R.DimStride[P.DimPos[Idx]] += R.Desc->Strides[Idx];
    }
  }

  auto linearAt = [&](unsigned K,
                      const std::vector<int64_t> &Point) -> int64_t {
    const ExecState::GenericOperand &R = Ops[K];
    int64_t Linear = R.Desc->Offset;
    if (R.Projected) {
      for (unsigned D = 0; D < NumLoops; ++D)
        Linear += Point[D] * R.DimStride[D];
      return Linear;
    }
    const OperandPlan &P = G.Operands[K];
    for (unsigned Idx = 0; Idx < P.Exprs.size(); ++Idx) {
      int64_t Index = P.Exprs[Idx].eval(Point);
      assert(Index >= 0 && Index < R.Desc->Sizes[Idx] &&
             "memref index out of bounds");
      Linear += Index * R.Desc->Strides[Idx];
    }
    return Linear;
  };

  // Odometer over the iteration space; models the compiled loop nest.
  std::vector<int64_t> Point = std::move(S.GenericPoint);
  Point.assign(NumLoops, 0);
  bool Done = product(G.Ranges) == 0;
  while (!Done) {
    Perf.onLoopIteration();
    Perf.onArith(3); // indexing arithmetic per point

    // Bind payload arguments: input elements then current output elements.
    for (unsigned K = 0; K < NumOperands; ++K) {
      int64_t Linear = linearAt(K, Point);
      Perf.onScalarLoad(Ops[K].Desc->addressOf(Linear), 4);
      uint32_t Word =
          Ops[K].Desc->Buffer->Data[static_cast<size_t>(Linear)];
      wordToCellImpl(Word, Ops[K].IsF32, S.Cells[G.BodyArgSlots[K]]);
    }

    // Run the pre-compiled payload, then store the yielded values.
    if (!G.Body.empty() && failed(runSpan(G.Body, S)))
      return failure();
    for (unsigned O = 0; O < G.YieldSlots.size(); ++O) {
      unsigned OperandIdx = G.NumInputs + O;
      int64_t Linear = linearAt(OperandIdx, Point);
      Perf.onScalarStore(Ops[OperandIdx].Desc->addressOf(Linear), 4);
      Ops[OperandIdx].Desc->Buffer->Data[static_cast<size_t>(Linear)] =
          cellToWordImpl(S.Cells[G.YieldSlots[O]], Ops[OperandIdx].IsF32);
    }

    // Advance the odometer (innermost dimension fastest).
    Done = true;
    for (int D = static_cast<int>(NumLoops) - 1; D >= 0; --D) {
      if (++Point[D] < G.Ranges[D]) {
        Done = false;
        break;
      }
      Point[D] = 0;
    }
  }
  S.GenericOperands = std::move(Ops);
  S.GenericPoint = std::move(Point);
  return success();
}

LogicalResult ExecPlan::run(sim::SoC &Soc, runtime::DmaRuntime *Runtime,
                            const std::vector<MemRefDesc> &Arguments,
                            std::string &Error) const {
  if (Arguments.size() != NumArgs) {
    Error = "argument count mismatch calling '" + FuncName + "'";
    return failure();
  }
  ExecState S(Soc, Runtime);
  S.Cells.resize(NumSlots);
  for (unsigned Idx = 0; Idx < NumArgs; ++Idx) {
    S.Cells[Idx].Tag = Cell::Kind::MemRef;
    S.Cells[Idx].M = Arguments[Idx];
  }
  if (failed(runSpan(Program, S))) {
    Error = S.Error.empty() ? "interpreter failure" : S.Error;
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
