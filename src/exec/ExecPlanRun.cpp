//===- ExecPlanRun.cpp - Threaded-dispatch ExecPlan executor --------------===//
//
// Part of the AXI4MLIR reproduction. MIT licensed.
//
//===----------------------------------------------------------------------===//
//
// Decode stage + token-threaded dispatch loop + specialized odometer
// micro-kernels. The contract with ExecPlan::run is exact: identical
// buffers, identical diagnostics, and an identical sequence of
// HostPerfModel charges (same events, same order, same addresses), so
// every modeled counter is bit-identical. PlanEquivalenceFuzzTest pins
// this differentially for every fuzz case.
//
//===----------------------------------------------------------------------===//

#include "exec/ExecPlanRun.h"

#include "runtime/StridedCopy.h"

#include <cassert>
#include <ostream>
#include <sstream>

using namespace axi4mlir;
using namespace axi4mlir::exec;
using runtime::MemRefDesc;

//===----------------------------------------------------------------------===//
// ExecMode
//===----------------------------------------------------------------------===//

namespace axi4mlir {
namespace exec {

LogicalResult parseExecMode(const std::string &Text, ExecMode &Mode,
                            std::string &Error) {
  if (Text == "walker") {
    Mode = ExecMode::Walker;
    return success();
  }
  if (Text == "threaded") {
    Mode = ExecMode::Threaded;
    return success();
  }
  Error = "unknown exec mode '" + Text + "' (expected walker|threaded)";
  return failure();
}

const char *toString(ExecMode Mode) {
  switch (Mode) {
  case ExecMode::Walker:
    return "walker";
  case ExecMode::Threaded:
    return "threaded";
  }
  return "?";
}

} // namespace exec
} // namespace axi4mlir

//===----------------------------------------------------------------------===//
// Word <-> dynamic value conversions (same trick as ExecPlan.cpp: templated
// so this file can name ExecPlan's private Cell type through deduction).
//===----------------------------------------------------------------------===//

namespace {

template <typename CellT>
inline void wordToCellImpl(uint32_t Word, bool IsF32, CellT &C) {
  if (IsF32) {
    C.Tag = CellT::Kind::Float;
    C.F = static_cast<double>(sim::wordToFloat(Word));
  } else {
    C.Tag = CellT::Kind::Int;
    C.I = static_cast<int32_t>(Word);
  }
}

template <typename CellT>
inline uint32_t cellToWordImpl(const CellT &C, bool IsF32) {
  if (IsF32)
    return sim::floatToWord(static_cast<float>(
        C.Tag == CellT::Kind::Float ? C.F : static_cast<double>(C.I)));
  return static_cast<uint32_t>(static_cast<int32_t>(
      C.Tag == CellT::Kind::Float ? sim::doubleToInt64(C.F) : C.I));
}

/// Decomposes \p Expr into Const + sum_d Coef[d]*d over the loop dims.
/// Returns false (kernel specialization illegal, generic odometer stays)
/// for Mod/FloorDiv/Symbol or products of two dim-carrying terms.
bool linearizeExpr(const AffineExpr &Expr, unsigned NumLoops, int64_t &Const,
                   std::vector<int64_t> &Coef) {
  switch (Expr.getKind()) {
  case AffineExpr::Kind::Constant:
    Const += Expr.getConstantValue();
    return true;
  case AffineExpr::Kind::Dim: {
    unsigned Pos = Expr.getPosition();
    if (Pos >= NumLoops)
      return false;
    Coef[Pos] += 1;
    return true;
  }
  case AffineExpr::Kind::Add:
    return linearizeExpr(Expr.getLHS(), NumLoops, Const, Coef) &&
           linearizeExpr(Expr.getRHS(), NumLoops, Const, Coef);
  case AffineExpr::Kind::Mul: {
    int64_t CL = 0, CR = 0;
    std::vector<int64_t> L(NumLoops, 0), R(NumLoops, 0);
    if (!linearizeExpr(Expr.getLHS(), NumLoops, CL, L) ||
        !linearizeExpr(Expr.getRHS(), NumLoops, CR, R))
      return false;
    auto AllZero = [](const std::vector<int64_t> &V) {
      for (int64_t X : V)
        if (X)
          return false;
      return true;
    };
    if (AllZero(L)) {
      Const += CL * CR;
      for (unsigned D = 0; D < NumLoops; ++D)
        Coef[D] += CL * R[D];
      return true;
    }
    if (AllZero(R)) {
      Const += CL * CR;
      for (unsigned D = 0; D < NumLoops; ++D)
        Coef[D] += CR * L[D];
      return true;
    }
    return false; // d_i * d_j: not linear
  }
  default:
    return false; // Mod, FloorDiv, Symbol
  }
}

} // namespace

//===----------------------------------------------------------------------===//
// DecodedProgram
//===----------------------------------------------------------------------===//

namespace axi4mlir {
namespace exec {

struct DecodedProgram {
  using Inst = ExecPlan::Inst;
  using Cell = ExecPlan::Cell;
  using AllocPlan = ExecPlan::AllocPlan;
  using SubViewPlan = ExecPlan::SubViewPlan;
  using GenericPlan = ExecPlan::GenericPlan;
  using OperandPlan = ExecPlan::OperandPlan;
  using BinKind = ExecPlan::BinKind;
  using PlanOp = ExecPlan::Op;

  /// Dispatch-ready opcodes: ExecPlan's opcodes (same numeric values) plus
  /// the specialized generic kernels and the span-end sentinel. The
  /// computed-goto jump table is indexed by this value, so the handler
  /// order in exec() must match this order exactly.
  enum class DOp : uint8_t {
    ConstInt,
    ConstFloat,
    Binary,
    IndexCast,
    LoopBegin,
    LoopEnd,
    Alloc,
    Dealloc,
    Load,
    Store,
    Copy,
    SubView,
    Generic,
    CallDmaInit,
    CallCopyToDma,
    CallCopyLiteralToDma,
    CallSend,
    CallRecv,
    CallCopyFromDma,
    /// linalg.generic bodies bound to specialized micro-kernels.
    GenericMulAdd,
    GenericCopy,
    GenericEltwise,
    /// End of a span (appended to the program and every generic body).
    Return,
  };
  static constexpr unsigned NumDOps = static_cast<unsigned>(DOp::Return) + 1;

  /// One dispatch-ready instruction: the original operand slots plus
  /// pre-resolved side-table and slot-pool pointers (no per-dispatch
  /// indexing through the plan's tables).
  struct DInst {
    DOp Code = DOp::Return;
    uint8_t Sub = 0;
    int32_t Dst = -1;
    int32_t A = -1;
    int32_t B = -1;
    int32_t C = -1;
    int32_t Aux = -1;
    int64_t Imm = 0;
    double FImm = 0;
    const void *Side = nullptr;  ///< Alloc/SubView/Generic/DmaConfig entry.
    const int32_t *Pool = nullptr; ///< Load/Store index-slot list.
  };

  /// Per-operand linear decomposition of the indexing map: map result r
  /// equals Consts[r] + sum_d Coef[r][d] * d. Folded against the runtime
  /// strides once per kernel execution.
  struct LinFold {
    bool Linear = false;
    std::vector<int64_t> Consts;            ///< One per map result.
    std::vector<std::vector<int64_t>> Coef; ///< [result][loop dim].
  };

  enum class GKind : uint8_t { Odometer, MulAdd, CopyK, Eltwise };

  /// Decode-time classification of one linalg.generic site.
  struct DecodedGeneric {
    const GenericPlan *G = nullptr; ///< Our copy in Generics.
    GKind Kind = GKind::Odometer;
    std::vector<LinFold> Lin;   ///< Per operand (valid when all Linear).
    std::vector<DInst> BodyCode; ///< Decoded payload span (+ Return).
    // MulAdd: t = mul(V[MulArgA], V[MulArgB]); y = add with t on the
    // recorded side and V[AddArg] on the other; yield y.
    uint8_t MulArgA = 0, MulArgB = 0, AddArg = 0;
    bool AddTOnLhs = false;
    uint8_t MulSub = 0, AddSub = 0;
    // Eltwise: y = bin(V[EltArgA], V[EltArgB]); yield y.
    uint8_t EltArgA = 0, EltArgB = 0, EltSub = 0;
  };

  //===--------------------------------------------------------------------===//
  // State
  //===--------------------------------------------------------------------===//

  std::string FuncName;
  unsigned NumArgs = 0;
  unsigned NumSlots = 0;
  std::vector<int32_t> SlotPool;
  std::vector<AllocPlan> Allocs;
  std::vector<SubViewPlan> SubViews;
  std::vector<GenericPlan> Generics;
  std::vector<accel::DmaInitConfig> DmaConfigs;
  std::vector<DecodedGeneric> DGenerics;
  std::vector<DInst> Code;
  unsigned NumSpecialized = 0;

  struct RunState {
    /// A linalg.generic operand as runOdometer resolves it (the same
    /// record as ExecPlan::runGeneric's).
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
    /// runOdometer's operand table and point, kept for the run so that
    /// only the first odometer execution allocates them.
    std::vector<GenericOperand> GenericOperands;
    std::vector<int64_t> GenericPoint;

    RunState(sim::SoC &Soc, runtime::DmaRuntime *Runtime)
        : Soc(Soc), Runtime(Runtime) {}

    LogicalResult fail(std::string Message) {
      if (Error.empty())
        Error = std::move(Message);
      return failure();
    }
  };

  //===--------------------------------------------------------------------===//
  // Entry points (defined below)
  //===--------------------------------------------------------------------===//

  void decode(const ExecPlan &Plan);
  LogicalResult run(sim::SoC &Soc, runtime::DmaRuntime *Runtime,
                    const std::vector<MemRefDesc> &Arguments,
                    std::string &Error) const;
  void print(std::ostream &OS) const;

private:
  void decodeSpan(const std::vector<Inst> &In, std::vector<DInst> &Out);
  void classifyGeneric(DecodedGeneric &DG);
  LogicalResult exec(const DInst *Base, RunState &S) const;
  LogicalResult runOdometer(const DecodedGeneric &DG, RunState &S) const;
  int classifyKinds(const DecodedGeneric &DG, RunState &S) const;
  template <bool IsF32>
  void mulAddKernel(const DecodedGeneric &DG, RunState &S) const;
  template <bool IsF32>
  void copyKernel(const DecodedGeneric &DG, RunState &S) const;
  template <bool IsF32>
  void eltwiseKernel(const DecodedGeneric &DG, RunState &S) const;
};

} // namespace exec
} // namespace axi4mlir

using DOp = DecodedProgram::DOp;
using DInst = DecodedProgram::DInst;

// Decode relies on ExecPlan::Op values mapping onto the DOp prefix 1:1.
static_assert(static_cast<uint8_t>(DecodedProgram::PlanOp::ConstInt) ==
                  static_cast<uint8_t>(DOp::ConstInt),
              "DOp must begin with ExecPlan's opcodes");
static_assert(static_cast<uint8_t>(DecodedProgram::PlanOp::Generic) ==
                  static_cast<uint8_t>(DOp::Generic),
              "DOp must begin with ExecPlan's opcodes");
static_assert(static_cast<uint8_t>(DecodedProgram::PlanOp::LastOp) ==
                  static_cast<uint8_t>(DOp::CallCopyFromDma),
              "DOp must begin with ExecPlan's opcodes");

//===----------------------------------------------------------------------===//
// Decode
//===----------------------------------------------------------------------===//

void DecodedProgram::decodeSpan(const std::vector<Inst> &In,
                                std::vector<DInst> &Out) {
  Out.clear();
  Out.reserve(In.size() + 1);
  for (const Inst &I : In) {
    DInst D;
    // ExecPlan::Op and the DOp prefix coincide numerically.
    D.Code = static_cast<DOp>(static_cast<uint8_t>(I.Code));
    D.Sub = I.Sub;
    D.Dst = I.Dst;
    D.A = I.A;
    D.B = I.B;
    D.C = I.C;
    D.Aux = I.Aux;
    D.Imm = I.Imm;
    D.FImm = I.FImm;
    switch (I.Code) {
    case PlanOp::Load:
    case PlanOp::Store:
      D.Pool = SlotPool.data() + I.Aux;
      break;
    case PlanOp::Alloc:
      D.Side = &Allocs[I.Aux];
      break;
    case PlanOp::SubView:
      D.Side = &SubViews[I.Aux];
      break;
    case PlanOp::Generic: {
      const DecodedGeneric &DG = DGenerics[I.Aux];
      D.Side = &DG;
      switch (DG.Kind) {
      case GKind::MulAdd:
        D.Code = DOp::GenericMulAdd;
        break;
      case GKind::CopyK:
        D.Code = DOp::GenericCopy;
        break;
      case GKind::Eltwise:
        D.Code = DOp::GenericEltwise;
        break;
      case GKind::Odometer:
        break;
      }
      break;
    }
    case PlanOp::CallDmaInit:
      D.Side = &DmaConfigs[I.Aux];
      break;
    default:
      break;
    }
    Out.push_back(D);
  }
  Out.push_back(DInst()); // Return sentinel (also the empty-loop target)
}

void DecodedProgram::classifyGeneric(DecodedGeneric &DG) {
  const GenericPlan &G = *DG.G;
  const unsigned NumLoops = static_cast<unsigned>(G.Ranges.size());
  DG.Kind = GKind::Odometer;

  // Outputs are single-yield only, and the kernels index body arguments
  // by operand position, so operands and body args must line up 1:1.
  if (G.Operands.size() != G.BodyArgSlots.size() ||
      G.Operands.size() != static_cast<size_t>(G.NumInputs) + 1 ||
      G.YieldSlots.size() != 1)
    return;

  // Every operand's indexing map must be linear in the loop dims so the
  // per-dim stride fold (and thus the hardwired inner-loop increments)
  // computes exactly the addresses the generic odometer would.
  DG.Lin.assign(G.Operands.size(), LinFold());
  for (size_t K = 0; K < G.Operands.size(); ++K) {
    const OperandPlan &P = G.Operands[K];
    LinFold &L = DG.Lin[K];
    size_t NumResults = P.Projected ? P.DimPos.size() : P.Exprs.size();
    L.Consts.assign(NumResults, 0);
    L.Coef.assign(NumResults, std::vector<int64_t>(NumLoops, 0));
    L.Linear = true;
    if (P.Projected) {
      for (size_t R = 0; R < P.DimPos.size(); ++R)
        L.Coef[R][P.DimPos[R]] += 1;
    } else {
      for (size_t R = 0; R < P.Exprs.size(); ++R)
        if (!linearizeExpr(P.Exprs[R], NumLoops, L.Consts[R], L.Coef[R])) {
          L.Linear = false;
          break;
        }
    }
    if (!L.Linear)
      return;
  }

  auto ArgIndex = [&](int32_t Slot) -> int {
    for (size_t K = 0; K < G.BodyArgSlots.size(); ++K)
      if (G.BodyArgSlots[K] == Slot)
        return static_cast<int>(K);
    return -1;
  };

  // Staging copy: empty body yielding the input element.
  if (G.Body.empty() && G.Operands.size() == 2 &&
      G.YieldSlots[0] == G.BodyArgSlots[0]) {
    DG.Kind = GKind::CopyK;
    return;
  }

  // Elementwise epilogue: one binary over two body args, yielded.
  if (G.Body.size() == 1 && G.Body[0].Code == PlanOp::Binary &&
      G.YieldSlots[0] == G.Body[0].Dst && ArgIndex(G.Body[0].Dst) < 0 &&
      G.Operands.size() <= 4) {
    int A = ArgIndex(G.Body[0].A);
    int B = ArgIndex(G.Body[0].B);
    if (A >= 0 && B >= 0) {
      DG.Kind = GKind::Eltwise;
      DG.EltArgA = static_cast<uint8_t>(A);
      DG.EltArgB = static_cast<uint8_t>(B);
      DG.EltSub = G.Body[0].Sub;
      return;
    }
  }

  // Accumulating mul+add (matmul, and conv via the linear fold above):
  //   t = mul(arg, arg); y = add(arg, t) | add(t, arg); yield y.
  if (G.Body.size() == 2 && G.Body[0].Code == PlanOp::Binary &&
      G.Body[1].Code == PlanOp::Binary &&
      static_cast<BinKind>(G.Body[0].Sub & 0x7) == BinKind::Mul &&
      static_cast<BinKind>(G.Body[1].Sub & 0x7) == BinKind::Add &&
      G.Operands.size() == 3 && G.YieldSlots[0] == G.Body[1].Dst &&
      G.Body[1].Dst != G.Body[0].Dst && ArgIndex(G.Body[0].Dst) < 0) {
    int MA = ArgIndex(G.Body[0].A);
    int MB = ArgIndex(G.Body[0].B);
    if (MA < 0 || MB < 0)
      return;
    int32_t T = G.Body[0].Dst;
    int Other = -1;
    bool TOnLhs = false;
    if (G.Body[1].A == T && (Other = ArgIndex(G.Body[1].B)) >= 0)
      TOnLhs = true;
    else if (G.Body[1].B == T && (Other = ArgIndex(G.Body[1].A)) >= 0)
      TOnLhs = false;
    else
      return;
    DG.Kind = GKind::MulAdd;
    DG.MulArgA = static_cast<uint8_t>(MA);
    DG.MulArgB = static_cast<uint8_t>(MB);
    DG.AddArg = static_cast<uint8_t>(Other);
    DG.AddTOnLhs = TOnLhs;
    DG.MulSub = G.Body[0].Sub;
    DG.AddSub = G.Body[1].Sub;
  }
}

void DecodedProgram::decode(const ExecPlan &Plan) {
  // Copy everything first so every Side/Pool pointer built below stays
  // stable for the life of the decoded program.
  FuncName = Plan.FuncName;
  NumArgs = Plan.NumArgs;
  NumSlots = Plan.NumSlots;
  SlotPool = Plan.SlotPool;
  Allocs = Plan.Allocs;
  SubViews = Plan.SubViews;
  Generics = Plan.Generics;
  DmaConfigs = Plan.DmaConfigs;

  DGenerics.resize(Generics.size());
  for (size_t K = 0; K < Generics.size(); ++K) {
    DGenerics[K].G = &Generics[K];
    classifyGeneric(DGenerics[K]);
    if (DGenerics[K].Kind != GKind::Odometer)
      ++NumSpecialized;
  }
  // Bodies may themselves contain generics, so decode them after every
  // site is classified.
  for (size_t K = 0; K < Generics.size(); ++K)
    decodeSpan(Generics[K].Body, DGenerics[K].BodyCode);
  decodeSpan(Plan.Program, Code);
}

//===----------------------------------------------------------------------===//
// Dispatch loop
//===----------------------------------------------------------------------===//

// Token threading: every handler ends by jumping straight to the next
// instruction's handler through the table (computed goto, a GNU extension
// GCC and Clang both provide).
#define DISPATCH() goto *JumpTable[static_cast<uint8_t>(Ip->Code)]

// Runtime-facing handlers bounce out the moment a DMA call reports a
// non-Ok status, with the same failure text as the other two executors
// (recovery has already absorbed whatever it could by then).
#define RT_STATUS_CHECK(Rt)                                                    \
  do {                                                                         \
    if ((Rt).status() != sim::AccelStatus::Ok)                                 \
      return S.fail((Rt).statusErrorText());                                   \
  } while (false)

LogicalResult DecodedProgram::exec(const DInst *Base, RunState &S) const {
  sim::HostPerfModel &Perf = S.Soc.perf();
  Cell *Cells = S.Cells.data();
  const DInst *Ip = Base;

  // One entry per DOp, in DOp order.
  static const void *const JumpTable[NumDOps] = {
      &&H_ConstInt,
      &&H_ConstFloat,
      &&H_Binary,
      &&H_IndexCast,
      &&H_LoopBegin,
      &&H_LoopEnd,
      &&H_Alloc,
      &&H_Dealloc,
      &&H_Load,
      &&H_Store,
      &&H_Copy,
      &&H_SubView,
      &&H_Generic,
      &&H_CallDmaInit,
      &&H_CallCopyToDma,
      &&H_CallCopyLiteralToDma,
      &&H_CallSend,
      &&H_CallRecv,
      &&H_CallCopyFromDma,
      &&H_GenericMulAdd,
      &&H_GenericCopy,
      &&H_GenericEltwise,
      &&H_Return,
  };
  DISPATCH();

  H_ConstInt: {
    Cell &C = Cells[Ip->Dst];
    C.Tag = Cell::Kind::Int;
    C.I = Ip->Imm;
    ++Ip;
    DISPATCH();
  }
  H_ConstFloat: {
    Cell &C = Cells[Ip->Dst];
    C.Tag = Cell::Kind::Float;
    C.F = Ip->FImm;
    ++Ip;
    DISPATCH();
  }
  H_Binary: {
    const Cell &LHS = Cells[Ip->A];
    const Cell &RHS = Cells[Ip->B];
    Perf.onArith(1);
    // The LHS tag selects the interpretation of both operands, exactly
    // as in the walker and the plan interpreter.
    bool IsFloat = LHS.Tag == Cell::Kind::Float;
    double A = IsFloat ? LHS.F : static_cast<double>(LHS.I);
    double B = IsFloat ? RHS.F : static_cast<double>(RHS.I);
    double R = 0;
    switch (static_cast<BinKind>(Ip->Sub & 0x7)) {
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
    Cell &D = Cells[Ip->Dst];
    if (Ip->Sub & ExecPlan::BinFloatResult) {
      D.Tag = Cell::Kind::Float;
      D.F = R;
    } else {
      D.Tag = Cell::Kind::Int;
      D.I = sim::doubleToInt64(R);
    }
    ++Ip;
    DISPATCH();
  }
  H_IndexCast: {
    Cells[Ip->Dst] = Cells[Ip->A];
    ++Ip;
    DISPATCH();
  }
  H_LoopBegin: {
    int64_t LowerBound = Cells[Ip->A].I;
    int64_t UpperBound = Cells[Ip->B].I;
    int64_t Step = Cells[Ip->C].I;
    if (Step <= 0)
      return S.fail("scf.for requires a positive step");
    if (LowerBound >= UpperBound) {
      Ip = Base + Ip->Aux; // continue after LoopEnd
      DISPATCH();
    }
    Perf.onLoopIteration();
    Cell &Iv = Cells[Ip->Dst];
    Iv.Tag = Cell::Kind::Int;
    Iv.I = LowerBound;
    ++Ip;
    DISPATCH();
  }
  H_LoopEnd: {
    Cell &Iv = Cells[Ip->Dst];
    int64_t Next = Iv.I + Cells[Ip->C].I;
    if (Next < Cells[Ip->B].I) {
      Perf.onLoopIteration();
      Iv.I = Next;
      Ip = Base + Ip->Aux; // back to the loop body
      DISPATCH();
    }
    ++Ip;
    DISPATCH();
  }
  H_Alloc: {
    const AllocPlan &Info = *static_cast<const AllocPlan *>(Ip->Side);
    Perf.onArith(10); // allocator call
    Cell &C = Cells[Ip->Dst];
    C.Tag = Cell::Kind::MemRef;
    C.M = MemRefDesc::alloc(Info.Shape, Info.Kind);
    ++Ip;
    DISPATCH();
  }
  H_Dealloc: {
    Perf.onArith(10);
    ++Ip;
    DISPATCH();
  }
  H_Load: {
    const MemRefDesc &Desc = Cells[Ip->A].M;
    const int32_t *IndexSlots = Ip->Pool;
    int64_t Linear = Desc.Offset;
    for (unsigned K = 0; K < Ip->Sub; ++K) {
      int64_t Index = Cells[IndexSlots[K]].I;
      assert(Index >= 0 && Index < Desc.Sizes[K] &&
             "memref index out of bounds");
      Linear += Index * Desc.Strides[K];
    }
    Perf.onArith(Ip->Sub); // address computation
    Perf.onScalarLoad(Desc.addressOf(Linear), 4);
    uint32_t Word = Desc.Buffer->Data[static_cast<size_t>(Linear)];
    wordToCellImpl(Word, Desc.kind() == sim::ElemKind::F32, Cells[Ip->Dst]);
    ++Ip;
    DISPATCH();
  }
  H_Store: {
    const MemRefDesc &Desc = Cells[Ip->B].M;
    const int32_t *IndexSlots = Ip->Pool;
    int64_t Linear = Desc.Offset;
    for (unsigned K = 0; K < Ip->Sub; ++K) {
      int64_t Index = Cells[IndexSlots[K]].I;
      assert(Index >= 0 && Index < Desc.Sizes[K] &&
             "memref index out of bounds");
      Linear += Index * Desc.Strides[K];
    }
    Perf.onArith(Ip->Sub);
    Perf.onScalarStore(Desc.addressOf(Linear), 4);
    Desc.Buffer->Data[static_cast<size_t>(Linear)] =
        cellToWordImpl(Cells[Ip->A], Desc.kind() == sim::ElemKind::F32);
    ++Ip;
    DISPATCH();
  }
  H_Copy: {
    std::string Error;
    if (failed(runtime::copyMemRef(Perf, Cells[Ip->A].M, Cells[Ip->B].M,
                                   Error)))
      return S.fail(std::move(Error));
    ++Ip;
    DISPATCH();
  }
  H_SubView: {
    const SubViewPlan &Info = *static_cast<const SubViewPlan *>(Ip->Side);
    const MemRefDesc &Source = Cells[Ip->A].M;
    assert(Info.NumOffsets == Source.rank() && "subview offset count");
    const int32_t *OffsetSlots = SlotPool.data() + Info.PoolOffset;
    Perf.onArith(2 * Source.rank()); // descriptor arithmetic
    Cell &C = Cells[Ip->Dst];
    C.Tag = Cell::Kind::MemRef;
    C.M.assignSubview(
        Source, [&](unsigned D) { return Cells[OffsetSlots[D]].I; },
        Info.StaticSizes);
    ++Ip;
    DISPATCH();
  }
  H_Generic: {
    const auto &DG = *static_cast<const DecodedGeneric *>(Ip->Side);
    if (failed(runOdometer(DG, S)))
      return failure();
    ++Ip;
    DISPATCH();
  }

  //===--------------------------------------------------------------------===//
  // axirt runtime calls
  //===--------------------------------------------------------------------===//
  H_CallDmaInit: {
    if (!S.Runtime)
      return S.fail("runtime call executed without a DMA runtime");
    S.Runtime->dmaInit(*static_cast<const accel::DmaInitConfig *>(Ip->Side));
    ++Ip;
    DISPATCH();
  }
  H_CallCopyToDma: {
    if (!S.Runtime)
      return S.fail("runtime call executed without a DMA runtime");
    int64_t End =
        S.Runtime->copyToDmaRegion(Cells[Ip->A].M, Cells[Ip->B].I);
    RT_STATUS_CHECK(*S.Runtime);
    Cell &C = Cells[Ip->Dst];
    C.Tag = Cell::Kind::Int;
    C.I = End;
    ++Ip;
    DISPATCH();
  }
  H_CallCopyLiteralToDma: {
    if (!S.Runtime)
      return S.fail("runtime call executed without a DMA runtime");
    int64_t End = S.Runtime->copyLiteralToDmaRegion(
        static_cast<int32_t>(Cells[Ip->A].I), Cells[Ip->B].I);
    RT_STATUS_CHECK(*S.Runtime);
    Cell &C = Cells[Ip->Dst];
    C.Tag = Cell::Kind::Int;
    C.I = End;
    ++Ip;
    DISPATCH();
  }
  H_CallSend: {
    if (!S.Runtime)
      return S.fail("runtime call executed without a DMA runtime");
    S.Runtime->dmaStartSend(Cells[Ip->A].I - Cells[Ip->B].I, Cells[Ip->B].I);
    RT_STATUS_CHECK(*S.Runtime); // a failed start is never waited for
    S.Runtime->dmaWaitSendCompletion();
    RT_STATUS_CHECK(*S.Runtime);
    ++Ip;
    DISPATCH();
  }
  H_CallRecv: {
    if (!S.Runtime)
      return S.fail("runtime call executed without a DMA runtime");
    S.Runtime->dmaStartRecv(Cells[Ip->A].I, Cells[Ip->B].I);
    RT_STATUS_CHECK(*S.Runtime);
    S.Runtime->dmaWaitRecvCompletion();
    RT_STATUS_CHECK(*S.Runtime);
    ++Ip;
    DISPATCH();
  }
  H_CallCopyFromDma: {
    if (!S.Runtime)
      return S.fail("runtime call executed without a DMA runtime");
    S.Runtime->copyFromDmaRegion(Cells[Ip->A].M, Cells[Ip->B].I,
                                 Ip->Sub != 0);
    RT_STATUS_CHECK(*S.Runtime);
    ++Ip;
    DISPATCH();
  }

  //===--------------------------------------------------------------------===//
  // specialized generic kernels (fall back to the odometer whenever the
  // runtime element kinds contradict the decode-time classification)
  //===--------------------------------------------------------------------===//
  H_GenericMulAdd: {
    const auto &DG = *static_cast<const DecodedGeneric *>(Ip->Side);
    int F32 = classifyKinds(DG, S);
    bool WantF = (DG.MulSub & ExecPlan::BinFloatResult) != 0;
    bool AddF = (DG.AddSub & ExecPlan::BinFloatResult) != 0;
    if (F32 < 0 || WantF != (F32 == 1) || AddF != (F32 == 1)) {
      if (failed(runOdometer(DG, S)))
        return failure();
    } else if (F32) {
      mulAddKernel<true>(DG, S);
    } else {
      mulAddKernel<false>(DG, S);
    }
    ++Ip;
    DISPATCH();
  }
  H_GenericCopy: {
    const auto &DG = *static_cast<const DecodedGeneric *>(Ip->Side);
    int F32 = classifyKinds(DG, S);
    if (F32 < 0) {
      if (failed(runOdometer(DG, S)))
        return failure();
    } else if (F32) {
      copyKernel<true>(DG, S);
    } else {
      copyKernel<false>(DG, S);
    }
    ++Ip;
    DISPATCH();
  }
  H_GenericEltwise: {
    const auto &DG = *static_cast<const DecodedGeneric *>(Ip->Side);
    int F32 = classifyKinds(DG, S);
    bool WantF = (DG.EltSub & ExecPlan::BinFloatResult) != 0;
    if (F32 < 0 || WantF != (F32 == 1)) {
      if (failed(runOdometer(DG, S)))
        return failure();
    } else if (F32) {
      eltwiseKernel<true>(DG, S);
    } else {
      eltwiseKernel<false>(DG, S);
    }
    ++Ip;
    DISPATCH();
  }

  H_Return:
    return success();
}

#undef DISPATCH
#undef RT_STATUS_CHECK

//===----------------------------------------------------------------------===//
// Generic odometer fallback (mirrors ExecPlan::runGeneric instruction for
// instruction; the body span runs through the threaded dispatcher)
//===----------------------------------------------------------------------===//

LogicalResult DecodedProgram::runOdometer(const DecodedGeneric &DG,
                                          RunState &S) const {
  const GenericPlan &G = *DG.G;
  sim::HostPerfModel &Perf = S.Soc.perf();
  const unsigned NumLoops = static_cast<unsigned>(G.Ranges.size());
  const unsigned NumOperands = static_cast<unsigned>(G.Operands.size());

  // The run's scratch arrays are taken here and handed back at the end,
  // so a body that runs a generic of its own gets fresh ones.
  assert(NumLoops <= runtime::detail::MaxCopyRank &&
         "loop nest beyond plan odometer cap");
  std::vector<RunState::GenericOperand> Ops = std::move(S.GenericOperands);
  Ops.resize(NumOperands);
  for (unsigned K = 0; K < NumOperands; ++K) {
    const OperandPlan &P = G.Operands[K];
    RunState::GenericOperand &R = Ops[K];
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

  auto LinearAt = [&](unsigned K,
                      const std::vector<int64_t> &Point) -> int64_t {
    const RunState::GenericOperand &R = Ops[K];
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

  std::vector<int64_t> Point = std::move(S.GenericPoint);
  Point.assign(NumLoops, 0);
  bool Done = product(G.Ranges) == 0;
  while (!Done) {
    Perf.onLoopIteration();
    Perf.onArith(3); // indexing arithmetic per point

    for (unsigned K = 0; K < NumOperands; ++K) {
      int64_t Linear = LinearAt(K, Point);
      Perf.onScalarLoad(Ops[K].Desc->addressOf(Linear), 4);
      uint32_t Word = Ops[K].Desc->Buffer->Data[static_cast<size_t>(Linear)];
      wordToCellImpl(Word, Ops[K].IsF32, S.Cells[G.BodyArgSlots[K]]);
    }

    if (!G.Body.empty() && failed(exec(DG.BodyCode.data(), S)))
      return failure();
    for (unsigned O = 0; O < G.YieldSlots.size(); ++O) {
      unsigned OperandIdx = G.NumInputs + O;
      int64_t Linear = LinearAt(OperandIdx, Point);
      Perf.onScalarStore(Ops[OperandIdx].Desc->addressOf(Linear), 4);
      Ops[OperandIdx].Desc->Buffer->Data[static_cast<size_t>(Linear)] =
          cellToWordImpl(S.Cells[G.YieldSlots[O]], Ops[OperandIdx].IsF32);
    }

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

//===----------------------------------------------------------------------===//
// Specialized micro-kernels
//===----------------------------------------------------------------------===//

/// Runtime legality gate shared by the specialized kernels: every operand
/// must have the same element kind and an indexing map whose result count
/// matches the descriptor rank. Returns 1 (f32), 0 (i32), or -1 (run the
/// generic odometer instead).
int DecodedProgram::classifyKinds(const DecodedGeneric &DG,
                                  RunState &S) const {
  const GenericPlan &G = *DG.G;
  sim::ElemKind Kind0 = S.Cells[G.Operands[0].Slot].M.kind();
  for (size_t K = 0; K < G.Operands.size(); ++K) {
    const MemRefDesc &D = S.Cells[G.Operands[K].Slot].M;
    if (D.kind() != Kind0)
      return -1;
    if (DG.Lin[K].Consts.size() != D.rank())
      return -1;
  }
  return Kind0 == sim::ElemKind::F32 ? 1 : 0;
}

namespace {

/// Per-operand iteration state for a specialized kernel: the fold of the
/// decode-time linear decomposition against the runtime strides, giving a
/// base linear index and one stride per loop dim.
struct KernelOperand {
  uint32_t *Buf;
  int64_t Lin;
  int64_t DimStride[runtime::detail::MaxCopyRank];
};

/// Loads one word the way the generic odometer does, as a double.
template <bool IsF32> inline double wordValue(uint32_t Word) {
  if (IsF32)
    return static_cast<double>(sim::wordToFloat(Word));
  return static_cast<double>(static_cast<int32_t>(Word));
}

} // namespace

/// Folds DG.Lin against the runtime descriptors. The kernels walk the
/// iteration space with an outer odometer over dims [0, NumLoops-1) and a
/// hardwired inner loop over the innermost dim, bumping each operand's
/// linear index incrementally instead of recomputing the dot product.
/// Every charge of a kernel goes through one sweep, committed when the
/// kernel returns.
#define AXI4MLIR_KERNEL_PROLOGUE(CAP, NOPS)                                    \
  const GenericPlan &G = *DG.G;                                                \
  sim::HostPerfModel::Sweep Charge(S.Soc.perf());                              \
  const unsigned NumLoops = static_cast<unsigned>(G.Ranges.size());            \
  KernelOperand Kop[CAP];                                                      \
  for (unsigned K = 0; K < (NOPS); ++K) {                                      \
    const MemRefDesc &D = S.Cells[G.Operands[K].Slot].M;                       \
    const LinFold &L = DG.Lin[K];                                              \
    Kop[K].Buf = D.Buffer->Data.data();                                        \
    int64_t Base = D.Offset;                                                   \
    for (size_t R = 0; R < L.Consts.size(); ++R)                               \
      Base += L.Consts[R] * D.Strides[R];                                      \
    Kop[K].Lin = Base;                                                         \
    for (unsigned Dim = 0; Dim < NumLoops; ++Dim) {                            \
      int64_t Stride = 0;                                                      \
      for (size_t R = 0; R < L.Consts.size(); ++R)                             \
        Stride += L.Coef[R][Dim] * D.Strides[R];                               \
      Kop[K].DimStride[Dim] = Stride;                                          \
    }                                                                          \
  }                                                                            \
  if (product(G.Ranges) == 0)                                                  \
    return;                                                                    \
  const unsigned Inner = NumLoops - 1;                                         \
  const int64_t InnerN = G.Ranges[Inner];                                      \
  int64_t Point[runtime::detail::MaxCopyRank] = {0};                           \
  (void)Point;

/// Advances the outer odometer (dims [0, Inner)) after one inner sweep;
/// breaks out of the enclosing loop when the space is exhausted.
#define AXI4MLIR_KERNEL_ADVANCE(NOPS)                                          \
  {                                                                            \
    int Dim = static_cast<int>(Inner) - 1;                                     \
    for (; Dim >= 0; --Dim) {                                                  \
      for (unsigned K = 0; K < (NOPS); ++K)                                    \
        Kop[K].Lin += Kop[K].DimStride[Dim];                                   \
      if (++Point[Dim] < G.Ranges[Dim])                                        \
        break;                                                                 \
      for (unsigned K = 0; K < (NOPS); ++K)                                    \
        Kop[K].Lin -= Kop[K].DimStride[Dim] * G.Ranges[Dim];                   \
      Point[Dim] = 0;                                                          \
    }                                                                          \
    if (Dim < 0)                                                               \
      break;                                                                   \
  }

template <bool IsF32>
void DecodedProgram::mulAddKernel(const DecodedGeneric &DG,
                                  RunState &S) const {
  AXI4MLIR_KERNEL_PROLOGUE(3, 3)
  const int64_t S0 = Kop[0].DimStride[Inner];
  const int64_t S1 = Kop[1].DimStride[Inner];
  const int64_t S2 = Kop[2].DimStride[Inner];
  uint32_t *const B0 = Kop[0].Buf, *const B1 = Kop[1].Buf,
           *const B2 = Kop[2].Buf;
  const unsigned MA = DG.MulArgA, MB = DG.MulArgB, AO = DG.AddArg;
  const bool TL = DG.AddTOnLhs;
  for (;;) {
    int64_t L0 = Kop[0].Lin, L1 = Kop[1].Lin, L2 = Kop[2].Lin;
    for (int64_t J = 0; J < InnerN; ++J) {
      // Charge order per point matches the generic odometer exactly:
      // loop iteration, indexing arith, operand loads in operand order,
      // one arith per body instruction, the yield store.
      Charge.onLoopIteration();
      Charge.onArith(3);
      double V[3];
      Charge.onScalarLoad(reinterpret_cast<uint64_t>(B0 + L0), 4);
      V[0] = wordValue<IsF32>(B0[L0]);
      Charge.onScalarLoad(reinterpret_cast<uint64_t>(B1 + L1), 4);
      V[1] = wordValue<IsF32>(B1[L1]);
      Charge.onScalarLoad(reinterpret_cast<uint64_t>(B2 + L2), 4);
      V[2] = wordValue<IsF32>(B2[L2]);
      Charge.onArith(1); // mul
      Charge.onArith(1); // add
      uint32_t OutWord;
      if (IsF32) {
        // Matches the Binary handler's double arithmetic on f32 cells:
        // the product stays an unrounded double through the add.
        double T = V[MA] * V[MB];
        double Y = TL ? T + V[AO] : V[AO] + T;
        OutWord = sim::floatToWord(static_cast<float>(Y));
      } else {
        // i32 path: the product is truncated through int64 (and the sum
        // computed on doubles of those), exactly as the interpreter's
        // Cell arithmetic does.
        int64_t T = static_cast<int64_t>(V[MA] * V[MB]);
        double A = TL ? static_cast<double>(T) : V[AO];
        double B = TL ? V[AO] : static_cast<double>(T);
        int64_t Y = static_cast<int64_t>(A + B);
        OutWord = static_cast<uint32_t>(static_cast<int32_t>(Y));
      }
      Charge.onScalarStore(reinterpret_cast<uint64_t>(B2 + L2), 4);
      B2[L2] = OutWord;
      L0 += S0;
      L1 += S1;
      L2 += S2;
    }
    AXI4MLIR_KERNEL_ADVANCE(3)
  }
}

template <bool IsF32>
void DecodedProgram::copyKernel(const DecodedGeneric &DG, RunState &S) const {
  AXI4MLIR_KERNEL_PROLOGUE(2, 2)
  const int64_t S0 = Kop[0].DimStride[Inner];
  const int64_t S1 = Kop[1].DimStride[Inner];
  uint32_t *const B0 = Kop[0].Buf, *const B1 = Kop[1].Buf;
  for (;;) {
    int64_t L0 = Kop[0].Lin, L1 = Kop[1].Lin;
    for (int64_t J = 0; J < InnerN; ++J) {
      Charge.onLoopIteration();
      Charge.onArith(3);
      Charge.onScalarLoad(reinterpret_cast<uint64_t>(B0 + L0), 4);
      uint32_t Word = B0[L0];
      // The odometer loads the current output element too (its value is
      // discarded, but the cache sees the access).
      Charge.onScalarLoad(reinterpret_cast<uint64_t>(B1 + L1), 4);
      uint32_t OutWord;
      if (IsF32)
        OutWord = sim::floatToWord(static_cast<float>(
            static_cast<double>(sim::wordToFloat(Word))));
      else
        OutWord = static_cast<uint32_t>(static_cast<int32_t>(Word));
      Charge.onScalarStore(reinterpret_cast<uint64_t>(B1 + L1), 4);
      B1[L1] = OutWord;
      L0 += S0;
      L1 += S1;
    }
    AXI4MLIR_KERNEL_ADVANCE(2)
  }
}

template <bool IsF32>
void DecodedProgram::eltwiseKernel(const DecodedGeneric &DG,
                                   RunState &S) const {
  const unsigned NOps = static_cast<unsigned>(DG.G->Operands.size());
  assert(NOps <= 4 && "eltwise kernel operand cap enforced at decode time");
  AXI4MLIR_KERNEL_PROLOGUE(4, NOps)
  const BinKind Kind = static_cast<BinKind>(DG.EltSub & 0x7);
  const unsigned EA = DG.EltArgA, EB = DG.EltArgB;
  const unsigned Out = NOps - 1;
  for (;;) {
    int64_t L[4];
    for (unsigned K = 0; K < NOps; ++K)
      L[K] = Kop[K].Lin;
    for (int64_t J = 0; J < InnerN; ++J) {
      Charge.onLoopIteration();
      Charge.onArith(3);
      double V[4] = {0, 0, 0, 0};
      for (unsigned K = 0; K < NOps; ++K) {
        Charge.onScalarLoad(reinterpret_cast<uint64_t>(Kop[K].Buf + L[K]), 4);
        V[K] = wordValue<IsF32>(Kop[K].Buf[L[K]]);
      }
      Charge.onArith(1);
      double A = V[EA], B = V[EB], R = 0;
      switch (Kind) {
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
      uint32_t OutWord;
      if (IsF32)
        OutWord = sim::floatToWord(static_cast<float>(R));
      else
        OutWord = static_cast<uint32_t>(
            static_cast<int32_t>(sim::doubleToInt64(R)));
      Charge.onScalarStore(
          reinterpret_cast<uint64_t>(Kop[Out].Buf + L[Out]), 4);
      Kop[Out].Buf[L[Out]] = OutWord;
      for (unsigned K = 0; K < NOps; ++K)
        L[K] += Kop[K].DimStride[Inner];
    }
    AXI4MLIR_KERNEL_ADVANCE(NOps)
  }
}

#undef AXI4MLIR_KERNEL_PROLOGUE
#undef AXI4MLIR_KERNEL_ADVANCE

//===----------------------------------------------------------------------===//
// Run
//===----------------------------------------------------------------------===//

LogicalResult DecodedProgram::run(sim::SoC &Soc, runtime::DmaRuntime *Runtime,
                                  const std::vector<MemRefDesc> &Arguments,
                                  std::string &Error) const {
  if (Arguments.size() != NumArgs) {
    Error = "argument count mismatch calling '" + FuncName + "'";
    return failure();
  }
  RunState S(Soc, Runtime);
  S.Cells.resize(NumSlots);
  for (unsigned Idx = 0; Idx < NumArgs; ++Idx) {
    S.Cells[Idx].Tag = Cell::Kind::MemRef;
    S.Cells[Idx].M = Arguments[Idx];
  }
  if (failed(exec(Code.data(), S))) {
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

//===----------------------------------------------------------------------===//
// Disassembly
//===----------------------------------------------------------------------===//

void DecodedProgram::print(std::ostream &OS) const {
  OS << "dplan @" << FuncName << " args=" << NumArgs << " slots=" << NumSlots
     << " insts=" << (Code.size() - 1) << "+ret kernels=" << NumSpecialized
     << "\n";
  for (size_t Pc = 0; Pc < Code.size(); ++Pc) {
    const DInst &I = Code[Pc];
    ExecPlan::printPc(OS, Pc);
    switch (I.Code) {
    case DOp::GenericMulAdd:
    case DOp::GenericCopy:
    case DOp::GenericEltwise: {
      const auto &DG = *static_cast<const DecodedGeneric *>(I.Side);
      if (I.Code == DOp::GenericMulAdd)
        OS << "generic.muladd";
      else if (I.Code == DOp::GenericCopy)
        OS << "generic.copy";
      else
        OS << "generic.eltwise." << ExecPlan::binName(DG.EltSub);
      ExecPlan::printGenericShape(OS, *DG.G);
      break;
    }
    case DOp::Return:
      OS << "ret";
      break;
    default: {
      // Every other opcode is the plan's own: the decoded copies of the
      // side tables keep the plan's indices, so the plan printer applies.
      Inst Shared;
      Shared.Code = static_cast<PlanOp>(static_cast<uint8_t>(I.Code));
      Shared.Sub = I.Sub;
      Shared.Dst = I.Dst;
      Shared.A = I.A;
      Shared.B = I.B;
      Shared.C = I.C;
      Shared.Aux = I.Aux;
      Shared.Imm = I.Imm;
      Shared.FImm = I.FImm;
      ExecPlan::printInst(OS, Shared, SlotPool, Allocs, SubViews, Generics);
      break;
    }
    }
    OS << "\n";
  }
}

//===----------------------------------------------------------------------===//
// DecodedPlan facade
//===----------------------------------------------------------------------===//

namespace axi4mlir {
namespace exec {

DecodedPlan::DecodedPlan() = default;
DecodedPlan::~DecodedPlan() = default;

std::unique_ptr<DecodedPlan> DecodedPlan::decode(const ExecPlan &Plan) {
  std::unique_ptr<DecodedPlan> Decoded(new DecodedPlan());
  Decoded->Impl = std::make_unique<DecodedProgram>();
  Decoded->Impl->decode(Plan);
  return Decoded;
}

LogicalResult DecodedPlan::run(sim::SoC &Soc, runtime::DmaRuntime *Runtime,
                               const std::vector<MemRefDesc> &Arguments,
                               std::string &Error) const {
  return Impl->run(Soc, Runtime, Arguments, Error);
}

void DecodedPlan::print(std::ostream &OS) const { Impl->print(OS); }

std::string DecodedPlan::printToString() const {
  std::ostringstream OS;
  print(OS);
  return OS.str();
}

unsigned DecodedPlan::numSpecializedKernels() const {
  return Impl->NumSpecialized;
}

} // namespace exec
} // namespace axi4mlir
