//===- ExecPlan.h - Compiled host-code execution plans ----------*- C++ -*-===//
//
// Part of the AXI4MLIR reproduction. MIT licensed.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// A compile-once/execute-many lowering of one func.func into a flat vector
/// of pre-resolved instructions, replacing the tree-walking interpreter's
/// per-op string dispatch, std::map value environments and per-element
/// index-vector allocations:
///
///   * enum opcodes instead of `Name ==` string chains,
///   * dense SSA value slots numbered at plan time (a flat Cell array at
///     execution time) instead of `std::map<ValueImpl*, RuntimeValue>`,
///   * operand/index slot lists pre-resolved into a shared pool, so
///     memref.load/store stop allocating a std::vector per element,
///   * scf.for flattened into LoopBegin/LoopEnd instructions over a
///     contiguous instruction span (a PC jump instead of re-dispatching
///     through a recursive block walker),
///   * linalg.generic compiled into an odometer kernel with per-operand
///     index computations resolved to stride dot-products (projected
///     permutations) or affine-expression evaluations (no vectors
///     allocated per point) and the payload pre-compiled.
///
/// Two forms compile: linalg.generic host code (the mlir_CPU baseline) and
/// the fully lowered axirt driver. Accel-dialect ops are refused; they run
/// only after convert-accel-to-runtime has turned them into runtime calls.
///
/// The modeled perf counters (HostPerfModel) charged during execution are
/// bit-identical to the walker's: the same events fire in the same order
/// with the same addresses. ExecPlanTest asserts this for both forms. A
/// plan owns copies of everything it needs (shapes, configs, affine maps),
/// so it stays valid after the IR is mutated or destroyed.
///
//===----------------------------------------------------------------------===//

#ifndef AXI4MLIR_EXEC_EXECPLAN_H
#define AXI4MLIR_EXEC_EXECPLAN_H

#include "dialects/Func.h"
#include "ir/AccelTraits.h"
#include "ir/AffineExpr.h"
#include "runtime/DmaRuntime.h"
#include "support/LogicalResult.h"

#include <iosfwd>
#include <iterator>
#include <memory>
#include <string>
#include <vector>

namespace axi4mlir {
namespace analysis {
class PlanView;
} // namespace analysis
namespace exec {

struct ExecPlanBuilder;
class DecodedPlan;
struct DecodedProgram;

namespace opt {
class PlanOptimizer;
} // namespace opt

/// The diagnostic the plan compiler and the walker both give for an
/// operation they cannot execute. For an accel-dialect op it names
/// convert-accel-to-runtime, the lowering that makes the driver executable.
std::string unsupportedOpError(const std::string &OpName);

/// One function compiled to a flat instruction program.
class ExecPlan {
public:
  /// Compiles \p Func. Returns nullptr and sets \p Error on unsupported
  /// IR (same diagnostics the walker would produce). Each axirt
  /// start_send/start_recv compiles together with the wait that must
  /// immediately follow it (the blocking driver's only shape, which
  /// convert-accel-to-runtime always emits) into one send/recv
  /// instruction; a start without that wait is refused.
  static std::unique_ptr<ExecPlan> compile(func::FuncOp Func,
                                           std::string &Error);

  /// Executes the plan against \p Soc, binding \p Arguments to the
  /// function's memref parameters. \p Runtime may be null for CPU-only
  /// functions. Reusable: call once per input set.
  LogicalResult run(sim::SoC &Soc, runtime::DmaRuntime *Runtime,
                    const std::vector<runtime::MemRefDesc> &Arguments,
                    std::string &Error) const;

  size_t numInstructions() const { return Program.size(); }
  unsigned numSlots() const { return NumSlots; }
  unsigned numArguments() const { return NumArgs; }
  const std::string &funcName() const { return FuncName; }

  /// Prints a stable textual disassembly of the program (one instruction
  /// per line, slots as %N, loop targets as @PC). Golden tests pin this
  /// output before/after each optimizer pass.
  void print(std::ostream &OS) const;
  std::string printToString() const;

private:
  ExecPlan() = default;
  friend struct ExecPlanBuilder;
  /// The plan optimizer (src/exec/opt) rewrites Program/SlotPool in place.
  friend class opt::PlanOptimizer;
  /// The threaded-dispatch engine (ExecPlanRun) pre-decodes the program
  /// into its own dispatch-ready representation.
  friend class DecodedPlan;
  friend struct DecodedProgram;
  /// The static analysis framework (src/analysis) reads the instruction
  /// program without executing it; PlanView re-exports the internal types
  /// to the verifier, the protocol checker and the mutation tests.
  friend class analysis::PlanView;

  /// Instruction opcodes (the former string-compare chains).
  enum class Op : uint8_t {
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
    /// A blocking transfer: the runtime's start and wait calls, in order.
    CallSend,
    CallRecv,
    CallCopyFromDma,
    LastOp = CallCopyFromDma,
  };

  /// How an instruction uses one of its slot fields.
  enum class SlotUse : uint8_t { None, Scalar, MemRef };

  /// What an instruction does to the DMA staging regions, plus the host
  /// memory writes the region analyses must order against.
  enum class RegionEffect : uint8_t {
    None,      ///< Neither (arith, loops, alloc, load, subview).
    HostWrite, ///< Writes host memory (store, copy, generic).
    Stage,     ///< Writes input-region words.
    Send,      ///< Streams an input-region range to the accelerator.
    Recv,      ///< Receives accelerator words into the output region.
    ReadBack,  ///< Copies output-region words into host memory.
    Init,      ///< dma_init: reconfigures and clears both regions.
  };

  /// One A/B/C slot field an opcode reads: the kind it must hold and the
  /// role diagnostics give it. The strings are stored inline so the table
  /// needs no load-time relocations.
  struct OperandUse {
    SlotUse Kind;
    char Role[26];
  };

  /// The per-opcode facts the verifier and the optimizer read instead of
  /// re-deriving them. Index pools, side tables and generic payloads stay
  /// per-opcode code.
  struct OpInfo {
    Op Code;
    char Name[20];       ///< Diagnostic name ("send", ...); not
                         ///< the mnemonic ExecPlan::print spells.
    OperandUse Reads[3]; ///< The A, B and C fields, in that order.
    SlotUse Defines;     ///< What Dst receives (None: no result).
    bool Charged;        ///< Charges the cost model when it executes.
    RegionEffect Effect;
  };

  static constexpr OpInfo OpTable[] = {
      {Op::ConstInt, "const", {}, SlotUse::Scalar, false, RegionEffect::None},
      {Op::ConstFloat, "constf", {}, SlotUse::Scalar, false,
       RegionEffect::None},
      {Op::Binary, "binary",
       {{SlotUse::Scalar, "the left operand"},
        {SlotUse::Scalar, "the right operand"}},
       SlotUse::Scalar, true, RegionEffect::None},
      {Op::IndexCast, "index_cast", {{SlotUse::Scalar, "its operand"}},
       SlotUse::Scalar, false, RegionEffect::None},
      {Op::LoopBegin, "loop",
       {{SlotUse::Scalar, "the lower bound"},
        {SlotUse::Scalar, "the upper bound"},
        {SlotUse::Scalar, "the step"}},
       SlotUse::Scalar, true, RegionEffect::None}, // Dst: induction variable
      // The back edge advances the induction variable its LoopBegin
      // defines; that is not a second definition.
      {Op::LoopEnd, "end",
       {{SlotUse::None, ""},
        {SlotUse::Scalar, "the upper bound"},
        {SlotUse::Scalar, "the step"}},
       SlotUse::None, true, RegionEffect::None},
      {Op::Alloc, "alloc", {}, SlotUse::MemRef, true, RegionEffect::None},
      {Op::Dealloc, "dealloc", {}, SlotUse::None, true, RegionEffect::None},
      {Op::Load, "load", {{SlotUse::MemRef, "the loaded memref"}},
       SlotUse::Scalar, true, RegionEffect::None},
      {Op::Store, "store",
       {{SlotUse::Scalar, "the stored value"},
        {SlotUse::MemRef, "the stored-to memref"}},
       SlotUse::None, true, RegionEffect::HostWrite},
      {Op::Copy, "copy",
       {{SlotUse::MemRef, "the copy source"},
        {SlotUse::MemRef, "the copy destination"}},
       SlotUse::None, true, RegionEffect::HostWrite},
      {Op::SubView, "subview", {{SlotUse::MemRef, "the subview source"}},
       SlotUse::MemRef, true, RegionEffect::None},
      {Op::Generic, "generic", {}, SlotUse::None, true,
       RegionEffect::HostWrite},
      {Op::CallDmaInit, "dma_init", {}, SlotUse::None, true,
       RegionEffect::Init},
      {Op::CallCopyToDma, "copy_to_dma",
       {{SlotUse::MemRef, "the staged memref"},
        {SlotUse::Scalar, "the staging offset"}},
       SlotUse::Scalar, true, RegionEffect::Stage}, // Dst: end offset
      {Op::CallCopyLiteralToDma, "copy_literal_to_dma",
       {{SlotUse::Scalar, "the staged literal"},
        {SlotUse::Scalar, "the staging offset"}},
       SlotUse::Scalar, true, RegionEffect::Stage},
      {Op::CallSend, "send",
       {{SlotUse::Scalar, "the send end offset"},
        {SlotUse::Scalar, "the send begin offset"}},
       SlotUse::None, true, RegionEffect::Send},
      {Op::CallRecv, "recv",
       {{SlotUse::Scalar, "the receive length"},
        {SlotUse::Scalar, "the receive offset"}},
       SlotUse::None, true, RegionEffect::Recv},
      {Op::CallCopyFromDma, "copy_from_dma",
       {{SlotUse::MemRef, "the read-back destination"},
        {SlotUse::Scalar, "the region offset"}},
       SlotUse::None, true, RegionEffect::ReadBack},
  };
  static_assert(std::size(OpTable) == static_cast<size_t>(Op::LastOp) + 1,
                "one OpTable row per opcode");
  static_assert(
      [] {
        for (size_t K = 0; K < std::size(OpTable); ++K)
          if (static_cast<size_t>(OpTable[K].Code) != K)
            return false;
        return true;
      }(),
      "OpTable rows follow the Op enum order");

  static constexpr const OpInfo &info(Op Code) {
    return OpTable[static_cast<size_t>(Code)];
  }

  /// Binary-op kinds packed into Inst::Sub (bit 3 = float result type).
  enum class BinKind : uint8_t { Add = 0, Mul, Sub, Div, Max };
  static constexpr uint8_t BinFloatResult = 1 << 3;

  /// One pre-resolved instruction. Slot fields index the Cell array; Aux
  /// indexes a side table or the slot pool, or is a PC target for loops.
  struct Inst {
    Op Code;
    uint8_t Sub = 0;
    int32_t Dst = -1;
    int32_t A = -1;
    int32_t B = -1;
    int32_t C = -1;
    int32_t Aux = -1;
    int64_t Imm = 0;
    double FImm = 0;
  };

  /// A dynamic value slot (the former RuntimeValue).
  struct Cell {
    enum class Kind : uint8_t { Int, Float, MemRef } Tag = Kind::Int;
    int64_t I = 0;
    double F = 0;
    runtime::MemRefDesc M;
  };

  struct AllocPlan {
    std::vector<int64_t> Shape;
    sim::ElemKind Kind = sim::ElemKind::I32;
  };

  struct SubViewPlan {
    int32_t PoolOffset = 0; ///< Offset slots in SlotPool.
    uint32_t NumOffsets = 0;
    std::vector<int64_t> StaticSizes;
  };

  /// Pre-resolved indexing for one linalg.generic operand.
  struct OperandPlan {
    int32_t Slot = -1;
    /// Projected permutation: result r reads loop dim DimPos[r]; the
    /// linear index is a plain stride dot-product.
    bool Projected = false;
    std::vector<uint32_t> DimPos;
    /// Fallback: one affine expression per map result (strided conv).
    std::vector<AffineExpr> Exprs;
  };

  struct GenericPlan {
    std::vector<int64_t> Ranges;
    unsigned NumInputs = 0;
    std::vector<OperandPlan> Operands;
    std::vector<int32_t> BodyArgSlots;
    std::vector<Inst> Body; ///< Payload ops, linalg.yield excluded.
    std::vector<int32_t> YieldSlots;
  };

  struct ExecState;

  /// The one instruction printer. printInst writes \p I's text (no PC
  /// column, no newline) against the given side tables; DecodedPlan::print
  /// reuses it for every opcode the decoded program shares with the plan.
  static void printPc(std::ostream &OS, size_t Pc);
  static void printInst(std::ostream &OS, const Inst &I,
                        const std::vector<int32_t> &SlotPool,
                        const std::vector<AllocPlan> &Allocs,
                        const std::vector<SubViewPlan> &SubViews,
                        const std::vector<GenericPlan> &Generics);
  /// " ranges=[...] operands=[...]" of a linalg.generic site.
  static void printGenericShape(std::ostream &OS, const GenericPlan &G);
  /// Binary-op mnemonic for Inst::Sub ("add", "mul", ...).
  static const char *binName(uint8_t Sub);

  LogicalResult runSpan(const std::vector<Inst> &Code, ExecState &S) const;
  LogicalResult runGeneric(const GenericPlan &G, ExecState &S) const;

  std::string FuncName;
  unsigned NumArgs = 0;
  unsigned NumSlots = 0;
  std::vector<Inst> Program;
  std::vector<int32_t> SlotPool;
  std::vector<AllocPlan> Allocs;
  std::vector<SubViewPlan> SubViews;
  std::vector<GenericPlan> Generics;
  std::vector<accel::DmaInitConfig> DmaConfigs;
};

} // namespace exec
} // namespace axi4mlir

#endif // AXI4MLIR_EXEC_EXECPLAN_H
