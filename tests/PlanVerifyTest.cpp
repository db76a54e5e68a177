//===- PlanVerifyTest.cpp - Static plan verifier mutation tests -----------===//
//
// Part of the AXI4MLIR reproduction. MIT licensed.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The contract that keeps the static verifier (src/analysis) honest:
/// every compiled plan in the repository verifies clean at every
/// optimizer stage, and a known-good plan corrupted along each mutation
/// class the verifier claims to catch — swapped jump targets, staging
/// copies escaping the DMA region, dropped transfer waits, protocol
/// (opcode-stream) violations, use-before-def, out-of-range slots,
/// non-positive loop steps — is rejected with an instruction-level
/// diagnostic. Mutations go through PlanView's explicit escape hatch;
/// nothing executes.
///
/// The config-level protocol checker behind axi4mlir-lint is pinned the
/// same way: configs broken along each protocol rule it shares with the
/// simulator are rejected with the expected finding.
///
/// The verifier's run-list model of the staged DMA input region
/// (analysis::StagedRegion) is checked against a per-word map by a seeded
/// random sweep (AXI4MLIR_FUZZ_SEED / AXI4MLIR_FUZZ_CASES widen it).
///
//===----------------------------------------------------------------------===//

#include "analysis/PlanAnalyses.h"
#include "analysis/PlanVerifier.h"
#include "analysis/PlanView.h"
#include "analysis/ProtocolChecker.h"
#include "analysis/ProtocolModel.h"
#include "dialects/InitAllDialects.h"
#include "exec/AccelConfigs.h"
#include "exec/ExecPlan.h"
#include "exec/Pipeline.h"
#include "exec/opt/PlanOpt.h"
#include "transforms/Passes.h"

#include <gtest/gtest.h>

#include <cstdint>
#include <cstdlib>
#include <fstream>
#include <map>
#include <random>
#include <sstream>

using namespace axi4mlir;
using namespace axi4mlir::exec;
using analysis::PlanView;
using V = sim::MatMulAccelerator::Version;
using POp = PlanView::Op;
using Inst = PlanView::Inst;

namespace {

/// Lowers \p Func against \p Accel to the axirt runtime-call level and
/// compiles the ExecPlan. Returns nullptr (with ADD_FAILURE) on any error.
std::unique_ptr<ExecPlan>
lowerAndCompile(func::FuncOp Func, const parser::AcceleratorDesc &Accel) {
  std::string Error;
  transforms::LoweringOptions Options;
  Options.EnableCpuTiling = false;
  if (failed(transforms::convertNamedToGeneric(Func, Error)) ||
      failed(transforms::matchAndAnnotate(Func, Accel, Error)) ||
      failed(transforms::lowerToAccel(Func, Options, Error)) ||
      failed(transforms::convertAccelToRuntime(Func, Error))) {
    ADD_FAILURE() << "lowering failed: " << Error;
    return nullptr;
  }
  auto Plan = ExecPlan::compile(Func, Error);
  if (!Plan)
    ADD_FAILURE() << "plan compilation failed: " << Error;
  return Plan;
}

/// Builds an 16x16x16 i32 matmul, lowers it to the axirt runtime-call
/// level against a v3 8-tile accelerator, and compiles the ExecPlan the
/// tests then corrupt. Returns nullptr (with ADD_FAILURE) on any error.
std::unique_ptr<ExecPlan> compilePlan(parser::AcceleratorDesc &AccelOut,
                                      const std::string &Flow = "Ns") {
  MLIRContext Context;
  registerAllDialects(Context);
  OpBuilder Builder(&Context);
  func::FuncOp Func =
      buildMatMulFunc(Builder, 16, 16, 16, sim::ElemKind::I32);
  OwningOpRef Owner(Func.getOperation());
  AccelOut = parseSingleAccelerator(makeMatMulConfigJson(V::V3, 8, Flow));
  return lowerAndCompile(Func, AccelOut);
}

/// The v3 8-tile driver of an 18x10x14 matmul: its pad remainders stage
/// partial tiles through memref.alloc'd buffers with memref.copy.
std::unique_ptr<ExecPlan> compilePadPlan() {
  MLIRContext Context;
  registerAllDialects(Context);
  OpBuilder Builder(&Context);
  func::FuncOp Func =
      buildMatMulFunc(Builder, 18, 10, 14, sim::ElemKind::I32);
  OwningOpRef Owner(Func.getOperation());
  return lowerAndCompile(
      Func, parseSingleAccelerator(makeMatMulConfigJson(V::V3, 8, "Ns")));
}

/// The mlir_CPU form of a 4x4x4 matmul: one linalg.generic.
std::unique_ptr<ExecPlan> compileCpuPlan() {
  MLIRContext Context;
  registerAllDialects(Context);
  OpBuilder Builder(&Context);
  func::FuncOp Func = buildMatMulFunc(Builder, 4, 4, 4, sim::ElemKind::I32);
  OwningOpRef Owner(Func.getOperation());
  std::string Error;
  if (failed(transforms::convertNamedToGeneric(Func, Error))) {
    ADD_FAILURE() << Error;
    return nullptr;
  }
  auto Plan = ExecPlan::compile(Func, Error);
  if (!Plan)
    ADD_FAILURE() << "plan compilation failed: " << Error;
  return Plan;
}

/// \p Text with its one occurrence of \p From replaced by \p To.
std::string replaceOnce(std::string Text, const std::string &From,
                        const std::string &To) {
  size_t Pos = Text.find(From);
  EXPECT_NE(Pos, std::string::npos) << "'" << From << "' not found";
  if (Pos != std::string::npos)
    Text.replace(Pos, From.size(), To);
  return Text;
}

/// Index of the first instruction matching \p Pred, or -1.
template <typename Pred> int64_t findInst(ExecPlan &Plan, Pred &&P) {
  std::vector<Inst> &Program = PlanView::mutableProgram(Plan);
  for (size_t I = 0; I < Program.size(); ++I)
    if (P(Program[I]))
      return static_cast<int64_t>(I);
  return -1;
}

/// True when some error diagnostic contains \p Needle; on failure prints
/// everything the verifier reported.
void expectError(const analysis::VerifyResult &Result,
                 const std::string &Needle) {
  for (const analysis::PlanDiag &D : Result.Errors) {
    if (D.Message.find(Needle) != std::string::npos) {
      // Instruction-level: the diagnostic names a pc (or is a whole-plan
      // end-state finding, which still carries the pc of the culprit).
      EXPECT_TRUE(D.Message.rfind("pc ", 0) == 0 || D.Pc < 0)
          << D.Message;
      return;
    }
  }
  ADD_FAILURE() << "no error diagnostic contains '" << Needle << "'; got:\n"
                << Result.toString();
}

/// True when some warning contains \p Needle; on failure prints everything
/// the verifier reported.
void expectWarning(const analysis::VerifyResult &Result,
                   const std::string &Needle) {
  for (const analysis::PlanDiag &D : Result.Warnings)
    if (D.Message.find(Needle) != std::string::npos)
      return;
  ADD_FAILURE() << "no warning contains '" << Needle << "'; got:\n"
                << Result.toString();
}

//===----------------------------------------------------------------------===//
// Positive: everything in the repo verifies clean, at every stage
//===----------------------------------------------------------------------===//

TEST(PlanVerify, CleanPlanVerifiesAtEveryStage) {
  parser::AcceleratorDesc Accel;
  auto Plan = compilePlan(Accel);
  ASSERT_TRUE(Plan);

  std::string ModelError;
  auto Model = analysis::ProtocolModel::forAccelerator(Accel, ModelError);
  ASSERT_TRUE(succeeded(Model)) << ModelError;
  analysis::VerifyOptions Options;
  Options.Model = &*Model;

  analysis::VerifyResult Compiled = analysis::verifyPlan(*Plan, Options);
  EXPECT_TRUE(Compiled.Errors.empty()) << Compiled.toString();
  EXPECT_TRUE(Compiled.Warnings.empty()) << Compiled.toString();

  // Verify-each between fold -> licm -> coalesce -> dce must stay clean,
  // and the final optimized plan must re-verify including the protocol.
  opt::PlanOptOptions OptOptions = opt::PlanOptOptions::all();
  OptOptions.VerifyEach = true;
  opt::PlanOptStats Stats = opt::optimizePlan(*Plan, OptOptions);
  EXPECT_GT(Stats.total(), 0u);
  EXPECT_TRUE(Stats.VerifyError.empty())
      << "after " << Stats.VerifyFailedPass << ": " << Stats.VerifyError;
  analysis::VerifyResult Optimized = analysis::verifyPlan(*Plan, Options);
  EXPECT_TRUE(Optimized.Errors.empty()) << Optimized.toString();
}

//===----------------------------------------------------------------------===//
// Mutation classes (each must be rejected with a pc-level diagnostic)
//===----------------------------------------------------------------------===//

TEST(PlanVerify, SwappedJumpTargetRejected) {
  parser::AcceleratorDesc Accel;
  auto Plan = compilePlan(Accel);
  ASSERT_TRUE(Plan);
  int64_t Loop =
      findInst(*Plan, [](const Inst &I) { return I.Code == POp::LoopBegin; });
  ASSERT_GE(Loop, 0) << "expected a loop in the lowered plan";
  // Retarget the zero-trip jump one instruction early: it no longer
  // points just past this loop's end.
  PlanView::mutableProgram(*Plan)[Loop].Aux -= 1;
  expectError(analysis::verifyPlan(*Plan), "jump target");
}

TEST(PlanVerify, StagingCopyOutsideDmaRegionRejected) {
  parser::AcceleratorDesc Accel;
  auto Plan = compilePlan(Accel);
  ASSERT_TRUE(Plan);
  ASSERT_FALSE(PlanView::mutableDmaConfigs(*Plan).empty());
  // Shrink the DMA input window to two words: the 8x8 tile staging
  // copies now provably overflow the region.
  PlanView::mutableDmaConfigs(*Plan)[0].InputBufferSize = 8;
  expectError(analysis::verifyPlan(*Plan), "holds only");
}

TEST(PlanVerify, CorruptedOpcodeStreamRejected) {
  parser::AcceleratorDesc Accel;
  auto Plan = compilePlan(Accel);
  ASSERT_TRUE(Plan);
  std::string ModelError;
  auto Model = analysis::ProtocolModel::forAccelerator(Accel, ModelError);
  ASSERT_TRUE(succeeded(Model)) << ModelError;
  analysis::VerifyOptions Options;
  Options.Model = &*Model;

  // Rewrite the staged sA opcode literal (0x22) to a word the v3 FSM
  // does not accept: the modeled accelerator sees a bogus opcode.
  int64_t BadConst = findInst(*Plan, [](const Inst &I) {
    return I.Code == POp::ConstInt && I.Imm == 0x22;
  });
  ASSERT_GE(BadConst, 0) << "expected the sA opcode literal";
  PlanView::mutableProgram(*Plan)[BadConst].Imm = 0x77;
  expectError(analysis::verifyPlan(*Plan, Options), "not supported");
}

TEST(PlanVerify, UseBeforeDefRejected) {
  parser::AcceleratorDesc Accel;
  auto Plan = compilePlan(Accel);
  ASSERT_TRUE(Plan);
  int64_t Copy = findInst(
      *Plan, [](const Inst &I) { return I.Code == POp::CallCopyToDma; });
  ASSERT_GE(Copy, 0) << "expected a staging copy in the lowered plan";
  // Slots are SSA: reading the instruction's own (not yet written)
  // end-offset result as the start offset is a definite use-before-def.
  Inst &I = PlanView::mutableProgram(*Plan)[Copy];
  I.B = I.Dst;
  expectError(analysis::verifyPlan(*Plan), "before any definition");
}

TEST(PlanVerify, SlotOutOfRangeRejected) {
  parser::AcceleratorDesc Accel;
  auto Plan = compilePlan(Accel);
  ASSERT_TRUE(Plan);
  int64_t Const =
      findInst(*Plan, [](const Inst &I) { return I.Code == POp::ConstInt; });
  ASSERT_GE(Const, 0);
  PlanView::mutableProgram(*Plan)[Const].Dst =
      static_cast<int32_t>(analysis::PlanView(*Plan).numSlots()) + 7;
  expectError(analysis::verifyPlan(*Plan), "outside the plan's");
}

TEST(PlanVerify, NonPositiveLoopStepRejected) {
  parser::AcceleratorDesc Accel;
  auto Plan = compilePlan(Accel);
  ASSERT_TRUE(Plan);
  std::vector<Inst> &Program = PlanView::mutableProgram(*Plan);
  int64_t Loop =
      findInst(*Plan, [](const Inst &I) { return I.Code == POp::LoopBegin; });
  ASSERT_GE(Loop, 0);
  int32_t StepSlot = Program[Loop].C;
  int64_t StepConst = findInst(*Plan, [&](const Inst &I) {
    return I.Code == POp::ConstInt && I.Dst == StepSlot;
  });
  ASSERT_GE(StepConst, 0) << "expected a constant loop step";
  Program[StepConst].Imm = 0;
  expectError(analysis::verifyPlan(*Plan), "not positive");
}

/// Operand kinds come from the opcode table: a memref where a scalar is
/// expected and a scalar where a memref is expected are both rejected,
/// naming the operand's role.
TEST(PlanVerify, OperandKindMismatchRejected) {
  parser::AcceleratorDesc Accel;
  for (bool MemRefAsOffset : {false, true}) {
    auto Plan = compilePlan(Accel);
    ASSERT_TRUE(Plan);
    int64_t Copy = findInst(
        *Plan, [](const Inst &I) { return I.Code == POp::CallCopyToDma; });
    ASSERT_GE(Copy, 0);
    Inst &I = PlanView::mutableProgram(*Plan)[Copy];
    std::string Expected = "(copy_to_dma): expects ";
    if (MemRefAsOffset) {
      I.B = I.A;
      Expected += "a scalar as the staging offset but %" +
                  std::to_string(I.A) + " holds a memref";
    } else {
      I.A = I.B;
      Expected += "a memref as the staged memref but %" +
                  std::to_string(I.B) + " holds a scalar";
    }
    expectError(analysis::verifyPlan(*Plan), Expected);
  }
}

/// Every side-table index (alloc, subview and generic plans, dma configs)
/// is bounds-checked before the verifier reads the entry.
TEST(PlanVerify, SideTableIndexOutOfBoundsRejected) {
  parser::AcceleratorDesc Accel;
  struct Case {
    POp Code;
    std::unique_ptr<ExecPlan> Plan;
    const char *Message;
  };
  Case Cases[] = {
      {POp::Alloc, compilePadPlan(), "(alloc): alloc side-table index #"},
      {POp::SubView, compilePlan(Accel),
       "(subview): subview side-table index #"},
      {POp::Generic, compileCpuPlan(), "(generic): generic side-table index #"},
      {POp::CallDmaInit, compilePlan(Accel),
       "(dma_init): dma config index #"}};
  for (Case &C : Cases) {
    ASSERT_TRUE(C.Plan);
    PlanView View(*C.Plan);
    size_t Entries = C.Code == POp::Alloc     ? View.allocs().size()
                     : C.Code == POp::SubView ? View.subViews().size()
                     : C.Code == POp::Generic ? View.generics().size()
                                              : View.dmaConfigs().size();
    int64_t Pc =
        findInst(*C.Plan, [&](const Inst &I) { return I.Code == C.Code; });
    ASSERT_GE(Pc, 0) << C.Message;
    PlanView::mutableProgram(*C.Plan)[Pc].Aux = static_cast<int32_t>(Entries);
    expectError(analysis::verifyPlan(*C.Plan),
                C.Message + std::to_string(Entries) + " out of bounds (" +
                    std::to_string(Entries) + " entries)");
  }
}

/// Load/store index lists must lie inside the slot pool, and a memref of
/// known rank must be indexed in every dimension. The plans hold no
/// load/store, so the mutations turn a subview or a staging copy into one.
TEST(PlanVerify, LoadStoreIndexingRejected) {
  parser::AcceleratorDesc Accel;
  for (POp Code : {POp::Load, POp::Store}) {
    const char *Name = Code == POp::Load ? "(load): " : "(store): ";
    {
      auto Plan = compilePlan(Accel);
      ASSERT_TRUE(Plan);
      int32_t PoolSize =
          static_cast<int32_t>(PlanView(*Plan).slotPool().size());
      int64_t Pc = findInst(
          *Plan, [](const Inst &I) { return I.Code == POp::SubView; });
      ASSERT_GE(Pc, 0);
      Inst &I = PlanView::mutableProgram(*Plan)[Pc];
      I.Code = Code;
      I.Sub = 2;
      I.Aux = PoolSize - 1;
      expectError(analysis::verifyPlan(*Plan),
                  Name + std::string("index pool range [") +
                      std::to_string(PoolSize - 1) + ", " +
                      std::to_string(PoolSize + 1) +
                      ") is outside the plan's pool (" +
                      std::to_string(PoolSize) + " entries)");
    }
    {
      // copy_to_dma %tile @ %off becomes a one-index access to the rank-2
      // subview %tile.
      auto Plan = compilePlan(Accel);
      ASSERT_TRUE(Plan);
      int64_t Pc = findInst(
          *Plan, [](const Inst &I) { return I.Code == POp::CallCopyToDma; });
      ASSERT_GE(Pc, 0);
      Inst &I = PlanView::mutableProgram(*Plan)[Pc];
      if (Code == POp::Store)
        std::swap(I.A, I.B); // store %off -> %tile
      I.Code = Code;
      I.Sub = 1;
      I.Aux = 0;
      expectError(analysis::verifyPlan(*Plan),
                  Name + std::string("indexes a rank-2 memref with 1 indices"));
    }
  }
}

/// memref.copy needs equal element counts on both sides: retargeting a
/// pad copy (a 2x8 partial tile into a 2x8 window of an 8x8 buffer) at
/// the whole buffer is rejected.
TEST(PlanVerify, CopyElementCountMismatchRejected) {
  auto Plan = compilePadPlan();
  ASSERT_TRUE(Plan);
  int64_t Alloc =
      findInst(*Plan, [](const Inst &I) { return I.Code == POp::Alloc; });
  int64_t Copy =
      findInst(*Plan, [](const Inst &I) { return I.Code == POp::Copy; });
  ASSERT_GE(Alloc, 0);
  ASSERT_GT(Copy, Alloc);
  std::vector<Inst> &Program = PlanView::mutableProgram(*Plan);
  Program[Copy].B = Program[Alloc].Dst;
  expectError(analysis::verifyPlan(*Plan),
              "(copy): copies between memrefs of different element counts "
              "(16 vs 64)");
}

/// An operand slot outside the plan is reported once and then treated as
/// unknown: the shared constant facts used to be indexed with it, reading
/// past their end.
TEST(PlanVerify, OutOfRangeOperandIsNotFolded) {
  parser::AcceleratorDesc Accel;
  auto Plan = compilePlan(Accel);
  ASSERT_TRUE(Plan);
  int32_t NumSlots = static_cast<int32_t>(PlanView(*Plan).numSlots());
  int64_t Send = findInst(
      *Plan, [](const Inst &I) { return I.Code == POp::CallSend; });
  ASSERT_GE(Send, 0);
  PlanView::mutableProgram(*Plan)[Send].A = NumSlots;
  analysis::VerifyResult Result = analysis::verifyPlan(*Plan);
  expectError(Result, "(send): reads the send end offset from slot %" +
                          std::to_string(NumSlots) + " outside the plan's " +
                          std::to_string(NumSlots) + " slots");
  std::string At = "pc " + std::to_string(Send) + " (send): ";
  bool Unproven = false;
  for (const analysis::PlanDiag &D : Result.Warnings)
    Unproven = Unproven ||
               D.Message == At + "cannot prove the send stays inside the DMA "
                                 "input region (offset or length is not a "
                                 "compile-time constant)";
  EXPECT_TRUE(Unproven) << Result.toString();
}

/// An integer Binary folds in double and converts back to int64; a result
/// outside int64 is not a constant (the conversion would be undefined).
TEST(PlanAnalyses, BinaryFoldOutsideInt64IsNotConstant) {
  analysis::SlotFacts Facts(3);
  auto setConst = [&](int32_t Slot, int64_t Value) {
    Facts.Known[Slot] = 1;
    Facts.Value[Slot] = Value;
  };
  auto fold = [&](PlanView::BinKind Kind, int64_t &Out) {
    Inst I;
    I.Code = POp::Binary;
    I.Sub = static_cast<uint8_t>(Kind);
    I.Dst = 2;
    I.A = 0;
    I.B = 1;
    return analysis::evalConstDst(I, Facts, Out);
  };
  int64_t Out = 0;
  setConst(0, INT64_MAX);
  setConst(1, INT64_MAX);
  EXPECT_FALSE(fold(PlanView::BinKind::Add, Out));
  setConst(1, 2);
  EXPECT_FALSE(fold(PlanView::BinKind::Mul, Out));
  setConst(0, 2);
  setConst(1, 3);
  ASSERT_TRUE(fold(PlanView::BinKind::Add, Out));
  EXPECT_EQ(Out, 5);
}

/// A conv flow that streams the windows before loading their filter. The
/// engine rejects the first window at its last word (it does not match
/// the loaded filter); the verifier must report that rule at the window's
/// send, not only the later receive of a slice that was never computed.
TEST(PlanVerify, WindowBeforeFilterRejectedAtTheSend) {
  MLIRContext Context;
  registerAllDialects(Context);
  OpBuilder Builder(&Context);
  func::FuncOp Func =
      buildConvFunc(Builder, 1, 4, 6, 2, 3, 1, sim::ElemKind::I32);
  OwningOpRef Owner(Func.getOperation());
  parser::AcceleratorDesc Accel = parseSingleAccelerator(
      replaceOnce(makeConvConfigJson(), "\"Os\": \"(sF (sIcO) rO)\"",
                  "\"Os\": \"((sIcO) sF rO)\""));
  auto Plan = lowerAndCompile(Func, Accel);
  ASSERT_TRUE(Plan);
  std::string ModelError;
  auto Model = analysis::ProtocolModel::forAccelerator(Accel, ModelError);
  ASSERT_TRUE(succeeded(Model)) << ModelError;
  analysis::VerifyOptions Options;
  Options.Model = &*Model;

  analysis::VerifyResult Result = analysis::verifyPlan(*Plan, Options);
  ASSERT_FALSE(Result.Errors.empty());
  const analysis::PlanDiag &First = Result.Errors.front();
  EXPECT_NE(First.Message.find("loaded filter"), std::string::npos)
      << Result.toString();
  ASSERT_GE(First.Pc, 0) << First.Message;
  POp Code = PlanView::mutableProgram(*Plan)[First.Pc].Code;
  EXPECT_EQ(Code, POp::CallSend) << First.Message;
}

/// The first staged literal of the v3 driver (the reset opcode) and the
/// send that streams it, with the literal's constant offset.
struct FirstLiteral {
  int64_t Literal = -1, Send = -1, Offset = -1;
};
FirstLiteral findFirstLiteral(ExecPlan &Plan) {
  FirstLiteral F;
  std::vector<Inst> &Program = PlanView::mutableProgram(Plan);
  F.Literal = findInst(
      Plan, [](const Inst &I) { return I.Code == POp::CallCopyLiteralToDma; });
  if (F.Literal < 0)
    return F;
  int32_t OffsetSlot = Program[F.Literal].B;
  int64_t Def = findInst(Plan, [&](const Inst &I) {
    return I.Code == POp::ConstInt && I.Dst == OffsetSlot;
  });
  if (Def >= 0)
    F.Offset = Program[Def].Imm;
  for (size_t Pc = static_cast<size_t>(F.Literal); Pc < Program.size(); ++Pc)
    if (Program[Pc].Code == POp::CallSend) {
      F.Send = static_cast<int64_t>(Pc);
      break;
    }
  return F;
}

/// A send over a word no staging instruction wrote since the dma_init:
/// the reset literal becomes a plain constant (its end offset), so the
/// send streams a word that was never staged.
TEST(PlanVerify, SendOfUnstagedWordsWarns) {
  parser::AcceleratorDesc Accel;
  auto Plan = compilePlan(Accel);
  ASSERT_TRUE(Plan);
  std::string ModelError;
  auto Model = analysis::ProtocolModel::forAccelerator(Accel, ModelError);
  ASSERT_TRUE(succeeded(Model)) << ModelError;
  analysis::VerifyOptions Options;
  Options.Model = &*Model;

  FirstLiteral F = findFirstLiteral(*Plan);
  ASSERT_GE(F.Literal, 0);
  ASSERT_GE(F.Offset, 0) << "expected a constant literal offset";
  ASSERT_GT(F.Send, F.Literal);
  Inst &I = PlanView::mutableProgram(*Plan)[F.Literal];
  I.Code = POp::ConstInt;
  I.Imm = F.Offset + 1;
  analysis::VerifyResult Result = analysis::verifyPlan(*Plan, Options);
  EXPECT_TRUE(Result.Errors.empty()) << Result.toString();
  expectWarning(Result, "pc " + std::to_string(F.Send) +
                            " (send): streams region words never staged "
                            "since the last dma_init (first at offset " +
                            std::to_string(F.Offset) + ")");
}

/// A send after a staging write the checker cannot place: the reset
/// literal's offset becomes a runtime value (the first argument), and the
/// send keeps a constant range (its end becomes the literal's opcode).
TEST(PlanVerify, SendOfUnreconstructedRegionWarns) {
  parser::AcceleratorDesc Accel;
  auto Plan = compilePlan(Accel);
  ASSERT_TRUE(Plan);
  std::string ModelError;
  auto Model = analysis::ProtocolModel::forAccelerator(Accel, ModelError);
  ASSERT_TRUE(succeeded(Model)) << ModelError;
  analysis::VerifyOptions Options;
  Options.Model = &*Model;

  FirstLiteral F = findFirstLiteral(*Plan);
  ASSERT_GE(F.Literal, 0);
  ASSERT_GT(F.Send, F.Literal);
  std::vector<Inst> &Program = PlanView::mutableProgram(*Plan);
  Program[F.Literal].B = 0;
  Program[F.Send].A = Program[F.Literal].A;
  analysis::VerifyResult Result = analysis::verifyPlan(*Plan, Options);
  EXPECT_TRUE(Result.Errors.empty()) << Result.toString();
  expectWarning(Result, "pc " + std::to_string(F.Send) +
                            " (send): sends from a staged region the "
                            "checker could not reconstruct; protocol "
                            "tracking stops");
}

/// A loop body that emits a tile without receiving it grows the modeled
/// output by one tile per iteration; over a trip count whose total does
/// not fit in int64 the pending count becomes unknown instead of
/// overflowing.
TEST(ProtocolModel, AccumulatorsBeyondInt64BecomeUnknown) {
  namespace op = sim::opcodes;
  analysis::ProtocolModel Model = analysis::ProtocolModel::matmul(V::V3, 4);
  auto iteration = [](analysis::ProtocolModel &M) {
    for (uint32_t Load : {op::MM_SA, op::MM_SB}) {
      EXPECT_EQ(M.feedWord(analysis::AbstractWord::constant(Load)), "");
      EXPECT_EQ(M.feedData(16), "");
    }
    for (uint32_t Opcode : {op::MM_CC, op::MM_RC})
      EXPECT_EQ(M.feedWord(analysis::AbstractWord::constant(Opcode)), "");
  };
  iteration(Model);
  ASSERT_EQ(Model.pendingOutputWords(), 16);
  analysis::ProtocolModel AfterTwo = Model;
  iteration(AfterTwo);
  ASSERT_EQ(AfterTwo.pendingOutputWords(), 32);

  analysis::ProtocolModel Four = Model;
  Four.extrapolateAccumulators(AfterTwo, 4);
  EXPECT_EQ(Four.pendingOutputWords(), 64);
  // The trip count of `for 0 to INT64_MAX step 4`: 2^61 tiles of 16 words.
  Model.extrapolateAccumulators(AfterTwo, int64_t{1} << 61);
  EXPECT_EQ(Model.pendingOutputWords(), -1);
}

//===----------------------------------------------------------------------===//
// The staged-region model against a per-word map
//===----------------------------------------------------------------------===//

using analysis::AbstractWord;
using analysis::StagedRegion;
using analysis::WordRange;
using WordMap = std::map<int64_t, AbstractWord>;

bool sameWord(const AbstractWord &A, const AbstractWord &B) {
  return A.K == B.K && (A.K != AbstractWord::Kind::Const || A.Value == B.Value);
}

std::string describe(const AbstractWord *W) {
  if (!W)
    return "never staged";
  switch (W->K) {
  case AbstractWord::Kind::Const:
    return "const " + std::to_string(W->Value);
  case AbstractWord::Kind::Data:
    return "data";
  case AbstractWord::Kind::Unknown:
    return "unknown";
  }
  return "?";
}

/// The pieces a send over \p R feeds the protocol model, one line each,
/// stopping after \p Limit of them. The per-word walk over \p Map is
/// the reference: consecutive data words go in one burst, every other
/// word alone.
std::vector<std::string> oracleStream(const WordMap &Map, WordRange R,
                                      size_t Limit) {
  std::vector<std::string> Out;
  int64_t O = R.Begin;
  while (O < R.End && Out.size() < Limit) {
    auto It = Map.find(O);
    if (It != Map.end() && It->second.K == AbstractWord::Kind::Data) {
      int64_t Run = 0;
      for (; O < R.End; ++O, ++Run) {
        auto Next = Map.find(O);
        if (Next == Map.end() || Next->second.K != AbstractWord::Kind::Data)
          break;
      }
      Out.push_back("data burst of " + std::to_string(Run));
      continue;
    }
    Out.push_back("word " + std::to_string(O) + ": " +
                  describe(It == Map.end() ? nullptr : &It->second));
    ++O;
  }
  return Out;
}

std::vector<std::string> regionStream(const StagedRegion &Region, WordRange R,
                                      size_t Limit) {
  std::vector<std::string> Out;
  Region.stream(
      R,
      [&](int64_t Count) {
        Out.push_back("data burst of " + std::to_string(Count));
        return Out.size() < Limit;
      },
      [&](int64_t Offset, const AbstractWord *W) {
        Out.push_back("word " + std::to_string(Offset) + ": " + describe(W));
        return Out.size() < Limit;
      });
  return Out;
}

/// The loop merge the verifier made per word before it tracked runs.
void oracleMerge(WordMap &Cur, const WordMap &Pre) {
  for (auto &Entry : Cur) {
    auto It = Pre.find(Entry.first);
    if (It == Pre.end() || !sameWord(It->second, Entry.second))
      Entry.second = AbstractWord::unknown();
  }
  for (const auto &Old : Pre)
    if (!Cur.count(Old.first))
      Cur[Old.first] = AbstractWord::unknown();
}

/// Random overlapping data, constant and unknown stages, clears and loop
/// merges, applied to a StagedRegion and to a per-word map: after every
/// step each word of the window, the run-list invariants, and the pieces
/// a send over a random range would feed the model must agree.
TEST(StagedRegion, RandomSweepMatchesPerWordMap) {
  uint32_t Seed = 1;
  int Cases = 200;
  if (const char *Env = std::getenv("AXI4MLIR_FUZZ_SEED"))
    Seed = static_cast<uint32_t>(std::strtoul(Env, nullptr, 10));
  if (const char *Env = std::getenv("AXI4MLIR_FUZZ_CASES"))
    Cases = static_cast<int>(std::strtol(Env, nullptr, 10));
  std::mt19937_64 Rng(Seed);
  auto pick = [&](int64_t Lo, int64_t Hi) {
    return std::uniform_int_distribution<int64_t>(Lo, Hi)(Rng);
  };
  // Offsets may be negative: the verifier still tracks a staging write it
  // has reported as out of the region.
  const int64_t Lo = -8, Hi = 56;
  for (int Case = 0; Case < Cases; ++Case) {
    SCOPED_TRACE("seed " + std::to_string(Seed) + " case " +
                 std::to_string(Case));
    StagedRegion Region, SavedRegion;
    WordMap Map, SavedMap;
    for (int Step = 0; Step < 40; ++Step) {
      std::string Op;
      int64_t Kind = pick(0, 9);
      if (Kind <= 5) {
        int64_t Begin = pick(Lo, Hi - 1);
        int64_t End = std::min(Hi, Begin + pick(0, 12));
        AbstractWord W = Kind <= 2   ? AbstractWord::data()
                         : Kind <= 4 ? AbstractWord::constant(pick(0, 2))
                                     : AbstractWord::unknown();
        if (Kind != 5 && Kind >= 3 && pick(0, 1))
          End = std::min(End, Begin + 1); // a literal
        Region.assign({Begin, End}, W);
        for (int64_t O = Begin; O < End; ++O)
          Map[O] = W;
        Op = "assign [" + std::to_string(Begin) + ", " +
             std::to_string(End) + ") " + describe(&W);
      } else if (Kind == 6) {
        SavedRegion = Region;
        SavedMap = Map;
        Op = "snapshot";
      } else if (Kind <= 8) {
        Region.mergeUnknown(SavedRegion);
        oracleMerge(Map, SavedMap);
        Op = "merge";
      } else {
        Region.clear();
        Map.clear();
        Op = "clear";
      }
      SCOPED_TRACE("step " + std::to_string(Step) + ": " + Op);

      const std::vector<StagedRegion::Run> &Runs = Region.runs();
      for (size_t I = 0; I < Runs.size(); ++I) {
        ASSERT_LT(Runs[I].Range.Begin, Runs[I].Range.End) << "empty run";
        if (I == 0)
          continue;
        ASSERT_LE(Runs[I - 1].Range.End, Runs[I].Range.Begin)
            << "runs overlap or are unsorted";
        ASSERT_FALSE(Runs[I - 1].Range.End == Runs[I].Range.Begin &&
                     sameWord(Runs[I - 1].Word, Runs[I].Word))
            << "adjacent equal runs at " << Runs[I].Range.Begin
            << " are not merged";
      }
      for (int64_t O = Lo - 2; O < Hi + 2; ++O) {
        auto It = Map.find(O);
        const AbstractWord *Want = It == Map.end() ? nullptr : &It->second;
        ASSERT_EQ(describe(Region.find(O)), describe(Want)) << "word " << O;
      }
      int64_t Begin = pick(Lo - 2, Hi + 1);
      WordRange Send = {Begin, pick(Begin, Hi + 2)};
      size_t Limit = static_cast<size_t>(pick(1, 80));
      ASSERT_EQ(regionStream(Region, Send, Limit),
                oracleStream(Map, Send, Limit))
          << "send [" << Send.Begin << ", " << Send.End << ") limit "
          << Limit;
    }
  }
}

//===----------------------------------------------------------------------===//
// Verify-each wiring: the optimizer refuses to hand back a corrupt plan
//===----------------------------------------------------------------------===//

TEST(PlanVerify, VerifyEachReportsCorruptInput) {
  parser::AcceleratorDesc Accel;
  auto Plan = compilePlan(Accel);
  ASSERT_TRUE(Plan);
  PlanView::mutableDmaConfigs(*Plan)[0].InputBufferSize = 8;
  opt::PlanOptOptions Options = opt::PlanOptOptions::all();
  Options.VerifyEach = true;
  opt::PlanOptStats Stats = opt::optimizePlan(*Plan, Options);
  ASSERT_FALSE(Stats.VerifyError.empty());
  EXPECT_FALSE(Stats.VerifyFailedPass.empty());
  EXPECT_NE(Stats.VerifyError.find("holds only"), std::string::npos)
      << Stats.VerifyError;
}

//===----------------------------------------------------------------------===//
// Config-level protocol checker (axi4mlir-lint) negatives
//===----------------------------------------------------------------------===//

/// Expects an error finding containing \p Needle; on failure prints every
/// finding.
void expectFinding(const analysis::ProtocolFindings &F,
                   const std::string &Needle) {
  std::string All;
  for (const std::string &E : F.Errors) {
    if (E.find(Needle) != std::string::npos)
      return;
    All += "error: " + E + "\n";
  }
  for (const std::string &W : F.Warnings)
    All += "warning: " + W + "\n";
  ADD_FAILURE() << "no error finding contains '" << Needle << "'; got:\n"
                << All;
}

analysis::ProtocolFindings checkConfig(const std::string &ConfigJson) {
  return analysis::checkConfigProtocol(parseSingleAccelerator(ConfigJson));
}

/// The checked-in lint negative (CTest pins its exit status too): a v1
/// engine streamed the v3 micro-ISA.
TEST(ConfigProtocol, OpcodeOutsideTheVersionRejected) {
  std::ifstream In(std::string(AXI4MLIR_SOURCE_DIR) +
                   "/tests/corpus/lint/matmul_v1_with_v3_opcodes.json");
  ASSERT_TRUE(In.good());
  std::stringstream Json;
  Json << In.rdbuf();
  expectFinding(checkConfig(Json.str()), "not supported");
}

TEST(ConfigProtocol, PayloadBeforeOpcodeRejected) {
  analysis::ProtocolFindings F = checkConfig(
      replaceOnce(makeMatMulConfigJson(V::V3, 4, "As"),
                  "sA = [send_literal(0x22), send(0)]",
                  "sA = [send(0), send_literal(0x22)]"));
  expectFinding(F, "expects an opcode");
  // Between opcodes the engine holds no trace of the last one, so the
  // inner scope still returns to a repeatable state.
  for (const std::string &E : F.Errors)
    EXPECT_EQ(E.find("repeatable state"), std::string::npos) << E;
}

TEST(ConfigProtocol, LargeEnginesAreNotMisreported) {
  // A v4 engine of size 12000 holds 16 * 12000^2 words per operand,
  // beyond the 32-bit configuration fields: its capacity saturates rather
  // than wrapping negative, so its own default cfg tile still fits. A
  // 5e9-wide tile has more words than int64_t holds: the checker stops
  // counting them instead of overflowing.
  for (const std::string &Json :
       {makeMatMulConfigJson(V::V4, 12000, "As"),
        makeMatMulConfigJson(V::V3, 5000000000, "As")})
    for (const std::string &E : checkConfig(Json).Errors)
      ADD_FAILURE() << E;
}

TEST(ConfigProtocol, OversizedConvWindowRejected) {
  const std::string Rst = "rst = [send_literal(32), send_dim(1, 3), "
                          "send_literal(16), send_dim(0, 1)]";
  // iC=300, fS=7 needs 14700 window words; and fS = 2^31-1, whose window
  // does not fit int64, must be bounded without overflowing.
  for (const char *Bad : {"rst = [send_literal(32), send_literal(7), "
                          "send_literal(16), send_literal(300)]",
                          "rst = [send_literal(32), send_literal(2147483647), "
                          "send_literal(16), send_literal(3)]"})
    expectFinding(checkConfig(replaceOnce(makeConvConfigJson(), Rst, Bad)),
                  "window buffer");
}

} // namespace
