//===- InterpreterTest.cpp - IR interpreter unit tests --------------------===//
//
// Part of the AXI4MLIR reproduction. MIT licensed.
//
//===----------------------------------------------------------------------===//

#include "dialects/InitAllDialects.h"
#include "exec/Interpreter.h"
#include "exec/Pipeline.h"
#include "exec/Reference.h"

#include <gtest/gtest.h>

using namespace axi4mlir;
using namespace axi4mlir::exec;
using runtime::MemRefDesc;

namespace {

struct InterpFixture {
  MLIRContext Context;
  OpBuilder Builder{&Context};
  std::unique_ptr<sim::SoC> Soc = sim::makeCpuOnlySoC();

  InterpFixture() { registerAllDialects(Context); }

  LogicalResult run(func::FuncOp Func,
                    const std::vector<MemRefDesc> &Args,
                    std::string &Error) {
    Interpreter Interp(*Soc, nullptr);
    return Interp.run(Func, Args, Error);
  }
};

TEST(Interpreter, LoopWritesEveryElement) {
  InterpFixture F;
  MemRefType Ty =
      MemRefType::get(&F.Context, {10}, Type::getI32(&F.Context));
  func::FuncOp Func = func::FuncOp::create(F.Builder, "fill", {Ty});
  OwningOpRef Owner(Func.getOperation());
  F.Builder.setInsertionPointToEnd(&Func.getBody());
  Value C0 = arith::ConstantOp::createIndex(F.Builder, 0).getResult();
  Value C10 = arith::ConstantOp::createIndex(F.Builder, 10).getResult();
  Value C1 = arith::ConstantOp::createIndex(F.Builder, 1).getResult();
  Value C7 =
      arith::ConstantOp::createInt(F.Builder, 7, F.Builder.getI32Type())
          .getResult();
  scf::ForOp Loop = scf::ForOp::create(F.Builder, C0, C10, C1);
  {
    OpBuilder::InsertPoint Saved = F.Builder.saveInsertionPoint();
    F.Builder.setInsertionPoint(Loop.getBodyTerminator());
    memref::StoreOp::create(F.Builder, C7, Func.getArgument(0),
                            {Loop.getInductionVar()});
    F.Builder.restoreInsertionPoint(Saved);
  }
  func::ReturnOp::create(F.Builder);

  MemRefDesc Buffer = MemRefDesc::alloc({10});
  std::string Error;
  ASSERT_TRUE(succeeded(F.run(Func, {Buffer}, Error))) << Error;
  for (int64_t I = 0; I < 10; ++I)
    EXPECT_EQ(Buffer.read({I}), 7);
  // 10 iterations charged as loop overhead + stores.
  EXPECT_EQ(F.Soc->report().Stores, 10u);
  EXPECT_GE(F.Soc->report().BranchInstructions, 10u);
}

TEST(Interpreter, SubviewLoadStore) {
  InterpFixture F;
  MemRefType Ty =
      MemRefType::get(&F.Context, {4, 4}, Type::getI32(&F.Context));
  func::FuncOp Func = func::FuncOp::create(F.Builder, "sv", {Ty});
  OwningOpRef Owner(Func.getOperation());
  F.Builder.setInsertionPointToEnd(&Func.getBody());
  Value C1 = arith::ConstantOp::createIndex(F.Builder, 1).getResult();
  Value C0 = arith::ConstantOp::createIndex(F.Builder, 0).getResult();
  Value Tile = memref::SubViewOp::create(F.Builder, Func.getArgument(0),
                                         {C1, C1}, {2, 2})
                   .getResult();
  Value Loaded =
      memref::LoadOp::create(F.Builder, Tile, {C0, C0}).getResult();
  Value Doubled =
      arith::BinaryOp::create(F.Builder, "arith.addi", Loaded, Loaded)
          .getResult();
  memref::StoreOp::create(F.Builder, Doubled, Tile, {C1, C1});
  func::ReturnOp::create(F.Builder);

  MemRefDesc Buffer = MemRefDesc::alloc({4, 4});
  Buffer.write({1, 1}, 21); // tile(0,0)
  std::string Error;
  ASSERT_TRUE(succeeded(F.run(Func, {Buffer}, Error))) << Error;
  EXPECT_EQ(Buffer.read({2, 2}), 42); // tile(1,1)
}

TEST(Interpreter, FloatArithmetic) {
  InterpFixture F;
  MemRefType Ty =
      MemRefType::get(&F.Context, {1}, Type::getF32(&F.Context));
  func::FuncOp Func = func::FuncOp::create(F.Builder, "fma", {Ty});
  OwningOpRef Owner(Func.getOperation());
  F.Builder.setInsertionPointToEnd(&Func.getBody());
  Value C0 = arith::ConstantOp::createIndex(F.Builder, 0).getResult();
  Value A = arith::ConstantOp::createFloat(F.Builder, 1.5,
                                           F.Builder.getF32Type())
                .getResult();
  Value B = arith::ConstantOp::createFloat(F.Builder, 2.0,
                                           F.Builder.getF32Type())
                .getResult();
  Value Product =
      arith::BinaryOp::create(F.Builder, "arith.mulf", A, B).getResult();
  memref::StoreOp::create(F.Builder, Product, Func.getArgument(0), {C0});
  func::ReturnOp::create(F.Builder);

  MemRefDesc Buffer = MemRefDesc::alloc({1}, sim::ElemKind::F32);
  std::string Error;
  ASSERT_TRUE(succeeded(F.run(Func, {Buffer}, Error))) << Error;
  EXPECT_DOUBLE_EQ(Buffer.read({0}), 3.0);
}

TEST(Interpreter, GenericMatMulMatchesReference) {
  InterpFixture F;
  func::FuncOp Func =
      buildMatMulFunc(F.Builder, 12, 20, 16, sim::ElemKind::I32);
  OwningOpRef Owner(Func.getOperation());
  std::string Error;
  ASSERT_TRUE(succeeded(transforms::convertNamedToGeneric(Func, Error)));

  MemRefDesc A = MemRefDesc::alloc({12, 16});
  MemRefDesc B = MemRefDesc::alloc({16, 20});
  MemRefDesc C = MemRefDesc::alloc({12, 20});
  fillRandom(A, 1);
  fillRandom(B, 2);
  fillRandom(C, 3);
  MemRefDesc Expected = cloneMemRef(C);
  referenceMatMul(A, B, Expected);

  ASSERT_TRUE(succeeded(F.run(Func, {A, B, C}, Error))) << Error;
  EXPECT_TRUE(memrefEquals(Expected, C));
  // The CPU run touched every MAC: loads > M*N*K.
  EXPECT_GT(F.Soc->report().Loads, 12u * 20 * 16);
}

TEST(Interpreter, GenericConvMatchesReference) {
  InterpFixture F;
  func::FuncOp Func = buildConvFunc(F.Builder, 1, 3, 8, 2, 3, 1,
                                    sim::ElemKind::I32);
  OwningOpRef Owner(Func.getOperation());
  std::string Error;
  ASSERT_TRUE(succeeded(transforms::convertNamedToGeneric(Func, Error)));

  MemRefDesc I = MemRefDesc::alloc({1, 3, 8, 8});
  MemRefDesc W = MemRefDesc::alloc({2, 3, 3, 3});
  MemRefDesc O = MemRefDesc::alloc({1, 2, 6, 6});
  fillRandom(I, 4);
  fillRandom(W, 5);
  fillRandom(O, 6);
  MemRefDesc Expected = cloneMemRef(O);
  referenceConv2D(I, W, Expected, 1, 1);

  ASSERT_TRUE(succeeded(F.run(Func, {I, W, O}, Error))) << Error;
  EXPECT_TRUE(memrefEquals(Expected, O));
}

TEST(Interpreter, ErrorsOnBadInput) {
  InterpFixture F;
  func::FuncOp Func =
      buildMatMulFunc(F.Builder, 8, 8, 8, sim::ElemKind::I32);
  OwningOpRef Owner(Func.getOperation());
  std::string Error;
  // Wrong argument count.
  EXPECT_TRUE(failed(F.run(Func, {}, Error)));
  EXPECT_NE(Error.find("argument count"), std::string::npos);

  // accel op without a runtime.
  MLIRContext &Ctx = F.Context;
  OpBuilder Builder(&Ctx);
  func::FuncOp Func2 = func::FuncOp::create(Builder, "f", {});
  OwningOpRef Owner2(Func2.getOperation());
  Builder.setInsertionPointToEnd(&Func2.getBody());
  accel::DmaInitOp::create(Builder, accel::DmaInitConfig());
  func::ReturnOp::create(Builder);
  Error.clear();
  EXPECT_TRUE(failed(F.run(Func2, {}, Error)));
  EXPECT_NE(Error.find("runtime"), std::string::npos);
}

/// Builds a trivial "store 7 into every element" function over a buffer
/// of \p Size elements, named \p Name.
func::FuncOp makeFillFunc(InterpFixture &F, const char *Name, int64_t Size) {
  MemRefType Ty =
      MemRefType::get(&F.Context, {Size}, Type::getI32(&F.Context));
  func::FuncOp Func = func::FuncOp::create(F.Builder, Name, {Ty});
  F.Builder.setInsertionPointToEnd(&Func.getBody());
  Value C0 = arith::ConstantOp::createIndex(F.Builder, 0).getResult();
  Value End = arith::ConstantOp::createIndex(F.Builder, Size).getResult();
  Value C1 = arith::ConstantOp::createIndex(F.Builder, 1).getResult();
  Value C7 =
      arith::ConstantOp::createInt(F.Builder, 7, F.Builder.getI32Type())
          .getResult();
  scf::ForOp Loop = scf::ForOp::create(F.Builder, C0, End, C1);
  {
    OpBuilder::InsertPoint Saved = F.Builder.saveInsertionPoint();
    F.Builder.setInsertionPoint(Loop.getBodyTerminator());
    memref::StoreOp::create(F.Builder, C7, Func.getArgument(0),
                            {Loop.getInductionVar()});
    F.Builder.restoreInsertionPoint(Saved);
  }
  func::ReturnOp::create(F.Builder);
  return Func;
}

/// Runs \p Func on \p Interp over a fresh buffer of \p Size elements and
/// expects every element to hold \p Value.
void runFill(Interpreter &Interp, func::FuncOp Func, int64_t Size,
             uint32_t Value) {
  MemRefDesc Buffer = MemRefDesc::alloc({Size});
  std::string Error;
  ASSERT_TRUE(succeeded(Interp.run(Func, {Buffer}, Error))) << Error;
  for (int64_t I = 0; I < Size; ++I)
    EXPECT_EQ(Buffer.Buffer->Data[size_t(I)], Value);
}

/// Every threaded run compiles the function it is given and charges one
/// plan-cache miss, whether it repeats a function or alternates between
/// several.
TEST(Interpreter, EveryRunChargesOnePlanCacheMiss) {
  InterpFixture F;
  func::FuncOp A = makeFillFunc(F, "a", 8);
  OwningOpRef OwnA(A.getOperation());
  func::FuncOp B = makeFillFunc(F, "b", 9);
  OwningOpRef OwnB(B.getOperation());
  func::FuncOp C = makeFillFunc(F, "c", 10);
  OwningOpRef OwnC(C.getOperation());

  Interpreter Interp(*F.Soc, nullptr);
  runFill(Interp, A, 8, 7);
  runFill(Interp, A, 8, 7);
  runFill(Interp, B, 9, 7);
  runFill(Interp, C, 10, 7);
  runFill(Interp, A, 8, 7);

  sim::PerfReport Report = F.Soc->report();
  EXPECT_EQ(Report.PlanCacheHits, 0u);
  EXPECT_EQ(Report.PlanCacheMisses, 5u);
}

/// Regression: a function edited in place between two runs on the same
/// Interpreter must run as edited. The edit keeps the op address, name,
/// argument types and top-level op count, so a plan cache keyed on those
/// would replay the stale program and store 7 again.
TEST(Interpreter, RerunAfterInPlaceEditRunsTheEdit) {
  InterpFixture F;
  func::FuncOp Func = makeFillFunc(F, "fill", 8);
  OwningOpRef Owner(Func.getOperation());
  Interpreter Interp(*F.Soc, nullptr);
  runFill(Interp, Func, 8, 7);

  Operation *Stored = nullptr;
  for (Operation *Op : Func.getBody().getOperations())
    if (Op->getName() == arith::ConstantOp::OpName &&
        Op->getResult(0).getType().isInteger())
      Stored = Op;
  ASSERT_NE(Stored, nullptr);
  Stored->setAttr("value", Attribute::getInteger(
                               9, Stored->getResult(0).getType()));
  runFill(Interp, Func, 8, 9);
}

TEST(Interpreter, UnknownOpIsDiagnosed) {
  InterpFixture F;
  func::FuncOp Func = func::FuncOp::create(F.Builder, "f", {});
  OwningOpRef Owner(Func.getOperation());
  F.Builder.setInsertionPointToEnd(&Func.getBody());
  F.Builder.create("mystery.op");
  func::ReturnOp::create(F.Builder);
  std::string Error;
  EXPECT_TRUE(failed(F.run(Func, {}, Error)));
  EXPECT_NE(Error.find("mystery.op"), std::string::npos);
}

} // namespace
