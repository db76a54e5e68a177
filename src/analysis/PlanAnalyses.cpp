//===- PlanAnalyses.cpp - Shared ExecPlan analyses ------------------------===//
//
// Part of the AXI4MLIR reproduction. MIT licensed.
//
//===----------------------------------------------------------------------===//

#include "analysis/PlanAnalyses.h"

#include <algorithm>

using namespace axi4mlir;
using namespace axi4mlir::analysis;

using Inst = PlanView::Inst;
using Op = PlanView::Op;
using BinKind = PlanView::BinKind;

bool WordRange::coveredBy(const std::vector<WordRange> &Parts) const {
  int64_t Pos = Begin;
  bool Progress = true;
  while (Pos < End && Progress) {
    Progress = false;
    for (const WordRange &R : Parts) {
      if (R.Begin <= Pos && Pos < R.End) {
        Pos = R.End;
        Progress = true;
      }
    }
  }
  return Pos >= End;
}

bool analysis::evalConstDst(const Inst &I, const SlotFacts &Facts,
                            int64_t &Out) {
  switch (I.Code) {
  case Op::ConstInt:
    Out = I.Imm;
    return true;
  case Op::IndexCast:
    if (!Facts.isConst(I.A))
      return false;
    Out = Facts.Value[I.A];
    return true;
  case Op::Binary: {
    if ((I.Sub & PlanView::BinFloatResult) || !Facts.isConst(I.A) ||
        !Facts.isConst(I.B))
      return false;
    double LHS = static_cast<double>(Facts.Value[I.A]);
    double RHS = static_cast<double>(Facts.Value[I.B]);
    double R = 0;
    switch (static_cast<BinKind>(I.Sub & 0x7)) {
    case BinKind::Add:
      R = LHS + RHS;
      break;
    case BinKind::Mul:
      R = LHS * RHS;
      break;
    case BinKind::Sub:
      R = LHS - RHS;
      break;
    case BinKind::Div:
      if (RHS == 0)
        return false;
      R = LHS / RHS;
      break;
    case BinKind::Max:
      R = LHS > RHS ? LHS : RHS;
      break;
    }
    Out = static_cast<int64_t>(R);
    return true;
  }
  case Op::CallCopyLiteralToDma:
  case Op::CallCopyToDma: {
    // The result is the end offset of the staged range.
    WordRange R;
    if (!inputWriteRange(I, Facts, R))
      return false;
    Out = R.End;
    return true;
  }
  default:
    return false;
  }
}

int64_t analysis::constTripCount(const Inst &LoopBegin,
                                 const SlotFacts &Facts) {
  if (!Facts.isConst(LoopBegin.A) || !Facts.isConst(LoopBegin.B) ||
      !Facts.isConst(LoopBegin.C))
    return -1;
  int64_t Lb = Facts.Value[LoopBegin.A], Ub = Facts.Value[LoopBegin.B],
          Step = Facts.Value[LoopBegin.C];
  if (Step <= 0)
    return -1;
  if (Lb >= Ub)
    return 0;
  return (Ub - Lb + Step - 1) / Step;
}

bool analysis::inputWriteRange(const Inst &I, const SlotFacts &Facts,
                               WordRange &R) {
  if (I.Code == Op::CallCopyLiteralToDma) {
    if (!Facts.isConst(I.B))
      return false;
    R = {Facts.Value[I.B], Facts.Value[I.B] + 1};
    return true;
  }
  if (I.Code == Op::CallCopyToDma) {
    if (!Facts.isConst(I.B) || !Facts.isSized(I.A))
      return false;
    R = {Facts.Value[I.B], Facts.Value[I.B] + Facts.Count[I.A]};
    return true;
  }
  return false;
}

bool analysis::sendRange(const Inst &I, const SlotFacts &Facts,
                         WordRange &R) {
  if (!Facts.isConst(I.A) || !Facts.isConst(I.B))
    return false;
  R = {Facts.Value[I.B], Facts.Value[I.A]}; // B = offset, A = end offset
  return true;
}

int64_t analysis::inputRegionWords(const PlanView &Plan) {
  if (Plan.dmaConfigs().empty())
    return 0;
  int64_t Words = -1;
  for (const accel::DmaInitConfig &C : Plan.dmaConfigs()) {
    int64_t W = C.InputBufferSize / 4;
    Words = Words < 0 ? W : std::min(Words, W);
  }
  return std::max<int64_t>(Words, 0);
}

int64_t analysis::staticElementCount(const PlanView &Plan, const Inst &I) {
  int64_t Count = 1;
  if (I.Code == Op::SubView) {
    if (I.Aux < 0 ||
        static_cast<size_t>(I.Aux) >= Plan.subViews().size())
      return -1;
    for (int64_t S : Plan.subViews()[I.Aux].StaticSizes)
      Count *= S;
    return Count;
  }
  if (I.Code == Op::Alloc) {
    if (I.Aux < 0 || static_cast<size_t>(I.Aux) >= Plan.allocs().size())
      return -1;
    for (int64_t S : Plan.allocs()[I.Aux].Shape)
      Count *= S;
    return Count;
  }
  return -1;
}
