//===- PlanAnalyses.cpp - Shared ExecPlan analyses ------------------------===//
//
// Part of the AXI4MLIR reproduction. MIT licensed.
//
//===----------------------------------------------------------------------===//

#include "analysis/PlanAnalyses.h"

#include <algorithm>
#include <limits>

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

namespace {
bool sameWord(const AbstractWord &A, const AbstractWord &B) {
  return A.K == B.K && (A.K != AbstractWord::Kind::Const || A.Value == B.Value);
}

/// Extends \p Into over \p Next when Next continues it with an equal
/// word: the one rule that keeps adjacent runs distinct.
bool extendRun(StagedRegion::Run &Into, const StagedRegion::Run &Next) {
  if (Into.Range.End != Next.Range.Begin || !sameWord(Into.Word, Next.Word))
    return false;
  Into.Range.End = Next.Range.End;
  return true;
}

/// True when [Offset, Offset + Count) ends inside int64 (Count >= 0).
bool endFits(int64_t Offset, int64_t Count) {
  return Offset <= 0 || Count <= std::numeric_limits<int64_t>::max() - Offset;
}
} // namespace

size_t StagedRegion::firstEndingAfter(int64_t Offset) const {
  auto EndsBefore = [&](const Run &R) { return R.Range.End <= Offset; };
  return static_cast<size_t>(
      std::partition_point(Runs.begin(), Runs.end(), EndsBefore) -
      Runs.begin());
}

const AbstractWord *StagedRegion::find(int64_t Offset) const {
  size_t I = firstEndingAfter(Offset);
  if (I < Runs.size() && Runs[I].Range.Begin <= Offset)
    return &Runs[I].Word;
  return nullptr;
}

void StagedRegion::assign(WordRange R, const AbstractWord &W) {
  if (R.Begin >= R.End)
    return;
  // Runs [Lo, Hi) overlap R; their parts outside R survive around it.
  size_t Lo = firstEndingAfter(R.Begin), Hi = Lo;
  while (Hi < Runs.size() && Runs[Hi].Range.Begin < R.End)
    ++Hi;
  Run Pieces[3];
  size_t N = 0;
  if (Lo < Hi && Runs[Lo].Range.Begin < R.Begin)
    Pieces[N++] = {{Runs[Lo].Range.Begin, R.Begin}, Runs[Lo].Word};
  Pieces[N++] = {R, W};
  if (Lo < Hi && Runs[Hi - 1].Range.End > R.End)
    Pieces[N++] = {{R.End, Runs[Hi - 1].Range.End}, Runs[Hi - 1].Word};
  auto At = Runs.begin() + static_cast<ptrdiff_t>(Lo);
  if (N > Hi - Lo)
    Runs.insert(At, N - (Hi - Lo), Run());
  else
    Runs.erase(At, At + static_cast<ptrdiff_t>(Hi - Lo - N));
  std::copy(Pieces, Pieces + N, Runs.begin() + static_cast<ptrdiff_t>(Lo));

  // Merge equal neighbours across the spliced pieces and their two sides.
  size_t Out = Lo > 0 ? Lo - 1 : Lo;
  size_t Last = std::min(Lo + N + 1, Runs.size());
  for (size_t I = Out + 1; I < Last; ++I)
    if (!extendRun(Runs[Out], Runs[I]))
      Runs[++Out] = Runs[I];
  Runs.erase(Runs.begin() + static_cast<ptrdiff_t>(Out + 1),
             Runs.begin() + static_cast<ptrdiff_t>(Last));
}

void StagedRegion::mergeUnknown(const StagedRegion &Other) {
  constexpr int64_t Max = std::numeric_limits<int64_t>::max();
  const std::vector<Run> &A = Runs, &B = Other.Runs;
  std::vector<Run> Out;
  size_t I = 0, J = 0;
  int64_t Pos = std::numeric_limits<int64_t>::min();
  // Sweep both lists together: between two consecutive run boundaries of
  // either list, each side holds one word or none.
  while (true) {
    while (I < A.size() && A[I].Range.End <= Pos)
      ++I;
    while (J < B.size() && B[J].Range.End <= Pos)
      ++J;
    const Run *RA = I < A.size() ? &A[I] : nullptr;
    const Run *RB = J < B.size() ? &B[J] : nullptr;
    if (!RA && !RB)
      break;
    int64_t Begin = std::max(Pos, std::min(RA ? RA->Range.Begin : Max,
                                           RB ? RB->Range.Begin : Max));
    bool InA = RA && RA->Range.Begin <= Begin;
    bool InB = RB && RB->Range.Begin <= Begin;
    int64_t End =
        std::min(RA ? (InA ? RA->Range.End : RA->Range.Begin) : Max,
                 RB ? (InB ? RB->Range.End : RB->Range.Begin) : Max);
    Run Merged = {{Begin, End},
                  InA && InB && sameWord(RA->Word, RB->Word)
                      ? RA->Word
                      : AbstractWord::unknown()};
    if (Out.empty() || !extendRun(Out.back(), Merged))
      Out.push_back(Merged);
    Pos = End;
  }
  Runs = std::move(Out);
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
    // Converting a double outside int64 (or NaN) to int64_t is undefined:
    // such a fold is not a constant.
    if (!(R >= -0x1p63 && R < 0x1p63))
      return false;
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
  // Ub - Lb and the rounding can exceed int64; count in uint64.
  uint64_t Span = static_cast<uint64_t>(Ub) - static_cast<uint64_t>(Lb);
  uint64_t S = static_cast<uint64_t>(Step);
  uint64_t Trip = Span / S + (Span % S != 0);
  if (Trip > static_cast<uint64_t>(std::numeric_limits<int64_t>::max()))
    return -1;
  return static_cast<int64_t>(Trip);
}

bool analysis::inputWriteRange(const Inst &I, const SlotFacts &Facts,
                               WordRange &R) {
  int64_t Count;
  if (I.Code == Op::CallCopyLiteralToDma)
    Count = 1;
  else if (I.Code == Op::CallCopyToDma && Facts.isSized(I.A))
    Count = Facts.Count[I.A];
  else
    return false;
  if (!Facts.isConst(I.B) || !endFits(Facts.Value[I.B], Count))
    return false;
  R = {Facts.Value[I.B], Facts.Value[I.B] + Count};
  return true;
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
