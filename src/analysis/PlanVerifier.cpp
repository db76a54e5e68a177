//===- PlanVerifier.cpp - Static ExecPlan verification --------------------===//
//
// Part of the AXI4MLIR reproduction. MIT licensed.
//
//===----------------------------------------------------------------------===//
//
// A flow-sensitive abstract interpretation over the flat instruction
// program. Loops are walked through their structure: a body is
// interpreted once under first-iteration semantics (with the constants
// of any slot the body overwrites invalidated, so facts that change
// across iterations are never trusted), and when the protocol model
// changed, a second suppressed walk proves the body reaches a protocol
// fixpoint before its effect is admitted. Zero-trip loops are walked for
// diagnosis and then fully rolled back; unknown-trip loops merge their
// exit state against the entry state (definitions become "maybe",
// disagreeing constants are dropped).
//
//===----------------------------------------------------------------------===//

#include "analysis/PlanVerifier.h"

#include "analysis/PlanAnalyses.h"
#include "analysis/PlanView.h"

#include <array>
#include <utility>

using namespace axi4mlir;
using namespace axi4mlir::analysis;

std::string VerifyResult::toString() const {
  std::string Out;
  for (const PlanDiag &D : Errors)
    Out += "error: " + D.Message + "\n";
  for (const PlanDiag &D : Warnings)
    Out += "warning: " + D.Message + "\n";
  return Out;
}

namespace {

using Inst = PlanView::Inst;
using Op = PlanView::Op;
using SlotUse = PlanView::SlotUse;

/// Hard ceiling on reported errors; a corrupted program should not
/// produce an avalanche.
constexpr size_t MaxErrors = 64;

class Verifier {
public:
  Verifier(const exec::ExecPlan &Plan, const VerifyOptions &Opts)
      : V(Plan), Opts(Opts), Facts(V.numSlots()) {
    if (Opts.Model) {
      Model = *Opts.Model;
      HaveModel = true;
    }
  }

  VerifyResult run();

private:
  /// Abstract per-slot state. Constant values and static element counts
  /// live in the shared SlotFacts, kept in sync with every definition.
  struct AbsSlot {
    enum class Def : uint8_t { Undef, Maybe, Yes };
    enum class Kind : uint8_t { Unknown, Scalar, MemRef };
    Def D = Def::Undef;
    Kind K = Kind::Unknown;
    int64_t Rank = -1; ///< memref rank when statically known
  };

  struct Snapshot {
    std::vector<AbsSlot> Slots;
    SlotFacts Facts;
    int32_t CurDma;
    ProtocolModel Model;
    StagedRegion Region;
    bool RegionUnknown;
  };

  //===------------------------------------------------------------------===//
  // Diagnostics
  //===------------------------------------------------------------------===//

  std::string at(int64_t Pc) const {
    if (Pc < 0)
      return std::string();
    return "pc " + std::to_string(Pc) + " (" +
           PlanView::info(V.program()[static_cast<size_t>(Pc)].Code).Name +
           "): ";
  }
  void error(int64_t Pc, const std::string &Msg) {
    if (QuietDepth)
      return;
    if (R.Errors.size() >= MaxErrors) {
      Aborted = true;
      return;
    }
    R.Errors.push_back({Pc, at(Pc) + Msg});
  }
  void warn(int64_t Pc, const std::string &Msg) {
    if (QuietDepth)
      return;
    R.Warnings.push_back({Pc, at(Pc) + Msg});
  }

  //===------------------------------------------------------------------===//
  // Slot state
  //===------------------------------------------------------------------===//

  bool inRange(int32_t Slot) const {
    return Slot >= 0 && static_cast<unsigned>(Slot) < V.numSlots();
  }

  bool checkWrite(int64_t Pc, int32_t Slot) {
    if (inRange(Slot))
      return true;
    error(Pc, "defines slot %" + std::to_string(Slot) +
                  " outside the plan's " + std::to_string(V.numSlots()) +
                  " slots");
    return false;
  }

  bool checkRead(int64_t Pc, int32_t Slot, SlotUse Want, const char *What) {
    if (!inRange(Slot)) {
      error(Pc, std::string("reads ") + What + " from slot %" +
                    std::to_string(Slot) + " outside the plan's " +
                    std::to_string(V.numSlots()) + " slots");
      return false;
    }
    const AbsSlot &S = Slots[Slot];
    if (S.D == AbsSlot::Def::Undef) {
      error(Pc, std::string("reads ") + What + " from %" +
                    std::to_string(Slot) + " before any definition");
      return false;
    }
    if (S.D == AbsSlot::Def::Maybe)
      warn(Pc, std::string("reads ") + What + " from %" +
                   std::to_string(Slot) +
                   " whose only definition sits inside a possibly "
                   "zero-trip loop");
    if (Want == SlotUse::MemRef && S.K == AbsSlot::Kind::Scalar) {
      error(Pc, std::string("expects a memref as ") + What + " but %" +
                    std::to_string(Slot) + " holds a scalar");
      return false;
    }
    if (Want == SlotUse::Scalar && S.K == AbsSlot::Kind::MemRef) {
      error(Pc, std::string("expects a scalar as ") + What + " but %" +
                    std::to_string(Slot) + " holds a memref");
      return false;
    }
    return true;
  }

  /// Checks the A/B/C reads \p I's opcode row declares, in that order;
  /// \p Role, when given, replaces the row's role text. Returns which
  /// reads passed (an undeclared field passes).
  std::array<bool, 3> checkOperands(int64_t Pc, const Inst &I,
                                    const char *Role = nullptr) {
    std::array<bool, 3> Ok = {true, true, true};
    const PlanView::OpInfo &Info = PlanView::info(I.Code);
    for (unsigned K = 0; K < 3; ++K)
      if (Info.Reads[K].Kind != SlotUse::None)
        Ok[K] = checkRead(Pc, PlanView::operand(I, K), Info.Reads[K].Kind,
                          Role ? Role : Info.Reads[K].Role);
    return Ok;
  }

  void defineScalar(int32_t Slot, bool IsConst, int64_t Value) {
    if (!inRange(Slot))
      return;
    Slots[Slot] = {AbsSlot::Def::Yes, AbsSlot::Kind::Scalar, -1};
    Facts.Known[Slot] = IsConst;
    Facts.Value[Slot] = IsConst ? Value : 0;
    Facts.SizeKnown[Slot] = 0;
    Facts.Count[Slot] = 0;
  }
  void defineMemRef(int32_t Slot, int64_t Count, int64_t Rank) {
    if (!inRange(Slot))
      return;
    Slots[Slot] = {AbsSlot::Def::Yes, AbsSlot::Kind::MemRef, Rank};
    Facts.Known[Slot] = 0;
    Facts.Value[Slot] = 0;
    Facts.SizeKnown[Slot] = Count >= 0;
    Facts.Count[Slot] = Count >= 0 ? Count : 0;
  }
  void defineUnknown(int32_t Slot) {
    if (!inRange(Slot))
      return;
    Slots[Slot] = {AbsSlot::Def::Yes, AbsSlot::Kind::Unknown, -1};
    Facts.Known[Slot] = 0;
    Facts.SizeKnown[Slot] = 0;
  }
  /// Defines \p I's scalar result, constant when evalConstDst folds it.
  void defineScalarResult(const Inst &I) {
    int64_t Out = 0;
    bool IsConst = evalConstDst(I, Facts, Out);
    defineScalar(I.Dst, IsConst, Out);
  }
  /// Defines the result \p I's opcode row declares. A memref result
  /// (alloc, subview) takes its side-table entry's static shape, which
  /// checkSideTable has proven present.
  void defineResult(int64_t Pc, const Inst &I) {
    SlotUse Kind = PlanView::info(I.Code).Defines;
    if (Kind == SlotUse::None || !checkWrite(Pc, I.Dst))
      return;
    if (Kind == SlotUse::Scalar) {
      defineScalarResult(I);
      return;
    }
    const std::vector<int64_t> &Shape =
        I.Code == Op::Alloc ? V.allocs()[I.Aux].Shape
                            : V.subViews()[I.Aux].StaticSizes;
    defineMemRef(I.Dst, staticElementCount(V, I),
                 static_cast<int64_t>(Shape.size()));
  }

  int64_t memrefCount(int32_t Slot) const {
    return Facts.isSized(Slot) ? Facts.Count[Slot] : -1;
  }
  int64_t memrefRank(int32_t Slot) const {
    return inRange(Slot) ? Slots[Slot].Rank : -1;
  }

  bool checkPool(int64_t Pc, int32_t Offset, unsigned Count) {
    if (Offset >= 0 &&
        static_cast<size_t>(Offset) + Count <= V.slotPool().size())
      return true;
    error(Pc, "index pool range [" + std::to_string(Offset) + ", " +
                  std::to_string(Offset + static_cast<int32_t>(Count)) +
                  ") is outside the plan's pool (" +
                  std::to_string(V.slotPool().size()) + " entries)");
    return false;
  }

  /// Bounds-checks the side-table entry \p I's Aux selects (alloc,
  /// subview and generic plans, dma configs); true when it exists or the
  /// opcode has none.
  bool checkSideTable(int64_t Pc, const Inst &I) {
    const char *What;
    size_t Size;
    switch (I.Code) {
    case Op::Alloc:
      What = "alloc side-table index #";
      Size = V.allocs().size();
      break;
    case Op::SubView:
      What = "subview side-table index #";
      Size = V.subViews().size();
      break;
    case Op::Generic:
      What = "generic side-table index #";
      Size = V.generics().size();
      break;
    case Op::CallDmaInit:
      What = "dma config index #";
      Size = V.dmaConfigs().size();
      break;
    default:
      return true;
    }
    if (I.Aux >= 0 && static_cast<size_t>(I.Aux) < Size)
      return true;
    error(Pc, What + std::to_string(I.Aux) + " out of bounds (" +
                  std::to_string(Size) + " entries)");
    return false;
  }

  /// A load/store whose memref has a known rank must index every
  /// dimension.
  void checkRank(int64_t Pc, int32_t MemRef, int64_t NumIndices) {
    int64_t Rank = memrefRank(MemRef);
    if (Rank >= 0 && Rank != NumIndices)
      error(Pc, "indexes a rank-" + std::to_string(Rank) + " memref with " +
                    std::to_string(NumIndices) + " indices");
  }

  //===------------------------------------------------------------------===//
  // DMA regions
  //===------------------------------------------------------------------===//

  /// False when no dma_init dominates this point (hard error) or the
  /// active config is loop-dependent (strict finding).
  bool requireDma(int64_t Pc) {
    if (CurDma >= 0)
      return true;
    if (CurDma == -1)
      error(Pc, "transfers before any dma_init configured the DMA region");
    else
      warn(Pc, "the active DMA configuration depends on a loop; region "
               "bounds are not proven");
    return false;
  }

  int64_t inputWords() const {
    return V.dmaConfigs()[CurDma].InputBufferSize / 4;
  }
  int64_t outputWords() const {
    return V.dmaConfigs()[CurDma].OutputBufferSize / 4;
  }

  void checkRegionRange(int64_t Pc, bool Input, bool OffKnown, int64_t Off,
                        int64_t Count, const char *What) {
    if (!requireDma(Pc))
      return;
    int64_t Cap = Input ? inputWords() : outputWords();
    const char *RegionName = Input ? "input" : "output";
    if (OffKnown && Off < 0) {
      error(Pc, std::string(What) + " uses negative region offset " +
                    std::to_string(Off));
      return;
    }
    if (OffKnown && Count >= 0) {
      // Off + Count may not fit in int64; the unsigned sum always does.
      if (Off > Cap || Count > Cap - Off)
        error(Pc, std::string(What) + " covers words [" +
                      std::to_string(Off) + ", " +
                      std::to_string(static_cast<uint64_t>(Off) +
                                     static_cast<uint64_t>(Count)) +
                      ") but the DMA " + RegionName +
                      " region holds only " + std::to_string(Cap) +
                      " words");
      return;
    }
    warn(Pc, std::string("cannot prove ") + What +
                 " stays inside the DMA " + RegionName +
                 " region (offset or length is not a compile-time "
                 "constant)");
  }

  //===------------------------------------------------------------------===//
  // Protocol layer
  //===------------------------------------------------------------------===//

  void noteIfGaveUp(int64_t Pc, bool WasTracking) {
    if (WasTracking && Model.gaveUp())
      warn(Pc, "stopped statically tracking the accelerator protocol here "
               "(a word the checker cannot classify reached the FSM)");
  }
  void modelWord(int64_t Pc, const AbstractWord &W) {
    if (!HaveModel)
      return;
    bool WasTracking = !Model.gaveUp();
    std::string Msg = Model.feedWord(W);
    if (!Msg.empty())
      error(Pc, Msg);
    noteIfGaveUp(Pc, WasTracking);
  }
  void modelData(int64_t Pc, int64_t Count) {
    if (!HaveModel)
      return;
    bool WasTracking = !Model.gaveUp();
    std::string Msg = Model.feedData(Count);
    if (!Msg.empty())
      error(Pc, Msg);
    noteIfGaveUp(Pc, WasTracking);
  }
  void modelRecv(int64_t Pc, int64_t Words) {
    if (!HaveModel)
      return;
    std::string Msg = Model.feedRecv(Words);
    if (!Msg.empty())
      error(Pc, Msg);
  }

  /// Replays the staged words \p Range of the input region against the
  /// model, exactly as dmaStartSend would stream them: each data run in
  /// one burst, every other word on its own.
  void streamStagedRange(int64_t Pc, WordRange Range) {
    if (!HaveModel || Model.gaveUp())
      return;
    if (RegionUnknown) {
      warn(Pc, "sends from a staged region the checker could not "
               "reconstruct; protocol tracking stops");
      Model.invalidate();
      return;
    }
    auto More = [&] { return !Model.gaveUp() && !Aborted; };
    if (!More())
      return;
    bool WarnedUnstaged = false;
    Region.stream(
        Range,
        [&](int64_t Count) {
          modelData(Pc, Count);
          return More();
        },
        [&](int64_t Offset, const AbstractWord *W) {
          if (!W && !WarnedUnstaged) {
            warn(Pc, "streams region words never staged since the last "
                     "dma_init (first at offset " +
                         std::to_string(Offset) + ")");
            WarnedUnstaged = true;
          }
          modelWord(Pc, W ? *W : AbstractWord::unknown());
          return More();
        });
  }

  //===------------------------------------------------------------------===//
  // Walk
  //===------------------------------------------------------------------===//

  Snapshot save() const {
    return {Slots, Facts, CurDma, Model, Region, RegionUnknown};
  }
  void restore(Snapshot &&S) {
    Slots = std::move(S.Slots);
    Facts = std::move(S.Facts);
    CurDma = S.CurDma;
    Model = S.Model;
    Region = std::move(S.Region);
    RegionUnknown = S.RegionUnknown;
  }

  /// Drops the constants (and memref geometry) of every slot the body
  /// span writes: a read of such a slot may observe the previous
  /// iteration's value, so only iteration-independent facts survive.
  void invalidateBodyWrites(size_t Begin, size_t End) {
    const std::vector<Inst> &P = V.program();
    auto drop = [&](int32_t Slot) {
      if (!inRange(Slot))
        return;
      Facts.Known[Slot] = 0;
      Facts.SizeKnown[Slot] = 0;
      Slots[Slot].Rank = -1;
    };
    for (size_t Pc = Begin; Pc < End; ++Pc) {
      const Inst &I = P[Pc];
      drop(PlanView::definedSlot(I));
      if (I.Code == Op::Generic && I.Aux >= 0 &&
          static_cast<size_t>(I.Aux) < V.generics().size()) {
        const PlanView::GenericPlan &G = V.generics()[I.Aux];
        for (int32_t S : G.BodyArgSlots)
          drop(S);
        for (const Inst &B : G.Body)
          drop(PlanView::definedSlot(B));
      }
    }
  }

  /// Merges the post-body state against the entry state of a loop whose
  /// trip count is unknown (it may have run zero times).
  void mergeUnknownTrip(const Snapshot &Pre) {
    for (unsigned S = 0; S < V.numSlots(); ++S) {
      AbsSlot &Cur = Slots[S];
      const AbsSlot &Old = Pre.Slots[S];
      if (Cur.D != Old.D)
        Cur.D = AbsSlot::Def::Maybe;
      if (Cur.K != Old.K)
        Cur.K = AbsSlot::Kind::Unknown;
      if (Cur.Rank != Old.Rank)
        Cur.Rank = -1;
      if (!(Facts.Known[S] && Pre.Facts.Known[S] &&
            Facts.Value[S] == Pre.Facts.Value[S]))
        Facts.Known[S] = Facts.Known[S] && Pre.Facts.Known[S] &&
                         Facts.Value[S] == Pre.Facts.Value[S];
      if (!(Facts.SizeKnown[S] && Pre.Facts.SizeKnown[S] &&
            Facts.Count[S] == Pre.Facts.Count[S]))
        Facts.SizeKnown[S] = 0;
    }
    if (CurDma != Pre.CurDma)
      CurDma = -2; // some dma_init happened, but which one is open
    if (HaveModel) {
      Region.mergeUnknown(Pre.Region);
      RegionUnknown = RegionUnknown || Pre.RegionUnknown;
    }
  }

  /// After a loop body that moved the protocol model: prove the body is
  /// a protocol fixpoint by walking it once more (suppressed), then
  /// admit the steady state with extrapolated accumulators. A body that
  /// does not stabilize is a protocol break when it provably repeats.
  void stabilizeProtocol(size_t LoopPc, size_t EndPc,
                         const ProtocolModel &Entry, int64_t Trip) {
    if (!HaveModel || Entry.gaveUp() || Model.gaveUp())
      return;
    if (Model == Entry)
      return; // protocol-neutral body
    ProtocolModel AfterOne = Model;
    int32_t CD = CurDma;
    ++QuietDepth;
    walkSpan(LoopPc + 1, EndPc);
    --QuietDepth;
    CurDma = CD;
    ProtocolModel AfterTwo = Model;
    if (!AfterOne.sameFsmPosition(AfterTwo) || AfterTwo.gaveUp()) {
      std::string Msg =
          "loop body does not return the accelerator protocol to a steady "
          "state (after one iteration: " +
          AfterOne.stateDescription() +
          "; after another: " + AfterTwo.stateDescription() + ")";
      if (Trip >= 2)
        error(static_cast<int64_t>(LoopPc), Msg);
      else
        warn(static_cast<int64_t>(LoopPc), Msg);
      Model.invalidate();
      return;
    }
    Model = AfterOne;
    Model.extrapolateAccumulators(AfterTwo, Trip);
  }

  void walkSpan(size_t Begin, size_t End) {
    const std::vector<Inst> &P = V.program();
    size_t Pc = Begin;
    while (Pc < End && !Aborted) {
      const Inst &I = P[Pc];
      if (I.Code == Op::LoopBegin) {
        Pc = handleLoop(Pc, End);
        continue;
      }
      if (I.Code == Op::LoopEnd) {
        error(static_cast<int64_t>(Pc),
              "loop end without a matching loop begin");
        Aborted = true;
        return;
      }
      interpret(Pc, I);
      ++Pc;
    }
  }

  size_t handleLoop(size_t PcU, size_t End) {
    const std::vector<Inst> &P = V.program();
    const Inst &I = P[PcU];
    int64_t Pc = static_cast<int64_t>(PcU);
    checkOperands(Pc, I);
    checkWrite(Pc, I.Dst);

    if (I.Aux < static_cast<int64_t>(PcU) + 2 ||
        static_cast<size_t>(I.Aux) > End) {
      error(Pc, "jump target @" + std::to_string(I.Aux) +
                    " escapes the enclosing body (instructions [" +
                    std::to_string(PcU + 1) + ", " + std::to_string(End) +
                    "))");
      Aborted = true;
      return End;
    }
    size_t EndPc = static_cast<size_t>(I.Aux) - 1;
    const Inst &E = P[EndPc];
    if (E.Code != Op::LoopEnd) {
      error(Pc, "jump target @" + std::to_string(I.Aux) +
                    " does not follow a loop end (pc " +
                    std::to_string(EndPc) + " is '" +
                    PlanView::info(E.Code).Name + "')");
      Aborted = true;
      return End;
    }
    if (E.Dst != I.Dst || E.B != I.B || E.C != I.C)
      error(static_cast<int64_t>(EndPc),
            "loop end disagrees with its begin at pc " +
                std::to_string(PcU) +
                " (induction/bound/step slots differ)");
    if (E.Aux != static_cast<int32_t>(PcU) + 1)
      error(static_cast<int64_t>(EndPc),
            "back-edge target @" + std::to_string(E.Aux) +
                " does not point at the loop body (@" +
                std::to_string(PcU + 1) + ")");

    if (Facts.isConst(I.C) && Facts.Value[I.C] <= 0)
      error(Pc, "constant step " + std::to_string(Facts.Value[I.C]) +
                    " is not positive; execution rejects this loop");

    int64_t Trip = constTripCount(I, Facts);
    Snapshot Pre = save();

    if (Trip != 1 && Trip != 0)
      invalidateBodyWrites(PcU + 1, EndPc);
    defineScalar(I.Dst, Trip == 1 && Facts.isConst(I.A),
                 Facts.isConst(I.A) ? Facts.Value[I.A] : 0);

    walkSpan(PcU + 1, EndPc);
    if (Aborted)
      return End;

    if (Trip == 0) {
      // The body provably never executes: diagnostics stand (the code is
      // dead but still checked), the state rolls back.
      restore(std::move(Pre));
      return static_cast<size_t>(I.Aux);
    }

    if (Trip != 1)
      stabilizeProtocol(PcU, EndPc, Pre.Model, Trip);
    if (Trip < 0)
      mergeUnknownTrip(Pre);
    return static_cast<size_t>(I.Aux);
  }

  void interpret(size_t PcU, const Inst &I);

  PlanView V;
  VerifyOptions Opts;
  VerifyResult R;
  SlotFacts Facts;
  std::vector<AbsSlot> Slots;
  int32_t CurDma = -1; ///< active dma config (-1 none, -2 loop-dependent)
  bool Aborted = false;
  int QuietDepth = 0;

  ProtocolModel Model;
  bool HaveModel = false;
  StagedRegion Region; ///< staged input-region content
  bool RegionUnknown = false;
};

void Verifier::interpret(size_t PcU, const Inst &I) {
  int64_t Pc = static_cast<int64_t>(PcU);
  if (!checkSideTable(Pc, I))
    return;
  // The index pool load/store/subview read their indices from.
  int32_t PoolOffset = I.Aux;
  unsigned PoolCount = I.Sub;
  const char *PoolRole = nullptr;
  switch (I.Code) {
  case Op::Load:
    PoolRole = "a load index";
    break;
  case Op::Store:
    PoolRole = "a store index";
    break;
  case Op::SubView:
    PoolOffset = V.subViews()[I.Aux].PoolOffset;
    PoolCount = V.subViews()[I.Aux].NumOffsets;
    PoolRole = "a subview offset";
    break;
  default:
    break;
  }
  if (PoolRole && !checkPool(Pc, PoolOffset, PoolCount))
    return;
  std::array<bool, 3> Ok = checkOperands(Pc, I);

  switch (I.Code) {
  case Op::Load:
    if (Ok[0])
      checkRank(Pc, I.A, I.Sub);
    break;
  case Op::Store:
    if (Ok[1])
      checkRank(Pc, I.B, I.Sub);
    break;
  case Op::Copy: {
    int64_t CntA = memrefCount(I.A), CntB = memrefCount(I.B);
    if (Ok[0] && Ok[1] && CntA >= 0 && CntB >= 0 && CntA != CntB)
      error(Pc, "copies between memrefs of different element counts (" +
                    std::to_string(CntA) + " vs " + std::to_string(CntB) +
                    ")");
    break;
  }
  case Op::Generic: {
    const PlanView::GenericPlan &G = V.generics()[I.Aux];
    for (const auto &P : G.Operands)
      checkRead(Pc, P.Slot, SlotUse::MemRef, "a generic operand");
    for (int32_t S : G.BodyArgSlots)
      if (checkWrite(Pc, S))
        defineScalar(S, false, 0);
    for (const Inst &B : G.Body) {
      checkOperands(Pc, B, "a generic body operand");
      if (PlanView::definedSlot(B) >= 0 && checkWrite(Pc, B.Dst))
        defineScalarResult(B);
    }
    for (int32_t Y : G.YieldSlots)
      checkRead(Pc, Y, SlotUse::Scalar, "a generic yield value");
    break;
  }

  case Op::CallDmaInit:
    CurDma = I.Aux;
    Region.clear();
    RegionUnknown = false;
    break;

  case Op::CallCopyToDma:
  case Op::CallCopyLiteralToDma: {
    bool Literal = I.Code == Op::CallCopyLiteralToDma;
    bool OffKnown = Facts.isConst(I.B);
    checkRegionRange(Pc, /*Input=*/true, OffKnown,
                     OffKnown ? Facts.Value[I.B] : 0,
                     Literal ? 1 : memrefCount(I.A),
                     Literal ? "the staged literal" : "the staged copy");
    if (HaveModel) {
      WordRange Staged;
      if (!inputWriteRange(I, Facts, Staged))
        RegionUnknown = true;
      else if (!Literal)
        Region.assign(Staged, AbstractWord::data());
      else
        Region.assign(Staged, Facts.isConst(I.A)
                                  ? AbstractWord::constant(Facts.Value[I.A])
                                  : AbstractWord::unknown());
    }
    break;
  }

  case Op::CallSend: {
    WordRange Rg;
    bool RangeKnown = sendRange(I, Facts, Rg);
    if (RangeKnown && Rg.End < Rg.Begin)
      error(Pc, "sends a negative-length range [" +
                    std::to_string(Rg.Begin) + ", " +
                    std::to_string(Rg.End) + ")");
    else
      checkRegionRange(Pc, /*Input=*/true, RangeKnown, Rg.Begin,
                       RangeKnown && Rg.Begin >= 0 ? Rg.size() : -1,
                       "the send");
    if (RangeKnown && Rg.End >= Rg.Begin) {
      streamStagedRange(Pc, Rg);
    } else if (HaveModel && !Model.gaveUp()) {
      warn(Pc, "send bounds are not compile-time constants; protocol "
               "tracking stops");
      Model.invalidate();
    }
    break;
  }
  case Op::CallRecv: {
    bool LenKnown = Facts.isConst(I.A);
    int64_t Len = LenKnown ? Facts.Value[I.A] : -1;
    bool OffKnown = Facts.isConst(I.B);
    int64_t Off = OffKnown ? Facts.Value[I.B] : 0;
    if (LenKnown && Len < 0)
      error(Pc, "receives a negative word count (" + std::to_string(Len) +
                    ")");
    else
      checkRegionRange(Pc, /*Input=*/false, OffKnown, Off,
                       LenKnown ? Len : -1, "the receive");
    modelRecv(Pc, LenKnown ? Len : -1);
    break;
  }
  case Op::CallCopyFromDma: {
    bool OffKnown = Facts.isConst(I.B);
    int64_t Off = OffKnown ? Facts.Value[I.B] : 0;
    checkRegionRange(Pc, /*Input=*/false, OffKnown, Off, memrefCount(I.A),
                     "the staged read-back");
    break;
  }
  default:
    break; // no check beyond the row's operands and result
  }

  if (PoolRole)
    for (unsigned K = 0; K < PoolCount; ++K)
      checkRead(Pc, V.slotPool()[static_cast<size_t>(PoolOffset) + K],
                SlotUse::Scalar, PoolRole);
  defineResult(Pc, I);
}

VerifyResult Verifier::run() {
  unsigned N = V.numSlots();
  Slots.assign(N, AbsSlot());
  if (V.numArgs() > N) {
    error(-1, "plan declares " + std::to_string(V.numArgs()) +
                  " arguments but only " + std::to_string(N) + " slots");
    return std::move(R);
  }
  // Arguments are bound by the caller; their kind and geometry are
  // runtime facts, so they verify as defined-but-unknown.
  for (unsigned A = 0; A < V.numArgs(); ++A)
    defineUnknown(static_cast<int32_t>(A));

  walkSpan(0, V.program().size());

  if (!Aborted && HaveModel && !Model.gaveUp()) {
    if (!Model.atOpcodeBoundary())
      error(-1, "program ends with the accelerator " +
                    Model.stateDescription());
    else if (Model.pendingOutputWords() > 0)
      warn(-1, std::to_string(Model.pendingOutputWords()) +
                   " modeled output words are never received");
  }
  if (R.Errors.size() >= MaxErrors)
    R.Errors.push_back({-1, "(further diagnostics suppressed)"});
  return std::move(R);
}

} // namespace

VerifyResult analysis::verifyPlan(const exec::ExecPlan &Plan,
                                  const VerifyOptions &Options) {
  Verifier Vf(Plan, Options);
  return Vf.run();
}
