//===- ProtocolChecker.cpp - Config-level protocol checking ---------------===//
//
// Part of the AXI4MLIR reproduction. MIT licensed.
//
//===----------------------------------------------------------------------===//

#include "analysis/ProtocolChecker.h"

#include "analysis/ProtocolModel.h"
#include "ir/AccelTraits.h"
#include "parser/AcceleratorConfig.h"

using namespace axi4mlir;
using namespace axi4mlir::analysis;

namespace {

class ConfigChecker {
public:
  explicit ConfigChecker(const parser::AcceleratorDesc &Accel)
      : Accel(Accel) {}

  ProtocolFindings run() {
    std::string Error;
    FailureOr<ProtocolModel> Built =
        ProtocolModel::forAccelerator(Accel, Error);
    if (failed(Built)) {
      warn(Error + "; protocol checking skipped");
      return std::move(F);
    }
    Model = *Built;

    // Init opcodes run once per kernel launch; no repetition to prove.
    if (Accel.InitOpcodes)
      walkScopeOnce(Accel.InitOpcodes->Root, "init_opcodes");

    const accel::OpcodeFlowData *Flow = Accel.selectedFlow();
    if (!Flow) {
      if (!Accel.SelectedFlow.empty())
        error("selected flow '" + Accel.SelectedFlow +
              "' is not in opcode_flow");
      return std::move(F);
    }
    // Every flow scope (including the root) stands for a loop nest and
    // repeats an unknown number of times.
    walkScopeStable(Flow->Root, Accel.SelectedFlow);

    if (!Model.gaveUp()) {
      if (!Model.atOpcodeBoundary())
        error("flow '" + Accel.SelectedFlow +
              "' ends with the accelerator " + Model.stateDescription());
      else if (Model.pendingOutputWords() > 0)
        warn("flow '" + Accel.SelectedFlow + "' leaves " +
             std::to_string(Model.pendingOutputWords()) +
             " modeled output words unreceived (missing a recv opcode)");
    }
    return std::move(F);
  }

private:
  void error(const std::string &Msg) {
    if (!Quiet)
      F.Errors.push_back("accelerator '" + Accel.Name + "': " + Msg);
  }
  void warn(const std::string &Msg) {
    if (!Quiet)
      F.Warnings.push_back("accelerator '" + Accel.Name + "': " + Msg);
  }

  /// The accel_size tile for a named kernel dimension; -1 when the
  /// dimension is unknown or untiled (accel_size 0).
  int64_t dimTile(const std::string &DimName) const {
    for (size_t K = 0; K < Accel.Dims.size(); ++K)
      if (Accel.Dims[K] == DimName)
        return K < Accel.AccelSize.size() && Accel.AccelSize[K] > 0
                   ? Accel.AccelSize[K]
                   : -1;
    return -1;
  }

  /// Words in one tile of operand \p ArgIndex (-1 when not static).
  int64_t tileWords(int64_t ArgIndex) const {
    if (ArgIndex < 0 ||
        static_cast<size_t>(ArgIndex) >= Accel.Data.size())
      return -1;
    int64_t Words = 1;
    for (const std::string &Dim : Accel.Data[ArgIndex].second) {
      int64_t Tile = dimTile(Dim);
      if (Tile <= 0 || Words > INT64_MAX / Tile)
        return -1; // untiled, or too large to count
      Words *= Tile;
    }
    return Words;
  }

  /// The constant a send_dim action streams for a full tile; -1 unknown.
  int64_t sendDimValue(const accel::OpcodeAction &A) const {
    if (A.ArgIndex >= 0) {
      if (static_cast<size_t>(A.ArgIndex) >= Accel.Data.size())
        return -1;
      const std::vector<std::string> &Dims = Accel.Data[A.ArgIndex].second;
      if (A.DimIndex < 0 || static_cast<size_t>(A.DimIndex) >= Dims.size())
        return -1;
      return dimTile(Dims[A.DimIndex]);
    }
    if (A.DimIndex < 0 ||
        static_cast<size_t>(A.DimIndex) >= Accel.Dims.size())
      return -1;
    return dimTile(Accel.Dims[A.DimIndex]);
  }

  void feedOpcode(const std::string &Token, const std::string &Where) {
    const accel::OpcodeEntry *Entry = Accel.OpcodeMap.lookup(Token);
    if (!Entry) {
      error(Where + ": opcode '" + Token + "' is not in opcode_map");
      return;
    }
    for (const accel::OpcodeAction &A : Entry->Actions) {
      bool WasTracking = !Model.gaveUp();
      std::string Msg;
      switch (A.ActionKind) {
      case accel::OpcodeAction::Kind::SendLiteral:
        Msg = Model.feedWord(AbstractWord::constant(A.Literal));
        break;
      case accel::OpcodeAction::Kind::Send:
        Msg = Model.feedData(tileWords(A.ArgIndex));
        break;
      case accel::OpcodeAction::Kind::SendDim: {
        int64_t Size = sendDimValue(A);
        Msg = Model.feedWord(Size > 0 ? AbstractWord::constant(Size)
                                      : AbstractWord::unknown());
        break;
      }
      case accel::OpcodeAction::Kind::SendIdx:
        // A loop index: runtime-dependent by definition.
        Msg = Model.feedWord(AbstractWord::unknown());
        break;
      case accel::OpcodeAction::Kind::Recv:
        Msg = Model.feedRecv(tileWords(A.ArgIndex));
        break;
      }
      if (!Msg.empty())
        error(Where + ": opcode '" + Token + "': " + Msg);
      if (WasTracking && Model.gaveUp())
        warn(Where + ": opcode '" + Token +
             "' streams a word the checker cannot classify; protocol "
             "tracking stops");
    }
  }

  void walkScopeOnce(const accel::FlowScope &Scope,
                     const std::string &Where) {
    for (const accel::FlowItem &Item : Scope.Items) {
      if (Item.isToken())
        feedOpcode(Item.Token, Where);
      else if (Item.Scope)
        walkScopeStable(*Item.Scope, Where);
    }
  }

  /// Walks a repeating scope to a protocol fixpoint: one diagnosed pass,
  /// then (when the state moved) one suppressed pass that must land on
  /// the same FSM position.
  void walkScopeStable(const accel::FlowScope &Scope,
                       const std::string &Where) {
    if (Model.gaveUp()) {
      walkScopeOnce(Scope, Where); // still surfaces unknown-opcode errors
      return;
    }
    ProtocolModel Entry = Model;
    walkScopeOnce(Scope, Where);
    if (Model.gaveUp() || Model == Entry)
      return;
    ProtocolModel AfterOne = Model;
    Quiet = true;
    walkScopeOnce(Scope, Where);
    Quiet = false;
    ProtocolModel AfterTwo = Model;
    if (!AfterOne.sameFsmPosition(AfterTwo) || AfterTwo.gaveUp()) {
      error(Where + ": the scope's opcode sequence does not leave the "
                    "accelerator in a repeatable state (after one pass: " +
            AfterOne.stateDescription() +
            "; after another: " + AfterTwo.stateDescription() + ")");
      Model.invalidate();
      return;
    }
    Model = AfterOne;
    Model.extrapolateAccumulators(AfterTwo, -1);
  }

  const parser::AcceleratorDesc &Accel;
  ProtocolFindings F;
  ProtocolModel Model;
  bool Quiet = false;
};

} // namespace

ProtocolFindings
analysis::checkConfigProtocol(const parser::AcceleratorDesc &Accel) {
  ConfigChecker Checker(Accel);
  return Checker.run();
}
