//===- ProtocolModel.cpp - Abstract accelerator FSM models ----------------===//
//
// Part of the AXI4MLIR reproduction. MIT licensed.
//
//===----------------------------------------------------------------------===//

#include "analysis/ProtocolModel.h"

#include "parser/AcceleratorConfig.h"
#include "sim/Protocol.h"

#include <algorithm>

using namespace axi4mlir;
using namespace axi4mlir::analysis;
namespace protocol = sim::protocol;
using MM = sim::MatMulAccelerator;

ProtocolModel ProtocolModel::matmul(MM::Version Ver, int64_t Size) {
  ProtocolModel M;
  M.Table = &protocol::MatMul;
  M.Cfg = MM::resetConfig(Ver, Size);
  return M;
}

ProtocolModel ProtocolModel::conv(int64_t MaxWindowWords) {
  ProtocolModel M;
  M.Table = &protocol::Conv;
  M.Cfg = sim::ConvAccelerator::resetConfig(MaxWindowWords);
  return M;
}

FailureOr<ProtocolModel>
ProtocolModel::forAccelerator(const parser::AcceleratorDesc &Accel,
                              std::string &Error) {
  if (Accel.Kernel == "linalg.matmul") {
    FailureOr<MM::Version> Version = MM::versionFromName(Accel.Name, Error);
    if (failed(Version))
      return failure();
    return matmul(*Version, MM::engineSizeFor(Accel.AccelSize));
  }
  if (Accel.Kernel.find("conv") != std::string::npos)
    return conv();
  Error = "no protocol model for kernel '" + Accel.Kernel + "'";
  return failure();
}

std::string ProtocolModel::stateDescription() const {
  switch (St) {
  case State::Idle:
    return "idle (expecting an opcode word)";
  case State::Payload:
    if (Active->Payload == protocol::Fill::Cfg)
      return "reading configuration words";
    return "mid-burst (" + std::to_string(Remaining) +
           " payload words outstanding for " +
           sim::formatOpcode(Active->Opcode) + ")";
  case State::GaveUp:
    return "untracked";
  }
  return "<invalid>";
}

bool ProtocolModel::operator==(const ProtocolModel &O) const {
  return sameFsmPosition(O) && SliceWords == O.SliceWords &&
         PendingOut == O.PendingOut;
}

bool ProtocolModel::sameFsmPosition(const ProtocolModel &O) const {
  return Table == O.Table && St == O.St && Active == O.Active &&
         Remaining == O.Remaining && StagedFill == O.StagedFill &&
         std::equal(Staged, Staged + StagedFill, O.Staged) && Cfg == O.Cfg;
}

void ProtocolModel::extrapolateAccumulators(const ProtocolModel &AfterNext,
                                            int64_t TotalIters) {
  auto fold = [TotalIters](int64_t AfterOne, int64_t AfterTwo) -> int64_t {
    if (AfterOne < 0 || AfterTwo < 0)
      return -1;
    int64_t Delta = AfterTwo - AfterOne;
    if (Delta == 0)
      return AfterOne; // steady: every further iteration is a no-op
    if (TotalIters < 0)
      return -1; // grows by an unknown number of iterations
    int64_t Total;
    if (__builtin_mul_overflow(TotalIters - 1, Delta, &Total) ||
        __builtin_add_overflow(AfterOne, Total, &Total))
      return -1; // more words than int64 counts
    return Total;
  };
  PendingOut = fold(PendingOut, AfterNext.PendingOut);
  SliceWords = fold(SliceWords, AfterNext.SliceWords);
}

std::string ProtocolModel::finishRow() {
  const protocol::Row &R = *Active;
  St = State::Idle;
  Active = nullptr;
  Remaining = 0;
  StagedFill = 0;
  std::string Error = protocol::complete(R, Cfg, Staged);
  if (!Error.empty())
    return Error;
  // The output accounting of the row's effects.
  auto add = [](int64_t A, int64_t B) -> int64_t {
    int64_t Sum;
    return A < 0 || B < 0 || __builtin_add_overflow(A, B, &Sum) ? -1 : Sum;
  };
  if (R.Effects & protocol::NewSlice)
    SliceWords = 0;
  if ((R.Effects & protocol::Compute) && Table->Acc == protocol::Output::Slice)
    SliceWords = add(SliceWords, 1);
  if (R.Effects & protocol::Emit) {
    if (Table->Acc == protocol::Output::Tile) {
      PendingOut = add(PendingOut, Cfg.TileM < 0 || Cfg.TileN < 0
                                       ? -1
                                       : int64_t{Cfg.TileM} * Cfg.TileN);
    } else {
      PendingOut = add(PendingOut, SliceWords);
      SliceWords = 0;
    }
  }
  return "";
}

std::string ProtocolModel::feedWord(const AbstractWord &W) {
  if (St == State::GaveUp)
    return "";
  if (St == State::Idle) {
    if (W.K != AbstractWord::Kind::Const) {
      if (W.K == AbstractWord::Kind::Data)
        return "data word streamed while the accelerator expects an opcode";
      giveUp(); // unknown word steering the engine: stop tracking
      return "";
    }
    uint32_t Opcode = static_cast<uint32_t>(W.Value);
    const protocol::Row *R = protocol::lookup(*Table, Cfg, Opcode);
    if (!R)
      return protocol::unsupportedMessage(Opcode);
    int64_t Words = protocol::payloadWords(*R, Cfg);
    if (Words == protocol::Unknown) {
      // An untracked configuration made the payload length unknown.
      giveUp();
      return "";
    }
    Active = R;
    Remaining = Words;
    if (Words == 0)
      return finishRow();
    St = State::Payload;
    return "";
  }
  // A payload word; cfg words are kept as the 32-bit words the wire
  // carries.
  if (Active->Payload == protocol::Fill::Cfg)
    Staged[StagedFill++] =
        W.K == AbstractWord::Kind::Const
            ? static_cast<int64_t>(static_cast<uint32_t>(W.Value))
            : protocol::Unknown;
  if (--Remaining == 0)
    return finishRow();
  return "";
}

std::string ProtocolModel::feedData(int64_t Count) {
  if (St == State::GaveUp || Count == 0)
    return "";
  if (Count < 0) {
    giveUp();
    return "";
  }
  if (St == State::Idle)
    return "data burst of " + std::to_string(Count) +
           " words streamed while the accelerator expects an opcode";
  if (Active->Payload == protocol::Fill::Cfg) {
    while (Count > 0 && St == State::Payload) {
      std::string E = feedWord(AbstractWord::data());
      if (!E.empty())
        return E;
      --Count;
    }
    return feedData(Count);
  }
  if (Count > Remaining) {
    // The overrun words land on the engine while it expects an opcode: a
    // burst-length / tile-dimension mismatch.
    std::string E = "burst overruns " + sim::formatOpcode(Active->Opcode) +
                    ": expected " + std::to_string(Remaining) +
                    " more payload words, got " +
                    std::to_string(Count - Remaining) + " extra";
    std::string Finished = finishRow();
    return Finished.empty() ? E : Finished;
  }
  Remaining -= Count;
  if (Remaining == 0)
    return finishRow();
  return "";
}

std::string ProtocolModel::feedRecv(int64_t Words) {
  if (St == State::GaveUp || Words == 0)
    return "";
  if (St != State::Idle)
    return "receive issued while the accelerator is " + stateDescription();
  if (PendingOut < 0 || Words < 0)
    return ""; // unverifiable; the checker notes it in strict mode
  if (PendingOut == 0)
    return "receive expects output but the modeled accelerator has none "
           "pending (unreachable recv)";
  if (Words > PendingOut)
    return "receive of " + std::to_string(Words) +
           " words exceeds the " + std::to_string(PendingOut) +
           " modeled pending output words";
  PendingOut -= Words;
  return "";
}
