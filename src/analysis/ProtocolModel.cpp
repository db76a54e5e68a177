//===- ProtocolModel.cpp - Abstract accelerator FSM models ----------------===//
//
// Part of the AXI4MLIR reproduction. MIT licensed.
//
//===----------------------------------------------------------------------===//

#include "analysis/ProtocolModel.h"

#include "parser/AcceleratorConfig.h"
#include "sim/AcceleratorModel.h"

using namespace axi4mlir;
using namespace axi4mlir::analysis;
using namespace axi4mlir::sim::opcodes;

using MM = sim::MatMulAccelerator;

ProtocolModel ProtocolModel::matmul(MM::Version Ver, int64_t Size) {
  ProtocolModel M;
  M.Eng = Engine::MatMul;
  M.Ver = Ver;
  M.Capacity = MM::bufferCapacityWordsFor(Ver, Size);
  M.TileM = M.TileK = M.TileN = Size;
  return M;
}

ProtocolModel ProtocolModel::conv(int64_t MaxWindowWords) {
  ProtocolModel M;
  M.Eng = Engine::Conv;
  M.MaxWindowWords = MaxWindowWords;
  // Matches ConvAccelerator::reset(): one channel, 1x1 filter until the
  // SET_* opcodes configure the real geometry.
  M.ConvIC = 1;
  M.ConvFS = 1;
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
  case State::Burst:
    return "mid-burst (" + std::to_string(Remaining) +
           " payload words outstanding for " + sim::formatOpcode(CurOpcode) +
           ")";
  case State::Cfg:
    return "reading configuration words";
  case State::GaveUp:
    return "untracked";
  }
  return "<invalid>";
}

bool ProtocolModel::operator==(const ProtocolModel &O) const {
  return sameFsmPosition(O) && ConvAccWords == O.ConvAccWords &&
         PendingOut == O.PendingOut;
}

bool ProtocolModel::sameFsmPosition(const ProtocolModel &O) const {
  return Eng == O.Eng && St == O.St && CurOpcode == O.CurOpcode &&
         Remaining == O.Remaining && CfgFill == O.CfgFill &&
         TileM == O.TileM && TileK == O.TileK && TileN == O.TileN &&
         ConvIC == O.ConvIC && ConvFS == O.ConvFS;
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
    return AfterOne + (TotalIters - 1) * Delta;
  };
  PendingOut = fold(PendingOut, AfterNext.PendingOut);
  ConvAccWords = fold(ConvAccWords, AfterNext.ConvAccWords);
}

static std::string engineName(const ProtocolModel &M) {
  (void)M;
  return "accelerator";
}

std::string ProtocolModel::startMatMulOpcode(uint32_t Opcode) {
  if (!MM::versionSupportsOpcode(Ver, Opcode))
    return "opcode " + sim::formatOpcode(Opcode) +
           " is not supported by this matmul version";
  if (Opcode == MM_RESET)
    return ""; // clears internal buffers, stays idle
  if (Opcode == MM_CFG) {
    St = State::Cfg;
    CurOpcode = Opcode;
    Remaining = MM::burstWordsFor(Opcode, TileM, TileK, TileN);
    CfgFill = 0;
    return "";
  }
  if (TileM < 0 || TileK < 0 || TileN < 0) {
    // An untracked cfg made every burst length unknown.
    giveUp();
    return "";
  }
  int64_t Words = MM::burstWordsFor(Opcode, TileM, TileK, TileN);
  if (Words > 0) {
    St = State::Burst;
    CurOpcode = Opcode;
    Remaining = Words;
    return "";
  }
  // Immediate opcode: compute and/or emit.
  if (MM::opcodeEmitsOutput(Opcode)) {
    if (PendingOut >= 0)
      PendingOut += TileM * TileN;
  }
  return "";
}

std::string ProtocolModel::startConvOpcode(uint32_t Opcode) {
  if (!sim::ConvAccelerator::isSupportedOpcode(Opcode))
    return "opcode " + sim::formatOpcode(Opcode) +
           " is not supported by the conv2d accelerator";
  switch (Opcode) {
  case CONV_SET_FS:
  case CONV_SET_IC:
    St = State::Cfg;
    CurOpcode = Opcode;
    Remaining = 1;
    CfgFill = 0;
    return "";
  case CONV_SF:
  case CONV_SICO: {
    if (ConvIC < 0 || ConvFS < 0) {
      giveUp();
      return "";
    }
    St = State::Burst;
    CurOpcode = Opcode;
    Remaining = sim::ConvAccelerator::windowWordsFor(ConvIC, ConvFS);
    if (Opcode == CONV_SF)
      ConvAccWords = 0; // a new filter starts a new output slice
    return "";
  }
  case CONV_RO:
    if (PendingOut >= 0 && ConvAccWords >= 0)
      PendingOut += ConvAccWords;
    else
      PendingOut = -1;
    ConvAccWords = 0;
    return "";
  }
  return "";
}

std::string ProtocolModel::finishBurst() {
  State Was = St;
  St = State::Idle;
  Remaining = 0;
  if (Was == State::Cfg) {
    if (Eng == Engine::MatMul) {
      int64_t NewM = CfgWords[0], NewK = CfgWords[1], NewN = CfgWords[2];
      if (NewM < 0 || NewK < 0 || NewN < 0) {
        // Unknown cfg payload: tile dimensions become unknown.
        TileM = TileK = TileN = -1;
        return "";
      }
      if (NewM <= 0 || NewK <= 0 || NewN <= 0 || NewM * NewK > Capacity ||
          NewK * NewN > Capacity || NewM * NewN > Capacity)
        return "cfg tile " + std::to_string(NewM) + "x" +
               std::to_string(NewK) + "x" + std::to_string(NewN) +
               " does not fit the internal buffers (capacity " +
               std::to_string(Capacity) + " words per operand)";
      TileM = NewM;
      TileK = NewK;
      TileN = NewN;
      return "";
    }
    // Conv: single cfg word for SET_FS / SET_IC.
    int64_t V = CfgWords[0];
    if (CurOpcode == CONV_SET_FS)
      ConvFS = V;
    else
      ConvIC = V;
    if (ConvFS >= 0 && ConvIC >= 0) {
      int64_t Window = sim::ConvAccelerator::windowWordsFor(ConvIC, ConvFS);
      if (ConvFS <= 0 || ConvIC <= 0 || Window > MaxWindowWords)
        return "conv2d configuration iC=" + std::to_string(ConvIC) +
               " fS=" + std::to_string(ConvFS) +
               " exceeds the accelerator window buffer (" +
               std::to_string(MaxWindowWords) + " words)";
    }
    return "";
  }
  // Data burst completed.
  if (Eng == Engine::MatMul) {
    if (MM::opcodeEmitsOutput(CurOpcode)) {
      if (PendingOut >= 0 && TileM >= 0 && TileN >= 0)
        PendingOut += TileM * TileN;
      else
        PendingOut = -1;
    }
  } else if (CurOpcode == CONV_SICO) {
    if (ConvAccWords >= 0)
      ConvAccWords += 1;
  }
  return "";
}

std::string ProtocolModel::feedWord(const AbstractWord &W) {
  if (St == State::GaveUp)
    return "";
  if (St == State::Idle) {
    if (W.K != AbstractWord::Kind::Const) {
      if (W.K == AbstractWord::Kind::Data)
        return "data word streamed while the " + engineName(*this) +
               " expects an opcode";
      giveUp(); // unknown word steering the FSM: stop tracking
      return "";
    }
    uint32_t Opcode = static_cast<uint32_t>(W.Value);
    return Eng == Engine::MatMul ? startMatMulOpcode(Opcode)
                                 : startConvOpcode(Opcode);
  }
  // Burst / cfg payload word.
  if (St == State::Cfg && CfgFill < 3)
    CfgWords[CfgFill++] =
        W.K == AbstractWord::Kind::Const ? W.Value : -1;
  if (--Remaining == 0)
    return finishBurst();
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
           " words streamed while the " + engineName(*this) +
           " expects an opcode";
  if (St == State::Cfg) {
    while (Count > 0 && Remaining > 0) {
      std::string E = feedWord(AbstractWord::data());
      if (!E.empty())
        return E;
      --Count;
    }
    if (Count > 0)
      return feedData(Count);
    return "";
  }
  if (Count > Remaining) {
    int64_t Extra = Count - Remaining;
    // The overrun words land on the FSM in Idle state: a burst-length /
    // tile-dimension mismatch.
    std::string E =
        "burst overruns " + sim::formatOpcode(CurOpcode) + ": expected " +
        std::to_string(Remaining) + " more payload words, got " +
        std::to_string(Extra) + " extra";
    Remaining = 0;
    (void)finishBurst();
    return E;
  }
  Remaining -= Count;
  if (Remaining == 0)
    return finishBurst();
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
