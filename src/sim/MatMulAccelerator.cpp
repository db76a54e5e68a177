//===- MatMulAccelerator.cpp - Tile MatMul engine implementation ----------===//
//
// Part of the AXI4MLIR reproduction. MIT licensed.
//
//===----------------------------------------------------------------------===//

#include "sim/MatMulAccelerator.h"

#include <algorithm>
#include <cassert>

using namespace axi4mlir;
using namespace axi4mlir::sim;
using namespace axi4mlir::sim::opcodes;

AcceleratorModel::~AcceleratorModel() = default;

void AcceleratorModel::consumeBurst(const uint32_t *Words, size_t Count) {
  for (size_t I = 0; I < Count; ++I)
    consumeWord(Words[I]);
}

void AcceleratorModel::reset() {
  OutputFifo.clear();
  OutputHead = 0;
  PendingComputeCycles = 0;
  ErrorFlag = false;
  ErrorText.clear();
  LastErrorText.clear();
  ErrorCount = 0;
  // Pending fault state clears; the attached injector (and its logical
  // cursors) survives, so a recovery reset does not forget the schedule.
  TransientPending = false;
  TransientDropped = 0;
  TransientText.clear();
  PendingStallSteps = 0;
}

std::unique_ptr<AcceleratorModel> AcceleratorModel::cloneFresh() const {
  return nullptr;
}

bool AcceleratorModel::opcodeFaultRefusal(uint32_t Opcode) {
  if (!Injector)
    return false;
  const FaultEvent *Event = Injector->onOpcode();
  if (!Event)
    return false;
  if (Event->Kind == FaultKind::Stall) {
    PendingStallSteps += Event->Steps;
    return false;
  }
  TransientPending = true;
  TransientDropped = 1; // the refused opcode word itself
  TransientText = getName() + ": " + describeFault(*Event) +
                  " refused opcode " + formatOpcode(Opcode);
  return true;
}

std::vector<uint32_t> AcceleratorModel::drainOutput(size_t MaxWords) {
  size_t Count = std::min(MaxWords, outputAvailable());
  std::vector<uint32_t> Result(OutputFifo.begin() + OutputHead,
                               OutputFifo.begin() + OutputHead + Count);
  OutputHead += Count;
  recycleDrained();
  return Result;
}

size_t AcceleratorModel::drainOutputInto(uint32_t *Dst, size_t MaxWords) {
  size_t Count = std::min(MaxWords, outputAvailable());
  std::memcpy(Dst, OutputFifo.data() + OutputHead, Count * sizeof(uint32_t));
  OutputHead += Count;
  recycleDrained();
  return Count;
}

std::string axi4mlir::sim::formatOpcode(uint32_t Opcode) {
  static const char Digits[] = "0123456789abcdef";
  std::string Hex;
  do {
    Hex.insert(Hex.begin(), Digits[Opcode & 0xF]);
    Opcode >>= 4;
  } while (Opcode != 0);
  return "0x" + Hex;
}

MatMulAccelerator::MatMulAccelerator(Version Ver, int64_t Size, ElemKind Kind,
                                     const SoCParams &Params)
    : Ver(Ver), BaseSize(Size), Kind(Kind), Params(Params), TileM(Size),
      TileN(Size), TileK(Size) {
  // v4's internal memories allow rectangular tiles up to 128x the default
  // square-tile footprint per operand (a v4_16 fits e.g. 32x16x64,
  // paper Sec. IV-B "flex size").
  BufferCapacityWords = bufferCapacityWordsFor(Ver, Size);
  reset();
}

int64_t MatMulAccelerator::bufferCapacityWordsFor(Version Ver, int64_t Size) {
  return Ver == Version::V4 ? Size * Size * 16 : Size * Size;
}

int64_t MatMulAccelerator::burstWordsFor(uint32_t Opcode, int64_t TileM,
                                         int64_t TileK, int64_t TileN) {
  switch (Opcode) {
  case MM_CFG:
    return 3; // tM, tK, tN.
  case MM_SA:
  case MM_SA_CC_RC:
    return TileM * TileK;
  case MM_SB:
  case MM_SB_CC_RC:
    return TileK * TileN;
  case MM_SASBCCRC:
    return TileM * TileK + TileK * TileN;
  default:
    return 0; // immediate: reset / compute / emit.
  }
}

bool MatMulAccelerator::opcodeEmitsOutput(uint32_t Opcode) {
  switch (Opcode) {
  case MM_SASBCCRC:
  case MM_SA_CC_RC:
  case MM_SB_CC_RC:
  case MM_CC_RC:
  case MM_RC:
    return true;
  default:
    return false;
  }
}

std::string MatMulAccelerator::getName() const {
  std::string Name = "matmul_v";
  switch (Ver) {
  case Version::V1:
    Name += "1";
    break;
  case Version::V2:
    Name += "2";
    break;
  case Version::V3:
    Name += "3";
    break;
  case Version::V4:
    Name += "4";
    break;
  }
  return Name + "_" + std::to_string(BaseSize);
}

std::unique_ptr<AcceleratorModel> MatMulAccelerator::cloneFresh() const {
  return std::make_unique<MatMulAccelerator>(Ver, BaseSize, Kind, Params);
}

void MatMulAccelerator::reset() {
  AcceleratorModel::reset();
  TileM = TileN = TileK = BaseSize;
  BufA.assign(static_cast<size_t>(TileM * TileK), 0);
  BufB.assign(static_cast<size_t>(TileK * TileN), 0);
  AccC.assign(static_cast<size_t>(TileM * TileN), 0.0);
  St = State::Idle;
  BurstFill = 0;
  BurstExpected = 0;
  TilesComputed = 0;
}

bool MatMulAccelerator::versionSupportsOpcode(Version Ver, uint32_t Opcode) {
  switch (Opcode) {
  case MM_RESET:
    return true;
  case MM_SASBCCRC:
    return Ver == Version::V1;
  case MM_SA:
  case MM_SB:
    return Ver != Version::V1;
  case MM_CC_RC:
  case MM_SB_CC_RC:
  case MM_SA_CC_RC:
    return Ver == Version::V2 || Ver == Version::V3 || Ver == Version::V4;
  case MM_CC:
  case MM_RC:
    return Ver == Version::V3 || Ver == Version::V4;
  case MM_CFG:
    return Ver == Version::V4;
  default:
    return false;
  }
}

bool MatMulAccelerator::supportsOpcode(uint32_t Opcode) const {
  return versionSupportsOpcode(Ver, Opcode);
}

void MatMulAccelerator::consumeWord(uint32_t Word) {
  if (droppingInput(1))
    return;
  if (St == State::Idle) {
    if (opcodeFaultRefusal(Word))
      return;
    startOpcode(Word);
    return;
  }
  copyIn(&Word, 1);
  if (++BurstFill == BurstExpected)
    finishBurst();
}

void MatMulAccelerator::consumeBurst(const uint32_t *Words, size_t Count) {
  while (Count > 0) {
    if (droppingInput(Count))
      return; // drop the rest, like the word path
    if (St == State::Idle) {
      if (opcodeFaultRefusal(*Words)) {
        ++Words; // refused opcode: already counted as dropped
        --Count;
        continue;
      }
      startOpcode(*Words++);
      --Count;
      continue;
    }
    // Absorb as much of the pending data burst as this transfer holds in
    // one shot: no per-word FSM step, no staging copy.
    size_t Take = std::min(Count, BurstExpected - BurstFill);
    copyIn(Words, Take);
    Words += Take;
    Count -= Take;
    if ((BurstFill += Take) == BurstExpected)
      finishBurst();
  }
}

void MatMulAccelerator::copyIn(const uint32_t *Words, size_t Count) {
  size_t Pos = BurstFill;
  switch (St) {
  case State::ReadCfg:
    std::memcpy(CfgWords + Pos, Words, Count * sizeof(uint32_t));
    return;
  case State::ReadA:
    std::memcpy(BufA.data() + Pos, Words, Count * sizeof(uint32_t));
    return;
  case State::ReadB:
    std::memcpy(BufB.data() + Pos, Words, Count * sizeof(uint32_t));
    return;
  case State::ReadAThenB: {
    // The v1 combined burst: A's words first, B's words after.
    size_t ASize = static_cast<size_t>(TileM * TileK);
    if (Pos < ASize) {
      size_t ToA = std::min(Count, ASize - Pos);
      std::memcpy(BufA.data() + Pos, Words, ToA * sizeof(uint32_t));
      Words += ToA;
      Count -= ToA;
      Pos = ASize;
    }
    if (Count > 0)
      std::memcpy(BufB.data() + (Pos - ASize), Words,
                  Count * sizeof(uint32_t));
    return;
  }
  case State::Idle:
    // Out-of-protocol use; diagnosable in every build type (was a
    // Release-stripped assert).
    signalError(getName() + ": copyIn in Idle state (protocol violation)");
    return;
  }
}

void MatMulAccelerator::startOpcode(uint32_t Opcode) {
  if (!supportsOpcode(Opcode)) {
    signalError(getName() + ": unsupported opcode " + formatOpcode(Opcode));
    return;
  }
  CurrentOpcode = Opcode;
  BurstFill = 0;
  switch (Opcode) {
  case MM_RESET:
    // Clear data but keep the error state machinery.
    BufA.assign(BufA.size(), 0);
    BufB.assign(BufB.size(), 0);
    AccC.assign(AccC.size(), 0.0);
    St = State::Idle;
    return;
  case MM_CFG:
    St = State::ReadCfg;
    BurstExpected = static_cast<size_t>(burstWordsFor(Opcode, TileM, TileK, TileN));
    return;
  case MM_SA:
  case MM_SA_CC_RC:
    St = State::ReadA;
    BurstExpected = static_cast<size_t>(burstWordsFor(Opcode, TileM, TileK, TileN));
    return;
  case MM_SB:
  case MM_SB_CC_RC:
    St = State::ReadB;
    BurstExpected = static_cast<size_t>(burstWordsFor(Opcode, TileM, TileK, TileN));
    return;
  case MM_SASBCCRC:
    St = State::ReadAThenB;
    BurstExpected = static_cast<size_t>(burstWordsFor(Opcode, TileM, TileK, TileN));
    return;
  case MM_CC:
    compute();
    St = State::Idle;
    return;
  case MM_CC_RC:
    compute();
    emitC();
    St = State::Idle;
    return;
  case MM_RC:
    emitC();
    St = State::Idle;
    return;
  default:
    signalError(getName() + ": unhandled opcode");
    return;
  }
}

void MatMulAccelerator::finishBurst() {
  switch (St) {
  case State::ReadCfg: {
    int64_t NewM = static_cast<int32_t>(CfgWords[0]);
    int64_t NewK = static_cast<int32_t>(CfgWords[1]);
    int64_t NewN = static_cast<int32_t>(CfgWords[2]);
    if (NewM <= 0 || NewK <= 0 || NewN <= 0 ||
        NewM * NewK > BufferCapacityWords ||
        NewK * NewN > BufferCapacityWords ||
        NewM * NewN > BufferCapacityWords) {
      signalError(getName() + ": cfg tile does not fit internal buffers");
      return;
    }
    TileM = NewM;
    TileK = NewK;
    TileN = NewN;
    BufA.assign(static_cast<size_t>(TileM * TileK), 0);
    BufB.assign(static_cast<size_t>(TileK * TileN), 0);
    AccC.assign(static_cast<size_t>(TileM * TileN), 0.0);
    break;
  }
  case State::ReadA:
    if (CurrentOpcode == MM_SA_CC_RC) {
      compute();
      emitC();
    }
    break;
  case State::ReadB:
    if (CurrentOpcode == MM_SB_CC_RC) {
      compute();
      emitC();
    }
    break;
  case State::ReadAThenB:
    compute();
    emitC();
    break;
  case State::Idle:
    signalError(getName() +
                ": finishBurst in Idle state (protocol violation)");
    break;
  }
  BurstFill = 0;
  St = State::Idle;
}

template <ElemKind K> void MatMulAccelerator::computeTile() {
  // C[m][n] += sum_k A[m][k] * B[k][n], elementwise on the configured
  // tile, in M-K-N order over a per-row accumulator so the inner loop
  // sweeps both B and the accumulator contiguously (SIMD-friendly).
  //
  // Each output element still receives its products in k order with one
  // final add into AccC — the identical FP operation sequence as the
  // per-element reference loop, so results stay bit-identical; the
  // interleaving across N merely lets the compiler vectorize the inner
  // sweep (contiguous loads, element-type conversion hoisted per kind
  // instead of branch-tested per MAC).
  const uint32_t *A = BufA.data();
  const uint32_t *B = BufB.data();
  double *C = AccC.data();
  std::vector<double> &Row = RowAcc;
  Row.assign(static_cast<size_t>(TileN), 0.0);
  for (int64_t M = 0; M < TileM; ++M) {
    const uint32_t *ARow = A + M * TileK;
    for (int64_t Kk = 0; Kk < TileK; ++Kk) {
      const uint32_t *BRow = B + Kk * TileN;
      double AVal = K == ElemKind::F32
                        ? static_cast<double>(wordToFloat(ARow[Kk]))
                        : static_cast<double>(static_cast<int32_t>(ARow[Kk]));
      if constexpr (K == ElemKind::F32) {
        for (int64_t N = 0; N < TileN; ++N)
          Row[N] += AVal * static_cast<double>(wordToFloat(BRow[N]));
      } else {
        for (int64_t N = 0; N < TileN; ++N)
          Row[N] +=
              AVal * static_cast<double>(static_cast<int32_t>(BRow[N]));
      }
    }
    for (int64_t N = 0; N < TileN; ++N) {
      C[M * TileN + N] += Row[N];
      Row[N] = 0.0;
    }
  }
}

void MatMulAccelerator::compute() {
  if (Kind == ElemKind::F32)
    computeTile<ElemKind::F32>();
  else
    computeTile<ElemKind::I32>();
  // Table I throughput: 2*M*N*K OPs at OPsPerCycle.
  double Ops = 2.0 * static_cast<double>(TileM) *
               static_cast<double>(TileN) * static_cast<double>(TileK);
  chargeCompute(Ops / matmulOpsPerCycle(BaseSize));
  ++TilesComputed;
}

template <ElemKind K> void MatMulAccelerator::emitCImpl() {
  size_t Elements = static_cast<size_t>(TileM * TileN);
  reserveOutput(Elements);
  for (size_t I = 0; I < Elements; ++I)
    pushOutput(valueToWord<K>(AccC[I]));
}

void MatMulAccelerator::emitC() {
  if (Kind == ElemKind::F32)
    emitCImpl<ElemKind::F32>();
  else
    emitCImpl<ElemKind::I32>();
  // Delivering C clears the accumulator (partial results are accumulated
  // host-side via accel.recv {mode="accumulate"}).
  AccC.assign(AccC.size(), 0.0);
}

FailureOr<MatMulAccelerator::Version>
MatMulAccelerator::versionFromName(const std::string &Name,
                                   std::string &Error) {
  int64_t Found = -1;
  for (size_t Pos = Name.find("_v"); Pos != std::string::npos;
       Pos = Name.find("_v", Pos + 1)) {
    size_t DigitsStart = Pos + 2;
    size_t DigitsEnd = DigitsStart;
    while (DigitsEnd < Name.size() && Name[DigitsEnd] >= '0' &&
           Name[DigitsEnd] <= '9')
      ++DigitsEnd;
    if (DigitsEnd == DigitsStart)
      continue; // `_v` not followed by digits.
    if (DigitsEnd < Name.size() && Name[DigitsEnd] != '_')
      continue; // Not an anchored token (e.g. `_v4x`).
    if (DigitsEnd - DigitsStart > 9) {
      Error = "version token '" + Name.substr(Pos + 1, DigitsEnd - Pos - 1) +
              "' in accelerator name '" + Name + "' is out of range";
      return failure();
    }
    int64_t Version = 0;
    for (size_t I = DigitsStart; I < DigitsEnd; ++I)
      Version = Version * 10 + (Name[I] - '0');
    if (Found >= 0 && Found != Version) {
      Error = "accelerator name '" + Name +
              "' carries conflicting _vN version tokens";
      return failure();
    }
    Found = Version;
  }
  if (Found < 0) {
    Error = "cannot infer the engine version from accelerator name '" +
            Name + "' (expected an anchored _vN token, e.g. 'matmul_v3_16')";
    return failure();
  }
  switch (Found) {
  case 1:
    return Version::V1;
  case 2:
    return Version::V2;
  case 3:
    return Version::V3;
  case 4:
    return Version::V4;
  default:
    Error = "accelerator name '" + Name + "' requests unsupported version v" +
            std::to_string(Found) + " (supported: v1-v4)";
    return failure();
  }
}

int64_t
MatMulAccelerator::engineSizeFor(const std::vector<int64_t> &AccelSize) {
  int64_t Size = 0;
  for (int64_t Tile : AccelSize)
    Size = std::max(Size, Tile);
  return Size <= 0 ? 8 : Size;
}
