//===- MatMulAccelerator.cpp - Tile MatMul engine implementation ----------===//
//
// Part of the AXI4MLIR reproduction. MIT licensed.
//
//===----------------------------------------------------------------------===//

#include "sim/MatMulAccelerator.h"

#include <algorithm>

using namespace axi4mlir;
using namespace axi4mlir::sim;

MatMulAccelerator::MatMulAccelerator(Version Ver, int64_t Size, ElemKind Kind,
                                     const SoCParams &Params)
    : Ver(Ver), BaseSize(Size), Kind(Kind), Params(Params) {
  reset();
}

protocol::Config MatMulAccelerator::resetConfig(Version Ver, int64_t Size) {
  protocol::Config C;
  C.Version = static_cast<uint8_t>(1u << static_cast<unsigned>(Ver));
  // The fields are 32-bit: sizes beyond that range saturate (squaring at
  // most 2^16 keeps the capacity product exact before it does).
  auto clamp = [](int64_t V) {
    return static_cast<int32_t>(std::min<int64_t>(V, INT32_MAX));
  };
  int64_t Tile = std::min<int64_t>(Size, 1 << 16);
  C.TileM = C.TileK = C.TileN = clamp(Size);
  C.Capacity = clamp(Tile * Tile * (Ver == Version::V4 ? 16 : 1));
  return C;
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
  Cfg = resetConfig(Ver, BaseSize);
  resizeBuffers();
  TilesComputed = 0;
}

void MatMulAccelerator::resizeBuffers() {
  const size_t M = static_cast<size_t>(Cfg.TileM),
               K = static_cast<size_t>(Cfg.TileK),
               N = static_cast<size_t>(Cfg.TileN);
  BufA.assign(M * K, 0);
  BufB.assign(K * N, 0);
  AccC.assign(M * N, 0.0);
}

uint32_t *MatMulAccelerator::payloadBuffer(protocol::Fill F, size_t) {
  if (F == protocol::Fill::Cfg)
    return CfgWords;
  return F == protocol::Fill::B ? BufB.data() : BufA.data();
}

void MatMulAccelerator::apply(uint8_t Effects) {
  if (Effects & protocol::Clear) {
    // Clears data but keeps the error state machinery.
    BufA.assign(BufA.size(), 0);
    BufB.assign(BufB.size(), 0);
    AccC.assign(AccC.size(), 0.0);
  }
  if (Effects & protocol::Reconfigure)
    resizeBuffers();
  if (Effects & protocol::Compute)
    compute();
  if (Effects & protocol::Emit)
    emitC();
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
  const int64_t TileM = Cfg.TileM, TileK = Cfg.TileK, TileN = Cfg.TileN;
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
  double Ops = 2.0 * static_cast<double>(Cfg.TileM) *
               static_cast<double>(Cfg.TileN) * static_cast<double>(Cfg.TileK);
  chargeCompute(Ops / matmulOpsPerCycle(BaseSize));
  ++TilesComputed;
}

template <ElemKind K> void MatMulAccelerator::emitCImpl() {
  size_t Elements = AccC.size();
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
