//===- ManualDrivers.cpp - Hand-written baseline driver implementations ---===//
//
// Part of the AXI4MLIR reproduction. MIT licensed.
//
//===----------------------------------------------------------------------===//

#include "exec/ManualDrivers.h"

#include "sim/AcceleratorModel.h"

#include <cassert>

using namespace axi4mlir;
using namespace axi4mlir::exec;
using namespace axi4mlir::sim::opcodes;
using runtime::MemRefDesc;
using sim::MatMulAccelerator;

namespace {

/// Manual staging copy: a tight loop over a bare C array (no memref
/// descriptor recursion — the baselines "have no additional data transfer
/// overheads", Sec. IV-A). One load + one store + loop bookkeeping per
/// element.
class ManualStager {
public:
  explicit ManualStager(runtime::DmaRuntime &Runtime)
      : Runtime(Runtime), Soc(Runtime.soc()) {}

  int64_t literal(int32_t Value, int64_t Offset) {
    return Runtime.copyLiteralToDmaRegion(Value, Offset);
  }

  /// Copies a rank-2 tile A[Row0..Row0+Rows)[Col0..Col0+Cols).
  int64_t copyTile2D(const MemRefDesc &Source, int64_t Row0, int64_t Col0,
                     int64_t Rows, int64_t Cols, int64_t Offset) {
    sim::HostPerfModel &Perf = Soc.perf();
    uint32_t *Span = Soc.dma().inputWords(static_cast<size_t>(Offset),
                                          static_cast<size_t>(Rows * Cols));
    for (int64_t R = 0; R < Rows; ++R) {
      Perf.onLoopIteration();
      for (int64_t C = 0; C < Cols; ++C) {
        Perf.onLoopIteration();
        int64_t Linear = Source.linearIndex({Row0 + R, Col0 + C});
        Perf.onArith(1);
        Perf.onScalarLoad(Source.addressOf(Linear), 4);
        *Span = Source.Buffer->Data[static_cast<size_t>(Linear)];
        Perf.onScalarStore(reinterpret_cast<uint64_t>(Span), 4);
        ++Span;
      }
    }
    return Offset + Rows * Cols;
  }

  /// Accumulates (or overwrites) a rank-2 tile from the output region.
  void readTile2D(MemRefDesc &Dest, int64_t Row0, int64_t Col0,
                  int64_t Rows, int64_t Cols, int64_t Offset,
                  bool Accumulate) {
    sim::HostPerfModel &Perf = Soc.perf();
    const uint32_t *Span = Soc.dma().outputWords(
        static_cast<size_t>(Offset), static_cast<size_t>(Rows * Cols));
    for (int64_t R = 0; R < Rows; ++R) {
      Perf.onLoopIteration();
      for (int64_t C = 0; C < Cols; ++C) {
        Perf.onLoopIteration();
        int64_t Linear = Dest.linearIndex({Row0 + R, Col0 + C});
        Perf.onArith(1);
        Perf.onScalarLoad(reinterpret_cast<uint64_t>(Span), 4);
        uint32_t Word = *Span++;
        uint32_t &Slot = Dest.Buffer->Data[static_cast<size_t>(Linear)];
        if (Accumulate) {
          Perf.onScalarLoad(Dest.addressOf(Linear), 4);
          Perf.onArith(1);
          Slot = Dest.kind() == sim::ElemKind::F32
                     ? sim::floatToWord(sim::wordToFloat(Slot) +
                                        sim::wordToFloat(Word))
                     : static_cast<uint32_t>(static_cast<int32_t>(Slot) +
                                             static_cast<int32_t>(Word));
        } else {
          Slot = Word;
        }
        Perf.onScalarStore(Dest.addressOf(Linear), 4);
      }
    }
  }

  void send(int64_t Words) {
    Runtime.dmaStartSend(Words, 0);
    Runtime.dmaWaitSendCompletion();
  }
  void recv(int64_t Words) {
    Runtime.dmaStartRecv(Words, 0);
    Runtime.dmaWaitRecvCompletion();
  }

  runtime::DmaRuntime &Runtime;
  sim::SoC &Soc;
};

} // namespace

bool exec::runManualMatMul(runtime::DmaRuntime &Runtime,
                           const MemRefDesc &A, const MemRefDesc &B,
                           MemRefDesc &C, const ManualMatMulConfig &Config) {
  using V = MatMulAccelerator::Version;
  int64_t M = A.Sizes[0], K = A.Sizes[1], N = B.Sizes[1];
  int64_t TM = Config.TileM, TN = Config.TileN, TK = Config.TileK;
  assert(M % TM == 0 && N % TN == 0 && K % TK == 0 &&
         "manual driver requires tile-divisible problems");

  ManualStager Stage(Runtime);
  sim::HostPerfModel &Perf = Runtime.soc().perf();
  accel::DmaInitConfig Dma;
  Dma.InputBufferSize = 0x40000;
  Dma.OutputBufferSize = 0x40000;
  Runtime.dmaInit(Dma);

  // One-time accelerator init: reset (+ tile config for v4).
  {
    int64_t Off = Stage.literal(MM_RESET, 0);
    if (Config.Version == V::V4) {
      Off = Stage.literal(MM_CFG, Off);
      Off = Stage.literal(static_cast<int32_t>(TM), Off);
      Off = Stage.literal(static_cast<int32_t>(TK), Off);
      Off = Stage.literal(static_cast<int32_t>(TN), Off);
    }
    Stage.send(Off);
  }

  auto sendA = [&](int64_t M0, int64_t K0, int64_t Off) {
    Off = Stage.literal(MM_SA, Off);
    return Stage.copyTile2D(A, M0, K0, TM, TK, Off);
  };
  auto sendB = [&](int64_t K0, int64_t N0, int64_t Off) {
    Off = Stage.literal(MM_SB, Off);
    return Stage.copyTile2D(B, K0, N0, TK, TN, Off);
  };
  auto recvC = [&](int64_t M0, int64_t N0) {
    Stage.recv(TM * TN);
    Stage.readTile2D(C, M0, N0, TM, TN, /*Offset=*/0, /*Accumulate=*/true);
  };

  const std::string &Flow = Config.Flow;
  if (Flow == "Ns") {
    for (int64_t M0 = 0; M0 < M; M0 += TM) {
      Perf.onLoopIteration();
      for (int64_t N0 = 0; N0 < N; N0 += TN) {
        Perf.onLoopIteration();
        for (int64_t K0 = 0; K0 < K; K0 += TK) {
          Perf.onLoopIteration();
          // Fewest transfers: one batched send per tile iteration.
          int64_t Off = 0;
          if (Config.Version == V::V1) {
            Off = Stage.literal(MM_SASBCCRC, Off);
            Off = Stage.copyTile2D(A, M0, K0, TM, TK, Off);
            Off = Stage.copyTile2D(B, K0, N0, TK, TN, Off);
          } else if (Config.Version == V::V2) {
            Off = sendA(M0, K0, Off);
            Off = sendB(K0, N0, Off);
            Off = Stage.literal(MM_CC_RC, Off);
          } else {
            Off = sendA(M0, K0, Off);
            Off = sendB(K0, N0, Off);
            Off = Stage.literal(MM_CC, Off);
            Off = Stage.literal(MM_RC, Off);
          }
          Stage.send(Off);
          recvC(M0, N0);
        }
      }
    }
    return !Runtime.hadError();
  }

  if (Flow == "As") {
    assert(Config.Version != V::V1 && "v1 supports only Ns");
    for (int64_t M0 = 0; M0 < M; M0 += TM) {
      Perf.onLoopIteration();
      for (int64_t K0 = 0; K0 < K; K0 += TK) {
        Perf.onLoopIteration();
        Stage.send(sendA(M0, K0, 0)); // A stationary for the n sweep
        for (int64_t N0 = 0; N0 < N; N0 += TN) {
          Perf.onLoopIteration();
          int64_t Off = sendB(K0, N0, 0);
          Off = Stage.literal(
              Config.Version == V::V2 ? MM_CC_RC : MM_CC, Off);
          if (Config.Version != V::V2)
            Off = Stage.literal(MM_RC, Off);
          Stage.send(Off);
          recvC(M0, N0);
        }
      }
    }
    return !Runtime.hadError();
  }

  if (Flow == "Bs") {
    assert(Config.Version != V::V1 && "v1 supports only Ns");
    for (int64_t N0 = 0; N0 < N; N0 += TN) {
      Perf.onLoopIteration();
      for (int64_t K0 = 0; K0 < K; K0 += TK) {
        Perf.onLoopIteration();
        Stage.send(sendB(K0, N0, 0)); // B stationary for the m sweep
        for (int64_t M0 = 0; M0 < M; M0 += TM) {
          Perf.onLoopIteration();
          int64_t Off = sendA(M0, K0, 0);
          Off = Stage.literal(
              Config.Version == V::V2 ? MM_CC_RC : MM_CC, Off);
          if (Config.Version != V::V2)
            Off = Stage.literal(MM_RC, Off);
          Stage.send(Off);
          recvC(M0, N0);
        }
      }
    }
    return !Runtime.hadError();
  }

  assert(Flow == "Cs" && "unknown manual flow");
  assert((Config.Version == V::V3 || Config.Version == V::V4) &&
         "output-stationary needs a v3/v4 accelerator");
  for (int64_t M0 = 0; M0 < M; M0 += TM) {
    Perf.onLoopIteration();
    for (int64_t N0 = 0; N0 < N; N0 += TN) {
      Perf.onLoopIteration();
      for (int64_t K0 = 0; K0 < K; K0 += TK) {
        Perf.onLoopIteration();
        int64_t Off = sendA(M0, K0, 0);
        Off = sendB(K0, N0, Off);
        Off = Stage.literal(MM_CC, Off); // accumulate on-chip
        Stage.send(Off);
      }
      Stage.send(Stage.literal(MM_RC, 0));
      recvC(M0, N0);
    }
  }
  return !Runtime.hadError();
}

bool exec::runManualConv2D(runtime::DmaRuntime &Runtime,
                           const MemRefDesc &Input, const MemRefDesc &Filter,
                           MemRefDesc &Output, int64_t StrideH,
                           int64_t StrideW) {
  int64_t Batch = Output.Sizes[0], OutChannels = Output.Sizes[1];
  int64_t OutH = Output.Sizes[2], OutW = Output.Sizes[3];
  int64_t InChannels = Filter.Sizes[1], FilterH = Filter.Sizes[2],
          FilterW = Filter.Sizes[3];

  ManualStager Stage(Runtime);
  sim::HostPerfModel &Perf = Runtime.soc().perf();
  accel::DmaInitConfig Dma;
  Dma.InputBufferSize = 0x80000;
  Dma.OutputBufferSize = 0x80000;
  Runtime.dmaInit(Dma);

  // Configure the engine: filter size then input-channel count.
  {
    int64_t Off = Stage.literal(CONV_SET_FS, 0);
    Off = Stage.literal(static_cast<int32_t>(FilterH), Off);
    Off = Stage.literal(CONV_SET_IC, Off);
    Off = Stage.literal(static_cast<int32_t>(InChannels), Off);
    Stage.send(Off);
  }

  // Layer-specific bare-array copies (3-deep loops).
  auto copy3D = [&](const MemRefDesc &Source,
                    const std::vector<int64_t> &Base, int64_t Offset) {
    int64_t Words = InChannels * FilterH * FilterW;
    uint32_t *Span = Runtime.soc().dma().inputWords(
        static_cast<size_t>(Offset), static_cast<size_t>(Words));
    for (int64_t IC = 0; IC < InChannels; ++IC) {
      Perf.onLoopIteration();
      for (int64_t FH = 0; FH < FilterH; ++FH) {
        Perf.onLoopIteration();
        for (int64_t FW = 0; FW < FilterW; ++FW) {
          Perf.onLoopIteration();
          int64_t Linear = Source.linearIndex(
              {Base[0], Base[1] + IC, Base[2] + FH, Base[3] + FW});
          Perf.onArith(1);
          Perf.onScalarLoad(Source.addressOf(Linear), 4);
          *Span = Source.Buffer->Data[static_cast<size_t>(Linear)];
          Perf.onScalarStore(reinterpret_cast<uint64_t>(Span), 4);
          ++Span;
        }
      }
    }
    return Offset + Words;
  };

  for (int64_t B = 0; B < Batch; ++B) {
    Perf.onLoopIteration();
    for (int64_t OC = 0; OC < OutChannels; ++OC) {
      Perf.onLoopIteration();
      // Filter slice for this output channel (stationary).
      int64_t Off = Stage.literal(CONV_SF, 0);
      Off = copy3D(Filter, {OC, 0, 0, 0}, Off);
      Stage.send(Off);
      for (int64_t OH = 0; OH < OutH; ++OH) {
        Perf.onLoopIteration();
        for (int64_t OW = 0; OW < OutW; ++OW) {
          Perf.onLoopIteration();
          int64_t WindowOff = Stage.literal(CONV_SICO, 0);
          WindowOff =
              copy3D(Input, {B, 0, OH * StrideH, OW * StrideW}, WindowOff);
          Stage.send(WindowOff);
        }
      }
      // Whole output slice back, accumulated into O[b][oc].
      Stage.send(Stage.literal(CONV_RO, 0));
      Stage.recv(OutH * OutW);
      {
        const uint32_t *Span = Runtime.soc().dma().outputWords(
            0, static_cast<size_t>(OutH * OutW));
        for (int64_t OH = 0; OH < OutH; ++OH) {
          Perf.onLoopIteration();
          for (int64_t OW = 0; OW < OutW; ++OW) {
            Perf.onLoopIteration();
            int64_t Linear = Output.linearIndex({B, OC, OH, OW});
            Perf.onArith(1);
            Perf.onScalarLoad(reinterpret_cast<uint64_t>(Span), 4);
            Perf.onScalarLoad(Output.addressOf(Linear), 4);
            Perf.onArith(1);
            uint32_t &Slot =
                Output.Buffer->Data[static_cast<size_t>(Linear)];
            uint32_t Word = *Span++;
            Slot = Output.kind() == sim::ElemKind::F32
                       ? sim::floatToWord(sim::wordToFloat(Slot) +
                                          sim::wordToFloat(Word))
                       : static_cast<uint32_t>(
                             static_cast<int32_t>(Slot) +
                             static_cast<int32_t>(Word));
            Perf.onScalarStore(Output.addressOf(Linear), 4);
          }
        }
      }
    }
  }
  return !Runtime.hadError();
}
