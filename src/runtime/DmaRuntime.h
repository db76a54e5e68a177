//===- DmaRuntime.h - The AXI4MLIR DMA runtime library ----------*- C++ -*-===//
//
// Part of the AXI4MLIR reproduction. MIT licensed.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The custom AXI DMA library of paper Sec. III-A: a thin, driver-level API
/// the generated host code calls. Functions mirror paper Fig. 9:
///
///   dma_init(id, inAddr, inSize, outAddr, outSize)
///   copy_to_dma_region(memref, offset) -> new offset
///   copy_literal_to_dma_region(value, offset) -> new offset
///   dma_start_send(length, offset) / dma_wait_send_completion()
///   dma_start_recv(length, offset) / dma_wait_recv_completion()
///   copy_from_dma_region(memref, offset, accumulate)
///
/// The staging copies implement both the generic rank-N element-by-element
/// path and the memcpy specialization for contiguous innermost dimensions
/// (paper Sec. IV-B), switchable to reproduce Fig. 12a vs. 12b.
///
//===----------------------------------------------------------------------===//

#ifndef AXI4MLIR_RUNTIME_DMARUNTIME_H
#define AXI4MLIR_RUNTIME_DMARUNTIME_H

#include "runtime/MemRefDesc.h"
#include "sim/SoC.h"

namespace axi4mlir {
namespace runtime {

/// The runtime library instance bound to one simulated SoC.
class DmaRuntime {
public:
  /// \p SpecializeCopies enables the memcpy fast path for staging copies
  /// when strides[rank-1] == 1 (paper Sec. IV-B optimization).
  explicit DmaRuntime(sim::SoC &Soc, bool SpecializeCopies = true)
      : Soc(Soc), SpecializeCopies(SpecializeCopies) {}

  bool copySpecializationEnabled() const { return SpecializeCopies; }
  void setCopySpecialization(bool Enabled) { SpecializeCopies = Enabled; }

  /// Initializes the DMA engine and maps the staging regions. Executed
  /// once per application (paper Sec. III-C, dma_init_config).
  void dmaInit(const accel::DmaInitConfig &Config);

  /// Copies a (possibly strided) memref tile into the input staging region
  /// starting at \p OffsetWords. Returns the offset one past the data, so
  /// consecutive copies batch into a single send (paper Sec. III-A).
  int64_t copyToDmaRegion(const MemRefDesc &Source, int64_t OffsetWords);

  /// Stores one 32-bit literal (an opcode) at \p OffsetWords.
  int64_t copyLiteralToDmaRegion(int32_t Literal, int64_t OffsetWords);

  /// Starts/completes a send of \p LengthWords words from \p OffsetWords.
  /// Every DMA call reports its outcome so the executors can stop issuing
  /// work immediately; the recovery layer has already absorbed whatever
  /// faults it could by the time a non-Ok status surfaces here.
  sim::AccelStatus dmaStartSend(int64_t LengthWords, int64_t OffsetWords);
  sim::AccelStatus dmaWaitSendCompletion();

  /// Starts/completes a receive of \p LengthWords words into
  /// \p OffsetWords.
  sim::AccelStatus dmaStartRecv(int64_t LengthWords, int64_t OffsetWords);
  sim::AccelStatus dmaWaitRecvCompletion();

  /// Copies data from the output staging region back into a memref tile.
  /// With \p Accumulate the data is added to the destination (partial
  /// results of a reduction dimension).
  void copyFromDmaRegion(const MemRefDesc &Dest, int64_t OffsetWords,
                         bool Accumulate);

  bool hadError() const { return Soc.dma().hadError(); }
  const std::string &errorMessage() const {
    return Soc.dma().errorMessage();
  }

  /// Structured engine state; non-Ok latches on the first unrecovered
  /// failure. Checked by all three executors after every runtime call.
  sim::AccelStatus status() const { return Soc.dma().status(); }

  /// The uniform failure text all three executors report, so a fault
  /// surfaces identically under the walker, the plan interpreter and the
  /// threaded engine.
  std::string statusErrorText() const {
    return std::string("accelerator/DMA ") + sim::toString(status()) +
           " error: " + errorMessage();
  }

  sim::SoC &soc() { return Soc; }

private:
  /// Both staging directions (the unspecialized per-element path of
  /// Fig. 12a and the row-wise memcpy specialization of Fig. 12b) are
  /// driven by the shared engine in runtime/StridedCopy.h; this class only
  /// picks the policy (unit-dim collapse + row profitability). Copies
  /// \p View into the input region (\p Input) or the output region into
  /// \p View at \p OffsetWords, allocating nothing. A copy that does not
  /// fit the region, or whose collapsed rank exceeds the odometer cap,
  /// latches an error on the engine, moves nothing and returns false.
  bool stage(bool Input, const char *Call, const MemRefDesc &View,
             int64_t OffsetWords, bool Accumulate);

  uint64_t regionAddress(bool Input, int64_t OffsetWords) const;

  sim::SoC &Soc;
  bool SpecializeCopies;
};

} // namespace runtime
} // namespace axi4mlir

#endif // AXI4MLIR_RUNTIME_DMARUNTIME_H
