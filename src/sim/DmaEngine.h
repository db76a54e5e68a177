//===- DmaEngine.h - AXI DMA engine model -----------------------*- C++ -*-===//
//
// Part of the AXI4MLIR reproduction. MIT licensed.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Models the Zynq AXI DMA engine and its memory-mapped staging regions
/// (paper Fig. 1 and Sec. III-A). The host stages data into the input
/// region (via the runtime's copy_to_dma_region), then dma_start_send
/// streams a burst to the accelerator over AXI-Stream; results come back
/// through the output region. Timing: per-transfer host driver overhead
/// plus fabric streaming cycles plus accelerator compute cycles, all
/// serialized (blocking driver).
///
/// Every call returns an AccelStatus so the executors can stop issuing
/// work the moment something fails. When a FaultInjector is attached the
/// engine additionally runs the self-healing layer: a watchdog on
/// accelerator progress, bounded per-transfer retries with modeled
/// backoff, full re-staging from a replay log after a timeout, and — once
/// the retry budget is exhausted — failover to a protocol-identical spare
/// accelerator or host-CPU fallback execution. Recovery work is charged
/// to dedicated PerfReport counters; the pre-existing counters keep
/// describing the fault-free logical transfer sequence, so a recovered
/// run reports bit-identical base counters (unless it fell back to the
/// CPU, which leaves the fabric timeline entirely).
///
//===----------------------------------------------------------------------===//

#ifndef AXI4MLIR_SIM_DMAENGINE_H
#define AXI4MLIR_SIM_DMAENGINE_H

#include "ir/AccelTraits.h"
#include "sim/AccelStatus.h"
#include "sim/AcceleratorModel.h"
#include "sim/FaultInjector.h"
#include "sim/PerfModel.h"
#include "support/AlignedAlloc.h"

#include <cassert>
#include <memory>
#include <vector>

namespace axi4mlir {
namespace sim {

/// One DMA engine bound to one accelerator and one perf model.
class DmaEngine {
public:
  DmaEngine(HostPerfModel *Perf, AcceleratorModel *Accel)
      : Perf(Perf), Accel(Accel), ActiveAccel(Accel) {}

  /// Maps the staging regions and configures the engine (one-time cost).
  /// Starts a fresh logical session: the replay log and drain bookkeeping
  /// reset (region sizes may change), error/status state is preserved.
  /// The regions are sized, not filled: every word of the new session
  /// reads as zero until it is written (see StagingRegion).
  void init(const accel::DmaInitConfig &Config);
  bool isInitialized() const { return Initialized; }

  /// The host-visible staging buffers (word-addressed). These two span
  /// accessors are the only way into region memory: each returns the
  /// \p Count words at \p Offset after zeroing those the session has not
  /// handed out yet. The span must lie inside the region.
  uint32_t *inputWords(size_t Offset, size_t Count) {
    return Input.words(Offset, Count);
  }
  uint32_t *outputWords(size_t Offset, size_t Count) {
    return Output.words(Offset, Count);
  }
  /// Host address of word \p Offset, for the cache model. Materializes
  /// nothing.
  uint64_t inputAddress(size_t Offset) const { return Input.address(Offset); }
  uint64_t outputAddress(size_t Offset) const {
    return Output.address(Offset);
  }
  size_t inputRegionWords() const { return Input.size(); }
  size_t outputRegionWords() const { return Output.size(); }

  /// Streams \p Words words starting at \p OffsetWords of the input region
  /// to the accelerator. With an injector attached this is where faults
  /// strike and where the recovery layer heals them.
  AccelStatus startSend(size_t Words, size_t OffsetWords);
  AccelStatus waitSendCompletion();

  /// Collects \p Words words from the accelerator into the output region
  /// at \p OffsetWords. Blocks (functionally) until available.
  AccelStatus startRecv(size_t Words, size_t OffsetWords);
  AccelStatus waitRecvCompletion();

  /// Structured view of the engine state. Non-Ok outcomes that recovery
  /// could not absorb latch here (first failure wins); deterministic
  /// protocol errors surface as Fatal.
  AccelStatus status() const {
    if (Sticky != AccelStatus::Ok)
      return Sticky;
    if (ErrorFlag || (ActiveAccel && ActiveAccel->hadError()))
      return AccelStatus::Fatal;
    return AccelStatus::Ok;
  }

  /// True after a protocol error (region overflow, missing output data, or
  /// an accelerator-side error).
  bool hadError() const {
    return ErrorFlag || (ActiveAccel && ActiveAccel->hadError());
  }
  const std::string &errorMessage() const {
    if (!ErrorText.empty() || !ActiveAccel)
      return ErrorText;
    return ActiveAccel->errorMessage();
  }

  /// Records a protocol error raised by the engine or the runtime layer
  /// above it (e.g. a staging copy before dma_init). First message is the
  /// root cause; the flag is sticky.
  void signalError(const std::string &Message) {
    ErrorFlag = true;
    if (ErrorText.empty())
      ErrorText = Message;
  }

  /// The unit currently bound to the stream (the primary until a failover
  /// or CPU fallback switches it).
  AcceleratorModel *accelerator() { return ActiveAccel; }

  //===------------------------------------------------------------------===//
  // Fault injection & recovery
  //===------------------------------------------------------------------===//

  /// Binds \p Injector to the send stream (nullptr detaches). Re-arms the
  /// recovery layer for a fresh run: the active unit switches back to the
  /// primary, used spares reset, the replay log clears. The caller owns
  /// the injector and must also attach it to the accelerator model (see
  /// SoC::attachFaultInjector, which does both).
  void attachFaultInjector(FaultInjector *I);
  FaultInjector *faultInjector() const { return Injector; }

  /// Registers a failover target, ranked by \p Score (lower is better;
  /// ties resolve to the earliest registration). Spares must speak the
  /// exact protocol of the primary — the compiled driver's opcode stream
  /// is replayed onto them verbatim. The caller retains ownership.
  void addSpare(AcceleratorModel *Spare, double Score);
  size_t spareCount() const { return Spares.size(); }

  /// True once a CPU fallback rebound the stream to a host-executed model.
  bool cpuFallbackActive() const { return CpuFallbackActive; }

private:
  /// One staging region: storage and a first-touch watermark. Every word
  /// below the watermark has been handed out in the current session and
  /// holds zero or what was written since; every word at or above it is
  /// hidden and holds whatever an earlier session left. A span reaching
  /// past the watermark zeroes the words in between first, so the region
  /// reads exactly like one zero-filled at dma_init while set-up costs
  /// only what a run touches. Under AddressSanitizer the hidden words are
  /// poisoned.
  ///
  /// The cache model keys on real addresses, so the allocation pattern is
  /// part of every cache-derived counter: storage is line-aligned
  /// (support/AlignedAlloc.h), and reset() allocates only when a session
  /// needs more words than the storage holds, exactly that many, the new
  /// storage before the old is freed.
  class StagingRegion {
  public:
    StagingRegion() = default;
    StagingRegion(const StagingRegion &) = delete;
    StagingRegion &operator=(const StagingRegion &) = delete;
    ~StagingRegion();

    /// Starts a session of \p Words words, all of them hidden.
    void reset(size_t Words);
    size_t size() const { return Size; }
    uint64_t address(size_t Offset) const {
      return reinterpret_cast<uint64_t>(Data + Offset);
    }
    uint32_t *words(size_t Offset, size_t Count) {
      assert(Offset <= Size && Count <= Size - Offset &&
             "span outside the staging region");
      if (Offset + Count > Touched)
        materialize(Offset + Count);
      return Data + Offset;
    }

  private:
    /// Zeroes the hidden words below \p End and moves the watermark there.
    void materialize(size_t End);

    uint32_t *Data = nullptr;
    size_t Size = 0;
    size_t Capacity = 0;
    size_t Touched = 0; ///< the first-touch watermark
  };

  AccelStatus latch(AccelStatus Status) {
    if (Sticky == AccelStatus::Ok && Status != AccelStatus::Ok)
      Sticky = Status;
    return Status;
  }

  /// Fabric cycles to stream \p Words over AXI (latency + line rate).
  double streamFabricCycles(size_t Words) const;

  /// Compute cycles land on the fabric timeline, unless the run fell back
  /// to the CPU (host-side fallback counter) or the work is a post-reset
  /// replay of already-accounted bursts (replay counter).
  void chargeComputeCycles(double Cycles, bool Replay);

  /// The recovery-capable send path (taken whenever an injector is
  /// attached): bounded retries, watchdog, degradation.
  AccelStatus sendWithRecovery(size_t Words, size_t OffsetWords);

  /// Resets the active unit and replays every successfully delivered burst
  /// (injection bypassed), then re-drains the words earlier recvs already
  /// consumed. Restores the accelerator to the exact pre-fault state.
  void resetAndReplay();

  /// Retries exhausted: rebinds the stream to the best spare (failover) or
  /// to a fresh host-executed clone (CPU fallback). Returns false when no
  /// target exists. Disables further injection — the faulty unit is out of
  /// rotation.
  bool degradeToNextUnit();

  HostPerfModel *Perf;
  AcceleratorModel *Accel;       ///< the primary unit
  AcceleratorModel *ActiveAccel; ///< the unit currently bound to the stream
  StagingRegion Input;
  StagingRegion Output;
  std::string ErrorText;

  // Recovery state (only populated while an injector is attached).
  FaultInjector *Injector = nullptr;
  struct SpareUnit {
    AcceleratorModel *Model;
    double Score;
    bool Used = false;
  };
  std::vector<SpareUnit> Spares;
  std::unique_ptr<AcceleratorModel> FallbackOwner; ///< CPU-fallback clone
  /// Snapshot of every delivered send burst, for post-timeout re-staging.
  std::vector<std::vector<uint32_t>> ReplayLog;
  /// Output words already drained by recvs (discarded again after replay).
  size_t DrainedWords = 0;

  // The flags share the last word, so the watermarks cost sizeof(SoC)
  // nothing and it keeps its malloc size class.
  AccelStatus Sticky = AccelStatus::Ok;
  bool Initialized = false;
  bool ErrorFlag = false;
  bool CpuFallbackActive = false;
  /// Set after failover/fallback: the replacement unit is healthy and the
  /// remaining schedule no longer applies.
  bool InjectionDisabled = false;
};

} // namespace sim
} // namespace axi4mlir

#endif // AXI4MLIR_SIM_DMAENGINE_H
