//===- DmaEngine.cpp - AXI DMA engine model implementation ----------------===//
//
// Part of the AXI4MLIR reproduction. MIT licensed.
//
//===----------------------------------------------------------------------===//
//
// The recovery layer lives entirely in this file so all three executors
// (walker, compiled plan, threaded dispatch) heal identically: they issue
// the same runtime-call sequence, the engine absorbs the same faults.
//
// Counter contract (PerfModel.h): the first logical attempt of every send
// charges the pre-existing counters (HostCycles/DmaTransfers/FabricCycles)
// exactly as a fault-free run would, even when a fault eats the attempt.
// Everything recovery adds on top — retry backoff, watchdog polling,
// post-reset replay, fallback compute — lands on dedicated counters. A
// recovered run therefore reports bit-identical base counters to its
// fault-free twin unless it left the fabric via CPU fallback.
//
//===----------------------------------------------------------------------===//

#include "sim/DmaEngine.h"

#include <cstring>

#ifdef __SANITIZE_ADDRESS__
#include <sanitizer/asan_interface.h>
#else
#define ASAN_POISON_MEMORY_REGION(Addr, Size) ((void)(Addr), (void)(Size))
#define ASAN_UNPOISON_MEMORY_REGION(Addr, Size) ((void)(Addr), (void)(Size))
#endif

using namespace axi4mlir;
using namespace axi4mlir::sim;

DmaEngine::StagingRegion::~StagingRegion() {
  if (Data)
    CacheLineAllocator<uint32_t>().deallocate(Data, Capacity);
}

void DmaEngine::StagingRegion::reset(size_t Words) {
  if (Words > Capacity) {
    CacheLineAllocator<uint32_t> Alloc;
    uint32_t *Fresh = Alloc.allocate(Words);
    if (Data)
      Alloc.deallocate(Data, Capacity);
    Data = Fresh;
    Capacity = Words;
  }
  Size = Words;
  Touched = 0;
  ASAN_POISON_MEMORY_REGION(Data, Capacity * sizeof(uint32_t));
}

void DmaEngine::StagingRegion::materialize(size_t End) {
  size_t Bytes = (End - Touched) * sizeof(uint32_t);
  ASAN_UNPOISON_MEMORY_REGION(Data + Touched, Bytes);
  std::memset(Data + Touched, 0, Bytes);
  Touched = End;
}

void DmaEngine::init(const accel::DmaInitConfig &Config) {
  // Buffer sizes are given in bytes in the config (paper Fig. 6a:
  // inputBufferSize = 0xFF00).
  size_t InputWords = static_cast<size_t>(Config.InputBufferSize) / 4;
  size_t OutputWords = static_cast<size_t>(Config.OutputBufferSize) / 4;
  Input.reset(std::max<size_t>(InputWords, 1));
  Output.reset(std::max<size_t>(OutputWords, 1));
  Initialized = true;
  // A new logical session: bursts staged before this init are gone, so the
  // replay log must not resurrect them.
  ReplayLog.clear();
  DrainedWords = 0;
  if (Perf)
    Perf->onHostCycles(Perf->params().DmaInitHostCycles);
}

void DmaEngine::attachFaultInjector(FaultInjector *I) {
  Injector = I;
  // Re-arm for a fresh run. A previous run may have degraded off the
  // primary; restore it (and any consumed spare) to a clean state.
  if (ActiveAccel != Accel) {
    if (Accel)
      Accel->reset();
    ActiveAccel = Accel;
  }
  for (SpareUnit &Spare : Spares) {
    if (Spare.Used)
      Spare.Model->reset();
    Spare.Used = false;
  }
  FallbackOwner.reset();
  ReplayLog.clear();
  DrainedWords = 0;
  CpuFallbackActive = false;
  InjectionDisabled = false;
  Sticky = AccelStatus::Ok;
  ErrorFlag = false;
  ErrorText.clear();
}

void DmaEngine::addSpare(AcceleratorModel *Spare, double Score) {
  Spares.push_back({Spare, Score, /*Used=*/false});
}

double DmaEngine::streamFabricCycles(size_t Words) const {
  return static_cast<double>(
             Perf->params().DmaTransferLatencyFabricCycles) +
         static_cast<double>(Words * 4) /
             static_cast<double>(Perf->params().BytesPerFabricCycle);
}

void DmaEngine::chargeComputeCycles(double Cycles, bool Replay) {
  if (!Perf || Cycles == 0)
    return;
  if (Replay)
    Perf->onRecoveryReplay(Cycles);
  else if (CpuFallbackActive)
    Perf->onCpuFallbackCycles(Cycles);
  else
    Perf->onFabricCycles(Cycles);
}

AccelStatus DmaEngine::startSend(size_t Words, size_t OffsetWords) {
  if (!Initialized) {
    signalError("dma: dma_start_send before dma_init");
    return latch(AccelStatus::Fatal);
  }
  if (OffsetWords > Input.size() || Words > Input.size() - OffsetWords) {
    signalError("dma: send burst exceeds the input staging region");
    return latch(AccelStatus::Fatal);
  }
  // The logical first-attempt cost, charged regardless of what faults do
  // to the attempt: base counters describe the fault-free sequence.
  if (Perf) {
    Perf->onHostCycles(Perf->params().DmaStartHostCycles);
    Perf->onDmaTransfer(Words * 4);
    Perf->onFabricCycles(streamFabricCycles(Words));
  }
  if (!Injector) {
    // The fault-free fast path: one burst at line rate, compute harvested
    // onto the same timeline (blocking driver).
    ActiveAccel->consumeBurst(Input.words(OffsetWords, Words), Words);
    if (Perf)
      chargeComputeCycles(ActiveAccel->takeComputeCycles(), /*Replay=*/false);
    return status();
  }
  return sendWithRecovery(Words, OffsetWords);
}

AccelStatus DmaEngine::sendWithRecovery(size_t Words, size_t OffsetWords) {
  const RecoveryPolicy &Policy = Injector->recovery();
  const uint32_t *Data = Input.words(OffsetWords, Words);
  // Words of this burst the accelerator has absorbed; each attempt streams
  // the unabsorbed suffix.
  size_t Done = 0;
  uint32_t RetriesLeft = Policy.MaxRetries;
  // Compute harvested from this burst so far. Charged only when the burst
  // resolves: to FabricCycles on success (exactly one clean pass — the
  // fault-free amount), or to the replay counter when a reset discards
  // the partial progress. This keeps FabricCycles bit-identical to the
  // fault-free run even when a timeout strikes after partial absorption.
  double BurstCompute = 0;

  while (true) {
    uint64_t FiredBefore = Injector->faultsFired();
    const FaultEvent *Event =
        InjectionDisabled ? nullptr : Injector->querySend();
    AccelStatus Outcome = AccelStatus::Ok;
    std::string FaultText;

    if (Event && Event->Kind == FaultKind::CorruptWord) {
      // Store-and-forward link CRC catches the flipped word before it is
      // committed to the stream: nothing reaches the accelerator.
      Outcome = AccelStatus::Transient;
      FaultText = "dma: " + describeFault(*Event);
    } else if (Event && Event->Kind == FaultKind::DropSend) {
      // The burst vanishes and the completion never signals; the watchdog
      // polls out its whole budget before declaring the unit stuck.
      if (Perf)
        Perf->onWatchdogPolls(static_cast<double>(Policy.WatchdogPolls) *
                              static_cast<double>(Policy.PollCycles));
      Outcome = AccelStatus::Timeout;
      FaultText = "dma: " + describeFault(*Event) + " (watchdog timeout)";
    } else {
      size_t Deliver = Words - Done;
      bool Truncated = false;
      if (Event && Event->Kind == FaultKind::TruncateSend) {
        // A short transfer: a prefix lands, the AXI completion check
        // notices the missing beats.
        Deliver = Deliver / 2;
        Truncated = true;
      }
      ActiveAccel->consumeBurst(Data + Done, Deliver);
      BurstCompute += ActiveAccel->takeComputeCycles();
      uint64_t StallSteps = ActiveAccel->takeStallSteps();
      if (ActiveAccel->hadError()) {
        // Deterministic protocol error: retrying reproduces it.
        chargeComputeCycles(BurstCompute, /*Replay=*/false);
        return latch(AccelStatus::Fatal);
      }
      size_t Dropped = 0;
      if (ActiveAccel->transientPending()) {
        // The accelerator refused an opcode and dropped the suffix; the
        // drop count is exactly what the retry must re-send.
        FaultText = ActiveAccel->transientMessage();
        Dropped = ActiveAccel->takeTransientDropped();
        Outcome = AccelStatus::Transient;
      } else if (Truncated) {
        FaultText = "dma: " + describeFault(*Event) + " (short transfer)";
        Outcome = AccelStatus::Transient;
      }
      Done += Deliver - Dropped;
      if (StallSteps > 0) {
        if (StallSteps > Policy.WatchdogPolls) {
          if (Perf)
            Perf->onWatchdogPolls(
                static_cast<double>(Policy.WatchdogPolls) *
                static_cast<double>(Policy.PollCycles));
          FaultText = ActiveAccel->getName() +
                      ": injected stall fault (" +
                      std::to_string(StallSteps) +
                      " steps) exceeded the watchdog budget";
          Outcome = AccelStatus::Timeout;
        } else if (Perf) {
          // Tolerable stall: the watchdog just polls it out.
          Perf->onWatchdogPolls(static_cast<double>(StallSteps) *
                                static_cast<double>(Policy.PollCycles));
        }
      }
    }
    if (Perf)
      Perf->onFaultsInjected(Injector->faultsFired() - FiredBefore);

    if (Outcome == AccelStatus::Ok && Done >= Words) {
      chargeComputeCycles(BurstCompute, /*Replay=*/false);
      if (!InjectionDisabled) {
        Injector->commitSend();
        if (Policy.Enabled)
          ReplayLog.emplace_back(Data, Data + Words);
      }
      return AccelStatus::Ok;
    }

    if (!Policy.Enabled) {
      chargeComputeCycles(BurstCompute, /*Replay=*/false);
      signalError(FaultText + " (recovery disabled)");
      return latch(Outcome);
    }
    if (Outcome == AccelStatus::Timeout) {
      // Only a full re-stage recovers a stuck unit: reset, replay the
      // delivered history, then re-deliver this burst from scratch. The
      // reset discards this burst's partial progress, so its compute so
      // far moves to the replay counter.
      chargeComputeCycles(BurstCompute, /*Replay=*/true);
      BurstCompute = 0;
      resetAndReplay();
      Done = 0;
    }
    if (RetriesLeft > 0) {
      --RetriesLeft;
      if (Perf)
        Perf->onRecoveryRetry(static_cast<double>(Policy.BackoffCycles));
      continue;
    }
    // Retry budget exhausted: degrade to a spare or the host CPU. The
    // replacement unit starts clean, so re-stage onto it.
    if (!degradeToNextUnit()) {
      chargeComputeCycles(BurstCompute, /*Replay=*/false);
      signalError(FaultText + " (retries exhausted, no failover target)");
      return latch(AccelStatus::Fatal);
    }
    chargeComputeCycles(BurstCompute, /*Replay=*/true);
    BurstCompute = 0;
    resetAndReplay();
    Done = 0;
  }
}

void DmaEngine::resetAndReplay() {
  ActiveAccel->reset();
  // Replay bypasses injection entirely: these bursts already beat their
  // faults once, and the logical cursors must not advance again.
  FaultInjector *Saved = ActiveAccel->faultInjector();
  ActiveAccel->attachFaultInjector(nullptr);
  double ReplayCycles = 0;
  for (const std::vector<uint32_t> &Burst : ReplayLog) {
    ActiveAccel->consumeBurst(Burst.data(), Burst.size());
    ReplayCycles += streamFabricCycles(Burst.size());
    ReplayCycles += ActiveAccel->takeComputeCycles();
  }
  ActiveAccel->attachFaultInjector(Saved);
  // Earlier recvs already consumed this prefix of the output stream;
  // discard it again so the next recv sees exactly what it would have.
  if (DrainedWords > 0) {
    std::vector<uint32_t> Scratch(DrainedWords);
    ActiveAccel->drainOutputInto(Scratch.data(), DrainedWords);
  }
  if (Perf)
    Perf->onRecoveryReplay(ReplayCycles);
}

bool DmaEngine::degradeToNextUnit() {
  // Best spare first: lowest score wins, ties resolve to registration
  // order (the TilingPlan cost-model ranking the caller computed).
  SpareUnit *Best = nullptr;
  for (SpareUnit &Spare : Spares) {
    if (Spare.Used || Spare.Model == ActiveAccel)
      continue;
    if (!Best || Spare.Score < Best->Score)
      Best = &Spare;
  }
  if (Best) {
    Best->Used = true;
    ActiveAccel = Best->Model;
    InjectionDisabled = true;
    if (Perf)
      Perf->onFailover();
    return true;
  }
  // No spare: clone the model for host-executed fallback. Its "compute
  // cycles" land on the CPU-fallback counter from here on.
  std::unique_ptr<AcceleratorModel> Clone =
      ActiveAccel ? ActiveAccel->cloneFresh() : nullptr;
  if (!Clone)
    return false;
  FallbackOwner = std::move(Clone);
  ActiveAccel = FallbackOwner.get();
  InjectionDisabled = true;
  CpuFallbackActive = true;
  if (Perf)
    Perf->onCpuFallbackEvent();
  return true;
}

AccelStatus DmaEngine::waitSendCompletion() {
  if (Perf)
    Perf->onHostCycles(Perf->params().DmaWaitHostCycles);
  return status();
}

AccelStatus DmaEngine::startRecv(size_t Words, size_t OffsetWords) {
  if (!Initialized) {
    signalError("dma: dma_start_recv before dma_init");
    return latch(AccelStatus::Fatal);
  }
  if (OffsetWords > Output.size() || Words > Output.size() - OffsetWords) {
    signalError("dma: recv burst exceeds the output staging region");
    return latch(AccelStatus::Fatal);
  }
  if (Perf) {
    Perf->onHostCycles(Perf->params().DmaStartHostCycles);
    Perf->onDmaTransfer(Words * 4);
    // Any compute still pending (e.g. triggered by a compute-only opcode).
    chargeComputeCycles(ActiveAccel->takeComputeCycles(), /*Replay=*/false);
    Perf->onFabricCycles(streamFabricCycles(Words));
  }
  if (ActiveAccel->outputAvailable() < Words) {
    signalError("dma: accelerator produced fewer words than requested");
    return latch(AccelStatus::Fatal);
  }
  // Results drain straight into the staging region, no intermediate copy.
  ActiveAccel->drainOutputInto(Output.words(OffsetWords, Words), Words);
  if (Injector && Injector->recovery().Enabled)
    DrainedWords += Words;
  return status();
}

AccelStatus DmaEngine::waitRecvCompletion() {
  if (Perf)
    Perf->onHostCycles(Perf->params().DmaWaitHostCycles);
  return status();
}
