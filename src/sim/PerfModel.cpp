//===- PerfModel.cpp - Host performance model implementation --------------===//
//
// Part of the AXI4MLIR reproduction. MIT licensed.
//
//===----------------------------------------------------------------------===//

#include "sim/PerfModel.h"

#include <sstream>

using namespace axi4mlir;
using namespace axi4mlir::sim;

std::string PerfReport::summary() const {
  std::ostringstream OS;
  OS << "task-clock " << TaskClockMs << " ms | instructions " << Instructions
     << " | branches " << BranchInstructions << " | cache-refs "
     << CacheReferences << " | cache-misses " << CacheMisses
     << " | dma-transfers " << DmaTransfers << " (" << DmaBytesMoved
     << " B)";
  // Recovery telemetry only appears on faulted runs: fault-free summaries
  // stay byte-identical to the pre-fault-injection format.
  if (FaultsInjected > 0) {
    OS << " | faults " << FaultsInjected << " (retries " << RecoveryRetries
       << ", failovers " << FailoverEvents << ", cpu-fallbacks "
       << CpuFallbackEvents << ")";
  }
  // Plan-cache telemetry likewise only appears once a cache has been
  // consulted, keeping legacy summaries byte-identical.
  if (PlanCacheHits + PlanCacheMisses > 0) {
    OS << " | plan-cache " << PlanCacheHits << "/"
       << (PlanCacheHits + PlanCacheMisses) << " hits";
  }
  return OS.str();
}

void HostPerfModel::onMemcpy(uint64_t Dst, uint64_t Src, uint64_t Bytes) {
  Sweep(*this).onMemcpyRows(Dst, Src, Bytes, 1, 0, 0);
}

PerfReport HostPerfModel::report() const {
  PerfReport Report;
  Report.Instructions = Instructions;
  Report.BranchInstructions = BranchInstructions;
  Report.Loads = Loads;
  Report.Stores = Stores;
  Report.L1DAccesses = Cache.getReferences();
  Report.CacheReferences = Cache.getL1Misses();
  Report.CacheMisses = Cache.getL2Misses();
  Report.HostCycles =
      static_cast<double>(Instructions) * Params.CyclesPerInstruction +
      static_cast<double>(StallCycles);
  Report.FabricCycles = FabricCycles;
  Report.DmaTransfers = DmaTransfers;
  Report.DmaBytesMoved = DmaBytesMoved;
  Report.FaultsInjected = FaultsInjected;
  Report.RecoveryRetries = RecoveryRetries;
  Report.RecoveryBackoffCycles = RecoveryBackoffCycles;
  Report.WatchdogPollCycles = WatchdogPollCycles;
  Report.RecoveryReplayCycles = RecoveryReplayCycles;
  Report.FailoverEvents = FailoverEvents;
  Report.CpuFallbackEvents = CpuFallbackEvents;
  Report.CpuFallbackCycles = CpuFallbackCycles;
  Report.PlanCacheHits = PlanCacheHits;
  Report.PlanCacheMisses = PlanCacheMisses;
  // Recovery work extends the modeled wall clock: backoff, polling and
  // CPU-fallback compute run on the host; replayed staging runs on the
  // fabric. All four are zero on fault-free runs, leaving TaskClockMs
  // bit-identical there.
  Report.TaskClockMs = Params.taskClockMs(
      Report.HostCycles + RecoveryBackoffCycles + WatchdogPollCycles +
          CpuFallbackCycles,
      FabricCycles + RecoveryReplayCycles);
  return Report;
}

void HostPerfModel::reset() {
  // Counters are zeroed in place: the cache keeps its tag storage (and so
  // its heap address) and only clears it.
  Cache.reset();
  Instructions = 0;
  BranchInstructions = 0;
  Loads = 0;
  Stores = 0;
  StallCycles = 0;
  FabricCycles = 0;
  DmaTransfers = 0;
  DmaBytesMoved = 0;
  FaultsInjected = 0;
  RecoveryRetries = 0;
  RecoveryBackoffCycles = 0;
  WatchdogPollCycles = 0;
  RecoveryReplayCycles = 0;
  FailoverEvents = 0;
  CpuFallbackEvents = 0;
  CpuFallbackCycles = 0;
  PlanCacheHits = 0;
  PlanCacheMisses = 0;
}
