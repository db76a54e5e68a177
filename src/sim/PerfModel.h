//===- PerfModel.h - Host performance model ---------------------*- C++ -*-===//
//
// Part of the AXI4MLIR reproduction. MIT licensed.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// HostPerfModel accumulates the perf-style counters the paper reports
/// (task-clock, cache-references, branch-instructions; Figs. 12 & 16) while
/// host code executes against the simulator. The executors and the DMA
/// runtime call the on*() hooks; benchmarks read the PerfReport.
///
//===----------------------------------------------------------------------===//

#ifndef AXI4MLIR_SIM_PERFMODEL_H
#define AXI4MLIR_SIM_PERFMODEL_H

#include "sim/CacheSim.h"
#include "sim/CostModel.h"

#include <cstdint>
#include <string>

namespace axi4mlir {
namespace sim {

/// Snapshot of all counters, in perf nomenclature. Following perf's
/// defaults on ARM, `cache-references`/`cache-misses` describe the
/// last-level cache: references = L1D misses that reach the LLC, misses =
/// LLC misses that reach DRAM.
struct PerfReport {
  uint64_t Instructions = 0;
  uint64_t BranchInstructions = 0;
  uint64_t Loads = 0;
  uint64_t Stores = 0;
  uint64_t L1DAccesses = 0;
  uint64_t CacheReferences = 0; // LLC accesses (== L1D misses).
  uint64_t CacheMisses = 0;     // LLC misses (DRAM accesses).
  double HostCycles = 0;
  double FabricCycles = 0;
  uint64_t DmaTransfers = 0;
  uint64_t DmaBytesMoved = 0;
  double TaskClockMs = 0;

  // Fault-injection / recovery counters (all zero on fault-free runs, so
  // the pre-existing counters above stay bit-identical when no injector
  // is attached). Retry work is charged here, NOT to the counters above:
  // HostCycles/FabricCycles/DmaTransfers keep describing the fault-free
  // logical transfer sequence.
  uint64_t FaultsInjected = 0;       ///< injector events that fired
  uint64_t RecoveryRetries = 0;      ///< bounded per-transfer retries
  double RecoveryBackoffCycles = 0;  ///< modeled host backoff (host domain)
  double WatchdogPollCycles = 0;     ///< watchdog polling (host domain)
  double RecoveryReplayCycles = 0;   ///< re-staged compute (fabric domain)
  uint64_t FailoverEvents = 0;       ///< switches to the spare accelerator
  uint64_t CpuFallbackEvents = 0;    ///< switches to host CPU execution
  double CpuFallbackCycles = 0;      ///< fallback compute (host domain)

  // Compiled-plan telemetry: serve::PlanCache charges its hits and
  // misses, and every threaded Interpreter run charges the miss of the
  // plan it compiles. Pure counters: they charge no cycles, so runs with
  // identical work keep identical TaskClockMs regardless of cache
  // behaviour.
  uint64_t PlanCacheHits = 0;   ///< compiled plan reused
  uint64_t PlanCacheMisses = 0; ///< plan compiled

  std::string summary() const;
};

/// The mutable counter accumulator + cache simulator.
///
/// Host cycles are not summed charge by charge. The model keeps two
/// integers: `Instructions`, and `StallCycles`, the cache-miss penalties
/// plus the fixed onHostCycles() driver charges. report() derives
///
///   HostCycles = Instructions * CyclesPerInstruction + StallCycles
///
/// once. That equals the in-order `double` sum of every charge whenever
/// CyclesPerInstruction is integral and the totals stay below 2^53 (every
/// SoCParams in the repo uses 1.0). A fractional CPI rounds once here
/// instead of once per charge.
///
/// A block of many charges (a kernel's loop nest, a strided copy, a
/// memcpy's line walk) opens a Sweep instead of calling the hooks one by
/// one; single charges call the hooks.
class HostPerfModel {
public:
  class Sweep;

  explicit HostPerfModel(const SoCParams &Params)
      : Params(Params), Cache(Params) {}

  const SoCParams &params() const { return Params; }

  //===------------------------------------------------------------------===//
  // Host-side events
  //===------------------------------------------------------------------===//

  /// A scalar load/store of \p Bytes at \p Address.
  void onScalarLoad(uint64_t Address, unsigned Bytes) {
    ++Loads;
    chargeAccess(Address, Bytes);
  }
  void onScalarStore(uint64_t Address, unsigned Bytes) {
    ++Stores;
    chargeAccess(Address, Bytes);
  }

  /// Plain ALU instruction(s).
  void onArith(uint64_t Count = 1) { Instructions += Count; }

  /// A (taken or not) branch instruction.
  void onBranch(uint64_t Count = 1) {
    BranchInstructions += Count;
    onArith(Count);
  }

  /// One loop iteration: induction update + compare + backedge branch.
  void onLoopIteration() {
    onArith(Params.LoopIterationInstructions);
    onBranch();
  }

  /// A vectorized memcpy of \p Bytes from \p Src to \p Dst (the copy
  /// specialization of paper Sec. IV-B): per-line cache references and
  /// ~one instruction per 16 bytes instead of per element.
  void onMemcpy(uint64_t Dst, uint64_t Src, uint64_t Bytes);

  /// Fixed host-cycle charges (DMA driver calls etc.).
  void onHostCycles(uint64_t Cycles) { StallCycles += Cycles; }

  //===------------------------------------------------------------------===//
  // Fabric-side events (charged by the DMA engine / accelerator)
  //===------------------------------------------------------------------===//

  void onFabricCycles(double Cycles) { FabricCycles += Cycles; }
  void onDmaTransfer(uint64_t Bytes) {
    ++DmaTransfers;
    DmaBytesMoved += Bytes;
  }

  //===------------------------------------------------------------------===//
  // Fault-injection / recovery events (DmaEngine recovery layer). These
  // charge dedicated counters so fault-free runs keep every pre-existing
  // counter bit-identical.
  //===------------------------------------------------------------------===//

  void onFaultsInjected(uint64_t Count) { FaultsInjected += Count; }
  void onRecoveryRetry(double BackoffCycles) {
    ++RecoveryRetries;
    RecoveryBackoffCycles += BackoffCycles;
  }
  void onWatchdogPolls(double Cycles) { WatchdogPollCycles += Cycles; }
  void onRecoveryReplay(double Cycles) { RecoveryReplayCycles += Cycles; }
  void onFailover() { ++FailoverEvents; }
  void onCpuFallbackEvent() { ++CpuFallbackEvents; }
  void onCpuFallbackCycles(double Cycles) { CpuFallbackCycles += Cycles; }

  //===------------------------------------------------------------------===//
  // Plan-cache events (serve::PlanCache lookups and Interpreter plan
  // compiles). Counters only — no cycle charges, so cache behaviour never
  // perturbs modeled time.
  //===------------------------------------------------------------------===//

  void onPlanCacheHit() { ++PlanCacheHits; }
  void onPlanCacheMiss() { ++PlanCacheMisses; }

  //===------------------------------------------------------------------===//
  // Reporting
  //===------------------------------------------------------------------===//

  PerfReport report() const;
  void reset();

private:
  void chargeAccess(uint64_t Address, unsigned Bytes) {
    Instructions += 1 + Params.ScalarAccessExtraInstructions;
    StallCycles += Cache.access(Address, Bytes);
  }

  SoCParams Params;
  CacheSim Cache;
  uint64_t Instructions = 0;
  uint64_t BranchInstructions = 0;
  uint64_t Loads = 0;
  uint64_t Stores = 0;
  uint64_t StallCycles = 0; ///< miss penalties + onHostCycles charges
  double FabricCycles = 0;
  uint64_t DmaTransfers = 0;
  uint64_t DmaBytesMoved = 0;
  uint64_t FaultsInjected = 0;
  uint64_t RecoveryRetries = 0;
  double RecoveryBackoffCycles = 0;
  double WatchdogPollCycles = 0;
  double RecoveryReplayCycles = 0;
  uint64_t FailoverEvents = 0;
  uint64_t CpuFallbackEvents = 0;
  double CpuFallbackCycles = 0;
  uint64_t PlanCacheHits = 0;
  uint64_t PlanCacheMisses = 0;
};

/// Charges one block of host work through locals: the scalar, arith,
/// branch and loop-iteration hooks below charge exactly what the
/// HostPerfModel hooks of the same name charge, and walk the cache lines
/// in the same order, but the totals (and the L1 geometry, through a
/// CacheSim::Walker) stay in the sweep until it closes and commits them
/// once. A sweep copies no cache state, so charges made on the model
/// while it is open stay exact. Every return path commits, since the
/// destructor does.
class HostPerfModel::Sweep {
public:
  explicit Sweep(HostPerfModel &Perf)
      : Perf(Perf), Cache(Perf.Cache),
        AccessInstructions(1 + Perf.Params.ScalarAccessExtraInstructions),
        LoopIterationInstructions(Perf.Params.LoopIterationInstructions) {}
  ~Sweep() {
    Perf.Instructions += Instructions;
    Perf.BranchInstructions += BranchInstructions;
    Perf.Loads += Loads;
    Perf.Stores += Stores;
    Perf.StallCycles += StallCycles;
  }
  Sweep(const Sweep &) = delete;
  Sweep &operator=(const Sweep &) = delete;

  void onScalarLoad(uint64_t Address, unsigned Bytes) {
    ++Loads;
    chargeAccess(Address, Bytes);
  }
  void onScalarStore(uint64_t Address, unsigned Bytes) {
    ++Stores;
    chargeAccess(Address, Bytes);
  }
  void onArith(uint64_t Count = 1) { Instructions += Count; }
  void onBranch(uint64_t Count = 1) {
    BranchInstructions += Count;
    onArith(Count);
  }
  void onLoopIteration() {
    onArith(LoopIterationInstructions);
    onBranch();
  }
  /// \p Count onLoopIteration() charges in O(1).
  void onLoopIterations(uint64_t Count) {
    onArith(Count * LoopIterationInstructions);
    onBranch(Count);
  }
  /// \p Rows HostPerfModel::onMemcpy charges over rows of \p RowBytes
  /// spaced \p DstStrideBytes / \p SrcStrideBytes apart: the lines are
  /// walked row by row in src-then-dst order, the arithmetic counters are
  /// computed in closed form.
  void onMemcpyRows(uint64_t Dst, uint64_t Src, uint64_t RowBytes,
                    uint64_t Rows, uint64_t DstStrideBytes,
                    uint64_t SrcStrideBytes) {
    if (Rows == 0)
      return;
    const SoCParams &P = Perf.Params;
    uint64_t CopyInstructions =
        P.MemcpySetupInstructions +
        (RowBytes + P.MemcpyBytesPerInstruction - 1) /
            P.MemcpyBytesPerInstruction;
    // A memcpy is almost branch-free: one loop branch per 64-byte chunk.
    uint64_t Branches = RowBytes / 64 + 1;
    Instructions += (CopyInstructions + Branches) * Rows;
    BranchInstructions += Branches * Rows;
    for (uint64_t Row = 0; Row < Rows; ++Row) {
      StallCycles += Cache.range(Src + Row * SrcStrideBytes, RowBytes);
      StallCycles += Cache.range(Dst + Row * DstStrideBytes, RowBytes);
    }
    Loads += RowBytes / P.MemcpyBytesPerInstruction * Rows;
    Stores += RowBytes / P.MemcpyBytesPerInstruction * Rows;
  }

private:
  void chargeAccess(uint64_t Address, unsigned Bytes) {
    Instructions += AccessInstructions;
    StallCycles += Cache.access(Address, Bytes);
  }

  HostPerfModel &Perf;
  CacheSim::Walker Cache;
  const uint64_t AccessInstructions;
  const uint64_t LoopIterationInstructions;
  uint64_t Instructions = 0;
  uint64_t BranchInstructions = 0;
  uint64_t Loads = 0;
  uint64_t Stores = 0;
  uint64_t StallCycles = 0;
};

} // namespace sim
} // namespace axi4mlir

#endif // AXI4MLIR_SIM_PERFMODEL_H
