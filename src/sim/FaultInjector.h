//===- FaultInjector.h - Deterministic SoC fault injection ------*- C++ -*-===//
//
// Part of the AXI4MLIR reproduction. MIT licensed.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// A deterministic, seedable fault injector for the simulated SoC. A
/// FaultPlan is a list of events keyed by *logical* position in the run:
/// DMA faults (drop / truncate / corrupt) fire on the Nth dma_start_send
/// of the run, accelerator faults (transient-error / stall) fire on the
/// Nth opcode the accelerator starts. Keying by logical index (instead of
/// wall-clock or address) is what makes a schedule reproducible across the
/// walker, plan and threaded executors: all three issue the identical
/// runtime-call sequence, so the same plan perturbs the same transfer in
/// each.
///
/// Attempt semantics: an event fires on the first `Attempts` presentations
/// of its index. Retried transfers re-present the same logical index, so
/// `Attempts > MaxRetries` deterministically forces retry exhaustion (the
/// failover / CPU-fallback paths), while the default `Attempts = 1` lets a
/// single bounded retry heal the fault.
///
/// The hooks in DmaEngine / AcceleratorModel are null-pointer checks when
/// no injector is attached.
///
//===----------------------------------------------------------------------===//

#ifndef AXI4MLIR_SIM_FAULTINJECTOR_H
#define AXI4MLIR_SIM_FAULTINJECTOR_H

#include "support/LogicalResult.h"

#include <cstdint>
#include <string>
#include <vector>

namespace axi4mlir {
namespace sim {

/// What goes wrong. Drop/Truncate/Corrupt are DMA-layer faults keyed by
/// send-transfer index; TransientError/Stall are accelerator-side faults
/// keyed by opcode index.
enum class FaultKind {
  DropSend,       ///< burst vanishes on the stream; detected by the watchdog
  TruncateSend,   ///< short transfer; detected by the AXI transfer check
  CorruptWord,    ///< payload word flipped; detected by the AXI data check
  TransientError, ///< accelerator raises a transient error, refuses opcode
  Stall           ///< accelerator FSM stalls for Steps cycles
};

inline bool isDmaFault(FaultKind Kind) {
  return Kind == FaultKind::DropSend || Kind == FaultKind::TruncateSend ||
         Kind == FaultKind::CorruptWord;
}

const char *toString(FaultKind Kind);

struct FaultEvent {
  FaultKind Kind = FaultKind::DropSend;
  /// Logical send index (DMA faults) or opcode index (accelerator faults).
  uint64_t At = 0;
  /// The event fires on the first Attempts presentations of index At.
  uint32_t Attempts = 1;
  /// CorruptWord: which word of the burst flips, and with what mask.
  uint32_t WordIndex = 0;
  uint32_t XorMask = 1;
  /// Stall: FSM stall steps to accrue.
  uint64_t Steps = 0;
  /// Presentations this event already fired on.
  uint32_t Fired = 0;
  /// Drawn by makeRandomFaultPlan. A seeded schedule models environmental
  /// noise, so it may put two events on one index.
  bool Random = false;
};

/// Bounds of the self-healing runtime.
struct RecoveryPolicy {
  bool Enabled = true;
  /// Per-transfer bounded retry budget before failover / CPU fallback.
  uint32_t MaxRetries = 3;
  /// Watchdog poll budget: stalls longer than this many polls time out.
  uint64_t WatchdogPolls = 64;
  /// Modeled host backoff per retry (charged to RecoveryBackoffCycles).
  uint64_t BackoffCycles = 200;
  /// Modeled host cost of one watchdog poll.
  uint64_t PollCycles = 10;
};

struct FaultPlan {
  std::vector<FaultEvent> Events;
  RecoveryPolicy Recovery;
  bool empty() const { return Events.empty(); }
};

/// The runtime-side injector: owns a plan plus the logical cursors. The
/// DMA engine queries it per send, the accelerator models per opcode.
class FaultInjector {
public:
  explicit FaultInjector(FaultPlan Plan) : Plan(std::move(Plan)) {}

  /// Consults the plan for the current logical send. Each call models one
  /// physical attempt (so retries consume event attempts); the cursor only
  /// advances on commitSend().
  const FaultEvent *querySend();
  /// Marks the current logical send delivered (or silently dropped).
  void commitSend() { ++SendCursor; }
  uint64_t sendCursor() const { return SendCursor; }

  /// Consults the plan for the opcode the accelerator is about to start.
  /// Auto-commits (advances the opcode cursor) unless the opcode is
  /// refused with a transient error — a refused opcode is re-presented by
  /// the retry, consuming another attempt of the same event.
  const FaultEvent *onOpcode();
  uint64_t opcodeCursor() const { return OpcodeCursor; }

  /// Total events fired so far (feeds the FaultsInjected counter).
  uint64_t faultsFired() const { return TotalFired; }

  const RecoveryPolicy &recovery() const { return Plan.Recovery; }

private:
  FaultEvent *fire(uint64_t Index, bool Dma);

  FaultPlan Plan;
  uint64_t SendCursor = 0;
  uint64_t OpcodeCursor = 0;
  uint64_t TotalFired = 0;
};

/// One-line description of an event for diagnostics ("injected corrupt-word
/// fault (word 3)").
std::string describeFault(const FaultEvent &Event);

/// Deterministic random schedule: \p Count events with indices below
/// \p MaxIndex, kinds and parameters drawn from \p Seed.
FaultPlan makeRandomFaultPlan(uint32_t Seed, unsigned Count,
                              uint64_t MaxIndex);

/// Stores \p Value in the 32-bit field \p Out, or fails naming \p Key
/// instead of wrapping. Both schedule front ends parse through it.
LogicalResult narrowFaultCount(const std::string &Key, int64_t Value,
                               uint32_t &Out, std::string &Error);

/// The rules every fault schedule obeys, whichever front end built it
/// (the config file's `faults` section, --faults, or both merged): each
/// event fires at least once (attempts >= 1), a stall lasts (steps >= 1),
/// a corruption flips a bit (xor != 0), no two events outside the random
/// tail target one index in one domain (the second could only fire on
/// retries of the first), and the watchdog and poll budgets are >= 1.
/// On failure returns failure and names the event or field in \p Error.
LogicalResult checkFaultPlan(const FaultPlan &Plan, std::string &Error);

/// Parses the axi4mlir-opt --faults= spec into \p Plan (appending events /
/// overriding policy fields), then checks the merged plan. Grammar
/// (comma-separated entries):
///   drop@N | truncate@N | corrupt@N[:word=W] | transient@N[:attempts=A]
///   | stall@N:steps=S | rand=SEED:n=COUNT[:max=M]
///   | retries=N | watchdog=N | backoff=N | norecover
/// On failure returns failure and fills \p Error.
LogicalResult parseFaultSpec(const std::string &Spec, FaultPlan &Plan,
                             std::string &Error);

} // namespace sim
} // namespace axi4mlir

#endif // AXI4MLIR_SIM_FAULTINJECTOR_H
