//===- FaultRecoveryFuzzTest.cpp - Differential fault-recovery fuzzing ----===//
//
// Part of the AXI4MLIR reproduction. MIT licensed.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The headline pin of the self-healing runtime: for any seeded fault
/// schedule with recovery enabled, the final buffers must be bit-identical
/// to the fault-free run — on both the walker and the threaded executor —
/// and the address-independent base counters (instructions, branches,
/// loads/stores, fabric cycles, DMA transfers and bytes) must also be
/// bit-identical to the fault-free run, with every cycle of recovery work
/// visible only in the dedicated recovery counters.
/// The single exception is CPU fallback, which legitimately moves compute
/// cycles off the fabric (FabricCycles -> CpuFallbackCycles).
///
/// Deterministic cases cover each fault kind's detection + recovery path
/// (transient refusal, corrupt-word CRC, short transfer, watchdog timeout
/// + replay, tolerated stall), retry exhaustion into spare failover and
/// into CPU fallback, and recovery-disabled error surfacing. A seeded
/// random sweep (AXI4MLIR_FUZZ_SEED / AXI4MLIR_FUZZ_CASES widen it; CI
/// runs a fixed seed under ASan+UBSan) composes random workloads with
/// random fault plans; each case also runs its plan with recovery
/// disabled through the walker and the threaded engine, which must stop
/// alike.
///
//===----------------------------------------------------------------------===//

#include "dialects/InitAllDialects.h"
#include "exec/AccelConfigs.h"
#include "exec/Interpreter.h"
#include "exec/Pipeline.h"
#include "exec/Reference.h"

#include <cstdlib>
#include <optional>
#include <random>
#include <sstream>

#include <gtest/gtest.h>

using namespace axi4mlir;
using namespace axi4mlir::exec;
using V = sim::MatMulAccelerator::Version;

namespace {

const ExecMode kModes[] = {ExecMode::Walker, ExecMode::Threaded};

/// The recovery counter contract: the eight address-independent base
/// counters of a healed run match the fault-free run bit for bit. CPU
/// fallback exempts FabricCycles only — the degraded tail's compute is
/// charged to CpuFallbackCycles instead.
void expectSameBaseCounters(const sim::PerfReport &Clean,
                            const sim::PerfReport &Healed,
                            const std::string &Label) {
  SCOPED_TRACE(Label);
  EXPECT_EQ(Clean.Instructions, Healed.Instructions);
  EXPECT_EQ(Clean.BranchInstructions, Healed.BranchInstructions);
  EXPECT_EQ(Clean.Loads, Healed.Loads);
  EXPECT_EQ(Clean.Stores, Healed.Stores);
  EXPECT_EQ(Clean.L1DAccesses, Healed.L1DAccesses);
  EXPECT_EQ(Clean.DmaTransfers, Healed.DmaTransfers);
  EXPECT_EQ(Clean.DmaBytesMoved, Healed.DmaBytesMoved);
  if (Healed.CpuFallbackEvents == 0) {
    EXPECT_EQ(Clean.FabricCycles, Healed.FabricCycles);
  } else {
    EXPECT_GT(Healed.CpuFallbackCycles, 0u);
  }
  // Fault-free runs must not grow recovery telemetry.
  EXPECT_EQ(Clean.FaultsInjected, 0u);
  EXPECT_EQ(Clean.RecoveryRetries, 0u);
  EXPECT_EQ(Clean.RecoveryBackoffCycles, 0u);
  EXPECT_EQ(Clean.WatchdogPollCycles, 0u);
  EXPECT_EQ(Clean.RecoveryReplayCycles, 0u);
  EXPECT_EQ(Clean.FailoverEvents, 0u);
  EXPECT_EQ(Clean.CpuFallbackEvents, 0u);
  EXPECT_EQ(Clean.CpuFallbackCycles, 0u);
}

MatMulRunConfig matmulConfig(ExecMode Mode) {
  MatMulRunConfig Config;
  Config.M = 24;
  Config.N = 16;
  Config.K = 16;
  Config.Version = V::V3;
  Config.AccelSize = 8;
  Config.Flow = "As";
  Config.Exec = Mode;
  return Config;
}

/// Runs the same workload fault-free and faulted, asserting the headline
/// pin. Returns the healed report for extra per-case assertions.
sim::PerfReport checkHeals(MatMulRunConfig Config,
                           const sim::FaultPlan &Faults, unsigned Spares,
                           const std::string &Label) {
  SCOPED_TRACE(Label + " " + toString(Config.Exec));
  Config.Faults = sim::FaultPlan();
  Config.SpareAccelerators = 0;
  RunResult Clean = runMatMulAxi4mlir(Config);
  EXPECT_TRUE(Clean.Ok) << Clean.Error;
  EXPECT_TRUE(Clean.NumericsMatch);

  Config.Faults = Faults;
  Config.SpareAccelerators = Spares;
  RunResult Healed = runMatMulAxi4mlir(Config);
  EXPECT_TRUE(Healed.Ok) << Healed.Error;
  // The whole point: a healed run is numerically indistinguishable from a
  // fault-free one.
  EXPECT_TRUE(Healed.NumericsMatch);
  expectSameBaseCounters(Clean.Report, Healed.Report, "base counters");
  return Healed.Report;
}

/// Runs \p Config's driver under \p Faults with recovery disabled through
/// the walker and the threaded engine, on one SoC and one set of operands
/// (the cache model keys on host addresses), and expects both to end
/// alike: the same outcome, the same error text and every PerfReport
/// field equal. Most plans kill the run at a transfer.
void checkExecutorsFailAlike(const MatMulRunConfig &Config,
                             sim::FaultPlan Faults,
                             const std::string &Label) {
  SCOPED_TRACE(Label + " recovery disabled");
  Faults.Recovery.Enabled = false;
  MLIRContext Context;
  registerAllDialects(Context);
  OpBuilder Builder(&Context);
  func::FuncOp Func =
      buildMatMulFunc(Builder, Config.M, Config.N, Config.K, Config.Kind);
  OwningOpRef Owner(Func.getOperation());
  transforms::LoweringOptions Options;
  Options.EnableCpuTiling = Config.CpuTiling;
  Options.CacheBytes = Config.Params.L2SizeBytes;
  Options.Remainder = Config.Remainder;
  Options.CostParams = Config.Params;
  std::string Error;
  ASSERT_TRUE(succeeded(
      transforms::buildPipeline(
          parseSingleAccelerator(makeMatMulConfigJson(
              Config.Version, Config.AccelSize, Config.Flow)),
          Options)
          .run(Func, Error)))
      << Error;
  std::unique_ptr<ExecPlan> Plan = ExecPlan::compile(Func, Error);
  ASSERT_NE(Plan, nullptr) << Error;
  std::unique_ptr<DecodedPlan> Decoded = DecodedPlan::decode(*Plan);

  std::optional<sim::FaultInjector> Injector; // outlives the SoC
  auto Soc = sim::makeMatMulSoC(Config.Version, Config.AccelSize, Config.Kind,
                                Config.Params);
  runtime::DmaRuntime Runtime(*Soc, Config.SpecializeCopies);
  std::vector<runtime::MemRefDesc> Args = {
      runtime::MemRefDesc::alloc({Config.M, Config.K}, Config.Kind),
      runtime::MemRefDesc::alloc({Config.K, Config.N}, Config.Kind),
      runtime::MemRefDesc::alloc({Config.M, Config.N}, Config.Kind)};
  struct Outcome {
    bool Ok;
    std::string Error;
    sim::PerfReport Report;
  };
  auto runOnce = [&](auto Execute) {
    for (size_t I = 0; I < Args.size(); ++I)
      fillRandom(Args[I], Config.Seed + static_cast<uint32_t>(I));
    // A failed run leaves the accelerator mid-opcode and the engine's
    // status latched; start each run from a clean board.
    Soc->accelerator()->reset();
    Injector.emplace(Faults);
    Soc->attachFaultInjector(&*Injector);
    Soc->resetCounters();
    Outcome O;
    O.Ok = succeeded(Execute(O.Error));
    O.Report = Soc->report();
    return O;
  };
  auto walker = [&](std::string &RunError) {
    Interpreter Walker(*Soc, &Runtime, ExecMode::Walker);
    return Walker.run(Func, Args, RunError);
  };
  runOnce(walker); // allocator warm-up
  Outcome W = runOnce(walker);
  Outcome T = runOnce([&](std::string &RunError) {
    return Decoded->run(*Soc, &Runtime, Args, RunError);
  });
  EXPECT_EQ(W.Ok, T.Ok);
  EXPECT_EQ(W.Error, T.Error);
  const sim::PerfReport &A = W.Report, &B = T.Report;
  EXPECT_EQ(A.Instructions, B.Instructions);
  EXPECT_EQ(A.BranchInstructions, B.BranchInstructions);
  EXPECT_EQ(A.Loads, B.Loads);
  EXPECT_EQ(A.Stores, B.Stores);
  EXPECT_EQ(A.L1DAccesses, B.L1DAccesses);
  EXPECT_EQ(A.CacheReferences, B.CacheReferences);
  EXPECT_EQ(A.CacheMisses, B.CacheMisses);
  EXPECT_EQ(A.HostCycles, B.HostCycles);
  EXPECT_EQ(A.FabricCycles, B.FabricCycles);
  EXPECT_EQ(A.DmaTransfers, B.DmaTransfers);
  EXPECT_EQ(A.DmaBytesMoved, B.DmaBytesMoved);
  EXPECT_EQ(A.TaskClockMs, B.TaskClockMs);
  EXPECT_EQ(A.FaultsInjected, B.FaultsInjected);
  EXPECT_EQ(A.RecoveryRetries, B.RecoveryRetries);
  EXPECT_EQ(A.RecoveryBackoffCycles, B.RecoveryBackoffCycles);
  EXPECT_EQ(A.WatchdogPollCycles, B.WatchdogPollCycles);
  EXPECT_EQ(A.RecoveryReplayCycles, B.RecoveryReplayCycles);
  EXPECT_EQ(A.FailoverEvents, B.FailoverEvents);
  EXPECT_EQ(A.CpuFallbackEvents, B.CpuFallbackEvents);
  EXPECT_EQ(A.CpuFallbackCycles, B.CpuFallbackCycles);
  EXPECT_EQ(A.PlanCacheHits, B.PlanCacheHits);
  EXPECT_EQ(A.PlanCacheMisses, B.PlanCacheMisses);
}

sim::FaultEvent event(sim::FaultKind Kind, uint64_t At) {
  sim::FaultEvent Event;
  Event.Kind = Kind;
  Event.At = At;
  Event.Steps = 128;
  return Event;
}

//===----------------------------------------------------------------------===//
// Each fault kind's detection + recovery path, on both executors.
//===----------------------------------------------------------------------===//

TEST(FaultRecovery, TransientRefusalHeals) {
  sim::FaultPlan Plan;
  Plan.Events.push_back(event(sim::FaultKind::TransientError, 2));
  for (ExecMode Mode : kModes) {
    sim::PerfReport Report =
        checkHeals(matmulConfig(Mode), Plan, 0, "transient@2");
    EXPECT_EQ(Report.FaultsInjected, 1u);
    EXPECT_EQ(Report.RecoveryRetries, 1u);
    EXPECT_GT(Report.RecoveryBackoffCycles, 0u);
    EXPECT_EQ(Report.FailoverEvents, 0u);
    EXPECT_EQ(Report.CpuFallbackEvents, 0u);
  }
}

TEST(FaultRecovery, CorruptWordHeals) {
  sim::FaultPlan Plan;
  sim::FaultEvent Corrupt = event(sim::FaultKind::CorruptWord, 4);
  Corrupt.WordIndex = 3;
  Corrupt.XorMask = 0xFF;
  Plan.Events.push_back(Corrupt);
  for (ExecMode Mode : kModes) {
    sim::PerfReport Report =
        checkHeals(matmulConfig(Mode), Plan, 0, "corrupt@4");
    EXPECT_EQ(Report.FaultsInjected, 1u);
    EXPECT_EQ(Report.RecoveryRetries, 1u);
  }
}

TEST(FaultRecovery, TruncatedTransferHeals) {
  sim::FaultPlan Plan;
  Plan.Events.push_back(event(sim::FaultKind::TruncateSend, 3));
  for (ExecMode Mode : kModes) {
    sim::PerfReport Report =
        checkHeals(matmulConfig(Mode), Plan, 0, "truncate@3");
    EXPECT_EQ(Report.FaultsInjected, 1u);
    EXPECT_EQ(Report.RecoveryRetries, 1u);
  }
}

TEST(FaultRecovery, DroppedBurstTimesOutAndReplays) {
  sim::FaultPlan Plan;
  Plan.Events.push_back(event(sim::FaultKind::DropSend, 5));
  for (ExecMode Mode : kModes) {
    sim::PerfReport Report =
        checkHeals(matmulConfig(Mode), Plan, 0, "drop@5");
    EXPECT_EQ(Report.FaultsInjected, 1u);
    EXPECT_EQ(Report.RecoveryRetries, 1u);
    // The watchdog burned its full poll budget, and the reset re-staged
    // the transfers delivered before the drop.
    EXPECT_EQ(Report.WatchdogPollCycles,
              Plan.Recovery.WatchdogPolls * Plan.Recovery.PollCycles);
    EXPECT_GT(Report.RecoveryReplayCycles, 0u);
  }
}

TEST(FaultRecovery, StallWithinWatchdogBudgetIsTolerated) {
  sim::FaultPlan Plan;
  sim::FaultEvent Stall = event(sim::FaultKind::Stall, 2);
  Stall.Steps = 16; // under the default 64-poll budget
  Plan.Events.push_back(Stall);
  for (ExecMode Mode : kModes) {
    sim::PerfReport Report =
        checkHeals(matmulConfig(Mode), Plan, 0, "stall@2:16");
    EXPECT_EQ(Report.FaultsInjected, 1u);
    // Tolerated: the watchdog charged the polls but no retry was needed.
    EXPECT_EQ(Report.RecoveryRetries, 0u);
    EXPECT_EQ(Report.WatchdogPollCycles, 16 * Plan.Recovery.PollCycles);
  }
}

TEST(FaultRecovery, StallBeyondWatchdogBudgetTimesOut) {
  sim::FaultPlan Plan;
  sim::FaultEvent Stall = event(sim::FaultKind::Stall, 2);
  Stall.Steps = 200; // over the 64-poll budget
  Plan.Events.push_back(Stall);
  for (ExecMode Mode : kModes) {
    sim::PerfReport Report =
        checkHeals(matmulConfig(Mode), Plan, 0, "stall@2:200");
    EXPECT_EQ(Report.FaultsInjected, 1u);
    EXPECT_EQ(Report.RecoveryRetries, 1u);
    EXPECT_EQ(Report.WatchdogPollCycles,
              Plan.Recovery.WatchdogPolls * Plan.Recovery.PollCycles);
  }
}

TEST(FaultRecovery, MultipleFaultsHealIndependently) {
  sim::FaultPlan Plan;
  Plan.Events.push_back(event(sim::FaultKind::TransientError, 1));
  Plan.Events.push_back(event(sim::FaultKind::CorruptWord, 6));
  Plan.Events.push_back(event(sim::FaultKind::TruncateSend, 9));
  for (ExecMode Mode : kModes) {
    sim::PerfReport Report =
        checkHeals(matmulConfig(Mode), Plan, 0, "three faults");
    EXPECT_EQ(Report.FaultsInjected, 3u);
    EXPECT_EQ(Report.RecoveryRetries, 3u);
  }
}

//===----------------------------------------------------------------------===//
// Retry exhaustion: failover to a spare, then CPU fallback.
//===----------------------------------------------------------------------===//

TEST(FaultRecovery, ExhaustionFailsOverToSpare) {
  sim::FaultPlan Plan;
  sim::FaultEvent Persistent = event(sim::FaultKind::TransientError, 2);
  Persistent.Attempts = 16; // outlasts any retry budget
  Plan.Events.push_back(Persistent);
  Plan.Recovery.MaxRetries = 2;
  for (ExecMode Mode : kModes) {
    sim::PerfReport Report = checkHeals(matmulConfig(Mode), Plan,
                                        /*Spares=*/1, "persistent+spare");
    EXPECT_EQ(Report.RecoveryRetries, 2u);
    EXPECT_EQ(Report.FailoverEvents, 1u);
    EXPECT_EQ(Report.CpuFallbackEvents, 0u);
    EXPECT_GT(Report.RecoveryReplayCycles, 0u);
  }
}

TEST(FaultRecovery, ExhaustionFallsBackToCpu) {
  sim::FaultPlan Plan;
  sim::FaultEvent Persistent = event(sim::FaultKind::TransientError, 2);
  Persistent.Attempts = 16;
  Plan.Events.push_back(Persistent);
  Plan.Recovery.MaxRetries = 1;
  for (ExecMode Mode : kModes) {
    sim::PerfReport Report = checkHeals(matmulConfig(Mode), Plan,
                                        /*Spares=*/0, "persistent+nospare");
    EXPECT_EQ(Report.RecoveryRetries, 1u);
    EXPECT_EQ(Report.FailoverEvents, 0u);
    EXPECT_EQ(Report.CpuFallbackEvents, 1u);
    EXPECT_GT(Report.CpuFallbackCycles, 0u);
  }
}

TEST(FaultRecovery, SpareExhaustionCascadesToCpu) {
  // Two persistent faults: the first burns the primary (failover), the
  // second burns the spare (CPU fallback). Injection is disabled on the
  // degraded unit, so the second event must target a later send made
  // while the spare is active... but failover disables injection for the
  // rest of the run by design — a degraded run stops being a fault target.
  // So: one persistent fault, one spare, retries so low the spare is the
  // last line; the run still heals via the spare.
  sim::FaultPlan Plan;
  sim::FaultEvent Persistent = event(sim::FaultKind::DropSend, 0);
  Persistent.Attempts = 16;
  Plan.Events.push_back(Persistent);
  Plan.Recovery.MaxRetries = 0; // immediate exhaustion
  for (ExecMode Mode : kModes) {
    sim::PerfReport Report = checkHeals(matmulConfig(Mode), Plan,
                                        /*Spares=*/1, "drop@0 retries=0");
    EXPECT_EQ(Report.RecoveryRetries, 0u);
    EXPECT_EQ(Report.FailoverEvents, 1u);
  }
}

//===----------------------------------------------------------------------===//
// Recovery disabled: the fault surfaces as a structured error, never as
// silently wrong data.
//===----------------------------------------------------------------------===//

TEST(FaultRecovery, NoRecoverSurfacesStructuredError) {
  sim::FaultPlan Plan;
  Plan.Events.push_back(event(sim::FaultKind::TransientError, 2));
  Plan.Recovery.Enabled = false;
  for (ExecMode Mode : kModes) {
    SCOPED_TRACE(toString(Mode));
    MatMulRunConfig Config = matmulConfig(Mode);
    Config.Faults = Plan;
    RunResult Result = runMatMulAxi4mlir(Config);
    EXPECT_FALSE(Result.Ok);
    EXPECT_NE(Result.Error.find("transient"), std::string::npos)
        << Result.Error;
    EXPECT_NE(Result.Error.find("recovery disabled"), std::string::npos)
        << Result.Error;
  }
}

TEST(FaultRecovery, NoRecoverCorruptWordFailsFatally) {
  sim::FaultPlan Plan;
  Plan.Events.push_back(event(sim::FaultKind::CorruptWord, 1));
  Plan.Recovery.Enabled = false;
  for (ExecMode Mode : kModes) {
    SCOPED_TRACE(toString(Mode));
    MatMulRunConfig Config = matmulConfig(Mode);
    Config.Faults = Plan;
    RunResult Result = runMatMulAxi4mlir(Config);
    EXPECT_FALSE(Result.Ok);
    EXPECT_NE(Result.Error.find("corrupt-word"), std::string::npos)
        << Result.Error;
  }
}

//===----------------------------------------------------------------------===//
// Conv engine: the same recovery machinery drives the second accelerator.
//===----------------------------------------------------------------------===//

TEST(FaultRecovery, ConvHealsAcrossExecutors) {
  sim::FaultPlan Plan;
  Plan.Events.push_back(event(sim::FaultKind::TransientError, 3));
  Plan.Events.push_back(event(sim::FaultKind::TruncateSend, 2));
  for (ExecMode Mode : kModes) {
    SCOPED_TRACE(std::string("conv ") + toString(Mode));
    ConvRunConfig Config;
    Config.InChannels = 3;
    Config.InHW = 9;
    Config.OutChannels = 2;
    Config.FilterHW = 3;
    Config.Stride = 1;
    Config.Exec = Mode;

    RunResult Clean = runConvAxi4mlir(Config);
    EXPECT_TRUE(Clean.Ok) << Clean.Error;
    EXPECT_TRUE(Clean.NumericsMatch);

    Config.Faults = Plan;
    RunResult Healed = runConvAxi4mlir(Config);
    EXPECT_TRUE(Healed.Ok) << Healed.Error;
    EXPECT_TRUE(Healed.NumericsMatch);
    expectSameBaseCounters(Clean.Report, Healed.Report, "conv base");
    EXPECT_EQ(Healed.Report.FaultsInjected, 2u);
  }
}

//===----------------------------------------------------------------------===//
// Seeded random sweep: random workloads x random fault schedules.
//===----------------------------------------------------------------------===//

TEST(FaultRecovery, RandomSweep) {
  uint32_t Seed = 3;
  int Cases = 6;
  if (const char *Env = std::getenv("AXI4MLIR_FUZZ_SEED"))
    Seed = static_cast<uint32_t>(std::strtoul(Env, nullptr, 10));
  if (const char *Env = std::getenv("AXI4MLIR_FUZZ_CASES"))
    Cases = static_cast<int>(std::strtol(Env, nullptr, 10));
  std::mt19937 Rng(Seed);
  auto pick = [&](int Lo, int Hi) {
    return std::uniform_int_distribution<int>(Lo, Hi)(Rng);
  };
  for (int I = 0; I < Cases; ++I) {
    MatMulRunConfig Config;
    Config.Version = pick(0, 1) ? V::V3 : V::V2;
    Config.AccelSize = Config.Version == V::V2 ? 4 : 8;
    Config.Flow = Config.Version == V::V2
                      ? std::vector<std::string>{"Ns", "As", "Bs"}[pick(0, 2)]
                      : std::vector<std::string>{"Ns", "As", "Bs",
                                                 "Cs"}[pick(0, 3)];
    Config.M = Config.AccelSize * pick(1, 3);
    Config.N = Config.AccelSize * pick(1, 3);
    Config.K = Config.AccelSize * pick(1, 3);
    // The draw stays three-way (walker on 0, threaded otherwise) so every
    // later draw, and with it each seeded case, keeps its values.
    Config.Exec = pick(0, 2) == 0 ? ExecMode::Walker : ExecMode::Threaded;
    uint32_t PlanSeed = static_cast<uint32_t>(pick(0, 1 << 20));
    sim::FaultPlan Plan =
        sim::makeRandomFaultPlan(PlanSeed, pick(1, 4), /*MaxIndex=*/24);
    // One spare so persistent schedules degrade gracefully instead of
    // dying (random plans can stack attempts past the retry budget).
    std::ostringstream Label;
    Label << "seed " << Seed << " case " << I << " plan " << PlanSeed;
    checkHeals(Config, Plan, /*Spares=*/1, Label.str());
    checkExecutorsFailAlike(Config, Plan, Label.str());
    if (::testing::Test::HasFailure()) {
      ADD_FAILURE() << "stopping after first failing case: " << Label.str();
      return;
    }
  }
}

} // namespace
