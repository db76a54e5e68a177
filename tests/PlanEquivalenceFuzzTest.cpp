//===- PlanEquivalenceFuzzTest.cpp - Differential plan-optimizer fuzzing --===//
//
// Part of the AXI4MLIR reproduction. MIT licensed.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The equivalence harness pinning src/exec/opt and the threaded engine:
/// every driver is executed by the legacy walker, the unoptimized plan,
/// each optimizer pass on its own, and the full pipeline — against the
/// SAME simulated SoC and the SAME argument buffers (refilled from fixed
/// seeds, counters reset between runs). Each configuration compiles and
/// optimizes one plan and runs it twice: through the plan interpreter
/// (ExecPlan::run, the exact reference for optimized plans) and through
/// the threaded-dispatch executor (DecodedPlan::run), which must match
/// the plan interpreter's buffers and address-independent counters bit
/// for bit. Output buffers must be bit-identical in every configuration.
/// Counters are held to the pass contracts (PlanOpt.h):
/// a run whose PlanOptStats report no counter-changing rewrites must
/// reproduce the walker's HostPerfModel/DMA/cache counters bit for bit;
/// runs with counter-changing rewrites (hoisted/removed charged
/// instructions, flattened loops, merged sends) must improve the
/// cache-free counters monotonically while conserving DmaBytesMoved.
///
/// A deterministic case list covers matmul v1–v4 across all four flows,
/// f32 and i32, pad/peel partial tiles, and conv; on top, a seeded fuzzer
/// generates random cases. AXI4MLIR_FUZZ_SEED / AXI4MLIR_FUZZ_CASES widen
/// the sweep (CI runs a fixed seed under ASan+UBSan and a 200-case
/// opt-in sweep).
///
//===----------------------------------------------------------------------===//

#include "analysis/PlanVerifier.h"
#include "dialects/InitAllDialects.h"
#include "exec/AccelConfigs.h"
#include "exec/ExecPlan.h"
#include "exec/Interpreter.h"
#include "exec/Pipeline.h"
#include "exec/Reference.h"
#include "exec/opt/PlanOpt.h"

#include <cstdlib>
#include <random>
#include <sstream>

#include <gtest/gtest.h>

using namespace axi4mlir;
using namespace axi4mlir::exec;
using runtime::MemRefDesc;
using V = sim::MatMulAccelerator::Version;

namespace {

/// One generated driver: a matmul or conv workload plus its lowering and
/// system configuration.
struct FuzzCase {
  bool IsConv = false;
  // MatMul.
  int64_t M = 8, N = 8, K = 8;
  V Version = V::V3;
  int64_t AccelSize = 8;
  std::string Flow = "Ns";
  // Conv: fixed output-stationary engine.
  int64_t InC = 3, InHW = 9, OutC = 2, FilterHW = 3, Stride = 1;
  sim::ElemKind Kind = sim::ElemKind::I32;
  bool CpuTiling = false;
  transforms::RemainderMode Remainder = transforms::RemainderMode::Pad;

  std::string describe() const {
    std::ostringstream OS;
    if (IsConv) {
      OS << "conv " << InHW << "x" << InC << " f" << FilterHW << " oc"
         << OutC << " s" << Stride;
    } else {
      OS << "matmul v" << (Version == V::V1   ? 1
                           : Version == V::V2 ? 2
                           : Version == V::V3 ? 3
                                              : 4)
         << "/" << AccelSize << " " << Flow << " " << M << "x" << N << "x"
         << K;
    }
    OS << (Kind == sim::ElemKind::F32 ? " f32" : " i32")
       << (CpuTiling ? " cputile" : "")
       << (Remainder == transforms::RemainderMode::Peel ? " peel" : " pad");
    return OS.str();
  }
};

/// The improvement contract: buffers were already checked; here the
/// cache-free counters must not regress and the DMA byte volume must be
/// conserved. Cache-dependent counters (CacheReferences/Misses,
/// HostCycles, TaskClock) are exempt — staging relocation and LRU recency
/// shifts move them in either direction by design.
void expectImprovedReport(const sim::PerfReport &Walker,
                          const sim::PerfReport &Optimized,
                          const opt::PlanOptStats &Stats,
                          const std::string &Label) {
  SCOPED_TRACE(Label);
  EXPECT_EQ(Walker.DmaBytesMoved, Optimized.DmaBytesMoved);
  EXPECT_LE(Optimized.DmaTransfers, Walker.DmaTransfers);
  EXPECT_LE(Optimized.Instructions, Walker.Instructions);
  EXPECT_LE(Optimized.BranchInstructions, Walker.BranchInstructions);
  EXPECT_LE(Optimized.Loads, Walker.Loads);
  EXPECT_LE(Optimized.Stores, Walker.Stores);
  EXPECT_LE(Optimized.FabricCycles, Walker.FabricCycles + 1e-9);
  if (Stats.CoalescedSends == 0) {
    // Without relocated staging the cache ACCESS count (not its
    // hit/miss split) is monotone too.
    EXPECT_LE(Optimized.L1DAccesses, Walker.L1DAccesses);
    EXPECT_EQ(Walker.DmaTransfers, Optimized.DmaTransfers);
  } else {
    // Every static merge executes at least once: strictly fewer bursts.
    EXPECT_LT(Optimized.DmaTransfers, Walker.DmaTransfers);
  }
  if (Stats.FlattenedLoops > 0) {
    EXPECT_LT(Optimized.BranchInstructions, Walker.BranchInstructions);
  }
  if (Stats.HoistedChargedInsts > 0 || Stats.RemovedChargedInsts > 0) {
    EXPECT_LT(Optimized.Instructions, Walker.Instructions);
  }
}

/// \p StableAddresses: the cache simulator keys on real host addresses,
/// so CacheReferences/CacheMisses (and the miss-penalty-derived
/// HostCycles/TaskClockMs) are only cross-executor deterministic when the
/// driver allocates no staging buffers mid-run — malloc may legally hand
/// the two executors differently-aligned blocks. Drivers with pad
/// remainders (memref.alloc in the lowered body) exempt those four; the
/// eight address-independent counters are exact always.
void expectIdenticalReport(const sim::PerfReport &Walker,
                           const sim::PerfReport &Plan,
                           const std::string &Label,
                           bool StableAddresses) {
  SCOPED_TRACE(Label);
  EXPECT_EQ(Walker.Instructions, Plan.Instructions);
  EXPECT_EQ(Walker.BranchInstructions, Plan.BranchInstructions);
  EXPECT_EQ(Walker.Loads, Plan.Loads);
  EXPECT_EQ(Walker.Stores, Plan.Stores);
  EXPECT_EQ(Walker.L1DAccesses, Plan.L1DAccesses);
  EXPECT_EQ(Walker.FabricCycles, Plan.FabricCycles);
  EXPECT_EQ(Walker.DmaTransfers, Plan.DmaTransfers);
  EXPECT_EQ(Walker.DmaBytesMoved, Plan.DmaBytesMoved);
  if (StableAddresses) {
    EXPECT_EQ(Walker.CacheReferences, Plan.CacheReferences);
    EXPECT_EQ(Walker.CacheMisses, Plan.CacheMisses);
    EXPECT_EQ(Walker.HostCycles, Plan.HostCycles);
    EXPECT_EQ(Walker.TaskClockMs, Plan.TaskClockMs);
  }
}

/// Runs one case through walker, plan-none, each single pass, and the
/// full pipeline, asserting the contracts. Returns false when the
/// lowering itself failed (reported via ADD_FAILURE).
void checkCase(const FuzzCase &Case) {
  SCOPED_TRACE(Case.describe());
  MLIRContext Context;
  registerAllDialects(Context);
  OpBuilder Builder(&Context);

  func::FuncOp Func =
      Case.IsConv
          ? buildConvFunc(Builder, 1, Case.InC, Case.InHW, Case.OutC,
                          Case.FilterHW, Case.Stride, Case.Kind)
          : buildMatMulFunc(Builder, Case.M, Case.N, Case.K, Case.Kind);
  OwningOpRef Owner(Func.getOperation());

  const char *DataType =
      Case.Kind == sim::ElemKind::F32 ? "float32" : "int32";
  parser::AcceleratorDesc Accel = parseSingleAccelerator(
      Case.IsConv ? makeConvConfigJson(DataType)
                  : makeMatMulConfigJson(Case.Version, Case.AccelSize,
                                         Case.Flow, 0, 0, 0, DataType));

  transforms::LoweringOptions Options;
  Options.EnableCpuTiling = Case.CpuTiling;
  Options.Remainder = Case.Remainder;
  transforms::PassManager Pipeline = transforms::buildPipeline(
      std::vector<parser::AcceleratorDesc>{Accel}, Options);
  std::string Error;
  ASSERT_TRUE(succeeded(Pipeline.run(Func, Error))) << Error;

  // Every lowered function must compile to a plan the static verifier
  // accepts before any executor touches it: the fuzzer doubles as a
  // soundness sweep for src/analysis across the whole case space.
  {
    auto Plan = ExecPlan::compile(Func, Error);
    ASSERT_TRUE(Plan) << Error;
    analysis::VerifyResult Verified = analysis::verifyPlan(*Plan);
    EXPECT_TRUE(Verified.Errors.empty()) << Verified.toString();
  }

  // Pad-remainder drivers allocate staging buffers mid-run; see
  // expectIdenticalReport for the contract consequence.
  bool StableAddresses = true;
  Func.getOperation()->walk([&](Operation *Op) {
    if (Op->getName() == memref::AllocOp::OpName)
      StableAddresses = false;
  });

  auto Soc = Case.IsConv
                 ? sim::makeConvSoC(Case.Kind)
                 : sim::makeMatMulSoC(Case.Version, Case.AccelSize,
                                      Case.Kind);
  runtime::DmaRuntime Runtime(*Soc);

  std::vector<MemRefDesc> Args;
  if (Case.IsConv) {
    int64_t OutHW = (Case.InHW - Case.FilterHW) / Case.Stride + 1;
    Args.push_back(MemRefDesc::alloc(
        {1, Case.InC, Case.InHW, Case.InHW}, Case.Kind));
    Args.push_back(MemRefDesc::alloc(
        {Case.OutC, Case.InC, Case.FilterHW, Case.FilterHW}, Case.Kind));
    Args.push_back(
        MemRefDesc::alloc({1, Case.OutC, OutHW, OutHW}, Case.Kind));
  } else {
    Args.push_back(MemRefDesc::alloc({Case.M, Case.K}, Case.Kind));
    Args.push_back(MemRefDesc::alloc({Case.K, Case.N}, Case.Kind));
    Args.push_back(MemRefDesc::alloc({Case.M, Case.N}, Case.Kind));
  }

  // All executors share the SoC and buffers: the cache simulator keys on
  // real host addresses, so distinct allocations would legitimately
  // diverge. Bit-identical cache counters additionally require the host
  // heap itself to be in steady state when a driver allocates staging
  // buffers mid-run (pad remainders): plan compilation, the optimizer and
  // pre-decode churn the allocator, so each spec compiles and decodes its
  // plan first and is then measured as its own (walker warm-up, plan
  // warm-up, threaded warm-up, walker, plan, threaded) sextuple — the
  // warm-ups settle the allocator, and the measured runs are then
  // execution-only on the same heap.
  auto runOnce = [&](auto Execute) -> sim::PerfReport {
    for (size_t I = 0; I < Args.size(); ++I)
      fillRandom(Args[I], static_cast<uint32_t>(91 + I));
    Soc->resetCounters();
    std::string RunError;
    EXPECT_TRUE(succeeded(Execute(RunError))) << RunError;
    return Soc->report();
  };

  struct PassSpec {
    const char *Name;
    opt::PlanOptOptions Options;
  };
  std::vector<PassSpec> Specs;
  // Unoptimized plan first: the PR-3 bit-identical guarantee.
  Specs.push_back({"none", opt::PlanOptOptions::none()});
  {
    opt::PlanOptOptions O;
    O.Fold = true;
    Specs.push_back({"fold", O});
  }
  {
    opt::PlanOptOptions O;
    O.Dce = true;
    Specs.push_back({"dce", O});
  }
  {
    opt::PlanOptOptions O;
    O.Licm = true;
    Specs.push_back({"licm", O});
  }
  {
    opt::PlanOptOptions O;
    O.Coalesce = true;
    Specs.push_back({"coalesce", O});
  }
  Specs.push_back({"all", opt::PlanOptOptions::all()});
  // Re-verify the flat plan after every optimizer pass on every spec; a
  // rejected plan fails the case with the pass name and diagnostic.
  for (PassSpec &Spec : Specs)
    Spec.Options.VerifyEach = true;

  // Snapshot storage is allocated up front: allocating it between the two
  // measured runs would itself shift the heap under the staging buffers.
  std::vector<MemRefDesc> Expected;
  for (const MemRefDesc &Arg : Args)
    Expected.push_back(cloneMemRef(Arg));
  auto snapshotBuffers = [&]() {
    for (size_t I = 0; I < Args.size(); ++I)
      std::copy(Args[I].Buffer->Data.begin(), Args[I].Buffer->Data.end(),
                Expected[I].Buffer->Data.begin());
  };
  auto checkBuffers = [&](const std::string &Label) {
    SCOPED_TRACE(Label);
    for (size_t I = 0; I < Args.size(); ++I)
      EXPECT_TRUE(memrefEquals(Expected[I], Args[I]))
          << "buffer " << I << " diverged";
  };

  for (const PassSpec &Spec : Specs) {
    SCOPED_TRACE(Spec.Name);
    std::unique_ptr<ExecPlan> Plan = ExecPlan::compile(Func, Error);
    ASSERT_TRUE(Plan) << Error;
    opt::PlanOptStats Stats = opt::optimizePlan(*Plan, Spec.Options);
    ASSERT_TRUE(Stats.VerifyError.empty())
        << "after " << Stats.VerifyFailedPass << ": " << Stats.VerifyError;
    std::unique_ptr<DecodedPlan> Decoded = DecodedPlan::decode(*Plan);

    Interpreter WalkerInterp(*Soc, &Runtime, ExecMode::Walker);
    auto walker = [&](std::string &RunError) {
      return WalkerInterp.run(Func, Args, RunError);
    };
    auto plan = [&](std::string &RunError) {
      return Plan->run(*Soc, &Runtime, Args, RunError);
    };
    auto threaded = [&](std::string &RunError) {
      return Decoded->run(*Soc, &Runtime, Args, RunError);
    };
    runOnce(walker);
    runOnce(plan);
    runOnce(threaded);
    sim::PerfReport Walker = runOnce(walker);
    snapshotBuffers();
    sim::PerfReport Optimized = runOnce(plan);
    checkBuffers(Spec.Name);
    // Third column: the threaded engine executes the SAME optimized plan
    // pre-decoded; its buffers and counters must match the plan
    // interpreter bit for bit on every case, optimized or not.
    snapshotBuffers();
    sim::PerfReport Threaded = runOnce(threaded);
    checkBuffers(std::string(Spec.Name) + " threaded");
    expectIdenticalReport(Optimized, Threaded,
                          std::string(Spec.Name) + " threaded-vs-plan",
                          StableAddresses);

    if (Stats.changedCounters())
      expectImprovedReport(Walker, Optimized, Stats, Spec.Name);
    else
      expectIdenticalReport(Walker, Optimized, Spec.Name, StableAddresses);
    if (std::string(Spec.Name) == "none") {
      EXPECT_EQ(Stats.total(), 0u);
    }
    // fold rewrites operand references only: never a counter change.
    if (std::string(Spec.Name) == "fold") {
      EXPECT_FALSE(Stats.changedCounters());
    }
  }
}

//===----------------------------------------------------------------------===//
// Deterministic coverage: v1-v4, all flows, f32+i32, pad/peel partials,
// conv (the acceptance list).
//===----------------------------------------------------------------------===//

FuzzCase matmulCase(V Version, int64_t Size, const std::string &Flow,
                    int64_t M, int64_t N, int64_t K) {
  FuzzCase Case;
  Case.Version = Version;
  Case.AccelSize = Size;
  Case.Flow = Flow;
  Case.M = M;
  Case.N = N;
  Case.K = K;
  return Case;
}

TEST(PlanEquivalenceFuzz, MatMulV1) {
  checkCase(matmulCase(V::V1, 4, "Ns", 8, 8, 8));
}

TEST(PlanEquivalenceFuzz, MatMulV1PartialPad) {
  checkCase(matmulCase(V::V1, 4, "Ns", 10, 6, 9));
}

TEST(PlanEquivalenceFuzz, MatMulV2FlowAs) {
  checkCase(matmulCase(V::V2, 4, "As", 12, 8, 8));
}

TEST(PlanEquivalenceFuzz, MatMulV2FlowBs) {
  checkCase(matmulCase(V::V2, 4, "Bs", 8, 12, 8));
}

TEST(PlanEquivalenceFuzz, MatMulV3FlowNs) {
  checkCase(matmulCase(V::V3, 8, "Ns", 16, 16, 16));
}

TEST(PlanEquivalenceFuzz, MatMulV3FlowAsPartialPad) {
  checkCase(matmulCase(V::V3, 8, "As", 18, 10, 14));
}

TEST(PlanEquivalenceFuzz, MatMulV3FlowAsPartialPeel) {
  FuzzCase Case = matmulCase(V::V3, 8, "As", 18, 10, 14);
  Case.Remainder = transforms::RemainderMode::Peel;
  checkCase(Case);
}

TEST(PlanEquivalenceFuzz, MatMulV3FlowBs) {
  checkCase(matmulCase(V::V3, 8, "Bs", 8, 24, 16));
}

TEST(PlanEquivalenceFuzz, MatMulV3FlowCs) {
  checkCase(matmulCase(V::V3, 8, "Cs", 16, 8, 24));
}

TEST(PlanEquivalenceFuzz, MatMulV3F32) {
  FuzzCase Case = matmulCase(V::V3, 8, "Ns", 16, 16, 8);
  Case.Kind = sim::ElemKind::F32;
  checkCase(Case);
}

/// v4's init block (reset + cfg) is two adjacent constant-range send
/// groups: the relocation merge must fire on every v4 driver.
TEST(PlanEquivalenceFuzz, MatMulV4InitMerge) {
  checkCase(matmulCase(V::V4, 8, "Ns", 16, 16, 16));
}

TEST(PlanEquivalenceFuzz, MatMulV4CpuTiling) {
  FuzzCase Case = matmulCase(V::V4, 8, "As", 16, 16, 16);
  Case.CpuTiling = true;
  checkCase(Case);
}

TEST(PlanEquivalenceFuzz, Conv) {
  FuzzCase Case;
  Case.IsConv = true;
  Case.InC = 3;
  Case.InHW = 9;
  Case.OutC = 2;
  Case.FilterHW = 3;
  Case.Stride = 2;
  checkCase(Case);
}

TEST(PlanEquivalenceFuzz, ConvStride1F32) {
  FuzzCase Case;
  Case.IsConv = true;
  Case.InC = 4;
  Case.InHW = 8;
  Case.OutC = 4;
  Case.FilterHW = 3;
  Case.Stride = 1;
  Case.Kind = sim::ElemKind::F32;
  checkCase(Case);
}

//===----------------------------------------------------------------------===//
// Seeded random sweep
//===----------------------------------------------------------------------===//

FuzzCase randomCase(std::mt19937 &Rng) {
  auto pick = [&](int Lo, int Hi) {
    return std::uniform_int_distribution<int>(Lo, Hi)(Rng);
  };
  FuzzCase Case;
  if (pick(0, 4) == 0) {
    Case.IsConv = true;
    Case.FilterHW = pick(2, 3);
    Case.Stride = pick(1, 2);
    Case.InHW = Case.FilterHW + Case.Stride * pick(2, 5);
    Case.InC = pick(2, 5);
    Case.OutC = pick(1, 4);
    Case.Kind = pick(0, 3) == 0 ? sim::ElemKind::F32 : sim::ElemKind::I32;
    return Case;
  }
  switch (pick(1, 4)) {
  case 1:
    Case.Version = V::V1;
    Case.Flow = "Ns";
    break;
  case 2:
    Case.Version = V::V2;
    Case.Flow = std::vector<std::string>{"Ns", "As", "Bs"}[pick(0, 2)];
    break;
  case 3:
    Case.Version = V::V3;
    Case.Flow =
        std::vector<std::string>{"Ns", "As", "Bs", "Cs"}[pick(0, 3)];
    break;
  default:
    Case.Version = V::V4;
    Case.Flow =
        std::vector<std::string>{"Ns", "As", "Bs", "Cs"}[pick(0, 3)];
    break;
  }
  Case.AccelSize = pick(0, 1) ? 4 : 8;
  auto dim = [&]() {
    int64_t Extent = Case.AccelSize * pick(1, 3);
    if (pick(0, 2) == 0) // one in three: partial tile
      Extent += pick(1, static_cast<int>(Case.AccelSize) - 1);
    return Extent;
  };
  Case.M = dim();
  Case.N = dim();
  Case.K = dim();
  Case.Kind = pick(0, 3) == 0 ? sim::ElemKind::F32 : sim::ElemKind::I32;
  Case.CpuTiling = pick(0, 3) == 0;
  Case.Remainder = pick(0, 2) == 0 ? transforms::RemainderMode::Peel
                                   : transforms::RemainderMode::Pad;
  return Case;
}

TEST(PlanEquivalenceFuzz, RandomSweep) {
  uint32_t Seed = 1;
  int Cases = 8;
  if (const char *Env = std::getenv("AXI4MLIR_FUZZ_SEED"))
    Seed = static_cast<uint32_t>(std::strtoul(Env, nullptr, 10));
  if (const char *Env = std::getenv("AXI4MLIR_FUZZ_CASES"))
    Cases = static_cast<int>(std::strtol(Env, nullptr, 10));
  std::mt19937 Rng(Seed);
  for (int I = 0; I < Cases; ++I) {
    FuzzCase Case = randomCase(Rng);
    SCOPED_TRACE("seed " + std::to_string(Seed) + " case " +
                 std::to_string(I));
    checkCase(Case);
    if (::testing::Test::HasFailure()) {
      ADD_FAILURE() << "stopping after first failing case: "
                    << Case.describe();
      return;
    }
  }
}

} // namespace
