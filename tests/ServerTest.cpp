//===- ServerTest.cpp - Serve-layer robustness pins -----------------------===//
//
// Part of the AXI4MLIR reproduction. MIT licensed.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Pins the axi4mlir-serve robustness policies:
///  * admission control / backpressure (Overloaded, never blocking),
///  * deadline enforcement at admission and via the retry watchdog,
///  * circuit breaker state machine (Closed -> Open -> HalfOpen -> Closed),
///  * retry-with-failover and host-CPU fallback,
///  * the differential robustness pin: under a seeded fault schedule that
///    trips a breaker, every *admitted* job completes with buffers
///    bit-identical to its fault-free solo run, across 2/4/8-instance
///    pools, and shed jobs carry structured statuses,
///  * the shared plan cache's LRU bounds,
///  * a multi-threaded stress (the CI ThreadSanitizer target).
///
//===----------------------------------------------------------------------===//

#include "serve/Server.h"

#include "exec/AccelConfigs.h"
#include "serve/PlanCache.h"

#include <gtest/gtest.h>

#include <map>
#include <set>

using namespace axi4mlir;
using namespace axi4mlir::serve;

namespace {

parser::AcceleratorDesc matmulAccel(int64_t Size) {
  return exec::parseSingleAccelerator(exec::makeMatMulConfigJson(
      sim::MatMulAccelerator::Version::V3, Size, "As"));
}

parser::AcceleratorDesc convAccel() {
  return exec::parseSingleAccelerator(exec::makeConvConfigJson());
}

JobRequest matmulJob(int64_t M, int64_t N, int64_t K, uint32_t Seed) {
  JobRequest Request;
  Request.Kind = JobKind::MatMul;
  Request.M = M;
  Request.N = N;
  Request.K = K;
  Request.Seed = Seed;
  return Request;
}

JobRequest convJob(int64_t InHW, uint32_t Seed) {
  JobRequest Request;
  Request.Kind = JobKind::Conv2D;
  Request.InChannels = 8;
  Request.InHW = InHW;
  Request.OutChannels = 8;
  Request.FilterHW = 3;
  Request.Stride = 1;
  Request.Seed = Seed;
  return Request;
}

/// A schedule whose faults are terminal: recovery is disabled, so every
/// affected attempt fails with a structured AccelStatus error.
sim::FaultPlan brownoutPlan() {
  sim::FaultPlan Plan;
  sim::FaultEvent Event;
  Event.Kind = sim::FaultKind::TransientError;
  Event.At = 1;
  Plan.Events.push_back(Event);
  Plan.Recovery.Enabled = false;
  return Plan;
}

ServerOptions deterministicOptions() {
  ServerOptions Options;
  Options.Threads = 0;
  return Options;
}

std::map<JobStatus, unsigned> countByStatus(
    const std::vector<JobOutcome> &Outcomes) {
  std::map<JobStatus, unsigned> Counts;
  for (const JobOutcome &Out : Outcomes)
    ++Counts[Out.Status];
  return Counts;
}

//===----------------------------------------------------------------------===//
// PlanCache
//===----------------------------------------------------------------------===//

TEST(PlanCacheTest, LruBoundsAndCounters) {
  PlanCache Cache(2);
  auto kernel = [] { return std::make_shared<const CompiledKernel>(); };
  EXPECT_EQ(Cache.lookup("a"), nullptr); // miss
  Cache.insert("a", kernel());
  Cache.insert("b", kernel());
  EXPECT_NE(Cache.lookup("a"), nullptr); // hit, refreshes "a"
  Cache.insert("c", kernel());           // evicts LRU "b"
  EXPECT_EQ(Cache.lookup("b"), nullptr);
  EXPECT_NE(Cache.lookup("a"), nullptr);
  EXPECT_NE(Cache.lookup("c"), nullptr);
  PlanCache::Stats Stats = Cache.stats();
  EXPECT_EQ(Stats.Hits, 3u);
  EXPECT_EQ(Stats.Misses, 2u);
  EXPECT_EQ(Stats.Evictions, 1u);
  EXPECT_EQ(Cache.size(), 2u);
}

TEST(PlanCacheTest, EvictionKeepsInFlightEntriesAlive) {
  PlanCache Cache(1);
  Cache.insert("a", std::make_shared<const CompiledKernel>());
  std::shared_ptr<const CompiledKernel> Held = Cache.lookup("a");
  Cache.insert("b", std::make_shared<const CompiledKernel>()); // evicts "a"
  EXPECT_EQ(Cache.lookup("a"), nullptr);
  EXPECT_NE(Held, nullptr); // the in-flight reference survives eviction
}

//===----------------------------------------------------------------------===//
// Options from a parsed config
//===----------------------------------------------------------------------===//

/// The last cache level becomes the modeled L2; one that cannot hold a
/// single set is refused before any SoC is built from it.
TEST(ServerTest, MakeServerOptionsRejectsL2SmallerThanOneSet) {
  parser::SystemConfig Config;
  sim::SoCParams Defaults;
  const int64_t SetBytes = Defaults.L2Associativity * Defaults.CacheLineBytes;
  Config.Cpu.CacheLevelBytes = {32 * 1024, SetBytes - 1};
  std::string Error;
  EXPECT_TRUE(failed(makeServerOptions(Config, &Error)));
  EXPECT_NE(Error.find("'cpu.cache-levels'"), std::string::npos) << Error;

  Config.Cpu.CacheLevelBytes = {32 * 1024, SetBytes};
  auto Options = makeServerOptions(Config, &Error);
  ASSERT_TRUE(succeeded(Options));
  EXPECT_EQ(Options->Params.L2SizeBytes, SetBytes);
}

//===----------------------------------------------------------------------===//
// Admission control and shedding
//===----------------------------------------------------------------------===//

TEST(ServerTest, QueueOverflowShedsOverloaded) {
  ServerOptions Options = deterministicOptions();
  Options.Instances = 1;
  Options.QueueDepth = 2;
  Server S({matmulAccel(4)}, Options);
  for (unsigned I = 0; I < 4; ++I)
    S.submit(matmulJob(8, 8, 8, 7 + I));
  S.drain();
  std::vector<JobOutcome> Outcomes = S.takeOutcomes();
  ASSERT_EQ(Outcomes.size(), 4u);
  auto Counts = countByStatus(Outcomes);
  EXPECT_EQ(Counts[JobStatus::Completed], 2u);
  EXPECT_EQ(Counts[JobStatus::Overloaded], 2u);
  // Shed jobs never executed and carry a structured diagnostic.
  for (const JobOutcome &Out : Outcomes)
    if (Out.Status == JobStatus::Overloaded) {
      EXPECT_EQ(Out.Attempts, 0u);
      EXPECT_NE(Out.Error.find("queue full"), std::string::npos);
    }
  ServerStats Stats = S.stats();
  EXPECT_EQ(Stats.Submitted, 4u);
  EXPECT_EQ(Stats.Admitted, 2u);
  EXPECT_EQ(Stats.Overloaded, 2u);
}

TEST(ServerTest, DrainingServerRejectsNewJobs) {
  Server S({matmulAccel(4)}, deterministicOptions());
  S.shutdown();
  S.submit(matmulJob(8, 8, 8, 7));
  std::vector<JobOutcome> Outcomes = S.takeOutcomes();
  ASSERT_EQ(Outcomes.size(), 1u);
  EXPECT_EQ(Outcomes[0].Status, JobStatus::Rejected);
  EXPECT_NE(Outcomes[0].Error.find("draining"), std::string::npos);
}

TEST(ServerTest, InvalidShapeRejected) {
  Server S({matmulAccel(4)}, deterministicOptions());
  S.submit(matmulJob(0, 8, 8, 7));
  std::vector<JobOutcome> Outcomes = S.takeOutcomes();
  ASSERT_EQ(Outcomes.size(), 1u);
  EXPECT_EQ(Outcomes[0].Status, JobStatus::Rejected);
}

TEST(ServerTest, UnsupportedKernelWithoutFallbackRejected) {
  ServerOptions Options = deterministicOptions();
  Options.CpuFallback = false;
  Server S({matmulAccel(4)}, Options);
  S.submit(convJob(10, 7));
  std::vector<JobOutcome> Outcomes = S.takeOutcomes();
  ASSERT_EQ(Outcomes.size(), 1u);
  EXPECT_EQ(Outcomes[0].Status, JobStatus::Rejected);
  EXPECT_NE(Outcomes[0].Error.find("no configured instance"),
            std::string::npos);
}

TEST(ServerTest, InfeasibleDeadlineShedsAtAdmission) {
  Server S({matmulAccel(4)}, deterministicOptions());
  JobRequest Request = matmulJob(64, 64, 64, 7);
  Request.DeadlineMs = 1e-6; // far below any modeled cost
  S.submit(Request);
  S.drain();
  std::vector<JobOutcome> Outcomes = S.takeOutcomes();
  ASSERT_EQ(Outcomes.size(), 1u);
  EXPECT_EQ(Outcomes[0].Status, JobStatus::DeadlineExceeded);
  EXPECT_EQ(Outcomes[0].Attempts, 0u);
  EXPECT_NE(Outcomes[0].Error.find("infeasible"), std::string::npos);
}

TEST(ServerTest, GenerousDeadlineCompletes) {
  Server S({matmulAccel(4)}, deterministicOptions());
  JobRequest Request = matmulJob(16, 16, 16, 7);
  Request.DeadlineMs = 1e9;
  S.submit(Request);
  S.drain();
  std::vector<JobOutcome> Outcomes = S.takeOutcomes();
  ASSERT_EQ(Outcomes.size(), 1u);
  EXPECT_EQ(Outcomes[0].Status, JobStatus::Completed);
  EXPECT_GT(Outcomes[0].ModeledMs, 0);
}

//===----------------------------------------------------------------------===//
// Circuit breaker state machine
//===----------------------------------------------------------------------===//

TEST(ServerTest, BreakerTripsFailsOverAndRecovers) {
  ServerOptions Options = deterministicOptions();
  Options.Instances = 2;
  Options.BreakerThreshold = 2;
  Options.BreakerCooldown = 2;
  Options.MaxAttempts = 2;
  // Two identical engines; routing prefers instance 0 (tie to earlier).
  Server S({matmulAccel(4), matmulAccel(4)}, Options);
  // Instance 0 browns out for its first 2 attempts, then heals.
  InstanceFaults Faults;
  Faults.Plan = brownoutPlan();
  Faults.JobsAffected = 2;
  S.setInstanceFaults(0, Faults);

  // Jobs 1 and 2: first attempt fails on instance 0, retry fails over to
  // instance 1 and completes. The second failure trips the breaker.
  for (unsigned I = 0; I < 2; ++I) {
    S.submit(matmulJob(8, 8, 8, 7 + I));
    S.drain();
  }
  EXPECT_EQ(S.breakerState(0), BreakerState::Open);
  EXPECT_EQ(S.breakerState(1), BreakerState::Closed);

  // Cooldown: the next 2 routing decisions skip instance 0 entirely.
  for (unsigned I = 0; I < 2; ++I) {
    S.submit(matmulJob(8, 8, 8, 20 + I));
    S.drain();
  }
  std::vector<JobOutcome> During = S.takeOutcomes();
  for (const JobOutcome &Out : During) {
    if (Out.Status == JobStatus::Completed && Out.Attempts == 1) {
      EXPECT_EQ(Out.Instance, 1);
    }
  }

  // Cooldown elapsed: the next job is the half-open probe on instance 0.
  // Its fault window (2 attempts) is spent, so the probe succeeds and the
  // breaker closes.
  S.submit(matmulJob(8, 8, 8, 40));
  S.drain();
  EXPECT_EQ(S.breakerState(0), BreakerState::Closed);
  std::vector<JobOutcome> Probe = S.takeOutcomes();
  ASSERT_EQ(Probe.size(), 1u);
  EXPECT_EQ(Probe[0].Status, JobStatus::Completed);
  EXPECT_EQ(Probe[0].Instance, 0);

  ServerStats Stats = S.stats();
  EXPECT_EQ(Stats.BreakerTrips, 1u);
  EXPECT_GE(Stats.Failovers, 2u);
  EXPECT_EQ(Stats.Failed, 0u);
}

TEST(ServerTest, FailedProbeReopensBreaker) {
  ServerOptions Options = deterministicOptions();
  Options.Instances = 2;
  Options.BreakerThreshold = 1;
  Options.BreakerCooldown = 1;
  Options.MaxAttempts = 2;
  Server S({matmulAccel(4), matmulAccel(4)}, Options);
  InstanceFaults Faults;
  Faults.Plan = brownoutPlan();
  Faults.JobsAffected = 0; // permanently faulty
  S.setInstanceFaults(0, Faults);

  S.submit(matmulJob(8, 8, 8, 7)); // trips the breaker (threshold 1)
  S.drain();
  EXPECT_EQ(S.breakerState(0), BreakerState::Open);
  S.submit(matmulJob(8, 8, 8, 8)); // cooldown tick, runs on instance 1
  S.drain();
  S.submit(matmulJob(8, 8, 8, 9)); // half-open probe fails -> re-opens
  S.drain();
  EXPECT_EQ(S.breakerState(0), BreakerState::Open);
  // Every job still completed (failover or instance 1 directly).
  for (const JobOutcome &Out : S.takeOutcomes())
    EXPECT_EQ(Out.Status, JobStatus::Completed);
}

//===----------------------------------------------------------------------===//
// CPU fallback
//===----------------------------------------------------------------------===//

TEST(ServerTest, CpuFallbackCompletesBitIdentical) {
  ServerOptions Options = deterministicOptions();
  Options.Instances = 1;
  Options.BreakerThreshold = 1;
  Options.MaxAttempts = 2;
  std::vector<parser::AcceleratorDesc> Accels = {matmulAccel(8)};
  Server S(Accels, Options);
  InstanceFaults Faults;
  Faults.Plan = brownoutPlan();
  Faults.JobsAffected = 0;
  S.setInstanceFaults(0, Faults);

  JobRequest Request = matmulJob(16, 16, 16, 7);
  S.submit(Request);
  S.drain();
  std::vector<JobOutcome> Outcomes = S.takeOutcomes();
  ASSERT_EQ(Outcomes.size(), 1u);
  ASSERT_EQ(Outcomes[0].Status, JobStatus::Completed);
  EXPECT_TRUE(Outcomes[0].CpuFallback);
  EXPECT_EQ(Outcomes[0].Instance, -1);

  // The CPU result is bit-identical to the fault-free accelerator run:
  // fillRandom data is exact in both i32 and f32 arithmetic.
  JobOutcome Solo = runSoloJob(Request, Accels, Options);
  ASSERT_EQ(Solo.Status, JobStatus::Completed);
  EXPECT_FALSE(Solo.CpuFallback);
  EXPECT_EQ(Outcomes[0].Checksum, Solo.Checksum);
  EXPECT_EQ(S.stats().CpuFallbacks, 1u);
}

TEST(ServerTest, FallbackDisabledEndsInStructuredFailure) {
  ServerOptions Options = deterministicOptions();
  Options.Instances = 1;
  Options.BreakerThreshold = 10; // keep the breaker out of the picture
  Options.MaxAttempts = 2;
  Options.CpuFallback = false;
  Server S({matmulAccel(8)}, Options);
  InstanceFaults Faults;
  Faults.Plan = brownoutPlan();
  Faults.JobsAffected = 0;
  S.setInstanceFaults(0, Faults);
  S.submit(matmulJob(16, 16, 16, 7));
  S.drain();
  std::vector<JobOutcome> Outcomes = S.takeOutcomes();
  ASSERT_EQ(Outcomes.size(), 1u);
  EXPECT_EQ(Outcomes[0].Status, JobStatus::Failed);
  EXPECT_EQ(Outcomes[0].Attempts, 2u);
  EXPECT_NE(Outcomes[0].Error.find("retries exhausted"), std::string::npos);
}

//===----------------------------------------------------------------------===//
// The differential robustness pin (the PR's acceptance criterion)
//===----------------------------------------------------------------------===//

/// Runs a mixed matmul+conv stream through a pool with one browned-out
/// instance (terminal faults, breaker trips) and checks that every
/// admitted job completes with buffers bit-identical to its fault-free
/// solo run, while shed jobs carry structured statuses. No job may hang:
/// drain() returning at all (with every outcome terminal) pins that.
void runDifferentialPin(unsigned PoolSize) {
  SCOPED_TRACE("pool size " + std::to_string(PoolSize));
  std::vector<parser::AcceleratorDesc> Accels;
  // Heterogeneous pool: alternate small/large matmul engines plus a conv
  // engine so routing has real cost differences and mixed traffic.
  Accels.push_back(matmulAccel(4));
  if (PoolSize >= 2)
    Accels.push_back(matmulAccel(16));
  if (PoolSize >= 3)
    Accels.push_back(convAccel());

  ServerOptions Options = deterministicOptions();
  Options.Instances = PoolSize;
  Options.QueueDepth = 64;
  Options.BreakerThreshold = 2;
  Options.BreakerCooldown = 2;
  Options.MaxAttempts = 3;
  // Calibrate: find the instance routing prefers for the recurring small
  // matmul shape, so the brown-out lands on an instance that actually
  // takes first-attempt traffic (cost-model routing picks the cheapest
  // engine, which depends on the pool's composition).
  unsigned FaultyIndex = 0;
  {
    Server Probe(Accels, Options);
    Probe.submit(matmulJob(8, 16, 8, 99));
    Probe.drain();
    std::vector<JobOutcome> ProbeOut = Probe.takeOutcomes();
    ASSERT_EQ(ProbeOut.size(), 1u);
    ASSERT_EQ(ProbeOut[0].Status, JobStatus::Completed);
    ASSERT_GE(ProbeOut[0].Instance, 0);
    FaultyIndex = static_cast<unsigned>(ProbeOut[0].Instance);
  }

  Server S(Accels, Options);

  // The preferred engine browns out for its first 3 attempts: enough
  // consecutive failures to trip the breaker, then heals so the half-open
  // probe can close it again.
  InstanceFaults Faults;
  Faults.Plan = brownoutPlan();
  Faults.JobsAffected = 3;
  S.setInstanceFaults(FaultyIndex, Faults);

  std::vector<JobRequest> Requests;
  for (unsigned I = 0; I < 12; ++I) {
    if (PoolSize >= 3 && I % 3 == 2)
      Requests.push_back(convJob(10 + 4 * (I % 2), 100 + I));
    else
      Requests.push_back(matmulJob(8 + 8 * (I % 3), 16, 8, 100 + I));
  }
  std::map<uint64_t, const JobRequest *> ById;
  for (const JobRequest &Request : Requests)
    ById[S.submit(Request)] = &Request;
  S.drain();

  std::vector<JobOutcome> Outcomes = S.takeOutcomes();
  ASSERT_EQ(Outcomes.size(), Requests.size());
  unsigned Completed = 0;
  for (const JobOutcome &Out : Outcomes) {
    // Terminal, structured statuses only — nothing hangs or vanishes.
    switch (Out.Status) {
    case JobStatus::Completed: {
      ++Completed;
      const JobRequest *Request = ById[Out.Id];
      ASSERT_NE(Request, nullptr);
      JobOutcome Solo = runSoloJob(*Request, Accels, Options);
      ASSERT_EQ(Solo.Status, JobStatus::Completed);
      // Bit-identical output regardless of instance, failover path or
      // CPU fallback.
      EXPECT_EQ(Out.Checksum, Solo.Checksum)
          << "job " << Out.Id << " diverged (instance " << Out.Instance
          << ", cpu=" << Out.CpuFallback << ")";
      break;
    }
    case JobStatus::Overloaded:
    case JobStatus::DeadlineExceeded:
    case JobStatus::Rejected:
      EXPECT_FALSE(Out.Error.empty());
      break;
    case JobStatus::Failed:
      ADD_FAILURE() << "job " << Out.Id << " failed: " << Out.Error;
      break;
    }
  }
  // Everything was admitted (queue depth 64) and must have completed.
  EXPECT_EQ(Completed, Requests.size());
  EXPECT_GE(S.stats().BreakerTrips, 1u);
}

TEST(ServerTest, DifferentialPinPool2) { runDifferentialPin(2); }
TEST(ServerTest, DifferentialPinPool4) { runDifferentialPin(4); }
TEST(ServerTest, DifferentialPinPool8) { runDifferentialPin(8); }

//===----------------------------------------------------------------------===//
// Multi-threaded stress (runs under ThreadSanitizer in CI)
//===----------------------------------------------------------------------===//

TEST(ServerTest, ThreadedStressKeepsEveryJobAccounted) {
  std::vector<parser::AcceleratorDesc> Accels = {matmulAccel(4),
                                                 matmulAccel(16), convAccel()};
  ServerOptions Options;
  Options.Instances = 4;
  Options.Threads = 4;
  Options.QueueDepth = 64;
  Options.BreakerThreshold = 2;
  Options.BreakerCooldown = 2;
  Options.MaxAttempts = 3;
  Server S(Accels, Options);
  InstanceFaults Faults;
  Faults.Plan = brownoutPlan();
  Faults.JobsAffected = 3;
  S.setInstanceFaults(0, Faults);

  std::map<uint64_t, JobRequest> ById;
  const unsigned Jobs = 24;
  for (unsigned I = 0; I < Jobs; ++I) {
    JobRequest Request = I % 3 == 2 ? convJob(10, 200 + I)
                                    : matmulJob(8 + 8 * (I % 2), 8, 8,
                                                200 + I);
    ById[S.submit(Request)] = Request;
  }
  S.drain();
  S.shutdown();

  std::vector<JobOutcome> Outcomes = S.takeOutcomes();
  ASSERT_EQ(Outcomes.size(), size_t(Jobs));
  std::set<uint64_t> Ids;
  ServerOptions SoloOptions = Options;
  SoloOptions.Threads = 0;
  for (const JobOutcome &Out : Outcomes) {
    EXPECT_TRUE(Ids.insert(Out.Id).second);
    ASSERT_NE(Out.Status, JobStatus::Failed) << Out.Error;
    if (Out.Status != JobStatus::Completed)
      continue;
    JobOutcome Solo = runSoloJob(ById[Out.Id], Accels, SoloOptions);
    ASSERT_EQ(Solo.Status, JobStatus::Completed);
    EXPECT_EQ(Out.Checksum, Solo.Checksum) << "job " << Out.Id;
  }
  ServerStats Stats = S.stats();
  EXPECT_EQ(Stats.Submitted, uint64_t(Jobs));
  EXPECT_EQ(Stats.Completed + Stats.Overloaded + Stats.DeadlineExceeded +
                Stats.Rejected + Stats.Failed,
            uint64_t(Jobs));
}

} // namespace
