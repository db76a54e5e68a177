//===- ConfigParserTest.cpp - Configuration file parsing tests ------------===//
//
// Part of the AXI4MLIR reproduction. MIT licensed.
//
//===----------------------------------------------------------------------===//

#include "exec/AccelConfigs.h"
#include "parser/ConfigParser.h"

#include <gtest/gtest.h>

using namespace axi4mlir;
using namespace axi4mlir::parser;
using V = sim::MatMulAccelerator::Version;

namespace {

/// A hand-written config in the exact spirit of paper Fig. 5.
const char *Fig5Config = R"json({
  "cpu" = { "cache-levels": [32K, 512K],
            "cache-types": [data, shared] },
  "accelerators" = [
    { "name": "MM_4x4x4", "version": 1.2, "description": "tile matmul",
      "dma_config": { "id": 0x0, "inputAddress": 0x42,
                      "inputBufferSize": 0xFF00, "outputAddress": 0xFF42,
                      "outputBufferSize": 0xFF00 },
      "kernel": "linalg.matmul",
      "accel_size": [4, 4, 4], "data_type": int32,
      "dims": ["m", "n", "k"],
      "data": { "A": [m, k], "B": [k, n], "C": [m, n] },
      "opcode_map": "opcode_map< sA = [send_literal(0x22), send(0)],
                                 sB = [send_literal(0x23), send(1)],
                                 sBcCrC = [send_literal(0x25), send(1), recv(2)],
                                 reset = [send_literal(0xFF)] >",
      "opcode_flow_map": { "flowID01": "(sA (sBcCrC))",
                           "flowNs": "(sA sBcCrC)" },
      "selected_flow": "flowID01",
      "init_opcodes": "(reset)" }]
})json";

TEST(ConfigParser, ParsesFig5StyleConfig) {
  std::string Error;
  auto Config = parseSystemConfig(Fig5Config, &Error);
  ASSERT_TRUE(succeeded(Config)) << Error;

  EXPECT_EQ(Config->Cpu.CacheLevelBytes,
            (std::vector<int64_t>{32 * 1024, 512 * 1024}));
  EXPECT_EQ(Config->Cpu.lastLevelCacheBytes(), 512 * 1024);
  EXPECT_EQ(Config->Cpu.CacheTypes[1], "shared");

  ASSERT_EQ(Config->Accelerators.size(), 1u);
  const AcceleratorDesc &Accel = Config->Accelerators[0];
  EXPECT_EQ(Accel.Name, "MM_4x4x4");
  EXPECT_EQ(Accel.Kernel, "linalg.matmul");
  EXPECT_EQ(Accel.DataType, "int32");
  EXPECT_EQ(Accel.AccelSize, (std::vector<int64_t>{4, 4, 4}));
  EXPECT_EQ(Accel.Dims, (std::vector<std::string>{"m", "n", "k"}));
  EXPECT_EQ(Accel.DmaConfig.InputAddress, 0x42);
  EXPECT_EQ(Accel.DmaConfig.InputBufferSize, 0xFF00);
  EXPECT_EQ(Accel.Data.size(), 3u);
  EXPECT_EQ(Accel.Data[0].first, "A");
  EXPECT_EQ(Accel.Data[0].second, (std::vector<std::string>{"m", "k"}));

  EXPECT_NE(Accel.OpcodeMap.lookup("sBcCrC"), nullptr);
  EXPECT_EQ(Accel.FlowMap.size(), 2u);
  EXPECT_EQ(Accel.SelectedFlow, "flowID01");
  ASSERT_NE(Accel.selectedFlow(), nullptr);
  EXPECT_EQ(Accel.selectedFlow()->Root.depth(), 2u);
  ASSERT_TRUE(Accel.InitOpcodes.has_value());
  EXPECT_EQ(Accel.InitOpcodes->allTokens(),
            (std::vector<std::string>{"reset"}));
  EXPECT_EQ(Config->findByKernel("linalg.matmul"), &Accel);
  EXPECT_EQ(Config->findByKernel("linalg.conv_2d_nchw_fchw"), nullptr);
}

TEST(ConfigParser, ScalarAccelSizeBroadcasts) {
  auto Config = parseSystemConfig(R"json({
    "accelerators": [{ "name": "a", "kernel": "linalg.matmul",
      "accel_size": 8,
      "opcode_map": "t = [send_literal(1), send(0), recv(2)]",
      "opcode_flow_map": { "Ns": "(t)" } }]
  })json");
  ASSERT_TRUE(succeeded(Config));
  EXPECT_EQ(Config->Accelerators[0].AccelSize,
            (std::vector<int64_t>{8, 8, 8}));
  // selected_flow defaults to the first entry.
  EXPECT_EQ(Config->Accelerators[0].SelectedFlow, "Ns");
}

TEST(ConfigParser, ExplicitPermutationByName) {
  auto Config = parseSystemConfig(R"json({
    "accelerators": [{ "name": "a", "kernel": "linalg.matmul",
      "accel_size": [4, 4, 4], "dims": [m, n, k],
      "opcode_map": "t = [send_literal(1), send(0), recv(2)]",
      "opcode_flow_map": { "Ns": "(t)" },
      "permutation": [m, k, n] }]
  })json");
  ASSERT_TRUE(succeeded(Config));
  ASSERT_TRUE(Config->Accelerators[0].Permutation.has_value());
  EXPECT_EQ(*Config->Accelerators[0].Permutation,
            (std::vector<unsigned>{0, 2, 1}));
}

TEST(ConfigParser, Diagnostics) {
  std::string Error;
  // Missing kernel.
  EXPECT_TRUE(failed(parseSystemConfig(
      R"json({"accelerators": [{"name": "x", "accel_size": 4,
           "opcode_map": "t = [send(0)]",
           "opcode_flow_map": {"Ns": "(t)"}}]})json",
      &Error)));
  EXPECT_NE(Error.find("kernel"), std::string::npos);

  // Flow referencing an unknown opcode.
  Error.clear();
  EXPECT_TRUE(failed(parseSystemConfig(
      R"json({"accelerators": [{"name": "x", "kernel": "linalg.matmul",
           "accel_size": 4, "opcode_map": "t = [send(0)]",
           "opcode_flow_map": {"Ns": "(bogus)"}}]})json",
      &Error)));
  EXPECT_NE(Error.find("bogus"), std::string::npos);

  // selected_flow that does not exist.
  Error.clear();
  EXPECT_TRUE(failed(parseSystemConfig(
      R"json({"accelerators": [{"name": "x", "kernel": "linalg.matmul",
           "accel_size": 4, "opcode_map": "t = [send(0)]",
           "opcode_flow_map": {"Ns": "(t)"}, "selected_flow": "Xs"}]})json",
      &Error)));
  EXPECT_NE(Error.find("Xs"), std::string::npos);

  // No accelerators at all.
  Error.clear();
  EXPECT_TRUE(failed(parseSystemConfig(R"json({"accelerators": []})json", &Error)));

  // Not JSON.
  Error.clear();
  EXPECT_TRUE(failed(parseSystemConfig("12, 13", &Error)));
}

TEST(ConfigParser, TwoAcceleratorEntriesBothValidated) {
  // Both entries parse and survive into the dispatch candidate list.
  auto Config = parseSystemConfig(R"json({
    "accelerators": [
      { "name": "small", "kernel": "linalg.matmul", "accel_size": [4, 4, 4],
        "opcode_map": "t = [send_literal(1), send(0), recv(2)]",
        "opcode_flow_map": { "Ns": "(t)" } },
      { "name": "large", "kernel": "linalg.matmul", "accel_size": [16, 16, 16],
        "opcode_map": "t = [send_literal(1), send(0), recv(2)]",
        "opcode_flow_map": { "Ns": "(t)" } }]
  })json");
  ASSERT_TRUE(succeeded(Config));
  ASSERT_EQ(Config->Accelerators.size(), 2u);
  EXPECT_EQ(Config->Accelerators[0].Name, "small");
  EXPECT_EQ(Config->Accelerators[1].Name, "large");
}

TEST(ConfigParser, MalformedSecondEntryIsAHardError) {
  // Entries past the first used to go unexercised by the pipeline; the
  // parser must still reject them eagerly (here: a flow referencing an
  // opcode the second accelerator does not define).
  std::string Error;
  EXPECT_TRUE(failed(parseSystemConfig(R"json({
    "accelerators": [
      { "name": "good", "kernel": "linalg.matmul", "accel_size": [4, 4, 4],
        "opcode_map": "t = [send_literal(1), send(0), recv(2)]",
        "opcode_flow_map": { "Ns": "(t)" } },
      { "name": "bad", "kernel": "linalg.matmul", "accel_size": [8, 8, 8],
        "opcode_map": "t = [send_literal(1), send(0), recv(2)]",
        "opcode_flow_map": { "Ns": "(missing_opcode)" } }]
  })json", &Error)));
  // The error pinpoints the offending entry.
  EXPECT_NE(Error.find("accelerators[1]"), std::string::npos) << Error;
  EXPECT_NE(Error.find("missing_opcode"), std::string::npos) << Error;
}

TEST(ConfigParser, RejectsDuplicateAcceleratorNames) {
  std::string Error;
  EXPECT_TRUE(failed(parseSystemConfig(R"json({
    "accelerators": [
      { "name": "twin", "kernel": "linalg.matmul", "accel_size": [4, 4, 4],
        "opcode_map": "t = [send_literal(1), send(0), recv(2)]",
        "opcode_flow_map": { "Ns": "(t)" } },
      { "name": "twin", "kernel": "linalg.matmul", "accel_size": [8, 8, 8],
        "opcode_map": "t = [send_literal(1), send(0), recv(2)]",
        "opcode_flow_map": { "Ns": "(t)" } }]
  })json", &Error)));
  EXPECT_NE(Error.find("duplicate"), std::string::npos) << Error;
  EXPECT_NE(Error.find("twin"), std::string::npos) << Error;
}

TEST(ConfigParser, RejectsNonsenseAccelSize) {
  std::string Error;
  EXPECT_TRUE(failed(parseSystemConfig(R"json({
    "accelerators": [{ "name": "x", "kernel": "linalg.matmul",
      "accel_size": [4, -5, 4],
      "opcode_map": "t = [send_literal(1), send(0), recv(2)]",
      "opcode_flow_map": { "Ns": "(t)" } }]
  })json", &Error)));
  EXPECT_NE(Error.find("accel_size"), std::string::npos) << Error;
}

TEST(ConfigParser, LibraryMatMulConfigsParse) {
  for (V Version : {V::V1, V::V2, V::V3, V::V4}) {
    for (int64_t Size : {4, 8, 16}) {
      std::string Json =
          exec::makeMatMulConfigJson(Version, Size, "Ns");
      std::string Error;
      auto Config = parseSystemConfig(Json, &Error);
      ASSERT_TRUE(succeeded(Config)) << Error << "\n" << Json;
      EXPECT_EQ(Config->Accelerators[0].Kernel, "linalg.matmul");
    }
  }
}

TEST(ConfigParser, LibraryConvConfigParses) {
  std::string Error;
  auto Config = parseSystemConfig(exec::makeConvConfigJson(), &Error);
  ASSERT_TRUE(succeeded(Config)) << Error;
  const AcceleratorDesc &Accel = Config->Accelerators[0];
  EXPECT_EQ(Accel.Kernel, "linalg.conv_2d_nchw_fchw");
  EXPECT_EQ(Accel.AccelSize,
            (std::vector<int64_t>{0, 1, 0, 0, -1, -1, -1}));
  ASSERT_TRUE(Accel.InitOpcodes.has_value());
  EXPECT_EQ(Accel.InitOpcodes->allTokens(),
            (std::vector<std::string>{"rst"}));
}

/// Minimal valid accelerator body reused by the faults-section tests.
std::string withFaults(const std::string &FaultsSection) {
  return "{ " + FaultsSection + R"json(
    "accelerators": [
      { "name": "mm", "kernel": "linalg.matmul", "accel_size": 4,
        "opcode_map": "opcode_map< s = [send_literal(0x21), send(0), send(1), recv(2)] >",
        "opcode_flow_map": { "Ns": "(s)" } } ] })json";
}

TEST(ConfigParser, FaultsSectionParses) {
  std::string Error;
  auto Config = parseSystemConfig(withFaults(R"json(
    "faults": {
      "events": [
        { "kind": "transient", "at": 2 },
        { "kind": "corrupt", "at": 5, "word": 3, "xor": 0xFF },
        { "kind": "stall", "at": 4, "steps": 32 },
        { "kind": "drop", "at": 7, "attempts": 9 }
      ],
      "retries": 2, "watchdog": 48, "backoff": 100, "poll": 5,
      "recover": true, "spares": 1
    },)json"),
                                  &Error);
  ASSERT_TRUE(succeeded(Config)) << Error;
  EXPECT_TRUE(Config->HasFaults);
  ASSERT_EQ(Config->Faults.Events.size(), 4u);
  EXPECT_EQ(Config->Faults.Events[0].Kind, sim::FaultKind::TransientError);
  EXPECT_EQ(Config->Faults.Events[0].At, 2u);
  EXPECT_EQ(Config->Faults.Events[1].Kind, sim::FaultKind::CorruptWord);
  EXPECT_EQ(Config->Faults.Events[1].WordIndex, 3u);
  EXPECT_EQ(Config->Faults.Events[1].XorMask, 0xFFu);
  EXPECT_EQ(Config->Faults.Events[2].Kind, sim::FaultKind::Stall);
  EXPECT_EQ(Config->Faults.Events[2].Steps, 32u);
  EXPECT_EQ(Config->Faults.Events[3].Attempts, 9u);
  EXPECT_EQ(Config->Faults.Recovery.MaxRetries, 2u);
  EXPECT_EQ(Config->Faults.Recovery.WatchdogPolls, 48u);
  EXPECT_EQ(Config->Faults.Recovery.BackoffCycles, 100u);
  EXPECT_EQ(Config->Faults.Recovery.PollCycles, 5u);
  EXPECT_TRUE(Config->Faults.Recovery.Enabled);
  EXPECT_EQ(Config->SpareAccelerators, 1u);
}

TEST(ConfigParser, FaultsRandomScheduleAppends) {
  std::string Error;
  auto Config = parseSystemConfig(withFaults(R"json(
    "faults": {
      "events": [ { "kind": "drop", "at": 1 } ],
      "random": { "seed": 7, "count": 3, "max": 16 },
      "recover": false
    },)json"),
                                  &Error);
  ASSERT_TRUE(succeeded(Config)) << Error;
  EXPECT_EQ(Config->Faults.Events.size(), 4u); // 1 explicit + 3 random
  EXPECT_FALSE(Config->Faults.Recovery.Enabled);
  // The random tail is reproducible: same seed, same events.
  sim::FaultPlan Again = sim::makeRandomFaultPlan(7, 3, 16);
  for (size_t I = 0; I < 3; ++I) {
    EXPECT_EQ(Config->Faults.Events[1 + I].Kind, Again.Events[I].Kind);
    EXPECT_EQ(Config->Faults.Events[1 + I].At, Again.Events[I].At);
  }
}

TEST(ConfigParser, AbsentFaultsSectionStaysCold) {
  std::string Error;
  auto Config = parseSystemConfig(withFaults(""), &Error);
  ASSERT_TRUE(succeeded(Config)) << Error;
  EXPECT_FALSE(Config->HasFaults);
  EXPECT_TRUE(Config->Faults.empty());
  EXPECT_EQ(Config->SpareAccelerators, 0u);
}

TEST(ConfigParser, FaultsDiagnostics) {
  auto expectError = [](const std::string &Section,
                        const std::string &Needle) {
    std::string Error;
    EXPECT_TRUE(failed(parseSystemConfig(withFaults(Section), &Error)))
        << Section;
    EXPECT_NE(Error.find(Needle), std::string::npos) << Error;
  };
  expectError(R"("faults": { "events": [ { "kind": "bogus", "at": 1 } ] },)",
              "unknown fault kind 'bogus'");
  expectError(R"("faults": { "events": [ { "kind": "drop" } ] },)",
              "needs a non-negative integer 'at'");
  expectError(R"("faults": { "events": [ { "kind": "drop", "at": 1,
                                           "attempts": 0 } ] },)",
              "'attempts' must be >= 1");
  expectError(R"("faults": { "retries": -1 },)", "out of range");
  expectError(R"("faults": { "recover": 1 },)", "must be a boolean");
  expectError(R"("faults": { "spares": -2 },)", "'faults.spares'");
  expectError(R"("faults": [],)", "'faults' must be an object");
  // The failing event is named by index.
  std::string Error;
  EXPECT_TRUE(failed(parseSystemConfig(
      withFaults(R"("faults": { "events": [ { "kind": "drop", "at": 1 },
                                            { "kind": "nope", "at": 2 } ] },)"),
      &Error)));
  EXPECT_NE(Error.find("faults.events[1]"), std::string::npos) << Error;
}

TEST(ConfigParser, DuplicateFaultEventIndicesDiagnosed) {
  auto expectError = [](const std::string &Section,
                        const std::string &Needle) {
    std::string Error;
    EXPECT_TRUE(failed(parseSystemConfig(withFaults(Section), &Error)))
        << Section;
    EXPECT_NE(Error.find(Needle), std::string::npos) << Error;
  };
  // Two DMA-domain events racing for send index 1.
  expectError(R"("faults": { "events": [ { "kind": "drop", "at": 1 },
                                          { "kind": "corrupt", "at": 1 } ] },)",
              "both target send index 1");
  // Two accelerator-domain events racing for opcode index 2.
  expectError(R"("faults": { "events": [ { "kind": "transient", "at": 2 },
                                          { "kind": "stall", "at": 2 } ] },)",
              "both target opcode index 2");
  // Same index across *different* domains is two distinct slots: fine.
  std::string Error;
  auto Config = parseSystemConfig(
      withFaults(R"("faults": { "events": [ { "kind": "drop", "at": 1 },
                                            { "kind": "transient", "at": 1 } ] },)"),
      &Error);
  ASSERT_TRUE(succeeded(Config)) << Error;
  EXPECT_EQ(Config->Faults.Events.size(), 2u);
}

TEST(ConfigParser, RandomScheduleExemptFromDuplicateCheck) {
  // The generated tail models environmental noise and may legitimately
  // collide with explicit events (or itself); only author-written events
  // are cross-checked.
  std::string Error;
  auto Config = parseSystemConfig(withFaults(R"json(
    "faults": {
      "events": [ { "kind": "drop", "at": 1 } ],
      "random": { "seed": 3, "count": 8, "max": 2 }
    },)json"),
                                  &Error);
  ASSERT_TRUE(succeeded(Config)) << Error;
  EXPECT_EQ(Config->Faults.Events.size(), 9u);
}

/// Fault counts are stored in 32 bits: a larger value is refused naming
/// the key instead of wrapping (retries 2^32 used to run with 0 retries).
TEST(ConfigParser, FaultCountsBeyond32BitsDiagnosed) {
  auto expectError = [](const std::string &Section,
                        const std::string &Needle) {
    std::string Error;
    EXPECT_TRUE(failed(parseSystemConfig(withFaults(Section), &Error)))
        << Section;
    EXPECT_NE(Error.find(Needle), std::string::npos) << Error;
  };
  expectError(R"("faults": { "retries": 4294967296 },)",
              "'faults.retries' (4294967296) does not fit in 32 bits");
  expectError(R"("faults": { "events": [ { "kind": "drop", "at": 1,
                                           "attempts": 4294967296 } ] },)",
              "'attempts' (4294967296) does not fit in 32 bits");
  expectError(R"("faults": { "events": [ { "kind": "corrupt", "at": 1,
                                           "word": -1 } ] },)",
              "'word' (-1) must not be negative");
  std::string Error;
  auto Config = parseSystemConfig(
      withFaults(R"("faults": { "retries": 4294967295 },)"), &Error);
  ASSERT_TRUE(succeeded(Config)) << Error;
  EXPECT_EQ(Config->Faults.Recovery.MaxRetries, 4294967295u);
}

/// --faults obeys the rules of the config file's `faults` section, checked
/// on the schedule merged from both.
TEST(ConfigParser, FaultSpecObeysTheSectionRules) {
  std::string Error;
  auto Config = parseSystemConfig(withFaults(R"json(
    "faults": { "events": [ { "kind": "transient", "at": 2 } ] },)json"),
                                  &Error);
  ASSERT_TRUE(succeeded(Config)) << Error;
  auto expectError = [&](const std::string &Spec, const std::string &Needle) {
    sim::FaultPlan Plan = Config->Faults;
    std::string SpecError;
    EXPECT_TRUE(failed(sim::parseFaultSpec(Spec, Plan, SpecError))) << Spec;
    EXPECT_NE(SpecError.find(Needle), std::string::npos) << SpecError;
  };
  expectError("transient@1:attempts=0", "'attempts' must be >= 1");
  expectError("stall@1:steps=0", "'steps' must be >= 1");
  expectError("watchdog=0", "'watchdog' must be >= 1");
  expectError("drop@1,drop@1",
              "fault events 1 (drop@1) and 2 (drop@1) both target send "
              "index 1");
  // A --faults event against a config event.
  expectError("stall@2", "fault events 0 (transient@2) and 1 (stall@2) both "
                         "target opcode index 2");
  expectError("retries=4294967296", "'retries' (4294967296) does not fit in "
                                    "32 bits");
  expectError("transient@1:attempts=4294967297",
              "'attempts' (4294967297) does not fit in 32 bits");
  // The seeded random tail stays exempt from the duplicate rule, and one
  // event on each domain's index is fine.
  sim::FaultPlan Plan = Config->Faults;
  EXPECT_TRUE(succeeded(
      sim::parseFaultSpec("drop@2,rand=3:n=8:max=2", Plan, Error)))
      << Error;
  EXPECT_EQ(Plan.Events.size(), 10u);
}

TEST(ConfigParser, SparesBeyondPoolDiagnosed) {
  // withFaults() configures exactly one accelerator; 2 spares can't be
  // honoured as per-primary clones.
  std::string Error;
  EXPECT_TRUE(failed(
      parseSystemConfig(withFaults(R"("faults": { "spares": 2 },)"), &Error)));
  EXPECT_NE(Error.find("'faults.spares' (2) exceeds"), std::string::npos)
      << Error;
  // One spare for one accelerator is fine.
  auto Config =
      parseSystemConfig(withFaults(R"("faults": { "spares": 1 },)"), &Error);
  ASSERT_TRUE(succeeded(Config)) << Error;
  EXPECT_EQ(Config->SpareAccelerators, 1u);
}

/// Valid serve section reused by the serve tests (faults supply the
/// schedule that `faulty_instance` assigns).
std::string withServe(const std::string &ServeSection) {
  return "{ " + ServeSection + R"json(
    "faults": { "events": [ { "kind": "transient", "at": 1 } ],
                "recover": false },
    "accelerators": [
      { "name": "mm", "kernel": "linalg.matmul", "accel_size": 4,
        "opcode_map": "opcode_map< s = [send_literal(0x21), send(0), send(1), recv(2)] >",
        "opcode_flow_map": { "Ns": "(s)" } } ] })json";
}

TEST(ConfigParser, ServeSectionParses) {
  std::string Error;
  auto Config = parseSystemConfig(withServe(R"json(
    "serve": {
      "instances": 4, "queue_depth": 32, "max_attempts": 2,
      "breaker_threshold": 5, "breaker_cooldown": 6, "plan_cache": 8,
      "threads": 3, "deadline_ms": 12.5, "cpu_fallback": false,
      "faulty_instance": 1, "faulty_jobs": 7
    },)json"),
                                  &Error);
  ASSERT_TRUE(succeeded(Config)) << Error;
  EXPECT_TRUE(Config->HasServe);
  const ServeSection &S = Config->Serve;
  EXPECT_EQ(S.Instances, 4u);
  EXPECT_EQ(S.QueueDepth, 32u);
  EXPECT_EQ(S.MaxAttempts, 2u);
  EXPECT_EQ(S.BreakerThreshold, 5u);
  EXPECT_EQ(S.BreakerCooldown, 6u);
  EXPECT_EQ(S.PlanCacheCapacity, 8u);
  EXPECT_EQ(S.Threads, 3u);
  EXPECT_DOUBLE_EQ(S.DefaultDeadlineMs, 12.5);
  EXPECT_FALSE(S.CpuFallback);
  EXPECT_EQ(S.FaultyInstance, 1);
  EXPECT_EQ(S.FaultyJobs, 7u);
}

TEST(ConfigParser, AbsentServeSectionKeepsDefaults) {
  std::string Error;
  auto Config = parseSystemConfig(withServe(""), &Error);
  ASSERT_TRUE(succeeded(Config)) << Error;
  EXPECT_FALSE(Config->HasServe);
  EXPECT_EQ(Config->Serve.Instances, 2u);
  EXPECT_EQ(Config->Serve.FaultyInstance, -1);
  EXPECT_TRUE(Config->Serve.CpuFallback);
}

TEST(ConfigParser, ServeDiagnostics) {
  auto expectError = [](const std::string &Section,
                        const std::string &Needle) {
    std::string Error;
    EXPECT_TRUE(failed(parseSystemConfig(withServe(Section), &Error)))
        << Section;
    EXPECT_NE(Error.find(Needle), std::string::npos) << Error;
  };
  expectError(R"("serve": [],)", "'serve' must be an object");
  expectError(R"("serve": { "instances": 0 },)", "must be >= 1");
  expectError(R"("serve": { "queue_depth": -4 },)", "must be >= 1");
  expectError(R"("serve": { "plan_cache": 0 },)", "plan_cache >= 1");
  expectError(R"("serve": { "deadline_ms": -1 },)",
              "'serve.deadline_ms' must be a non-negative number");
  expectError(R"("serve": { "cpu_fallback": "yes" },)",
              "'serve.cpu_fallback' must be a boolean");
  expectError(R"("serve": { "faulty_instance": 2 },)",
              "'serve.faulty_instance' must name a pool instance");
  expectError(R"("serve": { "faulty_jobs": -1 },)",
              "'serve.faulty_jobs' must be >= 0");
  // Counts are stored as unsigned: 2^32 used to wrap (a queue depth of
  // 2^32 became 0, 2^32 + 1 instances became 1). 2^32 - 1 still parses.
  for (const char *Key :
       {"instances", "queue_depth", "max_attempts", "breaker_threshold",
        "breaker_cooldown", "plan_cache", "threads", "faulty_jobs"})
    expectError(std::string(R"("serve": { ")") + Key + R"(": 4294967296 },)",
                std::string("'serve.") + Key +
                    "' (4294967296) does not fit in 32 bits");
  auto MaxDepth = parseSystemConfig(
      withServe(R"("serve": { "queue_depth": 4294967295 },)"));
  ASSERT_TRUE(succeeded(MaxDepth));
  EXPECT_EQ(MaxDepth->Serve.QueueDepth, 4294967295u);
  // faulty_instance without a faults section has no schedule to assign.
  std::string Error;
  EXPECT_TRUE(failed(parseSystemConfig(R"json({
    "serve": { "faulty_instance": 0 },
    "accelerators": [
      { "name": "mm", "kernel": "linalg.matmul", "accel_size": 4,
        "opcode_map": "opcode_map< s = [send_literal(0x21), send(0), send(1), recv(2)] >",
        "opcode_flow_map": { "Ns": "(s)" } } ] })json",
                                       &Error)));
  EXPECT_NE(Error.find("requires a 'faults' section"), std::string::npos)
      << Error;
}

/// A zero or negative cache size would reach the cache model as a level
/// with no sets (a division by zero on the first access).
TEST(ConfigParser, RejectsNonPositiveCacheLevels) {
  for (const char *Levels : {"[32K, 0]", "[32K, -512K]", "[0]"}) {
    std::string Error;
    EXPECT_TRUE(failed(parseSystemConfig(
        withServe(std::string(R"("cpu": { "cache-levels": )") + Levels +
                  " },"),
        &Error)))
        << Levels;
    EXPECT_NE(Error.find("'cpu.cache-levels' entries must be positive sizes"),
              std::string::npos)
        << Error;
  }
  std::string Error;
  EXPECT_TRUE(succeeded(parseSystemConfig(
      withServe(R"("cpu": { "cache-levels": [1, 512] },)"), &Error)))
      << Error;
}

/// A negative staging-region size used to reach DmaEngine::init, which
/// sized a vector from it and aborted the run; 0 still means the default.
TEST(ConfigParser, RejectsNegativeDmaBufferSizes) {
  auto withDma = [](const std::string &DmaFields) {
    return R"json({ "accelerators": [
      { "name": "mm", "kernel": "linalg.matmul", "accel_size": 4,
        "dma_config": { )json" +
           DmaFields + R"json( },
        "opcode_map": "opcode_map< s = [send_literal(0x21), send(0), send(1), recv(2)] >",
        "opcode_flow_map": { "Ns": "(s)" } } ] })json";
  };
  for (const char *Key : {"inputBufferSize", "outputBufferSize"}) {
    std::string Error;
    EXPECT_TRUE(failed(parseSystemConfig(
        withDma(std::string("\"") + Key + "\": -64"), &Error)))
        << Key;
    EXPECT_EQ(Error, std::string("in accelerators[0]: 'dma_config.") + Key +
                         "' must not be negative (got -64)");
  }
  std::string Error;
  auto Config = parseSystemConfig(
      withDma(R"("inputBufferSize": 0, "outputBufferSize": 0x40)"), &Error);
  ASSERT_TRUE(succeeded(Config)) << Error;
  EXPECT_EQ(Config->Accelerators[0].DmaConfig.InputBufferSize, 0xFF00);
  EXPECT_EQ(Config->Accelerators[0].DmaConfig.OutputBufferSize, 0x40);
}

TEST(ConfigParser, OpcodeActionReferenceValidation) {
  // Each bad opcode_map/flow below is injected into an otherwise valid
  // config with 3 'data' operands (A:[m,k] rank 2) and 3 'dims' names, so
  // every out-of-range action index must be rejected at parse time with a
  // diagnostic naming the offending opcode.
  auto withOpcodes = [](const std::string &MapText,
                        const std::string &Flow) {
    return std::string(R"json({
      "accelerators": [
        { "name": "mm", "kernel": "linalg.matmul", "accel_size": [4, 4, 4],
          "dims": ["m", "n", "k"],
          "data": { "A": [m, k], "B": [k, n], "C": [m, n] },
          "opcode_map": ")json") +
           MapText + R"json(",
          "opcode_flow_map": { "Ns": ")json" + Flow + R"json(" } }]
    })json";
  };
  auto expectError = [&](const std::string &MapText, const std::string &Flow,
                         const std::string &Needle) {
    std::string Error;
    EXPECT_TRUE(failed(parseSystemConfig(withOpcodes(MapText, Flow), &Error)))
        << MapText;
    EXPECT_NE(Error.find(Needle), std::string::npos) << Error;
  };

  // send(9): only 3 operands declared.
  expectError("t = [send_literal(1), send(9), recv(2)]", "(t)",
              "send(9) references an operand but 'data' defines 3 "
              "operand(s)");
  // recv(-2): negative operand index.
  expectError("t = [send_literal(1), send(0), recv(-2)]", "(t)",
              "recv(-2) references an operand");
  // send_dim(0, 5): operand 'A' is rank 2.
  expectError("t = [send_dim(0, 5), send(0), recv(2)]", "(t)",
              "but operand 'A' has rank 2");
  // send_dim(7, 0): operand index out of range.
  expectError("t = [send_dim(7, 0), send(0), recv(2)]", "(t)",
              "send_dim(7, 0) references an operand");
  // send_idx(7): only 3 kernel dims declared. (The name-resolving parser
  // already rejects unknown names; a raw integer must be range-checked.)
  expectError("t = [send_idx(7), send(0), recv(2)]", "(t)",
              "references a kernel dimension but 'dims' defines 3 name(s)");
  // Empty nested scope in a flow.
  expectError("t = [send_literal(1), send(0), recv(2)]", "(t ())",
              "empty '()' scope");

  // A valid map with in-range references still parses.
  std::string Error;
  EXPECT_TRUE(succeeded(parseSystemConfig(
      withOpcodes("t = [send_literal(1), send_dim(0, 1), send(0), recv(2)]",
                  "(t)"),
      &Error)))
      << Error;
}

TEST(ConfigParser, EmptyInitOpcodesScopeRejected) {
  std::string Error;
  EXPECT_TRUE(failed(parseSystemConfig(R"json({
    "accelerators": [
      { "name": "mm", "kernel": "linalg.matmul", "accel_size": 4,
        "opcode_map": "t = [send_literal(1), send(0), recv(2)]",
        "opcode_flow_map": { "Ns": "(t)" },
        "init_opcodes": "(t ())" }]
  })json",
                                       &Error)));
  EXPECT_NE(Error.find("empty '()' scope"), std::string::npos) << Error;
  EXPECT_NE(Error.find("init_opcodes"), std::string::npos) << Error;
}

TEST(ConfigParser, MissingFileFails) {
  std::string Error;
  EXPECT_TRUE(failed(
      parseSystemConfigFile("/nonexistent/path/config.json", &Error)));
  EXPECT_NE(Error.find("cannot open"), std::string::npos);
}

} // namespace
