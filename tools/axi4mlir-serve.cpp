//===- axi4mlir-serve.cpp - Multi-tenant accelerator service CLI ----------===//
//
// Part of the AXI4MLIR reproduction. MIT licensed.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Command-line front end of the serve layer: reads a configuration file
/// (accelerators + optional `serve` and `faults` sections), generates a
/// deterministic mixed stream of matmul/conv jobs, runs it through the
/// resilient server pool, and prints a per-status summary with modeled
/// throughput and latency percentiles.
///
/// Usage:
///   axi4mlir-serve --config configs/serve_pool.json [--jobs N]
///                  [--threads N] [--deadline MS] [--seed N]
///
/// Exits non-zero when any admitted job ends in the Failed status (shed
/// jobs — Overloaded / DeadlineExceeded / Rejected — are structured
/// outcomes, not tool failures).
///
//===----------------------------------------------------------------------===//

#include "parser/ConfigParser.h"
#include "serve/Server.h"
#include "support/EditDistance.h"

#include <algorithm>
#include <charconv>
#include <cstdio>
#include <cstring>
#include <limits>
#include <string>
#include <vector>

using namespace axi4mlir;

namespace {

struct CliOptions {
  bool Help = false;
  std::string ConfigPath;
  unsigned Jobs = 32;
  /// Overrides (negative = use the config file's serve section).
  int64_t Threads = -1;
  double DeadlineMs = -1;
  uint32_t Seed = 7;
};

void printUsage(std::FILE *Out) {
  std::fprintf(
      Out,
      "usage: axi4mlir-serve --config FILE [--jobs N] [--threads N]\n"
      "                      [--deadline MS] [--seed N]\n"
      "  Runs a deterministic mixed matmul/conv job stream through the\n"
      "  resilient accelerator pool described by FILE's 'serve' section\n"
      "  (instances, queue depth, deadlines, circuit breakers; see\n"
      "  docs/SERVING.md). --threads and --deadline override the file.\n");
}

const std::vector<std::string> &knownFlags() {
  static const std::vector<std::string> Flags = {
      "--config", "--jobs", "--threads", "--deadline", "--seed", "--help"};
  return Flags;
}

bool parseInteger(const char *Text, int64_t &Out) {
  auto [End, Errc] =
      std::from_chars(Text, Text + std::strlen(Text), Out, 10);
  return Errc == std::errc() && End == Text + std::strlen(Text);
}

bool parseArgs(int Argc, char **Argv, CliOptions &Options) {
  for (int I = 1; I < Argc; ++I) {
    std::string Arg = Argv[I];
    std::string Inline;
    bool HasInline = false;
    if (Arg.rfind("--", 0) == 0) {
      size_t Eq = Arg.find('=');
      if (Eq != std::string::npos) {
        Inline = Arg.substr(Eq + 1);
        Arg = Arg.substr(0, Eq);
        HasInline = true;
        if (Inline.empty()) {
          std::fprintf(stderr, "missing value in '%s='\n", Arg.c_str());
          return false;
        }
      }
    }
    auto next = [&]() -> const char * {
      if (HasInline)
        return Inline.c_str();
      return I + 1 < Argc ? Argv[++I] : nullptr;
    };
    // --jobs, --threads and --seed land in 32-bit fields; a larger value
    // would wrap.
    constexpr int64_t Max32 = std::numeric_limits<uint32_t>::max();
    auto nextInt = [&](const char *Flag, int64_t Min, int64_t &Out,
                       int64_t Max = std::numeric_limits<int64_t>::max()) {
      const char *V = next();
      if (!V || !parseInteger(V, Out) || Out < Min) {
        std::fprintf(stderr, "error: %s needs an integer >= %lld (got '%s')\n",
                     Flag, static_cast<long long>(Min), V ? V : "");
        return false;
      }
      if (Out > Max) {
        std::fprintf(stderr, "error: %s (%s) does not fit in 32 bits\n", Flag,
                     V);
        return false;
      }
      return true;
    };
    if (Arg == "--config") {
      const char *V = next();
      if (!V)
        return false;
      Options.ConfigPath = V;
    } else if (Arg == "--jobs") {
      int64_t Value = 0;
      if (!nextInt("--jobs", 1, Value, Max32))
        return false;
      Options.Jobs = static_cast<unsigned>(Value);
    } else if (Arg == "--threads") {
      int64_t Value = 0;
      if (!nextInt("--threads", 0, Value, Max32))
        return false;
      Options.Threads = Value;
    } else if (Arg == "--deadline") {
      int64_t Value = 0;
      if (!nextInt("--deadline", 0, Value))
        return false;
      Options.DeadlineMs = static_cast<double>(Value);
    } else if (Arg == "--seed") {
      int64_t Value = 0;
      if (!nextInt("--seed", 0, Value, Max32))
        return false;
      Options.Seed = static_cast<uint32_t>(Value);
    } else if (Arg == "--help" || Arg == "-h") {
      Options.Help = true;
      return true;
    } else {
      std::string Suggestion = closestSpelling(Arg, knownFlags());
      if (Suggestion.empty())
        std::fprintf(stderr, "unknown argument '%s'\n", Arg.c_str());
      else
        std::fprintf(stderr, "unknown argument '%s'; did you mean '%s'?\n",
                     Arg.c_str(), Suggestion.c_str());
      return false;
    }
  }
  return !Options.ConfigPath.empty();
}

/// Deterministic mixed traffic: cycles matmul shapes (and conv layers when
/// the pool hosts a conv accelerator) with varying seeds. xorshift keeps
/// the stream reproducible for a given --seed.
std::vector<serve::JobRequest> makeWorkload(unsigned Jobs, uint32_t Seed,
                                            bool HasMatMul, bool HasConv,
                                            sim::ElemKind Elem) {
  std::vector<serve::JobRequest> Requests;
  Requests.reserve(Jobs);
  uint32_t State = Seed * 2654435761u + 1u;
  auto nextRand = [&State]() {
    State ^= State << 13;
    State ^= State >> 17;
    State ^= State << 5;
    return State;
  };
  static const int64_t MatMulSizes[] = {32, 48, 64};
  for (unsigned I = 0; I < Jobs; ++I) {
    serve::JobRequest Request;
    Request.Elem = Elem;
    Request.Seed = Seed + I;
    bool UseConv = HasConv && (!HasMatMul || I % 3 == 2);
    if (UseConv) {
      Request.Kind = serve::JobKind::Conv2D;
      Request.InChannels = 8;
      Request.InHW = 10 + int64_t(nextRand() % 3) * 4; // 10 / 14 / 18
      Request.OutChannels = 8;
      Request.FilterHW = 3;
      Request.Stride = 1;
    } else {
      Request.Kind = serve::JobKind::MatMul;
      Request.M = MatMulSizes[nextRand() % 3];
      Request.N = MatMulSizes[nextRand() % 3];
      Request.K = MatMulSizes[nextRand() % 3];
    }
    Requests.push_back(Request);
  }
  return Requests;
}

double percentile(std::vector<double> Sorted, double P) {
  if (Sorted.empty())
    return 0;
  size_t Index = static_cast<size_t>(P * double(Sorted.size() - 1) + 0.5);
  return Sorted[std::min(Index, Sorted.size() - 1)];
}

int runTool(const CliOptions &Options) {
  std::string Error;
  auto Config = parser::parseSystemConfigFile(Options.ConfigPath, &Error);
  if (failed(Config)) {
    std::fprintf(stderr, "error: %s\n", Error.c_str());
    return 1;
  }

  auto MadeOptions = serve::makeServerOptions(*Config, &Error);
  if (failed(MadeOptions)) {
    std::fprintf(stderr, "error: %s: %s\n", Options.ConfigPath.c_str(),
                 Error.c_str());
    return 1;
  }
  serve::ServerOptions ServerOptions = *MadeOptions;
  if (Options.Threads >= 0)
    ServerOptions.Threads = static_cast<unsigned>(Options.Threads);
  if (Options.DeadlineMs >= 0)
    ServerOptions.DefaultDeadlineMs = Options.DeadlineMs;

  bool HasMatMul = false, HasConv = false;
  for (const parser::AcceleratorDesc &Accel : Config->Accelerators) {
    HasMatMul |= Accel.Kernel == "linalg.matmul";
    HasConv |= Accel.Kernel == "linalg.conv_2d_nchw_fchw";
  }
  if (!HasMatMul && !HasConv && !ServerOptions.CpuFallback) {
    std::fprintf(stderr,
                 "error: '%s' configures no matmul or conv accelerator and "
                 "disables the CPU fallback\n",
                 Options.ConfigPath.c_str());
    return 1;
  }
  sim::ElemKind Elem = !Config->Accelerators.empty() &&
                               Config->Accelerators.front().DataType == "f32"
                           ? sim::ElemKind::F32
                           : sim::ElemKind::I32;

  serve::Server Server(Config->Accelerators, ServerOptions);
  // The config's fault schedule becomes the designated instance's local
  // brown-out (serve.faulty_instance); without the designation it stays a
  // global schedule, which the serve pool does not replay.
  if (Config->HasFaults && Config->Serve.FaultyInstance >= 0 &&
      static_cast<unsigned>(Config->Serve.FaultyInstance) <
          Server.numInstances()) {
    serve::InstanceFaults Faults;
    Faults.Plan = Config->Faults;
    Faults.JobsAffected = Config->Serve.FaultyJobs;
    Faults.Spares = Config->SpareAccelerators;
    Server.setInstanceFaults(
        static_cast<unsigned>(Config->Serve.FaultyInstance), Faults);
  }

  std::vector<serve::JobRequest> Workload = makeWorkload(
      Options.Jobs, Options.Seed, HasMatMul || ServerOptions.CpuFallback,
      HasConv, Elem);
  for (const serve::JobRequest &Request : Workload)
    Server.submit(Request);
  Server.drain();
  Server.shutdown();

  std::vector<serve::JobOutcome> Outcomes = Server.takeOutcomes();
  serve::ServerStats Stats = Server.stats();

  double TotalModeledMs = 0;
  std::vector<double> Latencies;
  for (const serve::JobOutcome &Out : Outcomes) {
    TotalModeledMs += Out.ModeledMs;
    if (Out.Status == serve::JobStatus::Completed)
      Latencies.push_back(Out.LatencyMs);
  }
  std::sort(Latencies.begin(), Latencies.end());
  double JobsPerSec = TotalModeledMs > 0
                          ? double(Stats.Completed) * 1e3 / TotalModeledMs
                          : 0;

  std::printf("axi4mlir-serve: %llu jobs over %u instance(s), %u thread(s)\n",
              static_cast<unsigned long long>(Stats.Submitted),
              Server.numInstances(), ServerOptions.Threads);
  std::printf(
      "  completed %llu | overloaded %llu | deadline-exceeded %llu | "
      "rejected %llu | failed %llu\n",
      static_cast<unsigned long long>(Stats.Completed),
      static_cast<unsigned long long>(Stats.Overloaded),
      static_cast<unsigned long long>(Stats.DeadlineExceeded),
      static_cast<unsigned long long>(Stats.Rejected),
      static_cast<unsigned long long>(Stats.Failed));
  std::printf(
      "  retries %llu | failovers %llu | cpu-fallbacks %llu | "
      "breaker-trips %llu\n",
      static_cast<unsigned long long>(Stats.Retries),
      static_cast<unsigned long long>(Stats.Failovers),
      static_cast<unsigned long long>(Stats.CpuFallbacks),
      static_cast<unsigned long long>(Stats.BreakerTrips));
  std::printf("  plan cache: %llu/%llu hits (evictions %llu)\n",
              static_cast<unsigned long long>(Stats.Plans.Hits),
              static_cast<unsigned long long>(Stats.Plans.Hits +
                                              Stats.Plans.Misses),
              static_cast<unsigned long long>(Stats.Plans.Evictions));
  std::printf("  modeled throughput %.2f jobs/s | latency p50 %.3f ms | "
              "p99 %.3f ms\n",
              JobsPerSec, percentile(Latencies, 0.50),
              percentile(Latencies, 0.99));

  if (Stats.Failed > 0) {
    for (const serve::JobOutcome &Out : Outcomes)
      if (Out.Status == serve::JobStatus::Failed)
        std::fprintf(stderr, "job %llu failed: %s\n",
                     static_cast<unsigned long long>(Out.Id),
                     Out.Error.c_str());
    return 1;
  }
  return 0;
}

} // namespace

int main(int Argc, char **Argv) {
  CliOptions Options;
  if (!parseArgs(Argc, Argv, Options)) {
    printUsage(stderr);
    return 2;
  }
  if (Options.Help) {
    printUsage(stdout);
    return 0;
  }
  return runTool(Options);
}
