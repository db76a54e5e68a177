//===- ablation_tiling.cpp - Ablation: CPU tiling & transfer batching -----===//
//
// Part of the AXI4MLIR reproduction. MIT licensed.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Ablation bench for the design choices DESIGN.md calls out: the
/// CPU-cache tiling level (paper Fig. 4 step 4) and the IR level at which
/// host code executes — accel ops transferring one-by-one vs the batched
/// axirt runtime calls (paper Sec. III-A offset batching).
///
//===----------------------------------------------------------------------===//

#include "BenchUtil.h"

using namespace axi4mlir;
using namespace axi4mlir::bench;
using namespace axi4mlir::exec;
using V = sim::MatMulAccelerator::Version;

int main() {
  printHeader("Ablation: CPU-cache tiling level (v3_16, As flow)");
  for (int64_t Dims : {128, 256, 512}) {
    MatMulRunConfig Config;
    Config.M = Config.N = Config.K = Dims;
    Config.Version = V::V3;
    Config.AccelSize = 16;
    Config.Flow = "As";
    Config.Validate = false;

    Config.CpuTiling = true;
    sim::PerfReport Tiled = mustRun(runMatMulAxi4mlir, Config, "tiled");
    Config.CpuTiling = false;
    sim::PerfReport Flat = mustRun(runMatMulAxi4mlir, Config, "flat");
    std::printf("dims %4lld: cpu-tiling ON %9.3f ms (LLC refs %9llu) | "
                "OFF %9.3f ms (LLC refs %9llu)\n",
                static_cast<long long>(Dims), Tiled.TaskClockMs,
                static_cast<unsigned long long>(Tiled.CacheReferences),
                Flat.TaskClockMs,
                static_cast<unsigned long long>(Flat.CacheReferences));
  }

  printHeader("Ablation: partial-tile strategy (pad vs peel, v3_16)");
  // Non-divisible shapes (the tiling-plan layer's pad/peel paths): the
  // acceptance shape, a ResNet-ish projection, and thin- vs thick-fringe
  // extremes around the 16 tile. Tracks the overhead each strategy adds
  // over the nearest divisible problem.
  {
    struct Shape {
      int64_t M, N, K;
      const char *Note;
    };
    const Shape Shapes[] = {
        {100, 36, 52, "acceptance shape"},
        {224, 112, 50, "conv-as-matmul projection"},
        {129, 129, 129, "thin fringe (129 % 16 = 1)"},
        {127, 127, 127, "thick fringe (127 % 16 = 15)"},
    };
    for (const Shape &S : Shapes) {
      MatMulRunConfig Config;
      Config.M = S.M;
      Config.N = S.N;
      Config.K = S.K;
      Config.Version = V::V3;
      Config.AccelSize = 16;
      Config.Flow = "As";
      Config.Validate = false;

      Config.Remainder = transforms::RemainderMode::Pad;
      sim::PerfReport Pad = mustRun(runMatMulAxi4mlir, Config, "pad");
      Config.Remainder = transforms::RemainderMode::Peel;
      sim::PerfReport Peel = mustRun(runMatMulAxi4mlir, Config, "peel");
      std::printf("%4lldx%-4lldx%-4lld: pad %9.3f ms (%6llu transfers) | "
                  "peel %9.3f ms (%6llu transfers)  [%s]\n",
                  static_cast<long long>(S.M), static_cast<long long>(S.N),
                  static_cast<long long>(S.K), Pad.TaskClockMs,
                  static_cast<unsigned long long>(Pad.DmaTransfers),
                  Peel.TaskClockMs,
                  static_cast<unsigned long long>(Peel.DmaTransfers),
                  S.Note);
    }
  }

  printHeader("Ablation: transfer batching (one dma_start_send per token "
              "vs per accel op)");
  // The batched path is the default pipeline. The unbatched path, where
  // every accel op ships its transaction alone, is not executable: accel
  // ops only run once convert-accel-to-runtime has batched them. We
  // approximate its cost from DMA transfer counts: each extra transfer
  // costs start+wait host cycles.
  for (int64_t Dims : {64, 128}) {
    MatMulRunConfig Config;
    Config.M = Config.N = Config.K = Dims;
    Config.Version = V::V3;
    Config.AccelSize = 16;
    Config.Flow = "Ns";
    Config.Validate = false;
    sim::PerfReport Batched = mustRun(runMatMulAxi4mlir, Config, "batched");
    // Unbatched: every literal/data copy is its own transfer; with the
    // v3 Ns token structure that is 5 transfers in place of 2 per tile.
    double ExtraTransfers =
        static_cast<double>(Batched.DmaTransfers) * 1.5;
    double ExtraMs = ExtraTransfers *
                     static_cast<double>(Config.Params.DmaStartHostCycles +
                                         Config.Params.DmaWaitHostCycles) /
                     Config.Params.HostClockHz * 1e3;
    std::printf("dims %4lld: batched %9.3f ms (%llu transfers) | "
                "unbatched est. +%.3f ms\n",
                static_cast<long long>(Dims), Batched.TaskClockMs,
                static_cast<unsigned long long>(Batched.DmaTransfers),
                ExtraMs);
  }
  return 0;
}
