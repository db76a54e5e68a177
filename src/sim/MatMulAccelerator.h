//===- MatMulAccelerator.h - Tile MatMul engines (Table I) ------*- C++ -*-===//
//
// Part of the AXI4MLIR reproduction. MIT licensed.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The v1..v4 tile-based MatMul accelerators of paper Table I:
///
///   | Type | Possible reuse     | Opcodes            | (Size, OPs/cycle) |
///   | v1   | Nothing            | sAsBcCrC           | (4,10)(8,60)(16,112)
///   | v2   | Inputs             | sA, sB, cCrC       |        "
///   | v3   | Inputs + Output    | sA, sB, cC, rC     |        "
///   | v4   | Ins/Out, flex size | cfg, sA, sB, cC, rC|        "
///
/// All versions share one protocol table (protocol::MatMul); versions
/// differ in which opcodes they accept (reuse capability) and whether tile
/// dimensions are runtime-configurable (v4, paper Sec. IV-C). Data bursts
/// land directly in the internal operand buffers.
///
//===----------------------------------------------------------------------===//

#ifndef AXI4MLIR_SIM_MATMULACCELERATOR_H
#define AXI4MLIR_SIM_MATMULACCELERATOR_H

#include "sim/AcceleratorModel.h"

namespace axi4mlir {
namespace sim {

/// Behavioural model of one MatMul accelerator instance.
class MatMulAccelerator : public AcceleratorModel {
public:
  enum class Version { V1, V2, V3, V4 };

  /// \p Size is the supported square tile size (Table I). For V4 this is
  /// the default tile; cfg opcodes may change tM/tK/tN at runtime as long
  /// as each operand tile fits the buffer capacity.
  MatMulAccelerator(Version Ver, int64_t Size, ElemKind Kind,
                    const SoCParams &Params);

  /// Resolves the engine version from an anchored `_vN` token in an
  /// accelerator name (e.g. `matmul_v3_16`): the digits must be terminated
  /// by `_` or the end of the name, so `matmul_v12` is version 12 (rejected
  /// as unsupported) rather than a silent `v1` substring match. Conflicting
  /// tokens, missing tokens and unsupported versions fail with \p Error.
  /// Shared by axi4mlir-opt --run and the serve layer's SoC pool builder.
  static FailureOr<Version> versionFromName(const std::string &Name,
                                            std::string &Error);

  /// Engine size for an accelerator config's `accel_size` list: the
  /// largest tile (the square engines store the full tile), or 8 when
  /// every entry is a sentinel. The one rule behind axi4mlir-opt --run,
  /// the serve layer's SoC pool and the static ProtocolModel, so the
  /// verifier models the engine the simulator runs.
  static int64_t engineSizeFor(const std::vector<int64_t> &AccelSize);

  std::string getName() const override;
  void reset() override;
  std::unique_ptr<AcceleratorModel> cloneFresh() const override;

  int64_t getTileM() const { return Cfg.TileM; }
  int64_t getTileN() const { return Cfg.TileN; }
  int64_t getTileK() const { return Cfg.TileK; }
  /// Per-operand internal buffer capacity in words.
  int64_t getBufferCapacityWords() const { return Cfg.Capacity; }
  uint64_t getTilesComputed() const { return TilesComputed; }

  /// The protocol configuration of a freshly reset \p Ver engine with
  /// default tile size \p Size: square tiles, and per-operand buffers of
  /// one tile (v4's flex memories hold 16x that, paper Sec. IV-B).
  static protocol::Config resetConfig(Version Ver, int64_t Size);

protected:
  const protocol::Engine &protocolTable() const override {
    return protocol::MatMul;
  }
  uint32_t *payloadBuffer(protocol::Fill F, size_t Words) override;
  void apply(uint8_t Effects) override;

private:
  void resizeBuffers();
  void compute();
  template <ElemKind K> void computeTile();
  void emitC();
  template <ElemKind K> void emitCImpl();

  Version Ver;
  int64_t BaseSize;
  ElemKind Kind;
  SoCParams Params;

  std::vector<uint32_t> BufA, BufB;
  std::vector<double> AccC; // accumulator (double covers i32 & f32 exactly)
  /// Scratch row accumulator for computeTile (persists across tiles to
  /// avoid per-compute allocation).
  std::vector<double> RowAcc;
  uint32_t CfgWords[3] = {0, 0, 0}; // MM_CFG payload: tM, tK, tN

  uint64_t TilesComputed = 0;
};

} // namespace sim
} // namespace axi4mlir

#endif // AXI4MLIR_SIM_MATMULACCELERATOR_H
