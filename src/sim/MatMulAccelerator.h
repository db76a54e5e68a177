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
/// All versions share the word-level protocol; versions differ in which
/// opcodes they accept (reuse capability) and whether tile dimensions are
/// runtime-configurable (v4, paper Sec. IV-C). Data bursts land directly
/// in the internal operand buffers (word-at-a-time through the FSM, or
/// memcpy'd whole via the consumeBurst fast path).
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

  void consumeWord(uint32_t Word) override;
  void consumeBurst(const uint32_t *Words, size_t Count) override;
  std::string getName() const override;
  void reset() override;
  std::unique_ptr<AcceleratorModel> cloneFresh() const override;

  int64_t getTileM() const { return TileM; }
  int64_t getTileN() const { return TileN; }
  int64_t getTileK() const { return TileK; }
  /// Per-operand internal buffer capacity in words.
  int64_t getBufferCapacityWords() const { return BufferCapacityWords; }
  uint64_t getTilesComputed() const { return TilesComputed; }

  //===--------------------------------------------------------------------===//
  // Static FSM introspection
  //
  // The static protocol checker (src/analysis/ProtocolModel) mirrors this
  // FSM without instantiating it. These hooks are the single source of
  // truth the real FSM and the abstract model share: the version's opcode
  // set, the buffer capacity rule and the per-opcode burst length.
  //===--------------------------------------------------------------------===//

  /// True when \p Opcode is part of version \p Ver's micro-ISA (Table I).
  static bool versionSupportsOpcode(Version Ver, uint32_t Opcode);
  /// Per-operand internal buffer capacity in words for \p Ver at default
  /// tile size \p Size (v4's flex memories allow 16x the square tile).
  static int64_t bufferCapacityWordsFor(Version Ver, int64_t Size);
  /// Expected data-burst payload words for \p Opcode under the given tile
  /// dimensions (0 for immediate opcodes; MM_CFG expects 3 cfg words).
  static int64_t burstWordsFor(uint32_t Opcode, int64_t TileM, int64_t TileK,
                               int64_t TileN);
  /// True when completing \p Opcode pushes a TileM*TileN output tile into
  /// the drain FIFO.
  static bool opcodeEmitsOutput(uint32_t Opcode);

protected:
  /// The burst plumbing is protected (not private) so tests can pin the
  /// out-of-protocol paths: calling either in Idle state must signal a
  /// diagnosable error, never Release-mode UB.
  /// Copies \p Count burst words into the receive target of the current
  /// state at position BurstFill (BufA/BufB, split A-then-B, or the cfg
  /// staging words).
  void copyIn(const uint32_t *Words, size_t Count);
  void finishBurst();

private:
  bool supportsOpcode(uint32_t Opcode) const;
  void startOpcode(uint32_t Opcode);
  void compute();
  template <ElemKind K> void computeTile();
  void emitC();
  template <ElemKind K> void emitCImpl();

  Version Ver;
  int64_t BaseSize;
  ElemKind Kind;
  SoCParams Params;

  int64_t TileM, TileN, TileK;
  int64_t BufferCapacityWords;

  std::vector<uint32_t> BufA, BufB;
  std::vector<double> AccC; // accumulator (double covers i32 & f32 exactly)
  /// Scratch row accumulator for computeTile (persists across tiles to
  /// avoid per-compute allocation).
  std::vector<double> RowAcc;

  enum class State { Idle, ReadCfg, ReadA, ReadB, ReadAThenB };
  State St = State::Idle;
  uint32_t CurrentOpcode = 0;
  uint32_t CfgWords[3] = {0, 0, 0}; // tM, tK, tN staging
  size_t BurstFill = 0;             // words of the burst received so far
  size_t BurstExpected = 0;

  uint64_t TilesComputed = 0;
};

} // namespace sim
} // namespace axi4mlir

#endif // AXI4MLIR_SIM_MATMULACCELERATOR_H
