//===- Protocol.h - Per-opcode accelerator protocol tables ------*- C++ -*-===//
//
// Part of the AXI4MLIR reproduction. MIT licensed.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Each simulated engine's wire protocol, written once as a per-opcode
/// table: the declarative counterpart of a config's opcode_map (paper
/// Figs. 7-8). A row names the engine versions that accept the opcode,
/// what its payload fills, the configuration rule checked when it
/// completes, and the effects it then has (clear, reconfigure, start a
/// new output slice, compute, emit). A Config holds everything the rules
/// read: the instance's fixed parameters and its runtime configuration.
///
/// Two interpreters read the tables and nothing else does: the concrete
/// ingest loop in AcceleratorModel::consumeBurst, which also moves the
/// payload into the engine's buffers and runs its datapath, and the
/// abstract step in analysis::ProtocolModel, whose Config fields may be
/// Unknown. Both go through lookup(), payloadWords() and complete(), so
/// they agree by construction on which word a protocol error hits.
///
//===----------------------------------------------------------------------===//

#ifndef AXI4MLIR_SIM_PROTOCOL_H
#define AXI4MLIR_SIM_PROTOCOL_H

#include <cstddef>
#include <cstdint>
#include <string>

namespace axi4mlir {
namespace sim {

/// Opcode literals of the micro-ISAs (the values the host streams ahead of
/// data bursts; matmul values follow paper Fig. 6a, conv values Fig. 15a).
namespace opcodes {
// MatMul family (v1..v4).
inline constexpr uint32_t MM_RESET = 0xFF;     ///< clear all buffers
inline constexpr uint32_t MM_SASBCCRC = 0x21;  ///< v1: A,B in; C out
inline constexpr uint32_t MM_SA = 0x22;        ///< load A tile
inline constexpr uint32_t MM_SB = 0x23;        ///< load B tile
inline constexpr uint32_t MM_RC = 0x24;        ///< emit C tile, clear C
inline constexpr uint32_t MM_SB_CC_RC = 0x25;  ///< B in; compute; C out
inline constexpr uint32_t MM_SA_CC_RC = 0x26;  ///< A in; compute; C out
inline constexpr uint32_t MM_CC_RC = 0x27;     ///< v2: compute; C out
inline constexpr uint32_t MM_CC = 0xF0;        ///< compute, accumulate C
inline constexpr uint32_t MM_CFG = 0x10;       ///< v4: set tM,tK,tN
// Conv family (paper Fig. 15a).
inline constexpr uint32_t CONV_SF = 1;      ///< load filter slice
inline constexpr uint32_t CONV_RO = 8;      ///< emit output slice
inline constexpr uint32_t CONV_SET_IC = 16; ///< next word: iC
inline constexpr uint32_t CONV_SET_FS = 32; ///< next word: fH (== fW)
inline constexpr uint32_t CONV_SICO = 70;   ///< input window in; compute
} // namespace opcodes

/// Formats an opcode word the way protocol dumps spell it ("0x21").
std::string formatOpcode(uint32_t Opcode);

namespace protocol {

/// A Config field, or a staged cfg word, the abstract model cannot
/// determine. Concrete engines never hold it: committed fields are
/// positive and staged words are 32-bit wire values.
inline constexpr int64_t Unknown = -1;

/// What an opcode's payload words fill.
enum class Fill : uint8_t {
  None,   ///< immediate opcode, no payload
  Cfg,    ///< configuration words, one per Row::Sets entry
  A,      ///< the matmul A tile (TileM x TileK)
  B,      ///< the matmul B tile (TileK x TileN)
  AThenB, ///< v1's combined burst: the A tile, then the B tile
  Filter, ///< the conv filter; its length becomes Config::FilterWords
  Window, ///< one conv input window (iC x fS x fS)
};

/// Effects of a row, applied when it completes (at the opcode word for
/// payload-less rows, at the last payload word otherwise) and only when
/// its rule holds.
enum Effect : uint8_t {
  Clear = 1 << 0,       ///< zero the operand buffers and the accumulator
  Reconfigure = 1 << 1, ///< the staged cfg words became the configuration
  NewSlice = 1 << 2,    ///< drop the un-drained output slice
  Compute = 1 << 3,     ///< matmul: C += A x B; conv: one window value
  Emit = 1 << 4,        ///< push the accumulator to the output FIFO
};

/// The configuration rule a row checks when it completes.
enum class Rule : uint8_t {
  None,
  TileFitsBuffers,    ///< every operand tile fits Config::Capacity
  WindowFitsBuffer,   ///< iC x fS x fS fits Config::MaxWindowWords
  WindowMatchesFilter ///< the window is as long as the loaded filter
};

/// Everything the rules read: the instance's fixed parameters (version,
/// buffer capacities) and its runtime configuration. Fields are as wide
/// as the 32-bit wire words that set them, so the product of any two is
/// exact in int64_t.
struct Config {
  uint8_t Version = 1; ///< the instance's Row::Versions bit
  int32_t TileM = 0, TileK = 0, TileN = 0;
  int32_t Capacity = 0; ///< matmul words per operand buffer
  int32_t InputChannels = 1, FilterSize = 1;
  int32_t MaxWindowWords = 0; ///< conv window buffer words
  int32_t FilterWords = 0;    ///< words of the loaded conv filter

  bool operator==(const Config &O) const;
};

/// One opcode of an engine's micro-ISA.
struct Row {
  uint32_t Opcode;
  uint8_t Versions; ///< bit V-1 set: engine version V accepts the opcode
  Fill Payload;
  uint8_t Effects; ///< Effect bits
  Rule Check = Rule::None;
  uint8_t NumSets = 0; ///< Fill::Cfg: payload words, in Sets order
  int32_t Config::*Sets[3] = {}; ///< the fields the cfg words set
};

/// How an engine's accumulator turns into output words.
enum class Output : uint8_t {
  Tile, ///< a TileM x TileN tile; every Emit pushes all of it
  Slice ///< one value per Compute; Emit pushes and empties the slice
};

/// An engine's protocol table.
struct Engine {
  const Row *Rows;
  size_t NumRows;
  Output Acc;
};

extern const Engine MatMul; ///< Table I engines v1..v4
extern const Engine Conv;   ///< the Fig. 15 conv engine

/// The row \p Opcode selects on the instance \p C; null when its version
/// does not accept the opcode.
inline const Row *lookup(const Engine &E, const Config &C, uint32_t Opcode) {
  for (const Row *R = E.Rows, *End = E.Rows + E.NumRows; R != End; ++R)
    if (R->Opcode == Opcode)
      return R->Versions & C.Version ? R : nullptr;
  return nullptr;
}

/// Words of one \p F payload under \p C (A, B, Filter, Window); Unknown
/// when a field it needs is.
inline int64_t fillWords(Fill F, const Config &C) {
  auto product = [](int64_t A, int64_t B) {
    return A == Unknown || B == Unknown ? Unknown : A * B;
  };
  switch (F) {
  case Fill::None:
  case Fill::Cfg:
    return 0;
  case Fill::A:
    return product(C.TileM, C.TileK);
  case Fill::B:
    return product(C.TileK, C.TileN);
  case Fill::AThenB: {
    int64_t A = fillWords(Fill::A, C), B = fillWords(Fill::B, C);
    return A == Unknown || B == Unknown ? Unknown : A + B;
  }
  case Fill::Filter:
  case Fill::Window:
    return product(C.InputChannels, product(C.FilterSize, C.FilterSize));
  }
  return 0;
}

/// Payload words \p R expects under \p C; Unknown when a field it needs
/// is.
inline int64_t payloadWords(const Row &R, const Config &C) {
  return R.Payload == Fill::Cfg ? R.NumSets : fillWords(R.Payload, C);
}

// The out-of-line parts of complete(), so that its common path inlines
// into the ingest loop.
/// The diagnostic of a window that does not match the loaded filter.
std::string filterMismatch(int64_t WindowWords, int64_t FilterWords);
/// Commits the staged cfg words of Reconfigure row \p R into \p C (see
/// complete()).
std::string reconfigure(const Row &R, Config &C, const int64_t *Staged);

/// Completes \p R: records a loaded filter's length, and for a
/// Reconfigure row commits the staged cfg words \p Staged (32-bit wire
/// words or Unknown, one per Row::Sets entry) into \p C. Returns the
/// violated rule's diagnostic, leaving \p C unchanged, or "" when the
/// row's effects may run. Rules whose inputs are Unknown are not checked.
inline std::string complete(const Row &R, Config &C, const int64_t *Staged) {
  if (R.Payload == Fill::Filter)
    C.FilterWords = static_cast<int32_t>(fillWords(Fill::Filter, C));
  if (R.Check == Rule::WindowMatchesFilter) {
    int64_t Window = fillWords(Fill::Window, C);
    if (Window != Unknown && C.FilterWords != Unknown &&
        Window != C.FilterWords)
      return filterMismatch(Window, C.FilterWords);
  }
  return R.Effects & Reconfigure ? reconfigure(R, C, Staged) : std::string();
}

/// Diagnostic for an opcode the instance does not accept.
std::string unsupportedMessage(uint32_t Opcode);

} // namespace protocol
} // namespace sim
} // namespace axi4mlir

#endif // AXI4MLIR_SIM_PROTOCOL_H
