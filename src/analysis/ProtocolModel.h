//===- ProtocolModel.h - Abstract accelerator FSM models --------*- C++ -*-===//
//
// Part of the AXI4MLIR reproduction. MIT licensed.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Word-accurate abstract models of the simulated accelerators (MatMul
/// v1-v4, Conv2D): an interpreter of the same per-opcode protocol tables
/// (sim/Protocol.h) the simulator's ingest loop runs, over a
/// configuration whose fields may be unknown. The protocol checker
/// streams the words a plan or a config flow would send — each word
/// classified as a compile-time constant, tile data, or unknown — and the
/// model reports, statically, the mistakes that otherwise die
/// mid-simulation: unsupported opcodes, data streamed while the engine
/// expects an opcode (flow reordered after data), bursts that overrun or
/// underrun the tile dimensions, configurations that do not fit the
/// internal buffers, windows that do not match the loaded filter, and
/// receives with no modeled output pending.
///
/// The model is deliberately conservative: the moment a word it cannot
/// classify lands in a position that steers the FSM (an unknown opcode
/// word, an unknown burst length), it gives up rather than guess, and
/// the checker reports the spot only in strict mode.
///
//===----------------------------------------------------------------------===//

#ifndef AXI4MLIR_ANALYSIS_PROTOCOLMODEL_H
#define AXI4MLIR_ANALYSIS_PROTOCOLMODEL_H

#include "sim/ConvAccelerator.h"
#include "sim/MatMulAccelerator.h"
#include "support/LogicalResult.h"

#include <cstdint>
#include <string>

namespace axi4mlir {
namespace parser {
struct AcceleratorDesc;
} // namespace parser

namespace analysis {

/// One abstract 32-bit word streamed to the accelerator.
struct AbstractWord {
  enum class Kind : uint8_t {
    Const,  ///< compile-time constant (opcode literals, cfg payload)
    Data,   ///< tile payload word with unknown value
    Unknown ///< runtime-dependent word (loop index, dynamic dim)
  };
  Kind K = Kind::Unknown;
  int64_t Value = 0;

  static AbstractWord constant(int64_t V) {
    return {Kind::Const, V};
  }
  static AbstractWord data() { return {Kind::Data, 0}; }
  static AbstractWord unknown() { return {Kind::Unknown, 0}; }
};

/// Abstract interpreter of an accelerator's protocol table over its
/// input stream: a small copyable value (the verifier snapshots it per
/// loop). Feed methods return an error message ("" when the stream is
/// still legal); once the model gives up (`gaveUp()`), further feeds are
/// accepted silently.
class ProtocolModel {
public:
  /// Builds the model matching how the tools build the simulated board:
  /// matmul version from the accelerator name's `_vN` token and engine
  /// size from the largest accel_size tile, conv with the default window
  /// buffer. Fails (with \p Error) for unknown kernels or names.
  static FailureOr<ProtocolModel>
  forAccelerator(const parser::AcceleratorDesc &Accel, std::string &Error);

  static ProtocolModel matmul(sim::MatMulAccelerator::Version Ver,
                              int64_t Size);
  static ProtocolModel conv(
      int64_t MaxWindowWords = sim::ConvAccelerator::DefaultMaxWindowWords);

  /// Streams one word.
  std::string feedWord(const AbstractWord &W);
  /// Streams \p Count consecutive data words (< 0 = unknown count).
  std::string feedData(int64_t Count);
  /// Models a receive of \p Words output words (< 0 = unknown).
  std::string feedRecv(int64_t Words);

  /// True when the engine expects an opcode word: the protocol is at a
  /// clean boundary (loop bodies must return here to be safe to repeat).
  bool atOpcodeBoundary() const { return St == State::Idle; }
  /// Modeled output words awaiting a receive (-1 = unknown).
  int64_t pendingOutputWords() const { return PendingOut; }
  bool gaveUp() const { return St == State::GaveUp; }
  /// Human-readable state for diagnostics.
  std::string stateDescription() const;

  /// State equality, used to prove loop bodies protocol-invariant.
  bool operator==(const ProtocolModel &O) const;
  bool operator!=(const ProtocolModel &O) const { return !(*this == O); }

  /// True when both models sit at the same protocol position with the
  /// same configuration. The output accumulators (pending words,
  /// accumulated conv values) are deliberately excluded: a loop body that
  /// emits without receiving is protocol-stable even though its
  /// accumulators grow each iteration.
  bool sameFsmPosition(const ProtocolModel &O) const;

  /// Folds the per-iteration accumulator delta into this state. \p
  /// AfterNext is the state one further iteration produced from *this*;
  /// \p TotalIters is the loop's trip count (< 0 = unknown).
  void extrapolateAccumulators(const ProtocolModel &AfterNext,
                               int64_t TotalIters);

  /// Stops tracking. The checker calls this at merge points it cannot
  /// reconcile (protocol-unstable loop bodies, untrackable regions).
  void invalidate() { giveUp(); }

private:
  enum class State : uint8_t { Idle, Payload, GaveUp };

  std::string finishRow();
  void giveUp() { St = State::GaveUp; }

  const sim::protocol::Engine *Table = &sim::protocol::MatMul;
  sim::protocol::Config Cfg;
  State St = State::Idle;
  const sim::protocol::Row *Active = nullptr; ///< row whose payload is due
  int64_t Remaining = 0; ///< payload words left
  /// Cfg payload words so far (32-bit wire words or protocol::Unknown).
  int64_t Staged[3] = {0, 0, 0};
  int64_t StagedFill = 0;

  int64_t SliceWords = 0; ///< accumulated slice values (-1 unknown)
  int64_t PendingOut = 0; ///< modeled output FIFO words (-1 unknown)
};

} // namespace analysis
} // namespace axi4mlir

#endif // AXI4MLIR_ANALYSIS_PROTOCOLMODEL_H
