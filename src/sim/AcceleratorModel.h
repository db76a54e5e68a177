//===- AcceleratorModel.h - Accelerator behavioural models ------*- C++ -*-===//
//
// Part of the AXI4MLIR reproduction. MIT licensed.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The behavioural contract of the simulated AXI-Stream accelerators: a
/// word-level micro-ISA state machine fed by the DMA engine. This replaces
/// the paper's SECDA-TFLite-derived HLS accelerators on the PYNQ-Z2 fabric
/// (Table I) while preserving their externally visible behaviour: opcodes,
/// stream ordering, stationarity/reuse, buffer capacities and Table I
/// throughput.
///
/// Each engine's protocol is a per-opcode table (sim/Protocol.h). One
/// ingest loop, consumeBurst(), interprets it for every engine: opcode
/// words select a row, payload words are memcpy'd straight into the
/// engine's internal buffers at line rate, and a completed row runs its
/// rule and then its effects through the engine's apply() hook. Engines
/// keep only their buffers and datapath. consumeWord() is a one-word
/// burst, so delivery granularity cannot change behaviour: the same
/// output FIFO contents, modeled compute cycles and errors for any split
/// of the stream. StreamEquivalenceTest enforces this, and that the
/// static analysis::ProtocolModel, which reads the same tables, errors on
/// the same word and predicts the same output FIFO depth.
///
//===----------------------------------------------------------------------===//

#ifndef AXI4MLIR_SIM_ACCELERATORMODEL_H
#define AXI4MLIR_SIM_ACCELERATORMODEL_H

#include "sim/AccelStatus.h"
#include "sim/CostModel.h"
#include "sim/FaultInjector.h"
#include "sim/Protocol.h"

#include <cmath>
#include <cstddef>
#include <cstdint>
#include <cstring>
#include <memory>
#include <string>
#include <vector>

namespace axi4mlir {
namespace sim {

/// Element interpretation of the 32-bit stream words.
enum class ElemKind { I32, F32 };

/// Base class of all accelerator behavioural models. The DMA engine feeds
/// whole bursts through consumeBurst() and collects results from the
/// output FIFO. Compute time is accumulated in fabric cycles and harvested
/// by the DMA engine via takeComputeCycles().
class AcceleratorModel {
public:
  virtual ~AcceleratorModel();

  /// Consumes one input-stream word (opcode or data).
  void consumeWord(uint32_t Word) { consumeBurst(&Word, 1); }

  /// Consumes \p Count stream words as one burst: the table-driven ingest
  /// loop. Words after a protocol error are dropped.
  void consumeBurst(const uint32_t *Words, size_t Count);

  /// Human-readable model name for diagnostics ("matmul_v3_16", ...).
  virtual std::string getName() const = 0;

  /// Full reset (also clears the error flag and output FIFO).
  virtual void reset();

  /// Pops up to \p MaxWords words from the output FIFO.
  std::vector<uint32_t> drainOutput(size_t MaxWords);

  /// Pops up to \p MaxWords words from the output FIFO directly into
  /// \p Dst (no intermediate allocation). Returns the words copied.
  size_t drainOutputInto(uint32_t *Dst, size_t MaxWords);

  size_t outputAvailable() const { return OutputFifo.size() - OutputHead; }

  /// Compute cycles accumulated since the last call.
  double takeComputeCycles() {
    double Cycles = PendingComputeCycles;
    PendingComputeCycles = 0;
    return Cycles;
  }

  /// True after a protocol error (unknown opcode, buffer overflow). Tests
  /// assert this stays false.
  bool hadError() const { return ErrorFlag; }
  /// First error message of the run (the root cause).
  const std::string &errorMessage() const { return ErrorText; }
  /// Most recent error message (cascades are debuggable: first + last).
  const std::string &lastErrorMessage() const { return LastErrorText; }
  /// Monotone count of errors signalled since the last full reset.
  uint64_t errorCount() const { return ErrorCount; }

  /// Structured view of the model state: Fatal after a protocol error,
  /// Transient while a refused opcode awaits retry, Ok otherwise.
  AccelStatus status() const {
    if (ErrorFlag)
      return AccelStatus::Fatal;
    if (TransientPending)
      return AccelStatus::Transient;
    return AccelStatus::Ok;
  }

  /// Fault-injection hook (zero-cost when no injector is attached): the
  /// model consults the injector per opcode; the DMA engine harvests the
  /// resulting transient refusals and stall steps after each burst.
  void attachFaultInjector(FaultInjector *I) { Injector = I; }
  FaultInjector *faultInjector() const { return Injector; }

  /// True while the model refuses input after a transient-error fault.
  bool transientPending() const { return TransientPending; }
  const std::string &transientMessage() const { return TransientText; }
  /// Clears the transient refusal and returns how many stream words were
  /// dropped since it fired (including the refused opcode word) — exactly
  /// the suffix the DMA engine must re-send.
  size_t takeTransientDropped() {
    size_t Dropped = TransientDropped;
    TransientPending = false;
    TransientDropped = 0;
    return Dropped;
  }

  /// FSM stall steps accrued by injected stall faults since the last call.
  uint64_t takeStallSteps() {
    uint64_t Steps = PendingStallSteps;
    PendingStallSteps = 0;
    return Steps;
  }

  /// A fresh, fault-free instance of the same model (same geometry and
  /// element kind). The recovery layer uses it as the host-executed CPU
  /// fallback when retries are exhausted and no spare is attached.
  virtual std::unique_ptr<AcceleratorModel> cloneFresh() const;

protected:
  /// The engine's protocol table.
  virtual const protocol::Engine &protocolTable() const = 0;
  /// The buffer a \p F payload of \p Words words lands in (cfg words, A,
  /// B, Filter or Window), sized by the engine. Called when the payload
  /// starts.
  virtual uint32_t *payloadBuffer(protocol::Fill F, size_t Words) = 0;
  /// Runs the datapath side of a completed row's protocol::Effect bits.
  virtual void apply(uint8_t Effects) = 0;

  // The ingest loop's payload plumbing, protected so tests can pin the
  // out-of-protocol paths: called while no payload is due, each signals a
  // diagnosable error rather than touching a buffer.

  /// Copies \p Count payload words to the payload's write position.
  void copyIn(const uint32_t *Words, size_t Count);
  /// Completes the payload that has fully arrived.
  void finishBurst();

  void pushOutput(uint32_t Word) { OutputFifo.push_back(Word); }
  void reserveOutput(size_t Words) {
    OutputFifo.reserve(OutputFifo.size() + Words);
  }
  void chargeCompute(double Cycles) { PendingComputeCycles += Cycles; }
  void signalError(const std::string &Message) {
    ErrorFlag = true;
    ++ErrorCount;
    if (ErrorText.empty())
      ErrorText = Message;
    LastErrorText = Message;
  }

  /// Consults the injector for the opcode about to start. Returns true if
  /// the opcode must be refused (transient-error fault): the model then
  /// stays in its current state and drops the rest of the stream until the
  /// DMA engine harvests the refusal — which makes the behaviour identical
  /// under word-at-a-time and burst delivery.
  bool opcodeFaultRefusal(uint32_t Opcode);

  /// True when the model is dropping input (sticky error or pending
  /// transient refusal); counts the dropped words so the engine knows the
  /// exact suffix to retry.
  bool droppingInput(size_t Count) {
    if (ErrorFlag)
      return true;
    if (TransientPending) {
      TransientDropped += Count;
      return true;
    }
    return false;
  }

  /// Output FIFO as a flat vector + head cursor (a deque paid a chunked
  /// indirection per word). Drained storage is recycled: freed outright
  /// once fully drained, compacted once the dead prefix dominates — so
  /// persistent partial drains cannot grow the FIFO without bound.
  void recycleDrained() {
    if (OutputHead == OutputFifo.size()) {
      OutputFifo.clear();
      OutputHead = 0;
    } else if (OutputHead >= 1024 && OutputHead >= OutputFifo.size() / 2) {
      OutputFifo.erase(OutputFifo.begin(),
                       OutputFifo.begin() +
                           static_cast<std::ptrdiff_t>(OutputHead));
      OutputHead = 0;
    }
  }

  /// The configuration the engine's protocol rules read.
  protocol::Config Cfg;
  /// The payload arriving (v1's A-then-B burst fills A, then B).
  protocol::Fill Filling = protocol::Fill::None;

  std::vector<uint32_t> OutputFifo;
  size_t OutputHead = 0;
  double PendingComputeCycles = 0;
  // The two reasons droppingInput() drops words: a sticky error, and a
  // refused opcode not yet harvested (fault-hook state, see below).
  bool ErrorFlag = false;
  bool TransientPending = false;
  std::string ErrorText;
  std::string LastErrorText;
  uint64_t ErrorCount = 0;
  // Fault-hook state. The injector pointer survives reset() (the recovery
  // layer resets the model without forgetting the schedule); the pending
  // refusal/stall state does not.
  FaultInjector *Injector = nullptr;
  size_t TransientDropped = 0;
  std::string TransientText;
  uint64_t PendingStallSteps = 0;

private:
  void startOpcode(uint32_t Opcode);
  void startFill(protocol::Fill F);
  void finishRow(const protocol::Row &R);
  /// signalError() with the model name in front.
  void protocolError(const std::string &Message);

  // Ingest state: the row whose payload is arriving (null between
  // opcodes), where its next word lands and how many words are still
  // due.
  const protocol::Row *Active = nullptr;
  uint32_t *Dest = nullptr;
  size_t Remaining = 0;
};

/// Bit-level conversions between stream words and element values.
inline float wordToFloat(uint32_t Word) {
  float Result;
  __builtin_memcpy(&Result, &Word, sizeof(Result));
  return Result;
}
inline uint32_t floatToWord(float Value) {
  uint32_t Result;
  __builtin_memcpy(&Result, &Value, sizeof(Result));
  return Result;
}

/// Double -> int64 the way the modeled ARM host's VCVT converts: toward
/// zero, saturating outside int64, NaN to 0. Equal to static_cast<int64_t>
/// wherever that cast is defined; every executor and the datapath convert
/// integer results through it.
inline int64_t doubleToInt64(double Value) {
  if (std::fabs(Value) < 0x1p63) // false for NaN and for -2^63 itself
    return static_cast<int64_t>(Value);
  if (Value != Value)
    return 0;
  return Value < 0 ? INT64_MIN : INT64_MAX;
}

/// Element value -> stream word, matching the reference emission path.
template <ElemKind Kind> inline uint32_t valueToWord(double Value) {
  if constexpr (Kind == ElemKind::F32)
    return floatToWord(static_cast<float>(Value));
  else
    return static_cast<uint32_t>(static_cast<int32_t>(doubleToInt64(Value)));
}

} // namespace sim
} // namespace axi4mlir

#endif // AXI4MLIR_SIM_ACCELERATORMODEL_H
