//===- AcceleratorModel.cpp - Table-driven accelerator ingest -------------===//
//
// Part of the AXI4MLIR reproduction. MIT licensed.
//
//===----------------------------------------------------------------------===//

#include "sim/AcceleratorModel.h"

#include <algorithm>

using namespace axi4mlir;
using namespace axi4mlir::sim;

AcceleratorModel::~AcceleratorModel() = default;

void AcceleratorModel::consumeBurst(const uint32_t *Words, size_t Count) {
  while (Count > 0) {
    if (droppingInput(Count))
      return; // drop the rest of the stream
    if (!Active) {
      uint32_t Opcode = *Words++;
      --Count;
      // A refused opcode counts as dropped.
      if (!Injector || !opcodeFaultRefusal(Opcode))
        startOpcode(Opcode);
      continue;
    }
    // Absorb as much of the pending payload as this transfer holds in
    // one shot: no per-word step, no staging copy.
    size_t Take = std::min(Count, Remaining);
    copyIn(Words, Take);
    Words += Take;
    Count -= Take;
    if (Remaining == 0)
      finishBurst();
  }
}

void AcceleratorModel::startOpcode(uint32_t Opcode) {
  const protocol::Row *R = protocol::lookup(protocolTable(), Cfg, Opcode);
  if (!R) {
    protocolError(protocol::unsupportedMessage(Opcode));
    return;
  }
  if (R->Payload == protocol::Fill::None) {
    finishRow(*R);
    return;
  }
  Active = R;
  startFill(R->Payload == protocol::Fill::AThenB ? protocol::Fill::A
                                                 : R->Payload);
}

void AcceleratorModel::startFill(protocol::Fill F) {
  Filling = F;
  Remaining = static_cast<size_t>(F == protocol::Fill::Cfg
                                      ? Active->NumSets
                                      : protocol::fillWords(F, Cfg));
  Dest = payloadBuffer(F, Remaining);
}

void AcceleratorModel::copyIn(const uint32_t *Words, size_t Count) {
  if (!Active) {
    // Out-of-protocol use; diagnosable in every build type.
    protocolError("copyIn in Idle state (protocol violation)");
    return;
  }
  std::memcpy(Dest, Words, Count * sizeof(uint32_t));
  Dest += Count;
  Remaining -= Count;
}

void AcceleratorModel::finishBurst() {
  if (!Active) {
    protocolError("finishBurst in Idle state (protocol violation)");
    return;
  }
  if (Active->Payload == protocol::Fill::AThenB &&
      Filling == protocol::Fill::A) {
    startFill(protocol::Fill::B);
    return;
  }
  const protocol::Row &R = *Active;
  Active = nullptr;
  finishRow(R);
}

void AcceleratorModel::finishRow(const protocol::Row &R) {
  // A cfg payload is the NumSets words copied in just before Dest.
  int64_t Staged[3] = {};
  if (R.Payload == protocol::Fill::Cfg)
    std::copy(Dest - R.NumSets, Dest, Staged);
  std::string Error = protocol::complete(R, Cfg, Staged);
  if (Error.empty())
    apply(R.Effects);
  else
    protocolError(Error);
}

void AcceleratorModel::protocolError(const std::string &Message) {
  signalError(getName() + ": " + Message);
}

void AcceleratorModel::reset() {
  OutputFifo.clear();
  OutputHead = 0;
  PendingComputeCycles = 0;
  ErrorFlag = false;
  ErrorText.clear();
  LastErrorText.clear();
  ErrorCount = 0;
  // Pending fault state clears; the attached injector (and its logical
  // cursors) survives, so a recovery reset does not forget the schedule.
  TransientPending = false;
  TransientDropped = 0;
  TransientText.clear();
  PendingStallSteps = 0;
  Active = nullptr;
  Remaining = 0;
}

std::unique_ptr<AcceleratorModel> AcceleratorModel::cloneFresh() const {
  return nullptr;
}

bool AcceleratorModel::opcodeFaultRefusal(uint32_t Opcode) {
  if (!Injector)
    return false;
  const FaultEvent *Event = Injector->onOpcode();
  if (!Event)
    return false;
  if (Event->Kind == FaultKind::Stall) {
    PendingStallSteps += Event->Steps;
    return false;
  }
  TransientPending = true;
  TransientDropped = 1; // the refused opcode word itself
  TransientText = getName() + ": " + describeFault(*Event) +
                  " refused opcode " + formatOpcode(Opcode);
  return true;
}

std::vector<uint32_t> AcceleratorModel::drainOutput(size_t MaxWords) {
  size_t Count = std::min(MaxWords, outputAvailable());
  std::vector<uint32_t> Result(OutputFifo.begin() + OutputHead,
                               OutputFifo.begin() + OutputHead + Count);
  OutputHead += Count;
  recycleDrained();
  return Result;
}

size_t AcceleratorModel::drainOutputInto(uint32_t *Dst, size_t MaxWords) {
  size_t Count = std::min(MaxWords, outputAvailable());
  std::memcpy(Dst, OutputFifo.data() + OutputHead, Count * sizeof(uint32_t));
  OutputHead += Count;
  recycleDrained();
  return Count;
}
