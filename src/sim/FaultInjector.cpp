//===- FaultInjector.cpp - Deterministic SoC fault injection --------------===//
//
// Part of the AXI4MLIR reproduction. MIT licensed.
//
//===----------------------------------------------------------------------===//

#include "sim/FaultInjector.h"

#include <charconv>
#include <limits>
#include <random>

using namespace axi4mlir;
using namespace axi4mlir::sim;

const char *sim::toString(FaultKind Kind) {
  switch (Kind) {
  case FaultKind::DropSend:
    return "drop";
  case FaultKind::TruncateSend:
    return "truncate";
  case FaultKind::CorruptWord:
    return "corrupt";
  case FaultKind::TransientError:
    return "transient";
  case FaultKind::Stall:
    return "stall";
  }
  return "unknown";
}

FaultEvent *FaultInjector::fire(uint64_t Index, bool Dma) {
  for (FaultEvent &Event : Plan.Events) {
    if (Event.At != Index || isDmaFault(Event.Kind) != Dma)
      continue;
    if (Event.Fired >= Event.Attempts)
      continue;
    ++Event.Fired;
    ++TotalFired;
    return &Event;
  }
  return nullptr;
}

const FaultEvent *FaultInjector::querySend() {
  return fire(SendCursor, /*Dma=*/true);
}

const FaultEvent *FaultInjector::onOpcode() {
  const FaultEvent *Event = fire(OpcodeCursor, /*Dma=*/false);
  // A transient-error refusal leaves the cursor in place: the retry
  // re-presents the same opcode (and re-queries the same event). Stalls
  // and clean opcodes commit.
  if (!Event || Event->Kind != FaultKind::TransientError)
    ++OpcodeCursor;
  return Event;
}

std::string sim::describeFault(const FaultEvent &Event) {
  std::string Text = std::string("injected ") + toString(Event.Kind);
  switch (Event.Kind) {
  case FaultKind::DropSend:
    Text += "-burst fault";
    break;
  case FaultKind::TruncateSend:
    Text += "d-burst fault";
    break;
  case FaultKind::CorruptWord:
    Text += "-word fault (word " + std::to_string(Event.WordIndex) + ")";
    break;
  case FaultKind::TransientError:
    Text += "-error fault";
    break;
  case FaultKind::Stall:
    Text += " fault (" + std::to_string(Event.Steps) + " steps)";
    break;
  }
  return Text;
}

FaultPlan sim::makeRandomFaultPlan(uint32_t Seed, unsigned Count,
                                   uint64_t MaxIndex) {
  FaultPlan Plan;
  std::mt19937 Rng(Seed);
  std::uniform_int_distribution<uint64_t> IndexDist(
      0, MaxIndex ? MaxIndex - 1 : 0);
  std::uniform_int_distribution<int> KindDist(0, 4);
  std::uniform_int_distribution<uint64_t> StepsDist(1, 128);
  std::uniform_int_distribution<uint32_t> WordDist(0, 15);
  for (unsigned I = 0; I < Count; ++I) {
    FaultEvent Event;
    Event.Kind = static_cast<FaultKind>(KindDist(Rng));
    Event.At = IndexDist(Rng);
    Event.Steps = StepsDist(Rng);
    Event.WordIndex = WordDist(Rng);
    Event.XorMask = 1u << (WordDist(Rng) & 31);
    Event.Random = true;
    Plan.Events.push_back(Event);
  }
  return Plan;
}

LogicalResult sim::narrowFaultCount(const std::string &Key, int64_t Value,
                                    uint32_t &Out, std::string &Error) {
  if (Value < 0) {
    Error = "'" + Key + "' (" + std::to_string(Value) +
            ") must not be negative";
    return failure();
  }
  if (Value > std::numeric_limits<uint32_t>::max()) {
    Error = "'" + Key + "' (" + std::to_string(Value) +
            ") does not fit in 32 bits";
    return failure();
  }
  Out = static_cast<uint32_t>(Value);
  return success();
}

/// "3 (stall@2)": an event's position in the plan and its spec.
static std::string eventName(size_t Index, const FaultEvent &Event) {
  return std::to_string(Index) + " (" + toString(Event.Kind) + "@" +
         std::to_string(Event.At) + ")";
}

LogicalResult sim::checkFaultPlan(const FaultPlan &Plan, std::string &Error) {
  auto Fail = [&](std::string Message) {
    Error = std::move(Message);
    return failure();
  };
  for (size_t I = 0; I < Plan.Events.size(); ++I) {
    const FaultEvent &A = Plan.Events[I];
    const char *Broken = A.Attempts < 1   ? "'attempts' must be >= 1"
                         : A.Steps < 1    ? "'steps' must be >= 1"
                         : A.XorMask == 0 ? "'xor' mask must be non-zero"
                                          : nullptr;
    if (Broken)
      return Fail("fault event " + eventName(I, A) + ": " + Broken);
    for (size_t J = I + 1; J < Plan.Events.size() && !A.Random; ++J) {
      const FaultEvent &B = Plan.Events[J];
      if (!B.Random && A.At == B.At && isDmaFault(A.Kind) == isDmaFault(B.Kind))
        return Fail("fault events " + eventName(I, A) + " and " +
                    eventName(J, B) + " both target " +
                    (isDmaFault(A.Kind) ? "send" : "opcode") + " index " +
                    std::to_string(A.At) + " (merge them or use 'attempts')");
    }
  }
  if (Plan.Recovery.WatchdogPolls < 1)
    return Fail("'watchdog' must be >= 1");
  if (Plan.Recovery.PollCycles < 1)
    return Fail("'poll' must be >= 1");
  return success();
}

namespace {

/// A non-negative decimal that fits int64_t.
bool parseCount(const std::string &Text, int64_t &Value) {
  if (Text.empty() || Text[0] == '-')
    return false;
  auto [Ptr, Ec] = std::from_chars(Text.data(), Text.data() + Text.size(),
                                   Value);
  return Ec == std::errc() && Ptr == Text.data() + Text.size();
}

/// Splits "a@b:c=d" style entries on a delimiter.
std::vector<std::string> split(const std::string &Text, char Sep) {
  std::vector<std::string> Parts;
  size_t Start = 0;
  for (size_t I = 0; I <= Text.size(); ++I) {
    if (I == Text.size() || Text[I] == Sep) {
      Parts.push_back(Text.substr(Start, I - Start));
      Start = I + 1;
    }
  }
  return Parts;
}

} // namespace

LogicalResult sim::parseFaultSpec(const std::string &Spec, FaultPlan &Plan,
                                  std::string &Error) {
  auto Fail = [&](const std::string &Message) {
    Error = "--faults: " + Message;
    return failure();
  };
  // Stores a parsed count in a 32-bit field without wrapping.
  auto Narrow = [&](const std::string &Key, int64_t Value, uint32_t &Out) {
    std::string NarrowError;
    if (succeeded(narrowFaultCount(Key, Value, Out, NarrowError)))
      return success();
    return Fail(NarrowError);
  };
  for (const std::string &Entry : split(Spec, ',')) {
    if (Entry.empty())
      continue;
    // Policy entries.
    if (Entry == "norecover") {
      Plan.Recovery.Enabled = false;
      continue;
    }
    size_t Eq = Entry.find('=');
    size_t At = Entry.find('@');
    if (At == std::string::npos && Eq != std::string::npos) {
      std::string Key = Entry.substr(0, Eq);
      int64_t Value = 0;
      if (Key == "rand") {
        // rand=SEED:n=COUNT[:max=M]
        std::vector<std::string> Parts = split(Entry, ':');
        int64_t Max = 64;
        uint32_t Seed = 0, Count = 0;
        if (!parseCount(Parts[0].substr(Eq + 1), Value))
          return Fail("bad seed in '" + Entry + "'");
        if (failed(Narrow("rand", Value, Seed)))
          return failure();
        for (size_t I = 1; I < Parts.size(); ++I) {
          size_t E = Parts[I].find('=');
          if (E == std::string::npos)
            return Fail("expected key=value in '" + Entry + "'");
          std::string K = Parts[I].substr(0, E);
          int64_t V = 0;
          if (!parseCount(Parts[I].substr(E + 1), V))
            return Fail("bad number in '" + Entry + "'");
          if (K == "n") {
            if (failed(Narrow("n", V, Count)))
              return failure();
          } else if (K == "max") {
            Max = V;
          } else {
            return Fail("unknown key '" + K + "' in '" + Entry + "'");
          }
        }
        FaultPlan Random =
            makeRandomFaultPlan(Seed, Count, static_cast<uint64_t>(Max));
        Plan.Events.insert(Plan.Events.end(), Random.Events.begin(),
                           Random.Events.end());
        continue;
      }
      if (!parseCount(Entry.substr(Eq + 1), Value))
        return Fail("bad number in '" + Entry + "'");
      if (Key == "retries") {
        if (failed(Narrow(Key, Value, Plan.Recovery.MaxRetries)))
          return failure();
      } else if (Key == "watchdog") {
        Plan.Recovery.WatchdogPolls = static_cast<uint64_t>(Value);
      } else if (Key == "backoff") {
        Plan.Recovery.BackoffCycles = static_cast<uint64_t>(Value);
      } else {
        return Fail("unknown policy key '" + Key + "'");
      }
      continue;
    }
    // Event entries: kind@INDEX[:key=value...]
    if (At == std::string::npos)
      return Fail("expected kind@index in '" + Entry + "'");
    std::vector<std::string> Parts = split(Entry, ':');
    std::string Kind = Parts[0].substr(0, At);
    FaultEvent Event;
    if (Kind == "drop")
      Event.Kind = FaultKind::DropSend;
    else if (Kind == "truncate")
      Event.Kind = FaultKind::TruncateSend;
    else if (Kind == "corrupt")
      Event.Kind = FaultKind::CorruptWord;
    else if (Kind == "transient")
      Event.Kind = FaultKind::TransientError;
    else if (Kind == "stall")
      Event.Kind = FaultKind::Stall;
    else
      return Fail("unknown fault kind '" + Kind + "'");
    int64_t Index = 0;
    if (!parseCount(Parts[0].substr(At + 1), Index))
      return Fail("bad index in '" + Entry + "'");
    Event.At = static_cast<uint64_t>(Index);
    Event.Steps = 128; // default stall length: past the default watchdog
    for (size_t I = 1; I < Parts.size(); ++I) {
      size_t E = Parts[I].find('=');
      if (E == std::string::npos)
        return Fail("expected key=value in '" + Entry + "'");
      std::string K = Parts[I].substr(0, E);
      int64_t V = 0;
      if (!parseCount(Parts[I].substr(E + 1), V))
        return Fail("bad number in '" + Entry + "'");
      if (K == "word") {
        if (failed(Narrow(K, V, Event.WordIndex)))
          return failure();
      } else if (K == "attempts") {
        if (failed(Narrow(K, V, Event.Attempts)))
          return failure();
      } else if (K == "steps") {
        Event.Steps = static_cast<uint64_t>(V);
      } else {
        return Fail("unknown key '" + K + "' in '" + Entry + "'");
      }
    }
    Plan.Events.push_back(Event);
  }
  std::string RuleError;
  if (failed(checkFaultPlan(Plan, RuleError)))
    return Fail(RuleError);
  return success();
}
