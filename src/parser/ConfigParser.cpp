//===- ConfigParser.cpp - Configuration file parser implementation --------===//
//
// Part of the AXI4MLIR reproduction. MIT licensed.
//
//===----------------------------------------------------------------------===//

#include "parser/ConfigParser.h"

#include "parser/OpcodeParser.h"
#include "support/JSON.h"

#include <fstream>
#include <limits>
#include <sstream>

using namespace axi4mlir;
using namespace axi4mlir::parser;

static LogicalResult fail(std::string *Error, const std::string &Message) {
  if (Error)
    *Error = Message;
  return failure();
}

static LogicalResult parseCpu(const json::Value &Root, CpuInfo &Cpu,
                              std::string *Error) {
  const json::Value *CpuValue = Root.get("cpu");
  if (!CpuValue)
    return success(); // CPU section is optional; defaults model the A9.
  if (!CpuValue->isObject())
    return fail(Error, "'cpu' must be an object");
  if (const json::Value *Levels = CpuValue->get("cache-levels")) {
    if (!Levels->isArray())
      return fail(Error, "'cpu.cache-levels' must be an array");
    Cpu.CacheLevelBytes.clear();
    for (const json::Value &Level : Levels->array()) {
      if (!Level.isInt())
        return fail(Error, "'cpu.cache-levels' entries must be sizes");
      if (Level.asInt() <= 0)
        return fail(Error, "'cpu.cache-levels' entries must be positive "
                           "sizes, got " +
                               std::to_string(Level.asInt()));
      Cpu.CacheLevelBytes.push_back(Level.asInt());
    }
  }
  if (const json::Value *Types = CpuValue->get("cache-types")) {
    if (!Types->isArray())
      return fail(Error, "'cpu.cache-types' must be an array");
    Cpu.CacheTypes.clear();
    for (const json::Value &TypeName : Types->array())
      Cpu.CacheTypes.push_back(TypeName.asString());
  }
  return success();
}

/// Post-parse reference validation of an accelerator's opcode_map: every
/// action index must resolve against the declared 'data' operands and
/// 'dims' names, so a config typo like send(9) is diagnosed at load time
/// by opcode name instead of surfacing as a runtime lowering failure (or,
/// for send_dim, an out-of-range memref dimension read).
static LogicalResult validateOpcodeActions(const AcceleratorDesc &Accel,
                                           std::string *Error) {
  auto failAction = [&](const std::string &Opcode,
                        const std::string &Message) {
    return fail(Error, "in opcode_map of '" + Accel.Name + "': opcode '" +
                           Opcode + "': " + Message);
  };
  int64_t NumOperands = static_cast<int64_t>(Accel.Data.size());
  int64_t NumDims = static_cast<int64_t>(Accel.Dims.size());
  for (const accel::OpcodeEntry &Entry : Accel.OpcodeMap.Entries) {
    for (const accel::OpcodeAction &Action : Entry.Actions) {
      switch (Action.ActionKind) {
      case accel::OpcodeAction::Kind::SendLiteral:
        break;
      case accel::OpcodeAction::Kind::Send:
      case accel::OpcodeAction::Kind::Recv: {
        const char *What =
            Action.ActionKind == accel::OpcodeAction::Kind::Send ? "send"
                                                                 : "recv";
        if (Action.ArgIndex < 0 ||
            (NumOperands > 0 && Action.ArgIndex >= NumOperands))
          return failAction(
              Entry.Name,
              std::string(What) + "(" + std::to_string(Action.ArgIndex) +
                  ") references an operand but 'data' defines " +
                  std::to_string(NumOperands) + " operand(s)");
        break;
      }
      case accel::OpcodeAction::Kind::SendDim:
        if (Action.ArgIndex >= 0) {
          if (NumOperands > 0 && Action.ArgIndex >= NumOperands)
            return failAction(
                Entry.Name,
                "send_dim(" + std::to_string(Action.ArgIndex) + ", " +
                    std::to_string(Action.DimIndex) +
                    ") references an operand but 'data' defines " +
                    std::to_string(NumOperands) + " operand(s)");
          if (NumOperands > 0) {
            const auto &Operand = Accel.Data[Action.ArgIndex];
            int64_t Rank = static_cast<int64_t>(Operand.second.size());
            if (Action.DimIndex < 0 || Action.DimIndex >= Rank)
              return failAction(
                  Entry.Name,
                  "send_dim(" + std::to_string(Action.ArgIndex) + ", " +
                      std::to_string(Action.DimIndex) +
                      ") references dimension " +
                      std::to_string(Action.DimIndex) + " but operand '" +
                      Operand.first + "' has rank " + std::to_string(Rank));
          }
          break;
        }
        [[fallthrough]];
      case accel::OpcodeAction::Kind::SendIdx:
        if (Action.DimIndex < 0 ||
            (NumDims > 0 && Action.DimIndex >= NumDims))
          return failAction(
              Entry.Name,
              std::string(Action.ActionKind ==
                                  accel::OpcodeAction::Kind::SendIdx
                              ? "send_idx"
                              : "send_dim") +
                  "(" + std::to_string(Action.DimIndex) +
                  ") references a kernel dimension but 'dims' defines " +
                  std::to_string(NumDims) + " name(s)");
        break;
      }
    }
  }
  return success();
}

/// Rejects empty `()` scopes anywhere in a flow: an empty scope stands
/// for a loop nest that issues no opcodes, which is always a config
/// mistake (typically an editing leftover) and would silently drop a
/// level of the intended tiling structure.
static LogicalResult validateFlowScopes(const accel::FlowScope &Scope,
                                        const AcceleratorDesc &Accel,
                                        const std::string &Where,
                                        std::string *Error) {
  if (Scope.Items.empty())
    return fail(Error, "in " + Where + " of '" + Accel.Name +
                           "': empty '()' scope (a scope must contain at "
                           "least one opcode or nested scope)");
  for (const accel::FlowItem &Item : Scope.Items)
    if (Item.Scope)
      if (failed(validateFlowScopes(*Item.Scope, Accel, Where, Error)))
        return failure();
  return success();
}

static LogicalResult parseDmaConfig(const json::Value &AccelValue,
                                    accel::DmaInitConfig &Config,
                                    std::string *Error) {
  const json::Value *Dma = AccelValue.get("dma_config");
  if (!Dma)
    return success(); // Optional; defaults are fine for simulation.
  if (!Dma->isObject())
    return fail(Error, "'dma_config' must be an object");
  Config.DmaId = Dma->getInt("id", Config.DmaId);
  Config.InputAddress = Dma->getInt("inputAddress", Config.InputAddress);
  Config.InputBufferSize =
      Dma->getInt("inputBufferSize", Config.InputBufferSize);
  Config.OutputAddress = Dma->getInt("outputAddress", Config.OutputAddress);
  Config.OutputBufferSize =
      Dma->getInt("outputBufferSize", Config.OutputBufferSize);
  // 0 selects the default size; a negative one has no meaning.
  for (const char *Key : {"inputBufferSize", "outputBufferSize"}) {
    int64_t Size = Dma->getInt(Key, 0);
    if (Size < 0)
      return fail(Error, std::string("'dma_config.") + Key +
                             "' must not be negative (got " +
                             std::to_string(Size) + ")");
  }
  return success();
}

static LogicalResult parseAccelerator(const json::Value &AccelValue,
                                      AcceleratorDesc &Accel,
                                      std::string *Error) {
  if (!AccelValue.isObject())
    return fail(Error, "accelerator entries must be objects");

  Accel.Name = AccelValue.getString("name", "unnamed");
  if (const json::Value *Version = AccelValue.get("version")) {
    if (Version->isString())
      Accel.Version = Version->asString();
    else if (Version->isDouble() || Version->isInt()) {
      std::ostringstream OS;
      OS << Version->asDouble();
      Accel.Version = OS.str();
    }
  }
  Accel.Description = AccelValue.getString("description");
  Accel.Kernel = AccelValue.getString("kernel");
  if (Accel.Kernel.empty())
    return fail(Error, "accelerator '" + Accel.Name + "' needs a 'kernel'");
  Accel.DataType = AccelValue.getString("data_type", "f32");

  if (failed(parseDmaConfig(AccelValue, Accel.DmaConfig, Error)))
    return failure();
  // Default staging buffer sizes if the config omitted them.
  if (Accel.DmaConfig.InputBufferSize == 0)
    Accel.DmaConfig.InputBufferSize = 0xFF00;
  if (Accel.DmaConfig.OutputBufferSize == 0)
    Accel.DmaConfig.OutputBufferSize = 0xFF00;
  if (Accel.DmaConfig.OutputAddress == 0)
    Accel.DmaConfig.OutputAddress =
        Accel.DmaConfig.InputAddress + Accel.DmaConfig.InputBufferSize + 0x42;

  const json::Value *Size = AccelValue.get("accel_size");
  if (!Size)
    return fail(Error,
                "accelerator '" + Accel.Name + "' needs 'accel_size'");
  if (Size->isInt()) {
    Accel.AccelSize.assign(3, Size->asInt());
  } else if (Size->isArray()) {
    for (const json::Value &Dim : Size->array()) {
      if (!Dim.isInt())
        return fail(Error, "'accel_size' entries must be integers");
      if (Dim.asInt() < -1)
        return fail(Error, "accelerator '" + Accel.Name +
                               "': 'accel_size' entries must be >= -1 "
                               "(got " + std::to_string(Dim.asInt()) + ")");
      Accel.AccelSize.push_back(Dim.asInt());
    }
  } else {
    return fail(Error, "'accel_size' must be an integer or array");
  }

  if (const json::Value *Dims = AccelValue.get("dims")) {
    if (!Dims->isArray())
      return fail(Error, "'dims' must be an array of dimension names");
    for (const json::Value &Dim : Dims->array())
      Accel.Dims.push_back(Dim.asString());
  }
  if (!Accel.Dims.empty() && Accel.Dims.size() != Accel.AccelSize.size())
    return fail(Error, "'dims' and 'accel_size' length mismatch");

  if (const json::Value *Data = AccelValue.get("data")) {
    if (!Data->isObject())
      return fail(Error, "'data' must be an object");
    for (const auto &[OperandName, DimList] : Data->members()) {
      std::vector<std::string> DimNames;
      if (!DimList.isArray())
        return fail(Error, "'data' entries must be dimension arrays");
      for (const json::Value &Dim : DimList.array())
        DimNames.push_back(Dim.asString());
      Accel.Data.emplace_back(OperandName, std::move(DimNames));
    }
  }

  // opcode_map.
  std::string MapText = AccelValue.getString("opcode_map");
  if (MapText.empty())
    return fail(Error,
                "accelerator '" + Accel.Name + "' needs an 'opcode_map'");
  std::string ParseError;
  auto Map = parseOpcodeMap(MapText, &ParseError,
                            Accel.Dims.empty() ? nullptr : &Accel.Dims);
  if (failed(Map))
    return fail(Error, "in opcode_map of '" + Accel.Name + "': " + ParseError);
  Accel.OpcodeMap = std::move(*Map);
  if (failed(validateOpcodeActions(Accel, Error)))
    return failure();

  // opcode_flow_map + selected_flow.
  const json::Value *FlowMap = AccelValue.get("opcode_flow_map");
  if (!FlowMap || !FlowMap->isObject())
    return fail(Error, "accelerator '" + Accel.Name +
                           "' needs an 'opcode_flow_map' object");
  for (const auto &[FlowId, FlowText] : FlowMap->members()) {
    if (!FlowText.isString())
      return fail(Error, "flow '" + FlowId + "' must be a string");
    auto Flow = parseOpcodeFlow(FlowText.asString(), &ParseError);
    if (failed(Flow))
      return fail(Error, "in flow '" + FlowId + "': " + ParseError);
    if (failed(validateFlowAgainstMap(*Flow, Accel.OpcodeMap, &ParseError)))
      return fail(Error, "in flow '" + FlowId + "': " + ParseError);
    if (failed(validateFlowScopes(Flow->Root, Accel, "flow '" + FlowId + "'",
                                  Error)))
      return failure();
    Accel.FlowMap.emplace_back(FlowId, std::move(*Flow));
  }
  Accel.SelectedFlow = AccelValue.getString("selected_flow");
  if (Accel.SelectedFlow.empty() && !Accel.FlowMap.empty())
    Accel.SelectedFlow = Accel.FlowMap.front().first;
  if (!Accel.lookupFlow(Accel.SelectedFlow))
    return fail(Error, "selected_flow '" + Accel.SelectedFlow +
                           "' is not defined in opcode_flow_map");

  // init_opcodes (optional).
  std::string InitText = AccelValue.getString("init_opcodes");
  if (!InitText.empty()) {
    auto Init = parseOpcodeFlow(InitText, &ParseError);
    if (failed(Init))
      return fail(Error,
                  "in init_opcodes of '" + Accel.Name + "': " + ParseError);
    if (failed(validateFlowAgainstMap(*Init, Accel.OpcodeMap, &ParseError)))
      return fail(Error,
                  "in init_opcodes of '" + Accel.Name + "': " + ParseError);
    if (failed(validateFlowScopes(Init->Root, Accel, "init_opcodes", Error)))
      return failure();
    Accel.InitOpcodes = std::move(*Init);
  }

  // Optional explicit permutation.
  if (const json::Value *Perm = AccelValue.get("permutation")) {
    if (!Perm->isArray())
      return fail(Error, "'permutation' must be an array");
    std::vector<unsigned> Permutation;
    for (const json::Value &Entry : Perm->array()) {
      if (Entry.isInt()) {
        Permutation.push_back(static_cast<unsigned>(Entry.asInt()));
        continue;
      }
      // Dimension name.
      bool Found = false;
      for (size_t I = 0; I < Accel.Dims.size(); ++I) {
        if (Accel.Dims[I] == Entry.asString()) {
          Permutation.push_back(static_cast<unsigned>(I));
          Found = true;
          break;
        }
      }
      if (!Found)
        return fail(Error, "unknown dimension '" + Entry.asString() +
                               "' in 'permutation'");
    }
    Accel.Permutation = std::move(Permutation);
  }

  return success();
}

static LogicalResult parseFaultEvent(const json::Value &EventValue,
                                     sim::FaultEvent &Event,
                                     std::string *Error) {
  if (!EventValue.isObject())
    return fail(Error, "'faults.events' entries must be objects");
  std::string Kind = EventValue.getString("kind");
  if (Kind == "drop")
    Event.Kind = sim::FaultKind::DropSend;
  else if (Kind == "truncate")
    Event.Kind = sim::FaultKind::TruncateSend;
  else if (Kind == "corrupt")
    Event.Kind = sim::FaultKind::CorruptWord;
  else if (Kind == "transient")
    Event.Kind = sim::FaultKind::TransientError;
  else if (Kind == "stall")
    Event.Kind = sim::FaultKind::Stall;
  else
    return fail(Error, "unknown fault kind '" + Kind +
                           "' (expected drop, truncate, corrupt, "
                           "transient or stall)");

  const json::Value *At = EventValue.get("at");
  if (!At || !At->isInt() || At->asInt() < 0)
    return fail(Error, "fault event '" + Kind +
                           "' needs a non-negative integer 'at' index");
  Event.At = static_cast<uint64_t>(At->asInt());

  // Value rules (attempts >= 1, ...) are sim::checkFaultPlan's, applied
  // to the whole schedule; here each value only has to fit its field.
  std::string NarrowError;
  if (failed(sim::narrowFaultCount("attempts", EventValue.getInt("attempts", 1),
                                   Event.Attempts, NarrowError)) ||
      failed(sim::narrowFaultCount("word", EventValue.getInt("word", 0),
                                   Event.WordIndex, NarrowError)) ||
      failed(sim::narrowFaultCount("xor", EventValue.getInt("xor", 1),
                                   Event.XorMask, NarrowError)))
    return fail(Error, NarrowError);
  int64_t Steps = EventValue.getInt("steps", 128);
  if (Steps < 0)
    return fail(Error, "'steps' (" + std::to_string(Steps) +
                           ") must not be negative");
  Event.Steps = static_cast<uint64_t>(Steps);
  return success();
}

static LogicalResult parseFaults(const json::Value &Root, SystemConfig &Config,
                                 std::string *Error) {
  const json::Value *Faults = Root.get("faults");
  if (!Faults)
    return success(); // Optional: absent means fault-free, hooks stay cold.
  if (!Faults->isObject())
    return fail(Error, "'faults' must be an object");
  Config.HasFaults = true;

  if (const json::Value *Events = Faults->get("events")) {
    if (!Events->isArray())
      return fail(Error, "'faults.events' must be an array");
    size_t Index = 0;
    for (const json::Value &EventValue : Events->array()) {
      sim::FaultEvent Event;
      std::string EventError;
      if (failed(parseFaultEvent(EventValue, Event, &EventError)))
        return fail(Error, "in faults.events[" + std::to_string(Index) +
                               "]: " + EventError);
      Config.Faults.Events.push_back(Event);
      ++Index;
    }
  }

  sim::RecoveryPolicy &Policy = Config.Faults.Recovery;
  if (const json::Value *Recover = Faults->get("recover")) {
    if (!Recover->isBool())
      return fail(Error, "'faults.recover' must be a boolean");
    Policy.Enabled = Recover->asBool();
  }
  int64_t Retries = Faults->getInt("retries", Policy.MaxRetries);
  int64_t Watchdog = Faults->getInt("watchdog", Policy.WatchdogPolls);
  int64_t Backoff = Faults->getInt("backoff", Policy.BackoffCycles);
  int64_t Poll = Faults->getInt("poll", Policy.PollCycles);
  if (Retries < 0 || Watchdog < 0 || Backoff < 0 || Poll < 0)
    return fail(Error, "'faults' policy fields out of range (retries, "
                       "watchdog, backoff and poll must not be negative)");
  std::string NarrowError;
  if (failed(sim::narrowFaultCount("faults.retries", Retries,
                                   Policy.MaxRetries, NarrowError)))
    return fail(Error, NarrowError);
  Policy.WatchdogPolls = static_cast<uint64_t>(Watchdog);
  Policy.BackoffCycles = static_cast<uint64_t>(Backoff);
  Policy.PollCycles = static_cast<uint64_t>(Poll);

  int64_t Spares = Faults->getInt("spares", 0);
  if (Spares < 0)
    return fail(Error, "'faults.spares' must be >= 0");
  Config.SpareAccelerators = static_cast<unsigned>(Spares);

  // Optional deterministic random schedule appended to the explicit events.
  if (const json::Value *Random = Faults->get("random")) {
    if (!Random->isObject())
      return fail(Error, "'faults.random' must be an object");
    int64_t Count = Random->getInt("count", 1);
    int64_t Max = Random->getInt("max", 64);
    if (Count < 1 || Max < 1)
      return fail(Error, "'faults.random' count and max must be >= 1");
    uint32_t Seed = 0, Count32 = 0;
    if (failed(sim::narrowFaultCount("faults.random.seed",
                                     Random->getInt("seed", 0), Seed,
                                     NarrowError)) ||
        failed(sim::narrowFaultCount("faults.random.count", Count, Count32,
                                     NarrowError)))
      return fail(Error, NarrowError);
    sim::FaultPlan Generated =
        sim::makeRandomFaultPlan(Seed, Count32, static_cast<uint64_t>(Max));
    Config.Faults.Events.insert(Config.Faults.Events.end(),
                                Generated.Events.begin(),
                                Generated.Events.end());
  }

  std::string RuleError;
  if (failed(sim::checkFaultPlan(Config.Faults, RuleError)))
    return fail(Error, "in 'faults': " + RuleError);
  return success();
}

/// Serve counts are stored as unsigned; a larger value would wrap (a
/// queue depth of 2^32 would become 0 and shed every job).
static LogicalResult checkFitsUnsigned(const char *Key, int64_t Value,
                                       std::string *Error) {
  if (Value <= std::numeric_limits<unsigned>::max())
    return success();
  return fail(Error, std::string("'serve.") + Key + "' (" +
                         std::to_string(Value) + ") does not fit in " +
                         std::to_string(std::numeric_limits<unsigned>::digits) +
                         " bits");
}

static LogicalResult parseServe(const json::Value &Root, SystemConfig &Config,
                                std::string *Error) {
  const json::Value *Serve = Root.get("serve");
  if (!Serve)
    return success(); // Optional: defaults apply when absent.
  if (!Serve->isObject())
    return fail(Error, "'serve' must be an object");
  Config.HasServe = true;
  ServeSection &S = Config.Serve;

  int64_t Instances = Serve->getInt("instances", S.Instances);
  int64_t QueueDepth = Serve->getInt("queue_depth", S.QueueDepth);
  int64_t MaxAttempts = Serve->getInt("max_attempts", S.MaxAttempts);
  int64_t Threshold = Serve->getInt("breaker_threshold", S.BreakerThreshold);
  int64_t Cooldown = Serve->getInt("breaker_cooldown", S.BreakerCooldown);
  int64_t PlanCache = Serve->getInt("plan_cache", S.PlanCacheCapacity);
  int64_t Threads = Serve->getInt("threads", S.Threads);
  if (Instances < 1 || QueueDepth < 1 || MaxAttempts < 1 || Threshold < 1)
    return fail(Error, "'serve' instances/queue_depth/max_attempts/"
                       "breaker_threshold must be >= 1");
  if (Cooldown < 0 || Threads < 0 || PlanCache < 1)
    return fail(Error, "'serve' breaker_cooldown/threads must be >= 0 and "
                       "plan_cache >= 1");
  const std::pair<const char *, int64_t> Counts[] = {
      {"instances", Instances},       {"queue_depth", QueueDepth},
      {"max_attempts", MaxAttempts},  {"breaker_threshold", Threshold},
      {"breaker_cooldown", Cooldown}, {"plan_cache", PlanCache},
      {"threads", Threads}};
  for (const auto &[Key, Value] : Counts)
    if (failed(checkFitsUnsigned(Key, Value, Error)))
      return failure();
  S.Instances = static_cast<unsigned>(Instances);
  S.QueueDepth = static_cast<unsigned>(QueueDepth);
  S.MaxAttempts = static_cast<unsigned>(MaxAttempts);
  S.BreakerThreshold = static_cast<unsigned>(Threshold);
  S.BreakerCooldown = static_cast<unsigned>(Cooldown);
  S.PlanCacheCapacity = static_cast<unsigned>(PlanCache);
  S.Threads = static_cast<unsigned>(Threads);

  if (const json::Value *Deadline = Serve->get("deadline_ms")) {
    if ((!Deadline->isDouble() && !Deadline->isInt()) ||
        Deadline->asDouble() < 0)
      return fail(Error, "'serve.deadline_ms' must be a non-negative number");
    S.DefaultDeadlineMs = Deadline->asDouble();
  }
  if (const json::Value *Fallback = Serve->get("cpu_fallback")) {
    if (!Fallback->isBool())
      return fail(Error, "'serve.cpu_fallback' must be a boolean");
    S.CpuFallback = Fallback->asBool();
  }
  int64_t Faulty = Serve->getInt("faulty_instance", -1);
  if (Faulty < -1 || Faulty >= Instances)
    return fail(Error, "'serve.faulty_instance' must name a pool instance "
                       "(0 <= index < instances, or -1 for none)");
  S.FaultyInstance = Faulty;
  if (Faulty >= 0 && !Config.HasFaults)
    return fail(Error, "'serve.faulty_instance' requires a 'faults' section "
                       "supplying the schedule to assign");
  int64_t FaultyJobs = Serve->getInt("faulty_jobs", 0);
  if (FaultyJobs < 0)
    return fail(Error, "'serve.faulty_jobs' must be >= 0");
  if (failed(checkFitsUnsigned("faulty_jobs", FaultyJobs, Error)))
    return failure();
  S.FaultyJobs = static_cast<unsigned>(FaultyJobs);
  return success();
}

FailureOr<SystemConfig> parser::parseSystemConfig(const std::string &Text,
                                                  std::string *Error) {
  std::string JsonError;
  auto Root = json::parse(Text, &JsonError);
  if (failed(Root))
    return (void)fail(Error, "configuration is not valid JSON: " + JsonError),
           failure();
  if (!Root->isObject())
    return (void)fail(Error, "configuration root must be an object"),
           failure();

  SystemConfig Config;
  if (failed(parseCpu(*Root, Config.Cpu, Error)))
    return failure();
  if (failed(parseFaults(*Root, Config, Error)))
    return failure();

  const json::Value *Accels = Root->get("accelerators");
  if (!Accels || !Accels->isArray())
    return (void)fail(Error, "configuration needs an 'accelerators' array"),
           failure();
  // Every entry must parse cleanly, not just the first one the pipeline
  // happens to use: since the planning layer dispatches across the whole
  // array, a malformed trailing entry is a hard error.
  size_t EntryIndex = 0;
  for (const json::Value &AccelValue : Accels->array()) {
    AcceleratorDesc Accel;
    std::string EntryError;
    if (failed(parseAccelerator(AccelValue, Accel, &EntryError))) {
      if (Error)
        *Error = "in accelerators[" + std::to_string(EntryIndex) +
                 "]: " + EntryError;
      return failure();
    }
    Config.Accelerators.push_back(std::move(Accel));
    ++EntryIndex;
  }
  if (Config.Accelerators.empty())
    return (void)fail(Error, "configuration defines no accelerators"),
           failure();
  // Names must be unique so plan diagnostics and dispatch are unambiguous.
  for (size_t I = 0; I < Config.Accelerators.size(); ++I)
    for (size_t J = I + 1; J < Config.Accelerators.size(); ++J)
      if (Config.Accelerators[I].Name == Config.Accelerators[J].Name)
        return (void)fail(Error, "duplicate accelerator name '" +
                                     Config.Accelerators[I].Name + "'"),
               failure();
  // Spares are per-primary clones: asking for more spares than configured
  // accelerators cannot be honoured and previously degraded silently.
  if (Config.SpareAccelerators > Config.Accelerators.size())
    return (void)fail(Error,
                      "'faults.spares' (" +
                          std::to_string(Config.SpareAccelerators) +
                          ") exceeds the number of configured accelerators (" +
                          std::to_string(Config.Accelerators.size()) + ")"),
           failure();
  if (failed(parseServe(*Root, Config, Error)))
    return failure();
  return Config;
}

FailureOr<SystemConfig> parser::parseSystemConfigFile(const std::string &Path,
                                                      std::string *Error) {
  std::ifstream Input(Path);
  if (!Input) {
    if (Error)
      *Error = "cannot open configuration file '" + Path + "'";
    return failure();
  }
  std::ostringstream Contents;
  Contents << Input.rdbuf();
  return parseSystemConfig(Contents.str(), Error);
}

FailureOr<sim::SoCParams> parser::makeSoCParams(const CpuInfo &Cpu,
                                                std::string *Error) {
  sim::SoCParams Params;
  Params.L2SizeBytes = Cpu.lastLevelCacheBytes();
  int64_t SetBytes = Params.L2Associativity * Params.CacheLineBytes;
  if (Params.L2SizeBytes < SetBytes)
    return fail(Error, "'cpu.cache-levels' last level (" +
                           std::to_string(Params.L2SizeBytes) +
                           " B) is smaller than one L2 set (" +
                           std::to_string(Params.L2Associativity) +
                           " ways x " +
                           std::to_string(Params.CacheLineBytes) + " B = " +
                           std::to_string(SetBytes) + " B)");
  return Params;
}
