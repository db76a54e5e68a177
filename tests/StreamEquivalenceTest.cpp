//===- StreamEquivalenceTest.cpp - word vs. burst ingest equivalence ------===//
//
// Part of the AXI4MLIR reproduction. MIT licensed.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The accelerator models' burst contract: consuming one opcode+data
/// stream word-at-a-time, as one giant burst, or split into arbitrary
/// randomized bursts must be observationally identical — same output FIFO
/// contents, same modeled compute cycles (bit-equal doubles), same error
/// behaviour. This is what licenses the DMA engine handing the ingest
/// loop whole staged regions.
///
/// The same streams pin the model-vs-simulator contract: the static
/// analysis::ProtocolModel, fed each stream word by word as constants,
/// reports its first error on the word where the engine raises its first
/// error, and until then predicts the engine's output FIFO depth after
/// every word. A seeded random sweep (AXI4MLIR_FUZZ_SEED /
/// AXI4MLIR_FUZZ_CASES widen it) extends both contracts to legal and
/// illegal opcodes, out-of-range cfg words and mis-sized payloads.
///
//===----------------------------------------------------------------------===//

#include "analysis/ProtocolModel.h"
#include "sim/SoC.h"

#include <gtest/gtest.h>

#include <cstdlib>
#include <functional>
#include <random>

using namespace axi4mlir;
using namespace axi4mlir::sim;
using namespace axi4mlir::sim::opcodes;

namespace {

using ModelFactory = std::function<std::unique_ptr<AcceleratorModel>()>;

/// An engine under test: fresh simulator instances and the static
/// protocol model of the same engine.
struct Subject {
  ModelFactory Make;
  analysis::ProtocolModel Model;
};

/// Observable state after a stream has been consumed.
struct Observation {
  std::vector<uint32_t> Output;
  double ComputeCycles;
  bool HadError;
  std::string ErrorText;
};

Observation observe(AcceleratorModel &Model) {
  Observation Obs;
  Obs.Output = Model.drainOutput(Model.outputAvailable());
  Obs.ComputeCycles = Model.takeComputeCycles();
  Obs.HadError = Model.hadError();
  Obs.ErrorText = Model.errorMessage();
  return Obs;
}

void expectSameObservation(const Observation &Ref, const Observation &Got,
                           const std::string &What) {
  EXPECT_EQ(Ref.Output, Got.Output) << What;
  EXPECT_EQ(Ref.ComputeCycles, Got.ComputeCycles) << What; // bit-equal
  EXPECT_EQ(Ref.HadError, Got.HadError) << What;
  EXPECT_EQ(Ref.ErrorText, Got.ErrorText) << What;
}

/// The model-vs-simulator contract over \p Stream (see the file comment).
void checkModelContract(const Subject &S,
                        const std::vector<uint32_t> &Stream) {
  auto Engine = S.Make();
  analysis::ProtocolModel Model = S.Model;
  for (size_t I = 0; I < Stream.size(); ++I) {
    Engine->consumeWord(Stream[I]);
    std::string ModelError =
        Model.feedWord(analysis::AbstractWord::constant(Stream[I]));
    ASSERT_EQ(Engine->hadError(), !ModelError.empty())
        << "word " << I << " (" << formatOpcode(Stream[I])
        << "): engine '" << Engine->errorMessage() << "', model '"
        << ModelError << "'";
    if (Engine->hadError())
      return;
    ASSERT_EQ(Model.pendingOutputWords(),
              static_cast<int64_t>(Engine->outputAvailable()))
        << "word " << I << " (" << formatOpcode(Stream[I]) << ")";
  }
}

/// Runs \p Stream through fresh models word-at-a-time (the semantic
/// reference), as one burst, and in randomized burst splits, and asserts
/// identical observable behaviour; then checks the model contract.
void checkStreamEquivalence(const Subject &S,
                            const std::vector<uint32_t> &Stream) {
  const ModelFactory &Make = S.Make;
  auto WordModel = Make();
  for (uint32_t Word : Stream)
    WordModel->consumeWord(Word);
  Observation Ref = observe(*WordModel);

  auto OneBurst = Make();
  OneBurst->consumeBurst(Stream.data(), Stream.size());
  expectSameObservation(Ref, observe(*OneBurst), "single burst");

  // Randomized splits, biased toward small bursts so opcode/data
  // boundaries land everywhere (deterministic seeds).
  for (uint32_t Seed = 0; Seed < 8; ++Seed) {
    std::mt19937 Rng(Seed);
    std::uniform_int_distribution<size_t> Len(1, 1 + Stream.size() / 3);
    auto Split = Make();
    size_t Pos = 0;
    while (Pos < Stream.size()) {
      size_t Take = std::min(Len(Rng), Stream.size() - Pos);
      Split->consumeBurst(Stream.data() + Pos, Take);
      Pos += Take;
    }
    expectSameObservation(Ref, observe(*Split),
                          "split seed " + std::to_string(Seed));
  }

  checkModelContract(S, Stream);
}

/// Deterministic data words (interpreted as i32 or f32 by the model).
uint32_t dataWord(std::mt19937 &Rng, ElemKind Kind) {
  std::uniform_int_distribution<int32_t> Dist(-4, 4);
  int32_t V = Dist(Rng);
  return Kind == ElemKind::F32 ? floatToWord(static_cast<float>(V))
                               : static_cast<uint32_t>(V);
}

void appendData(std::vector<uint32_t> &Stream, size_t Count,
                std::mt19937 &Rng, ElemKind Kind) {
  for (size_t I = 0; I < Count; ++I)
    Stream.push_back(dataWord(Rng, Kind));
}

Subject matmulSubject(MatMulAccelerator::Version Ver, int64_t Size,
                      ElemKind Kind) {
  return {[=] {
            SoCParams Params;
            return std::make_unique<MatMulAccelerator>(Ver, Size, Kind,
                                                       Params);
          },
          analysis::ProtocolModel::matmul(Ver, Size)};
}

//===----------------------------------------------------------------------===//
// MatMul v1..v4
//===----------------------------------------------------------------------===//

TEST(StreamEquivalence, MatMulV1) {
  std::mt19937 Rng(100);
  std::vector<uint32_t> Stream;
  for (int Tile = 0; Tile < 3; ++Tile) {
    Stream.push_back(MM_SASBCCRC);
    appendData(Stream, 2 * 8 * 8, Rng, ElemKind::I32);
  }
  Stream.push_back(MM_RESET);
  Stream.push_back(MM_SASBCCRC);
  appendData(Stream, 2 * 8 * 8, Rng, ElemKind::I32);
  checkStreamEquivalence(
      matmulSubject(MatMulAccelerator::Version::V1, 8, ElemKind::I32),
      Stream);
}

TEST(StreamEquivalence, MatMulV2) {
  std::mt19937 Rng(101);
  std::vector<uint32_t> Stream;
  Stream.push_back(MM_SA);
  appendData(Stream, 4 * 4, Rng, ElemKind::I32);
  for (int Round = 0; Round < 2; ++Round) {
    Stream.push_back(MM_SB);
    appendData(Stream, 4 * 4, Rng, ElemKind::I32);
    Stream.push_back(MM_CC_RC);
  }
  checkStreamEquivalence(
      matmulSubject(MatMulAccelerator::Version::V2, 4, ElemKind::I32),
      Stream);
}

TEST(StreamEquivalence, MatMulV3AllOpcodes) {
  std::mt19937 Rng(102);
  std::vector<uint32_t> Stream;
  Stream.push_back(MM_SA);
  appendData(Stream, 8 * 8, Rng, ElemKind::I32);
  Stream.push_back(MM_SB);
  appendData(Stream, 8 * 8, Rng, ElemKind::I32);
  Stream.push_back(MM_CC);
  Stream.push_back(MM_CC); // output stationary: accumulate twice
  Stream.push_back(MM_RC);
  Stream.push_back(MM_SB_CC_RC);
  appendData(Stream, 8 * 8, Rng, ElemKind::I32);
  Stream.push_back(MM_SA_CC_RC);
  appendData(Stream, 8 * 8, Rng, ElemKind::I32);
  checkStreamEquivalence(
      matmulSubject(MatMulAccelerator::Version::V3, 8, ElemKind::I32),
      Stream);
}

TEST(StreamEquivalence, MatMulV3F32) {
  std::mt19937 Rng(103);
  std::vector<uint32_t> Stream;
  Stream.push_back(MM_SA);
  appendData(Stream, 8 * 8, Rng, ElemKind::F32);
  Stream.push_back(MM_SB);
  appendData(Stream, 8 * 8, Rng, ElemKind::F32);
  Stream.push_back(MM_CC_RC);
  checkStreamEquivalence(
      matmulSubject(MatMulAccelerator::Version::V3, 8, ElemKind::F32),
      Stream);
}

/// v4 with a mid-stream MM_CFG resize: burst lengths change with the
/// configured tile, so split boundaries must track the new geometry.
TEST(StreamEquivalence, MatMulV4CfgResize) {
  std::mt19937 Rng(104);
  std::vector<uint32_t> Stream;
  auto tile = [&](int64_t M, int64_t Kk, int64_t N) {
    Stream.push_back(MM_CFG);
    Stream.push_back(static_cast<uint32_t>(M));
    Stream.push_back(static_cast<uint32_t>(Kk));
    Stream.push_back(static_cast<uint32_t>(N));
    Stream.push_back(MM_SA);
    appendData(Stream, static_cast<size_t>(M * Kk), Rng, ElemKind::I32);
    Stream.push_back(MM_SB);
    appendData(Stream, static_cast<size_t>(Kk * N), Rng, ElemKind::I32);
    Stream.push_back(MM_CC);
    Stream.push_back(MM_RC);
  };
  tile(8, 32, 4);
  tile(16, 16, 16);
  tile(4, 4, 64);
  checkStreamEquivalence(
      matmulSubject(MatMulAccelerator::Version::V4, 16, ElemKind::I32),
      Stream);
}

/// Errors mid-stream: every path must stop at the same word and drop the
/// rest, reporting the same message.
TEST(StreamEquivalence, MatMulErrorBehaviour) {
  std::mt19937 Rng(105);
  std::vector<uint32_t> Stream;
  Stream.push_back(MM_SA);
  appendData(Stream, 4 * 4, Rng, ElemKind::I32);
  Stream.push_back(MM_CFG); // unsupported on v3 -> error
  Stream.push_back(MM_SB);  // dropped
  appendData(Stream, 4 * 4, Rng, ElemKind::I32);
  checkStreamEquivalence(
      matmulSubject(MatMulAccelerator::Version::V3, 4, ElemKind::I32),
      Stream);

  // v4 cfg that does not fit the buffers errors inside a burst.
  std::vector<uint32_t> CfgStream = {MM_CFG, 10000, 10000, 10000, MM_SA, 1};
  checkStreamEquivalence(
      matmulSubject(MatMulAccelerator::Version::V4, 16, ElemKind::I32),
      CfgStream);
}

//===----------------------------------------------------------------------===//
// Conv2D
//===----------------------------------------------------------------------===//

Subject convSubject(
    ElemKind Kind,
    int64_t MaxWindowWords = ConvAccelerator::DefaultMaxWindowWords) {
  return {[=] {
            SoCParams Params;
            return std::make_unique<ConvAccelerator>(Kind, Params,
                                                     MaxWindowWords);
          },
          analysis::ProtocolModel::conv(MaxWindowWords)};
}

TEST(StreamEquivalence, ConvSlices) {
  std::mt19937 Rng(200);
  std::vector<uint32_t> Stream;
  Stream.push_back(CONV_SET_FS);
  Stream.push_back(3);
  Stream.push_back(CONV_SET_IC);
  Stream.push_back(4);
  const size_t WindowWords = 4 * 3 * 3;
  for (int Slice = 0; Slice < 2; ++Slice) {
    Stream.push_back(CONV_SF);
    appendData(Stream, WindowWords, Rng, ElemKind::I32);
    for (int W = 0; W < 3; ++W) {
      Stream.push_back(CONV_SICO);
      appendData(Stream, WindowWords, Rng, ElemKind::I32);
    }
    Stream.push_back(CONV_RO);
  }
  checkStreamEquivalence(convSubject(ElemKind::I32), Stream);
}

TEST(StreamEquivalence, ConvF32Reconfigure) {
  std::mt19937 Rng(201);
  std::vector<uint32_t> Stream;
  auto slice = [&](uint32_t FS, uint32_t IC, int Windows) {
    Stream.push_back(CONV_SET_FS);
    Stream.push_back(FS);
    Stream.push_back(CONV_SET_IC);
    Stream.push_back(IC);
    size_t WindowWords = static_cast<size_t>(IC) * FS * FS;
    Stream.push_back(CONV_SF);
    appendData(Stream, WindowWords, Rng, ElemKind::F32);
    for (int W = 0; W < Windows; ++W) {
      Stream.push_back(CONV_SICO);
      appendData(Stream, WindowWords, Rng, ElemKind::F32);
    }
    Stream.push_back(CONV_RO);
  };
  slice(2, 3, 2);
  slice(1, 8, 4); // fHW == 1 layers (paper Sec. IV-D)
  checkStreamEquivalence(convSubject(ElemKind::F32), Stream);
}

TEST(StreamEquivalence, ConvErrorBehaviour) {
  std::mt19937 Rng(202);
  // Unknown opcode mid-stream.
  std::vector<uint32_t> Stream;
  Stream.push_back(CONV_SET_FS);
  Stream.push_back(2);
  Stream.push_back(CONV_SET_IC);
  Stream.push_back(2);
  Stream.push_back(CONV_SF);
  appendData(Stream, 8, Rng, ElemKind::I32);
  Stream.push_back(0xDEAD); // error; the rest is dropped
  Stream.push_back(CONV_SICO);
  appendData(Stream, 8, Rng, ElemKind::I32);
  checkStreamEquivalence(convSubject(ElemKind::I32), Stream);

  // Window burst that no longer matches the loaded filter (cfg changed
  // between SF and SICO).
  std::vector<uint32_t> Mismatch;
  Mismatch.push_back(CONV_SET_FS);
  Mismatch.push_back(2);
  Mismatch.push_back(CONV_SET_IC);
  Mismatch.push_back(2);
  Mismatch.push_back(CONV_SF);
  appendData(Mismatch, 8, Rng, ElemKind::I32);
  Mismatch.push_back(CONV_SET_IC);
  Mismatch.push_back(3);
  Mismatch.push_back(CONV_SICO);
  appendData(Mismatch, 12, Rng, ElemKind::I32);
  Mismatch.push_back(CONV_RO); // dropped after the mismatch error
  checkStreamEquivalence(convSubject(ElemKind::I32), Mismatch);
}

//===----------------------------------------------------------------------===//
// Random streams
//===----------------------------------------------------------------------===//

/// One random stream for a \p Ver engine of tile \p Size (conv when \p
/// IsConv). Half the streams are legal throughout; the other half carry
/// one fault at a random step: an opcode of the wrong version or family,
/// an arbitrary word, a cfg word out of range (zero, >= 2^31, too large
/// for the buffers), a payload one to three words too long or too short,
/// or a conv window sent without a matching filter. The stream goes on
/// legally after the fault, so the words the engine drops are exercised
/// too.
std::vector<uint32_t> randomStream(std::mt19937 &Rng, bool IsConv,
                                   MatMulAccelerator::Version Ver,
                                   int64_t Size) {
  auto pick = [&](int64_t Lo, int64_t Hi) {
    return std::uniform_int_distribution<int64_t>(Lo, Hi)(Rng);
  };
  auto pickFrom = [&](const std::vector<uint32_t> &Ops) {
    return Ops[static_cast<size_t>(pick(0, Ops.size() - 1))];
  };
  using V = MatMulAccelerator::Version;
  // Table I: the opcodes each matmul version accepts.
  std::vector<uint32_t> Legal = {MM_RESET};
  if (Ver == V::V1)
    Legal.push_back(MM_SASBCCRC);
  else
    Legal.insert(Legal.end(),
                 {MM_SA, MM_SB, MM_SA_CC_RC, MM_SB_CC_RC, MM_CC_RC});
  if (Ver == V::V3 || Ver == V::V4)
    Legal.insert(Legal.end(), {MM_CC, MM_RC});
  if (Ver == V::V4)
    Legal.push_back(MM_CFG);
  const std::vector<uint32_t> AllMatMul = {
      MM_RESET,    MM_SASBCCRC, MM_SA,    MM_SB, MM_RC,
      MM_SB_CC_RC, MM_SA_CC_RC, MM_CC_RC, MM_CC, MM_CFG};
  const std::vector<uint32_t> AllConv = {CONV_SF, CONV_RO, CONV_SET_IC,
                                         CONV_SET_FS, CONV_SICO};
  const uint32_t WildCfg[] = {0, 0x7FFFFFFFu, 0x80000000u, 0xFFFFFFFFu,
                              100000};

  std::vector<uint32_t> Stream;
  int64_t Steps = pick(1, 16);
  int64_t FaultStep = pick(0, 1) ? pick(0, Steps - 1) : -1;
  // Geometry as the stream configured it, and whether the loaded conv
  // filter matches it.
  int64_t M = Size, K = Size, N = Size, IC = 1, FS = 1;
  bool FilterLoaded = false;
  for (int64_t Step = 0; Step < Steps; ++Step) {
    bool Fault = Step == FaultStep;
    int64_t Kind = Fault ? pick(0, 3) : -1; // which fault
    uint32_t Op;
    if (Kind == 0 && IsConv) {
      // Reconfigure, then send a window the loaded filter cannot match.
      IC = IC % 4 + 1;
      Stream.insert(Stream.end(), {CONV_SET_IC, static_cast<uint32_t>(IC)});
      Op = CONV_SICO;
    } else if (Kind == 0)
      Op = pickFrom(AllMatMul);
    else if (Kind == 1)
      Op = IsConv ? pickFrom(AllMatMul) : pickFrom(AllConv);
    else if (Kind == 2)
      Op = static_cast<uint32_t>(Rng());
    else if (IsConv && !FilterLoaded && !Fault)
      Op = pickFrom({CONV_SET_FS, CONV_SET_IC, CONV_SF});
    else if (IsConv)
      Op = pickFrom({CONV_SET_FS, CONV_SET_IC, CONV_SF, CONV_SICO, CONV_SICO,
                     CONV_SICO, CONV_RO, CONV_RO});
    else
      Op = pickFrom(Legal);
    Stream.push_back(Op);
    // Kind 3 faults the payload of the legal opcode chosen above.
    bool BadPayload = Kind == 3;
    auto cfgWord = [&](int64_t Max) -> uint32_t {
      return BadPayload ? WildCfg[pick(0, 4)]
                        : static_cast<uint32_t>(pick(1, Max));
    };
    auto payload = [&](int64_t Words) {
      if (BadPayload)
        Words = pick(0, 1) ? Words + pick(1, 3)
                           : std::max<int64_t>(0, Words - pick(1, 3));
      appendData(Stream, static_cast<size_t>(Words), Rng, ElemKind::I32);
    };
    if (IsConv && (Op == CONV_SET_FS || Op == CONV_SET_IC)) {
      uint32_t Word = cfgWord(Op == CONV_SET_FS ? 3 : 4);
      Stream.push_back(Word);
      (Op == CONV_SET_FS ? FS : IC) = Word;
      FilterLoaded = false;
    } else if (IsConv && Op == CONV_SF) {
      payload(IC * FS * FS);
      FilterLoaded = true;
    } else if (IsConv && Op == CONV_SICO) {
      payload(IC * FS * FS);
    } else if (!IsConv && Op == MM_CFG) {
      for (int64_t *Dim : {&M, &K, &N}) {
        uint32_t Word = cfgWord(2 * Size);
        Stream.push_back(Word);
        *Dim = Word;
      }
    } else if (!IsConv && (Op == MM_SA || Op == MM_SA_CC_RC)) {
      payload(M * K);
    } else if (!IsConv && (Op == MM_SB || Op == MM_SB_CC_RC)) {
      payload(K * N);
    } else if (!IsConv && Op == MM_SASBCCRC) {
      payload(M * K + K * N);
    }
    // A faulted cfg leaves nonsense geometry; payloads stay small anyway.
    if (M > 64 || K > 64 || N > 64 || IC > 64 || FS > 64) {
      M = K = N = Size;
      IC = FS = 1;
    }
  }
  if (IsConv)
    Stream.push_back(CONV_RO);
  return Stream;
}

TEST(StreamEquivalence, ModelContractRandomSweep) {
  uint32_t Seed = 1;
  int Cases = 200;
  if (const char *Env = std::getenv("AXI4MLIR_FUZZ_SEED"))
    Seed = static_cast<uint32_t>(std::strtoul(Env, nullptr, 10));
  if (const char *Env = std::getenv("AXI4MLIR_FUZZ_CASES"))
    Cases = static_cast<int>(std::strtol(Env, nullptr, 10));
  std::mt19937 Rng(Seed);
  for (int I = 0; I < Cases; ++I) {
    int Engine = std::uniform_int_distribution<int>(0, 5)(Rng);
    int64_t Size = std::uniform_int_distribution<int>(0, 1)(Rng) ? 8 : 4;
    bool IsConv = Engine >= 4;
    auto Ver = static_cast<MatMulAccelerator::Version>(IsConv ? 0 : Engine);
    // A small window buffer makes the conv capacity rule reachable.
    Subject S = IsConv ? convSubject(ElemKind::I32, Engine == 4 ? 32 : 64)
                       : matmulSubject(Ver, Size, ElemKind::I32);
    std::vector<uint32_t> Stream = randomStream(Rng, IsConv, Ver, Size);
    SCOPED_TRACE("seed " + std::to_string(Seed) + " case " +
                 std::to_string(I) + " (" + S.Make()->getName() + ", " +
                 std::to_string(Stream.size()) + " words)");
    checkStreamEquivalence(S, Stream);
  }
}

//===----------------------------------------------------------------------===//
// drainOutputInto
//===----------------------------------------------------------------------===//

TEST(StreamEquivalence, DrainOutputIntoMatchesDrainOutput) {
  SoCParams Params;
  MatMulAccelerator A(MatMulAccelerator::Version::V1, 4, ElemKind::I32,
                      Params);
  MatMulAccelerator B(MatMulAccelerator::Version::V1, 4, ElemKind::I32,
                      Params);
  std::mt19937 Rng(300);
  std::vector<uint32_t> Stream;
  Stream.push_back(MM_SASBCCRC);
  appendData(Stream, 2 * 4 * 4, Rng, ElemKind::I32);
  A.consumeBurst(Stream.data(), Stream.size());
  B.consumeBurst(Stream.data(), Stream.size());

  // Partial drains interleaved with refills recycle the flat FIFO.
  std::vector<uint32_t> Ref = A.drainOutput(10);
  std::vector<uint32_t> Got(16, 0xAAAAAAAA);
  ASSERT_EQ(B.drainOutputInto(Got.data(), 10), 10u);
  EXPECT_TRUE(std::equal(Ref.begin(), Ref.end(), Got.begin()));
  EXPECT_EQ(A.outputAvailable(), B.outputAvailable());

  Ref = A.drainOutput(100); // over-asking caps at what is available
  ASSERT_EQ(B.drainOutputInto(Got.data(), 100), Ref.size());
  EXPECT_TRUE(std::equal(Ref.begin(), Ref.end(), Got.begin()));
  EXPECT_EQ(B.outputAvailable(), 0u);
}

//===----------------------------------------------------------------------===//
// Injected faults: a mid-stream fault must be observed identically under
// word-at-a-time, single-burst and split-burst delivery — same AccelStatus,
// same message, same dropped-suffix count. This is what lets the DMA
// engine's recovery loop reason about the retry suffix without knowing how
// the stream was chunked.
//===----------------------------------------------------------------------===//

struct FaultObservation {
  AccelStatus Status = AccelStatus::Ok;
  std::string Message;
  size_t Dropped = 0;
  uint64_t StallSteps = 0;
  std::vector<uint32_t> Output;
  double ComputeCycles = 0;
};

FaultObservation observeFault(AcceleratorModel &Model) {
  FaultObservation Obs;
  Obs.Status = Model.status();
  Obs.Message = Model.transientMessage();
  Obs.StallSteps = Model.takeStallSteps();
  Obs.Dropped = Model.takeTransientDropped();
  Obs.Output = Model.drainOutput(Model.outputAvailable());
  Obs.ComputeCycles = Model.takeComputeCycles();
  return Obs;
}

void expectSameFaultObservation(const FaultObservation &Ref,
                                const FaultObservation &Got,
                                const std::string &What) {
  EXPECT_EQ(Ref.Status, Got.Status) << What;
  EXPECT_EQ(Ref.Message, Got.Message) << What;
  EXPECT_EQ(Ref.Dropped, Got.Dropped) << What;
  EXPECT_EQ(Ref.StallSteps, Got.StallSteps) << What;
  EXPECT_EQ(Ref.Output, Got.Output) << What;
  EXPECT_EQ(Ref.ComputeCycles, Got.ComputeCycles) << What; // bit-equal
}

/// Streams \p Stream into fresh models carrying a fresh injector built
/// from \p Plan, under every delivery shape, asserting identical
/// fault observations.
void checkFaultEquivalence(const ModelFactory &Make,
                           const std::vector<uint32_t> &Stream,
                           const FaultPlan &Plan) {
  auto WordModel = Make();
  FaultInjector WordInjector(Plan);
  WordModel->attachFaultInjector(&WordInjector);
  for (uint32_t Word : Stream)
    WordModel->consumeWord(Word);
  FaultObservation Ref = observeFault(*WordModel);

  auto OneBurst = Make();
  FaultInjector BurstInjector(Plan);
  OneBurst->attachFaultInjector(&BurstInjector);
  OneBurst->consumeBurst(Stream.data(), Stream.size());
  expectSameFaultObservation(Ref, observeFault(*OneBurst), "single burst");
  EXPECT_EQ(WordInjector.faultsFired(), BurstInjector.faultsFired());

  for (uint32_t Seed = 0; Seed < 8; ++Seed) {
    std::mt19937 Rng(Seed);
    std::uniform_int_distribution<size_t> Len(1, 1 + Stream.size() / 3);
    auto Split = Make();
    FaultInjector SplitInjector(Plan);
    Split->attachFaultInjector(&SplitInjector);
    size_t Pos = 0;
    while (Pos < Stream.size()) {
      size_t Take = std::min(Len(Rng), Stream.size() - Pos);
      Split->consumeBurst(Stream.data() + Pos, Take);
      Pos += Take;
    }
    expectSameFaultObservation(Ref, observeFault(*Split),
                               "split seed " + std::to_string(Seed));
    EXPECT_EQ(WordInjector.faultsFired(), SplitInjector.faultsFired());
  }
}

TEST(StreamEquivalence, TransientFaultSameUnderAnyDelivery) {
  std::mt19937 Rng(400);
  std::vector<uint32_t> Stream;
  Stream.push_back(MM_SA);
  appendData(Stream, 4 * 4, Rng, ElemKind::I32);
  Stream.push_back(MM_SB); // opcode index 1: refused
  appendData(Stream, 4 * 4, Rng, ElemKind::I32);
  Stream.push_back(MM_CC_RC); // dropped with the rest of the stream

  FaultPlan Plan;
  FaultEvent Event;
  Event.Kind = FaultKind::TransientError;
  Event.At = 1;
  Plan.Events.push_back(Event);

  checkFaultEquivalence(
      matmulSubject(MatMulAccelerator::Version::V3, 4, ElemKind::I32).Make,
      Stream, Plan);

  // The reference observation itself: Transient status, dropped suffix =
  // refused opcode + 16 data words + trailing opcode.
  SoCParams Params;
  MatMulAccelerator Model(MatMulAccelerator::Version::V3, 4, ElemKind::I32,
                          Params);
  FaultInjector Injector(Plan);
  Model.attachFaultInjector(&Injector);
  Model.consumeBurst(Stream.data(), Stream.size());
  EXPECT_EQ(Model.status(), AccelStatus::Transient);
  EXPECT_NE(Model.transientMessage().find("injected transient-error fault"),
            std::string::npos)
      << Model.transientMessage();
  EXPECT_FALSE(Model.hadError()); // transient, not fatal
  EXPECT_EQ(Model.takeTransientDropped(), size_t(1 + 16 + 1));
  EXPECT_EQ(Model.status(), AccelStatus::Ok); // harvest clears it
}

TEST(StreamEquivalence, StallFaultSameUnderAnyDelivery) {
  std::mt19937 Rng(401);
  std::vector<uint32_t> Stream;
  Stream.push_back(MM_SA);
  appendData(Stream, 4 * 4, Rng, ElemKind::I32);
  Stream.push_back(MM_SB); // opcode index 1: stalls, then proceeds
  appendData(Stream, 4 * 4, Rng, ElemKind::I32);
  Stream.push_back(MM_CC_RC);

  FaultPlan Plan;
  FaultEvent Event;
  Event.Kind = FaultKind::Stall;
  Event.At = 1;
  Event.Steps = 48;
  Plan.Events.push_back(Event);

  checkFaultEquivalence(
      matmulSubject(MatMulAccelerator::Version::V3, 4, ElemKind::I32).Make,
      Stream, Plan);
}

TEST(StreamEquivalence, ConvTransientFaultSameUnderAnyDelivery) {
  std::mt19937 Rng(402);
  std::vector<uint32_t> Stream;
  Stream.push_back(CONV_SET_FS);
  Stream.push_back(2);
  Stream.push_back(CONV_SET_IC);
  Stream.push_back(1);
  Stream.push_back(CONV_SF); // opcode index 2: refused
  appendData(Stream, 2 * 2, Rng, ElemKind::I32);
  Stream.push_back(CONV_SICO);
  appendData(Stream, 2 * 2, Rng, ElemKind::I32);

  FaultPlan Plan;
  FaultEvent Event;
  Event.Kind = FaultKind::TransientError;
  Event.At = 2;
  Plan.Events.push_back(Event);

  checkFaultEquivalence(convSubject(ElemKind::I32).Make, Stream, Plan);
}

} // namespace
