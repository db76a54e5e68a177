//===- Reference.h - Golden reference kernels -------------------*- C++ -*-===//
//
// Part of the AXI4MLIR reproduction. MIT licensed.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Plain (uninstrumented) reference implementations used to validate the
/// numerics of every execution path: CPU-interpreted generics, manual
/// drivers, and AXI4MLIR-generated drivers must all match these.
///
//===----------------------------------------------------------------------===//

#ifndef AXI4MLIR_EXEC_REFERENCE_H
#define AXI4MLIR_EXEC_REFERENCE_H

#include "runtime/MemRefDesc.h"

#include <algorithm>
#include <cstdint>

namespace axi4mlir {
namespace exec {

/// C += A x B over MemRef descriptors (any strides).
inline void referenceMatMul(const runtime::MemRefDesc &A,
                            const runtime::MemRefDesc &B,
                            runtime::MemRefDesc &C) {
  int64_t M = A.Sizes[0], K = A.Sizes[1], N = B.Sizes[1];
  for (int64_t I = 0; I < M; ++I) {
    for (int64_t J = 0; J < N; ++J) {
      double Sum = C.read({I, J});
      for (int64_t L = 0; L < K; ++L)
        Sum += A.read({I, L}) * B.read({L, J});
      C.write({I, J}, Sum);
    }
  }
}

/// O += conv2d(I, W), NCHW/FCHW layouts with the given strides.
inline void referenceConv2D(const runtime::MemRefDesc &Input,
                            const runtime::MemRefDesc &Filter,
                            runtime::MemRefDesc &Output, int64_t StrideH,
                            int64_t StrideW) {
  int64_t Batch = Output.Sizes[0], OutChannels = Output.Sizes[1];
  int64_t OutH = Output.Sizes[2], OutW = Output.Sizes[3];
  int64_t InChannels = Filter.Sizes[1], FilterH = Filter.Sizes[2],
          FilterW = Filter.Sizes[3];
  for (int64_t B = 0; B < Batch; ++B)
    for (int64_t OC = 0; OC < OutChannels; ++OC)
      for (int64_t OH = 0; OH < OutH; ++OH)
        for (int64_t OW = 0; OW < OutW; ++OW) {
          double Sum = Output.read({B, OC, OH, OW});
          for (int64_t IC = 0; IC < InChannels; ++IC)
            for (int64_t FH = 0; FH < FilterH; ++FH)
              for (int64_t FW = 0; FW < FilterW; ++FW)
                Sum += Input.read({B, IC, OH * StrideH + FH,
                                   OW * StrideW + FW}) *
                       Filter.read({OC, IC, FH, FW});
          Output.write({B, OC, OH, OW}, Sum);
        }
}

namespace detail {

/// MT19937, the generator of std::mt19937 (same seeding, same word
/// sequence), producing its words a block of N at a time: one twist of the
/// whole state, then each state word tempered on demand.
class MersenneTwister {
public:
  static constexpr unsigned N = 624;

  explicit MersenneTwister(uint32_t Seed) {
    State[0] = Seed;
    for (unsigned I = 1; I < N; ++I)
      State[I] = 1812433253u * (State[I - 1] ^ (State[I - 1] >> 30)) + I;
  }

  /// Advances the state to the next block of N words.
  void twist() {
    constexpr unsigned M = 397;
    auto Mix = [](uint32_t Hi, uint32_t Lo) {
      uint32_t Y = (Hi & 0x80000000u) | (Lo & 0x7fffffffu);
      return (Y >> 1) ^ ((Y & 1u) ? 0x9908b0dfu : 0u);
    };
    unsigned I = 0;
    for (; I < N - M; ++I)
      State[I] = State[I + M] ^ Mix(State[I], State[I + 1]);
    for (; I < N - 1; ++I)
      State[I] = State[I + M - N] ^ Mix(State[I], State[I + 1]);
    State[N - 1] = State[M - 1] ^ Mix(State[N - 1], State[0]);
  }

  /// Word \p I (below N) of the current block.
  uint32_t word(unsigned I) const {
    uint32_t Y = State[I];
    Y ^= Y >> 11;
    Y ^= (Y << 7) & 0x9d2c5680u;
    Y ^= (Y << 15) & 0xefc60000u;
    return Y ^ (Y >> 18);
  }

private:
  uint32_t State[N];
};

/// One operand drawn from a 32-bit generator word.
struct OperandDraw {
  int32_t Value;
  bool Rejected;
};

/// Maps \p Word onto [-4, 4] the way libstdc++'s
/// uniform_int_distribution<int32_t>(-4, 4) maps the words of a 32-bit
/// generator (Lemire's multiply-and-reject): the value is the high half
/// of the 64-bit product Word * 9, less 4, and a low half below
/// 2^32 mod 9 = 4 rejects the word, so the distribution draws the next
/// one. The product is formed from 32-bit halves (Word * 9 = Word * 8 +
/// Word, the carry out of the low half is Low < Word) so that a run of
/// words maps in vector registers.
inline OperandDraw operandFromWord(uint32_t Word) {
  uint32_t Low = Word * 9u;
  uint32_t High = (Word >> 29) + (Low < Word ? 1u : 0u);
  return {static_cast<int32_t>(High) - 4, Low < 4};
}

template <bool IsF32> uint32_t operandWord(int32_t Value) {
  if constexpr (IsF32)
    return sim::floatToWord(static_cast<float>(Value));
  else
    return static_cast<uint32_t>(Value);
}

template <bool IsF32>
void fillOperands(uint32_t *Out, uint32_t *End, uint32_t Seed) {
  constexpr unsigned N = MersenneTwister::N;
  MersenneTwister Rng(Seed);
  unsigned Next = N; // the next unused word of the current block
  while (Out != End) {
    if (Next == N) {
      Rng.twist();
      Next = 0;
    }
    // A stretch without a rejected word maps word for word; the check
    // runs once per stretch.
    size_t Count = std::min<size_t>(N - Next, static_cast<size_t>(End - Out));
    unsigned Rejected = 0;
    for (size_t I = 0; I < Count; ++I) {
      OperandDraw Draw = operandFromWord(Rng.word(Next + I));
      Rejected |= Draw.Rejected;
      Out[I] = operandWord<IsF32>(Draw.Value);
    }
    if (!Rejected) {
      Out += Count;
      Next += Count;
      continue;
    }
    // About one word in 2^30 is rejected: redo the stretch skipping it.
    for (; Next < N && Out != End; ++Next) {
      OperandDraw Draw = operandFromWord(Rng.word(Next));
      if (!Draw.Rejected)
        *Out++ = operandWord<IsF32>(Draw.Value);
    }
  }
}

} // namespace detail

/// Fills a memref with small deterministic pseudo-random integers (exact
/// in both i32 and f32 arithmetic, so all paths compare bit-equal). The
/// values are those std::mt19937(Seed) and libstdc++'s
/// uniform_int_distribution<int32_t>(-4, 4) draw, on any standard library:
/// every operand, reference result and checksum depends on them.
inline void fillRandom(runtime::MemRefDesc &Desc, uint32_t Seed) {
  uint32_t *Begin = Desc.Buffer->Data.data();
  uint32_t *End = Begin + Desc.Buffer->Data.size();
  if (Desc.kind() == sim::ElemKind::F32)
    detail::fillOperands<true>(Begin, End, Seed);
  else
    detail::fillOperands<false>(Begin, End, Seed);
}

/// True if the two memrefs hold identical logical shapes and values.
inline bool memrefEquals(const runtime::MemRefDesc &LHS,
                         const runtime::MemRefDesc &RHS) {
  if (LHS.Sizes != RHS.Sizes)
    return false;
  std::vector<int64_t> Point(LHS.rank(), 0);
  bool Done = LHS.numElements() == 0;
  while (!Done) {
    if (LHS.read(Point) != RHS.read(Point))
      return false;
    Done = true;
    for (int D = static_cast<int>(Point.size()) - 1; D >= 0; --D) {
      if (++Point[D] < LHS.Sizes[D]) {
        Done = false;
        break;
      }
      Point[D] = 0;
    }
  }
  return true;
}

/// Deep copy of a memref's logical contents into a fresh buffer.
inline runtime::MemRefDesc cloneMemRef(const runtime::MemRefDesc &Source) {
  runtime::MemRefDesc Copy =
      runtime::MemRefDesc::alloc(Source.Sizes, Source.kind());
  std::vector<int64_t> Point(Source.rank(), 0);
  bool Done = Source.numElements() == 0;
  while (!Done) {
    Copy.at(Point) = Source.at(Point);
    Done = true;
    for (int D = static_cast<int>(Point.size()) - 1; D >= 0; --D) {
      if (++Point[D] < Source.Sizes[D]) {
        Done = false;
        break;
      }
      Point[D] = 0;
    }
  }
  return Copy;
}

} // namespace exec
} // namespace axi4mlir

#endif // AXI4MLIR_EXEC_REFERENCE_H
