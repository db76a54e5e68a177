//===- PlanAnalyses.h - Shared ExecPlan analyses ----------------*- C++ -*-===//
//
// Part of the AXI4MLIR reproduction. MIT licensed.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The range/constant/trip-count analyses shared by the plan optimizer
/// (src/exec/opt) and the static verifier (PlanVerifier). Before this
/// framework existed each licm/coalesce legality rule carried its own
/// ad-hoc copy of these queries; now the optimizer's preconditions and
/// the verifier's proofs are answered by the same code, so a bug in the
/// shared math is caught by both the differential fuzzers and the
/// mutation tests.
///
/// All arithmetic mirrors ExecPlan::runSpan exactly (Binary computes in
/// double and truncates back to int64, like the tree walker). Range ends
/// and trip counts that do not fit in int64 are not constants.
///
/// StagedRegion, the verifier's record of what the plan staged into the
/// DMA input region, lives here too so tests can drive it directly.
///
//===----------------------------------------------------------------------===//

#ifndef AXI4MLIR_ANALYSIS_PLANANALYSES_H
#define AXI4MLIR_ANALYSIS_PLANANALYSES_H

#include "analysis/PlanView.h"
#include "analysis/ProtocolModel.h"

#include <algorithm>
#include <cstdint>
#include <vector>

namespace axi4mlir {
namespace analysis {

/// A half-open word range in the staged DMA region.
struct WordRange {
  int64_t Begin = 0, End = 0;
  bool overlaps(const WordRange &O) const {
    return Begin < O.End && O.Begin < End;
  }
  bool covers(const WordRange &O) const {
    return Begin <= O.Begin && O.End <= End;
  }
  int64_t size() const { return End - Begin; }
  /// True when the union of \p Parts covers this range.
  bool coveredBy(const std::vector<WordRange> &Parts) const;
};

/// What the verifier knows of the DMA input region between a dma_init and
/// the sends that stream it: a sorted vector of disjoint runs of equal
/// words, adjacent runs holding equal words merged. A staging copy writes
/// one run and a literal a one-word run, so the size follows the staging
/// instructions, not the words they stage. A word no run covers was never
/// staged.
class StagedRegion {
public:
  struct Run {
    WordRange Range;
    AbstractWord Word;
  };

  void clear() { Runs.clear(); }
  /// Stages \p W at every word of \p R (nothing when \p R is empty).
  void assign(WordRange R, const AbstractWord &W);
  /// Merges the state of a path that skipped a loop: a word both sides
  /// hold equally keeps it, every other word either side holds becomes
  /// unknown.
  void mergeUnknown(const StagedRegion &Other);
  /// The word staged at \p Offset, or null when none was.
  const AbstractWord *find(int64_t Offset) const;
  const std::vector<Run> &runs() const { return Runs; }

  /// Walks \p R in the order a send streams it: one `Data(Count)` call
  /// per maximal run of data words, one `Word(Offset, W)` call per other
  /// word, \p W null for a word never staged. Stops as soon as a callback
  /// returns false.
  template <typename DataFn, typename WordFn>
  void stream(WordRange R, DataFn &&Data, WordFn &&Word) const {
    int64_t O = R.Begin;
    for (size_t I = firstEndingAfter(O); O < R.End;) {
      bool Staged = I < Runs.size() && Runs[I].Range.Begin <= O;
      int64_t End = std::min(Staged                ? Runs[I].Range.End
                             : I < Runs.size() ? Runs[I].Range.Begin
                                               : R.End,
                             R.End);
      const AbstractWord *W = Staged ? &Runs[I].Word : nullptr;
      if (W && W->K == AbstractWord::Kind::Data) {
        if (!Data(End - O))
          return;
        O = End;
      } else {
        for (; O < End; ++O)
          if (!Word(O, W))
            return;
      }
      if (Staged)
        ++I;
    }
  }

private:
  /// Index of the first run that ends after \p Offset.
  size_t firstEndingAfter(int64_t Offset) const;

  std::vector<Run> Runs;
};

/// Per-slot facts: constant values (ints only) and static memref element
/// counts. Populated by a client-driven fixpoint (the optimizer walks its
/// node tree, the verifier walks the flat program); the queries below
/// consume it.
struct SlotFacts {
  std::vector<int8_t> Known;     ///< slot holds one constant everywhere
  std::vector<int64_t> Value;    ///< that constant
  std::vector<int8_t> SizeKnown; ///< memref slot with static element count
  std::vector<int64_t> Count;
  std::vector<int32_t> NumWriters;

  explicit SlotFacts(unsigned NumSlots = 0) { resize(NumSlots); }
  void resize(unsigned NumSlots) {
    Known.assign(NumSlots, 0);
    Value.assign(NumSlots, 0);
    SizeKnown.assign(NumSlots, 0);
    Count.assign(NumSlots, 0);
    NumWriters.assign(NumSlots, 0);
  }
  /// Both queries are false for a slot outside the plan (a corrupted
  /// operand the verifier has already reported).
  bool isConst(int32_t Slot) const {
    return Slot >= 0 && static_cast<size_t>(Slot) < Known.size() &&
           Known[Slot];
  }
  bool isSized(int32_t Slot) const {
    return Slot >= 0 && static_cast<size_t>(Slot) < SizeKnown.size() &&
           SizeKnown[Slot];
  }
};

/// Evaluates \p I's result under \p Facts; true when it is a compile-time
/// constant. Covers constants, index_cast, integer Binary (double
/// arithmetic, runSpan-identical; a result outside int64 is not a
/// constant) and the staging end-offset results of copy_to_dma /
/// copy_literal_to_dma.
bool evalConstDst(const PlanView::Inst &I, const SlotFacts &Facts,
                  int64_t &Out);

/// Constant trip count of a LoopBegin instruction, or -1 when any bound
/// is unknown, the step is non-positive (runSpan rejects those at
/// execution time) or the count does not fit in int64.
int64_t constTripCount(const PlanView::Inst &LoopBegin,
                       const SlotFacts &Facts);

/// Constant staged-input-region range written by a copy_to_dma /
/// copy_literal_to_dma instruction, if determinable: false when the
/// offset or the element count is unknown, or the end offset does not fit
/// in int64.
bool inputWriteRange(const PlanView::Inst &I, const SlotFacts &Facts,
                     WordRange &R);

/// Constant [offset, end) range of a send instruction, if both operands
/// are known.
bool sendRange(const PlanView::Inst &I, const SlotFacts &Facts,
               WordRange &R);

/// Input staging capacity in words: the minimum input buffer across the
/// plan's dma_init configs (0 when the plan has none).
int64_t inputRegionWords(const PlanView &Plan);

/// Static element count of an Alloc/SubView result, or -1 for any other
/// instruction.
int64_t staticElementCount(const PlanView &Plan, const PlanView::Inst &I);

} // namespace analysis
} // namespace axi4mlir

#endif // AXI4MLIR_ANALYSIS_PLANANALYSES_H
