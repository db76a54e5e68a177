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
/// double and truncates back to int64, like the tree walker).
///
//===----------------------------------------------------------------------===//

#ifndef AXI4MLIR_ANALYSIS_PLANANALYSES_H
#define AXI4MLIR_ANALYSIS_PLANANALYSES_H

#include "analysis/PlanView.h"

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
/// arithmetic, runSpan-identical) and the staging end-offset results of
/// copy_to_dma / copy_literal_to_dma.
bool evalConstDst(const PlanView::Inst &I, const SlotFacts &Facts,
                  int64_t &Out);

/// Constant trip count of a LoopBegin instruction, or -1 when any bound
/// is unknown or the step is non-positive (runSpan rejects those at
/// execution time).
int64_t constTripCount(const PlanView::Inst &LoopBegin,
                       const SlotFacts &Facts);

/// Constant staged-input-region range written by a copy_to_dma /
/// copy_literal_to_dma instruction, if determinable.
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
