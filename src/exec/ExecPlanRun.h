//===- ExecPlanRun.h - Threaded-dispatch ExecPlan executor ------*- C++ -*-===//
//
// Part of the AXI4MLIR reproduction. MIT licensed.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The production execution engine for compiled ExecPlans: a pre-decode
/// stage rewrites the plan's instruction vector once into a
/// dispatch-ready program (dense jump-table opcodes, side-table indices and
/// slot-pool offsets resolved to raw pointers, specialized micro-kernels
/// bound per linalg.generic), which one token-threaded computed-goto loop
/// then executes (a GNU extension; the tree builds with GCC or Clang only).
///
/// At decode time the common `linalg.generic` body shapes are recognized
/// and bound to straight-line C++ micro-kernels with hardwired inner-loop
/// strides:
///   * mul+add accumulate (matmul and conv kernels, any rank whose
///     indexing maps are linear in the loop dims),
///   * single elementwise binary epilogues,
///   * staging copies (empty body yielding the input element).
/// Everything else falls back to the generic odometer. All kernels charge
/// HostPerfModel with exactly the events, order and addresses of
/// ExecPlan::run, so every modeled counter stays bit-identical —
/// PlanEquivalenceFuzzTest pins this differentially.
///
//===----------------------------------------------------------------------===//

#ifndef AXI4MLIR_EXEC_EXECPLANRUN_H
#define AXI4MLIR_EXEC_EXECPLANRUN_H

#include "exec/ExecPlan.h"
#include "support/LogicalResult.h"

#include <iosfwd>
#include <memory>
#include <string>
#include <vector>

namespace axi4mlir {
namespace exec {

/// Which executor runs a function: the tree walker (the reference oracle)
/// or the pre-decoded threaded-dispatch engine (the production path and
/// the default).
enum class ExecMode { Walker, Threaded };

/// Parses "walker" | "threaded"; sets \p Error otherwise.
LogicalResult parseExecMode(const std::string &Text, ExecMode &Mode,
                            std::string &Error);
const char *toString(ExecMode Mode);

/// A plan pre-decoded into dispatch-ready form. Owns copies of everything
/// it needs (like ExecPlan itself), so it stays valid after the source
/// plan is destroyed. Decode is total: every valid plan decodes.
class DecodedPlan {
public:
  /// Pre-decodes \p Plan (after any optimizer passes have run — the
  /// decoded program snapshots the plan as-is).
  static std::unique_ptr<DecodedPlan> decode(const ExecPlan &Plan);
  ~DecodedPlan();

  /// Executes via the threaded dispatch loop. Same contract (arguments,
  /// diagnostics, perf charges, also on a run that fails at a transfer)
  /// as ExecPlan::run.
  LogicalResult run(sim::SoC &Soc, runtime::DmaRuntime *Runtime,
                    const std::vector<runtime::MemRefDesc> &Arguments,
                    std::string &Error) const;

  /// Disassembles the dispatch-ready program (golden-pinned in
  /// ExecPlanTest). Opcodes shared with the plan print through
  /// ExecPlan's printer; only kernels and the return sentinel are new.
  void print(std::ostream &OS) const;
  std::string printToString() const;

  /// linalg.generic sites bound to a specialized micro-kernel.
  unsigned numSpecializedKernels() const;

private:
  DecodedPlan();
  std::unique_ptr<DecodedProgram> Impl;
};

} // namespace exec
} // namespace axi4mlir

#endif // AXI4MLIR_EXEC_EXECPLANRUN_H
