//===- PlanVerifier.h - Static ExecPlan verification ------------*- C++ -*-===//
//
// Part of the AXI4MLIR reproduction. MIT licensed.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Abstract interpretation over a compiled ExecPlan's flat instruction
/// program, proving -- without executing it -- the properties the
/// runtime otherwise discovers by failing or crashing mid-simulation:
///
///  * structural integrity: every slot reference inside the plan's slot
///    space, every side-table index (pool, subviews, generics, dma
///    configs) in bounds, LoopBegin/LoopEnd well nested with mutually
///    consistent jump targets (including the remapped targets the
///    optimizer writes after loop flattening);
///  * definition before use: a read of a slot no path has written is an
///    error; a read of a slot defined only inside a possibly zero-trip
///    loop is a strict-mode finding;
///  * loop sanity: constant-folded bounds with a non-positive step, the
///    condition runSpan rejects at execution time, are rejected here;
///  * DMA staging bounds: every staged copy, send and receive whose
///    offsets constant-fold is proven inside the active dma_init's
///    input/output region; unprovable transfers are strict findings;
///  * transfer discipline holds by construction: a send or receive is
///    one instruction that starts the transfer and waits for it, and
///    ExecPlan::compile refuses a start without its wait;
///  * protocol conformance (when a ProtocolModel is supplied): the words
///    each send streams are replayed against the abstract accelerator
///    FSM, so unsupported opcodes, data-before-configuration orderings,
///    burst/tile mismatches and unreachable receives are static
///    diagnostics. Loop bodies are proven protocol-stable by walking
///    them to a fixpoint before their effect is admitted.
///
/// Diagnostics carry the failing instruction: "pc 12 (send): ...".
///
//===----------------------------------------------------------------------===//

#ifndef AXI4MLIR_ANALYSIS_PLANVERIFIER_H
#define AXI4MLIR_ANALYSIS_PLANVERIFIER_H

#include "analysis/ProtocolModel.h"

#include <string>
#include <vector>

namespace axi4mlir {
namespace exec {
class ExecPlan;
} // namespace exec

namespace analysis {

/// One verifier finding, anchored to an instruction (Pc < 0 for
/// plan-level findings).
struct PlanDiag {
  int64_t Pc = -1;
  std::string Message;
};

/// The verifier's verdict: hard errors (the plan would fail or crash, or
/// its encoding is corrupt) and strict-mode findings (properties the
/// verifier could not prove).
struct VerifyResult {
  std::vector<PlanDiag> Errors;
  std::vector<PlanDiag> Warnings;

  bool ok(bool Strict = false) const {
    return Errors.empty() && (!Strict || Warnings.empty());
  }
  /// All findings, one "error: pc N (op): ..." line each.
  std::string toString() const;
};

struct VerifyOptions {
  /// Promote unprovable properties (possibly-undefined reads, unprovable
  /// DMA bounds, protocol give-ups) from warnings to failures of ok().
  bool Strict = false;
  /// When set, layer 2 runs: the words the plan streams are checked
  /// against this abstract accelerator FSM. The model is copied.
  const ProtocolModel *Model = nullptr;
};

/// Verifies \p Plan statically. Never executes the plan and never
/// mutates it.
VerifyResult verifyPlan(const exec::ExecPlan &Plan,
                        const VerifyOptions &Options = VerifyOptions());

} // namespace analysis
} // namespace axi4mlir

#endif // AXI4MLIR_ANALYSIS_PLANVERIFIER_H
