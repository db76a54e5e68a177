//===- PlanView.h - Read access to ExecPlan internals -----------*- C++ -*-===//
//
// Part of the AXI4MLIR reproduction. MIT licensed.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The bridge between the static analysis framework and the compiled
/// plan representation. ExecPlan keeps its instruction encoding private
/// (only the builder, the optimizer and the executors may touch it);
/// PlanView is the one friend the analyses go through. It re-exports the
/// internal types (Inst, Op, the side-table plans) and the per-opcode
/// table (ExecPlan::OpTable: diagnostic name, operand slots and kinds,
/// result, cost-model charge, DMA-region effect) and exposes const
/// accessors over the program, so PlanVerifier / ProtocolChecker stay
/// strictly read-only, plus an explicit mutation escape hatch that the
/// mutation-based negative tests (tests/PlanVerifyTest.cpp) use to
/// corrupt known-good plans. The plan optimizer reads the same table
/// through this class.
///
//===----------------------------------------------------------------------===//

#ifndef AXI4MLIR_ANALYSIS_PLANVIEW_H
#define AXI4MLIR_ANALYSIS_PLANVIEW_H

#include "exec/ExecPlan.h"

namespace axi4mlir {
namespace analysis {

/// A non-owning, read-only view of one compiled ExecPlan.
class PlanView {
public:
  using Inst = exec::ExecPlan::Inst;
  using Op = exec::ExecPlan::Op;
  using BinKind = exec::ExecPlan::BinKind;
  using AllocPlan = exec::ExecPlan::AllocPlan;
  using SubViewPlan = exec::ExecPlan::SubViewPlan;
  using GenericPlan = exec::ExecPlan::GenericPlan;
  using OpInfo = exec::ExecPlan::OpInfo;
  using SlotUse = exec::ExecPlan::SlotUse;
  using RegionEffect = exec::ExecPlan::RegionEffect;
  static constexpr uint8_t BinFloatResult = exec::ExecPlan::BinFloatResult;

  explicit PlanView(const exec::ExecPlan &Plan) : Plan(&Plan) {}

  const std::vector<Inst> &program() const { return Plan->Program; }
  const std::vector<int32_t> &slotPool() const { return Plan->SlotPool; }
  const std::vector<AllocPlan> &allocs() const { return Plan->Allocs; }
  const std::vector<SubViewPlan> &subViews() const { return Plan->SubViews; }
  const std::vector<GenericPlan> &generics() const { return Plan->Generics; }
  const std::vector<accel::DmaInitConfig> &dmaConfigs() const {
    return Plan->DmaConfigs;
  }
  unsigned numSlots() const { return Plan->NumSlots; }
  unsigned numArgs() const { return Plan->NumArgs; }
  const std::string &funcName() const { return Plan->FuncName; }

  /// \p Code's opcode-table row.
  static const OpInfo &info(Op Code) { return exec::ExecPlan::info(Code); }
  /// Slot field \p K (0: A, 1: B, 2: C) of \p I.
  template <typename InstT> static auto &operand(InstT &I, unsigned K) {
    return K == 0 ? I.A : K == 1 ? I.B : I.C;
  }
  /// The slot \p I defines, or -1.
  static int32_t definedSlot(const Inst &I) {
    return info(I.Code).Defines != SlotUse::None ? I.Dst : -1;
  }

  /// Mutation access for the negative tests: corrupting a known-good plan
  /// and asserting the verifier's diagnostic is the contract that keeps
  /// every check honest. Nothing in src/ calls these.
  static std::vector<Inst> &mutableProgram(exec::ExecPlan &Plan) {
    return Plan.Program;
  }
  static std::vector<accel::DmaInitConfig> &
  mutableDmaConfigs(exec::ExecPlan &Plan) {
    return Plan.DmaConfigs;
  }

private:
  const exec::ExecPlan *Plan;
};

} // namespace analysis
} // namespace axi4mlir

#endif // AXI4MLIR_ANALYSIS_PLANVIEW_H
