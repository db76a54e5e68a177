//===- PlanOpt.cpp - ExecPlan optimizer pass pipeline ---------------------===//
//
// Part of the AXI4MLIR reproduction. MIT licensed.
//
//===----------------------------------------------------------------------===//
//
// The optimizer works on a structured view of the flat program: the
// well-nested LoopBegin/LoopEnd spans compiled from scf.for are parsed
// into a tree of nodes, passes transform the tree, and the tree is
// re-flattened with loop PC targets recomputed. Legality reasoning is
// the interesting part; every rule is commented at its check.
//
//===----------------------------------------------------------------------===//

#include "exec/opt/PlanOpt.h"

#include "analysis/PlanAnalyses.h"
#include "analysis/PlanVerifier.h"
#include "exec/ExecPlan.h"

#include <algorithm>
#include <cassert>
#include <map>
#include <set>

using namespace axi4mlir;
using namespace axi4mlir::exec;
using namespace axi4mlir::exec::opt;

//===----------------------------------------------------------------------===//
// Option parsing
//===----------------------------------------------------------------------===//

LogicalResult opt::parsePlanOptSpec(const std::string &Spec,
                                    PlanOptOptions &Options,
                                    std::string &Error) {
  Options = PlanOptOptions::none();
  if (Spec.empty() || Spec == "none")
    return success();
  if (Spec == "all") {
    Options = PlanOptOptions::all();
    return success();
  }
  size_t Pos = 0;
  while (Pos <= Spec.size()) {
    size_t Comma = Spec.find(',', Pos);
    std::string Token = Spec.substr(
        Pos, Comma == std::string::npos ? std::string::npos : Comma - Pos);
    if (Token == "fold")
      Options.Fold = true;
    else if (Token == "dce")
      Options.Dce = true;
    else if (Token == "licm")
      Options.Licm = true;
    else if (Token == "coalesce")
      Options.Coalesce = true;
    else {
      Error = "unknown plan-opt pass '" + Token +
              "' (expected none|all|fold|dce|licm|coalesce)";
      return failure();
    }
    if (Comma == std::string::npos)
      break;
    Pos = Comma + 1;
  }
  return success();
}

std::string opt::toString(const PlanOptOptions &Options) {
  if (!Options.any())
    return "none";
  if (Options.Fold && Options.Dce && Options.Licm && Options.Coalesce)
    return "all";
  std::string Out;
  auto append = [&](const char *Name) {
    if (!Out.empty())
      Out += ',';
    Out += Name;
  };
  if (Options.Fold)
    append("fold");
  if (Options.Dce)
    append("dce");
  if (Options.Licm)
    append("licm");
  if (Options.Coalesce)
    append("coalesce");
  return Out;
}

//===----------------------------------------------------------------------===//
// PlanOptimizer
//===----------------------------------------------------------------------===//

namespace axi4mlir {
namespace exec {
namespace opt {

class PlanOptimizer {
public:
  PlanOptimizer(ExecPlan &Plan, const PlanOptOptions &Options)
      : Plan(Plan), Options(Options) {}

  PlanOptStats run();

private:
  using Inst = ExecPlan::Inst;
  using POp = ExecPlan::Op;
  using View = analysis::PlanView;
  using Effect = View::RegionEffect;

  /// Structured program: leaves carry one instruction, loops carry the
  /// LoopBegin instruction plus their body (the LoopEnd is reconstructed
  /// at flatten time from the LoopBegin's fields, exactly as compiled).
  struct Node {
    Inst I;
    bool IsLoop = false;
    std::vector<Node> Body;
  };

  /// A half-open staged-region word range (the shared analysis type, so
  /// the optimizer's legality ranges and the verifier's bounds proofs are
  /// literally the same values).
  using Range = analysis::WordRange;

  //===--------------------------------------------------------------------===//
  // Tree building / flattening
  //===--------------------------------------------------------------------===//

  std::vector<Node> buildTree() const {
    size_t Pc = 0;
    return buildSpan(Pc, Plan.Program.size());
  }

  std::vector<Node> buildSpan(size_t &Pc, size_t End) const {
    std::vector<Node> Out;
    while (Pc < End) {
      const Inst &I = Plan.Program[Pc];
      if (I.Code == POp::LoopBegin) {
        Node Loop;
        Loop.I = I;
        Loop.IsLoop = true;
        size_t Past = static_cast<size_t>(I.Aux); // PC past the LoopEnd
        ++Pc;
        Loop.Body = buildSpan(Pc, Past - 1); // stop at the LoopEnd
        assert(Pc == Past - 1 &&
               Plan.Program[Pc].Code == POp::LoopEnd &&
               "malformed loop span");
        ++Pc; // consume the LoopEnd
        Out.push_back(std::move(Loop));
        continue;
      }
      assert(I.Code != POp::LoopEnd && "unbalanced LoopEnd");
      Node Leaf;
      Leaf.I = I;
      Out.push_back(std::move(Leaf));
      ++Pc;
    }
    return Out;
  }

  void flattenInto(const std::vector<Node> &Nodes,
                   std::vector<Inst> &Out) const {
    for (const Node &N : Nodes) {
      if (!N.IsLoop) {
        Out.push_back(N.I);
        continue;
      }
      size_t BeginPc = Out.size();
      Out.push_back(N.I);
      flattenInto(N.Body, Out);
      Inst End;
      End.Code = POp::LoopEnd;
      End.Dst = N.I.Dst;
      End.B = N.I.B;
      End.C = N.I.C;
      End.Aux = static_cast<int32_t>(BeginPc + 1);
      Out.push_back(End);
      Out[BeginPc].Aux = static_cast<int32_t>(Out.size());
    }
  }

  void commit(const std::vector<Node> &Tree) {
    std::vector<Inst> Out;
    Out.reserve(Plan.Program.size());
    flattenInto(Tree, Out);
    Plan.Program = std::move(Out);
  }

  //===--------------------------------------------------------------------===//
  // Operand enumeration
  //===--------------------------------------------------------------------===//

  /// Invokes \p Fn on a mutable reference to every slot the instruction
  /// reads: the A/B/C fields its opcode row declares, then pooled
  /// index/offset lists and generic payloads. Loop nodes report the
  /// bound/step slots of their LoopBegin.
  template <typename Fn> void forEachRead(Inst &I, Fn &&F) {
    for (unsigned K = 0; K < 3; ++K)
      if (View::info(I.Code).Reads[K].Kind != View::SlotUse::None)
        F(View::operand(I, K));
    switch (I.Code) {
    case POp::Load:
    case POp::Store:
      for (unsigned K = 0; K < I.Sub; ++K)
        F(Plan.SlotPool[static_cast<size_t>(I.Aux) + K]);
      return;
    case POp::SubView: {
      ExecPlan::SubViewPlan &Info = Plan.SubViews[I.Aux];
      for (unsigned K = 0; K < Info.NumOffsets; ++K)
        F(Plan.SlotPool[static_cast<size_t>(Info.PoolOffset) + K]);
      return;
    }
    case POp::Generic: {
      ExecPlan::GenericPlan &G = Plan.Generics[I.Aux];
      for (ExecPlan::OperandPlan &P : G.Operands)
        F(P.Slot);
      for (Inst &B : G.Body)
        forEachRead(B, F);
      for (int32_t &Y : G.YieldSlots)
        F(Y);
      return;
    }
    default:
      return;
    }
  }

  //===--------------------------------------------------------------------===//
  // Constant and memref-size analyses
  //===--------------------------------------------------------------------===//

  /// Per-slot constant/size facts — the shared analysis type consumed by
  /// the verifier's proofs and the shared queries (evalConstDst,
  /// constTripCount, inputWriteRange, sendRange).
  using Analysis = analysis::SlotFacts;

  Analysis analyze(std::vector<Node> &Tree) {
    unsigned N = Plan.NumSlots;
    Analysis A(N);

    // Collect every defining instruction per slot. Loop nodes write their
    // induction variable (twice at runtime — begin and backedge — which is
    // modeled as an unevaluable writer). Generic body instructions write
    // body-local slots; body arguments are rebound per point.
    std::vector<std::vector<const Inst *>> Writers(N);
    std::vector<int8_t> Unknown(N, 0);
    auto note = [&](int32_t Slot, const Inst *Def) {
      if (Slot < 0)
        return;
      ++A.NumWriters[Slot];
      if (Def)
        Writers[Slot].push_back(Def);
      else
        Unknown[Slot] = 1;
    };
    walkInsts(Tree, [&](const Node &Nd) {
      if (Nd.IsLoop) {
        note(Nd.I.Dst, nullptr);
        return;
      }
      const Inst &I = Nd.I;
      if (I.Code == POp::Generic) {
        const ExecPlan::GenericPlan &G = Plan.Generics[I.Aux];
        for (int32_t S : G.BodyArgSlots)
          note(S, nullptr);
        for (const Inst &B : G.Body)
          note(View::definedSlot(B), &B);
        return;
      }
      note(View::definedSlot(I), &I);
    });
    // Arguments are memref parameters: unknown values.
    for (unsigned Idx = 0; Idx < Plan.NumArgs && Idx < N; ++Idx)
      Unknown[Idx] = 1;

    // Static element counts (subviews and allocs have static shapes).
    walkInsts(Tree, [&](const Node &Nd) {
      if (Nd.IsLoop)
        return;
      const Inst &I = Nd.I;
      int64_t Count = analysis::staticElementCount(View(Plan), I);
      if (Count < 0)
        return;
      int32_t Slot = I.Dst;
      if (Slot < 0)
        return;
      if (A.SizeKnown[Slot] && A.Count[Slot] != Count) {
        A.SizeKnown[Slot] = 0; // conflicting writers
        Unknown[Slot] = 1;
        return;
      }
      A.SizeKnown[Slot] = 1;
      A.Count[Slot] = Count;
    });

    // Fixpoint: a slot is constant when every writer evaluates to the
    // same value under the facts established so far. Knowledge only
    // grows, so the loop terminates.
    bool Changed = true;
    while (Changed) {
      Changed = false;
      for (unsigned Slot = 0; Slot < N; ++Slot) {
        if (A.Known[Slot] || Unknown[Slot] || Writers[Slot].empty())
          continue;
        int64_t Value = 0;
        bool Ok = true, First = true;
        for (const Inst *Def : Writers[Slot]) {
          int64_t V = 0;
          if (!analysis::evalConstDst(*Def, A, V)) {
            Ok = false;
            break;
          }
          if (First) {
            Value = V;
            First = false;
          } else if (V != Value) {
            Ok = false;
            break;
          }
        }
        if (Ok) {
          A.Known[Slot] = 1;
          A.Value[Slot] = Value;
          Changed = true;
        }
      }
    }
    return A;
  }

  template <typename Fn> void walkInsts(std::vector<Node> &Tree, Fn &&F) {
    for (Node &N : Tree) {
      F(static_cast<const Node &>(N));
      if (N.IsLoop)
        walkInsts(N.Body, F);
    }
  }
  template <typename Fn>
  void walkInsts(const std::vector<Node> &Tree, Fn &&F) const {
    for (const Node &N : Tree) {
      F(N);
      if (N.IsLoop)
        walkInsts(N.Body, F);
    }
  }

  static Effect effect(const Inst &I) { return View::info(I.Code).Effect; }

  //===--------------------------------------------------------------------===//
  // fold
  //===--------------------------------------------------------------------===//

  bool foldPass(std::vector<Node> &Tree) {
    Analysis A = analyze(Tree);

    // Copy-propagation through index_cast: the cast's cell holds exactly
    // its operand's value, and every (SSA-dominated) read happens before
    // the operand can change — the only multi-writer slots are loop IVs,
    // which update strictly between iterations of their own loop while
    // all reads of the cast sit inside one iteration.
    std::vector<int32_t> Forward(Plan.NumSlots);
    for (unsigned S = 0; S < Plan.NumSlots; ++S)
      Forward[S] = static_cast<int32_t>(S);
    walkInsts(Tree, [&](const Node &Nd) {
      if (Nd.IsLoop)
        return;
      const Inst &I = Nd.I;
      if (I.Code == POp::IndexCast && I.Dst >= 0 &&
          A.NumWriters[I.Dst] == 1)
        Forward[I.Dst] = I.A;
    });
    auto resolve = [&](int32_t Slot) {
      // Chase chains of casts (bounded: the chain is acyclic in SSA).
      for (int Guard = 0; Guard < 8 && Forward[Slot] != Slot; ++Guard)
        Slot = Forward[Slot];
      return Slot;
    };

    // Canonical constants: scoped forward walk. A ConstInt defined at an
    // enclosing (dominating) position is the canonical slot for its
    // value; later reads of any slot known to hold that value are
    // redirected to it. Only references change — the executed sequence
    // and every perf charge stay bit-identical.
    bool Changed = false;
    std::vector<std::map<int64_t, int32_t>> Scopes(1);
    std::function<void(std::vector<Node> &)> walk =
        [&](std::vector<Node> &Body) {
          for (Node &Nd : Body) {
            auto rewrite = [&](int32_t &Slot) {
              int32_t Propagated = resolve(Slot);
              if (Propagated != Slot && !A.isConst(Slot)) {
                Slot = Propagated;
                ++Stats.FoldedOperands;
                Changed = true;
                return;
              }
              if (!A.isConst(Slot))
                return;
              int64_t V = A.Value[Slot];
              for (auto It = Scopes.rbegin(); It != Scopes.rend(); ++It) {
                auto Found = It->find(V);
                if (Found != It->end()) {
                  if (Found->second != Slot) {
                    Slot = Found->second;
                    ++Stats.FoldedOperands;
                    Changed = true;
                  }
                  return;
                }
              }
            };
            if (Nd.I.Code == POp::Generic) {
              // Payload bodies are rebound per point; leave them alone.
            } else {
              forEachRead(Nd.I, rewrite);
            }
            if (!Nd.IsLoop && Nd.I.Code == POp::ConstInt &&
                Nd.I.Dst >= 0 && A.isConst(Nd.I.Dst))
              Scopes.back().try_emplace(A.Value[Nd.I.Dst], Nd.I.Dst);
            if (Nd.IsLoop) {
              Scopes.emplace_back();
              walk(Nd.Body);
              Scopes.pop_back();
            }
          }
        };
    walk(Tree);
    return Changed;
  }

  //===--------------------------------------------------------------------===//
  // dce
  //===--------------------------------------------------------------------===//

  void countReads(std::vector<Node> &Tree, std::vector<uint32_t> &Reads) {
    Reads.assign(Plan.NumSlots, 0);
    walkInsts(Tree, [&](const Node &Nd) {
      // Loop machinery reads the IV it writes; keep IVs alive.
      Node &Mutable = const_cast<Node &>(Nd);
      forEachRead(Mutable.I, [&](int32_t &Slot) {
        if (Slot >= 0)
          ++Reads[Slot];
      });
      if (Nd.IsLoop && Nd.I.Dst >= 0)
        ++Reads[Nd.I.Dst];
    });
  }

  bool dcePass(std::vector<Node> &Tree) {
    bool AnyChange = false;
    bool Changed = true;
    while (Changed) {
      Changed = false;
      Analysis A = analyze(Tree);
      std::vector<uint32_t> Reads;
      countReads(Tree, Reads);

      std::function<void(std::vector<Node> &)> sweep =
          [&](std::vector<Node> &Body) {
            std::vector<Node> Kept;
            Kept.reserve(Body.size());
            for (size_t Idx = 0; Idx < Body.size(); ++Idx) {
              Node &Nd = Body[Idx];
              if (Nd.IsLoop) {
                // A constant zero-trip loop never executes its body and
                // charges nothing at the LoopBegin: removal is perfectly
                // counter-identical.
                if (analysis::constTripCount(Nd.I, A) == 0) {
                  unsigned Removed = 0;
                  walkInsts(Nd.Body, [&](const Node &) { ++Removed; });
                  Stats.RemovedUnchargedInsts += Removed + 1;
                  Changed = AnyChange = true;
                  continue;
                }
                sweep(Nd.Body);
                Kept.push_back(std::move(Nd));
                continue;
              }
              const Inst &I = Nd.I;
              // Dead uncharged pure instructions: removing them changes
              // no executed charge and no observable value.
              if (!View::info(I.Code).Charged && I.Dst >= 0 &&
                  Reads[I.Dst] == 0) {
                ++Stats.RemovedUnchargedInsts;
                Changed = AnyChange = true;
                continue;
              }
              // Dead staging writes: a constant-range input-region write
              // whose bytes are fully overwritten (or re-initialized by
              // dma_init) before any send can stream them is
              // unobservable apart from its charges.
              Range W;
              if (effect(I) == Effect::Stage &&
                  (I.Dst < 0 || Reads[I.Dst] == 0) &&
                  analysis::inputWriteRange(I, A, W) &&
                  deadAfter(Body, Idx, W, A)) {
                ++Stats.RemovedChargedInsts;
                Changed = AnyChange = true;
                continue;
              }
              Kept.push_back(std::move(Nd));
            }
            Body = std::move(Kept);
          };
      sweep(Tree);
    }
    return AnyChange;
  }

  /// True if write range \p W at \p Body[Idx] is fully overwritten before
  /// anything can read it. Only the same straight-line level is scanned;
  /// loops and unknown-range region ops stop the scan conservatively.
  bool deadAfter(std::vector<Node> &Body, size_t Idx, const Range &W,
                 const Analysis &A) {
    for (size_t J = Idx + 1; J < Body.size(); ++J) {
      Node &Nd = Body[J];
      if (Nd.IsLoop)
        return false;
      const Inst &I = Nd.I;
      if (effect(I) == Effect::Init)
        return true; // region re-initialized wholesale
      if (effect(I) == Effect::Stage) {
        Range R;
        if (!analysis::inputWriteRange(I, A, R))
          return false;
        if (R.covers(W))
          return true;
        if (R.overlaps(W))
          return false; // partially clobbered: keep it simple, keep it
        continue;
      }
      if (effect(I) == Effect::Send) {
        Range R;
        if (!analysis::sendRange(I, A, R) || R.overlaps(W))
          return false;
        continue;
      }
      // Pure/host instructions never read the staged region.
    }
    return false;
  }

  //===--------------------------------------------------------------------===//
  // licm
  //===--------------------------------------------------------------------===//

  struct LoopFacts {
    std::set<int32_t> Written;
    std::vector<Range> InputWrites; // constant-range staging writes
    bool RegionUnknown = false;     // dma_init / unknown range
    bool HostMemWrite = false;      // store/copy/generic/copy_from_dma
  };

  void collectLoopFacts(std::vector<Node> &Body, const Analysis &A,
                        LoopFacts &Facts) {
    walkInsts(Body, [&](const Node &Nd) {
      if (Nd.IsLoop) {
        Facts.Written.insert(Nd.I.Dst);
        return;
      }
      const Inst &I = Nd.I;
      int32_t W = View::definedSlot(I);
      if (W >= 0)
        Facts.Written.insert(W);
      if (I.Code == POp::Generic) {
        const ExecPlan::GenericPlan &G = Plan.Generics[I.Aux];
        for (int32_t S : G.BodyArgSlots)
          Facts.Written.insert(S);
        for (const Inst &B : G.Body) {
          int32_t BW = View::definedSlot(B);
          if (BW >= 0)
            Facts.Written.insert(BW);
        }
      }
      Range R;
      switch (effect(I)) {
      case Effect::HostWrite:
      case Effect::ReadBack:
        Facts.HostMemWrite = true;
        break;
      case Effect::Stage:
        if (analysis::inputWriteRange(I, A, R))
          Facts.InputWrites.push_back(R);
        else
          Facts.RegionUnknown = true;
        break;
      case Effect::Send:
        if (!analysis::sendRange(I, A, R))
          Facts.RegionUnknown = true;
        break;
      case Effect::Init:
        Facts.RegionUnknown = true;
        break;
      default:
        break;
      }
    });
  }

  bool licmPass(std::vector<Node> &Tree) {
    Analysis A = analyze(Tree);
    return licmOnBody(Tree, A);
  }

  bool licmOnBody(std::vector<Node> &Body, const Analysis &A) {
    bool Changed = false;
    for (size_t Idx = 0; Idx < Body.size(); ++Idx) {
      if (!Body[Idx].IsLoop)
        continue;
      // Innermost first, so hoisted code bubbles outward level by level
      // across pipeline rounds.
      if (licmOnBody(Body[Idx].Body, A))
        Changed = true;
      std::vector<Node> Hoisted;
      if (hoistFromLoop(Body[Idx], A, Hoisted)) {
        Body.insert(Body.begin() + static_cast<long>(Idx),
                    std::make_move_iterator(Hoisted.begin()),
                    std::make_move_iterator(Hoisted.end()));
        Idx += Hoisted.size();
        Changed = true;
      }
    }
    return Changed;
  }

  bool hoistFromLoop(Node &Loop, const Analysis &A,
                     std::vector<Node> &Hoisted) {
    LoopFacts Facts;
    collectLoopFacts(Loop.Body, A, Facts);
    // The loop's own induction variable is written by the loop node
    // itself, which the body walk doesn't see.
    Facts.Written.insert(Loop.I.Dst);
    int64_t Trip = analysis::constTripCount(Loop.I, A);

    bool Changed = false;
    bool Repeat = true;
    while (Repeat) {
      Repeat = false;
      for (size_t Idx = 0; Idx < Loop.Body.size(); ++Idx) {
        Node &Nd = Loop.Body[Idx];
        if (Nd.IsLoop)
          continue;
        Inst &I = Nd.I;

        bool Invariant = true;
        forEachRead(I, [&](int32_t &Slot) {
          if (Slot >= 0 && Facts.Written.count(Slot))
            Invariant = false;
        });
        if (!Invariant)
          continue;

        bool DoHoist = false;
        bool Charged = false;
        if (!View::info(I.Code).Charged) {
          // Constants and index_casts charge nothing: re-executing them
          // per iteration versus once is invisible to every counter.
          DoHoist = true;
        } else if (I.Code == POp::Binary || I.Code == POp::SubView) {
          // Charged pure ops need a guaranteed execution: hoisting above
          // a possibly-zero-trip loop would add charges, not remove them.
          DoHoist = Trip >= 1;
          Charged = true;
        } else if (effect(I) == Effect::Stage) {
          DoHoist = Trip >= 1 && !Facts.RegionUnknown;
          Charged = true;
          Range W{0, 0};
          if (DoHoist && !analysis::inputWriteRange(I, A, W))
            DoHoist = false;
          if (DoHoist) {
            // Idempotence: the write must be the only writer of its
            // range in the whole loop, so dropping the re-execution
            // leaves exactly the value every send observes.
            unsigned Overlaps = 0;
            for (const Range &R : Facts.InputWrites)
              if (R.overlaps(W))
                ++Overlaps;
            if (Overlaps != 1)
              DoHoist = false;
          }
          if (DoHoist && sendBeforeOverlaps(Loop.Body, Idx, W, A)) {
            // An overlapping send earlier in the body would, on the
            // first iteration, stream the pre-loop region content; the
            // hoisted write must not change what it sees.
            DoHoist = false;
          }
          if (DoHoist && I.Code == POp::CallCopyToDma &&
              Facts.HostMemWrite) {
            // The copy reads host memory; anything in the loop writing
            // host memory could alias its source. No alias analysis
            // here — stay conservative.
            DoHoist = false;
          }
        }
        if (!DoHoist)
          continue;

        if (Charged)
          ++Stats.HoistedChargedInsts;
        else
          ++Stats.HoistedUnchargedInsts;
        int32_t W = View::definedSlot(I);
        if (W >= 0)
          Facts.Written.erase(W);
        Hoisted.push_back(std::move(Nd));
        Loop.Body.erase(Loop.Body.begin() + static_cast<long>(Idx));
        --Idx;
        Changed = true;
        Repeat = true; // new invariants may have been exposed
      }
    }
    return Changed;
  }

  /// True if a send overlapping \p W executes before direct child
  /// \p Limit of \p Body on the first iteration.
  bool sendBeforeOverlaps(std::vector<Node> &Body, size_t Limit,
                          const Range &W, const Analysis &A) {
    bool Found = false;
    for (size_t K = 0; K < Limit && !Found; ++K) {
      auto check = [&](const Node &Nd) {
        if (Nd.IsLoop || Found)
          return;
        if (effect(Nd.I) == Effect::Send) {
          Range R;
          if (!analysis::sendRange(Nd.I, A, R) || R.overlaps(W))
            Found = true;
        }
      };
      check(Body[K]);
      if (Body[K].IsLoop)
        walkInsts(Body[K].Body, check);
    }
    return Found;
  }

  //===--------------------------------------------------------------------===//
  // coalesce
  //===--------------------------------------------------------------------===//

  bool coalescePass(std::vector<Node> &Tree) {
    bool Changed = false;
    {
      Analysis A = analyze(Tree);
      if (flattenSingleTripLoops(Tree, A))
        Changed = true;
    }
    // Re-analyze: flattening turned IVs into constants, which is exactly
    // what exposes constant send ranges for merging.
    Analysis A = analyze(Tree);
    if (sendsFreshIn(Tree, nullptr, A)) {
      int64_t Capacity = analysis::inputRegionWords(View(Plan));
      if (Capacity > 0 && mergeSendsIn(Tree, A, Capacity))
        Changed = true;
    }
    return Changed;
  }

  /// Replaces constant single-trip loops by IV := lb plus the body. Drops
  /// one modeled loop-iteration charge per entered loop — strictly fewer
  /// instructions/branches, everything else untouched.
  bool flattenSingleTripLoops(std::vector<Node> &Body, const Analysis &A) {
    bool Changed = false;
    std::vector<Node> Out;
    Out.reserve(Body.size());
    for (Node &Nd : Body) {
      if (!Nd.IsLoop) {
        Out.push_back(std::move(Nd));
        continue;
      }
      if (flattenSingleTripLoops(Nd.Body, A))
        Changed = true;
      if (analysis::constTripCount(Nd.I, A) != 1) {
        Out.push_back(std::move(Nd));
        continue;
      }
      Node IvDef;
      IvDef.I.Code = POp::ConstInt;
      IvDef.I.Dst = Nd.I.Dst;
      IvDef.I.Imm = A.Value[Nd.I.A];
      Out.push_back(std::move(IvDef));
      for (Node &Child : Nd.Body)
        Out.push_back(std::move(Child));
      ++Stats.FlattenedLoops;
      Changed = true;
    }
    Body = std::move(Out);
    return Changed;
  }

  struct BodyContext {
    std::vector<Node> *Body;
    size_t LoopIdx; // index of the loop node within *Body
    const BodyContext *Parent;
    const std::vector<Range> *LoopWrites; // const writes inside the loop
  };

  /// Global soundness precondition for merging: every send must stream
  /// only freshly staged words. Then relocating one send's staging
  /// behind another's range can never surface stale region content to a
  /// later transfer. Checked per send by walking backwards over its
  /// straight-line context (continuing in front of the enclosing loop,
  /// where hoisted staging lands) until the range is covered; writes
  /// contributed from outside a loop must be disjoint from every write
  /// inside it so iterations beyond the first see the same bytes.
  bool sendsFreshIn(std::vector<Node> &Body, const BodyContext *Ctx,
                    const Analysis &A) {
    for (size_t Idx = 0; Idx < Body.size(); ++Idx) {
      Node &Nd = Body[Idx];
      if (Nd.IsLoop) {
        std::vector<Range> Writes;
        bool Unknown = false;
        walkInsts(Nd.Body, [&](const Node &Sub) {
          if (Sub.IsLoop)
            return;
          if (effect(Sub.I) == Effect::Stage) {
            Range R;
            if (analysis::inputWriteRange(Sub.I, A, R))
              Writes.push_back(R);
            else
              Unknown = true;
          }
        });
        if (Unknown)
          return false;
        BodyContext Inner{&Body, Idx, Ctx, &Writes};
        if (!sendsFreshIn(Nd.Body, &Inner, A))
          return false;
        continue;
      }
      if (Nd.I.Code != POp::CallSend)
        continue;
      Range S;
      if (!analysis::sendRange(Nd.I, A, S))
        return false;
      if (!coveredBackwards(&Body, Idx, S, Ctx, A))
        return false;
    }
    return true;
  }

  /// Walks backwards from \p Body[Idx] accumulating staged writes until
  /// \p Need is covered. dma_init covers everything (the region is
  /// re-initialized). Crossing out of a loop body continues right before
  /// the loop node; contributions gathered beyond that point must be
  /// disjoint from all writes inside the crossed loops (so iterations
  /// after the first observe identical bytes).
  bool coveredBackwards(std::vector<Node> *Body, size_t Idx, Range Need,
                        const BodyContext *Ctx, const Analysis &A) {
    std::vector<Range> Covered;
    std::vector<const std::vector<Range> *> CrossedWrites;
    for (;;) {
      for (size_t K = Idx; K-- > 0;) {
        Node &Nd = (*Body)[K];
        if (Nd.IsLoop)
          return false; // an intervening loop hides the staging order
        const Inst &I = Nd.I;
        if (effect(I) == Effect::Init)
          return true; // freshly zeroed region
        if (effect(I) == Effect::Stage) {
          Range R;
          if (!analysis::inputWriteRange(I, A, R))
            return false;
          for (const std::vector<Range> *LW : CrossedWrites)
            for (const Range &InLoop : *LW)
              if (InLoop.overlaps(R))
                return false;
          Covered.push_back(R);
          if (Need.coveredBy(Covered))
            return true;
        }
        // Sends only read; pure/host ops never touch the region.
      }
      if (!Ctx)
        return false;
      // Continue scanning in the parent, from just before the loop node
      // (where licm parks hoisted staging).
      CrossedWrites.push_back(Ctx->LoopWrites);
      Body = Ctx->Body;
      Idx = Ctx->LoopIdx;
      Ctx = Ctx->Parent;
    }
  }

  /// Merges adjacent sends separated only by the second send's
  /// constant-range staging (plus region-blind pure/host instructions).
  /// The second group's staged words are relocated to start right behind
  /// the first send's range, producing one burst that streams the exact
  /// same word sequence.
  bool mergeSendsIn(std::vector<Node> &Tree, Analysis &A,
                    int64_t Capacity) {
    bool Changed = false;
    std::function<void(std::vector<Node> &)> scan =
        [&](std::vector<Node> &Body) {
          for (Node &Nd : Body)
            if (Nd.IsLoop)
              scan(Nd.Body);
          bool Restart = true;
          while (Restart) {
            Restart = false;
            for (size_t I1 = 0; I1 < Body.size(); ++I1) {
              if (Body[I1].IsLoop || Body[I1].I.Code != POp::CallSend)
                continue;
              if (tryMergeAt(Body, I1, A, Capacity)) {
                Changed = true;
                Restart = true;
                // Analysis gained new constant slots.
                break;
              }
            }
          }
        };
    scan(Tree);
    return Changed;
  }

  bool tryMergeAt(std::vector<Node> &Body, size_t I1, Analysis &A,
                  int64_t Capacity) {
    Range S1;
    if (!analysis::sendRange(Body[I1].I, A, S1))
      return false;
    // Collect the second send's staging group.
    std::vector<size_t> Group;
    size_t I2 = 0;
    bool FoundSecond = false;
    for (size_t J = I1 + 1; J < Body.size(); ++J) {
      Node &Nd = Body[J];
      if (Nd.IsLoop)
        return false;
      const Inst &I = Nd.I;
      if (I.Code == POp::CallSend) {
        I2 = J;
        FoundSecond = true;
        break;
      }
      if (effect(I) == Effect::Stage) {
        Range R;
        if (!analysis::inputWriteRange(I, A, R))
          return false;
        Group.push_back(J);
        continue;
      }
      // Region-blind instructions (reading or writing host memory only)
      // may stay between the sends; anything region-ordered may not.
      if (effect(I) != Effect::None && effect(I) != Effect::HostWrite)
        return false;
    }
    if (!FoundSecond || Group.empty())
      return false;
    Range S2;
    if (!analysis::sendRange(Body[I2].I, A, S2))
      return false;
    int64_t L2 = S2.End - S2.Begin;
    if (L2 <= 0 || S1.End - S1.Begin <= 0)
      return false;
    if (S1.End + L2 > Capacity)
      return false;

    // The group must stage exactly the second send's range — otherwise
    // the merged burst would stream bytes the group never wrote.
    std::vector<Range> Ranges;
    for (size_t J : Group) {
      Range R;
      if (!analysis::inputWriteRange(Body[J].I, A, R))
        return false;
      if (R.Begin < S2.Begin || R.End > S2.End)
        return false;
      Ranges.push_back(R);
    }
    if (!S2.coveredBy(Ranges))
      return false;

    // Relocation rewrites the group's offsets and the second send's
    // operands; the group members' end-offset results change value, so
    // every read of them must be one of the rewritten positions.
    std::set<int32_t> GroupDsts;
    for (size_t J : Group)
      if (Body[J].I.Dst >= 0)
        GroupDsts.insert(Body[J].I.Dst);
    if (!GroupDsts.empty()) {
      std::map<int32_t, long> Outside;
      for (int32_t D : GroupDsts)
        Outside[D] = 0;
      // Count all reads, then subtract the rewritten positions.
      walkInsts(*TreeRoot, [&](const Node &Nd) {
        Node &Mutable = const_cast<Node &>(Nd);
        forEachRead(Mutable.I, [&](int32_t &Slot) {
          auto It = Outside.find(Slot);
          if (It != Outside.end())
            ++It->second;
        });
      });
      for (size_t J : Group) {
        auto It = Outside.find(Body[J].I.B);
        if (It != Outside.end())
          --It->second;
      }
      for (int32_t Slot : {Body[I2].I.A, Body[I2].I.B}) {
        auto It = Outside.find(Slot);
        if (It != Outside.end())
          --It->second;
      }
      for (auto &Entry : Outside)
        if (Entry.second != 0)
          return false;
    }

    // Perform the merge. New constants are uncharged, so the only
    // counter deltas are the dropped dmaStartSend/dmaWaitSendCompletion
    // charges and one DMA transfer — the word stream is unchanged.
    int64_t Delta = S1.End - S2.Begin;
    std::vector<Node> NewConsts;
    auto makeConst = [&](int64_t Value) {
      Node C;
      C.I.Code = POp::ConstInt;
      C.I.Dst = static_cast<int32_t>(Plan.NumSlots++);
      C.I.Imm = Value;
      NewConsts.push_back(std::move(C));
      return NewConsts.back().I.Dst;
    };
    for (size_t J : Group) {
      Range R;
      analysis::inputWriteRange(Body[J].I, A, R);
      Body[J].I.B = makeConst(R.Begin + Delta);
    }
    Inst &Merged = Body[I2].I;
    Merged.A = makeConst(S1.End + L2);
    Merged.B = Body[I1].I.B;

    std::vector<Node> Rebuilt;
    Rebuilt.reserve(Body.size() + NewConsts.size());
    for (size_t J = 0; J < Body.size(); ++J) {
      if (J == I1) {
        for (Node &C : NewConsts)
          Rebuilt.push_back(std::move(C));
        continue; // the first send is absorbed
      }
      Rebuilt.push_back(std::move(Body[J]));
    }
    Body = std::move(Rebuilt);
    ++Stats.CoalescedSends;
    // Extend the analysis for the new constant slots.
    A = analyze(*TreeRoot);
    return true;
  }

  ExecPlan &Plan;
  const PlanOptOptions &Options;
  PlanOptStats Stats;
  std::vector<Node> *TreeRoot = nullptr;
};

PlanOptStats PlanOptimizer::run() {
  if (!Options.any() || Plan.Program.empty())
    return Stats;
  std::vector<Node> Tree = buildTree();
  TreeRoot = &Tree;
  // Verify-each: re-flatten and run the static verifier after every pass
  // that changed the tree. The first failure records the offending pass
  // and aborts the pipeline, leaving the plan in the rejected state so
  // the caller can dump it next to the diagnostic.
  auto verifiedAfter = [&](const char *Pass) {
    if (!Options.VerifyEach)
      return true;
    commit(Tree);
    analysis::VerifyResult R = analysis::verifyPlan(Plan);
    if (R.Errors.empty())
      return true;
    Stats.VerifyError = R.Errors.front().Message;
    Stats.VerifyFailedPass = Pass;
    return false;
  };
  // Canonical order: fold exposes constants, licm hoists, coalesce
  // flattens+merges, dce sweeps the leftovers. Each pass is monotone, so
  // repeating until a full round is quiet terminates.
  for (int Round = 0; Round < 8; ++Round) {
    bool Changed = false;
    if (Options.Fold && foldPass(Tree)) {
      Changed = true;
      if (!verifiedAfter("fold")) {
        TreeRoot = nullptr;
        return Stats;
      }
    }
    if (Options.Licm && licmPass(Tree)) {
      Changed = true;
      if (!verifiedAfter("licm")) {
        TreeRoot = nullptr;
        return Stats;
      }
    }
    if (Options.Coalesce && coalescePass(Tree)) {
      Changed = true;
      if (!verifiedAfter("coalesce")) {
        TreeRoot = nullptr;
        return Stats;
      }
    }
    if (Options.Dce && dcePass(Tree)) {
      Changed = true;
      if (!verifiedAfter("dce")) {
        TreeRoot = nullptr;
        return Stats;
      }
    }
    if (!Changed)
      break;
  }
  commit(Tree);
  TreeRoot = nullptr;
  return Stats;
}

} // namespace opt
} // namespace exec
} // namespace axi4mlir

PlanOptStats opt::optimizePlan(ExecPlan &Plan,
                               const PlanOptOptions &Options) {
  PlanOptimizer Optimizer(Plan, Options);
  return Optimizer.run();
}
