//===- runtime/HostRunner.h - the host engines' execution core --*- C++ -*-===//
//
// Part of the IPG reproduction of "Interval Parsing Grammars for File Format
// Parsing" (PLDI 2023). MIT license.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The one execution core behind both host engines, the tree-walking
/// interpreter (runtime/Interp.cpp) and the bytecode VM
/// (vm/BytecodeVM.cpp). host::Runner runs the lowered module (lower/LIR.h)
/// through the three recursion-shape tiers (Direct recursion, Flattened
/// descend/replay, Step work-stack machine; analysis/RecShape.h) and owns
/// everything around them: the Salvage gate (BacktrackLive), amortized
/// deadline ticks, the rule-entry sequence (enterRule) and memo
/// bookkeeping, stats, failure diagnostics and the hard-error texts. Trees
/// and counters are therefore identical in both engines by construction;
/// tests/differential_test.cpp locks that.
///
/// Every tier executes an alternative in an ipg_rt::Frame
/// (support/GenRuntime.h), the frame generated parsers use too: its
/// environment, its sigma lookups, updStartEnd over its start/end fields,
/// and ipg_rt::freeze, which turns it into a node. The frame keeps one
/// input window, absolute offsets over the root input; input() rebuilds
/// the ByteSpan view of it.
///
/// The engines differ only in how an expression is evaluated, which the
/// Runner takes as its template parameter. An Evaluator is constructed
/// from (ParseScratch &, extra engine arguments...) and provides one hook
/// and one trait:
///
///   bool eval(const ipg_rt::Frame &F, lir::ExprId Id, int64_t &Out);
///   static constexpr bool Fuse;
///
/// evaluating program \p Id of the lowered module in frame \p F; false is
/// partiality (absent attribute, guarded arithmetic, out-of-bounds read)
/// and fails the term. The interpreter's evaluator tree-walks the source
/// expression through expr/Eval.h (the paper's Figure-8 reference
/// semantics); the VM's runs the pre-decoded quick forms and the
/// computed-goto dispatch loop. Each engine instantiates the template in
/// its own translation unit, so the VM's small evaluator body inlines into
/// the term-execution sites exactly as a member function would.
///
/// Fuse (set by the VM, clear for the interpreter) runs rules that carry
/// a lir::RecordPlan as one step — runRecord, in parseRule before the
/// alternative loop and inline per element of a record array — falling
/// back to the per-term loop on any failing step, so results and counters
/// never depend on it; the interpreter keeps executing every term as the
/// reference the VM is compared against.
///
/// Private to the two engines: nothing else should include this header.
///
//===----------------------------------------------------------------------===//

#ifndef IPG_RUNTIME_HOSTRUNNER_H
#define IPG_RUNTIME_HOSTRUNNER_H

#include "analysis/RecShape.h"
#include "grammar/Grammar.h"
#include "lower/LIR.h"
#include "runtime/Blackbox.h"
#include "runtime/EngineOptions.h"
#include "runtime/ParseScratch.h"
#include "runtime/ParseTree.h"
#include "support/Bytes.h"
#include "support/Casting.h"
#include "support/GenRuntime.h"
#include "support/Result.h"

#include <algorithm>
#include <cassert>
#include <chrono>
#include <cstddef>
#include <cstdint>
#include <cstring>
#include <string>
#include <utility>
#include <vector>

namespace ipg {
namespace host {

/// One parse() invocation over recycled ParseScratch, with expression
/// evaluation supplied by \p Evaluator (see the file comment).
template <class Evaluator> class Runner {
public:
  using Frame = ipg_rt::Frame;
  using IntervalKey = ipg_rt::IntervalKey;

  Runner(const Grammar &G, const EngineOptions &Opts, EngineStats &Stats,
         ParseScratch &St, Evaluator Ev, bool HasDeadline,
         std::chrono::steady_clock::time_point Deadline)
      : G(G), L(St.Lowered), Opts(Opts), Stats(Stats), St(St),
        Store(St.Stores.current()), Ev(std::move(Ev)),
        Salvage(Opts.Recovery == RecoveryPolicy::Salvage),
        HasDeadline(HasDeadline), Deadline(Deadline) {}

  Expected<TreePtr> run(ByteSpan Input, RuleId Start) {
    Base = Input.data() - Input.absBase();
    uint32_t RootId = L.Rules[Start].Shape == ExecShape::Step
                          ? runMachine(Start, Input)
                          : parseRule(Start, Input, nullptr);
    const NodeTree *Node =
        RootId == InvalidNode
            ? nullptr
            : cast<NodeTree>(Store.node(RootId));
    Stats.ArenaBytesUsed = Store.arenaBytesUsed();
    if (Hard) {
      Stats.ParseVerdict =
          Stats.TimedOut ? Verdict::Timeout : Verdict::Reject;
      return Expected<TreePtr>(std::move(Hard));
    }
    if (!Node) {
      Stats.ParseVerdict = Verdict::Reject;
      noteFail(L.Rules[Start].Name, Input.absBase());
      return Expected<TreePtr>::failure(
          "parse failed: input rejected by rule '" +
          std::string(G.interner().name(L.Rules[Start].Name)) + "'");
    }
    // The verdict counts holes reachable from the RESULT — HolesFilled
    // also counts holes in activations a later (non-backtrack) failure
    // abandoned, so it only gates the walk.
    if (Salvage && Stats.HolesFilled)
      Stats.HolesInTree = countHoles(*Node);
    Stats.ParseVerdict =
        Stats.HolesInTree ? Verdict::Salvage : Verdict::Accept;
    return Expected<TreePtr>(St.Stores.take(Node));
  }

private:
  const Grammar &G;
  const lir::Module &L;
  const EngineOptions &Opts;
  EngineStats &Stats;
  ParseScratch &St;
  TreeStore &Store;
  Evaluator Ev;
  const bool Salvage;
  const bool HasDeadline;
  const std::chrono::steady_clock::time_point Deadline;
  /// The byte at absolute offset 0 of the parse's input: frame windows
  /// are absolute offsets from here.
  const uint8_t *Base = nullptr;
  unsigned Tick = 0; ///< amortizes the deadline clock reads
  Error Hard = Error::success();
  size_t Depth = 0;
  /// Depth minus frame index: the rule entered at depth D runs in frame
  /// D - FrameBias. A flattened loop raises it by one per pending level,
  /// so its children run in the frames right above the loop's own,
  /// however deep its virtual recursion is.
  size_t FrameBias = 0;

  /// Salvage gate (see Lower.cpp's markRecoverable): the number of
  /// alternative attempts anywhere on the (virtual) stack that still
  /// have a later alternative to try. A hole may only be emitted when
  /// this is zero — i.e. when Strict would have failed the whole parse
  /// rather than backtracked — otherwise salvage would steal a choice
  /// from an enclosing biased alternative (gif's Block/Blocks). Every
  /// tier keeps it balanced on soft paths; hard aborts may leak it, but
  /// Hard already vetoes all salvage and the Runner lives one parse.
  size_t BacktrackLive = 0;

  /// parseRule's failure id (nodes are 32-bit store indices).
  static constexpr uint32_t InvalidNode = ~0u;

  //===--------------------------------------------------------------------===//
  // Term execution (Direct tier and the helpers every tier delegates to).
  //===--------------------------------------------------------------------===//

  /// The frame's local input as a ByteSpan (data, size, absolute base).
  ByteSpan input(const Frame &F) const {
    return ByteSpan(Base + F.Lo, F.Hi - F.Lo, F.Lo);
  }

  /// Begins an alternative of a rule over \p In in frame \p F.
  void beginAlt(Frame &F, ByteSpan In, const Frame *Lex, size_t NumTerms) {
    F.beginAlt(Base, In.absBase(), In.absBase() + In.size(), Lex, NumTerms);
  }

  /// updStartEnd of Figure 8 over the frame's start/end fields: the
  /// first-update min/max shared with the generated runtime. start/end
  /// enter the environment only once a term touches bytes; there is no
  /// pre-seeded sentinel.
  static void updStartEnd(Frame &F, int64_t Lo, int64_t Hi, bool Touched) {
    ipg_rt::updStartEnd(F, ipg_rt::IdStart, ipg_rt::IdEnd, Lo, Hi, Touched);
  }

  /// The subtree \p Sub's [start, end) as the parent sees it
  /// (ipg_rt::childSpan): untouched subtrees read as [sub-EOI, 0).
  void childSpan(uint32_t Sub, int64_t SubEoi, int64_t &BStart,
                 int64_t &BEnd) const {
    long long BS = 0, BE = 0;
    ipg_rt::childSpan(*cast<NodeTree>(Store.node(Sub)), SubEoi, BS, BE);
    BStart = BS;
    BEnd = BE;
  }

  /// Freezes the frame of a successful alternative of rule \p Id.
  uint32_t freeze(Frame &F, const lir::RuleL &R, RuleId Id) {
    ++Stats.NodesCreated;
    return ipg_rt::freeze(Store, F, R.Name, Id);
  }

  /// Evaluates a lowered interval; false means evaluation failed (term
  /// fails). An uncompleted interval (NoExpr endpoints) is a hard error —
  /// outlined so the error-string construction does not keep this
  /// two-program body from inlining into the term execution sites.
  bool evalInterval(const Frame &F, const lir::IntervalL &Iv, int64_t &Lo,
                    int64_t &Hi) {
    if (Iv.Lo == lir::NoExpr || Iv.Hi == lir::NoExpr) {
      uncompletedInterval();
      return false;
    }
    return Ev.eval(F, Iv.Lo, Lo) && Ev.eval(F, Iv.Hi, Hi);
  }

#if defined(__GNUC__) || defined(__clang__)
  __attribute__((noinline, cold))
#endif
  void
  uncompletedInterval() {
    Hard = Error::failure("internal: interval not completed (run "
                          "completeIntervals before parsing)");
  }

  /// Records a successfully parsed child subtree \p Sub (parsed over
  /// [Lo, Hi) of F's window) into the frame: T-NTSucc span defaults,
  /// interval shift, first-update start/end, touch record.
  void completeChildNT(Frame &F, uint32_t TermIdx, int64_t Lo, int64_t Hi,
                       uint32_t Sub, ParseScratch::FlatKid *Bank = nullptr) {
    int64_t BStart, BEnd;
    childSpan(Sub, Hi - Lo, BStart, BEnd);
    uint32_t Adjusted = Store.makeShifted(Sub, Lo);
    updStartEnd(F, Lo + BStart, Lo + BEnd, BEnd != 0);
    F.Kids.push_back(Adjusted);
    F.rec(TermIdx, Lo + BStart, Lo + BEnd);
    if (Bank)
      *Bank = ParseScratch::FlatKid{Adjusted, Lo + BStart, Lo + BEnd,
                                    BEnd != 0};
  }

  /// Parses a child nonterminal (shared by NT terms, array elements and
  /// switch arms). Returns false on Fail; records into the frame on
  /// success. \p Bank, when set, additionally captures the record the
  /// flattened tier replays on its way back up.
  bool parseChildNT(Frame &F, uint32_t TermIdx, RuleId Target,
                    const lir::IntervalL &Iv,
                    ParseScratch::FlatKid *Bank = nullptr) {
    int64_t Lo, Hi;
    if (!evalInterval(F, Iv, Lo, Hi) || Hard)
      return false;
    if (!ipg_rt::intervalOk(Lo, Hi, F.eoi()))
      return false;
    uint32_t Sub =
        parseRule(Target, input(F).slice(static_cast<size_t>(Lo),
                                         static_cast<size_t>(Hi)),
                  &F);
    if (Hard || Sub == InvalidNode)
      return false;
    completeChildNT(F, TermIdx, Lo, Hi, Sub, Bank);
    return true;
  }

  bool execTerm(Frame &F, const lir::TermL &T) {
    ++Stats.TermsExecuted;
    switch (T.Op) {
    case lir::TermOp::CallRule:
      if (T.Rule == InvalidRuleId)
        return unresolvedNT(F, T.Sym);
      return parseChildNT(F, T.TermIdx, T.Rule, T.Iv);

    case lir::TermOp::MatchBytes:
    case lir::TermOp::MatchRaw:
      return execTerminal(F, T);

    case lir::TermOp::SetAttr:
      return execAttrDef(F, T);

    case lir::TermOp::Check:
      return execPredicate(F, T);

    case lir::TermOp::ForArray:
      return execArray(F, T);

    case lir::TermOp::Select: {
      const lir::ArmL *C = chooseArm(F, T);
      if (!C)
        return false;
      if (C->Rule == InvalidRuleId) {
        Hard = Error::failure("internal: unresolved switch arm");
        return false;
      }
      return parseChildNT(F, T.TermIdx, C->Rule, C->Iv);
    }

    case lir::TermOp::CallBlackbox:
      return execBlackbox(F, T);
    }
    return false;
  }

  /// Matches a terminal and records its interval effects (start/end,
  /// touch record). \p Leaf clear is the flattened tier's way DOWN: no
  /// leaf is built — the replay on the way back up materializes it.
  template <bool Leaf = true>
  bool execTerminal(Frame &F, const lir::TermL &T) {
    int64_t Lo, Hi;
    if (!evalInterval(F, T.Iv, Lo, Hi) || Hard)
      return false;
    if (!ipg_rt::intervalOk(Lo, Hi, F.eoi()))
      return false;
    // `raw` matches the whole interval without reading or copying it.
    const bool Raw = T.Op == lir::TermOp::MatchRaw;
    int64_t Len = Hi - Lo;
    if (!Raw) {
      const std::string &Bytes = L.Lits[T.Lit];
      Len = static_cast<int64_t>(Bytes.size());
      if (Hi - Lo < Len)
        return false;
      if (!input(F).matchesAt(static_cast<size_t>(Lo), Bytes))
        return false;
    }
    updStartEnd(F, Lo, Lo + Len, Len > 0);
    // Zero-copy: the leaf aliases the matched window of the input.
    if constexpr (Leaf)
      F.Kids.push_back(Store.makeLeaf(Base + F.Lo + Lo,
                                      static_cast<size_t>(Len), Lo,
                                      /*Opaque=*/Raw));
    F.rec(T.TermIdx, Lo, Lo + Len);
    return true;
  }

  /// The switch arm a Select term commits to: the first whose condition
  /// holds. Null when none holds or a condition fails to evaluate.
  /// Conditions are pure, so choosing again yields the same arm.
  const lir::ArmL *chooseArm(const Frame &F, const lir::TermL &T) {
    for (uint32_t AI = T.ArmsBegin; AI != T.ArmsEnd; ++AI) {
      const lir::ArmL &C = L.Arms[AI];
      if (C.Cond != lir::NoExpr) {
        int64_t V;
        if (!Ev.eval(F, C.Cond, V))
          return nullptr;
        if (V == 0)
          continue;
      }
      return &C;
    }
    return nullptr;
  }

  /// The hard error of a call to a nonterminal the lowering could not
  /// resolve; returns false so a term can fail with it.
#if defined(__GNUC__) || defined(__clang__)
  __attribute__((noinline, cold))
#endif
  bool
  unresolvedNT(const Frame &F, Symbol Sym) {
    noteFail(Sym, F.Lo);
    Hard = Error::failure("internal: unresolved nonterminal '" +
                          std::string(G.interner().name(Sym)) +
                          "' (run checkAttributes before parsing)");
    return false;
  }

  bool execAttrDef(Frame &F, const lir::TermL &T) {
    int64_t V;
    if (!Ev.eval(F, T.E0, V))
      return false;
    F.setAttr(T.Sym, V);
    return true;
  }

  bool execPredicate(Frame &F, const lir::TermL &T) {
    int64_t V;
    return Ev.eval(F, T.E0, V) && V != 0;
  }

  bool execArray(Frame &F, const lir::TermL &T) {
    int64_t From, To;
    if (!Ev.eval(F, T.E0, From) || !Ev.eval(F, T.E1, To))
      return false;
    if (T.Rule == InvalidRuleId) {
      noteFail(T.Elem, F.Lo);
      Hard = Error::failure("internal: unresolved array element");
      return false;
    }

    // Save any outer binding of the loop variable and bind it per element;
    // the binding is visible to el/er and (through the lexical chain) to
    // local element rules, matching T-ArraySucc's E[id -> k].
    long long Saved = 0;
    const bool HadSaved = F.getAttr(T.Sym, Saved);
    // Element ids accumulate in per-nesting-level scratch. Elements may
    // contain arrays at deeper levels, and entering a deeper level can
    // resize the pool — re-index on every access instead of holding a
    // reference across the recursive parses below.
    size_t Level = St.ArrayNest++;
    St.elemScratchAt(Level).clear();
    bool AnyTouched = false;
    int64_t MaxEnd = 0;
    bool Failed = false;
    // Elements of a static record rule try their plan inline (see
    // parseRecordElem).
    const lir::RecordPlan *EP = nullptr;
    if constexpr (Evaluator::Fuse) {
      const lir::RuleL &ER = L.Rules[T.Rule];
      if (ER.Plan != lir::NoPlan && L.Plans[ER.Plan].Static)
        EP = &L.Plans[ER.Plan];
    }

    for (int64_t K = From; K < To; ++K) {
      F.setAttr(T.Sym, K);
      int64_t Lo, Hi;
      if (!evalInterval(F, T.Iv, Lo, Hi) || Hard) {
        Failed = true;
        break;
      }
      if (!ipg_rt::intervalOk(Lo, Hi, F.eoi())) {
        Failed = true;
        break;
      }
      const ByteSpan Slice = input(F).slice(static_cast<size_t>(Lo),
                                            static_cast<size_t>(Hi));
      uint32_t Sub = EP ? parseRecordElem(*EP, T.Rule, Slice, &F)
                        : parseRule(T.Rule, Slice, &F);
      if (Hard || Sub == InvalidNode) {
        Failed = true;
        break;
      }
      int64_t BStart, BEnd;
      childSpan(Sub, Hi - Lo, BStart, BEnd);
      St.ElemScratch[Level].push_back(Store.makeShifted(Sub, Lo));
      updStartEnd(F, Lo + BStart, Lo + BEnd, BEnd != 0);
      if (BEnd != 0) {
        AnyTouched = true;
        MaxEnd = std::max(MaxEnd, Lo + BEnd);
      }
    }

    --St.ArrayNest;
    if (HadSaved)
      F.setAttr(T.Sym, Saved);
    else
      F.eraseAttr(T.Sym);
    if (Failed)
      return false;

    const std::vector<uint32_t> &Elems = St.ElemScratch[Level];
    F.Kids.push_back(
        Store.makeArray(T.Elem, Elems.data(),
                        static_cast<uint32_t>(Elems.size())));
    if (AnyTouched)
      F.rec(T.TermIdx, 0, MaxEnd);
    return true;
  }

  //===--------------------------------------------------------------------===//
  // Fused records (lir::RecordPlan), VM only: Evaluator::Fuse.
  //===--------------------------------------------------------------------===//

  static_assert(sizeof(EnvSlot) == sizeof(lir::PlanSlot) &&
                    offsetof(EnvSlot, Key) == offsetof(lir::PlanSlot, Key) &&
                    offsetof(EnvSlot, Value) == offsetof(lir::PlanSlot, Value),
                "a static plan's env layout is copied as EnvSlots");

  static bool compare(lir::RecCmp C, int64_t A, int64_t B) {
    switch (C) {
    case lir::RecCmp::Eq:
      return A == B;
    case lir::RecCmp::Ne:
      return A != B;
    case lir::RecCmp::Lt:
      return A < B;
    case lir::RecCmp::Gt:
      return A > B;
    case lir::RecCmp::Le:
      return A <= B;
    case lir::RecCmp::Ge:
      return A >= B;
    }
    return false;
  }

  /// Runs record plan \p P of rule \p Id over \p Input as one step: every
  /// bounds, literal, read and check step first, then the leaves and the
  /// node — exactly the store writes, env slot order and counters the
  /// per-term loop produces on success. On any failing step it returns
  /// InvalidNode having written nothing to the store or the counters, and
  /// the caller runs the per-term loop, which reproduces the failure
  /// (Salvage holes, FailRule/FailOffset) term by term. A static plan
  /// needs no frame: its windows, env layout and span are constants. A
  /// dynamic plan evaluates its unfolded endpoints on \p F (begun for the
  /// rule) and keeps F's touch records current for TermEnd reads.
  template <bool Static>
  uint32_t runRecord(const lir::RecordPlan &P, RuleId Id, ByteSpan Input,
                     Frame *F) {
    const lir::RecordStep *const Steps = L.PlanSteps.data() + P.StepBegin;
    const uint32_t NumSteps = P.StepEnd - P.StepBegin;
    const uint8_t *const In = Input.data();
    const int64_t N = static_cast<int64_t>(Input.size());
    EnvSlot Env[lir::MaxRecordTerms + 2];
    uint32_t NE = 0;
    uint32_t Pos[lir::MaxRecordTerms]; // dynamic: env position per slot
    bool Touched = false;              // dynamic: start/end, appended last
    int64_t SpanLo = 0, SpanHi = 0;
    int64_t LeafLo[lir::MaxRecordTerms], LeafLen[lir::MaxRecordTerms];
    uint32_t Kids[lir::MaxRecordTerms];
    bool LeafRaw[lir::MaxRecordTerms];
    uint32_t NL = 0;
    if constexpr (Static) {
      if (N < P.MinEoi)
        return InvalidNode;
      NE = P.EnvEnd - P.EnvBegin;
      if (NE)
        std::memcpy(Env, L.PlanEnv.data() + P.EnvBegin,
                    sizeof(EnvSlot) * NE);
    }
    auto slotValue = [&](const lir::RecOperand &O, uint32_t StaticPos) {
      if (!O.IsSlot)
        return O.Imm;
      return Env[Static ? StaticPos : Pos[O.Slot]].Value;
    };
    for (uint32_t I = 0; I < NumSteps; ++I) {
      const lir::RecordStep &S = Steps[I];
      switch (S.Op) {
      case lir::RecOp::Lit:
      case lir::RecOp::Raw: {
        int64_t Lo = S.Lo, Hi = S.Hi;
        if constexpr (!Static) {
          if ((S.LoE != lir::NoExpr && !Ev.eval(*F, S.LoE, Lo)) ||
              (S.HiE != lir::NoExpr && !Ev.eval(*F, S.HiE, Hi)) ||
              !ipg_rt::intervalOk(Lo, Hi, N))
            return InvalidNode;
        }
        int64_t Len = Hi - Lo;
        if (S.Op == lir::RecOp::Lit) {
          const std::string &Bytes = L.Lits[S.Lit];
          Len = static_cast<int64_t>(Bytes.size());
          if (!Static && Hi - Lo < Len)
            return InvalidNode;
          if (Len && std::memcmp(In + Lo, Bytes.data(),
                                 static_cast<size_t>(Len)) != 0)
            return InvalidNode;
        }
        if constexpr (!Static) {
          if (Len > 0) { // updStartEnd's first-update min/max
            SpanLo = Touched ? std::min(SpanLo, Lo) : Lo;
            SpanHi = Touched ? std::max(SpanHi, Lo + Len) : Lo + Len;
            Touched = true;
          }
          F->rec(S.TermIdx, Lo, Lo + Len);
        }
        LeafLo[NL] = Lo;
        LeafLen[NL] = Len;
        LeafRaw[NL++] = S.Op == lir::RecOp::Raw;
        break;
      }
      case lir::RecOp::Read: {
        long long V = 0;
        if (!ipg_rt::readPacked(In, N, S.Lo, S.Spec, V))
          return InvalidNode;
        if constexpr (Static) {
          Env[S.Pos].Value = V;
        } else if (S.FirstDef) {
          Pos[S.Slot] = NE;
          Env[NE++] = EnvSlot{S.Sym, V};
        } else {
          Env[Pos[S.Slot]].Value = V;
        }
        break;
      }
      case lir::RecOp::Check:
        if (!compare(S.Cmp, slotValue(S.A, S.PosA), slotValue(S.B, S.PosB)))
          return InvalidNode;
        break;
      }
    }
    if (!Static && Touched) {
      Env[NE++] = EnvSlot{ipg_rt::IdStart, SpanLo};
      Env[NE++] = EnvSlot{ipg_rt::IdEnd, SpanHi};
    }
    for (uint32_t I = 0; I < NL; ++I)
      Kids[I] = Store.makeLeaf(In + LeafLo[I], static_cast<size_t>(LeafLen[I]),
                               LeafLo[I], LeafRaw[I]);
    const uint32_t Node = Store.makeNodeFromSlots(
        L.Rules[Id].Name, Id, Env, NE, Kids, NL);
    ++Stats.NodesCreated;
    Stats.TermsExecuted += NumSteps;
    return Node;
  }

  /// An array element whose rule has static record plan \p P: the plan
  /// runs inline, saving the element a call into parseRule. Everything
  /// else goes to parseRule, which runs the same plan itself — the depth
  /// limit, a deadline, and a failing step (the plan wrote nothing, so
  /// parseRule repeats it and falls back to the per-term loop).
  uint32_t parseRecordElem(const lir::RecordPlan &P, RuleId Id,
                           ByteSpan Input, const Frame *Lexical) {
    if (Depth >= Opts.MaxDepth || HasDeadline)
      return parseRule(Id, Input, Lexical);
    const uint32_t Node = runRecord<true>(P, Id, Input, nullptr);
    if (Node == InvalidNode)
      return parseRule(Id, Input, Lexical);
    Stats.PeakDepth = std::max(Stats.PeakDepth, Depth + 1);
    return Node;
  }

  bool execBlackbox(Frame &F, const lir::TermL &T) {
    int64_t Lo, Hi;
    if (!evalInterval(F, T.Iv, Lo, Hi) || Hard)
      return false;
    if (!ipg_rt::intervalOk(Lo, Hi, F.eoi()))
      return false;

    // The call site was resolved against the registry at engine
    // construction (lower/LIR.h's BbSite table).
    const BlackboxFn *Fn = St.BbFns[T.Bb];
    if (!Fn) {
      noteFail(T.Sym, F.Lo + Lo);
      Hard = Error::failure("blackbox parser '" +
                            L.BbSites[T.Bb].NameStr +
                            "' is not registered");
      return false;
    }
    ByteSpan Slice = input(F).slice(static_cast<size_t>(Lo),
                                    static_cast<size_t>(Hi));
    BlackboxResult Res = (*Fn)(Slice);
    if (!Res.Ok)
      return false;
    if (Res.End > Slice.size()) {
      noteFail(T.Sym, F.Lo + Lo);
      Hard = Error::failure("blackbox parser '" +
                            L.BbSites[T.Bb].NameStr +
                            "' consumed past its interval");
      return false;
    }

    // Decoded output is not a window into the input: the builder copies
    // it into the arena so the leaf's lifetime matches the tree's.
    uint32_t Node = Store.makeBlackboxNode(
        T.Sym, Res.Value, static_cast<int64_t>(Res.End), Res.Output.data(),
        Res.Output.size(), Lo, Hi);
    ++Stats.NodesCreated;
    updStartEnd(F, Lo, Lo + static_cast<int64_t>(Res.End), Res.End > 0);
    F.Kids.push_back(Node);
    F.rec(T.TermIdx, Lo, Lo + static_cast<int64_t>(Res.End));
    return true;
  }

  /// Records the failing rule/offset diagnostics. First failure wins: a
  /// hard error's site is THE failure (everything unwinds through it),
  /// and soft-reject sites only report at the top level.
  void noteFail(Symbol Rule, int64_t Off) {
    if (Stats.FailRule != ~0u)
      return;
    Stats.FailRule = Rule;
    Stats.FailOffset = Off;
  }

  /// Amortized deadline check at recoverable boundaries (rule entry /
  /// flattened level / machine act start): the clock is read once per
  /// 256 boundaries. A trip raises a hard error and flags TimedOut so
  /// the verdict becomes Timeout.
  bool pastDeadline(Symbol RuleName, int64_t AbsLo) {
    if (!HasDeadline)
      return false;
    if ((++Tick & 0xFFu) != 0)
      return false;
    if (std::chrono::steady_clock::now() < Deadline)
      return false;
    Stats.TimedOut = true;
    noteFail(RuleName, AbsLo);
    Hard = Error::failure(
        "parse aborted: deadline exceeded while parsing rule '" +
        std::string(G.interner().name(RuleName)) + "'");
    return true;
  }

  /// execTerm plus the Salvage wrapper: a term that fails SOFTLY at a
  /// boundary the lowering marked recoverable (lir::TermL::Recoverable)
  /// is fenced by a hole leaf over its interval and the sequence
  /// continues. \p Owner names the enclosing rule, used for holes at
  /// terminal boundaries (which have no callee name of their own).
  bool execTermSalvage(Frame &F, const lir::TermL &T, Symbol Owner) {
    if (execTerm(F, T))
      return true;
    if (!Salvage || Hard || !T.Recoverable || BacktrackLive != 0)
      return false;
    return emitHole(F, T, Owner);
  }

  /// Fences a failed recoverable term: resolves its interval (the
  /// committed arm's for Select) and emits a hole leaf over exactly that
  /// window. False — damage escalates to the enclosing boundary — when
  /// the interval no longer resolves or lands outside the input (e.g.
  /// truncation), which keeps salvaged reprints byte-exact.
  bool emitHole(Frame &F, const lir::TermL &T, Symbol Owner) {
    const lir::IntervalL *Iv = nullptr;
    Symbol HoleSym = Owner;
    switch (T.Op) {
    case lir::TermOp::CallRule:
    case lir::TermOp::CallBlackbox:
      Iv = &T.Iv;
      HoleSym = T.Sym;
      break;
    case lir::TermOp::MatchBytes:
    case lir::TermOp::MatchRaw:
      Iv = &T.Iv;
      break;
    case lir::TermOp::Select: {
      // The hole covers the arm the parse committed to, not the whole
      // term.
      const lir::ArmL *C = chooseArm(F, T);
      if (!C)
        return false; // no arm matched: nothing bounds the damage
      Iv = &C->Iv;
      if (C->Rule != InvalidRuleId)
        HoleSym = L.Rules[C->Rule].Name;
      break;
    }
    default:
      return false; // SetAttr/Check/ForArray are never recoverable
    }
    int64_t Lo, Hi;
    if (!evalInterval(F, *Iv, Lo, Hi) || Hard)
      return false;
    if (!ipg_rt::intervalOk(Lo, Hi, F.eoi()))
      return false;
    if (Hi <= Lo)
      return false; // a hole must cover at least one damaged byte —
                    // zero-width success where Strict fails could turn
                    // a proven-terminating list into a livelock
    emitHoleAt(F, T.TermIdx, Lo, Hi, HoleSym);
    return true;
  }

  /// Emits the hole leaf once its window is known, with the exact frame
  /// effects a `raw` match over [Lo, Hi) would have — so every later
  /// term (start/end, termEnd references) sees a consistent parse.
  void emitHoleAt(Frame &F, uint32_t TI, int64_t Lo, int64_t Hi,
                  Symbol HoleSym) {
    updStartEnd(F, Lo, Hi, Hi > Lo);
    F.Kids.push_back(Store.makeHole(Base + F.Lo + Lo,
                                    static_cast<size_t>(Hi - Lo), Lo,
                                    HoleSym));
    F.rec(TI, Lo, Hi);
    ++Stats.HolesFilled;
  }

  /// The depth-limit hard error, shared by all three execution tiers.
  Error depthError(const lir::RuleL &R, int64_t AbsLo) {
    noteFail(R.Name, AbsLo);
    return Error::failure(
        "recursion depth limit exceeded while parsing rule '" +
        std::string(G.interner().name(R.Name)) +
        "' (likely a non-terminating grammar; see termination checking)");
  }

  /// The memo key of rule \p Id over \p In (absolute offsets).
  static IntervalKey keyOf(RuleId Id, ByteSpan In) {
    return IntervalKey::pack(Id, In.absBase(), In.absBase() + In.size());
  }

  /// Memoizes rule \p Id's outcome over \p In: node \p Result, or a
  /// failure when it is InvalidNode.
  void memoize(RuleId Id, ByteSpan In, uint32_t Result) {
    St.Memo.insert(keyOf(Id, In),
                   ipg_rt::memoPack(Result == InvalidNode ? 0u : Result,
                                    Result != InvalidNode));
  }

  /// Local rules are never memoized (their meaning depends on the
  /// enclosing frame); leaf rules are excluded as a pure optimization —
  /// re-matching a handful of terminals/attrdefs is cheaper than a probe
  /// (the RuleL::Memoizable policy shared with all engines). Salvage
  /// disables memoization wholesale: with the BacktrackLive gate the
  /// outcome of a subparse depends on the enclosing backtrack state, so
  /// caching it (a hole-bearing tree, or a gated failure) would replay it
  /// into contexts where the opposite decision is required.
  bool isMemoized(const lir::RuleL &R) const {
    return Opts.UseMemo && R.Memoizable && !Salvage;
  }

  /// The rule-entry sequence of every tier — parseRule, each
  /// parseFlattened level and startAct: the depth limit (a hard error),
  /// the deadline tick, the depth and peak accounting, and the memo probe
  /// with its hit/miss counts. True: the rule runs, one level deeper.
  /// \p Node is InvalidNode. False: the activation is decided at Depth
  /// as on entry — \p Node is the memoized node, or InvalidNode for a
  /// memoized failure or a hard error (Hard set).
#if defined(__GNUC__) || defined(__clang__)
  __attribute__((always_inline))
#endif
  bool enterRule(const lir::RuleL &R, RuleId Id, ByteSpan In, bool Memoize,
                 uint32_t &Node) {
    Node = InvalidNode;
    if (Depth >= Opts.MaxDepth) {
      Hard = depthError(R, In.absBase());
      return false;
    }
    if (pastDeadline(R.Name, In.absBase()))
      return false;
    ++Depth;
    Stats.PeakDepth = std::max(Stats.PeakDepth, Depth);
    if (Memoize) {
      if (const uint32_t *Hit = St.Memo.find(keyOf(Id, In))) {
        ++Stats.MemoHits;
        --Depth;
        unsigned NodeId = 0;
        if (ipg_rt::memoUnpack(*Hit, NodeId))
          Node = NodeId;
        return false;
      }
      ++Stats.MemoMisses;
    }
    return true;
  }

  /// Parses \p Id over \p Input; returns the frozen node id, or
  /// InvalidNode on failure (check Hard for aborts). Dispatches on the
  /// rule's recursion shape: Flattened rules run as a descend/replay loop
  /// (parseFlattened) and Step rules only ever run on the work-stack
  /// machine starting at the parse root (runMachine) — recursive descent
  /// here is reserved for Direct rules, whose C-stack use is bounded by
  /// the grammar, never by the input.
  uint32_t parseRule(RuleId Id, ByteSpan Input, const Frame *Lexical) {
    if (Hard)
      return InvalidNode;
    const lir::RuleL &R = L.Rules[Id];
    if (R.Shape == ExecShape::Flattened)
      return parseFlattened(Id, Input);
    assert(R.Shape != ExecShape::Step &&
           "step rules only run on the machine (up-closure violated)");
    const bool Memoize = isMemoized(R);
    uint32_t Result;
    if (!enterRule(R, Id, Input, Memoize, Result))
      return Result;

    Frame &F = St.frameAt(Depth - FrameBias);
    if constexpr (Evaluator::Fuse) {
      if (R.Plan != lir::NoPlan) {
        const lir::RecordPlan &P = L.Plans[R.Plan];
        if (P.Static) {
          Result = runRecord<true>(P, Id, Input, nullptr);
        } else {
          beginAlt(F, Input, R.IsLocal ? Lexical : nullptr,
                   R.Alts[0].Exec.size());
          Result = runRecord<false>(P, Id, Input, &F);
        }
      }
    }
    for (size_t AI = 0, AE = Result == InvalidNode ? R.Alts.size() : 0;
         AI < AE; ++AI) {
      const lir::AltL &Alt = R.Alts[AI];
      const bool BT = AI + 1 < AE; // a later alternative is still untried
      beginAlt(F, Input, R.IsLocal ? Lexical : nullptr, Alt.Exec.size());
      // The environment starts empty: EOI is answered from the frame
      // (never stored as an attribute, so a grammar attribute named "EOI"
      // cannot collide through the lexical lookup), and start/end appear
      // only once a term touches bytes (first-update updStartEnd) — a
      // byte-untouched node exposes neither, and reading its X.start
      // fails with partiality, exactly as in the generated parsers.
      BacktrackLive += BT;
      bool Ok = true;
      for (const lir::TermL &T : Alt.Exec)
        if (!execTermSalvage(F, T, R.Name)) {
          Ok = false;
          break;
        }
      BacktrackLive -= BT;
      if (Hard)
        break;
      if (Ok) {
        Result = freeze(F, R, Id);
        break;
      }
    }

    if (Memoize && !Hard)
      memoize(Id, Input, Result);
    --Depth;
    return Hard ? InvalidNode : Result;
  }

  /// Flattened linear recursion (analysis/RecShape.h): the single self
  /// call becomes a descend/replay loop over a heap-backed window stack,
  /// so grammar recursion depth is bounded by Opts.MaxDepth alone — never
  /// by the C stack. One frame serves every level: on the way DOWN each
  /// level tries its pre-self alternatives for real, probes the self
  /// alternative's prefix (terminals record intervals but build no leaf;
  /// child nonterminals parse for real and bank their records), then
  /// descends into the self interval. On the way UP the self alternative
  /// replays per level — rebuilding the environment, materializing the
  /// terminal leaves, rebinding the banked children — completes the self
  /// child, and runs the suffix. Alternative order, memo traffic and
  /// depth accounting match the recursive form exactly.
  uint32_t parseFlattened(RuleId Id, ByteSpan Input) {
    const lir::RuleL &R = L.Rules[Id];
    const FlattenInfo &FI = R.Flatten;
    const lir::AltL &SAlt = R.Alts[FI.SelfAlt];
    const lir::TermL &SelfT = SAlt.Exec[FI.SelfExecPos];
    const size_t PN = FI.PrefixNTTerms.size();
    const bool Memoize = isMemoized(R);
    // Each level contributes to BacktrackLive while inside its self
    // alternative iff post-self alternatives exist to fall back to.
    const bool HasPost = FI.SelfAlt + 1 < R.Alts.size();
    const size_t EntryDepth = Depth;
    const size_t EntryBias = FrameBias;
    const size_t LvBase = St.FlatLevels.size();
    const size_t KidBase = St.FlatKids.size();
    Frame &F = St.frameAt(EntryDepth + 1 - EntryBias);
    ByteSpan Cur = Input;
    uint32_t Sub = InvalidNode;
    int64_t SLo = 0, SHi = 0;

  flat_descend:
    // Depth here is VIRTUAL — entry depth plus pending levels, the exact
    // figure the recursive form would have reached.
    Depth = EntryDepth + (St.FlatLevels.size() - LvBase);
    FrameBias = EntryBias + (St.FlatLevels.size() - LvBase);
    if (!enterRule(R, Id, Cur, Memoize, Sub)) {
      if (Hard)
        goto flat_hard;
      if (Sub == InvalidNode)
        goto flat_level_failed;
      goto flat_resolved;
    }

    // Alternatives BEFORE the self alternative run for real at every
    // level on the way down (recursion tries them first per activation).
    for (size_t AI = 0; AI < FI.SelfAlt; ++AI) {
      const lir::AltL &Alt = R.Alts[AI];
      beginAlt(F, Cur, nullptr, Alt.Exec.size());
      ++BacktrackLive; // the self alternative is still untried
      bool Ok = true;
      for (const lir::TermL &T : Alt.Exec)
        if (!execTermSalvage(F, T, R.Name)) {
          Ok = false;
          break;
        }
      --BacktrackLive;
      if (Hard)
        goto flat_hard;
      if (Ok) {
        Sub = freeze(F, R, Id);
        goto flat_level_ok;
      }
    }

    // The self alternative's prefix (descend phase), then push the level
    // and descend into the self interval.
    {
      beginAlt(F, Cur, nullptr, SAlt.Exec.size());
      // This level enters its self alternative: it contributes to
      // BacktrackLive until it leaves it — through the prefix, the
      // whole descent below, and the replay (flat_resolved).
      BacktrackLive += HasPost;
      for (size_t Step = 0; Step < FI.SelfExecPos; ++Step) {
        const lir::TermL &T = SAlt.Exec[Step];
        bool Ok;
        if (T.Op == lir::TermOp::CallRule) {
          if (T.Rule == InvalidRuleId) {
            unresolvedNT(F, T.Sym);
            goto flat_hard;
          }
          ++Stats.TermsExecuted;
          ParseScratch::FlatKid Bank;
          Ok = parseChildNT(F, T.TermIdx, T.Rule, T.Iv, &Bank);
          if (Ok)
            St.FlatKids.push_back(Bank);
        } else if (T.Op == lir::TermOp::MatchBytes ||
                   T.Op == lir::TermOp::MatchRaw) {
          // Counts as an execution; the replay on the way up does not.
          ++Stats.TermsExecuted;
          Ok = execTerminal</*Leaf=*/false>(F, T);
        } else {
          Ok = execTerm(F, T);
        }
        if (!Ok) {
          if (Hard)
            goto flat_hard;
          BacktrackLive -= HasPost; // prefix failed: leave the self alt
          goto flat_post_alts;
        }
      }
      ++Stats.TermsExecuted; // the self nonterminal term
      if (!evalInterval(F, SelfT.Iv, SLo, SHi) || Hard) {
        if (Hard)
          goto flat_hard;
        BacktrackLive -= HasPost; // leave the self alt
        goto flat_post_alts;
      }
      if (!ipg_rt::intervalOk(SLo, SHi, F.eoi())) {
        BacktrackLive -= HasPost; // leave the self alt
        goto flat_post_alts;
      }
      St.FlatLevels.push_back(Cur);
      Cur = input(F).slice(static_cast<size_t>(SLo),
                           static_cast<size_t>(SHi));
      goto flat_descend;
    }

    // The current level resolved to node Sub at the descend: memoize it
    // and unwind.
  flat_level_ok:
    if (Memoize)
      memoize(Id, Cur, Sub);
    goto flat_resolved;

    // Alternatives AFTER the self alternative, tried when the self
    // alternative failed at the current level (prefix, child, or suffix).
  flat_post_alts:
    Depth = EntryDepth + 1 + (St.FlatLevels.size() - LvBase);
    FrameBias = EntryBias + (St.FlatLevels.size() - LvBase);
    St.FlatKids.resize(KidBase +
                       (St.FlatLevels.size() - LvBase) * PN);
    for (size_t AI = FI.SelfAlt + 1; AI < R.Alts.size(); ++AI) {
      const lir::AltL &Alt = R.Alts[AI];
      const bool BT = AI + 1 < R.Alts.size(); // a later alt is untried
      beginAlt(F, Cur, nullptr, Alt.Exec.size());
      BacktrackLive += BT;
      bool Ok = true;
      for (const lir::TermL &T : Alt.Exec)
        if (!execTermSalvage(F, T, R.Name)) {
          Ok = false;
          break;
        }
      BacktrackLive -= BT;
      if (Hard)
        goto flat_hard;
      if (Ok) {
        Sub = freeze(F, R, Id);
        goto flat_level_ok;
      }
    }
    if (Memoize)
      memoize(Id, Cur, InvalidNode);
    goto flat_level_failed;

    // A level failed outright: its parent's self call failed, so the
    // parent falls through to ITS post-self alternatives.
  flat_level_failed:
    if (St.FlatLevels.size() == LvBase) {
      St.FlatKids.resize(KidBase);
      Depth = EntryDepth;
      FrameBias = EntryBias;
      return InvalidNode;
    }
    Cur = St.FlatLevels.back();
    St.FlatLevels.pop_back();
    BacktrackLive -= HasPost; // the parent level leaves its self alt
    goto flat_post_alts;

    // A level resolved to node Sub: unwind, deepest pending level first —
    // replay the self alternative's prefix for real, complete the self
    // child, run the suffix, build the node.
  flat_resolved:
    while (St.FlatLevels.size() > LvBase) {
      ByteSpan ChildWin = Cur;
      Cur = St.FlatLevels.back();
      St.FlatLevels.pop_back();
      Depth = EntryDepth + 1 + (St.FlatLevels.size() - LvBase);
      FrameBias = EntryBias + (St.FlatLevels.size() - LvBase);
      beginAlt(F, Cur, nullptr, SAlt.Exec.size());
      size_t KidJ = 0;
      bool Ok = true;
      for (size_t Step = 0; Step < FI.SelfExecPos && Ok; ++Step) {
        const lir::TermL &T = SAlt.Exec[Step];
        if (T.Op == lir::TermOp::CallRule) {
          const ParseScratch::FlatKid &K =
              St.FlatKids[KidBase +
                          (St.FlatLevels.size() - LvBase) * PN + KidJ++];
          updStartEnd(F, K.Start, K.End, K.Touched);
          F.Kids.push_back(K.Node);
          F.rec(T.TermIdx, K.Start, K.End);
        } else if (T.Op == lir::TermOp::MatchBytes ||
                   T.Op == lir::TermOp::MatchRaw) {
          Ok = execTerminal(F, T);
        } else if (T.Op == lir::TermOp::SetAttr) {
          Ok = execAttrDef(F, T);
        } else {
          Ok = execPredicate(F, T);
        }
      }
      if (Ok) {
        // Complete the self child from the banked window (the interval
        // evaluated at the descend; re-evaluation would yield the same).
        int64_t CLo = static_cast<int64_t>(ChildWin.absBase() -
                                           Cur.absBase());
        int64_t CHi = CLo + static_cast<int64_t>(ChildWin.size());
        completeChildNT(F, FI.SelfTerm, CLo, CHi, Sub);
        for (size_t Step = FI.SelfExecPos + 1;
             Step < SAlt.Exec.size() && Ok; ++Step)
          Ok = execTerm(F, SAlt.Exec[Step]);
      }
      if (Hard)
        goto flat_hard;
      BacktrackLive -= HasPost; // replay done: leave the self alt
      if (!Ok)
        goto flat_post_alts;
      Sub = freeze(F, R, Id);
      if (Memoize)
        memoize(Id, Cur, Sub);
    }
    St.FlatKids.resize(KidBase);
    Depth = EntryDepth;
    FrameBias = EntryBias;
    return Sub;

    // A hard failure aborts the whole activation: recursion unwinds every
    // pending level storing nothing.
  flat_hard:
    St.FlatLevels.resize(LvBase);
    St.FlatKids.resize(KidBase);
    Depth = EntryDepth;
    FrameBias = EntryBias;
    return InvalidNode;
  }

  //===--------------------------------------------------------------------===//
  // Step tier: the explicit work-stack machine for general recursion
  // (mutual cycles, multiple self-alternatives, self under array/switch).
  // One MachineAct per live rule invocation; acts suspend only where a
  // callee is itself a Step rule — every other term delegates to the
  // ordinary helpers, whose recursion is bounded by the grammar (Direct)
  // or heap-backed (Flattened). Depth is the act-stack height, so
  // MaxDepth limits exactly what it limits under recursion.
  //===--------------------------------------------------------------------===//

  using MachineAct = ParseScratch::MachineAct;

  uint32_t StartNode = InvalidNode; ///< result of an inline-resolved start
  bool ChildOk = false;             ///< delivery: did the last act succeed?
  uint32_t ChildNode = InvalidNode; ///< delivery: its node id

  enum StartStatus { ActPushed, ActDoneOk, ActDoneFail };

  /// parseRule's entry sequence (enterRule) for the machine. Either
  /// pushes a new act or resolves inline from the memo table (StartNode
  /// holds the node on ActDoneOk).
  StartStatus startAct(RuleId Id, ByteSpan In, const Frame *Lex) {
    const lir::RuleL &R = L.Rules[Id];
    if (!enterRule(R, Id, In, isMemoized(R), StartNode))
      return StartNode == InvalidNode ? ActDoneFail : ActDoneOk;
    MachineAct A;
    A.Id = Id;
    A.Input = In;
    A.Lex = Lex;
    BacktrackLive += R.Alts.size() > 1; // alt 0 begins with later alts
    St.Acts.push_back(A);
    return ActPushed;
  }

  /// Pops the top act with \p Result (InvalidNode on failure), closing its
  /// bookkeeping exactly as parseRule's exit does, and loads the delivery
  /// slot for the act below.
  void finishAct(uint32_t Result) {
    MachineAct &A = St.Acts.back();
    const lir::RuleL &R = L.Rules[A.Id];
    if (isMemoized(R) && !Hard)
      memoize(A.Id, A.Input, Result);
    BacktrackLive -= A.AltIdx + 1 < R.Alts.size();
    --Depth;
    St.Acts.pop_back();
    ChildOk = Result != InvalidNode && !Hard;
    ChildNode = Result;
  }

  void restoreLoopVar(Frame &F, MachineAct &A) {
    if (A.ArrHadSaved)
      F.setAttr(A.Arr->Sym, A.ArrSaved);
    else
      F.eraseAttr(A.Arr->Sym);
  }

  /// Abandons the in-flight array term of act \p I (element failed or an
  /// interval went bad): unwind exactly like execArray's failure path.
  int arrayFail(size_t I, Frame &F) {
    MachineAct &A = St.Acts[I];
    --St.ArrayNest;
    restoreLoopVar(F, A);
    A.Arr = nullptr;
    A.Wait = MachineAct::WaitNone;
    return 0;
  }

  void completeArrayElem(size_t I, Frame &F, uint32_t Sub) {
    MachineAct &A = St.Acts[I];
    int64_t Lo = A.PendLo, Hi = A.PendHi;
    int64_t BStart, BEnd;
    childSpan(Sub, Hi - Lo, BStart, BEnd);
    St.ElemScratch[A.ArrLevel].push_back(Store.makeShifted(Sub, Lo));
    updStartEnd(F, Lo + BStart, Lo + BEnd, BEnd != 0);
    if (BEnd != 0) {
      A.ArrTouched = true;
      A.ArrMaxEnd = std::max(A.ArrMaxEnd, Lo + BEnd);
    }
    ++A.ArrK;
  }

  /// Drives the element loop of the in-flight array term of act \p I.
  /// Returns 0 (term failed), 1 (term done), or 2 (suspended on a child
  /// act).
  int arrayLoop(size_t I, Frame &F) {
    for (;;) {
      MachineAct &A = St.Acts[I];
      const lir::TermL &Ar = *A.Arr;
      if (A.ArrK >= A.ArrTo) {
        --St.ArrayNest;
        restoreLoopVar(F, A);
        const std::vector<uint32_t> &Elems = St.ElemScratch[A.ArrLevel];
        F.Kids.push_back(
            Store.makeArray(Ar.Elem, Elems.data(),
                            static_cast<uint32_t>(Elems.size())));
        if (A.ArrTouched)
          F.rec(A.PendTI, 0, A.ArrMaxEnd);
        A.Arr = nullptr;
        A.Wait = MachineAct::WaitNone;
        return 1;
      }
      F.setAttr(Ar.Sym, A.ArrK);
      int64_t Lo, Hi;
      if (!evalInterval(F, Ar.Iv, Lo, Hi) || Hard)
        return arrayFail(I, F);
      if (!ipg_rt::intervalOk(Lo, Hi, F.eoi()))
        return arrayFail(I, F);
      A.PendLo = Lo;
      A.PendHi = Hi;
      A.Wait = MachineAct::WaitArr;
      StartStatus S2 = startAct(Ar.Rule,
                                input(F).slice(static_cast<size_t>(Lo),
                                               static_cast<size_t>(Hi)),
                                &F);
      if (S2 == ActPushed)
        return 2;
      St.Acts[I].Wait = MachineAct::WaitNone;
      if (S2 == ActDoneFail || Hard)
        return arrayFail(I, F);
      completeArrayElem(I, F, StartNode);
    }
  }

  /// Starts the machine path of an array term whose element rule is Step.
  int startArrayMachine(size_t I, Frame &F, const lir::TermL &T) {
    int64_t From, To;
    if (!Ev.eval(F, T.E0, From) || !Ev.eval(F, T.E1, To))
      return 0;
    MachineAct &A = St.Acts[I];
    A.Arr = &T;
    A.PendTI = T.TermIdx;
    long long Saved = 0;
    A.ArrHadSaved = F.getAttr(T.Sym, Saved);
    A.ArrSaved = Saved;
    A.ArrLevel = St.ArrayNest++;
    St.elemScratchAt(A.ArrLevel).clear();
    A.ArrTouched = false;
    A.ArrMaxEnd = 0;
    A.ArrK = From;
    A.ArrTo = To;
    return arrayLoop(I, F);
  }

  /// Suspends act \p I on a child parse of \p Target (NT term or switch
  /// arm); resolves inline when the child answers from the memo table.
  /// \p Recov / \p HoleSym carry the term's recoverability so a soft
  /// child failure under Salvage becomes a hole over [Lo, Hi) — both on
  /// the inline paths here and on the delivery path in advance().
  int suspendChild(size_t I, Frame &F, uint32_t TI, RuleId Target,
                   const lir::IntervalL &Iv, bool Recov, Symbol HoleSym) {
    int64_t Lo, Hi;
    if (!evalInterval(F, Iv, Lo, Hi) || Hard)
      return 0;
    if (!ipg_rt::intervalOk(Lo, Hi, F.eoi()))
      return 0;
    Recov = Recov && Hi > Lo; // zero-width holes are refused (see emitHole)
    MachineAct &A = St.Acts[I];
    A.PendTI = TI;
    A.PendLo = Lo;
    A.PendHi = Hi;
    A.PendRecov = Salvage && Recov;
    A.PendHole = HoleSym;
    A.Wait = MachineAct::WaitNT;
    StartStatus S2 = startAct(Target,
                              input(F).slice(static_cast<size_t>(Lo),
                                             static_cast<size_t>(Hi)),
                              &F);
    if (S2 == ActPushed)
      return 2;
    St.Acts[I].Wait = MachineAct::WaitNone;
    if (Hard)
      return 0;
    if (S2 == ActDoneFail) {
      if (Salvage && Recov && BacktrackLive == 0) {
        emitHoleAt(F, TI, Lo, Hi, HoleSym);
        return 1;
      }
      return 0;
    }
    completeChildNT(F, TI, Lo, Hi, StartNode);
    return 1;
  }

  /// Executes one term of act \p I. Terms whose callee needs the machine
  /// suspend; everything else delegates to the recursive helpers.
  /// Returns 0 (failed), 1 (done), or 2 (suspended).
  int execTermMachine(size_t I, Frame &F, const lir::TermL &T) {
    const Symbol Owner = L.Rules[St.Acts[I].Id].Name;
    switch (T.Op) {
    case lir::TermOp::CallRule: {
      if (T.Rule == InvalidRuleId ||
          L.Rules[T.Rule].Shape != ExecShape::Step)
        return execTermSalvage(F, T, Owner) ? 1 : 0;
      ++Stats.TermsExecuted;
      return suspendChild(I, F, T.TermIdx, T.Rule, T.Iv, T.Recoverable,
                          T.Sym);
    }
    case lir::TermOp::Select: {
      // Find the committed arm first; delegate whole-term when it does
      // not need the machine.
      const lir::ArmL *Chosen = chooseArm(F, T);
      if (!Chosen) {
        ++Stats.TermsExecuted;
        return 0; // no arm matched
      }
      if (Chosen->Rule == InvalidRuleId ||
          L.Rules[Chosen->Rule].Shape != ExecShape::Step)
        return execTermSalvage(F, T, Owner) ? 1 : 0;
      ++Stats.TermsExecuted;
      return suspendChild(I, F, T.TermIdx, Chosen->Rule, Chosen->Iv,
                          T.Recoverable, L.Rules[Chosen->Rule].Name);
    }
    case lir::TermOp::ForArray: {
      if (T.Rule == InvalidRuleId ||
          L.Rules[T.Rule].Shape != ExecShape::Step)
        return execTerm(F, T) ? 1 : 0; // arrays never salvage
      ++Stats.TermsExecuted;
      return startArrayMachine(I, F, T);
    }
    default:
      return execTermSalvage(F, T, Owner) ? 1 : 0;
    }
  }

  /// Runs the top act until it pushes a child or pops itself.
  void advance() {
    size_t I = St.Acts.size() - 1;
    Frame &F = St.frameAt(I + 1);
    const lir::RuleL &R = L.Rules[St.Acts[I].Id];
    bool AltFailed = false;

    // Consume a pending child delivery first.
    if (St.Acts[I].Wait == MachineAct::WaitNT) {
      MachineAct &A = St.Acts[I];
      A.Wait = MachineAct::WaitNone;
      if (ChildOk) {
        completeChildNT(F, A.PendTI, A.PendLo, A.PendHi, ChildNode);
        ++A.StepIdx;
      } else if (A.PendRecov && !Hard && BacktrackLive == 0) {
        // BacktrackLive is judged at failure-delivery time: the child's
        // own contributions are gone, what remains is this act's current
        // alternative plus everything enclosing it.
        emitHoleAt(F, A.PendTI, A.PendLo, A.PendHi, A.PendHole);
        ++A.StepIdx;
      } else {
        AltFailed = true;
      }
    } else if (St.Acts[I].Wait == MachineAct::WaitArr) {
      if (ChildOk) {
        completeArrayElem(I, F, ChildNode);
        int AR = arrayLoop(I, F);
        if (AR == 2)
          return;
        if (AR == 1)
          ++St.Acts[I].StepIdx;
        else
          AltFailed = true;
      } else {
        arrayFail(I, F);
        AltFailed = true;
      }
    }

    for (;;) {
      MachineAct &A = St.Acts[I];
      if (A.AltIdx >= R.Alts.size()) {
        finishAct(InvalidNode);
        return;
      }
      const lir::AltL &Alt = R.Alts[A.AltIdx];
      if (!AltFailed) {
        if (A.NeedBegin) {
          beginAlt(F, A.Input, R.IsLocal ? A.Lex : nullptr,
                   Alt.Exec.size());
          A.NeedBegin = false;
        }
        while (A.StepIdx < Alt.Exec.size()) {
          int TR = execTermMachine(I, F, Alt.Exec[A.StepIdx]);
          if (TR == 2)
            return; // suspended: references above are stale now
          if (TR == 0) {
            AltFailed = true;
            break;
          }
          ++A.StepIdx;
        }
      }
      if (Hard) {
        finishAct(InvalidNode);
        return;
      }
      if (!AltFailed) {
        uint32_t Result = freeze(F, R, A.Id);
        finishAct(Result);
        return;
      }
      ++A.AltIdx;
      if (A.AltIdx + 1 == R.Alts.size())
        --BacktrackLive; // this act just entered its last alternative
      A.StepIdx = 0;
      A.NeedBegin = true;
      AltFailed = false;
    }
  }

  /// Entry point for a Step start rule: the whole parse runs on the
  /// machine (the up-closure guarantees Direct/Flattened callees never
  /// lead back into a Step rule mid-descent).
  uint32_t runMachine(RuleId Start, ByteSpan Input) {
    St.Acts.clear();
    ChildOk = false;
    ChildNode = InvalidNode;
    StartStatus S0 = startAct(Start, Input, nullptr);
    if (S0 != ActPushed)
      return S0 == ActDoneOk && !Hard ? StartNode : InvalidNode;
    while (!St.Acts.empty() && !Hard)
      advance();
    if (Hard) {
      // Unwind exactly as recursion would: nothing pending is memoized.
      Depth -= St.Acts.size();
      St.Acts.clear();
      return InvalidNode;
    }
    return ChildOk ? ChildNode : InvalidNode;
  }
};

/// The shared body of Interp::parse and BytecodeVM::parse(Input, StartNT):
/// reset the stats, resolve the start rule, recycle the store, and run one
/// Runner whose evaluator is built from the scratch state and
/// \p EvalArgs.
template <class Evaluator, class... EvalArgs>
Expected<TreePtr> parse(const Grammar &G, const EngineOptions &Opts,
                        EngineStats &Stats, ParseScratch &S,
                        bool HasDeadline,
                        std::chrono::steady_clock::time_point Deadline,
                        ByteSpan Input, Symbol StartNT,
                        const EvalArgs &...Args) {
  // Reset FIRST: stats() must describe this call even when it fails
  // before doing any work (a stale-stats regression lives in
  // tests/engine_test.cpp and is asserted by the differential harness).
  Stats = EngineStats();
  RuleId Start = StartNT == G.startSymbol()
                     ? S.Lowered.Start
                     : S.Lowered.globalRuleOf(StartNT);
  if (Start == InvalidRuleId) {
    Stats.FailRule = StartNT;
    Stats.FailOffset = Input.absBase();
    return Expected<TreePtr>::failure(
        "start nonterminal '" +
        std::string(G.interner().name(StartNT)) + "' has no rule");
  }
  // Recycle a store when one is available: either the engine still holds
  // one (the previous parse failed, so no result escaped) or a dropped
  // TreePtr parked its store in the recycler. Otherwise — first parse, or
  // every previous tree is still alive — this parse gets a fresh store.
  S.beginParse(Stats);
  Runner<Evaluator> R(G, Opts, Stats, S,
                      Evaluator(S, Args...),
                      HasDeadline, Deadline);
  return R.run(Input, Start);
}

} // namespace host
} // namespace ipg

#endif // IPG_RUNTIME_HOSTRUNNER_H
