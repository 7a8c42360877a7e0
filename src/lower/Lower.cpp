//===- lower/Lower.cpp - Grammar -> lir lowering --------------------------===//
//
// Part of the IPG reproduction of "Interval Parsing Grammars for File Format
// Parsing" (PLDI 2023). MIT license.
//
//===----------------------------------------------------------------------===//

#include "lower/LIR.h"

#include "expr/Eval.h"
#include "support/Casting.h"
#include "support/GenRuntime.h"

#include <algorithm>
#include <cassert>
#include <cstdint>
#include <memory>
#include <unordered_map>
#include <utility>

using namespace ipg;
using namespace ipg::lir;

RuleId Module::globalRuleOf(Symbol S) const { return G->findGlobal(S); }

namespace {

/// Per-opcode operand-stack effect of the FALLTHROUGH edge (branch edges
/// are handled explicitly where MaxStack is computed).
int stackEffect(XOp Op) {
  switch (Op) {
  case XOp::Num:
  case XOp::LoadAttr:
  case XOp::LoadNtAttr:
  case XOp::LoadEoi:
  case XOp::LoadTermEnd:
  case XOp::Exists:
    return +1;
  case XOp::Add:
  case XOp::Sub:
  case XOp::Mul:
  case XOp::Div:
  case XOp::Mod:
  case XOp::Eq:
  case XOp::Ne:
  case XOp::Lt:
  case XOp::Gt:
  case XOp::Le:
  case XOp::Ge:
  case XOp::Shl:
  case XOp::Shr:
  case XOp::BitAnd:
  case XOp::ReadRange:
  case XOp::BrFalse: // pop the tested value on the fallthrough edge
  case XOp::BrTrue:
  case XOp::JmpZero:
    return -1;
  case XOp::Bool:
  case XOp::LoadElemAttr:
  case XOp::ReadFixed:
  case XOp::Jmp:
    return 0;
  }
  return 0;
}

bool isJump(XOp Op) {
  return Op == XOp::BrFalse || Op == XOp::BrTrue || Op == XOp::JmpZero ||
         Op == XOp::Jmp;
}

/// Operands an opcode consumes before pushing its result.
int popCount(XOp Op) {
  switch (Op) {
  case XOp::Add:
  case XOp::Sub:
  case XOp::Mul:
  case XOp::Div:
  case XOp::Mod:
  case XOp::Eq:
  case XOp::Ne:
  case XOp::Lt:
  case XOp::Gt:
  case XOp::Le:
  case XOp::Ge:
  case XOp::Shl:
  case XOp::Shr:
  case XOp::BitAnd:
  case XOp::ReadRange:
    return 2;
  case XOp::Bool:
  case XOp::LoadElemAttr:
  case XOp::ReadFixed:
  case XOp::BrFalse:
  case XOp::BrTrue:
  case XOp::JmpZero:
    return 1;
  default:
    return 0;
  }
}

/// Depth on the TAKEN edge of a jump at depth \p D (before executing it).
int jumpEdgeDepth(XOp Op, int D) {
  switch (Op) {
  case XOp::BrFalse:
  case XOp::BrTrue:
    return D; // pop the test, push the short-circuit constant
  case XOp::JmpZero:
    return D - 1;
  case XOp::Jmp:
    return D;
  default:
    return D;
  }
}

/// Walks a finished program once (our compiler only emits forward jumps):
/// checks target bounds and stack balance, and reports the high-water
/// mark. Returns false with \p Err set on a malformed program. \p At is
/// scratch, reused across calls.
bool simulate(const XInstr *Code, size_t N, uint32_t &MaxStack,
              std::string *Err, std::vector<int> &At) {
  auto fail = [&](const std::string &Msg) {
    if (Err)
      *Err = Msg;
    return false;
  };
  // Expected depth at each pc; -1 = not yet known. pc N is the exit.
  At.assign(N + 1, -1);
  At[0] = 0;
  int Max = 0;
  for (size_t PC = 0; PC < N; ++PC) {
    int D = At[PC];
    if (D < 0)
      return fail("unreachable instruction at pc " + std::to_string(PC));
    const XInstr &I = Code[PC];
    if (D < popCount(I.Op))
      return fail("operand-stack underflow at pc " + std::to_string(PC));
    if (isJump(I.Op)) {
      if (I.A <= PC || I.A > N)
        return fail("jump at pc " + std::to_string(PC) +
                    " targets pc " + std::to_string(I.A) +
                    " (must be forward and within the program)");
      int TD = jumpEdgeDepth(I.Op, D);
      if (At[I.A] >= 0 && At[I.A] != TD)
        return fail("inconsistent stack depth at jump target " +
                    std::to_string(I.A));
      At[I.A] = TD;
      if (TD > Max)
        Max = TD;
    }
    int Next = D + stackEffect(I.Op);
    if (Next > Max)
      Max = Next;
    if (D > Max)
      Max = D;
    if (I.Op == XOp::Jmp) {
      // Fallthrough is dead; the next pc must be a recorded target.
      continue;
    }
    if (At[PC + 1] >= 0 && At[PC + 1] != Next)
      return fail("inconsistent stack depth at pc " +
                  std::to_string(PC + 1));
    At[PC + 1] = Next;
  }
  if (At[N] != 1)
    return fail("program does not leave exactly one value on the stack");
  MaxStack = static_cast<uint32_t>(Max);
  return true;
}

/// Folds a window endpoint to a constant: literals and `+ - *` (the
/// runtime's wraparound semantics) over the TermEnd of earlier constant
/// windows, whose ends \p EndOf holds where \p Known is set (indexed by
/// source term). Anything else does not fold, and leaves \p Out as it
/// was (an unfolded RecordStep endpoint keeps its 0).
bool foldConst(const Expr &E, const std::vector<int64_t> &EndOf,
               const std::vector<uint8_t> &Known, int64_t &Out) {
  switch (E.kind()) {
  case Expr::Kind::Num:
    Out = cast<NumExpr>(&E)->value();
    return true;
  case Expr::Kind::Ref: {
    const auto &R = *cast<RefExpr>(&E);
    if (R.refKind() != RefKind::TermEnd || R.termIndex() >= Known.size() ||
        !Known[R.termIndex()])
      return false;
    Out = EndOf[R.termIndex()];
    return true;
  }
  case Expr::Kind::Binary: {
    const auto &B = *cast<BinaryExpr>(&E);
    int64_t L = 0, R = 0;
    if (!foldConst(*B.lhs(), EndOf, Known, L) ||
        !foldConst(*B.rhs(), EndOf, Known, R))
      return false;
    switch (B.op()) {
    case BinOpKind::Add:
      Out = ipg_rt::wrapAdd(L, R);
      return true;
    case BinOpKind::Sub:
      Out = ipg_rt::wrapSub(L, R);
      return true;
    case BinOpKind::Mul:
      Out = ipg_rt::wrapMul(L, R);
      return true;
    default:
      return false;
    }
  }
  default:
    return false;
  }
}

/// The Check comparison an XOp compiles to, if it is one.
bool compareOf(XOp Op, RecCmp &Out) {
  switch (Op) {
  case XOp::Eq:
    Out = RecCmp::Eq;
    return true;
  case XOp::Ne:
    Out = RecCmp::Ne;
    return true;
  case XOp::Lt:
    Out = RecCmp::Lt;
    return true;
  case XOp::Gt:
    Out = RecCmp::Gt;
    return true;
  case XOp::Le:
    Out = RecCmp::Le;
    return true;
  case XOp::Ge:
    Out = RecCmp::Ge;
    return true;
  default:
    return false;
  }
}

/// The TermEnd a later window reads once folded step \p S succeeded:
/// Lo + the literal's length, or a raw window's Hi. Wraps like runtime
/// evaluation, since the window need not be valid (the step then never
/// succeeds and the value is never used).
int64_t foldedEnd(const Module &M, const RecordStep &S) {
  return S.Op == RecOp::Lit
             ? ipg_rt::wrapAdd(S.Lo,
                               static_cast<int64_t>(M.Lits[S.Lit].size()))
             : S.Hi;
}

/// Derives a static plan's fixed env layout by replaying the per-term
/// environment writes over its folded windows, in the frame's env slot
/// order (ipg_rt::Frame): each attribute enters at its first definition,
/// then start/end — the min/max of the windows that touch bytes — come
/// last, present only when some window does. Fills \p Env, the env
/// position of every attribute slot (\p SlotPos) and MinEoi.
/// False when some window or read can never succeed (negative or
/// inverted window, literal longer than its window, negative offset):
/// such a plan stays dynamic and simply always falls back.
bool layoutStatic(const Module &M, const RecordStep *Steps, size_t N,
                  uint32_t NumAttrs, std::vector<PlanSlot> &Env,
                  std::vector<uint32_t> &SlotPos, RecordPlan &P) {
  Env.clear();
  SlotPos.assign(NumAttrs, 0);
  P.MinEoi = 0;
  bool Touched = false;
  int64_t Start = 0, End = 0;
  for (size_t I = 0; I < N; ++I) {
    const RecordStep &S = Steps[I];
    switch (S.Op) {
    case RecOp::Lit:
    case RecOp::Raw: {
      if (S.LoE != NoExpr || S.HiE != NoExpr || S.Lo < 0 || S.Lo > S.Hi)
        return false;
      // Leaf and touch record: a literal's own bytes, a raw window whole.
      const int64_t Len = S.Op == RecOp::Lit
                              ? static_cast<int64_t>(M.Lits[S.Lit].size())
                              : S.Hi - S.Lo;
      if (Len > S.Hi - S.Lo)
        return false;
      P.MinEoi = std::max(P.MinEoi, S.Hi);
      if (Len == 0)
        break;
      Start = Touched ? std::min(Start, S.Lo) : S.Lo;
      End = Touched ? std::max(End, S.Lo + Len) : S.Lo + Len;
      Touched = true;
      break;
    }
    case RecOp::Read:
      if (S.Lo < 0 || S.Lo > INT64_MAX - 8)
        return false;
      // The low byte of an ipg_rt::packReadSpec value is the width.
      P.MinEoi =
          std::max(P.MinEoi, S.Lo + static_cast<int64_t>(S.Spec & 0xFFu));
      if (S.FirstDef) {
        SlotPos[S.Slot] = static_cast<uint32_t>(Env.size());
        Env.push_back(PlanSlot{S.Sym, 0});
      }
      break;
    case RecOp::Check:
      break;
    }
  }
  if (Touched) {
    Env.push_back(PlanSlot{M.G->symStart(), Start});
    Env.push_back(PlanSlot{M.G->symEnd(), End});
  }
  return true;
}

class Lowering {
public:
  explicit Lowering(const Grammar &G) : G(G) {
    M.G = &G;
  }

  Module run() {
    RecShapeResult Shapes = analyzeRecShape(G);
    M.AnyStep = Shapes.anyStep();
    M.Rules.resize(G.numRules());
    for (RuleId Id = 0; Id < G.numRules(); ++Id) {
      const Rule &R = G.rule(Id);
      RuleL &RL = M.Rules[Id];
      RL.Src = &R;
      RL.Name = R.Name;
      RL.IsLocal = R.IsLocal;
      RL.Memoizable = !R.IsLocal && ruleSpawnsSubparsers(R);
      RL.Shape = Shapes.Shape[Id];
      if (RL.Shape == ExecShape::Flattened)
        RL.Flatten = std::move(Shapes.Flatten[Id]);
      RL.Alts.reserve(R.Alts.size());
      for (const Alternative &Alt : R.Alts)
        RL.Alts.push_back(lowerAlt(Alt));
      markRecoverable(Id, RL);
      planRecord(Id, RL);
    }
    M.Start = G.findGlobal(G.startSymbol());
    return std::move(M);
  }

private:
  const Grammar &G;
  Module M;
  std::unordered_map<std::string, uint32_t> LitIds;
  std::unordered_map<Symbol, uint32_t> BbIds;
  std::vector<XInstr> *Buf = nullptr; ///< program under construction
  /// Emission buffers by compile() nesting (an exists compiles its
  /// sub-programs while its own program is open), reused across programs.
  std::vector<std::unique_ptr<std::vector<XInstr>>> Bufs;
  size_t Nest = 0;
  std::vector<int> SimScratch; ///< simulate()'s per-pc depths

  /// Record-planning scratch, reused across rules so planning every rule
  /// of a grammar costs no per-rule allocation once warm.
  std::vector<Symbol> PlanAttrs;   ///< attribute symbol per slot
  std::vector<Symbol> AltDefs;     ///< every attribute the alt defines
  std::vector<int64_t> EndOf;      ///< folded TermEnd per source term
  std::vector<uint8_t> Known;
  std::vector<PlanSlot> EnvScratch;
  std::vector<uint32_t> SlotPos;

  /// Whether window endpoint \p Id, when it did not fold, can still run
  /// fused: evaluated on the record's frame before any attribute of the
  /// rule is bound, it must not read those attributes or start/end
  /// (everything else — lexical attributes, EOI, TermEnd, reads — sees
  /// what the per-term loop would see). Exists scans, whose programs lie
  /// outside this one, are left to the loop.
  bool windowFusible(ExprId Id) const {
    const ExprProgram &P = M.Exprs[Id];
    for (uint32_t PC = P.Begin; PC < P.End; ++PC) {
      const XInstr &I = M.XCode[PC];
      if (I.Op == XOp::Exists ||
          (I.Op == XOp::LoadAttr &&
           (I.Sym == G.symStart() || I.Sym == G.symEnd() ||
            std::find(AltDefs.begin(), AltDefs.end(), I.Sym) !=
                AltDefs.end())))
        return false;
    }
    return true;
  }

  /// A Check operand: a constant or an attribute this rule defined
  /// earlier (so the per-term loop would find it in the rule's own env).
  bool checkOperand(const XInstr &I, RecOperand &Out) const {
    if (I.Op == XOp::Num) {
      Out.Imm = I.Imm;
      return true;
    }
    if (I.Op != XOp::LoadAttr)
      return false;
    auto It = std::find(PlanAttrs.begin(), PlanAttrs.end(), I.Sym);
    if (It == PlanAttrs.end())
      return false;
    Out.IsSlot = true;
    Out.Slot = static_cast<uint32_t>(It - PlanAttrs.begin());
    return true;
  }

  /// The record-fusion pass (see lir::RecordPlan): attaches a plan to a
  /// single-alternative Direct rule whose terms are only literals, `raw`,
  /// fixed-offset reads and comparison checks. Runs after the rule's
  /// terms are lowered; anything outside that shape leaves Plan unset.
  void planRecord(RuleId Id, RuleL &RL) {
    if (RL.Alts.size() != 1 || RL.Shape != ExecShape::Direct ||
        RL.Memoizable)
      return;
    const AltL &Alt = RL.Alts[0];
    if (Alt.Exec.empty() || Alt.Exec.size() > MaxRecordTerms)
      return;
    AltDefs.clear();
    for (const TermL &T : Alt.Exec)
      if (T.Op == TermOp::SetAttr)
        AltDefs.push_back(T.Sym);
    PlanAttrs.clear();
    EndOf.assign(Alt.Src->Terms.size(), 0);
    Known.assign(Alt.Src->Terms.size(), 0);

    const size_t Begin = M.PlanSteps.size();
    RecordPlan P;
    P.Rule = Id;
    bool AllFolded = true;
    auto abandon = [&] { M.PlanSteps.resize(Begin); };
    for (const TermL &T : Alt.Exec) {
      RecordStep S;
      S.TermIdx = T.TermIdx;
      switch (T.Op) {
      case TermOp::MatchBytes:
      case TermOp::MatchRaw: {
        if (T.Iv.Lo == NoExpr || T.Iv.Hi == NoExpr)
          return abandon();
        S.Op = T.Op == TermOp::MatchBytes ? RecOp::Lit : RecOp::Raw;
        S.Lit = T.Lit;
        const bool LoK = foldConst(*T.Iv.Src->Lo, EndOf, Known, S.Lo);
        const bool HiK = foldConst(*T.Iv.Src->Hi, EndOf, Known, S.Hi);
        if ((!LoK && !windowFusible(T.Iv.Lo)) ||
            (!HiK && !windowFusible(T.Iv.Hi)))
          return abandon();
        if (!LoK)
          S.LoE = T.Iv.Lo;
        if (!HiK)
          S.HiE = T.Iv.Hi;
        if (LoK && HiK) {
          EndOf[T.TermIdx] = foldedEnd(M, S);
          Known[T.TermIdx] = 1;
        } else {
          AllFolded = false;
        }
        break;
      }
      case TermOp::SetAttr: {
        const ExprProgram &Prog = M.Exprs[T.E0];
        const XInstr *C = M.XCode.data() + Prog.Begin;
        if (T.Sym == G.symStart() || T.Sym == G.symEnd() ||
            Prog.End - Prog.Begin != 2 || C[0].Op != XOp::Num ||
            C[1].Op != XOp::ReadFixed ||
            !ipg_rt::packReadSpec(C[1].A, S.Spec))
          return abandon();
        S.Op = RecOp::Read;
        S.Lo = C[0].Imm;
        S.Sym = T.Sym;
        auto It = std::find(PlanAttrs.begin(), PlanAttrs.end(), T.Sym);
        S.FirstDef = It == PlanAttrs.end();
        S.Slot = static_cast<uint32_t>(It - PlanAttrs.begin());
        if (S.FirstDef)
          PlanAttrs.push_back(T.Sym);
        break;
      }
      case TermOp::Check: {
        const ExprProgram &Prog = M.Exprs[T.E0];
        const XInstr *C = M.XCode.data() + Prog.Begin;
        const uint32_t N = Prog.End - Prog.Begin;
        S.Op = RecOp::Check;
        if (N == 1) { // check(x): x != 0
          if (!checkOperand(C[0], S.A))
            return abandon();
          S.Cmp = RecCmp::Ne;
          break;
        }
        if (N != 3 || !checkOperand(C[0], S.A) ||
            !checkOperand(C[1], S.B) || !compareOf(C[2].Op, S.Cmp))
          return abandon();
        break;
      }
      default:
        return abandon();
      }
      M.PlanSteps.push_back(S);
    }
    P.StepBegin = static_cast<uint32_t>(Begin);
    P.StepEnd = static_cast<uint32_t>(M.PlanSteps.size());
    P.NumAttrs = static_cast<uint32_t>(PlanAttrs.size());
    RecordStep *Steps = M.PlanSteps.data() + Begin;
    const size_t N = P.StepEnd - P.StepBegin;
    if (AllFolded && layoutStatic(M, Steps, N, P.NumAttrs, EnvScratch,
                                  SlotPos, P)) {
      P.Static = true;
      P.EnvBegin = static_cast<uint32_t>(M.PlanEnv.size());
      M.PlanEnv.insert(M.PlanEnv.end(), EnvScratch.begin(), EnvScratch.end());
      P.EnvEnd = static_cast<uint32_t>(M.PlanEnv.size());
      for (size_t I = 0; I < N; ++I) {
        RecordStep &S = Steps[I];
        if (S.Op == RecOp::Read)
          S.Pos = SlotPos[S.Slot];
        if (S.Op == RecOp::Check) {
          S.PosA = S.A.IsSlot ? SlotPos[S.A.Slot] : 0;
          S.PosB = S.B.IsSlot ? SlotPos[S.B.Slot] : 0;
        }
      }
    }
    RL.Plan = static_cast<PlanId>(M.Plans.size());
    M.Plans.push_back(P);
  }

  /// The shared salvage decision point (see lir::TermL::Recoverable):
  /// mark the positional terms of the rule's LAST alternative. Earlier
  /// alternatives must fail for real so biased choice still reaches the
  /// ones after them. This static mark is only half the policy: a term
  /// in a last alternative can still have a live backtrack point
  /// somewhere UP the stack — gif's `Block -> Ext / Img` is reached
  /// from the non-last alternative of `Blocks -> Block Blocks / ...`,
  /// whose whole list termination depends on Block failing at the
  /// trailer byte (and `Ext`, a single-alternative rule, must likewise
  /// fail honestly at an Img block so Block can try Img). The engines
  /// therefore gate hole emission dynamically on "no enclosing
  /// alternative anywhere on the stack has untried later alternatives"
  /// (the BacktrackLive counter in Interp/BytecodeVM): a hole is legal
  /// exactly when Strict would have failed the whole parse rather than
  /// backtracked, which keeps Salvage strictly additive. A last
  /// alternative that calls its own rule is excluded wholesale, whatever
  /// tier runs the rule: the descend/replay loop of a Flattened rule
  /// banks child results and probes terminals without building leaves (a
  /// hole emitted mid-probe would be double-materialized on replay), and
  /// the same list run on the step machine (say, written as a where-
  /// clause rule) must fence where its Flattened twin does.
  void markRecoverable(RuleId Id, RuleL &RL) {
    if (RL.Alts.empty())
      return;
    std::vector<TermL> &Last = RL.Alts.back().Exec;
    for (const TermL &T : Last)
      if (T.Op == TermOp::CallRule && T.Rule == Id)
        return;
    for (TermL &T : Last) {
      switch (T.Op) {
      case TermOp::CallRule:
      case TermOp::MatchBytes:
      case TermOp::MatchRaw:
      case TermOp::Select:
      case TermOp::CallBlackbox:
        T.Recoverable = true;
        break;
      case TermOp::SetAttr:
      case TermOp::Check:
      case TermOp::ForArray:
        break; // data-dependent: never recoverable
      }
    }
  }

  uint32_t litId(const std::string &Bytes) {
    auto It = LitIds.find(Bytes);
    if (It != LitIds.end())
      return It->second;
    uint32_t Id = static_cast<uint32_t>(M.Lits.size());
    M.Lits.push_back(Bytes);
    LitIds.emplace(Bytes, Id);
    return Id;
  }

  uint32_t bbSite(Symbol Name) {
    auto It = BbIds.find(Name);
    if (It != BbIds.end())
      return It->second;
    uint32_t Id = static_cast<uint32_t>(M.BbSites.size());
    BbSite S;
    S.Name = Name;
    S.NameStr = std::string(G.interner().name(Name));
    M.BbSites.push_back(std::move(S));
    BbIds.emplace(Name, Id);
    return Id;
  }

  //===--------------------------------------------------------------------===//
  // Expression compilation
  //===--------------------------------------------------------------------===//

  ExprId compile(const Expr &E) {
    if (Bufs.size() == Nest)
      Bufs.push_back(std::make_unique<std::vector<XInstr>>());
    std::vector<XInstr> &Local = *Bufs[Nest++];
    Local.clear();
    std::vector<XInstr> *Saved = Buf;
    Buf = &Local;
    emitExpr(E);
    Buf = Saved;
    --Nest;
    ExprProgram P;
    P.Src = &E;
    P.Begin = static_cast<uint32_t>(M.XCode.size());
    M.XCode.insert(M.XCode.end(), Local.begin(), Local.end());
    P.End = static_cast<uint32_t>(M.XCode.size());
    std::string Err;
    bool Ok = simulate(M.XCode.data() + P.Begin, Local.size(), P.MaxStack,
                       &Err, SimScratch);
    assert(Ok && "lowering emitted a malformed expression program");
    (void)Ok;
    ExprId Id = static_cast<ExprId>(M.Exprs.size());
    M.Exprs.push_back(P);
    return Id;
  }

  size_t emit(XOp Op) {
    Buf->push_back(XInstr{Op, 0, InvalidSymbol, InvalidSymbol, 0});
    return Buf->size() - 1;
  }
  size_t emit(XInstr I) {
    Buf->push_back(I);
    return Buf->size() - 1;
  }
  void patch(size_t At) {
    (*Buf)[At].A = static_cast<uint32_t>(Buf->size());
  }

  void emitExpr(const Expr &E) {
    switch (E.kind()) {
    case Expr::Kind::Num:
      emit(XInstr{XOp::Num, 0, InvalidSymbol, InvalidSymbol,
                  cast<NumExpr>(&E)->value()});
      return;
    case Expr::Kind::Binary: {
      const auto &B = *cast<BinaryExpr>(&E);
      // Logical operators short-circuit exactly as expr/Eval.cpp does:
      // a zero (And) / nonzero (Or) left side decides without touching
      // the right side; otherwise the result is the right side
      // normalized to 0/1.
      if (B.op() == BinOpKind::And) {
        emitExpr(*B.lhs());
        size_t Br = emit(XOp::BrFalse);
        emitExpr(*B.rhs());
        emit(XOp::Bool);
        patch(Br);
        return;
      }
      if (B.op() == BinOpKind::Or) {
        emitExpr(*B.lhs());
        size_t Br = emit(XOp::BrTrue);
        emitExpr(*B.rhs());
        emit(XOp::Bool);
        patch(Br);
        return;
      }
      emitExpr(*B.lhs());
      emitExpr(*B.rhs());
      switch (B.op()) {
      case BinOpKind::Add:
        emit(XOp::Add);
        return;
      case BinOpKind::Sub:
        emit(XOp::Sub);
        return;
      case BinOpKind::Mul:
        emit(XOp::Mul);
        return;
      case BinOpKind::Div:
        emit(XOp::Div);
        return;
      case BinOpKind::Mod:
        emit(XOp::Mod);
        return;
      case BinOpKind::Eq:
        emit(XOp::Eq);
        return;
      case BinOpKind::Ne:
        emit(XOp::Ne);
        return;
      case BinOpKind::Lt:
        emit(XOp::Lt);
        return;
      case BinOpKind::Gt:
        emit(XOp::Gt);
        return;
      case BinOpKind::Le:
        emit(XOp::Le);
        return;
      case BinOpKind::Ge:
        emit(XOp::Ge);
        return;
      case BinOpKind::Shl:
        emit(XOp::Shl);
        return;
      case BinOpKind::Shr:
        emit(XOp::Shr);
        return;
      case BinOpKind::BitAnd:
        emit(XOp::BitAnd);
        return;
      case BinOpKind::And:
      case BinOpKind::Or:
        return; // handled above
      }
      return;
    }
    case Expr::Kind::Cond: {
      // Only the taken branch evaluates (partiality of the other branch
      // is invisible), matching the tree-walking evaluator.
      const auto &C = *cast<CondExpr>(&E);
      emitExpr(*C.cond());
      size_t ToElse = emit(XOp::JmpZero);
      emitExpr(*C.thenExpr());
      size_t ToEnd = emit(XOp::Jmp);
      patch(ToElse);
      emitExpr(*C.elseExpr());
      patch(ToEnd);
      return;
    }
    case Expr::Kind::Ref: {
      const auto &R = *cast<RefExpr>(&E);
      switch (R.refKind()) {
      case RefKind::Attr:
        emit(XInstr{XOp::LoadAttr, 0, R.attrName(), InvalidSymbol, 0});
        return;
      case RefKind::NtAttr:
        emit(XInstr{XOp::LoadNtAttr, 0, R.nt(), R.attrName(), 0});
        return;
      case RefKind::NtElemAttr:
        emitExpr(*R.index());
        emit(XInstr{XOp::LoadElemAttr, 0, R.nt(), R.attrName(), 0});
        return;
      case RefKind::Eoi:
        emit(XOp::LoadEoi);
        return;
      case RefKind::TermEnd:
        emit(XInstr{XOp::LoadTermEnd, 0, InvalidSymbol, InvalidSymbol,
                    static_cast<int64_t>(R.termIndex())});
        return;
      }
      return;
    }
    case Expr::Kind::Exists: {
      const auto &X = *cast<ExistsExpr>(&E);
      ExistsInfo Info;
      Info.LoopVar = X.loopVar();
      // The scanned array is a pure function of the condition's shape —
      // resolve it here, once, instead of per evaluation.
      Info.ArrayNT = findScannedArray(*X.cond(), X.loopVar());
      Info.Cond = compile(*X.cond());
      Info.Then = compile(*X.thenExpr());
      Info.Else = compile(*X.elseExpr());
      uint32_t Idx = static_cast<uint32_t>(M.Exists.size());
      M.Exists.push_back(Info);
      emit(XInstr{XOp::Exists, Idx, InvalidSymbol, InvalidSymbol, 0});
      return;
    }
    case Expr::Kind::Read: {
      const auto &R = *cast<ReadExpr>(&E);
      emitExpr(*R.lo());
      if (R.hi()) {
        emitExpr(*R.hi());
        emit(XInstr{XOp::ReadRange,
                    static_cast<uint32_t>(R.readKind()), InvalidSymbol,
                    InvalidSymbol, 0});
      } else {
        emit(XInstr{XOp::ReadFixed,
                    static_cast<uint32_t>(R.readKind()), InvalidSymbol,
                    InvalidSymbol, 0});
      }
      return;
    }
    }
  }

  //===--------------------------------------------------------------------===//
  // Term lowering
  //===--------------------------------------------------------------------===//

  IntervalL lowerInterval(const Interval &Iv) {
    IntervalL L;
    L.Src = &Iv;
    if (Iv.completed()) {
      L.Lo = compile(*Iv.Lo);
      L.Hi = compile(*Iv.Hi);
    }
    return L;
  }

  AltL lowerAlt(const Alternative &Alt) {
    AltL A;
    A.Src = &Alt;
    A.Exec.reserve(Alt.Terms.size());
    for (size_t Step = 0; Step < Alt.Terms.size(); ++Step) {
      uint32_t TI = Alt.ExecOrder.empty()
                        ? static_cast<uint32_t>(Step)
                        : Alt.ExecOrder[Step];
      A.Exec.push_back(lowerTerm(*Alt.Terms[TI], TI));
    }
    return A;
  }

  TermL lowerTerm(const Term &T, uint32_t TermIdx) {
    TermL L;
    L.TermIdx = TermIdx;
    L.Src = &T;
    switch (T.kind()) {
    case Term::Kind::Nonterminal: {
      const auto &N = *cast<NTTerm>(&T);
      L.Op = TermOp::CallRule;
      L.Rule = N.Resolved;
      L.Sym = N.Name;
      L.Iv = lowerInterval(N.Iv);
      return L;
    }
    case Term::Kind::Terminal: {
      const auto &S = *cast<TerminalTerm>(&T);
      L.Op = S.Wildcard ? TermOp::MatchRaw : TermOp::MatchBytes;
      if (!S.Wildcard)
        L.Lit = litId(S.Bytes);
      L.Iv = lowerInterval(S.Iv);
      return L;
    }
    case Term::Kind::AttrDef: {
      const auto &D = *cast<AttrDefTerm>(&T);
      L.Op = TermOp::SetAttr;
      L.Sym = D.Name;
      L.E0 = compile(*D.Value);
      return L;
    }
    case Term::Kind::Predicate: {
      L.Op = TermOp::Check;
      L.E0 = compile(*cast<PredicateTerm>(&T)->Cond);
      return L;
    }
    case Term::Kind::Array: {
      const auto &A = *cast<ArrayTerm>(&T);
      L.Op = TermOp::ForArray;
      L.Rule = A.Resolved;
      L.Sym = A.LoopVar;
      L.Elem = A.Elem;
      L.E0 = compile(*A.From);
      L.E1 = compile(*A.To);
      L.Iv = lowerInterval(A.Iv);
      return L;
    }
    case Term::Kind::Switch: {
      const auto &Sw = *cast<SwitchTerm>(&T);
      L.Op = TermOp::Select;
      L.ArmsBegin = static_cast<uint32_t>(M.Arms.size());
      for (const SwitchChoice &C : Sw.Choices) {
        ArmL Arm;
        Arm.Src = &C;
        Arm.Rule = C.Resolved;
        if (C.Cond)
          Arm.Cond = compile(*C.Cond);
        Arm.Iv = lowerInterval(C.Iv);
        M.Arms.push_back(std::move(Arm));
      }
      L.ArmsEnd = static_cast<uint32_t>(M.Arms.size());
      return L;
    }
    case Term::Kind::Blackbox: {
      const auto &B = *cast<BlackboxTerm>(&T);
      L.Op = TermOp::CallBlackbox;
      L.Sym = B.Name;
      L.Bb = bbSite(B.Name);
      L.Iv = lowerInterval(B.Iv);
      return L;
    }
    }
    return L;
  }
};

} // namespace

Module ipg::lir::lower(const Grammar &G) { return Lowering(G).run(); }

namespace {

size_t frameDepth(const Module &M) {
  if (M.Start == InvalidRuleId)
    return 0;
  enum : uint8_t { Unseen, Open, Closed };
  std::vector<uint8_t> State(M.Rules.size(), Unseen);
  std::vector<size_t> Depth(M.Rules.size(), 0);
  auto Visit = [&](auto &Self, RuleId Id) -> size_t {
    if (State[Id] == Open)
      return 0; // recursion: not followed
    if (State[Id] == Closed)
      return Depth[Id];
    State[Id] = Open;
    size_t Deepest = 0;
    auto Call = [&](RuleId Callee) {
      if (Callee != InvalidRuleId)
        Deepest = std::max(Deepest, Self(Self, Callee));
    };
    for (const AltL &A : M.Rules[Id].Alts)
      for (const TermL &T : A.Exec) {
        if (T.Op == TermOp::CallRule || T.Op == TermOp::ForArray)
          Call(T.Rule);
        else if (T.Op == TermOp::Select)
          for (uint32_t K = T.ArmsBegin; K != T.ArmsEnd; ++K)
            Call(M.Arms[K].Rule);
      }
    State[Id] = Closed;
    return Depth[Id] = Deepest + 1;
  };
  return Visit(Visit, M.Start);
}

} // namespace

lir::FramePlan ipg::lir::framePlan(const Module &M) {
  FramePlan P;
  P.Depth = frameDepth(M);
  for (const RuleL &R : M.Rules)
    for (const AltL &A : R.Alts) {
      P.Terms = std::max(P.Terms, A.Exec.size());
      for (const TermL &T : A.Exec)
        if (T.Op == TermOp::SetAttr || T.Op == TermOp::ForArray)
          P.Keys = std::max<size_t>(P.Keys, T.Sym + 1);
    }
  return P;
}

namespace {

/// Checks one record plan against its rule: the rule shape the pass
/// requires, a step per executed term with matching operands, slots
/// defined before use, folded windows that refold to the same constants,
/// and — for static plans — the env layout re-derived from the steps.
std::string verifyPlan(const Module &M, RuleId Id, const RuleL &R,
                       std::vector<PlanSlot> &Env,
                       std::vector<uint32_t> &SlotPos) {
  if (R.Plan >= M.Plans.size())
    return "plan id out of range";
  const RecordPlan &P = M.Plans[R.Plan];
  if (P.Rule != Id)
    return "plan belongs to another rule";
  if (R.Alts.size() != 1 || R.Shape != ExecShape::Direct || R.Memoizable)
    return "rule is not a single-alternative, unmemoized Direct rule";
  const AltL &Alt = R.Alts[0];
  if (P.StepBegin > P.StepEnd || P.StepEnd > M.PlanSteps.size())
    return "step window out of range";
  const size_t N = P.StepEnd - P.StepBegin;
  if (N != Alt.Exec.size() || N > MaxRecordTerms)
    return "step count does not match the rule's terms";
  const RecordStep *Steps = M.PlanSteps.data() + P.StepBegin;
  std::vector<Symbol> Attrs;
  std::vector<int64_t> EndOf(Alt.Src->Terms.size(), 0);
  std::vector<uint8_t> Known(Alt.Src->Terms.size(), 0);
  bool AllFolded = true;
  auto slotOk = [&](const RecOperand &O) {
    return !O.IsSlot || O.Slot < Attrs.size();
  };
  for (size_t I = 0; I < N; ++I) {
    const RecordStep &S = Steps[I];
    const TermL &T = Alt.Exec[I];
    auto bad = [I](const char *Why) {
      return "step " + std::to_string(I) + ": " + Why;
    };
    if (S.TermIdx != T.TermIdx)
      return bad("term index does not match");
    switch (S.Op) {
    case RecOp::Lit:
    case RecOp::Raw: {
      const TermOp Want =
          S.Op == RecOp::Lit ? TermOp::MatchBytes : TermOp::MatchRaw;
      if (T.Op != Want)
        return bad("window step over a different term");
      if (S.Op == RecOp::Lit && S.Lit != T.Lit)
        return bad("literal id does not match");
      if (T.Iv.Lo == NoExpr || T.Iv.Hi == NoExpr)
        return bad("window was never completed");
      if ((S.LoE != NoExpr && S.LoE != T.Iv.Lo) ||
          (S.HiE != NoExpr && S.HiE != T.Iv.Hi))
        return bad("unfolded endpoint is not the term's program");
      int64_t V = 0;
      if (S.LoE == NoExpr &&
          !(foldConst(*T.Iv.Src->Lo, EndOf, Known, V) && V == S.Lo))
        return bad("folded start does not refold to the same constant");
      if (S.HiE == NoExpr &&
          !(foldConst(*T.Iv.Src->Hi, EndOf, Known, V) && V == S.Hi))
        return bad("folded end does not refold to the same constant");
      if (S.LoE == NoExpr && S.HiE == NoExpr) {
        EndOf[S.TermIdx] = foldedEnd(M, S);
        Known[S.TermIdx] = 1;
      } else {
        AllFolded = false;
      }
      break;
    }
    case RecOp::Read: {
      if (T.Op != TermOp::SetAttr || S.Sym != T.Sym)
        return bad("read step over a different term");
      if (S.Sym == M.G->symStart() || S.Sym == M.G->symEnd())
        return bad("reads into start/end");
      const uint32_t W = S.Spec & 0xFFu;
      if ((W != 1 && W != 2 && W != 4 && W != 8) || (S.Spec & ~0x1FFu))
        return bad("bad read spec");
      auto It = std::find(Attrs.begin(), Attrs.end(), S.Sym);
      if (S.FirstDef != (It == Attrs.end()) ||
          S.Slot != static_cast<uint32_t>(It - Attrs.begin()))
        return bad("attribute slot out of definition order");
      if (S.FirstDef)
        Attrs.push_back(S.Sym);
      break;
    }
    case RecOp::Check:
      if (T.Op != TermOp::Check)
        return bad("check step over a different term");
      if (!slotOk(S.A) || !slotOk(S.B))
        return bad("check reads an attribute before its definition");
      break;
    }
  }
  if (Attrs.size() != P.NumAttrs)
    return "attribute count does not match the steps";
  RecordPlan Want = P;
  const bool CanBeStatic =
      AllFolded && layoutStatic(M, Steps, N, P.NumAttrs, Env, SlotPos, Want);
  if (P.Static != CanBeStatic)
    return P.Static ? "static plan with an unfoldable or invalid window"
                    : "foldable plan was left dynamic";
  if (!P.Static)
    return std::string();
  if (P.EnvBegin > P.EnvEnd || P.EnvEnd > M.PlanEnv.size() ||
      P.EnvEnd - P.EnvBegin != Env.size())
    return "env layout window does not match the derived layout";
  for (size_t I = 0; I < Env.size(); ++I)
    if (M.PlanEnv[P.EnvBegin + I].Key != Env[I].Key ||
        M.PlanEnv[P.EnvBegin + I].Value != Env[I].Value)
      return "env layout slot " + std::to_string(I) + " diverges";
  if (Want.MinEoi != P.MinEoi)
    return "static minimum input size diverges";
  for (size_t I = 0; I < N; ++I) {
    const RecordStep &S = Steps[I];
    if ((S.Op == RecOp::Read && S.Pos != SlotPos[S.Slot]) ||
        (S.Op == RecOp::Check &&
         ((S.A.IsSlot && S.PosA != SlotPos[S.A.Slot]) ||
          (S.B.IsSlot && S.PosB != SlotPos[S.B.Slot]))))
      return "step " + std::to_string(I) + ": env position diverges";
  }
  return std::string();
}

} // namespace

std::string ipg::lir::verify(const Module &M) {
  auto where = [&](const RuleL &R) {
    return "rule '" + std::string(M.nameOf(R.Name)) + "'";
  };
  std::vector<int> SimScratch;
  auto checkExpr = [&](ExprId Id) -> std::string {
    if (Id == NoExpr)
      return "references expression program NoExpr";
    if (Id >= M.Exprs.size())
      return "references out-of-range expression program";
    const ExprProgram &P = M.Exprs[Id];
    if (!P.Src)
      return "expression program has no source expression";
    if (P.Begin > P.End || P.End > M.XCode.size())
      return "expression program window out of range";
    uint32_t Max = 0;
    std::string Err;
    if (!simulate(M.XCode.data() + P.Begin, P.End - P.Begin, Max, &Err,
                  SimScratch))
      return Err;
    if (Max != P.MaxStack)
      return "recorded MaxStack " + std::to_string(P.MaxStack) +
             " does not match simulated " + std::to_string(Max);
    return std::string();
  };
  auto checkInterval = [&](const IntervalL &Iv) -> std::string {
    if (Iv.Lo == NoExpr && Iv.Hi == NoExpr)
      return std::string(); // uncompleted source interval: legal, hard
                            // error surfaces at parse time
    for (ExprId Id : {Iv.Lo, Iv.Hi})
      if (std::string E = checkExpr(Id); !E.empty())
        return E;
    return std::string();
  };

  if (!M.G)
    return "module has no grammar";
  for (const RuleL &R : M.Rules) {
    for (const AltL &A : R.Alts) {
      if (A.Exec.size() != A.Src->Terms.size())
        return where(R) + ": lowered term count diverges from source";
      for (const TermL &T : A.Exec) {
        if (T.TermIdx >= A.Src->Terms.size())
          return where(R) + ": term index out of range";
        switch (T.Op) {
        case TermOp::CallRule:
        case TermOp::ForArray:
          if (T.Rule != InvalidRuleId && T.Rule >= M.Rules.size())
            return where(R) + ": call target out of range";
          break;
        case TermOp::MatchBytes:
          if (T.Lit >= M.Lits.size())
            return where(R) + ": literal id out of range";
          break;
        case TermOp::CallBlackbox:
          if (T.Bb >= M.BbSites.size())
            return where(R) + ": blackbox site out of range";
          break;
        default:
          break;
        }
        for (ExprId Id : {T.E0, T.E1})
          if (Id != NoExpr)
            if (std::string E = checkExpr(Id); !E.empty())
              return where(R) + ": " + E;
        if (T.Op != TermOp::SetAttr && T.Op != TermOp::Check)
          if (std::string E = checkInterval(T.Iv); !E.empty())
            return where(R) + ": " + E;
        if (T.Op == TermOp::Select) {
          if (T.ArmsBegin > T.ArmsEnd || T.ArmsEnd > M.Arms.size())
            return where(R) + ": arm window out of range";
          for (uint32_t I = T.ArmsBegin; I < T.ArmsEnd; ++I) {
            const ArmL &Arm = M.Arms[I];
            if (Arm.Cond != NoExpr)
              if (std::string E = checkExpr(Arm.Cond); !E.empty())
                return where(R) + ": " + E;
            if (std::string E = checkInterval(Arm.Iv); !E.empty())
              return where(R) + ": " + E;
          }
        }
      }
    }
  }
  for (const ExistsInfo &X : M.Exists)
    for (ExprId Id : {X.Cond, X.Then, X.Else})
      if (std::string E = checkExpr(Id); !E.empty())
        return "exists: " + E;
  std::vector<PlanSlot> Env;
  std::vector<uint32_t> SlotPos;
  for (RuleId Id = 0; Id < M.Rules.size(); ++Id) {
    const RuleL &R = M.Rules[Id];
    if (R.Plan != NoPlan)
      if (std::string E = verifyPlan(M, Id, R, Env, SlotPos); !E.empty())
        return where(R) + ": record plan: " + E;
  }
  return std::string();
}
