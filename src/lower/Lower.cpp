//===- lower/Lower.cpp - Grammar -> lir lowering --------------------------===//
//
// Part of the IPG reproduction of "Interval Parsing Grammars for File Format
// Parsing" (PLDI 2023). MIT license.
//
//===----------------------------------------------------------------------===//

#include "lower/LIR.h"

#include "expr/Eval.h"
#include "support/Casting.h"

#include <cassert>
#include <unordered_map>
#include <utility>

using namespace ipg;
using namespace ipg::lir;

uint32_t Module::nameIdOf(Symbol S) const {
  assert(S < SymToName.size() && SymToName[S] != 0 &&
         "symbol was not collected during lowering");
  return SymToName[S] - 1;
}

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
/// mark. Returns false with \p Err set on a malformed program.
bool simulate(const XInstr *Code, size_t N, uint32_t &MaxStack,
              std::string *Err) {
  auto fail = [&](const std::string &Msg) {
    if (Err)
      *Err = Msg;
    return false;
  };
  // Expected depth at each pc; -1 = not yet known. pc N is the exit.
  std::vector<int> At(N + 1, -1);
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

class Lowering {
public:
  explicit Lowering(const Grammar &G) : G(G) {
    M.G = &G;
    M.SymToName.resize(G.interner().size(), 0);
    // The ipg_rt::IdStart/IdEnd contract: ids 0 and 1 are start/end.
    touchName(G.symStart());
    touchName(G.symEnd());
    if (!G.blackboxes().empty())
      touchName(G.symVal()); // blackbox nodes carry the val attribute
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
      RL.NameId = touchName(R.Name);
      RL.IsLocal = R.IsLocal;
      RL.Memoizable = !R.IsLocal && ruleSpawnsSubparsers(R);
      RL.Shape = Shapes.Shape[Id];
      if (RL.Shape == ExecShape::Flattened)
        RL.Flatten = std::move(Shapes.Flatten[Id]);
      RL.Alts.reserve(R.Alts.size());
      for (const Alternative &Alt : R.Alts)
        RL.Alts.push_back(lowerAlt(Alt));
      markRecoverable(RL);
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
  /// backtracked, which keeps Salvage strictly additive. The self
  /// alternative of a Flattened rule is excluded wholesale (the
  /// descend/replay loop banks child results and probes terminals
  /// without building leaves; a hole emitted mid-probe would be
  /// double-materialized on replay).
  void markRecoverable(RuleL &RL) {
    if (RL.Alts.empty())
      return;
    const size_t Last = RL.Alts.size() - 1;
    if (RL.Shape == ExecShape::Flattened && RL.Flatten.SelfAlt == Last)
      return;
    for (TermL &T : RL.Alts[Last].Exec) {
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

  uint32_t touchName(Symbol S) {
    if (S >= M.SymToName.size())
      M.SymToName.resize(S + 1, 0);
    if (M.SymToName[S] == 0) {
      M.NameTable.push_back(S);
      M.SymToName[S] = static_cast<uint32_t>(M.NameTable.size());
    }
    return M.SymToName[S] - 1;
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
    S.NameId = touchName(Name);
    S.NameStr = std::string(G.interner().name(Name));
    M.BbSites.push_back(std::move(S));
    BbIds.emplace(Name, Id);
    return Id;
  }

  //===--------------------------------------------------------------------===//
  // Expression compilation
  //===--------------------------------------------------------------------===//

  ExprId compile(const Expr &E) {
    std::vector<XInstr> Local;
    std::vector<XInstr> *Saved = Buf;
    Buf = &Local;
    emitExpr(E);
    Buf = Saved;
    ExprProgram P;
    P.Src = &E;
    P.Begin = static_cast<uint32_t>(M.XCode.size());
    M.XCode.insert(M.XCode.end(), Local.begin(), Local.end());
    P.End = static_cast<uint32_t>(M.XCode.size());
    std::string Err;
    bool Ok = simulate(M.XCode.data() + P.Begin, Local.size(), P.MaxStack,
                       &Err);
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
        emit(XInstr{XOp::LoadAttr, 0, touchSym(R.attrName()),
                    InvalidSymbol, 0});
        return;
      case RefKind::NtAttr:
        emit(XInstr{XOp::LoadNtAttr, 0, touchSym(R.nt()),
                    touchSym(R.attrName()), 0});
        return;
      case RefKind::NtElemAttr:
        emitExpr(*R.index());
        emit(XInstr{XOp::LoadElemAttr, 0, touchSym(R.nt()),
                    touchSym(R.attrName()), 0});
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
      Info.LoopVar = touchSym(X.loopVar());
      // The scanned array is a pure function of the condition's shape —
      // resolve it here, once, instead of per evaluation.
      Info.ArrayNT = findScannedArray(*X.cond(), X.loopVar());
      if (Info.ArrayNT != InvalidSymbol)
        touchSym(Info.ArrayNT);
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

  Symbol touchSym(Symbol S) {
    touchName(S);
    return S;
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
      L.Sym = touchSym(N.Name);
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
      L.Sym = touchSym(D.Name);
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
      L.Sym = touchSym(A.LoopVar);
      L.Elem = touchSym(A.Elem);
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
        touchSym(C.NT);
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
      L.Sym = touchSym(B.Name);
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

std::string ipg::lir::verify(const Module &M) {
  auto where = [&](const RuleL &R) {
    return "rule '" + std::string(M.nameOf(R.Name)) + "'";
  };
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
    if (!simulate(M.XCode.data() + P.Begin, P.End - P.Begin, Max, &Err))
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
  if (M.NameTable.size() < 2 || M.NameTable[0] != M.G->symStart() ||
      M.NameTable[1] != M.G->symEnd())
    return "name table must begin with the start and end symbols";
  for (size_t I = 0; I < M.NameTable.size(); ++I)
    if (M.nameIdOf(M.NameTable[I]) != I)
      return "name table and symbol map disagree at id " +
             std::to_string(I);
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
  return std::string();
}
