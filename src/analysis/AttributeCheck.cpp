//===- analysis/AttributeCheck.cpp ----------------------------------------===//
//
// Part of the IPG reproduction of "Interval Parsing Grammars for File Format
// Parsing" (PLDI 2023). MIT license.
//
//===----------------------------------------------------------------------===//

#include "analysis/AttributeCheck.h"

#include "frontend/Parser.h"
#include "support/Casting.h"

#include <algorithm>
#include <bit>
#include <cstddef>
#include <cstdint>
#include <initializer_list>
#include <set>
#include <string>
#include <string_view>
#include <utility>
#include <vector>

using namespace ipg;

namespace {

/// Whether \p Alt defines attribute \p S ({S = e}).
bool definesAttr(const Alternative &Alt, Symbol S) {
  for (const TermPtr &T : Alt.Terms)
    if (const auto *D = dyn_cast<AttrDefTerm>(T.get()))
      if (D->Name == S)
        return true;
  return false;
}

/// Whether \p Alt binds \p S as an array loop variable.
bool bindsLoopVar(const Alternative &Alt, Symbol S) {
  for (const TermPtr &T : Alt.Terms)
    if (const auto *A = dyn_cast<ArrayTerm>(T.get()))
      if (A->LoopVar == S)
        return true;
  return false;
}

/// The name a term produces in its alternative's tree (nonterminal,
/// blackbox, or array element), or InvalidSymbol.
Symbol producedName(const Term &T) {
  if (const auto *N = dyn_cast<NTTerm>(&T))
    return N->Name;
  if (const auto *B = dyn_cast<BlackboxTerm>(&T))
    return B->Name;
  if (const auto *A = dyn_cast<ArrayTerm>(&T))
    return A->Elem;
  return InvalidSymbol;
}

bool producesName(const Alternative &Alt, Symbol S) {
  for (const TermPtr &T : Alt.Terms)
    if (producedName(*T) == S)
      return true;
  return false;
}

/// Whether every alternative of \p R defines \p S (membership in the
/// def(A) of Section 3.2).
bool definedByEveryAlt(const Rule &R, Symbol S) {
  if (R.Alts.empty())
    return false;
  for (const Alternative &Alt : R.Alts)
    if (!definesAttr(Alt, S))
      return false;
  return true;
}

/// Calls \p Visit with the local rule every term of \p Alt invokes
/// (through a nonterminal, an array, or a switch arm).
template <typename Fn>
void forEachLocalCallee(const Grammar &G, const Alternative &Alt, Fn &&Visit) {
  auto Local = [&](RuleId Id) {
    if (Id != InvalidRuleId && G.rule(Id).IsLocal)
      Visit(Id);
  };
  for (const TermPtr &T : Alt.Terms) {
    if (const auto *N = dyn_cast<NTTerm>(T.get()))
      Local(N->Resolved);
    else if (const auto *A = dyn_cast<ArrayTerm>(T.get()))
      Local(A->Resolved);
    else if (const auto *Sw = dyn_cast<SwitchTerm>(T.get()))
      for (const SwitchChoice &C : Sw->Choices)
        Local(C.Resolved);
  }
}

/// A name a local rule may need from its enclosing alternative(s): a bare
/// attribute/loop-variable identifier, or (Nt) a sibling nonterminal name.
struct FreeRef {
  Symbol Name;
  bool Nt;
  bool operator<(const FreeRef &O) const {
    return Nt != O.Nt ? Nt < O.Nt : Name < O.Name;
  }
  bool operator==(const FreeRef &O) const {
    return Nt == O.Nt && Name == O.Name;
  }
};

class Checker {
public:
  explicit Checker(Grammar &G)
      : G(G), SymVal(G.intern("val")), SymStart(G.symStart()),
        SymEnd(G.symEnd()), SymEoi(G.symEoi()), Free(G.numRules()) {}

  Error run();

private:
  Grammar &G;
  Symbol SymVal, SymStart, SymEnd, SymEoi;

  /// Free references of each local rule, computed on first use: the
  /// window [Begin, End) of FreeRefs, indexed by RuleId.
  struct FreeWindow {
    enum : uint8_t { Unvisited, Visiting, Done } State = Unvisited;
    uint32_t Begin = 0, End = 0;
  };
  std::vector<FreeWindow> Free;
  std::vector<FreeRef> FreeRefs;

  // Scratch reused across alternatives (capacity persists).
  std::vector<const Alternative *> Scope; ///< enclosing alternatives
  std::vector<Symbol> Bound; ///< loop variables visible in an expression
  std::vector<uint64_t> DependsOn; ///< ExecOrder edges, N rows of N bits
  std::vector<uint32_t> Unmet;

  Error walkRule(Rule &R);
  Error resolveAlt(const Rule &R, Alternative &Alt);
  Error checkAltRefs(const Rule &R, const Alternative &Alt);
  Error checkExpr(const Rule &R, const Alternative &Alt, const Expr &E);
  Error buildExecOrder(const Rule &R, Alternative &Alt);

  RuleId resolveName(Symbol Name) const;
  /// The free references of local rule \p Id, as a FreeRefs window; a
  /// rule whose computation is in progress (recursion) reads as empty.
  std::pair<uint32_t, uint32_t> freeRefs(RuleId Id);
  void addFreeRef(const Alternative &Alt, const Expr &E);

  bool isBound(Symbol S) const {
    return std::find(Bound.begin(), Bound.end(), S) != Bound.end();
  }
  std::string_view name(Symbol S) const { return G.interner().name(S); }
  /// "rule 'R': " then \p Parts, appended one by one: GCC 12 reports
  /// false -Wrestrict errors on inlined "literal" + std::string chains.
  Error fail(const Rule &R,
             std::initializer_list<std::string_view> Parts) const {
    std::string Msg = "rule '";
    Msg += name(R.Name);
    Msg += "': ";
    for (std::string_view P : Parts)
      Msg += P;
    return Error::failure(std::move(Msg));
  }
  bool isSpecialAttr(Symbol S) const {
    return S == SymStart || S == SymEnd || S == SymEoi;
  }
};

} // namespace

std::set<Symbol> ipg::ruleDefSet(const Grammar &G, RuleId Id) {
  const Rule &R = G.rule(Id);
  std::set<Symbol> Defs;
  if (R.Alts.empty())
    return Defs;
  for (const TermPtr &T : R.Alts[0].Terms)
    if (const auto *D = dyn_cast<AttrDefTerm>(T.get()))
      if (definedByEveryAlt(R, D->Name))
        Defs.insert(D->Name);
  return Defs;
}

RuleId Checker::resolveName(Symbol Name) const {
  for (auto It = Scope.rbegin(); It != Scope.rend(); ++It)
    for (RuleId L : (*It)->LocalRules)
      if (G.rule(L).Name == Name)
        return L;
  return G.findGlobal(Name);
}

Error Checker::resolveAlt(const Rule &R, Alternative &Alt) {
  auto Resolve = [&](Symbol Name, RuleId &Out) {
    Out = resolveName(Name);
    if (Out == InvalidRuleId)
      return fail(R, {"unknown nonterminal '", name(Name), "'"});
    return Error::success();
  };
  for (const TermPtr &T : Alt.Terms) {
    switch (T->kind()) {
    case Term::Kind::Nonterminal:
      if (Error E = Resolve(cast<NTTerm>(T.get())->Name,
                            cast<NTTerm>(T.get())->Resolved))
        return E;
      break;
    case Term::Kind::Array:
      if (Error E = Resolve(cast<ArrayTerm>(T.get())->Elem,
                            cast<ArrayTerm>(T.get())->Resolved))
        return E;
      break;
    case Term::Kind::Switch:
      for (SwitchChoice &C : cast<SwitchTerm>(T.get())->Choices)
        if (Error E = Resolve(C.NT, C.Resolved))
          return E;
      break;
    default:
      break;
    }
  }
  return Error::success();
}

/// Appends \p E to FreeRefs when it references a name \p Alt does not
/// bind itself. Loop-variable filtering is flow-insensitive: any array of
/// the alternative binds its variable for every expression in it.
void Checker::addFreeRef(const Alternative &Alt, const Expr &E) {
  const auto *Ref = dyn_cast<RefExpr>(&E);
  if (!Ref)
    return;
  switch (Ref->refKind()) {
  case RefKind::Attr:
    if (!definesAttr(Alt, Ref->attrName()) &&
        !bindsLoopVar(Alt, Ref->attrName()) &&
        !isSpecialAttr(Ref->attrName()))
      FreeRefs.push_back({Ref->attrName(), false});
    break;
  case RefKind::NtAttr:
  case RefKind::NtElemAttr:
    if (!producesName(Alt, Ref->nt()))
      FreeRefs.push_back({Ref->nt(), true});
    break;
  case RefKind::Eoi:
  case RefKind::TermEnd:
    break;
  }
}

std::pair<uint32_t, uint32_t> Checker::freeRefs(RuleId Id) {
  FreeWindow &W = Free[Id];
  if (W.State == FreeWindow::Done)
    return {W.Begin, W.End};
  if (W.State == FreeWindow::Visiting)
    return {0, 0}; // recursive local rule; under-approximate
  W.State = FreeWindow::Visiting;

  // Finish every local callee first, so this rule's references can be
  // appended to FreeRefs as one contiguous window.
  const Rule &R = G.rule(Id);
  for (const Alternative &Alt : R.Alts)
    forEachLocalCallee(G, Alt, [&](RuleId Callee) { (void)freeRefs(Callee); });

  const uint32_t Begin = static_cast<uint32_t>(FreeRefs.size());
  for (const Alternative &Alt : R.Alts) {
    auto Add = [&](const Expr &E) { addFreeRef(Alt, E); };
    for (const TermPtr &T : Alt.Terms) {
      // A nonterminal's unexpanded length form is not visited.
      if (const auto *N = dyn_cast<NTTerm>(T.get())) {
        if (N->Iv.Lo)
          forEachExpr(*N->Iv.Lo, Add);
        if (N->Iv.Hi)
          forEachExpr(*N->Iv.Hi, Add);
      } else {
        forEachTermExpr(*T, Add);
      }
    }
    // What the local callees need and this alternative does not bind.
    forEachLocalCallee(G, Alt, [&](RuleId Callee) {
      auto [CB, CE] = freeRefs(Callee);
      for (uint32_t K = CB; K != CE; ++K) {
        FreeRef F = FreeRefs[K];
        if (F.Nt ? !producesName(Alt, F.Name)
                 : !definesAttr(Alt, F.Name) && !bindsLoopVar(Alt, F.Name))
          FreeRefs.push_back(F);
      }
    });
  }
  std::sort(FreeRefs.begin() + Begin, FreeRefs.end());
  FreeRefs.erase(std::unique(FreeRefs.begin() + Begin, FreeRefs.end()),
                 FreeRefs.end());

  FreeWindow &Done = Free[Id];
  Done.State = FreeWindow::Done;
  Done.Begin = Begin;
  Done.End = static_cast<uint32_t>(FreeRefs.size());
  return {Done.Begin, Done.End};
}

Error Checker::checkExpr(const Rule &R, const Alternative &Alt,
                         const Expr &E) {
  switch (E.kind()) {
  case Expr::Kind::Num:
    return Error::success();
  case Expr::Kind::Binary: {
    const auto &B = *cast<BinaryExpr>(&E);
    if (Error Er = checkExpr(R, Alt, *B.lhs()))
      return Er;
    return checkExpr(R, Alt, *B.rhs());
  }
  case Expr::Kind::Cond: {
    const auto &C = *cast<CondExpr>(&E);
    if (Error Er = checkExpr(R, Alt, *C.cond()))
      return Er;
    if (Error Er = checkExpr(R, Alt, *C.thenExpr()))
      return Er;
    return checkExpr(R, Alt, *C.elseExpr());
  }
  case Expr::Kind::Exists: {
    const auto &X = *cast<ExistsExpr>(&E);
    Bound.push_back(X.loopVar());
    Error Er = checkExpr(R, Alt, *X.cond());
    if (!Er)
      Er = checkExpr(R, Alt, *X.thenExpr());
    if (!Er)
      Er = checkExpr(R, Alt, *X.elseExpr());
    Bound.pop_back();
    return Er;
  }
  case Expr::Kind::Read: {
    const auto &Rd = *cast<ReadExpr>(&E);
    if (Error Er = checkExpr(R, Alt, *Rd.lo()))
      return Er;
    if (Rd.hi())
      return checkExpr(R, Alt, *Rd.hi());
    return Error::success();
  }
  case Expr::Kind::Ref:
    break;
  }

  const auto &Ref = *cast<RefExpr>(&E);
  switch (Ref.refKind()) {
  case RefKind::Eoi:
    return Error::success();
  case RefKind::TermEnd:
    if (Ref.termIndex() >= Alt.Terms.size())
      return fail(R, {"internal term-end reference out of range"});
    return Error::success();
  case RefKind::Attr: {
    Symbol Id = Ref.attrName();
    // In the current alternative, loop variables are visible only inside
    // their binding construct (tracked precisely via Bound). In enclosing
    // lexical alternatives the binding site cannot be tracked statically,
    // so any outer loop variable is accepted (the runtime fails cleanly
    // if it is unbound when evaluated).
    if (isBound(Id) || isSpecialAttr(Id))
      return Error::success();
    if (definesAttr(Alt, Id))
      return Error::success();
    for (const Alternative *Outer : Scope)
      if (definesAttr(*Outer, Id) || bindsLoopVar(*Outer, Id))
        return Error::success();
    return fail(R, {"reference to undefined attribute '", name(Id), "'"});
  }
  case RefKind::NtAttr:
  case RefKind::NtElemAttr: {
    Symbol NT = Ref.nt();
    Symbol Attr = Ref.attrName();
    if (Ref.index()) {
      if (Error Er = checkExpr(R, Alt, *Ref.index()))
        return Er;
    }

    // Look for a producing sibling term in this alternative, then in the
    // enclosing lexical alternatives (for where-rules), innermost first.
    for (size_t Level = Scope.size() + 1; Level-- > 0;) {
      const Alternative &In = Level == Scope.size() ? Alt : *Scope[Level];
      for (const TermPtr &T : In.Terms) {
        if (const auto *N = dyn_cast<NTTerm>(T.get())) {
          if (N->Name != NT)
            continue;
          if (Ref.refKind() == RefKind::NtElemAttr)
            return fail(R, {"'", name(NT), "' is not an array; use '",
                            name(NT), ".attr'"});
          if (Attr == SymStart || Attr == SymEnd)
            return Error::success();
          if (N->Resolved != InvalidRuleId &&
              definedByEveryAlt(G.rule(N->Resolved), Attr))
            return Error::success();
          return fail(R, {"attribute '", name(Attr),
                          "' is not defined by every alternative of '",
                          name(NT), "'"});
        }
        if (const auto *B = dyn_cast<BlackboxTerm>(T.get())) {
          if (B->Name != NT)
            continue;
          if (Attr == SymVal || Attr == SymStart || Attr == SymEnd)
            return Error::success();
          return fail(R, {"blackbox '", name(NT),
                          "' only defines val/start/end"});
        }
        if (const auto *A = dyn_cast<ArrayTerm>(T.get())) {
          if (A->Elem != NT)
            continue;
          if (Ref.refKind() == RefKind::NtAttr)
            return fail(R, {"'", name(NT), "' is an array; use '", name(NT),
                            "(e).attr'"});
          if (Attr == SymStart || Attr == SymEnd)
            return Error::success();
          if (A->Resolved != InvalidRuleId &&
              definedByEveryAlt(G.rule(A->Resolved), Attr))
            return Error::success();
          return fail(R, {"attribute '", name(Attr),
                          "' is not defined by every alternative of '",
                          name(NT), "'"});
        }
      }
    }
    return fail(R, {"no sibling term named '", name(NT), "' in scope"});
  }
  }
  return Error::success();
}

Error Checker::checkAltRefs(const Rule &R, const Alternative &Alt) {
  // Duplicate attribute definitions are rejected up front.
  for (size_t I = 0; I != Alt.Terms.size(); ++I)
    if (const auto *D = dyn_cast<AttrDefTerm>(Alt.Terms[I].get()))
      for (size_t J = 0; J != I; ++J)
        if (const auto *Prev = dyn_cast<AttrDefTerm>(Alt.Terms[J].get()))
          if (Prev->Name == D->Name)
            return fail(R, {"attribute '", name(D->Name),
                            "' defined twice in one alternative"});

  Bound.clear();
  auto Check = [&](const ExprPtr &E) {
    return E ? checkExpr(R, Alt, *E) : Error::success();
  };
  for (const TermPtr &T : Alt.Terms) {
    Error Err = Error::success();
    switch (T->kind()) {
    case Term::Kind::Array: {
      // From/To may not use the loop variable; el/er may.
      const auto *A = cast<ArrayTerm>(T.get());
      if ((Err = checkExpr(R, Alt, *A->From)) ||
          (Err = checkExpr(R, Alt, *A->To)))
        break;
      Bound.push_back(A->LoopVar);
      if (!(Err = Check(A->Iv.Lo)))
        Err = Check(A->Iv.Hi);
      Bound.pop_back();
      break;
    }
    case Term::Kind::Nonterminal: {
      const auto *N = cast<NTTerm>(T.get());
      if (!(Err = Check(N->Iv.Lo)))
        Err = Check(N->Iv.Hi);
      break;
    }
    case Term::Kind::Terminal: {
      const auto *S = cast<TerminalTerm>(T.get());
      if (!(Err = Check(S->Iv.Lo)))
        Err = Check(S->Iv.Hi);
      break;
    }
    case Term::Kind::AttrDef:
      Err = checkExpr(R, Alt, *cast<AttrDefTerm>(T.get())->Value);
      break;
    case Term::Kind::Predicate:
      Err = checkExpr(R, Alt, *cast<PredicateTerm>(T.get())->Cond);
      break;
    case Term::Kind::Switch:
      for (const SwitchChoice &C : cast<SwitchTerm>(T.get())->Choices)
        if ((Err = Check(C.Cond)) || (Err = Check(C.Iv.Lo)) ||
            (Err = Check(C.Iv.Hi)))
          break;
      break;
    case Term::Kind::Blackbox: {
      const auto *B = cast<BlackboxTerm>(T.get());
      if (!(Err = Check(B->Iv.Lo)))
        Err = Check(B->Iv.Hi);
      break;
    }
    }
    if (Err)
      return Err;
  }
  return Error::success();
}

Error Checker::buildExecOrder(const Rule &R, Alternative &Alt) {
  const uint32_t N = static_cast<uint32_t>(Alt.Terms.size());
  const size_t Words = (N + 63) / 64;
  // DependsOn row I holds a bit per term J that term I must run after.
  DependsOn.assign(N * Words, 0);
  auto AddEdge = [&](uint32_t I, uint32_t J) {
    DependsOn[I * Words + J / 64] |= uint64_t(1) << (J % 64);
  };
  auto DependsOnTerm = [&](uint32_t I, uint32_t J) {
    return (DependsOn[I * Words + J / 64] >> (J % 64)) & 1;
  };
  auto AddBareEdges = [&](uint32_t I, Symbol Id) {
    for (uint32_t J = 0; J != N; ++J)
      if (J != I)
        if (const auto *D = dyn_cast<AttrDefTerm>(Alt.Terms[J].get()))
          if (D->Name == Id)
            AddEdge(I, J);
  };
  auto AddNtEdges = [&](uint32_t I, Symbol NT) {
    for (uint32_t J = 0; J != N; ++J)
      if (J != I && producedName(*Alt.Terms[J]) == NT)
        AddEdge(I, J);
  };
  auto AddCalleeEdges = [&](uint32_t I, RuleId Callee) {
    if (Callee == InvalidRuleId || !G.rule(Callee).IsLocal)
      return;
    auto [CB, CE] = freeRefs(Callee);
    for (uint32_t K = CB; K != CE; ++K) {
      if (FreeRefs[K].Nt)
        AddNtEdges(I, FreeRefs[K].Name);
      else
        AddBareEdges(I, FreeRefs[K].Name);
    }
  };

  for (uint32_t I = 0; I != N; ++I) {
    const Term &T = *Alt.Terms[I];
    // Loop variables bound by this term never create edges; neither do
    // exists variables, from the exists node on to the end of the root.
    const auto *Arr = dyn_cast<ArrayTerm>(&T);
    auto VisitRoot = [&](const Expr &Root) {
      Bound.clear();
      if (Arr)
        Bound.push_back(Arr->LoopVar);
      forEachExpr(Root, [&](const Expr &E) {
        if (const auto *X = dyn_cast<ExistsExpr>(&E))
          Bound.push_back(X->loopVar());
        const auto *Ref = dyn_cast<RefExpr>(&E);
        if (!Ref)
          return;
        switch (Ref->refKind()) {
        case RefKind::Attr:
          if (!isBound(Ref->attrName()) && !isSpecialAttr(Ref->attrName()))
            AddBareEdges(I, Ref->attrName());
          break;
        case RefKind::NtAttr:
        case RefKind::NtElemAttr:
          AddNtEdges(I, Ref->nt());
          break;
        case RefKind::TermEnd:
          if (Ref->termIndex() != I)
            AddEdge(I, Ref->termIndex());
          break;
        case RefKind::Eoi:
          break;
        }
      });
    };
    // Visit each expression root of the term.
    switch (T.kind()) {
    case Term::Kind::Nonterminal: {
      const auto &NTm = *cast<NTTerm>(&T);
      VisitRoot(*NTm.Iv.Lo);
      VisitRoot(*NTm.Iv.Hi);
      AddCalleeEdges(I, NTm.Resolved);
      break;
    }
    case Term::Kind::Terminal: {
      const auto &S = *cast<TerminalTerm>(&T);
      VisitRoot(*S.Iv.Lo);
      VisitRoot(*S.Iv.Hi);
      break;
    }
    case Term::Kind::AttrDef:
      VisitRoot(*cast<AttrDefTerm>(&T)->Value);
      break;
    case Term::Kind::Predicate:
      VisitRoot(*cast<PredicateTerm>(&T)->Cond);
      break;
    case Term::Kind::Array:
      VisitRoot(*Arr->From);
      VisitRoot(*Arr->To);
      VisitRoot(*Arr->Iv.Lo);
      VisitRoot(*Arr->Iv.Hi);
      AddCalleeEdges(I, Arr->Resolved);
      break;
    case Term::Kind::Switch:
      for (const SwitchChoice &C : cast<SwitchTerm>(&T)->Choices) {
        if (C.Cond)
          VisitRoot(*C.Cond);
        VisitRoot(*C.Iv.Lo);
        VisitRoot(*C.Iv.Hi);
        AddCalleeEdges(I, C.Resolved);
      }
      break;
    case Term::Kind::Blackbox: {
      const auto &B = *cast<BlackboxTerm>(&T);
      VisitRoot(*B.Iv.Lo);
      VisitRoot(*B.Iv.Hi);
      break;
    }
    }
  }

  // Kahn's algorithm; the smallest ready index first keeps the order
  // stable (source order where no edge forces otherwise).
  Unmet.assign(N, 0);
  for (uint32_t I = 0; I != N; ++I)
    for (size_t W = 0; W != Words; ++W)
      Unmet[I] += static_cast<uint32_t>(
          std::popcount(DependsOn[I * Words + W]));
  constexpr uint32_t Emitted = ~0u;
  Alt.ExecOrder.clear();
  Alt.ExecOrder.reserve(N);
  for (;;) {
    uint32_t Next = 0;
    while (Next != N && Unmet[Next] != 0)
      ++Next;
    if (Next == N)
      break;
    Unmet[Next] = Emitted;
    Alt.ExecOrder.push_back(Next);
    for (uint32_t Dep = 0; Dep != N; ++Dep)
      if (Unmet[Dep] != Emitted && DependsOnTerm(Dep, Next))
        --Unmet[Dep];
  }
  if (Alt.ExecOrder.size() != N)
    return fail(R, {"circular attribute dependencies in an alternative"});
  return Error::success();
}

Error Checker::walkRule(Rule &R) {
  for (Alternative &Alt : R.Alts) {
    // The alternative's own where-block is in scope for its terms (e.g.
    // `S -> D[...] where { D -> ... }` binds D locally, shadowing any
    // global D).
    Scope.push_back(&Alt);
    Error E = resolveAlt(R, Alt);
    for (RuleId L : Alt.LocalRules) {
      if (E)
        break;
      E = walkRule(G.rule(L));
    }
    Scope.pop_back();
    if (E)
      return E;
    if (Error E2 = checkAltRefs(R, Alt))
      return E2;
    if (Error E2 = buildExecOrder(R, Alt))
      return E2;
  }
  return Error::success();
}

Error Checker::run() {
  for (size_t I = 0, E = G.numRules(); I != E; ++I) {
    Rule &R = G.rule(static_cast<RuleId>(I));
    if (R.IsLocal)
      continue; // visited through the owning alternative
    if (Error Err = walkRule(R))
      return Err;
  }
  return Error::success();
}

Error ipg::checkAttributes(Grammar &G) { return Checker(G).run(); }

Expected<LoadResult> ipg::loadGrammar(std::string_view Text) {
  auto G = parseGrammarText(Text);
  if (!G)
    return Expected<LoadResult>(G.takeError());
  auto Stats = completeIntervals(*G);
  if (!Stats)
    return Expected<LoadResult>(Stats.takeError());
  if (Error E = checkAttributes(*G))
    return Expected<LoadResult>(std::move(E));
  LoadResult Res{std::move(*G), *Stats};
  return Expected<LoadResult>(std::move(Res));
}
