//===- analysis/AttributeCheck.cpp ----------------------------------------===//
//
// Part of the IPG reproduction of "Interval Parsing Grammars for File Format
// Parsing" (PLDI 2023). MIT license.
//
//===----------------------------------------------------------------------===//

#include "analysis/AttributeCheck.h"

#include "frontend/Parser.h"
#include "support/Casting.h"

#include <cstddef>
#include <cstdint>
#include <map>
#include <set>
#include <string>
#include <string_view>
#include <unordered_map>
#include <utility>
#include <vector>

using namespace ipg;

namespace {

/// Names a local rule may need from its enclosing alternative(s): bare
/// attribute/loop-variable identifiers and sibling nonterminal names.
struct FreeRefs {
  std::set<Symbol> Bare;
  std::set<Symbol> NtNames;
};

/// Everything an alternative binds locally, precomputed once.
struct AltLocalInfo {
  std::set<Symbol> AttrDefs;  ///< {id=e} names
  std::set<Symbol> LoopVars;  ///< array loop variables
  std::set<Symbol> Produced;  ///< NT / blackbox / array-element names
};

AltLocalInfo altLocalInfo(const Alternative &Alt) {
  AltLocalInfo Info;
  for (const TermPtr &T : Alt.Terms) {
    switch (T->kind()) {
    case Term::Kind::AttrDef:
      Info.AttrDefs.insert(cast<AttrDefTerm>(T.get())->Name);
      break;
    case Term::Kind::Array: {
      const auto *A = cast<ArrayTerm>(T.get());
      Info.LoopVars.insert(A->LoopVar);
      Info.Produced.insert(A->Elem);
      break;
    }
    case Term::Kind::Nonterminal:
      Info.Produced.insert(cast<NTTerm>(T.get())->Name);
      break;
    case Term::Kind::Blackbox:
      Info.Produced.insert(cast<BlackboxTerm>(T.get())->Name);
      break;
    case Term::Kind::Switch:
    case Term::Kind::Terminal:
    case Term::Kind::Predicate:
      break;
    }
  }
  return Info;
}

class Checker {
public:
  explicit Checker(Grammar &G)
      : G(G), SymVal(G.intern("val")), SymStart(G.symStart()),
        SymEnd(G.symEnd()), SymEoi(G.symEoi()) {}

  Error run();

private:
  Grammar &G;
  Symbol SymVal, SymStart, SymEnd, SymEoi;
  std::vector<std::set<Symbol>> DefSets;
  std::unordered_map<RuleId, FreeRefs> FreeRefCache;
  std::set<RuleId> FreeRefVisiting;

  Error walkRule(Rule &R, std::vector<const Alternative *> &Scope);
  Error resolveAlt(const Rule &R, Alternative &Alt,
                   const std::vector<const Alternative *> &Scope);
  Error checkAltRefs(const Rule &R, Alternative &Alt,
                     const std::vector<const Alternative *> &Scope);
  Error checkExpr(const Rule &R, const Alternative &Alt,
                  const std::vector<const Alternative *> &Scope,
                  const Expr &E, std::set<Symbol> &BoundVars);
  Error buildExecOrder(const Rule &R, Alternative &Alt);

  RuleId resolveName(Symbol Name,
                     const std::vector<const Alternative *> &Scope) const;
  const FreeRefs &freeRefs(RuleId Id);

  std::string ruleName(const Rule &R) const {
    return std::string(G.interner().name(R.Name));
  }
  bool isSpecialAttr(Symbol S) const {
    return S == SymStart || S == SymEnd || S == SymEoi;
  }
};

} // namespace

std::set<Symbol> ipg::ruleDefSet(const Grammar &G, RuleId Id) {
  const Rule &R = G.rule(Id);
  std::set<Symbol> Defs;
  bool First = true;
  for (const Alternative &Alt : R.Alts) {
    std::set<Symbol> AltDefs = altLocalInfo(Alt).AttrDefs;
    if (First) {
      Defs = std::move(AltDefs);
      First = false;
      continue;
    }
    std::set<Symbol> Inter;
    for (Symbol S : Defs)
      if (AltDefs.count(S))
        Inter.insert(S);
    Defs = std::move(Inter);
  }
  return Defs;
}

RuleId Checker::resolveName(
    Symbol Name, const std::vector<const Alternative *> &Scope) const {
  for (auto It = Scope.rbegin(); It != Scope.rend(); ++It)
    for (RuleId L : (*It)->LocalRules)
      if (G.rule(L).Name == Name)
        return L;
  return G.findGlobal(Name);
}

Error Checker::resolveAlt(const Rule &R, Alternative &Alt,
                          const std::vector<const Alternative *> &Scope) {
  auto Resolve = [&](Symbol Name, RuleId &Out) {
    Out = resolveName(Name, Scope);
    if (Out == InvalidRuleId)
      return Error::failure("rule '" + ruleName(R) +
                            "': unknown nonterminal '" +
                            std::string(G.interner().name(Name)) + "'");
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

const FreeRefs &Checker::freeRefs(RuleId Id) {
  auto It = FreeRefCache.find(Id);
  if (It != FreeRefCache.end())
    return It->second;
  static const FreeRefs Empty;
  if (FreeRefVisiting.count(Id))
    return Empty; // recursive local rule; under-approximate
  FreeRefVisiting.insert(Id);

  FreeRefs FR;
  const Rule &R = G.rule(Id);
  for (const Alternative &Alt : R.Alts) {
    AltLocalInfo Info = altLocalInfo(Alt);
    auto AddExprRefs = [&](const Expr &Root) {
      forEachExpr(Root, [&](const Expr &E) {
        const auto *Ref = dyn_cast<RefExpr>(&E);
        if (!Ref)
          return;
        switch (Ref->refKind()) {
        case RefKind::Attr:
          if (!Info.AttrDefs.count(Ref->attrName()) &&
              !Info.LoopVars.count(Ref->attrName()) &&
              !isSpecialAttr(Ref->attrName()))
            FR.Bare.insert(Ref->attrName());
          break;
        case RefKind::NtAttr:
        case RefKind::NtElemAttr:
          if (!Info.Produced.count(Ref->nt()))
            FR.NtNames.insert(Ref->nt());
          break;
        case RefKind::Eoi:
        case RefKind::TermEnd:
          break;
        }
      });
    };
    for (const TermPtr &T : Alt.Terms) {
      switch (T->kind()) {
      case Term::Kind::Nonterminal: {
        const auto *N = cast<NTTerm>(T.get());
        if (N->Iv.Lo)
          AddExprRefs(*N->Iv.Lo);
        if (N->Iv.Hi)
          AddExprRefs(*N->Iv.Hi);
        if (N->Resolved != InvalidRuleId && G.rule(N->Resolved).IsLocal) {
          const FreeRefs &Inner = freeRefs(N->Resolved);
          for (Symbol S : Inner.Bare)
            if (!Info.AttrDefs.count(S) && !Info.LoopVars.count(S))
              FR.Bare.insert(S);
          for (Symbol S : Inner.NtNames)
            if (!Info.Produced.count(S))
              FR.NtNames.insert(S);
        }
        break;
      }
      default: {
        forEachTermExpr(*T, [&](const Expr &E) {
          // Visit only Ref nodes; loop-variable filtering for arrays/exists
          // is approximated by Info.LoopVars above.
          const auto *Ref = dyn_cast<RefExpr>(&E);
          if (!Ref)
            return;
          if (Ref->refKind() == RefKind::Attr) {
            if (!Info.AttrDefs.count(Ref->attrName()) &&
                !Info.LoopVars.count(Ref->attrName()) &&
                !isSpecialAttr(Ref->attrName()))
              FR.Bare.insert(Ref->attrName());
          } else if (Ref->refKind() == RefKind::NtAttr ||
                     Ref->refKind() == RefKind::NtElemAttr) {
            if (!Info.Produced.count(Ref->nt()))
              FR.NtNames.insert(Ref->nt());
          }
        });
        // Nested local invocations from arrays / switches.
        if (const auto *A = dyn_cast<ArrayTerm>(T.get())) {
          if (A->Resolved != InvalidRuleId && G.rule(A->Resolved).IsLocal) {
            const FreeRefs &Inner = freeRefs(A->Resolved);
            for (Symbol S : Inner.Bare)
              if (!Info.AttrDefs.count(S) && !Info.LoopVars.count(S))
                FR.Bare.insert(S);
            for (Symbol S : Inner.NtNames)
              if (!Info.Produced.count(S))
                FR.NtNames.insert(S);
          }
        } else if (const auto *Sw = dyn_cast<SwitchTerm>(T.get())) {
          for (const SwitchChoice &C : Sw->Choices)
            if (C.Resolved != InvalidRuleId && G.rule(C.Resolved).IsLocal) {
              const FreeRefs &Inner = freeRefs(C.Resolved);
              for (Symbol S : Inner.Bare)
                if (!Info.AttrDefs.count(S) && !Info.LoopVars.count(S))
                  FR.Bare.insert(S);
              for (Symbol S : Inner.NtNames)
                if (!Info.Produced.count(S))
                  FR.NtNames.insert(S);
            }
        }
        break;
      }
      }
    }
  }

  FreeRefVisiting.erase(Id);
  return FreeRefCache.emplace(Id, std::move(FR)).first->second;
}

Error Checker::checkExpr(const Rule &R, const Alternative &Alt,
                         const std::vector<const Alternative *> &Scope,
                         const Expr &E, std::set<Symbol> &BoundVars) {
  auto Err = [&](const std::string &Msg) {
    return Error::failure("rule '" + ruleName(R) + "': " + Msg);
  };
  AltLocalInfo Info = altLocalInfo(Alt);

  switch (E.kind()) {
  case Expr::Kind::Num:
    return Error::success();
  case Expr::Kind::Binary: {
    const auto &B = *cast<BinaryExpr>(&E);
    if (Error Er = checkExpr(R, Alt, Scope, *B.lhs(), BoundVars))
      return Er;
    return checkExpr(R, Alt, Scope, *B.rhs(), BoundVars);
  }
  case Expr::Kind::Cond: {
    const auto &C = *cast<CondExpr>(&E);
    if (Error Er = checkExpr(R, Alt, Scope, *C.cond(), BoundVars))
      return Er;
    if (Error Er = checkExpr(R, Alt, Scope, *C.thenExpr(), BoundVars))
      return Er;
    return checkExpr(R, Alt, Scope, *C.elseExpr(), BoundVars);
  }
  case Expr::Kind::Exists: {
    const auto &X = *cast<ExistsExpr>(&E);
    bool Inserted = BoundVars.insert(X.loopVar()).second;
    Error Er = checkExpr(R, Alt, Scope, *X.cond(), BoundVars);
    if (!Er)
      Er = checkExpr(R, Alt, Scope, *X.thenExpr(), BoundVars);
    if (!Er)
      Er = checkExpr(R, Alt, Scope, *X.elseExpr(), BoundVars);
    if (Inserted)
      BoundVars.erase(X.loopVar());
    return Er;
  }
  case Expr::Kind::Read: {
    const auto &Rd = *cast<ReadExpr>(&E);
    if (Error Er = checkExpr(R, Alt, Scope, *Rd.lo(), BoundVars))
      return Er;
    if (Rd.hi())
      return checkExpr(R, Alt, Scope, *Rd.hi(), BoundVars);
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
      return Err("internal term-end reference out of range");
    return Error::success();
  case RefKind::Attr: {
    Symbol Id = Ref.attrName();
    // In the current alternative, loop variables are visible only inside
    // their binding construct (tracked precisely via BoundVars). In
    // enclosing lexical alternatives the binding site cannot be tracked
    // statically, so any outer loop variable is accepted (the runtime
    // fails cleanly if it is unbound when evaluated).
    if (BoundVars.count(Id) || isSpecialAttr(Id))
      return Error::success();
    if (Info.AttrDefs.count(Id))
      return Error::success();
    for (const Alternative *Outer : Scope) {
      AltLocalInfo OuterInfo = altLocalInfo(*Outer);
      if (OuterInfo.AttrDefs.count(Id) || OuterInfo.LoopVars.count(Id))
        return Error::success();
    }
    return Err("reference to undefined attribute '" +
               std::string(G.interner().name(Id)) + "'");
  }
  case RefKind::NtAttr:
  case RefKind::NtElemAttr: {
    Symbol NT = Ref.nt();
    Symbol Attr = Ref.attrName();
    if (Ref.index()) {
      if (Error Er = checkExpr(R, Alt, Scope, *Ref.index(), BoundVars))
        return Er;
    }

    // Look for a producing sibling term in this alternative, then in the
    // enclosing lexical alternatives (for where-rules).
    std::vector<const Alternative *> Chain(Scope.begin(), Scope.end());
    Chain.push_back(&Alt);
    for (auto It = Chain.rbegin(); It != Chain.rend(); ++It) {
      for (const TermPtr &T : (*It)->Terms) {
        if (const auto *N = dyn_cast<NTTerm>(T.get())) {
          if (N->Name != NT)
            continue;
          if (Ref.refKind() == RefKind::NtElemAttr)
            return Err("'" + std::string(G.interner().name(NT)) +
                       "' is not an array; use '" +
                       std::string(G.interner().name(NT)) + ".attr'");
          if (Attr == SymStart || Attr == SymEnd)
            return Error::success();
          if (N->Resolved != InvalidRuleId &&
              ruleDefSet(G, N->Resolved).count(Attr))
            return Error::success();
          return Err("attribute '" + std::string(G.interner().name(Attr)) +
                     "' is not defined by every alternative of '" +
                     std::string(G.interner().name(NT)) + "'");
        }
        if (const auto *B = dyn_cast<BlackboxTerm>(T.get())) {
          if (B->Name != NT)
            continue;
          if (Attr == SymVal || Attr == SymStart || Attr == SymEnd)
            return Error::success();
          return Err("blackbox '" + std::string(G.interner().name(NT)) +
                     "' only defines val/start/end");
        }
        if (const auto *A = dyn_cast<ArrayTerm>(T.get())) {
          if (A->Elem != NT)
            continue;
          if (Ref.refKind() == RefKind::NtAttr)
            return Err("'" + std::string(G.interner().name(NT)) +
                       "' is an array; use '" +
                       std::string(G.interner().name(NT)) + "(e).attr'");
          if (Attr == SymStart || Attr == SymEnd)
            return Error::success();
          if (A->Resolved != InvalidRuleId &&
              ruleDefSet(G, A->Resolved).count(Attr))
            return Error::success();
          return Err("attribute '" + std::string(G.interner().name(Attr)) +
                     "' is not defined by every alternative of '" +
                     std::string(G.interner().name(NT)) + "'");
        }
      }
    }
    return Err("no sibling term named '" +
               std::string(G.interner().name(NT)) + "' in scope");
  }
  }
  return Error::success();
}

Error Checker::checkAltRefs(const Rule &R, Alternative &Alt,
                            const std::vector<const Alternative *> &Scope) {
  // Duplicate attribute definitions are rejected up front.
  std::set<Symbol> Seen;
  for (const TermPtr &T : Alt.Terms)
    if (const auto *D = dyn_cast<AttrDefTerm>(T.get()))
      if (!Seen.insert(D->Name).second)
        return Error::failure("rule '" + ruleName(R) +
                              "': attribute '" +
                              std::string(G.interner().name(D->Name)) +
                              "' defined twice in one alternative");

  for (const TermPtr &T : Alt.Terms) {
    std::set<Symbol> Bound;
    if (const auto *A = dyn_cast<ArrayTerm>(T.get())) {
      // From/To may not use the loop variable; el/er may.
      if (Error E = checkExpr(R, Alt, Scope, *A->From, Bound))
        return E;
      if (Error E = checkExpr(R, Alt, Scope, *A->To, Bound))
        return E;
      Bound.insert(A->LoopVar);
      if (A->Iv.Lo)
        if (Error E = checkExpr(R, Alt, Scope, *A->Iv.Lo, Bound))
          return E;
      if (A->Iv.Hi)
        if (Error E = checkExpr(R, Alt, Scope, *A->Iv.Hi, Bound))
          return E;
      continue;
    }
    Error Err = Error::success();
    // Walk expression roots of the remaining term kinds.
    switch (T->kind()) {
    case Term::Kind::Nonterminal: {
      const auto *N = cast<NTTerm>(T.get());
      if (N->Iv.Lo)
        Err = checkExpr(R, Alt, Scope, *N->Iv.Lo, Bound);
      if (!Err && N->Iv.Hi)
        Err = checkExpr(R, Alt, Scope, *N->Iv.Hi, Bound);
      break;
    }
    case Term::Kind::Terminal: {
      const auto *S = cast<TerminalTerm>(T.get());
      if (S->Iv.Lo)
        Err = checkExpr(R, Alt, Scope, *S->Iv.Lo, Bound);
      if (!Err && S->Iv.Hi)
        Err = checkExpr(R, Alt, Scope, *S->Iv.Hi, Bound);
      break;
    }
    case Term::Kind::AttrDef:
      Err = checkExpr(R, Alt, Scope, *cast<AttrDefTerm>(T.get())->Value,
                      Bound);
      break;
    case Term::Kind::Predicate:
      Err = checkExpr(R, Alt, Scope, *cast<PredicateTerm>(T.get())->Cond,
                      Bound);
      break;
    case Term::Kind::Switch:
      for (const SwitchChoice &C : cast<SwitchTerm>(T.get())->Choices) {
        if (C.Cond)
          Err = checkExpr(R, Alt, Scope, *C.Cond, Bound);
        if (!Err && C.Iv.Lo)
          Err = checkExpr(R, Alt, Scope, *C.Iv.Lo, Bound);
        if (!Err && C.Iv.Hi)
          Err = checkExpr(R, Alt, Scope, *C.Iv.Hi, Bound);
        if (Err)
          break;
      }
      break;
    case Term::Kind::Blackbox: {
      const auto *B = cast<BlackboxTerm>(T.get());
      if (B->Iv.Lo)
        Err = checkExpr(R, Alt, Scope, *B->Iv.Lo, Bound);
      if (!Err && B->Iv.Hi)
        Err = checkExpr(R, Alt, Scope, *B->Iv.Hi, Bound);
      break;
    }
    case Term::Kind::Array:
      break; // handled above
    }
    if (Err)
      return Err;
  }
  return Error::success();
}

Error Checker::buildExecOrder(const Rule &R, Alternative &Alt) {
  size_t N = Alt.Terms.size();
  std::vector<std::set<uint32_t>> DependsOn(N);

  auto AddBareEdges = [&](uint32_t I, Symbol Id) {
    for (uint32_t J = 0; J != N; ++J) {
      if (J == I)
        continue;
      if (const auto *D = dyn_cast<AttrDefTerm>(Alt.Terms[J].get()))
        if (D->Name == Id)
          DependsOn[I].insert(J);
    }
  };
  auto AddNtEdges = [&](uint32_t I, Symbol NT) {
    for (uint32_t J = 0; J != N; ++J) {
      if (J == I)
        continue;
      const Term *T = Alt.Terms[J].get();
      Symbol Produced = InvalidSymbol;
      if (const auto *NTm = dyn_cast<NTTerm>(T))
        Produced = NTm->Name;
      else if (const auto *B = dyn_cast<BlackboxTerm>(T))
        Produced = B->Name;
      else if (const auto *A = dyn_cast<ArrayTerm>(T))
        Produced = A->Elem;
      if (Produced == NT)
        DependsOn[I].insert(J);
    }
  };

  for (uint32_t I = 0; I != N; ++I) {
    const Term &T = *Alt.Terms[I];
    // Loop variables bound by this term never create edges.
    std::set<Symbol> Bound;
    if (const auto *A = dyn_cast<ArrayTerm>(&T))
      Bound.insert(A->LoopVar);

    auto VisitRoot = [&](const Expr &Root) {
      std::set<Symbol> Inner = Bound;
      forEachExpr(Root, [&](const Expr &E) {
        if (const auto *X = dyn_cast<ExistsExpr>(&E))
          Inner.insert(X->loopVar());
        const auto *Ref = dyn_cast<RefExpr>(&E);
        if (!Ref)
          return;
        switch (Ref->refKind()) {
        case RefKind::Attr:
          if (!Inner.count(Ref->attrName()) &&
              !isSpecialAttr(Ref->attrName()))
            AddBareEdges(I, Ref->attrName());
          break;
        case RefKind::NtAttr:
        case RefKind::NtElemAttr:
          AddNtEdges(I, Ref->nt());
          break;
        case RefKind::TermEnd:
          if (Ref->termIndex() != I)
            DependsOn[I].insert(Ref->termIndex());
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
      if (NTm.Resolved != InvalidRuleId && G.rule(NTm.Resolved).IsLocal) {
        const FreeRefs &FR = freeRefs(NTm.Resolved);
        for (Symbol S : FR.Bare)
          AddBareEdges(I, S);
        for (Symbol S : FR.NtNames)
          AddNtEdges(I, S);
      }
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
    case Term::Kind::Array: {
      const auto &A = *cast<ArrayTerm>(&T);
      VisitRoot(*A.From);
      VisitRoot(*A.To);
      VisitRoot(*A.Iv.Lo);
      VisitRoot(*A.Iv.Hi);
      if (A.Resolved != InvalidRuleId && G.rule(A.Resolved).IsLocal) {
        const FreeRefs &FR = freeRefs(A.Resolved);
        for (Symbol S : FR.Bare)
          AddBareEdges(I, S);
        for (Symbol S : FR.NtNames)
          AddNtEdges(I, S);
      }
      break;
    }
    case Term::Kind::Switch:
      for (const SwitchChoice &C : cast<SwitchTerm>(&T)->Choices) {
        if (C.Cond)
          VisitRoot(*C.Cond);
        VisitRoot(*C.Iv.Lo);
        VisitRoot(*C.Iv.Hi);
        if (C.Resolved != InvalidRuleId && G.rule(C.Resolved).IsLocal) {
          const FreeRefs &FR = freeRefs(C.Resolved);
          for (Symbol S : FR.Bare)
            AddBareEdges(I, S);
          for (Symbol S : FR.NtNames)
            AddNtEdges(I, S);
        }
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

  // Kahn's algorithm; smallest source index first keeps the order stable.
  std::vector<uint32_t> Unmet(N, 0);
  std::vector<std::vector<uint32_t>> Dependents(N);
  for (uint32_t I = 0; I != N; ++I) {
    Unmet[I] = static_cast<uint32_t>(DependsOn[I].size());
    for (uint32_t J : DependsOn[I])
      Dependents[J].push_back(I);
  }
  std::set<uint32_t> Ready;
  for (uint32_t I = 0; I != N; ++I)
    if (Unmet[I] == 0)
      Ready.insert(I);
  Alt.ExecOrder.clear();
  while (!Ready.empty()) {
    uint32_t I = *Ready.begin();
    Ready.erase(Ready.begin());
    Alt.ExecOrder.push_back(I);
    for (uint32_t Dep : Dependents[I])
      if (--Unmet[Dep] == 0)
        Ready.insert(Dep);
  }
  if (Alt.ExecOrder.size() != N)
    return Error::failure("rule '" + ruleName(R) +
                          "': circular attribute dependencies in an "
                          "alternative");
  return Error::success();
}

Error Checker::walkRule(Rule &R, std::vector<const Alternative *> &Scope) {
  for (Alternative &Alt : R.Alts) {
    // The alternative's own where-block is in scope for its terms (e.g.
    // `S -> D[...] where { D -> ... }` binds D locally, shadowing any
    // global D).
    Scope.push_back(&Alt);
    Error E = resolveAlt(R, Alt, Scope);
    for (RuleId L : Alt.LocalRules) {
      if (E)
        break;
      E = walkRule(G.rule(L), Scope);
    }
    Scope.pop_back();
    if (E)
      return E;
    if (Error E2 = checkAltRefs(R, Alt, Scope))
      return E2;
    if (Error E2 = buildExecOrder(R, Alt))
      return E2;
  }
  return Error::success();
}

Error Checker::run() {
  std::vector<const Alternative *> Scope;
  for (size_t I = 0, E = G.numRules(); I != E; ++I) {
    Rule &R = G.rule(static_cast<RuleId>(I));
    if (R.IsLocal)
      continue; // visited through the owning alternative
    if (Error Err = walkRule(R, Scope))
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
