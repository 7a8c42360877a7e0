//===- grammar/Grammar.h - IPG grammar AST ----------------------*- C++ -*-===//
//
// Part of the IPG reproduction of "Interval Parsing Grammars for File Format
// Parsing" (PLDI 2023). MIT license.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The grammar AST of Figure 5 plus the full-language features of
/// Section 3.4:
///
///   G    ::= R1 ... Rn
///   R    ::= A -> alt1 / ... / altn
///   alt  ::= tm1 ... tmn [ where { local rules } ]
///   tm   ::= A[el,er] | s[el,er] | {id=e} | check(e)
///          | for id=e1 to e2 do A[el,er]
///          | switch(e1:A1[..] / ... / An+1[..])
///          | bb[el,er]                      (declared blackbox parser)
///
/// Intervals may be fully explicit `[el,er]`, length-only `[len]`, or
/// omitted entirely; the auto-completion pass (analysis/Completion) fills
/// the implicit forms in and records Table-2 statistics.
///
/// Local rules introduced by `where` live in the same rule arena as global
/// rules but are only reachable through their owning alternative; their
/// bodies may reference attributes of the enclosing alternative (resolved
/// through the lexical frame chain at parse time).
///
//===----------------------------------------------------------------------===//

#ifndef IPG_GRAMMAR_GRAMMAR_H
#define IPG_GRAMMAR_GRAMMAR_H

#include "expr/Expr.h"
#include "support/Casting.h"
#include "support/Interner.h"

#include <cstddef>
#include <cstdint>
#include <memory>
#include <set>
#include <string>
#include <string_view>
#include <utility>
#include <vector>

namespace ipg {

/// The id of a rule inside its Grammar's rule arena (the ipg_rt::RuleId
/// every tree node carries).
using ipg_rt::InvalidRuleId;
using ipg_rt::RuleId;

/// An interval annotation on a term. `How` remembers the surface form for
/// the implicit-interval statistics of Table 2; after auto-completion every
/// interval has both endpoints populated.
struct Interval {
  enum class Form {
    Explicit, ///< [el, er] written by the user
    Length,   ///< [len] — left endpoint inferred, right = left + len
    Omitted,  ///< no interval written at all
  };

  Form How = Form::Omitted;
  ExprPtr Lo; ///< left endpoint (set after completion)
  ExprPtr Hi; ///< right endpoint, exclusive (set after completion)
  ExprPtr Len; ///< original length expression for Form::Length

  static Interval explicitly(ExprPtr Lo, ExprPtr Hi) {
    Interval Iv;
    Iv.How = Form::Explicit;
    Iv.Lo = std::move(Lo);
    Iv.Hi = std::move(Hi);
    return Iv;
  }
  static Interval lengthOnly(ExprPtr Len) {
    Interval Iv;
    Iv.How = Form::Length;
    Iv.Len = std::move(Len);
    return Iv;
  }
  static Interval omitted() { return Interval(); }

  bool completed() const { return Lo != nullptr && Hi != nullptr; }
};

/// Base of the term hierarchy; LLVM-style RTTI via kind()/classof.
class Term {
public:
  enum class Kind {
    Nonterminal,
    Terminal,
    AttrDef,
    Predicate,
    Array,
    Switch,
    Blackbox,
  };

  Kind kind() const { return K; }
  virtual ~Term();

protected:
  explicit Term(Kind K) : K(K) {}

private:
  Kind K;
};

using TermPtr = std::shared_ptr<Term>;

/// `A[el, er]` — parse the slice with A's rule.
class NTTerm : public Term {
public:
  NTTerm(Symbol Name, Interval Iv)
      : Term(Kind::Nonterminal), Name(Name), Iv(std::move(Iv)) {}
  static bool classof(const Term *T) {
    return T->kind() == Kind::Nonterminal;
  }

  Symbol Name;
  Interval Iv;
  /// Filled by the resolver: the rule this name binds to in scope.
  RuleId Resolved = InvalidRuleId;
};

/// `"bytes"[el, er]` — match a terminal string inside the interval — or the
/// wildcard `raw[el, er]`, which matches the whole interval without
/// inspecting (or copying) it. `raw` is how grammars describe opaque
/// payloads (ELF's OtherSec, ZIP's archived data); it touches [el, er), so
/// `end` advances across it, and the engine never copies the bytes (the
/// zero-copy behaviour Section 7 credits for the ZIP speedup).
class TerminalTerm : public Term {
public:
  TerminalTerm(std::string Bytes, Interval Iv, bool Wildcard = false)
      : Term(Kind::Terminal), Bytes(std::move(Bytes)), Iv(std::move(Iv)),
        Wildcard(Wildcard) {}
  static bool classof(const Term *T) { return T->kind() == Kind::Terminal; }

  std::string Bytes;
  Interval Iv;
  bool Wildcard;
};

/// `{id = e}` — define an attribute of the enclosing rule.
class AttrDefTerm : public Term {
public:
  AttrDefTerm(Symbol Name, ExprPtr Value)
      : Term(Kind::AttrDef), Name(Name), Value(std::move(Value)) {}
  static bool classof(const Term *T) { return T->kind() == Kind::AttrDef; }

  Symbol Name;
  ExprPtr Value;
};

/// `check(e)` — the predicate term <e>; fails when e evaluates to 0.
class PredicateTerm : public Term {
public:
  explicit PredicateTerm(ExprPtr Cond)
      : Term(Kind::Predicate), Cond(std::move(Cond)) {}
  static bool classof(const Term *T) { return T->kind() == Kind::Predicate; }

  ExprPtr Cond;
};

/// `for id = e1 to e2 do A[el, er]` — an array of A's; el/er may use id.
class ArrayTerm : public Term {
public:
  ArrayTerm(Symbol LoopVar, ExprPtr From, ExprPtr To, Symbol Elem,
            Interval Iv)
      : Term(Kind::Array), LoopVar(LoopVar), From(std::move(From)),
        To(std::move(To)), Elem(Elem), Iv(std::move(Iv)) {}
  static bool classof(const Term *T) { return T->kind() == Kind::Array; }

  Symbol LoopVar;
  ExprPtr From, To;
  Symbol Elem;
  Interval Iv;
  RuleId Resolved = InvalidRuleId;
};

/// One arm of a switch term; a null Cond marks the default arm.
struct SwitchChoice {
  ExprPtr Cond;
  Symbol NT;
  Interval Iv;
  RuleId Resolved = InvalidRuleId;
};

/// `switch(e1:A1[..] / ... / An+1[..])` — the type-length-value selector of
/// Section 3.4. Arms are tried left to right; the first arm whose condition
/// is nonzero is parsed; a conditionless final arm is the default. With no
/// default and no matching arm the term fails (a strictly more permissive
/// surface than the paper, which requires a default arm).
class SwitchTerm : public Term {
public:
  explicit SwitchTerm(std::vector<SwitchChoice> Choices)
      : Term(Kind::Switch), Choices(std::move(Choices)) {}
  static bool classof(const Term *T) { return T->kind() == Kind::Switch; }

  std::vector<SwitchChoice> Choices;
};

/// `bb[el, er]` — invoke a registered blackbox parser on the slice
/// (Section 3.4). The blackbox reports a value, how much input it touched,
/// and optional decoded output; it surfaces in the parse tree as a node
/// with attributes val/start/end.
class BlackboxTerm : public Term {
public:
  BlackboxTerm(Symbol Name, Interval Iv)
      : Term(Kind::Blackbox), Name(Name), Iv(std::move(Iv)) {}
  static bool classof(const Term *T) { return T->kind() == Kind::Blackbox; }

  Symbol Name;
  Interval Iv;
};

/// One alternative of a rule: an ordered list of terms, the local rules of
/// its where-clause, and (after attribute checking) the dependency-DAG
/// execution order of Section 3.2.
struct Alternative {
  std::vector<TermPtr> Terms;
  std::vector<RuleId> LocalRules;
  /// Topological execution order over Terms (indices); filled by
  /// checkAttributes. Empty means "source order".
  std::vector<uint32_t> ExecOrder;
};

/// A rule `A -> alt1 / ... / altn` (biased choice).
struct Rule {
  Symbol Name = InvalidSymbol;
  RuleId Id = InvalidRuleId;
  bool IsLocal = false;
  std::vector<Alternative> Alts;
};

/// A whole grammar: the rule arena, the global name -> rule map, declared
/// blackboxes, and the interner that owns every Symbol in the AST.
class Grammar {
public:
  Grammar();
  Grammar(const Grammar &) = delete;
  Grammar &operator=(const Grammar &) = delete;
  Grammar(Grammar &&) = default;
  Grammar &operator=(Grammar &&) = default;

  StringInterner &interner() { return Names; }
  const StringInterner &interner() const { return Names; }
  Symbol intern(std::string_view Name) { return Names.intern(Name); }

  /// Creates a rule; global rules (IsLocal false) are looked up by name.
  /// The first global rule becomes the start symbol unless overridden.
  Rule &createRule(Symbol Name, bool IsLocal);

  Rule &rule(RuleId Id) { return *Rules.at(Id); }
  const Rule &rule(RuleId Id) const { return *Rules.at(Id); }
  size_t numRules() const { return Rules.size(); }

  /// Global lookup only; local rules are reachable via their alternative.
  RuleId findGlobal(Symbol Name) const;

  Symbol startSymbol() const { return Start; }
  void setStartSymbol(Symbol S) { Start = S; }

  void declareBlackbox(Symbol Name) { Blackboxes.insert(Name); }
  bool isBlackbox(Symbol Name) const { return Blackboxes.count(Name) != 0; }
  const std::set<Symbol> &blackboxes() const { return Blackboxes; }

  /// Cached special attribute symbols.
  Symbol symStart() const { return SymStart; }
  Symbol symEnd() const { return SymEnd; }
  Symbol symEoi() const { return SymEoi; }
  Symbol symVal() const { return SymVal; }

  /// Pretty-prints the grammar in the surface syntax.
  std::string str() const;

private:
  StringInterner Names;
  std::vector<std::unique_ptr<Rule>> Rules;
  /// Global rule by name, indexed by Symbol (symbols are dense ids).
  std::vector<RuleId> GlobalRules;
  std::set<Symbol> Blackboxes;
  Symbol Start = InvalidSymbol;
  Symbol SymStart, SymEnd, SymEoi, SymVal;
};

/// Visits every expression appearing in \p T (interval endpoints, attribute
/// values, predicate and switch conditions, array bounds).
template <typename Fn> void forEachTermExpr(const Term &T, Fn &&Visit) {
  auto VisitIv = [&](const Interval &Iv) {
    if (Iv.Lo)
      forEachExpr(*Iv.Lo, Visit);
    if (Iv.Hi)
      forEachExpr(*Iv.Hi, Visit);
    if (Iv.Len)
      forEachExpr(*Iv.Len, Visit);
  };
  switch (T.kind()) {
  case Term::Kind::Nonterminal:
    VisitIv(cast<NTTerm>(&T)->Iv);
    break;
  case Term::Kind::Terminal:
    VisitIv(cast<TerminalTerm>(&T)->Iv);
    break;
  case Term::Kind::AttrDef:
    forEachExpr(*cast<AttrDefTerm>(&T)->Value, Visit);
    break;
  case Term::Kind::Predicate:
    forEachExpr(*cast<PredicateTerm>(&T)->Cond, Visit);
    break;
  case Term::Kind::Array: {
    const auto *A = cast<ArrayTerm>(&T);
    forEachExpr(*A->From, Visit);
    forEachExpr(*A->To, Visit);
    VisitIv(A->Iv);
    break;
  }
  case Term::Kind::Switch:
    for (const SwitchChoice &C : cast<SwitchTerm>(&T)->Choices) {
      if (C.Cond)
        forEachExpr(*C.Cond, Visit);
      VisitIv(C.Iv);
    }
    break;
  case Term::Kind::Blackbox:
    VisitIv(cast<BlackboxTerm>(&T)->Iv);
    break;
  }
}

/// True for term kinds that occupy input (nonterminals, terminals, arrays,
/// switches, blackboxes) as opposed to attribute definitions / predicates.
bool isPositionalTerm(const Term &T);

/// True when some alternative of \p R contains a term that spawns a
/// subparser (nonterminal, array, switch, or blackbox). Leaf rules —
/// terminals, attribute definitions, and predicates only — re-match in
/// less time than a memo-table probe costs, so both execution engines
/// exclude them from (rule, interval) memoization; the policy lives here
/// so the two cannot disagree.
bool ruleSpawnsSubparsers(const Rule &R);

/// Renders one term in the surface syntax.
std::string termToString(const Term &T, const Grammar &G);

} // namespace ipg

#endif // IPG_GRAMMAR_GRAMMAR_H
