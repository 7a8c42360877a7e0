//===- grammar/Grammar.cpp ------------------------------------------------===//
//
// Part of the IPG reproduction of "Interval Parsing Grammars for File Format
// Parsing" (PLDI 2023). MIT license.
//
//===----------------------------------------------------------------------===//

#include "grammar/Grammar.h"

#include "support/Casting.h"

#include <cassert>
#include <memory>
#include <string>
#include <utility>

using namespace ipg;

Term::~Term() = default;

Grammar::Grammar() {
  SymStart = Names.intern("start");
  SymEnd = Names.intern("end");
  SymEoi = Names.intern("EOI");
  SymVal = Names.intern("val");
  // Every tier's trees compare against these symbols as constants.
  assert(SymStart == ipg_rt::IdStart && SymEnd == ipg_rt::IdEnd &&
         SymVal == ipg_rt::IdVal && "ipg_rt's fixed symbols moved");
}

Rule &Grammar::createRule(Symbol Name, bool IsLocal) {
  auto R = std::make_unique<Rule>();
  R->Name = Name;
  R->Id = static_cast<RuleId>(Rules.size());
  R->IsLocal = IsLocal;
  Rules.push_back(std::move(R));
  Rule &Ref = *Rules.back();
  if (!IsLocal) {
    assert(findGlobal(Name) == InvalidRuleId && "duplicate global rule");
    if (GlobalRules.size() <= Name)
      GlobalRules.resize(Name + 1, InvalidRuleId);
    GlobalRules[Name] = Ref.Id;
    if (Start == InvalidSymbol)
      Start = Name;
  }
  return Ref;
}

RuleId Grammar::findGlobal(Symbol Name) const {
  return Name < GlobalRules.size() ? GlobalRules[Name] : InvalidRuleId;
}

bool ipg::isPositionalTerm(const Term &T) {
  switch (T.kind()) {
  case Term::Kind::Nonterminal:
  case Term::Kind::Terminal:
  case Term::Kind::Array:
  case Term::Kind::Switch:
  case Term::Kind::Blackbox:
    return true;
  case Term::Kind::AttrDef:
  case Term::Kind::Predicate:
    return false;
  }
  return false;
}

bool ipg::ruleSpawnsSubparsers(const Rule &R) {
  for (const Alternative &Alt : R.Alts)
    for (const TermPtr &T : Alt.Terms)
      switch (T->kind()) {
      case Term::Kind::Nonterminal:
      case Term::Kind::Array:
      case Term::Kind::Switch:
      case Term::Kind::Blackbox:
        return true;
      case Term::Kind::Terminal:
      case Term::Kind::AttrDef:
      case Term::Kind::Predicate:
        break;
      }
  return false;
}

static std::string escapeBytes(const std::string &Bytes) {
  std::string S = "\"";
  for (unsigned char C : Bytes) {
    if (C == '"' || C == '\\') {
      S += '\\';
      S += static_cast<char>(C);
    } else if (C >= 0x20 && C < 0x7f) {
      S += static_cast<char>(C);
    } else {
      static const char *Hex = "0123456789abcdef";
      S += "\\x";
      S += Hex[C >> 4];
      S += Hex[C & 0xf];
    }
  }
  return S + "\"";
}

static std::string intervalToString(const Interval &Iv,
                                    const StringInterner &Names) {
  std::string S;
  switch (Iv.How) {
  case Interval::Form::Omitted:
    if (Iv.completed()) {
      S += '[';
      S += Iv.Lo->str(Names);
      S += ", ";
      S += Iv.Hi->str(Names);
      S += "]*";
    }
    break;
  case Interval::Form::Length:
    S += '[';
    S += Iv.Len->str(Names);
    S += ']';
    break;
  case Interval::Form::Explicit:
    S += '[';
    S += Iv.Lo->str(Names);
    S += ", ";
    S += Iv.Hi->str(Names);
    S += ']';
    break;
  }
  return S;
}

std::string ipg::termToString(const Term &T, const Grammar &G) {
  const StringInterner &Names = G.interner();
  switch (T.kind()) {
  case Term::Kind::Nonterminal: {
    const auto *N = cast<NTTerm>(&T);
    return std::string(Names.name(N->Name)) + intervalToString(N->Iv, Names);
  }
  case Term::Kind::Terminal: {
    const auto *S = cast<TerminalTerm>(&T);
    if (S->Wildcard)
      return "raw" + intervalToString(S->Iv, Names);
    return escapeBytes(S->Bytes) + intervalToString(S->Iv, Names);
  }
  case Term::Kind::AttrDef: {
    const auto *A = cast<AttrDefTerm>(&T);
    std::string S = "{";
    S += Names.name(A->Name);
    S += " = ";
    S += A->Value->str(Names);
    S += '}';
    return S;
  }
  case Term::Kind::Predicate:
    return "check(" + cast<PredicateTerm>(&T)->Cond->str(Names) + ")";
  case Term::Kind::Array: {
    const auto *A = cast<ArrayTerm>(&T);
    return "for " + std::string(Names.name(A->LoopVar)) + " = " +
           A->From->str(Names) + " to " + A->To->str(Names) + " do " +
           std::string(Names.name(A->Elem)) + intervalToString(A->Iv, Names);
  }
  case Term::Kind::Switch: {
    std::string S = "switch(";
    bool First = true;
    for (const SwitchChoice &C : cast<SwitchTerm>(&T)->Choices) {
      if (!First)
        S += " / ";
      First = false;
      if (C.Cond)
        S += C.Cond->str(Names) + ": ";
      S += std::string(Names.name(C.NT)) + intervalToString(C.Iv, Names);
    }
    return S + ")";
  }
  case Term::Kind::Blackbox: {
    const auto *B = cast<BlackboxTerm>(&T);
    return std::string(Names.name(B->Name)) + intervalToString(B->Iv, Names);
  }
  }
  return "?";
}

static void printRule(const Grammar &G, const Rule &R, std::string &Out,
                      int Indent) {
  std::string Pad(Indent, ' ');
  Out += Pad + std::string(G.interner().name(R.Name)) + " ->";
  bool FirstAlt = true;
  for (const Alternative &Alt : R.Alts) {
    if (!FirstAlt) {
      Out += '\n';
      Out += Pad;
      Out += "  /";
    }
    FirstAlt = false;
    for (const TermPtr &T : Alt.Terms) {
      Out += ' ';
      Out += termToString(*T, G);
    }
    if (!Alt.LocalRules.empty()) {
      Out += '\n';
      Out += Pad;
      Out += "  where {\n";
      for (RuleId L : Alt.LocalRules)
        printRule(G, G.rule(L), Out, Indent + 4);
      Out += Pad + "  }";
    }
  }
  Out += " ;\n";
}

std::string Grammar::str() const {
  std::string Out;
  for (Symbol BB : Blackboxes)
    Out += "blackbox " + std::string(Names.name(BB)) + " ;\n";
  for (const auto &R : Rules)
    if (!R->IsLocal)
      printRule(*this, *R, Out, 0);
  return Out;
}
