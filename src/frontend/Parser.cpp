//===- frontend/Parser.cpp ------------------------------------------------===//
//
// Part of the IPG reproduction of "Interval Parsing Grammars for File Format
// Parsing" (PLDI 2023). MIT license.
//
//===----------------------------------------------------------------------===//

#include "frontend/Parser.h"

#include "frontend/Lexer.h"

#include <cassert>
#include <cstddef>
#include <cstdint>
#include <iterator>
#include <memory>
#include <string>
#include <string_view>
#include <utility>
#include <vector>

using namespace ipg;

namespace {

/// Builtin expression readers: name -> (kind, arity).
struct BuiltinRead {
  const char *Name;
  ReadKind RK;
  unsigned Arity;
};
const BuiltinRead Builtins[] = {
    {"u8", ReadKind::U8, 1},         {"u16le", ReadKind::U16Le, 1},
    {"u32le", ReadKind::U32Le, 1},   {"u64le", ReadKind::U64Le, 1},
    {"u16be", ReadKind::U16Be, 1},   {"u32be", ReadKind::U32Be, 1},
    {"btoi", ReadKind::BtoiLe, 2},   {"btoibe", ReadKind::BtoiBe, 2},
};

const BuiltinRead *findBuiltin(std::string_view Name) {
  for (const BuiltinRead &B : Builtins)
    if (Name == B.Name)
      return &B;
  return nullptr;
}

class Parser {
public:
  Parser(std::vector<Token> Toks) : Toks(std::move(Toks)) {}

  Expected<Grammar> run();

private:
  std::vector<Token> Toks;
  size_t Pos = 0;
  Grammar G;
  Error Err = Error::success();
  /// Terms of the alternatives being parsed, innermost last; each
  /// alternative moves its own into an exactly sized Alternative::Terms.
  std::vector<TermPtr> TermStack;

  const Token &cur() const { return Toks[Pos]; }
  const Token &peek(size_t Ahead = 1) const {
    size_t I = Pos + Ahead;
    return I < Toks.size() ? Toks[I] : Toks.back();
  }
  bool at(TokKind K) const { return cur().Kind == K; }
  bool accept(TokKind K) {
    if (!at(K))
      return false;
    ++Pos;
    return true;
  }
  void advance() { ++Pos; }

  /// Records a diagnostic at the current token; parsing then unwinds.
  bool fail(const std::string &Msg) {
    if (!Err)
      Err = Error::failure("line " + std::to_string(cur().Line) + ":" +
                           std::to_string(cur().Col) + ": " + Msg);
    return false;
  }
  bool expect(TokKind K) {
    if (accept(K))
      return true;
    return fail(std::string("expected ") + tokKindName(K) + ", found " +
                tokKindName(cur().Kind));
  }
  /// An identifier, or a keyword used in name position (e.g. `.start`).
  bool identLike(std::string_view &Out) {
    if (at(TokKind::Ident) || cur().Kind >= TokKind::KwFor) {
      Out = cur().Text;
      advance();
      return true;
    }
    return fail(std::string("expected identifier, found ") +
                tokKindName(cur().Kind));
  }

  // Expressions (precedence climbing).
  ExprPtr parseExpr();
  ExprPtr parseOr();
  ExprPtr parseAnd();
  ExprPtr parseCmp();
  ExprPtr parseBand();
  ExprPtr parseShift();
  ExprPtr parseAdd();
  ExprPtr parseMul();
  ExprPtr parseUnary();
  ExprPtr parsePrimary();

  // Grammar structure.
  bool parseTopLevel();
  bool parseRuleInto(Rule &R);
  bool parseAlternative(Alternative &Alt);
  TermPtr parseTerm();
  bool parseOptInterval(Interval &Iv, bool Required);
};

} // namespace

ExprPtr Parser::parseExpr() {
  ExprPtr C = parseOr();
  if (!C)
    return nullptr;
  if (!accept(TokKind::Question))
    return C;
  ExprPtr T = parseExpr();
  if (!T)
    return nullptr;
  if (!expect(TokKind::Colon))
    return nullptr;
  ExprPtr F = parseExpr();
  if (!F)
    return nullptr;
  return CondExpr::create(std::move(C), std::move(T), std::move(F));
}

ExprPtr Parser::parseOr() {
  ExprPtr L = parseAnd();
  while (L && accept(TokKind::OrOr)) {
    ExprPtr R = parseAnd();
    if (!R)
      return nullptr;
    L = BinaryExpr::create(BinOpKind::Or, std::move(L), std::move(R));
  }
  return L;
}

ExprPtr Parser::parseAnd() {
  ExprPtr L = parseCmp();
  while (L && accept(TokKind::AndAnd)) {
    ExprPtr R = parseCmp();
    if (!R)
      return nullptr;
    L = BinaryExpr::create(BinOpKind::And, std::move(L), std::move(R));
  }
  return L;
}

ExprPtr Parser::parseCmp() {
  ExprPtr L = parseBand();
  if (!L)
    return nullptr;
  BinOpKind Op;
  switch (cur().Kind) {
  case TokKind::Assign:
  case TokKind::EqEq:
    Op = BinOpKind::Eq;
    break;
  case TokKind::Neq:
    Op = BinOpKind::Ne;
    break;
  case TokKind::Lt:
    Op = BinOpKind::Lt;
    break;
  case TokKind::Gt:
    Op = BinOpKind::Gt;
    break;
  case TokKind::Le:
    Op = BinOpKind::Le;
    break;
  case TokKind::Ge:
    Op = BinOpKind::Ge;
    break;
  default:
    return L;
  }
  advance();
  ExprPtr R = parseBand();
  if (!R)
    return nullptr;
  return BinaryExpr::create(Op, std::move(L), std::move(R));
}

ExprPtr Parser::parseBand() {
  ExprPtr L = parseShift();
  while (L && accept(TokKind::Amp)) {
    ExprPtr R = parseShift();
    if (!R)
      return nullptr;
    L = BinaryExpr::create(BinOpKind::BitAnd, std::move(L), std::move(R));
  }
  return L;
}

ExprPtr Parser::parseShift() {
  ExprPtr L = parseAdd();
  for (;;) {
    if (!L)
      return nullptr;
    BinOpKind Op;
    if (at(TokKind::Shl))
      Op = BinOpKind::Shl;
    else if (at(TokKind::Shr))
      Op = BinOpKind::Shr;
    else
      return L;
    advance();
    ExprPtr R = parseAdd();
    if (!R)
      return nullptr;
    L = BinaryExpr::create(Op, std::move(L), std::move(R));
  }
}

ExprPtr Parser::parseAdd() {
  ExprPtr L = parseMul();
  for (;;) {
    if (!L)
      return nullptr;
    BinOpKind Op;
    if (at(TokKind::Plus))
      Op = BinOpKind::Add;
    else if (at(TokKind::Minus))
      Op = BinOpKind::Sub;
    else
      return L;
    advance();
    ExprPtr R = parseMul();
    if (!R)
      return nullptr;
    L = BinaryExpr::create(Op, std::move(L), std::move(R));
  }
}

ExprPtr Parser::parseMul() {
  ExprPtr L = parseUnary();
  for (;;) {
    if (!L)
      return nullptr;
    BinOpKind Op;
    if (at(TokKind::Star))
      Op = BinOpKind::Mul;
    else if (at(TokKind::Slash))
      Op = BinOpKind::Div;
    else if (at(TokKind::Percent))
      Op = BinOpKind::Mod;
    else
      return L;
    advance();
    ExprPtr R = parseUnary();
    if (!R)
      return nullptr;
    L = BinaryExpr::create(Op, std::move(L), std::move(R));
  }
}

ExprPtr Parser::parseUnary() {
  if (accept(TokKind::Minus)) {
    ExprPtr E = parseUnary();
    if (!E)
      return nullptr;
    return BinaryExpr::create(BinOpKind::Sub, NumExpr::create(0),
                              std::move(E));
  }
  return parsePrimary();
}

ExprPtr Parser::parsePrimary() {
  if (at(TokKind::Number)) {
    int64_t V = cur().Number;
    advance();
    return NumExpr::create(V);
  }
  if (accept(TokKind::LParen)) {
    ExprPtr E = parseExpr();
    if (!E)
      return nullptr;
    if (!expect(TokKind::RParen))
      return nullptr;
    return E;
  }
  if (accept(TokKind::KwExists)) {
    // exists j . cond ? then : else
    std::string_view Var;
    if (!identLike(Var))
      return nullptr;
    if (!expect(TokKind::Dot))
      return nullptr;
    ExprPtr C = parseOr();
    if (!C)
      return nullptr;
    if (!expect(TokKind::Question))
      return nullptr;
    ExprPtr T = parseExpr();
    if (!T)
      return nullptr;
    if (!expect(TokKind::Colon))
      return nullptr;
    ExprPtr F = parseExpr();
    if (!F)
      return nullptr;
    return ExistsExpr::create(G.intern(Var), std::move(C), std::move(T),
                              std::move(F));
  }
  if (!at(TokKind::Ident)) {
    fail("expected expression");
    return nullptr;
  }
  const std::string &Name = cur().Text;
  advance();
  if (Name == "EOI")
    return RefExpr::eoi();

  if (accept(TokKind::Dot)) {
    std::string_view Attr;
    if (!identLike(Attr))
      return nullptr;
    return RefExpr::ntAttr(G.intern(Name), G.intern(Attr));
  }
  if (accept(TokKind::LParen)) {
    std::vector<ExprPtr> Args;
    if (!at(TokKind::RParen)) {
      do {
        ExprPtr A = parseExpr();
        if (!A)
          return nullptr;
        Args.push_back(std::move(A));
      } while (accept(TokKind::Comma));
    }
    if (!expect(TokKind::RParen))
      return nullptr;
    if (accept(TokKind::Dot)) {
      // A(e).attr — array element reference.
      std::string_view Attr;
      if (!identLike(Attr))
        return nullptr;
      if (Args.size() != 1) {
        fail("array element reference takes exactly one index");
        return nullptr;
      }
      return RefExpr::ntElemAttr(G.intern(Name), std::move(Args[0]),
                                 G.intern(Attr));
    }
    const BuiltinRead *B = findBuiltin(Name);
    if (!B) {
      fail("unknown builtin function '" + Name + "'");
      return nullptr;
    }
    if (Args.size() != B->Arity) {
      fail("builtin '" + Name + "' expects " + std::to_string(B->Arity) +
           " argument(s)");
      return nullptr;
    }
    if (B->Arity == 1)
      return ReadExpr::fixed(B->RK, std::move(Args[0]));
    return ReadExpr::btoi(B->RK, std::move(Args[0]), std::move(Args[1]));
  }
  return RefExpr::attr(G.intern(Name));
}

bool Parser::parseOptInterval(Interval &Iv, bool Required) {
  if (!at(TokKind::LBracket)) {
    if (Required)
      return fail("this term requires an interval");
    Iv = Interval::omitted();
    return true;
  }
  advance();
  ExprPtr E1 = parseExpr();
  if (!E1)
    return false;
  if (accept(TokKind::Comma)) {
    ExprPtr E2 = parseExpr();
    if (!E2)
      return false;
    if (!expect(TokKind::RBracket))
      return false;
    Iv = Interval::explicitly(std::move(E1), std::move(E2));
    return true;
  }
  if (!expect(TokKind::RBracket))
    return false;
  Iv = Interval::lengthOnly(std::move(E1));
  return true;
}

TermPtr Parser::parseTerm() {
  if (at(TokKind::String)) {
    std::string Bytes = std::move(Toks[Pos].Text);
    advance();
    Interval Iv;
    if (!parseOptInterval(Iv, /*Required=*/false))
      return nullptr;
    return std::make_shared<TerminalTerm>(std::move(Bytes), std::move(Iv));
  }
  if (accept(TokKind::KwRaw)) {
    Interval Iv;
    if (!parseOptInterval(Iv, /*Required=*/false))
      return nullptr;
    return std::make_shared<TerminalTerm>(std::string(), std::move(Iv),
                                          /*Wildcard=*/true);
  }
  if (accept(TokKind::LBrace)) {
    std::string_view Name;
    if (!identLike(Name))
      return nullptr;
    if (!expect(TokKind::Assign))
      return nullptr;
    ExprPtr V = parseExpr();
    if (!V)
      return nullptr;
    if (!expect(TokKind::RBrace))
      return nullptr;
    return std::make_shared<AttrDefTerm>(G.intern(Name), std::move(V));
  }
  if (accept(TokKind::KwCheck)) {
    if (!expect(TokKind::LParen))
      return nullptr;
    ExprPtr C = parseExpr();
    if (!C)
      return nullptr;
    if (!expect(TokKind::RParen))
      return nullptr;
    return std::make_shared<PredicateTerm>(std::move(C));
  }
  if (accept(TokKind::KwFor)) {
    std::string_view Var;
    if (!identLike(Var))
      return nullptr;
    if (!expect(TokKind::Assign))
      return nullptr;
    ExprPtr From = parseExpr();
    if (!From)
      return nullptr;
    if (!expect(TokKind::KwTo))
      return nullptr;
    ExprPtr To = parseExpr();
    if (!To)
      return nullptr;
    if (!expect(TokKind::KwDo))
      return nullptr;
    std::string_view Elem;
    if (!identLike(Elem))
      return nullptr;
    Interval Iv;
    if (!parseOptInterval(Iv, /*Required=*/true))
      return nullptr;
    return std::make_shared<ArrayTerm>(G.intern(Var), std::move(From),
                                       std::move(To), G.intern(Elem),
                                       std::move(Iv));
  }
  if (accept(TokKind::KwSwitch)) {
    if (!expect(TokKind::LParen))
      return nullptr;
    std::vector<SwitchChoice> Choices;
    for (;;) {
      SwitchChoice Choice;
      // Lookahead: `NAME [` / `NAME /` / `NAME )` is a default (condition-
      // less) arm; anything else is `cond : NAME [interval]`.
      bool IsDefault = at(TokKind::Ident) &&
                       (peek().Kind == TokKind::LBracket ||
                        peek().Kind == TokKind::Slash ||
                        peek().Kind == TokKind::RParen);
      if (!IsDefault) {
        Choice.Cond = parseOr(); // no ternary: ':' separates cond from arm
        if (!Choice.Cond)
          return nullptr;
        if (!expect(TokKind::Colon))
          return nullptr;
      }
      if (!at(TokKind::Ident)) {
        fail("expected nonterminal in switch arm");
        return nullptr;
      }
      Choice.NT = G.intern(cur().Text);
      advance();
      if (!parseOptInterval(Choice.Iv, /*Required=*/false))
        return nullptr;
      Choices.push_back(std::move(Choice));
      if (accept(TokKind::Slash))
        continue;
      break;
    }
    if (!expect(TokKind::RParen))
      return nullptr;
    return std::make_shared<SwitchTerm>(std::move(Choices));
  }
  if (at(TokKind::Ident)) {
    Symbol Name = G.intern(cur().Text);
    advance();
    Interval Iv;
    if (!parseOptInterval(Iv, /*Required=*/false))
      return nullptr;
    if (G.isBlackbox(Name))
      return std::make_shared<BlackboxTerm>(Name, std::move(Iv));
    return std::make_shared<NTTerm>(Name, std::move(Iv));
  }
  fail(std::string("expected a term, found ") + tokKindName(cur().Kind));
  return nullptr;
}

bool Parser::parseAlternative(Alternative &Alt) {
  // An alternative may legitimately be empty (e.g. `X -> "a" / ;` is not
  // used in practice, but the empty terminal `""` is); require at least one
  // term for sanity.
  const size_t Base = TermStack.size();
  auto TakeTerms = [&] {
    Alt.Terms.assign(std::make_move_iterator(TermStack.begin() + Base),
                     std::make_move_iterator(TermStack.end()));
    TermStack.resize(Base);
  };
  for (;;) {
    switch (cur().Kind) {
    case TokKind::Slash:
    case TokKind::Semi:
    case TokKind::Eof:
      TakeTerms();
      if (Alt.Terms.empty())
        return fail("empty alternative");
      return true;
    case TokKind::KwWhere: {
      TakeTerms(); // before the local rules stack terms of their own
      advance();
      if (!expect(TokKind::LBrace))
        return false;
      while (!at(TokKind::RBrace)) {
        if (!at(TokKind::Ident))
          return fail("expected local rule in where-block");
        Symbol Name = G.intern(cur().Text);
        for (RuleId L : Alt.LocalRules)
          if (G.rule(L).Name == Name)
            return fail("duplicate local rule '" + cur().Text + "'");
        advance();
        Rule &R = G.createRule(Name, /*IsLocal=*/true);
        Alt.LocalRules.push_back(R.Id);
        if (!parseRuleInto(R))
          return false;
      }
      advance(); // RBrace
      if (Alt.Terms.empty())
        return fail("empty alternative");
      return true;
    }
    default: {
      TermPtr T = parseTerm();
      if (!T)
        return false;
      TermStack.push_back(std::move(T));
    }
    }
  }
}

bool Parser::parseRuleInto(Rule &R) {
  if (!expect(TokKind::Arrow))
    return false;
  for (;;) {
    Alternative Alt;
    if (!parseAlternative(Alt))
      return false;
    R.Alts.push_back(std::move(Alt));
    if (accept(TokKind::Slash))
      continue;
    return expect(TokKind::Semi);
  }
}

bool Parser::parseTopLevel() {
  while (!at(TokKind::Eof)) {
    if (!at(TokKind::Ident))
      return fail("expected a rule or declaration");
    const std::string &Name = cur().Text;
    if (Name == "blackbox" && peek().Kind == TokKind::Ident) {
      advance();
      G.declareBlackbox(G.intern(cur().Text));
      advance();
      if (!expect(TokKind::Semi))
        return false;
      continue;
    }
    if (Name == "start" && peek().Kind == TokKind::Ident) {
      advance();
      G.setStartSymbol(G.intern(cur().Text));
      advance();
      if (!expect(TokKind::Semi))
        return false;
      continue;
    }
    Symbol Sym = G.intern(Name);
    if (G.findGlobal(Sym) != InvalidRuleId)
      return fail("duplicate rule '" + Name + "'");
    advance();
    Rule &R = G.createRule(Sym, /*IsLocal=*/false);
    if (!parseRuleInto(R))
      return false;
  }
  return true;
}

Expected<Grammar> Parser::run() {
  if (!parseTopLevel()) {
    assert(Err && "parse failed without a diagnostic");
    return Expected<Grammar>(std::move(Err));
  }
  if (G.startSymbol() == InvalidSymbol)
    return Expected<Grammar>::failure("grammar has no rules");
  if (G.findGlobal(G.startSymbol()) == InvalidRuleId)
    return Expected<Grammar>::failure(
        "start symbol '" +
        std::string(G.interner().name(G.startSymbol())) +
        "' has no rule");
  return Expected<Grammar>(std::move(G));
}

Expected<Grammar> ipg::parseGrammarText(std::string_view Src) {
  auto Toks = tokenize(Src);
  if (!Toks)
    return Expected<Grammar>(Toks.takeError());
  return Parser(std::move(*Toks)).run();
}
