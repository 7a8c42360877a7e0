//===- tests/frontend_test.cpp - lexer and DSL parser tests ---------------===//
//
// Part of the IPG reproduction of "Interval Parsing Grammars for File Format
// Parsing" (PLDI 2023). MIT license.
//
//===----------------------------------------------------------------------===//

#include "frontend/Lexer.h"
#include "frontend/Parser.h"
#include "support/Casting.h"

#include <gtest/gtest.h>
#include <string>
#include <vector>

using namespace ipg;

TEST(LexerTest, BasicTokens) {
  auto Toks = tokenize("S -> A[0, 8] ;");
  ASSERT_TRUE(Toks) << Toks.message();
  std::vector<TokKind> Kinds;
  for (const Token &T : *Toks)
    Kinds.push_back(T.Kind);
  std::vector<TokKind> Want = {
      TokKind::Ident,  TokKind::Arrow,    TokKind::Ident,
      TokKind::LBracket, TokKind::Number, TokKind::Comma,
      TokKind::Number, TokKind::RBracket, TokKind::Semi,
      TokKind::Eof};
  EXPECT_EQ(Kinds, Want);
}

TEST(LexerTest, NumbersDecimalAndHex) {
  auto Toks = tokenize("42 0x2c 0");
  ASSERT_TRUE(Toks);
  EXPECT_EQ((*Toks)[0].Number, 42);
  EXPECT_EQ((*Toks)[1].Number, 0x2c);
  EXPECT_EQ((*Toks)[2].Number, 0);
}

TEST(LexerTest, StringEscapes) {
  auto Toks = tokenize(R"("a\x7fELF\n\t\0\\\"")");
  ASSERT_TRUE(Toks);
  std::string Want = "a";
  Want += '\x7f';
  Want += "ELF\n\t";
  Want += '\0';
  Want += "\\\"";
  EXPECT_EQ((*Toks)[0].Text, Want);
}

TEST(LexerTest, CommentsAreSkipped) {
  auto Toks = tokenize("A // line comment\n/* block\ncomment */ B");
  ASSERT_TRUE(Toks);
  ASSERT_EQ(Toks->size(), 3u); // A, B, Eof
  EXPECT_EQ((*Toks)[0].Text, "A");
  EXPECT_EQ((*Toks)[1].Text, "B");
}

TEST(LexerTest, OperatorDisambiguation) {
  auto Toks = tokenize("<< <= < >> >= > == = != && & -> -");
  ASSERT_TRUE(Toks);
  std::vector<TokKind> Kinds;
  for (const Token &T : *Toks)
    Kinds.push_back(T.Kind);
  std::vector<TokKind> Want = {
      TokKind::Shl, TokKind::Le,  TokKind::Lt,     TokKind::Shr,
      TokKind::Ge,  TokKind::Gt,  TokKind::EqEq,   TokKind::Assign,
      TokKind::Neq, TokKind::AndAnd, TokKind::Amp, TokKind::Arrow,
      TokKind::Minus, TokKind::Eof};
  EXPECT_EQ(Kinds, Want);
}

TEST(LexerTest, ErrorsAreLocated) {
  auto Toks = tokenize("A ->\n  $");
  ASSERT_FALSE(Toks);
  EXPECT_NE(Toks.message().find("line 2"), std::string::npos);
}

TEST(LexerTest, UnterminatedString) {
  auto Toks = tokenize("\"abc");
  ASSERT_FALSE(Toks);
  EXPECT_NE(Toks.message().find("unterminated"), std::string::npos);
}

TEST(ParserTest, FirstPaperExample) {
  // Figure 1 of the paper.
  auto G = parseGrammarText(R"(
    S -> A[0, 2] B[EOI - 2, EOI] ;
    A -> "aa"[0, 2] ;
    B -> "bb"[0, 2] ;
  )");
  ASSERT_TRUE(G) << G.message();
  EXPECT_EQ(G->numRules(), 3u);
  EXPECT_EQ(G->startSymbol(), G->interner().lookup("S"));
  const Rule &S = G->rule(G->findGlobal(G->interner().lookup("S")));
  ASSERT_EQ(S.Alts.size(), 1u);
  ASSERT_EQ(S.Alts[0].Terms.size(), 2u);
  EXPECT_TRUE(isa<NTTerm>(S.Alts[0].Terms[0].get()));
}

TEST(ParserTest, BiasedChoiceAlternatives) {
  auto G = parseGrammarText(R"(
    Digit -> "0"[0, 1] {val = 0} / "1"[0, 1] {val = 1} ;
  )");
  ASSERT_TRUE(G) << G.message();
  const Rule &R = G->rule(0);
  ASSERT_EQ(R.Alts.size(), 2u);
  EXPECT_EQ(R.Alts[0].Terms.size(), 2u);
}

TEST(ParserTest, ImplicitIntervalForms) {
  auto G = parseGrammarText(R"(S -> "magic" A B[10] ;
                               A -> "x" ; B -> "y" ;)");
  ASSERT_TRUE(G) << G.message();
  const Rule &S = G->rule(0);
  const auto *T0 = cast<TerminalTerm>(S.Alts[0].Terms[0].get());
  EXPECT_EQ(T0->Iv.How, Interval::Form::Omitted);
  const auto *T1 = cast<NTTerm>(S.Alts[0].Terms[1].get());
  EXPECT_EQ(T1->Iv.How, Interval::Form::Omitted);
  const auto *T2 = cast<NTTerm>(S.Alts[0].Terms[2].get());
  EXPECT_EQ(T2->Iv.How, Interval::Form::Length);
}

TEST(ParserTest, ForArraysAndPredicates) {
  auto G = parseGrammarText(R"(
    S -> H[0, 4] {size = 4}
         for i = 0 to H.num do A[4 + size * i, 4 + size * (i + 1)]
         {a0 = A(0).val}
         check(a0 > 0 && a0 < 10) ;
    H -> {num = u32le(0)} ;
    A -> {val = u32le(0)} ;
  )");
  ASSERT_TRUE(G) << G.message();
  const Rule &S = G->rule(0);
  ASSERT_EQ(S.Alts[0].Terms.size(), 5u);
  EXPECT_TRUE(isa<ArrayTerm>(S.Alts[0].Terms[2].get()));
  EXPECT_TRUE(isa<PredicateTerm>(S.Alts[0].Terms[4].get()));
}

TEST(ParserTest, SwitchWithDefault) {
  auto G = parseGrammarText(R"(
    S -> {t = u8(0)} switch(t = 6: DynSec[1, EOI] / OtherSec[1, EOI]) ;
    DynSec -> "d" ;
    OtherSec -> "o" ;
  )");
  ASSERT_TRUE(G) << G.message();
  const auto *Sw = dyn_cast<SwitchTerm>(G->rule(0).Alts[0].Terms[1].get());
  ASSERT_NE(Sw, nullptr);
  ASSERT_EQ(Sw->Choices.size(), 2u);
  EXPECT_NE(Sw->Choices[0].Cond, nullptr);
  EXPECT_EQ(Sw->Choices[1].Cond, nullptr); // default arm
}

TEST(ParserTest, WhereLocalRules) {
  auto G = parseGrammarText(R"(
    S -> A[0, 1] D[1, EOI]
      where { D -> B[A.val, EOI] ; B -> "b" ; } ;
    A -> {val = u8(0)} ;
  )");
  ASSERT_TRUE(G) << G.message();
  const Rule &S = G->rule(G->findGlobal(G->interner().lookup("S")));
  ASSERT_EQ(S.Alts[0].LocalRules.size(), 2u);
  EXPECT_TRUE(G->rule(S.Alts[0].LocalRules[0]).IsLocal);
  // Local rules must not be visible globally.
  EXPECT_EQ(G->findGlobal(G->interner().lookup("D")), InvalidRuleId);
}

TEST(ParserTest, BlackboxDeclaration) {
  auto G = parseGrammarText(R"(
    blackbox inflate ;
    S -> inflate[0, EOI] ;
  )");
  ASSERT_TRUE(G) << G.message();
  EXPECT_TRUE(G->isBlackbox(G->interner().lookup("inflate")));
  EXPECT_TRUE(isa<BlackboxTerm>(G->rule(0).Alts[0].Terms[0].get()));
}

TEST(ParserTest, StartDirective) {
  auto G = parseGrammarText(R"(
    start Real ;
    Helper -> "h" ;
    Real -> Helper[0, 1] ;
  )");
  ASSERT_TRUE(G) << G.message();
  EXPECT_EQ(G->startSymbol(), G->interner().lookup("Real"));
}

TEST(ParserTest, ExistsExpression) {
  auto G = parseGrammarText(R"(
    S -> for i = 0 to 4 do OH[8 * i, 8 * (i + 1)]
         {len = exists j . OH(j).link = 1 ? OH(j).len : 0 - 1} ;
    OH -> {link = u32le(0)} {len = u32le(4)} ;
  )");
  ASSERT_TRUE(G) << G.message();
  const auto *D = cast<AttrDefTerm>(G->rule(0).Alts[0].Terms[1].get());
  EXPECT_TRUE(isa<ExistsExpr>(D->Value.get()));
}

TEST(ParserTest, TernaryAndPrecedence) {
  auto G = parseGrammarText(R"(
    S -> {x = 1 + 2 * 3} {y = x = 7 ? 10 : 20}
         check(y = 10) "a"[0, 1] ;
  )");
  ASSERT_TRUE(G) << G.message();
}

TEST(ParserTest, ErrorUnknownBuiltin) {
  auto G = parseGrammarText("S -> {x = frob(1)} ;");
  ASSERT_FALSE(G);
  EXPECT_NE(G.message().find("unknown builtin"), std::string::npos);
}

TEST(ParserTest, ErrorDuplicateRule) {
  auto G = parseGrammarText("S -> \"a\" ; S -> \"b\" ;");
  ASSERT_FALSE(G);
  EXPECT_NE(G.message().find("duplicate rule"), std::string::npos);
}

TEST(ParserTest, ErrorMissingSemicolon) {
  auto G = parseGrammarText("S -> \"a\"");
  ASSERT_FALSE(G);
}

TEST(ParserTest, ErrorEmptyAlternative) {
  auto G = parseGrammarText("S -> \"a\" / / \"b\" ;");
  ASSERT_FALSE(G);
  EXPECT_NE(G.message().find("empty alternative"), std::string::npos);
}

TEST(ParserTest, GrammarPrintingRoundTripParses) {
  const char *Src = R"(
    S -> H[0, 8] Data[H.offset, H.offset + H.length] ;
    H -> {offset = u32le(0)} {length = u32le(4)} ;
    Data -> Byte[0, 1] Data[1, EOI] / Byte[0, 1] ;
    Byte -> {v = u8(0)} ;
  )";
  auto G = parseGrammarText(Src);
  ASSERT_TRUE(G) << G.message();
  std::string Printed = G->str();
  auto G2 = parseGrammarText(Printed);
  ASSERT_TRUE(G2) << "printed grammar failed to reparse: " << G2.message()
                  << "\n" << Printed;
  EXPECT_EQ(G2->numRules(), G->numRules());
}

//===----------------------------------------------------------------------===//
// Pinned diagnostics: one malformed grammar per distinct message, with the
// exact text (location included) the front end reports.
//===----------------------------------------------------------------------===//

namespace {
struct Diag {
  const char *Src;
  const char *Message;
};
} // namespace

TEST(DiagnosticsTest, TokenizeMessagesArePinned) {
  const Diag Cases[] = {
      {"S -> \"a\" ; /* open", "line 1:19: unterminated block comment"},
      {"S -> \"abc", "line 1:10: unterminated string literal"},
      {"S -> \"ab\\", "line 1:10: unterminated escape"},
      {"S -> \"\\x4\" ;", "line 1:9: \\x escape requires two hex digits"},
      {"S -> \"\\q\" ;", "line 1:9: unknown escape '\\q'"},
      {"S -> A ! B ;", "line 1:9: stray '!' (did you mean '!='?)"},
      {"S -> A | B ;", "line 1:9: stray '|' (did you mean '||'?)"},
      {"S -> A\n  $ ;", "line 2:3: unexpected character '$'"},
  };
  for (const Diag &D : Cases) {
    auto Toks = tokenize(D.Src);
    ASSERT_FALSE(Toks) << D.Src;
    EXPECT_EQ(Toks.message(), D.Message) << D.Src;
    // The parser reports the lexer's diagnostic unchanged.
    auto G = parseGrammarText(D.Src);
    ASSERT_FALSE(G) << D.Src;
    EXPECT_EQ(G.message(), D.Message) << D.Src;
  }
}

TEST(DiagnosticsTest, ParseMessagesArePinned) {
  const Diag Cases[] = {
      {"S -> A[0, 1 ;", "line 1:13: expected ']', found ';'"},
      {"S -> {1 = 2} ;", "line 1:7: expected identifier, found number"},
      {"S -> {x = ]} ;", "line 1:11: expected expression"},
      {"S -> {x = A(1, 2).y} ;",
       "line 1:20: array element reference takes exactly one index"},
      {"S -> {x = foo(1)} ;", "line 1:17: unknown builtin function 'foo'"},
      {"S -> {x = u8(1, 2)} ;",
       "line 1:19: builtin 'u8' expects 1 argument(s)"},
      {"S -> for i = 0 to 2 do A ; A -> \"a\" ;",
       "line 1:26: this term requires an interval"},
      {"S -> switch(1 : \"a\") ;",
       "line 1:17: expected nonterminal in switch arm"},
      {"S -> ] ;", "line 1:6: expected a term, found ']'"},
      {"S -> / \"a\" ;", "line 1:6: empty alternative"},
      {"S -> where { A -> \"a\" ; } ;", "line 1:27: empty alternative"},
      {"S -> \"a\" where { \"b\" } ;",
       "line 1:18: expected local rule in where-block"},
      {"S -> \"a\" where { A -> \"x\" ; A -> \"y\" ; } ;",
       "line 1:29: duplicate local rule 'A'"},
      {"\"a\" ;", "line 1:1: expected a rule or declaration"},
      {"S -> \"a\" ;\nS -> \"b\" ;", "line 2:1: duplicate rule 'S'"},
      {"ThisRuleNameIsLong -> \"a\" ; ThisRuleNameIsLong -> \"b\" ;",
       "line 1:29: duplicate rule 'ThisRuleNameIsLong'"},
      {"blackbox bb ;", "grammar has no rules"},
      {"start Q ; S -> \"a\" ;", "start symbol 'Q' has no rule"},
  };
  for (const Diag &D : Cases) {
    auto G = parseGrammarText(D.Src);
    ASSERT_FALSE(G) << D.Src;
    EXPECT_EQ(G.message(), D.Message) << D.Src;
  }
}
