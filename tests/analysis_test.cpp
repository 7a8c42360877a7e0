//===- tests/analysis_test.cpp - completion / attribute checking tests ----===//
//
// Part of the IPG reproduction of "Interval Parsing Grammars for File Format
// Parsing" (PLDI 2023). MIT license.
//
//===----------------------------------------------------------------------===//

#include "analysis/AttributeCheck.h"
#include "analysis/Completion.h"
#include "analysis/Consumes.h"
#include "analysis/Cycles.h"
#include "analysis/NTGraph.h"
#include "frontend/Parser.h"
#include "runtime/Interp.h"
#include "support/Casting.h"

#include <cstdint>
#include <gtest/gtest.h>
#include <set>
#include <string>
#include <string_view>
#include <vector>

using namespace ipg;

//===----------------------------------------------------------------------===//
// Implicit interval completion (Section 3.4).
//===----------------------------------------------------------------------===//

TEST(CompletionTest, PaperExampleMagicAB) {
  // S -> "magic" A B[10]  completes to
  // S -> "magic"[0, 5] A[5, EOI] B[A.end, A.end + 10]   (with the internal
  // TermEnd encoding of "end of the previous term").
  auto G = parseGrammarText(R"(S -> "magic" A B[10] ;
                               A -> "x" ; B -> raw ;)");
  ASSERT_TRUE(G) << G.message();
  auto Stats = completeIntervals(*G);
  ASSERT_TRUE(Stats) << Stats.message();

  const Rule &S = G->rule(0);
  const auto *T0 = cast<TerminalTerm>(S.Alts[0].Terms[0].get());
  ASSERT_TRUE(T0->Iv.completed());
  EXPECT_EQ(T0->Iv.Lo->str(G->interner()), "0");
  EXPECT_EQ(T0->Iv.Hi->str(G->interner()), "(0 + 5)");

  const auto *T1 = cast<NTTerm>(S.Alts[0].Terms[1].get());
  EXPECT_EQ(T1->Iv.Lo->str(G->interner()), "@end(0)");
  EXPECT_EQ(T1->Iv.Hi->str(G->interner()), "EOI");

  const auto *T2 = cast<NTTerm>(S.Alts[0].Terms[2].get());
  EXPECT_EQ(T2->Iv.Lo->str(G->interner()), "@end(1)");
  EXPECT_EQ(T2->Iv.Hi->str(G->interner()), "(@end(1) + 10)");
}

TEST(CompletionTest, StatsCountForms) {
  auto G = parseGrammarText(R"(S -> "magic" A B[10] C[0, 2] ;
                               A -> "x" ; B -> raw ; C -> "yy" ;)");
  ASSERT_TRUE(G) << G.message();
  auto Stats = completeIntervals(*G);
  ASSERT_TRUE(Stats) << Stats.message();
  // Intervals: magic(omitted) A(omitted) B(len) C(explicit) + "x"(omitted)
  // + raw(omitted) + "yy"(omitted).
  EXPECT_EQ(Stats->TotalIntervals, 7u);
  EXPECT_EQ(Stats->FullyImplicit, 5u);
  EXPECT_EQ(Stats->LengthOnly, 1u);
}

TEST(CompletionTest, CompletedGrammarParsesCorrectly) {
  auto R = loadGrammar(R"(
    S -> "magic" A B[3] ;
    A -> "ab"[0, 2] ;
    B -> "xyz"[0, 3] ;
  )");
  ASSERT_TRUE(R) << R.message();
  Interp I(R->G);
  EXPECT_TRUE(I.parse(ByteSpan::of(std::string_view("magicabxyz"))));
  // B[3] pins B to exactly 3 bytes right after A: a shorter tail fails.
  EXPECT_FALSE(I.parse(ByteSpan::of(std::string_view("magicabxy"))));
  // And so does content in the wrong place.
  EXPECT_FALSE(I.parse(ByteSpan::of(std::string_view("magicxyzab"))));
}

TEST(CompletionTest, ArrayWithoutExplicitIntervalIsRejected) {
  auto G = parseGrammarText(R"(S -> for i = 0 to 3 do A[4] ; A -> "x" ;)");
  ASSERT_TRUE(G) << G.message();
  auto Stats = completeIntervals(*G);
  ASSERT_FALSE(Stats);
  EXPECT_NE(Stats.message().find("array"), std::string::npos);
}

TEST(CompletionTest, FirstTermLeftEndpointIsZero) {
  auto G = parseGrammarText(R"(S -> A ; A -> "q" ;)");
  ASSERT_TRUE(G) << G.message();
  ASSERT_TRUE(completeIntervals(*G));
  const auto *T = cast<NTTerm>(G->rule(0).Alts[0].Terms[0].get());
  EXPECT_EQ(T->Iv.Lo->str(G->interner()), "0");
  EXPECT_EQ(T->Iv.Hi->str(G->interner()), "EOI");
}

//===----------------------------------------------------------------------===//
// Attribute checking (Section 3.2).
//===----------------------------------------------------------------------===//

TEST(AttrCheckTest, PaperReorderExample) {
  // Section 3.2: "B1[0, B2.a] B2[a1, EOI] {a1=2}" reorders to
  // "{a1=2} B2[a1, EOI] B1[0, B2.a]", i.e. execution order [2, 1, 0].
  auto R = loadGrammar(R"(
    S -> B1[0, B2.a] B2[a1, EOI] {a1 = 2} ;
    B1 -> raw ;
    B2 -> {a = u8(0)} ;
  )");
  ASSERT_TRUE(R) << R.message();
  const Rule &S = R->G.rule(R->G.findGlobal(R->G.intern("S")));
  std::vector<uint32_t> Want = {2, 1, 0};
  EXPECT_EQ(S.Alts[0].ExecOrder, Want);
}

TEST(AttrCheckTest, SourceOrderPreservedWithoutDependencies) {
  auto R = loadGrammar(R"(S -> "a"[0, 1] "b"[1, 2] "c"[2, 3] ;)");
  ASSERT_TRUE(R) << R.message();
  std::vector<uint32_t> Want = {0, 1, 2};
  EXPECT_EQ(R->G.rule(0).Alts[0].ExecOrder, Want);
}

TEST(AttrCheckTest, CircularDependencyRejected) {
  // B1's interval needs B2's attribute and vice versa.
  auto R = loadGrammar(R"(
    S -> B1[0, B2.a] B2[B1.b, EOI] ;
    B1 -> {b = u8(0)} ;
    B2 -> {a = u8(0)} ;
  )");
  ASSERT_FALSE(R);
  EXPECT_NE(R.message().find("circular"), std::string::npos);
}

TEST(AttrCheckTest, UnknownNonterminalRejected) {
  auto R = loadGrammar("S -> Q[0, 1] ;");
  ASSERT_FALSE(R);
  EXPECT_NE(R.message().find("unknown nonterminal"), std::string::npos);
}

TEST(AttrCheckTest, UndefinedAttributeRejected) {
  auto R = loadGrammar(R"(
    S -> A[0, 1] {x = A.nope} ;
    A -> {v = u8(0)} ;
  )");
  ASSERT_FALSE(R);
  EXPECT_NE(R.message().find("nope"), std::string::npos);
}

TEST(AttrCheckTest, UndefinedBareReferenceRejected) {
  auto R = loadGrammar("S -> {x = y + 1} ;");
  ASSERT_FALSE(R);
  EXPECT_NE(R.message().find("undefined attribute 'y'"), std::string::npos);
}

TEST(AttrCheckTest, DuplicateAttributeDefinitionRejected) {
  auto R = loadGrammar(R"(S -> {x = 1} {x = 2} ;)");
  ASSERT_FALSE(R);
  EXPECT_NE(R.message().find("defined twice"), std::string::npos);
}

TEST(AttrCheckTest, DefSetIsIntersectionOverAlternatives) {
  auto G = parseGrammarText(R"(
    A -> "x"[0, 1] {a = 1} {b = 2} / "y"[0, 1] {a = 3} ;
  )");
  ASSERT_TRUE(G) << G.message();
  std::set<Symbol> Defs = ruleDefSet(*G, 0);
  EXPECT_EQ(Defs.size(), 1u);
  EXPECT_TRUE(Defs.count(G->interner().lookup("a")));
  EXPECT_FALSE(Defs.count(G->interner().lookup("b")));
}

TEST(AttrCheckTest, ReferenceToPartiallyDefinedAttributeRejected) {
  // b is only defined in A's first alternative, so A.b is not in def(A).
  auto R = loadGrammar(R"(
    S -> A[0, 1] {x = A.b} ;
    A -> "x"[0, 1] {a = 1} {b = 2} / "y"[0, 1] {a = 3} ;
  )");
  ASSERT_FALSE(R);
  EXPECT_NE(R.message().find("not defined by every alternative"),
            std::string::npos);
}

TEST(AttrCheckTest, StartEndAlwaysReferencable) {
  auto R = loadGrammar(R"(
    S -> A[0, EOI] "z"[A.end, EOI] check(A.start = 0) ;
    A -> "aa"[0, 2] ;
  )");
  EXPECT_TRUE(R) << R.message();
}

TEST(AttrCheckTest, ArrayAttrNeedsIndex) {
  auto R = loadGrammar(R"(
    S -> for i = 0 to 2 do A[i, i + 1] {x = A.v} ;
    A -> {v = u8(0)} ;
  )");
  ASSERT_FALSE(R);
  EXPECT_NE(R.message().find("is an array"), std::string::npos);
}

TEST(AttrCheckTest, ScalarAttrRejectsIndex) {
  auto R = loadGrammar(R"(
    S -> A[0, 1] {x = A(0).v} ;
    A -> {v = u8(0)} ;
  )");
  ASSERT_FALSE(R);
  EXPECT_NE(R.message().find("is not an array"), std::string::npos);
}

TEST(AttrCheckTest, LoopVariableVisibleInElementInterval) {
  auto R = loadGrammar(R"(
    S -> {n = u8(0)} for i = 0 to n do A[1 + i, 2 + i] ;
    A -> {v = u8(0)} ;
  )");
  EXPECT_TRUE(R) << R.message();
}

TEST(AttrCheckTest, LoopVariableNotVisibleOutsideArray) {
  auto R = loadGrammar(R"(
    S -> for i = 0 to 2 do A[i, i + 1] {x = i} ;
    A -> {v = u8(0)} ;
  )");
  ASSERT_FALSE(R);
  EXPECT_NE(R.message().find("undefined attribute 'i'"), std::string::npos);
}

TEST(AttrCheckTest, BlackboxAttrsLimitedToValStartEnd) {
  auto Ok = loadGrammar(R"(
    blackbox bb ;
    S -> bb[0, EOI] {x = bb.val + bb.end} ;
  )");
  EXPECT_TRUE(Ok) << Ok.message();
  auto Bad = loadGrammar(R"(
    blackbox bb ;
    S -> bb[0, EOI] {x = bb.other} ;
  )");
  ASSERT_FALSE(Bad);
  EXPECT_NE(Bad.message().find("val/start/end"), std::string::npos);
}

TEST(AttrCheckTest, WhereRuleMaySeeEnclosingNames) {
  auto R = loadGrammar(R"(
    S -> A[0, 1] D[1, EOI] where { D -> "x"[A.val, A.val + 1] ; } ;
    A -> {val = u8(0)} ;
  )");
  EXPECT_TRUE(R) << R.message();
}

TEST(AttrCheckTest, WhereRuleUnknownOuterNameRejected) {
  auto R = loadGrammar(R"(
    S -> D[0, EOI] where { D -> "x"[Zed.val, EOI] ; } ;
  )");
  ASSERT_FALSE(R);
}

//===----------------------------------------------------------------------===//
// Consumes analysis (the termination extension's syntactic check).
//===----------------------------------------------------------------------===//

namespace {
bool consumes(const char *Src, const char *RuleName) {
  auto R = loadGrammar(Src);
  EXPECT_TRUE(R) << R.message();
  if (!R)
    return false;
  std::vector<bool> C = computeConsumes(R->G);
  RuleId Id = R->G.findGlobal(R->G.interner().lookup(RuleName));
  EXPECT_NE(Id, InvalidRuleId);
  return C[Id];
}
} // namespace

TEST(ConsumesTest, TerminalConsumes) {
  EXPECT_TRUE(consumes(R"(A -> "x"[0, 1] ;)", "A"));
}

TEST(ConsumesTest, EmptyTerminalDoesNot) {
  EXPECT_FALSE(consumes(R"(A -> ""[0, 0] ;)", "A"));
}

TEST(ConsumesTest, WildcardDoesNot) {
  // raw can match an empty interval.
  EXPECT_FALSE(consumes(R"(A -> raw[0, EOI] ;)", "A"));
}

TEST(ConsumesTest, AllAlternativesMustConsume) {
  EXPECT_TRUE(consumes(R"(A -> "x"[0, 1] / "y"[0, 1] ;)", "A"));
  EXPECT_FALSE(consumes(R"(A -> "x"[0, 1] / ""[0, 0] ;)", "A"));
}

TEST(ConsumesTest, PropagatesThroughNonterminals) {
  EXPECT_TRUE(consumes(R"(A -> B[0, EOI] ; B -> "x"[0, 1] ;)", "A"));
  // Mutual recursion with a base case that consumes.
  EXPECT_TRUE(consumes(
      R"(A -> B[0, EOI] ; B -> "b"[0, 1] A[1, EOI] / "b"[0, 1] ;)", "A"));
}

TEST(ConsumesTest, ArraysDoNotCount) {
  EXPECT_FALSE(consumes(
      R"(A -> for i = 0 to 3 do B[i, i + 1] ; B -> "x"[0, 1] ;)", "A"));
}

TEST(ConsumesTest, SwitchConsumesWhenAllArmsDo) {
  EXPECT_TRUE(consumes(R"(
    A -> {t = u8(0)} switch(t = 1: X[1, EOI] / Y[1, EOI]) ;
    X -> "x"[0, 1] ; Y -> "y"[0, 1] ;
  )", "A"));
  EXPECT_FALSE(consumes(R"(
    A -> {t = u8(0)} switch(t = 1: X[1, EOI] / Y[1, EOI]) ;
    X -> "x"[0, 1] ; Y -> raw[0, EOI] ;
  )", "A"));
}

//===----------------------------------------------------------------------===//
// NT graph and elementary cycles (Section 5 steps 1-2).
//===----------------------------------------------------------------------===//

TEST(NTGraphTest, EdgesFromAllTermKinds) {
  auto R = loadGrammar(R"(
    S -> A[0, 1] for i = 0 to 2 do B[i, i + 1]
         {t = u8(0)} switch(t = 1: C[0, 1] / D[0, 1]) ;
    A -> "a"[0, 1] ; B -> "b"[0, 1] ; C -> "c"[0, 1] ; D -> "d"[0, 1] ;
  )");
  ASSERT_TRUE(R) << R.message();
  NTGraph G = buildNTGraph(R->G);
  EXPECT_EQ(G.Edges.size(), 4u); // A, B, C, D
}

TEST(NTGraphTest, SelfLoopCycle) {
  auto R = loadGrammar(R"(A -> A[0, EOI - 1] / "x"[0, 1] ;)");
  ASSERT_TRUE(R) << R.message();
  NTGraph G = buildNTGraph(R->G);
  auto Cycles = elementaryCycles(G);
  ASSERT_EQ(Cycles.size(), 1u);
  EXPECT_EQ(Cycles[0].size(), 1u);
}

TEST(NTGraphTest, TwoNodeCycle) {
  auto R = loadGrammar(R"(
    A -> B[0, EOI] / "x"[0, 1] ;
    B -> A[0, EOI] / "y"[0, 1] ;
  )");
  ASSERT_TRUE(R) << R.message();
  auto Cycles = elementaryCycles(buildNTGraph(R->G));
  ASSERT_EQ(Cycles.size(), 1u);
  EXPECT_EQ(Cycles[0].size(), 2u);
}

TEST(NTGraphTest, ParallelEdgesYieldDistinctCycles) {
  auto R = loadGrammar(R"(
    A -> A[0, EOI - 1] / A[1, EOI] / "x"[0, 1] ;
  )");
  ASSERT_TRUE(R) << R.message();
  auto Cycles = elementaryCycles(buildNTGraph(R->G));
  EXPECT_EQ(Cycles.size(), 2u);
}

TEST(NTGraphTest, DagHasNoCycles) {
  auto R = loadGrammar(R"(
    S -> A[0, 1] B[1, 2] ;
    A -> "a"[0, 1] ; B -> "b"[0, 1] ;
  )");
  ASSERT_TRUE(R) << R.message();
  EXPECT_TRUE(elementaryCycles(buildNTGraph(R->G)).empty());
}

//===----------------------------------------------------------------------===//
// Pinned diagnostics of completion and attribute checking: one malformed
// grammar per distinct message, with the exact text loadGrammar reports.
// (The checker's "internal term-end reference out of range" cannot be
// reached from grammar text: only completion creates term-end references.)
//===----------------------------------------------------------------------===//

TEST(DiagnosticsTest, CompletionAndCheckMessagesArePinned) {
  struct Diag {
    const char *Src;
    const char *Message;
  };
  const Diag Cases[] = {
      {"S -> for i = 0 to 3 do A[4] ; A -> \"x\" ;",
       "rule 'S': array term requires an explicit interval"},
      {"S -> Q[0, 1] ;", "rule 'S': unknown nonterminal 'Q'"},
      {"S -> {x = y + 1} ;", "rule 'S': reference to undefined attribute 'y'"},
      {"S -> A[0, 1] {x = A(0).v} ; A -> {v = u8(0)} ;",
       "rule 'S': 'A' is not an array; use 'A.attr'"},
      {"S -> A[0, 1] {x = A.nope} ; A -> {v = u8(0)} ;",
       "rule 'S': attribute 'nope' is not defined by every alternative of "
       "'A'"},
      {"S -> A[0, 1] {x = A.b} ; A -> {b = 1} {c = 2} / {c = 3} ;",
       "rule 'S': attribute 'b' is not defined by every alternative of 'A'"},
      {"blackbox bb ; S -> bb[0, 1] {x = bb.foo} ;",
       "rule 'S': blackbox 'bb' only defines val/start/end"},
      {"S -> for i = 0 to 2 do A[i, i + 1] {x = A.v} ; A -> {v = u8(0)} ;",
       "rule 'S': 'A' is an array; use 'A(e).attr'"},
      {"S -> for i = 0 to 2 do A[i, i + 1] {x = A(0).w} ; A -> {v = u8(0)} ;",
       "rule 'S': attribute 'w' is not defined by every alternative of 'A'"},
      {"S -> {x = B.v} ;", "rule 'S': no sibling term named 'B' in scope"},
      {"S -> {x = 1} {x = 2} ;",
       "rule 'S': attribute 'x' defined twice in one alternative"},
      {"S -> B1[0, B2.a] B2[B1.b, EOI] ; B1 -> {b = u8(0)} ; "
       "B2 -> {a = u8(0)} ;",
       "rule 'S': circular attribute dependencies in an alternative"},
      {"S -> \"a\"[0, 1] D[1, 2] where { D -> {v = u8(0)} Q[0, 1] ; } ;",
       "rule 'D': unknown nonterminal 'Q'"},
      {"S -> {k = 1} D[0, 1] where { D -> {v = k + zz} ; } ;",
       "rule 'D': reference to undefined attribute 'zz'"},
      {"S -> D[0, EOI] where { D -> \"x\"[Zed.val, EOI] ; } ;",
       "rule 'D': no sibling term named 'Zed' in scope"},
      {"S -> {i = 0} for j = 0 to 2 do A[j, j + 1] {x = j} ; A -> \"a\" ;",
       "rule 'S': reference to undefined attribute 'j'"},
  };
  for (const Diag &D : Cases) {
    auto R = loadGrammar(D.Src);
    ASSERT_FALSE(R) << D.Src;
    EXPECT_EQ(R.message(), D.Message) << D.Src;
  }
}
