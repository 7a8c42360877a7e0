//===- tests/termination_test.cpp - Section 5 termination checking --------===//
//
// Part of the IPG reproduction of "Interval Parsing Grammars for File Format
// Parsing" (PLDI 2023). MIT license.
//
//===----------------------------------------------------------------------===//

#include "analysis/AttributeCheck.h"
#include "analysis/Termination.h"
#include "runtime/Interp.h"

#include <gtest/gtest.h>
#include <string>
#include <string_view>

using namespace ipg;

namespace {

TerminationReport report(const char *Src) {
  auto R = loadGrammar(Src);
  EXPECT_TRUE(R) << R.message();
  if (!R)
    std::abort();
  return checkTermination(R->G);
}

} // namespace

TEST(TerminationTest, StraightLineGrammarTerminates) {
  TerminationReport Rep = report(R"(
    S -> H[0, 8] Data[H.offset, EOI] ;
    H -> {offset = u32le(0)} ;
    Data -> raw ;
  )");
  EXPECT_TRUE(Rep.Terminates);
  EXPECT_EQ(Rep.NumCycles, 0u);
}

TEST(TerminationTest, BinaryNumberGrammarTerminates) {
  // Figure 3: the left recursion Int -> Int[0, EOI-1] shrinks its interval,
  // so the formula 0 = 0 /\ EOI - 1 = EOI is unsatisfiable.
  TerminationReport Rep = report(R"(
    Int -> Int[0, EOI - 1] Digit[EOI - 1, EOI] {val = 2 * Int.val + Digit.val}
         / Digit[0, 1] {val = Digit.val} ;
    Digit -> "0"[0, 1] {val = 0} / "1"[0, 1] {val = 1} ;
  )");
  EXPECT_TRUE(Rep.Terminates);
  EXPECT_EQ(Rep.NumCycles, 1u);
}

TEST(TerminationTest, MutualFullIntervalLoopRejected) {
  // Section 5's example: A -> B[0,EOI] / s[0,1]; B -> A[0,EOI] / s[0,1]
  // iterates between A and B on the same interval.
  TerminationReport Rep = report(R"(
    A -> B[0, EOI] / "s"[0, 1] ;
    B -> A[0, EOI] / "s"[0, 1] ;
  )");
  EXPECT_FALSE(Rep.Terminates);
  EXPECT_EQ(Rep.NumCycles, 1u);
  ASSERT_EQ(Rep.FailingCycles.size(), 1u);
  EXPECT_NE(Rep.FailingCycles[0].find("A"), std::string::npos);
  EXPECT_NE(Rep.FailingCycles[0].find("B"), std::string::npos);
}

TEST(TerminationTest, RepeatingEpsilonRejected) {
  // Figure 11d: S -> ""[0,0] S[0,EOI] keeps the interval [0, EOI].
  TerminationReport Rep = report(R"(S -> ""[0, 0] S[0, EOI] ;)");
  EXPECT_FALSE(Rep.Terminates);
}

TEST(TerminationTest, SeekStyleJumpRejected) {
  // Figure 11b: S -> num[0,1] S[num.val, EOI]; num.val can be 0, so the
  // formula num.val = 0 /\ EOI = EOI is satisfiable.
  TerminationReport Rep = report(R"(
    S -> num[0, 1] S[num.val, EOI] / "$"[0, 1] ;
    num -> {val = u8(0)} ;
  )");
  EXPECT_FALSE(Rep.Terminates);
}

TEST(TerminationTest, ChunkListPassesWithEndExtension) {
  // The GIF pattern: Blocks -> Block Blocks[Block.end, EOI] / Block.
  // Block surely consumes (it starts with a magic byte), so the extension
  // adds Block.end > 0 and the cycle formula becomes unsatisfiable.
  TerminationReport Rep = report(R"(
    Blocks -> Block Blocks / Block ;
    Block -> "!"[0, 1] {len = u8(1)} raw[2, 2 + len] ;
  )");
  EXPECT_TRUE(Rep.Terminates)
      << (Rep.FailingCycles.empty() ? "" : Rep.FailingCycles[0]);
  EXPECT_EQ(Rep.NumCycles, 1u);
}

TEST(TerminationTest, ChunkListWithoutConsumingBlockRejected) {
  // Same shape but Block may consume nothing -> Block.end can be 0 and the
  // extension does not apply.
  TerminationReport Rep = report(R"(
    Blocks -> Block Blocks / Block ;
    Block -> {len = u8(0)} raw[1, 1 + len] ;
  )");
  EXPECT_FALSE(Rep.Terminates);
}

TEST(TerminationTest, AnBnCnTerminates) {
  TerminationReport Rep = report(R"(
    S -> check(EOI % 3 = 0) {n = EOI / 3} A[0, n] B[n, 2 * n] C[2 * n, 3 * n] ;
    A -> "a"[0, 1] A[1, EOI] / "a"[0, 1] ;
    B -> "b"[0, 1] B[1, EOI] / "b"[0, 1] ;
    C -> "c"[0, 1] C[1, EOI] / "c"[0, 1] ;
  )");
  EXPECT_TRUE(Rep.Terminates);
  EXPECT_EQ(Rep.NumCycles, 3u);
}

TEST(TerminationTest, BackwardNumberTerminates) {
  // bNum -> bNum[0, EOI-1] ... shrinks from the right.
  TerminationReport Rep = report(R"(
    bNum -> bNum[0, EOI - 1] Digit[EOI - 1, EOI] {v = bNum.v * 10 + Digit.v}
          / Digit[EOI - 1, EOI] {v = Digit.v} ;
    Digit -> "0"[0, 1] {v = 0} / "1"[0, 1] {v = 1} ;
  )");
  EXPECT_TRUE(Rep.Terminates);
}

TEST(TerminationTest, OffsetJumpWithPositiveGuardStillRejected) {
  // The checker is conservative: it does not model predicates, so even a
  // guarded jump is flagged (documented conservatism).
  TerminationReport Rep = report(R"(
    S -> num[0, 1] check(num.val > 0) S[num.val, EOI] / "$"[0, 1] ;
    num -> {val = u8(0)} ;
  )");
  EXPECT_FALSE(Rep.Terminates);
}

TEST(TerminationTest, CheckerAgreesWithRuntimeOnDivergence) {
  // For the grammars flagged above, the runtime's depth guard indeed
  // fires; for the accepted ones, parsing completes. This ties Theorem 5.1
  // to observable behaviour.
  {
    auto R = loadGrammar(R"(S -> ""[0, 0] S[0, EOI] ;)");
    ASSERT_TRUE(R) << R.message();
    EXPECT_FALSE(checkTermination(R->G).Terminates);
    EngineOptions Opts;
    Opts.MaxDepth = 50;
    Interp I(R->G, nullptr, Opts);
    auto P = I.parse(ByteSpan::of(std::string_view("xyz")));
    ASSERT_FALSE(P);
    EXPECT_NE(P.message().find("depth"), std::string::npos);
  }
  {
    auto R = loadGrammar(R"(
      Int -> Int[0, EOI - 1] Digit[EOI - 1, EOI] {val = 2 * Int.val + Digit.val}
           / Digit[0, 1] {val = Digit.val} ;
      Digit -> "0"[0, 1] {val = 0} / "1"[0, 1] {val = 1} ;
    )");
    ASSERT_TRUE(R) << R.message();
    EXPECT_TRUE(checkTermination(R->G).Terminates);
    Interp I(R->G);
    EXPECT_TRUE(I.parse(ByteSpan::of(std::string_view("1100"))));
  }
}

TEST(TerminationTest, ArraysDoNotCreateFalseCycles) {
  TerminationReport Rep = report(R"(
    S -> {n = u8(0)} for i = 0 to n do Row[1 + 4 * i, 1 + 4 * (i + 1)] ;
    Row -> raw[0, 4] ;
  )");
  EXPECT_TRUE(Rep.Terminates);
  EXPECT_EQ(Rep.NumCycles, 0u);
}

TEST(TerminationTest, LocalRulesParticipateInGraph) {
  // A local rule that re-enters its parent on the full interval is a cycle.
  TerminationReport Rep = report(R"(
    S -> D[0, EOI] where { D -> S[0, EOI] ; }
       / "x"[0, 1] ;
  )");
  EXPECT_FALSE(Rep.Terminates);
}
