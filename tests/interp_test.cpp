//===- tests/interp_test.cpp - parsing semantics tests --------------------===//
//
// Part of the IPG reproduction of "Interval Parsing Grammars for File Format
// Parsing" (PLDI 2023). MIT license.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Exercises the big-step semantics on the paper's worked examples:
/// Figure 1 (intervals), Figure 2 (random access), Figure 3 (binary number
/// via shrinking left recursion), Figure 4 (the special end attribute),
/// Figure 6 (arrays + predicates + element refs), the a^n b^n c^n grammar
/// of Section 3.5, the backward parser and two-pass parser of Section 4.3,
/// and the full-language features of Section 3.4.
///
//===----------------------------------------------------------------------===//

#include "analysis/AttributeCheck.h"
#include "codegen/GenEngine.h"
#include "runtime/Engine.h"
#include "runtime/Interp.h"
#include "support/Casting.h"

#include <cstddef>
#include <cstdint>
#include <gtest/gtest.h>
#include <string>
#include <string_view>
#include <utility>
#include <vector>

using namespace ipg;

namespace {

/// Loads a grammar or aborts the test.
Grammar load(const char *Src) {
  auto R = loadGrammar(Src);
  EXPECT_TRUE(R) << R.message();
  if (!R)
    std::abort();
  return std::move(R->G);
}

Expected<TreePtr> parseStr(Interp &I, std::string_view Input) {
  return I.parse(ByteSpan::of(Input));
}

bool accepts(Grammar &G, std::string_view Input,
             const BlackboxRegistry *BB = nullptr) {
  Interp I(G, BB);
  auto R = I.parse(ByteSpan::of(Input));
  return static_cast<bool>(R);
}

int64_t attrOf(const TreePtr &T, Grammar &G, const char *Name) {
  const auto *N = cast<NodeTree>(T.get());
  auto V = N->attr(G.intern(Name));
  EXPECT_TRUE(V.has_value()) << "missing attribute " << Name;
  return V.value_or(-1);
}

} // namespace

//===----------------------------------------------------------------------===//
// Figure 1: the first example — intervals pin sub-parsers to slices.
//===----------------------------------------------------------------------===//

TEST(SemanticsFig1, AcceptsAaAnythingBb) {
  Grammar G = load(R"(
    S -> A[0, 2] B[EOI - 2, EOI] ;
    A -> "aa"[0, 2] ;
    B -> "bb"[0, 2] ;
  )");
  EXPECT_TRUE(accepts(G, "aabb"));
  EXPECT_TRUE(accepts(G, "aaXYZbb"));
  EXPECT_TRUE(accepts(G, "aa...............bb"));
  EXPECT_FALSE(accepts(G, "abbb"));
  EXPECT_FALSE(accepts(G, "aab"));  // interval [EOI-2,EOI] overlaps "ab"
  EXPECT_FALSE(accepts(G, "aa"));   // B would re-read "aa"
  EXPECT_FALSE(accepts(G, "a"));
  EXPECT_FALSE(accepts(G, ""));
}

//===----------------------------------------------------------------------===//
// Figure 2: random access — the header directs where Data is parsed.
//===----------------------------------------------------------------------===//

TEST(SemanticsFig2, RandomAccessViaHeaderOffsets) {
  Grammar G = load(R"(
    S -> H[0, 8] Data[H.offset, H.offset + H.length] ;
    H -> {offset = u32le(0)} {length = u32le(4)} ;
    Data -> "DATA"[0, 4] ;
  )");
  ByteWriter W;
  W.u32le(12); // offset: skip header + 4 bytes of junk
  W.u32le(4);  // length
  W.raw("????");
  W.raw("DATA");
  W.raw("trailing");
  Interp I(G);
  auto R = I.parse(ByteSpan::of(W.bytes()));
  ASSERT_TRUE(R) << R.message();

  // Wrong offset must fail.
  ByteWriter W2;
  W2.u32le(8);
  W2.u32le(4);
  W2.raw("????DATA");
  EXPECT_FALSE(Interp(G).parse(ByteSpan::of(W2.bytes())));
}

TEST(SemanticsFig2, OffsetPastEoiFails) {
  Grammar G = load(R"(
    S -> H[0, 8] Data[H.offset, H.offset + H.length] ;
    H -> {offset = u32le(0)} {length = u32le(4)} ;
    Data -> "DATA"[0, 4] ;
  )");
  ByteWriter W;
  W.u32le(100);
  W.u32le(4);
  W.raw("DATA");
  EXPECT_FALSE(Interp(G).parse(ByteSpan::of(W.bytes())));
}

//===----------------------------------------------------------------------===//
// Figure 3: binary number parser — left recursion with shrinking intervals.
//===----------------------------------------------------------------------===//

namespace {
const char *BinaryNumberGrammar = R"(
  Int -> Int[0, EOI - 1] Digit[EOI - 1, EOI] {val = 2 * Int.val + Digit.val}
       / Digit[0, 1] {val = Digit.val} ;
  Digit -> "0"[0, 1] {val = 0} / "1"[0, 1] {val = 1} ;
)";
}

TEST(SemanticsFig3, ComputesBinaryValue) {
  Grammar G = load(BinaryNumberGrammar);
  Interp I(G);
  auto R = parseStr(I, "101");
  ASSERT_TRUE(R) << R.message();
  EXPECT_EQ(attrOf(*R, G, "val"), 5);
}

TEST(SemanticsFig3, SingleDigit) {
  Grammar G = load(BinaryNumberGrammar);
  Interp I(G);
  auto R = parseStr(I, "1");
  ASSERT_TRUE(R) << R.message();
  EXPECT_EQ(attrOf(*R, G, "val"), 1);
}

TEST(SemanticsFig3, RejectsBadInput) {
  Grammar G = load(BinaryNumberGrammar);
  EXPECT_FALSE(accepts(G, ""));
  EXPECT_FALSE(accepts(G, "abc"));
  // Subtle but faithful to Figure 8: "102" is *accepted* — alternative 2
  // (Digit[0,1]) constrains only the slice [0,1), so any string starting
  // with a digit parses, with val = that digit. Exact coverage is the
  // caller's job (see ExactCoverageViaEndCheck).
  EXPECT_TRUE(accepts(G, "102"));
}

TEST(SemanticsFig3, ExactCoverageViaEndCheck) {
  // Wrapping Int with check(Int.end = EOI) enforces that the whole input
  // is a binary number.
  std::string Src = std::string(BinaryNumberGrammar) +
                    "start S ; S -> Int[0, EOI] check(Int.end = EOI) ;";
  Grammar G = load(Src.c_str());
  EXPECT_TRUE(accepts(G, "101"));
  EXPECT_FALSE(accepts(G, "102"));
  EXPECT_FALSE(accepts(G, "10x"));
}

TEST(SemanticsFig3, PropertySweepOverValues) {
  Grammar G = load(BinaryNumberGrammar);
  Interp I(G);
  for (int V = 0; V < 64; ++V) {
    std::string Bits;
    for (int B = 5; B >= 0; --B)
      Bits += ((V >> B) & 1) ? '1' : '0';
    auto R = parseStr(I, Bits);
    ASSERT_TRUE(R) << Bits << ": " << R.message();
    EXPECT_EQ(attrOf(*R, G, "val"), V) << Bits;
  }
}

//===----------------------------------------------------------------------===//
// Figure 4: the special end attribute — CFG-like sequencing.
//===----------------------------------------------------------------------===//

namespace {
const char *Fig4Grammar = R"(
  S -> "1"[0, 1] O[1, EOI] "stop"[O.end, EOI] ;
  O -> "0"[0, 1] O[1, EOI] / "0"[0, 1] ;
)";
}

TEST(SemanticsFig4, EndAttributeSequencing) {
  Grammar G = load(Fig4Grammar);
  EXPECT_TRUE(accepts(G, "10stop"));
  EXPECT_TRUE(accepts(G, "1000stop"));
  EXPECT_FALSE(accepts(G, "1stop"));    // O needs at least one 0
  EXPECT_FALSE(accepts(G, "100astop")); // junk between 0s and stop
  EXPECT_FALSE(accepts(G, "1000stoq"));
}

TEST(SemanticsFig4, EndValuesAreAdjustedToParentOffsets) {
  // The paper's walkthrough: on "1000stop", after O[1, EOI] parses,
  // O.end must be 4 (3 zeros starting at offset 1, shifted by l = 1).
  Grammar G = load(Fig4Grammar);
  Interp I(G);
  auto R = parseStr(I, "1000stop");
  ASSERT_TRUE(R) << R.message();
  const auto *S = cast<NodeTree>(R->get());
  const NodeTree *O = S->childNode(G.intern("O"));
  ASSERT_NE(O, nullptr);
  EXPECT_EQ(O->attr(G.intern("end")), 4);
  EXPECT_EQ(O->attr(G.intern("start")), 1);
  // S itself touched [0, 8).
  EXPECT_EQ(S->attr(G.intern("start")), 0);
  EXPECT_EQ(S->attr(G.intern("end")), 8);
}

//===----------------------------------------------------------------------===//
// Figure 6: arrays, element references, predicates.
//===----------------------------------------------------------------------===//

namespace {
const char *Fig6Grammar = R"(
  S -> H[0, 4] {size = 4}
       for i = 0 to H.num do A[4 + size * i, 4 + size * (i + 1)]
       {a0 = A(0).val}
       check(a0 > 0 && a0 < 10) ;
  H -> {num = u32le(0)} ;
  A -> {val = u32le(0)} ;
)";

std::vector<uint8_t> fig6Input(std::vector<uint32_t> Values) {
  ByteWriter W;
  W.u32le(Values.size());
  for (uint32_t V : Values)
    W.u32le(V);
  return W.take();
}
} // namespace

TEST(SemanticsFig6, ArrayAndPredicate) {
  Grammar G = load(Fig6Grammar);
  Interp I(G);
  auto Ok = I.parse(ByteSpan::of(fig6Input({5, 100, 200})));
  ASSERT_TRUE(Ok) << Ok.message();
  EXPECT_EQ(attrOf(*Ok, G, "a0"), 5);

  // Predicate a0 in (0, 10) fails for a0 = 10.
  EXPECT_FALSE(Interp(G).parse(ByteSpan::of(fig6Input({10, 1}))));
  // And for a0 = 0.
  EXPECT_FALSE(Interp(G).parse(ByteSpan::of(fig6Input({0}))));
}

TEST(SemanticsFig6, ElementCountMismatchFails) {
  Grammar G = load(Fig6Grammar);
  // Claims 3 elements but provides 2: the third element's interval runs
  // past EOI.
  ByteWriter W;
  W.u32le(3);
  W.u32le(5);
  W.u32le(6);
  EXPECT_FALSE(Interp(G).parse(ByteSpan::of(W.bytes())));
}

TEST(SemanticsArrays, EmptyArrayAcceptsAnything) {
  Grammar G = load(R"(
    S -> {n = u8(0)} for i = 1 to n do A[8 * i, 8 * (i + 1)] ;
    A -> "abcdefgh"[0, 8] ;
  )");
  // n = 0 => loop from 1 to 0 does not run; imposes no constraints.
  std::vector<uint8_t> In = {0, 'x', 'y', 'z'};
  EXPECT_TRUE(Interp(G).parse(ByteSpan::of(In)));
}

TEST(SemanticsArrays, ElementEnvironmentsAreIndependent) {
  Grammar G = load(R"(
    S -> {n = u8(0)} for i = 0 to n do A[1 + 2 * i, 1 + 2 * (i + 1)]
         {sum = A(0).v + A(1).v} ;
    A -> {v = u16le(0)} ;
  )");
  ByteWriter W;
  W.u8(2);
  W.u16le(300);
  W.u16le(77);
  Interp I(G);
  auto R = I.parse(ByteSpan::of(W.bytes()));
  ASSERT_TRUE(R) << R.message();
  EXPECT_EQ(attrOf(*R, G, "sum"), 377);
}

//===----------------------------------------------------------------------===//
// Section 3.5: a^n b^n c^n — beyond context-free.
//===----------------------------------------------------------------------===//

namespace {
const char *AnBnCnGrammar = R"(
  S -> check(EOI % 3 = 0) {n = EOI / 3} A[0, n] B[n, 2 * n] C[2 * n, 3 * n] ;
  A -> "a"[0, 1] A[1, EOI] / "a"[0, 1] ;
  B -> "b"[0, 1] B[1, EOI] / "b"[0, 1] ;
  C -> "c"[0, 1] C[1, EOI] / "c"[0, 1] ;
)";
}

TEST(SemanticsAnBnCn, AcceptsExactlyAnBnCn) {
  Grammar G = load(AnBnCnGrammar);
  EXPECT_TRUE(accepts(G, "abc"));
  EXPECT_TRUE(accepts(G, "aabbcc"));
  EXPECT_TRUE(accepts(G, "aaabbbccc"));
  EXPECT_FALSE(accepts(G, ""));
  EXPECT_FALSE(accepts(G, "aabcc"));
  EXPECT_FALSE(accepts(G, "abcabc"));
  EXPECT_FALSE(accepts(G, "aaabbbcc"));
  EXPECT_FALSE(accepts(G, "cba"));
}

class AnBnCnSweep : public ::testing::TestWithParam<int> {};

TEST_P(AnBnCnSweep, AcceptsNAndRejectsOffByOne) {
  Grammar G = load(AnBnCnGrammar);
  int N = GetParam();
  std::string Good = std::string(N, 'a') + std::string(N, 'b') +
                     std::string(N, 'c');
  EXPECT_TRUE(accepts(G, Good)) << N;
  // One extra 'b' breaks the length check or the slice contents.
  std::string Bad = std::string(N, 'a') + std::string(N + 1, 'b') +
                    std::string(N, 'c');
  EXPECT_FALSE(accepts(G, Bad)) << N;
}

INSTANTIATE_TEST_SUITE_P(Lengths, AnBnCnSweep,
                         ::testing::Values(1, 2, 3, 5, 8, 16, 33));

//===----------------------------------------------------------------------===//
// Section 4.3: backward parsing (bNum) and two-pass parsing.
//===----------------------------------------------------------------------===//

TEST(SemanticsBackward, BackwardDecimalNumber) {
  // The paper's bNum: scans a decimal number backward from the end.
  Grammar G = load(R"(
    bNum -> bNum[0, EOI - 1] Digit[EOI - 1, EOI]
            {v = bNum.v * 10 + Digit.v}
          / Digit[EOI - 1, EOI] {v = Digit.v} ;
    Digit -> "0"[0, 1] {v = 0} / "1"[0, 1] {v = 1} / "2"[0, 1] {v = 2}
           / "3"[0, 1] {v = 3} / "4"[0, 1] {v = 4} / "5"[0, 1] {v = 5}
           / "6"[0, 1] {v = 6} / "7"[0, 1] {v = 7} / "8"[0, 1] {v = 8}
           / "9"[0, 1] {v = 9} ;
  )");
  Interp I(G);
  auto R = parseStr(I, "1234");
  ASSERT_TRUE(R) << R.message();
  EXPECT_EQ(attrOf(*R, G, "v"), 1234);
}

TEST(SemanticsTwoPass, OverlappingIntervalsParseTwice) {
  // Section 4.3's two-pass pattern: object headers OH hold the length of
  // the object their link field points at; objects are parsed in a second
  // pass using an existential to find the matching header.
  //
  // Layout: {n:u8} then n object headers (link:u8, len:u8, ofs:u8), then
  // object payloads anywhere in the file.
  Grammar G = load(R"(
    S -> {n = u8(0)}
         for i = 0 to n do OH[1 + 3 * i, 1 + 3 * (i + 1)]
         for i = 0 to n do Obj[OH(i).ofs,
                               OH(i).ofs + (exists j . OH(j).link = i
                                              ? OH(j).len : 0 - 1)] ;
    OH -> {link = u8(0)} {len = u8(1)} {ofs = u8(2)} ;
    Obj -> "OB"[0, 2] ;
  )");
  // Two objects; header 0 links to object 1, header 1 links to object 0.
  ByteWriter W;
  W.u8(2);
  // OH(0): link=1, len=2, ofs=7   (object 0 lives at 7)
  W.u8(1);
  W.u8(2);
  W.u8(7);
  // OH(1): link=0, len=2, ofs=9   (object 1 lives at 9)
  W.u8(0);
  W.u8(2);
  W.u8(9);
  W.raw("OBOB");
  Interp I(G);
  auto R = I.parse(ByteSpan::of(W.bytes()));
  ASSERT_TRUE(R) << R.message();

  // Break one payload: second pass fails.
  ByteWriter W2;
  W2.u8(2);
  W2.u8(1);
  W2.u8(2);
  W2.u8(7);
  W2.u8(0);
  W2.u8(2);
  W2.u8(9);
  W2.raw("OBXX");
  EXPECT_FALSE(Interp(G).parse(ByteSpan::of(W2.bytes())));
}

//===----------------------------------------------------------------------===//
// Biased choice semantics.
//===----------------------------------------------------------------------===//

TEST(SemanticsBiasedChoice, FirstSuccessWins) {
  Grammar G = load(R"(
    S -> X[0, EOI] ;
    X -> "ab"[0, 2] {which = 1} / "ab"[0, 2] {which = 2} / "a"[0, 1] {which = 3} ;
  )");
  Interp I(G);
  auto R = parseStr(I, "ab");
  ASSERT_TRUE(R) << R.message();
  const auto *S = cast<NodeTree>(R->get());
  const NodeTree *X = S->childNode(G.intern("X"));
  ASSERT_NE(X, nullptr);
  EXPECT_EQ(X->attr(G.intern("which")), 1);
}

TEST(SemanticsBiasedChoice, FallsThroughOnFailure) {
  Grammar G = load(R"(
    S -> X[0, EOI] ;
    X -> "ab"[0, 2] {which = 1} / "a"[0, 1] {which = 3} ;
  )");
  Interp I(G);
  auto R = parseStr(I, "a");
  ASSERT_TRUE(R) << R.message();
  const NodeTree *X =
      cast<NodeTree>(R->get())->childNode(G.intern("X"));
  EXPECT_EQ(X->attr(G.intern("which")), 3);
}

TEST(SemanticsBiasedChoice, AttributeEffectsRollBackAcrossAlternatives) {
  // A failing alternative must not leak attribute bindings.
  Grammar G = load(R"(
    S -> {x = 1} "zz"[0, 2] / {y = 2} "a"[0, 1] ;
  )");
  Interp I(G);
  auto R = parseStr(I, "a");
  ASSERT_TRUE(R) << R.message();
  const auto *S = cast<NodeTree>(R->get());
  EXPECT_FALSE(S->attr(G.intern("x")).has_value());
  EXPECT_EQ(S->attr(G.intern("y")), 2);
}

//===----------------------------------------------------------------------===//
// Terminals: empty strings, prefix matching inside larger intervals.
//===----------------------------------------------------------------------===//

TEST(SemanticsTerminals, EmptyTerminalMatchesEmptyInterval) {
  Grammar G = load(R"(S -> ""[0, 0] "ab"[0, 2] ;)");
  EXPECT_TRUE(accepts(G, "ab"));
}

TEST(SemanticsTerminals, TerminalMatchesPrefixOfInterval) {
  // T-Ter requires r - l >= |s1| and matches at l; trailing slack is legal.
  Grammar G = load(R"(S -> "ab"[0, EOI] ;)");
  EXPECT_TRUE(accepts(G, "ab"));
  EXPECT_TRUE(accepts(G, "abXXX"));
  EXPECT_FALSE(accepts(G, "a"));
  EXPECT_FALSE(accepts(G, "Xab"));
}

TEST(SemanticsTerminals, IntervalBeyondEoiFails) {
  Grammar G = load(R"(S -> "a"[0, 2] ;)");
  EXPECT_FALSE(accepts(G, "a")); // interval [0,2] exceeds |s|=1
  EXPECT_TRUE(accepts(G, "ab"));
}

//===----------------------------------------------------------------------===//
// Switch terms (Section 3.4).
//===----------------------------------------------------------------------===//

namespace {
const char *EtherTypeGrammar = R"(
  S -> {ethertype = u16be(0)}
       switch(ethertype <= 1500: Payload[2, 2 + ethertype]
            / ethertype >= 1536: Typed[2, EOI]
            / Fail[1, 0]) ;
  Payload -> "" ;
  Typed -> "T"[0, 1] ;
  Fail -> "x"[0, 1] ;
)";
}

TEST(SemanticsSwitch, EtherTypeLengthOrType) {
  Grammar G = load(EtherTypeGrammar);
  // Length branch: 4 payload bytes.
  ByteWriter W;
  W.u16be(4);
  W.raw("....");
  EXPECT_TRUE(Interp(G).parse(ByteSpan::of(W.bytes())));
  // Type branch.
  ByteWriter W2;
  W2.u16be(0x0800);
  W2.raw("T...");
  EXPECT_TRUE(Interp(G).parse(ByteSpan::of(W2.bytes())));
  // Default branch has invalid interval [1, 0] -> always fails.
  ByteWriter W3;
  W3.u16be(1510);
  W3.raw("....");
  EXPECT_FALSE(Interp(G).parse(ByteSpan::of(W3.bytes())));
}

TEST(SemanticsSwitch, NoDefaultNoMatchFails) {
  Grammar G = load(R"(
    S -> {t = u8(0)} switch(t = 1: A[1, EOI]) ;
    A -> "a"[0, 1] ;
  )");
  std::vector<uint8_t> Yes = {1, 'a'};
  std::vector<uint8_t> No = {2, 'a'};
  EXPECT_TRUE(Interp(G).parse(ByteSpan::of(Yes)));
  EXPECT_FALSE(Interp(G).parse(ByteSpan::of(No)));
}

//===----------------------------------------------------------------------===//
// Local rules (where-clauses) and lexical visibility.
//===----------------------------------------------------------------------===//

TEST(SemanticsWhere, LocalRuleSeesEnclosingAttributes) {
  Grammar G = load(R"(
    S -> A[0, 1] D[1, EOI]
      where { D -> "x"[A.val, A.val + 1] ; } ;
    A -> {val = u8(0)} ;
  )");
  // A.val = 2: D (on slice [1, EOI)) must find 'x' at its offset 2.
  std::vector<uint8_t> In = {2, '.', '.', 'x', '.'};
  EXPECT_TRUE(Interp(G).parse(ByteSpan::of(In)));
  std::vector<uint8_t> Bad = {1, '.', '.', 'x', '.'};
  EXPECT_FALSE(Interp(G).parse(ByteSpan::of(Bad)));
}

TEST(SemanticsWhere, ElfStyleSectionDispatch) {
  // The ELF pattern of Figure 9: a local Sec rule dispatches on the type
  // field of the i-th section header, where i is the enclosing loop
  // variable.
  Grammar G = load(R"(
    S -> {n = u8(0)}
         for i = 0 to n do SH[1 + 3 * i, 1 + 3 * (i + 1)]
         for i = 0 to n do Sec[SH(i).ofs, SH(i).ofs + SH(i).sz]
      where { Sec -> switch(SH(i).type = 6: DynSec[0, EOI]
                          / OtherSec[0, EOI]) ; } ;
    SH -> {ofs = u8(0)} {sz = u8(1)} {type = u8(2)} ;
    DynSec -> "DD"[0, 2] ;
    OtherSec -> "" ;
  )");
  ByteWriter W;
  W.u8(2);
  // SH(0): ofs=7, sz=2, type=6 (dynamic)
  W.u8(7);
  W.u8(2);
  W.u8(6);
  // SH(1): ofs=9, sz=2, type=1 (other)
  W.u8(9);
  W.u8(2);
  W.u8(1);
  W.raw("DD");
  W.raw("..");
  EXPECT_TRUE(Interp(G).parse(ByteSpan::of(W.bytes())));

  // Flip the types: now section 0 must be "DD" but holds ".." -> reject.
  auto Bytes = W.take();
  Bytes[3] = 1; // SH(0).type
  Bytes[6] = 6; // SH(1).type
  EXPECT_FALSE(Interp(G).parse(ByteSpan::of(Bytes)));
}

TEST(SemanticsWhere, LocalRuleShadowsGlobal) {
  Grammar G = load(R"(
    S -> D[0, EOI] where { D -> "local"[0, 5] ; } ;
    D -> "global"[0, 6] ;
  )");
  EXPECT_TRUE(accepts(G, "local"));
  EXPECT_FALSE(accepts(G, "global"));
}

//===----------------------------------------------------------------------===//
// Blackbox parsers (Section 3.4).
//===----------------------------------------------------------------------===//

namespace {
BlackboxResult upperBlackbox(ByteSpan In) {
  BlackboxResult R;
  size_t I = 0;
  while (I < In.size() && In[I] >= 'A' && In[I] <= 'Z')
    ++I;
  if (I == 0)
    return BlackboxResult::failure();
  R.Ok = true;
  R.End = I;
  R.Value = static_cast<int64_t>(I);
  for (size_t K = 0; K < I; ++K)
    R.Output.push_back(static_cast<uint8_t>(In[K] - 'A' + 'a'));
  return R;
}
} // namespace

TEST(SemanticsBlackbox, ConsumesAndExposesValEnd) {
  Grammar G = load(R"(
    blackbox upper ;
    S -> upper[0, EOI] "!"[upper.end, EOI] check(upper.val = 3) ;
  )");
  BlackboxRegistry BB;
  BB.add("upper", upperBlackbox);
  EXPECT_TRUE(accepts(G, "ABC!", &BB));
  EXPECT_FALSE(accepts(G, "AB!", &BB));    // val = 2, predicate fails
  EXPECT_FALSE(accepts(G, "abc!", &BB));   // blackbox fails
  EXPECT_FALSE(accepts(G, "ABCD!", &BB));  // predicate fails (val = 4)
}

TEST(SemanticsBlackbox, OutputSurfacesAsLeaf) {
  Grammar G = load(R"(
    blackbox upper ;
    S -> upper[0, EOI] ;
  )");
  BlackboxRegistry BB;
  BB.add("upper", upperBlackbox);
  Interp I(G, &BB);
  auto R = parseStr(I, "XYZ");
  ASSERT_TRUE(R) << R.message();
  const NodeTree *U =
      cast<NodeTree>(R->get())->childNode(G.intern("upper"));
  ASSERT_NE(U, nullptr);
  ASSERT_EQ(U->children().size(), 1u);
  const auto *L = cast<LeafTree>(U->children()[0].get());
  EXPECT_EQ(L->bytes(), "xyz");
}

TEST(SemanticsBlackbox, UnregisteredBlackboxIsHardError) {
  Grammar G = load(R"(
    blackbox mystery ;
    S -> mystery[0, EOI] ;
  )");
  Interp I(G);
  auto R = parseStr(I, "x");
  ASSERT_FALSE(R);
  EXPECT_NE(R.message().find("not registered"), std::string::npos);
}

//===----------------------------------------------------------------------===//
// Memoization (Section 3.3) and nontermination guards.
//===----------------------------------------------------------------------===//

TEST(SemanticsMemo, SecondParseOfSameSliceHits) {
  Grammar G = load(R"(
    S -> A[0, EOI] A[0, EOI] ;
    A -> "x"[0, 1] A[1, EOI] / "x"[0, 1] ;
  )");
  Interp I(G);
  auto R = parseStr(I, "xxxx");
  ASSERT_TRUE(R) << R.message();
  EXPECT_GT(I.stats().MemoHits, 0u);

  EngineOptions NoMemo;
  NoMemo.UseMemo = false;
  Interp I2(G, nullptr, NoMemo);
  auto R2 = parseStr(I2, "xxxx");
  ASSERT_TRUE(R2) << R2.message();
  EXPECT_EQ(I2.stats().MemoHits, 0u);
  // Same acceptance and same attribute environment either way.
  EXPECT_EQ(cast<NodeTree>(R->get())->attr(G.intern("end")),
            cast<NodeTree>(R2->get())->attr(G.intern("end")));
}

TEST(SemanticsMemo, FailuresAreMemoizedToo) {
  Grammar G = load(R"(
    S -> A[0, EOI] "!"[0, 1] / A[0, EOI] "?"[0, 1] ;
    A -> "x"[0, 1] A[1, EOI] / "x"[0, 1] ;
  )");
  // Both alternatives parse A over the same slice; the second try must be
  // a memo hit even though the first alternative failed overall.
  Interp I(G);
  auto R = parseStr(I, "xxx");
  ASSERT_FALSE(R); // neither ! nor ? at offset 0
  EXPECT_GT(I.stats().MemoHits, 0u);
}

TEST(SemanticsNontermination, DepthGuardReportsHardError) {
  // Figure 11d: S -> ""[0,0] S[0,EOI] loops on the same interval.
  Grammar G = load(R"(S -> ""[0, 0] S[0, EOI] ;)");
  EngineOptions Opts;
  Opts.MaxDepth = 64;
  Interp I(G, nullptr, Opts);
  auto R = parseStr(I, "abc");
  ASSERT_FALSE(R);
  EXPECT_NE(R.message().find("depth"), std::string::npos);
}

// The depth limit is the one divergence guard, and every engine tier
// honors it: Figure 11's non-terminating grammars fail in the interpreter,
// the VM and (with a host compiler) a generated parser, at the same
// failure site.
TEST(SemanticsNontermination, SeekStyleLoopCaughtByGuards) {
  struct Case {
    const char *Tag;
    const char *Src;
    std::vector<uint8_t> Loop;
  };
  const Case Cases[] = {
      // Figure 11b: S -> num[0,1] S[num.val, EOI]; input byte 0 jumps
      // back to offset 0 forever.
      {"fig11b", R"(
         S -> num[0, 1] S[num.val, EOI] / "$"[0, 1] ;
         num -> {val = u8(0)} ;
       )",
       {0, 0, 0}},
      // Figure 11d: S -> ""[0,0] S[0,EOI] loops on the same interval.
      {"fig11d", R"(S -> ""[0, 0] S[0, EOI] ;)", {'a', 'b', 'c'}},
  };
  std::vector<EngineKind> Kinds = {EngineKind::Interp, EngineKind::Vm};
  if (GenModule::hostCompilerAvailable())
    Kinds.push_back(EngineKind::Generated);
  EngineOptions Opts;
  Opts.MaxDepth = 64;
  for (const Case &C : Cases) {
    SCOPED_TRACE(C.Tag);
    Grammar G = load(C.Src);
    uint32_t FailRule = ~0u;
    int64_t FailOffset = -1;
    for (EngineKind Kind : Kinds) {
      SCOPED_TRACE(engineKindName(Kind));
      auto E = makeEngine(Kind, G, nullptr, Opts);
      ASSERT_TRUE(E) << E.message();
      auto R = (*E)->parse(ByteSpan::of(C.Loop));
      ASSERT_FALSE(R);
      if (Kind != EngineKind::Generated) {
        EXPECT_NE(R.message().find("recursion depth limit exceeded"),
                  std::string::npos)
            << R.message();
      }
      const EngineStats &S = (*E)->stats();
      EXPECT_EQ(S.ParseVerdict, Verdict::Reject);
      ASSERT_NE(S.FailRule, ~0u);
      if (Kind == EngineKind::Interp) {
        FailRule = S.FailRule;
        FailOffset = S.FailOffset;
      }
      EXPECT_EQ(S.FailRule, FailRule);
      EXPECT_EQ(S.FailOffset, FailOffset);
    }
  }
  // A chain that advances terminates and accepts.
  Grammar G = load(Cases[0].Src);
  for (EngineKind Kind : Kinds) {
    SCOPED_TRACE(engineKindName(Kind));
    auto E = makeEngine(Kind, G, nullptr, Opts);
    ASSERT_TRUE(E) << E.message();
    std::vector<uint8_t> Chain = {1, '$'};
    auto R = (*E)->parse(ByteSpan::of(Chain));
    EXPECT_TRUE(R) << R.message();
  }
}

//===----------------------------------------------------------------------===//
// GIF-style chunk lists via recursion + implicit intervals.
//===----------------------------------------------------------------------===//

TEST(SemanticsChunks, BlockListParsesGreedily) {
  Grammar G = load(R"(
    GIF -> "GIF"[0, 3] Blocks[3, EOI] ";"[Blocks.end, EOI] ;
    Blocks -> Block Blocks / Block ;
    Block -> {len = u8(0)} raw[1, 1 + len] ;
  )");
  ByteWriter W;
  W.raw("GIF");
  W.u8(3);
  W.raw("abc");
  W.u8(1);
  W.raw("z");
  W.raw(";");
  EXPECT_TRUE(Interp(G).parse(ByteSpan::of(W.bytes())));

  // Truncated block payload: reject.
  ByteWriter W2;
  W2.raw("GIF");
  W2.u8(5);
  W2.raw("ab");
  W2.raw(";");
  EXPECT_FALSE(Interp(G).parse(ByteSpan::of(W2.bytes())));
}

//===----------------------------------------------------------------------===//
// Stats and tree structure sanity.
//===----------------------------------------------------------------------===//

TEST(SemanticsTree, TreeShapeMatchesGrammar) {
  Grammar G = load(R"(
    S -> H[0, 2] for i = 0 to 2 do B[2 + i, 3 + i] ;
    H -> "hh"[0, 2] ;
    B -> {v = u8(0)} ;
  )");
  Interp I(G);
  auto R = parseStr(I, "hhxy");
  ASSERT_TRUE(R) << R.message();
  const auto *S = cast<NodeTree>(R->get());
  ASSERT_EQ(S->children().size(), 2u);
  const NodeTree *H = S->childNode(G.intern("H"));
  ASSERT_NE(H, nullptr);
  ASSERT_EQ(H->children().size(), 1u);
  EXPECT_TRUE(isa<LeafTree>(H->children()[0].get()));
  const ArrayTree *Arr = S->childArray(G.intern("B"));
  ASSERT_NE(Arr, nullptr);
  EXPECT_EQ(Arr->size(), 2u);
  EXPECT_EQ(Arr->element(0)->attr(G.intern("v")), 'x');
  EXPECT_EQ(Arr->element(1)->attr(G.intern("v")), 'y');
  EXPECT_GT(treeSize(*R->get()), 4u);
  EXPECT_GT(I.stats().NodesCreated, 0u);
  EXPECT_GT(I.stats().TermsExecuted, 0u);
}

TEST(SemanticsTree, DebugPrintingDoesNotCrash) {
  Grammar G = load(R"(S -> "a"[0, 1] {x = 5} ;)");
  Interp I(G);
  auto R = parseStr(I, "a");
  ASSERT_TRUE(R) << R.message();
  std::string S = treeToString(*R->get(), G.interner());
  EXPECT_NE(S.find("Node S"), std::string::npos);
  EXPECT_NE(S.find("x=5"), std::string::npos);
}
