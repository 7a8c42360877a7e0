//===- tests/vm_test.cpp - lowered-IR invariants & bytecode VM tests ------===//
//
// Part of the IPG reproduction of "Interval Parsing Grammars for File Format
// Parsing" (PLDI 2023). MIT license.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Locks the invariants of the lowering layer (lower/LIR.h) that all
/// three engines rely on, directly on the lir::Module — operand
/// resolution for checked grammars, literal interning, the dense
/// name-table contract, exists-scan resolution, blackbox site
/// deduplication, memoization policy — plus the well-formedness of every
/// compiled expression program (forward-only jumps, in-bounds targets,
/// stack balance via lir::verify). The big-corpus equivalence of the
/// bytecode VM itself is differential_test.cpp's job; this file adds
/// targeted interpreter-vs-VM spot checks on the semantic corners the
/// expression bytecode compiles specially (short-circuit logic,
/// conditionals, exists-scans, guarded arithmetic).
///
//===----------------------------------------------------------------------===//

#include "lower/LIR.h"

#include "TreeCanonical.h"
#include "formats/FormatRegistry.h"
#include "grammar/Grammar.h"
#include "runtime/Engine.h"

#include <gtest/gtest.h>
#include <set>
#include <string>
#include <vector>

using namespace ipg;

namespace {

Grammar load(const char *Src) {
  auto R = loadGrammar(Src);
  EXPECT_TRUE(R) << R.message();
  if (!R)
    std::abort();
  return std::move(R->G);
}

bool isBranch(lir::XOp Op) {
  return Op == lir::XOp::BrFalse || Op == lir::XOp::BrTrue ||
         Op == lir::XOp::JmpZero || Op == lir::XOp::Jmp;
}

/// Structural well-formedness of one compiled program beyond what
/// lir::verify reports: every jump is strictly forward and lands inside
/// (or exactly at the end of) the program window.
void expectWellFormedJumps(const lir::Module &M, lir::ExprId Id) {
  const lir::ExprProgram &P = M.Exprs[Id];
  ASSERT_LE(P.Begin, P.End);
  ASSERT_LE(P.End, M.XCode.size());
  const uint32_t N = P.End - P.Begin;
  ASSERT_GT(N, 0u) << "empty expression program";
  EXPECT_GE(P.MaxStack, 1u) << "every program leaves one value";
  EXPECT_LE(P.MaxStack, N) << "stack high-water mark exceeds length";
  for (uint32_t I = 0; I < N; ++I) {
    const lir::XInstr &X = M.XCode[P.Begin + I];
    if (!isBranch(X.Op))
      continue;
    EXPECT_GT(X.A, I) << "backward or self jump at pc " << I;
    EXPECT_LE(X.A, N) << "jump past program end at pc " << I;
  }
}

/// Walks every expression the module references (intervals, term
/// operands, select arms, exists sub-programs) and checks its jumps.
void expectAllProgramsWellFormed(const lir::Module &M) {
  for (lir::ExprId Id = 0; Id < M.Exprs.size(); ++Id) {
    SCOPED_TRACE("expr " + std::to_string(Id));
    expectWellFormedJumps(M, Id);
  }
}

} // namespace

//===----------------------------------------------------------------------===//
// Every format grammar lowers to a module lir::verify accepts, with the
// name-table contract (start = 0, end = 1, densely deduplicated) intact.
//===----------------------------------------------------------------------===//

TEST(LirTest, AllFormatModulesVerify) {
  for (const formats::FormatInfo &FI : formats::allFormats()) {
    SCOPED_TRACE("format: " + FI.Name);
    auto Load = formats::loadFormatGrammar(FI.Name);
    ASSERT_TRUE(Load) << Load.message();
    const Grammar &G = Load->G;
    lir::Module M = lir::lower(G);

    EXPECT_EQ(lir::verify(M), "");
    EXPECT_NE(M.Start, InvalidRuleId);
    EXPECT_EQ(M.Rules.size(), G.numRules());

    // The ipg_rt::IdStart/IdEnd contract.
    ASSERT_GE(M.NameTable.size(), 2u);
    EXPECT_EQ(M.NameTable[0], G.symStart());
    EXPECT_EQ(M.NameTable[1], G.symEnd());
    // Dense and deduplicated, with a consistent reverse map.
    std::set<Symbol> Seen;
    for (uint32_t Id = 0; Id < M.NameTable.size(); ++Id) {
      EXPECT_TRUE(Seen.insert(M.NameTable[Id]).second)
          << "duplicate name-table entry " << Id;
      EXPECT_EQ(M.nameIdOf(M.NameTable[Id]), Id);
    }

    expectAllProgramsWellFormed(M);

    // Blackbox call sites are collected and deduplicated: zip's grammar
    // calls `inflate` from more than one place but owns exactly one site.
    if (FI.Name == "zip") {
      ASSERT_EQ(M.BbSites.size(), 1u);
      EXPECT_EQ(M.BbSites[0].NameStr, "inflate");
      EXPECT_EQ(M.NameTable[M.BbSites[0].NameId], M.BbSites[0].Name);
    } else {
      EXPECT_TRUE(M.BbSites.empty());
    }

    // The memoization policy: local (where-clause) rules never memoize.
    for (const lir::RuleL &R : M.Rules)
      if (R.IsLocal) {
        EXPECT_FALSE(R.Memoizable)
            << "local rule " << M.nameOf(R.Name) << " marked memoizable";
      }
  }
}

//===----------------------------------------------------------------------===//
// Operand resolution on a checked grammar: every lowered term carries
// resolved rule targets, completed intervals, interned literals, and
// resolved select-arm windows — engines never consult the source AST for
// any of these.
//===----------------------------------------------------------------------===//

namespace {

/// One grammar exercising seven of the eight term opcodes (CallBlackbox
/// is covered by the zip module above): rule calls, literal and raw
/// matches, attribute definitions, predicates, arrays, and a switch.
const char *AllTermsGrammar = R"(
  S -> "ab"[0, 2] H[2, 6] {k = u8(6)}
       switch(k = 1: P[7, 9]
            / k = 2: Q[7, 9])
       for i = 0 to H.n do A[9 + 2 * i, 9 + 2 * (i + 1)]
       check(H.n < 100)
       raw[9 + 2 * H.n, EOI] ;
  H -> {n = u32le(0)} ;
  P -> "ab"[0, 2] ;
  Q -> "cd"[0, 2] ;
  A -> {v = u16le(0)} ;
)";

const lir::TermL *findOp(const lir::Module &M, lir::TermOp Op) {
  for (const lir::RuleL &R : M.Rules)
    for (const lir::AltL &Alt : R.Alts)
      for (const lir::TermL &T : Alt.Exec)
        if (T.Op == Op)
          return &T;
  return nullptr;
}

} // namespace

// Every program records the source expression it was compiled from,
// which the interpreter's evaluator walks; verify() rejects a module that
// lost one.
TEST(LirTest, EveryProgramKeepsItsSourceExpression) {
  Grammar G = load(AllTermsGrammar);
  lir::Module M = lir::lower(G);
  ASSERT_FALSE(M.Exprs.empty());
  for (const lir::ExprProgram &P : M.Exprs)
    EXPECT_NE(P.Src, nullptr);
  M.Exprs.back().Src = nullptr;
  EXPECT_NE(lir::verify(M).find("no source expression"), std::string::npos);
}

TEST(LirTest, OperandsResolvedOnCheckedGrammar) {
  Grammar G = load(AllTermsGrammar);
  lir::Module M = lir::lower(G);
  EXPECT_EQ(lir::verify(M), "");
  expectAllProgramsWellFormed(M);

  const lir::TermL *Call = findOp(M, lir::TermOp::CallRule);
  ASSERT_NE(Call, nullptr);
  EXPECT_NE(Call->Rule, InvalidRuleId);
  EXPECT_NE(Call->Iv.Lo, lir::NoExpr);
  EXPECT_NE(Call->Iv.Hi, lir::NoExpr);

  const lir::TermL *Match = findOp(M, lir::TermOp::MatchBytes);
  ASSERT_NE(Match, nullptr);
  ASSERT_LT(Match->Lit, M.Lits.size());
  EXPECT_EQ(M.Lits[Match->Lit], "ab");

  const lir::TermL *Raw = findOp(M, lir::TermOp::MatchRaw);
  ASSERT_NE(Raw, nullptr);
  EXPECT_NE(Raw->Iv.Lo, lir::NoExpr);
  EXPECT_NE(Raw->Iv.Hi, lir::NoExpr);

  const lir::TermL *Set = findOp(M, lir::TermOp::SetAttr);
  ASSERT_NE(Set, nullptr);
  EXPECT_NE(Set->Sym, InvalidSymbol);
  EXPECT_NE(Set->E0, lir::NoExpr);

  const lir::TermL *Chk = findOp(M, lir::TermOp::Check);
  ASSERT_NE(Chk, nullptr);
  EXPECT_NE(Chk->E0, lir::NoExpr);

  const lir::TermL *Arr = findOp(M, lir::TermOp::ForArray);
  ASSERT_NE(Arr, nullptr);
  EXPECT_NE(Arr->Rule, InvalidRuleId);
  EXPECT_EQ(Arr->Sym, G.interner().intern("i"));
  EXPECT_EQ(Arr->Elem, G.interner().intern("A"));
  EXPECT_NE(Arr->E0, lir::NoExpr);
  EXPECT_NE(Arr->E1, lir::NoExpr);

  const lir::TermL *Sel = findOp(M, lir::TermOp::Select);
  ASSERT_NE(Sel, nullptr);
  ASSERT_LT(Sel->ArmsBegin, Sel->ArmsEnd);
  ASSERT_LE(Sel->ArmsEnd, M.Arms.size());
  EXPECT_EQ(Sel->ArmsEnd - Sel->ArmsBegin, 2u);
  for (uint32_t I = Sel->ArmsBegin; I != Sel->ArmsEnd; ++I) {
    const lir::ArmL &Arm = M.Arms[I];
    EXPECT_NE(Arm.Cond, lir::NoExpr); // no default arm in this grammar
    EXPECT_NE(Arm.Rule, InvalidRuleId);
    EXPECT_NE(Arm.Iv.Lo, lir::NoExpr);
    EXPECT_NE(Arm.Iv.Hi, lir::NoExpr);
  }
}

TEST(LirTest, LiteralsAreInterned) {
  // "ab" appears three times across two rules, "cd" once: two entries.
  Grammar G = load(R"(
    S -> "ab"[0, 2] "ab"[2, 4] T[4, EOI] ;
    T -> "ab"[0, 2] / "cd"[0, 2] ;
  )");
  lir::Module M = lir::lower(G);
  EXPECT_EQ(lir::verify(M), "");
  ASSERT_EQ(M.Lits.size(), 2u);
  EXPECT_EQ(M.Lits[0], "ab");
  EXPECT_EQ(M.Lits[1], "cd");
}

TEST(LirTest, ExistsScansAreResolved) {
  // Section 4.3's two-pass pattern: the exists compiles to an ExistsInfo
  // whose scanned array was identified statically.
  Grammar G = load(R"(
    S -> {n = u8(0)}
         for i = 0 to n do OH[1 + 3 * i, 1 + 3 * (i + 1)]
         for i = 0 to n do Obj[OH(i).ofs,
                               OH(i).ofs + (exists j . OH(j).link = i
                                              ? OH(j).len : 0 - 1)] ;
    OH -> {link = u8(0)} {len = u8(1)} {ofs = u8(2)} ;
    Obj -> "OB"[0, 2] ;
  )");
  lir::Module M = lir::lower(G);
  EXPECT_EQ(lir::verify(M), "");
  ASSERT_EQ(M.Exists.size(), 1u);
  const lir::ExistsInfo &E = M.Exists[0];
  EXPECT_EQ(E.LoopVar, G.interner().intern("j"));
  EXPECT_EQ(E.ArrayNT, G.interner().intern("OH"));
  EXPECT_NE(E.Cond, lir::NoExpr);
  EXPECT_NE(E.Then, lir::NoExpr);
  EXPECT_NE(E.Else, lir::NoExpr);
}

//===----------------------------------------------------------------------===//
// Interpreter-vs-VM spot checks on the corners the expression bytecode
// compiles specially. The format-corpus equivalence lives in
// differential_test.cpp; these stay small and targeted so a divergence
// points straight at one construct.
//===----------------------------------------------------------------------===//

namespace {

/// Parses \p In with both in-process engines and expects identical
/// verdicts; on acceptance, identical canonical trees and counters.
void expectVmAgrees(const char *Src, const std::vector<uint8_t> &In) {
  Grammar G = load(Src);
  auto IE = makeEngine(EngineKind::Interp, G);
  ASSERT_TRUE(IE) << IE.message();
  auto VE = makeEngine(EngineKind::Vm, G);
  ASSERT_TRUE(VE) << VE.message();
  auto RI = (*IE)->parse(ByteSpan::of(In));
  auto RV = (*VE)->parse(ByteSpan::of(In));
  ASSERT_EQ(static_cast<bool>(RI), static_cast<bool>(RV))
      << "verdicts diverge; interp: "
      << (RI ? "accept" : RI.message())
      << ", vm: " << (RV ? "accept" : RV.message());
  if (RI && RV) {
    EXPECT_EQ(testutil::renderCanonical(*RI, G),
              testutil::renderCanonical(*RV, G));
  } else {
    EXPECT_EQ(RI.message(), RV.message());
  }
  EXPECT_EQ((*IE)->stats().TermsExecuted, (*VE)->stats().TermsExecuted);
  EXPECT_EQ((*IE)->stats().NodesCreated, (*VE)->stats().NodesCreated);
}

std::vector<uint8_t> bytes(const char *S) {
  return std::vector<uint8_t>(S, S + std::string(S).size());
}

} // namespace

TEST(VmTest, ShortCircuitLogicAgrees) {
  // && and || compile to BrFalse/BrTrue forward jumps; the right-hand
  // sides contain partial reads that must NOT be evaluated when the
  // short-circuit takes the jump (u8(9) is out of bounds here).
  const char *Src = R"(
    S -> "x"[0, 1] {a = u8(0)}
         check(a = 120 || u8(9) = 1)
         check(a = 0 && u8(9) = 1 || 1) ;
  )";
  expectVmAgrees(Src, bytes("x"));
}

TEST(VmTest, ConditionalAndComparisonsAgree) {
  const char *Src = R"(
    S -> {a = u8(0)} {b = (a > 100 ? a - 100 : a + 100)}
         {c = (a = 120 ? 1 : 0)} {d = (a != 7 ? 2 : 3)}
         check(b = 20 && c = 1 && d = 2) "x"[0, 1] ;
  )";
  expectVmAgrees(Src, bytes("x"));
}

TEST(VmTest, GuardedArithmeticFailsIdentically) {
  // Division by zero is partiality: alternative 1 must fail cleanly and
  // alternative 2 accept, in both engines.
  const char *Src = R"(
    S -> "x"[0, 1] {z = u8(0) - 120} {v = 7 / z} check(v = v)
       / "x"[0, 1] {ok = 1} ;
  )";
  expectVmAgrees(Src, bytes("x"));
}

TEST(VmTest, ShiftRangeGuardAgrees) {
  // 1 << 62 is the last legal shift; << 63 must fail as partiality.
  const char *Src = R"(
    S -> "x"[0, 1] {a = 1 << 62} {b = a * 2 * 2} check(b = 0)
       / "x"[0, 1] {hi = 1 << 62} ;
  )";
  expectVmAgrees(Src, bytes("x"));
}

TEST(VmTest, ExistsScanAgrees) {
  Grammar G = load(R"(
    S -> {n = u8(0)}
         for i = 0 to n do OH[1 + 3 * i, 1 + 3 * (i + 1)]
         for i = 0 to n do Obj[OH(i).ofs,
                               OH(i).ofs + (exists j . OH(j).link = i
                                              ? OH(j).len : 0 - 1)] ;
    OH -> {link = u8(0)} {len = u8(1)} {ofs = u8(2)} ;
    Obj -> "OB"[0, 2] ;
  )");
  std::vector<uint8_t> In = {2, 1, 2, 7, 0, 2, 9,
                             'O', 'B', 'O', 'B'};
  auto IE = makeEngine(EngineKind::Interp, G);
  auto VE = makeEngine(EngineKind::Vm, G);
  ASSERT_TRUE(IE);
  ASSERT_TRUE(VE) << VE.message();
  auto RI = (*IE)->parse(ByteSpan::of(In));
  auto RV = (*VE)->parse(ByteSpan::of(In));
  ASSERT_TRUE(RI) << RI.message();
  ASSERT_TRUE(RV) << RV.message();
  EXPECT_EQ(testutil::renderCanonical(*RI, G),
            testutil::renderCanonical(*RV, G));

  // The else-edge: no header links to object 0 when the link bytes are
  // damaged; [ofs, ofs - 1) is an invalid interval, so both reject.
  std::vector<uint8_t> Bad = In;
  Bad[1] = 9;
  Bad[4] = 9;
  EXPECT_FALSE((*IE)->parse(ByteSpan::of(Bad)));
  EXPECT_FALSE((*VE)->parse(ByteSpan::of(Bad)));
}

TEST(VmTest, BtoiReadsAgree) {
  // ReadFixed (u8/u16le/u32le) and ReadRange (btoi over a computed
  // window) including the failure edge one byte past the input.
  const char *Src = R"(
    S -> {a = u8(0)} {b = u16le(1)} {c = u32le(3)}
         {w = btoi(0, 2)} {x = btoi(a - a, 1 + 1)}
         check(w = x) raw[7, EOI]
       / {oops = u8(100)} ;
  )";
  std::vector<uint8_t> In = {1, 2, 3, 4, 5, 6, 7, 8, 9};
  expectVmAgrees(Src, In);
}
