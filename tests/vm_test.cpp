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
#include "analysis/Completion.h"
#include "formats/FormatRegistry.h"
#include "frontend/Parser.h"
#include "grammar/Grammar.h"
#include "runtime/Engine.h"
#include "runtime/ParseTree.h"
#include "support/Casting.h"

#include <cstdint>
#include <gtest/gtest.h>
#include <map>
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

    // The ipg_rt::IdStart/IdEnd/IdVal contract: trees in every tier
    // compare against these symbols as constants.
    EXPECT_EQ(G.symStart(), ipg_rt::IdStart);
    EXPECT_EQ(G.symEnd(), ipg_rt::IdEnd);
    EXPECT_EQ(G.symVal(), ipg_rt::IdVal);

    expectAllProgramsWellFormed(M);

    // Blackbox call sites are collected and deduplicated: zip's grammar
    // calls `inflate` from more than one place but owns exactly one site.
    if (FI.Name == "zip") {
      ASSERT_EQ(M.BbSites.size(), 1u);
      EXPECT_EQ(M.BbSites[0].NameStr, "inflate");
      EXPECT_EQ(G.interner().name(M.BbSites[0].Name), "inflate");
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
// Load digests: the front end, completion and attribute checking produce
// the same grammar (symbols, printed rules, every alternative's ExecOrder)
// and lowering the same module, field for field, as the pinned digests
// record. A rewrite of any of those layers that changes what they build
// changes a digest.
//===----------------------------------------------------------------------===//

namespace {

/// FNV-1a over a canonical dump of the loaded grammar and its module.
/// AST pointers are dumped as what they point at, never as addresses.
class Digest {
public:
  template <typename... Ts> void add(const Ts &...Vs) {
    ((Text += std::to_string(Vs), Text += ' '), ...);
  }
  void str(std::string_view S) {
    Text += S;
    Text += '\n';
  }
  uint64_t value() const {
    uint64_t H = 1469598103934665603ull;
    for (unsigned char C : Text) {
      H ^= C;
      H *= 1099511628211ull;
    }
    return H;
  }

private:
  std::string Text;
};

void digestInterval(Digest &D, const lir::IntervalL &Iv) {
  D.add(Iv.Lo, Iv.Hi);
}

uint64_t loadDigest(const Grammar &G, const lir::Module &M) {
  Digest D;
  for (Symbol S = 0; S < G.interner().size(); ++S)
    D.str(G.interner().name(S));
  D.str(G.str());
  for (RuleId Id = 0; Id < G.numRules(); ++Id)
    for (const Alternative &Alt : G.rule(Id).Alts) {
      D.add(Id, Alt.Terms.size(), Alt.LocalRules.size());
      for (uint32_t I : Alt.ExecOrder)
        D.add(I);
      for (RuleId L : Alt.LocalRules)
        D.add(L);
      D.str("");
    }
  for (const lir::RuleL &R : M.Rules) {
    D.add(R.Name, R.IsLocal, R.Memoizable, static_cast<int>(R.Shape),
          R.Plan, R.Alts.size());
    if (R.Shape == ExecShape::Flattened) {
      D.add(R.Flatten.SelfAlt, R.Flatten.SelfTerm, R.Flatten.SelfExecPos);
      for (uint32_t T : R.Flatten.PrefixNTTerms)
        D.add(T);
    }
    for (const lir::AltL &A : R.Alts)
      for (const lir::TermL &T : A.Exec) {
        D.add(static_cast<int>(T.Op), T.TermIdx, T.Rule, T.E0, T.E1, T.Sym,
              T.Elem, T.Lit, T.ArmsBegin, T.ArmsEnd, T.Bb, T.Recoverable);
        digestInterval(D, T.Iv);
      }
    D.str("");
  }
  for (const std::string &L : M.Lits)
    D.str(L);
  for (const lir::ArmL &A : M.Arms) {
    D.add(A.Cond, A.Rule);
    digestInterval(D, A.Iv);
  }
  for (const lir::XInstr &X : M.XCode)
    D.add(static_cast<int>(X.Op), X.A, X.Sym, X.Attr, X.Imm);
  for (const lir::ExprProgram &P : M.Exprs) {
    D.add(P.Begin, P.End, P.MaxStack);
    D.str(P.Src->str(G.interner()));
  }
  for (const lir::ExistsInfo &X : M.Exists)
    D.add(X.LoopVar, X.ArrayNT, X.Cond, X.Then, X.Else);
  for (const lir::BbSite &B : M.BbSites) {
    D.add(B.Name);
    D.str(B.NameStr);
  }
  for (const lir::RecordPlan &P : M.Plans)
    D.add(P.Rule, P.StepBegin, P.StepEnd, P.NumAttrs, P.Static, P.EnvBegin,
          P.EnvEnd, P.MinEoi);
  for (const lir::RecordStep &S : M.PlanSteps)
    D.add(static_cast<int>(S.Op), S.TermIdx, S.LoE, S.HiE, S.Lo, S.Hi, S.Lit,
          S.Spec, S.Sym, S.Slot, S.FirstDef, S.Pos, static_cast<int>(S.Cmp),
          S.A.IsSlot, S.A.Slot, S.A.Imm, S.B.IsSlot, S.B.Slot, S.B.Imm,
          S.PosA, S.PosB);
  for (const lir::PlanSlot &S : M.PlanEnv)
    D.add(S.Key, S.Value);
  D.add(M.Start, M.AnyStep);
  return D.value();
}

} // namespace

TEST(LirTest, FormatLoadDigestsArePinned) {
  const std::map<std::string, uint64_t> Pinned = {
      {"zip", 0x13c1d3dc8ad2c8d9ull},     {"gif", 0x3c4322113758e62bull},
      {"pe", 0x91c3a2fbb4107756ull},      {"elf", 0xb296b6d7e9e0b24bull},
      {"pdf", 0xd4d4427abc975ef6ull},     {"ipv4udp", 0xafe3ddf6dc5eb9b4ull},
      {"dns", 0x2a6185c9844003afull},
  };
  ASSERT_EQ(formats::allFormats().size(), Pinned.size());
  for (const formats::FormatInfo &FI : formats::allFormats()) {
    auto Load = formats::loadFormatGrammar(FI.Name);
    ASSERT_TRUE(Load) << Load.message();
    uint64_t Got = loadDigest(Load->G, lir::lower(Load->G));
    EXPECT_EQ(Got, Pinned.at(FI.Name))
        << FI.Name << ": 0x" << std::hex << Got;
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

TEST(LirTest, VerifyRejectsCorruptRecordPlans) {
  // lir::verify re-derives every record plan from its rule; each
  // corruption below must be reported. ELF's H is static: "\x7fELF"
  // raw[60], three reads, check(sz = 64).
  auto Load = formats::loadFormatGrammar("elf");
  ASSERT_TRUE(Load) << Load.message();
  const lir::Module M = lir::lower(Load->G);
  ASSERT_EQ(lir::verify(M), "");
  const lir::RuleL &H =
      M.Rules[Load->G.findGlobal(Load->G.interner().lookup("H"))];
  ASSERT_NE(H.Plan, lir::NoPlan);
  const lir::RecordPlan &P = M.Plans[H.Plan];
  ASSERT_TRUE(P.Static);
  ASSERT_EQ(P.StepEnd - P.StepBegin, 6u);

  auto expectRejected = [&](const char *What, auto Corrupt) {
    lir::Module Bad = M;
    Corrupt(Bad, Bad.Plans[H.Plan]);
    EXPECT_NE(lir::verify(Bad), "") << What;
  };
  expectRejected("shifted folded window", [](lir::Module &B,
                                             lir::RecordPlan &Q) {
    B.PlanSteps[Q.StepBegin + 1].Hi += 1;
  });
  expectRejected("wrong minimum input", [](lir::Module &, lir::RecordPlan &Q) {
    Q.MinEoi -= 1;
  });
  expectRejected("wrong span", [](lir::Module &B, lir::RecordPlan &Q) {
    B.PlanEnv[Q.EnvEnd - 1].Value += 1; // H's end slot, the last one
  });
  expectRejected("swapped env layout", [](lir::Module &B,
                                          lir::RecordPlan &Q) {
    std::swap(B.PlanEnv[Q.EnvBegin], B.PlanEnv[Q.EnvBegin + 1]);
  });
  expectRejected("static-ness dropped", [](lir::Module &,
                                           lir::RecordPlan &Q) {
    Q.Static = false;
  });
  expectRejected("read into another slot", [](lir::Module &B,
                                              lir::RecordPlan &Q) {
    for (uint32_t I = Q.StepBegin; I < Q.StepEnd; ++I)
      if (B.PlanSteps[I].Op == lir::RecOp::Read) {
        B.PlanSteps[I].Slot += 1;
        return;
      }
  });
  expectRejected("check before definition", [](lir::Module &B,
                                               lir::RecordPlan &Q) {
    for (uint32_t I = Q.StepBegin; I < Q.StepEnd; ++I)
      if (B.PlanSteps[I].Op == lir::RecOp::Check)
        B.PlanSteps[I].A.Slot = 7;
  });
  expectRejected("plan on a multi-term mismatch", [](lir::Module &B,
                                                     lir::RecordPlan &Q) {
    std::swap(B.PlanSteps[Q.StepBegin], B.PlanSteps[Q.StepBegin + 1]);
  });
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

TEST(VmTest, WraparoundArithmeticAgrees) {
  // `+ - *` wrap in two's complement at the ends of the int64 range, in
  // the quick forms (attr +/- const, const * attr) and in the dispatch
  // loop alike; an overflow is a defined value, never partiality.
  const char *Src = R"(
    S -> "x"[0, 1] {mx = 9223372036854775807} {mn = 0 - mx - 1}
         {a = mx + 1} {b = mn - 1} {c = mx * 2} {d = 2 * mx}
         {e = mn * (0 - 1)} {f = mn + mn} {g = mn - mx} {h = 0 - mn}
         check(a = mn && b = mx && c = 0 - 2 && d = c)
         check(e = mn && f = 0 && g = 1 && h = mn) ;
  )";
  expectVmAgrees(Src, bytes("x"));
  Grammar G = load(Src);
  for (EngineKind K : {EngineKind::Interp, EngineKind::Vm}) {
    auto E = makeEngine(K, G);
    ASSERT_TRUE(E) << E.message();
    std::vector<uint8_t> In = bytes("x");
    auto R = (*E)->parse(ByteSpan::of(In));
    ASSERT_TRUE(R) << R.message();
    const auto *Root = dyn_cast<NodeTree>(R->get());
    ASSERT_NE(Root, nullptr);
    EXPECT_EQ(Root->attr(G.interner().lookup("a")), INT64_MIN);
    EXPECT_EQ(Root->attr(G.interner().lookup("b")), INT64_MAX);
    EXPECT_EQ(Root->attr(G.interner().lookup("d")), -2);
  }
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

//===----------------------------------------------------------------------===//
// Record fusion (lir::RecordPlan). The census locks WHICH rules the pass
// fuses per format and HOW MUCH of a real parse runs fused, so a grammar
// or lowering edit that silently stops fusing fails here; the parity
// tests drive the fused path and its per-term fallback through every
// failure shape and demand the interpreter's trees, verdicts,
// diagnostics and counters.
//===----------------------------------------------------------------------===//

namespace {

/// Names of the rules lowering attached a record plan to, sorted.
std::set<std::string> fusedRules(const lir::Module &M) {
  std::set<std::string> Out;
  for (const lir::RuleL &R : M.Rules)
    if (R.Plan != lir::NoPlan)
      Out.insert(std::string(M.nameOf(R.Name)));
  return Out;
}

/// Walks a parse tree and splits the terms its nodes executed into those
/// inside fused records and the rest. Only valid for trees whose rules
/// all have one alternative (each node then ran exactly that
/// alternative's terms).
void censusWalk(const lir::Module &M, const ParseTree &Root, size_t &Fused,
                size_t &Total) {
  std::vector<const ParseTree *> Work{&Root};
  while (!Work.empty()) {
    const ParseTree *T = Work.back();
    Work.pop_back();
    if (const auto *A = dyn_cast<ArrayTree>(T)) {
      for (TreeRef C : A->elements())
        Work.push_back(C.get());
      continue;
    }
    const auto *N = dyn_cast<NodeTree>(T);
    if (!N)
      continue;
    const lir::RuleL &R = M.Rules[N->rule()];
    EXPECT_EQ(R.Alts.size(), 1u) << M.nameOf(R.Name);
    Total += R.Alts[0].Exec.size();
    if (R.Plan != lir::NoPlan)
      Fused += R.Alts[0].Exec.size();
    for (TreeRef C : N->children())
      Work.push_back(C.get());
  }
}

} // namespace

TEST(RecordFusionTest, CensusLocksFusedRulesPerFormat) {
  // Every plan-bearing rule per format, and the static ones among them
  // (all windows folded to constants). OtherSec, OptHdr, Sec, Stored,
  // GCT, Opaque and Payload are `raw` over [0, EOI], a dynamic window.
  struct Census {
    std::set<std::string> Fused;
    std::set<std::string> Static;
  };
  const std::map<std::string, Census> Want = {
      {"elf", {{"H", "SH", "DynEnt", "Sym", "OtherSec"},
               {"H", "SH", "DynEnt", "Sym"}}},
      {"pe", {{"DOS", "COFF", "OptHdr", "SecHdr", "Sec"},
              {"DOS", "COFF", "SecHdr"}}},
      {"zip", {{"EOCD", "Stored", "Bad"}, {"EOCD", "Bad"}}},
      {"gif", {{"GCT", "Empty", "Trailer"}, {"Empty", "Trailer"}}},
      {"dns", {{"Hdr", "QFix", "End0"}, {"Hdr", "QFix", "End0"}}},
      {"ipv4udp", {{"Opaque", "Payload"}, {}}},
      {"pdf", {{}, {}}},
  };
  for (const formats::FormatInfo &FI : formats::allFormats()) {
    SCOPED_TRACE("format: " + FI.Name);
    auto Load = formats::loadFormatGrammar(FI.Name);
    ASSERT_TRUE(Load) << Load.message();
    lir::Module M = lir::lower(Load->G);
    ASSERT_EQ(lir::verify(M), "");
    std::set<std::string> Static;
    for (const lir::RuleL &R : M.Rules)
      if (R.Plan != lir::NoPlan && M.Plans[R.Plan].Static)
        Static.insert(std::string(M.nameOf(R.Name)));
    auto It = Want.find(FI.Name);
    ASSERT_NE(It, Want.end()) << "new format: add its census";
    EXPECT_EQ(fusedRules(M), It->second.Fused);
    EXPECT_EQ(Static, It->second.Static);
  }

  // The dynamic share: of the terms a VM parse of the sample executes,
  // how many run inside fused records. The walk must account for every
  // executed term (these grammars are single-alternative throughout and
  // the sample parses without backtracking).
  const std::map<std::string, double> MinShare = {{"elf", 0.9},
                                                  {"pe", 0.75}};
  for (const auto &[Fmt, Min] : MinShare) {
    SCOPED_TRACE("format: " + Fmt);
    auto Load = formats::loadFormatGrammar(Fmt);
    ASSERT_TRUE(Load) << Load.message();
    lir::Module M = lir::lower(Load->G);
    auto E = makeEngine(EngineKind::Vm, Load->G);
    ASSERT_TRUE(E) << E.message();
    std::vector<uint8_t> In = formats::sampleInput(Fmt);
    auto R = (*E)->parse(ByteSpan::of(In));
    ASSERT_TRUE(R) << R.message();
    size_t Fused = 0, Total = 0;
    censusWalk(M, *R->get(), Fused, Total);
    EXPECT_EQ(Total, (*E)->stats().TermsExecuted);
    ASSERT_GT(Total, 0u);
    EXPECT_GE(static_cast<double>(Fused) / static_cast<double>(Total), Min)
        << Fused << " of " << Total << " terms fused";
  }
}

namespace {

/// Node-by-node equality of two stores: same ids, same kinds, same
/// names, env sizes, child counts, shifts and leaf windows. Equal stores
/// mean the fused path created exactly the per-term loop's objects, in
/// its order.
void expectStoresEqual(const TreeStore &A, const TreeStore &B) {
  ASSERT_EQ(A.nodeCount(), B.nodeCount());
  for (uint32_t Id = 0; Id < A.nodeCount(); ++Id) {
    const ParseTree *X = A.node(Id), *Y = B.node(Id);
    ASSERT_EQ(X->kind(), Y->kind()) << "node " << Id;
    if (const auto *LX = dyn_cast<LeafTree>(X)) {
      const auto *LY = cast<LeafTree>(Y);
      EXPECT_EQ(LX->offset(), LY->offset()) << "leaf " << Id;
      EXPECT_EQ(LX->bytes(), LY->bytes()) << "leaf " << Id;
      EXPECT_EQ(LX->isOpaque(), LY->isOpaque()) << "leaf " << Id;
      EXPECT_EQ(LX->holeRule(), LY->holeRule()) << "leaf " << Id;
    } else if (const auto *NX = dyn_cast<NodeTree>(X)) {
      const auto *NY = cast<NodeTree>(Y);
      EXPECT_EQ(NX->name(), NY->name()) << "node " << Id;
      EXPECT_EQ(NX->shift(), NY->shift()) << "node " << Id;
      EXPECT_EQ(NX->children().size(), NY->children().size())
          << "node " << Id;
      const EnvView EX = NX->env(), EY = NY->env();
      ASSERT_EQ(EX.size(), EY.size()) << "node " << Id;
      for (uint32_t I = 0; I < EX.size(); ++I) { // slot ORDER matches too
        EXPECT_EQ(EX.slot(I).Key, EY.slot(I).Key) << "node " << Id;
        EXPECT_EQ(EX.slot(I).Value, EY.slot(I).Value) << "node " << Id;
      }
    } else {
      EXPECT_EQ(cast<ArrayTree>(X)->size(), cast<ArrayTree>(Y)->size());
    }
  }
}

/// Parses \p In with the interpreter (every term executed) and the VM
/// (records fused) under \p Policy and demands the same verdict, message,
/// tree, store and counters, including FailRule/FailOffset. \p MaxDepth,
/// when nonzero, overrides the engines' depth limit.
void expectFusedParity(const Grammar &G, const std::vector<uint8_t> &In,
                       RecoveryPolicy Policy, size_t MaxDepth = 0) {
  SCOPED_TRACE(Policy == RecoveryPolicy::Salvage ? "salvage" : "strict");
  EngineOptions O;
  O.Recovery = Policy;
  if (MaxDepth)
    O.MaxDepth = MaxDepth;
  auto IE = makeEngine(EngineKind::Interp, G, nullptr, O);
  auto VE = makeEngine(EngineKind::Vm, G, nullptr, O);
  ASSERT_TRUE(IE) << IE.message();
  ASSERT_TRUE(VE) << VE.message();
  auto RI = (*IE)->parse(ByteSpan::of(In));
  auto RV = (*VE)->parse(ByteSpan::of(In));
  ASSERT_EQ(static_cast<bool>(RI), static_cast<bool>(RV))
      << "interp: " << (RI ? "accept" : RI.message())
      << ", vm: " << (RV ? "accept" : RV.message());
  if (RI) {
    EXPECT_EQ(testutil::renderCanonical(*RI, G),
              testutil::renderCanonical(*RV, G));
    expectStoresEqual(*RI->store(), *RV->store());
  } else {
    EXPECT_EQ(RI.message(), RV.message());
  }
  const EngineStats &SI = (*IE)->stats(), &SV = (*VE)->stats();
  EXPECT_EQ(SI.TermsExecuted, SV.TermsExecuted);
  EXPECT_EQ(SI.NodesCreated, SV.NodesCreated);
  EXPECT_EQ(SI.MemoHits, SV.MemoHits);
  EXPECT_EQ(SI.MemoMisses, SV.MemoMisses);
  EXPECT_EQ(SI.PeakDepth, SV.PeakDepth);
  EXPECT_EQ(SI.ArenaBytesUsed, SV.ArenaBytesUsed);
  EXPECT_EQ(SI.HolesFilled, SV.HolesFilled);
  EXPECT_EQ(SI.HolesInTree, SV.HolesInTree);
  EXPECT_EQ(SI.ParseVerdict, SV.ParseVerdict);
  EXPECT_EQ(SI.FailRule, SV.FailRule);
  EXPECT_EQ(SI.FailOffset, SV.FailOffset);
}

void expectFusedParityBoth(const Grammar &G, const std::vector<uint8_t> &In) {
  expectFusedParity(G, In, RecoveryPolicy::Strict);
  expectFusedParity(G, In, RecoveryPolicy::Salvage);
}

/// Asserts lowering fused rule \p Name (static or dynamic as given), so a
/// parity test cannot pass by never reaching the fused path.
void expectPlan(const Grammar &G, const char *Name, bool Static) {
  lir::Module M = lir::lower(G);
  ASSERT_EQ(lir::verify(M), "");
  bool Found = false;
  for (const lir::RuleL &RL : M.Rules)
    if (M.nameOf(RL.Name) == Name) {
      ASSERT_NE(RL.Plan, lir::NoPlan) << Name << " is not fused";
      EXPECT_EQ(M.Plans[RL.Plan].Static, Static) << Name;
      Found = true;
    }
  EXPECT_TRUE(Found) << "no rule " << Name;
}

/// A static record: literal, raw, two fixed-offset reads, a check, and a
/// raw window at TermEnd of the previous one.
const char *RecordGrammar = R"(
  File -> Rec ;
  Rec -> "RC" raw[2] {len = u16le(2)} {kind = u8(4)} check(kind < 9)
         raw[3] ;
)";

} // namespace

TEST(RecordFusionTest, AcceptedRecordMatchesPerTerm) {
  Grammar G = load(RecordGrammar);
  expectPlan(G, "Rec", /*Static=*/true);
  expectFusedParityBoth(G, {'R', 'C', 0x10, 0x00, 3, 'x', 'y'});
  // Longer than the record: the tail stays outside its span.
  expectFusedParityBoth(G, {'R', 'C', 0x10, 0x00, 3, 'x', 'y', 'z', 'w'});
}

TEST(RecordFusionTest, LiteralMismatchFallsBack) {
  Grammar G = load(RecordGrammar);
  // Strict rejects at Rec; Salvage fences the literal with a hole.
  expectFusedParityBoth(G, {'R', 'X', 0x10, 0x00, 3, 'x', 'y'});
}

TEST(RecordFusionTest, FixedReadPastEoiFallsBack) {
  Grammar G = load(RecordGrammar);
  // u8(4) reads past a 4-byte input; Salvage fences the whole Rec.
  expectFusedParityBoth(G, {'R', 'C', 0x10, 0x00});
  // The reads fit but raw[3] runs past EOI.
  expectFusedParityBoth(G, {'R', 'C', 0x10, 0x00, 3, 'x'});
}

TEST(RecordFusionTest, FailingCheckFallsBack) {
  Grammar G = load(RecordGrammar);
  expectFusedParityBoth(G, {'R', 'C', 0x10, 0x00, 200, 'x', 'y'});
  // The comparison's boundary: kind = 9 fails `kind < 9`, 8 passes.
  expectFusedParityBoth(G, {'R', 'C', 0x10, 0x00, 9, 'x', 'y'});
  expectFusedParityBoth(G, {'R', 'C', 0x10, 0x00, 8, 'x', 'y'});
}

TEST(RecordFusionTest, ZeroWidthRawLeavesRecordUntouched) {
  // Z touches no byte, so it has no start/end; the parent's span sees
  // the untouched defaults, inline in the array too. (An all-untouched
  // array leaves no touch record, so the last window is explicit.)
  Grammar G = load(R"(
    File -> Z[0, EOI] for i = 0 to 3 do Z[i, i + 1] raw[1, EOI] ;
    Z -> raw[0] {v = u8(0)} ;
  )");
  expectPlan(G, "Z", /*Static=*/true);
  expectFusedParityBoth(G, {7, 8, 9, 10});
  expectFusedParityBoth(G, {7, 8}); // the array runs off the end
}

TEST(RecordFusionTest, RedefinedAttributeKeepsFirstSlot) {
  // checkAttributes rejects a second definition in one alternative, so
  // this grammar skips it (terms then run in source order). A
  // redefinition overwrites the first slot in place; a check between the
  // definitions sees the first value.
  auto Parsed = parseGrammarText(R"(
    D -> raw[4] {a = u8(0)} check(a = 1) {b = u8(2)} {a = u8(1)}
         check(a = 2) ;
  )");
  ASSERT_TRUE(Parsed) << Parsed.message();
  Grammar G = std::move(*Parsed);
  ASSERT_TRUE(completeIntervals(G));
  expectPlan(G, "D", /*Static=*/true);
  expectFusedParityBoth(G, {1, 2, 3, 4});
  expectFusedParityBoth(G, {1, 3, 3, 4});

  // The same in a dynamic plan (window to EOI): the node keeps the
  // second value in the first slot.
  auto Dyn = parseGrammarText("E -> raw {a = u8(0)} {b = u8(2)} {a = u8(1)} ;");
  ASSERT_TRUE(Dyn) << Dyn.message();
  Grammar GD = std::move(*Dyn);
  ASSERT_TRUE(completeIntervals(GD));
  expectPlan(GD, "E", /*Static=*/false);
  expectFusedParityBoth(GD, {1, 2, 3, 4});
}

TEST(RecordFusionTest, AttributeNamedStartIsNotFused) {
  // Defining start competes with updStartEnd's min/max: lowering leaves
  // the rule to the per-term loop, and the engines still agree.
  Grammar G = load(R"(
    File -> S ;
    S -> {start = u8(0)} raw[2] ;
  )");
  lir::Module M = lir::lower(G);
  for (const lir::RuleL &R : M.Rules)
    EXPECT_EQ(R.Plan, lir::NoPlan) << M.nameOf(R.Name);
  expectFusedParityBoth(G, {1, 2});
  expectFusedParityBoth(G, {0, 2});
}

TEST(RecordFusionTest, WhereClauseRecordReadsLexicalAttribute) {
  // Item's window width is the enclosing rule's attribute w: a dynamic
  // window evaluated through the lexical chain. Cell is a static local
  // record run inline from the array.
  Grammar G = load(R"(
    File -> {w = u8(0)} Item[1, EOI]
            for i = 0 to 2 do Cell[1 + 2 * i, 3 + 2 * i]
        where {
          Item -> raw[w] {b = u8(0)} ;
          Cell -> raw[2] {c = u8(1)} check(c > 0) ;
        } ;
  )");
  expectPlan(G, "Item", /*Static=*/false);
  expectPlan(G, "Cell", /*Static=*/true);
  expectFusedParityBoth(G, {3, 5, 6, 7, 8});
  expectFusedParityBoth(G, {9, 5, 6, 7, 8}); // w past the item's window
  expectFusedParityBoth(G, {3, 5, 0, 7, 8}); // first cell's check fails
}

TEST(RecordFusionTest, TermEndRelativeWindows) {
  // Static: "AB" then raw[2] at TermEnd(0). Dynamic: a raw window ending
  // at EOI - 2, then raw[2] at its TermEnd — evaluated at run time from
  // the record's touch records.
  Grammar G = load(R"(
    File -> T U ;
    T -> "AB" raw[2] "CD" {x = u8(4)} ;
    U -> raw[0, EOI - 2] raw[2] {y = u8(0)} ;
  )");
  expectPlan(G, "T", /*Static=*/true);
  expectPlan(G, "U", /*Static=*/false);
  expectFusedParityBoth(G, {'A', 'B', 1, 2, 'C', 'D', 5, 6, 7, 8});
  expectFusedParityBoth(G, {'A', 'B', 1, 2, 'C', 'X', 5, 6, 7, 8});
  expectFusedParityBoth(G, {'A', 'B', 1, 2, 'C', 'D', 5});
}

TEST(RecordFusionTest, ImpossibleConstantWindowsStayDynamic) {
  // Windows that fold but can never succeed — inverted, or a literal at
  // INT64_MAX whose TermEnd wraps — leave the plan dynamic; it fails at
  // run time and the per-term loop reports the failure.
  Grammar G = load(R"(
    File -> Inv[0, 4] / Far[0, 4] / raw[0, 4] ;
    Inv -> raw[3, 1] {a = u8(0)} ;
    Far -> "AB"[9223372036854775807, 9223372036854775807] raw[2] ;
  )");
  expectPlan(G, "Inv", /*Static=*/false);
  expectPlan(G, "Far", /*Static=*/false);
  expectFusedParityBoth(G, {1, 2, 3, 4});
}

TEST(RecordFusionTest, OutOfOrderWindowsTakeMinStartMaxEnd) {
  // A later window below an earlier one: start is the min, end the max,
  // in the env layout lowering derives (V, static) and in the one the
  // runner builds (W, dynamic: its first window ends at EOI).
  Grammar G = load(R"(
    File -> V[0, 6] W[6, EOI] ;
    V -> raw[4, 6] raw[0, 2] {a = u8(5)} ;
    W -> raw[2, EOI] raw[0, 1] {b = u8(0)} ;
  )");
  expectPlan(G, "V", /*Static=*/true);
  expectPlan(G, "W", /*Static=*/false);
  expectFusedParityBoth(G, {1, 2, 3, 4, 5, 6, 7, 8, 9, 10});
}

TEST(RecordFusionTest, RecordArrayMiddleElementFails) {
  // Three elements, the middle one damaged: a failing check (escalates
  // under both policies) and a literal mismatch (a hole under Salvage).
  Grammar G = load(R"(
    File -> {n = u8(0)} for i = 0 to n do E[1 + 4 * i, 5 + 4 * i] ;
    E -> "E" raw[1] {v = u8(1)} check(v < 100) raw[2] ;
  )");
  expectPlan(G, "E", /*Static=*/true);
  const std::vector<uint8_t> Good = {3,   'E', 1, 'a', 'b', 'E', 2,
                                     'c', 'd', 'E', 3, 'e', 'f'};
  expectFusedParityBoth(G, Good);
  std::vector<uint8_t> BadCheck = Good;
  BadCheck[6] = 200;
  expectFusedParityBoth(G, BadCheck);
  std::vector<uint8_t> BadLit = Good;
  BadLit[5] = 'X';
  expectFusedParityBoth(G, BadLit);
}

TEST(RecordFusionTest, RecordArrayElementAtDepthLimit) {
  // File runs at depth 1 and each element at depth 2: a limit of 1 must
  // stop the first element with the per-term loop's depth error, which
  // the inline element path leaves to parseRule.
  Grammar G = load(R"(
    File -> {n = u8(0)} for i = 0 to n do E[1 + 2 * i, 3 + 2 * i] ;
    E -> "E" {v = u8(1)} ;
  )");
  expectPlan(G, "E", /*Static=*/true);
  const std::vector<uint8_t> In = {2, 'E', 7, 'E', 9};
  for (size_t Limit : {1, 2}) {
    SCOPED_TRACE("MaxDepth " + std::to_string(Limit));
    expectFusedParity(G, In, RecoveryPolicy::Strict, Limit);
    expectFusedParity(G, In, RecoveryPolicy::Salvage, Limit);
  }
}
