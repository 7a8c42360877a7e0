//===- tests/recovery_test.cpp - salvage parsing & verdicts ---------------===//
//
// Part of the IPG reproduction of "Interval Parsing Grammars for File Format
// Parsing" (PLDI 2023). MIT license.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// RecoveryPolicy::Salvage end to end: interval-bounded error recovery
/// is the payoff of parsing WITH intervals — a failing subparse whose
/// byte range is already pinned down can be fenced into a `hole` leaf
/// covering exactly that range, and the rest of the file still parses.
/// This suite covers:
///
///  - the mechanism on a minimal grammar: a damaged field becomes one
///    hole with the failing rule's name and exact absolute interval,
///    the verdict turns Salvage, and the salvaged tree still reprints
///    the input byte-for-byte (the hole aliases the damaged bytes);
///  - the limit: a bound that DEPENDS on data lost to the damage does
///    not resolve, so the parse cleanly rejects — salvage never guesses;
///  - self-recursive lists fence by shape, not by execution tier: the
///    same list as a loop-flattened global rule and as a where-clause
///    rule on the step machine salvages to the same holes;
///  - the corrupt-at-offset sweep (tests/CorruptCorpus.h) over every
///    format corpus, in the interpreter AND the bytecode VM, demanding
///    identical verdicts, identical trees, well-formed hole records,
///    and byte-exact reprints of everything accepted;
///  - per-request deadlines: an expired deadline aborts with a clean
///    Verdict::Timeout — through Engine::setDeadline directly and
///    through ParseService::submit(Request, SubmitOptions);
///  - the documented limitation: generated parsers reject Salvage at
///    construction, in makeEngine and in ParseService::create.
///
//===----------------------------------------------------------------------===//

#include "analysis/AttributeCheck.h"
#include "formats/FormatRegistry.h"
#include "runtime/Engine.h"
#include "serialize/Printer.h"
#include "service/InputSource.h"
#include "service/ParseService.h"

#include "CorruptCorpus.h"
#include "TreeCanonical.h"

#include <chrono>
#include <gtest/gtest.h>
#include <string>
#include <vector>

using namespace ipg;

namespace {

Grammar load(const std::string &Src) {
  auto R = loadGrammar(Src);
  EXPECT_TRUE(R) << R.message();
  if (!R)
    std::abort();
  return std::move(R->G);
}

EngineOptions salvageOpts() {
  EngineOptions Opts;
  Opts.Recovery = RecoveryPolicy::Salvage;
  return Opts;
}

/// Both in-process engine kinds, so every mechanism test runs the
/// interpreter and the bytecode VM through the same assertions.
const EngineKind InProcessKinds[] = {EngineKind::Interp, EngineKind::Vm};

/// Asserts the basic well-formedness every salvaged tree must have:
/// HolesInTree matches a fresh count, every record names a rule and
/// covers a non-empty-or-better range inside the input, and the verdict
/// is Salvage exactly when holes exist.
void expectHolesWellFormed(const ParseTree &Root, const EngineStats &Stats,
                           size_t InputSize) {
  std::vector<HoleRecord> Holes;
  collectHoles(Root, Holes);
  EXPECT_EQ(Holes.size(), Stats.HolesInTree)
      << "stats().HolesInTree disagrees with a fresh collectHoles walk";
  EXPECT_EQ(Stats.ParseVerdict,
            Holes.empty() ? Verdict::Accept : Verdict::Salvage);
  for (const HoleRecord &H : Holes) {
    EXPECT_NE(H.Rule, InvalidSymbol) << "hole without a rule name";
    EXPECT_GE(H.Lo, 0);
    EXPECT_LE(H.Lo, H.Hi);
    EXPECT_LE(H.Hi, static_cast<int64_t>(InputSize))
        << "hole interval escapes the input";
  }
}

} // namespace

//===----------------------------------------------------------------------===//
// The mechanism, on a grammar small enough to reason about byte by byte.
//===----------------------------------------------------------------------===//

namespace {

/// Two fixed fields. Damage to B's bytes is fenced to exactly [4, 8).
const char *TwoFieldGrammar = R"(
  S -> A[0, 4] B[4, 8] ;
  A -> "aaaa"[0, 4] ;
  B -> "bbbb"[0, 4] ;
)";

} // namespace

TEST(RecoveryTest, SalvageFillsHoleOverResolvedInterval) {
  Grammar G = load(TwoFieldGrammar);
  const std::vector<uint8_t> Good = {'a', 'a', 'a', 'a', 'b', 'b', 'b', 'b'};
  std::vector<uint8_t> Bad = Good;
  Bad[5] = 'X'; // damage inside B

  for (EngineKind Kind : InProcessKinds) {
    SCOPED_TRACE(engineKindName(Kind));

    // Strict rejects the damage outright.
    auto Strict = makeEngine(Kind, G);
    ASSERT_TRUE(Strict) << Strict.message();
    EXPECT_FALSE((*Strict)->parse(ByteSpan::of(Bad)));
    EXPECT_EQ((*Strict)->stats().ParseVerdict, Verdict::Reject);

    auto E = makeEngine(Kind, G, nullptr, salvageOpts());
    ASSERT_TRUE(E) << E.message();

    // Pristine input under Salvage: plain Accept, zero holes.
    auto TGood = (*E)->parse(ByteSpan::of(Good));
    ASSERT_TRUE(TGood) << TGood.message();
    EXPECT_EQ((*E)->stats().ParseVerdict, Verdict::Accept);
    EXPECT_EQ((*E)->stats().HolesInTree, 0u);

    // Damaged input: ONE hole, named B, covering exactly [4, 8).
    auto TBad = (*E)->parse(ByteSpan::of(Bad));
    ASSERT_TRUE(TBad) << TBad.message();
    const EngineStats &Stats = (*E)->stats();
    EXPECT_EQ(Stats.ParseVerdict, Verdict::Salvage);
    ASSERT_EQ(Stats.HolesInTree, 1u);
    expectHolesWellFormed(**TBad, Stats, Bad.size());
    std::vector<HoleRecord> Holes;
    collectHoles(**TBad, Holes);
    ASSERT_EQ(Holes.size(), 1u);
    EXPECT_EQ(G.interner().name(Holes[0].Rule), "B");
    EXPECT_EQ(Holes[0].Lo, 4);
    EXPECT_EQ(Holes[0].Hi, 8);

    // The hole aliases the damaged bytes, so the salvaged tree reprints
    // the input byte-for-byte — under GapPolicy::Strict: A's leaf plus
    // the hole cover every byte.
    auto P = serialize::printTree(**TBad, G);
    ASSERT_TRUE(P) << P.message();
    EXPECT_EQ(P->Bytes, Bad) << "salvaged tree did not reprint byte-exact";
    EXPECT_EQ(P->GapBytes, 0u);
  }
}

namespace {

/// B's interval depends on a length byte validated INSIDE M. Damage
/// that trips M's check() turns M into a hole, M.val into nothing, and
/// B's bound into an unresolvable expression — salvage must then refuse
/// rather than guess where B ends. (The check matters: plain byte
/// damage inside M or B is fenced at TERM granularity — a hole over
/// just the failing terminal — and still salvages; only an undefined
/// attribute can destroy a bound.)
const char *DataDependentGrammar = R"(
  S -> M[0, 2] B[2, 2 + M.val] ;
  M -> raw[0, 2] {val = u8(0)} check(val < 100) ;
  B -> "b"[0, 1] raw ;
)";

} // namespace

TEST(RecoveryTest, DataDependentUnresolvedBoundsStillReject) {
  Grammar G = load(DataDependentGrammar);
  const std::vector<uint8_t> Good = {4, 0, 'b', 'x', 'y', 'z'};

  for (EngineKind Kind : InProcessKinds) {
    SCOPED_TRACE(engineKindName(Kind));
    auto E = makeEngine(Kind, G, nullptr, salvageOpts());
    ASSERT_TRUE(E) << E.message();

    ASSERT_TRUE((*E)->parse(ByteSpan::of(Good)));
    EXPECT_EQ((*E)->stats().ParseVerdict, Verdict::Accept);

    // Damage inside B: B's window [2, 2+4) resolved before the damage,
    // and the failing magic terminal is fenced at its own interval —
    // a one-byte hole owned by B.
    std::vector<uint8_t> BadB = Good;
    BadB[2] = 'X';
    auto T = (*E)->parse(ByteSpan::of(BadB));
    ASSERT_TRUE(T) << T.message();
    EXPECT_EQ((*E)->stats().ParseVerdict, Verdict::Salvage);
    std::vector<HoleRecord> Holes;
    collectHoles(**T, Holes);
    ASSERT_EQ(Holes.size(), 1u);
    EXPECT_EQ(G.interner().name(Holes[0].Rule), "B");
    EXPECT_EQ(Holes[0].Lo, 2);
    EXPECT_EQ(Holes[0].Hi, 3);

    // Damage that trips M's check(): M becomes a hole, so M.val is
    // undefined and B's interval no longer resolves — clean Reject,
    // with an ordinary (non-"internal:") diagnostic carrying a
    // location.
    std::vector<uint8_t> BadL = Good;
    BadL[0] = 200;
    auto R = (*E)->parse(ByteSpan::of(BadL));
    EXPECT_FALSE(R) << "salvage must not guess a data-dependent bound";
    EXPECT_EQ((*E)->stats().ParseVerdict, Verdict::Reject);
    EXPECT_EQ(R.message().rfind("internal:", 0), std::string::npos);
    EXPECT_NE((*E)->stats().FailRule, ~0u);
    EXPECT_GE((*E)->stats().FailOffset, 0);
  }
}

namespace {

/// A self-recursive list with an alternative AFTER its self alternative
/// (the terminator T), followed by a fixed trailer. While a list level is
/// inside its self alternative it has T left to try, so damage inside an
/// element is never fenced where it sits: each level fails over to T, and
/// only the list head — with no enclosing level left to backtrack into —
/// may fence T's failing terminal. The trailer's damage is fenced in
/// place.
const char *SelfListGrammar = R"(
  S -> L[0, EOI - 2] Z[EOI - 2, EOI] ;
  L -> E[0, 2] L[2, EOI] / T[0, EOI] ;
  E -> "ab"[0, 2] ;
  T -> "."[0, 1] raw[1, EOI] ;
  Z -> "zz"[0, 2] ;
)";

} // namespace

TEST(RecoveryTest, SalvageOnSelfRecursiveListFencesAtTheListHead) {
  Grammar G = load(SelfListGrammar);
  const std::string GoodText = "ababababab.zz";
  const std::vector<uint8_t> Good(GoodText.begin(), GoodText.end());
  std::vector<uint8_t> Bad = Good;
  Bad[6] = 'X';  // inside the fourth element, four list levels deep
  Bad[12] = 'Q'; // inside the trailer

  for (EngineKind Kind : InProcessKinds) {
    SCOPED_TRACE(engineKindName(Kind));
    auto Strict = makeEngine(Kind, G);
    ASSERT_TRUE(Strict) << Strict.message();
    EXPECT_FALSE((*Strict)->parse(ByteSpan::of(Bad)));

    auto E = makeEngine(Kind, G, nullptr, salvageOpts());
    ASSERT_TRUE(E) << E.message();
    auto TGood = (*E)->parse(ByteSpan::of(Good));
    ASSERT_TRUE(TGood) << TGood.message();
    EXPECT_EQ((*E)->stats().ParseVerdict, Verdict::Accept);
    // S, six L levels (five elements, then the terminator's), T.
    EXPECT_EQ((*E)->stats().PeakDepth, 8u);

    auto TBad = (*E)->parse(ByteSpan::of(Bad));
    ASSERT_TRUE(TBad) << TBad.message();
    const EngineStats &Stats = (*E)->stats();
    EXPECT_EQ(Stats.ParseVerdict, Verdict::Salvage);
    ASSERT_EQ(Stats.HolesInTree, 2u);
    expectHolesWellFormed(**TBad, Stats, Bad.size());
    std::vector<HoleRecord> Holes;
    collectHoles(**TBad, Holes);
    ASSERT_EQ(Holes.size(), 2u);
    // The list head's terminator, over its own "." window: levels 3
    // down to 1 ran T while an enclosing level still had T left to try,
    // so none of them could fence.
    EXPECT_EQ(G.interner().name(Holes[0].Rule), "T");
    EXPECT_EQ(Holes[0].Lo, 0);
    EXPECT_EQ(Holes[0].Hi, 1);
    EXPECT_EQ(G.interner().name(Holes[1].Rule), "Z");
    EXPECT_EQ(Holes[1].Lo, 11);
    EXPECT_EQ(Holes[1].Hi, 13);

    // Holes alias the damaged bytes and T's raw covers the rest of the
    // list, so the salvaged tree reprints the input with no gaps.
    auto P = serialize::printTree(**TBad, G);
    ASSERT_TRUE(P) << P.message();
    EXPECT_EQ(P->Bytes, Bad) << "salvaged tree did not reprint byte-exact";
    EXPECT_EQ(P->GapBytes, 0u);
  }
}

namespace {

/// One list whose self alternative is its LAST (pdf's `Scan` shape):
/// written as a global rule it is loop-flattened; written inside a where
/// clause it runs on the step machine. A last alternative that calls its
/// own rule never fences, in either form, so damage to an element's
/// inline terminal unwinds the whole list into one hole at its caller.
const char *TailListGlobal = R"(
  S -> L[0, EOI - 2] Z[EOI - 2, EOI] ;
  L -> "."[0, 1] / "ab"[0, 2] L[2, EOI] ;
  Z -> "zz"[0, 2] ;
)";
const char *TailListLocal = R"(
  S -> L[0, EOI - 2] Z[EOI - 2, EOI]
       where { L -> "."[0, 1] / "ab"[0, 2] L[2, EOI] ; } ;
  Z -> "zz"[0, 2] ;
)";

} // namespace

TEST(RecoveryTest, SalvageVerdictIsTheSameForGlobalAndLocalTailList) {
  Grammar Global = load(TailListGlobal);
  Grammar Local = load(TailListLocal);
  const std::string GoodText = "ababab.zz";
  std::vector<uint8_t> Bad(GoodText.begin(), GoodText.end());
  Bad[3] = 'X'; // inside the second element

  for (EngineKind Kind : InProcessKinds) {
    SCOPED_TRACE(engineKindName(Kind));
    auto EG = makeEngine(Kind, Global, nullptr, salvageOpts());
    ASSERT_TRUE(EG) << EG.message();
    auto EL = makeEngine(Kind, Local, nullptr, salvageOpts());
    ASSERT_TRUE(EL) << EL.message();

    auto TG = (*EG)->parse(ByteSpan::of(Bad));
    auto TL = (*EL)->parse(ByteSpan::of(Bad));
    ASSERT_TRUE(TG) << TG.message();
    ASSERT_TRUE(TL) << TL.message();
    EXPECT_EQ((*EG)->stats().ParseVerdict, Verdict::Salvage);
    EXPECT_EQ((*EL)->stats().ParseVerdict, Verdict::Salvage);

    // One hole, the whole list, in both forms.
    for (auto [G, T] : {std::pair<const Grammar *, const TreePtr *>{
                            &Global, &*TG},
                        {&Local, &*TL}}) {
      std::vector<HoleRecord> Holes;
      collectHoles(**T, Holes);
      ASSERT_EQ(Holes.size(), 1u);
      EXPECT_EQ(G->interner().name(Holes[0].Rule), "L");
      EXPECT_EQ(Holes[0].Lo, 0);
      EXPECT_EQ(Holes[0].Hi, 7);
      auto P = serialize::printTree(**T, *G);
      ASSERT_TRUE(P) << P.message();
      EXPECT_EQ(P->Bytes, Bad) << "salvaged tree did not reprint byte-exact";
      EXPECT_EQ(P->GapBytes, 0u);
    }
  }
}

//===----------------------------------------------------------------------===//
// Every format corpus under the shared damage grid: interpreter and VM
// must agree verdict-for-verdict (and tree-for-tree), holes must be
// well-formed, and no probe may produce an "internal:" failure.
//===----------------------------------------------------------------------===//

TEST(RecoveryTest, CorruptSweepVerdictParityInterpVsVm) {
  constexpr size_t ProbesPerFormat = 8;

  size_t Checked = 0;
  size_t Salvaged = 0;
  for (const formats::FormatInfo &FI : formats::allFormats()) {
    SCOPED_TRACE("format: " + FI.Name);
    auto IE =
        formats::makeFormatEngine(FI.Name, EngineKind::Interp, salvageOpts());
    ASSERT_TRUE(IE) << IE.message();
    auto VE =
        formats::makeFormatEngine(FI.Name, EngineKind::Vm, salvageOpts());
    ASSERT_TRUE(VE) << VE.message();

    const std::vector<uint8_t> Bytes = formats::sampleInput(FI.Name, 1);
    ASSERT_GE(Bytes.size(), ProbesPerFormat);

    for (const testutil::CorruptProbe &P :
         testutil::corruptProbes(Bytes.size(), ProbesPerFormat)) {
      SCOPED_TRACE(std::string(testutil::corruptKindName(P.Kind)) + " @" +
                   std::to_string(P.Off));
      std::vector<uint8_t> Bad = testutil::corruptAt(Bytes, P.Kind, P.Off);

      auto RI = (*IE)->parse(ByteSpan::of(Bad));
      auto RV = (*VE)->parse(ByteSpan::of(Bad));
      const EngineStats &SI = (*IE)->stats();
      const EngineStats &SV = (*VE)->stats();

      ASSERT_EQ(static_cast<bool>(RI), static_cast<bool>(RV))
          << "interpreter/VM salvage verdicts diverge";
      EXPECT_EQ(SI.ParseVerdict, SV.ParseVerdict)
          << verdictName(SI.ParseVerdict) << " vs "
          << verdictName(SV.ParseVerdict);
      EXPECT_EQ(SI.HolesInTree, SV.HolesInTree);

      if (RI && RV) {
        EXPECT_TRUE(testutil::treesEqual(RI->get(), IE->Load->G, RV->get(),
                                         VE->Load->G))
            << "salvaged trees differ between engines";
        expectHolesWellFormed(**RI, SI, Bad.size());
        if (SI.ParseVerdict == Verdict::Salvage)
          ++Salvaged;
      } else {
        // Rejects must be ordinary diagnostics, never engine breakage,
        // and both engines must blame the same rule (compared by NAME:
        // separately loaded grammars intern in their own order).
        EXPECT_EQ(RI.message(), RV.message());
        EXPECT_EQ(RI.message().rfind("internal:", 0), std::string::npos)
            << "salvage sweep tripped an internal error: " << RI.message();
        ASSERT_EQ(SI.FailRule == ~0u, SV.FailRule == ~0u);
        if (SI.FailRule != ~0u) {
          EXPECT_EQ(IE->Load->G.interner().name(SI.FailRule),
                    VE->Load->G.interner().name(SV.FailRule));
        }
        EXPECT_EQ(SI.FailOffset, SV.FailOffset);
      }
      ++Checked;
    }
  }
  EXPECT_EQ(Checked, 3 * ProbesPerFormat * formats::allFormats().size());
  EXPECT_GT(Salvaged, 0u)
      << "the sweep never produced a Salvage verdict — recovery is inert";
}

//===----------------------------------------------------------------------===//
// Reprint exactness across the sweep: whatever Salvage accepts — plain
// Accept or hole-fenced Salvage — must reprint to the damaged input
// byte-for-byte. Printing follows roundtrip_test's policy: background
// fill from the (damaged) input for formats that are not print-exact
// under GapPolicy::Strict; the zip corpus may additionally canonicalize
// through the blackbox inverse exactly as fuzz_roundtrip allows.
//===----------------------------------------------------------------------===//

TEST(RecoveryTest, SalvagedTreesReprintByteExact) {
  constexpr size_t ProbesPerFormat = 8;

  size_t Reprinted = 0;
  for (const formats::FormatInfo &FI : formats::allFormats()) {
    SCOPED_TRACE("format: " + FI.Name);
    auto FE =
        formats::makeFormatEngine(FI.Name, EngineKind::Interp, salvageOpts());
    ASSERT_TRUE(FE) << FE.message();
    BlackboxRegistry BB = formats::standardBlackboxes();

    const std::vector<uint8_t> Bytes = formats::sampleInput(FI.Name, 1);
    ASSERT_GE(Bytes.size(), ProbesPerFormat);

    for (const testutil::CorruptProbe &P :
         testutil::corruptProbes(Bytes.size(), ProbesPerFormat)) {
      SCOPED_TRACE(std::string(testutil::corruptKindName(P.Kind)) + " @" +
                   std::to_string(P.Off));
      std::vector<uint8_t> Bad = testutil::corruptAt(Bytes, P.Kind, P.Off);

      auto R = (*FE)->parse(ByteSpan::of(Bad));
      if (!R)
        continue; // rejects are the sweep-parity test's business

      serialize::PrintOptions Opts;
      Opts.Gaps = serialize::GapPolicy::FillFromBackground;
      Opts.Background = ByteSpan::of(Bad);
      auto Pr = serialize::printTree(**R, FE->Load->G, &BB, Opts);
      if (FI.NeedsBlackbox && !Pr &&
          Pr.message().find("blackbox inverse") != std::string::npos)
        continue; // mutant decoded but cannot re-encode: canonicalization
      ASSERT_TRUE(Pr) << Pr.message();
      if (Pr->Bytes != Bad && FI.NeedsBlackbox) {
        // Same canonicalization escape fuzz_roundtrip grants: the print
        // must then at least be its own fixpoint.
        auto R2 = (*FE)->parse(ByteSpan::of(Pr->Bytes));
        ASSERT_TRUE(R2) << "canonicalized print no longer parses";
        serialize::PrintOptions O2;
        O2.Gaps = serialize::GapPolicy::FillFromBackground;
        O2.Background = ByteSpan::of(Pr->Bytes);
        auto P2 = serialize::printTree(**R2, FE->Load->G, &BB, O2);
        ASSERT_TRUE(P2) << P2.message();
        EXPECT_EQ(P2->Bytes, Pr->Bytes);
        continue;
      }
      EXPECT_EQ(Pr->Bytes, Bad)
          << verdictName((*FE)->stats().ParseVerdict)
          << " tree did not reprint the damaged input byte-exact";
      ++Reprinted;
    }
  }
  EXPECT_GT(Reprinted, 0u) << "the sweep never accepted anything to reprint";
}

//===----------------------------------------------------------------------===//
// Deadlines: Verdict::Timeout through the Engine interface and through
// ParseService's per-request SubmitOptions.
//===----------------------------------------------------------------------===//

namespace {

/// Linear self-recursion: one rule entry per leading 'a', so a parse of
/// N 'a's passes N amortized deadline checkpoints — thousands of them,
/// far past the 256-tick check stride.
const char *SlowGrammar = R"(
  S -> T[0, EOI] / raw[0, EOI] ;
  T -> "a"[0, 1] T[1, EOI] / "a"[0, 1] ;
)";

} // namespace

TEST(RecoveryTest, ExpiredDeadlineAbortsWithTimeoutVerdict) {
  Grammar G = load(SlowGrammar);
  const std::vector<uint8_t> In(6000, 'a');

  for (EngineKind Kind : InProcessKinds) {
    SCOPED_TRACE(engineKindName(Kind));
    auto E = makeEngine(Kind, G);
    ASSERT_TRUE(E) << E.message();

    ASSERT_TRUE((*E)->setDeadline(std::chrono::steady_clock::now() -
                                  std::chrono::seconds(1)));
    auto R = (*E)->parse(ByteSpan::of(In));
    ASSERT_FALSE(R) << "a parse past its deadline must abort";
    EXPECT_EQ((*E)->stats().ParseVerdict, Verdict::Timeout);
    EXPECT_TRUE((*E)->stats().TimedOut);
    EXPECT_NE(R.message().find("deadline exceeded"), std::string::npos)
        << R.message();
    EXPECT_NE((*E)->stats().FailRule, ~0u)
        << "the timeout diagnostic must name the rule it interrupted";

    // A generous deadline does not perturb the parse; clearing it
    // removes the checks entirely.
    ASSERT_TRUE((*E)->setDeadline(std::chrono::steady_clock::now() +
                                  std::chrono::hours(1)));
    ASSERT_TRUE((*E)->parse(ByteSpan::of(In)));
    EXPECT_EQ((*E)->stats().ParseVerdict, Verdict::Accept);
    (*E)->clearDeadline();
    ASSERT_TRUE((*E)->parse(ByteSpan::of(In)));
    EXPECT_FALSE((*E)->stats().TimedOut);
  }
}

TEST(RecoveryTest, ParseServiceHonorsPerRequestDeadline) {
  // PDF at scale 16 walks hundreds of thousands of virtual recursion
  // levels — every one an amortized deadline checkpoint.
  ParseServiceOptions Opts;
  Opts.Workers = 1;
  Opts.Engine.MaxDepth = size_t{1} << 21;
  auto Svc = ParseService::create({"pdf"}, Opts);
  ASSERT_TRUE(Svc) << Svc.message();
  std::vector<uint8_t> In = formats::sampleInput("pdf", 16);

  SubmitOptions Expired;
  Expired.Deadline = std::chrono::steady_clock::now() - std::chrono::minutes(1);
  ParseResult Late =
      (*Svc)->submit(ParseRequest{"pdf", InputSource::fromBytes(In)}, Expired)
          .get();
  EXPECT_FALSE(Late.ok());
  EXPECT_EQ(Late.verdict(), Verdict::Timeout);
  EXPECT_NE(Late.error().find("deadline exceeded"), std::string::npos)
      << Late.error();

  // The deadline is per-request: the same worker engine immediately
  // serves an undeadlined request to completion.
  ParseResult Ok =
      (*Svc)->submit(ParseRequest{"pdf", InputSource::fromBytes(In)}).get();
  ASSERT_TRUE(Ok.ok()) << Ok.error();
  EXPECT_EQ(Ok.verdict(), Verdict::Accept);
}

TEST(RecoveryTest, ParseServiceSurfacesSalvageVerdicts) {
  ParseServiceOptions Opts;
  Opts.Workers = 2;
  Opts.Mode = EngineKind::Vm;
  Opts.Engine.Recovery = RecoveryPolicy::Salvage;
  auto Svc = ParseService::create({"gif"}, Opts);
  ASSERT_TRUE(Svc) << Svc.message();

  // Reference verdicts from a direct engine with the same options.
  auto Ref = formats::makeFormatEngine("gif", EngineKind::Vm, salvageOpts());
  ASSERT_TRUE(Ref) << Ref.message();

  const std::vector<uint8_t> Bytes = formats::sampleInput("gif", 1);
  for (const testutil::CorruptProbe &P :
       testutil::corruptProbes(Bytes.size(), 8)) {
    SCOPED_TRACE(std::string(testutil::corruptKindName(P.Kind)) + " @" +
                 std::to_string(P.Off));
    std::vector<uint8_t> Bad = testutil::corruptAt(Bytes, P.Kind, P.Off);
    auto Direct = (*Ref)->parse(ByteSpan::of(Bad));
    Verdict Want = (*Ref)->stats().ParseVerdict;
    (void)Direct;

    ParseResult R =
        (*Svc)->submit(ParseRequest{"gif", InputSource::fromBytes(Bad)}).get();
    EXPECT_EQ(R.verdict(), Want)
        << "service verdict diverges from a direct engine's";
    EXPECT_EQ(R.ok(), Want == Verdict::Accept || Want == Verdict::Salvage);
  }
}

//===----------------------------------------------------------------------===//
// The documented limitation: generated parsers are Strict-only, rejected
// up front with an actionable message (no host compiler required — the
// refusal comes before any compile).
//===----------------------------------------------------------------------===//

TEST(RecoveryTest, GeneratedEngineRejectsSalvageUpFront) {
  Grammar G = load(TwoFieldGrammar);
  auto E = makeEngine(EngineKind::Generated, G, nullptr, salvageOpts());
  ASSERT_FALSE(E);
  EXPECT_NE(E.message().find("Salvage"), std::string::npos) << E.message();

  ParseServiceOptions Opts;
  Opts.Mode = EngineKind::Generated;
  Opts.Engine.Recovery = RecoveryPolicy::Salvage;
  auto Svc = ParseService::create({"gif"}, Opts);
  ASSERT_FALSE(Svc);
  EXPECT_NE(Svc.message().find("Salvage"), std::string::npos)
      << Svc.message();
}
