//===- tests/differential_test.cpp - engine vs generated parsers ----------===//
//
// Part of the IPG reproduction of "Interval Parsing Grammars for File Format
// Parsing" (PLDI 2023). MIT license.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The differential harness: EVERY format corpus — blackbox formats
/// included, via the ipg_rt registration hook and the bridges in
/// formats::genBlackboxBridge — is parsed by ALL THREE engines (the
/// interpreter, the compiled generated parser, and the bytecode VM over
/// the lowered IR), and the trees are compared node-by-node
/// — shape, node names, start/end, every attribute value, leaf windows —
/// and each node's env slot order is compared unsorted as well.
/// The comparison goes through one canonical text rendering
/// (ipg_rt::dumpTree, embedded in every generated parser; renderCanonical
/// below produces the identical format from the interpreter's ParseTree),
/// so any byte of difference is a semantic divergence between the host
/// runner (runtime/HostRunner.h) and codegen/CppEmitter.cpp. Memoized and
/// unmemoized generated parsers are also compared against each other:
/// the memo table must never change a parse result.
///
/// Also hosts the regression tests for the divergences this harness was
/// built to catch: pre-seeded start/end sentinels (a byte-untouched
/// child's X.start must fail with partiality, not read as EOI) and the
/// literal "EOI" env entry (X.EOI of a node that defines no such
/// attribute must fail, not answer the child's window size).
///
/// Tests that need a host C++ compiler skip gracefully without one, as
/// codegen_test.cpp does. Under -DIPG_SANITIZE=ON the generated parsers
/// are themselves compiled with ASan+UBSan (IPG_SANITIZE_BUILD), so the
/// CI sanitizer job proves generated code sanitizer-clean too.
///
//===----------------------------------------------------------------------===//

#include "codegen/CppEmitter.h"

#include "CodegenTestHarness.h"
#include "CorruptCorpus.h"
#include "TreeCanonical.h"
#include "formats/FormatRegistry.h"
#include "formats/Zip.h"
#include "runtime/Interp.h"
#include "support/Casting.h"

#include <algorithm>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <gtest/gtest.h>
#include <sstream>
#include <string>
#include <utility>
#include <vector>

using namespace ipg;
using testutil::hostCompilerAvailable;

namespace {

Grammar load(const char *Src) {
  auto R = loadGrammar(Src);
  EXPECT_TRUE(R) << R.message();
  if (!R)
    std::abort();
  return std::move(R->G);
}

// The canonical interpreter-tree rendering (byte-for-byte the generated
// side's ipg_rt::dumpTree format) lives in tests/TreeCanonical.h, shared
// with engine_test and service_test.
using testutil::renderCanonical;
using testutil::renderEnvOrder;

/// Compiles \p Generated with a driver that parses argv[1] and writes the
/// generated runtime's canonical dump to argv[2]. Exit codes: 0 accepted,
/// 1 rejected, >=2 infrastructure trouble. Returns false on compile
/// failure (with the log on stderr). For blackbox formats \p Bridge
/// supplies the registration source and decoder translation units
/// (formats::genBlackboxBridge), so e.g. zip's generated parser resolves
/// `inflate` from the same MiniZlib implementation the interpreter uses.
struct GenRun {
  int ExitCode = -1;
  std::string Dump;
};

bool compileGenerated(const std::string &Generated, const std::string &Tag,
                      std::string &ExeOut,
                      const formats::GenBlackboxBridge *Bridge = nullptr) {
  std::string Source = Generated;
  if (Bridge)
    Source += Bridge->DriverSource;
  Source +=
      "\n#include <cstdio>\n#include <fstream>\n"
      "int main(int argc, char **argv) {\n"
      "  if (argc < 3) return 3;\n"
      "  std::ifstream In(argv[1], std::ios::binary);\n"
      "  std::vector<uint8_t> Bytes((std::istreambuf_iterator<char>(In)),"
      " std::istreambuf_iterator<char>());\n"
      "  gen::Parser P;\n" +
      std::string(Bridge ? "  ipgRegisterBlackboxes(P);\n" : "") +
      "  gen::NodePtr Root = nullptr;\n"
      "  if (!P.parse(Bytes.data(), Bytes.size(), Root)) return 1;\n"
      "  std::ofstream Out(argv[2], std::ios::binary);\n"
      "  Out << gen::dumpTree(Root);\n"
      "  return Out ? 0 : 3;\n}\n";
  ExeOut = testutil::compileParserSource(
      Source, Tag,
      Bridge ? testutil::bridgeCompileArgs(Bridge->ExtraSources) : "");
  return !ExeOut.empty();
}

GenRun runGenerated(const std::string &Exe, const std::string &Tag,
                    const std::vector<uint8_t> &Input) {
  GenRun R;
  std::string DumpPath = testutil::childDir(Tag) + "/dump.txt";
  std::remove(DumpPath.c_str());
  R.ExitCode = testutil::runChild(Exe, Tag, Input, DumpPath);
  std::ifstream Dump(DumpPath, std::ios::binary);
  std::stringstream SS;
  SS << Dump.rdbuf();
  R.Dump = SS.str();
  return R;
}

} // namespace

//===----------------------------------------------------------------------===//
// The corpus sweep: interpreter == generated on EVERY format. Blackbox
// formats (zip) participate through the registration hook: the child
// compiles the same MiniZlib decoder the interpreter registers and binds
// it with Parser::registerBlackbox.
//===----------------------------------------------------------------------===//

TEST(DifferentialTest, AllFormatCorporaAgree) {
  if (!hostCompilerAvailable())
    GTEST_SKIP() << "no host C++ compiler";

  size_t Compared = 0;
  for (const formats::FormatInfo &FI : formats::allFormats()) {
    SCOPED_TRACE("format: " + FI.Name);

    // One factory call replaces the old loadFormatGrammar +
    // standardBlackboxes + Interp boilerplate; the loaded grammar rides
    // along for the emitter.
    auto FE = formats::makeFormatEngine(FI.Name, EngineKind::Interp);
    ASSERT_TRUE(FE) << FE.message();
    const Grammar &G = FE->Load->G;
    auto Code = emitCppParser(G, "gen");
    ASSERT_TRUE(Code) << Code.message();
    const formats::GenBlackboxBridge *Bridge =
        formats::genBlackboxBridge(FI.Name);
    ASSERT_EQ(Bridge != nullptr, FI.NeedsBlackbox);
    std::string Exe;
    ASSERT_TRUE(compileGenerated(*Code, FI.Name, Exe, Bridge));

    // The third engine: the bytecode VM shares the interpreter's runtime
    // core, so beyond tree equality its counters must match exactly.
    auto FV = formats::makeFormatEngine(FI.Name, EngineKind::Vm);
    ASSERT_TRUE(FV) << FV.message();
    // The generated parser in process, whose trees the raw env slot order
    // check below reads directly.
    auto FG = formats::makeFormatEngine(FI.Name, EngineKind::Generated);
    ASSERT_TRUE(FG) << FG.message();

    Engine &I = **FE;
    Engine &V = **FV;
    // Two input sizes per format so array/loop paths differ run-to-run.
    // These scales stay small because each dump is compared as text and
    // canonical dumps indent per level; the megabyte-class sweep below
    // (MegabyteCorpusAgreeInProcess) covers deep/large inputs by
    // structural comparison instead.
    for (unsigned Scale : {1u, 2u}) {
      SCOPED_TRACE("scale: " + std::to_string(Scale));
      std::vector<uint8_t> Bytes = formats::sampleInput(FI.Name, Scale);
      ASSERT_FALSE(Bytes.empty());

      auto R = I.parse(ByteSpan::of(Bytes));
      ASSERT_TRUE(R) << FI.Name << " corpus rejected by the interpreter: "
                     << R.message();
      std::string Want = renderCanonical(*R, G);

      GenRun Gen = runGenerated(Exe, FI.Name, Bytes);
      ASSERT_EQ(Gen.ExitCode, 0)
          << FI.Name << " corpus rejected by the generated parser";
      EXPECT_EQ(Want, Gen.Dump)
          << FI.Name << ": interpreter and generated trees diverge";

      auto RV = V.parse(ByteSpan::of(Bytes));
      ASSERT_TRUE(RV) << FI.Name
                      << " corpus rejected by the VM: " << RV.message();
      EXPECT_EQ(Want, renderCanonical(*RV, FV->Load->G))
          << FI.Name << ": interpreter and VM trees diverge";
      EXPECT_EQ(I.stats().NodesCreated, V.stats().NodesCreated) << FI.Name;
      EXPECT_EQ(I.stats().TermsExecuted, V.stats().TermsExecuted) << FI.Name;
      EXPECT_EQ(I.stats().MemoHits, V.stats().MemoHits) << FI.Name;
      EXPECT_EQ(I.stats().MemoMisses, V.stats().MemoMisses) << FI.Name;
      EXPECT_EQ(I.stats().PeakDepth, V.stats().PeakDepth) << FI.Name;

      // Every tier executes in the same frame (ipg_rt::Frame), so each
      // node's env lists its slots in the same order — own attributes in
      // definition order, then start/end — not merely the same set.
      auto RG = (*FG)->parse(ByteSpan::of(Bytes));
      ASSERT_TRUE(RG) << FI.Name << " corpus rejected by the in-process "
                      << "generated parser: " << RG.message();
      const std::string Order = renderEnvOrder(*R, G);
      EXPECT_EQ(Order, renderEnvOrder(*RV, FV->Load->G))
          << FI.Name << ": interpreter and VM env slot orders diverge";
      EXPECT_EQ(Order, renderEnvOrder(*RG, FG->Load->G))
          << FI.Name << ": interpreter and generated env slot orders diverge";
      ++Compared;
    }

    // All sides must also agree on rejection: corrupt the first byte.
    std::vector<uint8_t> Bad = formats::sampleInput(FI.Name, 1);
    Bad[0] ^= 0xff;
    size_t AcceptedNodes = I.stats().NodesCreated;
    bool InterpAccepts = static_cast<bool>(I.parse(ByteSpan::of(Bad)));
    // The stats contract holds inside the harness too: after a rejected
    // parse, stats() describes the rejection, not the accepted run.
    if (!InterpAccepts) {
      EXPECT_LT(I.stats().NodesCreated, AcceptedNodes)
          << FI.Name << ": stats() still shows the previous parse";
    }
    GenRun GenBad = runGenerated(Exe, FI.Name, Bad);
    ASSERT_GE(GenBad.ExitCode, 0);
    ASSERT_LE(GenBad.ExitCode, 1);
    EXPECT_EQ(InterpAccepts, GenBad.ExitCode == 0)
        << FI.Name << ": accept/reject verdicts diverge on corrupt input";
    EXPECT_EQ(InterpAccepts, static_cast<bool>(V.parse(ByteSpan::of(Bad))))
        << FI.Name << ": interpreter/VM verdicts diverge on corrupt input";
  }
  EXPECT_EQ(Compared, 2 * formats::allFormats().size());
}

//===----------------------------------------------------------------------===//
// Corrupt-at-offset sweep: the single corrupt-first-byte probe above only
// sees one failure path per format. This sweep plants the shared damage
// grid (tests/CorruptCorpus.h: flips, truncations, and zero-runs at fixed
// offsets spread across each corpus — headers, directory structures,
// payload middles, trailers) and demands verdict agreement at every
// entry; when both engines accept a corruption (damage confined to
// don't-care payload bytes), their trees must still be identical.
// The same grid feeds tests/recovery_test.cpp and bench/bench_recovery.
//===----------------------------------------------------------------------===//

TEST(DifferentialTest, CorruptAtOffsetSweepVerdictsAgree) {
  if (!hostCompilerAvailable())
    GTEST_SKIP() << "no host C++ compiler";

  constexpr size_t ProbesPerFormat = 8;

  size_t Checked = 0;
  for (const formats::FormatInfo &FI : formats::allFormats()) {
    SCOPED_TRACE("format: " + FI.Name);
    auto FE = formats::makeFormatEngine(FI.Name, EngineKind::Interp);
    ASSERT_TRUE(FE) << FE.message();
    const Grammar &G = FE->Load->G;
    auto Code = emitCppParser(G, "gen");
    ASSERT_TRUE(Code) << Code.message();
    std::string Exe;
    ASSERT_TRUE(compileGenerated(*Code, "sweep_" + FI.Name, Exe,
                                 formats::genBlackboxBridge(FI.Name)));

    Engine &I = **FE;
    const std::vector<uint8_t> Bytes = formats::sampleInput(FI.Name, 1);
    ASSERT_GE(Bytes.size(), ProbesPerFormat);

    for (const testutil::CorruptProbe &P :
         testutil::corruptProbes(Bytes.size(), ProbesPerFormat)) {
      SCOPED_TRACE(std::string(testutil::corruptKindName(P.Kind)) + " @" +
                   std::to_string(P.Off));
      std::vector<uint8_t> Bad = testutil::corruptAt(Bytes, P.Kind, P.Off);
      auto R = I.parse(ByteSpan::of(Bad));
      GenRun Gen = runGenerated(Exe, "sweep_" + FI.Name, Bad);
      ASSERT_GE(Gen.ExitCode, 0);
      ASSERT_LE(Gen.ExitCode, 1);
      EXPECT_EQ(static_cast<bool>(R), Gen.ExitCode == 0)
          << "accept/reject verdicts diverge";
      if (R && Gen.ExitCode == 0) {
        EXPECT_EQ(renderCanonical(*R, G), Gen.Dump)
            << "both accepted the corruption but built different trees";
      }
      ++Checked;
    }
  }
  EXPECT_EQ(Checked, 3 * ProbesPerFormat * formats::allFormats().size());
}

//===----------------------------------------------------------------------===//
// The same sweep for the bytecode VM, entirely in-process — no host
// compiler needed, so this leg runs in EVERY CI job (the TSan matrix
// included). Because the VM shares the interpreter's runtime core down to
// the frame pool, the contract is stronger than verdict agreement: on
// every probe the trees, the failure messages, the failure diagnostics
// (failing rule + absolute byte offset), and all counters (NodesCreated,
// TermsExecuted, memo traffic, PeakDepth) must be identical, success or
// failure alike. FailRule is compared by interner NAME, not raw Symbol:
// the two engines load the grammar separately and may intern in a
// different order.
//===----------------------------------------------------------------------===//

TEST(DifferentialTest, VmMatchesInterpreterOnCorruptAtOffsetSweep) {
  constexpr size_t ProbesPerFormat = 8;

  size_t Checked = 0;
  for (const formats::FormatInfo &FI : formats::allFormats()) {
    SCOPED_TRACE("format: " + FI.Name);
    auto IE = formats::makeFormatEngine(FI.Name, EngineKind::Interp);
    ASSERT_TRUE(IE) << IE.message();
    auto VE = formats::makeFormatEngine(FI.Name, EngineKind::Vm);
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
      ASSERT_EQ(static_cast<bool>(RI), static_cast<bool>(RV))
          << "interpreter/VM verdicts diverge";
      if (RI && RV)
        EXPECT_TRUE(testutil::treesEqual(RI->get(), IE->Load->G, RV->get(),
                                         VE->Load->G))
            << "both accepted the corruption but built different trees";
      else
        EXPECT_EQ(RI.message(), RV.message())
            << "both rejected, with different diagnostics";

      const EngineStats &SI = (*IE)->stats();
      const EngineStats &SV = (*VE)->stats();
      EXPECT_EQ(SI.NodesCreated, SV.NodesCreated);
      EXPECT_EQ(SI.TermsExecuted, SV.TermsExecuted);
      EXPECT_EQ(SI.MemoHits, SV.MemoHits);
      EXPECT_EQ(SI.MemoMisses, SV.MemoMisses);
      EXPECT_EQ(SI.PeakDepth, SV.PeakDepth);
      ASSERT_EQ(SI.FailRule == ~0u, SV.FailRule == ~0u)
          << "only one engine recorded a failure location";
      if (SI.FailRule != ~0u) {
        EXPECT_EQ(IE->Load->G.interner().name(SI.FailRule),
                  VE->Load->G.interner().name(SV.FailRule))
            << "failing-rule diagnostics diverge";
      }
      EXPECT_EQ(SI.FailOffset, SV.FailOffset)
          << "failure-offset diagnostics diverge";
      ++Checked;
    }
  }
  EXPECT_EQ(Checked, 3 * ProbesPerFormat * formats::allFormats().size());
}

//===----------------------------------------------------------------------===//
// The blackbox hook under load: a zip archive with DEFLATED entries runs
// the inflate blackbox on both sides (the stored-entry corpus above never
// reaches it). The decoded output leaf, val/start/end attributes, and the
// check(count) plumbing that depends on them must agree byte for byte.
//===----------------------------------------------------------------------===//

TEST(DifferentialTest, ZipDeflatedEntriesAgreeThroughBlackboxHook) {
  if (!hostCompilerAvailable())
    GTEST_SKIP() << "no host C++ compiler";

  auto FE = formats::makeFormatEngine("zip", EngineKind::Interp);
  ASSERT_TRUE(FE) << FE.message();
  const Grammar &G = FE->Load->G;
  auto Code = emitCppParser(G, "gen");
  ASSERT_TRUE(Code) << Code.message();
  const formats::GenBlackboxBridge *Bridge =
      formats::genBlackboxBridge("zip");
  ASSERT_NE(Bridge, nullptr);
  std::string Exe;
  ASSERT_TRUE(compileGenerated(*Code, "zip_deflated", Exe, Bridge));

  std::vector<uint8_t> Bytes = formats::synthesizeZip(
      formats::zipArchiveOfCopies(4, 2048, /*Compress=*/true));
  auto R = (*FE)->parse(ByteSpan::of(Bytes));
  ASSERT_TRUE(R) << R.message();
  std::string Want = renderCanonical(*R, G);
  // The corpus really exercised the blackbox: inflate nodes are present.
  EXPECT_NE(Want.find("Node inflate"), std::string::npos);

  GenRun Gen = runGenerated(Exe, "zip_deflated", Bytes);
  ASSERT_EQ(Gen.ExitCode, 0);
  EXPECT_EQ(Want, Gen.Dump)
      << "interpreter and generated trees diverge on deflated zip";

  // The VM resolves `inflate` through the same registry the interpreter
  // binds (via the lowered module's blackbox site table).
  auto FV = formats::makeFormatEngine("zip", EngineKind::Vm);
  ASSERT_TRUE(FV) << FV.message();
  auto RV = (*FV)->parse(ByteSpan::of(Bytes));
  ASSERT_TRUE(RV) << RV.message();
  EXPECT_EQ(Want, renderCanonical(*RV, FV->Load->G))
      << "interpreter and VM trees diverge on deflated zip";

  // An unregistered blackbox is a hard failure, as in the interpreter:
  // the same child without the bridge registration must reject.
  std::string NoRegExe;
  ASSERT_TRUE(compileGenerated(*Code, "zip_noreg", NoRegExe));
  EXPECT_EQ(runGenerated(NoRegExe, "zip_noreg", Bytes).ExitCode, 1)
      << "a parse reaching an unregistered blackbox must fail";
}

//===----------------------------------------------------------------------===//
// Memoization parity: with the memo table on (default) and off, generated
// parsers must produce byte-identical canonical dumps — memoization is an
// optimization, never a semantic change. PDF is the adversarial corpus
// (backtracking-heavy, Fig. 12's memo-sensitive format).
//===----------------------------------------------------------------------===//

TEST(DifferentialTest, MemoizedAndUnmemoizedGeneratedParsersAgree) {
  if (!hostCompilerAvailable())
    GTEST_SKIP() << "no host C++ compiler";

  for (const char *Name : {"pdf", "gif", "dns"}) {
    SCOPED_TRACE(Name);
    auto Load = formats::loadFormatGrammar(Name);
    ASSERT_TRUE(Load) << Load.message();

    auto Memo = emitCppParser(Load->G, "gen");
    ASSERT_TRUE(Memo) << Memo.message();
    EngineOptions Off;
    Off.UseMemo = false;
    auto Plain = emitCppParser(Load->G, "gen", Off);
    ASSERT_TRUE(Plain) << Plain.message();
    // The ablation really removed the table, not just renamed things.
    EXPECT_NE(Memo->find("C.memoFind("), std::string::npos);
    EXPECT_EQ(Plain->find("C.memoFind("), std::string::npos);

    std::string MemoExe, PlainExe;
    ASSERT_TRUE(compileGenerated(*Memo, std::string(Name) + "_memo",
                                 MemoExe));
    ASSERT_TRUE(compileGenerated(*Plain, std::string(Name) + "_nomemo",
                                 PlainExe));

    for (unsigned Scale : {1u, 2u}) {
      SCOPED_TRACE("scale: " + std::to_string(Scale));
      std::vector<uint8_t> Bytes = formats::sampleInput(Name, Scale);
      GenRun A = runGenerated(MemoExe, std::string(Name) + "_memo", Bytes);
      GenRun B =
          runGenerated(PlainExe, std::string(Name) + "_nomemo", Bytes);
      ASSERT_EQ(A.ExitCode, 0);
      ASSERT_EQ(B.ExitCode, 0);
      EXPECT_EQ(A.Dump, B.Dump)
          << Name << ": memoization changed the parse result";
    }
  }
}

//===----------------------------------------------------------------------===//
// Megabyte-class corpus: PDF (whose Scan/XNum recursion makes file size
// equal parse depth — over a million virtual levels here) and ELF (a
// megabyte image with thousands of table entries) must agree between the
// interpreter and the in-process generated engine. Both engines run
// recursion on engine-managed frames, so the only requirement is a
// MaxDepth that covers the input. Trees are compared structurally:
// canonical text dumps indent two spaces per level, which is O(depth^2)
// output at this depth.
//===----------------------------------------------------------------------===//

TEST(DifferentialTest, MegabyteCorpusAgreeInProcess) {
  if (!hostCompilerAvailable())
    GTEST_SKIP() << "no host C++ compiler";

  for (const char *Name : {"pdf", "elf"}) {
    SCOPED_TRACE(Name);
    EngineOptions Opts;
    Opts.MaxDepth = size_t{1} << 21;
    auto IE = formats::makeFormatEngine(Name, EngineKind::Interp, Opts);
    ASSERT_TRUE(IE) << IE.message();
    auto GE = formats::makeFormatEngine(Name, EngineKind::Generated, Opts);
    ASSERT_TRUE(GE) << GE.message();
    auto VE = formats::makeFormatEngine(Name, EngineKind::Vm, Opts);
    ASSERT_TRUE(VE) << VE.message();

    std::vector<uint8_t> Bytes = formats::sampleInput(Name, 64);
    ASSERT_GE(Bytes.size(), size_t{1} << 20)
        << Name << ": scale-64 corpus is not megabyte-class";

    auto TI = (*IE)->parse(ByteSpan::of(Bytes));
    ASSERT_TRUE(TI) << Name << " interp: " << TI.message();
    auto TG = (*GE)->parse(ByteSpan::of(Bytes));
    ASSERT_TRUE(TG) << Name << " generated: " << TG.message();
    auto TV = (*VE)->parse(ByteSpan::of(Bytes));
    ASSERT_TRUE(TV) << Name << " vm: " << TV.message();

    EXPECT_TRUE(testutil::treesEqual(TI->get(), IE->Load->G, TG->get(),
                                     GE->Load->G))
        << Name << ": interpreter and generated trees diverge at scale 64";
    EXPECT_TRUE(testutil::treesEqual(TI->get(), IE->Load->G, TV->get(),
                                     VE->Load->G))
        << Name << ": interpreter and VM trees diverge at scale 64";

    // Counter parity at depth: all engines report the same recursion
    // profile, PeakDepth included (the satellite-2 ABI plumbing).
    const EngineStats &SI = (*IE)->stats();
    const EngineStats &SG = (*GE)->stats();
    const EngineStats &SV = (*VE)->stats();
    EXPECT_EQ(SI.NodesCreated, SG.NodesCreated) << Name;
    EXPECT_EQ(SI.MemoHits, SG.MemoHits) << Name;
    EXPECT_EQ(SI.MemoMisses, SG.MemoMisses) << Name;
    EXPECT_EQ(SI.PeakDepth, SG.PeakDepth) << Name;
    EXPECT_EQ(SI.NodesCreated, SV.NodesCreated) << Name;
    EXPECT_EQ(SI.TermsExecuted, SV.TermsExecuted) << Name;
    EXPECT_EQ(SI.MemoHits, SV.MemoHits) << Name;
    EXPECT_EQ(SI.MemoMisses, SV.MemoMisses) << Name;
    EXPECT_EQ(SI.PeakDepth, SV.PeakDepth) << Name;
    EXPECT_GT(SI.PeakDepth, 0u) << Name;
    if (std::string(Name) == "pdf") {
      EXPECT_GT(SI.PeakDepth, size_t{1} << 20)
          << "the megabyte PDF should recurse past a million levels";
    }
  }
}

//===----------------------------------------------------------------------===//
// Regression: a byte-untouched child exposes no start/end — referencing
// X.start must fail with partiality on BOTH sides (the generated runtime
// used to pre-seed start = EOI / end = 0 sentinels and answer EOI).
//===----------------------------------------------------------------------===//

namespace {

const char *UntouchedChildGrammar = R"(
  S -> A[0, 0] {s = A.start} "x"[0, 1] ;
  A -> {v = 1} ;
)";

const char *UntouchedChildControlGrammar = R"(
  S -> A[0, 0] {s = A.v} "x"[0, 1] ;
  A -> {v = 1} ;
)";

} // namespace

TEST(DifferentialTest, UntouchedChildStartIsPartialInInterpreter) {
  Grammar G = load(UntouchedChildGrammar);
  std::vector<uint8_t> In = {'x'};
  EXPECT_FALSE(Interp(G).parse(ByteSpan::of(In)))
      << "A touches no bytes, so A.start must be a partiality failure";

  // Control: the same shape succeeds when it references a real attribute,
  // proving the rejection above comes from A.start specifically.
  Grammar C = load(UntouchedChildControlGrammar);
  auto R = Interp(C).parse(ByteSpan::of(In));
  ASSERT_TRUE(R) << R.message();
  const auto *Root = cast<NodeTree>(R->get());
  auto SV = Root->attr(C.interner().intern("s"));
  ASSERT_TRUE(SV.has_value());
  EXPECT_EQ(*SV, 1);
  // And the untouched child carries neither start nor end.
  const NodeTree *A = Root->childNode(C.interner().intern("A"));
  ASSERT_NE(A, nullptr);
  EXPECT_FALSE(A->attr(C.symStart()).has_value());
  EXPECT_FALSE(A->attr(C.symEnd()).has_value());
}

TEST(DifferentialTest, UntouchedChildStartIsPartialInGenerated) {
  if (!hostCompilerAvailable())
    GTEST_SKIP() << "no host C++ compiler";
  std::vector<uint8_t> In = {'x'};

  Grammar G = load(UntouchedChildGrammar);
  auto Code = emitCppParser(G, "gen");
  ASSERT_TRUE(Code) << Code.message();
  std::string Exe;
  ASSERT_TRUE(compileGenerated(*Code, "untouched_start", Exe));
  EXPECT_EQ(runGenerated(Exe, "untouched_start", In).ExitCode, 1)
      << "generated parser must fail A.start of a byte-untouched child";

  Grammar C = load(UntouchedChildControlGrammar);
  auto CCode = emitCppParser(C, "gen");
  ASSERT_TRUE(CCode) << CCode.message();
  std::string CExe;
  ASSERT_TRUE(compileGenerated(*CCode, "untouched_ctrl", CExe));
  GenRun R = runGenerated(CExe, "untouched_ctrl", In);
  EXPECT_EQ(R.ExitCode, 0);
  // The generated dump shows s=1 on S and no start/end on A.
  EXPECT_NE(R.Dump.find("s=1"), std::string::npos) << R.Dump;
  EXPECT_NE(R.Dump.find("Node A {v=1}"), std::string::npos) << R.Dump;
}

//===----------------------------------------------------------------------===//
// Regression: no node env carries a runtime-stored "EOI" binding. The old
// generated runtime wrote the window size into every env under the
// literal name "EOI" (and the pre-PR interpreter did the same), so a
// grammar attribute actually named EOI silently collided with it. Now the
// only EOI a tree can carry is one the grammar itself defined, and it
// reads back unclobbered; X.EOI of a child that defines no such
// attribute is already rejected statically.
//===----------------------------------------------------------------------===//

namespace {

/// A defines its own attribute literally named EOI; the parent reads it
/// through the env. The runtime must hand back the grammar's value (5),
/// not the child's window size (1).
const char *ChildEoiGrammar = R"(
  S -> A[0, 1] {n = A.EOI} ;
  A -> "x"[0, 1] {EOI = 5} ;
)";

} // namespace

TEST(DifferentialTest, NodeEnvHasNoEoiEntryInInterpreter) {
  std::vector<uint8_t> In = {'x'};

  // Without a grammar-defined EOI on A, A.EOI does not resolve — the
  // attribute checker rejects it statically (it used to "work" by
  // reading the runtime-stored entry).
  auto Undefined = loadGrammar(R"(
    S -> A[0, 1] {n = A.EOI} ;
    A -> "x"[0, 1] ;
  )");
  ASSERT_FALSE(Undefined);
  EXPECT_NE(Undefined.message().find("EOI"), std::string::npos);

  Grammar G = load(ChildEoiGrammar);
  auto RG = Interp(G).parse(ByteSpan::of(In));
  ASSERT_TRUE(RG) << RG.message();
  const auto *SN = cast<NodeTree>(RG->get());
  EXPECT_EQ(SN->attr(G.interner().intern("n")).value_or(-1), 5)
      << "A.EOI must read the grammar-defined attribute, not the window";

  // The env of a parsed node contains exactly its grammar-defined
  // attributes plus touched start/end — no runtime-stored EOI.
  Grammar Plain = load(R"(
    S -> A[0, 1] ;
    A -> "x"[0, 1] ;
  )");
  auto R = Interp(Plain).parse(ByteSpan::of(In));
  ASSERT_TRUE(R) << R.message();
  const auto *Root = cast<NodeTree>(R->get());
  EXPECT_FALSE(Root->attr(Plain.interner().intern("EOI")).has_value());
  const NodeTree *A = Root->childNode(Plain.interner().intern("A"));
  ASSERT_NE(A, nullptr);
  EXPECT_FALSE(A->attr(Plain.interner().intern("EOI")).has_value());
  // start/end are present here — A did touch its byte.
  EXPECT_EQ(A->attr(Plain.symStart()).value_or(-1), 0);
  EXPECT_EQ(A->attr(Plain.symEnd()).value_or(-1), 1);
}

//===----------------------------------------------------------------------===//
// Regression: btoi(lo, hi) with extreme in-range operands must fail with
// partiality, not signed overflow, on both sides. The window width used
// to be computed as Hi - Lo before any validation — lo = -(2^62),
// hi = 2^62 (buildable with checked shifts alone) made the subtraction
// itself UB, aborting the ASan+UBSan jobs.
//===----------------------------------------------------------------------===//

namespace {

/// Alternative 1 evaluates the poisoned btoi and must fail cleanly;
/// alternative 2 proves the failure was partiality, not an abort.
const char *BtoiOverflowGrammar = R"(
  S -> "x"[0, 1] {a = 1 << 62} {v = btoi(0 - a, a)}
     / "x"[0, 1] {ok = btoi(0, 1)} ;
)";

} // namespace

TEST(DifferentialTest, BtoiWindowOverflowIsPartialInInterpreter) {
  Grammar G = load(BtoiOverflowGrammar);
  std::vector<uint8_t> In = {'x'};
  auto R = Interp(G).parse(ByteSpan::of(In));
  ASSERT_TRUE(R) << R.message();
  const auto *Root = cast<NodeTree>(R->get());
  EXPECT_FALSE(Root->attr(G.interner().intern("v")).has_value());
  EXPECT_EQ(Root->attr(G.interner().intern("ok")).value_or(-1), 'x');
}

TEST(DifferentialTest, BtoiWindowOverflowIsPartialInGenerated) {
  if (!hostCompilerAvailable())
    GTEST_SKIP() << "no host C++ compiler";
  Grammar G = load(BtoiOverflowGrammar);
  auto Code = emitCppParser(G, "gen");
  ASSERT_TRUE(Code) << Code.message();
  std::string Exe;
  ASSERT_TRUE(compileGenerated(*Code, "btoi_overflow", Exe));
  GenRun R = runGenerated(Exe, "btoi_overflow", {'x'});
  EXPECT_EQ(R.ExitCode, 0);
  EXPECT_NE(R.Dump.find("ok=120"), std::string::npos) << R.Dump;
  EXPECT_EQ(R.Dump.find("v="), std::string::npos) << R.Dump;
}

//===----------------------------------------------------------------------===//
// Regression: the recursion-depth limit is a HARD failure on both sides.
// The generated runtime used to soft-fail at the limit and backtrack
// into sibling alternatives, so a fallback alternative could accept an
// input the interpreter rejects with a hard depth error.
//===----------------------------------------------------------------------===//

namespace {

/// T recurses once per leading 'a'; the raw fallback would match ANY
/// input if the depth failure were soft.
const char *DeepGrammar = R"(
  S -> T[0, EOI] / raw[0, EOI] ;
  T -> "a"[0, 1] T[1, EOI] / "a"[0, 1] ;
)";

} // namespace

TEST(DifferentialTest, DepthLimitIsAHardFailureInInterpreter) {
  Grammar G = load(DeepGrammar);
  EngineOptions Opts;
  Opts.MaxDepth = 64; // keep the recursion shallow (ASan-sized stacks)
  auto E = makeEngine(EngineKind::Interp, G, nullptr, Opts);
  ASSERT_TRUE(E) << E.message();
  std::vector<uint8_t> Shallow(10, 'a');
  EXPECT_TRUE((*E)->parse(ByteSpan::of(Shallow)));
  std::vector<uint8_t> Deep(100, 'a');
  EXPECT_FALSE((*E)->parse(ByteSpan::of(Deep)))
      << "the depth limit must abort the parse, not fall back to raw";
}

TEST(DifferentialTest, DepthLimitIsAHardFailureInGenerated) {
  if (!hostCompilerAvailable())
    GTEST_SKIP() << "no host C++ compiler";
  Grammar G = load(DeepGrammar);
  auto Code = emitCppParser(G, "gen");
  ASSERT_TRUE(Code) << Code.message();
  std::string Exe;
  ASSERT_TRUE(compileGenerated(*Code, "deep", Exe));
  std::vector<uint8_t> Shallow(100, 'a');
  EXPECT_EQ(runGenerated(Exe, "deep", Shallow).ExitCode, 0);
  // Past ipg_rt::MaxDepth (8192) the parse must abort hard — no raw
  // fallback. The guard caps the actual recursion at MaxDepth frames,
  // so the input length does not grow the stack.
  std::vector<uint8_t> Deep(9000, 'a');
  EXPECT_EQ(runGenerated(Exe, "deep", Deep).ExitCode, 1)
      << "the depth limit must abort the parse, not fall back to raw";
}

TEST(DifferentialTest, NodeEnvHasNoEoiEntryInGenerated) {
  if (!hostCompilerAvailable())
    GTEST_SKIP() << "no host C++ compiler";
  std::vector<uint8_t> In = {'x'};

  Grammar G = load(ChildEoiGrammar);
  auto Code = emitCppParser(G, "gen");
  ASSERT_TRUE(Code) << Code.message();
  std::string Exe;
  ASSERT_TRUE(compileGenerated(*Code, "child_eoi", Exe));
  GenRun Collide = runGenerated(Exe, "child_eoi", In);
  EXPECT_EQ(Collide.ExitCode, 0);
  EXPECT_NE(Collide.Dump.find("n=5"), std::string::npos)
      << "A.EOI must read the grammar-defined attribute (5), not the "
         "window size (1):\n"
      << Collide.Dump;

  // EOI inside a rule's own expressions still reads the window size.
  Grammar Own = load(R"(
    S -> A[0, 1] {n = EOI} ;
    A -> "x"[0, 1] ;
  )");
  auto OCode = emitCppParser(Own, "gen");
  ASSERT_TRUE(OCode) << OCode.message();
  std::string OExe;
  ASSERT_TRUE(compileGenerated(*OCode, "own_eoi", OExe));
  GenRun R = runGenerated(OExe, "own_eoi", In);
  EXPECT_EQ(R.ExitCode, 0);
  EXPECT_NE(R.Dump.find("n=1"), std::string::npos) << R.Dump;
  EXPECT_EQ(R.Dump.find("EOI="), std::string::npos)
      << "no env entry may be named EOI:\n"
      << R.Dump;
}
