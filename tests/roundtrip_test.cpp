//===- tests/roundtrip_test.cpp - parse∘print = id ------------------------===//
//
// Part of the IPG reproduction of "Interval Parsing Grammars for File Format
// Parsing" (PLDI 2023). MIT license.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The serializer's property harness: on every format corpus, at scales 1
/// and 2, on every engine tier,
///
///   print(parse(x)) == x                 (byte-exact reconstruction)
///   parse(print(parse(x))) == parse(x)   (the tree survives a round trip)
///
/// Trees from the interpreter, the bytecode VM and the in-process
/// generated engine (GenEngine) all print through serialize/Printer.cpp —
/// every tier builds the same tree. Standalone generated parsers print
/// through the printTree they export (compiled into the child by
/// CodegenTestHarness.h, like the differential drivers).
/// Blackbox formats re-encode through the inverse hook — the deflated-zip
/// corpus proves decoded entry data recompresses onto the original
/// stream byte-for-byte.
///
/// Print-exactness is a per-format fact this suite pins down: formats
/// whose grammars leaf-cover their whole input must print strictly (zero
/// gaps); the two that do not (pe pads between headers, pdf has
/// whitespace no term touches) must fail Strict and reconstruct exactly
/// under FillFromBackground with a small, stable gap count. See
/// docs/grammar-syntax.md ("Print-exact constructs").
///
//===----------------------------------------------------------------------===//

#include "codegen/CppEmitter.h"

#include "CodegenTestHarness.h"
#include "formats/FormatRegistry.h"
#include "formats/MiniZlib.h"
#include "formats/Zip.h"
#include "runtime/Engine.h"
#include "runtime/Interp.h"
#include "serialize/Printer.h"
#include "support/Casting.h"

#include <cstdint>
#include <fstream>
#include <gtest/gtest.h>
#include <sstream>
#include <string>
#include <vector>

using namespace ipg;
using testutil::hostCompilerAvailable;

namespace {

/// Formats whose parse trees leaf-cover every input byte (strict print
/// succeeds with zero gaps). The complement — pe, pdf — is asserted to
/// FAIL strict printing, so a grammar change that shifts a format across
/// this line is caught either way.
bool strictPrintExact(const std::string &Name) {
  return Name != "pe" && Name != "pdf";
}

std::string render(const TreePtr &T, const Grammar &G) {
  return T ? treeToString(*T, G.interner()) : std::string();
}

/// The engine tiers every printer property runs on; the generated one
/// only when a host compiler can build its module.
std::vector<EngineKind> engineTiers() {
  std::vector<EngineKind> Kinds = {EngineKind::Interp, EngineKind::Vm};
  if (hostCompilerAvailable())
    Kinds.push_back(EngineKind::Generated);
  return Kinds;
}

/// One round trip: parse, print (strict or background-fill), compare
/// bytes, re-parse, compare trees, then print the FIRST tree again: its
/// leaves (blackbox-decoded ones included) must survive the engine's
/// next parse. Returns the print result for further inspection. Takes
/// any Engine (callers build one through the makeFormatEngine factory);
/// the printer itself is engine-independent.
serialize::PrintResult roundtripEngine(Engine &I, const Grammar &G,
                                       const BlackboxRegistry &BB,
                                       const std::vector<uint8_t> &Bytes,
                                       bool Strict) {
  auto R = I.parse(ByteSpan::of(Bytes));
  EXPECT_TRUE(R) << R.message();
  if (!R)
    return serialize::PrintResult();
  std::string Before = render(*R, G);

  serialize::PrintOptions Opts;
  if (!Strict) {
    Opts.Gaps = serialize::GapPolicy::FillFromBackground;
    Opts.Background = ByteSpan::of(Bytes);
  }
  auto P = serialize::printTree(**R, G, &BB, Opts);
  EXPECT_TRUE(P) << P.message();
  if (!P)
    return serialize::PrintResult();
  EXPECT_EQ(P->Bytes, Bytes) << "print(parse(x)) != x";

  auto R2 = I.parse(ByteSpan::of(P->Bytes));
  EXPECT_TRUE(R2) << "printed bytes rejected: " << R2.message();
  if (R2) {
    EXPECT_EQ(render(*R2, G), Before)
        << "parse(print(parse(x))) != parse(x)";
  }
  auto Again = serialize::printTree(**R, G, &BB, Opts);
  EXPECT_TRUE(Again && Again->Bytes == Bytes)
      << "a tree changed under the engine's next parse";
  return std::move(*P);
}

} // namespace

//===----------------------------------------------------------------------===//
// Every engine tier: every format, scales 1 and 2.
//===----------------------------------------------------------------------===//

TEST(RoundtripTest, EveryTierPrintsEveryFormatCorpusByteExact) {
  std::vector<EngineKind> Kinds = engineTiers();
  size_t Roundtripped = 0;
  for (EngineKind Kind : Kinds) {
    SCOPED_TRACE(std::string("engine: ") + engineKindName(Kind));
    for (const formats::FormatInfo &FI : formats::allFormats()) {
      SCOPED_TRACE("format: " + FI.Name);
      auto FE = formats::makeFormatEngine(FI.Name, Kind);
      ASSERT_TRUE(FE) << FE.message();
      BlackboxRegistry BB = formats::standardBlackboxes(); // for the printer
      for (unsigned Scale : {1u, 2u}) {
        SCOPED_TRACE("scale: " + std::to_string(Scale));
        std::vector<uint8_t> Bytes = formats::sampleInput(FI.Name, Scale);
        ASSERT_FALSE(Bytes.empty());
        serialize::PrintResult P = roundtripEngine(
            **FE, FE->Load->G, BB, Bytes, strictPrintExact(FI.Name));
        if (strictPrintExact(FI.Name)) {
          EXPECT_EQ(P.GapBytes, 0u);
        }
        ++Roundtripped;
      }
    }
  }
  EXPECT_EQ(Roundtripped, 2 * Kinds.size() * formats::allFormats().size());
}

TEST(RoundtripTest, StrictModeFailsExactlyForNonLeafCoveringFormats) {
  for (const formats::FormatInfo &FI : formats::allFormats()) {
    SCOPED_TRACE("format: " + FI.Name);
    auto FE = formats::makeFormatEngine(FI.Name, EngineKind::Interp);
    ASSERT_TRUE(FE) << FE.message();
    BlackboxRegistry BB = formats::standardBlackboxes();
    std::vector<uint8_t> Bytes = formats::sampleInput(FI.Name, 1);
    auto R = (*FE)->parse(ByteSpan::of(Bytes));
    ASSERT_TRUE(R) << R.message();
    auto P = serialize::printTree(**R, FE->Load->G, &BB);
    EXPECT_EQ(static_cast<bool>(P), strictPrintExact(FI.Name))
        << FI.Name << " moved across the print-exact line; update "
        << "strictPrintExact AND docs/grammar-syntax.md";
  }
}

//===----------------------------------------------------------------------===//
// Megabyte-class corpus: the printer (and the engines feeding it) must
// survive trees whose depth tracks file size. PDF at scale 64 parses
// through over a million virtual recursion levels; ELF is a megabyte
// image. The roundtripEngine helper is unusable here — it diffs
// treeToString renders, whose two-spaces-per-level indentation makes a
// megabyte-deep dump O(depth^2) bytes — so this test compares the
// re-parse by node count instead.
//===----------------------------------------------------------------------===//

TEST(RoundtripTest, MegabyteCorpusPrintsByteExact) {
  for (const char *Name : {"pdf", "elf"}) {
    SCOPED_TRACE(Name);
    EngineOptions Opts;
    Opts.MaxDepth = size_t{1} << 21;
    auto FE = formats::makeFormatEngine(Name, EngineKind::Interp, Opts);
    ASSERT_TRUE(FE) << FE.message();
    BlackboxRegistry BB = formats::standardBlackboxes();

    std::vector<uint8_t> Bytes = formats::sampleInput(Name, 64);
    ASSERT_GE(Bytes.size(), size_t{1} << 20)
        << Name << ": scale-64 corpus is not megabyte-class";

    auto R = (*FE)->parse(ByteSpan::of(Bytes));
    ASSERT_TRUE(R) << R.message();
    size_t Nodes = treeSize(**R);
    ASSERT_GT(Nodes, 0u);

    serialize::PrintOptions POpts;
    if (!strictPrintExact(Name)) {
      POpts.Gaps = serialize::GapPolicy::FillFromBackground;
      POpts.Background = ByteSpan::of(Bytes);
    }
    auto P = serialize::printTree(**R, FE->Load->G, &BB, POpts);
    ASSERT_TRUE(P) << P.message();
    EXPECT_TRUE(P->Bytes == Bytes)
        << Name << ": print(parse(x)) != x on the megabyte corpus";

    auto R2 = (*FE)->parse(ByteSpan::of(P->Bytes));
    ASSERT_TRUE(R2) << R2.message();
    EXPECT_EQ(treeSize(**R2), Nodes)
        << Name << ": re-parse of the printed image changed shape";
  }
}

//===----------------------------------------------------------------------===//
// The blackbox inverse under load: DEFLATED zip entries force the printer
// through miniZlibBlackboxInverse — decoded output leaves are re-encoded
// and must land byte-exactly on the original compressed streams.
//===----------------------------------------------------------------------===//

TEST(RoundtripTest, DeflatedZipRoundTripsThroughBlackboxInverse) {
  for (EngineKind Kind : engineTiers()) {
    SCOPED_TRACE(std::string("engine: ") + engineKindName(Kind));
    auto FE = formats::makeFormatEngine("zip", Kind);
    ASSERT_TRUE(FE) << FE.message();
    BlackboxRegistry BB = formats::standardBlackboxes();
    std::vector<uint8_t> Bytes = formats::synthesizeZip(
        formats::zipArchiveOfCopies(4, 2048, /*Compress=*/true));
    serialize::PrintResult P =
        roundtripEngine(**FE, FE->Load->G, BB, Bytes, /*Strict=*/true);
    EXPECT_GT(P.BlackboxBytes, 0u)
        << "the corpus never exercised the inverse";
  }
}

TEST(RoundtripTest, MissingInverseIsAPrintErrorNotACrash) {
  auto FE = formats::makeFormatEngine("zip", EngineKind::Interp);
  ASSERT_TRUE(FE) << FE.message();
  std::vector<uint8_t> Bytes = formats::synthesizeZip(
      formats::zipArchiveOfCopies(1, 512, /*Compress=*/true));
  auto R = (*FE)->parse(ByteSpan::of(Bytes));
  ASSERT_TRUE(R) << R.message();

  BlackboxRegistry Forward; // forward-only: no inverse registered
  Forward.add("inflate", formats::miniZlibBlackbox);
  auto P = serialize::printTree(**R, FE->Load->G, &Forward);
  ASSERT_FALSE(P);
  EXPECT_NE(P.message().find("inverse"), std::string::npos) << P.message();
}

//===----------------------------------------------------------------------===//
// Span collection: the structure-aware fuzzer's substrate. Spans must be
// well-formed (within the output, lo < hi) and cover the root.
//===----------------------------------------------------------------------===//

TEST(RoundtripTest, CollectedSpansAreWellFormed) {
  auto FE = formats::makeFormatEngine("gif", EngineKind::Interp);
  ASSERT_TRUE(FE) << FE.message();
  std::vector<uint8_t> Bytes = formats::sampleInput("gif", 1);
  auto R = (*FE)->parse(ByteSpan::of(Bytes));
  ASSERT_TRUE(R) << R.message();
  serialize::PrintOptions Opts;
  Opts.CollectSpans = true;
  auto P = serialize::printTree(**R, FE->Load->G, nullptr, Opts);
  ASSERT_TRUE(P) << P.message();
  ASSERT_FALSE(P->Spans.empty());
  const auto &Root = P->Spans.front();
  EXPECT_EQ(Root.Depth, 0u);
  EXPECT_EQ(Root.Lo, 0);
  EXPECT_EQ(Root.Hi, static_cast<int64_t>(Bytes.size()));
  for (const serialize::PrintSpan &S : P->Spans) {
    EXPECT_LT(S.Lo, S.Hi);
    EXPECT_GE(S.Lo, 0);
    EXPECT_LE(S.Hi, static_cast<int64_t>(Bytes.size()));
  }
}

//===----------------------------------------------------------------------===//
// Standalone generated parsers: the same properties through the
// printTree they export, in a compiled child (CodegenTestHarness recipe).
// The child parses argv[1], prints (argv[3] = strict|fill, background =
// the input), RE-PARSES its own output and compares canonical dumps,
// then writes the printed bytes to argv[2] for the parent's byte-exact
// check. Exit codes: 0 ok, 1 parse reject, 4 print error, 5 printed
// bytes rejected, 6 round-trip tree mismatch.
//===----------------------------------------------------------------------===//

namespace {

bool compileRoundtripChild(const std::string &Generated,
                           const std::string &Tag, std::string &ExeOut,
                           const formats::GenBlackboxBridge *Bridge) {
  std::string Source = Generated;
  if (Bridge)
    Source += Bridge->DriverSource;
  Source +=
      "\n#include <cstdio>\n#include <cstring>\n#include <fstream>\n"
      "int main(int argc, char **argv) {\n"
      "  if (argc < 4) return 3;\n"
      "  std::ifstream In(argv[1], std::ios::binary);\n"
      "  std::vector<uint8_t> Bytes((std::istreambuf_iterator<char>(In)),"
      " std::istreambuf_iterator<char>());\n"
      "  gen::Parser P;\n" +
      std::string(Bridge ? "  ipgRegisterBlackboxes(P);\n" : "") +
      "  gen::NodePtr Root = nullptr;\n"
      "  if (!P.parse(Bytes.data(), Bytes.size(), Root)) return 1;\n"
      "  std::string Before = gen::dumpTree(Root);\n"
      "  ipg_rt::PrintOptions Opts;\n"
      "  if (!std::strcmp(argv[3], \"fill\")) {\n"
      "    Opts.Strict = false;\n"
      "    Opts.Background = Bytes.data();\n"
      "    Opts.BackgroundLen = Bytes.size();\n"
      "  }\n"
      "  ipg_rt::PrintOut R;\n"
      "  if (!P.printTree(Root, Opts, R)) {\n"
      "    std::fprintf(stderr, \"print: %s\\n\", R.Error.c_str());\n"
      "    return 4;\n"
      "  }\n"
      "  gen::NodePtr Again = nullptr;\n"
      "  if (!P.parse(R.Bytes.data(), R.Bytes.size(), Again)) return 5;\n"
      "  if (gen::dumpTree(Again) != Before) return 6;\n"
      "  std::ofstream Out(argv[2], std::ios::binary);\n"
      "  Out.write(reinterpret_cast<const char *>(R.Bytes.data()),\n"
      "            static_cast<std::streamsize>(R.Bytes.size()));\n"
      "  return Out ? 0 : 3;\n}\n";
  ExeOut = testutil::compileParserSource(
      Source, Tag,
      Bridge ? testutil::bridgeCompileArgs(Bridge->ExtraSources) : "");
  return !ExeOut.empty();
}

std::vector<uint8_t> runRoundtripChild(const std::string &Exe,
                                       const std::string &Tag,
                                       const std::vector<uint8_t> &Input,
                                       bool Strict, int &ExitCode) {
  std::string OutPath = testutil::childDir(Tag) + "/printed.bin";
  std::remove(OutPath.c_str());
  ExitCode = testutil::runChild(Exe, Tag, Input,
                                OutPath + (Strict ? " strict" : " fill"));
  std::ifstream In(OutPath, std::ios::binary);
  return std::vector<uint8_t>((std::istreambuf_iterator<char>(In)),
                              std::istreambuf_iterator<char>());
}

} // namespace

TEST(RoundtripTest, GeneratedParsersPrintEveryFormatCorpusByteExact) {
  if (!hostCompilerAvailable())
    GTEST_SKIP() << "no host C++ compiler";

  size_t Roundtripped = 0;
  for (const formats::FormatInfo &FI : formats::allFormats()) {
    SCOPED_TRACE("format: " + FI.Name);
    auto Load = formats::loadFormatGrammar(FI.Name);
    ASSERT_TRUE(Load) << Load.message();
    auto Code = emitCppParser(Load->G, "gen");
    ASSERT_TRUE(Code) << Code.message();
    const formats::GenBlackboxBridge *Bridge =
        formats::genBlackboxBridge(FI.Name);
    std::string Tag = "rt_" + FI.Name;
    std::string Exe;
    ASSERT_TRUE(compileRoundtripChild(*Code, Tag, Exe, Bridge));

    bool Strict = strictPrintExact(FI.Name);
    for (unsigned Scale : {1u, 2u}) {
      SCOPED_TRACE("scale: " + std::to_string(Scale));
      std::vector<uint8_t> Bytes = formats::sampleInput(FI.Name, Scale);
      int Exit = -1;
      std::vector<uint8_t> Printed =
          runRoundtripChild(Exe, Tag, Bytes, Strict, Exit);
      ASSERT_EQ(Exit, 0) << "child failed (see exit-code legend above)";
      EXPECT_EQ(Printed, Bytes) << "generated print(parse(x)) != x";
      ++Roundtripped;
    }
  }
  EXPECT_EQ(Roundtripped, 2 * formats::allFormats().size());
}

TEST(RoundtripTest, GeneratedDeflatedZipRoundTripsThroughInverseHook) {
  if (!hostCompilerAvailable())
    GTEST_SKIP() << "no host C++ compiler";

  auto Load = formats::loadFormatGrammar("zip");
  ASSERT_TRUE(Load) << Load.message();
  auto Code = emitCppParser(Load->G, "gen");
  ASSERT_TRUE(Code) << Code.message();
  const formats::GenBlackboxBridge *Bridge =
      formats::genBlackboxBridge("zip");
  ASSERT_NE(Bridge, nullptr);
  std::string Exe;
  ASSERT_TRUE(compileRoundtripChild(*Code, "rt_zip_deflated", Exe, Bridge));

  std::vector<uint8_t> Bytes = formats::synthesizeZip(
      formats::zipArchiveOfCopies(4, 2048, /*Compress=*/true));
  int Exit = -1;
  std::vector<uint8_t> Printed =
      runRoundtripChild(Exe, "rt_zip_deflated", Bytes, /*Strict=*/true,
                        Exit);
  ASSERT_EQ(Exit, 0);
  EXPECT_EQ(Printed, Bytes)
      << "generated inverse hook did not reproduce the deflate streams";
}
