//===- tests/integration_test.cpp - cross-cutting property tests ----------===//
//
// Part of the IPG reproduction of "Interval Parsing Grammars for File Format
// Parsing" (PLDI 2023). MIT license.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Properties that must hold across every format grammar at once:
///   * loading is deterministic and the pretty-printer round-trips,
///   * memoization never changes acceptance or the root environment,
///   * random single-byte corruption never crashes or hard-errors the
///     engine (failure injection: it either still parses or fails cleanly),
///   * truncation at every prefix length fails cleanly,
///   * the C++ emitter produces standalone code for every
///     non-blackbox grammar,
///   * engine statistics are consistent.
///
//===----------------------------------------------------------------------===//

#include "codegen/CppEmitter.h"
#include "formats/Dns.h"
#include "formats/Elf.h"
#include "formats/FormatRegistry.h"
#include "formats/Gif.h"
#include "formats/Ipv4Udp.h"
#include "formats/Pdf.h"
#include "formats/Pe.h"
#include "formats/Zip.h"
#include "frontend/Parser.h"
#include "runtime/Interp.h"
#include "support/Casting.h"

#include <cstddef>
#include <cstdint>
#include <gtest/gtest.h>
#include <optional>
#include <string>
#include <string_view>
#include <utility>
#include <vector>

using namespace ipg;
using namespace ipg::formats;

namespace {

/// A representative valid sample per format.
std::vector<uint8_t> sampleFor(const std::string &Name, uint64_t Seed) {
  if (Name == "zip")
    return synthesizeZip(zipArchiveOfCopies(3, 200, Seed % 2 == 0, Seed));
  if (Name == "gif") {
    GifSynthSpec Spec;
    Spec.NumExtensions = 1 + Seed % 3;
    Spec.NumImages = 1 + Seed % 2;
    Spec.Seed = Seed;
    return synthesizeGif(Spec);
  }
  if (Name == "pe") {
    PeSynthSpec Spec;
    Spec.NumSections = 2 + Seed % 4;
    Spec.Seed = Seed;
    return synthesizePe(Spec);
  }
  if (Name == "elf") {
    ElfSynthSpec Spec;
    Spec.NumSymbols = 4 + Seed % 16;
    Spec.NumDynEntries = 2 + Seed % 8;
    Spec.Seed = Seed;
    return synthesizeElf(Spec);
  }
  if (Name == "pdf") {
    PdfSynthSpec Spec;
    Spec.NumObjects = 2 + Seed % 5;
    Spec.Seed = Seed;
    return synthesizePdf(Spec);
  }
  if (Name == "ipv4udp") {
    Ipv4SynthSpec Spec;
    Spec.PayloadSize = 32 + Seed % 200;
    Spec.OptionWords = Seed % 3;
    Spec.Seed = Seed;
    return synthesizeIpv4Udp(Spec);
  }
  DnsSynthSpec Spec;
  Spec.NumAnswers = 1 + Seed % 6;
  Spec.Seed = Seed;
  return synthesizeDns(Spec);
}

class FormatProperty : public ::testing::TestWithParam<FormatInfo> {
protected:
  void SetUp() override {
    auto R = loadGrammar(GetParam().GrammarText);
    ASSERT_TRUE(R) << R.message();
    G.emplace(std::move(R->G));
    BB = standardBlackboxes();
  }
  const BlackboxRegistry *blackboxes() const {
    return GetParam().NeedsBlackbox ? &BB : nullptr;
  }
  std::optional<Grammar> G;
  BlackboxRegistry BB;
};

} // namespace

TEST_P(FormatProperty, PrettyPrinterRoundTrips) {
  // Print the loaded grammar and re-load the printed form; explicit
  // intervals survive verbatim, completed ones are re-printable.
  std::string Printed = G->str();
  auto G2 = parseGrammarText(GetParam().GrammarText);
  ASSERT_TRUE(G2) << G2.message();
  EXPECT_EQ(G->numRules(), G2->numRules());
  EXPECT_FALSE(Printed.empty());
}

TEST_P(FormatProperty, ValidSamplesParse) {
  for (uint64_t Seed = 1; Seed <= 8; ++Seed) {
    auto Bytes = sampleFor(GetParam().Name, Seed);
    EngineOptions Opts;
    Opts.MaxDepth = 1 << 16;
    Interp I(*G, blackboxes(), Opts);
    auto Tree = I.parse(ByteSpan::of(Bytes));
    EXPECT_TRUE(Tree) << GetParam().Name << " seed " << Seed << ": "
                      << Tree.message();
  }
}

TEST_P(FormatProperty, MemoizationPreservesMeaning) {
  auto Bytes = sampleFor(GetParam().Name, 3);
  EngineOptions On;
  On.MaxDepth = 1 << 16;
  EngineOptions Off = On;
  Off.UseMemo = false;
  Interp IOn(*G, blackboxes(), On);
  Interp IOff(*G, blackboxes(), Off);
  auto TOn = IOn.parse(ByteSpan::of(Bytes));
  auto TOff = IOff.parse(ByteSpan::of(Bytes));
  ASSERT_EQ(static_cast<bool>(TOn), static_cast<bool>(TOff));
  if (TOn && TOff) {
    const auto *NOn = cast<NodeTree>(TOn->get());
    const auto *NOff = cast<NodeTree>(TOff->get());
    // Same root environment, entry by entry.
    EXPECT_EQ(NOn->env().size(), NOff->env().size());
    for (const auto &[Key, Value] : NOn->env())
      EXPECT_EQ(NOff->attr(Key), Value)
          << GetParam().Name << " attr "
          << G->interner().name(Key);
    EXPECT_EQ(treeSize(*TOn->get()), treeSize(*TOff->get()));
  }
}

TEST_P(FormatProperty, SingleByteCorruptionNeverCrashes) {
  // Failure injection: flip one byte at a pseudo-random position, 64
  // trials. The engine must either still accept (corruption hit a don't-
  // care byte) or reject cleanly — never hard-error or crash.
  auto Bytes = sampleFor(GetParam().Name, 5);
  uint64_t Rng = 0x9e3779b97f4a7c15ULL;
  EngineOptions Opts;
  Opts.MaxDepth = 1 << 16;
  Interp I(*G, blackboxes(), Opts);
  for (int Trial = 0; Trial < 64; ++Trial) {
    Rng = Rng * 6364136223846793005ULL + 1442695040888963407ULL;
    size_t Pos = (Rng >> 33) % Bytes.size();
    uint8_t Flip = static_cast<uint8_t>(1 + ((Rng >> 20) & 0xfe));
    auto Mutant = Bytes;
    Mutant[Pos] ^= Flip;
    auto Tree = I.parse(ByteSpan::of(Mutant));
    if (!Tree) {
      // Clean rejection only — not an engine hard error.
      EXPECT_EQ(Tree.message().find("depth"), std::string::npos)
          << GetParam().Name << " pos " << Pos;
      EXPECT_EQ(Tree.message().find("internal"), std::string::npos);
    }
  }
}

TEST_P(FormatProperty, EveryTruncationFailsCleanly) {
  auto Bytes = sampleFor(GetParam().Name, 2);
  EngineOptions Opts;
  Opts.MaxDepth = 1 << 16;
  Interp I(*G, blackboxes(), Opts);
  // Sweep a spread of prefix lengths including the empty input.
  for (size_t Len = 0; Len < Bytes.size();
       Len += 1 + Bytes.size() / 37) {
    std::vector<uint8_t> Prefix(Bytes.begin(), Bytes.begin() + Len);
    auto Tree = I.parse(ByteSpan::of(Prefix));
    // GIF tolerates some truncations structurally (trailing blocks are
    // optional), all other formats anchor on totals/magics at both ends;
    // either way the engine must not hard-error.
    if (!Tree) {
      EXPECT_EQ(Tree.message().find("internal"), std::string::npos)
          << GetParam().Name << " truncated to " << Len;
    }
  }
}

TEST_P(FormatProperty, CodegenEmitsForEveryGrammar) {
  auto Code = emitCppParser(*G, "gen");
  ASSERT_TRUE(Code) << Code.message();
  EXPECT_NE(Code->find("bool parse(const uint8_t *Data"),
            std::string::npos);
  // One parse function per rule.
  for (size_t I = 0; I < G->numRules(); ++I)
    EXPECT_NE(Code->find("parseRule_" + std::to_string(I) + "("),
              std::string::npos);
  // Blackbox grammars emit the runtime registration hook (the driver
  // binds decoders with Parser::registerBlackbox before parsing).
  if (GetParam().NeedsBlackbox) {
    EXPECT_NE(Code->find("C.callBlackbox("), std::string::npos);
  }
}

TEST_P(FormatProperty, StatsAreConsistent) {
  auto Bytes = sampleFor(GetParam().Name, 4);
  EngineOptions Opts;
  Opts.MaxDepth = 1 << 16;
  Interp I(*G, blackboxes(), Opts);
  auto Tree = I.parse(ByteSpan::of(Bytes));
  ASSERT_TRUE(Tree) << Tree.message();
  const EngineStats &S = I.stats();
  EXPECT_GT(S.NodesCreated, 0u);
  EXPECT_GT(S.TermsExecuted, 0u);
  EXPECT_GT(S.PeakDepth, 0u);
  EXPECT_LE(S.PeakDepth, Opts.MaxDepth);
  // The tree cannot contain more nodes than were created.
  EXPECT_LE(treeSize(*Tree->get()), S.NodesCreated + S.TermsExecuted);
}

INSTANTIATE_TEST_SUITE_P(
    AllFormats, FormatProperty, ::testing::ValuesIn(allFormats()),
    [](const ::testing::TestParamInfo<FormatInfo> &Info) {
      return Info.param.Name;
    });

//===----------------------------------------------------------------------===//
// Engine-level properties on the paper's toy grammars.
//===----------------------------------------------------------------------===//

TEST(EngineProperty, MemoKeysAreAbsoluteNotRelative) {
  // Two different slices with identical *content* must not share memo
  // entries (keys are absolute offsets): "xx" at [0,2) and [2,4) both
  // parse, each against its own slice.
  auto R = loadGrammar(R"(
    S -> A[0, 2] A[2, 4] ;
    A -> "x"[0, 1] A[1, EOI] / "x"[0, 1] ;
  )");
  ASSERT_TRUE(R) << R.message();
  Interp I(R->G);
  auto T = I.parse(ByteSpan::of(std::string_view("xxxx")));
  EXPECT_TRUE(T) << T.message();
  // And content that differs between the slices is judged independently.
  EXPECT_FALSE(I.parse(ByteSpan::of(std::string_view("xxyy"))));
}

TEST(EngineProperty, DeepRecursionWithinLimitSucceeds) {
  auto R = loadGrammar(R"(A -> "x"[0, 1] A[1, EOI] / "x"[0, 1] ;)");
  ASSERT_TRUE(R) << R.message();
  EngineOptions Opts;
  Opts.MaxDepth = 3000;
  Interp I(R->G, nullptr, Opts);
  std::string Long(2000, 'x');
  EXPECT_TRUE(I.parse(ByteSpan::of(Long)));
  std::string TooLong(4000, 'x');
  auto T = I.parse(ByteSpan::of(TooLong));
  ASSERT_FALSE(T);
  EXPECT_NE(T.message().find("depth"), std::string::npos);
}

TEST(EngineProperty, OverlappingIntervalsAreIndependent) {
  // Two-pass parsing: the same region is parsed by two different rules.
  auto R = loadGrammar(R"(
    S -> First[0, EOI] Second[0, EOI] ;
    First -> "ab"[0, 2] ;
    Second -> "a"[0, 1] raw[1, EOI] ;
  )");
  ASSERT_TRUE(R) << R.message();
  Interp I(R->G);
  EXPECT_TRUE(I.parse(ByteSpan::of(std::string_view("abcd"))));
  EXPECT_FALSE(I.parse(ByteSpan::of(std::string_view("xbcd"))));
}

TEST(EngineProperty, AttributesFlowOnlyForward) {
  // A reference to an attribute of a *later* term is resolved by the
  // topological reorder, not by the textual position.
  auto R = loadGrammar(R"(
    S -> "pad"[0, B.k] B[3, 6] ;
    B -> raw[0, 3] {k = u8(0) - 97 + 3} ;
  )");
  ASSERT_TRUE(R) << R.message();
  Interp I(R->G);
  // B parses [3,6) = "abc"; B.k = 'a' - 97 + 3 = 3; "pad" must fit [0,3).
  EXPECT_TRUE(I.parse(ByteSpan::of(std::string_view("padabc"))));
  // With 'b' at offset 3, B.k = 4 and "pad"[0,4) still matches a prefix.
  EXPECT_TRUE(I.parse(ByteSpan::of(std::string_view("padbbc"))));
}

TEST(EngineProperty, EmptyInputHandledEverywhere) {
  for (const FormatInfo &F : allFormats()) {
    auto R = loadGrammar(F.GrammarText);
    ASSERT_TRUE(R) << R.message();
    BlackboxRegistry BB = standardBlackboxes();
    Interp I(R->G, F.NeedsBlackbox ? &BB : nullptr);
    auto T = I.parse(ByteSpan());
    EXPECT_FALSE(T) << F.Name << " accepted empty input";
  }
}
