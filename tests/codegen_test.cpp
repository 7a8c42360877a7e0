//===- tests/codegen_test.cpp - C++ parser generator tests ----------------===//
//
// Part of the IPG reproduction of "Interval Parsing Grammars for File Format
// Parsing" (PLDI 2023). MIT license.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The Section 7 parser generator: emitted code is checked structurally
/// (one function per nonterminal, no library dependencies) and — where a
/// host compiler is available — compiled and executed against the same
/// inputs the engine accepts/rejects.
///
//===----------------------------------------------------------------------===//

#include "codegen/CppEmitter.h"

#include "CodegenTestHarness.h"
#include "analysis/AttributeCheck.h"
#include "formats/Elf.h"
#include "runtime/Interp.h"

#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <gtest/gtest.h>
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

/// Writes the generated parser + a driver main, compiles, and runs it on
/// \p Input; returns the executable's exit code (0 = accepted) or -1 on
/// infrastructure failure.
int compileAndRun(const std::string &Generated,
                  const std::vector<uint8_t> &Input,
                  const std::string &ExtraMain, const std::string &Tag) {
  std::string Source =
      Generated +
      "\n#include <cstdio>\n#include <fstream>\n"
      "int main(int argc, char **argv) {\n"
      "  if (argc < 2) return 3;\n"
      "  std::ifstream In(argv[1], std::ios::binary);\n"
      "  std::vector<uint8_t> Bytes((std::istreambuf_iterator<char>(In)),"
      " std::istreambuf_iterator<char>());\n"
      "  gen::NodePtr Root;\n"
      "  if (!gen::parse(Bytes.data(), Bytes.size(), Root)) return 1;\n" +
      ExtraMain + "  return 0;\n}\n";
  std::string Exe = testutil::compileParserSource(Source, Tag);
  if (Exe.empty())
    return -1;
  return testutil::runChild(Exe, Tag, Input);
}

} // namespace

TEST(CodegenTest, EmitsOneFunctionPerRule) {
  Grammar G = load(R"(
    S -> A[0, 2] B[EOI - 2, EOI] ;
    A -> "aa"[0, 2] ;
    B -> "bb"[0, 2] ;
  )");
  auto Code = emitCppParser(G, "gen");
  ASSERT_TRUE(Code) << Code.message();
  EXPECT_NE(Code->find("parseRule_0"), std::string::npos);
  EXPECT_NE(Code->find("parseRule_1"), std::string::npos);
  EXPECT_NE(Code->find("parseRule_2"), std::string::npos);
  EXPECT_NE(Code->find("namespace gen"), std::string::npos);
  EXPECT_NE(Code->find("bool parse(const uint8_t *Data"), std::string::npos);
  // Standalone: no includes of this library.
  EXPECT_EQ(Code->find("ipg/"), std::string::npos);
  EXPECT_EQ(Code->find("runtime/Interp.h"), std::string::npos);
}

TEST(CodegenTest, EmitsMemoizationForGlobalRulesOnly) {
  Grammar G = load(R"(
    S -> A[0, EOI] ;
    A -> L[0, EOI] where { L -> raw ; } ;
  )");
  auto Code = emitCppParser(G, "gen");
  ASSERT_TRUE(Code) << Code.message();
  // Global rules memoize; the local (where-clause) rule must not — its
  // meaning depends on the enclosing frame, as in the interpreter.
  EXPECT_NE(Code->find("C.memoFind("), std::string::npos);
  RuleId Local = InvalidRuleId;
  for (size_t I = 0; I < G.numRules(); ++I)
    if (G.rule(static_cast<RuleId>(I)).IsLocal)
      Local = static_cast<RuleId>(I);
  ASSERT_NE(Local, InvalidRuleId);
  EXPECT_EQ(Code->find("C.memoFind(" + std::to_string(Local) + "u"),
            std::string::npos);

  EngineOptions Off;
  Off.UseMemo = false;
  auto Plain = emitCppParser(G, "gen", Off);
  ASSERT_TRUE(Plain) << Plain.message();
  EXPECT_EQ(Plain->find("C.memoFind("), std::string::npos);
}

TEST(CodegenTest, BlackboxGrammarsCompileAndUseTheRegistrationHook) {
  // Blackbox terms now emit calls into the ipg_rt hook instead of being
  // rejected; without a host compiler only the structure is checked.
  Grammar G = load(R"(
    blackbox bb ;
    S -> bb[0, EOI] {v = bb.val} ;
  )");
  auto Code = emitCppParser(G, "gen");
  ASSERT_TRUE(Code) << Code.message();
  EXPECT_NE(Code->find("callBlackbox"), std::string::npos);
  EXPECT_NE(Code->find("registerBlackbox"), std::string::npos);

  if (!hostCompilerAvailable())
    GTEST_SKIP() << "no host C++ compiler";

  // A driver-registered blackbox resolves: it consumes 2 bytes, reports
  // value 7, and decodes output bytes that become a leaf child. The
  // attribute plumbing (v = bb.val) must see the reported value.
  std::string Bridge =
      "static bool testBb(void *, const unsigned char *, size_t Len,\n"
      "                   ipg_rt::BlackboxOut &Out) {\n"
      "  static const unsigned char Decoded[3] = {9, 9, 9};\n"
      "  if (Len < 2) return false;\n"
      "  Out.Value = 7; Out.End = 2;\n"
      "  Out.Output = Decoded; Out.OutputLen = 3;\n"
      "  return true;\n"
      "}\n";
  std::string Source =
      *Code + Bridge +
      "\n#include <cstdio>\n#include <fstream>\n"
      "int main(int argc, char **argv) {\n"
      "  if (argc < 2) return 3;\n"
      "  std::ifstream In(argv[1], std::ios::binary);\n"
      "  std::vector<uint8_t> Bytes((std::istreambuf_iterator<char>(In)),"
      " std::istreambuf_iterator<char>());\n"
      "  gen::Parser P;\n"
      "  bool Registered = argc > 2 && argv[2][0] == 'r';\n"
      "  if (Registered && !P.registerBlackbox(\"bb\", testBb)) return 4;\n"
      "  if (P.registerBlackbox(\"no_such_blackbox\", testBb)) return 5;\n"
      "  // Grammar symbols that are not declared blackboxes (the rule\n"
      "  // name, an attribute) must be rejected, not silently bound.\n"
      "  if (P.registerBlackbox(\"S\", testBb)) return 5;\n"
      "  if (P.registerBlackbox(\"v\", testBb)) return 5;\n"
      "  gen::NodePtr Root = nullptr;\n"
      "  if (!P.parse(Bytes.data(), Bytes.size(), Root)) return 1;\n"
      "  if (Root->attr(gen::sym(\"v\")) != 7) return 6;\n"
      "  std::string D = gen::dumpTree(Root);\n"
      "  if (D.find(\"Node bb\") == std::string::npos) return 7;\n"
      "  if (D.find(\"Leaf off=0 len=3\") == std::string::npos) return 8;\n"
      "  return 0;\n}\n";
  std::string Exe = testutil::compileParserSource(Source, "bb_hook");
  ASSERT_FALSE(Exe.empty());
  std::vector<uint8_t> In = {1, 2, 3, 4};
  EXPECT_EQ(testutil::runChild(Exe, "bb_hook", In, "r"), 0);
  // Unregistered: the blackbox term hard-fails the parse at run time.
  EXPECT_EQ(testutil::runChild(Exe, "bb_hook", In), 1);
}

TEST(CodegenTest, CompiledParserAgreesOnToyGrammar) {
  if (!hostCompilerAvailable())
    GTEST_SKIP() << "no host C++ compiler";
  Grammar G = load(R"(
    S -> check(EOI % 3 = 0) {n = EOI / 3} A[0, n] B[n, 2 * n] C[2 * n, 3 * n] ;
    A -> "a"[0, 1] A[1, EOI] / "a"[0, 1] ;
    B -> "b"[0, 1] B[1, EOI] / "b"[0, 1] ;
    C -> "c"[0, 1] C[1, EOI] / "c"[0, 1] ;
  )");
  auto Code = emitCppParser(G, "gen");
  ASSERT_TRUE(Code) << Code.message();

  std::string Good = "aaabbbccc";
  EXPECT_EQ(compileAndRun(*Code,
                          std::vector<uint8_t>(Good.begin(), Good.end()), "",
                          "anbncn_good"),
            0);
  std::string Bad = "aaabbbbcc";
  EXPECT_EQ(compileAndRun(*Code,
                          std::vector<uint8_t>(Bad.begin(), Bad.end()), "",
                          "anbncn_bad"),
            1);
}

TEST(CodegenTest, CompiledParserComputesAttributes) {
  if (!hostCompilerAvailable())
    GTEST_SKIP() << "no host C++ compiler";
  Grammar G = load(R"(
    Int -> Int[0, EOI - 1] Digit[EOI - 1, EOI] {val = 2 * Int.val + Digit.val}
         / Digit[0, 1] {val = Digit.val} ;
    Digit -> "0"[0, 1] {val = 0} / "1"[0, 1] {val = 1} ;
  )");
  auto Code = emitCppParser(G, "gen");
  ASSERT_TRUE(Code) << Code.message();
  // The driver checks Int.val == 45 for input "101101".
  std::string Check =
      "  if (Root->attr(gen::sym(\"val\")) != 45) return 2;\n";
  std::string In = "101101";
  EXPECT_EQ(compileAndRun(*Code, std::vector<uint8_t>(In.begin(), In.end()),
                          Check, "binint"),
            0);
}

TEST(CodegenTest, CompiledElfParserAgreesWithEngine) {
  if (!hostCompilerAvailable())
    GTEST_SKIP() << "no host C++ compiler";
  auto R = formats::loadElfGrammar();
  ASSERT_TRUE(R) << R.message();
  auto Code = emitCppParser(R->G, "gen");
  ASSERT_TRUE(Code) << Code.message();

  formats::ElfSynthSpec Spec;
  Spec.NumSymbols = 5;
  Spec.NumDynEntries = 3;
  formats::ElfModel Model;
  auto Bytes = formats::synthesizeElf(Spec, &Model);

  // Engine accepts; generated parser must too, with the same header attrs.
  Interp I(R->G);
  ASSERT_TRUE(I.parse(ByteSpan::of(Bytes)));
  std::string Check =
      "  const ipg_rt::NodeTree *H = nullptr;\n"
      "  for (ipg_rt::TreeRef K : Root->children())\n"
      "    if (!H) H = ipg_rt::asNode(K.get());\n"
      "  if (!H) return 2;\n"
      "  if (H->attr(gen::sym(\"num\")) != " +
      std::to_string(Model.ShNum) + ") return 2;\n";
  EXPECT_EQ(compileAndRun(*Code, Bytes, Check, "elf_good"), 0);

  auto Bad = Bytes;
  Bad[1] = 'X';
  EXPECT_FALSE(Interp(R->G).parse(ByteSpan::of(Bad)));
  EXPECT_EQ(compileAndRun(*Code, Bad, "", "elf_bad"), 1);
}
