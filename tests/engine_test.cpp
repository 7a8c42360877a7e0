//===- tests/engine_test.cpp - Engine interface & factory tests -----------===//
//
// Part of the IPG reproduction of "Interval Parsing Grammars for File Format
// Parsing" (PLDI 2023). MIT license.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The unified-Engine surface: makeEngine/makeFormatEngine build both the
/// interpreter and the in-process generated engine (GenModule + GenEngine,
/// dlopen'd — not the out-of-process child harness differential_test
/// drives), the two must produce byte-identical canonical trees, honor
/// the SAME EngineOptions (depth limit, memoization), and both must obey
/// the stats contract: stats() describes the most recent parse() call,
/// even one that failed before reaching the grammar. GenModule's own
/// guards are covered too: the tree-layout and name-table checks that
/// let a module build into the host's store, and its work directory's
/// handling of paths the shell would split.
///
//===----------------------------------------------------------------------===//

#include "analysis/AttributeCheck.h"
#include "codegen/GenEngine.h"
#include "formats/FormatRegistry.h"
#include "runtime/Engine.h"
#include "runtime/Interp.h"

#include "TreeCanonical.h"

#include <cstdlib>
#include <filesystem>
#include <fstream>
#include <gtest/gtest.h>
#include <string>
#include <unistd.h>

using namespace ipg;
using testutil::renderCanonical;

namespace {

Grammar load(const std::string &Src) {
  auto R = loadGrammar(Src);
  EXPECT_TRUE(R) << R.message();
  if (!R)
    std::abort();
  return std::move(R->G);
}

bool haveGen() { return GenModule::hostCompilerAvailable(); }

} // namespace

TEST(EngineFactory, KindNamesAreStable) {
  EXPECT_STREQ(engineKindName(EngineKind::Interp), "interp");
  EXPECT_STREQ(engineKindName(EngineKind::Generated), "generated");
}

TEST(EngineFactory, BuildsAnInterpreterOverACustomGrammar) {
  Grammar G = load(R"(S -> "ab"[0, 2] {v = 7} ;)");
  auto E = makeEngine(EngineKind::Interp, G);
  ASSERT_TRUE(E) << E.message();
  EXPECT_EQ((*E)->kind(), EngineKind::Interp);
  EXPECT_EQ(&(*E)->grammar(), &G);
  std::vector<uint8_t> In = {'a', 'b'};
  auto T = (*E)->parse(ByteSpan::of(In));
  ASSERT_TRUE(T) << T.message();
  EXPECT_NE(renderCanonical(*T, G).find("v=7"), std::string::npos);
}

// The heart of the api_redesign: one factory, two engines, identical
// trees — including zip, whose generated module compiles the MiniZlib
// bridge in and registers it through the epilogue hook.
TEST(EngineFactory, InterpAndGeneratedProduceIdenticalTreesInProcess) {
  if (!haveGen())
    GTEST_SKIP() << "no host C++ compiler";
  for (const char *Name : {"gif", "dns", "zip"}) {
    SCOPED_TRACE(Name);
    auto IE = formats::makeFormatEngine(Name, EngineKind::Interp);
    ASSERT_TRUE(IE) << IE.message();
    auto GE = formats::makeFormatEngine(Name, EngineKind::Generated);
    ASSERT_TRUE(GE) << GE.message();
    EXPECT_EQ((*GE)->kind(), EngineKind::Generated);

    for (unsigned Scale : {1u, 3u}) {
      SCOPED_TRACE(Scale);
      std::vector<uint8_t> In = formats::sampleInput(Name, Scale);
      ASSERT_FALSE(In.empty());
      auto TI = (*IE)->parse(ByteSpan::of(In));
      ASSERT_TRUE(TI) << TI.message();
      auto TG = (*GE)->parse(ByteSpan::of(In));
      ASSERT_TRUE(TG) << TG.message();
      EXPECT_EQ(renderCanonical(*TI, IE->Load->G),
                renderCanonical(*TG, GE->Load->G));
      // The engines expose the shared counters with the same meaning.
      EXPECT_EQ((*IE)->stats().NodesCreated, (*GE)->stats().NodesCreated);
      EXPECT_EQ((*IE)->stats().MemoMisses, (*GE)->stats().MemoMisses);
    }
  }
}

TEST(EngineFactory, GeneratedEngineReportsAUsefulErrorOnRejection) {
  if (!haveGen())
    GTEST_SKIP() << "no host C++ compiler";
  auto GE = formats::makeFormatEngine("gif", EngineKind::Generated);
  ASSERT_TRUE(GE) << GE.message();
  std::vector<uint8_t> Junk = {'n', 'o', 't', 'a', 'g', 'i', 'f'};
  auto T = (*GE)->parse(ByteSpan::of(Junk));
  ASSERT_FALSE(T);
  EXPECT_NE(T.message().find("rejected"), std::string::npos);
}

// The PR's satellite bugfix: Interp::parse used to return early on an
// unknown start nonterminal BEFORE resetting Stats, leaving the previous
// parse's numbers visible through stats(). Both failure shapes must
// describe the failing call.
TEST(EngineStatsContract, EarlyFailureResetsTheInterpreterStats) {
  Grammar G = load(R"(S -> "ab"[0, 2] {v = 7} ;)");
  Interp I(G);
  std::vector<uint8_t> In = {'a', 'b'};
  ASSERT_TRUE(I.parse(ByteSpan::of(In)));
  ASSERT_GT(I.stats().NodesCreated, 0u);
  ASSERT_GT(I.stats().TermsExecuted, 0u);

  Symbol Bogus = G.interner().intern("no_such_rule");
  ASSERT_FALSE(I.parse(ByteSpan::of(In), Bogus));
  EXPECT_EQ(I.stats().NodesCreated, 0u)
      << "stats() must describe the failed call, not the previous parse";
  EXPECT_EQ(I.stats().TermsExecuted, 0u);
  EXPECT_EQ(I.stats().MemoMisses, 0u);
  EXPECT_EQ(I.stats().PeakDepth, 0u);
}

TEST(EngineStatsContract, RejectedInputsLeaveThatParsesStats) {
  for (EngineKind Kind : {EngineKind::Interp, EngineKind::Generated}) {
    if (Kind == EngineKind::Generated && !haveGen())
      continue;
    SCOPED_TRACE(engineKindName(Kind));
    auto FE = formats::makeFormatEngine("gif", Kind);
    ASSERT_TRUE(FE) << FE.message();
    std::vector<uint8_t> Good = formats::sampleInput("gif", 3);
    ASSERT_TRUE((*FE)->parse(ByteSpan::of(Good)));
    size_t GoodNodes = (*FE)->stats().NodesCreated;
    ASSERT_GT(GoodNodes, 0u);

    // Truncate to a handful of header bytes: the parse fails early and
    // its stats must be (much) smaller than the successful run's.
    std::vector<uint8_t> Bad(Good.begin(), Good.begin() + 4);
    ASSERT_FALSE((*FE)->parse(ByteSpan::of(Bad)));
    EXPECT_LT((*FE)->stats().NodesCreated, GoodNodes);
  }
}

namespace {
/// T recurses once per leading 'a'; the raw fallback would accept ANY
/// input if the depth failure were soft (same shape differential_test
/// uses for the child-process harness).
const char *DeepGrammar = R"(
  S -> T[0, EOI] / raw[0, EOI] ;
  T -> "a"[0, 1] T[1, EOI] / "a"[0, 1] ;
)";
} // namespace

// Satellite regression: the consolidated EngineOptions::MaxDepth must
// mean the same thing to both engines — one value, one behavior.
TEST(EngineOptionsParity, BothEnginesHonorTheSameDepthLimit) {
  Grammar G = load(DeepGrammar);
  EngineOptions Opts;
  Opts.MaxDepth = 64;
  std::vector<uint8_t> Shallow(10, 'a');
  std::vector<uint8_t> Deep(100, 'a');

  for (EngineKind Kind : {EngineKind::Interp, EngineKind::Generated}) {
    if (Kind == EngineKind::Generated && !haveGen())
      continue;
    SCOPED_TRACE(engineKindName(Kind));
    auto E = makeEngine(Kind, G, nullptr, Opts);
    ASSERT_TRUE(E) << E.message();
    EXPECT_TRUE((*E)->parse(ByteSpan::of(Shallow)));
    EXPECT_FALSE((*E)->parse(ByteSpan::of(Deep)))
        << "the depth limit must abort the parse, not fall back to raw";
  }
}

TEST(EngineOptionsParity, UseMemoOffPreservesTreesOnBothEngines) {
  EngineOptions On;
  EngineOptions Off;
  Off.UseMemo = false;
  std::vector<uint8_t> In = formats::sampleInput("dns", 2);
  ASSERT_FALSE(In.empty());

  for (EngineKind Kind : {EngineKind::Interp, EngineKind::Generated}) {
    if (Kind == EngineKind::Generated && !haveGen())
      continue;
    SCOPED_TRACE(engineKindName(Kind));
    auto EOn = formats::makeFormatEngine("dns", Kind, On);
    auto EOff = formats::makeFormatEngine("dns", Kind, Off);
    ASSERT_TRUE(EOn) << EOn.message();
    ASSERT_TRUE(EOff) << EOff.message();
    auto TOn = (*EOn)->parse(ByteSpan::of(In));
    auto TOff = (*EOff)->parse(ByteSpan::of(In));
    ASSERT_TRUE(TOn) << TOn.message();
    ASSERT_TRUE(TOff) << TOff.message();
    EXPECT_EQ(renderCanonical(*TOn, EOn->Load->G),
              renderCanonical(*TOff, EOff->Load->G));
    EXPECT_EQ((*EOff)->stats().MemoMisses, 0u)
        << "UseMemo=false must really disable the table";
  }
}

//===----------------------------------------------------------------------===//
// GenModule / GenEngine: one store, guarded layout and names, work dirs
//===----------------------------------------------------------------------===//

// GenEngine hands the module its recycled store and returns the tree the
// module built there: the result's store comes back for the next parse,
// and a store adopted after a FrozenTree round trip is the one the next
// parse builds into.
TEST(GenEngineStore, ParsesBuildIntoTheEnginesRecycledStore) {
  if (!haveGen())
    GTEST_SKIP() << "no host C++ compiler";
  auto GE = formats::makeFormatEngine("dns", EngineKind::Generated);
  ASSERT_TRUE(GE) << GE.message();
  std::vector<uint8_t> In = formats::sampleInput("dns", 1);
  const TreeStore *First = nullptr;
  {
    auto T = (*GE)->parse(ByteSpan::of(In));
    ASSERT_TRUE(T) << T.message();
    First = T->store();
    EXPECT_EQ((*GE)->stats().ArenaBytesUsed, First->arenaBytesUsed());
  }
  auto T2 = (*GE)->parse(ByteSpan::of(In));
  ASSERT_TRUE(T2) << T2.message();
  EXPECT_TRUE((*GE)->stats().StoreRecycled);
  EXPECT_EQ(T2->store(), First);

  TreeStore *Home = T2->detach().releaseStore();
  ASSERT_TRUE((*GE)->adoptStore(Home));
  auto T3 = (*GE)->parse(ByteSpan::of(In));
  ASSERT_TRUE(T3) << T3.message();
  EXPECT_TRUE((*GE)->stats().StoreRecycled);
  EXPECT_EQ(T3->store(), Home);
}

// A module compiled with another layout for the shared tree types (here
// forced by packing every struct) must be refused at load: the host would
// otherwise read its trees with the wrong offsets.
TEST(GenModuleGuards, RefusesAModuleWithAnotherTreeLayout) {
  if (!haveGen())
    GTEST_SKIP() << "no host C++ compiler";
  Grammar G = load(R"(S -> "ab"[0, 2] {v = 7} ;)");
  GenModuleConfig Config;
  Config.ExtraCompileArgs = "-fpack-struct=4";
  auto M = GenModule::compile(G, {}, Config);
  ASSERT_FALSE(M);
  EXPECT_NE(M.message().find("layout differs"), std::string::npos)
      << M.message();
  // The same grammar without the flag loads.
  EXPECT_TRUE(GenModule::compile(G)) << "the control module was refused";
}

// Trees carry Symbols, so a module may only run against the grammar whose
// interner numbered its name table; any other grammar is refused.
TEST(GenModuleGuards, GenEngineRefusesAGrammarWithOtherSymbols) {
  if (!haveGen())
    GTEST_SKIP() << "no host C++ compiler";
  Grammar G = load(R"(S -> "ab"[0, 2] {v = 7} ;)");
  Grammar Other = load(R"(T -> "ab"[0, 2] {w = 7} ;)");
  auto M = GenModule::compile(G);
  ASSERT_TRUE(M) << M.message();
  std::vector<uint8_t> In = {'a', 'b'};
  GenEngine Right(*M, G);
  EXPECT_TRUE(Right.parse(ByteSpan::of(In)));
  GenEngine Wrong(*M, Other);
  auto T = Wrong.parse(ByteSpan::of(In));
  ASSERT_FALSE(T);
  EXPECT_NE(T.message().find("name table"), std::string::npos)
      << T.message();
}

// TMPDIR is a path, not shell text: with a space in it the module must
// still compile, and removing its work dir must not touch the sibling the
// unquoted first word names.
TEST(GenModuleGuards, WorkDirUnderATmpdirWithASpaceIsCompiledAndRemoved) {
  if (!haveGen())
    GTEST_SKIP() << "no host C++ compiler";
  namespace fs = std::filesystem;
  fs::path Base = fs::path(::testing::TempDir()) /
                  ("ipg_tmpdir_" + std::to_string(::getpid()));
  fs::path Spaced = Base / "x y", Sentinel = Base / "x";
  fs::create_directories(Spaced);
  fs::create_directories(Sentinel);
  std::ofstream(Sentinel / "keep") << "sentinel";

  const char *Old = std::getenv("TMPDIR");
  std::string Saved = Old ? Old : "";
  ::setenv("TMPDIR", Spaced.c_str(), 1);
  fs::path WorkDir;
  {
    Grammar G = load(R"(S -> "ab"[0, 2] ;)");
    auto M = GenModule::compile(G);
    if (Old)
      ::setenv("TMPDIR", Saved.c_str(), 1);
    else
      ::unsetenv("TMPDIR");
    ASSERT_TRUE(M) << M.message();
    WorkDir = fs::path((*M)->path()).parent_path();
    EXPECT_EQ(WorkDir.parent_path(), Spaced);
    EXPECT_TRUE(fs::exists(WorkDir));
  } // the module dies here and removes its work dir
  EXPECT_FALSE(fs::exists(WorkDir));
  EXPECT_TRUE(fs::exists(Sentinel / "keep"));
  EXPECT_TRUE(fs::exists(Spaced));
  fs::remove_all(Base);
}
