//===- tests/service_test.cpp - tree handoff & ParseService tests ---------===//
//
// Part of the IPG reproduction of "Interval Parsing Grammars for File Format
// Parsing" (PLDI 2023). MIT license.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The explicit tree-ownership-transfer seam and the thread-pooled front
/// end built on it:
///
///  - TreePtr::detach() produces a FrozenTree that is safe to read and
///    destroy on a DIFFERENT thread, while the engine's recycler is
///    released (no park-after-move of a detached store);
///  - Engine::adoptStore closes the loop: a store that round-tripped
///    through a FrozenTree is re-bound and recycled by the next parse;
///  - ParseService runs those pieces across N workers and M queued
///    mixed-format files with correct, self-contained results;
///  - its per-worker store pool: a warm worker builds no store however
///    rejects and accepts alternate, and stores whose trees the consumer
///    read are claimed (ParseService::metrics counts both) without
///    changing the trees parsed into them;
///  - under IPG_CHECK_OWNERSHIP, touching a NON-detached TreePtr's
///    refcount off the engine thread aborts (death test).
///
//===----------------------------------------------------------------------===//

#include "codegen/GenEngine.h"
#include "formats/FormatRegistry.h"
#include "runtime/Engine.h"
#include "service/InputSource.h"
#include "service/ParseService.h"

#include "TreeCanonical.h"

// Counting global operator new/delete (allocCount()), shared with the
// bench drivers. GCC inlines the replaced operator delete into gtest's
// test factories and then flags its free() as mismatched with operator
// new; both replacements are malloc/free, so the pair is consistent.
#if defined(__GNUC__) && !defined(__clang__)
#pragma GCC diagnostic push
#pragma GCC diagnostic ignored "-Wmismatched-new-delete"
#endif
#define IPG_BENCH_COUNT_ALLOCS
#include "../bench/BenchUtil.h"
#if defined(__GNUC__) && !defined(__clang__)
#pragma GCC diagnostic pop
#endif

#include <gtest/gtest.h>

#include <chrono>
#include <cstdio>
#include <fstream>
#include <future>
#include <thread>

#include <unistd.h>

using namespace ipg;
using testutil::renderCanonical;

namespace {

/// One reference dump per (format, scale), parsed single-threaded.
std::string referenceDump(const std::string &Name, unsigned Scale) {
  auto FE = formats::makeFormatEngine(Name, EngineKind::Interp);
  EXPECT_TRUE(FE) << FE.message();
  std::vector<uint8_t> In = formats::sampleInput(Name, Scale);
  auto T = (*FE)->parse(ByteSpan::of(In));
  EXPECT_TRUE(T) << T.message();
  return T ? renderCanonical(*T, FE->Load->G) : std::string();
}

} // namespace

//===----------------------------------------------------------------------===//
// FrozenTree / adoptStore seam
//===----------------------------------------------------------------------===//

TEST(FrozenTreeTest, DetachedTreeIsReadableAndDestroyableOffThread) {
  auto FE = formats::makeFormatEngine("gif", EngineKind::Interp);
  ASSERT_TRUE(FE) << FE.message();
  std::vector<uint8_t> In = formats::sampleInput("gif", 2);
  auto T = (*FE)->parse(ByteSpan::of(In));
  ASSERT_TRUE(T) << T.message();
  std::string Want = renderCanonical(*T, FE->Load->G);

  FrozenTree F = (*T).detach();
  ASSERT_TRUE(F);
  EXPECT_FALSE(*T) << "detach() empties the TreePtr";

  // Read AND destroy on another thread; the engine stays on this one.
  std::string Got;
  std::thread Reader([&] {
    Got = renderCanonical(F.get(), FE->Load->G);
    FrozenTree Dead = std::move(F); // dies on this thread
  });
  Reader.join();
  EXPECT_EQ(Want, Got);

  // The engine is fully functional afterwards — but the detached store
  // did NOT come home: the next parse starts fresh.
  auto T2 = (*FE)->parse(ByteSpan::of(In));
  ASSERT_TRUE(T2) << T2.message();
  EXPECT_FALSE((*FE)->stats().StoreRecycled)
      << "a detached store must not park in the recycler";
}

TEST(FrozenTreeTest, AdoptStoreClosesTheRecyclingLoop) {
  auto FE = formats::makeFormatEngine("dns", EngineKind::Interp);
  ASSERT_TRUE(FE) << FE.message();
  std::vector<uint8_t> In = formats::sampleInput("dns", 2);

  auto T = (*FE)->parse(ByteSpan::of(In));
  ASSERT_TRUE(T) << T.message();
  FrozenTree F = (*T).detach();

  // Simulate the service round trip: consumer surrenders the store,
  // worker adopts it, next parse recycles instead of allocating.
  TreeStore *S = F.releaseStore();
  ASSERT_NE(S, nullptr);
  EXPECT_TRUE((*FE)->adoptStore(S));
  auto T2 = (*FE)->parse(ByteSpan::of(In));
  ASSERT_TRUE(T2) << T2.message();
  EXPECT_TRUE((*FE)->stats().StoreRecycled);

  // A second store cannot be adopted while one is already parked.
  auto T3 = (*FE)->parse(ByteSpan::of(In));
  ASSERT_TRUE(T3) << T3.message();
  FrozenTree F2 = (*T2).detach();
  FrozenTree F3 = (*T3).detach();
  TreeStore *S2 = F2.releaseStore();
  TreeStore *S3 = F3.releaseStore();
  EXPECT_TRUE((*FE)->adoptStore(S2));
  EXPECT_FALSE((*FE)->adoptStore(S3)) << "one parked store at a time";
  TreeStore::destroy(S3);
}

TEST(FrozenTreeTest, ParkAfterMoveStillWorksForUndetachedTrees) {
  // The pre-existing single-thread recycling contract (TreePtr dies on
  // the engine thread -> store parks) must survive the detach() seam.
  auto FE = formats::makeFormatEngine("gif", EngineKind::Interp);
  ASSERT_TRUE(FE) << FE.message();
  std::vector<uint8_t> In = formats::sampleInput("gif", 1);
  {
    auto T = (*FE)->parse(ByteSpan::of(In));
    ASSERT_TRUE(T) << T.message();
  } // TreePtr dies here, on the engine's thread
  auto T2 = (*FE)->parse(ByteSpan::of(In));
  ASSERT_TRUE(T2) << T2.message();
  EXPECT_TRUE((*FE)->stats().StoreRecycled);
}

#if defined(IPG_CHECK_OWNERSHIP) && defined(GTEST_HAS_DEATH_TEST)
TEST(FrozenTreeDeathTest, OffThreadTreePtrReleaseAborts) {
  testing::GTEST_FLAG(death_test_style) = "threadsafe";
  ASSERT_DEATH(
      {
        auto FE = formats::makeFormatEngine("gif", EngineKind::Interp);
        std::vector<uint8_t> In = formats::sampleInput("gif", 1);
        auto T = (*FE)->parse(ByteSpan::of(In));
        // Copying/destroying a NON-detached TreePtr off the engine
        // thread touches the plain refcount cross-thread: abort.
        std::thread Evil([&] { TreePtr Copy = *T; });
        Evil.join();
      },
      "refcount touched off the owning engine thread");
}
#endif

//===----------------------------------------------------------------------===//
// ParseService
//===----------------------------------------------------------------------===//

TEST(ParseServiceTest, BatchAcrossFormatsAndWorkersIsCorrect) {
  ParseServiceOptions Opts;
  Opts.Workers = 4;
  auto Svc = ParseService::create({"gif", "dns", "ipv4udp"}, Opts);
  ASSERT_TRUE(Svc) << Svc.message();
  EXPECT_EQ((*Svc)->workers(), 4u);

  const char *Names[] = {"gif", "dns", "ipv4udp"};
  std::string Want[3];
  for (int I = 0; I < 3; ++I)
    Want[I] = referenceDump(Names[I], 2);

  std::vector<ParseRequest> Batch;
  for (int Rep = 0; Rep < 8; ++Rep)
    for (int I = 0; I < 3; ++I)
      Batch.push_back(ParseRequest{
          Names[I],
          InputSource::fromBytes(formats::sampleInput(Names[I], 2))});

  auto Futures = (*Svc)->submitBatch(std::move(Batch));
  ASSERT_EQ(Futures.size(), 24u);
  for (size_t I = 0; I < Futures.size(); ++I) {
    ParseResult R = Futures[I].get();
    ASSERT_TRUE(R.ok()) << R.error();
    EXPECT_EQ(R.format(), Names[I % 3]);
    EXPECT_GT(R.stats().NodesCreated, 0u);
    // Results are produced on worker threads and verified (and then
    // destroyed) here on the main thread — the FrozenTree handoff.
    auto FE = formats::makeFormatEngine(Names[I % 3], EngineKind::Interp);
    EXPECT_EQ(renderCanonical(R.root(), FE->Load->G), Want[I % 3]);
  }
}

TEST(ParseServiceTest, ResultsOutliveTheService) {
  ParseServiceOptions Opts;
  Opts.Workers = 2;
  auto Svc = ParseService::create({"dns"}, Opts);
  ASSERT_TRUE(Svc) << Svc.message();

  auto Fut = (*Svc)->submit(ParseRequest{
      "dns", InputSource::fromBytes(formats::sampleInput("dns", 1))});
  ParseResult R = Fut.get();
  ASSERT_TRUE(R.ok()) << R.error();
  Svc->reset(); // workers join; engines and recyclers die

  // The result is self-contained: tree + input bytes still readable,
  // destruction (at scope exit) routes to a closed slot harmlessly.
  auto FE = formats::makeFormatEngine("dns", EngineKind::Interp);
  EXPECT_EQ(renderCanonical(R.root(), FE->Load->G), referenceDump("dns", 1));
}

TEST(ParseServiceTest, SteadyStateJobCostsOnlyTheClientsPromise) {
  // One worker, one request in flight, a recycled store: the parse side
  // allocates nothing, so what a job costs the process is the client's
  // promise (its shared state and result storage: 2 allocations) plus
  // the queue's deque-block churn. A worker that default-constructed its
  // Job before moving into it paid a second promise on top (about 4).
  ParseServiceOptions Opts;
  Opts.Workers = 1;
  Opts.Mode = EngineKind::Vm;
  auto Svc = ParseService::create({"dns"}, Opts);
  ASSERT_TRUE(Svc) << Svc.message();
  std::shared_ptr<InputSource> In =
      InputSource::fromBytes(formats::sampleInput("dns", 1));
  auto RunJobs = [&](int N) {
    for (int I = 0; I < N; ++I) {
      ParseResult R = (*Svc)->submit(ParseRequest{"dns", In}).get();
      ASSERT_TRUE(R.ok()) << R.error();
    }
  };
  RunJobs(200); // engine, stores and queue blocks reach steady state
  const int Jobs = 2000;
  uint64_t Before = bench::allocCount();
  RunJobs(Jobs);
  double PerJob = static_cast<double>(bench::allocCount() - Before) / Jobs;
  EXPECT_GE(PerJob, 2.0) << "the client's promise must be counted";
  EXPECT_LT(PerJob, 3.0);
}

TEST(ParseServiceTest, WarmWorkerBuildsNoStoreAcrossRejects) {
  // A rejected parse leaves its store inside its engine, so that engine
  // declines the next store it is offered. The declined store must stay
  // pooled for the accepting engine: once warm, alternating a reject
  // and an accept builds no store at all.
  ParseServiceOptions Opts;
  Opts.Workers = 1;
  Opts.Mode = EngineKind::Vm;
  Opts.Engine.Recovery = RecoveryPolicy::Salvage;
  Opts.Engine.UseMemo = false;
  auto Svc = ParseService::create({"dns", "gif"}, Opts);
  ASSERT_TRUE(Svc) << Svc.message();
  std::shared_ptr<InputSource> Bad = InputSource::fromBytes({9, 9, 9});
  std::shared_ptr<InputSource> Good =
      InputSource::fromBytes(formats::sampleInput("gif", 1));
  auto RunRounds = [&](int N) {
    for (int I = 0; I < N; ++I) {
      ParseResult R = (*Svc)->submit(ParseRequest{"dns", Bad}).get();
      ASSERT_FALSE(R.ok());
      EXPECT_EQ(R.verdict(), Verdict::Reject);
      ParseResult A = (*Svc)->submit(ParseRequest{"gif", Good}).get();
      ASSERT_TRUE(A.ok()) << A.error();
      EXPECT_NE(A.verdict(), Verdict::Reject);
    }
  };
  RunRounds(4);
  ServiceMetrics Warm = (*Svc)->metrics();
  EXPECT_EQ(Warm.Jobs, 8u);
  RunRounds(100);
  ServiceMetrics M = (*Svc)->metrics();
  EXPECT_EQ(M.Jobs - Warm.Jobs, 200u);
  EXPECT_EQ(M.StoresBuilt, Warm.StoresBuilt)
      << "a warm worker built a store";
  EXPECT_EQ(M.StoresDropped, 0u);
  // ok() and verdict() do not expose the tree: nothing was read, so
  // nothing is claimed.
  EXPECT_EQ(M.StoresClaimed, 0u);
}

TEST(ParseServiceTest, ClaimedStoresParseIdenticalTrees) {
  // The consumer reads every tree before releasing it, so every store
  // comes home marked read and is claimed before the next parse writes
  // into it. The trees built into claimed stores must not change.
  ParseServiceOptions Opts;
  Opts.Workers = 1;
  Opts.Mode = EngineKind::Vm;
  const char *Names[] = {"dns", "gif", "zip"};
  auto Svc = ParseService::create({Names[0], Names[1], Names[2]}, Opts);
  ASSERT_TRUE(Svc) << Svc.message();
  std::string Want[3];
  std::shared_ptr<InputSource> In[3];
  std::shared_ptr<LoadResult> Load[3];
  for (int F = 0; F < 3; ++F) {
    Want[F] = referenceDump(Names[F], 1);
    In[F] = InputSource::fromBytes(formats::sampleInput(Names[F], 1));
    auto FE = formats::makeFormatEngine(Names[F], EngineKind::Interp);
    ASSERT_TRUE(FE) << FE.message();
    Load[F] = FE->Load;
  }
  const int Rounds = 200;
  for (int Round = 0; Round < Rounds; ++Round)
    for (int F = 0; F < 3; ++F) {
      ParseResult R = (*Svc)->submit(ParseRequest{Names[F], In[F]}).get();
      ASSERT_TRUE(R.ok()) << R.error();
      ASSERT_EQ(renderCanonical(R.root(), Load[F]->G), Want[F])
          << Names[F] << " round " << Round;
    }
  // One job in flight: every store a later job adopts was read first.
  ServiceMetrics M = (*Svc)->metrics();
  EXPECT_EQ(M.Jobs, 3u * Rounds);
  EXPECT_LE(M.StoresBuilt, 3u);
  EXPECT_EQ(M.StoresClaimed, M.Jobs - M.StoresBuilt);
  EXPECT_EQ(M.StoresDropped, 0u);
}

TEST(ParseServiceTest, MisusesFailFastWithDiagnostics) {
  ParseServiceOptions Opts;
  Opts.Workers = 1;
  auto Svc = ParseService::create({"gif"}, Opts);
  ASSERT_TRUE(Svc) << Svc.message();

  ParseResult NoFmt =
      (*Svc)
          ->submit(ParseRequest{"pdf", InputSource::fromBytes({1, 2, 3})})
          .get();
  EXPECT_FALSE(NoFmt.ok());
  EXPECT_NE(NoFmt.error().find("not configured"), std::string::npos);

  ParseResult NoInput = (*Svc)->submit(ParseRequest{"gif", nullptr}).get();
  EXPECT_FALSE(NoInput.ok());
  EXPECT_NE(NoInput.error().find("null input"), std::string::npos);

  ParseResult BadParse =
      (*Svc)
          ->submit(ParseRequest{"gif", InputSource::fromBytes({9, 9, 9})})
          .get();
  EXPECT_FALSE(BadParse.ok());
  EXPECT_FALSE(BadParse.error().empty());

  auto NoSuch = ParseService::create({"nope"});
  EXPECT_FALSE(NoSuch);
}

TEST(ParseServiceTest, MmapInputSourceParsesLikeOwnedBytes) {
  std::vector<uint8_t> Bytes = formats::sampleInput("gif", 2);
  std::string Path = testing::TempDir() + "/ipg_service_gif_" +
                     std::to_string(::getpid()) + ".bin";
  {
    std::ofstream Out(Path, std::ios::binary | std::ios::trunc);
    Out.write(reinterpret_cast<const char *>(Bytes.data()),
              static_cast<std::streamsize>(Bytes.size()));
  }
  auto Mapped = InputSource::mapFile(Path);
  ASSERT_TRUE(Mapped) << Mapped.message();
  EXPECT_EQ((*Mapped)->size(), Bytes.size());

  ParseServiceOptions Opts;
  Opts.Workers = 2;
  auto Svc = ParseService::create({"gif"}, Opts);
  ASSERT_TRUE(Svc) << Svc.message();
  ParseResult R = (*Svc)->submit(ParseRequest{"gif", *Mapped}).get();
  ASSERT_TRUE(R.ok()) << R.error();
  auto FE = formats::makeFormatEngine("gif", EngineKind::Interp);
  EXPECT_EQ(renderCanonical(R.root(), FE->Load->G), referenceDump("gif", 2));
  std::remove(Path.c_str());

  auto Missing = InputSource::mapFile(Path + ".does_not_exist");
  EXPECT_FALSE(Missing);
}

TEST(ParseServiceTest, GeneratedModeMatchesInterpMode) {
  if (!GenModule::hostCompilerAvailable())
    GTEST_SKIP() << "no host C++ compiler";

  ParseServiceOptions Opts;
  Opts.Workers = 2;
  Opts.Mode = EngineKind::Generated;
  auto Svc = ParseService::create({"gif", "dns"}, Opts);
  ASSERT_TRUE(Svc) << Svc.message();
  EXPECT_EQ((*Svc)->mode(), EngineKind::Generated);

  std::vector<ParseRequest> Batch;
  for (int Rep = 0; Rep < 4; ++Rep)
    for (const char *Name : {"gif", "dns"})
      Batch.push_back(ParseRequest{
          Name, InputSource::fromBytes(formats::sampleInput(Name, 2))});
  auto Futures = (*Svc)->submitBatch(std::move(Batch));
  for (size_t I = 0; I < Futures.size(); ++I) {
    ParseResult R = Futures[I].get();
    ASSERT_TRUE(R.ok()) << R.error();
    const char *Name = (I % 2 == 0) ? "gif" : "dns";
    auto FE = formats::makeFormatEngine(Name, EngineKind::Interp);
    EXPECT_EQ(renderCanonical(R.root(), FE->Load->G),
              referenceDump(Name, 2));
  }

  // Compiled parsers cannot be interrupted: a deadline request is queued
  // and then failed by the worker without parsing, and the worker goes on
  // serving the next request.
  SubmitOptions WithDeadline;
  WithDeadline.Deadline =
      std::chrono::steady_clock::now() + std::chrono::hours(1);
  auto gifRequest = [] {
    return ParseRequest{"gif",
                        InputSource::fromBytes(formats::sampleInput("gif", 2))};
  };
  ParseResult Refused = (*Svc)->submit(gifRequest(), WithDeadline).get();
  EXPECT_FALSE(Refused.ok());
  EXPECT_NE(Refused.error().find("does not support deadlines"),
            std::string::npos)
      << Refused.error();
  EXPECT_EQ(Refused.verdict(), Verdict::Reject);
  ParseResult Next = (*Svc)->submit(gifRequest()).get();
  ASSERT_TRUE(Next.ok()) << Next.error();
  auto Gif = formats::makeFormatEngine("gif", EngineKind::Interp);
  ASSERT_TRUE(Gif) << Gif.message();
  EXPECT_EQ(renderCanonical(Next.root(), Gif->Load->G),
            referenceDump("gif", 2));
}
