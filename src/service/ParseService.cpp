//===- service/ParseService.cpp -------------------------------------------===//
//
// Part of the IPG reproduction of "Interval Parsing Grammars for File Format
// Parsing" (PLDI 2023). MIT license.
//
//===----------------------------------------------------------------------===//

#include "service/ParseService.h"

#include "codegen/GenEngine.h"
#include "formats/FormatRegistry.h"
#include "runtime/Interp.h"
#include "vm/BytecodeVM.h"

#include <atomic>
#include <chrono>
#include <condition_variable>
#include <deque>
#include <mutex>
#include <thread>
#include <utility>

using namespace ipg;

//===----------------------------------------------------------------------===//
// StorePool: one worker's stores, coming home from consumers
//===----------------------------------------------------------------------===//

namespace ipg::detail {

/// A counter with one writer at a time (its worker, or whoever holds the
/// pool's mutex) and lock-free readers (ParseService::metrics): relaxed
/// load and store, no read-modify-write on the job path.
struct Counter {
  std::atomic<uint64_t> N{0};
  void bump() {
    N.store(N.load(std::memory_order_relaxed) + 1, std::memory_order_relaxed);
  }
  uint64_t get() const { return N.load(std::memory_order_relaxed); }
};

/// The stores of one worker that no engine and no result holds: those
/// destroyed ParseResults gave back (any thread, under the mutex), plus
/// at most one Spare that an engine declined because it still held a
/// store of its own. The worker offers the Spare first, so a declined
/// store waits for the next engine that has none instead of dying. The
/// mutex is taken on the consumer's destruction path and once per job at
/// the worker's loop top, never inside a parse. Stores here are UNBOUND
/// (detach() severed their recycler), so any thread may destroy them.
struct StorePool {
  /// Above what a worker keeps in circulation with a few requests in
  /// flight (its results plus one store per engine), so a warm worker
  /// drops none. Kept small because a worker frees its pool in one burst
  /// at shutdown: with 64 small-input stores that burst freed enough
  /// heap for glibc to trim it (a thread heap's top past 128 KB), and a
  /// service created next page-faulted it back in (about 80 faults per
  /// create-and-warm of a two-worker, six-format service).
  static constexpr size_t Cap = 16;

  std::mutex M;
  std::vector<TreeStore *> Stores; ///< capacity Cap: give() never allocates
  bool Open = true;
  Counter Dropped;

  /// Worker-only state, on its own line: consumers lock M above.
  alignas(64) TreeStore *Spare = nullptr;
  Counter Jobs, Built, Claimed;

  StorePool() { Stores.reserve(Cap); }

  /// Called by ParseResult destructors (any thread). Full or closed: the
  /// store simply dies — correctness never depends on recycling.
  void give(TreeStore *S) {
    {
      std::lock_guard<std::mutex> L(M);
      if (Open && Stores.size() < Cap) {
        Stores.push_back(S);
        return;
      }
      Dropped.bump();
    }
    TreeStore::destroy(S);
  }

  /// The owning worker only: the Spare, else the last store given back.
  TreeStore *take() {
    if (TreeStore *S = std::exchange(Spare, nullptr))
      return S;
    std::lock_guard<std::mutex> L(M);
    if (Stores.empty())
      return nullptr;
    TreeStore *S = Stores.back();
    Stores.pop_back();
    return S;
  }

  /// Worker shutdown: refuse future gives, drop what is pooled.
  void close() {
    std::vector<TreeStore *> Dead;
    {
      std::lock_guard<std::mutex> L(M);
      Open = false;
      Dead.swap(Stores);
    }
    if (Spare)
      Dead.push_back(std::exchange(Spare, nullptr));
    for (TreeStore *S : Dead)
      TreeStore::destroy(S);
  }
};

} // namespace ipg::detail

ParseResult::~ParseResult() {
  // Route the store back to the worker that built it; without a pool
  // (failed parse, moved-from result) the FrozenTree destructor frees it.
  if (Tree && Pool)
    Pool->give(Tree.releaseStore());
}

//===----------------------------------------------------------------------===//
// ParseService
//===----------------------------------------------------------------------===//

namespace {

struct Job {
  ParseRequest Req;
  /// Req.Format's index in Impl::Formats, resolved at submission (only
  /// requests for a configured format with an input are queued).
  size_t FormatIdx = 0;
  SubmitOptions SOpts;
  std::promise<ParseResult> Promise;
  std::chrono::steady_clock::time_point Submitted;
};

/// Everything one format needs, loaded once at create() and shared
/// read-only by every worker.
struct FormatCtx {
  std::string Name;
  std::shared_ptr<LoadResult> Load;
  std::shared_ptr<BlackboxRegistry> Blackboxes; ///< interp mode only
  std::shared_ptr<GenModule> Module;            ///< generated mode only
};

} // namespace

struct ParseService::Impl {
  ParseServiceOptions Opts;
  std::vector<FormatCtx> Formats;

  std::mutex QM;
  std::condition_variable QCV;
  std::deque<Job> Queue;
  bool Stopping = false;

  std::vector<std::shared_ptr<detail::StorePool>> Pools;
  std::vector<std::thread> Threads;

  int formatIndex(const std::string &Name) const {
    for (size_t I = 0; I < Formats.size(); ++I)
      if (Formats[I].Name == Name)
        return static_cast<int>(I);
    return -1;
  }

  void workerMain(unsigned Idx);
  void process(Job &J, std::vector<std::unique_ptr<Engine>> &Engines,
               const std::shared_ptr<detail::StorePool> &Pool);
};

void ParseService::Impl::workerMain(unsigned Idx) {
  std::shared_ptr<detail::StorePool> Pool = Pools[Idx];
  // One engine per format, built lazily ON THIS THREAD so every store,
  // recycler, and memo table it ever touches belongs here.
  std::vector<std::unique_ptr<Engine>> Engines(Formats.size());

  for (;;) {
    std::unique_lock<std::mutex> L(QM);
    QCV.wait(L, [&] { return Stopping || !Queue.empty(); });
    if (Queue.empty())
      break; // Stopping, and all work is done
    // Move-constructed: a default-constructed Job would allocate a
    // promise's shared state only for the move to discard it.
    Job J(std::move(Queue.front()));
    Queue.pop_front();
    L.unlock();
    process(J, Engines, Pool);
  }

  // After close() a late ParseResult destruction frees its own store;
  // engine destructors then reclaim whatever is still parked in them.
  Pool->close();
}

void ParseService::Impl::process(
    Job &J, std::vector<std::unique_ptr<Engine>> &Engines,
    const std::shared_ptr<detail::StorePool> &Pool) {
  // The job is consumed: its format name and input move into the result.
  ParseResult R;
  R.Format = std::move(J.Req.Format);
  R.Input = std::move(J.Req.Input);
  const FormatCtx &FC = Formats[J.FormatIdx];
  std::unique_ptr<Engine> &Eng = Engines[J.FormatIdx];
  if (!Eng) {
    if (Opts.Mode == EngineKind::Generated)
      Eng = std::make_unique<GenEngine>(FC.Module, FC.Load->G);
    else if (Opts.Mode == EngineKind::Vm)
      Eng = std::make_unique<BytecodeVM>(FC.Load->G, FC.Blackboxes.get(),
                                         Opts.Engine);
    else
      Eng = std::make_unique<Interp>(FC.Load->G, FC.Blackboxes.get(),
                                     Opts.Engine);
  }

  // Offer one pooled store before parsing: the steady-state cycle is
  // parse -> detach -> consumer destroys -> give -> adopt -> parse,
  // with zero heap allocation on this (the parse) side. Stores are
  // format-agnostic scratch, so any engine of this worker may reuse
  // one. An engine that still holds a store (a failed parse leaves its
  // store behind) declines, and the store stays pooled as the Spare.
  if (TreeStore *S = Pool->take()) {
    bool Read = S->consumerRead();
    if (!Eng->adoptStore(S))
      Pool->Spare = S;
    else if (Read)
      Pool->Claimed.bump();
  }

  bool DeadlineArmed = false;
  if (J.SOpts.hasDeadline() && !(DeadlineArmed = Eng->setDeadline(
                                     J.SOpts.Deadline))) {
    R.Err = std::string("engine '") + engineKindName(Opts.Mode) +
            "' does not support deadlines";
  } else {
    Expected<TreePtr> T = Eng->parse(R.Input->span());
    R.Stats = Eng->stats();
    if (DeadlineArmed)
      Eng->clearDeadline();
    if (!R.Stats.StoreRecycled)
      Pool->Built.bump();
    if (T) {
      R.Tree = (*T).detach(); // severs engine-thread affinity
      R.Pool = Pool;
    } else {
      R.Err = T.message();
    }
  }

  Pool->Jobs.bump(); // before set_value: the future publishes it
  R.LatencyUs = static_cast<uint64_t>(
      std::chrono::duration_cast<std::chrono::microseconds>(
          std::chrono::steady_clock::now() - J.Submitted)
          .count());
  J.Promise.set_value(std::move(R));
}

ParseService::ParseService() : I(new Impl) {}

Expected<std::unique_ptr<ParseService>>
ParseService::create(const std::vector<std::string> &Formats,
                     const ParseServiceOptions &Opts) {
  using Ret = Expected<std::unique_ptr<ParseService>>;
  std::unique_ptr<ParseService> Svc(new ParseService());
  // Same limitation makeEngine enforces: compiled parsers carry
  // Strict-mode control flow only.
  if (Opts.Mode == EngineKind::Generated &&
      Opts.Engine.Recovery == RecoveryPolicy::Salvage)
    return Ret::failure("generated parsers do not support "
                        "RecoveryPolicy::Salvage; use interp or vm mode");
  Impl &I = *Svc->I;
  I.Opts = Opts;
  if (I.Opts.Workers == 0) {
    unsigned HW = std::thread::hardware_concurrency();
    I.Opts.Workers = HW ? HW : 1;
  }

  // Load (and for generated mode, compile) everything BEFORE any thread
  // starts: a failure here returns an error, not a half-started pool.
  for (const std::string &Name : Formats) {
    if (I.formatIndex(Name) >= 0)
      continue; // tolerate duplicates
    const formats::FormatInfo *Info = nullptr;
    for (const formats::FormatInfo &F : formats::allFormats())
      if (F.Name == Name)
        Info = &F;
    if (!Info)
      return Ret::failure("unknown format '" + Name + "'");

    FormatCtx FC;
    FC.Name = Name;
    Expected<LoadResult> Load = formats::loadFormatGrammar(Name);
    if (!Load)
      return Ret::failure("loading '" + Name + "': " + Load.message());
    FC.Load = std::make_shared<LoadResult>(std::move(*Load));

    if (Opts.Mode == EngineKind::Generated) {
      Expected<std::shared_ptr<GenModule>> M = GenModule::compile(
          FC.Load->G, Opts.Engine, formats::genModuleConfig(Name));
      if (!M)
        return Ret::failure("compiling '" + Name + "': " + M.message());
      FC.Module = std::move(*M);
    } else if (Info->NeedsBlackbox) {
      FC.Blackboxes =
          std::make_shared<BlackboxRegistry>(formats::standardBlackboxes());
    }
    I.Formats.push_back(std::move(FC));
  }

  I.Pools.reserve(I.Opts.Workers);
  I.Threads.reserve(I.Opts.Workers);
  for (unsigned W = 0; W < I.Opts.Workers; ++W)
    I.Pools.push_back(std::make_shared<detail::StorePool>());
  Impl *IP = &I;
  for (unsigned W = 0; W < I.Opts.Workers; ++W)
    I.Threads.emplace_back([IP, W] { IP->workerMain(W); });
  return Ret(std::move(Svc));
}

ParseService::~ParseService() {
  {
    std::lock_guard<std::mutex> L(I->QM);
    I->Stopping = true;
  }
  I->QCV.notify_all();
  for (std::thread &T : I->Threads)
    T.join();
}

std::future<ParseResult> ParseService::submit(ParseRequest Request) {
  return submit(std::move(Request), SubmitOptions());
}

std::future<ParseResult> ParseService::submit(ParseRequest Request,
                                              const SubmitOptions &Options) {
  Job J;
  J.Req = std::move(Request);
  J.SOpts = Options;
  J.Submitted = std::chrono::steady_clock::now();
  std::future<ParseResult> F = J.Promise.get_future();

  // Fail fast (no worker round-trip) for requests that can never parse.
  std::string Early;
  int FI = I->formatIndex(J.Req.Format);
  if (FI < 0)
    Early = "format '" + J.Req.Format + "' not configured";
  else if (!J.Req.Input)
    Early = "null input source";
  else
    J.FormatIdx = static_cast<size_t>(FI);

  {
    std::lock_guard<std::mutex> L(I->QM);
    if (I->Stopping)
      Early = "service is shutting down";
    if (Early.empty()) {
      I->Queue.push_back(std::move(J));
    }
  }
  if (!Early.empty()) {
    ParseResult R;
    R.Format = J.Req.Format;
    R.Err = Early;
    J.Promise.set_value(std::move(R));
    return F;
  }
  I->QCV.notify_one();
  return F;
}

std::vector<std::future<ParseResult>>
ParseService::submitBatch(std::vector<ParseRequest> Requests) {
  std::vector<std::future<ParseResult>> Futures;
  Futures.reserve(Requests.size());
  auto Now = std::chrono::steady_clock::now();

  std::vector<Job> Jobs;
  Jobs.reserve(Requests.size());
  for (ParseRequest &R : Requests) {
    Job J;
    J.Req = std::move(R);
    J.Submitted = Now;
    Futures.push_back(J.Promise.get_future());
    Jobs.push_back(std::move(J));
  }

  std::vector<Job> Rejected;
  {
    std::lock_guard<std::mutex> L(I->QM);
    for (Job &J : Jobs) {
      int FI = I->formatIndex(J.Req.Format);
      if (I->Stopping || FI < 0 || !J.Req.Input) {
        Rejected.push_back(std::move(J));
      } else {
        J.FormatIdx = static_cast<size_t>(FI);
        I->Queue.push_back(std::move(J));
      }
    }
  }
  I->QCV.notify_all();

  for (Job &J : Rejected) {
    ParseResult R;
    R.Format = J.Req.Format;
    R.Err = I->formatIndex(J.Req.Format) < 0
                ? "format '" + J.Req.Format + "' not configured"
                : (!J.Req.Input ? "null input source"
                                : "service is shutting down");
    J.Promise.set_value(std::move(R));
  }
  return Futures;
}

ServiceMetrics ParseService::metrics() const {
  ServiceMetrics M;
  for (const std::shared_ptr<detail::StorePool> &P : I->Pools) {
    M.Jobs += P->Jobs.get();
    M.StoresBuilt += P->Built.get();
    M.StoresClaimed += P->Claimed.get();
    M.StoresDropped += P->Dropped.get();
  }
  return M;
}

unsigned ParseService::workers() const { return I->Opts.Workers; }
EngineKind ParseService::mode() const { return I->Opts.Mode; }
