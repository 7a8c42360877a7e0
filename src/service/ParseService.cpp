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

#include <chrono>
#include <condition_variable>
#include <deque>
#include <mutex>
#include <thread>

using namespace ipg;

//===----------------------------------------------------------------------===//
// ReturnSlot: consumer -> worker store channel
//===----------------------------------------------------------------------===//

namespace ipg::detail {

/// A small mutex-protected mailbox of stores coming home from destroyed
/// ParseResults. The mutex is only ever taken on the consumer's
/// destruction path and at the worker's loop top — never inside a parse.
/// Stores here are UNBOUND (detach() severed their recycler), so any
/// thread may destroy them.
struct ReturnSlot {
  static constexpr size_t Cap = 4;

  std::mutex M;
  TreeStore *Stores[Cap];
  size_t N = 0;
  bool Open = true;

  /// Called by ParseResult destructors (any thread). Full or closed:
  /// the store simply dies — correctness never depends on recycling.
  void give(TreeStore *S) {
    {
      std::lock_guard<std::mutex> L(M);
      if (Open && N < Cap) {
        Stores[N++] = S;
        return;
      }
    }
    TreeStore::destroy(S);
  }

  /// Called by the owning worker only.
  TreeStore *take() {
    std::lock_guard<std::mutex> L(M);
    return N ? Stores[--N] : nullptr;
  }

  /// Worker shutdown: refuse future gives, drop what is parked.
  void close() {
    TreeStore *Dead[Cap];
    size_t NDead;
    {
      std::lock_guard<std::mutex> L(M);
      Open = false;
      NDead = N;
      for (size_t I = 0; I < N; ++I)
        Dead[I] = Stores[I];
      N = 0;
    }
    for (size_t I = 0; I < NDead; ++I)
      TreeStore::destroy(Dead[I]);
  }
};

} // namespace ipg::detail

ParseResult::~ParseResult() {
  // Route the store back to the worker that built it; without a slot
  // (failed parse, moved-from result) the FrozenTree destructor frees it.
  if (Tree && Slot)
    Slot->give(Tree.releaseStore());
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

  std::vector<std::shared_ptr<detail::ReturnSlot>> Slots;
  std::vector<std::thread> Threads;

  int formatIndex(const std::string &Name) const {
    for (size_t I = 0; I < Formats.size(); ++I)
      if (Formats[I].Name == Name)
        return static_cast<int>(I);
    return -1;
  }

  void workerMain(unsigned Idx);
  void process(Job &J, std::vector<std::unique_ptr<Engine>> &Engines,
               detail::ReturnSlot &Slot,
               const std::shared_ptr<detail::ReturnSlot> &SlotRef);
};

void ParseService::Impl::workerMain(unsigned Idx) {
  std::shared_ptr<detail::ReturnSlot> Slot = Slots[Idx];
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
    process(J, Engines, *Slot, Slot);
  }

  // After close() a late ParseResult destruction frees its own store;
  // engine destructors then reclaim whatever is still parked in them.
  Slot->close();
}

void ParseService::Impl::process(
    Job &J, std::vector<std::unique_ptr<Engine>> &Engines,
    detail::ReturnSlot &Slot,
    const std::shared_ptr<detail::ReturnSlot> &SlotRef) {
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

  // Adopt one returned store before parsing: the steady-state cycle is
  // parse -> detach -> consumer destroys -> give -> adopt -> parse,
  // with zero heap allocation on this (the parse) side. Stores are
  // format-agnostic scratch, so any engine of this worker may reuse
  // one; an engine with a store already parked declines.
  if (TreeStore *S = Slot.take())
    if (!Eng->adoptStore(S))
      TreeStore::destroy(S);

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
    if (T) {
      R.Tree = (*T).detach(); // severs engine-thread affinity
      R.Slot = SlotRef;
    } else {
      R.Err = T.message();
    }
  }

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

  I.Slots.reserve(I.Opts.Workers);
  I.Threads.reserve(I.Opts.Workers);
  for (unsigned W = 0; W < I.Opts.Workers; ++W)
    I.Slots.push_back(std::make_shared<detail::ReturnSlot>());
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

unsigned ParseService::workers() const { return I->Opts.Workers; }
EngineKind ParseService::mode() const { return I->Opts.Mode; }
