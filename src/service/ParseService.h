//===- service/ParseService.h - batched multi-threaded parsing --*- C++ -*-===//
//
// Part of the IPG reproduction of "Interval Parsing Grammars for File Format
// Parsing" (PLDI 2023). MIT license.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// A thread-pooled front end over the two parsing engines: N workers,
/// each owning ONE engine instance per configured format, pulling
/// ParseRequests from a shared queue and fulfilling futures with
/// self-contained ParseResults.
///
/// Threading model (the part worth reading twice):
///
///  - Engines are strictly one-per-thread. The service never shares an
///    engine between workers; what IS shared is immutable — the loaded
///    Grammar (its interner is only written during loading) and, in
///    generated mode, the dlopen'd GenModule (fn pointers only). So the
///    hot path has no locks and NO atomic refcounts: each worker's
///    TreeStore recycler is touched by that worker alone.
///
///  - A successful parse is detach()ed on the worker into a FrozenTree —
///    the single mutation point that ends the store's engine-thread
///    affinity (runtime/ParseTree.h). The ParseResult owning it may be
///    read and destroyed on ANY thread.
///
///  - Recycling still works across the handoff: every result carries a
///    reference to its worker's store pool. When the consumer destroys
///    the result, the store is pushed into the pool (one mutex op on the
///    *consumer's* cold path, not the parse path) and the worker offers
///    one pooled store to the job's engine at the top of its loop —
///    steady-state service throughput does zero parse-path heap
///    allocation per request, exactly like the single-threaded engines.
///    An engine that still holds a store (a failed parse leaves its
///    store behind) declines the offer, and the store stays pooled for
///    the next engine that has none, so a warm worker builds no store
///    however its jobs mix formats and verdicts. The pool is bounded
///    (16 stores per worker); a store given back to a full pool, or
///    after its worker is gone, is destroyed.
///
///  - A store whose tree the consumer read comes home with its cache
///    lines in the consumer's cache. FrozenTree's accessors mark such a
///    store (one relaxed-atomic bit), and adopting it writes one byte per
///    line of the span its last tree used, so the worker takes those
///    lines in one pass before the parse instead of stalling on each
///    write during it. A store nobody read is only reset.
///
///  - metrics() sums per-worker counters of that economy: jobs, stores
///    built, stores claimed, stores dropped. The job path bumps them
///    with relaxed single-writer stores and reads no clock for them.
///
///  - Results also keep their InputSource alive (ordinary leaves alias
///    the input bytes), so a ParseResult is valid after the request, the
///    batch, and even the service are gone.
///
/// Shutdown: the destructor finishes every queued request (no future is
/// ever abandoned), then joins the workers. submit() after shutdown
/// began returns an already-failed result.
///
//===----------------------------------------------------------------------===//

#ifndef IPG_SERVICE_PARSESERVICE_H
#define IPG_SERVICE_PARSESERVICE_H

#include "runtime/Engine.h"
#include "runtime/ParseTree.h"
#include "service/InputSource.h"
#include "support/Result.h"

#include <chrono>
#include <cstdint>
#include <future>
#include <memory>
#include <string>
#include <vector>

namespace ipg {

class ParseService;

/// One unit of work: parse \p Input as the (pre-configured) format
/// \p Format. The source is shared so the result can keep it alive.
struct ParseRequest {
  std::string Format;
  std::shared_ptr<InputSource> Input;
};

/// Per-request knobs for the submit overloads. Default-constructed
/// options change nothing.
struct SubmitOptions {
  /// Absolute deadline for this request (steady clock). A parse still
  /// running at the deadline aborts cleanly with Verdict::Timeout — the
  /// engine checks at recoverable boundaries (rule entries / machine act
  /// starts, amortized), so the abort is prompt but not instantaneous.
  /// The default (epoch) means no deadline. Compiled parsers cannot be
  /// interrupted, so a generated-mode service accepts a deadline request
  /// into the queue and its worker then fails it without parsing ("does
  /// not support deadlines", Verdict::Reject); the worker goes on serving.
  std::chrono::steady_clock::time_point Deadline{};
  bool hasDeadline() const {
    return Deadline != std::chrono::steady_clock::time_point{};
  }
};

namespace detail {
/// One worker's pool of stores coming home from result consumers (any
/// thread); see the ParseService file comment.
struct StorePool;
} // namespace detail

/// A snapshot of the service's store-economy counters, summed over the
/// workers when metrics() runs. Each counter is exact for the jobs it
/// has seen; the snapshot is not atomic across counters or workers.
struct ServiceMetrics {
  uint64_t Jobs = 0;          ///< requests a worker finished
  uint64_t StoresBuilt = 0;   ///< parses that found no store to recycle
  uint64_t StoresClaimed = 0; ///< adopted stores whose tree was read
  uint64_t StoresDropped = 0; ///< stores given back to a full or closed pool
};

/// The outcome of one request. Move-only and self-contained: owns the
/// tree (FrozenTree), the input bytes backing its leaves, and a copy of
/// the engine stats for the parse. Destroying it on any thread is safe
/// and routes the tree's store back to the worker for recycling.
class ParseResult {
public:
  ParseResult() = default;
  ParseResult(ParseResult &&) = default;
  ParseResult &operator=(ParseResult &&) = default;
  ParseResult(const ParseResult &) = delete;
  ParseResult &operator=(const ParseResult &) = delete;
  ~ParseResult();

  bool ok() const { return Err.empty(); }
  const std::string &error() const { return Err; }
  const std::string &format() const { return Format; }

  /// Root of the parsed tree (null on failure).
  const ParseTree *root() const { return Tree.get(); }
  const FrozenTree &tree() const { return Tree; }

  /// Engine stats of this parse (copied out of the worker's engine
  /// before it moved on).
  const EngineStats &stats() const { return Stats; }

  /// The parse's outcome classification (stats().ParseVerdict): Accept,
  /// Salvage (the tree carries hole nodes over damaged bytes), Reject,
  /// or Timeout (the request's SubmitOptions::Deadline fired). Requests
  /// that failed before reaching an engine report Reject.
  Verdict verdict() const { return Stats.ParseVerdict; }

  /// End-to-end latency: submit() to result-ready, microseconds.
  uint64_t latencyUs() const { return LatencyUs; }

private:
  friend class ParseService;

  FrozenTree Tree;
  std::shared_ptr<InputSource> Input;
  std::shared_ptr<detail::StorePool> Pool;
  EngineStats Stats;
  std::string Err;
  std::string Format;
  uint64_t LatencyUs = 0;
};

struct ParseServiceOptions {
  /// Worker threads; 0 means one per hardware thread.
  unsigned Workers = 0;
  /// Which engine each worker instantiates.
  EngineKind Mode = EngineKind::Interp;
  /// Knobs applied to every engine (and baked into generated modules).
  EngineOptions Engine;
};

class ParseService {
public:
  /// Loads every named format up front (grammars once, generated modules
  /// compiled once and shared) and starts the workers. Fails — without
  /// leaking threads — if any format fails to load or compile.
  static Expected<std::unique_ptr<ParseService>>
  create(const std::vector<std::string> &Formats,
         const ParseServiceOptions &Opts = {});

  /// Finishes all queued work, then stops the workers.
  ~ParseService();
  ParseService(const ParseService &) = delete;
  ParseService &operator=(const ParseService &) = delete;

  /// Enqueues one request. The future becomes ready when a worker
  /// finishes it; a request for a format not passed to create() (or a
  /// null input) fails fast without touching a worker.
  std::future<ParseResult> submit(ParseRequest Request);

  /// Like submit(), with per-request options (e.g. a deadline).
  std::future<ParseResult> submit(ParseRequest Request,
                                  const SubmitOptions &Options);

  /// Enqueues a batch in submission order (one queue broadcast instead
  /// of M). Results complete out of order across workers; index I of the
  /// returned vector corresponds to Requests[I].
  std::vector<std::future<ParseResult>>
  submitBatch(std::vector<ParseRequest> Requests);

  /// The workers' counters (see ServiceMetrics). Safe on any thread,
  /// concurrently with submissions; a job is counted before its future
  /// becomes ready.
  ServiceMetrics metrics() const;

  unsigned workers() const;
  EngineKind mode() const;

private:
  ParseService();
  struct Impl;
  std::unique_ptr<Impl> I;
};

} // namespace ipg

#endif // IPG_SERVICE_PARSESERVICE_H
