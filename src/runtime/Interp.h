//===- runtime/Interp.h - IPG parsing engine --------------------*- C++ -*-===//
//
// Part of the IPG reproduction of "Interval Parsing Grammars for File Format
// Parsing" (PLDI 2023). MIT license.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The reference parsing engine implementing the big-step semantics of
/// Figures 8 and 15: biased choice over alternatives, interval-confined
/// subparsers, the start/end/EOI special attributes, arrays, predicates,
/// and the full-language features (switch, local rules, existentials,
/// blackboxes).
///
/// The interpreter and the bytecode VM (vm/BytecodeVM.h) are the two host
/// engines, and they share one execution core, host::Runner
/// (runtime/HostRunner.h): the three recursion-shape tiers, salvage,
/// deadlines, memoization and stats. Both execute each
/// alternative in an ipg_rt::Frame (support/GenRuntime.h), the frame
/// generated parsers use too, so attribute lookup and updStartEnd are one
/// implementation. They differ only in expression evaluation. The
/// interpreter tree-walks each source expression through expr/Eval.h —
/// the paper's reference semantics, and the oracle
/// tests/differential_test.cpp holds the VM to.
///
/// Memoization keys on (rule, absolute slice) as described in Section 3.3,
/// giving the O(n^2) bound; it can be disabled for ablation. The table is
/// an open-addressing flat hash over a 128-bit packed key
/// (ipg_rt::FlatIntervalMap, which generated parsers embed too), not a
/// node-based map. Local
/// (where-clause) rules are never memoized because their meaning depends
/// on the enclosing frame, and leaf rules (no subparser-spawning term;
/// ruleSpawnsSubparsers) are skipped because re-matching them is cheaper
/// than a table probe — both halves of the policy are shared with the
/// code generator.
///
/// Hot-path memory discipline: parse trees are built in an arena-backed
/// TreeStore, frame scratch lives in a pool, and the memo table
/// keeps its capacity across parses. A parse allocates from the heap only
/// while these structures first grow; once the caller drops the previous
/// TreePtr before the next parse() the engine recycles the store and
/// steady-state parsing performs no heap allocation (stats().StoreRecycled
/// reports whether that happened). A successful parse() MOVES store
/// ownership into the returned TreePtr (an intrusive plain refcount — no
/// shared_ptr, no atomics, no per-parse refcount traffic); a dying
/// TreePtr parks its store in the engine's recycler for the next parse.
/// Holding a TreePtr simply makes the next parse() start a fresh store —
/// older trees are never invalidated, and they may outlive the engine.
/// Trees must be shared and released on the engine's thread (the same
/// one-per-thread contract the engine itself has).
///
/// Nontermination handling: the formal semantics simply diverges on
/// grammars that fail termination checking; a practical engine cannot.
/// EngineOptions::MaxDepth aborts such a parse with a hard error, in every
/// engine tier.
///
//===----------------------------------------------------------------------===//

#ifndef IPG_RUNTIME_INTERP_H
#define IPG_RUNTIME_INTERP_H

#include "grammar/Grammar.h"
#include "runtime/Blackbox.h"
#include "runtime/Engine.h"
#include "runtime/EngineOptions.h"
#include "runtime/ParseTree.h"
#include "support/Bytes.h"
#include "support/Result.h"

#include <chrono>
#include <cstddef>
#include <memory>

namespace ipg {

/// Reusable engine internals (tree store, memo table, frame pool; shared
/// with the bytecode VM — runtime/ParseScratch.h); owned via unique_ptr
/// so the hot-path types stay out of this header.
struct ParseScratch;

/// One engine instance per (grammar, options); parse() may be called many
/// times and results are independent, but the instance recycles its
/// internal storage across calls — see the memory-discipline notes above.
/// Not copyable; create one per thread (or through makeEngine /
/// ParseService, which enforce that).
class Interp : public Engine {
public:
  explicit Interp(const Grammar &G, const BlackboxRegistry *Blackboxes = nullptr,
                  EngineOptions Opts = EngineOptions());
  ~Interp() override;

  /// Parses from the grammar's start symbol.
  Expected<TreePtr> parse(ByteSpan Input) override;
  /// Parses from an explicit (global) start nonterminal.
  Expected<TreePtr> parse(ByteSpan Input, Symbol StartNT);

  /// Statistics of the most recent parse() call.
  const EngineStats &stats() const override { return Stats; }

  const Grammar &grammar() const override { return G; }

  EngineKind kind() const override { return EngineKind::Interp; }

  /// Adopts a store coming home from a FrozenTree round trip: re-binds
  /// it to this engine's recycler and parks it for the next parse().
  /// Declines (returns false) when a parked store already waits.
  bool adoptStore(TreeStore *Store) override;

  /// Deadline support (checked at rule entries / flattened levels /
  /// machine act starts, amortized): a parse past the armed deadline
  /// aborts with Verdict::Timeout.
  bool setDeadline(std::chrono::steady_clock::time_point D) override {
    HasDeadline = true;
    Deadline = D;
    return true;
  }
  void clearDeadline() override { HasDeadline = false; }

private:
  const Grammar &G;
  const BlackboxRegistry *Blackboxes;
  EngineOptions Opts;
  EngineStats Stats;
  std::unique_ptr<ParseScratch> S;
  bool HasDeadline = false;
  std::chrono::steady_clock::time_point Deadline{};
};

} // namespace ipg

#endif // IPG_RUNTIME_INTERP_H
