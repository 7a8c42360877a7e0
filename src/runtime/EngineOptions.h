//===- runtime/EngineOptions.h - Shared engine knobs ------------*- C++ -*-===//
//
// Part of the IPG reproduction of "Interval Parsing Grammars for File Format
// Parsing" (PLDI 2023). MIT license.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The runtime knobs and counters shared by every execution mode. All
/// three engines — the host engines (interpreter and VM, which share one
/// execution core, runtime/HostRunner.h) and generated parsers — consume
/// the SAME EngineOptions struct, so defaults cannot drift between them: a
/// depth limit of 64 means the same hard failure in each, and UseMemo
/// toggles the same Section-3.3 (rule, absolute-interval) policy
/// everywhere — tests/engine_test.cpp regression-tests the parity. The
/// one knob generated parsers cannot honor (Salvage recovery) makes
/// makeEngine() refuse to build one rather than be ignored.
///
/// EngineStats is the uniform counter block `Engine::stats()` returns.
/// Counters are reset at the ENTRY of every parse() — including parses
/// that fail before doing any work — so a caller reading stats() after a
/// failure always sees that failure's numbers, never the previous call's.
///
//===----------------------------------------------------------------------===//

#ifndef IPG_RUNTIME_ENGINEOPTIONS_H
#define IPG_RUNTIME_ENGINEOPTIONS_H

#include <cstddef>
#include <cstdint>

namespace ipg {

/// What a parse does when a term fails (docs/architecture.md, "Error
/// recovery & salvage").
enum class RecoveryPolicy : uint8_t {
  /// A failing term fails its alternative; a rule with no surviving
  /// alternative fails its caller. Today's semantics, the default.
  Strict,
  /// A failing term whose interval endpoints are already resolved — at
  /// the boundaries the lowering marked recoverable (lir::TermL::
  /// Recoverable) — is replaced by a `hole` leaf covering exactly that
  /// interval (a zero-copy window over the damaged bytes, like `raw`),
  /// and the enclosing sequence continues. Failures whose bounds are
  /// data-dependent and no longer resolve still reject. Supported by
  /// the host engines (interpreter and VM); generated parsers reject the
  /// policy at construction (documented limitation).
  Salvage,
};

/// The outcome classification every parse reports (EngineStats::
/// ParseVerdict, ParseResult::verdict()).
enum class Verdict : uint8_t {
  Accept,  ///< parse succeeded with no holes
  Salvage, ///< parse succeeded but >= 1 hole fences damaged bytes
  Reject,  ///< parse failed (soft reject or hard error)
  Timeout, ///< parse aborted by a deadline (Engine::setDeadline)
};

inline const char *verdictName(Verdict V) {
  switch (V) {
  case Verdict::Accept:
    return "accept";
  case Verdict::Salvage:
    return "salvage";
  case Verdict::Reject:
    return "reject";
  case Verdict::Timeout:
    return "timeout";
  }
  return "unknown";
}

struct EngineOptions {
  /// Packrat memoization of (rule, absolute interval) results
  /// (Section 3.3). The host engines (interpreter and VM) honor it per
  /// parse; the code generator bakes it into the emitted rule functions.
  bool UseMemo = true;
  /// Hard limit on rule recursion depth. Tripping it aborts the whole
  /// parse (no backtracking into sibling alternatives) in every engine.
  /// It is the one divergence guard: a grammar that fails termination
  /// checking (analysis/Termination.h) stops here instead of diverging;
  /// a checked grammar reaches it only on input nested that deep.
  size_t MaxDepth = 8192;
  /// Error-recovery policy; see the enum. Strict preserves today's
  /// byte-for-byte behavior (and counters) exactly.
  RecoveryPolicy Recovery = RecoveryPolicy::Strict;
};

struct EngineStats {
  size_t NodesCreated = 0;
  /// Terms executed, counted identically by the host engines (interpreter
  /// and VM); generated parsers do not count terms and report 0.
  size_t TermsExecuted = 0;
  size_t MemoHits = 0;
  size_t MemoMisses = 0;
  /// Deepest grammar recursion the parse reached, in every engine.
  /// Flattened rules count their virtual levels and the step machine its
  /// work-stack height, so the figure matches what plain recursion would
  /// have reported — parses never consume C stack proportional to it.
  size_t PeakDepth = 0;
  /// Arena bytes allocated during the parse — includes nodes built for
  /// alternatives that later failed and memoized subtrees not reachable
  /// from the result, so it bounds (not equals) the tree's footprint.
  size_t ArenaBytesUsed = 0;
  /// Whether this parse recycled a previous parse's TreeStore (true in
  /// the allocation-free steady state).
  bool StoreRecycled = false;
  /// Holes emitted during the parse under RecoveryPolicy::Salvage —
  /// including holes in alternatives that later failed and in memoized
  /// subtrees the result never reaches, so it bounds (not equals) the
  /// number of holes on the returned tree. Always 0 under Strict.
  size_t HolesFilled = 0;
  /// Holes reachable from the RETURNED tree (countHoles over the
  /// result); the basis of the Salvage verdict. 0 on failed parses.
  size_t HolesInTree = 0;
  /// The parse's outcome classification; see Verdict.
  Verdict ParseVerdict = Verdict::Reject;
  /// True when the parse was aborted by a deadline (the verdict is then
  /// Timeout, and the error text names the deadline).
  bool TimedOut = false;
  /// Failure diagnostics: the name Symbol of the rule (or blackbox) a
  /// failing parse stopped in, and the absolute byte offset of the
  /// window it was examining. ~0u / -1 when the parse succeeded or the
  /// failure site carries no location (e.g. "internal:" lowering
  /// errors). Generated parsers report both through the 6-slot
  /// ipg_mod_stats ABI.
  uint32_t FailRule = ~0u;
  int64_t FailOffset = -1;
};

} // namespace ipg

#endif // IPG_RUNTIME_ENGINEOPTIONS_H
