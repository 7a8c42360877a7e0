//===- runtime/ParseScratch.h - reusable in-process engine state -*- C++ -*-===//
//
// Part of the IPG reproduction of "Interval Parsing Grammars for File Format
// Parsing" (PLDI 2023). MIT license.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The recycled host-only state of the two host engines — the
/// tree-walking interpreter (runtime/Interp.cpp) and the bytecode VM
/// (vm/BytecodeVM.cpp). Both are instantiations of one execution core
/// (runtime/HostRunner.h) running the same three-tier strategy (Direct
/// recursion / Flattened descend-replay / Step work-stack machine) over
/// the same lowered module (lower/LIR.h). The frame an alternative runs
/// in is ipg_rt::Frame (support/GenRuntime.h), the one generated parsers
/// use too; this header pools those frames by nesting and holds what only
/// the host needs around them: the lowered module and resolved blackbox
/// sites, the memo table, per-nesting array scratch, the flattened
/// window stack, machine activation records, the VM's operand stack, and
/// the store-recycling slot. Everything here survives across parse()
/// calls so the steady state allocates nothing: vectors and the memo
/// table keep their capacity through clear(), the TreeStore keeps its
/// arena blocks through reset(), and frames are pooled.
///
/// This header is an implementation detail of the host runner and its two
/// engines; nothing else should include it (public surfaces expose it
/// only as a forward declaration behind unique_ptr).
///
//===----------------------------------------------------------------------===//

#ifndef IPG_RUNTIME_PARSESCRATCH_H
#define IPG_RUNTIME_PARSESCRATCH_H

#include "lower/LIR.h"
#include "runtime/Blackbox.h"
#include "runtime/EngineOptions.h"
#include "runtime/ParseTree.h"
#include "support/Bytes.h"
#include "support/GenRuntime.h"

#include <cstddef>
#include <cstdint>
#include <vector>

namespace ipg {

struct ParseScratch {
  /// ipg_rt::memoPack'd outcomes — the same encoding the generated Ctx
  /// uses, through the same helpers; ids are stable within a parse.
  ipg_rt::FlatIntervalMap<uint32_t> Memo;
  /// Frames by C-stack nesting (ipg_rt::Frame, the frame every tier runs
  /// in), sized by FrameSizes.
  std::vector<ipg_rt::FramePtr> FramePool;
  lir::FramePlan FrameSizes;
  std::vector<std::vector<uint32_t>> ElemScratch; // per array-nesting level
  size_t ArrayNest = 0;

  /// The lowered module (lower/LIR.h), computed once per engine: resolved
  /// rule targets, interned literals, recursion shapes, memo eligibility,
  /// and blackbox call sites — the shared resolution layer all engines
  /// consume instead of re-deriving it from the Grammar.
  lir::Module Lowered;
  /// Blackbox call sites pre-resolved against the registry at engine
  /// construction, indexed by lir::TermL::Bb. A null entry reproduces the
  /// "not registered" hard error at call time.
  std::vector<const BlackboxFn *> BbFns;

  /// Flattened-tier state: the descend/replay window stack and banked
  /// prefix-child records. Nested flattened activations share these vectors
  /// through saved bases; capacity persists across parses, so the steady
  /// state allocates nothing.
  struct FlatKid {
    uint32_t Node = 0;   ///< adjusted (shifted) child node id
    int64_t Start = 0;   ///< recorded child start as the parent saw it
    int64_t End = 0;     ///< recorded child end as the parent saw it
    bool Touched = false;
  };
  std::vector<ByteSpan> FlatLevels;
  std::vector<FlatKid> FlatKids;

  /// Step-tier activation record: one per live rule invocation on the
  /// explicit work-stack machine (the machine only ever starts at the
  /// parse root; see analyzeRecShape's up-closure).
  struct MachineAct {
    RuleId Id = InvalidRuleId;
    ByteSpan Input;
    const ipg_rt::Frame *Lex = nullptr; ///< lexical frame (where-clauses)
    uint32_t AltIdx = 0;
    uint32_t StepIdx = 0; ///< next position in the alternative's exec order
    enum : uint8_t { WaitNone, WaitNT, WaitArr };
    uint8_t Wait = WaitNone;
    bool NeedBegin = true;  ///< beginAlt pending for (AltIdx, StepIdx=0)
    uint32_t PendTI = 0;    ///< term index of the suspended child
    int64_t PendLo = 0;
    int64_t PendHi = 0;
    /// Salvage delivery: whether a soft failure of the suspended child
    /// becomes a hole over [PendLo, PendHi), and the hole's rule name.
    bool PendRecov = false;
    Symbol PendHole = InvalidSymbol;
    const lir::TermL *Arr = nullptr; ///< in-flight array term, if any
    int64_t ArrK = 0;
    int64_t ArrTo = 0;
    int64_t ArrMaxEnd = 0;
    bool ArrTouched = false;
    bool ArrHadSaved = false;
    int64_t ArrSaved = 0;
    size_t ArrLevel = 0;
  };
  std::vector<MachineAct> Acts;

  /// Bytecode-evaluator scratch (VM only; the interpreter tree-walks):
  /// the operand stack shared by nested program activations through saved
  /// bases, and the exists-scan binding stack consulted by LoadAttr
  /// innermost-first before the frame's lexical chain.
  std::vector<int64_t> VStack;
  /// Committed height of VStack: the prefix owned by outer program
  /// activations. A general-form evaluation windows [VTop, VTop+MaxStack)
  /// with raw pointers and only publishes VTop across the one re-entrant
  /// opcode (Exists), so nested activations stack above it.
  size_t VTop = 0;
  struct Bind {
    Symbol Var = InvalidSymbol;
    int64_t Value = 0;
  };
  std::vector<Bind> Binds;

  /// The store of the parse in flight and the recycler behind it. A
  /// successful parse moves the store into the returned TreePtr; after a
  /// failed one it serves the next parse (no result escaped).
  StoreSlot Stores;

  /// The pooled frame \p Depth, resolving children against the store of
  /// the parse in flight. Frames deeper than those bindGrammar built (the
  /// step machine, nested where-clause rules) are built on first use.
  ipg_rt::Frame &frameAt(size_t Depth) {
    while (FramePool.size() <= Depth)
      growFramePool();
    ipg_rt::Frame &F = *FramePool[Depth];
    F.Store = &Stores.current();
    return F;
  }

  std::vector<uint32_t> &elemScratchAt(size_t Level) {
    if (ElemScratch.size() <= Level)
      ElemScratch.resize(Level + 1);
    return ElemScratch[Level];
  }

  /// Adds the next frame to the pool. Frame 0 hosts no rule (rule entry
  /// counts depth from 1); frames 1 to FrameSizes.Depth are sized for any
  /// alternative; deeper ones, a step machine's frame per level, start
  /// empty so a million-level machine parse pays only what it uses.
  void growFramePool() {
    const size_t D = FramePool.size();
    const bool Sized = D > 0 && D <= FrameSizes.Depth;
    FramePool.push_back(ipg_rt::Frame::create(Sized ? FrameSizes.Terms : 0,
                                              Sized ? FrameSizes.Keys : 0));
  }

  /// Shared by Interp/BytecodeVM construction: lower the grammar once,
  /// resolve every blackbox call site against \p Blackboxes, and build the
  /// frames of the grammar's deepest rule chain (lir::FramePlan), so a
  /// fresh engine's first parse does not grow them depth by depth.
  void bindGrammar(const Grammar &G, const BlackboxRegistry *Blackboxes) {
    Lowered = lir::lower(G);
    BbFns.reserve(Lowered.BbSites.size());
    for (const lir::BbSite &Site : Lowered.BbSites)
      BbFns.push_back(Blackboxes ? Blackboxes->find(Site.NameStr) : nullptr);
    FrameSizes = lir::framePlan(Lowered);
    FramePool.reserve(FrameSizes.Depth + 1);
    while (FramePool.size() <= FrameSizes.Depth)
      growFramePool();
  }

  /// Shared parse-entry reset: recycle or allocate the store and clear
  /// every per-parse table (capacity retained). Sets
  /// \p Stats.StoreRecycled.
  void beginParse(EngineStats &Stats) {
    Stats.StoreRecycled = Stores.acquire();
    Memo.clear();
    ArrayNest = 0;
    // The tier scratch is left empty by every exit path; clearing here is
    // belt-and-braces so a parse can never see a predecessor's state.
    FlatLevels.clear();
    FlatKids.clear();
    Acts.clear();
    VStack.clear();
    VTop = 0;
    Binds.clear();
  }
};

} // namespace ipg

#endif // IPG_RUNTIME_PARSESCRATCH_H
