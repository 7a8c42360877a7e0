//===- vm/BytecodeVM.h - bytecode parsing VM --------------------*- C++ -*-===//
//
// Part of the IPG reproduction of "Interval Parsing Grammars for File Format
// Parsing" (PLDI 2023). MIT license.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The third proven-equivalent execution mode: a bytecode VM that runs the
/// lowered module (lower/LIR.h) directly. It and the interpreter are the
/// two host engines: instantiations of one execution core, host::Runner
/// (runtime/HostRunner.h) — Direct recursion, Flattened descend-replay,
/// Step work-stack machine, salvage, deadlines, memoization, stats — over
/// the same runtime state (arena TreeStore, FlatIntervalMap memo, frame
/// pool, store recycler; runtime/ParseScratch.h). Each alternative runs
/// in an ipg_rt::Frame, the frame generated parsers use too, and the
/// evaluator's attribute, sibling, array and input loads are that frame's
/// lookups; only the exists-scan binding stack in front of them is the
/// VM's own. Its trees, counters (terms, nodes, memo traffic, PeakDepth),
/// hard-error texts, and allocation profile are therefore identical to
/// the interpreter's by construction (tests/differential_test.cpp locks
/// all three modes against each other).
///
/// The VM supplies its expression evaluator, and that evaluator's Fuse
/// trait switches on the runner's fused records: fixed-layout record
/// rules (lir::RecordPlan — ELF/PE header and table rows, ZIP's EOCD,
/// DNS's header) run as one step, with the per-term loop as fallback on
/// any failure, so trees and counters stay the interpreter's. Where the
/// interpreter tree-walks source expressions through expr/Eval.h on every
/// evaluation, the VM executes the compiled postfix programs lir::lower()
/// produced once per grammar: a computed-goto dispatch loop (switch
/// fallback on non-GNU compilers) over a persistent operand stack, with
/// short-circuit logic compiled to structured forward jumps. Term-level
/// dispatch is the runner's plain switch over the eight lir opcodes,
/// except inside fused records.
///
/// The profiled hot path is not the dispatch loop but how often it is
/// ENTERED: a parse evaluates tens of thousands of interval-endpoint
/// programs, and almost all of them are trivial (a constant, EOI, an
/// attribute +/- a constant, a fixed-width read at a known offset). The
/// engine therefore decodes every program ONCE at construction into a
/// QuickExpr — a closed-form description the evaluator computes directly,
/// no operand stack, no dispatch — and only programs that don't fit a
/// quick form pay for the loop. This is the VM's speed advantage over the
/// interpreter, which re-walks the expression tree on every evaluation.
///
/// The memory discipline, depth-free contract (grammar recursion bounded
/// by EngineOptions::MaxDepth alone, never the C stack), and the
/// one-engine-per-thread rule are the shared runner's, so exactly the
/// interpreter's; see runtime/Interp.h for the long-form contract.
///
//===----------------------------------------------------------------------===//

#ifndef IPG_VM_BYTECODEVM_H
#define IPG_VM_BYTECODEVM_H

#include "grammar/Grammar.h"
#include "runtime/Blackbox.h"
#include "runtime/Engine.h"
#include "runtime/EngineOptions.h"
#include "runtime/ParseTree.h"
#include "support/Bytes.h"
#include "support/Result.h"

#include <chrono>
#include <cstdint>
#include <memory>
#include <vector>

namespace ipg {

struct ParseScratch; // runtime/ParseScratch.h — shared with the interpreter

/// One engine instance per (grammar, options); same recycling and
/// threading contract as Interp. Blackboxes resolve against the registry
/// once at construction (through the lowered module's call-site table).
class BytecodeVM : public Engine {
public:
  explicit BytecodeVM(const Grammar &G,
                      const BlackboxRegistry *Blackboxes = nullptr,
                      EngineOptions Opts = EngineOptions());
  ~BytecodeVM() override;

  /// Parses from the grammar's start symbol.
  Expected<TreePtr> parse(ByteSpan Input) override;
  /// Parses from an explicit (global) start nonterminal.
  Expected<TreePtr> parse(ByteSpan Input, Symbol StartNT);

  /// Statistics of the most recent parse() call.
  const EngineStats &stats() const override { return Stats; }

  const Grammar &grammar() const override { return G; }

  EngineKind kind() const override { return EngineKind::Vm; }

  /// Adopts a store coming home from a FrozenTree round trip (see
  /// Interp::adoptStore).
  bool adoptStore(TreeStore *Store) override;

  /// Deadline support — same recoverable-boundary checks as the
  /// interpreter's (see Interp::setDeadline).
  bool setDeadline(std::chrono::steady_clock::time_point D) override {
    HasDeadline = true;
    Deadline = D;
    return true;
  }
  void clearDeadline() override { HasDeadline = false; }

  /// The closed form of one trivial expression program, decoded once at
  /// engine construction (see the file comment). Every quick form is
  /// exactly equivalent to running its program through the dispatch loop
  /// — same value, same partiality, same (wrapping) arithmetic — so the
  /// evaluator may take either path.
  struct QuickExpr {
    enum Kind : uint8_t {
      General,      ///< no quick form; run the dispatch loop
      Const,        ///< Imm
      Eoi,          ///< |input| + Imm
      Attr,         ///< attribute Sym (binds, then lexical chain) + Imm
      NtAttr,       ///< attribute A of the latest sibling node Sym, + Imm
      TermEnd,      ///< end of term A's recorded interval + Imm
      TermEndAttr,  ///< end of term A's interval + attribute Sym
      AttrMulImm,   ///< Imm * (attribute Sym + Imm2) (wrapping)
      ReadAtConst,  ///< fixed-width read (spec A) at offset Imm
      ReadAtAttr,   ///< fixed-width read (spec A) at Sym + Imm
      NtAffine,     ///< nt Sym.A + (attr Sym3 + Imm) * nt Sym2.Attr2 —
                    ///< the array-element interval form (base+i*stride)
      ElemAttr,     ///< attribute A of element attr(Sym3) of array Sym
      ElemAttrEqImm,///< 1 if that element attribute equals Imm, else 0
      ElemAttrPair, ///< arr Sym [attr(Sym3)].A + arr Sym2 [attr(Imm)].Attr2
                    ///< — the element extent form (elem.off + elem.size)
      AttrEqImm,    ///< 1 if attribute Sym equals Imm, else 0
      EoiDivImm,    ///< |input| / Imm (guarded division)
      AttrInRange,  ///< attr Sym >= Imm, and then attr Sym2 <= Imm2,
                    ///< with And's short-circuit partiality
      Digits,       ///< sum of (read(off_i) - Imm2) * w_i over the Imm
                    ///< DigitTerm entries starting at B — the positional
                    ///< decimal-decode form (e.g. PDF xref numbers)
      AttrAffinePair, ///< attr Sym + Imm + Imm2 * (attr Sym2 + (int32)A)
                      ///< — the fixed-pitch table-row endpoint form
      NtAttrScalePair,///< nt Sym.A * Imm + nt Sym2.Attr2 — the
                      ///< two-sibling positional-value form
    };
    Kind K = General;
    uint32_t A = 0;    ///< width|endian spec for reads (width in the low
                       ///< byte, bit 8 = big-endian); term index for
                       ///< TermEnd*; attribute symbol for NtAttr /
                       ///< NtAffine / ElemAttr*
    uint32_t B = 0;    ///< DigitTerm table start (Digits)
    Symbol Sym = 0;    ///< attribute / nonterminal / array symbol
    Symbol Sym2 = 0;   ///< second nonterminal / attribute symbol
    Symbol Attr2 = 0;  ///< attribute of Sym2 (NtAffine)
    Symbol Sym3 = 0;   ///< index attribute (NtAffine / ElemAttr*)
    int64_t Imm = 0;   ///< constant, addend, factor, read offset, or
                       ///< DigitTerm count (Digits)
    int64_t Imm2 = 0;  ///< second constant (AttrMulImm inner addend,
                       ///< AttrInRange upper bound, Digits subtrahend)
  };

  /// One term of a Digits quick form: a fixed-width read at constant
  /// offset \p Off, weighted by \p Weight after the shared subtrahend.
  struct DigitTerm {
    int64_t Off = 0;
    int64_t Weight = 0;
  };

private:
  const Grammar &G;
  const BlackboxRegistry *Blackboxes;
  EngineOptions Opts;
  EngineStats Stats;
  std::unique_ptr<ParseScratch> S;
  std::vector<QuickExpr> Quick;       ///< indexed by lir::ExprId
  std::vector<DigitTerm> QuickDigits; ///< side table for QuickExpr::Digits
  bool HasDeadline = false;
  std::chrono::steady_clock::time_point Deadline{};
};

} // namespace ipg

#endif // IPG_VM_BYTECODEVM_H
