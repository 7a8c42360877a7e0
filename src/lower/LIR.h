//===- lower/LIR.h - flat lowered IR shared by every engine -----*- C++ -*-===//
//
// Part of the IPG reproduction of "Interval Parsing Grammars for File Format
// Parsing" (PLDI 2023). MIT license.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The lowering layer every execution mode consumes. lower() runs ONCE per
/// Grammar and produces a flat, fully resolved module:
///
///  - every rule's alternatives flattened to instruction sequences
///    (lir::TermL) already in the Section-3.2 execution order, with rule
///    targets, literal ids, and blackbox call sites resolved;
///  - every expression compiled to a compact postfix program
///    (lir::XInstr) with structured short-circuit jumps, ready for the
///    bytecode VM's dispatch loop;
///  - the recursion-shape classification (analysis/RecShape.h) and the
///    (rule, interval) memoization eligibility policy, computed once;
///  - the deduplicated blackbox call-site table engines resolve against
///    their registry at construction time;
///  - a lir::RecordPlan for every fixed-layout record rule (literals,
///    `raw`, fixed-offset reads, comparison checks), which the VM runs
///    as one fused step.
///
/// Consumers divide the module between them: both host engines run it
/// through one execution core (runtime/HostRunner.h) that differs only in
/// expression evaluation and record fusion — the interpreter tree-walks
/// each program's source expression (ExprProgram::Src) through
/// expr/Eval.h and runs every term, the bytecode VM (vm/BytecodeVM.h)
/// executes the compiled programs and the record plans; the C++ emitter
/// (codegen/CppEmitter.cpp) walks lir for structure — name ids, memo
/// flags, shapes, execution order, blackbox sites — and renders the
/// source expressions as C++. Name/slot/blackbox resolution lives HERE
/// and nowhere else; the engines must not re-derive it.
///
/// Lowering never fails: a grammar that skipped completion or attribute
/// checking lowers to instructions whose unresolved operands
/// (InvalidRuleId targets, NoExpr intervals) reproduce the engines'
/// historical "internal:" hard errors at parse time. verify() checks the
/// invariants tests/vm_test.cpp locks: resolved operands for checked
/// grammars, interned literals, and jump-target well-formedness of every
/// expression program.
///
//===----------------------------------------------------------------------===//

#ifndef IPG_LOWER_LIR_H
#define IPG_LOWER_LIR_H

#include "analysis/RecShape.h"
#include "grammar/Grammar.h"

#include <cstddef>
#include <cstdint>
#include <string>
#include <vector>

namespace ipg {
namespace lir {

//===----------------------------------------------------------------------===//
// Expression programs
//===----------------------------------------------------------------------===//

/// Index of a compiled expression program in Module::Exprs.
using ExprId = uint32_t;
inline constexpr ExprId NoExpr = ~0u;

/// Opcodes of the postfix expression bytecode. Stack effects are fixed
/// per opcode; every program leaves exactly one value on the stack.
/// Partiality (absent attribute, guarded division, out-of-bounds read)
/// fails the whole program, exactly as expr/Eval.h's std::nullopt does.
enum class XOp : uint8_t {
  Num,       ///< push Imm
  Add,       ///< pop R, pop L, push L + R
  Sub,       ///< pop R, pop L, push L - R
  Mul,       ///< pop R, pop L, push L * R
  Div,       ///< guarded (ipg_rt::checkedDiv); fail on 0 / overflow
  Mod,       ///< guarded (ipg_rt::checkedMod)
  Eq,        ///< comparisons push 0/1
  Ne,
  Lt,
  Gt,
  Le,
  Ge,
  Shl,       ///< guarded (ipg_rt::checkedShl); fail outside [0, 62]
  Shr,       ///< guarded (ipg_rt::checkedShr)
  BitAnd,    ///< pop R, pop L, push L & R
  Bool,      ///< pop V, push V != 0 (normalizes And/Or results)
  BrFalse,   ///< pop V; V == 0: push 0, jump A (And short-circuit)
  BrTrue,    ///< pop V; V != 0: push 1, jump A (Or short-circuit)
  JmpZero,   ///< pop V; V == 0: jump A (conditional's else edge)
  Jmp,       ///< jump A
  LoadAttr,  ///< push attribute Sym (scoped bindings, then lexical chain)
  LoadNtAttr,   ///< push attribute Attr of latest sibling node named Sym
  LoadElemAttr, ///< pop Index; push Attr of element Index of array Sym
  LoadEoi,      ///< push the local input's size
  LoadTermEnd,  ///< push the touch-record end of term #Imm
  ReadFixed,    ///< pop Off; push fixed-width read (ReadKind in A)
  ReadRange,    ///< pop Hi, pop Lo; push btoi-style read (ReadKind in A)
  Exists,       ///< push the exists-scan result (ExistsInfo index in A)
};

/// One expression instruction. Which operand fields are live depends on
/// the opcode; dead fields are zero.
struct XInstr {
  XOp Op = XOp::Num;
  uint32_t A = 0;      ///< jump target (program-relative) / ReadKind /
                       ///< ExistsInfo index
  Symbol Sym = InvalidSymbol;  ///< attribute / nonterminal / array name
  Symbol Attr = InvalidSymbol; ///< attribute of LoadNtAttr/LoadElemAttr
  int64_t Imm = 0;             ///< literal value / term index
};

/// `exists j . C ? T : E` — the loop variable, the statically identified
/// scanned array (expr/Eval.h's findScannedArray), and the three
/// sub-programs. ArrayNT == InvalidSymbol reproduces evaluation failure.
struct ExistsInfo {
  Symbol LoopVar = InvalidSymbol;
  Symbol ArrayNT = InvalidSymbol;
  ExprId Cond = NoExpr;
  ExprId Then = NoExpr;
  ExprId Else = NoExpr;
};

/// A compiled expression: a [Begin, End) window into Module::XCode plus
/// the exact operand-stack high-water mark (so evaluators can reserve
/// once; tests/vm_test.cpp asserts the bound), and the source expression
/// it was compiled from (programs are never deduplicated), which the
/// interpreter's evaluator tree-walks instead of the bytecode.
struct ExprProgram {
  uint32_t Begin = 0;
  uint32_t End = 0;
  uint32_t MaxStack = 0;
  const Expr *Src = nullptr;
};

//===----------------------------------------------------------------------===//
// Lowered terms, alternatives, rules
//===----------------------------------------------------------------------===//

/// A pre-resolved interval: both endpoint programs, or NoExpr when the
/// source interval never went through completion (engines hard-error at
/// use, preserving the historical diagnostics).
struct IntervalL {
  ExprId Lo = NoExpr;
  ExprId Hi = NoExpr;
  const Interval *Src = nullptr; ///< source AST (emitter exprs)
};

/// Lowered term opcodes — one per Term::Kind, but with every operand
/// resolved at lowering time.
enum class TermOp : uint8_t {
  CallRule,     ///< nonterminal: parse Rule over Iv
  MatchBytes,   ///< terminal: match literal Lit inside Iv
  MatchRaw,     ///< wildcard terminal: accept Iv wholesale, zero-copy
  SetAttr,      ///< attribute definition: Sym = eval(E0)
  Check,        ///< predicate: fail when eval(E0) is 0 (or fails)
  ForArray,     ///< array: for Sym(=loop var) in [E0, E1) parse Rule at Iv
  Select,       ///< switch: arms Module::Arms[ArmsBegin, ArmsEnd)
  CallBlackbox, ///< blackbox call site Bb over Iv
};

/// One arm of a Select. Cond == NoExpr marks the default arm.
struct ArmL {
  ExprId Cond = NoExpr;
  RuleId Rule = InvalidRuleId;
  IntervalL Iv;
  const SwitchChoice *Src = nullptr;
};

/// One lowered term. TermIdx is the index into the SOURCE Alternative's
/// Terms — the identity the touch records (TermEnd) key on.
struct TermL {
  TermOp Op = TermOp::Check;
  uint32_t TermIdx = 0;
  RuleId Rule = InvalidRuleId;   ///< CallRule/ForArray target
  IntervalL Iv;                  ///< positional terms
  ExprId E0 = NoExpr;            ///< SetAttr/Check value; array From
  ExprId E1 = NoExpr;            ///< array To
  Symbol Sym = InvalidSymbol;    ///< attr name / loop var / NT or bb name
  Symbol Elem = InvalidSymbol;   ///< array element nonterminal
  uint32_t Lit = 0;              ///< literal id (MatchBytes)
  uint32_t ArmsBegin = 0;        ///< Select arm window
  uint32_t ArmsEnd = 0;
  uint32_t Bb = ~0u;             ///< blackbox site index (CallBlackbox)
  /// Whether RecoveryPolicy::Salvage may replace this term's failure
  /// with a hole covering its (resolved) interval. Computed ONCE at
  /// lowering (lower/Lower.cpp's marking pass) so the engines share one
  /// decision point and cannot diverge: positional terms (CallRule,
  /// MatchBytes, MatchRaw, Select, CallBlackbox) of each rule's LAST
  /// alternative, unless that alternative calls its own rule (a
  /// Flattened rule's descend/replay machinery must see real failures,
  /// and every tier fences such a list alike). Data-
  /// dependent terms (SetAttr, Check, ForArray) are never recoverable —
  /// their damage escalates to the nearest enclosing recoverable
  /// boundary.
  bool Recoverable = false;
  const Term *Src = nullptr;     ///< source AST term
};

/// One alternative, already in execution order: Exec[i] is the term the
/// engines run i-th (the Section-3.2 dependency-DAG order, or source
/// order when checkAttributes left ExecOrder empty).
struct AltL {
  const Alternative *Src = nullptr;
  std::vector<TermL> Exec;
};

//===----------------------------------------------------------------------===//
// Fused fixed-layout records
//===----------------------------------------------------------------------===//

/// Index of a record plan in Module::Plans.
using PlanId = uint32_t;
inline constexpr PlanId NoPlan = ~0u;

/// Upper bounds a record plan may reach, so a runner can keep its whole
/// working set (leaf windows, env slots) in fixed-size stack arrays.
inline constexpr uint32_t MaxRecordTerms = 32;

/// Step opcodes of a record plan, one per term of the rule.
enum class RecOp : uint8_t {
  Lit,   ///< MatchBytes: literal Lit must match at the window's start
  Raw,   ///< MatchRaw: accept the window wholesale
  Read,  ///< SetAttr Sym = fixed-width read (Spec) at constant offset Lo
  Check, ///< Check: A Cmp B, each a constant or an attribute slot
};

/// Comparison of a Check step.
enum class RecCmp : uint8_t { Eq, Ne, Lt, Gt, Le, Ge };

/// A Check operand: the current value of attribute slot Slot, or Imm.
struct RecOperand {
  bool IsSlot = false;
  uint32_t Slot = 0;
  int64_t Imm = 0;
};

/// One step of a record plan. Step i of a plan is Exec[i] of the rule's
/// only alternative (same TermIdx), so a plan never reorders terms.
struct RecordStep {
  RecOp Op = RecOp::Raw;
  uint32_t TermIdx = 0;
  /// Lit/Raw window. LoE/HiE are the interval's programs when the
  /// endpoint could not be folded (evaluated at run time), else NoExpr
  /// and Lo/Hi hold the folded constant. Read: Lo is the read offset.
  ExprId LoE = NoExpr;
  ExprId HiE = NoExpr;
  int64_t Lo = 0;
  int64_t Hi = 0;
  uint32_t Lit = 0;   ///< Lit: literal id
  uint32_t Spec = 0;  ///< Read: ipg_rt::packReadSpec of the read kind
  Symbol Sym = InvalidSymbol; ///< Read: attribute name
  uint32_t Slot = 0;  ///< Read: attribute slot (first-definition order)
  bool FirstDef = false; ///< Read: first definition of Slot in the rule
  /// Static plans: env position of Slot (Read) / of the slot operands
  /// (Check), precomputed from the fixed env layout.
  uint32_t Pos = 0;
  RecCmp Cmp = RecCmp::Eq;
  RecOperand A, B;    ///< Check operands
  uint32_t PosA = 0, PosB = 0; ///< Check, static plans: operand env positions
};

/// One env slot of a static plan's precomputed layout (layout-compatible
/// with the runtime's EnvSlot; runtime/HostRunner.h asserts it). Values
/// of start/end are final; attribute values are placeholders.
struct PlanSlot {
  Symbol Key = InvalidSymbol;
  int64_t Value = 0;
};

/// A fused fixed-layout record: a single-alternative Direct rule whose
/// terms are only literals, `raw`, attribute definitions by fixed-offset
/// read, and comparison checks over those attributes and constants. The
/// VM runs the whole rule as one step (runtime/HostRunner.h): every
/// bounds, literal, read and check step first, then the leaves and the
/// node, falling back to the per-term loop on any failure.
///
/// A window endpoint folds to a constant when it is built from literals
/// and `+ - *` (ipg_rt::wrapAdd/Sub/Mul) over the TermEnd of earlier
/// constant windows. A plan whose windows all fold (and lie in
/// [0, MinEoi]) is STATIC: its env layout, start and end are computed
/// here, and the runner only checks the input is at least MinEoi bytes.
/// Other plans are dynamic: unfolded endpoints are evaluated at run time
/// and may read anything but the rule's own attributes or start/end.
struct RecordPlan {
  RuleId Rule = InvalidRuleId;
  uint32_t StepBegin = 0; ///< Module::PlanSteps window
  uint32_t StepEnd = 0;
  uint32_t NumAttrs = 0;  ///< distinct attributes the rule defines
  bool Static = false;
  /// Static only: the env layout (Module::PlanEnv window: the attributes
  /// in definition order, then start/end holding the rule's final span,
  /// present only when some window touches bytes) and the smallest local
  /// input every window and read fits in.
  uint32_t EnvBegin = 0;
  uint32_t EnvEnd = 0;
  int64_t MinEoi = 0;
};

/// One lowered rule.
struct RuleL {
  const Rule *Src = nullptr;
  Symbol Name = InvalidSymbol;
  bool IsLocal = false;
  /// The shared memoization eligibility policy (global rule that spawns
  /// subparsers), computed once here. Engines still AND it with their
  /// runtime EngineOptions::UseMemo.
  bool Memoizable = false;
  ExecShape Shape = ExecShape::Direct;
  FlattenInfo Flatten;    ///< valid iff Shape == Flattened
  std::vector<AltL> Alts;
  /// The rule's fused record plan (see RecordPlan), or NoPlan.
  PlanId Plan = NoPlan;
};

/// A blackbox call site, deduplicated by name. Engines resolve sites
/// against their BlackboxRegistry once at construction; an unresolved
/// site reproduces the "not registered" hard error at call time.
struct BbSite {
  Symbol Name = InvalidSymbol;
  std::string NameStr;
};

//===----------------------------------------------------------------------===//
// Module
//===----------------------------------------------------------------------===//

/// The lowered grammar. Borrows the Grammar (same lifetime contract as
/// the engines); immutable after lower() returns, so any number of
/// engines on any number of threads may share one module.
struct Module {
  const Grammar *G = nullptr;
  std::vector<RuleL> Rules;          ///< indexed by RuleId
  std::vector<std::string> Lits;     ///< deduped terminal byte strings
  std::vector<ArmL> Arms;            ///< Select arm pool
  std::vector<XInstr> XCode;         ///< all expression programs
  std::vector<ExprProgram> Exprs;    ///< indexed by ExprId
  std::vector<ExistsInfo> Exists;
  std::vector<BbSite> BbSites;
  std::vector<RecordPlan> Plans;     ///< indexed by PlanId
  std::vector<RecordStep> PlanSteps; ///< every plan's steps
  std::vector<PlanSlot> PlanEnv;     ///< static plans' env layouts
  RuleId Start = InvalidRuleId;      ///< resolved start rule
  bool AnyStep = false;              ///< any rule classified Step

  /// Spelling helper for diagnostics.
  std::string_view nameOf(Symbol S) const { return G->interner().name(S); }

  /// The global (non-where-clause) rule defining \p S, or InvalidRuleId.
  /// The alternate-start-symbol parse entry points of the engines resolve
  /// through this so start resolution has one home (Module::Start is the
  /// precomputed result for the grammar's declared start symbol).
  RuleId globalRuleOf(Symbol S) const;
};

/// Lowers \p G (normally completed + attribute-checked; see the file
/// comment for how unchecked grammars degrade). The module borrows \p G.
Module lower(const Grammar &G);

/// How engines size their frame pools. Frames are indexed by C-stack
/// nesting (a flattened loop's children run right above the loop's own
/// frame), so a parse uses Depth frames at most — the longest chain of
/// rule activations from the start rule that repeats no rule, 0 when the
/// start rule is unresolved — unless the step machine or nested
/// where-clause rules go deeper. Each of those Depth frames is built in
/// one allocation (ipg_rt::Frame::create) with capacity for the longest
/// alternative's Terms (touch records, child ids, env slots plus
/// start/end) and an attribute index for every symbol below Keys.
struct FramePlan {
  size_t Depth = 0;
  size_t Terms = 0;
  size_t Keys = 0;
};
FramePlan framePlan(const Module &M);

/// Structural validation of a lowered module: resolved rule targets and
/// intervals, literal-table consistency, jump-target well-formedness
/// plus stack-balance of every expression program, and every record
/// plan against its rule (step-for-term correspondence, slot use before
/// definition, and a re-derivation of each static plan's folded windows
/// and env layout). Returns an empty string when valid, else a
/// description of the first violation.
std::string verify(const Module &M);

} // namespace lir
} // namespace ipg

#endif // IPG_LOWER_LIR_H
