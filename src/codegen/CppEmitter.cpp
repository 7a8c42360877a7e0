//===- codegen/CppEmitter.cpp ---------------------------------------------===//
//
// Part of the IPG reproduction of "Interval Parsing Grammars for File Format
// Parsing" (PLDI 2023). MIT license.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Generated parsers embed the *same* runtime the interpreter compiles
/// against: src/support/GenRuntime.h is wrapped into GenRuntimeText by the
/// build (scripts/embed_genruntime.cmake -> GenRuntimeEmbed.inc) and pasted
/// ahead of the emitted rule functions. The emitter therefore only produces
/// grammar-specific code — a name table, one rule function per rule — while
/// every semantic decision (first-update start/end, child-span defaults,
/// interval/read guards, checked arithmetic, (rule, interval) memoization,
/// lazy shifted views, blackbox dispatch) is a call into ipg_rt, shared
/// with the host engines' runner (runtime/HostRunner.h).
///
/// Like the interpreter and the bytecode VM, the emitter consumes the
/// lowered module (lower/LIR.h) rather than re-deriving facts from the
/// Grammar: recursion shapes, flattening plans, the memo policy, blackbox
/// sites, and the resolved start rule all come from lir::lower. Names are
/// the grammar's own Symbols, so the trees a generated parser builds
/// (into the caller's ipg_rt::NodeStore) are the trees every other tier
/// builds. Expressions are emitted INLINE into the rule bodies;
/// attributes defined by an alternative become hoisted C++ locals
/// (`long long aN`), so later reads within the same alternative compile
/// to a register copy instead of an environment lookup. Out-of-line
/// eval_N functions remain only for `exists` sub-programs, whose loop
/// variable is bound through the frame environment.
///
/// Rule bodies come in the three shapes of analysis/RecShape.h, so
/// grammar recursion depth never consumes C stack proportional to input
/// size: Direct rules keep plain recursion (grammar-bounded depth),
/// Flattened rules run their linear self-recursion as a heap-backed
/// descend/replay loop, and Step rules become resumable step_N functions
/// driven by ipg_rt::runMachine's explicit task stack.
///
//===----------------------------------------------------------------------===//

#include "codegen/CppEmitter.h"

#include "expr/Eval.h"
#include "lower/LIR.h"
#include "support/Casting.h"
#include "support/GenRuntime.h"

#include <cstddef>
#include <cstdint>
#include <map>
#include <string>
#include <string_view>
#include <utility>
#include <vector>

using namespace ipg;

// The embedded runtime text (raw-string literal generated by CMake from
// src/support/GenRuntime.h).
#include "GenRuntimeEmbed.inc"

namespace {

/// Placeholder the rule emitters drop where their hoisted attribute
/// locals belong; spliceLocals replaces it once the body is complete and
/// the number of locals is known (declarations must precede every goto
/// label, or the jumps would cross an initialization).
constexpr std::string_view LocalsMarker = "//IPG_LOCALS\n";

class Emitter {
public:
  Emitter(const Grammar &G, const std::string &NS,
          const EngineOptions &Opts)
      : G(G), NS(NS), Opts(Opts), M(lir::lower(G)) {}

  Expected<std::string> run();

private:
  const Grammar &G;
  std::string NS;
  EngineOptions Opts;
  /// The lowered module: resolved names, shapes, flatten plans, memo
  /// policy, blackbox sites — the SAME facts the interpreter and the
  /// bytecode VM consume, so the engines cannot disagree on them.
  lir::Module M;
  std::string EvalFns;  ///< emitted eval_N function bodies (exists only)
  std::string RuleFns;  ///< emitted parseRule_N / step_N function bodies
  unsigned NextEval = 0;
  unsigned NextTmp = 0;
  /// True while emitting a step_N body: child parses of Step callees
  /// suspend (return StepCall) instead of recursing.
  bool InStepFn = false;
  unsigned NextResume = 1; ///< resume-point ids within one step fn
  unsigned NextLbl = 0;    ///< unique goto-label ids within one step fn
  /// Attribute-locals cache: grammar attribute -> hoisted C++ local that
  /// holds its value at this point of the CURRENT emission region. An
  /// entry is valid only while its defining SetAttr dominates every use,
  /// so the map is cleared at each emitted beginAlt region and entries
  /// are dropped when a loop variable rebinds the name. Disabled
  /// entirely (InlineLocals=false) inside eval_N functions (the locals
  /// are not in scope there) and inside step fns (locals do not survive
  /// a suspension).
  bool InlineLocals = true;
  std::map<Symbol, std::string> AttrLocals;
  unsigned NumLocals = 0; ///< hoisted locals in the current rule fn
  Error Err = Error::success();

  std::string cstr(std::string_view S) {
    std::string Out = "\"";
    for (unsigned char C : S) {
      static const char *Hex = "0123456789abcdef";
      Out += "\\x";
      Out += Hex[C >> 4];
      Out += Hex[C & 0xf];
    }
    return Out + "\"";
  }
  std::string name(Symbol S) { return std::string(G.interner().name(S)); }

  /// Renders a symbol with its name as a comment, e.g. `7u /*num*/`.
  std::string idRef(Symbol S) {
    return std::to_string(S) + "u /*" + name(S) + "*/";
  }

  /// A fresh hoisted attribute local for the current rule function.
  std::string newLocal() { return "a" + std::to_string(NumLocals++); }
  /// Replaces LocalsMarker in \p Body with the declarations of the
  /// NumLocals hoisted attribute locals the emission ended up using.
  void spliceLocals(std::string &Body) {
    std::string Decl;
    for (unsigned I = 0; I < NumLocals; ++I)
      Decl += "  long long a" + std::to_string(I) + " = 0; (void)a" +
              std::to_string(I) + ";\n";
    size_t Pos = Body.find(LocalsMarker);
    if (Pos != std::string::npos)
      Body.replace(Pos, LocalsMarker.size(), Decl);
  }

  /// Emits statements computing \p E into a fresh temp inside \p Body;
  /// statements run \p Fail on partiality (division/shift guards, absent
  /// attributes, out-of-range reads). Returns the temp name.
  std::string emitExpr(const Expr &E, std::string &Body, const char *Fail);
  /// Emits a whole expression as a standalone `bool eval_N(Frame&, long
  /// long&)` function; returns its index. Only exists sub-programs use
  /// this — every other expression is emitted inline at its use site.
  unsigned emitEvalFn(const Expr &E);
  /// Renders \p E as a TOTAL (never-failing) C++ expression over the
  /// frame when it is built purely from number literals, EOI, and + - *
  /// — the overwhelmingly common interval shape after completion. Such
  /// endpoints compile to one line of inline arithmetic. Returns ""
  /// when \p E can fail or reads anything beyond EOI.
  std::string totalExpr(const Expr &E);
  /// Emits statements computing interval \p Iv into the already-declared
  /// variables L and H, running \p OnFail on partiality; total endpoints
  /// become inline arithmetic, the rest inline statement sequences.
  std::string intervalStmts(const Interval &Iv, const char *Indent,
                            const char *OnFail);
  /// Emits one term. \p OnFail is the statement run when the term fails
  /// softly (inside a recursive rule body that is `return false;`; inside
  /// flattened/step bodies it is a goto to the alternative's fail label).
  /// \p ProbeTerminals makes terminal terms match + record start/end
  /// without materializing a leaf — the flattened descend phase.
  void emitTerm(const lir::TermL &TL, std::string &Body,
                const char *OnFail = "return false;",
                bool ProbeTerminals = false);
  void emitChildParse(RuleId Target, const Interval &Iv, uint32_t TI,
                      const char *ChildKind, std::string &Body,
                      const char *OnFail = "return false;");
  /// Suspension point in a step fn: evaluate the child interval, park the
  /// call parameters in the Task, return StepCall; the resume label
  /// completes the child into the frame.
  void emitStepCall(RuleId Target, const Interval &Iv, uint32_t TI,
                    std::string &Body, const char *OnFail);
  void emitStepArray(const lir::TermL &TL, std::string &Body,
                     const char *OnFail);
  void emitStepSwitch(const lir::TermL &TL, std::string &Body,
                      const char *OnFail);
  /// One prefix nonterminal of a flattened rule. Descend parses the child
  /// for real and stores its raw node id in the shared prefix-kid pool;
  /// replay rebinds the stored node (\p KidRef) without re-parsing.
  void emitFlatPrefixNT(const lir::TermL &TL, bool Replay,
                        const std::string &KidRef, std::string &Body,
                        const char *OnFail);
  void emitRule(RuleId Id);
  void emitFlattenedRule(RuleId Id);
  void emitStepRule(RuleId Id);
};

std::string Emitter::emitExpr(const Expr &E, std::string &Body,
                              const char *Fail) {
  std::string T = "t" + std::to_string(NextTmp++);
  Body += "  long long " + T + " = 0; (void)" + T + ";\n";
  switch (E.kind()) {
  case Expr::Kind::Num:
    Body += "  " + T + " = " +
            std::to_string(cast<NumExpr>(&E)->value()) + "LL;\n";
    return T;
  case Expr::Kind::Binary: {
    const auto &B = *cast<BinaryExpr>(&E);
    if (B.op() == BinOpKind::And || B.op() == BinOpKind::Or) {
      std::string L = emitExpr(*B.lhs(), Body, Fail);
      bool IsAnd = B.op() == BinOpKind::And;
      Body += "  if (" + std::string(IsAnd ? "!" : "") + L + ") { " + T +
              " = " + (IsAnd ? "0" : "1") + "; } else {\n";
      std::string R = emitExpr(*B.rhs(), Body, Fail);
      Body += "  " + T + " = " + R + " != 0;\n  }\n";
      return T;
    }
    std::string L = emitExpr(*B.lhs(), Body, Fail);
    std::string R = emitExpr(*B.rhs(), Body, Fail);
    switch (B.op()) {
    case BinOpKind::Add:
      Body += "  " + T + " = ipg_rt::wrapAdd(" + L + ", " + R + ");\n";
      break;
    case BinOpKind::Sub:
      Body += "  " + T + " = ipg_rt::wrapSub(" + L + ", " + R + ");\n";
      break;
    case BinOpKind::Mul:
      Body += "  " + T + " = ipg_rt::wrapMul(" + L + ", " + R + ");\n";
      break;
    case BinOpKind::Div:
      Body += "  if (!ipg_rt::checkedDiv(" + L + ", " + R + ", " + T +
              ")) " + Fail + "\n";
      break;
    case BinOpKind::Mod:
      Body += "  if (!ipg_rt::checkedMod(" + L + ", " + R + ", " + T +
              ")) " + Fail + "\n";
      break;
    case BinOpKind::Eq:
      Body += "  " + T + " = " + L + " == " + R + ";\n";
      break;
    case BinOpKind::Ne:
      Body += "  " + T + " = " + L + " != " + R + ";\n";
      break;
    case BinOpKind::Lt:
      Body += "  " + T + " = " + L + " < " + R + ";\n";
      break;
    case BinOpKind::Gt:
      Body += "  " + T + " = " + L + " > " + R + ";\n";
      break;
    case BinOpKind::Le:
      Body += "  " + T + " = " + L + " <= " + R + ";\n";
      break;
    case BinOpKind::Ge:
      Body += "  " + T + " = " + L + " >= " + R + ";\n";
      break;
    case BinOpKind::Shl:
      Body += "  if (!ipg_rt::checkedShl(" + L + ", " + R + ", " + T +
              ")) " + Fail + "\n";
      break;
    case BinOpKind::Shr:
      Body += "  if (!ipg_rt::checkedShr(" + L + ", " + R + ", " + T +
              ")) " + Fail + "\n";
      break;
    case BinOpKind::BitAnd:
      Body += "  " + T + " = " + L + " & " + R + ";\n";
      break;
    case BinOpKind::And:
    case BinOpKind::Or:
      break; // handled above
    }
    return T;
  }
  case Expr::Kind::Cond: {
    const auto &C = *cast<CondExpr>(&E);
    std::string Cv = emitExpr(*C.cond(), Body, Fail);
    Body += "  if (" + Cv + ") {\n";
    std::string Tv = emitExpr(*C.thenExpr(), Body, Fail);
    Body += "  " + T + " = " + Tv + ";\n  } else {\n";
    std::string Fv = emitExpr(*C.elseExpr(), Body, Fail);
    Body += "  " + T + " = " + Fv + ";\n  }\n";
    return T;
  }
  case Expr::Kind::Ref: {
    const auto &R = *cast<RefExpr>(&E);
    switch (R.refKind()) {
    case RefKind::Eoi:
      Body += "  " + T + " = F.eoi();\n";
      return T;
    case RefKind::Attr: {
      // The attribute-locals fast path: an attribute this alternative
      // already defined reads from its hoisted C++ local instead of the
      // frame environment.
      auto It = AttrLocals.find(R.attrName());
      if (InlineLocals && It != AttrLocals.end()) {
        Body += "  " + T + " = " + It->second + ";\n";
        return T;
      }
      Body += "  if (!F.attr(" + idRef(R.attrName()) + ", " + T + ")) " +
              Fail + "\n";
      return T;
    }
    case RefKind::NtAttr:
      Body += "  if (!F.ntAttr(" + idRef(R.nt()) + ", " +
              idRef(R.attrName()) + ", " + T + ")) " + Fail + "\n";
      return T;
    case RefKind::NtElemAttr: {
      std::string Idx = emitExpr(*R.index(), Body, Fail);
      Body += "  if (!F.elemAttr(" + idRef(R.nt()) + ", " + Idx + ", " +
              idRef(R.attrName()) + ", " + T + ")) " + Fail + "\n";
      return T;
    }
    case RefKind::TermEnd:
      Body += "  if (!F.termEnd(" + std::to_string(R.termIndex()) + "u, " +
              T + ")) " + Fail + "\n";
      return T;
    }
    return T;
  }
  case Expr::Kind::Exists: {
    const auto &X = *cast<ExistsExpr>(&E);
    // The scanned array is picked by the same shared rule the engine's
    // evalExists uses (expr/Eval.h), so the two modes cannot disagree.
    Symbol ArrayNT = findScannedArray(*X.cond(), X.loopVar());
    if (ArrayNT == InvalidSymbol) {
      Err = Error::failure("exists does not scan any array");
      return T;
    }
    unsigned CondFn = emitEvalFn(*X.cond());
    unsigned ThenFn = emitEvalFn(*X.thenExpr());
    unsigned ElseFn = emitEvalFn(*X.elseExpr());
    std::string Var = idRef(X.loopVar());
    // The scan rebinds the loop variable through the environment, so any
    // cached local for that name stops being authoritative.
    AttrLocals.erase(X.loopVar());
    // Like the interpreter's ScopedBinding: the loop variable is bound
    // only while scanning and leaves the environment exactly as it was —
    // in particular the else-branch evaluates with the binding removed.
    // Partiality inside the scan sets XFail and leaves the for-loop
    // first: \p Fail may itself be a `break` targeting an ENCLOSING
    // emitted loop (array bodies), so it must run at block scope.
    Body += "  { const ipg_rt::ArrayTree *A = F.findArray(" +
            idRef(ArrayNT) + "); if (!A) " + Fail + "\n"
            "    bool Found = false; bool XFail = false; "
            "long long Saved = 0;\n"
            "    bool HadSaved = F.getAttr(" + Var + ", Saved);\n"
            "    for (size_t K = 0; K < A->size(); ++K) {\n"
            "      F.setAttr(" + Var + ", (long long)K);\n"
            "      long long C2 = 0;\n"
            "      if (!eval_" + std::to_string(CondFn) +
            "(F, C2)) { XFail = true; break; }\n"
            "      if (C2) { if (!eval_" + std::to_string(ThenFn) +
            "(F, " + T + ")) XFail = true; Found = true; break; }\n"
            "    }\n"
            "    if (HadSaved) F.setAttr(" + Var + ", Saved); else "
            "F.eraseAttr(" + Var + ");\n"
            "    if (XFail) " + Fail + "\n"
            "    if (!Found && !eval_" + std::to_string(ElseFn) + "(F, " +
            T + ")) " + Fail + " }\n";
    return T;
  }
  case Expr::Kind::Read: {
    const auto &R = *cast<ReadExpr>(&E);
    std::string LoV = emitExpr(*R.lo(), Body, Fail);
    // Width/endianness resolve through the same readKindSpec
    // ipg_rt::Frame::read uses, here at generation time.
    long long Width = 0;
    bool BigEndian = false;
    bool Fixed = ipg_rt::readKindSpec(
        static_cast<unsigned>(R.readKind()), Width, BigEndian);
    std::string W;
    if (Fixed) {
      W = std::to_string(Width);
    } else {
      std::string HiV = emitExpr(*R.hi(), Body, Fail);
      // btoiWidth guards the subtraction against signed overflow before
      // performing it (as ipg_rt::Frame::read does).
      W = "t" + std::to_string(NextTmp++);
      Body += "  long long " + W + " = 0;\n  if (!ipg_rt::btoiWidth(" +
              LoV + ", " + HiV + ", " + W + ")) " + Fail + "\n";
    }
    Body += "  if (!ipg_rt::readScalar(F.Base + F.Lo, F.eoi(), " + LoV +
            ", " + W + ", " + (BigEndian ? "true" : "false") + ", " + T +
            ")) " + Fail + "\n";
    return T;
  }
  }
  return T;
}

unsigned Emitter::emitEvalFn(const Expr &E) {
  unsigned Id = NextEval++;
  std::string Body;
  unsigned SavedTmp = NextTmp;
  bool SavedInline = InlineLocals;
  NextTmp = 0;
  InlineLocals = false; // rule-body locals are not in scope in eval fns
  std::string Result = emitExpr(E, Body, "return false;");
  NextTmp = SavedTmp;
  InlineLocals = SavedInline;
  EvalFns += "static bool eval_" + std::to_string(Id) +
             "(ipg_rt::Frame &F, long long &Out) {\n" + Body + "  Out = " +
             Result + ";\n  return true;\n}\n\n";
  return Id;
}

std::string Emitter::totalExpr(const Expr &E) {
  switch (E.kind()) {
  case Expr::Kind::Num:
    return "(" + std::to_string(cast<NumExpr>(&E)->value()) + "LL)";
  case Expr::Kind::Ref:
    if (cast<RefExpr>(&E)->refKind() == RefKind::Eoi)
      return "F.eoi()";
    return "";
  case Expr::Kind::Binary: {
    const auto &B = *cast<BinaryExpr>(&E);
    const char *Op = nullptr;
    switch (B.op()) {
    case BinOpKind::Add:
      Op = "ipg_rt::wrapAdd(";
      break;
    case BinOpKind::Sub:
      Op = "ipg_rt::wrapSub(";
      break;
    case BinOpKind::Mul:
      Op = "ipg_rt::wrapMul(";
      break;
    default:
      return ""; // guarded or comparison operators: emit statements
    }
    std::string L = totalExpr(*B.lhs());
    if (L.empty())
      return "";
    std::string R = totalExpr(*B.rhs());
    if (R.empty())
      return "";
    return Op + L + ", " + R + ")";
  }
  default:
    return "";
  }
}

std::string Emitter::intervalStmts(const Interval &Iv, const char *Indent,
                                   const char *OnFail) {
  std::string Out;
  const struct {
    const Expr *E;
    const char *Var;
  } Ends[2] = {{Iv.Lo.get(), "L"}, {Iv.Hi.get(), "H"}};
  for (const auto &End : Ends) {
    std::string Inline = totalExpr(*End.E);
    if (!Inline.empty()) {
      Out += std::string(Indent) + End.Var + " = " + Inline + ";\n";
    } else {
      std::string T = emitExpr(*End.E, Out, OnFail);
      Out += std::string(Indent) + End.Var + " = " + T + ";\n";
    }
  }
  return Out;
}

void Emitter::emitChildParse(RuleId Target, const Interval &Iv, uint32_t TI,
                             const char *ChildKind, std::string &Body,
                             const char *OnFail) {
  (void)ChildKind;
  if (InStepFn && M.Rules[Target].Shape == ExecShape::Step) {
    emitStepCall(Target, Iv, TI, Body, OnFail);
    return;
  }
  std::string Fail(OnFail);
  Body += "    { long long L = 0, H = 0;\n" +
          intervalStmts(Iv, "      ", OnFail) +
          "      if (!ipg_rt::intervalOk(L, H, F.eoi())) " + Fail + "\n"
          "      unsigned Sub = 0;\n"
          "      if (!parseRule_" + std::to_string(Target) +
          "(C, F.Lo + (size_t)L, F.Lo + (size_t)H, " +
          (M.Rules[Target].IsLocal ? "&F" : "nullptr") +
          ", Depth + 1, Sub)) " + Fail + "\n"
          "      long long BS = 0, BE2 = 0;\n"
          "      C.childSpanOf(Sub, H - L, BS, BE2);\n"
          "      F.Kids.push_back(C.shifted(Sub, L));\n"
          "      ipg_rt::updStartEnd(F, ipg_rt::IdStart, ipg_rt::IdEnd, "
          "L + BS, L + BE2, BE2 != 0);\n"
          "      F.rec(" + std::to_string(TI) + "u, L + BS, L + BE2);\n"
          "    }\n";
}

void Emitter::emitStepCall(RuleId Target, const Interval &Iv, uint32_t TI,
                           std::string &Body, const char *OnFail) {
  std::string Fail(OnFail);
  std::string K = std::to_string(NextResume++);
  Body += "    { long long L = 0, H = 0;\n" +
          intervalStmts(Iv, "      ", OnFail) +
          "      if (!ipg_rt::intervalOk(L, H, F.eoi())) " + Fail + "\n"
          "      T.CallRule = " + std::to_string(Target) + "u;\n"
          "      T.CallLo = F.Lo + (size_t)L; T.CallHi = F.Lo + (size_t)H;\n"
          "      T.CallLexSelf = " +
          (M.Rules[Target].IsLocal ? "1" : "0") + ";\n"
          "      T.SaveL = L; T.Resume = " + K + "u;\n"
          "      return ipg_rt::StepCall;\n"
          "    }\n"
          "R_" + K + ": ;\n"
          "    if (!T.ChildOk) " + Fail + "\n"
          "    { long long BS = 0, BE2 = 0;\n"
          "      C.childSpanOf(T.ChildNode, (long long)(T.CallHi - "
          "T.CallLo), BS, BE2);\n"
          "      F.Kids.push_back(C.shifted(T.ChildNode, T.SaveL));\n"
          "      ipg_rt::updStartEnd(F, ipg_rt::IdStart, ipg_rt::IdEnd, "
          "T.SaveL + BS, T.SaveL + BE2, BE2 != 0);\n"
          "      F.rec(" + std::to_string(TI) +
          "u, T.SaveL + BS, T.SaveL + BE2);\n"
          "    }\n";
}

void Emitter::emitStepArray(const lir::TermL &TL, std::string &Body,
                            const char *OnFail) {
  const auto *A = cast<ArrayTerm>(TL.Src);
  std::string Fail(OnFail);
  std::string P = "A" + std::to_string(NextLbl++);
  std::string K = std::to_string(NextResume++);
  std::string Var = idRef(TL.Sym);
  std::string IvFail = "goto " + P + "_fail;";
  // The loop state lives in the Task (not C locals) because every element
  // parse suspends this function; enterArray/leaveArray stay balanced
  // across suspensions — children nest strictly above our level.
  Body += "    { long long From = 0, To = 0;\n";
  {
    std::string FV = emitExpr(*A->From, Body, OnFail);
    Body += "      From = " + FV + ";\n";
    std::string TV = emitExpr(*A->To, Body, OnFail);
    Body += "      To = " + TV + ";\n";
  }
  Body += "      T.ArrSaved = 0;\n"
          "      T.ArrHadSaved = F.getAttr(" + Var +
          ", T.ArrSaved) ? 1 : 0;\n"
          "      T.ArrLevel = C.enterArray();\n"
          "      T.ArrTouched = 0; T.ArrMax = 0;\n"
          "      T.ArrK = From; T.ArrTo = To;\n"
          "    }\n" +
          P + "_loop: ;\n"
          "    if (T.ArrK >= T.ArrTo) goto " + P + "_done;\n"
          "    { F.setAttr(" + Var + ", T.ArrK);\n"
          "      long long L = 0, H = 0;\n" +
          intervalStmts(A->Iv, "      ", IvFail.c_str()) +
          "      if (!ipg_rt::intervalOk(L, H, F.eoi())) goto " + P +
          "_fail;\n"
          "      T.CallRule = " + std::to_string(TL.Rule) + "u;\n"
          "      T.CallLo = F.Lo + (size_t)L; T.CallHi = F.Lo + (size_t)H;\n"
          "      T.CallLexSelf = " +
          (M.Rules[TL.Rule].IsLocal ? "1" : "0") + ";\n"
          "      T.SaveL = L; T.Resume = " + K + "u;\n"
          "      return ipg_rt::StepCall;\n"
          "    }\n"
          "R_" + K + ": ;\n"
          "    if (!T.ChildOk) goto " + P + "_fail;\n"
          "    { long long BS = 0, BE2 = 0;\n"
          "      C.childSpanOf(T.ChildNode, (long long)(T.CallHi - "
          "T.CallLo), BS, BE2);\n"
          "      C.elemScratch(T.ArrLevel).push_back(C.shifted(T.ChildNode, "
          "T.SaveL));\n"
          "      ipg_rt::updStartEnd(F, ipg_rt::IdStart, ipg_rt::IdEnd, "
          "T.SaveL + BS, T.SaveL + BE2, BE2 != 0);\n"
          "      if (BE2 != 0) { T.ArrTouched = 1; if (T.SaveL + BE2 > "
          "T.ArrMax) T.ArrMax = T.SaveL + BE2; }\n"
          "    }\n"
          "    ++T.ArrK;\n"
          "    goto " + P + "_loop;\n" +
          P + "_fail: ;\n"
          "    C.leaveArray();\n"
          "    if (T.ArrHadSaved) F.setAttr(" + Var + ", T.ArrSaved); else "
          "F.eraseAttr(" + Var + ");\n"
          "    " + Fail + "\n" +
          P + "_done: ;\n"
          "    C.leaveArray();\n"
          "    if (T.ArrHadSaved) F.setAttr(" + Var + ", T.ArrSaved); else "
          "F.eraseAttr(" + Var + ");\n"
          "    F.Kids.push_back(C.array(" + idRef(TL.Elem) +
          ", C.elemScratch(T.ArrLevel)));\n"
          "    if (T.ArrTouched) F.rec(" + std::to_string(TL.TermIdx) +
          "u, 0, T.ArrMax);\n";
}

void Emitter::emitStepSwitch(const lir::TermL &TL, std::string &Body,
                             const char *OnFail) {
  std::string Fail(OnFail);
  std::string P = "S" + std::to_string(NextLbl++);
  // Flat scheme (no nested blocks) so a suspended arm's resume label is
  // legal to jump to: pick the first cond-true arm, commit, run it.
  size_t NArms = 0;
  bool HasCondless = false;
  for (uint32_t AI = TL.ArmsBegin; AI != TL.ArmsEnd; ++AI) {
    const lir::ArmL &C = M.Arms[AI];
    std::string Arm = P + "_arm" + std::to_string(NArms++);
    if (C.Src->Cond) {
      Body += "    {\n";
      std::string V = emitExpr(*C.Src->Cond, Body, OnFail);
      Body += "      if (" + V + ") goto " + Arm + ";\n"
              "    }\n";
    } else {
      Body += "    goto " + Arm + ";\n";
      HasCondless = true;
      break; // arms after an unconditional one are unreachable
    }
  }
  if (!HasCondless)
    Body += "    " + Fail + "\n";
  for (size_t I = 0; I < NArms; ++I) {
    const lir::ArmL &C = M.Arms[TL.ArmsBegin + I];
    Body += P + "_arm" + std::to_string(I) + ": ;\n";
    emitChildParse(C.Rule, *C.Iv.Src, TL.TermIdx, "arm", Body, OnFail);
    Body += "    goto " + P + "_end;\n";
  }
  Body += P + "_end: ;\n";
}

void Emitter::emitFlatPrefixNT(const lir::TermL &TL, bool Replay,
                               const std::string &KidRef, std::string &Body,
                               const char *OnFail) {
  std::string Fail(OnFail);
  Body += "    { long long L = 0, H = 0;\n" +
          intervalStmts(*TL.Iv.Src, "      ", OnFail) +
          "      if (!ipg_rt::intervalOk(L, H, F.eoi())) " + Fail + "\n";
  if (!Replay)
    Body += "      unsigned SubC = 0;\n"
            "      if (!parseRule_" + std::to_string(TL.Rule) +
            "(C, F.Lo + (size_t)L, F.Lo + (size_t)H, nullptr, Depth + 1, "
            "SubC)) " + Fail + "\n"
            "      FK.push_back(SubC);\n";
  else
    Body += "      unsigned SubC = " + KidRef + ";\n";
  Body += "      long long BS = 0, BE2 = 0;\n"
          "      C.childSpanOf(SubC, H - L, BS, BE2);\n"
          "      F.Kids.push_back(C.shifted(SubC, L));\n"
          "      ipg_rt::updStartEnd(F, ipg_rt::IdStart, ipg_rt::IdEnd, "
          "L + BS, L + BE2, BE2 != 0);\n"
          "      F.rec(" + std::to_string(TL.TermIdx) +
          "u, L + BS, L + BE2);\n"
          "    }\n";
}

void Emitter::emitTerm(const lir::TermL &TL, std::string &Body,
                       const char *OnFail, bool ProbeTerminals) {
  std::string Fail(OnFail);
  uint32_t TI = TL.TermIdx;
  switch (TL.Op) {
  case lir::TermOp::CallRule:
    emitChildParse(TL.Rule, *TL.Iv.Src, TI, "nt", Body, OnFail);
    return;
  case lir::TermOp::MatchBytes:
  case lir::TermOp::MatchRaw: {
    Body += "    { long long L = 0, H = 0;\n" +
            intervalStmts(*TL.Iv.Src, "      ", OnFail) +
            "      if (!ipg_rt::intervalOk(L, H, F.eoi())) " + Fail + "\n";
    if (TL.Op == lir::TermOp::MatchRaw) {
      Body += "      ipg_rt::updStartEnd(F, ipg_rt::IdStart, "
              "ipg_rt::IdEnd, L, H, H > L);\n";
      if (!ProbeTerminals)
        Body += "      F.Kids.push_back(C.leaf(F.Base + F.Lo + L, "
                "(size_t)(H - L), L, true));\n";
      Body += "      F.rec(" + std::to_string(TI) + "u, L, H);\n";
    } else {
      const std::string &Bytes = M.Lits[TL.Lit];
      Body += "      const long long Len = " +
              std::to_string(Bytes.size()) + ";\n"
              "      if (H - L < Len) " + Fail + "\n"
              "      if (Len && std::memcmp(F.Base + F.Lo + L, " +
              cstr(Bytes) + ", (size_t)Len)) " + Fail + "\n"
              "      ipg_rt::updStartEnd(F, ipg_rt::IdStart, "
              "ipg_rt::IdEnd, L, L + Len, Len > 0);\n";
      if (!ProbeTerminals)
        Body += "      F.Kids.push_back(C.leaf(F.Base + F.Lo + L, "
                "(size_t)Len, L, false));\n";
      Body += "      F.rec(" + std::to_string(TI) + "u, L, L + Len);\n";
    }
    Body += "    }\n";
    return;
  }
  case lir::TermOp::SetAttr: {
    const auto *D = cast<AttrDefTerm>(TL.Src);
    Body += "    {\n";
    std::string V = emitExpr(*D->Value, Body, OnFail);
    if (InlineLocals && TL.Sym != G.symStart() && TL.Sym != G.symEnd()) {
      // The value lands in a hoisted function-scope local as well as the
      // frame environment; reads later in this alternative use the local.
      std::string A = newLocal();
      Body += "    " + A + " = " + V + ";\n"
              "    F.setAttr(" + idRef(TL.Sym) + ", " + A + "); }\n";
      AttrLocals[TL.Sym] = A;
    } else {
      Body += "    F.setAttr(" + idRef(TL.Sym) + ", " + V + "); }\n";
    }
    return;
  }
  case lir::TermOp::Check: {
    const auto *P = cast<PredicateTerm>(TL.Src);
    Body += "    {\n";
    std::string V = emitExpr(*P->Cond, Body, OnFail);
    Body += "    if (!" + V + ") " + Fail + " }\n";
    return;
  }
  case lir::TermOp::ForArray: {
    const auto *A = cast<ArrayTerm>(TL.Src);
    if (InStepFn && M.Rules[TL.Rule].Shape == ExecShape::Step) {
      emitStepArray(TL, Body, OnFail);
      return;
    }
    std::string Var = idRef(TL.Sym);
    Body += "    { long long From = 0, To = 0;\n";
    {
      std::string FV = emitExpr(*A->From, Body, OnFail);
      Body += "      From = " + FV + ";\n";
      std::string TV = emitExpr(*A->To, Body, OnFail);
      Body += "      To = " + TV + ";\n";
    }
    // The loop rebinds the loop variable through the environment, so a
    // cached local for that name would go stale inside the body.
    AttrLocals.erase(TL.Sym);
    Body += "      long long Saved = 0; bool HadSaved = F.getAttr(" + Var +
            ", Saved);\n"
            "      const size_t Level = C.enterArray();\n"
            "      bool Touched = false; long long MaxEnd = 0; "
            "bool Failed = false;\n"
            "      for (long long K = From; K < To; ++K) {\n"
            "        F.setAttr(" + Var + ", K);\n"
            "        long long L = 0, H = 0;\n" +
            intervalStmts(A->Iv, "        ", "{ Failed = true; break; }") +
            "        if (!ipg_rt::intervalOk(L, H, F.eoi())) "
            "{ Failed = true; break; }\n"
            "        unsigned Sub = 0;\n"
            "        if (!parseRule_" + std::to_string(TL.Rule) +
            "(C, F.Lo + (size_t)L, F.Lo + (size_t)H, " +
            (M.Rules[TL.Rule].IsLocal ? "&F" : "nullptr") +
            ", Depth + 1, Sub)) { Failed = true; break; }\n"
            "        long long BS = 0, BE2 = 0;\n"
            "        C.childSpanOf(Sub, H - L, BS, BE2);\n"
            "        C.elemScratch(Level).push_back(C.shifted(Sub, L));\n"
            "        ipg_rt::updStartEnd(F, ipg_rt::IdStart, "
            "ipg_rt::IdEnd, L + BS, L + BE2, BE2 != 0);\n"
            "        if (BE2 != 0) { Touched = true; if (L + BE2 > MaxEnd) "
            "MaxEnd = L + BE2; }\n"
            "      }\n"
            "      C.leaveArray();\n"
            "      if (HadSaved) F.setAttr(" + Var + ", Saved); else "
            "F.eraseAttr(" + Var + ");\n"
            "      if (Failed) " + Fail + "\n"
            "      F.Kids.push_back(C.array(" + idRef(TL.Elem) +
            ", C.elemScratch(Level)));\n"
            "      if (Touched) F.rec(" + std::to_string(TI) +
            "u, 0, MaxEnd);\n"
            "    }\n";
    return;
  }
  case lir::TermOp::Select: {
    if (InStepFn) {
      bool AnyStepArm = false;
      for (uint32_t AI = TL.ArmsBegin; AI != TL.ArmsEnd; ++AI)
        AnyStepArm |= M.Rules[M.Arms[AI].Rule].Shape == ExecShape::Step;
      if (AnyStepArm) {
        emitStepSwitch(TL, Body, OnFail);
        return;
      }
    }
    Body += "    {\n      bool Taken = false;\n";
    for (uint32_t AI = TL.ArmsBegin; AI != TL.ArmsEnd; ++AI) {
      const lir::ArmL &C = M.Arms[AI];
      std::string Arm;
      emitChildParse(C.Rule, *C.Iv.Src, TI, "arm", Arm, OnFail);
      if (C.Src->Cond) {
        Body += "      if (!Taken) {\n";
        std::string V = emitExpr(*C.Src->Cond, Body, OnFail);
        Body += "        if (" + V + ") { Taken = true;\n" + Arm +
                "      } }\n";
      } else {
        Body += "      if (!Taken) { Taken = true;\n" + Arm + "      }\n";
      }
    }
    Body += "      if (!Taken) " + Fail + "\n    }\n";
    return;
  }
  case lir::TermOp::CallBlackbox: {
    // The registration hook: the driver binds an implementation at
    // runtime (Parser::registerBlackbox); Ctx::callBlackbox hard-fails
    // on an unregistered name or a decoder overrunning its slice, and
    // Ctx::blackboxNode mirrors the interpreter's execBlackbox node
    // (val/start/end attributes + optional decoded-output leaf).
    std::string BbRef = idRef(M.BbSites[TL.Bb].Name);
    Body += "    { long long L = 0, H = 0;\n" +
            intervalStmts(*TL.Iv.Src, "      ", OnFail) +
            "      if (!ipg_rt::intervalOk(L, H, F.eoi())) " + Fail + "\n"
            "      ipg_rt::BlackboxOut BB;\n"
            "      if (C.callBlackbox(" + BbRef +
            ", F.Base + F.Lo + (size_t)L, (size_t)(H - L), BB) != 1) " +
            Fail + "\n"
            "      F.Kids.push_back(C.blackboxNode(" + BbRef +
            ", BB, L, H));\n"
            "      ipg_rt::updStartEnd(F, ipg_rt::IdStart, ipg_rt::IdEnd, "
            "L, L + BB.End, BB.End > 0);\n"
            "      F.rec(" + std::to_string(TI) + "u, L, L + BB.End);\n"
            "    }\n";
    return;
  }
  }
}

void Emitter::emitRule(RuleId Id) {
  const lir::RuleL &RL = M.Rules[Id];
  // Local (where-clause) rules are never memoized (their meaning depends
  // on the enclosing frame) and leaf rules are excluded as a pure
  // optimization — the policy is the lowered module's Memoizable bit,
  // shared with the interpreter and the VM, so the engines' memo traffic
  // stays comparable.
  bool Memoize = Opts.UseMemo && RL.Memoizable;
  std::string RId = std::to_string(Id);
  NumLocals = 0;
  std::string Body;
  Body += "static bool parseRule_" + RId +
          "(ipg_rt::Ctx &C, size_t AbsLo, size_t AbsHi, ipg_rt::Frame *Lex, "
          "int Depth, unsigned &Out) {\n"
          "  // The depth limit is a hard error, as in the interpreter: it\n"
          "  // aborts the whole parse instead of backtracking. The limit\n"
          "  // is the Ctx's (EngineOptions::MaxDepth), not a constant.\n"
          "  if (C.hardFailed()) return false;\n"
          "  if (Depth >= C.depthLimit()) { C.noteFail(" + idRef(RL.Name) +
          ", (long long)AbsLo); C.hardFail(); return false; }\n"
          "  C.notePeak((long long)Depth + 1);\n";
  if (Memoize)
    Body += "  // Section 3.3 memoization, keyed like the interpreter's\n"
            "  // table: (rule, absolute interval), failures included. A\n"
            "  // hit returns the memoized frozen node; parents shift it\n"
            "  // lazily, so sharing one node among many parents is free.\n"
            "  { bool MOk = false;\n"
            "    if (C.memoFind(" + RId + "u, AbsLo, AbsHi, MOk, Out)) "
            "return MOk; }\n";
  Body += "  ipg_rt::Frame &F = C.frameAt((size_t)Depth - C.frameBias());\n";
  Body += LocalsMarker;
  for (size_t AltIdx = 0; AltIdx < RL.Alts.size(); ++AltIdx) {
    const lir::AltL &Alt = RL.Alts[AltIdx];
    AttrLocals.clear(); // locals are valid only within one alternative
    // No pre-seeded start/end sentinels and no env entry for EOI: start
    // and end appear only once a term touches bytes (first-update
    // semantics in ipg_rt::updStartEnd), and RefKind::Eoi reads the
    // frame's window size — an attribute the grammar happens to name
    // "EOI" can no longer collide through the lexical lookup.
    Body += "  { // alternative " + std::to_string(AltIdx) + "\n"
            "    F.beginAlt(C.base(), AbsLo, AbsHi, " +
            std::string(RL.IsLocal ? "Lex" : "nullptr") + ", " +
            std::to_string(Alt.Exec.size()) + ");\n"
            "    bool Ok = [&]() -> bool {\n";
    for (const lir::TermL &T : Alt.Exec)
      emitTerm(T, Body);
    Body += "    return true;\n    }();\n"
            "    if (Ok) { Out = C.freeze(F, " + idRef(RL.Name) + ", " + RId +
            "u);" +
            (Memoize ? " C.memoStore(" + RId + "u, AbsLo, AbsHi, true, Out);"
                     : "") +
            " return true; }\n"
            "    if (C.hardFailed()) return false;\n"
            "  }\n";
  }
  Body += "  (void)Lex;\n";
  if (Memoize)
    Body += "  C.memoStore(" + RId + "u, AbsLo, AbsHi, false, 0u);\n";
  Body += "  return false;\n}\n\n";
  spliceLocals(Body);
  RuleFns += Body;
}

void Emitter::emitFlattenedRule(RuleId Id) {
  const lir::RuleL &RL = M.Rules[Id];
  const FlattenInfo &FI = RL.Flatten;
  const lir::AltL &SAlt = RL.Alts[FI.SelfAlt];
  const lir::TermL &SelfT = SAlt.Exec[FI.SelfExecPos];
  const size_t PN = FI.PrefixNTTerms.size();
  bool Memoize = Opts.UseMemo && RL.Memoizable;
  std::string RId = std::to_string(Id);
  std::string PNs = std::to_string(PN);
  NumLocals = 0;

  auto storeOk = [&](const char *Indent) {
    return Memoize ? std::string(Indent) + "C.memoStore(" + RId +
                         "u, CurLo, CurHi, true, Sub);\n"
                   : std::string();
  };

  std::string Body;
  Body += "/// Flattened linear recursion (analysis/RecShape.h): the self\n"
          "/// call becomes a descend/replay loop over heap-backed\n"
          "/// FlatLevel records, so grammar recursion depth is bounded by\n"
          "/// the Ctx depth limit alone — never by the C stack. Semantics\n"
          "/// (alternative order, memo traffic, depth accounting) match\n"
          "/// the recursive form exactly.\n";
  Body += "static bool parseRule_" + RId +
          "(ipg_rt::Ctx &C, size_t AbsLo, size_t AbsHi, ipg_rt::Frame *Lex, "
          "int Depth0, unsigned &Out) {\n"
          "  (void)Lex;\n"
          "  if (C.hardFailed()) return false;\n"
          "  std::vector<ipg_rt::FlatLevel> &Lv = C.flatLevels();\n"
          "  const size_t LvBase = Lv.size();\n";
  if (PN)
    Body += "  std::vector<unsigned> &FK = C.flatPrefixKids();\n"
            "  const size_t KidBase = FK.size();\n";
  Body += "  size_t CurLo = AbsLo, CurHi = AbsHi;\n"
          "  unsigned Sub = 0;\n"
          "  int Depth = 0; (void)Depth;\n"
          "  // Children run in the frames right above this loop's own: the\n"
          "  // frame bias grows by one per pending level.\n"
          "  const size_t Bias0 = C.frameBias();\n"
          "  ipg_rt::Frame &F = C.frameAt((size_t)Depth0 - Bias0);\n";
  Body += LocalsMarker;
  Body += "flat_descend:\n"
          "  // Depth here is VIRTUAL: entry depth plus pending levels —\n"
          "  // the exact figure the recursive form would have reached.\n"
          "  Depth = (int)((long long)Depth0 + (long long)(Lv.size() - "
          "LvBase));\n"
          "  C.setFrameBias(Bias0 + (Lv.size() - LvBase));\n"
          "  if ((long long)Depth >= C.depthLimit()) { C.noteFail(" +
          idRef(RL.Name) + ", (long long)CurLo); C.hardFail(); "
          "goto flat_hard; }\n"
          "  C.notePeak((long long)Depth + 1);\n";
  if (Memoize)
    Body += "  { bool MOk = false; unsigned MN = 0;\n"
            "    if (C.memoFind(" + RId + "u, CurLo, CurHi, MOk, MN)) {\n"
            "      if (MOk) { Sub = MN; goto flat_resolved; }\n"
            "      goto flat_level_failed;\n"
            "    } }\n";

  // Alternatives BEFORE the self alternative run for real at every level
  // during the descent (recursion tries them first at each activation).
  for (size_t AltIdx = 0; AltIdx < FI.SelfAlt; ++AltIdx) {
    const lir::AltL &Alt = RL.Alts[AltIdx];
    std::string FailLbl = "flat_d_alt" + std::to_string(AltIdx) + "_fail";
    std::string OnFail = "goto " + FailLbl + ";";
    AttrLocals.clear();
    Body += "  { // alternative " + std::to_string(AltIdx) +
            " (pre-self)\n"
            "    F.beginAlt(C.base(), CurLo, CurHi, nullptr, " +
            std::to_string(Alt.Exec.size()) + ");\n";
    for (const lir::TermL &T : Alt.Exec)
      emitTerm(T, Body, OnFail.c_str());
    Body += "    Sub = C.freeze(F, " + idRef(RL.Name) + ", " + RId +
            "u);\n" +
            storeOk("    ") +
            "    goto flat_resolved;\n"
            "  }\n" +
            FailLbl + ": ;\n"
            "  if (C.hardFailed()) goto flat_hard;\n";
  }

  // The self alternative's prefix, descend phase: terminals probe (match
  // + record start/end, no leaf), child nonterminals parse for real and
  // bank their nodes for the replay, attribute defs/predicates run
  // normally. Then push the level and descend into the self interval.
  {
    const char *OnFail = "goto flat_self_prefix_failed;";
    AttrLocals.clear();
    Body += "  { // self alternative (descend: probe prefix, then recurse "
            "via the level stack)\n"
            "    F.beginAlt(C.base(), CurLo, CurHi, nullptr, " +
            std::to_string(SAlt.Exec.size()) + ");\n";
    for (size_t Step = 0; Step < FI.SelfExecPos; ++Step) {
      const lir::TermL &T = SAlt.Exec[Step];
      if (T.Op == lir::TermOp::CallRule)
        emitFlatPrefixNT(T, /*Replay=*/false, "", Body, OnFail);
      else
        emitTerm(T, Body, OnFail, /*ProbeTerminals=*/true);
    }
    Body += "    { long long L = 0, H = 0;\n" +
            intervalStmts(*SelfT.Iv.Src, "      ", OnFail) +
            "      if (!ipg_rt::intervalOk(L, H, F.eoi())) " +
            std::string(OnFail) + "\n"
            "      size_t NLo = F.Lo + (size_t)L, NHi = F.Lo + (size_t)H;\n"
            "      Lv.push_back(ipg_rt::FlatLevel{CurLo, CurHi});\n"
            "      CurLo = NLo; CurHi = NHi;\n"
            "      goto flat_descend;\n"
            "    }\n"
            "  }\n";
  }
  Body += "flat_self_prefix_failed: ;\n"
          "  if (C.hardFailed()) goto flat_hard;\n"
          "  goto flat_post_alts;\n";

  // Alternatives AFTER the self alternative, tried when the self
  // alternative failed at the current level (prefix, child, or suffix).
  Body += "flat_post_alts: ;\n"
          "  Depth = (int)((long long)Depth0 + (long long)(Lv.size() - "
          "LvBase));\n"
          "  C.setFrameBias(Bias0 + (Lv.size() - LvBase));\n";
  if (PN)
    Body += "  FK.resize(KidBase + (Lv.size() - LvBase) * " + PNs + "u);\n";
  for (size_t AltIdx = FI.SelfAlt + 1; AltIdx < RL.Alts.size(); ++AltIdx) {
    const lir::AltL &Alt = RL.Alts[AltIdx];
    std::string FailLbl = "flat_p_alt" + std::to_string(AltIdx) + "_fail";
    std::string OnFail = "goto " + FailLbl + ";";
    AttrLocals.clear();
    Body += "  { // alternative " + std::to_string(AltIdx) +
            " (post-self)\n"
            "    F.beginAlt(C.base(), CurLo, CurHi, nullptr, " +
            std::to_string(Alt.Exec.size()) + ");\n";
    for (const lir::TermL &T : Alt.Exec)
      emitTerm(T, Body, OnFail.c_str());
    Body += "    Sub = C.freeze(F, " + idRef(RL.Name) + ", " + RId +
            "u);\n" +
            storeOk("    ") +
            "    goto flat_resolved;\n"
            "  }\n" +
            FailLbl + ": ;\n"
            "  if (C.hardFailed()) goto flat_hard;\n";
  }
  if (Memoize)
    Body += "  C.memoStore(" + RId + "u, CurLo, CurHi, false, 0u);\n";
  Body += "  goto flat_level_failed;\n";

  // A level failed outright: its parent's self call failed, so the
  // parent falls through to ITS post-self alternatives.
  Body += "flat_level_failed: ;\n"
          "  if (Lv.size() == LvBase) {\n";
  if (PN)
    Body += "    FK.resize(KidBase);\n";
  Body += "    C.setFrameBias(Bias0);\n"
          "    return false;\n"
          "  }\n"
          "  CurLo = Lv.back().AbsLo; CurHi = Lv.back().AbsHi; "
          "Lv.pop_back();\n"
          "  goto flat_post_alts;\n";

  // A level resolved to node Sub: unwind, deepest pending level first —
  // replay the prefix for real (banked child nodes, materialized
  // terminal leaves, re-evaluated attributes), complete the self child,
  // run the suffix, freeze.
  Body += "flat_resolved: ;\n"
          "  while (Lv.size() > LvBase) {\n"
          "    CurLo = Lv.back().AbsLo; CurHi = Lv.back().AbsHi; "
          "Lv.pop_back();\n"
          "    Depth = (int)((long long)Depth0 + (long long)(Lv.size() - "
          "LvBase));\n"
          "    C.setFrameBias(Bias0 + (Lv.size() - LvBase));\n"
          "    F.beginAlt(C.base(), CurLo, CurHi, nullptr, " +
          std::to_string(SAlt.Exec.size()) + ");\n";
  {
    const char *OnFail = "goto flat_replay_failed;";
    AttrLocals.clear();
    size_t KidJ = 0;
    for (size_t Step = 0; Step < FI.SelfExecPos; ++Step) {
      const lir::TermL &T = SAlt.Exec[Step];
      if (T.Op == lir::TermOp::CallRule) {
        std::string KidRef = "FK[KidBase + (Lv.size() - LvBase) * " + PNs +
                             "u + " + std::to_string(KidJ++) + "u]";
        emitFlatPrefixNT(T, /*Replay=*/true, KidRef, Body, OnFail);
      } else {
        emitTerm(T, Body, OnFail, /*ProbeTerminals=*/false);
      }
    }
    Body += "    { long long L = 0, H = 0;\n" +
            intervalStmts(*SelfT.Iv.Src, "      ", OnFail) +
            "      if (!ipg_rt::intervalOk(L, H, F.eoi())) " +
            std::string(OnFail) + "\n"
            "      long long BS = 0, BE2 = 0;\n"
            "      C.childSpanOf(Sub, H - L, BS, BE2);\n"
            "      F.Kids.push_back(C.shifted(Sub, L));\n"
            "      ipg_rt::updStartEnd(F, ipg_rt::IdStart, ipg_rt::IdEnd, "
            "L + BS, L + BE2, BE2 != 0);\n"
            "      F.rec(" + std::to_string(SelfT.TermIdx) +
            "u, L + BS, L + BE2);\n"
            "    }\n";
    for (size_t Step = FI.SelfExecPos + 1; Step < SAlt.Exec.size(); ++Step)
      emitTerm(SAlt.Exec[Step], Body, OnFail);
  }
  Body += "    Sub = C.freeze(F, " + idRef(RL.Name) + ", " + RId +
          "u);\n" +
          storeOk("    ") +
          "    continue;\n"
          "  flat_replay_failed: ;\n"
          "    if (C.hardFailed()) goto flat_hard;\n"
          "    goto flat_post_alts;\n"
          "  }\n";
  if (PN)
    Body += "  FK.resize(KidBase);\n";
  Body += "  C.setFrameBias(Bias0);\n"
          "  Out = Sub;\n"
          "  return true;\n"
          "flat_hard:\n"
          "  C.setFrameBias(Bias0);\n"
          "  Lv.resize(LvBase);\n";
  if (PN)
    Body += "  FK.resize(KidBase);\n";
  Body += "  return false;\n}\n\n";
  spliceLocals(Body);
  RuleFns += Body;
}

void Emitter::emitStepRule(RuleId Id) {
  const lir::RuleL &RL = M.Rules[Id];
  bool Memoize = Opts.UseMemo && RL.Memoizable;
  std::string RId = std::to_string(Id);
  InStepFn = true;
  // Step bodies suspend and re-enter, so C++ locals do not survive to
  // the code after a resume label: the attribute-locals cache is
  // disabled for the whole function (expressions still emit inline;
  // attribute reads go through the frame environment, which does
  // persist across suspensions).
  bool SavedInline = InlineLocals;
  InlineLocals = false;
  AttrLocals.clear();
  NextResume = 1;
  NextLbl = 0;
  std::string Body;
  for (size_t AltIdx = 0; AltIdx < RL.Alts.size(); ++AltIdx) {
    const lir::AltL &Alt = RL.Alts[AltIdx];
    std::string FailLbl = "step_alt" + std::to_string(AltIdx) + "_fail";
    std::string OnFail = "goto " + FailLbl + ";";
    Body += "  // alternative " + std::to_string(AltIdx) + "\n"
            "  F.beginAlt(C.base(), T.AbsLo, T.AbsHi, " +
            std::string(RL.IsLocal ? "Lex" : "nullptr") + ", " +
            std::to_string(Alt.Exec.size()) + ");\n";
    for (const lir::TermL &T : Alt.Exec)
      emitTerm(T, Body, OnFail.c_str());
    Body += "  T.Out = C.freeze(F, " + idRef(RL.Name) + ", " + RId +
            "u);\n" +
            (Memoize ? "  C.memoStore(" + RId +
                           "u, T.AbsLo, T.AbsHi, true, T.Out);\n"
                     : std::string()) +
            "  return ipg_rt::StepDone;\n" +
            FailLbl + ": ;\n"
            "  if (C.hardFailed()) return ipg_rt::StepFail;\n";
  }
  if (Memoize)
    Body += "  C.memoStore(" + RId + "u, T.AbsLo, T.AbsHi, false, 0u);\n";
  Body += "  return ipg_rt::StepFail;\n}\n\n";

  // The header is built after the body so the resume dispatch knows every
  // suspension point that was emitted.
  std::string Head;
  Head += "/// Step-machine body (analysis/RecShape.h): general recursion\n"
          "/// runs as resumable activations on ipg_rt::runMachine's\n"
          "/// explicit task stack. Child calls to other step rules\n"
          "/// suspend (StepCall); direct/flattened callees are invoked\n"
          "/// inline — frames above this task's index are free.\n";
  Head += "static int step_" + RId +
          "(ipg_rt::Ctx &C, ipg_rt::Task &T) {\n"
          "  ipg_rt::Frame *Lex = T.LexTask >= 0 ? "
          "&C.frameAt((size_t)T.LexTask) : nullptr;\n"
          "  (void)Lex;\n"
          "  ipg_rt::Frame &F = C.frameAt(T.Idx);\n"
          "  int Depth = (int)T.Idx; (void)Depth;\n";
  if (NextResume > 1) {
    Head += "  switch (T.Resume) {\n  case 0u: break;\n";
    for (unsigned K = 1; K < NextResume; ++K)
      Head += "  case " + std::to_string(K) + "u: goto R_" +
              std::to_string(K) + ";\n";
    Head += "  default: return ipg_rt::StepFail;\n  }\n";
  }
  Head += "  if (C.hardFailed()) return ipg_rt::StepFail;\n";
  if (Memoize)
    Head += "  { bool MOk = false; unsigned MN = 0;\n"
            "    if (C.memoFind(" + RId + "u, T.AbsLo, T.AbsHi, MOk, MN)) "
            "{\n"
            "      T.Out = MN;\n"
            "      return MOk ? ipg_rt::StepDone : ipg_rt::StepFail;\n"
            "    } }\n";
  RuleFns += Head + Body;
  InStepFn = false;
  InlineLocals = SavedInline;
}

Expected<std::string> Emitter::run() {
  // Forward declarations for mutual recursion. Step rules get resumable
  // step_N bodies instead of parseRule_N; the up-closure in the shape
  // analysis guarantees no direct/flattened body ever needs to call one
  // — the machine always starts at the parse root.
  std::string Decls;
  for (size_t I = 0; I < M.Rules.size(); ++I) {
    if (M.Rules[I].Shape == ExecShape::Step)
      Decls += "static int step_" + std::to_string(I) +
               "(ipg_rt::Ctx &, ipg_rt::Task &);\n";
    else
      Decls += "static bool parseRule_" + std::to_string(I) +
               "(ipg_rt::Ctx &, size_t, size_t, ipg_rt::Frame *, int, "
               "unsigned &);\n";
  }
  for (size_t I = 0; I < M.Rules.size(); ++I) {
    RuleId Id = static_cast<RuleId>(I);
    switch (M.Rules[I].Shape) {
    case ExecShape::Direct:
      emitRule(Id);
      break;
    case ExecShape::Flattened:
      emitFlattenedRule(Id);
      break;
    case ExecShape::Step:
      emitStepRule(Id);
      break;
    }
  }
  if (Err)
    return Expected<std::string>(std::move(Err));

  std::string StepTable;
  if (M.AnyStep) {
    StepTable += "/// Step-machine dispatch, indexed by rule id (null for\n"
                 "/// rules the machine never runs).\n"
                 "static const ipg_rt::StepFn StepFns[] = {\n";
    for (size_t I = 0; I < M.Rules.size(); ++I)
      StepTable += M.Rules[I].Shape == ExecShape::Step
                       ? "    step_" + std::to_string(I) + ",\n"
                       : "    nullptr,\n";
    StepTable += "};\n\n";
    StepTable += "/// Rule id -> rule name, for the machine's failure\n"
                 "/// diagnostics (Ctx::noteFail at the depth guards).\n"
                 "static const ipg_rt::Symbol RuleNames[] = {\n";
    for (size_t I = 0; I < M.Rules.size(); ++I)
      StepTable += "    " + idRef(M.Rules[I].Name) + ",\n";
    StepTable += "};\n\n";
  }

  // The lowered module's blackbox sites are the registration surface:
  // binding any other grammar symbol must fail loudly (return false),
  // not silently register a slot no term ever dispatches to.
  std::string BbNames;
  for (const lir::BbSite &B : M.BbSites)
    BbNames += idRef(B.Name) + ", ";

  std::string Table = "/// The grammar's interned names, indexed by Symbol: "
                      "tree nodes and the\n"
                      "/// emitted code name rules and attributes by "
                      "these ids.\n"
                      "static const char *const Names[] = {\n";
  for (Symbol S = 0; S < G.interner().size(); ++S)
    Table += "    " + cstr(name(S)) + ",\n";
  Table += "};\n\n";
  Table += "/// The grammar's declared blackboxes (the only names\n"
           "/// registerBlackbox accepts); 0 terminates.\n"
           "static const ipg_rt::Symbol BlackboxNames[] = {\n    " +
           BbNames + "0u,\n};\n\n";

  RuleId Start = M.Start;
  const lir::FramePlan Frames = lir::framePlan(M);
  std::string StartCall =
      M.Rules[Start].Shape == ExecShape::Step
          ? "ipg_rt::runMachine(C, StepFns, RuleNames, " +
                std::to_string(Start) + "u, 0, Len, Root)"
          : "parseRule_" + std::to_string(Start) +
                "(C, 0, Len, nullptr, 0, Root)";
  std::string Out;
  Out += "// Generated by the IPG parser generator; do not edit.\n";
  Out += GenRuntimeText;
  Out += "\nnamespace " + NS + " {\n\n";
  Out += "/// A parse result: the root node, in the store it was built into.\n"
         "using NodePtr = const ipg_rt::NodeTree *;\n\n";
  Out += Table + Decls + "\n" + StepTable + EvalFns + RuleFns;
  Out += "/// A reusable generated parser. The memo table and the frame\n"
         "/// pool are recycled across parse() calls, and so is the\n"
         "/// store a tree is built into, so steady-state parsing performs\n"
         "/// no heap allocation. Leaves alias the input buffer.\n"
         "class Parser {\n"
         "public:\n"
         "  Parser() {\n"
         "    C.setNames(Names, sizeof(Names) / sizeof(Names[0]));\n"
         "    C.setBlackboxNames(BlackboxNames);\n"
         "    C.setFramePlan(" + std::to_string(Frames.Depth) + ", " +
         std::to_string(Frames.Terms) + ", " +
         std::to_string(Frames.Keys) + ");\n"
         "    // EngineOptions::MaxDepth at emission time; adjust per\n"
         "    // instance with setDepthLimit.\n"
         "    C.setDepthLimit(" + std::to_string(Opts.MaxDepth) +
         "LL);\n"
         "  }\n"
         "  /// Runtime twin of EngineOptions::MaxDepth: a HARD limit on\n"
         "  /// rule recursion (tripping it aborts the whole parse), the\n"
         "  /// same knob the interpreter honors.\n"
         "  void setDepthLimit(long long Limit) { C.setDepthLimit(Limit); }\n"
         "  /// Parses Data[0, Len) into \\p Store, which is reset first. The\n"
         "  /// tree stays valid while Store is not reset and the input\n"
         "  /// lives.\n"
         "  bool parse(const uint8_t *Data, size_t Len,\n"
         "             ipg_rt::NodeStore &Store, NodePtr &Out) {\n"
         "    Store.reset();\n"
         "    C.beginParse(Data, Store);\n"
         "    unsigned Root = 0;\n"
         "    if (!" + StartCall + ") {\n"
         "      C.noteFail(" + idRef(M.Rules[Start].Name) + ", 0);\n"
         "      return false;\n"
         "    }\n" +
         (M.AnyStep && M.Rules[Start].Shape != ExecShape::Step
              ? "    (void)StepFns; (void)RuleNames;\n"
              : "") +
         "    Out = ipg_rt::asNode(Store.node(Root));\n"
         "    return true;\n"
         "  }\n"
         "  /// parse() into this parser's own store: the tree stays valid\n"
         "  /// until the next parse() on this instance (or its\n"
         "  /// destruction).\n"
         "  bool parse(const uint8_t *Data, size_t Len, NodePtr &Out) {\n"
         "    return parse(Data, Len, Own, Out);\n"
         "  }\n"
         "  /// Binds the blackbox parser named \\p Name (as spelled in\n"
         "  /// the grammar) for every later parse(). Returns false for\n"
         "  /// any name the grammar does not declare as a blackbox. A\n"
         "  /// blackbox term whose name was never registered hard-fails\n"
         "  /// the parse at run time, exactly as in the interpreter.\n"
         "  bool registerBlackbox(const char *Name, ipg_rt::BlackboxFn Fn,\n"
         "                        void *User = nullptr) {\n"
         "    ipg_rt::Symbol S = blackboxNamed(Name);\n"
         "    if (S)\n"
         "      C.registerBlackbox(S, Fn, User);\n"
         "    return S != 0;\n"
         "  }\n"
         "  /// Binds the INVERSE of the blackbox named \\p Name — what\n"
         "  /// printTree re-encodes that blackbox's decoded output with.\n"
         "  /// Parsing never consults it. Returns false for any name the\n"
         "  /// grammar does not declare as a blackbox.\n"
         "  bool registerBlackboxInverse(const char *Name,\n"
         "                               ipg_rt::BlackboxInvFn Fn,\n"
         "                               void *User = nullptr) {\n"
         "    ipg_rt::Symbol S = blackboxNamed(Name);\n"
         "    if (S)\n"
         "      C.registerBlackboxInverse(S, Fn, User);\n"
         "    return S != 0;\n"
         "  }\n"
         "  /// Serializes a tree this parser built back into bytes (the\n"
         "  /// roundtrip surface); false leaves a diagnostic in Out.Error.\n"
         "  bool printTree(const ipg_rt::ParseTree *Root,\n"
         "                 const ipg_rt::PrintOptions &Opts,\n"
         "                 ipg_rt::PrintOut &Out) const {\n"
         "    return ipg_rt::printTree(Root, Opts, Out, C);\n"
         "  }\n"
         "  /// Tree objects in the store of the last parse (diagnostics):\n"
         "  /// nodes, shifted views, arrays, leaves, and garbage from\n"
         "  /// failed alternatives.\n"
         "  size_t nodeCount() const { return C.nodeCount(); }\n"
         "  /// Nodes frozen by successful rule alternatives in the last\n"
         "  /// parse — comparable to the engine's\n"
         "  /// EngineStats::NodesCreated (memo hits do not re-freeze on\n"
         "  /// either side).\n"
         "  size_t frozenNodeCount() const { return C.frozenNodeCount(); }\n"
         "  /// Memo table traffic of the last parse — comparable to the\n"
         "  /// engine's EngineStats::MemoHits/MemoMisses.\n"
         "  size_t memoHits() const { return C.memoHits(); }\n"
         "  size_t memoMisses() const { return C.memoMisses(); }\n"
         "  /// High-water recursion depth of the last parse — the\n"
         "  /// generated twin of EngineStats::PeakDepth (direct bodies,\n"
         "  /// flattened levels, and machine tasks all report through\n"
         "  /// Ctx::notePeak, so the figure matches the interpreter's).\n"
         "  long long peakDepth() const { return C.peakDepth(); }\n"
         "  /// First-failure diagnostics of the last parse — the\n"
         "  /// generated twins of EngineStats::FailRule/FailOffset.\n"
         "  /// failSymbol() is 0 when the parse succeeded (or recorded\n"
         "  /// no location).\n"
         "  ipg_rt::Symbol failSymbol() const { return C.failSymbol(); }\n"
         "  long long failOff() const { return C.failOff(); }\n"
         "private:\n"
         "  static ipg_rt::Symbol blackboxNamed(const char *Name) {\n"
         "    for (const ipg_rt::Symbol *S = BlackboxNames; *S; ++S)\n"
         "      if (!std::strcmp(Names[*S], Name))\n"
         "        return *S;\n"
         "    return 0;\n"
         "  }\n"
         "  ipg_rt::Ctx C;\n"
         "  ipg_rt::NodeStore Own;\n"
         "};\n\n"
         "/// The Symbol spelled \\p Name (0 when the grammar has none), for\n"
         "/// attribute and child lookups on a parsed tree.\n"
         "inline ipg_rt::Symbol sym(const char *Name) {\n"
         "  for (ipg_rt::Symbol S = 1; S < sizeof(Names) / sizeof(Names[0]); "
         "++S)\n"
         "    if (!std::strcmp(Names[S], Name))\n"
         "      return S;\n"
         "  return 0;\n"
         "}\n\n"
         "/// Canonical multi-line rendering (the differential-test "
         "format).\n"
         "inline std::string dumpTree(const ipg_rt::ParseTree *Root) {\n"
         "  return ipg_rt::dumpTree(Root, Names, sizeof(Names) / "
         "sizeof(Names[0]));\n"
         "}\n\n"
         "/// One-shot convenience over a process-lifetime Parser; the "
         "returned\n"
         "/// tree is valid until the next call.\n"
         "bool parse(const uint8_t *Data, size_t Len, NodePtr &Out) {\n"
         "  static Parser P;\n"
         "  return P.parse(Data, Len, Out);\n"
         "}\n\n"
         "} // namespace " + NS + "\n";
  return Out;
}

} // namespace

Expected<std::string> ipg::emitCppParser(const Grammar &G,
                                         const std::string &Namespace,
                                         const EngineOptions &Opts) {
  return Emitter(G, Namespace, Opts).run();
}
