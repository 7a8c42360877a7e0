//===- vm/BytecodeVM.cpp --------------------------------------------------===//
//
// Part of the IPG reproduction of "Interval Parsing Grammars for File Format
// Parsing" (PLDI 2023). MIT license.
//
//===----------------------------------------------------------------------===//
//
// The VM is host::Runner (runtime/HostRunner.h) instantiated with VmEval,
// which executes the lowered module's compiled expression programs. This
// file holds only that evaluator: the construction-time quick-form decoder
// (classifyExpr) and the quick-form / computed-goto evaluation paths.
//
//===----------------------------------------------------------------------===//

#include "vm/BytecodeVM.h"

#include "lower/LIR.h"
#include "runtime/HostRunner.h"
#include "runtime/ParseScratch.h"
#include "support/GenRuntime.h"

#include <algorithm>
#include <cassert>
#include <cstddef>
#include <cstdint>
#include <memory>
#include <optional>
#include <vector>

using namespace ipg;

namespace {

using Frame = ipg_rt::Frame;
using QE = BytecodeVM::QuickExpr;

/// Decodes one expression program into its closed quick form, or General
/// when no pattern applies. The recognized shapes — a constant, EOI, a
/// single attribute / sibling-attribute / term-end load, any of those
/// +/- a constant, a constant times an attribute, term-end plus an
/// attribute, and a fixed-width read at a constant or attribute(+const)
/// offset — cover nearly every interval endpoint real grammars produce. Equivalence contract:
/// a quick form must compute exactly what the dispatch loop would (same
/// partiality order, same wrapping add), so classification errs toward
/// General whenever that is in doubt (e.g. subtracting INT64_MIN, whose
/// negation does not exist).
QE classifyExpr(const lir::Module &L, uint32_t Id,
                std::vector<BytecodeVM::DigitTerm> &Digits) {
  const lir::ExprProgram &P = L.Exprs[Id];
  const lir::XInstr *C = L.XCode.data() + P.Begin;
  const uint32_t N = P.End - P.Begin;
  QE Q;

  auto loadOf = [](const lir::XInstr &I, QE &O) -> bool {
    switch (I.Op) {
    case lir::XOp::Num:
      O.K = QE::Const;
      O.Imm = I.Imm;
      return true;
    case lir::XOp::LoadEoi:
      O.K = QE::Eoi;
      return true;
    case lir::XOp::LoadAttr:
      O.K = QE::Attr;
      O.Sym = I.Sym;
      return true;
    case lir::XOp::LoadNtAttr:
      O.K = QE::NtAttr;
      O.Sym = I.Sym;
      O.A = I.Attr;
      return true;
    case lir::XOp::LoadTermEnd:
      O.K = QE::TermEnd;
      O.A = static_cast<uint32_t>(I.Imm);
      return true;
    default:
      return false;
    }
  };

  if (N == 1) {
    loadOf(C[0], Q);
    return Q;
  }
  // Reads pre-resolve the ReadKind to a width|endian spec so the
  // evaluator can use compile-time-width loads (readFixedQuick). A kind
  // without a fixed spec stays General.
  if (N == 2 && C[1].Op == lir::XOp::ReadFixed) {
    uint32_t Spec = 0;
    if (!ipg_rt::packReadSpec(C[1].A, Spec))
      return Q;
    if (C[0].Op == lir::XOp::Num) {
      Q.K = QE::ReadAtConst;
      Q.A = Spec;
      Q.Imm = C[0].Imm;
    } else if (C[0].Op == lir::XOp::LoadAttr) {
      Q.K = QE::ReadAtAttr;
      Q.A = Spec;
      Q.Sym = C[0].Sym;
    }
    return Q;
  }
  if (N == 3 && C[2].Op == lir::XOp::Add &&
      C[0].Op == lir::XOp::LoadTermEnd && C[1].Op == lir::XOp::LoadAttr) {
    Q.K = QE::TermEndAttr;
    Q.A = static_cast<uint32_t>(C[0].Imm);
    Q.Sym = C[1].Sym;
    return Q;
  }
  if (N == 3 && C[2].Op == lir::XOp::Mul && C[0].Op == lir::XOp::Num &&
      C[1].Op == lir::XOp::LoadAttr) {
    Q.K = QE::AttrMulImm;
    Q.Sym = C[1].Sym;
    Q.Imm = C[0].Imm;
    return Q;
  }
  // Imm * (attr + Imm2) — the strided-width form.
  if (N == 5 && C[0].Op == lir::XOp::Num && C[1].Op == lir::XOp::LoadAttr &&
      C[2].Op == lir::XOp::Num && C[3].Op == lir::XOp::Add &&
      C[4].Op == lir::XOp::Mul) {
    Q.K = QE::AttrMulImm;
    Q.Sym = C[1].Sym;
    Q.Imm = C[0].Imm;
    Q.Imm2 = C[2].Imm;
    return Q;
  }
  // nt.base + (i + Imm) * nt.stride — the array-element interval
  // endpoint (e.g. ELF's shoff + i*shentsize), evaluated once per
  // element per endpoint, so easily the hottest general shape.
  if ((N == 5 || N == 7) && C[0].Op == lir::XOp::LoadNtAttr &&
      C[1].Op == lir::XOp::LoadAttr && C[N - 3].Op == lir::XOp::LoadNtAttr &&
      C[N - 2].Op == lir::XOp::Mul && C[N - 1].Op == lir::XOp::Add &&
      (N == 5 ||
       (C[2].Op == lir::XOp::Num && C[3].Op == lir::XOp::Add))) {
    Q.K = QE::NtAffine;
    Q.Sym = C[0].Sym;
    Q.A = C[0].Attr;
    Q.Sym3 = C[1].Sym;
    Q.Imm = N == 7 ? C[2].Imm : 0;
    Q.Sym2 = C[N - 3].Sym;
    Q.Attr2 = C[N - 3].Attr;
    return Q;
  }
  // attr + Imm + Imm2 * (attr2 [+ inner]) — the fixed-pitch table-row
  // endpoint (e.g. PDF's xref rows at base + 13 + 20*i), evaluated once
  // per row per endpoint.
  if ((N == 7 || N == 9) && C[0].Op == lir::XOp::LoadAttr &&
      C[1].Op == lir::XOp::Num && C[2].Op == lir::XOp::Add &&
      C[3].Op == lir::XOp::Num && C[4].Op == lir::XOp::LoadAttr &&
      C[N - 2].Op == lir::XOp::Mul && C[N - 1].Op == lir::XOp::Add &&
      (N == 7 || (C[5].Op == lir::XOp::Num && C[6].Op == lir::XOp::Add))) {
    const int64_t Inner = N == 9 ? C[5].Imm : 0;
    if (Inner >= INT32_MIN && Inner <= INT32_MAX) {
      Q.K = QE::AttrAffinePair;
      Q.Sym = C[0].Sym;
      Q.Imm = C[1].Imm;
      Q.Imm2 = C[3].Imm;
      Q.Sym2 = C[4].Sym;
      Q.A = static_cast<uint32_t>(static_cast<int32_t>(Inner));
      return Q;
    }
  }
  // nt.a * Imm + nt2.b — two sibling attributes assembled positionally.
  if (N == 5 && C[0].Op == lir::XOp::LoadNtAttr &&
      C[1].Op == lir::XOp::Num && C[2].Op == lir::XOp::Mul &&
      C[3].Op == lir::XOp::LoadNtAttr && C[4].Op == lir::XOp::Add) {
    Q.K = QE::NtAttrScalePair;
    Q.Sym = C[0].Sym;
    Q.A = C[0].Attr;
    Q.Imm = C[1].Imm;
    Q.Sym2 = C[3].Sym;
    Q.Attr2 = C[3].Attr;
    return Q;
  }
  // arr[i].attr, alone or compared against a constant (the latter is the
  // typical exists-scan condition, evaluated once per element per scan).
  if ((N == 2 || (N == 4 && C[2].Op == lir::XOp::Num &&
                  C[3].Op == lir::XOp::Eq)) &&
      C[0].Op == lir::XOp::LoadAttr && C[1].Op == lir::XOp::LoadElemAttr) {
    Q.K = N == 2 ? QE::ElemAttr : QE::ElemAttrEqImm;
    Q.Sym3 = C[0].Sym;
    Q.Sym = C[1].Sym;
    Q.A = C[1].Attr;
    if (N == 4)
      Q.Imm = C[2].Imm;
    return Q;
  }
  // arr[i].a + arr[j].b — an element's byte extent (offset + size).
  if (N == 5 && C[0].Op == lir::XOp::LoadAttr &&
      C[1].Op == lir::XOp::LoadElemAttr && C[2].Op == lir::XOp::LoadAttr &&
      C[3].Op == lir::XOp::LoadElemAttr && C[4].Op == lir::XOp::Add) {
    Q.K = QE::ElemAttrPair;
    Q.Sym3 = C[0].Sym;
    Q.Sym = C[1].Sym;
    Q.A = C[1].Attr;
    Q.Imm = static_cast<int64_t>(C[2].Sym);
    Q.Sym2 = C[3].Sym;
    Q.Attr2 = C[3].Attr;
    return Q;
  }
  if (N == 3 && C[0].Op == lir::XOp::LoadAttr && C[1].Op == lir::XOp::Num &&
      C[2].Op == lir::XOp::Eq) {
    Q.K = QE::AttrEqImm;
    Q.Sym = C[0].Sym;
    Q.Imm = C[1].Imm;
    return Q;
  }
  if (N == 3 && C[0].Op == lir::XOp::LoadEoi && C[1].Op == lir::XOp::Num &&
      C[2].Op == lir::XOp::Div) {
    Q.K = QE::EoiDivImm;
    Q.Imm = C[1].Imm;
    return Q;
  }
  // attr >= lo && attr' <= hi (or the strict variants) with And's
  // short-circuit: BrFalse must jump to the end of the program.
  if (N == 8 && C[0].Op == lir::XOp::LoadAttr && C[1].Op == lir::XOp::Num &&
      (C[2].Op == lir::XOp::Ge || C[2].Op == lir::XOp::Gt) &&
      C[3].Op == lir::XOp::BrFalse && C[3].A == 8 &&
      C[4].Op == lir::XOp::LoadAttr && C[5].Op == lir::XOp::Num &&
      (C[6].Op == lir::XOp::Le || C[6].Op == lir::XOp::Lt) &&
      C[7].Op == lir::XOp::Bool) {
    Q.K = QE::AttrInRange;
    Q.Sym = C[0].Sym;
    Q.Imm = C[1].Imm;
    Q.Sym2 = C[4].Sym;
    Q.Imm2 = C[5].Imm;
    Q.A = (C[2].Op == lir::XOp::Gt ? 1u : 0u) |
          (C[6].Op == lir::XOp::Lt ? 2u : 0u);
    return Q;
  }
  if (N == 4 && C[0].Op == lir::XOp::LoadAttr && C[1].Op == lir::XOp::Num &&
      C[2].Op == lir::XOp::Add && C[3].Op == lir::XOp::ReadFixed) {
    uint32_t Spec = 0;
    if (!ipg_rt::packReadSpec(C[3].A, Spec))
      return Q;
    Q.K = QE::ReadAtAttr;
    Q.A = Spec;
    Q.Sym = C[0].Sym;
    Q.Imm = C[1].Imm;
    return Q;
  }
  if (N == 3 && C[1].Op == lir::XOp::Num &&
      (C[2].Op == lir::XOp::Add || C[2].Op == lir::XOp::Sub)) {
    QE B;
    if (!loadOf(C[0], B))
      return Q;
    int64_t Addend = C[1].Imm;
    if (C[2].Op == lir::XOp::Sub) {
      if (Addend == INT64_MIN)
        return Q;
      Addend = -Addend;
    }
    // Fold with the dispatch loop's wrapping semantics.
    B.Imm = ipg_rt::wrapAdd(B.Imm, Addend);
    return B;
  }
  // Positional decimal decode: sum of (read(off_i) - sub) * w_i over
  // constant offsets, one read per digit — PDF's xref-entry numbers,
  // by far the longest programs in any format. Every operation except
  // the reads is total (wrapping), and the reads happen left to right
  // in both forms, so the table walk is exactly the dispatch loop.
  if (N >= 9) {
    uint32_t Spec = 0;
    int64_t Sub = 0;
    uint32_t I = 0;
    bool First = true, Ok = true;
    const size_t Mark = Digits.size();
    while (I < N) {
      if (I + 3 >= N || C[I].Op != lir::XOp::Num ||
          C[I + 1].Op != lir::XOp::ReadFixed ||
          C[I + 2].Op != lir::XOp::Num || C[I + 3].Op != lir::XOp::Sub) {
        Ok = false;
        break;
      }
      uint32_t S = 0;
      if (!ipg_rt::packReadSpec(C[I + 1].A, S) || (!First && S != Spec) ||
          (!First && C[I + 2].Imm != Sub)) {
        Ok = false;
        break;
      }
      Spec = S;
      Sub = C[I + 2].Imm;
      const int64_t Off = C[I].Imm;
      int64_t W = 1;
      I += 4;
      // Weight is optional (the least-significant digit has none). The
      // lookahead is unambiguous: a new term starts Num ReadFixed, never
      // Num Mul.
      if (I + 1 < N && C[I].Op == lir::XOp::Num &&
          C[I + 1].Op == lir::XOp::Mul) {
        W = C[I].Imm;
        I += 2;
      }
      if (!First) {
        if (I >= N || C[I].Op != lir::XOp::Add) {
          Ok = false;
          break;
        }
        ++I;
      }
      Digits.push_back({Off, W});
      First = false;
    }
    if (Ok && Digits.size() - Mark >= 2) {
      Q.K = QE::Digits;
      Q.A = Spec;
      Q.B = static_cast<uint32_t>(Mark);
      Q.Imm = static_cast<int64_t>(Digits.size() - Mark);
      Q.Imm2 = Sub;
      return Q;
    }
    Digits.resize(Mark); // partial match: discard, stay General
  }
  return Q;
}

/// The VM's expression evaluator for host::Runner: runs the lowered
/// module's compiled programs, through their pre-decoded quick forms
/// (BytecodeVM::QuickExpr) where one exists and the dispatch loop
/// otherwise. Partiality (absent attribute, guarded arithmetic,
/// out-of-bounds read) returns false — the program fails as a whole,
/// exactly as expr/Eval.h's std::nullopt does.
class VmEval {
public:
  /// Fixed-layout records run as one step (lir::RecordPlan).
  static constexpr bool Fuse = true;

  VmEval(ParseScratch &St, const std::vector<QE> &Quick,
         const std::vector<BytecodeVM::DigitTerm> &Digits)
      : L(St.Lowered), St(St), Quick(Quick), Digits(Digits) {}

  /// Executes one compiled program. Nearly every program a parse runs is
  /// trivial, so the pre-decoded quick form (BytecodeVM::QuickExpr) is
  /// tried first — a closed-form computation with no operand stack and no
  /// dispatch. The three kinds that need at most a two-compare helper (a
  /// constant, EOI +/- a constant, a term's recorded end +/- a constant —
  /// between them almost every sequential-layout endpoint) are resolved
  /// right here — this small body inlines into the hot term-execution
  /// sites, so the most common endpoints cost no call — and everything
  /// else goes through the outlined switch.
  bool eval(const Frame &F, lir::ExprId Id, int64_t &Out) {
    const QE &Q = Quick[Id];
    if (Q.K == QE::Const) {
      Out = Q.Imm;
      return true;
    }
    if (Q.K == QE::Eoi) {
      Out = ipg_rt::wrapAdd(F.eoi(), Q.Imm);
      return true;
    }
    long long V = 0;
    if (Q.K == QE::TermEnd) {
      if (!F.termEnd(Q.A, V))
        return false;
      Out = ipg_rt::wrapAdd(V, Q.Imm);
      return true;
    }
    // Attribute found in the executing frame with no exists-scan binding
    // active — loadAttr's overwhelmingly common case. A miss falls
    // through to the full binds-then-lexical-chain lookup.
    if (Q.K == QE::Attr && St.Binds.empty() && F.getAttr(Q.Sym, V)) {
      Out = ipg_rt::wrapAdd(V, Q.Imm);
      return true;
    }
    return evalQuickRest(F, Q, Id, Out);
  }

private:
  /// The exists-scan binding stack (innermost first), then the frame's
  /// lexical chain (Frame::attr) — the flattened form of Eval.cpp's
  /// ScopedBinding wrappers, which override attribute lookup only.
  bool loadAttr(const Frame &F, Symbol Id, int64_t &Out) const {
    for (size_t I = St.Binds.size(); I-- > 0;)
      if (St.Binds[I].Var == Id) {
        Out = St.Binds[I].Value;
        return true;
      }
    long long V = 0;
    if (!F.attr(Id, V))
      return false;
    Out = V;
    return true;
  }

  /// Frame::ntAttr / Frame::elemAttr with the evaluator's value type.
  static bool loadNtAttr(const Frame &F, Symbol NT, Symbol Attr,
                         int64_t &Out) {
    long long V = 0;
    if (!F.ntAttr(NT, Attr, V))
      return false;
    Out = V;
    return true;
  }
  static bool loadElemAttr(const Frame &F, Symbol NT, int64_t Index,
                           Symbol Attr, int64_t &Out) {
    long long V = 0;
    if (!F.elemAttr(NT, Index, Attr, V))
      return false;
    Out = V;
    return true;
  }

  /// `exists j . C ? T : E` over the statically identified array
  /// (Eval.cpp's evalExists): length from the OUTER context, condition
  /// and then-branch under the loop binding, else-branch without it. A
  /// failing condition at any index fails the whole expression.
  bool evalExists(const Frame &F, uint32_t Idx, int64_t &Out) {
    const lir::ExistsInfo &X = L.Exists[Idx];
    if (X.ArrayNT == InvalidSymbol)
      return false;
    const ArrayTree *A = F.findArray(X.ArrayNT);
    if (!A)
      return false;
    const int64_t Len = static_cast<int64_t>(A->size());
    for (int64_t K = 0; K < Len; ++K) {
      St.Binds.push_back({X.LoopVar, K});
      int64_t C = 0;
      if (!eval(F, X.Cond, C)) {
        St.Binds.pop_back();
        return false;
      }
      if (C != 0) {
        bool Ok = eval(F, X.Then, Out);
        St.Binds.pop_back();
        return Ok;
      }
      St.Binds.pop_back();
    }
    return eval(F, X.Else, Out);
  }

  /// The remaining quick kinds; General falls through to the dispatch
  /// loop. Outlined so eval() stays small enough to inline.
#if defined(__GNUC__) || defined(__clang__)
  __attribute__((noinline))
#endif
  bool
  evalQuickRest(const Frame &F, const QE &Q, lir::ExprId Id, int64_t &Out) {
    switch (Q.K) {
    case QE::Const:
    case QE::Eoi:
    case QE::TermEnd:
      break; // handled by eval() before the call
    case QE::Attr:
      if (!loadAttr(F, Q.Sym, Out))
        return false;
      Out = ipg_rt::wrapAdd(Out, Q.Imm);
      return true;
    case QE::NtAttr:
      if (!loadNtAttr(F, Q.Sym, Q.A, Out))
        return false;
      Out = ipg_rt::wrapAdd(Out, Q.Imm);
      return true;
    case QE::TermEndAttr: {
      long long B = 0;
      int64_t At = 0;
      if (!F.termEnd(Q.A, B) || !loadAttr(F, Q.Sym, At))
        return false;
      Out = ipg_rt::wrapAdd(B, At);
      return true;
    }
    case QE::AttrMulImm:
      if (!loadAttr(F, Q.Sym, Out))
        return false;
      Out = ipg_rt::wrapMul(Q.Imm, ipg_rt::wrapAdd(Out, Q.Imm2));
      return true;
    case QE::NtAffine: {
      int64_t Base = 0, Idx = 0, Stride = 0;
      if (!loadNtAttr(F, Q.Sym, Q.A, Base) || !loadAttr(F, Q.Sym3, Idx) ||
          !loadNtAttr(F, Q.Sym2, Q.Attr2, Stride))
        return false;
      Out = ipg_rt::wrapAdd(
          Base, ipg_rt::wrapMul(ipg_rt::wrapAdd(Idx, Q.Imm), Stride));
      return true;
    }
    case QE::AttrAffinePair: {
      int64_t L = 0, R = 0;
      if (!loadAttr(F, Q.Sym, L) || !loadAttr(F, Q.Sym2, R))
        return false;
      const uint64_t Inner = static_cast<uint64_t>(R) +
                             static_cast<uint64_t>(static_cast<int32_t>(Q.A));
      Out = static_cast<int64_t>(static_cast<uint64_t>(L) +
                                 static_cast<uint64_t>(Q.Imm) +
                                 static_cast<uint64_t>(Q.Imm2) * Inner);
      return true;
    }
    case QE::NtAttrScalePair: {
      int64_t L = 0, R = 0;
      if (!loadNtAttr(F, Q.Sym, Q.A, L) ||
          !loadNtAttr(F, Q.Sym2, Q.Attr2, R))
        return false;
      Out = static_cast<int64_t>(static_cast<uint64_t>(L) *
                                     static_cast<uint64_t>(Q.Imm) +
                                 static_cast<uint64_t>(R));
      return true;
    }
    case QE::ElemAttr:
    case QE::ElemAttrEqImm: {
      int64_t Idx = 0, V = 0;
      if (!loadAttr(F, Q.Sym3, Idx) || !loadElemAttr(F, Q.Sym, Idx, Q.A, V))
        return false;
      Out = Q.K == QE::ElemAttr ? V : (V == Q.Imm ? 1 : 0);
      return true;
    }
    case QE::ElemAttrPair: {
      // arr Sym [attr(Sym3)].A + arr Sym2 [attr(Imm)].Attr2, in the
      // loop's exact load order.
      int64_t Idx1 = 0, V1 = 0, Idx2 = 0, V2 = 0;
      if (!loadAttr(F, Q.Sym3, Idx1) ||
          !loadElemAttr(F, Q.Sym, Idx1, Q.A, V1) ||
          !loadAttr(F, static_cast<Symbol>(Q.Imm), Idx2) ||
          !loadElemAttr(F, Q.Sym2, Idx2, Q.Attr2, V2))
        return false;
      Out = static_cast<int64_t>(static_cast<uint64_t>(V1) +
                                 static_cast<uint64_t>(V2));
      return true;
    }
    case QE::AttrEqImm:
      if (!loadAttr(F, Q.Sym, Out))
        return false;
      Out = Out == Q.Imm ? 1 : 0;
      return true;
    case QE::Digits: {
      const BytecodeVM::DigitTerm *T = Digits.data() + Q.B;
      uint64_t Acc = 0;
      for (int64_t I = 0; I < Q.Imm; ++I) {
        int64_t V = 0;
        if (!readFixedQuick(F, Q.A, T[I].Off, V))
          return false;
        Acc += (static_cast<uint64_t>(V) - static_cast<uint64_t>(Q.Imm2)) *
               static_cast<uint64_t>(T[I].Weight);
      }
      Out = static_cast<int64_t>(Acc);
      return true;
    }
    case QE::EoiDivImm: {
      long long Guarded = 0;
      if (!ipg_rt::checkedDiv(F.eoi(), Q.Imm, Guarded))
        return false;
      Out = Guarded;
      return true;
    }
    case QE::AttrInRange: {
      int64_t V = 0;
      if (!loadAttr(F, Q.Sym, V))
        return false;
      if (!(Q.A & 1 ? V > Q.Imm : V >= Q.Imm)) {
        Out = 0; // And short-circuit: the upper bound is never loaded
        return true;
      }
      int64_t W = 0;
      if (!loadAttr(F, Q.Sym2, W))
        return false;
      Out = (Q.A & 2 ? W < Q.Imm2 : W <= Q.Imm2) ? 1 : 0;
      return true;
    }
    case QE::ReadAtConst:
      return readFixedQuick(F, Q.A, Q.Imm, Out);
    case QE::ReadAtAttr: {
      int64_t Off = 0;
      if (!loadAttr(F, Q.Sym, Off))
        return false;
      return readFixedQuick(F, Q.A, ipg_rt::wrapAdd(Off, Q.Imm), Out);
    }
    case QE::General:
      break;
    }
    return evalGeneral(F, Id, Out);
  }

  /// Fixed-width read for the quick forms: \p Spec is the packed
  /// width|endian encoding classifyExpr derived from the ReadKind once at
  /// engine construction. Bounds behavior is readScalar's, exactly as the
  /// dispatch loop's ReadFixed.
  bool readFixedQuick(const Frame &F, uint32_t Spec, int64_t Off,
                      int64_t &Out) const {
    long long V = 0;
    if (!ipg_rt::readPacked(F.Base + F.Lo, F.eoi(), Off, Spec, V))
      return false;
    Out = V;
    return true;
  }

  /// The dispatch loop for General programs. The operand stack is a raw
  /// pointer window over St.VStack: the program's exact high-water mark
  /// (ExprProgram::MaxStack, proved by the lowering's simulation) is
  /// reserved up front, so pushes and pops are bare pointer moves. Nested
  /// activations (Exists sub-programs) stack their windows through
  /// St.VTop, which this frame commits around the one opcode that can
  /// re-enter. Dispatch is computed-goto on GNU-compatible compilers —
  /// the label table is in XOp declaration order — with a switch fallback
  /// elsewhere.
#if defined(__GNUC__) || defined(__clang__)
  __attribute__((noinline, cold))
#endif
  bool
  evalGeneral(const Frame &F, lir::ExprId Id, int64_t &Out) {
    const lir::ExprProgram &P = L.Exprs[Id];
    const lir::XInstr *Code = L.XCode.data() + P.Begin;
    const uint32_t N = P.End - P.Begin;
    std::vector<int64_t> &S = St.VStack;
    const size_t Base = St.VTop;
    if (S.size() < Base + P.MaxStack)
      S.resize(Base + P.MaxStack);
    int64_t *BP = S.data() + Base;
    int64_t *SP = BP;
    uint32_t PC = 0;
    int64_t T1 = 0;
    long long Guarded = 0;

    // Every program has >= 1 instruction and every jump target lies in
    // (source, N] (lir::verify); the loop only needs the PC == N check on
    // instruction boundaries.
#if defined(__GNUC__) || defined(__clang__)
    static const void *const Dispatch[] = {
        &&x_Num,       &&x_Add,        &&x_Sub,          &&x_Mul,
        &&x_Div,       &&x_Mod,        &&x_Eq,           &&x_Ne,
        &&x_Lt,        &&x_Gt,         &&x_Le,           &&x_Ge,
        &&x_Shl,       &&x_Shr,        &&x_BitAnd,       &&x_Bool,
        &&x_BrFalse,   &&x_BrTrue,     &&x_JmpZero,      &&x_Jmp,
        &&x_LoadAttr,  &&x_LoadNtAttr, &&x_LoadElemAttr, &&x_LoadEoi,
        &&x_LoadTermEnd, &&x_ReadFixed, &&x_ReadRange,   &&x_Exists,
    };
    static_assert(sizeof(Dispatch) / sizeof(Dispatch[0]) == 28,
                  "dispatch table must cover every XOp");
#define IPG_VM_CASE(op) x_##op:
#define IPG_VM_NEXT()                                                        \
  do {                                                                       \
    if (++PC == N)                                                           \
      goto vm_done;                                                          \
    goto *Dispatch[static_cast<uint8_t>(Code[PC].Op)];                       \
  } while (0)
#define IPG_VM_JUMP(Target)                                                  \
  do {                                                                       \
    PC = (Target);                                                           \
    if (PC == N)                                                             \
      goto vm_done;                                                          \
    goto *Dispatch[static_cast<uint8_t>(Code[PC].Op)];                       \
  } while (0)
#define IPG_VM_FAIL() return false

    goto *Dispatch[static_cast<uint8_t>(Code[0].Op)];
#else
#define IPG_VM_CASE(op) case lir::XOp::op:
#define IPG_VM_NEXT()                                                        \
  do {                                                                       \
    ++PC;                                                                    \
    goto vm_top;                                                             \
  } while (0)
#define IPG_VM_JUMP(Target)                                                  \
  do {                                                                       \
    PC = (Target);                                                           \
    goto vm_top;                                                             \
  } while (0)
#define IPG_VM_FAIL() return false

  vm_top:
    if (PC == N)
      goto vm_done;
    switch (Code[PC].Op) {
#endif

    IPG_VM_CASE(Num)
    *SP++ = Code[PC].Imm;
    IPG_VM_NEXT();

    IPG_VM_CASE(Add)
    T1 = *--SP;
    SP[-1] = ipg_rt::wrapAdd(SP[-1], T1);
    IPG_VM_NEXT();

    IPG_VM_CASE(Sub)
    T1 = *--SP;
    SP[-1] = ipg_rt::wrapSub(SP[-1], T1);
    IPG_VM_NEXT();

    IPG_VM_CASE(Mul)
    T1 = *--SP;
    SP[-1] = ipg_rt::wrapMul(SP[-1], T1);
    IPG_VM_NEXT();

    IPG_VM_CASE(Div)
    T1 = *--SP;
    if (!ipg_rt::checkedDiv(SP[-1], T1, Guarded))
      IPG_VM_FAIL();
    SP[-1] = Guarded;
    IPG_VM_NEXT();

    IPG_VM_CASE(Mod)
    T1 = *--SP;
    if (!ipg_rt::checkedMod(SP[-1], T1, Guarded))
      IPG_VM_FAIL();
    SP[-1] = Guarded;
    IPG_VM_NEXT();

    IPG_VM_CASE(Eq)
    T1 = *--SP;
    SP[-1] = SP[-1] == T1 ? 1 : 0;
    IPG_VM_NEXT();

    IPG_VM_CASE(Ne)
    T1 = *--SP;
    SP[-1] = SP[-1] != T1 ? 1 : 0;
    IPG_VM_NEXT();

    IPG_VM_CASE(Lt)
    T1 = *--SP;
    SP[-1] = SP[-1] < T1 ? 1 : 0;
    IPG_VM_NEXT();

    IPG_VM_CASE(Gt)
    T1 = *--SP;
    SP[-1] = SP[-1] > T1 ? 1 : 0;
    IPG_VM_NEXT();

    IPG_VM_CASE(Le)
    T1 = *--SP;
    SP[-1] = SP[-1] <= T1 ? 1 : 0;
    IPG_VM_NEXT();

    IPG_VM_CASE(Ge)
    T1 = *--SP;
    SP[-1] = SP[-1] >= T1 ? 1 : 0;
    IPG_VM_NEXT();

    IPG_VM_CASE(Shl)
    T1 = *--SP;
    if (!ipg_rt::checkedShl(SP[-1], T1, Guarded))
      IPG_VM_FAIL();
    SP[-1] = Guarded;
    IPG_VM_NEXT();

    IPG_VM_CASE(Shr)
    T1 = *--SP;
    if (!ipg_rt::checkedShr(SP[-1], T1, Guarded))
      IPG_VM_FAIL();
    SP[-1] = Guarded;
    IPG_VM_NEXT();

    IPG_VM_CASE(BitAnd)
    T1 = *--SP;
    SP[-1] &= T1;
    IPG_VM_NEXT();

    IPG_VM_CASE(Bool)
    SP[-1] = SP[-1] != 0 ? 1 : 0;
    IPG_VM_NEXT();

    IPG_VM_CASE(BrFalse)
    T1 = *--SP;
    if (T1 == 0) {
      *SP++ = 0;
      IPG_VM_JUMP(Code[PC].A);
    }
    IPG_VM_NEXT();

    IPG_VM_CASE(BrTrue)
    T1 = *--SP;
    if (T1 != 0) {
      *SP++ = 1;
      IPG_VM_JUMP(Code[PC].A);
    }
    IPG_VM_NEXT();

    IPG_VM_CASE(JmpZero)
    T1 = *--SP;
    if (T1 == 0)
      IPG_VM_JUMP(Code[PC].A);
    IPG_VM_NEXT();

    IPG_VM_CASE(Jmp)
    IPG_VM_JUMP(Code[PC].A);

    IPG_VM_CASE(LoadAttr)
    if (!loadAttr(F, Code[PC].Sym, T1))
      IPG_VM_FAIL();
    *SP++ = T1;
    IPG_VM_NEXT();

    IPG_VM_CASE(LoadNtAttr)
    if (!loadNtAttr(F, Code[PC].Sym, Code[PC].Attr, T1))
      IPG_VM_FAIL();
    *SP++ = T1;
    IPG_VM_NEXT();

    IPG_VM_CASE(LoadElemAttr) {
      T1 = *--SP; // element index
      if (!loadElemAttr(F, Code[PC].Sym, T1, Code[PC].Attr, T1))
        IPG_VM_FAIL();
      *SP++ = T1;
    }
    IPG_VM_NEXT();

    IPG_VM_CASE(LoadEoi)
    *SP++ = F.eoi();
    IPG_VM_NEXT();

    IPG_VM_CASE(LoadTermEnd)
    if (!F.termEnd(static_cast<uint32_t>(Code[PC].Imm), Guarded))
      IPG_VM_FAIL();
    *SP++ = Guarded;
    IPG_VM_NEXT();

    IPG_VM_CASE(ReadFixed)
    T1 = *--SP; // offset
    if (!F.read(Code[PC].A, T1, /*RHi=*/0, Guarded))
      IPG_VM_FAIL();
    *SP++ = Guarded;
    IPG_VM_NEXT();

    IPG_VM_CASE(ReadRange) {
      T1 = *--SP; // hi
      const int64_t Lo = *--SP;
      if (!F.read(Code[PC].A, Lo, T1, Guarded))
        IPG_VM_FAIL();
      *SP++ = Guarded;
    }
    IPG_VM_NEXT();

    IPG_VM_CASE(Exists) {
      // evalExists re-enters evalProgram: commit this window so the
      // nested activations stack above it, and re-derive the pointers
      // afterwards (nested growth may have reallocated the vector).
      const size_t Live = static_cast<size_t>(SP - BP);
      St.VTop = Base + Live;
      const bool Ok = evalExists(F, Code[PC].A, T1);
      St.VTop = Base;
      BP = S.data() + Base;
      SP = BP + Live;
      if (!Ok)
        IPG_VM_FAIL();
    }
    *SP++ = T1;
    IPG_VM_NEXT();

#if !defined(__GNUC__) && !defined(__clang__)
    }
    goto vm_top; // unreachable; keeps the switch well-formed
#endif

  vm_done:
    // Stack balance is a lowering invariant (simulate() proved every
    // path leaves exactly one value); asserts, not runtime checks.
    assert(SP == BP + 1 && "expression program must leave 1 value");
    Out = SP[-1];
    return true;

#undef IPG_VM_CASE
#undef IPG_VM_NEXT
#undef IPG_VM_JUMP
#undef IPG_VM_FAIL
  }

  const lir::Module &L;
  ParseScratch &St;
  const std::vector<QE> &Quick;
  const std::vector<BytecodeVM::DigitTerm> &Digits;
};

} // namespace

BytecodeVM::BytecodeVM(const Grammar &G, const BlackboxRegistry *Blackboxes,
                       EngineOptions Opts)
    : G(G), Blackboxes(Blackboxes), Opts(Opts),
      S(std::make_unique<ParseScratch>()) {
  // One lowering per engine: the shared resolution layer (rule targets,
  // literals, expression programs, recursion shapes, memo eligibility,
  // blackbox sites) all execution modes consume. See lower/LIR.h.
  S->bindGrammar(G, Blackboxes);
  // Decode every expression program into its closed quick form once (see
  // BytecodeVM.h): the dispatch loop then only runs for the few programs
  // that genuinely need an operand stack.
  Quick.resize(S->Lowered.Exprs.size());
  uint32_t MaxStack = 0;
  for (uint32_t Id = 0; Id < Quick.size(); ++Id) {
    Quick[Id] = classifyExpr(S->Lowered, Id, QuickDigits);
    if (Quick[Id].K == QuickExpr::General)
      MaxStack = std::max(MaxStack, S->Lowered.Exprs[Id].MaxStack);
  }
  // The operand stack of the deepest dispatch-loop program, sized once
  // (only nested exists-scans stack above it).
  S->VStack.reserve(MaxStack);
}

BytecodeVM::~BytecodeVM() = default;

Expected<TreePtr> BytecodeVM::parse(ByteSpan Input) {
  return parse(Input, G.startSymbol());
}

Expected<TreePtr> BytecodeVM::parse(ByteSpan Input, Symbol StartNT) {
  return host::parse<VmEval>(G, Opts, Stats, *S, HasDeadline, Deadline,
                             Input, StartNT, Quick, QuickDigits);
}

bool BytecodeVM::adoptStore(TreeStore *Store) { return S->Stores.adopt(Store); }
