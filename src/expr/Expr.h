//===- expr/Expr.h - IPG expression AST -------------------------*- C++ -*-===//
//
// Part of the IPG reproduction of "Interval Parsing Grammars for File Format
// Parsing" (PLDI 2023). MIT license.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The expression language of Figure 5:
///
///   e   ::= n | e bop e | e ? e : e | ref
///   bop ::= + | - | * | / | = | > | < | and | or   (plus the convenience
///           operators %, !=, <=, >=, <<, >>, &, used by real formats)
///   ref ::= id | A.id | A(e).id | EOI | A.start | A.end
///
/// plus two full-language extensions from the paper:
///   * existentials  "exists j . e1 ? e2 : e3"  (Section 3.4), and
///   * the specialized integer reader "btoi" and fixed-width variants
///     u8/u16le/... (Section 7 replaces the grammar-level Int rule with a
///     builtin for performance).
///
/// Expressions are immutable and shared (ExprPtr); all values are int64.
///
//===----------------------------------------------------------------------===//

#ifndef IPG_EXPR_EXPR_H
#define IPG_EXPR_EXPR_H

#include "support/Casting.h"
#include "support/Interner.h"

#include <cstdint>
#include <memory>
#include <string>
#include <utility>

namespace ipg {

class Expr;
using ExprPtr = std::shared_ptr<const Expr>;

enum class BinOpKind {
  Add,
  Sub,
  Mul,
  Div,
  Mod,
  Eq,
  Ne,
  Lt,
  Gt,
  Le,
  Ge,
  And,
  Or,
  Shl,
  Shr,
  BitAnd,
};

/// Spelling of \p Op in the surface syntax.
const char *binOpSpelling(BinOpKind Op);

enum class RefKind {
  /// A bare identifier: an attribute defined in the same alternative, or a
  /// loop variable in scope.
  Attr,
  /// `A.id` — attribute id of sibling nonterminal A. The special attributes
  /// `start` and `end` are ordinary symbols here.
  NtAttr,
  /// `A(e).id` — attribute id of element e of a sibling array of A's.
  NtElemAttr,
  /// `EOI` — length of the current local input.
  Eoi,
  /// Internal: "one past the input touched by term #k of this alternative".
  /// Produced only by implicit-interval auto-completion (Section 3.4); it
  /// is how "the end of the last term" is referenced without relying on
  /// nonterminal names being unique within an alternative.
  TermEnd,
};

/// Builtin input readers (full-language extension, paper Section 7's btoi).
enum class ReadKind {
  U8,
  U16Le,
  U32Le,
  U64Le,
  U16Be,
  U32Be,
  /// btoi(lo, hi): little-endian unsigned integer over bytes [lo, hi) of the
  /// current local input; hi - lo must be in [1, 8].
  BtoiLe,
  /// btoibe(lo, hi): big-endian variant.
  BtoiBe,
};

/// Base of the expression hierarchy; LLVM-style RTTI via kind()/classof.
class Expr {
public:
  enum class Kind { Num, Binary, Cond, Ref, Exists, Read };

  Kind kind() const { return K; }
  virtual ~Expr();

  /// Renders this expression in the surface syntax.
  std::string str(const StringInterner &Names) const;

protected:
  explicit Expr(Kind K) : K(K) {}

private:
  Kind K;
};

/// A natural-number literal.
class NumExpr : public Expr {
public:
  static ExprPtr create(int64_t Value) {
    return std::make_shared<NumExpr>(Value);
  }
  explicit NumExpr(int64_t Value) : Expr(Kind::Num), Value(Value) {}
  static bool classof(const Expr *E) { return E->kind() == Kind::Num; }

  int64_t value() const { return Value; }

private:
  int64_t Value;
};

/// A binary operation `e1 bop e2`.
class BinaryExpr : public Expr {
public:
  static ExprPtr create(BinOpKind Op, ExprPtr LHS, ExprPtr RHS) {
    return std::make_shared<BinaryExpr>(Op, std::move(LHS), std::move(RHS));
  }
  BinaryExpr(BinOpKind Op, ExprPtr LHS, ExprPtr RHS)
      : Expr(Kind::Binary), Op(Op), LHS(std::move(LHS)), RHS(std::move(RHS)) {}
  static bool classof(const Expr *E) { return E->kind() == Kind::Binary; }

  BinOpKind op() const { return Op; }
  const ExprPtr &lhs() const { return LHS; }
  const ExprPtr &rhs() const { return RHS; }

private:
  BinOpKind Op;
  ExprPtr LHS, RHS;
};

/// The ternary conditional `e1 ? e2 : e3`.
class CondExpr : public Expr {
public:
  static ExprPtr create(ExprPtr Cond, ExprPtr Then, ExprPtr Else) {
    return std::make_shared<CondExpr>(std::move(Cond), std::move(Then),
                                      std::move(Else));
  }
  CondExpr(ExprPtr Cond, ExprPtr Then, ExprPtr Else)
      : Expr(Kind::Cond), Cond(std::move(Cond)), Then(std::move(Then)),
        Else(std::move(Else)) {}
  static bool classof(const Expr *E) { return E->kind() == Kind::Cond; }

  const ExprPtr &cond() const { return Cond; }
  const ExprPtr &thenExpr() const { return Then; }
  const ExprPtr &elseExpr() const { return Else; }

private:
  ExprPtr Cond, Then, Else;
};

/// An attribute reference (all six forms of Figure 5, plus TermEnd).
class RefExpr : public Expr {
public:
  /// Bare identifier reference.
  static ExprPtr attr(Symbol Id) {
    return std::make_shared<RefExpr>(RefKind::Attr, InvalidSymbol, Id,
                                     nullptr, 0);
  }
  /// `NT.Attr` reference.
  static ExprPtr ntAttr(Symbol NT, Symbol Attr) {
    return std::make_shared<RefExpr>(RefKind::NtAttr, NT, Attr, nullptr, 0);
  }
  /// `NT(Index).Attr` reference.
  static ExprPtr ntElemAttr(Symbol NT, ExprPtr Index, Symbol Attr) {
    return std::make_shared<RefExpr>(RefKind::NtElemAttr, NT, Attr,
                                     std::move(Index), 0);
  }
  static ExprPtr eoi() {
    return std::make_shared<RefExpr>(RefKind::Eoi, InvalidSymbol,
                                     InvalidSymbol, nullptr, 0);
  }
  static ExprPtr termEnd(uint32_t TermIdx) {
    return std::make_shared<RefExpr>(RefKind::TermEnd, InvalidSymbol,
                                     InvalidSymbol, nullptr, TermIdx);
  }

  RefExpr(RefKind RK, Symbol NT, Symbol Attr, ExprPtr Index, uint32_t TermIdx)
      : Expr(Kind::Ref), RK(RK), NT(NT), Attr(Attr), Index(std::move(Index)),
        TermIdx(TermIdx) {}
  static bool classof(const Expr *E) { return E->kind() == Kind::Ref; }

  RefKind refKind() const { return RK; }
  Symbol nt() const { return NT; }
  Symbol attrName() const { return Attr; }
  const ExprPtr &index() const { return Index; }
  uint32_t termIndex() const { return TermIdx; }

private:
  RefKind RK;
  Symbol NT;
  Symbol Attr;
  ExprPtr Index;
  uint32_t TermIdx;
};

/// `exists j . Cond ? Then : Else` — scans the array referred to in Cond for
/// the first index j making Cond nonzero (Section 3.4).
class ExistsExpr : public Expr {
public:
  static ExprPtr create(Symbol LoopVar, ExprPtr Cond, ExprPtr Then,
                        ExprPtr Else) {
    return std::make_shared<ExistsExpr>(LoopVar, std::move(Cond),
                                        std::move(Then), std::move(Else));
  }
  ExistsExpr(Symbol LoopVar, ExprPtr Cond, ExprPtr Then, ExprPtr Else)
      : Expr(Kind::Exists), LoopVar(LoopVar), Cond(std::move(Cond)),
        Then(std::move(Then)), Else(std::move(Else)) {}
  static bool classof(const Expr *E) { return E->kind() == Kind::Exists; }

  Symbol loopVar() const { return LoopVar; }
  const ExprPtr &cond() const { return Cond; }
  const ExprPtr &thenExpr() const { return Then; }
  const ExprPtr &elseExpr() const { return Else; }

private:
  Symbol LoopVar;
  ExprPtr Cond, Then, Else;
};

/// Builtin reader over the current local input (btoi and friends).
class ReadExpr : public Expr {
public:
  /// Fixed-width read at offset \p Off.
  static ExprPtr fixed(ReadKind RK, ExprPtr Off) {
    return std::make_shared<ReadExpr>(RK, std::move(Off), nullptr);
  }
  /// btoi-style read over [Lo, Hi).
  static ExprPtr btoi(ReadKind RK, ExprPtr Lo, ExprPtr Hi) {
    return std::make_shared<ReadExpr>(RK, std::move(Lo), std::move(Hi));
  }
  ReadExpr(ReadKind RK, ExprPtr Lo, ExprPtr Hi)
      : Expr(Kind::Read), RK(RK), Lo(std::move(Lo)), Hi(std::move(Hi)) {}
  static bool classof(const Expr *E) { return E->kind() == Kind::Read; }

  ReadKind readKind() const { return RK; }
  const ExprPtr &lo() const { return Lo; }
  const ExprPtr &hi() const { return Hi; }

private:
  ReadKind RK;
  ExprPtr Lo, Hi;
};

/// Pre-order walk over \p E and all subexpressions. A template, so a
/// capturing visitor costs no std::function allocation.
template <typename Fn> void forEachExpr(const Expr &E, Fn &&Visit) {
  Visit(E);
  switch (E.kind()) {
  case Expr::Kind::Num:
    break;
  case Expr::Kind::Binary: {
    const auto &B = *cast<BinaryExpr>(&E);
    forEachExpr(*B.lhs(), Visit);
    forEachExpr(*B.rhs(), Visit);
    break;
  }
  case Expr::Kind::Cond: {
    const auto &C = *cast<CondExpr>(&E);
    forEachExpr(*C.cond(), Visit);
    forEachExpr(*C.thenExpr(), Visit);
    forEachExpr(*C.elseExpr(), Visit);
    break;
  }
  case Expr::Kind::Ref: {
    const auto &R = *cast<RefExpr>(&E);
    if (R.index())
      forEachExpr(*R.index(), Visit);
    break;
  }
  case Expr::Kind::Exists: {
    const auto &X = *cast<ExistsExpr>(&E);
    forEachExpr(*X.cond(), Visit);
    forEachExpr(*X.thenExpr(), Visit);
    forEachExpr(*X.elseExpr(), Visit);
    break;
  }
  case Expr::Kind::Read: {
    const auto &R = *cast<ReadExpr>(&E);
    forEachExpr(*R.lo(), Visit);
    if (R.hi())
      forEachExpr(*R.hi(), Visit);
    break;
  }
  }
}

} // namespace ipg

#endif // IPG_EXPR_EXPR_H
