//===- expr/Eval.cpp ------------------------------------------------------===//
//
// Part of the IPG reproduction of "Interval Parsing Grammars for File Format
// Parsing" (PLDI 2023). MIT license.
//
//===----------------------------------------------------------------------===//

#include "expr/Eval.h"

#include "support/Casting.h"
#include "support/GenRuntime.h"

#include <cstdint>
#include <optional>

using namespace ipg;

EvalContext::~EvalContext() = default;

namespace {

/// Context wrapper that binds one extra identifier (the exists loop var).
class ScopedBinding : public EvalContext {
public:
  ScopedBinding(const EvalContext &Inner, Symbol Var, int64_t Value)
      : Inner(Inner), Var(Var), Value(Value) {}

  std::optional<int64_t> attr(Symbol Id) const override {
    if (Id == Var)
      return Value;
    return Inner.attr(Id);
  }
  std::optional<int64_t> ntAttr(Symbol NT, Symbol Attr) const override {
    return Inner.ntAttr(NT, Attr);
  }
  std::optional<int64_t> elemAttr(Symbol NT, int64_t Index,
                                  Symbol Attr) const override {
    return Inner.elemAttr(NT, Index, Attr);
  }
  std::optional<int64_t> arrayLength(Symbol NT) const override {
    return Inner.arrayLength(NT);
  }
  std::optional<int64_t> eoi() const override { return Inner.eoi(); }
  std::optional<int64_t> termEnd(uint32_t TermIdx) const override {
    return Inner.termEnd(TermIdx);
  }
  std::optional<int64_t> readInput(ReadKind RK, int64_t Lo,
                                   int64_t Hi) const override {
    return Inner.readInput(RK, Lo, Hi);
  }

private:
  const EvalContext &Inner;
  Symbol Var;
  int64_t Value;
};

} // namespace

static std::optional<int64_t> evalBinary(const BinaryExpr &B,
                                         const EvalContext &Ctx) {
  // Logical operators short-circuit; everything else is strict.
  if (B.op() == BinOpKind::And) {
    auto L = evaluate(*B.lhs(), Ctx);
    if (!L)
      return std::nullopt;
    if (*L == 0)
      return 0;
    auto R = evaluate(*B.rhs(), Ctx);
    if (!R)
      return std::nullopt;
    return *R != 0 ? 1 : 0;
  }
  if (B.op() == BinOpKind::Or) {
    auto L = evaluate(*B.lhs(), Ctx);
    if (!L)
      return std::nullopt;
    if (*L != 0)
      return 1;
    auto R = evaluate(*B.rhs(), Ctx);
    if (!R)
      return std::nullopt;
    return *R != 0 ? 1 : 0;
  }

  auto L = evaluate(*B.lhs(), Ctx);
  auto R = evaluate(*B.rhs(), Ctx);
  if (!L || !R)
    return std::nullopt;
  // Guarded operators go through the semantic core shared with generated
  // parsers (support/GenRuntime.h).
  long long Guarded = 0;
  switch (B.op()) {
  case BinOpKind::Add:
    return ipg_rt::wrapAdd(*L, *R);
  case BinOpKind::Sub:
    return ipg_rt::wrapSub(*L, *R);
  case BinOpKind::Mul:
    return ipg_rt::wrapMul(*L, *R);
  case BinOpKind::Div:
    if (!ipg_rt::checkedDiv(*L, *R, Guarded))
      return std::nullopt;
    return Guarded;
  case BinOpKind::Mod:
    if (!ipg_rt::checkedMod(*L, *R, Guarded))
      return std::nullopt;
    return Guarded;
  case BinOpKind::Eq:
    return *L == *R ? 1 : 0;
  case BinOpKind::Ne:
    return *L != *R ? 1 : 0;
  case BinOpKind::Lt:
    return *L < *R ? 1 : 0;
  case BinOpKind::Gt:
    return *L > *R ? 1 : 0;
  case BinOpKind::Le:
    return *L <= *R ? 1 : 0;
  case BinOpKind::Ge:
    return *L >= *R ? 1 : 0;
  case BinOpKind::Shl:
    if (!ipg_rt::checkedShl(*L, *R, Guarded))
      return std::nullopt;
    return Guarded;
  case BinOpKind::Shr:
    if (!ipg_rt::checkedShr(*L, *R, Guarded))
      return std::nullopt;
    return Guarded;
  case BinOpKind::BitAnd:
    return *L & *R;
  case BinOpKind::And:
  case BinOpKind::Or:
    break; // handled above
  }
  return std::nullopt;
}

Symbol ipg::findScannedArray(const Expr &Cond, Symbol Var) {
  Symbol Found = InvalidSymbol;
  forEachExpr(Cond, [&](const Expr &E) {
    if (Found != InvalidSymbol)
      return;
    const auto *R = dyn_cast<RefExpr>(&E);
    if (!R || R->refKind() != RefKind::NtElemAttr || !R->index())
      return;
    const auto *Idx = dyn_cast<RefExpr>(R->index().get());
    if (Idx && Idx->refKind() == RefKind::Attr && Idx->attrName() == Var)
      Found = R->nt();
  });
  return Found;
}

static std::optional<int64_t> evalExists(const ExistsExpr &X,
                                         const EvalContext &Ctx) {
  Symbol ArrayNT = findScannedArray(*X.cond(), X.loopVar());
  if (ArrayNT == InvalidSymbol)
    return std::nullopt;
  auto Len = Ctx.arrayLength(ArrayNT);
  if (!Len)
    return std::nullopt;
  for (int64_t K = 0; K < *Len; ++K) {
    ScopedBinding Bound(Ctx, X.loopVar(), K);
    auto C = evaluate(*X.cond(), Bound);
    if (!C)
      return std::nullopt;
    if (*C != 0)
      return evaluate(*X.thenExpr(), Bound);
  }
  return evaluate(*X.elseExpr(), Ctx);
}

std::optional<int64_t> ipg::evaluate(const Expr &E, const EvalContext &Ctx) {
  switch (E.kind()) {
  case Expr::Kind::Num:
    return cast<NumExpr>(&E)->value();
  case Expr::Kind::Binary:
    return evalBinary(*cast<BinaryExpr>(&E), Ctx);
  case Expr::Kind::Cond: {
    const auto &C = *cast<CondExpr>(&E);
    auto Cond = evaluate(*C.cond(), Ctx);
    if (!Cond)
      return std::nullopt;
    return evaluate(*Cond != 0 ? *C.thenExpr() : *C.elseExpr(), Ctx);
  }
  case Expr::Kind::Ref: {
    const auto &R = *cast<RefExpr>(&E);
    switch (R.refKind()) {
    case RefKind::Attr:
      return Ctx.attr(R.attrName());
    case RefKind::NtAttr:
      return Ctx.ntAttr(R.nt(), R.attrName());
    case RefKind::NtElemAttr: {
      auto Idx = evaluate(*R.index(), Ctx);
      if (!Idx)
        return std::nullopt;
      return Ctx.elemAttr(R.nt(), *Idx, R.attrName());
    }
    case RefKind::Eoi:
      return Ctx.eoi();
    case RefKind::TermEnd:
      return Ctx.termEnd(R.termIndex());
    }
    return std::nullopt;
  }
  case Expr::Kind::Exists:
    return evalExists(*cast<ExistsExpr>(&E), Ctx);
  case Expr::Kind::Read: {
    const auto &R = *cast<ReadExpr>(&E);
    auto Lo = evaluate(*R.lo(), Ctx);
    if (!Lo)
      return std::nullopt;
    int64_t Hi = 0;
    if (R.hi()) {
      auto H = evaluate(*R.hi(), Ctx);
      if (!H)
        return std::nullopt;
      Hi = *H;
    }
    return Ctx.readInput(R.readKind(), *Lo, Hi);
  }
  }
  return std::nullopt;
}
