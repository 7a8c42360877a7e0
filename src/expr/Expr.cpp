//===- expr/Expr.cpp ------------------------------------------------------===//
//
// Part of the IPG reproduction of "Interval Parsing Grammars for File Format
// Parsing" (PLDI 2023). MIT license.
//
//===----------------------------------------------------------------------===//

#include "expr/Expr.h"

#include "support/Casting.h"

#include <string>

using namespace ipg;

Expr::~Expr() = default;

const char *ipg::binOpSpelling(BinOpKind Op) {
  switch (Op) {
  case BinOpKind::Add:
    return "+";
  case BinOpKind::Sub:
    return "-";
  case BinOpKind::Mul:
    return "*";
  case BinOpKind::Div:
    return "/";
  case BinOpKind::Mod:
    return "%";
  case BinOpKind::Eq:
    return "=";
  case BinOpKind::Ne:
    return "!=";
  case BinOpKind::Lt:
    return "<";
  case BinOpKind::Gt:
    return ">";
  case BinOpKind::Le:
    return "<=";
  case BinOpKind::Ge:
    return ">=";
  case BinOpKind::And:
    return "&&";
  case BinOpKind::Or:
    return "||";
  case BinOpKind::Shl:
    return "<<";
  case BinOpKind::Shr:
    return ">>";
  case BinOpKind::BitAnd:
    return "&";
  }
  return "?";
}

static const char *readSpelling(ReadKind RK) {
  switch (RK) {
  case ReadKind::U8:
    return "u8";
  case ReadKind::U16Le:
    return "u16le";
  case ReadKind::U32Le:
    return "u32le";
  case ReadKind::U64Le:
    return "u64le";
  case ReadKind::U16Be:
    return "u16be";
  case ReadKind::U32Be:
    return "u32be";
  case ReadKind::BtoiLe:
    return "btoi";
  case ReadKind::BtoiBe:
    return "btoibe";
  }
  return "?";
}

std::string Expr::str(const StringInterner &Names) const {
  switch (K) {
  case Kind::Num:
    return std::to_string(cast<NumExpr>(this)->value());
  case Kind::Binary: {
    const auto *B = cast<BinaryExpr>(this);
    std::string S = "(";
    S += B->lhs()->str(Names);
    S += ' ';
    S += binOpSpelling(B->op());
    S += ' ';
    S += B->rhs()->str(Names);
    S += ')';
    return S;
  }
  case Kind::Cond: {
    const auto *C = cast<CondExpr>(this);
    std::string S = "(";
    S += C->cond()->str(Names);
    S += " ? ";
    S += C->thenExpr()->str(Names);
    S += " : ";
    S += C->elseExpr()->str(Names);
    S += ')';
    return S;
  }
  case Kind::Ref: {
    const auto *R = cast<RefExpr>(this);
    switch (R->refKind()) {
    case RefKind::Attr:
      return std::string(Names.name(R->attrName()));
    case RefKind::NtAttr:
      return std::string(Names.name(R->nt())) + "." +
             std::string(Names.name(R->attrName()));
    case RefKind::NtElemAttr:
      return std::string(Names.name(R->nt())) + "(" +
             R->index()->str(Names) + ")." +
             std::string(Names.name(R->attrName()));
    case RefKind::Eoi:
      return "EOI";
    case RefKind::TermEnd:
      return "@end(" + std::to_string(R->termIndex()) + ")";
    }
    return "?";
  }
  case Kind::Exists: {
    const auto *E = cast<ExistsExpr>(this);
    return "(exists " + std::string(Names.name(E->loopVar())) + " . " +
           E->cond()->str(Names) + " ? " + E->thenExpr()->str(Names) + " : " +
           E->elseExpr()->str(Names) + ")";
  }
  case Kind::Read: {
    const auto *R = cast<ReadExpr>(this);
    std::string S = std::string(readSpelling(R->readKind())) + "(" +
                    R->lo()->str(Names);
    if (R->hi())
      S += ", " + R->hi()->str(Names);
    return S + ")";
  }
  }
  return "?";
}
