//===- frontend/Lexer.cpp -------------------------------------------------===//
//
// Part of the IPG reproduction of "Interval Parsing Grammars for File Format
// Parsing" (PLDI 2023). MIT license.
//
//===----------------------------------------------------------------------===//

#include "frontend/Lexer.h"

#include <cstddef>
#include <cstdint>
#include <string>
#include <string_view>
#include <utility>
#include <vector>

using namespace ipg;

const char *ipg::tokKindName(TokKind K) {
  switch (K) {
  case TokKind::Eof:
    return "end of input";
  case TokKind::Ident:
    return "identifier";
  case TokKind::Number:
    return "number";
  case TokKind::String:
    return "string";
  case TokKind::Arrow:
    return "'->'";
  case TokKind::LBracket:
    return "'['";
  case TokKind::RBracket:
    return "']'";
  case TokKind::LBrace:
    return "'{'";
  case TokKind::RBrace:
    return "'}'";
  case TokKind::LParen:
    return "'('";
  case TokKind::RParen:
    return "')'";
  case TokKind::Comma:
    return "','";
  case TokKind::Semi:
    return "';'";
  case TokKind::Slash:
    return "'/'";
  case TokKind::Colon:
    return "':'";
  case TokKind::Question:
    return "'?'";
  case TokKind::Dot:
    return "'.'";
  case TokKind::Assign:
    return "'='";
  case TokKind::EqEq:
    return "'=='";
  case TokKind::Neq:
    return "'!='";
  case TokKind::Lt:
    return "'<'";
  case TokKind::Gt:
    return "'>'";
  case TokKind::Le:
    return "'<='";
  case TokKind::Ge:
    return "'>='";
  case TokKind::AndAnd:
    return "'&&'";
  case TokKind::OrOr:
    return "'||'";
  case TokKind::Amp:
    return "'&'";
  case TokKind::Plus:
    return "'+'";
  case TokKind::Minus:
    return "'-'";
  case TokKind::Star:
    return "'*'";
  case TokKind::Percent:
    return "'%'";
  case TokKind::Shl:
    return "'<<'";
  case TokKind::Shr:
    return "'>>'";
  case TokKind::KwFor:
    return "'for'";
  case TokKind::KwTo:
    return "'to'";
  case TokKind::KwDo:
    return "'do'";
  case TokKind::KwWhere:
    return "'where'";
  case TokKind::KwSwitch:
    return "'switch'";
  case TokKind::KwCheck:
    return "'check'";
  case TokKind::KwExists:
    return "'exists'";
  case TokKind::KwRaw:
    return "'raw'";
  }
  return "?";
}

namespace {

// ASCII character classes: grammar text is ASCII, and these agree with the
// <cctype> predicates in the "C" locale without their per-call cost.
bool isDigit(char C) { return C >= '0' && C <= '9'; }
bool isHexDigit(char C) {
  return isDigit(C) || (C >= 'a' && C <= 'f') || (C >= 'A' && C <= 'F');
}
bool isAlpha(char C) {
  return (C >= 'a' && C <= 'z') || (C >= 'A' && C <= 'Z');
}
bool isIdentChar(char C) { return isAlpha(C) || isDigit(C) || C == '_'; }
int hexValue(char C) {
  return C <= '9' ? C - '0' : (C | 0x20) - 'a' + 10;
}

TokKind keywordOrIdent(std::string_view Name) {
  static constexpr std::pair<std::string_view, TokKind> Keywords[] = {
      {"for", TokKind::KwFor},       {"to", TokKind::KwTo},
      {"do", TokKind::KwDo},         {"where", TokKind::KwWhere},
      {"switch", TokKind::KwSwitch}, {"check", TokKind::KwCheck},
      {"exists", TokKind::KwExists}, {"raw", TokKind::KwRaw},
  };
  for (const auto &[Spelling, Kind] : Keywords)
    if (Name == Spelling)
      return Kind;
  return TokKind::Ident;
}

class Lexer {
public:
  explicit Lexer(std::string_view Src) : Src(Src) {}

  Expected<std::vector<Token>> run();

private:
  std::string_view Src;
  size_t Pos = 0;
  uint32_t Line = 1;
  uint32_t Col = 1;

  bool atEnd() const { return Pos >= Src.size(); }
  char peek(size_t Ahead = 0) const {
    return Pos + Ahead < Src.size() ? Src[Pos + Ahead] : '\0';
  }
  char advance() {
    char C = Src[Pos++];
    if (C == '\n') {
      ++Line;
      Col = 1;
    } else {
      ++Col;
    }
    return C;
  }

  // Each fills in the token run() placed at the end of the vector.
  Error skipTrivia();
  Error lexString(Token &Tok);
  void lexNumber(Token &Tok);
  void lexIdent(Token &Tok);

  std::string located(const std::string &Msg) const {
    return "line " + std::to_string(Line) + ":" + std::to_string(Col) + ": " +
           Msg;
  }
};

} // namespace

Error Lexer::skipTrivia() {
  for (;;) {
    if (atEnd())
      return Error::success();
    char C = peek();
    if (C == ' ' || C == '\t' || C == '\r' || C == '\n') {
      advance();
      continue;
    }
    if (C == '/' && peek(1) == '/') {
      while (!atEnd() && peek() != '\n')
        advance();
      continue;
    }
    if (C == '/' && peek(1) == '*') {
      advance();
      advance();
      while (!atEnd() && !(peek() == '*' && peek(1) == '/'))
        advance();
      if (atEnd())
        return Error::failure(located("unterminated block comment"));
      advance();
      advance();
      continue;
    }
    return Error::success();
  }
}

Error Lexer::lexString(Token &Tok) {
  Tok.Kind = TokKind::String;
  advance(); // opening quote
  std::string Bytes;
  for (;;) {
    if (atEnd())
      return Error::failure(located("unterminated string literal"));
    char C = advance();
    if (C == '"')
      break;
    if (C != '\\') {
      Bytes += C;
      continue;
    }
    if (atEnd())
      return Error::failure(located("unterminated escape"));
    char E = advance();
    switch (E) {
    case 'n':
      Bytes += '\n';
      break;
    case 'r':
      Bytes += '\r';
      break;
    case 't':
      Bytes += '\t';
      break;
    case '0':
      Bytes += '\0';
      break;
    case '\\':
    case '"':
      Bytes += E;
      break;
    case 'x': {
      if (Pos + 1 >= Src.size() || !isHexDigit(peek()) ||
          !isHexDigit(peek(1)))
        return Error::failure(located("\\x escape requires two hex digits"));
      char Hi = advance(), LoC = advance();
      Bytes += static_cast<char>(hexValue(Hi) * 16 + hexValue(LoC));
      break;
    }
    default:
      return Error::failure(
          located(std::string("unknown escape '\\") + E + "'"));
    }
  }
  Tok.Text = std::move(Bytes);
  return Error::success();
}

void Lexer::lexNumber(Token &Tok) {
  Tok.Kind = TokKind::Number;
  int64_t V = 0;
  if (peek() == '0' && (peek(1) == 'x' || peek(1) == 'X')) {
    advance();
    advance();
    while (isHexDigit(peek()))
      V = V * 16 + hexValue(advance());
  } else {
    while (isDigit(peek()))
      V = V * 10 + (advance() - '0');
  }
  Tok.Number = V;
}

void Lexer::lexIdent(Token &Tok) {
  size_t End = Pos;
  while (End < Src.size() && isIdentChar(Src[End]))
    ++End;
  std::string_view Name = Src.substr(Pos, End - Pos);
  Col += static_cast<uint32_t>(Name.size()); // identifiers hold no newline
  Pos = End;
  Tok.Kind = keywordOrIdent(Name);
  Tok.Text = Name;
}

Expected<std::vector<Token>> Lexer::run() {
  std::vector<Token> Toks;
  Toks.reserve(Src.size() / 2 + 1); // grammar text averages ~3 bytes/token
  for (;;) {
    if (Error E = skipTrivia())
      return Expected<std::vector<Token>>(std::move(E));
    Token &Tok = Toks.emplace_back();
    Tok.Line = Line;
    Tok.Col = Col;
    if (atEnd())
      return Toks; // Tok is the Eof token
    char C = peek();
    if (C == '"') {
      if (Error E = lexString(Tok))
        return Expected<std::vector<Token>>(std::move(E));
      continue;
    }
    if (isDigit(C)) {
      lexNumber(Tok);
      continue;
    }
    if (isAlpha(C) || C == '_') {
      lexIdent(Tok);
      continue;
    }

    auto Two = [&](char Second, TokKind Long, TokKind Short) {
      advance();
      if (peek() == Second) {
        advance();
        Tok.Kind = Long;
      } else {
        Tok.Kind = Short;
      }
    };

    switch (C) {
    case '-':
      advance();
      if (peek() == '>') {
        advance();
        Tok.Kind = TokKind::Arrow;
      } else {
        Tok.Kind = TokKind::Minus;
      }
      break;
    case '[':
      advance();
      Tok.Kind = TokKind::LBracket;
      break;
    case ']':
      advance();
      Tok.Kind = TokKind::RBracket;
      break;
    case '{':
      advance();
      Tok.Kind = TokKind::LBrace;
      break;
    case '}':
      advance();
      Tok.Kind = TokKind::RBrace;
      break;
    case '(':
      advance();
      Tok.Kind = TokKind::LParen;
      break;
    case ')':
      advance();
      Tok.Kind = TokKind::RParen;
      break;
    case ',':
      advance();
      Tok.Kind = TokKind::Comma;
      break;
    case ';':
      advance();
      Tok.Kind = TokKind::Semi;
      break;
    case '/':
      advance();
      Tok.Kind = TokKind::Slash;
      break;
    case ':':
      advance();
      Tok.Kind = TokKind::Colon;
      break;
    case '?':
      advance();
      Tok.Kind = TokKind::Question;
      break;
    case '.':
      advance();
      Tok.Kind = TokKind::Dot;
      break;
    case '=':
      Two('=', TokKind::EqEq, TokKind::Assign);
      break;
    case '!':
      advance();
      if (peek() == '=') {
        advance();
        Tok.Kind = TokKind::Neq;
        break;
      }
      return Expected<std::vector<Token>>::failure(
          located("stray '!' (did you mean '!='?)"));
    case '<':
      advance();
      if (peek() == '<') {
        advance();
        Tok.Kind = TokKind::Shl;
      } else if (peek() == '=') {
        advance();
        Tok.Kind = TokKind::Le;
      } else {
        Tok.Kind = TokKind::Lt;
      }
      break;
    case '>':
      advance();
      if (peek() == '>') {
        advance();
        Tok.Kind = TokKind::Shr;
      } else if (peek() == '=') {
        advance();
        Tok.Kind = TokKind::Ge;
      } else {
        Tok.Kind = TokKind::Gt;
      }
      break;
    case '&':
      Two('&', TokKind::AndAnd, TokKind::Amp);
      break;
    case '|':
      advance();
      if (peek() == '|') {
        advance();
        Tok.Kind = TokKind::OrOr;
        break;
      }
      return Expected<std::vector<Token>>::failure(
          located("stray '|' (did you mean '||'?)"));
    case '+':
      advance();
      Tok.Kind = TokKind::Plus;
      break;
    case '*':
      advance();
      Tok.Kind = TokKind::Star;
      break;
    case '%':
      advance();
      Tok.Kind = TokKind::Percent;
      break;
    default:
      return Expected<std::vector<Token>>::failure(
          located(std::string("unexpected character '") + C + "'"));
    }
  }
}

Expected<std::vector<Token>> ipg::tokenize(std::string_view Src) {
  return Lexer(Src).run();
}
