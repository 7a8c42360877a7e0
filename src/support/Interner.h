//===- support/Interner.h - String interning --------------------*- C++ -*-===//
//
// Part of the IPG reproduction of "Interval Parsing Grammars for File Format
// Parsing" (PLDI 2023). MIT license.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Nonterminal and attribute names are interned to small integer Symbols so
/// environments and memo tables can use flat arrays and integer compares.
///
//===----------------------------------------------------------------------===//

#ifndef IPG_SUPPORT_INTERNER_H
#define IPG_SUPPORT_INTERNER_H

#include "support/GenRuntime.h"

#include <cstddef>
#include <cstdint>
#include <string>
#include <string_view>
#include <unordered_map>
#include <vector>

namespace ipg {

/// An interned identifier (the ipg_rt::Symbol every tree carries). Symbol
/// 0 is reserved as the invalid symbol.
using ipg_rt::InvalidSymbol;
using ipg_rt::Symbol;

/// Bidirectional name <-> Symbol table. Owned by a Grammar; all Symbols in
/// one grammar refer to its interner.
class StringInterner {
public:
  StringInterner() { Names.emplace_back("<invalid>"); }

  /// Returns the Symbol for \p Name, creating it on first use.
  Symbol intern(std::string_view Name);

  /// Returns the Symbol for \p Name, or InvalidSymbol if never interned.
  Symbol lookup(std::string_view Name) const;

  /// The spelling of \p S. \p S must be a symbol from this interner.
  std::string_view name(Symbol S) const { return Names.at(S); }

  /// Number of interned symbols, including the reserved invalid slot.
  size_t size() const { return Names.size(); }

private:
  std::vector<std::string> Names;
  std::unordered_map<std::string, Symbol> Ids;
};

} // namespace ipg

#endif // IPG_SUPPORT_INTERNER_H
