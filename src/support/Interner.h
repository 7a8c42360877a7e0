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
#include <memory>
#include <string_view>
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
  StringInterner();

  /// Returns the Symbol for \p Name, creating it on first use.
  Symbol intern(std::string_view Name);

  /// Returns the Symbol for \p Name, or InvalidSymbol if never interned.
  Symbol lookup(std::string_view Name) const;

  /// The spelling of \p S. \p S must be a symbol from this interner. The
  /// view stays valid for the interner's lifetime.
  std::string_view name(Symbol S) const { return Names.at(S); }

  /// Number of interned symbols, including the reserved invalid slot.
  size_t size() const { return Names.size(); }

private:
  /// Spellings, packed into blocks that never move once allocated.
  std::vector<std::unique_ptr<char[]>> Blocks;
  char *BlockNext = nullptr; ///< first unused byte of Blocks.back()
  size_t BlockFree = 0;      ///< unused bytes from BlockNext on
  std::vector<std::string_view> Names;
  /// Open-addressing hash index over Names: a Symbol per slot, 0 marks an
  /// empty slot. Its size is a power of two, kept at most half full.
  std::vector<Symbol> Slots;

  /// The slot holding \p Name, or the empty slot where it would go.
  size_t slotOf(std::string_view Name) const;
};

} // namespace ipg

#endif // IPG_SUPPORT_INTERNER_H
