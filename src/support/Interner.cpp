//===- support/Interner.cpp -----------------------------------------------===//
//
// Part of the IPG reproduction of "Interval Parsing Grammars for File Format
// Parsing" (PLDI 2023). MIT license.
//
//===----------------------------------------------------------------------===//

#include "support/Interner.h"

#include <algorithm>
#include <cstdint>
#include <string_view>

using namespace ipg;

namespace {
constexpr size_t BlockBytes = 1024;
constexpr size_t MinSlots = 64;

size_t hashName(std::string_view Name) {
  uint64_t H = 1469598103934665603ull; // FNV-1a
  for (unsigned char C : Name) {
    H ^= C;
    H *= 1099511628211ull;
  }
  return static_cast<size_t>(H ^ (H >> 32));
}
} // namespace

StringInterner::StringInterner() : Slots(MinSlots, InvalidSymbol) {
  Names.emplace_back("<invalid>");
}

size_t StringInterner::slotOf(std::string_view Name) const {
  const size_t Mask = Slots.size() - 1;
  for (size_t I = hashName(Name) & Mask;; I = (I + 1) & Mask)
    if (Slots[I] == InvalidSymbol || Names[Slots[I]] == Name)
      return I;
}

Symbol StringInterner::intern(std::string_view Name) {
  size_t Slot = slotOf(Name);
  if (Slots[Slot] != InvalidSymbol)
    return Slots[Slot];

  if (Name.size() > BlockFree) {
    size_t Bytes = std::max(Name.size(), BlockBytes);
    Blocks.emplace_back(new char[Bytes]);
    BlockNext = Blocks.back().get();
    BlockFree = Bytes;
  }
  char *Copy = BlockNext;
  std::copy(Name.begin(), Name.end(), Copy);
  BlockNext += Name.size();
  BlockFree -= Name.size();

  Symbol S = static_cast<Symbol>(Names.size());
  Names.emplace_back(Copy, Name.size());
  Slots[Slot] = S;
  if (2 * Names.size() > Slots.size()) {
    // Rehash into twice the slots; every spelling is already unique.
    std::vector<Symbol> Old(Slots.size() * 2, InvalidSymbol);
    Old.swap(Slots);
    for (Symbol Live : Old)
      if (Live != InvalidSymbol)
        Slots[slotOf(Names[Live])] = Live;
  }
  return S;
}

Symbol StringInterner::lookup(std::string_view Name) const {
  return Slots[slotOf(Name)];
}
