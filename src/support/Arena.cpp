//===- support/Arena.cpp --------------------------------------------------===//
//
// Part of the IPG reproduction of "Interval Parsing Grammars for File Format
// Parsing" (PLDI 2023). MIT license.
//
//===----------------------------------------------------------------------===//

#include "support/Arena.h"

#include <cstddef>
#include <cstdint>
#include <memory>
#include <utility>

using namespace ipg;

void *Arena::refill(size_t Bytes, size_t Align) {
  auto bumpIn = [&](size_t I) -> void * {
    Block &B = Blocks[I];
    const uintptr_t Base = reinterpret_cast<uintptr_t>(B.Memory.get());
    const uintptr_t P = (Base + Align - 1) & ~static_cast<uintptr_t>(Align - 1);
    if (P + Bytes > Base + B.Size)
      return nullptr;
    Current = I;
    Cur = reinterpret_cast<uint8_t *>(P + Bytes);
    End = B.Memory.get() + B.Size;
    return reinterpret_cast<void *>(P);
  };
  // Blocks kept by reset() are revisited in order, as the cursor left
  // them; a block the request does not fit is skipped for good.
  for (size_t I = Cur ? Current + 1 : 0; I < Blocks.size(); ++I)
    if (void *P = bumpIn(I))
      return P;
  size_t Size = NextBlockSize;
  while (Size < Bytes + Align)
    Size *= 2;
  NextBlockSize = Size * 2;
  Block B;
  B.Memory.reset(new uint8_t[Size]);
  B.Size = Size;
  Blocks.push_back(std::move(B));
  return bumpIn(Blocks.size() - 1);
}

void Arena::reset() {
  Current = 0;
  TotalAllocated = 0;
  if (Blocks.empty())
    return;
  Cur = Blocks[0].Memory.get();
  End = Cur + Blocks[0].Size;
}
