//===- support/Arena.h - Bump allocator -------------------------*- C++ -*-===//
//
// Part of the IPG reproduction of "Interval Parsing Grammars for File Format
// Parsing" (PLDI 2023). MIT license.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The bump allocator behind the runtime's parse trees and the Nail-style
/// baseline parsers. Nail's generated parsers use arena-based memory
/// management "to avoid performance impact from calling malloc" (Section 7);
/// Figure 13e/f note that IPG matched it only after adopting the same
/// mechanism, which is why the interpreter allocates every tree node,
/// child-index array, and frozen attribute environment from here instead of
/// the heap.
///
/// Allocation bumps a cursor through geometrically growing blocks (the
/// bump is inline; only a block change calls out of line); reset()
/// drops every allocation at once but keeps the blocks, so a reused arena
/// reaches an allocation-free steady state. Individual objects are never
/// destroyed — only trivially destructible types may live here — and
/// pointers returned by allocate() stay valid across later growth (new
/// blocks are added; existing blocks never move).
///
//===----------------------------------------------------------------------===//

#ifndef IPG_SUPPORT_ARENA_H
#define IPG_SUPPORT_ARENA_H

#include <cstddef>
#include <cstdint>
#include <cstring>
#include <memory>
#include <type_traits>
#include <vector>

namespace ipg {

class Arena {
public:
  explicit Arena(size_t FirstBlock = 4096) : NextBlockSize(FirstBlock) {}
  // The cursor points into the blocks, so a copied or moved-from arena
  // would bump into memory it no longer owns.
  Arena(const Arena &) = delete;
  Arena &operator=(const Arena &) = delete;

  /// Bump-pointer fast path, inline at every call site: align the cursor
  /// and advance it when the current block still has room. Everything
  /// else (moving to a kept block after reset(), adding a block) is the
  /// out-of-line refill(). A zero-byte request may return nullptr.
  void *allocate(size_t Bytes, size_t Align = alignof(std::max_align_t)) {
    TotalAllocated += Bytes;
    // Align the actual address, not a block offset: operator new[] only
    // guarantees 16-byte alignment, so over-aligned requests need the
    // base pointer folded in.
    const uintptr_t P = (reinterpret_cast<uintptr_t>(Cur) + Align - 1) &
                        ~static_cast<uintptr_t>(Align - 1);
    if (P + Bytes <= reinterpret_cast<uintptr_t>(End)) {
      Cur = reinterpret_cast<uint8_t *>(P + Bytes);
      return reinterpret_cast<void *>(P);
    }
    return refill(Bytes, Align);
  }

  template <typename T, typename... Args> T *make(Args &&...As) {
    static_assert(std::is_trivially_destructible_v<T>,
                  "arena never runs destructors");
    return new (allocate(sizeof(T), alignof(T)))
        T(std::forward<Args>(As)...);
  }

  /// Allocates an uninitialized array of N T's.
  template <typename T> T *makeArray(size_t N) {
    static_assert(std::is_trivially_destructible_v<T>,
                  "arena never runs destructors");
    return static_cast<T *>(allocate(sizeof(T) * N, alignof(T)));
  }

  /// Copies \p N elements of \p Src into the arena (nullptr when N == 0).
  template <typename T> const T *copyArray(const T *Src, size_t N) {
    static_assert(std::is_trivially_copyable_v<T>,
                  "copyArray memcpys its elements");
    if (N == 0)
      return nullptr;
    T *Dst = makeArray<T>(N);
    std::memcpy(Dst, Src, sizeof(T) * N);
    return Dst;
  }

  /// Copies a raw byte range into the arena (nullptr when N == 0).
  const uint8_t *copyBytes(const void *Src, size_t N) {
    return copyArray(static_cast<const uint8_t *>(Src), N);
  }

  /// Drops every allocation but keeps the blocks for reuse.
  void reset();

  /// Bytes handed out since construction or the last reset().
  size_t bytesAllocated() const { return TotalAllocated; }

  /// Bytes of block capacity currently held (survives reset()).
  size_t bytesReserved() const {
    size_t N = 0;
    for (const Block &B : Blocks)
      N += B.Size;
    return N;
  }

private:
  /// The slow path of allocate(): the cursor's block cannot hold the
  /// request, so bump from the next kept block that can, or add a block.
  /// TotalAllocated is already counted.
  void *refill(size_t Bytes, size_t Align);

  struct Block {
    /// Never value-initialised: the arena writes every byte it hands out
    /// before anything reads it.
    std::unique_ptr<uint8_t[]> Memory;
    size_t Size = 0;
  };
  std::vector<Block> Blocks;
  size_t Current = 0;       ///< index of the cursor's block
  uint8_t *Cur = nullptr;   ///< bump cursor (null before the first block)
  uint8_t *End = nullptr;   ///< end of the cursor's block
  size_t NextBlockSize;
  size_t TotalAllocated = 0;
};

} // namespace ipg

#endif // IPG_SUPPORT_ARENA_H
