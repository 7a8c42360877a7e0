//===- support/GenRuntime.h - Shared parse-time semantics ------*- C++ -*-===//
//
// Part of the IPG reproduction of "Interval Parsing Grammars for File Format
// Parsing" (PLDI 2023). MIT license.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The single source of truth for the parse-time semantics shared by the
/// host engines (runtime/HostRunner.h, expr/Eval.cpp, vm/BytecodeVM.cpp)
/// and by every parser the code generator emits. This file is BOTH compiled into ipg_core AND
/// embedded verbatim into each generated parser (CMake wraps it into
/// GenRuntimeEmbed.inc, which codegen/CppEmitter.cpp pastes ahead of the
/// emitted rule functions), so the two execution modes cannot drift: a
/// semantic change here changes both at once.
///
/// Because of that dual life the file must stay self-contained: C++17,
/// direct std includes only, no other project headers. Everything lives in
/// namespace ipg_rt (not ipg) so generated parsers stay dependency-free.
///
/// Contents:
///
/// 1. Shared scalar semantics of Figure 8 — the first-update `updStartEnd`
///    (start/end appear in an environment only once a term actually touches
///    bytes; the first touch seeds them, later touches min/max them — there
///    is NO pre-seeded `start = EOI` / `end = 0` sentinel, so reading
///    `X.start` of a byte-untouched node fails with partiality), the
///    T-NTSucc child-span defaults (`value_or(sub-EOI)` / `value_or(0)`),
///    the interval guard, the read guards, and the checked arithmetic
///    (div/mod/shift) of the expression language.
///
/// 2. The shared memoization table: IntervalKey packs (rule, interval)
///    into 128 bits and FlatIntervalMap is the insert-only open-addressing
///    table with O(1) generational clear. The host engines and
///    generated parsers memoize through it alike (Ctx memoizes every
///    non-local (rule, interval) result, closing the paper's Fig.-12 gap
///    on backtracking-heavy grammars).
///
/// 3. The parse tree, Tr ::= Node(A, E, Trs) | Array(Trs) | Leaf(s), and
///    the NodeStore every tier builds it into: a bump arena holding the
///    tree objects, their frozen attribute environments and their child-id
///    arrays, lazy shifted views (T-NTSucc shifts are recorded as a per-
///    view delta and resolved at read time instead of copying
///    environments), and zero-copy leaves aliasing the input. The host
///    engines build into it, and so does every generated parser — into
///    the host's own store when the host runs it in process
///    (codegen/GenEngine.h), so no tree is ever rebuilt. Trees name rules
///    and attributes by grammar Symbol in every tier.
///
/// 4. The Frame every tier executes an alternative in: the environment E
///    (own attributes in definition order, then start/end), the lookup
///    sigma of Figure 8 (attribute through the lexical chain, latest node,
///    latest array, element attribute), the guarded input read, and
///    freeze(), which turns a frame into a node.
///
/// 5. The embedded runtime of generated parsers: the per-parse Ctx with
///    its memo table and frame pool, the step machine, and the
///    blackbox registration hook (Section 3.4), recycled across parses so
///    steady-state parsing performs no heap allocation.
///
/// 6. The canonical dump, the print coverage kernel (PrintCoverage) and
///    the one tree print walk (PrintWalk) behind both serialize::printTree
///    and the printTree of generated parsers, and the layout hash that
///    guards the tree types a host shares with a loaded module.
///
//===----------------------------------------------------------------------===//

#ifndef IPG_SUPPORT_GENRUNTIME_H
#define IPG_SUPPORT_GENRUNTIME_H

#include <algorithm>
#include <cassert>
#include <cstddef>
#include <cstdint>
#include <cstring>
#include <memory>
#include <new>
#include <optional>
#include <string>
#include <string_view>
#include <type_traits>
#include <utility>
#include <vector>

namespace ipg_rt {

//===----------------------------------------------------------------------===//
// Shared scalar semantics (used by the interpreter AND generated parsers).
//===----------------------------------------------------------------------===//

/// Recursion-guard DEFAULT shared with EngineOptions::MaxDepth's. Like
/// the interpreter's, the limit is a HARD error (Ctx::hardFail): it
/// aborts the whole parse rather than soft-failing into sibling
/// alternatives, so a fallback alternative cannot mask runaway
/// recursion in one execution mode but not the other. The effective
/// limit is runtime-settable per parser (Ctx::setDepthLimit, surfaced
/// as Parser::setDepthLimit) so both engines can honor one
/// EngineOptions::MaxDepth value.
inline constexpr int MaxDepth = 8192;

/// An interned grammar name; ipg::Symbol (support/Interner.h) is this
/// type, and generated parsers use the grammar's own numbering.
using Symbol = uint32_t;
inline constexpr Symbol InvalidSymbol = 0;
using RuleId = uint32_t;
inline constexpr RuleId InvalidRuleId = ~0u;

/// The symbols of the special start/end attributes and of the blackbox
/// value attribute: Grammar::Grammar() interns "start", "end", "EOI" and
/// "val" first, in that order, so every tier can compare against them as
/// constants.
enum : Symbol { IdStart = 1, IdEnd = 2, IdVal = 4 };

/// The interval guard of every positional term: [Lo, Hi) must be a
/// sub-window of the local input [0, Eoi).
inline bool intervalOk(long long Lo, long long Hi, long long Eoi) {
  return 0 <= Lo && Lo <= Hi && Hi <= Eoi;
}

/// updStartEnd of Figure 8, first-update form: if \p Touched, seed
/// start/end on their first update and min/max afterwards. \p EnvT needs
/// `bool getAttr(KeyT, long long &)` over its own bindings and
/// `void setAttr(KeyT, long long)`. Encoding the first update via
/// "absent -> take Lo/Hi directly" (rather than defaulting S = 0) is what
/// makes the min-clamps-to-0 trap structurally impossible for structures
/// that do not begin at offset 0.
template <class EnvT, class KeyT>
inline void updStartEnd(EnvT &E, KeyT StartKey, KeyT EndKey, long long Lo,
                        long long Hi, bool Touched) {
  if (!Touched)
    return;
  long long S = 0, En = 0;
  E.setAttr(StartKey, E.getAttr(StartKey, S) && S < Lo ? S : Lo);
  E.setAttr(EndKey, E.getAttr(EndKey, En) && En > Hi ? En : Hi);
}

/// `+ - *` on attribute values: two's-complement wraparound, computed
/// through unsigned arithmetic so an overflow is defined in every engine
/// (and in lowering's constant folding) instead of undefined behaviour.
inline long long wrapAdd(long long L, long long R) {
  return static_cast<long long>(static_cast<unsigned long long>(L) +
                                static_cast<unsigned long long>(R));
}

inline long long wrapSub(long long L, long long R) {
  return static_cast<long long>(static_cast<unsigned long long>(L) -
                                static_cast<unsigned long long>(R));
}

inline long long wrapMul(long long L, long long R) {
  return static_cast<long long>(static_cast<unsigned long long>(L) *
                                static_cast<unsigned long long>(R));
}

/// Division/modulo fail (partiality, not UB) on zero divisors and on the
/// one overflowing quotient.
inline bool checkedDiv(long long L, long long R, long long &Out) {
  if (R == 0 || (L == (-9223372036854775807LL - 1) && R == -1))
    return false;
  Out = L / R;
  return true;
}

inline bool checkedMod(long long L, long long R, long long &Out) {
  if (R == 0 || (L == (-9223372036854775807LL - 1) && R == -1))
    return false;
  Out = L % R;
  return true;
}

/// Shifts fail outside [0, 62]; the left shift is performed unsigned so it
/// is defined for every operand the guard admits.
inline bool checkedShl(long long L, long long R, long long &Out) {
  if (R < 0 || R > 62)
    return false;
  Out = static_cast<long long>(static_cast<unsigned long long>(L) << R);
  return true;
}

inline bool checkedShr(long long L, long long R, long long &Out) {
  if (R < 0 || R > 62)
    return false;
  Out = L >> R;
  return true;
}

/// ReadKind encoding shared between the interpreter and the emitter. The
/// numeric values MUST mirror ipg::ReadKind's declaration order
/// (expr/Expr.h); runtime/Interp.cpp static_asserts the correspondence.
enum : unsigned {
  RK_U8,
  RK_U16Le,
  RK_U32Le,
  RK_U64Le,
  RK_U16Be,
  RK_U32Be,
  RK_BtoiLe,
  RK_BtoiBe,
};

/// Fixed width/endianness of a read kind. Returns false for the
/// variable-width btoi kinds (the caller supplies the [lo, hi) window);
/// BigEndian is still set for them.
inline bool readKindSpec(unsigned RK, long long &Width, bool &BigEndian) {
  BigEndian = RK == RK_U16Be || RK == RK_U32Be || RK == RK_BtoiBe;
  switch (RK) {
  case RK_U8:
    Width = 1;
    return true;
  case RK_U16Le:
  case RK_U16Be:
    Width = 2;
    return true;
  case RK_U32Le:
  case RK_U32Be:
    Width = 4;
    return true;
  case RK_U64Le:
    Width = 8;
    return true;
  default:
    return false;
  }
}

/// Window width of a btoi(lo, hi) read. Fails (partiality) unless
/// 0 <= Lo < Hi — checked BEFORE the subtraction, which is therefore
/// overflow-free (Lo >= 0 and Hi > Lo bound Hi - Lo by Hi). readScalar
/// then enforces the [1, 8] width and the in-bounds window.
inline bool btoiWidth(long long Lo, long long Hi, long long &Width) {
  if (Lo < 0 || Hi <= Lo)
    return false;
  Width = Hi - Lo;
  return true;
}

/// Guarded scalar read over the local input [0, Size): width in [1, 8] and
/// the window in bounds, else partiality.
inline bool readScalar(const unsigned char *Base, long long Size,
                       long long Off, long long Width, bool BigEndian,
                       long long &Out) {
  if (Off < 0 || Width < 1 || Width > 8 || Off > Size - Width)
    return false;
  unsigned long long V = 0;
  if (BigEndian)
    for (long long I = 0; I < Width; ++I)
      V = (V << 8) | Base[Off + I];
  else
    for (long long I = Width; I-- > 0;)
      V = (V << 8) | Base[Off + I];
  Out = static_cast<long long>(V);
  return true;
}

/// A fixed-width read kind packed as width | 0x100 when big-endian, so a
/// reader can switch to a compile-time-width readScalar (readPacked).
/// False for the btoi kinds, whose width is a run-time window.
inline bool packReadSpec(unsigned RK, unsigned &Spec) {
  long long Width = 0;
  bool BigEndian = false;
  if (!readKindSpec(RK, Width, BigEndian))
    return false;
  Spec = static_cast<unsigned>(Width) | (BigEndian ? 0x100u : 0u);
  return true;
}

/// readScalar for a packReadSpec'd kind: each case has a constant width
/// and endianness, so the byte loop unrolls to a plain load.
inline bool readPacked(const unsigned char *Base, long long Size,
                       long long Off, unsigned Spec, long long &Out) {
  switch (Spec) {
  case 1:
    return readScalar(Base, Size, Off, 1, false, Out);
  case 2:
    return readScalar(Base, Size, Off, 2, false, Out);
  case 4:
    return readScalar(Base, Size, Off, 4, false, Out);
  case 8:
    return readScalar(Base, Size, Off, 8, false, Out);
  case 2 | 0x100:
    return readScalar(Base, Size, Off, 2, true, Out);
  case 4 | 0x100:
    return readScalar(Base, Size, Off, 4, true, Out);
  default:
    return false; // not a packReadSpec value
  }
}

//===----------------------------------------------------------------------===//
// Interval memoization (shared by the interpreter AND generated parsers).
//
// Section 3.3 keys parse results on (nonterminal, interval). The key is
// packed into a single 128-bit value —
//
//   A = rule-id (32 bits)  |  interval-lo bits 47..16
//   B = interval-lo bits 15..0  |  interval-hi (48 bits)
//
// — and entries live in one flat power-of-two slot array with linear
// probing. Offsets are absolute byte positions in the root input, so
// 48 bits allow 256 TiB inputs.
//
// The table is insert-only: a parse memoizes each (rule, interval) once
// and never retracts it. clear() keeps capacity and is O(1)
// (generational), which is what lets a reused parser reach an
// allocation-free steady state. The host engines and generated parsers
// use the same table.
//===----------------------------------------------------------------------===//

/// A (rule, interval) key packed into 128 bits. Equality is exact; the
/// packing is injective for lo/hi < 2^48.
struct IntervalKey {
  uint64_t A = 0;
  uint64_t B = 0;

  static IntervalKey pack(uint32_t Rule, uint64_t Lo, uint64_t Hi) {
    assert(Lo < (1ull << 48) && Hi < (1ull << 48) &&
           "interval offsets limited to 48 bits");
    IntervalKey K;
    K.A = (static_cast<uint64_t>(Rule) << 32) | (Lo >> 16);
    K.B = (Lo << 48) | Hi;
    return K;
  }

  bool operator==(const IntervalKey &O) const {
    return A == O.A && B == O.B;
  }
};

/// Insert-only open-addressing hash map from IntervalKey to a small
/// trivially copyable value (parse engines store memoPack'd node
/// handles). Linear probing, max load factor 3/4, geometric growth from a
/// 64-slot floor.
template <typename V> class FlatIntervalMap {
  // Each slot carries the epoch it was written in, and a slot is live
  // exactly when its epoch is current; slots from older epochs read as
  // empty. That is what makes clear() O(1): it bumps the epoch instead of
  // sweeping a table that one large parse may have grown far beyond what
  // small parses need.
  struct Slot {
    uint64_t A = 0;
    uint64_t B = 0;
    V Value{};
    uint32_t Epoch = 0;
  };

public:
  FlatIntervalMap() = default;

  /// Looks up \p K; returns null when absent.
  V *find(const IntervalKey &K) {
    if (Slots.empty())
      return nullptr;
    size_t Mask = Slots.size() - 1;
    for (size_t I = hashOf(K) & Mask;; I = (I + 1) & Mask) {
      Slot &S = Slots[I];
      if (S.Epoch != Epoch)
        return nullptr;
      if (S.A == K.A && S.B == K.B)
        return &S.Value;
    }
  }
  const V *find(const IntervalKey &K) const {
    return const_cast<FlatIntervalMap *>(this)->find(K);
  }

  /// Inserts \p K -> \p Value; returns false (leaving the existing value
  /// untouched) when the key was already present.
  bool insert(const IntervalKey &K, const V &Value) {
    if ((Size + 1) * 4 > capacity() * 3)
      rehash(capacity() ? capacity() * 2 : 64);
    size_t Mask = Slots.size() - 1;
    for (size_t I = hashOf(K) & Mask;; I = (I + 1) & Mask) {
      Slot &S = Slots[I];
      if (S.Epoch != Epoch) {
        S = Slot{K.A, K.B, Value, Epoch};
        ++Size;
        return true;
      }
      if (S.A == K.A && S.B == K.B)
        return false;
    }
  }

  /// Drops all entries but keeps the slot array. O(1): bumping the epoch
  /// invalidates every slot, so a long-lived table sized by one large
  /// parse costs nothing to clear before small ones.
  void clear() {
    Size = 0;
    ++Epoch;
    if (Epoch == 0) {
      // Epoch wrap (once per 2^32 clears): ancient slots could alias the
      // restarted counter, so pay one full sweep.
      for (Slot &S : Slots)
        S = Slot();
      Epoch = 1;
    }
  }

  size_t size() const { return Size; }
  bool empty() const { return Size == 0; }
  size_t capacity() const { return Slots.size(); }

private:
  static size_t hashOf(const IntervalKey &K) {
    // splitmix64-style finalization over both words.
    uint64_t H = K.A * 0x9e3779b97f4a7c15ull;
    H ^= K.B + 0x9e3779b97f4a7c15ull + (H << 6) + (H >> 2);
    H ^= H >> 30;
    H *= 0xbf58476d1ce4e5b9ull;
    H ^= H >> 27;
    H *= 0x94d049bb133111ebull;
    H ^= H >> 31;
    return static_cast<size_t>(H);
  }

  void rehash(size_t NewCap) {
    std::vector<Slot> Old = std::move(Slots);
    Slots.assign(NewCap, Slot());
    size_t Mask = NewCap - 1;
    for (const Slot &S : Old) {
      if (S.Epoch != Epoch)
        continue;
      size_t I = hashOf({S.A, S.B}) & Mask;
      while (Slots[I].Epoch == Epoch)
        I = (I + 1) & Mask;
      Slots[I] = S;
    }
  }

  std::vector<Slot> Slots;
  size_t Size = 0;     ///< live entries
  uint32_t Epoch = 1;  ///< current generation; 0 marks never-written slots
};

//===----------------------------------------------------------------------===//
// Slot indexing (the O(1) attribute index behind every Frame).
//===----------------------------------------------------------------------===//

/// The one block a pooled frame's arrays start in (Frame::create): a
/// bump region that FrameAlloc carves in order.
struct FrameBlock {
  unsigned char *Begin = nullptr, *Cur = nullptr, *End = nullptr;
};

/// The allocator of a frame's arrays: requests that fit the frame's block
/// are carved from it, and anything else — an array outgrowing its
/// share, or a frame built without a block — goes to the heap. Memory
/// inside the block is never freed piecemeal; it goes with the frame.
template <class T> struct FrameAlloc {
  using value_type = T;
  FrameBlock *B = nullptr;

  FrameAlloc() = default;
  explicit FrameAlloc(FrameBlock *B) : B(B) {}
  template <class U> FrameAlloc(const FrameAlloc<U> &O) : B(O.B) {}

  T *allocate(size_t N) {
    if (B && B->Cur) {
      const uintptr_t At =
          (reinterpret_cast<uintptr_t>(B->Cur) + alignof(T) - 1) &
          ~static_cast<uintptr_t>(alignof(T) - 1);
      if (N <= (reinterpret_cast<uintptr_t>(B->End) - At) / sizeof(T)) {
        B->Cur = reinterpret_cast<unsigned char *>(At + N * sizeof(T));
        return reinterpret_cast<T *>(At);
      }
    }
    return static_cast<T *>(::operator new(N * sizeof(T)));
  }
  void deallocate(T *P, size_t) {
    const auto *C = reinterpret_cast<const unsigned char *>(P);
    if (!B || C < B->Begin || C >= B->End)
      ::operator delete(P);
  }
  template <class U> bool operator==(const FrameAlloc<U> &O) const {
    return B == O.B;
  }
  template <class U> bool operator!=(const FrameAlloc<U> &O) const {
    return B != O.B;
  }
};

/// A growable array that starts in its frame's block.
template <class T> using FrameVec = std::vector<T, FrameAlloc<T>>;

/// A generation-stamped direct map from small integer keys (interned
/// symbols) to slot positions in a flat
/// environment. Replaces the linear scans attribute-heavy rules used to
/// pay on every get/set: lookup and record are O(1), and clear() is O(1)
/// too — it bumps a generation instead of sweeping, so per-alternative
/// environment resets stay free no matter how large the key space grew.
class SlotIndex {
public:
  /// An index whose stamps start in \p B (a frame's block), or on the
  /// heap.
  explicit SlotIndex(FrameBlock *B = nullptr) : Stamp(FrameAlloc<uint64_t>(B)) {}

  /// Invalidate every recorded position (new environment generation).
  void clear() {
    if (++Gen == 0) {
      // Generation wrap (once per 2^32 clears): ancient stamps could
      // alias the restarted counter, so pay one full sweep.
      std::fill(Stamp.begin(), Stamp.end(), 0);
      Gen = 1;
    }
  }

  /// The recorded position of \p Key this generation, if any.
  bool lookup(uint32_t Key, uint32_t &Idx) const {
    if (Key >= Stamp.size())
      return false;
    uint64_t S = Stamp[Key];
    if (static_cast<uint32_t>(S >> 32) != Gen)
      return false;
    Idx = static_cast<uint32_t>(S);
    return true;
  }

  /// Records (or overwrites) the position of \p Key this generation.
  void record(uint32_t Key, uint32_t Idx) {
    if (Key >= Stamp.size())
      Stamp.resize(static_cast<size_t>(Key) + 1, 0);
    Stamp[Key] = (static_cast<uint64_t>(Gen) << 32) | Idx;
  }

  /// Sizes the index for keys below \p Keys up front, so record() never
  /// grows it for them.
  void reserve(size_t Keys) {
    if (Stamp.size() < Keys)
      Stamp.resize(Keys, 0);
  }

  /// Drops \p Key from this generation.
  void forget(uint32_t Key) {
    if (Key < Stamp.size())
      Stamp[Key] = 0;
  }

private:
  FrameVec<uint64_t> Stamp; ///< per-key (generation << 32) | index
  uint32_t Gen = 1;            ///< stamp 0 marks never-written keys
};

/// Packing of a memoized parse outcome into a 32-bit table value —
/// (node id << 1) | success bit; a memoized FAILURE packs as 0. One
/// definition shared by the interpreter and generated parsers so the
/// encoding cannot drift between the engines.
inline unsigned memoPack(unsigned NodeId, bool Ok) {
  assert(NodeId < (1u << 31) && "node id overflows the packed memo value");
  return (NodeId << 1) | (Ok ? 1u : 0u);
}

/// Inverse of memoPack: sets \p NodeId (meaningful only on success) and
/// returns the success bit.
inline bool memoUnpack(unsigned Value, unsigned &NodeId) {
  NodeId = Value >> 1;
  return (Value & 1u) != 0;
}

//===----------------------------------------------------------------------===//
// Parse trees: Tr ::= Node(A, E, Trs) | Array(Trs) | Leaf(s), the one tree
// of the semantics. The host engines (runtime/HostRunner.h) and every
// generated parser build these objects into a NodeStore; a host running a
// generated parser hands its own store across the module boundary and
// reads the result in place (codegen/GenEngine.h). Both sides compile this
// text, and layoutHash() at the end of this file turns any layout
// mismatch between two compilers into a refusal at load time. Ownership
// (refcounts, recycling, cross-thread handoff) is the host's business and
// lives outside these types, in runtime/ParseTree.h.
//===----------------------------------------------------------------------===//

/// One attribute binding. Structured bindings work: `for (auto [K, V] : E)`.
struct EnvSlot {
  Symbol Key;
  int64_t Value;
};

/// The bump allocator behind every tree (and the Nail-style baseline
/// parsers). Nail's generated parsers use arena-based memory management
/// "to avoid performance impact from calling malloc" (Section 7); Figure
/// 13e/f note that IPG matched it only after adopting the same mechanism,
/// which is why every tree node, child-id array and frozen attribute
/// environment comes from here instead of the heap.
///
/// Allocation bumps a cursor through geometrically growing blocks (the
/// bump is inline; only a block change calls refill()); reset() drops
/// every allocation at once but keeps the blocks, so a reused arena
/// reaches an allocation-free steady state. Individual objects are never
/// destroyed, so only trivially destructible types may live here, and
/// pointers returned by allocate() stay valid across later growth (new
/// blocks are added; existing blocks never move).
class Arena {
public:
  explicit Arena(size_t FirstBlock = 4096) : NextBlockSize(FirstBlock) {}
  // The cursor points into the blocks, so a copied or moved-from arena
  // would bump into memory it no longer owns.
  Arena(const Arena &) = delete;
  Arena &operator=(const Arena &) = delete;

  /// Bump-pointer fast path: align the cursor and advance it when the
  /// current block still has room. A zero-byte request may return null.
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
    static_assert(std::is_trivially_destructible<T>::value,
                  "arena never runs destructors");
    return new (allocate(sizeof(T), alignof(T)))
        T(std::forward<Args>(As)...);
  }

  /// Allocates an uninitialized array of N T's.
  template <typename T> T *makeArray(size_t N) {
    static_assert(std::is_trivially_destructible<T>::value,
                  "arena never runs destructors");
    return static_cast<T *>(allocate(sizeof(T) * N, alignof(T)));
  }

  /// Copies \p N elements of \p Src into the arena (null when N == 0).
  template <typename T> const T *copyArray(const T *Src, size_t N) {
    static_assert(std::is_trivially_copyable<T>::value,
                  "copyArray memcpys its elements");
    if (N == 0)
      return nullptr;
    T *Dst = makeArray<T>(N);
    std::memcpy(Dst, Src, sizeof(T) * N);
    return Dst;
  }

  /// Copies a raw byte range into the arena (null when N == 0).
  const uint8_t *copyBytes(const void *Src, size_t N) {
    return copyArray(static_cast<const uint8_t *>(Src), N);
  }

  /// Drops every allocation but keeps the blocks for reuse.
  void reset() {
    Current = 0;
    TotalAllocated = 0;
    if (Blocks.empty())
      return;
    Cur = Blocks[0].Memory.get();
    End = Cur + Blocks[0].Size;
  }

  /// Writes one byte per cache line over the blocks handed out since the
  /// last reset(), so a thread about to reuse an arena another thread
  /// has read takes those lines in one tight pass rather than stalling
  /// on each one mid-parse. The contents become garbage: call it only
  /// right before reset().
  void claimUsed() {
    for (size_t I = 0; I < Blocks.size() && I <= Current; ++I) {
      uint8_t *B = Blocks[I].Memory.get();
      claimLines(B, I == Current ? Cur : B + Blocks[I].Size);
    }
  }

  /// One written byte in every 64-byte line [Begin, End) overlaps.
  static void claimLines(void *Begin, void *End) {
    auto *B = static_cast<uint8_t *>(Begin);
    auto *E = static_cast<uint8_t *>(End);
    if (B >= E)
      return;
    *B = 0;
    for (uint8_t *P = B + (64 - (reinterpret_cast<uintptr_t>(B) & 63)); P < E;
         P += 64)
      *P = 0;
  }

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
  friend struct Layout;

  /// The slow path of allocate(): the cursor's block cannot hold the
  /// request, so bump from the next kept block that can, or add a block.
  /// TotalAllocated is already counted.
#if defined(__GNUC__) || defined(__clang__)
  __attribute__((noinline))
#endif
  void *
  refill(size_t Bytes, size_t Align) {
    auto BumpIn = [&](size_t I) -> void * {
      Block &B = Blocks[I];
      const uintptr_t Base = reinterpret_cast<uintptr_t>(B.Memory.get());
      const uintptr_t P =
          (Base + Align - 1) & ~static_cast<uintptr_t>(Align - 1);
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
      if (void *P = BumpIn(I))
        return P;
    size_t Size = NextBlockSize;
    while (Size < Bytes + Align)
      Size *= 2;
    NextBlockSize = Size * 2;
    Block B;
    B.Memory.reset(new uint8_t[Size]);
    B.Size = Size;
    Blocks.push_back(std::move(B));
    return BumpIn(Blocks.size() - 1);
  }

  struct Block {
    /// Never value-initialised: the arena writes every byte it hands out
    /// before anything reads it.
    std::unique_ptr<uint8_t[]> Memory;
    size_t Size = 0;
  };
  std::vector<Block> Blocks;
  size_t Current = 0;     ///< index of the cursor's block
  uint8_t *Cur = nullptr; ///< bump cursor (null before the first block)
  uint8_t *End = nullptr; ///< end of the cursor's block
  size_t NextBlockSize;
  size_t TotalAllocated = 0;
};

class NodeStore;
class NodeTree;
class ArrayTree;
class LeafTree;

/// The common head of the three tree forms. Dispatch on kind(), or
/// through isa/cast/dyn_cast (every form has a classof).
class ParseTree {
public:
  enum class Kind : uint8_t { Node, Array, Leaf };

  Kind kind() const { return K; }

protected:
  explicit ParseTree(Kind K) : K(K) {}
  ~ParseTree() = default; // never deleted through the base; arena-owned

private:
  friend struct Layout;
  Kind K;
};

/// A borrowed pointer to a tree object (get/*/->). Owns nothing: the
/// NodeStore keeps the object alive.
class TreeRef {
public:
  TreeRef() = default;
  /*implicit*/ TreeRef(const ParseTree *P) : P(P) {}

  const ParseTree *get() const { return P; }
  const ParseTree &operator*() const { return *P; }
  const ParseTree *operator->() const { return P; }
  explicit operator bool() const { return P != nullptr; }

private:
  const ParseTree *P = nullptr;
};

/// An immutable, arena-frozen attribute environment. A view may carry the
/// lazy T-NTSucc delta of a shifted node: the underlying slots are shared
/// with the unshifted base node, and the shift is applied to start/end at
/// read time (get and iteration both resolve it, so no reader can observe
/// unshifted coordinates).
class EnvView {
public:
  EnvView() = default;
  EnvView(const EnvSlot *Slots, uint32_t NumSlots, int64_t Shift = 0)
      : Slots(Slots), NumSlots(NumSlots), Shift(Shift) {}

  /// Slot \p I with the view's lazy shift resolved.
  EnvSlot slot(uint32_t I) const {
    EnvSlot S = Slots[I];
    if (Shift != 0 && (S.Key == IdStart || S.Key == IdEnd))
      S.Value += Shift;
    return S;
  }

  std::optional<int64_t> get(Symbol S) const {
    for (uint32_t I = 0; I < NumSlots; ++I)
      if (Slots[I].Key == S)
        return slot(I).Value;
    return std::nullopt;
  }

  /// get() for generated code, which holds values as long long.
  bool get(Symbol S, long long &Out) const {
    std::optional<int64_t> V = get(S);
    if (V)
      Out = *V;
    return V.has_value();
  }

  size_t size() const { return NumSlots; }

  /// Iteration yields resolved EnvSlots by value (the storage itself is
  /// shared with the base node and must not leak unshifted).
  class iterator {
  public:
    iterator(const EnvView *V, uint32_t I) : V(V), I(I) {}
    EnvSlot operator*() const { return V->slot(I); }
    iterator &operator++() {
      ++I;
      return *this;
    }
    bool operator!=(const iterator &O) const { return I != O.I; }

  private:
    const EnvView *V;
    uint32_t I;
  };
  iterator begin() const { return iterator(this, 0); }
  iterator end() const { return iterator(this, NumSlots); }

private:
  const EnvSlot *Slots = nullptr;
  uint32_t NumSlots = 0;
  int64_t Shift = 0;
};

/// A view over a node's children: 32-bit ids resolved lazily against the
/// owning NodeStore. Indexing yields TreeRef (`children()[0].get()`).
class ChildList {
public:
  ChildList() = default;
  ChildList(const NodeStore *Store, const uint32_t *Ids, uint32_t Count)
      : Store(Store), Ids(Ids), Count(Count) {}

  size_t size() const { return Count; }
  bool empty() const { return Count == 0; }
  inline TreeRef operator[](size_t I) const;

  class iterator {
  public:
    iterator(const ChildList *L, size_t I) : L(L), I(I) {}
    TreeRef operator*() const { return (*L)[I]; }
    iterator &operator++() {
      ++I;
      return *this;
    }
    bool operator!=(const iterator &O) const { return I != O.I; }

  private:
    const ChildList *L;
    size_t I;
  };
  iterator begin() const { return iterator(this, 0); }
  iterator end() const { return iterator(this, Count); }

private:
  const NodeStore *Store = nullptr;
  const uint32_t *Ids = nullptr;
  uint32_t Count = 0;
};

/// Node(A, E, Trs): a successful parse of one nonterminal (or blackbox).
/// Nodes carry the rule's attribute environment, start/end included and
/// already shifted into the parent's coordinates by rule T-NTSucc, and
/// their children in execution order.
class NodeTree : public ParseTree {
public:
  NodeTree(const NodeStore *Owner, Symbol Name, RuleId Rule,
           const EnvSlot *Slots, uint32_t NumSlots, const uint32_t *ChildIds,
           uint32_t NumChildren)
      : ParseTree(Kind::Node), Owner(Owner), Name(Name), Rule(Rule),
        Slots(Slots), NumSlots(NumSlots), ChildIds(ChildIds),
        NumChildren(NumChildren) {}
  static bool classof(const ParseTree *T) { return T->kind() == Kind::Node; }

  Symbol name() const { return Name; }
  /// The rule that built the node; InvalidRuleId for blackbox nodes.
  RuleId rule() const { return Rule; }
  EnvView env() const { return EnvView(Slots, NumSlots, Shift); }
  ChildList children() const {
    return ChildList(Owner, ChildIds, NumChildren);
  }

  std::optional<int64_t> attr(Symbol S) const { return env().get(S); }

  /// The lazy T-NTSucc delta of this view: the offset of the node's own
  /// local coordinate frame within its parent's (0 for directly built
  /// nodes). Child ids and leaf offsets under this node are stored in the
  /// node's local frame, so a serializer walking the tree accumulates
  /// exactly this delta per edge to recover absolute positions.
  int64_t shift() const { return Shift; }

  /// The most recent child node named \p ChildName (null if none).
  inline const NodeTree *childNode(Symbol ChildName) const;
  /// The most recent child array whose elements are named \p ElemName.
  inline const ArrayTree *childArray(Symbol ElemName) const;

private:
  friend class NodeStore; // makeShifted shares the env/child arrays
  friend struct Layout;

  const NodeStore *Owner;
  Symbol Name;
  RuleId Rule;
  const EnvSlot *Slots;
  uint32_t NumSlots;
  const uint32_t *ChildIds;
  uint32_t NumChildren;
  /// Lazy T-NTSucc delta of a shifted view (0 for directly built nodes).
  /// Applied to the start/end attributes by env(); everything else in the
  /// node (slots, children) is shared with the unshifted base.
  int64_t Shift = 0;
};

/// Array(Trs): the result of a for-term; elements are NodeTrees.
class ArrayTree : public ParseTree {
public:
  ArrayTree(const NodeStore *Owner, Symbol Elem, const uint32_t *ElemIds,
            uint32_t NumElems)
      : ParseTree(Kind::Array), Owner(Owner), Elem(Elem), ElemIds(ElemIds),
        NumElems(NumElems) {}
  static bool classof(const ParseTree *T) {
    return T->kind() == Kind::Array;
  }

  Symbol elemName() const { return Elem; }
  ChildList elements() const { return ChildList(Owner, ElemIds, NumElems); }
  size_t size() const { return NumElems; }
  inline const NodeTree *element(size_t I) const;

private:
  friend struct Layout;

  const NodeStore *Owner;
  Symbol Elem;
  const uint32_t *ElemIds;
  uint32_t NumElems;
};

/// Leaf(s): a matched terminal (or blackbox output bytes). Offset is
/// relative to the enclosing node's local input. Leaves are zero-copy:
/// terminal and wildcard (`raw`) leaves alias the input buffer (the
/// behaviour Section 7 credits for the ZIP result) and blackbox output
/// leaves alias an arena copy of the decoded bytes. An opaque leaf is a
/// wildcard match whose bytes were never inspected.
///
/// A HOLE is an opaque leaf with a rule name attached: under salvage
/// parsing it stands in for a subparse that failed over an already-
/// resolved interval, aliasing the damaged bytes exactly as a `raw`
/// match would. Hole-ness changes nothing about how the leaf prints or
/// walks; only isHole()/holeRule() and the verdict machinery observe it.
class LeafTree : public ParseTree {
public:
  LeafTree(const uint8_t *Data, size_t Length, int64_t Offset, bool Opaque,
           Symbol Hole = InvalidSymbol)
      : ParseTree(Kind::Leaf), Data(Data), Length(Length), Offset(Offset),
        Opaque(Opaque), Hole(Hole) {}
  static bool classof(const ParseTree *T) { return T->kind() == Kind::Leaf; }

  std::string_view bytes() const {
    return std::string_view(reinterpret_cast<const char *>(Data), Length);
  }
  int64_t offset() const { return Offset; }
  size_t length() const { return Length; }
  bool isOpaque() const { return Opaque; }
  bool isHole() const { return Hole != InvalidSymbol; }
  /// The rule whose failed subparse this hole fences; InvalidSymbol for
  /// ordinary leaves.
  Symbol holeRule() const { return Hole; }

private:
  friend struct Layout;

  const uint8_t *Data;
  size_t Length;
  int64_t Offset;
  bool Opaque;
  Symbol Hole;
};

/// Checked downcasts for code that cannot use ipg's dyn_cast (this file
/// includes no project header).
inline const NodeTree *asNode(const ParseTree *T) {
  return T && T->kind() == ParseTree::Kind::Node
             ? static_cast<const NodeTree *>(T)
             : nullptr;
}
inline const ArrayTree *asArray(const ParseTree *T) {
  return T && T->kind() == ParseTree::Kind::Array
             ? static_cast<const ArrayTree *>(T)
             : nullptr;
}
inline const LeafTree *asLeaf(const ParseTree *T) {
  return T && T->kind() == ParseTree::Kind::Leaf
             ? static_cast<const LeafTree *>(T)
             : nullptr;
}

/// Owns every tree object of one parse: a bump arena for the objects
/// plus the id -> object index that children are stored against.
/// Children are 32-bit ids into this store, attribute environments are
/// frozen arena arrays, and T-NTSucc's coordinate shift is lazy:
/// makeShifted creates a view that shares the base node's frozen env and
/// child arrays and records only the delta, which EnvView resolves on
/// start/end reads, so no environment is ever copied per child edge.
/// Create through the builders only; objects never move once created,
/// and reset() invalidates everything built so far and starts over with
/// the same memory.
class NodeStore {
public:
  NodeStore() = default;
  NodeStore(const NodeStore &) = delete;
  NodeStore &operator=(const NodeStore &) = delete;

  const ParseTree *node(uint32_t Id) const {
    assert(Id < Nodes.size() && "node id out of range");
    return Nodes[Id];
  }
  size_t nodeCount() const { return Nodes.size(); }
  size_t arenaBytesUsed() const { return Mem.bytesAllocated(); }
  size_t arenaBytesReserved() const { return Mem.bytesReserved(); }

  /// makeNodeFromSlots over an environment container with data()/size()
  /// (a frame's slot vector, a test's std::vector<EnvSlot>).
  template <class EnvT>
  uint32_t makeNode(Symbol Name, RuleId Rule, const EnvT &E,
                    const uint32_t *ChildIds, uint32_t NumChildren) {
    return makeNodeFromSlots(Name, Rule, E.data(),
                             static_cast<uint32_t>(E.size()), ChildIds,
                             NumChildren);
  }

  /// Freezes \p Slots and \p ChildIds (which may point at reusable
  /// scratch) into one arena bump holding the node, its env and its
  /// child ids.
  uint32_t makeNodeFromSlots(Symbol Name, RuleId Rule, const EnvSlot *Slots,
                             uint32_t NumSlots, const uint32_t *ChildIds,
                             uint32_t NumChildren) {
    static_assert(sizeof(NodeTree) % alignof(EnvSlot) == 0 &&
                      alignof(NodeTree) >= alignof(EnvSlot) &&
                      sizeof(EnvSlot) % alignof(uint32_t) == 0,
                  "node block layout: node, env slots, child ids");
    const size_t EnvBytes = sizeof(EnvSlot) * NumSlots;
    const size_t KidBytes = sizeof(uint32_t) * NumChildren;
    auto *Block = static_cast<uint8_t *>(
        Mem.allocate(sizeof(NodeTree) + EnvBytes + KidBytes,
                     alignof(NodeTree)));
    EnvSlot *Frozen = nullptr;
    uint32_t *Ids = nullptr;
    if (NumSlots) {
      Frozen = reinterpret_cast<EnvSlot *>(Block + sizeof(NodeTree));
      std::memcpy(Frozen, Slots, EnvBytes);
    }
    if (NumChildren) {
      Ids = reinterpret_cast<uint32_t *>(Block + sizeof(NodeTree) + EnvBytes);
      std::memcpy(Ids, ChildIds, KidBytes);
    }
    return addNode(new (Block) NodeTree(this, Name, Rule, Frozen, NumSlots,
                                        Ids, NumChildren));
  }

  /// Lazy shifted view of node \p BaseId (T-NTSucc): shares the frozen
  /// env and child arrays of the base node and records \p Delta for
  /// read-time resolution. A zero delta needs no view at all (the base
  /// id is returned), and shifting an existing view composes the deltas,
  /// so memoized subtrees can be re-anchored under any number of parents
  /// without ever copying an environment. \p BaseId must name a NodeTree.
  uint32_t makeShifted(uint32_t BaseId, int64_t Delta) {
    if (Delta == 0)
      return BaseId;
    NodeTree View(*asNode(node(BaseId)));
    View.Shift += Delta;
    return addNode(Mem.make<NodeTree>(View));
  }

  uint32_t makeArray(Symbol Elem, const uint32_t *ElemIds,
                     uint32_t NumElems) {
    const uint32_t *Ids = Mem.copyArray(ElemIds, NumElems);
    return addNode(Mem.make<ArrayTree>(this, Elem, Ids, NumElems));
  }

  /// Zero-copy leaf aliasing \p Data (input bytes; the caller guarantees
  /// they outlive the tree).
  uint32_t makeLeaf(const uint8_t *Data, size_t Length, int64_t Offset,
                    bool Opaque) {
    return addNode(Mem.make<LeafTree>(Data, Length, Offset, Opaque));
  }

  /// Hole leaf: a zero-copy opaque window over bytes a failed subparse of
  /// \p Rule should have covered (salvage parsing).
  uint32_t makeHole(const uint8_t *Data, size_t Length, int64_t Offset,
                    Symbol Rule) {
    return addNode(
        Mem.make<LeafTree>(Data, Length, Offset, /*Opaque=*/true, Rule));
  }

  /// Leaf over an arena-owned copy of \p Data (blackbox output).
  uint32_t makeLeafCopy(const void *Data, size_t Length, int64_t Offset) {
    return addNode(Mem.make<LeafTree>(Mem.copyBytes(Data, Length), Length,
                                      Offset, /*Opaque=*/false));
  }

  /// The node a successful blackbox term named \p Name contributes over
  /// [Lo, Hi) (Section 3.4): attributes val/start/end, where an empty
  /// consumption (\p End == 0) reads as the untouched span [sub-EOI, 0) in
  /// the parent's coordinates, plus one leaf child copying any decoded
  /// output.
  uint32_t makeBlackboxNode(Symbol Name, int64_t Value, int64_t End,
                            const void *Output, size_t OutputLen, int64_t Lo,
                            int64_t Hi) {
    const EnvSlot Slots[3] = {{IdVal, Value},
                              {IdStart, End > 0 ? Lo : Hi - Lo},
                              {IdEnd, End > 0 ? Lo + End : Lo}};
    uint32_t Kid = 0;
    uint32_t NumKids = 0;
    if (OutputLen) {
      Kid = makeLeafCopy(Output, OutputLen, 0);
      NumKids = 1;
    }
    return makeNodeFromSlots(Name, InvalidRuleId, Slots, 3, &Kid, NumKids);
  }

  /// Invalidates every node built so far; keeps arena blocks and index
  /// capacity so a reused store reaches an allocation-free steady state.
  void reset() {
    Mem.reset();
    Nodes.clear();
  }

  /// Arena::claimUsed over the arena bytes and the node index the last
  /// parse used; call it right before reset().
  void claim() {
    Mem.claimUsed();
    Arena::claimLines(Nodes.data(), Nodes.data() + Nodes.size());
  }

private:
  friend struct Layout;

  uint32_t addNode(const ParseTree *T) {
    Nodes.push_back(T);
    return static_cast<uint32_t>(Nodes.size() - 1);
  }

  Arena Mem;
  std::vector<const ParseTree *> Nodes;
};

inline TreeRef ChildList::operator[](size_t I) const {
  assert(I < Count && "child index out of range");
  return TreeRef(Store->node(Ids[I]));
}

inline const NodeTree *NodeTree::childNode(Symbol ChildName) const {
  for (uint32_t I = NumChildren; I-- > 0;)
    if (const NodeTree *N = asNode(Owner->node(ChildIds[I])))
      if (N->name() == ChildName)
        return N;
  return nullptr;
}

inline const ArrayTree *NodeTree::childArray(Symbol ElemName) const {
  for (uint32_t I = NumChildren; I-- > 0;)
    if (const ArrayTree *A = asArray(Owner->node(ChildIds[I])))
      if (A->elemName() == ElemName)
        return A;
  return nullptr;
}

inline const NodeTree *ArrayTree::element(size_t I) const {
  return I < NumElems ? asNode(Owner->node(ElemIds[I])) : nullptr;
}

//===----------------------------------------------------------------------===//
// The frame: the environment E of one alternative in flight and the lookup
// sigma of Figure 8 over it. Every tier executes its alternatives in these
// frames — the host runner (runtime/HostRunner.h) and generated parsers
// alike — so attribute lookup, updStartEnd and freezing exist once.
//===----------------------------------------------------------------------===//

/// Per-alternative execution state: the local input window, the scratch
/// environment E, the ids of already-built children, and per-term touch
/// records. Frames are pooled by nesting and reused across alternatives
/// and parses; a pooled frame (create) holds itself and the first
/// buffers of all four of its arrays in one allocation.
///
/// Env slot order, the same in every tier: E holds the alternative's own
/// attributes in first-definition order, start/end live in fields, and
/// freeze() appends them last — so a node lists its own attributes in
/// definition order, then start, then end.
struct Frame;
struct FrameDelete {
  void operator()(Frame *F) const;
};
/// An owning handle to a pooled frame (Frame::create).
using FramePtr = std::unique_ptr<Frame, FrameDelete>;

struct Frame {
  Frame() = default;
  Frame(const Frame &) = delete; // the arrays point into Block
  Frame &operator=(const Frame &) = delete;

  /// A frame sized for alternatives of up to \p Terms terms whose env
  /// records symbols below \p Keys (lir::FramePlan): the frame and the
  /// first buffers of its four arrays share one allocation.
  static FramePtr create(size_t Terms, size_t Keys);

  const unsigned char *Base = nullptr; ///< the byte at absolute offset 0
  size_t Lo = 0, Hi = 0; ///< local input = Base[Lo, Hi), absolute offsets
  const NodeStore *Store = nullptr; ///< resolves the ids in Kids
  const Frame *Lexical = nullptr; ///< enclosing frame for where-clause rules
  FrameBlock Block; ///< where the arrays below start (create)
  FrameVec<EnvSlot> E{FrameAlloc<EnvSlot>(&Block)};
  /// O(1) symbol -> E position, regenerated per alternative.
  SlotIndex EIx{&Block};
  /// start/end live in dedicated fields, not E slots: updStartEnd touches
  /// them on every byte-touching term, so the hottest two keys skip the
  /// index entirely.
  bool HasStart = false, HasEnd = false;
  long long StartV = 0, EndV = 0;
  FrameVec<unsigned> Kids{FrameAlloc<unsigned>(&Block)};
  /// Per-term touch records, invalidated per alternative by generation
  /// stamp (a rule with many failing alternatives — every Digit-style
  /// dispatch — pays O(1) per attempt instead of refilling the array).
  struct Rec {
    unsigned Gen = 0;
    long long Start = 0;
    long long End = 0;
  };
  FrameVec<Rec> Recs{FrameAlloc<Rec>(&Block)};
  unsigned RecGen = 0;

  void beginAlt(const unsigned char *B, size_t L, size_t H, const Frame *Lex,
                size_t NumTerms) {
    Base = B;
    Lo = L;
    Hi = H;
    Lexical = Lex;
    E.clear();
    EIx.clear(); // O(1): generation bump, not a sweep
    HasStart = HasEnd = false;
    Kids.clear();
    if (Recs.size() < NumTerms)
      Recs.resize(NumTerms);
    if (++RecGen == 0) {
      // Generation wrap (once per 2^32 alternatives): ancient stamps
      // could alias the restarted counter, so pay one full sweep.
      for (Rec &R : Recs)
        R.Gen = 0;
      RecGen = 1;
    }
  }

  long long eoi() const { return static_cast<long long>(Hi - Lo); }

  // Own-frame environment (updStartEnd's EnvT surface). Attributes are
  // grammar symbols, so a SlotIndex makes every get/set O(1); the two
  // hottest symbols (start/end) bypass even that through fields.
  bool getAttr(Symbol Id, long long &Out) const {
    if (Id == IdStart || Id == IdEnd) {
      if (Id == IdStart ? !HasStart : !HasEnd)
        return false;
      Out = Id == IdStart ? StartV : EndV;
      return true;
    }
    uint32_t I = 0;
    if (!EIx.lookup(Id, I))
      return false;
    Out = E[I].Value;
    return true;
  }
  void setAttr(Symbol Id, long long V) {
    if (Id == IdStart || Id == IdEnd) {
      (Id == IdStart ? HasStart : HasEnd) = true;
      (Id == IdStart ? StartV : EndV) = V;
      return;
    }
    uint32_t I = 0;
    if (EIx.lookup(Id, I)) {
      E[I].Value = V;
      return;
    }
    EIx.record(Id, static_cast<uint32_t>(E.size()));
    E.push_back(EnvSlot{Id, V});
  }
  void eraseAttr(Symbol Id) {
    if (Id == IdStart || Id == IdEnd) {
      (Id == IdStart ? HasStart : HasEnd) = false;
      return;
    }
    uint32_t I = 0;
    if (!EIx.lookup(Id, I))
      return;
    E.erase(E.begin() + static_cast<long>(I));
    EIx.forget(Id);
    for (uint32_t J = I; J < E.size(); ++J)
      EIx.record(E[J].Key, J); // reseat the slots the erase slid down
  }

  /// Lexical-chain attribute lookup (sigma of Figure 8).
  bool attr(Symbol Id, long long &Out) const {
    for (const Frame *F = this; F; F = F->Lexical)
      if (F->getAttr(Id, Out))
        return true;
    return false;
  }

  /// Most recent child node named \p Name along the lexical chain.
  const NodeTree *findNode(Symbol Name) const {
    for (const Frame *F = this; F; F = F->Lexical)
      for (size_t I = F->Kids.size(); I-- > 0;)
        if (const NodeTree *N = asNode(F->Store->node(F->Kids[I])))
          if (N->name() == Name)
            return N;
    return nullptr;
  }

  /// Most recent child array with elements named \p Elem.
  const ArrayTree *findArray(Symbol Elem) const {
    for (const Frame *F = this; F; F = F->Lexical)
      for (size_t I = F->Kids.size(); I-- > 0;)
        if (const ArrayTree *A = asArray(F->Store->node(F->Kids[I])))
          if (A->elemName() == Elem)
            return A;
    return nullptr;
  }

  /// `Nt.Attr`: the attribute of the most recent child node Nt. The search
  /// stops at the first node named Nt even when it lacks the attribute.
  bool ntAttr(Symbol Nt, Symbol Attr, long long &Out) const {
    const NodeTree *N = findNode(Nt);
    return N && N->env().get(Attr, Out);
  }

  /// `Nt(Index).Attr`: the attribute of element \p Index of the most
  /// recent array of Nt.
  bool elemAttr(Symbol Nt, long long Index, Symbol Attr,
                long long &Out) const {
    const ArrayTree *A = findArray(Nt);
    if (!A || Index < 0 || static_cast<unsigned long long>(Index) >= A->size())
      return false;
    const NodeTree *N = A->element(static_cast<size_t>(Index));
    return N && N->env().get(Attr, Out);
  }

  /// The guarded read of read kind \p RK (an RK_* value) over the local
  /// input: at offset \p RLo for the fixed-width kinds, over the window
  /// [RLo, RHi) for btoi. False is partiality (bad window, out of bounds).
  bool read(unsigned RK, long long RLo, long long RHi, long long &Out) const {
    long long Width = 0;
    bool BigEndian = false;
    if (!readKindSpec(RK, Width, BigEndian) && !btoiWidth(RLo, RHi, Width))
      return false;
    return readScalar(Base + Lo, eoi(), RLo, Width, BigEndian, Out);
  }

  void rec(unsigned TermIdx, long long Start, long long End) {
    Recs[TermIdx] = Rec{RecGen, Start, End};
  }
  bool termEnd(unsigned TermIdx, long long &Out) const {
    if (TermIdx >= Recs.size() || Recs[TermIdx].Gen != RecGen)
      return false;
    Out = Recs[TermIdx].End;
    return true;
  }
};

inline FramePtr Frame::create(size_t Terms, size_t Keys) {
  // Rounding every array to 8 bytes covers each next array's alignment.
  static_assert(alignof(Rec) <= 8 && alignof(EnvSlot) <= 8,
                "frame arrays are carved at 8-byte granularity");
  auto Round8 = [](size_t N) { return (N + 7) & ~size_t{7}; };
  const size_t Head = (sizeof(Frame) + alignof(std::max_align_t) - 1) &
                      ~(alignof(std::max_align_t) - 1);
  const size_t Bytes = Round8(Terms * sizeof(Rec)) +
                       Round8(Terms * sizeof(unsigned)) +
                       Round8((Terms + 2) * sizeof(EnvSlot)) +
                       Round8(Keys * sizeof(uint64_t));
  auto *Mem = static_cast<unsigned char *>(::operator new(Head + Bytes));
  Frame *F = new (Mem) Frame();
  F->Block = FrameBlock{Mem + Head, Mem + Head, Mem + Head + Bytes};
  F->Recs.resize(Terms);
  F->Kids.reserve(Terms);
  F->E.reserve(Terms + 2); // + start/end, which freeze appends
  F->EIx.reserve(Keys);
  return FramePtr(F);
}

inline void FrameDelete::operator()(Frame *F) const {
  F->~Frame();
  ::operator delete(F);
}

/// Freezes \p F's environment and child ids into \p S as a node of rule
/// \p Rule: E's slots, then start/end folded back from their fields (the
/// frame's env slot order), then dropped again — E's index never saw them.
inline uint32_t freeze(NodeStore &S, Frame &F, Symbol Name, RuleId Rule) {
  const size_t Own = F.E.size();
  if (F.HasStart)
    F.E.push_back(EnvSlot{IdStart, F.StartV});
  if (F.HasEnd)
    F.E.push_back(EnvSlot{IdEnd, F.EndV});
  uint32_t Id = S.makeNode(Name, Rule, F.E, F.Kids.data(),
                           static_cast<uint32_t>(F.Kids.size()));
  F.E.resize(Own);
  return Id;
}

/// The T-NTSucc view of finished subtree \p Sub from its parent (before
/// shifting into the parent's coordinates): an untouched subtree — no
/// start/end in its environment — reads as [sub-EOI, 0), the identity
/// elements of the min/max in updStartEnd.
inline void childSpan(const NodeTree &Sub, long long SubEoi, long long &BStart,
                      long long &BEnd) {
  const EnvView E = Sub.env();
  if (!E.get(IdStart, BStart))
    BStart = SubEoi;
  if (!E.get(IdEnd, BEnd))
    BEnd = 0;
}

//===----------------------------------------------------------------------===//
// The embedded runtime of generated parsers: the per-parse context their
// rule functions run on. The host engines keep their own scratch
// (runtime/ParseScratch.h) around the same Frame; these types compile as
// part of ipg_core so the embedded text can never rot unbuilt.
//===----------------------------------------------------------------------===//

/// What a registered blackbox parser (Section 3.4) reports back: success
/// or failure, an integer value (surfaced as attribute `val`), how many
/// slice bytes it consumed (drives the `end` attribute), and optional
/// decoded output bytes (surfaced as a Leaf child). Output must stay valid
/// until the callback is invoked again; the runtime copies it into the
/// node arena before returning.
struct BlackboxOut {
  long long Value = 0;
  long long End = 0;
  const unsigned char *Output = nullptr;
  size_t OutputLen = 0;
};

/// The blackbox registration hook of generated parsers: a plain function
/// pointer plus an opaque user cookie, so bridges to any host-side decoder
/// (or C-style closure) stay dependency-free. Returns success; on success
/// every BlackboxOut field must be set.
using BlackboxFn = bool (*)(void *User, const unsigned char *Data,
                            size_t Len, BlackboxOut &Out);

/// What a blackbox INVERSE hands back: the re-encoded bytes. Like
/// BlackboxOut's Output, the buffer must stay valid until the callback's
/// next invocation; printTree copies it into the output before returning.
struct BlackboxEncOut {
  const unsigned char *Data = nullptr;
  size_t Len = 0;
};

/// The inverse hook next to BlackboxFn: re-encodes \p Decoded (a forward
/// blackbox's Output) given \p Value (its val attribute). Serializers
/// call it to re-emit the consumed window of a blackbox node; parsing
/// never needs it.
using BlackboxInvFn = bool (*)(void *User, const unsigned char *Decoded,
                               size_t DecodedLen, long long Value,
                               BlackboxEncOut &Out);

/// One pending level of a flattened linear-recursive rule: the interval
/// the level parses. 16 bytes per grammar-recursion level, plus 4 per
/// banked prefix child (Ctx::flatPrefixKids), instead of a C-stack frame
/// is what lets a megabyte-deep PDF `Scan`/`XNum` spine run in about
/// 16 MB of level records.
struct FlatLevel {
  size_t AbsLo = 0;
  size_t AbsHi = 0;
};

/// One suspended rule activation on the step machine's explicit work
/// stack (general recursion the flattener cannot handle). A step function
/// mutates its Task across resumptions; the Call*/Arr* fields carry the
/// parameters of a pending child call and of an in-flight array loop
/// across the suspension points.
struct Task {
  unsigned Rule = 0;   ///< rule this task runs
  unsigned Resume = 0; ///< 0 on first entry; else the resume label id
  size_t Idx = 0;      ///< position on the task stack == frame index
  size_t AbsLo = 0, AbsHi = 0; ///< absolute input window
  int LexTask = -1;    ///< task index of the lexical parent frame, or -1
  unsigned Out = 0;    ///< result node id (valid when the task finishes)
  // Child-call result, delivered by the machine before resuming.
  int ChildOk = 0;
  unsigned ChildNode = 0;
  // Pending child-call parameters (set before returning StepCall).
  unsigned CallRule = 0;
  size_t CallLo = 0, CallHi = 0;
  int CallLexSelf = 0; ///< child is a where-clause rule: pass our frame
  long long SaveL = 0; ///< child interval's Lo, for the post-call shift
  // In-flight array state (arrays whose element rule is a step rule).
  long long ArrK = 0, ArrTo = 0, ArrSaved = 0, ArrMax = 0;
  int ArrHadSaved = 0, ArrTouched = 0;
  size_t ArrLevel = 0;
};

/// A resumable rule body for the step machine. Returns StepDone/StepFail
/// with Task::Out set, or StepCall with the Call* fields describing the
/// child to push.
class Ctx;
using StepFn = int (*)(Ctx &, Task &);
enum : int { StepFail = 0, StepDone = 1, StepCall = 2 };

/// The recycled scratch state behind one generated parser: the memo
/// table, frame pool and per-nesting array scratch, plus the
/// NodeStore of the parse in flight, which the caller owns. beginParse()
/// recycles everything without releasing capacity.
class Ctx {
public:
  void setNames(const char *const *Table, size_t Count) {
    NamesTab = Table;
    NumNames = Count;
  }
  const char *name(Symbol S) const { return S < NumNames ? NamesTab[S] : "?"; }

  /// The grammar's declared blackboxes, InvalidSymbol-terminated: the
  /// nodes printTree re-encodes through the inverse hook.
  void setBlackboxNames(const Symbol *List) { BbNames = List; }
  bool isBlackbox(Symbol S) const {
    for (const Symbol *P = BbNames; P && *P != InvalidSymbol; ++P)
      if (*P == S)
        return true;
    return false;
  }

  /// Starts a parse of \p Data building into \p Into.
  void beginParse(const unsigned char *Data, NodeStore &Into) {
    Base = Data;
    S = &Into;
    Memo.clear(); // O(1) generational clear; capacity is kept
    ArrayNest = 0;
    Hard = false;
    FailName = InvalidSymbol;
    FailOff = -1;
    Frozen = 0;
    Hits = 0;
    Misses = 0;
    Peak = 0;
    Bias = 0;
    FlatLevels.clear();
    FlatKids.clear();
    Steps.clear();
  }

  /// The recursion-depth guard is a HARD failure, as in the interpreter
  /// (EngineOptions::MaxDepth): once tripped it aborts the whole parse —
  /// no backtracking into sibling alternatives. Generated rule functions
  /// check hardFailed() after every failed alternative.
  void hardFail() { Hard = true; }
  bool hardFailed() const { return Hard; }

  /// First-failure diagnostics, the generated twin of
  /// EngineStats::FailRule/FailOffset: the first noteFail() of a parse
  /// wins (deeper failures fire first on the way out, exactly as the
  /// interpreter records them). \p Off is the absolute input offset of
  /// the failing window.
  void noteFail(Symbol Name, long long Off) {
    if (FailName != InvalidSymbol)
      return;
    FailName = Name;
    FailOff = Off;
  }
  Symbol failSymbol() const { return FailName; } ///< InvalidSymbol if none
  long long failOff() const { return FailOff; }

  /// The effective recursion limit (emitted rule functions compare their
  /// Depth against it). Defaults to MaxDepth; setDepthLimit lets a
  /// driver apply EngineOptions::MaxDepth at run time — floored at 1 so
  /// the guard can never be disabled entirely.
  long long depthLimit() const { return DepthLim; }
  void setDepthLimit(long long Limit) { DepthLim = Limit < 1 ? 1 : Limit; }

  /// High-water recursion depth of the current parse — the generated twin
  /// of EngineStats::PeakDepth. Every tier reports through it: direct
  /// rule functions note their own C-stack depth, flattened loops their
  /// virtual (per-level) depth, and the step machine its task-stack
  /// height, so the figure matches the interpreter's exactly.
  void notePeak(long long Depth) {
    if (Depth > Peak)
      Peak = Depth;
  }
  long long peakDepth() const { return Peak; }

  /// Nodes frozen by successful rule alternatives in the current parse —
  /// the generated twin of EngineStats::NodesCreated (shifted views,
  /// arrays, and leaves are not counted on either side).
  size_t frozenNodeCount() const { return Frozen; }

  /// Memo table hits/misses of the current parse — the generated twins of
  /// EngineStats::MemoHits/MemoMisses.
  size_t memoHits() const { return Hits; }
  size_t memoMisses() const { return Misses; }

  /// Memoized result of a previous parseRule_N(Rule, [AbsLo, AbsHi))
  /// call this parse, keyed exactly as the interpreter keys its table
  /// (Section 3.3: rule id + absolute interval). \p Ok and \p Id are set
  /// only on a hit; failures are memoized too (Ok = false). The value is
  /// the node id and the verdict packed into 32 bits, keeping the slot
  /// array small enough to stay cache-resident on large parses.
  bool memoFind(unsigned Rule, size_t AbsLo, size_t AbsHi, bool &Ok,
                unsigned &Id) {
    if (const unsigned *E =
            Memo.find(IntervalKey::pack(Rule, AbsLo, AbsHi))) {
      ++Hits;
      Ok = memoUnpack(*E, Id);
      return true;
    }
    ++Misses;
    return false;
  }

  void memoStore(unsigned Rule, size_t AbsLo, size_t AbsHi, bool Ok,
                 unsigned Id) {
    Memo.insert(IntervalKey::pack(Rule, AbsLo, AbsHi), memoPack(Id, Ok));
  }

  /// Binds (or rebinds) the blackbox named \p Name. Generated parsers
  /// expose this by spelling through Parser::registerBlackbox.
  void registerBlackbox(Symbol Name, BlackboxFn Fn, void *User) {
    slotFor(Name).Fn = Fn;
    slotFor(Name).User = User;
  }

  /// Binds (or rebinds) the INVERSE of the blackbox named \p Name
  /// (Parser::registerBlackboxInverse). Only printTree consults it.
  void registerBlackboxInverse(Symbol Name, BlackboxInvFn Fn, void *User) {
    slotFor(Name).InvFn = Fn;
    slotFor(Name).InvUser = User;
  }

  /// Runs the registered inverse over Decoded[0, DecodedLen). Returns
  /// false when no inverse is registered or the inverse rejects; printing
  /// reports either as a print error (there is no parse to hard-fail).
  bool callBlackboxInverse(Symbol Name, const unsigned char *Decoded,
                           size_t DecodedLen, long long Value,
                           BlackboxEncOut &Out) const {
    for (const BlackboxSlot &B : Blackboxes)
      if (B.Name == Name) {
        if (!B.InvFn)
          return false;
        Out = BlackboxEncOut();
        return B.InvFn(B.InvUser, Decoded, DecodedLen, Value, Out);
      }
    return false;
  }

  /// Runs the registered blackbox over Data[0, Len). Returns 1 on success
  /// and 0 on failure; an unregistered blackbox and a decoder that claims
  /// to have consumed past its slice are HARD failures (they abort the
  /// whole parse, as in the interpreter), a decoder rejection is a soft
  /// one (the enclosing term fails).
  int callBlackbox(Symbol Name, const unsigned char *Data, size_t Len,
                   BlackboxOut &Out) {
    for (const BlackboxSlot &B : Blackboxes)
      if (B.Name == Name) {
        if (!B.Fn)
          break; // inverse-only slot: the forward direction is unbound
        Out = BlackboxOut();
        if (!B.Fn(B.User, Data, Len, Out))
          return 0;
        if (Out.End < 0 ||
            static_cast<unsigned long long>(Out.End) > Len) {
          noteFail(Name, static_cast<long long>(Data - Base));
          hardFail();
          return 0;
        }
        return 1;
      }
    noteFail(Name, static_cast<long long>(Data - Base));
    hardFail();
    return 0;
  }

  const unsigned char *base() const { return Base; }
  const ParseTree *node(uint32_t Id) const { return S->node(Id); }
  /// Tree objects in the store of the current parse.
  size_t nodeCount() const { return S ? S->nodeCount() : 0; }

  /// The grammar's lir::FramePlan: the first \p Frames frames this
  /// context builds fit every alternative (\p Terms, \p Keys) in one
  /// allocation each; deeper ones, a step machine's frame per level,
  /// start empty.
  void setFramePlan(size_t Frames, size_t Terms, size_t Keys) {
    SizedFrames = Frames;
    FrameTerms = Terms;
    FrameKeys = Keys;
  }

  /// Depth minus frame index of direct rule functions: a flattened loop
  /// raises it by one per pending level, so its children run in the
  /// frames right above the loop's own, however deep its virtual
  /// recursion is.
  size_t frameBias() const { return Bias; }
  void setFrameBias(size_t B) { Bias = B; }

  /// The pooled frame \p Depth, resolving children against the store of
  /// the parse in flight.
  Frame &frameAt(size_t Depth) {
    while (Frames.size() <= Depth)
      Frames.push_back(Frames.size() < SizedFrames
                           ? Frame::create(FrameTerms, FrameKeys)
                           : Frame::create(0, 0));
    Frame &F = *Frames[Depth];
    F.Store = S;
    return F;
  }

  std::vector<unsigned> &elemScratch(size_t Level) {
    if (ElemScratch.size() <= Level)
      ElemScratch.resize(Level + 1);
    return ElemScratch[Level];
  }
  size_t enterArray() {
    size_t Level = ArrayNest++;
    elemScratch(Level).clear();
    return Level;
  }
  void leaveArray() { --ArrayNest; }

  /// Pooled per-level records of flattened linear-recursive rules. Shared
  /// across rules and re-entrant: each activation remembers its base index
  /// and resizes back to it on every exit path.
  std::vector<FlatLevel> &flatLevels() { return FlatLevels; }
  /// Pooled storage for the node ids of prefix child nonterminals parsed
  /// on the way down a flattened rule (a static count per level, so a
  /// per-activation base index addresses them).
  std::vector<unsigned> &flatPrefixKids() { return FlatKids; }
  /// The step machine's pooled task stack (runMachine).
  std::vector<Task> &stepTasks() { return Steps; }

  /// Freezes a frame into the store as a node of rule \p Rule
  /// (ipg_rt::freeze) and counts it.
  uint32_t freeze(Frame &F, Symbol Name, RuleId Rule) {
    ++Frozen;
    return ipg_rt::freeze(*S, F, Name, Rule);
  }

  uint32_t leaf(const unsigned char *Data, size_t Len, long long Off,
                bool Opaque) {
    return S->makeLeaf(Data, Len, Off, Opaque);
  }

  uint32_t array(Symbol Elem, const std::vector<unsigned> &Ids) {
    return S->makeArray(Elem, Ids.data(), static_cast<uint32_t>(Ids.size()));
  }

  /// Lazy shifted view of a finished subtree (NodeStore::makeShifted).
  uint32_t shifted(uint32_t SubId, long long Delta) {
    return S->makeShifted(SubId, Delta);
  }

  /// The parent-side view of a finished subtree (childSpan defaults).
  void childSpanOf(uint32_t SubId, long long SubEoi, long long &BStart,
                   long long &BEnd) const {
    childSpan(*asNode(S->node(SubId)), SubEoi, BStart, BEnd);
  }

  /// The tree a successful blackbox term contributes
  /// (NodeStore::makeBlackboxNode, the host's builder too). Counts as a
  /// frozen node, as in EngineStats::NodesCreated.
  uint32_t blackboxNode(Symbol Name, const BlackboxOut &BB, long long Lo,
                        long long Hi) {
    ++Frozen;
    return S->makeBlackboxNode(Name, BB.Value, BB.End, BB.Output,
                               BB.OutputLen, Lo, Hi);
  }

private:
  struct BlackboxSlot {
    Symbol Name = InvalidSymbol;
    BlackboxFn Fn = nullptr;
    void *User = nullptr;
    BlackboxInvFn InvFn = nullptr;
    void *InvUser = nullptr;
  };

  BlackboxSlot &slotFor(Symbol Name) {
    for (BlackboxSlot &B : Blackboxes)
      if (B.Name == Name)
        return B;
    Blackboxes.push_back(BlackboxSlot());
    Blackboxes.back().Name = Name;
    return Blackboxes.back();
  }

  NodeStore *S = nullptr; ///< the caller's store of the parse in flight
  FlatIntervalMap<unsigned> Memo; ///< memoPack'd outcomes

  std::vector<BlackboxSlot> Blackboxes;
  std::vector<FramePtr> Frames;
  size_t SizedFrames = 0, FrameTerms = 0, FrameKeys = 0; ///< setFramePlan
  size_t Bias = 0; ///< frameBias()
  std::vector<std::vector<unsigned>> ElemScratch;
  std::vector<FlatLevel> FlatLevels;
  std::vector<unsigned> FlatKids;
  std::vector<Task> Steps;
  size_t ArrayNest = 0;
  bool Hard = false;
  Symbol FailName = InvalidSymbol;
  long long FailOff = -1;
  size_t Frozen = 0;
  size_t Hits = 0;
  size_t Misses = 0;
  long long Peak = 0;
  long long DepthLim = MaxDepth;
  const unsigned char *Base = nullptr;
  const char *const *NamesTab = nullptr;
  size_t NumNames = 0;
  const Symbol *BbNames = nullptr;
};

//===----------------------------------------------------------------------===//
// The step machine: an explicit work-stack trampoline over resumable rule
// functions, used for general recursion (mutual cycles, multiple
// self-alternatives, self under array/switch) that the grammar-lowering
// flattener cannot turn into a loop. Grammar recursion depth becomes task
// stack height — heap, not C stack — so EngineOptions::MaxDepth is a
// genuine resource limit, not a proxy for the OS stack size.
//===----------------------------------------------------------------------===//

/// Runs \p StartRule over [AbsLo, AbsHi) to completion. \p Fns is indexed
/// by rule id (null for rules the machine never runs — the classifier
/// guarantees step rules are entered only from here) and \p RuleNames
/// maps rule ids to their names for the failure diagnostics. Depth
/// accounting matches the interpreter exactly: a push is refused (hard
/// failure) once the stack already holds depthLimit() tasks, and the peak
/// is noted after each push.
inline bool runMachine(Ctx &C, const StepFn *Fns, const Symbol *RuleNames,
                       unsigned StartRule, size_t AbsLo, size_t AbsHi,
                       unsigned &Out) {
  std::vector<Task> &S = C.stepTasks();
  S.clear();
  if (static_cast<long long>(S.size()) >= C.depthLimit()) {
    C.noteFail(RuleNames[StartRule], static_cast<long long>(AbsLo));
    C.hardFail();
    return false;
  }
  S.push_back(Task());
  S.back().Rule = StartRule;
  S.back().AbsLo = AbsLo;
  S.back().AbsHi = AbsHi;
  C.notePeak(static_cast<long long>(S.size()));
  while (!S.empty()) {
    Task &T = S.back();
    int R = Fns[T.Rule](C, T);
    if (C.hardFailed()) {
      S.clear();
      return false;
    }
    if (R == StepCall) {
      if (static_cast<long long>(S.size()) >= C.depthLimit()) {
        C.noteFail(RuleNames[T.CallRule], static_cast<long long>(T.CallLo));
        C.hardFail();
        S.clear();
        return false;
      }
      Task Child;
      Child.Rule = T.CallRule;
      Child.Idx = S.size();
      Child.AbsLo = T.CallLo;
      Child.AbsHi = T.CallHi;
      Child.LexTask = T.CallLexSelf ? static_cast<int>(T.Idx) : -1;
      S.push_back(Child); // invalidates T
      C.notePeak(static_cast<long long>(S.size()));
      continue;
    }
    bool Ok = R == StepDone;
    unsigned NodeId = T.Out;
    S.pop_back();
    if (S.empty()) {
      Out = NodeId;
      return Ok;
    }
    S.back().ChildOk = Ok ? 1 : 0;
    S.back().ChildNode = NodeId;
  }
  return false;
}

//===----------------------------------------------------------------------===//
// Canonical tree dump — the differential-testing contract. The host side
// (tests/TreeCanonical.h) renders trees in exactly this format through an
// independent walk; any byte difference is a semantic divergence.
//===----------------------------------------------------------------------===//

/// Iterative preorder: tree depth equals grammar recursion depth, so a
/// megabyte-deep linear spine must not recurse on the C stack here
/// either. \p Names spells symbols (Names[Symbol]).
inline void dumpTreeInto(const ParseTree *Root, const char *const *Names,
                         size_t NumNames, int Indent, std::string &Out) {
  auto Name = [&](Symbol S) { return S < NumNames ? Names[S] : "?"; };
  std::vector<std::pair<const ParseTree *, int>> Stack;
  Stack.emplace_back(Root, Indent);
  std::vector<std::pair<std::string, long long>> Attrs;
  while (!Stack.empty()) {
    const ParseTree *T = Stack.back().first;
    int Ind = Stack.back().second;
    Stack.pop_back();
    Out.append(static_cast<size_t>(Ind) * 2, ' ');
    ChildList Kids;
    if (const LeafTree *L = asLeaf(T)) {
      Out += "Leaf off=" + std::to_string(L->offset()) +
             " len=" + std::to_string(L->length()) +
             " opaque=" + (L->isOpaque() ? "1" : "0") + "\n";
      continue;
    }
    if (const ArrayTree *A = asArray(T)) {
      Out += "Array " + std::string(Name(A->elemName())) + " x" +
             std::to_string(A->size()) + "\n";
      Kids = A->elements();
    } else {
      const NodeTree *N = asNode(T);
      Out += "Node " + std::string(Name(N->name())) + " {";
      Attrs.clear();
      for (EnvSlot Slot : N->env())
        Attrs.emplace_back(Name(Slot.Key), Slot.Value);
      std::sort(Attrs.begin(), Attrs.end());
      for (size_t I = 0; I < Attrs.size(); ++I) {
        if (I)
          Out += ", ";
        Out += Attrs[I].first + "=" + std::to_string(Attrs[I].second);
      }
      Out += "}\n";
      Kids = N->children();
    }
    for (size_t I = Kids.size(); I-- > 0;)
      Stack.emplace_back(Kids[I].get(), Ind + 1);
  }
}

inline std::string dumpTree(const ParseTree *Root, const char *const *Names,
                            size_t NumNames) {
  std::string Out;
  if (Root)
    dumpTreeInto(Root, Names, NumNames, 0, Out);
  return Out;
}

//===----------------------------------------------------------------------===//
// Print coverage kernel — the byte bookkeeping of the tree print walk
// below, which both serialize::printTree and generated parsers' printTree
// run.
//===----------------------------------------------------------------------===//

/// The output buffer of one print plus which of its bytes a leaf has
/// written. Coverage is kept as sorted, disjoint, non-touching [Lo, Hi)
/// runs. A write at or past the end of the last run, the common case on
/// formats parsed front to back, costs one memcpy plus an O(1) run
/// extend. Any other write (formats parsed from their end, such as zip
/// and pdf, print most leaves from the end down, and memoized subtrees
/// re-anchored under a second parent rewrite covered bytes) binary-
/// searches the runs, checks its overlap with memcmp, fills the gaps
/// between the runs it spans and merges them into one; a write touching
/// no run inserts one.
///
/// The observable behaviour is that of a per-byte loop: bytes are taken
/// left to right, so on a disagreement the gap bytes before it are
/// written and counted, the agreeing bytes before it count as overlap,
/// and the error names the first disagreeing offset. A write ending past
/// the buffer first grows it with uncovered zero bytes, even when the
/// write is empty.
class PrintCoverage {
public:
  /// \p Out becomes the printed bytes: \p Presize zero bytes when the
  /// output size is fixed up front (background fill), else empty.
  PrintCoverage(std::vector<unsigned char> &Out, size_t Presize) : Out(Out) {
    Out.assign(Presize, 0);
  }

  size_t CoveredBytes = 0; ///< bytes some leaf wrote first
  size_t OverlapBytes = 0; ///< agreeing re-writes of covered bytes
  size_t GapBytes = 0;     ///< uncovered bytes finish() filled

  /// The diagnostic of the last failed write() or finish().
  const std::string &error() const { return Err; }

  /// Writes [Data, Data + Len) at absolute offset \p Abs. Fails on a
  /// negative offset and on an overlap that disagrees with covered bytes.
  bool write(long long Abs, const unsigned char *Data, size_t Len) {
    if (Abs < 0)
      return fail("print placed bytes at negative offset " +
                  std::to_string(Abs));
    size_t At = static_cast<size_t>(Abs), End = At + Len;
    grow(End);
    if (Len == 0)
      return true;
    if (Runs.empty() || At >= Runs.back().Hi) {
      fill(At, End, Data);
      if (!Runs.empty() && Runs.back().Hi == At)
        Runs.back().Hi = End;
      else
        Runs.push_back(Run{At, End});
      return true;
    }
    return writeMerged(At, End, Data);
  }

  /// Closes the print. \p Strict: every byte of the buffer must be
  /// covered; the gap error ends with \p NotExactHint. Otherwise the
  /// background fixes the output size, so a buffer grown past
  /// \p BackgroundLen is a placement bug, not a gap; each uncovered byte
  /// is copied from \p Background.
  bool finish(bool Strict, const unsigned char *Background,
              size_t BackgroundLen, const char *NotExactHint) {
    if (Strict) {
      size_t Gap = Out.size();
      forEachGap([&](size_t Lo, size_t) {
        Gap = Lo;
        return false;
      });
      if (Gap < Out.size())
        return fail("no leaf covers output offset " + std::to_string(Gap) +
                    " (tree is not print-exact" + NotExactHint + ")");
      return true;
    }
    if (Out.size() > BackgroundLen)
      return fail("print wrote past the background (" +
                  std::to_string(Out.size()) + " > " +
                  std::to_string(BackgroundLen) + " bytes)");
    forEachGap([&](size_t Lo, size_t Hi) {
      std::memcpy(Out.data() + Lo, Background + Lo, Hi - Lo);
      GapBytes += Hi - Lo;
      return true;
    });
    return true;
  }

private:
  struct Run {
    size_t Lo, Hi;
  };

  std::vector<unsigned char> &Out;
  std::vector<Run> Runs; ///< the coverage
  std::string Err;

  bool fail(std::string Msg) {
    Err = std::move(Msg);
    return false;
  }

  void grow(size_t End) {
    if (End > Out.size())
      Out.resize(End, 0);
  }

  void fill(size_t Lo, size_t Hi, const unsigned char *Src) {
    std::memcpy(Out.data() + Lo, Src, Hi - Lo);
    CoveredBytes += Hi - Lo;
  }

  /// Compares the covered bytes [Lo, Hi) with \p Src.
  bool agree(size_t Lo, size_t Hi, const unsigned char *Src) {
    const unsigned char *Have = Out.data() + Lo;
    if (std::memcmp(Have, Src, Hi - Lo) == 0) {
      OverlapBytes += Hi - Lo;
      return true;
    }
    size_t I = 0;
    while (Have[I] == Src[I])
      ++I;
    OverlapBytes += I;
    return fail("overlapping writes disagree at output offset " +
                std::to_string(Lo + I));
  }

  /// A write that starts before the end of the last run: walks the runs
  /// it overlaps or touches, fills the gaps between them, checks the
  /// overlaps, and replaces them with one run.
  bool writeMerged(size_t At, size_t End, const unsigned char *Data) {
    // Runs are disjoint and sorted, so their ends are sorted too.
    auto First =
        std::lower_bound(Runs.begin(), Runs.end(), At,
                         [](const Run &R, size_t V) { return R.Hi < V; });
    size_t Lo = At, Hi = End, Pos = At;
    auto It = First;
    for (; It != Runs.end() && It->Lo <= End; ++It) {
      if (It->Lo > Pos) {
        fill(Pos, It->Lo, Data + (Pos - At));
        Pos = It->Lo;
      }
      size_t OverlapEnd = std::min(It->Hi, End);
      if (OverlapEnd > Pos) {
        if (!agree(Pos, OverlapEnd, Data + (Pos - At)))
          return false;
        Pos = OverlapEnd;
      }
      Lo = std::min(Lo, It->Lo);
      Hi = std::max(Hi, It->Hi);
    }
    if (Pos < End)
      fill(Pos, End, Data + (Pos - At));
    if (First == It) {
      Runs.insert(First, Run{Lo, Hi});
    } else {
      *First = Run{Lo, Hi};
      Runs.erase(First + 1, It);
    }
    return true;
  }

  /// Calls \p Fn(Lo, Hi) on each maximal uncovered [Lo, Hi) of the
  /// buffer in order, until it returns false.
  template <typename F> void forEachGap(F Fn) const {
    size_t Pos = 0;
    for (const Run &R : Runs) {
      if (R.Lo > Pos && !Fn(Pos, R.Lo))
        return;
      Pos = R.Hi;
    }
    if (Pos < Out.size())
      Fn(Pos, Out.size());
  }
};

//===----------------------------------------------------------------------===//
// Tree print walk — the inverse of parsing, shared by serialize::printTree
// (host-held trees) and the printTree every generated parser exports. The
// walk runs T-NTSucc's coordinate model backwards: each child edge
// contributes its lazy shift delta, the accumulated origin places every
// leaf absolutely, leaves copy their zero-copy windows, and blackbox nodes
// re-emit their consumed window through an inverse hook. Overlapping
// writes (memoized subtrees re-anchored under several parents) must agree
// byte for byte; uncovered bytes are gaps. Both checks live in
// PrintCoverage above.
//===----------------------------------------------------------------------===//

/// What a print span covers (serialize::PrintSpan::Kind is this type).
enum class SpanKind : uint8_t { Node, Blackbox, Leaf, Hole };

/// The print walk over one tree. \p Hooks supplies what differs between
/// the two printers:
///
///   bool isBlackbox(Symbol Name) const;  which nodes re-encode
///   std::string name(Symbol S) const;    spelling for diagnostics
///   bool encode(Symbol Name, const uint8_t *Decoded, size_t Len,
///               int64_t Value, const uint8_t *&Out, size_t &OutLen,
///               std::string &Err);       the blackbox inverse
///   bool spans() const;                  whether span() wants calls
///   void span(SpanKind K, Symbol Name, int64_t Lo, int64_t Hi,
///             uint32_t Depth);           one placed tree object
///
/// run() writes every leaf into the coverage; the caller closes the
/// print with PrintCoverage::finish. The walk is iterative, so printing a
/// tree from a loop-flattened or machine-executed deep parse never
/// consumes C stack proportional to its depth.
template <class Hooks> class PrintWalk {
public:
  PrintWalk(Hooks &H, PrintCoverage &Cov) : H(H), Cov(Cov) {}

  size_t BlackboxBytes = 0; ///< bytes the blackbox inverses produced

  /// The diagnostic of a failed run().
  const std::string &error() const { return Err; }

  bool run(const ParseTree &Root) {
    if (const NodeTree *N = asNode(&Root))
      // The root's base frame is the whole input; a root handed over as
      // a shifted view would re-anchor it elsewhere, which no engine
      // produces (a parse returns the unshifted rule result).
      return walk(*N, /*RootOrigin=*/N->shift());
    if (const LeafTree *L = asLeaf(&Root))
      return writeLeaf(*L, 0, 0);
    return fail("cannot print a bare array root");
  }

  bool fail(std::string Msg) {
    Err = std::move(Msg);
    return false;
  }

private:
  Hooks &H;
  PrintCoverage &Cov;
  std::string Err;

  /// One pending visit: a leaf to write or a node to expand. For nodes
  /// BaseOrigin is the absolute position of the node's base-local frame
  /// origin (parent origin + that edge's shift delta); for leaves it is
  /// the enclosing node's origin, which leaf offsets are relative to.
  struct Item {
    const ParseTree *T;
    int64_t BaseOrigin;
    uint32_t Depth;
  };
  std::vector<Item> Work;

  /// The node-local value of attribute \p S: env() resolves the view
  /// shift on top of the frozen base-local slots, so subtracting the
  /// shift recovers the frame leaf offsets and child shifts are relative
  /// to.
  static std::optional<int64_t> localAttr(const NodeTree &N, Symbol S,
                                          int64_t Shift) {
    std::optional<int64_t> V = N.attr(S);
    if (!V)
      return std::nullopt;
    return *V - Shift;
  }

  bool writeBytes(int64_t Abs, const uint8_t *Data, size_t Len) {
    return Cov.write(Abs, Data, Len) || fail(Cov.error());
  }

  bool writeLeaf(const LeafTree &L, int64_t BaseOrigin, uint32_t Depth) {
    int64_t Abs = BaseOrigin + L.offset();
    if (H.spans() && L.length() > 0)
      H.span(L.isHole() ? SpanKind::Hole : SpanKind::Leaf, L.holeRule(), Abs,
             Abs + static_cast<int64_t>(L.length()), Depth);
    return writeBytes(Abs,
                      reinterpret_cast<const uint8_t *>(L.bytes().data()),
                      L.length());
  }

  /// A blackbox node re-emits its consumed window [start, end) through
  /// the inverse instead of copying children: its only child is the
  /// DECODED output leaf, whose bytes never appeared in the input.
  bool writeBlackbox(const NodeTree &N, int64_t BaseOrigin) {
    int64_t Shift = N.shift();
    std::optional<int64_t> S = localAttr(N, IdStart, Shift);
    std::optional<int64_t> E = localAttr(N, IdEnd, Shift);
    std::optional<int64_t> V = N.attr(IdVal); // val is coordinate-free
    if (!S || !E || !V)
      return fail("blackbox node '" + H.name(N.name()) +
                  "' lacks val/start/end attributes");

    const uint8_t *Decoded = nullptr;
    size_t DecodedLen = 0;
    for (TreeRef C : N.children())
      if (const LeafTree *L = asLeaf(C.get())) {
        Decoded = reinterpret_cast<const uint8_t *>(L->bytes().data());
        DecodedLen = L->length();
      }

    if (*E <= *S) {
      // The untouched encoding ([sub-EOI, 0)): the blackbox consumed no
      // bytes, so there is nothing to re-emit — unless it also claims
      // decoded output, which zero input bytes cannot carry.
      if (DecodedLen)
        return fail("blackbox node '" + H.name(N.name()) +
                    "' consumed no bytes but has decoded output");
      return true;
    }

    const uint8_t *Enc = nullptr;
    size_t EncLen = 0;
    if (!H.encode(N.name(), Decoded, DecodedLen, *V, Enc, EncLen, Err))
      return false;
    if (static_cast<int64_t>(EncLen) != *E - *S)
      return fail("blackbox inverse '" + H.name(N.name()) + "' produced " +
                  std::to_string(EncLen) + " bytes for a window of " +
                  std::to_string(*E - *S));
    BlackboxBytes += EncLen;
    return writeBytes(BaseOrigin + *S, Enc, EncLen);
  }

  /// Pre-order DFS with an explicit stack: the visit order (and span
  /// order and depths) of the natural recursion, but depth-free.
  bool walk(const NodeTree &Root, int64_t RootOrigin) {
    Work.clear();
    Work.push_back(Item{&Root, RootOrigin, 0});
    while (!Work.empty()) {
      Item It = Work.back();
      Work.pop_back();
      if (const LeafTree *L = asLeaf(It.T)) {
        if (!writeLeaf(*L, It.BaseOrigin, It.Depth))
          return false;
        continue;
      }
      const NodeTree &N = *asNode(It.T);
      bool IsBlackbox = H.isBlackbox(N.name());
      if (H.spans()) {
        std::optional<int64_t> S = localAttr(N, IdStart, N.shift());
        std::optional<int64_t> E = localAttr(N, IdEnd, N.shift());
        if (S && E && *E > *S)
          H.span(IsBlackbox ? SpanKind::Blackbox : SpanKind::Node, N.name(),
                 It.BaseOrigin + *S, It.BaseOrigin + *E, It.Depth);
      }
      if (IsBlackbox) {
        if (!writeBlackbox(N, It.BaseOrigin))
          return false;
        continue;
      }
      // Queue the children, then reverse that slice so the LIFO pop
      // visits them in source order.
      size_t Mark = Work.size();
      for (TreeRef C : N.children()) {
        if (const NodeTree *Sub = asNode(C.get())) {
          Work.push_back(
              Item{Sub, It.BaseOrigin + Sub->shift(), It.Depth + 1});
        } else if (const ArrayTree *A = asArray(C.get())) {
          // Array objects carry no shift of their own: element views are
          // shifted relative to the frame that executed the for-term —
          // this node's base frame.
          for (TreeRef El : A->elements()) {
            const NodeTree *Elem = asNode(El.get());
            Work.push_back(
                Item{Elem, It.BaseOrigin + Elem->shift(), It.Depth + 1});
          }
        } else {
          Work.push_back(Item{C.get(), It.BaseOrigin, It.Depth + 1});
        }
      }
      std::reverse(Work.begin() + static_cast<std::ptrdiff_t>(Mark),
                   Work.end());
    }
    return true;
  }
};

/// The print surface of generated parsers (Parser::printTree).
struct PrintOptions {
  /// Fail on any uncovered byte. When false, gaps fill from Background
  /// (whose length fixes the output size).
  bool Strict = true;
  const unsigned char *Background = nullptr;
  size_t BackgroundLen = 0;
};

struct PrintOut {
  std::vector<unsigned char> Bytes;
  size_t CoveredBytes = 0;
  size_t GapBytes = 0;
  size_t OverlapBytes = 0;
  size_t BlackboxBytes = 0;
  std::string Error; ///< set when printTree returns false
};

/// PrintWalk hooks of generated parsers: the blackbox names and the
/// inverses registered on the Ctx that parsed the tree.
struct CtxPrintHooks {
  const Ctx &C;

  bool isBlackbox(Symbol S) const { return C.isBlackbox(S); }
  std::string name(Symbol S) const { return C.name(S); }
  bool encode(Symbol S, const uint8_t *Decoded, size_t Len, int64_t Value,
              const uint8_t *&Out, size_t &OutLen, std::string &Err) const {
    BlackboxEncOut Enc;
    if (!C.callBlackboxInverse(S, Decoded, Len, Value, Enc)) {
      Err = "blackbox inverse '" + name(S) + "' is not registered or failed";
      return false;
    }
    Out = Enc.Data;
    OutLen = Enc.Len;
    return true;
  }
  bool spans() const { return false; }
  void span(SpanKind, Symbol, int64_t, int64_t, uint32_t) {}
};

/// Serializes \p Root back into bytes; false leaves the diagnostic in
/// \p R.Error (the counters land in \p R either way). Blackbox trees need
/// an inverse registered on \p C for every blackbox the tree reached.
inline bool printTree(const ParseTree *Root, const PrintOptions &O,
                      PrintOut &R, const Ctx &C) {
  PrintCoverage Cov(R.Bytes, O.Strict ? 0 : O.BackgroundLen);
  CtxPrintHooks H{C};
  PrintWalk<CtxPrintHooks> W(H, Cov);
  bool Ok = Root ? W.run(*Root) : W.fail("cannot print a null tree");
  Ok = Ok && (Cov.finish(O.Strict, O.Background, O.BackgroundLen, "") ||
              W.fail(Cov.error()));
  R.CoveredBytes = Cov.CoveredBytes;
  R.OverlapBytes = Cov.OverlapBytes;
  R.GapBytes = Cov.GapBytes;
  R.BlackboxBytes = W.BlackboxBytes;
  if (!Ok)
    R.Error = W.error();
  return Ok;
}

//===----------------------------------------------------------------------===//
// Layout guard. A host that runs a generated parser hands the module its
// NodeStore and reads the tree the module built in place, so both sides
// must agree on the layout of every type above that crosses the boundary
// — and they may be built by different compilers. Each side hashes the
// sizeof/offsetof values of those types; the module exports its hash
// (ipg_mod_layout) and the host refuses a module whose hash differs.
//===----------------------------------------------------------------------===//

#if defined(__GNUC__) || defined(__clang__)
#pragma GCC diagnostic push
// The tree forms derive from ParseTree, so they are not standard-layout;
// both GCC and Clang compute offsetof for them all the same.
#pragma GCC diagnostic ignored "-Winvalid-offsetof"
#endif

struct Layout {
  static constexpr uint64_t hash() {
    const uint64_t Values[] = {
        sizeof(EnvSlot), offsetof(EnvSlot, Key), offsetof(EnvSlot, Value),
        sizeof(Arena), offsetof(Arena, Blocks), offsetof(Arena, Current),
        offsetof(Arena, Cur), offsetof(Arena, End),
        offsetof(Arena, NextBlockSize), offsetof(Arena, TotalAllocated),
        sizeof(Arena::Block), offsetof(Arena::Block, Memory),
        offsetof(Arena::Block, Size), sizeof(std::vector<Arena::Block>),
        sizeof(ParseTree), offsetof(ParseTree, K),
        sizeof(NodeTree), alignof(NodeTree), offsetof(NodeTree, Owner),
        offsetof(NodeTree, Name), offsetof(NodeTree, Rule),
        offsetof(NodeTree, Slots), offsetof(NodeTree, NumSlots),
        offsetof(NodeTree, ChildIds), offsetof(NodeTree, NumChildren),
        offsetof(NodeTree, Shift),
        sizeof(ArrayTree), offsetof(ArrayTree, Owner),
        offsetof(ArrayTree, Elem), offsetof(ArrayTree, ElemIds),
        offsetof(ArrayTree, NumElems),
        sizeof(LeafTree), offsetof(LeafTree, Data),
        offsetof(LeafTree, Length), offsetof(LeafTree, Offset),
        offsetof(LeafTree, Opaque), offsetof(LeafTree, Hole),
        sizeof(NodeStore), offsetof(NodeStore, Mem),
        offsetof(NodeStore, Nodes), sizeof(std::vector<const ParseTree *>),
        sizeof(std::max_align_t)};
    uint64_t H = 0xcbf29ce484222325ull; // FNV-1a over the values
    for (uint64_t V : Values)
      H = (H ^ V) * 0x100000001b3ull;
    return H;
  }
};

#if defined(__GNUC__) || defined(__clang__)
#pragma GCC diagnostic pop
#endif

/// The layout hash of the shared tree types as this compiler lays them
/// out.
inline constexpr uint64_t layoutHash() { return Layout::hash(); }

} // namespace ipg_rt

#endif // IPG_SUPPORT_GENRUNTIME_H
