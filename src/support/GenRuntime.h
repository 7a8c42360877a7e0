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
///    into 128 bits and FlatIntervalMap is the open-addressing table with
///    tombstones and O(1) generational clear. The interpreter uses it
///    through the aliases in support/FlatHash.h; generated parsers embed
///    it directly (Ctx memoizes every non-local (rule, interval) result,
///    closing the paper's Fig.-12 gap on backtracking-heavy grammars).
///
/// 3. The embedded runtime of generated parsers: a bump-arena node store
///    with index-based children, flat attribute environments keyed by
///    emitter-assigned ids (O(1) through SlotIndex), lazy shifted-node
///    views (T-NTSucc shifts are recorded as a per-view delta and resolved
///    at read time instead of copying environments), zero-copy leaves
///    aliasing the input, per-depth frame pools, and the blackbox
///    registration hook (Section 3.4) — the same design the interpreter's
///    TreeStore uses (runtime/ParseTree.h), recycled across parses so
///    steady-state parsing performs no heap allocation.
///
/// 4. The print coverage kernel (PrintCoverage): the run-based byte
///    coverage behind both tree printers, serialize/Printer.cpp on host
///    trees and TreePrinter here on generated ones.
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
#include <string>
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

/// Attribute ids of the special start/end attributes in generated
/// environments. The emitter guarantees its name table begins with
/// "start", "end" in exactly this order.
enum : unsigned { IdStart = 0, IdEnd = 1 };

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

/// The T-NTSucc defaults for a finished subtree as seen by its parent
/// (before shifting into the parent's coordinates): an untouched subtree —
/// no start/end in its environment — reads as [sub-EOI, 0), the identity
/// elements of the min/max in updStartEnd.
inline void childSpan(bool HasStart, long long StartV, bool HasEnd,
                      long long EndV, long long SubEoi, long long &BStart,
                      long long &BEnd) {
  BStart = HasStart ? StartV : SubEoi;
  BEnd = HasEnd ? EndV : 0;
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
/// (expr/Expr.h); runtime/ParseScratch.h static_asserts the correspondence.
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
// 48 bits allow 256 TiB inputs; rule id ~0u is reserved to encode the
// empty and tombstone slot states and is asserted against.
//
// erase() leaves a tombstone so later probes keep walking; tombstones are
// reclaimed on rehash. clear() keeps capacity and is O(1) (generational),
// which is what lets a reused parser reach an allocation-free steady
// state. The interpreter consumes these types through the aliases in
// support/FlatHash.h; generated parsers embed them directly.
//===----------------------------------------------------------------------===//

/// A (rule, interval) key packed into 128 bits. Equality is exact; the
/// packing is injective for lo/hi < 2^48 and rule < 2^32 - 1.
struct IntervalKey {
  uint64_t A = 0;
  uint64_t B = 0;

  static IntervalKey pack(uint32_t Rule, uint64_t Lo, uint64_t Hi) {
    assert(Rule != ~0u && "rule id ~0 is reserved for slot sentinels");
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

/// Open-addressing hash map from IntervalKey to a small trivially copyable
/// value (parse engines store node handles and in-progress marks). Linear
/// probing, max load factor 3/4 counting tombstones, geometric growth from
/// a 64-slot floor.
template <typename V> class FlatIntervalMap {
  // Slot states are encoded in the key's A word: valid keys never carry
  // rule id ~0u, so A values with all upper 32 bits set are free for
  // sentinels and B disambiguates empty from tombstone.
  static constexpr uint64_t SentinelA = ~0ull;
  static constexpr uint64_t EmptyB = 0;
  static constexpr uint64_t TombB = 1;

  // Each slot carries the epoch it was last written in; slots from older
  // epochs read as empty, which is what makes clear() O(1): it bumps the
  // epoch instead of sweeping a table that one large parse may have grown
  // far beyond what small parses need.
  struct Slot {
    uint64_t A = SentinelA;
    uint64_t B = EmptyB;
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
        return nullptr; // stale epoch reads as empty
      if (S.A == SentinelA) {
        if (S.B == EmptyB)
          return nullptr;
        continue; // tombstone: keep probing
      }
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
    if ((Used + 1) * 4 > capacity() * 3) {
      // Grow only when live entries justify it; when the load breach is
      // mostly tombstones (the insert/erase-heavy in-progress set never
      // holds more than recursion-depth live keys), rehash in place to
      // purge them instead of doubling forever.
      size_t NewCap = capacity() ? capacity() : 64;
      if (Size * 2 >= Used)
        NewCap = capacity() ? capacity() * 2 : 64;
      rehash(NewCap);
    }
    size_t Mask = Slots.size() - 1;
    size_t Tomb = ~size_t(0);
    for (size_t I = hashOf(K) & Mask;; I = (I + 1) & Mask) {
      Slot &S = Slots[I];
      bool Fresh = S.Epoch == Epoch;
      if (Fresh && S.A != SentinelA) {
        if (S.A == K.A && S.B == K.B)
          return false;
        continue;
      }
      if (Fresh && S.B == TombB) {
        if (Tomb == ~size_t(0))
          Tomb = I;
        continue;
      }
      // Empty (stale epoch or never written): claim the first tombstone
      // on the probe path if any, so long-lived tables don't accumulate
      // displacement.
      Slot &Dst = Slots[Tomb != ~size_t(0) ? Tomb : I];
      bool Reclaimed = Tomb != ~size_t(0);
      Dst.A = K.A;
      Dst.B = K.B;
      Dst.Value = Value;
      Dst.Epoch = Epoch;
      ++Size;
      if (!Reclaimed)
        ++Used; // reusing a tombstone doesn't raise the load
      return true;
    }
  }

  /// Removes \p K (leaving a tombstone); returns whether it was present.
  bool erase(const IntervalKey &K) {
    if (Slots.empty())
      return false;
    size_t Mask = Slots.size() - 1;
    for (size_t I = hashOf(K) & Mask;; I = (I + 1) & Mask) {
      Slot &S = Slots[I];
      if (S.Epoch != Epoch)
        return false; // stale epoch reads as empty
      if (S.A == SentinelA) {
        if (S.B == EmptyB)
          return false;
        continue;
      }
      if (S.A == K.A && S.B == K.B) {
        S.A = SentinelA;
        S.B = TombB;
        S.Value = V{};
        --Size;
        return true;
      }
    }
  }

  /// Drops all entries and tombstones but keeps the slot array. O(1):
  /// bumping the epoch invalidates every slot, so a long-lived table
  /// sized by one large parse costs nothing to clear before small ones.
  void clear() {
    Size = 0;
    Used = 0;
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
  /// Occupied + tombstoned slots (what load-factor growth is gated on).
  size_t usedSlots() const { return Used; }

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
    Size = 0;
    Used = 0;
    size_t Mask = NewCap - 1;
    for (const Slot &S : Old) {
      if (S.Epoch != Epoch || S.A == SentinelA)
        continue;
      for (size_t I = hashOf({S.A, S.B}) & Mask;; I = (I + 1) & Mask) {
        if (Slots[I].Epoch != Epoch) {
          Slots[I] = S;
          ++Size;
          ++Used;
          break;
        }
      }
    }
  }

  std::vector<Slot> Slots;
  size_t Size = 0;     ///< live entries
  size_t Used = 0;     ///< live entries + tombstones this epoch
  uint32_t Epoch = 1;  ///< current generation; 0 marks never-written slots
};

//===----------------------------------------------------------------------===//
// Slot indexing (shared by the interpreter's Env and generated Frames).
//===----------------------------------------------------------------------===//

/// A generation-stamped direct map from small integer keys (interned
/// symbols / emitter-assigned attribute ids) to slot positions in a flat
/// environment. Replaces the linear scans attribute-heavy rules used to
/// pay on every get/set: lookup and record are O(1), and clear() is O(1)
/// too — it bumps a generation instead of sweeping, so per-alternative
/// environment resets stay free no matter how large the key space grew.
class SlotIndex {
public:
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

  /// Drops \p Key from this generation.
  void forget(uint32_t Key) {
    if (Key < Stamp.size())
      Stamp[Key] = 0;
  }

private:
  std::vector<uint64_t> Stamp; ///< per-key (generation << 32) | index
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
// The embedded runtime of generated parsers. The interpreter does not use
// the types below (it has its own arena store in runtime/ParseTree.h with
// the same design); they compile as part of ipg_core only so the embedded
// text can never rot unbuilt.
//===----------------------------------------------------------------------===//

/// One attribute binding; Id indexes the generated parser's name table.
struct AttrSlot {
  unsigned Id;
  long long V;
};

/// Bump allocator mirroring support/Arena.h: geometrically growing blocks,
/// reset() keeps the blocks so a recycled arena reaches an allocation-free
/// steady state. Only trivially-destructible data lives here.
class Arena {
public:
  void *allocate(size_t Bytes, size_t Align) {
    for (; Cur < Blocks.size(); ++Cur) {
      Block &B = Blocks[Cur];
      size_t At = (B.Used + Align - 1) & ~(Align - 1);
      if (At + Bytes <= B.Cap) {
        B.Used = At + Bytes;
        return B.Mem.get() + At;
      }
    }
    // Block bases come from operator new[] and are aligned to at least
    // __STDCPP_DEFAULT_NEW_ALIGNMENT__, so offset-aligning Used (above)
    // suffices for every type this runtime stores (align <= 16).
    while (NextSize < Bytes)
      NextSize *= 2;
    Blocks.push_back(Block{std::unique_ptr<unsigned char[]>(
                               new unsigned char[NextSize]),
                           NextSize, Bytes});
    NextSize *= 2;
    return Blocks.back().Mem.get();
  }

  template <class T> T *makeArray(size_t N) {
    return static_cast<T *>(allocate(sizeof(T) * (N ? N : 1), alignof(T)));
  }

  template <class T> const T *copyArray(const T *Src, size_t N) {
    if (N == 0)
      return nullptr;
    T *Dst = makeArray<T>(N);
    std::memcpy(Dst, Src, sizeof(T) * N);
    return Dst;
  }

  void reset() {
    for (Block &B : Blocks)
      B.Used = 0;
    Cur = 0;
  }

private:
  struct Block {
    std::unique_ptr<unsigned char[]> Mem;
    size_t Cap = 0;
    size_t Used = 0;
  };
  std::vector<Block> Blocks;
  size_t Cur = 0;
  size_t NextSize = 4096;
};

class Ctx;
struct Node;

/// A borrowed child handle (the accessor surface generated-parser drivers
/// use: `Root->Children[0].get()`).
struct NodeRef {
  Node *P = nullptr;
  Node *get() const { return P; }
  Node *operator->() const { return P; }
  explicit operator bool() const { return P != nullptr; }
};

/// A filtered view over a node's unified child list exposing only child
/// *nodes* (terminal leaves and arrays are reachable through kidCount()/
/// kid() and the canonical dump). Resolves ids against the owning Ctx at
/// access time, so it stays valid while the store grows.
struct ChildView {
  Ctx *C = nullptr;
  const unsigned *Ids = nullptr;
  unsigned N = 0;

  inline size_t size() const;
  bool empty() const { return size() == 0; }
  inline NodeRef operator[](size_t I) const;
};

/// One tree object. A single tagged struct covers the three tree forms of
/// the semantics (Node(A, E, Trs) / Array(Trs) / Leaf(s)); objects live in
/// the store's object vector, and their env/child arrays in its arena.
///
/// T-NTSucc's coordinate shift is LAZY: a shifted view of a finished
/// subtree shares the frozen env and child arrays of its base node and
/// records only the delta in Shift; every attribute read resolves the
/// shift on the fly (start/end only — other attributes are coordinate-
/// free). Views compose: a view of a view accumulates deltas.
struct Node {
  enum : unsigned char { KNode, KArray, KLeaf };

  unsigned char Kind = KNode;
  unsigned NameId = 0;     ///< node rule name / array element name
  const char *Name = nullptr;
  const AttrSlot *Slots = nullptr;
  unsigned NumSlots = 0;
  const unsigned *KidIds = nullptr; ///< unified children / array elements
  unsigned NumKids = 0;
  Ctx *C = nullptr;
  long long Shift = 0; ///< lazy start/end delta of a shifted view
  // Leaf payload: zero-copy window into the input.
  const unsigned char *Data = nullptr;
  size_t Len = 0;
  long long Off = 0;
  bool Opaque = false;
  /// True for nodes built by blackboxNode: their one leaf child carries
  /// DECODED bytes, so the serializer (printTree) must re-encode through
  /// the inverse hook instead of copying children. Copied along by
  /// shifted() like every other field.
  bool Bb = false;

  /// Child-node view over this node's unified child list (the accessor
  /// surface generated-parser drivers use: `Root->children()[0].get()`).
  /// Derived from KidIds/NumKids on demand so the two can never
  /// desynchronize.
  ChildView children() const { return ChildView{C, KidIds, NumKids}; }

  /// Slot \p I's value with the lazy shift resolved — the ONE place the
  /// view delta is applied (every reader, the canonical dump included,
  /// goes through it, so no path can observe unshifted coordinates).
  long long slotValue(unsigned I) const {
    long long V = Slots[I].V;
    if (Shift != 0 && (Slots[I].Id == IdStart || Slots[I].Id == IdEnd))
      V += Shift;
    return V;
  }

  /// \p Id's value with the lazy shift applied to start/end.
  bool getById(unsigned Id, long long &Out) const {
    for (unsigned I = 0; I < NumSlots; ++I)
      if (Slots[I].Id == Id) {
        Out = slotValue(I);
        return true;
      }
    return false;
  }
  inline bool get(const char *K, long long &Out) const;

  size_t kidCount() const { return NumKids; }
  inline Node *kid(size_t I) const;
};

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
/// the level parses. 16 bytes per grammar-recursion level (instead of a
/// C-stack frame) is what lets a megabyte-deep PDF `Scan`/`XNum` spine
/// fit in a few MB of heap.
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

/// The recycled store + scratch state behind one generated parser: arena,
/// object index, per-depth frame pool and per-nesting array scratch — the
/// generated twin of the interpreter's InterpState. beginParse() recycles
/// everything without releasing capacity.
class Ctx {
public:
  void setNames(const char *const *Table, size_t Count) {
    NamesTab = Table;
    NumNames = Count;
  }
  const char *name(unsigned Id) const {
    return Id < NumNames ? NamesTab[Id] : "?";
  }

  void beginParse(const unsigned char *Data) {
    Base = Data;
    A.reset();
    Objs.clear();
    Memo.clear(); // O(1) generational clear; capacity is kept
    ArrayNest = 0;
    Hard = false;
    FailName = -1;
    FailOff = -1;
    Frozen = 0;
    Hits = 0;
    Misses = 0;
    Peak = 0;
    FlatLevels.clear();
    FlatKids.clear();
    Steps.clear();
  }

  /// The recursion-depth guard is a HARD failure, as in the interpreter
  /// (InterpOptions::MaxDepth): once tripped it aborts the whole parse —
  /// no backtracking into sibling alternatives. Generated rule functions
  /// check hardFailed() after every failed alternative.
  void hardFail() { Hard = true; }
  bool hardFailed() const { return Hard; }

  /// First-failure diagnostics, the generated twin of
  /// EngineStats::FailRule/FailOffset: the first noteFail() of a parse
  /// wins (deeper failures fire first on the way out, exactly as the
  /// interpreter records them). \p NameId indexes the module name table;
  /// \p Off is the absolute input offset of the failing window.
  void noteFail(unsigned NameId, long long Off) {
    if (FailName >= 0)
      return;
    FailName = static_cast<long long>(NameId);
    FailOff = Off;
  }
  long long failNameId() const { return FailName; } ///< -1 when none
  long long failOff() const { return FailOff; }

  /// The effective recursion limit (emitted rule functions compare their
  /// Depth against it). Defaults to MaxDepth; setDepthLimit lets a
  /// driver apply EngineOptions::MaxDepth at run time — floored at 1 so
  /// the guard can never be disabled entirely.
  long long depthLimit() const { return DepthLim; }
  void setDepthLimit(long long Limit) { DepthLim = Limit < 1 ? 1 : Limit; }

  /// High-water recursion depth of the current parse — the generated twin
  /// of InterpStats::PeakDepth. Every tier reports through it: direct
  /// rule functions note their own C-stack depth, flattened loops their
  /// virtual (per-level) depth, and the step machine its task-stack
  /// height, so the figure matches the interpreter's exactly.
  void notePeak(long long Depth) {
    if (Depth > Peak)
      Peak = Depth;
  }
  long long peakDepth() const { return Peak; }

  /// Nodes frozen by successful rule alternatives in the current parse —
  /// the generated twin of InterpStats::NodesCreated (shifted views,
  /// arrays, and leaves are not counted on either side).
  size_t frozenNodeCount() const { return Frozen; }

  /// Memo table hits/misses of the current parse — the generated twins of
  /// InterpStats::MemoHits/MemoMisses.
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

  /// Binds (or rebinds) the blackbox named by \p NameId. Generated
  /// parsers expose this by name through Parser::registerBlackbox.
  void registerBlackbox(unsigned NameId, BlackboxFn Fn, void *User) {
    slotFor(NameId).Fn = Fn;
    slotFor(NameId).User = User;
  }

  /// Binds (or rebinds) the INVERSE of the blackbox named by \p NameId
  /// (Parser::registerBlackboxInverse). Only printTree consults it.
  void registerBlackboxInverse(unsigned NameId, BlackboxInvFn Fn,
                               void *User) {
    slotFor(NameId).InvFn = Fn;
    slotFor(NameId).InvUser = User;
  }

  /// Runs the registered inverse over Decoded[0, DecodedLen). Returns
  /// false when no inverse is registered or the inverse rejects; printing
  /// reports either as a print error (there is no parse to hard-fail).
  bool callBlackboxInverse(unsigned NameId, const unsigned char *Decoded,
                           size_t DecodedLen, long long Value,
                           BlackboxEncOut &Out) const {
    for (const BlackboxSlot &S : Blackboxes)
      if (S.NameId == NameId) {
        if (!S.InvFn)
          return false;
        Out = BlackboxEncOut();
        return S.InvFn(S.InvUser, Decoded, DecodedLen, Value, Out);
      }
    return false;
  }

  /// Runs the registered blackbox over Data[0, Len). Returns 1 on success
  /// and 0 on failure; an unregistered blackbox and a decoder that claims
  /// to have consumed past its slice are HARD failures (they abort the
  /// whole parse, as in the interpreter), a decoder rejection is a soft
  /// one (the enclosing term fails).
  int callBlackbox(unsigned NameId, const unsigned char *Data, size_t Len,
                   BlackboxOut &Out) {
    for (const BlackboxSlot &S : Blackboxes)
      if (S.NameId == NameId) {
        if (!S.Fn)
          break; // inverse-only slot: the forward direction is unbound
        Out = BlackboxOut();
        if (!S.Fn(S.User, Data, Len, Out))
          return 0;
        if (Out.End < 0 ||
            static_cast<unsigned long long>(Out.End) > Len) {
          noteFail(NameId, static_cast<long long>(Data - Base));
          hardFail();
          return 0;
        }
        return 1;
      }
    noteFail(NameId, static_cast<long long>(Data - Base));
    hardFail();
    return 0;
  }

  const unsigned char *base() const { return Base; }
  Node *node(unsigned Id) { return &Objs[Id]; }
  const Node *node(unsigned Id) const { return &Objs[Id]; }
  size_t nodeCount() const { return Objs.size(); }

  inline struct Frame &frameAt(size_t Depth);

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

  /// Freezes a frame's scratch env + child ids into the arena as a node.
  inline unsigned freeze(struct Frame &F, unsigned NameId);

  unsigned leaf(const unsigned char *Data, size_t Len, long long Off,
                bool Opaque) {
    Node N;
    N.Kind = Node::KLeaf;
    N.C = this;
    N.Data = Data;
    N.Len = Len;
    N.Off = Off;
    N.Opaque = Opaque;
    return add(N);
  }

  unsigned array(unsigned ElemNameId, const std::vector<unsigned> &Ids) {
    Node N;
    N.Kind = Node::KArray;
    N.C = this;
    N.NameId = ElemNameId;
    N.Name = name(ElemNameId);
    N.KidIds = A.copyArray(Ids.data(), Ids.size());
    N.NumKids = static_cast<unsigned>(Ids.size());
    return add(N);
  }

  /// Lazy shifted view of a finished subtree (T-NTSucc): the frozen env
  /// and child arrays are SHARED with the base node and only the delta is
  /// recorded; start/end resolve shifted at read time (Node::getById).
  /// A zero delta needs no view at all — the base node is its own view —
  /// and shifting an existing view composes the deltas, so memoized
  /// subtrees can be re-anchored under any number of parents without ever
  /// copying an environment.
  unsigned shifted(unsigned SubId, long long Delta) {
    if (Delta == 0)
      return SubId;
    Node N = Objs[SubId]; // copy first: add() may grow the vector
    N.Shift += Delta;
    return add(N);
  }

  /// The parent-side view of a finished subtree (childSpan defaults).
  void childSpanOf(unsigned SubId, long long SubEoi, long long &BStart,
                   long long &BEnd) const {
    const Node &N = Objs[SubId];
    long long S = 0, E = 0;
    bool HasS = N.getById(IdStart, S);
    bool HasE = N.getById(IdEnd, E);
    childSpan(HasS, S, HasE, E, SubEoi, BStart, BEnd);
  }

  /// Leaf over an arena-owned copy of \p Data (blackbox output bytes,
  /// whose lifetime ends with the callback's next invocation).
  unsigned leafCopy(const unsigned char *Data, size_t Len, long long Off) {
    return leaf(A.copyArray(Data, Len), Len, Off, /*Opaque=*/false);
  }

  /// The tree a successful blackbox term contributes, mirroring the
  /// interpreter's execBlackbox byte for byte: attributes val/start/end
  /// (an empty consumption reads as the untouched span [sub-EOI, 0) in
  /// the parent's coordinates), plus one Leaf child copying any decoded
  /// output. Counts as a frozen node, as in InterpStats::NodesCreated.
  unsigned blackboxNode(unsigned NameId, unsigned ValId,
                        const BlackboxOut &BB, long long Lo, long long Hi) {
    AttrSlot S[3];
    S[0] = AttrSlot{ValId, BB.Value};
    if (BB.End > 0) {
      S[1] = AttrSlot{IdStart, Lo};
      S[2] = AttrSlot{IdEnd, Lo + BB.End};
    } else {
      S[1] = AttrSlot{IdStart, Hi - Lo};
      S[2] = AttrSlot{IdEnd, Lo};
    }
    unsigned Kids[1] = {0};
    unsigned NumKids = 0;
    if (BB.OutputLen) {
      Kids[0] = leafCopy(BB.Output, BB.OutputLen, 0);
      NumKids = 1;
    }
    Node N;
    N.Kind = Node::KNode;
    N.C = this;
    N.NameId = NameId;
    N.Name = name(NameId);
    N.Slots = A.copyArray(S, 3);
    N.NumSlots = 3;
    N.KidIds = A.copyArray(Kids, NumKids);
    N.NumKids = NumKids;
    N.Bb = true; // printTree re-encodes this node through the inverse hook
    ++Frozen;
    return add(N);
  }

private:
  unsigned add(const Node &N) {
    Objs.push_back(N);
    return static_cast<unsigned>(Objs.size() - 1);
  }

  struct BlackboxSlot {
    unsigned NameId = 0;
    BlackboxFn Fn = nullptr;
    void *User = nullptr;
    BlackboxInvFn InvFn = nullptr;
    void *InvUser = nullptr;
  };

  BlackboxSlot &slotFor(unsigned NameId) {
    for (BlackboxSlot &S : Blackboxes)
      if (S.NameId == NameId)
        return S;
    Blackboxes.push_back(BlackboxSlot());
    Blackboxes.back().NameId = NameId;
    return Blackboxes.back();
  }

  Arena A;
  std::vector<Node> Objs;
  FlatIntervalMap<unsigned> Memo; ///< memoPack'd outcomes

  std::vector<BlackboxSlot> Blackboxes;
  std::vector<std::unique_ptr<struct Frame>> Frames;
  std::vector<std::vector<unsigned>> ElemScratch;
  std::vector<FlatLevel> FlatLevels;
  std::vector<unsigned> FlatKids;
  std::vector<Task> Steps;
  size_t ArrayNest = 0;
  bool Hard = false;
  long long FailName = -1;
  long long FailOff = -1;
  size_t Frozen = 0;
  size_t Hits = 0;
  size_t Misses = 0;
  long long Peak = 0;
  long long DepthLim = MaxDepth;
  const unsigned char *Base = nullptr;
  const char *const *NamesTab = nullptr;
  size_t NumNames = 0;
};

/// Per-alternative execution state: the scratch environment E, the ids of
/// already-built children, and per-term touch records — the generated twin
/// of the interpreter's InterpState::Frame. Frames are pooled per
/// recursion depth and reused across alternatives and parses.
struct Frame {
  const unsigned char *Base = nullptr;
  size_t Lo = 0, Hi = 0; ///< local input = Base[Lo, Hi)
  Ctx *C = nullptr;
  Frame *Lexical = nullptr; ///< enclosing frame for where-clause rules
  std::vector<AttrSlot> E;
  SlotIndex EIx; ///< O(1) id -> E position, regenerated per alternative
  /// start/end live in dedicated fields, not E slots: updStartEnd touches
  /// them on every byte-touching term, so the hottest two keys skip the
  /// index entirely. freeze() folds them back into the frozen env.
  bool HasStart = false, HasEnd = false;
  long long StartV = 0, EndV = 0;
  std::vector<unsigned> Kids;
  /// Per-term touch records, invalidated per alternative by generation
  /// stamp (a rule with many failing alternatives — every Digit-style
  /// dispatch — pays O(1) per attempt instead of refilling the array).
  struct Rec {
    unsigned Gen = 0;
    long long Start = 0;
    long long End = 0;
  };
  std::vector<Rec> Recs;
  unsigned RecGen = 0;

  void beginAlt(const unsigned char *B, size_t L, size_t H, Frame *Lex,
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

  // Own-frame environment (updStartEnd's EnvT surface). Attribute ids are
  // dense name-table indices, so a SlotIndex makes every get/set O(1)
  // where attribute-heavy rules used to pay a linear scan per access;
  // the two hottest ids (start/end) bypass even that through fields.
  bool getAttr(unsigned Id, long long &Out) const {
    if (Id <= IdEnd) {
      if (Id == IdStart ? !HasStart : !HasEnd)
        return false;
      Out = Id == IdStart ? StartV : EndV;
      return true;
    }
    uint32_t I = 0;
    if (!EIx.lookup(Id, I))
      return false;
    Out = E[I].V;
    return true;
  }
  void setAttr(unsigned Id, long long V) {
    if (Id <= IdEnd) {
      (Id == IdStart ? HasStart : HasEnd) = true;
      (Id == IdStart ? StartV : EndV) = V;
      return;
    }
    uint32_t I = 0;
    if (EIx.lookup(Id, I)) {
      E[I].V = V;
      return;
    }
    EIx.record(Id, static_cast<uint32_t>(E.size()));
    E.push_back(AttrSlot{Id, V});
  }
  void eraseAttr(unsigned Id) {
    if (Id <= IdEnd) {
      (Id == IdStart ? HasStart : HasEnd) = false;
      return;
    }
    uint32_t I = 0;
    if (!EIx.lookup(Id, I))
      return;
    E.erase(E.begin() + static_cast<long>(I));
    EIx.forget(Id);
    for (uint32_t J = I; J < E.size(); ++J)
      EIx.record(E[J].Id, J); // reseat the slots the erase slid down
  }

  /// Lexical-chain attribute lookup (sigma of Figure 8).
  bool attr(unsigned Id, long long &Out) const {
    for (const Frame *F = this; F; F = F->Lexical)
      if (F->getAttr(Id, Out))
        return true;
    return false;
  }

  /// Most recent child node named \p NameId along the lexical chain.
  Node *findNode(unsigned NameId) const {
    for (const Frame *F = this; F; F = F->Lexical)
      for (size_t I = F->Kids.size(); I-- > 0;) {
        Node *N = C->node(F->Kids[I]);
        if (N->Kind == Node::KNode && N->NameId == NameId)
          return N;
      }
    return nullptr;
  }

  /// Most recent child array with elements named \p NameId.
  Node *findArray(unsigned NameId) const {
    for (const Frame *F = this; F; F = F->Lexical)
      for (size_t I = F->Kids.size(); I-- > 0;) {
        Node *N = C->node(F->Kids[I]);
        if (N->Kind == Node::KArray && N->NameId == NameId)
          return N;
      }
    return nullptr;
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

inline Frame &Ctx::frameAt(size_t Depth) {
  while (Frames.size() <= Depth)
    Frames.push_back(std::unique_ptr<Frame>(new Frame()));
  Frame &F = *Frames[Depth];
  F.C = this;
  return F;
}

inline unsigned Ctx::freeze(Frame &F, unsigned NameId) {
  // Fold the frame's start/end fields back into the frozen env (the
  // canonical dump sorts attributes, so their position is immaterial).
  size_t Extra = (F.HasStart ? 1u : 0u) + (F.HasEnd ? 1u : 0u);
  size_t Num = F.E.size() + Extra;
  AttrSlot *Slots = nullptr;
  if (Num) {
    Slots = A.makeArray<AttrSlot>(Num);
    if (!F.E.empty())
      std::memcpy(Slots, F.E.data(), sizeof(AttrSlot) * F.E.size());
    size_t At = F.E.size();
    if (F.HasStart)
      Slots[At++] = AttrSlot{IdStart, F.StartV};
    if (F.HasEnd)
      Slots[At++] = AttrSlot{IdEnd, F.EndV};
  }
  Node N;
  N.Kind = Node::KNode;
  N.C = this;
  N.NameId = NameId;
  N.Name = name(NameId);
  N.Slots = Slots;
  N.NumSlots = static_cast<unsigned>(Num);
  N.KidIds = A.copyArray(F.Kids.data(), F.Kids.size());
  N.NumKids = static_cast<unsigned>(F.Kids.size());
  ++Frozen;
  return add(N);
}

inline size_t ChildView::size() const {
  size_t Count = 0;
  for (unsigned I = 0; I < N; ++I)
    if (C->node(Ids[I])->Kind == Node::KNode)
      ++Count;
  return Count;
}

inline NodeRef ChildView::operator[](size_t I) const {
  for (unsigned K = 0; K < N; ++K) {
    Node *Kid = C->node(Ids[K]);
    if (Kid->Kind == Node::KNode && I-- == 0)
      return NodeRef{Kid};
  }
  return NodeRef{};
}

inline bool Node::get(const char *K, long long &Out) const {
  for (unsigned I = 0; I < NumSlots; ++I)
    if (C && !std::strcmp(C->name(Slots[I].Id), K)) {
      Out = slotValue(I);
      return true;
    }
  return false;
}

inline Node *Node::kid(size_t I) const { return C->node(KidIds[I]); }

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
/// guarantees step rules are entered only from here). Depth accounting
/// matches the interpreter exactly: a push is refused (hard failure) once
/// the stack already holds depthLimit() tasks, and the peak is noted
/// after each push.
inline bool runMachine(Ctx &C, const StepFn *Fns, const unsigned *NameIds,
                       unsigned StartRule, size_t AbsLo, size_t AbsHi,
                       unsigned &Out) {
  std::vector<Task> &S = C.stepTasks();
  S.clear();
  if (static_cast<long long>(S.size()) >= C.depthLimit()) {
    C.noteFail(NameIds[StartRule], static_cast<long long>(AbsLo));
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
        C.noteFail(NameIds[T.CallRule], static_cast<long long>(T.CallLo));
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
// Canonical tree dump — the differential-testing contract. The interpreter
// side (tests/differential_test.cpp) renders its ParseTree in exactly this
// format; any byte difference is a semantic divergence.
//===----------------------------------------------------------------------===//

/// Iterative preorder: tree depth equals grammar recursion depth, so a
/// megabyte-deep linear spine must not recurse on the C stack here either.
inline void dumpTreeInto(const Node *Root, int Indent, std::string &Out) {
  std::vector<std::pair<const Node *, int>> Stack;
  Stack.emplace_back(Root, Indent);
  std::vector<std::pair<std::string, long long>> Attrs;
  while (!Stack.empty()) {
    const Node *N = Stack.back().first;
    int Ind = Stack.back().second;
    Stack.pop_back();
    Out.append(static_cast<size_t>(Ind) * 2, ' ');
    switch (N->Kind) {
    case Node::KLeaf:
      Out += "Leaf off=" + std::to_string(N->Off) +
             " len=" + std::to_string(N->Len) +
             " opaque=" + (N->Opaque ? "1" : "0") + "\n";
      continue;
    case Node::KArray:
      Out += "Array " + std::string(N->Name) + " x" +
             std::to_string(N->NumKids) + "\n";
      break;
    case Node::KNode: {
      Out += "Node " + std::string(N->Name) + " {";
      Attrs.clear();
      for (unsigned I = 0; I < N->NumSlots; ++I)
        Attrs.emplace_back(N->C->name(N->Slots[I].Id), N->slotValue(I));
      std::sort(Attrs.begin(), Attrs.end());
      for (size_t I = 0; I < Attrs.size(); ++I) {
        if (I)
          Out += ", ";
        Out += Attrs[I].first + "=" + std::to_string(Attrs[I].second);
      }
      Out += "}\n";
      break;
    }
    }
    for (unsigned I = N->NumKids; I-- > 0;)
      Stack.emplace_back(N->kid(I), Ind + 1);
  }
}

inline std::string dumpTree(const Node *Root) {
  std::string Out;
  if (Root)
    dumpTreeInto(Root, 0, Out);
  return Out;
}

//===----------------------------------------------------------------------===//
// Cross-module tree extraction. GenEngine (codegen/GenEngine.cpp) compiles
// a generated parser into a shared object and dlopens it; the parsed tree
// must then cross the .so boundary WITHOUT the host dereferencing the
// module's Node structures (two separately compiled translation units
// should share as little layout as possible). The walk therefore runs
// INSIDE the emitting module — visitTree below is embedded with the rest
// of this header — and streams the tree through the C-style callback
// table TreeVisitorC, whose layout (plain function pointers + AttrSlot,
// both standard-layout) is the entire cross-module contract.
//===----------------------------------------------------------------------===//

/// Callback table for visitTree. Attribute slots arrive RAW (base-local
/// coordinates); the node's lazy T-NTSucc delta is delivered separately
/// as \p Shift, so a host rebuilding the tree can reproduce the shared-
/// base-plus-view structure (or eagerly apply the shift — its choice).
/// \p IsBlackbox mirrors Node::Bb: such a node's leaf child carries
/// DECODED bytes living in the module's arena, which the host must copy
/// (ordinary leaves alias the parsed input buffer, which the host owns).
struct TreeVisitorC {
  void *User = nullptr;
  void (*BeginNode)(void *User, unsigned NameId, long long Shift,
                    int IsBlackbox, const AttrSlot *Slots,
                    unsigned NumSlots) = nullptr;
  void (*EndNode)(void *User) = nullptr;
  void (*BeginArray)(void *User, unsigned ElemNameId,
                     unsigned NumElems) = nullptr;
  void (*EndArray)(void *User) = nullptr;
  void (*Leaf)(void *User, const unsigned char *Data,
               unsigned long long Len, long long Off, int Opaque) = nullptr;
};

/// Streams \p N depth-first through \p V (children between Begin/End).
/// Shared subtrees (memoized nodes re-anchored under several parents as
/// lazy views) are visited once per occurrence — the stream is the tree
/// AS OBSERVED, exactly what the canonical dump renders.
inline void visitTree(const Node *Root, const TreeVisitorC &V) {
  // Iterative with an explicit cursor per level (Begin/End events bracket
  // the children): tree depth equals grammar recursion depth, which may
  // be far beyond what the C stack holds.
  struct Item {
    const Node *N;
    unsigned NextKid;
  };
  std::vector<Item> Stack;
  Stack.push_back(Item{Root, 0});
  while (!Stack.empty()) {
    Item &It = Stack.back();
    const Node *N = It.N;
    if (It.NextKid == 0) {
      if (N->Kind == Node::KLeaf) {
        V.Leaf(V.User, N->Data, N->Len, N->Off, N->Opaque ? 1 : 0);
        Stack.pop_back();
        continue;
      }
      if (N->Kind == Node::KArray)
        V.BeginArray(V.User, N->NameId, N->NumKids);
      else
        V.BeginNode(V.User, N->NameId, N->Shift, N->Bb ? 1 : 0, N->Slots,
                    N->NumSlots);
    }
    if (It.NextKid < N->NumKids) {
      unsigned K = It.NextKid++;
      Stack.push_back(Item{N->kid(K), 0}); // invalidates It
      continue;
    }
    if (N->Kind == Node::KArray)
      V.EndArray(V.User);
    else
      V.EndNode(V.User);
    Stack.pop_back();
  }
}

//===----------------------------------------------------------------------===//
// Print coverage kernel — the byte bookkeeping of BOTH tree printers
// (serialize/Printer.cpp on host trees, TreePrinter below on generated
// ones), so the two cannot drift on what a gap, an overlap or a
// disagreement is.
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
// Tree serializer — the generated twin of serialize/Printer.cpp, embedded
// into every generated parser so both execution modes can prove
// parse(print(tree)) round-trips. The walk runs T-NTSucc's coordinate
// model backwards: each child edge contributes its lazy Shift delta, the
// accumulated origin places every leaf absolutely, leaves copy their
// zero-copy windows, and blackbox nodes (Node::Bb) re-emit their consumed
// window through the inverse hook (Ctx::callBlackboxInverse). Overlapping
// writes (memoized subtrees re-anchored under several parents) must agree
// byte-for-byte; uncovered bytes are gaps — fatal in strict mode, filled
// from a caller-supplied background otherwise. Both checks live in the
// shared PrintCoverage kernel above.
//===----------------------------------------------------------------------===//

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

class TreePrinter {
public:
  TreePrinter(const PrintOptions &O, PrintOut &R)
      : O(O), R(R), Cov(R.Bytes, O.Strict ? 0 : O.BackgroundLen) {}

  /// Prints \p Root; the counters land in R whether or not it succeeds.
  bool run(const Node *Root) {
    bool Ok = walkRoot(Root);
    R.CoveredBytes = Cov.CoveredBytes;
    R.OverlapBytes = Cov.OverlapBytes;
    R.GapBytes = Cov.GapBytes;
    return Ok;
  }

private:
  const PrintOptions &O;
  PrintOut &R;
  PrintCoverage Cov;

  bool fail(const std::string &Msg) {
    R.Error = Msg;
    return false;
  }

  bool walkRoot(const Node *Root) {
    if (!Root)
      return fail("cannot print a null tree");
    if (Root->Kind == Node::KArray)
      return fail("cannot print a bare array root");
    if (Root->Kind == Node::KLeaf)
      return writeBytes(Root->Off, Root->Data, Root->Len);
    if (!walkNode(Root, Root->Shift))
      return false;
    if (!Cov.finish(O.Strict, O.Background, O.BackgroundLen, ""))
      return fail(Cov.error());
    return true;
  }

  bool writeBytes(long long Abs, const unsigned char *Data, size_t Len) {
    return Cov.write(Abs, Data, Len) || fail(Cov.error());
  }

  /// Raw (base-local) start/end of \p N: the frozen slots hold base
  /// coordinates; Shift maps them into the parent frame, which is not
  /// the frame leaf offsets under N live in.
  static bool localSpan(const Node *N, long long &S, long long &E) {
    bool HasS = false, HasE = false;
    for (unsigned I = 0; I < N->NumSlots; ++I) {
      if (N->Slots[I].Id == IdStart) {
        S = N->Slots[I].V;
        HasS = true;
      } else if (N->Slots[I].Id == IdEnd) {
        E = N->Slots[I].V;
        HasE = true;
      }
    }
    return HasS && HasE;
  }

  bool writeBlackbox(const Node *N, long long BaseOrigin) {
    long long S = 0, E = 0, Val = 0;
    bool HasVal = false;
    for (unsigned I = 0; I < N->NumSlots; ++I)
      if (N->Slots[I].Id != IdStart && N->Slots[I].Id != IdEnd) {
        Val = N->Slots[I].V;
        HasVal = true;
      }
    std::string Name(N->Name ? N->Name : "?");
    if (!localSpan(N, S, E) || !HasVal)
      return fail("blackbox node '" + Name +
                  "' lacks val/start/end attributes");

    const unsigned char *Decoded = nullptr;
    size_t DecodedLen = 0;
    for (unsigned I = 0; I < N->NumKids; ++I) {
      const Node *K = N->kid(I);
      if (K->Kind == Node::KLeaf) {
        Decoded = K->Data;
        DecodedLen = K->Len;
      }
    }

    if (E <= S) {
      // Untouched encoding ([sub-EOI, 0)): nothing was consumed.
      if (DecodedLen)
        return fail("blackbox node '" + Name +
                    "' consumed no bytes but has decoded output");
      return true;
    }

    BlackboxEncOut Enc;
    if (!N->C->callBlackboxInverse(N->NameId, Decoded, DecodedLen, Val,
                                   Enc))
      return fail("blackbox inverse '" + Name +
                  "' is not registered or failed");
    if (static_cast<long long>(Enc.Len) != E - S)
      return fail("blackbox inverse '" + Name + "' produced " +
                  std::to_string(Enc.Len) + " bytes for a window of " +
                  std::to_string(E - S));
    R.BlackboxBytes += Enc.Len;
    return writeBytes(BaseOrigin + S, Enc.Data, Enc.Len);
  }

  /// \p BaseOrigin: absolute position of N's base-local frame origin
  /// (parent origin + this edge's Shift). Iterative preorder (children
  /// pushed reversed to keep the left-to-right write order): tree depth
  /// equals grammar recursion depth, which may be far beyond what the C
  /// stack holds.
  bool walkNode(const Node *Root, long long RootOrigin) {
    std::vector<std::pair<const Node *, long long>> Stack;
    Stack.emplace_back(Root, RootOrigin);
    while (!Stack.empty()) {
      const Node *N = Stack.back().first;
      long long BaseOrigin = Stack.back().second;
      Stack.pop_back();
      if (N->Bb) {
        if (!writeBlackbox(N, BaseOrigin))
          return false;
        continue;
      }
      if (N->Kind == Node::KLeaf) {
        if (!writeBytes(BaseOrigin + N->Off, N->Data, N->Len))
          return false;
        continue;
      }
      for (unsigned I = N->NumKids; I-- > 0;) {
        const Node *K = N->kid(I);
        switch (K->Kind) {
        case Node::KLeaf:
          // Deferred like the node children so writes stay in DFS order.
          Stack.emplace_back(K, BaseOrigin);
          break;
        case Node::KNode:
          Stack.emplace_back(K, BaseOrigin + K->Shift);
          break;
        case Node::KArray:
          // Arrays carry no shift of their own; element views are shifted
          // relative to this node's base frame.
          for (unsigned J = K->NumKids; J-- > 0;)
            Stack.emplace_back(K->kid(J), BaseOrigin + K->kid(J)->Shift);
          break;
        }
      }
    }
    return true;
  }
};

/// Serializes \p Root back into bytes; false leaves the diagnostic in
/// \p R.Error. Blackbox formats must have registered inverses
/// (Parser::registerBlackboxInverse) for every blackbox the tree reached.
inline bool printTree(const Node *Root, const PrintOptions &O,
                      PrintOut &R) {
  return TreePrinter(O, R).run(Root);
}

} // namespace ipg_rt

#endif // IPG_SUPPORT_GENRUNTIME_H
