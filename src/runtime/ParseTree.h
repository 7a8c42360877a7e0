//===- runtime/ParseTree.h - IPG parse trees --------------------*- C++ -*-===//
//
// Part of the IPG reproduction of "Interval Parsing Grammars for File Format
// Parsing" (PLDI 2023). MIT license.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Parse trees of the paper's semantics:
///
///   Tr ::= Node(A, E, Trs) | Array(Trs) | Leaf(s)
///
/// Nodes carry the rule's attribute environment (including the special
/// start/end attributes, already shifted into the parent's coordinate
/// system by rule T-NTSucc). Children are stored in execution order, each
/// tagged with the index of the originating term so tools can navigate by
/// grammar position.
///
/// Representation: every tree object lives in a TreeStore — a bump arena
/// plus a node index — instead of being heap-allocated individually.
/// Children are stored as 32-bit node ids into the owning store (resolved
/// through ChildList/TreeRef views), attribute environments are frozen
/// arena arrays (EnvView), and leaves are zero-copy windows into the input
/// (or into arena-copied blackbox output). T-NTSucc's coordinate shift is
/// lazy: makeShifted creates a view that shares the base node's frozen
/// env and child arrays and records only the delta, which EnvView resolves
/// on start/end reads — no environment is ever copied per child edge. A
/// whole tree costs one intrusive-refcount handle (the TreePtr root) no
/// matter how many vertices it has, and resetting the store reclaims
/// everything at once; see docs/architecture.md ("Runtime hot path").
///
/// Lifetime rules: a tree is valid while (a) its TreePtr (or any copy) is
/// alive and (b) the input buffer it parsed is alive — leaves alias the
/// input. Nodes never move once created: TreeStore growth adds arena
/// blocks, it does not relocate existing ones. The refcount is plain (not
/// atomic): a tree must be shared and released on the thread of the engine
/// that produced it, matching Interp's one-instance-per-thread contract.
///
/// Cross-thread handoff (the ParseService seam) is EXPLICIT, never
/// implicit: TreePtr::detach() turns the sole handle into a FrozenTree —
/// an owning, immutable, move-only tree whose store has been unbound from
/// its engine's recycler. Detaching is the single mutation point and must
/// happen on the engine's thread; after it the store has no refcount
/// traffic and no recycler rendezvous left, so the FrozenTree may be
/// read and destroyed on ANY thread (synchronize the handoff itself — a
/// promise/future or queue — as with any published object). No atomics
/// are involved at any point: the hot path stays plain, and thread
/// safety comes from ownership being exclusive by construction. Builds
/// with -DIPG_CHECK_OWNERSHIP=1 additionally record the owning thread
/// per store and abort on a TreePtr touched from any other thread.
///
//===----------------------------------------------------------------------===//

#ifndef IPG_RUNTIME_PARSETREE_H
#define IPG_RUNTIME_PARSETREE_H

#include "grammar/Grammar.h"
#include "runtime/Env.h"
#include "support/Arena.h"

#include <cassert>
#include <cstddef>
#include <cstdint>
#include <cstring>
#include <memory>
#include <new>
#include <optional>
#include <string>
#include <string_view>
#include <utility>
#include <vector>

#ifdef IPG_CHECK_OWNERSHIP
#include <cstdio>
#include <cstdlib>
#include <thread>
#endif

#if IPG_ATOMIC_REFCOUNT
#include <atomic>
#endif

namespace ipg {

class TreeStore;
class NodeTree;
class ArrayTree;
class LeafTree;

class ParseTree {
public:
  enum class Kind : uint8_t { Node, Array, Leaf };

  Kind kind() const { return K; }

protected:
  explicit ParseTree(Kind K) : K(K) {}
  ~ParseTree() = default; // never deleted through the base; arena-owned

private:
  Kind K;
};

/// A borrowed pointer to a tree object, with the accessor surface of the
/// shared_ptr this representation replaced (get/*/->). Owns nothing: the
/// TreeStore (via TreePtr) keeps the object alive.
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
/// with the unshifted base node, and the shift is applied to the special
/// start/end keys at read time (get and iteration both resolve it, so no
/// reader can observe unshifted coordinates).
class EnvView {
public:
  EnvView() = default;
  EnvView(const EnvSlot *Slots, uint32_t NumSlots, int64_t Shift = 0,
          Symbol SyStart = InvalidSymbol, Symbol SyEnd = InvalidSymbol)
      : Slots(Slots), NumSlots(NumSlots), Shift(Shift), SyStart(SyStart),
        SyEnd(SyEnd) {}

  /// Slot \p I with the view's lazy shift resolved.
  EnvSlot slot(uint32_t I) const {
    EnvSlot S = Slots[I];
    if (Shift != 0 && (S.Key == SyStart || S.Key == SyEnd))
      S.Value += Shift;
    return S;
  }

  std::optional<int64_t> get(Symbol S) const {
    for (uint32_t I = 0; I < NumSlots; ++I)
      if (Slots[I].Key == S)
        return slot(I).Value;
    return std::nullopt;
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
  Symbol SyStart = InvalidSymbol;
  Symbol SyEnd = InvalidSymbol;
};

/// A view over a node's children: 32-bit ids resolved lazily against the
/// owning TreeStore. Indexing yields TreeRef so existing call sites
/// (`children()[0].get()`) read unchanged.
class ChildList {
public:
  ChildList() = default;
  ChildList(const TreeStore *Store, const uint32_t *Ids, uint32_t Count)
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
  const TreeStore *Store = nullptr;
  const uint32_t *Ids = nullptr;
  uint32_t Count = 0;
};

/// Node(A, E, Trs): a successful parse of one nonterminal (or blackbox).
class NodeTree : public ParseTree {
public:
  NodeTree(const TreeStore *Owner, Symbol Name, RuleId Rule,
           const EnvSlot *Slots, uint32_t NumSlots, const uint32_t *ChildIds,
           const uint32_t *ChildTermIdx, uint32_t NumChildren)
      : ParseTree(Kind::Node), Owner(Owner), Name(Name), Rule(Rule),
        Slots(Slots), NumSlots(NumSlots), ChildIds(ChildIds),
        ChildTermIdx(ChildTermIdx), NumChildren(NumChildren) {}
  static bool classof(const ParseTree *T) { return T->kind() == Kind::Node; }

  Symbol name() const { return Name; }
  RuleId rule() const { return Rule; }
  inline EnvView env() const; // resolves the lazy shift (below)
  ChildList children() const {
    return ChildList(Owner, ChildIds, NumChildren);
  }
  /// Originating term index of child \p I (grammar-position navigation).
  uint32_t childTermIndex(size_t I) const {
    assert(I < NumChildren && "child index out of range");
    return ChildTermIdx[I];
  }

  std::optional<int64_t> attr(Symbol S) const { return env().get(S); }

  /// The lazy T-NTSucc delta of this view: the offset of the node's own
  /// local coordinate frame within its parent's (0 for directly built
  /// nodes). Child ids and leaf offsets under this node are stored in the
  /// node's local frame, so a serializer walking the tree accumulates
  /// exactly this delta per edge to recover absolute positions.
  int64_t shift() const { return Shift; }

  /// The most recent child node named \p ChildName (nullptr if none).
  const NodeTree *childNode(Symbol ChildName) const;
  /// The most recent child array whose elements are named \p ElemName.
  const ArrayTree *childArray(Symbol ElemName) const;

private:
  friend class TreeStore; // makeShifted shares the env/child arrays

  const TreeStore *Owner;
  Symbol Name;
  RuleId Rule;
  const EnvSlot *Slots;
  uint32_t NumSlots;
  const uint32_t *ChildIds;
  const uint32_t *ChildTermIdx;
  uint32_t NumChildren;
  /// Lazy T-NTSucc delta of a shifted view (0 for directly built nodes).
  /// Applied to the start/end attributes by env(); everything else in the
  /// node — slots, children — is shared with the unshifted base.
  int64_t Shift = 0;
};

/// Array(Trs): the result of a for-term; elements are NodeTrees.
class ArrayTree : public ParseTree {
public:
  ArrayTree(const TreeStore *Owner, Symbol Elem, const uint32_t *ElemIds,
            uint32_t NumElems)
      : ParseTree(Kind::Array), Owner(Owner), Elem(Elem), ElemIds(ElemIds),
        NumElems(NumElems) {}
  static bool classof(const ParseTree *T) {
    return T->kind() == Kind::Array;
  }

  Symbol elemName() const { return Elem; }
  ChildList elements() const { return ChildList(Owner, ElemIds, NumElems); }
  size_t size() const { return NumElems; }
  const NodeTree *element(size_t I) const;

private:
  const TreeStore *Owner;
  Symbol Elem;
  const uint32_t *ElemIds;
  uint32_t NumElems;
};

/// Leaf(s): a matched terminal (or blackbox output bytes). Offset is
/// relative to the enclosing node's local input. Leaves are zero-copy:
/// terminal and wildcard (`raw`) leaves alias the input buffer — the
/// behaviour Section 7 credits for the ZIP result — and blackbox output
/// leaves alias an arena copy of the decoded bytes. An opaque leaf is a
/// wildcard match whose bytes were never inspected.
///
/// A HOLE is an opaque leaf with a rule name attached: under
/// RecoveryPolicy::Salvage it stands in for a subparse that failed over
/// an already-resolved interval, aliasing the damaged bytes exactly as a
/// `raw` match would. Hole-ness changes nothing about how the leaf
/// prints or walks — only isHole()/holeRule() and the verdict machinery
/// observe it.
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
  /// The rule (or terminal owner) whose failed subparse this hole fences;
  /// InvalidSymbol for ordinary leaves.
  Symbol holeRule() const { return Hole; }

private:
  const uint8_t *Data;
  size_t Length;
  int64_t Offset;
  bool Opaque;
  Symbol Hole;
};

/// Owns every tree object of one (or, when reused, the latest) parse: a
/// bump arena for the objects themselves plus the id -> object index that
/// children are stored against. Create through the builder methods only;
/// reset() invalidates everything built so far and starts over with the
/// same memory.
///
/// Sharing: a store handed out by an engine carries a plain intrusive
/// refcount manipulated by TreePtr — no shared_ptr, no atomics, no
/// control-block allocation, and no refcount traffic on the parse result
/// path (the engine MOVES its ownership into the returned TreePtr). When
/// the last TreePtr dies the store parks itself in its owner's Recycler
/// instead of deallocating, which is how a dropped result becomes the
/// next parse's recycled store; a store without a recycler (or whose
/// owner died, or whose recycler is already holding one) deletes itself.
class TreeStore {
public:
  /// The rendezvous between an engine and the stores it loaned out.
  /// Heap-allocated by the engine and shared with every store it creates;
  /// whoever is last (engine or final TreePtr) frees it.
  struct Recycler {
    TreeStore *Returned = nullptr; ///< at most one store parked for reuse
    bool OwnerAlive = true;        ///< engine still exists
    size_t LiveStores = 0;         ///< stores bound to this recycler
  };

  explicit TreeStore(Recycler *Pool = nullptr) : Pool(Pool) {
    if (Pool)
      ++Pool->LiveStores;
#ifdef IPG_CHECK_OWNERSHIP
    Owner = std::this_thread::get_id();
#endif
  }
  TreeStore(const TreeStore &) = delete;
  TreeStore &operator=(const TreeStore &) = delete;

  /// Severs the store from its recycler: the engine will never see it
  /// again, and release()/destroy() paths stop rendezvousing with the
  /// engine's Recycler entirely. This is what makes a detached tree safe
  /// to destroy on another thread. Must run on the owning engine's
  /// thread (it touches the Recycler's plain counters).
  void unbindRecycler() {
    if (!Pool)
      return;
    Recycler *P = Pool;
    Pool = nullptr;
    if (--P->LiveStores == 0 && !P->OwnerAlive)
      delete P;
  }

  /// Re-binds a store that came home from a cross-thread trip (see
  /// Engine::adoptStore) to \p P. The store must be unbound and the call
  /// must run on the adopting engine's thread, which becomes the owner.
  void bindRecycler(Recycler *P) {
    assert(!Pool && "bindRecycler on a store that still has a recycler");
    Pool = P;
    if (P)
      ++P->LiveStores;
#ifdef IPG_CHECK_OWNERSHIP
    Owner = std::this_thread::get_id();
#endif
  }

  /// Deletes \p S and, when it was the recycler's last store and the
  /// owner is already gone, the recycler too.
  static void destroy(TreeStore *S) {
    Recycler *P = S->Pool;
    delete S;
    if (P && --P->LiveStores == 0 && !P->OwnerAlive)
      delete P;
  }

  const ParseTree *node(uint32_t Id) const {
    assert(Id < Nodes.size() && "node id out of range");
    return Nodes[Id];
  }
  size_t nodeCount() const { return Nodes.size(); }
  size_t arenaBytesUsed() const { return Mem.bytesAllocated(); }
  size_t arenaBytesReserved() const { return Mem.bytesReserved(); }

  /// Freezes \p E and the child id/term-index arrays into the arena and
  /// creates a node. The spans may point at reusable scratch storage.
  uint32_t makeNode(Symbol Name, RuleId Rule, const Env &E,
                    const uint32_t *ChildIds, const uint32_t *ChildTermIdx,
                    uint32_t NumChildren) {
    return makeNodeFromSlots(Name, Rule, E.data(),
                             static_cast<uint32_t>(E.size()), ChildIds,
                             ChildTermIdx, NumChildren);
  }

  /// One arena bump per node: the NodeTree, its frozen env and both child
  /// arrays share a single allocation of exactly the bytes the four
  /// separate copies used to take (so arena accounting is unchanged).
  uint32_t makeNodeFromSlots(Symbol Name, RuleId Rule, const EnvSlot *Slots,
                             uint32_t NumSlots, const uint32_t *ChildIds,
                             const uint32_t *ChildTermIdx,
                             uint32_t NumChildren) {
    static_assert(sizeof(NodeTree) % alignof(EnvSlot) == 0 &&
                      alignof(NodeTree) >= alignof(EnvSlot) &&
                      sizeof(EnvSlot) % alignof(uint32_t) == 0,
                  "node block layout: node, env slots, ids, term indices");
    const size_t EnvBytes = sizeof(EnvSlot) * NumSlots;
    const size_t KidBytes = sizeof(uint32_t) * NumChildren;
    auto *Block = static_cast<uint8_t *>(Mem.allocate(
        sizeof(NodeTree) + EnvBytes + 2 * KidBytes, alignof(NodeTree)));
    EnvSlot *Frozen = nullptr;
    uint32_t *Ids = nullptr, *Terms = nullptr;
    if (NumSlots) {
      Frozen = reinterpret_cast<EnvSlot *>(Block + sizeof(NodeTree));
      std::memcpy(Frozen, Slots, EnvBytes);
    }
    if (NumChildren) {
      Ids = reinterpret_cast<uint32_t *>(Block + sizeof(NodeTree) + EnvBytes);
      Terms = Ids + NumChildren;
      std::memcpy(Ids, ChildIds, KidBytes);
      std::memcpy(Terms, ChildTermIdx, KidBytes);
    }
    return addNode(new (Block) NodeTree(this, Name, Rule, Frozen, NumSlots,
                                        Ids, Terms, NumChildren));
  }

  /// Lazy shifted view of node \p BaseId (T-NTSucc): shares the frozen
  /// env and child arrays of the base node and records Delta for
  /// read-time resolution — no slot is copied. A zero delta needs no
  /// view at all (the base id is returned), and shifting an existing
  /// view composes the deltas. \p BaseId must name a NodeTree.
  uint32_t makeShifted(uint32_t BaseId, int64_t Delta, Symbol SymStart,
                       Symbol SymEnd);

  /// The start/end symbols shifted views resolve against (recorded by
  /// makeShifted; InvalidSymbol until the first shift, when no view can
  /// exist yet).
  Symbol shiftStartSym() const { return ShiftStartSym; }
  Symbol shiftEndSym() const { return ShiftEndSym; }

  uint32_t makeArray(Symbol Elem, const uint32_t *ElemIds,
                     uint32_t NumElems) {
    const uint32_t *Ids = Mem.copyArray(ElemIds, NumElems);
    return addNode(Mem.make<ArrayTree>(this, Elem, Ids, NumElems));
  }

  /// Zero-copy leaf aliasing \p Data (input bytes; caller guarantees they
  /// outlive the tree).
  uint32_t makeLeaf(const uint8_t *Data, size_t Length, int64_t Offset,
                    bool Opaque) {
    return addNode(Mem.make<LeafTree>(Data, Length, Offset, Opaque));
  }

  /// Hole leaf: a zero-copy opaque window over bytes a failed subparse of
  /// \p Rule should have covered (RecoveryPolicy::Salvage).
  uint32_t makeHole(const uint8_t *Data, size_t Length, int64_t Offset,
                    Symbol Rule) {
    return addNode(
        Mem.make<LeafTree>(Data, Length, Offset, /*Opaque=*/true, Rule));
  }

  /// Leaf over an arena-owned copy of \p Data (blackbox output).
  uint32_t makeLeafCopy(const void *Data, size_t Length, int64_t Offset) {
    return addNode(
        Mem.make<LeafTree>(Mem.copyBytes(Data, Length), Length, Offset,
                           /*Opaque=*/false));
  }

  /// Invalidates every node built so far; keeps arena blocks and index
  /// capacity so a reused store reaches an allocation-free steady state.
  void reset() {
    Mem.reset();
    Nodes.clear();
  }

private:
  friend class TreePtr;

  uint32_t addNode(const ParseTree *T) {
    Nodes.push_back(T);
    return static_cast<uint32_t>(Nodes.size() - 1);
  }

#ifdef IPG_CHECK_OWNERSHIP
  /// Debug-only single-mutator enforcement: every refcount touch must
  /// happen on the thread that owns the store (a default-constructed id
  /// — set by detach — disables the check: FrozenTree destruction is
  /// legal anywhere). Abort, not assert: the TSan job runs release
  /// builds too.
  void checkOwner() const {
    if (Owner == std::thread::id() || Owner == std::this_thread::get_id())
      return;
    std::fprintf(stderr,
                 "ipg: TreePtr refcount touched off the owning engine "
                 "thread (detach() first)\n");
    std::abort();
  }
#endif

  void retain() const {
#if IPG_ATOMIC_REFCOUNT
    // Opt-in shared-tree mode: handles may be copied on any thread, so
    // taking a reference needs no ordering beyond the count itself.
    RefCount.fetch_add(1, std::memory_order_relaxed);
#else
#ifdef IPG_CHECK_OWNERSHIP
    checkOwner();
#endif
    ++RefCount;
#endif
  }
  /// Drops one reference; on the last one the store parks itself in its
  /// recycler (owner alive, slot free) or deletes itself.
  void release() const {
#if IPG_ATOMIC_REFCOUNT
    // acq_rel so the final releaser observes every other thread's reads
    // of the tree before tearing it down (the shared_ptr discipline).
    // Cross-thread handle traffic is safe against itself; the FINAL
    // release still races the owning engine's recycler unless the
    // consumers are joined first — the documented contract for this
    // opt-in is "fan out read-only, join, then let the engine reuse".
    size_t Prev = RefCount.fetch_sub(1, std::memory_order_acq_rel);
    assert(Prev > 0 && "release without retain");
    if (Prev > 1)
      return;
#else
#ifdef IPG_CHECK_OWNERSHIP
    checkOwner();
#endif
    assert(RefCount > 0 && "release without retain");
    if (--RefCount > 0)
      return;
#endif
    TreeStore *Self = const_cast<TreeStore *>(this);
    if (Pool && Pool->OwnerAlive && !Pool->Returned) {
      Pool->Returned = Self;
      return;
    }
    destroy(Self);
  }

  Arena Mem;
  std::vector<const ParseTree *> Nodes;
  Recycler *Pool = nullptr;
#if IPG_ATOMIC_REFCOUNT
  /// Opt-in (CMake IPG_ATOMIC_REFCOUNT): atomic count so TreePtr copies
  /// may be shared across threads. The default plain count stays the hot
  /// path — atomics cost a lock-prefixed op per handle copy/drop.
  mutable std::atomic<size_t> RefCount{0};
#else
  mutable size_t RefCount = 0; ///< plain count: engine-thread only
#endif
  Symbol ShiftStartSym = InvalidSymbol;
  Symbol ShiftEndSym = InvalidSymbol;
#ifdef IPG_CHECK_OWNERSHIP
  /// The thread allowed to touch the refcount; default-constructed after
  /// detach() (meaning: any thread may destroy, none may share).
  std::thread::id Owner;
#endif
};

inline TreeRef ChildList::operator[](size_t I) const {
  assert(I < Count && "child index out of range");
  return TreeRef(Store->node(Ids[I]));
}

inline EnvView NodeTree::env() const {
  return EnvView(Slots, NumSlots, Shift,
                 Owner ? Owner->shiftStartSym() : InvalidSymbol,
                 Owner ? Owner->shiftEndSym() : InvalidSymbol);
}

/// The root handle of a parse: shares ownership of the TreeStore (one
/// plain intrusive refcount for the whole tree — the engine's result path
/// moves ownership in without touching it) and points at the root node.
/// When the last handle dies the store returns to its engine's recycler,
/// so dropping a result is what arms the next parse's allocation-free
/// store reuse. NOT thread-safe: copy, pass, and destroy handles on the
/// owning engine's thread only.
class TreePtr {
public:
  TreePtr() = default;
  /// Takes one reference on \p Store (pass the store's sole reference to
  /// realize the move-out result path: refcount 0 -> 1, no sharing).
  TreePtr(const TreeStore *Store, const ParseTree *Root)
      : Store(Store), Root(Root) {
    if (Store)
      Store->retain();
  }
  TreePtr(const TreePtr &O) : TreePtr(O.Store, O.Root) {}
  TreePtr(TreePtr &&O) noexcept : Store(O.Store), Root(O.Root) {
    O.Store = nullptr;
    O.Root = nullptr;
  }
  TreePtr &operator=(const TreePtr &O) {
    TreePtr Tmp(O);
    swap(Tmp);
    return *this;
  }
  TreePtr &operator=(TreePtr &&O) noexcept {
    TreePtr Tmp(std::move(O));
    swap(Tmp);
    return *this;
  }
  ~TreePtr() {
    if (Store)
      Store->release();
  }

  void swap(TreePtr &O) noexcept {
    std::swap(Store, O.Store);
    std::swap(Root, O.Root);
  }

  const ParseTree *get() const { return Root; }
  const ParseTree &operator*() const { return *Root; }
  const ParseTree *operator->() const { return Root; }
  explicit operator bool() const { return Root != nullptr; }

  const TreeStore *store() const { return Store; }

  /// Turns this — the SOLE handle on its store — into a FrozenTree and
  /// empties the TreePtr. The one legal way to move a parse result off
  /// the engine's thread: the store is unbound from the engine's
  /// recycler here, on the engine's thread, so nothing about the frozen
  /// tree ever rendezvouses with the engine again. Asserts sole
  /// ownership (copies would still hold plain refcounts).
  inline class FrozenTree detach();

private:
  const TreeStore *Store = nullptr;
  const ParseTree *Root = nullptr;
};

/// An owning, immutable parse result with NO ties left to the engine
/// that produced it: move-only (exclusive ownership — no refcount, no
/// atomics), safe to read and to destroy on any thread once the handoff
/// itself is synchronized (promise/future, queue). Destruction frees the
/// store; releaseStore() instead surrenders it intact so a pool can
/// route it back to a worker for Engine::adoptStore (the ParseService
/// steady-state path).
class FrozenTree {
public:
  FrozenTree() = default;
  FrozenTree(const FrozenTree &) = delete;
  FrozenTree &operator=(const FrozenTree &) = delete;
  FrozenTree(FrozenTree &&O) noexcept : Store(O.Store), Root(O.Root) {
    O.Store = nullptr;
    O.Root = nullptr;
  }
  FrozenTree &operator=(FrozenTree &&O) noexcept {
    std::swap(Store, O.Store);
    std::swap(Root, O.Root);
    return *this;
  }
  ~FrozenTree() {
    if (Store)
      TreeStore::destroy(Store);
  }

  const ParseTree *get() const { return Root; }
  const ParseTree &operator*() const { return *Root; }
  const ParseTree *operator->() const { return Root; }
  explicit operator bool() const { return Root != nullptr; }

  const TreeStore *store() const { return Store; }

  /// Gives up the store (and invalidates the tree). The caller owns it:
  /// destroy it with TreeStore::destroy or hand it to an engine via
  /// Engine::adoptStore on that engine's thread.
  TreeStore *releaseStore() {
    TreeStore *S = Store;
    Store = nullptr;
    Root = nullptr;
    return S;
  }

private:
  friend class TreePtr;
  FrozenTree(TreeStore *Store, const ParseTree *Root)
      : Store(Store), Root(Root) {}

  TreeStore *Store = nullptr;
  const ParseTree *Root = nullptr;
};

inline FrozenTree TreePtr::detach() {
  if (!Store)
    return FrozenTree();
  assert(Store->RefCount == 1 &&
         "detach() requires the sole TreePtr on the store");
  TreeStore *S = const_cast<TreeStore *>(Store);
  S->RefCount = 0; // exclusive from here on: no handle counting
  S->unbindRecycler();
#ifdef IPG_CHECK_OWNERSHIP
  S->Owner = std::thread::id(); // any thread may destroy a frozen tree
#endif
  const ParseTree *R = Root;
  Store = nullptr;
  Root = nullptr;
  return FrozenTree(S, R);
}

/// Total number of tree objects under \p T (diagnostics / benchmarks).
size_t treeSize(const ParseTree &T);

/// One hole reachable from a salvaged tree: the rule whose subparse
/// failed and the ABSOLUTE byte interval [Lo, Hi) the hole covers
/// (shifts of memoized/re-anchored ancestors already applied, exactly as
/// the Printer resolves them).
struct HoleRecord {
  Symbol Rule;
  int64_t Lo;
  int64_t Hi;
};

/// Collects every hole leaf reachable from \p Root, in pre-order, with
/// absolute intervals.
void collectHoles(const ParseTree &Root, std::vector<HoleRecord> &Out);

/// Number of hole leaves reachable from \p Root (the Salvage verdict
/// basis: 0 holes = Accept).
size_t countHoles(const ParseTree &Root);

/// Multi-line debug rendering.
std::string treeToString(const ParseTree &T, const StringInterner &Names,
                         int Indent = 0);

} // namespace ipg

#endif // IPG_RUNTIME_PARSETREE_H
