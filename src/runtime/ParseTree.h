//===- runtime/ParseTree.h - IPG parse trees --------------------*- C++ -*-===//
//
// Part of the IPG reproduction of "Interval Parsing Grammars for File Format
// Parsing" (PLDI 2023). MIT license.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Parse trees of the paper's semantics, as the host holds them:
///
///   Tr ::= Node(A, E, Trs) | Array(Trs) | Leaf(s)
///
/// The tree itself (NodeTree / ArrayTree / LeafTree, EnvView, ChildList)
/// and the store it is built into (ipg_rt::NodeStore: a bump arena plus a
/// node index, with lazy shifted views and zero-copy leaves) live in
/// support/GenRuntime.h, because every tier builds the same objects: the
/// interpreter, the bytecode VM, and generated parsers, which build
/// straight into the host's store when the host runs them in process.
/// This header adds what only the host needs: ownership. A TreeStore is a
/// NodeStore plus a plain intrusive refcount, the Recycler rendezvous
/// with the engine that loaned it out, and (in IPG_CHECK_OWNERSHIP
/// builds) the owning thread. Those fields sit outside the shared layout,
/// so a module compiled without IPG_CHECK_OWNERSHIP sees the same bytes
/// as a host built with it. A whole tree costs one handle (the TreePtr
/// root) no matter how many vertices it has, and resetting the store
/// reclaims everything at once; see docs/architecture.md ("Runtime hot
/// path").
///
/// Lifetime rules: a tree is valid while (a) its TreePtr (or any copy) is
/// alive and (b) the input buffer it parsed is alive — leaves alias the
/// input. Nodes never move once created: store growth adds arena blocks,
/// it does not relocate existing ones. The refcount is plain (not
/// atomic): a tree must be shared and released on the thread of the
/// engine that produced it, matching the one-engine-per-thread contract.
///
/// Cross-thread handoff (the ParseService seam) is EXPLICIT, never
/// implicit: TreePtr::detach() turns the sole handle into a FrozenTree —
/// an owning, immutable, move-only tree whose store has been unbound from
/// its engine's recycler. Detaching is the single mutation point and must
/// happen on the engine's thread; after it the store has no refcount
/// traffic and no recycler rendezvous left, so the FrozenTree may be
/// read and destroyed on ANY thread (synchronize the handoff itself — a
/// promise/future or queue — as with any published object). The parse
/// path uses no atomics, and thread safety comes from ownership being
/// exclusive by construction; the one atomic is the relaxed bit a
/// FrozenTree sets when its tree is first read, which tells the adopting
/// engine to claim the store's cache lines (StoreSlot::adopt). Builds
/// with -DIPG_CHECK_OWNERSHIP=1 additionally record the owning thread
/// per store and abort on a TreePtr touched from any other thread.
///
//===----------------------------------------------------------------------===//

#ifndef IPG_RUNTIME_PARSETREE_H
#define IPG_RUNTIME_PARSETREE_H

#include "grammar/Grammar.h"
#include "support/GenRuntime.h"

#include <atomic>
#include <cassert>
#include <cstddef>
#include <cstdint>
#include <string>
#include <utility>
#include <vector>

#ifdef IPG_CHECK_OWNERSHIP
#include <cstdio>
#include <cstdlib>
#include <thread>
#endif

namespace ipg {

using ipg_rt::ArrayTree;
using ipg_rt::ChildList;
using ipg_rt::EnvSlot;
using ipg_rt::EnvView;
using ipg_rt::LeafTree;
using ipg_rt::NodeTree;
using ipg_rt::ParseTree;
using ipg_rt::TreeRef;

/// A NodeStore handed out by an engine, with the host's ownership on
/// top. Sharing: a plain intrusive refcount manipulated by TreePtr — no
/// shared_ptr, no atomics, no control-block allocation, and no refcount
/// traffic on the parse result path (the engine MOVES its ownership into
/// the returned TreePtr). When the last TreePtr dies the store parks
/// itself in its owner's Recycler instead of deallocating, which is how a
/// dropped result becomes the next parse's recycled store; a store
/// without a recycler (or whose owner died, or whose recycler is already
/// holding one) deletes itself.
class TreeStore : public ipg_rt::NodeStore {
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

  /// Whether a consumer has read this store's tree since the store last
  /// came home: set by the first FrozenTree accessor that exposes the
  /// tree, and read and cleared by StoreSlot::adopt, which claims a read
  /// store's cache lines before the next parse writes into them.
  bool consumerRead() const { return Read.load(std::memory_order_relaxed); }

  /// Deletes \p S and, when it was the recycler's last store and the
  /// owner is already gone, the recycler too.
  static void destroy(TreeStore *S) {
    Recycler *P = S->Pool;
    delete S;
    if (P && --P->LiveStores == 0 && !P->OwnerAlive)
      delete P;
  }

private:
  friend class TreePtr;
  friend class FrozenTree;
  friend class StoreSlot;

  /// Load first: a tree read over and over (or on several threads at
  /// once) stores the bit once and keeps its line shared.
  void markRead() const {
    if (!Read.load(std::memory_order_relaxed))
      Read.store(true, std::memory_order_relaxed);
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
#ifdef IPG_CHECK_OWNERSHIP
    checkOwner();
#endif
    ++RefCount;
  }
  /// Drops one reference; on the last one the store parks itself in its
  /// recycler (owner alive, slot free) or deletes itself.
  void release() const {
#ifdef IPG_CHECK_OWNERSHIP
    checkOwner();
#endif
    assert(RefCount > 0 && "release without retain");
    if (--RefCount > 0)
      return;
    TreeStore *Self = const_cast<TreeStore *>(this);
    if (Pool && Pool->OwnerAlive && !Pool->Returned) {
      Pool->Returned = Self;
      return;
    }
    destroy(Self);
  }

  Recycler *Pool = nullptr;
  mutable size_t RefCount = 0; ///< plain count: engine-thread only
  /// consumerRead(). Relaxed-atomic because one FrozenTree may be read
  /// on several threads at once; the store's trip home synchronizes it
  /// with the adopting thread.
  mutable std::atomic<bool> Read{false};
#ifdef IPG_CHECK_OWNERSHIP
  /// The thread allowed to touch the refcount; default-constructed after
  /// detach() (meaning: any thread may destroy, none may share).
  std::thread::id Owner;
#endif
};

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
/// that produced it: move-only (exclusive ownership — no refcount),
/// safe to read and to destroy on any thread once the handoff itself is
/// synchronized (promise/future, queue). Destruction frees the store;
/// releaseStore() instead surrenders it intact so a pool can route it
/// back to a worker for Engine::adoptStore (the ParseService
/// steady-state path). The accessors that expose the tree mark the
/// store as read (TreeStore::consumerRead: one relaxed-atomic bit,
/// stored once); operator bool does not.
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

  const ParseTree *get() const {
    if (Store)
      Store->markRead();
    return Root;
  }
  const ParseTree &operator*() const { return *get(); }
  const ParseTree *operator->() const { return get(); }
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

/// An engine's end of the recycling protocol, shared by every engine: the
/// store the parse in flight builds into, and the Recycler that dropped
/// results park their stores in (heap-allocated, so it can outlive
/// whichever of engine and last tree dies first). Engine-thread only.
class StoreSlot {
public:
  StoreSlot() = default;
  StoreSlot(const StoreSlot &) = delete;
  StoreSlot &operator=(const StoreSlot &) = delete;
  ~StoreSlot();

  /// Readies the store the next parse builds into: the one a failed
  /// parse left behind (no result escaped it), else a parked one — both
  /// reset, keeping their memory — else a new one. Returns whether the
  /// store was recycled.
  bool acquire();

  /// The store acquire() readied.
  TreeStore &current() { return *Cur; }

  /// Moves the store into the result handle: the engine keeps no
  /// reference (zero refcount traffic on this path), and when the caller
  /// drops the TreePtr the store parks itself for the next parse.
  TreePtr take(const ParseTree *Root) {
    TreeStore *Owned = Cur;
    Cur = nullptr;
    return TreePtr(Owned, Root);
  }

  /// Engine::adoptStore: parks a store coming home from a FrozenTree
  /// round trip, declining when the engine already holds one (a spare,
  /// or the store a failed parse left behind). A store whose tree a
  /// consumer read is claimed first (NodeStore::claim); an unread one is
  /// only reset.
  bool adopt(TreeStore *Store);

private:
  TreeStore *Cur = nullptr;
  TreeStore::Recycler *Pool = new TreeStore::Recycler();
};

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
