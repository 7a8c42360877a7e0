//===- tests/arena_test.cpp - arena, tree store, flat hash ----------------===//
//
// Part of the IPG reproduction of "Interval Parsing Grammars for File Format
// Parsing" (PLDI 2023). MIT license.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Lifetime and reuse rules of the runtime's memory layer: Arena pointer
/// stability across block growth and reset/reuse semantics, tree store
/// node stability, lazy shifted views and recycling through Interp,
/// zero-copy leaf aliasing, and
/// the FlatIntervalMap's collision and generational-clear behavior under
/// adversarial interval patterns.
///
//===----------------------------------------------------------------------===//

#include "analysis/AttributeCheck.h"
#include "runtime/Interp.h"
#include "support/Casting.h"
#include "support/GenRuntime.h"

#include <cstddef>
#include <cstdint>
#include <gtest/gtest.h>
#include <optional>
#include <string>
#include <string_view>
#include <unordered_map>
#include <utility>
#include <vector>

using namespace ipg;
using ipg_rt::Arena;

//===----------------------------------------------------------------------===//
// Arena
//===----------------------------------------------------------------------===//

TEST(ArenaLifetime, PointersStableAcrossGrowth) {
  // Start with a tiny first block so the loop forces many growths; every
  // previously returned pointer must keep its value.
  Arena A(16);
  std::vector<uint64_t *> Ptrs;
  for (uint64_t I = 0; I < 4096; ++I)
    Ptrs.push_back(A.make<uint64_t>(I));
  for (uint64_t I = 0; I < Ptrs.size(); ++I)
    EXPECT_EQ(*Ptrs[I], I);
}

TEST(ArenaLifetime, ResetKeepsBlocksAndReusesThem) {
  Arena A(64);
  for (int I = 0; I < 1000; ++I)
    A.make<uint64_t>(I);
  size_t Reserved = A.bytesReserved();
  ASSERT_GT(Reserved, 0u);
  A.reset();
  EXPECT_EQ(A.bytesAllocated(), 0u);
  EXPECT_EQ(A.bytesReserved(), Reserved);
  // Refilling to the same level must not grow the reservation.
  for (int I = 0; I < 1000; ++I)
    A.make<uint64_t>(I);
  EXPECT_EQ(A.bytesReserved(), Reserved);
}

TEST(ArenaLifetime, AlignmentHonored) {
  Arena A(32);
  A.allocate(1, 1);
  void *P = A.allocate(8, 8);
  EXPECT_EQ(reinterpret_cast<uintptr_t>(P) % 8, 0u);
  A.allocate(3, 1);
  struct alignas(32) Wide { char C[32]; };
  Wide *W = A.make<Wide>();
  EXPECT_EQ(reinterpret_cast<uintptr_t>(W) % 32, 0u);
}

TEST(ArenaLifetime, CopyArrayAndBytes) {
  Arena A;
  const uint32_t Src[] = {1, 2, 3, 4};
  const uint32_t *Copy = A.copyArray(Src, 4);
  ASSERT_NE(Copy, nullptr);
  EXPECT_NE(Copy, Src);
  for (int I = 0; I < 4; ++I)
    EXPECT_EQ(Copy[I], Src[I]);
  EXPECT_EQ(A.copyArray(Src, 0), nullptr);
  const uint8_t *B = A.copyBytes("xyz", 3);
  EXPECT_EQ(std::string_view(reinterpret_cast<const char *>(B), 3), "xyz");
}

//===----------------------------------------------------------------------===//
// TreeStore
//===----------------------------------------------------------------------===//

namespace {

Grammar loadOrDie(const char *Src) {
  auto R = loadGrammar(Src);
  EXPECT_TRUE(R) << R.message();
  if (!R)
    std::abort();
  return std::move(R->G);
}

} // namespace

TEST(TreeStoreTest, NodesStableAcrossGrowth) {
  TreeStore Store;
  std::vector<EnvSlot> E = {{1, 42}};
  std::vector<const ParseTree *> Made;
  for (int I = 0; I < 2000; ++I) {
    uint32_t Id = Store.makeNode(/*Name=*/7, /*Rule=*/0, E, nullptr, 0);
    EXPECT_EQ(Id, static_cast<uint32_t>(I));
    Made.push_back(Store.node(Id));
  }
  // Ids resolve to the same objects after heavy growth, and the frozen
  // env survived.
  for (int I = 0; I < 2000; ++I) {
    const auto *N = cast<NodeTree>(Store.node(static_cast<uint32_t>(I)));
    EXPECT_EQ(N, Made[static_cast<size_t>(I)]);
    EXPECT_EQ(N->attr(1), 42);
  }
}

TEST(TreeStoreTest, ResetReusesMemory) {
  TreeStore Store;
  std::vector<EnvSlot> E = {{1, 5}};
  for (int I = 0; I < 500; ++I)
    Store.makeNode(3, 0, E, nullptr, 0);
  size_t Reserved = Store.arenaBytesReserved();
  Store.reset();
  EXPECT_EQ(Store.nodeCount(), 0u);
  for (int I = 0; I < 500; ++I)
    Store.makeNode(3, 0, E, nullptr, 0);
  EXPECT_EQ(Store.arenaBytesReserved(), Reserved);
}

TEST(TreeStoreTest, ShiftedNodeSharesChildrenAndShiftsOnlyStartEnd) {
  TreeStore Store;
  const Symbol SymStart = ipg_rt::IdStart, SymEnd = ipg_rt::IdEnd,
               SymOther = 102;
  uint32_t Leaf = Store.makeLeafCopy("ab", 2, 0);
  uint32_t Kids[1] = {Leaf};
  std::vector<EnvSlot> E = {{SymStart, 1}, {SymEnd, 3}, {SymOther, 9}};
  uint32_t Base = Store.makeNode(5, 0, E, Kids, 1);
  const auto *N = cast<NodeTree>(Store.node(Base));
  uint32_t Shifted = Store.makeShifted(Base, 10);
  ASSERT_NE(Shifted, Base);
  const auto *S = cast<NodeTree>(Store.node(Shifted));
  EXPECT_EQ(S->attr(SymStart), 11);
  EXPECT_EQ(S->attr(SymEnd), 13);
  EXPECT_EQ(S->attr(SymOther), 9);
  // The child list is shared, not copied: same object behind both.
  ASSERT_EQ(S->children().size(), 1u);
  EXPECT_EQ(S->children()[0].get(), N->children()[0].get());
  // The original is untouched (memoized nodes are shared across parents).
  EXPECT_EQ(N->attr(SymStart), 1);
  // Iterating the view's env resolves the lazy shift too — the canonical
  // dump path reads environments this way.
  bool SawStart = false;
  for (EnvSlot Slot : S->env())
    if (Slot.Key == SymStart) {
      SawStart = true;
      EXPECT_EQ(Slot.Value, 11);
    }
  EXPECT_TRUE(SawStart);
}

TEST(TreeStoreTest, ShiftedViewsNestAndAliasWithoutCopying) {
  TreeStore Store;
  const Symbol SymStart = ipg_rt::IdStart, SymEnd = ipg_rt::IdEnd;
  std::vector<EnvSlot> E = {{SymStart, 1}, {SymEnd, 3}};
  uint32_t Base = Store.makeNode(5, 0, E, nullptr, 0);
  const auto *N = cast<NodeTree>(Store.node(Base));

  // A zero delta needs no view object at all: the base is its own view.
  EXPECT_EQ(Store.makeShifted(Base, 0), Base);

  // Aliasing: many parents re-anchor one memoized node at different
  // offsets; each view resolves independently, the base never changes.
  uint32_t AtFiveId = Store.makeShifted(Base, 5);
  const auto *AtFive = cast<NodeTree>(Store.node(AtFiveId));
  const auto *AtNine = cast<NodeTree>(
      Store.node(Store.makeShifted(Base, 9)));
  EXPECT_EQ(AtFive->attr(SymStart), 6);
  EXPECT_EQ(AtNine->attr(SymStart), 10);
  EXPECT_EQ(N->attr(SymStart), 1);

  // Deep nesting: a view whose base is itself a shifted view composes
  // the deltas (lazily — no env is ever copied).
  const auto *Nested = cast<NodeTree>(
      Store.node(Store.makeShifted(AtFiveId, 100)));
  EXPECT_EQ(Nested->attr(SymStart), 106);
  EXPECT_EQ(Nested->attr(SymEnd), 108);

  // env().get and iteration agree on the resolved values.
  for (EnvSlot Slot : Nested->env()) {
    if (Slot.Key == SymStart) {
      EXPECT_EQ(Slot.Value, 106);
    }
    if (Slot.Key == SymEnd) {
      EXPECT_EQ(Slot.Value, 108);
    }
  }
}

TEST(TreeStoreTest, ComposedShiftChainsResolveAtDepthThreePlus) {
  TreeStore Store;
  const Symbol SymStart = ipg_rt::IdStart, SymEnd = ipg_rt::IdEnd,
               SymOther = 102;
  std::vector<EnvSlot> E = {{SymStart, 4}, {SymEnd, 7}, {SymOther, -2}};
  uint32_t Base = Store.makeNode(5, 0, E, nullptr, 0);

  // A four-level chain with mixed-sign deltas: each level is a view of
  // the PREVIOUS VIEW (not of the base), and every read resolves the
  // whole composition lazily — no env is copied at any level.
  uint32_t V1 = Store.makeShifted(Base, 10);
  uint32_t V2 = Store.makeShifted(V1, -3);
  uint32_t V3 = Store.makeShifted(V2, 100);
  uint32_t V4 = Store.makeShifted(V3, 1);
  const auto *N4 = cast<NodeTree>(Store.node(V4));
  EXPECT_EQ(N4->attr(SymStart), 4 + 10 - 3 + 100 + 1);
  EXPECT_EQ(N4->attr(SymEnd), 7 + 10 - 3 + 100 + 1);
  EXPECT_EQ(N4->attr(SymOther), -2); // coordinate-free: never shifted

  // Intermediate levels read their own prefix of the chain; the base is
  // untouched (it may be memo-shared under other parents).
  EXPECT_EQ(cast<NodeTree>(Store.node(V2))->attr(SymStart), 11);
  EXPECT_EQ(cast<NodeTree>(Store.node(V3))->attr(SymStart), 111);
  EXPECT_EQ(cast<NodeTree>(Store.node(Base))->attr(SymStart), 4);

  // A zero-delta link collapses instead of deepening the chain.
  EXPECT_EQ(Store.makeShifted(V3, 0), V3);

  // env() iteration — the canonical-dump and serializer read path —
  // composes identically to attr().
  for (EnvSlot Slot : N4->env()) {
    if (Slot.Key == SymStart) {
      EXPECT_EQ(Slot.Value, 112);
    }
    if (Slot.Key == SymEnd) {
      EXPECT_EQ(Slot.Value, 115);
    }
    if (Slot.Key == SymOther) {
      EXPECT_EQ(Slot.Value, -2);
    }
  }
}

//===----------------------------------------------------------------------===//
// Interp store recycling and tree lifetime
//===----------------------------------------------------------------------===//

namespace {
const char *TinyGrammar = R"(
  S -> "ab"[0, 2] {x = u8(2)} ;
)";
}

TEST(StoreRecycling, SteadyStateRecyclesWhenResultDropped) {
  Grammar G = loadOrDie(TinyGrammar);
  Interp I(G);
  std::vector<uint8_t> In = {'a', 'b', 7};
  {
    auto R1 = I.parse(ByteSpan::of(In));
    ASSERT_TRUE(R1) << R1.message();
    EXPECT_FALSE(I.stats().StoreRecycled); // first parse: fresh store
  }
  // R1 dropped: the store must be recycled, repeatedly.
  for (int K = 0; K < 3; ++K) {
    auto R = I.parse(ByteSpan::of(In));
    ASSERT_TRUE(R) << R.message();
    EXPECT_TRUE(I.stats().StoreRecycled);
  }
}

TEST(StoreRecycling, RecycledStoreSurvivesTreePtrMoves) {
  Grammar G = loadOrDie(TinyGrammar);
  Interp I(G);
  std::vector<uint8_t> In = {'a', 'b', 4};
  {
    auto R = I.parse(ByteSpan::of(In));
    ASSERT_TRUE(R) << R.message();
    // The engine moved its sole reference into *R; keep moving it. The
    // store must come back to the recycler EXACTLY once no matter how
    // many moved-from shells die along the way.
    TreePtr A = std::move(*R);
    TreePtr B(std::move(A));
    TreePtr C;
    C = std::move(B);
    EXPECT_EQ(A.get(), nullptr);
    EXPECT_EQ(B.get(), nullptr);
    EXPECT_EQ(cast<NodeTree>(C.get())->attr(G.intern("x")), 4);
  } // last live handle dies here
  // Both the park (above) and the re-park after reuse must work.
  for (int K = 0; K < 2; ++K) {
    auto R = I.parse(ByteSpan::of(In));
    ASSERT_TRUE(R) << R.message();
    EXPECT_TRUE(I.stats().StoreRecycled);
  }
}

TEST(StoreRecycling, MoveAssignOverLiveTreeReturnsTheOldStore) {
  Grammar G = loadOrDie(TinyGrammar);
  Interp I(G);
  std::vector<uint8_t> In = {'a', 'b', 1};
  auto R1 = I.parse(ByteSpan::of(In));
  ASSERT_TRUE(R1);
  TreePtr Held = std::move(*R1);
  auto R2 = I.parse(ByteSpan::of(In)); // Held alive -> fresh store
  ASSERT_TRUE(R2);
  EXPECT_FALSE(I.stats().StoreRecycled);
  // Move-assigning over a live tree drops the FIRST store's last
  // reference mid-assignment; it must park, and the handle must end up
  // owning the second store.
  Held = std::move(*R2);
  EXPECT_EQ(cast<NodeTree>(Held.get())->attr(G.intern("x")), 1);
  auto R3 = I.parse(ByteSpan::of(In));
  ASSERT_TRUE(R3);
  EXPECT_TRUE(I.stats().StoreRecycled);
}

TEST(StoreRecycling, HeldResultForcesFreshStoreAndStaysValid) {
  Grammar G = loadOrDie(TinyGrammar);
  Interp I(G);
  std::vector<uint8_t> In1 = {'a', 'b', 1};
  std::vector<uint8_t> In2 = {'a', 'b', 2};
  auto R1 = I.parse(ByteSpan::of(In1));
  ASSERT_TRUE(R1);
  auto R2 = I.parse(ByteSpan::of(In2));
  ASSERT_TRUE(R2);
  EXPECT_FALSE(I.stats().StoreRecycled); // R1 still alive
  // Both trees readable, with their own attribute values.
  EXPECT_EQ(cast<NodeTree>(R1->get())->attr(G.intern("x")), 1);
  EXPECT_EQ(cast<NodeTree>(R2->get())->attr(G.intern("x")), 2);
}

TEST(StoreRecycling, TreeOutlivesInterp) {
  Grammar G = loadOrDie(TinyGrammar);
  std::vector<uint8_t> In = {'a', 'b', 9};
  TreePtr Kept;
  {
    Interp I(G);
    auto R = I.parse(ByteSpan::of(In));
    ASSERT_TRUE(R);
    Kept = *R;
  }
  // The TreePtr shares ownership of the store; the engine is gone.
  EXPECT_EQ(cast<NodeTree>(Kept.get())->attr(G.intern("x")), 9);
}

TEST(ZeroCopy, TerminalLeavesAliasTheInputBuffer) {
  Grammar G = loadOrDie(R"(S -> "hello"[0, 5] raw[5, EOI] ;)");
  std::vector<uint8_t> In = {'h', 'e', 'l', 'l', 'o', 'X', 'Y'};
  Interp I(G);
  auto R = I.parse(ByteSpan::of(In));
  ASSERT_TRUE(R) << R.message();
  const auto *Root = cast<NodeTree>(R->get());
  ASSERT_EQ(Root->children().size(), 2u);
  const auto *Lit = cast<LeafTree>(Root->children()[0].get());
  const auto *Raw = cast<LeafTree>(Root->children()[1].get());
  // Zero-copy: leaf bytes point directly into the input vector.
  EXPECT_EQ(reinterpret_cast<const uint8_t *>(Lit->bytes().data()),
            In.data());
  EXPECT_EQ(Lit->bytes(), "hello");
  EXPECT_FALSE(Lit->isOpaque());
  EXPECT_TRUE(Raw->isOpaque());
  EXPECT_EQ(reinterpret_cast<const uint8_t *>(Raw->bytes().data()),
            In.data() + 5);
  EXPECT_EQ(Raw->length(), 2u);
}

//===----------------------------------------------------------------------===//
// FlatIntervalMap
//===----------------------------------------------------------------------===//

TEST(FlatHashTest, PackIsInjectiveOnEdgePatterns) {
  // Keys differing in exactly one component — including across the 16-bit
  // boundary the lo field is split at — must stay distinct.
  const uint64_t Big = (1ull << 48) - 1;
  std::vector<ipg_rt::IntervalKey> Keys = {
      ipg_rt::IntervalKey::pack(0, 0, 0),
      ipg_rt::IntervalKey::pack(1, 0, 0),
      ipg_rt::IntervalKey::pack(0, 1, 0),
      ipg_rt::IntervalKey::pack(0, 0, 1),
      ipg_rt::IntervalKey::pack(0, 1ull << 16, 0),
      ipg_rt::IntervalKey::pack(0, Big, Big),
      ipg_rt::IntervalKey::pack(~0u - 1, Big, 0),
      ipg_rt::IntervalKey::pack(0, 0, Big),
      ipg_rt::IntervalKey::pack(0, 0x1FFFF, 0),
      ipg_rt::IntervalKey::pack(0, 0xFFFF, 0),
  };
  for (size_t I = 0; I < Keys.size(); ++I)
    for (size_t J = I + 1; J < Keys.size(); ++J)
      EXPECT_FALSE(Keys[I] == Keys[J]) << I << " vs " << J;
}

TEST(FlatHashTest, InsertFindBasics) {
  ipg_rt::FlatIntervalMap<int> M;
  EXPECT_EQ(M.find(ipg_rt::IntervalKey::pack(1, 2, 3)), nullptr);
  EXPECT_TRUE(M.insert(ipg_rt::IntervalKey::pack(1, 2, 3), 7));
  EXPECT_FALSE(M.insert(ipg_rt::IntervalKey::pack(1, 2, 3), 8)); // no overwrite
  ASSERT_NE(M.find(ipg_rt::IntervalKey::pack(1, 2, 3)), nullptr);
  EXPECT_EQ(*M.find(ipg_rt::IntervalKey::pack(1, 2, 3)), 7);
  EXPECT_EQ(M.find(ipg_rt::IntervalKey::pack(1, 2, 4)), nullptr);
  EXPECT_EQ(M.size(), 1u);
}

TEST(FlatHashTest, AdversarialIntervalPatternsCollideCorrectly) {
  // The memo table's real access pattern: one rule over thousands of
  // overlapping slices — (r, i, j) for all i <= j — which forces heavy
  // probe-sequence sharing in a small table. Mirror against a reference
  // map.
  ipg_rt::FlatIntervalMap<int> M;
  std::unordered_map<uint64_t, int> Ref;
  int V = 0;
  const uint64_t N = 60;
  for (uint64_t Lo = 0; Lo < N; ++Lo)
    for (uint64_t Hi = Lo; Hi < N; ++Hi) {
      EXPECT_TRUE(M.insert(ipg_rt::IntervalKey::pack(3, Lo, Hi), V));
      Ref[Lo * N + Hi] = V;
      ++V;
    }
  EXPECT_EQ(M.size(), Ref.size());
  for (uint64_t Lo = 0; Lo < N; ++Lo)
    for (uint64_t Hi = Lo; Hi < N; ++Hi) {
      int *P = M.find(ipg_rt::IntervalKey::pack(3, Lo, Hi));
      ASSERT_NE(P, nullptr);
      EXPECT_EQ(*P, Ref[Lo * N + Hi]);
    }
  // Keys never inserted (Hi < Lo) must miss even though their probe paths
  // run through fully loaded clusters.
  for (uint64_t Lo = 1; Lo < N; ++Lo)
    EXPECT_EQ(M.find(ipg_rt::IntervalKey::pack(3, Lo, Lo - 1)), nullptr);
}

TEST(FlatHashTest, ClearIsGenerationalAcrossManyEpochs) {
  // clear() bumps an epoch instead of sweeping; stale slots must read as
  // empty in every later generation, and per-epoch contents must never
  // bleed through. Each epoch inserts a different key subset, so a key
  // the previous epoch held and this one skips must miss.
  ipg_rt::FlatIntervalMap<int> M;
  for (int Epoch = 0; Epoch < 50; ++Epoch) {
    for (uint64_t I = 0; I < 100; ++I) {
      if ((I + Epoch) % 3 != 0) {
        EXPECT_TRUE(M.insert(ipg_rt::IntervalKey::pack(1, I, I + 1), Epoch))
            << Epoch;
      }
    }
    for (uint64_t I = 0; I < 100; ++I) {
      int *P = M.find(ipg_rt::IntervalKey::pack(1, I, I + 1));
      if ((I + Epoch) % 3 == 0) {
        EXPECT_EQ(P, nullptr) << Epoch << "/" << I;
      } else {
        ASSERT_NE(P, nullptr) << Epoch << "/" << I;
        EXPECT_EQ(*P, Epoch);
      }
    }
    M.clear();
    EXPECT_EQ(M.size(), 0u);
    EXPECT_EQ(M.find(ipg_rt::IntervalKey::pack(1, 1, 2)), nullptr) << Epoch;
  }
}

TEST(FlatHashTest, ClearKeepsCapacity) {
  ipg_rt::FlatIntervalMap<int> M;
  for (uint64_t I = 0; I < 1000; ++I)
    M.insert(ipg_rt::IntervalKey::pack(1, I, I + 1), static_cast<int>(I));
  size_t Cap = M.capacity();
  M.clear();
  EXPECT_EQ(M.size(), 0u);
  EXPECT_EQ(M.capacity(), Cap);
  EXPECT_EQ(M.find(ipg_rt::IntervalKey::pack(1, 5, 6)), nullptr);
  // Reusable after clear.
  EXPECT_TRUE(M.insert(ipg_rt::IntervalKey::pack(1, 5, 6), 42));
  EXPECT_EQ(*M.find(ipg_rt::IntervalKey::pack(1, 5, 6)), 42);
}
