//===- tests/genruntime_test.cpp - embedded runtime (ipg_rt) --------------===//
//
// Part of the IPG reproduction of "Interval Parsing Grammars for File Format
// Parsing" (PLDI 2023). MIT license.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Unit coverage for the pieces of the shared runtime (support/GenRuntime.h)
/// that generated parsers embed: the (rule, interval) memo table under the
/// adversarial collision/tombstone/generational-clear patterns mirrored
/// from tests/arena_test.cpp (which exercises the same code through the
/// ipg aliases), lazy shifted-node views built through a Ctx including
/// deep nesting (a view whose base is itself a view) and aliasing (many
/// views over one base), the O(1) SlotIndex behind environments, and the
/// blackbox hook's node construction. Runs under the ASan+UBSan CI job
/// like every suite.
///
//===----------------------------------------------------------------------===//

#include "support/GenRuntime.h"

#include <cstddef>
#include <cstdint>
#include <gtest/gtest.h>
#include <string>
#include <unordered_map>
#include <vector>

using namespace ipg_rt;

namespace {

/// A tiny name table indexed by Symbol: 1..4 are the symbols every
/// grammar interns first (start/end/EOI/val); the rest are free.
const char *const Names[] = {"<invalid>", "start", "end", "EOI",
                             "val",       "A",     "x",   "bb"};
constexpr size_t NumNames = sizeof(Names) / sizeof(Names[0]);
constexpr Symbol IdA = 5, IdX = 6, IdBb = 7;

/// A Ctx mid-parse, building into its own store.
struct Parsing {
  Ctx C;
  NodeStore S;
  Parsing() {
    C.setNames(Names, NumNames);
    C.beginParse(nullptr, S);
  }
  const NodeTree &node(uint32_t Id) const { return *asNode(C.node(Id)); }
};

/// Builds a frozen node with the given start/end/x attributes through the
/// same Frame path generated code uses.
unsigned freezeNode(Ctx &C, long long Start, long long End, long long X) {
  Frame &F = C.frameAt(0);
  F.beginAlt(nullptr, 0, 16, nullptr, 0);
  F.setAttr(IdStart, Start);
  F.setAttr(IdEnd, End);
  F.setAttr(IdX, X);
  return C.freeze(F, IdA, /*Rule=*/0);
}

} // namespace

//===----------------------------------------------------------------------===//
// FlatIntervalMap (the embedded twin of the interpreter's memo table)
//===----------------------------------------------------------------------===//

TEST(GenRuntimeFlatHash, AdversarialIntervalPatternsCollideCorrectly) {
  // One rule over thousands of overlapping slices — heavy probe-sequence
  // sharing in a small table — mirrored against a reference map.
  FlatIntervalMap<int> M;
  std::unordered_map<uint64_t, int> Ref;
  int V = 0;
  const uint64_t N = 60;
  for (uint64_t Lo = 0; Lo < N; ++Lo)
    for (uint64_t Hi = Lo; Hi < N; ++Hi) {
      EXPECT_TRUE(M.insert(IntervalKey::pack(3, Lo, Hi), V));
      Ref[Lo * N + Hi] = V;
      ++V;
    }
  EXPECT_EQ(M.size(), Ref.size());
  for (uint64_t Lo = 0; Lo < N; ++Lo)
    for (uint64_t Hi = Lo; Hi < N; ++Hi) {
      int *P = M.find(IntervalKey::pack(3, Lo, Hi));
      ASSERT_NE(P, nullptr);
      EXPECT_EQ(*P, Ref[Lo * N + Hi]);
    }
  for (uint64_t Lo = 1; Lo < N; ++Lo)
    EXPECT_EQ(M.find(IntervalKey::pack(3, Lo, Lo - 1)), nullptr);
}

TEST(GenRuntimeFlatHash, GenerationalClearKeepsCapacityAndIsolation) {
  FlatIntervalMap<int> M;
  size_t CapAfterFirst = 0;
  for (int Epoch = 0; Epoch < 50; ++Epoch) {
    // A different key subset per epoch: a key the previous epoch held and
    // this one skips must miss.
    for (uint64_t I = 0; I < 100; ++I) {
      if ((I + Epoch) % 3 != 0) {
        EXPECT_TRUE(M.insert(IntervalKey::pack(1, I, I + 1), Epoch));
      }
    }
    for (uint64_t I = 0; I < 100; ++I) {
      int *P = M.find(IntervalKey::pack(1, I, I + 1));
      if ((I + Epoch) % 3 == 0) {
        EXPECT_EQ(P, nullptr) << Epoch << "/" << I;
      } else {
        ASSERT_NE(P, nullptr) << Epoch << "/" << I;
        EXPECT_EQ(*P, Epoch); // no bleed-through from older epochs
      }
    }
    M.clear();
    EXPECT_EQ(M.size(), 0u);
    EXPECT_EQ(M.find(IntervalKey::pack(1, 1, 2)), nullptr);
    if (Epoch == 0)
      CapAfterFirst = M.capacity();
    else
      EXPECT_EQ(M.capacity(), CapAfterFirst) << "clear() must keep capacity";
  }
}

//===----------------------------------------------------------------------===//
// SlotIndex (the O(1) environment index behind Env and Frame)
//===----------------------------------------------------------------------===//

TEST(GenRuntimeSlotIndex, RecordLookupForgetAndGenerationalClear) {
  SlotIndex Ix;
  uint32_t Out = 0;
  EXPECT_FALSE(Ix.lookup(0, Out));
  EXPECT_FALSE(Ix.lookup(1000, Out));

  Ix.record(7, 0);
  Ix.record(300, 1);
  ASSERT_TRUE(Ix.lookup(7, Out));
  EXPECT_EQ(Out, 0u);
  ASSERT_TRUE(Ix.lookup(300, Out));
  EXPECT_EQ(Out, 1u);

  Ix.record(7, 5); // overwrite
  ASSERT_TRUE(Ix.lookup(7, Out));
  EXPECT_EQ(Out, 5u);

  Ix.forget(7);
  EXPECT_FALSE(Ix.lookup(7, Out));
  ASSERT_TRUE(Ix.lookup(300, Out)); // unaffected

  Ix.clear(); // generation bump: everything gone, no sweep
  EXPECT_FALSE(Ix.lookup(300, Out));
  Ix.record(300, 9);
  ASSERT_TRUE(Ix.lookup(300, Out));
  EXPECT_EQ(Out, 9u);
}

TEST(GenRuntimeSlotIndex, FrameEnvironmentUsesTheIndexConsistently) {
  Ctx C;
  C.setNames(Names, NumNames);
  Frame &F = C.frameAt(0);
  F.beginAlt(nullptr, 0, 8, nullptr, 0);

  long long V = 0;
  EXPECT_FALSE(F.getAttr(IdX, V));
  F.setAttr(IdX, 1);
  F.setAttr(IdA, 2);
  F.setAttr(IdVal, 3);
  F.setAttr(IdX, 10); // overwrite in place, no duplicate slot
  ASSERT_EQ(F.E.size(), 3u);
  ASSERT_TRUE(F.getAttr(IdX, V));
  EXPECT_EQ(V, 10);

  // Erasing a middle slot reseats the indices of the slots that slid.
  F.eraseAttr(IdA);
  ASSERT_EQ(F.E.size(), 2u);
  EXPECT_FALSE(F.getAttr(IdA, V));
  ASSERT_TRUE(F.getAttr(IdX, V));
  EXPECT_EQ(V, 10);
  ASSERT_TRUE(F.getAttr(IdVal, V));
  EXPECT_EQ(V, 3);

  // beginAlt invalidates every binding by generation, not by sweep.
  F.beginAlt(nullptr, 0, 8, nullptr, 0);
  EXPECT_FALSE(F.getAttr(IdX, V));
  EXPECT_FALSE(F.getAttr(IdVal, V));
  F.setAttr(IdVal, 4);
  ASSERT_TRUE(F.getAttr(IdVal, V));
  EXPECT_EQ(V, 4);
}

//===----------------------------------------------------------------------===//
// Lazy shifted views
//===----------------------------------------------------------------------===//

TEST(GenRuntimeShiftedViews, ViewsShareSlotsAndResolveAtReadTime) {
  Parsing P;
  unsigned Base = freezeNode(P.C, 1, 3, 9);
  size_t Before = P.S.arenaBytesUsed();
  unsigned View = P.C.shifted(Base, 10);
  ASSERT_NE(View, Base);

  // The view shares the base's slot and child arrays — the only arena
  // bytes it takes are its own NodeTree.
  EXPECT_EQ(P.S.arenaBytesUsed() - Before, sizeof(NodeTree));

  EXPECT_EQ(P.node(View).attr(IdStart), 11);
  EXPECT_EQ(P.node(View).attr(IdEnd), 13);
  // Coordinate-free attributes are untouched.
  EXPECT_EQ(P.node(View).attr(IdX), 9);
  bool SawStart = false;
  for (EnvSlot Slot : P.node(View).env())
    if (Slot.Key == IdStart) {
      SawStart = true;
      EXPECT_EQ(Slot.Value, 11); // iteration resolves the shift too
    }
  EXPECT_TRUE(SawStart);

  // The base is unchanged (memoized nodes are shared across parents).
  EXPECT_EQ(P.node(Base).attr(IdStart), 1);

  // A zero delta needs no view object at all.
  EXPECT_EQ(P.C.shifted(Base, 0), Base);
}

TEST(GenRuntimeShiftedViews, DeepNestingComposesDeltas) {
  Parsing P;
  unsigned Base = freezeNode(P.C, 1, 3, 9);
  // A view whose base is itself a view: deltas accumulate, and every
  // level still aliases the one frozen slot array.
  size_t Before = P.S.arenaBytesUsed();
  unsigned V1 = P.C.shifted(Base, 10);
  unsigned V2 = P.C.shifted(V1, 100);
  unsigned V3 = P.C.shifted(V2, 1000);
  EXPECT_EQ(P.S.arenaBytesUsed() - Before, 3 * sizeof(NodeTree));
  EXPECT_EQ(P.node(V3).attr(IdStart), 1111);
  EXPECT_EQ(P.node(V3).attr(IdEnd), 1113);
  // Intermediate views are independent readers of the shared slots.
  EXPECT_EQ(P.node(V1).attr(IdStart), 11);
  EXPECT_EQ(P.node(V2).attr(IdStart), 111);
}

TEST(GenRuntimeShiftedViews, AliasedViewsAndSpansAndDumps) {
  Parsing P;
  Ctx &C = P.C;
  unsigned Base = freezeNode(C, 1, 3, 9);
  // Many parents re-anchor one memoized subtree at different offsets.
  unsigned AtFive = C.shifted(Base, 5);
  unsigned AtSeven = C.shifted(Base, 7);
  EXPECT_EQ(P.node(AtFive).attr(IdStart), 6);
  EXPECT_EQ(P.node(AtSeven).attr(IdStart), 8);

  // childSpanOf (the T-NTSucc parent view) resolves shifts too.
  long long BS = 0, BE = 0;
  C.childSpanOf(AtFive, 16, BS, BE);
  EXPECT_EQ(BS, 6);
  EXPECT_EQ(BE, 8);

  // An untouched node (no start/end) reads as [sub-EOI, 0) regardless.
  Frame &F = C.frameAt(0);
  F.beginAlt(nullptr, 0, 16, nullptr, 0);
  F.setAttr(IdX, 1);
  unsigned Untouched = C.freeze(F, IdA, /*Rule=*/0);
  C.childSpanOf(Untouched, 16, BS, BE);
  EXPECT_EQ(BS, 16);
  EXPECT_EQ(BE, 0);

  // The canonical dump (the differential-test contract) prints resolved
  // coordinates.
  std::string D = dumpTree(C.node(AtSeven), Names, NumNames);
  EXPECT_NE(D.find("start=8"), std::string::npos) << D;
  EXPECT_NE(D.find("end=10"), std::string::npos) << D;
  EXPECT_NE(D.find("x=9"), std::string::npos) << D;
}

TEST(GenRuntimeShiftedViews, PrinterComposesShiftDeltasAcrossThreeLevels) {
  Parsing P;
  Ctx &C = P.C;
  static const unsigned char Ab[] = {'a', 'b'}, Cd[] = {'c', 'd'},
                             Ef[] = {'e', 'f'};

  // Innermost node: one leaf at local offset 0.
  Frame &FG = C.frameAt(2);
  FG.beginAlt(nullptr, 0, 2, nullptr, 0);
  FG.setAttr(IdStart, 0);
  FG.setAttr(IdEnd, 2);
  FG.Kids.push_back(C.leaf(Ef, 2, 0, false));
  unsigned GcBase = C.freeze(FG, IdA, /*Rule=*/0);

  // Middle node: its own leaf, plus the innermost subtree re-anchored
  // two bytes in (the T-NTSucc shape).
  Frame &FM = C.frameAt(1);
  FM.beginAlt(nullptr, 0, 4, nullptr, 0);
  FM.setAttr(IdStart, 0);
  FM.setAttr(IdEnd, 4);
  FM.Kids.push_back(C.leaf(Cd, 2, 0, false));
  FM.Kids.push_back(C.shifted(GcBase, 2));
  unsigned MidBase = C.freeze(FM, IdA, /*Rule=*/0);

  // Root: a leaf plus the middle subtree, itself re-anchored.
  Frame &FR = C.frameAt(0);
  FR.beginAlt(nullptr, 0, 6, nullptr, 0);
  FR.setAttr(IdStart, 0);
  FR.setAttr(IdEnd, 6);
  FR.Kids.push_back(C.leaf(Ab, 2, 0, false));
  FR.Kids.push_back(C.shifted(MidBase, 2));
  unsigned Root = C.freeze(FR, IdA, /*Rule=*/0);

  // Every stored leaf offset is 0; only the accumulated view deltas can
  // place the bytes. The printer's origin walk must compose them across
  // three node levels: innermost leaf at 0 (root) + 2 (mid) + 2 (gc).
  PrintOptions O;
  PrintOut R;
  ASSERT_TRUE(printTree(C.node(Root), O, R, C)) << R.Error;
  EXPECT_EQ(std::string(R.Bytes.begin(), R.Bytes.end()), "abcdef");
  EXPECT_EQ(R.CoveredBytes, 6u);
  EXPECT_EQ(R.GapBytes, 0u);
  EXPECT_EQ(R.OverlapBytes, 0u);

  // The same tree through a view-of-a-view root (chained deltas 1 + 2 on
  // the middle node): the subtree shifts as one rigid unit to origin 3.
  // Strict printing must then REFUSE — absolute bytes [0,3) are covered
  // by no leaf — while background fill reconstructs around it.
  unsigned MidTwice = C.shifted(C.shifted(MidBase, 1), 2);
  PrintOut R2;
  EXPECT_FALSE(printTree(C.node(MidTwice), O, R2, C));
  EXPECT_NE(R2.Error.find("no leaf covers"), std::string::npos) << R2.Error;
  PrintOptions Fill;
  Fill.Strict = false;
  static const unsigned char Bg[] = {'_', '_', '_', 'x', 'x', 'x', 'x'};
  Fill.Background = Bg;
  Fill.BackgroundLen = sizeof(Bg);
  PrintOut R3;
  ASSERT_TRUE(printTree(C.node(MidTwice), Fill, R3, C)) << R3.Error;
  EXPECT_EQ(std::string(R3.Bytes.begin(), R3.Bytes.end()), "___cdef");
  EXPECT_EQ(R3.GapBytes, 3u);
}

//===----------------------------------------------------------------------===//
// Ctx memoization surface (what emitted parseRule_N calls)
//===----------------------------------------------------------------------===//

TEST(GenRuntimeMemo, StoresSuccessesAndFailuresAndCounts) {
  Parsing P;
  Ctx &C = P.C;
  unsigned Node = freezeNode(C, 0, 2, 5);

  bool Ok = false;
  unsigned Id = 0;
  EXPECT_FALSE(C.memoFind(4, 0, 16, Ok, Id)); // miss
  C.memoStore(4, 0, 16, true, Node);
  ASSERT_TRUE(C.memoFind(4, 0, 16, Ok, Id)); // hit
  EXPECT_TRUE(Ok);
  EXPECT_EQ(Id, Node);

  C.memoStore(4, 2, 16, false, 0); // memoized failure
  ASSERT_TRUE(C.memoFind(4, 2, 16, Ok, Id));
  EXPECT_FALSE(Ok);

  // Different rule, same interval: distinct key.
  EXPECT_FALSE(C.memoFind(5, 0, 16, Ok, Id));

  EXPECT_EQ(C.memoHits(), 2u);
  EXPECT_EQ(C.memoMisses(), 2u);

  // beginParse invalidates the table (generational) and the counters.
  C.beginParse(nullptr, P.S);
  EXPECT_FALSE(C.memoFind(4, 0, 16, Ok, Id));
  EXPECT_EQ(C.memoHits(), 0u);
  EXPECT_EQ(C.memoMisses(), 1u);
}

//===----------------------------------------------------------------------===//
// Blackbox hook
//===----------------------------------------------------------------------===//

namespace {

bool consumingBb(void *, const unsigned char *, size_t Len,
                 BlackboxOut &Out) {
  static const unsigned char Decoded[4] = {1, 2, 3, 4};
  if (Len < 2)
    return false;
  Out.Value = 42;
  Out.End = 2;
  Out.Output = Decoded;
  Out.OutputLen = 4;
  return true;
}

bool emptyBb(void *, const unsigned char *, size_t, BlackboxOut &Out) {
  Out.Value = 7;
  Out.End = 0;
  return true;
}

bool overrunBb(void *, const unsigned char *, size_t Len,
               BlackboxOut &Out) {
  Out.End = static_cast<long long>(Len) + 1;
  return true;
}

} // namespace

TEST(GenRuntimeBlackbox, UnregisteredIsAHardFailure) {
  Parsing P;
  Ctx &C = P.C;
  BlackboxOut BB;
  unsigned char Buf[4] = {0};
  EXPECT_EQ(C.callBlackbox(IdBb, Buf, 4, BB), 0);
  EXPECT_TRUE(C.hardFailed());
}

TEST(GenRuntimeBlackbox, OverrunIsAHardFailureRejectionIsSoft) {
  Parsing P;
  Ctx &C = P.C;
  C.registerBlackbox(IdBb, consumingBb, nullptr);
  unsigned char Buf[4] = {0};
  BlackboxOut BB;
  // Soft: the decoder rejects (Len < 2) but the parse may backtrack.
  EXPECT_EQ(C.callBlackbox(IdBb, Buf, 1, BB), 0);
  EXPECT_FALSE(C.hardFailed());
  // Hard: consuming past the slice aborts the parse.
  C.registerBlackbox(IdBb, overrunBb, nullptr); // rebind
  EXPECT_EQ(C.callBlackbox(IdBb, Buf, 4, BB), 0);
  EXPECT_TRUE(C.hardFailed());
}

TEST(GenRuntimeBlackbox, NodeLayoutMatchesTheInterpreter) {
  Parsing P;
  Ctx &C = P.C;
  C.registerBlackbox(IdBb, consumingBb, nullptr);

  unsigned char Buf[8] = {0};
  BlackboxOut BB;
  ASSERT_EQ(C.callBlackbox(IdBb, Buf, 8, BB), 1);
  size_t FrozenBefore = C.frozenNodeCount();
  unsigned Id = C.blackboxNode(IdBb, BB, /*Lo=*/3, /*Hi=*/8);
  EXPECT_EQ(C.frozenNodeCount(), FrozenBefore + 1);

  const NodeTree &N = P.node(Id);
  EXPECT_EQ(N.name(), IdBb);
  EXPECT_EQ(N.rule(), InvalidRuleId);
  EXPECT_EQ(N.attr(IdVal), 42);
  EXPECT_EQ(N.attr(IdStart), 3); // Lo
  EXPECT_EQ(N.attr(IdEnd), 5); // Lo + End
  // The decoded output became a leaf child COPYING the bytes (the
  // callback's buffer dies on its next invocation).
  ASSERT_EQ(N.children().size(), 1u);
  const LeafTree *Leaf = asLeaf(N.children()[0].get());
  ASSERT_NE(Leaf, nullptr);
  // An arena copy, not the callback buffer.
  EXPECT_NE(static_cast<const void *>(Leaf->bytes().data()),
            static_cast<const void *>(BB.Output));
  EXPECT_EQ(Leaf->length(), 4u);
  EXPECT_EQ(Leaf->bytes()[0], 1);
  EXPECT_EQ(Leaf->bytes()[3], 4);
  EXPECT_FALSE(Leaf->isOpaque());

  // An empty consumption mirrors the interpreter's untouched-span slots:
  // start = sub-EOI, end = Lo.
  C.registerBlackbox(IdBb, emptyBb, nullptr);
  ASSERT_EQ(C.callBlackbox(IdBb, Buf, 8, BB), 1);
  unsigned Empty = C.blackboxNode(IdBb, BB, /*Lo=*/3, /*Hi=*/8);
  const NodeTree &E = P.node(Empty);
  EXPECT_EQ(E.attr(IdStart), 5); // Hi - Lo
  EXPECT_EQ(E.attr(IdEnd), 3); // Lo
  EXPECT_EQ(E.children().size(), 0u);
}
