//===- tests/printer_test.cpp - print coverage kernel equivalence ---------===//
//
// Part of the IPG reproduction of "Interval Parsing Grammars for File Format
// Parsing" (PLDI 2023). MIT license.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Both tree print entry points (serialize::printTree for the host and
/// ipg_rt::printTree, which generated parsers export) run the one print
/// walk, ipg_rt::PrintWalk, over the run-based coverage kernel
/// ipg_rt::PrintCoverage, each with its own hooks and error tails. This
/// suite holds both to the per-byte coverage loop the kernel replaced,
/// kept here as the reference model: fixed-seed write sequences become
/// hand-built trees (one root node whose leaves sit at arbitrary offsets,
/// so the printers write them in child order), and the printed bytes,
/// all four counters and the error text must equal the model's. The
/// sequences cover in-order and out-of-order writes (descending, few, and
/// enough to splice and merge many runs), agreeing and disagreeing
/// overlaps, zero-length leaves past the end under Strict, and writes past
/// the background.
///
//===----------------------------------------------------------------------===//

#include "analysis/AttributeCheck.h"
#include "runtime/ParseTree.h"
#include "serialize/Printer.h"
#include "support/GenRuntime.h"

#include <algorithm>
#include <cstddef>
#include <cstdint>
#include <gtest/gtest.h>
#include <random>
#include <string>
#include <utility>
#include <vector>

using namespace ipg;

namespace {

/// One leaf: its bytes and where the root places them.
struct Write {
  int64_t At = 0;
  std::vector<uint8_t> Data;
};

/// A write sequence plus the print mode it runs under.
struct Case {
  std::string Name;
  std::vector<Write> Writes;
  bool Strict = true;
  std::vector<uint8_t> Background; ///< fill mode only
};

struct Outcome {
  bool Ok = false;
  std::string Error;
  std::vector<uint8_t> Bytes;
  size_t Covered = 0, Gap = 0, Overlap = 0, Blackbox = 0;
};

/// The reference model: the per-byte coverage loop both printers ran
/// before the run-based kernel. \p NotExactHint is the printer-specific
/// tail of the strict gap error.
Outcome referencePrint(const Case &C, const char *NotExactHint) {
  Outcome R;
  std::vector<uint8_t> Covered;
  if (!C.Strict) {
    R.Bytes.resize(C.Background.size(), 0);
    Covered.resize(C.Background.size(), 0);
  }
  auto Fail = [&](std::string Msg) {
    R.Error = std::move(Msg);
    return R;
  };
  for (const Write &W : C.Writes) {
    if (W.At < 0)
      return Fail("print placed bytes at negative offset " +
                  std::to_string(W.At));
    size_t At = static_cast<size_t>(W.At), Len = W.Data.size();
    if (At + Len > R.Bytes.size()) {
      R.Bytes.resize(At + Len, 0);
      Covered.resize(At + Len, 0);
    }
    for (size_t I = 0; I < Len; ++I) {
      if (Covered[At + I]) {
        if (R.Bytes[At + I] != W.Data[I])
          return Fail("overlapping writes disagree at output offset " +
                      std::to_string(At + I));
        ++R.Overlap;
        continue;
      }
      R.Bytes[At + I] = W.Data[I];
      Covered[At + I] = 1;
      ++R.Covered;
    }
  }
  if (C.Strict) {
    for (size_t I = 0; I < R.Bytes.size(); ++I)
      if (!Covered[I])
        return Fail("no leaf covers output offset " + std::to_string(I) +
                    " (tree is not print-exact" + NotExactHint + ")");
    R.Ok = true;
    return R;
  }
  if (R.Bytes.size() > C.Background.size())
    return Fail("print wrote past the background (" +
                std::to_string(R.Bytes.size()) + " > " +
                std::to_string(C.Background.size()) + " bytes)");
  for (size_t I = 0; I < R.Bytes.size(); ++I) {
    if (Covered[I])
      continue;
    R.Bytes[I] = C.Background[I];
    ++R.Gap;
  }
  R.Ok = true;
  return R;
}

/// The host printer over a TreeStore root whose leaves are \p C's writes.
/// \p Store is reset and reused (a fresh store reserves a whole arena).
Outcome hostPrint(const Case &C, const Grammar &G, Symbol RootName,
                  TreeStore &Store) {
  Store.reset();
  std::vector<uint32_t> Kids;
  for (const Write &W : C.Writes)
    Kids.push_back(Store.makeLeaf(W.Data.data(), W.Data.size(), W.At,
                                  /*Opaque=*/false));
  uint32_t Root = Store.makeNodeFromSlots(RootName, /*Rule=*/0, nullptr, 0,
                                          Kids.data(),
                                          static_cast<uint32_t>(Kids.size()));
  serialize::PrintOptions Opts;
  if (!C.Strict) {
    Opts.Gaps = serialize::GapPolicy::FillFromBackground;
    Opts.Background = ByteSpan::of(C.Background);
  }
  auto P = serialize::printTree(*Store.node(Root), G, nullptr, Opts);
  Outcome R;
  if (!P) {
    R.Error = P.message();
    return R;
  }
  R.Ok = true;
  R.Bytes = P->Bytes;
  R.Covered = P->CoveredBytes;
  R.Gap = P->GapBytes;
  R.Overlap = P->OverlapBytes;
  R.Blackbox = P->BlackboxBytes;
  return R;
}

/// The generated-side printer over a root built the way generated code
/// freezes frames; \p Ctx and \p Store are recycled like a parser's.
Outcome genPrint(const Case &C, ipg_rt::Ctx &Ctx, ipg_rt::NodeStore &Store) {
  static const char *const Names[] = {"<invalid>", "start", "end",
                                      "EOI",       "val",   "Root"};
  Ctx.setNames(Names, 6);
  Store.reset();
  Ctx.beginParse(nullptr, Store);
  ipg_rt::Frame &F = Ctx.frameAt(0);
  F.beginAlt(nullptr, 0, 0, nullptr, 0);
  for (const Write &W : C.Writes)
    F.Kids.push_back(
        Ctx.leaf(W.Data.data(), W.Data.size(), W.At, /*Opaque=*/false));
  unsigned Root = Ctx.freeze(F, /*Name=*/5, /*Rule=*/0);
  ipg_rt::PrintOptions O;
  if (!C.Strict) {
    O.Strict = false;
    O.Background = C.Background.data();
    O.BackgroundLen = C.Background.size();
  }
  ipg_rt::PrintOut P;
  Outcome R;
  R.Ok = ipg_rt::printTree(Ctx.node(Root), O, P, Ctx);
  R.Error = P.Error;
  R.Bytes = P.Bytes;
  R.Covered = P.CoveredBytes;
  R.Gap = P.GapBytes;
  R.Overlap = P.OverlapBytes;
  R.Blackbox = P.BlackboxBytes;
  return R;
}

/// Fixed-seed write sequences over a "truth" buffer: leaves copy windows
/// of it, so every overlap agrees unless a case corrupts a leaf on
/// purpose.
class CaseMaker {
public:
  explicit CaseMaker(uint32_t Seed) : Rng(Seed), Truth(512) {
    for (uint8_t &B : Truth)
      B = static_cast<uint8_t>(Rng());
  }

  size_t below(size_t N) { return N ? Rng() % N : 0; }

  Write window(size_t At, size_t Len) {
    Write W;
    W.At = static_cast<int64_t>(At);
    W.Data.assign(Truth.begin() + At, Truth.begin() + At + Len);
    return W;
  }

  /// Consecutive leaves from 0, some empty, with an occasional gap.
  std::vector<Write> inOrder(size_t Count, bool Gaps) {
    std::vector<Write> Ws;
    size_t At = 0;
    for (size_t I = 0; I < Count && At < 400; ++I) {
      if (Gaps && below(4) == 0)
        At += 1 + below(6);
      size_t Len = below(5) == 0 ? 0 : 1 + below(24);
      Ws.push_back(window(At, Len));
      At += Len;
    }
    return Ws;
  }

  /// Leaves at random offsets in [0, Span): out of order, overlapping
  /// and touching each other.
  std::vector<Write> scattered(size_t Count, size_t Span) {
    std::vector<Write> Ws;
    for (size_t I = 0; I < Count; ++I) {
      size_t At = below(Span);
      Ws.push_back(window(At, below(std::min<size_t>(40, 500 - At))));
    }
    return Ws;
  }

  /// Flips one byte of a leaf where it overlaps an earlier leaf, so the
  /// print meets a disagreement; false when the sequence has no overlap.
  bool corruptAnOverlap(std::vector<Write> &Ws) {
    std::vector<uint8_t> Seen(1024, 0);
    std::vector<std::pair<size_t, size_t>> Candidates; // (write, byte)
    for (size_t W = 0; W < Ws.size(); ++W) {
      for (size_t I = 0; I < Ws[W].Data.size(); ++I)
        if (Seen[static_cast<size_t>(Ws[W].At) + I])
          Candidates.emplace_back(W, I);
      for (size_t I = 0; I < Ws[W].Data.size(); ++I)
        Seen[static_cast<size_t>(Ws[W].At) + I] = 1;
    }
    if (Candidates.empty())
      return false;
    auto [W, I] = Candidates[below(Candidates.size())];
    Ws[W].Data[I] ^= static_cast<uint8_t>(1 + below(255));
    return true;
  }

  std::vector<uint8_t> background(size_t Len) {
    std::vector<uint8_t> Bg(Len);
    for (uint8_t &B : Bg)
      B = static_cast<uint8_t>(Rng());
    return Bg;
  }

private:
  std::mt19937 Rng;
  std::vector<uint8_t> Truth;
};

/// The covered extent of a sequence (where a strict print ends);
/// negative writes, which fail the print, place nothing.
size_t extent(const std::vector<Write> &Ws) {
  size_t End = 0;
  for (const Write &W : Ws)
    if (W.At >= 0)
      End = std::max(End, static_cast<size_t>(W.At) + W.Data.size());
  return End;
}

/// Every sequence shape under Strict and under background fill (with a
/// background at least as long as the extent, and one shorter).
std::vector<Case> fixedSeedCases() {
  std::vector<Case> Cases;
  CaseMaker M(0x1b5e7);
  auto Add = [&](const std::string &Name, std::vector<Write> Ws) {
    size_t End = extent(Ws);
    Cases.push_back(Case{Name + "/strict", Ws, true, {}});
    Cases.push_back(
        Case{Name + "/fill", Ws, false, M.background(End + M.below(30))});
    if (End > 0)
      Cases.push_back(Case{Name + "/fill-short", Ws, false,
                           M.background(M.below(End))});
  };
  for (int Round = 0; Round < 200; ++Round) {
    std::string R = std::to_string(Round);
    Add("in-order-" + R, M.inOrder(1 + M.below(40), /*Gaps=*/false));
    Add("in-order-gaps-" + R, M.inOrder(1 + M.below(40), /*Gaps=*/true));
    // Formats parsed from their end print their leaves from the end down.
    std::vector<Write> Down = M.inOrder(1 + M.below(40), /*Gaps=*/true);
    std::reverse(Down.begin(), Down.end());
    Add("descending-" + R, Down);
    // Few out-of-order writes, and many that splice and merge runs.
    Add("scattered-few-" + R, M.scattered(2 + M.below(6), 120));
    Add("scattered-many-" + R, M.scattered(10 + M.below(60), 300));
    // Out-of-order tails after a long in-order prefix.
    std::vector<Write> Mixed = M.inOrder(20, /*Gaps=*/true);
    for (Write &W : M.scattered(1 + M.below(20), 200))
      Mixed.push_back(std::move(W));
    Add("in-order-then-scattered-" + R, Mixed);
    std::vector<Write> Bad = M.scattered(4 + M.below(40), 150);
    if (M.corruptAnOverlap(Bad))
      Add("disagreeing-" + R, Bad);
    // A zero-length leaf past the end grows the output with a gap.
    std::vector<Write> Empty = M.inOrder(1 + M.below(10), false);
    Write Past;
    Past.At = static_cast<int64_t>(extent(Empty) + 1 + M.below(8));
    Empty.insert(Empty.begin() + M.below(Empty.size() + 1), Past);
    Add("empty-past-end-" + R, Empty);
  }
  Write Negative;
  Negative.At = -3;
  Negative.Data = {1, 2};
  Add("negative", {Negative});
  Add("no-leaves", {});
  return Cases;
}

void expectSame(const Outcome &Want, const Outcome &Got,
                const std::string &Who, const std::string &Name,
                bool CountersOnFailure) {
  SCOPED_TRACE(Who + " " + Name);
  ASSERT_EQ(Got.Ok, Want.Ok) << Got.Error;
  EXPECT_EQ(Got.Error, Want.Error);
  if (!Got.Ok && !CountersOnFailure)
    return;
  EXPECT_EQ(Got.Bytes, Want.Bytes);
  EXPECT_EQ(Got.Covered, Want.Covered);
  EXPECT_EQ(Got.Gap, Want.Gap);
  EXPECT_EQ(Got.Overlap, Want.Overlap);
  EXPECT_EQ(Got.Blackbox, Want.Blackbox);
}

} // namespace

TEST(PrinterKernelTest, BothPrintersMatchThePerByteModel) {
  auto L = loadGrammar("S -> \"hi\"[0, 2] ;");
  ASSERT_TRUE(L) << L.message();
  Symbol RootName = L->G.intern("Root");
  TreeStore Store;
  ipg_rt::Ctx Ctx;
  ipg_rt::NodeStore GenStore;
  size_t Failures = 0, Fills = 0;
  for (const Case &C : fixedSeedCases()) {
    // The host printer discards its counters on failure; the generated
    // one leaves them (and the bytes) in the caller's PrintOut.
    expectSame(referencePrint(C, "; see GapPolicy"), hostPrint(C, L->G, RootName, Store),
               "host", C.Name, /*CountersOnFailure=*/false);
    Outcome Ref = referencePrint(C, "");
    expectSame(Ref, genPrint(C, Ctx, GenStore), "generated", C.Name,
               /*CountersOnFailure=*/true);
    Failures += !Ref.Ok;
    Fills += Ref.Ok && Ref.Gap > 0;
  }
  // The corpus exercises both outcomes, not just one of them.
  EXPECT_GT(Failures, 100u);
  EXPECT_GT(Fills, 100u);
}

TEST(PrinterKernelTest, ErrorsNameTheFirstBadOffset) {
  // Hand-picked shapes whose diagnostics are easy to read off.
  std::vector<uint8_t> Ab = {'a', 'b'}, Xy = {'x', 'y'}, Ay = {'a', 'y'};
  ipg_rt::Ctx Ctx;
  ipg_rt::NodeStore Store;
  auto Strict = [](std::vector<Write> Ws) {
    return Case{"strict", std::move(Ws), true, {}};
  };
  // Overlap agrees on its first byte, disagrees on the second.
  Outcome O = genPrint(Strict({{0, Ab}, {0, Ay}}), Ctx, Store);
  EXPECT_EQ(O.Error, "overlapping writes disagree at output offset 1");
  EXPECT_EQ(O.Overlap, 1u);
  // A gap before the disagreement is written and counted first.
  O = genPrint(Strict({{1, Ab}, {0, Xy}}), Ctx, Store);
  EXPECT_EQ(O.Error, "overlapping writes disagree at output offset 1");
  EXPECT_EQ(O.Covered, 3u);
  EXPECT_EQ(O.Bytes, (std::vector<uint8_t>{'x', 'a', 'b'}));
  // A zero-length leaf at 5 grows the output to 5 bytes: 2..4 are gaps.
  O = genPrint(Strict({{0, Ab}, {5, {}}}), Ctx, Store);
  EXPECT_EQ(O.Error,
            "no leaf covers output offset 2 (tree is not print-exact)");
}
