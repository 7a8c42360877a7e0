//===- tests/TreeCanonical.h - canonical host-tree rendering ----*- C++ -*-===//
//
// Part of the IPG reproduction of "Interval Parsing Grammars for File Format
// Parsing" (PLDI 2023). MIT license.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The canonical rendering of a host (interpreter-side) parse tree —
/// byte-for-byte the format of ipg_rt::dumpTree in support/GenRuntime.h,
/// which generated parsers embed. Attributes sort by (name, value);
/// children print in execution order. Shared by the differential harness
/// and the engine/service tests so every suite compares trees the same
/// way. renderEnvOrder prints the same walk with each node's attributes
/// in raw env slot order, which every tier must also agree on.
///
//===----------------------------------------------------------------------===//

#ifndef IPG_TESTS_TREECANONICAL_H
#define IPG_TESTS_TREECANONICAL_H

#include "grammar/Grammar.h"
#include "runtime/ParseTree.h"
#include "support/Casting.h"

#include <algorithm>
#include <string>
#include <utility>
#include <vector>

namespace ipg::testutil {

// Explicit work stack rather than recursion: both engines now parse
// recursion depths far beyond what a thread stack can walk, and the
// deep-tree regression tests render those trees through here.
inline void renderCanonical(const ipg::ParseTree &T,
                            const ipg::StringInterner &Names, int Indent,
                            std::string &Out, bool SortAttrs = true) {
  struct Item {
    const ipg::ParseTree *T;
    int Indent;
  };
  std::vector<Item> Work;
  Work.push_back(Item{&T, Indent});
  while (!Work.empty()) {
    Item It = Work.back();
    Work.pop_back();
    Out.append(static_cast<size_t>(It.Indent) * 2, ' ');
    switch (It.T->kind()) {
    case ParseTree::Kind::Leaf: {
      const auto &L = *cast<LeafTree>(It.T);
      Out += "Leaf off=" + std::to_string(L.offset()) +
             " len=" + std::to_string(L.length()) +
             " opaque=" + (L.isOpaque() ? "1" : "0") + "\n";
      break;
    }
    case ParseTree::Kind::Array: {
      const auto &A = *cast<ArrayTree>(It.T);
      Out += "Array " + std::string(Names.name(A.elemName())) + " x" +
             std::to_string(A.size()) + "\n";
      size_t Mark = Work.size();
      for (TreeRef E : A.elements())
        Work.push_back(Item{E.get(), It.Indent + 1});
      std::reverse(Work.begin() + Mark, Work.end());
      break;
    }
    case ParseTree::Kind::Node: {
      const auto &N = *cast<NodeTree>(It.T);
      Out += "Node " + std::string(Names.name(N.name())) + " {";
      std::vector<std::pair<std::string, long long>> Attrs;
      for (const EnvSlot &S : N.env())
        Attrs.emplace_back(std::string(Names.name(S.Key)),
                           static_cast<long long>(S.Value));
      if (SortAttrs)
        std::sort(Attrs.begin(), Attrs.end());
      for (size_t I = 0; I < Attrs.size(); ++I) {
        if (I)
          Out += ", ";
        Out += Attrs[I].first + "=" + std::to_string(Attrs[I].second);
      }
      Out += "}\n";
      size_t Mark = Work.size();
      for (TreeRef C : N.children())
        Work.push_back(Item{C.get(), It.Indent + 1});
      std::reverse(Work.begin() + Mark, Work.end());
      break;
    }
    }
  }
}

/// Renders any rooted tree (TreePtr, FrozenTree root, raw node).
inline std::string renderCanonical(const ipg::ParseTree *Root,
                                   const ipg::Grammar &G) {
  std::string Out;
  if (Root)
    renderCanonical(*Root, G.interner(), 0, Out);
  return Out;
}

inline std::string renderCanonical(const ipg::TreePtr &Root,
                                   const ipg::Grammar &G) {
  return renderCanonical(Root.get(), G);
}

/// renderCanonical with every node's attributes in env slot order
/// (support/GenRuntime.h, ipg_rt::Frame: own attributes in definition
/// order, then start, end) instead of sorted.
inline std::string renderEnvOrder(const ipg::TreePtr &Root,
                                  const ipg::Grammar &G) {
  std::string Out;
  if (Root.get())
    renderCanonical(*Root.get(), G.interner(), 0, Out, /*SortAttrs=*/false);
  return Out;
}

/// Structural equality under the same lens renderCanonical prints
/// through: node names, sorted (name, value) attribute sets, array
/// element names and sizes, leaf offset/length/opacity, and child order.
/// The trees may come from different Grammar instances (separate
/// interners — e.g. one engine per kind from makeFormatEngine): symbols
/// are compared by their interned strings. Used where a render-and-diff
/// would be quadratic: canonical renders indent two spaces per level, so
/// a megabyte-deep tree's dump is O(depth^2) bytes, while this walk is
/// O(tree) and consumes no C stack.
inline bool treesEqual(const ipg::ParseTree *A, const ipg::Grammar &GA,
                       const ipg::ParseTree *B, const ipg::Grammar &GB) {
  if (!A || !B)
    return A == B;
  const ipg::StringInterner &AN = GA.interner();
  const ipg::StringInterner &BN = GB.interner();
  std::vector<std::pair<const ipg::ParseTree *, const ipg::ParseTree *>>
      Work{{A, B}};
  while (!Work.empty()) {
    auto [X, Y] = Work.back();
    Work.pop_back();
    if (X->kind() != Y->kind())
      return false;
    switch (X->kind()) {
    case ParseTree::Kind::Leaf: {
      const auto *LX = cast<LeafTree>(X);
      const auto *LY = cast<LeafTree>(Y);
      if (LX->offset() != LY->offset() || LX->length() != LY->length() ||
          LX->isOpaque() != LY->isOpaque())
        return false;
      break;
    }
    case ParseTree::Kind::Array: {
      const auto *AX = cast<ArrayTree>(X);
      const auto *AY = cast<ArrayTree>(Y);
      if (AX->size() != AY->size() ||
          AN.name(AX->elemName()) != BN.name(AY->elemName()))
        return false;
      auto EX = AX->elements();
      auto EY = AY->elements();
      auto IX = EX.begin();
      auto IY = EY.begin();
      for (; IX != EX.end() && IY != EY.end(); ++IX, ++IY)
        Work.emplace_back((*IX).get(), (*IY).get());
      if ((IX != EX.end()) != (IY != EY.end()))
        return false;
      break;
    }
    case ParseTree::Kind::Node: {
      const auto *NX = cast<NodeTree>(X);
      const auto *NY = cast<NodeTree>(Y);
      if (AN.name(NX->name()) != BN.name(NY->name()))
        return false;
      std::vector<std::pair<std::string, long long>> AAttrs, BAttrs;
      for (const EnvSlot &S : NX->env())
        AAttrs.emplace_back(std::string(AN.name(S.Key)),
                            static_cast<long long>(S.Value));
      for (const EnvSlot &S : NY->env())
        BAttrs.emplace_back(std::string(BN.name(S.Key)),
                            static_cast<long long>(S.Value));
      std::sort(AAttrs.begin(), AAttrs.end());
      std::sort(BAttrs.begin(), BAttrs.end());
      if (AAttrs != BAttrs)
        return false;
      auto CX = NX->children();
      auto CY = NY->children();
      auto IX = CX.begin();
      auto IY = CY.begin();
      for (; IX != CX.end() && IY != CY.end(); ++IX, ++IY)
        Work.emplace_back((*IX).get(), (*IY).get());
      if ((IX != CX.end()) != (IY != CY.end()))
        return false;
      break;
    }
    }
  }
  return true;
}

} // namespace ipg::testutil

#endif // IPG_TESTS_TREECANONICAL_H
