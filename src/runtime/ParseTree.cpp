//===- runtime/ParseTree.cpp ----------------------------------------------===//
//
// Part of the IPG reproduction of "Interval Parsing Grammars for File Format
// Parsing" (PLDI 2023). MIT license.
//
//===----------------------------------------------------------------------===//

#include "runtime/ParseTree.h"

#include "support/Casting.h"

#include <algorithm>
#include <cstddef>
#include <cstdint>
#include <string>
#include <vector>

using namespace ipg;

StoreSlot::~StoreSlot() {
  TreeStore::Recycler *P = Pool;
  P->OwnerAlive = false;
  TreeStore *Parked = P->Returned;
  P->Returned = nullptr;
  bool DestroyedAny = Cur || Parked;
  if (Cur)
    TreeStore::destroy(Cur); // may free P when it was the last store
  if (Parked)
    TreeStore::destroy(Parked);
  // No store went through destroy() and none are loaned out: P is ours
  // to free. (Outstanding TreePtrs free it through their last release.)
  if (!DestroyedAny && P->LiveStores == 0)
    delete P;
}

bool StoreSlot::acquire() {
  if (!Cur && Pool->Returned) {
    Cur = Pool->Returned;
    Pool->Returned = nullptr;
  }
  if (!Cur) {
    Cur = new TreeStore(Pool);
    return false;
  }
  Cur->reset();
  return true;
}

bool StoreSlot::adopt(TreeStore *Store) {
  // bindRecycler stamps this thread as the store's owner and the
  // recycler counters are plain, hence engine-thread only.
  if (!Store || Cur || Pool->Returned)
    return false;
  Store->bindRecycler(Pool);
  if (Store->consumerRead()) {
    Store->claim();
    Store->Read.store(false, std::memory_order_relaxed);
  }
  Store->reset();
  Pool->Returned = Store;
  return true;
}

// Both walks below use an explicit work stack: the engines parse
// recursion depths far beyond what a thread stack can walk, and these
// helpers must survive the trees they build.

size_t ipg::treeSize(const ParseTree &T) {
  size_t Total = 0;
  std::vector<const ParseTree *> Work{&T};
  while (!Work.empty()) {
    const ParseTree *Cur = Work.back();
    Work.pop_back();
    ++Total;
    switch (Cur->kind()) {
    case ParseTree::Kind::Leaf:
      break;
    case ParseTree::Kind::Node:
      for (TreeRef C : cast<NodeTree>(Cur)->children())
        Work.push_back(C.get());
      break;
    case ParseTree::Kind::Array:
      for (TreeRef C : cast<ArrayTree>(Cur)->elements())
        Work.push_back(C.get());
      break;
    }
  }
  return Total;
}

void ipg::collectHoles(const ParseTree &Root, std::vector<HoleRecord> &Out) {
  // Accumulates BaseOrigin exactly as Printer::walkNode does (root node
  // anchors at its own shift; node/array-element edges add the child's
  // shift; leaf offsets are relative to the enclosing node's origin), so
  // the recorded intervals are the absolute positions the holes reprint
  // at. treeSize's walk cannot be reused: it never resolves shifts.
  struct Item {
    const ParseTree *T;
    int64_t BaseOrigin;
  };
  std::vector<Item> Work;
  int64_t RootOrigin = 0;
  if (const auto *N = dyn_cast<NodeTree>(&Root))
    RootOrigin = N->shift();
  Work.push_back(Item{&Root, RootOrigin});
  while (!Work.empty()) {
    Item It = Work.back();
    Work.pop_back();
    switch (It.T->kind()) {
    case ParseTree::Kind::Leaf: {
      const auto &L = *cast<LeafTree>(It.T);
      if (L.isHole()) {
        int64_t Lo = It.BaseOrigin + L.offset();
        Out.push_back(
            HoleRecord{L.holeRule(), Lo,
                       Lo + static_cast<int64_t>(L.length())});
      }
      break;
    }
    case ParseTree::Kind::Node: {
      const auto &N = *cast<NodeTree>(It.T);
      size_t Mark = Work.size();
      for (TreeRef C : N.children()) {
        if (const auto *Sub = dyn_cast<NodeTree>(C.get()))
          Work.push_back(Item{Sub, It.BaseOrigin + Sub->shift()});
        else
          Work.push_back(Item{C.get(), It.BaseOrigin});
      }
      std::reverse(Work.begin() + Mark, Work.end());
      break;
    }
    case ParseTree::Kind::Array: {
      const auto &A = *cast<ArrayTree>(It.T);
      size_t Mark = Work.size();
      for (TreeRef C : A.elements()) {
        if (const auto *Elem = dyn_cast<NodeTree>(C.get()))
          Work.push_back(Item{Elem, It.BaseOrigin + Elem->shift()});
        else
          Work.push_back(Item{C.get(), It.BaseOrigin});
      }
      std::reverse(Work.begin() + Mark, Work.end());
      break;
    }
    }
  }
}

size_t ipg::countHoles(const ParseTree &Root) {
  // Cheaper than collectHoles (no origin bookkeeping): hole-ness does not
  // depend on where a shifted view re-anchors the leaf.
  size_t Total = 0;
  std::vector<const ParseTree *> Work{&Root};
  while (!Work.empty()) {
    const ParseTree *Cur = Work.back();
    Work.pop_back();
    switch (Cur->kind()) {
    case ParseTree::Kind::Leaf:
      if (cast<LeafTree>(Cur)->isHole())
        ++Total;
      break;
    case ParseTree::Kind::Node:
      for (TreeRef C : cast<NodeTree>(Cur)->children())
        Work.push_back(C.get());
      break;
    case ParseTree::Kind::Array:
      for (TreeRef C : cast<ArrayTree>(Cur)->elements())
        Work.push_back(C.get());
      break;
    }
  }
  return Total;
}

std::string ipg::treeToString(const ParseTree &T, const StringInterner &Names,
                              int Indent) {
  struct Item {
    const ParseTree *T;
    int Indent;
  };
  std::string S;
  std::vector<Item> Work{Item{&T, Indent}};
  while (!Work.empty()) {
    Item It = Work.back();
    Work.pop_back();
    std::string Pad(static_cast<size_t>(It.Indent) * 2, ' ');
    switch (It.T->kind()) {
    case ParseTree::Kind::Leaf: {
      const auto &L = *cast<LeafTree>(It.T);
      if (L.isHole()) {
        S += Pad + "Leaf@" + std::to_string(L.offset()) + " <hole " +
             std::string(Names.name(L.holeRule())) + " " +
             std::to_string(L.length()) + " bytes>\n";
        break;
      }
      if (L.isOpaque()) {
        S += Pad + "Leaf@" + std::to_string(L.offset()) + " <raw " +
             std::to_string(L.length()) + " bytes>\n";
        break;
      }
      size_t LineStart = S.size();
      S += Pad + "Leaf@" + std::to_string(L.offset()) + " \"";
      size_t Budget = Pad.size() + 48;
      for (unsigned char C : L.bytes()) {
        if (C >= 0x20 && C < 0x7f) {
          S += static_cast<char>(C);
        } else {
          static const char *Hex = "0123456789abcdef";
          S += "\\x";
          S += Hex[C >> 4];
          S += Hex[C & 0xf];
        }
        if (S.size() - LineStart > Budget) {
          S += "...";
          break;
        }
      }
      S += "\"\n";
      break;
    }
    case ParseTree::Kind::Node: {
      const auto &N = *cast<NodeTree>(It.T);
      S += Pad + "Node " + std::string(Names.name(N.name())) + " {";
      bool First = true;
      for (const auto &[Key, Value] : N.env()) {
        if (!First)
          S += ", ";
        First = false;
        S += std::string(Names.name(Key)) + "=" + std::to_string(Value);
      }
      S += "}\n";
      size_t Mark = Work.size();
      for (TreeRef C : N.children())
        Work.push_back(Item{C.get(), It.Indent + 1});
      std::reverse(Work.begin() + Mark, Work.end());
      break;
    }
    case ParseTree::Kind::Array: {
      const auto &A = *cast<ArrayTree>(It.T);
      S += Pad + "Array of " + std::string(Names.name(A.elemName())) + " x" +
           std::to_string(A.size()) + "\n";
      size_t Mark = Work.size();
      for (TreeRef C : A.elements())
        Work.push_back(Item{C.get(), It.Indent + 1});
      std::reverse(Work.begin() + Mark, Work.end());
      break;
    }
    }
  }
  return S;
}
