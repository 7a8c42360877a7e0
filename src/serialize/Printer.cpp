//===- serialize/Printer.cpp ----------------------------------------------===//
//
// Part of the IPG reproduction of "Interval Parsing Grammars for File Format
// Parsing" (PLDI 2023). MIT license.
//
//===----------------------------------------------------------------------===//

#include "serialize/Printer.h"

#include "support/Casting.h"
#include "support/GenRuntime.h"

#include <algorithm>
#include <cstdint>
#include <optional>
#include <string>
#include <type_traits>
#include <utility>

using namespace ipg;
using namespace ipg::serialize;

namespace {

// The coverage kernel writes straight into PrintResult::Bytes.
static_assert(std::is_same_v<uint8_t, unsigned char>);

/// The walk state: the shared coverage kernel (ipg_rt::PrintCoverage,
/// which owns the gap and overlap rules and the counters behind them)
/// plus the span and blackbox bookkeeping. All offsets handled here are
/// absolute positions in the printed output; the per-edge shift
/// accumulation happens in the explicit work-stack walk (walkNode), not
/// here. The walk is iterative so printing a tree from a loop-flattened
/// or machine-executed deep parse never consumes C stack proportional to
/// its depth.
class Printer {
public:
  Printer(const Grammar &G, const BlackboxRegistry *Registry,
          const PrintOptions &Opts)
      : G(G), Registry(Registry), Opts(Opts),
        Cov(R.Bytes, Opts.Gaps == GapPolicy::FillFromBackground
                         ? Opts.Background.size()
                         : 0) {}

  Error run(const ParseTree &Root) {
    if (const auto *N = dyn_cast<NodeTree>(&Root)) {
      // The root's base frame is the whole input; a root handed over as
      // a shifted view would re-anchor it elsewhere, which no engine
      // produces (parse() returns the unshifted rule result).
      if (Error E = walkNode(*N, /*BaseOrigin=*/N->shift(), /*Depth=*/0))
        return E;
    } else if (const auto *L = dyn_cast<LeafTree>(&Root)) {
      if (Error E = writeLeaf(*L, 0, 0))
        return E;
    } else {
      return Error::failure("cannot print a bare array root");
    }
    if (!Cov.finish(Opts.Gaps == GapPolicy::Strict, Opts.Background.data(),
                    Opts.Background.size(), "; see GapPolicy"))
      return Error::failure(Cov.error());
    return Error::success();
  }

  PrintResult take() {
    R.CoveredBytes = Cov.CoveredBytes;
    R.OverlapBytes = Cov.OverlapBytes;
    R.GapBytes = Cov.GapBytes;
    return std::move(R);
  }

private:
  const Grammar &G;
  const BlackboxRegistry *Registry;
  const PrintOptions &Opts;
  PrintResult R;
  ipg_rt::PrintCoverage Cov;

  /// The node-local value of attribute \p S: the frozen env stores base-
  /// local coordinates and env() resolves the view shift on top, so
  /// subtracting the shift recovers the frame leaf offsets and child
  /// shifts are relative to.
  static std::optional<int64_t> localAttr(const NodeTree &N, Symbol S,
                                          int64_t Shift) {
    auto V = N.env().get(S);
    if (!V)
      return std::nullopt;
    return *V - Shift;
  }

  Error writeBytes(int64_t Abs, const uint8_t *Data, size_t Len) {
    if (!Cov.write(Abs, Data, Len))
      return Error::failure(Cov.error());
    return Error::success();
  }

  Error writeLeaf(const LeafTree &L, int64_t BaseOrigin, uint32_t Depth) {
    int64_t Abs = BaseOrigin + L.offset();
    if (Opts.CollectSpans && L.length() > 0)
      R.Spans.push_back(PrintSpan{L.isHole() ? PrintSpan::Kind::Hole
                                             : PrintSpan::Kind::Leaf,
                                  L.isHole() ? L.holeRule() : InvalidSymbol,
                                  Abs, Abs + static_cast<int64_t>(L.length()),
                                  Depth});
    return writeBytes(Abs,
                      reinterpret_cast<const uint8_t *>(L.bytes().data()),
                      L.length());
  }

  /// A blackbox node re-emits its consumed window [start, end) through
  /// the registered inverse instead of copying children: its only child
  /// is the DECODED output leaf, whose bytes never appeared in the input.
  Error writeBlackbox(const NodeTree &N, int64_t BaseOrigin) {
    int64_t Shift = N.shift();
    auto S = localAttr(N, G.symStart(), Shift);
    auto E = localAttr(N, G.symEnd(), Shift);
    auto V = localAttr(N, G.symVal(), /*Shift=*/0); // val is coordinate-free
    std::string Name(G.interner().name(N.name()));
    if (!S || !E || !V)
      return Error::failure("blackbox node '" + Name +
                            "' lacks val/start/end attributes");

    ByteSpan Decoded;
    for (TreeRef C : N.children())
      if (const auto *L = dyn_cast<LeafTree>(C.get()))
        Decoded = ByteSpan(
            reinterpret_cast<const uint8_t *>(L->bytes().data()),
            L->length());

    if (*E <= *S) {
      // The untouched encoding ([sub-EOI, 0)): the blackbox consumed no
      // bytes, so there is nothing to re-emit — unless it also claims
      // decoded output, which zero input bytes cannot carry.
      if (!Decoded.empty())
        return Error::failure("blackbox node '" + Name +
                              "' consumed no bytes but has decoded output");
      return Error::success();
    }

    const BlackboxInvFn *Inv =
        Registry ? Registry->findInverse(Name) : nullptr;
    if (!Inv)
      return Error::failure("blackbox inverse '" + Name +
                            "' is not registered");
    BlackboxEncodeResult Enc = (*Inv)(Decoded, *V);
    if (!Enc.Ok)
      return Error::failure("blackbox inverse '" + Name + "' failed");
    if (static_cast<int64_t>(Enc.Bytes.size()) != *E - *S)
      return Error::failure(
          "blackbox inverse '" + Name + "' produced " +
          std::to_string(Enc.Bytes.size()) + " bytes for a window of " +
          std::to_string(*E - *S));
    R.BlackboxBytes += Enc.Bytes.size();
    return writeBytes(BaseOrigin + *S, Enc.Bytes.data(), Enc.Bytes.size());
  }

  /// One pending visit: a leaf to write or a node to expand. For nodes
  /// \p BaseOrigin is the absolute position of the node's base-local
  /// frame origin (parent origin + that edge's shift delta); for leaves
  /// it is the enclosing node's origin, which leaf offsets are relative
  /// to.
  struct WalkItem {
    const ParseTree *T;
    int64_t BaseOrigin;
    uint32_t Depth;
  };
  std::vector<WalkItem> Work;

  /// Pre-order DFS over the tree with an explicit stack — identical
  /// visit order (and PrintSpan order / Depth values) to the natural
  /// recursion, but depth-free: megabyte-class inputs parse into trees
  /// far deeper than any thread stack tolerates.
  Error walkNode(const NodeTree &Root, int64_t RootOrigin,
                 uint32_t RootDepth) {
    Work.clear();
    Work.push_back(WalkItem{&Root, RootOrigin, RootDepth});
    while (!Work.empty()) {
      WalkItem It = Work.back();
      Work.pop_back();
      if (const auto *L = dyn_cast<LeafTree>(It.T)) {
        if (Error E = writeLeaf(*L, It.BaseOrigin, It.Depth))
          return E;
        continue;
      }
      const NodeTree &N = *cast<NodeTree>(It.T);
      int64_t BaseOrigin = It.BaseOrigin;
      int64_t Shift = N.shift();
      bool IsBlackbox = G.isBlackbox(N.name());
      if (Opts.CollectSpans) {
        auto S = localAttr(N, G.symStart(), Shift);
        auto E = localAttr(N, G.symEnd(), Shift);
        if (S && E && *E > *S)
          R.Spans.push_back(PrintSpan{IsBlackbox ? PrintSpan::Kind::Blackbox
                                                 : PrintSpan::Kind::Node,
                                      N.name(), BaseOrigin + *S,
                                      BaseOrigin + *E, It.Depth});
      }
      if (IsBlackbox) {
        if (Error E = writeBlackbox(N, BaseOrigin))
          return E;
        continue;
      }

      // Queue the children, then reverse that slice so the LIFO pop
      // visits them in source order.
      size_t Mark = Work.size();
      for (TreeRef C : N.children()) {
        switch (C->kind()) {
        case ParseTree::Kind::Leaf:
          Work.push_back(WalkItem{C.get(), BaseOrigin, It.Depth + 1});
          break;
        case ParseTree::Kind::Node: {
          const auto *Sub = cast<NodeTree>(C.get());
          Work.push_back(
              WalkItem{Sub, BaseOrigin + Sub->shift(), It.Depth + 1});
          break;
        }
        case ParseTree::Kind::Array: {
          const auto *A = cast<ArrayTree>(C.get());
          // Array objects carry no shift of their own: element views are
          // shifted relative to the frame that executed the for-term —
          // this node's base frame.
          for (TreeRef El : A->elements()) {
            const auto *Elem = cast<NodeTree>(El.get());
            Work.push_back(
                WalkItem{Elem, BaseOrigin + Elem->shift(), It.Depth + 1});
          }
          break;
        }
        }
      }
      std::reverse(Work.begin() + Mark, Work.end());
    }
    return Error::success();
  }
};

} // namespace

Expected<PrintResult>
ipg::serialize::printTree(const ParseTree &Root, const Grammar &G,
                          const BlackboxRegistry *Registry,
                          const PrintOptions &Opts) {
  if (Opts.Gaps == GapPolicy::FillFromBackground &&
      Opts.Background.data() == nullptr && Opts.Background.size() > 0)
    return Expected<PrintResult>::failure("background span has no data");
  Printer P(G, Registry, Opts);
  if (Error E = P.run(Root))
    return Expected<PrintResult>(std::move(E));
  return P.take();
}
