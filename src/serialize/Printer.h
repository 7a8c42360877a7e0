//===- serialize/Printer.h - Grammar-driven tree serializer -----*- C++ -*-===//
//
// Part of the IPG reproduction of "Interval Parsing Grammars for File Format
// Parsing" (PLDI 2023). MIT license.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The inverse of parsing: walk a frozen parse tree against its Grammar
/// and re-emit the bytes it was parsed from. The walk is the coordinate
/// model of T-NTSucc run backwards — every child edge carries the lazy
/// shift delta the parse recorded (NodeTree::shift()), and accumulating
/// those deltas from the root recovers the absolute position of every
/// leaf; leaves then copy their zero-copy spans into the output buffer.
/// Computed fields (lengths, offsets, counts) need no re-derivation pass
/// of their own: the scalar fields they were read from are terminal
/// leaves in the tree, and the interval attributes (start/end) place
/// them. Blackbox terms re-emit through the inverse hook registered next
/// to the forward decoder (BlackboxRegistry::addInverse): the decoded
/// output leaf is re-encoded and must fill the consumed window
/// [start, end) exactly.
///
/// Two checks make `print` a real inverse rather than a byte spray:
///
///  - Overlap agreement: memoized subtrees may be re-anchored under
///    several parents (e.g. PDF objects referenced by multiple xref
///    rows), so two leaves may legally cover the same byte — but they
///    must agree on its value. A disagreement is a print error.
///
///  - Coverage: bytes no leaf covers are *gaps*. GapPolicy::Strict
///    fails on the first gap (the tree provably reconstructs the input
///    alone); GapPolicy::FillFromBackground fills gaps from a caller-
///    supplied background buffer and reports how many bytes needed it
///    (for grammars whose trees are not print-exact; see
///    docs/grammar-syntax.md).
///
//===----------------------------------------------------------------------===//

#ifndef IPG_SERIALIZE_PRINTER_H
#define IPG_SERIALIZE_PRINTER_H

#include "grammar/Grammar.h"
#include "runtime/Blackbox.h"
#include "runtime/ParseTree.h"
#include "support/Bytes.h"
#include "support/Result.h"

#include <cstddef>
#include <cstdint>
#include <vector>

namespace ipg::serialize {

/// What to do with bytes no leaf of the tree covers.
enum class GapPolicy {
  /// Any uncovered byte in [0, output size) is a print error: the tree
  /// alone reconstructs the input.
  Strict,
  /// Uncovered bytes are copied from PrintOptions::Background (which also
  /// fixes the output size); the count is reported in PrintResult.
  FillFromBackground,
};

struct PrintOptions {
  GapPolicy Gaps = GapPolicy::Strict;
  /// The original input (or any byte source) gaps are filled from under
  /// FillFromBackground; its size becomes the output size. Ignored under
  /// Strict, where the output size is the covered extent.
  ByteSpan Background;
  /// Record a PrintSpan per visited tree object (structure-aware fuzzers
  /// mutate printed bytes at these subtree granularities).
  bool CollectSpans = false;
};

/// One placed tree object: the absolute byte range a node / leaf landed
/// on. Node spans come from the start/end interval attributes the parse
/// recorded; untouched nodes (no start/end) are skipped. Hole leaves
/// (salvage parsing; see RecoveryPolicy) carry the rule they stand in
/// for in Name.
struct PrintSpan {
  using Kind = ipg_rt::SpanKind;
  Kind K = Kind::Node;
  Symbol Name = InvalidSymbol; ///< rule / blackbox / hole name; InvalidSymbol
                               ///< for ordinary leaves
  int64_t Lo = 0; ///< absolute start offset in the printed output
  int64_t Hi = 0; ///< absolute end offset (exclusive)
  uint32_t Depth = 0;
};

struct PrintResult {
  std::vector<uint8_t> Bytes;
  /// Bytes covered by at least one leaf / blackbox encoding.
  size_t CoveredBytes = 0;
  /// Bytes filled from the background (0 under Strict by construction).
  size_t GapBytes = 0;
  /// Bytes written more than once (all writes agreed, or printing failed).
  size_t OverlapBytes = 0;
  /// Bytes produced by blackbox inverses.
  size_t BlackboxBytes = 0;
  std::vector<PrintSpan> Spans; ///< filled when CollectSpans is set
};

/// Serializes \p Root (a tree parsed with \p G) back into bytes. For
/// grammars with blackbox terms \p Registry must carry an inverse for
/// each blackbox name the tree reached (BlackboxRegistry::addInverse);
/// pass nullptr for blackbox-free grammars. Fails — never aborts — on
/// overlap disagreements, gaps under Strict, missing or failing
/// inverses, and encodings that do not fill their window.
Expected<PrintResult> printTree(const ParseTree &Root, const Grammar &G,
                                const BlackboxRegistry *Registry = nullptr,
                                const PrintOptions &Opts = PrintOptions());

} // namespace ipg::serialize

#endif // IPG_SERIALIZE_PRINTER_H
