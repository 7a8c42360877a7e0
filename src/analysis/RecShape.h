//===- analysis/RecShape.h - recursion-shape classification -----*- C++ -*-===//
//
// Part of the IPG reproduction of "Interval Parsing Grammars for File Format
// Parsing" (PLDI 2023). MIT license.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Classifies every rule by the shape of its recursion so the execution
/// engines can make grammar recursion depth independent of the C++ call
/// stack. Three tiers, shared by the host engines and the code generator
/// (one analysis, so the engines cannot disagree about execution
/// strategy):
///
///   Direct    — the rule is on no call-graph cycle. Recursive descent is
///               safe: its C-stack use is bounded by the grammar's own
///               structure, never by input size.
///   Flattened — linear self-recursion (every recursive rule of the
///               bundled formats: PDF `XNum`/`Scan`, DNS `Name`/`RRs`, zip
///               `LFs`/`CDs`, gif `Blocks`/`SubBlocks`): exactly one
///               self-reference, in plain nonterminal position, and every
///               other callee stays off any cycle through the rule. The
///               engines run these as a descend/unwind loop over compact
///               per-level records — one frame total, O(1) C stack, depth
///               bounded only by EngineOptions::MaxDepth.
///   Step      — every other recursion (mutual cycles, multiple
///               self-alternatives, self under array/switch, where-clause
///               rules on a cycle), plus every rule that can transitively
///               reach one: those run on an explicit work-stack machine.
///               The closure guarantees the machine only ever starts at
///               the root, so Direct/Flattened code never meets a Step
///               callee mid-descent.
///
//===----------------------------------------------------------------------===//

#ifndef IPG_ANALYSIS_RECSHAPE_H
#define IPG_ANALYSIS_RECSHAPE_H

#include "grammar/Grammar.h"

#include <cstddef>
#include <cstdint>
#include <vector>

namespace ipg {

enum class ExecShape : uint8_t {
  Direct,
  Flattened,
  Step,
};

/// How to run a Flattened rule: where the self-reference sits and which
/// prefix terms parse child nonterminals (their nodes are kept per level
/// across the descend so the unwind replays instead of re-parsing).
struct FlattenInfo {
  uint32_t SelfAlt = 0;     ///< alternative index holding the self term
  uint32_t SelfTerm = 0;    ///< index into Alt.Terms of the self NTTerm
  uint32_t SelfExecPos = 0; ///< position of SelfTerm in execution order
  /// Term indices (into Alt.Terms) of prefix nonterminal terms, in
  /// execution order. Their parse results are stored per level; all other
  /// prefix terms (terminals, attribute defs, predicates) are probed on
  /// the way down and replayed for real on the way back up.
  std::vector<uint32_t> PrefixNTTerms;
};

struct RecShapeResult {
  std::vector<ExecShape> Shape; ///< indexed by RuleId
  std::vector<FlattenInfo> Flatten; ///< indexed by RuleId; valid iff Flattened
  bool anyStep() const {
    for (ExecShape S : Shape)
      if (S == ExecShape::Step)
        return true;
    return false;
  }
};

/// Runs the classification over a resolved grammar (checkAttributes must
/// have filled Resolved ids and ExecOrder).
RecShapeResult analyzeRecShape(const Grammar &G);

} // namespace ipg

#endif // IPG_ANALYSIS_RECSHAPE_H
