//===- analysis/Termination.cpp -------------------------------------------===//
//
// Part of the IPG reproduction of "Interval Parsing Grammars for File Format
// Parsing" (PLDI 2023). MIT license.
//
//===----------------------------------------------------------------------===//

#include "analysis/Termination.h"

#include "analysis/Consumes.h"
#include "analysis/Cycles.h"
#include "analysis/NTGraph.h"
#include "expr/Linear.h"
#include "solver/LinearSystem.h"
#include "support/Casting.h"

#include <cstddef>
#include <cstdint>
#include <string>
#include <vector>

using namespace ipg;

namespace {

/// Applies the `X.end > 0` extension: for every reference in \p E to the
/// end of a sibling nonterminal (by name or via the internal TermEnd form)
/// whose rule surely consumes input, emit atom > 0 into \p Sys.
void addEndPositivity(const Expr &E, const Alternative &OwnerAlt,
                      const Grammar &G, const std::vector<bool> &Consumes,
                      AtomTable &Atoms, const std::string &Prefix,
                      LinearSystem &Sys) {
  forEachExpr(E, [&](const Expr &Sub) {
    const auto *Ref = dyn_cast<RefExpr>(&Sub);
    if (!Ref)
      return;

    // Find the term the end-reference points at: a sibling nonterminal (by
    // name) or any positional term (by index, for completed intervals).
    const Term *Producer = nullptr;
    if (Ref->refKind() == RefKind::NtAttr &&
        Ref->attrName() == G.symEnd()) {
      for (const TermPtr &T : OwnerAlt.Terms)
        if (const auto *N = dyn_cast<NTTerm>(T.get()))
          if (N->Name == Ref->nt())
            Producer = N;
    } else if (Ref->refKind() == RefKind::TermEnd) {
      if (Ref->termIndex() < OwnerAlt.Terms.size())
        Producer = OwnerAlt.Terms[Ref->termIndex()].get();
    } else {
      return;
    }
    if (!Producer)
      return;
    bool SurelyPositive = false;
    if (const auto *N = dyn_cast<NTTerm>(Producer))
      SurelyPositive = N->Resolved != InvalidRuleId && Consumes[N->Resolved];
    else if (const auto *S = dyn_cast<TerminalTerm>(Producer))
      SurelyPositive = terminalSurelyConsumes(*S, G.interner());
    if (!SurelyPositive)
      return;
    // atom > 0, i.e. -atom < 0.
    uint32_t A = Atoms.atom(Prefix + "#" + Sub.str(G.interner()));
    Sys.addLt(LinExpr::atom(A).scaled(Rational(-1)));
  });
}

} // namespace

TerminationReport ipg::checkTermination(const Grammar &G) {
  TerminationReport Report;
  NTGraph Graph = buildNTGraph(G);
  std::vector<bool> Consumes = computeConsumes(G);
  auto Cycles = elementaryCycles(Graph);
  Report.NumCycles = Cycles.size();

  for (const auto &Cycle : Cycles) {
    AtomTable Atoms;
    LinearSystem Sys;
    uint32_t EoiAtom = Atoms.atom("EOI");
    // EOI >= 0 (input lengths are non-negative): -EOI <= 0.
    Sys.addLe(LinExpr::atom(EoiAtom).scaled(Rational(-1)));

    for (size_t K = 0; K < Cycle.size(); ++K) {
      const NTEdge &E = Graph.Edges[Cycle[K]];
      std::string Prefix = "e";
      Prefix += std::to_string(K);
      // el_k = 0
      if (E.Lo)
        Sys.addEq(linearize(*E.Lo, Atoms, Prefix, G.interner()));
      // er_k = EOI  =>  er_k - EOI = 0
      if (E.Hi)
        Sys.addEq(linearize(*E.Hi, Atoms, Prefix, G.interner()) -
                  LinExpr::atom(EoiAtom));
      if (E.OwnerAlt) {
        if (E.Lo)
          addEndPositivity(*E.Lo, *E.OwnerAlt, G, Consumes, Atoms, Prefix,
                           Sys);
        if (E.Hi)
          addEndPositivity(*E.Hi, *E.OwnerAlt, G, Consumes, Atoms, Prefix,
                           Sys);
      }
    }

    if (Sys.check() == LinearSystem::Result::MaybeSat) {
      std::string Desc;
      for (uint32_t EI : Cycle) {
        const NTEdge &E = Graph.Edges[EI];
        if (!Desc.empty())
          Desc += " -> ";
        Desc += std::string(G.interner().name(G.rule(E.From).Name));
      }
      if (!Cycle.empty())
        Desc += " -> " + std::string(G.interner().name(
                             G.rule(Graph.Edges[Cycle.front()].From).Name));
      Report.FailingCycles.push_back(
          "cycle may keep interval [0, EOI]: " + Desc);
    }
  }

  Report.Terminates = Report.FailingCycles.empty();
  return Report;
}
