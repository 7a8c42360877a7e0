//===- runtime/Interp.cpp -------------------------------------------------===//
//
// Part of the IPG reproduction of "Interval Parsing Grammars for File Format
// Parsing" (PLDI 2023). MIT license.
//
//===----------------------------------------------------------------------===//
//
// The interpreter is host::Runner (runtime/HostRunner.h) instantiated with
// AstEval, which tree-walks each lowered program's source expression
// through expr/Eval.h. This file holds only that evaluator and its
// EvalContext view of a frame.
//
//===----------------------------------------------------------------------===//

#include "runtime/Interp.h"

#include "expr/Eval.h"
#include "lower/LIR.h"
#include "runtime/HostRunner.h"
#include "runtime/ParseScratch.h"
#include "support/Casting.h"
#include "support/GenRuntime.h"

#include <cstddef>
#include <cstdint>
#include <memory>
#include <optional>

using namespace ipg;

namespace {

using Frame = ParseScratch::Frame;

/// EvalContext view of a Frame (sigma of Figure 8). Child trees are stored
/// as ids; the store resolves them.
class FrameCtx : public EvalContext {
public:
  FrameCtx(const Frame &F, const TreeStore &Store) : F(F), Store(Store) {}

  std::optional<int64_t> attr(Symbol Id) const override {
    for (const Frame *L = &F; L; L = L->Lexical)
      if (auto V = L->E.get(Id))
        return V;
    return std::nullopt;
  }

  std::optional<int64_t> ntAttr(Symbol NT, Symbol Attr) const override {
    for (const Frame *L = &F; L; L = L->Lexical)
      for (size_t I = L->ChildIds.size(); I-- > 0;)
        if (const auto *N = dyn_cast<NodeTree>(Store.node(L->ChildIds[I])))
          if (N->name() == NT)
            return N->attr(Attr);
    return std::nullopt;
  }

  std::optional<int64_t> elemAttr(Symbol NT, int64_t Index,
                                  Symbol Attr) const override {
    const ArrayTree *A = findArray(NT);
    if (!A || Index < 0 || static_cast<size_t>(Index) >= A->size())
      return std::nullopt;
    const NodeTree *N = A->element(static_cast<size_t>(Index));
    return N ? N->attr(Attr) : std::nullopt;
  }

  std::optional<int64_t> arrayLength(Symbol NT) const override {
    const ArrayTree *A = findArray(NT);
    if (!A)
      return std::nullopt;
    return static_cast<int64_t>(A->size());
  }

  std::optional<int64_t> eoi() const override {
    return static_cast<int64_t>(F.Input.size());
  }

  std::optional<int64_t> termEnd(uint32_t TermIdx) const override {
    int64_t Out = 0;
    if (!F.termEnd(TermIdx, Out))
      return std::nullopt;
    return Out;
  }

  std::optional<int64_t> readInput(ReadKind RK, int64_t Lo,
                                   int64_t Hi) const override {
    // Width/endianness and the bounds guards live in the shared runtime
    // (the generated parsers call the same functions).
    long long Width = 0;
    bool BigEndian = false;
    if (!ipg_rt::readKindSpec(static_cast<unsigned>(RK), Width, BigEndian) &&
        !ipg_rt::btoiWidth(Lo, Hi, Width)) // btoi(lo, hi) window
      return std::nullopt;
    long long Out = 0;
    if (!ipg_rt::readScalar(F.Input.data(),
                            static_cast<long long>(F.Input.size()), Lo,
                            Width, BigEndian, Out))
      return std::nullopt;
    return static_cast<int64_t>(Out);
  }

private:
  const Frame &F;
  const TreeStore &Store;

  const ArrayTree *findArray(Symbol NT) const {
    for (const Frame *L = &F; L; L = L->Lexical)
      for (size_t I = L->ChildIds.size(); I-- > 0;)
        if (const auto *A = dyn_cast<ArrayTree>(Store.node(L->ChildIds[I])))
          if (A->elemName() == NT)
            return A;
    return nullptr;
  }
};

/// The interpreter's expression evaluator for host::Runner: tree-walks
/// the source expression each lowered program was compiled from
/// (lir::ExprProgram::Src) through expr/Eval.h — the paper's Figure-8
/// reference semantics the VM is held to.
class AstEval {
public:
  /// The interpreter executes every term: it is the per-term reference
  /// the VM's fused records are compared against.
  static constexpr bool Fuse = false;

  AstEval(ParseScratch &St, const TreeStore &Store)
      : L(St.Lowered), Store(Store) {}

  bool eval(const Frame &F, lir::ExprId Id, int64_t &Out) const {
    auto V = evaluate(*L.Exprs[Id].Src, FrameCtx(F, Store));
    if (!V)
      return false;
    Out = *V;
    return true;
  }

private:
  const lir::Module &L;
  const TreeStore &Store;
};

} // namespace

Interp::Interp(const Grammar &G, const BlackboxRegistry *Blackboxes,
               InterpOptions Opts)
    : G(G), Blackboxes(Blackboxes), Opts(Opts),
      S(std::make_unique<ParseScratch>()) {
  // One lowering per engine: the shared resolution layer (rule targets,
  // literals, recursion shapes, memo eligibility, blackbox sites) all
  // execution modes consume. See lower/LIR.h.
  S->bindGrammar(G, Blackboxes);
}

Interp::~Interp() = default;

Expected<TreePtr> Interp::parse(ByteSpan Input) {
  return parse(Input, G.startSymbol());
}

Expected<TreePtr> Interp::parse(ByteSpan Input, Symbol StartNT) {
  return host::parse<AstEval>(G, Opts, Stats, *S, HasDeadline, Deadline,
                              Input, StartNT);
}

bool Interp::adoptStore(TreeStore *Store) { return S->Stores.adopt(Store); }
