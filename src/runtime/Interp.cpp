//===- runtime/Interp.cpp -------------------------------------------------===//
//
// Part of the IPG reproduction of "Interval Parsing Grammars for File Format
// Parsing" (PLDI 2023). MIT license.
//
//===----------------------------------------------------------------------===//
//
// The interpreter is host::Runner (runtime/HostRunner.h) instantiated with
// AstEval, which tree-walks each lowered program's source expression
// through expr/Eval.h. This file holds only that evaluator and FrameCtx,
// the EvalContext adapter over an ipg_rt::Frame.
//
//===----------------------------------------------------------------------===//

#include "runtime/Interp.h"

#include "expr/Eval.h"
#include "expr/Expr.h"
#include "lower/LIR.h"
#include "runtime/HostRunner.h"
#include "runtime/ParseScratch.h"
#include "support/GenRuntime.h"

#include <cstddef>
#include <cstdint>
#include <memory>
#include <optional>

using namespace ipg;

namespace {

using Frame = ipg_rt::Frame;

// The generated parsers and the host evaluators read input through one
// guarded read (ipg_rt::Frame::read), which takes the read kind as its
// ipg_rt encoding. That encoding must mirror ReadKind.
static_assert(static_cast<unsigned>(ReadKind::U8) == ipg_rt::RK_U8 &&
                  static_cast<unsigned>(ReadKind::U16Le) == ipg_rt::RK_U16Le &&
                  static_cast<unsigned>(ReadKind::U32Le) == ipg_rt::RK_U32Le &&
                  static_cast<unsigned>(ReadKind::U64Le) == ipg_rt::RK_U64Le &&
                  static_cast<unsigned>(ReadKind::U16Be) == ipg_rt::RK_U16Be &&
                  static_cast<unsigned>(ReadKind::U32Be) == ipg_rt::RK_U32Be &&
                  static_cast<unsigned>(ReadKind::BtoiLe) ==
                      ipg_rt::RK_BtoiLe &&
                  static_cast<unsigned>(ReadKind::BtoiBe) == ipg_rt::RK_BtoiBe,
              "ipg_rt read-kind encoding must mirror ipg::ReadKind");

/// The EvalContext adapter expr/Eval.h needs over a Frame: every lookup
/// is the frame's own (sigma of Figure 8, support/GenRuntime.h).
class FrameCtx : public EvalContext {
public:
  explicit FrameCtx(const Frame &F) : F(F) {}

  std::optional<int64_t> attr(Symbol Id) const override {
    long long V = 0;
    return F.attr(Id, V) ? std::optional<int64_t>(V) : std::nullopt;
  }

  std::optional<int64_t> ntAttr(Symbol NT, Symbol Attr) const override {
    long long V = 0;
    return F.ntAttr(NT, Attr, V) ? std::optional<int64_t>(V) : std::nullopt;
  }

  std::optional<int64_t> elemAttr(Symbol NT, int64_t Index,
                                  Symbol Attr) const override {
    long long V = 0;
    return F.elemAttr(NT, Index, Attr, V) ? std::optional<int64_t>(V)
                                          : std::nullopt;
  }

  std::optional<int64_t> arrayLength(Symbol NT) const override {
    const ArrayTree *A = F.findArray(NT);
    if (!A)
      return std::nullopt;
    return static_cast<int64_t>(A->size());
  }

  std::optional<int64_t> eoi() const override { return F.eoi(); }

  std::optional<int64_t> termEnd(uint32_t TermIdx) const override {
    long long V = 0;
    return F.termEnd(TermIdx, V) ? std::optional<int64_t>(V) : std::nullopt;
  }

  std::optional<int64_t> readInput(ReadKind RK, int64_t Lo,
                                   int64_t Hi) const override {
    long long V = 0;
    return F.read(static_cast<unsigned>(RK), Lo, Hi, V)
               ? std::optional<int64_t>(V)
               : std::nullopt;
  }

private:
  const Frame &F;
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

  explicit AstEval(ParseScratch &St) : L(St.Lowered) {}

  bool eval(const Frame &F, lir::ExprId Id, int64_t &Out) const {
    auto V = evaluate(*L.Exprs[Id].Src, FrameCtx(F));
    if (!V)
      return false;
    Out = *V;
    return true;
  }

private:
  const lir::Module &L;
};

} // namespace

Interp::Interp(const Grammar &G, const BlackboxRegistry *Blackboxes,
               EngineOptions Opts)
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
