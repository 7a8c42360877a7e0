//===- perfbench/src/Oracle.cpp -------------------------------------------===//
//
// Part of the IPG reproduction of "Interval Parsing Grammars for File Format
// Parsing" (PLDI 2023). MIT license.
//
//===----------------------------------------------------------------------===//

#include "Oracle.h"

#include "formats/FormatRegistry.h"
#include "support/Casting.h"

#include <algorithm>
#include <utility>

using namespace ipg;
using namespace ipg::perfbench;

Outcome Outcome::of(bool Ok, const EngineStats &S) {
  Outcome O;
  O.Ok = Ok;
  O.V = S.ParseVerdict;
  O.Terms = S.TermsExecuted;
  O.Nodes = S.NodesCreated;
  O.MemoHits = S.MemoHits;
  O.MemoMisses = S.MemoMisses;
  O.Holes = S.HolesInTree;
  return O;
}

//===----------------------------------------------------------------------===//
// Canonical hash
//===----------------------------------------------------------------------===//

namespace {

std::vector<uint8_t> bytesOf(const PoolItem &It) {
  ByteSpan S = It.Input->span();
  return std::vector<uint8_t>(S.data(), S.data() + S.size());
}

/// FNV-1a over a token stream; tokens are length-prefixed so adjacent
/// fields cannot alias.
class Hasher {
public:
  void bytes(const void *P, size_t N) {
    num(N);
    raw(P, N);
  }
  void str(std::string_view S) { bytes(S.data(), S.size()); }
  void num(uint64_t V) { raw(&V, sizeof(V)); }
  uint64_t value() const { return H; }

private:
  void raw(const void *P, size_t N) {
    const auto *B = static_cast<const uint8_t *>(P);
    for (size_t I = 0; I < N; ++I) {
      H ^= B[I];
      H *= 0x100000001b3ULL;
    }
  }
  uint64_t H = 0xcbf29ce484222325ULL;
};

} // namespace

uint64_t ipg::perfbench::canonicalHash(const ParseTree &Root,
                                       const Grammar &G) {
  const StringInterner &Names = G.interner();
  Hasher H;
  // Explicit work stack: pdf trees are as deep as the file is long.
  std::vector<const ParseTree *> Work{&Root};
  std::vector<std::pair<std::string_view, int64_t>> Attrs;
  while (!Work.empty()) {
    const ParseTree *T = Work.back();
    Work.pop_back();
    switch (T->kind()) {
    case ParseTree::Kind::Leaf: {
      const auto &L = *cast<LeafTree>(T);
      H.num(1);
      H.num(static_cast<uint64_t>(L.offset()));
      H.num(L.length());
      H.num(L.isOpaque());
      H.num(L.isHole());
      break;
    }
    case ParseTree::Kind::Array: {
      const auto &A = *cast<ArrayTree>(T);
      H.num(2);
      H.str(Names.name(A.elemName()));
      H.num(A.size());
      size_t Mark = Work.size();
      for (TreeRef E : A.elements())
        Work.push_back(E.get());
      std::reverse(Work.begin() + static_cast<std::ptrdiff_t>(Mark),
                   Work.end());
      break;
    }
    case ParseTree::Kind::Node: {
      const auto &N = *cast<NodeTree>(T);
      H.num(3);
      H.str(Names.name(N.name()));
      Attrs.clear();
      for (const EnvSlot &S : N.env())
        Attrs.emplace_back(Names.name(S.Key), S.Value);
      std::sort(Attrs.begin(), Attrs.end());
      H.num(Attrs.size());
      for (const auto &[K, V] : Attrs) {
        H.str(K);
        H.num(static_cast<uint64_t>(V));
      }
      size_t Mark = Work.size();
      size_t NumChildren = 0;
      for (TreeRef C : N.children()) {
        Work.push_back(C.get());
        ++NumChildren;
      }
      H.num(NumChildren);
      std::reverse(Work.begin() + static_cast<std::ptrdiff_t>(Mark),
                   Work.end());
      break;
    }
    }
  }
  return H.value();
}

//===----------------------------------------------------------------------===//
// Predicates
//===----------------------------------------------------------------------===//

std::string ipg::perfbench::checkValidAccepts(const Outcome &O) {
  if (O.Ok && O.V == Verdict::Accept)
    return "";
  return std::string("valid input not accepted (verdict ") +
         verdictName(O.V) + ")";
}

std::string ipg::perfbench::checkReprint(const std::vector<uint8_t> &Printed,
                                         const std::vector<uint8_t> &Want) {
  if (Printed == Want)
    return "";
  if (Printed.size() != Want.size())
    return "reprint is " + std::to_string(Printed.size()) + " bytes, want " +
           std::to_string(Want.size());
  size_t I = static_cast<size_t>(
      std::mismatch(Printed.begin(), Printed.end(), Want.begin()).first -
      Printed.begin());
  return "reprint differs at byte " + std::to_string(I);
}

std::string ipg::perfbench::checkSameTree(uint64_t Got, uint64_t Want) {
  return Got == Want ? "" : "tree differs from the VM tree";
}

std::string ipg::perfbench::checkSalvageOutcome(Verdict V,
                                                const std::string &Error) {
  if (V == Verdict::Timeout)
    return "salvage parse timed out";
  if (Error.rfind("internal:", 0) == 0)
    return "salvage parse hit an internal error: " + Error;
  return "";
}

std::string ipg::perfbench::checkSalvageAdditive(bool StrictAccepted,
                                                 Verdict SalvageVerdict,
                                                 size_t Holes) {
  if (!StrictAccepted || (SalvageVerdict == Verdict::Accept && Holes == 0))
    return "";
  return std::string("strict accepts but salvage answered ") +
         verdictName(SalvageVerdict) + " with " + std::to_string(Holes) +
         " holes";
}

std::string ipg::perfbench::checkServiceOutcome(const Outcome &Got,
                                                const Outcome &Want) {
  auto Diff = [](const char *What, size_t G, size_t W) {
    return std::string(What) + " " + std::to_string(G) + ", want " +
           std::to_string(W);
  };
  if (Got.Ok != Want.Ok || Got.V != Want.V)
    return std::string("verdict ") + verdictName(Got.V) + ", want " +
           verdictName(Want.V);
  if (Got.Terms != Want.Terms)
    return Diff("terms", Got.Terms, Want.Terms);
  if (Got.Nodes != Want.Nodes)
    return Diff("nodes", Got.Nodes, Want.Nodes);
  if (Got.MemoHits != Want.MemoHits)
    return Diff("memo hits", Got.MemoHits, Want.MemoHits);
  if (Got.MemoMisses != Want.MemoMisses)
    return Diff("memo misses", Got.MemoMisses, Want.MemoMisses);
  if (Got.Holes != Want.Holes)
    return Diff("holes", Got.Holes, Want.Holes);
  return "";
}

//===----------------------------------------------------------------------===//
// Oracle
//===----------------------------------------------------------------------===//

struct Oracle::PerFormat {
  std::string Name;
  std::shared_ptr<LoadResult> Load;
  std::unique_ptr<Engine> Vm;     ///< the workload's options
  std::unique_ptr<Engine> Strict; ///< Strict twin (Salvage workloads only)
};

Oracle::~Oracle() = default;

Expected<std::unique_ptr<Oracle>> Oracle::create(const Workload &W) {
  using Ret = Expected<std::unique_ptr<Oracle>>;
  std::unique_ptr<Oracle> O(new Oracle());
  O->BB = formats::standardBlackboxes();
  for (const std::string &Name : W.Formats) {
    auto F = std::make_unique<PerFormat>();
    F->Name = Name;
    Expected<LoadResult> L = formats::loadFormatGrammar(Name);
    if (!L)
      return Ret::failure(Name + ": " + L.message());
    F->Load = std::make_shared<LoadResult>(std::move(*L));
    EngineOptions Opts = W.Engine;
    auto Vm = makeEngine(EngineKind::Vm, F->Load->G, &O->BB, Opts);
    if (!Vm)
      return Ret::failure(Name + ": " + Vm.message());
    F->Vm = std::move(*Vm);
    if (Opts.Recovery == RecoveryPolicy::Salvage) {
      Opts.Recovery = RecoveryPolicy::Strict;
      auto St = makeEngine(EngineKind::Vm, F->Load->G, &O->BB, Opts);
      if (!St)
        return Ret::failure(Name + ": " + St.message());
      F->Strict = std::move(*St);
    }
    O->Formats.push_back(std::move(F));
  }
  return Ret(std::move(O));
}

Oracle::PerFormat &Oracle::at(const std::string &Format) const {
  for (const auto &F : Formats)
    if (F->Name == Format)
      return *F;
  return *Formats.front(); // pools only use the workload's formats
}

const Grammar &Oracle::grammar(const std::string &Format) const {
  return at(Format).Load->G;
}

Expected<serialize::PrintResult> Oracle::print(const PoolItem &It,
                                               const ParseTree &Root) const {
  serialize::PrintOptions Opts;
  if (It.Dmg != Damage::None || !printExact(It.Format)) {
    Opts.Gaps = serialize::GapPolicy::FillFromBackground;
    Opts.Background = It.Input->span();
  }
  return serialize::printTree(Root, at(It.Format).Load->G, &BB, Opts);
}

Expectation Oracle::expect(const PoolItem &It) {
  PerFormat &F = at(It.Format);
  const Grammar &G = F.Load->G;
  Expectation E;
  auto Fail = [&](const std::string &Why) {
    if (!Why.empty() && E.Failure.empty())
      E.Failure = It.Kind + "/s" + std::to_string(It.Scale) + "/" +
                  damageName(It.Dmg) + "@" + std::to_string(It.DamageOffset) +
                  ": " + Why;
  };
  const std::vector<uint8_t> Input = bytesOf(It);

  Expected<TreePtr> T = F.Vm->parse(It.Input->span());
  E.Out = Outcome::of(static_cast<bool>(T), F.Vm->stats());
  if (T)
    E.TreeHash = canonicalHash(**T, G);

  if (It.Dmg == Damage::None) {
    Fail(checkValidAccepts(E.Out));
    if (T) {
      auto P = print(It, **T);
      if (!P)
        Fail("print failed: " + P.message());
      else
        Fail(checkReprint(P->Bytes, Input));
    }
    return E;
  }

  Fail(checkSalvageOutcome(E.Out.V, T ? std::string() : T.message()));
  {
    Expected<TreePtr> S = F.Strict->parse(It.Input->span());
    Fail(checkSalvageAdditive(S && F.Strict->stats().ParseVerdict ==
                                       Verdict::Accept,
                              E.Out.V, E.Out.Holes));
  }
  if (!T)
    return E;
  auto P = print(It, **T);
  bool Blackbox = It.Format == "zip";
  if (P && P->Bytes == Input) {
    E.PrintOk = true;
    E.Print = std::move(P->Bytes);
  } else if (Blackbox && !P &&
             P.message().find("blackbox inverse") != std::string::npos) {
    E.PrintOk = false; // decoded but cannot re-encode: canonicalization
  } else if (Blackbox && P) {
    // The mutated stream re-encodes canonically: the print must then be
    // its own fixpoint.
    std::vector<uint8_t> Canon = std::move(P->Bytes);
    PoolItem Again = It;
    Again.Input = InputSource::fromBytes(Canon);
    Expected<TreePtr> T2 = F.Vm->parse(Again.Input->span());
    if (!T2) {
      Fail("canonical print does not parse: " + T2.message());
    } else {
      auto P2 = print(Again, **T2);
      if (!P2)
        Fail("canonical print does not reprint: " + P2.message());
      else
        Fail(checkReprint(P2->Bytes, Canon));
    }
    E.PrintOk = true;
    E.Print = std::move(Canon);
  } else if (!P) {
    Fail("print failed: " + P.message());
  } else {
    Fail(checkReprint(P->Bytes, Input));
  }
  return E;
}

bool Oracle::selfTest(const std::vector<PoolItem> &Pool, std::string &Log) {
  size_t Cases = 0;
  std::string Misbehaved;
  // Each planted case must fail and each control case must pass.
  auto Case = [&](const char *Name, bool ShouldFail, const std::string &Why) {
    ++Cases;
    if (Why.empty() == ShouldFail)
      Misbehaved += std::string(Misbehaved.empty() ? "" : ", ") + Name;
  };
  auto Planted = [&](const char *Name, const std::string &Why) {
    Case(Name, true, Why);
  };
  auto Control = [&](const char *Name, const std::string &Why) {
    Case(Name, false, Why);
  };

  // An accepted item whose tree reprints its input exactly, and an item
  // with a different tree.
  const PoolItem *A = nullptr;
  const PoolItem *B = nullptr;
  uint64_t HashA = 0, HashB = 0;
  std::vector<uint8_t> PrintA;
  Outcome OutA;
  for (const PoolItem &It : Pool) {
    PerFormat &F = at(It.Format);
    Expected<TreePtr> T = F.Vm->parse(It.Input->span());
    if (!T)
      continue;
    uint64_t H = canonicalHash(**T, F.Load->G);
    if (!A) {
      if (F.Vm->stats().ParseVerdict != Verdict::Accept)
        continue;
      auto P = print(It, **T);
      if (!P || P->Bytes != bytesOf(It))
        continue;
      A = &It;
      HashA = H;
      PrintA = std::move(P->Bytes);
      OutA = Outcome::of(true, F.Vm->stats());
    } else if (H != HashA) {
      B = &It;
      HashB = H;
      break;
    }
  }
  if (!A || !B) {
    Log += "self-test: pool has no accepted reprintable tree and a second "
           "distinct tree";
    return false;
  }

  // Reprint: a flipped expected byte.
  std::vector<uint8_t> Want = bytesOf(*A);
  Control("reprint", checkReprint(PrintA, Want));
  Want[Want.size() / 2] ^= 0x01;
  Planted("reprint: flipped byte", checkReprint(PrintA, Want));

  // Valid inputs accept: a wrong verdict.
  Control("accept", checkValidAccepts(OutA));
  Outcome Wrong = OutA;
  Wrong.V = Verdict::Reject;
  Wrong.Ok = false;
  Planted("accept: wrong verdict", checkValidAccepts(Wrong));

  // Tree equality: another input's tree.
  Control("tree", checkSameTree(HashA, HashA));
  Planted("tree: another input's tree", checkSameTree(HashB, HashA));

  // Salvage outcomes: a timeout and an internal error.
  Control("salvage outcome",
          checkSalvageOutcome(Verdict::Reject, "input rejected by rule 'X'"));
  Planted("salvage outcome: timeout",
          checkSalvageOutcome(Verdict::Timeout, ""));
  Planted("salvage outcome: internal error",
          checkSalvageOutcome(Verdict::Reject, "internal: planted"));

  // Salvage additivity: strict accepted, salvage fenced a hole.
  Control("additive", checkSalvageAdditive(true, Verdict::Accept, 0));
  Control("additive: strict rejected",
          checkSalvageAdditive(false, Verdict::Salvage, 3));
  Planted("additive: hole where strict accepts",
          checkSalvageAdditive(true, Verdict::Salvage, 1));

  // Service results: one node too many, and a wrong verdict.
  Control("service outcome", checkServiceOutcome(OutA, OutA));
  Outcome MoreNodes = OutA;
  ++MoreNodes.Nodes;
  Planted("service outcome: one node more",
          checkServiceOutcome(OutA, MoreNodes));
  Planted("service outcome: wrong verdict",
          checkServiceOutcome(OutA, Wrong));

  if (Misbehaved.empty()) {
    Log += "self-test: all " + std::to_string(Cases) +
           " planted and control cases behaved";
    return true;
  }
  Log += "self-test: misbehaved: " + Misbehaved;
  return false;
}
