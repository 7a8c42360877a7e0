//===- bench/bench_ablation.cpp - design-choice ablations ------------------===//
//
// Part of the IPG reproduction of "Interval Parsing Grammars for File Format
// Parsing" (PLDI 2023). MIT license.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Ablations for the design choices docs/architecture.md calls out:
///   1. packrat memoization on/off (Section 3.3's O(n^2) device),
///   2. the specialized `btoi`-style integer builtins vs. the grammar-level
///      recursive Int rule (the Section 7 specialization),
///   3. switch terms vs. the biased-choice + predicate desugaring the
///      paper says switch abbreviates.
///
//===----------------------------------------------------------------------===//

#include "analysis/AttributeCheck.h"
#include "runtime/Engine.h"
#include "support/Bytes.h"

#include "BenchUtil.h"

#include <cstddef>
#include <cstdint>
#include <string>
#include <utility>

using namespace ipg;
using namespace ipg::bench;

namespace {

BenchReport Report("ablation");

Grammar mustLoad(const char *Src) {
  auto R = loadGrammar(Src);
  if (!R) {
    std::printf("grammar failed: %s\n", R.message().c_str());
    std::abort();
  }
  return std::move(R->G);
}

void ablationMemo() {
  banner("Ablation 1: memoization on/off");
  // Overlapping reparses: every alternative of S reparses A over the same
  // slice before failing on its marker, so memoization pays.
  Grammar G = mustLoad(R"(
    S -> A[0, EOI] "1"[A.end, EOI] / A[0, EOI] "2"[A.end, EOI]
       / A[0, EOI] "3"[A.end, EOI] / A[0, EOI] "4"[A.end, EOI] ;
    A -> "x"[0, 1] A[1, EOI] / "x"[0, 1] ;
  )");
  std::printf("%8s | %14s | %14s | %10s\n", "n", "memo on (us)",
              "memo off (us)", "hits");
  for (size_t N : {64u, 256u, 1024u}) {
    std::string Input(N, 'x');
    Input += '4';
    EngineOptions Off;
    Off.UseMemo = false;
    auto EOn = makeEngine(EngineKind::Interp, G);
    auto EOff = makeEngine(EngineKind::Interp, G, nullptr, Off);
    if (!EOn || !EOff)
      std::abort();
    Engine &IOn = **EOn;
    Engine &IOff = **EOff;
    ByteSpan S = ByteSpan::of(Input);
    auto TOn = timeIt([&] { if (!IOn.parse(S)) std::abort(); },
                      repsFor(N * 2.0));
    size_t Hits = IOn.stats().MemoHits;
    auto TOff = timeIt([&] { if (!IOff.parse(S)) std::abort(); },
                       repsFor(N * 8.0));
    std::printf("%8zu | %14.1f | %14.1f | %10zu\n", N, TOn.MeanUs,
                TOff.MeanUs, Hits);
    std::string Entry = "memo/" + std::to_string(N);
    Report.add(Entry, "memo_on_us", TOn.MeanUs);
    Report.add(Entry, "memo_off_us", TOff.MeanUs);
    Report.add(Entry, "memo_hits", static_cast<double>(Hits));
  }
  note("shape: memo-off grows ~4x the single-pass cost; memo-on ~1x.");
}

void ablationBtoi() {
  banner("Ablation 2: btoi builtin vs grammar-level Int (Section 7)");
  // Both parse an array of n 4-byte little-endian integers; Specialized
  // reads each with u32le, Recursive descends byte by byte as in Figure 3.
  Grammar Specialized = mustLoad(R"(
    S -> {n = EOI / 4} for i = 0 to n do Num[4 * i, 4 * (i + 1)] ;
    Num -> raw[0, 4] {val = u32le(0)} ;
  )");
  Grammar Recursive = mustLoad(R"(
    S -> {n = EOI / 4} for i = 0 to n do Num[4 * i, 4 * (i + 1)] ;
    Num -> Num[0, EOI - 1] Byte[EOI - 1, EOI] {val = Num.val * 256 + Byte.v}
         / Byte[0, 1] {val = Byte.v} ;
    Byte -> raw[0, 1] {v = u8(0)} ;
  )");
  std::printf("%8s | %16s | %16s\n", "ints", "builtin (us)",
              "recursive (us)");
  for (size_t N : {64u, 512u, 4096u}) {
    ByteWriter W;
    for (size_t I = 0; I < N; ++I)
      W.u32le(static_cast<uint32_t>(I * 2654435761u));
    auto Bytes = W.take();
    ByteSpan S = ByteSpan::of(Bytes);
    auto ESpec = makeEngine(EngineKind::Interp, Specialized);
    auto ERec = makeEngine(EngineKind::Interp, Recursive);
    if (!ESpec || !ERec)
      std::abort();
    Engine &ISpec = **ESpec;
    Engine &IRec = **ERec;
    auto TSpec = timeIt([&] { if (!ISpec.parse(S)) std::abort(); },
                        repsFor(N * 0.6));
    auto TRec = timeIt([&] { if (!IRec.parse(S)) std::abort(); },
                       repsFor(N * 6.0));
    std::printf("%8zu | %16.1f | %16.1f\n", N, TSpec.MeanUs, TRec.MeanUs);
    std::string Entry = "btoi/" + std::to_string(N);
    Report.add(Entry, "builtin_us", TSpec.MeanUs);
    Report.add(Entry, "recursive_us", TRec.MeanUs);
  }
  note("shape: the builtin is several times faster — why the paper");
  note("specializes Int as btoi in generated parsers.");
}

void ablationSwitch() {
  banner("Ablation 3: switch term vs biased-choice desugaring");
  // Same language, expressed with a switch term vs. predicates + biased
  // choice (the desugaring Section 3.4 describes).
  Grammar WithSwitch = mustLoad(R"(
    S -> {n = EOI / 8} for i = 0 to n do Rec[8 * i, 8 * (i + 1)] ;
    Rec -> {t = u8(0)}
           switch(t = 1: TypeA[1, EOI] / t = 2: TypeB[1, EOI] / TypeC[1, EOI]) ;
    TypeA -> raw[0, EOI] {v = u32le(0)} ;
    TypeB -> raw[0, EOI] {v = u16le(0)} ;
    TypeC -> raw[0, EOI] ;
  )");
  Grammar Desugared = mustLoad(R"(
    S -> {n = EOI / 8} for i = 0 to n do Rec[8 * i, 8 * (i + 1)] ;
    Rec -> {t = u8(0)} check(t = 1) TypeA[1, EOI]
         / {t = u8(0)} check(t = 2) TypeB[1, EOI]
         / {t = u8(0)} TypeC[1, EOI] ;
    TypeA -> raw[0, EOI] {v = u32le(0)} ;
    TypeB -> raw[0, EOI] {v = u16le(0)} ;
    TypeC -> raw[0, EOI] ;
  )");
  std::printf("%8s | %14s | %16s\n", "records", "switch (us)",
              "desugared (us)");
  for (size_t N : {128u, 1024u}) {
    ByteWriter W;
    for (size_t I = 0; I < N; ++I) {
      W.u8(static_cast<uint8_t>(1 + I % 3));
      W.u32le(static_cast<uint32_t>(I));
      W.u16le(0);
      W.u8(0);
    }
    auto Bytes = W.take();
    ByteSpan S = ByteSpan::of(Bytes);
    auto ESw = makeEngine(EngineKind::Interp, WithSwitch);
    auto EDe = makeEngine(EngineKind::Interp, Desugared);
    if (!ESw || !EDe)
      std::abort();
    Engine &ISw = **ESw;
    Engine &IDe = **EDe;
    auto TSw = timeIt([&] { if (!ISw.parse(S)) std::abort(); },
                      repsFor(N * 1.2));
    auto TDe = timeIt([&] { if (!IDe.parse(S)) std::abort(); },
                      repsFor(N * 1.6));
    std::printf("%8zu | %14.1f | %16.1f\n", N, TSw.MeanUs, TDe.MeanUs);
    std::string Entry = "switch/" + std::to_string(N);
    Report.add(Entry, "switch_us", TSw.MeanUs);
    Report.add(Entry, "desugared_us", TDe.MeanUs);
  }
  note("shape: switch avoids re-running the discriminator per alternative.");
}

} // namespace

int main(int argc, char **argv) {
  ablationMemo();
  ablationBtoi();
  ablationSwitch();
  return Report.writeFile(benchJsonPath(argc, argv, "ablation")) ? 0 : 1;
}
