//===- bench/bench_micro.cpp - google-benchmark micro benchmarks ----------===//
//
// Part of the IPG reproduction of "Interval Parsing Grammars for File Format
// Parsing" (PLDI 2023). MIT license.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Engine micro-benchmarks (google-benchmark): expression evaluation,
/// environment operations, span reads, and small end-to-end parses. These
/// track engine-level regressions rather than paper figures.
///
//===----------------------------------------------------------------------===//

#include "analysis/AttributeCheck.h"
#include "expr/Eval.h"
#include "formats/Dns.h"
#include "formats/FormatRegistry.h"
#include "formats/Ipv4Udp.h"
#include "runtime/Engine.h"
#include "support/GenRuntime.h"

#include <benchmark/benchmark.h>
#include <cstddef>
#include <cstdint>
#include <optional>
#include <vector>

using namespace ipg;
using namespace ipg::formats;

// One alternative's environment traffic on the frame every tier runs
// in: begin the alternative, define eight attributes, widen start/end
// through updStartEnd, read everything back through the lexical lookup.
static void BM_FrameSetGet(benchmark::State &State) {
  ipg_rt::Frame F;
  for (auto _ : State) {
    F.beginAlt(nullptr, 0, 64, nullptr, 0);
    for (Symbol S = 8; S < 16; ++S)
      F.setAttr(S, S * 3);
    ipg_rt::updStartEnd(F, ipg_rt::IdStart, ipg_rt::IdEnd, 4, 12, true);
    ipg_rt::updStartEnd(F, ipg_rt::IdStart, ipg_rt::IdEnd, 2, 9, true);
    long long Sum = 0, V = 0;
    for (Symbol S : {Symbol{ipg_rt::IdStart}, Symbol{ipg_rt::IdEnd}})
      Sum += F.attr(S, V) ? V : 0;
    for (Symbol S = 8; S < 16; ++S)
      Sum += F.attr(S, V) ? V : 0;
    benchmark::DoNotOptimize(Sum);
  }
}
BENCHMARK(BM_FrameSetGet);

static void BM_ByteSpanReads(benchmark::State &State) {
  std::vector<uint8_t> Buf(4096);
  for (size_t I = 0; I < Buf.size(); ++I)
    Buf[I] = static_cast<uint8_t>(I);
  ByteSpan S = ByteSpan::of(Buf);
  for (auto _ : State) {
    uint64_t Sum = 0;
    for (size_t I = 0; I + 8 <= Buf.size(); I += 8)
      Sum += S.readUnsigned(I, 8, Endian::Little);
    benchmark::DoNotOptimize(Sum);
  }
}
BENCHMARK(BM_ByteSpanReads);

static void BM_ExprEval(benchmark::State &State) {
  // (x * 4 + 8 <= EOI) && (x != 0)
  StringInterner In;
  Symbol X = In.intern("x");
  ExprPtr E = BinaryExpr::create(
      BinOpKind::And,
      BinaryExpr::create(
          BinOpKind::Le,
          BinaryExpr::create(
              BinOpKind::Add,
              BinaryExpr::create(BinOpKind::Mul, RefExpr::attr(X),
                                 NumExpr::create(4)),
              NumExpr::create(8)),
          RefExpr::eoi()),
      BinaryExpr::create(BinOpKind::Ne, RefExpr::attr(X),
                         NumExpr::create(0)));

  class Ctx : public EvalContext {
  public:
    int64_t XV = 7;
    std::optional<int64_t> attr(Symbol) const override { return XV; }
    std::optional<int64_t> ntAttr(Symbol, Symbol) const override {
      return std::nullopt;
    }
    std::optional<int64_t> elemAttr(Symbol, int64_t, Symbol) const override {
      return std::nullopt;
    }
    std::optional<int64_t> arrayLength(Symbol) const override {
      return std::nullopt;
    }
    std::optional<int64_t> eoi() const override { return 4096; }
    std::optional<int64_t> termEnd(uint32_t) const override {
      return std::nullopt;
    }
    std::optional<int64_t> readInput(ReadKind, int64_t,
                                     int64_t) const override {
      return std::nullopt;
    }
  } Ctx;

  for (auto _ : State) {
    auto V = evaluate(*E, Ctx);
    benchmark::DoNotOptimize(V);
  }
}
BENCHMARK(BM_ExprEval);

static void BM_GrammarLoad(benchmark::State &State) {
  for (auto _ : State) {
    auto R = loadGrammar(DnsGrammarText);
    benchmark::DoNotOptimize(R);
  }
}
BENCHMARK(BM_GrammarLoad);

static void BM_ParseDnsPacket(benchmark::State &State) {
  auto FE = makeFormatEngine("dns", EngineKind::Interp);
  if (!FE)
    return;
  Engine &I = **FE;
  DnsSynthSpec Spec;
  Spec.NumAnswers = 8;
  auto Bytes = synthesizeDns(Spec);
  ByteSpan S = ByteSpan::of(Bytes);
  for (auto _ : State) {
    auto T = I.parse(S);
    benchmark::DoNotOptimize(T);
  }
  State.SetBytesProcessed(static_cast<int64_t>(State.iterations()) *
                          static_cast<int64_t>(Bytes.size()));
}
BENCHMARK(BM_ParseDnsPacket);

static void BM_ParseIpv4Packet(benchmark::State &State) {
  auto FE = makeFormatEngine("ipv4udp", EngineKind::Interp);
  if (!FE)
    return;
  Engine &I = **FE;
  auto Bytes = synthesizeIpv4Udp(Ipv4SynthSpec());
  ByteSpan S = ByteSpan::of(Bytes);
  for (auto _ : State) {
    auto T = I.parse(S);
    benchmark::DoNotOptimize(T);
  }
  State.SetBytesProcessed(static_cast<int64_t>(State.iterations()) *
                          static_cast<int64_t>(Bytes.size()));
}
BENCHMARK(BM_ParseIpv4Packet);

BENCHMARK_MAIN();
