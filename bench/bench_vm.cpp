//===- bench/bench_vm.cpp - bytecode VM vs interpreter --------------------===//
//
// Part of the IPG reproduction of "Interval Parsing Grammars for File Format
// Parsing" (PLDI 2023). MIT license.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The bytecode VM's acceptance artifact: for every format it measures
/// the computed-goto VM (EngineKind::Vm) and the act-stack interpreter
/// on the same synthesized corpus, in-process. The allocation window
/// follows bench_codegen's steady-state protocol; the timing windows
/// are interleaved round-robin between the two engines with each side
/// keeping its best round, so a shared-machine load spike cannot land
/// on one engine only and invert the reported speedup. BENCH_vm.json
/// (ipg-bench-v1 schema) carries one `<format>/vm` entry per format:
///
///   allocs_per_parse, nodes_per_parse, memo_hits, memo_misses — the
///     machine-independent counters CI GATES against the committed
///     bench/baseline/BENCH_vm.json. allocs_per_parse = 0 is the
///     steady-state arena claim; the node/memo counters are locked to
///     the interpreter's by the differential harness, so a drift here
///     means an engine-parity break, not a perf wobble.
///   load_allocs, cold_parse_allocs — the cold path, also GATED: heap
///     allocations of one loadGrammar of the format (tokenize, parse,
///     complete, check), and of a fresh VM engine's construction plus
///     its first parse of the sample (lowering, frames, a new store).
///   deep_alloc_bytes_per_level (entry `depth/vm`) — also GATED: heap
///     bytes a fresh VM engine allocates for one 10^6-level parse of a
///     linear list rule (depth_test's `A -> "x"[0, 1] A[1, EOI] /
///     "x"[0, 1]`), per level — what depth-free recursion costs per
///     grammar level: tree, memo table and the tier's level records.
///   mean_us, bytes_per_sec, speedup — information only (the speedup
///     is VM-over-interpreter on this machine; the >=1.5x target on
///     pdf/elf is for real cores, not noisy CI runners).
///
/// bench_codegen places the VM between the interpreter and the compiled
/// parser; this driver exists so the VM's own regression gate is a
/// small, fast artifact that needs no host C++ compiler.
///
/// Usage: bench_vm [output.json] [reps]
///
//===----------------------------------------------------------------------===//

#define IPG_BENCH_COUNT_ALLOCS
#include "BenchUtil.h"

#include "analysis/AttributeCheck.h"
#include "formats/FormatRegistry.h"
#include "runtime/Engine.h"

#include <algorithm>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <string>
#include <vector>

using namespace ipg;
using namespace ipg::bench;

namespace {

struct Measurement {
  double MeanUs = 0;
  double AllocsPerParse = 0;
};

/// Warmup + allocation window for one engine (the deterministic,
/// machine-independent half of the measurement). Returns false if any
/// parse fails.
bool measureAllocs(Engine &E, const std::string &What, ByteSpan Image,
                   size_t Reps, Measurement &Out) {
  for (int W = 0; W < 5; ++W)
    if (auto R = E.parse(Image); !R) {
      std::fprintf(stderr, "error: %s rejected its corpus input: %s\n",
                   What.c_str(), R.message().c_str());
      return false;
    }
  uint64_t A0 = allocCount();
  for (size_t K = 0; K < Reps; ++K)
    if (!E.parse(Image))
      std::abort();
  uint64_t A1 = allocCount();
  Out.AllocsPerParse =
      static_cast<double>(A1 - A0) / static_cast<double>(Reps);
  return true;
}

/// Heap allocations of \p Fn, which runs once untimed first so one-time
/// statics stay out of the count.
template <typename Fn> double coldAllocs(Fn &&Run) {
  Run();
  uint64_t A0 = allocCount();
  Run();
  return static_cast<double>(allocCount() - A0);
}

/// Timing half: the two engines' windows are INTERLEAVED round-robin
/// and each side keeps its best round. A sequential A-then-B protocol
/// lets one machine-load spike land entirely on one engine and invert
/// the informational speedup; alternating windows expose both engines
/// to the same noise, and min-of-rounds estimates the undisturbed cost.
void timeInterleaved(Engine &A, Engine &B, ByteSpan Image, size_t Reps,
                     Measurement &OutA, Measurement &OutB) {
  constexpr int Rounds = 8;
  double BestA = 0, BestB = 0;
  for (int R = 0; R < Rounds; ++R) {
    double UsA =
        timeIt([&] { if (!A.parse(Image)) std::abort(); }, Reps).MeanUs;
    double UsB =
        timeIt([&] { if (!B.parse(Image)) std::abort(); }, Reps).MeanUs;
    BestA = R == 0 ? UsA : std::min(BestA, UsA);
    BestB = R == 0 ? UsB : std::min(BestB, UsB);
  }
  OutA.MeanUs = BestA;
  OutB.MeanUs = BestB;
}

} // namespace

int main(int argc, char **argv) {
  std::string OutPath = benchJsonPath(argc, argv, "vm");
  size_t Reps = 200;
  if (argc > 2)
    Reps = static_cast<size_t>(std::strtoull(argv[2], nullptr, 10));
  if (Reps == 0)
    Reps = 1;

  BenchReport Report("vm");
  banner("Bytecode VM vs interpreter (" + std::to_string(Reps) +
         " reps per case)");
  std::printf("%-16s | %10s | %10s | %12s | %10s | %8s\n", "case", "bytes",
              "mean us", "MB/s", "allocs", "vs intp");

  for (const formats::FormatInfo &FI : formats::allFormats()) {
    auto IE = formats::makeFormatEngine(FI.Name, EngineKind::Interp);
    auto VE = formats::makeFormatEngine(FI.Name, EngineKind::Vm);
    if (!IE || !VE) {
      std::fprintf(stderr, "error: %s: %s\n", FI.Name.c_str(),
                   (!IE ? IE.message() : VE.message()).c_str());
      return 1;
    }
    std::vector<uint8_t> Bytes = formats::sampleInput(FI.Name);
    double Size = static_cast<double>(Bytes.size());

    ByteSpan Image = ByteSpan::of(Bytes);
    const Grammar &G = (*VE).Load->G;
    bool ColdOk = true;
    double LoadAllocs = coldAllocs([&] {
      ColdOk &= static_cast<bool>(formats::loadFormatGrammar(FI.Name));
    });
    double ColdParseAllocs = coldAllocs([&] {
      auto E = makeEngine(EngineKind::Vm, G, (*VE).Blackboxes.get());
      ColdOk &= E && (*E)->parse(Image);
    });
    if (!ColdOk) {
      std::fprintf(stderr, "error: %s: cold load or first parse failed\n",
                   FI.Name.c_str());
      return 1;
    }

    Measurement Interp, Vm;
    if (!measureAllocs(**IE, FI.Name + "/interp", Image, Reps, Interp) ||
        !measureAllocs(**VE, FI.Name + "/vm", Image, Reps, Vm))
      return 1;
    timeInterleaved(**IE, **VE, Image, Reps, Interp, Vm);

    Engine &V = **VE;
    double Bps = Vm.MeanUs > 0 ? Size / (Vm.MeanUs * 1e-6) : 0;
    double Speedup = Vm.MeanUs > 0 ? Interp.MeanUs / Vm.MeanUs : 0;
    std::string Entry = FI.Name + "/vm";
    Report.add(Entry, "input_bytes", Size);
    Report.add(Entry, "reps", static_cast<double>(Reps));
    Report.add(Entry, "mean_us", Vm.MeanUs);
    Report.add(Entry, "bytes_per_sec", Bps);
    Report.add(Entry, "allocs_per_parse", Vm.AllocsPerParse);
    Report.add(Entry, "load_allocs", LoadAllocs);
    Report.add(Entry, "cold_parse_allocs", ColdParseAllocs);
    Report.add(Entry, "nodes_per_parse",
               static_cast<double>(V.stats().NodesCreated));
    Report.add(Entry, "memo_hits", static_cast<double>(V.stats().MemoHits));
    Report.add(Entry, "memo_misses",
               static_cast<double>(V.stats().MemoMisses));
    Report.add(Entry, "speedup", Speedup);
    std::printf("%-16s | %10zu | %10.2f | %12.2f | %10.1f | %7.2fx\n",
                Entry.c_str(), Bytes.size(), Vm.MeanUs, Bps / 1e6,
                Vm.AllocsPerParse, Speedup);
  }

  // The per-level footprint of depth-free recursion. Deterministic: the
  // vector and arena growth it sums follows the input, not the machine.
  {
    constexpr size_t Levels = 1'000'000;
    auto Load = loadGrammar(R"(A -> "x"[0, 1] A[1, EOI] / "x"[0, 1] ;)");
    EngineOptions Opts;
    Opts.MaxDepth = size_t{1} << 21;
    if (!Load) {
      std::fprintf(stderr, "error: depth/vm: %s\n", Load.message().c_str());
      return 1;
    }
    auto E = makeEngine(EngineKind::Vm, Load->G, nullptr, Opts);
    if (!E) {
      std::fprintf(stderr, "error: depth/vm: %s\n", E.message().c_str());
      return 1;
    }
    std::vector<uint8_t> In(Levels, 'x');
    const uint64_t B0 = allocBytes();
    if (!(*E)->parse(ByteSpan::of(In)) ||
        (*E)->stats().PeakDepth != Levels + 1) {
      std::fprintf(stderr, "error: depth/vm: the deep list parse failed\n");
      return 1;
    }
    const double PerLevel = static_cast<double>(allocBytes() - B0) / Levels;
    Report.add("depth/vm", "levels", static_cast<double>(Levels));
    Report.add("depth/vm", "deep_alloc_bytes_per_level", PerLevel);
    std::printf("%-16s | %10zu levels | %8.1f heap bytes per level\n",
                "depth/vm", Levels, PerLevel);
  }

  Report.add("process", "peak_rss_bytes",
             static_cast<double>(peakRssBytes()));
  return Report.writeFile(OutPath) ? 0 : 1;
}
