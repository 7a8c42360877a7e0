//===- bench/bench_fig14_memory.cpp - Figure 14 ---------------------------===//
//
// Part of the IPG reproduction of "Interval Parsing Grammars for File Format
// Parsing" (PLDI 2023). MIT license.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Regenerates Figure 14: heap memory consumed while parsing DNS and
/// IPv4+UDP packets, IPG vs. Nail-style. The paper measured with Valgrind;
/// offline we instrument the global allocator in this binary instead
/// (every operator new/delete is counted), which measures the same
/// quantity: bytes requested from the heap per parse.
///
//===----------------------------------------------------------------------===//

#include "baselines/NailParsers.h"
#include "formats/Dns.h"
#include "formats/FormatRegistry.h"
#include "formats/Ipv4Udp.h"
#include "runtime/Engine.h"

#include "BenchUtil.h"

#include <atomic>
#include <cstddef>
#include <cstdlib>
#include <functional>
#include <new>
#include <string>

using namespace ipg;
using namespace ipg::bench;
using namespace ipg::baselines;
using namespace ipg::formats;

//===----------------------------------------------------------------------===//
// Counting allocator (the Valgrind substitute).
//===----------------------------------------------------------------------===//

namespace {
std::atomic<size_t> TotalAllocated{0};
std::atomic<size_t> CurrentBytes{0};
std::atomic<size_t> PeakBytes{0};

void *countedAlloc(size_t N) {
  // Prefix each allocation with its size so delete can account for it.
  void *Raw = std::malloc(N + 16);
  if (!Raw)
    std::abort();
  *static_cast<size_t *>(Raw) = N;
  TotalAllocated.fetch_add(N, std::memory_order_relaxed);
  size_t Cur = CurrentBytes.fetch_add(N, std::memory_order_relaxed) + N;
  size_t Peak = PeakBytes.load(std::memory_order_relaxed);
  while (Cur > Peak &&
         !PeakBytes.compare_exchange_weak(Peak, Cur,
                                          std::memory_order_relaxed))
    ;
  return static_cast<char *>(Raw) + 16;
}

void countedFree(void *P) {
  if (!P)
    return;
  void *Raw = static_cast<char *>(P) - 16;
  size_t N = *static_cast<size_t *>(Raw);
  CurrentBytes.fetch_sub(N, std::memory_order_relaxed);
  std::free(Raw);
}

struct HeapSnapshot {
  size_t Total;
  size_t Peak;
};

HeapSnapshot measure(const std::function<void()> &Fn) {
  Fn(); // warm any lazy init outside the measurement
  TotalAllocated.store(0);
  PeakBytes.store(CurrentBytes.load());
  size_t Before = TotalAllocated.load();
  Fn();
  return {TotalAllocated.load() - Before, PeakBytes.load()};
}
} // namespace

void *operator new(size_t N) { return countedAlloc(N); }
void *operator new[](size_t N) { return countedAlloc(N); }
void operator delete(void *P) noexcept { countedFree(P); }
void operator delete[](void *P) noexcept { countedFree(P); }
void operator delete(void *P, size_t) noexcept { countedFree(P); }
void operator delete[](void *P, size_t) noexcept { countedFree(P); }

//===----------------------------------------------------------------------===//

int main(int argc, char **argv) {
  BenchReport Report("fig14_memory");
  banner("Figure 14a: heap bytes per DNS parse");
  {
    auto FE = makeFormatEngine("dns", EngineKind::Interp);
    if (!FE)
      return 1;
    Engine &I = **FE;
    std::printf("%8s | %14s | %14s\n", "answers", "IPG (bytes)",
                "Nail-style (B)");
    for (size_t Answers : {2u, 8u, 24u, 64u}) {
      DnsSynthSpec Spec;
      Spec.NumAnswers = Answers;
      Spec.RDataSize = 16;
      auto Bytes = synthesizeDns(Spec);
      ByteSpan Image = ByteSpan::of(Bytes);

      HeapSnapshot Ipg = measure([&] {
        if (!I.parse(Image))
          std::abort();
      });
      // Fresh arena per parse: Valgrind sees Nail's arena blocks and the
      // payload copies they hold.
      HeapSnapshot Nail = measure([&] {
        Arena A;
        if (!nailParseDns(A, Bytes.data(), Bytes.size()))
          std::abort();
      });
      std::printf("%8zu | %14zu | %14zu\n", Answers, Ipg.Total, Nail.Total);
      std::string Entry = "dns/" + std::to_string(Answers) + "ans";
      Report.add(Entry, "ipg_heap_bytes", static_cast<double>(Ipg.Total));
      Report.add(Entry, "nail_heap_bytes", static_cast<double>(Nail.Total));
    }
  }

  banner("Figure 14b: heap bytes per IPv4+UDP parse");
  {
    auto FE = makeFormatEngine("ipv4udp", EngineKind::Interp);
    if (!FE)
      return 1;
    Engine &I = **FE;
    std::printf("%8s | %14s | %14s\n", "payload", "IPG (bytes)",
                "Nail-style (B)");
    for (size_t Payload : {64u, 256u, 1024u, 1400u}) {
      Ipv4SynthSpec Spec;
      Spec.PayloadSize = Payload;
      auto Bytes = synthesizeIpv4Udp(Spec);
      ByteSpan Image = ByteSpan::of(Bytes);

      HeapSnapshot Ipg = measure([&] {
        if (!I.parse(Image))
          std::abort();
      });
      HeapSnapshot Nail = measure([&] {
        Arena A;
        if (!nailParseIpv4(A, Bytes.data(), Bytes.size()))
          std::abort();
      });
      std::printf("%8zu | %14zu | %14zu\n", Payload, Ipg.Total, Nail.Total);
      std::string Entry = "ipv4udp/" + std::to_string(Payload) + "b";
      Report.add(Entry, "ipg_heap_bytes", static_cast<double>(Ipg.Total));
      Report.add(Entry, "nail_heap_bytes", static_cast<double>(Nail.Total));
    }
  }

  note("\nshape: IPG is flat in payload size (payloads are skipped");
  note("zero-copy) while Nail-style copies payloads into its arena; for");
  note("record-light packets IPG's tree nodes dominate instead. See");
  note("EXPERIMENTS.md for the comparison against the paper's Figure 14.");
  return Report.writeFile(benchJsonPath(argc, argv, "fig14_memory")) ? 0 : 1;
}
