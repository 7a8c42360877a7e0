//===- bench/BenchUtil.h - timing/table/JSON helpers ------------*- C++ -*-===//
//
// Part of the IPG reproduction of "Interval Parsing Grammars for File Format
// Parsing" (PLDI 2023). MIT license.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Shared helpers for the table/figure benchmarks: repeated timing with
/// mean and standard deviation (the paper reports averages of 1000 runs
/// with variance), fixed-width table printing, and one JSON emitter shared
/// by every driver so all BENCH_*.json artifacts have a uniform schema:
///
///   { "bench": "<name>", "schema": "ipg-bench-v1",
///     "entries": [ { "name": "<series/case>",
///                    "metrics": { "<metric>": <number>, ... } }, ... ] }
///
/// Drivers that define IPG_BENCH_COUNT_ALLOCS before including this header
/// additionally get global operator new/delete replacements that count heap
/// allocations (read via allocCount()), which is how the throughput driver
/// measures the arena's allocation-avoidance.
///
//===----------------------------------------------------------------------===//

#ifndef IPG_BENCH_BENCHUTIL_H
#define IPG_BENCH_BENCHUTIL_H

#include <atomic>
#include <chrono>
#include <cmath>
#include <cstddef>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <functional>
#include <new>
#include <string>
#include <utility>
#include <vector>

#if defined(__unix__) || defined(__APPLE__)
#include <sys/resource.h>
#endif

namespace ipg::bench {

struct TimingResult {
  double MeanUs = 0;
  double StdDevUs = 0;
  size_t Reps = 0;
};

/// Runs \p Fn \p Reps times (after one warmup) and reports mean/stddev in
/// microseconds.
inline TimingResult timeIt(const std::function<void()> &Fn, size_t Reps) {
  using Clock = std::chrono::steady_clock;
  Fn(); // warmup
  std::vector<double> Samples;
  Samples.reserve(Reps);
  for (size_t I = 0; I < Reps; ++I) {
    auto T0 = Clock::now();
    Fn();
    auto T1 = Clock::now();
    Samples.push_back(
        std::chrono::duration<double, std::micro>(T1 - T0).count());
  }
  TimingResult R;
  R.Reps = Reps;
  for (double S : Samples)
    R.MeanUs += S;
  R.MeanUs /= static_cast<double>(Reps);
  for (double S : Samples)
    R.StdDevUs += (S - R.MeanUs) * (S - R.MeanUs);
  R.StdDevUs = std::sqrt(R.StdDevUs / static_cast<double>(Reps));
  return R;
}

/// Picks a repetition count that keeps one series cell under ~0.4s.
inline size_t repsFor(double OneRunUsEstimate) {
  if (OneRunUsEstimate <= 0)
    return 1000;
  double R = 400000.0 / OneRunUsEstimate;
  if (R > 1000)
    return 1000;
  if (R < 5)
    return 5;
  return static_cast<size_t>(R);
}

inline void banner(const std::string &Title) {
  std::printf("\n================================================================\n");
  std::printf("%s\n", Title.c_str());
  std::printf("================================================================\n");
}

inline void note(const std::string &Text) {
  std::printf("%s\n", Text.c_str());
}

/// Peak resident set size in bytes (0 where unsupported).
inline uint64_t peakRssBytes() {
#if defined(__unix__) || defined(__APPLE__)
  struct rusage RU;
  if (getrusage(RUSAGE_SELF, &RU) != 0)
    return 0;
#if defined(__APPLE__)
  return static_cast<uint64_t>(RU.ru_maxrss); // bytes on macOS
#else
  return static_cast<uint64_t>(RU.ru_maxrss) * 1024; // KiB on Linux
#endif
#else
  return 0;
#endif
}

//===----------------------------------------------------------------------===//
// Uniform BENCH_*.json emission.
//===----------------------------------------------------------------------===//

/// Accumulates named (entry, metric, value) triples and renders them in the
/// shared ipg-bench-v1 schema. Every driver funnels its JSON output through
/// this class; nothing else in the tree writes BENCH_*.json.
class BenchReport {
public:
  explicit BenchReport(std::string BenchName) : Name(std::move(BenchName)) {}

  /// Records \p Value under \p Metric for \p Entry (created on first use).
  /// Entries keep insertion order so artifacts diff cleanly run-to-run.
  void add(const std::string &Entry, const std::string &Metric,
           double Value) {
    for (auto &E : Entries)
      if (E.first == Entry) {
        E.second.emplace_back(Metric, Value);
        return;
      }
    Entries.emplace_back(Entry,
                         std::vector<std::pair<std::string, double>>{
                             {Metric, Value}});
  }

  std::string toJson() const {
    std::string S = "{\n  \"bench\": \"";
    S += escape(Name);
    S += "\",\n  \"schema\": \"ipg-bench-v1\",\n  \"entries\": [";
    bool FirstE = true;
    for (const auto &[EntryName, Metrics] : Entries) {
      if (!FirstE)
        S += ",";
      FirstE = false;
      S += "\n    { \"name\": \"";
      S += escape(EntryName);
      S += "\", \"metrics\": { ";
      bool FirstM = true;
      for (const auto &[Key, Value] : Metrics) {
        if (!FirstM)
          S += ", ";
        FirstM = false;
        S += '"';
        S += escape(Key);
        S += "\": ";
        S += number(Value);
      }
      S += " } }";
    }
    S += "\n  ]\n}\n";
    return S;
  }

  /// Writes the report to \p Path; returns false (with a note on stderr) on
  /// I/O failure so drivers can exit nonzero from CI.
  bool writeFile(const std::string &Path) const {
    std::FILE *F = std::fopen(Path.c_str(), "w");
    if (!F) {
      std::fprintf(stderr, "error: cannot open %s for writing\n",
                   Path.c_str());
      return false;
    }
    std::string S = toJson();
    size_t Written = std::fwrite(S.data(), 1, S.size(), F);
    std::fclose(F);
    if (Written != S.size()) {
      std::fprintf(stderr, "error: short write to %s\n", Path.c_str());
      return false;
    }
    std::printf("wrote %s (%zu entries)\n", Path.c_str(), Entries.size());
    return true;
  }

private:
  static std::string escape(const std::string &In) {
    std::string Out;
    for (char C : In) {
      if (C == '"' || C == '\\')
        Out += '\\';
      if (static_cast<unsigned char>(C) < 0x20) {
        Out += ' ';
        continue;
      }
      Out += C;
    }
    return Out;
  }

  /// JSON has no NaN/Inf; integers render without a fraction so artifact
  /// diffs of counters stay exact. The int64 range check must precede the
  /// cast — casting a finite double beyond int64 range is UB.
  static std::string number(double V) {
    if (!std::isfinite(V))
      return "0";
    if (V >= -9.2e18 && V <= 9.2e18 &&
        V == static_cast<double>(static_cast<int64_t>(V))) {
      char Buf[32];
      std::snprintf(Buf, sizeof(Buf), "%lld",
                    static_cast<long long>(V));
      return Buf;
    }
    char Buf[64];
    std::snprintf(Buf, sizeof(Buf), "%.6g", V);
    return Buf;
  }

  std::string Name;
  std::vector<
      std::pair<std::string, std::vector<std::pair<std::string, double>>>>
      Entries;
};

/// The artifact path for a driver: argv[1] if given, else BENCH_<name>.json
/// in the working directory.
inline std::string benchJsonPath(int Argc, char **Argv,
                                 const std::string &DefaultName) {
  if (Argc > 1)
    return Argv[1];
  return "BENCH_" + DefaultName + ".json";
}

} // namespace ipg::bench

//===----------------------------------------------------------------------===//
// Optional heap-allocation counting (define IPG_BENCH_COUNT_ALLOCS before
// including this header from exactly one translation unit).
//===----------------------------------------------------------------------===//

#ifdef IPG_BENCH_COUNT_ALLOCS

namespace ipg::bench {
namespace detail {
// Relaxed atomic: bench_service allocates from several worker threads at
// once, and a torn plain counter would make the allocation gates flaky.
// Relaxed ordering keeps the count exact without fencing the hot path.
inline std::atomic<uint64_t> &allocCounterStorage() {
  static std::atomic<uint64_t> Count{0};
  return Count;
}
inline std::atomic<uint64_t> &allocByteStorage() {
  static std::atomic<uint64_t> Bytes{0};
  return Bytes;
}
/// Counts one operator-new call of \p Size bytes.
inline void countAlloc(std::size_t Size) {
  allocCounterStorage().fetch_add(1, std::memory_order_relaxed);
  allocByteStorage().fetch_add(Size, std::memory_order_relaxed);
}
} // namespace detail

/// aligned_alloc requires the size to be a multiple of the alignment.
inline std::size_t alignUp(std::size_t Size, std::align_val_t Align) {
  auto A = static_cast<std::size_t>(Align);
  return (Size + A - 1) / A * A;
}

/// Number of operator-new calls since process start.
inline uint64_t allocCount() {
  return detail::allocCounterStorage().load(std::memory_order_relaxed);
}

/// Bytes requested by those calls (freed memory is not subtracted).
inline uint64_t allocBytes() {
  return detail::allocByteStorage().load(std::memory_order_relaxed);
}
} // namespace ipg::bench

// Every replacement stays out of line. Inlined, one half of a pair
// exposes malloc or free to GCC 12, which then sees them meet the other
// half's operator new or delete in the caller and warns
// (-Wmismatched-new-delete), although every pair here is malloc/free
// underneath.
#define IPG_BENCH_NOINLINE __attribute__((noinline))

IPG_BENCH_NOINLINE void *operator new(std::size_t Size) {
  ipg::bench::detail::countAlloc(Size);
  if (void *P = std::malloc(Size ? Size : 1))
    return P;
  throw std::bad_alloc();
}

IPG_BENCH_NOINLINE void *operator new[](std::size_t Size) {
  ipg::bench::detail::countAlloc(Size);
  if (void *P = std::malloc(Size ? Size : 1))
    return P;
  throw std::bad_alloc();
}

IPG_BENCH_NOINLINE void *operator new(std::size_t Size, const std::nothrow_t &) noexcept {
  ipg::bench::detail::countAlloc(Size);
  return std::malloc(Size ? Size : 1);
}

IPG_BENCH_NOINLINE void *operator new[](std::size_t Size, const std::nothrow_t &) noexcept {
  ipg::bench::detail::countAlloc(Size);
  return std::malloc(Size ? Size : 1);
}

// Over-aligned news must be counted too, or alignas(32) runtime types
// would silently bypass the CI allocation gate.
IPG_BENCH_NOINLINE void *operator new(std::size_t Size, std::align_val_t Align) {
  ipg::bench::detail::countAlloc(Size);
  if (void *P = std::aligned_alloc(static_cast<std::size_t>(Align),
                                   ipg::bench::alignUp(Size, Align)))
    return P;
  throw std::bad_alloc();
}

IPG_BENCH_NOINLINE void *operator new[](std::size_t Size, std::align_val_t Align) {
  ipg::bench::detail::countAlloc(Size);
  if (void *P = std::aligned_alloc(static_cast<std::size_t>(Align),
                                   ipg::bench::alignUp(Size, Align)))
    return P;
  throw std::bad_alloc();
}

IPG_BENCH_NOINLINE void operator delete(void *P) noexcept { std::free(P); }
IPG_BENCH_NOINLINE void operator delete[](void *P) noexcept { std::free(P); }
IPG_BENCH_NOINLINE void operator delete(void *P, std::size_t) noexcept {
  std::free(P);
}
IPG_BENCH_NOINLINE void operator delete[](void *P, std::size_t) noexcept {
  std::free(P);
}
IPG_BENCH_NOINLINE void operator delete(void *P,
                                      const std::nothrow_t &) noexcept {
  std::free(P);
}
IPG_BENCH_NOINLINE void operator delete[](void *P,
                                        const std::nothrow_t &) noexcept {
  std::free(P);
}
IPG_BENCH_NOINLINE void operator delete(void *P, std::align_val_t) noexcept {
  std::free(P);
}
IPG_BENCH_NOINLINE void operator delete[](void *P, std::align_val_t) noexcept {
  std::free(P);
}
IPG_BENCH_NOINLINE void operator delete(void *P, std::size_t,
                                      std::align_val_t) noexcept {
  std::free(P);
}
IPG_BENCH_NOINLINE void operator delete[](void *P, std::size_t,
                                        std::align_val_t) noexcept {
  std::free(P);
}
#undef IPG_BENCH_NOINLINE

#endif // IPG_BENCH_COUNT_ALLOCS

#endif // IPG_BENCH_BENCHUTIL_H
