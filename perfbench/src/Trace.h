//===- perfbench/src/Trace.h - spans, allocations, quantiles --*- C++ -*-===//
//
// Part of the IPG reproduction of "Interval Parsing Grammars for File Format
// Parsing" (PLDI 2023). MIT license.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The traced run's instruments. Spans are recorded in memory around each
/// public call the benchmark makes into the program (name, request id,
/// parent span, start and end on the steady clock) and written out as
/// JSON lines when the run ends. Allocation counting replaces the global
/// operator new (Trace.cpp) and only counts while enabled, so the
/// untraced run pays one predictable branch per allocation.
///
//===----------------------------------------------------------------------===//

#ifndef IPG_PERFBENCH_TRACE_H
#define IPG_PERFBENCH_TRACE_H

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cstdint>
#include <string>
#include <vector>

namespace ipg::perfbench {

using Clock = std::chrono::steady_clock;

inline uint64_t nowNs() {
  return static_cast<uint64_t>(
      std::chrono::duration_cast<std::chrono::nanoseconds>(
          Clock::now().time_since_epoch())
          .count());
}

/// Global heap-allocation counter (Trace.cpp).
extern std::atomic<bool> CountAllocs;
uint64_t allocCount();

/// In-memory span log. Not thread-safe: only the client thread records.
class SpanLog {
public:
  static constexpr uint32_t NoParent = ~0u;

  explicit SpanLog(bool Enabled, size_t Cap = 1u << 20)
      : Enabled(Enabled), Cap(Cap) {
    if (Enabled)
      Spans.reserve(Cap);
  }

  bool enabled() const { return Enabled; }

  /// Records one span and returns its index (the parent handle of
  /// nested spans). Drops spans past the capacity.
  uint32_t add(const char *Name, uint64_t Req, uint64_t StartNs,
               uint64_t EndNs, uint32_t Parent = NoParent) {
    if (!Enabled || Spans.size() >= Cap)
      return NoParent;
    Spans.push_back(Span{Name, Req, StartNs, EndNs, Parent});
    return static_cast<uint32_t>(Spans.size() - 1);
  }

  /// Sets the end of span \p Idx (a handle add() returned).
  void close(uint32_t Idx, uint64_t EndNs) {
    if (Idx != NoParent)
      Spans[Idx].EndNs = EndNs;
  }

  size_t size() const { return Spans.size(); }

  /// Writes one JSON object per span to \p Path; false on I/O failure.
  bool write(const std::string &Path) const;

private:
  struct Span {
    const char *Name;
    uint64_t Req;
    uint64_t StartNs;
    uint64_t EndNs;
    uint32_t Parent;
  };
  bool Enabled;
  size_t Cap;
  std::vector<Span> Spans;
};

/// Fixed-size log-linear histogram of nanosecond values (64 linear
/// buckets per octave, each under 1.6% wide), so the client's memory does
/// not grow with the number of requests it measures. Each bucket also
/// sums its values: a quantile reads as the mean of the samples in its
/// bucket, not as a fixed bucket edge.
class Histogram {
public:
  Histogram() : Counts(NumBuckets, 0), Sums(NumBuckets, 0) {}

  void add(uint64_t Ns) {
    size_t I = index(Ns);
    ++Counts[I];
    Sums[I] += Ns;
    ++Total;
  }

  void merge(const Histogram &O) {
    for (size_t I = 0; I < NumBuckets; ++I) {
      Counts[I] += O.Counts[I];
      Sums[I] += O.Sums[I];
    }
    Total += O.Total;
  }

  uint64_t count() const { return Total; }

  /// The \p P quantile (0..1) by nearest rank, in microseconds: the mean
  /// of the samples in the bucket that holds that rank.
  double quantileUs(double P) const {
    if (!Total)
      return 0;
    uint64_t Rank =
        static_cast<uint64_t>(P * static_cast<double>(Total - 1)) + 1;
    uint64_t Seen = 0;
    for (size_t I = 0; I < NumBuckets; ++I)
      if ((Seen += Counts[I]) >= Rank)
        return static_cast<double>(Sums[I]) /
               static_cast<double>(Counts[I]) / 1e3;
    return 0;
  }

private:
  static constexpr size_t SubBits = 7; // values below 2^7 are exact
  static constexpr size_t Half = size_t(1) << (SubBits - 1);
  static constexpr size_t NumBuckets = (64 - SubBits + 2) * Half;

  static size_t index(uint64_t V) {
    if (V < 2 * Half)
      return static_cast<size_t>(V);
    unsigned Shift = 63 - static_cast<unsigned>(__builtin_clzll(V)) -
                     static_cast<unsigned>(SubBits - 1);
    return 2 * Half + (Shift - 1) * Half + static_cast<size_t>(V >> Shift) -
           Half;
  }

  std::vector<uint64_t> Counts;
  std::vector<uint64_t> Sums;
  uint64_t Total = 0;
};

/// The \p P quantile (0..1) of \p V by nearest rank; sorts \p V.
inline double quantile(std::vector<double> &V, double P) {
  if (V.empty())
    return 0;
  std::sort(V.begin(), V.end());
  size_t I = static_cast<size_t>(P * static_cast<double>(V.size() - 1) + 0.5);
  return V[std::min(I, V.size() - 1)];
}

inline double median(std::vector<double> V) { return quantile(V, 0.5); }

} // namespace ipg::perfbench

#endif // IPG_PERFBENCH_TRACE_H
