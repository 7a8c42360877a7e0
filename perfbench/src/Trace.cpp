//===- perfbench/src/Trace.cpp - span output and counting operator new ----===//
//
// Part of the IPG reproduction of "Interval Parsing Grammars for File Format
// Parsing" (PLDI 2023). MIT license.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Writes the span log, and replaces the global allocation functions so
/// the traced run can count heap allocations per request (process-wide;
/// relaxed atomics keep the count exact across worker threads). Counting
/// is off unless the run enables it.
///
//===----------------------------------------------------------------------===//

#include "Trace.h"

#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <new>

namespace ipg::perfbench {

std::atomic<bool> CountAllocs{false};

namespace {
std::atomic<uint64_t> Allocs{0};

inline void *countedAlloc(std::size_t Size) {
  if (CountAllocs.load(std::memory_order_relaxed))
    Allocs.fetch_add(1, std::memory_order_relaxed);
  return std::malloc(Size ? Size : 1);
}

inline void *countedAlignedAlloc(std::size_t Size, std::align_val_t Align) {
  if (CountAllocs.load(std::memory_order_relaxed))
    Allocs.fetch_add(1, std::memory_order_relaxed);
  auto A = static_cast<std::size_t>(Align);
  // aligned_alloc requires the size to be a multiple of the alignment.
  return std::aligned_alloc(A, ((Size ? Size : 1) + A - 1) / A * A);
}
} // namespace

uint64_t allocCount() { return Allocs.load(std::memory_order_relaxed); }

bool SpanLog::write(const std::string &Path) const {
  std::ofstream Out(Path, std::ios::trunc);
  for (const Span &S : Spans) {
    Out << "{\"name\":\"" << S.Name << "\",\"req\":" << S.Req
        << ",\"start_ns\":" << S.StartNs << ",\"end_ns\":" << S.EndNs;
    if (S.Parent != NoParent)
      Out << ",\"parent\":" << S.Parent;
    Out << "}\n";
  }
  return static_cast<bool>(Out);
}

} // namespace ipg::perfbench

using ipg::perfbench::countedAlignedAlloc;
using ipg::perfbench::countedAlloc;

void *operator new(std::size_t Size) {
  if (void *P = countedAlloc(Size))
    return P;
  throw std::bad_alloc();
}
void *operator new[](std::size_t Size) {
  if (void *P = countedAlloc(Size))
    return P;
  throw std::bad_alloc();
}
void *operator new(std::size_t Size, const std::nothrow_t &) noexcept {
  return countedAlloc(Size);
}
void *operator new[](std::size_t Size, const std::nothrow_t &) noexcept {
  return countedAlloc(Size);
}
void *operator new(std::size_t Size, std::align_val_t Align) {
  if (void *P = countedAlignedAlloc(Size, Align))
    return P;
  throw std::bad_alloc();
}
void *operator new[](std::size_t Size, std::align_val_t Align) {
  if (void *P = countedAlignedAlloc(Size, Align))
    return P;
  throw std::bad_alloc();
}

void operator delete(void *P) noexcept { std::free(P); }
void operator delete[](void *P) noexcept { std::free(P); }
void operator delete(void *P, std::size_t) noexcept { std::free(P); }
void operator delete[](void *P, std::size_t) noexcept { std::free(P); }
void operator delete(void *P, const std::nothrow_t &) noexcept { std::free(P); }
void operator delete[](void *P, const std::nothrow_t &) noexcept {
  std::free(P);
}
void operator delete(void *P, std::align_val_t) noexcept { std::free(P); }
void operator delete[](void *P, std::align_val_t) noexcept { std::free(P); }
void operator delete(void *P, std::size_t, std::align_val_t) noexcept {
  std::free(P);
}
void operator delete[](void *P, std::size_t, std::align_val_t) noexcept {
  std::free(P);
}
