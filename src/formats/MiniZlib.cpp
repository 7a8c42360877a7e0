//===- formats/MiniZlib.cpp -----------------------------------------------===//
//
// Part of the IPG reproduction of "Interval Parsing Grammars for File Format
// Parsing" (PLDI 2023). MIT license.
//
//===----------------------------------------------------------------------===//

#include "formats/MiniZlib.h"

#include <algorithm>
#include <cstddef>
#include <cstdint>
#include <cstring>
#include <optional>
#include <utility>
#include <vector>

using namespace ipg;
using namespace ipg::formats;

namespace {
constexpr uint8_t OpLiteral = 0x00;
constexpr uint8_t OpMatch = 0x01;
constexpr uint8_t OpEnd = 0xFF;
constexpr size_t HeaderSize = 7; // "MZ1" + u32le size
constexpr size_t MaxChunk = 255;
constexpr size_t MaxDist = 0xFFFF;
constexpr size_t MinMatch = 4;
/// A match op: opcode, u8 len, u16le dist. Its up to MaxChunk output
/// bytes per MatchOpSize stream bytes are the most any op yields.
constexpr size_t MatchOpSize = 4;

/// The farthest back-reference candidate the compressor probes.
constexpr size_t MaxBack = 4096;
static_assert(MaxBack <= MaxDist, "candidates must fit a u16 distance");

uint32_t load32(const uint8_t *P) {
  uint32_t V;
  std::memcpy(&V, P, 4);
  return V;
}

/// Length of the common prefix of \p A and \p B, at most \p Max.
size_t commonPrefix(const uint8_t *A, const uint8_t *B, size_t Max) {
  size_t N = 0;
  for (uint64_t X, Y; N + 8 <= Max; N += 8) {
    std::memcpy(&X, A + N, 8);
    std::memcpy(&Y, B + N, 8);
    if (X != Y)
      break;
  }
  while (N < Max && A[N] == B[N])
    ++N;
  return N;
}
} // namespace

std::vector<uint8_t> ipg::formats::miniZlibCompress(ByteSpan In) {
  const uint8_t *Data = In.data();
  const size_t Size = In.size();
  // A stream never exceeds 3 bytes per 2 input bytes (the worst mix,
  // 1-byte literal ops between 4-byte matches, gives 7 per 5), so this
  // reserve never reallocates.
  std::vector<uint8_t> Out;
  Out.reserve(HeaderSize + 1 + Size + Size / 2 + 8);
  Out.push_back('M');
  Out.push_back('Z');
  Out.push_back('1');
  for (unsigned Shift = 0; Shift < 32; Shift += 8)
    Out.push_back(static_cast<uint8_t>(Size >> Shift));

  size_t Lit = 0; // start of the literal run not yet emitted
  auto FlushLiterals = [&](size_t To) {
    while (Lit < To) {
      size_t N = std::min(MaxChunk, To - Lit);
      Out.push_back(OpLiteral);
      Out.push_back(static_cast<uint8_t>(N));
      Out.insert(Out.end(), Data + Lit, Data + Lit + N);
      Lit += N;
    }
  };

  size_t I = 0;
  while (I < Size) {
    // Greedy search for a back-reference: try the run-length case
    // (dist 1..8) plus a small window of earlier positions. Full LZ77
    // search is not the point of this codec. A candidate whose first
    // MinMatch bytes differ never changes the output (only matches of
    // at least MinMatch are emitted, and a shorter best never blocks a
    // longer one), so it is rejected before being extended.
    size_t BestLen = 0, BestDist = 0;
    size_t MaxLen = std::min(MaxChunk, Size - I);
    if (MaxLen >= MinMatch) {
      uint32_t Head = load32(Data + I);
      auto Try = [&](size_t Dist) {
        const uint8_t *Cand = Data + I - Dist;
        if (load32(Cand) != Head)
          return;
        size_t Len = commonPrefix(Cand, Data + I, MaxLen);
        if (Len > BestLen) {
          BestLen = Len;
          BestDist = Dist;
        }
      };
      for (size_t Dist = 1; Dist <= 8 && Dist <= I; ++Dist)
        Try(Dist);
      for (size_t Back = 64; Back <= MaxBack && I >= Back; Back *= 4)
        Try(Back);
    }
    if (BestLen >= MinMatch) {
      FlushLiterals(I);
      Out.insert(Out.end(), {OpMatch, static_cast<uint8_t>(BestLen),
                             static_cast<uint8_t>(BestDist),
                             static_cast<uint8_t>(BestDist >> 8)});
      I += BestLen;
      Lit = I;
      continue;
    }
    ++I;
  }
  FlushLiterals(Size);
  Out.push_back(OpEnd);
  return Out;
}

std::optional<std::vector<uint8_t>>
ipg::formats::miniZlibDecompress(ByteSpan In, size_t &Consumed) {
  if (In.size() < HeaderSize + 1 || !In.matchesAt(0, "MZ1"))
    return std::nullopt;
  uint64_t ExpectSize = In.readUnsigned(3, 4, Endian::Little);
  // The size field is untrusted: refuse one the stream's op bytes
  // (everything but the header and the terminator) cannot encode before
  // allocating for it.
  if (ExpectSize * MatchOpSize > (In.size() - HeaderSize - 1) * MaxChunk)
    return std::nullopt;
  std::vector<uint8_t> Out(ExpectSize);
  uint8_t *O = Out.data();
  size_t W = 0; // bytes decoded so far
  const uint8_t *S = In.data();
  size_t I = HeaderSize;
  // Every failure below returns nullopt, as would the final size check
  // for output that overruns ExpectSize, so overruns are refused as
  // soon as an op would write past it.
  for (;;) {
    if (I >= In.size())
      return std::nullopt; // ran off the stream without a terminator
    uint8_t Op = S[I++];
    if (Op == OpEnd)
      break;
    if (Op == OpLiteral) {
      if (I >= In.size())
        return std::nullopt;
      size_t N = S[I++];
      if (N == 0 || I + N > In.size() || N > ExpectSize - W)
        return std::nullopt;
      std::memcpy(O + W, S + I, N);
      W += N;
      I += N;
      continue;
    }
    if (Op == OpMatch) {
      if (I + 3 > In.size())
        return std::nullopt;
      size_t Len = S[I];
      size_t Dist = static_cast<size_t>(S[I + 1]) |
                    static_cast<size_t>(S[I + 2]) << 8;
      I += 3;
      if (Len == 0 || Dist == 0 || Dist > W || Len > ExpectSize - W)
        return std::nullopt;
      if (Dist >= Len) {
        std::memcpy(O + W, O + W - Dist, Len);
      } else {
        // The copy overlaps its own output (a run): byte by byte.
        for (size_t K = 0; K < Len; ++K)
          O[W + K] = O[W + K - Dist];
      }
      W += Len;
      continue;
    }
    return std::nullopt; // unknown opcode
  }
  if (W != ExpectSize)
    return std::nullopt;
  Consumed = I;
  return Out;
}

BlackboxEncodeResult
ipg::formats::miniZlibBlackboxInverse(ByteSpan Decoded, int64_t Value) {
  if (Value < 0 || static_cast<uint64_t>(Value) != Decoded.size())
    return BlackboxEncodeResult::failure();
  BlackboxEncodeResult R;
  R.Ok = true;
  R.Bytes = miniZlibCompress(Decoded);
  return R;
}

BlackboxResult ipg::formats::miniZlibBlackbox(ByteSpan In) {
  size_t Consumed = 0;
  auto Out = miniZlibDecompress(In, Consumed);
  if (!Out)
    return BlackboxResult::failure();
  BlackboxResult R;
  R.Ok = true;
  R.Value = static_cast<int64_t>(Out->size());
  R.End = Consumed;
  R.Output = std::move(*Out);
  return R;
}
