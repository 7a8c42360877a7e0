//===- tests/formats_test.cpp - format grammar round-trip tests -----------===//
//
// Part of the IPG reproduction of "Interval Parsing Grammars for File Format
// Parsing" (PLDI 2023). MIT license.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// For each of the seven evaluated formats: synthesize a file, parse it
/// with the IPG engine, extract the structure back and compare against the
/// synthesizer's ground-truth model; plus corruption tests and the
/// termination/attribute checks the paper reports for all its grammars.
///
//===----------------------------------------------------------------------===//

#include "analysis/Termination.h"
#include "formats/Dns.h"
#include "formats/Elf.h"
#include "formats/FormatRegistry.h"
#include "formats/Gif.h"
#include "formats/Ipv4Udp.h"
#include "formats/MiniZlib.h"
#include "formats/Pdf.h"
#include "formats/Pe.h"
#include "formats/Zip.h"
#include "runtime/Interp.h"

#include <cstddef>
#include <cstdint>
#include <gtest/gtest.h>
#include <algorithm>
#include <optional>
#include <random>
#include <string>
#include <utility>
#include <vector>

using namespace ipg;
using namespace ipg::formats;

//===----------------------------------------------------------------------===//
// MiniZlib codec.
//===----------------------------------------------------------------------===//

TEST(MiniZlibTest, RoundTripsVariedContent) {
  std::vector<std::vector<uint8_t>> Cases;
  Cases.push_back({});
  Cases.push_back({42});
  Cases.push_back(std::vector<uint8_t>(1000, 'A')); // pure run
  std::vector<uint8_t> Mixed;
  for (int I = 0; I < 4096; ++I)
    Mixed.push_back(static_cast<uint8_t>(I % 11 == 0 ? I * 37 : 'x'));
  Cases.push_back(Mixed);

  for (const auto &Data : Cases) {
    auto Compressed = miniZlibCompress(ByteSpan::of(Data));
    size_t Consumed = 0;
    auto Out = miniZlibDecompress(ByteSpan::of(Compressed), Consumed);
    ASSERT_TRUE(Out.has_value());
    EXPECT_EQ(*Out, Data);
    EXPECT_EQ(Consumed, Compressed.size());
  }
}

TEST(MiniZlibTest, CompressesRuns) {
  std::vector<uint8_t> Runs(4096, 'A');
  auto Compressed = miniZlibCompress(ByteSpan::of(Runs));
  EXPECT_LT(Compressed.size(), Runs.size() / 4);
}

TEST(MiniZlibTest, RejectsCorruptStreams) {
  std::vector<uint8_t> Data(128, 'q');
  auto C = miniZlibCompress(ByteSpan::of(Data));
  size_t Consumed;
  // Bad magic.
  auto Bad = C;
  Bad[0] = 'X';
  EXPECT_FALSE(miniZlibDecompress(ByteSpan::of(Bad), Consumed));
  // Truncated.
  auto Trunc = C;
  Trunc.resize(Trunc.size() / 2);
  EXPECT_FALSE(miniZlibDecompress(ByteSpan::of(Trunc), Consumed));
  // Wrong declared size.
  auto WrongSize = C;
  WrongSize[3] ^= 0xff;
  EXPECT_FALSE(miniZlibDecompress(ByteSpan::of(WrongSize), Consumed));
}

TEST(MiniZlibTest, RefusesASizeTheStreamCannotEncodeBeforeAllocating) {
  // One flipped header byte must not turn into a 4 GiB allocation: the
  // size is checked against what the stream's ops could produce (at most
  // 255 bytes per 4-byte match op) first.
  std::vector<uint8_t> Data(1000, 'z');
  auto C = miniZlibCompress(ByteSpan::of(Data));
  auto Huge = C;
  Huge[3] = Huge[4] = Huge[5] = Huge[6] = 0xFF;
  size_t Consumed = 0;
  EXPECT_FALSE(miniZlibDecompress(ByteSpan::of(Huge), Consumed));
  EXPECT_FALSE(miniZlibBlackbox(ByteSpan::of(Huge)).Ok);
  // The same stream with its true size: 1000 bytes from a stream of a
  // few dozen, dense in 255-byte matches, is within the bound.
  auto Out = miniZlibDecompress(ByteSpan::of(C), Consumed);
  ASSERT_TRUE(Out.has_value());
  EXPECT_EQ(*Out, Data);
}

namespace {

// The MiniZlib codec as it stood before its run-level rewrite (a
// push_back per output byte and a Pending literal copy), kept as the
// reference the current codec must match exactly. It is verbatim but for
// one line: the decoder no longer reserve()s the stream's declared size,
// a capacity hint that changes no result but would ask for up to 4 GiB
// on every damaged header the sweeps below feed it.
namespace reference {
constexpr uint8_t OpLiteral = 0x00;
constexpr uint8_t OpMatch = 0x01;
constexpr uint8_t OpEnd = 0xFF;
constexpr size_t MaxChunk = 255;
constexpr size_t MaxDist = 0xFFFF;
constexpr size_t MinMatch = 4;

std::vector<uint8_t> compress(const std::vector<uint8_t> &Data) {
  ByteWriter W;
  W.raw("MZ1");
  W.u32le(Data.size());

  size_t I = 0;
  std::vector<uint8_t> Pending; // literal run being accumulated
  auto FlushLiterals = [&] {
    size_t P = 0;
    while (P < Pending.size()) {
      size_t N = std::min(MaxChunk, Pending.size() - P);
      W.u8(OpLiteral);
      W.u8(static_cast<uint8_t>(N));
      for (size_t K = 0; K < N; ++K)
        W.u8(Pending[P + K]);
      P += N;
    }
    Pending.clear();
  };

  while (I < Data.size()) {
    // Greedy search for a back-reference: try the run-length case
    // (dist 1..8) plus a small window of earlier positions.
    size_t BestLen = 0, BestDist = 0;
    size_t WindowStart = I > MaxDist ? I - MaxDist : 0;
    // Probe a handful of candidate distances; full LZ77 search is not the
    // point of this codec.
    for (size_t Dist = 1; Dist <= 8 && Dist <= I; ++Dist) {
      size_t Len = 0;
      while (I + Len < Data.size() && Len < MaxChunk &&
             Data[I + Len - Dist] == Data[I + Len])
        ++Len;
      if (Len > BestLen) {
        BestLen = Len;
        BestDist = Dist;
      }
    }
    for (size_t Back = 64; Back <= 4096 && I >= Back; Back *= 4) {
      size_t Cand = I - Back;
      if (Cand < WindowStart)
        break;
      size_t Len = 0;
      while (I + Len < Data.size() && Len < MaxChunk &&
             Data[Cand + Len] == Data[I + Len])
        ++Len;
      if (Len > BestLen) {
        BestLen = Len;
        BestDist = Back;
      }
    }
    if (BestLen >= MinMatch) {
      FlushLiterals();
      W.u8(OpMatch);
      W.u8(static_cast<uint8_t>(BestLen));
      W.u16le(BestDist);
      I += BestLen;
      continue;
    }
    Pending.push_back(Data[I]);
    ++I;
  }
  FlushLiterals();
  W.u8(OpEnd);
  return W.take();
}

std::optional<std::vector<uint8_t>> decompress(ByteSpan In,
                                               size_t &Consumed) {
  if (In.size() < 8 || !In.matchesAt(0, "MZ1"))
    return std::nullopt;
  uint64_t ExpectSize = In.readUnsigned(3, 4, Endian::Little);
  std::vector<uint8_t> Out;
  size_t I = 7;
  for (;;) {
    if (I >= In.size())
      return std::nullopt; // ran off the stream without a terminator
    uint8_t Op = In[I++];
    if (Op == OpEnd)
      break;
    if (Op == OpLiteral) {
      if (I >= In.size())
        return std::nullopt;
      size_t N = In[I++];
      if (N == 0 || I + N > In.size())
        return std::nullopt;
      for (size_t K = 0; K < N; ++K)
        Out.push_back(In[I + K]);
      I += N;
      continue;
    }
    if (Op == OpMatch) {
      if (I + 3 > In.size())
        return std::nullopt;
      size_t Len = In[I];
      size_t Dist = static_cast<size_t>(In.readUnsigned(I + 1, 2,
                                                        Endian::Little));
      I += 3;
      if (Len == 0 || Dist == 0 || Dist > Out.size())
        return std::nullopt;
      for (size_t K = 0; K < Len; ++K)
        Out.push_back(Out[Out.size() - Dist]);
      continue;
    }
    return std::nullopt; // unknown opcode
  }
  if (Out.size() != ExpectSize)
    return std::nullopt;
  Consumed = I;
  return Out;
}
} // namespace reference

/// The fixed-seed codec corpus: random, run-heavy and short-period data
/// at sizes around the op boundaries (a 255-byte chunk, the 4-byte
/// minimum match), one past the farthest candidate distance (4096) whose
/// random stream is still cheap to damage exhaustively, and one past a
/// 16-bit distance's reach.
std::vector<std::vector<uint8_t>> codecCorpus() {
  std::mt19937 Rng(20230617);
  auto Byte = [&] { return static_cast<uint8_t>(Rng() & 0xFF); };
  std::vector<std::vector<uint8_t>> Corpus;
  for (size_t Size : {0u, 1u, 3u, 4u, 255u, 256u, 8448u, 65536u}) {
    std::vector<uint8_t> Random(Size), Runs, Periodic(Size);
    for (uint8_t &B : Random)
      B = Byte();
    while (Runs.size() < Size)
      Runs.insert(Runs.end(),
                  std::min<size_t>(1 + Rng() % 300, Size - Runs.size()),
                  Byte());
    std::vector<uint8_t> Period(1 + Rng() % 16);
    for (uint8_t &B : Period)
      B = Byte();
    for (size_t I = 0; I < Size; ++I)
      Periodic[I] = Rng() % 97 == 0 ? Byte() : Period[I % Period.size()];
    Corpus.push_back(std::move(Random));
    Corpus.push_back(std::move(Runs));
    Corpus.push_back(std::move(Periodic));
  }
  return Corpus;
}

void expectSameDecode(ByteSpan Stream, const char *What, size_t Where) {
  size_t GotConsumed = 0, WantConsumed = 0;
  auto Got = miniZlibDecompress(Stream, GotConsumed);
  auto Want = reference::decompress(Stream, WantConsumed);
  ASSERT_EQ(Got.has_value(), Want.has_value()) << What << " at " << Where;
  if (Want) {
    ASSERT_EQ(*Got, *Want) << What << " at " << Where;
    ASSERT_EQ(GotConsumed, WantConsumed) << What << " at " << Where;
  }
}

} // namespace

TEST(MiniZlibTest, CompressorMatchesTheReferenceByteForByte) {
  for (const std::vector<uint8_t> &Data : codecCorpus()) {
    std::vector<uint8_t> Got = miniZlibCompress(ByteSpan::of(Data));
    ASSERT_EQ(Got, reference::compress(Data)) << "size " << Data.size();
    size_t Consumed = 0;
    auto Back = miniZlibDecompress(ByteSpan::of(Got), Consumed);
    ASSERT_TRUE(Back.has_value());
    EXPECT_EQ(*Back, Data);
    EXPECT_EQ(Consumed, Got.size());
  }
}

TEST(MiniZlibTest, DecompressorMatchesTheReferenceOnEveryShortMatch) {
  // Ten distinct literals, then one match of every (len, dist) up to
  // 12 x 11: the copies that overlap their own output (dist < len) must
  // replicate byte by byte, and dist past the output must be refused.
  for (uint8_t Len = 1; Len <= 12; ++Len)
    for (uint8_t Dist = 1; Dist <= 11; ++Dist) {
      std::vector<uint8_t> S = {'M', 'Z', '1', static_cast<uint8_t>(10 + Len),
                                0, 0, 0, 0x00, 10};
      for (uint8_t B = 0; B < 10; ++B)
        S.push_back(static_cast<uint8_t>('a' + B));
      S.insert(S.end(), {0x01, Len, Dist, 0, 0xFF});
      expectSameDecode(ByteSpan::of(S), "match of len/dist",
                       Len * 100u + Dist);
    }
}

TEST(MiniZlibTest, DecompressorMatchesTheReferenceOnDamagedStreams) {
  // Every truncation and every single-byte flip of every corpus stream
  // but one. The 64 KiB random stream (66 KB of uniform 255-byte literal
  // ops) costs quadratically — each damaged copy is decoded in full by
  // both codecs, minutes under the sanitizer builds — so it alone is
  // damaged at every position of its first and last 2 KiB (header, first
  // ops, last op, terminator) and at every 509th between, a stride
  // co-prime with the 257-byte op length, so the probes fall on
  // ever-different bytes of an op (opcode, length and payload alike).
  // The 8448-byte random stream, made of the same ops, is swept in full.
  for (const std::vector<uint8_t> &Data : codecCorpus()) {
    std::vector<uint8_t> Stream = reference::compress(Data);
    const size_t Size = Stream.size();
    auto Probed = [&](size_t Pos) {
      return Size <= 16384 || Pos < 2048 || Pos + 2048 >= Size ||
             Pos % 509 == 0;
    };
    for (size_t Len = 0; Len <= Size; ++Len)
      if (Probed(Len))
        expectSameDecode(ByteSpan(Stream.data(), Len), "truncated to", Len);
    for (size_t I = 0; I < Size; ++I) {
      if (!Probed(I))
        continue;
      Stream[I] ^= 0xFF;
      expectSameDecode(ByteSpan::of(Stream), "flipped", I);
      Stream[I] ^= 0xFF;
    }
  }
}

//===----------------------------------------------------------------------===//
// All grammars load, attribute-check, and pass termination checking.
//===----------------------------------------------------------------------===//

class AllFormats : public ::testing::TestWithParam<FormatInfo> {};

TEST_P(AllFormats, LoadsAndChecks) {
  auto R = loadGrammar(GetParam().GrammarText);
  ASSERT_TRUE(R) << GetParam().Name << ": " << R.message();
}

TEST_P(AllFormats, PassesTerminationChecking) {
  auto R = loadGrammar(GetParam().GrammarText);
  ASSERT_TRUE(R) << R.message();
  TerminationReport Rep = checkTermination(R->G);
  EXPECT_TRUE(Rep.Terminates)
      << GetParam().Name << ": "
      << (Rep.FailingCycles.empty() ? "" : Rep.FailingCycles[0]);
  // Section 7: "these grammars had no more than five elementary cycles".
  EXPECT_LE(Rep.NumCycles, 5u) << GetParam().Name;
}

INSTANTIATE_TEST_SUITE_P(
    Formats, AllFormats, ::testing::ValuesIn(allFormats()),
    [](const ::testing::TestParamInfo<FormatInfo> &Info) {
      return Info.param.Name;
    });

//===----------------------------------------------------------------------===//
// ELF.
//===----------------------------------------------------------------------===//

namespace {
class ElfFixture : public ::testing::Test {
protected:
  void SetUp() override {
    auto R = loadElfGrammar();
    ASSERT_TRUE(R) << R.message();
    G.emplace(std::move(R->G));
  }
  std::optional<Grammar> G;
};
} // namespace

TEST_F(ElfFixture, RoundTrip) {
  ElfSynthSpec Spec;
  Spec.TextSize = 256;
  Spec.NumDynEntries = 12;
  Spec.NumSymbols = 20;
  ElfModel Model;
  auto Bytes = synthesizeElf(Spec, &Model);

  Interp I(*G);
  auto Tree = I.parse(ByteSpan::of(Bytes));
  ASSERT_TRUE(Tree) << Tree.message();
  auto P = extractElf(*Tree, *G);
  ASSERT_TRUE(P) << P.message();

  EXPECT_EQ(P->ShOff, Model.ShOff);
  EXPECT_EQ(P->ShNum, Model.ShNum);
  ASSERT_EQ(P->Sections.size(), Model.Sections.size());
  for (size_t K = 0; K < Model.Sections.size(); ++K) {
    EXPECT_EQ(P->Sections[K].Type, Model.Sections[K].Type);
    EXPECT_EQ(P->Sections[K].Offset, Model.Sections[K].Offset);
    EXPECT_EQ(P->Sections[K].Size, Model.Sections[K].Size);
  }
  EXPECT_EQ(P->DynTags, Model.DynTags);
  EXPECT_EQ(P->SymValues, Model.SymValues);
}

TEST_F(ElfFixture, RejectsBadMagic) {
  auto Bytes = synthesizeElf(ElfSynthSpec());
  Bytes[1] = 'X';
  Interp I(*G);
  EXPECT_FALSE(I.parse(ByteSpan::of(Bytes)));
}

TEST_F(ElfFixture, RejectsTruncatedSectionTable) {
  auto Bytes = synthesizeElf(ElfSynthSpec());
  Bytes.resize(Bytes.size() - 32); // cut into the last section header
  Interp I(*G);
  EXPECT_FALSE(I.parse(ByteSpan::of(Bytes)));
}

TEST_F(ElfFixture, RejectsSectionOffsetPastEof) {
  ElfModel Model;
  auto Bytes = synthesizeElf(ElfSynthSpec(), &Model);
  // Corrupt section 1's sh_offset (at ShOff + 64 + 24) to point past EOF.
  ByteWriter W;
  W.raw(Bytes);
  W.patchUnsigned(Model.ShOff + 64 + 24, Bytes.size() + 1000, 8,
                  Endian::Little);
  auto Corrupt = W.take();
  Interp I(*G);
  EXPECT_FALSE(I.parse(ByteSpan::of(Corrupt)));
}

class ElfSweep : public ::testing::TestWithParam<int> {};

TEST_P(ElfSweep, ScalesWithSymbolCount) {
  auto R = loadElfGrammar();
  ASSERT_TRUE(R) << R.message();
  ElfSynthSpec Spec;
  Spec.NumSymbols = static_cast<size_t>(GetParam());
  Spec.NumDynEntries = static_cast<size_t>(GetParam()) / 2 + 1;
  ElfModel Model;
  auto Bytes = synthesizeElf(Spec, &Model);
  Interp I(R->G);
  auto Tree = I.parse(ByteSpan::of(Bytes));
  ASSERT_TRUE(Tree) << Tree.message();
  auto P = extractElf(*Tree, R->G);
  ASSERT_TRUE(P) << P.message();
  EXPECT_EQ(P->SymValues.size(), Spec.NumSymbols);
}

INSTANTIATE_TEST_SUITE_P(Sizes, ElfSweep,
                         ::testing::Values(0, 1, 7, 64, 256));

//===----------------------------------------------------------------------===//
// ZIP.
//===----------------------------------------------------------------------===//

namespace {
class ZipFixture : public ::testing::Test {
protected:
  void SetUp() override {
    auto R = loadZipGrammar();
    ASSERT_TRUE(R) << R.message();
    G.emplace(std::move(R->G));
    BB = standardBlackboxes();
  }
  std::optional<Grammar> G;
  BlackboxRegistry BB;
};
} // namespace

TEST_F(ZipFixture, StoredRoundTrip) {
  auto Bytes = synthesizeZip(zipArchiveOfCopies(3, 100, /*Compress=*/false));
  Interp I(*G, &BB);
  auto Tree = I.parse(ByteSpan::of(Bytes));
  ASSERT_TRUE(Tree) << Tree.message();
  auto P = extractZip(*Tree, *G);
  ASSERT_TRUE(P) << P.message();
  EXPECT_EQ(P->EntryCount, 3);
  ASSERT_EQ(P->Entries.size(), 3u);
  for (const auto &E : P->Entries) {
    EXPECT_EQ(E.Method, 0);
    EXPECT_EQ(E.UncompressedSize, 100u);
  }
}

TEST_F(ZipFixture, CompressedEntriesDecodeThroughBlackbox) {
  ZipSynthSpec Spec = zipArchiveOfCopies(2, 300, /*Compress=*/true);
  auto Bytes = synthesizeZip(Spec);
  Interp I(*G, &BB);
  auto Tree = I.parse(ByteSpan::of(Bytes));
  ASSERT_TRUE(Tree) << Tree.message();
  auto P = extractZip(*Tree, *G);
  ASSERT_TRUE(P) << P.message();
  ASSERT_EQ(P->Entries.size(), 2u);
  for (const auto &E : P->Entries) {
    EXPECT_EQ(E.Method, 8);
    EXPECT_EQ(E.Data, Spec.Entries[0].Data);
  }
}

TEST_F(ZipFixture, MixedArchive) {
  ZipSynthSpec Spec;
  Spec.Entries.push_back({"a.txt", std::vector<uint8_t>(50, 'a'), false});
  Spec.Entries.push_back({"b.txt", std::vector<uint8_t>(900, 'b'), true});
  Spec.Entries.push_back({"c.txt", {}, false}); // empty file
  auto Bytes = synthesizeZip(Spec);
  Interp I(*G, &BB);
  auto Tree = I.parse(ByteSpan::of(Bytes));
  ASSERT_TRUE(Tree) << Tree.message();
  auto P = extractZip(*Tree, *G);
  ASSERT_TRUE(P) << P.message();
  ASSERT_EQ(P->Entries.size(), 3u);
  EXPECT_EQ(P->Entries[1].Data, Spec.Entries[1].Data);
}

TEST_F(ZipFixture, RejectsWrongEntryCount) {
  auto Bytes = synthesizeZip(zipArchiveOfCopies(3, 40, false));
  // EOCD total-entry field is 10 bytes into the trailing 22-byte record.
  ByteWriter W;
  W.raw(Bytes);
  W.patchUnsigned(Bytes.size() - 22 + 10, 4, 2, Endian::Little);
  auto Corrupt = W.take();
  Interp I(*G, &BB);
  EXPECT_FALSE(I.parse(ByteSpan::of(Corrupt)));
}

TEST_F(ZipFixture, RejectsCorruptCompressedStream) {
  ZipSynthSpec Spec = zipArchiveOfCopies(1, 200, true);
  auto Bytes = synthesizeZip(Spec);
  // Flip a byte inside the first entry's compressed payload (after the
  // 30-byte local header + name).
  Bytes[30 + Spec.Entries[0].Name.size() + 3] ^= 0xff;
  Interp I(*G, &BB);
  EXPECT_FALSE(I.parse(ByteSpan::of(Bytes)));
}

TEST_F(ZipFixture, RejectsMissingEocd) {
  auto Bytes = synthesizeZip(zipArchiveOfCopies(1, 40, false));
  Bytes.resize(Bytes.size() - 22);
  Interp I(*G, &BB);
  EXPECT_FALSE(I.parse(ByteSpan::of(Bytes)));
}

//===----------------------------------------------------------------------===//
// GIF.
//===----------------------------------------------------------------------===//

namespace {
class GifFixture : public ::testing::Test {
protected:
  void SetUp() override {
    auto R = loadGifGrammar();
    ASSERT_TRUE(R) << R.message();
    G.emplace(std::move(R->G));
  }
  std::optional<Grammar> G;
};
} // namespace

TEST_F(GifFixture, RoundTrip) {
  GifSynthSpec Spec;
  Spec.NumExtensions = 3;
  Spec.NumImages = 2;
  GifModel Model;
  auto Bytes = synthesizeGif(Spec, &Model);
  Interp I(*G);
  auto Tree = I.parse(ByteSpan::of(Bytes));
  ASSERT_TRUE(Tree) << Tree.message();
  auto P = extractGif(*Tree, *G);
  ASSERT_TRUE(P) << P.message();
  EXPECT_EQ(P->Width, Spec.Width);
  EXPECT_EQ(P->Height, Spec.Height);
  EXPECT_EQ(P->HasGct, Model.HasGct);
  EXPECT_EQ(P->GctBytes, Model.GctBytes);
  EXPECT_EQ(P->NumBlocks, Model.NumBlocks);
  EXPECT_EQ(P->NumImages, Spec.NumImages);
  EXPECT_EQ(P->ImageDataSizes, Model.ImageDataSizes);
}

TEST_F(GifFixture, NoGlobalColorTable) {
  GifSynthSpec Spec;
  Spec.GlobalColorTable = false;
  GifModel Model;
  auto Bytes = synthesizeGif(Spec, &Model);
  Interp I(*G);
  auto Tree = I.parse(ByteSpan::of(Bytes));
  ASSERT_TRUE(Tree) << Tree.message();
  auto P = extractGif(*Tree, *G);
  ASSERT_TRUE(P) << P.message();
  EXPECT_FALSE(P->HasGct);
}

TEST_F(GifFixture, EmptyBlockListIsValid) {
  GifSynthSpec Spec;
  Spec.NumExtensions = 0;
  Spec.NumImages = 0;
  auto Bytes = synthesizeGif(Spec);
  Interp I(*G);
  EXPECT_TRUE(I.parse(ByteSpan::of(Bytes)));
}

TEST_F(GifFixture, RejectsMissingTrailer) {
  auto Bytes = synthesizeGif(GifSynthSpec());
  Bytes.pop_back();
  Interp I(*G);
  EXPECT_FALSE(I.parse(ByteSpan::of(Bytes)));
}

TEST_F(GifFixture, RejectsBadVersion) {
  auto Bytes = synthesizeGif(GifSynthSpec());
  Bytes[4] = '7'; // GIF79a? not a thing
  Interp I(*G);
  EXPECT_FALSE(I.parse(ByteSpan::of(Bytes)));
}

TEST_F(GifFixture, RejectsTruncatedSubBlock) {
  GifSynthSpec Spec;
  Spec.NumExtensions = 0;
  Spec.NumImages = 1;
  auto Bytes = synthesizeGif(Spec);
  // Chop into the final sub-block: the trailer then sits where data should
  // be, and the sub-block chain cannot reach a terminator.
  Bytes.resize(Bytes.size() - 10);
  Interp I(*G);
  EXPECT_FALSE(I.parse(ByteSpan::of(Bytes)));
}

class GifSweep : public ::testing::TestWithParam<int> {};

TEST_P(GifSweep, ManyBlocks) {
  auto R = loadGifGrammar();
  ASSERT_TRUE(R) << R.message();
  GifSynthSpec Spec;
  Spec.NumExtensions = static_cast<size_t>(GetParam());
  Spec.NumImages = static_cast<size_t>(GetParam()) / 2;
  GifModel Model;
  auto Bytes = synthesizeGif(Spec, &Model);
  EngineOptions Opts;
  Opts.MaxDepth = 1 << 18;
  Interp I(R->G, nullptr, Opts);
  auto Tree = I.parse(ByteSpan::of(Bytes));
  ASSERT_TRUE(Tree) << Tree.message();
  auto P = extractGif(*Tree, R->G);
  ASSERT_TRUE(P) << P.message();
  EXPECT_EQ(P->NumBlocks, Model.NumBlocks);
}

INSTANTIATE_TEST_SUITE_P(Sizes, GifSweep, ::testing::Values(0, 1, 16, 128));

//===----------------------------------------------------------------------===//
// PE.
//===----------------------------------------------------------------------===//

namespace {
class PeFixture : public ::testing::Test {
protected:
  void SetUp() override {
    auto R = loadPeGrammar();
    ASSERT_TRUE(R) << R.message();
    G.emplace(std::move(R->G));
  }
  std::optional<Grammar> G;
};
} // namespace

TEST_F(PeFixture, RoundTrip) {
  PeSynthSpec Spec;
  Spec.NumSections = 6;
  PeModel Model;
  auto Bytes = synthesizePe(Spec, &Model);
  Interp I(*G);
  auto Tree = I.parse(ByteSpan::of(Bytes));
  ASSERT_TRUE(Tree) << Tree.message();
  auto P = extractPe(*Tree, *G);
  ASSERT_TRUE(P) << P.message();
  EXPECT_EQ(P->LfaNew, Model.LfaNew);
  EXPECT_EQ(P->Machine, 0x8664);
  EXPECT_EQ(P->NumSections, Model.NumSections);
  EXPECT_EQ(P->OptMagic, 0x20b);
  ASSERT_EQ(P->Sections.size(), Model.Sections.size());
  for (size_t K = 0; K < Model.Sections.size(); ++K) {
    EXPECT_EQ(P->Sections[K].RawPtr, Model.Sections[K].RawPtr);
    EXPECT_EQ(P->Sections[K].RawSize, Model.Sections[K].RawSize);
  }
}

TEST_F(PeFixture, RejectsBadNtSignature) {
  PeModel Model;
  auto Bytes = synthesizePe(PeSynthSpec(), &Model);
  Bytes[Model.LfaNew] = 'Q';
  Interp I(*G);
  EXPECT_FALSE(I.parse(ByteSpan::of(Bytes)));
}

TEST_F(PeFixture, RejectsWrongOptionalMagic) {
  PeModel Model;
  auto Bytes = synthesizePe(PeSynthSpec(), &Model);
  // Optional header magic is right after the 24 bytes of signature+COFF.
  Bytes[Model.LfaNew + 24] = 0x0b;
  Bytes[Model.LfaNew + 25] = 0x01; // 0x10b = PE32, grammar wants PE32+
  Interp I(*G);
  EXPECT_FALSE(I.parse(ByteSpan::of(Bytes)));
}

//===----------------------------------------------------------------------===//
// PDF.
//===----------------------------------------------------------------------===//

namespace {
class PdfFixture : public ::testing::Test {
protected:
  void SetUp() override {
    auto R = loadPdfGrammar();
    ASSERT_TRUE(R) << R.message();
    G.emplace(std::move(R->G));
  }
  std::optional<Grammar> G;
};
} // namespace

TEST_F(PdfFixture, RoundTrip) {
  PdfSynthSpec Spec;
  Spec.NumObjects = 5;
  PdfModel Model;
  auto Bytes = synthesizePdf(Spec, &Model);
  Interp I(*G);
  auto Tree = I.parse(ByteSpan::of(Bytes));
  ASSERT_TRUE(Tree) << Tree.message();
  auto P = extractPdf(*Tree, *G);
  ASSERT_TRUE(P) << P.message();
  EXPECT_EQ(P->XrefOffset, Model.XrefOffset);
  EXPECT_EQ(P->NumXrefEntries, Spec.NumObjects + 1);
  EXPECT_EQ(P->ObjectOffsets, Model.ObjectOffsets);
}

TEST_F(PdfFixture, BackwardNumberFindsStartxref) {
  // Large xref offsets exercise multi-digit backward parsing.
  PdfSynthSpec Spec;
  Spec.NumObjects = 3;
  Spec.ObjectBodySize = 900; // pushes the xref offset past 4 digits
  PdfModel Model;
  auto Bytes = synthesizePdf(Spec, &Model);
  ASSERT_GT(Model.XrefOffset, 1000u);
  Interp I(*G);
  auto Tree = I.parse(ByteSpan::of(Bytes));
  ASSERT_TRUE(Tree) << Tree.message();
  auto P = extractPdf(*Tree, *G);
  ASSERT_TRUE(P) << P.message();
  EXPECT_EQ(P->XrefOffset, Model.XrefOffset);
}

TEST_F(PdfFixture, RejectsCorruptXrefOffset) {
  PdfSynthSpec Spec;
  PdfModel Model;
  auto Bytes = synthesizePdf(Spec, &Model);
  // Overwrite the startxref digits with a bogus offset.
  std::string Wrong = std::to_string(Model.XrefOffset + 3);
  size_t DigitsStart = Bytes.size() - 6 - Wrong.size();
  for (size_t K = 0; K < Wrong.size(); ++K)
    Bytes[DigitsStart + K] = static_cast<uint8_t>(Wrong[K]);
  Interp I(*G);
  EXPECT_FALSE(I.parse(ByteSpan::of(Bytes)));
}

TEST_F(PdfFixture, RejectsMissingEof) {
  auto Bytes = synthesizePdf(PdfSynthSpec());
  Bytes.pop_back();
  Interp I(*G);
  EXPECT_FALSE(I.parse(ByteSpan::of(Bytes)));
}

TEST_F(PdfFixture, RejectsDamagedObject) {
  PdfSynthSpec Spec;
  PdfModel Model;
  auto Bytes = synthesizePdf(Spec, &Model);
  // Replace the first object's id digit with a non-digit: Obj's predicate
  // fails.
  Bytes[Model.ObjectOffsets[0]] = '<';
  Interp I(*G);
  EXPECT_FALSE(I.parse(ByteSpan::of(Bytes)));
}

//===----------------------------------------------------------------------===//
// DNS.
//===----------------------------------------------------------------------===//

namespace {
class DnsFixture : public ::testing::Test {
protected:
  void SetUp() override {
    auto R = loadDnsGrammar();
    ASSERT_TRUE(R) << R.message();
    G.emplace(std::move(R->G));
  }
  std::optional<Grammar> G;
};
} // namespace

TEST_F(DnsFixture, RoundTrip) {
  DnsSynthSpec Spec;
  Spec.NumAnswers = 5;
  DnsModel Model;
  auto Bytes = synthesizeDns(Spec, &Model);
  Interp I(*G);
  auto Tree = I.parse(ByteSpan::of(Bytes));
  ASSERT_TRUE(Tree) << Tree.message();
  auto P = extractDns(*Tree, *G, ByteSpan::of(Bytes));
  ASSERT_TRUE(P) << P.message();
  EXPECT_EQ(P->Id, Model.Id);
  EXPECT_EQ(P->QdCount, 1);
  EXPECT_EQ(P->AnCount, Model.AnswerCount);
  EXPECT_EQ(P->QName, Spec.QName);
  for (uint16_t T : P->AnswerTypes)
    EXPECT_EQ(T, 1); // A records
}

TEST_F(DnsFixture, RejectsWrongAnswerCount) {
  DnsSynthSpec Spec;
  Spec.NumAnswers = 3;
  auto Bytes = synthesizeDns(Spec);
  Bytes[7] = 9; // ANCOUNT low byte
  Interp I(*G);
  EXPECT_FALSE(I.parse(ByteSpan::of(Bytes)));
}

TEST_F(DnsFixture, RejectsOverlongLabel) {
  auto Bytes = synthesizeDns(DnsSynthSpec());
  Bytes[12] = 77; // question's first label claims 77 > 63 bytes
  Interp I(*G);
  EXPECT_FALSE(I.parse(ByteSpan::of(Bytes)));
}

TEST_F(DnsFixture, RejectsTruncatedRData) {
  DnsSynthSpec Spec;
  Spec.NumAnswers = 2;
  auto Bytes = synthesizeDns(Spec);
  Bytes.resize(Bytes.size() - 2);
  Interp I(*G);
  EXPECT_FALSE(I.parse(ByteSpan::of(Bytes)));
}

//===----------------------------------------------------------------------===//
// IPv4 + UDP.
//===----------------------------------------------------------------------===//

namespace {
class Ipv4Fixture : public ::testing::Test {
protected:
  void SetUp() override {
    auto R = loadIpv4UdpGrammar();
    ASSERT_TRUE(R) << R.message();
    G.emplace(std::move(R->G));
  }
  std::optional<Grammar> G;
};
} // namespace

TEST_F(Ipv4Fixture, UdpRoundTrip) {
  Ipv4SynthSpec Spec;
  Spec.PayloadSize = 128;
  Ipv4Model Model;
  auto Bytes = synthesizeIpv4Udp(Spec, &Model);
  Interp I(*G);
  auto Tree = I.parse(ByteSpan::of(Bytes));
  ASSERT_TRUE(Tree) << Tree.message();
  auto P = extractIpv4Udp(*Tree, *G);
  ASSERT_TRUE(P) << P.message();
  EXPECT_EQ(P->Ihl, 5);
  EXPECT_EQ(P->TotalLength, Model.TotalLength);
  EXPECT_EQ(P->Protocol, 17);
  EXPECT_TRUE(P->HasUdp);
  EXPECT_EQ(P->SrcPort, Model.SrcPort);
  EXPECT_EQ(P->DstPort, Model.DstPort);
  EXPECT_EQ(P->UdpLength, 8 + Spec.PayloadSize);
}

TEST_F(Ipv4Fixture, OptionsViaIhl) {
  Ipv4SynthSpec Spec;
  Spec.OptionWords = 3; // IHL = 8
  Ipv4Model Model;
  auto Bytes = synthesizeIpv4Udp(Spec, &Model);
  Interp I(*G);
  auto Tree = I.parse(ByteSpan::of(Bytes));
  ASSERT_TRUE(Tree) << Tree.message();
  auto P = extractIpv4Udp(*Tree, *G);
  ASSERT_TRUE(P) << P.message();
  EXPECT_EQ(P->Ihl, 8);
  EXPECT_TRUE(P->HasUdp);
}

TEST_F(Ipv4Fixture, NonUdpFallsToOpaque) {
  Ipv4SynthSpec Spec;
  Spec.Udp = false;
  auto Bytes = synthesizeIpv4Udp(Spec);
  Interp I(*G);
  auto Tree = I.parse(ByteSpan::of(Bytes));
  ASSERT_TRUE(Tree) << Tree.message();
  auto P = extractIpv4Udp(*Tree, *G);
  ASSERT_TRUE(P) << P.message();
  EXPECT_FALSE(P->HasUdp);
  EXPECT_EQ(P->Protocol, 200);
}

TEST_F(Ipv4Fixture, RejectsBadVersion) {
  auto Bytes = synthesizeIpv4Udp(Ipv4SynthSpec());
  Bytes[0] = 0x65; // version 6
  Interp I(*G);
  EXPECT_FALSE(I.parse(ByteSpan::of(Bytes)));
}

TEST_F(Ipv4Fixture, RejectsTotalLengthPastPacket) {
  auto Bytes = synthesizeIpv4Udp(Ipv4SynthSpec());
  Bytes[2] = 0xff; // total length >> packet size
  Bytes[3] = 0xff;
  Interp I(*G);
  EXPECT_FALSE(I.parse(ByteSpan::of(Bytes)));
}

TEST_F(Ipv4Fixture, RejectsUdpLengthMismatch) {
  auto Bytes = synthesizeIpv4Udp(Ipv4SynthSpec());
  // UDP length field at header(20) + 4.
  Bytes[24] ^= 0x10;
  Interp I(*G);
  EXPECT_FALSE(I.parse(ByteSpan::of(Bytes)));
}
