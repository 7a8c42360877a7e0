//===- tests/baselines_test.cpp - baseline parsers agree with IPG ---------===//
//
// Part of the IPG reproduction of "Interval Parsing Grammars for File Format
// Parsing" (PLDI 2023). MIT license.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Section 7 validates the IPG parsers by comparing their output against
/// Kaitai Struct's trees and readelf/unzip's output; these tests do the
/// same across the synthetic corpora: every baseline must agree with the
/// IPG engine on both acceptance and extracted structure.
///
//===----------------------------------------------------------------------===//

#include "baselines/Handwritten.h"
#include "baselines/KaitaiParsers.h"
#include "baselines/NailParsers.h"
#include "formats/Dns.h"
#include "formats/Elf.h"
#include "formats/FormatRegistry.h"
#include "formats/Gif.h"
#include "formats/Ipv4Udp.h"
#include "formats/Pe.h"
#include "formats/Zip.h"
#include "runtime/Interp.h"

#include <cstddef>
#include <cstdint>
#include <cstring>
#include <gtest/gtest.h>
#include <map>
#include <string>
#include <vector>

using namespace ipg;
using namespace ipg::baselines;
using namespace ipg::formats;

TEST(KaitaiAgreement, Elf) {
  auto R = loadElfGrammar();
  ASSERT_TRUE(R) << R.message();
  for (uint64_t Seed = 1; Seed <= 5; ++Seed) {
    ElfSynthSpec Spec;
    Spec.Seed = Seed;
    Spec.NumSymbols = 8 * Seed;
    Spec.NumDynEntries = 4 * Seed;
    auto Bytes = synthesizeElf(Spec);

    Interp I(R->G);
    auto Tree = I.parse(ByteSpan::of(Bytes));
    ASSERT_TRUE(Tree) << Tree.message();
    auto P = extractElf(*Tree, R->G);
    ASSERT_TRUE(P) << P.message();

    KaitaiStream Io(Bytes);
    KaitaiElf K;
    ASSERT_TRUE(K.parse(Io));
    EXPECT_EQ(K.ShOff, P->ShOff);
    EXPECT_EQ(K.ShNum, P->ShNum);
    ASSERT_EQ(K.Sections.size(), P->Sections.size());
    std::vector<uint64_t> KTags;
    for (const auto &S : K.Sections)
      for (auto &[Tag, Val] : S.DynEntries)
        KTags.push_back(Tag);
    EXPECT_EQ(KTags, P->DynTags);
  }
}

TEST(KaitaiAgreement, Zip) {
  auto R = loadZipGrammar();
  ASSERT_TRUE(R) << R.message();
  BlackboxRegistry BB = standardBlackboxes();
  for (size_t N : {1u, 3u, 8u}) {
    auto Bytes = synthesizeZip(zipArchiveOfCopies(N, 120, false));
    Interp I(R->G, &BB);
    auto Tree = I.parse(ByteSpan::of(Bytes));
    ASSERT_TRUE(Tree) << Tree.message();
    auto P = extractZip(*Tree, R->G);
    ASSERT_TRUE(P) << P.message();

    KaitaiStream Io(Bytes);
    KaitaiZip K;
    ASSERT_TRUE(K.parse(Io));
    EXPECT_EQ(K.EntryCount, P->EntryCount);
    ASSERT_EQ(K.Entries.size(), P->Entries.size());
    for (size_t I2 = 0; I2 < K.Entries.size(); ++I2) {
      EXPECT_EQ(K.Entries[I2].Method, P->Entries[I2].Method);
      EXPECT_EQ(K.Entries[I2].CSize, P->Entries[I2].CompressedSize);
    }
  }
}

TEST(KaitaiAgreement, Gif) {
  auto R = loadGifGrammar();
  ASSERT_TRUE(R) << R.message();
  GifSynthSpec Spec;
  Spec.NumExtensions = 4;
  Spec.NumImages = 3;
  auto Bytes = synthesizeGif(Spec);

  Interp I(R->G);
  auto Tree = I.parse(ByteSpan::of(Bytes));
  ASSERT_TRUE(Tree) << Tree.message();
  auto P = extractGif(*Tree, R->G);
  ASSERT_TRUE(P) << P.message();

  KaitaiStream Io(Bytes);
  KaitaiGif K;
  ASSERT_TRUE(K.parse(Io));
  EXPECT_EQ(K.Width, P->Width);
  EXPECT_EQ(K.Height, P->Height);
  EXPECT_EQ(K.HasGct, P->HasGct);
  EXPECT_EQ(K.Gct.size(), P->GctBytes);
  EXPECT_EQ(K.NumBlocks, P->NumBlocks);
  EXPECT_EQ(K.NumImages, P->NumImages);
  ASSERT_EQ(K.ImageData.size(), P->ImageDataSizes.size());
  for (size_t I2 = 0; I2 < K.ImageData.size(); ++I2)
    EXPECT_EQ(K.ImageData[I2].size(), P->ImageDataSizes[I2]);
}

TEST(KaitaiAgreement, Pe) {
  auto R = loadPeGrammar();
  ASSERT_TRUE(R) << R.message();
  PeSynthSpec Spec;
  Spec.NumSections = 5;
  auto Bytes = synthesizePe(Spec);

  Interp I(R->G);
  auto Tree = I.parse(ByteSpan::of(Bytes));
  ASSERT_TRUE(Tree) << Tree.message();
  auto P = extractPe(*Tree, R->G);
  ASSERT_TRUE(P) << P.message();

  KaitaiStream Io(Bytes);
  KaitaiPe K;
  ASSERT_TRUE(K.parse(Io));
  EXPECT_EQ(K.LfaNew, P->LfaNew);
  EXPECT_EQ(K.Machine, P->Machine);
  ASSERT_EQ(K.Sections.size(), P->Sections.size());
  for (size_t I2 = 0; I2 < K.Sections.size(); ++I2) {
    EXPECT_EQ(K.Sections[I2].RawPtr, P->Sections[I2].RawPtr);
    EXPECT_EQ(K.Sections[I2].RawSize, P->Sections[I2].RawSize);
  }
}

TEST(KaitaiAgreement, DnsAndIpv4) {
  auto RD = loadDnsGrammar();
  ASSERT_TRUE(RD) << RD.message();
  DnsSynthSpec DSpec;
  DSpec.NumAnswers = 6;
  auto DBytes = synthesizeDns(DSpec);
  Interp ID(RD->G);
  auto DTree = ID.parse(ByteSpan::of(DBytes));
  ASSERT_TRUE(DTree) << DTree.message();
  auto DP = extractDns(*DTree, RD->G, ByteSpan::of(DBytes));
  ASSERT_TRUE(DP) << DP.message();
  KaitaiStream DIo(DBytes);
  KaitaiDns KD;
  ASSERT_TRUE(KD.parse(DIo));
  EXPECT_EQ(KD.Id, DP->Id);
  EXPECT_EQ(KD.AnCount, DP->AnCount);
  ASSERT_EQ(KD.Answers.size(), DP->AnswerTypes.size());

  auto RI = loadIpv4UdpGrammar();
  ASSERT_TRUE(RI) << RI.message();
  Ipv4SynthSpec ISpec;
  ISpec.PayloadSize = 200;
  auto IBytes = synthesizeIpv4Udp(ISpec);
  Interp II(RI->G);
  auto ITree = II.parse(ByteSpan::of(IBytes));
  ASSERT_TRUE(ITree) << ITree.message();
  auto IP = extractIpv4Udp(*ITree, RI->G);
  ASSERT_TRUE(IP) << IP.message();
  KaitaiStream IIo(IBytes);
  KaitaiIpv4 KI;
  ASSERT_TRUE(KI.parse(IIo));
  EXPECT_EQ(KI.Ihl, IP->Ihl);
  EXPECT_EQ(KI.TotalLength, IP->TotalLength);
  EXPECT_EQ(KI.SrcPort, IP->SrcPort);
  EXPECT_EQ(KI.DstPort, IP->DstPort);
}

TEST(NailAgreement, Dns) {
  auto R = loadDnsGrammar();
  ASSERT_TRUE(R) << R.message();
  DnsSynthSpec Spec;
  Spec.NumAnswers = 4;
  DnsModel Model;
  auto Bytes = synthesizeDns(Spec, &Model);

  Interp I(R->G);
  auto Tree = I.parse(ByteSpan::of(Bytes));
  ASSERT_TRUE(Tree) << Tree.message();
  auto P = extractDns(*Tree, R->G, ByteSpan::of(Bytes));
  ASSERT_TRUE(P) << P.message();

  Arena A;
  const NailDns *D = nailParseDns(A, Bytes.data(), Bytes.size());
  ASSERT_NE(D, nullptr);
  EXPECT_EQ(D->Id, P->Id);
  EXPECT_EQ(D->AnCount, P->AnCount);
  for (uint16_t K = 0; K < D->AnCount; ++K) {
    EXPECT_EQ(D->Answers[K].Type, P->AnswerTypes[K]);
    EXPECT_EQ(D->Answers[K].RdLen, P->RDataLengths[K]);
    ASSERT_EQ(D->Answers[K].RdLen, Model.RData[K].size());
    EXPECT_EQ(0, std::memcmp(D->Answers[K].RData, Model.RData[K].data(),
                             Model.RData[K].size()));
  }
}

TEST(NailAgreement, Ipv4) {
  auto R = loadIpv4UdpGrammar();
  ASSERT_TRUE(R) << R.message();
  Ipv4SynthSpec Spec;
  Spec.OptionWords = 2;
  auto Bytes = synthesizeIpv4Udp(Spec);

  Interp I(R->G);
  auto Tree = I.parse(ByteSpan::of(Bytes));
  ASSERT_TRUE(Tree) << Tree.message();
  auto P = extractIpv4Udp(*Tree, R->G);
  ASSERT_TRUE(P) << P.message();

  Arena A;
  const NailIpv4 *N = nailParseIpv4(A, Bytes.data(), Bytes.size());
  ASSERT_NE(N, nullptr);
  EXPECT_EQ(N->Ihl, P->Ihl);
  EXPECT_EQ(N->TotalLength, P->TotalLength);
  EXPECT_EQ(N->HasUdp, P->HasUdp);
  EXPECT_EQ(N->SrcPort, P->SrcPort);
}

TEST(NailAgreement, RejectsMalformedLikeIpg) {
  auto R = loadDnsGrammar();
  ASSERT_TRUE(R) << R.message();
  auto Bytes = synthesizeDns(DnsSynthSpec());
  Bytes[12] = 99; // overlong label
  Interp I(R->G);
  EXPECT_FALSE(I.parse(ByteSpan::of(Bytes)));
  Arena A;
  EXPECT_EQ(nailParseDns(A, Bytes.data(), Bytes.size()), nullptr);
}

TEST(HandwrittenAgreement, ElfMatchesIpg) {
  auto R = loadElfGrammar();
  ASSERT_TRUE(R) << R.message();
  ElfSynthSpec Spec;
  Spec.NumSymbols = 32;
  auto Bytes = synthesizeElf(Spec);

  Interp I(R->G);
  auto Tree = I.parse(ByteSpan::of(Bytes));
  ASSERT_TRUE(Tree) << Tree.message();
  auto P = extractElf(*Tree, R->G);
  ASSERT_TRUE(P) << P.message();

  HwElf E;
  ASSERT_TRUE(hwParseElf(ByteSpan::of(Bytes), E));
  EXPECT_EQ(E.ShOff, P->ShOff);
  EXPECT_EQ(E.ShNum, P->ShNum);
  EXPECT_EQ(E.SymValues, P->SymValues);
  std::vector<uint64_t> Tags;
  for (auto &[Tag, Val] : E.DynEntries)
    Tags.push_back(Tag);
  EXPECT_EQ(Tags, P->DynTags);

  std::string Report = hwReadelf(ByteSpan::of(Bytes));
  EXPECT_NE(Report.find("Section Headers:"), std::string::npos);
  EXPECT_NE(Report.find("Symbols:"), std::string::npos);
}

TEST(HandwrittenAgreement, UnzipExtractsIdenticalFiles) {
  ZipSynthSpec Spec;
  Spec.Entries.push_back({"a.bin", std::vector<uint8_t>(400, 'a'), true});
  Spec.Entries.push_back({"b.bin", std::vector<uint8_t>(100, 'b'), false});
  auto Bytes = synthesizeZip(Spec);

  std::map<std::string, std::vector<uint8_t>> Files;
  ASSERT_TRUE(hwUnzip(ByteSpan::of(Bytes), Files));
  ASSERT_EQ(Files.size(), 2u);
  EXPECT_EQ(Files["a.bin"], Spec.Entries[0].Data);
  EXPECT_EQ(Files["b.bin"], Spec.Entries[1].Data);

  // And the IPG route recovers the same compressed payload.
  auto R = loadZipGrammar();
  ASSERT_TRUE(R) << R.message();
  BlackboxRegistry BB = standardBlackboxes();
  Interp I(R->G, &BB);
  auto Tree = I.parse(ByteSpan::of(Bytes));
  ASSERT_TRUE(Tree) << Tree.message();
  auto P = extractZip(*Tree, R->G);
  ASSERT_TRUE(P) << P.message();
  EXPECT_EQ(P->Entries[0].Data, Spec.Entries[0].Data);
}

TEST(HandwrittenAgreement, BothRejectCorruptZip) {
  auto Bytes = synthesizeZip(zipArchiveOfCopies(2, 64, false));
  Bytes[0] = 'Q'; // first local header magic
  std::map<std::string, std::vector<uint8_t>> Files;
  EXPECT_FALSE(hwUnzip(ByteSpan::of(Bytes), Files));

  auto R = loadZipGrammar();
  ASSERT_TRUE(R) << R.message();
  BlackboxRegistry BB = standardBlackboxes();
  Interp I(R->G, &BB);
  EXPECT_FALSE(I.parse(ByteSpan::of(Bytes)));
}

TEST(ArenaTest, BumpAllocationAndReset) {
  Arena A(64);
  int *X = A.make<int>(41);
  EXPECT_EQ(*X, 41);
  uint8_t *Big = A.makeArray<uint8_t>(10000);
  ASSERT_NE(Big, nullptr);
  Big[9999] = 7;
  size_t Used = A.bytesAllocated();
  EXPECT_GE(Used, 10004u);
  A.reset();
  EXPECT_EQ(A.bytesAllocated(), 0u);
  // Reuses the same blocks.
  int *Y = A.make<int>(3);
  EXPECT_EQ(static_cast<void *>(Y), static_cast<void *>(X));
}
