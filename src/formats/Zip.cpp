//===- formats/Zip.cpp ----------------------------------------------------===//
//
// Part of the IPG reproduction of "Interval Parsing Grammars for File Format
// Parsing" (PLDI 2023). MIT license.
//
//===----------------------------------------------------------------------===//

#include "formats/Zip.h"

#include "formats/MiniZlib.h"
#include "support/Casting.h"

#include <cstddef>
#include <cstdint>
#include <string>
#include <utility>
#include <vector>

using namespace ipg;
using namespace ipg::formats;

// The top rule jumps backward to the EOCD (no archive comment, so it sits
// in the last 22 bytes), then uses its cdofs/cdsize fields for random
// access to the central directory. Local entries and central headers are
// chained lists counting themselves; both counts must match the EOCD's.
// Stored entries skip their data with `raw` (zero-copy); compressed
// entries hand the data interval to the inflate blackbox.
const char ipg::formats::ZipGrammarText[] = R"IPG(
blackbox inflate ;

ZIP -> EOCD[EOI - 22, EOI]
       LFs[0, EOCD.cdofs]
       CDs[EOCD.cdofs, EOCD.cdofs + EOCD.cdsize]
       check(LFs.count = EOCD.n)
       check(CDs.count = EOCD.n) ;

EOCD -> "PK\x05\x06" raw[18]
        {n = u16le(10)} {cdsize = u32le(12)} {cdofs = u32le(16)}
        {commentlen = u16le(20)}
        check(commentlen = 0) ;

LFs -> LF LFs {count = LFs.count + 1}
     / "" {count = 0} ;

LF -> "PK\x03\x04" raw[26]
      {method = u16le(8)} {csize = u32le(18)} {usize = u32le(22)}
      {namelen = u16le(26)} {extralen = u16le(28)}
      raw[namelen + extralen]
      switch(method = 0: Stored[csize]
           / method = 8: Deflated[csize]
           / Bad[1, 0]) ;

Stored -> raw ;
Deflated -> inflate {usize = inflate.val} ;
Bad -> "" ;

CDs -> CDH CDs {count = CDs.count + 1}
     / "" {count = 0} ;

CDH -> "PK\x01\x02" raw[42]
       {method = u16le(10)} {csize = u32le(20)} {usize = u32le(24)}
       {namelen = u16le(28)} {extralen = u16le(30)} {commentlen = u16le(32)}
       {lfhofs = u32le(42)}
       raw[namelen + extralen + commentlen] ;
)IPG";

Expected<LoadResult> ipg::formats::loadZipGrammar() {
  return loadGrammar(ZipGrammarText);
}

ZipSynthSpec ipg::formats::zipArchiveOfCopies(size_t Count, size_t FileSize,
                                              bool Compress, uint64_t Seed) {
  ZipSynthSpec Spec;
  uint64_t Rng = Seed;
  std::vector<uint8_t> Data;
  Data.reserve(FileSize);
  for (size_t I = 0; I < FileSize; ++I) {
    Rng = Rng * 6364136223846793005ULL + 1442695040888963407ULL;
    // Mildly compressible content: long runs punctuated by noise.
    Data.push_back(I % 7 == 0 ? static_cast<uint8_t>(Rng >> 33)
                              : static_cast<uint8_t>('A' + I % 5));
  }
  for (size_t I = 0; I < Count; ++I) {
    ZipEntrySpec E;
    E.Name = "file" + std::to_string(I) + ".dat";
    E.Data = Data;
    E.Compress = Compress;
    Spec.Entries.push_back(std::move(E));
  }
  return Spec;
}

std::vector<uint8_t> ipg::formats::synthesizeZip(const ZipSynthSpec &Spec) {
  ByteWriter W;
  struct CDInfo {
    std::string Name;
    uint16_t Method;
    uint32_t CSize, USize, LfhOfs;
  };
  std::vector<CDInfo> CDs;

  for (const ZipEntrySpec &E : Spec.Entries) {
    CDInfo Info;
    Info.Name = E.Name;
    Info.LfhOfs = static_cast<uint32_t>(W.size());
    Info.USize = static_cast<uint32_t>(E.Data.size());
    std::vector<uint8_t> Payload;
    if (E.Compress) {
      Payload = miniZlibCompress(ByteSpan::of(E.Data));
      Info.Method = 8;
    } else {
      Payload = E.Data;
      Info.Method = 0;
    }
    Info.CSize = static_cast<uint32_t>(Payload.size());

    W.raw("PK\x03\x04");
    W.u16le(20);          // version needed
    W.u16le(0);           // flags
    W.u16le(Info.Method); // method
    W.u16le(0);           // time
    W.u16le(0);           // date
    W.u32le(0);           // crc (not validated; see docs/architecture.md)
    W.u32le(Info.CSize);
    W.u32le(Info.USize);
    W.u16le(static_cast<uint16_t>(E.Name.size()));
    W.u16le(0); // extra len
    W.raw(E.Name);
    W.raw(Payload);
    CDs.push_back(std::move(Info));
  }

  uint32_t CdOfs = static_cast<uint32_t>(W.size());
  for (const CDInfo &C : CDs) {
    W.raw("PK\x01\x02");
    W.u16le(20); // version made by
    W.u16le(20); // version needed
    W.u16le(0);  // flags
    W.u16le(C.Method);
    W.u16le(0); // time
    W.u16le(0); // date
    W.u32le(0); // crc
    W.u32le(C.CSize);
    W.u32le(C.USize);
    W.u16le(static_cast<uint16_t>(C.Name.size()));
    W.u16le(0); // extra
    W.u16le(0); // comment
    W.u16le(0); // disk
    W.u16le(0); // internal attrs
    W.u32le(0); // external attrs
    W.u32le(C.LfhOfs);
    W.raw(C.Name);
  }
  uint32_t CdSize = static_cast<uint32_t>(W.size()) - CdOfs;

  W.raw("PK\x05\x06");
  W.u16le(0); // disk
  W.u16le(0); // cd disk
  W.u16le(static_cast<uint16_t>(CDs.size()));
  W.u16le(static_cast<uint16_t>(CDs.size()));
  W.u32le(CdSize);
  W.u32le(CdOfs);
  W.u16le(0); // comment length
  return W.take();
}

Expected<ZipParsed> ipg::formats::extractZip(const TreePtr &Tree,
                                             const Grammar &G) {
  const StringInterner &In = G.interner();
  const auto *Root = dyn_cast<NodeTree>(Tree.get());
  if (!Root)
    return Expected<ZipParsed>::failure("ZIP tree root is not a node");

  ZipParsed P;
  const NodeTree *EOCD = Root->childNode(In.lookup("EOCD"));
  if (!EOCD)
    return Expected<ZipParsed>::failure("missing EOCD node");
  P.EntryCount = static_cast<uint16_t>(EOCD->attr(In.lookup("n")).value_or(0));

  // Walk the LF chain: LFs -> LF LFs / "".
  const NodeTree *Chain = Root->childNode(In.lookup("LFs"));
  Symbol LFSym = In.lookup("LF"), LFsSym = In.lookup("LFs");
  Symbol DeflSym = In.lookup("Deflated"), InflSym = In.lookup("inflate");
  while (Chain) {
    const NodeTree *LF = Chain->childNode(LFSym);
    if (!LF)
      break;
    ZipParsedEntry E;
    E.Method = static_cast<uint16_t>(LF->attr(In.lookup("method")).value_or(0));
    E.CompressedSize =
        static_cast<uint32_t>(LF->attr(In.lookup("csize")).value_or(0));
    E.UncompressedSize =
        static_cast<uint32_t>(LF->attr(In.lookup("usize")).value_or(0));
    if (const NodeTree *Defl = LF->childNode(DeflSym)) {
      if (const NodeTree *Inf = Defl->childNode(InflSym))
        if (!Inf->children().empty())
          if (const auto *Leaf = dyn_cast<LeafTree>(Inf->children()[0].get()))
            E.Data.assign(Leaf->bytes().begin(), Leaf->bytes().end());
    }
    P.Entries.push_back(std::move(E));
    Chain = Chain->childNode(LFsSym);
  }
  if (P.Entries.size() != P.EntryCount)
    return Expected<ZipParsed>::failure(
        "entry chain length disagrees with EOCD count");
  return P;
}
