//===- perfbench/src/Traffic.cpp ------------------------------------------===//
//
// Part of the IPG reproduction of "Interval Parsing Grammars for File Format
// Parsing" (PLDI 2023). MIT license.
//
//===----------------------------------------------------------------------===//

#include "Traffic.h"

#include "formats/Dns.h"
#include "formats/Elf.h"
#include "formats/Gif.h"
#include "formats/Ipv4Udp.h"
#include "formats/Pdf.h"
#include "formats/Pe.h"
#include "formats/Zip.h"

#include <algorithm>
#include <map>
#include <sstream>

using namespace ipg;
using namespace ipg::perfbench;

uint64_t Rng::next() {
  uint64_t Z = (State += 0x9e3779b97f4a7c15ULL);
  Z = (Z ^ (Z >> 30)) * 0xbf58476d1ce4e5b9ULL;
  Z = (Z ^ (Z >> 27)) * 0x94d049bb133111ebULL;
  return Z ^ (Z >> 31);
}

RequestStream::RequestStream(size_t PoolSize, uint64_t Seed)
    : R(Seed ^ 0x5eed5eed5eed5eedULL), Order(PoolSize), Pos(PoolSize) {
  for (size_t I = 0; I < PoolSize; ++I)
    Order[I] = static_cast<uint32_t>(I);
}

uint32_t RequestStream::next() {
  if (Pos == Order.size()) {
    for (size_t I = Order.size(); I > 1; --I)
      std::swap(Order[I - 1], Order[R.below(I)]);
    Pos = 0;
  }
  return Order[Pos++];
}

const char *ipg::perfbench::damageName(Damage D) {
  switch (D) {
  case Damage::None:
    return "none";
  case Damage::Flip:
    return "flip";
  case Damage::Truncate:
    return "truncate";
  case Damage::ZeroRun:
    return "zero-run";
  }
  return "?";
}

bool ipg::perfbench::printExact(const std::string &Format) {
  return Format != "pe" && Format != "pdf";
}

namespace {

/// Width of a zero-run damage window (clamped at end of input).
constexpr size_t ZeroRunBytes = 16;

std::vector<Workload> makeWorkloads() {
  std::vector<Workload> Ws;
  const std::vector<std::string> SmallFormats = {"zip", "gif", "pe", "elf",
                                                 "ipv4udp", "dns"};
  {
    Workload W;
    W.Name = "mixed-small";
    W.Workers = 2;
    W.InFlight = 16;
    W.Formats = SmallFormats;
    Ws.push_back(W);
  }
  {
    Workload W;
    W.Name = "pdf-deep";
    W.Workers = 1;
    W.InFlight = 1;
    // The pdf grammar recurses once per file byte (engines flatten it onto
    // their own frames); the depth cap only has to cover the file size.
    W.Engine.MaxDepth = size_t(1) << 22;
    W.Formats = {"pdf"};
    Ws.push_back(W);
  }
  {
    Workload W;
    W.Name = "damaged-salvage";
    W.Workers = 1;
    W.InFlight = 4;
    W.Engine.Recovery = RecoveryPolicy::Salvage;
    W.Engine.UseMemo = false;
    W.ClientPrints = true;
    W.Formats = SmallFormats;
    Ws.push_back(W);
  }
  {
    Workload W;
    W.Name = "generated-bulk";
    W.Mode = EngineKind::Generated;
    W.Workers = 1;
    W.InFlight = 2;
    W.Formats = {"zip", "gif", "pe", "elf"};
    Ws.push_back(W);
  }
  return Ws;
}

const std::vector<Workload> &workloads() {
  static const std::vector<Workload> Ws = makeWorkloads();
  return Ws;
}

/// The traffic kind's registry format.
std::string formatOf(const std::string &Kind) {
  return Kind.rfind("zip", 0) == 0 ? "zip" : Kind;
}

/// Valid-by-construction input of \p Kind at \p Scale. \p Refs is the pdf
/// xref-rows-per-object draw (ignored elsewhere).
std::vector<uint8_t> synthesize(const std::string &Kind, unsigned Scale,
                                uint64_t Seed, unsigned Refs) {
  using namespace ipg::formats;
  if (Kind == "zip-stored")
    return synthesizeZip(zipArchiveOfCopies(2 * Scale, 2048, false, Seed));
  if (Kind == "zip-deflate")
    return synthesizeZip(zipArchiveOfCopies(Scale, 2048, true, Seed));
  if (Kind == "gif") {
    GifSynthSpec S;
    S.NumImages = Scale;
    S.SubBlocksPerImage = 8;
    S.Seed = Seed;
    return synthesizeGif(S);
  }
  if (Kind == "pe") {
    PeSynthSpec S;
    S.NumSections = 2 * Scale;
    S.Seed = Seed;
    return synthesizePe(S);
  }
  if (Kind == "elf") {
    ElfSynthSpec S;
    S.NumDynEntries = 16 * Scale;
    S.NumSymbols = 32 * Scale;
    // Bulk scales grow .text to 16 KiB per scale step: scale 64 is a
    // megabyte image, past any L2.
    if (Scale >= 8)
      S.TextSize = 16384 * Scale;
    S.Seed = Seed;
    return synthesizeElf(S);
  }
  if (Kind == "ipv4udp") {
    Ipv4SynthSpec S;
    S.PayloadSize = 256 * Scale;
    S.Seed = Seed;
    return synthesizeIpv4Udp(S);
  }
  if (Kind == "dns") {
    DnsSynthSpec S;
    S.NumAnswers = 4 * Scale;
    S.Seed = Seed;
    return synthesizeDns(S);
  }
  // pdf
  PdfSynthSpec S;
  S.NumObjects = 8 * Scale;
  S.XrefRefsPerObject = Refs;
  S.Seed = Seed;
  return synthesizePdf(S);
}

/// One cell of a stratified deck.
struct Cell {
  std::string Kind;
  unsigned Scale;
  unsigned Refs = 1;
  Damage Dmg = Damage::None;
};

std::vector<Cell> deckFor(const Workload &W) {
  const std::vector<std::string> SmallKinds = {
      "zip-stored", "zip-deflate", "gif", "pe", "elf", "ipv4udp", "dns"};
  std::vector<Cell> Deck;
  if (W.Name == "mixed-small") {
    for (int Rep = 0; Rep < 8; ++Rep)
      for (const std::string &K : SmallKinds)
        for (unsigned S = 1; S <= 4; ++S)
          Deck.push_back({K, S});
  } else if (W.Name == "pdf-deep") {
    for (unsigned S = 1; S <= 16; ++S)
      for (unsigned Refs = 1; Refs <= 4; ++Refs)
        Deck.push_back({"pdf", S, Refs});
  } else if (W.Name == "damaged-salvage") {
    for (int Rep = 0; Rep < 6; ++Rep)
      for (const std::string &K : SmallKinds)
        for (unsigned S = 1; S <= 4; ++S)
          for (Damage D : {Damage::Flip, Damage::Truncate, Damage::ZeroRun})
            Deck.push_back({K, S, 1, D});
  } else {
    for (int Rep = 0; Rep < 2; ++Rep) {
      for (const char *K : {"zip-stored", "zip-deflate", "gif", "pe"})
        for (unsigned S = 4; S <= 16; S += 4)
          Deck.push_back({K, S});
      for (unsigned S = 8; S <= 64; S += 8)
        Deck.push_back({"elf", S});
    }
  }
  return Deck;
}

} // namespace

const Workload *ipg::perfbench::findWorkload(const std::string &Name) {
  for (const Workload &W : workloads())
    if (W.Name == Name)
      return &W;
  return nullptr;
}

std::vector<std::string> ipg::perfbench::workloadNames() {
  std::vector<std::string> Names;
  for (const Workload &W : workloads())
    Names.push_back(W.Name);
  return Names;
}

std::vector<PoolItem> ipg::perfbench::buildPool(const Workload &W,
                                                uint64_t Seed) {
  Rng R(Seed);
  std::vector<Cell> Deck = deckFor(W);
  // Fisher-Yates: the seed decides the request order.
  for (size_t I = Deck.size(); I > 1; --I)
    std::swap(Deck[I - 1], Deck[R.below(I)]);

  std::vector<PoolItem> Pool;
  Pool.reserve(Deck.size());
  for (const Cell &C : Deck) {
    PoolItem It;
    It.Kind = C.Kind;
    It.Format = formatOf(C.Kind);
    It.Scale = C.Scale;
    It.Dmg = C.Dmg;
    std::vector<uint8_t> Bytes =
        synthesize(C.Kind, C.Scale, 1 + R.below(1u << 30), C.Refs);
    if (C.Dmg != Damage::None) {
      // Offset 0 of a truncation would leave nothing to salvage.
      size_t Off = 1 + R.below(Bytes.size() - 1);
      It.DamageOffset = Off;
      switch (C.Dmg) {
      case Damage::Flip:
        Bytes[Off] ^= 0xff;
        break;
      case Damage::Truncate:
        Bytes.resize(Off);
        break;
      case Damage::ZeroRun:
        std::fill(Bytes.begin() + static_cast<std::ptrdiff_t>(Off),
                  Bytes.begin() + static_cast<std::ptrdiff_t>(
                                      std::min(Off + ZeroRunBytes,
                                               Bytes.size())),
                  uint8_t{0});
        break;
      case Damage::None:
        break;
      }
    }
    It.Input = InputSource::fromBytes(std::move(Bytes));
    Pool.push_back(std::move(It));
  }
  return Pool;
}

std::string ipg::perfbench::describePool(const std::vector<PoolItem> &Pool) {
  std::map<std::string, size_t> Mix;
  std::vector<size_t> Sizes;
  size_t Total = 0;
  for (const PoolItem &It : Pool) {
    ++Mix[It.Dmg == Damage::None ? It.Kind
                                 : It.Kind + "/" + damageName(It.Dmg)];
    Sizes.push_back(It.Input->size());
    Total += It.Input->size();
  }
  std::sort(Sizes.begin(), Sizes.end());
  auto Q = [&](double P) {
    double Last = static_cast<double>(Sizes.size() - 1);
    return Sizes[static_cast<size_t>(P * Last)];
  };
  std::ostringstream OS;
  OS << "pool: " << Pool.size() << " inputs, " << Total
     << " bytes; size min/q1/median/q3/max = " << Sizes.front() << "/"
     << Q(0.25) << "/" << Q(0.5) << "/" << Q(0.75) << "/" << Sizes.back()
     << "; mix:";
  for (const auto &[K, N] : Mix)
    OS << " " << K << "=" << N;
  return OS.str();
}
