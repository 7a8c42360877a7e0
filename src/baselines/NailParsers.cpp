//===- baselines/NailParsers.cpp ------------------------------------------===//
//
// Part of the IPG reproduction of "Interval Parsing Grammars for File Format
// Parsing" (PLDI 2023). MIT license.
//
//===----------------------------------------------------------------------===//

#include "baselines/NailParsers.h"

#include <cstddef>
#include <cstdint>
#include <cstring>

using namespace ipg::baselines;

namespace {

struct Cursor {
  const uint8_t *Data;
  size_t Len;
  size_t Pos = 0;

  bool need(size_t N) const { return Pos + N <= Len; }
  uint8_t u8() { return Data[Pos++]; }
  uint16_t u16be() {
    uint16_t V = static_cast<uint16_t>((Data[Pos] << 8) | Data[Pos + 1]);
    Pos += 2;
    return V;
  }
  uint32_t u32be() {
    uint32_t V = (static_cast<uint32_t>(Data[Pos]) << 24) |
                 (static_cast<uint32_t>(Data[Pos + 1]) << 16) |
                 (static_cast<uint32_t>(Data[Pos + 2]) << 8) |
                 Data[Pos + 3];
    Pos += 4;
    return V;
  }
};

/// Copies [C.Pos, C.Pos+N) into the arena and advances.
const uint8_t *arenaBytes(Arena &A, Cursor &C, size_t N) {
  uint8_t *Out = A.makeArray<uint8_t>(N ? N : 1);
  std::memcpy(Out, C.Data + C.Pos, N);
  C.Pos += N;
  return Out;
}

/// Parses a possibly-compressed name, appending label bytes to the arena;
/// returns false on malformed names.
bool nailName(Arena &A, Cursor &C, const uint8_t *&Out, uint8_t &OutLen) {
  uint8_t Buf[256];
  size_t N = 0;
  for (;;) {
    if (!C.need(1))
      return false;
    uint8_t L = C.u8();
    if (L == 0)
      break;
    if ((L & 0xC0) == 0xC0) {
      if (!C.need(1))
        return false;
      C.u8(); // pointer low byte; target resolved by the consumer
      break;
    }
    if (L >= 64 || !C.need(L) || N + L + 1 > sizeof(Buf))
      return false;
    Buf[N++] = L;
    std::memcpy(Buf + N, C.Data + C.Pos, L);
    N += L;
    C.Pos += L;
  }
  uint8_t *Stored = A.makeArray<uint8_t>(N ? N : 1);
  std::memcpy(Stored, Buf, N);
  Out = Stored;
  OutLen = static_cast<uint8_t>(N);
  return true;
}

} // namespace

const NailDns *ipg::baselines::nailParseDns(Arena &A, const uint8_t *Data,
                                            size_t Len) {
  Cursor C{Data, Len};
  if (!C.need(12))
    return nullptr;
  NailDns *D = A.make<NailDns>();
  D->Id = C.u16be();
  C.u16be(); // flags
  D->QdCount = C.u16be();
  D->AnCount = C.u16be();
  C.u16be(); // ns
  C.u16be(); // ar
  if (D->QdCount != 1)
    return nullptr;
  if (!nailName(A, C, D->QName, D->QNameLen))
    return nullptr;
  if (!C.need(4))
    return nullptr;
  C.u16be(); // qtype
  C.u16be(); // qclass

  D->Answers = A.makeArray<NailDnsAnswer>(D->AnCount ? D->AnCount : 1);
  for (uint16_t I = 0; I < D->AnCount; ++I) {
    const uint8_t *Scratch;
    uint8_t ScratchLen;
    if (!nailName(A, C, Scratch, ScratchLen))
      return nullptr;
    if (!C.need(10))
      return nullptr;
    NailDnsAnswer &An = D->Answers[I];
    An.Type = C.u16be();
    An.Class = C.u16be();
    An.Ttl = C.u32be();
    An.RdLen = C.u16be();
    if (!C.need(An.RdLen))
      return nullptr;
    An.RData = arenaBytes(A, C, An.RdLen);
  }
  return C.Pos <= Len ? D : nullptr;
}

const NailIpv4 *ipg::baselines::nailParseIpv4(Arena &A, const uint8_t *Data,
                                              size_t Len) {
  Cursor C{Data, Len};
  if (!C.need(20))
    return nullptr;
  uint8_t VIhl = C.u8();
  if ((VIhl >> 4) != 4)
    return nullptr;
  NailIpv4 *P = A.make<NailIpv4>();
  P->Ihl = VIhl & 0xf;
  if (P->Ihl < 5)
    return nullptr;
  C.u8(); // dscp
  P->TotalLength = C.u16be();
  C.Pos += 5;
  P->Protocol = C.u8();
  C.u16be(); // checksum
  C.u32be(); // src
  C.u32be(); // dst
  size_t HLen = P->Ihl * 4u;
  if (!C.need(HLen - 20))
    return nullptr;
  C.Pos += HLen - 20; // options
  if (P->TotalLength > Len || P->TotalLength < HLen)
    return nullptr;
  size_t Remaining = P->TotalLength - HLen;
  P->HasUdp = P->Protocol == 17;
  if (P->HasUdp) {
    if (Remaining < 8 || !C.need(8))
      return nullptr;
    P->SrcPort = C.u16be();
    P->DstPort = C.u16be();
    P->UdpLen = C.u16be();
    C.u16be(); // checksum
    if (P->UdpLen != Remaining)
      return nullptr;
    P->PayloadLen = static_cast<uint16_t>(P->UdpLen - 8);
    if (!C.need(P->PayloadLen))
      return nullptr;
    P->Payload = arenaBytes(A, C, P->PayloadLen);
  } else {
    P->PayloadLen = static_cast<uint16_t>(Remaining);
    if (!C.need(Remaining))
      return nullptr;
    P->Payload = arenaBytes(A, C, Remaining);
  }
  return P;
}
