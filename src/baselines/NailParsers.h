//===- baselines/NailParsers.h - Nail-style packet parsers ------*- C++ -*-===//
//
// Part of the IPG reproduction of "Interval Parsing Grammars for File Format
// Parsing" (PLDI 2023). MIT license.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Parsers in the style of Nail's generated C code (Section 7's network
/// comparator): all result structures live in an arena, arrays are
/// arena-allocated with explicit counts, and parsing is a straight-line
/// descent over a (data, position) pair.
///
//===----------------------------------------------------------------------===//

#ifndef IPG_BASELINES_NAILPARSERS_H
#define IPG_BASELINES_NAILPARSERS_H

#include "support/GenRuntime.h"

#include <cstddef>
#include <cstdint>

namespace ipg::baselines {

using ipg_rt::Arena;

struct NailDnsAnswer {
  uint16_t Type;
  uint16_t Class;
  uint32_t Ttl;
  uint16_t RdLen;
  const uint8_t *RData; ///< points into the arena copy
};

struct NailDns {
  uint16_t Id;
  uint16_t QdCount;
  uint16_t AnCount;
  uint8_t QNameLen;
  const uint8_t *QName; ///< label bytes, arena-owned
  NailDnsAnswer *Answers;
};

/// Returns an arena-allocated result, or null on malformed input.
const NailDns *nailParseDns(Arena &A, const uint8_t *Data, size_t Len);

struct NailIpv4 {
  uint8_t Ihl;
  uint16_t TotalLength;
  uint8_t Protocol;
  bool HasUdp;
  uint16_t SrcPort, DstPort, UdpLen;
  uint16_t PayloadLen;
  const uint8_t *Payload; ///< arena copy
};

const NailIpv4 *nailParseIpv4(Arena &A, const uint8_t *Data, size_t Len);

} // namespace ipg::baselines

#endif // IPG_BASELINES_NAILPARSERS_H
