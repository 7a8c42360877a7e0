//===- formats/MiniZlib.h - zlib-substitute blackbox codec ------*- C++ -*-===//
//
// Part of the IPG reproduction of "Interval Parsing Grammars for File Format
// Parsing" (PLDI 2023). MIT license.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The paper's ZIP case study reuses zlib as a blackbox parser
/// (Sections 3.4 and 7). zlib is not available offline, so this module
/// implements a small self-contained LZ77-style codec with the same
/// blackbox shape: hand it an interval-confined slice, get back the
/// decompressed bytes and the number of input bytes consumed. See
/// docs/architecture.md ("Engineering substitutions") for the
/// substitution argument.
///
/// Stream layout:
///   "MZ1"  u32le(uncompressed size)  ops...  0xFF
///   op 0x00: u8 len,   len literal bytes
///   op 0x01: u8 len,   u16le dist — copy len bytes from `dist` back
///
//===----------------------------------------------------------------------===//

#ifndef IPG_FORMATS_MINIZLIB_H
#define IPG_FORMATS_MINIZLIB_H

#include "runtime/Blackbox.h"
#include "support/Bytes.h"

#include <cstddef>
#include <cstdint>
#include <optional>
#include <vector>

namespace ipg::formats {

/// Compresses \p Data (greedy back-reference search, RLE-friendly).
std::vector<uint8_t> miniZlibCompress(ByteSpan Data);

/// Decompresses one stream starting at \p In[0]. Returns the decoded bytes
/// and sets \p Consumed to one past the terminator; nullopt on malformed
/// input, including a declared size larger than \p In could encode
/// (checked before anything is allocated for it).
std::optional<std::vector<uint8_t>>
miniZlibDecompress(ByteSpan In, size_t &Consumed);

/// The blackbox adapter: val = decompressed size, end = bytes consumed,
/// Output = decompressed bytes.
BlackboxResult miniZlibBlackbox(ByteSpan In);

/// The blackbox INVERSE: re-encodes decoded bytes with miniZlibCompress.
/// \p Value must equal the decoded size (the forward adapter's val);
/// printing a tree whose val disagrees with its output leaf fails here.
/// Byte-exact round-trips additionally need the original stream to have
/// been produced by miniZlibCompress — the compressor is deterministic,
/// so compress(decompress(s)) == s for exactly those streams.
BlackboxEncodeResult miniZlibBlackboxInverse(ByteSpan Decoded,
                                             int64_t Value);

} // namespace ipg::formats

#endif // IPG_FORMATS_MINIZLIB_H
