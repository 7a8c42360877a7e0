//===- serialize/Printer.cpp ----------------------------------------------===//
//
// Part of the IPG reproduction of "Interval Parsing Grammars for File Format
// Parsing" (PLDI 2023). MIT license.
//
//===----------------------------------------------------------------------===//

#include "serialize/Printer.h"

#include "support/GenRuntime.h"

#include <cstdint>
#include <string>
#include <type_traits>

using namespace ipg;
using namespace ipg::serialize;

namespace {

// The coverage kernel writes straight into PrintResult::Bytes.
static_assert(std::is_same_v<uint8_t, unsigned char>);

/// The host's PrintWalk hooks: blackbox nodes are the grammar's declared
/// blackboxes, inverses come from the registry, and spans are recorded
/// when the caller asked for them.
struct HostHooks {
  const Grammar &G;
  const BlackboxRegistry *Registry;
  const PrintOptions &Opts;
  PrintResult &R;
  BlackboxEncodeResult Enc; ///< keeps the last encoding alive for the write

  bool isBlackbox(Symbol S) const { return G.isBlackbox(S); }
  std::string name(Symbol S) const { return std::string(G.interner().name(S)); }
  bool encode(Symbol S, const uint8_t *Decoded, size_t Len, int64_t Value,
              const uint8_t *&Out, size_t &OutLen, std::string &Err) {
    const BlackboxInvFn *Inv =
        Registry ? Registry->findInverse(name(S)) : nullptr;
    if (!Inv) {
      Err = "blackbox inverse '" + name(S) + "' is not registered";
      return false;
    }
    Enc = (*Inv)(ByteSpan(Decoded, Len), Value);
    if (!Enc.Ok) {
      Err = "blackbox inverse '" + name(S) + "' failed";
      return false;
    }
    Out = Enc.Bytes.data();
    OutLen = Enc.Bytes.size();
    return true;
  }
  bool spans() const { return Opts.CollectSpans; }
  void span(ipg_rt::SpanKind K, Symbol Name, int64_t Lo, int64_t Hi,
            uint32_t Depth) {
    R.Spans.push_back(PrintSpan{K, Name, Lo, Hi, Depth});
  }
};

} // namespace

Expected<PrintResult>
ipg::serialize::printTree(const ParseTree &Root, const Grammar &G,
                          const BlackboxRegistry *Registry,
                          const PrintOptions &Opts) {
  if (Opts.Gaps == GapPolicy::FillFromBackground &&
      Opts.Background.data() == nullptr && Opts.Background.size() > 0)
    return Expected<PrintResult>::failure("background span has no data");
  bool Strict = Opts.Gaps == GapPolicy::Strict;
  PrintResult R;
  ipg_rt::PrintCoverage Cov(R.Bytes, Strict ? 0 : Opts.Background.size());
  HostHooks H{G, Registry, Opts, R, BlackboxEncodeResult()};
  ipg_rt::PrintWalk<HostHooks> W(H, Cov);
  if (!W.run(Root))
    return Expected<PrintResult>::failure(W.error());
  if (!Cov.finish(Strict, Opts.Background.data(), Opts.Background.size(),
                  "; see GapPolicy"))
    return Expected<PrintResult>::failure(Cov.error());
  R.CoveredBytes = Cov.CoveredBytes;
  R.OverlapBytes = Cov.OverlapBytes;
  R.GapBytes = Cov.GapBytes;
  R.BlackboxBytes = W.BlackboxBytes;
  return R;
}
