//===- tests/fuzz_roundtrip.cpp - structure-aware roundtrip fuzzing -------===//
//
// Part of the IPG reproduction of "Interval Parsing Grammars for File Format
// Parsing" (PLDI 2023). MIT license.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The structure-aware roundtrip fuzzer. For every format corpus the
/// harness parses the pristine sample, prints it with span collection
/// (serialize/Printer.cpp), and then mutates the BYTES guided by the
/// collected node spans — perturb a byte inside a subtree, splice a
/// subtree out, duplicate one in place, truncate inside one — rather
/// than flipping blind offsets. Each mutant is re-parsed and must land
/// in one of two honest outcomes:
///
///   accept  — and then the re-printed tree must reproduce the mutant
///             byte-for-byte (parse ∘ print = id on everything the
///             engine claims to understand);
///   reject  — with an ordinary parse error. Rejects whose message
///             carries the interpreter's "internal:" prefix are
///             infrastructure bugs and fail the run.
///
/// The deflated-zip corpus gets one extra outcome: a mutated compressed
/// stream can still decode, and re-encoding the decoded bytes through
/// the deterministic inverse then produces the CANONICAL stream, not the
/// mutant — the fuzzer accepts exactly that shape (a blackbox-inverse
/// window error, or a re-print that re-parses to its own fixpoint) and
/// nothing else.
///
/// Every mutant additionally runs through a RecoveryPolicy::Salvage
/// engine, which owes the same honesty: Accept or hole-fenced Salvage
/// (and then the reprint obligations above — hole leaves alias the
/// damaged bytes byte-for-byte), or a clean reject. "internal:" is a
/// failure in this pass too.
///
/// Runs standalone (no gtest): a fixed-seed shallow pass is registered
/// with ctest so every `ctest` invocation replays the same mutants, and
/// CI's fuzz-smoke job runs an open-ended pass seeded from the run id
/// under ASan+UBSan. Any failure writes the mutant to --repro-dir and
/// exits nonzero; replay with
///   fuzz_roundtrip --format <name> --seed <seed> --iterations <n>
///
//===----------------------------------------------------------------------===//

#include "formats/FormatRegistry.h"
#include "formats/Zip.h"
#include "runtime/Interp.h"
#include "serialize/Printer.h"

#include <cinttypes>
#include <cstdint>
#include <cstdio>
#include <cstring>
#include <fstream>
#include <random>
#include <string>
#include <vector>

using namespace ipg;

namespace {

struct Corpus {
  std::string Name;            // display / --format key
  std::string Format;          // formats:: registry key
  std::vector<uint8_t> Bytes;  // pristine sample
  bool Blackbox = false;       // canonicalization outcomes allowed
};

struct Stats {
  uint64_t Accepted = 0;
  uint64_t AcceptedExact = 0;
  uint64_t Canonicalized = 0;
  uint64_t Rejected = 0;
  uint64_t Failures = 0;
  // The Salvage-mode pass over the same mutants (RecoveryPolicy::
  // Salvage): every mutant must land in accept / hole-fenced salvage /
  // clean reject — the same print obligations as the strict pass.
  uint64_t SalvageAccepted = 0;
  uint64_t SalvageHoled = 0;
  uint64_t SalvageRejected = 0;
};

struct Options {
  uint64_t Iterations = 200;
  uint64_t Seed = 0x1960'0717;  // fixed default: the ctest run is replayable
  std::string OnlyFormat;       // empty = all corpora
  std::string ReproDir = ".";
};

std::vector<Corpus> buildCorpora() {
  std::vector<Corpus> Out;
  for (const formats::FormatInfo &FI : formats::allFormats())
    Out.push_back({FI.Name, FI.Name, formats::sampleInput(FI.Name, 1),
                   /*Blackbox=*/false});
  // The stored-entry zip sample above never calls `inflate`; this one
  // drives every mutant through the blackbox decoder and its inverse.
  Out.push_back({"zip-deflated", "zip",
                 formats::synthesizeZip(
                     formats::zipArchiveOfCopies(4, 2048, /*Compress=*/true)),
                 /*Blackbox=*/true});
  return Out;
}

uint64_t pick(std::mt19937_64 &Rng, uint64_t Bound) {
  return Bound ? Rng() % Bound : 0;
}

/// One structure-aware mutation of \p Base: choose a collected span, then
/// one of four tree-shaped edits. Returns the mutant and a description.
std::vector<uint8_t> mutate(const std::vector<uint8_t> &Base,
                            const std::vector<serialize::PrintSpan> &Spans,
                            std::mt19937_64 &Rng, std::string &Desc) {
  std::vector<uint8_t> M = Base;
  const serialize::PrintSpan &S = Spans[pick(Rng, Spans.size())];
  size_t Lo = static_cast<size_t>(S.Lo), Hi = static_cast<size_t>(S.Hi);
  switch (pick(Rng, 4)) {
  case 0: { // perturb one byte inside the subtree
    size_t At = Lo + pick(Rng, Hi - Lo);
    uint8_t Bit = static_cast<uint8_t>(1u << pick(Rng, 8));
    M[At] = static_cast<uint8_t>(M[At] ^ Bit);
    Desc = "perturb @" + std::to_string(At);
    break;
  }
  case 1: { // splice the subtree out
    M.erase(M.begin() + static_cast<std::ptrdiff_t>(Lo),
            M.begin() + static_cast<std::ptrdiff_t>(Hi));
    Desc = "splice-out [" + std::to_string(Lo) + "," + std::to_string(Hi) +
           ")";
    break;
  }
  case 2: { // duplicate the subtree right after itself
    std::vector<uint8_t> Copy(Base.begin() + static_cast<std::ptrdiff_t>(Lo),
                              Base.begin() + static_cast<std::ptrdiff_t>(Hi));
    M.insert(M.begin() + static_cast<std::ptrdiff_t>(Hi), Copy.begin(),
             Copy.end());
    Desc = "duplicate [" + std::to_string(Lo) + "," + std::to_string(Hi) +
           ")";
    break;
  }
  default: { // truncate inside the subtree
    size_t At = Lo + pick(Rng, Hi - Lo);
    M.resize(At);
    Desc = "truncate @" + std::to_string(At);
    break;
  }
  }
  return M;
}

void writeRepro(const Options &O, const Corpus &C, uint64_t Iter,
                const std::vector<uint8_t> &Mutant, const std::string &Why) {
  std::string Path = O.ReproDir + "/fuzz_repro_" + C.Name + "_" +
                     std::to_string(Iter) + ".bin";
  std::ofstream Out(Path, std::ios::binary);
  Out.write(reinterpret_cast<const char *>(Mutant.data()),
            static_cast<std::streamsize>(Mutant.size()));
  std::fprintf(stderr,
               "FAIL corpus=%s iter=%" PRIu64 " seed=%" PRIu64 ": %s\n"
               "  repro: %s (%zu bytes)\n",
               C.Name.c_str(), Iter, O.Seed, Why.c_str(), Path.c_str(),
               Mutant.size());
}

serialize::PrintOptions fillOpts(const std::vector<uint8_t> &Background) {
  serialize::PrintOptions Opts;
  Opts.Gaps = serialize::GapPolicy::FillFromBackground;
  Opts.Background = ByteSpan::of(Background);
  return Opts;
}

/// Fuzz one corpus. Returns false (after writing a repro) on any
/// unexplained outcome: an "internal:" reject, a print failure on an
/// accepted mutant, or an accepted mutant whose re-print diverges.
bool fuzzCorpus(const Options &O, const Corpus &C, Stats &Total) {
  auto Load = formats::loadFormatGrammar(C.Format);
  if (!Load) {
    std::fprintf(stderr, "FAIL %s: grammar: %s\n", C.Name.c_str(),
                 Load.message().c_str());
    return false;
  }
  BlackboxRegistry BB = formats::standardBlackboxes();
  // Default engine options, default MaxDepth: grammar recursion runs on
  // engine-managed frames (loop-flattened or on the explicit work
  // stack), so deep mutants — a duplicated PDF subtree can double the
  // file — hit the clean depth-limit reject, never a stack overflow,
  // even under ASan's fat frames.
  Interp I(Load->G, &BB, EngineOptions{});
  // The salvage twin: same grammar, same mutants, RecoveryPolicy::
  // Salvage. Damage the strict engine rejects may come back as a tree
  // with hole leaves — which must then reprint the mutant byte-exact,
  // holes included.
  EngineOptions SalvageOpts;
  SalvageOpts.Recovery = RecoveryPolicy::Salvage;
  Interp SI(Load->G, &BB, SalvageOpts);

  // Pristine pass: parse and span-collecting print must be byte-exact —
  // anything else is a setup bug, not a fuzzing discovery.
  auto Pristine = I.parse(ByteSpan::of(C.Bytes));
  if (!Pristine) {
    std::fprintf(stderr, "FAIL %s: pristine corpus rejected: %s\n",
                 C.Name.c_str(), Pristine.message().c_str());
    return false;
  }
  serialize::PrintOptions SpanOpts = fillOpts(C.Bytes);
  SpanOpts.CollectSpans = true;
  auto PristinePrint = serialize::printTree(**Pristine, Load->G, &BB, SpanOpts);
  if (!PristinePrint || PristinePrint->Bytes != C.Bytes ||
      PristinePrint->Spans.empty()) {
    std::fprintf(stderr, "FAIL %s: pristine print not exact: %s\n",
                 C.Name.c_str(),
                 PristinePrint ? "byte mismatch"
                               : PristinePrint.message().c_str());
    return false;
  }
  const std::vector<serialize::PrintSpan> Spans =
      std::move(PristinePrint->Spans);

  // Shared print obligation for anything an engine accepted: exact
  // reprint, or — blackbox corpora only — the canonicalization escape.
  // A mutant stream that decodes but re-encodes to a different-length
  // canonical stream trips the inverse's window check (the serializer
  // refusing to forge bytes it cannot reproduce); a same-length
  // re-encode must at least be its own fixpoint — it re-parses, and
  // printing THAT parse reproduces it byte-for-byte.
  enum class PrintCheck { Exact, Canonical, Broken };
  std::string PrintWhy;
  auto checkPrint = [&](Interp &Eng, const TreePtr &Tree,
                        const std::vector<uint8_t> &Mutant) {
    auto P = serialize::printTree(*Tree, Load->G, &BB, fillOpts(Mutant));
    if (!P) {
      if (C.Blackbox &&
          P.message().find("blackbox inverse") != std::string::npos)
        return PrintCheck::Canonical;
      PrintWhy = "accepted but print failed: " + P.message();
      return PrintCheck::Broken;
    }
    if (P->Bytes == Mutant)
      return PrintCheck::Exact;
    if (C.Blackbox) {
      auto R2 = Eng.parse(ByteSpan::of(P->Bytes));
      if (R2) {
        auto P2 = serialize::printTree(**R2, Load->G, &BB,
                                       fillOpts(P->Bytes));
        if (P2 && P2->Bytes == P->Bytes)
          return PrintCheck::Canonical;
      }
    }
    PrintWhy = "accepted but print(parse(m)) != m";
    return PrintCheck::Broken;
  };

  // Every corpus gets its own deterministic stream: --format replays the
  // exact mutants the all-corpora run produced for that corpus.
  std::mt19937_64 Rng(O.Seed ^ std::hash<std::string>{}(C.Name));
  Stats S;
  for (uint64_t Iter = 0; Iter < O.Iterations; ++Iter) {
    std::string Desc;
    std::vector<uint8_t> Mutant = mutate(C.Bytes, Spans, Rng, Desc);

    auto R = I.parse(ByteSpan::of(Mutant));
    if (!R) {
      // A reject is the healthy outcome — unless the message says the
      // ENGINE broke ("internal:" marks interpreter invariant failures).
      if (R.message().rfind("internal:", 0) == 0) {
        writeRepro(O, C, Iter, Mutant, Desc + ": internal error: " +
                                           R.message());
        ++S.Failures;
      } else {
        ++S.Rejected;
      }
    } else {
      ++S.Accepted;
      switch (checkPrint(I, *R, Mutant)) {
      case PrintCheck::Exact:
        ++S.AcceptedExact;
        break;
      case PrintCheck::Canonical:
        ++S.Canonicalized;
        break;
      case PrintCheck::Broken:
        writeRepro(O, C, Iter, Mutant, Desc + ": " + PrintWhy);
        ++S.Failures;
        break;
      }
    }

    // The salvage pass over the SAME mutant: Salvage may only widen
    // acceptance (fencing damage into holes), and everything it accepts
    // owes the same reprint obligation — hole leaves alias the damaged
    // bytes, so they must come back out verbatim.
    auto RS = SI.parse(ByteSpan::of(Mutant));
    if (!RS) {
      if (RS.message().rfind("internal:", 0) == 0) {
        writeRepro(O, C, Iter, Mutant,
                   Desc + ": salvage internal error: " + RS.message());
        ++S.Failures;
      } else {
        ++S.SalvageRejected;
      }
      continue;
    }
    if (SI.stats().ParseVerdict == Verdict::Salvage)
      ++S.SalvageHoled;
    else
      ++S.SalvageAccepted;
    if (checkPrint(SI, *RS, Mutant) == PrintCheck::Broken) {
      writeRepro(O, C, Iter, Mutant, Desc + ": salvage " + PrintWhy);
      ++S.Failures;
    }
  }

  std::printf("%-12s iters=%" PRIu64 " accepted=%" PRIu64 " (exact=%" PRIu64
              " canonicalized=%" PRIu64 ") rejected=%" PRIu64
              " salvage=[accept=%" PRIu64 " holed=%" PRIu64
              " reject=%" PRIu64 "] failures=%" PRIu64 "\n",
              C.Name.c_str(), O.Iterations, S.Accepted, S.AcceptedExact,
              S.Canonicalized, S.Rejected, S.SalvageAccepted, S.SalvageHoled,
              S.SalvageRejected, S.Failures);
  Total.Accepted += S.Accepted;
  Total.AcceptedExact += S.AcceptedExact;
  Total.Canonicalized += S.Canonicalized;
  Total.Rejected += S.Rejected;
  Total.SalvageAccepted += S.SalvageAccepted;
  Total.SalvageHoled += S.SalvageHoled;
  Total.SalvageRejected += S.SalvageRejected;
  Total.Failures += S.Failures;
  return S.Failures == 0;
}

} // namespace

int main(int argc, char **argv) {
  Options O;
  for (int A = 1; A < argc; ++A) {
    std::string Arg = argv[A];
    auto Next = [&]() -> const char * {
      return A + 1 < argc ? argv[++A] : nullptr;
    };
    if (Arg == "--iterations") {
      if (const char *V = Next())
        O.Iterations = std::strtoull(V, nullptr, 10);
    } else if (Arg == "--seed") {
      if (const char *V = Next())
        O.Seed = std::strtoull(V, nullptr, 10);
    } else if (Arg == "--format") {
      if (const char *V = Next())
        O.OnlyFormat = V;
    } else if (Arg == "--repro-dir") {
      if (const char *V = Next())
        O.ReproDir = V;
    } else {
      std::fprintf(stderr,
                   "usage: fuzz_roundtrip [--iterations N] [--seed N]\n"
                   "                      [--format NAME] [--repro-dir DIR]\n");
      return 2;
    }
  }

  bool Ok = true;
  Stats Total;
  size_t Ran = 0;
  for (const Corpus &C : buildCorpora()) {
    if (!O.OnlyFormat.empty() && C.Name != O.OnlyFormat)
      continue;
    ++Ran;
    Ok = fuzzCorpus(O, C, Total) && Ok;
  }
  if (!Ran) {
    std::fprintf(stderr, "unknown --format '%s'\n", O.OnlyFormat.c_str());
    return 2;
  }
  std::printf("total: accepted=%" PRIu64 " (exact=%" PRIu64
              " canonicalized=%" PRIu64 ") rejected=%" PRIu64
              " salvage=[accept=%" PRIu64 " holed=%" PRIu64
              " reject=%" PRIu64 "] failures=%" PRIu64 "\n",
              Total.Accepted, Total.AcceptedExact, Total.Canonicalized,
              Total.Rejected, Total.SalvageAccepted, Total.SalvageHoled,
              Total.SalvageRejected, Total.Failures);
  return Ok ? 0 : 1;
}
