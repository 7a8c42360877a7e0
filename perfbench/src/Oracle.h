//===- perfbench/src/Oracle.h - known-answer checks -------------*- C++ -*-===//
//
// Part of the IPG reproduction of "Interval Parsing Grammars for File Format
// Parsing" (PLDI 2023). MIT license.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The benchmark's correctness oracle. Its known answers come from a
/// directly owned bytecode VM per format, run outside the timed window:
///
///  - A valid input must Accept.
///  - On print-exact formats (zip, gif, elf, ipv4udp, dns) the VM tree
///    must reprint the input byte for byte; pe and pdf reprint with gaps
///    filled from the input.
///  - A damaged input under Salvage must never time out or fail with an
///    "internal:" error, and any tree must reprint the damaged bytes (a
///    zip whose mutated deflate stream re-encodes differently may instead
///    print a canonical form that is its own fixpoint).
///  - Salvage is additive: where a Strict engine accepts the damaged
///    input, Salvage must Accept with zero holes.
///
/// The service's answers are then held against these: every tree the
/// service returns in the untimed verification pass must have the VM
/// tree's canonical hash (for generated parsers this is the
/// generated-equals-VM check), and every request in the timed window must
/// repeat its item's verdict and work counters, an O(1) comparison.
///
/// Each check is a plain predicate returning the failure reason (empty on
/// success), so selfTest() can feed it planted wrong expectations and
/// prove that it fails.
///
//===----------------------------------------------------------------------===//

#ifndef IPG_PERFBENCH_ORACLE_H
#define IPG_PERFBENCH_ORACLE_H

#include "Traffic.h"

#include "analysis/AttributeCheck.h"
#include "runtime/Blackbox.h"
#include "runtime/Engine.h"
#include "runtime/ParseTree.h"
#include "serialize/Printer.h"

#include <cstdint>
#include <memory>
#include <string>
#include <vector>

namespace ipg::perfbench {

/// The outcome facts a request result carries that are cheap to compare.
struct Outcome {
  bool Ok = false;
  Verdict V = Verdict::Reject;
  size_t Terms = 0;
  size_t Nodes = 0;
  size_t MemoHits = 0;
  size_t MemoMisses = 0;
  size_t Holes = 0;

  static Outcome of(bool Ok, const EngineStats &S);
};

/// What a pool item must produce, computed by the oracle's VM.
struct Expectation {
  Outcome Out;
  uint64_t TreeHash = 0; ///< canonical hash of the VM tree (0: no tree)
  /// Whether printing the tree succeeds, and the bytes it must produce
  /// (filled for workloads whose client prints).
  bool PrintOk = false;
  std::vector<uint8_t> Print;
  /// Known-answer failure of the item itself (empty when it passed).
  std::string Failure;
};

/// Canonical structural hash of a tree: node names, (name, value)-sorted
/// attributes, array element names and sizes, leaf offset / length /
/// opacity / hole flag, in child order. Symbols hash by spelling, so trees
/// from separately loaded grammars compare equal.
uint64_t canonicalHash(const ParseTree &Root, const Grammar &G);

// The predicates. Each returns "" on success, else why the check failed.
std::string checkValidAccepts(const Outcome &O);
std::string checkReprint(const std::vector<uint8_t> &Printed,
                         const std::vector<uint8_t> &Want);
std::string checkSameTree(uint64_t Got, uint64_t Want);
std::string checkSalvageOutcome(Verdict V, const std::string &Error);
std::string checkSalvageAdditive(bool StrictAccepted, Verdict SalvageVerdict,
                                 size_t Holes);
std::string checkServiceOutcome(const Outcome &Got, const Outcome &Want);

/// Per-format VM engines and grammars for the oracle and the client's
/// printer. Engines are single-threaded: use an Oracle on one thread.
class Oracle {
public:
  static Expected<std::unique_ptr<Oracle>> create(const Workload &W);
  ~Oracle();

  /// Runs every known-answer check on \p It and records what the service
  /// must return for it.
  Expectation expect(const PoolItem &It);

  /// Prints \p Root (a tree of It.Format's grammar over It's bytes) under
  /// the workload's gap policy.
  Expected<serialize::PrintResult> print(const PoolItem &It,
                                         const ParseTree &Root) const;

  const Grammar &grammar(const std::string &Format) const;

  /// Plants one wrong expectation per check and confirms each is
  /// reported as a failure, and that the true expectation passes. Returns
  /// whether every case behaved; appends a summary to \p Log.
  bool selfTest(const std::vector<PoolItem> &Pool, std::string &Log);

private:
  struct PerFormat;
  Oracle() = default;
  PerFormat &at(const std::string &Format) const;

  BlackboxRegistry BB;
  std::vector<std::unique_ptr<PerFormat>> Formats;
};

} // namespace ipg::perfbench

#endif // IPG_PERFBENCH_ORACLE_H
