//===- perfbench/src/Traffic.h - seeded workloads and pools ---*- C++ -*-===//
//
// Part of the IPG reproduction of "Interval Parsing Grammars for File Format
// Parsing" (PLDI 2023). MIT license.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The workloads of the repository benchmark (perfbench/README.md) and the
/// seeded input pool each one cycles through. Every spec draw — scale,
/// xref refs per object, damage kind and offset, content seed, format order
/// — comes from the --seed value, so one seed always yields the same pool.
///
/// Draws are stratified: each (kind, scale[, damage]) cell of a workload
/// appears equally often and the seed shuffles the deck and fills in the
/// free parameters. Two seeds therefore give pools with the same shape and
/// different bytes, which keeps seed-to-seed spread of the end-to-end
/// metrics small without fixing the inputs.
///
//===----------------------------------------------------------------------===//

#ifndef IPG_PERFBENCH_TRAFFIC_H
#define IPG_PERFBENCH_TRAFFIC_H

#include "runtime/Engine.h"
#include "runtime/EngineOptions.h"
#include "service/InputSource.h"

#include <cstddef>
#include <cstdint>
#include <memory>
#include <string>
#include <vector>

namespace ipg::perfbench {

enum class Damage : uint8_t { None, Flip, Truncate, ZeroRun };

const char *damageName(Damage D);

/// One request body of the pool.
struct PoolItem {
  std::string Format; ///< registry name (zip, gif, ...)
  std::string Kind;   ///< traffic kind: format, or zip-stored / zip-deflate
  unsigned Scale = 1;
  Damage Dmg = Damage::None;
  size_t DamageOffset = 0;
  std::shared_ptr<InputSource> Input;
};

struct Workload {
  std::string Name;
  EngineKind Mode = EngineKind::Vm;
  unsigned Workers = 1;
  unsigned InFlight = 1;
  EngineOptions Engine;
  /// The client prints every returned tree with serialize::printTree
  /// before it counts the request as done.
  bool ClientPrints = false;
  /// Formats the service is created with (every format the pool uses).
  std::vector<std::string> Formats;
};

/// The workload named \p Name, or nullptr.
const Workload *findWorkload(const std::string &Name);

/// Names of every workload; BENCHMARK.json lists mixed-small and
/// damaged-salvage.
std::vector<std::string> workloadNames();

/// The seeded input pool of \p W.
std::vector<PoolItem> buildPool(const Workload &W, uint64_t Seed);

/// Human-readable traffic record: format mix, input-size quartiles and
/// total pool bytes.
std::string describePool(const std::vector<PoolItem> &Pool);

/// Whether the format's grammar covers every input byte with a leaf, so a
/// tree reprints the input under GapPolicy::Strict (pe and pdf leave gap
/// bytes; docs/grammar-syntax.md).
bool printExact(const std::string &Format);

/// splitmix64: the one generator behind every draw (deterministic across
/// platforms and standard libraries).
class Rng {
public:
  explicit Rng(uint64_t Seed) : State(Seed) {}
  uint64_t next();
  /// Uniform in [0, N); N > 0.
  uint64_t below(uint64_t N) { return next() % N; }

private:
  uint64_t State;
};

/// The closed loop's request order: the pool over and over, each pass in
/// a fresh seeded order, so that no single draw of neighbours (a small
/// input queued behind a large one) sets the latency figures.
class RequestStream {
public:
  RequestStream(size_t PoolSize, uint64_t Seed);
  /// Pool index of the next request.
  uint32_t next();
  /// Whether the current pass over the pool is complete.
  bool atPassEnd() const { return Pos == Order.size(); }

private:
  Rng R;
  std::vector<uint32_t> Order;
  size_t Pos;
};

} // namespace ipg::perfbench

#endif // IPG_PERFBENCH_TRAFFIC_H
