//===- bench/bench_codegen.cpp - interpreter vs generated parsers ---------===//
//
// Part of the IPG reproduction of "Interval Parsing Grammars for File Format
// Parsing" (PLDI 2023). MIT license.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The Fig.-12-style driver: for every non-blackbox format it emits the
/// generated parser (codegen/CppEmitter.cpp), compiles it with the host
/// C++ compiler, and runs it as a child process that times steady-state
/// parses of the same synthesized corpus the in-process engines are
/// measured on. BENCH_codegen.json (ipg-bench-v1 schema) then carries
/// three entries per format:
///
///   <format>/generated: input_bytes, reps, mean_us, bytes_per_sec,
///                       allocs_per_parse, nodes_per_parse (rule-success
///                       freezes, comparable to the interp entry's
///                       EngineStats::NodesCreated), memo_hits,
///                       memo_misses, tree_objects_per_parse
///   <format>/interp:    the same metrics from the in-process engine
///   <format>/vm:        the same metrics from the in-process bytecode
///                       VM (EngineKind::Vm) — the runtime-loadable
///                       middle ground the comparison exists to place
///                       between the act-stack interpreter and the
///                       compiled parser
///
/// Both sides count heap allocations by replacing global operator new
/// (the child embeds its own counter; this process uses BenchUtil.h's),
/// and both exclude the warmup parse that sizes pooled storage — so
/// allocs_per_parse is the steady-state figure the arena runtime drives
/// to 0. zip participates since generated parsers grew the blackbox
/// registration hook; its bench corpus is the stored-entry archive (the
/// zero-copy `raw` path — the deflate path is covered functionally by
/// tests/differential_test.cpp, and its MiniZlib decode cost would
/// swamp the parser comparison this driver exists for). Without a host
/// compiler the driver notes the skip and still writes the interpreter
/// entries, so the artifact exists in every environment.
///
/// Usage: bench_codegen [output.json] [reps]
///
//===----------------------------------------------------------------------===//

#define IPG_BENCH_COUNT_ALLOCS
#include "BenchUtil.h"

#include "codegen/CppEmitter.h"
#include "formats/FormatRegistry.h"
#include "runtime/Engine.h"

#include <cstddef>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <map>
#include <string>
#include <unistd.h>
#include <vector>

using namespace ipg;
using namespace ipg::bench;

namespace {

bool hostCompilerAvailable() {
  return std::system("c++ --version > /dev/null 2>&1") == 0;
}

/// The child's measurement main: parses argv[1] (argv[2] reps) through one
/// reusable gen::Parser, counting heap allocations with a replaced global
/// operator new, and prints `key=value` metric lines this driver collects.
const char *ChildMain = R"(
#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <new>

static unsigned long long GAllocs = 0;
void *operator new(std::size_t N) {
  ++GAllocs;
  if (void *P = std::malloc(N ? N : 1))
    return P;
  throw std::bad_alloc();
}
void *operator new[](std::size_t N) {
  ++GAllocs;
  if (void *P = std::malloc(N ? N : 1))
    return P;
  throw std::bad_alloc();
}
void operator delete(void *P) noexcept { std::free(P); }
void operator delete[](void *P) noexcept { std::free(P); }
void operator delete(void *P, std::size_t) noexcept { std::free(P); }
void operator delete[](void *P, std::size_t) noexcept { std::free(P); }

int main(int argc, char **argv) {
  if (argc < 3) return 3;
  std::ifstream In(argv[1], std::ios::binary);
  std::vector<uint8_t> Bytes((std::istreambuf_iterator<char>(In)),
                             std::istreambuf_iterator<char>());
  size_t Reps = std::strtoull(argv[2], nullptr, 10);
  if (Reps == 0) Reps = 1;

  gen::Parser P;
  gen::NodePtr Root = nullptr;
  // Warmup: proves the input parses and sizes the arena/frame pools and
  // memo table before the steady-state window.
  if (!P.parse(Bytes.data(), Bytes.size(), Root)) return 1;
  for (int W = 0; W < 4; ++W)
    if (!P.parse(Bytes.data(), Bytes.size(), Root)) return 1;
  // frozenNodeCount is the counter comparable to the engine's
  // EngineStats::NodesCreated (rule-success freezes only; memo hits do
  // not re-freeze on either side). nodeCount additionally includes
  // shifted views, arrays, leaves, and failed-alternative garbage.
  size_t Nodes = P.frozenNodeCount();
  size_t Objects = P.nodeCount();
  size_t MemoHits = P.memoHits(), MemoMisses = P.memoMisses();

  unsigned long long A0 = GAllocs;
  for (size_t K = 0; K < Reps; ++K)
    if (!P.parse(Bytes.data(), Bytes.size(), Root)) return 1;
  unsigned long long A1 = GAllocs;

  auto T0 = std::chrono::steady_clock::now();
  for (size_t K = 0; K < Reps; ++K)
    if (!P.parse(Bytes.data(), Bytes.size(), Root)) return 1;
  auto T1 = std::chrono::steady_clock::now();
  double TotalUs =
      std::chrono::duration<double, std::micro>(T1 - T0).count();

  std::printf("mean_us=%.6f\n", TotalUs / (double)Reps);
  std::printf("allocs_per_parse=%.6f\n", (double)(A1 - A0) / (double)Reps);
  std::printf("nodes_per_parse=%zu\n", Nodes);
  std::printf("memo_hits=%zu\n", MemoHits);
  std::printf("memo_misses=%zu\n", MemoMisses);
  std::printf("tree_objects_per_parse=%zu\n", Objects);
  return 0;
}
)";

/// Per-run scratch directory: PID-suffixed so concurrent runs (parallel
/// CI jobs, multiple users) cannot compile or measure each other's files.
std::string scratchDir(const std::string &Format) {
  return "/tmp/ipg_bench_codegen_" + std::to_string(getpid()) + "_" +
         Format;
}

/// Emits, writes, and compiles the generated parser for \p Format.
/// Returns the executable path, or "" with a note on failure.
std::string buildGenerated(const std::string &Format, const Grammar &G) {
  auto Code = emitCppParser(G, "gen");
  if (!Code) {
    std::fprintf(stderr, "error: %s: %s\n", Format.c_str(),
                 Code.message().c_str());
    return "";
  }
  std::string Dir = scratchDir(Format);
  if (std::system(("mkdir -p " + Dir).c_str()) != 0)
    return "";
  {
    std::ofstream Src(Dir + "/parser.cpp");
    Src << *Code << ChildMain;
    if (!Src) {
      std::fprintf(stderr, "error: %s: cannot write %s/parser.cpp\n",
                   Format.c_str(), Dir.c_str());
      return "";
    }
  }
  std::string Compile = "c++ -std=c++17 -O2 -o " + Dir + "/bench " + Dir +
                        "/parser.cpp 2> " + Dir + "/compile.log";
  if (std::system(Compile.c_str()) != 0) {
    std::fprintf(stderr, "error: %s: generated parser failed to compile "
                         "(see %s/compile.log)\n",
                 Format.c_str(), Dir.c_str());
    return "";
  }
  return Dir + "/bench";
}

/// One in-process engine measurement — shared by the interp and vm rows
/// so both columns get the identical warmup, allocation window, and
/// timing window the child process applies to the generated parser.
bool measureEngine(Engine &E, const std::string &Entry,
                   const std::vector<uint8_t> &Bytes, size_t Reps,
                   BenchReport &Report) {
  ByteSpan Image = ByteSpan::of(Bytes);
  double Size = static_cast<double>(Bytes.size());
  if (auto R = E.parse(Image); !R) {
    std::fprintf(stderr, "error: %s rejected its corpus input: %s\n",
                 Entry.c_str(), R.message().c_str());
    return false;
  }
  // A few more warmup parses: pooled storage (memo table, frame pool,
  // slot indexes, recycled store) converges to its fixed point over the
  // first handful of parses, and allocs_per_parse below is the
  // steady-state figure the arena runtime drives to 0.
  for (int W = 0; W < 4; ++W)
    if (auto Re = E.parse(Image); !Re) {
      std::fprintf(stderr, "error: %s failed a warmup re-parse: %s\n",
                   Entry.c_str(), Re.message().c_str());
      return false;
    }
  uint64_t A0 = allocCount();
  for (size_t K = 0; K < Reps; ++K)
    if (!E.parse(Image))
      std::abort();
  uint64_t A1 = allocCount();
  auto T = timeIt([&] { if (!E.parse(Image)) std::abort(); }, Reps);
  double Bps = T.MeanUs > 0 ? Size / (T.MeanUs * 1e-6) : 0;
  Report.add(Entry, "input_bytes", Size);
  Report.add(Entry, "reps", static_cast<double>(Reps));
  Report.add(Entry, "mean_us", T.MeanUs);
  Report.add(Entry, "bytes_per_sec", Bps);
  Report.add(Entry, "allocs_per_parse",
             static_cast<double>(A1 - A0) / static_cast<double>(Reps));
  Report.add(Entry, "nodes_per_parse",
             static_cast<double>(E.stats().NodesCreated));
  Report.add(Entry, "memo_hits", static_cast<double>(E.stats().MemoHits));
  Report.add(Entry, "memo_misses",
             static_cast<double>(E.stats().MemoMisses));
  std::printf("%-20s | %10zu | %10.2f | %12.2f | %10.1f\n", Entry.c_str(),
              Bytes.size(), T.MeanUs, Bps / 1e6,
              static_cast<double>(A1 - A0) / static_cast<double>(Reps));
  return true;
}

/// Runs the child and parses its `key=value` metric lines.
bool runGenerated(const std::string &Exe, const std::string &Format,
                  const std::vector<uint8_t> &Bytes, size_t Reps,
                  std::map<std::string, double> &Metrics) {
  std::string Dir = scratchDir(Format);
  {
    std::ofstream In(Dir + "/input.bin", std::ios::binary);
    In.write(reinterpret_cast<const char *>(Bytes.data()),
             static_cast<std::streamsize>(Bytes.size()));
    if (!In)
      return false;
  }
  std::string Cmd = Exe + " " + Dir + "/input.bin " + std::to_string(Reps);
  std::FILE *Pipe = popen(Cmd.c_str(), "r");
  if (!Pipe)
    return false;
  char Line[256];
  while (std::fgets(Line, sizeof(Line), Pipe)) {
    std::string S(Line);
    size_t Eq = S.find('=');
    if (Eq == std::string::npos)
      continue;
    Metrics[S.substr(0, Eq)] = std::strtod(S.c_str() + Eq + 1, nullptr);
  }
  return pclose(Pipe) == 0;
}

} // namespace

int main(int argc, char **argv) {
  std::string OutPath = benchJsonPath(argc, argv, "codegen");
  size_t Reps = 50;
  if (argc > 2)
    Reps = static_cast<size_t>(std::strtoull(argv[2], nullptr, 10));
  if (Reps == 0)
    Reps = 1;

  bool HaveCompiler = hostCompilerAvailable();
  if (!HaveCompiler)
    note("note: no host C++ compiler; emitting interpreter entries only");

  BenchReport Report("codegen");
  banner("Interpreter vs generated parsers (" + std::to_string(Reps) +
         " reps per case)");
  std::printf("%-20s | %10s | %10s | %12s | %10s\n", "case", "bytes",
              "mean us", "MB/s", "allocs");
  int Failures = 0;

  for (const formats::FormatInfo &FI : formats::allFormats()) {
    // zip's bench corpus is all stored entries, so neither side invokes
    // the inflate decoder; the factory binds the registry for hygiene
    // (and the generated child simply never reaches an unregistered
    // blackbox).
    auto FE = formats::makeFormatEngine(FI.Name, EngineKind::Interp);
    if (!FE) {
      std::fprintf(stderr, "error: %s: %s\n", FI.Name.c_str(),
                   FE.message().c_str());
      return 1;
    }
    auto VE = formats::makeFormatEngine(FI.Name, EngineKind::Vm);
    if (!VE) {
      std::fprintf(stderr, "error: %s (vm): %s\n", FI.Name.c_str(),
                   VE.message().c_str());
      return 1;
    }
    std::vector<uint8_t> Bytes = formats::sampleInput(FI.Name);
    double Size = static_cast<double>(Bytes.size());

    // In-process engines, measured exactly like bench_throughput.
    if (!measureEngine(**FE, FI.Name + "/interp", Bytes, Reps, Report))
      return 1;
    if (!measureEngine(**VE, FI.Name + "/vm", Bytes, Reps, Report))
      return 1;

    if (!HaveCompiler)
      continue;

    std::string Exe = buildGenerated(FI.Name, FE->Load->G);
    std::map<std::string, double> M;
    if (Exe.empty() || !runGenerated(Exe, FI.Name, Bytes, Reps, M)) {
      std::fprintf(stderr, "error: %s: generated-parser bench failed\n",
                   FI.Name.c_str());
      ++Failures;
      continue;
    }
    double MeanUs = M["mean_us"];
    double Bps = MeanUs > 0 ? Size / (MeanUs * 1e-6) : 0;
    std::string Entry = FI.Name + "/generated";
    Report.add(Entry, "input_bytes", Size);
    Report.add(Entry, "reps", static_cast<double>(Reps));
    Report.add(Entry, "mean_us", MeanUs);
    Report.add(Entry, "bytes_per_sec", Bps);
    Report.add(Entry, "allocs_per_parse", M["allocs_per_parse"]);
    Report.add(Entry, "nodes_per_parse", M["nodes_per_parse"]);
    Report.add(Entry, "memo_hits", M["memo_hits"]);
    Report.add(Entry, "memo_misses", M["memo_misses"]);
    Report.add(Entry, "tree_objects_per_parse", M["tree_objects_per_parse"]);
    std::printf("%-20s | %10zu | %10.2f | %12.2f | %10.1f\n", Entry.c_str(),
                Bytes.size(), MeanUs, Bps / 1e6, M["allocs_per_parse"]);
  }

  Report.add("process", "peak_rss_bytes",
             static_cast<double>(peakRssBytes()));
  if (!Report.writeFile(OutPath))
    return 1;
  return Failures == 0 ? 0 : 1;
}
