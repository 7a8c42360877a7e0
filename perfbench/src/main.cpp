//===- perfbench/src/main.cpp - the repository benchmark ------------------===//
//
// Part of the IPG reproduction of "Interval Parsing Grammars for File Format
// Parsing" (PLDI 2023). MIT license.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Drives ParseService end to end in a closed loop and, when traced,
/// replays the same request stream layer by layer. See perfbench/README.md
/// for the workloads, the metrics and what each one should move.
///
/// Usage:
///   ipg_perfbench --workload <name> --seed <n> --seconds <s> --trace <0|1>
///                 [--state-dir <dir>] [--build-id <id>] [--self-test]
///
/// One run:
///   1. builds the seeded input pool and records its traffic;
///   2. runs the oracle's known-answer checks on every pool item and the
///      oracle self-test (planted faults must be caught);
///   3. sets the service up several times (create + warm-up batch) and
///      keeps the last one; setup_s is the median;
///   4. sends every pool item through the service once, untimed, and
///      checks each tree against the oracle;
///   5. measures the closed loop for --seconds (trace 1: half untraced,
///      half traced, to report the tracing overhead);
///   6. trace 1 only: times grammar load, lowering, engine construction
///      and module compile, and replays the pool on directly owned engines
///      (VM, printer, generated parser) with spans and counters.
/// The last line of standard output is one JSON object with the metrics.
///
//===----------------------------------------------------------------------===//

#include "Oracle.h"
#include "Trace.h"
#include "Traffic.h"

#include "analysis/AttributeCheck.h"
#include "codegen/GenEngine.h"
#include "formats/FormatRegistry.h"
#include "frontend/Parser.h"
#include "lower/LIR.h"
#include "runtime/Engine.h"
#include "serialize/Printer.h"
#include "service/ParseService.h"

#include <sched.h>
#include <sys/resource.h>
#include <unistd.h>

#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <deque>
#include <filesystem>
#include <fstream>
#include <future>
#include <map>
#include <sstream>
#include <string>
#include <vector>

using namespace ipg;
using namespace ipg::perfbench;

namespace {

struct Args {
  std::string Workload;
  uint64_t Seed = 1;
  double Seconds = 10;
  bool Trace = false;
  std::string StateDir = ".bench_build/state";
  std::string BuildId = "dev";
  bool SelfTestOnly = false;
};

bool parseArgs(int Argc, char **Argv, Args &A) {
  for (int I = 1; I < Argc; ++I) {
    std::string K = Argv[I];
    if (K == "--self-test") {
      A.SelfTestOnly = true;
      continue;
    }
    if (I + 1 >= Argc)
      return false;
    std::string V = Argv[++I];
    if (K == "--workload")
      A.Workload = V;
    else if (K == "--seed")
      A.Seed = std::strtoull(V.c_str(), nullptr, 10);
    else if (K == "--seconds")
      A.Seconds = std::atof(V.c_str());
    else if (K == "--trace")
      A.Trace = V == "1";
    else if (K == "--state-dir")
      A.StateDir = V;
    else if (K == "--build-id")
      A.BuildId = V;
    else
      return false;
  }
  return !A.Workload.empty() && A.Seconds > 0;
}

double cpuSeconds() {
  struct rusage RU;
  getrusage(RUSAGE_SELF, &RU);
  return static_cast<double>(RU.ru_utime.tv_sec + RU.ru_stime.tv_sec) +
         static_cast<double>(RU.ru_utime.tv_usec + RU.ru_stime.tv_usec) / 1e6;
}

double peakRssMb() {
  struct rusage RU;
  getrusage(RUSAGE_SELF, &RU);
  return static_cast<double>(RU.ru_maxrss) / 1024.0; // KiB on Linux
}

double usSince(uint64_t StartNs) {
  return static_cast<double>(nowNs() - StartNs) / 1e3;
}

/// Metric name -> (value, unit), in insertion order.
class Metrics {
public:
  void set(const std::string &Name, double Value, const std::string &Unit) {
    Entries.push_back({Name, Value, Unit});
  }

  std::string json() const {
    std::string S = "{";
    for (size_t I = 0; I < Entries.size(); ++I) {
      char Buf[64];
      double V = std::isfinite(Entries[I].Value) ? Entries[I].Value : 0.0;
      std::snprintf(Buf, sizeof(Buf), "%.17g", V);
      S += (I ? ", \"" : "\"") + Entries[I].Name + "\": {\"value\": " + Buf +
           ", \"unit\": \"" + Entries[I].Unit + "\"}";
    }
    return S + "}";
  }

  void table() const {
    for (const auto &E : Entries)
      std::printf("  %-34s %16.6g %s\n", E.Name.c_str(), E.Value,
                  E.Unit.c_str());
  }

private:
  struct Entry {
    std::string Name;
    double Value;
    std::string Unit;
  };
  std::vector<Entry> Entries;
};

ParseServiceOptions serviceOptions(const Workload &W) {
  ParseServiceOptions O;
  O.Workers = W.Workers;
  O.Mode = W.Mode;
  O.Engine = W.Engine;
  return O;
}

/// ParseService::create plus a warm-up batch that reaches every format
/// on every worker (engines are built lazily on first use). The batch
/// repeats each format's smallest pool input, so its cost does not depend
/// on the seed's draw.
Expected<std::unique_ptr<ParseService>>
setUpService(const Workload &W, const std::vector<PoolItem> &Pool) {
  auto Svc = ParseService::create(W.Formats, serviceOptions(W));
  if (!Svc)
    return Svc;
  std::map<std::string, const PoolItem *> Smallest;
  for (const PoolItem &It : Pool) {
    const PoolItem *&S = Smallest[It.Format];
    if (!S || It.Input->size() < S->Input->size())
      S = &It;
  }
  std::vector<ParseRequest> Warm;
  for (const auto &[Format, It] : Smallest)
    for (unsigned I = 0; I < 4 * W.Workers; ++I)
      Warm.push_back(ParseRequest{Format, It->Input});
  for (auto &F : (*Svc)->submitBatch(std::move(Warm)))
    F.get();
  return Svc;
}

/// The CPUs in \p Set, in ascending order.
std::vector<int> cpusOf(const cpu_set_t &Set) {
  std::vector<int> Cpus;
  for (int C = 0; C < CPU_SETSIZE; ++C)
    if (CPU_ISSET(C, &Set))
      Cpus.push_back(C);
  return Cpus;
}

/// Restricts the calling thread to \p Cpu.
void pinSelf(int Cpu) {
  cpu_set_t Set;
  CPU_ZERO(&Set);
  CPU_SET(Cpu, &Set);
  (void)sched_setaffinity(0, sizeof(Set), &Set);
}

/// Moves the service's workers and the client thread to other CPUs at
/// each slice of the measured window. On a shared host a neighbour slows
/// one core at a time, for seconds to minutes; a worker the scheduler
/// leaves on that core would see only its slow phase. Thread J (the
/// workers, then the client) goes to CPU (Slice + J) mod N, so the slices
/// cover every CPU the process may use and the best slices (see
/// summarize) come from undisturbed cores. Each thread has a CPU of its
/// own, so every slice hands requests between threads the same way. The
/// client gets its CPU set back on destruction.
class ThreadPlacement {
public:
  /// Collects the process's threads (the service's workers, once it is
  /// created, and the caller) and the CPUs the caller may run on. Pins
  /// nothing when there are fewer CPUs than threads.
  ThreadPlacement() {
    if (sched_getaffinity(0, sizeof(Original), &Original) != 0)
      return;
    Cpus = cpusOf(Original);
    pid_t Self = gettid();
    std::error_code EC;
    for (const auto &E :
         std::filesystem::directory_iterator("/proc/self/task", EC)) {
      pid_t T = static_cast<pid_t>(std::atoi(E.path().filename().c_str()));
      if (T > 0 && T != Self)
        Threads.push_back(T);
    }
    std::sort(Threads.begin(), Threads.end());
    Threads.push_back(Self);
    if (Cpus.size() < Threads.size())
      Threads.clear();
  }
  ~ThreadPlacement() {
    if (!Threads.empty())
      (void)sched_setaffinity(0, sizeof(Original), &Original);
  }
  ThreadPlacement(const ThreadPlacement &) = delete;
  ThreadPlacement &operator=(const ThreadPlacement &) = delete;

  /// Places the threads for slice number \p Slice.
  void place(size_t Slice) const {
    for (size_t J = 0; J < Threads.size(); ++J) {
      cpu_set_t Set;
      CPU_ZERO(&Set);
      CPU_SET(Cpus[(Slice + J) % Cpus.size()], &Set);
      (void)sched_setaffinity(Threads[J], sizeof(Set), &Set);
    }
  }

  size_t cpus() const { return Threads.empty() ? 0 : Cpus.size(); }

private:
  cpu_set_t Original;
  std::vector<int> Cpus;
  std::vector<pid_t> Threads;
};

/// One slice of the measured window.
struct Slice {
  uint64_t Bytes = 0;
  size_t Done = 0;
  double WallS = 0;
  double CpuS = 0;
  Histogram Lat; ///< client side: submit() to result in hand

  double mbPerS() const { return static_cast<double>(Bytes) / 1e6 / WallS; }
};

/// What the closed loop measured, slice by slice.
struct Window {
  size_t Attempted = 0;
  size_t Failed = 0;
  size_t Recovered = 0;
  uint64_t Allocs = 0;
  std::vector<Slice> Slices;
  // Traced windows only, one entry per request.
  std::vector<double> LatUs;   ///< client side
  std::vector<double> SvcUs;   ///< ParseResult::latencyUs
  std::vector<uint32_t> Items; ///< pool index
  std::string FirstFailure;
};

/// The reported figures of a window. Each one is computed over the fifth
/// of the slices that score best on it: throughput and requests/s over
/// the fastest slices, CPU per MB over the cheapest, each latency
/// quantile over the slices where that quantile was lowest (pooling their
/// samples). On a shared machine, slow phases come from outside the
/// process: parsing code runs 1.5-2x slower while a neighbour loads the
/// core, for seconds at a time, and a core stalled by the host puts
/// milliseconds into the tail. The best fifth of many short slices leaves
/// both out as long as a fifth of the window ran undisturbed, while a
/// slowdown of the program itself worsens every slice and still shows.
struct Summary {
  double MbS = 0;
  double ReqS = 0;
  double CpuMsPerMb = 0;
  double P50Us = 0;
  double P99Us = 0;
  uint64_t Samples = 0; ///< latency samples behind P99Us
  size_t SlicesUsed = 0;
};

/// Latency samples a figure rests on at least, so that its p99 has ten
/// samples beyond it.
constexpr uint64_t MinSamples = 1000;

/// The best fifth of \p Win's slices by \p Score (lower is better),
/// merged into one; the next best are added while the merge holds fewer
/// than MinSamples latency samples (pdf-deep slices hold 64 each).
template <class ScoreFn>
Slice bestFifth(const Window &Win, ScoreFn Score, size_t &Used) {
  std::vector<std::pair<double, const Slice *>> Ranked;
  for (const Slice &S : Win.Slices)
    Ranked.push_back({Score(S), &S});
  std::sort(Ranked.begin(), Ranked.end(),
            [](const auto &A, const auto &B) { return A.first < B.first; });
  size_t Fifth = (Ranked.size() + 4) / 5;
  Slice All;
  for (Used = 0; Used < Ranked.size() &&
                 (Used < Fifth || All.Lat.count() < MinSamples);
       ++Used) {
    const Slice *S = Ranked[Used].second;
    All.Bytes += S->Bytes;
    All.Done += S->Done;
    All.WallS += S->WallS;
    All.CpuS += S->CpuS;
    All.Lat.merge(S->Lat);
  }
  return All;
}

Summary summarize(const Window &Win) {
  Summary Sum;
  size_t Used = 0;
  Slice Fast =
      bestFifth(Win, [](const Slice &S) { return -S.mbPerS(); }, Used);
  Sum.MbS = Fast.mbPerS();
  Sum.ReqS = static_cast<double>(Fast.Done) / Fast.WallS;
  Slice Cheap = bestFifth(
      Win,
      [](const Slice &S) { return S.CpuS / static_cast<double>(S.Bytes); },
      Used);
  Sum.CpuMsPerMb = Cheap.CpuS * 1e3 / (static_cast<double>(Cheap.Bytes) / 1e6);
  Sum.P50Us =
      bestFifth(
          Win, [](const Slice &S) { return S.Lat.quantileUs(0.50); }, Used)
          .Lat.quantileUs(0.50);
  Slice Tail = bestFifth(
      Win, [](const Slice &S) { return S.Lat.quantileUs(0.99); }, Used);
  Sum.P99Us = Tail.Lat.quantileUs(0.99);
  Sum.Samples = Tail.Lat.count();
  Sum.SlicesUsed = Used;
  return Sum;
}

struct Checked {
  const std::vector<PoolItem> &Pool;
  const std::vector<Expectation> &Exp;
  const std::vector<Outcome> &SvcExp; ///< the service's expected outcome
  const std::vector<char> &ItemBad;   ///< item failed an untimed check
};

/// One slice of the closed loop: one client thread keeps W.InFlight
/// requests queued, drawing them from \p Stream, and waits for them in
/// submission order. A slice is a whole number of passes over the pool,
/// the first pass boundary after \p MinSeconds: every slice does the same
/// work, so slices differ in speed only because the machine did.
void runSlice(ParseService &Svc, const Workload &W, Oracle &O,
              const Checked &C, double MinSeconds, RequestStream &Stream,
              SpanLog &Spans, uint64_t &NextReq, Window &Win) {
  struct Pending {
    std::future<ParseResult> F;
    uint64_t T0;
    uint64_t Req;
    uint32_t Item;
    uint32_t Span;
  };
  Slice Sl;
  std::deque<Pending> Q;
  uint64_t A0 = allocCount();
  double Cpu0 = cpuSeconds();
  uint64_t Start = nowNs();
  uint64_t MinEnd = Start + static_cast<uint64_t>(MinSeconds * 1e9);
  uint64_t Last = Start;
  for (;;) {
    while (Q.size() < W.InFlight &&
           !(Stream.atPassEnd() && nowNs() >= MinEnd)) {
      uint32_t I = Stream.next();
      const PoolItem &It = C.Pool[I];
      uint64_t Req = NextReq++;
      uint64_t T0 = nowNs();
      auto F = Svc.submit(ParseRequest{It.Format, It.Input});
      uint32_t S = Spans.add("client.request", Req, T0, 0);
      Spans.add("service.submit", Req, T0, nowNs(), S);
      Q.push_back(Pending{std::move(F), T0, Req, I, S});
    }
    if (Q.empty())
      break;
    Pending P = std::move(Q.front());
    Q.pop_front();
    uint64_t W0 = nowNs();
    ParseResult R = P.F.get();
    uint64_t W1 = nowNs();
    Spans.add("client.wait", P.Req, W0, W1, P.Span);
    const PoolItem &It = C.Pool[P.Item];
    bool PrintOk = false;
    std::vector<uint8_t> Printed;
    if (W.ClientPrints && R.ok()) {
      auto Pr = O.print(It, *R.root());
      if ((PrintOk = static_cast<bool>(Pr)))
        Printed = std::move(Pr->Bytes);
      Spans.add("serialize.print", P.Req, W1, nowNs(), P.Span);
    }
    uint64_t T1 = Last = nowNs();
    Spans.close(P.Span, T1);

    // Untimed from here: O(1) outcome check plus the printed bytes.
    std::string Why = checkServiceOutcome(Outcome::of(R.ok(), R.stats()),
                                          C.SvcExp[P.Item]);
    const Expectation &E = C.Exp[P.Item];
    if (Why.empty() && W.ClientPrints && R.ok()) {
      if (PrintOk != E.PrintOk)
        Why = PrintOk ? "print succeeded, want a failure" : "print failed";
      else if (PrintOk)
        Why = checkReprint(Printed, E.Print);
    }
    if (Why.empty() && C.ItemBad[P.Item])
      Why = "input failed the oracle";
    if (!Why.empty()) {
      ++Win.Failed;
      if (Win.FirstFailure.empty())
        Win.FirstFailure = It.Kind + ": " + Why;
    }
    if (R.ok() &&
        (R.verdict() == Verdict::Accept || R.verdict() == Verdict::Salvage))
      ++Win.Recovered;
    ++Sl.Done;
    Sl.Bytes += It.Input->size();
    Sl.Lat.add(T1 - P.T0);
    if (Spans.enabled()) {
      Win.LatUs.push_back(static_cast<double>(T1 - P.T0) / 1e3);
      Win.SvcUs.push_back(static_cast<double>(R.latencyUs()));
      Win.Items.push_back(P.Item);
    }
  }
  Sl.WallS = static_cast<double>(Last - Start) / 1e9;
  Sl.CpuS = cpuSeconds() - Cpu0;
  Win.Attempted += Sl.Done;
  Win.Allocs += allocCount() - A0;
  Win.Slices.push_back(std::move(Sl));
}

/// Per-request facts of the single-thread replay (one pool pass).
struct ReplayRow {
  double ParseUs = 0; ///< min over the measured passes
  double HandoffUs = 0;
  double PrintUs = -1; ///< -1: nothing printed
  size_t PrintBytes = 0;
  size_t GapBytes = 0;
  size_t TreeSize = 0;
  EngineStats S;
  uint64_t Allocs = 0;
};

/// The counters that must repeat exactly, rendered for comparison.
std::string counterDigest(const std::vector<ReplayRow> &Rows) {
  std::ostringstream OS;
  for (const ReplayRow &R : Rows)
    OS << R.S.TermsExecuted << ',' << R.S.NodesCreated << ','
       << R.S.MemoHits << ',' << R.S.MemoMisses << ',' << R.S.HolesInTree
       << ',' << static_cast<int>(R.S.ParseVerdict) << ',' << R.Allocs
       << ';';
  return OS.str();
}

/// Replays the pool on the directly owned engines \p Es (one per format):
/// a warm-up pass, then \p Passes measured passes. Each parse is followed
/// by the service worker's handoff (detach -> releaseStore -> adoptStore);
/// with a \p Printer, the first measured pass also prints every tree.
/// Returns the first measured pass's rows with each request's minimum
/// times over all measured passes; \p Drift receives a description when
/// two measured passes disagree on a counter.
std::vector<ReplayRow> replay(const std::vector<PoolItem> &Pool,
                              std::map<std::string, formats::FormatEngine> &Es,
                              const Oracle *Printer, int Passes,
                              SpanLog &Spans, uint64_t &NextReq,
                              std::string &Drift) {
  std::vector<ReplayRow> Best(Pool.size());
  std::string FirstDigest;
  for (int Pass = 0; Pass <= Passes; ++Pass) {
    std::vector<ReplayRow> Rows(Pool.size());
    for (size_t I = 0; I < Pool.size(); ++I) {
      const PoolItem &It = Pool[I];
      formats::FormatEngine &FE = Es.at(It.Format);
      ReplayRow &Row = Rows[I];
      uint64_t Req = NextReq++;
      uint64_t A0 = allocCount();
      uint64_t T0 = nowNs();
      Expected<TreePtr> T = FE->parse(It.Input->span());
      uint64_t T1 = nowNs();
      uint64_t A1 = allocCount();
      Row.S = FE->stats();
      Row.ParseUs = static_cast<double>(T1 - T0) / 1e3;
      uint32_t Root = Spans.add("replay.request", Req, T0, 0);
      Spans.add(FE->kind() == EngineKind::Generated ? "codegen.parse"
                                                    : "vm.parse",
                Req, T0, T1, Root);
      uint64_t A2 = allocCount();
      if (T) {
        Row.TreeSize = treeSize(**T);
        if (Printer && Pass == 1) {
          uint64_t P0 = nowNs();
          auto P = Printer->print(It, **T);
          uint64_t P1 = nowNs();
          Spans.add("serialize.print", Req, P0, P1, Root);
          if (P) {
            Row.PrintUs = static_cast<double>(P1 - P0) / 1e3;
            Row.PrintBytes = P->Bytes.size();
            Row.GapBytes = P->GapBytes;
          }
        }
        A2 = allocCount();
        uint64_t H0 = nowNs();
        FrozenTree F = (*T).detach();
        uint64_t H1 = nowNs();
        TreeStore *St = F.releaseStore();
        uint64_t H2 = nowNs();
        if (!FE->adoptStore(St))
          TreeStore::destroy(St);
        uint64_t H3 = nowNs();
        Spans.add("runtime.detach", Req, H0, H1, Root);
        Spans.add("runtime.release", Req, H1, H2, Root);
        Spans.add("runtime.adopt", Req, H2, H3, Root);
        Row.HandoffUs = static_cast<double>(H3 - H0) / 1e3;
      }
      Row.Allocs = (A1 - A0) + (allocCount() - A2);
      Spans.close(Root, nowNs());
    }
    if (Pass == 0)
      continue; // warm-up: engines, memo tables and stores reach size
    std::string D = counterDigest(Rows);
    if (Pass == 1) {
      FirstDigest = D;
      Best = Rows;
      continue;
    }
    if (D != FirstDigest && Drift.empty())
      Drift = "replay counters differ between passes 1 and " +
              std::to_string(Pass);
    for (size_t I = 0; I < Rows.size(); ++I) {
      Best[I].ParseUs = std::min(Best[I].ParseUs, Rows[I].ParseUs);
      Best[I].HandoffUs = std::min(Best[I].HandoffUs, Rows[I].HandoffUs);
    }
  }
  return Best;
}

/// Median over \p Reps runs of \p Fn's duration in microseconds.
template <class Fn> double medianUs(int Reps, Fn &&F) {
  std::vector<double> V;
  for (int I = 0; I < Reps; ++I) {
    uint64_t T0 = nowNs();
    F();
    V.push_back(usSince(T0));
  }
  return median(V);
}

size_t loweredTerms(const lir::Module &M) {
  size_t N = 0;
  for (const lir::RuleL &R : M.Rules)
    for (const lir::AltL &A : R.Alts)
      N += A.Exec.size();
  return N;
}

void emitResult(bool Correct, size_t Attempted, size_t Failed,
                const Metrics &M) {
  std::printf("{\"correct\": %s, \"attempted\": %zu, \"failed\": %zu, "
              "\"metrics\": %s}\n",
              Correct ? "true" : "false", Attempted, Failed,
              M.json().c_str());
  std::fflush(stdout);
}

} // namespace

int main(int Argc, char **Argv) {
  Args A;
  if (!parseArgs(Argc, Argv, A)) {
    std::fprintf(stderr,
                 "usage: ipg_perfbench --workload <name> --seed <n> "
                 "--seconds <s> --trace <0|1> [--state-dir <dir>] "
                 "[--build-id <id>] [--self-test]\n");
    return 2;
  }
  const Workload *WP = findWorkload(A.Workload);
  if (!WP) {
    std::string Known;
    for (const std::string &N : workloadNames())
      Known += " " + N;
    std::fprintf(stderr, "error: unknown workload '%s' (known:%s)\n",
                 A.Workload.c_str(), Known.c_str());
    return 2;
  }
  const Workload &W = *WP;
  std::printf("workload %s, seed %llu, %g s, trace %d, engine %s, %u "
              "worker(s), %u in flight\n",
              W.Name.c_str(), static_cast<unsigned long long>(A.Seed),
              A.Seconds, A.Trace ? 1 : 0, engineKindName(W.Mode), W.Workers,
              W.InFlight);

  // 1. Traffic.
  std::vector<PoolItem> Pool = buildPool(W, A.Seed);
  std::printf("%s\n", describePool(Pool).c_str());

  // 2. Oracle and its self-test.
  auto OE = Oracle::create(W);
  if (!OE) {
    std::fprintf(stderr, "error: oracle: %s\n", OE.message().c_str());
    return 1;
  }
  Oracle &O = **OE;
  std::string Log;
  bool SelfTestOk = O.selfTest(Pool, Log);
  std::printf("%s\n", Log.c_str());
  if (A.SelfTestOnly)
    return SelfTestOk ? 0 : 1;

  std::vector<Expectation> Exp;
  Exp.reserve(Pool.size());
  std::vector<char> ItemBad(Pool.size(), 0);
  size_t OracleFailures = 0;
  for (size_t I = 0; I < Pool.size(); ++I) {
    Exp.push_back(O.expect(Pool[I]));
    if (!Exp.back().Failure.empty()) {
      ItemBad[I] = 1;
      if (OracleFailures++ < 5)
        std::printf("oracle: %s\n", Exp.back().Failure.c_str());
    }
  }

  SpanLog Spans(A.Trace);
  uint64_t NextReq = 1;
  std::printf("peak rss after oracle: %.1f MB\n", peakRssMb());

  // 3. Set-up: at least three times, and for cheap set-ups until a
  // second has been spent (at most 1000 times), so the median spans a
  // second of the host's ups and downs; keep the last service. Each
  // set-up runs on one CPU, taken in turn: the new service's workers
  // inherit the client's CPU, so handing them work never waits for an
  // idle CPU to wake, a cost that varies with the host's load.
  std::vector<double> SetupS;
  std::unique_ptr<ParseService> Svc;
  cpu_set_t AllCpus;
  bool PinSetup = sched_getaffinity(0, sizeof(AllCpus), &AllCpus) == 0;
  std::vector<int> SetupCpus = cpusOf(AllCpus);
  uint64_t SetupStart = nowNs();
  for (int Rep = 0;
       Rep < 3 || (Rep < 1000 && nowNs() - SetupStart < 1000000000ull);
       ++Rep) {
    Svc.reset();
    if (PinSetup)
      pinSelf(SetupCpus[static_cast<size_t>(Rep) % SetupCpus.size()]);
    uint64_t T0 = nowNs();
    auto S = setUpService(W, Pool);
    uint64_t T1 = nowNs();
    if (!S) {
      std::fprintf(stderr, "error: service: %s\n", S.message().c_str());
      return 1;
    }
    Svc = std::move(*S);
    Spans.add("service.create", 0, T0, T1);
    SetupS.push_back(static_cast<double>(T1 - T0) / 1e9);
  }
  if (PinSetup)
    (void)sched_setaffinity(0, sizeof(AllCpus), &AllCpus);

  std::printf("peak rss after set-up: %.1f MB\n", peakRssMb());

  // 4. Untimed verification pass: every pool item once through the
  // service; each tree must be the oracle VM's tree.
  std::vector<Outcome> SvcExp(Pool.size());
  size_t VerifyFailures = 0;
  for (size_t Lo = 0; Lo < Pool.size(); Lo += W.InFlight) {
    size_t Hi = std::min(Pool.size(), Lo + W.InFlight);
    std::vector<ParseRequest> Batch;
    for (size_t I = Lo; I < Hi; ++I)
      Batch.push_back(ParseRequest{Pool[I].Format, Pool[I].Input});
    auto Fs = Svc->submitBatch(std::move(Batch));
    for (size_t I = Lo; I < Hi; ++I) {
      ParseResult R = Fs[I - Lo].get();
      const Expectation &E = Exp[I];
      Outcome Got = Outcome::of(R.ok(), R.stats());
      // Generated parsers count no terms and build their own node
      // totals: for them only the verdict must match the VM's.
      Outcome Want = E.Out;
      if (W.Mode == EngineKind::Generated) {
        Want = Got;
        Want.Ok = E.Out.Ok;
        Want.V = E.Out.V;
      }
      std::string Why = checkServiceOutcome(Got, Want);
      if (Why.empty() && R.ok())
        Why = checkSameTree(
            canonicalHash(*R.root(), O.grammar(Pool[I].Format)), E.TreeHash);
      if (Why.empty() && W.ClientPrints && R.ok()) {
        auto Pr = O.print(Pool[I], *R.root());
        if (static_cast<bool>(Pr) != E.PrintOk)
          Why = "service tree print outcome differs from the oracle's";
        else if (Pr)
          Why = checkReprint(Pr->Bytes, E.Print);
      }
      SvcExp[I] = Got;
      if (!Why.empty()) {
        ItemBad[I] = 1;
        if (VerifyFailures++ < 5)
          std::printf("verify: %s/s%u: %s\n", Pool[I].Kind.c_str(),
                      Pool[I].Scale, Why.c_str());
      }
    }
  }

  std::printf("peak rss after verification: %.1f MB\n", peakRssMb());

  // 5. The measured closed loop, in slices of at least a quarter second,
  // each with the workers on other CPUs; a traced run alternates
  // untraced and traced slices on the same CPUs so both see the same
  // machine.
  Checked C{Pool, Exp, SvcExp, ItemBad};
  constexpr double SliceS = 0.25;
  RequestStream Stream(Pool.size(), A.Seed);
  SpanLog Off(false);
  Window Win, TWin;
  {
    ThreadPlacement Placement;
    std::printf("threads rotate over %zu CPUs\n", Placement.cpus());
    for (uint64_t End = nowNs() + static_cast<uint64_t>(A.Seconds * 1e9);
         nowNs() < End;) {
      Placement.place(Win.Slices.size());
      runSlice(*Svc, W, O, C, SliceS, Stream, Off, NextReq, Win);
      if (A.Trace) {
        CountAllocs = true;
        runSlice(*Svc, W, O, C, SliceS, Stream, Spans, NextReq, TWin);
        CountAllocs = false;
      }
    }
  }
  double RssMb = peakRssMb();
  Svc.reset();

  size_t Attempted = Win.Attempted + TWin.Attempted;
  size_t Failed = Win.Failed + TWin.Failed;
  if (!Win.FirstFailure.empty() || !TWin.FirstFailure.empty())
    std::printf("window: first failure: %s\n",
                (Win.FirstFailure.empty() ? TWin : Win).FirstFailure.c_str());

  Summary Sum = summarize(Win);
  Metrics E2E;
  E2E.set("throughput_mb_s", Sum.MbS, "MB/s");
  E2E.set("requests_per_s", Sum.ReqS, "1/s");
  E2E.set("latency_p50_us", Sum.P50Us, "us");
  E2E.set("latency_p99_us", Sum.P99Us, "us");
  E2E.set("recovered_fraction",
          static_cast<double>(Win.Recovered) /
              static_cast<double>(std::max<size_t>(Win.Attempted, 1)),
          "ratio");
  E2E.set("setup_s", median(SetupS), "s");
  E2E.set("peak_rss_mb", RssMb, "MB");
  E2E.set("cpu_ms_per_mb", Sum.CpuMsPerMb, "ms/MB");
  std::printf("end to end: %zu attempted, %zu failed (failed_fraction "
              "%.6g); each figure over its best fifth of slices; the p99 "
              "over %zu of %zu slices, %llu latency samples\n",
              Win.Attempted, Win.Failed,
              static_cast<double>(Win.Failed) /
                  static_cast<double>(std::max<size_t>(Win.Attempted, 1)),
              Sum.SlicesUsed, Win.Slices.size(),
              static_cast<unsigned long long>(Sum.Samples));
  std::printf("  slice MB/s:");
  for (const Slice &S : Win.Slices)
    std::printf(" %.4g", S.mbPerS());
  std::printf("\n");
  E2E.table();

  bool Correct = SelfTestOk && OracleFailures == 0 &&
                 VerifyFailures == 0 && Failed == 0 && Attempted > 0;
  if (!A.Trace) {
    emitResult(Correct, Attempted, Failed, E2E);
    return 0;
  }

  // 6. Traced layer run.
  Metrics L;
  {
    // Set-up layers, summed over the workload's formats (median of 5).
    double ParseUs = 0, LoadUs = 0, LowerUs = 0, ConstructUs = 0;
    size_t IrTerms = 0;
    BlackboxRegistry BB = formats::standardBlackboxes();
    for (const std::string &Name : W.Formats) {
      const char *Text = nullptr;
      for (const formats::FormatInfo &F : formats::allFormats())
        if (F.Name == Name)
          Text = F.GrammarText;
      uint64_t T0 = nowNs();
      ParseUs += medianUs(5, [&] { (void)parseGrammarText(Text); });
      Spans.add("frontend.parse_grammar", 0, T0, nowNs());
      T0 = nowNs();
      LoadUs += medianUs(5, [&] { (void)loadGrammar(Text); });
      Spans.add("analysis.load_grammar", 0, T0, nowNs());
      auto Load = loadGrammar(Text);
      T0 = nowNs();
      LowerUs += medianUs(5, [&] {
        lir::Module M = lir::lower(Load->G);
        (void)lir::verify(M);
      });
      Spans.add("lower.lower", 0, T0, nowNs());
      IrTerms += loweredTerms(lir::lower(Load->G));
      T0 = nowNs();
      ConstructUs += medianUs(5, [&] {
        (void)makeEngine(EngineKind::Vm, Load->G, &BB, W.Engine);
      });
      Spans.add("vm.construct", 0, T0, nowNs());
    }
    L.set("frontend.parse_grammar_us", ParseUs, "us");
    L.set("analysis.check_us", LoadUs - ParseUs, "us");
    L.set("lower.lower_us", LowerUs, "us");
    L.set("lower.ir_terms", static_cast<double>(IrTerms), "count");
    L.set("vm.construct_us", ConstructUs, "us");
    L.set("service.create_us", median(SetupS) * 1e6, "us");
  }

  CountAllocs = true;
  std::string Drift;
  std::vector<ReplayRow> Vm;
  {
    std::map<std::string, formats::FormatEngine> Es;
    for (const std::string &Name : W.Formats) {
      auto FE = formats::makeFormatEngine(Name, EngineKind::Vm, W.Engine);
      if (!FE) {
        std::fprintf(stderr, "error: replay: %s\n", FE.message().c_str());
        return 1;
      }
      Es.emplace(Name, std::move(*FE));
    }
    Vm = replay(Pool, Es, &O, 3, Spans, NextReq, Drift);
  }
  std::vector<ReplayRow> Gen;
  double CompileS = 0;
  {
    EngineOptions GOpts = W.Engine;
    GOpts.Recovery = RecoveryPolicy::Strict;
    GOpts.UseMemo = true;
    std::map<std::string, formats::FormatEngine> Es;
    for (const std::string &Name : W.Formats) {
      formats::FormatEngine FE;
      auto Load = formats::loadFormatGrammar(Name);
      if (!Load) {
        std::fprintf(stderr, "error: %s\n", Load.message().c_str());
        return 1;
      }
      FE.Load = std::make_shared<LoadResult>(std::move(*Load));
      uint64_t T0 = nowNs();
      auto M = GenModule::compile(FE.Load->G, GOpts,
                                  formats::genModuleConfig(Name));
      uint64_t T1 = nowNs();
      if (!M) {
        std::fprintf(stderr, "error: compile: %s\n", M.message().c_str());
        return 1;
      }
      Spans.add("codegen.compile", 0, T0, T1);
      CompileS += static_cast<double>(T1 - T0) / 1e9;
      FE.E = std::make_unique<GenEngine>(std::move(*M), FE.Load->G);
      Es.emplace(Name, std::move(FE));
    }
    Gen = replay(Pool, Es, nullptr, 2, Spans, NextReq, Drift);
  }

  // Cross-run drift: the replay counters of this (build, workload, seed)
  // must match the previous run's.
  {
    std::string Digest = counterDigest(Vm);
    std::string Path = A.StateDir + "/counters-" + A.BuildId + "-" + W.Name +
                       "-" + std::to_string(A.Seed) + ".txt";
    std::ifstream In(Path);
    std::string Prev;
    if (In && std::getline(In, Prev)) {
      if (Prev != Digest && Drift.empty())
        Drift = "replay counters differ from the previous run of this "
                "build and seed";
    } else {
      std::ofstream(Path) << Digest << "\n";
    }
  }
  if (!Drift.empty())
    std::printf("counter drift: %s\n", Drift.c_str());

  // VM layer.
  {
    std::vector<double> ParseUs, HandoffUs, PrintUs;
    double ParseNs = 0, Bytes = 0, PrintNs = 0, PrintBytes = 0, Gaps = 0;
    double Terms = 0, Hits = 0, Misses = 0, Nodes = 0, Arena = 0, Holes = 0;
    double TreeNodes = 0, Recycled = 0, Allocs = 0;
    size_t PeakDepth = 0;
    size_t Verdicts[4] = {0, 0, 0, 0};
    for (size_t I = 0; I < Vm.size(); ++I) {
      const ReplayRow &R = Vm[I];
      ParseUs.push_back(R.ParseUs);
      ParseNs += R.ParseUs * 1e3;
      Bytes += static_cast<double>(Pool[I].Input->size());
      Terms += static_cast<double>(R.S.TermsExecuted);
      Hits += static_cast<double>(R.S.MemoHits);
      Misses += static_cast<double>(R.S.MemoMisses);
      Nodes += static_cast<double>(R.S.NodesCreated);
      Arena += static_cast<double>(R.S.ArenaBytesUsed);
      Holes += static_cast<double>(R.S.HolesInTree);
      TreeNodes += static_cast<double>(R.TreeSize);
      Recycled += R.S.StoreRecycled ? 1 : 0;
      Allocs += static_cast<double>(R.Allocs);
      PeakDepth = std::max(PeakDepth, R.S.PeakDepth);
      ++Verdicts[static_cast<int>(R.S.ParseVerdict)];
      if (R.TreeSize)
        HandoffUs.push_back(R.HandoffUs);
      if (R.PrintUs >= 0) {
        PrintUs.push_back(R.PrintUs);
        PrintNs += R.PrintUs * 1e3;
        PrintBytes += static_cast<double>(R.PrintBytes);
        Gaps += static_cast<double>(R.GapBytes);
      }
    }
    double N = static_cast<double>(Vm.size());
    double NP = static_cast<double>(std::max<size_t>(PrintUs.size(), 1));
    L.set("vm.parse_p50_us", quantile(ParseUs, 0.50), "us");
    L.set("vm.parse_p99_us", quantile(ParseUs, 0.99), "us");
    L.set("vm.parse_ns_per_byte", ParseNs / Bytes, "ns/B");
    L.set("vm.terms_per_request", Terms / N, "count");
    L.set("vm.memo_hits_per_request", Hits / N, "count");
    L.set("vm.memo_misses_per_request", Misses / N, "count");
    L.set("vm.memo_hit_ratio", Hits + Misses > 0 ? Hits / (Hits + Misses) : 0,
          "ratio");
    L.set("vm.peak_depth_max", static_cast<double>(PeakDepth), "count");
    L.set("vm.nodes_per_request", Nodes / N, "count");
    L.set("vm.arena_kb_per_request", Arena / 1024 / N, "KB");
    L.set("vm.useful_node_ratio", Nodes > 0 ? TreeNodes / Nodes : 0, "ratio");
    L.set("vm.holes_per_request", Holes / N, "count");
    L.set("vm.verdict_accept", static_cast<double>(Verdicts[0]), "count");
    L.set("vm.verdict_salvage", static_cast<double>(Verdicts[1]), "count");
    L.set("vm.verdict_reject", static_cast<double>(Verdicts[2]), "count");
    L.set("vm.verdict_timeout", static_cast<double>(Verdicts[3]), "count");
    double Handoff = 0;
    for (double V : HandoffUs)
      Handoff += V;
    L.set("runtime.handoff_us",
          Handoff / static_cast<double>(std::max<size_t>(HandoffUs.size(), 1)),
          "us");
    L.set("runtime.store_recycled_ratio", Recycled / N, "ratio");
    L.set("runtime.allocs_per_request", Allocs / N, "count");
    L.set("serialize.print_us", median(PrintUs), "us");
    L.set("serialize.print_ns_per_byte",
          PrintBytes > 0 ? PrintNs / PrintBytes : 0, "ns/B");
    L.set("serialize.gap_bytes_per_request", Gaps / NP, "count");

    // Service hop: the traced window's service latency against the
    // direct parse time of the same requests.
    std::vector<double> Direct, Lag;
    for (size_t I = 0; I < TWin.Items.size(); ++I) {
      Direct.push_back(Vm[TWin.Items[I]].ParseUs);
      Lag.push_back(TWin.LatUs[I] - TWin.SvcUs[I]);
    }
    if (W.Mode == EngineKind::Generated)
      for (size_t I = 0; I < TWin.Items.size(); ++I)
        Direct[I] = Gen[TWin.Items[I]].ParseUs;
    L.set("service.hop_us", median(TWin.SvcUs) - median(Direct), "us");
    L.set("service.consumer_lag_us", median(Lag), "us");
    L.set("service.allocs_per_request",
          static_cast<double>(TWin.Allocs) /
              static_cast<double>(std::max<size_t>(TWin.Attempted, 1)),
          "count");
  }

  // Generated-parser layer.
  {
    std::vector<double> ParseUs;
    double ParseNs = 0, Bytes = 0, Nodes = 0;
    for (size_t I = 0; I < Gen.size(); ++I) {
      ParseUs.push_back(Gen[I].ParseUs);
      ParseNs += Gen[I].ParseUs * 1e3;
      Bytes += static_cast<double>(Pool[I].Input->size());
      Nodes += static_cast<double>(Gen[I].S.NodesCreated);
    }
    L.set("codegen.compile_s", CompileS, "s");
    L.set("codegen.parse_p50_us", quantile(ParseUs, 0.50), "us");
    L.set("codegen.parse_ns_per_byte", ParseNs / Bytes, "ns/B");
    L.set("codegen.nodes_per_request",
          Nodes / static_cast<double>(Gen.size()), "count");
  }

  // Tracing overhead: traced slices minus the interleaved untraced ones.
  Summary TSum = summarize(TWin);
  L.set("trace.throughput_delta_mb_s", TSum.MbS - Sum.MbS, "MB/s");
  L.set("trace.latency_p50_delta_us", TSum.P50Us - Sum.P50Us, "us");
  L.set("trace.latency_p99_delta_us", TSum.P99Us - Sum.P99Us, "us");

  std::string SpanPath = A.StateDir + "/spans-" + W.Name + "-" +
                         std::to_string(A.Seed) + ".jsonl";
  if (!Spans.write(SpanPath))
    std::fprintf(stderr, "warning: cannot write %s\n", SpanPath.c_str());
  std::printf("per layer (%zu spans in %s):\n", Spans.size(),
              SpanPath.c_str());
  L.table();
  emitResult(Correct && Drift.empty(), Attempted, Failed, L);
  return 0;
}
