//===- codegen/GenEngine.cpp - generated parsers as in-process Engines ----===//
//
// Part of the IPG reproduction of "Interval Parsing Grammars for File Format
// Parsing" (PLDI 2023). MIT license.
//
//===----------------------------------------------------------------------===//

#include "codegen/GenEngine.h"
#include "codegen/CppEmitter.h"
#include "support/GenRuntime.h"

#include <atomic>
#include <cstdio>
#include <cstdlib>
#include <filesystem>
#include <fstream>
#include <sstream>
#include <system_error>

#include <dlfcn.h>
#include <sys/stat.h>
#include <unistd.h>

using namespace ipg;

//===----------------------------------------------------------------------===//
// GenModule: emit + compile + dlopen
//===----------------------------------------------------------------------===//

namespace {

/// The fixed `extern "C"` surface appended after the generated parser
/// (and after any blackbox bridge). RTLD_LOCAL keeps the names private
/// to each module, so the fixed spelling never collides across modules.
/// `Names` has internal linkage but the epilogue lives in the same
/// translation unit, so qualified access is legal.
std::string abiEpilogue(bool RegisterBlackboxes) {
  std::string S;
  S += "\n// ---- ipg_mod_ C ABI (see codegen/GenEngine.h) ----\n"
       "extern \"C\" {\n"
       "void *ipg_mod_create() {\n"
       "  auto *P = new ipgmod::Parser();\n";
  if (RegisterBlackboxes)
    S += "  ipgRegisterBlackboxes(*P);\n";
  S += "  return P;\n"
       "}\n"
       "void ipg_mod_destroy(void *P) {\n"
       "  delete static_cast<ipgmod::Parser *>(P);\n"
       "}\n"
       "unsigned long long ipg_mod_layout() { return ipg_rt::layoutHash(); }\n"
       "void ipg_mod_set_depth_limit(void *P, long long Limit) {\n"
       "  static_cast<ipgmod::Parser *>(P)->setDepthLimit(Limit);\n"
       "}\n"
       "int ipg_mod_parse(void *P, const unsigned char *Data,\n"
       "                  unsigned long long Len, void *Store,\n"
       "                  const void **Root) {\n"
       "  ipgmod::NodePtr Out = nullptr;\n"
       "  if (!static_cast<ipgmod::Parser *>(P)->parse(\n"
       "          Data, static_cast<size_t>(Len),\n"
       "          *static_cast<ipg_rt::NodeStore *>(Store), Out))\n"
       "    return 0;\n"
       "  *Root = static_cast<const ipg_rt::ParseTree *>(Out);\n"
       "  return 1;\n"
       "}\n"
       "void ipg_mod_stats(void *P, unsigned long long *Out) {\n"
       "  auto *Q = static_cast<ipgmod::Parser *>(P);\n"
       "  Out[0] = Q->frozenNodeCount();\n"
       "  Out[1] = Q->memoHits();\n"
       "  Out[2] = Q->memoMisses();\n"
       "  Out[3] = static_cast<unsigned long long>(Q->peakDepth());\n"
       "  // Failure diagnostics: the failing rule's Symbol (0 = none\n"
       "  // recorded) and the absolute byte offset of its window.\n"
       "  Out[4] = Q->failSymbol();\n"
       "  Out[5] = static_cast<unsigned long long>(Q->failOff());\n"
       "}\n"
       "unsigned ipg_mod_num_names() {\n"
       "  return static_cast<unsigned>(sizeof(ipgmod::Names) /\n"
       "                               sizeof(ipgmod::Names[0]));\n"
       "}\n"
       "const char *ipg_mod_name(unsigned Id) { return ipgmod::Names[Id]; }\n"
       "} // extern \"C\"\n";
  return S;
}

/// \p S single-quoted for the shell that runs the compile command.
std::string shellQuote(const std::string &S) {
  std::string Q = "'";
  for (char C : S)
    Q += C == '\'' ? std::string("'\\''") : std::string(1, C);
  return Q + "'";
}

std::string uniqueWorkDir() {
  const char *T = std::getenv("TMPDIR");
  std::string Base = (T && *T) ? T : "/tmp";
  static std::atomic<unsigned> Counter{0};
  return Base + "/ipg_mod_" + std::to_string(::getpid()) + "_" +
         std::to_string(Counter.fetch_add(1, std::memory_order_relaxed));
}

std::string readFileTrunc(const std::string &Path, size_t Max = 4000) {
  std::ifstream In(Path, std::ios::binary);
  std::ostringstream SS;
  SS << In.rdbuf();
  std::string S = SS.str();
  if (S.size() > Max)
    S.resize(Max);
  return S;
}

} // namespace

bool GenModule::hostCompilerAvailable() {
  static int Avail = -1;
  if (Avail < 0)
    Avail = std::system("c++ --version > /dev/null 2>&1") == 0 ? 1 : 0;
  return Avail == 1;
}

Expected<std::shared_ptr<GenModule>>
GenModule::compile(const Grammar &G, const EngineOptions &Opts,
                   const GenModuleConfig &Config) {
  using Ret = Expected<std::shared_ptr<GenModule>>;
  if (!hostCompilerAvailable())
    return Ret::failure("no host C++ compiler on PATH; the generated "
                        "engine cannot be built (use EngineKind::Interp)");
  if (Config.RegisterBlackboxes && Config.BridgeSource.empty())
    return Ret::failure("RegisterBlackboxes set without a BridgeSource");

  Expected<std::string> Src = emitCppParser(G, "ipgmod", Opts);
  if (!Src)
    return Ret::failure(Src.message());

  std::shared_ptr<GenModule> M(new GenModule());
  if (Config.WorkDir.empty()) {
    M->Dir = uniqueWorkDir();
    M->OwnsDir = true;
  } else {
    M->Dir = Config.WorkDir;
  }
  ::mkdir(M->Dir.c_str(), 0755); // may already exist; compile fails loudly

  std::string CppPath = M->Dir + "/parser.cpp";
  M->SoPath = M->Dir + "/libparser.so";
  {
    std::ofstream Out(CppPath, std::ios::binary | std::ios::trunc);
    Out << *Src << Config.BridgeSource
        << abiEpilogue(Config.RegisterBlackboxes);
    if (!Out)
      return Ret::failure("cannot write " + CppPath);
  }

  // Match the host build's sanitizer so instrumented and plain code never
  // mix inside one process (the same policy as tests/CodegenTestHarness.h).
  std::string San;
#ifdef IPG_SANITIZE_THREAD_BUILD
  San = " -g -fsanitize=thread";
#elif defined(IPG_SANITIZE_BUILD)
  San = " -g -fsanitize=address,undefined -fno-sanitize-recover=all";
#endif
  std::string LogPath = M->Dir + "/compile.log";
  std::string Cmd = "c++ -std=" + Config.Std + " -O2 -fPIC -shared" + San +
                    " -o " + shellQuote(M->SoPath) + " " + shellQuote(CppPath);
  if (!Config.ExtraCompileArgs.empty())
    Cmd += " " + Config.ExtraCompileArgs;
  Cmd += " > " + shellQuote(LogPath) + " 2>&1";
  if (std::system(Cmd.c_str()) != 0)
    return Ret::failure("generated-parser compile failed:\n" + Cmd + "\n" +
                        readFileTrunc(LogPath));

  M->Handle = ::dlopen(M->SoPath.c_str(), RTLD_NOW | RTLD_LOCAL);
  if (!M->Handle) {
    const char *E = ::dlerror();
    return Ret::failure(std::string("dlopen failed: ") + (E ? E : "?"));
  }

  auto Sym = [&](const char *Name) { return ::dlsym(M->Handle, Name); };
  auto *Layout =
      reinterpret_cast<unsigned long long (*)()>(Sym("ipg_mod_layout"));
  M->Create = reinterpret_cast<void *(*)()>(Sym("ipg_mod_create"));
  M->Destroy = reinterpret_cast<void (*)(void *)>(Sym("ipg_mod_destroy"));
  M->SetDepthLimit = reinterpret_cast<void (*)(void *, long long)>(
      Sym("ipg_mod_set_depth_limit"));
  M->Parse = reinterpret_cast<int (*)(void *, const unsigned char *,
                                      unsigned long long, void *,
                                      const void **)>(Sym("ipg_mod_parse"));
  M->Stats = reinterpret_cast<void (*)(void *, unsigned long long *)>(
      Sym("ipg_mod_stats"));
  M->NumNames = reinterpret_cast<unsigned (*)()>(Sym("ipg_mod_num_names"));
  M->NameOf =
      reinterpret_cast<const char *(*)(unsigned)>(Sym("ipg_mod_name"));
  if (!Layout || !M->Create || !M->Destroy || !M->SetDepthLimit ||
      !M->Parse || !M->Stats || !M->NumNames || !M->NameOf)
    return Ret::failure("module is missing an ipg_mod_ entry point");
  // The module builds into the host's stores and the host reads its
  // trees in place: both must lay the tree types out identically.
  if (Layout() != ipg_rt::layoutHash())
    return Ret::failure("module tree layout differs from the host's "
                        "(compiled by an incompatible c++?)");
  return Ret(std::move(M));
}

GenModule::~GenModule() {
  if (Handle)
    ::dlclose(Handle);
  if (OwnsDir && !Dir.empty()) {
    std::error_code EC; // best effort: a leftover work dir is harmless
    std::filesystem::remove_all(Dir, EC);
  }
}

//===----------------------------------------------------------------------===//
// GenEngine: per-thread instance building into the host's store
//===----------------------------------------------------------------------===//

GenEngine::GenEngine(std::shared_ptr<GenModule> Module, const Grammar &G)
    : Module(std::move(Module)), G(G) {
  Parser = this->Module->Create();
  // Trees carry Symbols, so the module must number names as this
  // grammar's interner does (it may since have interned more).
  const StringInterner &In = G.interner();
  unsigned N = this->Module->NumNames();
  NamesMatch = N <= In.size();
  for (unsigned I = 0; NamesMatch && I < N; ++I)
    NamesMatch = In.name(I) == this->Module->NameOf(I);
}

GenEngine::~GenEngine() {
  if (Parser)
    Module->Destroy(Parser);
}

Expected<TreePtr> GenEngine::parse(ByteSpan In) {
  // Reset at entry so early failures never leave the previous parse's
  // stats visible (same contract as Interp::parse).
  Stats = EngineStats();
  if (!NamesMatch)
    return Expected<TreePtr>::failure(
        "generated module's name table does not match the grammar");
  Stats.StoreRecycled = Stores.acquire();
  ipg_rt::NodeStore &Store = Stores.current();

  const void *Root = nullptr;
  int Ok = Module->Parse(Parser, In.data(),
                         static_cast<unsigned long long>(In.size()), &Store,
                         &Root);
  unsigned long long S[6] = {0, 0, 0, 0, 0, 0};
  Module->Stats(Parser, S);
  Stats.NodesCreated = static_cast<size_t>(S[0]);
  Stats.MemoHits = static_cast<size_t>(S[1]);
  Stats.MemoMisses = static_cast<size_t>(S[2]);
  Stats.PeakDepth = static_cast<size_t>(S[3]);
  if (S[4] != InvalidSymbol) {
    Stats.FailRule = static_cast<Symbol>(S[4]);
    Stats.FailOffset = static_cast<int64_t>(S[5]);
  }
  // TermsExecuted stays 0: only the host engines count terms.
  Stats.ArenaBytesUsed = Store.arenaBytesUsed();
  if (!Ok)
    return Expected<TreePtr>::failure(
        "generated parser rejected the input");
  // Generated parsers are Strict-only (makeEngine rejects Salvage), so a
  // successful parse is always a hole-free Accept.
  Stats.ParseVerdict = Verdict::Accept;
  return Expected<TreePtr>(
      Stores.take(static_cast<const ParseTree *>(Root)));
}
