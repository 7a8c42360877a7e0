//===- codegen/GenEngine.cpp - generated parsers as in-process Engines ----===//
//
// Part of the IPG reproduction of "Interval Parsing Grammars for File Format
// Parsing" (PLDI 2023). MIT license.
//
//===----------------------------------------------------------------------===//

#include "codegen/GenEngine.h"
#include "codegen/CppEmitter.h"
#include "runtime/Env.h"
#include "support/GenRuntime.h"

#include <atomic>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <fstream>
#include <sstream>

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
       "void ipg_mod_set_depth_limit(void *P, long long Limit) {\n"
       "  static_cast<ipgmod::Parser *>(P)->setDepthLimit(Limit);\n"
       "}\n"
       "int ipg_mod_parse(void *P, const unsigned char *Data,\n"
       "                  unsigned long long Len, const void **Root) {\n"
       "  ipgmod::NodePtr Out = nullptr;\n"
       "  if (!static_cast<ipgmod::Parser *>(P)->parse(\n"
       "          Data, static_cast<size_t>(Len), Out))\n"
       "    return 0;\n"
       "  *Root = Out;\n"
       "  return 1;\n"
       "}\n"
       "void ipg_mod_visit(const void *Root, const void *Vis) {\n"
       "  ipg_rt::visitTree(static_cast<const ipg_rt::Node *>(Root),\n"
       "                    *static_cast<const ipg_rt::TreeVisitorC *>(Vis));\n"
       "}\n"
       "void ipg_mod_stats(void *P, unsigned long long *Out) {\n"
       "  auto *Q = static_cast<ipgmod::Parser *>(P);\n"
       "  Out[0] = Q->frozenNodeCount();\n"
       "  Out[1] = Q->memoHits();\n"
       "  Out[2] = Q->memoMisses();\n"
       "  Out[3] = Q->nodeCount();\n"
       "  Out[4] = static_cast<unsigned long long>(Q->peakDepth());\n"
       "  // Failure diagnostics: name-table id + 1 (0 = none recorded)\n"
       "  // and the absolute byte offset of the failing window.\n"
       "  Out[5] = Q->failNameId() >= 0\n"
       "               ? static_cast<unsigned long long>(Q->failNameId() + 1)\n"
       "               : 0;\n"
       "  Out[6] = static_cast<unsigned long long>(Q->failOff());\n"
       "}\n"
       "unsigned ipg_mod_num_names() {\n"
       "  return static_cast<unsigned>(sizeof(ipgmod::Names) /\n"
       "                               sizeof(ipgmod::Names[0]));\n"
       "}\n"
       "const char *ipg_mod_name(unsigned Id) { return ipgmod::Names[Id]; }\n"
       "} // extern \"C\"\n";
  return S;
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

  CppEmitterOptions EOpts;
  EOpts.Engine = Opts;
  Expected<std::string> Src = emitCppParser(G, "ipgmod", EOpts);
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
                    " -o " + M->SoPath + " " + CppPath;
  if (!Config.ExtraCompileArgs.empty())
    Cmd += " " + Config.ExtraCompileArgs;
  Cmd += " > " + LogPath + " 2>&1";
  if (std::system(Cmd.c_str()) != 0)
    return Ret::failure("generated-parser compile failed:\n" + Cmd + "\n" +
                        readFileTrunc(LogPath));

  M->Handle = ::dlopen(M->SoPath.c_str(), RTLD_NOW | RTLD_LOCAL);
  if (!M->Handle) {
    const char *E = ::dlerror();
    return Ret::failure(std::string("dlopen failed: ") + (E ? E : "?"));
  }

  auto Sym = [&](const char *Name) { return ::dlsym(M->Handle, Name); };
  M->Create = reinterpret_cast<void *(*)()>(Sym("ipg_mod_create"));
  M->Destroy = reinterpret_cast<void (*)(void *)>(Sym("ipg_mod_destroy"));
  M->SetDepthLimit = reinterpret_cast<void (*)(void *, long long)>(
      Sym("ipg_mod_set_depth_limit"));
  M->Parse =
      reinterpret_cast<int (*)(void *, const unsigned char *,
                               unsigned long long, const void **)>(
          Sym("ipg_mod_parse"));
  M->Visit = reinterpret_cast<void (*)(const void *, const void *)>(
      Sym("ipg_mod_visit"));
  M->Stats = reinterpret_cast<void (*)(void *, unsigned long long *)>(
      Sym("ipg_mod_stats"));
  M->NumNames = reinterpret_cast<unsigned (*)()>(Sym("ipg_mod_num_names"));
  M->NameOf =
      reinterpret_cast<const char *(*)(unsigned)>(Sym("ipg_mod_name"));
  if (!M->Create || !M->Destroy || !M->SetDepthLimit || !M->Parse ||
      !M->Visit || !M->Stats || !M->NumNames || !M->NameOf)
    return Ret::failure("module is missing an ipg_mod_ entry point");
  return Ret(std::move(M));
}

GenModule::~GenModule() {
  if (Handle)
    ::dlclose(Handle);
  if (OwnsDir && !Dir.empty())
    std::system(("rm -rf " + Dir).c_str());
}

//===----------------------------------------------------------------------===//
// GenEngine: per-thread instance + visitor tree rebuild
//===----------------------------------------------------------------------===//

/// One open node/array during the visitor rebuild. The inner vectors
/// keep their capacity when the frame is reused at the same depth.
struct GenEngine::Frame {
  Symbol Name = InvalidSymbol;
  RuleId Rule = InvalidRuleId;
  int64_t Shift = 0;
  bool Blackbox = false;
  bool IsArray = false;
  std::vector<EnvSlot> Slots;
  std::vector<uint32_t> Kids;
  std::vector<uint32_t> KidTerms;
};

GenEngine::GenEngine(std::shared_ptr<GenModule> Module, const Grammar &G)
    : Module(std::move(Module)), G(G) {
  Parser = this->Module->Create();
  Pool = new TreeStore::Recycler();
  // Resolve the module's name table against the grammar's interner once.
  // Every emitted name originates from this grammar, so a miss means the
  // module and grammar do not belong together; record InvalidSymbol and
  // fail the first conversion that touches it.
  unsigned N = this->Module->NumNames();
  IdToSym.reserve(N);
  for (unsigned I = 0; I < N; ++I)
    IdToSym.push_back(G.interner().lookup(this->Module->NameOf(I)));
}

GenEngine::~GenEngine() {
  if (Parser)
    Module->Destroy(Parser);
  // Same recycler teardown as the interpreter (InterpState::~InterpState).
  TreeStore::Recycler *P = Pool;
  P->OwnerAlive = false;
  TreeStore *Parked = P->Returned;
  P->Returned = nullptr;
  bool DestroyedAny = Cur || Parked;
  if (Cur)
    TreeStore::destroy(Cur);
  if (Parked)
    TreeStore::destroy(Parked);
  if (!DestroyedAny && P->LiveStores == 0)
    delete P;
}

bool GenEngine::adoptStore(TreeStore *Store) {
  if (!Store)
    return false;
  if (Cur || Pool->Returned)
    return false;
  Store->bindRecycler(Pool);
  Store->reset();
  Pool->Returned = Store;
  return true;
}

GenEngine::Frame &GenEngine::pushFrame() {
  if (Depth == Frames.size())
    Frames.emplace_back();
  Frame &F = Frames[Depth++];
  F.Slots.clear();
  F.Kids.clear();
  F.KidTerms.clear();
  F.Shift = 0;
  F.Blackbox = false;
  F.IsArray = false;
  return F;
}

void GenEngine::appendChild(uint32_t Id) {
  if (Depth == 0) {
    RootId = Id;
    HaveRoot = true;
    return;
  }
  Frame &F = Frames[Depth - 1];
  // Term indices are sequential child ordinals: the module tree does not
  // carry grammar term positions, and nothing that reads a converted
  // tree (canonical dump, attribute queries) consults them.
  F.KidTerms.push_back(static_cast<uint32_t>(F.Kids.size()));
  F.Kids.push_back(Id);
}

void GenEngine::cbEndNode(void *User) {
  GenEngine *E = static_cast<GenEngine *>(User);
  if (!E->ConvError.empty())
    return;
  Frame &F = E->Frames[--E->Depth];
  uint32_t Id = E->Cur->makeNodeFromSlots(
      F.Name, F.Rule, F.Slots.data(), static_cast<uint32_t>(F.Slots.size()),
      F.Kids.data(), F.KidTerms.data(), static_cast<uint32_t>(F.Kids.size()));
  if (F.Shift != 0)
    Id = E->Cur->makeShifted(Id, F.Shift, E->G.symStart(), E->G.symEnd());
  E->appendChild(Id);
}

void GenEngine::cbBeginArray(void *User, unsigned ElemNameId,
                             unsigned NumElems) {
  GenEngine *E = static_cast<GenEngine *>(User);
  if (!E->ConvError.empty())
    return;
  bool ParentBb = E->Depth > 0 && E->Frames[E->Depth - 1].Blackbox;
  Frame &F = E->pushFrame();
  F.IsArray = true;
  F.Blackbox = ParentBb;
  F.Kids.reserve(NumElems);
  Symbol S = ElemNameId < E->IdToSym.size() ? E->IdToSym[ElemNameId]
                                            : InvalidSymbol;
  if (S == InvalidSymbol) {
    E->ConvError = "module name id not in the grammar interner";
    return;
  }
  F.Name = S;
}

void GenEngine::cbEndArray(void *User) {
  GenEngine *E = static_cast<GenEngine *>(User);
  if (!E->ConvError.empty())
    return;
  Frame &F = E->Frames[--E->Depth];
  uint32_t Id = E->Cur->makeArray(F.Name, F.Kids.data(),
                                  static_cast<uint32_t>(F.Kids.size()));
  E->appendChild(Id);
}

void GenEngine::cbLeaf(void *User, const unsigned char *Data,
                       unsigned long long Len, long long Off, int Opaque) {
  GenEngine *E = static_cast<GenEngine *>(User);
  if (!E->ConvError.empty())
    return;
  bool UnderBb = E->Depth > 0 && E->Frames[E->Depth - 1].Blackbox;
  uint32_t Id;
  if (UnderBb) {
    // Blackbox-decoded bytes live in the module's arena, which dies with
    // that Parser's next parse — copy them into the host store.
    Id = E->Cur->makeLeafCopy(Data, static_cast<size_t>(Len), Off);
  } else {
    // Ordinary leaves alias the input buffer the caller passed to
    // parse(): the module was handed the very same pointer.
    Id = E->Cur->makeLeaf(Data, static_cast<size_t>(Len), Off, Opaque != 0);
  }
  E->appendChild(Id);
}

Expected<TreePtr> GenEngine::parse(ByteSpan In) {
  // Reset at entry so early failures never leave the previous parse's
  // stats visible (same contract as Interp::parse).
  Stats = EngineStats();

  if (!Cur && Pool->Returned) {
    Cur = Pool->Returned;
    Pool->Returned = nullptr;
  }
  if (Cur) {
    Cur->reset();
    Stats.StoreRecycled = true;
  } else {
    Cur = new TreeStore(Pool);
  }
  Input = In;

  const void *Root = nullptr;
  int Ok = Module->Parse(Parser, In.data(),
                         static_cast<unsigned long long>(In.size()), &Root);
  unsigned long long S[7] = {0, 0, 0, 0, 0, 0, 0};
  Module->Stats(Parser, S);
  Stats.NodesCreated = static_cast<size_t>(S[0]);
  Stats.MemoHits = static_cast<size_t>(S[1]);
  Stats.MemoMisses = static_cast<size_t>(S[2]);
  Stats.PeakDepth = static_cast<size_t>(S[4]);
  // Failure diagnostics (slot 5 is the module name id + 1, 0 = none):
  // translate the module's name-table id back to a grammar Symbol so
  // FailRule compares equal across engines.
  if (S[5] != 0) {
    unsigned NameId = static_cast<unsigned>(S[5] - 1);
    Stats.FailRule =
        NameId < IdToSym.size() ? IdToSym[NameId] : InvalidSymbol;
    Stats.FailOffset = static_cast<int64_t>(S[6]);
  }
  // TermsExecuted stays 0: only the host engines count terms.
  if (!Ok) {
    Stats.ArenaBytesUsed = Cur->arenaBytesUsed();
    return Expected<TreePtr>::failure(
        "generated parser rejected the input");
  }

  Depth = 0;
  HaveRoot = false;
  ConvError.clear();

  ipg_rt::TreeVisitorC V;
  V.User = this;
  V.BeginNode = [](void *U, unsigned NameId, long long Shift, int IsBb,
                   const ipg_rt::AttrSlot *Slots, unsigned NumSlots) {
    GenEngine *E = static_cast<GenEngine *>(U);
    if (!E->ConvError.empty())
      return;
    Frame &F = E->pushFrame();
    Symbol Nm = NameId < E->IdToSym.size() ? E->IdToSym[NameId]
                                           : InvalidSymbol;
    if (Nm == InvalidSymbol) {
      E->ConvError = "module name id not in the grammar interner";
      return;
    }
    F.Name = Nm;
    F.Rule = E->G.findGlobal(Nm); // InvalidRuleId for local rules
    F.Shift = Shift;
    F.Blackbox = IsBb != 0;
    F.Slots.reserve(NumSlots);
    for (unsigned I = 0; I < NumSlots; ++I) {
      Symbol K = Slots[I].Id < E->IdToSym.size() ? E->IdToSym[Slots[I].Id]
                                                 : InvalidSymbol;
      if (K == InvalidSymbol) {
        E->ConvError = "module attribute id not in the grammar interner";
        return;
      }
      F.Slots.push_back(EnvSlot{K, Slots[I].V});
    }
  };
  V.EndNode = &GenEngine::cbEndNode;
  V.BeginArray = &GenEngine::cbBeginArray;
  V.EndArray = &GenEngine::cbEndArray;
  V.Leaf = &GenEngine::cbLeaf;

  Module->Visit(Root, &V);

  if (!ConvError.empty())
    return Expected<TreePtr>::failure("tree conversion failed: " +
                                      ConvError);
  if (!HaveRoot)
    return Expected<TreePtr>::failure(
        "tree conversion produced no root node");

  Stats.ArenaBytesUsed = Cur->arenaBytesUsed();
  // Generated parsers are Strict-only (makeEngine rejects Salvage), so a
  // successful parse is always a hole-free Accept.
  Stats.ParseVerdict = Verdict::Accept;
  TreeStore *Owned = Cur;
  Cur = nullptr;
  return Expected<TreePtr>(TreePtr(Owned, Owned->node(RootId)));
}
