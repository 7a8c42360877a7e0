//===- codegen/GenEngine.h - generated parsers as in-process Engines -*- C++//
//
// Part of the IPG reproduction of "Interval Parsing Grammars for File Format
// Parsing" (PLDI 2023). MIT license.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Runs the output of the Section-7 parser generator behind the same
/// ipg::Engine interface the interpreter implements, so callers (the
/// differential harness, benches, ParseService workers) can swap engines
/// without caring which one is live.
///
/// Two classes split the expensive and the cheap halves:
///
///  - GenModule compiles the emitted source ONCE: it appends a small
///    `extern "C"` epilogue (fixed `ipg_mod_` symbol names), shells out to
///    the host `c++` for a `-shared -fPIC` object, and dlopens the result
///    with RTLD_LOCAL (so many modules coexist). A loaded module is
///    immutable — safe to share across threads via shared_ptr.
///
///  - GenEngine is one *instance* of the module's Parser (the reusable,
///    store-recycling class the emitter writes). Like the interpreter it
///    is one-per-thread; ParseService gives each worker its own GenEngine
///    over the one shared GenModule.
///
/// Tree transfer: the module builds ipg_rt::Node trees inside its own
/// arena, which is only valid until that Parser's next parse(). parse()
/// therefore walks the module tree through ipg_rt::TreeVisitorC (a plain
/// C callback table both sides compile from the same embedded
/// GenRuntime.h text) and rebuilds it as a genuine ipg::TreeStore tree on
/// the host side: ordinary leaves alias the caller's input bytes,
/// blackbox-decoded leaves are copied (their backing arena dies with the
/// next parse), and nonzero shifts become host lazy shifted views.
/// Shared subtrees (memo hits) are rebuilt once per occurrence — tree
/// SIZE can exceed the module's frozen-node count, but every read-level
/// view (canonical dump, attribute queries) is identical. The rebuilt
/// tree participates in the normal TreeStore recycling/FrozenTree
/// protocol, so steady-state GenEngine parses stay allocation-free too.
///
/// Stats mapping: NodesCreated/MemoHits/MemoMisses/PeakDepth come from
/// the module counters (same meaning as the interpreter's — PeakDepth is
/// the deepest grammar recursion the parse reached, virtual levels of
/// flattened rules included); TermsExecuted is counted by the host
/// engines (interpreter and VM) only and stays 0; ArenaBytesUsed/
/// StoreRecycled describe the host-side conversion store.
///
/// Converted nodes carry the grammar's global RuleId when the node's
/// name resolves to a global rule and InvalidRuleId otherwise (local
/// rules); canonical dumps and attribute reads never consult the rule
/// id, but Printer-based re-serialization of GenEngine trees is not
/// supported — print through the interpreter or the module's own
/// printTree.
///
//===----------------------------------------------------------------------===//

#ifndef IPG_CODEGEN_GENENGINE_H
#define IPG_CODEGEN_GENENGINE_H

#include "grammar/Grammar.h"
#include "runtime/Engine.h"
#include "runtime/EngineOptions.h"
#include "runtime/ParseTree.h"
#include "support/Result.h"

#include <memory>
#include <string>
#include <vector>

namespace ipg {

/// Build-time configuration for GenModule::compile beyond the engine
/// knobs (which arrive as EngineOptions and are baked into the emitted
/// parser).
struct GenModuleConfig {
  /// C++ source appended after the generated parser and before the ABI
  /// epilogue — a formats::GenBlackboxBridge::DriverSource defining
  ///   template <class ParserT> void ipgRegisterBlackboxes(ParserT &P);
  /// Empty for grammars without blackboxes.
  std::string BridgeSource;
  /// When true the epilogue calls ipgRegisterBlackboxes(P) on every
  /// Parser it creates. Must match BridgeSource being non-empty.
  bool RegisterBlackboxes = false;
  /// Extra arguments appended verbatim to the compile command line
  /// (include dirs and decoder translation units for the bridge, e.g.
  /// "-I<src> <src>/formats/MiniZlib.cpp").
  std::string ExtraCompileArgs;
  /// -std= level for the child compile. Generated parsers are C++17 on
  /// their own; bridges that pull in library headers need c++20.
  std::string Std = "c++17";
  /// Directory for parser.cpp / the shared object / compile logs. Empty
  /// means a fresh unique directory under TMPDIR, removed when the
  /// module dies; a caller-provided directory is kept.
  std::string WorkDir;
};

/// A compiled-and-loaded generated parser: shared, immutable, and
/// thread-safe after compile() returns. Create GenEngine instances (one
/// per thread) to actually parse.
class GenModule {
public:
  /// True when a host `c++` is available to compile modules with —
  /// mirrors tests/CodegenTestHarness.h; callers should skip/fall back
  /// rather than fail hard when this is false.
  static bool hostCompilerAvailable();

  static Expected<std::shared_ptr<GenModule>>
  compile(const Grammar &G, const EngineOptions &Opts = {},
          const GenModuleConfig &Config = {});

  ~GenModule();
  GenModule(const GenModule &) = delete;
  GenModule &operator=(const GenModule &) = delete;

  /// Path of the loaded shared object (diagnostics).
  const std::string &path() const { return SoPath; }

private:
  GenModule() = default;
  friend class GenEngine;

  // `ipg_mod_` ABI, resolved at load. Root pointers are opaque
  // (ipg_rt::Node inside the module); visitors are the host's
  // ipg_rt::TreeVisitorC — identical layout because both sides compile
  // the same GenRuntime.h text.
  void *(*Create)() = nullptr;
  void (*Destroy)(void *) = nullptr;
  void (*SetDepthLimit)(void *, long long) = nullptr;
  int (*Parse)(void *, const unsigned char *, unsigned long long,
               const void **) = nullptr;
  void (*Visit)(const void *, const void *) = nullptr;
  void (*Stats)(void *, unsigned long long *) = nullptr;
  unsigned (*NumNames)() = nullptr;
  const char *(*NameOf)(unsigned) = nullptr;

  void *Handle = nullptr;
  std::string SoPath;
  std::string Dir;
  bool OwnsDir = false;
};

/// One thread's instance of a compiled module, behind the Engine
/// interface. Holds a module Parser (recycled arena + memo inside the
/// .so) plus a host-side TreeStore + recycler for the converted trees,
/// so the FrozenTree/adoptStore protocol works exactly as with the
/// interpreter.
class GenEngine : public Engine {
public:
  GenEngine(std::shared_ptr<GenModule> Module, const Grammar &G);
  ~GenEngine() override;

  Expected<TreePtr> parse(ByteSpan Input) override;
  const EngineStats &stats() const override { return Stats; }
  const Grammar &grammar() const override { return G; }
  EngineKind kind() const override { return EngineKind::Generated; }
  bool adoptStore(TreeStore *Store) override;

private:
  struct Frame;

  std::shared_ptr<GenModule> Module;
  const Grammar &G;
  EngineStats Stats;
  void *Parser = nullptr; ///< module-side Parser instance (Create/Destroy)

  /// Module NameId -> host Symbol, resolved once through the grammar's
  /// interner (every emitted name originates from it, so lookups cannot
  /// miss; a miss is a build bug and fails the constructor-following
  /// first parse loudly).
  std::vector<Symbol> IdToSym;

  // Host-side conversion store with the same recycling discipline as
  // InterpState: Cur is the store being built into, Pool the recycler
  // dying TreePtrs park in.
  TreeStore *Cur = nullptr;
  TreeStore::Recycler *Pool = nullptr;
  bool DestroyedStore = false;

  /// Reused frame stack for the visitor rebuild (capacity persists
  /// across parses — no steady-state allocation).
  std::vector<Frame> Frames;
  size_t Depth = 0;
  uint32_t RootId = 0;
  bool HaveRoot = false;
  std::string ConvError;
  ByteSpan Input;

  // BeginNode is a lambda inside parse() (it needs the typed
  // ipg_rt::AttrSlot pointer this header deliberately avoids naming).
  static void cbEndNode(void *User);
  static void cbBeginArray(void *User, unsigned ElemNameId, unsigned NumElems);
  static void cbEndArray(void *User);
  static void cbLeaf(void *User, const unsigned char *Data,
                     unsigned long long Len, long long Off, int Opaque);

  Frame &pushFrame();
  void appendChild(uint32_t Id);
};

} // namespace ipg

#endif // IPG_CODEGEN_GENENGINE_H
