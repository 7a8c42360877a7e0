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
/// One tree: a module builds into the NodeStore the caller passes to
/// ipg_mod_parse (support/GenRuntime.h defines the tree for every tier),
/// so parse() hands the module its recycled TreeStore and returns a
/// TreePtr over that very store — no walk, no second store, and a
/// shared memo subtree stays one object however often it is re-anchored.
/// Ordinary leaves alias the caller's input; blackbox-decoded leaves live
/// in the store's arena, so they outlive the module's next parse like
/// the rest of the tree. Nodes carry the grammar's Symbols and RuleIds,
/// exactly as the host engines build them, which is why serialize's
/// printTree and every other host tree reader work on these trees
/// unchanged. The store follows the usual recycling/FrozenTree protocol,
/// so steady-state GenEngine parses stay allocation-free too.
///
/// Sharing the tree means sharing its layout with a separately compiled
/// object, possibly built by a different compiler: the module exports
/// ipg_rt::layoutHash() as ipg_mod_layout, and GenModule::compile refuses
/// a module whose hash differs from the host's. GenEngine checks once,
/// at construction, that the module's name table spells the grammar's
/// symbols, and refuses to parse otherwise.
///
/// Stats mapping: NodesCreated/MemoHits/MemoMisses/PeakDepth and the
/// failure diagnostics come from the module counters (same meaning as
/// the interpreter's — PeakDepth is the deepest grammar recursion the
/// parse reached, virtual levels of flattened rules included);
/// TermsExecuted is counted by the host engines (interpreter and VM)
/// only and stays 0; ArenaBytesUsed/StoreRecycled describe the store the
/// module built into.
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

  // `ipg_mod_` ABI, resolved at load. Stores and roots cross as void
  // pointers to ipg_rt::NodeStore / ipg_rt::ParseTree, whose layout both
  // sides share (compile() checks ipg_mod_layout against the host's).
  void *(*Create)() = nullptr;
  void (*Destroy)(void *) = nullptr;
  void (*SetDepthLimit)(void *, long long) = nullptr;
  int (*Parse)(void *, const unsigned char *, unsigned long long, void *,
               const void **) = nullptr;
  void (*Stats)(void *, unsigned long long *) = nullptr;
  unsigned (*NumNames)() = nullptr;
  const char *(*NameOf)(unsigned) = nullptr;

  void *Handle = nullptr;
  std::string SoPath;
  std::string Dir;
  bool OwnsDir = false;
};

/// One thread's instance of a compiled module, behind the Engine
/// interface: a module Parser (recycled memo and frames inside the .so)
/// plus the host store it builds into, so the FrozenTree/adoptStore
/// protocol works exactly as with the interpreter.
class GenEngine : public Engine {
public:
  GenEngine(std::shared_ptr<GenModule> Module, const Grammar &G);
  ~GenEngine() override;

  Expected<TreePtr> parse(ByteSpan Input) override;
  const EngineStats &stats() const override { return Stats; }
  const Grammar &grammar() const override { return G; }
  EngineKind kind() const override { return EngineKind::Generated; }
  bool adoptStore(TreeStore *Store) override { return Stores.adopt(Store); }

private:
  std::shared_ptr<GenModule> Module;
  const Grammar &G;
  EngineStats Stats;
  void *Parser = nullptr; ///< module-side Parser instance (Create/Destroy)
  /// Whether the module's name table spells this grammar's symbols
  /// (checked once at construction; parse() refuses otherwise).
  bool NamesMatch = false;
  StoreSlot Stores;
};

} // namespace ipg

#endif // IPG_CODEGEN_GENENGINE_H
