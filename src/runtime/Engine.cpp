//===- runtime/Engine.cpp - engine factory --------------------------------===//
//
// Part of the IPG reproduction of "Interval Parsing Grammars for File Format
// Parsing" (PLDI 2023). MIT license.
//
//===----------------------------------------------------------------------===//

#include "runtime/Engine.h"
#include "codegen/GenEngine.h"
#include "runtime/Interp.h"
#include "vm/BytecodeVM.h"

using namespace ipg;

Engine::~Engine() = default;

const char *ipg::engineKindName(EngineKind K) {
  switch (K) {
  case EngineKind::Interp:
    return "interp";
  case EngineKind::Generated:
    return "generated";
  case EngineKind::Vm:
    return "vm";
  }
  return "unknown";
}

Expected<std::unique_ptr<Engine>>
ipg::makeEngine(EngineKind Kind, const Grammar &G,
                const BlackboxRegistry *Blackboxes, const EngineOptions &Opts,
                const GenModuleConfig *GenConfig) {
  using Ret = Expected<std::unique_ptr<Engine>>;
  switch (Kind) {
  case EngineKind::Interp:
    return Ret(std::make_unique<Interp>(G, Blackboxes, Opts));
  case EngineKind::Vm:
    return Ret(std::make_unique<BytecodeVM>(G, Blackboxes, Opts));
  case EngineKind::Generated: {
    // Generated parsers compile Strict-mode control flow in; salvage
    // would need a regenerated module with recovery dispatch, which the
    // emitter does not produce. Refuse rather than silently parse Strict.
    if (Opts.Recovery == RecoveryPolicy::Salvage)
      return Ret::failure("generated parsers do not support "
                          "RecoveryPolicy::Salvage; use the interpreter or "
                          "bytecode VM");
    // The module compiles the options in (memoization policy, default
    // depth limit); blackboxes bind through GenConfig's bridge source,
    // not the host registry — reject a silent mismatch.
    auto M = GenModule::compile(G, Opts,
                                GenConfig ? *GenConfig : GenModuleConfig());
    if (!M)
      return Ret::failure(M.message());
    return Ret(std::make_unique<GenEngine>(std::move(*M), G));
  }
  }
  return Ret::failure("unknown engine kind");
}
