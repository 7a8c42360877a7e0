//===- codegen/CppEmitter.h - C++ parser generator --------------*- C++ -*-===//
//
// Part of the IPG reproduction of "Interval Parsing Grammars for File Format
// Parsing" (PLDI 2023). MIT license.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The parser generator of Section 7: "generates C++ recursive descent
/// parsers in a standard way — every nonterminal is translated to a C++
/// function, which checks terminal strings and calls functions for other
/// nonterminals according to its rule."
///
/// emitCppParser produces one standalone C++17 source file with no
/// dependency on this library. Its embedded runtime IS the library's
/// shared semantic core: src/support/GenRuntime.h (arena-backed node
/// store, index-based children, flat attribute envs, zero-copy leaves,
/// lazy shifted views, first-update start/end, the (rule, interval) memo
/// table) is pasted in verbatim by the build, so the interpreter and
/// generated parsers cannot diverge semantically. On top of it the
/// emitter writes one `parseRule_N` function per rule and one `eval_N`
/// function per expression. Entry points:
///
///   bool NS::parse(const uint8_t *Data, size_t Len, NS::NodePtr &Out);
///   NS::Parser P; P.parse(...);   // reusable: recycles its node store
///                                 // and memo table across parses
///                                 // (0 allocs steady state)
///
/// A parsed tree is borrowed from its parser and valid until the next
/// parse() on the same instance. `NS::dumpTree(Root)` renders the
/// canonical form tests/differential_test.cpp compares against the
/// interpreter.
///
/// Feature parity with the engine (both former documented limitations are
/// closed):
///
///  - Memoization: every non-local (rule, interval) result — successes
///    AND failures — is memoized in the embedded FlatIntervalMap with the
///    interpreter's exact key packing, closing the Fig.-12 gap on
///    backtracking-heavy grammars like PDF. EngineOptions::UseMemo
///    turns it off for ablation (plain recursive descent, as the paper's
///    generator); the trees are identical either way.
///
///  - Blackboxes: grammars with blackbox terms compile, and the driver
///    binds implementations at runtime through the registration hook
///    `P.registerBlackbox("name", fn, user)` (ipg_rt::BlackboxFn — a
///    plain function pointer + cookie, so generated files stay
///    dependency-free). An unregistered blackbox hard-fails the parse,
///    exactly as in the interpreter.
///
//===----------------------------------------------------------------------===//

#ifndef IPG_CODEGEN_CPPEMITTER_H
#define IPG_CODEGEN_CPPEMITTER_H

#include "grammar/Grammar.h"
#include "runtime/EngineOptions.h"
#include "support/Result.h"

#include <string>

namespace ipg {

/// Emits a standalone recursive-descent parser for \p G (which must be
/// completed + attribute-checked) into namespace \p Namespace. \p Opts
/// are the SAME runtime knobs the host engines consume, so the engines
/// cannot drift on defaults: UseMemo picks between memoized rule
/// functions and the paper's plain recursive descent (trees are
/// byte-identical either way); MaxDepth is baked in as the emitted
/// parser's default depth limit (still runtime-adjustable via
/// Parser::setDepthLimit). Recovery is not consulted: makeEngine()
/// refuses Salvage for generated engines.
Expected<std::string> emitCppParser(const Grammar &G,
                                    const std::string &Namespace,
                                    const EngineOptions &Opts = {});

} // namespace ipg

#endif // IPG_CODEGEN_CPPEMITTER_H
