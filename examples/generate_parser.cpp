//===- examples/generate_parser.cpp - the parser generator as a tool ------===//
//
// Part of the IPG reproduction of "Interval Parsing Grammars for File Format
// Parsing" (PLDI 2023). MIT license.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The Section 7 workflow: feed an IPG grammar in, get a standalone C++
/// recursive-descent parser out. With no arguments it emits the ELF
/// grammar's parser to stdout; pass a grammar file path to generate from
/// your own grammar. `--no-memo` emits the paper's plain recursive
/// descent instead of the default memoizing parser (the trees are
/// identical; only the backtracking complexity changes). Grammars with
/// blackbox terms compile too — bind implementations at run time with
/// `Parser::registerBlackbox(name, fn, cookie)` before parsing.
///
//===----------------------------------------------------------------------===//

#include "codegen/CppEmitter.h"
#include "formats/Elf.h"

#include <cstdio>
#include <fstream>
#include <sstream>
#include <string>

using namespace ipg;

int main(int argc, char **argv) {
  EngineOptions Opts;
  std::string Path;
  for (int I = 1; I < argc; ++I) {
    if (std::string(argv[I]) == "--no-memo")
      Opts.UseMemo = false;
    else
      Path = argv[I];
  }
  std::string Src;
  if (!Path.empty()) {
    std::ifstream In(Path);
    if (!In) {
      std::fprintf(stderr, "cannot open %s\n", Path.c_str());
      return 1;
    }
    std::ostringstream Ss;
    Ss << In.rdbuf();
    Src = Ss.str();
  } else {
    Src = formats::ElfGrammarText;
    std::fprintf(stderr, "no grammar given; emitting the ELF parser\n");
  }

  auto Loaded = loadGrammar(Src);
  if (!Loaded) {
    std::fprintf(stderr, "grammar error: %s\n", Loaded.message().c_str());
    return 1;
  }
  auto Code = emitCppParser(Loaded->G, "gen", Opts);
  if (!Code) {
    std::fprintf(stderr, "codegen error: %s\n", Code.message().c_str());
    return 1;
  }
  std::fputs(Code->c_str(), stdout);
  return 0;
}
